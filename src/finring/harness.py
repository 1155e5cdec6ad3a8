"""Executable checks for the two structural laws the library is built around.

`check_residue_idealization` builds R = A ∝ (A/M)ⁿ over a local base A and
checks four laws of such idealizations:

  1. R is a total quotient ring and Prüfer;
  2. R is Gaussian exactly when A is (compared at exact verdicts only; a
     bounded verdict on either side records a skip, never a pass);
  3. R is arithmetical exactly when A is a field and n = 1;
  4. R has infinite weak dimension.

`check_factor_descent` quotients any trivial extension R = A ∝ E by the
square-zero ideal 0 ∝ E, verifies the quotient is isomorphic to A via the
induced map, and checks that a Gaussian certificate and the arithmetical
property descend to the factor.

Both functions verify their hypotheses exhaustively before asserting anything
and report law-by-law outcomes instead of raising on the first failure, so a
run over many instances surfaces every violation at once.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .classify import (ClassifyConfig, decide_arithmetical, decide_pruefer,
                       decide_total_quotient, decide_weak_dim,
                       gaussian_ring_verdict)
from .errors import ConsistencyError, RingBuildError
from .ideals import (ideal_generated_by, ideal_product, is_local,
                     make_quotient, residue_vector_space)
from .rings import (FiniteRing, RingHom, TrivialExtensionRing, ZmodRing,
                    standard_gf)

DEFAULT_ZMOD_ORDERS = (2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 19, 23, 25, 27,
                       29, 31, 32)
DEFAULT_GF_PARAMS = ((2, 2), (2, 3), (3, 2), (2, 4))
DEFAULT_DIMENSIONS = (1, 2)


@dataclass
class LawOutcome:
    law: str
    status: str            # "pass" | "fail" | "skip"
    detail: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {"law": self.law, "status": self.status, "detail": self.detail}


@dataclass
class InstanceResult:
    check: str
    ring_name: str
    order: int
    laws: list[LawOutcome] = field(default_factory=list)

    @property
    def failed(self) -> bool:
        return any(l.status == "fail" for l in self.laws)

    @property
    def skips(self) -> int:
        return sum(1 for l in self.laws if l.status == "skip")

    def to_dict(self) -> dict:
        return {"check": self.check, "ring": self.ring_name, "order": self.order,
                "laws": [l.to_dict() for l in self.laws]}


def _law(result: InstanceResult, law: str, passed: bool, detail: dict) -> None:
    result.laws.append(LawOutcome(law, "pass" if passed else "fail", detail))


def _skip(result: InstanceResult, law: str, detail: dict) -> None:
    result.laws.append(LawOutcome(law, "skip", detail))


def build_residue_idealization(base: FiniteRing, n: int) -> TrivialExtensionRing:
    """A ∝ (A/M)ⁿ over a local base A."""
    maximal = is_local(base)
    if maximal is None:
        raise RingBuildError(
            f"residue idealization needs a local base; {base.name} is not local")
    module = residue_vector_space(base, maximal, n)
    return TrivialExtensionRing(base, module)


def check_residue_idealization(base: FiniteRing, n: int,
                               config: ClassifyConfig | None = None,
                               ring: TrivialExtensionRing | None = None
                               ) -> InstanceResult:
    config = config or ClassifyConfig.from_env()
    if ring is None:
        ring = build_residue_idealization(base, n)
    if ring.base_ring is not base:
        raise RingBuildError("prebuilt ring has a different base")
    maximal = is_local(base)
    module = ring.ext_module
    result = InstanceResult("residue_idealization", ring.name, ring.order)

    # hypotheses, checked exhaustively
    if module.order <= 1:
        raise ConsistencyError(f"{ring.name}: residue space is zero")
    acts = module.act_arr(maximal.indices[:, None],
                          np.arange(module.order, dtype=np.int64)[None, :])
    if bool(np.any(acts != module.mzero)):
        raise ConsistencyError(
            f"{ring.name}: maximal ideal fails to annihilate the residue space")

    # law 1: total quotient ring and Prüfer
    tq = decide_total_quotient(ring)
    pr = decide_pruefer(ring)
    _law(result, "total_quotient_and_pruefer",
         tq.verdict is True and pr.verdict is True,
         {"total_quotient": tq.verdict, "pruefer": pr.verdict})

    # law 2: Gaussian transfers between base and extension (exact verdicts)
    g_base = gaussian_ring_verdict(base, config)
    g_ring = gaussian_ring_verdict(ring, config)
    if "BoundedYes" in (g_base.verdict, g_ring.verdict):
        _skip(result, "gaussian_transfer",
              {"base": g_base.verdict, "extension": g_ring.verdict,
               "note": "bounded verdict on at least one side"})
    else:
        _law(result, "gaussian_transfer",
             (g_ring.verdict == "Yes") == (g_base.verdict == "Yes"),
             {"base": g_base.verdict, "extension": g_ring.verdict})

    # law 3: arithmetical iff the base is a field and n = 1
    expected = maximal.size == 1 and n == 1
    arith = decide_arithmetical(ring)
    _law(result, "arithmetical_iff_field_base_line",
         (arith.verdict is True) == expected,
         {"verdict": arith.verdict, "expected": expected,
          "base_is_field": maximal.size == 1, "dimension": n})

    # law 4: infinite weak dimension
    wd = decide_weak_dim(ring)
    _law(result, "weak_dimension_infinite", wd.verdict == "Infinite",
         {"verdict": wd.verdict})
    return result


def check_factor_descent(ring: TrivialExtensionRing,
                         config: ClassifyConfig | None = None) -> InstanceResult:
    config = config or ClassifyConfig.from_env()
    if not isinstance(ring, TrivialExtensionRing):
        raise RingBuildError("factor descent applies to trivial extensions")
    base, module = ring.base_ring, ring.ext_module
    m = module.order
    result = InstanceResult("factor_descent", ring.name, ring.order)

    # the square-zero ideal 0 ∝ E occupies the first m indices
    ext_ideal = ideal_generated_by(ring, list(range(m)))
    expected_mask = (1 << m) - 1
    if ext_ideal.mask != expected_mask:
        raise ConsistencyError(f"{ring.name}: 0 ∝ E is not the expected ideal")
    _law(result, "extension_ideal_squares_to_zero",
         ideal_product(ext_ideal, ext_ideal).is_zero(),
         {"ideal_order": ext_ideal.size})

    quotient, proj = make_quotient(ring, ext_ideal)
    induced = RingHom(quotient, base, quotient.reps // m)
    bijective = sorted(induced.map.tolist()) == list(range(base.order))
    hom_ok = induced.verify()
    _law(result, "quotient_isomorphic_to_base", bijective and hom_ok,
         {"bijective": bijective, "hom_laws": hom_ok,
          "quotient_order": quotient.order})
    if not (bijective and hom_ok):
        return result

    g_ring = gaussian_ring_verdict(ring, config)
    if g_ring.verdict != "Yes":
        _skip(result, "gaussian_descends_to_factor",
              {"extension": g_ring.verdict, "note": "law is vacuous unless the "
               "extension is certified Gaussian"})
    else:
        g_base = gaussian_ring_verdict(base, config)
        if g_base.verdict == "BoundedYes":
            _skip(result, "gaussian_descends_to_factor",
                  {"extension": g_ring.verdict, "factor": g_base.verdict,
                   "note": "factor verdict is bounded; never asserted"})
        else:
            _law(result, "gaussian_descends_to_factor", g_base.verdict == "Yes",
                 {"extension": g_ring.verdict, "factor": g_base.verdict})

    arith_ring = decide_arithmetical(ring)
    if arith_ring.verdict is not True:
        _skip(result, "arithmetical_descends_to_factor",
              {"extension": arith_ring.verdict,
               "note": "law is vacuous unless the extension is arithmetical"})
    else:
        arith_base = decide_arithmetical(base)
        _law(result, "arithmetical_descends_to_factor",
             arith_base.verdict is True,
             {"extension": arith_ring.verdict, "factor": arith_base.verdict})
    return result


def default_local_bases() -> list[FiniteRing]:
    bases: list[FiniteRing] = [ZmodRing(k) for k in DEFAULT_ZMOD_ORDERS]
    bases.extend(standard_gf(p, k) for p, k in DEFAULT_GF_PARAMS)
    return bases


@dataclass
class HarnessReport:
    results: list[InstanceResult] = field(default_factory=list)

    @property
    def failures(self) -> list[InstanceResult]:
        return [r for r in self.results if r.failed]

    @property
    def skips(self) -> int:
        return sum(r.skips for r in self.results)

    def to_dict(self) -> dict:
        return {
            "instances": len(self.results),
            "failures": len(self.failures),
            "skipped_laws": self.skips,
            "results": [r.to_dict() for r in self.results],
        }


def run_theorem_harness(config: ClassifyConfig | None = None,
                        bases: list[FiniteRing] | None = None,
                        dimensions: tuple[int, ...] = DEFAULT_DIMENSIONS
                        ) -> HarnessReport:
    """Run both checks over every (local base, residue dimension) instance."""
    config = config or ClassifyConfig.from_env()
    bases = default_local_bases() if bases is None else bases
    report = HarnessReport()
    for base in bases:
        for n in dimensions:
            ring = build_residue_idealization(base, n)
            report.results.append(check_residue_idealization(base, n, config, ring))
            report.results.append(check_factor_descent(ring, config))
    return report
