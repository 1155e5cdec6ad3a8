"""Deciders for every studied ring condition, with machine-replayable
certificates, plus the per-ring classification driver.

Verdict policy: conditions a finite ring determines outright (reduced, von
Neumann regularity, the weak-dimension dichotomy, arithmetical, Prüfer, total
quotient ring, local irreducibility of the zero ideal) are two-valued with a
witness on the negative side.  Gaussian and pseudo-arithmetical have no known
finite decision procedure, so they are three-valued: Yes via a sound
structural rule, No via a re-verified witness, or BoundedYes carrying the
exhausted search bound.  Arithmetical is decided at every order by whether
each local factor's maximal ideal is principal, and its certificates (a
`False` names that factor's maximal ideal, a `True` and Prüfer's count the
ideals from the chain-ring corners) read no lattice; von Neumann regularity
is read from the square scan, since a reduced finite ring is a product of
fields.  Each verdict has one certificate kind at every order, and no
decider reads a scale constant: only the Gaussian pair search and the
pseudo-arithmetical scan of a ring that is not arithmetical build the ideal
lattice, and `enumerate_ideals` refuses it above the lattice bound.
classify() asserts the chain

    semihereditary ⇒ weak dimension Zero ⇒ arithmetical ⇒ Gaussian ⇒ Prüfer

at the exact-verdict level and raises ConsistencyError on any violation.

Every decider, `gaussian_ring_verdict` included, returns a frozen
ConditionResult; the cached ones hand back the same object on each call, so
classify() with timing on records `millis` on a copy.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import BoundExceededError, ConsistencyError
from .ideals import (Ideal, complement_idempotent, content_calculus,
                     enumerate_ideals, first_nonprincipal_maximal,
                     has_square_zero_maximal, ideal_count, ideal_product,
                     is_local, is_locally_principal, least_generator_count,
                     local_factors, make_quotient, principal_ideal,
                     zero_ideal_locally_irreducible)
from .polys import (RingPoly, content, decode_poly_block, make_poly,
                    orbit_verdicts, poly_count, poly_mul,
                    ring_gaussian_refutation_search)
from .rings import (MODULE_LIMIT, TABLE_LIMIT, FiniteRing,
                    TrivialExtensionRing, blocks, element_units)

SEARCH_CAP_ENV = "FINRING_SEARCH_CAP"
SEARCH_BOUNDS = ("degree_bound", "witness_cap", "pair_cap", "pseudo_candidate_cap")


@dataclass(frozen=True)
class ClassifyConfig:
    """Search bounds of the Gaussian and pseudo-arithmetical deciders, and
    the timing switch."""

    degree_bound: int = 3
    witness_cap: int = 2_000_000
    pair_cap: int = 30_000_000
    pseudo_candidate_cap: int = 256
    timing: bool = False

    def __post_init__(self):
        for name in SEARCH_BOUNDS:
            value = getattr(self, name)
            if value < 0:
                raise ValueError(f"{name} must be >= 0, got {value}")

    @staticmethod
    def from_env(**overrides) -> "ClassifyConfig":
        """Default config, honoring the global search-cap environment variable
        (it bounds both the per-polynomial and the pair search); explicit
        overrides win over the environment."""
        config = ClassifyConfig()
        cap = os.environ.get(SEARCH_CAP_ENV)
        if cap is not None:
            try:
                value = int(cap)
            except ValueError as exc:
                raise BoundExceededError(
                    f"{SEARCH_CAP_ENV} must be an integer, got {cap!r}") from exc
            config = replace(config, witness_cap=value, pair_cap=value)
        if overrides:
            config = replace(config, **overrides)
        return config

    def key(self) -> tuple:
        return tuple(getattr(self, name) for name in SEARCH_BOUNDS)

    def public_dict(self) -> dict:
        """The search bounds, plus two constants that reports have always
        echoed: the lattice bound and a `seed` of 0 that nothing reads.  No
        decider reads the lattice bound: `enumerate_ideals` enforces it."""
        from .ideals import LATTICE_LIMIT
        return {
            "degree_bound": self.degree_bound,
            "witness_cap": self.witness_cap,
            "pair_cap": self.pair_cap,
            "pseudo_candidate_cap": self.pseudo_candidate_cap,
            "lattice_limit": LATTICE_LIMIT,
            "seed": 0,
        }


@dataclass(frozen=True)
class ConditionResult:
    verdict: object  # bool, or a string for enum-valued conditions
    certificate: dict
    witness: dict | None = None
    bound: int | None = None
    millis: float | None = None

    def to_dict(self) -> dict:
        out: dict = {"verdict": self.verdict, "certificate": self.certificate}
        if self.witness is not None:
            out["witness"] = self.witness
        if self.bound is not None:
            out["bound"] = self.bound
        if self.millis is not None:
            out["millis"] = self.millis
        return out


CONDITION_ORDER = (
    "reduced",
    "semihereditary",
    "weak_dim_class",
    "arithmetical",
    "gaussian",
    "pruefer",
    "total_quotient_ring",
    "pseudo_arithmetical",
    "zero_ideal_locally_irreducible",
)


@dataclass
class ClassificationReport:
    ring_name: str
    order: int
    config: ClassifyConfig
    conditions: dict[str, ConditionResult] = field(default_factory=dict)

    def verdict(self, name: str):
        return self.conditions[name].verdict

    def to_dict(self) -> dict:
        return {
            "ring": {"name": self.ring_name, "order": self.order},
            "config": self.config.public_dict(),
            "conditions": {k: self.conditions[k].to_dict() for k in CONDITION_ORDER},
        }


def _lit(ring: FiniteRing, i: int):
    return ring.decode_literal(int(i))


def _lits(ring: FiniteRing, seq) -> list:
    return [_lit(ring, i) for i in seq]


# ---------------------------------------------------------------------------
# reduced / von Neumann regular / weak dimension / semihereditary


def _square_zero_witness(ring: FiniteRing) -> int | None:
    """The first nonzero element whose square is zero, or None, cached."""
    return ring.memo("square_zero", lambda: _first_square_zero(ring))


def _first_square_zero(ring: FiniteRing) -> int | None:
    idx = np.arange(ring.order, dtype=np.int64)
    squares = ring.mul_arr(idx, idx)
    hits = np.nonzero(squares == ring.zero)[0]
    hits = hits[hits != ring.zero]
    return int(hits[0]) if hits.size else None


def decide_reduced(ring: FiniteRing) -> ConditionResult:
    """No nonzero nilpotents.  A minimal nilpotent yields a square-zero
    element, so scanning squares decides full nilpotence."""
    witness = _square_zero_witness(ring)
    if witness is None:
        return ConditionResult(True, {"kind": "no_square_zero_elements"})
    return ConditionResult(False, {"kind": "square_zero_witness"},
                           witness={"element": _lit(ring, witness)})


def vn_regular_status(ring: FiniteRing) -> tuple[bool, int | None, str]:
    """(verdict, witness element, method), read from the square scan alone.
    A square-zero element refutes (a = a²x forces a = 0); a reduced finite
    ring is Artinian, hence a product of fields (Atiyah–Macdonald, Thm
    8.7), and so von Neumann regular.  Any order is answered."""
    witness = _square_zero_witness(ring)
    if witness is not None:
        return False, witness, "square_zero_witness"
    return True, None, "reduced_finite_ring_is_a_product_of_fields"


def decide_semihereditary(ring: FiniteRing) -> ConditionResult:
    """Every finitely generated ideal projective.

    Over a finite ring this collapses to von Neumann regularity (each local
    factor must be a field), which the primary decider computes; a positive
    verdict additionally verifies, at any order, that every localization is
    a field: its record's residue field is the whole factor.
    """
    ok, witness, method = vn_regular_status(ring)
    cert: dict = {"kind": "vn_regular_collapse", "method": method}
    if not ok:
        return ConditionResult(False, cert,
                               witness={"element": _lit(ring, witness),
                                        "reason": method})
    if any(f.residue != f.order for f in local_factors(ring)):
        raise ConsistencyError(
            f"{ring.name}: von Neumann regular but a localization is not a "
            "field")
    cert["localizations_are_fields"] = True
    return ConditionResult(True, cert)


def decide_weak_dim(ring: FiniteRing) -> ConditionResult:
    """Weak-dimension class of a finite (hence Artinian) ring: Zero exactly
    when von Neumann regular, otherwise Infinite — no finite ring sits at
    weak dimension one, which is the gap the corpus suite re-checks."""
    ok, witness, method = vn_regular_status(ring)
    cert = {
        "kind": "artinian_dichotomy",
        "justification": ("finite commutative rings are Artinian: weak "
                          "dimension is 0 iff the ring is von Neumann "
                          "regular and infinite otherwise"),
        "method": method,
    }
    if ok:
        return ConditionResult("Zero", cert)
    return ConditionResult("Infinite", cert,
                           witness={"element": _lit(ring, witness), "reason": method})


# ---------------------------------------------------------------------------
# arithmetical


def decide_arithmetical(ring: FiniteRing) -> ConditionResult:
    """Read from `first_nonprincipal_maximal`, with no lattice, at every
    order and for every ring, local or not.  A `True` carries `ideal_count`,
    read from the chain-ring corners, and a `False` witness is the first
    bad factor's maximal ideal m: its image m ∩ eR (`pushed_order`) in the
    corner eR (`localization_order`) is not principal, so m is not locally
    principal.  A local ring is its own corner (e = 1)."""
    return ring.memo("arithmetical", lambda: _decide_arithmetical_inner(ring))


def _decide_arithmetical_inner(ring: FiniteRing) -> ConditionResult:
    bad = first_nonprincipal_maximal(ring)
    if bad is None:
        return ConditionResult(True, {"kind": "all_ideals_locally_principal",
                                      "ideal_count": ideal_count(ring)})
    m = bad.maximal
    gens = _lits(ring, m.gens)
    return ConditionResult(False, {"kind": "non_locally_principal_ideal"},
                           witness={"ideal_gens": gens, "ideal_order": m.size,
                                    "maximal_gens": gens,
                                    "pushed_order": bad.order // bad.residue,
                                    "localization_order": bad.order})


# ---------------------------------------------------------------------------
# Gaussian (ring level)


def gaussian_ring_verdict(ring: FiniteRing, config: ClassifyConfig) -> ConditionResult:
    """Yes, No or BoundedYes; a No's witness is a violating pair {f, g}."""
    return ring.memo(("gaussian_ring", config.key()),
                     lambda: _gaussian_ring_inner(ring, config))


def _refutation(f: RingPoly, g: RingPoly, **certificate) -> ConditionResult:
    """The No for a pair (f, g) with c(fg) ≠ c(f)c(g), checked here."""
    lhs = content(poly_mul(f, g))
    rhs = ideal_product(content(f), content(g))
    if lhs.mask == rhs.mask:
        raise ConsistencyError(
            f"{f.ring.name}: claimed Gaussian violation failed to verify")
    return ConditionResult(
        "No", {"rule": "content_violation", **certificate,
               "product_content_order": lhs.size,
               "content_product_order": rhs.size},
        witness={"f": f.literals(), "g": g.literals()})


def _gaussian_ring_inner(ring: FiniteRing, config: ClassifyConfig) -> ConditionResult:
    # rule (a): arithmetical rings are Gaussian (implication chain)
    if first_nonprincipal_maximal(ring) is None:
        return ConditionResult("Yes", {"rule": "arithmetical"})
    # rule (b): split a non-local ring into its local factors
    if is_local(ring) is None:
        return _gaussian_by_decomposition(ring, config)

    # rule (c): local with square-zero maximal ideal
    if has_square_zero_maximal(ring):
        return ConditionResult(
            "Yes", {"rule": "local_square_zero_maximal",
                    "maximal_order": is_local(ring).size})

    # rule (d): trivial extension of a Gaussian local base by a module the
    # maximal ideal annihilates
    if isinstance(ring, TrivialExtensionRing):
        base, module = ring.base_ring, ring.ext_module
        m_base = is_local(base)
        if m_base is not None and module.order > 1:
            acts = module.act_arr(m_base.indices[:, None],
                                  np.arange(module.order, dtype=np.int64)[None, :])
            if bool(np.all(acts == module.mzero)):
                base_verdict = gaussian_ring_verdict(base, config)
                if base_verdict.verdict == "Yes":
                    return ConditionResult(
                        "Yes", {"rule": "gaussian_base_idealization",
                                "base": base.name,
                                "base_certificate": base_verdict.certificate,
                                "annihilation_checked": True})

    # bounded refutation search: its content ids read the lattice, which
    # `enumerate_ideals` refuses above the lattice bound
    found, sym_degree, pairs = ring_gaussian_refutation_search(
        ring, config.degree_bound, config.pair_cap)
    if found is not None:
        return _refutation(*found)
    return ConditionResult(
        "BoundedYes", {"rule": "exhausted_search", "pairs_checked": pairs},
        bound=sym_degree)


def _gaussian_by_decomposition(ring: FiniteRing, config: ClassifyConfig
                               ) -> ConditionResult:
    """Per-factor verdicts, each factor R_m built as R/(1 − e)R for its
    primitive idempotent e, in the order of `local_factors`, which checks
    that R is their product.  The first factor whose verdict is No ends the
    walk: its violating pair is read back from its literals and lifted by
    r ↦ e·r of each coset representative, the one element of eR in that
    coset, which every other factor sees as zero."""
    rows = []
    for local in local_factors(ring):
        e = local.idempotent
        factor, _ = make_quotient(ring, principal_ideal(
            ring, complement_idempotent(ring, e)))
        verdict = gaussian_ring_verdict(factor, config)
        if verdict.verdict == "No":
            lifted = ring.mul_arr(factor.reps, e)
            f, g = (make_poly(ring, [int(lifted[factor.encode_literal(lit)])
                                     for lit in verdict.witness[key]])
                    for key in ("f", "g"))
            return _refutation(f, g, lifted_from_localization_order=factor.order)
        rows.append((factor.order, verdict))
    certificate = {"rule": "local_factor_decomposition",
                   "factors": [{"localization_order": order, "status": v.verdict,
                                "certificate": v.certificate} for order, v in rows]}
    if all(v.verdict == "Yes" for _, v in rows):
        return ConditionResult("Yes", certificate)
    return ConditionResult(
        "BoundedYes", certificate,
        bound=min(v.bound for _, v in rows if v.verdict == "BoundedYes"))


# ---------------------------------------------------------------------------
# Prüfer / total quotient ring


def decide_pruefer(ring: FiniteRing) -> ConditionResult:
    """Every regular finitely generated ideal invertible.

    A regular ideal contains a non-zerodivisor, which the certified
    unit/zerodivisor partition shows is a unit, so the ideal is the whole
    ring.  Every proper ideal lies in a maximal ideal, so a maximal ideal of
    `local_factors` that holds a unit is an internal error; with none, R is
    the one regular ideal.  An arithmetical ring counts its ideals from its
    chain-ring corners (`ideal_count`) next to that one regular ideal; any
    other ring reports its unit count.  No lattice is read.
    """
    units = element_units(ring)
    if any(units[f.maximal.indices].any() for f in local_factors(ring)):
        raise ConsistencyError(f"{ring.name}: a proper ideal contains a unit")
    if first_nonprincipal_maximal(ring) is None:
        return ConditionResult(True, {"kind": "all_regular_ideals_invertible",
                                      "ideal_count": ideal_count(ring),
                                      "regular_ideal_count": 1})
    return ConditionResult(True, {
        "kind": "regular_ideals_collapse",
        "unit_count": int(np.count_nonzero(units)),
        "justification": ("certified unit/zerodivisor partition: a regular "
                          "ideal contains a non-zerodivisor, which is a unit, "
                          "so the only regular ideal is the ring itself"),
    })


def decide_total_quotient(ring: FiniteRing) -> ConditionResult:
    """Every element a unit or a zerodivisor, read off the certified
    partition at any order."""
    unit_count = int(np.count_nonzero(element_units(ring)))
    return ConditionResult(True, {"kind": "unit_zerodivisor_partition",
                                  "unit_count": unit_count,
                                  "zerodivisor_count": ring.order - unit_count})


# ---------------------------------------------------------------------------
# pseudo-arithmetical


def _non_locally_principal(ring: FiniteRing):
    """Each lattice ideal that is not locally principal, with its
    counterexample from `is_locally_principal`, in lattice order."""
    for ideal in enumerate_ideals(ring).ideals:
        ok, counter = is_locally_principal(ideal)
        if not ok:
            yield ideal, counter


def _generator_layouts(ring: FiniteRing, ideal: Ideal, degree: int):
    """Yield, block by block, the coefficient columns (low-first, one row
    per degree slot) of the polynomials of exact `degree` whose
    coefficients lie in the ideal and generate it, in the pinned
    enumeration order; none when its d + 1 coefficients are fewer than the
    ideal needs generators."""
    if degree + 1 < least_generator_count(ideal):
        return
    calc = content_calculus(ring)
    target = calc.lattice.ideal_id(ideal)
    members = ideal.indices
    for start, stop in blocks(poly_count(members.size, degree), budget=1 << 16):
        cols = decode_poly_block(members, degree, start, stop)
        hits = np.flatnonzero(calc.content_ids(cols) == target)
        if hits.size:
            yield np.array([c[hits] for c in cols])


def _first_layouts(ring: FiniteRing, ideal: Ideal, degree_bound: int,
                   count: int) -> list[np.ndarray]:
    """Column blocks of the ideal's first `count` generator layouts of
    degree 1 to `degree_bound`, in the pinned order; no later block is
    decoded."""
    taken, left = [], count
    for degree in range(1, degree_bound + 1):
        for cols in _generator_layouts(ring, ideal, degree):
            taken.append(cols[:, :left])
            left -= taken[-1].shape[1]
            if not left:
                return taken
    return taken


def _pseudo_candidates(ring: FiniteRing, non_lp, config: ClassifyConfig
                       ) -> np.ndarray:
    """Coefficient columns (low-first, zero-padded to the widest) of the
    first `pseudo_candidate_cap` generator layouts of each ideal of
    `non_lp`, ideal by ideal: one column per candidate."""
    taken = [cols for ideal, _counter in non_lp
             for cols in _first_layouts(ring, ideal, config.degree_bound,
                                        config.pseudo_candidate_cap)]
    width = max((cols.shape[0] for cols in taken), default=0)
    out = np.full((width, sum(cols.shape[1] for cols in taken)), ring.zero,
                  dtype=np.int64)
    at = 0
    for cols in taken:
        out[:cols.shape[0], at:at + cols.shape[1]] = cols
        at += cols.shape[1]
    return out


def decide_pseudo_arithmetical(ring: FiniteRing, config: ClassifyConfig
                               ) -> ConditionResult:
    """Does every Gaussian polynomial have locally principal content?

    An arithmetical ring is answered first: every ideal is locally
    principal, so its Yes is exact at any order and builds no lattice; it
    reads `ideal_count` from its chain-ring corners.  Any other ring scans
    the lattice for the ideals that are not locally principal, so
    `enumerate_ideals` refuses it above the lattice bound.  Any violating
    polynomial has content equal to some non-locally-principal ideal I and
    coefficients inside I, so candidates are exactly the generator layouts
    of such ideals.  When the whole ring is certified Gaussian
    (`gaussian_ring_verdict`, read from the ring's cache), the first layout
    is itself a certified witness and the verdict is an exact No; otherwise
    candidates are searched under the configured caps and the verdict stays
    bounded.  The candidates stay coefficient columns
    (`_pseudo_candidates`), and their statuses are filed once per orbit by
    `polys.orbit_verdicts`, whose counts the verdict reads.  Runtime
    invariant: a ring that is not arithmetical has an ideal that is not
    locally principal (its bad factor's maximal ideal, at least), and a
    scan that finds none raises ConsistencyError.
    """
    if first_nonprincipal_maximal(ring) is None:
        return ConditionResult("Yes", {"kind": "all_ideals_locally_principal",
                                       "ideal_count": ideal_count(ring)})
    non_lp = list(_non_locally_principal(ring))
    if not non_lp:
        raise ConsistencyError(
            f"{ring.name}: a local factor's maximal ideal is not principal, "
            "but the lattice scan finds no ideal that is not locally principal")

    gaussian = gaussian_ring_verdict(ring, config)
    if gaussian.verdict == "Yes":
        for ideal, counter in non_lp:
            first = _first_layouts(ring, ideal, config.degree_bound, 1)
            if first:
                witness = {
                    "f": make_poly(ring, first[0][:, 0]).literals(),
                    "content_gens": _lits(ring, ideal.gens),
                    "content_order": ideal.size,
                    "non_principal_at": {
                        "maximal_gens": _lits(ring, counter["maximal"].gens),
                        "localization_order": counter["localization_order"],
                    },
                    "gaussian_reason": {"rule": "ring_certified_gaussian",
                                        "ring_certificate": gaussian.certificate},
                }
                return ConditionResult(
                    "No", {"kind": "certified_gaussian_with_bad_content"},
                    witness=witness)
        return ConditionResult(  # no layout of any non-lp ideal fits the bound
            "BoundedYes", {"kind": "no_generator_layout_within_degree_bound",
                           "non_locally_principal_ideals": len(non_lp)},
            bound=config.degree_bound)

    cols = _pseudo_candidates(ring, non_lp, config)
    run = orbit_verdicts(ring, cols, config.degree_bound, config.witness_cap)
    for r, verdict in run.filed.items():     # ascending: the first certified
        if verdict.status == "certified":   # root is the first such candidate
            # a candidate's content is proper and nonzero, and a local ring
            # with square-zero maximal ideal is certified Gaussian (rule (c))
            raise ConsistencyError(
                f"{ring.name}: candidate {make_poly(ring, cols[:, r]).literals()} "
                f"certified Gaussian ({verdict.reason}) in a ring not certified "
                f"Gaussian")
    tried = cols.shape[1]
    return ConditionResult(
        "BoundedYes",
        {"kind": "bounded_candidate_search",
         "non_locally_principal_ideals": len(non_lp),
         "candidates_tried": tried, "refuted": run.refuted.size,
         "inconclusive": tried - run.refuted.size},
        bound=config.degree_bound)


# ---------------------------------------------------------------------------
# zero ideal locally irreducible


def decide_zero_locally_irreducible(ring: FiniteRing) -> ConditionResult:
    """Read from each local factor's socle.  `local_factors` reads no
    lattice, so every ring gets a verdict at any order, local or not."""
    verdict, detail = zero_ideal_locally_irreducible(ring)
    cert = {"kind": "localization_atom_counts", "localizations": detail}
    if verdict:
        return ConditionResult(True, cert)
    bad = next(d for d in detail if not d["irreducible"])
    witness = {"maximal_gens": bad["maximal_gens"],
               "atom_count": bad["atom_count"],
               "localization_order": bad["localization_order"]}
    return ConditionResult(False, cert, witness=witness)


# ---------------------------------------------------------------------------
# driver


def classify(ring: FiniteRing, config: ClassifyConfig | None = None
             ) -> ClassificationReport:
    config = config or ClassifyConfig.from_env()
    # the largest supported ring is a trivial extension of a table-backed base
    # by the largest module; refuse bigger ones before any decider allocates
    # per-element arrays
    if ring.order > TABLE_LIMIT * MODULE_LIMIT:
        raise BoundExceededError(
            f"{ring.name} has order {ring.order}, above the largest supported "
            f"order {TABLE_LIMIT * MODULE_LIMIT}")
    report = ClassificationReport(ring.name, ring.order, config)

    def run(name: str, fn, *args) -> None:
        # deciders cache their results on the ring, so timing goes on a copy
        start = time.perf_counter()
        result = fn(*args)
        if config.timing:
            result = replace(result, millis=round(
                (time.perf_counter() - start) * 1000.0, 3))
        report.conditions[name] = result

    run("reduced", decide_reduced, ring)
    run("semihereditary", decide_semihereditary, ring)
    run("weak_dim_class", decide_weak_dim, ring)
    run("arithmetical", decide_arithmetical, ring)
    run("gaussian", gaussian_ring_verdict, ring, config)
    run("pruefer", decide_pruefer, ring)
    run("total_quotient_ring", decide_total_quotient, ring)
    run("pseudo_arithmetical", decide_pseudo_arithmetical, ring, config)
    run("zero_ideal_locally_irreducible", decide_zero_locally_irreducible, ring)

    _assert_implication_chain(report)
    return report


def _assert_implication_chain(report: ClassificationReport) -> None:
    name = report.ring_name
    c = report.verdict
    if c("semihereditary") is True and c("weak_dim_class") != "Zero":
        raise ConsistencyError(f"{name}: semihereditary but weak dimension nonzero")
    if c("weak_dim_class") == "Zero" and c("arithmetical") is not True:
        raise ConsistencyError(f"{name}: weak dimension zero but not arithmetical")
    if c("arithmetical") is True and c("gaussian") != "Yes":
        raise ConsistencyError(f"{name}: arithmetical but Gaussian verdict is "
                               f"{c('gaussian')}")
    if c("gaussian") == "Yes" and c("pruefer") is not True:
        raise ConsistencyError(f"{name}: Gaussian but not Prüfer")
    if c("weak_dim_class") not in ("Zero", "Infinite"):
        raise ConsistencyError(f"{name}: weak dimension outside the dichotomy")
