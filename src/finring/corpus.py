"""Deterministic ring corpora and the suites that run over them.

`generate_corpus` materializes every family member up to the configured order
in a fixed order, so that two runs with equal configs produce literally the
same ring list (and therefore byte-identical reports downstream):

  - zmod:    Z/n for 2 ≤ n ≤ zmod_max;
  - gf:      F_{p^k} (k ≥ 2, pinned modulus) with p^k ≤ gf_max;
  - product: unordered pairs of the zmod/gf members whose product order fits
             max_order;
  - trivext: A ∝ (A/M)ⁿ for n ∈ {1, 2} and A ∝ A over every local zmod/gf
             member, capped by max_order.

`run_corpus` classifies every ring and asserts the cross-condition invariants
that a finite ring can never violate; a violation is an internal-consistency
error, not a report entry.  `run_theorems` checks the two structural laws of
`harness` on the default local bases and descends the factor of every
corpus trivial extension.  `run_conjecture` compares the pseudo-arithmetical
verdict against local irreducibility of the zero ideal on every corpus ring;
disagreement is the most valuable possible output and is re-verified through
certificate replay before being reported.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .certs import replay_condition
from .classify import (ClassificationReport, ClassifyConfig, classify,
                       decide_pseudo_arithmetical,
                       decide_zero_locally_irreducible)
from .errors import ConsistencyError
from .harness import (DEFAULT_DIMENSIONS, HarnessReport,
                      build_residue_idealization, check_factor_descent,
                      default_local_bases, run_theorem_harness)
from .ideals import is_local, local_factors
from .rings import (STANDARD_GF_MODULI, FiniteRing, ProductRing,
                    TrivialExtensionRing, ZmodRing, free_module, standard_gf)

DEFAULT_FAMILIES = ("zmod", "gf", "product", "trivext")
TRIVEXT_DIMENSIONS = (1, 2)


@dataclass(frozen=True)
class CorpusConfig:
    families: tuple[str, ...] = DEFAULT_FAMILIES
    max_order: int = 64
    zmod_max: int = 32
    gf_max: int = 16
    classify: ClassifyConfig = field(default_factory=ClassifyConfig.from_env)

    def public_dict(self) -> dict:
        return {
            "families": list(self.families),
            "max_order": self.max_order,
            "zmod_max": self.zmod_max,
            "gf_max": self.gf_max,
            "classify": self.classify.public_dict(),
        }


def _base_members(config: CorpusConfig) -> list[FiniteRing]:
    members: list[FiniteRing] = []
    if "zmod" in config.families:
        members.extend(ZmodRing(n)
                       for n in range(2, min(config.zmod_max, config.max_order) + 1))
    if "gf" in config.families:
        cap = min(config.gf_max, config.max_order)
        params = sorted(STANDARD_GF_MODULI, key=lambda pk: (pk[0]**pk[1], pk[0]))
        members.extend(standard_gf(p, k) for p, k in params if p**k <= cap)
    return members


def generate_corpus(config: CorpusConfig | None = None) -> list[FiniteRing]:
    config = config or CorpusConfig()
    bases = _base_members(config)
    corpus: list[FiniteRing] = list(bases)
    if "product" in config.families:
        for i, left in enumerate(bases):
            for right in bases[i:]:
                if left.order * right.order <= config.max_order:
                    corpus.append(ProductRing(left, right))
    if "trivext" in config.families:
        locals_ = [b for b in bases if is_local(b) is not None]
        for base in locals_:
            residue_order = local_factors(base)[0].residue
            for n in TRIVEXT_DIMENSIONS:
                if base.order * residue_order**n <= config.max_order:
                    corpus.append(build_residue_idealization(base, n))
            is_field = residue_order == base.order
            if not is_field and base.order**2 <= config.max_order:
                corpus.append(
                    TrivialExtensionRing(base, free_module(base, 1)))
    return corpus


# ---------------------------------------------------------------------------
# invariant suite


def assert_corpus_invariants(report: ClassificationReport) -> None:
    """Cross-condition facts that hold for every finite commutative ring.

    The per-report implication chain is already asserted by classify(); this
    adds the equivalences that tie independently computed verdicts together.
    """
    name = report.ring_name
    v = report.verdict
    if (v("weak_dim_class") == "Zero") != (v("arithmetical") is True
                                           and v("reduced") is True):
        raise ConsistencyError(
            f"{name}: weak dimension class disagrees with arithmetical+reduced")
    if v("weak_dim_class") not in ("Zero", "Infinite"):
        raise ConsistencyError(f"{name}: weak dimension outside {{Zero, Infinite}}")
    if v("total_quotient_ring") is not True or v("pruefer") is not True:
        raise ConsistencyError(
            f"{name}: finite ring reported as non-total-quotient or non-Prüfer")
    if v("semihereditary") != v("reduced"):
        raise ConsistencyError(
            f"{name}: semihereditary and reduced disagree on a finite ring")
    if v("arithmetical") is True and v("pseudo_arithmetical") != "Yes":
        raise ConsistencyError(
            f"{name}: arithmetical but pseudo-arithmetical verdict is "
            f"{v('pseudo_arithmetical')}")


@dataclass
class CorpusReport:
    config: CorpusConfig
    reports: list[ClassificationReport] = field(default_factory=list)

    def summary_rows(self) -> list[dict]:
        combos: dict[tuple, int] = {}
        for report in self.reports:
            v = report.verdict
            key = (v("reduced"), v("weak_dim_class"), v("arithmetical"),
                   v("gaussian"), v("pseudo_arithmetical"),
                   v("zero_ideal_locally_irreducible"))
            combos[key] = combos.get(key, 0) + 1
        rows = []
        for key in sorted(combos, key=repr):
            reduced, wdim, arith, gaussian, pseudo, zli = key
            rows.append({
                "reduced": reduced, "weak_dim_class": wdim,
                "arithmetical": arith, "gaussian": gaussian,
                "pseudo_arithmetical": pseudo,
                "zero_ideal_locally_irreducible": zli,
                "rings": combos[key],
            })
        return rows

    def to_dict(self) -> dict:
        return {
            "config": self.config.public_dict(),
            "ring_count": len(self.reports),
            "summary": self.summary_rows(),
            "rings": [r.to_dict() for r in self.reports],
        }


def run_corpus(config: CorpusConfig | None = None) -> CorpusReport:
    config = config or CorpusConfig()
    out = CorpusReport(config)
    for ring in generate_corpus(config):
        report = classify(ring, config.classify)
        assert_corpus_invariants(report)
        out.reports.append(report)
    return out


def run_theorems(config: CorpusConfig | None = None) -> HarnessReport:
    """Both laws on every default local base within the zmod_max and
    gf_max orders (the defaults keep them all), then factor descent on the
    corpus's trivial extensions."""
    config = config or CorpusConfig()
    bases = [b for b in default_local_bases()
             if b.order <= (config.zmod_max if isinstance(b, ZmodRing)
                            else config.gf_max)]
    report = run_theorem_harness(config.classify, bases, DEFAULT_DIMENSIONS)
    for ring in generate_corpus(config):
        if isinstance(ring, TrivialExtensionRing):
            report.results.append(check_factor_descent(ring, config.classify))
    return report


# ---------------------------------------------------------------------------
# conjecture comparison


@dataclass
class ConjectureRow:
    ring_name: str
    order: int
    pseudo: dict
    zero_locally_irreducible: dict
    agreement: str  # "Agree" | "Disagree" | "Undecided"

    def to_dict(self) -> dict:
        return {
            "ring": self.ring_name,
            "order": self.order,
            "pseudo_arithmetical": self.pseudo,
            "zero_ideal_locally_irreducible": self.zero_locally_irreducible,
            "agreement": self.agreement,
        }


@dataclass
class ConjectureReport:
    config: CorpusConfig
    rows: list[ConjectureRow] = field(default_factory=list)

    def counts(self) -> dict:
        out = {"Agree": 0, "Disagree": 0, "Undecided": 0}
        for row in self.rows:
            out[row.agreement] += 1
        return out

    @property
    def disagreements(self) -> list[ConjectureRow]:
        return [r for r in self.rows if r.agreement == "Disagree"]

    def to_dict(self) -> dict:
        counts = self.counts()
        return {
            "config": self.config.public_dict(),
            "statement": ("a finite ring is pseudo-arithmetical iff its zero "
                          "ideal is locally irreducible"),
            "counts": {**counts, "total": len(self.rows)},
            "disagreements": [r.to_dict() for r in self.disagreements],
            "rows": [r.to_dict() for r in self.rows],
        }


def conjecture_row(ring: FiniteRing, config: ClassifyConfig) -> ConjectureRow:
    pseudo = decide_pseudo_arithmetical(ring, config)
    zli = decide_zero_locally_irreducible(ring)
    if pseudo.verdict == "BoundedYes":
        agreement = "Undecided"
    elif (pseudo.verdict == "Yes") == (zli.verdict is True):
        agreement = "Agree"
    else:
        agreement = "Disagree"
    row = ConjectureRow(ring.name, ring.order, pseudo.to_dict(),
                        zli.to_dict(), agreement)
    if agreement == "Disagree":
        # a would-be counterexample must survive independent replay of both
        # sides before being reported
        replay_condition(ring, "pseudo_arithmetical", row.pseudo)
        replay_condition(ring, "zero_ideal_locally_irreducible",
                         row.zero_locally_irreducible)
    return row


def run_conjecture(config: CorpusConfig | None = None) -> ConjectureReport:
    config = config or CorpusConfig()
    report = ConjectureReport(config)
    for ring in generate_corpus(config):
        report.rows.append(conjecture_row(ring, config.classify))
    return report
