"""finring: finite commutative rings, Prüfer-style conditions, certificates.

Construct finite rings (modular integers, Galois fields, products, quotients,
trivial extensions A ∝ E), enumerate their ideal lattices, decide ring
conditions with machine-replayable certificates, and run structural-law and
conjecture-comparison suites over generated corpora.
"""

from .classify import (ClassificationReport, ClassifyConfig, ConditionResult,
                       classify, gaussian_ring_verdict)
from .corpus import (ConjectureReport, CorpusConfig, CorpusReport,
                     generate_corpus, run_conjecture, run_corpus)
from .certs import replay_condition, replay_report
from .errors import (BoundExceededError, ConsistencyError, FinringError,
                     RingBuildError, SpecError)
from .harness import (HarnessReport, build_residue_idealization,
                      check_factor_descent, check_residue_idealization,
                      run_theorem_harness)
from .ideals import (Ideal, annihilator, enumerate_ideals, ideal_generated_by,
                     ideal_intersection, ideal_product, ideal_quotient,
                     ideal_sum, is_local, is_locally_principal, is_principal,
                     localize_at, make_quotient, maximal_ideals,
                     principal_ideal, residue_vector_space)
from .polys import RingPoly, certify_gaussian, content, make_poly, poly_mul
from .rings import (FiniteModule, FiniteRing, GFRing, ProductRing,
                    QuotientRing, RingHom, TrivialExtensionRing, ZmodRing,
                    free_module, module_sum, standard_gf, verify_module_axioms,
                    verify_ring_axioms)
from .specfile import build_ring, build_target, parse_ring_spec

__all__ = [
    "BoundExceededError", "ClassificationReport", "ClassifyConfig",
    "ConditionResult", "ConjectureReport", "ConsistencyError", "CorpusConfig",
    "CorpusReport", "FiniteModule", "FiniteRing", "FinringError", "GFRing",
    "HarnessReport", "Ideal", "ProductRing", "QuotientRing", "RingBuildError",
    "RingHom", "RingPoly", "SpecError", "TrivialExtensionRing", "ZmodRing",
    "annihilator", "build_residue_idealization", "build_ring", "build_target",
    "certify_gaussian", "check_factor_descent", "check_residue_idealization",
    "classify", "content", "enumerate_ideals",
    "free_module", "gaussian_ring_verdict", "generate_corpus",
    "ideal_generated_by", "ideal_intersection", "ideal_product",
    "ideal_quotient", "ideal_sum", "is_local", "is_locally_principal",
    "is_principal", "localize_at", "make_poly", "make_quotient",
    "maximal_ideals", "module_sum", "parse_ring_spec", "poly_mul",
    "principal_ideal", "replay_condition", "replay_report",
    "residue_vector_space", "run_conjecture", "run_corpus",
    "run_theorem_harness", "standard_gf", "verify_module_axioms",
    "verify_ring_axioms",
]

__version__ = "0.1.0"
