"""Acceptance gate: the nine release criteria, one printed verdict line each.

Each test prints `ACCEPTANCE <n>: PASS|FAIL — <summary>` directly to the
terminal (bypassing capture) and then asserts, so a red criterion is visible
both in the line and in the pytest outcome.
"""

import time

from finring.classify import CONDITION_ORDER, classify, gaussian_ring_verdict
from finring.ideals import is_local, residue_vector_space
from finring.polys import certify_gaussian
from finring.rings import (TrivialExtensionRing, ZmodRing, free_module,
                           standard_gf, verify_module_axioms,
                           verify_ring_axioms)
from finring.harness import check_factor_descent
from oracles import (dedekind_mertens_random_audit, gaussian_violation_table,
                     poly_at_index)


def _report(lines: list[str], criterion: int, ok: bool, detail: str) -> None:
    line = f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} — {detail}"
    print(line)
    lines.append(line)
    assert ok, line


def _verdicts(report):
    return {name: report.verdict(name) for name in CONDITION_ORDER}


def _residue_idealization(order: int, dim: int = 1):
    base = ZmodRing(order)
    module = residue_vector_space(base, is_local(base), dim)
    return TrivialExtensionRing(base, module)


# ------------------------------------------------------------ criterion 1


def test_criterion_1_zmod4_fixture(acceptance_lines):
    start = time.perf_counter()
    v = _verdicts(classify(ZmodRing(4)))
    elapsed = time.perf_counter() - start
    expected = {
        "arithmetical": True, "reduced": False, "weak_dim_class": "Infinite",
        "gaussian": "Yes", "pseudo_arithmetical": "Yes",
        "zero_ideal_locally_irreducible": True, "semihereditary": False,
    }
    ok = all(v[k] == want for k, want in expected.items()) and elapsed < 1.0
    _report(acceptance_lines, 1, ok, f"Z/4 fixture exact match in {elapsed * 1000:.0f} ms")


# ------------------------------------------------------------ criterion 2


def test_criterion_2_residue_idealization_fixture(acceptance_lines):
    start = time.perf_counter()
    report = classify(_residue_idealization(4))
    elapsed = time.perf_counter() - start
    v = _verdicts(report)
    conditions = report.to_dict()["conditions"]
    pseudo = conditions["pseudo_arithmetical"]
    witness_f = [list(c) for c in pseudo.get("witness", {}).get("f", [])]
    checks = [
        v["total_quotient_ring"] is True,
        v["pruefer"] is True,
        v["gaussian"] == "Yes",
        "rule" in conditions["gaussian"]["certificate"],
        v["arithmetical"] is False,
        conditions["arithmetical"]["witness"] is not None,
        v["weak_dim_class"] == "Infinite",
        v["pseudo_arithmetical"] == "No",
        witness_f == [[2, 0], [0, 1]],
        pseudo["witness"]["content_order"] == 4,
        v["zero_ideal_locally_irreducible"] is False,
        elapsed < 1.0,
    ]
    _report(acceptance_lines, 2, all(checks),
            f"Z/4 idealized by its residue field, exact match in "
            f"{elapsed * 1000:.0f} ms")


# ------------------------------------------------------------ criterion 3


def test_criterion_3_field_idealization_fixture(acceptance_lines):
    from finring.ideals import enumerate_ideals
    base = standard_gf(2, 1)
    ring = TrivialExtensionRing(base, free_module(base, 2))
    start = time.perf_counter()
    v = _verdicts(classify(ring))
    lattice = enumerate_ideals(ring)
    atoms = lattice.atoms
    elapsed = time.perf_counter() - start
    checks = [
        v["gaussian"] == "Yes",
        v["arithmetical"] is False,
        v["pseudo_arithmetical"] == "No",
        v["zero_ideal_locally_irreducible"] is False,
        len(lattice.ideals) == 6,
        len(atoms) == 3,
        elapsed < 1.0,
    ]
    _report(acceptance_lines, 3, all(checks),
            f"F2 idealized by F2^2: 6 ideals, 3 atoms, exact match in "
            f"{elapsed * 1000:.0f} ms")


# ------------------------------------------------------------ criterion 4


def test_criterion_4_dim_one_field_idealization(acceptance_lines):
    base = standard_gf(2, 1)
    ring = TrivialExtensionRing(base, free_module(base, 1))
    ok = classify(ring).verdict("arithmetical") is True
    _report(acceptance_lines, 4, ok, "F2 idealized by itself is arithmetical")


# ------------------------------------------------------------ criterion 5


def test_criterion_5_theorem_harness(acceptance_lines, harness_report, corpus_rings):
    failures = harness_report.failures
    elapsed = harness_report.elapsed_seconds
    trivexts = [r for r in corpus_rings if r.spec.kind == "trivext"]
    descent_failures = [r.name for r in trivexts
                        if check_factor_descent(r).failed]
    ok = (len(harness_report.results) == 88 and not failures
          and not descent_failures and elapsed < 300.0)
    _report(acceptance_lines, 5, ok,
            f"{len(harness_report.results)} harness instances and "
            f"{len(trivexts)} corpus idealization descents, "
            f"0 failures, {elapsed:.1f} s")


# ------------------------------------------------------------ criterion 6


def test_criterion_6_implication_chain(acceptance_lines, corpus_report):
    violations = []
    for report in corpus_report.reports:
        v = _verdicts(report)
        name = report.ring_name
        if v["semihereditary"] and v["weak_dim_class"] != "Zero":
            violations.append((name, "semihereditary->wdim0"))
        if v["weak_dim_class"] == "Zero" and not v["arithmetical"]:
            violations.append((name, "wdim0->arithmetical"))
        if v["arithmetical"] and v["gaussian"] != "Yes":
            violations.append((name, "arithmetical->gaussian"))
        if v["gaussian"] == "Yes" and not v["pruefer"]:
            violations.append((name, "gaussian->pruefer"))
        if (v["weak_dim_class"] == "Zero") != (v["arithmetical"] and v["reduced"]):
            violations.append((name, "jensen"))
        if v["weak_dim_class"] not in ("Zero", "Infinite"):
            violations.append((name, "weak-dim-gap"))
    count = len(corpus_report.reports)
    ok = count >= 30 and not violations
    _report(acceptance_lines, 6, ok,
            f"chain, equivalence, and dimension-gap checks over "
            f"{count} rings, {len(violations)} violations")


# ------------------------------------------------------------ criterion 7


def test_criterion_7_condition_comparison(acceptance_lines, conjecture_report):
    counts = conjecture_report.counts()
    total = len(conjecture_report.rows)
    undecided_share = counts["Undecided"] / total
    fixture_names = {
        "zmod(4)",
        "trivext(zmod(4),quot_module(zmod(4),[2]))",
        "trivext(zmod(2),free(zmod(2),2))",
        "trivext(zmod(2),free(zmod(2),1))",
    }
    rows = {row.ring_name: row for row in conjecture_report.rows}
    fixtures_agree = all(
        name in rows and rows[name].agreement == "Agree"
        for name in fixture_names)
    ok = (counts["Disagree"] == 0
          and all(row.agreement in ("Agree", "Undecided")
                  for row in conjecture_report.rows)
          and fixtures_agree
          and undecided_share <= 0.20)
    _report(acceptance_lines, 7, ok,
            f"{counts['Agree']} Agree / {counts['Disagree']} Disagree / "
            f"{counts['Undecided']} Undecided over {total} rings "
            f"({undecided_share:.1%} undecided)")


# ------------------------------------------------------------ criterion 8


def test_criterion_8_oracle_equivalence(acceptance_lines, corpus_rings, classify_config):
    small = [r for r in corpus_rings if r.order <= 16]
    mismatches = 0
    exact = bounded = 0
    dm_failures = 0
    for ring in small:
        ring_certified = gaussian_ring_verdict(ring, classify_config).verdict == "Yes"
        for df, fi, hit in gaussian_violation_table(ring, 2, 2):
            f = poly_at_index(ring, df, fi)
            verdict = certify_gaussian(f, degree_bound=2,
                                       ring_gaussian_certified=ring_certified)
            if verdict.status == "certified":
                exact += 1
                mismatches += hit is not None
            elif verdict.status == "refuted":
                exact += 1
                mismatches += hit is None
            else:
                bounded += 1
                # an exhausted degree-2 search must not have missed the oracle
                mismatches += verdict.bound >= 2 and hit is not None
        dm_failures += dedekind_mertens_random_audit(ring, 10_000, seed=0)
    ok = mismatches == 0 and dm_failures == 0 and len(small) >= 40
    _report(acceptance_lines, 8, ok,
            f"{exact} exact per-polynomial verdicts agree with the "
            f"exhaustive oracle over {len(small)} rings "
            f"({bounded} bounded), {dm_failures} content-identity failures "
            f"in {len(small)} x 10^4 random pairs")


# ------------------------------------------------------------ criterion 9


def test_criterion_9_axiom_suite(acceptance_lines, corpus_rings):
    checked = 0
    failures = []
    for ring in corpus_rings:
        if ring.order > 64:
            continue
        try:
            verify_ring_axioms(ring)
            module = getattr(ring, "ext_module", None)
            if module is not None and module.order <= 64:
                verify_module_axioms(module)
        except Exception as exc:  # pragma: no cover - failure path
            failures.append((ring.name, str(exc)))
        checked += 1
    ok = not failures and checked == len(corpus_rings)
    _report(acceptance_lines, 9, ok,
            f"exhaustive ring and module axiom verification over "
            f"{checked} constructed objects, {len(failures)} failures")
