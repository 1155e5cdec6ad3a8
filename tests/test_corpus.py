"""Generated ring corpus: census, invariants, and the condition comparison."""

import json

from finring.classify import ClassifyConfig
from finring.corpus import (CorpusConfig, assert_corpus_invariants,
                            conjecture_row, generate_corpus)
from finring.reports import to_json
from finring.rings import TrivialExtensionRing, ZmodRing, free_module


# ---------------------------------------------------------------- census


def test_default_census_pinned(corpus_rings):
    by_kind = {}
    for ring in corpus_rings:
        kind = ring.spec.kind
        by_kind[kind] = by_kind.get(kind, 0) + 1
    assert by_kind == {"zmod": 31, "gf": 4, "product": 116, "trivext": 19}
    assert len(corpus_rings) == 170
    assert all(ring.order <= 64 for ring in corpus_rings
               if ring.spec.kind in ("product", "trivext"))


def test_census_is_deterministic(corpus_rings):
    again = generate_corpus(CorpusConfig())
    assert [r.name for r in again] == [r.name for r in corpus_rings]


def test_family_filter():
    only_zmod = generate_corpus(CorpusConfig(families=("zmod",)))
    assert len(only_zmod) == 31
    assert all(r.spec.kind == "zmod" for r in only_zmod)
    nothing = generate_corpus(CorpusConfig(families=()))
    assert nothing == []


def test_small_corpus_census():
    small = generate_corpus(CorpusConfig(max_order=16, zmod_max=8, gf_max=8))
    kinds = [r.spec.kind for r in small]
    assert kinds.count("zmod") == 7      # orders 2..8
    assert kinds.count("gf") == 2        # F4, F8
    assert all(r.order <= 16 for r in small if r.spec.kind != "zmod")


# ---------------------------------------------------------------- sweep report


def test_corpus_report_shape(corpus_report):
    payload = corpus_report.to_dict()
    assert payload["ring_count"] == 170
    assert len(payload["rings"]) == 170
    assert sum(row["rings"] for row in payload["summary"]) == 170
    json.loads(to_json(payload))


def test_corpus_invariants_enforced(corpus_report):
    for report in corpus_report.reports:
        assert_corpus_invariants(report)


def test_bounded_rows_frozen(corpus_report):
    bounded = sorted(
        report.ring_name for report in corpus_report.reports
        if report.verdict("pseudo_arithmetical") == "BoundedYes")
    assert bounded == ["trivext(zmod(4),free(zmod(4),1))",
                       "trivext(zmod(8),free(zmod(8),1))"]


# ---------------------------------------------------------------- comparison


def test_conjecture_counts_frozen(conjecture_report):
    assert conjecture_report.counts() == {"Agree": 168, "Disagree": 0,
                                        "Undecided": 2}
    assert conjecture_report.disagreements == []
    undecided = sorted(row.ring_name for row in conjecture_report.rows
                       if row.agreement == "Undecided")
    assert undecided == ["trivext(zmod(4),free(zmod(4),1))",
                         "trivext(zmod(8),free(zmod(8),1))"]


def test_conjecture_row_agree_on_gaussian_ring():
    row = conjecture_row(ZmodRing(4), ClassifyConfig())
    assert row.agreement == "Agree"
    assert row.pseudo["verdict"] == "Yes"
    assert row.zero_locally_irreducible["verdict"] is True


def test_conjecture_row_agree_negative_side():
    base = ZmodRing(4)
    from finring.ideals import is_local, residue_vector_space
    ring = TrivialExtensionRing(
        base, residue_vector_space(base, is_local(base), 1))
    row = conjecture_row(ring, ClassifyConfig())
    assert row.agreement == "Agree"
    assert row.pseudo["verdict"] == "No"
    assert row.zero_locally_irreducible["verdict"] is False


def test_conjecture_row_undecided_is_bounded():
    base = ZmodRing(4)
    ring = TrivialExtensionRing(base, free_module(base, 1))
    row = conjecture_row(ring, ClassifyConfig())
    assert row.agreement == "Undecided"
    assert row.pseudo["verdict"] == "BoundedYes"


def test_conjecture_report_serializes(conjecture_report):
    payload = conjecture_report.to_dict()
    assert payload["counts"] == {"Agree": 168, "Disagree": 0, "Undecided": 2, "total": 170}
    assert len(payload["rows"]) == 170
    assert "statement" in payload
    json.loads(to_json(payload))
