"""Condition deciders: frozen fixture verdicts, certificates, config handling."""

import importlib
import json
import time
from itertools import islice
from pathlib import Path

import numpy as np
import pytest

from finring import ideals, polys
from finring.certs import replay_condition
from finring.classify import (CONDITION_ORDER, ClassifyConfig, SEARCH_CAP_ENV,
                              classify, decide_arithmetical,
                              decide_pseudo_arithmetical,
                              gaussian_ring_verdict)
from finring.corpus import CorpusConfig, generate_corpus
from finring.errors import BoundExceededError, ConsistencyError
from finring.ideals import (enumerate_ideals, first_nonprincipal_maximal,
                            is_local, residue_vector_space)
from finring.polys import (certify_gaussian, certify_gaussians, content_spans,
                          poly_count)
from finring.reports import to_json
from finring.rings import (ProductRing, ZmodRing, blocks, free_module,
                           make_trivial_extension, standard_gf)
from finring.specfile import build_target, parse_ring_spec
from oracles import arithmetical_by_lattice_scan

SPECS = Path(__file__).resolve().parent / "specs"


def _residue_idealization(order: int, dim: int = 1):
    base = ZmodRing(order)
    module = residue_vector_space(base, is_local(base), dim)
    return make_trivial_extension(base, module)[0]


def _field_idealization(p: int, k: int, dim: int):
    base = standard_gf(p, k)
    return make_trivial_extension(base, free_module(base, dim))[0]


classify_module = importlib.import_module("finring.classify")


def _verdicts(report):
    return {name: report.verdict(name) for name in CONDITION_ORDER}


# ---------------------------------------------------------------- fixtures


def test_zmod4_frozen():
    report = classify(ZmodRing(4))
    assert _verdicts(report) == {
        "reduced": False,
        "semihereditary": False,
        "weak_dim_class": "Infinite",
        "arithmetical": True,
        "gaussian": "Yes",
        "pruefer": True,
        "total_quotient_ring": True,
        "pseudo_arithmetical": "Yes",
        "zero_ideal_locally_irreducible": True,
    }
    conditions = report.to_dict()["conditions"]
    assert conditions["reduced"]["witness"] == {"element": 2}
    assert conditions["gaussian"]["certificate"] == {"rule": "arithmetical"}


def test_residue_idealization_of_z4_frozen():
    report = classify(_residue_idealization(4))
    v = _verdicts(report)
    assert v["total_quotient_ring"] is True
    assert v["pruefer"] is True
    assert v["gaussian"] == "Yes"
    assert v["arithmetical"] is False
    assert v["weak_dim_class"] == "Infinite"
    assert v["pseudo_arithmetical"] == "No"
    assert v["zero_ideal_locally_irreducible"] is False

    conditions = json.loads(to_json(report.to_dict()))["conditions"]
    assert conditions["gaussian"]["certificate"]["rule"] == "local_square_zero_maximal"
    pseudo = conditions["pseudo_arithmetical"]
    assert pseudo["witness"]["f"] == [[2, 0], [0, 1]]
    assert pseudo["witness"]["content_order"] == 4
    assert pseudo["witness"]["gaussian_reason"]["rule"] == "ring_certified_gaussian"
    assert conditions["arithmetical"]["witness"] is not None


def test_field_idealization_frozen():
    report = classify(_field_idealization(2, 1, 2))
    v = _verdicts(report)
    assert v["gaussian"] == "Yes"
    assert v["arithmetical"] is False
    assert v["pseudo_arithmetical"] == "No"
    assert v["zero_ideal_locally_irreducible"] is False
    pseudo = json.loads(to_json(report.to_dict()))["conditions"]["pseudo_arithmetical"]
    assert pseudo["witness"]["f"] == [[0, [1, 0]], [0, [0, 1]]]


def test_dim_one_field_idealization_arithmetical():
    report = classify(_field_idealization(2, 1, 1))
    assert report.verdict("arithmetical") is True


def test_self_idealization_bounded_rows():
    base = ZmodRing(4)
    ring = make_trivial_extension(base, free_module(base, 1))[0]
    report = classify(ring)
    v = _verdicts(report)
    assert v["gaussian"] == "No"
    assert v["arithmetical"] is False
    assert v["pseudo_arithmetical"] == "BoundedYes"
    conditions = report.to_dict()["conditions"]
    assert conditions["gaussian"]["witness"]["f"] is not None
    assert conditions["pseudo_arithmetical"]["bound"] is not None


def test_product_decomposition_rule():
    # Gaussian but not arithmetical, so the lattice rule cannot fire and the
    # verdict must come from the verified local-factor decomposition.
    ring = ProductRing(_residue_idealization(4), standard_gf(2, 2))
    verdict = gaussian_ring_verdict(ring, ClassifyConfig())
    assert verdict.status == "Yes"
    assert verdict.certificate["rule"] == "local_factor_decomposition"
    assert verdict.certificate["isomorphism_checked"] is True
    factors = verdict.certificate["factors"]
    assert sorted(f["localization_order"] for f in factors) == [4, 8]
    assert all(f["status"] == "Yes" for f in factors)


# ---------------------------------------------------------------- chain + structure


def test_implication_chain_enforced_on_sample():
    for ring in (ZmodRing(30), standard_gf(3, 2), _residue_idealization(8)):
        report = classify(ring)
        v = _verdicts(report)
        if v["semihereditary"]:
            assert v["weak_dim_class"] == "Zero"
        if v["weak_dim_class"] == "Zero":
            assert v["arithmetical"]
        if v["arithmetical"]:
            assert v["gaussian"] == "Yes"
        if v["gaussian"] == "Yes":
            assert v["pruefer"]
        assert (v["weak_dim_class"] == "Zero") == (v["arithmetical"] and v["reduced"])
        assert v["weak_dim_class"] in ("Zero", "Infinite")


def test_condition_key_order_pinned():
    payload = classify(ZmodRing(6)).to_dict()
    assert list(payload["conditions"]) == list(CONDITION_ORDER)
    assert CONDITION_ORDER == (
        "reduced", "semihereditary", "weak_dim_class", "arithmetical",
        "gaussian", "pruefer", "total_quotient_ring", "pseudo_arithmetical",
        "zero_ideal_locally_irreducible")


def test_report_json_deterministic():
    config = ClassifyConfig()
    a = to_json(classify(ZmodRing(12), config).to_dict())
    b = to_json(classify(ZmodRing(12), config).to_dict())
    assert a == b
    json.loads(a)  # parses cleanly


def test_millis_only_with_timing():
    base = classify(ZmodRing(4), ClassifyConfig()).to_dict()
    timed = classify(ZmodRing(4), ClassifyConfig(timing=True)).to_dict()
    assert all("millis" not in c for c in base["conditions"].values())
    assert all("millis" in c for c in timed["conditions"].values())


def test_gaussian_millis_include_ring_verdict(monkeypatch):
    # the package re-exports classify(), which shadows the module attribute
    classify_module = importlib.import_module("finring.classify")
    original = classify_module.gaussian_ring_verdict

    def slow(ring, config):
        time.sleep(0.02)
        return original(ring, config)

    monkeypatch.setattr(classify_module, "gaussian_ring_verdict", slow)
    report = classify(ZmodRing(4), ClassifyConfig(timing=True))
    assert report.conditions["gaussian"].millis >= 20


# ---------------------------------------------------------------- arithmetical


def _spec_ring(name: str):
    return build_target(parse_ring_spec(
        (SPECS / f"{name}.ring").read_text(encoding="utf-8")))


def _self_extension(p: int, rank: int):
    base = ZmodRing(p)
    return make_trivial_extension(base, free_module(base, rank))[0]


def test_arithmetical_rule_matches_the_lattice_scan():
    # R is arithmetical iff each local factor's maximal ideal is principal
    rings = [*generate_corpus(CorpusConfig(max_order=256)),
             *(_spec_ring(path.stem) for path in sorted(SPECS.glob("*.ring")))]
    verdicts = []
    for ring in rings:
        rule = first_nonprincipal_maximal(ring) is None
        assert rule == arithmetical_by_lattice_scan(ring), ring.name
        verdicts.append(rule)
    assert (len(verdicts), sum(verdicts)) == (457, 430)


@pytest.mark.parametrize("make, verdict, kind", [
    (lambda: _self_extension(67, 1), True, "principal_maximal_ideal"),
    (lambda: ZmodRing(4099), True, "principal_maximal_ideal"),
    (lambda: _self_extension(17, 2), False, "non_principal_ideal_local"),
    (lambda: _self_extension(31, 2), False, "non_principal_ideal_local"),
], ids=["z67_trivext", "z4099", "z17_trivext2", "z31_trivext2"])
def test_arithmetical_above_the_lattice_bound(make, verdict, kind):
    ring = make()
    assert ring.order > ideals.LATTICE_LIMIT
    cond = decide_arithmetical(ring).to_dict()
    assert (cond["verdict"], cond["certificate"]["kind"]) == (verdict, kind)
    assert replay_condition(ring, "arithmetical", cond)
    assert "lattice" not in ring._cache
    if verdict is False:
        # the witness is the maximal ideal itself
        m = is_local(ring)
        assert cond["witness"]["ideal_gens"] == m.gen_literals()
        assert cond["witness"]["ideal_order"] == m.size
        assert cond["witness"]["maximal_gens"] == m.gen_literals()
    if ring.order == 31**3:                   # the witness bytes are pinned
        lits = [(0, (0, 1)), (0, (1, 0))]
        assert cond["witness"] == {
            "ideal_gens": lits, "ideal_order": 961, "maximal_gens": lits,
            "note": "ring is local, so locally principal equals principal"}


def test_replay_rejects_a_flipped_principal_maximal_ideal():
    ring = _self_extension(17, 2)
    cond = decide_arithmetical(ring).to_dict()
    flipped = {"verdict": True, "certificate": {"kind": "principal_maximal_ideal"}}
    assert cond["verdict"] is False
    with pytest.raises(ConsistencyError):
        replay_condition(ring, "arithmetical", flipped)


def test_arithmetical_refuses_a_non_local_ring_above_the_bound():
    # the maximal ideals of a non-local ring still come from its lattice
    ring = ProductRing(_self_extension(17, 1), ZmodRing(17))
    assert ring.order > ideals.LATTICE_LIMIT
    with pytest.raises(BoundExceededError):
        decide_arithmetical(ring)


# ---------------------------------------------------------------- config


def test_config_from_env(monkeypatch):
    monkeypatch.setenv(SEARCH_CAP_ENV, "12345")
    config = ClassifyConfig.from_env()
    assert config.witness_cap == 12345
    assert config.pair_cap == 12345
    # explicit overrides beat the environment
    config = ClassifyConfig.from_env(witness_cap=77)
    assert config.witness_cap == 77
    assert config.pair_cap == 12345


def test_config_from_env_malformed(monkeypatch):
    monkeypatch.setenv(SEARCH_CAP_ENV, "not-a-number")
    with pytest.raises(BoundExceededError):
        ClassifyConfig.from_env()


def test_config_key_distinguishes_search_parameters():
    assert ClassifyConfig().key() != ClassifyConfig(degree_bound=2).key()
    assert ClassifyConfig().key() == ClassifyConfig().key()


def test_bound_exceeded_when_lattice_capped():
    # Z67 ∝ Z67 (order 4489) lies above the lattice bound: arithmetical
    # reads its principal maximal ideal, but pseudo-arithmetical needs the
    # lattice
    z67 = ZmodRing(67)
    ring = make_trivial_extension(z67, free_module(z67, 1))[0]
    with pytest.raises(BoundExceededError):
        classify(ring)


def test_pseudo_arithmetical_direct_call():
    ring = _residue_idealization(4)
    for config in (ClassifyConfig(), ClassifyConfig(degree_bound=2)):
        gaussian = gaussian_ring_verdict(ring, config)
        result = decide_pseudo_arithmetical(ring, config, gaussian)
        assert result.verdict == "No"


def test_pseudo_arithmetical_yes_read_from_arithmetical(monkeypatch,
                                                      corpus_rings):
    # an arithmetical ring has every ideal locally principal, so no ideal is
    # scanned, and the certificate is the arithmetical one
    classify_module = importlib.import_module("finring.classify")
    config = ClassifyConfig()
    rings = [r for r in corpus_rings if r.order <= 16
             and decide_arithmetical(r).verdict is True]
    assert len(rings) > 10
    calls = []
    real = classify_module.is_locally_principal
    monkeypatch.setattr(classify_module, "is_locally_principal",
                        lambda ideal: calls.append(ideal) or real(ideal))
    for ring in rings:
        result = decide_pseudo_arithmetical(
            ring, config, gaussian_ring_verdict(ring, config))
        assert result.verdict == "Yes"
        assert result.certificate == {"kind": "all_ideals_locally_principal",
                                      "ideal_count": len(enumerate_ideals(ring))}
    assert calls == []


# ---------------------------------------------------------------- orbit reuse


def _self_idealization(order: int):
    base = ZmodRing(order)
    return make_trivial_extension(base, free_module(base, 1))[0]


def _pseudo_search(monkeypatch, ring):
    """decide_pseudo_arithmetical on `ring`, with the candidates it hands to
    certify_gaussians and the number of certify_gaussian calls it makes."""
    classify_module = importlib.import_module("finring.classify")
    polys_module = importlib.import_module("finring.polys")
    batched, calls = [], []
    real_batch = classify_module.certify_gaussians
    real_single = polys_module.certify_gaussian

    def batch(fs, *args):
        batched.extend(fs)
        return real_batch(fs, *args)

    def single(*args):
        calls.append(args[0])
        return real_single(*args)

    monkeypatch.setattr(classify_module, "certify_gaussians", batch)
    monkeypatch.setattr(polys_module, "certify_gaussian", single)
    config = ClassifyConfig()
    result = decide_pseudo_arithmetical(ring, config,
                                        gaussian_ring_verdict(ring, config))
    return result, batched, calls


def _assert_same_statuses(fs, verdicts):
    """Each verdict has the status plain certification gives its f, and
    each refutation's witness violates on its own f."""
    assert [v.status for v in verdicts] == [certify_gaussian(f).status
                                            for f in fs]
    for f, verdict in zip(fs, verdicts):
        if verdict.status == "refuted":
            lhs, rhs = content_spans(f, verdict.witness)
            assert not np.array_equal(lhs, rhs)


def test_orbit_reuse_matches_one_search_per_candidate(monkeypatch):
    ring = _self_idealization(4)
    _result, fs, calls = _pseudo_search(monkeypatch, ring)
    monkeypatch.undo()
    assert len(fs) == 256 and len(calls) == 32
    _assert_same_statuses(fs, list(certify_gaussians(fs)))


def test_pseudo_arithmetical_one_search_per_orbit(monkeypatch):
    result, fs, calls = _pseudo_search(monkeypatch, _self_idealization(8))
    assert len(fs) == 768 and len(calls) == 56
    assert result.verdict == "BoundedYes"
    assert {k: result.certificate[k] for k in
            ("candidates_tried", "refuted", "inconclusive")} == {
        "candidates_tried": 768, "refuted": 768, "inconclusive": 0}


def test_orbit_filing_keeps_every_status(monkeypatch, corpus_rings):
    # every corpus ring that reaches the witness search, and Z16 ∝ Z16, whose
    # 1,792 candidates end refuted or bounded
    searched = set()
    for ring in [*corpus_rings, _self_idealization(16)]:
        _result, fs, _calls = _pseudo_search(monkeypatch, ring)
        monkeypatch.undo()
        if fs:
            searched.add(ring.name)
            _assert_same_statuses(fs, list(certify_gaussians(fs)))
    assert {_self_idealization(k).name for k in (4, 8, 16)} <= searched


def test_orbit_filing_rejects_an_untransformed_witness(monkeypatch):
    # reusing the first witness of an orbit as it stands fails re-verification
    _result, fs, _calls = _pseudo_search(monkeypatch, _self_idealization(8))
    monkeypatch.undo()
    monkeypatch.setattr(polys, "_substitute", lambda g, v, c: g)
    with pytest.raises(ConsistencyError):
        list(certify_gaussians(fs))


# ---------------------------------------------------------------- generator layouts


def _layouts_by_full_scan(ring, ideal, degree):
    """Every polynomial of exact `degree` with coefficients in the ideal and
    content the ideal, with no generator-count shortcut."""
    calc = ideals.content_calculus(ring)
    target = calc.lattice.ideal_id(ideal)
    for start, stop in blocks(poly_count(ideal.size, degree), budget=1 << 16):
        cols = polys.decode_poly_block(ideal.indices, degree, start, stop)
        for h in np.nonzero(calc.content_ids(cols) == target)[0]:
            yield [int(c[h]) for c in cols]


def test_generator_layouts_keep_every_candidate_list(corpus_rings):
    # the candidate lists decide_pseudo_arithmetical builds, with and
    # without skipping the degrees too short to generate the ideal
    config = ClassifyConfig()
    listed = skipped = 0
    for ring in corpus_rings:
        if decide_arithmetical(ring).verdict is True:
            continue
        for ideal in enumerate_ideals(ring).ideals:
            if ideals.is_locally_principal(ideal)[0]:
                continue
            degrees = range(1, config.degree_bound + 1)
            fast = (list(f.coeffs) for d in degrees
                    for f in classify_module._generator_layouts(ring, ideal, d))
            full = (f for d in degrees for f in _layouts_by_full_scan(ring, ideal, d))
            cap = config.pseudo_candidate_cap
            assert list(islice(fast, cap)) == list(islice(full, cap)), ring.name
            listed += 1
            skipped += sum(d + 1 < ideals.least_generator_count(ideal)
                           for d in degrees)
    assert listed > 50 and skipped > 0


def test_generator_layouts_skip_degrees_below_the_generator_count(monkeypatch):
    # the maximal ideal of F2 ∝ F2^5 needs 5 generators: no layout of
    # degree ≤ 3 has enough coefficients, and none is decoded
    ring = _field_idealization(2, 1, 5)
    maximal = enumerate_ideals(ring).maximals[0]
    decoded = []
    real = classify_module.decode_poly_block

    def counted(*args):
        decoded.append(args)
        return real(*args)

    monkeypatch.setattr(classify_module, "decode_poly_block", counted)
    for degree in (1, 2, 3):
        assert list(classify_module._generator_layouts(ring, maximal, degree)) == []
    assert decoded == []
