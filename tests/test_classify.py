"""Condition deciders: frozen fixture verdicts, certificates, config handling."""

import importlib
import json
import time
from itertools import islice
from pathlib import Path

import numpy as np
import pytest

from finring import ideals, polys, specfile
from finring.certs import replay_condition, replay_report
from finring.classify import (CONDITION_ORDER, ClassifyConfig, SEARCH_CAP_ENV,
                              classify, decide_arithmetical, decide_pruefer,
                              decide_pseudo_arithmetical,
                              gaussian_ring_verdict)
from finring.corpus import CorpusConfig, generate_corpus
from finring.errors import BoundExceededError, ConsistencyError
from finring.ideals import (enumerate_ideals, first_nonprincipal_maximal,
                            ideal_product, is_local, maximal_ideals,
                            residue_vector_space)
from finring.polys import (GaussianVerdict, certify_gaussian,
                           certify_gaussians, content, make_poly, poly_mul)
from finring.reports import to_json
from finring.rings import (ProductRing, RingHom, TrivialExtensionRing,
                           ZmodRing, free_module, standard_gf)
from finring.specfile import build_target, parse_ring_spec
from oracles import (arithmetical_by_lattice_scan,
                     generator_layouts_by_full_scan, maximals_by_pairwise_scan,
                     pseudo_candidates_by_full_scan, substituted)

SPECS = Path(__file__).resolve().parent / "specs"


def _residue_idealization(order: int, dim: int = 1):
    base = ZmodRing(order)
    module = residue_vector_space(base, is_local(base), dim)
    return TrivialExtensionRing(base, module)


def _field_idealization(p: int, k: int, dim: int):
    base = standard_gf(p, k)
    return TrivialExtensionRing(base, free_module(base, dim))


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
    ring = TrivialExtensionRing(base, free_module(base, 1))
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
    assert verdict.verdict == "Yes"
    assert verdict.certificate["rule"] == "local_factor_decomposition"
    factors = verdict.certificate["factors"]
    assert sorted(f["localization_order"] for f in factors) == [4, 8]
    assert all(f["status"] == "Yes" for f in factors)


def test_product_decomposition_lifts_a_factor_refutation():
    # Z4 ∝ Z4 is not Gaussian, so neither is (Z4 ∝ Z4) × Z2: its violating
    # pair is lifted from the factor of order 16 (tests/test_certs.py
    # replays it)
    cond = gaussian_ring_verdict(_spec_ring("z4sq_x_z2"), ClassifyConfig()).to_dict()
    assert cond["verdict"] == "No"
    assert cond["certificate"]["lifted_from_localization_order"] == 16


def test_product_decomposition_keeps_a_factor_bound():
    # under this pair cap Z8 ∝ F2 exhausts its search at total degree 1, so
    # (Z8 ∝ F2) × Z2 is BoundedYes with that bound and both factors' rows
    ring = ProductRing(_residue_idealization(8), ZmodRing(2))
    cond = gaussian_ring_verdict(ring, ClassifyConfig(pair_cap=100_000)).to_dict()
    assert (cond["verdict"], cond["bound"]) == ("BoundedYes", 1)
    assert cond["certificate"]["rule"] == "local_factor_decomposition"
    assert [(f["localization_order"], f["status"], f["certificate"]["rule"])
            for f in cond["certificate"]["factors"]] == [
        (16, "BoundedYes", "exhausted_search"), (2, "Yes", "arithmetical")]
    assert replay_condition(ring, "gaussian", json.loads(to_json(cond)))


def _f2sq_x_z512():
    # (F2 ∝ F2²) × Z512, order 4096 = LATTICE_LIMIT
    f2 = ZmodRing(2)
    return ProductRing(TrivialExtensionRing(f2, free_module(f2, 2)), ZmodRing(512))


_DECOMPOSED = {
    "reduced": False, "semihereditary": False, "weak_dim_class": "Infinite",
    "arithmetical": False, "gaussian": "Yes", "pruefer": True,
    "total_quotient_ring": True, "pseudo_arithmetical": "No",
    "zero_ideal_locally_irreducible": False,
}


def _fresh_specs(patch):
    # spec builds are memoized, and so are verdicts on the ring built
    for cache in ("_RING_CACHE", "_MODULE_CACHE"):
        patch.setattr(specfile, cache, {})


@pytest.mark.parametrize("make, verdicts", [
    (lambda: _spec_ring("z4f2_x_f4"), _DECOMPOSED),
    (lambda: _spec_ring("f2sq_x_z12"), _DECOMPOSED),
    (lambda: _spec_ring("z4sq_x_z2"), {
        **_DECOMPOSED, "gaussian": "No", "pseudo_arithmetical": "BoundedYes",
        "zero_ideal_locally_irreducible": True}),
    (_f2sq_x_z512, _DECOMPOSED),
], ids=["z4f2_x_f4", "f2sq_x_z12", "z4sq_x_z2", "f2sq_x_z512"])
def test_product_decomposition_builds_no_product_ring(monkeypatch, make, verdicts):
    # `local_factors` checks that R is the product of its factors R/(1 − e)R,
    # so the decider builds no product ring and verifies no hom; replay, on
    # a freshly built copy, reads R ≅ Π R_m from the kernels of its
    # localizations and builds neither either
    def refuse(*args, **kwargs):
        raise AssertionError("product ring or hom check in classify or replay")

    def refusing(patch):
        patch.setattr(ProductRing, "__init__", refuse)
        patch.setattr(RingHom, "verify", refuse)

    with monkeypatch.context() as patch:
        _fresh_specs(patch)
        ring = make()
        refusing(patch)
        report = classify(ring)
    assert _verdicts(report) == verdicts
    payload = json.loads(to_json(report.to_dict()))
    with monkeypatch.context() as patch:
        _fresh_specs(patch)
        fresh = make()
        refusing(patch)
        assert replay_report(fresh, payload) == len(CONDITION_ORDER)
    assert fresh is not ring


def test_factor_lift_is_the_corner_element_of_each_coset(corpus_rings):
    # each coset of (1 − e)R holds exactly one element of eR, e·rep: it lies
    # in eR (e fixes it) and the factor sends it back to its own coset
    specs = (_spec_ring(path.stem) for path in sorted(SPECS.glob("*.ring")))
    non_local = [r for r in (*corpus_rings, *specs) if is_local(r) is None]
    assert len(non_local) > 3
    for ring in non_local:
        for local in ideals.local_factors(ring):
            e = local.idempotent
            factor, _ = ideals.make_quotient(ring, ideals.principal_ideal(
                ring, ideals.complement_idempotent(ring, e)))
            lifted = ring.mul_arr(factor.reps, e)
            assert np.array_equal(ring.mul_arr(lifted, e), lifted), ring.name
            assert np.array_equal(factor.coset_id[lifted],
                                  np.arange(factor.order)), ring.name


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


def test_timed_run_leaves_later_reports_untimed():
    # deciders cache their results on the ring; a timed run must not write
    # its timings into them
    ring = ZmodRing(12)
    classify(ring, ClassifyConfig(timing=True))
    again = to_json(classify(ring, ClassifyConfig()).to_dict())
    assert again == to_json(classify(ZmodRing(12), ClassifyConfig()).to_dict())


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
    return TrivialExtensionRing(base, free_module(base, rank))


def test_arithmetical_rule_matches_the_lattice_scan():
    # R is arithmetical iff each local factor's maximal ideal is principal
    rings = [*generate_corpus(CorpusConfig(max_order=256)),
             *(_spec_ring(path.stem) for path in sorted(SPECS.glob("*.ring")))]
    verdicts = []
    for ring in rings:
        rule = first_nonprincipal_maximal(ring) is None
        assert rule == arithmetical_by_lattice_scan(ring), ring.name
        verdicts.append(rule)
    assert (len(verdicts), sum(verdicts)) == (463, 433)


@pytest.mark.parametrize("make, verdict, count", [
    (lambda: _self_extension(67, 1), True, 3),
    (lambda: ZmodRing(4099), True, 2),
    (lambda: _self_extension(17, 2), False, None),
    (lambda: _self_extension(31, 2), False, None),
], ids=["z67_trivext", "z4099", "z17_trivext2", "z31_trivext2"])
def test_arithmetical_above_the_lattice_bound(make, verdict, count):
    # one certificate format at every order, read from the factor records
    # and replayed by the chain count or the witness, with no lattice
    ring = make()
    assert ring.order > ideals.LATTICE_LIMIT
    cond = decide_arithmetical(ring).to_dict()
    assert cond["verdict"] is verdict
    assert replay_condition(ring, "arithmetical", cond)
    assert "lattice" not in ring._cache
    if verdict:
        assert cond["certificate"] == {"kind": "all_ideals_locally_principal",
                                       "ideal_count": count}
        return
    # the witness is the maximal ideal itself, in the ring, its own
    # localization
    m = is_local(ring)
    assert cond["certificate"] == {"kind": "non_locally_principal_ideal"}
    assert cond["witness"] == {
        "ideal_gens": m.gen_literals(), "ideal_order": m.size,
        "maximal_gens": m.gen_literals(), "pushed_order": m.size,
        "localization_order": ring.order}
    if ring.order == 31**3:                   # the witness bytes are pinned
        lits = [(0, (0, 1)), (0, (1, 0))]
        assert cond["witness"] == {
            "ideal_gens": lits, "ideal_order": 961, "maximal_gens": lits,
            "pushed_order": 961, "localization_order": 29791}


def test_replay_rejects_a_flipped_principal_maximal_ideal():
    # Z17 ∝ Z17² is not arithmetical: a True with any ideal count fails the
    # chain count, rather than a lookup of a missing key
    ring = _self_extension(17, 2)
    assert decide_arithmetical(ring).verdict is False
    for count in (1, 2, 3, 4913):
        flipped = {"verdict": True,
                   "certificate": {"kind": "all_ideals_locally_principal",
                                   "ideal_count": count}}
        with pytest.raises(ConsistencyError, match="non-locally-principal"):
            replay_condition(ring, "arithmetical", flipped)


def test_arithmetical_decides_a_non_local_ring_above_the_bound():
    # (Z17 ∝ Z17) × Z17 (order 4913): its factors are chain rings with 3
    # and 2 ideals, read with no lattice and counted again by replay, on a
    # copy that shares no cache, in its two localizations
    ring = ProductRing(_self_extension(17, 1), ZmodRing(17))
    assert ring.order > ideals.LATTICE_LIMIT
    cond = decide_arithmetical(ring).to_dict()
    assert cond == {"verdict": True,
                    "certificate": {"kind": "all_ideals_locally_principal",
                                    "ideal_count": 6}}
    fresh = ProductRing(_self_extension(17, 1), ZmodRing(17))
    assert replay_condition(fresh, "arithmetical", cond)
    assert "lattice" not in ring._cache and "lattice" not in fresh._cache


def test_arithmetical_witness_is_the_bad_factors_maximal_ideal(monkeypatch):
    # at lattice scale a False names the maximal ideal m of the factor that
    # the rule found, with |m ∩ eR| and |eR|; the lattice scan for ideals
    # that are not locally principal finds some exactly on these rings, m
    # among them; replay accepts both changed certificates on a fresh copy
    rings = [*generate_corpus(CorpusConfig(max_order=512)),
             *(_spec_ring(path.stem) for path in sorted(SPECS.glob("*.ring")))]
    rings = [r for r in rings if r.order <= ideals.LATTICE_LIMIT]
    bad_rings = 0
    for ring in rings:
        bad = first_nonprincipal_maximal(ring)
        scan = classify_module._non_locally_principal(ring)
        if bad is None:
            assert next(scan, None) is None, ring.name
            continue
        bad_rings += 1
        m = bad.maximal
        assert m.mask in {ideal.mask for ideal, _counter in scan}, ring.name
        result = decide_arithmetical(ring)
        assert result.certificate == {"kind": "non_locally_principal_ideal"}
        assert result.witness == {
            "ideal_gens": m.gen_literals(), "ideal_order": m.size,
            "maximal_gens": m.gen_literals(),
            "pushed_order": (m.mask & bad.corner).bit_count(),
            "localization_order": bad.corner.bit_count()}, ring.name
        pruefer = decide_pruefer(ring)
        assert pruefer.certificate["kind"] == "regular_ideals_collapse"
        report = json.loads(to_json({"conditions": {
            "arithmetical": result.to_dict(),
            "pruefer": pruefer.to_dict()}}))
        for cache in ("_RING_CACHE", "_MODULE_CACHE"):     # a fresh ring
            monkeypatch.setattr(specfile, cache, {})
        fresh = specfile.build_ring(ring.spec)
        assert fresh is not ring
        assert replay_report(fresh, report) == 2
    assert bad_rings == 23 + 9


def test_replay_rejects_a_principal_maximal_ideal_as_witness():
    # Z12 is arithmetical: its maximal ideal (2) is principal in the
    # localization Z4, so a False naming it must not replay
    ring = ZmodRing(12)
    two = ideals.principal_ideal(ring, 2)
    payload = {"verdict": False,
               "certificate": {"kind": "non_locally_principal_ideal"},
               "witness": {"ideal_gens": two.gen_literals(), "ideal_order": 6,
                           "maximal_gens": two.gen_literals(),
                           "pushed_order": 2, "localization_order": 4}}
    assert two in maximal_ideals(ring)
    with pytest.raises(ConsistencyError, match="pushed ideal is principal"):
        replay_condition(ring, "arithmetical", payload)


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


@pytest.mark.parametrize("field", ["degree_bound", "witness_cap", "pair_cap",
                                   "pseudo_candidate_cap"])
def test_config_rejects_a_negative_search_bound(field):
    assert getattr(ClassifyConfig(**{field: 0}), field) == 0
    with pytest.raises(ValueError, match=field):
        ClassifyConfig(**{field: -1})


def test_config_key_distinguishes_search_parameters():
    assert ClassifyConfig().key() != ClassifyConfig(degree_bound=2).key()
    assert ClassifyConfig().key() == ClassifyConfig().key()


def test_bound_exceeded_when_lattice_capped():
    # Z17 ∝ Z17² (order 4913) lies above the lattice bound and is not
    # arithmetical, so its pseudo-arithmetical scan needs the lattice
    ring = _self_extension(17, 2)
    with pytest.raises(BoundExceededError, match="ideal enumeration limited"):
        classify(ring)


def test_pseudo_arithmetical_direct_call():
    ring = _residue_idealization(4)
    for config in (ClassifyConfig(), ClassifyConfig(degree_bound=2)):
        result = decide_pseudo_arithmetical(ring, config)
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
        result = decide_pseudo_arithmetical(ring, config)
        assert result.verdict == "Yes"
        assert result.certificate == {"kind": "all_ideals_locally_principal",
                                      "ideal_count": len(enumerate_ideals(ring))}
    assert calls == []


# ---------------------------------------------------------------- orbit reuse


def _self_idealization(order: int):
    base = ZmodRing(order)
    return TrivialExtensionRing(base, free_module(base, 1))


def _pseudo_search(monkeypatch, ring):
    """decide_pseudo_arithmetical on `ring`, with the candidates it hands to
    orbit_verdicts, one polynomial each, and the number of certify_gaussian
    calls that orbit_verdicts makes, one per orbit root."""
    classify_module = importlib.import_module("finring.classify")
    polys_module = importlib.import_module("finring.polys")
    handed, calls = [], []
    real_run = classify_module.orbit_verdicts
    real_single = polys_module.certify_gaussian

    def run(ring, cols, *args):
        handed.extend(make_poly(ring, col) for col in cols.T.tolist())
        return real_run(ring, cols, *args)

    def single(*args):
        calls.append(args[0])
        return real_single(*args)

    monkeypatch.setattr(classify_module, "orbit_verdicts", run)
    monkeypatch.setattr(polys_module, "certify_gaussian", single)
    config = ClassifyConfig()
    result = decide_pseudo_arithmetical(ring, config)
    return result, handed, calls


def _assert_same_statuses(fs, verdicts):
    """Each verdict has the status plain certification gives its f; each
    carried refutation's witness is its root's witness under the member's
    substitution, by the per-member formula; and each refutation's witness
    violates on its own f."""
    assert [v.status for v in verdicts] == [certify_gaussian(f).status
                                            for f in fs]
    root, dilation, shift = polys._affine_orbits(fs[0].ring,
                                                 polys._poly_columns(fs))
    for i, (f, verdict) in enumerate(zip(fs, verdicts)):
        if verdict.status == "refuted":
            r = int(root[i])
            if r != i:
                assert verdict.witness == substituted(
                    verdicts[r].witness, int(dilation[i]), int(shift[i]))
            g = verdict.witness
            assert (content(poly_mul(f, g)).mask
                    != ideal_product(content(f), content(g)).mask)


def test_orbit_reuse_matches_one_search_per_candidate(monkeypatch):
    ring = _self_idealization(4)
    _result, fs, calls = _pseudo_search(monkeypatch, ring)
    monkeypatch.undo()
    assert len(fs) == 256 and len(calls) == 32
    _assert_same_statuses(fs, certify_gaussians(fs))


def test_pseudo_arithmetical_one_search_per_orbit(monkeypatch):
    result, fs, calls = _pseudo_search(monkeypatch, _self_idealization(8))
    assert len(fs) == 768 and len(calls) == 56
    assert result.verdict == "BoundedYes"
    assert {k: result.certificate[k] for k in
            ("candidates_tried", "refuted", "inconclusive")} == {
        "candidates_tried": 768, "refuted": 768, "inconclusive": 0}


def test_orbit_filing_keeps_every_status(monkeypatch, corpus_rings):
    # every corpus ring that reaches the witness search, and Z16 ∝ Z16, whose
    # 1,792 candidates end 1,540 refuted and 252 bounded
    searched = set()
    for ring in [*corpus_rings, _self_idealization(16)]:
        _result, fs, _calls = _pseudo_search(monkeypatch, ring)
        monkeypatch.undo()
        if fs:
            searched.add(ring.name)
            verdicts = certify_gaussians(fs)
            _assert_same_statuses(fs, verdicts)
    assert {_self_idealization(k).name for k in (4, 8, 16)} <= searched
    statuses = [v.status for v in verdicts]
    assert (statuses.count("refuted"), statuses.count("bounded")) == (1540, 252)


def test_orbit_filing_rejects_an_untransformed_witness(monkeypatch):
    # reusing the first witness of an orbit as it stands fails re-verification
    _result, fs, _calls = _pseudo_search(monkeypatch, _self_idealization(8))
    monkeypatch.undo()
    monkeypatch.setattr(polys, "_substitute", lambda ring, cols, v, c: list(cols))
    with pytest.raises(ConsistencyError):
        certify_gaussians(fs)


@pytest.mark.parametrize("substitute", [
    lambda ring, cols, v, c: polys._shift_columns(ring, cols, c),
    lambda ring, cols, v, c: polys._dilate_columns(ring, cols, v),
], ids=["dropped_dilation", "dropped_shift"])
def test_orbit_filing_rejects_a_partial_substitution(monkeypatch, substitute):
    # a carried witness missing its member's dilation or shift fails
    # re-verification; over Z9 ∝ Z9 each leaves some member clean (over
    # Z8 ∝ Z8 every member's shifted witness still violates, whatever its
    # dilation)
    _result, fs, _calls = _pseudo_search(monkeypatch, _self_idealization(9))
    monkeypatch.undo()
    monkeypatch.setattr(polys, "_substitute", substitute)
    with pytest.raises(ConsistencyError):
        certify_gaussians(fs)


def test_pseudo_arithmetical_run_rechecks_once(monkeypatch):
    # Z8 ∝ Z8 refutes its 56 roots by search and carries their witnesses to
    # 712 more candidates: all 768 pairs go through one re-check call
    ring = _self_idealization(8)
    config = ClassifyConfig()
    gaussian_ring_verdict(ring, config)     # the pair search re-checks its own hit
    calls = []
    real = polys._verify_violations

    def counted(ring, f_cols, g_cols):
        calls.append(np.shape(f_cols)[1])
        return real(ring, f_cols, g_cols)

    monkeypatch.setattr(polys, "_verify_violations", counted)
    result = decide_pseudo_arithmetical(ring, config)
    assert result.certificate["refuted"] == 768 and calls == [768]
    # after the run, a search called on its own re-checks its hit again
    f = polys.poly_from_literals(ring, [(2, 0), (0, 1)])
    assert polys.gaussian_witness_search(f, 1) is not None and calls == [768, 1]


def test_a_clean_root_hit_fails_the_run(monkeypatch):
    # a root search that claims g = x, of unit content, which never violates,
    # is caught by the run's one re-check, whether the decider or
    # certify_gaussians files the verdicts
    ring = _self_idealization(8)
    config = ClassifyConfig()
    _result, fs, _calls = _pseudo_search(monkeypatch, ring)
    monkeypatch.undo()
    gaussian_ring_verdict(ring, config)
    x = make_poly(ring, [ring.zero, ring.one])
    monkeypatch.setattr(polys, "gaussian_witness_search", lambda f, *args: x)
    with pytest.raises(ConsistencyError, match="fails re-verification"):
        decide_pseudo_arithmetical(ring, config)
    with pytest.raises(ConsistencyError, match="fails re-verification"):
        certify_gaussians(fs)


def test_a_certified_candidate_names_its_literals(monkeypatch):
    ring = _self_idealization(8)
    config = ClassifyConfig()
    _result, fs, _calls = _pseudo_search(monkeypatch, ring)
    monkeypatch.undo()
    gaussian_ring_verdict(ring, config)
    monkeypatch.setattr(polys, "certify_gaussian",
                        lambda f, *args: GaussianVerdict("certified",
                                                         reason="unit_content"))
    with pytest.raises(ConsistencyError) as caught:
        decide_pseudo_arithmetical(ring, config)
    assert f"candidate {fs[0].literals()} certified Gaussian (unit_content)" in str(
        caught.value)


def test_pseudo_candidate_columns_match_the_polynomial_list(corpus_rings):
    # every corpus ring that reaches the witness search, Z9 ∝ Z9, and
    # Z16 ∝ Z16, whose 1,792 candidates end 1,540 refuted and 252 bounded
    config = ClassifyConfig()
    searched = set()
    for ring in [*corpus_rings, *map(_self_idealization, (9, 16))]:
        if (decide_arithmetical(ring).verdict is True
                or gaussian_ring_verdict(ring, config).verdict == "Yes"):
            continue
        non_lp = list(classify_module._non_locally_principal(ring))
        cols = classify_module._pseudo_candidates(ring, non_lp, config)
        fs = pseudo_candidates_by_full_scan(ring, config.degree_bound,
                                            config.pseudo_candidate_cap)
        if not fs:
            assert cols.shape[1] == 0, ring.name
            continue
        searched.add(ring.name)
        assert np.array_equal(cols, polys._poly_columns(fs)), ring.name
    assert {_self_idealization(k).name for k in (4, 8, 9, 16)} <= searched
    result = decide_pseudo_arithmetical(_self_idealization(16), config)
    assert (result.certificate["refuted"], result.certificate["inconclusive"]) == (
        1540, 252)


# ---------------------------------------------------------------- generator layouts


def test_generator_layouts_keep_every_candidate_list(corpus_rings):
    # the candidate columns decide_pseudo_arithmetical takes from each
    # ideal, with and without skipping the degrees too short to generate it
    config = ClassifyConfig()
    listed = skipped = 0
    for ring in corpus_rings:
        if decide_arithmetical(ring).verdict is True:
            continue
        for ideal in enumerate_ideals(ring).ideals:
            if ideals.is_locally_principal(ideal)[0]:
                continue
            degrees = range(1, config.degree_bound + 1)
            cap = config.pseudo_candidate_cap
            fast = [make_poly(ring, col).coeffs
                    for cols in classify_module._first_layouts(
                        ring, ideal, config.degree_bound, cap)
                    for col in cols.T.tolist()]
            full = (f.coeffs for d in degrees
                    for f in generator_layouts_by_full_scan(ring, ideal, d))
            assert fast == list(islice(full, cap)), ring.name
            listed += 1
            skipped += sum(d + 1 < ideals.least_generator_count(ideal)
                           for d in degrees)
    assert listed > 50 and skipped > 0


def test_generator_layouts_skip_degrees_below_the_generator_count(monkeypatch):
    # the maximal ideal of F2 ∝ F2^5 needs 5 generators: no layout of
    # degree ≤ 3 has enough coefficients, and none is decoded
    ring = _field_idealization(2, 1, 5)
    (maximal,) = maximal_ideals(ring)
    assert [maximal] == maximals_by_pairwise_scan(enumerate_ideals(ring))
    decoded = []
    real = classify_module.decode_poly_block

    def counted(*args):
        decoded.append(args)
        return real(*args)

    monkeypatch.setattr(classify_module, "decode_poly_block", counted)
    for degree in (1, 2, 3):
        assert list(classify_module._generator_layouts(ring, maximal, degree)) == []
    assert decoded == []
