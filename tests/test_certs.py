"""Certificate replay: every emitted certificate must verify independently
after a JSON round-trip, and corrupted certificates must be rejected."""

import copy
import importlib
import json
from pathlib import Path

import numpy as np
import pytest

from finring import specfile
from finring.certs import replay_condition, replay_report
from finring.classify import CONDITION_ORDER, classify
from finring.corpus import CorpusConfig, generate_corpus
from finring.errors import ConsistencyError
from finring.ideals import is_local, residue_vector_space
from finring.reports import to_json
from finring.rings import (KIND_SCAN_LIMIT, ProductRing, TrivialExtensionRing,
                           ZmodRing, free_module, standard_gf, unit_partition)
from finring.specfile import build_target, parse_ring_spec

from oracles import (von_neumann_by_quasi_inverse_scan,
                     zerodivisors_by_product_scan)

SPECS = Path(__file__).resolve().parent / "specs"


def _round_trip(report) -> dict:
    return json.loads(to_json(report.to_dict()))


def _residue_idealization(order: int, dim: int = 1):
    base = ZmodRing(order)
    module = residue_vector_space(base, is_local(base), dim)
    return TrivialExtensionRing(base, module)


def _self_idealization():
    base = ZmodRing(4)
    return TrivialExtensionRing(base, free_module(base, 1))


def _product_mixed():
    return ProductRing(_residue_idealization(4), standard_gf(2, 2))


def _spec_ring(name: str):
    return build_target(parse_ring_spec(
        (SPECS / f"{name}.ring").read_text(encoding="utf-8")))


RINGS = {
    "zmod4": lambda: ZmodRing(4),
    "zmod30": lambda: ZmodRing(30),
    "gf9": lambda: standard_gf(3, 2),
    "residue_ideal_z4": lambda: _residue_idealization(4),
    "residue_ideal_z8": lambda: _residue_idealization(8),
    "residue_ideal_z9": lambda: _residue_idealization(9),
    "self_ideal_z4": _self_idealization,
    "product_mixed": _product_mixed,
    "f2sq_x_z12": lambda: _spec_ring("f2sq_x_z12"),
    "z4sq_x_z2": lambda: _spec_ring("z4sq_x_z2"),
}


@pytest.mark.parametrize("key", sorted(RINGS))
def test_replay_after_json_round_trip(key):
    ring = RINGS[key]()
    payload = _round_trip(classify(ring))
    assert replay_report(ring, payload) == len(CONDITION_ORDER)


def test_replay_single_condition():
    ring = ZmodRing(4)
    payload = _round_trip(classify(ring))
    assert replay_condition(ring, "reduced", payload["conditions"]["reduced"])


# ---------------------------------------------------------------- tampering


def _tampered(payload: dict, condition: str, mutate) -> dict:
    bad = copy.deepcopy(payload)
    mutate(bad["conditions"][condition])
    return bad


def test_tampered_square_zero_witness_rejected():
    ring = ZmodRing(4)
    payload = _round_trip(classify(ring))
    bad = _tampered(payload, "reduced",
                    lambda c: c["witness"].__setitem__("element", 1))
    with pytest.raises(ConsistencyError):
        replay_condition(ring, "reduced", bad["conditions"]["reduced"])


def test_tampered_verdict_rejected():
    ring = ZmodRing(4)
    payload = _round_trip(classify(ring))
    bad = _tampered(payload, "reduced", lambda c: c.__setitem__("verdict", True))
    with pytest.raises(ConsistencyError):
        replay_condition(ring, "reduced", bad["conditions"]["reduced"])


def test_tampered_gaussian_rule_rejected():
    ring = _residue_idealization(4)
    payload = _round_trip(classify(ring))
    bad = _tampered(payload, "gaussian",
                    lambda c: c["certificate"].__setitem__("rule", "arithmetical"))
    with pytest.raises(ConsistencyError):
        replay_condition(ring, "gaussian", bad["conditions"]["gaussian"])


def test_tampered_gaussian_refutation_rejected():
    ring = _self_idealization()
    payload = _round_trip(classify(ring))
    cond = payload["conditions"]["gaussian"]
    assert cond["verdict"] == "No"
    bad = copy.deepcopy(cond)
    bad["witness"]["g"] = [[0, 0], [0, 1]]  # no longer a violating pair
    with pytest.raises(ConsistencyError):
        replay_condition(ring, "gaussian", bad)


def test_tampered_pseudo_witness_rejected():
    ring = _residue_idealization(4)
    payload = _round_trip(classify(ring))
    cond = copy.deepcopy(payload["conditions"]["pseudo_arithmetical"])
    cond["witness"]["f"] = [[1, 0]]  # unit content: locally principal
    with pytest.raises(ConsistencyError):
        replay_condition(ring, "pseudo_arithmetical", cond)


def test_tampered_arithmetical_witness_rejected():
    ring = _residue_idealization(4)
    payload = _round_trip(classify(ring))
    cond = copy.deepcopy(payload["conditions"]["arithmetical"])
    assert cond["verdict"] is False
    cond["witness"]["ideal_gens"] = [[1, 0]]  # whole ring: principal
    with pytest.raises(ConsistencyError):
        replay_condition(ring, "arithmetical", cond)


def test_replay_rejects_a_quasi_inverse_witness():
    # von Neumann regularity is refuted by a square-zero element only, so a
    # witness with any other reason is forged, although 2 in Z4 has no
    # quasi-inverse
    ring = ZmodRing(4)
    payload = {"verdict": False,
               "certificate": {"kind": "vn_regular_collapse",
                               "method": "square_zero_witness"},
               "witness": {"element": 2, "reason": "no_quasi_inverse"}}
    with pytest.raises(ConsistencyError, match="unknown witness reason"):
        replay_condition(ring, "semihereditary", payload)


# ------------------------------------------- von Neumann and unit partition


_VN_CLAIMS = {
    "semihereditary": {
        "verdict": True,
        "certificate": {"kind": "vn_regular_collapse",
                        "method": "reduced_finite_ring_is_a_product_of_fields",
                        "localizations_are_fields": True}},
    "weak_dim_class": {
        "verdict": "Zero",
        "certificate": {"kind": "artinian_dichotomy",
                        "method": "reduced_finite_ring_is_a_product_of_fields"}},
}


def _accepts(ring, name: str, result: dict) -> bool:
    try:
        return replay_condition(ring, name, result)
    except ConsistencyError:
        return False


def _check_replay_against_the_scans(ring) -> None:
    # replay accepts a positive von Neumann claim, forged where the ring is
    # not reduced, exactly when every element has a quasi-inverse; and it
    # accepts the unit and zerodivisor counts of the n² product scan, and
    # no count off by one
    regular = von_neumann_by_quasi_inverse_scan(ring)
    for name, claim in _VN_CLAIMS.items():
        assert _accepts(ring, name, claim) is regular, (ring.name, name)
    zerodivisors = int(np.count_nonzero(zerodivisors_by_product_scan(ring)))
    units = ring.order - zerodivisors
    for delta in (0, -1, 1):
        partition = {"kind": "unit_zerodivisor_partition",
                     "unit_count": units + delta,
                     "zerodivisor_count": zerodivisors - delta}
        collapse = {"kind": "regular_ideals_collapse",
                    "unit_count": units + delta}
        for name, cert in (("total_quotient_ring", partition),
                           ("pruefer", collapse)):
            assert _accepts(ring, name, {"verdict": True, "certificate": cert}
                            ) is (delta == 0), (ring.name, name, delta)


def test_replay_matches_the_scans_on_the_default_corpus():
    for ring in generate_corpus(CorpusConfig()):
        _check_replay_against_the_scans(ring)


# the specs whose n² products the oracle scans would take hours to read
_ABOVE_THE_SCAN = {"f1024_x_z11", "f1024_sq"}
SCANNED_SPECS = [path for path in sorted(SPECS.rglob("*.ring"))
                 if path.stem not in _ABOVE_THE_SCAN]


@pytest.mark.parametrize("path", SCANNED_SPECS, ids=lambda path: path.stem)
def test_replay_matches_the_scans_on_spec_rings(path):
    ring = build_target(parse_ring_spec(path.read_text(encoding="utf-8")))
    assert ring.order ** 2 <= KIND_SCAN_LIMIT
    _check_replay_against_the_scans(ring)


def _first(ring, mask) -> int:
    """The first element of a mask other than 0 and 1."""
    return next(int(a) for a in np.flatnonzero(mask)
                if a not in (ring.zero, ring.one))


def _flip_a_unit(ring, partition):
    partition.units[_first(ring, partition.units)] = False


def _flip_a_zerodivisor(ring, partition):
    partition.units[_first(ring, ~partition.units)] = True


def _corrupt_an_inverse(ring, partition):
    partition.witness[_first(ring, partition.units)] = ring.one


def _corrupt_an_annihilator(ring, partition):
    partition.witness[_first(ring, ~partition.units)] = ring.one


@pytest.mark.parametrize("tamper", [_flip_a_unit, _flip_a_zerodivisor,
                                    _corrupt_an_inverse,
                                    _corrupt_an_annihilator],
                         ids=lambda tamper: tamper.__name__.lstrip("_"))
@pytest.mark.parametrize("condition", ["total_quotient_ring", "pruefer"])
def test_corrupted_unit_partition_rejected(condition, tamper):
    # replay reads the ring's cached partition and checks every witness
    # again: (Z4 ∝ F2) × F4 is built afresh, since the cache is tampered,
    # and is not arithmetical, so its Prüfer certificate is the unit-count
    # collapse
    ring = _product_mixed()
    cond = _round_trip(classify(ring))["conditions"][condition]
    assert cond["certificate"].get("unit_count") == 12
    assert replay_condition(ring, condition, cond)
    tamper(ring, unit_partition(ring))
    with pytest.raises(ConsistencyError, match="witness fails"):
        replay_condition(ring, condition, cond)


@pytest.mark.parametrize("delta", [-1, 1])
def test_unit_count_off_by_one_rejected_above_the_scan(delta):
    # F1024 × Z11 has order 11,264, whose n² is above the unit scan's cap;
    # it is arithmetical, so the collapse certificate is forged
    ring = _spec_ring("above_bound/f1024_x_z11")
    partition = _round_trip(classify(ring))["conditions"]["total_quotient_ring"]
    units = 1023 * 10
    assert partition["certificate"]["unit_count"] == units
    collapse = {"verdict": True,
                "certificate": {"kind": "regular_ideals_collapse",
                                "unit_count": units}}
    for name, cond in (("total_quotient_ring", partition),
                       ("pruefer", collapse)):
        assert replay_condition(ring, name, cond)
        bad = copy.deepcopy(cond)
        bad["certificate"]["unit_count"] += delta
        with pytest.raises(ConsistencyError, match="unit count mismatch"):
            replay_condition(ring, name, bad)


@pytest.mark.parametrize("mutate", [
    lambda cert: cert.update(localizations_are_fields=False),
    lambda cert: cert.pop("localizations_are_fields"),
], ids=["false", "missing"])
@pytest.mark.parametrize("key", ["zmod30", "gf9"])
def test_tampered_localizations_are_fields_rejected(key, mutate):
    # replay reads the key from its own localizations, each a field, on
    # the non-local Z30 and the local F9
    ring = RINGS[key]()
    cond = _round_trip(classify(ring))["conditions"]["semihereditary"]
    assert cond["certificate"]["localizations_are_fields"] is True
    assert replay_condition(ring, "semihereditary", cond)
    mutate(cond["certificate"])
    with pytest.raises(ConsistencyError, match="localizations_are_fields"):
        replay_condition(ring, "semihereditary", cond)


@pytest.mark.parametrize("condition, field", [
    ("arithmetical", "ideal_count"),
    ("pruefer", "ideal_count"),
    ("pruefer", "regular_ideal_count"),
    ("pseudo_arithmetical", "ideal_count"),
])
def test_ideal_count_off_by_one_rejected(condition, field):
    # the deciders read the counts of an arithmetical ring from its
    # chain-ring corners; replay counts the powers of a generator of each
    # localization's maximal ideal, at every order (Z67 ∝ Z67 has order
    # 4489, above the lattice bound)
    z67 = ZmodRing(67)
    for ring in (ZmodRing(12), TrivialExtensionRing(z67, free_module(z67, 1))):
        payload = _round_trip(classify(ring))
        cond = payload["conditions"][condition]
        assert cond["certificate"][field] >= 1
        assert replay_condition(ring, condition, cond)
        for delta in (-1, 1):
            bad = copy.deepcopy(cond)
            bad["certificate"][field] += delta
            with pytest.raises(ConsistencyError, match="count mismatch"):
                replay_condition(ring, condition, bad)


@pytest.mark.parametrize("condition, path", [
    ("arithmetical", ("ideal_order",)),
    ("arithmetical", ("pushed_order",)),
    ("arithmetical", ("localization_order",)),
    ("pseudo_arithmetical", ("content_order",)),
    ("pseudo_arithmetical", ("non_principal_at", "localization_order")),
], ids=lambda value: ".".join(value) if isinstance(value, tuple) else value)
def test_tampered_witness_order_rejected(condition, path):
    # replay compares each order a witness carries with the ideal and the
    # localization it rebuilds
    ring = RINGS["f2sq_x_z12"]()
    cond = copy.deepcopy(_round_trip(classify(ring))["conditions"][condition])
    holder = cond["witness"]
    for key in path[:-1]:
        holder = holder[key]
    holder[path[-1]] += 1
    with pytest.raises(ConsistencyError, match="order mismatch"):
        replay_condition(ring, condition, cond)


def test_replay_on_wrong_ring_rejected():
    payload = _round_trip(classify(ZmodRing(4)))
    other = ZmodRing(9)  # reduced there, so the stored witness is bogus
    with pytest.raises(ConsistencyError):
        replay_condition(other, "reduced", payload["conditions"]["reduced"])


def test_unknown_condition_name_rejected():
    payload = _round_trip(classify(ZmodRing(4)))
    with pytest.raises(ConsistencyError):
        replay_condition(ZmodRing(4), "mystery", payload["conditions"]["reduced"])


_ROW_TAMPERS = {
    "field_like": [lambda value: not value],
    "irreducible": [lambda value: not value],
    "atom_count": [lambda value: value - 1, lambda value: value + 1],
}


@pytest.mark.parametrize("field", sorted(_ROW_TAMPERS))
@pytest.mark.parametrize("key", ["zmod30", "product_mixed", "z67_trivext"])
def test_tampered_zero_ideal_row_rejected(key, field):
    # Z67 ∝ Z67 has order 4489, above the lattice bound: replay counts its
    # atoms from the socle
    ring = RINGS[key]() if key in RINGS else _spec_ring(f"above_bound/{key}")
    name = "zero_ideal_locally_irreducible"
    cond = _round_trip(classify(ring))["conditions"][name]
    for pos in range(len(cond["certificate"]["localizations"])):
        for tamper in _ROW_TAMPERS[field]:
            bad = copy.deepcopy(cond)
            row = bad["certificate"]["localizations"][pos]
            row[field] = tamper(row[field])
            with pytest.raises(ConsistencyError):
                replay_condition(ring, name, bad)


def _witness_the_first_row(cond: dict) -> None:
    # the first row is the field Z3's, which is irreducible
    row = cond["certificate"]["localizations"][0]
    cond["witness"].update({key: row[key] for key in cond["witness"]})


def _first_gen_only(holder: dict) -> None:
    # the first of the three generators of the maximal ideal of order 48
    # spans an ideal of order 12, proper but not maximal
    holder["maximal_gens"] = holder["maximal_gens"][:1]


def _duplicate_first_row(cond: dict) -> None:
    # the reducible factor of order 8 loses its row to the field Z3's
    rows = cond["certificate"]["localizations"]
    rows[1] = copy.deepcopy(rows[0])
    cond["verdict"] = True
    del cond["witness"]


@pytest.mark.parametrize("condition, mutate, match", [
    ("pruefer", lambda c: c["certificate"].update(kind="bogus"),
     "unknown kind"),
    ("pruefer", lambda c: c["certificate"].pop("unit_count"),
     "unit count mismatch"),
    ("total_quotient_ring",
     lambda c: c["certificate"].update(
         zerodivisor_count=c["certificate"]["zerodivisor_count"] + 1),
     "zerodivisor count mismatch"),
    ("zero_ideal_locally_irreducible",
     lambda c: c["witness"].update(atom_count=7), "witness"),
    ("zero_ideal_locally_irreducible", _witness_the_first_row, "witness"),
    ("zero_ideal_locally_irreducible", lambda c: c.pop("witness"),
     "witness"),
    ("zero_ideal_locally_irreducible", _duplicate_first_row, "two rows"),
    ("zero_ideal_locally_irreducible",
     lambda c: _first_gen_only(c["certificate"]["localizations"][1]),
     "not a maximal ideal"),
    ("arithmetical", lambda c: _first_gen_only(c["witness"]),
     "not a maximal ideal"),
], ids=["pruefer_unknown_kind", "pruefer_collapse_without_unit_count",
        "total_quotient_zerodivisor_count", "zero_ideal_witness_atom_count",
        "zero_ideal_witness_names_an_irreducible_row",
        "zero_ideal_missing_witness", "zero_ideal_duplicate_row",
        "zero_ideal_row_not_maximal", "arithmetical_witness_not_maximal"])
def test_tampered_certificate_rejected(condition, mutate, match):
    # (F2 ∝ F2²) × Z12 is not arithmetical, so its Prüfer certificate is the
    # unit-count collapse, and its zero ideal is reducible at the factor of
    # order 8 alone; each tamper raises ConsistencyError, not KeyError or
    # RingBuildError
    ring = RINGS["f2sq_x_z12"]()
    cond = _round_trip(classify(ring))["conditions"][condition]
    assert replay_condition(ring, condition, cond)
    mutate(cond)
    with pytest.raises(ConsistencyError, match=match):
        replay_condition(ring, condition, cond)


# the specs above the lattice bound, and the non-local specs whose
# certificates replay through their localizations
REBUILT_SPECS = [*sorted((SPECS / "above_bound").glob("*.ring")),
                 *(SPECS / f"{name}.ring"
                   for name in ("f2sq_x_z12", "z4f2_x_f4", "z4sq_x_z2"))]


@pytest.mark.parametrize("path", REBUILT_SPECS, ids=lambda path: path.stem)
def test_reports_replay_on_rebuilt_rings(path, monkeypatch):
    # every report that classify writes replays, on a ring rebuilt from its
    # spec, since spec builds are memoized
    spec = parse_ring_spec(path.read_text(encoding="utf-8"))
    ring = build_target(spec)
    payload = _round_trip(classify(ring))
    for cache in ("_RING_CACHE", "_MODULE_CACHE"):
        monkeypatch.setattr(specfile, cache, {})
    fresh = build_target(spec)
    assert fresh is not ring
    assert replay_report(fresh, payload) == len(CONDITION_ORDER)


def test_corpus_reports_replay_on_fresh_rings():
    # replay shares no cache with classify: each default-corpus report
    # replays on the same ring generated again
    payloads = [_round_trip(classify(ring))
                for ring in generate_corpus(CorpusConfig())]
    fresh = generate_corpus(CorpusConfig())
    assert len(fresh) == len(payloads) == 170
    for ring, payload in zip(fresh, payloads):
        assert payload["ring"]["name"] == ring.name
        assert replay_report(ring, payload) == len(CONDITION_ORDER)


def test_non_local_witnesses_replay():
    # (F2 ∝ F2²) × Z12 has three local factors, of orders 3, 8 and 4; the
    # order-8 one, F2 ∝ F2², carries every negative witness
    ring = _spec_ring("f2sq_x_z12")
    payload = _round_trip(classify(ring))
    conditions = payload["conditions"]
    arith = conditions["arithmetical"]["witness"]
    assert (arith["pushed_order"], arith["localization_order"]) == (4, 8)
    pseudo = conditions["pseudo_arithmetical"]
    assert pseudo["verdict"] == "No"
    assert pseudo["witness"]["non_principal_at"]["localization_order"] == 8
    rows = conditions["zero_ideal_locally_irreducible"]["certificate"]
    assert [(r["localization_order"], r["atom_count"])
            for r in rows["localizations"]] == [(3, 0), (8, 3), (4, 1)]
    assert replay_report(ring, payload) == len(CONDITION_ORDER)


def _factor_of_order(certificate: dict, order: int) -> dict:
    return next(f for f in certificate["factors"]
                if f["localization_order"] == order)


def _relabel_sub_rule(certificate: dict) -> None:
    # F2 ∝ F2² is Gaussian by its square-zero maximal ideal, which is not
    # principal, so it is not arithmetical
    sub = _factor_of_order(certificate, 8)["certificate"]
    assert sub["rule"] == "local_square_zero_maximal"
    sub["rule"] = "arithmetical"


def _first_factor_status(status: str):
    # a factor that is not Yes, with nothing to replay
    return lambda cert: cert["factors"][0].update(status=status, certificate={})


@pytest.mark.parametrize("mutate, match", [
    (lambda cert: cert["factors"][0].update(localization_order=5),
     "factor order mismatch"),
    (lambda cert: cert["factors"].pop(), "factor count mismatch"),
    (_relabel_sub_rule, "arithmetical premise fails"),
    (_first_factor_status("BoundedYes"), "factor status"),
    (_first_factor_status("No"), "factor status"),
    (_first_factor_status("banana"), "factor status"),
], ids=["localization_order", "dropped_factor", "sub_rule",
        "bounded_factor", "refuted_factor", "unknown_factor_status"])
def test_tampered_decomposition_rejected(mutate, match):
    # replay reads the factor rows against its own localizations, and the
    # rule is Yes only when every factor is
    ring = _spec_ring("f2sq_x_z12")
    cond = _round_trip(classify(ring))["conditions"]["gaussian"]
    assert cond["certificate"]["rule"] == "local_factor_decomposition"
    bad = copy.deepcopy(cond)
    mutate(bad["certificate"])
    with pytest.raises(ConsistencyError, match=match):
        replay_condition(ring, "gaussian", bad)


def test_decomposition_without_a_maximal_ideal_rejected(monkeypatch):
    # with one of the three localizations missing, the kernels of the other
    # two meet in a nonzero ideal and their orders multiply to less than |R|
    certs = importlib.import_module("finring.certs")
    ring = _spec_ring("f2sq_x_z12")
    cond = _round_trip(classify(ring))["conditions"]["gaussian"]
    assert replay_condition(ring, "gaussian", cond)
    real = certs.maximal_ideals
    monkeypatch.setattr(certs, "maximal_ideals", lambda r: real(r)[1:])
    with pytest.raises(ConsistencyError, match="not bijective"):
        replay_condition(ring, "gaussian", cond)


def test_decomposition_on_a_local_ring_rejected():
    cond = _round_trip(classify(_spec_ring("f2sq_x_z12")))["conditions"]["gaussian"]
    local = _residue_idealization(4)
    with pytest.raises(ConsistencyError, match="on a local ring"):
        replay_condition(local, "gaussian", cond)


def _stub_in_deciders(monkeypatch, attr: str, stub) -> None:
    for name in ("finring.ideals", "finring.classify"):
        monkeypatch.setattr(importlib.import_module(name), attr, stub)


def test_replay_rejects_a_stubbed_arithmetical_rule(monkeypatch):
    # replay re-scans every ideal by its own localization, so a deciders'
    # rule that calls every maximal ideal principal cannot vouch for the
    # verdicts it caused
    certs = importlib.import_module("finring.certs")
    assert not hasattr(certs, "first_nonprincipal_maximal")
    _stub_in_deciders(monkeypatch, "first_nonprincipal_maximal", lambda ring: None)
    ring = _residue_idealization(4, 2)    # Z4 ∝ (Z4/2)², not arithmetical
    payload = _round_trip(classify(ring))
    assert payload["conditions"]["arithmetical"]["verdict"] is True
    with pytest.raises(ConsistencyError):
        replay_report(ring, payload)


def test_classify_rejects_a_stubbed_locally_principal_check(monkeypatch):
    # the rule finds a non-principal maximal ideal, so the lattice scan for
    # the witness must find an ideal that is not locally principal
    certs = importlib.import_module("finring.certs")
    assert not hasattr(certs, "is_locally_principal")
    _stub_in_deciders(monkeypatch, "is_locally_principal",
                      lambda ideal: (True, None))
    with pytest.raises(ConsistencyError, match="finds no ideal"):
        classify(_residue_idealization(4, 2))
