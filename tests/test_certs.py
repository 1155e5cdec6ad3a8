"""Certificate replay: every emitted certificate must verify independently
after a JSON round-trip, and corrupted certificates must be rejected."""

import copy
import importlib
import json
from pathlib import Path

import pytest

from finring.certs import replay_condition, replay_report
from finring.classify import CONDITION_ORDER, classify
from finring.errors import ConsistencyError
from finring.ideals import is_local, residue_vector_space
from finring.reports import to_json
from finring.rings import (ProductRing, TrivialExtensionRing, ZmodRing,
                           free_module, standard_gf)
from finring.specfile import build_target, parse_ring_spec

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


@pytest.mark.parametrize("condition, field", [
    ("arithmetical", "ideal_count"),
    ("pruefer", "ideal_count"),
    ("pruefer", "regular_ideal_count"),
    ("pseudo_arithmetical", "ideal_count"),
])
def test_ideal_count_off_by_one_rejected(condition, field):
    # the deciders read the counts of an arithmetical ring from its
    # chain-ring corners; replay counts its own lattice
    ring = ZmodRing(12)
    payload = _round_trip(classify(ring))
    assert payload["conditions"][condition]["certificate"][field] >= 1
    bad = _tampered(payload, condition, lambda c: c["certificate"].__setitem__(
        field, c["certificate"][field] + 1))
    with pytest.raises(ConsistencyError, match="count mismatch"):
        replay_report(ring, bad)


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


@pytest.mark.parametrize("field", ["field_like", "irreducible"])
@pytest.mark.parametrize("key", ["zmod30", "product_mixed"])
def test_tampered_zero_ideal_row_rejected(key, field):
    ring = RINGS[key]()
    name = "zero_ideal_locally_irreducible"
    cond = _round_trip(classify(ring))["conditions"][name]
    for pos in range(len(cond["certificate"]["localizations"])):
        bad = copy.deepcopy(cond)
        row = bad["certificate"]["localizations"][pos]
        row[field] = not row[field]
        with pytest.raises(ConsistencyError):
            replay_condition(ring, name, bad)


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


@pytest.mark.parametrize("mutate, match", [
    (lambda cert: cert["factors"][0].update(localization_order=5),
     "factor order mismatch"),
    (lambda cert: cert["factors"].pop(), "factor count mismatch"),
    (_relabel_sub_rule, "arithmetical premise fails"),
], ids=["localization_order", "dropped_factor", "sub_rule"])
def test_tampered_decomposition_rejected(mutate, match):
    # replay's own localizations are the one isomorphism check of the
    # decomposition rule, and its factor rows are read against them
    ring = _spec_ring("f2sq_x_z12")
    cond = _round_trip(classify(ring))["conditions"]["gaussian"]
    assert cond["certificate"]["rule"] == "local_factor_decomposition"
    bad = copy.deepcopy(cond)
    mutate(bad["certificate"])
    with pytest.raises(ConsistencyError, match=match):
        replay_condition(ring, "gaussian", bad)


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
