"""The certified unit/zerodivisor partition: counts, fallback, witness
verification, and one build per ring."""

import importlib
from collections import Counter

import numpy as np
import pytest

from finring import rings
from finring.certs import replay_condition
from finring.classify import ClassifyConfig, classify, decide_total_quotient
from finring.errors import ConsistencyError
from finring.ideals import principal_ideal, quotient_module
from finring.rings import (TrivialExtensionRing, ZmodRing, element_units,
                           free_module, standard_gf, unit_partition)


def _free_trivext(base, rank):
    ring = TrivialExtensionRing(base, free_module(base, rank))
    return ring


def _z6_by_z3():
    """trivext(zmod(6),quot_module(zmod(6),[3])): 2 ∈ Z6 kills nothing in Z3."""
    z6 = ZmodRing(6)
    ring = TrivialExtensionRing(
        z6, quotient_module(z6, principal_ideal(z6, 3)))
    return ring


@pytest.mark.parametrize("build, units, zerodivisors", [
    (lambda: _free_trivext(standard_gf(2, 4), 2), 3840, 256),
    (lambda: _free_trivext(ZmodRing(31), 2), 28830, 961),
], ids=["gf16_free2", "zmod31_free2"])
def test_unit_count_matches_unit_group_oracle(build, units, zerodivisors):
    # U(A ∝ E) = U(A) × E, and A is a field here, so |U| = (|A| - 1)·|E|;
    # one certificate kind at every order, which replay re-checks by scale
    ring = build()
    assert units == (ring.base_ring.order - 1) * ring.ext_module.order
    assert zerodivisors == ring.order - units
    result = decide_total_quotient(ring)
    assert result.certificate == {"kind": "unit_zerodivisor_partition",
                                  "unit_count": units,
                                  "zerodivisor_count": zerodivisors}
    assert replay_condition(ring, "total_quotient_ring", result.to_dict())


def test_structural_and_scan_witnesses_agree():
    ring = _free_trivext(ZmodRing(4), 2)
    structural, _ = rings._trivext_witnesses(ring)
    scanned, _ = rings._scan_witnesses(ring)
    assert np.array_equal(structural, scanned)
    assert int(structural.sum()) == 2 * 16


def test_fallback_when_module_has_no_annihilator():
    ring = _z6_by_z3()
    assert ring.name == "trivext(zmod(6),quot_module(zmod(6),[3]))"
    assert rings._trivext_witnesses(ring) is None
    cert = decide_total_quotient(ring).certificate
    assert cert["unit_count"] == 6 and cert["zerodivisor_count"] == 12
    assert cert["kind"] == "unit_zerodivisor_partition"


def _corrupting(finder, target, slot):
    """Wrap a witness finder so that one witness of `target` is wrong."""
    def corrupted(ring):
        found = finder(ring)
        if ring is not target or found is None:
            return found
        units, witness = found
        witness = witness.copy()
        if slot == "inverse":
            witness[ring.one] = ring.zero          # 1·0 ≠ 1
        else:
            nonunit = int(np.flatnonzero(~units)[1])
            witness[nonunit] = ring.one            # a·1 = a ≠ 0
        return units, witness
    return corrupted


@pytest.mark.parametrize("slot", ["inverse", "annihilator"])
@pytest.mark.parametrize("path", ["_trivext_witnesses", "_scan_witnesses"])
def test_corrupted_witness_raises(path, slot, monkeypatch):
    ring = (_free_trivext(ZmodRing(4), 1) if path == "_trivext_witnesses"
            else ZmodRing(12))
    monkeypatch.setattr(rings, path,
                        _corrupting(getattr(rings, path), ring, slot))
    with pytest.raises(ConsistencyError):
        unit_partition(ring)
    assert "units" not in ring._cache


def test_pruefer_refuses_a_proper_ideal_holding_a_unit(monkeypatch):
    # a mask that wrongly calls 2 ∈ Z4 a unit puts a unit in the ideal (2)
    classify_module = importlib.import_module("finring.classify")
    ring = ZmodRing(4)
    wrong = element_units(ring).copy()
    wrong[2] = True
    monkeypatch.setattr(classify_module, "element_units", lambda _ring: wrong)
    with pytest.raises(ConsistencyError):
        classify_module.decide_pruefer(ring)


@pytest.mark.parametrize("base_order", [4, 6])
def test_partition_built_once_per_ring(base_order, monkeypatch):
    ring = _free_trivext(ZmodRing(base_order), 1)
    built: list = []
    for name in ("_trivext_witnesses", "_scan_witnesses"):
        def recording(r, _finder=getattr(rings, name)):
            built.append(r)
            return _finder(r)
        monkeypatch.setattr(rings, name, recording)
    classify(ring, ClassifyConfig())
    counts = Counter(id(r) for r in built)
    assert counts[id(ring)] == 1
    assert set(counts.values()) == {1}
    assert len(counts) >= 2   # the base ring and, for Z6, the localizations
    assert int(element_units(ring).sum()) == \
        int(element_units(ring.base_ring).sum()) * ring.ext_module.order
