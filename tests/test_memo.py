"""The per-ring memo: None is a fact worth keeping, a failed build leaves
nothing behind, and a verdict above the lattice bound is still certified."""

import copy

import pytest

from finring.certs import replay_condition
from finring.classify import decide_arithmetical
from finring.errors import BoundExceededError, ConsistencyError
from finring import ideals
from finring.ideals import (enumerate_ideals, first_nonprincipal_maximal,
                            is_local)
from finring.rings import TrivialExtensionRing, ZmodRing, free_module


def test_non_local_verdict_is_memoised(monkeypatch):
    ring = ZmodRing(6)
    assert is_local(ring) is None
    calls = []
    real = ring.add_arr
    monkeypatch.setattr(ring, "add_arr",
                        lambda *args: calls.append(args) or real(*args))
    assert is_local(ring) is None
    assert calls == []


def test_failed_lattice_build_stores_nothing():
    ring = ZmodRing(4099)  # above LATTICE_LIMIT
    for _ in range(2):
        with pytest.raises(BoundExceededError):
            enumerate_ideals(ring)
        assert "lattice" not in ring._cache


def test_arithmetical_above_lattice_bound():
    # Z17 ∝ Z17² (order 4913) is local, and its maximal ideal 0 ∝ E, the
    # witness, is generated by neither of its two generators alone
    z17 = ZmodRing(17)
    ring = TrivialExtensionRing(z17, free_module(z17, 2))
    result = decide_arithmetical(ring)
    assert result.verdict is False
    assert result.certificate["kind"] == "non_locally_principal_ideal"
    assert decide_arithmetical(ring) is result
    cond = result.to_dict()
    assert len(cond["witness"]["ideal_gens"]) == 2
    # the maximal ideal 0 ∝ E needs both basis vectors of E = Z17²
    assert len(cond["witness"]["maximal_gens"]) == 2
    assert replay_condition(ring, "arithmetical", cond)
    dropped = copy.deepcopy(cond)
    dropped["witness"]["ideal_gens"] = dropped["witness"]["ideal_gens"][:1]
    with pytest.raises(ConsistencyError):
        replay_condition(ring, "arithmetical", dropped)


def test_nonprincipal_maximal_rule_is_memoised(monkeypatch):
    # decide_arithmetical and Gaussian rule (a) both read the rule, a scan
    # of the cached local factor records
    z17 = ZmodRing(17)
    ring = TrivialExtensionRing(z17, free_module(z17, 2))
    factor = first_nonprincipal_maximal(ring)
    assert factor is not None and factor.maximal is is_local(ring)
    calls = []
    real = ideals._local_factors
    monkeypatch.setattr(ideals, "_local_factors",
                        lambda *args: calls.append(args) or real(*args))
    assert first_nonprincipal_maximal(ring) is factor
    assert calls == []
