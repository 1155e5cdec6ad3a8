"""The per-ring memo: None is a fact worth keeping, a failed build leaves
nothing behind, and a verdict above the lattice bound is still certified."""

import copy

import pytest

from finring.certs import replay_condition
from finring.classify import decide_arithmetical
from finring.errors import BoundExceededError, ConsistencyError
from finring.ideals import enumerate_ideals, is_local
from finring.rings import ZmodRing, free_module, make_trivial_extension


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
    # Z17 ∝ Z17² (order 4913) is decided by one targeted ideal 0 ∝ E, which
    # neither of its two generators generates alone
    z17 = ZmodRing(17)
    ring = make_trivial_extension(z17, free_module(z17, 2))[0]
    result = decide_arithmetical(ring)
    assert result.verdict is False
    assert result.certificate["kind"] == "non_principal_ideal_local"
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
