"""The per-ring memo: None is a fact worth keeping, a failed build leaves
nothing behind, and verdicts are filed per search configuration."""

import pytest

from finring.classify import ClassifyConfig, decide_arithmetical
from finring.errors import BoundExceededError
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
    ring = ZmodRing(12)
    with pytest.raises(BoundExceededError):
        enumerate_ideals(ring, limit=8)
    assert "lattice" not in ring._cache
    assert len(enumerate_ideals(ring)) == 6


@pytest.mark.parametrize("limits", [(32, 4096), (4096, 32)])
def test_arithmetical_memo_is_keyed_by_config(limits):
    base = ZmodRing(8)
    ring = make_trivial_extension(base, free_module(base, 1))[0]
    kinds = {32: "non_principal_ideal_local", 4096: "non_locally_principal_ideal"}
    for limit in limits:
        result = decide_arithmetical(ring, ClassifyConfig(lattice_limit=limit))
        assert result.verdict is False
        assert result.certificate["kind"] == kinds[limit]
