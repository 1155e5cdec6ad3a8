"""Composed element tables: products, trivial extensions and modules.

Their tables are composed from the factors' tables.  These tests compare
each composed table with the structural evaluation of the same ring over
the full index grid, and each module table with the coordinatewise
formula, and check that no composition falls back to the grid.
"""

from pathlib import Path

import numpy as np
import pytest

from finring import rings
from finring.corpus import CorpusConfig, generate_corpus
from finring.errors import RingBuildError
from finring.harness import (DEFAULT_DIMENSIONS, build_residue_idealization,
                             default_local_bases)
from finring.ideals import is_local, quotient_module, residue_vector_space
from finring.rings import (FiniteModule, FiniteRing, ProductRing,
                           TrivialExtensionRing, ZmodRing, free_module,
                           module_sum, standard_gf)
from finring.specfile import build_target, parse_ring_spec

SPECS = Path(__file__).resolve().parents[1] / "perfbench" / "specs"


def _composites(roots) -> list[FiniteRing]:
    """Every tabled product and trivial extension among roots and the
    rings they are built from."""
    seen: dict[int, FiniteRing] = {}
    stack = list(roots)
    while stack:
        ring = stack.pop()
        if id(ring) in seen:
            continue
        seen[id(ring)] = ring
        stack.extend(getattr(ring, attr) for attr in ("left", "right", "base_ring", "parent")
                     if hasattr(ring, attr))
    return [r for r in seen.values() if r._tables is not None
            and isinstance(r, (ProductRing, TrivialExtensionRing))]


def _assert_tables(tables, expected):
    for table, want in zip(tables, expected, strict=True):
        assert table.dtype == np.int64 and table.flags.c_contiguous
        assert np.array_equal(table, want)


def _assert_structural(ring: FiniteRing):
    idx = np.arange(ring.order, dtype=np.int64)
    _assert_tables(ring._tables, (ring._add_impl(idx[:, None], idx[None, :]),
                                  ring._mul_impl(idx[:, None], idx[None, :]),
                                  ring._neg_impl(idx)))


def _spec_ring(path: Path) -> FiniteRing:
    return build_target(parse_ring_spec(path.read_text()))


@pytest.mark.parametrize("roots", [
    pytest.param(lambda: generate_corpus(CorpusConfig(max_order=256)), id="corpus256"),
    pytest.param(lambda: [build_residue_idealization(base, n)
                          for base in default_local_bases()
                          for n in DEFAULT_DIMENSIONS], id="residue_idealizations"),
    pytest.param(lambda: [_spec_ring(p) for p in sorted(SPECS.glob("*.ring"))],
                 id="large_classify_specs"),
])
def test_composed_ring_tables_match_structural_evaluation(roots):
    composites = _composites(roots())
    assert any(isinstance(r, TrivialExtensionRing) for r in composites)
    for ring in composites:
        _assert_structural(ring)


def _coordinatewise(columns) -> tuple:
    """(madd, mneg, act) of the direct sum of `columns`, each a (madd, mneg,
    act) triple, evaluated one big-endian coordinate at a time."""
    radices = [len(mneg) for _, mneg, _ in columns]
    order = int(np.prod(radices))
    idx = np.arange(order, dtype=np.int64)
    madd = np.zeros((order, order), dtype=np.int64)
    mneg = np.zeros(order, dtype=np.int64)
    act = np.zeros((columns[0][2].shape[0], order), dtype=np.int64)
    for i, (cadd, cneg, cact) in enumerate(columns):
        w = int(np.prod(radices[i + 1:]))
        d = (idx // w) % radices[i]
        madd += cadd[d[:, None], d[None, :]] * w
        mneg += cneg[d] * w
        act += cact[:, d] * w
    return madd, mneg, act


def _module_tables(module: FiniteModule) -> tuple:
    return module._madd, module._mneg, module._act


def _ranks(build):
    """Modules build(k) for k = 1, 2, ... up to the module bound."""
    k = 1
    while True:
        try:
            yield k, build(k)
        except RingBuildError:
            return
        k += 1


@pytest.mark.parametrize("n", range(4, 28))
def test_module_tables_match_the_coordinatewise_formula(n):
    base = ZmodRing(n)
    add, mul, neg = base._tables
    for k, module in _ranks(lambda k: free_module(base, k)):
        _assert_tables(_module_tables(module), _coordinatewise([(add, neg, mul)] * k))
    maximal = is_local(base)
    if maximal is None or maximal.is_zero():
        return
    column = _module_tables(quotient_module(base, maximal))
    for k, module in _ranks(lambda k: residue_vector_space(base, maximal, k)):
        _assert_tables(_module_tables(module), _coordinatewise([column] * k))
    mixed = module_sum(free_module(base, 1), quotient_module(base, maximal))
    _assert_tables(_module_tables(mixed), _coordinatewise([(add, neg, mul), column]))


def test_tabled_builds_make_no_grid_evaluation(monkeypatch):
    """Composing a table reads the factors' tables; it never evaluates an
    element operation over the n x n grid of the object being built."""
    z4, z8, gf4 = ZmodRing(4), ZmodRing(8), standard_gf(2, 2)
    free2, free1 = free_module(z8, 2), free_module(z8, 1)
    ext = TrivialExtensionRing(z8, free1)
    ext4 = TrivialExtensionRing(z4, free_module(z4, 1))
    over_ext4 = free_module(ext4, 1)
    calls = []

    def spy(cls, name):
        real = getattr(cls, name)
        monkeypatch.setattr(cls, name, lambda self, *args: calls.append(
            (name, np.broadcast(*args).size)) or real(self, *args))

    for cls, names in ((FiniteRing, ("add_arr", "mul_arr", "neg_arr")),
                       (FiniteModule, ("madd_arr", "mneg_arr", "act_arr"))):
        for name in names:
            spy(cls, name)
    builds = [
        lambda: ProductRing(z8, ext),
        lambda: ProductRing(gf4, z8),
        lambda: TrivialExtensionRing(z8, free2),
        lambda: TrivialExtensionRing(ext4, over_ext4),
        lambda: free_module(z8, 3),
        lambda: module_sum(free2, free1),
    ]
    for build in builds:
        calls.clear()
        built = build()
        n = built.order
        assert n <= rings.TABLE_LIMIT
        assert [c for c in calls if c[1] >= n * n] == [], built
