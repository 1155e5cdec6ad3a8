"""Composed element tables: products, trivial extensions and modules.

Their tables are composed from the factors' tables.  These tests compare
each composed table with the structural evaluation of the same ring over
the full index grid, and each module table with the coordinatewise
formula, and check that no composition falls back to the grid.  A table of
order up to 256 is int64 and a larger one uint16; the tests pin that rule,
and check that every element operation returns intp whatever the storage.
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
from finring.rings import (FiniteModule, FiniteRing, GFRing, ProductRing,
                           TrivialExtensionRing, ZmodRing, free_module,
                           module_sum, standard_gf)
from finring.specfile import build_target, parse_ring_spec

from oracles import gf_products_by_schoolbook

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
    """Each table equals its expected values, is C-contiguous, and has the
    dtype of its order (the length of its last axis): int64 up to 256
    elements, uint16 above."""
    for table, want in zip(tables, expected, strict=True):
        order = table.shape[-1]
        assert table.dtype == (np.int64 if order <= 256 else np.uint16), order
        assert table.flags.c_contiguous
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
    for i, column in enumerate(columns):
        cadd, cneg, cact = (np.asarray(t, dtype=np.int64) for t in column)
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


# ------------------------------------------------ narrow tables, intp results

GF1024 = (1, 0, 0, 1, 0, 0, 0, 0, 0, 0, 1)   # x^10 + x^3 + 1 over F2


def _self_extension(n: int) -> TrivialExtensionRing:
    base = ZmodRing(n)
    return TrivialExtensionRing(base, free_module(base, 1))


def _index_args(rows: int, cols: int, seed: int) -> list:
    """A scalar pair, a 1-D pair and a broadcast 2-D pair of indices, the
    first of each pair below `rows` and the second below `cols`."""
    rng = np.random.default_rng(seed)
    a, b = rng.integers(0, rows, size=300), rng.integers(0, cols, size=300)
    return [(int(a[0]), int(b[0])), (a, b), (a[:40, None], b[None, :50])]


def _assert_intp(got, want):
    """`got` is intp (an array for array indices) and equals `want`."""
    assert np.asarray(got).dtype == np.intp
    assert np.ndim(got) == np.ndim(want)
    assert np.array_equal(got, want)


@pytest.mark.parametrize("build", [lambda: _self_extension(31),
                                   lambda: ProductRing(ZmodRing(32), ZmodRing(16))],
                         ids=["Z31_trivext_Z31", "Z32_x_Z16"])
def test_narrow_ring_ops_return_intp(build):
    ring = build()
    assert [t.dtype for t in ring._tables] == [np.uint16] * 3
    for a, b in _index_args(ring.order, ring.order, seed=ring.order):
        _assert_intp(ring.add_arr(a, b), ring._add_impl(a, b))
        _assert_intp(ring.mul_arr(a, b), ring._mul_impl(a, b))
        _assert_intp(ring.neg_arr(a), ring._neg_impl(a))
    a, b = _index_args(ring.order, ring.order, seed=1)[0]
    assert type(ring.add(a, b)) is int and ring.add(a, b) == ring._add_impl(a, b)
    assert type(ring.mul(a, b)) is int and ring.mul(a, b) == ring._mul_impl(a, b)


def test_narrow_field_ops_return_intp():
    field = GFRing(2, 10, GF1024)
    assert [t.dtype for t in field._tables] == [np.uint16] * 3
    for a, b in _index_args(1024, 1024, seed=2):
        _assert_intp(field.add_arr(a, b), np.bitwise_xor(a, b))
        _assert_intp(field.mul_arr(a, b), gf_products_by_schoolbook(2, GF1024, a, b))
        _assert_intp(field.neg_arr(a), np.asarray(a))      # -a = a in characteristic 2
    a, b = _index_args(1024, 1024, seed=3)[0]
    assert type(field.add(a, b)) is int and field.add(a, b) == a ^ b
    assert type(field.mul(a, b)) is int
    assert field.mul(a, b) == gf_products_by_schoolbook(2, GF1024, a, b)


def test_narrow_module_ops_return_intp():
    module = free_module(ZmodRing(4), 5)
    assert [t.dtype for t in (module._madd, module._mneg, module._act)] == [np.uint16] * 3

    def coords(x):
        return [np.asarray(x) // 4**i % 4 for i in range(5)]

    def index(cs):
        return sum(c % 4 * 4**i for i, c in enumerate(cs))

    for e, f in _index_args(1024, 1024, seed=4):
        _assert_intp(module.madd_arr(e, f), index(x + y for x, y in zip(coords(e), coords(f))))
        _assert_intp(module.mneg_arr(e), index(-x for x in coords(e)))
    for a, e in _index_args(4, 1024, seed=5):
        _assert_intp(module.act_arr(a, e), index(np.asarray(a) * x for x in coords(e)))


@pytest.mark.parametrize("m", [1024, 3])
def test_structural_rings_over_narrow_factors(m):
    """Z1024 ∝ Z1024 (m = 1024) and Z1024 × Z3 (m = 3) have no tables and
    evaluate through Z1024's uint16 table; sampled pairs against the
    integer formulas on indices a·m + e."""
    z1024 = ZmodRing(1024)
    assert z1024._tables[1].dtype == np.uint16
    ring = (_self_extension(1024) if m == 1024 else ProductRing(z1024, ZmodRing(3)))
    assert ring._tables is None
    i, j = np.random.default_rng(m).integers(0, ring.order, size=(2, 2000))
    (a, e), (b, f) = divmod(i, m), divmod(j, m)
    times = (a * f + b * e) % m if m == 1024 else e * f % m
    _assert_intp(ring.add_arr(i, j), (a + b) % 1024 * m + (e + f) % m)
    _assert_intp(ring.mul_arr(i, j), a * b % 1024 * m + times)
    _assert_intp(ring.neg_arr(i), -a % 1024 * m + -e % m)
    x, y = int(i[0]), int(j[0])
    assert type(ring.mul(x, y)) is int and ring.mul(x, y) == ring.mul_arr(i, j)[0]


def test_table_widths(corpus_rings):
    """Z31 ∝ Z31 (order 961) stores 2 bytes per table entry; every default
    corpus ring (order <= 64) stores 8."""
    ring = _self_extension(31)
    assert [t.nbytes for t in ring._tables] == [2 * 961 * 961, 2 * 961 * 961, 2 * 961]
    tabled = [r for r in corpus_rings if r._tables is not None]
    assert len(tabled) == len(corpus_rings)
    assert {t.itemsize for r in tabled for t in r._tables} == {8}
