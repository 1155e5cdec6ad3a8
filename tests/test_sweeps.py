"""The orbit sweeps of the ring and ideal layers against brute-force oracles.

`principal_ideal_masks` takes one product row per associate class, and the
same sweep files each class's least element (`associate_leaders`);
`coset_minima` sweeps a chain of subgroups.  Here each is compared with the
full scan it replaces, written out in the test, and their operation counts
are bounded."""

import json
from pathlib import Path

import numpy as np

from finring.corpus import CorpusConfig, generate_corpus
from finring.ideals import (coset_minima, enumerate_ideals, ideal_generated_by,
                            indices_from_mask, localize_at, make_quotient,
                            mask_from_indices, maximal_ideals,
                            principal_ideal_masks)
from finring.rings import (ProductRing, TrivialExtensionRing, ZmodRing,
                           associate_leaders, element_units, free_module,
                           standard_gf)

from oracles import kernel_indices

LATTICE_GENS = Path(__file__).resolve().parent / "fixtures" / "lattice_gens.json"


def _gf16_idealization():
    gf16 = standard_gf(2, 4)
    return TrivialExtensionRing(gf16, free_module(gf16, 2))


def _z2_power_four():
    z2 = ZmodRing(2)
    return ProductRing(ProductRing(z2, z2), ProductRing(z2, z2))


def _scanned_principal_masks(ring):
    """R·a for every a, from all n² products, 256 rows at a time."""
    n = ring.order
    cols = np.arange(n, dtype=np.int64)
    masks = []
    for start in range(0, n, 256):
        rows = cols[start:start + 256]
        prods = ring.mul_arr(rows[:, None], cols[None, :])
        masks += [mask_from_indices(row, n) for row in prods]
    return masks


def _scanned_coset_minima(ring, idx):
    """min(x + I) for every x, from all n·|I| sums."""
    cols = np.arange(ring.order, dtype=np.int64)
    return ring.add_arr(cols[:, None], idx[None, :]).min(axis=1)


def _counting(monkeypatch, ring, op):
    """Patch ring.<op> to record the number of elements of each call."""
    seen = []
    real = getattr(ring, op)

    def counted(*args):
        out = real(*args)
        seen.append(int(np.size(out)))
        return out

    monkeypatch.setattr(ring, op, counted)
    return seen


def test_associate_leaders_match_orbit_minima(corpus_rings):
    rings = [r for r in corpus_rings if r.order <= 64]
    assert len(rings) == 170
    for ring in rings + [_gf16_idealization(), _z2_power_four()]:
        units = np.flatnonzero(element_units(ring))
        minima = [int(ring.mul_arr(units, a).min()) for a in range(ring.order)]
        assert associate_leaders(ring).tolist() == minima, ring.name


def test_leaders_come_with_the_principal_masks(monkeypatch):
    # one sweep files both, so asking for the leaders first leaves the
    # principal ideals no products to compute
    ring = _gf16_idealization()
    element_units(ring)
    seen = _counting(monkeypatch, ring, "mul_arr")
    leader = associate_leaders(ring)
    principal_ideal_masks(ring)
    assert len(seen) == 19 and sum(seen) <= 19 * ring.order
    assert np.count_nonzero(leader == np.arange(ring.order)) == 19


def test_principal_masks_match_product_scan(corpus_rings):
    rings = [r for r in corpus_rings if r.order <= 64]
    assert len(rings) == 170
    # one unit only in Z/2⁴, so every associate class is a singleton
    for ring in rings + [_gf16_idealization(), _z2_power_four()]:
        assert principal_ideal_masks(ring) == _scanned_principal_masks(ring), \
            ring.name


def test_principal_masks_one_row_per_associate_class(monkeypatch):
    # GF16 ∝ GF16² has 19 associate classes: 0, the units, and one per line
    # of GF16² (the elements (0, e) up to a scalar)
    ring = _gf16_idealization()
    element_units(ring)
    seen = _counting(monkeypatch, ring, "mul_arr")
    masks = principal_ideal_masks(ring)
    assert len(seen) == 19 and sum(seen) <= 19 * ring.order
    assert len(set(masks)) == 19


def test_coset_minima_match_sum_scan():
    fixture = json.loads(LATTICE_GENS.read_text(encoding="utf-8"))
    rings = generate_corpus(CorpusConfig(max_order=16))
    assert sorted(r.name for r in rings) == sorted(fixture)
    for ring in rings:
        n = ring.order
        for mask, _gens in fixture[ring.name]:
            idx = indices_from_mask(int(mask, 16), n)
            assert np.array_equal(coset_minima(ring, idx),
                                  _scanned_coset_minima(ring, idx)), ring.name
        for m in maximal_ideals(ring):
            kernel = kernel_indices(localize_at(ring, m)[1])
            assert np.array_equal(coset_minima(ring, kernel),
                                  _scanned_coset_minima(ring, kernel)), ring.name
    # generator orders 3, 9 and 27, none a power of two, take up to five
    # doubling windows each
    z27 = ZmodRing(27)
    ring = TrivialExtensionRing(z27, free_module(z27, 1))
    for ideal in enumerate_ideals(ring).ideals:
        assert np.array_equal(coset_minima(ring, ideal.indices),
                              _scanned_coset_minima(ring, ideal.indices))
    # Z11 ∝ Z11² (order 1,331) has no tables, so 0 ∝ E is swept with
    # structural additions
    z11 = ZmodRing(11)
    ring = TrivialExtensionRing(z11, free_module(z11, 2))
    assert ring._tables is None
    ext = np.arange(11 * 11, dtype=np.int64)
    assert np.array_equal(coset_minima(ring, ext), _scanned_coset_minima(ring, ext))


def test_quotient_by_extension_ideal_sweeps_two_generators(monkeypatch):
    # Z31 ∝ Z31²: the cosets of 0 ∝ E are the blocks of 961 consecutive
    # indices; the sweep takes ⌈log₂ 31⌉ = 5 doubling windows of n for each
    # of E's two generators, and the quotient adds its own 31² table
    z31 = ZmodRing(31)
    ring = TrivialExtensionRing(z31, free_module(z31, 2))
    n, m = ring.order, 31 * 31
    ext_ideal = ideal_generated_by(ring, range(m))
    assert ext_ideal.mask == (1 << m) - 1
    seen = _counting(monkeypatch, ring, "add_arr")
    quotient, proj = make_quotient(ring, ext_ideal)
    assert np.array_equal(quotient.reps, np.arange(0, n, m))
    assert np.array_equal(proj.map, np.arange(n) // m)
    assert sum(seen) <= 10 * n + 31 * 31
