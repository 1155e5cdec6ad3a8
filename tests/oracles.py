"""Test oracles: the unpruned exhaustive Gaussian violation table and the
seeded Dedekind–Mertens audit that the witness searches are checked against,
the pairwise atom and maximal scans of an ideal lattice, the lattice scan of
arithmeticity, the pairwise irreducibility test, the pairwise locality test,
and the member-product closure of an ideal product.  No program path calls
them."""

import numpy as np

from finring.ideals import (Ideal, IdealLattice, additive_closure_indices,
                            content_calculus, enumerate_ideals,
                            is_locally_principal)
from finring.polys import (_PAIR_CHUNK, _convolve_columns, decode_poly_block,
                           poly_count)
from finring.rings import FiniteRing, blocks, element_units, mask_from_indices


def atoms_by_pairwise_scan(lattice: IdealLattice) -> list:
    """Nonzero proper ideals with no other nonzero proper ideal inside."""
    nonzero_proper = [i for i in lattice.ideals
                      if i.is_proper() and not i.is_zero()]
    return [i for i in nonzero_proper
            if not any(j.mask != i.mask and (j.mask & i.mask) == j.mask
                       for j in nonzero_proper)]


def maximals_by_pairwise_scan(lattice: IdealLattice) -> list:
    """Proper ideals with no other proper ideal above."""
    proper = [i for i in lattice.ideals if i.is_proper()]
    return [i for i in proper
            if not any(j.mask != i.mask and (j.mask | i.mask) == j.mask
                       for j in proper)]


def arithmetical_by_lattice_scan(ring: FiniteRing) -> bool:
    """The definition: every ideal of the lattice is locally principal."""
    return all(is_locally_principal(ideal)[0]
               for ideal in enumerate_ideals(ring).ideals)


def is_irreducible(ideal: Ideal) -> bool:
    """No pair J, K strictly above I with J ∩ K = I."""
    lattice = enumerate_ideals(ideal.ring)
    above = [j for j in lattice.ideals
             if j.mask != ideal.mask and (j.mask & ideal.mask) == ideal.mask]
    for p, j in enumerate(above):
        for k in above[p + 1:]:
            if (j.mask & k.mask) == ideal.mask:
                return False
    return True


def product_mask_by_member_closure(i: Ideal, j: Ideal) -> int:
    """Mask of I·J as the additive closure of every product x·y with x ∈ I
    and y ∈ J: |I|·|J| products, read from no generator list."""
    ring = i.ring
    prods = ring.mul_arr(i.indices[:, None], j.indices[None, :]).ravel()
    return mask_from_indices(additive_closure_indices(ring, prods), ring.order)


def nonunit_mask_by_pairwise_sums(ring: FiniteRing) -> int | None:
    """Mask of the non-units when every sum of two of them is a non-unit
    (the ring is local), else None; |N|² additions."""
    units = element_units(ring)
    nonunits = np.flatnonzero(~units)
    for start, stop in blocks(nonunits.size, nonunits.size):
        if units[ring.add_arr(nonunits[start:stop, None], nonunits[None, :])].any():
            return None
    return mask_from_indices(nonunits, ring.order)


def dedekind_mertens_random_audit(ring: FiniteRing, pairs: int, seed: int,
                                  max_degree: int = 2) -> int:
    """Number of Dedekind–Mertens failures over `pairs` seeded random (f, g).

    Coefficients are drawn uniformly (so actual degrees vary); pairs are
    grouped by the degree of g and checked vectorised over ideal ids.
    """
    rng = np.random.default_rng(seed)
    calc = content_calculus(ring)
    n = ring.order
    width = max_degree + 1
    f_raw = rng.integers(0, n, size=(pairs, width), dtype=np.int64)
    g_raw = rng.integers(0, n, size=(pairs, width), dtype=np.int64)

    def degrees(mat):
        nz = mat != 0
        deg = np.full(pairs, -1, dtype=np.int64)
        for j in range(width):
            deg[nz[:, j]] = j
        return deg

    f_deg, g_deg = degrees(f_raw), degrees(g_raw)
    failures = 0
    for df in range(-1, width):
        for dg in range(-1, width):
            sel = np.nonzero((f_deg == df) & (g_deg == dg))[0]
            if sel.size == 0:
                continue
            m = max(dg, 0)
            f_cols = [f_raw[sel, j] for j in range(max(df, 0) + 1)]
            g_cols = [g_raw[sel, j] for j in range(max(dg, 0) + 1)]
            if df < 0:
                cf = np.full(sel.size, calc.zero_id, dtype=np.int64)
                cfg = cf.copy()
            else:
                cf = calc.content_ids(f_cols)
                if dg < 0:
                    cfg = np.full(sel.size, calc.zero_id, dtype=np.int64)
                else:
                    cfg = calc.content_ids(_convolve_columns(ring, f_cols, g_cols))
            cg = (np.full(sel.size, calc.zero_id, dtype=np.int64) if dg < 0
                  else calc.content_ids(g_cols))
            lhs = cfg
            for _ in range(m):
                lhs = calc.prod_ids(lhs, cf)
            rhs = cg
            for _ in range(m + 1):
                rhs = calc.prod_ids(rhs, cf)
            failures += int(np.count_nonzero(lhs != rhs))
    return failures


def gaussian_violation_table(ring: FiniteRing, f_degree: int, g_degree: int):
    """For every nonzero f of degree ≤ f_degree, the first violating g of
    degree ≤ g_degree, reported as (f_degree, f_index, hit) with hit either
    None or (g_degree, g_index).  This is the unpruned exhaustive oracle the
    certificate audits compare against."""
    n = ring.order
    calc = content_calculus(ring)
    results: list[tuple[int, int, tuple[int, int] | None]] = []
    for df in range(f_degree + 1):
        for fs, fe in blocks(poly_count(n, df), n, 4096):
            rows = fe - fs
            f_cols = decode_poly_block(np.arange(n), df, fs, fe)
            cf = calc.content_ids(f_cols)
            first: list[tuple[int, int] | None] = [None] * rows
            for dg in range(g_degree + 1):
                for gs, ge in blocks(poly_count(n, dg), rows, _PAIR_CHUNK):
                    g_cols = decode_poly_block(np.arange(n), dg, gs, ge)
                    expected = calc.prod_ids(cf[:, None],
                                             calc.content_ids(g_cols)[None, :])
                    actual = calc.content_ids(_convolve_columns(
                        ring, [c[:, None] for c in f_cols],
                        [c[None, :] for c in g_cols]))
                    bad = actual != expected
                    for r in np.nonzero(bad.any(axis=1))[0]:
                        if first[int(r)] is None:
                            col = int(np.argmax(bad[int(r)]))
                            first[int(r)] = (dg, gs + col)
            for k, hit in enumerate(first):
                results.append((df, fs + k, hit))
    return results
