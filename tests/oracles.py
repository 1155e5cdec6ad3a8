"""Test oracles: the unpruned exhaustive Gaussian violation table and the
seeded Dedekind–Mertens audit that the witness searches are checked against,
the Dedekind–Mertens identity on one pair, the pairwise atom and maximal
scans of an ideal lattice, the lattice scan of arithmeticity, local
principality by the kernel-quotient localizations, the localization kernel
by its annihilator definition, the pairwise irreducibility test, the
pairwise locality test, the local-factor records of any ring read from
its own products by the corner scan, the member-product
closure of an ideal product,
affine substitution by powers of the linear form, the hom laws checked one
source element at a time, a hom's kernel, an element's
unit/zerodivisor kind, the zerodivisors and von Neumann regularity by scans
of all n² products, the polynomial at a pinned enumeration index, the
pseudo-arithmetical candidates as a list of polynomials from a full scan of
every coefficient tuple, and F_p[x]/(f) by schoolbook products and trial
division.  No program path calls them."""

from itertools import islice

import numpy as np

from finring.ideals import (Ideal, IdealLattice, LocalFactor,
                            additive_closure_indices, content_calculus,
                            enumerate_ideals, ideal_product, is_local,
                            is_locally_principal, is_principal, localize_at,
                            maximal_ideals, minimal_generators, push_ideal)
from finring.polys import (_PAIR_CHUNK, RingPoly, _convolve_columns, content,
                           decode_poly_block, make_poly, poly_count, poly_mul)
from finring.rings import (CACHE_BLOCK, FiniteRing, RingHom, _scan_witnesses,
                           blocks, element_units, mask_from_indices,
                           unit_partition)


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


def locally_principal_by_localization(ideal: Ideal) -> tuple[bool, dict | None]:
    """Principal after pushing into every localization R_m, each built as
    the quotient by the stable power of m (`localize_at`) and tested by the
    member scan `is_principal`, so it shares none of the corner arithmetic
    of `is_locally_principal`.  A local ring is its own localization.
    Returns (verdict, counterexample) like `is_locally_principal`: the first
    failing maximal ideal, the order of the pushed ideal and the order of
    the localization."""
    ring = ideal.ring
    local = is_local(ring)
    for m in [local] if local is not None else maximal_ideals(ring):
        localized, pushed = ring, ideal
        if local is None:
            localized, hom = localize_at(ring, m)
            pushed = push_ideal(hom, ideal)
        if not is_principal(pushed)[0]:
            return False, {"maximal": m, "pushed_order": pushed.size,
                           "localization_order": localized.order}
    return True, None


def localization_kernel_by_annihilator_scan(ring: FiniteRing,
                                            maximal: Ideal) -> np.ndarray:
    """ker(R → R_m) by its definition, {r : s·r = 0 for some s ∉ m},
    ascending: one product row per element s outside m."""
    outside = np.setdiff1d(np.arange(ring.order), maximal.indices)
    killed = np.zeros(ring.order, dtype=bool)
    cols = np.arange(ring.order, dtype=np.int64)
    for start, stop in blocks(outside.size, ring.order):
        prods = ring.mul_arr(outside[start:stop, None], cols[None, :])
        killed |= (prods == ring.zero).any(axis=0)
    return np.flatnonzero(killed)


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


def local_factors_by_corner_scan(ring: FiniteRing) -> list[LocalFactor]:
    """The local-factor records of any ring, a product too, read from the
    ring's own products as `local_factors` reads a ring that is not a
    product: the units from the n² scan, the nonzero solutions of a² = a
    with no other one below them (e·f = f) as the primitive idempotents,
    and for each e the maximal ideal {r : e·r + (1 − e) is not a unit}
    with its `minimal_generators`, the corner eR, and one product row over
    eR per generator for the residue order, principality, the socle's atom
    count and n² = 0.  Sorted by the (size, mask) of m."""
    n = ring.order
    units = _scan_witnesses(ring)[0]
    idx = np.arange(n, dtype=np.int64)
    idem = idx[(ring.mul_arr(idx, idx) == idx) & (idx != ring.zero)]
    below = ((ring.mul_arr(idem[:, None], idem[None, :]) == idem[None, :])
             & (idem[:, None] != idem[None, :]))
    records = []
    for e in idem[~below.any(axis=1)].tolist():
        image = ring.mul_arr(idx, e)
        complement = ring.add(ring.one, int(ring.neg_arr(e)))
        in_maximal = ~units[ring.add_arr(image, complement)]
        mask = mask_from_indices(np.flatnonzero(in_maximal), n)
        maximal = Ideal(ring, mask, minimal_generators(ring, mask))
        elements = np.unique(image)
        in_n = in_maximal[elements]
        size, n_size = elements.size, int(np.count_nonzero(in_n))
        principal, socle = n_size == 1, np.ones(size, dtype=bool)
        for g in maximal.gens:
            row = ring.mul_arr(elements, ring.mul(e, g))
            socle &= row == ring.zero
            principal |= np.unique(row).size == n_size
        in_socle = int(np.count_nonzero(socle & in_n))
        records.append(LocalFactor(
            maximal, e, mask_from_indices(elements, n), size, size // n_size,
            principal, (in_socle - 1) // (size // n_size - 1),
            in_socle == n_size))
    return sorted(records, key=lambda f: (f.maximal.size, f.maximal.mask))


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


def substituted(f: RingPoly, v: int, c: int) -> RingPoly:
    """f(vx + c) as Σ fᵢ·(vx + c)ⁱ, the powers taken by poly_mul."""
    ring = f.ring
    out = [ring.zero] * len(f.coeffs)
    power = make_poly(ring, [ring.one])
    for a in f.coeffs:
        for k, b in enumerate(power.coeffs):
            out[k] = ring.add(out[k], ring.mul(a, b))
        power = poly_mul(power, make_poly(ring, [c, v]))
    return make_poly(ring, out)


def hom_laws_by_element_scan(hom: RingHom) -> bool:
    """0 ↦ 0, 1 ↦ 1, and the add and mul laws for one source element a
    against every b per step."""
    m, src, tgt = hom.map, hom.source, hom.target
    if m[src.zero] != tgt.zero or m[src.one] != tgt.one:
        return False
    cols = np.arange(src.order, dtype=np.int64)
    for a in range(src.order):
        if not np.array_equal(m[src.add_arr(a, cols)], tgt.add_arr(m[a], m[cols])):
            return False
        if not np.array_equal(m[src.mul_arr(a, cols)], tgt.mul_arr(m[a], m[cols])):
            return False
    return True


def kernel_indices(hom: RingHom) -> np.ndarray:
    """The source elements that the hom sends to zero, ascending."""
    return np.nonzero(hom.map == hom.target.zero)[0]


def element_kind(ring: FiniteRing, a: int) -> str:
    """'unit' or 'zerodivisor' (0 counts as a zerodivisor); in a finite
    commutative ring exactly one holds, and the partition certifies which."""
    return "unit" if unit_partition(ring).units[a] else "zerodivisor"


def zerodivisors_by_product_scan(ring: FiniteRing) -> np.ndarray:
    """Mask of the elements a with a·b = 0 for some b ≠ 0 (0 among them),
    over all n² products in blocks of CACHE_BLOCK pairs."""
    n = ring.order
    idx = np.arange(n, dtype=np.int64)
    zd = np.zeros(n, dtype=bool)
    zd[ring.zero] = True
    nonzero = idx[idx != ring.zero]
    for start, stop in blocks(n, n, CACHE_BLOCK):
        rows = idx[start:stop]
        prods = ring.mul_arr(rows[:, None], nonzero[None, :])
        zd[rows] |= (prods == ring.zero).any(axis=1)
    return zd


def von_neumann_by_quasi_inverse_scan(ring: FiniteRing) -> bool:
    """Every element a has some x with a²·x = a, over all n² products."""
    n = ring.order
    idx = np.arange(n, dtype=np.int64)
    squares = ring.mul_arr(idx, idx)
    for start, stop in blocks(n, n, CACHE_BLOCK):
        rows = idx[start:stop]
        prods = ring.mul_arr(squares[rows][:, None], idx[None, :])
        if not bool((prods == rows[:, None]).any(axis=1).all()):
            return False
    return True


def poly_at_index(ring: FiniteRing, degree: int, index: int) -> RingPoly:
    """The polynomial at `index` among those of exact `degree`, in the
    pinned enumeration order."""
    cols = decode_poly_block(np.arange(ring.order), degree, index, index + 1)
    return make_poly(ring, [int(c[0]) for c in cols])


def generator_layouts_by_full_scan(ring: FiniteRing, ideal: Ideal, degree: int):
    """Every polynomial of exact `degree` with coefficients in the ideal and
    content the ideal, in the pinned order, with no generator-count
    shortcut."""
    calc = content_calculus(ring)
    target = calc.lattice.ideal_id(ideal)
    for start, stop in blocks(poly_count(ideal.size, degree), budget=1 << 16):
        cols = decode_poly_block(ideal.indices, degree, start, stop)
        for h in np.nonzero(calc.content_ids(cols) == target)[0]:
            yield make_poly(ring, [int(c[h]) for c in cols])


def pseudo_candidates_by_full_scan(ring: FiniteRing, degree_bound: int,
                                   cap: int) -> list[RingPoly]:
    """The pseudo-arithmetical candidates as one polynomial each: for every
    lattice ideal that is not locally principal, in lattice order, its first
    `cap` generator layouts of degree 1 to `degree_bound`."""
    out: list[RingPoly] = []
    for ideal in enumerate_ideals(ring).ideals:
        if not is_locally_principal(ideal)[0]:
            layouts = (f for d in range(1, degree_bound + 1)
                       for f in generator_layouts_by_full_scan(ring, ideal, d))
            out += islice(layouts, cap)
    return out


def dedekind_mertens_check(f: RingPoly, g: RingPoly) -> bool:
    """c(f)^m · c(fg) = c(f)^(m+1) · c(g) with m = deg g (0 for constants).

    An unconditional content identity; failure indicates a bug in polynomial
    multiplication, content, or ideal products.
    """
    m = max(g.degree, 0)
    cf = content(f)
    lhs = content(poly_mul(f, g))
    for _ in range(m):
        lhs = ideal_product(lhs, cf)
    rhs = content(g)
    for _ in range(m + 1):
        rhs = ideal_product(rhs, cf)
    return lhs.mask == rhs.mask


def gf_products_by_schoolbook(p: int, modulus, a, b) -> np.ndarray:
    """a·b in F_p[x]/(f) for index arrays a and b (broadcast), f monic with
    coefficients `modulus` (low first, leading 1 included).  An index holds
    the coefficients as base-p digits, low first; the product is taken
    coefficient by coefficient and reduced by long division by f."""
    k = len(modulus) - 1
    da = [np.asarray(a, dtype=np.int64) // p**i % p for i in range(k)]
    db = [np.asarray(b, dtype=np.int64) // p**i % p for i in range(k)]
    prod = [sum(da[i] * db[d - i] for i in range(max(0, d - k + 1), min(d, k - 1) + 1))
            for d in range(2 * k - 1)]
    for d in range(2 * k - 2, k - 1, -1):
        lead = prod[d] % p
        for i in range(k):
            prod[d - k + i] = prod[d - k + i] - lead * modulus[i]
    return sum(prod[i] % p * p**i for i in range(k))


def irreducible_by_trial_division(p: int, coeffs) -> bool:
    """Whether the monic f with `coeffs` (low first, degree >= 1) has no
    monic divisor of degree 1..deg f // 2 over F_p."""
    k = len(coeffs) - 1
    for d in range(1, k // 2 + 1):
        for body in range(p**d):
            divisor = [body // p**i % p for i in range(d)] + [1]
            rem = list(coeffs)
            for top in range(k, d - 1, -1):
                lead = rem[top]
                for i in range(d + 1):
                    rem[top - d + i] = (rem[top - d + i] - lead * divisor[i]) % p
            if not any(rem[:d]):
                return False
    return True
