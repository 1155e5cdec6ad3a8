"""Polynomial content calculus: multiplication, Dedekind–Mertens, Gaussian
certification, and the exhaustive violation oracle they are audited against."""

import importlib

import numpy as np
import pytest

from finring import ideals, polys
from finring.classify import ClassifyConfig
from finring.errors import BoundExceededError, ConsistencyError, RingBuildError
from finring.ideals import (ContentCalculus, content_calculus,
                            has_square_zero_maximal, ideal_generated_by,
                            ideal_product, indices_from_mask, is_local,
                            is_principal, local_factors, residue_vector_space)
from finring.polys import (RingPoly, certify_gaussian, content,
                           cumulative_poly_count, gaussian_witness_search,
                           make_poly, poly_count, poly_from_literals, poly_mul,
                           ring_gaussian_refutation_search)
from finring.rings import (ProductRing, TrivialExtensionRing, ZmodRing,
                           element_units, free_module, standard_gf)
from oracles import (dedekind_mertens_check, dedekind_mertens_random_audit,
                     gaussian_violation_table, poly_at_index, substituted)


def _residue_idealization(order: int, dim: int = 1):
    base = ZmodRing(order)
    module = residue_vector_space(base, is_local(base), dim)
    return TrivialExtensionRing(base, module)


def _self_idealization(order: int):
    base = ZmodRing(order)
    return TrivialExtensionRing(base, free_module(base, 1))


def _contents_agree(f: RingPoly, g: RingPoly) -> bool:
    """c(fg) = c(f)c(g), compared as ideal masks."""
    return (content(poly_mul(f, g)).mask
            == ideal_product(content(f), content(g)).mask)


# ---------------------------------------------------------------- arithmetic


def test_poly_mul_frozen():
    z4 = ZmodRing(4)
    f = poly_from_literals(z4, [1, 2, 3])
    g = poly_from_literals(z4, [2, 1])
    # (1 + 2x + 3x^2)(2 + x) = 2 + 5x + 8x^2 + 3x^3 = 2 + x + 3x^3 mod 4
    assert poly_mul(f, g).coeffs == (2, 1, 0, 3)
    assert poly_mul(f, g).degree == 3


def test_poly_mul_requires_same_ring():
    f = poly_from_literals(ZmodRing(4), [1])
    g = poly_from_literals(ZmodRing(8), [1])
    with pytest.raises(RingBuildError):
        poly_mul(f, g)


def test_content_frozen():
    z12 = ZmodRing(12)
    f = poly_from_literals(z12, [4, 6])
    assert sorted(content(f).indices.tolist()) == [0, 2, 4, 6, 8, 10]
    zero = make_poly(z12, [])
    assert content(zero).size == 1


# ---------------------------------------------------------------- enumeration order


def test_poly_enumeration_pinned():
    z4 = ZmodRing(4)
    assert poly_count(4, 0) == 3            # nonzero constants
    assert poly_count(4, 1) == 12           # leading in {1,2,3}, constant free
    assert cumulative_poly_count(4, 1) == 15
    # constant coefficient varies fastest, leading coefficient slowest
    assert poly_at_index(z4, 1, 0).coeffs == (0, 1)
    assert poly_at_index(z4, 1, 1).coeffs == (1, 1)
    assert poly_at_index(z4, 1, 4).coeffs == (0, 2)
    assert poly_at_index(z4, 0, 2).coeffs == (3,)


# ---------------------------------------------------------------- Dedekind–Mertens


def test_dedekind_mertens_frozen_pair():
    z4 = ZmodRing(4)
    f = poly_from_literals(z4, [2, 2])
    g = poly_from_literals(z4, [2, 0, 2])
    assert dedekind_mertens_check(f, g)


@pytest.mark.parametrize("build", [
    lambda: ZmodRing(8),
    lambda: standard_gf(2, 3),
    lambda: _residue_idealization(4),
    lambda: _self_idealization(4),
])
def test_dedekind_mertens_random_audit_zero_failures(build):
    assert dedekind_mertens_random_audit(build(), 2000, seed=7) == 0


# ---------------------------------------------------------------- certification


def test_square_zero_maximal_rule_scope():
    assert has_square_zero_maximal(_residue_idealization(4))
    assert not has_square_zero_maximal(_self_idealization(4))
    assert not has_square_zero_maximal(ZmodRing(6))      # not local
    assert not has_square_zero_maximal(ZmodRing(8))      # M^2 != 0


def test_square_zero_maximal_matches_all_products(corpus_rings):
    # each factor's n² = 0 is read from its socle; the oracle multiplies
    # every pair of members of n = m ∩ eR, on every factor of every ring
    non_local = 0
    for ring in corpus_rings:
        factors = local_factors(ring)
        for f in factors:
            idx = indices_from_mask(f.maximal.mask & f.corner, ring.order)
            every = bool(np.all(ring.mul_arr(idx[:, None], idx[None, :])
                                == ring.zero))
            assert f.square_zero == every, ring.name
        # the rule asks a local ring, whose one factor is the ring itself
        assert has_square_zero_maximal(ring) == (len(factors) == 1 and every)
        non_local += len(factors) > 1
    assert non_local > 0


def test_certify_unit_content_and_zero():
    z8 = ZmodRing(8)
    unit = certify_gaussian(poly_from_literals(z8, [3, 2]))
    assert unit.status == "certified" and unit.reason == "unit_content"
    zero = certify_gaussian(make_poly(z8, []))
    assert zero.status == "certified" and zero.reason == "zero_polynomial"


def test_certify_gaussian_on_residue_idealization():
    # f = (2,0) + (0,1)x has proper, non-principal content yet is Gaussian:
    # the ring is local with square-zero maximal ideal.
    ext = _residue_idealization(4)
    f = poly_from_literals(ext, [(2, 0), (0, 1)])
    assert sorted(content(f).indices.tolist()) != [0]
    assert content(f).size == 4
    assert not is_principal(content(f))[0]
    verdict = certify_gaussian(f, degree_bound=3)
    assert verdict.status == "certified"
    assert verdict.reason == "local_square_zero_maximal"
    assert gaussian_witness_search(f, 3) is None


def test_certify_gaussian_refutation_frozen():
    # Over Z/4 idealized by itself the same coefficient pattern fails:
    # g = f itself gives c(fg) strictly inside c(f)c(g).
    ext = _self_idealization(4)
    f = poly_from_literals(ext, [(2, 0), (0, 1)])
    verdict = certify_gaussian(f, degree_bound=3)
    assert verdict.status == "refuted"
    g = verdict.witness
    assert isinstance(g, RingPoly)
    lhs = content(poly_mul(f, g))
    rhs_gens = [int(ext.mul_arr(a, b))
                for a in f.coeffs for b in g.coeffs]
    rhs = ideal_generated_by(ext, rhs_gens)
    assert lhs.mask != rhs.mask and lhs.mask & rhs.mask == lhs.mask


def test_certify_accepts_ring_level_certificate():
    ext = _residue_idealization(4)
    f = poly_from_literals(ext, [(2, 0), (0, 1)])
    verdict = certify_gaussian(f, degree_bound=0, ring_gaussian_certified=True)
    assert verdict.status == "certified"


def test_certify_bounded_when_search_exhausts():
    # Proper-content polynomial over a non-Gaussian ring with no violating g
    # at low degree: the verdict must stay bounded, not flip to certified.
    ext = _self_idealization(4)
    f = poly_from_literals(ext, [(0, 1)])
    verdict = certify_gaussian(f, degree_bound=1)
    assert verdict.status in ("bounded", "refuted")
    if verdict.status == "bounded":
        assert verdict.bound is not None and verdict.bound >= 0


def test_affordable_degree_matches_the_full_scan():
    def full_scan(n, degree_bound, cap):
        return max([-1] + [d for d in range(degree_bound + 1)
                           if cumulative_poly_count(n, d) <= cap])

    for n in (1, 2, 3, 4, 9):
        for degree_bound in range(-1, 7):
            for cap in (0, 1, 2, 5, 15, 100, 1_000, 10**6):
                assert (polys.affordable_degree(n, degree_bound, cap)
                        == full_scan(n, degree_bound, cap)), (n, degree_bound, cap)


# ---------------------------------------------------------------- ring-level search


def test_ring_refutation_search_frozen():
    ring = _self_idealization(4)
    hit, exhausted, checked = ring_gaussian_refutation_search(
        ring, local_factors(ring)[0], 3)
    assert hit is not None
    f, g = hit
    lhs = content(poly_mul(f, g))
    ext = f.ring
    rhs = ideal_generated_by(
        ext, [int(ext.mul_arr(a, b)) for a in f.coeffs for b in g.coeffs])
    assert lhs.mask != rhs.mask
    assert checked > 0


def test_ring_refutation_search_clean_on_gaussian_ring():
    ring = ZmodRing(8)
    hit, exhausted, checked = ring_gaussian_refutation_search(
        ring, local_factors(ring)[0], 2)
    assert hit is None
    assert exhausted >= 2


def _spy_candidate_degrees(monkeypatch) -> list[int]:
    """Degrees whose candidate table the pair search decodes, in call order."""
    degrees: list[int] = []
    original = polys._proper_content_candidates

    def spy(calc, nonunits, degree):
        degrees.append(degree)
        return original(calc, nonunits, degree)

    monkeypatch.setattr(polys, "_proper_content_candidates", spy)
    return degrees


def test_pair_search_decodes_only_the_degrees_it_reads(monkeypatch):
    # Z8 ∝ Z8 violates at total degree 2, in its (1, 1) pairs: the pairs
    # with a constant factor are counted, not decoded, and the 1,015,808
    # degree-3 candidates are never decoded; pair and witness frozen at
    # eager tables.  The count is the pairs up to and including the hit,
    # row 8 and column 8 of the 992 × 992 (1, 1) pairs:
    # 1,046,529 + 8·992 + 8 + 1
    degrees = _spy_candidate_degrees(monkeypatch)
    ring = _self_idealization(8)
    hit, exhausted, checked = ring_gaussian_refutation_search(
        ring, local_factors(ring)[0], 3)
    assert [p.coeffs for p in hit] == [(16, 1), (16, 1)]
    assert exhausted is None and checked == 1_054_474
    assert set(degrees) == {1}


@pytest.mark.parametrize("order, pair_cap, frozen, decoded", [
    (8, 1_000, (0, 961), set()),          # degrees 1..3 do not fit
    (8, 100_000, (0, 62_465), set()),     # degree 3 does not fit
    (4, 500, (0, 49), set()),             # degrees 2 and 3 do not fit
])
def test_pair_search_budget_counted_up_front(monkeypatch, order, pair_cap,
                                             frozen, decoded):
    # (exhausted degree, pairs_checked) frozen at eager tables
    degrees = _spy_candidate_degrees(monkeypatch)
    ring = _self_idealization(order)
    hit, exhausted, checked = ring_gaussian_refutation_search(
        ring, local_factors(ring)[0], 3, pair_cap)
    assert hit is None
    assert (exhausted, checked) == frozen
    assert set(degrees) == decoded


def test_pair_search_stops_counting_at_the_first_unaffordable_degree():
    # a degree bound far past the budget searches what degree 3 searched
    ring = _self_idealization(8)
    assert ring_gaussian_refutation_search(
        ring, local_factors(ring)[0], 100_000, 100_000) == (None, 0, 62_465)


def test_pair_search_cap_below_first_degree_raises():
    ring = _self_idealization(4)
    with pytest.raises(BoundExceededError):
        ring_gaussian_refutation_search(ring, local_factors(ring)[0], 3, 100)


def test_pair_search_counts_constant_factor_pairs(monkeypatch):
    # Z25 ∝ Z25 at the default bounds: the 3,859,376 pairs of total degree
    # ≤ 1 all have a constant factor, and the (0, 2) pairs do not fit the
    # budget, so nothing is decoded or convolved
    degrees = _spy_candidate_degrees(monkeypatch)
    convolutions = []
    convolve = polys._convolve_columns

    def spy(ring, f_cols, g_cols):
        convolutions.append(len(f_cols))
        return convolve(ring, f_cols, g_cols)

    monkeypatch.setattr(polys, "_convolve_columns", spy)
    config = ClassifyConfig()
    ring = _self_idealization(25)
    result = ring_gaussian_refutation_search(
        ring, local_factors(ring)[0], config.degree_bound, config.pair_cap)
    assert result == (None, 0, 3_859_376)
    assert degrees == [] and convolutions == []


def _one_block_per_degree(monkeypatch):
    """Make the searches evaluate each degree in one block."""
    monkeypatch.setattr(polys, "blocks", lambda count, width=1, budget=0,
                        grow=False: [(0, count)] if count else [])


def _outcomes(monkeypatch, search, inputs) -> tuple[list, list]:
    """search(x) for each x of `inputs`, with polynomials as coefficient
    tuples, under the growing blocks and under one block per degree."""
    def outcome(found):
        if isinstance(found, RingPoly):
            return found.coeffs
        if isinstance(found, tuple):
            hit, exhausted, checked = found
            return (hit and tuple(p.coeffs for p in hit), exhausted, checked)
        return found

    growing = [outcome(search(x)) for x in inputs]
    with monkeypatch.context() as m:
        _one_block_per_degree(m)
        whole = [outcome(search(x)) for x in inputs]
    return growing, whole


def _z8_orbit_roots(monkeypatch) -> list[RingPoly]:
    """The first candidate of each affine orbit among the pseudo-arithmetical
    candidates of Z8 ∝ Z8, as classify hands them to orbit_verdicts."""
    classify_module = importlib.import_module("finring.classify")
    handed = []
    run = classify_module.orbit_verdicts

    def spy(ring, cols, degree_bound, cap):
        handed.append(cols)
        return run(ring, cols, degree_bound, cap)

    ring = _self_idealization(8)
    with monkeypatch.context() as m:
        m.setattr(classify_module, "orbit_verdicts", spy)
        classify_module.classify(ring)
    (cols,) = handed
    root, _, _ = polys._affine_orbits(ring, cols)
    return [make_poly(ring, cols[:, i])
            for i in np.flatnonzero(root == np.arange(root.size))]


def test_growing_blocks_keep_the_pair_search_outcome(monkeypatch, corpus_rings):
    # the blocks are contiguous and run in the pinned order: the same first
    # violation and pairs_checked, or the same exhausted degree and total
    local = [r for r in corpus_rings if r.order <= 16 and is_local(r) is not None]
    growing, whole = _outcomes(monkeypatch, lambda ring: (
        ring_gaussian_refutation_search(ring, local_factors(ring)[0], 2)), local)
    assert growing == whole
    assert any(hit is not None for hit, _, _ in growing)
    growing, whole = _outcomes(monkeypatch, lambda ring: (
        ring_gaussian_refutation_search(ring, local_factors(ring)[0], 3)),
        [_self_idealization(8)])
    assert growing == whole == [(((16, 1), (16, 1)), None, 1_054_474)]


def test_growing_blocks_keep_the_witness_search_outcome(monkeypatch, corpus_rings):
    fs = []
    for ring in (r for r in corpus_rings if r.order <= 16):
        maximal = is_local(ring)
        if maximal is not None:
            nonunits = maximal.indices
            fs += [make_poly(ring, [int(c[0]) for c in polys.decode_poly_block(
                       nonunits, 1, i, i + 1)])
                   for i in range(poly_count(nonunits.size, 1))]
    roots = _z8_orbit_roots(monkeypatch)
    found = []
    for inputs in (fs, roots):
        growing, whole = _outcomes(
            monkeypatch,
            lambda f: gaussian_witness_search(f, polys.affordable_degree(
                f.ring.order, 3, 2_000_000)), inputs)
        assert growing == whole
        found += growing
    # the 56 roots are all refuted, 31 of them at degree 2
    assert len(roots) == 56 and sum(len(g) == 3 for g in growing) == 31
    assert None in found


def test_constant_factor_never_violates(corpus_rings):
    # c(a·g) = (a)·c(g): over the local corpus rings of order ≤ 16, every
    # non-unit constant a and every g of degree ≤ 1 over the non-units
    # have equal contents, so the searches may skip constant factors
    for ring in (r for r in corpus_rings if r.order <= 16):
        maximal = is_local(ring)
        if maximal is None:
            continue
        nonunits = maximal.indices
        gs = [make_poly(ring, [int(c[0]) for c in
                               polys.decode_poly_block(nonunits, d, i, i + 1)])
              for d in (0, 1) for i in range(poly_count(nonunits.size, d))]
        for a in nonunits.tolist():
            for g in gs:
                assert _contents_agree(make_poly(ring, [a]), g), \
                    (ring.name, a, g.coeffs)


def test_witness_search_never_decodes_constants(monkeypatch):
    degrees = []
    decode = polys.decode_poly_block

    def spy(alphabet, degree, start, stop, lead=None):
        degrees.append(degree)
        return decode(alphabet, degree, start, stop, lead)

    monkeypatch.setattr(polys, "decode_poly_block", spy)
    ext = _self_idealization(4)
    assert gaussian_witness_search(poly_from_literals(ext, [(0, 1)]), 2) is None
    g = gaussian_witness_search(poly_from_literals(ext, [(2, 0), (0, 1)]), 2)
    assert g is not None
    assert degrees and 0 not in degrees


def _verify_pairs(fs, gs) -> None:
    """The re-check kernel on the pairs (fs[k], gs[k])."""
    polys._verify_violations(fs[0].ring, polys._poly_columns(fs),
                             polys._poly_columns(gs))


def test_verify_violation_rejects_a_clean_pair():
    ring = ZmodRing(4)
    two = poly_from_literals(ring, [2])
    with pytest.raises(ConsistencyError):
        _verify_pairs([two], [two])
    f = poly_from_literals(_self_idealization(8), [(2, 0), (0, 1)])
    _verify_pairs([f], [f])   # a real violation passes


def test_verify_violation_raises_exactly_on_equal_spans(corpus_rings):
    # one batch per ring against both spans of each pair: no pair of
    # degree <= 1 over a corpus ring of order <= 8 violates, so the pairs
    # over the maximal ideal of Z4 ∝ Z4 add some that do
    sets = [_polys(r, (0, 1)) for r in corpus_rings if r.order <= 8]
    ext = _self_idealization(4)
    nonunits = is_local(ext).indices
    sets.append([make_poly(ext, [int(c[0]) for c in polys.decode_poly_block(
                     nonunits, d, i, i + 1)])
                 for d in (0, 1) for i in range(poly_count(nonunits.size, d))])
    violations = 0
    for ps in sets:
        pairs = [(f, g) for f in ps for g in ps]
        inside = polys._inside_content(
            ps[0].ring, polys._poly_columns([f for f, _ in pairs]),
            polys._poly_columns([g for _, g in pairs]))
        for (f, g), clean in zip(pairs, inside.tolist()):
            assert clean == _contents_agree(f, g), (f, g)
        bad = [pair for pair, clean in zip(pairs, inside.tolist()) if not clean]
        if bad:     # the violating pairs pass as one batch
            _verify_pairs([f for f, _ in bad], [g for _, g in bad])
        violations += len(bad)
    assert violations > 0


def test_verify_violation_rejects_a_batch_with_one_clean_pair():
    # the violating pairs of Z8 ∝ Z8 pass together, and one clean pair
    # anywhere in the batch fails it
    ext = _self_idealization(8)
    f = poly_from_literals(ext, [(2, 0), (0, 1)])
    units = np.flatnonzero(element_units(ext))[::7].tolist()
    # (φf, φf) violates as (f, f) does, for φ: x ↦ vx + c
    fs = [substituted(f, v, c) for v in units for c in range(0, 64, 9)]
    _verify_pairs(fs, fs)
    clean = poly_from_literals(ext, [(1, 0), (2, 0)])   # unit content
    for at in (0, len(fs) // 2, len(fs)):
        with pytest.raises(ConsistencyError):
            _verify_pairs(fs[:at] + [clean] + fs[at:], fs[:at] + [f] + fs[at:])


def test_searches_reject_a_fabricated_violation(monkeypatch):
    # content ids that swap the zero ideal with (2) claim c(2·2) ≠ c(2)c(2)
    # over the Gaussian ring Z4; the span re-check refuses the claim
    ring = ZmodRing(4)
    calc = content_calculus(ring)
    swap = np.arange(len(calc.lattice))
    two_id = int(calc.princ_id[2])
    swap[[calc.zero_id, two_id]] = [two_id, calc.zero_id]
    original = ContentCalculus.content_ids
    monkeypatch.setattr(ContentCalculus, "content_ids",
                        lambda self, cols: swap[original(self, cols)])
    with pytest.raises(ConsistencyError):
        gaussian_witness_search(poly_from_literals(ring, [2]), 1)
    with pytest.raises(ConsistencyError):
        ring_gaussian_refutation_search(ring, local_factors(ring)[0], 1)


# ---------------------------------------------------------------- exhaustive oracle


def _assert_search_finds_oracle_witness(ring, g_degree: int = 1) -> int:
    """The pruned witness search returns, for every nonzero f of degree <= 1,
    exactly the first witness of degree <= g_degree of the unpruned oracle;
    returns how many f have one."""
    table = gaussian_violation_table(ring, 1, g_degree)
    assert len(table) == ring.order ** 2 - 1  # all nonzero f of degree <= 1
    dirty = 0
    for df, fi, hit in table:
        f = poly_at_index(ring, df, fi)
        direct = gaussian_witness_search(f, g_degree)
        assert (direct is None) == (hit is None)
        if hit is not None:
            dirty += 1
            dg, gi = hit
            g = poly_at_index(ring, dg, gi)
            assert direct.coeffs == g.coeffs
            assert not dedekind_mertens_violation_free(f, g)
    return dirty


def test_violation_table_matches_witness_search():
    assert _assert_search_finds_oracle_witness(_self_idealization(4)) > 0


def test_violation_table_matches_witness_search_non_local():
    # on a non-local ring a sum of non-units can be a unit, so some g with
    # only non-unit coefficients still have unit content and are searched
    ring = ProductRing(_self_idealization(4), ZmodRing(2))
    assert is_local(ring) is None
    assert _assert_search_finds_oracle_witness(ring) > 0


def test_violation_table_matches_witness_search_degree_two():
    # at g-degree 2 a pruned leading digit has free lower digits below it
    assert _assert_search_finds_oracle_witness(_self_idealization(4), 2) > 0


@pytest.mark.parametrize("chunk", [1 << 18, 500])
def test_deep_degree_two_witness_frozen(monkeypatch, chunk):
    # frozen from the unpruned search: over Z8 ∝ Z8 this witness sits at
    # position 133185 of the full degree-2 order and 16929 of the non-unit
    # order.  Leading coefficients come from the 8 nonzero non-unit class
    # leaders, and (4,1) is the 7th, so among the 8·32² pruned candidates
    # the witness sits at 6·32² + 17·32 + 1 = 6689 (digits over the 32
    # non-units); chunk 500 makes the search decode 14 degree-2 chunks
    monkeypatch.setattr(polys, "_PAIR_CHUNK", chunk)
    degree_two_blocks = []
    decode = polys.decode_poly_block

    def spy(alphabet, degree, start, stop, lead=None):
        if degree == 2:
            degree_two_blocks.append((start, stop))
        return decode(alphabet, degree, start, stop, lead)

    monkeypatch.setattr(polys, "decode_poly_block", spy)
    ext = _self_idealization(8)
    f = poly_from_literals(ext, [(0, 5), (4, 5), (4, 7)])
    g = gaussian_witness_search(f, 2)
    assert g.literals() == [(0, 1), (4, 1), (4, 1)]
    assert len(degree_two_blocks) >= 6689 // chunk + 1


def test_witness_search_leads_with_class_leaders_only(monkeypatch):
    # Z25 ∝ Z25 has 125 non-units, 7 of them nonzero class leaders: the
    # degree-1 candidates are 7·125, not the 124·125 of every non-unit lead
    decoded = []
    decode = polys.decode_poly_block

    def spy(alphabet, degree, start, stop, lead=None):
        if degree == 1:
            decoded.append(stop - start)
        return decode(alphabet, degree, start, stop, lead)

    monkeypatch.setattr(polys, "decode_poly_block", spy)
    ext = _self_idealization(25)
    f = poly_from_literals(ext, [(5, 0), (0, 1)])
    g = gaussian_witness_search(f, 1)
    assert g.literals() == [(20, 0), (0, 1)]  # frozen from the unpruned search
    assert sum(decoded) <= 7 * 125


def dedekind_mertens_violation_free(f, g):
    """True iff c(fg) = c(f)c(g) for this specific pair."""
    ring = f.ring
    lhs = content(poly_mul(f, g))
    rhs = ideal_generated_by(
        ring, [int(ring.mul_arr(a, b)) for a in f.coeffs for b in g.coeffs])
    return lhs.mask == rhs.mask


def test_violation_table_all_clean_on_gaussian_ring():
    table = gaussian_violation_table(ZmodRing(9), 2, 2)
    assert all(hit is None for _, _, hit in table)


# ---------------------------------------------------------------- affine orbits


def _orbit(f: RingPoly) -> set:
    """Coefficient tuples of every u·f(vx + c), by brute force."""
    ring = f.ring
    units = np.flatnonzero(element_units(ring)).tolist()
    images = [substituted(f, v, c) for v in units for c in range(ring.order)]
    return {tuple(ring.mul(u, a) for a in h.coeffs) for h in images for u in units}


def _polys(ring, degrees):
    return [poly_at_index(ring, d, i) for d in degrees
            for i in range(poly_count(ring.order, d))]


def test_substitute_matches_powers_of_the_linear_form():
    # columnwise, with one (v, c) per column entry
    z3 = ZmodRing(3)
    for ring in (ZmodRing(5), ZmodRing(8),
                 TrivialExtensionRing(z3, free_module(z3, 1))):
        units = np.flatnonzero(element_units(ring)).tolist()
        fs = _polys(ring, (1, 2))[::7]
        vc = [(f, v, c) for f in fs for v in units for c in range(ring.order)]
        cols = polys._substitute(
            ring, polys._poly_columns([f for f, _, _ in vc]),
            np.array([v for _, v, _ in vc]), np.array([c for _, _, c in vc]))
        images = np.stack(cols, axis=1).tolist()
        for (f, v, c), image in zip(vc, images):
            assert make_poly(ring, image) == substituted(f, v, c)


def test_unit_content_by_maximal_ideal_masks_at_any_order(corpus_rings):
    # c(f) = R iff no maximal ideal of `local_factors` holds every
    # coefficient; no lattice is read, so the rule answers above the bound
    for ring in (r for r in corpus_rings if r.order <= 16):
        for f in _polys(ring, (0, 1)):
            assert polys._unit_content(f) == content(f).is_unit_ideal(), f
    big = ZmodRing(ideals.LATTICE_LIMIT + 3)          # 4099 is prime
    assert certify_gaussian(poly_from_literals(big, [0, 2])).reason == "unit_content"
    with pytest.raises(BoundExceededError):
        ideals.enumerate_ideals(big)


def test_affine_orbits_are_the_orbits_within_the_list():
    z3 = ZmodRing(3)
    for ring, degrees in ((ZmodRing(5), (1, 2)), (ZmodRing(8), (1,)),
                          (TrivialExtensionRing(z3, free_module(z3, 1)), (1,))):
        full = _polys(ring, degrees)
        # the whole list is closed under the maps; every third one is not
        units = np.flatnonzero(element_units(ring)).tolist()
        for fs, closed in ((full, True), (full[::3], False)):
            root, dilation, shift = polys._affine_orbits(ring,
                                                         polys._poly_columns(fs))
            for i, f in enumerate(fs):
                r = int(root[i])
                assert r <= i and root[r] == r
                image = substituted(fs[r], int(dilation[i]), int(shift[i]))
                assert f.coeffs in {tuple(ring.mul(u, a) for a in image.coeffs)
                                    for u in units}
                if closed:
                    orbit = _orbit(f)
                    assert r == min(j for j, g in enumerate(fs) if g.coeffs in orbit)
