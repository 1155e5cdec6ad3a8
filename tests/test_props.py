"""Property-based checks over randomly generated small rings and polynomials."""

import numpy as np
from hypothesis import given, settings, strategies as st

from finring.ideals import (additive_closure_indices, content_calculus,
                            ideal_generated_by, ideal_intersection,
                            ideal_product, is_local, mask_from_indices,
                            maximal_ideals, principal_ideal, push_ideal,
                            residue_vector_space)
from finring.polys import content, make_poly, poly_mul
from finring.rings import (TrivialExtensionRing, ZmodRing, element_units,
                           free_module, standard_gf, verify_ring_axioms)

from oracles import dedekind_mertens_check

GF_PARAMS = [(2, 1), (2, 2), (3, 1), (2, 3), (3, 2), (5, 1), (7, 1)]


@st.composite
def small_rings(draw):
    kind = draw(st.sampled_from(["zmod", "gf", "trivext_residue", "trivext_free"]))
    if kind == "zmod":
        return ZmodRing(draw(st.integers(min_value=2, max_value=32)))
    if kind == "gf":
        p, k = draw(st.sampled_from(GF_PARAMS))
        return standard_gf(p, k)
    if kind == "trivext_residue":
        # combinations kept under the cubic axiom-verification bound of 64
        order, dim = draw(st.sampled_from(
            [(2, 1), (3, 1), (4, 1), (5, 1), (8, 1), (9, 1),
             (2, 2), (3, 2), (4, 2), (8, 2)]))
        base = ZmodRing(order)
        module = residue_vector_space(base, is_local(base), dim)
    else:
        base = ZmodRing(draw(st.sampled_from([2, 3, 4, 5, 8])))
        module = free_module(base, 1)
    return TrivialExtensionRing(base, module)


@st.composite
def ring_and_polys(draw, max_degree=2):
    ring = draw(small_rings())
    n = ring.order
    f = draw(st.lists(st.integers(min_value=0, max_value=n - 1),
                      min_size=1, max_size=max_degree + 1))
    g = draw(st.lists(st.integers(min_value=0, max_value=n - 1),
                      min_size=1, max_size=max_degree + 1))
    return ring, make_poly(ring, f), make_poly(ring, g)


@settings(max_examples=40, deadline=None)
@given(small_rings())
def test_ring_axioms_hold(ring):
    assert verify_ring_axioms(ring)


@settings(max_examples=40, deadline=None)
@given(ring_and_polys())
def test_content_submultiplicative(data):
    ring, f, g = data
    fg = poly_mul(f, g)
    cf, cg, cfg = content(f), content(g), content(fg)
    prod = ideal_product(cf, cg)
    # c(fg) is contained in c(f)c(g)
    assert cfg.mask & prod.mask == cfg.mask


@settings(max_examples=40, deadline=None)
@given(ring_and_polys())
def test_dedekind_mertens_property(data):
    ring, f, g = data
    assert dedekind_mertens_check(f, g)


@settings(max_examples=40, deadline=None)
@given(ring_and_polys(), st.integers(min_value=0, max_value=5))
def test_content_invariant_under_unit_scaling(data, unit_pick):
    ring, f, _ = data
    units = np.nonzero(element_units(ring))[0]
    u = np.int64(units[unit_pick % units.size])
    scaled = make_poly(ring, [int(ring.mul_arr(u, np.int64(c)))
                              for c in f.coeffs])
    assert content(scaled).mask == content(f).mask


@settings(max_examples=30, deadline=None)
@given(small_rings(), st.lists(st.integers(min_value=0, max_value=63),
                               min_size=1, max_size=3))
def test_ideal_product_inside_intersection(ring, raw_gens):
    gens = [g % ring.order for g in raw_gens]
    left = ideal_generated_by(ring, gens)
    right = principal_ideal(ring, gens[0])
    prod = ideal_product(left, right)
    cap = ideal_intersection(left, right)
    assert prod.mask & cap.mask == prod.mask


@settings(max_examples=40, deadline=None)
@given(small_rings(), st.lists(st.integers(min_value=0, max_value=63),
                               max_size=4))
def test_generated_ideal_is_closure_of_principal_union(ring, raw_gens):
    gens = [g % ring.order for g in raw_gens]
    union = np.concatenate([[ring.zero]] + [principal_ideal(ring, g).indices
                                            for g in gens])
    closed = additive_closure_indices(ring, union)
    assert (ideal_generated_by(ring, gens).mask
            == mask_from_indices(closed, ring.order))


@settings(max_examples=30, deadline=None)
@given(small_rings(), st.lists(st.integers(min_value=0, max_value=63),
                               min_size=1, max_size=2))
def test_push_ideal_monotone(ring, raw_gens):
    from finring.ideals import localize_at
    gens = [g % ring.order for g in raw_gens]
    small = principal_ideal(ring, gens[0])
    big = ideal_generated_by(ring, gens)
    for maximal in maximal_ideals(ring):
        _, hom = localize_at(ring, maximal)
        ps, pb = push_ideal(hom, small), push_ideal(hom, big)
        assert ps.mask & pb.mask == ps.mask


@settings(max_examples=25, deadline=None)
@given(small_rings())
def test_content_ids_match_direct_content(ring):
    calc = content_calculus(ring)
    rng = np.random.default_rng(ring.order)
    cols = [rng.integers(0, ring.order, size=8, dtype=np.int64)
            for _ in range(2)]
    ids = calc.content_ids(cols)
    for row in range(8):
        direct = ideal_generated_by(ring, [int(c[row]) for c in cols])
        assert calc.lattice.ideals[ids[row]].mask == direct.mask


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=2, max_value=20))
def test_classify_json_deterministic_for_seed(order):
    from finring.classify import ClassifyConfig, classify
    from finring.reports import to_json
    config = ClassifyConfig()
    a = to_json(classify(ZmodRing(order), config).to_dict())
    b = to_json(classify(ZmodRing(order), config).to_dict())
    assert a == b
