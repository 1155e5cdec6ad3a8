"""Element-table constructors: arithmetic, literals, axioms, homomorphisms."""

import numpy as np
import pytest

from finring import rings
from finring.errors import BoundExceededError, RingBuildError
from finring.rings import (STANDARD_GF_MODULI, GFRing, ProductRing, RingHom,
                           TrivialExtensionRing, ZmodRing, element_units,
                           free_module, is_prime, module_sum, standard_gf,
                           verify_module_axioms, verify_ring_axioms)
from finring.ideals import (is_local, make_quotient, principal_ideal,
                            residue_vector_space)

from oracles import (element_kind, gf_products_by_schoolbook,
                     hom_laws_by_element_scan, irreducible_by_trial_division)


# ---------------------------------------------------------------- zmod


def test_zmod_tables():
    z12 = ZmodRing(12)
    assert z12.order == 12
    assert z12.zero == 0 and z12.one == 1
    assert int(z12.add_arr(np.int64(7), np.int64(8))) == 3
    assert int(z12.mul_arr(np.int64(7), np.int64(8))) == 8
    assert int(z12.neg_arr(np.int64(5))) == 7


def test_zmod_units_frozen():
    # Units of Z/12 are exactly the residues coprime to 12.
    mask = element_units(ZmodRing(12))
    assert np.nonzero(mask)[0].tolist() == [1, 5, 7, 11]


def test_element_kind_partition():
    ring = ZmodRing(12)
    kinds = {a: element_kind(ring, a) for a in range(12)}
    assert kinds[1] == "unit" and kinds[11] == "unit"
    assert kinds[0] == "zerodivisor" and kinds[6] == "zerodivisor"
    assert all(k in ("unit", "zerodivisor") for k in kinds.values())


def test_zmod_rejects_bad_order():
    with pytest.raises(RingBuildError):
        ZmodRing(1)
    with pytest.raises(RingBuildError):
        ZmodRing(0)


def test_zmod_literals():
    z7 = ZmodRing(7)
    assert z7.encode_literal(9) == 2
    assert z7.decode_literal(3) == 3
    with pytest.raises(RingBuildError):
        z7.encode_literal((1, 2))


# ---------------------------------------------------------------- gf


def test_primality_and_irreducibility_helpers():
    assert [n for n in range(2, 20) if is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19]


def _monic_moduli(p: int, k: int):
    for body in range(p**k):
        yield tuple(body // p**i % p for i in range(k)) + (1,)


def _assert_schoolbook_products(ring: GFRing, modulus, pairs: int | None = None):
    """The ring's products equal the schoolbook ones on every pair, or on
    `pairs` seeded random pairs."""
    q = ring.order
    if pairs is None:
        a, b = np.arange(q)[:, None], np.arange(q)[None, :]
    else:
        a, b = np.random.default_rng(0).integers(0, q, size=(2, pairs))
    want = gf_products_by_schoolbook(ring.p, modulus, a, b)
    assert np.array_equal(ring.mul_arr(a, b), want)


@pytest.mark.parametrize("p,degrees", [(2, range(1, 7)), (3, range(1, 4)),
                                       (5, range(1, 4)), (7, range(1, 4))])
def test_gf_accepts_exactly_the_irreducible_moduli(p, degrees):
    # F_p[x]/(f) is built iff f is irreducible, with the schoolbook products
    for k in degrees:
        for modulus in _monic_moduli(p, k):
            if irreducible_by_trial_division(p, modulus):
                _assert_schoolbook_products(GFRing(p, k, modulus), modulus)
            else:
                with pytest.raises(RingBuildError, match="reducible"):
                    GFRing(p, k, modulus)


@pytest.mark.parametrize("p,k,modulus", [
    *[(p, k, poly) for (p, k), poly in sorted(STANDARD_GF_MODULI.items())],
    (2, 10, (1, 0, 0, 1, 0, 0, 0, 0, 0, 0, 1)),  # x^10 + x^3 + 1
    (31, 2, (1, 0, 1)),                          # x^2 + 1, as 31 = 3 mod 4
])
def test_gf_products_match_schoolbook(p, k, modulus):
    assert irreducible_by_trial_division(p, modulus)
    ring = GFRing(p, k, modulus)
    _assert_schoolbook_products(ring, modulus, None if ring.order <= 64 else 4096)


def test_gf4_arithmetic_frozen():
    g4 = standard_gf(2, 2)  # F2[x]/(x^2+x+1), literal n encodes base-2 digits
    assert g4.name == "gf(2,2)"
    x = g4.encode_literal(2)
    # x * x = x + 1
    assert g4.decode_literal(int(g4.mul_arr(np.int64(x), np.int64(x)))) == 3
    # every nonzero element is a unit
    assert int(np.count_nonzero(element_units(g4))) == 3


def test_gf_prime_field_degenerate_unit_group():
    # q = 2 has a trivial multiplicative group
    g2 = standard_gf(2, 1)
    assert g2.order == 2
    assert verify_ring_axioms(g2)


def test_gf_rejects_reducible_modulus():
    with pytest.raises(RingBuildError):
        GFRing(2, 2, (1, 0, 1))  # x^2+1 reducible mod 2


def test_gf_order_checked_before_irreducibility(monkeypatch):
    # irreducibility is read from the product table; an oversized field
    # must be rejected before any table is built
    def fail(*_args):
        raise AssertionError("table built for an oversized field")

    monkeypatch.setattr(GFRing, "_build_tables", fail)
    with pytest.raises(RingBuildError, match="above the supported bound"):
        GFRing(2, 11, (1, 0, 1) + (0,) * 8 + (1,))  # order 2048 > TABLE_LIMIT


def test_standard_gf_table_covers_spec_sizes():
    for (p, k) in [(2, 2), (2, 3), (2, 4), (3, 2), (5, 2)]:
        ring = standard_gf(p, k)
        assert ring.order == p ** k
        assert verify_ring_axioms(ring)


# ---------------------------------------------------------------- product


def test_product_componentwise():
    pr = ProductRing(ZmodRing(4), ZmodRing(3))
    assert pr.order == 12
    a = pr.encode_literal((3, 2))
    b = pr.encode_literal((2, 2))
    assert pr.decode_literal(int(pr.mul_arr(np.int64(a), np.int64(b)))) == (2, 1)
    assert pr.decode_literal(int(pr.add_arr(np.int64(a), np.int64(b)))) == (1, 1)
    assert pr.decode_literal(pr.one) == (1, 1)


# ---------------------------------------------------------------- quotient


def test_quotient_of_zmod_is_zmod():
    z12 = ZmodRing(12)
    quot, proj = make_quotient(z12, principal_ideal(z12, 4))
    assert quot.order == 4
    assert proj.verify()
    z4 = ZmodRing(4)
    # same multiplication table as Z/4 under the representative relabeling
    iso = {quot.decode_literal(i): i for i in range(quot.order)}
    for a in range(4):
        for b in range(4):
            lhs = quot.decode_literal(
                int(quot.mul_arr(np.int64(iso[a]), np.int64(iso[b]))))
            assert lhs == int(z4.mul_arr(np.int64(a), np.int64(b)))


# ---------------------------------------------------------------- trivial extension


def _embed_and_project(ext: TrivialExtensionRing):
    """The homs a ↦ (a, 0) and (a, e) ↦ a, on the index layout a·|E| + e."""
    base, m = ext.base_ring, ext.ext_module.order
    return (RingHom(base, ext, np.arange(base.order, dtype=np.int64) * m),
            RingHom(ext, base, np.arange(ext.order, dtype=np.int64) // m))


def test_trivial_extension_multiplication_law():
    z4 = ZmodRing(4)
    ext = TrivialExtensionRing(z4, residue_vector_space(z4, is_local(z4), 1))
    embed, project = _embed_and_project(ext)
    assert ext.order == 8
    enc, dec = ext.encode_literal, ext.decode_literal
    # (a,e)(a',e') = (aa', ae' + a'e): (1,1)*(2,1) = (2, 1*1 + 2*1) = (2,1)
    prod = int(ext.mul_arr(np.int64(enc((1, 1))), np.int64(enc((2, 1)))))
    assert dec(prod) == (2, 1)
    s = int(ext.add_arr(np.int64(enc((1, 1))), np.int64(enc((2, 1)))))
    assert dec(s) == (3, 0)
    assert dec(enc((3, 0))) == (3, 0)
    assert embed.verify() and project.verify()
    assert project.map[embed.map].tolist() == list(range(4))


def test_trivial_extension_square_zero_part():
    z4 = ZmodRing(4)
    ext = TrivialExtensionRing(z4, free_module(z4, 1))
    m = 4  # module order; indices 0..3 are the (0, e) slice
    idx = np.arange(m, dtype=np.int64)
    assert np.all(ext.mul_arr(idx[:, None], idx[None, :]) == ext.zero)


def test_free_module_and_sum_axioms():
    z4 = ZmodRing(4)
    free2 = free_module(z4, 2)
    assert free2.order == 16
    assert verify_module_axioms(free2)
    summed = module_sum(free_module(z4, 1), free_module(z4, 1))
    assert summed.order == 16
    assert verify_module_axioms(summed)


def test_free_module_rank_refused_before_the_power():
    # 4^100000 has more digits than int-to-str conversion allows
    with pytest.raises(RingBuildError, match=r"4\^100000 above bound 1024"):
        free_module(ZmodRing(4), 100_000)


def test_module_sum_refused_before_its_tables(monkeypatch):
    z2 = ZmodRing(2)
    e, f = free_module(z2, 6), free_module(z2, 5)   # 64 · 32 = 2048
    calls = []
    real = rings.compose
    monkeypatch.setattr(rings, "compose",
                        lambda *args: calls.append(1) or real(*args))
    with pytest.raises(RingBuildError, match="above bound 1024"):
        module_sum(e, f)
    assert calls == []
    module_sum(e, free_module(z2, 4))   # 64 · 16 = 1024: the spy sees it
    assert calls


# ---------------------------------------------------------------- axioms & homs


def _trivext_z4():
    z4 = ZmodRing(4)
    return TrivialExtensionRing(z4, free_module(z4, 1))


@pytest.mark.parametrize("build", [
    lambda: ZmodRing(6),
    lambda: standard_gf(3, 2),
    lambda: ProductRing(ZmodRing(2), ZmodRing(8)),
    _trivext_z4,
])
def test_ring_axioms_exhaustive(build):
    ring = build()
    assert ring.order <= 64
    assert verify_ring_axioms(ring)


def test_trivial_extension_requires_module_over_same_ring_object():
    with pytest.raises(RingBuildError):
        TrivialExtensionRing(ZmodRing(4), free_module(ZmodRing(4), 1))


def test_hom_verify_rejects_non_hom():
    from finring.rings import RingHom
    z4 = ZmodRing(4)
    bad = RingHom(z4, z4, np.array([0, 1, 3, 2], dtype=np.int64))
    assert not bad.verify()
    good = RingHom(z4, z4, np.arange(4, dtype=np.int64))
    assert good.verify()


def test_hom_verify_refuses_above_the_pair_cap():
    # every row is checked, so a source above the cap is refused, not sampled
    from finring.rings import KIND_SCAN_LIMIT, RingHom
    big = ZmodRing(8193)
    assert big.order ** 2 > KIND_SCAN_LIMIT
    with pytest.raises(BoundExceededError):
        RingHom(big, big, np.arange(big.order, dtype=np.int64)).verify()


def test_hom_verify_matches_element_scan():
    from finring.rings import CACHE_BLOCK, RingHom
    z2 = ZmodRing(2)
    dual = TrivialExtensionRing(z2, free_module(z2, 1))
    # ε ↦ 1 + ε on Z2 ∝ Z2 (index 2a + e) keeps 0, 1 and addition, but
    # ε² = 0 while (1 + ε)² = 1
    eps_shift = RingHom(dual, dual, np.array([0, 3, 2, 1], dtype=np.int64))
    z4 = ZmodRing(4)
    ext = TrivialExtensionRing(z4, free_module(z4, 2))
    embed, project = _embed_and_project(ext)
    z12 = ZmodRing(12)
    # Z2053 has no tables, and its n² pairs take many blocks of rows
    z2053 = ZmodRing(2053)
    assert z2053.order ** 2 > CACHE_BLOCK
    swapped = np.arange(z2053.order, dtype=np.int64)
    swapped[[2051, 2052]] = [2052, 2051]
    homs = [embed, project, make_quotient(z12, principal_ideal(z12, 4))[1],
            make_quotient(ext, principal_ideal(ext, ext.encode_literal((2, (1, 0)))))[1],
            RingHom(z2053, z2053, np.arange(z2053.order, dtype=np.int64)),
            eps_shift, RingHom(z2053, z2053, swapped)]
    verdicts = [hom.verify() for hom in homs]
    assert verdicts == [hom_laws_by_element_scan(hom) for hom in homs]
    assert verdicts == [True] * 5 + [False] * 2


def test_hom_requires_total_map():
    from finring.rings import RingHom
    z4 = ZmodRing(4)
    with pytest.raises(RingBuildError):
        RingHom(z4, z4, np.array([0, 1], dtype=np.int64))


# ---------------------------------------------------------------- generators


def _closure(start: int, gens: np.ndarray, op, n: int) -> np.ndarray:
    """Mask of everything reached from `start` by applying `op` with the
    generators, one step at a time."""
    reached = np.zeros(n, dtype=bool)
    reached[start] = True
    frontier = np.array([start], dtype=np.int64)
    while frontier.size:
        step = np.unique(op(frontier[:, None], gens[None, :]))
        frontier = step[~reached[step]]
        reached[frontier] = True
    return reached


def test_group_generators_regenerate_their_groups(corpus_rings):
    z25 = ZmodRing(25)
    for ring in [*corpus_rings, TrivialExtensionRing(z25, free_module(z25, 1))]:
        n = ring.order
        adds = rings.group_generators(ring, "additive")
        units = rings.group_generators(ring, "units")
        assert bool(_closure(ring.zero, adds, ring.add_arr, n).all())
        unit_mask = element_units(ring)
        assert bool(unit_mask[units].all())
        assert np.array_equal(_closure(ring.one, units, ring.mul_arr, n), unit_mask)
        # each generator at least doubles the subgroup before it
        assert 2 ** adds.size <= n and 2 ** units.size <= int(unit_mask.sum())
        assert rings.group_generators(ring, "units") is units  # cached


def test_group_generators_frozen():
    z8 = ZmodRing(8)
    ring = TrivialExtensionRing(z8, free_module(z8, 1))
    assert rings.group_generators(ring, "additive").tolist() == [1, 8]
    assert rings.group_generators(ring, "units").tolist() == [9, 24, 40]
    assert rings.group_generators(ZmodRing(12), "units").tolist() == [5, 7]
    with pytest.raises(ValueError):
        rings.group_generators(z8, "multiplicative")
