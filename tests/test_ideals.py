"""Ideal lattice, local factors, localization, and content-calculus oracles.

Expected values were computed by exhaustive enumeration over the element
tables and then frozen here.
"""

import functools
import itertools
import json
from pathlib import Path

import numpy as np
import pytest

from finring import certs, ideals, specfile
from finring.classify import (classify, decide_arithmetical, decide_pruefer,
                              decide_zero_locally_irreducible)
from finring.corpus import CorpusConfig, generate_corpus
from finring.errors import BoundExceededError, ConsistencyError, RingBuildError
from finring.harness import (DEFAULT_DIMENSIONS, build_residue_idealization,
                             default_local_bases)
from finring.ideals import (additive_closure_indices, annihilator,
                            content_calculus, enumerate_ideals,
                            ideal_count, ideal_generated_by,
                            ideal_intersection,
                            ideal_product, ideal_quotient, ideal_sum,
                            is_invertible, is_local, is_locally_principal,
                            is_principal, is_regular_ideal, local_factors,
                            localize_at, make_quotient, mask_from_indices, maximal_ideals,
                            principal_ideal, push_ideal, residue_vector_space,
                            subgroup_sum_indices,
                            zero_ideal_locally_irreducible)
from finring.rings import (ProductRing, QuotientRing, TrivialExtensionRing,
                           ZmodRing, element_units, free_module,
                           primitive_idempotents, standard_gf)
from finring.specfile import build_target, parse_ring_spec
from oracles import (atoms_by_pairwise_scan, is_irreducible, kernel_indices,
                     localization_kernel_by_annihilator_scan,
                     locally_principal_by_localization,
                     maximals_by_pairwise_scan, nonunit_mask_by_pairwise_sums,
                     product_mask_by_member_closure)


# (mask, gens) of every lattice ideal of each corpus ring of order <= 16,
# recorded from the doubling-closure generator scan
LATTICE_GENS = Path(__file__).resolve().parent / "fixtures" / "lattice_gens.json"
SPECS = Path(__file__).resolve().parent / "specs"


def _indices(ideal):
    return sorted(ideal.indices.tolist())


def _small_corpus():
    return generate_corpus(CorpusConfig(max_order=16))


def _trivext(base_order: int, residue_dim: int | None):
    """Z/base_order idealized by its residue field power (or by itself)."""
    base = ZmodRing(base_order)
    if residue_dim is None:
        module = free_module(base, 1)
    else:
        module = residue_vector_space(base, is_local(base), residue_dim)
    return TrivialExtensionRing(base, module)


# ---------------------------------------------------------------- lattice shape


def test_zmod12_lattice_frozen():
    z12 = ZmodRing(12)
    lattice = enumerate_ideals(z12)
    # one ideal per divisor of 12
    assert sorted(i.size for i in lattice.ideals) == [1, 2, 3, 4, 6, 12]
    assert sorted(_indices(m) for m in maximal_ideals(z12)) == [
        [0, 2, 4, 6, 8, 10], [0, 3, 6, 9]]
    assert sorted(_indices(a) for a in enumerate_ideals(z12).atoms) == [
        [0, 4, 8], [0, 6]]


def test_lattice_gens_frozen():
    expected = json.loads(LATTICE_GENS.read_text(encoding="utf-8"))
    got = {ring.name: [[hex(i.mask), list(i.gens)]
                       for i in enumerate_ideals(ring).ideals]
           for ring in _small_corpus()}
    assert got == expected


def test_subgroup_sum_matches_doubling_closure():
    pairs = 0
    for ring in _small_corpus():
        ideals = enumerate_ideals(ring).ideals
        for p, i in enumerate(ideals):
            for j in ideals[p:]:
                one_pass = subgroup_sum_indices(ring, i.indices, j.indices)
                doubled = additive_closure_indices(
                    ring, np.concatenate([i.indices, j.indices]))
                assert (mask_from_indices(one_pass, ring.order)
                        == mask_from_indices(doubled, ring.order))
                pairs += 1
    assert pairs > 500


def test_subgroup_sum_by_cycles_matches_the_single_pass(corpus_rings):
    # the chain subgroup_sum_indices takes above one block of sums, on
    # every pair of principal ideals of the corpus rings of order <= 32
    pairs = 0
    for ring in (r for r in corpus_rings if r.order <= 32):
        principal = {}
        for x in range(ring.order):
            p = principal_ideal(ring, x)
            principal.setdefault(p.mask, p.indices)
        for a in principal.values():
            for b in principal.values():
                assert np.array_equal(ideals._subgroup_sum_by_cycles(ring, a, b),
                                      subgroup_sum_indices(ring, a, b))
                pairs += 1
    assert pairs > 1000


def test_maximal_ideal_of_z1024_trivext_sums_by_cycles(monkeypatch):
    # its generator list grows R·(0,1), 1,024 members, by R·(2,0), 2^18
    # members: a single pass would take 2^28 sums for a span of 2^19, the
    # cyclic chain fewer than 2^20, and the locality test at most 2^20 more
    ring = build_target(parse_ring_spec(
        "ring a = zmod(1024); module e = free(a, 1); ring r = trivext(a, e)"))
    real, added = ring.add_arr, [0]

    def counted(a, b):
        added[0] += np.broadcast(a, b).size
        return real(a, b)

    monkeypatch.setattr(ring, "add_arr", counted)
    maximal = is_local(ring)
    assert maximal.size == 524_288
    assert maximal.gen_literals() == [(0, 1), (2, 0)]
    assert added[0] <= 2 * ring.order


def test_idealization_by_residue_field_lattice_frozen():
    ext = _trivext(4, 1)  # order 8, local, non-arithmetical candidate source
    lattice = enumerate_ideals(ext)
    assert sorted(i.size for i in lattice.ideals) == [1, 2, 2, 2, 4, 8]
    dec = ext.decode_literal
    atoms = sorted(sorted(dec(x) for x in a.indices.tolist())
                   for a in enumerate_ideals(ext).atoms)
    assert atoms == [[(0, 0), (0, 1)], [(0, 0), (2, 0)], [(0, 0), (2, 1)]]


def test_self_idealization_lattice_frozen():
    ext = _trivext(4, None)  # Z/4 idealized by itself, order 16
    lattice = enumerate_ideals(ext)
    assert sorted(i.size for i in lattice.ideals) == [1, 2, 4, 4, 4, 8, 16]
    atoms = lattice.atoms
    assert len(atoms) == 1
    dec = ext.decode_literal
    assert sorted(dec(x) for x in atoms[0].indices.tolist()) == [(0, 0), (0, 2)]


def test_field_idealization_lattice_frozen():
    base = standard_gf(2, 1)
    ext = TrivialExtensionRing(base, free_module(base, 2))
    assert sorted(i.size for i in enumerate_ideals(ext).ideals) == [1, 2, 2, 2, 4, 8]
    assert len(enumerate_ideals(ext).atoms) == 3


def _spec_ring(name: str):
    return build_target(parse_ring_spec(
        (SPECS / f"{name}.ring").read_text(encoding="utf-8")))


def test_join_table_is_the_sum_with_each_principal_ideal():
    # F2 ∝ F2^5 and Z4 ∝ Z4^3 fill most of their join entries by
    # associativity, (W' + P) + P' for W = W' + P', instead of by a sum;
    # in F5 ∝ F5^3 and F7 ∝ F7^3 the sums of two lines are planes, many
    # of one size, which a row reads by size
    checked = 0
    for ring in _small_corpus() + [_spec_ring("f2_trivext5"),
                                   _spec_ring("z4_trivext3"), _trivext(5, 3),
                                   _spec_ring("f7_trivext3")]:
        lattice = enumerate_ideals(ring)
        columns = {}                       # column -> one element of its P
        for a in range(ring.order):
            principal = principal_ideal(ring, a)
            col = lattice.princ_col[a]
            assert lattice.ideals[lattice.join[0, col]] == principal, ring.name
            columns.setdefault(col, principal)
        assert sorted(columns) == list(range(lattice.join.shape[1]))
        for col, principal in columns.items():
            for pos, ideal in enumerate(lattice.ideals):
                expected = lattice.ideal_id(ideal_sum(ideal, principal))
                assert lattice.join[pos, col] == expected, ring.name
                checked += 1
    assert checked > 20000


@pytest.mark.parametrize("p, rank, sums", [(7, 3, 58), (2, 5, 342)])
def test_lattice_takes_one_sum_per_non_principal_ideal(monkeypatch, p, rank,
                                                       sums):
    # every join entry but the first of each non-principal ideal is read
    # from a filed row: the union, P's row, (W' + P) + P', or an entry of
    # W's row of size |W|·|P| / |W ∩ P| (1,771 and 1,536 sums without it)
    base = ZmodRing(p)
    ring = TrivialExtensionRing(base, free_module(base, rank))
    real, taken = ideals.subgroup_sum_indices, [0]

    def counted(*args):
        taken[0] += 1
        return real(*args)

    monkeypatch.setattr(ideals, "subgroup_sum_indices", counted)
    lattice = enumerate_ideals(ring)
    assert taken[0] == sums == len(lattice) - lattice.join.shape[1]


def test_walked_generators_are_the_greedy_generators():
    rings = generate_corpus(CorpusConfig(max_order=256)) + [
        _spec_ring("f2_trivext5"), _spec_ring("z4_trivext3"),
        _spec_ring("z64_trivext")]
    checked = 0
    for ring in rings:
        for ideal in enumerate_ideals(ring).ideals:
            assert ideal.gens == ideals.minimal_generators(ring, ideal.mask), ring.name
            checked += 1
    assert checked > 5000


def test_atoms_and_maximals_match_pairwise_scans(corpus_rings):
    assert len(corpus_rings) == 170
    for ring in corpus_rings:
        lattice = enumerate_ideals(ring)
        assert lattice.atoms == atoms_by_pairwise_scan(lattice), ring.name
        maximals = maximals_by_pairwise_scan(lattice)
        # same masks, same order, and the generators the lattice walked
        assert maximal_ideals(ring) == maximals, ring.name
        assert [m.gens for m in maximal_ideals(ring)] == \
            [m.gens for m in maximals], ring.name


def test_f2_trivext5_lattice_pinned():
    ring = _spec_ring("f2_trivext5")
    lattice = enumerate_ideals(ring)
    assert ring.order == 64
    assert maximal_ideals(ring) == maximals_by_pairwise_scan(lattice)
    assert (len(lattice), len(lattice.atoms), len(maximal_ideals(ring))) == (375, 31, 1)
    assert lattice.join.shape == (375, 33)


@functools.cache
def _z4_trivext4():
    """Z4 ∝ Z4^4, order 1024: the largest lattice the tests build."""
    return build_target(parse_ring_spec(
        "ring a = zmod(4); module e = free(a, 4); ring r = trivext(a, e)"))


def test_z4_trivext4_lattice_pinned():
    ring = _z4_trivext4()
    lattice = enumerate_ideals(ring)
    assert maximal_ideals(ring) == maximals_by_pairwise_scan(lattice)
    assert (len(lattice), len(lattice.atoms), len(maximal_ideals(ring))) == (2291, 15, 1)
    assert lattice.join.shape == (2291, 153)


# ---------------------------------------------------------------- ideal algebra


def test_ideal_algebra_zmod12_frozen():
    z12 = ZmodRing(12)
    i4, i6 = principal_ideal(z12, 4), principal_ideal(z12, 6)
    assert _indices(ideal_sum(i4, i6)) == [0, 2, 4, 6, 8, 10]
    assert _indices(ideal_product(i4, i6)) == [0]
    assert _indices(ideal_intersection(i4, i6)) == [0]
    assert _indices(ideal_quotient(i4, i6)) == [0, 2, 4, 6, 8, 10]
    assert _indices(annihilator(i6)) == [0, 2, 4, 6, 8, 10]


def test_generated_ideal_closure():
    z12 = ZmodRing(12)
    ideal = ideal_generated_by(z12, [4, 6])
    assert _indices(ideal) == [0, 2, 4, 6, 8, 10]
    ok, gen = is_principal(ideal)
    assert ok and gen in {2, 10}


def _two_generator_ideals(ring_base, rank):
    """(g1, g2) for every pair g1 <= g2 of nonzero elements of the local
    ring ring_base ∝ ring_base^rank."""
    ring = TrivialExtensionRing(ring_base, free_module(ring_base, rank))
    assert is_local(ring) is not None
    for g1 in range(1, ring.order):
        for g2 in range(g1, ring.order):
            yield ideal_generated_by(ring, [g1, g2])


def _local_corpus_lattice_ideals():
    for ring in generate_corpus(CorpusConfig()):
        if is_local(ring) is not None:
            yield from enumerate_ideals(ring).ideals


def _pushed_corpus_ideals():
    """Every lattice ideal pushed into each localization of a non-local
    ring: the inputs of `is_locally_principal` on such a ring.  The corpus
    rings of order <= 16 are all arithmetical; (Z4 ∝ F2) × F4 is not."""
    spec = (SPECS / "z4f2_x_f4.ring").read_text(encoding="utf-8")
    for ring in [*_small_corpus(), build_target(parse_ring_spec(spec))]:
        if is_local(ring) is None:
            for m in maximal_ideals(ring):
                hom = localize_at(ring, m)[1]
                for ideal in enumerate_ideals(ring).ideals:
                    yield push_ideal(hom, ideal)


@pytest.mark.parametrize("ideals_of,expected", [
    (lambda: _two_generator_ideals(ZmodRing(4), 1), 12),
    (lambda: _two_generator_ideals(ZmodRing(8), 1), 252),
    (lambda: _two_generator_ideals(ZmodRing(9), 1), 216),
    (lambda: _two_generator_ideals(standard_gf(2, 2), 2), 90),
    (lambda: _two_generator_ideals(ZmodRing(2), 3), 21),
    (_local_corpus_lattice_ideals, 63),
    (_pushed_corpus_ideals, 2),
], ids=["z4_z4", "z8_z8", "z9_z9", "gf4_gf4sq", "z2_z2cube",
        "local_corpus_lattices", "pushed_into_localizations"])
def test_two_generator_nakayama_rule_matches_member_scan(ideals_of, expected):
    # in a local ring an ideal is principal iff one of its listed generators
    # alone generates it, which `is_locally_principal` reads in the ring's
    # one corner, R itself; `expected` counts the ideals that are not
    # principal
    non_principal = 0
    for ideal in ideals_of():
        by_scan, _ = is_principal(ideal)
        by_gens, _ = is_locally_principal(ideal)
        assert by_gens == by_scan, (ideal.ring.name, ideal.gens)
        non_principal += not by_scan
    assert non_principal == expected


def test_is_principal_refuses_above_lattice_bound(monkeypatch):
    from finring import ideals

    def no_masks(_ring):
        raise AssertionError("principal masks built above the lattice bound")

    monkeypatch.setattr(ideals, "principal_ideal_masks", no_masks)
    ring = ZmodRing(ideals.LATTICE_LIMIT + 3)
    for ideal in (principal_ideal(ring, 2), ideal_generated_by(ring, [])):
        with pytest.raises(BoundExceededError):
            is_principal(ideal)


def test_regular_and_invertible():
    z12 = ZmodRing(12)
    assert is_regular_ideal(principal_ideal(z12, 1))
    assert not is_regular_ideal(principal_ideal(z12, 6))
    assert is_invertible(principal_ideal(z12, 1))


def test_invertible_regular_unit_ideal_collapse_on_small_corpus(corpus_rings):
    # decide_pruefer counts the ideals that contain a unit; the general
    # invertibility definition must single out exactly those ideals, and
    # they must be the unit ideal alone
    small = [r for r in corpus_rings if r.order <= 16]
    assert len(small) > 20
    for ring in small:
        units = element_units(ring)
        invertible = 0
        for ideal in enumerate_ideals(ring).ideals:
            inv = is_invertible(ideal)
            has_unit = bool(units[ideal.indices].any())
            assert inv == has_unit == ideal.is_unit_ideal(), ring.name
            invertible += inv
        assert invertible == 1, ring.name
        cert = decide_pruefer(ring).certificate
        if "regular_ideal_count" in cert:
            assert cert["regular_ideal_count"] == invertible


# ---------------------------------------------------------------- localization


def test_localize_zmod6_frozen():
    z6 = ZmodRing(6)
    local, hom = localize_at(z6, principal_ideal(z6, 2))
    assert local.order == 2
    assert hom.map.tolist() == [0, 1, 0, 1, 0, 1]
    assert kernel_indices(hom).tolist() == [0, 2, 4]
    assert hom.verify()


def test_localize_requires_maximal():
    z12 = ZmodRing(12)
    with pytest.raises(RingBuildError):
        localize_at(z12, principal_ideal(z12, 4))  # (4) is not maximal


def test_local_ring_localization_is_an_isomorphic_copy():
    # localizing a local ring at its maximal ideal kills nothing: the
    # stable power of a nilpotent ideal is 0
    checked = 0
    for ring in _small_corpus():
        maximal = is_local(ring)
        if maximal is None:
            continue
        localized, hom = localize_at(ring, maximal)
        assert isinstance(localized, QuotientRing), ring.name
        assert maximal.mask in ring._cache["localizations"]
        assert kernel_indices(hom).tolist() == [ring.zero]
        own, copy = enumerate_ideals(ring), enumerate_ideals(localized)
        assert localized.order == ring.order
        assert len(copy.atoms) == len(own.atoms), ring.name
        assert (len(copy) == 2) == (len(own) == 2), ring.name
        checked += 1
    assert checked > 20


def _non_local_rings_to_4096():
    """The non-local rings of the default corpus and of `tests/specs` up to
    order 4096."""
    specs = [build_target(parse_ring_spec(path.read_text(encoding="utf-8")))
             for path in sorted(SPECS.glob("*.ring"))]
    return [ring for ring in [*generate_corpus(CorpusConfig()), *specs]
            if ring.order <= 4096 and is_local(ring) is None]


def test_localization_kernel_is_the_annihilator_scan():
    # ker(R → R_m) is the stable power of m, which `localize_at` takes, and
    # by definition {r : s·r = 0 for some s ∉ m}
    rings = _non_local_rings_to_4096()
    checked = 0
    for ring in rings:
        for m in maximal_ideals(ring):
            hom = localize_at(ring, m)[1]
            assert np.array_equal(kernel_indices(hom),
                                  localization_kernel_by_annihilator_scan(ring, m)), \
                ring.name
            checked += 1
    # 129 corpus rings and four specs, Z16³ among them
    assert (len(rings), checked) == (133, 313)


def _count_lattice_builds(monkeypatch) -> list:
    built = []
    real = ideals._build_lattice
    monkeypatch.setattr(ideals, "_build_lattice",
                        lambda ring: built.append(ring) or real(ring))
    return built


def test_classify_local_ring_reads_its_own_lattice(monkeypatch):
    built = _count_lattice_builds(monkeypatch)
    ring = _trivext(4, None)  # Z4 ∝ Z4, local
    report = classify(ring)
    assert report.verdict("zero_ideal_locally_irreducible") is True
    assert "localizations" not in ring._cache
    assert built == [ring]
    # a non-local ring is read from its corners: no localization is built,
    # and an arithmetical one builds no lattice at all
    for n in (6, 12):
        built.clear()
        ring = ZmodRing(n)
        report = classify(ring)
        assert report.verdict("zero_ideal_locally_irreducible") is True
        assert "localizations" not in ring._cache
        assert built == []


def test_gaussian_decomposition_builds_no_factor_lattice(monkeypatch):
    # Gaussian rule (a) reads each factor's maximal ideal, not its lattice
    built = _count_lattice_builds(monkeypatch)
    for cache in ("_RING_CACHE", "_MODULE_CACHE"):     # fresh rings
        monkeypatch.setattr(specfile, cache, {})
    for name, order in (("z4f2_x_f4", 32), ("f2sq_x_z12", 96)):
        built.clear()
        ring = _spec_ring(name)
        report = classify(ring)
        assert "local_factor_decomposition" in json.dumps(report.to_dict())
        assert [r.order for r in built] == [order]


def test_classify_corpus_builds_lattices_for_non_arithmetical_rings_only(
        monkeypatch):
    built = _count_lattice_builds(monkeypatch)
    rings = generate_corpus(CorpusConfig())
    for ring in rings:
        classify(ring)
    assert len(rings) == 170
    non_arithmetical = [r for r in rings
                        if decide_arithmetical(r).verdict is not True]
    assert len(non_arithmetical) == 13
    assert sorted(map(id, built)) == sorted(map(id, non_arithmetical))


def test_classify_arithmetical_ring_builds_no_lattice(monkeypatch):
    # Z6, Z12 and Z16³ (order 4096 = LATTICE_LIMIT) read every ideal count
    # from their chain-ring corners: no lattice and no principal masks
    calls = []
    for target in ("finring.ideals._build_lattice",
                   "finring.rings._associate_sweep"):
        monkeypatch.setattr(target, lambda ring, _t=target: calls.append(_t))
    for cache in ("_RING_CACHE", "_MODULE_CACHE"):     # fresh rings
        monkeypatch.setattr(specfile, cache, {})
    for ring in (ZmodRing(6), ZmodRing(12), _spec_ring("z16_cube")):
        assert classify(ring).verdict("arithmetical") is True
    assert calls == []


def _arithmetical_at_lattice_scale(candidates):
    return [r for r in candidates if r.order <= ideals.LATTICE_LIMIT
            and ideals.first_nonprincipal_maximal(r) is None]


def test_ideal_count_of_arithmetical_rings_matches_the_lattice():
    corpus = _arithmetical_at_lattice_scale(
        generate_corpus(CorpusConfig(max_order=512)))
    idealizations = _arithmetical_at_lattice_scale(
        build_residue_idealization(base, n) for base in default_local_bases()
        for n in DEFAULT_DIMENSIONS)
    spec_rings = _arithmetical_at_lattice_scale(
        _spec_ring(path.stem) for path in sorted(SPECS.glob("*.ring")))
    assert (len(corpus), len(idealizations)) == (586, 15)
    assert {r.order for r in spec_rings} == {961, 1024, 4096}
    for ring in corpus + idealizations + spec_rings:
        assert ideal_count(ring) == len(enumerate_ideals(ring)), ring.name
    assert ideal_count(_spec_ring("z16_cube")) == 125


def test_ideal_count_refuses_a_ring_that_is_not_arithmetical(monkeypatch):
    # the count is read from chain-ring corners only; no lattice is built
    def no_lattice(ring):
        raise AssertionError(f"lattice of {ring.name}")
    monkeypatch.setattr(ideals, "_build_lattice", no_lattice)
    ring = _trivext(4, None)        # Z4 ∝ Z4: its maximal ideal needs 2 gens
    assert ideals.first_nonprincipal_maximal(ring) is not None
    with pytest.raises(ConsistencyError, match="not arithmetical"):
        ideal_count(ring)


def test_classify_corpus_localizes_nothing(monkeypatch):
    # every decider reads its local factors as corners; only the Gaussian
    # decomposition localizes, and no default-corpus ring reaches it
    localized = []
    real = ideals._localize
    monkeypatch.setattr(ideals, "_localize",
                        lambda ring, m: localized.append(ring) or real(ring, m))
    rings = generate_corpus(CorpusConfig())
    for ring in rings:
        classify(ring)
    assert len(rings) == 170
    assert localized == []


# ---------------------------------------------------------------- local factors


def test_primitive_idempotents_frozen():
    assert primitive_idempotents(ZmodRing(8)).tolist() == [1]
    assert primitive_idempotents(ZmodRing(6)).tolist() == [3, 4]
    assert primitive_idempotents(ZmodRing(12)).tolist() == [4, 9]
    assert primitive_idempotents(ZmodRing(30)).tolist() == [6, 10, 15]
    # (a, b) ↦ index a·|F4| + b, so (1, 0) = 4 and (0, 1) = 1
    ring = ProductRing(ZmodRing(4), standard_gf(2, 2))
    assert primitive_idempotents(ring).tolist() == [1, 4]


def test_local_factors_frozen():
    z12 = ZmodRing(12)
    factors = local_factors(z12)
    # in lattice order: (3) misses 4, whose corner 4·Z12 = {0, 4, 8} is
    # Z3; (2) misses 9, whose corner {0, 3, 6, 9} is Z4
    assert [_indices(f.maximal) for f in factors] == [
        [0, 3, 6, 9], [0, 2, 4, 6, 8, 10]]
    assert [f.idempotent for f in factors] == [4, 9]
    assert [ideals.indices_from_mask(f.corner, 12).tolist()
            for f in factors] == [[0, 4, 8], [0, 3, 6, 9]]
    z8 = ZmodRing(8)
    (local,) = local_factors(z8)
    assert local.maximal is is_local(z8) and local.idempotent == z8.one
    assert local.corner == (1 << 8) - 1


@pytest.mark.parametrize("wrong", [[3], [4], [3, 4, 1]],
                         ids=["one_missing", "other_missing", "extra"])
def test_local_factors_invariant_rejects_a_wrong_idempotent_set(monkeypatch,
                                                                 wrong):
    ring = ZmodRing(6)
    assert is_local(ring) is None
    monkeypatch.setattr(ideals, "primitive_idempotents",
                        lambda _ring: np.array(wrong, dtype=np.int64))
    with pytest.raises(ConsistencyError):
        local_factors(ring)


def test_local_factors_match_localization():
    # the deciders read corners, and the Gaussian decomposition builds each
    # factor as R/(1 − e)R; replay and the oracle localize by the kernel
    # quotient.  All must see the same maximals, factor rings, verdicts and
    # counterexamples.
    spec = (SPECS / "z4f2_x_f4.ring").read_text(encoding="utf-8")
    rings = [*generate_corpus(CorpusConfig(max_order=512)),
             build_target(parse_ring_spec(spec))]
    non_local = split = non_principal = 0
    for ring in rings:
        lattice = enumerate_ideals(ring)
        factors = local_factors(ring)
        maximals = maximals_by_pairwise_scan(lattice)
        assert [f.maximal for f in factors] == maximals, ring.name
        assert [f.maximal.gens for f in factors] == \
            [m.gens for m in maximals], ring.name
        assert maximal_ideals(ring) == [f.maximal for f in factors], ring.name
        if len(factors) == 1:
            assert is_local(ring) is factors[0].maximal, ring.name
        else:
            assert is_local(ring) is None, ring.name
        for f in factors:
            localized = localize_at(ring, f.maximal)[0]
            assert f.corner.bit_count() == f.order == localized.order, ring.name
            kernel = principal_ideal(
                ring, ideals.complement_idempotent(ring, f.idempotent))
            factor = make_quotient(ring, kernel)[0]
            assert np.array_equal(factor.reps, localized.reps), ring.name
            assert np.array_equal(factor.coset_id, localized.coset_id), ring.name
        non_local += len(factors) > 1
        split += len(factors) if len(factors) > 1 else 0
        for ideal in lattice.ideals:
            ok, counter = is_locally_principal(ideal)
            ok_q, counter_q = locally_principal_by_localization(ideal)
            assert ok == ok_q, (ring.name, ideal.gens)
            if not ok:
                assert counter["maximal"].mask == counter_q["maximal"].mask
                assert counter["pushed_order"] == counter_q["pushed_order"]
                assert (counter["localization_order"]
                        == counter_q["localization_order"])
                non_principal += 1
    assert (len(rings), non_local, split, non_principal) == (610, 553, 1510, 149)


def test_socle_matches_lattice_on_every_local_factor():
    factors = 0
    for ring in generate_corpus(CorpusConfig(max_order=256)):
        local = is_local(ring) is not None
        verdict, rows = zero_ideal_locally_irreducible(ring)
        for m, row in zip(maximal_ideals(ring), rows, strict=True):
            factor = ring if local else localize_at(ring, m)[0]
            lattice = enumerate_ideals(factor)
            assert row["localization_order"] == factor.order, ring.name
            assert row["atom_count"] == len(lattice.atoms), ring.name
            assert row["field_like"] == (len(lattice) == 2), ring.name
            assert row["irreducible"] == is_irreducible(lattice.ideals[0])
            factors += 1
        assert verdict == all(row["irreducible"] for row in rows)
    assert factors == 1092


def test_zero_ideal_irreducibility_above_the_lattice_bound():
    # Z17 ∝ Z17² has order 4913: local, so its socle answers with no lattice
    ring = build_target(parse_ring_spec(
        "ring a = zmod(17); module e = free(a, 2); ring r = trivext(a, e)"))
    assert ring.order > ideals.LATTICE_LIMIT
    result = decide_zero_locally_irreducible(ring)
    assert result.verdict is False
    # the socle is the maximal ideal 0 ∝ E: (17² − 1)/(17 − 1) lines
    assert result.witness["atom_count"] == 18
    assert "lattice" not in ring._cache


def test_non_local_factors_above_the_lattice_bound(monkeypatch):
    # (Z17 ∝ Z17) × Z17 has order 4913 and two local factors, read from its
    # primitive idempotents with no lattice
    ring = build_target(parse_ring_spec(
        "ring a = zmod(17); module e = free(a, 1); ring t = trivext(a, e); "
        "ring r = product(t, a)"))
    assert ring.order > ideals.LATTICE_LIMIT

    def no_lattice(_ring):
        raise AssertionError("the ideal lattice was built")

    monkeypatch.setattr(ideals, "enumerate_ideals", no_lattice)
    # (0 ∝ Z17) × Z17 and (Z17 ∝ Z17) × 0, 289 members each
    assert [m.gen_literals() for m in maximal_ideals(ring)] == [
        [((0, 0), 1), ((0, 1), 0)], [((0, 1), 0), ((1, 0), 0)]]
    assert [m.size for m in maximal_ideals(ring)] == [289, 289]
    result = decide_zero_locally_irreducible(ring)
    assert result.verdict is True
    assert [(row["localization_order"], row["atom_count"])
            for row in result.certificate["localizations"]] == [(289, 1), (17, 0)]
    # both factors are chain rings, so the ring is arithmetical with 3 · 2
    # ideals, decided and replayed with no lattice
    cond = decide_arithmetical(ring).to_dict()
    assert cond == {"verdict": True,
                    "certificate": {"kind": "all_ideals_locally_principal",
                                    "ideal_count": 6}}
    assert certs.replay_condition(ring, "arithmetical", cond)
    assert "lattice" not in ring._cache


def test_is_local_frozen():
    assert is_local(ZmodRing(6)) is None
    m = is_local(ZmodRing(8))
    assert m is not None and _indices(m) == [0, 2, 4, 6]
    assert is_local(standard_gf(3, 2)).size == 1


def test_is_local_matches_pairwise_sums(corpus_rings):
    local = 0
    for ring in corpus_rings:
        maximal = is_local(ring)
        expected = nonunit_mask_by_pairwise_sums(ring)
        assert (maximal.mask if maximal else None) == expected, ring.name
        local += maximal is not None
    assert 0 < local < len(corpus_rings)


def test_is_local_adds_linearly_on_z1024_trivext(monkeypatch):
    # order 2^20 with 2^19 non-units: adding every pair of them would take
    # 2^38 additions; locality itself adds nothing outside the generator scan
    ring = build_target(parse_ring_spec(
        "ring a = zmod(1024); module e = free(a, 1); ring r = trivext(a, e)"))
    element_units(ring)
    # the generator list of the maximal ideal is a separate scan
    monkeypatch.setattr(ideals, "minimal_generators", lambda ring, mask: ())
    real, added = ring.add_arr, [0]

    def counted(a, b):
        added[0] += np.broadcast(a, b).size
        assert added[0] <= ring.order, "locality test adds more than n elements"
        return real(a, b)

    monkeypatch.setattr(ring, "add_arr", counted)
    maximal = is_local(ring)
    assert maximal is not None and maximal.size == ring.order // 2


def test_local_closure_invariant_rejects_a_unit_among_the_non_units():
    # Z8 ∝ Z8 is local; with one of its units cleared in the cached unit
    # mask, the span of the "non-units" takes in a unit and is not that set
    ring = _trivext(8, None)
    units = element_units(ring)
    units[np.flatnonzero(units)[-1]] = False
    with pytest.raises(ConsistencyError):
        is_local(ring)


def test_locally_principal_on_non_principal_ideal():
    ext = _trivext(4, 1)
    dec_ok = ideal_generated_by(
        ext, [ext.encode_literal((2, 0)), ext.encode_literal((0, 1))])
    ok, gen = is_principal(dec_ok)
    assert not ok
    locally, row = is_locally_principal(dec_ok)
    # the ring is local, so locally principal would mean principal
    assert not locally
    assert row is not None


def _least_generator_count_by_search(lattice, ideal) -> int:
    """Fewest principal ideals whose sum is `ideal`, tried by size."""
    target = lattice.ideal_id(ideal)
    inside = [c for c in range(lattice.join.shape[1])
              if lattice.ideals[lattice.join[0, c]].mask | ideal.mask == ideal.mask]
    spans = {0}
    for count in itertools.count():
        if target in spans:
            return count
        spans = {int(lattice.join[s, c]) for s in spans for c in inside}


def test_least_generator_count_matches_search():
    counts = []
    for ring in _small_corpus() + [_trivext(4, 3)]:
        lattice = enumerate_ideals(ring)
        for ideal in lattice.ideals:
            expected = _least_generator_count_by_search(lattice, ideal)
            assert ideals.least_generator_count(ideal) == expected, ring.name
            counts.append(expected)
    assert max(counts) == 4


def test_least_generator_count_of_maximal_ideals_frozen():
    # m/m² has dimension 5 in both: F2^5, and (2Z4 ⊕ Z4^4)/(0 ⊕ 2Z4^4)
    for ring in (_spec_ring("f2_trivext5"), _z4_trivext4()):
        assert ideals.least_generator_count(maximal_ideals(ring)[0]) == 5


def test_zero_ideal_locally_irreducible_frozen():
    verdict, rows = zero_ideal_locally_irreducible(ZmodRing(4))
    assert verdict and rows[0]["atom_count"] == 1
    verdict, rows = zero_ideal_locally_irreducible(_trivext(4, 1))
    assert not verdict and rows[0]["atom_count"] == 3
    verdict, rows = zero_ideal_locally_irreducible(ZmodRing(6))
    assert verdict  # both localizations are fields


# ---------------------------------------------------------------- quotients & modules


def test_make_quotient_and_residue_space():
    z12 = ZmodRing(12)
    quot, proj = make_quotient(z12, principal_ideal(z12, 3))
    assert quot.order == 3 and proj.verify()

    z4 = ZmodRing(4)
    space = residue_vector_space(z4, is_local(z4), 2)
    assert space.order == 4
    # M annihilates the residue space
    m_idx = is_local(z4).indices
    for a in m_idx.tolist():
        assert np.all(space.act_arr(np.int64(a), np.arange(4)) == 0)


def test_product_of_square_zero_ideal_multiplies_generator_pairs(monkeypatch):
    # 0 ∝ E in Z31 ∝ Z31² has 961 members and two generators; its square is
    # the span of the 4 generator products, not of 961² member products
    ring = build_target(parse_ring_spec(
        "ring a = zmod(31); module e = free(a, 2); ring r = trivext(a, e)"))
    m = ring.ext_module.order
    ext = ideal_generated_by(ring, range(m))
    assert ext.size == m and len(ext.gens) == 2
    real, multiplied = ring.mul_arr, [0]

    def counted(a, b):
        multiplied[0] += np.broadcast(a, b).size
        return real(a, b)

    monkeypatch.setattr(ring, "mul_arr", counted)
    assert ideal_product(ext, ext).is_zero()
    assert 0 < multiplied[0] <= len(ext.gens) ** 2


# ---------------------------------------------------------------- content calculus


def _products_by_member_closure(lattice) -> np.ndarray:
    """k × k ids of every product of two lattice ideals, by the oracle."""
    return np.array([[lattice.by_mask[product_mask_by_member_closure(i, j)]
                      for j in lattice.ideals] for i in lattice.ideals],
                    dtype=np.int64)


def test_content_calculus_tables():
    z12 = ZmodRing(12)
    calc = content_calculus(z12)
    lattice = calc.lattice
    zero_id = lattice.ideal_id(principal_ideal(z12, 0))
    unit_id = lattice.ideal_id(principal_ideal(z12, 1))
    two_id = lattice.ideal_id(principal_ideal(z12, 2))
    three_id = lattice.ideal_id(principal_ideal(z12, 3))
    six_id = lattice.ideal_id(principal_ideal(z12, 6))
    assert calc.prod_ids(np.int64(unit_id), np.int64(two_id)) == two_id
    assert calc.prod_ids(np.int64(two_id), np.int64(three_id)) == six_id
    assert calc.prod_ids(np.int64(zero_id), np.int64(two_id)) == zero_id
    # content of the coefficient column [4, 6] is (2)
    cols = [np.array([4]), np.array([6])]
    assert calc.content_ids(cols)[0] == two_id

    # the product table over the full id grid of every small corpus ring
    for ring in _small_corpus():
        calc = content_calculus(ring)
        lattice = calc.lattice
        ids = np.arange(len(lattice), dtype=np.int64)
        expected = _products_by_member_closure(lattice)
        # fill every other row first, then the rest, then read the full table
        # once more with every row filled
        odd = ids[1::2]
        assert np.array_equal(calc.prod_ids(odd[:, None], ids[None, :]),
                              expected[odd]), ring.name
        for _ in range(2):
            assert np.array_equal(calc.prod_ids(ids[:, None], ids[None, :]),
                                  expected), ring.name
        assert np.array_equal(calc.prod_row(0), expected[0])


def test_product_table_reads_no_join_entry(monkeypatch):
    # the Gaussian searches compare c(fg), read from the join table, with
    # c(f)·c(g) from the product table; one wrong join entry must leave the
    # product side as it is
    for ring in _small_corpus():
        lattice = enumerate_ideals(ring)
        k = len(lattice)
        join = lattice.join.copy()
        join[k // 2, -1] = (join[k // 2, -1] + 1) % k
        with monkeypatch.context() as patch:
            patch.setattr(lattice, "join", join)
            calc = ideals.ContentCalculus(ring)
            ids = np.arange(k, dtype=np.int64)
            table = calc.prod_ids(ids[:, None], ids[None, :])
        assert np.array_equal(table, _products_by_member_closure(lattice)), ring.name


def test_content_calculus_makes_no_sums_once_the_lattice_exists(monkeypatch):
    ring = _trivext(4, 2)  # Z4 ∝ (Z4/2)²
    lattice = enumerate_ideals(ring)

    def no_sum(*_args):
        raise AssertionError("a sum was taken after the lattice was built")

    monkeypatch.setattr(ideals, "ideal_sum", no_sum)
    monkeypatch.setattr(ideals, "subgroup_sum_indices", no_sum)
    cols = [np.arange(ring.order), np.arange(ring.order)[::-1]]
    ids = content_calculus(ring).content_ids(cols)
    monkeypatch.undo()
    for x, y, got in zip(*cols, ids.tolist()):
        assert lattice.ideals[got] == ideal_generated_by(ring, [x, y])
