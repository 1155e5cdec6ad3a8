"""Ideal arithmetic, lattice enumeration, local factors, localization, and
the socle test of zero-ideal irreducibility.

Ideals are stored as membership bitmasks (Python ints) over element indices
plus generators, with a cached numpy index array for vectorised arithmetic.
Two ideals are additive subgroups, so their sum I + J = {x + y} takes one
pass of |I|·|J| additions (`subgroup_sum_indices`); a span grows one
principal ideal R·g at a time the same way, and I·J is the span of the
products of generators.  The full ideal lattice of a ring closes the
principal ideals under adding a principal ideal, which stays cheap because
finite rings have very few ideals compared to subsets; a join entry takes a
sum almost only when it is a new ideal, since the rest are read from rows
already filed (by associativity, or by the size |W|·|P| / |W ∩ P| of
W + P), and each ideal's generators are walked along those rows.  The
principal ideals themselves take one product row per associate class, since
R·(ua) = R·a for every unit u, and the cosets of a quotient are swept along
a chain of subgroups, one generator at a time in ⌈log₂ t⌉ doubling windows
for a generator of order t (`coset_minima`).

`local_factors` is the one home of locality, the maximal ideals and every
per-factor fact, read from the primitive idempotents with no lattice: the
maximal ideal that misses e is {r : e·r + (1 − e) is not a unit}, which
`minimal_generators` checks to be an ideal, and a local ring's is its
non-units (e = 1).  A product A × B scans nothing: it lifts the records of
A and B, and checks each lifted maximal ideal against that set in O(n).
The deciders read each localization R_m as that
factor's corner eR: the image of an ideal I is I ∩ eR, a mask AND.  Each
factor's cached record holds |eR|, the residue order, whether n = m ∩ eR
is principal, the socle's atom count and whether n² = 0, all read from
one product row per generator of m, and no decider computes them again.
Inside `classify` only the Gaussian pair search (through
`content_calculus`) and the pseudo-arithmetical scan of a ring that is not
arithmetical build the lattice, and `enumerate_ideals` alone enforces its
bound; replay builds none.  The Gaussian decomposition reads R as
the product of these factors, since their idempotents sum to 1, and builds
each factor as R/(1 − e)R, whose coset representatives r lift to e·r.
`localize_at`, the quotient by the power of m at which m ⊇ m² ⊇ … stops
shrinking, serves replay alone, which reads R ≅ Π R_m from the kernels.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import BoundExceededError, ConsistencyError, RingBuildError
from .rings import (CACHE_BLOCK, CHUNK, FiniteModule, FiniteRing, ModuleSpec,
                    ProductRing, QuotientRing, RingHom, RingSpec,
                    associate_leaders, associate_sweep, blocks,
                    element_units, free_module, indices_from_mask,
                    mask_from_bits, mask_from_indices, module_sum,
                    primitive_idempotents)

LATTICE_LIMIT = 4096      # enumerate_ideals refuses above this order

# the certified unit mask; perfbench traces it under this name as ideals.units
element_units_guarded = element_units


class Ideal:
    """An ideal of a finite ring: membership bitmask plus generators; every
    constructor keeps I = R·g1 + … + R·gk (no generators for I = 0)."""

    __slots__ = ("ring", "mask", "gens", "_indices")

    def __init__(self, ring: FiniteRing, mask: int, gens: tuple[int, ...],
                 indices: np.ndarray | None = None):
        self.ring = ring
        self.mask = mask
        self.gens = gens
        self._indices = indices

    @property
    def indices(self) -> np.ndarray:
        if self._indices is None:
            self._indices = indices_from_mask(self.mask, self.ring.order)
        return self._indices

    @property
    def size(self) -> int:
        return self.mask.bit_count()

    def contains(self, i: int) -> bool:
        return bool((self.mask >> i) & 1)

    def is_zero(self) -> bool:
        return self.mask == 1

    def is_unit_ideal(self) -> bool:
        return self.size == self.ring.order

    def is_proper(self) -> bool:
        return self.size < self.ring.order

    def gen_literals(self) -> list:
        return [self.ring.decode_literal(g) for g in self.gens]

    def __eq__(self, other) -> bool:
        return isinstance(other, Ideal) and self.ring is other.ring and self.mask == other.mask

    def __hash__(self) -> int:
        return hash((id(self.ring), self.mask))

    def __repr__(self) -> str:
        gens = ",".join(str(g) for g in self.gen_literals())
        return f"<Ideal of {self.ring.name} size={self.size} gens=[{gens}]>"


def _distinct_indices(n: int, values) -> np.ndarray:
    """Sorted distinct element indices among `values` (a membership scatter)."""
    seen = np.zeros(n, dtype=bool)
    seen[values] = True
    return np.flatnonzero(seen)


def additive_closure_indices(ring: FiniteRing, indices: np.ndarray) -> np.ndarray:
    """Close an index set containing 0 under addition by repeated doubling.

    Each round forms all |S|² sums, so this serves only sets that are not a
    union of subgroups (replay's member products, `certs`); a sum of two
    subgroups goes through `subgroup_sum_indices`."""
    cur = _distinct_indices(ring.order, np.asarray(indices, dtype=np.int64))
    while True:
        nxt = _distinct_indices(ring.order, ring.add_arr(cur[:, None], cur[None, :]))
        if nxt.size == cur.size:
            return nxt
        cur = nxt


def subgroup_sum_indices(ring: FiniteRing, a: np.ndarray,
                         b: np.ndarray) -> np.ndarray:
    """Sorted members of A + B = {x + y} for two additive subgroups A and B.

    When the sums of A with the members of B outside A fit one block
    (`rings.CHUNK`), one pass forms them all.  Above that, A grows by cyclic
    subgroups of B, in about |A + B| sums however few cosets of A the
    members of B fall into (`_subgroup_sum_by_cycles`)."""
    seen = np.zeros(ring.order, dtype=bool)
    seen[a] = True                 # A + 0
    b = b[~seen[b]]                # y ∈ A adds nothing new: A + y = A
    if a.size * b.size > CHUNK:
        return _subgroup_sum_by_cycles(ring, a, b)
    seen[ring.add_arr(a[:, None], b[None, :])] = True
    return np.flatnonzero(seen)


def _subgroup_sum_by_cycles(ring: FiniteRing, a: np.ndarray,
                            b: np.ndarray) -> np.ndarray:
    """Sorted members of A + B, grown from the span S = A by one cyclic
    subgroup ⟨y⟩ at a time, y the least member of B not reached yet.

    S + ⟨y⟩ is the disjoint union of the cosets S + k·y for k < t, t the
    least k ≥ 1 with k·y ∈ S, so each step forms each of its |S|·t members
    once.  The span at least doubles per step, so the chain makes fewer
    than 2·|A + B| sums in all."""
    seen = np.zeros(ring.order, dtype=bool)
    seen[a] = True
    span = np.flatnonzero(seen)
    rest = b[~seen[b]]
    while rest.size:
        multiples = _cyclic_multiples(ring, int(rest[0]), seen)
        for start, stop in blocks(span.size, multiples.size):
            seen[ring.add_arr(span[start:stop, None], multiples[None, :])] = True
        span = np.flatnonzero(seen)
        rest = rest[~seen[rest]]
    return span


def _cyclic_multiples(ring: FiniteRing, y: int, seen: np.ndarray) -> np.ndarray:
    """0, y, 2y, …, (t − 1)·y for the least t ≥ 1 with t·y in the subgroup
    marked in `seen`, by doubling: k·y for m ≤ k < 2m is m·y plus the
    multiples below m."""
    multiples = np.array([ring.zero], dtype=np.int64)
    step = y                       # multiples.size · y
    while True:
        more = ring.add_arr(multiples, step)
        back = np.flatnonzero(seen[more])
        if back.size:
            return np.concatenate([multiples, more[:back[0]]])
        multiples = np.concatenate([multiples, more])
        step = ring.add(step, step)


def _principal_indices(ring: FiniteRing, a: int) -> np.ndarray:
    return _distinct_indices(
        ring.order, ring.mul_arr(np.arange(ring.order, dtype=np.int64), a))


def principal_ideal(ring: FiniteRing, a: int) -> Ideal:
    idx = _principal_indices(ring, a)
    return Ideal(ring, mask_from_indices(idx, ring.order), (a,) if a != ring.zero else ())


def ideal_generated_by(ring: FiniteRing, gens) -> Ideal:
    """Smallest ideal containing gens: R·g1 + R·g2 + …, listing as its
    generators the ones that grew the span."""
    idx, kept = _grow_span(ring, (int(g) for g in gens), ring.order)
    return Ideal(ring, mask_from_indices(idx, ring.order), tuple(kept), idx)


def _grow_span(ring: FiniteRing, gens, target: int) -> tuple[np.ndarray, list[int]]:
    """Members of R·g1 + R·g2 + …, adding one principal ideal at a time in
    the order given and skipping a generator the span already holds; stops
    once the span has `target` members.  Returns the span and the generators
    that grew it."""
    span = np.array([ring.zero], dtype=np.int64)
    inside = np.zeros(ring.order, dtype=bool)
    inside[span] = True
    kept: list[int] = []
    for g in gens:
        if span.size >= target:
            break
        if inside[g]:
            continue
        kept.append(g)
        span = subgroup_sum_indices(ring, span, _principal_indices(ring, g))
        inside[span] = True
    return span, kept


def _require_same_ring(i: Ideal, j: Ideal) -> None:
    if i.ring is not j.ring:
        raise RingBuildError("ideal operands belong to different rings")


def ideal_sum(i: Ideal, j: Ideal) -> Ideal:
    _require_same_ring(i, j)
    if i.mask == j.mask or (i.mask | j.mask) == i.mask:
        return Ideal(i.ring, i.mask, i.gens)
    if (i.mask | j.mask) == j.mask:
        return Ideal(j.ring, j.mask, j.gens)
    idx = subgroup_sum_indices(i.ring, i.indices, j.indices)
    gens = tuple(dict.fromkeys(i.gens + j.gens))
    return Ideal(i.ring, mask_from_indices(idx, i.ring.order), gens)


def ideal_product(i: Ideal, j: Ideal) -> Ideal:
    """I·J is generated by the products g·h of the generators of I and J."""
    _require_same_ring(i, j)
    prods = i.ring.mul_arr(np.array(i.gens, dtype=np.int64)[:, None],
                           np.array(j.gens, dtype=np.int64)[None, :])
    return ideal_generated_by(i.ring, prods.ravel().tolist())


def ideal_intersection(i: Ideal, j: Ideal) -> Ideal:
    _require_same_ring(i, j)
    mask = i.mask & j.mask
    return Ideal(i.ring, mask, minimal_generators(i.ring, mask))


def ideal_quotient(i: Ideal, j: Ideal) -> Ideal:
    """(I : J) = {r : rJ ⊆ I}."""
    _require_same_ring(i, j)
    ring = i.ring
    n = ring.order
    member = np.zeros(n, dtype=bool)
    member[i.indices] = True
    jdx = j.indices
    keep = np.zeros(n, dtype=bool)
    for start, stop in blocks(n, jdx.size, CACHE_BLOCK):
        rows = np.arange(start, stop, dtype=np.int64)
        keep[rows] = member[ring.mul_arr(rows[:, None], jdx[None, :])].all(axis=1)
    idx = np.nonzero(keep)[0]
    mask = mask_from_indices(idx, n)
    return Ideal(ring, mask, minimal_generators(ring, mask))


def annihilator(i: Ideal) -> Ideal:
    return ideal_quotient(Ideal(i.ring, 1, ()), i)


def minimal_generators(ring: FiniteRing, mask: int) -> tuple[int, ...]:
    """Greedy minimal generator list: scan members ascending, keep the ones
    not yet inside the span of what was kept."""
    if mask == 1:
        return ()
    members = indices_from_mask(mask, ring.order)
    span, gens = _grow_span(ring, members.tolist(), members.size)
    if mask_from_indices(span, ring.order) != mask:
        raise ConsistencyError(f"{ring.name}: mask {mask:#x} is not an ideal")
    return tuple(gens)


class IdealLattice:
    """All ideals of a ring, sorted by (size, mask), with lattice metadata.
    `join[i, c]` is the id of ideals[i] + P for the principal ideal P of
    column c, and `princ_col[x]` is the column of R·x."""

    def __init__(self, ring: FiniteRing, ideals: list[Ideal], join: np.ndarray,
                 princ_col: np.ndarray):
        self.ring = ring
        self.ideals = ideals
        self.join = join
        self.princ_col = princ_col
        self.by_mask = {i.mask: pos for pos, i in enumerate(ideals)}
        ids = np.arange(len(ideals))
        proper = ids != ids[-1]
        inside = join == ids[:, None]          # column P lies inside ideal i
        principal = np.zeros(len(ideals), dtype=bool)
        principal[join[0]] = True              # 0 + P = P for every column
        # an atom is generated by any of its nonzero elements, so it is a
        # principal ideal holding no principal ideal but 0 and itself
        atom = principal & proper & (np.count_nonzero(inside, axis=1) == 2)
        self.atoms = [ideals[i] for i in np.flatnonzero(atom)]

    def __len__(self) -> int:
        return len(self.ideals)

    def ideal_id(self, ideal: Ideal) -> int:
        pos = self.by_mask.get(ideal.mask)
        if pos is None:
            raise ConsistencyError(f"{self.ring.name}: ideal missing from lattice")
        return pos


def principal_ideal_masks(ring: FiniteRing) -> list[int]:
    """Mask of the principal ideal R·a for every element a, cached: read from
    `rings.associate_sweep`, one product row per associate class."""
    return associate_sweep(ring)[1]


def enumerate_ideals(ring: FiniteRing) -> IdealLattice:
    """Complete ideal lattice: every ideal is a sum of principal ideals, so
    adding each principal ideal to each ideal found reaches them all.

    The columns are the principal ideals, read once per associate class.
    A join entry W + P takes a subgroup sum only when no filed row answers
    it: the union W | P when that is an ideal, P + W from P's row when W is
    principal, (W′ + P) + P′ when W was first found as W′ + P′ (and once
    more for W′ + P), or the entry of W's own row that holds W | P and has
    the size |W|·|P| / |W ∩ P| of W + P.  So a sum is taken almost only for
    a new ideal.  Generators are walked along the rows (`_walk_generators`),
    so the lattice does no ring arithmetic after its sums."""
    return ring.memo("lattice", lambda: _build_lattice(ring))


def _build_lattice(ring: FiniteRing) -> IdealLattice:
    n = ring.order
    if n > LATTICE_LIMIT:
        raise BoundExceededError(
            f"ideal enumeration limited to order {LATTICE_LIMIT}; {ring.name} "
            f"has order {n}")
    pmasks = principal_ideal_masks(ring)
    leader = associate_leaders(ring)
    leaders = np.flatnonzero(leader == np.arange(n))
    # the principal ideals, one column each in the order of their least
    # element, read at the associate class leaders: R·(ua) = R·a
    col_of: dict[int, int] = {}
    lead_col = np.zeros(n, dtype=np.int64)
    lead_col[leaders] = [col_of.setdefault(pmasks[a], len(col_of))
                         for a in leaders.tolist()]
    princ_col = lead_col[leader]
    cols = list(col_of)
    col_size = [p.bit_count() for p in cols]
    # mask -> member indices, so a sum never re-decodes its summands
    seen = {m: indices_from_mask(m, n) for m in cols}
    rows: dict[int, list] = {}             # mask of I -> masks of I + P
    unfiled = [None] * len(cols)           # the row of an ideal not reached yet
    parent: dict[int, tuple[int, int]] = {}  # W -> (W', c') with W = W' + P_c'
    queue = list(seen)
    for w in queue:                        # grows as new ideals turn up
        row = rows[w] = unfiled.copy()
        size = w.bit_count()
        filed: dict[int, int] = {}         # W's row so far: mask -> size
        for c, p in enumerate(cols):
            m = union = w | p              # I + P when the union is an ideal
            if m not in seen and p in rows and w in col_of:
                m = rows[p][col_of[w]]     # P + W, filed in P's row
            # W + P = (W' + P) + P', read from the row of W' + P; while that
            # row is unfiled, W' + P is split the same way once more
            x, cx = w, c
            for _ in range(2):
                if m in seen or x not in parent:
                    break
                x0, c0 = parent[x]
                x, cx = rows[x0][cx], c0   # None while W's own row is open
                m = rows.get(x, unfiled)[cx]
            if m not in seen:
                # |W + P| = |W|·|P| / |W ∩ P|, and an ideal of that size
                # holding W and P is W + P
                want = size * col_size[c] // (w & p).bit_count()
                m = next((v for v, k in filed.items()
                          if k == want and v & union == union), None)
                if m is None:
                    idx = subgroup_sum_indices(ring, seen[w], seen[p])
                    m = mask_from_indices(idx, n)
                    if m not in seen:
                        seen[m] = idx
                        parent[m] = (w, c)
                        queue.append(m)
            row[c] = m
            if m not in filed:
                filed[m] = m.bit_count()
    order_key = sorted(seen, key=lambda m: (m.bit_count(), m))
    pos = {m: i for i, m in enumerate(order_key)}
    princ = princ_col.tolist()
    ideals = [Ideal(ring, m, _walk_generators(ring, m, rows, princ), seen[m])
              for m in order_key]
    join = np.array([[pos[m] for m in rows[w]] for w in order_key], dtype=np.int64)
    return IdealLattice(ring, ideals, join, princ_col)


def _walk_generators(ring: FiniteRing, mask: int, rows: dict[int, list[int]],
                     princ: list[int]) -> tuple[int, ...]:
    """`minimal_generators` read from the lattice's join rows: from 0, add
    R·g for the least member g outside the span until the span is `mask`."""
    cur, gens = 1, []
    while cur != mask:
        rest = mask & ~cur
        g = (rest & -rest).bit_length() - 1
        gens.append(g)
        cur = rows[cur][princ[g]]
        if cur | mask != mask:
            raise ConsistencyError(f"{ring.name}: mask {mask:#x} is not an ideal")
    return tuple(gens)


def is_principal(ideal: Ideal) -> tuple[bool, int | None]:
    """True with a witness generator iff some single element generates I.

    Reads the principal masks of all elements, so only at lattice scale;
    the deciders test the generators instead (Nakayama).
    """
    ring = ideal.ring
    if ring.order > LATTICE_LIMIT:
        raise BoundExceededError(
            f"principality by member scan is limited to order {LATTICE_LIMIT}; "
            f"{ring.name} has order {ring.order}")
    if ideal.is_zero():
        return True, ring.zero
    pmasks = principal_ideal_masks(ring)
    for a in ideal.indices.tolist():
        if a != ring.zero and pmasks[a] == ideal.mask:
            return True, a
    return False, None


def is_regular_ideal(ideal: Ideal) -> bool:
    """An ideal is regular iff it contains a non-zerodivisor (= a unit here)."""
    return bool(element_units(ideal.ring)[ideal.indices].any())


def is_invertible(ideal: Ideal) -> bool:
    """Invertible: some J with I·J principal and generated by a regular element.

    The general definition is evaluated against the full lattice, and the
    finite-ring collapse invertible ⇔ regular ⇔ I = R is asserted rather than
    assumed; disagreement raises ConsistencyError.  No decider calls this: it
    is the test oracle for the collapse that decide_pruefer relies on.
    """
    ring = ideal.ring
    lattice = enumerate_ideals(ring)
    invertible = False
    units = element_units(ring)
    for j in lattice.ideals:
        ok, gen = is_principal(ideal_product(ideal, j))
        if ok and gen is not None and units[gen]:
            invertible = True
            break
    collapse = ideal.is_unit_ideal()
    regular = is_regular_ideal(ideal)
    if invertible != collapse or regular != collapse:
        raise ConsistencyError(
            f"{ring.name}: invertible/regular/unit-ideal collapse failed for "
            f"ideal of size {ideal.size}")
    return invertible


def is_local(ring: FiniteRing) -> Ideal | None:
    """The unique maximal ideal when one exists, else None.

    A finite commutative ring is local iff 1 is its only primitive
    idempotent, so a ring with more is answered at once, with no lattice;
    otherwise the maximal ideal is that of its single local factor
    (`local_factors`), where the closure invariant is checked.
    """
    if len(primitive_idempotents(ring)) > 1:
        return None
    return local_factors(ring)[0].maximal


def coset_minima(ring: FiniteRing, idx: np.ndarray) -> np.ndarray:
    """min(x + I) for every element x, where `idx` lists the members of an
    additive subgroup I in ascending order.

    Sweeps a chain of subgroups 0 = H₀ ⊂ H₁ ⊂ … ⊂ I, keeping rep[x] =
    min(x + H) for the subgroup H spanned so far.  Since 0 is the least
    index, rep[y] = 0 iff y ∈ H; a generator g ∈ H adds nothing and is
    skipped.  Otherwise let t be the first s ≥ 1 with s·g ∈ H.  rep is
    H-invariant and t·g ∈ H, so s ↦ rep[x + s·g] has period t, and any t
    consecutive s span the coset x + H + ⟨g⟩.  Doubling windows, rep ←
    min(rep, rep[x + w·g]) for w = 1, 2, 4, … while w < t, reach that span
    in ⌈log₂ t⌉ gathers: n·⌈log₂ t⌉ additions per generator, at most
    n·(log₂|I| + number of generators) in all.
    """
    n = ring.order
    cols = np.arange(n, dtype=np.int64)
    rep = cols.copy()
    size = 1                                   # |H|
    for g in idx.tolist():
        if size == idx.size:
            break
        if rep[g] == 0:
            continue
        shift, t = g, 1                        # shift = t·g
        while rep[shift] != 0:
            shift = ring.add(shift, g)
            t += 1
        shift, w = g, 1                        # shift = w·g
        while w < t:
            # the gather copies rep before the in-place minimum writes it
            np.minimum(rep, rep[ring.add_arr(cols, shift)], out=rep)
            shift = ring.add(shift, shift)
            w *= 2
        size *= t
    return rep


def _coset_layout(ring: FiniteRing, ideal: Ideal) -> tuple[np.ndarray, np.ndarray]:
    """The ascending minimal coset representatives of R/I and the coset id
    of every element."""
    rep_of = coset_minima(ring, ideal.indices)
    reps = np.flatnonzero(rep_of == np.arange(ring.order))
    return reps, np.searchsorted(reps, rep_of)


def make_quotient(ring: FiniteRing, ideal: Ideal,
                  spec: RingSpec | None = None) -> tuple[QuotientRing, RingHom]:
    """Quotient on minimal coset representatives plus the projection hom."""
    if ideal.ring is not ring:
        raise RingBuildError("quotient ideal belongs to a different ring")
    if ideal.is_unit_ideal():
        raise RingBuildError("cannot quotient by the unit ideal")
    reps, coset_id = _coset_layout(ring, ideal)
    if spec is None and ring.spec is not None:
        spec = RingSpec("quotient", (tuple(ideal.gen_literals()),), (ring.spec,))
    quotient = QuotientRing(ring, reps, coset_id, spec)
    return quotient, RingHom(ring, quotient, coset_id)


def quotient_module(base: FiniteRing, ideal: Ideal,
                    spec: ModuleSpec | None = None) -> FiniteModule:
    """The module A/I with A acting through the projection (so I·(A/I) = 0)."""
    if ideal.ring is not base:
        raise RingBuildError("quotient module ideal belongs to a different ring")
    if ideal.is_unit_ideal():
        raise RingBuildError("cannot build the zero quotient module A/A")
    n = base.order
    reps, coset = _coset_layout(base, ideal)
    madd = coset[base.add_arr(reps[:, None], reps[None, :])]
    mneg = coset[base.neg_arr(reps)]
    act = coset[base.mul_arr(np.arange(n, dtype=np.int64)[:, None], reps[None, :])]
    if spec is None:
        spec = ModuleSpec("quot_module", (tuple(ideal.gen_literals()),), (base.spec,))

    def encode(lit):
        return int(coset[base.encode_literal(lit)])

    def decode(i):
        return base.decode_literal(int(reps[i]))

    return FiniteModule(base, madd, mneg, act, spec, encode, decode)


def residue_vector_space(base: FiniteRing, maximal: Ideal, n: int) -> FiniteModule:
    """(A/M)ⁿ as an A-module; free over A when A is a field (M = 0)."""
    if n < 1:
        raise RingBuildError("residue space dimension must be >= 1")
    if maximal.is_zero():
        return free_module(base, n)
    column = quotient_module(base, maximal)
    out = column
    for _ in range(n - 1):
        out = module_sum(out, column)
    return out


def localize_at(ring: FiniteRing, maximal: Ideal) -> tuple[QuotientRing, RingHom]:
    """R_m for finite R: R/K for the power K at which m ⊇ m² ⊇ … stops,
    ker(R → R_m), since m is n × (the other factors) for the nilpotent
    maximal ideal n of R_m (Atiyah–Macdonald, Thm 8.7)."""
    return ring.memo(("localizations", maximal.mask),
                     lambda: _localize(ring, maximal))


def _localize(ring: FiniteRing, maximal: Ideal) -> tuple[QuotientRing, RingHom]:
    _require_maximal(ring, maximal)
    kernel, power = maximal, ideal_product(maximal, maximal)
    while power.mask != kernel.mask:
        kernel, power = power, ideal_product(power, maximal)
    # K's minimal generators, not the products that reached it, name R/K
    return make_quotient(ring, Ideal(ring, kernel.mask,
                                     minimal_generators(ring, kernel.mask)))


def _require_maximal(ring: FiniteRing, ideal: Ideal) -> None:
    if ideal.ring is not ring:
        raise RingBuildError("ideal belongs to a different ring")
    if all(f.maximal.mask != ideal.mask for f in local_factors(ring)):
        raise RingBuildError("ideal is not maximal")


def maximal_ideals(ring: FiniteRing) -> list[Ideal]:
    return [f.maximal for f in local_factors(ring)]


def push_ideal(hom: RingHom, ideal: Ideal) -> Ideal:
    """Image of an ideal under a surjective hom (already an ideal there)."""
    target = hom.target
    idx = _distinct_indices(target.order, hom.map[ideal.indices])
    mask = mask_from_indices(idx, target.order)
    gens = tuple(dict.fromkeys(
        int(hom.map[g]) for g in ideal.gens if hom.map[g] != target.zero))
    return Ideal(target, mask, gens)


class LocalFactor(NamedTuple):
    """The localization R_m read as a corner eR of R, with the facts of eR
    and of n = m ∩ eR that the deciders read (`local_factors`)."""

    maximal: Ideal
    idempotent: int
    corner: int
    order: int
    residue: int
    principal: bool
    atom_count: int
    square_zero: bool


def local_factors(ring: FiniteRing) -> list[LocalFactor]:
    """One record per maximal ideal, cached: the one home of locality, of
    the maximal ideals (`is_local`, `maximal_ideals`) and of factor facts.

    R is the product of its corners eR over its primitive idempotents e,
    and r ↦ e·r is the projection onto the factor R_m whose maximal ideal m
    is the one that misses e (Atiyah–Macdonald, Thm 8.7).  So m is
    (1 − e)R plus the non-units of eR, i.e. {r : e·r + (1 − e) is not a
    unit}, read from the certified partition, and the corner eR is the
    principal mask of e.  A local ring is its own factor: e = 1, eR = R and
    m the non-units.  No lattice is read, so every ring gets its factors at
    any order.  The factors come in the lattice's order, by the (size,
    mask) of m, and m's generators from `minimal_generators`, the greedy
    list the lattice walks too.

    The rest of a record is read from one product row x·(e·g) over eR per
    generator g of m.  R·(e·g) = eR·(e·g) lies in n, and the e·g generate
    n, so by Nakayama n is principal iff it is 0 or one row takes all |n|
    values.  The socle is where every row is zero: eR itself for a field,
    and inside n otherwise (a unit there would kill n).  So the minimal
    nonzero ideals, the lines of soc ∩ n over eR/n, number
    atom_count = (|soc ∩ n| − 1)/(q − 1), none for a field, and n² = 0 iff
    n lies in the socle, i.e. iff |soc ∩ n| = |n|.

    A product A × B reads its records from those of A and B (`_lifted`),
    with no scan: each record of A lifts to the maximal ideal m × B, with
    idempotent (e, 0) and corner eA × 0, and each record of B to A × m′,
    with (0, f) and 0 × fB; order, residue, `principal`, `atom_count` and
    `square_zero` are the factor's, since the corner is the same ring.

    Runtime invariants: the primitive idempotents sum to 1, each m is an
    ideal (the span that `minimal_generators` grows from its members is m
    itself, or for a product each lifted m is {r : e·r + (1 − e) is not a
    unit}), and each socle is a space over its residue field.  Any of them
    failing raises ConsistencyError.
    """
    return ring.memo("local_factors", lambda: _local_factors(ring))


def _local_factors(ring: FiniteRing) -> list[LocalFactor]:
    if isinstance(ring, ProductRing):
        factors = _lifted(ring)
        idempotents = [f.idempotent for f in factors]
        _check_sum(ring, idempotents)
        for f, row in zip(factors, _misses(ring, idempotents)[1]):
            if mask_from_bits(row) != f.maximal.mask:
                raise ConsistencyError(
                    f"{ring.name}: a maximal ideal lifted from a factor is not "
                    "the one that misses its idempotent")
            f.maximal._indices = np.flatnonzero(row)   # m's members, checked
    else:
        idempotents = primitive_idempotents(ring).tolist()
        _check_sum(ring, idempotents)
        factors = [_scanned(ring, e) for e in idempotents]
    return sorted(factors, key=lambda f: (f.maximal.size, f.maximal.mask))


def _check_sum(ring: FiniteRing, idempotents: list[int]) -> None:
    """The primitive idempotents sum to 1, so R is the product of their
    corners."""
    total = ring.zero
    for e in idempotents:
        total = ring.add(total, e)
    if total != ring.one:
        raise ConsistencyError(
            f"{ring.name}: its {len(idempotents)} primitive idempotents do not "
            "sum to 1")


def _misses(ring: FiniteRing, e) -> tuple[np.ndarray, np.ndarray]:
    """The projection r ↦ e·r onto the corner eR, and {r : e·r + (1 − e)
    is not a unit} as a boolean array: e·r + (1 − e) is a unit of R iff
    e·r is a unit of eR, so this is the maximal ideal that misses the
    primitive idempotent e.  A list of idempotents gives one row each."""
    e = np.asarray(e, dtype=np.int64)[..., None]
    image = ring.mul_arr(e, np.arange(ring.order, dtype=np.int64))
    complement = ring.add_arr(ring.one, ring.neg_arr(e))       # 1 − e
    return image, ~element_units(ring)[ring.add_arr(image, complement)]


def _scanned(ring: FiniteRing, e: int) -> LocalFactor:
    """The record of the factor eR, read from R's own products."""
    image, in_maximal = _misses(ring, e)
    members = np.flatnonzero(in_maximal)
    mask = mask_from_indices(members, ring.order)
    maximal = Ideal(ring, mask, minimal_generators(ring, mask), members)
    elements = _distinct_indices(ring.order, image)
    in_n = in_maximal[elements]            # n = m ∩ eR, over eR
    size, n_size = elements.size, int(np.count_nonzero(in_n))
    principal, socle = n_size == 1, np.ones(size, dtype=bool)
    for g in maximal.gens:
        row = ring.mul_arr(elements, ring.mul(e, g))
        socle &= row == ring.zero
        principal |= _distinct_indices(ring.order, row).size == n_size
    in_socle = int(np.count_nonzero(socle & in_n))
    atoms, rest = divmod(in_socle - 1, size // n_size - 1)
    if rest:
        raise ConsistencyError(
            f"{ring.name}: socle of a local factor of order {size} is not "
            "a space over its residue field")
    return LocalFactor(maximal, e, mask_from_indices(elements, ring.order),
                       size, size // n_size, principal, atoms,
                       in_socle == n_size)


def _lifted(ring: ProductRing) -> list[LocalFactor]:
    """The records of A × B lifted from the cached records of A and B.

    The generators need no span growth.  Every ideal of A × B is I × J,
    and R·(a, b) = Aa × Bb, so the span of a list of pairs is (span of
    their first parts) × (span of their second parts).  The greedy scan of
    I × J visits (0, b) for b ∈ J first, in ascending order, and (0, b)
    lies in the span 0 × S iff b ∈ S: those steps are the greedy scan of J,
    and they end at 0 × J.  From there every member (a, b) with a ∈ S′
    lies in the span S′ × J, and the least one outside is (a, 0) for the
    least a ∈ I outside S′, which adds Aa × 0: those steps are the greedy
    scan of I.  So the greedy generators of I × J are (0, g) for those of J,
    then (g, 0) for those of I.  For m × B, J is B itself
    (`_unit_ideal_generators`) and I = m; for A × m′, J = m′ and I = A.
    The masks are int products: X × Y is the mask of X × 0 (bit a·|B| for
    each a ∈ X) times the mask of Y, whose |B| bits fill one block.
    """
    left, right, m = ring.left, ring.right, ring.right.order
    full_right = (1 << m) - 1
    lifted = [f._replace(
        maximal=Ideal(ring, _spread(ring, f.maximal.mask) * full_right,
                      _unit_ideal_generators(right)
                      + tuple(g * m for g in f.maximal.gens)),
        idempotent=f.idempotent * m, corner=_spread(ring, f.corner))
        for f in local_factors(left)]
    full_left = ((1 << ring.order) - 1) // full_right   # Σ 2^(a·|B|), a ∈ A
    left_gens = tuple(g * m for g in _unit_ideal_generators(left))
    lifted += [f._replace(maximal=Ideal(ring, full_left * f.maximal.mask,
                                        f.maximal.gens + left_gens))
               for f in local_factors(right)]
    return lifted


def _spread(ring: ProductRing, mask: int) -> int:
    """The mask of X × 0 in A × B from the mask of X ⊆ A: bit a·|B| for
    each a ∈ X, i.e. the binary digits of X with |B| − 1 zeros between
    each two."""
    digits = format(mask, f"0{ring.left.order}b")
    return int(("0" * (ring.right.order - 1)).join(digits), 2)


def _unit_ideal_generators(ring: FiniteRing) -> tuple[int, ...]:
    """The greedy generators of R itself, cached: for A × B those of B
    and then of A, lifted (`_lifted`), and otherwise `minimal_generators`."""
    def build():
        if isinstance(ring, ProductRing):
            m = ring.right.order
            return _unit_ideal_generators(ring.right) + tuple(
                g * m for g in _unit_ideal_generators(ring.left))
        return minimal_generators(ring, (1 << ring.order) - 1)
    return ring.memo("unit_ideal_generators", build)


def complement_idempotent(ring: FiniteRing, e: int) -> int:
    """1 − e; for a primitive idempotent e, (1 − e)R is the kernel of the
    projection r ↦ e·r onto the factor eR, so R/(1 − e)R ≅ eR ≅ R_m."""
    return ring.add(ring.one, int(ring.neg_arr(e)))


def is_locally_principal(ideal: Ideal) -> tuple[bool, dict | None]:
    """Principal in every localization R_m, each read as a corner eR.

    The image of I in eR ≅ R_m is eI = I ∩ eR, a mask AND.  It is generated
    by the e·g for the generators g of I, so by Nakayama it is principal iff
    one of them alone generates it, i.e. iff the principal mask of some e·g
    equals I ∩ eR.  Returns (verdict, counterexample), where the
    counterexample names the first maximal ideal whose factor receives a
    non-principal image, with the orders of that image (`pushed_order`) and
    of the factor (`localization_order`).  Reads the principal masks, so
    only at lattice scale.
    """
    ring = ideal.ring
    pmasks = principal_ideal_masks(ring)
    for f in local_factors(ring):
        image = ideal.mask & f.corner
        if image != 1 and not any(pmasks[ring.mul(f.idempotent, g)] == image
                                  for g in ideal.gens):
            return False, {"maximal": f.maximal, "localization_order": f.order,
                           "pushed_order": image.bit_count()}
    return True, None


def first_nonprincipal_maximal(ring: FiniteRing) -> LocalFactor | None:
    """The first local factor whose maximal ideal n = m ∩ eR is not
    principal, or None, read from the cached records (`local_factors`).  R
    is arithmetical iff it is None: each R_m must be a chain ring (Jensen,
    Acta Math. Hungar. 17, 1966), and an Artinian local ring is one iff n
    is principal (Atiyah–Macdonald, Prop. 8.8).  No lattice is read, so
    every ring is decided at any order."""
    return next((f for f in local_factors(ring) if not f.principal), None)


def has_square_zero_maximal(ring: FiniteRing) -> bool:
    """Local with N² = 0; every polynomial over such a ring is Gaussian.

    Soundness: any polynomial has content R or content inside N (the ring is
    local).  Unit-content polynomials are Gaussian because Dedekind–Mertens
    collapses to c(fg) = c(g).  For f with coefficients in N, a g with unit
    content reduces to the previous case applied to g, while a g with
    coefficients in N gives fg coefficients inside N² = 0, so both sides of
    c(fg) = c(f)c(g) vanish.  Read from the ring's one local factor record.
    """
    return is_local(ring) is not None and local_factors(ring)[0].square_zero


def ideal_count(ring: FiniteRing) -> int:
    """The number of ideals of R, cached.

    An arithmetical ring is read from its corners, with no lattice: each
    corner eR is a chain ring whose ideals are the t + 1 powers of its
    maximal ideal n = m ∩ eR, each step a line over eR/n, so
    |eR| = q^t for q = |eR/n|; and the ideals of R are the products of
    the corners' ideals (Atiyah–Macdonald, Thm 8.7).  No lattice is read,
    so any order is answered.  A corner whose order is not a power of q
    raises ConsistencyError, and so does a ring that is not arithmetical:
    the deciders ask only arithmetical rings, and replay counts the chains
    of its localizations.
    """
    return ring.memo("ideal_count", lambda: _ideal_count(ring))


def _ideal_count(ring: FiniteRing) -> int:
    if first_nonprincipal_maximal(ring) is not None:
        raise ConsistencyError(
            f"{ring.name}: ideal count asked of a ring that is not "
            "arithmetical")
    count = 1
    for f in local_factors(ring):
        size, length = f.order, 0
        while size % f.residue == 0:
            size //= f.residue
            length += 1
        if size != 1:
            raise ConsistencyError(
                f"{ring.name}: a chain-ring corner's order is not a power of "
                "its residue field's")
        count *= length + 1
    return count


def least_generator_count(ideal: Ideal) -> int:
    """μ(I), the fewest elements that generate I, read from the lattice.

    On each local factor, a corner eR with maximal ideal n = m ∩ eR, the
    space (I ∩ eR)/(m·I ∩ eR) over eR/n has dimension μ(I ∩ eR) (Nakayama),
    and generators of the factors' images combine into generators of I.
    m·I is the span of the products of generators, summed along the join
    table.
    """
    ring = ideal.ring
    lattice = enumerate_ideals(ring)
    count = 0
    for f in local_factors(ring):
        span = 0                           # the zero ideal sorts first
        for g in f.maximal.gens:
            for h in ideal.gens:
                span = lattice.join[span, lattice.princ_col[ring.mul(g, h)]]
        quotient = ((ideal.mask & f.corner).bit_count()
                    // (lattice.ideals[span].mask & f.corner).bit_count())
        dim = 0
        while quotient > 1:
            quotient //= f.residue
            dim += 1
        count = max(count, dim)
    return count


def zero_ideal_locally_irreducible(ring: FiniteRing) -> tuple[bool, list[dict]]:
    """Is the zero ideal irreducible in every localization at a maximal ideal?

    Each local factor R_m is read as its corner eR (`local_factors`), whose
    record counts the atoms of its socle; the zero ideal is irreducible iff
    there is at most one.  No lattice is built, so every ring, local or
    not, is answered at any order.  Replay (`certs`) counts the atoms of
    each localization's socle from every member of its maximal ideal.
    """
    detail = [{
        "maximal_gens": f.maximal.gen_literals(),
        "localization_order": f.order,
        "atom_count": f.atom_count,
        "field_like": f.residue == f.order,
        "irreducible": f.atom_count <= 1,
    } for f in local_factors(ring)]
    return all(d["irreducible"] for d in detail), detail


class ContentCalculus:
    """Vectorised ideal-id arithmetic for polynomial content computations.

    Maps every ring element to the lattice id of its principal ideal, reads
    contents from the lattice's join table, keeps a k × k product table whose
    rows are filled on first use (the one cache of `ideal_product`), and
    evaluates batched content comparisons without touching bitmasks in inner
    loops.
    """

    def __init__(self, ring: FiniteRing):
        self.ring = ring
        self.lattice = lattice = enumerate_ideals(ring)
        k = len(lattice)
        self.zero_id = 0
        self.princ_id = lattice.join[0, lattice.princ_col]
        # row a is valid once _filled[a]; unfilled rows are never read
        self._prod = np.empty((k, k), dtype=np.int64)
        self._filled = np.zeros(k, dtype=bool)

    def prod_row(self, a: int) -> np.ndarray:
        if not self._filled[a]:
            lattice = self.lattice
            self._prod[a] = [lattice.ideal_id(ideal_product(lattice.ideals[a], j))
                             for j in lattice.ideals]
            self._filled[a] = True
        return self._prod[a]

    def prod_ids(self, a_ids: np.ndarray, b_ids: np.ndarray) -> np.ndarray:
        """Elementwise ideal products of two id arrays."""
        a_ids = np.asarray(a_ids, dtype=np.int64)
        wanted = np.zeros_like(self._filled)
        wanted[a_ids] = True
        for a in np.flatnonzero(wanted & ~self._filled).tolist():
            self.prod_row(a)
        return self._prod[a_ids, np.asarray(b_ids, dtype=np.int64)]

    def content_ids(self, coeff_cols: list[np.ndarray]) -> np.ndarray:
        """Content ideal ids for a batch of polynomials given as coefficient
        columns (one array per degree slot, equal lengths)."""
        if not coeff_cols:
            return np.array([], dtype=np.int64)
        join, princ_col = self.lattice.join, self.lattice.princ_col
        acc = self.princ_id[np.asarray(coeff_cols[0], dtype=np.int64)]
        for col in coeff_cols[1:]:
            acc = join[acc, princ_col[np.asarray(col, dtype=np.int64)]]
        return acc


def content_calculus(ring: FiniteRing) -> ContentCalculus:
    return ring.memo("content_calc", lambda: ContentCalculus(ring))
