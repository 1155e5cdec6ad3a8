"""Polynomials over finite rings: content ideals and Gaussian certification.

A polynomial is Gaussian when c(fg) = c(f)·c(g) for every g, where c(·) is
the ideal generated by the coefficients.  Exact certification uses three
sound structural rules; everything else is settled by bounded exhaustive
search whose verdicts carry their bound.  The unit-content and
square-zero rules read the local factor records (`ideals.local_factors`),
the one home of per-factor facts.  Searches run vectorised over the ring's
ideal lattice: each coefficient tuple maps to the lattice id of its
content, so comparing millions of candidate products stays cheap.

Polynomial enumeration order (pinned; witnesses in reports depend on it):
by degree ascending, then lexicographically on the coefficient tuple read
from the leading coefficient down to the constant, leading coefficient
nonzero.  The Gaussian searches enumerate non-unit coefficients only: by
Dedekind–Mertens a g of unit content never violates c(fg) = c(f)c(g), so the
first violation is unchanged.  The single-polynomial search also takes its
leading coefficients from the associate-class leaders only: for a unit u,
u·g has the content of g and f·ug that of fg, so if g violates so does ug,
which has the same degree and only non-unit coefficients; the first
violation therefore leads with the least element of its class.  More
generally, for units u, v and any c the substitution φ: x ↦ vx + c is an
automorphism of R[x] with c(φh) = c(h), so f and u·f(vx + c) have the same
status, and a violating g for f becomes the violating g(vx + c) for
u·f(vx + c); a run of candidates needs one search per orbit of these maps,
and the witnesses of the refuted orbits are carried to all their other
members in one columnwise pass (`orbit_verdicts`).
A constant factor a never violates either, since c(a·g) = (a)·c(g), so
the witness search starts at degree 1 and the pair search counts the pairs
with a constant factor without evaluating them.  Caps and bounds still
count the full order.  The pair search runs on one local factor eR, where
its candidates are the polynomials over n = e·m, all of proper content:
it takes their counts in closed form, charges its budget per degree up
front on those counts, and decodes a degree's candidate table only when a
pair of two non-constant degrees first evaluates it.

Both searches stop at their first violation and evaluate their candidates
in growing blocks (`rings.blocks` with ``grow``): the first block holds
about 1,024 elements, or one row of pairs when a row is wider, each later
one doubles up to the full budget, and a remainder smaller than the next
block joins the block before it.  The blocks are contiguous and run in the
pinned order, so the first violation, and the totals of a search that runs
to its end, do not depend on the block sizes.  The witness candidates do
not depend on f: a degree whose candidates fit one block is decoded, with
its content ids, once per ring (`_witness_block`).

Every violation claimed, by a search hit or by a carried witness, is
re-checked on its own f and g by one batched kernel (`_verify_violations`)
before any caller sees it: some product fᵢgⱼ must lie outside the span of
c(fg), which is the sum of the principal ideals of fg's coefficients, each
formed afresh.  Since c(fg) ⊆ c(f)c(g), that holds exactly when c(fg) and
c(f)c(g) differ, i.e. when the ideals `content(poly_mul(f, g))` and
`ideal_product(content(f), content(g))` have different masks.  The re-check
uses no lattice ids, join table or product table.  A run of candidates
(`orbit_verdicts`) re-checks every refutation it files, its roots' search
hits and its carried witnesses, in one call; a search called on its own
re-checks its single hit.
"""

from __future__ import annotations

import itertools
from contextvars import ContextVar
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import BoundExceededError, ConsistencyError, RingBuildError
from .ideals import (Ideal, LocalFactor, _distinct_indices,
                     _principal_indices, content_calculus,
                     has_square_zero_maximal, ideal_generated_by,
                     local_factors, subgroup_sum_indices)
from .rings import (FiniteRing, associate_leaders, blocks, element_units,
                    group_generators, unit_partition)

_PAIR_CHUNK = 1 << 18

# True while `orbit_verdicts` certifies its roots: it re-checks every
# refutation it files, so a witness search's hit joins that one batch
_HITS_JOIN_RUN: ContextVar[bool] = ContextVar("hits_join_run", default=False)


@dataclass(frozen=True)
class RingPoly:
    """Polynomial as a trimmed low-degree-first coefficient tuple."""

    ring: FiniteRing
    coeffs: tuple[int, ...]

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def literals(self) -> list:
        return [self.ring.decode_literal(c) for c in self.coeffs]

    def __repr__(self) -> str:
        return f"<RingPoly {self.literals()} over {self.ring.name}>"


def make_poly(ring: FiniteRing, coeffs) -> RingPoly:
    cs = [int(c) for c in coeffs]
    while cs and cs[-1] == ring.zero:
        cs.pop()
    return RingPoly(ring, tuple(cs))


def poly_from_literals(ring: FiniteRing, literals) -> RingPoly:
    return make_poly(ring, [ring.encode_literal(l) for l in literals])


def poly_mul(f: RingPoly, g: RingPoly) -> RingPoly:
    if f.ring is not g.ring:
        raise RingBuildError("polynomial operands belong to different rings")
    ring = f.ring
    if f.is_zero() or g.is_zero():
        return RingPoly(ring, ())
    out = [ring.zero] * (len(f.coeffs) + len(g.coeffs) - 1)
    for i, a in enumerate(f.coeffs):
        for j, b in enumerate(g.coeffs):
            out[i + j] = ring.add(out[i + j], ring.mul(a, b))
    return make_poly(ring, out)


def content(f: RingPoly) -> Ideal:
    return ideal_generated_by(f.ring, f.coeffs)


def poly_count(n: int, degree: int) -> int:
    """Number of polynomials of exact degree `degree` over an order-n ring."""
    return (n - 1) * n**degree


def cumulative_poly_count(n: int, max_degree: int) -> int:
    return sum(poly_count(n, d) for d in range(max_degree + 1))


def decode_poly_block(alphabet, degree: int, start: int, stop: int,
                      lead=None) -> list[np.ndarray]:
    """Coefficient columns (low-first) of indices [start, stop) over `alphabet`.

    A degree-d index is the mixed-radix value of the digit tuple read
    leading-first: the leading digit k stands for lead[k], every lower digit
    k (base u = alphabet size) for alphabet[k].  `lead` defaults to the
    nonzero letters alphabet[1:].  Over 0..n-1 this is the pinned order, and
    any sorted sub-alphabet and sorted leading alphabet keep it.
    """
    u = alphabet.size
    lead = alphabet[1:] if lead is None else lead
    vals = np.arange(start, stop, dtype=np.int64)
    return ([alphabet[(vals // u**j) % u] for j in range(degree)]
            + [lead[vals // u**degree]])


def _convolve_columns(ring: FiniteRing, f_cols, g_cols):
    """Columns of f·g where f_cols / g_cols broadcast against each other."""
    df, dg = len(f_cols) - 1, len(g_cols) - 1
    shape = np.broadcast(f_cols[0], g_cols[0]).shape
    out = []
    for k in range(df + dg + 1):
        acc = None
        for i in range(max(0, k - dg), min(df, k) + 1):
            term = ring.mul_arr(f_cols[i], g_cols[k - i])
            acc = term if acc is None else ring.add_arr(acc, term)
        out.append(np.broadcast_to(acc, shape) if np.ndim(acc) == 0 else acc)
    return out


def gaussian_witness_search(f: RingPoly, degree_bound: int,
                            cap: int = 2_000_000) -> RingPoly | None:
    """First g (pinned order, degree ≤ bound) with c(fg) ≠ c(f)c(g), or None.

    Enumerates only g of degree ≥ 1 (a constant a never violates, since
    c(f·a) = (a)·c(f)) with non-unit coefficients (Dedekind–Mertens) whose
    leading coefficient is an associate-class leader (if g violates, so does
    u·g, so the first violation leads with the least of its class), in
    growing blocks, and stops at the first violating block.  The hit is
    re-checked (`_verify_violations`) before it is returned, on its own or,
    inside `orbit_verdicts`, with the rest of that run.  Raises
    BoundExceededError when the full, unpruned candidate count exceeds
    `cap`; callers wanting a clamped search use certify_gaussian.
    """
    ring = f.ring
    if degree_bound < 0:
        raise RingBuildError("degree bound must be >= 0")
    total = cumulative_poly_count(ring.order, degree_bound)
    if total > cap:
        raise BoundExceededError(
            f"witness search over {ring.name} needs {total} candidates; cap {cap}")
    if f.is_zero():
        return None
    calc = content_calculus(ring)
    nonunits, leads = _witness_alphabet(ring)
    f_cols = [np.int64(c) for c in f.coeffs]
    cf_row = calc.prod_row(int(calc.content_ids([[c] for c in f.coeffs])[0]))
    for d in range(1, degree_bound + 1):
        for start, stop in blocks(leads.size * nonunits.size**d,
                                  budget=_PAIR_CHUNK, grow=True):
            g_cols, g_ids = _witness_block(ring, d, start, stop)
            expected = cf_row[g_ids]
            actual = calc.content_ids(_convolve_columns(ring, f_cols, g_cols))
            bad = np.flatnonzero(actual != expected)
            if bad.size:
                g = make_poly(ring, [int(c[bad[0]]) for c in g_cols])
                if not _HITS_JOIN_RUN.get():
                    _verify_violations(ring, _poly_columns([f]), _poly_columns([g]))
                return g
    return None


def _witness_alphabet(ring: FiniteRing) -> tuple[np.ndarray, np.ndarray]:
    """(non-units, nonzero non-unit associate-class leaders): the
    coefficients and the leading coefficients of the witness candidates."""
    def build():
        units = element_units(ring)
        leaders = associate_leaders(ring) == np.arange(ring.order)
        # nonzero: drop the class {0}
        return np.flatnonzero(~units), np.flatnonzero(leaders & ~units)[1:]
    return ring.memo("witness_alphabet", build)


def _witness_block(ring: FiniteRing, degree: int, start: int, stop: int):
    """Columns and content ids of the witness candidates [start, stop) of
    `degree`.  They do not depend on f: a degree whose candidates fit one
    block (`_PAIR_CHUNK`) is decoded once per ring and sliced, and a larger
    one is decoded block by block."""
    nonunits, leads = _witness_alphabet(ring)
    count = leads.size * nonunits.size**degree

    def decode(lo: int, hi: int):
        cols = decode_poly_block(nonunits, degree, lo, hi, leads)
        return cols, content_calculus(ring).content_ids(cols)

    if count > _PAIR_CHUNK:
        return decode(start, stop)
    cols, ids = ring.memo(("witness_candidates", degree), lambda: decode(0, count))
    return [c[start:stop] for c in cols], ids[start:stop]


def _poly_columns(fs) -> np.ndarray:
    """Coefficient columns (low-first) of the polynomials `fs`, one row per
    degree slot, padded with zero to the widest of them: row i holds every
    fᵢ."""
    zero, width = fs[0].ring.zero, max(len(f.coeffs) for f in fs)
    padded = (f.coeffs + (zero,) * (width - len(f.coeffs)) for f in fs)
    rows = np.fromiter(itertools.chain.from_iterable(padded), dtype=np.int64,
                       count=len(fs) * width)
    return rows.reshape(len(fs), width).T.copy()


def _inside_content(ring: FiniteRing, f_cols, g_cols) -> np.ndarray:
    """For the pairs (fₖ, gₖ) given as coefficient columns (low-first, of
    equal length, zero-padded), whether every product fᵢ·gⱼ lies in c(fg).

    c(fg) ⊆ c(f)c(g) always holds, and c(f)c(g) is the span of the fᵢ·gⱼ,
    so a pair holds a content violation exactly when some product lies
    outside c(fg), i.e. when c(fg) ≠ c(f)c(g) as ideals.  fg comes
    from `_convolve_columns`, all the fᵢ·gⱼ from one broadcast product.
    c(fg) is the sum of the principal ideals R·a of its coefficients, taken
    by `ideals.subgroup_sum_indices` and skipping an R·a whose a the span
    holds; each R·a is formed afresh (`ideals._principal_indices`) and held
    once per distinct ideal, and each span is built once per distinct set
    of those ideals.  The pairs run in blocks (`rings.blocks`) of about
    `rings.CHUNK` members and products.

    Shared with the searches it audits: the ring's add and mul and the
    subgroup sums that also built the lattice.  Not shared: lattice ids,
    the join and product tables, and the cached principal masks and
    associate classes.
    """
    f_cols, g_cols = np.asarray(f_cols), np.asarray(g_cols)
    n, count = ring.order, f_cols.shape[1]
    formed = np.zeros(n, dtype=bool)
    formed[ring.zero] = True                     # R·0 adds nothing to a span
    ideal_of = np.full(n, -1, dtype=np.int64)    # element a → id of R·a
    principal: list[np.ndarray] = []             # the distinct R·a, by id
    generator: list[int] = []                    # an a of each
    by_members: dict[bytes, int] = {}
    spans: dict[frozenset, np.ndarray] = {}      # set of ids → span of c(fg)
    out = np.empty(count, dtype=bool)
    for start, stop in blocks(count, n + len(f_cols) * len(g_cols)):
        fs, gs = f_cols[:, start:stop], g_cols[:, start:stop]
        fg = np.array(_convolve_columns(ring, fs, gs))
        fresh = _distinct_indices(n, fg)
        for a in fresh[~formed[fresh]].tolist():
            members = _principal_indices(ring, a)
            key = members.tobytes()
            if key not in by_members:
                by_members[key] = len(principal)
                principal.append(members)
                generator.append(a)
            ideal_of[a] = by_members[key]
        formed[fresh] = True
        rows: dict[frozenset, int] = {}          # set of ids → row of `inside`
        which = [rows.setdefault(frozenset(ids), len(rows))
                 for ids in ideal_of[fg].T.tolist()]
        inside = np.zeros((len(rows), n), dtype=bool)
        for ids, row in rows.items():
            if ids not in spans:
                span = np.array([ring.zero], dtype=np.int64)
                for i in ids:
                    if i >= 0 and generator[i] not in span:
                        span = subgroup_sum_indices(ring, span, principal[i])
                spans[ids] = span
            inside[row, spans[ids]] = True
        products = ring.mul_arr(fs[:, None, :], gs[None, :, :])
        out[start:stop] = inside[which, products.reshape(-1, stop - start)].all(axis=0)
    return out


def _verify_violations(ring: FiniteRing, f_cols, g_cols) -> None:
    """Re-check of claimed content violations on their own pairs (fₖ, gₖ),
    given as coefficient columns: for each pair some product fᵢ·gⱼ must lie
    outside c(fg) (`_inside_content`)."""
    clean = np.flatnonzero(_inside_content(ring, f_cols, g_cols))
    if clean.size:
        raise ConsistencyError(
            f"claimed Gaussian violation over {ring.name} fails re-verification "
            f"({clean.size} of {len(f_cols[0])} pairs, first at {int(clean[0])})")


@dataclass(frozen=True)
class GaussianVerdict:
    """Outcome of certify_gaussian.

    status: 'certified' | 'refuted' | 'bounded'
    reason (certified only): 'unit_content' | 'zero_polynomial' |
        'local_square_zero_maximal' | 'ring_certified_gaussian'
    witness (refuted only): the violating g
    bound (bounded only): the degree actually exhausted
    """

    status: str
    reason: str | None = None
    witness: RingPoly | None = None
    bound: int | None = None


def affordable_degree(n: int, degree_bound: int, cap: int) -> int:
    """Largest d ≤ degree_bound whose cumulative candidate count fits the cap.

    The count grows with d, so the first degree over the cap ends the scan."""
    total = 0
    for d in range(degree_bound + 1):
        total += poly_count(n, d)
        if total > cap:
            return d - 1
    return degree_bound


def certify_gaussian(f: RingPoly, degree_bound: int = 3, cap: int = 2_000_000,
                     ring_gaussian_certified: bool = False) -> GaussianVerdict:
    """Certify or refute a single polynomial's Gaussian property.

    Sound rules in order: zero polynomial, unit content (Dedekind–Mertens
    gives c(fg) = c(g)), local ring with square-zero maximal ideal, or a
    ring-level Gaussian certificate supplied by the caller.  Otherwise a
    bounded witness search runs at the largest degree affordable under `cap`
    and the verdict carries that bound.
    """
    ring = f.ring
    if f.is_zero():
        return GaussianVerdict("certified", reason="zero_polynomial")
    if _unit_content(f):
        return GaussianVerdict("certified", reason="unit_content")
    if has_square_zero_maximal(ring):
        return GaussianVerdict("certified", reason="local_square_zero_maximal")
    if ring_gaussian_certified:
        return GaussianVerdict("certified", reason="ring_certified_gaussian")
    d_eff = affordable_degree(ring.order, degree_bound, cap)
    if d_eff < 0:
        raise BoundExceededError(
            f"cap {cap} does not even cover constant candidates over {ring.name}")
    witness = gaussian_witness_search(f, d_eff, cap)
    if witness is not None:
        return GaussianVerdict("refuted", witness=witness)
    return GaussianVerdict("bounded", bound=d_eff)


def _unit_content(f: RingPoly) -> bool:
    """c(f) = R iff no maximal ideal holds every coefficient of f: a proper
    ideal lies in a maximal one, read from `local_factors` at any order."""
    return not any(all(local.maximal.contains(c) for c in f.coeffs)
                   for local in local_factors(f.ring))


def certify_gaussians(fs, degree_bound: int = 3, cap: int = 2_000_000
                      ) -> list[GaussianVerdict]:
    """For each f of `fs` in order, a verdict with the status of
    certify_gaussian(f, degree_bound, cap), filed by `orbit_verdicts`.

    A root keeps its own verdict; every other member takes its root's,
    except that a member of a refuted orbit gets its carried witness.  A
    carried witness need not be the first witness of its f in the pinned
    order.
    """
    fs = list(fs)
    if not fs:
        return []
    ring = fs[0].ring
    run = orbit_verdicts(ring, _poly_columns(fs), degree_bound, cap)
    verdicts = [run.filed[r] for r in run.root.tolist()]
    for i, g in zip(run.refuted.tolist(), run.witnesses.T.tolist()):
        if run.root[i] != i:
            verdicts[i] = GaussianVerdict("refuted", witness=make_poly(ring, g))
    return verdicts


class OrbitVerdicts(NamedTuple):
    """The verdicts `orbit_verdicts` files for a run of candidates."""

    root: np.ndarray                   # root[i]: first candidate of i's orbit
    filed: dict[int, GaussianVerdict]  # each root's certify_gaussian verdict
    refuted: np.ndarray                # the refuted candidates, ascending
    witnesses: np.ndarray              # columns: a re-checked witness of each


def orbit_verdicts(ring: FiniteRing, cols: np.ndarray, degree_bound: int,
                   cap: int) -> OrbitVerdicts:
    """Statuses of the candidates given as coefficient columns (low-first,
    zero-padded, one column per candidate), certifying once per
    affine-substitution orbit.

    For a unit v and any c, φ: x ↦ vx + c is an automorphism of R[x], and
    c(φh) = c(h), because φ and its inverse x ↦ v⁻¹(x − c) each take the
    coefficients of one polynomial into the ideal generated by those of the
    other.  With a unit u, c(u·φh) = c(h) too, so f and f' = u·f(vx + c)
    have the same status, and a g violating for f gives the violating
    g(vx + c) for f', of the same degree.  The candidates fall into orbits
    under these maps (`_affine_orbits`).  The first candidate of each
    orbit, its root, is certified by `certify_gaussian`; the witness of
    every refuted root is then carried to all the members of its orbit at
    once, substituted columnwise with each member's (v, c) (`_substitute`;
    a root's own is (1, 0)).  Every refuted candidate, root or not, is
    re-checked on its own f and witness by one `_verify_violations` call.
    """
    size = cols.shape[1]
    if not size:
        empty = np.zeros(0, dtype=np.int64)
        return OrbitVerdicts(empty, {}, empty, np.zeros((0, 0), dtype=np.int64))
    root, dilation, shift = _affine_orbits(ring, cols)
    token = _HITS_JOIN_RUN.set(True)
    try:
        filed = {r: certify_gaussian(make_poly(ring, cols[:, r]), degree_bound, cap)
                 for r in np.flatnonzero(root == np.arange(size)).tolist()}
    finally:
        _HITS_JOIN_RUN.reset(token)
    refuted_roots = [r for r, v in filed.items() if v.status == "refuted"]  # ascending
    refuted = np.flatnonzero(np.isin(root, refuted_roots))
    witnesses = np.zeros((0, 0), dtype=np.int64)
    if refuted.size:
        found = _poly_columns([filed[r].witness for r in refuted_roots])
        witnesses = np.array(_substitute(
            ring, found[:, np.searchsorted(refuted_roots, root[refuted])],
            dilation[refuted], shift[refuted]))
        _verify_violations(ring, cols[:, refuted], witnesses)
    return OrbitVerdicts(root, filed, refuted, witnesses)


def _dilate_columns(ring: FiniteRing, cols, v: int) -> list:
    """Coefficient columns (low-first) of f(vx) from those of f; `v` is one
    unit or an array of them, one per column entry."""
    out, power = [cols[0]], v
    for col in cols[1:]:
        out.append(ring.mul_arr(col, power))
        power = ring.mul_arr(power, v)
    return out


def _shift_columns(ring: FiniteRing, cols, c: int) -> list:
    """Coefficient columns (low-first) of f(x + c) from those of f, by
    repeated Horner steps: d(d+1)/2 products and sums at degree d.  `c` is
    one element or an array of them, one per column entry."""
    out = list(cols)
    for i in range(len(out) - 1):
        for j in range(len(out) - 2, i - 1, -1):
            out[j] = ring.add_arr(out[j], ring.mul_arr(out[j + 1], c))
    return out


def _substitute(ring: FiniteRing, cols, v, c) -> list:
    """Coefficient columns (low-first) of g(vx + c) from those of g, for one
    (v, c) or per-entry arrays of them."""
    return _dilate_columns(ring, _shift_columns(ring, cols, c), v)


def _codes(cols, n: int) -> np.ndarray:
    """Σ colsᵢ·nⁱ, by Horner's rule."""
    code = cols[-1]
    for col in cols[-2::-1]:
        code = code * n + col
    return code


def _affine_orbits(ring: FiniteRing, cols: np.ndarray
                   ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(root, v, c)`` for the candidates fᵢ given as the columns of `cols`
    (low-first, zero-padded): each fᵢ is u·f_root[i](v[i]·x + c[i]) for a
    unit u, and root[i] is the first candidate of the orbit of fᵢ among
    them.

    Each candidate is coded as Σ fᵢ·nⁱ.  The images of all candidates under
    f ↦ u·f and f ↦ f(vx), for u and v in `group_generators(ring, "units")`,
    and under f ↦ f(x + c), for c in `group_generators(ring, "additive")`,
    are computed columnwise and looked up among the candidate codes; a hit
    is an edge, walked either way.  The orbits within `fs` are the connected
    components: the least index is propagated along the edges, and every
    candidate that takes a smaller one takes its (v, c) composed with the
    edge's.  Each round walks every edge once, at O(len(fs) · generators),
    until a round changes nothing; the edges are kept in numpy arrays.  When
    the codes do not fit in int64 (n^(d+1) ≥ 2^63 at degree d), every
    candidate is its own orbit.
    """
    n, (width, size) = ring.order, cols.shape
    root = np.arange(size, dtype=np.int64)
    dilation = np.full(size, ring.one, dtype=np.int64)
    shift = np.zeros(size, dtype=np.int64)
    if n**width >= 2**63:
        return root, dilation, shift
    codes = _codes(cols, n)
    order = np.argsort(codes)
    sorted_codes = codes[order]

    inverse = unit_partition(ring).witness
    units, adds = group_generators(ring, "units"), group_generators(ring, "additive")
    # (images, w, e) for one generator at a time
    moves = itertools.chain(
        ((ring.mul_arr(cols, u), ring.one, ring.zero) for u in units.tolist()),
        ((_dilate_columns(ring, cols, v), v, ring.zero) for v in units.tolist()),
        ((_shift_columns(ring, cols, c), ring.one, c) for c in adds.tolist()))
    steps = []  # (s, t, w, e): f_t = u·f_s(wx + e) for each pair s[j], t[j]
    for images, w, e in moves:
        image_codes = _codes(images, n)
        at = np.minimum(np.searchsorted(sorted_codes, image_codes), size - 1)
        hit = np.flatnonzero(sorted_codes[at] == image_codes)
        target = order[at[hit]]
        keep = hit != target
        s, t = hit[keep], target[keep]
        # walked back: f_s = u⁻¹·f_t(w⁻¹x − w⁻¹e)
        w_inv = int(inverse[w])
        steps += [(s, t, w, e), (t, s, w_inv, int(ring.neg_arr(ring.mul(w_inv, e))))]
    # each move is a bijection, so no candidate is offered two roots in a step
    changed = True
    while changed:
        changed = False
        for s, t, w, e in steps:
            gain = np.flatnonzero(root[s] < root[t])
            if gain.size:
                giver, taker = s[gain], t[gain]
                v = dilation[giver]
                root[taker] = root[giver]
                shift[taker] = ring.add_arr(ring.mul_arr(v, e), shift[giver])
                dilation[taker] = ring.mul_arr(v, w)
                changed = True
    return root, dilation, shift


def ring_gaussian_refutation_search(ring: FiniteRing, factor: LocalFactor,
                                    degree_bound: int, pair_cap: int = 30_000_000):
    """Search all (f, g) pairs up to degree_bound over the corner eR of a
    local factor for a content violation.

    Returns (witness_pair_or_None, exhausted_symmetric_degree, pairs_checked).
    Pairs are ordered by total degree, then deg f, then f, then g in the
    pinned polynomial order; on a hit, pairs_checked counts the pairs before
    the violating one, plus that one.  Raises BoundExceededError if the
    budget is exhausted before any total degree completes.

    The candidates are the polynomials over n = e·m, the distinct values of
    m·e, ascending (n = m for a local ring, e = 1): by Dedekind–Mertens a
    unit-content factor never violates, and over eR every polynomial over n
    has proper content, so degree d has exactly poly_count(|n|, d) of them.
    Contents are read from R's lattice, which is exact: R·x = eR·x for
    x ∈ eR, and an ideal of R inside eR is one of eR (Atiyah–Macdonald, Thm
    8.7).  Each degree is charged to the budget up front on that count, and
    a degree that does not fit stops the search when a pair first needs it.
    Pairs with a constant factor are counted, never evaluated, and a
    degree's table is decoded on its first non-constant pair.
    """
    calc = content_calculus(ring)
    nonunits = _distinct_indices(
        ring.order, ring.mul_arr(factor.maximal.indices, factor.idempotent))
    # the affordable degrees, each charged to the budget; the counts grow
    # with d, so the first degree that does not fit ends the list
    counts: list[int] = []
    budget = pair_cap
    for d in range(degree_bound + 1):
        total = poly_count(nonunits.size, d)
        if total > budget:
            break
        counts.append(total)
        budget -= total
    cands: dict[int, tuple[list[np.ndarray], np.ndarray]] = {}

    def candidates(d: int):
        if d not in cands:
            cands[d] = _proper_content_candidates(calc, nonunits, d)
        return cands[d]

    pairs_checked = 0
    exhausted_t = -1
    for t in range(2 * degree_bound + 1):
        for df in range(max(0, t - degree_bound), min(degree_bound, t) + 1):
            dg = t - df
            if max(df, dg) >= len(counts):
                return None, _sym_degree(exhausted_t, degree_bound), pairs_checked
            nf, ng = counts[df], counts[dg]
            if nf == 0 or ng == 0:
                continue
            if nf * ng > budget:
                if exhausted_t < 0:
                    raise BoundExceededError(
                        f"pair search over {ring.name} exceeds cap {pair_cap}")
                return None, _sym_degree(exhausted_t, degree_bound), pairs_checked
            budget -= nf * ng
            if df == 0 or dg == 0:
                pairs_checked += nf * ng
                continue
            f_cols, f_ids = candidates(df)
            g_cols, g_ids = candidates(dg)
            for fs, fe in blocks(nf, ng, _PAIR_CHUNK, grow=True):
                fc = [c[fs:fe, None] for c in f_cols]
                gc = [c[None, :] for c in g_cols]
                expected = calc.prod_ids(f_ids[fs:fe, None], g_ids[None, :])
                actual = calc.content_ids(_convolve_columns(ring, fc, gc))
                bad = np.nonzero(actual != expected)
                if bad[0].size:
                    fi = int(bad[0][0]) + fs  # nonzero is row-major: first pair
                    gi = int(bad[1][0])
                    f = make_poly(ring, [int(c[fi]) for c in f_cols])
                    g = make_poly(ring, [int(c[gi]) for c in g_cols])
                    _verify_violations(ring, _poly_columns([f]), _poly_columns([g]))
                    return (f, g), None, pairs_checked + fi * ng + gi + 1
            pairs_checked += nf * ng
        exhausted_t = t
    return None, _sym_degree(exhausted_t, degree_bound), pairs_checked


def _proper_content_candidates(calc, nonunits: np.ndarray, degree: int):
    """Columns and content ids of the degree-`degree` polynomials over
    `nonunits`, the maximal ideal of a local factor: every one of them has
    proper content."""
    cols = decode_poly_block(nonunits, degree, 0, poly_count(nonunits.size, degree))
    return cols, calc.content_ids(cols)


def _sym_degree(exhausted_t: int, degree_bound: int) -> int:
    return max(-1, min(degree_bound, exhausted_t // 2))
