"""Finite commutative rings and modules with 0-based element indexing.

Every ring exposes total operations on element indices ``0..order-1``, both
scalar and numpy-vectorised.  Available constructions: integers mod n, Galois
fields, direct products, quotients by an ideal, and trivial (square-zero)
extensions of a ring by a module.  Rings of order <= TABLE_LIMIT carry dense
operation tables, and modules always do.  The tables of products, trivial
extensions and modules are composed from their factors' tables (`compose`),
and a Galois field F_p[x]/(f) builds its tables from those of the free
module (Z/p)^k; integers mod n and quotients evaluate theirs structurally,
a block of rows at a time.  Above TABLE_LIMIT, rings evaluate structurally
on demand, which keeps extensions with a few tens of thousands of elements
workable.

A product A × B reads its facts from its factors' cached ones, with no
scan of its own: its unit partition (`unit_partition`) pairs theirs, and
its primitive idempotents (`primitive_idempotents`) are (e, 0) and (0, f)
for theirs.  So a product of two factors that each fit the unit scan is
split at any order.  Its tables are still composed (`compose`).

A table of order <= WIDE_TABLE_LIMIT is int64 and read by numpy's 2-D
gather, the fastest read at that size.  A larger table is uint16 (every
entry is below 1024), a quarter of the memory, and is read by one flat take
at a·n + b.  Both reads return intp, so no narrow array leaves this module.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import BoundExceededError, ConsistencyError, RingBuildError

TABLE_LIMIT = 1024   # dense op tables are built up to this order
MODULE_LIMIT = 1024  # modules are always table-backed
WIDE_TABLE_LIMIT = 256    # tables up to this order are int64, larger ones uint16
KIND_SCAN_LIMIT = 2**26   # cap on n^2 work for the generic unit scan
CHUNK = 1 << 22           # default element budget of one blockwise numpy step
FIRST_BLOCK = 1 << 10     # element budget of the first block of a growing schedule
CACHE_BLOCK = 1 << 14     # element budget of a block whose int64 temporaries stay in cache

Literal = "int | tuple"  # element literals: ints for zmod/gf, tuples for pairs


def blocks(count: int, width: int = 1, budget: int = CHUNK,
           grow: bool = False):
    """Contiguous (start, stop) ranges covering 0..count in order, at most
    max(1, budget // width) rows each, so a block of rows against `width`
    columns stays within `budget`.

    With `grow`, the first block holds max(1, FIRST_BLOCK // width) rows
    (one row when a row is wider) and each later one twice as many, up to
    that cap; a block also takes in the rows after it when they are fewer
    than the next block would hold and the cap allows.  A scan that stops
    at its first hit then evaluates a few times the rows up to the hit (or
    one capped block past it), not a whole capped block, while a scan that
    runs to the end takes about log2(count / FIRST_BLOCK) blocks more."""
    width = max(1, width)
    step = max(1, budget // width)
    rows = min(step, max(1, FIRST_BLOCK // width)) if grow else step
    start = 0
    while start < count:
        stop = min(start + rows, count)
        if grow:
            rows = min(2 * rows, step)
            if count - stop < rows and count - start <= step:
                stop = count
        yield start, stop
        start = stop


def compose(hi: np.ndarray, lo: np.ndarray, m: int, dtype=np.int64) -> np.ndarray:
    """``hi·m + lo`` broadcast into one new array of `dtype`, formed in place
    and computed in that dtype, which must hold every value: the table of
    the pair index x·m + y from a table over x and one over y.  Callers pass
    views whose axes interleave (``hi[:, None, :, None]`` and
    ``lo[None, :, None, :]`` for an operation table) and reshape the result."""
    out = np.empty(np.broadcast_shapes(hi.shape, lo.shape), dtype=dtype)
    np.multiply(hi, m, out=out, dtype=dtype, casting="unsafe")
    np.add(out, lo, out=out, dtype=dtype, casting="unsafe")
    return out


def _table_dtype(order: int):
    """The dtype of a table whose entries lie in 0..order-1."""
    return np.int64 if order <= WIDE_TABLE_LIMIT else np.uint16


def _gather(table: np.ndarray, a, b=None):
    """``table[a, b]`` (``table[a]`` for a 1-D table) as intp: an int64
    table by numpy's gather, a narrow one by one flat take at a·n + b,
    widened."""
    if table.itemsize == 8:
        return table[a] if b is None else table[a, b]
    if b is not None:
        a = np.multiply(a, table.shape[1], dtype=np.intp) + b
    return table.take(a).astype(np.intp)


def mask_from_indices(indices, n: int) -> int:
    """Membership bitmask (a Python int) of a set of indices in 0..n-1."""
    bits = np.zeros(n, dtype=bool)
    bits[np.asarray(indices, dtype=np.int64)] = True
    return mask_from_bits(bits)


def mask_from_bits(bits: np.ndarray) -> int:
    """Membership bitmask of the true entries of a boolean array."""
    return int.from_bytes(np.packbits(bits, bitorder="little").tobytes(), "little")


def indices_from_mask(mask: int, n: int) -> np.ndarray:
    """Ascending indices of the set bits of a membership bitmask."""
    raw = mask.to_bytes((n + 7) // 8, "little")
    bits = np.unpackbits(np.frombuffer(raw, dtype=np.uint8), bitorder="little")
    return np.nonzero(bits[:n])[0].astype(np.int64)


def render_literal(lit) -> str:
    if isinstance(lit, tuple):
        return "(" + ",".join(render_literal(x) for x in lit) + ")"
    return str(lit)


@dataclass(frozen=True)
class Spec:
    """Provenance tree recording how a ring or module was constructed.

    Each node stores its depth and its hash, both computed once from its
    children's, so a tree whose nodes share children is hashed in time
    linear in its distinct nodes."""

    kind: str
    params: tuple = ()
    children: tuple = ()
    depth: int = field(init=False, repr=False, compare=False)
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "depth", 1 + max(
            (child.depth for child in self.children), default=0))
        object.__setattr__(self, "_hash", hash(
            (self.kind, self.params, tuple(child._hash for child in self.children))))

    def __hash__(self) -> int:
        return self._hash

    def label(self) -> str:
        """kind(child labels..., params...): a tuple parameter is written in
        brackets, and a Galois field leaves out its modulus."""
        params = self.params[:2] if self.kind == "gf" else self.params
        args = [child.label() for child in self.children] + [
            "[" + ",".join(map(render_literal, p)) + "]" if isinstance(p, tuple)
            else str(p) for p in params]
        return f"{self.kind}({','.join(args)})"


class RingSpec(Spec):
    """Provenance tree recording how a ring was constructed."""


class ModuleSpec(Spec):
    """Provenance tree recording how a module was constructed."""


class FiniteRing:
    """Finite commutative ring on element indices 0..order-1 (0 is zero)."""

    def __init__(self, order: int, one: int, spec: RingSpec | None):
        if order < 2:
            raise RingBuildError("a ring needs at least the two elements 0 and 1")
        self.order = order
        self.zero = 0
        self.one = one
        self.spec = spec
        # the largest ring is a table-backed base by the largest module: a
        # bigger one is refused before anything allocates an array over it
        if order > TABLE_LIMIT * MODULE_LIMIT:
            raise BoundExceededError(
                f"{self.name} has order {order}, above the largest supported "
                f"order {TABLE_LIMIT * MODULE_LIMIT}")
        self._cache: dict = {}
        self._tables = self._build_tables() if order <= TABLE_LIMIT else None
        if self.one == self.zero:
            raise RingBuildError("ring has 1 = 0")

    def _build_tables(self):
        """The (add, mul, neg) tables over every index, evaluated
        structurally a block of CACHE_BLOCK entries at a time and written
        in the table dtype; products, trivial extensions and Galois fields
        build theirs from their parts' tables."""
        n = self.order
        dtype = _table_dtype(n)
        idx = np.arange(n, dtype=np.int64)
        add, mul = np.empty((n, n), dtype=dtype), np.empty((n, n), dtype=dtype)
        for start, stop in blocks(n, n, CACHE_BLOCK):
            rows = idx[start:stop, None]
            add[start:stop] = self._add_impl(rows, idx)
            mul[start:stop] = self._mul_impl(rows, idx)
        return add, mul, np.asarray(self._neg_impl(idx), dtype=dtype)

    # subclasses implement the structural operations; they must accept both
    # plain ints and numpy arrays (broadcasting allowed)
    def _add_impl(self, a, b):
        raise NotImplementedError

    def _mul_impl(self, a, b):
        raise NotImplementedError

    def _neg_impl(self, a):
        raise NotImplementedError

    @property
    def name(self) -> str:
        return self.spec.label() if self.spec is not None else f"ring#{self.order}"

    def add(self, i: int, j: int) -> int:
        if self._tables is not None:
            return int(self._tables[0][i, j])
        return int(self._add_impl(i, j))

    def mul(self, i: int, j: int) -> int:
        if self._tables is not None:
            return int(self._tables[1][i, j])
        return int(self._mul_impl(i, j))

    def add_arr(self, a, b):
        if self._tables is not None:
            return _gather(self._tables[0], a, b)
        return self._add_impl(a, b)

    def mul_arr(self, a, b):
        if self._tables is not None:
            return _gather(self._tables[1], a, b)
        return self._mul_impl(a, b)

    def neg_arr(self, a):
        if self._tables is not None:
            return _gather(self._tables[2], a)
        return self._neg_impl(a)

    # literal codecs: names elements in the spec-file / report syntax
    def encode_literal(self, lit) -> int:
        raise NotImplementedError

    def decode_literal(self, i: int):
        raise NotImplementedError

    def memo(self, key, build):
        """The fact filed under `key`, computed by `build()` on first use.

        A key is a name, or a (name, subkey) pair filed in one dict per name
        (``"localizations"`` maps maximal-ideal masks to localizations).
        Nothing is stored when build raises.
        """
        if not isinstance(key, tuple):
            if key not in self._cache:
                self._cache[key] = build()
            return self._cache[key]
        name, sub = key
        table = self._cache.get(name, {})
        if sub not in table:
            value = build()
            self._cache.setdefault(name, {})[sub] = value
            return value
        return table[sub]

    def __repr__(self) -> str:
        return f"<FiniteRing {self.name} order={self.order}>"


class ZmodRing(FiniteRing):
    """Integers modulo n with residue indexing."""

    def __init__(self, n: int, spec: RingSpec | None = None):
        if n < 2:
            raise RingBuildError(f"zmod modulus must be >= 2, got {n}")
        self.n = n
        super().__init__(n, 1, spec or RingSpec("zmod", (n,)))

    def _add_impl(self, a, b):
        return (a + b) % self.n

    def _mul_impl(self, a, b):
        return (a * b) % self.n

    def _neg_impl(self, a):
        return (-a) % self.n

    def encode_literal(self, lit) -> int:
        if not isinstance(lit, int):
            raise RingBuildError(f"{self.name} elements are integers, got {render_literal(lit)}")
        return lit % self.n

    def decode_literal(self, i: int):
        return int(i)


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def gf_modulus(p: int, k: int, poly) -> tuple[int, ...]:
    """The monic modulus (low coefficient first) of gf(p, k, poly), after
    checking its degree, its length, the order bound, primality of p and
    the leading coefficient.  The order is checked before primality, whose
    cost grows as p^(1/2); irreducibility is read from the built table
    (`GFRing`)."""
    if k < 1:
        raise RingBuildError(f"gf degree must be >= 1, got {k}")
    if len(poly) != k + 1:
        raise RingBuildError(f"gf modulus needs {k + 1} coefficients, got {len(poly)}")
    if p > TABLE_LIMIT or p**k > TABLE_LIMIT:
        raise RingBuildError(f"gf order {p}^{k} above the supported bound {TABLE_LIMIT}")
    if not is_prime(p):
        raise RingBuildError(f"gf characteristic {p} is not prime")
    lead = poly[-1] % p
    if lead == 0:
        raise RingBuildError("gf modulus has zero leading coefficient")
    inv = pow(lead, -1, p)
    return tuple((c * inv) % p for c in poly)


class GFRing(FiniteRing):
    """Galois field F_{p^k} as F_p[x]/(f); element index encodes digits base p.

    The base-p digits of an index, top coefficient first, are its big-endian
    coordinates in the free module (Z/p)^k, so the field's addition and
    negation are the module's.  F_p[x]/(f) is a field exactly when f is
    irreducible, that is when its multiplication table has no zero
    divisors, which is checked once the table is built.
    """

    def __init__(self, p: int, k: int, poly: tuple[int, ...], spec: RingSpec | None = None):
        coeffs = gf_modulus(p, k, poly)
        self.p, self.k, self.modulus = p, k, coeffs[:-1]
        super().__init__(p**k, 1, spec or RingSpec("gf", (p, k, tuple(poly))))
        if bool((self._tables[1][1:, 1:] == self.zero).any()):
            raise RingBuildError(f"gf modulus {list(poly)} is reducible mod {p}")

    def _build_tables(self):
        """(add, mul, neg) from the tables of (Z/p)^k.  Column block j of
        the product table holds the b = c·x^j + b' with 1 <= c < p and
        b' < p^j, so a·b = a·b' + c·(a·x^j) is one gather from the module's
        addition table, q² entries in all.  a·x^(j+1) shifts the digits of
        a·x^j up one place and adds the top digit times x^k ≡ −(f − x^k)."""
        p, k, q = self.p, self.k, self.order
        module = free_module(ZmodRing(p), k)
        madd, mneg, act = module._madd, module._mneg, module._act
        top = p ** (k - 1)
        x_k = mneg[sum(c * p**i for i, c in enumerate(self.modulus))]
        mul = np.empty((q, q), dtype=_table_dtype(q))
        mul[:, 0] = 0
        power = np.arange(q, dtype=np.int64)  # a·x^j for every a
        for j in range(k):
            lo = p ** j
            mul[:, lo:p * lo] = madd[act[1:, power].T[:, :, None],
                                     mul[:, None, :lo]].reshape(q, -1)
            power = madd[power % top * p, act[power // top, x_k]]
        return madd, mul, mneg

    def encode_literal(self, lit) -> int:
        if not isinstance(lit, int) or not 0 <= lit < self.order:
            raise RingBuildError(f"{self.name} elements are integers in 0..{self.order - 1}")
        return lit

    def decode_literal(self, i: int):
        return int(i)


# Pinned irreducible moduli (low coefficient first) so that every consumer of
# gf(p, k) builds literally the same field.
STANDARD_GF_MODULI = {
    (2, 2): (1, 1, 1),
    (2, 3): (1, 1, 0, 1),
    (2, 4): (1, 1, 0, 0, 1),
    (2, 5): (1, 0, 1, 0, 0, 1),
    (2, 6): (1, 1, 0, 0, 0, 0, 1),
    (3, 2): (1, 0, 1),
    (3, 3): (1, 2, 0, 1),
    (5, 2): (2, 0, 1),
    (7, 2): (1, 0, 1),
}


def standard_gf(p: int, k: int) -> GFRing:
    """The Galois field F_{p^k} built on the library's pinned modulus."""
    if k == 1:
        return GFRing(p, 1, (0, 1))
    poly = STANDARD_GF_MODULI.get((p, k))
    if poly is None:
        raise RingBuildError(
            f"no pinned modulus for gf({p},{k}); construct GFRing with an "
            "explicit one")
    return GFRing(p, k, poly)


class ProductRing(FiniteRing):
    """Direct product with lexicographic pair indexing (first factor major)."""

    def __init__(self, left: FiniteRing, right: FiniteRing, spec: RingSpec | None = None):
        self.left, self.right = left, right
        self._m = right.order
        one = left.one * self._m + right.one
        if spec is None:
            spec = RingSpec("product", (), (left.spec, right.spec))
        super().__init__(left.order * right.order, one, spec)

    def _build_tables(self):
        n, m = self.order, self._m
        dtype = _table_dtype(n)
        (ladd, lmul, lneg), (radd, rmul, rneg) = self.left._tables, self.right._tables
        return (compose(ladd[:, None, :, None], radd[None, :, None, :], m, dtype).reshape(n, n),
                compose(lmul[:, None, :, None], rmul[None, :, None, :], m, dtype).reshape(n, n),
                compose(lneg[:, None], rneg[None, :], m, dtype).reshape(n))

    def _add_impl(self, a, b):
        m = self._m
        return self.left.add_arr(a // m, b // m) * m + self.right.add_arr(a % m, b % m)

    def _mul_impl(self, a, b):
        m = self._m
        return self.left.mul_arr(a // m, b // m) * m + self.right.mul_arr(a % m, b % m)

    def _neg_impl(self, a):
        m = self._m
        return self.left.neg_arr(a // m) * m + self.right.neg_arr(a % m)

    def encode_literal(self, lit) -> int:
        if not isinstance(lit, tuple) or len(lit) != 2:
            raise RingBuildError(f"{self.name} elements are pairs, got {render_literal(lit)}")
        return self.left.encode_literal(lit[0]) * self._m + self.right.encode_literal(lit[1])

    def decode_literal(self, i: int):
        return (self.left.decode_literal(i // self._m), self.right.decode_literal(i % self._m))


class QuotientRing(FiniteRing):
    """Quotient of a parent ring on minimal coset representatives.

    Built by ideals.make_quotient, which supplies the representative and
    coset-id arrays; coset 0 is the ideal itself and carries index 0.
    """

    def __init__(self, parent: FiniteRing, reps: np.ndarray, coset_id: np.ndarray,
                 spec: RingSpec | None):
        self.parent = parent
        self.reps = reps
        self.coset_id = coset_id
        super().__init__(len(reps), int(coset_id[parent.one]), spec)

    def _add_impl(self, a, b):
        return self.coset_id[self.parent.add_arr(self.reps[a], self.reps[b])]

    def _mul_impl(self, a, b):
        return self.coset_id[self.parent.mul_arr(self.reps[a], self.reps[b])]

    def _neg_impl(self, a):
        return self.coset_id[self.parent.neg_arr(self.reps[a])]

    def encode_literal(self, lit) -> int:
        return int(self.coset_id[self.parent.encode_literal(lit)])

    def decode_literal(self, i: int):
        return self.parent.decode_literal(int(self.reps[i]))


class FiniteModule:
    """Finite module over a FiniteRing; always table-backed, with the tables
    stored in the dtype of the module's order."""

    def __init__(self, base: FiniteRing, madd: np.ndarray, mneg: np.ndarray,
                 act: np.ndarray, spec: ModuleSpec | None,
                 encode=None, decode=None):
        self.base = base
        self.order = madd.shape[0]
        self.mzero = 0
        self.spec = spec
        self._encode, self._decode = encode, decode
        if self.order > MODULE_LIMIT:
            raise RingBuildError(f"module order {self.order} above bound {MODULE_LIMIT}")
        dtype = _table_dtype(self.order)
        self._madd, self._mneg, self._act = (np.ascontiguousarray(t, dtype=dtype)
                                             for t in (madd, mneg, act))

    @property
    def name(self) -> str:
        return self.spec.label() if self.spec is not None else f"module#{self.order}"

    def madd_arr(self, a, b):
        return _gather(self._madd, a, b)

    def mneg_arr(self, a):
        return _gather(self._mneg, a)

    def act_arr(self, a, e):
        return _gather(self._act, a, e)

    def encode_literal(self, lit) -> int:
        return self._encode(lit)

    def decode_literal(self, i: int):
        return self._decode(i)

    def __repr__(self) -> str:
        return f"<FiniteModule {self.name} order={self.order} over {self.base.name}>"


def free_module(base: FiniteRing, n: int, spec: ModuleSpec | None = None) -> FiniteModule:
    """Free module base^n; coordinates indexed big-endian (first coord major)."""
    if n < 1:
        raise RingBuildError(f"free module rank must be >= 1, got {n}")
    if base.order > TABLE_LIMIT:
        raise RingBuildError("free modules need a table-backed base ring")
    # for n at least the bit length of the bound, 2**n alone exceeds it, so
    # the power (unbounded in n) is formed only for small n
    if (base.order > 1 and n >= MODULE_LIMIT.bit_length()
            or base.order**n > MODULE_LIMIT):
        raise RingBuildError(
            f"module order {base.order}^{n} above bound {MODULE_LIMIT}")
    m = base.order
    weights = [m ** (n - 1 - i) for i in range(n)]
    add, mul, neg = base._tables
    column = tables = (add, neg, mul)  # the base ring as a module over itself
    for _ in range(n - 1):
        tables = _sum_tables(tables, column)

    def encode(lit):
        if n == 1 and not isinstance(lit, tuple):
            lit = (lit,)
        if not isinstance(lit, tuple) or len(lit) != n:
            raise RingBuildError(f"free module elements are {n}-tuples, got {render_literal(lit)}")
        return sum(base.encode_literal(c) * w for c, w in zip(lit, weights))

    def decode(i):
        coords = tuple(base.decode_literal((i // w) % m) for w in weights)
        return coords[0] if n == 1 else coords

    if spec is None:
        spec = ModuleSpec("free", (n,), (base.spec,))
    return FiniteModule(base, *tables, spec, encode, decode)


def _sum_tables(e: tuple, f: tuple) -> tuple:
    """The (madd, mneg, act) tables of E ⊕ F on indices x·|F| + y, composed
    from the (madd, mneg, act) tables of E and of F."""
    (emadd, emneg, eact), (fmadd, fmneg, fact) = e, f
    m = len(fmneg)
    n = len(emneg) * m
    dtype = _table_dtype(n)
    return (compose(emadd[:, None, :, None], fmadd[None, :, None, :], m, dtype).reshape(n, n),
            compose(emneg[:, None], fmneg[None, :], m, dtype).reshape(n),
            compose(eact[:, :, None], fact[:, None, :], m, dtype).reshape(len(eact), n))


def module_sum(e: FiniteModule, f: FiniteModule, spec: ModuleSpec | None = None) -> FiniteModule:
    """Direct sum of two modules over the same base ring."""
    if e.base is not f.base:
        raise RingBuildError("module sum needs a common base ring")
    m = f.order
    order = e.order * m
    if order > MODULE_LIMIT:  # before the order x order addition table
        raise RingBuildError(
            f"module order {e.order}*{m} above bound {MODULE_LIMIT}")
    madd, mneg, act = _sum_tables((e._madd, e._mneg, e._act), (f._madd, f._mneg, f._act))

    def encode(lit):
        if not isinstance(lit, tuple) or len(lit) != 2:
            raise RingBuildError(f"sum module elements are pairs, got {render_literal(lit)}")
        return e.encode_literal(lit[0]) * m + f.encode_literal(lit[1])

    def decode(i):
        return (e.decode_literal(i // m), f.decode_literal(i % m))

    if spec is None:
        spec = ModuleSpec("sum", (), (e.spec, f.spec))
    return FiniteModule(e.base, madd, mneg, act, spec, encode, decode)


class TrivialExtensionRing(FiniteRing):
    """Trivial extension of A by E: pairs (a,e) with (a,e)(a',e') = (aa', ae'+a'e).

    Index layout is a*|E| + e, so the square-zero ideal 0xE occupies the
    contiguous index block 0..|E|-1.
    """

    def __init__(self, base: FiniteRing, module: FiniteModule, spec: RingSpec | None = None):
        if module.base is not base:
            raise RingBuildError("trivial extension needs a module over the given ring")
        self.base_ring = base
        self.ext_module = module
        self._m = module.order
        if spec is None:
            spec = RingSpec("trivext", (), (base.spec, module.spec))
        super().__init__(base.order * module.order, base.one * module.order, spec)

    def _build_tables(self):
        n, m = self.order, self._m
        dtype = _table_dtype(n)
        badd, bmul, bneg = self.base_ring._tables
        mod = self.ext_module
        act = mod._act
        add = compose(badd[:, None, :, None], mod._madd[None, :, None, :], m, dtype)
        # (a,e)(a',e') = (aa', a·e' + a'·e): one gather from madd at
        # act[a, e']·m + act[a', e], plus aa'·m.  The gather index is below
        # m² <= 2²⁰, so a narrow table takes it as uint32.
        index = compose(act[:, None, None, :], act.T[None, :, :, None], m,
                        np.int64 if dtype is np.int64 else np.uint32)
        mul = mod._madd.astype(dtype, copy=False).ravel()[index]
        mul += np.multiply(bmul[:, None, :, None], m, dtype=dtype, casting="unsafe")
        neg = compose(bneg[:, None], mod._mneg[None, :], m, dtype)
        return add.reshape(n, n), mul.reshape(n, n), neg.reshape(n)

    def _add_impl(self, a, b):
        m = self._m
        return self.base_ring.add_arr(a // m, b // m) * m + \
            self.ext_module.madd_arr(a % m, b % m)

    def _mul_impl(self, a, b):
        m = self._m
        aa, ae = a // m, a % m
        ba, be = b // m, b % m
        e = self.ext_module.madd_arr(self.ext_module.act_arr(aa, be),
                                     self.ext_module.act_arr(ba, ae))
        return self.base_ring.mul_arr(aa, ba) * m + e

    def _neg_impl(self, a):
        m = self._m
        return self.base_ring.neg_arr(a // m) * m + self.ext_module.mneg_arr(a % m)

    def encode_literal(self, lit) -> int:
        if not isinstance(lit, tuple) or len(lit) != 2:
            raise RingBuildError(f"{self.name} elements are pairs, got {render_literal(lit)}")
        return self.base_ring.encode_literal(lit[0]) * self._m + \
            self.ext_module.encode_literal(lit[1])

    def decode_literal(self, i: int):
        return (self.base_ring.decode_literal(i // self._m),
                self.ext_module.decode_literal(i % self._m))


class RingHom:
    """Ring homomorphism as an index map between two finite rings."""

    def __init__(self, source: FiniteRing, target: FiniteRing, index_map: np.ndarray):
        self.source = source
        self.target = target
        self.map = np.asarray(index_map, dtype=np.int64)
        if self.map.shape != (source.order,):
            raise RingBuildError("hom map must cover every source element")

    def verify(self) -> bool:
        """Check the hom laws on every pair of source elements: 0 and 1 first,
        then addition and multiplication on blocks of CACHE_BLOCK pairs,
        one 2-D gather per law and block; refused above KIND_SCAN_LIMIT
        pairs.  (A block of CHUNK pairs would hold about 100 MB at order 2048
        and up, and be slower there than one row at a time.)"""
        m = self.map
        src, tgt = self.source, self.target
        n = src.order
        if n * n > KIND_SCAN_LIMIT:
            raise BoundExceededError(
                f"hom check on {src.name} (order {n}) exceeds the pair cap")
        if m[src.zero] != tgt.zero or m[src.one] != tgt.one:
            return False
        cols = np.arange(n, dtype=np.int64)
        for start, stop in blocks(n, n, CACHE_BLOCK):
            rows, images = cols[start:stop, None], m[start:stop, None]
            if not (np.array_equal(m[src.add_arr(rows, cols)], tgt.add_arr(images, m))
                    and np.array_equal(m[src.mul_arr(rows, cols)], tgt.mul_arr(images, m))):
                return False
        return True


@dataclass(frozen=True)
class UnitPartition:
    """Certified split of a ring into units and zerodivisors (0 is one).

    ``witness[a]`` is an inverse of a when ``units[a]``, and otherwise a
    nonzero b with a·b = 0; unit_partition verifies every witness.
    """

    units: np.ndarray
    witness: np.ndarray


def unit_partition(ring: FiniteRing) -> UnitPartition:
    """The ring's unit/zerodivisor partition, built once and cached.

    Products and trivial extensions get their witnesses structurally in
    O(n), from the cached partitions of their factors or base ring; other
    rings, and extensions where that construction fails, get them from one
    scan of all n² products, refused above KIND_SCAN_LIMIT.  So a product
    of two factors that each pass the scan is split at any order.  Either
    way all witnesses are checked with two O(n) multiplications before the
    partition is kept.
    """
    return ring.memo("units", lambda: _certified_partition(ring))


def _certified_partition(ring: FiniteRing) -> UnitPartition:
    found = None
    if isinstance(ring, ProductRing):
        found = _product_witnesses(ring)
    elif isinstance(ring, TrivialExtensionRing):
        found = _trivext_witnesses(ring)
    units, witness = found if found is not None else _scan_witnesses(ring)
    idx = np.arange(ring.order, dtype=np.int64)
    unit_idx, other = idx[units], idx[~units]
    if not bool(np.all(ring.mul_arr(unit_idx, witness[unit_idx]) == ring.one)):
        raise ConsistencyError(f"{ring.name}: inverse witnesses failed to verify")
    if not (bool(np.all(witness[other] != ring.zero))
            and bool(np.all(ring.mul_arr(other, witness[other]) == ring.zero))):
        raise ConsistencyError(f"{ring.name}: zerodivisor witnesses failed to verify")
    return UnitPartition(units, witness)


def _scan_witnesses(ring: FiniteRing) -> tuple[np.ndarray, np.ndarray]:
    """First inverse, else first nonzero annihilator, of every element, from
    one scan of the multiplication table in blocks of CACHE_BLOCK pairs (a
    block of CHUNK pairs held about 64 MB at order 2048, and was slower)."""
    n = ring.order
    if n * n > KIND_SCAN_LIMIT:
        raise BoundExceededError(
            f"unit scan on {ring.name} (order {n}) exceeds the pair cap")
    cols = np.arange(n, dtype=np.int64)
    units = np.zeros(n, dtype=bool)
    witness = np.zeros(n, dtype=np.int64)
    for start, stop in blocks(n, n, CACHE_BLOCK):
        rows = cols[start:stop]
        prods = ring.mul_arr(rows[:, None], cols[None, :])
        inverse = prods == ring.one
        units[rows] = inverse.any(axis=1)
        witness[rows] = np.where(units[rows], inverse.argmax(axis=1),
                                 (prods[:, 1:] == ring.zero).argmax(axis=1) + 1)
    return units, witness


def _product_witnesses(ring: ProductRing) -> tuple[np.ndarray, np.ndarray]:
    """Witnesses for A × B from the partitions of A and B.

    (a, b) is a unit iff a and b are, with the inverse (a⁻¹, b⁻¹).
    Otherwise (w_a, 0) annihilates it when a is a non-unit with the
    annihilator witness w_a, and (0, w_b) does when a is a unit.
    """
    left, right = unit_partition(ring.left), unit_partition(ring.right)
    m = ring._m
    left_units, right_units = left.units[:, None], right.units[None, :]
    left_witness, right_witness = left.witness[:, None] * m, right.witness[None, :]
    units = left_units & right_units
    witness = np.where(units, left_witness + right_witness,
                       np.where(left_units, right_witness, left_witness))
    return units.ravel(), witness.ravel()


def _trivext_witnesses(ring: TrivialExtensionRing
                       ) -> tuple[np.ndarray, np.ndarray] | None:
    """Witnesses for A ∝ E from the partition of A.

    (a,e) with a a unit of A has the inverse (a⁻¹, −a⁻²e); otherwise (0,e')
    annihilates it for any nonzero e' ∈ E with a·e' = 0.  None when some
    non-unit of A kills no nonzero element of E.
    """
    base, mod = ring.base_ring, ring.ext_module
    m = mod.order
    base_part = unit_partition(base)
    nonunits = np.flatnonzero(~base_part.units)
    kills = mod.act_arr(nonunits[:, None],
                        np.arange(1, m, dtype=np.int64)[None, :]) == mod.mzero
    if not bool(kills.any(axis=1).all()):
        return None
    ann = np.zeros(base.order, dtype=np.int64)
    ann[nonunits] = kills.argmax(axis=1) + 1
    idx = np.arange(ring.order, dtype=np.int64)
    a, e = idx // m, idx % m
    units = base_part.units[a]
    a_inv = base_part.witness[a]
    e_inv = mod.mneg_arr(mod.act_arr(base.mul_arr(a_inv, a_inv), e))
    return units, np.where(units, a_inv * m + e_inv, ann[a])


def element_units(ring: FiniteRing) -> np.ndarray:
    """Boolean unit mask of the certified partition."""
    return unit_partition(ring).units


def primitive_idempotents(ring: FiniteRing) -> np.ndarray:
    """The primitive idempotents of the ring in ascending order, cached.

    The idempotents are the solutions of a² = a, read from one O(n)
    product.  A nonzero idempotent e is primitive when no nonzero
    idempotent f ≠ e lies below it (e·f = f), which takes |E|² products
    for the 2^k idempotents of a ring with k local factors.  The ring is
    the product of its corners eR over these e (Atiyah–Macdonald, Thm 8.7).
    A product A × B lifts those of its factors, with no product taken: an
    idempotent (e, f) is primitive iff one part is 0 and the other
    primitive, and (0, f) = f sorts below every (e, 0) = e·|B|.
    `ideals.local_factors` checks that the lifted ones sum to 1.
    """
    return ring.memo("idempotents", lambda: _primitive_idempotents(ring))


def _primitive_idempotents(ring: FiniteRing) -> np.ndarray:
    if isinstance(ring, ProductRing):
        return np.concatenate([primitive_idempotents(ring.right),
                               primitive_idempotents(ring.left) * ring._m])
    idx = np.arange(ring.order, dtype=np.int64)
    idem = idx[(ring.mul_arr(idx, idx) == idx) & (idx != ring.zero)]
    prods = ring.mul_arr(idem[:, None], idem[None, :])
    # below[e, f]: f is a nonzero idempotent other than e with e·f = f
    below = (prods == idem[None, :]) & (idem[:, None] != idem[None, :])
    return idem[~below.any(axis=1)]


def group_generators(ring: FiniteRing, group: str) -> np.ndarray:
    """Greedy generators of ``"additive"`` (R, +) or ``"units"`` U, cached.

    The members are visited in ascending order, and one outside the
    subgroup H generated so far becomes a generator g.  ⟨H, g⟩ is
    H·{1, g, g², …} (written multiplicatively), grown by doubling from
    K = H and s = g: K ← K ∪ K·s and s ← s², until K stops growing.  Each
    generator at least doubles H, so there are at most log₂|G| of them,
    and each costs O(|G| log |G|) operations.
    """
    return ring.memo(("generators", group), lambda: _greedy_generators(ring, group))


def _greedy_generators(ring: FiniteRing, group: str) -> np.ndarray:
    if group == "additive":
        members, op, identity = np.ones(ring.order, dtype=bool), ring.add_arr, ring.zero
    elif group == "units":
        members, op, identity = unit_partition(ring).units, ring.mul_arr, ring.one
    else:
        raise ValueError(f"unknown group {group!r}")
    reached = np.zeros(ring.order, dtype=bool)
    reached[identity] = True
    subgroup = np.array([identity], dtype=np.int64)
    gens = []
    while True:
        left = np.flatnonzero(members & ~reached)
        if not left.size:
            return np.array(gens, dtype=np.int64)
        step = left[0]
        gens.append(step)
        while True:
            reached[op(subgroup, step)] = True
            grown = np.flatnonzero(reached)
            if grown.size == subgroup.size:
                break
            subgroup, step = grown, op(step, step)


def associate_leaders(ring: FiniteRing) -> np.ndarray:
    """``leader[a]`` is the least element of the associate class U·a, cached.

    Read from `associate_sweep`.  Associates generate the same principal
    ideal and have the same content in any polynomial they scale, so
    whatever depends only on R·a can be computed at the leaders alone.
    """
    return associate_sweep(ring)[0]


def associate_sweep(ring: FiniteRing) -> tuple[np.ndarray, list[int]]:
    """``(leader, principal)`` for every element a, from one cached sweep.

    ``leader[a]`` is the least element of the associate class U·a and
    ``principal[a]`` the membership mask of R·a.  The elements are visited
    in ascending order; one that no earlier class has reached is the least
    of its own class, so it is a leader and gets one product row R·a.  The
    row's entries at the units u are the class U·a, and since R·(ua) = R·a
    its mask is filed for every element of the class.  The cost is (number
    of classes)·n products instead of n², with the units taken from the
    certified partition; the sweep steps from leader to leader (one numpy
    scan for the next element not reached) and builds one mask per class.
    """
    return ring.memo("associates", lambda: _associate_sweep(ring))


def _associate_sweep(ring: FiniteRing) -> tuple[np.ndarray, list[int]]:
    n = ring.order
    units = np.flatnonzero(unit_partition(ring).units)
    cols = np.arange(n, dtype=np.int64)
    leader = np.full(n, n, dtype=np.int64)     # n: no class has reached it
    class_mask: dict[int, int] = {}
    a = 0
    while a < n:
        row = ring.mul_arr(cols, a)
        class_mask[a] = mask_from_indices(row, n)
        leader[row[units]] = a
        # a = 1·a is filed now, so an argmax of 0 means nothing is left
        a += int(np.argmax(leader[a:] == n)) or n
    return leader, [class_mask[b] for b in leader.tolist()]


def verify_ring_axioms(ring: FiniteRing, triple_limit: int = 64) -> bool:
    """Exhaustively verify the commutative-ring axioms.

    Pairwise laws are checked over all pairs; the associativity and
    distributivity triples run over all order^3 combinations when
    order <= triple_limit and raise otherwise.
    """
    n = ring.order
    if n > triple_limit:
        raise BoundExceededError(
            f"axiom verification is cubic; {ring.name} has order {n} > {triple_limit}")
    idx = np.arange(n, dtype=np.int64)
    a = idx[:, None, None]
    b = idx[None, :, None]
    c = idx[None, None, :]
    add, mul = ring.add_arr, ring.mul_arr
    pair_a, pair_b = idx[:, None], idx[None, :]
    checks = [
        (add(pair_a, pair_b) == add(pair_b, pair_a), "addition commutes"),
        (mul(pair_a, pair_b) == mul(pair_b, pair_a), "multiplication commutes"),
        (add(idx, ring.zero) == idx, "0 is additive identity"),
        (add(idx, ring.neg_arr(idx)) == ring.zero, "negation inverts"),
        (mul(idx, ring.one) == idx, "1 is multiplicative identity"),
        (add(add(a, b), c) == add(a, add(b, c)), "addition associates"),
        (mul(mul(a, b), c) == mul(a, mul(b, c)), "multiplication associates"),
        (mul(a, add(b, c)) == add(mul(a, b), mul(a, c)), "multiplication distributes"),
    ]
    for ok, law in checks:
        if not bool(np.all(ok)):
            raise ConsistencyError(f"{ring.name}: ring axiom failed: {law}")
    return True


def verify_module_axioms(module: FiniteModule, triple_limit: int = 64) -> bool:
    """Exhaustively verify the module axioms over all index combinations."""
    base = module.base
    if max(base.order, module.order) > triple_limit:
        raise BoundExceededError(
            f"axiom verification is cubic; {module.name} is above {triple_limit}")
    e = np.arange(module.order, dtype=np.int64)
    a = np.arange(base.order, dtype=np.int64)
    madd, act = module.madd_arr, module.act_arr
    ee, ff = e[:, None], e[None, :]
    aa = a[:, None, None]
    bb = a[None, :, None]
    e3 = e[None, None, :]
    checks = [
        (madd(ee, ff) == madd(ff, ee), "addition commutes"),
        (madd(e, module.mzero) == e, "0 is additive identity"),
        (madd(e, module.mneg_arr(e)) == module.mzero, "negation inverts"),
        (act(base.one, e) == e, "1 acts as identity"),
        (madd(madd(e[:, None, None], e[None, :, None]), e[None, None, :])
         == madd(e[:, None, None], madd(e[None, :, None], e[None, None, :])),
         "addition associates"),
        (act(base.mul_arr(aa, bb), e3) == act(aa, act(bb, e3)), "action associates"),
        (act(base.add_arr(aa, bb), e3) == madd(act(aa, e3), act(bb, e3)),
         "action distributes over ring addition"),
        (act(a[:, None, None], madd(e[None, :, None], e[None, None, :]))
         == madd(act(a[:, None, None], e[None, :, None]),
                 act(a[:, None, None], e[None, None, :])),
         "action distributes over module addition"),
    ]
    for ok, law in checks:
        if not bool(np.all(ok)):
            raise ConsistencyError(f"{module.name}: module axiom failed: {law}")
    return True
