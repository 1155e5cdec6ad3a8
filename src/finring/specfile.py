"""Parser and builder for ring-spec files.

Line-oriented grammar (statements split on newlines and ';', comments with #):

    ring   <id> = zmod(<n>)
    ring   <id> = gf(<p>,<k>,poly=[c0,...,ck])
    ring   <id> = product(<ring-id>,<ring-id>)
    ring   <id> = quotient(<ring-id>, gens=[...])
    ring   <id> = trivext(<ring-id>, <module-id>)
    module <id> = free(<ring-id>, <n>)
    module <id> = quot_module(<ring-id>, gens=[...])
    module <id> = sum(<module-id>,<module-id>)
    poly   <id> = [c0, c1, ...]

Element literals are integers for zmod/gf and (possibly nested) tuples for
products and trivial extensions.  A poly statement binds to the most recently
declared ring.  The classification target is the last ring declared.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import RingBuildError, SpecError
from .ideals import ideal_generated_by, make_quotient, quotient_module
from .rings import (FiniteModule, FiniteRing, GFRing, ModuleSpec, ProductRing,
                    RingSpec, TrivialExtensionRing, ZmodRing, free_module,
                    module_sum)

MAX_INT_DIGITS = 18   # above every supported order and rank; literals fit int64


@dataclass(frozen=True)
class Token:
    kind: str  # IDENT, INT, SYM, END
    text: str
    line: int
    col: int


def _tokenize(text: str) -> list[Token]:
    tokens: list[Token] = []
    line, col = 1, 1
    i = 0
    symbols = "()[]=,;"
    while i < len(text):
        ch = text[i]
        if ch == "#":
            while i < len(text) and text[i] != "\n":
                i += 1
            continue
        if ch == "\n":
            tokens.append(Token("SYM", ";", line, col))
            line += 1
            col = 1
            i += 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch in symbols:
            tokens.append(Token("SYM", ch, line, col))
            i += 1
            col += 1
            continue
        if ch.isdigit() or (ch == "-" and i + 1 < len(text) and text[i + 1].isdigit()):
            start = i
            i += 1
            while i < len(text) and text[i].isdigit():
                i += 1
            if i - start > MAX_INT_DIGITS + (ch == "-"):
                raise SpecError(f"integer literal longer than {MAX_INT_DIGITS} digits", line, col)
            tokens.append(Token("INT", text[start:i], line, col))
            col += i - start
            continue
        if ch.isalpha() or ch == "_":
            start = i
            while i < len(text) and (text[i].isalnum() or text[i] == "_"):
                i += 1
            tokens.append(Token("IDENT", text[start:i], line, col))
            col += i - start
            continue
        raise SpecError(f"unexpected character {ch!r}", line, col)
    tokens.append(Token("END", "", line, col))
    return tokens


@dataclass
class SpecProgram:
    """Parsed spec file: named ring/module specs plus polynomial literals."""

    rings: dict[str, RingSpec] = field(default_factory=dict)
    modules: dict[str, ModuleSpec] = field(default_factory=dict)
    polys: dict[str, tuple[str, tuple]] = field(default_factory=dict)  # name -> (ring id, literals)
    target: str | None = None  # last declared ring


class _Parser:
    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.pos = 0
        self.program = SpecProgram()

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def take(self) -> Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def fail(self, message: str, tok: Token | None = None):
        tok = tok or self.peek()
        raise SpecError(message, tok.line, tok.col)

    def expect_sym(self, sym: str) -> Token:
        tok = self.take()
        if tok.kind != "SYM" or tok.text != sym:
            self.fail(f"expected {sym!r}, found {tok.text!r}", tok)
        return tok

    def expect_ident(self, what: str = "identifier") -> Token:
        tok = self.take()
        if tok.kind != "IDENT":
            self.fail(f"expected {what}, found {tok.text!r}", tok)
        return tok

    def expect_int(self) -> int:
        tok = self.take()
        if tok.kind != "INT":
            self.fail(f"expected integer, found {tok.text!r}", tok)
        return int(tok.text)

    def parse(self) -> SpecProgram:
        while True:
            while self.peek().kind == "SYM" and self.peek().text == ";":
                self.take()
            if self.peek().kind == "END":
                break
            self.statement()
            nxt = self.peek()
            if nxt.kind == "END":
                break
            if nxt.kind == "SYM" and nxt.text == ";":
                continue
            self.fail(f"expected end of statement, found {nxt.text!r}", nxt)
        if self.program.target is None:
            raise SpecError("spec declares no ring")
        return self.program

    def statement(self) -> None:
        head = self.expect_ident("'ring', 'module', or 'poly'")
        if head.text not in ("ring", "module", "poly"):
            self.fail(f"unknown statement {head.text!r}", head)
        name_tok = self.expect_ident("name")
        name = name_tok.text
        self.expect_sym("=")
        if head.text == "ring":
            if name in self.program.rings or name in self.program.modules:
                self.fail(f"duplicate identifier {name!r}", name_tok)
            self.program.rings[name] = self.ring_expr()
            self.program.target = name
        elif head.text == "module":
            if name in self.program.rings or name in self.program.modules:
                self.fail(f"duplicate identifier {name!r}", name_tok)
            self.program.modules[name] = self.module_expr()
        else:
            if self.program.target is None:
                self.fail("poly statement before any ring", head)
            lits = tuple(self.bracketed(self.literal))
            self.program.polys[name] = (self.program.target, lits)

    def ring_ref(self) -> RingSpec:
        tok = self.expect_ident("ring name")
        spec = self.program.rings.get(tok.text)
        if spec is None:
            self.fail(f"unknown ring {tok.text!r}", tok)
        return spec

    def module_ref(self) -> ModuleSpec:
        tok = self.expect_ident("module name")
        spec = self.program.modules.get(tok.text)
        if spec is None:
            self.fail(f"unknown module {tok.text!r}", tok)
        return spec

    def ring_expr(self) -> RingSpec:
        kind = self.expect_ident("ring constructor")
        open_tok = self.expect_sym("(")
        if kind.text == "zmod":
            n = self.expect_int()
            if n < 2:
                self.fail(f"zmod modulus must be >= 2, got {n}", open_tok)
            self.expect_sym(")")
            return RingSpec("zmod", (n,))
        if kind.text == "gf":
            p = self.expect_int()
            self.expect_sym(",")
            k = self.expect_int()
            self.expect_sym(",")
            key = self.expect_ident("'poly'")
            if key.text != "poly":
                self.fail("gf needs poly=[...]", key)
            self.expect_sym("=")
            coeffs = self.bracketed(self.expect_int)
            self.expect_sym(")")
            spec = RingSpec("gf", (p, k, tuple(coeffs)))
            try:  # the field checks its modulus; the spec cache keeps it
                build_ring(spec)
            except SpecError as exc:
                self.fail(str(exc), kind)
            return spec
        if kind.text == "product":
            left = self.ring_ref()
            self.expect_sym(",")
            right = self.ring_ref()
            self.expect_sym(")")
            return RingSpec("product", (), (left, right))
        if kind.text == "quotient":
            parent = self.ring_ref()
            self.expect_sym(",")
            gens = self.gens_clause()
            self.expect_sym(")")
            return RingSpec("quotient", (gens,), (parent,))
        if kind.text == "trivext":
            base_tok = self.peek()
            base = self.ring_ref()
            self.expect_sym(",")
            module = self.module_ref()
            self.expect_sym(")")
            if module_base_spec(module) != base:
                self.fail("trivext module is not over the named base ring", base_tok)
            return RingSpec("trivext", (), (base, module))
        self.fail(f"unknown ring constructor {kind.text!r}", kind)

    def module_expr(self) -> ModuleSpec:
        kind = self.expect_ident("module constructor")
        self.expect_sym("(")
        if kind.text == "free":
            base = self.ring_ref()
            self.expect_sym(",")
            n = self.expect_int()
            self.expect_sym(")")
            if n < 1:
                self.fail(f"free module rank must be >= 1, got {n}", kind)
            return ModuleSpec("free", (n,), (base,))
        if kind.text == "quot_module":
            base = self.ring_ref()
            self.expect_sym(",")
            gens = self.gens_clause()
            self.expect_sym(")")
            return ModuleSpec("quot_module", (gens,), (base,))
        if kind.text == "sum":
            left_tok = self.peek()
            left = self.module_ref()
            self.expect_sym(",")
            right = self.module_ref()
            self.expect_sym(")")
            if module_base_spec(left) != module_base_spec(right):
                self.fail("sum of modules over different base rings", left_tok)
            return ModuleSpec("sum", (), (left, right))
        self.fail(f"unknown module constructor {kind.text!r}", kind)

    def gens_clause(self) -> tuple:
        key = self.expect_ident("'gens'")
        if key.text != "gens":
            self.fail("expected gens=[...]", key)
        self.expect_sym("=")
        return tuple(self.bracketed(self.literal))

    def bracketed(self, item) -> list:
        """'[' item, item, … ']', possibly empty."""
        self.expect_sym("[")
        out = []
        if not (self.peek().kind == "SYM" and self.peek().text == "]"):
            out = self.separated(item)
        self.expect_sym("]")
        return out

    def separated(self, item) -> list:
        """item (',' item)*"""
        out = [item()]
        while self.peek().kind == "SYM" and self.peek().text == ",":
            self.take()
            out.append(item())
        return out

    def literal(self):
        tok = self.peek()
        if tok.kind == "INT":
            return int(self.take().text)
        if tok.kind == "SYM" and tok.text == "(":
            self.take()
            items = self.separated(self.literal)
            self.expect_sym(")")
            if len(items) < 2:
                self.fail("tuple literal needs at least two components", tok)
            return tuple(items)
        self.fail(f"expected element literal, found {tok.text!r}", tok)


def module_base_spec(spec: ModuleSpec) -> RingSpec:
    if spec.kind in ("free", "quot_module"):
        return spec.children[0]
    return module_base_spec(spec.children[0])


def parse_ring_spec(text: str) -> SpecProgram:
    """Parse a spec file into named RingSpec/ModuleSpec trees."""
    return _Parser(_tokenize(text)).parse()


_RING_CACHE: dict[RingSpec, FiniteRing] = {}
_MODULE_CACHE: dict[ModuleSpec, FiniteModule] = {}


def build_ring(spec: RingSpec) -> FiniteRing:
    """Construct (memoized) the ring described by a spec tree.

    Identical specs return the identical object, which is what makes module /
    base-ring identity checks work across independently parsed files.
    """
    hit = _RING_CACHE.get(spec)
    if hit is not None:
        return hit
    try:
        ring = _build_ring_inner(spec)
    except RingBuildError as exc:
        raise SpecError(str(exc)) from exc
    _RING_CACHE[spec] = ring
    return ring


def _build_ring_inner(spec: RingSpec) -> FiniteRing:
    if spec.kind == "zmod":
        return ZmodRing(spec.params[0], spec)
    if spec.kind == "gf":
        p, k, poly = spec.params
        return GFRing(p, k, poly, spec)
    if spec.kind == "product":
        return ProductRing(build_ring(spec.children[0]),
                           build_ring(spec.children[1]), spec)
    if spec.kind == "quotient":
        parent = build_ring(spec.children[0])
        gens = [parent.encode_literal(l) for l in spec.params[0]]
        ideal = ideal_generated_by(parent, gens)
        if ideal.is_unit_ideal():
            raise RingBuildError("cannot quotient by the unit ideal")
        return make_quotient(parent, ideal, spec)[0]
    if spec.kind == "trivext":
        base = build_ring(spec.children[0])
        module = build_module(spec.children[1])
        if module.base is not base:
            raise RingBuildError("trivext module is not over the named base ring")
        return TrivialExtensionRing(base, module, spec)
    raise RingBuildError(f"unknown ring spec kind {spec.kind!r}")


def build_module(spec: ModuleSpec) -> FiniteModule:
    hit = _MODULE_CACHE.get(spec)
    if hit is not None:
        return hit
    try:
        module = _build_module_inner(spec)
    except RingBuildError as exc:
        raise SpecError(str(exc)) from exc
    _MODULE_CACHE[spec] = module
    return module


def _build_module_inner(spec: ModuleSpec) -> FiniteModule:
    if spec.kind == "free":
        return free_module(build_ring(spec.children[0]), spec.params[0], spec)
    if spec.kind == "quot_module":
        base = build_ring(spec.children[0])
        gens = [base.encode_literal(l) for l in spec.params[0]]
        ideal = ideal_generated_by(base, gens)
        return quotient_module(base, ideal, spec)
    if spec.kind == "sum":
        return module_sum(build_module(spec.children[0]),
                          build_module(spec.children[1]), spec)
    raise RingBuildError(f"unknown module spec kind {spec.kind!r}")


def build_target(program: SpecProgram) -> FiniteRing:
    return build_ring(program.rings[program.target])
