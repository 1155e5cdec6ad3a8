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

One table, `CONSTRUCTORS`, knows the constructors: for each kind, whether it
declares a ring or a module, the shapes of its arguments and its builder.
The parser reads each argument by its shape; a spec keeps the ring and module
arguments as its children and the others as its params, and `build_ring`
calls builder(*built children, *params, spec).

A file is UTF-8 text.  An integer is at most 18 ASCII digits, optionally
after '-'; a name starts with a letter (`str.isalpha`) or '_' and goes on with
letters, digits or '_'.  Element literals are integers for zmod/gf and
(possibly nested) tuples for products and trivial extensions.  Tuple literals,
and chains of constructors, nest at most MAX_NESTING deep.  A poly statement
binds to the most recently declared ring.  The classification target is the
last ring declared.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

from .errors import RingBuildError, SpecError
from .ideals import ideal_generated_by, make_quotient, quotient_module
from .rings import (FiniteModule, FiniteRing, GFRing, ModuleSpec, ProductRing,
                    RingSpec, Spec, TrivialExtensionRing, ZmodRing,
                    free_module, module_sum)

MAX_INT_DIGITS = 18   # above every supported order and rank; literals fit int64
# each tuple level, and each product, trivext, free or sum, at least doubles
# an order, and no ring exceeds 2^20, so no buildable ring nests this deep
MAX_NESTING = 64

_TOKEN = re.compile(r"(?P<INT>-?[0-9]+)|(?P<IDENT>\w+)|(?P<SYM>[()\[\]=,;])"
                    r"|(?P<NEWLINE>\n)|[ \t\r]+|#[^\n]*|(?P<BAD>.)")


def _quotient(parent: FiniteRing, gens: tuple, spec: RingSpec) -> FiniteRing:
    ideal = ideal_generated_by(parent, [parent.encode_literal(l) for l in gens])
    return make_quotient(parent, ideal, spec)[0]


def _quot_module(base: FiniteRing, gens: tuple, spec: ModuleSpec) -> FiniteModule:
    ideal = ideal_generated_by(base, [base.encode_literal(l) for l in gens])
    return quotient_module(base, ideal, spec)


class Constructor(NamedTuple):
    declares: str             # "ring" or "module"
    shapes: tuple[str, ...]   # "ring", "module", "int", or "<keyword>=<item shape>"
    builder: Callable         # builder(*built children, *params, spec)


CONSTRUCTORS = {
    "zmod": Constructor("ring", ("int",), ZmodRing),
    "gf": Constructor("ring", ("int", "int", "poly=int"), GFRing),
    "product": Constructor("ring", ("ring", "ring"), ProductRing),
    "quotient": Constructor("ring", ("ring", "gens=literal"), _quotient),
    "trivext": Constructor("ring", ("ring", "module"), TrivialExtensionRing),
    "free": Constructor("module", ("ring", "int"), free_module),
    "quot_module": Constructor("module", ("ring", "gens=literal"), _quot_module),
    "sum": Constructor("module", ("module", "module"), module_sum),
}

# the two constructors whose children must share one base ring
_BASE_MISMATCH = {"trivext": "trivext module is not over the named base ring",
                  "sum": "sum of modules over different base rings"}


@dataclass(frozen=True)
class Token:
    kind: str  # IDENT, INT, SYM, END
    text: str
    line: int
    col: int


def _tokenize(text: str) -> list[Token]:
    tokens: list[Token] = []
    line, line_start = 1, 0
    for match in _TOKEN.finditer(text):
        kind, word = match.lastgroup, match.group()
        col = match.start() - line_start + 1
        if kind == "NEWLINE":
            tokens.append(Token("SYM", ";", line, col))
            line, line_start = line + 1, match.end()
        elif kind == "BAD" or kind == "IDENT" and not (word[0].isalpha() or word[0] == "_"):
            raise SpecError(f"unexpected character {word[0]!r}", line, col)
        elif kind == "INT" and len(word.lstrip("-")) > MAX_INT_DIGITS:
            raise SpecError(f"integer literal longer than {MAX_INT_DIGITS} digits", line, col)
        elif kind is not None:
            tokens.append(Token(kind, word, line, col))
    tokens.append(Token("END", "", line, len(text) - line_start + 1))
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
        self.nesting = 0  # tuple literals open at the current token
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

    def expect(self, kind: str, what: str, sym: str | None = None) -> Token:
        tok = self.take()
        if tok.kind != kind or sym is not None and tok.text != sym:
            self.fail(f"expected {what}, found {tok.text!r}", tok)
        return tok

    def parse(self) -> SpecProgram:
        while True:
            while self.peek().text == ";":
                self.take()
            if self.peek().kind == "END":
                break
            self.statement()
            nxt = self.peek()
            if nxt.kind == "END":
                break
            if nxt.text != ";":
                self.fail(f"expected end of statement, found {nxt.text!r}", nxt)
        if self.program.target is None:
            raise SpecError("spec declares no ring")
        return self.program

    def statement(self) -> None:
        head = self.expect("IDENT", "'ring', 'module', or 'poly'")
        if head.text not in ("ring", "module", "poly"):
            self.fail(f"unknown statement {head.text!r}", head)
        name_tok = self.expect("IDENT", "name")
        name = name_tok.text
        self.expect("SYM", "'='", "=")
        if head.text == "poly":
            if self.program.target is None:
                self.fail("poly statement before any ring", head)
            lits = tuple(self.bracketed(self.literal))
            self.program.polys[name] = (self.program.target, lits)
            return
        if name in self.program.rings or name in self.program.modules:
            self.fail(f"duplicate identifier {name!r}", name_tok)
        spec = self.constructor(head.text)
        if head.text == "ring":
            self.program.rings[name] = spec
            self.program.target = name
        else:
            self.program.modules[name] = spec

    def constructor(self, declared: str) -> Spec:
        """kind(argument, ...), each argument read by its shape."""
        kind = self.expect("IDENT", f"{declared} constructor")
        opening = self.expect("SYM", "'('", "(")
        entry = CONSTRUCTORS.get(kind.text)
        if entry is None or entry.declares != declared:
            self.fail(f"unknown {declared} constructor {kind.text!r}", kind)
        first = self.peek()
        children, params = [], []
        for i, shape in enumerate(entry.shapes):
            if i:
                self.expect("SYM", "','", ",")
            arg = self.argument(shape)
            (children if shape in ("ring", "module") else params).append(arg)
        self.expect("SYM", "')'", ")")
        spec = (RingSpec if declared == "ring" else ModuleSpec)(
            kind.text, tuple(params), tuple(children))
        if spec.depth > MAX_NESTING:
            self.fail(f"constructors nested deeper than {MAX_NESTING}", kind)
        # the checks that no shape expresses
        if kind.text == "zmod" and params[0] < 2:
            self.fail(f"zmod modulus must be >= 2, got {params[0]}", opening)
        if kind.text == "free" and params[0] < 1:
            self.fail(f"free module rank must be >= 1, got {params[0]}", kind)
        if (kind.text in _BASE_MISMATCH
                and module_base_spec(children[0]) != module_base_spec(children[1])):
            self.fail(_BASE_MISMATCH[kind.text], first)
        if kind.text == "gf":
            try:  # the field checks its modulus; the spec cache keeps it
                build_ring(spec)
            except SpecError as exc:
                self.fail(str(exc), kind)
        return spec

    def argument(self, shape: str):
        """One argument of a constructor, read by its shape."""
        if shape == "int":
            return int(self.expect("INT", "integer").text)
        if shape == "literal":
            return self.literal()
        if shape in ("ring", "module"):
            tok = self.expect("IDENT", f"{shape} name")
            declared = self.program.rings if shape == "ring" else self.program.modules
            if tok.text not in declared:
                self.fail(f"unknown {shape} {tok.text!r}", tok)
            return declared[tok.text]
        keyword, item = shape.split("=")
        tok = self.expect("IDENT", repr(keyword))
        if tok.text != keyword:
            self.fail(f"expected {keyword}=[...]", tok)
        self.expect("SYM", "'='", "=")
        return tuple(self.bracketed(lambda: self.argument(item)))

    def bracketed(self, item) -> list:
        """'[' item, item, … ']', possibly empty."""
        self.expect("SYM", "'['", "[")
        out = []
        if self.peek().text != "]":
            out = self.separated(item)
        self.expect("SYM", "']'", "]")
        return out

    def separated(self, item) -> list:
        """item (',' item)*"""
        out = [item()]
        while self.peek().text == ",":
            self.take()
            out.append(item())
        return out

    def literal(self):
        tok = self.peek()
        if tok.kind == "INT":
            return int(self.take().text)
        if tok.text == "(":
            self.nesting += 1
            if self.nesting > MAX_NESTING:
                self.fail(f"tuple literal nested deeper than {MAX_NESTING}", tok)
            self.take()
            items = self.separated(self.literal)
            self.expect("SYM", "')'", ")")
            self.nesting -= 1
            if len(items) < 2:
                self.fail("tuple literal needs at least two components", tok)
            return tuple(items)
        self.fail(f"expected element literal, found {tok.text!r}", tok)


def module_base_spec(spec: Spec) -> RingSpec:
    """The base ring of a module spec; a ring spec is its own base."""
    while isinstance(spec, ModuleSpec):
        spec = spec.children[0]
    return spec


def parse_ring_spec(text: str) -> SpecProgram:
    """Parse a spec file into named RingSpec/ModuleSpec trees."""
    return _Parser(_tokenize(text)).parse()


_RING_CACHE: dict[RingSpec, FiniteRing] = {}
_MODULE_CACHE: dict[ModuleSpec, FiniteModule] = {}


def build_ring(spec: Spec) -> FiniteRing | FiniteModule:
    """Construct (memoized) the ring or module described by a spec tree.

    Identical specs return the identical object, which is what makes module /
    base-ring identity checks work across independently parsed files.
    """
    entry = CONSTRUCTORS[spec.kind]
    cache = _RING_CACHE if entry.declares == "ring" else _MODULE_CACHE
    hit = cache.get(spec)
    if hit is not None:
        return hit
    children = [build_ring(child) for child in spec.children]
    try:
        built = entry.builder(*children, *spec.params, spec)
    except RingBuildError as exc:
        raise SpecError(str(exc)) from exc
    cache[spec] = built
    return built


def build_target(program: SpecProgram) -> FiniteRing:
    return build_ring(program.rings[program.target])
