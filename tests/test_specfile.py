"""Spec-file grammar: parsing, validation diagnostics, and ring building."""

import pytest
from hypothesis import example, given, settings, strategies as st

from finring import specfile
from finring.cli import main
from finring.errors import BoundExceededError, RingBuildError, SpecError
from finring.rings import GFRing
from finring.specfile import build_ring, build_target, parse_ring_spec


GOOD_SPEC = """\
# residue-field idealization of Z/4
ring   a = zmod(4)
module e = quot_module(a, gens=[2])
ring   r = trivext(a, e)
poly   f = [(2, 0), (0, 1)]
"""


def test_parse_good_spec():
    program = parse_ring_spec(GOOD_SPEC)
    assert set(program.rings) == {"a", "r"}
    assert set(program.modules) == {"e"}
    assert program.target == "r"
    assert program.polys["f"] == ("r", ((2, 0), (0, 1)))


def test_build_target_shape():
    ring = build_target(parse_ring_spec(GOOD_SPEC))
    assert ring.order == 8
    assert ring.name == "trivext(zmod(4),quot_module(zmod(4),[2]))"


def test_build_ring_is_cached_per_spec():
    program = parse_ring_spec(GOOD_SPEC)
    first = build_ring(program.rings["r"])
    second = build_ring(program.rings["r"])
    assert first is second


def test_statements_split_on_semicolons():
    program = parse_ring_spec("ring a = zmod(4); ring b = zmod(9)")
    assert list(program.rings) == ["a", "b"]
    assert program.target == "b"


def test_gf_and_product_and_quotient():
    text = """\
ring f8 = gf(2, 3, poly=[1, 1, 0, 1])
ring z6 = zmod(6)
ring p  = product(f8, z6)
ring q  = quotient(z6, gens=[3])
"""
    program = parse_ring_spec(text)
    assert build_ring(program.rings["f8"]).order == 8
    assert build_ring(program.rings["p"]).order == 48
    assert build_ring(program.rings["q"]).order == 3


def test_module_sum_and_free():
    text = """\
ring k = gf(2, 1, poly=[0, 1])
module e1 = free(k, 1)
module e2 = free(k, 1)
module e  = sum(e1, e2)
ring r = trivext(k, e)
"""
    ring = build_target(parse_ring_spec(text))
    assert ring.order == 8


@pytest.mark.parametrize("text,fragment,line,col", [
    ("rng a = zmod(4)", "unknown statement", 1, 1),
    ("ring a = zmod(1)", "zmod modulus", 1, 14),
    ("ring a = zmod(4)\nring a = zmod(9)", "duplicate identifier", 2, 6),
    ("ring a = product(a, a)", "unknown ring 'a'", 1, 18),
    ("ring a = zmod(4)\nmodule e = free(b, 1)", "unknown ring 'b'", 2, 17),
    ("ring a = gf(4, 2, poly=[1, 1, 1])", "not prime", 1, 10),
    ("ring a = gf(2, 2, poly=[1, 0, 1])", "reducible", 1, 10),
    ("ring a = gf(2, 2, poly=[1, 1])", "coefficients", 1, 10),
    ("poly f = [1]", "poly statement before any ring", 1, 1),
    ("ring a = zmod(4) ring b = zmod(9)", "expected end of statement", 1, 18),
    ("ring a = zmod(4)\npoly f = [(1)]", "tuple literal", 2, 11),
    ("ring a = zmod(4)?", "unexpected character", 1, 17),
    ("ring a = zmod(1" + "0" * 18 + ")", "longer than 18 digits", 1, 15),
    ("ring a = zmod(4); poly f = [-" + "1" * 19 + "]", "longer than 18 digits", 1, 29),
    ("# only a comment", "declares no ring", None, None),
])
def test_parse_errors_with_positions(text, fragment, line, col):
    with pytest.raises(SpecError) as excinfo:
        parse_ring_spec(text)
    assert fragment in str(excinfo.value)
    if line is not None:
        assert excinfo.value.line == line
        assert excinfo.value.col == col


def test_oversized_gf_rejected_before_irreducibility(monkeypatch):
    # x^31 + x^3 + 1 is irreducible over F_2, but gf(2,31) is far above the
    # table bound; no table may be built to test it
    def fail(*_args):
        raise AssertionError("table built for an oversized field")

    monkeypatch.setattr(GFRing, "_build_tables", fail)
    poly = ", ".join(["1", "0", "0", "1"] + ["0"] * 27 + ["1"])
    with pytest.raises(SpecError) as excinfo:
        parse_ring_spec(f"ring a = gf(2, 31, poly=[{poly}])")
    assert "order" in str(excinfo.value)
    assert (excinfo.value.line, excinfo.value.col) == (1, 10)


def test_gf_spec_builds_its_field_once(monkeypatch):
    # parsing checks gf(...) by building the field through the spec cache,
    # where building the target finds it
    monkeypatch.setattr(specfile, "_RING_CACHE", {})
    monkeypatch.setattr(specfile, "_MODULE_CACHE", {})
    built = []
    init = GFRing.__init__

    def counted(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(GFRing, "__init__", counted)
    program = parse_ring_spec("ring f = gf(2, 3, poly=[1, 1, 0, 1])\n"
                              "module e = free(f, 1)\n"
                              "ring r = trivext(f, e)")
    ring = build_target(program)
    assert len(built) == 1
    assert ring.base_ring is build_ring(program.rings["f"])


def test_trivext_module_base_must_match():
    text = """\
ring a = zmod(4)
ring b = zmod(9)
module e = free(b, 1)
ring r = trivext(a, e)
"""
    with pytest.raises(SpecError) as excinfo:
        parse_ring_spec(text)
    assert "not over the named base ring" in str(excinfo.value)


def test_sum_modules_base_mismatch():
    text = """\
ring a = zmod(4)
ring b = zmod(9)
module e1 = free(a, 1)
module e2 = free(b, 1)
module e  = sum(e1, e2)
ring r = trivext(a, e)
"""
    with pytest.raises(SpecError):
        parse_ring_spec(text)


def test_nested_literals_parse():
    text = """\
ring a = zmod(2)
module e = free(a, 2)
ring r = trivext(a, e)
poly f = [(0, (1, 0)), (0, (0, 1))]
"""
    program = parse_ring_spec(text)
    assert program.polys["f"] == ("r", ((0, (1, 0)), (0, (0, 1))))
    ring = build_target(program)
    assert ring.encode_literal((0, (1, 0))) == 2


# ---------------------------------------------------------------- fuzz

# grammar words and small integers, so that no drawn ring is large; most
# statements follow a constructor's argument shapes and most names are
# declared by the first four lines, so that many texts parse and build
PRELUDE = ["ring a = zmod(4)", "ring b = zmod(6)", "module e = free(a, 1)",
           "module m = quot_module(b, gens=[2])"]
DECLARED = {"ring": st.sampled_from(["c", "d"]), "module": st.sampled_from(["n", "o"])}
NAMES = {"ring": st.sampled_from(["a", "b", "c"]), "module": st.sampled_from(["e", "m", "n"])}
INTEGER = st.integers(min_value=-3, max_value=40).map(str)
LITERAL = st.recursive(INTEGER, lambda inner: st.lists(inner, min_size=2, max_size=3)
                       .map(lambda items: "(" + ", ".join(items) + ")"), max_leaves=6)
WORD = st.one_of(INTEGER, st.sampled_from([
    "ring", "module", "poly", *specfile.CONSTRUCTORS, "gens", "a", "e", "(",
    ")", "[", "]", "=", ",", ";", "\n", "#", "²"]))


def _argument(shape):
    if shape in NAMES:
        return NAMES[shape]
    if shape == "int":
        return INTEGER
    keyword, item = shape.split("=")
    items = st.lists(INTEGER if item == "int" else LITERAL, max_size=4)
    return items.map(lambda xs: f"{keyword}=[{', '.join(xs)}]")


SHAPED = st.one_of([
    st.tuples(DECLARED[entry.declares], *map(_argument, entry.shapes)).map(
        lambda args, kind=kind, entry=entry:
        f"{entry.declares} {args[0]} = {kind}({', '.join(args[1:])})")
    for kind, entry in specfile.CONSTRUCTORS.items()])
STATEMENT = st.one_of(
    SHAPED,
    st.builds("poly {} = [{}]".format, st.sampled_from(["f", "g"]),
              st.lists(LITERAL, max_size=3).map(", ".join)),
    st.lists(WORD, max_size=12).map(" ".join))
TEXT = st.lists(STATEMENT, max_size=4).map(
    lambda statements: "\n".join([*PRELUDE, *statements]))

CHAIN = "ring r0 = zmod(4)\n" + "".join(
    f"ring r{k} = quotient(r{k - 1}, gens=[0])\n" for k in range(1, 600))
SHARED = "ring r0 = zmod(2)\n" + "".join(
    f"ring r{k} = product(r{k - 1}, r{k - 1})\n" for k in range(1, 41))
DEEP = "ring a = zmod(4)\npoly f = [" + "(" * 3000 + "0" + ", 0)" * 3000 + "]\n"


@settings(max_examples=300, deadline=None, derandomize=True)
@given(TEXT)
@example("ring a = zmod(²)")
@example(DEEP)
@example(CHAIN)
@example(SHARED)
def test_drawn_specs_raise_only_spec_build_or_bound_errors(text):
    try:
        program = parse_ring_spec(text)
        for spec in [*program.rings.values(), *program.modules.values()]:
            build_ring(spec)
    except (SpecError, RingBuildError, BoundExceededError):
        pass


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.one_of(TEXT.map(str.encode), st.binary(max_size=40)))
@example("ring a = zmod(²)".encode())
@example(b"ring a = zmod(4)\xff")
@example(DEEP.encode())
@example(CHAIN.encode())
@example(SHARED.encode())
def test_drawn_spec_files_exit_0_1_or_2(tmp_path_factory, data):
    path = tmp_path_factory.mktemp("drawn") / "drawn.spec"
    path.write_bytes(data)
    assert main(["classify", "--spec", str(path)]) in (0, 1, 2)
