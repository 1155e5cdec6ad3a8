"""Spec-file grammar: parsing, validation diagnostics, and ring building."""

import pytest

from finring import specfile
from finring.errors import SpecError
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
