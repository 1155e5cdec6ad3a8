"""Product rings read their unit partition, primitive idempotents and
local-factor records from their factors: checked against the corner scan
of the product's own products (`oracles.local_factors_by_corner_scan`) and
the n² unit scan, and guarded so that no product reaches either scan."""

from pathlib import Path

import numpy as np
import pytest

from finring import ideals, rings
from finring.classify import classify
from finring.corpus import CorpusConfig, generate_corpus
from finring.errors import ConsistencyError
from finring.ideals import Ideal, local_factors
from finring.rings import (KIND_SCAN_LIMIT, ProductRing, ZmodRing,
                           primitive_idempotents, unit_partition)
from finring.specfile import build_target, parse_ring_spec
from oracles import local_factors_by_corner_scan

SPECS = Path(__file__).resolve().parent / "specs"
PRODUCT_SPECS = ["z16_cube", "f2sq_x_z12", "z4f2_x_f4", "z4sq_x_z2",
                 "above_bound/z17_trivext_x_z17"]


def _corpus_products(max_order: int):
    """The products of the corpus up to `max_order`, in its order, built one
    at a time so that their tables do not all stay alive at once."""
    bases = generate_corpus(CorpusConfig(max_order=max_order,
                                         families=("zmod", "gf")))
    for i, left in enumerate(bases):
        for right in bases[i:]:
            if left.order * right.order <= max_order:
                yield ProductRing(left, right)


def _fields(record) -> tuple:
    # Ideal equality reads the mask alone, so the generators are compared too
    return (record.maximal.mask, record.maximal.gens, *record[1:])


def _assert_lifted_facts_match_the_scans(ring) -> None:
    scanned = local_factors_by_corner_scan(ring)
    assert [_fields(f) for f in local_factors(ring)] == \
        [_fields(f) for f in scanned], ring.name
    assert primitive_idempotents(ring).tolist() == \
        sorted(f.idempotent for f in scanned), ring.name
    assert ring.order ** 2 <= KIND_SCAN_LIMIT
    units, witness = rings._scan_witnesses(ring)
    partition = unit_partition(ring)
    assert np.array_equal(partition.units, units), ring.name
    # an inverse is unique; the annihilator witnesses may differ, and
    # unit_partition has verified them
    assert np.array_equal(partition.witness[units], witness[units]), ring.name


def test_lifted_facts_match_the_scans_on_the_order_1024_corpus():
    count = 0
    for ring in _corpus_products(1024):
        _assert_lifted_facts_match_the_scans(ring)
        count += 1
    assert count == 630


@pytest.mark.parametrize("name", PRODUCT_SPECS)
def test_lifted_facts_match_the_scans_on_product_specs(name):
    ring = build_target(parse_ring_spec(
        (SPECS / f"{name}.ring").read_text(encoding="utf-8")))
    assert isinstance(ring, ProductRing)
    _assert_lifted_facts_match_the_scans(ring)


def test_no_product_reaches_a_scan(monkeypatch):
    def refusing(real):
        def guarded(ring, *args):
            if isinstance(ring, ProductRing):
                raise AssertionError(f"{ring.name} reached {real.__name__}")
            return real(ring, *args)
        return guarded

    monkeypatch.setattr(rings, "_scan_witnesses",
                        refusing(rings._scan_witnesses))
    monkeypatch.setattr(ideals, "minimal_generators",
                        refusing(ideals.minimal_generators))
    corpus = generate_corpus(CorpusConfig())
    for ring in corpus:
        classify(ring)
    assert sum(isinstance(ring, ProductRing) for ring in corpus) == 116


@pytest.mark.parametrize("side", ["left", "right"])
def test_corrupted_factor_record_breaks_the_product_invariant(side):
    # Z4's maximal ideal (2) is swapped for the zero ideal, so its lift to
    # Z4 × Z3 or Z3 × Z4 is not the ideal that misses its idempotent
    z4, z3 = ZmodRing(4), ZmodRing(3)
    (record,) = local_factors(ZmodRing(4))
    corrupted = record._replace(maximal=Ideal(z4, 1, ()))
    z4.memo("local_factors", lambda: [corrupted])
    ring = ProductRing(z4, z3) if side == "left" else ProductRing(z3, z4)
    with pytest.raises(ConsistencyError, match="misses its idempotent"):
        local_factors(ring)
