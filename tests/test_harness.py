"""Structural law checks for idealizations: transfer and descent."""

import pytest

from finring import ideals
from finring.errors import RingBuildError
from finring.harness import (DEFAULT_DIMENSIONS, DEFAULT_GF_PARAMS,
                             DEFAULT_ZMOD_ORDERS, build_residue_idealization,
                             check_factor_descent, check_residue_idealization,
                             default_local_bases, run_theorem_harness)
from finring.rings import (TrivialExtensionRing, ZmodRing, free_module,
                           standard_gf)


def test_build_residue_idealization_shape():
    ring = build_residue_idealization(ZmodRing(4), 1)
    assert ring.order == 8
    ring = build_residue_idealization(ZmodRing(9), 2)
    assert ring.order == 9 * 9


def test_build_rejects_non_local_base():
    with pytest.raises(RingBuildError):
        build_residue_idealization(ZmodRing(6), 1)


def test_residue_idealization_laws_frozen():
    result = check_residue_idealization(ZmodRing(4), 1)
    assert not result.failed
    statuses = {law.law: law.status for law in result.laws}
    assert statuses == {
        "total_quotient_and_pruefer": "pass",
        "gaussian_transfer": "pass",
        "arithmetical_iff_field_base_line": "pass",
        "weak_dimension_infinite": "pass",
    }


def test_residue_idealization_field_base_dim1():
    # the one family member that IS arithmetical
    result = check_residue_idealization(standard_gf(2, 1), 1)
    assert not result.failed
    law = {l.law: l for l in result.laws}["arithmetical_iff_field_base_line"]
    assert law.status == "pass"
    assert law.detail["expected"] is True


def test_residue_idealization_field_base_dim2_not_arithmetical():
    result = check_residue_idealization(standard_gf(2, 1), 2)
    assert not result.failed
    law = {l.law: l for l in result.laws}["arithmetical_iff_field_base_line"]
    assert law.detail["expected"] is False


def test_factor_descent_laws_frozen():
    ring = build_residue_idealization(ZmodRing(4), 1)
    result = check_factor_descent(ring)
    assert not result.failed
    statuses = {law.law: law.status for law in result.laws}
    assert statuses["extension_ideal_squares_to_zero"] == "pass"
    assert statuses["quotient_isomorphic_to_base"] == "pass"
    assert statuses["gaussian_descends_to_factor"] == "pass"
    # the idealization is not arithmetical, so descent holds vacuously
    assert statuses["arithmetical_descends_to_factor"] == "skip"


def test_factor_descent_arithmetical_case():
    base = standard_gf(2, 1)
    ring = TrivialExtensionRing(base, free_module(base, 1))
    result = check_factor_descent(ring)
    assert not result.failed
    statuses = {law.law: law.status for law in result.laws}
    assert statuses["arithmetical_descends_to_factor"] == "pass"


def test_factor_descent_requires_trivial_extension():
    with pytest.raises(RingBuildError):
        check_factor_descent(ZmodRing(4))


def test_default_census_pinned():
    assert DEFAULT_ZMOD_ORDERS == (2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 19,
                                   23, 25, 27, 29, 31, 32)
    assert DEFAULT_GF_PARAMS == ((2, 2), (2, 3), (3, 2), (2, 4))
    assert DEFAULT_DIMENSIONS == (1, 2)
    bases = default_local_bases()
    assert len(bases) == len(DEFAULT_ZMOD_ORDERS) + len(DEFAULT_GF_PARAMS)


def test_instance_result_serialization():
    result = check_residue_idealization(ZmodRing(4), 1)
    payload = result.to_dict()
    assert payload["check"] == "residue_idealization"
    assert payload["order"] == 8
    assert all(set(law) >= {"law", "status"} for law in payload["laws"])


# The full 44-instance harness run is exercised by the session fixture used in
# the corpus and acceptance modules; here we only pin its aggregate shape.


def test_harness_report_shape(harness_report):
    assert len(harness_report.results) == 88  # 44 instances x 2 checks
    assert harness_report.failures == []
    payload = harness_report.to_dict()
    assert payload["instances"] == 88
    assert payload["failures"] == 0


def test_harness_builds_no_ideal_lattice(monkeypatch, harness_report):
    # every law reads verdicts and certificates that come from the local
    # factors; each run builds its rings afresh
    def no_lattice(ring):
        raise AssertionError(f"lattice of {ring.name}")
    monkeypatch.setattr(ideals, "_build_lattice", no_lattice)
    assert run_theorem_harness().to_dict() == harness_report.to_dict()
