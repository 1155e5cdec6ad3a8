"""`reports.to_json` writes exactly what json's indenting encoder writes."""

import json

import numpy as np
import pytest

from finring import reports
from finring.classify import ClassifyConfig, classify
from finring.reports import to_json
from finring.rings import TrivialExtensionRing, ZmodRing, free_module


def _reference(payload) -> str:
    return json.dumps(payload, indent=2, default=reports._default) + "\n"


def test_to_json_matches_json_dumps_on_reports(corpus_report, harness_report,
                                               conjecture_report):
    base = ZmodRing(4)
    timed = [classify(ring, ClassifyConfig(timing=True)).to_dict()
             for ring in (ZmodRing(12),
                          TrivialExtensionRing(base, free_module(base, 1)))]
    assert all(isinstance(cond["millis"], float)
               for payload in timed for cond in payload["conditions"].values())
    for payload in (corpus_report.to_dict(), harness_report.to_dict(),
                    conjecture_report.to_dict(), *timed):
        assert to_json(payload) == _reference(payload)


def test_to_json_matches_json_dumps_on_every_value_kind():
    payload = {
        "floats": [0.1, -0.0, 1e300, 2.5e-8, float("nan"), float("inf"),
                   -float("inf")],
        "numpy": [np.int64(-3), np.float64(0.1), np.float32(1.5),
                  np.bool_(True), np.bool_(False), np.arange(3),
                  np.array([[1, 2], [3, 4]]), np.array([])],
        "scalars": [True, False, None, 0, -7, 2**70, "", "é\n\t\"\\ ✓ \U0001f600"],
        "nested": {"a": [[], {}, [[{}]], ({"b": ()},)], "c": {"d": {"e": [1]}}},
        "keys": {1: "int", 2.5: "float", True: "bool", None: "none", "s": "str"},
        "tuple": (1, (2, 3)),
        "empty": {},
    }
    for value in (payload, [], {}, "top", 1, None, 2.5, np.int64(5), [payload]):
        assert to_json(value) == _reference(value)


def test_to_json_rejects_what_json_rejects():
    for bad in ({"x": object()}, {(1, 2): "tuple key"}, [{1j: 0}]):
        with pytest.raises(TypeError) as ours:
            to_json(bad)
        with pytest.raises(TypeError) as theirs:
            _reference(bad)
        assert str(ours.value) == str(theirs.value)
