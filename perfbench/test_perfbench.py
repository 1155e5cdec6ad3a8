"""Tests of the benchmark itself; they take about ten seconds.

    python3 -m pytest perfbench -q

The `smoke` workload is the corpus cut to rings of order <= 8, checked
against the corpus reference table.
"""

from __future__ import annotations

import copy
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import worker
from layers import LAYER_UNITS
from tracing import Tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace,section", [("0", "end_to_end"),
                                           ("1", "per_layer")])
def test_runner_end_to_end(trace, section):
    proc = _run("--workload", "smoke", "--seed", "5", "--seconds", "1",
                "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 16
    expected = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    assert all(isinstance(m["value"], (int, float))
               for m in result["metrics"].values())


def test_self_time_of_nested_spans():
    now = [0.0]
    tracer = Tracer(clock=lambda: now[0])

    def at(t):
        now[0] = t

    at(0); tracer.begin("a")
    at(1); tracer.begin("d", tag="r")
    at(2); tracer.begin("d")          # nested in its own group
    at(4); tracer.end("inner")
    at(5); tracer.exclude_from_outer("d", "r", 0.5)
    tracer.end("outer")
    at(6); tracer.begin("d", tag="s")
    at(7); assert not tracer.exclude_from_outer("d", "r", 0.25)
    tracer.end("outer")
    at(10); tracer.end("a")

    assert tracer.self_s == {"inner": 2.0, "outer": 2.0 + 1.0, "a": 5.0}
    assert sum(tracer.self_s.values()) == 10.0   # self times tile the root span
    assert tracer.calls == {"inner": 1, "outer": 2, "a": 1}
    # outermost calls only, minus the excluded shared build
    assert tracer.outer_s == {"outer": 3.5 + 1.0, "a": 10.0}


def test_tampered_reference_is_a_failed_item():
    reference = worker.load_reference("smoke")
    tampered = copy.deepcopy(reference)
    tampered["items"]["zmod(4)"]["reduced"] = True
    clean = worker.run_workload("smoke", reference=reference)
    assert clean["failed"] == 0 and clean["sha256"]
    out = worker.run_workload("smoke", reference=tampered)
    assert out["attempted"] == worker.SIZES["smoke"]
    assert out["failed"] == 1
    assert out["failures"][0]["item"] == "zmod(4)"
    assert out["sha256"] is None


def test_guard_refuses_a_search_cap(monkeypatch):
    monkeypatch.setenv(worker.SEARCH_CAP_ENV, "10")
    with pytest.raises(worker.GuardError):
        worker.run_workload("smoke")


def test_refuses_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("--workload", "corpus", "--seed", "1", "--seconds", "1",
                "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
PATH = re.compile(r"[A-Za-z0-9_./-]{1,200}")


def test_benchmark_json_schema():
    assert (ROOT / "BENCHMARK.json").stat().st_size <= 64 * 1024
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert 1 <= len(SPEC["paths"]) <= 16
    for path in SPEC["paths"]:
        assert PATH.fullmatch(path) and not path.startswith("/")
        assert ".." not in path.split("/")
    assert 1 <= len(SPEC["command"]) <= 32
    assert all(isinstance(a, str) and len(a) <= 200 for a in SPEC["command"])
    assert isinstance(SPEC["run_seconds"], int) and 1 <= SPEC["run_seconds"] <= 60

    assert 2 <= len(SPEC["workloads"]) <= 8
    for w in SPEC["workloads"]:
        assert set(w) == {"name", "why"}
        assert len(w["why"]) <= 200 and "\n" not in w["why"]
        assert w["name"] in worker.SIZES
    assert 1 <= len(SPEC["end_to_end"]) <= 16
    for m in SPEC["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
    assert 1 <= len(SPEC["per_layer"]) <= 128
    for m in SPEC["per_layer"]:
        assert set(m) == {"name", "unit", "better"}

    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer")
             for m in SPEC[key]]
    assert len(names) == len(set(names))
    for m in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert NAME.fullmatch(m["name"]) and UNIT.fullmatch(m["unit"])
        assert m["better"] in ("lower", "higher")
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])
    assert [m["name"] for m in SPEC["per_layer"]] == list(LAYER_UNITS)
