"""Command-line interface: exit codes, report formats, determinism."""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import finring
from finring.classify import SEARCH_CAP_ENV
from finring.cli import main

Z32_TRIVEXT = str(Path(__file__).resolve().parent / "specs" / "z32_trivext.ring")


SPEC = """\
ring   a = zmod(4)
module e = quot_module(a, gens=[2])
ring   r = trivext(a, e)
"""

SPEC_WITH_POLY = SPEC + "poly f = [(2, 0), (0, 1)]\n"


@pytest.fixture()
def spec_path(tmp_path):
    path = tmp_path / "ring.spec"
    path.write_text(SPEC)
    return str(path)


@pytest.fixture()
def poly_spec_path(tmp_path):
    path = tmp_path / "poly.spec"
    path.write_text(SPEC_WITH_POLY)
    return str(path)


# ---------------------------------------------------------------- classify


def test_classify_json(spec_path, capsys):
    assert main(["classify", "--spec", spec_path]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["ring"]["name"] == "trivext(zmod(4),quot_module(zmod(4),[2]))"
    assert payload["conditions"]["pseudo_arithmetical"]["verdict"] == "No"
    assert "polynomials" not in payload


def test_classify_byte_identical(spec_path, capsys):
    main(["classify", "--spec", spec_path])
    first = capsys.readouterr().out
    main(["classify", "--spec", spec_path])
    assert capsys.readouterr().out == first


def test_classify_markdown(spec_path, capsys):
    assert main(["classify", "--spec", spec_path, "--format", "md"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("#")
    assert "pseudo_arithmetical" in out


def test_classify_out_file(spec_path, tmp_path, capsys):
    target = tmp_path / "report.json"
    assert main(["classify", "--spec", spec_path, "--out", str(target)]) == 0
    assert capsys.readouterr().out == ""
    assert json.loads(target.read_text())["ring"]["order"] == 8


def test_out_into_missing_directory_is_usage_error(tmp_path, capsys):
    target = tmp_path / "missing" / "corpus.json"
    assert main(["corpus", "--max-order", "4", "--families", "zmod",
                 "--out", str(target)]) == 1
    err = capsys.readouterr().err
    assert "usage error" in err
    assert "Traceback" not in err


def test_unwritable_out_fails_before_the_sweep(tmp_path, monkeypatch, capsys):
    from finring import cli

    def no_sweep(*_args):
        raise AssertionError("the corpus ran although --out cannot be written")

    monkeypatch.setattr(cli, "run_corpus", no_sweep)
    for target in (tmp_path / "missing" / "corpus.json", tmp_path):
        assert main(["corpus", "--out", str(target)]) == 1
        err = capsys.readouterr().err
        assert "usage error" in err
        assert "Traceback" not in err


def test_classify_timing_adds_millis(spec_path, capsys):
    main(["classify", "--spec", spec_path, "--timing"])
    payload = json.loads(capsys.readouterr().out)
    assert all("millis" in c for c in payload["conditions"].values())


def test_classify_poly_section(poly_spec_path, capsys):
    assert main(["classify", "--spec", poly_spec_path]) == 0
    payload = json.loads(capsys.readouterr().out)
    entry = payload["polynomials"]["f"]
    assert entry["status"] == "certified"
    assert entry["coefficients"] == [[2, 0], [0, 1]]


# ---------------------------------------------------------------- exit codes


def test_exit_1_on_missing_file(capsys):
    assert main(["classify", "--spec", "/nonexistent.spec"]) == 1


def test_exit_1_on_parse_error(tmp_path, capsys):
    path = tmp_path / "bad.spec"
    path.write_text("ring a = zmod(1)\n")
    assert main(["classify", "--spec", str(path)]) == 1
    assert "zmod modulus" in capsys.readouterr().err


@pytest.mark.parametrize("params", [
    "4, 2, poly=[1, 1, 1]", "2, 2, poly=[1, 0, 1]", "2, 2, poly=[1, 1, 0]",
    "0, 1, poly=[0, 1]", "-3, 2, poly=[1, 0, 1]", "2, 0, poly=[1]",
    "2, 11, poly=[1, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 1]", "1031, 1, poly=[0, 1]",
])
def test_exit_1_on_every_bad_gf(params, tmp_path, capsys):
    path = tmp_path / "bad.spec"
    path.write_text(f"ring a = gf({params})\n")
    assert main(["classify", "--spec", str(path)]) == 1
    assert capsys.readouterr().err.startswith("spec error: line 1, col 10")


def test_exit_1_on_usage_error(capsys):
    assert main(["classify"]) == 1
    assert main(["frobnicate"]) == 1
    assert main([]) == 1


def test_exit_1_on_malformed_env(spec_path, monkeypatch, capsys):
    monkeypatch.setenv(SEARCH_CAP_ENV, "banana")
    assert main(["classify", "--spec", spec_path]) == 1


@pytest.mark.parametrize("flags, env_cap", [
    (["--degree-bound", "-1"], None),
    (["--witness-cap", "-1"], None),
    (["--pair-cap", "-1"], None),
    (["--pseudo-candidate-cap", "-1"], None),
    ([], "-5"),
], ids=["degree_bound", "witness_cap", "pair_cap", "pseudo_candidate_cap",
        "env_cap"])
def test_exit_1_on_negative_search_bound(flags, env_cap, monkeypatch, capsys):
    if env_cap is not None:
        monkeypatch.setenv(SEARCH_CAP_ENV, env_cap)
    assert main(["classify", "--spec", Z32_TRIVEXT, *flags]) == 1
    err = capsys.readouterr().err
    assert err.startswith("usage error:")
    assert "Traceback" not in err


def test_huge_degree_bound_finishes():
    # the degree counts stop at the first degree over the cap instead of
    # summing big integers for every degree up to the bound
    env = {k: v for k, v in os.environ.items() if k != SEARCH_CAP_ENV}
    env["PYTHONPATH"] = str(Path(finring.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys; from finring.cli import main; sys.exit(main())",
         "classify", "--spec", Z32_TRIVEXT, "--degree-bound", "100000"],
        capture_output=True, text=True, timeout=60, env=env)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["config"]["degree_bound"] == 100000


def test_exit_2_on_bound_exceeded(tmp_path, capsys):
    path = tmp_path / "big.spec"
    path.write_text("ring a = zmod(17)\nmodule e = free(a, 2)\n"
                    "ring r = trivext(a, e)\n")  # order 4913 > LATTICE_LIMIT
    assert main(["classify", "--spec", str(path)]) == 2
    assert "bound exceeded" in capsys.readouterr().err.lower()


def test_exit_0_on_non_local_ring_above_the_lattice_bound(tmp_path, capsys,
                                                         monkeypatch):
    # (Z17 ∝ Z17) × Z17, order 4913: arithmetical, so none of its verdicts
    # needs the lattice; its certificates replay on a rebuilt ring
    path = tmp_path / "z17_trivext_x_z17.spec"
    text = ("ring a = zmod(17)\nmodule e = free(a, 1)\n"
            "ring t = trivext(a, e)\nring r = product(t, a)\n")
    path.write_text(text)
    assert main(["classify", "--spec", str(path), "--format", "json"]) == 0
    report = json.loads(capsys.readouterr().out)
    conditions = report["conditions"]
    assert conditions["arithmetical"]["certificate"] == {
        "kind": "all_ideals_locally_principal", "ideal_count": 6}
    assert conditions["gaussian"]["certificate"] == {"rule": "arithmetical"}
    assert conditions["pruefer"]["certificate"]["ideal_count"] == 6
    assert conditions["pseudo_arithmetical"]["verdict"] == "Yes"
    for cache in ("_RING_CACHE", "_MODULE_CACHE"):     # a fresh ring
        monkeypatch.setattr(finring.specfile, cache, {})
    ring = finring.build_target(finring.parse_ring_spec(text))
    for name in ("arithmetical", "gaussian", "pruefer", "pseudo_arithmetical"):
        assert finring.replay_condition(ring, name, conditions[name])


def test_exit_2_on_large_local_ring_with_a_square_nonzero_maximal(tmp_path, capsys):
    # Z1024 ∝ Z1024 has order 2^20 and 2^19 non-units: N² = 0 is tested on
    # the generators of N, not on all |N|² products
    path = tmp_path / "z1024.spec"
    path.write_text("ring a = zmod(1024)\nmodule e = free(a, 1)\n"
                    "ring r = trivext(a, e)\n")
    assert main(["classify", "--spec", str(path)]) == 2
    err = capsys.readouterr().err
    assert "bound exceeded" in err.lower()
    assert "Traceback" not in err


@pytest.mark.parametrize("modules", [
    "module e = free(a, 100000)\n",
    "module b = free(a, 5)\nmodule e = sum(b, b)\n",   # 1024 · 1024
])
def test_exit_1_on_module_above_bound(tmp_path, capsys, modules):
    path = tmp_path / "module.spec"
    path.write_text("ring a = zmod(4)\n" + modules + "ring r = trivext(a, e)\n")
    assert main(["classify", "--spec", str(path)]) == 1
    err = capsys.readouterr().err
    assert "above bound 1024" in err
    assert "Traceback" not in err


def test_lattice_limit_is_not_a_flag(spec_path, capsys):
    assert main(["classify", "--spec", spec_path, "--lattice-limit", "1"]) == 1
    assert "usage error" in capsys.readouterr().err


def test_seed_is_not_a_flag(spec_path, capsys):
    assert main(["classify", "--spec", spec_path, "--seed", "3"]) == 1
    assert "usage error" in capsys.readouterr().err
    # reports still echo the constant the flag used to set
    assert main(["classify", "--spec", spec_path]) == 0
    assert json.loads(capsys.readouterr().out)["config"]["seed"] == 0


def test_exit_2_on_order_above_budget(tmp_path, monkeypatch, capsys):
    # zmod(10^11) builds without tables; classify must refuse it before any
    # decider allocates a per-element array
    classify_module = importlib.import_module("finring.classify")

    def no_decider(*_args):
        raise AssertionError("a decider ran on a ring above the order budget")

    monkeypatch.setattr(classify_module, "decide_reduced", no_decider)
    path = tmp_path / "huge.spec"
    path.write_text("ring a = zmod(100000000000)\n")
    assert main(["classify", "--spec", str(path)]) == 2
    err = capsys.readouterr().err
    assert "bound exceeded" in err.lower()
    assert "Traceback" not in err


def test_exit_1_on_overlong_integer_literal(tmp_path, capsys):
    # a digit run past Python's int() conversion limit is refused as a
    # spec error at its position, before any conversion
    path = tmp_path / "digits.spec"
    path.write_text("ring a = zmod(" + "9" * 5000 + ")\n")
    assert main(["classify", "--spec", str(path)]) == 1
    err = capsys.readouterr().err
    assert "line 1, col 15" in err
    assert "Traceback" not in err


def test_exit_3_on_internal_inconsistency(spec_path, monkeypatch, capsys):
    from finring import cli
    from finring.errors import ConsistencyError

    def boom(args):
        raise ConsistencyError("forced for the exit-code contract")

    monkeypatch.setattr(cli, "cmd_classify", boom)
    assert main(["classify", "--spec", spec_path]) == 3


def test_env_cap_applies(spec_path, monkeypatch, capsys):
    monkeypatch.setenv(SEARCH_CAP_ENV, "500000")
    assert main(["classify", "--spec", spec_path]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["config"]["witness_cap"] == 500000
    assert payload["config"]["pair_cap"] == 500000


def test_explicit_flag_beats_env(spec_path, monkeypatch, capsys):
    monkeypatch.setenv(SEARCH_CAP_ENV, "500000")
    assert main(["classify", "--spec", spec_path, "--witness-cap", "99"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["config"]["witness_cap"] == 99
    assert payload["config"]["pair_cap"] == 500000


# ---------------------------------------------------------------- corpus


def test_corpus_small(capsys):
    assert main(["corpus", "--max-order", "8", "--zmod-max", "4",
                 "--gf-max", "4"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["ring_count"] == len(payload["rings"])
    assert payload["ring_count"] > 0


def test_corpus_family_filter(capsys):
    assert main(["corpus", "--families", "zmod", "--zmod-max", "6"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["ring_count"] == 5


def test_corpus_rejects_unknown_family(capsys):
    assert main(["corpus", "--families", "nonsense"]) == 1


# ---------------------------------------------------------------- conjecture45


def test_conjecture_small_run(capsys):
    assert main(["conjecture45", "--max-order", "16", "--zmod-max", "8",
                 "--gf-max", "4"]) == 0
    captured = capsys.readouterr()
    payload = json.loads(captured.out)
    assert payload["counts"]["Disagree"] == 0
    assert captured.err == ""


def test_conjecture_byte_identical(capsys):
    args = ["conjecture45", "--max-order", "8", "--zmod-max", "4",
            "--gf-max", "4"]
    main(args)
    first = capsys.readouterr().out
    main(args)
    assert capsys.readouterr().out == first


def test_conjecture_markdown(capsys):
    assert main(["conjecture45", "--max-order", "8", "--zmod-max", "4",
                 "--gf-max", "4", "--format", "md"]) == 0
    assert "Agree" in capsys.readouterr().out


# ---------------------------------------------------------------- theorems


def test_theorems_small_run(capsys):
    assert main(["theorems", "--zmod-max", "5", "--gf-max", "4",
                 "--max-order", "32"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["failures"] == 0
    assert payload["instances"] > 0
