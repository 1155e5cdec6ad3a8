"""Run one workload of the finring benchmark and print its metrics.

    python3 perfbench/run.py --workload corpus --seed 1 --seconds 15 --trace 0

Workloads (closed loop, one client: each item starts after the previous one
has finished, and each repetition runs alone in a fresh interpreter):

  corpus          `finring corpus` with defaults: classify the 170 corpus
                  rings and render the report.  Mostly the polys layer.
  theorems        `finring theorems` with defaults: the 88 harness checks
                  and factor descent on the 19 corpus trivial extensions.
                  Mostly the ideals and rings layers.
  large_classify  `finring classify --spec` on three trivial extensions of
                  order 3721, 625 and 729 (specs/): large rings, structural
                  ring operations and tables bigger than L2.

The inputs are the library's pinned defaults, run in the library's order.
``--seed`` is recorded and changes nothing: a seeded reordering of the
corpus moved its wall time by up to 1.5x, because the order decides the
heap the dominant ring's search allocates from (page faults are a quarter
of corpus time), so runs with different seeds measured different layouts.

With ``--trace 0`` the run starts repetitions until ``--seconds`` have
passed and reports medians of the end-to-end metrics; ``setup_s``
also takes the set-up of a few interpreters that only set up.  With
``--trace 1`` it runs one untraced and one traced repetition and reports the
per-layer metrics of the traced one, plus the tracing overhead.  The last
stdout line is one JSON object: correct, attempted, failed, metrics.  Exit
status is 0 only when every repetition ran to its end.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from layers import LAYER_UNITS  # noqa: E402
from worker import SEARCH_CAP_ENV, SIZES  # noqa: E402

SETUP_SAMPLES = 4          # set-up-only interpreters per untraced run
RUN_BUDGET_S = 170.0       # a child still running then is killed


class RunError(Exception):
    pass


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _revision() -> str:
    """The git revision when the checkout is a repository, else a digest
    of the sources the benchmark runs."""
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                  capture_output=True, text=True, timeout=10)
            if proc.returncode == 0:
                return proc.stdout.strip()
        except (OSError, subprocess.TimeoutExpired):
            pass
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    return "src-sha256:" + digest.hexdigest()[:16]


def _child_env() -> dict:
    env = dict(os.environ)
    env.pop(SEARCH_CAP_ENV, None)
    return env


def run_child(workload: str, deadline: float, trace: bool = False,
              setup_only: bool = False) -> dict:
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", workload]
    if trace:
        cmd.append("--trace")
    if setup_only:
        cmd.append("--setup-only")
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise RunError("time budget used up before the next repetition")
    load_before = os.getloadavg()[0]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=_child_env(),
                              capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise RunError(f"repetition exceeded {timeout:.0f} s") from exc
    if proc.returncode != 0 or not proc.stdout.strip():
        raise RunError(f"worker exited {proc.returncode}: "
                       f"{proc.stderr.strip()[-2000:]}")
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    out["load"] = (load_before, os.getloadavg()[0])
    return out


def _p90(values: list[float]) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[-1]


def _describe(rep: int, out: dict) -> str:
    sha, reference = out["sha256"], out["reference_sha256"]
    match = "none" if reference is None else \
        "match" if sha == reference else "differs"
    return (f"rep {rep}: wall {out['wall_s']:.3f} s, cpu {out['cpu_s']:.3f} s, "
            f"setup {out['setup_s']:.3f} s, rss {out['peak_rss_mb']:.1f} MB, "
            f"items {out['attempted']}, failed {out['failed']}, sha256 {sha} "
            f"(reference {match}), numpy {out['numpy']}, load "
            f"{out['load'][0]:.2f}->{out['load'][1]:.2f}")


def _verdict(reps: list[dict]) -> tuple[bool, int, int]:
    attempted = sum(r["attempted"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    shas = {r["sha256"] for r in reps}
    for rep in reps:
        for failure in rep["failures"]:
            print(f"failure: {json.dumps(failure)}")
    if len(shas) != 1:
        print(f"report sha256 differs between repetitions: {sorted(map(str, shas))}")
    return failed == 0 and len(shas) == 1 and None not in shas, attempted, \
        failed


def untraced(workload: str, seconds: int, deadline: float) -> dict:
    setups = [run_child(workload, deadline, setup_only=True)["setup_s"]
              for _ in range(SETUP_SAMPLES)]
    reps: list[dict] = []
    start = time.monotonic()
    while not reps or time.monotonic() - start < seconds:
        reps.append(run_child(workload, deadline))
        print(_describe(len(reps), reps[-1]), flush=True)
    correct, attempted, failed = _verdict(reps)

    def median(key):
        return statistics.median(r[key] for r in reps)

    metrics = {
        "wall_s": (median("wall_s"), "s"),
        "cpu_s": (median("cpu_s"), "s"),
        "peak_rss_mb": (median("peak_rss_mb"), "MB"),
        "setup_s": (statistics.median(setups + [r["setup_s"] for r in reps]),
                    "s"),
    }
    # printed, not in the result: on a shared host the per-item latencies
    # of corpus spread wider between runs than any bound the benchmark may set
    p50 = statistics.median(statistics.median(r["item_ms"]) for r in reps)
    p90 = statistics.median(_p90(r["item_ms"]) for r in reps)
    print(f"{workload}: {len(reps)} repetition(s), error_rate "
          f"{failed / attempted:.4f} ({failed}/{attempted}), "
          f"item_p50_ms {p50:.3f}, item_p90_ms {p90:.3f} over "
          f"{len(reps[0]['item_ms'])} items per repetition, "
          f"{len(setups) + len(reps)} set-up samples")
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def traced(workload: str, deadline: float) -> dict:
    plain = run_child(workload, deadline)
    print(_describe(1, plain) + " [untraced]", flush=True)
    rep = run_child(workload, deadline, trace=True)
    print(_describe(2, rep) + " [traced]", flush=True)
    correct, attempted, failed = _verdict([plain, rep])
    layers = dict(rep["layers"])
    layers["trace.overhead_s"] = rep["wall_s"] - plain["wall_s"]
    layers["trace.overhead_frac"] = layers["trace.overhead_s"] / plain["wall_s"]
    if set(layers) != set(LAYER_UNITS):
        raise RunError(f"layer metrics {sorted(set(layers) ^ set(LAYER_UNITS))}"
                       " are missing or unknown")
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": {name: (layers[name], unit)
                        for name, unit in LAYER_UNITS.items()}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="finring benchmark: one workload")
    parser.add_argument("--workload", required=True, choices=sorted(SIZES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + RUN_BUDGET_S

    if not (ROOT / "src" / "finring" / "__init__.py").is_file():
        sys.stderr.write(f"no finring sources under {ROOT / 'src'}\n")
        return 2
    if args.seconds < 1:
        sys.stderr.write("--seconds must be at least 1\n")
        return 2
    print(f"machine: nproc {os.cpu_count()}, cpu {_cpu_model()}, python "
          f"{platform.python_version()}, revision {_revision()}; seed "
          f"{args.seed}", flush=True)
    try:
        if args.trace:
            result = traced(args.workload, deadline)
        else:
            result = untraced(args.workload, args.seconds, deadline)
    except RunError as exc:
        sys.stderr.write(f"benchmark run failed: {exc}\n")
        return 1
    result["metrics"] = {name: {"value": value, "unit": unit}
                         for name, (value, unit) in result["metrics"].items()}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
