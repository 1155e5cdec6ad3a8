"""One repetition of one workload, run in a fresh interpreter by run.py.

    python3 perfbench/worker.py --workload corpus [--trace] [--setup-only]

Prints one JSON object on its last stdout line.  The process imports
finring from ``src/`` of the checkout it lives in, builds the workload's
rings (the set-up), checks the input guard, then runs the items one at a
time in the library's order and times that region.  Every item's
verdicts are compared with the reference table in ``reference/``, made from
the commit that introduced the benchmark; a mismatch, an exception or a
failed law is a failed item.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import resource
import sys
import time
from dataclasses import dataclass
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

SEARCH_CAP_ENV = "FINRING_SEARCH_CAP"
# ClassifyConfig defaults when the benchmark was made; a run under other caps
# is refused so that no change gains speed by loosening a bound
PINNED_CONFIG = {"degree_bound": 3, "witness_cap": 2_000_000,
                 "pair_cap": 30_000_000, "pseudo_candidate_cap": 256,
                 "lattice_limit": 4096, "seed": 0}
LARGE_SPECS = {"z61_trivext.ring": 3721, "z25_trivext.ring": 625,
               "gf9_trivext.ring": 729}
SMOKE_MAX_ORDER = 8
# workload -> number of items; the guard refuses any other count
SIZES = {"corpus": 170, "theorems": 107, "large_classify": len(LARGE_SPECS),
         "smoke": 16}


class GuardError(Exception):
    """The inputs differ from the pinned workload; nothing is timed."""


@dataclass
class Item:
    key: str
    run: object          # () -> result
    verdicts: object     # result -> dict compared with the reference
    failed_laws: object = None   # result -> bool, for harness instances


@dataclass
class Workload:
    items: list
    render: object       # results in item order -> report text
    rings: list          # rings behind the items, for the replay layer


def _module(name: str):
    return importlib.import_module(f"finring.{name}")


def _condition_verdicts(report) -> dict:
    order = _module("classify").CONDITION_ORDER
    return {name: report.conditions[name].verdict for name in order}


def _law_statuses(result) -> dict:
    return {law.law: law.status for law in result.laws}


def corpus_workload(fr, max_order: int | None = None) -> Workload:
    config = fr.CorpusConfig() if max_order is None else \
        fr.CorpusConfig(max_order=max_order)
    rings = fr.generate_corpus(config)
    invariants = _module("corpus").assert_corpus_invariants

    def classify_one(ring):
        report = fr.classify(ring, config.classify)
        invariants(report)
        return report

    items = [Item(ring.name, lambda ring=ring: classify_one(ring),
                  _condition_verdicts) for ring in rings]
    return Workload(items, lambda reports: _module("reports").to_json(
        fr.CorpusReport(config, reports).to_dict()), rings)


def theorems_workload(fr) -> Workload:
    """The checks behind `finring theorems`: both laws on every
    (local base, dimension) instance, then factor descent on the corpus's
    trivial extensions."""
    config = fr.ClassifyConfig.from_env()
    harness = _module("harness")
    items = []
    for base in harness.default_local_bases():
        for n in harness.DEFAULT_DIMENSIONS:
            ring = fr.build_residue_idealization(base, n)
            items.append((
                "residue_idealization", ring,
                lambda base=base, n=n, ring=ring:
                    fr.check_residue_idealization(base, n, config, ring)))
            items.append(("factor_descent", ring,
                          lambda ring=ring: fr.check_factor_descent(ring, config)))
    trivext = _module("rings").TrivialExtensionRing
    for ring in fr.generate_corpus(fr.CorpusConfig(classify=config)):
        if isinstance(ring, trivext):
            items.append(("factor_descent", ring,
                          lambda ring=ring: fr.check_factor_descent(ring, config)))
    return Workload(
        [Item(f"{i:03d}:{check}:{ring.name}", run, _law_statuses,
              lambda result: result.failed)
         for i, (check, ring, run) in enumerate(items)],
        lambda results: _module("reports").to_json(
            fr.HarnessReport(list(results)).to_dict()),
        [])


def large_classify_workload(fr) -> Workload:
    """`finring classify --spec` on each spec file: parse, build, classify,
    render."""
    config = fr.ClassifyConfig.from_env()
    rings = []
    for name in LARGE_SPECS:
        text = (BENCH / "specs" / name).read_text(encoding="utf-8")
        rings.append((name, fr.build_target(fr.parse_ring_spec(text))))
    to_json = _module("reports").to_json
    items = [Item(name, lambda ring=ring: fr.classify(ring, config),
                  _condition_verdicts) for name, ring in rings]
    return Workload(items,
                    lambda reports: "".join(to_json(r.to_dict())
                                            for r in reports),
                    [ring for _, ring in rings])


def build_workload(fr, name: str) -> Workload:
    if name == "corpus":
        return corpus_workload(fr)
    if name == "smoke":
        return corpus_workload(fr, SMOKE_MAX_ORDER)
    if name == "theorems":
        return theorems_workload(fr)
    if name == "large_classify":
        return large_classify_workload(fr)
    raise GuardError(f"unknown workload {name!r}")


def load_reference(name: str) -> dict:
    source = "corpus" if name == "smoke" else name
    with open(BENCH / "reference" / f"{source}.json", encoding="utf-8") as fh:
        reference = json.load(fh)
    if name == "smoke":
        reference = {"sha256": None, "items": reference["items"]}
    return reference


def check_guard(fr, name: str, workload: Workload) -> None:
    if SEARCH_CAP_ENV in os.environ:
        raise GuardError(f"{SEARCH_CAP_ENV} is set")
    public = fr.ClassifyConfig.from_env().public_dict()
    if public != PINNED_CONFIG:
        raise GuardError(f"classify config {public} differs from the "
                         f"pinned defaults {PINNED_CONFIG}")
    if len(workload.items) != SIZES[name]:
        raise GuardError(f"{name} has {len(workload.items)} items, "
                         f"expected {SIZES[name]}")
    if name == "large_classify":
        orders = [ring.order for ring in workload.rings]
        if orders != list(LARGE_SPECS.values()):
            raise GuardError(f"large_classify orders {orders}, expected "
                             f"{list(LARGE_SPECS.values())}")


def import_finring():
    """Import finring from this checkout's ``src`` and nowhere else."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import finring
    origin = Path(finring.__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise GuardError(f"finring imported from {origin}, not from {SRC}")
    return finring


def run_items(workload: Workload, reference: dict):
    """Run every item once, in order; returns the results, per-item
    milliseconds and the failures."""
    results: list = [None] * len(workload.items)
    item_ms: list[float] = []
    failures: list[dict] = []
    expected = reference["items"]
    for i, item in enumerate(workload.items):
        start = time.perf_counter()
        try:
            results[i] = item.run()
        except Exception as exc:  # an item that raises is a failed item
            item_ms.append((time.perf_counter() - start) * 1000.0)
            failures.append({"item": item.key,
                             "error": f"{type(exc).__name__}: {exc}"})
            continue
        item_ms.append((time.perf_counter() - start) * 1000.0)
        got = item.verdicts(results[i])
        if got != expected.get(item.key):
            failures.append({"item": item.key, "verdicts": got,
                             "reference": expected.get(item.key)})
        elif item.failed_laws is not None and item.failed_laws(results[i]):
            failures.append({"item": item.key, "error": "failed law"})
    return results, item_ms, failures


def replay_reports(fr, workload: Workload, results) -> tuple[float, int, list]:
    """Replay every report on a ring rebuilt from its spec, so that the
    original ring's caches cannot do the replay's work."""
    to_json = _module("reports").to_json
    payloads = [json.loads(to_json(r.to_dict())) for r in results]
    rebuilt = [fr.build_ring(ring.spec) for ring in workload.rings]
    conditions = 0
    failures = []
    start = time.perf_counter()
    for ring, payload in zip(rebuilt, payloads):
        try:
            conditions += fr.replay_report(ring, payload)
        except Exception as exc:  # a rejected certificate is a failed item
            failures.append({"item": f"replay:{ring.name}",
                             "error": f"{type(exc).__name__}: {exc}"})
    return time.perf_counter() - start, conditions, failures


def run_workload(name: str, trace: bool = False,
                 setup_only: bool = False, reference: dict | None = None
                 ) -> dict:
    wall0 = time.perf_counter()
    fr = import_finring()
    tracer = installation = None
    if trace:
        # imported here: tracing imports numpy, whose import belongs to the
        # set-up that setup_s measures
        from tracing import Tracer, install
        tracer = Tracer()
        installation = install(tracer)
    workload = build_workload(fr, name)
    setup_s = time.perf_counter() - wall0
    if setup_only:
        return {"workload": name, "setup_s": setup_s}
    check_guard(fr, name, workload)
    reference = load_reference(name) if reference is None else reference

    self0 = dict(tracer.self_s) if tracer else {}
    cpu0, wall1 = time.process_time(), time.perf_counter()
    results, item_ms, failures = run_items(workload, reference)
    text = None if failures else workload.render(results)
    wall_s = time.perf_counter() - wall1
    cpu_s = time.process_time() - cpu0

    out = {
        "workload": name, "setup_s": setup_s,
        "wall_s": wall_s, "cpu_s": cpu_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
        "item_ms": item_ms, "attempted": len(item_ms),
        "failed": len(failures), "failures": failures[:5],
        "sha256": hashlib.sha256(text.encode()).hexdigest() if text else None,
        "reference_sha256": reference.get("sha256"),
        "numpy": sys.modules["numpy"].__version__,
    }
    if tracer is not None:
        from layers import layer_metrics
        timed_self = {span: value - self0.get(span, 0.0)
                      for span, value in tracer.self_s.items()}
        installation.remove()
        replay = (0.0, 0, [])
        if name == "corpus" and not failures:
            replay = replay_reports(fr, workload, results)
            out["failed"] += len(replay[2])
            out["failures"] += replay[2][:5]
        out["layers"] = layer_metrics(tracer, wall_s, timed_self, replay[:2])
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    try:
        out = run_workload(args.workload, args.trace, args.setup_only)
    except GuardError as exc:
        sys.stderr.write(f"refused: {exc}\n")
        return 2
    sys.stdout.write(json.dumps(out) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
