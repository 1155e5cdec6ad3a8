"""Write the reference verdict tables in perfbench/reference/.

    python3 perfbench/make_reference.py [workload ...]

The committed tables were made from the commit that introduced the
benchmark.  Regenerate them only when a change is meant to alter verdicts,
and say so in CHANGES.md: every run compares against these tables.
"""

from __future__ import annotations

import hashlib
import json
import sys

from worker import BENCH, build_workload, import_finring

WORKLOADS = ("corpus", "theorems", "large_classify")


def main(argv: list[str]) -> int:
    fr = import_finring()
    for name in argv or WORKLOADS:
        workload = build_workload(fr, name)
        results = [item.run() for item in workload.items]
        text = workload.render(results)
        reference = {
            "workload": name,
            "sha256": hashlib.sha256(text.encode()).hexdigest(),
            "items": {item.key: item.verdicts(result)
                      for item, result in zip(workload.items, results)},
        }
        path = BENCH / "reference" / f"{name}.json"
        path.write_text(json.dumps(reference, indent=1) + "\n",
                        encoding="utf-8")
        print(f"{path.name}: {len(results)} items, sha256 {reference['sha256']}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
