"""Compare two result records of one workload, metric by metric.

    python3 layerbench/compare.py BASE.json NEW.json

Reads the records ``run.py`` writes to ``.layerbench/results/``.  Refuses
(exit 2) records that are not comparable: another workload, run length,
trace mode, kernel backend or input digest.  Otherwise prints each
metric's base and new value with the relative change, and marks an
end-to-end metric that got worse by more than its bound in
``BENCHMARK.json`` (exit 1 if any did).  One pair of records is a single
sample; a claim needs the repeated pairs described in ``README.md``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: stamp fields that must match for two records to be compared
MUST_MATCH = ("workload", "seconds", "trace", "backend", "input_digest")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base")
    parser.add_argument("new")
    args = parser.parse_args()
    base, new = (json.loads(Path(p).read_text()) for p in (args.base, args.new))
    for key in MUST_MATCH:
        if base["stamp"][key] != new["stamp"][key]:
            print(
                f"refused: {key} differs ({base['stamp'][key]!r} vs {new['stamp'][key]!r})",
                file=sys.stderr,
            )
            return 2
    for key in ("cpu_count", "python", "seed"):
        if base["stamp"][key] != new["stamp"][key]:
            print(f"note: {key} differs ({base['stamp'][key]!r} vs {new['stamp'][key]!r})")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    worse = False
    for name, row in new["result"]["metrics"].items():
        old = base["result"]["metrics"].get(name)
        if old is None:
            print(f"{name:36s} new metric {row['value']:.6g} {row['unit']}")
            continue
        change = (row["value"] - old["value"]) / old["value"] if old["value"] else float("nan")
        flag = ""
        if name in bounds:
            lower = bounds[name]["better"] == "lower"
            regress = change if lower else -change
            if regress > bounds[name]["bound"]:
                flag, worse = "  WORSE than bound", True
        print(f"{name:36s} {old['value']:12.6g} -> {row['value']:12.6g} {row['unit']:6s} {change:+.1%}{flag}")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
