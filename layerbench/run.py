"""One layered benchmark of the co-allocation stack.

    python3 layerbench/run.py --workload kth_tcp|stress_inproc|mixed_gateway \\
        --seed N --seconds S --trace 0|1

Run from the repository root.  Generates the workload's inputs from
``--seed``, measures for about ``--seconds`` seconds, checks every output
against an in-process reference replay, and prints as its last line one
JSON object ``{"correct", "attempted", "failed", "metrics"}``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics of the
traced run with ``--trace 1``.  The line before it is the environment
stamp; the full record goes to ``.layerbench/results/``.  Exits non-zero
without a result line when the program cannot be built or run, or when an
output differs from the reference.  See ``layerbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import sys
import tempfile
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

WORKLOADS = ("kth_tcp", "stress_inproc", "mixed_gateway")


def import_program() -> dict:
    """Import ``repro`` from this checkout's ``src`` and no other place."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import repro
        from repro.core.slot_tree import backend_info
    except ImportError as exc:
        raise SystemExit(f"layerbench: cannot import the program from {src}: {exc}")
    if Path(repro.__file__).resolve().parent.parent != src.resolve():
        raise SystemExit(f"layerbench: repro imported from {repro.__file__}, not {src}")
    return {"backend": backend_info()["backend"]}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    # a terminated run still stops its children (the finally below)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    program = import_program()
    import procs
    import suites

    stamp = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "cpu_count": os.cpu_count(),
        "backend": program["backend"],
        "python": platform.python_version(),
    }
    state = ROOT / ".layerbench"
    state.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=state))
    fleet = procs.Fleet(work)
    try:
        if args.workload == "stress_inproc":
            outcome = suites.run_stress(args.seed, args.seconds, bool(args.trace), fleet, work)
        else:
            outcome = suites.run_open_loop(
                suites.OPEN_LOOP[args.workload], args.seed, args.seconds, bool(args.trace),
                fleet, work,
            )
    except suites.CheckError as exc:
        print(f"layerbench: INCORRECT: {exc}", file=sys.stderr)
        return 1
    except Exception:  # the run produced no result; say why and fail
        traceback.print_exc()
        print(f"layerbench: run failed; logs in {work}", file=sys.stderr)
        return 2
    finally:
        fleet.close()
    if args.trace:
        # the raw spans of the latest traced run of each workload
        keep = state / "traces" / args.workload
        shutil.rmtree(keep, ignore_errors=True)
        keep.mkdir(parents=True)
        for spans in work.glob("*.spans"):
            shutil.move(str(spans), str(keep / spans.name))
    shutil.rmtree(work, ignore_errors=True)

    stamp["input_digest"] = outcome.detail.pop("input_digest")
    traffic = outcome.detail.get("traffic")
    result = {
        "correct": True,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {
            name: {"value": value, "unit": unit} for name, (value, unit) in outcome.metrics.items()
        },
    }
    results = state / "results"
    results.mkdir(exist_ok=True)
    record = results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps({"stamp": stamp, "result": result, "detail": outcome.detail}))
    print(json.dumps({"stamp": stamp, "traffic": traffic}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
