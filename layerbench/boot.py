"""Benchmark-owned bootstrap for the program under test.

    python3 layerbench/boot.py [--trace OUT] serve|gateway <repro cli args>
    python3 layerbench/boot.py [--trace OUT] inproc --requests N --warm W --repeats R --out RESULT

``serve``/``gateway`` hand over to ``repro.cli`` unchanged; with
``--trace`` the public calls into each layer are wrapped first (see
``tracer.py``) and the spans are written to ``OUT`` when the program
exits.  ``inproc`` is the ``stress_inproc`` closed loop: one caller
feeding ``service.declog.decide_reserve`` on a fresh
``CoAllocationScheduler``, no wire.  Its passes run untraced first, then
traced, each deciding requests ``W...N`` on a scheduler restored from the
same warm-up state.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import tracer as tracing  # noqa: E402  (benchmark-local module)


def vm_hwm_mb() -> float:
    """Peak resident set (VmHWM) of this process, MiB."""
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("VmHWM missing from /proc/self/status")


def inproc(args: argparse.Namespace, tracer: tracing.Tracer | None) -> dict:
    import inputs
    from repro.facade import CoAllocationScheduler
    from repro.service import declog
    from repro.service.server import accepted_checksum
    from repro.service.snapshot import snapshot_bytes

    ops = inputs.stress_ops(args.requests)
    warm = CoAllocationScheduler(**ops.shape)
    warm_decided = {m["rid"]: declog.decide_reserve(warm, m) for m in ops.messages[: args.warm]}
    warm_state = json.dumps(warm.export_state())
    del warm

    setup: list[float] = []

    def restored() -> tuple[CoAllocationScheduler, dict[int, dict]]:
        """A scheduler at the warm-up's end, through the snapshot-restore path.

        Its duration is the pass's set-up time, as a service's boot
        includes restoring its snapshot.
        """
        started = perf_counter()
        scheduler = CoAllocationScheduler.from_state(json.loads(warm_state))
        setup.append(perf_counter() - started)
        return scheduler, dict(warm_decided)

    def closed_loop(start: tuple[CoAllocationScheduler, dict[int, dict]]) -> dict:
        """Decide every request after the warm-up, timing each call."""
        scheduler, decided = start
        decide = declog.decide_reserve  # looked up now: the traced wrapper if installed
        latency: list[float] = []
        clock = perf_counter
        started = clock()
        for message in ops.messages[args.warm :]:
            t = clock()
            decided[message["rid"]] = decide(scheduler, message)
            latency.append(clock() - t)
        elapsed = clock() - started
        # the state a service snapshot would hold after the same decisions
        state = {
            "scheduler": scheduler.export_state(),
            "decided": {str(rid): decided[rid] for rid in sorted(decided)},
            "admin_decided": {},
            "log_hwm": 0,
        }
        return {
            "n": len(latency),
            "seconds": elapsed,
            "latency_s": latency,
            "checksum": accepted_checksum(decided),
            "snapshot_bytes": len(snapshot_bytes(state)),
        }

    # every pass replays the same window from the same warm state; the traced
    # one is restored before any wrapper is installed, so spans cover timed work only
    traced_start = restored() if tracer is not None else None
    passes = [closed_loop(restored()) for _ in range(args.repeats)]
    if tracer is not None:
        tracing.install_core(tracer)
        passes.append(closed_loop(traced_start))
    return {"setup_s": setup, "passes": passes, "peak_rss_mb": vm_hwm_mb()}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trace", default=None, help="write the span summary here")
    parser.add_argument("mode", choices=("serve", "gateway", "inproc"))
    args, rest = parser.parse_known_args()
    tracer = tracing.Tracer() if args.trace else None
    try:
        if args.mode == "inproc":
            sub = argparse.ArgumentParser()
            sub.add_argument("--requests", type=int, required=True, help="warm-up plus one pass")
            sub.add_argument("--warm", type=int, required=True, help="requests decided before timing")
            sub.add_argument("--repeats", type=int, required=True, help="untraced passes")
            sub.add_argument("--out", required=True)
            opts = sub.parse_args(rest)
            result = inproc(opts, tracer)
            Path(opts.out).write_text(json.dumps(result))
            return 0
        from repro import cli

        if tracer is not None:
            if args.mode == "serve":
                tracing.install_core(tracer)
                tracing.install_service(tracer)
            else:
                tracing.install_gateway(tracer)
        return cli.main([args.mode, *rest])
    finally:
        if tracer is not None:
            tracer.dump(args.trace)


if __name__ == "__main__":
    sys.exit(main())
