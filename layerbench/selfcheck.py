"""Self-check: the reference replays reproduce the repository's recorded checksums.

    python3 layerbench/selfcheck.py   # both checks, about two minutes

* ``kth_tcp`` inputs, the whole reference trace (KTH, 10k jobs, seed 42),
  through the facade reproduce the accepted checksum ``401b64b702973145``
  of ``BENCH_service.json`` / ``BENCH_gateway.json``.
* ``stress_inproc`` inputs at the ``bench_hotpath`` full parameters (100k
  requests, N=512, seed 7) through ``declog.decide_reserve`` reproduce the
  outcome checksum ``07005251ae5588ae`` of ``BENCH_hotpath.json``, computed
  with the replay digest of :mod:`repro.sim.replay`.

Exits 0 when every check matches, 1 otherwise.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import inputs  # noqa: E402  (benchmark-local module)
from repro.facade import CoAllocationScheduler  # noqa: E402
from repro.service.declog import decide_reserve  # noqa: E402

KTH_CHECKSUM = "401b64b702973145"
HOTPATH_CHECKSUM = "07005251ae5588ae"


def kth_checksum() -> str:
    ops = inputs.kth_ops()
    return inputs.Reference(ops).run_to(len(ops.messages))["checksum"]


def hotpath_checksum() -> str:
    """The ``sim.replay`` outcome digest over ``decide_reserve`` decisions."""
    ops = inputs.stress_ops()
    scheduler = CoAllocationScheduler(**ops.shape)
    outcomes = {}
    schedule = scheduler.schedule_detailed

    def capture(request):  # keep each outcome: the digest needs selection order
        outcomes[request.rid] = schedule(request)
        return outcomes[request.rid]

    scheduler.schedule_detailed = capture
    digest = hashlib.sha256()
    for message in sorted(ops.messages, key=lambda m: (m["qr"], m["rid"])):
        decide_reserve(scheduler, message)
        allocation = outcomes[message["rid"]].allocation
        if allocation is None:
            line = f"{message['rid']}:rejected:None:()\n"
        else:
            line = f"{message['rid']}:done:{allocation.start}:{allocation.servers}\n"
        digest.update(line.encode())
    return digest.hexdigest()[:16]


def main() -> int:
    argparse.ArgumentParser(description=__doc__.splitlines()[0]).parse_args()
    checks = [
        ("kth_tcp reference trace", kth_checksum, KTH_CHECKSUM),
        ("stress_inproc hot-path stream", hotpath_checksum, HOTPATH_CHECKSUM),
    ]
    ok = True
    for label, compute, want in checks:
        got = compute()
        print(f"{label}: {got} (want {want}) {'ok' if got == want else 'MISMATCH'}")
        ok = ok and got == want
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
