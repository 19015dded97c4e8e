"""The three workloads: what each one runs, checks and reports.

``kth_tcp`` and ``mixed_gateway`` are open-loop and service-backed;
``stress_inproc`` is a closed loop with no wire.  Every phase of an
open-loop run boots a fresh program from the same warm-up snapshot and
replays the ops after it, so each phase covers a prefix of the same
inputs and one in-process reference replay checks them all.
"""

from __future__ import annotations

import asyncio
import gc
import json
import random
import shutil
import statistics
from dataclasses import dataclass, field
from pathlib import Path

import inputs
import openloop
import procs
from repro.service.loadgen import ShadowLedger
from repro.service.snapshot import write_snapshot


class CheckError(AssertionError):
    """The program's outputs differ from the in-process reference."""


#: the open-loop workloads' nominal rate, ops/s
NOMINAL_RPS = 200.0

#: fixed rate ladder, ascending, 250-5149 ops/s in 5% steps; searched by
#: bisection.  Its top is well above what ROADMAP item 2 aims at (the
#: oracle decides the ``kth_tcp`` window at 3300-3750 req/s), so a faster
#: program moves ``max_rate_rps`` instead of reaching the ceiling.
LADDER = tuple(round(250.0 * 1.05**k, 1) for k in range(63))

#: ladder evaluations per run: enough to bisect the ladder down to one rung
EVALUATIONS = 6

#: the p99 latency limit a ladder rung must meet
LIMIT_MS = 300.0

#: share of ``--seconds`` each phase lasts: nominal, then each ladder rung
NOMINAL_SHARE = 0.5
RUNG_SHARE = 0.1


@dataclass(frozen=True)
class OpenLoopSpec:
    name: str
    http: bool
    #: ops replayed in process before timing; every phase boots from their snapshot
    warm: int
    log: bool = False
    #: seconds between ``/metrics`` scrapes; 0 scrapes nothing
    scrape_interval: float = 0.0
    cancel_share: float = 0.0


KTH_TCP = OpenLoopSpec(name="kth_tcp", http=False, warm=1000)

MIXED_GATEWAY = OpenLoopSpec(
    name="mixed_gateway",
    http=True,
    warm=2000,
    log=True,
    # the scrape_interval of the example configuration shipped with
    # Prometheus (documentation/examples/prometheus.yml); its built-in
    # default is 1 m
    scrape_interval=15.0,
    # chosen, not measured: no trace at hand records reservation
    # cancellations.  It puts 130-150 cancels into a 15 s nominal phase,
    # nearly all of them releases since the trace's reserves are mostly
    # granted: enough to time ``calendar.release``, while 90% of the
    # grants keep the trace's load on the calendar
    cancel_share=0.1,
)

OPEN_LOOP = {spec.name: spec for spec in (KTH_TCP, MIXED_GATEWAY)}

#: ``repro serve`` admission limits, far above what a ladder phase can queue
ADMISSION_QUEUE = 1_000_000
ADMISSION_DELAY_S = 3600.0


def percentile_ms(samples: list[float], p: float) -> float:
    ordered = sorted(samples)
    rank = min(len(ordered), max(1, -(-len(ordered) * p // 100)))
    return ordered[int(rank) - 1] * 1000.0


@dataclass
class Outcome:
    """What one run reports, plus the detail written to its result file."""

    metrics: dict[str, tuple[float, str]] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    detail: dict = field(default_factory=dict)

    def put(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = (value, unit)


# ----------------------------------------------------------------------
# open loop
# ----------------------------------------------------------------------


@dataclass
class PhaseRun:
    """One program lifetime: boot, one open-loop phase, status, shutdown."""

    tag: str
    n: int
    phase: openloop.Phase
    setup_s: float
    status: dict
    server_checksum: str
    client_checksum: str
    digest: str
    violations: int
    rss_mb: float = 0.0
    snapshot_bytes: int = 0
    spans: list[dict] = field(default_factory=list)

    def p99_ms(self) -> float:
        return percentile_ms(self.phase.all_latency_s(), 99)

    def backlog_grows(self) -> bool:
        """Did the queue outgrow the latency limit by the last send?

        The backlog then holds more than ``rate × limit`` ops, so the last
        op cannot be answered within the limit.  A bound on the end state
        rather than a trend: the short queue behind one slow decision
        comes and goes, and fitting a trend to it on a 2 s rung misfires.
        """
        return self.phase.backlog[-1] > self.phase.rate * LIMIT_MS / 1000.0

    def passes(self) -> bool:
        """A rung holds when nothing failed, p99 meets the limit and the backlog did not grow."""
        return self.phase.failed == 0 and self.p99_ms() <= LIMIT_MS and not self.backlog_grows()


def _verify_bodies(
    ledger: ShadowLedger, first: int, messages: list[dict], phase: openloop.Phase
) -> tuple[str, str, int]:
    """Shadow-ledger the answers to ops ``first...``; refused ops were not applied.

    Returns (accepted checksum, probe/cancel digest, violations).
    """
    digest = inputs.OutcomeDigest()
    refused = set(phase.failed_ops)
    for i, (message, body) in enumerate(zip(messages, phase.bodies)):
        index = first + i
        op = message["op"]
        if body.get("op") != op or body.get("rid", message.get("rid")) != message.get("rid"):
            raise CheckError(f"op {index}: answer {body!r} does not match {message!r}")
        if i in refused:
            continue
        if op == "reserve" and body.get("ok"):
            ledger.record(
                message["rid"],
                message["sr"],
                float(body["start"]),
                float(body["end"]),
                [int(s) for s in body["servers"]],
            )
        elif op == "probe":
            digest.probe(index, int(body["count"]))
        elif op == "cancel":
            digest.cancel(message["rid"], bool(body.get("ok")))
            if body.get("ok"):
                ledger.release(message["rid"])
    return ledger.checksum(), digest.hexdigest(), len(ledger.violations)


class OpenLoopRun:
    def __init__(
        self, spec: OpenLoopSpec, ops: inputs.OpList, seed: int, fleet: procs.Fleet, work: Path
    ):
        self.spec, self.ops, self.seed, self.fleet, self.work = spec, ops, seed, fleet, work
        self.wire = openloop.payloads(ops.messages, spec.http)
        self.runs: list[PhaseRun] = []
        self.reference = inputs.Reference(ops, warm=spec.warm)
        self.reference.run_to(spec.warm)
        self.warm_snapshot = work / "warm.snap"
        write_snapshot(self.warm_snapshot, self.reference.service_state())

    def _warm_ledger(self) -> ShadowLedger:
        """A shadow ledger holding the warm-up's accepted, uncancelled reservations."""
        ledger = ShadowLedger()
        decided = self.reference.decided
        for message in self.ops.messages[: self.spec.warm]:
            if message["op"] == "reserve" and decided[message["rid"]]["ok"]:
                entry = decided[message["rid"]]
                ledger.record(message["rid"], message["sr"], entry["start"], entry["end"], entry["servers"])
            elif message["op"] == "cancel":
                ledger.release(message["rid"])  # cancels follow their reserve: ok iff it was accepted
        return ledger

    def _boot(self, tag: str, traced: bool) -> tuple[procs.Proc, procs.Proc | None, list[Path]]:
        shape = self.ops.shape
        trace_files: list[Path] = []

        def argv(mode: str, args: list[str]) -> list[str]:
            if not traced:
                return [mode, *args]
            trace_files.append(self.work / f"{tag}-{mode}.trace.json")
            return ["--trace", str(trace_files[-1]), mode, *args]

        restore = self.work / f"{tag}.restore.snap"
        shutil.copyfile(self.warm_snapshot, restore)
        serve_args = [
            # admission limits sit above any backlog the ladder can build, so
            # a BUSY counted in ok_frac is a real failure, not the search's
            "--max-queue", str(ADMISSION_QUEUE),
            "--max-delay", str(ADMISSION_DELAY_S),
            "--snapshot-path", str(restore),
            "--servers", str(shape["n_servers"]),
            "--tau", str(shape["tau"]),
            "--q-slots", str(shape["q_slots"]),
        ]
        if self.spec.log:
            serve_args += ["--log-dir", str(self.work / f"{tag}-log")]
        serve = self.fleet.spawn(argv("serve", serve_args), f"{tag}-serve.log")
        gateway = None
        if self.spec.http:
            # the token bucket sits far above the ladder's top rung, so a
            # 429 is a real failure and never a benchmark artefact
            ceiling = str(int(LADDER[-1] * 100))
            gateway = self.fleet.spawn(
                argv("gateway", ["--backend-port", str(serve.port), "--rate", ceiling, "--burst", ceiling]),
                f"{tag}-gateway.log",
            )
        return serve, gateway, trace_files

    def phase(self, tag: str, rate: float, seconds: float, traced: bool, final: bool) -> PhaseRun:
        first = self.spec.warm
        # a rung too fast for the generated ops is cut short, not refused
        n = min(max(1, int(rate * seconds)), len(self.wire) - first)
        # one schedule per (seed, rate): a rung probed twice replays the same arrivals
        rng = random.Random(f"{self.seed}:{rate}")
        offsets = openloop.paced_offsets(rng, rate, n)
        scrapes = openloop.scrape_offsets(rng, self.spec.scrape_interval, offsets[-1])
        serve, gateway, trace_files = self._boot(tag, traced)
        front = gateway if gateway is not None else serve

        async def drive() -> openloop.Phase:
            conn = await openloop.Conn.open(front.port, self.spec.http)
            scrape = None
            if scrapes:
                scrape = await openloop.Conn.open(front.port, True)
            try:
                return await openloop.run_phase(
                    conn, self.wire[first : first + n], offsets, rate, scrape, scrapes
                )
            finally:
                await conn.close()
                if scrape is not None:
                    await scrape.close()

        # the driver's own collector stays out of the timed phase
        gc.collect()
        gc.disable()
        try:
            phase = asyncio.run(drive())
        finally:
            gc.enable()
        status = procs.control(serve.port, {"op": "status"})
        snapshot_bytes, rss_mb = 0, 0.0
        if final:
            snap = procs.control(serve.port, {"op": "snapshot", "path": str(self.work / f"{tag}.snap")})
            snapshot_bytes = int(snap["bytes"])
            rss_mb = sum(procs.vm_hwm_mb(p.popen.pid) for p in (serve, gateway) if p)
        shutdown = procs.control(serve.port, {"op": "shutdown"})
        serve.popen.wait(timeout=60)
        if gateway is not None:
            self.fleet.interrupt(gateway)
        client_checksum, digest, violations = _verify_bodies(
            self._warm_ledger(), first, self.ops.messages[first : first + n], phase
        )
        run = PhaseRun(
            tag=tag,
            n=n,
            phase=phase,
            setup_s=serve.setup_s + (gateway.setup_s if gateway else 0.0),
            status=status,
            server_checksum=shutdown["accepted_checksum"],
            client_checksum=client_checksum,
            digest=digest,
            violations=violations,
            rss_mb=rss_mb,
            snapshot_bytes=snapshot_bytes,
            spans=[json.loads(path.read_text()) for path in trace_files],
        )
        self.runs.append(run)
        return run

    def search_ladder(self, seconds: float, traced: bool) -> tuple[float, PhaseRun | None]:
        """Bisect the fixed ladder for the highest rung that holds.

        A rung that misses by a small margin (no op failed, p99 at most twice
        the limit) is run once more on the same arrivals, and holds if that
        run does: on a 2-vCPU host a slow spell can fail a single rung far
        below capacity (one run: 520 ops/s at p99 487 ms, then 350-495
        ops/s all under 185 ms), and bisection never revisits it.
        A run whose top rung holds fails: its figure would be the ladder's
        ceiling, not the program's rate.
        """
        lo, hi = -1, len(LADDER)
        best = None
        for k in range(EVALUATIONS):
            if hi - lo <= 1:
                break
            mid = (lo + hi) // 2
            run = self.phase(f"rung{k}", LADDER[mid], seconds, traced, final=False)
            if not run.passes() and run.phase.failed == 0 and run.p99_ms() <= 2 * LIMIT_MS:
                run = self.phase(f"rung{k}-again", LADDER[mid], seconds, traced, final=False)
            if run.passes():
                lo, best = mid, run
            else:
                hi = mid
        if lo == len(LADDER) - 1:
            raise openloop.RunError(f"the ladder's top rung ({LADDER[-1]} ops/s) holds: extend LADDER")
        return (LADDER[lo] if lo >= 0 else 0.0), best

    def check(self) -> None:
        """Every phase against the in-process reference replay of its prefix.

        A phase in which the program refused ops gets a replay of its own
        that skips them; the others share one replay.
        """
        warm = self.spec.warm
        expected = {}
        for mark in sorted({warm + r.n for r in self.runs if not r.phase.failed_ops}):
            expected[mark] = self.reference.run_to(mark)
        for run in self.runs:
            if run.phase.failed_ops:
                skip = frozenset(warm + i for i in run.phase.failed_ops)
                want = inputs.Reference(self.ops, warm, skip).run_to(warm + run.n)
            else:
                want = expected[warm + run.n]
            if run.violations:
                raise CheckError(f"{run.tag}: {run.violations} shadow-ledger violations")
            if run.client_checksum != want["checksum"] or run.server_checksum != want["checksum"]:
                raise CheckError(
                    f"{run.tag}: accepted checksum client={run.client_checksum} "
                    f"server={run.server_checksum} reference={want['checksum']}"
                )
            if run.digest != want["digest"]:
                raise CheckError(f"{run.tag}: probe/cancel digest {run.digest} != {want['digest']}")


def _span(summary: list[dict], name: str, key: str) -> float:
    return sum(s["spans"].get(name, {}).get(key, 0.0) for s in summary)


def _count(summary: list[dict], key: str) -> float:
    return sum(s["counts"].get(key, 0.0) for s in summary)


def layer_metrics(out: Outcome, spans: list[dict]) -> None:
    """The per-layer rows every workload prints (zero calls where a layer is bypassed)."""
    calls = lambda name: _span(spans, name, "calls")  # noqa: E731
    self_ms = lambda name: _span(spans, name, "self_ms")  # noqa: E731
    ratio = lambda a, b: a / b if b else 0.0  # noqa: E731
    for name in ("slot_tree.apply_batch", "calendar.find_feasible", "calendar.allocate",
                 "calendar.advance", "calendar.range_search", "calendar.release",
                 "coalloc.schedule", "protocol.decode", "status.accepted_checksum",
                 "declog.append"):
        out.put(f"{name}.calls", calls(name), "count")
        out.put(f"{name}.self_ms", self_ms(name), "ms")
    out.put("slot_tree.search.self_ms", self_ms("slot_tree.search"), "ms")
    out.put(
        "calendar.find_feasible.hit_ratio",
        ratio(_count(spans, "calendar.find_feasible.hits"), calls("calendar.find_feasible")),
        "ratio",
    )
    out.put("calendar.allocate.periods", _count(spans, "calendar.allocate.periods"), "count")
    out.put("calendar.range_search.periods", _count(spans, "calendar.range_search.periods"), "count")
    schedules = calls("coalloc.schedule")
    out.put("coalloc.attempts_per_request", ratio(_count(spans, "coalloc.attempts"), schedules), "count")
    out.put("coalloc.accept_ratio", ratio(_count(spans, "coalloc.accepted"), schedules), "ratio")
    out.put("declog.decide_reserve.self_ms", self_ms("declog.decide_reserve"), "ms")
    out.put("protocol.encode.self_ms", self_ms("protocol.encode"), "ms")
    out.put("protocol.bytes_in", _count(spans, "protocol.bytes_in"), "bytes")
    out.put("protocol.bytes_out", _count(spans, "protocol.bytes_out"), "bytes")
    out.put("declog.append.bytes", _count(spans, "declog.append.bytes"), "bytes")
    out.put("snapshot.write.self_ms", self_ms("snapshot.write"), "ms")
    out.put("snapshot.bytes", _count(spans, "snapshot.bytes"), "bytes")
    out.put("gateway.read_request.self_ms", self_ms("gateway.read_request"), "ms")
    out.put(
        "gateway.backend_rpc_ms",
        ratio(_span(spans, "gateway.backend_rpc", "total_ms"), calls("gateway.backend_rpc")),
        "ms",
    )
    out.put(
        "gateway.self_ms",
        sum(self_ms(n) for n in ("gateway.read_request", "gateway.dispatch", "gateway.metrics_scrape")),
        "ms",
    )
    out.put(
        "gateway.metrics_scrape_ms",
        ratio(_span(spans, "gateway.metrics_scrape", "total_ms"), calls("gateway.metrics_scrape")),
        "ms",
    )
    out.detail["spans"] = spans


def run_open_loop(spec: OpenLoopSpec, seed: int, seconds: float, trace: bool,
                  fleet: procs.Fleet, work: Path) -> Outcome:
    """One ``kth_tcp`` or ``mixed_gateway`` run; ``seed`` draws the arrivals and scrape times."""
    out = Outcome()
    # a traced run splits the nominal share between its untraced and traced
    # nominal phases; each lasts at least one scrape interval, so it holds a scrape
    nominal_s = max(NOMINAL_SHARE * seconds / (2 if trace else 1), spec.scrape_interval)
    rung_s = RUNG_SHARE * seconds
    ops = inputs.mixed_ops(spec.cancel_share) if spec.http else inputs.kth_ops()
    out.detail["input_digest"] = ops.digest()
    bench = OpenLoopRun(spec, ops, seed, fleet, work)

    # the nominal phase runs first, before any overloaded rung leaves the host busy
    if trace:
        plain = bench.phase("untraced", NOMINAL_RPS, nominal_s, traced=False, final=False)
    nominal = bench.phase("nominal", NOMINAL_RPS, nominal_s, traced=trace, final=True)
    max_rate, top = bench.search_ladder(rung_s, traced=trace)
    bench.check()
    out.detail["traffic"] = {
        "op_shares": op_shares(
            ops.messages[spec.warm : spec.warm + nominal.n], len(nominal.phase.scrape_s)
        ),
        "latency_samples": len(nominal.phase.all_latency_s()),
    }

    out.attempted = sum(r.phase.attempted for r in bench.runs)
    out.failed = sum(r.phase.failed for r in bench.runs)
    latency = nominal.phase.all_latency_s()
    out.detail["phases"] = [
        {
            "tag": r.tag,
            "rate": r.phase.rate,
            "ops": r.n,
            "p50_ms": percentile_ms(r.phase.all_latency_s(), 50),
            "p99_ms": r.p99_ms(),
            "backlog_grows": r.backlog_grows(),
            "failed": r.phase.failed,
            "holds": r.passes(),
            "setup_s": r.setup_s,
            "checksum": r.server_checksum,
            "queue_wait_p99_ms": r.status["metrics"]["queue_wait"]["p99_ms"],
        }
        for r in bench.runs
    ]
    if not trace:
        out.put("setup_s", statistics.median(r.setup_s for r in bench.runs), "s")
        out.put("throughput_rps", top.n / top.phase.seconds if top else 0.0, "1/s")
        out.put("max_rate_rps", max_rate, "1/s")
        out.put("p50_ms", percentile_ms(latency, 50), "ms")
        out.put("ok_frac", 1.0 - out.failed / out.attempted, "ratio")
        out.put("peak_rss_mb", nominal.rss_mb, "MiB")
        out.put("snapshot_bytes", float(nominal.snapshot_bytes), "bytes")
        return out

    layer_metrics(out, nominal.spans)
    metrics = nominal.status["metrics"]
    out.put("actor.queue_wait_p50_ms", metrics["queue_wait"]["p50_ms"], "ms")
    out.put("actor.queue_wait_p99_ms", metrics["queue_wait"]["p99_ms"], "ms")
    out.put("actor.service_p99_ms", metrics["service_latency"]["p99_ms"], "ms")
    out.put("actor.batch_mean", metrics["mean_batch"], "count")
    out.put("admission.shed", float(sum(r.status["admission"]["shed"] for r in bench.runs)), "count")
    out.put("driver.late_p99_ms", percentile_ms(nominal.phase.late_s, 99), "ms")
    out.put("driver.backlog_max", float(nominal.phase.backlog_max), "count")
    # the untraced nominal phase decided the same ops as the traced one
    row = inputs.oracle_row(ops, bench.reference.decided, spec.warm, spec.warm + plain.n)
    if row["mismatches"]:
        raise CheckError(f"oracle disagrees with the facade on {row['mismatches']} reserves")
    out.put("ref.oracle.rps", row["rps"], "1/s")
    plain_latency = plain.phase.all_latency_s()
    out.put("latency.p99_ms", percentile_ms(plain_latency, 99), "ms")
    out.detail["traffic"]["latency_samples"] = len(plain_latency)
    # the end-to-end p50 from due time counts every wrapper: codec, actor and gateway
    overhead = percentile_ms(latency, 50) / percentile_ms(plain_latency, 50) - 1.0
    out.put("trace.overhead_frac", overhead, "ratio")
    return out


def op_shares(messages: list[dict], scrapes: int) -> dict[str, float]:
    """The measured share of each op type among the ops one phase sent."""
    total = len(messages) + scrapes
    shares = {op: sum(1 for m in messages if m["op"] == op) / total for op in ("reserve", "probe", "cancel")}
    shares["scrape"] = scrapes / total
    return shares


# ----------------------------------------------------------------------
# closed loop, in process
# ----------------------------------------------------------------------

#: requests decided untimed before the closed loop starts (calendar fill)
STRESS_WARM = 2000

#: untraced passes over the same window; the run reports their medians
STRESS_REPEATS = 4

#: the decision rate a pass is sized for, req/s: a pass decides
#: ``--seconds`` / STRESS_REPEATS × this many requests, about its share of
#: ``--seconds`` on a 2-vCPU VM
STRESS_PASS_RPS = 1000


def run_stress(seed: int, seconds: float, trace: bool, fleet: procs.Fleet, work: Path) -> Outcome:
    """One ``stress_inproc`` run; a closed loop has no arrival schedule, so ``seed`` is unused.

    Every pass decides the same fixed window of requests, so a slow host
    stretches a pass rather than shortening its window: every run's
    figures cover the same work.  Passes bounded by time reached further
    into the stream on a fast host than on a slow one.
    """
    out = Outcome()
    repeats = STRESS_REPEATS // 2 if trace else STRESS_REPEATS
    requests = STRESS_WARM + max(1, int(seconds / STRESS_REPEATS * STRESS_PASS_RPS))
    ops = inputs.stress_ops(requests)
    out.detail["input_digest"] = ops.digest()
    result_path = work / "inproc.json"
    argv = ["inproc", "--requests", str(requests), "--warm", str(STRESS_WARM),
            "--repeats", str(repeats), "--out", str(result_path)]
    trace_path = work / "inproc.trace.json"
    if trace:
        argv = ["--trace", str(trace_path), *argv]
    fleet.run(argv, "inproc.log", timeout=seconds * 4 + 120)
    result = json.loads(result_path.read_text())
    passes = result["passes"]
    reference = inputs.Reference(ops)
    expected = reference.run_to(requests)["checksum"]
    for p in passes:
        if p["checksum"] != expected:
            raise CheckError(f"stress_inproc: checksum {p['checksum']} != reference {expected}")
    out.attempted = sum(p["n"] for p in passes)
    plain = passes[:repeats]
    rate = statistics.median(p["n"] / p["seconds"] for p in plain)
    out.detail["passes"] = [
        {"n": p["n"], "rps": p["n"] / p["seconds"], "checksum": p["checksum"]} for p in passes
    ]
    out.detail["traffic"] = {
        "op_shares": {"reserve": 1.0},
        "latency_samples": [p["n"] for p in plain],
    }
    if not trace:
        out.put("setup_s", statistics.median(result["setup_s"]), "s")
        out.put("throughput_rps", rate, "1/s")
        out.put("max_rate_rps", rate, "1/s")
        out.put("p50_ms", statistics.median(percentile_ms(p["latency_s"], 50) for p in plain), "ms")
        out.put("ok_frac", 1.0, "ratio")
        out.put("peak_rss_mb", result["peak_rss_mb"], "MiB")
        out.put("snapshot_bytes", float(statistics.median(p["snapshot_bytes"] for p in plain)), "bytes")
        return out
    traced = passes[-1]
    layer_metrics(out, [json.loads(trace_path.read_text())])
    for name in ("actor.queue_wait_p50_ms", "actor.queue_wait_p99_ms", "actor.service_p99_ms",
                 "actor.batch_mean", "admission.shed", "driver.late_p99_ms", "driver.backlog_max"):
        out.put(name, 0.0, "ms" if name.endswith("_ms") else "count")
    # the oracle decides the passes' window, from the same warm state
    row = inputs.oracle_row(ops, reference.decided, STRESS_WARM, requests)
    if row["mismatches"]:
        raise CheckError(f"oracle disagrees with the facade on {row['mismatches']} reserves")
    out.put("ref.oracle.rps", row["rps"], "1/s")
    out.put("latency.p99_ms", percentile_ms(plain[0]["latency_s"], 99), "ms")
    out.put("trace.overhead_frac", rate / (traced["n"] / traced["seconds"]) - 1.0, "ratio")
    return out
