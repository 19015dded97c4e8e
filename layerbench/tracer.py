"""In-memory span recorder wrapped around the public calls into each layer.

Only the benchmark's own files install these wrappers (``boot.py`` does,
in the traced run); nothing under ``src/`` knows about them.  A span is
``(name, start_ns, end_ns, parent, rid)``: the parent is the span that
was open in the same task when this one started (a context variable, so
interleaved asyncio tasks keep separate stacks) and ``rid`` is the op's
request id, inherited from the parent when the call itself carries none.
A layer's self time is its spans' duration minus the part covered by
their child spans.
"""

from __future__ import annotations

import asyncio
import contextvars
import functools
import json
from array import array
from time import perf_counter_ns
from typing import Any, Callable


class Tracer:
    """Spans kept in flat arrays; :meth:`dump` writes them out at shutdown."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("q")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.rid = array("q")
        #: counts recorded at the same boundaries (bytes, periods, hits)
        self.counts: dict[str, float] = {}
        self._current: contextvars.ContextVar[int] = contextvars.ContextVar(
            "layerbench_span", default=-1
        )

    def count(self, key: str, value: float = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + value

    def _open(self, name_id: int, rid: int | None) -> tuple[int, contextvars.Token]:
        parent = self._current.get()
        index = len(self.start)
        if rid is None:
            rid = self.rid[parent] if parent >= 0 else -1
        self.name.append(name_id)
        self.parent.append(parent)
        self.rid.append(rid)
        self.end.append(0)
        self.start.append(perf_counter_ns())
        return index, self._current.set(index)

    def _close(self, index: int, token: contextvars.Token) -> None:
        self.end[index] = perf_counter_ns()
        self._current.reset(token)

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def wrap(
        self,
        name: str,
        fn: Callable,
        rid_of: Callable[..., int | None] | None = None,
        after: Callable[..., None] | None = None,
    ) -> Callable:
        """``fn`` recording one span per call; ``after(result, *args)`` counts outside it."""
        name_id = self._name_id(name)
        if asyncio.iscoroutinefunction(fn):

            @functools.wraps(fn)
            async def traced_async(*args: Any, **kwargs: Any) -> Any:
                index, token = self._open(name_id, rid_of(*args) if rid_of else None)
                try:
                    result = await fn(*args, **kwargs)
                finally:
                    self._close(index, token)
                if after is not None:
                    after(result, *args, **kwargs)
                return result

            return traced_async

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            index, token = self._open(name_id, rid_of(*args) if rid_of else None)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(index, token)
            if after is not None:
                after(result, *args, **kwargs)
            return result

        return traced

    def patch(self, owner: Any, attr: str, name: str, **kwargs: Any) -> None:
        setattr(owner, attr, self.wrap(name, getattr(owner, attr), **kwargs))

    def summary(self) -> dict[str, Any]:
        """Per span name: calls, total and self milliseconds; plus the counts."""
        n = len(self.start)
        child = [0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        spans: dict[str, dict[str, float]] = {
            name: {"calls": 0, "total_ms": 0.0, "self_ms": 0.0} for name in self.names
        }
        for i in range(n):
            row = spans[self.names[self.name[i]]]
            duration = self.end[i] - self.start[i]
            row["calls"] += 1
            row["total_ms"] += duration / 1e6
            row["self_ms"] += (duration - child[i]) / 1e6
        return {"spans": spans, "counts": dict(self.counts), "span_count": n}

    def dump(self, path: str) -> None:
        """Write the summary to ``path`` and the raw spans next to it (``.spans``)."""
        with open(path + ".spans", "wb") as fh:
            fh.write(json.dumps({"names": self.names, "count": len(self.start)}).encode())
            fh.write(b"\n")
            for column in (self.name, self.start, self.end, self.parent, self.rid):
                column.tofile(fh)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.summary(), fh)


def _rid_of_message(*args: Any) -> int | None:
    message = args[-1]
    return int(message.get("rid", -1)) if isinstance(message, dict) else None


def install_core(tracer: Tracer) -> None:
    """Kernel, calendar, co-allocator and the shared decide path."""
    from repro.core.calendar import AvailabilityCalendar
    from repro.core.coalloc import OnlineCoAllocator
    from repro.core.slot_tree import TwoDimTree
    from repro.service import declog, server

    tracer.patch(TwoDimTree, "apply_batch", "slot_tree.apply_batch")
    tracer.patch(TwoDimTree, "phase1", "slot_tree.search")
    tracer.patch(TwoDimTree, "phase2", "slot_tree.search")

    def feasible_hit(result: Any, *args: Any) -> None:
        if result is not None:
            tracer.count("calendar.find_feasible.hits")

    def allocate_periods(result: Any, calendar: Any, periods: list, *args: Any, **kw: Any) -> None:
        tracer.count("calendar.allocate.periods", len(periods))

    def range_periods(result: list, *args: Any) -> None:
        tracer.count("calendar.range_search.periods", len(result))

    tracer.patch(
        AvailabilityCalendar, "find_feasible", "calendar.find_feasible", after=feasible_hit
    )
    tracer.patch(AvailabilityCalendar, "allocate", "calendar.allocate", after=allocate_periods)
    tracer.patch(AvailabilityCalendar, "advance", "calendar.advance")
    tracer.patch(
        AvailabilityCalendar, "range_search", "calendar.range_search", after=range_periods
    )
    tracer.patch(AvailabilityCalendar, "release", "calendar.release")

    def outcome(result: Any, *args: Any) -> None:
        tracer.count("coalloc.attempts", result.attempts)
        if result.allocation is not None:
            tracer.count("coalloc.accepted")

    tracer.patch(
        OnlineCoAllocator,
        "schedule_detailed",
        "coalloc.schedule",
        rid_of=lambda self, request: request.rid,
        after=outcome,
    )
    traced_decide = tracer.wrap(
        "declog.decide_reserve", declog.decide_reserve, rid_of=_rid_of_message
    )
    declog.decide_reserve = traced_decide
    server.decide_reserve = traced_decide


def install_service(tracer: Tracer) -> None:
    """The NDJSON codec, the status checksum, the decision log and snapshots."""
    from repro.service import server
    from repro.service.declog import DecisionLog

    def bytes_in(result: Any, raw: bytes, *args: Any) -> None:
        tracer.count("protocol.bytes_in", len(raw))

    def bytes_out(result: bytes, *args: Any) -> None:
        tracer.count("protocol.bytes_out", len(result))

    def log_bytes(result: int, log: Any, kind: str, message: dict, verdict: dict) -> None:
        # the record exactly as DecisionLog.append frames it: 4-byte length + JSON
        record = {"hwm": result, "kind": kind, "message": message, "verdict": verdict}
        payload = json.dumps(record, separators=(",", ":"), sort_keys=True, allow_nan=False)
        tracer.count("declog.append.bytes", 4 + len(payload.encode("utf-8")))

    def snapshot_size(meta: dict, *args: Any) -> None:
        tracer.count("snapshot.bytes", meta["bytes"])

    tracer.patch(server, "decode_line", "protocol.decode", after=bytes_in)
    tracer.patch(server, "encode", "protocol.encode", after=bytes_out)
    tracer.patch(server, "accepted_checksum", "status.accepted_checksum")
    tracer.patch(server, "write_snapshot", "snapshot.write", after=snapshot_size)
    tracer.patch(DecisionLog, "append", "declog.append", after=log_bytes)


def install_gateway(tracer: Tracer) -> None:
    """HTTP parsing, dispatch, the backend round trip and the /metrics scrape.

    Socket waits inside ``read_request`` are child spans, so the parse
    span's self time is parsing alone, not idle time between requests.
    """
    from repro.gateway import app

    tracer.patch(app, "read_request", "gateway.read_request")
    tracer.patch(app.Gateway, "_dispatch", "gateway.dispatch")
    tracer.patch(app.Gateway, "_backend_rpc", "gateway.backend_rpc", rid_of=_rid_of_message)
    tracer.patch(app.Gateway, "_handle_metrics", "gateway.metrics_scrape")
    tracer.patch(asyncio.StreamReader, "readuntil", "gateway.socket_wait")
    tracer.patch(asyncio.StreamReader, "readexactly", "gateway.socket_wait")
