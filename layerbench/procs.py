"""Launching, probing and stopping the program's processes.

Every process goes through ``boot.py`` (traced or not), is tracked by a
:class:`Fleet`, and is stopped and waited for before the run ends, on
success or failure alike.
"""

from __future__ import annotations

import json
import os
import re
import select
import signal
import socket
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BOOT = HERE / "boot.py"

_READY = re.compile(r"listening on [0-9.]+:(\d+)")

#: seconds a process may take to print its listening line
BOOT_TIMEOUT = 60.0


def vm_hwm_mb(pid: int) -> float:
    """Peak resident set (VmHWM) of a live process, MiB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"VmHWM missing for pid {pid}")


class Proc:
    """One ``boot.py`` child and the port it announced."""

    def __init__(self, popen: subprocess.Popen, port: int, setup_s: float):
        self.popen, self.port, self.setup_s = popen, port, setup_s


class Fleet:
    """All children of one run; :meth:`close` leaves none behind."""

    def __init__(self, work: Path):
        self.work = work
        self.procs: list[subprocess.Popen] = []
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))

    def _popen(self, argv: list[str], log_name: str, stdout: int | None) -> subprocess.Popen:
        log = open(self.work / log_name, "ab")
        try:
            popen = subprocess.Popen(
                [sys.executable, str(BOOT), *argv],
                stdout=stdout,
                stderr=log,
                cwd=ROOT,
                env=self.env,
            )
        finally:
            log.close()
        self.procs.append(popen)
        return popen

    def spawn(self, argv: list[str], log_name: str) -> Proc:
        """Start a listening program; setup time runs from launch to its ready line."""
        started = perf_counter()
        popen = self._popen(argv, log_name, subprocess.PIPE)
        ready, _, _ = select.select([popen.stdout], [], [], BOOT_TIMEOUT)
        line = popen.stdout.readline().decode("utf-8", "replace") if ready else ""
        setup = perf_counter() - started
        match = _READY.search(line)
        if match is None:
            raise RuntimeError(f"{argv[:2]} did not boot: {line!r} (see {log_name})")
        popen.stdout.close()
        return Proc(popen, int(match.group(1)), setup)

    def run(self, argv: list[str], log_name: str, timeout: float) -> None:
        """Run a child to completion (the in-process loop)."""
        popen = self._popen(argv, log_name, subprocess.DEVNULL)
        try:
            code = popen.wait(timeout=timeout)
        except subprocess.TimeoutExpired as exc:
            raise RuntimeError(f"{argv[:1]} overran {timeout:g}s") from exc
        if code != 0:
            raise RuntimeError(f"{argv[:1]} exited {code} (see {log_name})")

    def interrupt(self, proc: Proc, timeout: float = 30.0) -> None:
        """SIGINT (the gateway's clean stop) and wait."""
        proc.popen.send_signal(signal.SIGINT)
        proc.popen.wait(timeout=timeout)

    def close(self) -> None:
        for popen in self.procs:
            if popen.poll() is None:
                popen.kill()
        for popen in self.procs:
            try:
                popen.wait(timeout=30)
            except subprocess.TimeoutExpired:
                pass


def control(port: int, message: dict, timeout: float = 60.0) -> dict:
    """One NDJSON exchange on a short-lived control connection (between phases)."""
    with socket.create_connection(("127.0.0.1", port), timeout=timeout) as sock:
        sock.sendall((json.dumps(message) + "\n").encode())
        chunks = b""
        while not chunks.endswith(b"\n"):
            chunk = sock.recv(1 << 16)
            if not chunk:
                break
            chunks += chunk
    if not chunks:
        raise RuntimeError(f"no answer to {message['op']}")
    return json.loads(chunks)
