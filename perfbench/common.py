"""Shared helpers of the benchmark: exact percentiles, a tiny HTTP client,
process RSS, and the result record every workload fills in.

Everything here is stdlib only, so the benchmark does not depend on the
program's private transports or histograms: percentiles are computed
exactly from raw samples (never from ``LatencyHistogram`` buckets).
"""

from __future__ import annotations

import asyncio
import json
import math
import os
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple


class BenchError(RuntimeError):
    """An output check failed or the program could not be driven."""


# -- exact percentiles --------------------------------------------------------


def percentile(samples: Sequence[float], q: float) -> float:
    """Exact nearest-rank percentile ``q`` (0 < q <= 1) of raw samples.

    Nearest rank: the smallest sample such that at least ``q`` of all
    samples are <= it, i.e. ``sorted(samples)[ceil(q * n) - 1]``.  No
    interpolation, so the answer is always a value that was observed.
    """
    if not samples:
        raise ValueError("percentile of no samples")
    if not 0 < q <= 1:
        raise ValueError("q must be in (0, 1]")
    ordered = sorted(samples)
    rank = max(1, math.ceil(q * len(ordered) - 1e-9))
    return float(ordered[rank - 1])


def median(samples: Sequence[float]) -> float:
    """Exact median (mean of the two middle values for even counts)."""
    if not samples:
        raise ValueError("median of no samples")
    ordered = sorted(samples)
    n = len(ordered)
    mid = n // 2
    if n % 2:
        return float(ordered[mid])
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def self_test() -> None:
    """Check the percentile helpers against hand-computed answers.

    Runs at the start of every benchmark run (it costs microseconds), so
    a broken helper can never produce a result.
    """
    hundred = list(range(1, 101))
    cases = [
        (hundred, 0.50, 50.0),
        (hundred, 0.90, 90.0),
        (hundred, 0.99, 99.0),
        (hundred, 1.00, 100.0),
        (list(reversed(hundred)), 0.99, 99.0),
        ([7.0], 0.50, 7.0),
        ([7.0], 0.99, 7.0),
        ([3.0, 1.0, 2.0], 0.50, 2.0),
        ([1.0, 2.0, 3.0, 4.0], 0.50, 2.0),
        ([1.0, 2.0, 3.0, 4.0], 0.75, 3.0),
        ([1.0, 2.0, 3.0, 4.0], 0.76, 4.0),
        ([5.0] * 9 + [1000.0], 0.90, 5.0),
        ([5.0] * 9 + [1000.0], 0.91, 1000.0),
    ]
    for samples, q, want in cases:
        got = percentile(samples, q)
        if got != want:
            raise BenchError(
                f"percentile self-test: p{q} of {samples[:5]}... is {got}, "
                f"want {want}"
            )
    for samples, want in (
        ([1.0, 2.0, 3.0, 4.0], 2.5), ([9.0, 1.0, 5.0], 5.0), ([2.0], 2.0),
    ):
        if median(samples) != want:
            raise BenchError(f"median self-test: {samples} -> {want}")
    try:
        percentile([], 0.5)
    except ValueError:
        pass
    else:
        raise BenchError("percentile self-test: empty input must raise")


def summary(samples: Sequence[float]) -> Dict[str, Any]:
    """``{n, p50, p99, max}`` of raw samples (zeros when empty)."""
    if not samples:
        return {"n": 0, "p50": 0.0, "p99": 0.0, "max": 0.0}
    return {
        "n": len(samples),
        "p50": percentile(samples, 0.5),
        "p99": percentile(samples, 0.99),
        "max": float(max(samples)),
    }


# -- process memory -----------------------------------------------------------


def _status_mb(pid: str, field: str) -> float:
    """One ``kB`` field of /proc/<pid>/status, in MB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith(field + ":"):
                return int(line.split()[1]) / 1024.0
    raise BenchError(f"no {field} for pid {pid}")


def rss_mb(pid: int) -> float:
    """Resident set size of a live process in MB."""
    return _status_mb(str(pid), "VmRSS")


def peak_rss_mb() -> float:
    """Peak RSS of this process in MB (VmHWM)."""
    return _status_mb("self", "VmHWM")


# -- minimal JSON-over-HTTP client --------------------------------------------


async def http_json(
    port: int,
    method: str,
    path: str,
    doc: Optional[Any] = None,
    timeout: float = 30.0,
    host: str = "127.0.0.1",
) -> Tuple[int, Any]:
    """One HTTP/1.1 request with a JSON body; returns ``(status, doc)``.

    One connection per request (``Connection: close``), the way every
    client of the service talks to it.  The benchmark owns this client
    so that it keeps working whatever the program does with its own
    transports.
    """

    async def talk() -> Tuple[int, Any]:
        reader, writer = await asyncio.open_connection(host, port)
        try:
            body = b"" if doc is None else json.dumps(doc).encode()
            head = (
                f"{method} {path} HTTP/1.1\r\nHost: {host}:{port}\r\n"
                f"Connection: close\r\nContent-Length: {len(body)}\r\n"
            )
            if body:
                head += "Content-Type: application/json\r\n"
            writer.write(head.encode("latin-1") + b"\r\n" + body)
            await writer.drain()
            status_line = await reader.readline()
            parts = status_line.split()
            if len(parts) < 2 or not parts[1].isdigit():
                raise BenchError(f"{method} {path}: malformed status line")
            length = None
            while True:
                line = await reader.readline()
                if line in (b"\r\n", b"\n", b""):
                    break
                key, _, value = line.decode("latin-1").partition(":")
                if key.strip().lower() == "content-length":
                    length = int(value)
            payload = (
                await reader.readexactly(length) if length
                else await reader.read()
            )
            return int(parts[1]), json.loads(payload) if payload else None
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except OSError:
                pass

    return await asyncio.wait_for(talk(), timeout)


# -- the run record -----------------------------------------------------------


@dataclass
class RunResult:
    """What one workload run hands back to ``run.py``.

    ``metrics`` maps a metric name to ``(value, unit)``; ``samples``
    maps it to the sample count behind it (printed, not in the result
    line); ``traffic`` records the workload's measured traffic
    properties; ``details`` is everything else worth keeping on disk.
    """

    workload: str
    attempted: int = 0
    failed: int = 0
    checks: List[Tuple[str, bool, str]] = field(default_factory=list)
    metrics: Dict[str, Tuple[float, str]] = field(default_factory=dict)
    samples: Dict[str, int] = field(default_factory=dict)
    traffic: Dict[str, Any] = field(default_factory=dict)
    details: Dict[str, Any] = field(default_factory=dict)

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.checks.append((name, bool(ok), detail))

    @property
    def correct(self) -> bool:
        return bool(self.checks) and all(ok for _, ok, _ in self.checks)

    def put(self, name: str, value: float, unit: str, n: int = 0) -> None:
        self.metrics[name] = (float(value), unit)
        if n:
            self.samples[name] = n


def mono_to_wall() -> float:
    """Offset that turns a ``time.monotonic()`` reading into epoch time.

    The program's oplogs stamp events with ``time.time()``; the client
    keeps monotonic times, and this offset (taken once per run) puts
    both on one clock for the hop ledger.
    """
    return time.time() - time.monotonic()
