"""Run ``cohort fleet`` as a subprocess and talk to it over its public API.

The benchmark treats the fleet as a black box: it starts the router the
way an operator would (``python -m repro.cli fleet``), learns the port
from the router's start-up line, waits for ``/healthz``, reads
``/metrics``, and stops it with SIGTERM, which drains the router and
its shards.  Shard pids come from ``/metrics``; shards run in their own
sessions, so :meth:`FleetProcess.stop` kills any that outlive the
router.
"""

from __future__ import annotations

import asyncio
import os
import re
import signal
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional

from common import BenchError, http_json, rss_mb

_PORT_RE = re.compile(rb"router on http://[^:]+:(\d+)")

#: Seconds a fleet may take from spawn to a healthy ``/healthz``.
START_TIMEOUT = 60.0
#: Seconds the router gets to drain and exit after SIGTERM.
STOP_TIMEOUT = 30.0


def _pid_alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        return True
    return True


class FleetProcess:
    """One ``cohort fleet --shards 1`` router subprocess."""

    def __init__(
        self, src_dir: str, fleet_dir: str, oplog: Optional[str] = None
    ) -> None:
        self.src_dir = src_dir
        self.fleet_dir = fleet_dir
        self.oplog = oplog
        self.proc: Optional[subprocess.Popen] = None
        self.port = 0
        self.shard_pids: List[int] = []
        self._log_path = os.path.join(fleet_dir, "router.log")

    @property
    def shard_oplog(self) -> str:
        return os.path.join(self.fleet_dir, "shard-0.oplog.jsonl")

    async def start(self) -> float:
        """Spawn the router; seconds until ``/healthz`` reports ``ok``."""
        os.makedirs(self.fleet_dir, exist_ok=True)
        tmp = os.path.join(self.fleet_dir, "tmp")
        os.makedirs(tmp, exist_ok=True)
        env = dict(os.environ)
        env["PYTHONPATH"] = self.src_dir
        env["TMPDIR"] = tmp
        env["PYTHONDONTWRITEBYTECODE"] = "1"
        cmd = [
            sys.executable, "-m", "repro.cli", "fleet",
            "--shards", "1", "--port", "0", "--fleet-dir", self.fleet_dir,
        ]
        if self.oplog:
            cmd += ["--oplog", self.oplog]
        started = time.perf_counter()
        with open(self._log_path, "wb") as log:
            self.proc = subprocess.Popen(
                cmd, stdout=log, stderr=subprocess.STDOUT, env=env,
                cwd=self.fleet_dir,
            )
        deadline = time.monotonic() + START_TIMEOUT
        while time.monotonic() < deadline:
            if self.proc.poll() is not None:
                raise BenchError(
                    f"cohort fleet exited with {self.proc.returncode} "
                    f"during start-up; see {self._log_path}"
                )
            if not self.port:
                with open(self._log_path, "rb") as log:
                    found = _PORT_RE.search(log.read())
                if found:
                    self.port = int(found.group(1))
            if self.port:
                try:
                    status, doc = await http_json(
                        self.port, "GET", "/healthz", timeout=2.0
                    )
                except (OSError, asyncio.TimeoutError):
                    status, doc = 0, None
                if status == 200 and (doc or {}).get("status") == "ok":
                    elapsed = time.perf_counter() - started
                    self.shard_pids = [
                        s["pid"] for s in (await self.metrics())["shards"]
                        if s.get("pid")
                    ]
                    return elapsed
            await asyncio.sleep(0.005)
        raise BenchError(f"cohort fleet not healthy after {START_TIMEOUT}s")

    async def metrics(self) -> Dict[str, Any]:
        """The router's ``/metrics`` document, shard snapshots included."""
        status, doc = await http_json(self.port, "GET", "/metrics")
        if status != 200 or not isinstance(doc, dict):
            raise BenchError(f"GET /metrics answered {status}")
        return doc

    async def shard_snapshot(self) -> Dict[str, Any]:
        """Shard 0's own ``/metrics`` snapshot (service + runner)."""
        shard = (await self.metrics())["shards"][0]
        if shard.get("serve") is None:
            raise BenchError("shard 0 did not answer /metrics")
        return shard["serve"]

    def rss(self) -> Dict[str, float]:
        """Router and shard RSS in MB, read from /proc."""
        assert self.proc is not None
        return {
            "router": rss_mb(self.proc.pid),
            "shards": sum(rss_mb(pid) for pid in self.shard_pids),
        }

    def stop(self) -> Optional[str]:
        """SIGTERM the router, wait for it, then reap stray shards.

        Returns the tail of the router's log when the router did not
        drain and exit in time and had to be killed, else ``None``.
        """
        if self.proc is None:
            return None
        forced = None
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=STOP_TIMEOUT)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
                with open(self._log_path, "rb") as log:
                    forced = log.read()[-2000:].decode("utf-8", "replace")
        for pid in self.shard_pids:
            deadline = time.monotonic() + 5.0
            while _pid_alive(pid) and time.monotonic() < deadline:
                time.sleep(0.02)
            if _pid_alive(pid):
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
        self.proc = None
        return forced
