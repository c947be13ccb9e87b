"""Per-job hop ledger stitched from the router and shard oplogs.

Both processes stamp oplog events with ``time.time()`` on one host, so
their events share a clock with the client's (converted) stamps.  Every
completed job is followed along its blocking path::

    due ─launch─▶ submit ─router_admit─▶ router admit ─router_queue─▶
    shard admit ─shard_queue─▶ shard batch ─shard_exec─▶ shard retire
    ─collect─▶ router retire ─poll─▶ client sees done

The router's own ``dispatch`` event is written when the shard's 202
comes back, i.e. *after* the shard's ``admit``; that return leg
(``dispatch``) overlaps the shard queue and is reported beside the
chain, not in it.  A hop whose two stamps were both found is measured;
``unaccounted`` is the job's e2e minus the sum of its measured hops, so
it is 0 when every stamp was found and grows when one goes missing.
"""

from __future__ import annotations

import json
from typing import Any, Dict, Iterable, List, Optional, Tuple

#: The blocking path, as (hop name, from stamp, to stamp).
CHAIN: Tuple[Tuple[str, str, str], ...] = (
    ("launch", "due", "submit"),
    ("router_admit", "submit", "router_admit"),
    ("router_queue", "router_admit", "shard_admit"),
    ("shard_queue", "shard_admit", "shard_batch"),
    ("shard_exec", "shard_batch", "shard_retire"),
    ("collect", "shard_retire", "router_retire"),
    ("poll", "router_retire", "done"),
)


def read_oplog(path: str) -> List[Dict[str, Any]]:
    """Parsed events of a JSON-lines oplog (torn lines are skipped)."""
    events = []
    try:
        with open(path, encoding="utf-8") as handle:
            for line in handle:
                try:
                    events.append(json.loads(line))
                except ValueError:
                    continue
    except FileNotFoundError:
        return []
    return events


def _index(events: Iterable[Dict[str, Any]]
           ) -> Dict[str, Dict[str, Dict[str, Any]]]:
    """``{job_id: {event: last record}}`` for job-scoped events."""
    out: Dict[str, Dict[str, Dict[str, Any]]] = {}
    for event in events:
        job = event.get("job_id")
        if job is not None:
            out.setdefault(job, {})[event["event"]] = event
    return out


def stitch(
    jobs: List[Dict[str, Any]],
    router_events: List[Dict[str, Any]],
    shard_events: List[Dict[str, Any]],
) -> List[Dict[str, Any]]:
    """One ledger row per completed job.

    ``jobs`` rows carry the router job ``id`` and the client's epoch
    stamps ``due``, ``submit`` and ``done``.  Returns rows with every
    stamp found, the hop durations in ms, the off-chain ``dispatch``
    leg and ``unaccounted`` ms.
    """
    router = _index(router_events)
    # Shard oplog lines of the service (the runner shares the file but
    # logs under its own component, with the same job ids).
    shard = _index(e for e in shard_events if e.get("component") != "runner")
    rows = []
    for job in jobs:
        stamps: Dict[str, Optional[float]] = {
            "due": job["due"], "submit": job["submit"], "done": job["done"],
        }
        r = router.get(job["id"], {})
        stamps["router_admit"] = r.get("admit", {}).get("ts")
        stamps["router_retire"] = r.get("retire", {}).get("ts")
        dispatch = r.get("dispatch", {})
        remote = dispatch.get("remote_id")
        s = shard.get(remote, {}) if remote else {}
        stamps["shard_admit"] = s.get("admit", {}).get("ts")
        stamps["shard_batch"] = s.get("batch", {}).get("ts")
        stamps["shard_retire"] = s.get("retire", {}).get("ts")
        hops: Dict[str, float] = {}
        for name, start, end in CHAIN:
            if stamps[start] is not None and stamps[end] is not None:
                hops[name] = (stamps[end] - stamps[start]) * 1000.0
        e2e = (job["done"] - job["due"]) * 1000.0
        row = {
            "id": job["id"],
            "remote_id": remote,
            "trace_id": r.get("admit", {}).get("trace_id"),
            "batch": s.get("batch", {}).get("batch"),
            "stamps": stamps,
            "hops_ms": hops,
            "dispatch_ms": (
                (dispatch["ts"] - stamps["shard_admit"]) * 1000.0
                if dispatch and stamps["shard_admit"] is not None else None
            ),
            "e2e_ms": e2e,
            "unaccounted_ms": e2e - sum(hops.values()),
            "complete": len(hops) == len(CHAIN),
        }
        rows.append(row)
    return rows


def write_spans(path: str, rows: List[Dict[str, Any]]) -> None:
    """Write the ledger as JSON lines, slowest job first."""
    with open(path, "w", encoding="utf-8") as handle:
        for row in sorted(rows, key=lambda r: -r["e2e_ms"]):
            handle.write(json.dumps(row, sort_keys=True) + "\n")
