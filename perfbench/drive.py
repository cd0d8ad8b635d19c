"""Server processes and the single-threaded HTTP client of the benchmark.

One client process, one thread and one keep-alive ``http.client``
connection drive the server in a closed loop: the next batch of requests
is sent only after the previous one has been answered.  Paged requests
are polled at a fixed interval; streams are read through to the final
frame.
"""

from __future__ import annotations

import gc
import http.client
import json
import os
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple
from urllib.parse import urlsplit

#: seconds between polls of a running job (the first poll waits too)
POLL_INTERVAL = 0.010

#: a request that takes longer than this is abandoned and counted failed
REQUEST_TIMEOUT = 120.0

#: terminal job states (see repro.serve.jobs)
TERMINAL = ("done", "error", "cancelled", "timeout")

#: iterations of the host-speed probe loop (a few milliseconds)
PROBE_ITERATIONS = 100_000


def host_probe() -> float:
    """Seconds taken by a fixed pure-Python loop: the host's current speed."""
    start = time.perf_counter()
    total = 0
    for i in range(PROBE_ITERATIONS):
        total += i * i
    return time.perf_counter() - start


class ServerProcess:
    """``server.py`` in a child process; times spawn to first healthy reply."""

    def __init__(self, root: Path, dataset: str, spans: Optional[str] = None):
        command = [sys.executable, str(root / "perfbench" / "server.py"), dataset]
        if spans is not None:
            command += ["--spans", spans]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(root / "src"), env.get("PYTHONPATH")])
        )
        started = time.perf_counter()
        self.proc = subprocess.Popen(
            command,
            cwd=str(root),
            env=env,
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )
        line = self.proc.stdout.readline()
        if not line.startswith("url "):
            self.kill()
            raise RuntimeError(f"server did not start: {line!r}")
        self.url = line.split()[1]
        parts = urlsplit(self.url)
        self.host, self.port = parts.hostname, parts.port
        self._wait_healthy()
        #: spawn to the first ``/healthz`` 200: dataset load, service
        #: start and server start
        self.setup_s = time.perf_counter() - started
        #: the host's speed right after this boot
        self.boot_probe = self.probe()

    def _wait_healthy(self) -> None:
        deadline = time.monotonic() + 60.0
        while time.monotonic() < deadline:
            conn = http.client.HTTPConnection(self.host, self.port, timeout=10)
            try:
                conn.request("GET", "/healthz")
                response = conn.getresponse()
                response.read()
                if response.status == 200:
                    return
            except OSError:
                pass
            finally:
                conn.close()
            time.sleep(0.002)
        raise RuntimeError("server never reported healthy")

    def probe(self) -> float:
        """Seconds the server process takes for :func:`host_probe`."""
        self.proc.stdin.write("probe\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line.startswith("probe "):
            raise RuntimeError(f"server answered the probe with {line!r}")
        return float(line.split()[1])

    def stop(self) -> int:
        """Shut the server down; returns its peak RSS in kB."""
        self.proc.stdin.close()
        out = self.proc.stdout.read()
        self.proc.wait(timeout=60)
        self.proc.stdout.close()
        for line in out.splitlines():
            if line.startswith("peak_rss_kb "):
                return int(line.split()[1])
        raise RuntimeError(f"server exited without a report: {out!r}")

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        for stream in (self.proc.stdin, self.proc.stdout):
            if stream is not None and not stream.closed:
                stream.close()


class Client:
    """One keep-alive HTTP/1.1 connection.

    ``idle`` adds up the time spent on timers rather than on work: poll
    sleeps, and the gap between a response's headers and its body.  The
    server sends the two back to back, without ``TCP_NODELAY``, so a gap
    is the body held back until the headers are acknowledged, and the
    kernel may delay that acknowledgement by up to 40 ms.
    """

    def __init__(self, host: str, port: int):
        self.conn = http.client.HTTPConnection(host, port, timeout=REQUEST_TIMEOUT)
        self.idle = 0.0

    def call(self, method: str, path: str, doc: Optional[dict] = None):
        body = json.dumps(doc).encode() if doc is not None else None
        headers = {"Content-Type": "application/json"} if body else {}
        self.conn.request(method, path, body=body, headers=headers)
        response = self.conn.getresponse()
        headed = time.perf_counter()
        payload = response.read()
        self.idle += time.perf_counter() - headed
        return response.status, payload

    def sleep(self, seconds: float) -> None:
        started = time.perf_counter()
        time.sleep(seconds)
        self.idle += time.perf_counter() - started

    def metrics(self) -> Dict[str, float]:
        """``/metrics`` as ``{series: value}`` (histogram buckets dropped)."""
        status, body = self.call("GET", "/metrics")
        if status != 200:
            raise RuntimeError(f"/metrics answered {status}")
        series = {}
        for line in body.decode().splitlines():
            if line.startswith("#") or "_bucket" in line or not line.strip():
                continue
            name, __, value = line.rpartition(" ")
            series[name] = float(value)
        return series

    def close(self) -> None:
        self.conn.close()


@dataclass
class Outcome:
    """What one timed request produced."""

    latency: float = 0.0
    first_result: float = 0.0
    #: the part of ``latency`` spent on timers (``Client.idle``); zero
    #: for streams, whose frames interleave timers with work
    idle_s: float = 0.0
    error: str = ""
    #: the answer as sent: ``{"total": cells, "cells": [...]}``
    answer: Optional[dict] = None
    #: the server's account of how it answered (paged requests)
    cache_answer: str = ""


@dataclass
class PassResult:
    """One pass over the request list on one fresh server."""

    outcomes: List[Outcome]
    #: (wall seconds, idle seconds) of each batch
    batches: List[Tuple[float, float]]
    #: host probes: one before the first batch and one after each batch,
    #: so ``probes[b]`` and ``probes[b + 1]`` bracket batch ``b``
    probes: List[float]
    start: float
    end: float
    before: Dict[str, float] = field(default_factory=dict)
    after: Dict[str, float] = field(default_factory=dict)
    peak_rss_kb: int = 0


def _answer_kind(stats: dict) -> str:
    if stats.get("cuboid_cache_hit"):
        return "exact"
    if stats.get("strategy") == "derived":
        return "derived"
    return "miss"


def _run_paged(client: Client, batch) -> List[Outcome]:
    """Submit every request of *batch*, then poll them all to the end."""
    outcomes = [Outcome() for __ in batch]
    pending = {}
    for index, request in enumerate(batch):
        started, idle = time.perf_counter(), client.idle
        status, body = client.call("POST", "/v1/queries", request.body())
        if status != 202:
            outcomes[index].error = f"submit answered {status}: {body[:200]!r}"
            continue
        pending[index] = (json.loads(body)["query_id"], started, idle)
    while pending:
        client.sleep(POLL_INTERVAL)
        for index, (job_id, started, idle) in list(pending.items()):
            status, body = client.call(
                "GET", f"/v1/queries/{job_id}?offset=0&limit=100"
            )
            now = time.perf_counter()
            outcome = outcomes[index]
            if status != 200:
                outcome.error = f"poll answered {status}: {body[:200]!r}"
            else:
                doc = json.loads(body)
                if doc["status"] not in TERMINAL:
                    if now - started > REQUEST_TIMEOUT:
                        outcome.error = "timed out waiting for the job"
                    else:
                        continue
                elif doc["status"] != "done":
                    outcome.error = f"job ended {doc['status']}: {doc.get('error')}"
                else:
                    outcome.latency = outcome.first_result = now - started
                    outcome.idle_s = client.idle - idle
                    outcome.answer = {
                        "total": doc["page"]["total_cells"],
                        "cells": doc["cells"],
                    }
                    outcome.cache_answer = _answer_kind(doc["stats"])
            del pending[index]
    return outcomes


def _run_stream(client: Client, request) -> Outcome:
    """One ``POST /v1/stream``, read through to the final frame."""
    outcome = Outcome()
    started = time.perf_counter()
    body = json.dumps(request.body()).encode()
    client.conn.request(
        "POST", "/v1/stream", body=body,
        headers={"Content-Type": "application/json"},
    )
    response = client.conn.getresponse()
    if response.status != 200:
        outcome.error = f"stream answered {response.status}: {response.read()[:200]!r}"
        return outcome
    lines = [response.readline()]
    first = time.perf_counter()
    while True:
        line = response.readline()
        if not line:
            break
        lines.append(line)
    outcome.latency = time.perf_counter() - started
    outcome.first_result = first - started
    final = json.loads(lines[-1]) if lines[-1].strip() else {}
    if not final.get("is_final"):
        outcome.error = "stream ended without a final frame"
    else:
        outcome.answer = {"total": final["cell_count"], "cells": final["cells"]}
    return outcome


def _run_batch(client: Client, batch) -> List[Outcome]:
    try:
        if batch[0].kind == "stream":
            return [_run_stream(client, request) for request in batch]
        return _run_paged(client, batch)
    except (OSError, http.client.HTTPException, ValueError, KeyError) as error:
        # A broken connection fails the batch; the next one reconnects.
        client.conn.close()
        return [Outcome(error=f"{type(error).__name__}: {error}") for __ in batch]


def run_pass(server: ServerProcess, workload, requests) -> PassResult:
    """Warm up, then time every request on a fresh server, then stop it."""
    client = Client(server.host, server.port)
    try:
        for request in workload.warm_up():
            for outcome in _run_batch(client, [request]):
                if outcome.error:
                    raise RuntimeError(f"warm-up failed: {outcome.error}")
        before = client.metrics()
        outcomes: List[Outcome] = []
        batches: List[Tuple[float, float]] = []
        probes = [server.probe()]
        gc.collect()
        gc.disable()
        try:
            start = time.monotonic()
            for first in range(0, len(requests), workload.batch):
                started, idle = time.perf_counter(), client.idle
                outcomes.extend(
                    _run_batch(client, requests[first : first + workload.batch])
                )
                batches.append(
                    (time.perf_counter() - started, client.idle - idle)
                )
                probes.append(server.probe())
            end = time.monotonic()
        finally:
            gc.enable()
        after = client.metrics()
    finally:
        client.close()
    result = PassResult(
        outcomes=outcomes,
        batches=batches,
        probes=probes,
        start=start,
        end=end,
        before=before,
        after=after,
    )
    result.peak_rss_kb = server.stop()
    return result
