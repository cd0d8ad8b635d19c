"""Serving benchmark of the S-OLAP engine over a live HTTP server.

Usage::

    python3 perfbench/run.py --workload adhoc_scan --seed 1 --seconds 10 --trace 0

Run from the repository root.  One run generates the workload's dataset
from the seed, boots fresh ``server.py`` processes, drives the pinned
request list over HTTP from one client thread and checks every answer
against the serial counter-based oracle.  It prints a readable report
and, as its last line, one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics of an untraced server.
``--trace 1`` runs the same requests twice on the same seed, untraced
and then with layer spans (``layers.py``), and reports the per-layer
metrics, including the tracing overhead.

Without the repository's ``src`` tree next to ``perfbench`` it exits
with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import shutil
import signal
import statistics
import sys
import time
from pathlib import Path
from typing import Dict, List

ROOT = Path(__file__).resolve().parent.parent

#: server boots per --trace 0 run; setup_s is their median
SETUP_BOOTS = 5

#: a run still going after this many seconds stops with an error
RUN_DEADLINE_S = 170

#: host-normalised times read as if the probe loop took this long (ms);
#: see end_to_end
REFERENCE_PROBE_MS = 10.0

#: counters read from /metrics deltas; they repeat exactly for one seed
COUNTERS = {
    "engine.sequences_scanned": "solap_engine_sequences_scanned_total",
    "engine.rows_aggregated": "solap_engine_rows_aggregated_total",
    "engine.answers_exact": 'solap_engine_queries_total{strategy="cache"}',
    "engine.answers_derived": 'solap_engine_queries_total{strategy="derived"}',
    "engine.answers_miss_cb": 'solap_engine_queries_total{strategy="cb"}',
    "engine.answers_miss_ii": 'solap_engine_queries_total{strategy="ii"}',
    "index.bytes": "solap_index_registry_bytes",
    "http.stream_frames": "solap_http_stream_frames_total",
    "sequence_cache.hit": 'solap_sequence_cache_lookups_total{outcome="hit"}',
    "sequence_cache.miss": 'solap_sequence_cache_lookups_total{outcome="miss"}',
    "repository.hit": 'solap_cuboid_repository_lookups_total{outcome="hit"}',
    "repository.miss": 'solap_cuboid_repository_lookups_total{outcome="miss"}',
}

#: HTTP routes whose request count depends on timing, not on the seed
TIMING_ROUTES = ("GET /v1/queries/*", "GET /metrics")


def counter_deltas(before: Dict[str, float], after: Dict[str, float]) -> Dict[str, float]:
    deltas = {
        name: after.get(series, 0.0) - before.get(series, 0.0)
        for name, series in COUNTERS.items()
    }
    prefix = "solap_http_requests_total{"
    for series, value in after.items():
        if not series.startswith(prefix):
            continue
        labels = dict(
            part.split("=", 1) for part in series[len(prefix):-1].split(",")
        )
        route = f"{labels['method'].strip(chr(34))} {labels['route'].strip(chr(34))}"
        key = f"http {route} {labels['status'].strip(chr(34))}"
        deltas[key] = deltas.get(key, 0.0) + value - before.get(series, 0.0)
    return {name: value for name, value in deltas.items() if value}


def deterministic(deltas: Dict[str, float]) -> Dict[str, float]:
    return {
        name: value
        for name, value in deltas.items()
        if not any(name.startswith(f"http {route} ") for route in TIMING_ROUTES)
    }


def tail(latencies: List[float]):
    """(value, percentile): the highest percentile with ten samples beyond it."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n < 11:
        return ordered[-1], 100
    return ordered[n - 11], int(100 * (n - 10) / n)


def check_answers(requests, outcomes, expected) -> List[str]:
    """One line per failed request: HTTP/job errors and oracle mismatches."""
    problems = []
    for index, (request, outcome, answer) in enumerate(
        zip(requests, outcomes, expected)
    ):
        if outcome.error:
            problems.append(f"request {index} ({request.label}): {outcome.error}")
        elif outcome.answer != answer:
            got = outcome.answer or {}
            problems.append(
                f"request {index} ({request.label}): answer differs from the "
                f"oracle ({got.get('total')} cells, expected {answer['total']})"
                f"\n    {request.ql!r}"
            )
    return problems


def check_drift(workload: str, seed: int, count: int, counters: Dict[str, float]) -> str:
    """Compare with the counters an earlier run of this seed recorded."""
    ledger_path = ROOT / ".perfbench_state" / "counters.json"
    ledger = json.loads(ledger_path.read_text()) if ledger_path.exists() else {}
    key = f"{workload}:{seed}:{count}"
    previous = ledger.get(key)
    if previous is None:
        ledger[key] = counters
        ledger_path.parent.mkdir(exist_ok=True)
        ledger_path.write_text(json.dumps(ledger, indent=1, sort_keys=True))
        return "first run of this seed: recorded"
    if previous == counters:
        return "same as the earlier run of this seed"
    changed = sorted(
        name for name in set(previous) | set(counters)
        if previous.get(name) != counters.get(name)
    )
    return "DRIFT against the earlier run of this seed: " + ", ".join(changed)


def class_report(requests, outcomes) -> List[str]:
    by_label: Dict[str, List[float]] = {}
    for request, outcome in zip(requests, outcomes):
        if not outcome.error:
            by_label.setdefault(request.label, []).append(outcome.latency)
    return [
        f"  {label:24s} n={len(values):4d}  p50 {statistics.median(values) * 1000:9.2f} ms"
        for label, values in by_label.items()
    ]


def outcome_mix(requests, outcomes) -> str:
    """explore_session: per-session answer kinds against the expected mix."""
    from workloads import EXPECTED_ANSWERS, SESSION_STEPS

    sessions: Dict[int, List[str]] = {}
    for request, outcome in zip(requests, outcomes):
        sessions.setdefault(request.session, [""] * len(SESSION_STEPS))
        sessions[request.session][SESSION_STEPS.index(request.label)] = (
            outcome.cache_answer
        )
    bad = [s for s, kinds in sessions.items() if tuple(kinds) != EXPECTED_ANSWERS]
    expected = {kind: EXPECTED_ANSWERS.count(kind) for kind in ("miss", "derived", "exact")}
    mix = " ".join(f"{kind}={n}" for kind, n in expected.items())
    if bad:
        return f"outcome mix: {len(bad)} of {len(sessions)} sessions differ from {mix} (sessions {bad})"
    return f"outcome mix: all {len(sessions)} sessions {mix}, in step order"


def end_to_end(result, boots, batch: int, scale: bool = True) -> Dict[str, tuple]:
    """The end-to-end metrics of one untraced pass and its boots.

    With *scale*, times are host-normalised.  The time a request spent
    on timers (``Outcome.idle_s``: poll sleeps, held-back response
    bodies) stays as measured; the rest is work, client and server, and
    is multiplied by ``REFERENCE_PROBE_MS / probe``, where *probe* is
    the mean of the two probes that bracket the request's batch.
    Throughput scales each batch's wall time the same way.  Each boot is
    scaled whole, by the probe taken right after it.
    """
    speeds = [
        REFERENCE_PROBE_MS / ((before + after) * 500.0) if scale else 1.0
        for before, after in zip(result.probes, result.probes[1:])
    ]

    def scaled(seconds: float, idle: float, speed: float) -> float:
        return idle + (seconds - idle) * speed

    done = [
        (outcome, speeds[index // batch])
        for index, outcome in enumerate(result.outcomes)
        if not outcome.error
    ]
    latencies = [scaled(o.latency, o.idle_s, speed) for o, speed in done] or [0.0]
    firsts = [
        scaled(o.first_result, o.idle_s, speed) for o, speed in done
    ] or [0.0]
    wall = sum(
        scaled(seconds, idle, speed)
        for (seconds, idle), speed in zip(result.batches, speeds)
    )
    setup = [
        server.setup_s
        * (REFERENCE_PROBE_MS / (server.boot_probe * 1000.0) if scale else 1.0)
        for server in boots
    ]
    tail_value, __ = tail(latencies)
    return {
        "query_p50_ms": (statistics.median(latencies) * 1000.0, "ms"),
        "query_tail_ms": (tail_value * 1000.0, "ms"),
        "first_result_p50_ms": (statistics.median(firsts) * 1000.0, "ms"),
        "throughput_qps": (len(done) / wall, "1/s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (result.peak_rss_kb / 1024.0, "MB"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="S-OLAP serving benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from drive import ServerProcess, run_pass
    from workloads import WORKLOADS, oracle

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"error: unknown workload {args.workload!r}; "
              f"expected one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2

    def out_of_time(signum, frame):
        raise TimeoutError(f"run did not finish within {RUN_DEADLINE_S} s")

    signal.signal(signal.SIGALRM, out_of_time)
    signal.alarm(RUN_DEADLINE_S)
    work = ROOT / ".perfbench_tmp" / f"run-{args.workload}-{time.monotonic_ns()}"
    work.mkdir(parents=True)
    servers = []

    def boot(spans=None) -> ServerProcess:
        server = ServerProcess(ROOT, str(work / "data"), spans)
        servers.append(server)
        return server

    phases = {}
    clock = time.perf_counter()

    def phase(name: str) -> None:
        nonlocal clock
        now = time.perf_counter()
        phases[name] = now - clock
        clock = now

    try:
        from repro.io.events_io import load_dataset

        workload.write_dataset(args.seed, str(work / "data"))
        db = load_dataset(str(work / "data"))
        count = workload.request_count(args.seconds)
        requests = workload.requests(db, args.seed, count)
        phase("dataset")

        if args.trace == 0:
            for __ in range(SETUP_BOOTS - 1):
                boot().stop()
            passes = [run_pass(boot(), workload, requests)]
        else:
            passes = [
                run_pass(boot(), workload, requests),
                run_pass(boot(str(work / "spans.json")), workload, requests),
            ]
        phase("servers")
        expected = oracle(db, requests)
        phase("oracle")

        problems = []
        for result in passes:
            problems += check_answers(requests, result.outcomes, expected)
        attempted = len(requests) * len(passes)
        deltas = [counter_deltas(r.before, r.after) for r in passes]

        print(f"workload {workload.name}: {workload.why}")
        print(f"dataset I=100 L=20 theta=0.9 D={workload.D} seed={args.seed}; "
              f"window {workload.window} sequences; {count} requests "
              f"(batch {workload.batch}); poll interval 10 ms")
        print("request classes:")
        for line in class_report(requests, passes[0].outcomes):
            print(line)
        if workload.name == "explore_session":
            print(outcome_mix(requests, passes[0].outcomes))
        print("counters (/metrics deltas; polls depend on timing):")
        for name, value in sorted(deltas[0].items()):
            print(f"  {name:48s} {value:14.0f}")
        print("counters: " + check_drift(
            workload.name, args.seed, count, deterministic(deltas[0])
        ))
        if len(passes) > 1 and deterministic(deltas[0]) != deterministic(deltas[1]):
            print("counters: DRIFT between the untraced and the traced pass")
        for line in problems:
            print(f"FAILED {line}")
        print(f"error_rate {len(problems) / attempted:.4f} "
              f"({len(problems)} of {attempted} requests)")
        probe_ms = statistics.median(passes[0].probes) * 1000.0
        print(f"host.probe_ms {probe_ms:.4f}")
        print("phases: " + ", ".join(f"{k} {v:.1f} s" for k, v in phases.items())
              + "; timed " + ", ".join(f"{r.end - r.start:.1f} s" for r in passes))

        if args.trace == 0:
            raw = end_to_end(passes[0], servers, workload.batch, scale=False)
            values = end_to_end(passes[0], servers, workload.batch)
            _, percentile = tail([o.latency for o in passes[0].outcomes])
            print(f"query_tail_ms is p{percentile} of {count} requests")
            print("setup_s boots (s, probe ms): " + " ".join(
                f"{s.setup_s:.3f}/{s.boot_probe * 1000:.2f}" for s in servers
            ))
            print("raw: " + " ".join(
                f"{name}={value:.4f}" for name, (value, __) in raw.items()
            ))
            print(f"host-normalised: work time x {REFERENCE_PROBE_MS} ms / "
                  f"the probes around each request (run median "
                  f"{probe_ms:.4f} ms)")
        else:
            values = layer_metrics(
                passes, servers, workload.batch, deltas[1], count, probe_ms, work
            )
        for name, (value, unit) in values.items():
            print(f"{name:40s} {value:14.4f} {unit}")
        print(json.dumps({
            "correct": not problems,
            "attempted": attempted,
            "failed": len(problems),
            "metrics": {
                name: {"value": value, "unit": unit}
                for name, (value, unit) in values.items()
            },
        }))
        return 0
    finally:
        for server in servers:
            server.kill()
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # another run's directory is still there


def layer_metrics(
    passes, servers, batch, deltas, count, probe_ms, work
) -> Dict[str, tuple]:
    """The per-layer metrics of the traced pass, with their units."""
    import layers

    traced = passes[1]
    records = layers.select_window(
        layers.load_spans(str(work / "spans.json")), traced.start, traced.end
    )
    metrics = layers.layer_report(records, count, deltas)
    metrics["host.probe_ms"] = probe_ms
    # Each pass is host-normalised by its own probes, so a change in
    # host speed between the two passes does not read as overhead.
    p50 = [
        end_to_end(result, servers, batch)["query_p50_ms"][0]
        for result in passes
    ]
    metrics["trace.overhead_ratio"] = p50[1] / p50[0]
    print("per-layer metric -> the end-to-end metric it should move:")
    for name, (__, moves) in layers.LAYER_METRICS.items():
        print(f"  {name:40s} {moves}")
    spans = {
        name: metrics[name]
        for name, (span_name, __) in layers.LAYER_METRICS.items()
        if span_name is not None
    }
    total = sum(spans.values())
    print("dominant layers (self ms per request, share of traced span time):")
    for name, value in sorted(spans.items(), key=lambda kv: -kv[1])[:6]:
        print(f"  {name:40s} {value:10.2f}  {value / total:6.1%}")
    print(f"tracing overhead: traced p50 {p50[1]:.2f} ms against "
          f"untraced {p50[0]:.2f} ms on the same seed (host-normalised)")
    return {name: (metrics[name], _unit(name)) for name in layers.LAYER_METRICS}


def _unit(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_ratio") or name.endswith("per_cell_sent"):
        return "ratio"
    if name == "cb.us_per_sequence":
        return "us"
    if name == "index.bytes_built":
        return "bytes"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
