"""Layer spans for the traced benchmark run, and the per-layer report.

The server launcher (``server.py --spans FILE``) calls :func:`install`,
which wraps each layer's public entry point at the attribute its caller
looks it up through.  Every call then records one span: name, start,
end, parent span and request id.  Spans stay in memory and are written
out once, at shutdown.  Nothing under ``src/`` changes.

:func:`layer_report` turns the spans of a timed window plus the
``/metrics`` deltas of the same window into the ``per_layer`` metrics.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Dict, List, Optional

#: root spans: one per HTTP request, one per asynchronous job execution
ROOTS = ("http.request", "job.run")


class SpanLog:
    """Thread-safe in-memory span recorder.

    A span opened while another is open on the same thread becomes its
    child and inherits its request id.  A span opened on a thread with
    no open span takes *base* as its parent, when given: the span that
    was open where the work was handed to that thread (see
    :func:`_wrap_submit`).  Otherwise it is a root.
    """

    def __init__(self):
        self.records: List[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name: str, fn, args, kwargs, attrs=None, base=None):
        """Run ``fn(*args, **kwargs)`` inside one span named *name*.

        *attrs*, if given, is called as ``attrs(result, args)`` after the
        call and returns a dict stored with the span.  *base* is the
        ``(span id, request id)`` to hang the span under when this
        thread has no open span.
        """
        stack = self._stack()
        sid = next(self._ids)
        if stack:
            parent, rid = stack[-1]
        elif base is not None:
            parent, rid = base
        else:
            parent, rid = None, (sid if name in ROOTS else None)
        stack.append((sid, rid))
        start = time.monotonic()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.monotonic()
            stack.pop()
        extra = attrs(result, args) if attrs is not None else None
        self.records.append((sid, name, start, end, parent, rid, extra))
        return result

    def dump(self, path: str) -> None:
        with open(path, "w") as handle:
            json.dump(self.records, handle)


def _wrap(log: SpanLog, name: str, fn, attrs=None):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        return log.call(name, fn, args, kwargs, attrs)

    return traced


def _wrap_submit(log: SpanLog, name: str, submit, target):
    """``Executor.submit`` that runs *target* in a span named *name*.

    The span's parent is the span open on the submitting thread, so pool
    work joins the request that handed it out.
    """

    @functools.wraps(submit)
    def traced(self, fn, *args, **kwargs):
        if fn is not target:
            return submit(self, fn, *args, **kwargs)
        stack = log._stack()
        base = stack[-1] if stack else None

        def run(*args, **kwargs):
            return log.call(name, fn, args, kwargs, base=base)

        return submit(self, run, *args, **kwargs)

    return traced


def _wrap_generator(log: SpanLog, name: str, fn):
    """One span per item produced (the work happens inside ``next``)."""

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        inner = fn(*args, **kwargs)
        try:
            while True:
                try:
                    item = log.call(name, next, (inner,), {})
                except StopIteration:
                    return
                yield item
        finally:
            inner.close()

    return traced


def _wrap_iter(log: SpanLog, name: str, fn):
    """``__iter__`` materialised inside one span (sorting happens there)."""

    @functools.wraps(fn)
    def traced(self):
        return iter(log.call(name, lambda: list(fn(self)), (), {}))

    return traced


def _scan_attrs(stats_index: int):
    """Sequences a CB scan added to the query's stats (``None`` = declined)."""

    def attrs(result, args):
        if result is None:
            return {"declined": 1}
        return {"sequences": args[stats_index].sequences_scanned}

    return attrs


def _page_attrs(result, args):
    # Every page encodes the whole cuboid and sends one window of it.
    return {"encoded": result["page"]["total_cells"], "sent": len(result["cells"])}


def install(log: SpanLog) -> None:
    """Wrap every traced entry point; call once, before serving."""
    import repro.core.counter_based as counter_based
    import repro.core.engine as engine
    import repro.core.inverted_index as inverted_index
    import repro.extensions.online_agg as online_agg
    import repro.optimizer.semantic_cache as semantic_cache
    import repro.serve.app as app
    import repro.serve.codecs as codecs
    import repro.service.parallel as parallel
    import repro.service.service as service
    from repro.core.cuboid import SCuboid
    from repro.core.repository import CuboidRepository
    from repro.serve.jobs import JobRegistry

    def patch(owner, attr, name, kind=_wrap, **extra):
        setattr(owner, attr, kind(log, name, getattr(owner, attr), **extra))

    patch(app.SolapServer, "_dispatch", "http.request")
    patch(app.SolapServer, "_send_json", "http.respond")
    patch(app.SolapServer, "_write_chunk", "http.respond")
    patch(JobRegistry, "_run", "job.run")
    patch(JobRegistry, "submit", "jobs.submit")
    patch(app, "parse_query", "ql.parse")
    patch(service.QueryService, "execute", "service.execute")
    patch(engine.SOLAPEngine, "execute", "engine.execute")
    patch(engine, "build_sequence_groups", "sequence.build")
    for module in (counter_based, inverted_index, online_agg, parallel):
        patch(module, "make_matcher", "matcher.compile")
    # cb.scan is the CB kernel: the serial scan, or the sharded match
    # that the parallel scanner hands to its pool threads.
    patch(engine, "counter_based_cuboid", "cb.scan", attrs=_scan_attrs(3))
    patch(ThreadPoolExecutor, "submit", "cb.scan", kind=_wrap_submit,
          target=parallel._traced_match_chunk)
    patch(parallel.ParallelCBScanner, "__call__", "parallel.scan",
          attrs=_scan_attrs(4))
    patch(engine, "inverted_index_cuboid", "ii.query")
    patch(inverted_index, "build_index", "index.build")
    patch(inverted_index, "join_indices", "index.join")
    patch(inverted_index, "verify_index", "index.verify")
    patch(CuboidRepository, "get", "repository.get")
    patch(semantic_cache.DerivationPlanner, "plan", "semantic.plan")
    patch(semantic_cache, "execute_chain", "semantic.derive")
    patch(codecs, "page_cells", "codecs.page", attrs=_page_attrs)
    patch(codecs, "encode_estimate", "codecs.frame")
    patch(codecs, "dumps", "codecs.dumps")
    patch(service, "online_cuboid", "online.frame", kind=_wrap_generator)
    patch(SCuboid, "__iter__", "cuboid.iter", kind=_wrap_iter)


# ----------------------------------------------------------------------
# Analysis (client side)
# ----------------------------------------------------------------------

#: per-layer metric -> (span whose self time it sums, or None when it is
#: a count or ratio) and the end-to-end metric/workload it should move
LAYER_METRICS = {
    "sequence.build_ms": ("sequence.build", "adhoc_scan query_p50_ms, throughput_qps"),
    "sequence.cache_hit_ratio": (None, "adhoc_scan query_p50_ms (0.5 on explore_session: one build per session)"),
    "matcher.compile_ms": ("matcher.compile", "adhoc_scan query_p50_ms"),
    "cb.scan_ms": ("cb.scan", "adhoc_scan query_p50_ms, throughput_qps"),
    "parallel.scan_ms": ("parallel.scan", "adhoc_scan query_p50_ms, throughput_qps"),
    "cb.sequences_scanned": (None, "adhoc_scan throughput_qps"),
    "cb.us_per_sequence": (None, "adhoc_scan query_p50_ms"),
    "ii.query_ms": ("ii.query", "explore_session query_tail_ms"),
    "index.build_ms": ("index.build", "explore_session query_tail_ms"),
    "index.join_ms": ("index.join", "explore_session query_tail_ms"),
    "index.verify_ms": ("index.verify", "explore_session query_tail_ms"),
    "index.bytes_built": (None, "explore_session query_tail_ms"),
    "repository.hit_ratio": (None, "explore_session query_p50_ms"),
    "repository.get_ms": ("repository.get", "explore_session query_p50_ms"),
    "semantic.plan_ms": ("semantic.plan", "explore_session query_p50_ms (pure overhead on adhoc_scan)"),
    "semantic.derive_ms": ("semantic.derive", "explore_session query_p50_ms"),
    "semantic.derived_ratio": (None, "explore_session query_p50_ms"),
    "service.wait_ms": ("service.execute", "explore_session query_tail_ms"),
    "engine.execute_ms": ("engine.execute", "explore_session query_tail_ms"),
    "job.run_ms": ("job.run", "adhoc_scan, explore_session query_p50_ms"),
    "jobs.submit_ms": ("jobs.submit", "adhoc_scan, explore_session query_p50_ms"),
    "codecs.page_ms": ("codecs.page", "adhoc_scan, explore_session query_p50_ms"),
    "codecs.cells_encoded_per_cell_sent": (None, "adhoc_scan, explore_session query_p50_ms"),
    "codecs.frame_ms": ("codecs.frame", "progressive_stream query_p50_ms, first_result_p50_ms"),
    "codecs.dumps_ms": ("codecs.dumps", "progressive_stream query_p50_ms; all workloads"),
    "online.frame_ms": ("online.frame", "progressive_stream query_p50_ms, first_result_p50_ms"),
    "online.frames": (None, "progressive_stream query_p50_ms"),
    "cuboid.iter_ms": ("cuboid.iter", "progressive_stream query_p50_ms; paged first pages"),
    "ql.parse_ms": ("ql.parse", "all workloads (small)"),
    "http.request_ms": ("http.request", "all workloads query_p50_ms"),
    "http.respond_ms": ("http.respond", "all workloads query_p50_ms"),
    "http.status_poll_ms": (None, "adhoc_scan, explore_session query_p50_ms"),
    "host.probe_ms": (None, "none: host speed reference"),
    "trace.accounted_ratio": (None, "none: trace coverage (target >= 0.95)"),
    "trace.overhead_ratio": (None, "none: traced / untraced query_p50_ms"),
}


def load_spans(path: str) -> List[tuple]:
    with open(path) as handle:
        return [tuple(record) for record in json.load(handle)]


def select_window(records: List[tuple], start: float, end: float) -> List[tuple]:
    """Spans of the requests that ran entirely inside ``[start, end]``.

    Spans outside any request are kept when they lie in the window.
    """
    inside = set()
    for sid, name, t0, t1, parent, rid, __ in records:
        if parent is None and rid == sid and t0 >= start and t1 <= end:
            inside.add(sid)
    return [
        record
        for record in records
        if record[5] in inside
        or (record[5] is None and record[2] >= start and record[3] <= end)
    ]


def merge_concurrent(records: List[tuple]) -> List[tuple]:
    """Overlapping sibling spans of one name merged into one span.

    Scan-pool threads run one request's shards side by side (taking
    turns on the interpreter lock), so their spans overlap.  The time
    they cover is their union, not the sum of their durations.
    """
    merged = []
    siblings: Dict[tuple, List[tuple]] = {}
    for record in records:
        if record[4] is None:
            merged.append(record)
        else:
            siblings.setdefault((record[4], record[1]), []).append(record)
    for group in siblings.values():
        group.sort(key=lambda record: record[2])
        current = group[0]
        for record in group[1:]:
            if record[2] < current[3]:
                current = current[:3] + (max(current[3], record[3]),) + current[4:]
            else:
                merged.append(current)
                current = record
        merged.append(current)
    return merged


def self_times(records: List[tuple]) -> Dict[int, float]:
    """Span id -> duration minus its direct children's durations (s)."""
    selfs = {sid: t1 - t0 for sid, __, t0, t1, ___, ____, _____ in records}
    for sid, __, t0, t1, parent, ___, ____ in records:
        if parent in selfs:
            selfs[parent] -= t1 - t0
    return selfs


def layer_report(
    records: List[tuple],
    requests: int,
    deltas: Dict[str, float],
) -> Dict[str, float]:
    """The per-layer metrics of one traced window.

    ``*_ms`` metrics are self time per timed request.  *deltas* are the
    ``/metrics`` counter deltas of the same window (``run.counter_deltas``).

    Polls that found the job still running carry no answer: their time
    is client waiting, mostly spent queued for the interpreter lock
    behind the job thread.  They are reported apart, as
    ``http.status_poll_ms``, and left out of every other metric.
    """
    records = merge_concurrent(records)
    child_names: Dict[int, set] = {}
    for record in records:
        child_names.setdefault(record[4], set()).add(record[1])
    # A status poll's only child is the sending of its reply.
    status_polls = {
        sid
        for sid, name, t0, t1, parent, rid, __ in records
        if name == "http.request"
        and parent is None
        and child_names.get(sid, set()) <= {"http.respond"}
    }
    status_poll = sum(
        record[3] - record[2] for record in records if record[0] in status_polls
    )
    records = [record for record in records if record[5] not in status_polls]

    selfs = self_times(records)
    per_name: Dict[str, float] = {}
    counts: Dict[str, int] = {}
    for sid, name, t0, t1, parent, rid, extra in records:
        per_name[name] = per_name.get(name, 0.0) + selfs[sid]
        counts[name] = counts.get(name, 0) + 1

    def per_request_ms(span_name: Optional[str]) -> float:
        return per_name.get(span_name, 0.0) * 1000.0 / max(requests, 1)

    metrics = {
        name: per_request_ms(span_name)
        for name, (span_name, __) in LAYER_METRICS.items()
        if span_name is not None
    }
    metrics["http.status_poll_ms"] = status_poll * 1000.0 / max(requests, 1)
    roots = [record for record in records if record[4] is None and record[5] == record[0]]
    root_total = sum(record[3] - record[2] for record in roots)
    root_self = sum(selfs[record[0]] for record in roots)
    metrics["trace.accounted_ratio"] = (
        1.0 - root_self / root_total if root_total > 0 else 0.0
    )

    scanned = 0
    scan_seconds = 0.0
    encoded = sent = 0
    for sid, name, t0, t1, parent, rid, extra in records:
        if name in ("cb.scan", "parallel.scan") and extra and "sequences" in extra:
            scanned += extra["sequences"]
            scan_seconds += t1 - t0
        elif name == "codecs.page" and extra:
            encoded += extra["encoded"]
            sent += extra["sent"]
    metrics["cb.sequences_scanned"] = float(scanned)
    metrics["cb.us_per_sequence"] = (
        scan_seconds * 1e6 / scanned if scanned else 0.0
    )
    metrics["codecs.cells_encoded_per_cell_sent"] = (
        encoded / sent if sent else 0.0
    )
    plans = counts.get("semantic.plan", 0)
    metrics["semantic.derived_ratio"] = (
        counts.get("semantic.derive", 0) / plans if plans else 0.0
    )
    metrics["online.frames"] = float(counts.get("online.frame", 0))
    metrics["sequence.cache_hit_ratio"] = _ratio(
        deltas, "sequence_cache.hit", "sequence_cache.miss"
    )
    metrics["repository.hit_ratio"] = _ratio(
        deltas, "repository.hit", "repository.miss"
    )
    metrics["index.bytes_built"] = float(deltas.get("index.bytes", 0.0))
    return metrics


def _ratio(deltas: Dict[str, float], hit: str, miss: str) -> float:
    hits = deltas.get(hit, 0.0)
    total = hits + deltas.get(miss, 0.0)
    return hits / total if total else 0.0
