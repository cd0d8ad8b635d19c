"""The benchmark's three workloads: datasets, request lists and oracle.

Every request list is a pure function of the seed and the request
count.  Each workload sends one request type only, so its latency
percentiles are taken over one population:

* ``adhoc_scan`` — distinct cold QL queries, submit → poll → first page,
  strategy ``cb``.  Each has its own ``WHERE seq`` window over 3/4 of the
  sequences, so every request misses every cache and the threaded
  parallel CB scan runs (windows exceed ``parallel_scan_threshold``).
* ``explore_session`` — analyst sessions of 8 QL steps with strategy
  ``ii``: 2 II misses, 3 semantic derivations, 3 exact repository hits.
  Two sessions run side by side, their steps submitted back to back.
* ``progressive_stream`` — distinct cold ``POST /v1/stream`` requests of
  an ALL-MATCHED template, read through to the final frame.

The oracle answer of every request is the serial counter-based scan,
``SOLAPEngine(db, use_repository=False).execute(spec, "cb")``.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from typing import Dict, List

from repro.core import operations as ops
from repro.core.engine import SOLAPEngine
from repro.datagen.synthetic import SyntheticConfig, generate_event_database
from repro.events.database import EventDatabase
from repro.io.events_io import save_dataset
from repro.ql import format_spec, parse_query
from repro.serve import codecs

#: cells a paged request asks for (``limit`` of the first page)
PAGE_LIMIT = 100

#: steps of one analyst session
SESSION_STEPS = (
    "base",
    "p_roll_up_x",
    "p_roll_up_y",
    "append_z",
    "slice_x",
    "de_tail",
    "prepend_w",
    "revisit",
)

#: answer kind each session step must get from the server's caches
EXPECTED_ANSWERS = (
    "miss",
    "derived",
    "derived",
    "miss",
    "derived",
    "exact",
    "exact",
    "exact",
)

_PIPELINE = "CLUSTER BY seq AT seq\nSEQUENCE BY ts ASCENDING"

#: adhoc_scan templates, all LEFT-MAXIMALITY: (label, kind, levels)
ADHOC_TEMPLATES = (
    ("substring_xy_symbol", "SUBSTRING", ("symbol", "symbol")),
    ("substring_xy_group", "SUBSTRING", ("group", "group")),
    ("substring_xyz_symbol", "SUBSTRING", ("symbol", "symbol", "symbol")),
    ("substring_xyz_group", "SUBSTRING", ("group", "group", "group")),
    ("subsequence_xy_supergroup", "SUBSEQUENCE", ("supergroup", "supergroup")),
)


@dataclass(frozen=True)
class Request:
    """One timed request: how it is sent and which class it belongs to."""

    kind: str  # "page" (submit, poll, first page) or "stream"
    ql: str
    strategy: str
    label: str
    session: int = -1
    chunk_size: int = 0
    stream_seed: int = 0

    def body(self) -> dict:
        if self.kind == "stream":
            return {
                "ql": self.ql,
                "chunk_size": self.chunk_size,
                "seed": self.stream_seed,
            }
        return {"ql": self.ql, "strategy": self.strategy}


def _query(lo: int, hi: int, kind: str, levels, restriction: str) -> str:
    names = "XYZ"[: len(levels)]
    bindings = ", ".join(
        f"{name} AS symbol AT {level}" for name, level in zip(names, levels)
    )
    placeholders = ", ".join(f"{name.lower()}1" for name in names)
    return (
        f"SELECT COUNT(*) FROM Event\n"
        f"WHERE seq >= {lo} AND seq < {hi}\n"
        f"{_PIPELINE}\n"
        f"CUBOID BY {kind} ({', '.join(names)})\n"
        f"  WITH {bindings}\n"
        f"{restriction} ({placeholders})"
    )


@dataclass(frozen=True)
class Workload:
    """One workload: dataset size, window width and request shape."""

    name: str
    why: str
    #: sequences in the dataset (``SyntheticConfig.D``)
    D: int
    #: sequences per ``WHERE seq`` window
    window: int
    #: timed requests per second of ``--seconds``
    rate: float
    #: requests sent back to back before polling (jobs in flight at once)
    batch: int = 1

    def request_count(self, seconds: int) -> int:
        unit = len(SESSION_STEPS) * self.batch if self.name == "explore_session" else 1
        return max(unit, int(math.ceil(seconds * self.rate / unit)) * unit)

    def write_dataset(self, seed: int, directory: str) -> None:
        config = SyntheticConfig(I=100, L=20, theta=0.9, D=self.D, seed=seed)
        save_dataset(generate_event_database(config), directory)

    def requests(self, db: EventDatabase, seed: int, count: int) -> List[Request]:
        rng = random.Random(f"{self.name}:{seed}")
        if self.name == "adhoc_scan":
            return _adhoc(self, rng, count)
        if self.name == "explore_session":
            return _explore(self, db, rng, count)
        return _stream(self, rng, count)

    def warm_up(self) -> List[Request]:
        """Untimed requests on a pipeline no timed request uses.

        The window is one sequence wider than every timed window.  Paged
        workloads send four: the flight recorder traces the first four
        queries after start-up whatever its sampling rate.
        """
        if self.name == "progressive_stream":
            return [_stream_request(self, 0, self.window + 1, "warm_up", 0)]
        strategy = "ii" if self.name == "explore_session" else "cb"
        ql = _query(0, self.window + 1, "SUBSTRING", ("symbol", "symbol"),
                    "LEFT-MAXIMALITY")
        return [Request("page", ql, strategy, "warm_up")] * 4


def _windows(workload: Workload, rng: random.Random, count: int) -> List[int]:
    """*count* distinct window starts."""
    return rng.sample(range(workload.D - workload.window + 1), count)


def _adhoc(workload: Workload, rng: random.Random, count: int) -> List[Request]:
    # Templates cycle in seed-shuffled blocks, so every run has the same
    # count of each template and the same latency population.
    labels = []
    while len(labels) < count:
        block = list(ADHOC_TEMPLATES)
        rng.shuffle(block)
        labels.extend(block)
    requests = []
    for lo, (label, kind, levels) in zip(_windows(workload, rng, count), labels):
        ql = _query(lo, lo + workload.window, kind, levels, "LEFT-MAXIMALITY")
        requests.append(Request("page", ql, "cb", label))
    return requests


def _first_symbol(db: EventDatabase, seq: int) -> str:
    seqs = db.column("seq")
    return db.column("symbol")[seqs.index(seq)]


def _explore(
    workload: Workload, db: EventDatabase, rng: random.Random, count: int
) -> List[Request]:
    schema = db.schema
    hierarchy = schema.hierarchy("symbol")
    n_sessions = count // len(SESSION_STEPS)
    sessions = []
    for lo in _windows(workload, rng, n_sessions):
        ql = _query(lo, lo + workload.window, "SUBSTRING", ("symbol", "symbol"),
                    "ALL-MATCHED")
        base = parse_query(ql, schema)
        x = ops.p_roll_up(base, "X", schema)
        xy = ops.p_roll_up(x, "Y", schema)
        xyz = ops.append(xy, "Z", "symbol", "group")
        group = hierarchy.map_value(_first_symbol(db, lo), "group")
        sliced = ops.slice_pattern(xyz, "X", group)
        detail = ops.de_tail(xyz)
        # (W, X, Y) at the group level is (X, Y, Z) renamed: an exact hit.
        prepended = ops.prepend(detail, "W", "symbol", "group")
        sessions.append([base, x, xy, xyz, sliced, detail, prepended, base])
    requests = []
    for first in range(0, n_sessions, workload.batch):
        pair = range(first, min(first + workload.batch, n_sessions))
        for step, label in enumerate(SESSION_STEPS):
            for session in pair:
                ql = format_spec(sessions[session][step])
                requests.append(Request("page", ql, "ii", label, session))
    return requests


def _stream_request(
    workload: Workload, lo: int, hi: int, label: str, stream_seed: int
) -> Request:
    ql = _query(lo, hi, "SUBSTRING", ("symbol", "symbol"), "ALL-MATCHED")
    chunk = int(math.ceil((hi - lo) / 10))
    return Request("stream", ql, "cb", label, chunk_size=chunk,
                   stream_seed=stream_seed)


def _stream(workload: Workload, rng: random.Random, count: int) -> List[Request]:
    return [
        _stream_request(workload, lo, lo + workload.window, "all_matched_xy",
                        index)
        for index, lo in enumerate(_windows(workload, rng, count))
    ]


def normalise(doc: object) -> object:
    """A wire document as the client decodes it (JSON round trip)."""
    return json.loads(codecs.dumps(doc))


def oracle(db: EventDatabase, requests: List[Request]) -> List[Dict]:
    """Expected answer of every request: cell total plus the cells sent.

    Paged requests get the first page of the canonical (repr-sorted)
    cell order; streams get every cell, which the final frame carries.
    """
    engine = SOLAPEngine(db, use_repository=False)
    answers: Dict[str, Dict] = {}
    expected = []
    for request in requests:
        key = request.kind + request.ql
        if key not in answers:
            cuboid, __ = engine.execute(parse_query(request.ql, db.schema), "cb")
            cells = codecs.encode_cells(cuboid)
            if request.kind == "page":
                cells = cells[:PAGE_LIMIT]
            answers[key] = {"total": len(cuboid), "cells": normalise(cells)}
        expected.append(answers[key])
    return expected


WORKLOADS = {
    workload.name: workload
    for workload in (
        Workload(
            "adhoc_scan",
            "one-shot CB scans: distinct cold queries miss every cache; "
            "sequence formation, matching and folding do the work",
            D=800, window=600, rate=3.0,
        ),
        Workload(
            "explore_session",
            "iterative II navigation: repository, semantic cache, index "
            "build and join and the engine lock do the work",
            D=800, window=600, rate=6.0, batch=2,
        ),
        Workload(
            "progressive_stream",
            "streamed ALL-MATCHED answers in ~10 frames: frame encoding "
            "and online aggregation do the work",
            D=360, window=270, rate=3.0,
        ),
    )
}
