"""Shared fixtures: the paper's worked examples and small generated datasets."""

from __future__ import annotations

import socket

import pytest

from repro import (
    CuboidSpec,
    Dimension,
    EventDatabase,
    Hierarchy,
    Measure,
    PatternTemplate,
    Schema,
)

#: The paper's Figure 8/10 station -> district mapping (D10 holds Pentagon
#: and Clarendon, the roll-up counter-example pair).
DISTRICTS = {
    "Glenmont": "D20",
    "Wheaton": "D20",
    "Pentagon": "D10",
    "Clarendon": "D10",
    "Deanwood": "D30",
}

#: The four sequences of Figure 8 (station values; odd positions are "in"
#: events, even positions "out").
FIGURE8_SEQUENCES = {
    688: ["Glenmont", "Pentagon", "Pentagon", "Wheaton", "Wheaton", "Pentagon"],
    23456: ["Pentagon", "Wheaton", "Wheaton", "Pentagon"],
    1012: ["Clarendon", "Pentagon"],
    77: ["Wheaton", "Clarendon", "Deanwood", "Wheaton"],
}


def make_transit_schema() -> Schema:
    return Schema(
        [
            Dimension("time"),
            Dimension("card"),
            Dimension(
                "location",
                Hierarchy("location", ("station", "district"), {"district": DISTRICTS}),
            ),
            Dimension("action"),
        ],
        [Measure("amount")],
    )


def make_figure8_db() -> EventDatabase:
    schema = make_transit_schema()
    records = []
    for card, stations in FIGURE8_SEQUENCES.items():
        for position, station in enumerate(stations):
            records.append(
                {
                    "time": position,
                    "card": card,
                    "location": station,
                    "action": "in" if position % 2 == 0 else "out",
                    "amount": -2.0 if position % 2 else 0.0,
                }
            )
    return EventDatabase.from_records(schema, records)


@pytest.fixture
def transit_schema() -> Schema:
    return make_transit_schema()


@pytest.fixture
def figure8_db() -> EventDatabase:
    return make_figure8_db()


def location_template(positions, kind="substring") -> PatternTemplate:
    bindings = {name: ("location", "station") for name in positions}
    builder = (
        PatternTemplate.substring
        if kind == "substring"
        else PatternTemplate.subsequence
    )
    return builder(tuple(positions), bindings)


def figure8_spec(positions, kind="substring", **kwargs) -> CuboidSpec:
    return CuboidSpec(
        template=location_template(positions, kind),
        cluster_by=(("card", "card"),),
        sequence_by=(("time", True),),
        **kwargs,
    )


@pytest.fixture
def xy_spec() -> CuboidSpec:
    """(X, Y) substring spec over the Figure 8 database."""
    return figure8_spec(("X", "Y"))


@pytest.fixture
def xyyx_spec() -> CuboidSpec:
    """(X, Y, Y, X) substring spec over the Figure 8 database (Q1 shape)."""
    return figure8_spec(("X", "Y", "Y", "X"))


def record_server_sends(monkeypatch, port: int) -> list:
    """Record every socket send made from a socket bound to *port*.

    Patches ``socket.socket.send``/``sendall`` for the test; the returned
    list fills with ``(payload, tcp_nodelay)`` per call made by the
    server side of a loopback connection (its local port is *port*).
    """
    sends = []

    def patched(original):
        def send(sock, data, *args):
            try:
                local_port = sock.getsockname()[1]
            except OSError:
                local_port = None
            if local_port == port:
                nodelay = sock.getsockopt(
                    socket.IPPROTO_TCP, socket.TCP_NODELAY
                )
                sends.append((bytes(data), bool(nodelay)))
            return original(sock, data, *args)

        return send

    for name in ("send", "sendall"):
        monkeypatch.setattr(
            socket.socket, name, patched(getattr(socket.socket, name))
        )
    return sends
