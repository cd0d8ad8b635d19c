"""Boot one S-OLAP HTTP server for the benchmark, as ``solap serve`` does.

Usage: ``python3 perfbench/server.py DATASET_DIR [--spans FILE]`` with
the repository's ``src`` on ``PYTHONPATH``.

The server is built like ``cli._cmd_serve``: load the dataset directory,
start a :class:`QueryService` with the default :class:`ServiceConfig`
and a :class:`SolapServer` on an ephemeral port.  The one difference is
``flight_recorder_sample_per_second=0``, so the flight recorder does not
promote a speed-dependent share of queries to traced execution.

It prints ``url <URL>`` once serving, then serves until its standard
input closes.  Each ``probe`` line it reads runs the host-speed probe
loop on its main thread and prints ``probe <seconds>``: the benchmark
asks between requests, while the server is idle, so the probe times the
server process's own interpreter on the host as it is at that moment.  On the way out it prints ``peak_rss_kb <N>`` and, with
``--spans``, writes the layer spans it recorded (see ``layers.py``).
"""

from __future__ import annotations

import argparse
import resource
import sys


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("dataset", help="dataset directory (save_dataset)")
    parser.add_argument(
        "--spans", default=None, help="record layer spans; write them here"
    )
    args = parser.parse_args()

    from drive import host_probe

    log = None
    if args.spans:
        import layers

        log = layers.SpanLog()
        layers.install(log)

    from repro.io.events_io import load_dataset
    from repro.serve import SolapServer
    from repro.service import QueryService, ServiceConfig

    db = load_dataset(args.dataset)
    config = ServiceConfig(flight_recorder_sample_per_second=0)
    with QueryService(db, config) as service:
        server = SolapServer(service, port=0).start()
        try:
            print(f"url {server.url}", flush=True)
            for line in sys.stdin:
                if line.strip() == "probe":
                    print(f"probe {host_probe()!r}", flush=True)
        finally:
            server.stop()
    if log is not None:
        log.dump(args.spans)
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(f"peak_rss_kb {peak_kb}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
