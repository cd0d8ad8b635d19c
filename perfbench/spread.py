"""Run the benchmark over several seeds and print each metric's spread.

Usage::

    python3 perfbench/spread.py --workload adhoc_scan --seeds 1-10 [--seconds N] [--trace 0]

For every metric it prints the median of the runs and the distance
between their first and third quartiles as a share of that median, the
figure ``BENCHMARK.json``'s bounds are set against.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_seeds(text: str):
    first, __, last = text.partition("-")
    return range(int(first), int(last or first) + 1)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int, default=None)
    parser.add_argument("--trace", type=int, default=0)
    args = parser.parse_args()
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or config["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in config["end_to_end"]}

    values = {}
    for seed in parse_seeds(args.seeds):
        command = [sys.executable, str(ROOT / "perfbench" / "run.py"),
                   "--workload", args.workload, "--seed", str(seed),
                   "--seconds", str(seconds), "--trace", str(args.trace)]
        out = subprocess.run(command, cwd=str(ROOT), capture_output=True,
                             text=True, check=True).stdout
        lines = out.strip().splitlines()
        result = json.loads(lines[-1])
        probe = next(
            float(line.split()[1]) for line in lines
            if line.startswith("host.probe_ms ")
        )
        values.setdefault("host.probe_ms", []).append(probe)
        print(f"seed {seed}: correct={result['correct']} probe={probe:.3f} " + " ".join(
            f"{name}={metric['value']:.4g}"
            for name, metric in result["metrics"].items()
        ), flush=True)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
    for name, series in values.items():
        median = statistics.median(series)
        q1, __, q3 = statistics.quantiles(series, n=4)
        spread = (q3 - q1) / median if median else 0.0
        bound = bounds.get(name)
        note = f"  bound {bound}" if bound is not None else ""
        print(f"{name:40s} median {median:12.4f}  spread {spread:.4f}{note}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
