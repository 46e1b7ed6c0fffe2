"""Run-to-run spread of the end-to-end metrics over several seeds.

Usage (from the repository root):

    python3 bench/spread.py --workload dense-lp --seeds 1 2 3 4 5 --seconds 40

Runs bench/run.py once per seed, one after another, and prints each metric's
median and its spread: the distance between the first and third quartiles
(statistics.quantiles, n=4) as a share of the median.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--seconds", type=int, default=40)
    args = parser.parse_args()

    values: dict[str, list[float]] = {}
    for seed in args.seeds:
        cmd = [sys.executable, str(RUN), "--workload", args.workload, "--seed", str(seed),
               "--seconds", str(args.seconds), "--trace", "0"]
        out = subprocess.run(cmd, capture_output=True, text=True, check=True).stdout
        result = json.loads(out.strip().splitlines()[-1])
        line = {name: m["value"] for name, m in result["metrics"].items()}
        print(f"seed {seed}: correct={result['correct']} failed={result['failed']}/"
              f"{result['attempted']} " + " ".join(f"{k}={v:.4g}" for k, v in line.items()),
              flush=True)
        for name, value in line.items():
            values.setdefault(name, []).append(value)
    for name, vals in values.items():
        median = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / median if median else float("nan")
        print(f"{name:16s} median {median:12.6g}  spread {spread:.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
