"""Steadiness check: run each workload on several seeds and summarise.

    python3 bench/steady.py --runs 10                 # every workload
    python3 bench/steady.py --runs 5 --workload solve-batch
    python3 bench/steady.py --runs 1                  # one pass, every metric

Run from the root of a relaygame checkout.  For each workload and metric it
prints the median and quartiles over the runs (statistics.quantiles, n=4)
and the spread (q3 - q1) / median beside the metric's bound in
BENCHMARK.json; a spread at or above a third of the bound is flagged.  It also
prints the share of failed operations of every run.
"""

from __future__ import annotations

import argparse
import json
import statistics
from fractions import Fraction
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
from run import WORKLOADS  # noqa: E402


def one_run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    """(result line, every ``metric`` line as name -> (value, unit))."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, timeout=200)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    metrics = {}
    for line in lines:
        if line.startswith("metric "):
            _, name, value, unit = line.split()
            metrics[name] = (float(value), unit)
    return json.loads(lines[-1]), metrics


def main() -> int:
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--workload", action="append", choices=WORKLOADS)
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"] + bench["per_layer"]}

    for workload in args.workload or WORKLOADS:
        samples: dict[str, list[float]] = {}
        units, shares, fractions = {}, [], set()
        for seed in range(1, args.runs + 1):
            result, metrics = one_run(workload, seed, args.seconds, args.trace)
            shares.append(f"{result['failed']}/{result['attempted']}")
            fractions.add(Fraction(result["failed"], result["attempted"]))
            for name, (value, unit) in metrics.items():
                samples.setdefault(name, []).append(value)
                units[name] = unit
        print(f"\n{workload}: {args.runs} runs, failed/attempted {', '.join(shares)}; "
              f"failed share {'the same in every run' if len(fractions) == 1 else 'VARIES'}")
        print(f"  {'metric':28} {'unit':12} {'median':>14} {'q1':>14} {'q3':>14} "
              f"{'spread':>8} {'bound':>6}")
        for name, values in samples.items():
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med,) * 3
            spread = (q3 - q1) / med if med else 0.0
            bound = bounds.get(name)
            flag = "" if bound is None or spread < bound / 3 else "  <-- not steady"
            print(f"  {name:28} {units[name]:12} {med:14.6g} {q1:14.6g} {q3:14.6g} "
                  f"{spread:8.4f} {bound if bound is not None else '':>6}{flag}")
            print("      runs: " + " ".join(f"{v:.5g}" for v in values))
    return 0


if __name__ == "__main__":
    sys.exit(main())
