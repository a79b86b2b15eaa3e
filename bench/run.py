"""relaygame benchmark: one workload, one seed, one JSON result line.

    python3 bench/run.py --workload simulate-policy --seed 1 --seconds 28 --trace 0

Run from the root of a relaygame checkout; the program is imported from its
``src/`` directory.  Each workload runs in a fresh single-threaded child
process (bench/child.py).  The last line of standard output is

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

holding the end-to-end metrics of BENCHMARK.json with --trace 0 and its
per-layer metrics with --trace 1.  The lines before it repeat each figure as
``metric <name> <value> <unit>``, followed by figures kept out of
BENCHMARK.json: the rate under its workload's own name (episodes_per_s,
trials_per_s or scenarios_per_s) and, where there are enough operations for
a tail, op_p99_ms or op_p90_ms.  This process imports
neither numpy nor relaygame, so it adds nothing to the child's figures.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]

#: Fresh interpreters timed for setup_s; the workload's own child adds one more.
SETUP_PROBES = 10
#: A child that has not finished by then is killed and the run fails.
CHILD_TIMEOUT_S = 170.0


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    # Every child compiles the sources afresh and writes no bytecode, so
    # setup_s does not depend on what earlier runs left in the checkout.
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


class Child:
    """One child process: time to its READY line, its output, its rusage."""

    def __init__(self, root: Path, argv: list[str], deadline: float):
        self.start = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "child.py"), "--root", str(root), *argv],
            stdout=subprocess.PIPE, text=True, env=child_env(root), cwd=root)
        self.timer = threading.Timer(max(0.0, deadline - time.monotonic()), self.proc.kill)
        self.timer.start()

    def wait_ready(self) -> float | None:
        line = self.proc.stdout.readline()
        return time.perf_counter() - self.start if line.strip() == "READY" else None

    def finish(self) -> tuple[int, str, float]:
        """Exit code, remaining output, peak RSS in MB (from wait4)."""
        out = self.proc.stdout.read()
        self.proc.stdout.close()
        _, status, usage = os.wait4(self.proc.pid, 0)
        self.timer.cancel()
        self.proc.returncode = os.waitstatus_to_exitcode(status)
        return self.proc.returncode, out, usage.ru_maxrss / 1024.0


def run(root: Path, workload: str, seed: int, seconds: int, trace: int) -> dict:
    deadline = time.monotonic() + CHILD_TIMEOUT_S
    common = ["--workload", workload, "--seed", str(seed)]
    setup = []

    def probe_setup(count: int) -> None:
        for _ in range(count):
            probe = Child(root, common + ["--setup-only"], deadline)
            setup.append(probe.wait_ready())
            if probe.finish()[0] != 0:
                raise RuntimeError("setup probe failed")

    # Half the probes before the workload and half after, so that they see
    # the host at two moments a run apart rather than one.
    if not trace:
        probe_setup(SETUP_PROBES // 2)
    child = Child(root, common + ["--seconds", str(seconds), "--trace", str(trace)], deadline)
    setup.append(child.wait_ready())
    code, out, peak_rss_mb = child.finish()
    if not trace:
        probe_setup(SETUP_PROBES - SETUP_PROBES // 2)
    if code != 0 or None in setup or not out.strip():
        raise RuntimeError(f"workload child exited with code {code}")
    result = json.loads(out.strip().splitlines()[-1])
    figures = result["figures"]
    unit = {m["name"]: m["unit"] for m in BENCHMARK["per_layer" if trace else "end_to_end"]}
    if not trace:
        figures.update(setup_s=statistics.median(setup), peak_rss_mb=peak_rss_mb)
    metrics = {name: {"value": figures[name], "unit": unit[name]} for name in unit}

    print(f"workload {workload} seed {seed}: attempted {result['attempted']}, "
          f"failed {result['failed']}, correct {result['correct']}")
    for name, m in metrics.items():
        print(f"metric {name} {m['value']!r} {m['unit']}")
    if not trace:
        item = result["item"]
        print(f"metric {item}_per_s {figures['items_per_s']!r} {item}/s")
        for tail in ("op_p99_ms", "op_p90_ms"):
            if tail in figures:
                print(f"metric {tail} {figures[tail]!r} ms")
        print(f"operations timed: {figures['ops_timed']} "
              f"({figures['executions']} executions); setup samples: "
              + ", ".join(f"{s:.4f}" for s in setup))
    return {"correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"], "metrics": metrics}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    root = Path.cwd()
    if not (root / "src" / "relaygame" / "__init__.py").is_file():
        print("error: run from the root of a relaygame checkout (no src/relaygame here)",
              file=sys.stderr)
        return 2
    try:
        result = run(root, args.workload, args.seed, args.seconds, args.trace)
    except (RuntimeError, KeyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
