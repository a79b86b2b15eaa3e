"""Parent/change pairs of the benchmark, written as one BENCH_<n>.json.

    python3 tools/bench_pairs.py PARENT_REV CHANGE_REV --number 13 \\
        [--claim outage-check:items_per_s] [--description TEXT]

Each revision is exported with ``git archive`` into its own directory under
``.bench_work/pairs/`` and benchmarked from there, so only committed files are
measured.  For every workload of BENCHMARK.json and seeds 1-10 it runs

    python3 bench/run.py --workload W --seed S --seconds 28 --trace 0

once in each checkout, one run at a time; the parent runs first on odd seeds
and the change on even ones.  The file is rewritten after every run, so an
interrupted session keeps what it measured.  Its shape: ``runs`` (every run
with its commit, side, seed and whether it ran first) and ``summary``, per
workload and end-to-end metric the number of pairs, the pairs the change
won (ties count for neither), both sides' quartiles, the median change, the
parent's interquartile range and the gap of the medians; with ``--claim``
also whether the change won at least 9 in 10 pairs by a median gap larger
than the parent's interquartile range.  Standard library only.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tarfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SECONDS = 28
SEEDS = range(1, 11)


def git(*args: str) -> str:
    return subprocess.run(["git", "-C", str(ROOT), *args], check=True,
                          capture_output=True, text=True).stdout.strip()


def export(rev: str, dest: Path) -> None:
    """Extract the committed tree of ``rev`` into ``dest`` (fresh each call)."""
    shutil.rmtree(dest, ignore_errors=True)
    dest.mkdir(parents=True)
    archive = subprocess.Popen(["git", "-C", str(ROOT), "archive", rev], stdout=subprocess.PIPE)
    with tarfile.open(fileobj=archive.stdout, mode="r|") as tar:
        tar.extractall(dest, filter="data")
    if archive.wait() != 0:
        raise RuntimeError(f"git archive {rev} failed")


def run_once(checkout: Path, workload: str, seed: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(SECONDS), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"error": f"exit {proc.returncode}: {proc.stderr.strip()[-400:]}"}
    return json.loads(lines[-1])


def quartiles(values: list[float]) -> list[float]:
    return statistics.quantiles(values, n=4, method="inclusive")


def summarize(runs: list[dict], workloads: list[str], metrics: list[dict]) -> dict:
    summary = {}
    for workload in workloads:
        by_seed: dict[int, dict[str, dict]] = {}
        for r in runs:
            if r["workload"] == workload:
                by_seed.setdefault(r["seed"], {})[r["side"]] = r["result"]
        pairs = [(s["parent"], s["change"]) for s in by_seed.values()
                 if "metrics" in s.get("parent", {}) and "metrics" in s.get("change", {})]
        if len(pairs) < 2:      # quartiles need two pairs
            continue
        out = {}
        for m in metrics:
            name, lower = m["name"], m["better"] == "lower"
            par = [p["metrics"][name]["value"] for p, _ in pairs]
            chg = [c["metrics"][name]["value"] for _, c in pairs]
            pq, cq = quartiles(par), quartiles(chg)
            out[name] = {
                "better": m["better"],
                "pairs": len(pairs),
                "change_wins": sum((c < p) if lower else (c > p) for p, c in zip(par, chg)),
                "parent_q1_median_q3": pq,
                "change_q1_median_q3": cq,
                "median_change_rel": (cq[1] - pq[1]) / pq[1],
                "parent_iqr": pq[2] - pq[0],
                "median_gap": abs(cq[1] - pq[1]),
            }
        out["failed_of_attempted"] = {
            side: [sum(pair[i]["failed"] for pair in pairs),
                   sum(pair[i]["attempted"] for pair in pairs)]
            for i, side in enumerate(("parent", "change"))}
        out["all_correct"] = all(p["correct"] and c["correct"] for p, c in pairs)
        out["runs_failed"] = sum("metrics" not in r["result"] for r in runs
                                 if r["workload"] == workload)
        summary[workload] = out
    return summary


def verdict(summary: dict, claim: str, better: dict) -> dict:
    workload, metric = claim.split(":")
    s = summary.get(workload, {}).get(metric)
    if s is None:
        return {"workload": workload, "metric": metric, "met": False}
    p, c = s["parent_q1_median_q3"][1], s["change_q1_median_q3"][1]
    improved = c < p if better[metric] == "lower" else c > p
    return {
        "workload": workload, "metric": metric,
        "median_ratio": c / p,
        "change_wins": s["change_wins"], "pairs": s["pairs"],
        "median_gap": s["median_gap"], "parent_iqr": s["parent_iqr"],
        "met": (improved and 10 * s["change_wins"] >= 9 * s["pairs"]
                and s["median_gap"] > s["parent_iqr"]),
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", help="parent revision")
    ap.add_argument("change", help="change revision")
    ap.add_argument("--number", type=int, required=True, help="writes BENCH_<number>.json")
    ap.add_argument("--claim", help="WORKLOAD:METRIC the change claims to improve")
    ap.add_argument("--description", default="", help="what the change is")
    args = ap.parse_args()

    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = benchmark["end_to_end"]
    workloads = [w["name"] for w in benchmark["workloads"]]
    commits = {"parent": git("rev-parse", args.parent), "change": git("rev-parse", args.change)}
    work = ROOT / ".bench_work" / "pairs"
    checkouts = {side: work / side for side in commits}
    for side, commit in commits.items():
        export(commit, checkouts[side])
    numpy = subprocess.run([sys.executable, "-c", "import numpy; print(numpy.__version__)"],
                           capture_output=True, text=True).stdout.strip() or "unknown"
    out_path = ROOT / f"BENCH_{args.number}.json"
    doc = {
        "description": args.description,
        "command": f"python3 bench/run.py --workload W --seed S --seconds {SECONDS} --trace 0",
        "host": (f"{platform.system()} host, {os.cpu_count()} CPUs, CPython "
                 f"{platform.python_version()}, numpy {numpy}; runs one at a time, "
                 "the side that runs first alternating by seed"),
        "parent_commit": commits["parent"],
        "change_commit": commits["change"],
        "claim": None,
        "summary": {},
        "runs": [],
    }
    for workload in workloads:
        for seed in SEEDS:
            order = ("parent", "change") if seed % 2 else ("change", "parent")
            for i, side in enumerate(order):
                result = run_once(checkouts[side], workload, seed)
                doc["runs"].append({"commit": commits[side], "workload": workload, "seed": seed,
                                    "side": side, "ran_first": i == 0, "result": result})
                doc["summary"] = summarize(doc["runs"], workloads, metrics)
                if args.claim:
                    doc["claim"] = verdict(doc["summary"], args.claim,
                                           {m["name"]: m["better"] for m in metrics})
                out_path.write_text(json.dumps(doc, indent=1) + "\n")
                print(f"{workload} seed {seed} {side}: "
                      + (json.dumps(result["metrics"]) if "metrics" in result
                         else result["error"]), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
