"""One workload in one fresh process; started by run.py, not by hand.

Prints READY once relaygame is imported and the workload's scenarios are
loaded, then (unless --setup-only) runs the workload and prints one JSON line
with its counts and figures.  Untraced runs time whole rounds of operations,
each run PASSES times, for about --seconds.  Traced runs take a fixed number
of rounds, each operation once untraced and once traced on the same input, so
that counts repeat exactly and the difference in time is the tracing overhead.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import sys
import time
from pathlib import Path

MAX_LOGGED_FAILURES = 5
#: Times every timed input runs; its fastest run is its time.  On a shared
#: host the slow phases last from under a second to minutes, and repeats
#: spread over the whole run rarely all land in one.
PASSES = 6


class Runner:
    def __init__(self, workload):
        self.workload = workload
        self.attempted = 0
        self.failed = 0

    def execute(self, op, tracer=None, expect: tuple | None = None):
        """Run, time and check one operation; returns (seconds, verdict).

        The verdict is (digest of the output bytes, whether it passed its
        checks).  With ``expect``, the verdict of an earlier run of the same
        input, the output must repeat byte for byte and then shares that
        verdict without being checked again.
        """
        wl = self.workload
        self.attempted += 1
        if tracer is not None:
            tracer.install()
            span = tracer.begin("op")
        start = time.perf_counter()
        try:
            ran = wl.run(op)
        except Exception as exc:        # a raising operation counts as failed
            ran = exc
        elapsed = time.perf_counter() - start
        if tracer is not None:
            tracer.end(span)
            tracer.uninstall()
        digest = None
        try:
            if isinstance(ran, Exception):
                raise ran
            raw, value = wl.output(op, ran)
            digest = hashlib.sha256(raw).digest()
            if expect is None:
                errors = wl.check(op, value)
            elif digest != expect[0]:
                errors = ["output differs from an earlier run of the same input"]
            else:
                errors = [] if expect[1] else ["as its earlier run"]
        except Exception as exc:
            errors = [f"{type(exc).__name__}: {exc}"]
        if errors:
            self.failed += 1
            if self.failed <= MAX_LOGGED_FAILURES:
                print(f"{wl.name}: operation failed: {'; '.join(errors)}", file=sys.stderr)
        return elapsed, (digest, not errors)


def timed(runner: Runner, seconds: float) -> dict:
    """Whole rounds, each run once and checked, then PASSES - 1 repeats.

    Every repeat runs all the rounds again, made afresh from their index, in
    the same order, so an input's runs are spread over the whole run.  The
    first pass stops when its time plus that of the repeats (generation and
    execution, no checks) is due to fill ``seconds``.  An operation's time is
    its fastest run.
    """
    wl = runner.workload
    rounds, start, repeat_cost = [], time.perf_counter(), 0.0
    index = 1
    while not rounds or (time.perf_counter() - start
                         + (PASSES - 1) * repeat_cost < seconds):
        made = time.perf_counter()
        ops = wl.round(index)
        generated = time.perf_counter() - made
        runs = [runner.execute(op) for op in ops]
        repeat_cost += generated + sum(elapsed for elapsed, _ in runs)
        rounds.append((index, [verdict for _, verdict in runs],
                       [elapsed for elapsed, _ in runs], sum(wl.items(op) for op in ops)))
        index += 1
    # Each repeat runs on the next CPU in turn: on a shared host one vCPU can
    # stay slow for a whole run while the other is not.
    cpus = sorted(os.sched_getaffinity(0))
    for repeat in range(1, PASSES):
        os.sched_setaffinity(0, {cpus[repeat % len(cpus)]})
        for index, verdicts, best, _ in rounds:
            for j, op in enumerate(wl.round(index)):
                elapsed, _ = runner.execute(op, expect=verdicts[j])
                best[j] = min(best[j], elapsed)
    os.sched_setaffinity(0, cpus)
    best = [elapsed for _, _, times, _ in rounds for elapsed in times]
    figures = {
        "items_per_s": sum(items for *_, items in rounds) / sum(best),
        "op_p50_ms": statistics.median(best) * 1e3,
        "ops_timed": len(best),
        "executions": PASSES * len(best),
    }
    # A percentile is a tail only with ten or more operations beyond it.
    for pct in (99, 90):
        if len(best) >= 10 * 100 // (100 - pct):
            figures[f"op_p{pct}_ms"] = statistics.quantiles(best, n=100)[pct - 1] * 1e3
            break
    return figures


def traced(runner: Runner, root: Path) -> dict:
    from spans import Tracer, layer_metrics

    wl = runner.workload
    tracer = Tracer()
    plain = with_spans = 0.0
    for index in range(1, wl.trace_rounds + 1):
        for op in wl.round(index):
            tracer.op += 1
            # Alternate which run goes first, so warm caches favour neither.
            if tracer.op % 2:
                t_plain, verdict = runner.execute(op)
                t_spans, _ = runner.execute(op, tracer, expect=verdict)
            else:
                t_spans, verdict = runner.execute(op, tracer)
                t_plain, _ = runner.execute(op, expect=verdict)
            plain += t_plain
            with_spans += t_spans
    tracer.write(root / ".bench_work" / f"spans-{wl.name}.jsonl")
    figures = {name: value for name, (value, _) in layer_metrics(tracer).items()}
    figures["trace.overhead_ms"] = (with_spans - plain) * 1e3
    return figures


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--root", required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()
    root = Path(args.root).resolve()

    import relaygame
    source = (root / "src" / "relaygame").resolve()
    if Path(relaygame.__file__).resolve().parent != source:
        print(f"relaygame imported from {relaygame.__file__}, not from {source}",
              file=sys.stderr)
        return 2
    import oracles
    from workloads import WORKLOADS

    workdir = root / ".bench_work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        workload = WORKLOADS[args.workload](args.seed, workdir)
        workload.setup()
        print("READY", flush=True)
        if args.setup_only:
            return 0

        runner = Runner(workload)
        warm_up = workload.round(0)          # untimed: lets lazy set-up finish
        reference = [runner.execute(op)[1] for op in warm_up]
        if args.trace:
            figures = traced(runner, root)
        else:
            figures = timed(runner, args.seconds)
        for op, verdict in zip(warm_up, reference):   # equal input, equal bytes
            runner.execute(op, expect=verdict)
        print(json.dumps({
            "correct": oracles.self_test(),
            "attempted": runner.attempted,
            "failed": runner.failed,
            "item": workload.item,
            "figures": figures,
        }), flush=True)
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
