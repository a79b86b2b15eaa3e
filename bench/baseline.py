"""Time the operations of the ROADMAP direction-1 baseline table, best of 3.

    python3 bench/baseline.py

Run from the root of a relaygame checkout.  Calls the library directly on the
military preset, as that table was measured; the peak memory of the
8-packet simulation is tracemalloc's.  Numbers are for comparison by eye:
the steady, bounded figures are those of bench/run.py.
"""

from __future__ import annotations

import sys
import time
import tracemalloc
from dataclasses import replace
from pathlib import Path

sys.path.insert(0, str(Path.cwd() / "src"))

from relaygame.game import solve_equilibrium  # noqa: E402
from relaygame.report import build_outage_crosscheck, build_sweep_auth_report  # noqa: E402
from relaygame.scenario import load_scenario  # noqa: E402
from relaygame.sim import SimConfig, run_simulation  # noqa: E402


def best_of(fn, repeat: int = 3) -> float:
    best = float("inf")
    for _ in range(repeat):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best * 1e3


def main() -> int:
    sc = load_scenario("military")
    sol = solve_equilibrium(sc.profiles, sc.game)
    rows = [("solve", best_of(lambda: solve_equilibrium(sc.profiles, sc.game), 1000), "")]
    for episodes in (100_000, 1_000_000, 4_000_000):
        cfg = SimConfig(episodes=episodes, seed=1)
        rows.append((f"simulate {episodes:.0e} episodes",
                     best_of(lambda: run_simulation(sc, cfg, sol)), ""))
    cfg = SimConfig(episodes=1_000_000, packets_per_episode=8, seed=1)
    ms = best_of(lambda: run_simulation(sc, cfg, sol))
    tracemalloc.start()
    run_simulation(sc, cfg, sol)
    peak = tracemalloc.get_traced_memory()[1] / 1e6
    tracemalloc.stop()
    rows.append(("simulate 1e6 x 8 packets", ms, f"{peak:.0f} MB (tracemalloc)"))
    sim = replace(sc.sim, episodes=200_000)
    grid = [i / 10 for i in range(11)]
    rows.append(("sweep-auth, 11 points x 2e5",
                 best_of(lambda: build_sweep_auth_report(sc, grid, simulate=True, sim=sim)), ""))
    rows.append(("outage-check, 4 relays x 1e6",
                 best_of(lambda: build_outage_crosscheck(sc, trials=1_000_000)), ""))
    for name, ms, memory in rows:
        print(f"| {name} | {ms:.3f} ms | {memory} |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
