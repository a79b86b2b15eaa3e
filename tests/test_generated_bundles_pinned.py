"""Two SHA-256 digests over the bundles of 100 generated scenarios.

The scenarios come from the benchmark's ``generate_scenario`` (2-32 relays,
both timing models, with and without a sim section) at a fixed seed.  The
first digest covers ``solve --diagnostics`` and ``sweep-n`` in all three ARQ
modes.  The second covers the commands that read a sim section: analytic and
simulated ``sweep-auth``, ``simulate`` with and without ``--auth-policy``,
and ``outage-check``, at small sizes, with a sim section added where the
generator left none.  A refactor of the game, channel, throughput, sim or
report code that changes any byte of any of these bundles turns a test red.
Like ``test_bundles_pinned.py``, a change that alters a formula or the draws
on purpose updates the digest and says which bundles moved.
"""

import hashlib
import importlib.util
import sys
from pathlib import Path

import numpy as np

from relaygame import report, scenario
from relaygame.throughput import ArqMode

BENCH = Path(__file__).resolve().parents[1] / "bench"

SEED = 20_161_011
SCENARIOS = 100

PINNED = "538004d33528cd65a5c6c0a5c9a05518b51401409104109de33cfc3425236c94"
PINNED_SIMULATED = "4cd30763b57e76d30c1a14567624f28cad7587a7b5e68433365c756bfcc60304"

EPISODES = 2_000
TRIALS = 1_000
GRID = [i / 10 for i in range(11)]


def _load_workloads(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))       # workloads does `import oracles`
    spec = importlib.util.spec_from_file_location("bench_workloads", BENCH / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)   # its dataclasses look it up
    spec.loader.exec_module(workloads)
    return workloads


def test_generated_scenario_bundles_are_pinned(monkeypatch):
    workloads = _load_workloads(monkeypatch)
    rng = np.random.default_rng(SEED)
    digest = hashlib.sha256()
    for j in range(SCENARIOS):
        data, _ = workloads.generate_scenario(rng, 2 + j % 31)
        sc = scenario.scenario_from_dict(data)
        bundles = [report.build_solve_report(sc, diagnostics=True)]
        bundles += [report.build_sweep_n_report(sc, range(1, 9 + (37 * j) % 57), mode)
                    for mode in ArqMode]
        for bundle in bundles:
            digest.update(report.bundle_to_json(bundle).encode())
            digest.update(b"\n")
    assert digest.hexdigest() == PINNED


def test_generated_scenario_simulation_bundles_are_pinned(monkeypatch):
    workloads = _load_workloads(monkeypatch)
    rng = np.random.default_rng(SEED)
    digest = hashlib.sha256()
    for j in range(SCENARIOS):
        data, _ = workloads.generate_scenario(rng, 2 + j % 31)
        data["sim"] = {**data.get("sim", {"seed": j}), "episodes": EPISODES}
        sc = scenario.scenario_from_dict(data)
        bundles = [report.build_sweep_auth_report(sc, GRID, simulate=simulate)
                   for simulate in (False, True)]
        bundles += [report.build_simulation_report(sc, auth_policy=policy)
                    for policy in (False, True)]
        bundles.append(report.build_outage_crosscheck(sc, trials=TRIALS, seed=j))
        for bundle in bundles:
            digest.update(report.bundle_to_json(bundle).encode())
            digest.update(b"\n")
    assert digest.hexdigest() == PINNED_SIMULATED
