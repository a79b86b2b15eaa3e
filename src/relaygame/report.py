"""Report assembly: solve/sweep/simulate bundles with provenance, JSON and CSV.

Every bundle carries a provenance block (scenario hash, seed, tool version,
timing-model choice, RNG identifier, outage Monte Carlo block size) from which
all emitted numbers are reproducible.  Bundles contain no wall-clock data, so equal inputs serialize
byte-identically.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import fields, replace
from typing import Sequence

from . import __version__
from .channel import OUTAGE_CHUNK, binomial_stderr, outage_monte_carlo, outage_sr_link
from .errors import ValidationError
from .game import combined_asset, diagnostic_attack_strategy, verify_equilibrium
from .scenario import Scenario, canonical_json, scenario_hash
from .sim import (
    RNG_ALGORITHM,
    SimConfig,
    check_auth_grid,
    child_seed,
    estimate_compromise_curve,
    policy_auth_probs,
    run_simulation,
)
from .throughput import (
    ArqMode,
    best_message_count,
    compromising_probability,
    sweep_messages,
    throughput_gbn,
    throughput_sr,
)

#: The outage cross-check's flag level: the normal tail this many standard errors out.
CROSSCHECK_Z_BOUND = 4.0

FADING_CONVENTION = (
    "squared channel gains exponential with mean dist^-pathloss_exp "
    "(unit mean source-destination), common SNR multiplier snr_avg"
)


def provenance(scenario: Scenario, seed: int | None = None) -> dict:
    return {
        "scenario_name": scenario.name,
        "scenario_hash": scenario_hash(scenario),
        "tool_version": __version__,
        "seed": seed,
        "timing_model": scenario.throughput.timing_model,
        "p_c_binding": "selected-relay",
        "rng": RNG_ALGORITHM,
        "outage_chunk": OUTAGE_CHUNK,
        "fading_convention": FADING_CONVENTION,
    }


def _bundle(report: str, scenario: Scenario, sections: dict, seed: int | None = None) -> dict:
    """The bundle named ``report``: its provenance, ``sections``, then the scenario's annotations."""
    return {"report": report, "provenance": provenance(scenario, seed), **sections,
            "annotations": list(scenario.annotations)}


def _fields(obj) -> dict:
    """The fields of the dataclass instance ``obj`` by name, their values not copied."""
    return {f.name: getattr(obj, f.name) for f in fields(obj)}


def equilibrium_table(scenario: Scenario) -> list[dict]:
    solution = scenario.solution
    part = solution.partition
    membership = {rid: name for name, ids in (
        ("sensible", part.sensible), ("quasi-sensible", part.quasi_sensible),
        ("non-sensible", part.non_sensible)) for rid in ids}
    rows = []
    for k, pr in enumerate(scenario.profiles):
        u_att, u_src = solution.per_relay[k]
        rows.append({
            "relay_id": pr.id,
            "combined_asset": combined_asset(pr, scenario.game),
            "set": membership[pr.id],
            "attack_prob": solution.attacker.probs[k],
            "select_prob": solution.source.probs[k],
            "attacker_utility": u_att,
            "source_utility": u_src,
        })
    return rows


def channel_table(scenario: Scenario) -> list[dict]:
    return [{
        "relay_id": rid,
        "outage_closed_form": outage,
        "outage_sr_link": outage_sr_link(ln.target_rate, ln.snr_sr),
        "ber_end_to_end": ber,
        "packet_success": p_c,
    } for rid, ln, outage, ber, p_c in zip(
        scenario.ids, scenario.links, scenario.outage, scenario.ber, scenario.p_c)]


def build_solve_report(scenario: Scenario, diagnostics: bool = False) -> dict:
    """Equilibrium bundle: partition, strategies, utilities, verification."""
    solution = scenario.solution
    sections = {
        "partition": _fields(solution.partition),
        "lambda_attacker": solution.lambda_attacker,
        "lambda_source": solution.lambda_source,
        "equilibrium": equilibrium_table(scenario),
        "verification": verify_equilibrium(
            solution.attacker, solution.source, scenario.profiles, scenario.game),
        "channel": channel_table(scenario),
    }
    if diagnostics:
        sections["diagnostic_attack_strategy"] = list(diagnostic_attack_strategy(
            scenario.profiles, scenario.game, solution.partition))
    return _bundle("solve", scenario, sections)


def build_sweep_n_report(scenario: Scenario, n_values: range, arq: ArqMode) -> dict:
    """Rows and optimum from one walk of range(1, n_max + 1); rows <= 0 are emitted but flagged."""
    if not (isinstance(n_values, range) and n_values.start == 1 and n_values.step == 1):
        raise ValidationError("message counts must be range(1, n_max + 1)")
    p_c = scenario.p_c[scenario.conditioning]
    cfg = scenario.throughput
    sweep = sweep_messages(cfg, n_values.stop - 1, arq, p_c)
    rows = [{"n": n, "throughput": value, "plot_omitted": value <= 0.0}
            for n, (value, _) in enumerate(sweep, start=1)]
    n_star, best = best_message_count(sweep) or (None, None)
    optimal = {"n": n_star, "throughput": best}
    if n_star is None:
        optimal["note"] = (f"no n in 1..{len(sweep)} keeps the authenticated payload positive "
                           f"(packet_bits={cfg.packet_bits}, hash_bits={cfg.hash_bits})")
    return _bundle("sweep-n", scenario, {
        "arq": arq.value,
        "packet_success": p_c,
        "rows": rows,
        "optimal": optimal,
    })


def _scenario_sim(scenario: Scenario) -> SimConfig:
    if scenario.sim is None:
        raise ValidationError("scenario.sim: missing; simulating needs a sim section")
    return scenario.sim


def build_sweep_auth_report(
    scenario: Scenario,
    grid: Sequence[float],
    simulate: bool = False,
    sim: SimConfig | None = None,
) -> dict:
    """Throughput and compromise vs authentication probability.

    Analytical compromise is (1 - p_a) * p_i* for the most-attacked relay;
    with ``simulate`` enabled each grid point also runs a seeded simulation
    (``sim``, else the scenario's) and reports that relay's empirical rate.
    """
    check_auth_grid(grid)
    j = scenario.conditioning
    p_star, p_c = scenario.solution.attacker.probs[j], scenario.p_c[j]
    cfg = scenario.throughput

    rows = []
    for pa in grid:
        at_pa = replace(cfg, auth_prob=float(pa))
        rows.append({
            "auth_prob": float(pa),
            "throughput_sr": throughput_sr(at_pa, p_c),
            "throughput_gbn": (throughput_gbn(at_pa, p_c)
                               if at_pa.resolved_window is not None else None),
            "compromise_analytical": compromising_probability(float(pa), p_star),
            "compromise_empirical": None,
            "compromise_stderr": None,
        })

    seed = None
    if simulate:
        sim = sim or _scenario_sim(scenario)
        seed = sim.seed
        for row, (empirical, stderr) in zip(rows, estimate_compromise_curve(scenario, grid, sim)):
            row["compromise_empirical"] = empirical
            row["compromise_stderr"] = stderr

    return _bundle("sweep-auth", scenario, {
        "conditioning_relay": scenario.ids[j],
        "attack_prob_conditioning": p_star,
        "packet_success": p_c,
        "rows": rows,
    }, seed)


def build_simulation_report(scenario: Scenario, auth_policy: bool = False) -> dict:
    """Full bundle: equilibrium, channel metrics and one simulation run.

    ``auth_policy`` replaces the configured authentication probability with
    the per-relay minimum meeting the scenario's security requirement.
    """
    solution = scenario.solution
    sim = _scenario_sim(scenario)
    policy = policy_auth_probs(scenario.profiles, solution, scenario.security)
    if auth_policy:
        sim = replace(sim, auth_prob=policy)
    simulation = run_simulation(scenario, sim, solution)
    return _bundle("simulate", scenario, {
        "equilibrium": equilibrium_table(scenario),
        "channel": channel_table(scenario),
        "security": {
            **_fields(scenario.security),
            "min_auth_prob_by_relay": {str(k): v for k, v in sorted(policy.items())},
            "auth_policy_applied": auth_policy,
        },
        "simulation": simulation,
    }, sim.seed)


def _crosscheck(closed_form: float, monte_carlo: float, trials: int) -> tuple[float | None, bool]:
    """z, the gap in binomial standard errors at p, the closed form in [0, 1] (0 or None
    at p = 0 or 1), and whether the count's Chernoff tail bound reaches the flag level."""
    p, q = min(max(closed_form, 0.0), 1.0), monte_carlo
    kl = sum(a * (math.log(a / b) if b else math.inf) for a, b in ((q, p), (1 - q, 1 - p)) if a)
    z = (q - p) / binomial_stderr(p, trials) if 0.0 < p < 1.0 else (0.0 if q == p else None)
    return z, trials * kl <= -math.log(0.5 * math.erfc(CROSSCHECK_Z_BOUND / math.sqrt(2.0)))


def build_outage_crosscheck(scenario: Scenario, trials: int = 1_000_000, seed: int = 0) -> dict:
    """Side-by-side closed-form vs Monte Carlo outage for every relay link.

    Diagnostic, never failing the run: a row is flagged when the Chernoff bound
    exp(-trials KL(mc || cf)) on its count's tail falls below the flag level, as
    it does for correct code at most that often per side, at any trial count.
    Relay ``idx`` is drawn from ``child_seed(seed, idx)``, so relays at one index
    share a stream across scenarios at the same seed, and their flags are
    correlated.
    """
    rows = []
    for idx, (rid, ln, cf) in enumerate(zip(scenario.ids, scenario.links, scenario.outage)):
        mc = outage_monte_carlo(ln, trials, child_seed(seed, idx))
        z, within = _crosscheck(cf, mc, trials)
        rows.append({
            "relay_id": rid,
            "closed_form": cf,
            "monte_carlo": mc,
            "stderr": binomial_stderr(mc, trials),
            "abs_gap": abs(cf - mc),
            "z": z,
            "within_band": within,
        })
    all_within = all(r["within_band"] for r in rows)
    return {
        "report": "outage-crosscheck",
        "provenance": provenance(scenario, seed=seed),
        "trials": trials,
        "z_bound": CROSSCHECK_Z_BOUND,
        "rows": rows,
        "all_within_band": all_within,
        "note": None if all_within else (
            f"a simulated outage count is rarer at the closed form than {CROSSCHECK_Z_BOUND:g} "
            "standard errors out; check the fading convention in the provenance block"),
    }


# --- emission -------------------------------------------------------------

def bundle_to_json(bundle: dict) -> str:
    return canonical_json(bundle)


def bundle_to_csv(rows: list[dict]) -> str:
    """A table's rows as CSV, headed by the first row's keys (columns documented in --help)."""
    if not rows:
        raise ValidationError("empty table")
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=list(rows[0].keys()))
    writer.writeheader()
    writer.writerows(rows)
    return buf.getvalue()
