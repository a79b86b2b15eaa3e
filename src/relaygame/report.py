"""Report assembly: solve/sweep/simulate bundles with provenance, JSON and CSV.

Every bundle carries a provenance block (scenario hash, seed, tool version,
timing-model choice, RNG identifier) from which all emitted numbers are
reproducible.  Bundles contain no wall-clock data, so equal inputs serialize
byte-identically.
"""

from __future__ import annotations

import csv
import io
from dataclasses import replace
from typing import Sequence

from . import __version__
from .channel import (
    ber_end_to_end,
    outage_closed_form,
    outage_monte_carlo,
    outage_sr_link,
    packet_success,
)
from .errors import (
    DegenerateGameError,
    InfeasibleEquilibriumError,
    NoFeasibleMessageCountError,
    ValidationError,
)
from .game import (
    EquilibriumSolution,
    combined_asset,
    diagnostic_attack_strategy,
    solve_equilibrium,
    verify_equilibrium,
)
from .scenario import Scenario, canonical_json, scenario_hash
from .sim import (
    RNG_ALGORITHM,
    SimConfig,
    check_auth_grid,
    child_seed,
    estimate_compromise_curve,
    most_attacked_relay,
    policy_auth_probs,
    run_simulation,
)
from .throughput import (
    ArqMode,
    compromising_probability,
    optimize_messages,
    throughput_for_mode,
    throughput_gbn,
    throughput_sr,
)

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
        "fading_convention": FADING_CONVENTION,
    }


def _membership(solution: EquilibriumSolution, relay_id: int) -> str:
    part = solution.partition
    if relay_id in part.sensible:
        return "sensible"
    if relay_id in part.quasi_sensible:
        return "quasi-sensible"
    return "non-sensible"


def equilibrium_table(scenario: Scenario, solution: EquilibriumSolution) -> list[dict]:
    rows = []
    for k, pr in enumerate(scenario.profiles):
        u_att, u_src = solution.per_relay[k]
        rows.append({
            "relay_id": pr.id,
            "combined_asset": combined_asset(pr, scenario.game),
            "set": _membership(solution, pr.id),
            "attack_prob": solution.attacker.probs[k],
            "select_prob": solution.source.probs[k],
            "attacker_utility": u_att,
            "source_utility": u_src,
        })
    return rows


def channel_table(scenario: Scenario) -> list[dict]:
    rows = []
    for pr, ln in zip(scenario.profiles, scenario.links):
        ber = ber_end_to_end(ln.target_rate, ln.snr_sd, ln.snr_sr, ln.snr_rd)
        rows.append({
            "relay_id": pr.id,
            "outage_closed_form": outage_closed_form(ln),
            "outage_sr_link": outage_sr_link(ln.target_rate, ln.snr_sr),
            "ber_end_to_end": ber,
            "packet_success": packet_success(ber, scenario.throughput.packet_bits),
        })
    return rows


def build_solve_report(scenario: Scenario, diagnostics: bool = False) -> dict:
    """Equilibrium bundle: partition, strategies, utilities, verification."""
    solution = solve_equilibrium(scenario.profiles, scenario.game)
    check = verify_equilibrium(
        solution.attacker, solution.source, scenario.profiles, scenario.game)
    bundle = {
        "report": "solve",
        "provenance": provenance(scenario),
        "partition": {
            "sensible": list(solution.partition.sensible),
            "quasi_sensible": list(solution.partition.quasi_sensible),
            "non_sensible": list(solution.partition.non_sensible),
            "threshold": solution.partition.threshold,
        },
        "lambda_attacker": solution.lambda_attacker,
        "lambda_source": solution.lambda_source,
        "equilibrium": equilibrium_table(scenario, solution),
        "verification": {
            "attacker_gain": check.attacker_gain,
            "source_gain": check.source_gain,
            "tolerance": check.tolerance,
            "is_equilibrium": check.is_equilibrium,
        },
        "channel": channel_table(scenario),
        "annotations": list(scenario.annotations),
    }
    if diagnostics:
        bundle["diagnostic_attack_strategy"] = list(
            diagnostic_attack_strategy(scenario.profiles, scenario.game))
    return bundle


def build_sweep_n_report(
    scenario: Scenario, n_values: Sequence[int], arq: ArqMode
) -> dict:
    """Throughput vs message count; non-positive rows are emitted but flagged."""
    if len(n_values) == 0:
        raise ValidationError("message-count range must not be empty")
    p_c = _scenario_pc(scenario)
    cfg = scenario.throughput
    rows = []
    for n in n_values:
        if n < 1:
            raise ValidationError(f"message count {n} must be >= 1")
        value = throughput_for_mode(cfg.with_messages(n), arq, p_c)
        rows.append({"n": n, "throughput": value, "plot_omitted": value <= 0.0})
    try:
        n_star, best = optimize_messages(cfg, max(n_values), arq, p_c)
        optimal = {"n": n_star, "throughput": best}
    except NoFeasibleMessageCountError as exc:
        optimal = {"n": None, "throughput": None, "note": str(exc)}
    return {
        "report": "sweep-n",
        "provenance": provenance(scenario),
        "arq": arq.value,
        "packet_success": p_c,
        "rows": rows,
        "optimal": optimal,
        "annotations": list(scenario.annotations),
    }


def _scenario_pc(scenario: Scenario, relay_id: int | None = None) -> float:
    """Packet-success probability bound to one relay's link (default: relay
    the attacker targets most, falling back to the first relay pre-solve)."""
    ids = [pr.id for pr in scenario.profiles]
    if relay_id is None:
        try:
            solution = solve_equilibrium(scenario.profiles, scenario.game)
            relay_id = most_attacked_relay(scenario.profiles, solution)
        except (DegenerateGameError, InfeasibleEquilibriumError):
            relay_id = ids[0]
    ln = scenario.links[ids.index(relay_id)]
    ber = ber_end_to_end(ln.target_rate, ln.snr_sd, ln.snr_sr, ln.snr_rd)
    return packet_success(ber, scenario.throughput.packet_bits)


def build_sweep_auth_report(
    scenario: Scenario,
    grid: Sequence[float],
    simulate: bool = False,
    sim: SimConfig | None = None,
) -> dict:
    """Throughput and compromise vs authentication probability.

    Analytical compromise is (1 - p_a) * p_i* for the most-attacked relay;
    with ``simulate`` enabled each grid point also runs a seeded simulation
    and reports that relay's empirical conditional compromise rate.
    """
    check_auth_grid(grid)
    solution = solve_equilibrium(scenario.profiles, scenario.game)
    relay_id = most_attacked_relay(scenario.profiles, solution)
    p_star = solution.attacker.probs[
        [pr.id for pr in scenario.profiles].index(relay_id)]
    p_c = _scenario_pc(scenario, relay_id)
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
        sim = sim or scenario.sim or SimConfig(episodes=100_000, seed=0)
        seed = sim.seed
        curve = estimate_compromise_curve(scenario, list(grid), sim, solution, relay_id)
        for row, point in zip(rows, curve):
            row["compromise_empirical"] = point.empirical
            row["compromise_stderr"] = point.stderr

    return {
        "report": "sweep-auth",
        "provenance": provenance(scenario, seed=seed),
        "conditioning_relay": relay_id,
        "attack_prob_conditioning": p_star,
        "packet_success": p_c,
        "rows": rows,
        "annotations": list(scenario.annotations),
    }


def build_simulation_report(
    scenario: Scenario,
    sim: SimConfig | None = None,
    auth_policy: bool = False,
) -> dict:
    """Full bundle: equilibrium, channel metrics and one simulation run.

    ``auth_policy`` replaces the configured authentication probability with
    the per-relay minimum meeting the scenario's security requirement.
    """
    solution = solve_equilibrium(scenario.profiles, scenario.game)
    sim = sim or scenario.sim
    if sim is None:
        raise ValidationError("scenario has no sim configuration and none was given")
    policy = policy_auth_probs(scenario.profiles, solution, scenario.security)
    if auth_policy:
        sim = replace(sim, auth_prob=policy)
    report = run_simulation(scenario, sim, solution)
    return {
        "report": "simulate",
        "provenance": provenance(scenario, seed=sim.seed),
        "equilibrium": equilibrium_table(scenario, solution),
        "channel": channel_table(scenario),
        "security": {
            "max_compromised_fraction": scenario.security.max_compromised_fraction,
            "min_auth_prob_by_relay": {str(k): v for k, v in sorted(policy.items())},
            "auth_policy_applied": auth_policy,
        },
        "simulation": report.to_dict(),
        "annotations": list(scenario.annotations),
    }


def build_outage_crosscheck(
    scenario: Scenario,
    trials: int = 1_000_000,
    seed: int = 0,
    band: float = 5e-3,
) -> dict:
    """Side-by-side closed-form vs Monte Carlo outage for every relay link.

    Diagnostic: disagreement beyond the band flags the fading convention but
    never fails the run.
    """
    rows = []
    for idx, (pr, ln) in enumerate(zip(scenario.profiles, scenario.links)):
        cf = outage_closed_form(ln)
        mc = outage_monte_carlo(ln, trials, child_seed(seed, idx))
        rows.append({
            "relay_id": pr.id,
            "closed_form": cf,
            "monte_carlo": mc.probability,
            "stderr": mc.stderr,
            "abs_gap": abs(cf - mc.probability),
            "within_band": abs(cf - mc.probability) <= band,
        })
    return {
        "report": "outage-crosscheck",
        "provenance": provenance(scenario, seed=seed),
        "trials": trials,
        "band": band,
        "rows": rows,
        "all_within_band": all(r["within_band"] for r in rows),
        "note": None if all(r["within_band"] for r in rows) else (
            "closed-form and simulated outage disagree beyond the band; "
            "check the fading convention in the provenance block"),
    }


# --- emission -------------------------------------------------------------

_CSV_TABLE_KEY = {
    "solve": "equilibrium",
    "sweep-n": "rows",
    "sweep-auth": "rows",
    "simulate": ("simulation", "per_relay"),
    "outage-crosscheck": "rows",
}


def bundle_to_json(bundle: dict) -> str:
    return canonical_json(bundle)


def bundle_to_csv(bundle: dict) -> str:
    """Flatten the bundle's main table to CSV (columns documented in --help)."""
    key = _CSV_TABLE_KEY.get(bundle.get("report"))
    if key is None:
        raise ValidationError(f"no CSV table for report {bundle.get('report')!r}")
    rows = bundle[key[0]][key[1]] if isinstance(key, tuple) else bundle[key]
    if not rows:
        raise ValidationError("empty table")
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=list(rows[0].keys()))
    writer.writeheader()
    writer.writerows(rows)
    return buf.getvalue()
