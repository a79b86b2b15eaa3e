"""Seeded Monte Carlo simulation of repeated attacker/source play.

Each episode draws one attacker target and one selected relay; each packet in
the episode draws authentication and channel-error events.  A packet counts as
compromised when the attacker's target is the selected relay and the packet is
unauthenticated - every such packet, with no detection discount, so the
analytical bound (1 - p_a) * p_i* is directly testable.  An optional refined
mode additionally lets attacks slip past authenticated handling with
probability (1 - detect_rate); it is exploratory and off by default.

Count-level engine: every counter but outage is a sum of independent
categorical or Bernoulli draws, so one PCG64 generator seeded from
SimConfig.seed draws the sums in two stages.  The count stage, vectors over
the relay list: the K x K (target, selected) episode table as one
Multinomial(E, P x Q), whose row sums are the attacker counts, column sums n_j
the source counts and diagonal h_j the hits (P is 1/K in uniform mode, Q
one-hot in best-utility mode); authenticated hit packets a_j ~ Bin(h_j *
packets, p_a), the other authenticated packets Bin((n_j - h_j) * packets,
p_a), compromised = h_j * packets - a_j (refined mode adds Bin(a_j, 1 -
detect_rate)); errored packets Bin(n_j * packets, 1 - P_c).  Then the outage
stage, relay by relay: the outage count among n_j fading realisations of the
relay's link (channel.count_outages): four binomial counts, then fading only
for the episodes whose direct, first-hop and relay-destination gains leave
the outage to the sum of two gains, so its draws grow with that band, not
n_j, and the simulated rate stays an independent check of the closed form.
The outage stage comes last, so no other counter depends on it, and the
compromise curve runs the count stage alone.  Memory is O(K^2 + OUTAGE_CHUNK)
whatever the episode count, and equal configs give byte-identical reports.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace
from typing import Mapping, Sequence

import numpy as np

from .channel import binomial_stderr, count_outages
from .errors import ValidationError, check_range
from .game import EquilibriumSolution
from .throughput import (
    ArqMode,
    SecurityRequirement,
    min_auth_probability,
    throughput_for_mode,
)

RNG_ALGORITHM = "numpy-pcg64/counts-4"


class AttackerMode(enum.Enum):
    EQUILIBRIUM = "equilibrium"   # sample targets from P*
    UNIFORM = "uniform"           # equal 1/K bins over the relay list


class SourceMode(enum.Enum):
    EQUILIBRIUM = "equilibrium"   # sample relays from Q*
    BEST_UTILITY = "best-utility" # always the relay with the largest attacker utility


@dataclass(frozen=True)
class SimConfig:
    """Size, seed, sampling modes and authentication setting of one run.

    ``auth_prob`` may be a single probability applied to every relay, a
    mapping relay_id -> probability, or None to take the scenario's
    throughput configuration value.
    """

    episodes: int
    packets_per_episode: int = 1
    seed: int = 0
    attacker_mode: AttackerMode = AttackerMode.EQUILIBRIUM
    source_mode: SourceMode = SourceMode.EQUILIBRIUM
    auth_prob: float | Mapping[int, float] | None = None
    refined_detection: bool = False

    def __post_init__(self) -> None:
        check_range("episodes", self.episodes, 1)
        check_range("packets_per_episode", self.packets_per_episode, 1)
        if self.episodes * self.packets_per_episode >= 2 ** 63:
            raise ValidationError("episodes x packets_per_episode must stay below 2^63")
        _check_seed(self.seed)
        if isinstance(self.auth_prob, (int, float)):
            check_range("auth_prob", self.auth_prob, 0.0, 1.0)
        elif self.auth_prob is not None:
            for rid, pa in self.auth_prob.items():
                check_range(f"auth_prob.{rid}", pa, 0.0, 1.0)


def _check_seed(seed: int) -> None:
    """Reject a seed outside [0, 2^64), the range of one PCG64 seed word."""
    if not 0 <= seed < 2 ** 64:
        raise ValidationError(f"seed must be in [0, 2^64), got {seed}", field="seed")


def policy_auth_probs(
    profiles, solution: EquilibriumSolution, requirement: SecurityRequirement
) -> dict[int, float]:
    """Per-relay minimal authentication probabilities meeting the requirement."""
    return {
        pr.id: min_auth_probability(p_i, requirement)
        for pr, p_i in zip(profiles, solution.attacker.probs)
    }


def resolve_auth(scenario, sim: SimConfig) -> dict[int, float]:
    """Authentication probability by relay id; a mapping must name exactly the
    scenario's relays."""
    ids = scenario.ids
    if sim.auth_prob is None:
        return {i: scenario.throughput.auth_prob for i in ids}
    if isinstance(sim.auth_prob, (int, float)):
        return {i: float(sim.auth_prob) for i in ids}
    unknown = [rid for rid in sim.auth_prob if rid not in ids]
    if unknown:
        raise ValidationError(f"scenario.sim.auth_prob: relay ids {unknown} name no relay")
    missing = [i for i in ids if i not in sim.auth_prob]
    if missing:
        raise ValidationError(f"scenario.sim.auth_prob: mapping misses relays {missing}")
    return {i: float(sim.auth_prob[i]) for i in ids}


def _rate_stderr(count: int, total: int) -> tuple[float, float]:
    if total == 0:
        return 0.0, 0.0
    rate = count / total
    return rate, binomial_stderr(rate, total)


def draw_selection_table(
    rng: np.random.Generator, episodes: int, p_attack, q_select
) -> np.ndarray:
    """Episode counts by (target, selected) relay index, one Multinomial(episodes,
    P x Q) draw; renormalised so the last cell, numpy's remainder, absorbs only
    round-off."""
    cells = np.outer(p_attack, q_select).ravel()
    return rng.multinomial(episodes, cells / cells.sum()).reshape(len(p_attack), -1)


@dataclass(frozen=True)
class _Counts:
    """The count stage of one run: every counter but outage, as vectors over
    the relay list, and the generator the outage stage continues."""

    rng: np.random.Generator
    auth_by_id: dict[int, float]
    q_select: np.ndarray
    pa_vec: np.ndarray
    table: np.ndarray          # episodes by (target, selected) relay index
    selected: np.ndarray       # the table's column sums
    authenticated: np.ndarray
    compromised: np.ndarray
    errored: np.ndarray


def _count_stage(scenario, sim: SimConfig, solution: EquilibriumSolution) -> _Counts:
    """Draw the table, the authentication binomials, the refined-detection
    leak and the errored packets, in that order, from a generator seeded
    with ``sim.seed``."""
    ids = scenario.ids
    k = len(ids)
    auth_by_id = resolve_auth(scenario, sim)
    ppe = sim.packets_per_episode

    if sim.attacker_mode is AttackerMode.UNIFORM:
        p_attack = np.full(k, 1.0 / k)
    else:
        p_attack = np.array(solution.attacker.probs)
    if sim.source_mode is SourceMode.BEST_UTILITY:
        q_select = np.zeros(k)
        q_select[max(range(k), key=lambda j: (solution.per_relay[j][0], -ids[j]))] = 1.0
    else:
        q_select = np.array(solution.source.probs)
    pa_vec = np.array([auth_by_id[i] for i in ids])

    rng = np.random.default_rng(sim.seed)
    table = draw_selection_table(rng, sim.episodes, p_attack, q_select)
    selected, hits = table.sum(axis=0), np.diagonal(table)
    auth_hit = rng.binomial(hits * ppe, pa_vec)
    auth_other = rng.binomial((selected - hits) * ppe, pa_vec)
    compromised = hits * ppe - auth_hit
    if sim.refined_detection:
        compromised += rng.binomial(auth_hit, 1.0 - scenario.game.detect_rate)
    errored = rng.binomial(selected * ppe, 1.0 - np.array(scenario.p_c))
    return _Counts(rng, auth_by_id, q_select, pa_vec, table, selected,
                   auth_hit + auth_other, compromised, errored)


def run_simulation(
    scenario, sim: SimConfig, solution: EquilibriumSolution | None = None
) -> dict:
    """Simulate repeated play of a solved scenario and tally outcomes.

    ``solution`` must come from solving the same scenario first (passing None
    is an ordering misuse and raises).  Returns the bundle's ``simulation``
    section: aggregate and per-relay selection, compromise, packet-error and
    outage counters, plus empirical ARQ throughput computed from the observed
    packet-success frequency.  The per-relay key order is the CSV column order.
    """
    if solution is None:
        raise ValidationError("scenario must be solved before simulating")
    links = scenario.links
    ids = scenario.ids
    episodes, ppe = sim.episodes, sim.packets_per_episode
    c = _count_stage(scenario, sim, solution)
    # The outage stage comes last, so the other counters never depend on it.
    outages = [count_outages(c.rng, ln, n) for ln, n in zip(links, c.selected.tolist())]

    packets_total = episodes * ppe
    compromised_total = int(c.compromised.sum())
    comp_rate, comp_se = _rate_stderr(compromised_total, packets_total)
    err_total = int(c.errored.sum())
    attacker_counts = c.table.sum(axis=1).tolist()

    per_relay = []
    for rid, att_eps, sel_eps, comp_j, err_j, out_j, out_cf_j, pc_j in zip(
            ids, attacker_counts, c.selected.tolist(), c.compromised.tolist(),
            c.errored.tolist(), outages, scenario.outage, scenario.p_c):
        packets_j = sel_eps * ppe
        rate_j, se_j = _rate_stderr(comp_j, packets_j)
        per_relay.append({
            "relay_id": rid,
            "attacker_episodes": att_eps,
            "source_episodes": sel_eps,
            "packets": packets_j,
            "compromised": comp_j,
            "compromise_rate": rate_j,        # conditional on this relay being selected
            "compromise_stderr": se_j,
            "packet_error_rate": err_j / packets_j if packets_j else 0.0,
            "outage_rate": out_j / sel_eps if sel_eps else 0.0,
            "outage_closed_form": out_cf_j,
            "packet_success_analytical": pc_j,
            "auth_prob": c.auth_by_id[rid],
        })

    # ARQ throughput: empirical uses the observed packet-success frequency,
    # the analytical column weights each relay's P_c by the mode's expected
    # selection probabilities.  The payload terms use the selection-weighted
    # authentication probability, which the per-packet Bernoulli draws
    # converge to.
    pc_analytical = min(1.0, max(0.0, float(c.q_select @ scenario.p_c)))
    pc_empirical = 1.0 - err_total / packets_total
    # Convex combinations; clip pure round-off back into [0, 1].
    pa_effective = min(1.0, max(0.0, float(c.q_select @ c.pa_vec)))
    cfg = replace(scenario.throughput, auth_prob=pa_effective)
    throughput_rows = [
        (mode.value,
         throughput_for_mode(cfg, mode, pc_empirical),
         throughput_for_mode(cfg, mode, pc_analytical))
        for mode in (ArqMode.GENERAL, ArqMode.SR, ArqMode.GBN)
        if not (mode is ArqMode.GBN and cfg.resolved_window is None)
    ]
    auth_total = int(c.authenticated.sum())

    notes = []
    if sim.attacker_mode is AttackerMode.UNIFORM:
        notes.append(
            "attacker targets drawn from equal 1/K bins, not from the "
            "equilibrium distribution; selection frequencies will not match P*")
    return {
        "seed": sim.seed,
        "episodes": episodes,
        "packets_per_episode": ppe,
        "attacker_mode": sim.attacker_mode.value,
        "source_mode": sim.source_mode.value,
        "refined_detection": sim.refined_detection,
        "rng_algorithm": RNG_ALGORITHM,
        "auth_prob": sorted(c.auth_by_id.items()),           # (relay_id, p_a)
        "attacker_counts": list(zip(ids, attacker_counts)),  # (relay_id, episodes targeted)
        "source_counts": list(zip(ids, c.selected.tolist())),  # (relay_id, episodes selected)
        "packets_total": packets_total,
        "compromised_total": compromised_total,
        "compromise_rate": comp_rate,
        "compromise_stderr": comp_se,
        "authenticated_total": auth_total,
        "authenticated_rate": auth_total / packets_total,
        "auth_prob_effective": pa_effective,  # selection-weighted p_a the payload terms use
        "packet_error_rate": err_total / packets_total,
        "packet_success_rate": pc_empirical,
        "per_relay": per_relay,
        "throughput": throughput_rows,        # (arq, empirical, analytical)
        "notes": notes,
    }


def check_auth_grid(grid: Sequence[float]) -> None:
    """Reject an empty authentication grid or a value outside [0, 1]."""
    if len(grid) == 0:
        raise ValidationError("authentication grid must not be empty")
    for pa in grid:
        check_range("grid value", pa, 0.0, 1.0)


def child_seed(master: int, index: int) -> int:
    """Deterministic seed split of a master seed by index: a grid point of the
    compromise curve, or a relay of the outage cross-check."""
    _check_seed(master)
    return int(np.random.SeedSequence([master, index]).generate_state(1, np.uint64)[0])


def estimate_compromise_curve(
    scenario, grid: Sequence[float], sim: SimConfig
) -> list[tuple[float, float]]:
    """Simulated compromise rate and its standard error at each grid value of
    the authentication probability.

    The count stage of one simulation runs per grid point under a derived
    sub-seed, so each point equals ``run_simulation``'s at that seed; the rate
    is conditional on the scenario's conditioning relay, the one the attacker
    targets most.  Its bound is ``compromising_probability(pa, p_star)``.
    """
    check_auth_grid(grid)
    j = scenario.conditioning
    curve = []
    for idx, pa in enumerate(grid):
        at_pa = replace(sim, seed=child_seed(sim.seed, idx), auth_prob=float(pa))
        counts = _count_stage(scenario, at_pa, scenario.solution)
        curve.append(_rate_stderr(int(counts.compromised[j]),
                                  int(counts.selected[j]) * sim.packets_per_episode))
    return curve
