"""Seeded Monte Carlo simulation of repeated attacker/source play.

Each episode draws one attacker target and one selected relay; each packet in
the episode draws authentication and channel-error events.  A packet counts as
compromised when the attacker's target is the selected relay and the packet is
unauthenticated - every such packet, with no detection discount, so the
analytical bound (1 - p_a) * p_i* is directly testable.  An optional refined
mode additionally lets attacks slip past authenticated handling with
probability (1 - detect_rate); it is exploratory and off by default.

Determinism: one PCG64 generator seeded from SimConfig.seed, with a fixed draw
order (attacker uniforms, source uniforms, per-packet authentication uniforms,
per-packet error uniforms, per-episode channel gains, then refined-mode
detection uniforms when enabled).  Equal configs give byte-identical reports.
"""

from __future__ import annotations

import enum
from bisect import bisect_right
from dataclasses import dataclass, replace
from typing import Mapping, Sequence

import numpy as np

from .channel import (
    ber_end_to_end,
    outage_closed_form,
    outage_event,
    outage_thresholds,
    packet_success,
)
from .errors import ValidationError
from .game import EquilibriumSolution, MixedStrategy
from .throughput import (
    ArqMode,
    SecurityRequirement,
    min_auth_probability,
    throughput_for_mode,
)

RNG_ALGORITHM = "numpy-pcg64"


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
        if self.episodes < 1:
            raise ValidationError(f"episodes must be >= 1, got {self.episodes}")
        if self.packets_per_episode < 1:
            raise ValidationError(
                f"packets_per_episode must be >= 1, got {self.packets_per_episode}")
        if not 0 <= self.seed < 2 ** 64:
            raise ValidationError(f"seed must fit in 64 bits, got {self.seed}")
        if isinstance(self.auth_prob, (int, float)):
            if not 0.0 <= float(self.auth_prob) <= 1.0:
                raise ValidationError(f"auth_prob must be in [0, 1], got {self.auth_prob}")
        elif self.auth_prob is not None:
            for rid, pa in self.auth_prob.items():
                if not 0.0 <= pa <= 1.0:
                    raise ValidationError(
                        f"auth_prob for relay {rid} must be in [0, 1], got {pa}")


@dataclass(frozen=True)
class RelaySimStats:
    relay_id: int
    attacker_episodes: int
    source_episodes: int
    packets: int
    compromised: int
    compromise_rate: float        # conditional on this relay being selected
    compromise_stderr: float
    packet_error_rate: float
    outage_rate: float
    outage_closed_form: float
    packet_success_analytical: float
    auth_prob: float


@dataclass(frozen=True)
class SimReport:
    """Aggregated counters of one simulation run, serializable canonically."""

    seed: int
    episodes: int
    packets_per_episode: int
    attacker_mode: str
    source_mode: str
    refined_detection: bool
    rng_algorithm: str
    auth_prob: tuple[tuple[int, float], ...]      # (relay_id, p_a), sorted by id
    attacker_counts: tuple[tuple[int, int], ...]  # (relay_id, episodes targeted)
    source_counts: tuple[tuple[int, int], ...]    # (relay_id, episodes selected)
    packets_total: int
    compromised_total: int
    compromise_rate: float
    compromise_stderr: float
    authenticated_total: int
    authenticated_rate: float
    auth_prob_effective: float    # selection-weighted p_a the payload terms use
    packet_error_rate: float
    packet_success_rate: float
    per_relay: tuple[RelaySimStats, ...]
    throughput: tuple[tuple[str, float, float], ...]  # (arq, empirical, analytical)
    notes: tuple[str, ...]

    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "episodes": self.episodes,
            "packets_per_episode": self.packets_per_episode,
            "attacker_mode": self.attacker_mode,
            "source_mode": self.source_mode,
            "refined_detection": self.refined_detection,
            "rng_algorithm": self.rng_algorithm,
            "auth_prob": [list(pair) for pair in self.auth_prob],
            "attacker_counts": [list(pair) for pair in self.attacker_counts],
            "source_counts": [list(pair) for pair in self.source_counts],
            "packets_total": self.packets_total,
            "compromised_total": self.compromised_total,
            "compromise_rate": self.compromise_rate,
            "compromise_stderr": self.compromise_stderr,
            "authenticated_total": self.authenticated_total,
            "authenticated_rate": self.authenticated_rate,
            "auth_prob_effective": self.auth_prob_effective,
            "packet_error_rate": self.packet_error_rate,
            "packet_success_rate": self.packet_success_rate,
            "per_relay": [vars(r).copy() for r in self.per_relay],
            "throughput": [list(row) for row in self.throughput],
            "notes": list(self.notes),
        }


def _cumulative(probs: Sequence[float]) -> list[float]:
    cum, total = [], 0.0
    for p in probs:
        total += p
        cum.append(total)
    return cum


def draw_attacker_target(
    mode: AttackerMode,
    p_star: MixedStrategy | Sequence[float],
    u: float,
    ids: Sequence[int] | None = None,
) -> int:
    """Map one uniform draw u in [0, 1) to a relay id.

    Uniform mode uses equal 1/K bins over the relay list; equilibrium mode
    uses inverse-CDF bins over P* in list order.  Bins are half-open
    [lower, upper), and the last bin absorbs any floating-point shortfall.
    """
    probs = list(p_star.probs) if isinstance(p_star, MixedStrategy) else list(p_star)
    k = len(probs)
    if ids is None:
        ids = list(range(1, k + 1))
    if not 0.0 <= u < 1.0:
        raise ValidationError(f"uniform draw must be in [0, 1), got {u}")
    if mode is AttackerMode.UNIFORM:
        cum = [(j + 1) / k for j in range(k)]
    else:
        cum = _cumulative(probs)
    return ids[min(bisect_right(cum, u), k - 1)]


def policy_auth_probs(
    profiles, solution: EquilibriumSolution, requirement: SecurityRequirement
) -> dict[int, float]:
    """Per-relay minimal authentication probabilities meeting the requirement."""
    return {
        pr.id: min_auth_probability(p_i, requirement)
        for pr, p_i in zip(profiles, solution.attacker.probs)
    }


def _resolve_auth(scenario, sim: SimConfig, ids: Sequence[int]) -> dict[int, float]:
    if sim.auth_prob is None:
        return {i: scenario.throughput.auth_prob for i in ids}
    if isinstance(sim.auth_prob, (int, float)):
        return {i: float(sim.auth_prob) for i in ids}
    missing = [i for i in ids if i not in sim.auth_prob]
    if missing:
        raise ValidationError(f"auth_prob mapping misses relays {missing}")
    return {i: float(sim.auth_prob[i]) for i in ids}


def _rate_stderr(count: int, total: int) -> tuple[float, float]:
    if total == 0:
        return 0.0, 0.0
    rate = count / total
    return rate, float(np.sqrt(rate * (1.0 - rate) / total))


def run_simulation(
    scenario, sim: SimConfig, solution: EquilibriumSolution | None = None
) -> SimReport:
    """Simulate repeated play of a solved scenario and tally outcomes.

    ``solution`` must come from solving the same scenario first (passing None
    is an ordering misuse and raises).  Returns aggregate and per-relay
    selection, compromise, packet-error and outage counters, plus empirical
    ARQ throughput computed from the observed packet-success frequency.
    """
    if solution is None:
        raise ValidationError("scenario must be solved before simulating")
    profiles = scenario.profiles
    links = scenario.links
    k = len(profiles)
    ids = [pr.id for pr in profiles]
    auth_by_id = _resolve_auth(scenario, sim, ids)

    episodes, ppe = sim.episodes, sim.packets_per_episode
    rng = np.random.default_rng(sim.seed)
    u_attack = rng.random(episodes)
    u_select = rng.random(episodes)
    u_auth = rng.random((episodes, ppe))
    u_error = rng.random((episodes, ppe))
    raw_gains = rng.exponential(1.0, (episodes, 3))

    if sim.attacker_mode is AttackerMode.UNIFORM:
        cum_attack = np.arange(1, k + 1) / k
    else:
        cum_attack = np.cumsum(solution.attacker.probs)
    targets = np.minimum(np.searchsorted(cum_attack, u_attack, side="right"), k - 1)

    if sim.source_mode is SourceMode.BEST_UTILITY:
        best = max(range(k), key=lambda j: (solution.per_relay[j][0], -ids[j]))
        selected = np.full(episodes, best, dtype=np.int64)
    else:
        cum_select = np.cumsum(solution.source.probs)
        selected = np.minimum(np.searchsorted(cum_select, u_select, side="right"), k - 1)

    pa_vec = np.array([auth_by_id[i] for i in ids])
    authenticated = u_auth < pa_vec[selected][:, None]
    hit = (targets == selected)[:, None]
    compromised = hit & ~authenticated
    if sim.refined_detection:
        u_detect = rng.random((episodes, ppe))
        slipped = u_detect >= scenario.game.detect_rate
        compromised = compromised | (hit & authenticated & slipped)

    p_c = np.array([
        packet_success(
            ber_end_to_end(ln.target_rate, ln.snr_sd, ln.snr_sr, ln.snr_rd),
            scenario.throughput.packet_bits,
        )
        for ln in links
    ])
    errored = u_error < (1.0 - p_c)[selected][:, None]

    # Outage event for the selected relay's link, one realization per episode;
    # standard exponentials are scaled by the selected link's mean gains so the
    # draw count stays fixed across modes.
    alpha = np.array([ln.pathloss_exp for ln in links])
    mean_sr = np.array([ln.dist_sr for ln in links]) ** -alpha
    mean_rd = np.array([ln.dist_rd for ln in links]) ** -alpha
    t_direct, t_relay = outage_thresholds(np.array([ln.target_rate for ln in links]))
    outage = outage_event(
        raw_gains[:, 0],
        raw_gains[:, 1] * mean_sr[selected],
        raw_gains[:, 2] * mean_rd[selected],
        np.array([ln.snr_avg for ln in links])[selected],
        t_direct[selected], t_relay[selected])

    packets_total = episodes * ppe
    compromised_total = int(compromised.sum())
    comp_rate, comp_se = _rate_stderr(compromised_total, packets_total)
    err_total = int(errored.sum())

    per_relay = []
    for j, (pr, ln) in enumerate(zip(profiles, links)):
        sel_mask = selected == j
        sel_eps = int(sel_mask.sum())
        packets_j = sel_eps * ppe
        comp_j = int(compromised[sel_mask].sum())
        rate_j, se_j = _rate_stderr(comp_j, packets_j)
        err_j = int(errored[sel_mask].sum())
        out_j = int(outage[sel_mask].sum())
        per_relay.append(RelaySimStats(
            relay_id=pr.id,
            attacker_episodes=int((targets == j).sum()),
            source_episodes=sel_eps,
            packets=packets_j,
            compromised=comp_j,
            compromise_rate=rate_j,
            compromise_stderr=se_j,
            packet_error_rate=err_j / packets_j if packets_j else 0.0,
            outage_rate=out_j / sel_eps if sel_eps else 0.0,
            outage_closed_form=outage_closed_form(ln),
            packet_success_analytical=float(p_c[j]),
            auth_prob=auth_by_id[pr.id],
        ))

    # ARQ throughput: empirical uses the observed packet-success frequency,
    # the analytical column weights each relay's P_c by the mode's expected
    # selection probabilities.  The payload terms use the selection-weighted
    # authentication probability, which the per-packet Bernoulli draws
    # converge to.
    if sim.source_mode is SourceMode.BEST_UTILITY:
        sel_probs = np.zeros(k)
        sel_probs[best] = 1.0
    else:
        sel_probs = np.array(solution.source.probs)
    pc_analytical = min(1.0, max(0.0, float(sel_probs @ p_c)))
    pc_empirical = 1.0 - err_total / packets_total
    # Convex combinations; clip pure round-off back into [0, 1].
    pa_effective = min(1.0, max(0.0, float(sel_probs @ pa_vec)))
    cfg = replace(scenario.throughput, auth_prob=pa_effective)
    throughput_rows = tuple(
        (mode.value,
         throughput_for_mode(cfg, mode, pc_empirical),
         throughput_for_mode(cfg, mode, pc_analytical))
        for mode in (ArqMode.GENERAL, ArqMode.SR, ArqMode.GBN)
        if not (mode is ArqMode.GBN and cfg.resolved_window is None)
    )
    auth_total = int(authenticated.sum())

    notes = []
    if sim.attacker_mode is AttackerMode.UNIFORM:
        notes.append(
            "attacker targets drawn from equal 1/K bins, not from the "
            "equilibrium distribution; selection frequencies will not match P*")
    return SimReport(
        seed=sim.seed,
        episodes=episodes,
        packets_per_episode=ppe,
        attacker_mode=sim.attacker_mode.value,
        source_mode=sim.source_mode.value,
        refined_detection=sim.refined_detection,
        rng_algorithm=RNG_ALGORITHM,
        auth_prob=tuple(sorted(auth_by_id.items())),
        attacker_counts=tuple(
            (pr.id, int((targets == j).sum())) for j, pr in enumerate(profiles)),
        source_counts=tuple(
            (pr.id, int((selected == j).sum())) for j, pr in enumerate(profiles)),
        packets_total=packets_total,
        compromised_total=compromised_total,
        compromise_rate=comp_rate,
        compromise_stderr=comp_se,
        authenticated_total=auth_total,
        authenticated_rate=auth_total / packets_total,
        auth_prob_effective=pa_effective,
        packet_error_rate=err_total / packets_total,
        packet_success_rate=pc_empirical,
        per_relay=tuple(per_relay),
        throughput=throughput_rows,
        notes=tuple(notes),
    )


@dataclass(frozen=True)
class CompromisePoint:
    auth_prob: float
    analytical: float     # (1 - p_a) * p_i* for the conditioning relay
    empirical: float      # conditional compromise rate of that relay
    stderr: float
    seed: int


def most_attacked_relay(profiles, solution: EquilibriumSolution) -> int:
    """Id of the relay the attacker targets most; ties go to the smaller id."""
    ids = [pr.id for pr in profiles]
    return ids[max(range(len(ids)), key=lambda j: (solution.attacker.probs[j], -ids[j]))]


def check_auth_grid(grid: Sequence[float]) -> None:
    """Reject an empty authentication grid or a value outside [0, 1]."""
    if len(grid) == 0:
        raise ValidationError("authentication grid must not be empty")
    for pa in grid:
        if not 0.0 <= pa <= 1.0:
            raise ValidationError(f"grid value {pa} outside [0, 1]")


def child_seed(master: int, index: int) -> int:
    """Deterministic per-grid-point seed split of a master seed."""
    return int(np.random.SeedSequence([master, index]).generate_state(1, np.uint64)[0])


def estimate_compromise_curve(
    scenario,
    grid: Sequence[float],
    sim: SimConfig,
    solution: EquilibriumSolution,
    relay_id: int | None = None,
) -> tuple[CompromisePoint, ...]:
    """Sweep the authentication probability and compare bound vs simulation.

    One simulation runs per grid point under a derived sub-seed; the empirical
    column is the compromise rate conditional on the conditioning relay
    (default: the relay the attacker targets most).
    """
    check_auth_grid(grid)
    ids = [pr.id for pr in scenario.profiles]
    if relay_id is None:
        relay_id = most_attacked_relay(scenario.profiles, solution)
    elif relay_id not in ids:
        raise ValidationError(f"unknown relay id {relay_id}")
    p_star = solution.attacker.probs[ids.index(relay_id)]

    points = []
    for idx, pa in enumerate(grid):
        seed = child_seed(sim.seed, idx)
        report = run_simulation(
            scenario, replace(sim, seed=seed, auth_prob=float(pa)), solution)
        stats = next(r for r in report.per_relay if r.relay_id == relay_id)
        points.append(CompromisePoint(
            auth_prob=float(pa),
            analytical=(1.0 - pa) * p_star,
            empirical=stats.compromise_rate,
            stderr=stats.compromise_stderr,
            seed=seed,
        ))
    return tuple(points)
