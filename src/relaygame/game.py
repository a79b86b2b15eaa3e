"""Attacker/source relay-selection game: payoffs, target partition, equilibrium.

The attacker picks one relay to attack with probability vector P, the source
picks one relay to forward through with probability vector Q.  Per-relay
payoffs depend on the relay's combined asset and on detection/cost parameters;
the mixed equilibrium concentrates on the "sensible" relays whose asset clears
a threshold determined jointly by the whole sensible set.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import (
    DegenerateGameError,
    InfeasibleEquilibriumError,
    ValidationError,
    check_range,
)

#: Relative tolerance deciding quasi-sensible membership (asset == threshold).
QUASI_REL_TOL = 1e-9

#: Tolerance on mixed-strategy normalization.
STRATEGY_SUM_TOL = 1e-9

#: Largest pure-deviation gain verify_equilibrium still calls an equilibrium.
VERIFY_TOL = 1e-9


@dataclass(frozen=True)
class GameParams:
    """Scalar constants of the static game.

    Rates are probabilities; cost coefficients are fractions of the targeted
    relay's combined asset.
    """

    detect_rate: float        # probability an attack on the selected relay is detected
    false_alarm_rate: float
    attack_cost: float        # attacker's cost per attack
    monitor_cost: float       # source's monitoring cost per selection
    false_alarm_loss: float   # source's loss when a false alarm fires
    weight_info: float = 0.5
    weight_security: float = 0.5

    def __post_init__(self) -> None:
        check_range("detect_rate", self.detect_rate, 0.0, 1.0)
        check_range("false_alarm_rate", self.false_alarm_rate, 0.0, 1.0)
        for name in ("attack_cost", "monitor_cost", "false_alarm_loss",
                     "weight_info", "weight_security"):
            check_range(name, getattr(self, name), 0.0)
        if self.weight_info + self.weight_security <= 0.0:
            raise ValidationError("asset weights must not both be zero")


@dataclass(frozen=True)
class RelayProfile:
    """One candidate relay's value to the players."""

    id: int
    info_asset: float   # normalized channel-quality score
    sec_asset: float    # normalized security-importance score

    def __post_init__(self) -> None:
        check_range("info_asset", self.info_asset, 0.0)
        check_range("sec_asset", self.sec_asset, 0.0)


def combined_asset(profile: RelayProfile, params: GameParams) -> float:
    """Weighted asset combination driving both players' payoffs."""
    return params.weight_info * profile.info_asset + params.weight_security * profile.sec_asset


def psi(asset: float, q_i: float, params: GameParams) -> float:
    """psi_i(q) = A_i(1 - 2a*q_i - C_a): attacker payoff per unit of attack on relay i."""
    return asset * (1 - 2 * params.detect_rate * q_i - params.attack_cost)


def phi(asset: float, p_i: float, params: GameParams) -> float:
    """phi_i(p) = A_i(p_i(2a + beta*C_f) - (beta*C_f + C_m)): source payoff per unit
    of selecting relay i, apart from the -p_i*A_i attack loss no selection avoids."""
    bcf = params.false_alarm_rate * params.false_alarm_loss
    return asset * (p_i * (2 * params.detect_rate + bcf) - (bcf + params.monitor_cost))


def _relay_utility(asset: float, p_i: float, q_i: float, params: GameParams):
    u_att = p_i * psi(asset, q_i, params)
    u_src = q_i * phi(asset, p_i, params) - p_i * asset
    return u_att + 0.0, u_src + 0.0  # + 0.0 normalizes negative zero


@dataclass(frozen=True)
class MixedStrategy:
    """Probability vector over the relay list (positional)."""

    probs: tuple[float, ...]

    def __post_init__(self) -> None:
        if not self.probs:
            raise ValidationError("mixed strategy must have at least one entry")
        for k, p in enumerate(self.probs):
            check_range(f"strategy entry {k}", p, 0.0, 1.0)
        total = sum(self.probs)
        if abs(total - 1.0) > STRATEGY_SUM_TOL:
            raise ValidationError(f"strategy entries sum to {total!r}, not 1")


@dataclass(frozen=True)
class TargetPartition:
    """Sensible / quasi-sensible / non-sensible split of the relay ids.

    ``sensible`` is ordered by combined asset descending (ties by id); it is a
    prefix of that full ordering.  ``threshold`` is the common asset bound all
    three membership tests compare against.
    """

    sensible: tuple[int, ...]
    quasi_sensible: tuple[int, ...]
    non_sensible: tuple[int, ...]
    threshold: float


@dataclass(frozen=True)
class EquilibriumSolution:
    """Mixed equilibrium (P*, Q*) plus the indifference payoffs it equalizes.

    Strategy entries are positional, aligned with the profile list handed to
    the solver.  ``lambda_attacker`` is the common per-unit-attack payoff and
    ``lambda_source`` the common per-unit-selection payoff over the sensible
    set.  ``per_relay`` holds (attacker, source) expected utilities per relay.
    """

    partition: TargetPartition
    attacker: MixedStrategy
    source: MixedStrategy
    lambda_attacker: float
    lambda_source: float
    per_relay: tuple[tuple[float, float], ...]


def _checked_assets(profiles, params) -> list[float]:
    if len(profiles) < 1:
        raise ValidationError("need at least one relay")
    ids = [pr.id for pr in profiles]
    if len(set(ids)) != len(ids):
        raise ValidationError(f"duplicate relay ids in {ids}")
    assets = [combined_asset(pr, params) for pr in profiles]
    for pr, a in zip(profiles, assets):
        check_range(f"relay {pr.id} combined asset", a, 0.0, lo_open=True)
    return assets


def _prefix_threshold(m: int, inv_asset_prefix_sum: float, params: GameParams) -> float:
    # (m(1-C_a) - 2a) / ((1-C_a) * sum_{j<=m} 1/A_j)
    one_minus_ca = 1.0 - params.attack_cost
    return (m * one_minus_ca - 2.0 * params.detect_rate) / (one_minus_ca * inv_asset_prefix_sum)


def _is_quasi(asset: float, threshold: float) -> bool:
    return abs(asset - threshold) <= QUASI_REL_TOL * max(abs(asset), abs(threshold))


def partition_targets(profiles, params: GameParams) -> TargetPartition:
    """Split relays into sensible / quasi-sensible / non-sensible sets.

    Relays are ordered by combined asset descending (ties by id).  The
    sensible prefix length m is the unique one where asset_m strictly exceeds
    the prefix threshold while asset_{m+1} does not; if even the largest asset
    fails that test the game has no proper sensible set and is degenerate.
    """
    assets = _checked_assets(profiles, params)
    if 1.0 - params.attack_cost <= 0.0:
        raise DegenerateGameError(
            f"attack_cost={params.attack_cost} >= 1 leaves the target threshold undefined")

    order = sorted(range(len(profiles)), key=lambda k: (-assets[k], profiles[k].id))
    largest = assets[order[0]]
    inv_sum = 1.0 / largest
    threshold = _prefix_threshold(1, inv_sum, params)
    if not (largest > threshold) or _is_quasi(largest, threshold):
        raise DegenerateGameError(
            "no sensible target set exists: even the largest combined asset "
            f"({largest}) does not exceed its own-prefix threshold ({threshold}); "
            "this happens e.g. when detect_rate is 0")

    m = 1
    while (m < len(order) and (nxt := assets[order[m]]) > threshold
           and not _is_quasi(nxt, threshold)):
        inv_sum += 1.0 / nxt
        m += 1
        threshold = _prefix_threshold(m, inv_sum, params)

    quasi, non = [], []
    for k in order[m:]:
        (quasi if _is_quasi(assets[k], threshold) else non).append(profiles[k].id)
    return TargetPartition(
        sensible=tuple(profiles[k].id for k in order[:m]),
        quasi_sensible=tuple(quasi),
        non_sensible=tuple(non),
        threshold=threshold,
    )


def solve_equilibrium(profiles, params: GameParams) -> EquilibriumSolution:
    """Compute the mixed-strategy equilibrium over the sensible target set.

    Both closed forms come from indifference: the source's probabilities
    equalize the attacker's per-unit-attack payoff at ``lambda_attacker``
    across sensible relays, and the attacker's probabilities equalize the
    source's per-unit-selection payoff at ``lambda_source``.  Quasi-sensible
    relays admit a whole interval of attack probabilities; they are reported
    as 0 (annotated via the partition) which keeps both vectors normalized.

    Raises InfeasibleEquilibriumError when the closed forms leave [0, 1] or
    fail a best-response check against an excluded relay: those parameter
    combinations are outside the model's validity region and clamping would
    silently misreport them.
    """
    partition = partition_targets(profiles, params)
    assets = [combined_asset(pr, params) for pr in profiles]
    position = {pr.id: k for k, pr in enumerate(profiles)}
    sensible = [position[i] for i in partition.sensible]
    m = len(sensible)

    a = params.detect_rate
    ca = params.attack_cost
    bcf = params.false_alarm_rate * params.false_alarm_loss
    cm = params.monitor_cost
    inv_sum = sum(1.0 / assets[k] for k in sensible)

    lam_attacker = (m * (1.0 - ca) - 2.0 * a) / inv_sum
    lam_source = (2.0 * a + bcf - m * (bcf + cm)) / inv_sum

    # Round-off correction only: values a hair past a boundary (the exact
    # closed forms sit on it, e.g. q = 1 for a lone sensible relay) snap back;
    # genuinely out-of-range values still raise rather than clamp.
    def snapped(value: float, k: int) -> float:
        if -1e-12 <= value < 0.0:
            return 0.0
        if 1.0 < value <= 1.0 + 1e-12:
            return 1.0
        if not 0.0 <= value <= 1.0:
            raise InfeasibleEquilibriumError(
                f"relay {profiles[k].id}: closed-form probability {value} leaves [0, 1]; "
                "parameters are outside the model's validity region")
        return value

    q = [0.0] * len(profiles)
    p = [0.0] * len(profiles)
    for k in sensible:
        q[k] = snapped((1.0 / (2.0 * a)) * (1.0 - ca - lam_attacker / assets[k]), k)
    for k in sensible:
        p[k] = snapped(((bcf + cm) + lam_source / assets[k]) / (2.0 * a + bcf), k)
    for i in partition.quasi_sensible + partition.non_sensible:
        # Source must not prefer an excluded relay over the common payoff.
        if phi(assets[position[i]], 0.0, params) > lam_source:
            raise InfeasibleEquilibriumError(
                f"relay {i}: the source would deviate to this excluded relay "
                "(monitoring/false-alarm burden too high for an equilibrium)")

    per_relay = tuple(_relay_utility(ak, pk, qk, params) for ak, pk, qk in zip(assets, p, q))
    return EquilibriumSolution(
        partition=partition,
        attacker=MixedStrategy(tuple(p)),
        source=MixedStrategy(tuple(q)),
        lambda_attacker=lam_attacker,
        lambda_source=lam_source,
        per_relay=per_relay,
    )


def diagnostic_attack_strategy(profiles, params: GameParams,
                               partition: TargetPartition) -> tuple[float, ...]:
    """Variant attack vector that drops the additive indifference offset, over
    the solver's ``partition`` of these profiles.

    Kept purely for diagnostic comparison: it does not equalize the source's
    per-unit-selection payoff and generally does not sum to one.
    """
    assets = [combined_asset(pr, params) for pr in profiles]
    position = {pr.id: k for k, pr in enumerate(profiles)}
    sensible = [position[i] for i in partition.sensible]
    m = len(sensible)
    bcf = params.false_alarm_rate * params.false_alarm_loss
    ratio = (bcf + params.monitor_cost) / (2.0 * params.detect_rate + bcf)
    inv_sum = sum(1.0 / assets[k] for k in sensible)

    out = [0.0] * len(profiles)
    for k in sensible:
        base = 1.0 / (assets[k] * inv_sum)
        out[k] = base - m * base * ratio
    return tuple(out)


def verify_equilibrium(p: MixedStrategy, q: MixedStrategy, profiles, params: GameParams) -> dict:
    """Best-response oracle: scan every pure deviation of both players.

    Both total utilities are linear in the deviating player's own vector, so
    the largest achievable unilateral improvement is attained at a pure
    strategy; the reported gains are exact deviation bounds, independent of
    the closed forms used by the solver.  Returns the solve bundle's
    ``verification`` section: both gains, ``tolerance`` and ``is_equilibrium``
    (both gains at most the tolerance).  Wrap a plain vector in ``MixedStrategy``.
    """
    pv, qv = p.probs, q.probs
    if len(pv) != len(profiles) or len(qv) != len(profiles):
        raise ValidationError(
            f"strategy lengths ({len(pv)}, {len(qv)}) do not match {len(profiles)} relays")
    assets = _checked_assets(profiles, params)
    # Per-unit payoffs of each pure deviation; the source's shared -p.A term
    # cancels in its gain.
    att = [psi(ai, qi, params) for ai, qi in zip(assets, qv)]
    src = [phi(ai, pi, params) for ai, pi in zip(assets, pv)]
    u_att = sum(pi * s for pi, s in zip(pv, att))
    u_src = sum(qi * s for qi, s in zip(qv, src))
    attacker_gain, source_gain = max(att) - u_att, max(src) - u_src
    return {
        "attacker_gain": attacker_gain,
        "source_gain": source_gain,
        "tolerance": VERIFY_TOL,
        "is_equilibrium": attacker_gain <= VERIFY_TOL and source_gain <= VERIFY_TOL,
    }
