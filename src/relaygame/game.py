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
    DimensionError,
    InfeasibleEquilibriumError,
    ValidationError,
)

#: Relative tolerance deciding quasi-sensible membership (asset == threshold).
QUASI_REL_TOL = 1e-9

#: Tolerance on mixed-strategy normalization.
STRATEGY_SUM_TOL = 1e-9


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise ValidationError(message)


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
        _require(0.0 <= self.detect_rate <= 1.0, "detect_rate must be in [0, 1]")
        _require(0.0 <= self.false_alarm_rate <= 1.0, "false_alarm_rate must be in [0, 1]")
        for name in ("attack_cost", "monitor_cost", "false_alarm_loss"):
            _require(getattr(self, name) >= 0.0, f"{name} must be >= 0")
        _require(self.weight_info >= 0.0, "weight_info must be >= 0")
        _require(self.weight_security >= 0.0, "weight_security must be >= 0")
        _require(self.weight_info + self.weight_security > 0.0,
                 "asset weights must not both be zero")


@dataclass(frozen=True)
class RelayProfile:
    """One candidate relay's value to the players."""

    id: int
    info_asset: float   # normalized channel-quality score
    sec_asset: float    # normalized security-importance score

    def __post_init__(self) -> None:
        _require(self.info_asset >= 0.0, f"relay {self.id}: info_asset must be >= 0")
        _require(self.sec_asset >= 0.0, f"relay {self.id}: sec_asset must be >= 0")


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


def cell_utilities(
    params: GameParams, asset: float, attack: bool, select: bool
) -> tuple[float, float]:
    """(attacker, source) utility for one pure-action cell on a single relay."""
    return _relay_utility(asset, float(attack), float(select), params)


@dataclass(frozen=True)
class MixedStrategy:
    """Probability vector over the relay list (positional)."""

    probs: tuple[float, ...]

    def __post_init__(self) -> None:
        if not self.probs:
            raise DimensionError("mixed strategy must have at least one entry")
        for k, p in enumerate(self.probs):
            if not 0.0 <= p <= 1.0:
                raise ValidationError(f"strategy entry {k} is {p}, outside [0, 1]")
        total = sum(self.probs)
        if abs(total - 1.0) > STRATEGY_SUM_TOL:
            raise ValidationError(f"strategy entries sum to {total!r}, not 1")

    def __len__(self) -> int:
        return len(self.probs)


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

    @property
    def cardinality(self) -> int:
        return len(self.sensible)


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


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of the pure-deviation scan of verify_equilibrium."""

    attacker_gain: float
    source_gain: float
    attacker_best_id: int
    source_best_id: int
    tolerance: float

    @property
    def is_equilibrium(self) -> bool:
        return self.attacker_gain <= self.tolerance and self.source_gain <= self.tolerance


def _checked_assets(profiles, params) -> list[float]:
    _require(len(profiles) >= 1, "need at least one relay")
    ids = [pr.id for pr in profiles]
    _require(len(set(ids)) == len(ids), f"duplicate relay ids in {ids}")
    assets = [combined_asset(pr, params) for pr in profiles]
    for pr, a in zip(profiles, assets):
        if a <= 0.0:
            raise ValidationError(f"relay {pr.id}: combined asset must be > 0, got {a}")
    return assets


def _strategy_pair(p, q, n: int) -> tuple[tuple[float, ...], tuple[float, ...]]:
    pv = tuple(p.probs) if isinstance(p, MixedStrategy) else tuple(p)
    qv = tuple(q.probs) if isinstance(q, MixedStrategy) else tuple(q)
    if len(pv) != n or len(qv) != n:
        raise DimensionError(
            f"strategy lengths ({len(pv)}, {len(qv)}) do not match {n} relays")
    return pv, qv


def _relay_utilities(p, q, profiles, params: GameParams) -> list[tuple[float, float]]:
    pv, qv = _strategy_pair(p, q, len(profiles))
    assets = _checked_assets(profiles, params)
    return [_relay_utility(ai, pi, qi, params) for ai, pi, qi in zip(assets, pv, qv)]


def attacker_total_utility(p, q, profiles, params: GameParams) -> float:
    """Expected attacker payoff: sum_i p_i * psi_i(q)."""
    return sum(u for u, _ in _relay_utilities(p, q, profiles, params))


def source_total_utility(p, q, profiles, params: GameParams) -> float:
    """Expected source payoff: sum_i (q_i * phi_i(p) - p_i * A_i)."""
    return sum(u for _, u in _relay_utilities(p, q, profiles, params))


def per_relay_utility(
    profile: RelayProfile, p_i: float, q_i: float, params: GameParams
) -> tuple[float, float]:
    """(attacker, source) expected utility contributed by a single relay."""
    return _relay_utility(combined_asset(profile, params), p_i, q_i, params)


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
    assets_by_pos = _checked_assets(profiles, params)
    if 1.0 - params.attack_cost <= 0.0:
        raise DegenerateGameError(
            f"attack_cost={params.attack_cost} >= 1 leaves the target threshold undefined")

    order = sorted(range(len(profiles)),
                   key=lambda k: (-assets_by_pos[k], profiles[k].id))
    assets = [assets_by_pos[k] for k in order]
    ids = [profiles[k].id for k in order]
    n = len(assets)

    inv_sum = 1.0 / assets[0]
    threshold = _prefix_threshold(1, inv_sum, params)
    if not (assets[0] > threshold) or _is_quasi(assets[0], threshold):
        raise DegenerateGameError(
            "no sensible target set exists: even the largest combined asset "
            f"({assets[0]}) does not exceed its own-prefix threshold ({threshold}); "
            "this happens e.g. when detect_rate is 0")

    m = 1
    while m < n:
        nxt = assets[m]
        if nxt > threshold and not _is_quasi(nxt, threshold):
            inv_sum += 1.0 / nxt
            m += 1
            threshold = _prefix_threshold(m, inv_sum, params)
        else:
            break

    quasi = tuple(ids[k] for k in range(m, n) if _is_quasi(assets[k], threshold))
    non = tuple(ids[k] for k in range(m, n) if not _is_quasi(assets[k], threshold))
    return TargetPartition(
        sensible=tuple(ids[:m]),
        quasi_sensible=quasi,
        non_sensible=non,
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
    assets = {pr.id: combined_asset(pr, params) for pr in profiles}
    sensible = partition.sensible
    m = len(sensible)

    a = params.detect_rate
    ca = params.attack_cost
    bcf = params.false_alarm_rate * params.false_alarm_loss
    cm = params.monitor_cost
    inv_sum = sum(1.0 / assets[i] for i in sensible)

    lam_attacker = (m * (1.0 - ca) - 2.0 * a) / inv_sum
    lam_source = (2.0 * a + bcf - m * (bcf + cm)) / inv_sum

    q_by_id = {i: (1.0 / (2.0 * a)) * (1.0 - ca - lam_attacker / assets[i])
               for i in sensible}
    p_by_id = {i: ((bcf + cm) + lam_source / assets[i]) / (2.0 * a + bcf)
               for i in sensible}

    # Round-off correction only: values a hair past a boundary (the exact
    # closed forms sit on it, e.g. q = 1 for a lone sensible relay) snap back;
    # genuinely out-of-range values still raise rather than clamp.
    def snapped(value: float, relay: int) -> float:
        if -1e-12 <= value < 0.0:
            return 0.0
        if 1.0 < value <= 1.0 + 1e-12:
            return 1.0
        if not 0.0 <= value <= 1.0:
            raise InfeasibleEquilibriumError(
                f"relay {relay}: closed-form probability {value} leaves [0, 1]; "
                "parameters are outside the model's validity region")
        return value

    q_by_id = {i: snapped(v, i) for i, v in q_by_id.items()}
    p_by_id = {i: snapped(v, i) for i, v in p_by_id.items()}
    for i in partition.quasi_sensible + partition.non_sensible:
        # Source must not prefer an excluded relay over the common payoff.
        if -assets[i] * (bcf + cm) > lam_source:
            raise InfeasibleEquilibriumError(
                f"relay {i}: the source would deviate to this excluded relay "
                "(monitoring/false-alarm burden too high for an equilibrium)")

    p_vec = tuple(p_by_id.get(pr.id, 0.0) for pr in profiles)
    q_vec = tuple(q_by_id.get(pr.id, 0.0) for pr in profiles)
    per_relay = tuple(
        _relay_utility(assets[pr.id], pi, qi, params)
        for pr, pi, qi in zip(profiles, p_vec, q_vec)
    )
    return EquilibriumSolution(
        partition=partition,
        attacker=MixedStrategy(p_vec),
        source=MixedStrategy(q_vec),
        lambda_attacker=lam_attacker,
        lambda_source=lam_source,
        per_relay=per_relay,
    )


def diagnostic_attack_strategy(profiles, params: GameParams) -> tuple[float, ...]:
    """Variant attack vector that drops the additive indifference offset.

    Kept purely for diagnostic comparison: it does not equalize the source's
    per-unit-selection payoff and generally does not sum to one.
    """
    partition = partition_targets(profiles, params)
    assets = {pr.id: combined_asset(pr, params) for pr in profiles}
    sensible = set(partition.sensible)
    m = len(sensible)
    bcf = params.false_alarm_rate * params.false_alarm_loss
    ratio = (bcf + params.monitor_cost) / (2.0 * params.detect_rate + bcf)
    inv_sum = sum(1.0 / assets[i] for i in partition.sensible)

    out = []
    for pr in profiles:
        if pr.id in sensible:
            base = 1.0 / (assets[pr.id] * inv_sum)
            out.append(base - m * base * ratio)
        else:
            out.append(0.0)
    return tuple(out)


def verify_equilibrium(
    p, q, profiles, params: GameParams, tolerance: float = 1e-9
) -> VerificationReport:
    """Best-response oracle: scan every pure deviation of both players.

    Both total utilities are linear in the deviating player's own vector, so
    the largest achievable unilateral improvement is attained at a pure
    strategy; the reported gains are exact deviation bounds, independent of
    the closed forms used by the solver.
    """
    pv, qv = _strategy_pair(p, q, len(profiles))
    assets = _checked_assets(profiles, params)
    # Per-unit payoffs of each pure deviation; the source's shared -p.A term
    # cancels in its gain.
    att = [psi(ai, qi, params) for ai, qi in zip(assets, qv)]
    src = [phi(ai, pi, params) for ai, pi in zip(assets, pv)]
    u_att = sum(pi * s for pi, s in zip(pv, att))
    u_src = sum(qi * s for qi, s in zip(qv, src))
    best_att = max(range(len(att)), key=lambda k: (att[k], -profiles[k].id))
    best_src = max(range(len(src)), key=lambda k: (src[k], -profiles[k].id))

    return VerificationReport(
        attacker_gain=att[best_att] - u_att,
        source_gain=src[best_src] - u_src,
        attacker_best_id=profiles[best_att].id,
        source_best_id=profiles[best_src].id,
        tolerance=tolerance,
    )
