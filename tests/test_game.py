"""Game core: payoffs, partition, equilibrium and the deviation oracle."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from relaygame.errors import (
    DegenerateGameError,
    DimensionError,
    InfeasibleEquilibriumError,
    ValidationError,
)
from relaygame.game import (
    GameParams,
    MixedStrategy,
    RelayProfile,
    attacker_total_utility,
    cell_utilities,
    combined_asset,
    diagnostic_attack_strategy,
    partition_targets,
    per_relay_utility,
    solve_equilibrium,
    source_total_utility,
    verify_equilibrium,
)

from conftest import make_profiles, random_instance

# Expected equilibria, frozen from the closed forms and cross-checked against
# the published preset tables (5 printed figures).
MILITARY_P = (0.23256, 0.30814, 0.4593, 0.0)
MILITARY_Q = (0.4, 0.35, 0.25, 0.0)
MILITARY_UTIL = ((0.062792, -0.069271), (0.083198, -0.088225),
                 (0.12401, -0.12759), (0.0, 0.0))
COMMERCIAL_P = (0.26984, 0.31746, 0.4127, 0.0)
COMMERCIAL_Q = (0.46154, 0.36538, 0.17308, 0.0)
COMMERCIAL_UTIL = ((0.093407, -0.18676), (0.10989, -0.17233),
                   (0.14286, -0.1752), (0.0, 0.0))


def test_combined_asset_examples():
    p = GameParams(0.9, 0.05, 0.01, 0.01, 0.01, weight_info=0.5, weight_security=0.5)
    assert combined_asset(RelayProfile(1, 1.0, 1.0), p) == pytest.approx(1.0)
    p2 = GameParams(0.9, 0.05, 0.01, 0.01, 0.01, weight_info=0.0, weight_security=2.0)
    assert combined_asset(RelayProfile(1, 7.0, 0.3), p2) == pytest.approx(0.6)


def test_combined_asset_preset_values(military):
    for pr, expected in zip(military.profiles, (1.0, 0.75, 0.5, 0.25)):
        assert combined_asset(pr, military.game) == pytest.approx(expected)


def test_cell_utilities_examples(military_params):
    assert cell_utilities(military_params, 1.0, attack=True, select=True) == \
        pytest.approx((-0.81, 0.79))
    assert cell_utilities(military_params, 1.0, attack=False, select=False) == (0.0, 0.0)
    assert cell_utilities(military_params, 1.0, attack=False, select=True) == \
        pytest.approx((0.0, -0.0105))
    assert cell_utilities(military_params, 1.0, attack=True, select=False) == \
        pytest.approx((0.99, -1.0))


@given(detect=st.floats(0.0, 1.0), false_alarm=st.floats(0.0, 1.0),
       costs=st.tuples(st.floats(0.0, 2.0), st.floats(0.0, 2.0), st.floats(0.0, 2.0)),
       info=st.floats(0.0, 10.0), sec=st.floats(0.0, 10.0))
@settings(max_examples=100, deadline=None)
def test_cell_utilities_are_per_relay_utility_at_corners(detect, false_alarm, costs, info, sec):
    attack_cost, monitor_cost, false_alarm_loss = costs
    params = GameParams(detect_rate=detect, false_alarm_rate=false_alarm,
                        attack_cost=attack_cost, monitor_cost=monitor_cost,
                        false_alarm_loss=false_alarm_loss)
    profile = RelayProfile(id=1, info_asset=info, sec_asset=sec)
    asset = combined_asset(profile, params)
    # The four pure-action cells of one relay, written out from the model.
    cells = {
        (True, True): ((1 - 2 * detect - attack_cost) * asset,
                       -(1 - 2 * detect + monitor_cost) * asset),
        (True, False): ((1 - attack_cost) * asset, -asset),
        (False, True): (0.0, -(false_alarm * false_alarm_loss + monitor_cost) * asset),
        (False, False): (0.0, 0.0),
    }
    for (attack, select), expected in cells.items():
        cell = cell_utilities(params, asset, attack, select)
        assert cell == per_relay_utility(profile, float(attack), float(select), params)
        assert cell == pytest.approx(expected, rel=1e-12, abs=1e-12)


def test_total_utilities_degenerate(military_params):
    profiles = make_profiles([1.0, 0.75, 0.5, 0.25])
    on_first = MixedStrategy((1.0, 0.0, 0.0, 0.0))
    assert attacker_total_utility(on_first, on_first, profiles, military_params) == \
        pytest.approx(-0.81)
    # Matches the (attack, select) source cell for asset 1.
    assert source_total_utility(on_first, on_first, profiles, military_params) == \
        pytest.approx(0.79)


def test_total_utilities_at_equilibrium(military):
    sol = solve_equilibrium(military.profiles, military.game)
    u_att = attacker_total_utility(sol.attacker, sol.source, military.profiles, military.game)
    u_src = source_total_utility(sol.attacker, sol.source, military.profiles, military.game)
    assert u_att == pytest.approx(sum(u for u, _ in MILITARY_UTIL), abs=1e-4)
    assert u_src == pytest.approx(sum(u for _, u in MILITARY_UTIL), abs=1e-4)
    # The attacker's total equals the common per-unit-attack payoff.
    assert u_att == pytest.approx(sol.lambda_attacker, abs=1e-12)


def test_total_utility_dimension_error(military_params):
    profiles = make_profiles([1.0, 0.5])
    with pytest.raises(DimensionError):
        attacker_total_utility((1.0,), (0.5, 0.5), profiles, military_params)
    with pytest.raises(DimensionError):
        source_total_utility((1.0, 0.0), (1.0,), profiles, military_params)


def test_mixed_strategy_validation():
    with pytest.raises(ValidationError):
        MixedStrategy((0.0, 0.0))            # sums to 0
    with pytest.raises(ValidationError):
        MixedStrategy((0.5, 0.6))            # sums past 1
    with pytest.raises(ValidationError):
        MixedStrategy((1.5, -0.5))           # entries off range
    with pytest.raises(DimensionError):
        MixedStrategy(())


def test_per_relay_utility_table_rows(military, commercial):
    u = per_relay_utility(military.profiles[0], 0.23256, 0.4, military.game)
    assert u == pytest.approx((0.062792, -0.069271), abs=2e-5)
    u = per_relay_utility(commercial.profiles[2], 0.4127, 0.17308, commercial.game)
    assert u == pytest.approx((0.14286, -0.1752), abs=2e-5)
    assert per_relay_utility(military.profiles[3], 0.0, 0.0, military.game) == (0.0, 0.0)


def test_partition_military(military):
    part = partition_targets(military.profiles, military.game)
    assert part.sensible == (1, 2, 3)
    assert part.quasi_sensible == ()
    assert part.non_sensible == (4,)
    assert part.cardinality == 3
    assert part.threshold == pytest.approx(0.27273, abs=1e-5)


def test_partition_commercial(commercial):
    part = partition_targets(commercial.profiles, commercial.game)
    assert part.sensible == (1, 2, 3)
    assert part.non_sensible == (4,)
    assert part.threshold == pytest.approx(0.38462, abs=1e-5)


def test_partition_single_relay(military_params):
    part = partition_targets(make_profiles([1.0]), military_params)
    assert part.sensible == (1,)
    assert part.threshold < 0  # negative threshold: lone relay always sensible


def test_partition_rejects_bad_inputs(military_params):
    with pytest.raises(ValidationError):
        partition_targets([RelayProfile(1, 0.0, 0.0)], military_params)
    zero_detection = GameParams(0.0, 0.05, 0.01, 0.01, 0.01)
    with pytest.raises(DegenerateGameError):
        partition_targets(make_profiles([1.0, 0.5]), zero_detection)
    consuming_cost = GameParams(0.9, 0.05, 1.0, 0.01, 0.01)
    with pytest.raises(DegenerateGameError):
        partition_targets(make_profiles([1.0, 0.5]), consuming_cost)
    with pytest.raises(ValidationError):
        partition_targets([], military_params)


def brute_force_cardinality(assets_desc, params):
    """Independent scan: test the two-branch prefix rule at every length."""
    k = len(assets_desc)
    valid = []
    for m in range(1, k + 1):
        inv = sum(1.0 / a for a in assets_desc[:m])
        thr = (m * (1 - params.attack_cost) - 2 * params.detect_rate) / \
            ((1 - params.attack_cost) * inv)
        cond1 = assets_desc[m - 1] > thr
        cond2 = (m == k) or (assets_desc[m] <= thr)
        if cond1 and cond2:
            valid.append(m)
    return valid


def test_partition_matches_brute_force_scan():
    rng = np.random.default_rng(20240811)
    for _ in range(500):
        profiles, params = random_instance(rng)
        part = partition_targets(profiles, params)
        assets = sorted((combined_asset(pr, params) for pr in profiles), reverse=True)
        valid = brute_force_cardinality(assets, params)
        assert valid == [part.cardinality]
        # Sensible prefix property: ids sorted by asset descending.
        by_asset = [pr.id for pr in sorted(
            profiles, key=lambda r: (-combined_asset(r, params), r.id))]
        assert list(part.sensible) == by_asset[:part.cardinality]


def test_quasi_sensible_membership(military_params):
    base = [1.0, 0.75, 0.5]
    inv = sum(1.0 / a for a in base)
    thr = (3 * 0.99 - 1.8) / (0.99 * inv)
    profiles = make_profiles(base + [thr])  # fourth relay sits exactly on the bound
    part = partition_targets(profiles, military_params)
    assert part.sensible == (1, 2, 3)
    assert part.quasi_sensible == (4,)
    sol = solve_equilibrium(profiles, military_params)
    assert sol.attacker.probs[3] == 0.0
    assert sol.source.probs[3] == 0.0
    check = verify_equilibrium(sol.attacker, sol.source, profiles, military_params)
    assert check.attacker_gain <= 1e-9  # attacker exactly indifferent at the bound


def test_solve_military(military):
    sol = solve_equilibrium(military.profiles, military.game)
    assert sol.attacker.probs == pytest.approx(MILITARY_P, abs=1e-4)
    assert sol.source.probs == pytest.approx(MILITARY_Q, abs=1e-4)
    for got, want in zip(sol.per_relay, MILITARY_UTIL):
        assert got == pytest.approx(want, abs=2e-5)
    assert sol.lambda_attacker == pytest.approx(0.27, abs=1e-9)


def test_solve_commercial(commercial):
    sol = solve_equilibrium(commercial.profiles, commercial.game)
    assert sol.attacker.probs == pytest.approx(COMMERCIAL_P, abs=1e-4)
    assert sol.source.probs == pytest.approx(COMMERCIAL_Q, abs=1e-4)
    for got, want in zip(sol.per_relay, COMMERCIAL_UTIL):
        assert got == pytest.approx(want, abs=2e-5)
    assert sol.lambda_source == pytest.approx(0.18, abs=1e-9)


def test_solve_single_relay(military_params):
    sol = solve_equilibrium(make_profiles([1.0]), military_params)
    assert sol.attacker.probs == pytest.approx((1.0,), abs=1e-12)
    assert sol.source.probs == pytest.approx((1.0,), abs=1e-12)


def test_solve_infeasible_raises():
    heavy_monitoring = GameParams(0.9, 0.05, 0.01, 50.0, 0.01)
    with pytest.raises(InfeasibleEquilibriumError):
        solve_equilibrium(make_profiles([1.0, 0.75, 0.5, 0.25]), heavy_monitoring)


def test_indifference_invariants(military):
    sol = solve_equilibrium(military.profiles, military.game)
    params = military.game
    a, ca = params.detect_rate, params.attack_cost
    bcf = params.false_alarm_rate * params.false_alarm_loss
    for k, pr in enumerate(military.profiles):
        asset = combined_asset(pr, params)
        attack_payoff = asset * (1 - 2 * a * sol.source.probs[k] - ca)
        select_payoff = asset * (sol.attacker.probs[k] * (2 * a + bcf)
                                 - (bcf + params.monitor_cost))
        if pr.id in sol.partition.sensible:
            assert attack_payoff == pytest.approx(sol.lambda_attacker, abs=1e-9)
            assert select_payoff == pytest.approx(sol.lambda_source, abs=1e-9)
        else:
            assert attack_payoff < sol.lambda_attacker
            assert select_payoff < 0


def test_verify_equilibrium_on_presets(military, commercial):
    for sc in (military, commercial):
        sol = solve_equilibrium(sc.profiles, sc.game)
        check = verify_equilibrium(sol.attacker, sol.source, sc.profiles, sc.game)
        assert check.attacker_gain <= 1e-9
        assert check.source_gain <= 1e-9
        assert check.is_equilibrium


def test_source_prefers_equilibrium_over_excluded_relay(military):
    """Putting all selection mass on a non-sensible relay is strictly worse."""
    sol = solve_equilibrium(military.profiles, military.game)
    at_equilibrium = source_total_utility(
        sol.attacker, sol.source, military.profiles, military.game)
    on_excluded = MixedStrategy((0.0, 0.0, 0.0, 1.0))
    displaced = source_total_utility(
        sol.attacker, on_excluded, military.profiles, military.game)
    assert displaced < at_equilibrium


def test_verify_flags_non_equilibrium(military):
    sol = solve_equilibrium(military.profiles, military.game)
    lopsided = MixedStrategy((1.0, 0.0, 0.0, 0.0))
    check = verify_equilibrium(lopsided, sol.source, military.profiles, military.game)
    # Attacker stays indifferent against Q*, but the source now has a target.
    assert check.attacker_gain <= 1e-9
    assert check.source_gain > 1e-6
    assert not check.is_equilibrium


def test_diagnostic_strategy_gap(military):
    """The offset-free variant misses P* by exactly the indifference constant."""
    params = military.game
    sol = solve_equilibrium(military.profiles, params)
    diag = diagnostic_attack_strategy(military.profiles, params)
    bcf = params.false_alarm_rate * params.false_alarm_loss
    offset = (bcf + params.monitor_cost) / (2 * params.detect_rate + bcf)
    for k, pr in enumerate(military.profiles):
        if pr.id in sol.partition.sensible:
            assert sol.attacker.probs[k] - diag[k] == pytest.approx(offset, abs=1e-12)
        else:
            assert diag[k] == 0.0
    assert sum(diag) != pytest.approx(1.0, abs=1e-6)  # the printed form is not normalized


@st.composite
def game_instances(draw):
    k = draw(st.integers(1, 8))
    assets = draw(st.lists(
        st.floats(0.05, 8.0, allow_nan=False), min_size=k, max_size=k))
    params = GameParams(
        detect_rate=draw(st.floats(0.3, 0.95)),
        false_alarm_rate=draw(st.floats(0.0, 0.3)),
        attack_cost=draw(st.floats(0.0, 0.3)),
        monitor_cost=draw(st.floats(0.0, 0.2)),
        false_alarm_loss=draw(st.floats(0.0, 0.3)),
    )
    return make_profiles(assets), params


@given(game_instances())
@settings(max_examples=150, deadline=None)
def test_no_deviation_property(instance):
    profiles, params = instance
    try:
        sol = solve_equilibrium(profiles, params)
    except InfeasibleEquilibriumError:
        assume(False)
    check = verify_equilibrium(sol.attacker, sol.source, profiles, params)
    assert check.attacker_gain <= 1e-9
    assert check.source_gain <= 1e-9
    assert abs(sum(sol.attacker.probs) - 1.0) <= 1e-9
    assert abs(sum(sol.source.probs) - 1.0) <= 1e-9


@given(game_instances(), st.floats(0.1, 50.0))
@settings(max_examples=80, deadline=None)
def test_scale_covariance(instance, c):
    profiles, params = instance
    try:
        sol = solve_equilibrium(profiles, params)
    except InfeasibleEquilibriumError:
        assume(False)
    scaled = [RelayProfile(pr.id, pr.info_asset * c, pr.sec_asset * c) for pr in profiles]
    sol_c = solve_equilibrium(scaled, params)
    assert sol_c.attacker.probs == pytest.approx(sol.attacker.probs, abs=1e-9)
    assert sol_c.source.probs == pytest.approx(sol.source.probs, abs=1e-9)
    assert sol_c.lambda_attacker == pytest.approx(sol.lambda_attacker * c, rel=1e-9)
    assert sol_c.lambda_source == pytest.approx(sol.lambda_source * c, rel=1e-9, abs=1e-12)
    for (ua, us), (ua_c, us_c) in zip(sol.per_relay, sol_c.per_relay):
        assert ua_c == pytest.approx(ua * c, rel=1e-9, abs=1e-12)
        assert us_c == pytest.approx(us * c, rel=1e-9, abs=1e-12)


def test_duplicate_ids_rejected(military_params):
    profiles = [RelayProfile(1, 1.0, 1.0), RelayProfile(1, 0.5, 0.5)]
    with pytest.raises(ValidationError):
        partition_targets(profiles, military_params)


def test_tie_break_by_id(military_params):
    profiles = [RelayProfile(3, 1.0, 1.0), RelayProfile(1, 1.0, 1.0),
                RelayProfile(2, 0.5, 0.5)]
    part = partition_targets(profiles, military_params)
    assert part.sensible[0] == 1  # equal assets order by id ascending
    assert part.sensible[1] == 3


def test_game_params_validation():
    with pytest.raises(ValidationError):
        GameParams(1.5, 0.05, 0.01, 0.01, 0.01)
    with pytest.raises(ValidationError):
        GameParams(0.9, -0.1, 0.01, 0.01, 0.01)
    with pytest.raises(ValidationError):
        GameParams(0.9, 0.05, -0.01, 0.01, 0.01)
    with pytest.raises(ValidationError):
        GameParams(0.9, 0.05, 0.01, 0.01, 0.01, weight_info=0.0, weight_security=0.0)
    with pytest.raises(ValidationError):
        RelayProfile(1, -1.0, 0.5)
