"""Game core: payoffs, partition, equilibrium and the deviation oracle."""

import re
from dataclasses import replace
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from relaygame.errors import (
    InfeasibleEquilibriumError,
    ValidationError,
)
from relaygame.game import (
    GameParams,
    MixedStrategy,
    RelayProfile,
    combined_asset,
    diagnostic_attack_strategy,
    partition_targets,
    phi,
    psi,
    solve_equilibrium,
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


def total_utilities(p, q, profiles, params):
    """(attacker, source) expected payoffs: sum_i p_i * psi_i(q) and
    sum_i (q_i * phi_i(p) - p_i * A_i)."""
    assets = [combined_asset(pr, params) for pr in profiles]
    return (sum(pi * psi(a, qi, params) for a, pi, qi in zip(assets, p, q)),
            sum(qi * phi(a, pi, params) - pi * a for a, pi, qi in zip(assets, p, q)))


def test_cell_utilities_examples(military_params):
    # The pure-action cells of a unit-asset relay.
    assert total_utilities((1.0,), (1.0,), make_profiles([1.0]), military_params) == \
        pytest.approx((-0.81, 0.79))
    assert phi(1.0, 0.0, military_params) == pytest.approx(-0.0105)  # select only
    assert psi(1.0, 0.0, military_params) == pytest.approx(0.99)     # attack only


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
        cell = total_utilities((float(attack),), (float(select),), [profile], params)
        assert cell == pytest.approx(expected, rel=1e-12, abs=1e-12)


def test_total_utilities_degenerate(military_params):
    profiles = make_profiles([1.0, 0.75, 0.5, 0.25])
    on_first = (1.0, 0.0, 0.0, 0.0)
    # Matches the (attack, select) cell for asset 1.
    assert total_utilities(on_first, on_first, profiles, military_params) == \
        pytest.approx((-0.81, 0.79))


def test_total_utilities_at_equilibrium(military):
    sol = solve_equilibrium(military.profiles, military.game)
    u_att, u_src = total_utilities(sol.attacker.probs, sol.source.probs,
                                   military.profiles, military.game)
    assert u_att == pytest.approx(sum(u for u, _ in MILITARY_UTIL), abs=1e-4)
    assert u_src == pytest.approx(sum(u for _, u in MILITARY_UTIL), abs=1e-4)
    # The per-relay utilities the bundles print add up to the same totals.
    assert u_att == pytest.approx(sum(u for u, _ in sol.per_relay), abs=1e-12)
    assert u_src == pytest.approx(sum(u for _, u in sol.per_relay), abs=1e-12)
    # The attacker's total equals the common per-unit-attack payoff.
    assert u_att == pytest.approx(sol.lambda_attacker, abs=1e-12)


def test_total_utility_dimension_error(military_params):
    profiles = make_profiles([1.0, 0.5])
    with pytest.raises(ValidationError,
                       match=r"^strategy lengths \(1, 2\) do not match 2 relays$"):
        verify_equilibrium(MixedStrategy((1.0,)), MixedStrategy((0.5, 0.5)),
                           profiles, military_params)
    with pytest.raises(ValidationError,
                       match=r"^strategy lengths \(2, 1\) do not match 2 relays$"):
        verify_equilibrium(MixedStrategy((1.0, 0.0)), MixedStrategy((1.0,)),
                           profiles, military_params)


def test_mixed_strategy_validation():
    with pytest.raises(ValidationError):
        MixedStrategy((0.0, 0.0))            # sums to 0
    with pytest.raises(ValidationError):
        MixedStrategy((0.5, 0.6))            # sums past 1
    with pytest.raises(ValidationError):
        MixedStrategy((1.5, -0.5))           # entries off range
    with pytest.raises(ValidationError, match="^strategy entry 0 "):
        MixedStrategy((float("nan"), 1.0, 0.0, 0.0))
    with pytest.raises(ValidationError, match="^mixed strategy must have at least one entry$"):
        MixedStrategy(())


def test_per_relay_utility_table_rows(military, commercial):
    mil = solve_equilibrium(military.profiles, military.game).per_relay
    com = solve_equilibrium(commercial.profiles, commercial.game).per_relay
    assert mil[0] == pytest.approx((0.062792, -0.069271), abs=2e-5)
    assert com[2] == pytest.approx((0.14286, -0.1752), abs=2e-5)
    assert mil[3] == (0.0, 0.0)


def test_partition_military(military):
    part = partition_targets(military.profiles, military.game)
    assert part.sensible == (1, 2, 3)
    assert part.quasi_sensible == ()
    assert part.non_sensible == (4,)
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
    with pytest.raises(InfeasibleEquilibriumError, match=re.escape(
            "no sensible target set exists: even the largest combined asset (1.0) does not "
            "exceed its own-prefix threshold (1.0); this happens e.g. when detect_rate is 0")):
        partition_targets(make_profiles([1.0, 0.5]), zero_detection)
    consuming_cost = GameParams(0.9, 0.05, 1.0, 0.01, 0.01)
    with pytest.raises(InfeasibleEquilibriumError, match=re.escape(
            "attack_cost=1.0 >= 1 leaves the target threshold undefined")):
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
        assert valid == [len(part.sensible)]
        # Sensible prefix property: ids sorted by asset descending.
        by_asset = [pr.id for pr in sorted(
            profiles, key=lambda r: (-combined_asset(r, params), r.id))]
        assert list(part.sensible) == by_asset[:len(part.sensible)]


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
    assert check["attacker_gain"] <= 1e-9  # attacker exactly indifferent at the bound


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


def test_solve_refuses_a_source_deviation_to_an_excluded_relay():
    # Sensible {1, 2}, where the source's common payoff is -0.4 / (1/2 + 1/1.5)
    # = -0.343; the excluded relay 4 would pay it -0.5 * 0.5 = -0.25.
    params = GameParams(0.3, 0.0, 0.0, 0.5, 0.0)
    with pytest.raises(InfeasibleEquilibriumError,
                       match="^relay 4: the source would deviate to this excluded relay"):
        solve_equilibrium(make_profiles([2.0, 1.5, 1.0, 0.5]), params)


def test_round_off_below_zero_snaps_to_zero():
    # The raw closed form puts relay 2's attack probability at -4.4e-15: a hair
    # below the boundary it sits on, so the solver reports exactly 0.0.
    profiles = [RelayProfile(1, 2.0, 0.0), RelayProfile(2, 1.9, 0.0)]
    params = GameParams(0.1, 0.0, 0.0, 4.0, 0.0, weight_info=1.0, weight_security=0.0)
    sol = solve_equilibrium(profiles, params)
    assert sol.attacker.probs == (0.9999999999999987, 0.0)
    check = verify_equilibrium(sol.attacker, sol.source, profiles, params)
    assert check["attacker_gain"] <= 1e-9 and check["source_gain"] <= 1e-9
    # A little more monitoring cost and the same value is out of range, not snapped.
    with pytest.raises(InfeasibleEquilibriumError, match=r"^relay 1: .* 1\.0128"):
        solve_equilibrium(profiles, replace(params, monitor_cost=4.1))


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
        assert check["attacker_gain"] <= 1e-9
        assert check["source_gain"] <= 1e-9
        assert check["tolerance"] == 1e-9
        assert check["is_equilibrium"] is True


def test_source_prefers_equilibrium_over_excluded_relay(military):
    """Putting all selection mass on a non-sensible relay is strictly worse."""
    sol = solve_equilibrium(military.profiles, military.game)
    _, at_equilibrium = total_utilities(
        sol.attacker.probs, sol.source.probs, military.profiles, military.game)
    _, displaced = total_utilities(
        sol.attacker.probs, (0.0, 0.0, 0.0, 1.0), military.profiles, military.game)
    assert displaced < at_equilibrium


def test_verify_flags_non_equilibrium(military):
    sol = solve_equilibrium(military.profiles, military.game)
    lopsided = MixedStrategy((1.0, 0.0, 0.0, 0.0))
    check = verify_equilibrium(lopsided, sol.source, military.profiles, military.game)
    # Attacker stays indifferent against Q*, but the source now has a target.
    assert check["attacker_gain"] <= 1e-9
    assert check["source_gain"] > 1e-6
    assert check["is_equilibrium"] is False


def test_verify_calls_a_nan_gain_no_equilibrium(military):
    sol = solve_equilibrium(military.profiles, military.game)
    nan_probs = (float("nan"), 1.0, 0.0, 0.0)
    # The public path refuses a NaN entry before the oracle sees it.
    with pytest.raises(ValidationError, match="^strategy entry 0 "):
        verify_equilibrium(MixedStrategy(nan_probs), sol.source,
                           military.profiles, military.game)
    # Handed one past that check, the oracle still reports no equilibrium.
    unchecked = object.__new__(MixedStrategy)
    object.__setattr__(unchecked, "probs", nan_probs)
    check = verify_equilibrium(unchecked, sol.source, military.profiles, military.game)
    assert check["attacker_gain"] != check["attacker_gain"]      # NaN
    assert check["is_equilibrium"] is False


def test_diagnostic_strategy_gap(military):
    """The offset-free variant misses P* by exactly the indifference constant."""
    params = military.game
    sol = solve_equilibrium(military.profiles, params)
    diag = diagnostic_attack_strategy(military.profiles, params, sol.partition)
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
    assert check["attacker_gain"] <= 1e-9
    assert check["source_gain"] <= 1e-9
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


def payoff_matrices(assets, params, num=float):
    """(attacker, source) payoffs of every pure pair (attacked relay i,
    selected relay j), written cell by cell from the model in the number type
    ``num``."""
    a, ca, cm = (num(x) for x in (params.detect_rate, params.attack_cost, params.monitor_cost))
    bcf = num(params.false_alarm_rate) * num(params.false_alarm_loss)
    assets = [num(x) for x in assets]
    att = [[(1 - 2 * a - ca) * a_i if i == j else (1 - ca) * a_i
            for j in range(len(assets))] for i, a_i in enumerate(assets)]
    src = [[-(1 - 2 * a + cm) * a_i if i == j else -a_i - (bcf + cm) * a_j
            for j, a_j in enumerate(assets)] for i, a_i in enumerate(assets)]
    return att, src


def float_mix(payoff):
    """The mix over the columns of the square ``payoff`` that pays every row the
    same, and that value; None where the system is singular."""
    k = len(payoff)
    lhs = np.zeros((k + 1, k + 1))
    lhs[:k, :k], lhs[:k, k], lhs[k, :k] = payoff, -1.0, 1.0
    try:
        solution = np.linalg.solve(lhs, np.eye(k + 1)[k])
    except np.linalg.LinAlgError:
        return None
    return list(solution[:k]), solution[k]


def exact_mix(payoff):
    """``float_mix`` in exact arithmetic, by Gauss-Jordan elimination."""
    k = len(payoff)
    rows = [list(row) + [-1, 0] for row in payoff] + [[1] * k + [0, 1]]
    for c in range(k + 1):
        pivot = next((r for r in range(c, k + 1) if rows[r][c] != 0), None)
        if pivot is None:
            return None
        rows[c], rows[pivot] = rows[pivot], rows[c]
        for r in range(k + 1):
            if r != c and rows[r][c] != 0:
                f = rows[r][c] / rows[c][c]
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[c])]
    solution = [rows[r][k + 1] / rows[r][r] for r in range(k + 1)]
    return solution[:k], solution[k]


def equilibrium_on(att, src, rows, cols, mix, tol):
    """(p, q, attacker value, source value) of the equilibrium whose supports are
    ``rows`` (attacked relays) and ``cols`` (selected relays), or None.  ``mix``
    solves both indifference systems; the mixes must be positive on their
    supports and leave neither player a better pure reply, each within ``tol``."""
    k = len(att)
    mixes = (mix([[att[i][j] for j in cols] for i in rows]),
             mix([[src[i][j] for i in rows] for j in cols]))
    if None in mixes:
        return None
    (q_s, v_att), (p_s, v_src) = mixes
    if min(p_s + q_s) <= -tol:
        return None
    p, q = [0] * k, [0] * k
    for i, x in zip(rows, p_s):
        p[i] = x
    for j, x in zip(cols, q_s):
        q[j] = x
    if max(sum(x * y for x, y in zip(row, q)) for row in att) > v_att + tol:
        return None
    if max(sum(p[i] * src[i][j] for i in range(k)) for j in range(k)) > v_src + tol:
        return None
    return p, q, v_att, v_src


def equal_support_equilibria(assets, params):
    """Every equilibrium whose two supports have equal size, by support
    enumeration (Porter, Nudelman and Shoham, "Simple search methods for
    finding a Nash equilibrium", 2008), as (p, q, attacker value, source value,
    attacker support, source support).  A float pass with a loose tolerance
    picks the candidate supports and exact rational arithmetic decides, so
    payoffs that differ only in their last bits still tell equilibria apart.
    Shares no code with the solver."""
    k = len(assets)
    float_game = payoff_matrices(assets, params)
    exact_game = payoff_matrices(assets, params, Fraction)
    found = []
    for size in range(1, k + 1):
        for rows in combinations(range(k), size):
            for cols in combinations(range(k), size):
                if equilibrium_on(*float_game, rows, cols, float_mix, 1e-6) is None:
                    continue
                exact = equilibrium_on(*exact_game, rows, cols, exact_mix, 0)
                if exact is not None:
                    found.append((*exact, rows, cols))
    return found


@st.composite
def wide_games(draw):
    """Every rate and cost in [0, 1], K in 1-5 and distinct assets in [0.05, 4].

    The detection rate starts at 1e-6: below about 1e-7 the solver's q loses
    its normalization to round-off (see the expected failure below).  A tie
    among the smallest assets makes one equilibrium per tied relay where the
    closed form refuses, so the assets are distinct.
    """
    k = draw(st.integers(1, 5))
    assets = draw(st.lists(st.floats(0.05, 4.0), min_size=k, max_size=k, unique=True))
    params = GameParams(draw(st.floats(1e-6, 1.0)), *(draw(st.floats(0.0, 1.0)) for _ in range(4)))
    return make_profiles(assets), params


@given(wide_games())
@example((make_profiles([1.0, 0.75, 0.5, 0.25]), GameParams(0.9, 0.05, 0.01, 0.01, 0.01)))
@settings(max_examples=150, deadline=None)
def test_support_enumeration_finds_one_equilibrium_and_the_solver_finds_it(game):
    profiles, params = game
    try:
        partition = partition_targets(profiles, params)
    except InfeasibleEquilibriumError:
        assume(False)    # C_a >= 1: a degenerate game, not one equilibrium
    # An asset on the threshold admits a whole interval of attack probabilities.
    assume(not partition.quasi_sensible)
    assets = [combined_asset(pr, params) for pr in profiles]
    found = equal_support_equilibria(assets, params)
    assert len(found) == 1
    p, q, v_att, v_src, rows, cols = found[0]
    try:
        sol = solve_equilibrium(profiles, params)
    except InfeasibleEquilibriumError:
        return           # the closed form's limit: the game still has its equilibrium
    assert [float(x) for x in p] == pytest.approx(sol.attacker.probs, rel=0, abs=1e-9)
    assert [float(x) for x in q] == pytest.approx(sol.source.probs, rel=0, abs=1e-9)
    assert rows == tuple(k for k, x in enumerate(sol.attacker.probs) if x > 0)
    assert cols == tuple(k for k, x in enumerate(sol.source.probs) if x > 0)
    assert v_att == pytest.approx(sol.lambda_attacker, abs=1e-9)
    assert v_src == pytest.approx(sol.lambda_source - np.dot(sol.attacker.probs, assets),
                                  abs=1e-9)


@pytest.mark.xfail(raises=ValidationError, strict=True,
                   reason="q = (1 - C_a - lambda/A)/(2a) cancels as the detection rate nears 0")
def test_solve_a_lone_relay_at_a_tiny_detection_rate():
    # Attacking and selecting the only relay is the equilibrium for any a > 0,
    # but the computed q is 0.99999997, which fails MixedStrategy's sum check.
    sol = solve_equilibrium(make_profiles([0.328125]), GameParams(1e-9, 0.0, 0.0, 0.0, 0.0))
    assert sol.attacker.probs == sol.source.probs == (1.0,)


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
