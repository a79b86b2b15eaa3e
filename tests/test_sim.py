"""Monte Carlo simulator: sampling, compromise accounting, determinism."""

import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from scipy.stats import chi2

from relaygame import sim as sim_module
from relaygame.errors import ValidationError
from relaygame.game import solve_equilibrium
from relaygame.scenario import canonical_json
from relaygame.sim import (
    AttackerMode,
    SimConfig,
    SourceMode,
    child_seed,
    draw_selection_table,
    estimate_compromise_curve,
    policy_auth_probs,
    run_simulation,
)
from relaygame.throughput import SecurityRequirement, compromising_probability

TABLE_P = (0.23256, 0.30814, 0.4593, 0.0)   # published military attack probs


@pytest.fixture(scope="module")
def military_solution(military):
    return solve_equilibrium(military.profiles, military.game)


def test_requires_solution(military):
    with pytest.raises(ValidationError):
        run_simulation(military, SimConfig(episodes=10, seed=1), None)


def test_full_authentication_never_compromises(military, military_solution):
    sim = SimConfig(episodes=20_000, seed=3, auth_prob=1.0)
    report = run_simulation(military, sim, military_solution)
    assert report["compromised_total"] == 0
    assert report["compromise_rate"] == 0.0


def test_reports_byte_identical_for_equal_seeds(military, military_solution):
    sim = SimConfig(episodes=30_000, seed=42, auth_prob=0.3)
    a = run_simulation(military, sim, military_solution)
    b = run_simulation(military, sim, military_solution)
    assert canonical_json(a).encode() == canonical_json(b).encode()
    c = run_simulation(military, replace(sim, seed=43), military_solution)
    assert canonical_json(c) != canonical_json(a)


def test_counts_are_consistent(military, military_solution):
    sim = SimConfig(episodes=25_000, packets_per_episode=2, seed=5, auth_prob=0.5)
    report = run_simulation(military, sim, military_solution)
    assert sum(n for _, n in report["source_counts"]) == sim.episodes
    assert sum(n for _, n in report["attacker_counts"]) == sim.episodes
    assert report["packets_total"] == sim.episodes * 2
    assert sum(r["packets"] for r in report["per_relay"]) == report["packets_total"]
    assert 0.0 <= report["compromise_rate"] <= 1.0


def test_conditional_compromise_tracks_attack_probs(military, military_solution):
    """At p_a = 0 the compromise rate given relay i is exactly P(target = i)."""
    sim = SimConfig(episodes=300_000, seed=11, auth_prob=0.0)
    report = run_simulation(military, sim, military_solution)
    for stats, p_i in zip(report["per_relay"], military_solution.attacker.probs):
        if stats["packets"] == 0:
            continue
        sigma = math.sqrt(p_i * (1 - p_i) / stats["packets"])
        assert abs(stats["compromise_rate"] - p_i) <= 3 * sigma


def test_selection_frequencies_track_strategies(military, military_solution):
    sim = SimConfig(episodes=300_000, seed=13, auth_prob=0.5)
    report = run_simulation(military, sim, military_solution)
    for (rid, count), q_i, p_i in zip(report["source_counts"],
                                      military_solution.source.probs,
                                      military_solution.attacker.probs):
        if q_i > 0:
            sigma = math.sqrt(q_i * (1 - q_i) / sim.episodes)
            assert abs(count / sim.episodes - q_i) <= 4 * sigma
        else:
            assert count == 0
    for (rid, count), p_i in zip(report["attacker_counts"],
                                 military_solution.attacker.probs):
        if p_i > 0:
            sigma = math.sqrt(p_i * (1 - p_i) / sim.episodes)
            assert abs(count / sim.episodes - p_i) <= 4 * sigma
        else:
            assert count == 0


def test_packet_success_and_auth_converge(military, military_solution):
    sim = SimConfig(episodes=200_000, seed=17, auth_prob=0.7)
    report = run_simulation(military, sim, military_solution)
    # Authenticated fraction converges to the Bernoulli probability.
    sigma = math.sqrt(0.7 * 0.3 / report["packets_total"])
    assert abs(report["authenticated_rate"] - 0.7) <= 3 * sigma
    assert report["auth_prob_effective"] == pytest.approx(0.7, abs=1e-12)
    # Per-packet success converges to the selection-weighted analytical value.
    expected = sum(
        q * s["packet_success_analytical"]
        for q, s in zip(military_solution.source.probs, report["per_relay"]))
    sigma = math.sqrt(expected * (1 - expected) / report["packets_total"])
    assert abs(report["packet_success_rate"] - expected) <= 3 * sigma
    # Per-relay empirical error frequency within 3 sigma of its own link value.
    for stats in report["per_relay"]:
        if stats["packets"] == 0:
            continue
        p_err = 1.0 - stats["packet_success_analytical"]
        sigma = math.sqrt(p_err * (1 - p_err) / stats["packets"])
        assert abs(stats["packet_error_rate"] - p_err) <= 3 * sigma


def test_outage_frequency_tracks_closed_form(military, military_solution):
    sim = SimConfig(episodes=300_000, seed=19, auth_prob=1.0)
    report = run_simulation(military, sim, military_solution)
    for stats in report["per_relay"]:
        if stats["source_episodes"] < 10_000:
            continue
        p = stats["outage_closed_form"]
        sigma = math.sqrt(p * (1 - p) / stats["source_episodes"])
        assert abs(stats["outage_rate"] - p) <= 3 * sigma


def test_best_utility_mode_pins_selection(military, military_solution):
    sim = SimConfig(episodes=5_000, seed=23, auth_prob=0.5,
                    source_mode=SourceMode.BEST_UTILITY)
    report = run_simulation(military, sim, military_solution)
    # Relay 3 carries the largest attacker utility in the military preset.
    counts = dict(report["source_counts"])
    assert counts[3] == sim.episodes
    assert all(n == 0 for rid, n in report["source_counts"] if rid != 3)


def test_uniform_attacker_mode(military, military_solution):
    sim = SimConfig(episodes=100_000, seed=29, auth_prob=0.5,
                    attacker_mode=AttackerMode.UNIFORM)
    report = run_simulation(military, sim, military_solution)
    sigma = math.sqrt(0.25 * 0.75 / sim.episodes)
    for rid, count in report["attacker_counts"]:
        assert abs(count / sim.episodes - 0.25) <= 4 * sigma
    assert any("1/K bins" in note for note in report["notes"])


def test_refined_detection_mode_is_distinct(military, military_solution):
    base = SimConfig(episodes=50_000, seed=31, auth_prob=1.0)
    refined = replace(base, refined_detection=True)
    clean = run_simulation(military, base, military_solution)
    leaky = run_simulation(military, refined, military_solution)
    assert clean["compromised_total"] == 0
    # Fully authenticated traffic still leaks at rate (1 - detect_rate)
    # on attacked episodes in the exploratory refined model.
    hit_rate = sum(p * q for p, q in zip(military_solution.attacker.probs,
                                         military_solution.source.probs))
    expected = (1 - military.game.detect_rate) * hit_rate
    sigma = math.sqrt(expected * (1 - expected) / leaky["packets_total"])
    assert abs(leaky["compromise_rate"] - expected) <= 4 * sigma


def test_policy_auth_probs(military, military_solution):
    req = SecurityRequirement(max_compromised_fraction=0.20)
    policy = policy_auth_probs(military.profiles, military_solution, req)
    p = military_solution.attacker.probs
    assert policy[1] == pytest.approx(1 - 0.2 / p[0], abs=1e-12)
    assert policy[3] == pytest.approx(1 - 0.2 / p[2], abs=1e-12)
    assert policy[4] == 0.0
    # Every relay then satisfies the bound.
    for rid, pa in policy.items():
        p_i = p[rid - 1]
        assert (1 - pa) * p_i <= 0.20 + 1e-12


def test_policy_auth_simulation_respects_bound(military, military_solution):
    """Per-relay minimal authentication keeps every compromise rate at p_s."""
    # The policy sits exactly on the bound, so the one-sided 3-sigma check is
    # a coin weighted 99.9/0.1; the fixed seed pins a passing draw.
    req = SecurityRequirement(max_compromised_fraction=0.20)
    policy = policy_auth_probs(military.profiles, military_solution, req)
    sim = SimConfig(episodes=200_000, seed=11, auth_prob=policy)
    report = run_simulation(military, sim, military_solution)
    assert report["compromise_rate"] <= 0.20 + 3 * report["compromise_stderr"]
    for stats in report["per_relay"]:
        if stats["packets"]:
            assert stats["compromise_rate"] <= 0.20 + 3 * stats["compromise_stderr"]


def test_compromise_curve(military, military_solution):
    sim = SimConfig(episodes=120_000, seed=37)
    grid = [0.0, 0.5, 1.0]
    curve = estimate_compromise_curve(military, grid, sim)
    assert military.conditioning == 2
    p3 = military_solution.attacker.probs[2]
    analytical = [compromising_probability(pa, p3) for pa in grid]
    assert analytical == pytest.approx([p3, 0.5 * p3, 0.0], abs=1e-12)
    assert analytical == pytest.approx([0.4593, 0.22965, 0.0], abs=1e-4)
    for (empirical, stderr), bound in zip(curve, analytical):
        assert abs(empirical - bound) <= max(3 * stderr, 1e-12)
    assert curve[-1][0] == 0.0
    # Monotone decreasing within noise.
    for (rate_a, se_a), (rate_b, se_b) in zip(curve, curve[1:]):
        assert rate_b <= rate_a + 3 * (se_a + se_b)
    # Sub-seeds differ per grid point but derive deterministically.
    again = estimate_compromise_curve(military, grid, sim)
    assert curve == again
    assert len({child_seed(sim.seed, idx) for idx in range(len(grid))}) == 3


@pytest.mark.parametrize("preset,fields", [
    ("military", {}),
    ("commercial", {}),
    ("military", {"refined_detection": True, "packets_per_episode": 3}),
    ("commercial", {"attacker_mode": AttackerMode.UNIFORM,
                    "source_mode": SourceMode.BEST_UTILITY}),
], ids=["military", "commercial", "military-refined", "commercial-uniform-best"])
def test_compromise_curve_equals_full_runs(request, preset, fields):
    """The curve runs only the count stage, so each point is the full run's
    per-relay compromise rate at the same child seed, bit for bit."""
    scenario = request.getfixturevalue(preset)
    solution = scenario.solution
    sim = SimConfig(episodes=30_000, seed=47, **fields)
    grid = [0.0, 0.3, 0.7, 1.0]
    curve = estimate_compromise_curve(scenario, grid, sim)
    rid = scenario.ids[scenario.conditioning]
    assert len(curve) == len(grid)
    for idx, (pa, point) in enumerate(zip(grid, curve)):
        report = run_simulation(
            scenario, replace(sim, seed=child_seed(sim.seed, idx), auth_prob=pa), solution)
        stats = next(r for r in report["per_relay"] if r["relay_id"] == rid)
        assert point == (stats["compromise_rate"], stats["compromise_stderr"])


@pytest.mark.parametrize("refined", [False, True])
def test_outage_is_the_last_stage(monkeypatch, military, military_solution, refined):
    """No counter but outage depends on the outage draws: with the outage
    stage stubbed out every other field of the report is unchanged."""
    sim = SimConfig(episodes=40_000, packets_per_episode=2, seed=53,
                    auth_prob={1: 0.2, 2: 0.5, 3: 0.7, 4: 0.9}, refined_detection=refined)
    real = run_simulation(military, sim, military_solution)
    monkeypatch.setattr(sim_module, "count_outages", lambda rng, link, trials: 0)
    stubbed = run_simulation(military, sim, military_solution)
    assert any(r["outage_rate"] > 0 for r in real["per_relay"])
    assert all(r["outage_rate"] == 0.0 for r in stubbed["per_relay"])
    for report in (real, stubbed):
        for r in report["per_relay"]:
            del r["outage_rate"]
    assert real == stubbed


def test_compromise_curve_single_point(military, military_solution):
    ((empirical, _),) = estimate_compromise_curve(
        military, [1.0], SimConfig(episodes=20_000, seed=41))
    assert empirical == 0.0
    assert compromising_probability(1.0, military_solution.attacker.probs[2]) == 0.0


def test_compromise_curve_validation(military):
    sim = SimConfig(episodes=10, seed=1)
    with pytest.raises(ValidationError):
        estimate_compromise_curve(military, [], sim)
    with pytest.raises(ValidationError):
        estimate_compromise_curve(military, [1.2], sim)


def test_sim_config_validation():
    with pytest.raises(ValidationError):
        SimConfig(episodes=0)
    with pytest.raises(ValidationError):
        SimConfig(episodes=1, packets_per_episode=0)
    with pytest.raises(ValidationError):
        SimConfig(episodes=1, seed=-1)
    with pytest.raises(ValidationError):
        SimConfig(episodes=1, auth_prob=1.5)
    with pytest.raises(ValidationError):
        SimConfig(episodes=1, auth_prob={1: 2.0})


def test_per_relay_auth_mapping(military, military_solution):
    sim = SimConfig(episodes=50_000, seed=43,
                    auth_prob={1: 1.0, 2: 1.0, 3: 0.0, 4: 1.0})
    report = run_simulation(military, sim, military_solution)
    by_id = {r["relay_id"]: r for r in report["per_relay"]}
    assert by_id[1]["compromised"] == 0
    assert by_id[2]["compromised"] == 0
    assert by_id[3]["compromised"] > 0
    missing = SimConfig(episodes=10, seed=1, auth_prob={1: 0.5})
    with pytest.raises(ValidationError):
        run_simulation(military, missing, military_solution)
    unknown = replace(sim, auth_prob={1: 0.5, 2: 0.5, 3: 0.5, 4: 0.5, 99: 0.1})
    with pytest.raises(ValidationError, match=r"scenario\.sim\.auth_prob: .*\[99\]"):
        run_simulation(military, unknown, military_solution)


# --- distributional equivalence with the per-episode model ------------------
#
# The count-level engine draws sums instead of episodes.  These gates compare
# its counters, over many pinned seeds at a small episode count, with the
# exact distribution the per-episode model implies: a chi-square on the
# (target, selected) table and binomial z-scores on every counter.  A gate
# that fails is investigated, never re-seeded.

EQUIVALENCE_SEEDS = range(200)
EQUIVALENCE_EPISODES = 2_000
EQUIVALENCE_PACKETS = 3
EQUIVALENCE_AUTH = {1: 0.2, 2: 0.5, 3: 0.7, 4: 0.9}
MODES = [
    (AttackerMode.EQUILIBRIUM, SourceMode.EQUILIBRIUM, False),
    (AttackerMode.EQUILIBRIUM, SourceMode.EQUILIBRIUM, True),
    (AttackerMode.UNIFORM, SourceMode.EQUILIBRIUM, False),
    (AttackerMode.EQUILIBRIUM, SourceMode.BEST_UTILITY, False),
    (AttackerMode.UNIFORM, SourceMode.BEST_UTILITY, True),
]
MODE_IDS = ["equilibrium", "refined", "uniform", "best-utility", "uniform-best-refined"]


def mode_strategies(solution, attacker_mode, source_mode):
    """P and Q as the modes define them; relay 3 carries the military preset's
    largest attacker utility."""
    k = len(solution.attacker.probs)
    p = [1.0 / k] * k if attacker_mode is AttackerMode.UNIFORM else list(solution.attacker.probs)
    if source_mode is SourceMode.BEST_UTILITY:
        q = [1.0 if j == 2 else 0.0 for j in range(k)]
    else:
        q = list(solution.source.probs)
    return np.array(p), np.array(q)


def assert_standard_normal(zs, what):
    """Mean and spread of z-scores that are N(0, 1) up to binomial skew."""
    n = len(zs)
    assert n >= 100, what
    assert abs(sum(zs) / n) <= 4.0 / math.sqrt(n), f"{what}: mean z {sum(zs) / n:.3f}"
    ss = sum(z * z for z in zs)
    assert chi2.ppf(0.0005, n) < ss < chi2.ppf(0.9995, n), f"{what}: sum z^2 {ss:.1f} of {n}"


def z_score(count, mean, var, zs):
    if var == 0.0:
        assert count == pytest.approx(mean, abs=1e-9)
    else:
        zs.append((count - mean) / math.sqrt(var))


@pytest.mark.parametrize("attacker_mode", list(AttackerMode))
@pytest.mark.parametrize("source_mode", list(SourceMode))
def test_selection_table_matches_product_distribution(
        military_solution, attacker_mode, source_mode):
    p, q = mode_strategies(military_solution, attacker_mode, source_mode)
    e = EQUIVALENCE_EPISODES
    expected = e * np.outer(p, q)
    support = expected > 0
    df = int(support.sum()) - 1

    def pearson(table, runs=1):
        return float((((table - runs * expected) ** 2)[support]
                      / (runs * expected[support])).sum())

    total, pooled = 0.0, np.zeros((4, 4), dtype=np.int64)
    for seed in EQUIVALENCE_SEEDS:
        table = draw_selection_table(np.random.default_rng(seed), e, p, q)
        assert table.shape == (4, 4) and table.sum() == e
        assert not table[~support].any()
        total += pearson(table)
        pooled += table
    # Independent seeds: the summed statistic is chi-square with the summed
    # degrees of freedom (the spread between runs); the pooled table's
    # statistic catches a small bias shared by every run.
    runs = len(EQUIVALENCE_SEEDS)
    assert chi2.ppf(0.0005, runs * df) < total < chi2.ppf(0.9995, runs * df)
    assert pearson(pooled, runs) < chi2.ppf(0.9995, df)


def with_links(scenario, **fields):
    """The scenario with each relay's link fields replaced; a tuple value
    gives one value per relay.  Links do not enter the equilibrium."""
    return replace(scenario, links=tuple(
        replace(ln, **{f: v[j] if isinstance(v, tuple) else v for f, v in fields.items()})
        for j, ln in enumerate(scenario.links)))


# Two more link geometries enter only the outage gate.  At high SNR the direct
# path fails in about 3 % of episodes, so relay hops are drawn for few of
# them; at low SNR it fails in about 99 %, so they are drawn for nearly all.
OUTAGE_GEOMETRIES = {
    "outage-high-snr": dict(snr_avg=30.0, dist_sr=3.0, dist_rd=(2.0, 3.0, 4.0, 5.0)),
    "outage-low-snr": dict(target_rate=2.5, snr_avg=1.0, dist_sr=0.1,
                           dist_rd=(0.05, 0.1, 0.15, 0.2)),
}


def outage_z_scores(report, zs):
    for stats in report["per_relay"]:
        n, p_out = stats["source_episodes"], stats["outage_closed_form"]
        outages = round(stats["outage_rate"] * n)
        z_score(outages, n * p_out, n * p_out * (1 - p_out), zs)


@pytest.mark.parametrize("attacker_mode,source_mode,refined", MODES, ids=MODE_IDS)
def test_counters_match_per_episode_distribution(
        military, military_solution, attacker_mode, source_mode, refined):
    # Distinct relay-destination distances give each relay its own outage
    # probability.
    geometries = {name: with_links(military, **fields)
                  for name, fields in OUTAGE_GEOMETRIES.items()}
    military = with_links(military, dist_rd=(0.5, 1.0, 1.5, 2.0))
    p, q = mode_strategies(military_solution, attacker_mode, source_mode)
    e, ppe = EQUIVALENCE_EPISODES, EQUIVALENCE_PACKETS
    pa = np.array([EQUIVALENCE_AUTH[i] for i in (1, 2, 3, 4)])
    # Per-packet compromise probability on an episode whose target is selected.
    c = (1 - pa) + (pa * (1 - military.game.detect_rate) if refined else 0.0)
    zs = {name: [] for name in ("attacker", "source", "compromised",
                                "authenticated", "errored", "outage", *geometries)}
    for seed in EQUIVALENCE_SEEDS:
        sim = SimConfig(episodes=e, packets_per_episode=ppe, seed=seed,
                        attacker_mode=attacker_mode, source_mode=source_mode,
                        auth_prob=EQUIVALENCE_AUTH, refined_detection=refined)
        report = run_simulation(military, sim, military_solution)
        for (_, count), p_i in zip(report["attacker_counts"], p):
            z_score(count, e * p_i, e * p_i * (1 - p_i), zs["attacker"])
        for (_, count), q_j in zip(report["source_counts"], q):
            z_score(count, e * q_j, e * q_j * (1 - q_j), zs["source"])
        # Given the selection counts n_j, the per-relay counters are sums of
        # independent per-episode (or per-packet) draws.
        auth_mean = auth_var = 0.0
        for j, stats in enumerate(report["per_relay"]):
            n = stats["source_episodes"]
            # Compromised packets of one episode: H * B with H ~ Bern(P_j),
            # B ~ Bin(ppe, c_j).
            hb = p[j] * ppe * c[j]
            hb2 = p[j] * (ppe * c[j] * (1 - c[j]) + (ppe * c[j]) ** 2)
            z_score(stats["compromised"], n * hb, n * (hb2 - hb * hb), zs["compromised"])
            auth_mean += n * ppe * pa[j]
            auth_var += n * ppe * pa[j] * (1 - pa[j])
            p_err = 1 - stats["packet_success_analytical"]
            errored = round(stats["packet_error_rate"] * stats["packets"])
            z_score(errored, stats["packets"] * p_err, stats["packets"] * p_err * (1 - p_err),
                    zs["errored"])
        outage_z_scores(report, zs["outage"])
        z_score(report["authenticated_total"], auth_mean, auth_var, zs["authenticated"])
        for name, scenario in geometries.items():
            outage_z_scores(run_simulation(scenario, sim, military_solution), zs[name])
    if source_mode is SourceMode.BEST_UTILITY:
        assert zs.pop("source") == []      # every count was the exact one
    for name, scores in zs.items():
        assert_standard_normal(scores, name)


def test_memory_stays_bounded_for_large_runs(military, military_solution):
    """Memory is O(K^2 + OUTAGE_CHUNK): one episode x packet array of this run
    alone would take 4 GB."""
    sim = SimConfig(episodes=2_000_000, packets_per_episode=256, seed=5,
                    auth_prob=0.5, refined_detection=True)
    tracemalloc.start()
    try:
        report = run_simulation(military, sim, military_solution)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report["packets_total"] == 512_000_000
    assert sum(r["source_episodes"] for r in report["per_relay"]) == sim.episodes
    assert peak < 32 * 2 ** 20, f"peak {peak / 2 ** 20:.1f} MB"


def test_sim_config_rejects_uncountable_sizes():
    with pytest.raises(ValidationError, match="2\\^63"):
        SimConfig(episodes=2 ** 40, packets_per_episode=2 ** 23)
