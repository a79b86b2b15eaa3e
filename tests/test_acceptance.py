"""Acceptance criteria, one test per criterion, printing PASS/FAIL lines.

Run with ``pytest tests/test_acceptance.py -s`` to see every line.  All
tolerances are pinned here; nothing is calibrated at runtime.
"""

import math
import time
from contextlib import contextmanager
from dataclasses import replace

import numpy as np
import pytest
from scipy.stats import chi2

from relaygame.channel import (
    LinkModel,
    ber_direct,
    ber_diversity,
    outage_closed_form,
    outage_monte_carlo,
    outage_sr_link,
)
from relaygame.errors import InfeasibleEquilibriumError
from relaygame.game import (
    combined_asset,
    partition_targets,
    solve_equilibrium,
    verify_equilibrium,
)
from relaygame.report import build_solve_report
from relaygame.scenario import canonical_json, load_scenario
from relaygame.sim import SimConfig, child_seed, run_simulation
from relaygame.throughput import (
    ArqMode,
    SecurityRequirement,
    ThroughputConfig,
    compromising_probability,
    min_auth_probability,
    optimize_messages,
    throughput_for_mode,
    throughput_gbn,
    throughput_general,
    throughput_sr,
)

from conftest import random_instance
from test_game import (
    COMMERCIAL_P,
    COMMERCIAL_Q,
    COMMERCIAL_UTIL,
    MILITARY_P,
    MILITARY_Q,
    MILITARY_UTIL,
    brute_force_cardinality,
)


@contextmanager
def criterion(num, label):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num}: {label}: FAIL")
        raise
    else:
        print(f"ACCEPTANCE {num}: {label}: PASS")


def test_criterion_1_military_equilibrium(military):
    with criterion(1, "equilibrium reproduction, military"):
        sol = solve_equilibrium(military.profiles, military.game)
        assert sol.attacker.probs == pytest.approx(MILITARY_P, abs=1e-4)
        assert sol.source.probs == pytest.approx(MILITARY_Q, abs=1e-4)
        for got, want in zip(sol.per_relay, MILITARY_UTIL):
            assert got[0] == pytest.approx(want[0], abs=2e-5)
            assert got[1] == pytest.approx(want[1], abs=2e-5)
        best = min(
            _timed(lambda: solve_equilibrium(military.profiles, military.game))
            for _ in range(200))
        assert best < 1e-3, f"solve took {best * 1e3:.3f} ms"


def _timed(fn):
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def test_criterion_2_commercial_equilibrium(commercial):
    with criterion(2, "equilibrium reproduction, commercial"):
        sol = solve_equilibrium(commercial.profiles, commercial.game)
        assert sol.attacker.probs == pytest.approx(COMMERCIAL_P, abs=1e-4)
        assert sol.source.probs[0] == pytest.approx(COMMERCIAL_Q[0], abs=1e-4)
        assert sol.source.probs[2] == pytest.approx(COMMERCIAL_Q[2], abs=1e-4)
        assert sol.source.probs[1] == pytest.approx(0.36538, abs=1e-4)
        for got, want in zip(sol.per_relay, COMMERCIAL_UTIL):
            assert got[0] == pytest.approx(want[0], abs=2e-5)
            assert got[1] == pytest.approx(want[1], abs=2e-5)
        # The print discrepancy is recorded in the solve report.
        report = build_solve_report(commercial)
        assert any("0.36583" in note for note in report["annotations"])


def test_criterion_3_no_deviation_oracle(military, commercial):
    with criterion(3, "no-deviation oracle, presets + 200 random instances"):
        start = time.perf_counter()
        cases = [(military.profiles, military.game),
                 (commercial.profiles, commercial.game)]
        rng = np.random.default_rng(31415)
        accepted, attempts = 0, 0
        while accepted < 200:
            attempts += 1
            assert attempts < 4000, "too few feasible instances in the sampler"
            profiles, params = random_instance(rng)
            try:
                solve_equilibrium(profiles, params)
            except InfeasibleEquilibriumError:
                continue
            cases.append((profiles, params))
            accepted += 1
        for profiles, params in cases:
            sol = solve_equilibrium(profiles, params)
            check = verify_equilibrium(sol.attacker, sol.source, profiles, params)
            assert check["attacker_gain"] <= 1e-9
            assert check["source_gain"] <= 1e-9
        elapsed = time.perf_counter() - start
        assert elapsed < 1.0, f"oracle sweep took {elapsed:.2f} s"


def test_criterion_4_partition(military, commercial):
    with criterion(4, "partition correctness, presets + 1000 random instances"):
        for sc in (military, commercial):
            part = partition_targets(sc.profiles, sc.game)
            assert len(part.sensible) == 3
            assert part.non_sensible == (4,)
        rng = np.random.default_rng(27182)
        for _ in range(1000):
            profiles, params = random_instance(rng)
            part = partition_targets(profiles, params)
            assets = sorted((combined_asset(pr, params) for pr in profiles),
                            reverse=True)
            assert brute_force_cardinality(assets, params) == [len(part.sensible)]


def _limit_case_link(d_rd=1.0):
    return LinkModel(target_rate=1.0, snr_avg=10.0, pathloss_exp=2.0,
                     dist_sr=1.0, dist_rd=d_rd,
                     snr_sd=1.0, snr_sr=1.0, snr_rd=1.0)


CHANNEL_SPOT_VALUES = [
    pytest.param("ber_direct(1)", lambda: ber_direct(1.0), 0.146447, id="ber_direct"),
    # Quadrature of Q(sqrt(2x)) over the two-branch MRC density: 0.0370568096655477.
    pytest.param("ber_diversity(1,2)", lambda: ber_diversity(1.0, 2.0), 0.037057,
                 id="ber_diversity"),
    pytest.param("outage_sr_link(0.5,1)", lambda: outage_sr_link(0.5, 1.0), 0.632121,
                 id="outage_sr_link"),
    # Quadrature of the outage event under Rayleigh fading: 0.0402814183546378.
    pytest.param("outage_closed_form(limit)",
                 lambda: outage_closed_form(_limit_case_link()), 0.040281,
                 id="outage_closed_form"),
]


@pytest.mark.parametrize("label,compute,expected", CHANNEL_SPOT_VALUES)
def test_criterion_5_channel_spot_values(label, compute, expected):
    with criterion(5, f"channel spot value {label} = {expected} +- 1e-6"):
        assert compute() == pytest.approx(expected, abs=1e-6)


def test_criterion_5_outage_continuity():
    with criterion(5, "outage closed form continuous across the limit branch"):
        base = outage_closed_form(_limit_case_link())
        for eps in (1e-7, -1e-7):
            nearby = outage_closed_form(_limit_case_link(d_rd=(1 + eps) ** 0.5))
            assert nearby == pytest.approx(base, abs=1e-6)


def test_criterion_6_throughput_structure():
    with criterion(6, "throughput structure: shape, argmax oracle, ARQ order, baseline"):
        cfg = ThroughputConfig(packet_bits=1000, hash_bits=160, n_messages=1,
                               auth_prob=1.0, presig_time=0.1,
                               data_rate=1e6, reaction_time=0.01)
        # Rise-then-fall with the sign change exactly at the payload cutoff.
        cutoff = next(n for n in range(1, 1000)
                      if cfg.packet_bits - cfg.hash_bits * (math.ceil(math.log2(n)) + 1) <= 0)
        values = [throughput_general(replace(cfg, n_messages=n)) for n in range(1, 2 * cutoff)]
        peak = max(range(len(values)), key=values.__getitem__) + 1
        assert 1 < peak < cutoff
        assert values[-1] < values[peak - 1]
        for n, value in enumerate(values, start=1):
            assert (value > 0) == (n < cutoff)

        # optimize_messages equals exhaustive search on 100 random configs.
        rng = np.random.default_rng(16180)
        for _ in range(100):
            c = ThroughputConfig(
                packet_bits=int(rng.integers(200, 2001)),
                hash_bits=int(rng.integers(32, 257)),
                n_messages=1,
                auth_prob=float(rng.uniform(0, 1)),
                presig_time=float(rng.uniform(0, 1)),
                transfer_time=float(rng.uniform(0.01, 1.0)),
                window=int(rng.integers(1, 32)),
            )
            arq = list(ArqMode)[int(rng.integers(0, 3))]
            p_c = float(rng.uniform(0.05, 1.0))
            n_max = int(rng.integers(1, 65))
            best = None
            for n in range(1, n_max + 1):
                at_n = replace(c, n_messages=n)
                if c.auth_prob > 0 and \
                        c.packet_bits - c.hash_bits * (math.ceil(math.log2(n)) + 1) <= 0:
                    continue
                t = throughput_for_mode(at_n, arq, p_c)
                if best is None or t > best[1]:
                    best = (n, t)
            if best is None:
                continue
            assert optimize_messages(c, n_max, arq, p_c) == best

        # SR dominates GBN with equality exactly at P_c = 1 or W_s = 1.
        base = ThroughputConfig(packet_bits=1000, hash_bits=160, n_messages=4,
                                auth_prob=0.5, presig_time=0.0, transfer_time=1.0,
                                window=1)
        for p_c in (0.25, 0.5, 0.75, 1.0):
            for w in (1, 2, 5, 10):
                c = replace(base, window=w)
                sr, gbn = throughput_sr(c, p_c), throughput_gbn(c, p_c)
                assert sr >= gbn
                if p_c == 1.0 or w == 1:
                    assert sr == pytest.approx(gbn, rel=1e-12)
                else:
                    assert sr > gbn * (1 + 1e-9)

        # Full authentication equals the fully-authenticated baseline exactly,
        # and the compromising probability vanishes identically.
        baseline = ThroughputConfig(packet_bits=1000, hash_bits=160, n_messages=4,
                                    auth_prob=1.0, presig_time=0.0, transfer_time=1.0)
        swept = replace(replace(baseline, auth_prob=0.3), auth_prob=1.0)
        assert throughput_general(swept) == throughput_general(baseline)
        assert throughput_sr(swept, 0.7) == throughput_sr(baseline, 0.7)
        assert compromising_probability(1.0, 0.4593) == 0.0


def test_criterion_7_policy_bound(military):
    with criterion(7, "security policy bound at p_s = 0.20"):
        start = time.perf_counter()
        req = SecurityRequirement(max_compromised_fraction=0.20)
        p_a = min_auth_probability(0.4593, req)
        assert p_a == pytest.approx(0.56456, abs=1e-5)

        solution = solve_equilibrium(military.profiles, military.game)
        sim = SimConfig(episodes=1_000_000, packets_per_episode=1, seed=777,
                        auth_prob=p_a)
        report = run_simulation(military, sim, solution)
        assert report["compromise_rate"] <= 0.20 + 3 * report["compromise_stderr"]
        for stats in report["per_relay"]:
            if stats["packets"] == 0:
                continue
            assert stats["compromise_rate"] <= 0.20 + 3 * stats["compromise_stderr"]
        elapsed = time.perf_counter() - start
        assert elapsed < 30.0, f"policy simulation took {elapsed:.1f} s"


def test_criterion_8_monte_carlo_consistency(military):
    with criterion(8, "Monte Carlo consistency at 1e6 episodes"):
        solution = solve_equilibrium(military.profiles, military.game)
        sim = SimConfig(episodes=1_000_000, packets_per_episode=1, seed=888,
                        auth_prob=0.0)
        report = run_simulation(military, sim, solution)

        # Source-selection frequencies match Q*: chi-square over the support
        # below the 0.001 critical value.
        support = [(count, q) for (rid, count), q in
                   zip(report["source_counts"], solution.source.probs) if q > 0]
        stat = sum((count - sim.episodes * q) ** 2 / (sim.episodes * q)
                   for count, q in support)
        critical = chi2.ppf(1 - 0.001, df=len(support) - 1)
        assert stat < critical, f"chi-square {stat:.2f} >= {critical:.2f}"
        for (rid, count), q in zip(report["source_counts"], solution.source.probs):
            if q == 0:
                assert count == 0

        # Conditional compromise at p_a = 0 concentrates on p_i*.
        for stats, p_i in zip(report["per_relay"], solution.attacker.probs):
            if stats["packets"] == 0:
                continue
            sigma = math.sqrt(p_i * (1 - p_i) / stats["packets"])
            assert abs(stats["compromise_rate"] - p_i) <= 3 * sigma

        # Identical seeds give byte-identical reports.
        again = run_simulation(military, sim, solution)
        assert canonical_json(report).encode() == canonical_json(again).encode()


def test_criterion_9_outage_cross_validation():
    with criterion(9, "outage closed form vs Monte Carlo (diagnostic)"):
        rows = []
        for i, gamma in enumerate((2.0, 10.0, 50.0)):
            for j, d_rd in enumerate((0.5, 1.0, 2.0)):
                link = LinkModel(target_rate=1.0, snr_avg=gamma, pathloss_exp=2.0,
                                 dist_sr=1.0, dist_rd=d_rd,
                                 snr_sd=1.0, snr_sr=1.0, snr_rd=1.0)
                cf = outage_closed_form(link)
                mc = outage_monte_carlo(link, 1_000_000, child_seed(999, 3 * i + j))
                rows.append((gamma, d_rd, cf, mc, abs(cf - mc) <= 5e-3))
        print("\n  gamma   d_rd   closed_form   monte_carlo   within_5e-3")
        for gamma, d_rd, cf, mc_p, ok in rows:
            print(f"  {gamma:5.1f}  {d_rd:5.2f}   {cf:.9f}   {mc_p:.9f}   {ok}")
        agreement = all(ok for *_, ok in rows)
        print(f"  fading-convention agreement: "
              f"{'within band' if agreement else 'FLAGGED: outside band'}")
        # Non-blocking diagnostic: the comparison must complete and be emitted
        # either way; only structural soundness is asserted.
        assert len(rows) == 9
        assert all(math.isfinite(cf) and math.isfinite(mc_p)
                   for _, _, cf, mc_p, _ in rows)
