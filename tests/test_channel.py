"""Channel formulas: mutual information, outage, BER, packet success."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from relaygame.channel import (
    ChannelDraw,
    LinkModel,
    ber_direct,
    ber_diversity,
    ber_end_to_end,
    cooperative_outage_event,
    mutual_info_direct,
    mutual_info_mrc,
    mutual_info_source_relay,
    outage_closed_form,
    outage_event,
    outage_monte_carlo,
    outage_sr_link,
    outage_thresholds,
    packet_success,
)
from relaygame.errors import ValidationError

# Frozen spot values, computed with independent oracles at test-writing time:
# BER_DIVERSITY_1_2 from the two-branch MRC BPSK closed form evaluated with
# math.sqrt (also the quadrature below), E2E from composing the three parts.
BER_DIRECT_1 = 0.14644660940672627      # (1 - 1/sqrt(2)) / 2
BER_DIVERSITY_1_2 = 0.03705680966554784
OUTAGE_SR_HALF_1 = 0.6321205588285577   # 1 - exp(-1)
E2E_COMPOSED = OUTAGE_SR_HALF_1 * BER_DIRECT_1 + (1 - OUTAGE_SR_HALF_1) * BER_DIVERSITY_1_2
OUTAGE_LIMIT_CASE = 0.04028141835464387


def link(rate=1.0, snr=10.0, alpha=2.0, d_sr=1.0, d_rd=1.0,
         snr_sd=1.0, snr_sr=1.0, snr_rd=1.0):
    return LinkModel(target_rate=rate, snr_avg=snr, pathloss_exp=alpha,
                     dist_sr=d_sr, dist_rd=d_rd,
                     snr_sd=snr_sd, snr_sr=snr_sr, snr_rd=snr_rd)


def test_mutual_info_examples():
    assert mutual_info_direct(0.0, 5.0) == 0.0
    assert mutual_info_direct(1.0, 1.0) == pytest.approx(1.0)
    assert mutual_info_direct(3.0, 1.0) == pytest.approx(2.0)
    assert mutual_info_source_relay(3.0, 1.0) == pytest.approx(1.0)
    assert mutual_info_source_relay(0.0, 1.0) == 0.0
    assert mutual_info_source_relay(15.0, 1.0) == pytest.approx(2.0)
    assert mutual_info_mrc(1.0, 2.0, 1.0) == pytest.approx(1.0)
    assert mutual_info_mrc(0.0, 0.0, 9.0) == 0.0
    # With no relay-destination gain, MRC collapses to the first-hop form.
    assert mutual_info_mrc(3.0, 0.0, 1.0) == mutual_info_source_relay(3.0, 1.0)


def test_outage_closed_form_limit_branch():
    value = outage_closed_form(link(rate=1.0, snr=10.0))
    assert value == pytest.approx(OUTAGE_LIMIT_CASE, abs=1e-12)


def test_outage_closed_form_continuity_at_singularity():
    base = outage_closed_form(link())
    for eps in (1e-7, -1e-7):
        nearby = outage_closed_form(link(d_rd=(1.0 + eps) ** 0.5))
        assert nearby == pytest.approx(base, abs=1e-6)


def test_outage_closed_form_zero_rate():
    assert outage_closed_form(link(rate=0.0)) == 0.0


def outage_exact_by_quadrature(lm: LinkModel) -> float:
    """Independent oracle: integrate the outage event under the fading law.

    With x = |h_SD|^2 ~ Exp(1), y ~ Exp(rate s), z ~ Exp(rate w) and
    thresholds t1 (direct) and t2 (half-rate paths), the event is
    {x < t1 and (y < t2 or x + z < t2)}; condition on x and integrate.
    """
    gamma, r = lm.snr_avg, lm.target_rate
    t1 = (2.0 ** r - 1.0) / gamma
    t2 = (2.0 ** (2.0 * r) - 1.0) / gamma
    s = lm.dist_sr ** lm.pathloss_exp
    w = lm.dist_rd ** lm.pathloss_exp
    p_first_hop_fails = 1.0 - math.exp(-s * t2)

    def integrand(x):
        relay_path_fails = p_first_hop_fails + (1 - p_first_hop_fails) * (
            1.0 - math.exp(-w * (t2 - x)) if x < t2 else 1.0)
        return math.exp(-x) * relay_path_fails

    value, _ = quad(integrand, 0.0, t1, epsabs=1e-12, epsrel=1e-12)
    return value


@pytest.mark.parametrize("gamma,d_rd", [(2.0, 0.5), (10.0, 2.0), (50.0, 1.5), (5.0, 3.0)])
def test_outage_closed_form_matches_quadrature(gamma, d_rd):
    lm = link(rate=1.0, snr=gamma, d_rd=d_rd)
    assert outage_closed_form(lm) == pytest.approx(
        outage_exact_by_quadrature(lm), abs=1e-9)


def outage_by_mpmath(lm: LinkModel) -> mpmath.mpf:
    """The quadrature oracle above, at 50 digits."""
    with mpmath.workdps(50):
        gamma, r = mpmath.mpf(lm.snr_avg), mpmath.mpf(lm.target_rate)
        t1 = (2 ** r - 1) / gamma
        t2 = (2 ** (2 * r) - 1) / gamma
        s = mpmath.mpf(lm.dist_sr) ** mpmath.mpf(lm.pathloss_exp)
        w = mpmath.mpf(lm.dist_rd) ** mpmath.mpf(lm.pathloss_exp)
        first_hop_fails = 1 - mpmath.exp(-s * t2)
        return mpmath.quad(lambda x: mpmath.exp(-x) * (
            first_hop_fails + (1 - first_hop_fails) * (1 - mpmath.exp(-w * (t2 - x)))),
            [0, t1])


@pytest.mark.parametrize("gamma", [10.0, 100.0])
@pytest.mark.parametrize("gap", [2e-9, -2e-9, 1e-8, 5.7e-6])
def test_outage_closed_form_next_to_singularity_matches_mpmath(gamma, gap):
    # pathloss_exp = 1 puts dist_rd^pathloss_exp at exactly 1 + gap.
    lm = link(rate=1.0, snr=gamma, alpha=1.0, d_rd=1.0 + gap)
    exact = outage_by_mpmath(lm)
    assert abs(outage_closed_form(lm) - exact) <= 1e-12 * exact


def test_outage_closed_form_rejects_bad_snr():
    with pytest.raises(ValidationError):
        link(snr=0.0)


def test_outage_closed_form_stays_in_range_on_grid():
    for gamma in (0.5, 2.0, 10.0, 100.0):
        for rate in (0.1, 0.5, 1.0, 2.0, 4.0, 12.0):
            for d_sr in (0.5, 1.0, 2.0):
                for d_rd in (0.5, 1.0, 2.0):
                    for alpha in (1.0, 2.0, 3.0):
                        p = outage_closed_form(link(
                            rate=rate, snr=gamma, alpha=alpha,
                            d_sr=d_sr, d_rd=d_rd))
                        assert -1e-12 <= p <= 1.0 + 1e-12


def test_outage_sr_examples():
    assert outage_sr_link(0.0, 5.0) == 0.0
    assert outage_sr_link(0.5, 1.0) == pytest.approx(OUTAGE_SR_HALF_1, abs=1e-9)
    assert outage_sr_link(1.0, 1e9) < 1e-8
    with pytest.raises(ValidationError):
        outage_sr_link(1.0, 0.0)


@given(st.floats(0.01, 1e6), st.floats(0.01, 1e6), st.floats(0.0, 8.0))
@settings(max_examples=100, deadline=None)
def test_outage_sr_monotonicity(snr_low, delta, rate):
    low = outage_sr_link(rate, snr_low)
    high = outage_sr_link(rate, snr_low + delta)
    assert high <= low + 1e-15                 # decreasing in SNR
    assert outage_sr_link(rate + 0.1, snr_low) >= low - 1e-15  # increasing in rate
    assert 0.0 <= low <= 1.0


def test_ber_direct_examples():
    assert ber_direct(1.0) == pytest.approx(BER_DIRECT_1, abs=1e-9)
    assert ber_direct(1e-9) == pytest.approx(0.5, abs=1e-4)  # coin-flip limit
    assert ber_direct(1e6) < 1e-6
    with pytest.raises(ValidationError):
        ber_direct(0.0)


def test_ber_diversity_value():
    assert ber_diversity(1.0, 2.0) == pytest.approx(BER_DIVERSITY_1_2, abs=1e-12)
    # Symmetric in its two arguments.
    assert ber_diversity(2.0, 1.0) == pytest.approx(BER_DIVERSITY_1_2, abs=1e-12)


def ber_diversity_by_quadrature(snr_sd: float, snr_rd: float) -> float:
    """Independent oracle: average the BPSK error Q(sqrt(2x)) over the MRC SNR.

    The combined SNR is the sum of two independent exponentials with means a
    and b, whose density is (e^{-x/a} - e^{-x/b}) / (a - b).  It is taken as
    e^{-x/a} * x/(ab) * expm1(y)/y with y = -x(a - b)/(ab) and a >= b, which
    is exact at a == b (where expm1(y)/y = 1) and does not cancel near it.
    """
    a, b = max(snr_sd, snr_rd), min(snr_sd, snr_rd)
    c = (a - b) / (a * b)

    def integrand(x: float) -> float:
        q = 0.5 * math.erfc(math.sqrt(x))
        y = -x * c
        return q * math.exp(-x / a) * x / (a * b) * (math.expm1(y) / y if y else 1.0)

    value, _ = quad(integrand, 0.0, math.inf, epsabs=1e-13, epsrel=1e-12)
    return value


@pytest.mark.parametrize("snr_sd,snr_rd",
                         [(1.0, 2.0), (0.5, 3.0), (2.0, 10.0), (5.0, 0.2), (10.0, 40.0),
                          (1.0, 1.0), (5.0, 5.0 * (1 + 1e-9)), (40.0, 40.0 * (1 + 1e-9))])
def test_ber_diversity_matches_quadrature(snr_sd, snr_rd):
    assert ber_diversity(snr_sd, snr_rd) == pytest.approx(
        ber_diversity_by_quadrature(snr_sd, snr_rd), abs=1e-9)


def test_ber_diversity_continuity_at_equal_snrs():
    at_equal = ber_diversity(5.0, 5.0)
    assert math.isfinite(at_equal)
    for eps in (1e-4, -1e-4):
        assert ber_diversity(5.0, 5.0 + eps) == pytest.approx(at_equal, abs=1e-6)


def test_ber_diversity_gain_over_direct():
    for snr_sd in (0.5, 1.0, 2.0, 5.0, 10.0, 50.0):
        for snr_rd in (1.0, 2.0, 5.0, 20.0, 100.0):
            assert ber_diversity(snr_sd, snr_rd) < ber_direct(snr_sd)
            assert 0.0 <= ber_diversity(snr_sd, snr_rd) <= 1.0


def test_ber_end_to_end_collapses():
    # First hop certain to fail: only the direct path matters.
    assert ber_end_to_end(40.0, 1.0, 1.0, 2.0) == pytest.approx(ber_direct(1.0), abs=1e-9)
    # Zero rate: first hop never fails, pure diversity.
    assert ber_end_to_end(0.0, 1.0, 1.0, 2.0) == pytest.approx(
        ber_diversity(1.0, 2.0), abs=1e-12)


def test_ber_end_to_end_composition():
    assert ber_end_to_end(0.5, 1.0, 1.0, 2.0) == pytest.approx(E2E_COMPOSED, abs=1e-12)


def test_packet_success_examples():
    assert packet_success(0.0, 1000) == 1.0
    assert packet_success(1.0, 10) == 0.0
    assert packet_success(1e-3, 1000) == pytest.approx(0.367695, abs=1e-6)
    with pytest.raises(ValidationError):
        packet_success(-0.1, 10)
    with pytest.raises(ValidationError):
        packet_success(0.5, 0)


@given(st.floats(0.0, 1.0), st.floats(0.0, 1.0), st.integers(1, 10000))
@settings(max_examples=100, deadline=None)
def test_packet_success_monotone(ber_low, bump, bits):
    ber_high = min(1.0, ber_low + bump)
    assert packet_success(ber_high, bits) <= packet_success(ber_low, bits) + 1e-15
    assert packet_success(ber_low, bits + 1) <= packet_success(ber_low, bits) + 1e-15


def test_outage_monte_carlo_reproducible():
    lm = link()
    a = outage_monte_carlo(lm, 20000, seed=99)
    b = outage_monte_carlo(lm, 20000, seed=99)
    assert a == b
    c = outage_monte_carlo(lm, 20000, seed=100)
    assert c.probability != a.probability  # different stream


def test_outage_monte_carlo_edge_rates():
    zero = outage_monte_carlo(link(rate=0.0), 1000, seed=1)
    assert zero.probability == 0.0 and zero.stderr == 0.0
    certain = outage_monte_carlo(link(rate=1000.0, snr=1.0), 1000, seed=1)
    assert certain.probability == 1.0
    with pytest.raises(ValidationError):
        outage_monte_carlo(link(), 0, seed=1)


def test_outage_monte_carlo_tracks_closed_form():
    # Exact under the module's fading convention, so 200k trials with a fixed
    # seed land well inside the 5e-3 diagnostic band.
    for d_rd in (0.5, 1.0, 2.0):
        lm = link(rate=1.0, snr=10.0, d_rd=d_rd)
        estimate = outage_monte_carlo(lm, 200_000, seed=7)
        assert abs(estimate.probability - outage_closed_form(lm)) <= 5e-3


def test_cooperative_outage_event_matches_scalar_forms():
    lm = link(rate=1.0, snr=10.0)
    # Strong gains everywhere: no outage.
    assert not cooperative_outage_event(ChannelDraw(5.0, 5.0, 5.0), lm)
    # Dead channels: certain outage.
    assert cooperative_outage_event(ChannelDraw(0.0, 0.0, 0.0), lm)
    # Direct path alone strong enough.
    assert not cooperative_outage_event(ChannelDraw(1.0, 0.0, 0.0), lm)
    with pytest.raises(ValidationError):
        ChannelDraw(-0.1, 0.0, 0.0)


def outage_by_log_form(g_sd: float, g_sr: float, g_rd: float, lm: LinkModel) -> bool:
    """The event from its mutual-information definition."""
    snr = lm.snr_avg
    relay_path = min(mutual_info_source_relay(g_sr, snr), mutual_info_mrc(g_sd, g_rd, snr))
    return max(mutual_info_direct(g_sd, snr), relay_path) < lm.target_rate


@pytest.mark.parametrize("lm", [link(), link(rate=0.5, snr=3.0, alpha=3.0, d_sr=0.7, d_rd=1.8),
                                link(rate=2.0, snr=30.0, alpha=2.5, d_sr=1.9, d_rd=0.4)])
def test_outage_event_matches_log_form_on_seeded_draws(lm):
    rng = np.random.default_rng(11)
    g_sd, g_sr, g_rd = rng.exponential(1.0, (3, 20_000))
    events = outage_event(g_sd, g_sr, g_rd, lm.snr_avg, *outage_thresholds(lm.target_rate))
    expected = [outage_by_log_form(*g, lm) for g in zip(g_sd, g_sr, g_rd)]
    assert 0 < events.sum() < len(events)
    assert events.tolist() == expected


@pytest.mark.parametrize("rate", [1.0, 2.0])
@pytest.mark.parametrize("snr", [1.0, 2.0, 4.0])
def test_outage_event_matches_log_form_at_thresholds(rate, snr):
    # With integer rates and power-of-two SNRs a factor of 1 puts g * snr
    # exactly on its threshold (2^R - 1 or 2^{2R} - 1), where that link is
    # not in outage; the other factors sit just off or well off it.
    lm = link(rate=rate, snr=snr)
    t_direct, t_relay = (2.0 ** rate - 1.0) / snr, (2.0 ** (2 * rate) - 1.0) / snr
    near = (0.0, 0.5, 1.0 - 1e-12, 1.0, 1.0 + 1e-12, 2.0)
    for f_sd in near:
        for f_sr in near:
            for f_rd in near:
                g_sd, g_sr = f_sd * t_direct, f_sr * t_relay
                g_rd = max(0.0, f_rd * t_relay - g_sd)
                event = bool(outage_event(g_sd, g_sr, g_rd, snr,
                                          *outage_thresholds(rate)))
                assert event == outage_by_log_form(g_sd, g_sr, g_rd, lm), (g_sd, g_sr, g_rd)
                assert event == cooperative_outage_event(ChannelDraw(g_sd, g_sr, g_rd), lm)
