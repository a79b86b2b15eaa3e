"""Channel formulas: mutual information, outage, BER, packet success."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.stats import chi2

from relaygame.channel import (
    OUTAGE_CHUNK,
    LinkModel,
    ber_direct,
    ber_diversity,
    ber_end_to_end,
    binomial_stderr,
    count_outages,
    outage_closed_form,
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


def outage_event(g_sd, g_sr, g_rd, snr, t_direct, t_relay):
    """Selection decode-and-forward outage (Laneman, Tse and Wornell, 2004).

    The achieved rate is max(direct, min(first hop, combined)): the relay path
    only helps when the relay itself decoded.  Written log-free against the
    thresholds of ``outage_thresholds``; arguments broadcast elementwise.
    """
    return (g_sd * snr < t_direct) & ((g_sr * snr < t_relay)
                                      | ((g_sd + g_rd) * snr < t_relay))


# The outage event's mutual-information definition: the log-form oracle that
# ``outage_event``'s threshold form is checked against.

def mutual_info_direct(gain_sd: float, snr: float) -> float:
    """Direct-path rate: log2(1 + g*snr)."""
    return math.log2(1.0 + gain_sd * snr)


def mutual_info_source_relay(gain_sr: float, snr: float) -> float:
    """First-hop rate, halved for the two-slot cooperative cycle."""
    return 0.5 * math.log2(1.0 + gain_sr * snr)


def mutual_info_mrc(gain_sd: float, gain_rd: float, snr: float) -> float:
    """Combined-path rate after maximal-ratio combining, halved likewise."""
    return 0.5 * math.log2(1.0 + (gain_sd + gain_rd) * snr)


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


@pytest.mark.parametrize("snr", [1e4, 1e8, 1e12])
def test_outage_sr_link_matches_mpmath_at_high_snr(snr):
    # At rate 1 the relay threshold 2^2 - 1 = 3 is exact, so the only rounding
    # left is in 1 - exp(-3 / snr), which is tiny here.
    with mpmath.workdps(50):
        exact = -mpmath.expm1(-mpmath.mpf(3) / mpmath.mpf(snr))
        assert abs(outage_sr_link(1.0, snr) - exact) <= 1e-15 * exact


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


#: Mean SNRs 10^(e/4) for e = -24 ... 24: 1e-6 to 1e6 in quarter decades.
BER_GRID = [10.0 ** (e / 4) for e in range(-24, 25)]


def mu_by_mpmath(snr: float) -> mpmath.mpf:
    return mpmath.sqrt(mpmath.mpf(snr) / (1 + mpmath.mpf(snr)))


def test_ber_direct_matches_mpmath():
    # (1 - sqrt(s / (1 + s))) / 2 at 50 digits, where the code takes 1 - u by
    # another route.
    with mpmath.workdps(50):
        for snr in BER_GRID:
            exact = (1 - mu_by_mpmath(snr)) / 2
            assert abs(ber_direct(snr) - exact) <= 1e-13 * exact, snr


def test_ber_diversity_matches_mpmath():
    # Simon and Alouini's difference form (1 - (b u_b - a u_a) / (b - a)) / 2
    # where a != b and ((1 - u) / 2)^2 (2 + u) where a == b, at 50 digits: the
    # code's product form shares neither.
    pairs = [(a, b) for a in BER_GRID for b in BER_GRID] + [(a, a * (1 + 1e-9)) for a in BER_GRID]
    with mpmath.workdps(50):
        for a, b in pairs:
            u_a, u_b = mu_by_mpmath(a), mu_by_mpmath(b)
            if a == b:
                exact = ((1 - u_a) / 2) ** 2 * (2 + u_a)
            else:
                ma, mb = mpmath.mpf(a), mpmath.mpf(b)
                exact = (1 - (mb * u_b - ma * u_a) / (mb - ma)) / 2
            assert abs(ber_diversity(a, b) - exact) <= 1e-13 * exact, (a, b)


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
    assert c != a  # different stream


def test_outage_monte_carlo_edge_rates():
    zero = outage_monte_carlo(link(rate=0.0), 1000, seed=1)
    assert zero == 0.0 and binomial_stderr(zero, 1000) == 0.0
    certain = outage_monte_carlo(link(rate=511.99, snr=1.0), 1000, seed=1)
    assert certain == 1.0
    with pytest.raises(ValidationError, match="target_rate"):
        link(rate=1000.0, snr=1.0)   # 2^(2R) would overflow a float
    with pytest.raises(ValidationError):
        outage_monte_carlo(link(), 0, seed=1)


def test_outage_monte_carlo_tracks_closed_form():
    # Exact under the module's fading convention, so 200k trials with a fixed
    # seed land well inside the 5e-3 diagnostic band.
    for d_rd in (0.5, 1.0, 2.0):
        lm = link(rate=1.0, snr=10.0, d_rd=d_rd)
        estimate = outage_monte_carlo(lm, 200_000, seed=7)
        assert abs(estimate - outage_closed_form(lm)) <= 5e-3


def link_failing_direct(p_direct, snr, **geometry):
    """A link whose direct path fails with probability ``p_direct``:
    P(g_sd * snr < 2^R - 1) = 1 - exp(-(2^R - 1) / snr) for unit-mean g_sd."""
    return link(rate=math.log2(1.0 + snr * -math.log1p(-p_direct)), snr=snr, **geometry)


# The sampler draws relay-hop gains only where the direct path failed, so its
# work and its gather step change with that rate; each geometry below checks
# the estimate against the closed form over pinned seeds, in the style of the
# simulator's equivalence gates.  The 0.5 geometry takes the closed form's
# dist_rd = 1 limit branch.
DIRECT_FAILURE_GEOMETRIES = {
    "p_direct=1e-4": (link_failing_direct(1e-4, 1e4, d_sr=100.0, d_rd=100.0), 400_000),
    "p_direct=0.1": (link_failing_direct(0.1, 10.0, d_rd=1.5), 40_000),
    "p_direct=0.5": (link_failing_direct(0.5, 0.1, d_sr=0.5, d_rd=1.0), 40_000),
    "p_direct=0.995": (link_failing_direct(0.995, 1.0, d_sr=0.1, d_rd=0.1), 40_000),
}


@pytest.mark.parametrize("name", list(DIRECT_FAILURE_GEOMETRIES))
def test_outage_monte_carlo_across_direct_failure_rates(name):
    lm, trials = DIRECT_FAILURE_GEOMETRIES[name]
    p = outage_closed_form(lm)
    zs = [(outage_monte_carlo(lm, trials, seed) - p)
          / math.sqrt(p * (1.0 - p) / trials) for seed in range(100)]
    n = len(zs)
    assert abs(sum(zs) / n) <= 4.0 / math.sqrt(n), f"mean z {sum(zs) / n:.3f}"
    ss = sum(z * z for z in zs)
    assert chi2.ppf(0.0005, n) < ss < chi2.ppf(0.9995, n), f"sum z^2 {ss:.1f} of {n}"


def count_outages_in_documented_order(rng, lm, trials):
    """The documented draw order, written out episode by episode: the count
    of failed direct paths, the count of those whose first hop failed too, the
    count of the rest whose relay-destination gain is below T - a (a sure
    outage), the count of the rest whose gain lies in the band [T - a, T), then
    per block of the band a uniform for each truncated direct gain and one for
    each truncated excess of the relay-destination gain over T - a."""
    t_direct = 2.0 ** lm.target_rate - 1.0
    t_relay = 2.0 ** (2.0 * lm.target_rate) - 1.0
    gamma = lm.snr_avg
    a = t_direct / gamma
    x = lm.dist_rd ** lm.pathloss_exp
    p_direct = -math.expm1(-a)
    failed = rng.binomial(trials, p_direct)
    hits = rng.binomial(failed, -math.expm1(-t_relay * lm.dist_sr ** lm.pathloss_exp / gamma))
    hits += rng.binomial(failed - hits, -math.expm1(-x * ((t_relay - t_direct) / gamma)))
    p_band = -math.expm1(-x * a)
    band = rng.binomial(failed - hits, p_band)
    for start in range(0, band, OUTAGE_CHUNK):
        size = min(OUTAGE_CHUNK, band - start)
        direct_uniforms = rng.random(size).tolist()
        excess_uniforms = rng.random(size).tolist()
        for u, v in zip(direct_uniforms, excess_uniforms):
            g_sd = -math.log1p(-u * p_direct)
            excess = -math.log1p(-v * p_band) / x
            hits += g_sd + excess < a
    return hits


# Keyed by the direct path's failure rate, as the test ids read.
DOCUMENTED_ORDER_LINKS = {
    **{str(p): link_failing_direct(p, 1.0, d_sr=0.3, d_rd=0.7) for p in (0.01, 0.5, 0.85, 0.95)},
    "1.0": link(rate=511.99, snr=1.0),
    "0.95-wide-band": link_failing_direct(0.95, 0.02, d_sr=0.03, d_rd=0.48),
}


@pytest.mark.parametrize("p_direct", list(DOCUMENTED_ORDER_LINKS))
def test_count_outages_draws_in_documented_order(p_direct):
    # The band holds about 20, 27k, 7k and 220 episodes at the first four
    # keys; at 1.0 every first hop fails, so no block is drawn; the wide band
    # (rate 0.08, x * a near ln 2) holds about 91k: two full blocks and a
    # partial one.
    lm = DOCUMENTED_ORDER_LINKS[p_direct]
    trials = 400_003
    rng_a, rng_b = np.random.default_rng(5), np.random.default_rng(5)
    assert count_outages(rng_a, lm, trials) == count_outages_in_documented_order(
        rng_b, lm, trials)
    # Both generators end in the same state, so a caller's next draw agrees.
    assert rng_a.random() == rng_b.random()


# Geometries at the edges of the conditional decomposition, each checked
# against the closed form over pinned seeds like DIRECT_FAILURE_GEOMETRIES:
# first hops that almost never fail (nearly every failed direct path reaches
# the block stage), direct paths that almost always fail, the closed form's
# dist_rd^pathloss_exp = 1 branch, a rate next to MAX_TARGET_RATE, where
# every first hop fails and no block is drawn, a far relay-destination hop,
# where 99.3 % of the rest are sure outages, and a near one, where 0.36 % of
# the rest that are no sure outage fall in the band.
DECOMPOSITION_GEOMETRIES = {
    "p_first_hop->0": (link_failing_direct(0.3, 10.0, d_sr=0.01, d_rd=1.5), 20_000),
    "p_direct->1": (link_failing_direct(1.0 - 1e-6, 1.0, d_sr=0.07, d_rd=0.07), 20_000),
    "dist_rd^alpha=1": (link_failing_direct(0.4, 2.0, alpha=3.0, d_sr=0.8, d_rd=1.0), 20_000),
    "rate=511.5": (link(rate=511.5, snr=1e154), 20_000),
    "p_sure->1": (link_failing_direct(0.3, 10.0, d_sr=0.3, d_rd=1.75), 20_000),
    "p_band->0": (link_failing_direct(0.3, 10.0, d_sr=0.3, d_rd=0.1), 20_000),
}


@pytest.mark.parametrize("name", list(DECOMPOSITION_GEOMETRIES))
def test_count_outages_across_decomposition_edges(name):
    lm, trials = DECOMPOSITION_GEOMETRIES[name]
    p = outage_closed_form(lm)
    assert 0.01 < p < 0.99
    zs = [(count_outages(np.random.default_rng(seed), lm, trials) / trials - p)
          / math.sqrt(p * (1.0 - p) / trials) for seed in range(200)]
    n = len(zs)
    assert abs(sum(zs) / n) <= 4.0 / math.sqrt(n), f"mean z {sum(zs) / n:.3f}"
    ss = sum(z * z for z in zs)
    assert chi2.ppf(0.0005, n) < ss < chi2.ppf(0.9995, n), f"sum z^2 {ss:.1f} of {n}"


def test_count_outages_with_no_failed_direct_path():
    # p_d = 1 - exp(-1e-12): M = 0 at every seed, and only the four binomial
    # counts are drawn.
    lm = link(rate=math.log2(1.0 + 1e-12), snr=1.0)
    t_direct, t_relay = 2.0 ** lm.target_rate - 1.0, 2.0 ** (2.0 * lm.target_rate) - 1.0
    for seed in range(50):
        rng, after = np.random.default_rng(seed), np.random.default_rng(seed)
        assert count_outages(rng, lm, 1_000_000) == 0
        after.binomial(1_000_000, -math.expm1(-t_direct))
        after.binomial(0, -math.expm1(-t_relay))
        after.binomial(0, -math.expm1(-(t_relay - t_direct)))
        after.binomial(0, -math.expm1(-t_direct))
        assert rng.random() == after.random()


def count_outages_per_episode(rng, lm, trials):
    """``outage_event`` over one (g_sd, g_sr, g_rd) fading draw per episode."""
    g_sd, g_sr, g_rd = rng.standard_exponential((3, trials))
    return int(np.count_nonzero(outage_event(
        g_sd, g_sr * lm.dist_sr ** -lm.pathloss_exp, g_rd * lm.dist_rd ** -lm.pathloss_exp,
        lm.snr_avg, *outage_thresholds(lm.target_rate))))


# p_direct=1e-4 is left out: at these trial counts both samples are mostly 0.
PER_EPISODE_GEOMETRIES = {
    name: lm for name, (lm, _) in {**DIRECT_FAILURE_GEOMETRIES,
                                   **DECOMPOSITION_GEOMETRIES}.items()
    if name != "p_direct=1e-4"}


@pytest.mark.parametrize("name", list(PER_EPISODE_GEOMETRIES))
def test_count_outages_matches_per_episode_definition(name):
    # Two-sample z of the decomposed count against the per-episode event on
    # independent streams, pooled rate; no closed form enters.
    lm = PER_EPISODE_GEOMETRIES[name]
    trials = 20_000
    zs = []
    for seed in range(100):
        a = count_outages(np.random.default_rng([seed, 0]), lm, trials)
        b = count_outages_per_episode(np.random.default_rng([seed, 1]), lm, trials)
        pooled = (a + b) / (2 * trials)
        zs.append((a - b) / math.sqrt(2 * trials * pooled * (1.0 - pooled)))
    n = len(zs)
    assert abs(sum(zs) / n) <= 4.0 / math.sqrt(n), f"mean z {sum(zs) / n:.3f}"
    ss = sum(z * z for z in zs)
    assert chi2.ppf(0.0005, n) < ss < chi2.ppf(0.9995, n), f"sum z^2 {ss:.1f} of {n}"


def test_outage_monte_carlo_edge_counts():
    # Every direct path fails at rate 511.99, and none at a huge SNR, where
    # no relay-hop gain is drawn at all.
    trials = 3 * OUTAGE_CHUNK + 7
    certain = outage_monte_carlo(link(rate=511.99, snr=1.0), trials, seed=2)
    assert certain == 1.0 and binomial_stderr(certain, trials) == 0.0
    never = outage_monte_carlo(link(rate=1.0, snr=1e15), trials, seed=2)
    assert never == 0.0 and binomial_stderr(never, trials) == 0.0


def test_cooperative_outage_event_matches_scalar_forms():
    thresholds = outage_thresholds(1.0)
    # Strong gains everywhere: no outage.
    assert not outage_event(5.0, 5.0, 5.0, 10.0, *thresholds)
    # Dead channels: certain outage.
    assert outage_event(0.0, 0.0, 0.0, 10.0, *thresholds)
    # Direct path alone strong enough.
    assert not outage_event(1.0, 0.0, 0.0, 10.0, *thresholds)


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
