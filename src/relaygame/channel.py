"""Link-quality models over Rayleigh fading.

Closed-form outage and BER expressions plus a seeded Monte Carlo estimator of
the cooperative outage event.  All SNRs here are linear ratios; dB conversion
happens only at the scenario-loading boundary.

The estimator draws binomial counts of the failed direct paths, of those whose
first hop failed too, and, split on the relay-destination gain, of the rest
that are sure outages and of those in the band where the sum of the two gains
decides.  It draws fading only for that band, so its draws grow with the band,
not with the episodes.

Monte Carlo fading convention: squared channel gains are exponentially
distributed with mean dist^-pathloss_exp (unit mean for the source-destination
hop) and a common SNR multiplier ``snr_avg``.  Under this convention the
closed-form outage expression is exact, so the estimator converges to it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError, check_range

#: Fading realisations the outage Monte Carlo draws per block.  Draws, and so
#: every simulated outage count, depend on it; report provenance records it.
OUTAGE_CHUNK = 1 << 15

#: Target rates R from here up overflow the relay-path threshold 2^(2R) (2^1024).
MAX_TARGET_RATE = 512.0


@dataclass(frozen=True)
class LinkModel:
    """Average-SNR and geometry description of one source-relay-destination path."""

    target_rate: float   # bits/s/Hz
    snr_avg: float       # common transmit SNR for the cooperative outage form
    pathloss_exp: float
    dist_sr: float       # source -> relay, normalized units
    dist_rd: float       # relay -> destination
    snr_sd: float        # mean per-hop SNRs for the BER forms
    snr_sr: float
    snr_rd: float

    def __post_init__(self) -> None:
        check_range("target_rate", self.target_rate, 0.0, MAX_TARGET_RATE, hi_open=True)
        check_range("pathloss_exp", self.pathloss_exp, 0.0)
        check_range("snr_avg", self.snr_avg, 0.0, lo_open=True)
        check_range("snr_sd", self.snr_sd, 0.0, lo_open=True)
        check_range("snr_sr", self.snr_sr, 0.0, lo_open=True)
        check_range("snr_rd", self.snr_rd, 0.0, lo_open=True)
        check_range("dist_sr", self.dist_sr, 0.0, lo_open=True)
        check_range("dist_rd", self.dist_rd, 0.0, lo_open=True)
        for name, dist in (("dist_sr", self.dist_sr), ("dist_rd", self.dist_rd)):
            try:    # float ** raises OverflowError where it would give inf
                scales = min(dist ** self.pathloss_exp, dist ** -self.pathloss_exp) > 0.0
            except OverflowError:
                scales = False
            if not scales:
                raise ValidationError(f"{name}^pathloss_exp and its reciprocal must be "
                                      f"finite and non-zero, got {dist}", field=name)


def outage_thresholds(target_rate: float) -> tuple[float, float]:
    """Gain-times-SNR thresholds of the direct path (2^R - 1) and of the
    half-rate relay paths (2^{2R} - 1); finite below MAX_TARGET_RATE."""
    return 2.0 ** target_rate - 1.0, 2.0 ** (2.0 * target_rate) - 1.0


def outage_closed_form(link: LinkModel) -> float:
    """Cooperative outage probability in closed form.

    Raw value is returned unclamped; reporting layers may clip tiny negative
    round-off.  The removable singularity at dist_rd^pathloss_exp == 1 is
    evaluated by its analytic limit; next to it ``expm1`` keeps the general
    branch free of cancellation.
    """
    gamma = link.snr_avg
    ln_v = -outage_thresholds(link.target_rate)[0] / gamma
    v = math.exp(ln_v)
    # omega = exp(2*ln(v) - ln(v)^2 * gamma); work in log space so extreme
    # rates/SNRs underflow to 0 instead of tripping 0**negative.
    ln_omega = 2.0 * ln_v - ln_v * ln_v * gamma
    s = link.dist_sr ** link.pathloss_exp
    x = link.dist_rd ** link.pathloss_exp
    if x == 1.0:
        # lim_{x->1} (v^(1-x) - 1)/(1 - x) = ln v
        return 1.0 - v + math.exp(ln_omega * (s + x)) * ln_v
    # omega^(s+x) * (v^(1-x) - 1), with expm1 taken of a non-positive
    # argument on either side of x = 1 so it cannot overflow.
    a, b = ln_omega * (s + x), ln_v * (1.0 - x)
    term = math.exp(a) * math.expm1(b) if b <= 0.0 else -math.exp(a + b) * math.expm1(-b)
    return 1.0 - v + term / (1.0 - x)


def count_outages(rng: np.random.Generator, link: LinkModel, trials: int) -> int:
    """Outage events among ``trials`` fading realisations of ``link`` (module
    convention), as conditional counts of the selection decode-and-forward
    event (Laneman, Tse and Wornell, 2004).

    With a = t_direct / snr and T = t_relay / snr, a failed direct path has
    g_sd < a, and the relay path then fails when g_sd + g_rd < T.  Drawn in this
    order: the failed direct paths M ~ Bin(trials, p_d); those whose first hop
    failed too, K ~ Bin(M, p_1), each an outage; of the other M - K, those with
    g_rd < T - a, a sure outage whatever g_sd, ~ Bin(M - K, P(g_rd < T - a));
    of the rest, where g_rd >= T - a, the band g_rd < T ~ Bin(rest, P(g_rd < a))
    (exponentials are memoryless), while g_rd >= T is a sure success.  Only the
    band is drawn, per OUTAGE_CHUNK block: direct gains -log1p(-u * p_d) (Exp(1)
    truncated to failure, by inversion), then excesses e = g_rd - (T - a)
    truncated to [0, a) likewise; an outage when g_sd + e < a.  Every
    probability is one exponential CDF; no closed form of the joint event.
    """
    t_direct, t_relay = outage_thresholds(link.target_rate)
    snr = link.snr_avg
    a = t_direct / snr
    x = link.dist_rd ** link.pathloss_exp       # 1 / mean g_rd
    p_direct = -math.expm1(-a)
    failed = int(rng.binomial(trials, p_direct))
    # A product with dist_sr^pathloss_exp, which may overflow to inf: a sure failure.
    p_first_hop = -math.expm1(-t_relay * link.dist_sr ** link.pathloss_exp / snr)
    hits = int(rng.binomial(failed, p_first_hop))
    # The sure outages; T - a from the thresholds' difference, never inf - inf.
    hits += int(rng.binomial(failed - hits, -math.expm1(-x * ((t_relay - t_direct) / snr))))
    p_band = -math.expm1(-x * a)
    band = int(rng.binomial(failed - hits, p_band))
    for start in range(0, band, OUTAGE_CHUNK):
        size = min(OUTAGE_CHUNK, band - start)
        g = np.log1p(rng.random(size) * -p_direct)          # -g_sd
        e = np.log1p(rng.random(size) * -p_band) / x        # -e
        hits += int(np.count_nonzero(g + e > -a))
    return hits


def outage_monte_carlo(link: LinkModel, trials: int, seed: int) -> float:
    """Estimate the cooperative outage probability by simulation.

    Gains are drawn per the module fading convention; the estimate is the hit
    fraction of the outage event, reproducible for a fixed seed.  Trial counts
    from 2^63 up overflow numpy's binomial and are refused.
    """
    check_range("trials", trials, 1, 2 ** 63, hi_open=True)
    return count_outages(np.random.default_rng(seed), link, trials) / trials


def binomial_stderr(p_hat: float, trials: int) -> float:
    """Standard error sqrt(p(1 - p) / n) of a hit fraction p over n trials."""
    return math.sqrt(p_hat * (1.0 - p_hat) / trials)


def outage_sr_link(target_rate: float, snr_sr: float) -> float:
    """First-hop outage probability of the source->relay link, 1 - exp(-t) taken
    as -expm1(-t) so that it keeps full relative precision at high SNR."""
    check_range("target_rate", target_rate, 0.0, MAX_TARGET_RATE, hi_open=True)
    check_range("snr_sr", snr_sr, 0.0, lo_open=True)
    return -math.expm1(-outage_thresholds(target_rate)[1] / snr_sr)


def ber_direct(snr_sd: float) -> float:
    """BPSK bit error rate of the direct path under Rayleigh fading."""
    check_range("snr_sd", snr_sd, 0.0, lo_open=True)
    return 0.5 * _miss_and_mu(snr_sd)[0]


def _miss_and_mu(snr: float) -> tuple[float, float]:
    """(1 - u, u) for u = sqrt(snr / (1 + snr)); 1 - u is taken as
    1 / ((1 + snr)(1 + u)), which keeps full precision at high SNR."""
    u = math.sqrt(snr / (1.0 + snr))
    return 1.0 / ((1.0 + snr) * (1.0 + u)), u


def ber_diversity(snr_sd: float, snr_rd: float) -> float:
    """BER of the combined (direct + relayed) signal.

    Two-branch MRC BPSK with distinct mean SNRs a, b (Simon and Alouini):
    0.5 * (1 - (b*u_b - a*u_a) / (b - a)) with u = sqrt(snr / (1 + snr)).
    Substituting snr = u^2 / (1 - u^2) cancels the difference quotient to
    0.5 * (1 - u_a)(1 - u_b)(u_a + u_b + u_a*u_b) / (u_a + u_b), a product of
    positive terms: exact at a == b, and free of cancellation near it or,
    with 1 - u from ``_miss_and_mu``, at high SNR.
    """
    check_range("snr_sd", snr_sd, 0.0, lo_open=True)
    check_range("snr_rd", snr_rd, 0.0, lo_open=True)
    (miss_a, u_a), (miss_b, u_b) = _miss_and_mu(snr_sd), _miss_and_mu(snr_rd)
    return 0.5 * miss_a * miss_b * (u_a + u_b + u_a * u_b) / (u_a + u_b)


def ber_end_to_end(
    target_rate: float, snr_sd: float, snr_sr: float, snr_rd: float
) -> float:
    """End-to-end BER: direct-only when the first hop is in outage, combined otherwise."""
    p_out_sr = outage_sr_link(target_rate, snr_sr)
    return (p_out_sr * ber_direct(snr_sd)
            + (1.0 - p_out_sr) * ber_diversity(snr_sd, snr_rd))


def packet_success(ber: float, packet_bits: int) -> float:
    """Probability a packet of the given length arrives with no bit errors."""
    check_range("ber", ber, 0.0, 1.0)
    check_range("packet_bits", packet_bits, 1)
    return (1.0 - ber) ** packet_bits
