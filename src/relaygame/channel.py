"""Link-quality models over Rayleigh fading.

Closed-form outage and BER expressions plus a seeded Monte Carlo estimator of
the cooperative outage event.  All SNRs here are linear ratios; dB conversion
happens only at the scenario-loading boundary.

The estimator draws each block of episodes in two stages: the direct gain of
every episode, then the two relay-hop gains of the episodes whose direct path
failed (of every episode, in a block where nearly all failed), since under
selection decode-and-forward no other episode can be in outage.

Monte Carlo fading convention: squared channel gains are exponentially
distributed with mean dist^-pathloss_exp (unit mean for the source-destination
hop) and a common SNR multiplier ``snr_avg``.  Under this convention the
closed-form outage expression is exact, so the estimator converges to it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import check_range

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
        for name in ("snr_avg", "snr_sd", "snr_sr", "snr_rd", "dist_sr", "dist_rd"):
            check_range(name, getattr(self, name), 0.0, lo_open=True)


@dataclass(frozen=True)
class OutageEstimate:
    """Monte Carlo hit fraction with its binomial standard error."""

    probability: float
    stderr: float
    trials: int
    seed: int


def outage_thresholds(target_rate):
    """Gain-times-SNR thresholds of the direct path (2^R - 1) and of the
    half-rate relay paths (2^{2R} - 1); elementwise, finite below MAX_TARGET_RATE."""
    return np.power(2.0, target_rate) - 1.0, np.power(2.0, 2.0 * target_rate) - 1.0


def outage_event(g_sd, g_sr, g_rd, snr, t_direct, t_relay):
    """Selection decode-and-forward outage (Laneman, Tse and Wornell, 2004).

    The achieved rate is max(direct, min(first hop, combined)): the relay path
    only helps when the relay itself decoded.  Written log-free against the
    thresholds of ``outage_thresholds``; arguments broadcast elementwise.
    """
    return (g_sd * snr < t_direct) & ((g_sr * snr < t_relay)
                                      | ((g_sd + g_rd) * snr < t_relay))


def outage_closed_form(link: LinkModel) -> float:
    """Cooperative outage probability in closed form.

    Raw value is returned unclamped; reporting layers may clip tiny negative
    round-off.  The removable singularity at dist_rd^pathloss_exp == 1 is
    evaluated by its analytic limit; next to it ``expm1`` keeps the general
    branch free of cancellation.
    """
    gamma, r = link.snr_avg, link.target_rate
    ln_v = -(2.0 ** r - 1.0) / gamma
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
    convention), drawn OUTAGE_CHUNK at a time so memory stays bounded.

    Each block is drawn in two stages: the direct gains g_sd of every episode,
    then one relay-hop pair (g_sr, g_rd) for each episode whose direct path
    failed, in episode order.  An episode whose direct path carries the rate
    is never in outage, so its relay hops are not needed: E * (1 + 2 P(direct
    fails)) exponentials instead of 3E.  When more than 7/8 of a block's
    direct paths failed, picking them out costs more than the draws it saves,
    so that block draws a pair for every episode instead.  The count is still
    that of ``outage_event`` over per-episode fading, and no closed form
    enters it.
    """
    mean_sr = link.dist_sr ** -link.pathloss_exp
    mean_rd = link.dist_rd ** -link.pathloss_exp
    t_direct, t_relay = outage_thresholds(link.target_rate)
    snr = link.snr_avg
    hits = 0
    # Every block's direct gains go into one buffer: a fresh 256 KiB array per
    # block can make the allocator hand the heap top back and fault it in again.
    block = np.empty(min(trials, OUTAGE_CHUNK))
    for start in range(0, trials, OUTAGE_CHUNK):
        size = min(OUTAGE_CHUNK, trials - start)
        g_sd = rng.standard_exponential(out=block[:size])
        failed = g_sd * snr < t_direct          # outage_event's direct-path term
        m = int(np.count_nonzero(failed))
        if 8 * m > 7 * size:
            m = size
        else:
            g_sd = np.compress(failed, g_sd)    # g_sd[failed] is 2-4x slower here
        g_sr, g_rd = rng.standard_exponential((2, m))
        hits += int(np.count_nonzero(outage_event(
            g_sd, g_sr * mean_sr, g_rd * mean_rd, snr, t_direct, t_relay)))
    return hits


def outage_monte_carlo(link: LinkModel, trials: int, seed: int) -> OutageEstimate:
    """Estimate the cooperative outage probability by simulation.

    Gains are drawn per the module fading convention; the estimate is the hit
    fraction of the outage event, reproducible for a fixed seed.
    """
    check_range("trials", trials, 1)
    p_hat = count_outages(np.random.default_rng(seed), link, trials) / trials
    stderr = math.sqrt(p_hat * (1.0 - p_hat) / trials)
    return OutageEstimate(probability=p_hat, stderr=stderr, trials=trials, seed=seed)


def outage_sr_link(target_rate: float, snr_sr: float) -> float:
    """First-hop outage probability of the source->relay link."""
    check_range("target_rate", target_rate, 0.0, MAX_TARGET_RATE, hi_open=True)
    check_range("snr_sr", snr_sr, 0.0, lo_open=True)
    return 1.0 - math.exp(-(2.0 ** (2.0 * target_rate) - 1.0) / snr_sr)


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
