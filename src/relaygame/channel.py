"""Link-quality models over Rayleigh fading.

Closed-form outage and BER expressions plus a seeded Monte Carlo estimator of
the cooperative outage event.  All SNRs here are linear ratios; dB conversion
happens only at the scenario-loading boundary.

Monte Carlo fading convention: squared channel gains are exponentially
distributed with mean dist^-pathloss_exp (unit mean for the source-destination
hop) and a common SNR multiplier ``snr_avg``.  Under this convention the
closed-form outage expression is exact, so the estimator converges to it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError


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
        if self.target_rate < 0:
            raise ValidationError(f"target_rate must be >= 0, got {self.target_rate}")
        if self.pathloss_exp < 0:
            raise ValidationError(f"pathloss_exp must be >= 0, got {self.pathloss_exp}")
        for name in ("snr_avg", "snr_sd", "snr_sr", "snr_rd"):
            if getattr(self, name) <= 0:
                raise ValidationError(f"{name} must be > 0, got {getattr(self, name)}")
        for name in ("dist_sr", "dist_rd"):
            if getattr(self, name) <= 0:
                raise ValidationError(f"{name} must be > 0, got {getattr(self, name)}")


@dataclass(frozen=True)
class ChannelDraw:
    """One realization of the three squared channel gains."""

    gain_sd: float
    gain_sr: float
    gain_rd: float

    def __post_init__(self) -> None:
        for name in ("gain_sd", "gain_sr", "gain_rd"):
            if getattr(self, name) < 0:
                raise ValidationError(f"{name} must be >= 0")


@dataclass(frozen=True)
class OutageEstimate:
    """Monte Carlo hit fraction with its binomial standard error."""

    probability: float
    stderr: float
    trials: int
    seed: int


def mutual_info_direct(gain_sd: float, snr: float) -> float:
    """Direct-path rate: log2(1 + g*snr)."""
    return math.log2(1.0 + gain_sd * snr)


def mutual_info_source_relay(gain_sr: float, snr: float) -> float:
    """First-hop rate, halved for the two-slot cooperative cycle."""
    return 0.5 * math.log2(1.0 + gain_sr * snr)


def mutual_info_mrc(gain_sd: float, gain_rd: float, snr: float) -> float:
    """Combined-path rate after maximal-ratio combining, halved likewise."""
    return 0.5 * math.log2(1.0 + (gain_sd + gain_rd) * snr)


def outage_thresholds(target_rate):
    """Gain-times-SNR thresholds of the direct path (2^R - 1) and of the
    half-rate relay paths (2^{2R} - 1); elementwise, overflowing to inf."""
    with np.errstate(over="ignore"):
        return np.power(2.0, target_rate) - 1.0, np.power(2.0, 2.0 * target_rate) - 1.0


def outage_event(g_sd, g_sr, g_rd, snr, t_direct, t_relay):
    """Selection decode-and-forward outage (Laneman, Tse and Wornell, 2004).

    The achieved rate is max(direct, min(first hop, combined)): the relay path
    only helps when the relay itself decoded.  Written log-free against the
    thresholds of ``outage_thresholds``; arguments broadcast elementwise.
    """
    return (g_sd * snr < t_direct) & ((g_sr * snr < t_relay)
                                      | ((g_sd + g_rd) * snr < t_relay))


def cooperative_outage_event(draw: ChannelDraw, link: LinkModel) -> bool:
    """Whether this realization fails to carry the target rate."""
    return bool(outage_event(draw.gain_sd, draw.gain_sr, draw.gain_rd, link.snr_avg,
                             *outage_thresholds(link.target_rate)))


def outage_closed_form(link: LinkModel) -> float:
    """Cooperative outage probability in closed form.

    Raw value is returned unclamped; reporting layers may clip tiny negative
    round-off.  The removable singularity at dist_rd^pathloss_exp == 1 is
    evaluated by its analytic limit; next to it ``expm1`` keeps the general
    branch free of cancellation.
    """
    if link.snr_avg <= 0:
        raise ValidationError("snr_avg must be > 0")
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


def outage_monte_carlo(link: LinkModel, trials: int, seed: int) -> OutageEstimate:
    """Estimate the cooperative outage probability by simulation.

    Gains are drawn per the module fading convention; the estimate is the hit
    fraction of the outage event, reproducible for a fixed seed.
    """
    if trials < 1:
        raise ValidationError(f"trials must be >= 1, got {trials}")
    rng = np.random.default_rng(seed)
    alpha = link.pathloss_exp
    g_sd = rng.exponential(1.0, trials)
    g_sr = rng.exponential(link.dist_sr ** -alpha, trials)
    g_rd = rng.exponential(link.dist_rd ** -alpha, trials)

    hits = outage_event(g_sd, g_sr, g_rd, link.snr_avg, *outage_thresholds(link.target_rate))

    p_hat = float(hits.mean())
    stderr = math.sqrt(p_hat * (1.0 - p_hat) / trials)
    return OutageEstimate(probability=p_hat, stderr=stderr, trials=trials, seed=seed)


def outage_sr_link(target_rate: float, snr_sr: float) -> float:
    """First-hop outage probability of the source->relay link."""
    if snr_sr <= 0:
        raise ValidationError(f"snr_sr must be > 0, got {snr_sr}")
    return 1.0 - math.exp(-(2.0 ** (2.0 * target_rate) - 1.0) / snr_sr)


def ber_direct(snr_sd: float) -> float:
    """BPSK bit error rate of the direct path under Rayleigh fading."""
    if snr_sd <= 0:
        raise ValidationError(f"snr_sd must be > 0, got {snr_sd}")
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
    if snr_sd <= 0 or snr_rd <= 0:
        raise ValidationError("both SNRs must be > 0")
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
    if not 0.0 <= ber <= 1.0:
        raise ValidationError(f"ber must be in [0, 1], got {ber}")
    if packet_bits < 1:
        raise ValidationError(f"packet_bits must be >= 1, got {packet_bits}")
    return (1.0 - ber) ** packet_bits
