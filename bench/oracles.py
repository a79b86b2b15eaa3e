"""Reference computations that share no code or derivation with relaygame.

Each closed form the program reports is recomputed here from its definition:
the outage probability and the BER curves by numerical quadrature over the
fading densities, the equilibrium by a linear solve of the indifference
conditions built from the per-cell payoffs, and equilibrium quality by a scan
of every pure deviation in the full attacker x source payoff matrices.  Only
numpy and the standard library are used, so the benchmark child stays free of
scipy's import time and memory.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Composite Gauss-Legendre rules: equal panels of _NODES points each.
_NODES = 16
_GL_X, _GL_W = np.polynomial.legendre.leggauss(_NODES)


def _composite_rule(lo: float, hi: float, panels: int) -> tuple[np.ndarray, np.ndarray]:
    edges = np.linspace(lo, hi, panels + 1)
    half = 0.5 * np.diff(edges)
    mid = 0.5 * (edges[:-1] + edges[1:])
    x = (mid[:, None] + half[:, None] * _GL_X[None, :]).ravel()
    w = (half[:, None] * _GL_W[None, :]).ravel()
    return x, w


# --- outage -------------------------------------------------------------------

_UNIT_X, _UNIT_W = _composite_rule(0.0, 1.0, 8)


def outage_quadrature(target_rate, snr_avg, pathloss_exp, dist_sr, dist_rd):
    """P[g_sd*y < 2^R-1 and (g_sr*y < 2^2R-1 or (g_sd+g_rd)*y < 2^2R-1)].

    Squared gains are exponential with means 1, dist_sr^-alpha and
    dist_rd^-alpha.  Conditioning on g_sd = x leaves a 1-D integral over
    [0, a] with a = (2^R-1)/y; since b = (2^2R-1)/y >= a, b - x stays positive:

        P = int_0^a e^-x [1 - P(g_sr >= b) P(g_rd >= b - x)] dx

    Arguments may be arrays (one entry per link); the result has their shape.
    """
    a = np.asarray((2.0 ** np.asarray(target_rate) - 1.0) / snr_avg, float)[..., None]
    b = np.asarray((2.0 ** (2.0 * np.asarray(target_rate)) - 1.0) / snr_avg)[..., None]
    rate_sr = np.asarray(dist_sr ** np.asarray(pathloss_exp))[..., None]   # 1 / mean
    rate_rd = np.asarray(dist_rd ** np.asarray(pathloss_exp))[..., None]
    x = a * _UNIT_X
    integrand = np.exp(-x) * (1.0 - np.exp(-b * rate_sr) * np.exp(-(b - x) * rate_rd))
    return (a * integrand) @ _UNIT_W


# --- BER ----------------------------------------------------------------------
# BPSK over fading: BER = int_0^inf Q(sqrt(2y)) f(y) dy, with
# Q(sqrt(2y)) = erfc(sqrt y)/2.  Substituting y = t^2 removes the square-root
# cusp at 0; erfc(t) ~ e^{-t^2} makes t > 12 negligible (below 1e-60).

_T, _TW = _composite_rule(0.0, 12.0, 96)
_ERFC_T = np.array([math.erfc(t) for t in _T])
_KERNEL = _TW * 0.5 * _ERFC_T * 2.0 * _T     # weight * Q * dy/dt
_T2 = _T * _T


def ber_rayleigh_quadrature(mean_snr):
    """Single-branch BPSK BER: SNR exponential with the given mean."""
    m = np.asarray(mean_snr, float)[..., None]
    return (np.exp(-_T2 / m) / m) @ _KERNEL


def ber_mrc_quadrature(mean_1, mean_2):
    """BPSK BER after combining two independent exponential SNR branches.

    The sum of exponentials with distinct means m1, m2 has density
    (e^{-y/m1} - e^{-y/m2}) / (m1 - m2).
    """
    m1 = np.asarray(mean_1, float)[..., None]
    m2 = np.asarray(mean_2, float)[..., None]
    if np.any(m1 == m2):
        raise ValueError("branch means must differ")
    return ((np.exp(-_T2 / m1) - np.exp(-_T2 / m2)) / (m1 - m2)) @ _KERNEL


def sr_outage(target_rate, snr_sr):
    """P[g*snr_sr < 2^2R - 1] for a unit-mean exponential gain g."""
    return -np.expm1(-(2.0 ** (2.0 * np.asarray(target_rate)) - 1.0) / snr_sr)


def ber_end_to_end(target_rate, snr_sd, snr_sr, snr_rd):
    """Direct-only BER when the first hop is in outage, combined otherwise."""
    p_out = sr_outage(target_rate, snr_sr)
    return (p_out * ber_rayleigh_quadrature(snr_sd)
            + (1.0 - p_out) * ber_mrc_quadrature(snr_sd, snr_rd))


def packet_success(target_rate, snr_sd, snr_sr, snr_rd, packet_bits):
    return (1.0 - ber_end_to_end(target_rate, snr_sd, snr_sr, snr_rd)) ** packet_bits


#: BER of two-branch MRC at mean SNRs (1, 2), from scipy.integrate.quad.
MRC_REFERENCE = (1.0, 2.0, 0.03705680966554772)


def self_test() -> bool:
    """The quadratures reproduce values known independently of this module."""
    ok = abs(ber_mrc_quadrature(*MRC_REFERENCE[:2]) - MRC_REFERENCE[2]) < 1e-13
    # Textbook single-branch Rayleigh BPSK: (1 - sqrt(y/(1+y)))/2.
    y = np.array([0.5, 1.0, 10.0, 300.0])
    ok &= np.allclose(ber_rayleigh_quadrature(y), 0.5 * (1.0 - np.sqrt(y / (1.0 + y))),
                      rtol=1e-11, atol=0.0)
    return bool(ok)


# --- game ---------------------------------------------------------------------

@dataclass(frozen=True)
class Game:
    """Per-relay combined assets A_i and the game constants."""

    assets: np.ndarray          # positional, aligned with ids
    ids: tuple[int, ...]
    detect: float               # a
    false_alarm: float          # beta
    attack_cost: float          # C_a
    monitor_cost: float         # C_m
    false_alarm_loss: float     # C_f

    @classmethod
    def from_dict(cls, data: dict) -> "Game":
        g = data["game"]
        wi, ws = g.get("weight_info", 0.5), g.get("weight_security", 0.5)
        relays = data["relays"]
        assets = np.array([wi * r["info_asset"] + ws * r["sec_asset"] for r in relays])
        ids = tuple(int(r.get("id", k + 1)) for k, r in enumerate(relays))
        return cls(assets, ids, g["detect_rate"], g["false_alarm_rate"],
                   g["attack_cost"], g["monitor_cost"], g["false_alarm_loss"])

    def payoff_matrices(self) -> tuple[np.ndarray, np.ndarray]:
        """Attacker and source payoffs for attack i (row), select j (column).

        Cells on one relay: attacked and selected, attacked only, selected
        only.  A pure profile (i, j) sums the cells of the relays it touches.
        """
        A, a = self.assets, self.detect
        burden = self.false_alarm * self.false_alarm_loss + self.monitor_cost
        att = np.repeat(((1.0 - self.attack_cost) * A)[:, None], len(A), axis=1)
        src = -A[:, None] - burden * A[None, :]
        diag = np.arange(len(A))
        att[diag, diag] = (1.0 - 2.0 * a - self.attack_cost) * A
        src[diag, diag] = -(1.0 - 2.0 * a + self.monitor_cost) * A
        return att, src


@dataclass(frozen=True)
class Equilibrium:
    p: np.ndarray               # attacker mix, positional
    q: np.ndarray               # source mix, positional
    sensible: tuple[int, ...]   # relay ids, by asset descending
    margin: float               # smallest slack of any condition checked


def _indifference(values: np.ndarray, slope: np.ndarray) -> tuple[np.ndarray, float]:
    """Solve values_i + slope_i * x_i = lam for all i, sum x_i = 1."""
    m = len(values)
    mat = np.zeros((m + 1, m + 1))
    mat[:m, :m] = np.diag(slope)
    mat[:m, m] = -1.0
    mat[m, :m] = 1.0
    rhs = np.concatenate([-values, [1.0]])
    sol = np.linalg.solve(mat, rhs)
    return sol[:m], float(sol[m])


def equilibrium(game: Game) -> Equilibrium | None:
    """Mixed equilibrium over the sensible prefix, or None if none is valid.

    For a candidate support S (a prefix of relays by asset, ties by id) both
    players must be indifferent over S: the attacker's per-relay payoff
    against q, A_i(1 - C_a - 2a q_i), is one constant; the source's payoff
    against p, A_i(p_i(2a + beta C_f) - (beta C_f + C_m)), is another.  The
    support is accepted when both mixes lie in [0, 1] and no relay outside S
    pays either player more than that constant.
    """
    A, a = game.assets, game.detect
    bcf = game.false_alarm * game.false_alarm_loss
    burden = bcf + game.monitor_cost
    order = sorted(range(len(A)), key=lambda k: (-A[k], game.ids[k]))
    for m in range(1, len(A) + 1):
        S, rest = order[:m], order[m:]
        As = A[S]
        q_s, lam_att = _indifference(As * (1.0 - game.attack_cost), -2.0 * a * As)
        p_s, lam_src = _indifference(-burden * As, (2.0 * a + bcf) * As)
        slacks = np.concatenate([
            q_s, 1.0 - q_s, p_s, 1.0 - p_s,
            lam_att - A[rest] * (1.0 - game.attack_cost),
            lam_src + A[rest] * burden,
        ])
        if slacks.min() >= -1e-12:
            p, q = np.zeros(len(A)), np.zeros(len(A))
            p[S], q[S] = p_s, q_s
            # The lone-relay support sits exactly on q = p = 1; that slack is
            # structural, not a closeness to the validity boundary.
            interior = slacks[np.abs(slacks) > 1e-12] if m == 1 else slacks
            margin = float(interior.min()) if interior.size else math.inf
            return Equilibrium(p, q, tuple(game.ids[k] for k in S), margin)
    return None


def deviation_gains(game: Game, p, q) -> tuple[float, float]:
    """Largest gain either player gets from switching to a pure strategy."""
    att, src = game.payoff_matrices()
    p, q = np.asarray(p, float), np.asarray(q, float)
    att_vs_q = att @ q
    src_vs_p = p @ src
    return (float(att_vs_q.max() - p @ att_vs_q),
            float(src_vs_p.max() - src_vs_p @ q))


# --- statistics ---------------------------------------------------------------

#: Every statistical gate sits this many standard deviations out, so one
#: false failure needs an event of probability ~1e-9 per check.
Z_BOUND = 6.0


def chi2_bound(df: int, z: float = Z_BOUND) -> float:
    """Wilson-Hilferty upper quantile of chi-square(df) at a normal z-score."""
    c = 2.0 / (9.0 * df)
    return df * (1.0 - c + z * math.sqrt(c)) ** 3


def chi2_counts(counts, probs) -> tuple[float, int, bool]:
    """Pearson statistic of counts against probs; zero-probability cells must
    stay empty.  Returns (statistic, degrees of freedom, cells-ok)."""
    counts = np.asarray(counts, float)
    probs = np.asarray(probs, float)
    n = counts.sum()
    live = probs > 0
    empty_ok = bool(np.all(counts[~live] == 0))
    expected = n * probs[live]
    stat = float(((counts[live] - expected) ** 2 / expected).sum())
    return stat, int(live.sum()) - 1, empty_ok
