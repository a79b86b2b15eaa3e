"""Payload accounting, ARQ throughput, message-count and authentication policy.

Authenticated packets carry hash-tree overhead of hash_bits * (ceil(log2 n) + 1)
bits each, where n is the number of data blocks amortizing one pre-signature;
unauthenticated packets carry a single hash.  Authenticated payload can go
negative for oversized trees: that is data (infeasible configuration), not an
error, and reporting layers decide whether to omit such rows.

Every ARQ throughput is payload * P_c / (T_presig + T_transfer * (P_c + (1 - P_c) * W))
for packet-success probability P_c and window W.  Go-back-N takes the resolved
window; selective repeat is W = 1, where the bracket is exactly 1.0 for every
P_c in [0, 1] in IEEE doubles; the general throughput is P_c = 1.  A sweep over
message counts validates its arguments once, then evaluates that one formula
per n without copying the config.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from .errors import NoFeasibleMessageCountError, ValidationError, check_range


#: Bound of the integer fields that enter float arithmetic (the bit counts, the
#: message count and the window): up to 2^53 every integer is exact as a float,
#: and its product with a message count stays finite.
_MAX_COUNT = 2 ** 53

#: Largest message count a sweep walks: it holds about 500 B per row until its
#: bundle is written (3e6 rows took 1.5 GB), so this keeps it near 50 MB.
MAX_SWEEP_N = 100_000


class ArqMode(enum.Enum):
    GENERAL = "general"
    SR = "sr"
    GBN = "gbn"


@dataclass(frozen=True)
class ThroughputConfig:
    """Packet/hash sizes, message count, authentication fraction and timing.

    Timing comes in two flavors: an explicit transfer time, or one derived as
    n_messages * packet_bits / data_rate.  Exactly one of ``transfer_time`` and
    ``data_rate`` must be given; ``timing_model`` records which.  The ARQ
    window may be given directly or derived from data_rate and reaction_time.
    """

    packet_bits: int
    hash_bits: int
    n_messages: int = 1
    auth_prob: float = 1.0
    presig_time: float = 0.0
    transfer_time: float | None = None
    data_rate: float | None = None
    reaction_time: float | None = None
    window: int | None = None

    def __post_init__(self) -> None:
        # One direct call per field.  Sweeps over n evaluate without copying
        # the config, so these run once per config built, not once per n.
        check_range("packet_bits", self.packet_bits, 0, _MAX_COUNT, lo_open=True)
        check_range("hash_bits", self.hash_bits, 0, _MAX_COUNT, lo_open=True)
        check_range("n_messages", self.n_messages, 1, _MAX_COUNT)
        check_range("auth_prob", self.auth_prob, 0.0, 1.0)
        check_range("presig_time", self.presig_time, 0.0)
        if self.transfer_time is not None:
            check_range("transfer_time", self.transfer_time, 0.0, lo_open=True)
        if self.data_rate is not None:
            check_range("data_rate", self.data_rate, 0.0, lo_open=True)
        if self.reaction_time is not None:
            check_range("reaction_time", self.reaction_time, 0.0, lo_open=True)
        if self.window is not None:
            check_range("window", self.window, 1, _MAX_COUNT)
        if (self.transfer_time is None) == (self.data_rate is None):
            raise ValidationError("give exactly one of transfer_time or data_rate")
        if (self.window is None and self.data_rate is not None and self.reaction_time is not None
                and math.isinf(self.data_rate * self.reaction_time)):    # resolved_window's product
            raise ValidationError(f"data_rate x reaction_time must be finite, got "
                                  f"{self.data_rate} x {self.reaction_time}", field="data_rate")

    @property
    def timing_model(self) -> str:
        return "explicit" if self.transfer_time is not None else "derived"

    @property
    def resolved_window(self) -> int | None:
        """The given window, else rate * reaction time / packet size, ceiling, >= 1."""
        if self.window is not None:
            return self.window
        if self.data_rate is not None and self.reaction_time is not None:
            return max(1, math.ceil(self.data_rate * self.reaction_time / self.packet_bits))
        return None


# The per-n kernels below take an already validated config and n >= 1 and
# check nothing: a sweep calls them once per message count.

def _auth_payload(cfg: ThroughputConfig, n: int) -> int:
    """Usable bits of one authenticated packet at n messages; <= 0 means infeasible."""
    # (n - 1).bit_length() is ceil(log2(n)) for n >= 1, in exact integer arithmetic.
    return cfg.packet_bits - cfg.hash_bits * ((n - 1).bit_length() + 1)


def _arq_at(cfg: ThroughputConfig, n: int, per_packet: int, p_c: float, retry: float) -> float:
    """payload * P_c / (T_presig + T_transfer * retry) at n messages, the payload
    being the authenticated plus the unauthenticated bits per pre-signature."""
    transfer = cfg.transfer_time if cfg.transfer_time is not None else \
        n * cfg.packet_bits / cfg.data_rate
    return ((n * cfg.auth_prob * per_packet
             + n * (1.0 - cfg.auth_prob) * (cfg.packet_bits - cfg.hash_bits))
            * p_c / (cfg.presig_time + transfer * retry))


def _mode_terms(cfg: ThroughputConfig, mode: ArqMode, p_c: float) -> tuple[float, float]:
    """Checked (P_c, P_c + (1 - P_c) * W) of one ARQ mode; general is P_c = 1, W = 1."""
    if mode is ArqMode.GENERAL:
        p_c, window = 1.0, 1
    else:
        window = 1 if mode is ArqMode.SR else cfg.resolved_window
    check_range("packet success probability", p_c, 0.0, 1.0)
    if window is None:
        raise ValidationError("go-back-N needs a window: set window or data_rate+reaction_time")
    return p_c, p_c + (1.0 - p_c) * window


def throughput_for_mode(cfg: ThroughputConfig, mode: ArqMode, p_c: float) -> float:
    """The one ARQ formula at cfg.n_messages; the general mode ignores ``p_c``."""
    p_c, retry = _mode_terms(cfg, mode, p_c)
    return _arq_at(cfg, cfg.n_messages, _auth_payload(cfg, cfg.n_messages), p_c, retry)


def throughput_general(cfg: ThroughputConfig) -> float:
    """Total payload over total (pre-signature + transfer) time."""
    return throughput_for_mode(cfg, ArqMode.GENERAL, 1.0)


def throughput_sr(cfg: ThroughputConfig, p_c: float) -> float:
    """Selective-repeat ARQ throughput: only errored packets are resent."""
    return throughput_for_mode(cfg, ArqMode.SR, p_c)


def throughput_gbn(cfg: ThroughputConfig, p_c: float) -> float:
    """Go-back-N ARQ throughput: an error costs the whole outstanding window."""
    return throughput_for_mode(cfg, ArqMode.GBN, p_c)


def sweep_messages(cfg: ThroughputConfig, n_max: int, arq: ArqMode,
                   p_c: float = 1.0) -> list[tuple[float, bool]]:
    """(throughput, feasible) at message counts 1..n_max, each evaluated once.  With
    any authentication, a count is feasible while its authenticated payload is positive."""
    check_range("n_max", n_max, 1, MAX_SWEEP_N)
    p_c, retry = _mode_terms(cfg, arq, p_c)
    unauthenticated = cfg.auth_prob <= 0.0
    walk = []
    for n in range(1, n_max + 1):
        per_packet = _auth_payload(cfg, n)
        walk.append((_arq_at(cfg, n, per_packet, p_c, retry),
                     unauthenticated or per_packet > 0))
    return walk


def best_message_count(cfg: ThroughputConfig, walk: list[tuple[float, bool]]) -> tuple[int, float]:
    """Feasible argmax (n, throughput) of a ``sweep_messages`` walk; ties go to the smaller n."""
    best: tuple[int, float] | None = None
    for n, (value, feasible) in enumerate(walk, start=1):
        if feasible and (best is None or value > best[1]):
            best = (n, value)
    if best is None:
        raise NoFeasibleMessageCountError(
            f"no n in 1..{len(walk)} keeps the authenticated payload positive "
            f"(packet_bits={cfg.packet_bits}, hash_bits={cfg.hash_bits})")
    return best


def optimize_messages(cfg: ThroughputConfig, n_max: int, arq: ArqMode,
                      p_c: float = 1.0) -> tuple[int, float]:
    """Brute-force argmax of throughput over message counts 1..n_max."""
    return best_message_count(cfg, sweep_messages(cfg, n_max, arq, p_c))


@dataclass(frozen=True)
class SecurityRequirement:
    """Maximum tolerable fraction of compromised packets."""

    max_compromised_fraction: float

    def __post_init__(self) -> None:
        check_range("max_compromised_fraction", self.max_compromised_fraction, 0.0, 1.0)


def min_auth_probability(p_star: float, requirement: SecurityRequirement) -> float:
    """Smallest authentication probability meeting the security requirement.

    Solves (1 - p_a) * p_star <= p_s for p_a; being minimal it is also the
    throughput-preferred choice, since throughput never increases with p_a
    once the tree overhead exceeds a single hash.
    """
    check_range("p_star", p_star, 0.0, 1.0)
    if p_star <= 0.0:
        return 0.0
    return max(0.0, 1.0 - requirement.max_compromised_fraction / p_star)


def compromising_probability(auth_prob: float, p_star: float) -> float:
    """Expected fraction of packets both unauthenticated and on the attacked relay."""
    check_range("auth_prob", auth_prob, 0.0, 1.0)
    check_range("p_star", p_star, 0.0, 1.0)
    return (1.0 - auth_prob) * p_star
