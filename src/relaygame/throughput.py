"""Payload accounting, ARQ throughput, message-count and authentication policy.

Authenticated packets carry hash-tree overhead of hash_bits * (ceil(log2 n) + 1)
bits each, where n is the number of data blocks amortizing one pre-signature;
unauthenticated packets carry a single hash.  Authenticated payload can go
negative for oversized trees: that is data (infeasible configuration), not an
error, and reporting layers decide whether to omit such rows.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, replace

from .errors import NoFeasibleMessageCountError, ValidationError


class ArqMode(enum.Enum):
    GENERAL = "general"
    SR = "sr"
    GBN = "gbn"


def ceil_log2(n: int) -> int:
    """ceil(log2(n)) for n >= 1, in exact integer arithmetic."""
    if n < 1:
        raise ValidationError(f"n must be >= 1, got {n}")
    return (n - 1).bit_length()


def window_size(data_rate: float, reaction_time: float, packet_bits: int) -> int:
    """Outstanding-packet window: rate * reaction time / packet size, ceiling, >= 1."""
    if data_rate <= 0 or reaction_time <= 0 or packet_bits <= 0:
        raise ValidationError("data_rate, reaction_time and packet_bits must be > 0")
    return max(1, math.ceil(data_rate * reaction_time / packet_bits))


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
        if self.packet_bits <= 0:
            raise ValidationError(f"packet_bits must be > 0, got {self.packet_bits}")
        if self.hash_bits <= 0:
            raise ValidationError(f"hash_bits must be > 0, got {self.hash_bits}")
        if self.n_messages < 1:
            raise ValidationError(f"n_messages must be >= 1, got {self.n_messages}")
        if not 0.0 <= self.auth_prob <= 1.0:
            raise ValidationError(f"auth_prob must be in [0, 1], got {self.auth_prob}")
        if self.presig_time < 0:
            raise ValidationError(f"presig_time must be >= 0, got {self.presig_time}")
        if (self.transfer_time is None) == (self.data_rate is None):
            raise ValidationError("give exactly one of transfer_time or data_rate")
        if self.transfer_time is not None and self.transfer_time <= 0:
            raise ValidationError(f"transfer_time must be > 0, got {self.transfer_time}")
        if self.data_rate is not None and self.data_rate <= 0:
            raise ValidationError(f"data_rate must be > 0, got {self.data_rate}")
        if self.reaction_time is not None and self.reaction_time <= 0:
            raise ValidationError(f"reaction_time must be > 0, got {self.reaction_time}")
        if self.window is not None and self.window < 1:
            raise ValidationError(f"window must be >= 1, got {self.window}")

    @property
    def timing_model(self) -> str:
        return "explicit" if self.transfer_time is not None else "derived"

    @property
    def resolved_transfer_time(self) -> float:
        if self.transfer_time is not None:
            return self.transfer_time
        return self.n_messages * self.packet_bits / self.data_rate

    @property
    def total_time(self) -> float:
        return self.presig_time + self.resolved_transfer_time

    @property
    def resolved_window(self) -> int | None:
        if self.window is not None:
            return self.window
        if self.data_rate is not None and self.reaction_time is not None:
            return window_size(self.data_rate, self.reaction_time, self.packet_bits)
        return None

    def with_messages(self, n: int) -> "ThroughputConfig":
        """Same config at a different message count (derived timing re-resolves)."""
        return replace(self, n_messages=n)

    def auth_payload_per_packet(self) -> int:
        """Usable bits of one authenticated packet; <= 0 means infeasible."""
        return self.packet_bits - self.hash_bits * (ceil_log2(self.n_messages) + 1)


def payload_auth(cfg: ThroughputConfig) -> float:
    """Authenticated payload per pre-signature; negative when the tree overhead wins."""
    return cfg.n_messages * cfg.auth_prob * cfg.auth_payload_per_packet()


def payload_noauth(cfg: ThroughputConfig) -> float:
    """Unauthenticated payload per pre-signature."""
    return cfg.n_messages * (1.0 - cfg.auth_prob) * (cfg.packet_bits - cfg.hash_bits)


def throughput_general(cfg: ThroughputConfig) -> float:
    """Total payload over total (pre-signature + transfer) time."""
    total = cfg.total_time
    if total <= 0:
        raise ValidationError("total time must be > 0")
    return (payload_auth(cfg) + payload_noauth(cfg)) / total


def throughput_sr(cfg: ThroughputConfig, p_c: float) -> float:
    """Selective-repeat ARQ throughput: only errored packets are resent."""
    _check_pc(p_c)
    total = cfg.total_time
    if total <= 0:
        raise ValidationError("total time must be > 0")
    return (payload_auth(cfg) + payload_noauth(cfg)) * p_c / total


def throughput_gbn(cfg: ThroughputConfig, p_c: float) -> float:
    """Go-back-N ARQ throughput: an error costs the whole outstanding window."""
    _check_pc(p_c)
    w = cfg.resolved_window
    if w is None:
        raise ValidationError(
            "go-back-N needs a window: set window or data_rate+reaction_time")
    denom = cfg.presig_time + cfg.resolved_transfer_time * (p_c + (1.0 - p_c) * w)
    if denom <= 0:
        raise ValidationError("total time must be > 0")
    return (payload_auth(cfg) + payload_noauth(cfg)) * p_c / denom


def _check_pc(p_c: float) -> None:
    if not 0.0 <= p_c <= 1.0:
        raise ValidationError(f"packet success probability must be in [0, 1], got {p_c}")


def throughput_for_mode(cfg: ThroughputConfig, mode: ArqMode, p_c: float) -> float:
    if mode is ArqMode.GENERAL:
        return throughput_general(cfg)
    if mode is ArqMode.SR:
        return throughput_sr(cfg, p_c)
    return throughput_gbn(cfg, p_c)


def optimize_messages(
    cfg: ThroughputConfig, n_max: int, arq: ArqMode, p_c: float = 1.0
) -> tuple[int, float]:
    """Brute-force argmax of throughput over message counts 1..n_max.

    When any packets are authenticated, counts whose per-packet authenticated
    payload is non-positive are excluded; ties go to the smaller count.
    """
    if n_max < 1:
        raise ValidationError(f"n_max must be >= 1, got {n_max}")
    best: tuple[int, float] | None = None
    for n in range(1, n_max + 1):
        candidate = cfg.with_messages(n)
        if cfg.auth_prob > 0.0 and candidate.auth_payload_per_packet() <= 0:
            continue
        value = throughput_for_mode(candidate, arq, p_c)
        if best is None or value > best[1]:
            best = (n, value)
    if best is None:
        raise NoFeasibleMessageCountError(
            f"no n in 1..{n_max} keeps the authenticated payload positive "
            f"(packet_bits={cfg.packet_bits}, hash_bits={cfg.hash_bits})")
    return best


@dataclass(frozen=True)
class SecurityRequirement:
    """Maximum tolerable fraction of compromised packets."""

    max_compromised_fraction: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.max_compromised_fraction <= 1.0:
            raise ValidationError(
                f"max_compromised_fraction must be in [0, 1], "
                f"got {self.max_compromised_fraction}")


def min_auth_probability(p_star: float, requirement: SecurityRequirement) -> float:
    """Smallest authentication probability meeting the security requirement.

    Solves (1 - p_a) * p_star <= p_s for p_a; being minimal it is also the
    throughput-preferred choice, since throughput never increases with p_a
    once the tree overhead exceeds a single hash.
    """
    if not 0.0 <= p_star <= 1.0:
        raise ValidationError(f"p_star must be in [0, 1], got {p_star}")
    if p_star <= 0.0:
        return 0.0
    return max(0.0, 1.0 - requirement.max_compromised_fraction / p_star)


def compromising_probability(auth_prob: float, p_star: float) -> float:
    """Expected fraction of packets both unauthenticated and on the attacked relay."""
    if not 0.0 <= auth_prob <= 1.0:
        raise ValidationError(f"auth_prob must be in [0, 1], got {auth_prob}")
    if not 0.0 <= p_star <= 1.0:
        raise ValidationError(f"p_star must be in [0, 1], got {p_star}")
    return (1.0 - auth_prob) * p_star
