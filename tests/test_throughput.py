"""Payload/ARQ throughput equations, message-count search, auth policy."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relaygame import errors
from relaygame import throughput as throughput_module
from relaygame.errors import ValidationError, check_range
from relaygame.throughput import (
    ArqMode,
    SecurityRequirement,
    ThroughputConfig,
    compromising_probability,
    min_auth_probability,
    mixed_throughput,
    optimize_messages,
    sweep_messages,
    throughput_for_mode,
    throughput_gbn,
    throughput_general,
    throughput_sr,
)


def per_packet(c, n):
    """Authenticated payload of one packet at n messages, written out."""
    return c.packet_bits - c.hash_bits * (math.ceil(math.log2(n)) + 1)


def cfg(**kwargs):
    base = dict(packet_bits=1000, hash_bits=160, n_messages=4, auth_prob=0.5,
                presig_time=0.0, transfer_time=1.0)
    base.update(kwargs)
    return ThroughputConfig(**base)


# At transfer time 1 and no pre-signature time the general throughput is the
# payload per pre-signature: authenticated plus unauthenticated bits.

def test_payload_auth_examples():
    assert throughput_general(cfg(n_messages=1, auth_prob=1.0)) == 840.0
    assert throughput_general(cfg(n_messages=4, auth_prob=1.0)) == 4 * 520.0
    # Oversized tree: negative payload is representable data.
    assert throughput_general(cfg(packet_bits=100, auth_prob=1.0)) < 0


def test_payload_noauth_examples():
    assert throughput_general(cfg(n_messages=4, auth_prob=0.0)) == 4 * 840.0
    assert throughput_general(cfg(packet_bits=160, hash_bits=160, auth_prob=0.0)) == 0.0


def test_throughput_general():
    assert throughput_general(cfg()) == 2720.0   # 1040 authenticated + 1680 not
    assert throughput_general(cfg(presig_time=1.0)) == pytest.approx(1360.0)
    assert throughput_general(cfg(packet_bits=160, hash_bits=160, auth_prob=0.0)) == 0.0


def test_throughput_sr():
    assert throughput_sr(cfg(), 1.0) == throughput_general(cfg())
    assert throughput_sr(cfg(), 0.0) == 0.0
    assert throughput_sr(cfg(), 0.5) == pytest.approx(1360.0)
    with pytest.raises(ValidationError):
        throughput_sr(cfg(), 1.5)


def test_throughput_gbn():
    c = cfg(window=10)
    assert throughput_gbn(c, 0.5) == pytest.approx(2720 * 0.5 / 5.5)
    assert throughput_gbn(cfg(window=1), 0.5) == throughput_sr(cfg(), 0.5)
    assert throughput_gbn(c, 1.0) == throughput_sr(cfg(), 1.0)
    with pytest.raises(ValidationError):
        throughput_gbn(cfg(), 0.5)  # no window and no way to derive one


def test_one_formula_matches_per_mode_references():
    # Each mode at n = n_messages against the written-out formula, bit for bit.
    rng = np.random.default_rng(2024)
    edge_pc = (0.0, 1.0, 5e-324, 1e-300, 0.5, float(np.nextafter(1.0, 0.0)))
    for i in range(600):
        timing = ({"transfer_time": float(rng.uniform(1e-4, 2.0))} if i % 2 else
                  {"data_rate": float(rng.uniform(1e3, 1e8)),
                   "reaction_time": float(rng.uniform(1e-5, 0.1))})
        window = (1, int(rng.integers(2, 200)), None)[i % 3]
        if window is None and "transfer_time" in timing:
            window = int(rng.integers(1, 200))
        c = ThroughputConfig(packet_bits=int(rng.integers(100, 4000)),
                             hash_bits=int(rng.integers(16, 512)),
                             n_messages=int(rng.integers(1, 128)),
                             auth_prob=float(rng.choice([0.0, 1.0, rng.uniform()])),
                             presig_time=float(rng.choice([0.0, rng.uniform(0, 1)])),
                             window=window, **timing)
        p_c = float(rng.choice([0.0, 1.0, rng.uniform(), edge_pc[i % len(edge_pc)]]))
        expected = {mode: written_out_sweep(c, c.n_messages, mode, p_c)[-1][0]
                    for mode in ArqMode}
        assert throughput_general(c) == expected[ArqMode.GENERAL]
        assert throughput_sr(c, p_c) == expected[ArqMode.SR]
        assert throughput_gbn(c, p_c) == expected[ArqMode.GBN]
        for mode in ArqMode:
            assert throughput_for_mode(c, mode, p_c) == expected[mode]


def test_window_size_examples():
    def window(data_rate, reaction_time, packet_bits):
        return ThroughputConfig(packet_bits=packet_bits, hash_bits=160, data_rate=data_rate,
                                reaction_time=reaction_time).resolved_window
    assert window(1e6, 0.01, 1000) == 10
    assert window(1e3, 0.0001, 1000) == 1
    assert window(1e6, 0.0015, 1000) == 2
    with pytest.raises(ValidationError):
        window(0.0, 0.01, 1000)


@given(st.floats(0.0, 1.0), st.integers(1, 200))
@settings(max_examples=150, deadline=None)
def test_sr_dominates_gbn(p_c, window):
    c = cfg(window=window)
    sr, gbn = throughput_sr(c, p_c), throughput_gbn(c, p_c)
    assert sr >= gbn - 1e-12
    if 1e-9 < p_c < 1.0 - 1e-9 and window > 1:  # fp-resolvable strict gap
        assert sr > gbn


def test_sr_gbn_equality_cases():
    c1, c10 = cfg(window=1), cfg(window=10)
    assert throughput_gbn(c1, 0.3) == pytest.approx(throughput_sr(c1, 0.3), abs=1e-12)
    assert throughput_gbn(c10, 1.0) == pytest.approx(throughput_sr(c10, 1.0), abs=1e-12)


@given(st.floats(0.0, 1.0), st.floats(0.0, 1.0), st.integers(2, 64))
@settings(max_examples=150, deadline=None)
def test_throughput_non_increasing_in_auth(pa_low, bump, n):
    # With a real tree (ceil(log2 n) >= 1) authentication only costs payload.
    pa_high = min(1.0, pa_low + bump)
    low = throughput_general(cfg(n_messages=n, auth_prob=pa_low))
    high = throughput_general(cfg(n_messages=n, auth_prob=pa_high))
    assert high <= low + 1e-9


def test_fully_authenticated_baseline():
    baseline = throughput_general(cfg(auth_prob=1.0))
    swept = throughput_general(cfg(auth_prob=1.0))
    assert swept == baseline
    assert compromising_probability(1.0, 0.4593) == 0.0


def rise_fall_config():
    return ThroughputConfig(packet_bits=1000, hash_bits=160, n_messages=1,
                            auth_prob=1.0, presig_time=0.1, data_rate=1e6,
                            reaction_time=0.01)


def test_throughput_vs_n_rises_falls_and_cuts_off():
    c = rise_fall_config()
    # Cutoff: first n with packet_bits <= hash_bits * (ceil(log2 n) + 1).
    cutoff = next(n for n in range(1, 1000) if per_packet(c, n) <= 0)
    assert cutoff == 33
    values = [throughput_general(replace(c, n_messages=n)) for n in range(1, 65)]
    peak = max(range(len(values)), key=values.__getitem__) + 1
    assert 1 < peak < cutoff
    assert values[-1] < values[peak - 1]  # falls after the peak
    for n, value in enumerate(values, start=1):
        assert (value > 0) == (n < cutoff)  # sign change exactly at the cutoff


def exhaustive_best(c, n_max, arq, p_c):
    best = None
    for n in range(1, n_max + 1):
        at_n = replace(c, n_messages=n)
        if c.auth_prob > 0.0 and per_packet(c, n) <= 0:
            continue
        t = throughput_for_mode(at_n, arq, p_c)
        if best is None or t > best[1]:
            best = (n, t)
    return best


def test_optimize_messages_matches_exhaustive_search():
    rng = np.random.default_rng(1234)
    checked = 0
    while checked < 100:
        packet = int(rng.integers(200, 2001))
        hashes = int(rng.integers(32, 257))
        pa = float(rng.uniform(0.0, 1.0))
        arq = list(ArqMode)[int(rng.integers(0, 3))]
        p_c = float(rng.uniform(0.05, 1.0))
        if bool(rng.integers(0, 2)):
            c = ThroughputConfig(packet_bits=packet, hash_bits=hashes, n_messages=1,
                                 auth_prob=pa, presig_time=float(rng.uniform(0, 1)),
                                 transfer_time=float(rng.uniform(0.01, 1.0)),
                                 window=int(rng.integers(1, 32)))
        else:
            c = ThroughputConfig(packet_bits=packet, hash_bits=hashes, n_messages=1,
                                 auth_prob=pa, presig_time=float(rng.uniform(0, 1)),
                                 data_rate=float(rng.uniform(1e4, 1e7)),
                                 reaction_time=float(rng.uniform(1e-4, 0.05)))
        n_max = int(rng.integers(1, 65))
        expected = exhaustive_best(c, n_max, arq, p_c)
        if expected is None:
            assert optimize_messages(c, n_max, arq, p_c) is None
        else:
            assert optimize_messages(c, n_max, arq, p_c) == expected
        checked += 1


def reference_sweep(c, n_max, arq, p_c):
    """The per-n walk over copied configs that sweep_messages must reproduce."""
    return [(throughput_for_mode(replace(c, n_messages=n), arq, p_c),
             c.auth_prob <= 0 or per_packet(c, n) > 0)
            for n in range(1, n_max + 1)]


def written_out_sweep(c, n_max, arq, p_c):
    """The formula in its documented operation order, sharing no code with the module."""
    p_c, w = {ArqMode.GENERAL: (1.0, 1), ArqMode.SR: (p_c, 1),
              ArqMode.GBN: (p_c, c.resolved_window)}[arq]
    walk = []
    for n in range(1, n_max + 1):
        bits = per_packet(c, n)
        transfer = c.transfer_time if c.transfer_time is not None else \
            n * c.packet_bits / c.data_rate
        payload = (n * c.auth_prob * bits
                   + n * (1.0 - c.auth_prob) * (c.packet_bits - c.hash_bits))
        walk.append((payload * p_c / (c.presig_time + transfer * (p_c + (1.0 - p_c) * w)),
                     c.auth_prob <= 0 or bits > 0))
    return walk


def outcome(fn, *args):
    """Bits of a walk (float.hex keeps -0.0 apart from 0.0), or the error raised."""
    try:
        return [(value.hex(), feasible) for value, feasible in fn(*args)]
    except ValidationError as exc:
        return type(exc), str(exc)


def random_sweep_config(rng, i):
    """Cycles both timing models, explicit and derived windows (W = 1 and large)
    and auth_prob in {0, 1, random}; packets small enough for negative payloads."""
    packet_bits = int(rng.integers(100, 4000))
    timing = ({"transfer_time": float(rng.uniform(1e-4, 2.0))} if i % 2 else
              {"data_rate": float(rng.uniform(1e3, 1e8))})
    window_kind = (i // 2) % 4
    window = None
    if window_kind == 0:
        window = 1
    elif window_kind == 1:
        window = int(rng.integers(1000, 10 ** 6))
    elif "data_rate" in timing:
        # Derived window: 1 below one packet per reaction time, else large.
        packets = 0.5 if window_kind == 2 else float(rng.uniform(1e3, 1e5))
        timing["reaction_time"] = packets * packet_bits / timing["data_rate"]
    elif window_kind == 2:
        window = int(rng.integers(2, 200))
    # else: explicit timing with no window, so go-back-N must raise.
    return ThroughputConfig(packet_bits=packet_bits,
                            hash_bits=int(rng.integers(16, 512)),
                            n_messages=int(rng.integers(1, 128)),
                            auth_prob=(0.0, 1.0, float(rng.uniform()))[i % 3],
                            presig_time=float(rng.choice([0.0, rng.uniform(0, 1)])),
                            window=window, **timing)


def test_sweep_messages_is_bit_identical_to_per_n_configs():
    rng = np.random.default_rng(10)
    edge_pc = (0.0, 1.0, 5e-324, 1.0 - 2.0 ** -53)
    seen = {"negative zero": 0, "derived W=1": 0, "derived W>=1000": 0, "gbn error": 0}
    for i in range(600):
        c = random_sweep_config(rng, i)
        n_max = int(rng.integers(1, 80))
        p_c = edge_pc[i % 5] if i % 5 < 4 else float(rng.uniform())
        if c.window is None and c.reaction_time is not None:
            seen["derived W=1" if c.resolved_window == 1 else "derived W>=1000"] += 1
        for arq in ArqMode:
            expected = outcome(reference_sweep, c, n_max, arq, p_c)
            assert outcome(sweep_messages, c, n_max, arq, p_c) == expected, (i, c, arq, p_c)
            if isinstance(expected, list):
                assert outcome(written_out_sweep, c, n_max, arq, p_c) == expected
                seen["negative zero"] += any(v == "-0x0.0p+0" for v, _ in expected)
            else:
                seen["gbn error"] += 1
    assert all(seen.values()), seen


@pytest.mark.parametrize("arq", [ArqMode.SR, ArqMode.GBN])
@pytest.mark.parametrize("p_c", [math.nan, -0.1, 1.5, math.inf])
def test_sweep_messages_rejects_bad_pc_like_the_reference(arq, p_c):
    c = cfg(window=4)
    expected = outcome(reference_sweep, c, 8, arq, p_c)
    assert expected[0] is ValidationError and expected[1].startswith("packet success")
    assert outcome(sweep_messages, c, 8, arq, p_c) == expected
    # General mode ignores P_c, with or without the sweep.
    assert outcome(sweep_messages, c, 8, ArqMode.GENERAL, p_c) == \
        outcome(reference_sweep, c, 8, ArqMode.GENERAL, p_c)


def test_sweep_messages_errors_match_the_reference():
    no_window = cfg()
    expected = outcome(reference_sweep, no_window, 8, ArqMode.GBN, 0.5)
    assert expected[0] is ValidationError and "go-back-N needs a window" in expected[1]
    assert outcome(sweep_messages, no_window, 8, ArqMode.GBN, 0.5) == expected
    # n_max is checked first, before P_c and the window.
    with pytest.raises(ValidationError) as n_max_error:
        check_range("n_max", 0, 1, throughput_module.MAX_SWEEP_N)
    for arq in ArqMode:
        for c, p_c in ((cfg(window=4), 0.5), (no_window, math.nan)):
            assert outcome(sweep_messages, c, 0, arq, p_c) == \
                (ValidationError, str(n_max_error.value))


def bits(fn, *args):
    """float.hex of one throughput (it keeps -0.0 apart from 0.0), or the error raised."""
    try:
        return fn(*args).hex()
    except ValidationError as exc:
        return type(exc), str(exc)


def test_mixed_throughput_of_one_relay_is_throughput_for_mode():
    """One triple of weight 1 is throughput_for_mode bit for bit, at the config's
    p_a or at another one, whose config copy it never needs."""
    rng = np.random.default_rng(32)
    edge_pc = (0.0, 1.0, 5e-324, 1.0 - 2.0 ** -53)
    seen = {"negative zero": 0, "gbn error": 0}
    for i in range(600):
        c = random_sweep_config(rng, i)
        p_c = edge_pc[i % 5] if i % 5 < 4 else float(rng.uniform())
        pa = float(rng.choice([0.0, 1.0, rng.uniform()]))
        for arq in ArqMode:
            expected = bits(throughput_for_mode, c, arq, p_c)
            assert bits(mixed_throughput, c, arq, ((1.0, c.auth_prob, p_c),)) == expected
            assert bits(mixed_throughput, c, arq, ((1.0, pa, p_c),)) == \
                bits(throughput_for_mode, replace(c, auth_prob=pa), arq, p_c)
            seen["negative zero"] += expected == "-0x0.0p+0"
            seen["gbn error"] += isinstance(expected, tuple)
    assert all(seen.values()), seen
    # P_c = 0 on a negative authenticated payload: the sum keeps the -0.0.
    negative = cfg(packet_bits=100, auth_prob=1.0)
    assert bits(mixed_throughput, negative, ArqMode.SR, ((1.0, 1.0, 0.0),)) == "-0x0.0p+0"
    assert bits(throughput_for_mode, negative, ArqMode.SR, 0.0) == "-0x0.0p+0"


@pytest.mark.parametrize("pa", [-0.1, 1.5, math.nan, math.inf])
def test_mixed_throughput_rejects_a_bad_auth_prob(pa):
    for arq in ArqMode:
        with pytest.raises(ValidationError, match=r"^auth_prob must be in \[0, 1\]") as exc:
            mixed_throughput(cfg(window=4), arq, ((0.5, 0.5, 0.5), (0.5, pa, 0.5)))
        assert exc.value.field == "auth_prob"


@pytest.mark.parametrize("arq", list(ArqMode))
@pytest.mark.parametrize("timing", [{"transfer_time": 0.5, "window": 7},
                                    {"transfer_time": None, "data_rate": 1e6,
                                     "reaction_time": 0.01}])
def test_sweep_messages_validates_once(monkeypatch, arq, timing):
    # A per-n re-validation would make the longer sweep check more often.
    c = cfg(**timing)
    calls = []
    real = errors.check_range

    def counting(*args, **kwargs):
        calls.append(args[0])
        return real(*args, **kwargs)

    monkeypatch.setattr(errors, "check_range", counting)
    monkeypatch.setattr(throughput_module, "check_range", counting)
    counts = {}
    for n_max in (8, 64):
        calls.clear()
        sweep_messages(c, n_max, arq, 0.9)
        counts[n_max] = len(calls)
    assert 0 < counts[64] <= counts[8], counts


def test_optimize_messages_no_feasible_n():
    c = cfg(packet_bits=100, hash_bits=160, auth_prob=1.0)
    assert optimize_messages(c, 64, ArqMode.GENERAL) is None


def test_optimize_messages_unauthenticated_prefers_max_n():
    # Fixed total time, no tree penalty: payload grows linearly with n.
    c = cfg(auth_prob=0.0)
    assert optimize_messages(c, 32, ArqMode.GENERAL) == \
        (32, throughput_general(replace(c, n_messages=32)))


def test_min_auth_probability_examples():
    req = SecurityRequirement(max_compromised_fraction=0.20)
    assert min_auth_probability(0.4593, req) == pytest.approx(0.56456, abs=1e-5)
    assert min_auth_probability(0.15, req) == 0.0   # already satisfied
    assert min_auth_probability(0.0, req) == 0.0    # never attacked


@given(st.floats(0.0, 1.0), st.floats(0.0, 1.0))
@settings(max_examples=200, deadline=None)
def test_min_auth_probability_bound(p_star, p_s):
    pa = min_auth_probability(p_star, SecurityRequirement(p_s))
    assert 0.0 <= pa <= 1.0
    assert (1.0 - pa) * p_star <= p_s + 1e-12


def test_compromising_probability():
    assert compromising_probability(1.0, 0.77) == 0.0
    assert compromising_probability(0.0, 0.4593) == pytest.approx(0.4593)
    assert compromising_probability(0.5, 0.4) == pytest.approx(0.2)
    grid = [compromising_probability(pa, 0.4593) for pa in (0.0, 0.25, 0.5, 0.75, 1.0)]
    assert grid == sorted(grid, reverse=True)  # linear and decreasing


def test_config_validation():
    with pytest.raises(ValidationError):
        cfg(packet_bits=0)
    with pytest.raises(ValidationError):
        cfg(auth_prob=1.2)
    with pytest.raises(ValidationError):
        cfg(transfer_time=None)  # neither timing source
    with pytest.raises(ValidationError):
        ThroughputConfig(packet_bits=1000, hash_bits=160, n_messages=1,
                         auth_prob=1.0, transfer_time=1.0, data_rate=1e6)
    with pytest.raises(ValidationError):
        cfg(window=0)


def test_derived_timing_and_window():
    c = ThroughputConfig(packet_bits=1000, hash_bits=160, n_messages=4,
                         auth_prob=1.0, presig_time=0.1,
                         data_rate=1e6, reaction_time=0.01)
    assert c.timing_model == "derived"
    # Transfer time n * packet_bits / data_rate: 0.004 s at n = 4, 0.008 s at n = 8.
    assert throughput_general(c) == pytest.approx(4 * 520 / (0.1 + 0.004))
    assert throughput_general(replace(c, n_messages=8)) == pytest.approx(8 * 360 / (0.1 + 0.008))
    assert c.resolved_window == 10
    assert cfg().timing_model == "explicit"
