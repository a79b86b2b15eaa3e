"""Range checks of configs built in code and of the scalar entry points.

The scenario loader rejects non-finite JSON numbers itself; these tests hold
the dataclasses and the public functions to the same rule when they are
called directly, so NaN never reaches a formula.
"""

import dataclasses
import math
import typing

import pytest

from relaygame.channel import ber_direct, ber_diversity, outage_sr_link, packet_success
from relaygame.errors import ValidationError, check_range
from relaygame.game import GameParams, MixedStrategy, RelayProfile, solve_equilibrium
from relaygame.scenario import load_scenario
from relaygame.sim import SimConfig, check_auth_grid
from relaygame.throughput import (
    ArqMode,
    SecurityRequirement,
    compromising_probability,
    min_auth_probability,
    sweep_messages,
    throughput_sr,
)

NON_FINITE = [math.nan, math.inf, -math.inf]


def _bases():
    """One valid instance of each scenario dataclass, every optional float set."""
    sc = load_scenario("military")
    return [sc.game, sc.profiles[0], sc.links[0], sc.throughput,
            dataclasses.replace(sc.throughput, data_rate=None, transfer_time=0.01),
            sc.security, dataclasses.replace(sc.sim, auth_prob=0.5)]


def _float_fields():
    seen = set()
    for base in _bases():
        hints = typing.get_type_hints(type(base))
        for f in dataclasses.fields(base):
            hint, key = hints[f.name], f"{type(base).__name__}.{f.name}"
            if (hint is float or float in typing.get_args(hint)) \
                    and getattr(base, f.name) is not None and key not in seen:
                seen.add(key)
                yield pytest.param(base, f.name, id=key)


def test_every_scenario_dataclass_has_float_fields_under_test():
    assert {type(p.values[0]) for p in _float_fields()} == {type(b) for b in _bases()}


@pytest.mark.parametrize("bad", NON_FINITE)
@pytest.mark.parametrize("base,name", list(_float_fields()))
def test_float_fields_reject_non_finite(base, name, bad):
    with pytest.raises(ValidationError, match=rf"^{name} must be") as info:
        dataclasses.replace(base, **{name: bad})
    assert info.value.field == name


@pytest.mark.parametrize("bad", NON_FINITE)
def test_auth_prob_mapping_rejects_non_finite(bad):
    with pytest.raises(ValidationError, match=r"^auth_prob\.2 must be"):
        SimConfig(episodes=10, auth_prob={1: 0.5, 2: bad})


@pytest.mark.parametrize("bad", NON_FINITE)
@pytest.mark.parametrize("call", [
    lambda x: ber_direct(x),
    lambda x: ber_diversity(10.0, x),
    lambda x: outage_sr_link(x, 10.0),
    lambda x: outage_sr_link(1.0, x),
    lambda x: packet_success(x, 1000),
    lambda x: throughput_sr(load_scenario("military").throughput, x),
    lambda x: min_auth_probability(x, SecurityRequirement(0.2)),
    lambda x: compromising_probability(x, 0.5),
    lambda x: compromising_probability(0.5, x),
    lambda x: check_auth_grid([0.5, x]),
    lambda x: MixedStrategy((x, 1.0)),
], ids=["ber_direct", "ber_diversity", "outage_sr_link.rate", "outage_sr_link.snr",
        "packet_success", "throughput_sr", "min_auth_probability",
        "compromising_probability.auth", "compromising_probability.p_star",
        "check_auth_grid", "MixedStrategy"])
def test_scalar_entry_points_reject_non_finite(call, bad):
    with pytest.raises(ValidationError, match="must be"):
        call(bad)


def test_probability_bounds_are_closed():
    game = load_scenario("military").game
    for p in (0.0, 1.0):
        dataclasses.replace(game, detect_rate=p, false_alarm_rate=p)
        SecurityRequirement(p)
        SimConfig(episodes=1, auth_prob=p)
        SimConfig(episodes=1, auth_prob={1: p})
        check_auth_grid([p])
        assert compromising_probability(p, p) == (1.0 - p) * p
        assert packet_success(p, 10) == (1.0 - p) ** 10
    cfg = load_scenario("military").throughput
    assert dataclasses.replace(cfg, auth_prob=0.0, presig_time=0.0).auth_prob == 0.0
    for p in (-1e-12, 1.0 + 1e-12):
        with pytest.raises(ValidationError):
            SecurityRequirement(p)


def test_open_ends_reject_their_bound():
    link = load_scenario("military").links[0]
    for name in ("snr_avg", "snr_sd", "snr_sr", "snr_rd", "dist_sr", "dist_rd"):
        with pytest.raises(ValidationError, match=rf"^{name} must be > 0, got 0.0$"):
            dataclasses.replace(link, **{name: 0.0})
    with pytest.raises(ValidationError, match=r"^target_rate must be in \[0, 512\), got 512.0$"):
        dataclasses.replace(link, target_rate=512.0)
    assert dataclasses.replace(link, target_rate=0.0, pathloss_exp=0.0).target_rate == 0.0
    cfg = load_scenario("military").throughput
    for name in ("data_rate", "reaction_time"):
        with pytest.raises(ValidationError, match=rf"^{name} must be > 0"):
            dataclasses.replace(cfg, **{name: 0.0})


def test_counts_in_float_arithmetic_stay_at_or_below_2_53():
    cfg = load_scenario("military").throughput
    for name in ("packet_bits", "hash_bits", "n_messages", "window"):
        assert getattr(dataclasses.replace(cfg, **{name: 2 ** 53}), name) == 2 ** 53
        with pytest.raises(ValidationError, match=rf"^{name} must be in .*, got {2 ** 53 + 1}$") \
                as info:
            dataclasses.replace(cfg, **{name: 2 ** 53 + 1})
        assert info.value.field == name
    at_bound = dataclasses.replace(cfg, packet_bits=2 ** 53, hash_bits=2 ** 53,
                                   n_messages=2 ** 53, window=2 ** 53)
    for mode in ArqMode:
        assert all(math.isfinite(value) for value, _ in sweep_messages(at_bound, 64, mode, 0.5))
    # The product is refused only where it would size the window.
    given = dataclasses.replace(cfg, data_rate=1e308, reaction_time=1e10, window=4)
    assert given.resolved_window == 4
    with pytest.raises(ValidationError, match=r"^data_rate x reaction_time must be finite, "
                                              r"got 1e\+308 x 10000000000\.0$") as info:
        dataclasses.replace(given, window=None)
    assert info.value.field == "data_rate"


def test_check_range_messages_name_the_field():
    check_range("x", 0, 0, 1)
    check_range("x", 1, 0, 1)
    check_range("x", 10 ** 400, 1)          # ints beyond float range are finite
    cases = [((-0.5, 0.0, 1.0), "x must be in [0, 1], got -0.5"),
             ((1.0, 0.0, 1.0, False, True), "x must be in [0, 1), got 1.0"),
             ((0.0, 0.0, 1.0, True), "x must be in (0, 1], got 0.0"),
             ((0, 1), "x must be >= 1, got 0"),
             ((0.0, 0.0, math.inf, True), "x must be > 0, got 0.0"),
             ((math.inf, 0.0), "x must be >= 0, got inf"),
             ((math.nan, 0.0, 1.0), "x must be in [0, 1], got nan")]
    for args, message in cases:
        with pytest.raises(ValidationError) as info:
            check_range("x", *args)
        assert str(info.value) == message and info.value.field == "x"


def test_combined_asset_overflow_rejected():
    # Finite assets whose weighted sum overflows a float reach no formula.
    params = GameParams(0.9, 0.05, 0.01, 0.01, 0.01, weight_info=1.0, weight_security=1.0)
    with pytest.raises(ValidationError, match="combined asset must be > 0, got inf"):
        solve_equilibrium([RelayProfile(1, 1e308, 1e308)], params)
