"""CLI surface: subcommands, flags, exit codes, emitted files."""

import dataclasses
import hashlib
import json
import math
import os
import re
import stat
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np
import pytest
from scipy import stats as scipy_stats

from relaygame import cli, errors, report, scenario, throughput
from relaygame.channel import ber_end_to_end, packet_success
from relaygame.cli import main
from relaygame.errors import InfeasibleEquilibriumError, RelayGameError, ValidationError
from relaygame.report import (
    build_outage_crosscheck,
    build_simulation_report,
    build_solve_report,
    build_sweep_auth_report,
    build_sweep_n_report,
    bundle_to_json,
)
from relaygame.throughput import ArqMode, optimize_messages, throughput_for_mode, throughput_sr
from test_bundles_pinned import PINNED


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_presets_command(capsys):
    code, out, _ = run_cli(capsys, "presets")
    assert code == 0
    assert "military" in out and "commercial" in out


def test_solve_exit_zero_and_table(capsys):
    code, out, _ = run_cli(capsys, "solve", "--scenario", "military")
    assert code == 0
    assert "0.23256" in out.replace(" ", "")  # attack probability column
    assert "sensible" in out


def test_solve_diagnostics_flag(capsys, tmp_path):
    out_file = tmp_path / "solve.json"
    code, _, _ = run_cli(capsys, "solve", "--scenario", "military",
                         "--diagnostics", "--out", str(out_file))
    assert code == 0
    bundle = json.loads(out_file.read_text())
    assert "diagnostic_attack_strategy" in bundle
    assert len(bundle["diagnostic_attack_strategy"]) == 4


def test_unknown_preset_is_validation_error(capsys):
    code, _, err = run_cli(capsys, "solve", "--scenario", "nope")
    assert code == 2
    assert "unknown preset" in err


def test_infeasible_maps_to_exit_three(capsys):
    code, _, err = run_cli(capsys, "solve", "--scenario", "military",
                           "--set", "game.monitor_cost=50")
    assert code == 3
    assert "validity region" in err


HINT = ("hint: move costs/detection back into the model's validity region "
        "or adjust the relay assets\n")


def test_degenerate_maps_to_exit_three(capsys):
    for override, message in [
        ("game.detect_rate=0",
         "no sensible target set exists: even the largest combined asset (1.0) does not "
         "exceed its own-prefix threshold (1.0); this happens e.g. when detect_rate is 0"),
        ("game.attack_cost=1", "attack_cost=1.0 >= 1 leaves the target threshold undefined"),
    ]:
        code, out, err = run_cli(capsys, "solve", "--scenario", "military", "--set", override)
        assert (code, out, err) == (3, "", f"error: {message}\n{HINT}")


def test_one_error_class_per_exit_code(capsys, tmp_path):
    defined = {value for value in vars(errors).values()
               if isinstance(value, type) and issubclass(value, RelayGameError)
               and value.__module__ == errors.__name__}
    assert defined == {RelayGameError, ValidationError, InfeasibleEquilibriumError}
    (tmp_path / "file").write_text("kept")
    for edit, code in [(["--out", str(tmp_path / "file" / "out.json")], 4),
                       (["--set", "game.detect_rate=2"], 2),
                       (["--set", "game.monitor_cost=50"], 3)]:
        assert run_cli(capsys, "solve", "--scenario", "military", *edit)[0] == code


def test_source_deviation_to_an_excluded_relay_exits_three(capsys):
    code, out, err = run_cli(capsys, "solve", "--scenario", "military",
                             "--set", "game.detect_rate=0.3", "--set", "game.false_alarm_rate=0",
                             "--set", "game.attack_cost=0", "--set", "game.monitor_cost=0.5",
                             "--set", "game.false_alarm_loss=0")
    assert (code, out) == (3, "")
    assert err.startswith("error: relay 4: the source would deviate to this excluded relay")


def test_sweep_n_with_no_feasible_message_count(capsys, tmp_path):
    out = tmp_path / "sweep.json"
    code, stdout, _ = run_cli(capsys, "sweep-n", "--scenario", "military",
                              "--set", "throughput.hash_bits=1000", "--n-max", "8",
                              "--out", str(out))
    note = ("no n in 1..8 keeps the authenticated payload positive "
            "(packet_bits=1000, hash_bits=1000)")
    assert code == 0
    assert f"optimal: none ({note})\n" in stdout
    bundle = json.loads(out.read_text())
    assert bundle["optimal"] == {"n": None, "throughput": None, "note": note}
    assert [row["n"] for row in bundle["rows"]] == list(range(1, 9))
    assert all(row["plot_omitted"] for row in bundle["rows"])


@pytest.mark.parametrize("first, second", [(None, 1), (2, None)])
def test_duplicate_relay_id_names_its_field_path(capsys, tmp_path, first, second):
    # An absent id is the relay's position, so relays[1] without one is relay 2.
    data = scenario.load_scenario_dict("military")
    for relay, rid in zip(data["relays"], (first, second)):
        relay.pop("id")
        if rid is not None:
            relay["id"] = rid
    path = tmp_path / "dup.json"
    path.write_text(json.dumps(data))
    code, out, err = run_cli(capsys, "solve", "--scenario", str(path))
    assert (code, out) == (2, "")
    assert err == f"error: scenario.relays[1].id: duplicate relay id {second or 2}\n"


def test_sweep_n_of_an_unsolvable_game_binds_the_first_relay(capsys, tmp_path, military):
    """sweep-n needs no equilibrium: with none to name the most-attacked
    relay, P_c is the first relay's."""
    out = tmp_path / "sweep.json"
    code, _, _ = run_cli(capsys, "sweep-n", "--scenario", "military",
                         "--set", "game.detect_rate=0", "--out", str(out))
    assert code == 0
    p_c = [packet_success(ber_end_to_end(ln.target_rate, ln.snr_sd, ln.snr_sr, ln.snr_rd),
                          military.throughput.packet_bits) for ln in military.links]
    assert json.loads(out.read_text())["packet_success"] == p_c[0]
    assert len(set(p_c)) == len(p_c)


def test_invalid_override_key(capsys):
    """A key the schema does not know is refused by the loader, as in a file."""
    code, out, err = run_cli(capsys, "simulate", "--scenario", "military",
                             "--set", "bogus.key=1")
    assert (code, out, err) == (2, "", "error: scenario.bogus: unknown field\n")


#: A value for every field of the four sections, valid together; the null
#: unsets data_rate, which transfer_time replaces.
EVERY_FIELD = {
    "game": {"detect_rate": 0.8, "false_alarm_rate": 0.1, "attack_cost": 0.02,
             "monitor_cost": 0.02, "false_alarm_loss": 0.02, "weight_info": 0.5,
             "weight_security": 0.5},
    "throughput": {"packet_bits": 800, "hash_bits": 128, "n_messages": 3, "auth_prob": 0.9,
                   "presig_time": 0.05, "transfer_time": 0.01, "data_rate": None,
                   "reaction_time": 0.02, "window": 5},
    "security": {"max_compromised_fraction": 0.3},
    "sim": {"episodes": 1000, "packets_per_episode": 2, "seed": 7, "attacker_mode": "uniform",
            "source_mode": "best-utility", "refined_detection": True,
            "auth_prob": {"1": 0.5, "2": 0.6, "3": 0.7, "4": 0.8}},
}


def test_every_section_field_can_be_set(capsys):
    """Every field of the four sections is set by --set, sim.auth_prob relay
    by relay, and the scenario read holds each value."""
    assert {key: set(fields) for key, fields in EVERY_FIELD.items()} == {
        key: {f.name for f in dataclasses.fields(cls)} for key, cls in scenario.SECTIONS.items()}
    sets = [f"{key}.{name}={json.dumps(value)}" for key, fields in EVERY_FIELD.items()
            for name, value in fields.items() if (key, name) != ("sim", "auth_prob")]
    sets += [f"sim.auth_prob.{rid}={pa}" for rid, pa in EVERY_FIELD["sim"]["auth_prob"].items()]
    code, _, err = run_cli(capsys, "simulate", "--scenario", "military",
                           *(f"--set={item}" for item in sets))
    assert (code, err) == (0, "")
    read = scenario.scenario_to_dict(scenario.scenario_from_dict(
        scenario.apply_overrides(scenario.load_scenario_dict("military"), sets)))
    assert {key: read[key] for key in EVERY_FIELD} == {
        key: {name: value for name, value in fields.items() if value is not None}
        for key, fields in EVERY_FIELD.items()}


@pytest.mark.parametrize("override,path", [
    ("throughput.presig_time=NaN", "scenario.throughput.presig_time"),
    ("game.attack_cost=-Infinity", "scenario.game.attack_cost"),
    ('sim.refined_detection="no"', "scenario.sim.refined_detection"),
    ('sim.auth_prob={"a": 0.5}', "scenario.sim.auth_prob"),
    ("name=5", "scenario.name"),
    ('sim.auth_prob={"1": 0.5, "99": 0.1}', "scenario.sim.auth_prob"),
    ("game.detect_rate=1.5", "scenario.game.detect_rate must be in [0, 1]"),
])
def test_bad_override_values_exit_two(capsys, override, path):
    code, _, err = run_cli(capsys, "solve", "--scenario", "military", "--set", override)
    assert code == 2
    assert path in err


def test_simulate_rejects_auth_prob_for_unknown_relay(capsys):
    code, _, err = run_cli(capsys, "simulate", "--scenario", "military",
                           "--set", "sim.episodes=1000", "--set",
                           'sim.auth_prob={"1":0.5,"2":0.5,"3":0.5,"4":0.5,"99":0.1}')
    assert code == 2
    assert "scenario.sim.auth_prob" in err and "[99]" in err


def test_bad_grid_is_validation_error(capsys):
    code, _, err = run_cli(capsys, "sweep-auth", "--scenario", "military",
                           "--grid", "0.1,zap")
    assert code == 2


def _drop_snr_sr(data):
    for key in ("snr_sr", "snr_sr_db"):
        data["relays"][1]["link"].pop(key, None)


def _three_relays_one_on_the_threshold(data):
    data["relays"] = data["relays"][:3]
    for relay, asset in zip(data["relays"], (1.0, 1.0, 1 / 11)):
        relay.update(info_asset=asset, sec_asset=asset)


@pytest.mark.parametrize("argv, edit, code, message", [
    (["solve", "--set", "game.detect_rate"], None,
     2, "override 'game.detect_rate' is not KEY=VALUE"),
    (["solve", "--set", "name=field-trial"], None, 0, "scenario field-trial:"),
    (["solve"], _drop_snr_sr,
     2, "scenario.relays[1].link.snr_sr: missing required field (snr_sr or snr_sr_db)"),
    (["solve", "--set", "throughput.transfer_time=0.01"], None,
     2, "scenario.throughput: give exactly one of transfer_time or data_rate"),
    (["solve", "--set", "game.weight_info=0", "--set", "game.weight_security=0"], None,
     2, "scenario.game: asset weights must not both be zero"),
    (["solve"], lambda d: d.update(relays=[]), 2, "scenario.relays: expected a non-empty array"),
    (["solve"], lambda d: d.update(relays={}), 2, "scenario.relays: expected a non-empty array"),
    (["solve"], lambda d: d.update(annotations="x"),
     2, "scenario.annotations: expected an array of strings"),
    (["simulate", "--set", f"sim.episodes={2 ** 62}", "--set", "sim.packets_per_episode=4"],
     None, 2, "scenario.sim: episodes x packets_per_episode must stay below 2^63"),
    (["sweep-n", "--n-max", "0"], None,
     2, f"n_max must be in [1, {throughput.MAX_SWEEP_N}], got 0"),
    (["outage-check", "--seed", "-1"], None, 2, "seed must be in [0, 2^64), got -1"),
    (["outage-check", "--trials", str(10 ** 20)], None,
     2, f"trials must be in [1, {2 ** 63}), got {10 ** 20}"),
    (["solve"], _three_relays_one_on_the_threshold, 0, "quasi-sensible"),
    (["simulate"], lambda d: d["sim"].update(episods=5), 2, "scenario.sim.episods: unknown field"),
    (["solve"], lambda d: d.update(extra=1), 2, "scenario.extra: unknown field"),
    (["solve"], lambda d: d["relays"][2]["link"].update(snr_db=10.0),
     2, "scenario.relays[2].link.snr_db: unknown field"),
    (["solve", "--set", f"throughput.packet_bits={10 ** 321}"], None,
     2, f"scenario.throughput.packet_bits must be in (0, {2 ** 53}], got {10 ** 321}"),
    (["sweep-n", "--set", f"throughput.hash_bits={10 ** 321}"], None,
     2, f"scenario.throughput.hash_bits must be in (0, {2 ** 53}], got {10 ** 321}"),
    (["sweep-auth", "--set", f"throughput.n_messages={2 ** 53 + 1}"], None,
     2, f"scenario.throughput.n_messages must be in [1, {2 ** 53}], got {2 ** 53 + 1}"),
    (["sweep-n", "--arq", "gbn", "--set", f"throughput.window={10 ** 321}"], None,
     2, f"scenario.throughput.window must be in [1, {2 ** 53}], got {10 ** 321}"),
    (["sweep-n", "--arq", "gbn", "--set", "throughput.data_rate=1e308",
      "--set", "throughput.reaction_time=1e10"], None,
     2, "scenario.throughput.data_rate x reaction_time must be finite, got 1e+308 x 10000000000.0"),
    (["solve", "--set", f"throughput.packet_bits=1{'0' * 5000}"], None,
     2, "scenario.throughput.packet_bits: value not read (Exceeds the limit (4300 digits) "
        "for integer string conversion: value has 5001 digits; use "
        "sys.set_int_max_str_digits() to increase the limit)"),
    (["solve"], lambda d: d.pop("game"), 2, "scenario.game: missing required field"),
    (["solve"], lambda d: d.pop("relays"), 2, "scenario.relays: missing required field"),
    (["solve"], lambda d: d["relays"][0].pop("link"),
     2, "scenario.relays[0].link: missing required field"),
    (["sweep-n", "--n-max", str(throughput.MAX_SWEEP_N + 1)], None,
     2, f"n_max must be in [1, {throughput.MAX_SWEEP_N}], got {throughput.MAX_SWEEP_N + 1}"),
    (["solve", "--set", "game.detect_rat=1"], None, 2, "scenario.game.detect_rat: unknown field"),
    (["solve", "--set", "=1"], None, 2, "override '=1' is not KEY=VALUE"),
    (["solve", "--set", "game..detect_rate=1"], None,
     2, "override 'game..detect_rate=1' is not KEY=VALUE"),
    (["simulate", "--set", "sim.auth_prob=0.5", "--set", "sim.auth_prob.1=0.5"], None,
     2, "scenario.sim.auth_prob: expected an object, got float"),
    (["simulate", "--set", "sim=null"], None,
     2, "scenario.sim: missing; simulating needs a sim section"),
    (["solve", "--set", 'annotations=["set by an override"]'], None,
     0, "note: set by an override\n"),
    (["solve", "--set", "name=" + "[" * 50_000], None,
     2, "scenario.name: value not read (maximum recursion depth exceeded "
        "while decoding a JSON array from a unicode string)"),
    # Neither count is walked: the one n_max check refuses both before any row.
    (["sweep-n", "--n-max", str(10 ** 19)], None,
     2, f"n_max must be in [1, {throughput.MAX_SWEEP_N}], got {10 ** 19}"),
    (["sweep-n", "--n-max", str(10 ** 12)], None,
     2, f"n_max must be in [1, {throughput.MAX_SWEEP_N}], got {10 ** 12}"),
], ids=["override-without-value", "override-kept-as-string", "link-without-snr-sr",
        "transfer-time-and-data-rate", "zero-asset-weights", "relays-empty-array",
        "relays-object", "annotations-string", "uncountable-simulation", "empty-n-range",
        "outage-check-negative-seed", "outage-check-uncountable-trials", "quasi-sensible-relay",
        "misspelled-sim-field", "unknown-top-level-key", "unknown-link-key",
        "packet-bits-past-float-range", "hash-bits-past-float-range",
        "message-count-past-2-53", "window-past-float-range", "window-product-overflows",
        "override-integer-past-digit-limit", "game-missing", "relays-missing",
        "link-missing", "n-max-past-its-bound", "override-unknown-field", "override-empty-key",
        "override-empty-dotted-part", "override-through-a-number", "sim-section-unset",
        "annotations-set", "override-nested-too-deep", "n-max-past-sys-maxsize",
        "n-max-a-trillion"])
def test_input_paths(capsys, tmp_path, argv, edit, code, message):
    """A success prints ``message`` on stdout; a failure prints only it, as the error."""
    name = "military"
    if edit is not None:
        data = scenario.load_scenario_dict("military")
        edit(data)
        name = str(tmp_path / "scenario.json")
        Path(name).write_text(json.dumps(data))
    out = tmp_path / "bundle.json"
    got, stdout, err = run_cli(capsys, *argv, "--scenario", name, "--out", str(out))
    assert got == code
    if code:
        assert (stdout, err) == ("", f"error: {message}\n")
        assert not out.exists()
    else:
        assert message in stdout and err == ""
    if edit is _three_relays_one_on_the_threshold:
        bundle = json.loads(out.read_text())
        assert bundle["partition"]["quasi_sensible"] == [3]
        assert [row["set"] for row in bundle["equilibrium"]] == [
            "sensible", "sensible", "quasi-sensible"]


def test_sweep_n_help_states_the_n_max_bound(capsys):
    with pytest.raises(SystemExit):
        main(["sweep-n", "--help"])
    assert f"N at most {throughput.MAX_SWEEP_N}" in " ".join(capsys.readouterr().out.split())


@pytest.mark.parametrize("make, message", [
    (lambda path: path.mkdir(), "cannot read ([Errno 21] Is a directory: "),
    (lambda path: path.write_bytes(b'\xff{"name": "x"}'),
     "not UTF-8 text ('utf-8' codec can't decode byte 0xff in position 0"),
    (lambda path: path.write_text(f'{{"schema_version": 1{"0" * 5000}}}'),
     "not valid JSON (Exceeds the limit (4300 digits) for integer string conversion: "
     "value has 5001 digits; use sys.set_int_max_str_digits() to increase the limit)\n"),
    (lambda path: path.write_text(
        '{"schema_version": 1, "name": ' + "[" * 100_000 + "]" * 100_000 + "}"),
     "not valid JSON (maximum recursion depth exceeded "
     "while decoding a JSON array from a unicode string)\n"),
], ids=["directory", "not-utf-8", "integer-past-digit-limit", "nested-too-deep"])
def test_unreadable_scenario_file_exits_two(capsys, tmp_path, make, message):
    path = tmp_path / "scenario.json"
    make(path)
    code, stdout, err = run_cli(capsys, "solve", "--scenario", str(path))
    assert (code, stdout) == (2, "")
    assert err.startswith(f"error: {path}: {message}")


@pytest.mark.parametrize("out, message", [
    ("", "cannot write ([Errno 21] Is a directory: "),
    ("file/bundle.json", "cannot write ([Errno 17] File exists: "),
], ids=["out-is-a-directory", "out-under-a-file"])
@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_unwritable_out_is_a_plain_error(capsys, tmp_path, out, message, fmt):
    (tmp_path / "file").write_text("kept")
    path = tmp_path / out
    code, stdout, err = run_cli(capsys, "solve", "--scenario", "military",
                                "--format", fmt, "--out", str(path))
    assert code == 4
    assert "wrote" not in stdout
    assert err.startswith(f"error: {path}: {message}")
    assert (tmp_path / "file").read_text() == "kept"


def test_uniform_attacker_prints_its_note(capsys):
    code, stdout, _ = run_cli(capsys, "simulate", "--scenario", "military",
                              "--set", "sim.attacker_mode=uniform",
                              "--set", "sim.episodes=1000")
    assert code == 0
    assert "\nnote: attacker targets drawn from equal 1/K bins, not from the equilibrium " \
        "distribution; selection frequencies will not match P*\n" in stdout


def test_outage_check_out_of_band_prints_its_note(capsys, tmp_path, monkeypatch):
    monkeypatch.setattr(scenario, "outage_closed_form", lambda link: 0.5)
    out = tmp_path / "check.json"
    code, stdout, _ = run_cli(capsys, "outage-check", "--scenario", "military",
                              "--trials", "1000", "--out", str(out))
    assert code == 0
    assert "\nnote: a simulated outage count is rarer at the closed form than 4 standard " \
        "errors out; check the fading convention in the provenance block\n" in stdout
    bundle = json.loads(out.read_text())
    assert bundle["all_within_band"] is False
    assert {row["closed_form"] for row in bundle["rows"]} == {0.5}


def csv_columns_in_help() -> dict[str, list[str]]:
    """Command -> CSV columns, as the --help epilog lists them."""
    columns, command = {}, None
    for line in cli.CSV_COLUMNS_HELP.splitlines()[1:]:
        text = line.strip()
        if not line.startswith("   "):            # a command's first line
            command, text = (part.strip() for part in text.split(":", 1))
            columns[command] = []
        columns[command] += [c.strip() for c in text.split(",") if c.strip()]
    return columns


CSV_ARGV = {
    "solve": ["solve"],
    "sweep-n": ["sweep-n", "--n-max", "4"],
    "sweep-auth": ["sweep-auth", "--grid", "0,1"],
    "simulate": ["simulate", "--set", "sim.episodes=1000"],
    "outage-check": ["outage-check", "--trials", "1000"],
}


def test_csv_help_lists_every_command():
    assert list(csv_columns_in_help()) == list(CSV_ARGV)


@pytest.mark.parametrize("command", list(CSV_ARGV))
def test_csv_header_is_the_column_list_in_the_help(capsys, tmp_path, command):
    out = tmp_path / "table.csv"
    assert run_cli(capsys, *CSV_ARGV[command], "--scenario", "military",
                   "--format", "csv", "--out", str(out))[0] == 0
    header = out.read_text().splitlines()[0]
    assert header.split(",") == csv_columns_in_help()[command]


def test_csv_of_an_empty_table_is_refused():
    with pytest.raises(ValidationError, match=r"^empty table$"):
        report.bundle_to_csv([])


def test_sweep_n_consistency(military):
    # Rows and optimum come from one walk over 1..n_max; each must equal a
    # direct evaluation at its own count, bit for bit.
    cfg = military.throughput
    for arq in ArqMode:
        for n_values in (range(1, 7), range(1, 41), range(1, 37), range(1, 2)):
            bundle = build_sweep_n_report(military, n_values, arq)
            p_c = bundle["packet_success"]
            assert [r["n"] for r in bundle["rows"]] == list(n_values)
            for row in bundle["rows"]:
                assert row["throughput"] == throughput_for_mode(
                    replace(cfg, n_messages=row["n"]), arq, p_c)
            n_star, best = optimize_messages(cfg, n_values.stop - 1, arq, p_c)
            assert bundle["optimal"] == {"n": n_star, "throughput": best}


def test_sweep_n_argmax_matches_optimizer(military):
    bundle = build_sweep_n_report(military, range(1, 41), ArqMode.SR)
    rows = bundle["rows"]
    best_row = max(rows, key=lambda r: r["throughput"])
    n_star, best = optimize_messages(
        military.throughput, 40, ArqMode.SR, bundle["packet_success"])
    assert best_row["n"] == n_star == bundle["optimal"]["n"]
    assert best_row["throughput"] == pytest.approx(best, rel=1e-12)


def test_sweep_n_flags_nonpositive_rows(military):
    bundle = build_sweep_n_report(military, range(1, 37), ArqMode.GENERAL)
    flags = {r["n"]: r["plot_omitted"] for r in bundle["rows"]}
    assert not flags[32] and flags[33]  # payload cutoff


@pytest.fixture
def no_row(monkeypatch):
    """Make any evaluated sweep row fail the test."""
    def row(*args):
        raise AssertionError("a row was evaluated")
    monkeypatch.setattr(throughput, "_arq_at", row)


SHAPE = re.escape("message counts must be range(1, n_max + 1)")


def test_sweep_n_refuses_a_zero_count_inside_a_list(military, no_row):
    # Unchecked, row n = 0 would read sweep[-1], the last row.
    with pytest.raises(ValidationError, match=SHAPE):
        build_sweep_n_report(military, [5, 0], ArqMode.SR)


class _Unread(list):
    """A list whose values may not be read one by one."""

    def __iter__(self):
        raise AssertionError("a value was read")


def test_sweep_past_its_bound_is_refused_before_any_row(military, no_row):
    bound = throughput.MAX_SWEEP_N
    for n_values in ([1, bound + 1], [1] * (bound + 1), _Unread(range(1, bound + 2))):
        with pytest.raises(ValidationError, match=SHAPE):
            build_sweep_n_report(military, n_values, ArqMode.SR)
    for n_values, n_max in ((range(1, 1), 0), (range(1, bound + 2), bound + 1),
                            (range(1, 10 ** 19), 10 ** 19 - 1)):
        with pytest.raises(ValidationError,
                           match=re.escape(f"n_max must be in [1, {bound}], got {n_max}")):
            build_sweep_n_report(military, n_values, ArqMode.SR)
    with pytest.raises(ValidationError,
                       match=re.escape(f"n_max must be in [1, {bound}], got {bound + 1}")):
        optimize_messages(military.throughput, bound + 1, ArqMode.SR)


def test_sweep_n_refuses_all_but_one_to_n_max_before_any_row(military, no_row):
    # True would be written as "n": true; a float count has no row; a range
    # not starting at 1 would put an optimum outside its rows.
    for n_values in ([True, 2], [1.0, 2.0], range(34, 37), range(0, 5),
                     range(1, 10, 2), _Unread(range(1, 4))):
        with pytest.raises(ValidationError, match=SHAPE):
            build_sweep_n_report(military, n_values, ArqMode.SR)


def test_sweep_auth_columns(military):
    grid = [0.0, 0.25, 0.5, 0.75, 1.0]
    bundle = build_sweep_auth_report(military, grid)
    rows = bundle["rows"]
    assert rows[-1]["compromise_analytical"] == 0.0
    sr_col = [r["throughput_sr"] for r in rows]
    gbn_col = [r["throughput_gbn"] for r in rows]
    assert sr_col == sorted(sr_col, reverse=True)       # non-increasing in p_a
    assert all(s >= g for s, g in zip(sr_col, gbn_col)) # SR dominates GBN
    comp = [r["compromise_analytical"] for r in rows]
    assert comp == sorted(comp, reverse=True)


def test_sweep_auth_endpoint_equals_baseline(military):
    bundle = build_sweep_auth_report(military, [1.0])
    row = bundle["rows"][0]
    cfg = military.throughput  # preset is fully authenticated already
    assert row["throughput_sr"] == pytest.approx(
        throughput_sr(cfg, bundle["packet_success"]), rel=1e-12)
    assert row["compromise_analytical"] == 0.0


def test_simulate_writes_deterministic_bundle(capsys, tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for path in (a, b):
        code, _, _ = run_cli(capsys, "simulate", "--scenario", "military",
                             "--seed", "42", "--set", "sim.episodes=20000",
                             "--out", str(path))
        assert code == 0
    assert a.read_bytes() == b.read_bytes()
    bundle = json.loads(a.read_text())
    assert bundle["provenance"]["seed"] == 42
    assert bundle["provenance"]["scenario_hash"]
    assert bundle["simulation"]["rng_algorithm"] == "numpy-pcg64/counts-4"
    assert bundle["provenance"]["outage_chunk"] == 32768


def test_simulate_csv_output(capsys, tmp_path):
    out = tmp_path / "sim.csv"
    code, _, _ = run_cli(capsys, "simulate", "--scenario", "military",
                         "--seed", "1", "--set", "sim.episodes=5000",
                         "--format", "csv", "--out", str(out))
    assert code == 0
    header = out.read_text().splitlines()[0]
    assert header.startswith("relay_id,")


def _solve_into(capsys, out) -> str:
    """Digest of the bundle ``solve --diagnostics`` writes over ``out``."""
    code, stdout, _ = run_cli(capsys, "solve", "--scenario", "military", "--diagnostics",
                              "--out", str(out))
    assert code == 0 and stdout.endswith(f"wrote {out}\n")
    return hashlib.sha256(Path(out).read_bytes()).hexdigest()


def test_out_rewrites_a_longer_file_in_place(capsys, tmp_path):
    out, twin = tmp_path / "solve.json", tmp_path / "hard-link.json"
    out.write_text("x" * 100_000)
    out.chmod(0o640)
    os.link(out, twin)
    before = out.stat()
    assert _solve_into(capsys, out) == PINNED["military", "solve"]
    after = out.stat()
    assert (after.st_ino, stat.S_IMODE(after.st_mode)) == (before.st_ino, 0o640)
    assert twin.read_bytes() == out.read_bytes()


def test_out_through_a_symlink_writes_its_target(capsys, tmp_path):
    target, link = tmp_path / "target.json", tmp_path / "link.json"
    target.write_text("x" * 100_000)
    link.symlink_to(target)
    assert _solve_into(capsys, link) == PINNED["military", "solve"]
    assert link.is_symlink() and link.resolve() == target.resolve()
    assert hashlib.sha256(target.read_bytes()).hexdigest() == PINNED["military", "solve"]


def test_out_to_a_character_device_is_not_truncated(capsys):
    code, _, err = run_cli(capsys, "solve", "--scenario", "military", "--out", os.devnull)
    assert (code, err) == (0, "")


def test_csv_over_a_longer_file_leaves_only_the_csv(capsys, tmp_path):
    fresh, reused = tmp_path / "fresh.csv", tmp_path / "reused.csv"
    reused.write_text("x" * 100_000)
    for out in (fresh, reused):
        assert run_cli(capsys, "sweep-n", "--scenario", "military", "--n-max", "8",
                       "--format", "csv", "--out", str(out))[0] == 0
    assert reused.read_bytes() == fresh.read_bytes()
    assert fresh.read_text().startswith("n,throughput,")


def test_out_dir_env_var(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("RELAYGAME_OUT_DIR", str(tmp_path))
    code, _, _ = run_cli(capsys, "solve", "--scenario", "military",
                         "--out", "nested/report.json")
    assert code == 0
    assert (tmp_path / "nested" / "report.json").exists()


def test_sweep_auth_simulate_flag(capsys, tmp_path):
    out = tmp_path / "auth.json"
    code, _, _ = run_cli(capsys, "sweep-auth", "--scenario", "military",
                         "--grid", "0,1", "--simulate", "--seed", "3",
                         "--set", "sim.episodes=20000", "--out", str(out))
    assert code == 0
    rows = json.loads(out.read_text())["rows"]
    assert rows[1]["compromise_empirical"] == 0.0
    assert rows[0]["compromise_empirical"] is not None


def single_relay_scenario():
    return {
        "schema_version": 1,
        "name": "toy",
        "game": {"detect_rate": 0.9, "false_alarm_rate": 0.05, "attack_cost": 0.01,
                 "monitor_cost": 0.01, "false_alarm_loss": 0.01},
        "relays": [{
            "id": 1, "info_asset": 1.0, "sec_asset": 1.0,
            "link": {"target_rate": 1.0, "snr_avg_db": 10.0, "pathloss_exp": 2.0,
                     "dist_sr": 1.0, "dist_rd": 1.0, "snr_sd_db": 13.0,
                     "snr_sr_db": 20.0, "snr_rd_db": 20.0},
        }],
        "throughput": {"packet_bits": 1000, "hash_bits": 160, "n_messages": 4,
                       "auth_prob": 1.0, "presig_time": 0.1,
                       "data_rate": 1e6, "reaction_time": 0.01},
        "security": {"max_compromised_fraction": 0.2},
    }


def test_single_relay_scenario_file(capsys, tmp_path):
    path = tmp_path / "toy.json"
    path.write_text(json.dumps(single_relay_scenario()))
    out = tmp_path / "toy-report.json"
    code, _, _ = run_cli(capsys, "solve", "--scenario", str(path), "--out", str(out))
    assert code == 0
    row = json.loads(out.read_text())["equilibrium"][0]
    assert row["attack_prob"] == pytest.approx(1.0, abs=1e-12)
    assert row["select_prob"] == pytest.approx(1.0, abs=1e-12)


def test_simulating_needs_a_sim_section(capsys, tmp_path):
    # Episodes and seed come only from the scenario: no hidden default run.
    path = tmp_path / "toy.json"
    path.write_text(json.dumps(single_relay_scenario()))
    for command in (["simulate"], ["sweep-auth", "--simulate"]):
        code, _, err = run_cli(capsys, *command, "--scenario", str(path))
        assert code == 2
        assert "scenario.sim" in err
    assert run_cli(capsys, "sweep-auth", "--scenario", str(path))[0] == 0


def test_seed_without_a_sim_section_reports_it_missing(capsys, tmp_path):
    # --seed alone does not make a sim section; with --set sim.episodes one
    # exists and takes the seed.
    path = tmp_path / "toy.json"
    path.write_text(json.dumps(single_relay_scenario()))
    for command in (["simulate"], ["sweep-auth", "--simulate"]):
        code, _, err = run_cli(capsys, *command, "--seed", "3", "--scenario", str(path))
        assert code == 2
        assert "scenario.sim: missing; simulating needs a sim section" in err
        out = tmp_path / "bundle.json"
        code, _, err = run_cli(capsys, *command, "--set", "sim.episodes=1000", "--seed", "3",
                               "--scenario", str(path), "--out", str(out))
        assert code == 0, err
        assert json.loads(out.read_text())["provenance"]["seed"] == 3


@pytest.mark.parametrize("edit, argv, message", [
    (lambda d: d.update(sim=None), ["--seed", "3"], "scenario.sim: missing; simulating"),
    (lambda d: d.update(sim=None), ["--set", "sim.seed=3"], "scenario.sim.episodes: missing"),
    (lambda d: d.update(sim=5), ["--seed", "3"], "scenario.sim: expected an object, got int"),
    (lambda d: d.update(game="x"), ["--set", "game.detect_rate=0.5"],
     "scenario.game: expected an object, got str"),
    (lambda d: [d], ["--seed", "3"], "scenario: expected an object, got list"),
])
def test_overrides_on_a_malformed_file_exit_two(capsys, tmp_path, edit, argv, message):
    # The overrides edit the file's own JSON, before anything validates it.
    data = single_relay_scenario()
    data = edit(data) or data
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    code, _, err = run_cli(capsys, "simulate", "--scenario", str(path), *argv)
    assert code == 2
    assert err.startswith(f"error: {message}")


def test_an_override_replaces_a_field_the_file_gives_out_of_range(capsys, tmp_path):
    data = single_relay_scenario()
    data["game"]["detect_rate"] = 2.0
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    assert run_cli(capsys, "solve", "--scenario", str(path))[0] == 2
    assert run_cli(capsys, "solve", "--scenario", str(path),
                   "--set", "game.detect_rate=0.5")[0] == 0


def test_seed_leaves_the_scenario_alone_where_nothing_is_simulated(capsys, tmp_path):
    # outage-check takes --seed as its Monte Carlo seed and analytic sweep-auth
    # simulates nothing, so a scenario with no sim section still runs and hashes
    # as it does without --seed.
    path = tmp_path / "toy.json"
    path.write_text(json.dumps(single_relay_scenario()))
    for scenario in (str(path), "military"):
        for command in (["outage-check", "--trials", "1000"], ["sweep-auth"]):
            hashes = []
            for seed in ([], ["--seed", "3"]):
                out = tmp_path / "bundle.json"
                code, _, err = run_cli(capsys, *command, *seed, "--scenario", scenario,
                                       "--out", str(out))
                assert code == 0, err
                hashes.append(json.loads(out.read_text())["provenance"]["scenario_hash"])
            assert hashes[0] == hashes[1]


def test_outage_check_seed_seeds_the_monte_carlo(capsys, tmp_path):
    bundles = []
    for seed in ("3", "4"):
        out = tmp_path / f"outage-{seed}.json"
        assert run_cli(capsys, "outage-check", "--scenario", "military", "--trials", "1000",
                       "--seed", seed, "--out", str(out))[0] == 0
        bundles.append(json.loads(out.read_text()))
    assert [b["provenance"]["seed"] for b in bundles] == [3, 4]
    assert bundles[0]["rows"] != bundles[1]["rows"]


def with_outage_check_links(base, rng):
    """``base`` with every link drawn the way the outage-check benchmark
    draws its file: SNR 6-12 dB, rate 0.75-1.25, pathloss 2-4, distances
    0.5-1.5, the first relay at dist_rd = 1."""
    links = []
    for k, ln in enumerate(base.links):
        links.append(replace(
            ln, snr_avg=10.0 ** (rng.uniform(6.0, 12.0) / 10.0),
            target_rate=rng.uniform(0.75, 1.25), pathloss_exp=rng.uniform(2.0, 4.0),
            dist_sr=rng.uniform(0.5, 1.5), dist_rd=1.0 if k == 0 else rng.uniform(0.5, 1.5)))
    return replace(base, links=tuple(links))


def test_outage_crosscheck_flags_in_standard_errors(military):
    rng = np.random.default_rng(9)
    rows = []
    for trials in (1_000, 10_000, 100_000, 1_000_000):
        for seed in range(25):
            bundle = build_outage_crosscheck(
                with_outage_check_links(military, rng), trials=trials, seed=seed)
            assert bundle["z_bound"] == 4.0
            rows += bundle["rows"]
    assert sum(r["within_band"] for r in rows) >= 0.99 * len(rows)
    # p = 0.306 at 5e4 trials, 2.6 standard errors low: outside the old fixed
    # 5e-3 band, inside 4 standard errors.
    p, trials = 0.306, 50_000
    mc = p - 2.6 * math.sqrt(p * (1.0 - p) / trials)
    z, within_band = report._crosscheck(p, mc, trials)
    assert abs(p - mc) > 5e-3 and -2.7 < z < -2.5
    assert within_band


def test_outage_crosscheck_flags_a_small_expected_count_only_when_rare(military):
    # P_out = 4.7e-5 at 1e3 trials: one outage is 4.4 standard errors out, yet
    # happens in about 5 % of rows.
    link = replace(military.links[0], snr_avg=340.0)
    rows = []
    for seed in range(250):
        rows += build_outage_crosscheck(
            replace(military, links=(link,) * 4), trials=1_000, seed=seed)["rows"]
    assert rows[0]["closed_form"] == pytest.approx(4.71e-5, rel=1e-3)
    assert sum(r["z"] > 4.0 for r in rows) >= 25
    assert all(r["within_band"] for r in rows)


@pytest.mark.parametrize("trials", [1_000, 10_000])
def test_outage_crosscheck_flags_correct_counts_rarer_than_the_normal_tail(trials):
    # The exact Bin(trials, p) mass of every count the flag rejects, over the
    # whole range of outage probabilities.
    level = 2.0 * scipy_stats.norm.sf(4.0)
    for p in (1e-6, 5e-5, 1e-3, 0.05, 0.3, 0.5, 0.9, 0.999, 1.0 - 1e-5):
        flagged = [k for k in range(trials + 1)
                   if not report._crosscheck(p, k / trials, trials)[1]]
        assert scipy_stats.binom.pmf(flagged, trials, p).sum() <= level
        assert flagged     # a count far enough out is flagged at every p


def test_outage_crosscheck_at_certain_and_impossible_outage():
    assert report._crosscheck(0.0, 0.0, 1000) == (0.0, True)
    assert report._crosscheck(-1e-17, 0.0, 1000) == (0.0, True)     # clipped into [0, 1]
    assert report._crosscheck(1.0, 1.0, 1000) == (0.0, True)
    assert report._crosscheck(0.0, 0.001, 1000) == (None, False)
    assert report._crosscheck(1.0, 0.999, 1000) == (None, False)


def test_outage_crosscheck_of_an_impossible_outage_is_strict_json(military, monkeypatch):
    monkeypatch.setitem(vars(military), "outage", (0.0,) * len(military.links))
    bundle = build_outage_crosscheck(military, trials=10_000, seed=1)
    assert [r["z"] for r in bundle["rows"]] == [None] * len(military.links)
    assert not bundle["all_within_band"] and bundle["note"]

    def no_constant(token):
        raise ValueError(f"non-standard JSON token {token}")

    parsed = json.loads(bundle_to_json(bundle), parse_constant=no_constant)
    assert parsed["rows"][0]["z"] is None and parsed["rows"][0]["within_band"] is False


def test_non_finite_bundle_value_is_an_error_naming_its_path():
    bundle = {"report": "x", "rows": [{"z": 1.0}, {"z": math.inf}], "sigma": {"b": [math.nan]}}
    with pytest.raises(RelayGameError, match=r"^rows\[1\]\.z: inf has no strict JSON form$"):
        bundle_to_json(bundle)
    bundle["a"] = (0.5, {"c": -math.inf})      # sorted first, as canonical JSON writes it
    with pytest.raises(RelayGameError, match=r"^a\[1\]\.c: -inf has no"):
        bundle_to_json(bundle)
    del bundle["a"], bundle["rows"]
    with pytest.raises(RelayGameError, match=r"^sigma\.b\[0\]: nan has no"):
        bundle_to_json(bundle)


def test_non_finite_bundle_value_exits_four_and_writes_nothing(capsys, tmp_path, monkeypatch):
    real = cli.build_solve_report
    monkeypatch.setattr(cli, "build_solve_report",
                        lambda sc, diagnostics: {**real(sc, diagnostics=diagnostics),
                                                 "lambda_source": math.nan})
    out_file = tmp_path / "solve.json"
    code, _, err = run_cli(capsys, "solve", "--scenario", "military", "--out", str(out_file))
    assert code == 4
    assert err == "error: lambda_source: nan has no strict JSON form\n"
    assert not out_file.exists()
    # An existing file keeps its old bytes: the text is built before it is opened.
    out_file.write_bytes(b"old bundle\n")
    assert run_cli(capsys, "solve", "--scenario", "military", "--out", str(out_file))[0] == 4
    assert out_file.read_bytes() == b"old bundle\n"


def test_cli_keeps_no_state_between_calls(capsys, tmp_path):
    """Repeated calls in one process give the same bytes, whatever ran between
    them; the parser is the one thing built once."""
    assert cli.build_parser() is cli.build_parser()
    out_file = tmp_path / "bundle.json"
    runs = [
        ["simulate", "--scenario", "military", "--auth-policy", "--seed", "17",
         "--set", "sim.episodes=20000", "--out", str(out_file)],
        ["outage-check", "--scenario", "commercial", "--seed", "5", "--trials", "20000",
         "--out", str(out_file)],
    ]

    def each_run():
        results = []
        for argv in runs:
            results.append((*run_cli(capsys, *argv), out_file.read_bytes()))
            out_file.unlink()
        return results

    first = each_run()
    with pytest.raises(SystemExit) as exc:
        main(["simulate"])              # argparse: --scenario is required
    assert exc.value.code == 2
    assert run_cli(capsys, "simulate", "--scenario", "military", "--set", "bogus=1")[0] == 2
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    capsys.readouterr()
    assert each_run() == first
    assert [code for code, *_ in first] == [0, 0]


def test_overrides_build_one_scenario(capsys, monkeypatch):
    """--seed and --set edit the preset's dict form: one scenario_from_dict
    call, and no other Scenario is built on the way."""
    calls, built = [], []
    real_from_dict, real_post_init = scenario.scenario_from_dict, scenario.Scenario.__post_init__

    def counted(data):
        calls.append(data)
        return real_from_dict(data)

    def counted_post_init(self):
        built.append(self.name)
        real_post_init(self)

    for module in (scenario, cli):      # every module that holds the name
        monkeypatch.setattr(module, "scenario_from_dict", counted)
    monkeypatch.setattr(scenario.Scenario, "__post_init__", counted_post_init)
    code, _, _ = run_cli(capsys, "simulate", "--scenario", "military", "--seed", "3",
                         "--set", "sim.episodes=1000")
    assert code == 0
    assert (len(calls), built) == (1, ["military"])
    assert (calls[0]["sim"]["seed"], calls[0]["sim"]["episodes"]) == (3, 1000)


def test_unexpected_error_names_its_type_and_origin(capsys, monkeypatch):
    def broken(*args, **kwargs):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "build_solve_report", broken)
    code, _, err = run_cli(capsys, "solve", "--scenario", "military")
    assert code == 4
    assert err.startswith("unexpected error: RuntimeError: boom (in broken, ")
    assert "test_cli.py:" in err


def test_a_read_scenario_is_hashed_without_writing_it_out(monkeypatch):
    data = scenario.load_scenario_dict("military")
    expected = hashlib.sha256(scenario.canonical_json(
        scenario.scenario_to_dict(scenario.load_scenario("military"))).encode()).hexdigest()

    def refused(s):
        raise AssertionError("scenario_to_dict called")

    monkeypatch.setattr(scenario, "scenario_to_dict", refused)
    sc = scenario.scenario_from_dict(data)
    bundle = json.loads(bundle_to_json(build_solve_report(sc)))
    assert bundle["provenance"]["scenario_hash"] == expected


def test_partition_and_security_sections_hold_the_dataclass_values(military):
    """The sections are the dataclasses' fields, their values not copied."""
    partition = military.solution.partition
    solve = build_solve_report(military)
    assert solve["partition"]["sensible"] is partition.sensible
    assert solve["partition"] == asdict(partition)
    small = replace(military, sim=replace(military.sim, episodes=1000))
    security = build_simulation_report(small)["security"]
    assert {key: security[key] for key in asdict(military.security)} == asdict(military.security)
    assert list(security) == [*asdict(military.security), "min_auth_prob_by_relay",
                              "auth_policy_applied"]


def test_solve_report_is_json_serializable(military):
    text = bundle_to_json(build_solve_report(military, diagnostics=True))
    parsed = json.loads(text)
    assert parsed["verification"]["is_equilibrium"] is True
    assert parsed["provenance"]["timing_model"] == "derived"
    assert parsed["provenance"]["p_c_binding"] == "selected-relay"
