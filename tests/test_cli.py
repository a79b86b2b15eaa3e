"""CLI surface: subcommands, flags, exit codes, emitted files."""

import json

import pytest

from relaygame.cli import OVERRIDE_KEYS, main
from relaygame.report import (
    build_solve_report,
    build_sweep_auth_report,
    build_sweep_n_report,
    bundle_to_json,
)
from relaygame.throughput import ArqMode, optimize_messages, throughput_sr


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


def test_degenerate_maps_to_exit_three(capsys):
    code, _, err = run_cli(capsys, "solve", "--scenario", "military",
                           "--set", "game.detect_rate=0")
    assert code == 3


def test_invalid_override_key(capsys):
    code, _, err = run_cli(capsys, "simulate", "--scenario", "military",
                           "--set", "bogus.key=1")
    assert code == 2
    assert "unknown override key" in err


def test_override_keys_are_the_scenario_fields():
    assert OVERRIDE_KEYS == {
        "name",
        "game.detect_rate", "game.false_alarm_rate", "game.attack_cost",
        "game.monitor_cost", "game.false_alarm_loss", "game.weight_info",
        "game.weight_security",
        "throughput.packet_bits", "throughput.hash_bits", "throughput.n_messages",
        "throughput.auth_prob", "throughput.presig_time", "throughput.transfer_time",
        "throughput.data_rate", "throughput.reaction_time", "throughput.window",
        "security.max_compromised_fraction",
        "sim.episodes", "sim.packets_per_episode", "sim.seed", "sim.attacker_mode",
        "sim.source_mode", "sim.auth_prob", "sim.refined_detection",
    }


@pytest.mark.parametrize("override,path", [
    ("throughput.presig_time=NaN", "scenario.throughput.presig_time"),
    ("game.attack_cost=-Infinity", "scenario.game.attack_cost"),
    ('sim.refined_detection="no"', "scenario.sim.refined_detection"),
    ('sim.auth_prob={"a": 0.5}', "scenario.sim.auth_prob"),
])
def test_bad_override_values_exit_two(capsys, override, path):
    code, _, err = run_cli(capsys, "solve", "--scenario", "military", "--set", override)
    assert code == 2
    assert path in err


def test_bad_grid_is_validation_error(capsys):
    code, _, err = run_cli(capsys, "sweep-auth", "--scenario", "military",
                           "--grid", "0.1,zap")
    assert code == 2


def test_sweep_n_consistency(military):
    bundle = build_sweep_n_report(military, [6], ArqMode.SR)
    cfg = military.throughput.with_messages(6)
    expected = throughput_sr(cfg, bundle["packet_success"])
    assert bundle["rows"][0]["throughput"] == pytest.approx(expected, rel=1e-12)


def test_sweep_n_argmax_matches_optimizer(military):
    bundle = build_sweep_n_report(military, range(1, 41), ArqMode.SR)
    rows = bundle["rows"]
    best_row = max(rows, key=lambda r: r["throughput"])
    n_star, best = optimize_messages(
        military.throughput, 40, ArqMode.SR, bundle["packet_success"])
    assert best_row["n"] == n_star == bundle["optimal"]["n"]
    assert best_row["throughput"] == pytest.approx(best, rel=1e-12)


def test_sweep_n_flags_nonpositive_rows(military):
    bundle = build_sweep_n_report(military, range(30, 37), ArqMode.GENERAL)
    flags = {r["n"]: r["plot_omitted"] for r in bundle["rows"]}
    assert not flags[32] and flags[33]  # payload cutoff


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
    assert bundle["simulation"]["rng_algorithm"] == "numpy-pcg64"


def test_simulate_csv_output(capsys, tmp_path):
    out = tmp_path / "sim.csv"
    code, _, _ = run_cli(capsys, "simulate", "--scenario", "military",
                         "--seed", "1", "--set", "sim.episodes=5000",
                         "--format", "csv", "--out", str(out))
    assert code == 0
    header = out.read_text().splitlines()[0]
    assert header.startswith("relay_id,")


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


def test_single_relay_scenario_file(capsys, tmp_path):
    scenario = {
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
    path = tmp_path / "toy.json"
    path.write_text(json.dumps(scenario))
    out = tmp_path / "toy-report.json"
    code, _, _ = run_cli(capsys, "solve", "--scenario", str(path), "--out", str(out))
    assert code == 0
    row = json.loads(out.read_text())["equilibrium"][0]
    assert row["attack_prob"] == pytest.approx(1.0, abs=1e-12)
    assert row["select_prob"] == pytest.approx(1.0, abs=1e-12)


def test_solve_report_is_json_serializable(military):
    text = bundle_to_json(build_solve_report(military, diagnostics=True))
    parsed = json.loads(text)
    assert parsed["verification"]["is_equilibrium"] is True
    assert parsed["provenance"]["timing_model"] == "derived"
    assert parsed["provenance"]["p_c_binding"] == "selected-relay"
