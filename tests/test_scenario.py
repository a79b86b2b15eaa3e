"""Scenario presets, file loading, validation messages and round trips."""

import dataclasses
import hashlib
import importlib.util
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest

from relaygame.channel import LinkModel
from relaygame.cli import main
from relaygame.errors import ValidationError
from relaygame.game import GameParams, RelayProfile
from relaygame.scenario import (
    _TABLE,
    PRESET_NAMES,
    canonical_json,
    load_scenario,
    load_scenario_dict,
    presets,
    scenario_from_dict,
    scenario_hash,
    scenario_to_dict,
    write_file,
)
from relaygame.sim import SimConfig
from relaygame.throughput import SecurityRequirement, ThroughputConfig
from test_generated_bundles_pinned import _load_workloads

TOOLS = Path(__file__).resolve().parents[1] / "tools"


def test_military_preset_parameters(military):
    g = military.game
    assert (g.detect_rate, g.false_alarm_rate) == (0.9, 0.05)
    assert (g.attack_cost, g.monitor_cost, g.false_alarm_loss) == (0.01, 0.01, 0.01)
    assert g.weight_info < g.weight_security
    assert [pr.info_asset for pr in military.profiles] == [1.0, 0.75, 0.5, 0.25]
    assert military.security.max_compromised_fraction == 0.20


def test_commercial_preset_parameters(commercial):
    g = commercial.game
    assert (g.detect_rate, g.false_alarm_rate) == (0.6, 0.2)
    assert (g.attack_cost, g.monitor_cost, g.false_alarm_loss) == (0.1, 0.1, 0.3)
    assert g.weight_info > g.weight_security
    # The known misprint is recorded on the preset so reports carry it.
    assert any("0.36583" in note for note in commercial.annotations)


def test_presets_resolve_uniquely():
    names = sorted(presets())
    assert names == ["commercial", "military"]
    assert load_scenario("military").name == "military"
    with pytest.raises(ValidationError, match="unknown preset"):
        load_scenario("filitary")


@pytest.mark.parametrize("name", ["military", "commercial"])
def test_load_scenario_builds_the_named_preset(name):
    assert scenario_hash(load_scenario(name)) == scenario_hash(presets()[name])


def test_presets_are_built_afresh_on_each_call():
    first, second = presets(), presets()
    assert list(first) == list(second)
    for name in first:
        assert first[name] is not second[name]
        assert scenario_hash(first[name]) == scenario_hash(second[name])


def test_round_trip(tmp_path, military):
    path = tmp_path / "scenario.json"
    write_file(path, json.dumps(scenario_to_dict(military), indent=2))
    again = load_scenario(path)
    assert scenario_to_dict(again) == scenario_to_dict(military)
    assert scenario_hash(again) == scenario_hash(military)


def test_hash_changes_with_content(military, commercial):
    assert scenario_hash(military) != scenario_hash(commercial)
    # The hash is kept on the scenario; a copy with other content gets its own.
    renamed = dataclasses.replace(military, name="renamed")
    assert scenario_hash(renamed) != scenario_hash(military)
    assert scenario_hash(renamed) == hashlib.sha256(
        canonical_json(scenario_to_dict(renamed)).encode()).hexdigest()


def test_hash_taken_at_read_is_the_hash_of_the_written_form(monkeypatch, tmp_path):
    """scenario_from_dict hashes the values it read; the hash must be the one
    the scenario's written form gives, for every kind of file the program reads."""
    workloads = _load_workloads(monkeypatch)
    monkeypatch.syspath_prepend(str(TOOLS))      # compare_parent imports bench_pairs
    spec = importlib.util.spec_from_file_location("compare_parent", TOOLS / "compare_parent.py")
    compare_parent = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(compare_parent)

    rng = np.random.default_rng(26)
    dicts = [load_scenario_dict(name) for name in PRESET_NAMES]
    dicts += [workloads.generate_scenario(rng, 2 + j % 31)[0] for j in range(100)]
    loaded = set()
    for name, raw in compare_parent.FILES.items():
        (tmp_path / name).write_bytes(raw)
        try:
            data = load_scenario_dict(tmp_path / name)
            scenario_from_dict(data)
        except ValidationError:                      # the files written to be refused
            continue
        dicts.append(data)
        loaded.add(name)
    assert loaded == {"unequal.json", "shuffled.json", "nosim.json", "nullnotes.json"}
    for data in dicts:
        s = scenario_from_dict(data)
        assert "_hash" in vars(s)                    # filled by the read
        assert s._hash == hashlib.sha256(
            canonical_json(scenario_to_dict(s)).encode()).hexdigest()


def test_db_fields_convert(tmp_path, military):
    data = scenario_to_dict(military)
    link = data["relays"][0]["link"]
    linear = link.pop("snr_sd")
    link["snr_sd_db"] = 13.0
    s = scenario_from_dict(data)
    assert s.links[0].snr_sd == pytest.approx(linear, rel=1e-12)


def test_db_and_linear_together_rejected(military):
    data = scenario_to_dict(military)
    data["relays"][0]["link"]["snr_sd_db"] = 13.0  # linear form still present
    with pytest.raises(ValidationError, match="snr_sd"):
        scenario_from_dict(data)


#: One out-of-range value per ranged field of the table, by JSON section.
OUT_OF_RANGE = {
    "game": {"detect_rate": 1.5, "false_alarm_rate": -0.1, "attack_cost": -1.0,
             "monitor_cost": -0.5, "false_alarm_loss": -2.0, "weight_info": -1.0,
             "weight_security": -0.25},
    "relays[1]": {"info_asset": -1.0, "sec_asset": -0.5},
    "relays[1].link": {"target_rate": 600.0, "snr_avg": 0.0, "pathloss_exp": -1.0,
                       "dist_sr": 0.0, "dist_rd": -2.0, "snr_sd": -1.0, "snr_sr": 0.0,
                       "snr_rd": -3.0},
    "throughput": {"packet_bits": 0, "hash_bits": -160, "n_messages": 0, "auth_prob": 1.5,
                   "presig_time": -0.1, "transfer_time": 0.0, "data_rate": 0.0,
                   "reaction_time": -1.0, "window": 0},
    "security": {"max_compromised_fraction": 2.0},
    "sim": {"episodes": 0, "packets_per_episode": 0, "seed": -1, "auth_prob": -0.5},
}
SECTION_CLASS = {"game": GameParams, "relays[1]": RelayProfile, "relays[1].link": LinkModel,
                 "throughput": ThroughputConfig, "security": SecurityRequirement,
                 "sim": SimConfig}
UNRANGED = {(RelayProfile, "id"), (SimConfig, "attacker_mode"), (SimConfig, "source_mode"),
            (SimConfig, "refined_detection")}


def test_validation_names_field_paths(military):
    covered = {(SECTION_CLASS[section], key)
               for section, fields in OUT_OF_RANGE.items() for key in fields}
    assert covered == {(cls, spec.name) for cls, specs in _TABLE.items()
                       for spec in specs} - UNRANGED
    for section, fields in OUT_OF_RANGE.items():
        for key, value in fields.items():
            data = scenario_to_dict(military)
            node = data
            for part in section.replace("[1]", ".1").split("."):
                node = node[int(part)] if part.isdigit() else node[part]
            node[key] = value
            if key == "transfer_time":
                del node["data_rate"]    # exactly one of the two may be given
            path = re.escape(f"scenario.{section}.{key}")
            with pytest.raises(ValidationError, match=rf"^{path} must be"):
                scenario_from_dict(data)

    data = scenario_to_dict(military)
    del data["game"]["attack_cost"]
    with pytest.raises(ValidationError, match=r"scenario\.game\.attack_cost"):
        scenario_from_dict(data)

    data = scenario_to_dict(military)
    data["relays"][1]["info_asset"] = "high"
    with pytest.raises(ValidationError, match=r"relays\[1\]\.info_asset"):
        scenario_from_dict(data)

    for name in (5, ["military"], True):
        data = scenario_to_dict(military)
        data["name"] = name
        with pytest.raises(ValidationError, match=r"scenario\.name: expected a string"):
            scenario_from_dict(data)


@pytest.mark.parametrize("path", [
    "extra", "game.detect", "relays[1].asset", "relays[2].link.snr_db",
    "relays[0].link.snr_avg_dB", "throughput.window_size", "security.max_fraction",
    "sim.episods",
])
def test_unknown_keys_are_refused(military, path):
    """A key the field table does not know would otherwise load as nothing
    and leave its field at the default."""
    data = scenario_to_dict(military)
    *parents, key = path.replace("[", ".").replace("]", "").split(".")
    node = data
    for part in parents:
        node = node[int(part)] if part.isdigit() else node[part]
    node[key] = 5
    with pytest.raises(ValidationError, match=rf"^scenario\.{re.escape(path)}: unknown field$"):
        scenario_from_dict(data)


def test_zero_asset_relay_rejected(military):
    data = scenario_to_dict(military)
    data["relays"][0]["info_asset"] = -1.0
    with pytest.raises(ValidationError, match="info_asset"):
        scenario_from_dict(data)


def test_schema_version_checked(military):
    data = scenario_to_dict(military)
    data["schema_version"] = 99
    with pytest.raises(ValidationError, match="schema_version"):
        scenario_from_dict(data)
    del data["schema_version"]
    with pytest.raises(ValidationError, match="schema_version"):
        scenario_from_dict(data)


@pytest.mark.parametrize("version,message", [
    (True, "expected an integer, got True"),
    (1.0, "expected an integer, got 1.0"),
    ("1", "expected an integer, got '1'"),
    (None, "missing required field"),
])
def test_schema_version_must_be_a_json_integer(military, version, message):
    data = scenario_to_dict(military)
    data["schema_version"] = version
    with pytest.raises(ValidationError, match=rf"^scenario\.schema_version: {re.escape(message)}$"):
        scenario_from_dict(data)


def test_null_annotations_count_as_absent(military):
    data = scenario_to_dict(military)
    data["annotations"] = None
    loaded = scenario_from_dict(data)
    assert loaded.annotations == ()
    del data["annotations"]
    assert scenario_hash(loaded) == scenario_hash(scenario_from_dict(data))


@pytest.mark.parametrize("annotations,message", [
    ([1, None], r"scenario\.annotations\[0\]: expected a string, got 1$"),
    (["kept", None], r"scenario\.annotations\[1\]: expected a string, got None$"),
    (["kept", ["nested"]], r"scenario\.annotations\[1\]: expected a string, got \['nested'\]$"),
    ("", r"scenario\.annotations: expected an array of strings$"),
    (0, r"scenario\.annotations: expected an array of strings$"),
])
def test_annotations_must_be_an_array_of_strings(military, annotations, message):
    data = scenario_to_dict(military)
    data["annotations"] = annotations
    with pytest.raises(ValidationError, match=message):
        scenario_from_dict(data)


def test_bad_json_file(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(ValidationError, match="not valid JSON"):
        load_scenario(path)


def test_canonical_json_is_stable(military):
    a = canonical_json(scenario_to_dict(military))
    b = canonical_json(scenario_to_dict(load_scenario("military")))
    assert a == b
    assert json.loads(a)["name"] == "military"


def test_preset_hashes_are_pinned(military, commercial):
    # A change to the field table that alters the canonical dict shows here.
    assert scenario_hash(military) == \
        "8a81aa5354b8762fbf07b1f78c37ec3f52aba2dc074c936487831feaceee29bc"
    assert scenario_hash(commercial) == \
        "636eab95fd4d22c30a81ba4356364451e2f16f8ad2f052893ae85b8527a59a3e"


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("section,key", [("throughput", "presig_time"),
                                         ("game", "weight_info"),
                                         ("link", "snr_avg"), ("link", "snr_sd_db")])
def test_non_finite_numbers_rejected(military, bad, section, key):
    data = scenario_to_dict(military)
    node = data["relays"][0]["link"] if section == "link" else data[section]
    if key == "snr_sd_db":
        del node["snr_sd"]
    node[key] = bad
    # Through JSON text, which json.loads reads with NaN and Infinity allowed.
    data = json.loads(json.dumps(data))
    where = r"relays\[0\]\.link" if section == "link" else section
    with pytest.raises(ValidationError, match=rf"scenario\.{where}\.{key}: expected a finite"):
        scenario_from_dict(data)


def test_db_value_past_float_range_rejected(military):
    data = scenario_to_dict(military)
    link = data["relays"][0]["link"]
    del link["snr_rd"]
    link["snr_rd_db"] = 1e4
    with pytest.raises(ValidationError, match=r"relays\[0\]\.link\.snr_rd_db"):
        scenario_from_dict(data)


def test_target_rate_past_threshold_range_rejected(tmp_path, capsys, military):
    data = scenario_to_dict(military)
    for rate in (512, 600.0, 1e300):
        data["relays"][2]["link"]["target_rate"] = rate
        with pytest.raises(ValidationError, match=r"scenario\.relays\[2\]\.link\.target_rate"):
            scenario_from_dict(data)
    path = tmp_path / "rate.json"
    path.write_text(json.dumps(data))
    assert main(["solve", "--scenario", str(path)]) == 2
    assert "scenario.relays[2].link.target_rate" in capsys.readouterr().err
    # Just inside the range every closed form stays finite.
    data["relays"][2]["link"]["target_rate"] = 511.99
    path.write_text(json.dumps(data))
    assert main(["solve", "--scenario", str(path)]) == 0


@pytest.mark.parametrize("field", ["dist_sr", "dist_rd"])
def test_distance_whose_path_loss_overflows_rejected(tmp_path, capsys, military, field):
    # dist^4 overflows at 1e90 and underflows to 0 at 1e-90 (its reciprocal
    # overflows), which used to crash the closed form or the sampler.
    data = scenario_to_dict(military)
    data["sim"]["episodes"] = 1000
    link = data["relays"][0]["link"]
    link["pathloss_exp"] = 4.0
    path = tmp_path / "far.json"
    commands = (["solve"], ["simulate"], ["outage-check", "--trials", "1000"])
    for dist in (1e90, 1e-90):
        link[field] = dist
        with pytest.raises(ValidationError, match=rf"scenario\.relays\[0\]\.link\.{field}"):
            scenario_from_dict(data)
        path.write_text(json.dumps(data))
        for command in commands:
            assert main([*command, "--scenario", str(path)]) == 2
            assert f"scenario.relays[0].link.{field}^pathloss_exp and its reciprocal" in capsys.readouterr().err
    # Far, but with both the path loss and its reciprocal finite: every command runs.
    for dist in (1e70, 1e-70):
        link[field] = dist
        path.write_text(json.dumps(data))
        for command in commands:
            assert main([*command, "--scenario", str(path)]) == 0
            capsys.readouterr()


@pytest.mark.parametrize("flag", ["no", "false", 0, 1])
def test_refined_detection_must_be_boolean(military, flag):
    data = scenario_to_dict(military)
    data["sim"]["refined_detection"] = flag
    with pytest.raises(ValidationError, match=r"scenario\.sim\.refined_detection: expected a boolean"):
        scenario_from_dict(data)
    data["sim"]["refined_detection"] = True
    assert scenario_from_dict(data).sim.refined_detection is True


def test_auth_prob_keys_must_be_relay_ids(military, tmp_path):
    data = scenario_to_dict(military)
    for keys in ({"a": 0.5}, {"1": 0.9, "01": 0.1}, {" 1": 0.5}, {"+1": 0.5},
                 {"1_0": 0.5}, {"1.0": 0.5}, {"None": 0.5}, {1: 0.9, "1": 0.1}):
        data["sim"]["auth_prob"] = keys
        with pytest.raises(ValidationError, match=r"scenario\.sim\.auth_prob"):
            scenario_from_dict(data)
    # Keys must name every relay and no other, checked at load.
    for keys, named in (({"1": 0.5, "99": 0.1}, r"\[99\]"), ({"1": 0.5}, r"\[2, 3, 4\]")):
        data["sim"]["auth_prob"] = keys
        path = tmp_path / "auth.json"
        path.write_text(json.dumps(data))
        with pytest.raises(ValidationError, match=r"scenario\.sim\.auth_prob: .*" + named):
            load_scenario(path)
    data["sim"]["auth_prob"] = {"1": 0.5, "2": 0.25, "3": 0.0, "4": 1.0}
    loaded = scenario_from_dict(data)
    assert loaded.sim.auth_prob == {1: 0.5, 2: 0.25, 3: 0.0, 4: 1.0}
    assert scenario_to_dict(loaded)["sim"]["auth_prob"] == data["sim"]["auth_prob"]


def test_null_means_absent(military):
    data = scenario_to_dict(military)
    data["throughput"]["n_messages"] = None
    data["game"]["weight_info"] = None
    data["sim"]["attacker_mode"] = None
    data["relays"][1]["id"] = None
    data["name"] = None
    loaded = scenario_from_dict(data)
    assert loaded.name == "unnamed"
    assert loaded.throughput.n_messages == 1
    assert loaded.game.weight_info == 0.5
    assert loaded.sim.attacker_mode.value == "equilibrium"
    assert loaded.profiles[1].id == 2


def test_conditioning_relay_ties_go_to_the_smaller_id(military):
    """Equal assets give equal attack probabilities; the conditioning relay is
    then the one with the smallest id, wherever it sits in the list."""
    data = scenario_to_dict(military)
    for relay, rid in zip(data["relays"], (9, 4, 7, 2)):
        relay.update(id=rid, info_asset=0.75, sec_asset=0.75)
    sc = scenario_from_dict(data)
    assert len(set(sc.solution.attacker.probs)) == 1
    assert sc.ids[sc.conditioning] == 2


def test_scenario_built_directly_needs_one_link_per_relay(military):
    """A Scenario made without the loader still checks its relay list: with
    unequal profiles and links every zip over them would drop relays."""
    with pytest.raises(ValidationError, match="^scenario needs at least one relay$"):
        dataclasses.replace(military, profiles=(), links=())
    with pytest.raises(ValidationError, match="^4 relay profiles but 3 links$"):
        dataclasses.replace(military, links=military.links[:-1])
