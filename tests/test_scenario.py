"""Scenario presets, file loading, validation messages and round trips."""

import dataclasses
import hashlib
import json
import math

import pytest

from relaygame.errors import ValidationError
from relaygame.scenario import (
    canonical_json,
    load_scenario,
    presets,
    save_scenario,
    scenario_from_dict,
    scenario_hash,
    scenario_to_dict,
)


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


def test_round_trip(tmp_path, military):
    path = tmp_path / "scenario.json"
    save_scenario(military, path)
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


def test_validation_names_field_paths(military):
    data = scenario_to_dict(military)
    data["game"]["detect_rate"] = 1.5
    with pytest.raises(ValidationError, match=r"scenario\.game.*detect_rate"):
        scenario_from_dict(data)

    data = scenario_to_dict(military)
    del data["game"]["attack_cost"]
    with pytest.raises(ValidationError, match=r"scenario\.game\.attack_cost"):
        scenario_from_dict(data)

    data = scenario_to_dict(military)
    data["relays"][1]["info_asset"] = "high"
    with pytest.raises(ValidationError, match=r"relays\[1\]\.info_asset"):
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


@pytest.mark.parametrize("flag", ["no", "false", 0, 1])
def test_refined_detection_must_be_boolean(military, flag):
    data = scenario_to_dict(military)
    data["sim"]["refined_detection"] = flag
    with pytest.raises(ValidationError, match=r"scenario\.sim\.refined_detection: expected a boolean"):
        scenario_from_dict(data)
    data["sim"]["refined_detection"] = True
    assert scenario_from_dict(data).sim.refined_detection is True


def test_auth_prob_keys_must_be_relay_ids(military):
    data = scenario_to_dict(military)
    for keys in ({"a": 0.5}, {"1": 0.9, "01": 0.1}, {" 1": 0.5}, {"+1": 0.5},
                 {"1_0": 0.5}, {"1.0": 0.5}, {"None": 0.5}, {1: 0.9, "1": 0.1}):
        data["sim"]["auth_prob"] = keys
        with pytest.raises(ValidationError, match=r"scenario\.sim\.auth_prob"):
            scenario_from_dict(data)
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
    loaded = scenario_from_dict(data)
    assert loaded.throughput.n_messages == 1
    assert loaded.game.weight_info == 0.5
    assert loaded.sim.attacker_mode.value == "equilibrium"
    assert loaded.profiles[1].id == 2
