"""SHA-256 of the canonical JSON bundle of both presets through every command.

A refactor must leave every bundle byte-identical.  A change that alters the
draws or a formula on purpose updates these digests, bumps
``sim.RNG_ALGORITHM`` when the draws changed, and says which bundles moved.
A numpy upgrade that changes the Generator streams also shows here.
"""

import hashlib

import pytest

from relaygame.cli import main

COMMANDS = {
    "solve": ["solve", "--diagnostics"],
    "sweep-n-general": ["sweep-n", "--n-max", "40", "--arq", "general"],
    "sweep-n-sr": ["sweep-n", "--n-max", "40", "--arq", "sr"],
    "sweep-n-gbn": ["sweep-n", "--n-max", "40", "--arq", "gbn"],
    "sweep-auth": ["sweep-auth", "--set", "sim.episodes=20000"],
    "sweep-auth-simulate": ["sweep-auth", "--simulate", "--set", "sim.episodes=20000"],
    "simulate": ["simulate"],
    "simulate-auth-policy": ["simulate", "--auth-policy"],
    "outage-check": ["outage-check", "--trials", "50000"],
}

PINNED = {
    ("military", "solve"):
        "e0f64cd662cc64fe1800a4edc65ce3461447ffeef11c68877f4eee7aa8597698",
    ("military", "sweep-n-general"):
        "c17c264e8043453ba6adb45d7f011d9bc8f6d9e225c04a9c5475138b9c8ea98b",
    ("military", "sweep-n-sr"):
        "ce3b178d4c3ccce0460ef6bfebd0448f9d524a8572971501a84c48967b2448da",
    ("military", "sweep-n-gbn"):
        "db42a6d5e3aab1d954a651dfc6a041779c5fa4a2540b793ed0450d99e21f4944",
    ("military", "sweep-auth"):
        "d711e2bec2d65c5b95012496d0d3753142adafbc09027ec2935900ed6d1ede1a",
    ("military", "sweep-auth-simulate"):
        "7dae6c8e511152535a4c4e9be291ff9156d8b80d4b001176317b75880dd15aa0",
    ("military", "simulate"):
        "3961a3890c20b1159d75a683e08c35f93c25f0eca7ee69597406e939fa19ea1a",
    ("military", "simulate-auth-policy"):
        "858322ec49ef5172dedae15416d4ddc66f5c5e722e208a7a2897154952a030ae",
    ("military", "outage-check"):
        "071d8541da712f9a4641b51a1e96b051b23178369ec7750e2afe3cc563422131",
    ("commercial", "solve"):
        "57102d4e4763892176cfb06b3135ae2d4849800c13f7663ac5249670d55dd522",
    ("commercial", "sweep-n-general"):
        "cc8b53f83a786169353301e2d14e03973d1739b676eb0ba8da9b5c68bab4071b",
    ("commercial", "sweep-n-sr"):
        "c853e0c7b90ce2244a6c2a653c84205e6a5f48860ca7fda7b97a995a740f7e1f",
    ("commercial", "sweep-n-gbn"):
        "ef2f5a872705e5df36d71959b5168750ee12ec8786646a4a995c851bb6360882",
    ("commercial", "sweep-auth"):
        "b873ef9a9365c4ee050eb865b888bdf0abcf16391de53ce80fe32463a5601461",
    ("commercial", "sweep-auth-simulate"):
        "736b145c2be3bcad84fddca15be6b09cbbfe348856cffee3bd0c12879710506a",
    ("commercial", "simulate"):
        "5c459d9441ff34fa24c4022e4c61e9290581b0b4187da4d292342a97af1d1205",
    ("commercial", "simulate-auth-policy"):
        "0365d597c5c8e826e52c5e09a954195e3cadad9e63b3afd50c62ebfee466bd95",
    ("commercial", "outage-check"):
        "00ecdd48250241d949aeee0bc108b024ff44825ba25a0f7ed96413b5b10845f5",
}


@pytest.mark.parametrize("preset", ["military", "commercial"])
@pytest.mark.parametrize("command", list(COMMANDS))
def test_bundle_digest_is_pinned(tmp_path, preset, command):
    out = tmp_path / "bundle.json"
    assert main([*COMMANDS[command], "--scenario", preset, "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == PINNED[preset, command]
