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
        "7775027d2180b2e9b3353f4bc34e9cc5a382127c5c8fb25204424fcf29aa4dc8",
    ("military", "sweep-n-general"):
        "30715d72f841cec761948cee5b724a8fedb0feb55bf52f8d425776435b16f7e8",
    ("military", "sweep-n-sr"):
        "e1fa59f4d7cc81c323cddb0c369842e49eb4724c853f140849b44bb5193acf78",
    ("military", "sweep-n-gbn"):
        "55f4b1bc4a86f9c24280d20df53ccc521648aa20e402ee9be2dc3ed451b89caa",
    ("military", "sweep-auth"):
        "28821c05ce4e2a0e939fcc9248e7451ec1ac8cd3c165ea582af69dca16792bb6",
    ("military", "sweep-auth-simulate"):
        "8a745689a8b8bf6513e05909393f69197edb9b564c7cb450675a476353e6858c",
    ("military", "simulate"):
        "b1783243c1b3d0f21490d6f64cf578b0c1552935a4b470f0a6826e16121364b4",
    ("military", "simulate-auth-policy"):
        "14eb0c5b87da5ac86c69cbc70b2492da133f3c3fb409dbfaab4eb3bc0e84de05",
    ("military", "outage-check"):
        "71d18355c5292d7a555cd092b738f17e1a5e5a4fa4083fcb5d039c4d6d4039f1",
    ("commercial", "solve"):
        "dad96d4b7b75ad511b4a5c5b79affe194eff591fb8a90db5f62fbee1474300f9",
    ("commercial", "sweep-n-general"):
        "c89303ba08acdfb0e167cc8a853cf8bc645c52f2bcd0a0f4a2893e80a667ef51",
    ("commercial", "sweep-n-sr"):
        "e4103af6c4be09ca12b77ee8d22e4d479db6fce8dc67de6141fae78d2f29cd5c",
    ("commercial", "sweep-n-gbn"):
        "31e10c3efc97eb68fba2ba24b116d266fdbe220e27fdc11065031c5888ad51d8",
    ("commercial", "sweep-auth"):
        "4cd9e74337589ce9c394028679cac8b6841391ac51a51f8a6d5766b32b43fead",
    ("commercial", "sweep-auth-simulate"):
        "84eacaf7b69579dd2896b06b2731ff3440c9ad93d6f4dcff393dd4508bb19b1f",
    ("commercial", "simulate"):
        "cf897a58028f3f7708a99e78496759b6a3b3f5743e1a776c726e5ca9b81c351c",
    ("commercial", "simulate-auth-policy"):
        "4bf78f5bdf9fdf3f5889a6c22bb7d7e2f6d10280de6059c6bcc25972536f868d",
    ("commercial", "outage-check"):
        "c69a51f45893d9a212a5b87318d22a7ef5bb45fdea3a6cd0f4991a4c3115ca59",
}


@pytest.mark.parametrize("preset", ["military", "commercial"])
@pytest.mark.parametrize("command", list(COMMANDS))
def test_bundle_digest_is_pinned(tmp_path, preset, command):
    out = tmp_path / "bundle.json"
    assert main([*COMMANDS[command], "--scenario", preset, "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == PINNED[preset, command]
