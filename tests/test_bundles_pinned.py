"""SHA-256 of the canonical JSON bundle of both presets through every command,
and of the stdout tables plus the ``--format csv`` file of the same runs.

The JSON writer sorts keys, so only the second set of digests sees the column
order of the tables.  A refactor must leave every bundle and table
byte-identical.  A change that alters the draws or a formula on purpose
updates these digests, bumps ``sim.RNG_ALGORITHM`` when the draws changed,
and says which bundles moved.  A numpy upgrade that changes the Generator
streams also shows here.
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
        "f1fa80187fcd176d83c1f2ab741e5c912b015eb88070abb20c893412a2f009b3",
    ("military", "sweep-n-general"):
        "6cd0ba4dc61ea49b7e713aa1ccc4f5c923cec7e5432953ffdd89e16060f242bb",
    ("military", "sweep-n-sr"):
        "e9c397e236e538a5cfa80fd7566d044abdfa5f066130514ce0d120a8b569718b",
    ("military", "sweep-n-gbn"):
        "3d1de52fc9a32e1d65ca88897c8129687cec06ba6346165b6561a2237ef8a4b2",
    ("military", "sweep-auth"):
        "6cbd818b346d1aab33e170a1a384051d33f81ea67631a16c963c6673957abdb8",
    ("military", "sweep-auth-simulate"):
        "39e7178686d0c60ba79d8f853c989c2517a01c529ac73235840e84ead79edca6",
    ("military", "simulate"):
        "cd1b37e5198fab42fe6aaeb7a123a73de36dab3069666814e95212b17921ac26",
    ("military", "simulate-auth-policy"):
        "485d3a700d20fef2a61d181ac2156b321946310fc3d2f8a0a70598ff9d173f9b",
    ("military", "outage-check"):
        "63fb6815fa814839f78f70eaaad533203202c88c646c3b1175a74aa7a73404bd",
    ("commercial", "solve"):
        "f164759a8170ccee8ed0d012688d8752ab19303a3f0b96b7a156495494ce4913",
    ("commercial", "sweep-n-general"):
        "fffcb4efd87d508712c38b9fa4f4549a1f0bb42143811bbe4f323ac03ed996a8",
    ("commercial", "sweep-n-sr"):
        "8b44f5f5d250b5aea86290a1eb0842e02cb8ef80ece9460fc9b198c4f14735a8",
    ("commercial", "sweep-n-gbn"):
        "0276e9d38614a385b67b36a85089bfe065e8f89bd3792c6e24cdbb7b3d16e51a",
    ("commercial", "sweep-auth"):
        "ae82bf7b22eb9239ac932d0711ec00287e7b26fe3b8d6d143a113cc05ff6c44e",
    ("commercial", "sweep-auth-simulate"):
        "a0539529257b33135e50eefa62fb8f6fdd83fd01c63166b8c1e3c26ca20b4892",
    ("commercial", "simulate"):
        "1811c375cd1c50ffc576ada63765b26cbe222912a044257b3953b77415139561",
    ("commercial", "simulate-auth-policy"):
        "0ad5c9cb8affbcf793906b3467d551c910973d1f2dc79b4a99293628f3371a28",
    ("commercial", "outage-check"):
        "3582bf251f8d636316ad4411100a1c045cad0cb6c962e0ec2c1cbbe630a462d1",
}


@pytest.mark.parametrize("preset", ["military", "commercial"])
@pytest.mark.parametrize("command", list(COMMANDS))
def test_bundle_digest_is_pinned(tmp_path, preset, command):
    out = tmp_path / "bundle.json"
    assert main([*COMMANDS[command], "--scenario", preset, "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == PINNED[preset, command]


PINNED_TEXT = {
    ("military", "solve"):
        "63d650a5fa6fce62817bb0967196b29c19418e226ca2dbe5876e24ab71ad28a5",
    ("military", "sweep-n-general"):
        "9d4bcb67116c23bd87947cb6a0b02ad8fe838d2ed563ae1b4ab2ea815a8b1207",
    ("military", "sweep-n-sr"):
        "f117888ae8d07b8de3302ec94dee80786a3405aab0904d7f9523685b3805b938",
    ("military", "sweep-n-gbn"):
        "0707e09eb7f7885e8328ecfeaa3c6a0a9e742b446dbed46d1d062972332eccdc",
    ("military", "sweep-auth"):
        "6e31cc48569a01e9ae1f247b7707f831f7b846577b3813ce2cb22cab41c1244c",
    ("military", "sweep-auth-simulate"):
        "3a6ca248fe4f5b0bedb38518e69f7622639e200c869c75de469dd66264b16ca9",
    ("military", "simulate"):
        "13f38a2b00c35c5c531374e3ebf3464eb289c11fd1100a8151a3389e9e5fa26d",
    ("military", "simulate-auth-policy"):
        "33c70ed52cd93660973d162922fba2acba2a54cfb349ac03458be2b662455b99",
    ("military", "outage-check"):
        "94c9e357f326504edf03e53aaf60d29c37e00a82484c44524667fda4f2fec830",
    ("commercial", "solve"):
        "1f7484204b2de03d9d4cba603d9c828bed2b82a97390f5a46e9a60d3ded916d6",
    ("commercial", "sweep-n-general"):
        "9d4bcb67116c23bd87947cb6a0b02ad8fe838d2ed563ae1b4ab2ea815a8b1207",
    ("commercial", "sweep-n-sr"):
        "f117888ae8d07b8de3302ec94dee80786a3405aab0904d7f9523685b3805b938",
    ("commercial", "sweep-n-gbn"):
        "0707e09eb7f7885e8328ecfeaa3c6a0a9e742b446dbed46d1d062972332eccdc",
    ("commercial", "sweep-auth"):
        "3e53b9466bcb9302ebd911b7f54c534a3fddcce6cc8359e558eb7e7aca7e6908",
    ("commercial", "sweep-auth-simulate"):
        "368db4f9a1bc0b331e32e3408b7674110b24a171d83d6737a26808290fd80361",
    ("commercial", "simulate"):
        "a2f557eae358710d670b1bfbc2fe183de85c1e31aaf950fb40752b91032ec6ed",
    ("commercial", "simulate-auth-policy"):
        "823cd8dc17a0b8d44969290e773daa76ad2ae8a8d1c85eaf0e3394a30c052565",
    ("commercial", "outage-check"):
        "94c9e357f326504edf03e53aaf60d29c37e00a82484c44524667fda4f2fec830",
}


@pytest.mark.parametrize("preset", ["military", "commercial"])
@pytest.mark.parametrize("command", list(COMMANDS))
def test_stdout_and_csv_digest_is_pinned(capsys, tmp_path, preset, command):
    """The stdout of a run without --out, then the --format csv file."""
    assert main([*COMMANDS[command], "--scenario", preset]) == 0
    stdout = capsys.readouterr().out
    out = tmp_path / "table.csv"
    assert main([*COMMANDS[command], "--scenario", preset, "--format", "csv",
                 "--out", str(out)]) == 0
    digest = hashlib.sha256(stdout.encode() + out.read_bytes()).hexdigest()
    assert digest == PINNED_TEXT[preset, command]
