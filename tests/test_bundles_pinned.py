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
        "728f31f7a6e7b1077fde38876529da19c322c3004da8444e2802a919a8a99b86",
    ("military", "simulate-auth-policy"):
        "7df376e396f312d419ee845a044ad712fdd2b894e8512013073f30e9fad02bd7",
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
        "8f7bfcf3b6c188f65aaa448ccd6201c5cb7aa57fb61950d7bdeb4f99a5c8ed2f",
    ("commercial", "simulate-auth-policy"):
        "acec15fe01b1194dfc53549e0d144d61efce82051508d398cb891f38ee97e1aa",
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
        "15007c44631331a8f99f5268efb7664821abed0dc6416931208b604248b6ac6a",
    ("military", "simulate-auth-policy"):
        "34939b1664fe477dd0f313c898a4e5bb44a21544d99eb6ccbd56d14c99eb5adf",
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
        "eee63a2b29c7862654cfabb56abe4f5d8ac83ac00565b455171ca397b5190371",
    ("commercial", "simulate-auth-policy"):
        "de6b54ec2de5f9768eb069376105dc910966ed186dc8377c11e45d76d0861e0e",
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
