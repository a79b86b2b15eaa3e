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
        "8158505087625b91056f3283afb743ae37866fdbbb5439b6fe7a67723f4cc284",
    ("military", "sweep-n-general"):
        "2737eddafc663a89af2cc8a21be28afae3d11279901f32eb7ab0f77dc16e000d",
    ("military", "sweep-n-sr"):
        "e682126668c9fe67756ed2a13e93865da956b692612574232f8f166e1fe70369",
    ("military", "sweep-n-gbn"):
        "0dfff410152859b59f72ef3c6d8a8c337ca67836a103fffd01036d74fddc4816",
    ("military", "sweep-auth"):
        "400353c9d2c5a1277faa059adb41348ae360e5acce310cefc08321d879ff58be",
    ("military", "sweep-auth-simulate"):
        "f8543a9956ddaf52cbd5aaf2684bb6f4a6496d66bfa4f3848bb49f0302d892a0",
    ("military", "simulate"):
        "2b4ba28ca9db338fcbd34cc8b9802eabb5bb70a3e1cee3c3cd2aeba92d8e8771",
    ("military", "simulate-auth-policy"):
        "8df665a9de201d40bd7864b00a36abea4310a0675b9739ed4bc093a44aecfbee",
    ("military", "outage-check"):
        "d8527a6757e4b8574da90cab8bd9e87e762014241051d09677f1eead5cf28210",
    ("commercial", "solve"):
        "1f7ff17bc4755954074a0104c3e7a3a32bb8eb106bc045eb878e0222a560b800",
    ("commercial", "sweep-n-general"):
        "6a228d648c956d0d37836cf51729df1520894f786a11c53d94884086ead9f9a5",
    ("commercial", "sweep-n-sr"):
        "fd729e18c17e698047af84eebbba9d101166ae1f16a13602bdff01b63823dfbc",
    ("commercial", "sweep-n-gbn"):
        "852fc59685d06786b7db89dcf8a763f1088383da7eb2459578ce0c2498d7ce76",
    ("commercial", "sweep-auth"):
        "3766965675190383fde323e36681e685f30e3370691046a3e9995fc171cf8a3c",
    ("commercial", "sweep-auth-simulate"):
        "64712c09f9caab441cbf6f196a3cfd6fe2fa6b548c9276d3a7b997da939b12af",
    ("commercial", "simulate"):
        "15698b18e75f3a6297df43c864d7f439f5988b74e4f7e5b0a7c4182ae3fa2352",
    ("commercial", "simulate-auth-policy"):
        "1ac8111283fa4bd9c26da4d6562e2cab0ccce250915dffe3037d8e7882b574f7",
    ("commercial", "outage-check"):
        "69b2127086f37b85740533344bdb34fa1803b6a39f3b7a9e5220ce9f4cccd00b",
}


@pytest.mark.parametrize("preset", ["military", "commercial"])
@pytest.mark.parametrize("command", list(COMMANDS))
def test_bundle_digest_is_pinned(tmp_path, preset, command):
    out = tmp_path / "bundle.json"
    assert main([*COMMANDS[command], "--scenario", preset, "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == PINNED[preset, command]
