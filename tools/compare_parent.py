"""Byte-identity of the command line against a parent revision.

    python3 tools/compare_parent.py PARENT_REV CHANGE_REV

Both revisions are exported with ``bench_pairs.export`` into
``.bench_work/compare/`` and each argv of ``ARGVS`` runs once per side in a
fresh ``python3 -m relaygame.cli`` process, with that checkout's ``src`` on
``PYTHONPATH`` and its own empty working directory under the same folder.
The working directory holds the scenario files the argvs name, and every
``--out`` is relative to it.  Exit code, stdout, stderr and the ``--out``
bytes are compared after the checkout and working-directory paths are
replaced by placeholders.  Every argv whose run differs is printed with the
parts that differ, and the exit code is 1 if any does.  Standard library only.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

from bench_pairs import ROOT, export

WORK = ROOT / ".bench_work" / "compare"

#: A commercial-like four-relay file whose links differ in every geometry field.
UNEQUAL = {
    "schema_version": 1,
    "name": "unequal-geometry",
    "game": {"detect_rate": 0.6, "false_alarm_rate": 0.2, "attack_cost": 0.1,
             "monitor_cost": 0.1, "false_alarm_loss": 0.3,
             "weight_info": 0.6, "weight_security": 0.4},
    "relays": [
        {"id": k + 1, "info_asset": info, "sec_asset": sec,
         "link": {"target_rate": rate, "snr_avg_db": 10.0, "pathloss_exp": alpha,
                  "dist_sr": d_sr, "dist_rd": d_rd, "snr_sd_db": 13.0,
                  "snr_sr_db": sr, "snr_rd_db": rd}}
        for k, (info, sec, rate, alpha, d_sr, d_rd, sr, rd) in enumerate([
            (1.0, 0.9, 1.0, 2.0, 1.0, 1.0, 22.0, 22.0),
            (0.8, 0.7, 0.9, 2.7, 0.6, 1.3, 19.0, 21.0),
            (0.55, 0.5, 1.2, 3.4, 1.4, 0.7, 17.5, 16.0),
            (0.3, 0.2, 0.8, 2.3, 0.9, 1.2, 15.0, 18.0),
        ])],
    "throughput": {"packet_bits": 1000, "hash_bits": 160, "n_messages": 4, "auth_prob": 0.8,
                   "presig_time": 0.1, "data_rate": 1e6, "reaction_time": 0.01},
    "security": {"max_compromised_fraction": 0.2},
    "sim": {"episodes": 100000, "packets_per_episode": 2, "seed": 5},
}

#: UNEQUAL with relay 3 given relay 2's assets, so that the tie is broken by
#: id, and the relays listed in id order 3, 1, 4, 2.
SHUFFLED = {**UNEQUAL, "name": "shuffled", "relays": [
    {**UNEQUAL["relays"][2], "info_asset": 0.8, "sec_asset": 0.7},
    UNEQUAL["relays"][0], UNEQUAL["relays"][3], UNEQUAL["relays"][1]]}

#: Files written into every working directory before its run.
FILES = {
    "unequal.json": json.dumps(UNEQUAL, indent=1).encode(),
    "shuffled.json": json.dumps(SHUFFLED, indent=1).encode(),
    "latin1.json": '{"name": "café"}'.encode("latin-1"),
    "broken.json": b'{"name": ',
    "file": b"a regular file\n",
    "listgame.json": json.dumps({**UNEQUAL, "game": [1]}).encode(),
    "listroot.json": b"[1, 2]",
    "nosim.json": json.dumps({k: v for k, v in UNEQUAL.items() if k != "sim"}).encode(),
    "nullnotes.json": json.dumps({**UNEQUAL, "annotations": None}).encode(),
    "intnote.json": json.dumps({**UNEQUAL, "annotations": ["kept", 1]}).encode(),
    "boolversion.json": json.dumps({**UNEQUAL, "schema_version": True}).encode(),
    "misspelled.json": json.dumps(
        {**UNEQUAL, "sim": {**UNEQUAL["sim"], "episods": 5}}).encode(),
    "extrakey.json": json.dumps({**UNEQUAL, "extra": 1}).encode(),
    "linkkey.json": json.dumps({**UNEQUAL, "relays": [
        *UNEQUAL["relays"][:2],
        {**UNEQUAL["relays"][2], "link": {**UNEQUAL["relays"][2]["link"], "snr_db": 10.0}},
        UNEQUAL["relays"][3]]}).encode(),
    "longint.json": f'{{"schema_version": 1{"0" * 5000}}}'.encode(),
    "deep.json": ('{"schema_version": 1, "name": ' + "[" * 100_000 + "]" * 100_000 + "}").encode(),
}

COMMANDS = [
    ["solve", "--diagnostics"],
    ["sweep-n", "--arq", "general"],
    ["sweep-n", "--arq", "sr"],
    ["sweep-n", "--arq", "gbn"],
    ["sweep-auth"],
    ["sweep-auth", "--simulate", "--seed", "3"],
    ["simulate"],
    ["simulate", "--auth-policy"],
    ["simulate", "--set", "sim.attacker_mode=uniform"],
    ["simulate", "--set", "sim.source_mode=best-utility"],
    ["simulate", "--set", "sim.refined_detection=true"],
    ["outage-check", "--trials", "20000", "--seed", "7"],
]

INVALID = [
    ["solve", "--scenario", "nosuch"],
    ["solve", "--scenario", "broken.json"],
    ["solve", "--scenario", "military", "--set", "game.detect_rate=2"],
    ["solve", "--scenario", "military", "--set", "game.monitor_cost=50"],
    ["solve", "--scenario", "military", "--set", "game.detect_rate=0"],
    ["solve", "--scenario", "military", "--set", "game.attack_cost=1"],
    ["solve", "--scenario", "military", "--set", "game.detect_rate=0.001"],
    ["solve", "--scenario", "military", "--set", "game.monitor_cost=5"],
    ["sweep-n", "--scenario", "military", "--n-max", "0"],
    ["sweep-n", "--scenario", "military", "--n-max", "-5"],
    ["outage-check", "--scenario", "military", "--seed", "-1"],
    ["solve", "--scenario", "."],
    ["solve", "--scenario", "latin1.json"],
    ["solve", "--scenario", "military", "--out", "."],
    ["solve", "--scenario", "military", "--out", "file/out.json"],
]

#: The presets listing and the --set/--seed edits of the scenario's dict form,
#: one of which leaves the sweep no feasible message count, and the simulate
#: bundles of a per-relay authentication mapping and of an explicit transfer
#: time with no window, which has no go-back-N row.
EDITS = [
    ["presets"],
    ["solve", "--scenario", "military", "--set", "game.detect_rate"],
    ["solve", "--scenario", "military", "--set", "bogus.key=1"],
    ["solve", "--scenario", "listgame.json", "--set", "game.detect_rate=0.5"],
    ["solve", "--scenario", "listroot.json"],
    ["simulate", "--scenario", "nosim.json", "--seed", "4"],
    ["simulate", "--scenario", "nosim.json", "--seed", "4", "--set", "sim.episodes=1000"],
    ["sweep-auth", "--scenario", "military", "--grid", "x"],
    ["sweep-auth", "--scenario", "military", "--set", "sim=null", "--simulate"],
    ["solve", "--scenario", "military", "--set", "game.detect_rat=1"],
    ["solve", "--scenario", "military", "--set", 'annotations=["set by an override"]'],
    ["simulate", "--scenario", "military", "--set", "sim.episodes=1000",
     *(f"--set=sim.auth_prob.{rid}=0.5" for rid in (1, 2, 3, 4))],
    ["sweep-n", "--scenario", "military", "--set", "throughput.hash_bits=1000",
     "--n-max", "8", "--out", "out.json"],
    ["simulate", "--scenario", "commercial", "--set", "sim.episodes=20000",
     *(f"--set=sim.auth_prob.{rid}={pa}" for rid, pa in ((1, 0.2), (2, 0.5), (3, 0.7), (4, 0.9))),
     "--out", "out.json"],
    ["simulate", "--scenario", "unequal.json", "--set", "throughput.data_rate=null",
     "--set", "throughput.reaction_time=null", "--set", "throughput.transfer_time=0.004",
     "--out", "out.json"],
]

#: The shuffled relay order through every part of the program that reads it.
REORDERED = [command + ["--scenario", "shuffled.json", "--out", "out.json"] for command in [
    ["solve", "--diagnostics"],
    ["sweep-n", "--arq", "gbn"],
    ["sweep-auth", "--simulate", "--seed", "3"],
    ["simulate", "--auth-policy"],
    ["outage-check", "--trials", "20000", "--seed", "7"],
]]

#: The scenario's top-level fields: a null annotations list reads as absent,
#: a non-string annotation and a boolean schema version are refused.
LOADER = [
    ["solve", "--scenario", "nullnotes.json", "--out", "out.json"],
    ["simulate", "--scenario", "nullnotes.json", "--out", "out.json"],
    ["solve", "--scenario", "intnote.json"],
    ["solve", "--scenario", "boolversion.json"],
]

#: Keys the field table does not know, integers past what the throughput
#: arithmetic survives or past the interpreter's digit limit, JSON nested past
#: the interpreter's recursion limit, and counts past their bounds: each
#: refused with its field path.
REFUSED = [
    ["simulate", "--scenario", "misspelled.json"],
    ["solve", "--scenario", "extrakey.json"],
    ["solve", "--scenario", "linkkey.json"],
    ["solve", "--scenario", "military", "--set", f"throughput.packet_bits={10 ** 321}"],
    ["sweep-n", "--scenario", "military", "--set", f"throughput.hash_bits={10 ** 321}"],
    ["sweep-auth", "--scenario", "military", "--set", f"throughput.n_messages={10 ** 321}"],
    ["sweep-n", "--scenario", "military", "--arq", "gbn",
     "--set", f"throughput.window={10 ** 321}"],
    ["sweep-n", "--scenario", "military", "--arq", "gbn",
     "--set", "throughput.data_rate=1e308", "--set", "throughput.reaction_time=1e10"],
    ["solve", "--scenario", "military", "--set", f"throughput.packet_bits=1{'0' * 5000}"],
    ["solve", "--scenario", "longint.json"],
    ["solve", "--scenario", "deep.json"],
    ["solve", "--scenario", "military", "--set", "name=" + "[" * 50_000],
    ["sweep-n", "--scenario", "military", "--n-max", "100001"],
    ["sweep-n", "--scenario", "military", "--n-max", str(10 ** 12)],
    ["sweep-n", "--scenario", "military", "--n-max", str(10 ** 19)],
    ["outage-check", "--scenario", "military", "--trials", str(10 ** 20)],
]

#: Every command on every kind of scenario, in both output formats.
GRID = [command + ["--scenario", scenario, "--format", fmt, "--out", f"out.{fmt}"]
        for scenario in ("military", "commercial", "unequal.json")
        for command in COMMANDS
        for fmt in ("json", "csv")]

ARGVS = GRID + INVALID + EDITS + REORDERED + LOADER + REFUSED


def run(checkout: Path, cwd: Path, argv: list[str]) -> dict:
    """One fresh process of ``argv`` in the empty directory ``cwd``, paths normalized."""
    shutil.rmtree(cwd, ignore_errors=True)
    cwd.mkdir(parents=True)
    for name, data in FILES.items():
        (cwd / name).write_bytes(data)
    env = {k: v for k, v in os.environ.items() if k != "RELAYGAME_OUT_DIR"}
    env.update(PYTHONPATH=str(checkout / "src"), PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run([sys.executable, "-m", "relaygame.cli", *argv],
                          cwd=cwd, env=env, capture_output=True)
    out = cwd / argv[argv.index("--out") + 1] if "--out" in argv else None

    def normalized(data: bytes) -> bytes:
        return (data.replace(str(checkout).encode(), b"<checkout>")
                .replace(str(cwd).encode(), b"<cwd>"))

    return {
        "code": proc.returncode,
        "stdout": normalized(proc.stdout),
        "stderr": normalized(proc.stderr),
        "out": normalized(out.read_bytes()) if out is not None and out.is_file() else None,
    }


def differences(parent: list[dict], change: list[dict]) -> list[tuple[int, list[str]]]:
    """(index, the fields that differ) for every pair of records that is not equal."""
    return [(i, [key for key in p if p[key] != c[key]])
            for i, (p, c) in enumerate(zip(parent, change, strict=True)) if p != c]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", help="parent revision")
    ap.add_argument("change", help="change revision")
    args = ap.parse_args()

    records = {}
    for side, rev in (("parent", args.parent), ("change", args.change)):
        checkout = WORK / side
        export(rev, checkout)
        records[side] = [run(checkout, WORK / "run" / side, argv) for argv in ARGVS]
    found = differences(records["parent"], records["change"])
    for i, fields in found:
        print(f"differs in {', '.join(fields)}: relaygame {' '.join(ARGVS[i])}")
        for side in ("parent", "change"):
            rec = records[side][i]
            print(f"  {side}: exit {rec['code']}, stderr {rec['stderr'].decode(errors='replace')!r}")
    print(f"{len(found)} of {len(ARGVS)} argvs differ")
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
