"""Every input either runs or exits 2 or 3: mutated presets through every command.

Each example takes a preset's dict form, sets one or two of its leaves to an
extreme value or a wrong type, drops a key or adds an unknown one, and runs
one command in process on it, either from a written file (so the file is read
by ``json.loads``) or as ``--set`` edits of the preset.  A run must exit 0, 2
or 3; a failure prints exactly one ``error:`` line and no traceback, and a
success writes its bundle as strict JSON.
"""

import contextlib
import dataclasses
import io
import json
import math
import tempfile
from pathlib import Path

from hypothesis import given, seed, settings
from hypothesis import strategies as st

from relaygame.cli import main
from relaygame.scenario import PRESET_NAMES, SECTIONS, load_scenario_dict

#: Every command, with small trial counts; the episodes come from the scenario.
COMMANDS = [
    ["solve", "--diagnostics"],
    ["sweep-n", "--n-max", "8", "--arq", "gbn"],
    ["sweep-auth", "--grid", "0,0.5,1"],
    ["sweep-auth", "--grid", "0,1", "--simulate", "--seed", "1"],
    ["simulate"],
    ["simulate", "--auth-policy"],
    ["outage-check", "--trials", "1000", "--seed", "1"],
]

#: The episodes every example starts from.
EPISODES = 500

#: What a leaf is set to: range ends, float extremes and integers past 2^53
#: and float range, or else a value of another type.
NUMBERS = [-1, 0, 1, 2 ** 53 + 1, 2 ** 63, 10 ** 400,
           -0.0, 0.5, 5e-324, 1e308, -1e308, math.nan, math.inf, -math.inf]
OTHERS = [True, None, "x", [], [1], {}, {"1": 0.5}]

#: sim.episodes takes no valid count above the start: the outage stage draws
#: for a share of the episodes, so a valid 2^53 would run for hours.
EPISODE_NUMBERS = [v for v in NUMBERS if not (type(v) is int and EPISODES < v < 2 ** 63)]


def paths(node, prefix=()):
    """The path of every value under ``node``, containers included."""
    items = (node.items() if isinstance(node, dict)
             else enumerate(node) if isinstance(node, list) else ())
    for key, value in items:
        yield prefix + (key,)
        yield from paths(value, prefix + (key,))


def base(preset: str) -> dict:
    data = load_scenario_dict(preset)
    data["sim"]["episodes"] = EPISODES
    return data


@st.composite
def mutations(draw, data: dict, dotted: bool):
    """(kind, path, value): set a value (also a section field the preset
    leaves out), drop a key or add one named ``bogus``.  A dotted path (for
    ``--set``) walks objects only."""
    existing = [p for p in paths(data) if not dotted or all(isinstance(k, str) for k in p)]
    kind = draw(st.sampled_from(["set", "set", "set", "drop", "add"]))
    if kind == "add":
        objects = [()] + [p for p in existing if isinstance(_at(data, p), dict)]
        return kind, draw(st.sampled_from(objects)), 1
    absent = [(key, f.name) for key, cls in SECTIONS.items()
              for f in dataclasses.fields(cls) if f.name not in data[key]]
    path = draw(st.sampled_from(existing + absent))
    if kind == "drop":
        return kind, path, None
    numbers = EPISODE_NUMBERS if path == ("sim", "episodes") else NUMBERS
    return kind, path, draw(st.sampled_from(numbers + OTHERS))


def _at(data, path):
    for key in path:
        data = data[key]
    return data


def applied(data: dict, kind: str, path: tuple, value) -> None:
    """Apply one mutation to ``data``; one whose path an earlier mutation
    removed is skipped."""
    try:
        parent = _at(data, path[:-1]) if path else data
        if kind == "add":
            _at(data, path)["bogus"] = value
        elif kind == "drop":
            del parent[path[-1]]
        else:
            parent[path[-1]] = value
    except (KeyError, IndexError, TypeError):
        pass


def as_set(kind: str, path: tuple, value) -> str:
    dotted = ".".join(path + (("bogus",) if kind == "add" else ()))
    return f"{dotted}={json.dumps(value)}"       # a dropped key is set to null


def run(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def strict(constant):
    raise AssertionError(f"{constant} in a bundle")


@seed(27)
@settings(max_examples=600, deadline=None, database=None)
@given(st.data())
def test_mutated_inputs_run_or_exit_with_one_error_line(data):
    preset = data.draw(st.sampled_from(PRESET_NAMES))
    command = data.draw(st.sampled_from(COMMANDS))
    from_file = data.draw(st.booleans())
    scenario = base(preset)
    edits = data.draw(st.lists(mutations(scenario, dotted=not from_file), min_size=1, max_size=2))
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "bundle.json"
        if from_file:
            for edit in edits:
                applied(scenario, *edit)
            source = Path(tmp) / "scenario.json"
            source.write_text(json.dumps(scenario))
            argv = [*command, "--scenario", str(source)]
        else:
            sets = [f"sim.episodes={EPISODES}", *(as_set(*edit) for edit in edits)]
            argv = [*command, "--scenario", preset, *(f"--set={s}" for s in sets)]
        code, stdout, err = run([*argv, "--out", str(out)])
        assert code in (0, 2, 3), (argv, err)
        if code:
            assert [line.startswith("error: ") for line in err.splitlines()].count(True) == 1, err
            assert "Traceback" not in err and "unexpected error" not in err, err
            assert not out.exists()
        else:
            assert err == "" and stdout.endswith(f"wrote {out}\n")
            json.loads(out.read_text(), parse_constant=strict)
