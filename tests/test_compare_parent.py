"""``tools/compare_parent.py``'s comparison and argv list, on synthetic records.

No command runs here: the records are made up, so each difference is known.
"""

import importlib.util
from pathlib import Path

import pytest

TOOLS = Path(__file__).resolve().parents[1] / "tools"


@pytest.fixture(scope="module")
def tool():
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(str(TOOLS))       # the tool imports bench_pairs beside it
        spec = importlib.util.spec_from_file_location("compare_parent", TOOLS / "compare_parent.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    return module


def record(code=0, stdout=b"table\n", stderr=b"", out=b"{}"):
    return {"code": code, "stdout": stdout, "stderr": stderr, "out": out}


def test_equal_records_show_no_difference(tool):
    assert tool.differences([record(), record(out=None)], [record(), record(out=None)]) == []


def test_each_differing_field_is_named(tool):
    parent = [record(), record(), record(code=4, stderr=b"unexpected error\n", out=None)]
    change = [record(), record(out=b"{ }"), record(code=2, stderr=b"error: x\n", out=None)]
    assert tool.differences(parent, change) == [(1, ["out"]), (2, ["code", "stderr"])]


def test_record_lists_of_unequal_length_are_an_error(tool):
    with pytest.raises(ValueError):
        tool.differences([record()], [record(), record()])


def test_argvs_cover_every_command_in_both_formats(tool):
    valid = tool.GRID
    assert tool.ARGVS[:len(valid)] == valid
    for scenario in ("military", "commercial", "unequal.json"):
        for command in tool.COMMANDS:
            for fmt in ("json", "csv"):
                assert command + ["--scenario", scenario, "--format", fmt,
                                  "--out", f"out.{fmt}"] in valid
    assert len(valid) == 3 * len(tool.COMMANDS) * 2
    assert {argv[0] for argv in valid} == {"solve", "sweep-n", "sweep-auth", "simulate",
                                           "outage-check"}
    for argv in tool.ARGVS:
        assert "--out" not in argv or not Path(argv[argv.index("--out") + 1]).is_absolute()
        assert "--scenario" in argv or argv == ["presets"]
        if "--scenario" in argv:
            scenario = argv[argv.index("--scenario") + 1]
            assert scenario in {"military", "commercial", "nosuch", "."} | set(tool.FILES)
