"""Tests of the helpers of ``scripts/write_bench.py``, which back every
BENCH entry's size, bit-identity and setup figures."""

import importlib.util
import os
import re

from casimir1d import _core

_PATH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "scripts", "write_bench.py")
_SPEC = importlib.util.spec_from_file_location("write_bench", _PATH)
wb = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(wb)

# code lines: the three of the assigned string, the two of the def and the
# two of the call across lines; the docstrings and the comments hold none
_SOURCE = '''"""Module docstring,
on two lines."""
# a comment line

SCRIPT = """
print(1)
"""


def f(a,
      b):
    """Docstring."""
    # another comment
    return max(a,  # a trailing comment
               b)
'''


def test_code_lines_skip_docstrings_and_comments():
    assert wb.code_lines(_SOURCE) == 7
    assert wb.code_lines('"""Only a docstring."""\n# and a comment\n') == 0


def test_size_change_counts_a_module_on_one_side_as_zero_there():
    parent = {"a.py": {"physical": 20, "code": 10},
              "gone.py": {"physical": 9, "code": 4},
              "total": {"physical": 29, "code": 14}}
    change = {"a.py": {"physical": 18, "code": 8},
              "new.py": {"physical": 5, "code": 3},
              "total": {"physical": 23, "code": 11}}
    assert wb.size_change(parent, change) == {
        "a.py": -2, "gone.py": -4, "new.py": 3, "total": -3}


def test_identical_marks_every_name_of_either_side():
    assert wb.identical({"x": "1.0", "y": "(2, 3)"},
                        {"x": "1.0", "y": "(2, 4)", "z": "5"}) == {
        "x": True, "y": False, "z": False}
    assert wb.identical({}, {}) == {}


def test_runs_write_no_bytecode_and_take_no_cache_prefix(monkeypatch):
    monkeypatch.delenv("PYTHONPYCACHEPREFIX", raising=False)
    monkeypatch.delenv("PYTHONDONTWRITEBYTECODE", raising=False)
    env = wb._env(PYTHONPATH="src")
    assert env["PYTHONDONTWRITEBYTECODE"] == "1"
    assert "PYTHONPYCACHEPREFIX" not in env
    assert env["PYTHONPATH"] == "src"


def test_drop_bytecode_removes_every_pycache(tmp_path):
    caches = [tmp_path / "__pycache__", tmp_path / "pkg" / "__pycache__",
              tmp_path / "pkg" / "sub" / "__pycache__"]
    for cache in caches:
        cache.mkdir(parents=True)
        (cache / "m.cpython-311.pyc").write_bytes(b"\0")
    (tmp_path / "pkg" / "m.py").write_text("X = 1\n")
    wb.drop_bytecode(str(tmp_path))
    assert not list(tmp_path.rglob("__pycache__"))
    assert (tmp_path / "pkg" / "m.py").read_text() == "X = 1\n"
    assert (tmp_path / "pkg" / "sub").is_dir()


def test_points_runs_on_this_checkout():
    # one cold run of the points script, which wraps forces' stage
    # functions and memos by name: a rename there fails here, not in the
    # next benchmark entry
    got = wb.points(wb.ROOT, runs=1)
    assert set(got) == set(wb.WORKLOADS) | {"docs_ladder", "timing"}
    for name in wb.WORKLOADS:
        assert got[name]["points"] > 0 and got[name]["K"] > 0.0
        assert sum(got[name]["stages"].values()) == got[name]["points"]
        assert got[name]["excess_calls"]["X"] > 0
    assert got["docs_ladder"]["calls"] > 0
    assert got["docs_ladder"]["points"] > 0
    assert all(t["total_s"] > 0.0 for t in got["timing"].values())
    # the ladder's stages split its seconds without counting any twice, and
    # its charged pole forms are some of its means
    ladder = got["timing"]["docs_ladder"]
    stages = [ladder[f] for f in ("switch_s", "strips_s", "band_grids_s",
                                  "band_ends_s", "past_K_edges_s")]
    assert all(t > 0.0 for t in stages)
    assert sum(stages) <= ladder["total_s"]
    assert 0 < ladder["charged_pole_forms"] < ladder["means"]
    assert "means" not in got["timing"]["fig_300k"]


def test_points_wraps_only_kernels_that_core_has():
    # counting() and one_triple() look their kernel up by name on the
    # checkout's core, so a name core lacks would count nothing or fail
    names = re.findall(r'\b(?:counting|one_triple)\("(\w+)"', wb._POINTS)
    assert {"vacuum_baths", "ic_brackets", "vacuum_bath_of"} <= set(names)
    missing = [n for n in names if not hasattr(_core, n)]
    assert missing == []
