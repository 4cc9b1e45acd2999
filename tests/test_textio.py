import ast
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bke
from bke.textio import (
    CsvError,
    fmt_float,
    read_float_matrix,
    write_artifact,
    write_csv,
    write_float_matrix,
    write_json,
)


@settings(max_examples=200)
@given(st.floats(allow_nan=False, allow_infinity=False))
def test_fmt_float_round_trips_doubles_exactly(x):
    assert float(fmt_float(x)) == x


def test_matrix_round_trip(tmp_path):
    matrix = np.random.default_rng(0).normal(size=(5, 3)) * 1e-7
    path = tmp_path / "m.csv"
    write_float_matrix(matrix, path)
    np.testing.assert_array_equal(read_float_matrix(path), matrix)


def test_write_byte_stable(tmp_path):
    matrix = np.random.default_rng(1).normal(size=(4, 4))
    write_float_matrix(matrix, tmp_path / "a.csv")
    write_float_matrix(matrix, tmp_path / "b.csv")
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


def test_blank_lines_skipped(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("1,2\n\n3,4\n")
    np.testing.assert_array_equal(read_float_matrix(path), [[1.0, 2.0], [3.0, 4.0]])


def test_error_names_one_based_line(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("1,2\n3,oops\n")
    with pytest.raises(CsvError, match="line 2"):
        read_float_matrix(path)


def test_ragged_rows_rejected(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("1,2\n3,4,5\n")
    with pytest.raises(CsvError, match="line 2: expected 2 columns, got 3"):
        read_float_matrix(path)


def test_empty_file_rejected(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("\n\n")
    with pytest.raises(CsvError, match="no data rows"):
        read_float_matrix(path)


def test_non_2d_write_rejected(tmp_path):
    with pytest.raises(ValueError, match="2-D"):
        write_float_matrix(np.zeros(3), tmp_path / "x.csv")


@pytest.mark.parametrize("cell", ["nan", "inf", "-inf", "1e999"])
def test_non_finite_cell_names_one_based_line(tmp_path, cell):
    path = tmp_path / "m.csv"
    path.write_text(f"1,2\n\n3,{cell}\n")
    with pytest.raises(CsvError, match="line 3: non-finite"):
        read_float_matrix(path)


# --- the artifact writer --------------------------------------------------------------


def test_csv_and_json_conventions(tmp_path):
    write_csv(tmp_path / "a.csv", ("n", "x", "s"), [(3, 0.1, "omega"), (4, 2.0, "tau")])
    assert (tmp_path / "a.csv").read_text() == "n,x,s\n3,0.10000000000000001,omega\n4,2,tau\n"
    write_csv(tmp_path / "b.csv", (), [(1.5,)])
    assert (tmp_path / "b.csv").read_text() == "1.5\n"
    write_json(tmp_path / "c.json", {"b": 1, "a": [0.5]})
    assert (tmp_path / "c.json").read_text() == '{\n  "a": [\n    0.5\n  ],\n  "b": 1\n}\n'


def test_first_write_creates_missing_directories(tmp_path):
    path = tmp_path / "new" / "deeper" / "a.bin"
    write_artifact(path, b"\x00\x01")
    assert path.read_bytes() == b"\x00\x01"
    assert [p.name for p in path.parent.iterdir()] == ["a.bin"]


def test_failed_replace_leaves_earlier_artifact_intact(tmp_path, monkeypatch):
    path = tmp_path / "a.json"
    write_json(path, {"v": 1})
    before = path.read_bytes()

    def fail(src, dst):
        raise OSError("no space left on device")

    monkeypatch.setattr("bke.textio.os.replace", fail)
    with pytest.raises(OSError, match="no space left"):
        write_json(path, {"v": 2})
    with pytest.raises(OSError, match="no space left"):
        write_artifact(tmp_path / "b.bin", b"new")
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["a.json"]


def test_failed_write_leaves_no_partial_file(tmp_path):
    path = tmp_path / "a.txt"
    write_artifact(path, "old")
    with pytest.raises(TypeError):
        write_artifact(path, 12)  # neither str nor bytes: fails inside the write
    assert path.read_text() == "old"
    assert [p.name for p in tmp_path.iterdir()] == ["a.txt"]


WRITE_CALLS = {"write_text", "write_bytes", "mkdir", "makedirs"}


def _writes(source: str) -> list[tuple[str, int]]:
    """(enclosing function, line) of each call that writes a file or makes a
    directory: open() with a mode that is not a read-only literal, or one of
    WRITE_CALLS."""
    found = []

    def writes(call: ast.Call) -> bool:
        func = call.func
        name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", "")
        if name in WRITE_CALLS:
            return True
        if name != "open":
            return False
        # builtin open(path, mode) takes the path first; path.open(mode) does not
        first = 1 if isinstance(func, ast.Name) else 0
        modes = call.args[first:]
        modes += [kw.value for kw in call.keywords if kw.arg == "mode"]
        return any(not (isinstance(m, ast.Constant) and isinstance(m.value, str))
                   or set(m.value) & set("wax+") for m in modes)

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call) and writes(child):
                found.append((scope, child.lineno))
            is_def = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
            visit(child, child.name if is_def else scope)

    visit(ast.parse(source), "<module>")
    return found


def test_write_detector_sees_each_kind_of_write():
    source = """
def f(p, mode):
    open(p, "w"); open(p, mode="a"); open(p, mode); p.open("wb"); p.open("r+")
    p.write_text("x"); p.write_bytes(b""); p.parent.mkdir(); os.makedirs(p)
    open(p); open(p, "rb"); p.open(); open(p, encoding="utf-8")
"""
    assert _writes(source) == [("f", 3)] * 5 + [("f", 4)] * 4


def test_textio_write_artifact_is_the_only_writer():
    """Every file bke writes goes through write_artifact, so each one is
    replaced whole; a new artifact must be added through it too."""
    src = Path(bke.__file__).parent
    writers = {(path.name, scope) for path in sorted(src.glob("*.py"))
               for scope, _ in _writes(path.read_text(encoding="utf-8"))}
    assert writers == {("textio.py", "write_artifact")}


def test_numpy_is_the_only_runtime_dependency():
    """bke imports nothing but the standard library, numpy and itself."""
    src = Path(bke.__file__).parent
    tops = set()
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                tops |= {alias.name.split(".")[0] for alias in node.names}
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                tops.add(node.module.split(".")[0])
    assert "numpy" in tops
    assert tops - set(sys.stdlib_module_names) <= {"numpy", "bke"}


def _is_row_sum(node) -> bool:
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr == "sum"
            and any(kw.arg == "axis" and isinstance(kw.value, ast.Constant) and kw.value.value == 1
                    for kw in node.keywords))


def test_row_norms_live_in_tensor():
    """Only tensor.py takes np.sqrt of a .sum(axis=1), so the scale-free
    row rule of l2_normalize_rows has one copy, which both phases use."""
    src = Path(bke.__file__).parent
    found = set()
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "sqrt" and isinstance(node.func.value, ast.Name)
                    and node.func.value.id == "np"
                    and any(_is_row_sum(sub) for arg in node.args for sub in ast.walk(arg))):
                found.add(path.name)
    assert found == {"tensor.py"}


def test_process_control_lives_in_procs():
    """Forking, reaping, killing and pinning processes, the rule that says
    when a fork pays, and the pipes and shared memory between them, are
    procs.py's job, so every exit path of a forked child is handled in one
    place and no other module knows when to fork."""
    calls = {"fork", "_exit", "waitpid", "kill", "sched_setaffinity", "sched_getaffinity",
             "pipe"}
    public = {"forked", "Peer", "shared_arrays", "one_blas_thread"}  # for the other modules
    src = Path(bke.__file__).parent
    found = set()
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, ast.Attribute) and node.attr in calls
                    and isinstance(node.value, ast.Name) and node.value.id == "os"):
                found.add((path.name, node.attr))
            elif isinstance(node, ast.ImportFrom) and node.module == "os":
                found |= {(path.name, alias.name) for alias in node.names if alias.name in calls}
            if path.name != "procs.py" and (
                    isinstance(node, ast.Attribute) and node.attr not in public
                    and isinstance(node.value, ast.Name) and node.value.id == "procs"):
                found.add((path.name, "procs." + node.attr))
            elif isinstance(node, ast.ImportFrom) and (node.module or "").endswith("procs"):
                found |= {(path.name, "procs." + alias.name) for alias in node.names
                          if alias.name not in public}
            if isinstance(node, ast.Import | ast.ImportFrom) and "mmap" in (
                    getattr(node, "module", None), *(alias.name for alias in node.names)):
                found.add((path.name, "import mmap"))
    assert found == {("procs.py", name) for name in calls | {"import mmap"}}
