import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bke.textio import CsvError, fmt_float, read_float_matrix, write_float_matrix


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
