import math
import sys

import numpy as np

from evopoisson import ControlMode, StepFamily, StepSchedule
from evopoisson.cli import _trace_rows
from evopoisson.control import run_two_timescale
from evopoisson.output import format_value, write_csv

EDGE_FLOATS = [0.0, -0.0, 5e-324, sys.float_info.min, -sys.float_info.min,
               math.inf, -math.inf, math.nan, -math.nan, 2.0 ** 60,
               1.0 / 3.0, 1e-300, 123456789012.5,
               -7.25, 1.0]


def _expected(header, rows):
    return [",".join(format_value(v) for v in row) + "\n"
            for row in [header] + list(rows)]


def _written(tmp_path, header, rows):
    """The file's lines, each with its newline, so a mismatch reports the
    first differing line instead of diffing the whole text."""
    path = tmp_path / "out.csv"
    write_csv(str(path), header, rows)
    return path.read_bytes().decode().splitlines(keepends=True)


def test_edge_floats_match_format_value(tmp_path):
    rows = list(enumerate(EDGE_FLOATS))
    rows += [(len(rows), np.float64(v)) for v in EDGE_FLOATS]
    lines = _written(tmp_path, ["i", "x"], rows)
    assert lines == _expected(["i", "x"], rows)
    assert not any("-nan" in ln for ln in lines)


def test_mixed_row_matches_format_value(tmp_path):
    header = ["p_star", "kind", "iterations", "flag", "big", "n64"]
    rows = [(0.2285076903941, "interior_mixed", 34, True, 10 ** 13,
             np.int64(7)),
            (1.0, "pure_off_dominant", 0, False, -10 ** 13, np.int64(-1))]
    assert _written(tmp_path, header, rows) == _expected(header, rows)


def test_long_path_matches_format_value(tmp_path):
    # more rows than one 4096-row chunk, with a short last chunk
    rng = np.random.default_rng(8)
    ts = np.arange(10_000.0)
    ps = rng.random(10_000) * 10.0 ** rng.integers(-12, 12, 10_000)
    rows = list(zip(ts.tolist(), ps.tolist()))
    assert (_written(tmp_path, ["t_or_n", "p"], iter(rows))
            == _expected(["t_or_n", "p"], rows))


def test_empty_rows_give_header_only(tmp_path):
    assert _written(tmp_path, ["a", "b"], []) == ["a,b\n"]


def test_trace_rows_are_floats(learning_engine):
    state = run_two_timescale(learning_engine,
                              StepSchedule(StepFamily.INV_N_LOG_N),
                              c0=1.5, n_outer=5, mode=ControlMode.NESTED,
                              seed=0)
    rows = _trace_rows(state)
    assert len(rows) == 5
    assert all(len(r) == 5 for r in rows)
    assert all(type(v) is float for r in rows for v in r)
    assert [r[0] for r in rows] == [1.0, 2.0, 3.0, 4.0, 5.0]
