import argparse
import contextlib
import csv
import io
import json
import math
import pathlib
import re
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from spinchain import _g15, classical, cli, verify
from spinchain.cli import main
from spinchain.params import PhysicalParams


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    return list(csv.DictReader(io.StringIO(text)))


# --- spectrum / roots -------------------------------------------------------


def test_spectrum_table(capsys):
    code, out, _ = run_cli(capsys, "spectrum", "--max-n", "2", "--A", "2", "--hbar", "1")
    assert code == 0
    rows = parse_csv(out)
    assert [r["n"] for r in rows] == ["0", "1", "1", "2", "2", "2"]
    ground = rows[0]
    assert float(ground["energy"]) == pytest.approx(-0.5, abs=1e-12)
    assert float(ground["lambda"]) == -2.0
    assert ground["roots"] == ""
    assert float(rows[1]["energy"]) == pytest.approx(2.5 - 2 * math.sqrt(3), abs=1e-10)


def test_spectrum_json_schema(capsys):
    code, out, _ = run_cli(capsys, "spectrum", "--max-n", "1", "--A", "2",
                           "--format", "json")
    assert code == 0
    rows = json.loads(out)
    assert len(rows) == 3
    for row in rows:
        assert list(row.keys()) == [
            "n", "lambda", "l", "branch", "roots", "energy", "bethe_residual",
        ]
    # roots serialize as [re, im] pairs
    assert rows[1]["roots"][0][1] == 0.0
    assert rows[1]["roots"][0][0] == pytest.approx((2 - math.sqrt(3)) / 2, abs=1e-10)


def test_roots_command_lists_both_branches(capsys):
    code, out, _ = run_cli(capsys, "roots", "--n", "1", "--A", "2")
    assert code == 0
    rows = parse_csv(out)
    assert len(rows) == 2
    assert {r["branch"] for r in rows} == {"0", "1"}
    assert all(float(r["bethe_residual"]) < 1e-10 for r in rows)


def test_spectrum_requires_positive_anisotropy(capsys):
    code, _, err = run_cli(capsys, "spectrum", "--max-n", "1")
    assert code == 2
    assert "domain error" in err


# --- mathieu family ----------------------------------------------------------


def test_inplane_ladder(capsys):
    code, out, _ = run_cli(capsys, "inplane", "--B", "0", "--orders", "0..5")
    assert code == 0
    rows = parse_csv(out)
    assert [float(r["energy"]) for r in rows] == [0.0, 0.5, 2.0, 4.5, 8.0, 12.5]


def test_offplane_orders_parsing(capsys):
    code, out, _ = run_cli(capsys, "offplane", "--A", "2", "--orders", "0,1.5,2")
    assert code == 0
    rows = parse_csv(out)
    assert [r["nu"] for r in rows] == ["0", "1.5", "2"]


def test_mathieu_value(capsys):
    code, out, _ = run_cli(capsys, "mathieu", "--nu", "1", "--q", "1")
    assert code == 0
    row = parse_csv(out)[0]
    assert float(row["a_nu"]) == pytest.approx(1.8591080725143634, abs=1e-10)


def test_mathieu_samples(capsys):
    code, out, _ = run_cli(capsys, "mathieu", "--nu", "1", "--q", "0", "--samples", "4")
    assert code == 0
    rows = parse_csv(out)
    assert [r["x"] for r in rows][0] == "0"
    assert float(rows[1]["ce"]) == pytest.approx(math.cos(math.pi / 2), abs=1e-12)
    assert float(rows[1]["se"]) == pytest.approx(1.0, abs=1e-12)


def test_order_ranges_expand_to_the_float_of_each_integer():
    big = 2**53
    assert cli._parse_orders("-2..1, 0.5") == [-2.0, -1.0, 0.0, 1.0, 0.5]
    assert cli._parse_orders(f"{big}..{big + 3}") == [float(v) for v in range(big, big + 4)]
    assert cli._parse_orders(f"{10**30}..{10**30 + 1}") == [1e30, 1e30]


def test_bad_orders_is_domain_error(capsys):
    code, _, err = run_cli(capsys, "inplane", "--orders", "five")
    assert code == 2


# --- project -----------------------------------------------------------------


def test_project_sphere_to_plane(capsys):
    code, out, _ = run_cli(capsys, "project", "--s1", "1", "--s2", "0", "--s3", "0")
    assert code == 0
    row = parse_csv(out)[0]
    assert (row["P"], row["Q"], row["at_infinity"]) == ("1", "0", "false")


def test_project_pole_flags_infinity(capsys):
    code, out, _ = run_cli(capsys, "project", "--s1", "0", "--s2", "0", "--s3", "-1")
    assert code == 0
    row = parse_csv(out)[0]
    assert (row["P"], row["Q"], row["at_infinity"]) == ("", "", "true")


def test_project_plane_to_sphere(capsys):
    code, out, _ = run_cli(capsys, "project", "--P", "1", "--Q", "0")
    assert code == 0
    row = parse_csv(out)[0]
    assert (row["S1"], row["S2"], row["S3"]) == ("1", "0", "0")


def test_project_batch_roundtrip(tmp_path, capsys):
    src = tmp_path / "spins.csv"
    src.write_text("S1,S2,S3\n0,0,1\n1,0,0\n0,0,-1\n")
    code, out, _ = run_cli(capsys, "project", "--batch", str(src))
    assert code == 0
    mapped = tmp_path / "mapped.csv"
    mapped.write_text(out)
    code, out2, _ = run_cli(capsys, "project", "--batch", str(mapped))
    assert code == 0
    rows = parse_csv(out2)
    assert [r["S3"] for r in rows] == ["1", "0", "-1"]
    assert rows[2] == {"S1": "0", "S2": "0", "S3": "-1"}


def test_project_batch_reads_a_file_with_a_byte_order_mark(tmp_path, capsys):
    plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
    plain.write_bytes(b"S1,S2,S3\n0,0,1\n")
    marked.write_bytes(b"\xef\xbb\xbfS1,S2,S3\n0,0,1\n")
    expected = run_cli(capsys, "project", "--batch", str(plain))
    assert expected == (0, "P,Q,at_infinity\n0,0,false\n", "")
    assert run_cli(capsys, "project", "--batch", str(marked)) == expected


def test_project_requires_an_input(capsys):
    code, _, err = run_cli(capsys, "project")
    assert code == 2


@pytest.mark.parametrize(
    "body, line",
    [
        ("0,0,1\nabc,0,1\n", 3),
        ("0,0,1\n\n1,0,0\n0,0\n", 5),
    ],
)
def test_project_batch_malformed_spin_cell_is_domain_error(tmp_path, capsys, body, line):
    src = tmp_path / "spins.csv"
    src.write_text("S1,S2,S3\n" + body)
    code, out, err = run_cli(capsys, "project", "--batch", str(src))
    assert code == 2
    assert out == ""
    assert f"line {line}:" in err and "Traceback" not in err


def test_project_batch_empty_plane_cell_is_domain_error(tmp_path, capsys):
    src = tmp_path / "plane.csv"
    src.write_text("P,Q,at_infinity\n,,true\n1,2,false\n,3,false\n")
    code, out, err = run_cli(capsys, "project", "--batch", str(src))
    assert code == 2
    assert out == ""
    assert "line 4:" in err


def test_project_batch_non_finite_row_is_domain_error(tmp_path, capsys):
    src = tmp_path / "plane.csv"
    src.write_text("P,Q\n1,2\n3,nan\n4,5\n")
    code, out, err = run_cli(capsys, "project", "--batch", str(src))
    assert (code, out) == (2, "")
    assert "row 1:" in err


# --- the column renderer ---------------------------------------------------------


def _reference_render(rows, fieldnames, fmt):
    """The dict-per-row renderer: one csv.writer row or JSON object per dict."""
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(fieldnames)
        for row in rows:
            writer.writerow([cli._csv_cell(row.get(name)) for name in fieldnames])
        return buf.getvalue()
    lines = []
    for row in rows:
        items = ", ".join(
            f"{json.dumps(name)}: {cli._json_value(row.get(name))}" for name in fieldnames
        )
        lines.append("  {" + items + "}")
    return "[\n" + ",\n".join(lines) + "\n]\n"


def _rendered(columns, fmt):
    return "".join(cli._render(columns, fmt))


def _row_dicts(columns):
    """The columns of a table as one dict per row, a _Blanked cell as None."""
    lists = {
        name: [None if b else v for v, b in zip(c.values.tolist(), c.blank.tolist())]
        if isinstance(c, cli._Blanked) else list(c.tolist() if isinstance(c, np.ndarray) else c)
        for name, c in columns.items()
    }
    n_rows = len(next(iter(lists.values()))) if lists else 0
    return [{name: lists[name][i] for name in columns} for i in range(n_rows)]


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_column_renderer_matches_row_renderer(fmt):
    floats = np.array([-0.0, 1e-300, 1.2345678901234567, np.nan, -np.inf, 2.0**60, 5e-324, 1e16])
    blank = np.array([False, True, False, False, True, False, True, False])
    other_blank = np.array([True, True, False, True, False, False, False, False])
    flags = np.array([True, False, False, True, True, False, True, False])
    cells = {
        "x_cells": [float(v) for v in floats],
        "flag": [None, True, False, True, True, False, np.bool_(True), False],
        "count": [0, -3, 10**20, np.int64(7), np.array([1, 2])[0], 5, -1, 2**70],
        "z": [complex(1, -2), 1.5 + 0j, complex(-0.0, -0.0), complex(0.5, 1e-300), None, 2j,
              complex(np.nan, np.inf), -1j],
        "roots": [[], [complex(1, 2), complex(1, -2)], [0.25], [1 + 0j, -0.0], None, [3], [True], ["a"]],
        "name": ["plain", "with,comma", 'with"quote', "ce", "", "a b", "50%", "%s%%"],
        "weird,\"name": [np.float64(0.1), 1e16, 123456789012345678.0, -1.5e-7, 0.0, 1.0, 5e-324, -np.nan],
    }
    arrays = {
        "x": floats,
        "blanked": cli._Blanked(floats[::-1].copy(), blank),
        "pct%": floats * 3.0,
        "%%s": cli._Blanked(-floats, other_blank),
        "flags": flags,
    }
    columns = {**arrays, "ints": np.arange(1, 9), **cells}
    for n_rows in (len(floats), 1, 0):
        for table in (columns, arrays):
            table = {
                name: cli._Blanked(v.values[:n_rows], v.blank[:n_rows])
                if isinstance(v, cli._Blanked) else v[:n_rows]
                for name, v in table.items()
            }
            expected = _reference_render(_row_dicts(table), list(table), fmt)
            assert _rendered(table, fmt) == expected
            if table.keys() == arrays.keys():  # the byte path, below its row count too
                assert "".join(cli._array_table(table, fmt)) == expected
    empty = {name: [] for name in columns}
    assert _rendered(empty, fmt) == _reference_render([], list(columns), fmt)


_ANY_FLOATS = st.integers(0, 2**64 - 1).map(lambda bits: np.uint64(bits).view(np.float64))


@settings(max_examples=60, deadline=None)
@given(
    values=st.lists(st.one_of(_ANY_FLOATS, st.floats(allow_nan=True, allow_infinity=True)),
                    max_size=40),
    seed=st.integers(0, 2**32 - 1),
    fmt=st.sampled_from(["csv", "json"]),
)
def test_array_table_matches_row_renderer_on_any_floats(values, seed, fmt):
    """Plain and _Blanked float columns beside a bool column, as the byte path and
    the template render them, against the dict-per-row renderer."""
    rng = np.random.default_rng(seed)
    x = np.array(values, dtype=np.float64)
    columns = {
        "x": x,
        "blanked": cli._Blanked(x[::-1].copy(), rng.random(len(x)) < 0.3),
        "flag": rng.random(len(x)) < 0.5,
    }
    expected = _reference_render(_row_dicts(columns), list(columns), fmt)
    assert "".join(cli._array_table(columns, fmt)) == expected
    assert cli._template_table(columns, fmt) == expected


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_long_array_tables_take_the_byte_path_in_pieces(monkeypatch, fmt):
    rng = np.random.default_rng(7)
    n_rows = 2 * cli._CHUNK_ROWS + 3
    x = rng.standard_normal(n_rows) * 10.0 ** rng.integers(-6, 17, n_rows)
    x[::97] = 0.0
    columns = {"x": x, "y": cli._Blanked(-x, rng.random(n_rows) < 0.1), "f": x > 0}
    pieces = list(cli._render(columns, fmt))
    assert len(pieces) == 3 + 1 + (fmt == "json")  # header or "[", one per chunk, "]"
    assert "".join(pieces) == cli._template_table(columns, fmt)
    monkeypatch.setattr(cli, "_array_table", None)  # a short table never reaches it
    short = {name: v[:cli._ARRAY_TABLE_ROWS - 1] for name, v in columns.items() if name != "y"}
    assert _rendered(short, fmt) == cli._template_table(short, fmt)


def _powers_of_ten_and_neighbours():
    out = []
    for e in range(-5, 17):
        for p in (10.0**e, float(f"1e{e}")):
            below = above = p
            for _ in range(3):
                below, above = np.nextafter(below, 0.0), np.nextafter(above, np.inf)
                out += [below, above]
            out.append(p)
    return out


def test_float_cells_equal_percent_format_at_the_edges():
    near = [1e14, 1e15, 2.0**50, 2.0**53]
    ties = [np.floor(m) + 0.5 for c in near for m in np.linspace(c - 64, c + 64, 129)]
    values = np.array(
        ties + _powers_of_ten_and_neighbours()
        + [1e-4, 9.99999999999999e-5, 999999999999999.5, 999999999999999.4, 99999999999999.95,
           9.9999999999999995, -0.0, 0.0, np.nan, np.inf, -np.inf, 5e-324, -5e-324,
           np.finfo(float).max, -np.finfo(float).max, np.finfo(float).tiny]
    )
    values = np.concatenate([values, -values])
    texts = [bytes(row).replace(b"\0", b"").decode() for row in _g15.cells(values)]
    assert texts == ["%.15g" % v for v in values.tolist()]


@settings(max_examples=200, deadline=None)
@given(values=st.lists(_ANY_FLOATS, min_size=1, max_size=64))
def test_float_cells_equal_percent_format_on_any_bits(values):
    texts = [bytes(row).replace(b"\0", b"").decode() for row in _g15.cells(np.array(values))]
    assert texts == ["%.15g" % v for v in values]


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_rendering_a_long_trajectory_streams_its_rows(tmp_path, fmt):
    """The table is written run by run, never whole: holding its whole text at
    once, as the %-template does, peaks at about 4.4 (csv) and 5.3 MB (json)."""
    traj = classical.integrate_static(
        classical.FieldState(0.3, -0.2, 0.1, 0.05), (0.0, 10.0), 1e-3, PhysicalParams(A=2.0)
    )
    y = traj.state_array
    columns = {"z": traj.z_grid, "P": y[:, 0], "Q": y[:, 1], "PiP": y[:, 2],
               "PiQ": y[:, 3], "H": traj.h_values}
    path = tmp_path / f"out.{fmt}"
    cli._write_output(cli._render(columns, fmt), str(path))  # once untraced: lazy imports
    tracemalloc.start()
    try:
        cli._write_output(cli._render(columns, fmt), str(path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * path.stat().st_size


@pytest.mark.parametrize(
    "fmt, expected",
    [
        ("csv", "flag,flags\ntrue,true;false\n"),
        ("json", '[\n  {"flag": false, "flags": [true, false]}\n]\n'),
    ],
    ids=["csv", "json"],
)
def test_numpy_bools_render_as_bools(fmt, expected):
    flag = np.bool_(fmt == "csv")
    columns = {"flag": [flag], "flags": [[np.bool_(True), np.bool_(False)]]}
    assert _rendered(columns, fmt) == expected


# --- exit codes ------------------------------------------------------------------


def _signed_power_of_ten(lo, hi):
    return st.builds(lambda sign, e: sign * 10.0**e, st.sampled_from([-1.0, 1.0]), st.floats(lo, hi))


_CLASSICAL_ARGV = st.builds(
    lambda p, q, pip, piq, a: [
        "classical", f"--P={p!r}", f"--Q={q!r}", f"--PiP={pip!r}", f"--PiQ={piq!r}",
        f"--A={a!r}", "--z-span", "0", "0.01", "--step", "0.001",
    ],
    *[_signed_power_of_ten(-3, 200)] * 4,
    _signed_power_of_ten(-8, 6),
)
_ROOTS_ARGV = st.builds(
    lambda n, e: ["roots", "--n", str(n), f"--A={10.0**e!r}"],
    st.integers(0, 12),
    st.floats(-8, 308),
)
_MATHIEU_ARGV = st.builds(
    lambda nu, q, parity: ["mathieu", f"--nu={nu!r}", f"--q={q!r}", "--parity", parity],
    st.floats(0, 20),
    _signed_power_of_ten(-3, 308),
    st.sampled_from(["ce", "se"]),
)
# every command with the parameter flags, over the whole accepted range of hbar and beyond
_HBAR_ARGV = st.builds(
    lambda argv, a, hbar: argv + [f"--A={10.0**a!r}", f"--hbar={10.0**hbar!r}"],
    st.sampled_from([
        ["spectrum", "--max-n", "2"],
        ["verify", "--n", "1"],
        ["offplane", "--orders", "0..2"],
        ["inplane", "--B", "1", "--orders", "0..2"],
    ]),
    st.floats(-8, 6),
    st.floats(-200, 200),
)


@settings(max_examples=100, deadline=None)
@given(argv=st.one_of(_CLASSICAL_ARGV, _ROOTS_ARGV, _MATHIEU_ARGV, _HBAR_ARGV))
@example(argv=["roots", "--n", "64", "--A", "1e-6"])
@example(argv=["roots", "--n", "54", "--A", "1e-8"])
@example(argv=["classical", "--P", "1e80", "--z-span", "0", "0.01", "--step", "0.001"])
@example(argv=["mathieu", "--nu", "1e300", "--q", "1"])
@example(argv=["offplane", "--A", "2", "--orders", "1e300"])
@example(argv=["classical", "--A", "1", "--step", "1e-300"])
@example(argv=["classical", "--A", "1", "--z-span", "0", "1e300", "--step", "1e-300"])
@example(argv=["roots", "--n", "1", "--A", "1", "--hbar", "1e200"])
@example(argv=["offplane", "--A", "1", "--hbar", "1e200", "--orders", "0"])
@example(argv=["inplane", "--B", "1", "--hbar", "1e200", "--orders", "0"])
@example(argv=["roots", "--n", "1", "--A", "1", "--hbar", "1e-200"])
@example(argv=["verify", "--n", "0", "--A", "1", "--hbar", "1e-200"])
@example(argv=["roots", "--n", "2", "--A", "1e300", "--hbar", "1e-100"])
@example(argv=["mathieu", "--nu", "1", "--q", "1e300"])
@example(argv=["offplane", "--A", "1e300", "--orders", "0"])
@example(argv=["roots", "--n", "0", "--A", "1", "--hbar", "1.2e154"])
@example(argv=["spectrum", "--max-n", "0", "--A", "1", "--hbar", "1.2e154"])
@example(argv=["offplane", "--A", "1", "--hbar", "1.3e154", "--orders", "1"])
@example(argv=["offplane", "--A", "1", "--hbar", "1.3e154", "--orders", "0"])
@example(argv=["verify", "--n", "0", "--A", "1e6", "--hbar", "1e-3"])
@example(argv=["verify", "--n", "1", "--A", "9.9e-8", "--hbar", "9.9e-8"])
def test_wide_inputs_exit_with_a_documented_code(argv):
    """Success, a domain error or a solver error, never a traceback; stdout stays empty on
    failure, and a table printed on success has no inf or nan cell."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(argv)
    assert code in (0, 2, 3)
    if code:
        assert stdout.getvalue() == ""
    else:
        assert re.search(r"\b(inf|nan)", stdout.getvalue()) is None


@pytest.mark.parametrize(
    "spaced, joined",
    [
        (["mathieu", "--nu", "1", "--q", "-1e3"], ["mathieu", "--nu", "1", "--q=-1e3"]),
        (["classical", "--A", "1", "--z-span", "0", "0.003", "--P", "-1e-3"],
         ["classical", "--A", "1", "--z-span", "0", "0.003", "--P=-1e-3"]),
        # nargs=2 has no `=` form; the plain decimal spelling parsed before
        (["classical", "--A", "1", "--z-span", "-1e-3", "0"],
         ["classical", "--A", "1", "--z-span", "-0.001", "0"]),
    ],
    ids=["mathieu-q", "classical-P", "classical-z-span"],
)
def test_negative_values_in_scientific_notation_are_values(capsys, spaced, joined):
    code, out, err = run_cli(capsys, *spaced)
    assert (code, err) == (0, "")
    assert run_cli(capsys, *joined) == (0, out, "")


@pytest.mark.parametrize(
    "argv, code",
    [
        (["mathieu", "--nu", "1e200", "--q", "0"], 3),
        (["inplane", "--B", "0", "--orders", "1e300"], 3),
        (["roots", "--n", "1", "--A", "2", "--B", "5"], 2),
        (["spectrum", "--max-n", "2", "--A", "2", "--B", "5"], 2),
        (["verify", "--n", "1", "--A", "2", "--B", "5"], 2),
        (["verify", "--suite", "radial", "--B", "1"], 2),
        (["spectrum", "--max-n", "-1"], 2),
        (["roots", "--n", "-1"], 2),
        (["offplane", "--A", "1", "--orders", "3..1"], 2),
        (["offplane", "--A", "1", "--orders", ","], 2),
        (["offplane", "--A", "1", "--orders", f"0..{10**30}"], 2),
        (["inplane", "--B", "0", "--orders", f"0..{10**30}"], 2),
        (["offplane", "--A", "1", "--orders", f"{10**400}..{10**400}"], 2),
        (["project", "--s1", "0"], 2),
        (["project", "--P", "1"], 2),
    ],
    ids=["mathieu-nu-squared", "inplane-nu-squared", "roots-field", "spectrum-field",
         "verify-level-field", "verify-suite-field", "spectrum-negative-level",
         "roots-negative-level", "orders-empty-range", "orders-empty", "orders-unbounded-offplane",
         "orders-unbounded-inplane", "orders-beyond-float", "project-spin-partial",
         "project-field-partial"],
)
def test_inputs_without_a_valid_table_print_none(capsys, argv, code):
    """An overflowing nu^2 is a solver error; a Bethe level at mu*B != 0, a negative
    level, an empty order list, an order range too long to hold or beyond float range and a
    partial point are domain errors."""
    assert run_cli(capsys, *argv)[:2] == (code, "")


def test_negative_sample_count_is_a_domain_error(capsys):
    code, out, err = run_cli(capsys, "mathieu", "--nu", "1", "--q", "1", "--samples", "-3")
    assert (code, out) == (2, "")
    assert "--samples" in err


# none of these counts can be allocated: 8 PB, beyond numpy's size limit, and
# 2**63 - 1 and 2**63, for which linspace returns an empty grid instead of failing
@pytest.mark.parametrize("count", [10**15, 10**20, 2**63 - 1, 2**63])
def test_sample_count_that_cannot_be_held_is_a_domain_error(capsys, count):
    code, out, err = run_cli(capsys, "mathieu", "--nu", "1", "--q", "1", "--samples", str(count))
    assert (code, out) == (2, "")
    assert err == f"spinchain: domain error: --samples {count} cannot be held in memory\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["roots", "--n", "1", "--A", "2", "--out", "{dir}"],
        ["spectrum", "--max-n", "1", "--config", "{dir}"],
        ["inplane", "--B", "0", "--orders", "0", "--out", "{file}/out.csv"],
        ["project", "--batch", "{dir}"],
        ["spectrum", "--max-n", "1", "--config", "{latin1}"],
        ["project", "--batch", "{latin1}"],
        ["project", "--batch", "{columns}"],
        ["spectrum", "--max-n", "1", "--config", "{columns}"],
    ],
    ids=["out-dir", "config-dir", "out-under-file", "batch-dir", "config-latin1", "batch-latin1",
         "batch-header", "config-no-equals"],
)
def test_io_failures_exit_2_with_one_line(tmp_path, capsys, argv):
    """A file that cannot be read, decoded, parsed or written is an input error: exit 2, not 1."""
    (tmp_path / "file").write_text("")
    (tmp_path / "latin1").write_bytes("# \xb5 is mu\nS1,S2,S3\n".encode("latin-1"))
    # neither a (S1,S2,S3) nor a (P,Q) header, nor a `key = value` line
    (tmp_path / "columns").write_text("S1,S2\n")
    paths = {"dir": tmp_path, "file": tmp_path / "file", "latin1": tmp_path / "latin1",
             "columns": tmp_path / "columns"}
    code, out, err = run_cli(capsys, *(arg.format(**paths) for arg in argv))
    assert (code, out) == (2, "")
    assert err.startswith("spinchain: ") and err.count("\n") == 1
    assert "Traceback" not in err


def test_failing_suite_case_exits_1(tmp_path, capsys, monkeypatch):
    report = verify.ResidualReport(
        grid=np.array([0.0, 1.0]), residuals=np.array([0.0, 2.0]),
        max_rel=2.0, passed=False, tolerance=1e-8,
    )
    case = verify.SuiteCase("radial n=0", 2.0, 1e-8, False, report)
    monkeypatch.setattr(verify, "run_suite", lambda suite, params=None, seed=42: [case])
    code, out, err = run_cli(capsys, "verify", "--suite", "radial")
    assert (code, err) == (1, "")
    assert parse_csv(out) == [
        {"case": "radial n=0", "max_residual": "2", "tolerance": "1e-08", "passed": "false"}
    ]
    code, out_dir, _ = run_cli(capsys, "verify", "--suite", "radial", "--out", str(tmp_path))
    assert (code, out_dir) == (1, out)
    assert [f.name for f in tmp_path.iterdir()] == ["radial_n_0.csv"]
    assert (tmp_path / "radial_n_0.csv").read_text() == "grid,residual\n0,0\n1,2\n"


def test_underflowing_recurrence_vector_leaves_only_the_error_line(capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(capsys, "roots", "--n", "64", "--A", "1e-6")
    assert (code, out) == (3, "")
    assert err.startswith("spinchain: solver error: ") and err.count("\n") == 1


# --- classical ----------------------------------------------------------------


def test_classical_output_columns(capsys):
    code, out, _ = run_cli(
        capsys, "classical", "--A", "2", "--P", "0.1",
        "--z-span", "0", "1", "--step", "0.001",
    )
    assert code == 0
    rows = parse_csv(out)
    assert list(rows[0].keys()) == ["z", "P", "Q", "PiP", "PiQ", "H"]
    assert len(rows) == 1001
    h = [float(r["H"]) for r in rows]
    assert max(abs(v - h[0]) for v in h) < 1e-9


def test_classical_divergence_exit_code(capsys):
    code, _, err = run_cli(
        capsys, "classical", "--PiP", "1e6", "--z-span", "0", "10", "--step", "0.001",
    )
    assert code == 3
    assert "solver error" in err


# --- verify --------------------------------------------------------------------


def test_verify_all_suites(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "all")
    assert code == 0
    rows = parse_csv(out)
    assert all(r["passed"] == "true" for r in rows)


def test_verify_suite_keeps_the_physical_flags(capsys):
    """Without --A the suite runs at A = 2, with the user's hbar."""
    code, out, _ = run_cli(capsys, "verify", "--suite", "radial", "--hbar", "2")
    assert code == 0
    assert run_cli(capsys, "verify", "--suite", "radial", "--hbar", "2", "--A", "2") == (0, out, "")
    assert run_cli(capsys, "verify", "--suite", "radial")[1] != out


def test_verify_residual_profile(capsys):
    code, out, _ = run_cli(capsys, "verify", "--n", "0", "--A", "2")
    assert code == 0
    rows = parse_csv(out)
    assert len(rows) == 101
    assert list(rows[0].keys()) == ["n", "branch", "r", "residual"]


def test_verify_writes_case_files(tmp_path, capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "mathieu", "--out", str(tmp_path))
    assert code == 0
    files = sorted(p.name for p in tmp_path.iterdir())
    assert files and all(name.endswith(".csv") for name in files)


# --- config and determinism -----------------------------------------------------


def test_config_file_with_flag_override(tmp_path, capsys):
    cfg = tmp_path / "params.cfg"
    cfg.write_text("A = 1.0\nhbar = 1.0\n")
    code, out_cfg, _ = run_cli(capsys, "spectrum", "--max-n", "0", "--config", str(cfg))
    assert code == 0
    code, out_override, _ = run_cli(
        capsys, "spectrum", "--max-n", "0", "--config", str(cfg), "--A", "2"
    )
    assert code == 0
    e_cfg = float(parse_csv(out_cfg)[0]["energy"])
    e_override = float(parse_csv(out_override)[0]["energy"])
    assert e_cfg == pytest.approx(1.75 - math.sqrt(2), abs=1e-12)  # A = 1
    assert e_override == pytest.approx(-0.5, abs=1e-12)  # flag wins


def test_config_file_with_a_byte_order_mark(tmp_path, capsys):
    cfg = tmp_path / "params.cfg"
    cfg.write_bytes(b"\xef\xbb\xbfA = 2\n")
    expected = run_cli(capsys, "spectrum", "--max-n", "1", "--A", "2")
    assert expected[0] == 0
    assert run_cli(capsys, "spectrum", "--max-n", "1", "--config", str(cfg)) == expected


def test_byte_identical_reruns(tmp_path, capsys):
    out1 = tmp_path / "run1.csv"
    out2 = tmp_path / "run2.csv"
    for out in (out1, out2):
        code = main(["spectrum", "--max-n", "3", "--A", "2", "--out", str(out)])
        assert code == 0
    capsys.readouterr()
    assert out1.read_bytes() == out2.read_bytes()


def test_fifteen_significant_digits(capsys):
    code, out, _ = run_cli(capsys, "roots", "--n", "1", "--A", "2", "--format", "json")
    rows = json.loads(out)
    root = rows[0]["roots"][0][0]
    assert root == pytest.approx((2 - math.sqrt(3)) / 2, abs=1e-14)
    # the rendered literal carries exactly 15 significant digits
    assert "0.133974596215561" in out


# --- exit codes ----------------------------------------------------------------


def test_unknown_command_is_usage_error(capsys):
    assert main(["frobnicate"]) == 64


def test_malformed_flag_is_usage_error(capsys):
    assert main(["spectrum", "--max-n", "two"]) == 64


def test_domain_error_exit(capsys):
    assert main(["spectrum", "--max-n", "1", "--A", "2", "--hbar", "0"]) == 2


# the smallest arguments each command parses without a usage error
_REQUIRED = {
    "project": [], "classical": [], "spectrum": ["--max-n", "1"], "roots": ["--n", "1"],
    "mathieu": ["--nu", "1", "--q", "1"], "offplane": ["--orders", "0"],
    "inplane": ["--orders", "0"], "verify": [],
}


@pytest.mark.parametrize(
    "argv",
    [["--help"], ["-h"], [], ["frobnicate"], ["-1"], ["-h", "mathieu"],
     ["--format", "json", "mathieu", "--nu", "1", "--q", "1"],
     ["--bogus", "mathieu", "--nu", "1", "--q", "1"]]
    + [[command, "--help"] for command in _REQUIRED]
    + [[command, *required, "extra"] for command, required in _REQUIRED.items()]
    + [[command, *required, "--bogus"] for command, required in _REQUIRED.items()],
    ids=lambda argv: " ".join(argv) or "no-command",
)
def test_help_and_usage_errors_match_the_parser_with_every_command(monkeypatch, capsys, argv):
    """Filling only the invoked command changes no byte of help or usage-error output."""
    code, out, err = run_cli(capsys, *argv)
    full_parser = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda argv: full_parser())
    assert run_cli(capsys, *argv) == (code, out, err)
    assert code in (0, 64)


def test_only_the_invoked_command_gets_arguments(monkeypatch, capsys):
    added = []
    add_argument = argparse.ArgumentParser.add_argument

    def counting(self, *args, **kwargs):
        added.append(args[0])
        return add_argument(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "add_argument", counting)
    assert run_cli(capsys, "roots", "--n", "1", "--A", "2")[0] == 0
    # one -h per parser: the top level and each of the 8 commands
    assert sorted(added) == sorted(
        ["-h"] * 9 + ["--A", "--B", "--mu", "--hbar", "--config", "--n", "--format", "--out"]
    )


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    out = capsys.readouterr().out
    assert "exit codes" in out


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "spinchain.cli", "inplane", "--B", "0", "--orders", "0..2"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[0] == "nu,parity,energy"


def test_cli_import_leaves_scipy_linalg_and_sparse_unloaded():
    code = (
        "import sys, spinchain.cli; "
        "print(sorted(m for m in sys.modules if m.startswith(('scipy.linalg', 'scipy.sparse'))))"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


# --- the README ------------------------------------------------------------------


def _readme_examples():
    """The `spinchain ...` lines of the README's `sh` blocks, as (argv, trailing comment)."""
    text = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    lines = [line for block in re.findall(r"```sh\n(.*?)```", text, re.S) for line in block.splitlines()]
    return [(command.split()[1:], comment.strip())
            for command, _, comment in (line.partition("#") for line in lines)
            if command.startswith("spinchain ")]


def test_readme_examples_run(capsys):
    examples = _readme_examples()
    assert any(argv[0] == "inplane" for argv, _ in examples)
    for argv, comment in examples:
        code, out, err = run_cli(capsys, *argv)
        assert (code, err) == (0, ""), argv
        if argv[0] == "inplane":  # the comment lists the energies
            assert [float(row["energy"]) for row in parse_csv(out)] == [
                float(e) for e in comment.split(",")
            ]
