"""Command-line front end.

Every command emits a flat table, as CSV (header row, comma delimiter) or as
a JSON array of row objects, with all numbers printed to 15 significant
digits. Output is byte-deterministic for a fixed invocation. Complex roots
are serialized as [re, im] pairs in JSON and as `re` / `re+imj` strings in
CSV. The point at infinity of the stereographic map is encoded by the
boolean `at_infinity` column with empty/null coordinates.

Exit codes: 0 success, 1 verification suite failure, 2 domain error,
3 solver non-convergence or trajectory divergence, 64 usage error.
"""

from __future__ import annotations

import argparse
import csv
import io
import itertools
import json
import operator
import os
import re
import sys
from dataclasses import dataclass, fields
from typing import Any, Iterable, Iterator, Sequence

import numpy as np

from . import _g15, classical, mathieu, stereo, verify
from .bethe import solve_level
from .errors import (
    ConstraintViolationError,
    ConvergenceError,
    DivergenceError,
    DomainError,
)
from .params import PhysicalParams, read_params_file

_EXIT_OK = 0
_EXIT_SUITE_FAILED = 1
_EXIT_DOMAIN = 2
_EXIT_SOLVER = 3
_EXIT_USAGE = 64

_EPILOG = """\
exit codes:
  0   success
  1   verification suite reported a failing case
  2   domain error (invalid parameter or input)
  3   solver non-convergence or trajectory divergence
  64  usage error (unknown command or malformed flags)

parameters may be placed in a config file of `key = value` lines
(keys A, B, mu, hbar); command-line flags override the file.
"""


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # argparse's own pattern has no exponent, so it reads -1e3 as a flag
        self._negative_number_matcher = re.compile(r"^-\.?\d")

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(_EXIT_USAGE, f"{self.prog}: error: {message}\n")


# ---------------------------------------------------------------------------
# formatting


_fmt = "%.15g".__mod__  # the one float format: 15 significant digits


def _fmt_complex(z: complex) -> str:
    if z.imag == 0.0:
        return _fmt(z.real)
    sign = "+" if z.imag >= 0 else "-"
    return f"{_fmt(z.real)}{sign}{_fmt(abs(z.imag))}j"


def _csv_cell(value: Any) -> str:
    if value is None:
        return ""
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return _fmt(value)
    if isinstance(value, complex):
        return _fmt_complex(value)
    if isinstance(value, (list, tuple)):
        return ";".join(_csv_cell(v) for v in value)
    return str(value)


def _json_value(value: Any) -> str:
    if value is None:
        return "null"
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return _fmt(value)
    if isinstance(value, complex):
        return f"[{_fmt(value.real)}, {_fmt(value.imag)}]"
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(_json_value(v) for v in value) + "]"
    return json.dumps(str(value))


_CSV_SPECIAL = re.compile(r'[,"\r\n]')


def _csv_quoted(cells: list[str]) -> list[str]:
    """Quote, as csv's QUOTE_MINIMAL does, each cell holding a comma, a quote or a line break."""
    if _CSV_SPECIAL.search("".join(cells)) is None:
        return cells
    return ['"' + c.replace('"', '""') + '"' if _CSV_SPECIAL.search(c) else c for c in cells]


@dataclass(frozen=True)
class _Blanked:
    """A float column whose cells are empty (None) where `blank` is set."""

    values: np.ndarray
    blank: np.ndarray


def _layout(names: list[str], fmt: str) -> tuple[str, list[str], str, str]:
    """The text of a table around its cells: before the rows, before each
    cell of a row, after each row, and after the rows.

    A JSON row ends with the ",\\n" that parts it from the next row, so the
    last row drops it.
    """
    if fmt == "csv":
        seps = ["," if j else "" for j in range(len(names))]
        return ",".join(_csv_quoted(names)) + "\n", seps, "\n", ""
    seps = [(", " if j else "  {") + json.dumps(name) + ": " for j, name in enumerate(names)]
    return "[\n", seps, "},\n", "\n]\n"


_BOOL_BYTES = np.array(["false", "true"], dtype="S5").view(np.uint8).reshape(2, 5)
_NULL_BYTES = np.frombuffer(b"null", np.uint8)
_CHUNK_ROWS = 2048  # rows per piece of a table, which bounds its memory


def _cells(values: Any, part: slice, fmt: str) -> np.ndarray:
    """The cells of one column's rows `part` as a NUL-padded (rows, width) uint8 matrix.

    Float arrays (`_Blanked` ones included) are formatted all at once and
    bool arrays looked up; any other column is rendered cell by cell.
    """
    blank = None
    if isinstance(values, _Blanked):
        values, blank = values.values, values.blank[part]
    values = values[part]
    if isinstance(values, np.ndarray):
        if values.dtype.kind == "b":
            return np.take(_BOOL_BYTES, values.astype(np.intp), axis=0)
        if values.dtype.kind == "f":
            cells = _g15.cells(values)
            if blank is not None:
                cells[blank] = 0
                if fmt == "json":
                    cells[blank, :4] = _NULL_BYTES
            return cells
        values = values.tolist()
    if fmt == "csv":
        texts = _csv_quoted([_csv_cell(v) for v in values])
    else:
        texts = [_json_value(v) for v in values]
    packed = np.array([text.encode() for text in texts], dtype=bytes)
    return packed.view(np.uint8).reshape(len(packed), packed.itemsize)


def _render(columns: dict[str, Any], fmt: str) -> Iterator[str]:
    """A table given column by column (name -> values, all of one length), as
    pieces of its text.

    Each piece after the layout's head is a run of rows built as one uint8
    matrix: a block of fixed-width, NUL-padded cells per column, between the
    constant blocks of the layout. Dropping the NULs gives the piece's text.
    """
    head, seps, end, tail = _layout(list(columns), fmt)
    yield head
    seps = [np.frombuffer(sep.encode(), np.uint8) for sep in seps]
    end = np.frombuffer(end.encode(), np.uint8)
    first = next(iter(columns.values()), ())
    n_rows = len(first.values if isinstance(first, _Blanked) else first)
    for i in range(0, n_rows, _CHUNK_ROWS):
        part = slice(i, i + _CHUNK_ROWS)
        blocks = []
        for sep, values in zip(seps, columns.values()):
            blocks += [sep, _cells(values, part, fmt)]
        blocks.append(end)
        rows = np.empty((len(blocks[1]), sum(block.shape[-1] for block in blocks)), np.uint8)
        start = 0
        for block in blocks:
            rows[:, start:start + block.shape[-1]] = block
            start += block.shape[-1]
        if fmt == "json" and i + len(rows) == n_rows:
            rows[-1, -2:] = 0  # the last row's ",\n"
        yield rows[rows != 0].tobytes().decode("utf-8")
    if tail:
        yield tail


def _write_output(pieces: Iterable[str], out: str | None) -> None:
    if out is None or out == "-":
        sys.stdout.writelines(pieces)
    else:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.writelines(pieces)


# ---------------------------------------------------------------------------
# argument plumbing


def _add_param_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--A", type=float, default=None, help="anisotropy strength")
    p.add_argument("--B", type=float, default=None, help="transverse field strength")
    p.add_argument("--mu", type=float, default=None, help="gyromagnetic ratio")
    p.add_argument("--hbar", type=float, default=None, help="reduced Planck constant")
    p.add_argument("--config", default=None, help="key = value parameter file")


def _build_params(args: argparse.Namespace, default_a: float) -> PhysicalParams:
    values = {"A": default_a}  # B, mu and hbar default as in PhysicalParams
    if args.config:
        values.update(read_params_file(args.config))
    for field in fields(PhysicalParams):
        flag = getattr(args, field.name)
        if flag is not None:
            values[field.name] = flag
    return PhysicalParams(**values)


def _parse_orders(spec_str: str) -> list[float]:
    orders: list[float] = []
    for token in spec_str.split(","):
        token = token.strip()
        if not token:
            continue
        m = re.fullmatch(r"(-?\d+)\.\.(-?\d+)", token)
        if m:
            lo, hi = int(m.group(1)), int(m.group(2))
            if hi < lo:
                raise DomainError(f"empty order range {token!r}")
            try:
                # allocated up front, so a count too large to hold fails before anything grows
                values = np.fromiter(map(float, range(lo, hi + 1)), float, hi - lo + 1)
            except (OverflowError, ValueError, MemoryError):
                raise DomainError(f"order range {token!r} cannot be held as floats") from None
            orders.extend(values.tolist())
        else:
            try:
                orders.append(float(token))
            except ValueError as exc:
                raise DomainError(f"bad order token {token!r}") from exc
    if not orders:
        raise DomainError(f"no orders in {spec_str!r}")
    return orders


def _project_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--s1", type=float, default=None)
    p.add_argument("--s2", type=float, default=None)
    p.add_argument("--s3", type=float, default=None)
    p.add_argument("--P", type=float, default=None)
    p.add_argument("--Q", type=float, default=None)
    p.add_argument("--batch", default=None, help="CSV with (S1,S2,S3) or (P,Q) columns")


def _classical_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--P", type=float, default=0.0)
    p.add_argument("--Q", type=float, default=0.0)
    p.add_argument("--PiP", type=float, default=0.0)
    p.add_argument("--PiQ", type=float, default=0.0)
    p.add_argument("--z-span", type=float, nargs=2, default=(0.0, 10.0), metavar=("Z0", "Z1"))
    p.add_argument("--step", type=float, default=1e-3)


def _spectrum_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--max-n", type=int, required=True)


def _roots_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--n", type=int, required=True)


def _mathieu_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--nu", type=float, required=True)
    p.add_argument("--q", type=float, required=True)
    p.add_argument("--parity", choices=("ce", "se"), default="ce")
    p.add_argument("--samples", type=int, default=0, help="emit N samples of ce/se")


def _energy_table_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--orders", required=True, help="e.g. '0..5' or '0,0.5,1'")
    p.add_argument("--parity", choices=("ce", "se", "both"), default="ce")


def _verify_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--suite", choices=("radial", "mathieu", "nlsm", "all"), default="all")
    p.add_argument("--n", type=int, default=None, help="emit the residual profile of level n")
    p.add_argument("--seed", type=int, default=42)


def build_parser(argv: Sequence[str] | None = None) -> argparse.ArgumentParser:
    """The parser of every command, each with its arguments.

    Given `argv`, only the command that its first non-option argument names
    gets its arguments; the others keep their name and help text. That is
    all the top-level help and the invalid-choice error print, and argparse
    reads no other command, so `parse_args(argv)` behaves as with every
    command filled.
    """
    parser = _Parser(
        prog="spinchain",
        description="Quasi-exact spectra and verification tools for the "
        "continuum anisotropic spin chain.",
        epilog=_EPILOG,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)
    invoked = None if argv is None else next((a for a in argv if not a.startswith("-")), None)
    for name, (help_text, default_a, add_arguments, _) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        if argv is None or name == invoked:
            if default_a is not None:
                _add_param_flags(p)
            add_arguments(p)
            # added last, so they close every command's usage line
            p.add_argument("--format", choices=("csv", "json"), default="csv")
            p.add_argument("--out", default=None, help="output path (default: stdout)")
    return parser


# ---------------------------------------------------------------------------
# command handlers: each returns its table as columns (name -> values)


def _cmd_project(args: argparse.Namespace, params: None) -> dict[str, Any]:
    s1, s2, s3 = args.s1, args.s2, args.s3
    p, q = args.P, args.Q
    if args.batch:
        return _project_batch(args.batch)
    if s1 is not None or s2 is not None or s3 is not None:
        if None in (s1, s2, s3):
            raise DomainError("spin input needs all of --s1 --s2 --s3")
        return _plane_columns(np.array([[s1, s2, s3]]))
    if p is not None or q is not None:
        if None in (p, q):
            raise DomainError("field input needs both --P and --Q")
        return _spin_columns(np.array([[p, q]]), np.array([False]))
    raise DomainError("give --s1/--s2/--s3, --P/--Q, or --batch")


def _plane_columns(s: np.ndarray) -> dict[str, Any]:
    w, at_infinity = stereo.project_array(s)
    return {"P": _Blanked(w[:, 0], at_infinity), "Q": _Blanked(w[:, 1], at_infinity),
            "at_infinity": at_infinity}


def _spin_columns(w: np.ndarray, at_infinity: np.ndarray) -> dict[str, Any]:
    s = stereo.unproject_array(w, at_infinity)
    return {"S1": s[:, 0], "S2": s[:, 1], "S3": s[:, 2]}


def _project_batch(path: str) -> dict[str, Any]:
    with open(path, "rb") as fh:
        data = fh.read()
    try:  # whole: the reader decodes in chunks, and its error gives offsets within a chunk
        data.decode("utf-8")
    except UnicodeDecodeError as exc:  # lines end at \n, \r or \r\n, as the reader counts them
        head = data[: exc.start]
        line = 1 + head.count(b"\n") + head.count(b"\r") - head.count(b"\r\n")
        raise DomainError(f"{path}: line {line}: not UTF-8 text: {exc}") from None
    reader = _csv_reader(data)
    try:
        header = next(reader, [])
        rows = list(filter(None, reader))  # a blank line holds no row
    except csv.Error as exc:  # a cell past the field size limit; a NUL byte before 3.11
        raise DomainError(f"{path}: line {reader.line_num}: {exc}") from None
    index = {name.strip(): j for j, name in enumerate(header)}
    if {"S1", "S2", "S3"} <= index.keys():
        return _plane_columns(_parse_cells(path, data, rows, None, index, ("S1", "S2", "S3")))
    if {"P", "Q"} <= index.keys():
        j = index.get("at_infinity")
        at_infinity = np.fromiter(
            (j is not None and j < len(row) and row[j].strip().lower() == "true" for row in rows),
            dtype=bool,
            count=len(rows),
        )
        finite = (~at_infinity).tolist()
        w = np.zeros((len(rows), 2))
        w[~at_infinity] = _parse_cells(
            path, data, list(itertools.compress(rows, finite)), finite, index, ("P", "Q")
        )
        return _spin_columns(w, at_infinity)
    raise DomainError(f"{path}: need columns (S1,S2,S3) or (P,Q), got {header}")


def _parse_cells(
    path: str,
    data: bytes,
    rows: list[list[str]],
    selected: list[bool] | None,
    index: dict[str, int],
    names: tuple[str, ...],
) -> np.ndarray:
    """(rows, names) floats; a missing or non-numeric cell is a DomainError naming its line.

    `rows` are the data rows of the file `data` that `selected` keeps (None:
    all). numpy reads every cell with `float()`; the line of a bad row is found
    by reading `data` again.
    """
    cells = operator.itemgetter(*(index[name] for name in names))
    try:
        values = np.array(list(itertools.chain.from_iterable(map(cells, rows))), dtype=float)
    except (IndexError, ValueError):
        for k, row in enumerate(rows):
            try:
                list(map(float, cells(row)))
            except (IndexError, ValueError):
                raise DomainError(
                    f"{path}: line {_line_of(data, k, selected)}: "
                    f"need numbers in {', '.join(names)}, got {row}"
                ) from None
        raise
    return values.reshape(-1, len(names))


def _csv_reader(data: bytes) -> Any:
    """A csv reader over UTF-8 `data`: a byte order mark dropped, lines split as a text file's."""
    return csv.reader(io.TextIOWrapper(io.BytesIO(data), encoding="utf-8-sig", newline=""))


def _line_of(data: bytes, k: int, selected: list[bool] | None) -> int:
    """The line of `data` on which data row k, counted among the `selected` rows, ends."""
    reader = _csv_reader(data)
    next(reader)  # the header
    rows = filter(None, reader)
    next(itertools.islice(rows if selected is None else itertools.compress(rows, selected), k, None))
    return reader.line_num


def _cmd_classical(args: argparse.Namespace, params: PhysicalParams) -> dict[str, Any]:
    initial = classical.FieldState(args.P, args.Q, args.PiP, args.PiQ)
    traj = classical.integrate_static(initial, tuple(args.z_span), args.step, params)
    y = traj.state_array
    return {"z": traj.z_grid, "P": y[:, 0], "Q": y[:, 1], "PiP": y[:, 2],
            "PiQ": y[:, 3], "H": traj.h_values}


def _spectrum_columns(params: PhysicalParams, levels: Sequence[int]) -> dict[str, list]:
    sols = [sol for n in levels for sol in solve_level(n, params)]
    return {
        "n": [sol.indices.n for sol in sols],
        "lambda": [sol.indices.lambda_n for sol in sols],
        "l": [sol.indices.l for sol in sols],
        "branch": [sol.indices.branch for sol in sols],
        "roots": [sol.roots for sol in sols],
        "energy": [sol.energy for sol in sols],
        "bethe_residual": [sol.residual for sol in sols],
    }


def _cmd_spectrum(args: argparse.Namespace, params: PhysicalParams) -> dict[str, Any]:
    if args.max_n < 0:  # the empty range would print an empty table
        raise DomainError(f"--max-n must be non-negative, got {args.max_n}")
    return _spectrum_columns(params, range(args.max_n + 1))


def _cmd_roots(args: argparse.Namespace, params: PhysicalParams) -> dict[str, Any]:
    return _spectrum_columns(params, [args.n])  # bethe rejects a negative level


def _cmd_mathieu(args: argparse.Namespace, params: None) -> dict[str, Any]:
    nu, q = args.nu, args.q
    if args.samples < 0:
        raise DomainError(f"--samples must be non-negative, got {args.samples}")
    if args.samples > 0:
        try:
            xs = np.linspace(0.0, 2.0 * np.pi, args.samples, endpoint=False)
        except (MemoryError, ValueError):
            xs = None
        # near 2**63, linspace returns an empty grid instead of failing
        if xs is None or len(xs) != args.samples:
            raise DomainError(f"--samples {args.samples} cannot be held in memory")
        columns = {"x": xs, "ce": mathieu.solve(nu, q, "ce")(xs)}
        if mathieu.has_branch(nu, "se"):
            columns["se"] = mathieu.solve(nu, q, "se")(xs)
        return columns
    record = mathieu.solve(nu, q, args.parity)
    return {"nu": [nu], "q": [q], "parity": [args.parity], "a_nu": [record.a_nu],
            "truncation": [record.problem.truncation]}


def _cmd_energy_table(args: argparse.Namespace, params: PhysicalParams) -> dict[str, Any]:
    """offplane / inplane; the spectrum function is looked up on `mathieu` per call,
    so a wrapper set on the module attribute after import is called."""
    spectrum = mathieu.offplane_spectrum if args.command == "offplane" else mathieu.inplane_spectrum
    orders = _parse_orders(args.orders)
    parities = ("ce", "se") if args.parity == "both" else (args.parity,)
    rows = []
    for parity in parities:
        usable = [nu for nu in orders if mathieu.has_branch(nu, parity)]
        rows += [(nu, parity, e) for nu, e in spectrum(params, usable, parity)]
    rows.sort(key=lambda r: (r[0], r[1]))
    return {"nu": [r[0] for r in rows], "parity": [r[1] for r in rows],
            "energy": [r[2] for r in rows]}


def _cmd_verify(args: argparse.Namespace, params: PhysicalParams) -> dict[str, Any]:
    """A level's residual profile (--n), or the suite table with its `passed` column.

    With `--out DIR` the suite writes one CSV per case into DIR and its
    table goes to stdout.
    """
    n = args.n
    if n is not None:
        reports = [
            (sol.indices.branch, verify.radial_residual(n, sol, params))
            for sol in solve_level(n, params)
        ]
        branches = [branch for branch, rep in reports for _ in rep.grid]
        return {
            "n": [n] * len(branches),
            "branch": branches,
            "r": np.concatenate([rep.grid for _, rep in reports]),
            "residual": np.concatenate([rep.residuals for _, rep in reports]),
        }

    cases = verify.run_suite(args.suite, params, seed=args.seed)
    if args.out is not None and os.path.isdir(args.out):
        for c in cases:
            if c.report is None:
                continue
            name = re.sub(r"[^A-Za-z0-9.-]+", "_", c.name) + ".csv"
            _write_output(
                _render({"grid": c.report.grid, "residual": c.report.residuals}, "csv"),
                os.path.join(args.out, name),
            )
        args.out = None  # the table itself goes to stdout
    return {
        "case": [c.name for c in cases],
        "max_residual": [c.max_residual for c in cases],
        "tolerance": [c.tolerance for c in cases],
        "passed": [c.passed for c in cases],
    }


# each command: its line in the top-level help, its default A (None: no parameter
# flags; verify's is the suite's reference anisotropy), its argument filler and handler
_COMMANDS = {
    "project": ("stereographic map, either direction", None, _project_args, _cmd_project),
    "classical": ("integrate the static Hamilton equations", 0.0, _classical_args, _cmd_classical),
    "spectrum": ("quasi-exact level table up to --max-n", 0.0, _spectrum_args, _cmd_spectrum),
    "roots": ("all root-set branches of one level", 0.0, _roots_args, _cmd_roots),
    "mathieu": ("characteristic value and eigenfunctions", None, _mathieu_args, _cmd_mathieu),
    "offplane": ("out-of-plane energy table", 0.0, _energy_table_args, _cmd_energy_table),
    "inplane": ("in-plane energy table", 0.0, _energy_table_args, _cmd_energy_table),
    "verify": ("residual suites / per-level residual profile", 2.0, _verify_args, _cmd_verify),
}


def main(argv: Sequence[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser = build_parser(argv)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else _EXIT_OK
    _, default_a, _, handler = _COMMANDS[args.command]
    try:
        columns = handler(args, None if default_a is None else _build_params(args, default_a))
        _write_output(_render(columns, args.format), args.out)
    except (DomainError, ConstraintViolationError) as exc:
        print(f"spinchain: domain error: {exc}", file=sys.stderr)
        return _EXIT_DOMAIN
    except MemoryError as exc:  # a count too large to hold, found on allocation
        print(f"spinchain: domain error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return _EXIT_DOMAIN
    except (ConvergenceError, DivergenceError) as exc:
        print(f"spinchain: solver error: {exc}", file=sys.stderr)
        return _EXIT_SOLVER
    except OSError as exc:
        print(f"spinchain: {exc}", file=sys.stderr)
        return _EXIT_DOMAIN
    # a suite table fails the run when any of its cases failed
    return _EXIT_OK if all(columns.get("passed", ())) else _EXIT_SUITE_FAILED


if __name__ == "__main__":
    sys.exit(main())
