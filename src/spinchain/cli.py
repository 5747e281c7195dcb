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
import json
import os
import re
import sys
from dataclasses import dataclass, field
from typing import Any, Sequence

import numpy as np

from . import classical, mathieu, stereo, verify
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
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(_EXIT_USAGE, f"{self.prog}: error: {message}\n")


@dataclass(frozen=True)
class RunConfig:
    """One resolved invocation: exactly one command plus its options.

    `params` is None for commands that take no physical parameters
    (project, mathieu). `options` carries the command-specific flags.
    """

    command: str
    output_format: str
    output_path: str | None
    params: PhysicalParams | None = None
    options: dict[str, Any] = field(default_factory=dict)

    def opt(self, name: str, default: Any = None) -> Any:
        return self.options.get(name, default)


# ---------------------------------------------------------------------------
# formatting


def _fmt(x: float) -> str:
    return format(float(x), ".15g")


def _fmt_complex(z: complex) -> str:
    z = complex(z)
    if z.imag == 0.0:
        return _fmt(z.real)
    sign = "+" if z.imag >= 0 else "-"
    return f"{_fmt(z.real)}{sign}{_fmt(abs(z.imag))}j"


def _csv_cell(value: Any) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
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
    if isinstance(value, bool):
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


def _render(rows: list[dict], fieldnames: list[str], fmt: str) -> str:
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(fieldnames)
        for row in rows:
            writer.writerow([_csv_cell(row.get(name)) for name in fieldnames])
        return buf.getvalue()
    lines = []
    for row in rows:
        items = ", ".join(
            f"{json.dumps(name)}: {_json_value(row.get(name))}" for name in fieldnames
        )
        lines.append("  {" + items + "}")
    return "[\n" + ",\n".join(lines) + "\n]\n"


def _write_output(text: str, out: str | None) -> None:
    if out is None or out == "-":
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


# ---------------------------------------------------------------------------
# argument plumbing


def _add_param_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--A", type=float, default=None, help="anisotropy strength")
    p.add_argument("--B", type=float, default=None, help="transverse field strength")
    p.add_argument("--mu", type=float, default=None, help="gyromagnetic ratio")
    p.add_argument("--hbar", type=float, default=None, help="reduced Planck constant")
    p.add_argument("--config", default=None, help="key = value parameter file")


def _add_output_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--out", default=None, help="output path (default: stdout)")


def _build_params(args: argparse.Namespace) -> PhysicalParams:
    values = {"A": 0.0, "B": 0.0, "mu": 1.0, "hbar": 1.0}
    if args.config:
        values.update(read_params_file(args.config))
    for key in ("A", "B", "mu", "hbar"):
        flag = getattr(args, key, None)
        if flag is not None:
            values[key] = flag
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
            orders.extend(float(v) for v in range(lo, hi + 1))
        else:
            try:
                orders.append(float(token))
            except ValueError as exc:
                raise DomainError(f"bad order token {token!r}") from exc
    if not orders:
        raise DomainError(f"no orders in {spec_str!r}")
    return orders


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="spinchain",
        description="Quasi-exact spectra and verification tools for the "
        "continuum anisotropic spin chain.",
        epilog=_EPILOG,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("project", help="stereographic map, either direction")
    p.add_argument("--s1", type=float, default=None)
    p.add_argument("--s2", type=float, default=None)
    p.add_argument("--s3", type=float, default=None)
    p.add_argument("--P", type=float, default=None)
    p.add_argument("--Q", type=float, default=None)
    p.add_argument("--batch", default=None, help="CSV with (S1,S2,S3) or (P,Q) columns")
    _add_output_flags(p)

    p = sub.add_parser("classical", help="integrate the static Hamilton equations")
    _add_param_flags(p)
    p.add_argument("--P", type=float, default=0.0)
    p.add_argument("--Q", type=float, default=0.0)
    p.add_argument("--PiP", type=float, default=0.0)
    p.add_argument("--PiQ", type=float, default=0.0)
    p.add_argument("--z-span", type=float, nargs=2, default=(0.0, 10.0), metavar=("Z0", "Z1"))
    p.add_argument("--step", type=float, default=1e-3)
    _add_output_flags(p)

    p = sub.add_parser("spectrum", help="quasi-exact level table up to --max-n")
    _add_param_flags(p)
    p.add_argument("--max-n", type=int, required=True)
    _add_output_flags(p)

    p = sub.add_parser("roots", help="all root-set branches of one level")
    _add_param_flags(p)
    p.add_argument("--n", type=int, required=True)
    _add_output_flags(p)

    p = sub.add_parser("mathieu", help="characteristic value and eigenfunctions")
    p.add_argument("--nu", type=float, required=True)
    p.add_argument("--q", type=float, required=True)
    p.add_argument("--parity", choices=("ce", "se"), default="ce")
    p.add_argument("--samples", type=int, default=0, help="emit N samples of ce/se")
    _add_output_flags(p)

    p = sub.add_parser("offplane", help="out-of-plane energy table")
    _add_param_flags(p)
    p.add_argument("--orders", required=True, help="e.g. '0..5' or '0,0.5,1'")
    p.add_argument("--parity", choices=("ce", "se", "both"), default="ce")
    _add_output_flags(p)

    p = sub.add_parser("inplane", help="in-plane energy table")
    _add_param_flags(p)
    p.add_argument("--orders", required=True, help="e.g. '0..5' or '0,0.5,1'")
    p.add_argument("--parity", choices=("ce", "se", "both"), default="ce")
    _add_output_flags(p)

    p = sub.add_parser("verify", help="residual suites / per-level residual profile")
    _add_param_flags(p)
    p.add_argument("--suite", choices=("radial", "mathieu", "nlsm", "all"), default="all")
    p.add_argument("--n", type=int, default=None, help="emit the residual profile of level n")
    p.add_argument("--seed", type=int, default=42)
    _add_output_flags(p)

    return parser


# ---------------------------------------------------------------------------
# command handlers


def _cmd_project(config: RunConfig) -> int:
    s1, s2, s3 = config.opt("s1"), config.opt("s2"), config.opt("s3")
    p, q = config.opt("P"), config.opt("Q")
    if config.opt("batch"):
        rows, fields = _project_batch(config.opt("batch"))
    elif s1 is not None or s2 is not None or s3 is not None:
        if None in (s1, s2, s3):
            raise DomainError("spin input needs all of --s1 --s2 --s3")
        w = stereo.project(stereo.SpinPoint(s1, s2, s3))
        rows = [_plane_row(w)]
        fields = ["P", "Q", "at_infinity"]
    elif p is not None or q is not None:
        if None in (p, q):
            raise DomainError("field input needs both --P and --Q")
        s = stereo.unproject(stereo.ComplexFieldPoint(p, q))
        rows = [{"S1": s.s1, "S2": s.s2, "S3": s.s3}]
        fields = ["S1", "S2", "S3"]
    else:
        raise DomainError("give --s1/--s2/--s3, --P/--Q, or --batch")
    _write_output(_render(rows, fields, config.output_format), config.output_path)
    return _EXIT_OK


def _plane_row(w: stereo.ComplexFieldPoint) -> dict:
    if w.at_infinity:
        return {"P": None, "Q": None, "at_infinity": True}
    return {"P": w.p, "Q": w.q, "at_infinity": False}


def _project_batch(path: str) -> tuple[list[dict], list[str]]:
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        header = reader.fieldnames or []
        rows_in = list(reader)
    cols = {name.strip() for name in header}
    if {"S1", "S2", "S3"} <= cols:
        rows = []
        for r in rows_in:
            s = stereo.SpinPoint(float(r["S1"]), float(r["S2"]), float(r["S3"]))
            rows.append(_plane_row(stereo.project(s)))
        return rows, ["P", "Q", "at_infinity"]
    if {"P", "Q"} <= cols:
        rows = []
        for r in rows_in:
            inf_cell = (r.get("at_infinity") or "").strip().lower()
            if inf_cell == "true":
                w = stereo.POINT_AT_INFINITY
            else:
                w = stereo.ComplexFieldPoint(float(r["P"]), float(r["Q"]))
            s = stereo.unproject(w)
            rows.append({"S1": s.s1, "S2": s.s2, "S3": s.s3})
        return rows, ["S1", "S2", "S3"]
    raise DomainError(f"{path}: need columns (S1,S2,S3) or (P,Q), got {header}")


def _cmd_classical(config: RunConfig) -> int:
    initial = classical.FieldState(
        config.opt("P"), config.opt("Q"), config.opt("PiP"), config.opt("PiQ")
    )
    traj = classical.integrate_static(
        initial, tuple(config.opt("z_span")), config.opt("step"), config.params
    )
    rows = [
        {
            "z": z,
            "P": st.p,
            "Q": st.q,
            "PiP": st.pi_p,
            "PiQ": st.pi_q,
            "H": h,
        }
        for z, st, h in zip(traj.z_grid, traj.states, traj.h_values)
    ]
    _write_output(
        _render(rows, ["z", "P", "Q", "PiP", "PiQ", "H"], config.output_format),
        config.output_path,
    )
    return _EXIT_OK


_SPECTRUM_FIELDS = ["n", "lambda", "l", "branch", "roots", "energy", "bethe_residual"]


def _spectrum_rows(params: PhysicalParams, levels: Sequence[int]) -> list[dict]:
    rows = []
    for n in levels:
        for sol in solve_level(n, params):
            rows.append(
                {
                    "n": sol.indices.n,
                    "lambda": sol.indices.lambda_n,
                    "l": sol.indices.l,
                    "branch": sol.indices.branch,
                    "roots": [complex(z) for z in sol.roots],
                    "energy": sol.energy,
                    "bethe_residual": sol.residual,
                }
            )
    return rows


def _cmd_spectrum(config: RunConfig) -> int:
    max_n = config.opt("max_n")
    if max_n < 0:
        raise DomainError(f"--max-n must be non-negative, got {max_n}")
    rows = _spectrum_rows(config.params, range(max_n + 1))
    _write_output(_render(rows, _SPECTRUM_FIELDS, config.output_format), config.output_path)
    return _EXIT_OK


def _cmd_roots(config: RunConfig) -> int:
    n = config.opt("n")
    if n < 0:
        raise DomainError(f"--n must be non-negative, got {n}")
    rows = _spectrum_rows(config.params, [n])
    _write_output(_render(rows, _SPECTRUM_FIELDS, config.output_format), config.output_path)
    return _EXIT_OK


def _cmd_mathieu(config: RunConfig) -> int:
    nu, q = config.opt("nu"), config.opt("q")
    parity = config.opt("parity")
    samples = config.opt("samples")
    if samples > 0:
        xs = np.linspace(0.0, 2.0 * np.pi, samples, endpoint=False)
        has_se = mathieu.has_branch(nu, "se")
        ce_rec = mathieu.solve(nu, q, "ce")
        se_rec = mathieu.solve(nu, q, "se") if has_se else None
        rows = []
        for x in xs:
            row = {"x": float(x), "ce": float(ce_rec(x))}
            if se_rec is not None:
                row["se"] = float(se_rec(x))
            rows.append(row)
        fields = ["x", "ce"] + (["se"] if has_se else [])
        _write_output(_render(rows, fields, config.output_format), config.output_path)
        return _EXIT_OK
    record = mathieu.solve(nu, q, parity)
    rows = [
        {
            "nu": nu,
            "q": q,
            "parity": parity,
            "a_nu": record.a_nu,
            "truncation": record.problem.truncation,
        }
    ]
    _write_output(
        _render(rows, ["nu", "q", "parity", "a_nu", "truncation"], config.output_format),
        config.output_path,
    )
    return _EXIT_OK


def _spectrum_table(config: RunConfig, compute) -> int:
    orders = _parse_orders(config.opt("orders"))
    parity_flag = config.opt("parity")
    parities = ("ce", "se") if parity_flag == "both" else (parity_flag,)
    rows = []
    for parity in parities:
        usable = [nu for nu in orders if mathieu.has_branch(nu, parity)]
        for nu, e in compute(config.params, usable, parity):
            rows.append({"nu": nu, "parity": parity, "energy": e})
    rows.sort(key=lambda r: (r["nu"], r["parity"]))
    _write_output(_render(rows, ["nu", "parity", "energy"], config.output_format),
                  config.output_path)
    return _EXIT_OK


def _cmd_offplane(config: RunConfig) -> int:
    return _spectrum_table(config, mathieu.offplane_spectrum)


def _cmd_inplane(config: RunConfig) -> int:
    return _spectrum_table(config, mathieu.inplane_spectrum)


def _cmd_verify(config: RunConfig) -> int:
    n = config.opt("n")
    if n is not None:
        rows = []
        for sol in solve_level(n, config.params):
            rep = verify.radial_residual(n, sol, config.params)
            for r, res in zip(rep.grid, rep.residuals):
                rows.append(
                    {
                        "n": n,
                        "branch": sol.indices.branch,
                        "r": float(r),
                        "residual": float(res),
                    }
                )
        _write_output(
            _render(rows, ["n", "branch", "r", "residual"], config.output_format),
            config.output_path,
        )
        return _EXIT_OK

    suite_params = config.params if config.opt("params_given") else None
    cases = verify.run_suite(config.opt("suite"), suite_params, seed=config.opt("seed"))
    rows = [
        {
            "case": c.name,
            "max_residual": c.max_residual,
            "tolerance": c.tolerance,
            "passed": c.passed,
        }
        for c in cases
    ]
    out = config.output_path
    out_is_dir = out is not None and os.path.isdir(out)
    table = _render(rows, ["case", "max_residual", "tolerance", "passed"], config.output_format)
    if out_is_dir:
        sys.stdout.write(table)
        for c in cases:
            if c.report is None:
                continue
            name = re.sub(r"[^A-Za-z0-9.-]+", "_", c.name) + ".csv"
            case_rows = [
                {"grid": float(g), "residual": float(r)}
                for g, r in zip(c.report.grid, c.report.residuals)
            ]
            _write_output(
                _render(case_rows, ["grid", "residual"], "csv"),
                os.path.join(out, name),
            )
    else:
        _write_output(table, out)
    return _EXIT_OK if all(c.passed for c in cases) else _EXIT_SUITE_FAILED


_HANDLERS = {
    "project": _cmd_project,
    "classical": _cmd_classical,
    "spectrum": _cmd_spectrum,
    "roots": _cmd_roots,
    "mathieu": _cmd_mathieu,
    "offplane": _cmd_offplane,
    "inplane": _cmd_inplane,
    "verify": _cmd_verify,
}

_PARAMLESS_COMMANDS = {"project", "mathieu"}


def _make_config(args: argparse.Namespace) -> RunConfig:
    options = {
        k: v for k, v in vars(args).items() if k not in ("command", "format", "out")
    }
    params = None
    if args.command not in _PARAMLESS_COMMANDS:
        params = _build_params(args)
        options["params_given"] = args.A is not None or args.config is not None
    return RunConfig(
        command=args.command,
        output_format=args.format,
        output_path=args.out,
        params=params,
        options=options,
    )


def run(config: RunConfig) -> int:
    """Execute one resolved invocation; returns the process exit status."""
    return _HANDLERS[config.command](config)


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else _EXIT_OK
    try:
        return run(_make_config(args))
    except (DomainError, ConstraintViolationError) as exc:
        print(f"spinchain: domain error: {exc}", file=sys.stderr)
        return _EXIT_DOMAIN
    except (ConvergenceError, DivergenceError) as exc:
        print(f"spinchain: solver error: {exc}", file=sys.stderr)
        return _EXIT_SOLVER
    except FileNotFoundError as exc:
        print(f"spinchain: {exc}", file=sys.stderr)
        return _EXIT_DOMAIN


if __name__ == "__main__":
    sys.exit(main())
