"""Output checks against references that do not use the solver under test.

`check(op, path)` reads the file one op wrote and returns `(reason, rows)`:
`reason` is None when the output is right, else one line naming the first
check that failed (`rows: ...` or `reference: ...`); exit codes and
exceptions are classified by the runner before a check runs.

References:
  roots      eigenvalues of the (n+1)x(n+1) monomial recurrence, built from
             `bethe.heun_coefficients` and solved with numpy.linalg.eigvals,
             plus `verify.radial_residual` on every returned branch;
  mathieu    eigenvalues of the DLMF 28.4 Fourier recurrence matrices,
             solved with numpy.linalg.eigvalsh, for integer orders and
             |q| <= 1e3,
             the DLMF 28.8.1 large-q expansion above, the DLMF 28.2 parity
             relations for q < 0, and the band a_r <= a_nu <= b_{r+1} for
             fractional nu in (r, r+1);
  samples    a spectral (FFT) second derivative of the sampled function,
             which must solve w'' + (a - 2q cos 2x) w = 0 with the
             reference a;
  classical  the H column against the closed-form density of the state
             columns, and energy drift below 1e-8;
  project    numpy closed forms of the stereographic map, exact poles;
  nlsm       the suite's own pass flag.
"""

from __future__ import annotations

import csv
import functools
import json
import math

import numpy as np

from spinchain import bethe, verify
from spinchain.params import PhysicalParams
from workloads import CLASSICAL_STEP, CLASSICAL_STEPS, TABLE_ORDERS

ENERGY_RTOL = 1e-8
RADIAL_TOL = 1e-8
MATRIX_RTOL = 1e-10  # the recurrence agrees with the solver to ~1e-13 for |q| <= 1e3
ASYMPTOTIC_RTOL = 1e-8  # DLMF 28.8.1 to h^-5 is ~1e-10 relative at q = 1e4
MATRIX_MAX_Q = 1e3
SAMPLES_RTOL = 1e-8
DRIFT_TOL = 1e-8
H_RTOL = 1e-10
PROJECT_RTOL = 1e-12


def read_rows(path: str, fmt: str) -> list[dict]:
    with open(path, encoding="utf-8", newline="") as fh:
        if fmt == "json":
            rows = json.load(fh)
            if not isinstance(rows, list):
                raise ValueError("JSON output is not an array")
            return rows
        return list(csv.DictReader(fh))


def _flag(value) -> bool:
    return value is True or value == "true"


def _missing(value) -> bool:
    return value is None or value == ""


def _close(got: float, ref: float, rtol: float) -> bool:
    return abs(got - ref) <= rtol * max(1.0, abs(ref))


# ---------------------------------------------------------------------------
# levels


def _roots(value) -> list[complex]:
    if isinstance(value, list):
        return [complex(re, im) for re, im in value]
    return [complex(cell) for cell in value.split(";")] if value else []


@functools.lru_cache(maxsize=None)
def level_reference(n: int, a_param: float) -> tuple[float, ...]:
    """Energies of level n from the eigenvalues of the monomial recurrence.

    (j+1)(j+b0) s_{j+1} + [-j(j-1) + b1 j + k0] s_j + [b2(j-1) + c1] s_{j-1}
    = -xi s_j for j = 0..n, and E = 2 hbar^2 (xi - a^2/4 + 1) with hbar = 1.
    """
    params = PhysicalParams(A=a_param)
    c = bethe.heun_coefficients(n, params)
    m = np.zeros((n + 1, n + 1))
    for j in range(n + 1):
        if j < n:
            m[j, j + 1] = (j + 1) * (j + c.b0)
        m[j, j] = -j * (j - 1) + c.b1 * j + c.c0
        if j > 0:
            m[j, j - 1] = c.b2 * (j - 1) + c.c1
    xi = -np.linalg.eigvals(m)
    if np.max(np.abs(xi.imag)) > 1e-9 * max(1.0, np.max(np.abs(xi))):
        raise ValueError(f"recurrence eigenvalues are not real for n={n} A={a_param}")
    a = params.a
    return tuple(sorted(float(2.0 * (x - a * a / 4.0 + 1.0)) for x in xi.real))


def _check_roots(op, rows):
    n, a_param = op.meta["n"], op.meta["A"]
    if len(rows) != n + 1:
        return f"rows: {len(rows)} of {n + 1}"
    ref = level_reference(n, a_param)
    energies = sorted(float(r["energy"]) for r in rows)
    for got, want in zip(energies, ref):
        if not _close(got, want, ENERGY_RTOL):
            return f"reference: energy {got!r} vs recurrence {want!r}"
    params = PhysicalParams(A=a_param)
    lam = bethe.lambda_n(n)
    for r in rows:
        sol = bethe.BetheSolution(
            indices=bethe.SpectralIndices(n=n, lambda_n=lam, l=float(-n), branch=int(r["branch"])),
            roots=tuple(_roots(r["roots"])),
            energy=float(r["energy"]),
            xi=0.0,
            residual=0.0,
        )
        if len(sol.roots) != n:
            return f"reference: {len(sol.roots)} roots on a level-{n} row"
        res = verify.radial_residual(n, sol, params).max_rel
        if not res < RADIAL_TOL:
            return f"reference: radial residual {res:.3g}"
    return None


# ---------------------------------------------------------------------------
# mathieu


def _asymptotic(s: int, q: float) -> float:
    """DLMF 28.8.1: a_m(h^2) ~ b_{m+1}(h^2) with s = 2m + 1, h = sqrt(q)."""
    h = math.sqrt(q)
    return (
        -2.0 * h * h
        + 2.0 * s * h
        - (s * s + 1) / 8.0
        - (s**3 + 3 * s) / (2**7 * h)
        - (5 * s**4 + 34 * s**2 + 9) / (2**12 * h**2)
        - (33 * s**5 + 410 * s**3 + 405 * s) / (2**17 * h**3)
        - (63 * s**6 + 1260 * s**4 + 2943 * s**2 + 486) / (2**20 * h**4)
        - (527 * s**7 + 15617 * s**5 + 69001 * s**3 + 41607 * s) / (2**25 * h**5)
    )


@functools.lru_cache(maxsize=None)
def recurrence_values(family: str, q: float) -> np.ndarray:
    """Ascending characteristic values of one DLMF 28.4 family at q >= 0.

    The families are a_{2n}, a_{2n+1}, b_{2n+1} and b_{2n+2}: the equation
    -w'' + 2q cos(2x) w = a w on the Fourier modes cos 2kx, cos (2k+1)x,
    sin (2k+1)x and sin (2k+2)x. The matrix is symmetric tridiagonal; its
    size leaves the modes of the lowest orders negligible at the far end.
    scipy.special.mathieu_a/b are not used: they return a_5 for a_3 near
    q = 15.54 and a_3 for a_5 near q = 20.93.
    """
    size = 60 + int(8.0 * math.sqrt(q))
    k = np.arange(size, dtype=float)
    freq = {"a_even": 2 * k, "a_odd": 2 * k + 1, "b_odd": 2 * k + 1, "b_even": 2 * k + 2}[family]
    m = np.diag(freq**2) + np.diag(np.full(size - 1, q), 1) + np.diag(np.full(size - 1, q), -1)
    if family == "a_even":
        m[0, 1] = m[1, 0] = math.sqrt(2.0) * q
    elif family == "a_odd":
        m[0, 0] += q
    elif family == "b_odd":
        m[0, 0] -= q
    return np.linalg.eigvalsh(m)


def integer_value(m: int, parity: str, q: float) -> tuple[float, float]:
    """(a_m(q) or b_m(q), relative tolerance) for integer order m."""
    if q == 0.0:
        return float(m * m), MATRIX_RTOL
    if q < 0 and m % 2 == 1:
        # DLMF 28.2: a_{2n+1}(-q) = b_{2n+1}(q) and vice versa; even orders keep
        parity = "se" if parity == "ce" else "ce"
    q = abs(q)
    if q <= MATRIX_MAX_Q:
        family = ("a" if parity == "ce" else "b") + ("_odd" if m % 2 else "_even")
        index = m // 2 if parity == "ce" or m % 2 else m // 2 - 1
        return float(recurrence_values(family, q)[index]), MATRIX_RTOL
    s = 2 * m + 1 if parity == "ce" else 2 * m - 1
    return _asymptotic(s, q), ASYMPTOTIC_RTOL


def mathieu_reason(nu: float, parity: str, q: float, got: float) -> str | None:
    """None if a_nu(q) = got is right, else the reference it misses."""
    if nu == round(nu):
        want, rtol = integer_value(int(round(nu)), parity, q)
        if _close(got, want, rtol):
            return None
        return f"reference: a={got!r} vs {want!r}"
    r = math.floor(nu)
    lo, rtol_lo = integer_value(r, "ce", abs(q))
    hi, rtol_hi = integer_value(r + 1, "se", abs(q))
    rtol = max(rtol_lo, rtol_hi)
    if lo - rtol * max(1.0, abs(lo)) <= got <= hi + rtol * max(1.0, abs(hi)):
        return None
    return f"reference: a={got!r} outside band [{lo!r}, {hi!r}]"


def _check_mathieu(op, rows):
    if len(rows) != 1:
        return f"rows: {len(rows)} of 1"
    m = op.meta
    return mathieu_reason(m["nu"], m["parity"], m["q"], float(rows[0]["a_nu"]))


# (nu, parity) rows of an offplane/inplane table, in the CLI's sort order
TABLE_ROWS = sorted(
    (float(t), p)
    for p in ("ce", "se")
    for t in TABLE_ORDERS.split(",")
    if not (p == "se" and float(t) == 0)
)


def _check_table(op, rows):
    if len(rows) != len(TABLE_ROWS):
        return f"rows: {len(rows)} of {len(TABLE_ROWS)}"
    if op.kind == "offplane":
        a_param = op.meta["A"]
        q = -a_param / 32.0
        to_a = lambda e: (e + a_param / 8.0) / 2.0  # noqa: E731
    else:
        q = op.meta["B"] / 4.0
        to_a = lambda e: 2.0 * e  # noqa: E731
    for row, (nu, parity) in zip(rows, TABLE_ROWS):
        if float(row["nu"]) != nu or row["parity"] != parity:
            return f"rows: got ({row['nu']}, {row['parity']}) where ({nu:g}, {parity}) belongs"
        reason = mathieu_reason(nu, parity, q, to_a(float(row["energy"])))
        if reason:
            return f"{reason} (nu={nu:g} {parity})"
    return None


def _check_samples(op, rows):
    m = op.meta
    n_samples, nu, q = m["samples"], m["nu"], m["q"]
    if len(rows) != n_samples:
        return f"rows: {len(rows)} of {n_samples}"
    x = np.array([float(r["x"]) for r in rows])
    grid = 2.0 * np.pi * np.arange(n_samples) / n_samples
    if not np.allclose(x, grid, rtol=0.0, atol=1e-12):
        return "reference: x grid"
    k = np.fft.fftfreq(n_samples, d=1.0 / n_samples)
    for parity in ("ce", "se") if nu != 0 else ("ce",):
        if any(_missing(r.get(parity)) for r in rows):
            return f"rows: missing {parity} column"
        w = np.array([float(r[parity]) for r in rows])
        if not np.max(np.abs(w)) > 1e-3:
            return f"reference: {parity} vanishes"
        a, _ = integer_value(int(nu), parity, q)
        wpp = np.fft.ifft(-(k**2) * np.fft.fft(w)).real
        pot = 2.0 * q * np.cos(2.0 * x)
        residual = wpp + (a - pot) * w
        scale = max(np.max(np.abs(wpp)), np.max(np.abs((a - pot) * w)))
        if not np.max(np.abs(residual)) / scale < SAMPLES_RTOL:
            return f"reference: {parity} misses the ODE by {np.max(np.abs(residual)) / scale:.3g}"
    return None


# ---------------------------------------------------------------------------
# trajectories


def _check_classical(op, rows):
    st = op.meta
    if len(rows) != CLASSICAL_STEPS + 1:
        return f"rows: {len(rows)} of {CLASSICAL_STEPS + 1}"
    cols = {name: np.array([float(r[name]) for r in rows]) for name in ("z", "P", "Q", "PiP", "PiQ", "H")}
    if not np.allclose(cols["z"], CLASSICAL_STEP * np.arange(CLASSICAL_STEPS + 1), rtol=1e-12, atol=1e-12):
        return "reference: z grid"
    for name in ("P", "Q", "PiP", "PiQ"):
        if not _close(cols[name][0], st[name], 1e-14):
            return f"reference: initial {name}"
    u = cols["P"] ** 2 + cols["Q"] ** 2
    d = 1.0 + u
    h = 0.5 * d * d * (cols["PiP"] ** 2 + cols["PiQ"] ** 2) - 0.25 * st["A"] * (1.0 - u) ** 2 / (d * d)
    if not np.all(np.abs(cols["H"] - h) <= H_RTOL * np.maximum(1.0, np.abs(h))):
        return "reference: H column vs closed-form density"
    drift = float(np.max(np.abs(cols["H"] - cols["H"][0])) / max(1.0, abs(cols["H"][0])))
    if not drift < DRIFT_TOL:
        return f"reference: energy drift {drift:.3g}"
    return None


@functools.lru_cache(maxsize=8)
def _project_input(path: str) -> tuple[np.ndarray, np.ndarray]:
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.DictReader(fh))
    if "S1" in rows[0]:
        vals = np.array([[float(r["S1"]), float(r["S2"]), float(r["S3"])] for r in rows])
        return vals, np.zeros(len(rows), dtype=bool)
    inf = np.array([r["at_infinity"] == "true" for r in rows])
    vals = np.array([[0.0, 0.0] if i else [float(r["P"]), float(r["Q"])] for r, i in zip(rows, inf)])
    return vals, inf


def _array_close(got: np.ndarray, want: np.ndarray) -> bool:
    return bool(np.all(np.abs(got - want) <= PROJECT_RTOL * np.maximum(1.0, np.abs(want))))


def _check_project(op, rows):
    vals, inf_in = _project_input(op.meta["path"])
    if len(rows) != len(vals):
        return f"rows: {len(rows)} of {len(vals)}"
    if op.meta["direction"] == "spin":
        pole = vals[:, 2] == -1.0
        got_inf = np.array([_flag(r["at_infinity"]) for r in rows])
        if not np.array_equal(got_inf, pole):
            return "reference: at_infinity flags"
        if not all(_missing(r["P"]) and _missing(r["Q"]) for r, p in zip(rows, pole) if p):
            return "reference: coordinates on a pole row"
        finite = [r for r, p in zip(rows, pole) if not p]
        got = np.array([[float(r["P"]), float(r["Q"])] for r in finite])
        s = vals[~pole]
        want = s[:, :2] / (1.0 + s[:, 2:3])
    else:
        got = np.array([[float(r["S1"]), float(r["S2"]), float(r["S3"])] for r in rows])
        u = np.sum(vals**2, axis=1)
        want = np.column_stack([2.0 * vals[:, 0], 2.0 * vals[:, 1], 1.0 - u]) / (1.0 + u)[:, None]
        want[inf_in] = (0.0, 0.0, -1.0)
        if not np.array_equal(got[inf_in], want[inf_in]):
            return "reference: exact pole rows"
    if not _array_close(got, want):
        return "reference: projected values"
    return None


def _check_nlsm(op, rows):
    if len(rows) != 1:
        return f"rows: {len(rows)} of 1"
    if rows[0]["case"] != f"nlsm seed={op.meta['seed']}":
        return f"reference: case {rows[0]['case']!r}"
    if not _flag(rows[0]["passed"]):
        return "reference: passed=false"
    return None


_CHECKERS = {
    "roots": _check_roots,
    "mathieu": _check_mathieu,
    "offplane": _check_table,
    "inplane": _check_table,
    "samples": _check_samples,
    "classical": _check_classical,
    "project": _check_project,
    "nlsm": _check_nlsm,
}


def check_rows(op, rows: list[dict]) -> str | None:
    try:
        return _CHECKERS[op.kind](op, rows)
    except (KeyError, TypeError, ValueError) as exc:
        return f"reference: unreadable output ({type(exc).__name__}: {exc})"


def check(op, path: str) -> tuple[str | None, int]:
    """(failure reason or None, rows written) for the output of one op."""
    try:
        rows = read_rows(path, op.fmt)
    except (OSError, ValueError, csv.Error) as exc:
        return f"reference: unreadable output ({type(exc).__name__})", 0
    return check_rows(op, rows), len(rows)


# ---------------------------------------------------------------------------
# negative controls: each mutation of a right output must be caught


def _perturb(rows: list[dict], column: str) -> list[dict]:
    rows = [dict(r) for r in rows]
    for r in rows:
        if not _missing(r.get(column)):
            r[column] = repr(float(r[column]) * (1.0 + 1e-6) + 1e-9)
            return rows
    raise ValueError(f"no value in column {column!r} to perturb")


def _drop_row(rows: list[dict]) -> list[dict]:
    return rows[:-1]


CONTROLS = {
    "roots": [("perturb one energy", lambda rows: _perturb(rows, "energy")), ("drop one row", _drop_row)],
    "mathieu": [("perturb one a_nu", lambda rows: _perturb(rows, "a_nu"))],
    "offplane": [("drop one row", _drop_row)],
    "project": [
        ("perturb one projected row", lambda rows: _perturb(rows, "P" if "P" in rows[0] else "S1")),
        ("drop one row", _drop_row),
    ],
}


def control_candidate(op) -> bool:
    """Whether a right output of `op` can host the controls of its kind.

    A fractional order is checked against a band, which a small
    perturbation of a_nu can stay inside.
    """
    if op.kind == "mathieu":
        return op.meta["nu"] == round(op.meta["nu"])
    return op.kind in CONTROLS


def negative_controls(op, path: str) -> dict[str, str | None]:
    """Mutate a right output of `op` in each way CONTROLS lists for its kind.

    Returns the failure reason the checker gives each mutant; None means
    the checker missed it.
    """
    rows = read_rows(path, op.fmt)
    return {name: check_rows(op, mutate(rows)) for name, mutate in CONTROLS.get(op.kind, [])}
