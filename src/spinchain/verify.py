"""Independent verification layer: residual checks and discretized oracles.

Residuals are normalized pointwise by the largest magnitude among the
individual terms of the operator being applied, because the raw residual is
meaningless near r -> 0 where single terms diverge like r^{lambda - 2}.
A closed form that genuinely solves its equation scores ~1e-13 on this
metric; perturbing a spectral parameter by 0.01..0.1 lifts it by many
orders, and the tests pin both directions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import mathieu as _mathieu
from . import stereo
from .bethe import BetheSolution, radial_derivatives, solve_level
from .errors import ConvergenceError, DomainError
from .mathieu import MathieuSolutionRecord
from .params import PhysicalParams

DEFAULT_RADIAL_GRID = np.logspace(-1.0, 1.0, 101)
RADIAL_TOL = 1e-8
MATHIEU_TOL = 1e-8
NLSM_TOL = 1e-8

#: Fourier modes of each random field path of nlsm_equivalence
_FOURIER_MODES = 6


@dataclass(frozen=True)
class ResidualReport:
    """Pointwise residual profile of one closed-form/ODE pair."""

    grid: np.ndarray
    residuals: np.ndarray
    max_rel: float
    passed: bool
    tolerance: float


def radial_residual(
    n: int, sol: BetheSolution, params: PhysicalParams, energy: float | None = None
) -> ResidualReport:
    """Apply the radial operator to the level-n radial factor.

    The operator is

        chi'' + (4r/(1+r^2) + 1/r) chi'
          + [-lambda^2/r^2 + 8/(1+r^2)
             + ((2E/hbar^2 + A/(2 hbar^2)) - 4)/(1+r^2)^2
             - (2A/hbar^2)/(1+r^2)^3 + (2A/hbar^2)/(1+r^2)^4] chi

    with all derivatives analytic, on DEFAULT_RADIAL_GRID against RADIAL_TOL.
    `energy` overrides sol.energy, which is how the negative controls inject
    a wrong eigenvalue. A residual that is not finite, as where e^{a/(1+r^2)}
    overflows for large a, raises ConvergenceError.
    """
    if sol.indices.n != n:
        raise DomainError(f"solution is for n = {sol.indices.n}, not {n}")
    e_val = sol.energy if energy is None else float(energy)
    lam = sol.indices.lambda_n
    hbar2 = params.hbar**2
    r = DEFAULT_RADIAL_GRID
    d = 1.0 + r * r

    with np.errstate(over="ignore", invalid="ignore"):
        chi, chip, chipp = radial_derivatives(n, sol.roots, params, r)
        coef1 = 4.0 * r / d + 1.0 / r
        pieces = (
            -(lam * lam) / (r * r),
            8.0 / d,
            ((2.0 * e_val / hbar2 + params.A / (2.0 * hbar2)) - 4.0) / d**2,
            -(2.0 * params.A / hbar2) / d**3,
            (2.0 * params.A / hbar2) / d**4,
        )
        residual = chipp + coef1 * chip + sum(pieces) * chi
        term_mags = [np.abs(chipp), np.abs(coef1 * chip)]
        term_mags += [np.abs(p * chi) for p in pieces]
    bad = np.flatnonzero(~np.isfinite(residual))
    if bad.size:
        raise ConvergenceError(
            f"radial residual of level n = {n} is not finite at r = {float(r[bad[0]]):.6g}"
        )
    return _report(r, residual, np.maximum.reduce(term_mags), RADIAL_TOL)


def mathieu_residual(
    record: MathieuSolutionRecord, a_value: float | None = None
) -> ResidualReport:
    """w'' + (a - 2q cos 2x) w from the trigonometric series, exact per mode.

    Evaluated on max(64, 4 max|f_j|) equispaced points of [0, 2 pi), f_j
    the series' frequencies, against MATHIEU_TOL; `a_value` overrides
    record.a_nu, as `energy` does for radial_residual. Four points per
    period of the highest frequency resolve the peak of w however narrow
    it is: at |q| = 1e7 it is about |q|^(-1/4) = 0.02 wide, and 64 points,
    spaced 0.1, miss it, so that correct and wrong values read alike.

    The pointwise denominator is floored at 1e-3 max(1, largest term on the
    grid): where w decays to rounding level, the residual is rounding of
    terms of the size of that largest one, so a fixed floor would fail
    correct large-|q| solutions.
    """
    points = max(64, int(4.0 * np.max(np.abs(record.frequencies))))
    x = np.linspace(0.0, 2.0 * np.pi, points, endpoint=False)
    a_val = record.a_nu if a_value is None else float(a_value)
    q = record.problem.q
    w, wpp = record.value_and_second_derivative(x)
    pot = 2.0 * q * np.cos(2.0 * x)
    residual = wpp + (a_val - pot) * w
    terms = np.maximum.reduce([np.abs(wpp), np.abs(a_val * w), np.abs(pot * w)])
    denom = np.maximum(terms, 1e-3 * max(1.0, float(np.max(terms))))
    return _report(x, residual, denom, MATHIEU_TOL)


def _report(
    grid: np.ndarray, residual: np.ndarray, denom: np.ndarray, tolerance: float
) -> ResidualReport:
    """The report of a residual profile, judged on its largest relative value."""
    residuals = np.abs(residual)
    max_rel = float(np.max(residuals / denom))
    return ResidualReport(
        grid=grid,
        residuals=residuals,
        max_rel=max_rel,
        passed=max_rel < tolerance,
        tolerance=tolerance,
    )


def fd_eigs_periodic(q: float, nodes: int, count: int) -> np.ndarray:
    """Lowest eigenvalues of the periodic 3-point discretization.

    -w'' + 2q cos(2x) w = a w on [0, 2 pi) with the standard second-order
    central-difference Laplacian. Eigenvalue error is O(h^2) with constant
    ~nu^4/12, so at 2048 nodes the raw values are good to ~5e-4 for nu = 5;
    use fd_eigs_richardson where sharper agreement is required.
    """
    from scipy import sparse  # imported here: scipy.sparse is slow to load
    from scipy.sparse.linalg import eigsh

    if nodes < 256:
        raise DomainError(f"need at least 256 nodes, got {nodes}")
    h = 2.0 * np.pi / nodes
    x = h * np.arange(nodes)
    main = 2.0 / h**2 + 2.0 * q * np.cos(2.0 * x)
    off = np.full(nodes - 1, -1.0 / h**2)
    corner = off[:1]  # the periodic wrap couples node 0 and node nodes - 1
    mat = sparse.diags(
        [main, off, off, corner, corner], [0, -1, 1, 1 - nodes, nodes - 1], format="csr"
    )
    # shift below the spectrum (>= -2|q|) so shift-invert targets the bottom
    sigma = -2.0 * abs(q) - 1.0
    # a fixed start vector: ARPACK's default one is random
    vals = eigsh(
        mat, k=count, sigma=sigma, which="LM", v0=np.ones(nodes), return_eigenvectors=False
    )
    return np.sort(vals)


def fd_eigs_richardson(q: float, nodes: int, count: int) -> np.ndarray:
    """h^2 -> 0 Richardson extrapolation of fd_eigs_periodic over nodes/2, nodes."""
    coarse = fd_eigs_periodic(q, nodes // 2, count)
    fine = fd_eigs_periodic(q, nodes, count)
    return (4.0 * fine - coarse) / 3.0


def _random_fourier_paths(rng: np.random.Generator, samples: int) -> tuple[np.ndarray, np.ndarray]:
    """(samples, 4, _FOURIER_MODES) Fourier amplitudes of smooth random (P, Q) paths,
    and a z on each.

    Drawn path by path, amplitudes then z. Amplitudes decay as 0.4/m^2:
    decaying spectra keep the h = 1e-4 finite-difference variant within its
    O(h^2) budget while still covering an O(1) patch of the field plane.
    """
    m = np.arange(1, _FOURIER_MODES + 1)
    amps = np.empty((samples, 4, _FOURIER_MODES))
    z = np.empty(samples)
    for i in range(samples):
        amps[i] = 0.4 * rng.normal(size=(4, _FOURIER_MODES)) / m**2
        z[i] = rng.uniform(0.0, 2.0 * np.pi)
    return amps, z


def _fourier_fields(
    amps: np.ndarray, z: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(P, Q, P_z, Q_z) of every path at its own z, analytically, as columns."""
    m = np.arange(1, amps.shape[2] + 1)
    c, s = np.cos(m * z[:, None]), np.sin(m * z[:, None])
    ap, bp, aq, bq = amps.transpose(1, 0, 2)
    p = np.sum(ap * c + bp * s, axis=1)
    q = np.sum(aq * c + bq * s, axis=1)
    pz = np.sum(m * (-ap * s + bp * c), axis=1)
    qz = np.sum(m * (-aq * s + bq * c), axis=1)
    return p, q, pz, qz


def nlsm_equivalence(samples: int, seed: int, derivative: str = "analytic") -> float:
    """Max deviation between the spherical and planar kinetic densities.

    Draws `samples` random smooth field paths (finite Fourier sums with
    1/m^2 amplitudes, deterministic from `seed`), maps each to the sphere,
    and compares (1/2)|dS/dz|^2 against 2(P_z^2+Q_z^2)/(1+P^2+Q^2)^2 at one
    random z per path. derivative="fd" replaces the chain-rule tangent by a
    central difference of step 1e-4 on the mapped path. All paths go
    through the column maps and densities of `stereo` at once.
    """
    if samples <= 0:
        raise DomainError(f"sample count must be positive, got {samples}")
    if seed < 0:
        raise DomainError(f"seed must be non-negative, got {seed}")
    if derivative not in ("analytic", "fd"):
        raise DomainError(f"derivative must be 'analytic' or 'fd', got {derivative!r}")
    amps, z = _random_fourier_paths(np.random.default_rng(seed), samples)
    p, q, pz, qz = _fourier_fields(amps, z)
    at_infinity = np.zeros(samples, dtype=bool)
    s = stereo.unproject_array(np.column_stack([p, q]), at_infinity)
    if derivative == "analytic":
        sz = stereo.pushforward(p, q, pz, qz)
    else:
        h = 1e-4
        s_plus, s_minus = (
            stereo.unproject_array(np.column_stack(_fourier_fields(amps, z + dz)[:2]), at_infinity)
            for dz in (h, -h)
        )
        sz = stereo.tangent_part(s, (s_plus - s_minus) / (2.0 * h))
    k_sphere = stereo.density_sphere(s, sz)
    k_plane = stereo.density_plane(p, q, pz, qz)
    return float(np.max(np.abs(k_sphere - k_plane)))


# ---------------------------------------------------------------------------
# suite runner used by the CLI


@dataclass(frozen=True)
class SuiteCase:
    name: str
    max_residual: float
    tolerance: float
    passed: bool
    report: ResidualReport | None = None


def run_suite(suite: str, params: PhysicalParams, seed: int = 42) -> list[SuiteCase]:
    """Run the named verification suite (radial, mathieu, nlsm, or all)."""
    if suite not in ("radial", "mathieu", "nlsm", "all"):
        raise DomainError(f"unknown suite {suite!r}")
    # the nlsm case runs first, so a bad seed fails before any other case; its row stays last
    dev = nlsm_equivalence(100, seed) if suite in ("nlsm", "all") else None
    reports: list[tuple[str, ResidualReport]] = []
    if suite in ("radial", "all"):
        for n in (0, 1, 2):
            reports += [
                (f"radial n={n} branch={sol.indices.branch}", radial_residual(n, sol, params))
                for sol in solve_level(n, params)
            ]
    if suite in ("mathieu", "all"):
        for nu, q, parity in ((1.0, 1.0, "ce"), (1.0, 1.0, "se"), (0.5, 1.0, "ce"), (2.0, 5.0, "ce")):
            rep = mathieu_residual(_mathieu.solve(nu, q, parity))
            reports.append((f"mathieu nu={nu:g} q={q:g} {parity}", rep))
    cases = [
        SuiteCase(name, rep.max_rel, rep.tolerance, rep.passed, report=rep)
        for name, rep in reports
    ]
    if dev is not None:
        cases.append(SuiteCase(f"nlsm seed={seed}", dev, NLSM_TOL, dev < NLSM_TOL))
    return cases
