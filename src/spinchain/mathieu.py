"""Mathieu characteristic values and functions for real order nu >= 0.

Inserting the Floquet form w(x) = sum_k c_k e^{i(nu + 2k)x} into

    w'' + (a - 2 q cos 2x) w = 0

turns the equation into a symmetric tridiagonal eigenproblem on the
coefficients: diagonal (nu + 2k)^2, off-diagonal q. The characteristic
value a_nu(q) is the eigenvalue branch connected to nu^2 at q = 0.

For integer nu the exponent lattice contains +-nu and the q = 0 value nu^2
is doubly degenerate; the reflection k -> -nu - k commutes with the matrix,
so the basis is folded onto its cosine (symmetric) and sine (antisymmetric)
combinations first. Every other nu, however near an integer, takes the full
lattice and one value for both parities. Every matrix is then a Jacobi
matrix: tridiagonal with nonzero couplings for q != 0, so its eigenvalues
are simple and never cross as q varies (DLMF 28.2, 28.6). The branch of
order nu is therefore the rank of nu among the q = 0 frequencies of its
basis, for fractional and integer orders alike, with no tracking in q;
this gives the classical a_n (cosine type) and b_n (sine type) values
even where their splitting is far below eigensolver resolution.

That one eigenvalue is found by LAPACK bisection (stebz) with an absolute
tolerance of twice the smallest normal number, so the interval shrinks to
rounding relative to the eigenvalue itself rather than to eps times the
1-norm of the matrix, whose largest diagonal entry grows as the square of
the truncation. The truncation is doubled until the value moves by less
than 1e-12 max(1, |a|); each truncation's eigensolve returns the value
together with its eigenvector, so the final one needs no second solve.

The two reductions of the spin-chain problem map onto this engine as

    off-plane: a = E/(2 hbar^2) + A/(16 hbar^2),  q = -A/(32 hbar^2)
    in-plane:  a = 2E/hbar^2,                     q = mu B/(4 hbar^2)
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ConvergenceError, DomainError
from .params import PhysicalParams

_VALUE_TOL = 1e-12
_MIN_SIZE = 16
_MAX_SIZE = 4096
# bisect to rounding of the eigenvalue, not of the matrix norm (see above)
_BISECTION_TOL = 2.0 * np.finfo(float).tiny


@dataclass(frozen=True)
class MathieuProblem:
    """Order, parameter, and the Fourier matrix size actually used."""

    nu: float
    q: float
    truncation: int


@dataclass(frozen=True)
class MathieuSolutionRecord:
    """Characteristic value with the trigonometric series realizing it.

    The eigenfunction is sum_j c_j cos(f_j x) for cosine parity and
    sum_j c_j sin(f_j x) for sine parity, with a positive entry at the
    principal frequency, so at q = 0 the function is exactly cos(nu x) or
    sin(nu x). The coefficients have unit l2 norm in the basis solved: the
    parity-folded one for an order equal to an integer, the full lattice
    nu + 2k otherwise, so orders 0 and 1e-13 differ in scale (at q = 1,
    ce(0) is 0.5203 and 0.5442). For fractional orders both parities share
    one characteristic value and one coefficient vector.
    """

    problem: MathieuProblem
    a_nu: float
    parity: str
    frequencies: np.ndarray
    fourier_coeffs: np.ndarray

    def __call__(self, x) -> np.ndarray:
        return self._basis(x) @ self.fourier_coeffs

    def value_and_second_derivative(self, x) -> tuple[np.ndarray, np.ndarray]:
        """(w, w'') at x, both summed from one evaluation of the basis."""
        basis, c = self._basis(x), self.fourier_coeffs
        w = basis @ c
        # w'' from the same matrix, scaled in place: one points x frequencies array
        basis *= self.frequencies**2
        return w, np.negative(basis, out=basis) @ c

    def _basis(self, x) -> np.ndarray:
        """cos(f_j x) or sin(f_j x), one column per frequency."""
        phase = np.multiply.outer(np.asarray(x, dtype=float), self.frequencies)
        return (np.cos if self.parity == "ce" else np.sin)(phase, out=phase)


def has_branch(nu: float, parity: str) -> bool:
    """Whether the branch exists: every order but 0 has a sine type."""
    return not (parity == "se" and nu == 0)


def _tridiagonal(
    nu: float, q: float, parity: str, size: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Frequencies, diagonal and off-diagonal of the truncated Floquet matrix.

    Any order that is not equal to an integer uses the full exponent lattice
    nu + 2k, |k| <= size, with diagonal (nu + 2k)^2 and off-diagonal q;
    parity does not enter. An order equal to an integer n uses a
    parity-folded basis of size functions for -w'' + 2q cos(2x) w = a w:

      cosine, n even: w = sum_{j>=0} A_j cos(2jx); the A_0 row is
        symmetrized by A_0 -> A_0 sqrt(2), giving off-diagonals
        (sqrt(2) q, q, q, ...) on diagonal (0, 4, 16, ...).
      cosine, n odd:  basis cos((2j+1)x), diagonal (1 + q, 9, 25, ...).
      sine, n odd:    basis sin((2j+1)x), diagonal (1 - q, 9, 25, ...).
      sine, n even:   basis sin((2j+2)x), diagonal (4, 16, ...).

    The returned frequencies are those of the q = 0 basis functions.
    """
    if not nu.is_integer():
        # one ulp from an integer m, (m - d)^2 and (m + d)^2 are still distinct
        # doubles, so the rank rule picks the order's own band on this lattice
        freqs = nu + 2.0 * np.arange(-size, size + 1)
        return freqs, freqs**2, np.full(2 * size, q)
    n = int(nu)
    if n % 2 == 1:
        start = 1.0
    else:
        start = 0.0 if parity == "ce" else 2.0
    freqs = 2.0 * np.arange(size) + start
    diag = freqs**2
    off = np.full(size - 1, q)
    if n % 2 == 1:
        diag[0] += q if parity == "ce" else -q
    elif parity == "ce":
        off[0] = q * math.sqrt(2.0)  # on Python floats, which overflow to inf without a warning
        if math.isinf(off[0]):  # |q| above DBL_MAX/sqrt(2)
            raise ConvergenceError(f"the coupling sqrt(2) q overflows for nu={nu}, q={q}")
    return freqs, diag, off


def solve(nu: float, q: float, parity: str = "ce") -> MathieuSolutionRecord:
    """Characteristic value and eigenfunction series for order nu.

    parity picks the cosine-type ("ce") or sine-type ("se") branch; integer
    orders carry distinct characteristic values (a_n vs b_n), fractional
    orders share one. "se" of order 0 does not exist.
    """
    # scipy.linalg takes about 0.35 s to import; commands without Mathieu skip it
    from scipy.linalg import eigh_tridiagonal

    # an int q would make an int off-diagonal, truncating the sqrt(2) scaling
    nu, q = float(nu), float(q)
    if not (math.isfinite(nu) and math.isfinite(q)):
        raise DomainError("nu and q must be finite")
    if nu < 0:
        raise DomainError(f"order must be non-negative, got {nu!r}")
    if parity not in ("ce", "se"):
        raise DomainError(f"parity must be 'ce' or 'se', got {parity!r}")
    if not has_branch(nu, parity):
        raise DomainError("there is no sine-type branch of order 0")

    if q == 0.0:
        # exact short circuit: a_nu(0) = nu^2 with a single trigonometric mode
        a_val, freqs, coeffs = nu * nu, np.array([nu]), np.array([1.0])
        if not math.isfinite(a_val):
            raise ConvergenceError(f"a_nu = nu^2 overflows for nu={nu}, q={q}")
    else:
        # capped as a float first: above about 9e307, 2 * nu is inf, which has no int
        size = int(min(2.0 * nu, _MAX_SIZE)) + _MIN_SIZE
        a_prev = None
        try:
            while True:
                if size > _MAX_SIZE:
                    raise ConvergenceError(
                        f"Mathieu truncation did not converge for nu={nu}, q={q}"
                    )
                freqs, diag, off = _tridiagonal(nu, q, parity, size)
                # eigenvalues of a Jacobi matrix never cross as q moves off 0, so
                # the branch keeps the rank its q = 0 frequency has
                principal = int(np.argmin(np.abs(freqs - nu)))
                rank = int(np.count_nonzero(np.abs(freqs) < abs(freqs[principal])))
                values, vectors = eigh_tridiagonal(
                    diag, off, select="i", select_range=(rank, rank), tol=_BISECTION_TOL
                )
                a_val = float(values[0])
                if a_prev is not None and abs(a_val - a_prev) < _VALUE_TOL * max(1.0, abs(a_val)):
                    break
                a_prev = a_val
                size *= 2
        except np.linalg.LinAlgError as exc:  # LAPACK's bisection fails near |q| = 1e300
            raise ConvergenceError(f"Mathieu eigensolve failed for nu={nu}, q={q}: {exc}") from None
        coeffs = vectors[:, 0]
        if parity == "ce" and nu % 2 == 0:
            coeffs[0] /= math.sqrt(2.0)  # undo the symmetrization scaling
        coeffs = coeffs / float(np.linalg.norm(coeffs))
        if coeffs[principal] < 0:
            coeffs = -coeffs
    return MathieuSolutionRecord(
        problem=MathieuProblem(nu=nu, q=q, truncation=len(freqs)),
        a_nu=a_val,
        parity=parity,
        frequencies=freqs,
        fourier_coeffs=coeffs,
    )


def characteristic_value(nu: float, q: float, parity: str = "ce") -> float:
    """a_nu(q): the eigenvalue branch connected to nu^2 at q = 0."""
    return solve(nu, q, parity).a_nu


def mathieu_ce(nu: float, q: float, x) -> float | np.ndarray:
    """Cosine-type Mathieu function; reduces to cos(nu x) at q = 0."""
    value = solve(nu, q, "ce")(x)
    return float(value) if np.isscalar(x) else value


def mathieu_se(nu: float, q: float, x) -> float | np.ndarray:
    """Sine-type Mathieu function; reduces to sin(nu x) at q = 0."""
    value = solve(nu, q, "se")(x)
    return float(value) if np.isscalar(x) else value


def offplane_spectrum(
    params: PhysicalParams, orders: Sequence[float], parity: str = "ce"
) -> list[tuple[float, float]]:
    """Energies E_nu = -A/8 + 2 hbar^2 a_nu(q) of the out-of-plane reduction.

    q = -A/(32 hbar^2) accepts any real A; no easy-plane restriction
    applies here.
    """
    q = params.q_offplane
    h2 = params.hbar**2
    return _finite_energies([
        (float(nu), -params.A / 8.0 + 2.0 * (h2 * characteristic_value(nu, q, parity)))
        for nu in orders
    ])


def inplane_spectrum(
    params: PhysicalParams, orders: Sequence[float], parity: str = "ce"
) -> list[tuple[float, float]]:
    """Energies E_nu = (hbar^2/2) a_nu(q) of the in-plane reduction.

    q = mu B/(4 hbar^2); at B = 0 the q = 0 short circuit makes the ladder
    E_n = hbar^2 n^2 / 2 exact.
    """
    q = params.q_inplane
    h2 = params.hbar**2
    return _finite_energies([
        (float(nu), 0.5 * h2 * characteristic_value(nu, q, parity)) for nu in orders
    ])


def _finite_energies(rows: list[tuple[float, float]]) -> list[tuple[float, float]]:
    """The (nu, E) rows unchanged, or ConvergenceError naming the first E that overflowed."""
    for nu, e in rows:
        if not math.isfinite(e):
            raise ConvergenceError(f"energy of order nu={nu:g} is not finite: {e!r}")
    return rows


def theta_from_field(p: float) -> float:
    """Angle variable theta = 2 arccot(P), mapping the real line onto (0, 2 pi)."""
    if not math.isfinite(p):
        raise DomainError(f"P must be finite, got {p!r}")
    return 2.0 * math.atan2(1.0, p)


def offplane_wavefunction(record: MathieuSolutionRecord, p: float) -> float:
    """Evaluate an off-plane eigenfunction at field value P via theta(P)."""
    return float(record(theta_from_field(p)))


def inplane_eigenstate(
    n: int, p: float, q: float, z: float, params: PhysicalParams
) -> complex:
    """Zero-field in-plane mode e^{i E_n z / hbar} cos[(n/2) arctan(Q/P)].

    E_n = hbar^2 n^2 / 2 and the overall constant is 1. Only defined away
    from the origin, where arctan(Q/P) has no value; requires B = 0.
    """
    if n < 0:
        raise DomainError(f"mode index must be non-negative, got {n}")
    if params.B != 0.0:
        raise DomainError("closed-form in-plane modes require B = 0")
    if p == 0.0 and q == 0.0:
        raise DomainError("in-plane angle is undefined at the origin (P, Q) = (0, 0)")
    if p == 0.0:
        angle = math.copysign(math.pi / 2.0, q)
    else:
        angle = math.atan(q / p)
    e_n = 0.5 * params.hbar**2 * n * n
    phase = e_n * z / params.hbar
    return complex(math.cos(phase), math.sin(phase)) * math.cos(0.5 * n * angle)
