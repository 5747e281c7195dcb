"""Functional Bethe-ansatz solver for the confluent-Heun radial problem.

With B = 0 the radial equation separates off an angular factor e^{i lambda phi}
and, after the substitution

    chi(r) = r^lambda (1 + r^2)^{-l} exp[a/(1 + r^2)] S(zeta),
    zeta = 1/(1 + r^2),   a = sqrt(A/(2 hbar^2)),

reduces to a confluent Heun equation for S:

    zeta(1 - zeta) S'' + [b0 + b1 zeta + b2 zeta^2] S' + [c0 + c1 zeta] S = 0,
    b0 = 2l - lambda - 1,  b1 = 2(a - l),  b2 = -2a,
    c0 = xi - a(lambda + 1) - l(l - 1) + 2 l a,  c1 = -2 l a,
    l = (lambda + 2)/2 +- (1/2) sqrt(lambda^2 - 4),
    xi = E/(2 hbar^2) + a^2/4 - 1.

Demanding a degree-n polynomial S = prod (zeta - zeta_i) quantizes the
problem: the coefficient of zeta^{n+1} forces l = -n, intersecting that
with the l(lambda) branch relation gives

    lambda_n = -(n^2 + 2n + 2)/(n + 1),

and the roots satisfy the coupled rational (Bethe) system

    sum_{j != i} 2/(zeta_i - zeta_j)
        = [2a zeta_i^2 - 2(n + a) zeta_i + 2n + lambda_n + 1] / [zeta_i (1 - zeta_i)].

Two routes are implemented: a linear-algebra route that expands S in
monomials and solves the resulting three-term recurrence as a matrix
eigenproblem in xi, and a damped Newton iteration on the Bethe system. Each
level n carries n + 1 solution branches (for n = 1 these are the two
closed-form root branches), one per recurrence eigenvalue; roots may leave
the real axis in conjugate pairs and are kept. The solver seeds one Newton
polish per eigenpair and then requires the polished branches to match the
eigenvalues one to one, so a level is returned complete or not at all.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import ClassVar, Sequence

import numpy as np

from .errors import (
    ComplexBranchError,
    ConvergenceError,
    DomainError,
    IncompleteSpectrumError,
    RootCollisionError,
)
from .params import PhysicalParams

#: roots closer than this are considered a collision (ansatz requires
#: distinct roots)
DISTINCTNESS_TOL = 1e-10

#: acceptance bound on the Bethe-equation residual of a returned root set
RESIDUAL_TOL = 1e-10

_NEWTON_MAX_ITER = 80
_NEWTON_TARGET = 1e-12

#: two branches are the same, or a branch matches a recurrence eigenvalue,
#: when their xi agree to this tolerance relative to max(1, |xi|)
_XI_MATCH_TOL = 1e-8

#: real parts of roots this close, relative to max(1, |re|), sort as tied
_ORDER_TIE_TOL = 1e-12


@dataclass(frozen=True)
class HeunCoefficients:
    """Polynomial coefficients of sum a_j z^j S'' + sum b_j z^j S' + sum c_j z^j S = 0.

    The spin-chain specialization fixes the class constants a0 = a3 = a4 =
    b3 = c2 = 0, a1 = 1, a2 = -1. The full c0 is xi plus an offset, and xi
    is unknown until a branch is solved, so c0 holds only the xi-free offset.
    """

    a0: ClassVar[float] = 0.0
    a1: ClassVar[float] = 1.0
    a2: ClassVar[float] = -1.0
    a3: ClassVar[float] = 0.0
    a4: ClassVar[float] = 0.0
    b3: ClassVar[float] = 0.0
    c2: ClassVar[float] = 0.0
    b0: float
    b1: float
    b2: float
    c0: float
    c1: float


@dataclass(frozen=True)
class SpectralIndices:
    """Level index with its angular number and transformation exponent.

    `l` is fixed to the minus branch -n (the plus branch n/(n+1) does not
    meet the polynomial-degree constraint); `branch` enumerates the root-set
    solutions of the level, ordered by increasing energy. For n = 1 branch 0
    is the lower-energy (minus) closed-form root and branch 1 the plus one.
    """

    n: int
    lambda_n: float
    l: float
    branch: int


@dataclass(frozen=True)
class BetheSolution:
    """One solved branch: roots, energy, auxiliary xi, and residual."""

    indices: SpectralIndices
    roots: tuple[complex, ...]
    energy: float
    xi: float
    residual: float


def lambda_n_exact(n: int) -> Fraction:
    """Angular separation constant -(n^2 + 2n + 2)/(n + 1) as an exact rational."""
    if n < 0:
        raise DomainError(f"level index must be non-negative, got {n}")
    return Fraction(-(n * n + 2 * n + 2), n + 1)


def lambda_n(n: int) -> float:
    return float(lambda_n_exact(n))


def l_branches(lam: float) -> tuple[float, float]:
    """Both transformation exponents (lambda + 2)/2 +- (1/2) sqrt(lambda^2 - 4)."""
    disc = lam * lam - 4.0
    if disc < 0:
        raise ComplexBranchError(
            f"l is complex for lambda^2 < 4 (lambda = {lam!r})"
        )
    root = math.sqrt(disc)
    return ((lam + 2.0) / 2.0 + root / 2.0, (lam + 2.0) / 2.0 - root / 2.0)


def derive_lambda_from_constraints(n: int) -> float:
    """Recover lambda_n from the constraint system instead of the closed form.

    The c1 constraint with the vanishing quartic/cubic coefficients reads
    c1 = -n b2, i.e. -2 l a = 2 n a, forcing l = -n. Substituting l = -n
    into the branch relation l^2 - (lambda + 2) l + lambda + 1 = 0 (the
    squared form of the +- rule) and solving the resulting linear equation
    for lambda gives the quantized value. Exact rational arithmetic
    throughout; must agree with lambda_n(n).
    """
    if n < 0:
        raise DomainError(f"level index must be non-negative, got {n}")
    l = Fraction(-n)
    lam = (l * l - 2 * l + 2) / (l - 1)
    return float(lam)


def heun_coefficients(n: int, params: PhysicalParams) -> HeunCoefficients:
    """Specialized coefficients for level n; c0 is the xi-free offset."""
    lam = lambda_n(n)
    a = params.a
    l = -float(n)
    return HeunCoefficients(
        b0=2.0 * l - lam - 1.0,
        b1=2.0 * (a - l),
        b2=-2.0 * a,
        c0=-a * (lam + 1.0) - l * (l - 1.0) + 2.0 * l * a,
        c1=-2.0 * l * a,
    )


def bethe_residual(
    n: int, roots: Sequence[complex], params: PhysicalParams
) -> float:
    """Max pointwise violation of the Bethe system by a candidate root set."""
    z = _root_array(n, roots)
    if n == 0:
        return 0.0
    f, _ = _bethe_system(z, n, params.a, lambda_n(n))
    return float(np.max(np.abs(f)))


def xi_from_roots(n: int, roots: Sequence[complex], params: PhysicalParams) -> float:
    """Auxiliary spectral parameter xi = a (lambda_n + 1 + 2 sum zeta_i)."""
    xi = _branch_xi(_root_array(n, roots), params.a, lambda_n(n))
    return _require_real(xi, "xi")


def energy(n: int, roots: Sequence[complex], params: PhysicalParams) -> float:
    """E_n = -A/4 + 2 hbar^2 + hbar sqrt(2A) [2 sum zeta_i + lambda_n + 1]."""
    _root_array(n, roots)
    _ = params.a  # validates the easy-plane domain A > 0
    hbar = params.hbar
    coef = hbar * math.sqrt(2.0 * params.A)
    total = complex(sum(roots))  # Python's left-to-right sum; 0j for no roots
    e = -params.A / 4.0 + 2.0 * hbar**2 + coef * (2.0 * total + lambda_n(n) + 1.0)
    return _require_real(e, "energy")


def energy_from_constraints(
    n: int, roots: Sequence[complex], params: PhysicalParams
) -> float:
    """Energy recovered through the third parameter constraint.

    The constraint determines -c0 from power sums of the roots; undoing the
    xi-offset in c0 and inverting xi = E/(2 hbar^2) + a^2/4 - 1 yields E.
    Kept deliberately separate from energy() as a consistency check.
    """
    z = _root_array(n, roots)
    coeffs = heun_coefficients(n, params)
    s1 = z.sum()
    s2 = np.sum(z * z)
    pair = 0.5 * (s1 * s1 - s2)
    minus_c0 = (
        (2.0 * (n - 1) * coeffs.a4 + coeffs.b3) * s2
        + 2.0 * coeffs.a4 * pair
        + (2.0 * (n - 1) * coeffs.a3 + coeffs.b2) * s1
        + n * (n - 1) * coeffs.a2
        + n * coeffs.b1
    )
    # c0(xi) = xi + offset, and the constraint fixes c0 = -minus_c0.
    xi = -minus_c0 - coeffs.c0
    xi = _require_real(xi, "xi")
    hbar = params.hbar
    return 2.0 * hbar**2 * (xi - params.a**2 / 4.0 + 1.0)


def coefficient_recurrence_solutions(
    n: int, params: PhysicalParams
) -> list[tuple[float, np.ndarray]]:
    """All (xi, monic coefficients) pairs from the monomial-expansion route.

    Writing S = sum_k s_k zeta^k (monic, s_n = 1) and collecting powers of
    zeta in the ODE gives the three-term recurrence

        (j+1)(j + b0) s_{j+1} + [-j(j-1) + b1 j + k0 + xi] s_j
            + [b2 (j-1) + c1] s_{j-1} = 0,   j = 0..n,

    where k0 is the xi-free part of c0; the zeta^{n+1} equation vanishes
    identically once l = -n. The admissible xi are therefore eigenvalues of
    an (n+1) x (n+1) tridiagonal matrix, independent of the Newton route.
    All n + 1 pairs are returned, sorted by xi. No eigenvector has a
    vanishing leading coefficient: the last row reads m[n, n-1] s_{n-1} +
    m[n, n] s_n = -xi s_n with m[n, n-1] = 2a != 0, so s_n = 0 forces
    s_{n-1} = 0 and, row by row upwards, s = 0. In floating point the last
    entry of an eigenvector can still underflow (n = 64, A = 1e-6): that
    pair carries non-finite coefficients, and `bethe_roots` skips it.
    """
    coeffs = heun_coefficients(n, params)
    b0, b1, b2, c1, k0 = coeffs.b0, coeffs.b1, coeffs.b2, coeffs.c1, coeffs.c0
    dim = n + 1
    m = np.zeros((dim, dim))
    for j in range(dim):
        if j + 1 <= n:
            m[j, j + 1] = (j + 1) * (j + b0)
        m[j, j] = -j * (j - 1) + b1 * j + k0
        if j >= 1:
            m[j, j - 1] = b2 * (j - 1) + c1
    eigvals, eigvecs = np.linalg.eig(m)
    solutions = []
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        for k in range(dim):
            s = eigvecs[:, k] / eigvecs[-1, k]
            xi = _require_real(-eigvals[k], "xi")
            solutions.append((xi, s))
    solutions.sort(key=lambda t: t[0])
    return solutions


def bethe_roots(n: int, params: PhysicalParams) -> list[tuple[complex, ...]]:
    """All root-set branches of level n by damped Newton iteration.

    Returns one tuple of n roots per branch, sorted by the branch energy
    (an empty list for n = 0, which has no roots). Each of the n + 1
    eigenpairs of the recurrence route seeds one Newton polish from the
    roots of its polynomial, all seeds polished together as one array, and
    the polished branches must match the recurrence eigenvalues one to one
    in xi; otherwise IncompleteSpectrumError is raised, so the result is
    always all n + 1 branches. Every returned set satisfies the Bethe
    system with residual below 1e-10 and has pairwise-distinct roots. Only
    mu*B = 0 reduces to it.
    """
    lam = lambda_n(n)
    if params.muB != 0:
        raise DomainError(f"the Bethe reduction needs mu*B = 0, got {params.muB!r}")
    a = params.a  # raises for A <= 0 before any work
    if n == 0:
        return []
    oracle = coefficient_recurrence_solutions(n, params)
    xi_ref = np.array([xi for xi, _ in oracle])
    coeffs = np.array([s for _, s in oracle], dtype=complex)
    # a row whose leading entry underflowed has no polynomial to seed from
    coeffs = coeffs[np.isfinite(coeffs).all(axis=-1)]
    z, ok, res = _polish(_companion_roots(coeffs), n, a, lam)
    matched: dict[int, np.ndarray] = {}
    for i, xi in zip(np.flatnonzero(ok), _branch_xi(z[ok], a, lam)):
        k = int(np.argmin(np.abs(xi_ref - xi)))
        if _same_xi(xi, xi_ref[k]) and k not in matched:
            matched[k] = z[i]
    if len(matched) < n + 1:
        best_residual = float(min([math.inf, *res[~ok]]))  # a NaN never wins, as in a running min
        raise IncompleteSpectrumError(
            f"Newton polish matched {len(matched)} of {n + 1} recurrence "
            f"eigenvalues for n = {n}",
            found=len(matched),
            expected=n + 1,
            best_residual=best_residual if best_residual < math.inf else None,
        )
    return [tuple(complex(v) for v in matched[k]) for k in range(n + 1)]


def solve_level(n: int, params: PhysicalParams) -> list[BetheSolution]:
    """Solve every branch of level n and package the spectral data."""
    root_sets = bethe_roots(n, params) or [()]  # level 0 has one, empty, root set
    lam = lambda_n(n)
    residual = np.zeros(len(root_sets))
    if n:
        f, _ = _bethe_system(np.array(root_sets, dtype=complex), n, params.a, lam)
        residual = np.max(np.abs(f), axis=-1)
    out = []
    for k, roots in enumerate(root_sets):
        out.append(
            BetheSolution(
                indices=SpectralIndices(n=n, lambda_n=lam, l=float(-n), branch=k),
                roots=roots,
                energy=energy(n, roots, params),
                xi=xi_from_roots(n, roots, params),
                residual=float(residual[k]),
            )
        )
    return out


def eigenfunction_eval(
    n: int, sol: BetheSolution, r: float, phi: float, params: PhysicalParams
) -> complex:
    """psi_n = e^{i lambda_n phi} r^{lambda_n} (1+r^2)^n e^{a/(1+r^2)} prod(1/(1+r^2) - zeta_i).

    Unnormalized by construction: with lambda_n <= -2 the radial factor
    diverges at the origin, so the closed form is evaluated literally on
    r > 0.
    """
    if sol.indices.n != n:
        raise DomainError(f"solution is for n = {sol.indices.n}, not {n}")
    lam = sol.indices.lambda_n
    phase = complex(math.cos(lam * phi), math.sin(lam * phi))
    chi, _, _ = radial_derivatives(n, sol.roots, params, np.array([r]))
    return phase * complex(chi[0])


def radial_derivatives(
    n: int,
    roots: Sequence[complex],
    params: PhysicalParams,
    r: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(chi, chi', chi'') of the radial factor, fully analytic.

    chi = F * G with F = r^lambda (1+r^2)^n e^{a/(1+r^2)} handled through
    its logarithmic derivative (F never vanishes on r > 0) and
    G = S(1/(1+r^2)) through product-form polynomial derivatives plus the
    chain rule, which stays finite at the nodal radii where G = 0.
    """
    r = np.asarray(r, dtype=float)
    if np.any(r <= 0):
        raise DomainError("radial grid must stay strictly positive")
    a = params.a
    lam = lambda_n(n)
    d = 1.0 + r * r
    zeta = 1.0 / d

    f = r**lam * d**n * np.exp(a / d)
    uf = lam / r + 2.0 * n * r / d - 2.0 * a * r / d**2
    ufp = -lam / r**2 + 2.0 * n * (1.0 - r * r) / d**2 - 2.0 * a * (1.0 - 3.0 * r * r) / d**3

    # G = prod (zeta - zeta_i) and its derivatives in product form: expanding
    # into monomials loses about seven digits by n = 20
    g = np.ones_like(zeta, dtype=complex)
    gp = np.zeros_like(zeta, dtype=complex)
    gpp = np.zeros_like(zeta, dtype=complex)
    for root in np.asarray(roots, dtype=complex):
        factor = zeta - root
        gpp = gpp * factor + 2.0 * gp
        gp = gp * factor + g
        g = g * factor

    zp = -2.0 * r / d**2
    zpp = (6.0 * r * r - 2.0) / d**3
    chi = f * g
    chip = f * (uf * g + gp * zp)
    chipp = f * ((uf * uf + ufp) * g + 2.0 * uf * gp * zp + gpp * zp * zp + gp * zpp)
    return chi, chip, chipp


# ---------------------------------------------------------------------------
# Newton machinery, on a (root sets, n) array: every row is one root set


def _bethe_system(z: np.ndarray, n: int, a: float, lam: float) -> tuple[np.ndarray, np.ndarray]:
    """The Bethe residuals f_i and their Jacobian df_i/dz_j of each row, from one set of terms."""
    i = np.arange(n)
    diff = z[..., :, None] - z[..., None, :]
    # a unit diagonal keeps the division finite; complex 2/inf would be nan
    diff[..., i, i] = 1.0
    inv = 1.0 / diff
    inv[..., i, i] = 0.0
    num = 2.0 * a * z**2 - 2.0 * (n + a) * z + 2.0 * n + lam + 1.0
    dnum = 4.0 * a * z - 2.0 * (n + a)
    den = z * (1.0 - z)
    f = np.sum(2.0 * inv, axis=-1) - num / den
    # bethe_residual and solve_level drop jac, whose squares overflow first (roots near
    # 1e100 at large hbar)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        jac = 2.0 * inv**2
        jac[..., i, i] = -(dnum * den - num * (1.0 - 2.0 * z)) / den**2 - jac.sum(axis=-1)
    return f, jac


def _companion_roots(c: np.ndarray) -> np.ndarray:
    """Sorted roots of each monic row of c (low to high degree), as polyroots finds them.

    The companion matrices are built as numpy's polycompanion builds them,
    unrotated, and go to one stacked eigensolve.
    """
    n = c.shape[-1] - 1
    if n == 1:  # solved directly, as polyroots does
        return -c[:, :1] / c[:, 1:]
    mat = np.zeros((len(c), n, n), dtype=c.dtype)
    i = np.arange(n - 1)
    mat[:, i + 1, i] = 1
    mat[:, :, -1] -= c[:, :-1] / c[:, -1:]
    return np.sort(np.linalg.eigvals(mat), axis=-1)


# wild starts overflow harmlessly before the line search rejects them
@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def _newton(
    z0: np.ndarray, n: int, a: float, lam: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Damped Newton on each row of z0: (roots, converged, residual) per row.

    Every row keeps its own seed nudge, step length, line search and stop
    test, so it ends exactly as it would polished alone; a row whose
    Jacobian is singular or whose step is not finite fails alone.
    """
    z = z0.astype(complex)
    # nudge degenerate seeds off the poles of the system
    z[_near_pole(z, 1e-6)] += 1e-4 * (1.0 + 1.0j) * (1.0 + np.arange(n))
    f, jac = _bethe_system(z, n, a, lam)
    norm = np.max(np.abs(f), axis=-1)
    live = np.ones(len(z), dtype=bool)
    for _ in range(_NEWTON_MAX_ITER):
        live &= ~(norm < _NEWTON_TARGET)
        rows = np.flatnonzero(live)
        if not rows.size:
            break
        delta = _solve(jac[rows], -f[rows])
        finite = np.all(np.isfinite(delta.view(float)), axis=-1)
        live[rows[~finite]] = False
        rows, delta = rows[finite], delta[finite]
        # line search: `rows` are the rows still looking for a step length t
        t = np.ones(len(rows))
        for _ in range(14):
            z_new = z[rows] + t[:, None] * delta
            trial = np.flatnonzero(~_near_pole(z_new, 1e-14))
            f_new, jac_new = _bethe_system(z_new[trial], n, a, lam)
            norm_new = np.max(np.abs(f_new), axis=-1)
            good = (norm_new < (1.0 - 0.25 * t[trial]) * norm[rows[trial]]) | (norm_new < _NEWTON_TARGET)
            took, done = trial[good], rows[trial[good]]
            z[done], f[done], jac[done], norm[done] = z_new[took], f_new[good], jac_new[good], norm_new[good]
            left = np.ones(len(rows), dtype=bool)
            left[took] = False
            rows, delta, t = rows[left], delta[left], 0.5 * t[left]
            if not rows.size:
                break
        live[rows] = False  # no step length within 14 halvings decreased the residual
    return z, norm < _NEWTON_TARGET, norm


def _solve(jac: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Newton steps of a stack of systems; a singular row gets a NaN step."""
    try:
        return np.linalg.solve(jac, rhs[..., None])[..., 0]
    except np.linalg.LinAlgError:
        step = np.full_like(rhs, np.nan)
        for k in range(len(rhs)):
            try:
                step[k] = np.linalg.solve(jac[k], rhs[k])
            except np.linalg.LinAlgError:
                pass
        return step


def _near_pole(z: np.ndarray, eps: float) -> np.ndarray:
    """Per row: two roots, or a root and 0 or 1, closer than eps (a NaN is never close)."""
    return (
        (_min_separation(z) < eps)
        | np.any(np.abs(z) < eps, axis=-1)
        | np.any(np.abs(z - 1.0) < eps, axis=-1)
    )


def _min_separation(z: np.ndarray) -> np.ndarray:
    """Smallest distance between two roots of each non-empty row (inf for one root)."""
    i = np.arange(z.shape[-1])
    diff = np.abs(z[..., :, None] - z[..., None, :])
    diff[..., i, i] = math.inf
    return diff.min(axis=(-2, -1))


def _canonical_order(z: np.ndarray) -> np.ndarray:
    """Sort each row by real part, then by imaginary part among tied real parts.

    A real part tied to its sorted neighbour joins that neighbour's group,
    so a conjugate pair whose real parts differ by rounding always lists
    its negative-imaginary member first.
    """
    z = np.take_along_axis(z, np.argsort(z.real, axis=-1, kind="stable"), axis=-1)
    tied = np.diff(z.real, axis=-1) <= _ORDER_TIE_TOL * np.maximum(1.0, np.abs(z.real[..., 1:]))
    group = np.zeros(z.shape, dtype=int)
    group[..., 1:] = np.cumsum(~tied, axis=-1)
    return np.take_along_axis(z, np.lexsort((z.imag, group), axis=-1), axis=-1)


def _polish(
    z0: np.ndarray, n: int, a: float, lam: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Newton-polish each row of z0: (roots, converged, residual) per row.

    Converged rows are returned in canonical order.
    """
    z, ok, res = _newton(z0, n, a, lam)
    separation = _min_separation(z)
    collided = np.flatnonzero(ok & (separation <= DISTINCTNESS_TOL))
    if collided.size:
        # the ansatz requires distinct roots; a converged collision is
        # not a discardable failure but a degenerate configuration
        raise RootCollisionError(
            f"converged roots collide (min separation {separation[collided[0]]:.3e}) for n = {n}"
        )
    # converged means bethe_residual < _NEWTON_TARGET < RESIDUAL_TOL
    z[ok] = _canonical_order(z[ok])
    return z, ok, res


def _branch_xi(z: np.ndarray, a: float, lam: float) -> complex | np.ndarray:
    """xi of a root set, or of each row of a stack, possibly complex; xi_from_roots
    requires it real."""
    return a * (lam + 1.0 + 2.0 * z.sum(axis=-1))


def _same_xi(xi: complex, ref: complex) -> bool:
    return abs(xi - ref) <= _XI_MATCH_TOL * max(1.0, abs(ref))


def _root_array(n: int, roots: Sequence[complex]) -> np.ndarray:
    """The n roots of a level-n root set as a complex array."""
    if len(roots) != n:
        raise DomainError(f"expected {n} roots, got {len(roots)}")
    return np.asarray(roots, dtype=complex)


def _require_real(value: complex, name: str) -> float:
    value = complex(value)
    size = abs(value)
    if not math.isfinite(size):  # e.g. 2 hbar^2 overflows although hbar^2 does not
        raise ConvergenceError(f"{name} is not finite: {value!r}")
    if abs(value.imag) > 1e-9 * max(1.0, size):
        raise ConvergenceError(
            f"{name} has a non-negligible imaginary part: {value!r}"
        )
    return float(value.real)
