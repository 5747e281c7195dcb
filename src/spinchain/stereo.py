"""Stereographic projection between unit spin vectors and the complex plane.

The map and its inverse are

    omega = (S1 + i S2) / (1 + S3),
    S1 + i S2 = 2 omega / (1 + |omega|^2),   S3 = (1 - |omega|^2) / (1 + |omega|^2),

so S3 = +1 goes to the origin and S3 = -1 to the point at infinity, which
is represented by an explicit flag rather than IEEE infinities so that
round trips through the pole stay exact. The same module holds the two
kinetic densities whose equality expresses the sigma-model structure of
the static energy functional:

    (sphere)   (1/2) |dS/dz|^2
    (plane)    2 (P_z^2 + Q_z^2) / (1 + P^2 + Q^2)^2

Every formula is written once, on columns: `project_array`,
`unproject_array`, `pushforward`, `tangent_part` and the two densities.
`project` and `unproject` send one point through the column maps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConstraintViolationError, DomainError

_NORM_TOL = 1e-9
_TANGENT_TOL = 1e-10


def _dot(s: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Row-wise dot product of two (N, 3) arrays, summed in component order."""
    return s[:, 0] * t[:, 0] + s[:, 1] * t[:, 1] + s[:, 2] * t[:, 2]


def _unit_norm(s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """|S|^2 of each row of an (N, 3) array, and where it misses 1 by more than _NORM_TOL."""
    with np.errstate(over="ignore", invalid="ignore"):
        n2 = _dot(s, s)
    return n2, np.abs(n2 - 1.0) > _NORM_TOL


@dataclass(frozen=True)
class SpinPoint:
    """Unit vector (S1, S2, S3); the norm is checked at construction."""

    s1: float
    s2: float
    s3: float

    def __post_init__(self):
        s = np.array([self.as_tuple()], dtype=float)
        if np.isnan(s).any():
            raise DomainError(f"spin vector has a NaN component: {self.as_tuple()!r}")
        n2, non_unit = _unit_norm(s)
        if non_unit[0]:
            raise ConstraintViolationError(
                f"spin vector must be unit length, |S|^2 = {float(n2[0])!r}"
            )

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.s1, self.s2, self.s3)


@dataclass(frozen=True)
class ComplexFieldPoint:
    """Point omega = P + iQ of the image plane, or the point at infinity."""

    p: float = 0.0
    q: float = 0.0
    at_infinity: bool = False

    def __post_init__(self):
        if not self.at_infinity and not (
            math.isfinite(self.p) and math.isfinite(self.q)
        ):
            raise DomainError("finite field point requires finite (P, Q)")


POINT_AT_INFINITY = ComplexFieldPoint(0.0, 0.0, at_infinity=True)


def project(s: SpinPoint) -> ComplexFieldPoint:
    """Map a unit spin vector to omega = (S1 + i S2)/(1 + S3)."""
    w, at_infinity = project_array(np.array([s.as_tuple()], dtype=float))
    return POINT_AT_INFINITY if at_infinity[0] else ComplexFieldPoint(*w[0].tolist())


def unproject(w: ComplexFieldPoint) -> SpinPoint:
    """Inverse map; the infinity flag returns the south pole (0, 0, -1)."""
    s = unproject_array(np.array([[w.p, w.q]], dtype=float), np.array([w.at_infinity]))
    return SpinPoint(*s[0].tolist())


def project_array(s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """`project` on the rows of an (N, 3) array: (N, 2) (P, Q) and at_infinity.

    Rows at infinity carry (0, 0). A row that is not unit length raises
    ConstraintViolationError, and one with a NaN component or that maps to
    a non-finite point raises DomainError, as `SpinPoint` and
    `ComplexFieldPoint` do; the message names the first such row, counted
    from 0.
    """
    s = np.asarray(s, dtype=float).reshape(-1, 3)
    n2, non_unit = _unit_norm(s)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        denom = 1.0 + s[:, 2]
        at_infinity = denom == 0.0
        w = s[:, :2] / np.where(at_infinity, 1.0, denom)[:, None]
    # tested before the pole rows are zeroed: a NaN S1 or S2 at S3 = -1 stays NaN here
    bad = np.flatnonzero(non_unit | ~np.isfinite(w).all(axis=1))
    if bad.size:
        i = int(bad[0])
        if non_unit[i]:
            raise ConstraintViolationError(
                f"row {i}: spin vector must be unit length, |S|^2 = {float(n2[i])!r}"
            )
        raise DomainError(f"row {i}: finite field point requires finite (P, Q)")
    w[at_infinity] = 0.0
    return w, at_infinity


def unproject_array(w: np.ndarray, at_infinity: np.ndarray) -> np.ndarray:
    """`unproject` on the rows of an (N, 2) array: (N, 3) spins.

    Rows flagged in `at_infinity` give the south pole exactly, whatever
    their (P, Q); any other row must be finite, else DomainError names the
    first one, counted from 0. Where |omega|^2 overflows, S3 = -1 and
    S1 + i S2 = 2 omega / |omega|^2, computed on (P, Q) / max(|P|, |Q|).
    """
    w = np.asarray(w, dtype=float).reshape(-1, 2)
    at_infinity = np.asarray(at_infinity, dtype=bool)
    bad = np.flatnonzero(~at_infinity & ~np.isfinite(w).all(axis=1))
    if bad.size:
        raise DomainError(f"row {int(bad[0])}: finite field point requires finite (P, Q)")
    p, q = w[:, 0], w[:, 1]
    with np.errstate(over="ignore", invalid="ignore"):
        u = p * p + q * q
        denom = 1.0 + u
        s = np.column_stack([2.0 * p / denom, 2.0 * q / denom, (1.0 - u) / denom])
    # where |omega|^2 overflows, scale (P, Q) down first
    big = np.flatnonzero(~np.isfinite(u) & ~at_infinity)
    if big.size:
        m = np.maximum(np.abs(p[big]), np.abs(q[big]))
        ps, qs = p[big] / m, q[big] / m
        us = ps * ps + qs * qs
        s[big] = np.column_stack([2.0 * ps / us / m, 2.0 * qs / us / m, np.full(big.size, -1.0)])
    s[at_infinity] = (0.0, 0.0, -1.0)
    return s


def pushforward(p: np.ndarray, q: np.ndarray, pz: np.ndarray, qz: np.ndarray) -> np.ndarray:
    """(N, 3) dS/dz of the paths S = unproject(P, Q), by the chain rule."""
    u = p * p + q * q
    d = 1.0 + u
    d2 = d * d
    ds1 = (2.0 / d - 4.0 * p * p / d2) * pz - 4.0 * p * q / d2 * qz
    ds2 = -4.0 * p * q / d2 * pz + (2.0 / d - 4.0 * q * q / d2) * qz
    ds3 = -4.0 * p / d2 * pz - 4.0 * q / d2 * qz
    return np.column_stack([ds1, ds2, ds3])


def density_plane(p: np.ndarray, q: np.ndarray, pz: np.ndarray, qz: np.ndarray) -> np.ndarray:
    """2 (P_z^2 + Q_z^2) / (1 + P^2 + Q^2)^2 per path."""
    d = 1.0 + p * p + q * q
    return 2.0 * (pz * pz + qz * qz) / (d * d)


def tangent_part(s: np.ndarray, sz: np.ndarray) -> np.ndarray:
    """Remove the radial component of each row of a derivative estimate.

    Finite-difference derivatives of a spherical path pick up an O(h^2)
    normal component; stripping it restores the tangency contract of
    density_sphere while changing the density only at O(h^4).
    """
    return sz - _dot(s, sz)[:, None] * s


def density_sphere(s: np.ndarray, sz: np.ndarray) -> np.ndarray:
    """(1/2) |S_z|^2 per row; ConstraintViolationError names the first non-tangent row."""
    dot = _dot(s, sz)
    sq = _dot(sz, sz)
    bad = np.flatnonzero(np.abs(dot) > _TANGENT_TOL * np.maximum(1.0, np.sqrt(sq)))
    if bad.size:
        i = int(bad[0])
        raise ConstraintViolationError(
            f"row {i}: derivative not tangent to the sphere: S . S_z = {float(dot[i])!r}"
        )
    return 0.5 * sq
