"""Stereographic projection between unit spin vectors and the complex plane.

The map and its inverse are

    omega = (S1 + i S2) / (1 + S3),
    S1 + i S2 = 2 omega / (1 + |omega|^2),   S3 = (1 - |omega|^2) / (1 + |omega|^2),

so S3 = +1 goes to the origin and S3 = -1 to the point at infinity, which
is represented by an explicit flag rather than IEEE infinities so that
round trips through the pole stay exact. `project_array` and
`unproject_array` apply the same arithmetic to whole columns, carrying the
flag as a boolean mask, and reject the rows the point types reject.

The same module holds the two kinetic densities whose equality expresses
the sigma-model structure of the static energy functional:

    (sphere)   (1/2) |dS/dz|^2
    (plane)    2 (P_z^2 + Q_z^2) / (1 + P^2 + Q^2)^2
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConstraintViolationError, DomainError

_NORM_TOL = 1e-9
_UNIT_TOL = 1e-12
_TANGENT_TOL = 1e-10


@dataclass(frozen=True)
class SpinPoint:
    """Unit vector (S1, S2, S3); the norm is checked at construction."""

    s1: float
    s2: float
    s3: float

    def __post_init__(self):
        n2 = self.s1**2 + self.s2**2 + self.s3**2
        if abs(n2 - 1.0) > _NORM_TOL:
            raise ConstraintViolationError(
                f"spin vector must be unit length, |S|^2 = {n2!r}"
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

    def as_complex(self) -> complex:
        if self.at_infinity:
            raise DomainError("point at infinity has no complex value")
        return complex(self.p, self.q)


POINT_AT_INFINITY = ComplexFieldPoint(0.0, 0.0, at_infinity=True)


def project(s: SpinPoint) -> ComplexFieldPoint:
    """Map a unit spin vector to omega = (S1 + i S2)/(1 + S3)."""
    denom = 1.0 + s.s3
    if denom == 0.0:
        return POINT_AT_INFINITY
    return ComplexFieldPoint(s.s1 / denom, s.s2 / denom)


def unproject(w: ComplexFieldPoint) -> SpinPoint:
    """Inverse map; the infinity flag returns the south pole (0, 0, -1)."""
    if w.at_infinity:
        return SpinPoint(0.0, 0.0, -1.0)
    u = w.p * w.p + w.q * w.q
    denom = 1.0 + u
    return SpinPoint(2.0 * w.p / denom, 2.0 * w.q / denom, (1.0 - u) / denom)


def project_array(s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """`project` on the rows of an (N, 3) array: (N, 2) (P, Q) and at_infinity.

    Rows at infinity carry (0, 0). A row that is not unit length raises
    ConstraintViolationError and one that maps to a non-finite point raises
    DomainError, as `SpinPoint` and `ComplexFieldPoint` do; the message
    names the first such row, counted from 0.
    """
    s = np.asarray(s, dtype=float).reshape(-1, 3)
    s1, s2, s3 = s[:, 0], s[:, 1], s[:, 2]
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        n2 = s1 * s1 + s2 * s2 + s3 * s3
        denom = 1.0 + s3
        at_infinity = denom == 0.0
        w = s[:, :2] / np.where(at_infinity, 1.0, denom)[:, None]
        non_unit = np.abs(n2 - 1.0) > _NORM_TOL
    w[at_infinity] = 0.0
    bad = np.flatnonzero(non_unit | ~np.isfinite(w).all(axis=1))
    if bad.size:
        i = int(bad[0])
        if non_unit[i]:
            raise ConstraintViolationError(
                f"row {i}: spin vector must be unit length, |S|^2 = {float(n2[i])!r}"
            )
        raise DomainError(f"row {i}: finite field point requires finite (P, Q)")
    return w, at_infinity


def unproject_array(w: np.ndarray, at_infinity: np.ndarray) -> np.ndarray:
    """`unproject` on the rows of an (N, 2) array: (N, 3) spins.

    Rows flagged in `at_infinity` give the south pole exactly, whatever
    their (P, Q); any other row must be finite, else DomainError names the
    first one, counted from 0.
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
    s[at_infinity] = (0.0, 0.0, -1.0)
    return s


def tangent_pushforward(
    w: ComplexFieldPoint, pz: float, qz: float
) -> tuple[float, float, float]:
    """dS/dz for the path S(z) = unproject(P(z), Q(z)), by the chain rule."""
    if w.at_infinity:
        raise DomainError("pushforward is undefined at the point at infinity")
    p, q = w.p, w.q
    u = p * p + q * q
    d = 1.0 + u
    d2 = d * d
    ds1 = (2.0 / d - 4.0 * p * p / d2) * pz - 4.0 * p * q / d2 * qz
    ds2 = -4.0 * p * q / d2 * pz + (2.0 / d - 4.0 * q * q / d2) * qz
    ds3 = -4.0 * p / d2 * pz - 4.0 * q / d2 * qz
    return (ds1, ds2, ds3)


def kinetic_density_complex(w: ComplexFieldPoint, pz: float, qz: float) -> float:
    """2 (P_z^2 + Q_z^2) / (1 + P^2 + Q^2)^2."""
    if w.at_infinity:
        raise DomainError("kinetic density is undefined at the point at infinity")
    d = 1.0 + w.p * w.p + w.q * w.q
    return 2.0 * (pz * pz + qz * qz) / (d * d)


def project_tangent(
    s: SpinPoint, sz: tuple[float, float, float]
) -> tuple[float, float, float]:
    """Remove the radial component of a derivative estimate.

    Finite-difference derivatives of a spherical path pick up an O(h^2)
    normal component; stripping it restores the tangency contract of
    kinetic_density_sphere while changing the density only at O(h^4).
    """
    dot = s.s1 * sz[0] + s.s2 * sz[1] + s.s3 * sz[2]
    return (sz[0] - dot * s.s1, sz[1] - dot * s.s2, sz[2] - dot * s.s3)


def kinetic_density_sphere(
    s: SpinPoint, sz: tuple[float, float, float]
) -> float:
    """(1/2) |dS/dz|^2 for a derivative tangent to the sphere."""
    dot = s.s1 * sz[0] + s.s2 * sz[1] + s.s3 * sz[2]
    scale = max(1.0, math.sqrt(sz[0] ** 2 + sz[1] ** 2 + sz[2] ** 2))
    if abs(dot) > _TANGENT_TOL * scale:
        raise ConstraintViolationError(
            f"derivative not tangent to the sphere: S . S_z = {dot!r}"
        )
    return 0.5 * (sz[0] ** 2 + sz[1] ** 2 + sz[2] ** 2)
