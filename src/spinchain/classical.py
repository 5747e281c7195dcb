"""Static field Hamiltonian density and its Hamilton equations in z.

The energy density of a static configuration (P(z), Q(z)) is

    H = (Pi_P^2 + Pi_Q^2) / (2 m(P,Q)) + V(P,Q),
    m(P,Q) = 1 / (1 + P^2 + Q^2)^2,
    V(P,Q) = -(A/4) (1 - P^2 - Q^2)^2 / (1 + P^2 + Q^2)^2
             + (mu B / 2) P / (1 + P^2 + Q^2),

with spatial momenta Pi_P = P_z m, Pi_Q = Q_z m. Trajectories in z are
integrated with fixed-step classical RK4; the recorded energy drift is
itself used as a test statistic, so no symplectic scheme is used.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass

import numpy as np

from .errors import DivergenceError, DomainError
from .params import PhysicalParams

DIVERGENCE_THRESHOLD = 1e12


@dataclass(frozen=True)
class FieldState:
    """Field components and conjugate spatial momenta at one z."""

    p: float
    q: float
    pi_p: float
    pi_q: float

    def __post_init__(self):
        if not all(map(math.isfinite, (self.p, self.q, self.pi_p, self.pi_q))):
            raise DomainError("field state must be finite")


@dataclass(frozen=True)
class Trajectory:
    """Sampled integration result: states and energy density per node.

    `state_array` holds one (P, Q, Pi_P, Pi_Q) row per node of `z_grid`.
    """

    z_grid: np.ndarray
    state_array: np.ndarray
    h_values: np.ndarray

    def energy_drift(self) -> float:
        h0 = self.h_values[0]
        return float(np.max(np.abs(self.h_values - h0)) / max(1.0, abs(h0)))


def mass_function(p: float, q: float) -> float:
    """Position-dependent mass 1/(1 + P^2 + Q^2)^2."""
    d = 1.0 + p * p + q * q
    return 1.0 / (d * d)


def potential(p: float, q: float, params: PhysicalParams) -> float:
    u = p * p + q * q
    d = 1.0 + u
    return -0.25 * params.A * (1.0 - u) ** 2 / (d * d) + 0.5 * params.muB * p / d


def potential_gradient(
    p: float, q: float, params: PhysicalParams
) -> tuple[float, float]:
    """Closed-form (dV/dP, dV/dQ); checked against finite differences in tests."""
    u = p * p + q * q
    d = 1.0 + u
    d2 = d * d
    d3 = d2 * d
    anis = 2.0 * params.A * (1.0 - u) / d3
    dvdp = anis * p + 0.5 * params.muB * (1.0 - p * p + q * q) / d2
    dvdq = anis * q - params.muB * p * q / d2
    return (dvdp, dvdq)


def hamiltonian_density(st: FieldState, params: PhysicalParams) -> float:
    """Energy density (Pi^2)/(2m) + V = (1/2)(1+P^2+Q^2)^2 (Pi_P^2+Pi_Q^2) + V."""
    p, q = st.p, st.q
    d = 1.0 + p * p + q * q
    # x**2 is C pow; x * x rounds differently on some values and would move H
    kinetic = 0.5 * d * d * (st.pi_p**2 + st.pi_q**2)
    return kinetic + potential(p, q, params)


# The integrator writes out the formulas above on plain floats, one call per
# RK stage; tests pin each copy bitwise against its public function.


def _rhs(
    p: float, q: float, pi_p: float, pi_q: float, a: float, mub: float
) -> tuple[float, float, float, float]:
    """Hamilton's equations, with potential_gradient's terms written out."""
    p2, q2 = p * p, q * q
    # (1 + P^2) + Q^2 here, 1 + (P^2 + Q^2) in the gradient: each rounds its own way
    d = 1.0 + p2 + q2
    d2 = d * d
    k = pi_p * pi_p + pi_q * pi_q
    u = p2 + q2
    e = 1.0 + u
    e2 = e * e
    anis = 2.0 * a * (1.0 - u) / (e2 * e)
    dvdp = anis * p + 0.5 * mub * (1.0 - p2 + q2) / e2
    dvdq = anis * q - mub * p * q / e2
    return (d2 * pi_p, d2 * pi_q, -2.0 * p * d * k - dvdp, -2.0 * q * d * k - dvdq)


def integrate_static(
    initial: FieldState,
    z_span: tuple[float, float],
    step: float,
    params: PhysicalParams,
) -> Trajectory:
    """Fixed-step RK4 trajectory of the static Hamilton equations.

    Raises DivergenceError (with the z of failure) as soon as any state
    component exceeds 1e12 in magnitude or stops being finite, and
    DomainError when the step count cannot be held in memory. The step
    runs on Python floats, one initial condition at a time.
    """
    z0, z1 = float(z_span[0]), float(z_span[1])
    if not 0 < step < math.inf:
        raise DomainError(f"step must be positive and finite, got {step!r}")
    if not z1 > z0:
        raise DomainError("z_span must be increasing")
    count = (z1 - z0) / step
    try:
        n_steps = int(round(count))
        z_grid = z0 + step * np.arange(n_steps + 1)
    except (OverflowError, ValueError, MemoryError):  # an infinite or oversized count
        z_grid = None
    # for counts from 2**63 - 1 to about 2**63 + 1024, arange returns an empty
    # grid instead of failing
    if z_grid is None or len(z_grid) != n_steps + 1:
        raise DomainError(f"{count:.6g} RK4 steps cannot be held in memory")

    a, mub = params.A, params.muB
    half, sixth = 0.5 * step, step / 6.0
    p, q, pp, pq = map(float, (initial.p, initial.q, initial.pi_p, initial.pi_q))
    # 40 bytes per node: the state and its H, appended as C doubles
    states, h_values = array("d"), array("d")
    try:
        for i in range(n_steps + 1):
            if i:
                a1, b1, c1, d1 = _rhs(p, q, pp, pq, a, mub)
                a2, b2, c2, d2 = _rhs(p + half * a1, q + half * b1, pp + half * c1, pq + half * d1, a, mub)
                a3, b3, c3, d3 = _rhs(p + half * a2, q + half * b2, pp + half * c2, pq + half * d2, a, mub)
                a4, b4, c4, d4 = _rhs(p + step * a3, q + step * b3, pp + step * c3, pq + step * d3, a, mub)
                p = p + sixth * (a1 + 2.0 * a2 + 2.0 * a3 + a4)
                q = q + sixth * (b1 + 2.0 * b2 + 2.0 * b3 + b4)
                pp = pp + sixth * (c1 + 2.0 * c2 + 2.0 * c3 + c4)
                pq = pq + sixth * (d1 + 2.0 * d2 + 2.0 * d3 + d4)
            # NaN fails every comparison, so this also catches non-finite states;
            # the initial state is tested too, since H overflows beyond it
            if not (abs(p) <= DIVERGENCE_THRESHOLD and abs(q) <= DIVERGENCE_THRESHOLD
                    and abs(pp) <= DIVERGENCE_THRESHOLD and abs(pq) <= DIVERGENCE_THRESHOLD):
                z_here = float(z_grid[i])
                raise DivergenceError(f"trajectory diverged at z = {z_here:.6g}", z=z_here)
            states.extend((p, q, pp, pq))
            # hamiltonian_density written out, **2 kept as C pow
            p2, q2 = p * p, q * q
            d = 1.0 + p2 + q2
            u = p2 + q2
            e = 1.0 + u
            h_values.append(
                0.5 * d * d * (pp**2 + pq**2) + (-0.25 * a * (1.0 - u) ** 2 / (e * e) + 0.5 * mub * p / e)
            )
    except MemoryError:  # the buffers outgrew memory part way
        raise DomainError(f"{count:.6g} RK4 steps cannot be held in memory") from None
    return Trajectory(
        z_grid=z_grid,
        state_array=np.frombuffer(states).reshape(-1, 4),
        h_values=np.frombuffer(h_values),
    )
