import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from spinchain import classical
from spinchain.classical import (
    DIVERGENCE_THRESHOLD,
    FieldState,
    _rhs,
    hamiltonian_density,
    integrate_static,
    mass_function,
    potential,
    potential_gradient,
)
from spinchain.errors import DivergenceError, DomainError
from spinchain.params import make_params

A2 = make_params(A=2.0)
FREE = make_params(A=0.0)


def test_mass_function_values():
    assert mass_function(0.0, 0.0) == 1.0
    assert mass_function(1.0, 0.0) == 0.25
    # decays monotonically in P^2 + Q^2
    radii = np.linspace(0.0, 40.0, 50)
    vals = [mass_function(r, 0.0) for r in radii]
    assert all(a > b for a, b in zip(vals, vals[1:]))
    assert vals[-1] < 1e-5


def test_potential_values():
    assert potential(0.0, 0.0, A2) == pytest.approx(-0.5, abs=1e-15)
    # anything on the unit circle kills the anisotropy term at B = 0
    for phi in (0.0, 0.7, 2.1):
        assert potential(np.cos(phi), np.sin(phi), make_params(A=7.3)) == pytest.approx(0.0, abs=1e-15)
    assert potential(1.0, 0.0, make_params(A=0.0, B=2.0)) == pytest.approx(0.5, abs=1e-15)


def test_hamiltonian_density_values():
    assert hamiltonian_density(FieldState(0.0, 0.0, 0.0, 0.0), A2) == pytest.approx(-0.5)
    assert hamiltonian_density(FieldState(0.0, 0.0, 1.0, 0.0), FREE) == pytest.approx(0.5)
    assert hamiltonian_density(FieldState(1.0, 0.0, 1.0, 0.0), FREE) == pytest.approx(2.0)


def test_two_kinetic_forms_agree():
    """1/(2m) and (1/2)(1+P^2+Q^2)^2 are the same number to rounding."""
    rng = np.random.default_rng(5)
    params = make_params(A=1.3, B=0.4)
    for _ in range(200):
        p, q, pp, pq = rng.normal(size=4) * 2
        st = FieldState(p, q, pp, pq)
        direct = hamiltonian_density(st, params)
        via_mass = (pp * pp + pq * pq) / (2.0 * mass_function(p, q)) + potential(p, q, params)
        assert abs(direct - via_mass) <= 1e-14 * max(1.0, abs(direct))


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(1)
    h = 1e-5
    for _ in range(50):
        p, q = rng.normal(size=2) * 1.5
        params = make_params(A=rng.normal() * 2, B=rng.normal() * 2)
        fd_p = (potential(p + h, q, params) - potential(p - h, q, params)) / (2 * h)
        fd_q = (potential(p, q + h, params) - potential(p, q - h, params)) / (2 * h)
        gp, gq = potential_gradient(p, q, params)
        assert abs(fd_p - gp) < 1e-6
        assert abs(fd_q - gq) < 1e-6


def test_equilibrium_stays_put():
    traj = integrate_static(FieldState(0.0, 0.0, 0.0, 0.0), (0.0, 1.0), 1e-3, A2)
    assert np.all(traj.state_array[-1] == 0.0)
    assert np.allclose(traj.h_values, traj.h_values[0])


def test_free_motion_conserves_energy():
    # great-circle data that stays away from the coordinate pole
    initial = FieldState(1.0, 0.0, 0.0, 0.1)
    traj = integrate_static(initial, (0.0, 10.0), 1e-3, FREE)
    assert traj.energy_drift() < 1e-10


def test_anisotropic_oscillation_conserves_energy():
    initial = FieldState(0.1, 0.0, 0.0, 0.0)
    traj = integrate_static(initial, (0.0, 10.0), 1e-3, A2)
    assert traj.energy_drift() < 1e-8


def test_drift_scales_like_fourth_order():
    initial = FieldState(0.6, 0.1, 0.05, 0.2)
    params = make_params(A=2.0, B=0.3)
    drift_coarse = integrate_static(initial, (0.0, 2.0), 4e-3, params).energy_drift()
    drift_fine = integrate_static(initial, (0.0, 2.0), 2e-3, params).energy_drift()
    assert drift_coarse / drift_fine > 8.0  # ~16 for a clean 4th-order method


def test_domain_wall_matches_closed_form_at_fourth_order():
    """At B = 0 the E = 0 separatrix from the origin is the domain wall
    P = tanh(sqrt(A/2) z), Q = 0: an oracle independent of the integrator."""
    a = 2.0
    slope = np.sqrt(a / 2.0)
    errors = []
    for step in (1e-2, 1e-3):
        traj = integrate_static(FieldState(0.0, 0.0, slope, 0.0), (0.0, 5.0), step, make_params(A=a))
        y = traj.state_array
        assert np.all(y[:, 1] == 0.0)
        errors.append(np.max(np.abs(y[:, 0] - np.tanh(slope * traj.z_grid))))
    assert np.log10(errors[0] / errors[1]) >= 3.9  # observed 4.008


def test_elliptic_orbit_matches_closed_form_at_fourth_order():
    """At B = 0 an L = 0 orbit from the pole with energy E < 0 is
    sin(theta) = 2P/(1 + P^2) = c sn(sqrt(2A) z | c^2), c^2 = 1 + 4E/A
    (DLMF 22.2): a bounded-well oracle independent of the integrator."""
    from scipy.special import ellipj

    a = 3.0
    params = make_params(A=a)
    start = FieldState(0.0, 0.0, 0.5, 0.0)
    c2 = 1.0 + 4.0 * hamiltonian_density(start, params) / a
    assert c2 == pytest.approx(1.0 / 6.0, rel=1e-14)  # E = -0.625
    errors = []
    for step in (1e-2, 1e-3):
        traj = integrate_static(start, (0.0, 20.0), step, params)
        y = traj.state_array
        assert np.all(y[:, 1] == 0.0)
        sn = ellipj(np.sqrt(2.0 * a) * traj.z_grid, c2)[0]
        errors.append(np.max(np.abs(2.0 * y[:, 0] / (1.0 + y[:, 0] ** 2) - np.sqrt(c2) * sn)))
    assert np.log10(errors[0] / errors[1]) >= 3.9  # observed 3.98


# A start in the bounded well at B = 0: H < 0 keeps P^2 + Q^2 < 1 (V vanishes
# only on the unit circle). Starts with H > 0 can run out towards the pole,
# where RK4's error, and with it the drift of L, grows (3e-5 at P^2 + Q^2 ~ 4e5).
_WELL_START = st.tuples(
    st.floats(0.5, 4.0), *[st.floats(-0.6, 0.6)] * 2, *[st.floats(-0.5, 0.5)] * 2
).filter(lambda s: hamiltonian_density(FieldState(*s[1:]), make_params(A=s[0])) < 0)


@settings(max_examples=15, deadline=None)
@given(start=_WELL_START)
def test_angular_momentum_is_conserved_at_zero_field(start):
    """At B = 0, H is invariant under rotations of the (P, Q) plane, so
    L = P Pi_Q - Q Pi_P is conserved; RK4 keeps it to rounding, not exactly
    (largest drift over 10^4 steps 1.6e-13 in 120 starts)."""
    a, *state = start
    y = integrate_static(FieldState(*state), (0.0, 10.0), 1e-3, make_params(A=a)).state_array
    angular = y[:, 0] * y[:, 3] - y[:, 1] * y[:, 2]
    assert np.max(np.abs(angular - angular[0])) <= 1e-9


def _rotated(y, angle):
    """(P, Q) and (Pi_P, Pi_Q) of each row of y turned by `angle`."""
    c, s = np.cos(angle), np.sin(angle)
    y = np.asarray(y, dtype=float).reshape(-1, 4)
    return np.column_stack([c * y[:, 0] - s * y[:, 1], s * y[:, 0] + c * y[:, 1],
                            c * y[:, 2] - s * y[:, 3], s * y[:, 2] + c * y[:, 3]])


@settings(max_examples=10, deadline=None)
@given(start=_WELL_START, angle=st.floats(0.0, 2.0 * np.pi))
def test_rotated_start_gives_the_rotated_trajectory_at_zero_field(start, angle):
    """Largest difference over 10^4 steps 1.7e-13 in 120 starts."""
    a, *state = start
    params = make_params(A=a)
    y = integrate_static(FieldState(*state), (0.0, 10.0), 1e-3, params).state_array
    turned = integrate_static(FieldState(*_rotated(state, angle)[0]), (0.0, 10.0), 1e-3, params)
    assert np.max(np.abs(turned.state_array - _rotated(y, angle))) <= 1e-10


def test_momenta_definition_recovered_from_trajectory():
    initial = FieldState(0.1, 0.0, 0.0, 0.0)
    traj = integrate_static(initial, (0.0, 2.0), 1e-3, A2)
    p, q, pi_p, _ = traj.state_array.T
    dz = traj.z_grid[1] - traj.z_grid[0]
    p_z = (p[2:] - p[:-2]) / (2 * dz)
    d2 = (1.0 + p[1:-1] ** 2 + q[1:-1] ** 2) ** 2
    assert np.max(np.abs(pi_p[1:-1] - p_z / d2)) < 1e-6


def test_inplane_start_with_field_stays_finite():
    params = make_params(A=0.0, B=1.0)
    initial = FieldState(1.0, 0.0, 0.0, 0.05)  # on the circle, tangent momentum
    traj = integrate_static(initial, (0.0, 10.0), 1e-3, params)
    assert np.max(np.abs(traj.state_array)) < 1e3
    assert traj.energy_drift() < 1e-8


def test_divergence_error_carries_location():
    # enormous momentum rams the state past the overflow threshold quickly
    initial = FieldState(0.0, 0.0, 1e6, 0.0)
    with pytest.raises(DivergenceError) as excinfo:
        integrate_static(initial, (0.0, 10.0), 1e-3, FREE)
    assert 0.0 < excinfo.value.z < 10.0
    # a start already past the threshold, whose H would overflow, fails at z0
    for initial in (FieldState(1e80, 0.0, 0.0, 0.0), FieldState(0.0, 0.0, 1e182, 0.0)):
        with pytest.raises(DivergenceError) as excinfo:
            integrate_static(initial, (0.5, 1.0), 1e-3, A2)
        assert excinfo.value.z == 0.5


def test_bad_inputs_rejected():
    with pytest.raises(DomainError):
        integrate_static(FieldState(0, 0, 0, 0), (0.0, 1.0), 0.0, FREE)
    with pytest.raises(DomainError):
        integrate_static(FieldState(0, 0, 0, 0), (1.0, 0.0), 1e-3, FREE)
    with pytest.raises(DomainError):
        FieldState(float("nan"), 0.0, 0.0, 0.0)


# Step counts that cannot be allocated. At 2**63 numpy's arange returns an empty
# grid instead of failing; RK4 must not start on it, as it would step until
# memory runs out.
@pytest.mark.parametrize("z1", [2.0**63, 2.0**63 - 1024.0, 1e30])
def test_step_count_that_cannot_be_held_is_a_domain_error(z1):
    with pytest.raises(DomainError, match="cannot be held in memory"):
        integrate_static(FieldState(0, 0, 0, 0), (0.0, z1), 1.0, FREE)


def test_buffers_outgrowing_memory_part_way_is_a_domain_error(monkeypatch):
    class Filling(classical.array):
        """A buffer whose extend fails on its fifth call, as an exhausted heap would."""

        calls = 0

        def extend(self, values):
            type(self).calls += 1
            if type(self).calls > 4:
                raise MemoryError
            super().extend(values)

    monkeypatch.setattr(classical, "array", Filling)
    with pytest.raises(DomainError, match="RK4 steps cannot be held in memory"):
        integrate_static(FieldState(0.1, 0, 0, 0), (0.0, 1.0), 0.1, A2)
    assert Filling.calls == 5


# --- scalar step against the array-per-step reference -------------------------


# the formulas as written for numpy scalars, kept apart from the package's
# kernels so that a change in their rounding shows


def _reference_gradient(p, q, params):
    u = p * p + q * q
    d = 1.0 + u
    d2 = d * d
    d3 = d2 * d
    anis = 2.0 * params.A * (1.0 - u) / d3
    dvdp = anis * p + 0.5 * params.muB * (1.0 - p * p + q * q) / d2
    dvdq = anis * q - params.muB * p * q / d2
    return dvdp, dvdq


def _reference_density(y, params):
    p, q, pi_p, pi_q = y
    d = 1.0 + p * p + q * q
    u = p * p + q * q
    dv = 1.0 + u
    v = -0.25 * params.A * (1.0 - u) ** 2 / (dv * dv) + 0.5 * params.muB * p / dv
    return 0.5 * d * d * (pi_p**2 + pi_q**2) + v


def _reference_rhs(y, params):
    p, q, pi_p, pi_q = y
    d = 1.0 + p * p + q * q
    d2 = d * d
    k = pi_p * pi_p + pi_q * pi_q
    dvdp, dvdq = _reference_gradient(p, q, params)
    return np.array(
        [d2 * pi_p, d2 * pi_q, -2.0 * p * d * k - dvdp, -2.0 * q * d * k - dvdq]
    )


def _reference_trajectory(initial, z_span, step, params):
    """The same RK4 loop on length-4 numpy arrays."""
    z0, z1 = z_span
    n_steps = int(round((z1 - z0) / step))
    z_grid = z0 + step * np.arange(n_steps + 1)
    y = np.array([initial.p, initial.q, initial.pi_p, initial.pi_q])
    states, h_values = [y], [_reference_density(y, params)]
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(n_steps):
            k1 = _reference_rhs(y, params)
            k2 = _reference_rhs(y + 0.5 * step * k1, params)
            k3 = _reference_rhs(y + 0.5 * step * k2, params)
            k4 = _reference_rhs(y + step * k3, params)
            y = y + (step / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            if not np.all(np.isfinite(y)) or np.max(np.abs(y)) > DIVERGENCE_THRESHOLD:
                raise DivergenceError("reference diverged", z=float(z_grid[i + 1]))
            states.append(y)
            h_values.append(_reference_density(y, params))
    return np.array(states), np.array(h_values)


@pytest.mark.parametrize(
    "state, params",
    [
        ((0.3, 0.1, 0.0, 0.2), make_params(A=2.0)),
        ((0.1, 0.0, 0.0, 0.0), make_params(A=2.0)),
        ((1.0, 0.0, 0.0, 0.1), make_params(A=0.0)),
        ((0.6, 0.1, 0.05, 0.2), make_params(A=2.0, B=0.3)),
        ((1.0, 0.0, 0.0, 0.05), make_params(A=0.0, B=1.0)),
        ((-0.8, 1.7, 0.4, -0.3), make_params(A=3.1, B=-0.9, mu=1.3)),
    ],
)
def test_scalar_step_matches_array_reference_bitwise(state, params):
    initial = FieldState(*state)
    traj = integrate_static(initial, (0.0, 3.0), 1e-3, params)
    ref_states, ref_h = _reference_trajectory(initial, (0.0, 3.0), 1e-3, params)
    assert np.array_equal(traj.state_array, ref_states)
    assert np.array_equal(traj.h_values, ref_h)


@pytest.mark.parametrize(
    "state, params",
    [
        ((0.0, 0.0, 1e6, 0.0), FREE),
        ((0.5, -0.2, 3e5, 2e5), make_params(A=1.0, B=2.0)),
    ],
)
def test_divergence_location_matches_array_reference(state, params):
    initial = FieldState(*state)
    with pytest.raises(DivergenceError) as ref:
        _reference_trajectory(initial, (0.0, 10.0), 1e-3, params)
    with pytest.raises(DivergenceError) as new:
        integrate_static(initial, (0.0, 10.0), 1e-3, params)
    assert new.value.z == ref.value.z


_COMPONENT = st.floats(-3.0, 3.0)
_PARAMS = st.builds(
    lambda a, b, mu: make_params(A=a, B=b, mu=mu),
    st.floats(-5.0, 5.0), st.floats(-5.0, 5.0), st.floats(0.0, 3.0),
)


@settings(max_examples=60, deadline=None)
@given(state=st.tuples(*[_COMPONENT] * 4), params=_PARAMS, step=st.sampled_from([1e-3, 4e-3]))
def test_scalar_step_matches_references_bitwise(state, params, step):
    """200 steps: the states and H equal the array loop's, and each H is
    hamiltonian_density of its state, all to the bit."""
    initial = FieldState(*state)
    z_span = (0.0, 200 * step)
    try:
        ref_states, ref_h = _reference_trajectory(initial, z_span, step, params)
    except DivergenceError as ref:
        with pytest.raises(DivergenceError) as new:
            integrate_static(initial, z_span, step, params)
        assert new.value.z == ref.z
        return
    traj = integrate_static(initial, z_span, step, params)
    assert traj.state_array.shape == (201, 4)
    assert traj.state_array.tobytes() == ref_states.tobytes()
    assert traj.h_values.tobytes() == ref_h.tobytes()
    for row, h in zip(traj.state_array.tolist(), traj.h_values.tolist()):
        assert h.hex() == hamiltonian_density(FieldState(*row), params).hex()


@settings(max_examples=300, deadline=None)
@given(state=st.tuples(*[st.floats(-1e6, 1e6)] * 4), params=_PARAMS)
def test_rhs_gradient_terms_match_potential_gradient_bitwise(state, params):
    p, q, pi_p, pi_q = state
    d = 1.0 + p * p + q * q
    k = pi_p * pi_p + pi_q * pi_q
    dvdp, dvdq = potential_gradient(p, q, params)
    expected = (d * d * pi_p, d * d * pi_q, -2.0 * p * d * k - dvdp, -2.0 * q * d * k - dvdq)
    got = _rhs(p, q, pi_p, pi_q, params.A, params.muB)
    assert [v.hex() for v in got] == [v.hex() for v in expected]

