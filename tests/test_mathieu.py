import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import special
from scipy.linalg import eigh_tridiagonal

from spinchain.errors import ConvergenceError, DomainError
from spinchain.mathieu import (
    _tridiagonal,
    characteristic_value,
    has_branch,
    inplane_eigenstate,
    inplane_spectrum,
    mathieu_ce,
    mathieu_se,
    offplane_spectrum,
    offplane_wavefunction,
    solve,
    theta_from_field,
)
from spinchain.params import make_params
from spinchain.verify import fd_eigs_richardson, mathieu_residual


# --- characteristic values ------------------------------------------------------


def test_zero_parameter_is_exact():
    for nu in np.arange(0.0, 5.5, 0.5):
        assert characteristic_value(float(nu), 0.0) == float(nu) ** 2


def test_small_q_ground_branch():
    # a_0(q) = -q^2/2 + O(q^4)
    assert characteristic_value(0.0, 0.1) == pytest.approx(-0.005, abs=1e-5)


@pytest.mark.parametrize("q", [0.1, 1.0, 5.0, -0.0625, -3.0])
def test_integer_orders_match_scipy(q):
    for n in range(6):
        assert characteristic_value(n, q, "ce") == pytest.approx(
            special.mathieu_a(n, q), abs=1e-10
        )
        if n >= 1:
            assert characteristic_value(n, q, "se") == pytest.approx(
                special.mathieu_b(n, q), abs=1e-10
            )


def test_fractional_orders_match_fd_oracle():
    # for fractional nu the pi-antiperiodic (nu = 1/2) spectrum is reachable
    # by doubling the period: e^{i x/2} p(x) lives on [0, 4 pi); compare via
    # the ODE residual instead, which is basis independent
    rec = solve(0.5, 1.0)
    assert mathieu_residual(rec).max_rel < 1e-10
    rec = solve(2.5, -0.7, "se")
    assert mathieu_residual(rec).max_rel < 1e-10


def test_continuity_in_q():
    delta = 1e-6
    for nu in (0.5, 1.0, 2.5):
        for q in (0.5, 1.0, 5.0):
            a0 = characteristic_value(nu, q)
            a1 = characteristic_value(nu, q + delta)
            assert abs(a1 - a0) < 10.0 * delta


@pytest.mark.parametrize("n", [0, 2, 4])
@pytest.mark.parametrize("q", [5, -3, 1])
def test_integer_arguments_give_the_float_result(n, q):
    rec = solve(n, q)
    ref = solve(float(n), float(q))
    assert rec.a_nu == ref.a_nu
    assert np.array_equal(rec.fourier_coeffs, ref.fourier_coeffs)


def test_branch_values_are_deterministic():
    assert characteristic_value(1.5, 2.0) == characteristic_value(1.5, 2.0)


def _bisected_value(nu, q, parity, size):
    freqs, diag, off = _tridiagonal(nu, q, parity, size)
    rank = int(np.count_nonzero(np.abs(freqs) < nu))
    return eigh_tridiagonal(
        diag, off, eigvals_only=True, select="i", select_range=(rank, rank),
        tol=2.0 * np.finfo(float).tiny,
    )[0]


def test_truncation_growth_has_converged():
    # a dense eigensolve is ~1e-11 off at these sizes, so the reference at
    # twice the truncation is the same rank-selected bisection
    rec = solve(2.0, 5.0, "ce")
    n_used = rec.problem.truncation
    assert abs(rec.a_nu - _bisected_value(2.0, 5.0, "ce", 2 * n_used)) < 1e-12

    rec = solve(1.5, 3.0)
    half_width = (rec.problem.truncation - 1) // 2
    assert abs(rec.a_nu - _bisected_value(1.5, 3.0, "ce", 2 * half_width)) < 1e-12


def _assert_in_band(nu, q):
    """a_r <= a_nu <= b_{r+1} for r = floor(nu), edges at |q| (DLMF 28.2)."""
    r = math.floor(nu)
    a_nu = characteristic_value(nu, q)
    tol = 1e-12 * max(1.0, abs(a_nu))
    lower = characteristic_value(r, abs(q), "ce")
    upper = characteristic_value(r + 1, abs(q), "se")
    assert lower - tol <= a_nu <= upper + tol, (nu, q, lower, a_nu, upper)


@settings(max_examples=300, deadline=None)
@given(
    nu=st.floats(min_value=0.0, max_value=6.0, exclude_min=True, exclude_max=True).filter(
        lambda nu: nu != round(nu)
    ),
    log_q=st.floats(min_value=-3.0, max_value=4.0),
    sign=st.sampled_from([1.0, -1.0]),
)
def test_fractional_orders_stay_in_their_band(nu, log_q, sign):
    _assert_in_band(nu, sign * 10.0**log_q)


@pytest.mark.parametrize("nu, q", [(1.5, 75.0), (1.5, 100.0), (2.7, 100.0)])
def test_fractional_orders_stay_in_their_band_at_large_q(nu, q):
    _assert_in_band(nu, q)


def _ulps_from(m, k):
    """The double k ulps above the integer m (below for k < 0), stepped on its bits."""
    return float((np.float64(m).view(np.int64) + k).view(np.float64))


@settings(max_examples=200, deadline=None)
@given(
    m=st.integers(min_value=0, max_value=5),
    k=st.integers(min_value=1, max_value=2**40),
    below=st.booleans(),
    log_q=st.floats(min_value=-3.0, max_value=4.0),
    sign=st.sampled_from([1.0, -1.0]),
)
def test_orders_ulps_from_an_integer_are_fractional(m, k, below, log_q, sign):
    """An order 1 to 2**40 ulps off an integer is solved as the fractional order it
    is: in its own band, one value for both parities, and even in q."""
    nu = _ulps_from(m, -k if below and m > 0 else k)
    q = sign * 10.0**log_q
    _assert_in_band(nu, q)
    a_nu = characteristic_value(nu, q, "ce")
    assert characteristic_value(nu, q, "se") == a_nu
    assert characteristic_value(nu, -q, "ce") == a_nu


@pytest.mark.parametrize(
    "nu, q, parity, s",
    [
        (0.0, 1e4, "ce", 1),
        (0.0, -1e4, "ce", 1),
        (1.0, 1e4, "ce", 3),
        (1.0, -1e4, "ce", 1),
        (1.0, 1e4, "se", 1),
        (1.0, -1e4, "se", 3),
        (1.5, 1e4, "ce", 3),
        (1.5, -1e4, "ce", 3),
        (0.5, 1e5, "ce", 1),
        (3.0, 1e5, "ce", 7),
    ],
)
def test_large_q_values_match_asymptotics(nu, q, parity, s):
    # DLMF 28.8.1 with h = sqrt|q|; s = 2r + 1 labels the well state the
    # branch tends to (a_nu(-q) = a_nu(q) for fractional nu, and q -> -q
    # swaps a_n and b_n for odd n)
    h = math.sqrt(abs(q))
    expected = (
        -2.0 * h * h + 2.0 * s * h - (s * s + 1) / 8.0
        - (s**3 + 3 * s) / (2**7 * h)
        - (5 * s**4 + 34 * s * s + 9) / (2**12 * h * h)
        - (33 * s**5 + 410 * s**3 + 405 * s) / (2**17 * h**3)
    )
    assert characteristic_value(nu, q, parity) == pytest.approx(expected, rel=1e-12)


def test_interlacing_at_positive_q():
    q = 1.0
    a0 = characteristic_value(0, q)
    b1 = characteristic_value(1, q, "se")
    a1 = characteristic_value(1, q, "ce")
    b2 = characteristic_value(2, q, "se")
    a2 = characteristic_value(2, q, "ce")
    assert a0 < b1 < a1 < b2 < a2


def test_invalid_orders_rejected():
    with pytest.raises(DomainError):
        characteristic_value(-1.0, 0.0)
    with pytest.raises(DomainError):
        characteristic_value(0.0, 1.0, "se")
    with pytest.raises(DomainError):
        characteristic_value(1.0, 1.0, "foo")
    with pytest.raises(DomainError):
        characteristic_value(float("nan"), 1.0)
    # a non-finite order has a sine-type branch to ask for, and is then rejected
    for nu in (math.nan, math.inf, -math.inf):
        assert has_branch(nu, "se") and has_branch(nu, "ce")
        with pytest.raises(DomainError, match="nu and q must be finite"):
            characteristic_value(nu, 1.0, "se")


@pytest.mark.parametrize(
    "nu, q",
    [(1e200, 0.0), (1e300, 0.0), (1.0, 1e300), (0.0, -3.125e298), (1e308, 1.0), (1.7e308, -1.0)],
)
def test_overflowing_problems_are_solver_errors(nu, q):
    """An overflowing nu^2, a q LAPACK cannot bisect, or an order whose first truncation
    size 2 nu + 16 overflows is a solver error, not inf or a traceback."""
    with pytest.raises(ConvergenceError):
        characteristic_value(nu, q)


@pytest.mark.parametrize("q", [1.3e308, -1.3e308])
def test_overflowing_floquet_entry_is_a_solver_error(q):
    """The even cosine basis couples its first mode by sqrt(2) q, which overflows here."""
    with pytest.raises(ConvergenceError, match=r"sqrt\(2\) q overflows"):
        solve(0.0, q)


@pytest.mark.parametrize(
    "spectrum, params, nu",
    [
        (offplane_spectrum, make_params(A=1.0, hbar=1.3e154), 1.0),
        (inplane_spectrum, make_params(A=0.0, B=1.0, hbar=1.3e154), 2.0),
    ],
)
def test_overflowing_energies_are_solver_errors(spectrum, params, nu):
    """A finite a_nu times hbar^2 can still overflow; that is a solver error, not inf."""
    with pytest.raises(ConvergenceError, match=f"order nu={nu:g} is not finite"):
        spectrum(params, [nu])


def test_offplane_energy_where_only_two_hbar_squared_overflows():
    # q = -A/(32 hbar^2) underflows to -0.0, so a_0 = 0 and E = -A/8; 2 hbar^2 is inf
    assert offplane_spectrum(make_params(A=1.0, hbar=1.3e154), [0.0]) == [(0.0, -0.125)]


# --- eigenfunctions -------------------------------------------------------------


def test_trig_reduction_at_zero_q():
    for x in (0.0, 0.3, 1.7):
        assert mathieu_ce(2.0, 0.0, x) == pytest.approx(math.cos(2 * x), abs=1e-12)
        assert mathieu_se(1.0, 0.0, x) == pytest.approx(math.sin(x), abs=1e-12)
        assert mathieu_ce(0.5, 0.0, x) == pytest.approx(math.cos(0.5 * x), abs=1e-12)
    assert mathieu_se(1.0, 0.0, math.pi / 2) == pytest.approx(1.0, abs=1e-15)


def test_eigenfunction_satisfies_ode():
    rec = solve(1.0, 1.0, "ce")
    assert mathieu_residual(rec).max_rel < 1e-8


@pytest.mark.parametrize(
    "nu, q, parity",
    [(0.0, 1.0, "ce"), (1.0, -3.0, "se"), (2.5, 40.0, "ce"), (1.5, -1e3, "se"),
     (3.0, 1e4, "ce"), (0.5, 1e5, "se")],
)
def test_second_derivative_matches_two_matrix_formula_bitwise(nu, q, parity):
    """w'' scaled in place in the basis equals the product with a second matrix."""
    rec = solve(nu, q, parity)
    c, f = rec.fourier_coeffs, rec.frequencies
    for x in (np.linspace(0.0, 2.0 * np.pi, 257, endpoint=False), 0.7):
        phase = np.multiply.outer(np.asarray(x, dtype=float), f)
        basis = np.cos(phase) if parity == "ce" else np.sin(phase)
        w, wpp = rec.value_and_second_derivative(x)
        assert np.array_equal(w, basis @ c)
        assert np.array_equal(wpp, -(basis * f**2) @ c)
        assert np.array_equal(rec(x), basis @ c)


def test_residual_at_huge_q_holds_one_basis_matrix():
    """The resolving grid at |q| = 1e7 makes a points x frequencies basis of
    about 45 MiB; the residual must not hold a second one beside it."""
    rec = solve(1.5, -1e7, "se")
    points = max(64, int(4.0 * np.max(np.abs(rec.frequencies))))
    basis_bytes = points * rec.frequencies.size * 8
    assert basis_bytes > 40 * 2**20
    tracemalloc.start()
    try:
        report = mathieu_residual(rec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.passed
    assert peak < 1.2 * basis_bytes


@pytest.mark.parametrize(
    "nu, q",
    [pytest.param(3.0, 2.5, id="integer"), pytest.param(1e-13, 1.0, id="fractional")],
)
def test_coefficients_are_normalized_with_positive_principal(nu, q):
    # unit norm in the basis solved: parity-folded for an integer order, the full
    # lattice nu + 2k otherwise
    rec = solve(nu, q, "ce")
    assert np.linalg.norm(rec.fourier_coeffs) == pytest.approx(1.0, abs=1e-12)
    principal = int(np.argmin(np.abs(rec.frequencies - nu)))
    assert rec.fourier_coeffs[principal] > 0


# --- spectra ---------------------------------------------------------------------


def test_offplane_zero_anisotropy_ladder():
    params = make_params(A=0.0)
    spec = offplane_spectrum(params, range(4))
    for n, e in spec:
        assert e == 2.0 * n**2


def test_offplane_reference_value():
    # frozen from the handbook branch: -0.25 + 2 a_1(-1/16)
    params = make_params(A=2.0)
    (nu, e), = offplane_spectrum(params, [1.0])
    assert e == pytest.approx(1.6240310464670336, abs=1e-10)


def test_offplane_matches_fd_oracle():
    params = make_params(A=2.0)
    q = params.q_offplane
    fd = fd_eigs_richardson(q, 2048, 6)
    engine = [e for _, e in offplane_spectrum(params, [0, 1, 2], "ce")]
    engine += [e for _, e in offplane_spectrum(params, [1, 2], "se")]
    engine = sorted(engine)[:4]
    fd_energies = [2.0 * params.hbar**2 * a - params.A / 8.0 for a in fd[:4]]
    for e_engine, e_fd in zip(engine, fd_energies):
        assert abs(e_engine - e_fd) < 1e-6


def test_inplane_zero_field_ladder_is_exact():
    params = make_params(A=0.0, B=0.0)
    spec = inplane_spectrum(params, range(6))
    assert [e for _, e in spec] == [0.0, 0.5, 2.0, 4.5, 8.0, 12.5]


def test_inplane_with_field():
    # frozen: (1/2) a_1(1/4)
    params = make_params(A=0.0, B=1.0)
    (_, e), = inplane_spectrum(params, [1.0])
    assert e == pytest.approx(0.6209705641214576, abs=1e-10)


# --- coordinate maps -------------------------------------------------------------


def test_theta_map_reference_points():
    assert theta_from_field(0.0) == pytest.approx(math.pi, abs=1e-15)
    assert theta_from_field(1.0) == pytest.approx(math.pi / 2, abs=1e-15)
    assert theta_from_field(1e12) < 1e-11  # P -> +inf pushes theta -> 0+
    assert theta_from_field(-1e12) == pytest.approx(2 * math.pi, abs=1e-11)


@pytest.mark.parametrize("p", [math.nan, math.inf, -math.inf])
def test_theta_map_rejects_a_non_finite_field(p):
    with pytest.raises(DomainError, match="P must be finite"):
        theta_from_field(p)


def test_offplane_wavefunction_uses_theta_map():
    rec = solve(1.0, -0.0625, "ce")
    assert offplane_wavefunction(rec, 0.0) == pytest.approx(float(rec(math.pi)), abs=1e-15)
    assert offplane_wavefunction(rec, 1.0) == pytest.approx(float(rec(math.pi / 2)), abs=1e-15)


def test_inplane_eigenstate_values():
    params = make_params(A=0.0, B=0.0)
    assert inplane_eigenstate(0, 0.3, -0.2, 5.0, params) == pytest.approx(1.0 + 0.0j)
    assert inplane_eigenstate(1, 1.0, 0.0, 0.0, params) == pytest.approx(1.0 + 0.0j)
    # phase advances with z at E_n = hbar^2 n^2 / 2
    val = inplane_eigenstate(2, 1.0, 0.0, 1.0, params)
    assert val == pytest.approx(complex(math.cos(2.0), math.sin(2.0)), abs=1e-15)
    # on the Q axis the angle is +-pi/2, the P -> 0+ limit of arctan(Q/P)
    for q in (0.5, -0.5):
        on_axis = inplane_eigenstate(1, 0.0, q, 0.0, params)
        assert on_axis == inplane_eigenstate(1, 1e-300, q, 0.0, params)
        assert on_axis == math.cos(math.pi / 4)


def test_inplane_eigenstate_circle_parametrization():
    params = make_params(A=0.0, B=0.0)
    n = 2
    for phi in np.linspace(-0.7, 0.7, 11):
        p, q = math.cos(2 * phi), math.sin(2 * phi)
        val = inplane_eigenstate(n, p, q, 0.0, params)
        assert val.real == pytest.approx(math.cos(n * phi), abs=1e-12)


def test_inplane_eigenstate_domain_errors():
    params = make_params(A=0.0, B=0.0)
    with pytest.raises(DomainError):
        inplane_eigenstate(1, 0.0, 0.0, 0.0, params)
    with pytest.raises(DomainError):
        inplane_eigenstate(-1, 1.0, 0.0, 0.0, params)
    with pytest.raises(DomainError):
        inplane_eigenstate(1, 1.0, 0.0, 0.0, make_params(A=0.0, B=0.5))
