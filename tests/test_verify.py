import numpy as np
import pytest

from spinchain import stereo, verify
from spinchain.bethe import radial_derivatives, solve_level
from spinchain.errors import ConvergenceError, DomainError
from spinchain.mathieu import characteristic_value, solve
from spinchain.params import make_params
from spinchain.verify import (
    fd_eigs_periodic,
    fd_eigs_richardson,
    mathieu_residual,
    nlsm_equivalence,
    radial_residual,
    run_suite,
)

A2 = make_params(A=2.0)


# --- radial residuals -------------------------------------------------------


def test_ground_state_radial_residual():
    sol = solve_level(0, A2)[0]
    rep = radial_residual(0, sol, A2)
    assert rep.passed and rep.max_rel < 1e-8


def test_excited_state_radial_residual_both_branches():
    for sol in solve_level(1, A2):
        rep = radial_residual(1, sol, A2)
        assert rep.passed and rep.max_rel < 1e-8


def test_wrong_energy_is_loud():
    sol = solve_level(0, A2)[0]
    clean = radial_residual(0, sol, A2).max_rel
    wrong = radial_residual(0, sol, A2, energy=sol.energy + 0.1).max_rel
    assert wrong > 1e-3
    assert wrong / clean >= 1e3


def test_radial_residual_rejects_a_solution_of_another_level():
    with pytest.raises(DomainError, match="solution is for n = 1, not 2"):
        radial_residual(2, solve_level(1, A2)[0], A2)


def test_radial_grid_must_avoid_origin():
    # radial_residual runs on its fixed grid; the check lives in bethe.radial_derivatives
    with pytest.raises(DomainError):
        radial_derivatives(0, (), A2, np.array([0.0, 0.5]))


def test_higher_levels_pass_on_default_grid():
    for n in (2, 3):
        for sol in solve_level(n, A2):
            assert radial_residual(n, sol, A2).max_rel < 1e-8


@pytest.mark.parametrize("n, A, hbar", [(0, 1e6, 1e-3), (1, 9.9e-8, 9.9e-8)])
def test_overflowing_radial_factor_is_a_solver_error(n, A, hbar):
    # e^{a/(1+r^2)} overflows on the inner part of the grid, from its first point on
    params = make_params(A=A, hbar=hbar)
    sol = solve_level(n, params)[0]
    with np.errstate(over="raise", invalid="raise", divide="raise"):  # no RuntimeWarning escapes
        with pytest.raises(ConvergenceError, match="not finite at r = 0.1$"):
            radial_residual(n, sol, params)


# --- Mathieu residuals ------------------------------------------------------


def test_pure_trig_residual_is_machine_zero():
    rec = solve(1.0, 0.0, "ce")
    assert mathieu_residual(rec).max_rel < 1e-14


def test_mathieu_residual_at_unit_q():
    rec = solve(1.0, 1.0, "ce")
    assert mathieu_residual(rec).max_rel < 1e-8


def test_corrupted_characteristic_value_is_loud():
    rec = solve(1.0, 1.0, "ce")
    clean = mathieu_residual(rec).max_rel
    wrong = mathieu_residual(rec, a_value=rec.a_nu + 0.01).max_rel
    assert wrong > 1e-4
    assert wrong / clean >= 1e3


@pytest.mark.parametrize(
    "nu, q", [(0.0, 1e4), (1.5, 1e4), (1.5, -1e4), (0.5, 1e5), (3.0, 1e5)]
)
def test_large_q_solutions_are_certified(nu, q):
    # w decays to ~1e-14 in the forbidden zone; the floor of the denominator
    # scales with the largest term, so rounding there does not read as error
    rec = solve(nu, q, "ce")
    assert mathieu_residual(rec).passed
    assert not mathieu_residual(rec, a_value=rec.a_nu + 0.01).passed
    assert not mathieu_residual(rec, a_value=rec.a_nu * (1.0 + 1e-3)).passed


@pytest.mark.parametrize(
    "nu, q, parity",
    [(1.0, 3e6, "ce"), (1.5, -3e6, "se"), (2.0, 1e7, "se"), (3.0, 1e7, "ce"),
     (5.0, -3e6, "se"), (10.0, -1e7, "se")],
)
def test_grid_resolves_the_peak_at_very_large_q(nu, q, parity):
    # w is about |q|^(-1/4) wide, narrower than the spacing of a 64-point grid,
    # which failed these correct values; a + 0.01 is below relative resolution here
    rec = solve(nu, q, parity)
    assert mathieu_residual(rec).passed
    assert not mathieu_residual(rec, a_value=rec.a_nu * (1.0 + 1e-3)).passed


# --- finite-difference oracle -------------------------------------------------


def test_fd_ladder_at_zero_q():
    vals = fd_eigs_periodic(0.0, 1024, 7)
    h = 2 * np.pi / 1024
    # exact eigenvalues of the discretized operator, then the continuum ladder
    for got, m in zip(vals, [0, 1, 1, 2, 2, 3, 3]):
        assert got == pytest.approx((2 - 2 * np.cos(m * h)) / h**2, abs=1e-9)
        assert got == pytest.approx(m**2, abs=1e-3)


def test_fd_requires_enough_nodes():
    with pytest.raises(DomainError):
        fd_eigs_periodic(1.0, 128, 4)


@pytest.mark.parametrize("q", [0.1, 1.0, 5.0])
def test_fd_oracle_agrees_with_characteristic_values(q):
    fd = fd_eigs_richardson(q, 2048, 16)
    for n in range(6):
        for parity in ("ce",) if n == 0 else ("ce", "se"):
            a_val = characteristic_value(n, q, parity)
            assert np.min(np.abs(fd - a_val)) < 1e-5


def test_fd_oracle_is_reproducible():
    # ARPACK starts from a random vector unless it is given one
    assert np.array_equal(fd_eigs_periodic(25.0, 1024, 8), fd_eigs_periodic(25.0, 1024, 8))


def test_fd_convergence_rate():
    # halving h divides the eigenvalue error by ~4
    exact = characteristic_value(2, 1.0)
    e1 = np.abs(fd_eigs_periodic(1.0, 512, 6)[4] - exact)
    e2 = np.abs(fd_eigs_periodic(1.0, 1024, 6)[4] - exact)
    assert e1 / e2 == pytest.approx(4.0, rel=0.2)


# --- sigma-model equivalence ---------------------------------------------------


def test_nlsm_equivalence_analytic():
    assert nlsm_equivalence(100, seed=42) < 1e-8


def test_nlsm_equivalence_finite_difference():
    assert nlsm_equivalence(50, seed=42, derivative="fd") < 1e-6


def test_nlsm_equivalence_is_deterministic():
    a = nlsm_equivalence(25, seed=7)
    b = nlsm_equivalence(25, seed=7)
    assert a == b  # bit-for-bit


def _nlsm_per_sample(samples, seed, derivative, h=1e-4):
    """The check one path at a time through the point maps: (max deviation, largest density)."""
    rng = np.random.default_rng(seed)
    m = np.arange(1, 7)
    worst = largest = 0.0
    for _ in range(samples):
        ap, bp, aq, bq = 0.4 * rng.normal(size=(4, 6)) / m**2

        def fields(z):
            c, s = np.cos(m * z), np.sin(m * z)
            return (
                float(np.sum(ap * c + bp * s)),
                float(np.sum(aq * c + bq * s)),
                float(np.sum(m * (-ap * s + bp * c))),
                float(np.sum(m * (-aq * s + bq * c))),
            )

        z = float(rng.uniform(0.0, 2.0 * np.pi))
        p, q, pz, qz = fields(z)
        cols = [np.array([v]) for v in (p, q, pz, qz)]
        s = np.array([stereo.unproject(stereo.ComplexFieldPoint(p, q)).as_tuple()])
        if derivative == "analytic":
            sz = stereo.pushforward(*cols)
        else:
            s_plus = stereo.unproject(stereo.ComplexFieldPoint(*fields(z + h)[:2])).as_tuple()
            s_minus = stereo.unproject(stereo.ComplexFieldPoint(*fields(z - h)[:2])).as_tuple()
            sz = np.array([[(hi - lo) / (2.0 * h) for hi, lo in zip(s_plus, s_minus)]])
            sz = stereo.tangent_part(s, sz)
        k_sphere = float(stereo.density_sphere(s, sz)[0])
        k_plane = float(stereo.density_plane(*cols)[0])
        worst = max(worst, abs(k_sphere - k_plane))
        largest = max(largest, k_sphere, k_plane)
    return worst, largest


@pytest.mark.parametrize("derivative", ["analytic", "fd"])
def test_nlsm_equivalence_matches_per_sample_reference(derivative):
    """All paths at once give what one path at a time gives: exactly at the
    default seed, and to 4 ulp of the largest density on 50 more seeds."""
    assert nlsm_equivalence(100, 42, derivative) == _nlsm_per_sample(100, 42, derivative)[0]
    for seed in range(50):
        worst, largest = _nlsm_per_sample(40, seed, derivative)
        assert abs(nlsm_equivalence(40, seed, derivative) - worst) <= 4 * np.spacing(largest)


def test_nlsm_equivalence_rejects_bad_args():
    with pytest.raises(DomainError):
        nlsm_equivalence(0, seed=1)
    with pytest.raises(DomainError):
        nlsm_equivalence(10, seed=1, derivative="spline")
    with pytest.raises(DomainError, match="seed must be non-negative"):
        nlsm_equivalence(10, seed=-1)


# --- suite runner ----------------------------------------------------------------


def test_full_suite_passes():
    cases = run_suite("all", A2)
    assert len(cases) >= 8
    assert all(c.passed for c in cases)
    assert [c.name for c in cases if c.name.startswith("nlsm")] == [cases[-1].name]


def test_unknown_suite_rejected():
    with pytest.raises(DomainError):
        run_suite("everything", A2)


def test_negative_seed_fails_before_any_case_runs(monkeypatch):
    def unexpected(*args, **kwargs):
        raise AssertionError("a case ran before the seed was checked")

    monkeypatch.setattr(verify, "solve_level", unexpected)
    monkeypatch.setattr(verify._mathieu, "solve", unexpected)
    with pytest.raises(DomainError, match="seed must be non-negative"):
        run_suite("all", A2, seed=-1)
