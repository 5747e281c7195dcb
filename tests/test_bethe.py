import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import linear_sum_assignment

from spinchain import bethe, verify
from spinchain.bethe import (
    RESIDUAL_TOL,
    HeunCoefficients,
    bethe_residual,
    bethe_roots,
    coefficient_recurrence_solutions,
    derive_lambda_from_constraints,
    eigenfunction_eval,
    energy,
    energy_from_constraints,
    heun_coefficients,
    l_branches,
    lambda_n,
    lambda_n_exact,
    radial_derivatives,
    solve_level,
    xi_from_roots,
)
from spinchain.cli import main
from spinchain.errors import ConvergenceError, DomainError, IncompleteSpectrumError
from spinchain.params import make_params

A2 = make_params(A=2.0)  # a = 1


def params_for_a(a):
    return make_params(A=2.0 * a * a)


def root_set_distance(z1, z2):
    z1 = np.asarray(z1, complex)
    z2 = np.asarray(z2, complex)
    if len(z1) != len(z2):
        return math.inf
    if len(z1) == 0:
        return 0.0
    cost = np.abs(z1[:, None] - z2[None, :])
    rows, cols = linear_sum_assignment(cost)
    return float(cost[rows, cols].max())


def closed_form_zeta1(params):
    """Both first-level roots 1/2 + sqrt(h^2/2A) +- (1/2) sqrt(2h^2/A + 1 + sqrt(2h^2/A))."""
    h2_over = params.hbar**2 / (2.0 * params.A)
    mid = 0.5 + math.sqrt(h2_over)
    spread = 0.5 * math.sqrt(4.0 * h2_over + 1.0 + math.sqrt(4.0 * h2_over))
    return (mid - spread, mid + spread)


# --- quantized angular number -------------------------------------------------


def test_lambda_reference_values():
    assert lambda_n(0) == -2.0
    assert lambda_n(1) == -2.5
    assert lambda_n(2) == pytest.approx(-10.0 / 3.0, abs=1e-15)
    assert lambda_n_exact(2) == Fraction(-10, 3)


def test_lambda_from_constraints_matches_closed_form():
    for n in range(21):
        assert abs(derive_lambda_from_constraints(n) - lambda_n(n)) <= 1e-12
    assert derive_lambda_from_constraints(3) == pytest.approx(-17.0 / 4.0, abs=1e-15)


@given(st.integers(min_value=0, max_value=200))
def test_lambda_rational_identity(n):
    lam = lambda_n_exact(n)
    assert lam * (n + 1) == -(n * n + 2 * n + 2)


def test_lambda_rejects_negative_level():
    with pytest.raises(DomainError):
        lambda_n(-1)
    with pytest.raises(DomainError):
        derive_lambda_from_constraints(-1)


# --- transformation exponent branches -----------------------------------------


def test_l_branch_values():
    assert l_branches(-2.0) == (0.0, 0.0)
    assert l_branches(-2.5) == (0.5, -1.0)
    assert l_branches(2.0) == (2.0, 2.0)


def test_l_branch_complex_rejected():
    with pytest.raises(DomainError, match="l is complex"):
        l_branches(0.0)
    with pytest.raises(DomainError, match="l is complex"):
        l_branches(1.9)


def test_minus_branch_is_minus_n():
    for n in range(21):
        plus, minus = l_branches(lambda_n(n))
        assert abs(minus - (-n)) <= 1e-12
        if n > 0:
            assert abs(plus - n / (n + 1.0)) <= 1e-12


# --- ODE coefficients -----------------------------------------------------------


def test_heun_coefficients_ground_level():
    c = heun_coefficients(0, A2)
    assert (c.b0, c.b1, c.b2, c.c1) == (1.0, 2.0, -2.0, 0.0)
    assert (c.a0, c.a1, c.a2) == (0.0, 1.0, -1.0)
    assert c.c0 == 1.0  # the xi-free offset -a(lambda + 1) at lambda = -2, a = 1


def test_heun_coefficients_first_level():
    c = heun_coefficients(1, A2)
    assert c.c1 == 2.0  # -2 l a with l = -1, a = 1


def test_absent_powers_vanish_for_all_levels():
    for n in range(8):
        c = heun_coefficients(n, A2)
        assert c.a3 == c.a4 == c.b3 == c.c2 == 0.0
        # first constraint holds identically with those coefficients
        assert c.c2 == -n * (n - 1) * c.a4 - n * c.b3


def test_heun_coefficients_need_positive_anisotropy():
    with pytest.raises(DomainError):
        heun_coefficients(0, make_params(A=0.0))


def test_only_the_level_dependent_coefficients_are_stored():
    stored = [f.name for f in dataclasses.fields(HeunCoefficients)]
    assert stored == ["b0", "b1", "b2", "c0", "c1"]
    fixed = (HeunCoefficients.a0, HeunCoefficients.a1, HeunCoefficients.a2,
             HeunCoefficients.a3, HeunCoefficients.a4, HeunCoefficients.b3, HeunCoefficients.c2)
    assert fixed == (0.0, 1.0, -1.0, 0.0, 0.0, 0.0, 0.0)


# --- roots ----------------------------------------------------------------------


def test_no_roots_at_level_zero():
    assert bethe_roots(0, A2) == [()]


@pytest.mark.parametrize("a", [0.5, 1.0, 2.0])
def test_first_level_roots_match_closed_form(a):
    params = params_for_a(a)
    sets = bethe_roots(1, params)
    assert len(sets) == 2
    got = sorted(z[0].real for z in sets)
    expected = sorted(closed_form_zeta1(params))
    assert got == pytest.approx(expected, abs=1e-10)
    for z in sets:
        assert abs(z[0].imag) < 1e-12


def test_reference_roots_a_one():
    sets = bethe_roots(1, A2)
    vals = sorted(z[0].real for z in sets)
    assert vals[0] == pytest.approx((2.0 - math.sqrt(3.0)) / 2.0, abs=1e-12)
    assert vals[1] == pytest.approx((2.0 + math.sqrt(3.0)) / 2.0, abs=1e-12)


def test_second_level_root_sets():
    sets = bethe_roots(2, A2)
    assert len(sets) == 3
    for roots in sets:
        assert len(roots) == 2
        assert bethe_residual(2, roots, A2) < 1e-10


def _polish_blind(n, params, seeds):
    """Distinct branches Newton reaches from explicit seeds, with no recurrence input."""
    a, lam = params.a, lambda_n(n)
    z, ok, _ = bethe._newton(np.array(seeds, dtype=complex), n, a, lam)
    found = []
    for zk in z[ok]:
        if not any(
            bethe._same_xi(bethe._branch_xi(zk, a, lam), bethe._branch_xi(other, a, lam))
            for other in found
        ):
            found.append(zk)
    return found


def test_newton_finds_all_branches_without_oracle_seeds():
    """A blind multistart (no recurrence-route information) recovers every
    branch of n = 2, so the two solution routes are genuinely independent."""
    grid = [0.15, 0.45, 0.8, 1.4, 2.1]
    blind = [[grid[i], grid[j]] for i in range(5) for j in range(i + 1, 5)]
    blind += [[c + 0.4j, c - 0.4j] for c in (0.2, 0.9, 1.6, 2.2)]
    sets = _polish_blind(2, A2, blind)
    assert len(sets) == 3
    oracle_sets = [
        tuple(np.polynomial.polynomial.polyroots(s.astype(complex)))
        for _, s in coefficient_recurrence_solutions(2, A2)
    ]
    for roots in sets:
        assert bethe_residual(2, roots, A2) < 1e-10
        assert min(root_set_distance(roots, o) for o in oracle_sets) < 1e-8


def test_explicit_seeds_are_respected():
    # seeding only near one branch still converges to a valid solution
    (near,) = _polish_blind(1, A2, [[0.2]])
    assert abs(near[0] - 0.1339745962155614) < 1e-9
    assert bethe_residual(1, near, A2) < 1e-10


def test_explicit_seeds_merge_duplicate_branches():
    assert len(_polish_blind(1, A2, [[0.2], [0.15], [1.9], [0.1]])) == 2


def _loop_system_and_jacobian(z, n, a, lam):
    """Row-by-row reference for the vectorised Bethe system and Jacobian."""
    f = np.empty(n, complex)
    jac = np.zeros((n, n), complex)
    for i in range(n):
        num = 2.0 * a * z[i] ** 2 - 2.0 * (n + a) * z[i] + 2.0 * n + lam + 1.0
        den = z[i] * (1.0 - z[i])
        f[i] = sum(2.0 / (z[i] - z[j]) for j in range(n) if j != i) - num / den
        dnum = 4.0 * a * z[i] - 2.0 * (n + a)
        jac[i, i] = -(dnum * den - num * (1.0 - 2.0 * z[i])) / den**2
        for j in range(n):
            if j != i:
                jac[i, j] = 2.0 / (z[i] - z[j]) ** 2
                jac[i, i] -= jac[i, j]
    return f, jac


def _loop_recurrence_solutions(n, params):
    """Index-loop reference for the recurrence matrix, its normalised eigenvectors and their order."""
    c = heun_coefficients(n, params)
    m = np.zeros((n + 1, n + 1))
    for j in range(n + 1):
        if j + 1 <= n:
            m[j, j + 1] = (j + 1) * (j + c.b0)
        m[j, j] = -j * (j - 1) + c.b1 * j + c.c0
        if j >= 1:
            m[j, j - 1] = c.b2 * (j - 1) + c.c1
    eigvals, eigvecs = np.linalg.eig(m)
    solutions = []
    for k in range(n + 1):
        solutions.append((bethe._require_real(-eigvals[k], "xi"), eigvecs[:, k] / eigvecs[-1, k]))
    solutions.sort(key=lambda t: t[0])
    return solutions


@pytest.mark.parametrize("A", [0.5, 8.0])
@pytest.mark.parametrize("n", [0, 1, 2, 9, 20])
def test_recurrence_matrix_matches_loop_reference(n, A):
    params = make_params(A=A)
    got = coefficient_recurrence_solutions(n, params)
    want = _loop_recurrence_solutions(n, params)
    assert np.array([xi for xi, _ in got]).tobytes() == np.array([xi for xi, _ in want]).tobytes()
    for (_, s), (_, s_ref) in zip(got, want):
        assert s.dtype == s_ref.dtype and s.tobytes() == s_ref.tobytes()


@pytest.mark.parametrize("n", [1, 2, 4, 9])
def test_vectorised_system_matches_loop_reference(n):
    rng = np.random.default_rng(n)
    z = rng.uniform(0.05, 3.0, (3, n)) + 1j * rng.uniform(-1.0, 1.0, (3, n))
    a, lam = 0.7, lambda_n(n)
    f, jac = bethe._bethe_system(z, n, a, lam)
    assert f.shape == (3, n) and jac.shape == (3, n, n)
    for zk, fk, jk in zip(z, f, jac):
        f_ref, jac_ref = _loop_system_and_jacobian(zk, n, a, lam)
        # summation order differs from the loop: allow rounding at the largest entry
        tol = 1e-13 * max(1.0, np.max(np.abs(jac_ref)))
        assert np.max(np.abs(fk - f_ref)) < tol
        assert np.max(np.abs(jk - jac_ref)) < tol


def test_a_pairing_that_is_not_an_involution_is_a_missing_branch(monkeypatch, capsys):
    """Row 1 converges to three roots on one vertical line with imaginary parts
    0.01, -0.025 and 0.015. Their sum, and so their xi, is the branch's, and they
    are distinct, but the first root's nearest conjugate is the second root, whose
    nearest conjugate is the third: no pairing closes the set under conjugation,
    so the branch goes missing."""
    n, real_newton = 3, bethe._newton
    lopsided = np.array([0.01j, -0.025j, 0.015j])

    def unpaired_row(z0, n, a, lam):
        z, ok, res = real_newton(z0, n, a, lam)
        z[1] = z[1].sum().real / n + lopsided
        return z, ok, res

    _, paired = bethe._conjugate_closure(lopsided[None])
    assert paired.tolist() == [False]
    assert bethe._min_separation(lopsided) > bethe.DISTINCTNESS_TOL
    monkeypatch.setattr(bethe, "_newton", unpaired_row)
    with pytest.raises(IncompleteSpectrumError) as info:
        solve_level(n, A2)
    assert (info.value.found, info.value.expected) == (n, n + 1)
    assert info.value.best_residual is None  # every row converged
    assert main(["roots", "--n", "3", "--A", "2"]) == 3
    assert "matched 3 of 4" in capsys.readouterr().err


@settings(deadline=None)
@given(n=st.integers(0, 20), log_a=st.floats(math.log(0.1), math.log(8.0)))
def test_returned_root_sets_are_exactly_closed_under_conjugation(n, log_a):
    """S has real coefficients, so every root set equals its conjugate; the solver
    returns it so exactly, in np.sort order, and within the residual bound."""
    params = make_params(A=math.exp(log_a))
    for sol in solve_level(n, params):
        z = np.array(sol.roots, dtype=complex)
        assert np.sort(z.conj()).tolist() == np.sort(z).tolist() == z.tolist()
        assert sol.residual < RESIDUAL_TOL


def test_failed_branch_raises_incomplete_spectrum(monkeypatch, capsys):
    real_newton = bethe._newton

    def fail_second(z0, n, a, lam):
        z, ok, res = real_newton(z0, n, a, lam)
        ok[1], res[1] = False, 0.5
        return z, ok, res

    monkeypatch.setattr(bethe, "_newton", fail_second)
    with pytest.raises(IncompleteSpectrumError) as info:
        solve_level(3, A2)
    assert (info.value.found, info.value.expected) == (3, 4)
    assert info.value.best_residual == 0.5

    assert main(["roots", "--n", "3", "--A", "2"]) == 3
    out = capsys.readouterr()
    assert out.out == ""
    assert "matched 3 of 4" in out.err


def _collapse_rows(rows):
    """A patched _newton whose given rows converge with every root on their mean.

    The mean keeps the root sum, so such a row still has its own xi; only the
    distinctness test can refuse it.
    """
    real_newton = bethe._newton

    def collapse(z0, n, a, lam):
        z, ok, res = real_newton(z0, n, a, lam)
        z[rows] = z[rows].mean(axis=-1, keepdims=True)
        return z, ok, res

    return collapse


def test_converged_collision_is_a_missing_branch(monkeypatch, capsys):
    monkeypatch.setattr(bethe, "_newton", _collapse_rows(slice(None)))
    with pytest.raises(IncompleteSpectrumError) as info:
        solve_level(2, A2)
    assert (info.value.found, info.value.expected) == (0, 3)
    assert info.value.best_residual is None  # every row converged
    assert main(["roots", "--n", "2", "--A", "2"]) == 3
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.startswith("spinchain: solver error: Newton polish matched 0 of 3 ")


def test_only_the_colliding_row_goes_missing(monkeypatch):
    monkeypatch.setattr(bethe, "_newton", _collapse_rows(0))
    with pytest.raises(IncompleteSpectrumError) as info:
        solve_level(3, A2)
    assert (info.value.found, info.value.expected) == (3, 4)
    assert info.value.best_residual is None


def _oracle_seeds(n, params):
    coeffs = [s for _, s in coefficient_recurrence_solutions(n, params)]
    return bethe._companion_roots(np.array(coeffs, dtype=complex))


def _assert_rows_polish_alone(z0, n, params):
    """Polishing the stack gives each row bit for bit what polishing it alone gives."""
    a, lam = params.a, lambda_n(n)
    stacked = bethe._newton(z0, n, a, lam)
    for k in range(len(z0)):
        alone = bethe._newton(z0[k : k + 1], n, a, lam)
        for got, want in zip(stacked, alone):
            assert got[k : k + 1].tobytes() == want.tobytes()
    return stacked


@pytest.mark.parametrize("a", [0.5, 1.0])
@pytest.mark.parametrize("n", [1, 2, 5, 10])
def test_stacked_rows_polish_as_if_alone(n, a):
    params = params_for_a(a)  # A = 0.5 and 2
    _, ok, _ = _assert_rows_polish_alone(_oracle_seeds(n, params), n, params)
    assert ok.all()


def test_failing_rows_fail_alone_in_a_mixed_stack(monkeypatch):
    """At A = 1e6 the upper n = 1 branch stalls in its line search at a
    rounding-level residual above the absolute Newton target. Beside it sits
    a row whose Jacobian solve raises. Each fails alone, and the other row
    converges."""
    params, n = make_params(A=1e6), 1
    z0 = np.concatenate([_oracle_seeds(n, params), [[0.5]]])
    _, bad_jac = bethe._bethe_system(z0[2:3], n, params.a, lambda_n(n))
    real_solve = np.linalg.solve

    def solve(jac, rhs):
        if np.any(np.all(jac == bad_jac[0], axis=(-2, -1))):
            raise np.linalg.LinAlgError("Singular matrix")
        return real_solve(jac, rhs)

    monkeypatch.setattr(np.linalg, "solve", solve)
    z, ok, res = _assert_rows_polish_alone(z0, n, params)
    # the stalled branch and the raising row (at its seed) fail
    assert ok.tolist() == [True, False, False]
    assert z[2].tobytes() == z0[2].tobytes()
    assert res[2] == bethe_residual(n, z0[2], params)
    assert 0 < res[1] < 1e-9 < res[2]

    # one seed per eigenpair: the raising row seeds branch 0, the stalled one branch 1
    monkeypatch.setattr(bethe, "_companion_roots", lambda c: z0[[2, 1]])
    with pytest.raises(IncompleteSpectrumError) as info:
        bethe_roots(n, params)
    assert (info.value.found, info.value.expected) == (0, 2)
    assert info.value.best_residual == min(res[1], res[2])


def test_a_branch_counts_only_at_the_eigenvalue_that_seeded_it(monkeypatch):
    """Rows 0 and 1 both converge, each to the branch the other was seeded
    for. Every branch of the level is found, but two of them from the wrong
    seed, so only row 2 counts and the level is not returned."""
    real_newton = bethe._newton

    def swap_first_two(z0, n, a, lam):
        z, ok, res = real_newton(z0, n, a, lam)
        return z[[1, 0, 2]], ok[[1, 0, 2]], res[[1, 0, 2]]

    monkeypatch.setattr(bethe, "_newton", swap_first_two)
    n = 2
    with pytest.raises(IncompleteSpectrumError, match="matched 1 of 3") as info:
        bethe_roots(n, A2)
    assert (info.value.found, info.value.expected) == (n - 1, n + 1)
    assert info.value.best_residual is None  # every row converged


def test_a_trial_step_onto_a_pole_is_never_taken(monkeypatch):
    """Row 0's first full Newton step lands exactly on the pole 0. That trial
    point is never accepted: row 0 halves its step and converges, and each
    row of the stack ends as it does alone."""
    n, z0 = 1, np.array([[0.2], [1.9]], dtype=complex)
    _, first_jac = bethe._bethe_system(z0[:1], n, A2.a, lambda_n(n))
    real_solve = bethe._solve
    onto_pole = []

    def solve(jac, rhs):
        step = real_solve(jac, rhs)
        first = np.all(jac == first_jac[0], axis=(-2, -1))
        step[first] = -z0[0]
        onto_pole.append(int(first.sum()))
        return step

    monkeypatch.setattr(bethe, "_solve", solve)
    z, ok, _ = _assert_rows_polish_alone(z0, n, A2)
    assert sum(onto_pole) == 2  # once in the stack, once alone
    assert ok.all()
    assert abs(z[0, 0] - 0.1339745962155614) < 1e-9


def _apart(roots):
    """Roots at least 1e-3 from the poles 0 and 1 and from each other."""
    z = np.array(roots)
    return bethe._min_separation(z) >= 1e-3 and np.all(np.abs(np.concatenate([z, z - 1.0])) >= 1e-3)


@st.composite
def _seed_stacks(draw):
    n = draw(st.integers(1, 6))
    part = st.floats(-3.0, 3.0)
    row = st.lists(st.builds(complex, part, part), min_size=n, max_size=n).filter(_apart)
    rows = draw(st.lists(row, min_size=1, max_size=4))
    return n, make_params(A=draw(st.floats(0.1, 8.0))), np.array(rows, dtype=complex)


@given(stack=_seed_stacks())
def test_newton_never_ends_a_row_above_its_start_residual(stack):
    """Seeds this far from the poles start at a finite residual, and no accepted step
    raises a row's residual, so every row ends at or below its seed's residual, and a row
    reported converged is below the Newton target. This bound is why a trial near
    a pole needs no rule of its own besides the decrease test."""
    n, params, z0 = stack
    a, lam = params.a, lambda_n(n)
    f0, _ = bethe._bethe_system(z0, n, a, lam)
    _, ok, res = bethe._newton(z0, n, a, lam)
    assert np.all(res <= np.max(np.abs(f0), axis=-1))
    assert np.all(res[ok] < bethe._NEWTON_TARGET)


def test_bethe_roots_requires_easy_plane():
    with pytest.raises(DomainError):
        bethe_roots(1, make_params(A=-1.0))


@pytest.mark.parametrize("n", [2**62, 2**63, 10**20])
def test_levels_past_numpy_index_range_are_domain_errors(n):
    """The (n + 1, n, n) complex seed stack of these levels has more bytes than numpy
    can index, so the level is refused before any array is made."""
    with pytest.raises(DomainError, match="too large to hold in memory"):
        bethe_roots(n, A2)


@pytest.mark.parametrize("n", [0, 1, 2])
def test_bethe_solve_requires_zero_field(n):
    """The reduction to the Bethe system holds only at mu*B = 0."""
    field = make_params(A=2.0, B=5.0)
    with pytest.raises(DomainError, match="mu\\*B"):
        bethe_roots(n, field)
    with pytest.raises(DomainError, match="mu\\*B"):
        solve_level(n, field)


@pytest.mark.parametrize("function", [energy, xi_from_roots])
@pytest.mark.parametrize("n, roots", [(1, []), (2, [0.1]), (0, [0.5])])
def test_root_count_must_match_level(function, n, roots):
    with pytest.raises(DomainError, match=f"expected {n} roots, got {len(roots)}"):
        function(n, roots, A2)


# --- energies -------------------------------------------------------------------


@pytest.mark.parametrize("function", [energy, xi_from_roots])
def test_complex_root_sum_is_a_solver_error(function):
    # a lone complex root has no conjugate partner, so xi and E stay complex
    with pytest.raises(ConvergenceError, match="non-negligible imaginary part"):
        function(1, [0.5 + 0.5j], A2)


def test_overflowing_energy_is_a_solver_error():
    # hbar^2 is a finite double, 2 hbar^2 is not
    with pytest.raises(ConvergenceError, match="energy is not finite"):
        solve_level(0, make_params(A=1.0, hbar=1.2e154))


def test_ground_state_energy_closed_form():
    # -A/4 + 2 hbar^2 - hbar sqrt(2A) at A=2, hbar=1
    assert energy(0, [], A2) == pytest.approx(-0.5, abs=1e-12)


def test_first_level_energies_both_branches():
    sols = solve_level(1, A2)
    assert [s.indices.branch for s in sols] == [0, 1]
    e_minus = 2.5 - 2.0 * math.sqrt(3.0)
    e_plus = 2.5 + 2.0 * math.sqrt(3.0)
    assert sols[0].energy == pytest.approx(e_minus, abs=1e-12)
    assert sols[1].energy == pytest.approx(e_plus, abs=1e-12)
    assert sols[0].energy == pytest.approx(-0.9641016151377544, abs=1e-10)


@pytest.mark.parametrize("a", [0.5, 1.0, 2.0])
@pytest.mark.parametrize("n", range(6))
def test_energy_consistency_with_constraints(n, a):
    params = params_for_a(a)
    for sol in solve_level(n, params):
        e_direct = energy(n, sol.roots, params)
        e_con = energy_from_constraints(n, sol.roots, params)
        assert abs(e_direct - e_con) < 1e-10
        assert abs(sol.xi - xi_from_roots(n, sol.roots, params)) < 1e-12


# --- recurrence oracle ----------------------------------------------------------


def test_recurrence_ground_level_xi():
    sols = coefficient_recurrence_solutions(0, A2)
    assert len(sols) == 1
    xi, coeffs = sols[0]
    assert xi == pytest.approx(-1.0, abs=1e-14)  # a (lambda_0 + 1) = -a
    assert coeffs == pytest.approx([1.0])


def test_recurrence_first_level_matches_closed_form():
    sols = coefficient_recurrence_solutions(1, A2)
    assert len(sols) == 2
    roots = sorted(float(np.real(np.polynomial.polynomial.polyroots(c)[0])) for _, c in sols)
    lo, hi = closed_form_zeta1(A2)
    assert roots == pytest.approx([lo, hi], abs=1e-12)


@pytest.mark.parametrize("a", [0.5, 1.0, 2.0])
@pytest.mark.parametrize("n", range(6))
def test_newton_and_recurrence_routes_agree(n, a):
    params = params_for_a(a)
    newton_sets = bethe_roots(n, params)
    oracle = coefficient_recurrence_solutions(n, params)
    assert len(newton_sets) == len(oracle)
    oracle_sets = [
        tuple(np.polynomial.polynomial.polyroots(c.astype(complex))) for _, c in oracle
    ]
    for roots in newton_sets:
        dist = min(root_set_distance(roots, other) for other in oracle_sets)
        assert dist < 1e-8
    newton_energies = sorted(energy(n, r, params) for r in newton_sets)
    oracle_energies = sorted(
        2.0 * params.hbar**2 * (xi - params.a**2 / 4.0 + 1.0) for xi, _ in oracle
    )
    for e_n, e_o in zip(newton_energies, oracle_energies):
        assert abs(e_n - e_o) < 1e-10


# A = 2 a^2 is 0.1, 0.5, 2 and 8, the ends and two inner points of the scanned range
@pytest.mark.parametrize("a", [math.sqrt(0.05), 0.5, 1.0, 2.0])
@pytest.mark.parametrize("n", [*range(27), 32])
def test_levels_are_complete(n, a):
    """Every level up to n = 26, and n = 32, has all n + 1 branches, each
    matching one recurrence eigenvalue and solving both the Bethe system
    and the radial equation."""
    params = params_for_a(a)
    oracle = coefficient_recurrence_solutions(n, params)
    assert len(oracle) == n + 1
    sols = solve_level(n, params)
    assert len(sols) == n + 1
    oracle_energies = [2.0 * params.hbar**2 * (xi - params.a**2 / 4.0 + 1.0) for xi, _ in oracle]
    for sol, e_ref in zip(sols, oracle_energies):
        assert abs(sol.energy - e_ref) <= 1e-8 * max(1.0, abs(e_ref))
        assert bethe_residual(n, sol.roots, params) < RESIDUAL_TOL
        assert verify.radial_residual(n, sol, params).max_rel < 1e-8


# --- eigenfunctions -------------------------------------------------------------


def test_ground_eigenfunction_reference_point():
    sol = solve_level(0, A2)[0]
    val = eigenfunction_eval(0, sol, 1.0, 0.0, A2)
    assert val == pytest.approx(math.exp(0.5), abs=1e-12)


def test_ground_eigenfunction_winding_is_integer():
    sol = solve_level(0, A2)[0]
    radial = eigenfunction_eval(0, sol, 1.3, 0.0, A2)
    rotated = eigenfunction_eval(0, sol, 1.3, math.pi, A2)
    # lambda_0 = -2 gives phase e^{-2 pi i} = 1 at phi = pi
    assert rotated == pytest.approx(radial, abs=1e-12)


def test_first_level_tail_exponent():
    sol = solve_level(1, A2)[0]
    r1, r2 = 1.0e3, 2.0e3
    v1 = abs(eigenfunction_eval(1, sol, r1, 0.0, A2))
    v2 = abs(eigenfunction_eval(1, sol, r2, 0.0, A2))
    slope = math.log(v2 / v1) / math.log(r2 / r1)
    assert slope == pytest.approx(-0.5, abs=1e-4)  # lambda_1 + 2


def test_eigenfunction_rejects_bad_inputs():
    sol = solve_level(0, A2)[0]
    with pytest.raises(DomainError):
        eigenfunction_eval(0, sol, 0.0, 0.0, A2)
    with pytest.raises(DomainError):
        eigenfunction_eval(0, sol, -1.0, 0.0, A2)
    with pytest.raises(DomainError):
        eigenfunction_eval(1, sol, 1.0, 0.0, A2)


def test_transformation_reproduces_radial_factor():
    """chi built as r^lambda (1+r^2)^n e^{a/(1+r^2)} S(zeta) from the
    recurrence coefficients equals the root-product radial factor,
    pointwise relative to the local prefactor scale."""
    r = np.logspace(-1, 1, 41)
    for n in (1, 2, 3, 4):
        sols = solve_level(n, A2)
        oracle = coefficient_recurrence_solutions(n, A2)
        assert len(sols) == len(oracle)
        for sol, (xi, coeffs) in zip(sols, oracle):
            assert abs(sol.xi - xi) < 1e-9
            zeta = 1.0 / (1.0 + r * r)
            s_val = np.polynomial.polynomial.polyval(zeta, coeffs.astype(complex))
            lam = lambda_n(n)
            prefactor = r**lam * (1.0 + r * r) ** n * np.exp(A2.a * zeta)
            chi_ref = prefactor * s_val
            chi, _, _ = radial_derivatives(n, sol.roots, A2, r)
            scale = np.abs(prefactor) * (1.0 + np.abs(s_val))
            assert np.max(np.abs(chi - chi_ref) / scale) < 1e-10
