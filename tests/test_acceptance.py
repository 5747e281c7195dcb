"""Acceptance suite: one test and one printed pass/fail line per criterion.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion
report lines; every tolerance is pinned here, nothing is calibrated at
runtime.
"""

import math
import time

import numpy as np
from scipy.optimize import linear_sum_assignment

from spinchain.bethe import (
    bethe_roots,
    coefficient_recurrence_solutions,
    derive_lambda_from_constraints,
    energy,
    energy_from_constraints,
    heun_coefficients,
    lambda_n,
    solve_level,
)
from spinchain.classical import FieldState, integrate_static
from spinchain.mathieu import (
    characteristic_value,
    inplane_spectrum,
    mathieu_ce,
    mathieu_se,
    offplane_spectrum,
    solve as mathieu_solve,
)
from spinchain.params import make_params
from spinchain.stereo import (
    POINT_AT_INFINITY,
    ComplexFieldPoint,
    SpinPoint,
    project,
    unproject,
)
from spinchain.verify import (
    fd_eigs_richardson,
    mathieu_residual,
    nlsm_equivalence,
    radial_residual,
)

A2 = make_params(A=2.0)


def report(criterion: int, label: str, passed: bool, detail: str = "") -> None:
    status = "PASS" if passed else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[acceptance] criterion {criterion:2d} {status}: {label}{suffix}")
    assert passed, f"criterion {criterion}: {label}{suffix}"


def closed_form_zeta1(params):
    h2_over = params.hbar**2 / (2.0 * params.A)
    mid = 0.5 + math.sqrt(h2_over)
    spread = 0.5 * math.sqrt(4.0 * h2_over + 1.0 + math.sqrt(4.0 * h2_over))
    return (mid - spread, mid + spread)


def set_distance(z1, z2):
    z1 = np.asarray(z1, complex)
    z2 = np.asarray(z2, complex)
    if len(z1) != len(z2):
        return math.inf
    if len(z1) == 0:
        return 0.0
    cost = np.abs(z1[:, None] - z2[None, :])
    rows, cols = linear_sum_assignment(cost)
    return float(cost[rows, cols].max())


def test_criterion_01_lambda_quantization():
    worst = max(
        abs(derive_lambda_from_constraints(n) - (-(n * n + 2 * n + 2) / (n + 1.0)))
        for n in range(21)
    )
    verbatim = lambda_n(0) == -2.0 and lambda_n(1) == -2.5
    report(
        1,
        "constraint-derived lambda_n matches -(n^2+2n+2)/(n+1) for n=0..20",
        worst <= 1e-12 and verbatim,
        f"max dev {worst:.2e}, lambda_0={lambda_n(0)}, lambda_1={lambda_n(1)}",
    )


def test_criterion_02_ground_state():
    e0 = energy(0, [], A2)
    closed = -A2.A / 4.0 + 2.0 * A2.hbar**2 - A2.hbar * math.sqrt(2.0 * A2.A)
    sol = solve_level(0, A2)[0]
    rep = radial_residual(0, sol, A2)
    report(
        2,
        "ground-state energy -0.5 and radial residual < 1e-8",
        abs(e0 - closed) < 1e-12 and abs(e0 + 0.5) < 1e-12 and rep.max_rel < 1e-8,
        f"E0={e0!r}, max_rel={rep.max_rel:.2e}",
    )


def test_criterion_03_first_excited_state():
    ok = True
    details = []
    for a in (0.5, 1.0, 2.0):
        params = make_params(A=2.0 * a * a)
        lo, hi = closed_form_zeta1(params)
        sets = bethe_roots(1, params)
        got = sorted(z[0].real for z in sets)
        ok &= len(sets) == 2
        ok &= abs(got[0] - lo) < 1e-10 and abs(got[1] - hi) < 1e-10
        for sol in solve_level(1, params):
            rep = radial_residual(1, sol, params)
            ok &= rep.max_rel < 1e-8
            details.append(f"a={a} br={sol.indices.branch} res={rep.max_rel:.1e}")
    report(3, "both zeta_1 branches match the closed form and pass residuals",
           ok, "; ".join(details[:3]) + " ...")


def test_criterion_04_constraint_energy_consistency():
    worst = 0.0
    con1_ok = True
    for n in range(6):
        c = heun_coefficients(n, A2)
        con1_ok &= c.c2 == -n * (n - 1) * c.a4 - n * c.b3 == 0.0
        for sol in solve_level(n, A2):
            worst = max(
                worst,
                abs(energy(n, sol.roots, A2) - energy_from_constraints(n, sol.roots, A2)),
            )
    report(
        4,
        "energy() equals energy_from_constraints() for n=0..5; con1 identical",
        worst < 1e-10 and con1_ok,
        f"max energy gap {worst:.2e}",
    )


def test_criterion_05_oracle_equivalence():
    start = time.perf_counter()
    worst_roots = 0.0
    worst_energy = 0.0
    for a in (0.5, 1.0, 2.0):
        params = make_params(A=2.0 * a * a)
        for n in range(6):
            newton_sets = bethe_roots(n, params)
            oracle = coefficient_recurrence_solutions(n, params)
            assert len(newton_sets) == len(oracle)
            oracle_sets = [
                tuple(np.polynomial.polynomial.polyroots(s.astype(complex)))
                for _, s in oracle
            ]
            for roots in newton_sets:
                worst_roots = max(
                    worst_roots,
                    min(set_distance(roots, other) for other in oracle_sets),
                )
            e_newton = sorted(energy(n, r, params) for r in newton_sets)
            e_oracle = sorted(
                2.0 * params.hbar**2 * (xi - params.a**2 / 4.0 + 1.0)
                for xi, _ in oracle
            )
            worst_energy = max(
                worst_energy, max(abs(x - y) for x, y in zip(e_newton, e_oracle))
            )
    elapsed = time.perf_counter() - start
    report(
        5,
        "Newton and recurrence root sets coincide for n=0..5, a in {0.5,1,2}",
        worst_roots < 1e-8 and worst_energy < 1e-10 and elapsed < 60.0,
        f"roots {worst_roots:.2e}, energies {worst_energy:.2e}, {elapsed:.1f}s",
    )


def test_criterion_06_mathieu_engine():
    exact_ok = all(
        characteristic_value(float(nu), 0.0) == float(nu) ** 2
        for nu in np.arange(0.0, 5.5, 0.5)
    )
    worst_fd = 0.0
    for q in (0.1, 1.0, 5.0):
        fd = fd_eigs_richardson(q, 2048, 16)
        for n in range(6):
            a_val = characteristic_value(n, q)
            worst_fd = max(worst_fd, float(np.min(np.abs(fd - a_val))))
    xs = np.linspace(0.0, 2.0 * np.pi, 17)
    trig_dev = max(
        float(np.max(np.abs(mathieu_ce(2.0, 0.0, xs) - np.cos(2 * xs)))),
        float(np.max(np.abs(mathieu_se(1.0, 0.0, xs) - np.sin(xs)))),
        float(np.max(np.abs(mathieu_ce(0.5, 0.0, xs) - np.cos(0.5 * xs)))),
    )
    report(
        6,
        "a_nu(0)=nu^2; FD-oracle agreement within 1e-5; trig reduction at q=0",
        exact_ok and worst_fd < 1e-5 and trig_dev < 1e-12,
        f"fd {worst_fd:.2e}, trig {trig_dev:.2e}",
    )


def test_criterion_07_inplane_ladder():
    params = make_params(A=0.0, B=0.0)
    spec = inplane_spectrum(params, range(6))
    expected = [0.5 * params.hbar**2 * n * n for n in range(6)]
    exact = [e for _, e in spec] == expected
    report(7, "B=0 in-plane ladder E_n = hbar^2 n^2/2 exact through the engine",
           exact, f"{[e for _, e in spec]}")


def test_criterion_08_offplane_vs_fd():
    params = make_params(A=2.0)
    fd_a = fd_eigs_richardson(params.q_offplane, 2048, 8)
    fd_e = [2.0 * params.hbar**2 * a - params.A / 8.0 for a in fd_a[:4]]
    engine = [e for _, e in offplane_spectrum(params, [0, 1, 2, 3], "ce")]
    engine += [e for _, e in offplane_spectrum(params, [1, 2, 3], "se")]
    engine = sorted(engine)[:4]
    worst = max(abs(x - y) for x, y in zip(engine, fd_e))
    report(8, "off-plane energies match the FD eigensolve, lowest 4 branches",
           worst < 1e-5, f"max dev {worst:.2e}")


def test_criterion_09_nlsm_equivalence():
    dev = nlsm_equivalence(100, seed=42)
    report(9, "sigma-model kinetic equivalence over 100 random smooth fields",
           dev < 1e-8, f"max dev {dev:.2e}")


def test_criterion_10_stereographic_roundtrips():
    rng = np.random.default_rng(2024)
    worst = 0.0
    count = 0
    while count < 10_000:
        v = rng.normal(size=3)
        v /= np.linalg.norm(v)
        if v[2] <= -1.0 + 1e-6:
            continue
        count += 1
        s = SpinPoint(*v)
        back = unproject(project(s))
        worst = max(worst, max(abs(x - y) for x, y in zip(s.as_tuple(), back.as_tuple())))
    for _ in range(10_000):
        p, q = rng.normal(scale=3.0, size=2)
        w = ComplexFieldPoint(p, q)
        back = project(unproject(w))
        worst = max(worst, abs(back.p - p), abs(back.q - q))
    pole = project(SpinPoint(0.0, 0.0, -1.0))
    pole_ok = pole.at_infinity and unproject(POINT_AT_INFINITY).as_tuple() == (0.0, 0.0, -1.0)
    report(10, "10^4 round trips in both directions below 1e-12; exact pole",
           worst < 1e-12 and pole_ok, f"max err {worst:.2e}")


def test_criterion_11_classical_conservation():
    free = make_params(A=0.0)
    drift_free = integrate_static(
        FieldState(1.0, 0.0, 0.0, 0.1), (0.0, 10.0), 1e-3, free
    ).energy_drift()
    drift_aniso = integrate_static(
        FieldState(0.1, 0.0, 0.0, 0.0), (0.0, 10.0), 1e-3, A2
    ).energy_drift()
    report(
        11,
        "RK4 energy drift < 1e-8 over z in [0,10] at step 1e-3",
        drift_free < 1e-8 and drift_aniso < 1e-8,
        f"free {drift_free:.2e}, anisotropic {drift_aniso:.2e}",
    )


def test_criterion_12_negative_controls():
    sol0 = solve_level(0, A2)[0]
    clean0 = radial_residual(0, sol0, A2).max_rel
    wrong0 = radial_residual(0, sol0, A2, energy=sol0.energy + 0.1).max_rel
    ratio_radial = wrong0 / clean0

    sol1 = solve_level(1, A2)[0]
    clean1 = radial_residual(1, sol1, A2).max_rel
    wrong1 = radial_residual(1, sol1, A2, energy=sol1.energy + 0.1).max_rel
    ratio_excited = wrong1 / clean1

    rec = mathieu_solve(1.0, 1.0, "ce")
    clean_m = mathieu_residual(rec).max_rel
    wrong_m = mathieu_residual(rec, a_value=rec.a_nu + 0.01).max_rel
    ratio_mathieu = wrong_m / clean_m

    report(
        12,
        "perturbed E (0.1) and a (0.01) inflate residuals by >= 3 orders",
        min(ratio_radial, ratio_excited, ratio_mathieu) >= 1e3,
        f"ratios {ratio_radial:.1e}, {ratio_excited:.1e}, {ratio_mathieu:.1e}",
    )
