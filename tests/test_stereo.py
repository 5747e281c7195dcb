import contextlib
import io
import math
import os
import tempfile

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from spinchain.cli import main
from spinchain.errors import ConstraintViolationError, DomainError
from spinchain.stereo import (
    POINT_AT_INFINITY,
    ComplexFieldPoint,
    SpinPoint,
    density_plane,
    density_sphere,
    project,
    project_array,
    pushforward,
    tangent_part,
    unproject,
    unproject_array,
)


def unit_vectors(count, rng, s3_floor=-1.0 + 1e-6):
    out = []
    while len(out) < count:
        v = rng.normal(size=3)
        v /= np.linalg.norm(v)
        if v[2] > s3_floor:
            out.append(v)
    return out


# --- the map itself ---------------------------------------------------------


def test_north_pole_maps_to_origin():
    w = project(SpinPoint(0.0, 0.0, 1.0))
    assert (w.p, w.q, w.at_infinity) == (0.0, 0.0, False)


def test_equator_point_maps_identically():
    w = project(SpinPoint(1.0, 0.0, 0.0))
    assert (w.p, w.q) == (1.0, 0.0)


def test_south_pole_maps_to_infinity_flag():
    w = project(SpinPoint(0.0, 0.0, -1.0))
    assert w.at_infinity
    assert w == POINT_AT_INFINITY


def test_unproject_origin_and_one():
    assert unproject(ComplexFieldPoint(0.0, 0.0)).as_tuple() == (0.0, 0.0, 1.0)
    s = unproject(ComplexFieldPoint(1.0, 0.0))
    assert s.as_tuple() == (1.0, 0.0, 0.0)


def test_unproject_infinity_recovers_south_pole_exactly():
    assert unproject(POINT_AT_INFINITY).as_tuple() == (0.0, 0.0, -1.0)


def test_sphere_roundtrip_random_sample():
    rng = np.random.default_rng(7)
    worst = 0.0
    for v in unit_vectors(1000, rng):
        s = SpinPoint(*v)
        back = unproject(project(s))
        worst = max(worst, max(abs(a - b) for a, b in zip(s.as_tuple(), back.as_tuple())))
    assert worst < 1e-12


@given(
    p=st.floats(min_value=-20, max_value=20),
    q=st.floats(min_value=-20, max_value=20),
)
def test_plane_roundtrip(p, q):
    w = ComplexFieldPoint(p, q)
    back = project(unproject(w))
    assert not back.at_infinity
    assert abs(back.p - p) < 1e-12 and abs(back.q - q) < 1e-12


@given(
    p=st.floats(min_value=-1e6, max_value=1e6),
    q=st.floats(min_value=-1e6, max_value=1e6),
)
def test_norm_preserved_for_large_fields(p, q):
    s = unproject(ComplexFieldPoint(p, q))
    n2 = s.s1**2 + s.s2**2 + s.s3**2
    assert abs(n2 - 1.0) < 1e-12


def test_infinite_coordinates_rejected():
    with pytest.raises(DomainError):
        ComplexFieldPoint(float("inf"), 0.0)


def test_spin_point_norm_checked():
    with pytest.raises(ConstraintViolationError):
        SpinPoint(1.0, 1.0, 1.0)
    with pytest.raises(ConstraintViolationError):
        SpinPoint(1e200, 0.0, 0.0)  # |S|^2 overflows to inf, not OverflowError
    with pytest.raises(DomainError):
        SpinPoint(float("nan"), 0.0, 0.0)  # |nan - 1| > tol is false: checked on its own


# --- whole-column maps --------------------------------------------------------


def bits(values):
    """Bit patterns, so -0.0 and 0.0 differ and NaN equals itself."""
    return np.asarray(values, dtype=float).view(np.uint64).tolist()


def project_reference(s1, s2, s3):
    """The map on Python floats, as (P, Q, at_infinity)."""
    denom = 1.0 + s3
    if denom == 0.0:
        return (0.0, 0.0, True)
    return (s1 / denom, s2 / denom, False)


def unproject_reference(p, q, at_infinity):
    """The inverse map on Python floats."""
    if at_infinity:
        return (0.0, 0.0, -1.0)
    u = p * p + q * q
    denom = 1.0 + u
    return (2.0 * p / denom, 2.0 * q / denom, (1.0 - u) / denom)


unit_floats = st.floats(min_value=-1.0, max_value=1.0)
spin_rows = st.lists(
    st.one_of(
        st.tuples(unit_floats, unit_floats, unit_floats),
        st.sampled_from([(0.0, 0.0, -1.0), (0.0, 0.0, 1.0), (-0.0, 0.0, 1.0), (1.0, 0.0, 0.0)]),
    ),
    min_size=1,
    max_size=30,
)


@settings(max_examples=200)
@given(rows=spin_rows)
def test_project_array_matches_scalar_bitwise(rows):
    spins = []
    for v in rows:
        n = math.sqrt(v[0] ** 2 + v[1] ** 2 + v[2] ** 2)
        if n > 1e-3:
            spins.append(v if n == 1.0 else tuple(c / n for c in v))
    assume(spins)
    reference = [project_reference(*v) for v in spins]
    w, at_infinity = project_array(np.array(spins))
    assert at_infinity.tolist() == [inf for _, _, inf in reference]
    assert bits(w) == bits([(p, q) for p, q, _ in reference])
    points = [project(SpinPoint(*v)) for v in spins]
    assert bits([(pt.p, pt.q) for pt in points]) == bits(w)
    assert [pt.at_infinity for pt in points] == at_infinity.tolist()


@settings(max_examples=200)
@given(
    rows=st.lists(
        st.tuples(
            st.floats(min_value=-1e6, max_value=1e6),
            st.floats(min_value=-1e6, max_value=1e6),
            st.booleans(),
        ),
        min_size=1,
        max_size=30,
    )
)
def test_unproject_array_matches_scalar_bitwise(rows):
    flags = np.array([inf for _, _, inf in rows])
    points = [
        unproject(POINT_AT_INFINITY if inf else ComplexFieldPoint(p, q)) for p, q, inf in rows
    ]
    s = unproject_array(np.array([(p, q) for p, q, _ in rows]), flags)
    assert bits(s) == bits([unproject_reference(*row) for row in rows])
    assert bits([pt.as_tuple() for pt in points]) == bits(s)


def test_unproject_past_the_overflow_of_omega_squared():
    w = np.array([[1e200, 0.0], [0.0, -1e300], [1e308, 1e308]])
    s = unproject_array(w, np.zeros(3, dtype=bool))
    assert np.isfinite(s).all()
    assert s[:, 2].tolist() == [-1.0, -1.0, -1.0]
    assert np.abs((s * s).sum(axis=1) - 1.0).max() <= 1e-15
    assert s[0, 0] == pytest.approx(2e-200, rel=1e-15)
    assert s[1, 1] == pytest.approx(-2e-300, rel=1e-15)
    assert unproject(ComplexFieldPoint(1e200, -0.0)).s3 == -1.0


def test_array_maps_reject_what_the_point_types_reject():
    good = [(0.0, 0.0, 1.0), (1.0, 0.0, 0.0)]
    for bad, error in [
        ((0.5, 0.5, 0.5), ConstraintViolationError),
        ((np.inf, 0.0, 0.0), ConstraintViolationError),
        ((np.nan, 0.0, 0.0), DomainError),
        ((0.0, 0.0, np.nan), DomainError),
        ((np.nan, 0.0, -1.0), DomainError),
        ((0.0, np.nan, -1.0), DomainError),
    ]:
        with pytest.raises(error):
            project(SpinPoint(*bad))
        with pytest.raises(error, match="row 1"):
            project_array(np.array([good[0], bad, good[1]]))
    with pytest.raises(DomainError, match="row 0"):
        unproject_array(np.array([[np.nan, 0.0], [np.inf, 0.0]]), np.array([False, True]))
    # a flagged row is the pole whatever its coordinates
    assert unproject_array(np.array([[np.inf, np.nan]]), np.array([True])).tolist() == [
        [0.0, 0.0, -1.0]
    ]


@settings(max_examples=50, deadline=None)
@given(
    index=st.integers(min_value=0, max_value=5),
    bad=st.one_of(
        st.sampled_from([(np.nan, 0.0, 1.0), (0.0, 0.0, np.nan), (np.inf, 0.0, 0.0),
                         (np.nan, 0.0, -1.0), (0.0, np.nan, -1.0)]),
        st.tuples(unit_floats, unit_floats, unit_floats).filter(
            lambda v: abs(v[0] ** 2 + v[1] ** 2 + v[2] ** 2 - 1.0) > 1e-6
        ),
    ),
)
def test_batch_rejects_non_unit_and_nan_spin_rows(index, bad):
    rows = [(0.0, 0.0, 1.0), (0.6, 0.0, 0.8), (0.0, 0.0, -1.0)] * 2
    rows[index] = bad
    with tempfile.TemporaryDirectory() as tmp:
        src = os.path.join(tmp, "spins.csv")
        out = os.path.join(tmp, "out.csv")
        with open(src, "w") as fh:
            fh.write("S1,S2,S3\n" + "".join(f"{a!r},{b!r},{c!r}\n" for a, b, c in rows))
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            assert main(["project", "--batch", src]) == 2
            assert main(["project", "--batch", src, "--out", out]) == 2
        assert stdout.getvalue() == ""
        assert not os.path.exists(out)
        assert f"row {index}" in stderr.getvalue()


# --- kinetic densities -------------------------------------------------------


def _col(x):
    """One value as a (1,) column."""
    return np.array([x], dtype=float)


def _row(v):
    """One vector as a (1, 3) array."""
    return np.array([v], dtype=float)


def test_kinetic_complex_examples():
    assert density_plane(_col(0.0), _col(0.0), _col(1.0), _col(0.0))[0] == 2.0
    assert density_plane(_col(1.0), _col(0.0), _col(1.0), _col(1.0))[0] == pytest.approx(1.0, abs=1e-15)
    assert density_plane(_col(0.3), _col(-2.0), _col(0.0), _col(0.0))[0] == 0.0


def test_kinetic_sphere_examples():
    assert density_sphere(_row((0.0, 0.0, 1.0)), _row((0.0, 0.0, 0.0)))[0] == 0.0
    assert density_sphere(_row((0.0, 0.0, 1.0)), _row((2.0, 0.0, 0.0)))[0] == 2.0


def test_kinetic_sphere_rejects_non_tangent_derivative():
    with pytest.raises(ConstraintViolationError):
        density_sphere(_row((0.0, 0.0, 1.0)), _row((0.0, 0.0, 1.0)))
    north = np.array([[0.0, 0.0, 1.0]] * 3)
    with pytest.raises(ConstraintViolationError, match="row 1"):
        density_sphere(north, np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 1.0], [0.0, 0.0, 2.0]]))


@settings(max_examples=200)
@given(
    p=st.floats(min_value=-5, max_value=5),
    q=st.floats(min_value=-5, max_value=5),
    pz=st.floats(min_value=-5, max_value=5),
    qz=st.floats(min_value=-5, max_value=5),
)
def test_kinetic_equivalence_pointwise(p, q, pz, qz):
    """Chain-rule tangent makes the two densities agree identically."""
    sz = pushforward(_col(p), _col(q), _col(pz), _col(qz))
    s = _row(unproject(ComplexFieldPoint(p, q)).as_tuple())
    k_sphere = density_sphere(s, sz)[0]
    k_plane = density_plane(_col(p), _col(q), _col(pz), _col(qz))[0]
    assert abs(k_sphere - k_plane) < 1e-8


def test_kinetic_equivalence_finite_difference():
    """Central differences of the mapped path agree to O(h^2), h = 1e-4."""
    rng = np.random.default_rng(3)
    m = np.arange(1, 7)
    amps = 0.5 * rng.normal(size=(4, 6)) / m**2
    ap, bp, aq, bq = amps

    def fields(z):
        c, s = np.cos(m * z), np.sin(m * z)
        return (
            float(np.sum(ap * c + bp * s)),
            float(np.sum(aq * c + bq * s)),
            float(np.sum(m * (-ap * s + bp * c))),
            float(np.sum(m * (-aq * s + bq * c))),
        )

    h = 1e-4
    worst = 0.0
    for z in np.linspace(0.1, 6.0, 25):
        p, q, pz, qz = fields(z)
        pp, qp, _, _ = fields(z + h)
        pm, qm, _, _ = fields(z - h)
        s_plus = unproject(ComplexFieldPoint(pp, qp)).as_tuple()
        s_minus = unproject(ComplexFieldPoint(pm, qm)).as_tuple()
        s_here = _row(unproject(ComplexFieldPoint(p, q)).as_tuple())
        sz = _row([(a - b) / (2 * h) for a, b in zip(s_plus, s_minus)])
        sz = tangent_part(s_here, sz)
        k_sphere = density_sphere(s_here, sz)[0]
        k_plane = density_plane(_col(p), _col(q), _col(pz), _col(qz))[0]
        worst = max(worst, abs(k_sphere - k_plane))
    assert worst < 1e-6


def test_pushforward_is_tangent():
    rng = np.random.default_rng(11)
    for _ in range(50):
        p, q, pz, qz = rng.normal(size=4) * 2.0
        s = unproject(ComplexFieldPoint(p, q))
        sz = pushforward(_col(p), _col(q), _col(pz), _col(qz))[0]
        dot = s.s1 * sz[0] + s.s2 * sz[1] + s.s3 * sz[2]
        assert abs(dot) < 1e-12 * max(1.0, math.sqrt(sum(c * c for c in sz)))
