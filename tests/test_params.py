import math

import pytest
from hypothesis import given, strategies as st

from spinchain.errors import DomainError
from spinchain.params import PhysicalParams, make_params, read_params_file


def test_reference_point_a_equals_one():
    p = make_params(A=2.0, B=0.0, mu=1.0, hbar=1.0)
    assert p.a == 1.0
    assert p.q_offplane == -2.0 / 32.0
    assert p.q_inplane == 0.0


def test_zero_anisotropy_is_constructible_but_a_fails_lazily():
    p = make_params(A=0.0)
    assert p.A == 0.0
    with pytest.raises(DomainError):
        _ = p.a
    # the Mathieu parameters never need a
    assert p.q_offplane == 0.0
    assert p.q_inplane == 0.0


def test_invalid_hbar_rejected():
    with pytest.raises(DomainError):
        make_params(A=1.0, B=1.0, mu=1.0, hbar=0.0)
    with pytest.raises(DomainError):
        make_params(A=1.0, hbar=-2.0)
    with pytest.raises(DomainError):
        make_params(A=float("nan"))


@pytest.mark.parametrize("hbar", [1e200, 1.5e154, 1e-200, 1e-160])
def test_hbar_squared_must_be_a_finite_normal_float(hbar):
    with pytest.raises(DomainError, match="hbar\\^2"):
        make_params(A=1.0, hbar=hbar)


def test_non_finite_a_is_a_domain_error():
    p = make_params(A=1e300, hbar=1e-100)
    with pytest.raises(DomainError, match="overflows"):
        _ = p.a


def test_non_finite_mu_b_is_a_domain_error():
    p = make_params(A=1.0, B=1e300, mu=1e300)
    with pytest.raises(DomainError, match="mu\\*B overflows"):
        _ = p.muB


# magnitudes kept in the normal floating-point range: the 1e-15 relative
# round-trip bound cannot survive subnormal underflow of the quotients
positive = st.floats(min_value=1e-8, max_value=1e8)
signed = st.one_of(st.just(0.0), st.floats(1e-8, 1e8), st.floats(-1e8, -1e-8))


@given(A=positive, hbar=positive)
def test_a_squared_roundtrip(A, hbar):
    p = make_params(A=A, hbar=hbar)
    assert abs(2.0 * hbar**2 * p.a**2 - A) <= 1e-15 * A


@given(A=signed, B=signed, mu=signed, hbar=positive)
def test_mathieu_parameter_roundtrips(A, B, mu, hbar):
    p = make_params(A=A, B=B, mu=mu, hbar=hbar)
    scale_a = max(1e-300, abs(A))
    assert abs(p.q_offplane * (-32.0 * hbar**2) - A) <= 1e-15 * scale_a
    scale_b = max(1e-300, abs(mu * B))
    assert abs(p.q_inplane * (4.0 * hbar**2) - mu * B) <= 1e-15 * scale_b
    if A > 0:
        assert p.q_offplane < 0  # easy-plane anisotropy pulls q negative
    assert p.q_inplane == 0.0 or math.copysign(1.0, p.q_inplane) == math.copysign(1.0, mu * B)


def test_config_file_roundtrip(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# comment\nA = 2.5\nB=0.25\n\nhbar = 2\n")
    values = read_params_file(str(cfg))
    assert values == {"A": 2.5, "B": 0.25, "hbar": 2.0}


def test_config_file_rejects_unknown_key(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("temperature = 3\n")
    with pytest.raises(DomainError):
        read_params_file(str(cfg))


def test_config_file_rejects_bad_number(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("A = two\n")
    with pytest.raises(DomainError):
        read_params_file(str(cfg))


def test_params_record_is_immutable():
    p = make_params(A=1.0)
    with pytest.raises(AttributeError):
        p.A = 3.0
