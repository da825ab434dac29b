"""Nonlinearities: exact values, inverses, ranges, numeric fallbacks."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nlresolvent import (
    Nonlinearity,
    Phi_numeric,
    RangeError,
    bounded_atan,
    identity,
    odd_log,
    odd_power,
    parse_phi,
    phi_inv_numeric,
)

ALL_BUILTINS = [identity(), odd_power(3.0), odd_power(0.5), odd_log(), bounded_atan()]


# --- frozen point values ---------------------------------------------------


def test_identity_values():
    n = identity()
    assert n(2.5) == 2.5
    assert n.inverse(2.5) == 2.5
    assert n.antiderivative(3.0) == 9.0
    assert n.deriv(7.0) == 1.0


def test_odd_power_cubic_values():
    n = odd_power(3.0)
    assert n(2.0) == 8.0
    assert n(-2.0) == -8.0
    assert n.inverse(8.0) == pytest.approx(2.0)
    # Phi(s) = 2 |s|^4 / 4 = s^4 / 2, even in s
    assert n.antiderivative(2.0) == pytest.approx(8.0)
    assert n.antiderivative(-2.0) == pytest.approx(8.0)


def test_odd_power_sqrt_values():
    n = odd_power(0.5)
    assert n(4.0) == pytest.approx(2.0)
    assert n(-4.0) == pytest.approx(-2.0)
    # Phi(s) = 2 s^{3/2} / (3/2) = (4/3) s^{3/2}
    assert n.antiderivative(4.0) == pytest.approx(32.0 / 3.0)


def test_odd_power_derivative_at_zero():
    assert odd_power(1.0).deriv(0.0) == 1.0
    assert odd_power(3.0).deriv(0.0) == 0.0
    assert odd_power(0.5).deriv(0.0) == math.inf


def test_odd_power_needs_positive_exponent():
    with pytest.raises(ValueError):
        odd_power(0.0)
    with pytest.raises(ValueError):
        odd_power(-2.0)


def test_odd_log_values():
    n = odd_log()
    assert n(1.0) == pytest.approx(math.log(2.0))
    assert n(-1.0) == pytest.approx(-math.log(2.0))
    # int_0^1 2 log(1+t) dt = 2 (2 log 2 - 1)
    assert n.antiderivative(1.0) == pytest.approx(2.0 * (2.0 * math.log(2.0) - 1.0))
    assert n.inverse(1.0) == pytest.approx(math.e - 1.0)


def test_bounded_atan_values():
    n = bounded_atan()
    assert n(1.0) == pytest.approx(math.pi / 4.0)
    assert n.inverse(1.0) == pytest.approx(math.tan(1.0))
    # Phi(1) = 2 atan(1) - log 2 = pi/2 - log 2
    assert n.antiderivative(1.0) == pytest.approx(math.pi / 2.0 - math.log(2.0))


# --- ranges ----------------------------------------------------------------


def test_atan_range_is_open():
    n = bounded_atan()
    assert n.contains(1.5)
    assert not n.contains(math.pi / 2.0)
    assert not n.contains(2.0)
    with pytest.raises(RangeError):
        n.inverse(2.0)


def test_range_error_carries_context():
    n = bounded_atan()
    with pytest.raises(RangeError) as exc:
        n.inverse(-5.0)
    assert isinstance(exc.value, ValueError)
    msg = str(exc.value)
    assert "atan" in msg


def test_unbounded_ranges_accept_everything():
    for n in (identity(), odd_power(3.0), odd_log()):
        assert n.contains(1e300)
        assert n.contains(-1e300)


# --- numeric fallbacks -----------------------------------------------------


def _no_helpers(n: Nonlinearity) -> Nonlinearity:
    """Strip closed forms so the numeric paths get exercised."""
    return Nonlinearity(name=n.name + "-bare", phi=n.phi, lo=n.lo, hi=n.hi)


def test_phi_inv_numeric_against_closed_forms():
    # moderate s only: the stopping rule |phi(t) - s| <= atol + rtol |s|
    # lets the error in t grow with the inverse's slope
    for n in (identity(), odd_power(3.0), odd_log()):
        bare = _no_helpers(n)
        for s in (-7.0, -0.3, 0.0, 0.3, 7.0):
            assert bare.inverse(s) == pytest.approx(n.inverse(s), abs=1e-9, rel=1e-9)


def test_phi_inv_numeric_with_derivative_hint():
    # a phi with no closed inverse at all
    n = Nonlinearity(
        name="t+t3",
        phi=lambda t: t + t**3,
        deriv=lambda t: 1.0 + 3.0 * t * t,
    )
    root = phi_inv_numeric(n, 2.928)
    assert root == pytest.approx(1.2, abs=1e-9)


def test_phi_numeric_against_closed_forms():
    for n in (identity(), odd_power(3.0), odd_log(), bounded_atan()):
        for s in (-2.0, -0.5, 0.0, 0.5, 2.0):
            assert Phi_numeric(n, s) == pytest.approx(
                n.antiderivative(s), abs=1e-9, rel=1e-8
            )


# --- properties ------------------------------------------------------------


@given(st.floats(min_value=-20.0, max_value=20.0, allow_nan=False))
@settings(max_examples=300, deadline=None)
def test_inverse_round_trip(t):
    for n in ALL_BUILTINS:
        assert n.inverse(n(t)) == pytest.approx(t, abs=1e-8, rel=1e-8)


@given(
    st.floats(min_value=-50.0, max_value=50.0, allow_nan=False),
    st.floats(min_value=1e-6, max_value=10.0, allow_nan=False),
)
@settings(max_examples=300, deadline=None)
def test_strictly_increasing_and_odd(t, gap):
    for n in ALL_BUILTINS:
        assert n(t + gap) > n(t)
        assert n(-t) == pytest.approx(-n(t), rel=1e-12, abs=0.0)
        assert n(0.0) == 0.0


@given(st.floats(min_value=-10.0, max_value=10.0, allow_nan=False))
@settings(max_examples=200, deadline=None)
def test_antiderivative_nonnegative_and_even_growth(s):
    # Phi is nonnegative, zero only at 0, and increasing in |s|
    for n in ALL_BUILTINS:
        v = n.antiderivative(s)
        assert v >= 0.0
        assert n.antiderivative(s * 1.5) >= v - 1e-12


# --- parsing ---------------------------------------------------------------


def test_parse_phi_forms():
    assert parse_phi("identity").name == "identity"
    assert parse_phi("power:3").name == "power:3"
    assert parse_phi("power:0.5")(4.0) == pytest.approx(2.0)
    assert parse_phi("log").name == odd_log().name
    assert parse_phi("atan").name == "atan"


def test_parse_phi_rejects_junk():
    for bad in ("cubic", "power:", "power:x", "power:0", ""):
        with pytest.raises(ValueError):
            parse_phi(bad)
