"""Nonlinearities: exact values, inverses, ranges, numeric fallbacks."""

import dataclasses
import math
import random
import sys

import numpy as np
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
from nlresolvent.nonlinearity import _array_forms

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
    # moderate s only: the error in t is the backward error at float noise
    # times the inverse's slope
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


def _inverse_grid(n: Nonlinearity) -> list[float]:
    """A seeded grid of s from +-1e-300 to +-1e300, in [-10, 10] and from
    +-1e299 to +-1e308, kept where the exact phi^{-1}(s) is a normal float
    of magnitude <= 1e308."""
    rng = random.Random(0)
    grid = [rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-300.0, 300.0) for _ in range(300)]
    grid += [rng.uniform(-10.0, 10.0) for _ in range(100)]
    grid += [rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(299.0, 308.0) for _ in range(50)]
    grid += [1e308, -1e308, sys.float_info.max]
    return [s for s in grid if n.contains(s) and sys.float_info.min <= abs(n.inv(s)) <= 1e308]


@pytest.mark.parametrize("spec", ["identity", "power:0.5", "power:1", "power:3", "power:5",
                                  "log", "atan"])
@pytest.mark.parametrize("hint", [True, False], ids=["deriv", "bare"])
def test_phi_inv_numeric_backward_error_at_float_noise(spec, hint):
    # the numeric inverse stops at the float noise of phi(t) - s, or on a
    # float-tight bracket, so its backward error is a few ulp(s) at any scale
    # far from 1 too: the bracket grows over the exponent, so an inverse
    # up to 1e308 costs about as few phi evaluations as one near 1
    n = parse_phi(spec)
    calls = []
    stripped = Nonlinearity(name=spec, phi=lambda t: calls.append(t) or n.phi(t), lo=n.lo,
                            hi=n.hi, deriv=n.deriv if hint else None)
    grid = _inverse_grid(n)
    assert len(grid) >= 100
    for s in grid:
        calls.clear()
        t = stripped.inverse(s)
        assert abs(n.phi(t) - s) <= 32.0 * math.ulp(s), (s, t)
        assert len(calls) <= 100, (s, len(calls))


def test_phi_inv_numeric_resolves_small_values():
    # an absolute stopping tolerance cannot tell these s from 0, although
    # their inverses are 4.6e-5 (cubic) and 1e-18 (square root)
    cubic = Nonlinearity(name="cubic", phi=odd_power(3.0).phi, deriv=odd_power(3.0).deriv)
    exact = pytest.approx(4.641588833612779e-05, rel=1e-15, abs=0.0)
    assert phi_inv_numeric(cubic, 1e-13) == exact
    root = Nonlinearity(name="sqrt", phi=odd_power(0.5).phi, deriv=odd_power(0.5).deriv)
    assert phi_inv_numeric(root, 1e-9) == pytest.approx(1e-18, rel=1e-15, abs=0.0)
    assert math.copysign(1.0, phi_inv_numeric(cubic, 0.0)) == 1.0


@pytest.mark.parametrize("spec", ["identity", "power:0.5", "power:3", "log", "atan"])
@pytest.mark.parametrize("hint", [True, False], ids=["deriv", "bare"])
def test_phi_inv_numeric_narrows_a_tiny_s_by_its_exponent(spec, hint):
    # halving [-1, 1] arithmetically cost one phi per binade: 1,047 at 1e-300
    n = parse_phi(spec)
    calls = []
    counted = Nonlinearity(name=spec, phi=lambda t: calls.append(t) or n.phi(t), lo=n.lo, hi=n.hi,
                           deriv=n.deriv if hint else None)
    for s in (1e-300, -1e-300, 1e-100, -1e-100, 1e-20, -1e-20):
        calls.clear()
        t = counted.inverse(s)
        assert len(calls) <= 100, (s, len(calls))
        if abs(n.inv(s)) >= sys.float_info.min:
            assert abs(n.phi(t) - s) <= 32.0 * math.ulp(s), (s, t)
        else:  # the square root's inverse s**2 underflows
            assert abs(t) <= math.ulp(0.0), (s, t)


def test_phi_inv_numeric_past_the_old_bracket_cap():
    # inverses beyond 1e300, up to the largest float
    bare = _no_helpers(identity())
    for s in (8e299, 1e308, sys.float_info.max):
        for x in (s, -s):
            assert bare.inverse(x) == pytest.approx(x, rel=1e-14, abs=0.0)
    with pytest.raises(RangeError):  # its inverse 1e308**2 is no float
        _no_helpers(odd_power(0.5)).inverse(1e308)


@pytest.mark.parametrize("n", ALL_BUILTINS, ids=lambda n: n.name)
def test_array_forms_mapped_from_the_scalar_forms(n):
    # a Nonlinearity without arrays gets its scalar forms mapped over the entries
    scalar = _array_forms(dataclasses.replace(n, arrays=None))
    bare = _array_forms(Nonlinearity(name="bare", phi=n.phi, lo=n.lo, hi=n.hi))
    t = np.array([-3.0, -0.5, 0.0, 1e-9, 0.25, 2.0])
    s = np.array([x for x in (-1.5, -0.2, 0.0, 0.3, 1.2, 40.0) if n.contains(x)])
    with np.errstate(all="ignore"):
        for name in ("phi", "deriv", "antideriv"):
            assert getattr(scalar, name)(t).tolist() == [getattr(n, name)(x) for x in t.tolist()]
        assert scalar.inv(s) == pytest.approx(n.arrays.inv(s), rel=1e-14, abs=0.0)
        assert bare.inv(s) == pytest.approx(n.arrays.inv(s), rel=1e-12, abs=0.0)
        assert bare.antideriv(t) == pytest.approx(n.arrays.antideriv(t), rel=1e-9, abs=1e-12)
        # the difference quotient: inf at 0 exactly where phi'(0) is
        assert bare.deriv(t) == pytest.approx(n.arrays.deriv(t), rel=1e-6, abs=1e-9)
    assert _array_forms(n) is n.arrays


EDGE_GRID = [0.0, 5e-324, 1e-300, 1e-16, 1e-9, 0.3, 1.0, 2.5, 40.0, 1e6, 1.34e154, 1e308,
             math.inf]
EDGE_GRID += [-t for t in EDGE_GRID]
# Phi's largest term, where its formula is a difference: log's cancels at small |s|
PHI_LARGEST_TERM = {"log": lambda s: 2.0 * (1.0 + abs(s)) * math.log1p(abs(s)),
                    "atan": lambda s: 2.0 * s * math.atan(s)}


@pytest.mark.parametrize("spec", ["identity", "power:0.25", "power:0.5", "power:1", "power:3",
                                  "power:5", "log", "atan"])
def test_array_forms_agree_with_the_float_forms(spec):
    n = parse_phi(spec)
    t = np.array(EDGE_GRID)
    s = np.array([x for x in EDGE_GRID + [n.phi(x) for x in EDGE_GRID] if n.contains(x)])
    largest = PHI_LARGEST_TERM.get(spec, abs)
    with np.errstate(all="ignore"):
        cases = [(n.phi, n.arrays.phi, t, abs), (n.inverse, n.arrays.inv, s, abs),
                 (n.antiderivative, n.arrays.antideriv, t, largest), (n.deriv, n.arrays.deriv, t, abs)]
        for scalar, array, xs, term in cases:
            for x, got in zip(xs.tolist(), array(xs).tolist()):
                want = scalar(x)
                if math.isfinite(want) and math.isfinite(got):
                    scale = max(abs(want), abs(term(x)))
                    assert abs(got - want) <= 4 * math.ulp(min(scale, sys.float_info.max)), (x, want, got)
                else:
                    assert got == want, (x, want, got)


def test_bare_inverse_is_signed_inf_beyond_ran_phi():
    bare = _array_forms(Nonlinearity(name="bare", phi=math.atan, lo=-1.5, hi=1.5))
    assert bare.inv(np.array([-2.0, 2.0])).tolist() == [-math.inf, math.inf]


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


def _same(a: float, b: float) -> bool:
    """Equal floats (+-0 compare equal), or both NaN."""
    return a == b or (math.isnan(a) and math.isnan(b))


@given(
    st.floats(min_value=-50.0, max_value=50.0, allow_nan=False),
    st.floats(min_value=1e-6, max_value=10.0, allow_nan=False),
    st.floats(min_value=5e-324, max_value=1e300) | st.sampled_from([5e-324, 1e300, math.inf]),
)
@settings(max_examples=300, deadline=None)
def test_strictly_increasing_and_odd(t, gap, big):
    # exact symmetry: phi and phi^{-1} odd, Phi and phi' even, at every scale
    for n in ALL_BUILTINS:
        assert n(t + gap) > n(t)
        assert n(0.0) == 0.0
        for x in (t, big):
            assert n(-x) == -n(x)
            assert _same(n.antiderivative(-x), n.antiderivative(x))
            assert _same(n.deriv(-x), n.deriv(x))
            if n.contains(x):
                assert n.inverse(-x) == -n.inverse(x)


@given(st.floats(min_value=-10.0, max_value=10.0, allow_nan=False))
@settings(max_examples=200, deadline=None)
def test_antiderivative_nonnegative_and_even_growth(s):
    # Phi is nonnegative, zero only at 0, and increasing in |s|
    for n in ALL_BUILTINS:
        v = n.antiderivative(s)
        assert v >= 0.0
        assert n.antiderivative(s * 1.5) >= v - 1e-12


@pytest.mark.parametrize("n", [odd_log(), bounded_atan()], ids=["log", "atan"])
def test_antiderivative_at_the_ends_of_the_float_range(n):
    # s*s overflows from 1.34e154, and inf - inf is NaN: Phi read -inf or NaN there
    ends = [1.4e154, 1e200, 1e308, math.inf]
    ends += [-s for s in ends]
    with np.errstate(all="ignore"):
        arrays = n.arrays.antideriv(np.array(ends)).tolist()
    for s, v in zip(ends, arrays):
        for phi in (n.antiderivative(s), v):
            assert phi >= 0.0, (s, phi)  # False for NaN too
    assert n.antiderivative(math.inf) == n.antiderivative(-math.inf) == math.inf


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
