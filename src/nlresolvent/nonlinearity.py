"""Strictly increasing nonlinearities and their calculus.

A nonlinearity is a continuous, strictly increasing phi with phi(0) = 0.
Its range is an open interval (lo, hi) around 0; the inverse is defined
exactly there.  Phi denotes the antiderivative of 2*phi with Phi(0) = 0,
a nonnegative strictly convex function that drives the variational
solver.

The builtins extend the usual examples (powers, log(1+t), arctan) to the
negative axis as odd functions, phi(-t) = -phi(t).  That choice is free
for everything computed here, which only depends on phi restricted to
[0, oo), and it keeps Phi even.  Each builtin writes phi, phi^{-1}, Phi
and phi' once over a few elementary functions; ``_builtin`` evaluates
them with math's for the scalar fields and numpy's for
:class:`ArrayForms`, the vectorized calculus of the solver's Newton
steps.  Custom nonlinearities may supply any subset of {inverse,
antiderivative, derivative}; a missing inverse is found by
``_scalar_root``, the one safeguarded Newton-bisection root finder, on
the root's binade, a missing Phi by adaptive quadrature, and missing
array forms by mapping the scalar forms over the entries
(``_array_forms``), with phi' from difference quotients where it has no
derivative.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from types import SimpleNamespace
from collections.abc import Callable

import numpy as np

__all__ = [
    "RangeError",
    "ArrayForms",
    "Nonlinearity",
    "identity",
    "odd_power",
    "odd_log",
    "bounded_atan",
    "parse_phi",
    "phi_inv_numeric",
    "Phi_numeric",
]

_PHI_RTOL = 1e-10
_FMAX = sys.float_info.max
# relative step of the difference quotient that stands in for a missing phi'
_DIFF_STEP = 2.0**-17
_TINY, _TINY_SQRT = 2.0**-1000, 2.0**-500


class RangeError(ValueError):
    """A value fell outside ran phi, where the inverse is undefined."""

    def __init__(self, value: float, lo: float, hi: float, name: str = "phi"):
        self.value = value
        self.lo = lo
        self.hi = hi
        super().__init__(f"{value!r} is outside ran {name} = ({lo!r}, {hi!r})")


@dataclass(frozen=True)
class ArrayForms:
    """phi, phi', phi^{-1} and Phi as numpy expressions on float arrays.

    Callers evaluate them under ``np.errstate``: overflow yields +-inf,
    which the solver reports as a range violation or an infinite
    residual.  ``inv`` is only asked for values inside ran phi.
    """

    phi: Callable[[np.ndarray], np.ndarray]
    deriv: Callable[[np.ndarray], np.ndarray]
    inv: Callable[[np.ndarray], np.ndarray]
    antideriv: Callable[[np.ndarray], np.ndarray]


@dataclass(frozen=True)
class Nonlinearity:
    """phi together with its range and optional closed-form helpers.

    Fields
    ------
    name : str
        Display name (also used by the CLI).
    phi : callable
        The function itself; strictly increasing, phi(0) = 0.
    lo, hi : float
        Endpoints of the open interval ran phi (may be +-inf).
    inv : callable or None
        Exact inverse on (lo, hi), when a closed form exists.
    antideriv : callable or None
        Closed form of Phi(s) = integral_0^s 2 phi(t) dt.
    deriv : callable or None
        phi' where it exists (inf where phi' is infinite); it accelerates
        root finding, and without it the solver takes difference
        quotients.
    arrays : ArrayForms or None
        Vectorized phi, phi', phi^{-1} and Phi, which the solver's Newton
        steps evaluate on whole vertex sets.  Without them it maps the
        scalar forms over the entries, one call per vertex.  The builtins
        derive both from one formula; a custom phi's arrays must agree
        with its scalar fields, which ``dataclasses.replace`` does not
        check.
    """

    name: str
    phi: Callable[[float], float]
    lo: float = -math.inf
    hi: float = math.inf
    inv: Callable[[float], float] | None = None
    antideriv: Callable[[float], float] | None = None
    deriv: Callable[[float], float] | None = None
    arrays: ArrayForms | None = None

    def __call__(self, t: float) -> float:
        return self.phi(t)

    def contains(self, s: float) -> bool:
        """Whether s lies in the open interval ran phi."""
        return self.lo < s < self.hi

    def inverse(self, s: float) -> float:
        """phi^{-1}(s); closed form if available, else numeric.

        Raises RangeError when s is not in ran phi.
        """
        if not self.contains(s):
            raise RangeError(s, self.lo, self.hi, self.name)
        if self.inv is not None:
            return self.inv(s)
        return phi_inv_numeric(self, s)

    def antiderivative(self, s: float) -> float:
        """Phi(s) >= 0; closed form if available, else quadrature."""
        if self.antideriv is not None:
            return self.antideriv(s)
        return Phi_numeric(self, s)


# phi(t) - s is evaluated as a difference of terms that can sit many
# orders above the root value, so it cannot be resolved below a few ulp
# of them.
_FT_NOISE = 8.0 * math.ulp(1.0)


def _scalar_root(phi, deriv, s, lo, hi):
    """Root of phi(t) = s on a bracket with phi(lo) <= s <= phi(hi).

    Starts at the midpoint.  Newton from the derivative hint is used
    while it stays inside the bracket and keeps halving the step (classic
    safeguarded scheme); otherwise bisect.  |phi(t) - s| at its float
    evaluation noise accepts t outright, and bisection refines until the
    bracket is float-tight or a step lands where it started.  An absolute
    width cutoff would quantize roots, and is not used.  Midpoints halve
    each end first, so the top binade's do not overflow.  1500 iterations
    cover halving the widest float64 bracket down to adjacent floats in
    pure-bisection mode.
    """
    t = 0.5 * lo + 0.5 * hi
    xl, xh = lo, hi
    dxold = xh - xl
    for _ in range(1500):
        pv = phi(t)
        ft = pv - s
        # each term scaled apart, so the bound overflows only where phi(t) did
        if abs(ft) <= _FT_NOISE * abs(s) + _FT_NOISE * abs(pv) < math.inf:
            return t
        if ft > 0.0:
            xh = t
        else:
            xl = t
        tn = None
        if deriv is not None:
            d = deriv(t)
            if d is not None and 0.0 < d < math.inf and math.isfinite(ft):
                cand = t - ft / d
                if xl <= cand <= xh and abs(cand - t) <= 0.5 * dxold:
                    tn = cand
        if tn is None:
            tn = 0.5 * xl + 0.5 * xh
            if tn == xl or tn == xh:
                return tn  # bracket is float-tight
        dxold = abs(tn - t)
        if tn == t:
            return t  # no representable progress
        t = tn
    raise RuntimeError(
        "scalar root finder exhausted its iteration budget; "
        "this indicates a broken bracket and is a bug"
    )


def phi_inv_numeric(n: Nonlinearity, s: float) -> float:
    """Invert phi at s, by ``_scalar_root`` on the root's binade.

    The root is sign(s) 2**e for a real e in (-1075, 1024] (2**-1075
    rounds to 0, and 2**1024 stands for the largest float).  A bracket on
    e grows from 0 by doubling, outward (1, 2, 4, ..., 1024) or inward
    (-1, -2, -4, ..., -1075), and is then bisected down to one binade: at
    most 21 phi evaluations at any s, where halving or doubling the
    bracket on t would cost one per binade (1,000 at 1e-300 or 1e299).
    Returns t once |phi(t) - s| is at the float noise of s and phi(t), or
    once the bracket is float-tight; s = 0 gives +0.0.  Raises RangeError
    where s lies outside ran phi or its inverse beyond the largest float.
    """
    if not n.contains(s):
        raise RangeError(s, n.lo, n.hi, n.name)
    if s == 0.0:
        return 0.0
    phi, sign = n.phi, math.copysign(1.0, s)

    def power(e):
        return sign * (_FMAX if e == 1024 else math.ldexp(1.0, e))

    def below(e):  # phi(sign 2**e) lies strictly between 0 and s
        return sign * phi(power(e)) < abs(s)

    if below(0):
        e_lo, e_hi = 0, 1
        while below(e_hi):
            if e_hi == 1024:
                raise RangeError(s, n.lo, n.hi, n.name)
            e_lo, e_hi = e_hi, min(2 * e_hi, 1024)
    else:
        e_lo, e_hi = -1, 0
        while e_lo > -1075 and not below(e_lo):
            e_lo, e_hi = max(2 * e_lo, -1075), e_lo
    while e_hi - e_lo > 1:
        e = (e_lo + e_hi) // 2
        if below(e):
            e_lo = e
        else:
            e_hi = e
    lo, hi = sorted((power(e_lo), power(e_hi)))
    return _scalar_root(phi, n.deriv, s, lo, hi)


def _mapped(fn: Callable[[float], float]) -> Callable[[np.ndarray], np.ndarray]:
    """fn on each entry of a 1-D float array."""
    return lambda a: np.fromiter(map(fn, a.tolist()), dtype=float, count=a.size)


def _difference_quotient(phi: Callable[[float], float]) -> Callable[[float], float]:
    """phi' as the central difference quotient of phi on the step
    _DIFF_STEP |t| (at least 2**-1000), near the cube root of the float
    precision, where truncation and rounding errors balance.  At t = 0 it
    is phi(h)/h at h = 2**-1000, or inf where that is more than twice its
    value at h = 2**-500: a phi like t**p, whose phi'(0) is infinite for
    p < 1, doubles it for p < 0.998."""

    def deriv(t: float) -> float:
        if t == 0.0:
            q = phi(_TINY) / _TINY
            return math.inf if q > 2.0 * (phi(_TINY_SQRT) / _TINY_SQRT) else q
        h = max(_DIFF_STEP * abs(t), _TINY)
        return (phi(t + h) - phi(t - h)) / (h + h)

    return deriv


def _array_forms(n: Nonlinearity) -> ArrayForms:
    """``n.arrays``, or where n has none, its scalar calculus mapped over
    the entries: phi, phi' (the difference quotient where n has no
    ``deriv``), the inverse (``phi_inv_numeric`` where n has no ``inv``;
    +-inf beyond ran phi or the float range) and Phi (``Phi_numeric``
    where n has no ``antideriv``)."""
    if n.arrays is not None:
        return n.arrays

    def inv(s: float) -> float:
        try:
            return n.inverse(s)
        except RangeError:
            return math.copysign(math.inf, s)

    return ArrayForms(phi=_mapped(n.phi), deriv=_mapped(n.deriv or _difference_quotient(n.phi)),
                      inv=_mapped(inv), antideriv=_mapped(n.antiderivative))


def _adaptive_simpson(f, a, b, fa, fb, fm, whole, tol, depth):
    m = 0.5 * (a + b)
    lm = 0.5 * (a + m)
    rm = 0.5 * (m + b)
    flm = f(lm)
    frm = f(rm)
    left = (m - a) / 6.0 * (fa + 4.0 * flm + fm)
    right = (b - m) / 6.0 * (fm + 4.0 * frm + fb)
    if depth <= 0 or abs(left + right - whole) <= 15.0 * tol:
        return left + right + (left + right - whole) / 15.0
    return _adaptive_simpson(
        f, a, m, fa, fm, flm, left, 0.5 * tol, depth - 1
    ) + _adaptive_simpson(f, m, b, fm, fb, frm, right, 0.5 * tol, depth - 1)


def Phi_numeric(n: Nonlinearity, s: float) -> float:
    """Phi(s) = integral_0^s 2 phi(t) dt by adaptive Simpson quadrature to _PHI_RTOL.

    Result is clamped at 0 from below to absorb quadrature noise near
    s = 0 (the exact value is nonnegative).
    """
    if s == 0.0:
        return 0.0
    f = lambda t: 2.0 * n.phi(t)
    fa, fb = f(0.0), f(s)
    fm = f(0.5 * s)
    whole = s / 6.0 * (fa + 4.0 * fm + fb)
    scale = abs(whole) + abs(s)
    val = _adaptive_simpson(f, 0.0, s, fa, fb, fm, whole, _PHI_RTOL * scale, 40)
    return max(val, 0.0)


# the elementary functions of the builtins' formulas: math's for floats, numpy's for arrays
_FLOATS = SimpleNamespace(log1p=math.log1p, expm1=math.expm1, atan=math.atan, tan=math.tan,
                          min=min, one=lambda t: 1.0)
_ARRAYS = SimpleNamespace(log1p=np.log1p, expm1=np.expm1, atan=np.arctan, tan=np.tan,
                          min=np.minimum, one=np.ones_like)


def _half_line(pos: Callable, odd: bool, m: SimpleNamespace) -> Callable:
    """t -> sign(t) pos(|t|) (odd) or pos(|t|) (even) for a formula pos on
    [0, oo).  On floats an OverflowError gives +-inf, and the even
    extension maps 0 ** (p - 1) at p < 1 (a ZeroDivisionError) to +inf:
    the values numpy returns on arrays."""
    if m is _ARRAYS:
        return (lambda t: np.sign(t) * pos(np.abs(t))) if odd else (lambda t: pos(np.abs(t)))

    def odd_ext(t: float) -> float:
        sign = 1.0 if t > 0.0 else (-1.0 if t < 0.0 else 0.0)
        try:
            return sign * pos(abs(t))
        except OverflowError:
            return sign * math.inf

    def even_ext(t: float) -> float:
        try:
            return pos(abs(t))
        except (OverflowError, ZeroDivisionError):
            return math.inf

    return odd_ext if odd else even_ext


def _builtin(name: str, calculus: Callable, half_line: bool = False, **ran: float) -> Nonlinearity:
    """The builtin ``name`` from ``calculus(m)``, its phi, inv, antideriv
    and deriv written once against the elementary functions m: ``_FLOATS``
    gives the scalar fields, ``_ARRAYS`` the ArrayForms.  With
    ``half_line`` the formulas are stated on [0, oo) and extended by
    ``_half_line``: phi and inv oddly, antideriv and deriv evenly."""

    def forms(m):
        return {key: _half_line(pos, key in ("phi", "inv"), m) if half_line else pos
                for key, pos in calculus(m).items()}

    return Nonlinearity(name, **forms(_FLOATS), **ran, arrays=ArrayForms(**forms(_ARRAYS)))


def identity() -> Nonlinearity:
    """phi(t) = t, the linear case; Phi(s) = s^2; the array phi and inverse return t itself."""
    return _builtin("identity", lambda m: dict(
        phi=lambda t: t, inv=lambda s: s, antideriv=lambda s: s * s, deriv=m.one))


def odd_power(p: float) -> Nonlinearity:
    """phi(t) = sign(t) |t|^p for p > 0; Phi(s) = 2 |s|^(p+1) / (p+1).

    p < 1 has an infinite derivative at 0 (the hint returns inf there,
    root finders bisect, and the solver's Newton steps linearize
    phi^{-1}(L u) + W u = f instead of the gradient of E); p > 1 has
    derivative 0.
    """
    p = float(p)
    if p <= 0.0:
        raise ValueError(f"odd_power needs p > 0, got {p}")
    return _builtin(f"power:{p:g}", lambda m: dict(
        phi=lambda a: a ** p, inv=lambda a: a ** (1.0 / p),
        antideriv=lambda a: 2.0 * a ** (p + 1.0) / (p + 1.0),
        deriv=lambda a: p * a ** (p - 1.0),
    ), half_line=True)


def odd_log() -> Nonlinearity:
    """phi(t) = sign(t) log(1 + |t|); concave on [0, oo), range all of R.

    Phi caps its last term at the largest float: Phi(+-inf) = inf, not inf - inf.
    """
    return _builtin("log", lambda m: dict(
        phi=m.log1p, inv=m.expm1,
        antideriv=lambda a: 2.0 * ((1.0 + a) * m.log1p(a) - m.min(a, _FMAX)),
        deriv=lambda a: 1.0 / (1.0 + a),
    ), half_line=True)


def bounded_atan() -> Nonlinearity:
    """phi = arctan, with the bounded range (-pi/2, pi/2).

    The interesting feature is that ran phi is a proper interval: the
    inverse raises RangeError outside it, which downstream code reports
    as a range-violation state rather than a crash.

    Phi caps s*s, which overflows from |s| ~ 1.34e154, at the largest
    float: there log1p of either is far below the rounding of
    2 s atan(s) ~ pi |s|, and Phi(+-inf) = inf.
    """
    return _builtin("atan", lambda m: dict(
        phi=m.atan, inv=m.tan,
        antideriv=lambda s: 2.0 * s * m.atan(s) - m.log1p(m.min(s * s, _FMAX)),
        deriv=lambda t: 1.0 / (1.0 + t * t),
    ), lo=-0.5 * math.pi, hi=0.5 * math.pi)


def parse_phi(spec: str) -> Nonlinearity:
    """Parse the CLI form: identity | power:p | log | atan."""
    spec = spec.strip()
    if spec == "identity":
        return identity()
    if spec == "log":
        return odd_log()
    if spec == "atan":
        return bounded_atan()
    if spec.startswith("power:"):
        try:
            p = float(spec.split(":", 1)[1])
        except ValueError as exc:
            raise ValueError(f"bad power exponent in {spec!r}") from exc
        return odd_power(p)
    raise ValueError(f"unknown nonlinearity spec {spec!r} (identity|power:p|log|atan)")
