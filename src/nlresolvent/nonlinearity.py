"""Strictly increasing nonlinearities and their calculus.

A nonlinearity is a continuous, strictly increasing phi with phi(0) = 0.
Its range is an open interval (lo, hi) around 0; the inverse is defined
exactly there.  Phi denotes the antiderivative of 2*phi with Phi(0) = 0,
a nonnegative strictly convex function that drives the variational
solver.

The builtins extend the usual examples (powers, log(1+t), arctan) to the
negative axis as odd functions, phi(-t) = -phi(t).  That choice is free
for everything computed here, which only depends on phi restricted to
[0, oo), and it keeps Phi even.  Custom nonlinearities may supply any
subset of {inverse, antiderivative, derivative}; missing pieces fall
back to safeguarded bisection and adaptive quadrature.  The builtins
also carry :class:`ArrayForms`, vectorized versions of the same calculus
that the solver's Newton path evaluates on whole vertex sets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
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

_INV_ATOL = 1e-12
_INV_RTOL = 1e-10
_PHI_RTOL = 1e-10
_HUGE = 1e300


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
        phi' where it exists; used to accelerate root finding.
    arrays : ArrayForms or None
        Vectorized phi, phi', phi^{-1} and Phi.  With them, and a finite
        phi'(0), the solver runs Newton on whole vertex sets; without
        them it falls back to per-vertex Gauss-Seidel.  They must agree
        with the scalar fields, which ``dataclasses.replace`` does not
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


def phi_inv_numeric(n: Nonlinearity, s: float) -> float:
    """Invert phi at s by bracketed bisection with Newton refinement.

    The bracket starts at [-1, 1] and doubles outward until it contains
    the root (monotonicity makes the test a sign check).  Newton steps
    from the derivative hint are accepted while they stay inside the
    current bracket; every evaluation shrinks it, so the loop cannot
    escape.  Stops when |phi(t) - s| <= _INV_ATOL + _INV_RTOL*|s|.
    """
    if not n.contains(s):
        raise RangeError(s, n.lo, n.hi, n.name)
    tol = _INV_ATOL + _INV_RTOL * abs(s)
    phi, deriv = n.phi, n.deriv
    if abs(s) <= tol and abs(phi(0.0)) <= tol:
        return 0.0
    lo, hi = -1.0, 1.0
    while phi(hi) < s:
        lo = hi
        hi *= 2.0
        if hi > _HUGE:
            raise RangeError(s, n.lo, n.hi, n.name)
    while phi(lo) > s:
        hi = lo
        lo *= 2.0
        if lo < -_HUGE:
            raise RangeError(s, n.lo, n.hi, n.name)
    t = 0.5 * (lo + hi)
    for _ in range(400):
        ft = phi(t) - s
        if abs(ft) <= tol:
            return t
        if ft < 0.0:
            lo = t
        else:
            hi = t
        step_done = False
        d = deriv(t) if deriv is not None else None
        if d is not None and math.isfinite(d) and d > 0.0:
            tn = t - ft / d
            if lo < tn < hi:
                t = tn
                step_done = True
        if not step_done:
            t = 0.5 * (lo + hi)
        if hi - lo <= _INV_ATOL * (1.0 + abs(t)):
            return t
    return t


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


def _sign(t: float) -> float:
    return 1.0 if t > 0.0 else (-1.0 if t < 0.0 else 0.0)


def identity() -> Nonlinearity:
    """phi(t) = t, the linear case; Phi(s) = s^2."""
    return Nonlinearity(
        name="identity",
        phi=lambda t: t,
        inv=lambda s: s,
        antideriv=lambda s: s * s,
        deriv=lambda t: 1.0,
        arrays=ArrayForms(phi=lambda t: t, deriv=np.ones_like, inv=lambda s: s,
                          antideriv=np.square),
    )


def odd_power(p: float) -> Nonlinearity:
    """phi(t) = sign(t) |t|^p for p > 0; Phi(s) = 2 |s|^(p+1) / (p+1).

    p < 1 has an infinite derivative at 0 (the hint returns inf there,
    root finders fall back to bisection and the solver to Gauss-Seidel);
    p > 1 has derivative 0.
    """
    p = float(p)
    if p <= 0.0:
        raise ValueError(f"odd_power needs p > 0, got {p}")

    def phi(t: float) -> float:
        if t == 0.0:
            return 0.0
        try:
            return _sign(t) * abs(t) ** p
        except OverflowError:
            return _sign(t) * math.inf

    def inv(s: float) -> float:
        if s == 0.0:
            return 0.0
        try:
            return _sign(s) * abs(s) ** (1.0 / p)
        except OverflowError:
            return _sign(s) * math.inf

    def antideriv(s: float) -> float:
        try:
            return 2.0 * abs(s) ** (p + 1.0) / (p + 1.0)
        except OverflowError:
            return math.inf

    def deriv(t: float) -> float:
        if t == 0.0:
            return 1.0 if p == 1.0 else (0.0 if p > 1.0 else math.inf)
        try:
            return p * abs(t) ** (p - 1.0)
        except OverflowError:
            return math.inf

    arrays = ArrayForms(
        phi=lambda t: np.sign(t) * np.abs(t) ** p,
        deriv=lambda t: p * np.abs(t) ** (p - 1.0),
        inv=lambda s: np.sign(s) * np.abs(s) ** (1.0 / p),
        antideriv=lambda s: 2.0 * np.abs(s) ** (p + 1.0) / (p + 1.0),
    )
    return Nonlinearity(
        name=f"power:{p:g}", phi=phi, inv=inv, antideriv=antideriv, deriv=deriv,
        arrays=arrays,
    )


def odd_log() -> Nonlinearity:
    """phi(t) = sign(t) log(1 + |t|); concave on [0, oo), range all of R."""

    def phi(t: float) -> float:
        return _sign(t) * math.log1p(abs(t))

    def inv(s: float) -> float:
        try:
            return _sign(s) * math.expm1(abs(s))
        except OverflowError:
            return _sign(s) * math.inf

    def antideriv(s: float) -> float:
        a = abs(s)
        return 2.0 * ((1.0 + a) * math.log1p(a) - a)

    def deriv(t):  # floats and numpy arrays alike
        return 1.0 / (1.0 + abs(t))

    return Nonlinearity(
        name="log",
        phi=phi,
        inv=inv,
        antideriv=antideriv,
        deriv=deriv,
        arrays=ArrayForms(
            phi=lambda t: np.sign(t) * np.log1p(np.abs(t)),
            deriv=deriv,
            inv=lambda s: np.sign(s) * np.expm1(np.abs(s)),
            antideriv=lambda s: 2.0 * ((1.0 + np.abs(s)) * np.log1p(np.abs(s)) - np.abs(s)),
        ),
    )


def bounded_atan() -> Nonlinearity:
    """phi = arctan, with the bounded range (-pi/2, pi/2).

    The interesting feature is that ran phi is a proper interval: the
    inverse raises RangeError outside it, which downstream code reports
    as a range-violation state rather than a crash.
    """

    def deriv(t):  # floats and numpy arrays alike
        return 1.0 / (1.0 + t * t)

    return Nonlinearity(
        name="atan",
        phi=math.atan,
        lo=-0.5 * math.pi,
        hi=0.5 * math.pi,
        inv=math.tan,
        antideriv=lambda s: 2.0 * s * math.atan(s) - math.log1p(s * s),
        deriv=deriv,
        arrays=ArrayForms(
            phi=np.arctan,
            deriv=deriv,
            inv=np.tan,
            antideriv=lambda s: 2.0 * s * np.arctan(s) - np.log1p(s * s),
        ),
    )


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
