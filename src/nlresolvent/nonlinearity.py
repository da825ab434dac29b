"""Strictly increasing nonlinearities and their calculus.

A nonlinearity is a continuous, strictly increasing phi with phi(0) = 0.
Its range is an open interval (lo, hi) around 0; the inverse is defined
exactly there.  Phi denotes the antiderivative of 2*phi with Phi(0) = 0,
a nonnegative strictly convex function that drives the variational
solver.

The builtins extend the usual examples (powers, log(1+t), arctan) to the
negative axis as odd functions, phi(-t) = -phi(t).  That choice is free
for everything computed here, which only depends on phi restricted to
[0, oo), and it keeps Phi even; ``_odd`` and ``_even`` extend formulas
stated on [0, oo) and map an overflow to +-inf.  Custom nonlinearities
may supply any subset of {inverse, antiderivative, derivative}; missing
pieces fall back to ``_scalar_root``, the one safeguarded
Newton-bisection root finder, and to adaptive quadrature.  The builtins
also carry :class:`ArrayForms`, vectorized versions of the same calculus
that the solver's Newton path evaluates on whole vertex sets.
"""

from __future__ import annotations

import math
import sys
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

_PHI_RTOL = 1e-10
_HUGE = 1e300
_FMAX = sys.float_info.max


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


# F is evaluated as a difference of terms that can sit many orders above
# the root value (in the solver a = deg/m grows like 4^x on fast
# branching graphs), so |F| cannot be resolved below a few ulp of them.
_FT_NOISE = 8.0 * math.ulp(1.0)


def _scalar_root(a, s_over_m, fx, wx, phi, deriv, lo, hi, t, tol):
    """Root of F(t) = a*t - s_over_m - phi(fx - wx*t) on a certified bracket.

    a >= 0 and wx > 0, so F is strictly increasing with
    F(lo) <= 0 <= F(hi).  Newton from the derivative hint is used while
    it stays inside the bracket and keeps halving the step (classic
    safeguarded scheme); otherwise bisect.

    Termination: |F| at its float evaluation noise accepts t outright,
    a Newton step below tol accepts its landing point, and bisection
    refines until the bracket is float-tight.  An absolute width cutoff
    would quantize roots to ~tol and is not used: at degree growth 4^x
    a tol-sized root error is amplified into residuals the sweep loop
    can never pass.  1500 iterations cover halving the widest float64
    bracket down to adjacent floats in pure-bisection mode.
    """
    if t < lo:
        t = lo
    elif t > hi:
        t = hi
    xl, xh = lo, hi
    dxold = xh - xl
    for _ in range(1500):
        at = a * t
        pv = phi(fx - wx * t)
        ft = at - s_over_m - pv
        if abs(ft) <= _FT_NOISE * (abs(at) + abs(s_over_m) + abs(pv)):
            return t
        if ft < 0.0:
            xl = t
        else:
            xh = t
        tn = None
        newton = False
        if deriv is not None:
            d = deriv(fx - wx * t)
            if d is not None and d >= 0.0 and math.isfinite(d):
                fp = a + wx * d
                if fp > 0.0 and math.isfinite(fp) and math.isfinite(ft):
                    cand = t - ft / fp
                    if xl <= cand <= xh and abs(cand - t) <= 0.5 * dxold:
                        tn = cand
                        newton = True
        if tn is None:
            tn = 0.5 * (xl + xh)
            if tn == xl or tn == xh:
                return tn  # bracket is float-tight
        dxold = abs(tn - t)
        if newton and dxold <= tol:
            return tn
        if tn == t:
            return t  # no representable progress
        t = tn
    raise RuntimeError(
        "scalar root finder exhausted its iteration budget; "
        "this indicates a broken bracket and is a bug"
    )


def phi_inv_numeric(n: Nonlinearity, s: float) -> float:
    """Invert phi at s: double a bracket out from [-1, 1] until it holds
    the root, or, where [-1, 1] holds it, bisect over the exponent down
    to the root's binade (arithmetic halving would cost one phi per
    binade, 1,000 at |s| = 1e-300); then solve phi(-tau) = s,
    t = -tau, by ``_scalar_root`` (a = 0, fx = 0, wx = 1, step
    tolerance 0).  Returns t once |phi(t) - s| is at the float noise of
    s and phi(t), or once the bracket is float-tight; s = 0 gives +0.0.
    """
    if not n.contains(s):
        raise RangeError(s, n.lo, n.hi, n.name)
    phi = n.phi
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
    if lo < 0.0 < hi and s != 0.0:
        # the root is sign * 2**e for a real e in (-1075, 0]; 2**-1075 rounds to 0
        sign = math.copysign(1.0, s)
        e_lo, e_hi = -1075, 0
        while e_hi - e_lo > 1:
            e = (e_lo + e_hi) // 2
            if sign * phi(math.ldexp(sign, e)) < abs(s):
                e_lo = e
            else:
                e_hi = e
        lo, hi = sorted((math.ldexp(sign, e_lo), math.ldexp(sign, e_hi)))
    return -_scalar_root(0.0, -s, 0.0, 1.0, phi, n.deriv, -hi, -lo, -0.5 * (lo + hi), 0.0)


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


def _odd(pos: Callable[[float], float]) -> Callable[[float], float]:
    """t -> sign(t) pos(|t|) for a formula pos on [0, oo); overflow gives +-inf."""

    def odd(t: float) -> float:
        sign = 1.0 if t > 0.0 else (-1.0 if t < 0.0 else 0.0)
        try:
            return sign * pos(abs(t))
        except OverflowError:
            return sign * math.inf

    return odd


def _even(pos: Callable[[float], float]) -> Callable[[float], float]:
    """t -> pos(|t|) for a formula pos on [0, oo); overflow gives +inf."""

    def even(t: float) -> float:
        try:
            return pos(abs(t))
        except OverflowError:
            return math.inf

    return even


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

    return Nonlinearity(
        name=f"power:{p:g}",
        phi=_odd(lambda a: a ** p),
        inv=_odd(lambda a: a ** (1.0 / p)),
        antideriv=_even(lambda a: 2.0 * a ** (p + 1.0) / (p + 1.0)),
        # 0.0 ** (p - 1.0) raises ZeroDivisionError for p < 1
        deriv=_even(lambda a: math.inf if a == 0.0 and p < 1.0 else p * a ** (p - 1.0)),
        arrays=ArrayForms(
            phi=lambda t: np.sign(t) * np.abs(t) ** p,
            deriv=lambda t: p * np.abs(t) ** (p - 1.0),
            inv=lambda s: np.sign(s) * np.abs(s) ** (1.0 / p),
            antideriv=lambda s: 2.0 * np.abs(s) ** (p + 1.0) / (p + 1.0),
        ),
    )


def odd_log() -> Nonlinearity:
    """phi(t) = sign(t) log(1 + |t|); concave on [0, oo), range all of R.

    Phi caps its last term at the largest float: Phi(+-inf) = inf, not inf - inf.
    """

    def deriv(t):  # floats and numpy arrays alike
        return 1.0 / (1.0 + abs(t))

    return Nonlinearity(
        name="log",
        phi=_odd(math.log1p),
        inv=_odd(math.expm1),
        antideriv=_even(lambda a: 2.0 * ((1.0 + a) * math.log1p(a) - min(a, _FMAX))),
        deriv=deriv,
        arrays=ArrayForms(
            phi=lambda t: np.sign(t) * np.log1p(np.abs(t)),
            deriv=deriv,
            inv=lambda s: np.sign(s) * np.expm1(np.abs(s)),
            antideriv=lambda s: 2.0 * ((1.0 + np.abs(s)) * np.log1p(np.abs(s))
                                       - np.minimum(np.abs(s), _FMAX)),
        ),
    )


def bounded_atan() -> Nonlinearity:
    """phi = arctan, with the bounded range (-pi/2, pi/2).

    The interesting feature is that ran phi is a proper interval: the
    inverse raises RangeError outside it, which downstream code reports
    as a range-violation state rather than a crash.

    Phi caps s*s, which overflows from |s| ~ 1.34e154, at the largest
    float: there log1p of either is far below the rounding of
    2 s atan(s) ~ pi |s|, and Phi(+-inf) = inf.
    """

    def deriv(t):  # floats and numpy arrays alike
        return 1.0 / (1.0 + t * t)

    return Nonlinearity(
        name="atan",
        phi=math.atan,
        lo=-0.5 * math.pi,
        hi=0.5 * math.pi,
        inv=math.tan,
        antideriv=lambda s: 2.0 * s * math.atan(s) - math.log1p(min(s * s, _FMAX)),
        deriv=deriv,
        arrays=ArrayForms(
            phi=np.arctan,
            deriv=deriv,
            inv=np.tan,
            antideriv=lambda s: 2.0 * s * np.arctan(s) - np.log1p(np.minimum(s * s, _FMAX)),
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
