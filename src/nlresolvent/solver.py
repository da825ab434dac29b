"""Finite-set Dirichlet solver for the semi-linear graph equation.

Given a weighted graph, a potential W with certified lower bound W0 > 0,
a nonlinearity phi and data f, the solver computes the unique minimizer
of the energy

    E(u) = Q(u, u) + sum_x Phi(f(x) - W(x) u(x)) m(x) / W(x)

over functions supported in a finite vertex set U.  The minimizer is
characterized by the per-vertex stationarity conditions

    (deg(x) u(x) - sum_y b(x,y) u(y)) / m(x) = phi(f(x) - W(x) u(x)),

equivalently phi^{-1}(L u) + W u = f on U, with u = 0 off U.

Method: damped Newton on E over whole arrays.  The in-U graph is
assembled into coordinate arrays; A denotes the Dirichlet Laplacian,
deg(x) on the diagonal and -b(x,y) off it, so that Q(u, u) = u.A u for
u supported in U.  An exhaustion assembles its largest ball once and
solves each ball as a leading block of those arrays (see ``resolvent``);
``solve_dirichlet`` assembles U and runs the same core.  The gradient
of E is 2(A u - m phi(f - W u)) and its Hessian
2(A + diag(m W phi'(f - W u))) is symmetric positive definite once each
component of U has an edge leaving U or a vertex where phi' > 0.  Each
Newton step is solved by Jacobi-preconditioned conjugate gradients
down to float noise and damped by a backtracking line search on E
(Nocedal & Wright, Numerical Optimization, 2006, ch. 3); since E is
strictly convex this converges from any start.  One conjugate-gradient
iteration, a single pass over the arrays, counts as one sweep.

Newton needs the nonlinearity's array forms and a finite phi'(0).  A
custom phi without array forms, or odd_power(p < 1) with phi'(0) = oo,
takes the fallback: nonlinear Gauss-Seidel, which visits the vertices of
U in the order given (breadth-first from the root for the balls of an
exhaustion) and re-solves the scalar stationarity equation at x in the
unknown t = u(x), holding neighbors fixed.  That scalar function

    F(t) = (deg(x) t - S) / m(x) - phi(f(x) - W(x) t),  S = sum b(x,y) u(y),

is strictly increasing, and as long as all neighbor values stay in
[-K, K] with K = ||f||_inf / W0 the root lies in [-K, K] as well (F is
nonpositive at -K and nonnegative at +K there).  Roots are found by
bisection on the certified bracket [-K-1, K+1], accelerated by Newton
steps whenever a derivative hint exists and the step stays inside the
shrinking bracket, to a fixed step tolerance of 1e-12.  There a sweep is
one pass of scalar solves over U.
Starting from u = 0 with f >= 0 the sweep map is monotone, so iterates
increase toward the minimizer; for general f the same map is a
contraction in the sup norm with factor bounded by deg / (deg + m W0)
< 1 at each vertex.

Both paths share the assembly and sampling, which reject non-finite
inputs, and the residual check on the arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from collections.abc import Callable, Iterable, Sequence
from typing import NamedTuple

import numpy as np

from .graphs import VertexFunction, WeightedGraph, energy, laplacian_apply
from .nonlinearity import Nonlinearity, RangeError

__all__ = [
    "Potential",
    "SolveOptions",
    "SolveResult",
    "ResidualReport",
    "SolveError",
    "solve_dirichlet",
    "energy_functional",
    "residual",
]


def _require_positive(name: str, value: float) -> None:
    """Raise ValueError naming ``name`` unless ``value`` is finite and > 0."""
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value}")
    if value <= 0:
        raise ValueError(f"{name} must be positive, got {value}")


@dataclass(frozen=True)
class Potential:
    """Strictly positive vertex potential with a certified lower bound.

    W0 must satisfy W(x) >= W0 > 0 at every vertex the run touches; it
    feeds the a priori bound ||u||_inf <= ||f||_inf / W0 that certifies
    the solver's root brackets.
    """

    fn: Callable[[int], float]
    W0: float

    def __post_init__(self):
        if not (self.W0 > 0.0) or not math.isfinite(self.W0):
            raise ValueError(f"W0 must be a positive real, got {self.W0!r}")

    @classmethod
    def constant(cls, c: float) -> "Potential":
        c = float(c)
        return cls(fn=lambda x: c, W0=c)

    @classmethod
    def from_callable(cls, fn: Callable[[int], float], W0: float) -> "Potential":
        return cls(fn=fn, W0=float(W0))

    def __call__(self, x: int) -> float:
        return self.fn(x)


@dataclass(frozen=True)
class SolveOptions:
    """Iteration controls.

    The residual test is scaled per vertex by 1 + |f(x)|: at data of
    order one that is the plain absolute test, while at very large f
    (potentials like deg^2 push f beyond 1e40) float64 cannot represent
    an absolute residual below the rounding of f itself.

    A sweep is one pass over the in-U arrays: on the Newton path one
    conjugate-gradient iteration, on the Gauss-Seidel fallback one round
    of scalar solves.  ``max_sweeps`` caps their total.  ``sweep_tol``
    bounds the error left after the last update: Newton estimates it
    from the ratio of successive steps, Gauss-Seidel takes the update
    itself.
    """

    sweep_tol: float = 1e-10
    residual_tol: float = 1e-9
    max_sweeps: int = 100_000

    def __post_init__(self):
        _require_positive("sweep_tol", self.sweep_tol)
        _require_positive("residual_tol", self.residual_tol)
        if self.max_sweeps < 1:
            raise ValueError("max_sweeps must be >= 1")


@dataclass(frozen=True)
class SolveResult:
    """Outcome of one Dirichlet solve.

    ``sweeps_used`` counts passes over the arrays as ``SolveOptions``
    defines them (conjugate-gradient iterations on the Newton path).
    ``max_decrease`` is the largest decrease of any vertex value from
    the start (zero, or the warm start) to the returned solution; for
    f >= 0 started at zero or warm-started from a smaller problem the
    solution dominates the start and this stays at float noise.
    ``range_violations`` lists vertices where the final L u left ran
    phi, which forces ``converged = False``.  The energy of ``u`` is
    ``energy_functional(g, W, nl, f, u, U)``.
    """

    u: VertexFunction
    residual_inf: float
    sweeps_used: int
    converged: bool
    max_decrease: float = 0.0
    range_violations: tuple[int, ...] = ()


@dataclass(frozen=True)
class ResidualReport:
    """Per-vertex residual of phi^{-1}(L u) + W u - f over U."""

    values: dict[int, float]
    sup: float
    range_violations: tuple[tuple[int, float], ...] = ()

    @property
    def ok(self) -> bool:
        return not self.range_violations


class SolveError(RuntimeError):
    """A solve that was required to converge did not.

    The message gives the failed solve's residual and sweeps.  A failure
    inside a sequence of solves carries ``partial``: the estimate over
    the steps that completed before it, whose ``csv_rows()`` gives their
    trace rows (None when no step completed).
    """

    def __init__(self, message: str, partial=None):
        super().__init__(message)
        self.partial = partial


# F is evaluated as a difference of terms that can sit many orders above
# the root value (a = deg/m grows like 4^x on fast branching graphs), so
# |F| cannot be resolved below a few ulp of those terms.
_FT_NOISE = 8.0 * math.ulp(1.0)
# Relative rounding of E and of the Newton iterates: E sums O(deg u^2)
# terms, so values of E closer than this times those terms are equal.
_NOISE = 64.0 * math.ulp(1.0)
# Newton step size at which the scalar root finder accepts its landing point
_ROOT_TOL = 1e-12


def _scalar_root(a, s_over_m, fx, wx, phi, deriv, lo, hi, t, tol):
    """Root of F(t) = a*t - s_over_m - phi(fx - wx*t) on a certified bracket.

    a = deg/m >= 0 and wx > 0, so F is strictly increasing with
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


def _assemble(g: WeightedGraph, order: Sequence[int]):
    """rows, cols, b, m, deg: the edges with b > 0 between vertices of
    ``order`` in coordinate form, rows ascending and each row in neighbor
    order (so cutting the edges that leave a prefix of ``order`` leaves
    the prefix's own arrays), and the measure and weighted degree."""
    index = {x: i for i, x in enumerate(order)}
    cols: list[int] = []
    b: list[float] = []
    counts: list[int] = []
    for x in order:
        k = len(cols)
        for y, w in g.neighbors(x):
            j = index.get(y)
            if j is not None and w > 0.0:
                cols.append(j)
                b.append(w)
        counts.append(len(cols) - k)
    rows = np.repeat(np.arange(len(order)), counts)
    m = np.array([g.measure(x) for x in order], dtype=float)
    deg = np.array([g.degree(x) for x in order], dtype=float)
    return rows, np.array(cols, dtype=np.intp), np.array(b, dtype=float), m, deg


def _sample(order: Sequence[int], m, deg, W: Potential, f: Callable[[int], float]):
    """W and f on ``order`` as arrays, after checking them and the
    assembled m and deg.  Raises ValueError, naming the vertex, when
    one of them is not finite or W falls below W0."""
    w = np.array([W(x) for x in order], dtype=float)
    fv = np.array([f(x) for x in order], dtype=float)
    for name, arr in (("m", m), ("deg", deg), ("W", w), ("f", fv)):
        bad = np.flatnonzero(~np.isfinite(arr))
        if bad.size:
            raise ValueError(f"{name}({order[bad[0]]}) = {float(arr[bad[0]])} is not finite")
    low = np.flatnonzero(w < W.W0)
    if low.size:
        x = order[low[0]]
        raise ValueError(f"W({x}) = {float(w[low[0]])} violates the certified bound W0 = {W.W0}")
    return w, fv


class _System:
    """One solve's data: the leading block of the first n vertices of
    the ``_assemble``/``_sample`` arrays on ``order``, i.e. the edges
    with row < n and col < n in the same order and the prefixes of the
    vertex arrays.  ``apply`` is the Dirichlet Laplacian
    A u = deg u - sum_y b(., y) u(y) with u = 0 off that block.
    """

    def __init__(self, order: Sequence[int], rows, cols, b, m, deg, w, f, n: int):
        self.order = order
        e = int(np.searchsorted(rows, n))
        keep = cols[:e] < n
        self.rows, self.cols, self.b = rows[:e][keep], cols[:e][keep], b[:e][keep]
        self.m, self.deg, self.w, self.f = m[:n], deg[:n], w[:n], f[:n]

    def apply(self, u: np.ndarray) -> np.ndarray:
        off = np.bincount(self.rows, self.b * u[self.cols], minlength=u.size)
        return self.deg * u - off

    def residual(self, nl: Nonlinearity, u: np.ndarray):
        """Raw and data-scaled sup residual at u, and the range violations.

        A NaN residual propagates into both sups, so it fails the test.
        """
        lu = self.apply(u) / self.m
        ok = (nl.lo < lu) & (lu < nl.hi)
        if nl.arrays is not None:
            inv = nl.arrays.inv(np.where(ok, lu, 0.0))
        else:
            inv = np.zeros_like(lu)
            for i in np.flatnonzero(ok):
                try:
                    inv[i] = nl.inverse(float(lu[i]))
                except RangeError:
                    # inside ran phi mathematically but past float representability
                    ok[i] = False
        r = np.abs(inv + self.w * u - self.f)[ok]
        sup = float(np.max(r, initial=0.0))
        scaled = float(np.max(r / (1.0 + np.abs(self.f[ok])), initial=0.0))
        return sup, scaled, tuple(self.order[i] for i in np.flatnonzero(~ok))


def _pcg(sys_: _System, c: np.ndarray, rhs: np.ndarray, budget: int):
    """Jacobi-preconditioned CG for (A + diag(c)) x = rhs from x = 0.

    Runs until the preconditioned residual falls to float noise or the
    budget of iterations is spent; returns x and the iterations used.
    """
    diag = sys_.deg + c
    inv_diag = np.where(diag > 0.0, 1.0 / diag, 0.0)
    x = np.zeros_like(rhs)
    r = rhs.copy()
    z = inv_diag * r
    p = z.copy()
    rz = float(r @ z)
    stop = (_NOISE * _NOISE) * rz
    its = 0
    while its < budget and rz > stop:
        q = sys_.apply(p) + c * p
        pq = float(p @ q)
        if not pq > 0.0:
            break
        a = rz / pq
        x += a * p
        r -= a * q
        its += 1
        z = inv_diag * r
        rz, rz_old = float(r @ z), rz
        p = z + (rz / rz_old) * p
    return x, its


def _newton(sys_: _System, nl: Nonlinearity, u: np.ndarray, opts: SolveOptions):
    """Damped Newton on E from u; returns the iterate, sweeps and convergence."""
    arr = nl.arrays
    m, w, f = sys_.m, sys_.w, sys_.f

    def grad(v):  # half the gradient of E
        return sys_.apply(v) - m * arr.phi(f - w * v)

    def energy(v):  # E up to a constant, and the size of its rounding
        kappa = arr.antideriv(f - w * v) * m / w
        return v @ sys_.apply(v) + kappa.sum(), sys_.deg @ (v * v) + np.abs(kappa).sum()

    sweeps, last, step, tiny, stalls = 0, math.inf, math.inf, False, 0
    while True:
        _, scaled, violations = sys_.residual(nl, u)
        ok = not violations and scaled <= opts.residual_tol
        if ok and tiny:
            return u, sweeps, True
        if sweeps >= opts.max_sweeps or stalls >= 2:
            return u, sweeps, False  # budget spent, or steps at float noise
        c = m * w * arr.deriv(f - w * u)
        g = grad(u)
        d, its = _pcg(sys_, c, -g, opts.max_sweeps - sweeps)
        sweeps += its
        # backtracking on E; where E cannot tell the points apart, a
        # smaller gradient decides instead
        e0, n0 = energy(u)
        slope = min(2.0 * float(g @ d), 0.0)
        g0 = np.max(np.abs(g), initial=0.0)
        t = 1.0
        for _ in range(64):
            v = u + t * d
            e1, n1 = energy(v)
            if e1 <= e0 + 1e-4 * t * slope:
                break
            if abs(e1 - e0) <= _NOISE * max(n0, n1) and np.max(np.abs(grad(v)), initial=0.0) < g0:
                break
            t *= 0.5
        else:
            return u, sweeps, ok  # no representable descent left
        last, step = step, float(np.max(np.abs(t * d), initial=0.0))
        if step == 0.0:
            return u, sweeps, ok
        u = v
        # error left after this step, from the contraction rate of the last
        # two; the first step counts as exact, as it is for quadratic E
        rate = step / last
        noise = step <= _NOISE * np.max(np.abs(u))
        stalls = stalls + 1 if noise else 0
        tiny = noise or step * rate <= opts.sweep_tol * (1.0 - rate)


def _gauss_seidel(sys_: _System, nl: Nonlinearity, u: np.ndarray, k_bound: float,
                  opts: SolveOptions):
    """Per-vertex nonlinear Gauss-Seidel from u; returns the iterate, sweeps and convergence."""
    n_u = sys_.m.size
    starts = np.searchsorted(sys_.rows, np.arange(n_u + 1)).tolist()
    cols, bs = sys_.cols.tolist(), sys_.b.tolist()
    m_arr, deg_arr = sys_.m.tolist(), sys_.deg.tolist()
    w_arr, f_arr = sys_.w.tolist(), sys_.f.tolist()
    lo, hi = -k_bound - 1.0, k_bound + 1.0
    u = u.tolist()
    phi, deriv = nl.phi, nl.deriv
    sweeps = 0
    zero_stalls = 0
    while sweeps < opts.max_sweeps:
        sweeps += 1
        delta = 0.0
        for i in range(n_u):
            s = 0.0
            for k in range(starts[i], starts[i + 1]):
                s += bs[k] * u[cols[k]]
            mi = m_arr[i]
            t = _scalar_root(
                deg_arr[i] / mi, s / mi, f_arr[i], w_arr[i],
                phi, deriv, lo, hi, u[i], _ROOT_TOL,
            )
            d = abs(t - u[i])
            if d > delta:
                delta = d
            u[i] = t
        # residual checks are gated on sweep stagnation, plus a periodic
        # check so convergence is still detected if updates keep dancing
        # at float granularity above sweep_tol
        if delta > opts.sweep_tol and sweeps % 64 != 0:
            zero_stalls = 0
            continue
        _, scaled, violations = sys_.residual(nl, np.array(u))
        if not violations and scaled <= opts.residual_tol:
            return np.array(u), sweeps, True
        if delta == 0.0:
            zero_stalls += 1
            if zero_stalls >= 2:
                break  # exact fixed point of the scalar solves; no further progress
        else:
            zero_stalls = 0
    return np.array(u), sweeps, False


class _Solved(NamedTuple):
    """A solve on the arrays: SolveResult's fields, ``u`` still an array."""

    u: np.ndarray
    residual_inf: float
    sweeps_used: int
    converged: bool
    max_decrease: float
    range_violations: tuple[int, ...]


def _solve(sys_: _System, nl: Nonlinearity, W0: float, u0: np.ndarray,
           opts: SolveOptions | None) -> _Solved:
    """The solve core: Newton or Gauss-Seidel on sys_ from u0, then the
    residual check."""
    opts = opts or SolveOptions()
    with np.errstate(all="ignore"):
        newton = nl.arrays is not None and np.isfinite(nl.arrays.deriv(np.zeros(1))).all()
        k_bound = float(np.max(np.abs(sys_.f))) / W0
        # clamp into the certified box, where the solution lies
        u = np.clip(u0, -k_bound, k_bound)
        if newton:
            u, sweeps, converged = _newton(sys_, nl, u, opts)
        else:
            u, sweeps, converged = _gauss_seidel(sys_, nl, u, k_bound, opts)
        resid_inf, _, violations = sys_.residual(nl, u)
        max_dec = max(float(np.max(u0 - u)), 0.0)
    return _Solved(u, resid_inf, sweeps, converged, max_dec, violations)


def solve_dirichlet(
    g: WeightedGraph,
    W: Potential,
    nl: Nonlinearity,
    f: Callable[[int], float],
    U: Iterable[int],
    opts: SolveOptions | None = None,
    start: VertexFunction | None = None,
) -> SolveResult:
    """Minimize the Dirichlet energy over functions supported in U.

    Returns a flagged (never raising) result: ``converged`` is False
    when max_sweeps ran out, when progress stalled while the residual
    test still failed, or when L u left ran phi at some vertex.  Raises
    ValueError, naming the vertex, when m, deg, W or f is not finite
    there or W falls below W0.  The 1-neighborhood of U is materialized
    as a side effect.
    """
    order = list(dict.fromkeys(U))
    if not order:
        return SolveResult(u=VertexFunction.zero(), residual_inf=0.0, sweeps_used=0,
                           converged=True)
    rows, cols, b, m, deg = _assemble(g, order)
    sys_ = _System(order, rows, cols, b, m, deg, *_sample(order, m, deg, W, f), len(order))
    u0 = np.array([0.0 if start is None else start(x) for x in order], dtype=float)
    res = _solve(sys_, nl, W.W0, u0, opts)
    return SolveResult(VertexFunction(dict(zip(order, res.u.tolist()))), *res[1:])


def energy_functional(
    g: WeightedGraph,
    W: Potential,
    nl: Nonlinearity,
    f: VertexFunction,
    u: VertexFunction,
    U: Iterable[int],
) -> float:
    """E(u) = Q(u, u) + sum_{x in U union supp f} Phi(f(x) - W(x) u(x)) m(x) / W(x).

    Off U union supp f both u and f vanish, so the omitted terms are
    Phi(0) = 0 and the sum is exact.
    """
    q = energy(g, u, u)
    acc = 0.0
    for x in set(U) | set(f.support):
        wx = W(x)
        acc += nl.antiderivative(f(x) - wx * u(x)) * g.measure(x) / wx
    return q + acc


def residual(
    g: WeightedGraph,
    W: Potential,
    nl: Nonlinearity,
    f: VertexFunction,
    u: VertexFunction,
    U: Iterable[int],
) -> ResidualReport:
    """Pointwise residual phi^{-1}(L u) + W u - f over U.

    A vertex where L u falls outside ran phi is reported as a range
    violation instead of a number; the sup is taken over the vertices
    with a defined residual, and is NaN if any of them is NaN.
    """
    values: dict[int, float] = {}
    violations: list[tuple[int, float]] = []
    for x in dict.fromkeys(U):
        lu = laplacian_apply(g, u, x)
        if not nl.contains(lu):
            violations.append((x, lu))
            continue
        try:
            values[x] = nl.inverse(lu) + W(x) * u(x) - f(x)
        except RangeError:
            violations.append((x, lu))
    # np.max propagates NaN, whatever the order of the values
    sup = float(np.max(np.abs(np.fromiter(values.values(), float, len(values))), initial=0.0))
    return ResidualReport(values=values, sup=sup, range_violations=tuple(violations))
