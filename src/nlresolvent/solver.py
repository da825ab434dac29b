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
and damped by a backtracking line search on E (Nocedal & Wright,
Numerical Optimization, 2006, ch. 3); since E is strictly convex this
converges from any start.  The steps are inexact (Dembo, Eisenstat &
Steihaug, SIAM J. Numer. Anal. 19, 1982): the first step of a solve runs
CG down to float noise, so a quadratic E is solved in one exact step,
and step k > 0 stops CG once the linear residual r_k has fallen below
eta_k ||g_k||, g_k the gradient, with the forcing term of Eisenstat &
Walker (SIAM J. Sci. Comput. 17, 1996), choice 1:

    eta_k = min(0.5, | ||g_k|| - ||r_{k-1}|| | / ||g_{k-1}||),

raised to eta_{k-1}^((1 + sqrt 5)/2) where that power exceeds 0.1.  The
term is large far from the solution, where an accurate step is wasted,
and shrinks with the gradient near it, which keeps the local
convergence superlinear.  One conjugate-gradient iteration, a single
pass over the arrays, counts as one sweep.  Each iterate's A u, f - W u
and energy are computed once, in the line search that accepts it, and
the residual test runs only where the step test passes and on the
exits; its report at the returned iterate is the one the solve returns.

Where the in-U graph is a forest and U lists each vertex after its
parent, as the breadth-first balls of a tree do, a Newton step is
instead solved exactly, in O(|U|), by eliminating the vertices from the
leaves to the roots (``_eliminate``); one elimination, that is one
exact Newton step, counts as one sweep, and leaves no linear residual
for the next forcing term.  Sets with cycles, and steps whose
elimination meets a pivot that is not positive and finite, take CG.

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
from collections.abc import Callable, Iterable
from typing import NamedTuple

import numpy as np

from .graphs import VertexFunction, WeightedGraph, _assemble, _ids, energy
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
        return cls(fn=_Ratio(c), W0=c)

    @classmethod
    def from_callable(cls, fn: Callable[[int], float], W0: float) -> "Potential":
        return cls(fn=fn, W0=float(W0))

    def __call__(self, x: int) -> float:
        return self.fn(x)


class _Ratio:
    """The vertex function x -> h(deg(x)/m(x)) + c on g (h None: the
    identity), or the constant c where g is None.  ``_sample`` evaluates
    it on the measures and degrees it is handed, without reading g."""

    def __init__(self, c: float, g: WeightedGraph | None = None,
                 h: Callable[[float], float] | None = None):
        self.c, self.g, self.h = c, g, h

    def __call__(self, x: int) -> float:
        if self.g is None:
            return self.c
        _, _, _, m, deg = self.g.block(_ids([x]))
        t = deg.tolist()[0] / m.tolist()[0]
        return (t if self.h is None else self.h(t)) + self.c


@dataclass(frozen=True)
class SolveOptions:
    """Iteration controls.

    The residual test is scaled per vertex by 1 + |f(x)|: at data of
    order one that is the plain absolute test, while at very large f
    (potentials like deg^2 push f beyond 1e40) float64 cannot represent
    an absolute residual below the rounding of f itself.

    A sweep is one pass over the in-U arrays: on the Newton path one
    conjugate-gradient iteration, or where U spans a forest one
    elimination, that is one exact Newton step; on the Gauss-Seidel
    fallback one round of scalar solves.  ``max_sweeps`` caps their
    total.  ``sweep_tol`` bounds the error left after the last update:
    Newton estimates it from the ratio of successive steps, Gauss-Seidel
    takes the update itself.
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
    defines them (conjugate-gradient iterations on the Newton path, and
    on a forest eliminations, one per Newton step).
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
# Largest forcing term of the inexact Newton steps: every inner CG solve
# at least halves its residual
_ETA_MAX = 0.5
# Exponent of the safeguard on the forcing terms (Eisenstat & Walker 1996)
_GOLDEN = (1.0 + math.sqrt(5.0)) / 2.0
# Mean breadth-first layer width from which a forest is eliminated a
# layer at a time; thinner forests take a loop over the vertices
_WIDE = 16
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


def _sample(g: WeightedGraph, fn: Callable[[int], float], xs: np.ndarray, m, deg) -> np.ndarray:
    """fn on the vertices xs of g, whose measures and degrees are m and
    deg, as a float array: one call per vertex, or for a ``_Ratio`` on g
    (or a constant) one expression on the arrays, with the same bits."""
    # where some m(x) = 0, the calls raise ZeroDivisionError as W(x) does
    if isinstance(fn, _Ratio) and fn.g in (None, g) and m.all():
        if fn.g is None:
            return np.full(xs.size, fn.c)
        with np.errstate(all="ignore"):  # inf and nan as the scalar floats give them
            t = deg / m
            if fn.h is not None:
                t = np.fromiter(map(fn.h, t.tolist()), dtype=float, count=t.size)
            return t + fn.c
    return np.fromiter(map(fn, xs.tolist()), dtype=float, count=xs.size)


def _check(xs: np.ndarray, m, deg, w, f, W0: float) -> None:
    """Raise ValueError, naming the vertex, where m, deg, W or f is not
    finite on the vertices xs or W falls below W0."""
    for name, arr in (("m", m), ("deg", deg), ("W", w), ("f", f)):
        bad = np.flatnonzero(~np.isfinite(arr))
        if bad.size:
            raise ValueError(f"{name}({int(xs[bad[0]])}) = {float(arr[bad[0]])} is not finite")
    low = np.flatnonzero(w < W0)
    if low.size:
        x = int(xs[low[0]])
        raise ValueError(f"W({x}) = {float(w[low[0]])} violates the certified bound W0 = {W0}")


def _forest(rows, cols, b, n: int):
    """The in-set graph as a forest whose parents come first, or None.

    The graph is symmetric, so it is such a forest exactly when each
    vertex has at most one earlier neighbor, its parent.  Returns
    ``parent`` (-1 at the roots), ``pb`` = b(x, parent(x)) (0 at the
    roots) and ``layers``: the bounds of the breadth-first layers when
    the parents are non-decreasing (roots first, then each layer's
    children in the order of their parents, as on an exhaustion) and
    a layer holds at least ``_WIDE`` vertices on average, else None.
    """
    low = cols < rows
    kids = rows[low]
    if np.bincount(kids, minlength=n).max(initial=0) > 1:
        return None
    parent = np.full(n, -1)
    parent[kids] = cols[low]
    pb = np.zeros(n)
    pb[kids] = b[low]
    layers = None
    if (parent[1:] >= parent[:-1]).all():
        # layer k + 1 is the vertices whose parents lie in layer k
        ends = [0]
        while ends[-1] < n and len(ends) * _WIDE <= n:
            ends.append(int(parent.searchsorted(ends[-1])))
        if ends[-1] == n:
            layers = ends
    return parent, pb, layers


class _System:
    """One solve's data: the leading block of the first n vertices of
    the ``_assemble``/``_sample`` arrays on ``order``, i.e. the edges
    with row < n and col < n in the same order and the prefixes of the
    vertex arrays.  ``apply`` is the Dirichlet Laplacian
    A u = deg u - sum_y b(., y) u(y) with u = 0 off that block, and
    ``forest`` is its ``_forest`` structure, or None.
    """

    def __init__(self, order: np.ndarray, rows, cols, b, m, deg, w, f, n: int):
        self.order = order
        e = int(rows.searchsorted(n))
        keep = cols[:e] < n
        self.rows, self.cols, self.b = rows[:e][keep], cols[:e][keep], b[:e][keep]
        self.m, self.deg, self.w, self.f = m[:n], deg[:n], w[:n], f[:n]
        self.forest = _forest(self.rows, self.cols, self.b, n)

    def apply(self, u: np.ndarray) -> np.ndarray:
        off = np.bincount(self.rows, self.b * u[self.cols], minlength=u.size)
        return self.deg * u - off

    def residual(self, nl: Nonlinearity, u: np.ndarray, au: np.ndarray | None = None):
        """Raw and data-scaled sup residual at u, and the range violations;
        ``au`` is ``apply(u)`` where the caller has it.

        A NaN residual propagates into both sups, so it fails the test.
        """
        lu = (self.apply(u) if au is None else au) / self.m
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
        sup = float(r.max(initial=0.0))
        scaled = float((r / (1.0 + np.abs(self.f[ok]))).max(initial=0.0))
        return sup, scaled, tuple(self.order[(~ok).nonzero()[0]].tolist())


def _pcg(sys_: _System, c: np.ndarray, rhs: np.ndarray, budget: int, eta: float):
    """Jacobi-preconditioned CG for (A + diag(c)) x = rhs from x = 0.

    Runs until the residual r = rhs - (A + diag(c)) x has fallen to
    eta times its start in the 2-norm, or the preconditioned residual
    to float noise, or the budget of iterations is spent; eta = 0 runs
    to float noise.  Returns x, the iterations used and r.  Each
    iteration is a sweep; on a forest ``_eliminate`` replaces the whole
    solve by one sweep, and this runs only where it gives up.
    """
    diag = sys_.deg + c
    inv_diag = np.where(diag > 0.0, 1.0 / diag, 0.0)
    x = np.zeros_like(rhs)
    r = rhs.copy()
    z = inv_diag * r
    p = z.copy()
    rz = float(r @ z)
    stop = (_NOISE * _NOISE) * rz
    rr = float(r @ r)
    forced = (eta * eta) * rr
    its = 0
    while its < budget and rz > stop and rr > forced:
        q = sys_.apply(p) + c * p
        pq = float(p @ q)
        if not pq > 0.0:
            break
        a = rz / pq
        x += a * p
        r -= a * q
        its += 1
        z = inv_diag * r
        rz, rz_old, rr = float(r @ z), rz, float(r @ r)
        p = z + (rz / rz_old) * p
    return x, its, r


def _eliminate(sys_: _System, c: np.ndarray, rhs: np.ndarray):
    """Exact solve of (A + diag(c)) x = rhs on a forest, or None.

    A symmetric matrix whose graph is a forest factors without fill-in
    when each vertex is eliminated before its parent (Parter, SIAM
    Review 3, 1961): a reverse sweep folds each vertex into its parent,
    D(p) -= b^2 / D(x) and y(p) += b y(x) / D(x), and a forward sweep
    from the roots gives x = (y + b x(parent)) / D.  Forests with wide
    breadth-first layers take one bincount per layer, thin ones a loop
    over the vertices.  None, for the caller to fall back on ``_pcg``,
    where a pivot D is not positive and finite or x is not finite.
    """
    parent, pb, layers = sys_.forest
    with np.errstate(all="ignore"):
        if layers is None:
            par, bs = parent.tolist(), pb.tolist()
            d, y = (sys_.deg + c).tolist(), rhs.tolist()
            try:
                for i in range(len(par) - 1, -1, -1):
                    p = par[i]
                    if p >= 0:
                        t = bs[i] / d[i]
                        d[p] -= bs[i] * t
                        y[p] += t * y[i]
                for i, p in enumerate(par):
                    y[i] = (y[i] + bs[i] * y[p] if p >= 0 else y[i]) / d[i]
            except ZeroDivisionError:
                return None
            d, x = np.array(d), np.array(y)
        else:
            d, y = sys_.deg + c, rhs.copy()
            for k in range(len(layers) - 2, 0, -1):  # layer k into layer k - 1
                s, e, ps = layers[k], layers[k + 1], layers[k - 1]
                t = pb[s:e] / d[s:e]
                at = parent[s:e] - ps
                d[ps:s] -= np.bincount(at, pb[s:e] * t, minlength=s - ps)
                y[ps:s] += np.bincount(at, t * y[s:e], minlength=s - ps)
            x = y / d
            for s, e in zip(layers[1:-1], layers[2:]):
                x[s:e] = (y[s:e] + pb[s:e] * x[parent[s:e]]) / d[s:e]
        if ((d > 0.0) & (d < math.inf)).all() and np.isfinite(x).all():
            return x
    return None


def _newton(sys_: _System, nl: Nonlinearity, u: np.ndarray, opts: SolveOptions):
    """Damped Newton on E from u; returns the iterate, sweeps, convergence
    and ``_System.residual`` there."""
    arr = nl.arrays
    m, w, f = sys_.m, sys_.w, sys_.f

    def point(v):  # A v, f - W v, E(v) up to a constant and the size of its rounding
        av, fw = sys_.apply(v), f - w * v
        kappa = arr.antideriv(fw) * m / w
        return av, fw, v @ av + kappa.sum(), sys_.deg @ (v * v) + np.abs(kappa).sum()

    au, fwu, e0, n0 = point(u)
    sweeps, last, step, tiny, stalls, halt = 0, math.inf, math.inf, False, 0, False
    eta, g_norm, r_norm = 0.0, None, None  # forcing term, gradient and CG residual norms
    while True:
        # the residual test runs where the step test has passed, and on the
        # exits: budget spent, steps at float noise, or no descent left
        stop = halt or sweeps >= opts.max_sweeps or stalls >= 2
        if tiny or stop:
            rep = sys_.residual(nl, u, au)
            _, scaled, violations = rep
            converged = not violations and scaled <= opts.residual_tol and (tiny or halt)
            if converged or stop:
                return u, sweeps, converged, rep
        c = m * w * arr.deriv(fwu)
        g = au - m * arr.phi(fwu)  # half the gradient of E
        del fwu
        g_norm, g_last = math.sqrt(g @ g), g_norm
        # inexact Newton: the first step is exact, later ones take the
        # forcing term of Eisenstat & Walker's choice 1 with its safeguard
        if g_last is not None:
            floor = eta**_GOLDEN
            # a norm that underflowed to 0 gives the cap, as x / 0 = inf or nan would
            eta = min(_ETA_MAX, abs(g_norm - r_norm) / g_last) if g_last else _ETA_MAX
            if floor > 0.1:
                eta = max(eta, floor)
        # an exact step on a forest, one sweep with no residual left
        d = None if sys_.forest is None else _eliminate(sys_, c, -g)
        if d is None:
            d, its, r = _pcg(sys_, c, -g, opts.max_sweeps - sweeps, eta)
            r_norm = math.sqrt(r @ r)
        else:
            its, r_norm = 1, 0.0
        sweeps += its
        # backtracking on E; where E cannot tell the points apart, a
        # smaller gradient decides instead
        slope = min(2.0 * float(g @ d), 0.0)
        g0 = np.abs(g).max(initial=0.0)
        del c, g
        t = 1.0
        for _ in range(64):
            v = u + t * d
            av, fwv, e1, n1 = point(v)
            if e1 <= e0 + 1e-4 * t * slope:
                break
            if (abs(e1 - e0) <= _NOISE * max(n0, n1)
                    and np.abs(av - m * arr.phi(fwv)).max(initial=0.0) < g0):
                break
            del v, av, fwv
            t *= 0.5
        else:
            halt = True  # no representable descent left
            continue
        last, step = step, float(np.abs(t * d).max(initial=0.0))
        if step == 0.0:
            halt = True
            continue
        u, au, fwu, e0, n0 = v, av, fwv, e1, n1
        del v, av, fwv, d  # one name per array, each freed after its last use
        # error left after this step, from the contraction rate of the last
        # two; the first step counts as exact, as it is for quadratic E
        rate = step / last
        noise = step <= _NOISE * np.abs(u).max()
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
    """The solve core: Newton or Gauss-Seidel on sys_ from u0, with the
    residual at the returned iterate."""
    opts = opts or SolveOptions()
    with np.errstate(all="ignore"):
        newton = nl.arrays is not None and np.isfinite(nl.arrays.deriv(np.zeros(1))).all()
        k_bound = float(np.abs(sys_.f).max()) / W0
        # clamp into the certified box, where the solution lies
        u = u0.clip(-k_bound, k_bound)
        if newton:
            u, sweeps, converged, (resid_inf, _, violations) = _newton(sys_, nl, u, opts)
        else:
            u, sweeps, converged = _gauss_seidel(sys_, nl, u, k_bound, opts)
            resid_inf, _, violations = sys_.residual(nl, u)
        max_dec = max(float((u0 - u).max()), 0.0)
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
    there or W falls below W0.  U is materialized, in one ``g.block``
    call, as a side effect.
    """
    order = list(dict.fromkeys(U))
    if not order:
        return SolveResult(u=VertexFunction.zero(), residual_inf=0.0, sweeps_used=0,
                           converged=True)
    xs = _ids(order)
    rows, cols, b, m, deg = _assemble(xs, g.block(xs))
    w, fv = _sample(g, W.fn, xs, m, deg), _sample(g, f, xs, m, deg)
    _check(xs, m, deg, w, fv, W.W0)
    sys_ = _System(xs, rows, cols, b, m, deg, w, fv, len(order))
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
    Phi(0) = 0 and the sum is exact.  The measures of that set are read
    in one ``g.block`` call.
    """
    q = energy(g, u, u)
    xs = list(set(U) | set(f.support))
    ms = g.block(_ids(xs))[3].tolist() if xs else []
    acc = 0.0
    for x, mx in zip(xs, ms):
        wx = W(x)
        acc += nl.antiderivative(f(x) - wx * u(x)) * mx / wx
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
    with a defined residual, and is NaN if any of them is NaN.  The
    rows of U are read in one ``g.block`` call, and L u is summed in
    row order as :func:`graphs.laplacian_apply` sums it.
    """
    order = list(dict.fromkeys(U))
    values: dict[int, float] = {}
    violations: list[tuple[int, float]] = []
    lus: list[float] = []
    if order:
        src, ys, ws, m, _ = g.block(_ids(order))
        ux = np.array([u(x) for x in order], dtype=float)
        uy = np.array([u(y) for y in ys.tolist()], dtype=float)
        # bincount adds each row's terms in order, from 0.0, as the scalar loop does
        lus = (np.bincount(src, ws * (ux[src] - uy), minlength=len(order)) / m).tolist()
    for x, lu in zip(order, lus):
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
