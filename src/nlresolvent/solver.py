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
component of U has an edge leaving U or a vertex where phi' > 0.  Where
no edge leaves U and f/W agrees across each edge in it to rounding,
f = c W with c constant on each component: u = f/W solves U exactly,
A u = 0, with no sweep, where E's Hessian is singular if phi'(0) = 0.  Each
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

Where phi'(0) is infinite (odd_power(p < 1)) E is not C^2, so the step
linearizes the inverse form r(u) = psi(A u / m) + W u - f, psi = phi^{-1},
whose Jacobian diag(D) A + diag(W), D = psi'(A u / m) / m >= 0, is a
nonsingular M-matrix at every u.  Divided by D, a row reads
(A + diag(W/D)) d = -r/D with 1/D = m phi'(psi(A u / m)), a system of the
same kind.  A row with D = 0 sees no neighbour and reads W d = -r, which
takes u to f / W: right on a dead core, far off where heavy edges hold u
down.  Where phi'(f - W u) is finite on such rows, the step with E's own
rows in their place is solved too, and the one with the smaller E at
t = 1 is kept.  Held rows' steps move to the right-hand side of the
others (``_held``).  The line search backtracks on E where the step
descends and on sup |r| where it does not, and the stall test compares
each vertex's step with its own |u|, since psi flattens where u is small.

A nonlinearity without array forms gets them mapped from its scalar
forms (``nonlinearity._array_forms``): the numeric inverse, Phi by
quadrature, and phi' by difference quotients where it has none.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Iterable
from typing import NamedTuple

import numpy as np

from .graphs import VertexFunction, WeightedGraph, _assemble, _closed, _ids, energy
from .nonlinearity import Nonlinearity, RangeError, _array_forms

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


def _checked_make(cls, iterable):
    """``_make`` of a record whose constructor checks its fields:
    through the constructor, so that ``_replace``, which calls it, runs
    the checks too."""
    return cls(*iterable)


class _PotentialFields(NamedTuple):
    fn: Callable[[int], float]
    W0: float


class Potential(_PotentialFields):
    """Strictly positive vertex potential with a certified lower bound.

    W0 must satisfy W(x) >= W0 > 0 at every vertex the run touches; it
    feeds the a priori bound ||u||_inf <= ||f||_inf / W0 that certifies
    the solver's root brackets.
    """

    __slots__ = ()
    _make = classmethod(_checked_make)

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if not (self.W0 > 0.0) or not math.isfinite(self.W0):
            raise ValueError(f"W0 must be a positive real, got {self.W0!r}")
        return self

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


class _SolveOptionsFields(NamedTuple):
    sweep_tol: float = 1e-10
    residual_tol: float = 1e-9
    max_sweeps: int = 100_000


class SolveOptions(_SolveOptionsFields):
    """Iteration controls.

    The residual test is scaled per vertex by 1 + |f(x)|: at data of
    order one that is the plain absolute test, while at very large f
    (potentials like deg^2 push f beyond 1e40) float64 cannot represent
    an absolute residual below the rounding of f itself.

    A sweep is one pass over the in-U arrays: one conjugate-gradient
    iteration, or where U spans a forest one elimination, that is one
    exact Newton step; an inverse-form step whose rows all read
    W d = -r counts one too, and one that solves two systems counts
    both.  ``max_sweeps`` caps their total.  classify solves its alpha
    grid on the union of one copy of each ball per alpha (see
    ``resolvent._extend``): there a sweep is a pass over that union, and
    ``max_sweeps`` caps each joint solve, not each alpha's share of it.
    ``sweep_tol`` bounds the error left after the last step, which
    Newton estimates from the ratio of successive steps; a first step
    leaves none only where phi' at f - W u is unchanged by it, as where
    E is quadratic.
    """

    __slots__ = ()
    _make = classmethod(_checked_make)

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        _require_positive("sweep_tol", self.sweep_tol)
        _require_positive("residual_tol", self.residual_tol)
        if self.max_sweeps < 1:
            raise ValueError("max_sweeps must be >= 1")
        return self


class SolveResult(NamedTuple):
    """Outcome of one Dirichlet solve.

    ``sweeps_used`` counts passes over the arrays as ``SolveOptions``
    defines them (conjugate-gradient iterations, and on a forest
    eliminations, one per Newton step), for every phi; it is 0 where a
    closed set was solved exactly (see the module text).
    ``max_decrease`` is the largest decrease of any vertex value from
    the given start (zero, or the warm start) to the returned solution,
    also where the solve core began from a second start of smaller
    energy (see ``resolvent``); for f >= 0 started at zero or
    warm-started from a smaller problem the solution dominates the given
    start and this stays at float noise.
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


class ResidualReport(NamedTuple):
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


def _dot(a: np.ndarray, b: np.ndarray) -> float:
    """The inner product of a and b by numpy's pairwise sum, which runs
    on one thread: ``a @ b`` hands large vectors to BLAS, whose result
    depends in its last bits on the number of threads it runs on."""
    return float((a * b).sum())


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
    """The in-set graph, given with rows ascending, as a forest whose
    parents come first, or None.

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
    if (kids[1:] == kids[:-1]).any():  # rows ascend, so a repeat is adjacent
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
    ``forest`` is its ``_forest`` structure, or None.  Where the block is
    the whole of ``order`` (a set ``solve_dirichlet`` assembles, or an
    exhaustion's largest ball), every edge already lies in it, and the
    edge arrays are kept as they are, with no copy.  ``closed``, that no
    edge leaves ``order``, is kept for the whole block only.
    """

    def __init__(self, order: np.ndarray, rows, cols, b, m, deg, w, f, n: int, closed=False):
        self.order = order
        self.closed = closed and n == len(order)
        if n == len(order):
            self.rows, self.cols, self.b = rows, cols, b
        else:
            e = int(rows.searchsorted(n))
            keep = cols[:e] < n
            self.rows, self.cols, self.b = rows[:e][keep], cols[:e][keep], b[:e][keep]
        self.m, self.deg, self.w, self.f = m[:n], deg[:n], w[:n], f[:n]
        self.forest = _forest(self.rows, self.cols, self.b, n)

    def apply(self, u: np.ndarray) -> np.ndarray:
        terms = u[self.cols]
        terms *= self.b
        au = self.deg * u
        au -= np.bincount(self.rows, terms, minlength=u.size)
        return au

    def residual(self, nl: Nonlinearity, u: np.ndarray, au: np.ndarray | None = None):
        """Raw and data-scaled sup residual at u, and the range violations;
        ``au`` is ``apply(u)`` where the caller has it.

        A NaN residual propagates into both sups, so it fails the test.
        """
        lu = (self.apply(u) if au is None else au) / self.m
        ok = (nl.lo < lu) & (lu < nl.hi)
        inv = _array_forms(nl).inv(lu if ok.all() else np.where(ok, lu, 0.0))
        r, f = np.abs(inv + self.w * u - self.f), self.f
        if not ok.all():  # else every vertex is kept, with no copy
            r, f = r[ok], f[ok]
        sup = float(r.max(initial=0.0))
        scaled = float((r / (1.0 + np.abs(f))).max(initial=0.0))
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
    rz = _dot(r, z)
    stop = (_NOISE * _NOISE) * rz
    rr = _dot(r, r)
    forced = (eta * eta) * rr
    its = 0
    while its < budget and rz > stop and rr > forced:
        q = sys_.apply(p) + c * p
        pq = _dot(p, q)
        if not pq > 0.0:
            break
        a = rz / pq
        x += a * p
        r -= a * q
        its += 1
        z = inv_diag * r
        rz, rz_old, rr = _dot(r, z), rz, _dot(r, r)
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


def _linear(sys_: _System, c: np.ndarray, rhs: np.ndarray, budget: int, eta: float):
    """(A + diag(c)) d = rhs by ``_eliminate`` (one sweep, no residual left),
    else by ``_pcg``; returns d, the sweeps and the linear residual's 2-norm."""
    d = None if sys_.forest is None else _eliminate(sys_, c, rhs)
    if d is not None:
        return d, 1, 0.0
    d, its, r = _pcg(sys_, c, rhs, budget, eta)
    return d, its, math.sqrt(_dot(r, r))


def _held(sys_: _System, c: np.ndarray, rhs: np.ndarray, held: np.ndarray):
    """The rows of (A + diag(c)) d = rhs whose c and rhs are finite, every
    other row's step held at ``held``: returns d (``held`` there, 0
    elsewhere), the free rows, and their system, c and right-hand side,
    to which the held steps have moved."""
    free = np.isfinite(c) & np.isfinite(rhs)
    d = np.where(free, 0.0, held)
    if free.all():
        return d, free, sys_, c, rhs
    at = np.cumsum(free) - 1  # the free rows' places among themselves
    e = free[sys_.rows] & free[sys_.cols]
    sub = _System(sys_.order[:free.size][free], at[sys_.rows[e]], at[sys_.cols[e]], sys_.b[e],
                  sys_.m[free], sys_.deg[free], sys_.w[free], sys_.f[free], int(at[-1]) + 1)
    return d, free, sub, c[free], rhs[free] - sys_.apply(d)[free]


def _newton(sys_: _System, nl: Nonlinearity, u: np.ndarray, opts: SolveOptions,
            inverse: bool, alt: np.ndarray | None = None):
    """Damped Newton from u, or from ``alt`` where its E is smaller, on
    the gradient of E or, with ``inverse``, on the inverse form; returns
    the iterate, sweeps, convergence and ``_System.residual`` there."""
    arr = _array_forms(nl)
    m, w, f = sys_.m, sys_.w, sys_.f

    def point(v):  # A v, f - W v and E(v) up to a constant
        av, fw = sys_.apply(v), f - w * v
        return av, fw, _dot(v, av) + (arr.antideriv(fw) * m / w).sum()

    def rounding(v, fw):  # the size of the rounding of E(v), fw = f - W v
        return _dot(sys_.deg, v * v) + np.abs(arr.antideriv(fw) * m / w).sum()

    def misfit(av, fw):  # sup of the equations a step linearizes, at A v and f - W v
        if inverse:
            return np.abs(arr.inv(av / m) - fw).max(initial=0.0)
        return np.abs(av - m * arr.phi(fw)).max(initial=0.0)

    au, fwu, e0 = point(u)
    if alt is not None:  # a tie, or an E that is not finite, keeps u
        av, fwv, e1 = point(alt)
        if -math.inf < e1 < e0 < math.inf:
            u, au, fwu, e0 = alt, av, fwv, e1
        del av, fwv
    sweeps, last, step, tiny, stalls, halt = 0, math.inf, math.inf, False, 0, False
    eta, g_norm, r_norm = 0.0, None, None  # forcing term, right-hand side and linear residual norms
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
        dphi = arr.deriv(fwu)  # phi' at f - W u
        first = dphi if step == math.inf else None
        if inverse:  # rows divided by D = 1 / k, k = m phi'(phi^{-1}(A u / m))
            psi = arr.inv(au / m)
            k = m * arr.deriv(psi)
            r = psi - fwu
            del psi
            c, rhs = w * k, -(k * r)
            del k
        else:
            c = m * w * dphi
        g = au - m * arr.phi(fwu)  # half the gradient of E
        if inverse:
            # a row with D = 0 reads W d = -r; where phi'(f - W u) is finite
            # there, the step with E's own row in its place is solved too
            systems = [_held(sys_, c, rhs, -r / w)]
            c_g = m * w * dphi
            swap = ~(np.isfinite(c) & np.isfinite(rhs)) & np.isfinite(c_g) & np.isfinite(g)
            if swap.any():
                systems.append(_held(sys_, np.where(swap, c_g, c), np.where(swap, -g, rhs), -r / w))
            del c_g, swap
        del fwu, dphi
        rhs = systems[0][4] if inverse else -g
        g_norm, g_last = math.sqrt(_dot(rhs, rhs)), g_norm
        # inexact Newton: the first step is exact, later ones take the
        # forcing term of Eisenstat & Walker's choice 1 with its safeguard
        if g_last is not None:
            floor = eta**_GOLDEN
            # a norm that underflowed to 0 gives the cap, as x / 0 = inf or nan would
            eta = min(_ETA_MAX, abs(g_norm - r_norm) / g_last) if g_last else _ETA_MAX
            if floor > 0.1:
                eta = max(eta, floor)
        if inverse:
            d = None
            for held, free, sub, c_s, rhs_s in systems:  # an empty system is one sweep
                if d is not None and sweeps >= opts.max_sweeps:
                    break
                held[free], its, r_x = _linear(sub, c_s, rhs_s, opts.max_sweeps - sweeps, eta)
                sweeps += its
                e_x = point(u + held)[2] if len(systems) > 1 else 0.0
                if d is None or e_x < e_d:
                    d, r_norm, e_d = held, r_x, e_x
            del systems, held, free, sub, c_s, rhs_s
        else:
            d, its, r_norm = _linear(sys_, c, rhs, opts.max_sweeps - sweeps, eta)
            sweeps += its
        del rhs
        # backtracking on E where the step descends, else on the misfit;
        # where E cannot tell the points apart, a smaller misfit decides
        slope = min(2.0 * _dot(g, d), 0.0)
        on_e = not inverse or slope < 0.0
        g0 = np.abs(r if inverse else g).max(initial=0.0)
        del c, g
        t, n0 = 1.0, None
        for _ in range(64):
            v = u + t * d
            av, fwv, e1 = point(v)
            if not on_e:
                if misfit(av, fwv) <= (1.0 - 1e-4 * t) * g0:
                    break
            elif e1 <= e0 + 1e-4 * t * slope:
                break
            else:
                if n0 is None:
                    n0 = rounding(u, f - w * u)
                if abs(e1 - e0) <= _NOISE * max(n0, rounding(v, fwv)) and misfit(av, fwv) < g0:
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
        if inverse:  # at float noise on each vertex's own scale
            noise = bool((np.abs(t * d) <= _NOISE * np.abs(v)).all())
        u, au, fwu, e0 = v, av, fwv, e1
        del v, av, fwv, d  # one name per array, each freed after its last use
        if not inverse:
            noise = step <= _NOISE * np.abs(u).max()
        stalls = stalls + 1 if noise else 0
        if first is None:  # error left after this step, from the contraction rate of the last two
            rate = step / last
            tiny = noise or step * rate <= opts.sweep_tol * (1.0 - rate)
        else:  # the first step is exact where it left phi' at f - W u unchanged: E is quadratic
            tiny = noise or bool((first == arr.deriv(fwu)).all())


class _Solved(NamedTuple):
    """A solve on the arrays: SolveResult's fields, ``u`` still an array."""

    u: np.ndarray
    residual_inf: float
    sweeps_used: int
    converged: bool
    max_decrease: float
    range_violations: tuple[int, ...]


def _solve(sys_: _System, nl: Nonlinearity, W0: float, u0: np.ndarray,
           opts: SolveOptions | None, alt: np.ndarray | None = None) -> _Solved:
    """The solve core: Newton on sys_ from u0, or from ``alt`` where its
    energy is smaller, on the gradient of E where phi'(0) is finite and
    on the inverse form where it is not, with the residual at the
    returned iterate.  ``max_decrease`` is measured from u0 either way.
    A closed set with data c W takes u = c, with no sweep."""
    opts = opts or SolveOptions()
    with np.errstate(all="ignore"):
        u = sys_.f / sys_.w if sys_.closed else None
        if u is not None and (abs(u[sys_.rows] - u[sys_.cols]) <= _NOISE * abs(u[sys_.rows])).all():
            sweeps, rep = 0, sys_.residual(nl, u)
            converged = not rep[2]
        else:
            inverse = not np.isfinite(_array_forms(nl).deriv(np.zeros(1))).all()
            k_bound = float(np.abs(sys_.f).max()) / W0
            # clamp into the certified box, where the solution lies
            u = u0.clip(-k_bound, k_bound)
            if alt is not None:
                alt = alt.clip(-k_bound, k_bound)
            u, sweeps, converged, rep = _newton(sys_, nl, u, opts, inverse, alt)
        max_dec = max(float((u0 - u).max()), 0.0)
    return _Solved(u, rep[0], sweeps, converged, max_dec, rep[2])


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
    call, as a side effect; that block also tells whether U is closed,
    no edge leaving it, so that data c W take u = c with no sweep.
    """
    order = list(dict.fromkeys(U))
    if not order:
        return SolveResult(u=VertexFunction.zero(), residual_inf=0.0, sweeps_used=0,
                           converged=True)
    xs = _ids(order)
    arrays = rows, cols, b, m, deg = _assemble(xs, blk := g.block(xs))
    w, fv = _sample(g, W.fn, xs, m, deg), _sample(g, f, xs, m, deg)
    _check(xs, m, deg, w, fv, W.W0)
    sys_ = _System(xs, rows, cols, b, m, deg, w, fv, len(order), _closed(blk[2], arrays))
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
