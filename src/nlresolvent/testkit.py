"""Independent solution oracles.

The two oracles solve the same problems as the Dirichlet solver by
entirely different means: a dense direct linear solve for phi =
identity, and exhaustive grid search plus coordinate refinement on the
raw energy for up to three unknowns.  ``micro_suite`` lists the tiny
instances they are checked on.
"""

from __future__ import annotations

import math
from collections.abc import Callable

import numpy as np

from .families import complete_graph, finite_path, star
from .graphs import ExplicitGraph, GraphError, VertexFunction, WeightedGraph, _ids
from .nonlinearity import Nonlinearity
from .solver import Potential, energy_functional

__all__ = [
    "linear_oracle",
    "brute_force_minimizer",
    "micro_suite",
    "shooting_defect",
]

_DENSE_CAP = 2000
_GRID_POINTS = 17
_COORD_TOL = 1e-7


def linear_oracle(
    g: WeightedGraph,
    W: Potential,
    f: VertexFunction,
    U,
    cap: int = _DENSE_CAP,
) -> VertexFunction:
    """Dense direct solve of (L + W) u = f on U for the linear case.

    Assembles the |U| x |U| system with diagonal deg(x)/m(x) + W(x) and
    off-diagonal -b(x,y)/m(x), then solves it by partially pivoted LU.
    The matrix is strictly diagonally dominant (W > 0), so singularity
    would indicate a bug, not bad data.  The rows of U are read in one
    ``g.block`` call.
    """
    u_list = list(dict.fromkeys(U))
    n = len(u_list)
    if n == 0:
        return VertexFunction.zero()
    if n > cap:
        raise GraphError(f"dense oracle cap exceeded: |U| = {n} > {cap}")
    index = {x: i for i, x in enumerate(u_list)}
    a = np.zeros((n, n))
    rhs = np.zeros(n)
    src, ys, ws, m, deg = g.block(_ids(u_list))
    m = m.tolist()
    for i, (x, mx, dx) in enumerate(zip(u_list, m, deg.tolist())):
        a[i, i] = dx / mx + W(x)
        rhs[i] = f(x)
    for i, y, w in zip(src.tolist(), ys.tolist(), ws.tolist()):
        j = index.get(y)
        if j is not None and w > 0.0:
            a[i, j] -= w / m[i]
    sol = np.linalg.solve(a, rhs)
    return VertexFunction({x: float(sol[index[x]]) for x in u_list})


def _golden_section(fun, lo, hi, tol):
    """Minimize a strictly convex 1-d slice by golden-section search."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = fun(c), fun(d)
    while b - a > tol:
        if fc <= fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = fun(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = fun(d)
    return 0.5 * (a + b)


def brute_force_minimizer(
    g: WeightedGraph,
    W: Potential,
    nl: Nonlinearity,
    f: VertexFunction,
    U,
    box: tuple[float, float] | None = None,
) -> VertexFunction:
    """Energy minimizer over up to three unknowns, by search alone.

    Exhaustive evaluation of the energy on a grid of _GRID_POINTS per
    coordinate locates the basin; cyclic per-coordinate golden-section
    search then refines each coordinate to _COORD_TOL.  Only energy
    values are queried, which keeps this oracle independent of the
    stationarity conditions the solver iterates on.  The box must
    contain [-||f||/W0, ||f||/W0]; if the refined minimizer presses
    against the box the box was too small and a GraphError says so.
    """
    u_list = list(dict.fromkeys(U))
    k = len(u_list)
    if k > 3:
        raise ValueError(f"brute force handles at most 3 unknowns, got {k}")
    if k == 0:
        return VertexFunction.zero()
    f_sup = max((abs(f(x)) for x in u_list), default=0.0)
    need = f_sup / W.W0
    if box is None:
        box = (-need - 0.5, need + 0.5)
    lo, hi = box
    if lo > -need or hi < need:
        raise GraphError(
            f"box {box} does not contain the a priori bound [-{need:g}, {need:g}]"
        )

    def ener(vals):
        return energy_functional(
            g, W, nl, f, VertexFunction(dict(zip(u_list, vals))), u_list
        )

    grid = [lo + (hi - lo) * i / (_GRID_POINTS - 1) for i in range(_GRID_POINTS)]
    best, best_val = None, math.inf
    if k == 1:
        candidates = ([a] for a in grid)
    elif k == 2:
        candidates = ([a, b] for a in grid for b in grid)
    else:
        candidates = ([a, b, c] for a in grid for b in grid for c in grid)
    for vals in candidates:
        e = ener(vals)
        if e < best_val:
            best, best_val = list(vals), e

    # cyclic coordinate refinement on the convex energy
    for _ in range(200):
        moved = 0.0
        for i in range(k):
            cur = best[i]

            def slice_fun(t, i=i):
                trial = best.copy()
                trial[i] = t
                return ener(trial)

            new = _golden_section(slice_fun, lo, hi, _COORD_TOL)
            moved = max(moved, abs(new - cur))
            best[i] = new
        if moved <= _COORD_TOL:
            break

    margin = 2.0 * _COORD_TOL + (hi - lo) / (_GRID_POINTS - 1) * 1e-3
    for v in best:
        if v - lo < margin or hi - v < margin:
            raise GraphError(
                f"minimizer {v:g} sits on the box boundary {box}; enlarge the box"
            )
    return VertexFunction(dict(zip(u_list, best)))


def micro_suite() -> list[dict]:
    """Tiny named instances (|U| <= 3) for oracle cross-checks.

    Each entry carries a graph, a potential, data f, and the unknown
    set U; mixed signs, non-unit measures and partial supports are all
    represented.
    """
    cases: list[dict] = []

    iso = ExplicitGraph({7: 1.0}, {})
    cases.append(
        dict(name="isolated", g=iso, W=Potential.constant(2.0),
             f=VertexFunction({7: 3.0}), U=[7])
    )

    pair = finite_path(2)
    cases.append(
        dict(name="pair-delta", g=pair, W=Potential.constant(1.0),
             f=VertexFunction.delta(0), U=[0, 1])
    )
    wvar = Potential.from_callable(lambda x: 1.0 + 2.0 * x, W0=1.0)
    cases.append(
        dict(name="pair-mixed-sign", g=pair, W=wvar,
             f=VertexFunction({0: 1.0, 1: -0.5}), U=[0, 1])
    )

    # note the uneven f: data proportional to W makes the exact solution
    # a constant with zero argument to phi, where every descent method
    # degenerates; such instances are kept out of the suite
    path3 = finite_path(3)
    cases.append(
        dict(name="path3-uneven", g=path3, W=Potential.constant(1.0),
             f=VertexFunction({0: 1.0, 1: 0.6, 2: 0.9}), U=[0, 1, 2])
    )
    weighted = ExplicitGraph.from_edges(
        [(0, 1, 0.5), (1, 2, 2.0)], measures={0: 1.0, 1: 0.5, 2: 2.0}, root=0
    )
    wfun = Potential.from_callable(lambda x: (0.7, 1.0, 2.0)[x], W0=0.7)
    cases.append(
        dict(name="path3-ragged", g=weighted, W=wfun,
             f=VertexFunction({0: 1.0, 2: -1.0}), U=[0, 1, 2])
    )

    tri = complete_graph(3)
    cases.append(
        dict(name="triangle-delta", g=tri, W=Potential.constant(1.5),
             f=VertexFunction.delta(0, 0.8), U=[0, 1, 2])
    )

    # unknowns on a subset only: f keeps support outside U
    cases.append(
        dict(name="path3-partial-U", g=path3, W=Potential.constant(1.0),
             f=VertexFunction({0: 0.5, 1: 1.0, 2: 0.25}), U=[0, 1])
    )

    star3 = star(3)
    cases.append(
        dict(name="star3-center", g=star3, W=Potential.constant(2.0),
             f=VertexFunction.delta(0, -1.0), U=[0, 1, 2])
    )
    return cases


def shooting_defect(
    m: Callable[[int], int],
    b: Callable[[int], int],
    phi: Callable[[Decimal], Decimal],
    radius: int,
    alpha: float = 1,
    W: float = 1,
) -> Decimal:
    """Truncated defect alpha - R(alpha W) at 0 on a chain, to 50 digits,
    for a constant W.

    The chain has vertices 0, 1, 2, ... with measures m(n) and weights
    b(n, n+1) = b(n); the radial quotient of a symmetric graph is such a
    chain (the lattice's has m = 1, 2, 2, ... and b = 2).  On the ball
    0..radius the defect w = alpha - u solves L w = -phi(W w) with w =
    alpha outside, so the flux J(n) = b(n) (w(n+1) - w(n)) obeys J(n) =
    J(n-1) + m(n) phi(W w(n)), J(-1) = 0.  Shot from w(0) = c, w(radius +
    1) increases with c; the defect is the c in [0, alpha] with w(radius
    + 1) = alpha, found by Illinois regula falsi in ``decimal`` at 50
    digits.  A shot stops at the first w(n) > alpha, so phi is called on
    [0, W alpha] only, with and returning Decimals.
    """
    # imported here: every CLI run imports this module, and none needs decimal
    from decimal import Context, Decimal, localcontext

    with localcontext(Context(prec=50)):
        alpha, W = Decimal(alpha), Decimal(W)

        def miss(c: Decimal) -> Decimal:
            w, flux = c, Decimal(0)
            for n in range(radius + 1):
                flux += m(n) * phi(W * w)
                w += flux / b(n)
                if w > alpha:  # then w(radius + 1) > alpha too
                    break
            return w - alpha

        lo, hi = Decimal(0), alpha
        f_lo, f_hi = -alpha, miss(hi)
        side = 0
        while hi - lo > Decimal("1e-45") * alpha:
            c = (lo * f_hi - hi * f_lo) / (f_hi - f_lo)
            f_c = miss(c)
            if f_c == 0:
                return c
            if f_c < 0:
                lo, f_lo = c, f_c
                if side < 0:
                    f_hi /= 2  # Illinois: the end that keeps its place weighs half
                side = -1
            else:
                hi, f_hi = c, f_c
                if side > 0:
                    f_lo /= 2
                side = 1
        return (lo + hi) / 2
