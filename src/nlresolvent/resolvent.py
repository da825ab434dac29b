"""Extended resolvent over exhaustions of (possibly infinite) graphs.

On a finite vertex set the Dirichlet solve is exact.  On an infinite
graph the resolvent is approached from below: for data f >= 0 the
finite-set solutions increase monotonically with the set, so solving
over a schedule of nested balls and watching a few probe vertices gives
a certified lower approximation whose step increments measure the
remaining truncation error.  The one-sidedness matters when the numbers
are interpreted downstream: a tiny increment certifies that the lower
bound has stabilized, not that it is close to the limit.

The balls are breadth-first prefixes of the largest one, so the graph,
W and f are turned into arrays once, on the largest ball, and each step
solves a leading block of them, warm-started from the previous solution
extended by zero.  For f >= 0 that extension lies below the new
solution, so the solver's ``max_decrease``, always measured from it,
certifies the monotonicity vertex by vertex.  The conservation defect
(``completeness.classify``) also offers each step after the first the
previous solution's boundary profile moved out to the new boundary
(``_shifted_profile``), and the solve starts from whichever of the two
has the smaller energy: near the boundary the solution follows one
profile in the distance to it, which the extension by zero solves again
on every ball.  ``extended_resolvent`` keeps the one start.  A closed
exhaustion's largest ball is the root's component, which the solve core
solves as u = c with no sweep where f = c W, in classify and resolve alike.

The defect's alpha grid is solved in one pass over the balls: each ball
once, on the disjoint union of one copy of it per alpha, listed layer by
layer, so that one Newton solve with one set of numpy calls serves every
alpha; large balls take the alphas in groups (``_UNION``).  The union's
layout is one array, ``pos``, the places of each copy's vertices, from
one stable sort (``_copies``); every reader of the union goes through it.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable
from typing import NamedTuple

import numpy as np

from .graphs import VertexFunction, WeightedGraph, _ball, _ids, _positions
from .nonlinearity import Nonlinearity
from .solver import Potential, SolveError, SolveOptions, _check, _sample, _solve, _System

__all__ = [
    "CSV_HEADER",
    "Exhaustion",
    "StepRecord",
    "ResolventEstimate",
    "doubling_schedule",
    "make_exhaustion",
    "extended_resolvent",
]

CSV_HEADER = ("n", "radius", "set_size", "probe_id", "value", "increment", "sweeps", "residual")


def doubling_schedule(start: int, steps: int) -> list[int]:
    """Radii start, 2*start, 4*start, ... with ``steps`` entries."""
    if start < 1:
        raise ValueError(f"start radius must be >= 1, got {start}")
    if steps < 1:
        raise ValueError(f"steps must be >= 1, got {steps}")
    return [start * 2**k for k in range(steps)]


class Exhaustion(NamedTuple):
    """Strictly increasing ball radii around a root, with realized sets.

    The balls are materialized eagerly in breadth-first order, so each
    is a prefix of the next: ``order`` is the largest, and ``ends[r]``
    is the size of the ball of radius r, for every r up to the largest
    radius or until the ball saturates, which on a finite graph it does
    once it covers the root's component; ``order[:size(r)]`` is the
    ball of radius r, and ``sizes`` are the sizes at the scheduled radii.
    ``order`` is an int64 array, and ``rows`` to ``deg`` hold the graph
    on it as ``graphs._assemble`` builds it, once per exhaustion: these
    arrays are the only per-vertex store of a run.  ``closed`` says
    whether no edge leaves the largest ball, read from the rows of its
    outermost layer: then it covers the root's component.
    """

    root: int
    radii: tuple[int, ...]
    ends: tuple[int, ...]
    order: np.ndarray
    rows: np.ndarray
    cols: np.ndarray
    b: np.ndarray
    m: np.ndarray
    deg: np.ndarray
    closed: bool

    # compared by identity: a tuple's comparisons would reach the arrays,
    # whose truth value is ambiguous
    __eq__, __ne__, __hash__ = object.__eq__, object.__ne__, object.__hash__
    __lt__, __le__, __gt__, __ge__ = object.__lt__, object.__le__, object.__gt__, object.__ge__

    def __len__(self) -> int:
        return len(self.radii)

    def size(self, radius: int) -> int:
        """The size of the ball of ``radius``, at most the largest radius."""
        return self.ends[min(radius, len(self.ends) - 1)]

    @property
    def sizes(self) -> tuple[int, ...]:
        return tuple(self.size(r) for r in self.radii)


def make_exhaustion(
    g: WeightedGraph,
    root: int | None = None,
    schedule: Iterable[int] = (),
    max_vertices: int | None = None,
) -> Exhaustion:
    """Realize a radius schedule as nested balls around ``root``.

    The ball of the largest radius is materialized by the one ball
    reader of ``graphs``, which ``graphs.ball`` shares: a breadth-first
    search, one ``g.block`` call per layer, or where g has a ball rule
    (see ``ProceduralGraph``) one ``g.block`` call on the rule's ball,
    checked against the rows it reads.  Unlike ``ball``, it also reads
    the outermost layer's rows, for the assembly, and the layer ends it
    finds are kept as the ball sizes at every radius.  The schedule
    must be non-empty and strictly increasing.  A materialization cap
    hit, or a graph error met while expanding a layer, is reported with
    the first radius whose ball needs that layer; where the rule gives
    the ball sizes, a cap hit is reported before any row is read.
    """
    r0 = g.root if root is None else int(root)
    radii = tuple(int(r) for r in schedule)
    if not radii:
        raise ValueError("exhaustion schedule must be non-empty")
    if radii[0] < 0:
        raise ValueError(f"radii must be >= 0, got {radii[0]}")
    for a, b in zip(radii, radii[1:]):
        if b <= a:
            raise ValueError(f"schedule must be strictly increasing, got {a} then {b}")
    order, ends, arrays, closed = _ball(g, r0, radii, max_vertices, True, True)
    return Exhaustion(r0, radii, tuple(ends.tolist()), order, *arrays, closed)


class StepRecord(NamedTuple):
    """Per-step diagnostics; sweeps is 0 when a saturated set reused the
    previous solution, or a closed one was solved exactly.  Where several
    problems were solved together (classify's alpha grid), the sweeps
    and the residual are those of their joint solve."""

    n: int
    radius: int
    set_size: int
    sweeps: int
    residual_inf: float


class ResolventEstimate(NamedTuple):
    """Probe-wise value sequences along the exhaustion.

    ``increments[p][0]`` is the first value itself (the increment from
    the empty-set baseline 0); later entries are successive differences.
    ``max_decrease`` is the monotonicity certificate: the largest
    decrease seen either inside a solve or across steps, which for
    f >= 0 should never exceed float noise.  ``u`` is the last
    solution, on the exhaustion's ``order[:u.size]``.  The estimate
    holds data only: each reader compares ``stabilization_error`` with
    its own tolerance.
    """

    probes: tuple[int, ...]
    values: dict[int, tuple[float, ...]]
    increments: dict[int, tuple[float, ...]]
    final: dict[int, float]
    max_decrease: float
    steps: tuple[StepRecord, ...]
    u: np.ndarray

    # compared by identity: a tuple's comparisons would reach the arrays,
    # whose truth value is ambiguous
    __eq__, __ne__, __hash__ = object.__eq__, object.__ne__, object.__hash__
    __lt__, __le__, __gt__, __ge__ = object.__lt__, object.__le__, object.__gt__, object.__ge__

    def stabilization_error(self, probe: int) -> float:
        """Largest |increment| at ``probe`` over the last two schedule steps."""
        return max(abs(v) for v in self.increments[probe][-2:])

    def csv_rows(self) -> list[tuple]:
        """Rows matching CSV_HEADER, step-major then probe order."""
        return _trace_rows(self.steps, self.probes, self.values, self.increments)


def _trace_rows(
    steps: tuple[StepRecord, ...],
    probes: tuple[int, ...],
    values: dict[int, tuple[float, ...]],
    increments: dict[int, tuple[float, ...]],
    prefix: tuple = (),
) -> list[tuple]:
    """The trace layout: one row per step and probe, step-major, each
    row ``prefix`` followed by the CSV_HEADER columns."""
    return [
        (*prefix, st.n, st.radius, st.set_size, p,
         values[p][i], increments[p][i], st.sweeps, st.residual_inf)
        for i, st in enumerate(steps)
        for p in probes
    ]


def extended_resolvent(
    g: WeightedGraph,
    W: Potential,
    nl: Nonlinearity,
    f: VertexFunction | Callable[[int], float],
    ex: Exhaustion,
    probes: Iterable[int] | None = None,
    opts: SolveOptions | None = None,
) -> ResolventEstimate:
    """Approximate the resolvent of f >= 0 from below along an exhaustion.

    ``f`` is either a finitely supported function or a callable (for
    rule-defined data like multiples of the potential; it must be
    bounded for the limit to be finite).  W and f are sampled once on
    the largest set; a vertex there where either is not finite, W falls
    below W0 or f is negative raises ValueError naming it.  A solve
    that fails to converge raises SolveError carrying, as ``partial``,
    the estimate over the steps completed before it.  A schedule that
    merely has not stabilized yet is not an error: the estimate's
    ``stabilization_error`` measures how far it is from it.
    """
    at = _probe_index(ex, probes)
    w, fv = (_sample(g, fn, ex.order, ex.m, ex.deg) for fn in (W.fn, f))
    try:
        return _extend(ex, nl, W.W0, w, fv[None], at, opts)[0]
    except SolveError as exc:
        if exc.partial is not None:
            exc.partial = exc.partial[0]
        raise


def _probe_index(ex: Exhaustion, probes: Iterable[int] | None) -> dict[int, int]:
    """The distinct probes, the root by default, each mapped to its index
    in ``ex.order``.  ValueError for none, and for a probe outside the
    largest ball, whose values would read 0 at every step."""
    probe_list = list(dict.fromkeys(probes)) if probes is not None else [ex.root]
    if not probe_list:
        raise ValueError("need at least one probe vertex")
    at = dict(zip(probe_list, _positions(ex.order, _ids(probe_list)).tolist()))
    for p, i in at.items():
        if i < 0:
            raise ValueError(f"probe {p} is outside the largest ball, "
                             f"of radius {ex.radii[-1]} around {ex.root}")
    return at


def _extend(
    ex: Exhaustion,
    nl: Nonlinearity,
    W0: float,
    w: np.ndarray,
    fv: np.ndarray,
    at: dict[int, int],
    opts: SolveOptions | None,
    shifted: bool = False,
) -> tuple[ResolventEstimate, ...]:
    """extended_resolvent for each row of the (k, n) data ``fv``, with W
    and fv already sampled on ``ex.order`` and the probes mapped to their
    indices there (``_probe_index``): one estimate per row.

    The rows are solved together, ball by ball: each ball once, on the
    disjoint union of copies of it, one per row (``_copies``), and where
    that union would hold more than ``_UNION`` vertices, on the unions of
    groups of as many consecutive rows as fit, one group after another.
    So a step's sweeps and residual are those of its group's joint solve
    for every row of the group, the residual an upper bound on each
    row's, and so is the solver's part of ``max_decrease``; the budget
    ``max_sweeps`` caps each joint solve, and a SolveError's ``partial``
    holds every row's estimate over the balls before the failing one.
    ``shifted`` offers the ``_shifted_profile`` start (see ``_solves``)."""
    for col in fv:
        _check(ex.order, ex.m, ex.deg, w, col, W0)
        neg = np.flatnonzero(col < 0.0)
        if neg.size:
            x = int(ex.order[neg[0]])
            raise ValueError(f"extended resolvent needs f >= 0, got f({x}) = {col[neg[0]]}")
    k = len(fv)
    per = max(1, min(k, _UNION // ex.order.size))  # rows per group
    groups = []
    for s in range(0, k, per):
        pos, arrays = _copies(ex, w, fv[s:s + per])
        groups.append((pos, _solves(ex, nl, W0, pos, arrays, shifted, opts)))

    values: list[dict[int, list[float]]] = [{p: [] for p in at} for _ in range(k)]
    steps: list[list[StepRecord]] = [[] for _ in groups]
    solved = [(np.zeros(0), 0.0)] * len(groups)  # each group's last solution and max_decrease

    def estimates() -> tuple[ResolventEstimate, ...]:
        out = []
        for c, vals in enumerate(values):
            g, j = divmod(c, per)
            (u, dec), pos = solved[g], groups[g][0]
            out.append(_estimate(vals, steps[g], dec, u[pos[j, :u.size // len(pos)]]))
        return tuple(out)

    for n in range(len(ex)):
        try:
            balls = [next(solves) for _, solves in groups]
        except SolveError as exc:
            exc.partial = estimates() if n else None
            raise
        for g, ((pos, _), (u, step, dec)) in enumerate(zip(groups, balls)):
            solved[g] = u, dec
            steps[g].append(step)
            for p, i in at.items():
                for j, spot in enumerate(pos[:, i].tolist()):
                    values[g * per + j][p].append(float(u[spot]) if spot < u.size else 0.0)
    return estimates()


# The most vertices in a union of copies of a ball (``_copies``).  A joint
# solve saves numpy's per-call cost on every Newton step but takes as many
# steps as the slowest copy, and its arrays outgrow the caches: classify,
# phi = t^3, 5 alphas, all in one union, in-process against one solve per
# alpha: 0.78x on tree:2 to radius 11 (4,095 vertices), 0.98x to 12, 1.15x
# to 13 and 1.42x to 14 (32,767), and 1.10x on lattice-z to 3,200 (6,401).
_UNION = 2**13


def _solves(
    ex: Exhaustion,
    nl: Nonlinearity,
    W0: float,
    pos: np.ndarray,
    arrays: tuple,
    shifted: bool,
    opts: SolveOptions | None,
):
    """The solves on the union ``arrays`` of k = len(pos) copies of each
    ball (``_copies``, whose positions are ``pos``), ball by ball: yields
    each ball's solution, its StepRecord and the largest decrease so far,
    and raises SolveError where a solve fails.

    Each ball starts from the last solution, extended by zero, or with
    ``shifted`` from its ``_shifted_profile`` where the total energy is
    smaller; the largest union is closed where ``ex`` is (see ``_solve``).
    """
    k = len(pos)
    max_dec, resid, u, last = 0.0, 0.0, np.zeros(0), 0
    for n, (r, size) in enumerate(zip(ex.radii, ex.sizes)):
        if k * size == u.size:
            sweeps = 0  # nested sets of equal size are identical: reuse the solve
        else:
            sys_ = _System(*arrays, k * size, ex.closed)
            start = np.zeros(k * size)  # the last solve, extended by 0
            start[:u.size] = u
            alt = _shifted_profile(ex.ends, pos, u, last, r) if shifted and u.size else None
            res = _solve(sys_, nl, W0, start, opts, alt)
            if not res.converged:
                raise SolveError(
                    f"solve did not converge at exhaustion step {n} "
                    f"(radius {r}, {size} vertices): residual {res.residual_inf:.3g} "
                    f"after {res.sweeps_used} sweeps")
            sweeps, resid, u, last = res.sweeps_used, res.residual_inf, res.u, r
            max_dec = max(max_dec, res.max_decrease)
        yield u, StepRecord(n=n, radius=r, set_size=size, sweeps=sweeps, residual_inf=resid), max_dec


def _copies(ex: Exhaustion, w: np.ndarray, fv: np.ndarray):
    """``pos, arrays`` of the disjoint union of k = len(fv) copies of the
    largest ball, copy c carrying the data fv[c]: ``pos[c, i]`` is the
    position of vertex i of copy c, and ``arrays`` are ``_System``'s
    order to f on the union, edges in the order ``_assemble`` gives.

    The union lists the copies layer by layer: layer l of copy 0, then of
    copy 1, and so on, each in ball order, which one stable sort on the
    key (layer, copy) gives.  So the union of k copies of each ball is a
    leading block of it, as ``_System`` takes it, and the parents of a
    forest stay non-decreasing, with layers k times as wide.  The copies'
    edges follow their rows' places, and a stable sort keeps each row's
    entries in neighbor order.  For k = 1 the union is the ball, and its
    arrays are passed through with no copy.
    """
    k, n = fv.shape
    if k == 1:
        return np.arange(n)[None], (ex.order, ex.rows, ex.cols, ex.b, ex.m, ex.deg, w, fv[0])
    layer = np.repeat(np.arange(len(ex.ends)), np.diff(ex.ends, prepend=0))
    # place p of the union holds entry at[p] = c n + i of the copies: vertex i of copy c
    at = np.argsort(k * layer + np.arange(k)[:, None], axis=None, kind="stable")
    pos = np.empty(k * n, dtype=np.int64)
    pos[at] = np.arange(k * n)
    pos = pos.reshape(k, n)
    rows = pos[:, ex.rows].ravel()
    e = np.argsort(rows, kind="stable")
    i = at % n
    return pos, (ex.order[i], rows[e], pos[:, ex.cols].ravel()[e], np.tile(ex.b, k)[e],
                 ex.m[i], ex.deg[i], w[i], fv.ravel()[at])


def _shifted_profile(ends: tuple[int, ...], pos: np.ndarray, u: np.ndarray,
                     r_old: int, r_new: int) -> np.ndarray:
    """The solution u on the ball of radius ``r_old``, averaged over its
    breadth-first layers and moved out to the ball of radius ``r_new``,
    copy by copy where u lives on the union of k = len(pos) copies of the
    ball at the positions ``pos`` (see ``_copies``).

    ``ends`` are the exhaustion's layer ends.  The mean of u over layer
    l, at distance r_old - l from the old boundary, goes to every vertex
    of layer l + r_new - r_old of the same copy, at the same distance from
    the new boundary; the layers inside those take the root's value.  A
    new ball that saturates before ``r_new`` keeps its layers where they
    are, so it reads the root's value farther out."""
    old = np.array(ends[:r_old + 1])
    counts = np.diff(old, prepend=0)
    means = np.add.reduceat(u[pos[:, :old[-1]]], old - counts, axis=1) / counts
    sizes = np.diff(ends[:r_new + 1], prepend=0)
    moved = means[:, np.maximum(np.arange(sizes.size) - (r_new - r_old), 0)]
    at = pos[:, :sizes.sum()]
    out = np.empty(at.size)
    out[at] = np.repeat(moved, sizes, axis=1)
    return out


def _estimate(
    values: dict[int, list[float]],
    steps: list[StepRecord],
    max_dec: float,
    u: np.ndarray,
) -> ResolventEstimate:
    """The estimate over the steps solved so far (at least one)."""
    increments: dict[int, tuple[float, ...]] = {}
    for p, seq in values.items():
        inc = (seq[0], *(b - a for a, b in zip(seq, seq[1:])))
        max_dec = max([max_dec, *(-v for v in inc[1:])])
        increments[p] = inc

    return ResolventEstimate(
        probes=tuple(values),
        values={p: tuple(v) for p, v in values.items()},
        increments=increments,
        final={p: seq[-1] for p, seq in values.items()},
        max_decrease=max_dec,
        steps=tuple(steps),
        u=u,
    )
