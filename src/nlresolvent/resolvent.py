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
(extended by zero).  For f >= 0 that start lies below the new solution,
so the solver's ``max_decrease`` certifies the monotonicity vertex by
vertex, and it saves sweeps on the larger sets.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Callable, Iterable

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


@dataclass(frozen=True, eq=False)
class Exhaustion:
    """Strictly increasing ball radii around a root, with realized sets.

    The balls are materialized eagerly in breadth-first order, so each
    is a prefix of the next: ``order`` is the largest, and ``ends[r]``
    is the size of the ball of radius r, for every r up to the largest
    radius or until the ball saturates, which on a finite graph it does
    once it covers the root's component; ``order[:size(r)]`` is the
    ball of radius r, and ``sizes`` are the sizes at the scheduled radii.
    ``order`` is an int64 array, and ``rows`` to ``deg`` hold the graph
    on it as ``graphs._assemble`` builds it, once per exhaustion: these
    arrays are the only per-vertex store of a run.
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
    order, ends, arrays = _ball(g, r0, radii, max_vertices, True, True)
    return Exhaustion(r0, radii, tuple(ends.tolist()), order, *arrays)


@dataclass(frozen=True)
class StepRecord:
    """Per-step diagnostics; sweeps is 0 when a saturated set reused the
    previous solution."""

    n: int
    radius: int
    set_size: int
    sweeps: int
    residual_inf: float


@dataclass(frozen=True, eq=False)
class ResolventEstimate:
    """Probe-wise value sequences along the exhaustion.

    ``increments[p][0]`` is the first value itself (the increment from
    the empty-set baseline 0); later entries are successive differences.
    ``max_decrease`` is the monotonicity certificate: the largest
    decrease seen either inside a solve or across steps, which for
    f >= 0 should never exceed root-finder noise.  ``u`` is the last
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
    return _extend(ex, nl, W.W0, w, fv, at, opts)


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
) -> ResolventEstimate:
    """extended_resolvent with W and f already sampled on ``ex.order``
    and the probes mapped to their indices there (``_probe_index``)."""
    order = ex.order
    _check(order, ex.m, ex.deg, w, fv, W0)
    neg = np.flatnonzero(fv < 0.0)
    if neg.size:
        x = int(order[neg[0]])
        raise ValueError(f"extended resolvent needs f >= 0, got f({x}) = {fv[neg[0]]}")

    values: dict[int, list[float]] = {p: [] for p in at}
    steps: list[StepRecord] = []
    max_dec, resid, u = 0.0, 0.0, np.zeros(0)

    for n, (r, size) in enumerate(zip(ex.radii, ex.sizes)):
        if size == u.size:
            sweeps = 0  # nested sets of equal size are identical: reuse the solve
        else:
            sys_ = _System(order, ex.rows, ex.cols, ex.b, ex.m, ex.deg, w, fv, size)
            start = np.zeros(size)  # the last solve, extended by 0
            start[:u.size] = u
            res = _solve(sys_, nl, W0, start, opts)
            if not res.converged:
                raise SolveError(
                    f"solve did not converge at exhaustion step {n} "
                    f"(radius {r}, {size} vertices): residual {res.residual_inf:.3g} "
                    f"after {res.sweeps_used} sweeps",
                    partial=_estimate(values, steps, max_dec, u) if steps else None,
                )
            sweeps, resid, u = res.sweeps_used, res.residual_inf, res.u
            max_dec = max(max_dec, res.max_decrease)
        for p, i in at.items():
            values[p].append(float(u[i]) if i < size else 0.0)
        steps.append(StepRecord(n=n, radius=r, set_size=size,
                                sweeps=sweeps, residual_inf=resid))
    return _estimate(values, steps, max_dec, u)


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
