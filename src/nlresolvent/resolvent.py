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

from .graphs import GraphError, VertexFunction, WeightedGraph, ball
from .nonlinearity import Nonlinearity
from .solver import Potential, SolveError, SolveOptions, _assemble, _sample, _solve, _System

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
    is a prefix of the next: ``order`` is the largest and ``sizes`` are
    the ball sizes.  ``rows`` to ``deg`` hold the graph on ``order`` as
    ``solver._assemble`` builds it, once per exhaustion.  On a finite
    graph the sets saturate once a radius covers the root's component.
    """

    root: int
    radii: tuple[int, ...]
    sizes: tuple[int, ...]
    order: tuple[int, ...]
    rows: np.ndarray
    cols: np.ndarray
    b: np.ndarray
    m: np.ndarray
    deg: np.ndarray

    def __len__(self) -> int:
        return len(self.radii)


def make_exhaustion(
    g: WeightedGraph,
    root: int | None = None,
    schedule: Iterable[int] = (),
    max_vertices: int | None = None,
) -> Exhaustion:
    """Realize a radius schedule as nested balls around ``root``.

    The schedule must be non-empty and strictly increasing.  A
    materialization cap hit is reported with the offending radius.
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
    sizes = []
    for r in radii:
        try:
            order = tuple(ball(g, r0, r, max_vertices=max_vertices))
        except GraphError as exc:
            raise GraphError(f"exhaustion step at radius {r}: {exc}") from exc
        sizes.append(len(order))
    return Exhaustion(r0, radii, tuple(sizes), order, *_assemble(g, order))


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
    probe_list = list(dict.fromkeys(probes)) if probes is not None else [ex.root]
    if not probe_list:
        raise ValueError("need at least one probe vertex")

    order = ex.order
    w, fv = _sample(order, ex.m, ex.deg, W, f)
    neg = np.flatnonzero(fv < 0.0)
    if neg.size:
        raise ValueError(f"extended resolvent needs f >= 0, got f({order[neg[0]]}) = {fv[neg[0]]}")

    values: dict[int, list[float]] = {p: [] for p in probe_list}
    at = {x: i for i, x in enumerate(order) if x in values}
    steps: list[StepRecord] = []
    max_dec, resid, u = 0.0, 0.0, np.zeros(0)

    for n, (r, size) in enumerate(zip(ex.radii, ex.sizes)):
        if size == u.size:
            sweeps = 0  # nested sets of equal size are identical: reuse the solve
        else:
            sys_ = _System(order, ex.rows, ex.cols, ex.b, ex.m, ex.deg, w, fv, size)
            res = _solve(sys_, nl, W.W0, np.pad(u, (0, size - u.size)), opts)
            if not res.converged:
                raise SolveError(
                    f"solve did not converge at exhaustion step {n} "
                    f"(radius {r}, {size} vertices): residual {res.residual_inf:.3g} "
                    f"after {res.sweeps_used} sweeps",
                    partial=_estimate(values, steps, max_dec, u) if steps else None,
                )
            sweeps, resid, u = res.sweeps_used, res.residual_inf, res.u
            max_dec = max(max_dec, res.max_decrease)
        for p in probe_list:
            i = at.get(p, size)
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
