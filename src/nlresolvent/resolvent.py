"""Extended resolvent over exhaustions of (possibly infinite) graphs.

On a finite vertex set the Dirichlet solve is exact.  On an infinite
graph the resolvent is approached from below: for data f >= 0 the
finite-set solutions increase monotonically with the set, so solving
over a schedule of nested balls and watching a few probe vertices gives
a certified lower approximation whose step increments measure the
remaining truncation error.  The one-sidedness matters when the numbers
are interpreted downstream: a tiny increment certifies that the lower
bound has stabilized, not that it is close to the limit.

Each step is warm-started from the previous solution (extended by
zero).  For f >= 0 that start lies below the new solution, so the
solver's ``max_decrease`` certifies the monotonicity vertex by vertex,
and it saves sweeps on the larger sets.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Callable, Iterable

from .graphs import GraphError, VertexFunction, WeightedGraph, ball
from .nonlinearity import Nonlinearity
from .solver import Potential, SolveError, SolveOptions, SolveResult, solve_dirichlet

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


@dataclass(frozen=True)
class Exhaustion:
    """Strictly increasing ball radii around a root, with realized sets.

    The sets are materialized eagerly in breadth-first order, so each is
    a prefix of the next.  On a finite graph the sets saturate once a
    radius covers the component of the root.
    """

    root: int
    radii: tuple[int, ...]
    sets: tuple[tuple[int, ...], ...]

    @property
    def sizes(self) -> tuple[int, ...]:
        return tuple(len(s) for s in self.sets)

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
    sets = []
    for r in radii:
        try:
            sets.append(tuple(ball(g, r0, r, max_vertices=max_vertices)))
        except GraphError as exc:
            raise GraphError(f"exhaustion step at radius {r}: {exc}") from exc
    return Exhaustion(root=r0, radii=radii, sets=tuple(sets))


@dataclass(frozen=True)
class StepRecord:
    """Per-step diagnostics; sweeps is 0 when a saturated set reused the
    previous solution."""

    n: int
    radius: int
    set_size: int
    sweeps: int
    residual_inf: float


@dataclass(frozen=True)
class ResolventEstimate:
    """Probe-wise value sequences along the exhaustion.

    ``increments[p][0]`` is the first value itself (the increment from
    the empty-set baseline 0); later entries are successive differences.
    ``converged[p]`` holds when the last two increments are within tol.
    ``max_decrease`` is the monotonicity certificate: the largest
    decrease seen either inside a solve or across steps, which for
    f >= 0 should never exceed root-finder noise.
    """

    probes: tuple[int, ...]
    values: dict[int, tuple[float, ...]]
    increments: dict[int, tuple[float, ...]]
    final: dict[int, float]
    converged: dict[int, bool]
    max_decrease: float
    steps: tuple[StepRecord, ...]
    final_solve: SolveResult

    @property
    def all_converged(self) -> bool:
        return all(self.converged.values())

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
    tol: float = 1e-6,
    opts: SolveOptions | None = None,
) -> ResolventEstimate:
    """Approximate the resolvent of f >= 0 from below along an exhaustion.

    ``f`` is either a finitely supported function or a callable sampled
    on each set of the exhaustion (for rule-defined data like multiples
    of the potential; it must be bounded for the limit to be finite).
    A solve that fails to converge raises SolveError carrying the
    offending result and, as ``partial``, the estimate over the steps
    completed before it; a schedule that merely has not stabilized yet is
    not an error and comes back with converged flags down.
    """
    if tol <= 0:
        raise ValueError(f"tol must be positive, got {tol}")
    probe_list = list(dict.fromkeys(probes)) if probes is not None else [ex.root]
    if not probe_list:
        raise ValueError("need at least one probe vertex")

    if isinstance(f, VertexFunction):
        if any(v < 0.0 for _, v in f.items()):
            raise ValueError("extended resolvent needs f >= 0")

        def sample(K: tuple[int, ...]) -> VertexFunction:
            if set(f.support) <= set(K):
                return f
            return VertexFunction({x: f(x) for x in K})

    elif callable(f):

        def sample(K: tuple[int, ...]) -> VertexFunction:
            vals = {}
            for x in K:
                v = float(f(x))
                if v < 0.0:
                    raise ValueError(f"extended resolvent needs f >= 0, got f({x}) = {v}")
                vals[x] = v
            return VertexFunction(vals)

    else:
        raise TypeError("f must be a VertexFunction or a callable on vertices")

    values: dict[int, list[float]] = {p: [] for p in probe_list}
    steps: list[StepRecord] = []
    max_dec = 0.0
    prev: SolveResult | None = None
    prev_size = -1

    for n, (r, K) in enumerate(zip(ex.radii, ex.sets)):
        if prev is not None and len(K) == prev_size:
            # nested sets of equal size are identical: reuse the solve
            res = prev
            sweeps = 0
        else:
            res = solve_dirichlet(
                g, W, nl, sample(K), K, opts=opts,
                start=None if prev is None else prev.u,
            )
            if not res.converged:
                raise SolveError(
                    f"solve did not converge at exhaustion step {n} "
                    f"(radius {r}, {len(K)} vertices): residual {res.residual_inf:.3g} "
                    f"after {res.sweeps_used} sweeps",
                    result=res,
                    partial=_estimate(values, steps, max_dec, tol, prev) if steps else None,
                )
            sweeps = res.sweeps_used
            if res.max_decrease > max_dec:
                max_dec = res.max_decrease
        for p in probe_list:
            values[p].append(res.u(p))
        steps.append(StepRecord(n=n, radius=r, set_size=len(K),
                                sweeps=sweeps, residual_inf=res.residual_inf))
        prev = res
        prev_size = len(K)
    return _estimate(values, steps, max_dec, tol, prev)


def _estimate(
    values: dict[int, list[float]],
    steps: list[StepRecord],
    max_dec: float,
    tol: float,
    final_solve: SolveResult,
) -> ResolventEstimate:
    """The estimate over the steps solved so far (at least one)."""
    increments: dict[int, tuple[float, ...]] = {}
    converged: dict[int, bool] = {}
    for p, seq in values.items():
        inc = [seq[0]]
        inc.extend(b - a for a, b in zip(seq, seq[1:]))
        for step_inc in inc[1:]:
            if -step_inc > max_dec:
                max_dec = -step_inc
        increments[p] = tuple(inc)
        converged[p] = all(abs(v) <= tol for v in inc[-2:])

    return ResolventEstimate(
        probes=tuple(values),
        values={p: tuple(v) for p, v in values.items()},
        increments=increments,
        final={p: seq[-1] for p, seq in values.items()},
        converged=converged,
        max_decrease=max_dec,
        steps=tuple(steps),
        final_solve=final_solve,
    )
