"""Classification of completeness at infinity via the conservation defect.

A graph with potential W and nonlinearity phi conserves at infinity
when the resolvent of alpha*W equals alpha for every alpha > 0.  The
classifier estimates the defect alpha - R(alpha*W) at probe vertices
along an exhaustion and turns the numbers into a verdict.  Because the
truncated resolvent sits below the true one, the computed defect sits
above the true defect: small defects certify completeness robustly,
while a large defect supports an incompleteness verdict only once the
sequence has visibly stopped moving.  Verdicts are always relative to
the finite alpha grid and probe set actually tested.

Also here: the summability test along a path (diverging term sums
certify completeness when deg/m is bounded), the construction of a
potential large enough to force completeness, and a direct check that
w = alpha - R(alpha*W) solves its equation, which certifies a
nontrivial bounded solution whenever the defect is positive.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from collections.abc import Iterable

from .graphs import VertexFunction, WeightedGraph, ball, edge_weight, laplacian_apply
from .nonlinearity import Nonlinearity
from .resolvent import (
    CSV_HEADER, Exhaustion, ResolventEstimate, _trace_rows, extended_resolvent,
)
from .solver import Potential, SolveError, SolveOptions, _require_positive

__all__ = [
    "CLASSIFY_CSV_HEADER",
    "DEFAULT_ALPHA_GRID",
    "TRUNCATION_NOTE",
    "VERDICT_COMPLETE",
    "VERDICT_INCOMPLETE",
    "VERDICT_INCONCLUSIVE",
    "Thresholds",
    "DefectEstimate",
    "ClassificationReport",
    "PathCriterionReport",
    "LiouvilleReport",
    "default_probes",
    "conservation_defect",
    "classify",
    "path_criterion",
    "large_potential",
    "verify_liouville",
]

VERDICT_COMPLETE = "complete-at-infinity"
VERDICT_INCOMPLETE = "incomplete-at-infinity"
VERDICT_INCONCLUSIVE = "inconclusive"

DEFAULT_ALPHA_GRID = (0.25, 0.5, 1.0, 2.0, 4.0)

CLASSIFY_CSV_HEADER = ("alpha",) + CSV_HEADER

# comparison slack for exact-arithmetic statements checked in floats
_SLACK = 1e-9

TRUNCATION_NOTE = (
    "Truncation to finite sets under-estimates the resolvent and so "
    "over-estimates the defect: defects below the completeness threshold "
    "are trustworthy as is, while large defects support an incompleteness "
    "verdict only together with stabilization evidence. The verdict is "
    "relative to the tested alpha grid and probe set."
)


@dataclass(frozen=True)
class Thresholds:
    """Classification cutoffs, separated by design from solver residuals.

    complete_tol bounds defects accepted as zero, incomplete_floor is
    the smallest defect read as genuinely positive, and stabilization_tol
    bounds the change over the last two schedule steps required before a
    defect value is trusted at all.
    """

    complete_tol: float = 1e-4
    stabilization_tol: float = 1e-6
    incomplete_floor: float = 1e-2

    def __post_init__(self):
        for name in ("complete_tol", "stabilization_tol", "incomplete_floor"):
            _require_positive(name, getattr(self, name))
        if self.complete_tol >= self.incomplete_floor:
            raise ValueError(
                f"complete_tol {self.complete_tol} must sit below "
                f"incomplete_floor {self.incomplete_floor}"
            )


@dataclass(frozen=True)
class DefectEstimate:
    """Defect sequences alpha - R_n(alpha*W) at the probes.

    Increments are successive differences with the empty-set baseline
    alpha in front, so they are the negatives of the resolvent value
    increments and ``stabilization_error`` is the resolvent's.
    bounds_ok certifies 0 <= defect <= alpha and monotone_ok certifies
    non-increase, both up to 1e-9 slack.
    """

    alpha: float
    probes: tuple[int, ...]
    defects: dict[int, tuple[float, ...]]
    increments: dict[int, tuple[float, ...]]
    final: dict[int, float]
    bounds_ok: bool
    monotone_ok: bool
    resolvent: ResolventEstimate

    def stabilization_error(self, probe: int) -> float:
        """Largest defect change over the last two schedule steps."""
        return self.resolvent.stabilization_error(probe)

    def csv_rows(self) -> list[tuple]:
        """Rows matching CLASSIFY_CSV_HEADER: alpha, then the resolvent
        columns with defect values and increments."""
        return _trace_rows(self.resolvent.steps, self.probes, self.defects,
                           self.increments, prefix=(self.alpha,))


def default_probes(g: WeightedGraph, ex: Exhaustion, seed: int = 0, count: int = 4) -> tuple[int, ...]:
    """Exhaustion root plus up to ``count`` seeded interior vertices.

    Candidates are drawn from the ball one step inside the smallest
    scheduled radius, so every probe is interior to every set.
    """
    inner = ball(g, ex.root, max(ex.radii[0] - 1, 0))
    pool = sorted(x for x in inner if x != ex.root)
    rng = random.Random(seed)
    picked = rng.sample(pool, min(count, len(pool))) if pool else []
    return (ex.root, *sorted(picked))


def conservation_defect(
    g: WeightedGraph,
    W: Potential,
    nl: Nonlinearity,
    alpha: float,
    ex: Exhaustion,
    probes: Iterable[int] | None = None,
    opts: SolveOptions | None = None,
) -> DefectEstimate:
    """Defect sequences d_n = alpha - R_n(alpha*W) at the probes.

    Needs a finite alpha >= 0 (ValueError otherwise) and W bounded on
    the materialized sets (the data alpha*W is sampled there).  Solver
    non-convergence propagates from the resolvent, its ``partial``
    turned into the DefectEstimate of the completed steps; the values
    of an unconverged solve would certify nothing.
    """
    alpha = float(alpha)
    if not 0.0 <= alpha < math.inf:
        raise ValueError(f"alpha must be finite and >= 0, got {alpha}")
    try:
        est = extended_resolvent(
            g, W, nl, lambda x: alpha * W(x), ex, probes=probes, opts=opts
        )
    except SolveError as exc:
        if exc.partial is not None:
            exc.partial = _defect_estimate(alpha, exc.partial)
        raise
    return _defect_estimate(alpha, est)


def _defect_estimate(alpha: float, est: ResolventEstimate) -> DefectEstimate:
    defects = {p: tuple(alpha - v for v in est.values[p]) for p in est.probes}
    increments = {p: tuple(-v for v in est.increments[p]) for p in est.probes}
    bounds_ok = all(
        -_SLACK <= d <= alpha + _SLACK for seq in defects.values() for d in seq
    )
    monotone_ok = all(
        b <= a + _SLACK
        for seq in defects.values()
        for a, b in zip((alpha,) + seq, seq)
    )
    return DefectEstimate(
        alpha=alpha,
        probes=est.probes,
        defects=defects,
        increments=increments,
        final={p: defects[p][-1] for p in est.probes},
        bounds_ok=bounds_ok,
        monotone_ok=monotone_ok,
        resolvent=est,
    )


@dataclass(frozen=True)
class _DefectRows:
    """Per-alpha defect estimates in grid order, without a verdict: the
    rows of a classification, and the ``partial`` of a failed one."""

    estimates: tuple[DefectEstimate, ...]

    def csv_rows(self) -> list[tuple]:
        return [row for est in self.estimates for row in est.csv_rows()]


@dataclass(frozen=True)
class ClassificationReport:
    verdict: str
    alpha_grid: tuple[float, ...]
    probes: tuple[int, ...]
    thresholds: Thresholds
    estimates: tuple[DefectEstimate, ...]
    stabilization: dict[float, dict[int, float]]
    note: str = TRUNCATION_NOTE

    def to_json_doc(self) -> dict:
        """Verdict document; every number here also appears in the CSV rows."""
        return {
            "alpha": list(self.alpha_grid),
            "defect": {
                repr(est.alpha): {str(p): est.final[p] for p in est.probes}
                for est in self.estimates
            },
            "stabilization": {
                repr(a): {str(p): e for p, e in per_probe.items()}
                for a, per_probe in self.stabilization.items()
            },
            "verdict": self.verdict,
            "thresholds": {
                "complete_tol": self.thresholds.complete_tol,
                "stabilization_tol": self.thresholds.stabilization_tol,
                "incomplete_floor": self.thresholds.incomplete_floor,
            },
            "note": self.note,
        }

    def csv_rows(self) -> list[tuple]:
        """Defect rows for all alphas, prefixed by an alpha column."""
        return _DefectRows(self.estimates).csv_rows()


def classify(
    g: WeightedGraph,
    W: Potential,
    nl: Nonlinearity,
    ex: Exhaustion,
    alpha_grid: Iterable[float] | None = None,
    probes: Iterable[int] | None = None,
    thresholds: Thresholds | None = None,
    seed: int = 0,
    opts: SolveOptions | None = None,
) -> ClassificationReport:
    """Run the defect over an alpha grid and issue a verdict.

    Complete-at-infinity requires every (alpha, probe) defect to be
    stabilized and below complete_tol; incomplete-at-infinity requires
    some stabilized defect at or above incomplete_floor; anything else
    is inconclusive (a verdict, not an error).  Per-alpha runs are
    independent; they execute sequentially here for determinism.

    A failed solve raises SolveError whose ``partial`` holds the rows of
    the alphas completed before it and of the failed alpha's completed
    steps (None when nothing completed).
    """
    grid = tuple(float(a) for a in (DEFAULT_ALPHA_GRID if alpha_grid is None else alpha_grid))
    if not grid:
        raise ValueError("alpha grid must be non-empty")
    if not all(0.0 < a < math.inf for a in grid):
        raise ValueError(f"alpha grid must be positive and finite, got {grid}")
    th = thresholds or Thresholds()
    probe_list = tuple(probes) if probes is not None else default_probes(g, ex, seed=seed)

    done: list[DefectEstimate] = []
    for a in grid:
        try:
            done.append(conservation_defect(g, W, nl, a, ex, probes=probe_list, opts=opts))
        except SolveError as exc:
            if exc.partial is not None:
                done.append(exc.partial)
            exc.partial = _DefectRows(tuple(done)) if done else None
            raise
    ests = tuple(done)
    stabilization = {
        est.alpha: {p: est.stabilization_error(p) for p in est.probes}
        for est in ests
    }

    def stable(est: DefectEstimate, p: int) -> bool:
        return stabilization[est.alpha][p] <= th.stabilization_tol

    if all(
        stable(est, p) and est.final[p] <= th.complete_tol
        for est in ests
        for p in est.probes
    ):
        verdict = VERDICT_COMPLETE
    elif any(
        stable(est, p) and est.final[p] >= th.incomplete_floor
        for est in ests
        for p in est.probes
    ):
        verdict = VERDICT_INCOMPLETE
    else:
        verdict = VERDICT_INCONCLUSIVE

    return ClassificationReport(
        verdict=verdict,
        alpha_grid=grid,
        probes=ests[0].probes,
        thresholds=th,
        estimates=ests,
        stabilization=stabilization,
    )


@dataclass(frozen=True)
class PathCriterionReport:
    """Partial sums of m*phi(alpha*W)/deg along a path.

    Divergence of the full series certifies completeness at infinity
    when deg/m stays bounded; the report states the per-term floor that
    hypothesis yields.  ``tail_growth`` is the gain over the last
    quarter of the computed terms, the numeric basis of the diagnosis.
    """

    alpha: float
    vertices: tuple[int, ...]
    terms: tuple[float, ...]
    partial_sums: tuple[float, ...]
    final_sum: float
    max_deg_over_m: float
    per_term_floor: float
    tail_growth: float
    diagnosis: str


def path_criterion(
    g: WeightedGraph,
    W: Potential,
    nl: Nonlinearity,
    path: Iterable[int],
    alpha: float,
    n_terms: int,
    stagnation_tol: float = 1e-9,
) -> PathCriterionReport:
    """Evaluate S_N = sum_{k=1..N} m(x_k) phi(alpha W(x_k)) / deg(x_k).

    ``path`` must yield at least N+1 vertices with consecutive pairs
    joined by an edge of positive weight; alpha must lie in (0, 1].
    The diagnosis reports either a divergent trend (partial sums still
    growing, with the conditional per-term floor phi(alpha*W0)/C for
    the observed C = max deg/m) or stalled partial sums, which are
    consistent with a summable series and decide nothing.
    """
    alpha = float(alpha)
    if not (0.0 < alpha <= 1.0):
        raise ValueError(f"alpha must lie in (0, 1], got {alpha}")
    if n_terms < 1:
        raise ValueError(f"n_terms must be >= 1, got {n_terms}")

    it = iter(path)
    verts: list[int] = []
    for _ in range(n_terms + 1):
        try:
            verts.append(int(next(it)))
        except StopIteration:
            raise ValueError(
                f"path ended after {len(verts)} vertices; need {n_terms + 1}"
            ) from None
    for a, b in zip(verts, verts[1:]):
        if edge_weight(g, a, b) <= 0.0:
            raise ValueError(f"invalid path: {a} and {b} are not adjacent")

    terms: list[float] = []
    sums: list[float] = []
    acc = 0.0
    ratio_max = 0.0
    for x in verts[1:]:
        m = g.measure(x)
        deg = g.degree(x)
        ratio = deg / m
        if ratio > ratio_max:
            ratio_max = ratio
        terms.append(m * nl(alpha * W(x)) / deg)
        acc += terms[-1]
        sums.append(acc)

    floor = nl(alpha * W.W0) / ratio_max
    n = len(sums)
    tail_growth = acc - sums[max(0, (3 * n) // 4 - 1)]
    if tail_growth <= stagnation_tol * (1.0 + abs(acc)):
        diagnosis = (
            f"inconclusive: partial sums stalled at {acc:.6g} "
            f"(growth {tail_growth:.3g} over the last quarter of the terms); "
            f"consistent with a summable series, which decides nothing"
        )
    else:
        diagnosis = (
            f"divergent trend: partial sums reach {acc:.6g} and are still "
            f"growing (+{tail_growth:.6g} over the last quarter of the terms); "
            f"if deg/m stays bounded by the observed {ratio_max:.6g}, every "
            f"term is at least {floor:.6g} and the series diverges"
        )

    return PathCriterionReport(
        alpha=alpha,
        vertices=tuple(verts),
        terms=tuple(terms),
        partial_sums=tuple(sums),
        final_sum=acc,
        max_deg_over_m=ratio_max,
        per_term_floor=floor,
        tail_growth=tail_growth,
        diagnosis=diagnosis,
    )


def large_potential(g: WeightedGraph, nl: Nonlinearity) -> Potential:
    """Potential W(x) = phi^{-1}(deg(x)/m(x)) + 1.

    Satisfies W >= 1 and m(x) phi(W(x)) >= deg(x), which is enough to
    force completeness at infinity for nonlinearities that are unbounded
    above and keep a positive fraction of their value under scaling.
    For a bounded-above phi, vertices with deg/m outside ran phi raise
    the range error from the inversion.
    """
    return Potential.from_callable(
        lambda x: nl.inverse(g.degree(x) / g.measure(x)) + 1.0, W0=1.0)


@dataclass(frozen=True)
class LiouvilleReport:
    """Direct check that w = alpha - R(alpha*W) solves -Lw = phi(W w).

    Residuals are evaluated only at probes at least two steps inside the
    final set, where the truncated solution satisfies the genuine
    equation; probes that are not interior are listed as skipped.  A
    positive max_w with a small residual certifies a nontrivial bounded
    solution, the hallmark of incompleteness.
    """

    alpha: float
    probes: tuple[int, ...]
    skipped: tuple[int, ...]
    w: dict[int, float]
    residuals: dict[int, float]
    max_w: float
    max_residual: float
    bounds_ok: bool
    residual_ok: bool
    residual_bound: float
    defect: DefectEstimate


def verify_liouville(
    g: WeightedGraph,
    W: Potential,
    nl: Nonlinearity,
    ex: Exhaustion,
    alpha: float,
    probes: Iterable[int] | None = None,
    opts: SolveOptions | None = None,
    seed: int = 0,
) -> LiouvilleReport:
    """Check the equation for w = alpha - u on the final exhaustion set.

    u is the defect's last solution, which this check alone reads as a
    whole.  Since constants are harmonic, -Lw = Lu, so the residual at
    a probe p is |Lu(p) - phi(W(p) w(p))|; it should sit within a small
    factor of the solver residual tolerance at interior probes.  Also
    checks 0 <= w <= alpha.  A repeated probe counts once.
    """
    probe_list = tuple(probes) if probes is not None else default_probes(g, ex, seed=seed)
    est = conservation_defect(g, W, nl, alpha, ex, probes=probe_list, opts=opts)
    u = VertexFunction(dict(zip(ex.order, est.resolvent.u.tolist())))

    interior = set(ball(g, ex.root, max(ex.radii[-1] - 2, 0)))
    used: list[int] = []
    skipped: list[int] = []
    for p in est.probes:
        (used if p in interior else skipped).append(p)

    wvals: dict[int, float] = {}
    residuals: dict[int, float] = {}
    for p in used:
        wp = est.alpha - u(p)
        wvals[p] = wp
        residuals[p] = abs(laplacian_apply(g, u, p) - nl(W(p) * wp))

    bound = 10.0 * (opts or SolveOptions()).residual_tol
    max_residual = max(residuals.values(), default=0.0)
    return LiouvilleReport(
        alpha=est.alpha,
        probes=tuple(used),
        skipped=tuple(skipped),
        w=wvals,
        residuals=residuals,
        max_w=max(wvals.values(), default=0.0),
        max_residual=max_residual,
        bounds_ok=all(-_SLACK <= v <= est.alpha + _SLACK for v in wvals.values()),
        residual_ok=max_residual <= bound,
        residual_bound=bound,
        defect=est,
    )
