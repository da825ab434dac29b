"""Classification of completeness at infinity via the conservation defect.

A graph with potential W and nonlinearity phi conserves at infinity
when the resolvent of alpha*W equals alpha for every alpha > 0.  The
classifier, ``classify``, estimates the defect alpha - R(alpha*W) at
probe vertices along an exhaustion, for a whole alpha grid in one pass
(one alpha is a grid of one), and turns the numbers into a verdict,
once they pass their bounds and monotonicity certificates.  Because the
truncated resolvent sits below the true one, the computed defect sits
above the true defect: small defects certify completeness robustly,
while a large defect supports an incompleteness verdict only once the
sequence has visibly stopped moving.  Verdicts are always relative to
the finite alpha grid and probe set actually tested.

Also here: the summability test along a path (diverging term sums
certify completeness when deg/m is bounded) and the construction of a
potential large enough to force completeness.
"""

from __future__ import annotations

import math
import random
from collections.abc import Iterable
from typing import NamedTuple

import numpy as np

from .graphs import WeightedGraph, _ids, _rows
from .nonlinearity import Nonlinearity
from .resolvent import (
    CSV_HEADER, Exhaustion, ResolventEstimate, _extend, _probe_index, _trace_rows,
)
from .solver import (
    Potential, SolveError, SolveOptions, _checked_make, _Ratio, _require_positive, _sample,
)

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
    "default_probes",
    "classify",
    "path_criterion",
    "large_potential",
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


class _ThresholdsFields(NamedTuple):
    complete_tol: float = 1e-4
    stabilization_tol: float = 1e-6
    incomplete_floor: float = 1e-2


class Thresholds(_ThresholdsFields):
    """Classification cutoffs, separated by design from solver residuals.

    complete_tol bounds defects accepted as zero, incomplete_floor is
    the smallest defect read as genuinely positive, and stabilization_tol
    bounds the change over the last two schedule steps required before a
    defect value is trusted at all, and, for an incomplete verdict, the
    change since the largest scheduled radius <= R/2.
    """

    __slots__ = ()
    _make = classmethod(_checked_make)

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        for name in self._fields:
            _require_positive(name, getattr(self, name))
        if self.complete_tol >= self.incomplete_floor:
            raise ValueError(
                f"complete_tol {self.complete_tol} must sit below "
                f"incomplete_floor {self.incomplete_floor}"
            )
        return self


class DefectEstimate(NamedTuple):
    """Defect sequences alpha - R_n(alpha*W) at the probes.

    Increments are successive differences with the empty-set baseline
    alpha in front, so they are the negatives of the resolvent value
    increments and ``stabilization_error`` is the resolvent's.
    bounds_ok certifies 0 <= defect <= alpha and monotone_ok certifies
    non-increase, both up to 1e-9 slack; ``classify`` gives a verdict
    other than inconclusive only where both hold for every alpha.
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


def default_probes(ex: Exhaustion, seed: int = 0) -> tuple[int, ...]:
    """Exhaustion root plus up to four interior vertices drawn with ``seed``.

    Candidates are drawn from the ball one step inside the smallest
    scheduled radius, so every probe is interior to every set.  That
    ball is ``ex.order[:ex.size(r)]``, root first: no search again.
    """
    pool = sorted(ex.order[1:ex.size(max(ex.radii[0] - 1, 0))].tolist())
    rng = random.Random(seed)
    picked = rng.sample(pool, min(4, len(pool))) if pool else []
    return (ex.root, *sorted(picked))


def _alpha_grid(alpha_grid: Iterable[float] | None) -> tuple[float, ...]:
    """The distinct alphas of the grid as floats, in first-seen order (the
    default grid for None); ValueError unless it is non-empty, positive
    and finite."""
    grid = tuple(dict.fromkeys(
        float(a) for a in (DEFAULT_ALPHA_GRID if alpha_grid is None else alpha_grid)))
    if not grid:
        raise ValueError("alpha grid must be non-empty")
    if not all(0.0 < a < math.inf for a in grid):
        raise ValueError(f"alpha grid must be positive and finite, got {grid}")
    return grid


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


class _DefectRows(NamedTuple):
    """Per-alpha defect estimates in grid order, without a verdict: the
    rows of a classification, and the ``partial`` of a failed one."""

    estimates: tuple[DefectEstimate, ...]

    def csv_rows(self) -> list[tuple]:
        return [row for est in self.estimates for row in est.csv_rows()]


class ClassificationReport(NamedTuple):
    """A verdict and its evidence.  ``reason`` says which alpha failed a
    certificate of its defects, or why an incomplete verdict was withheld
    by the doubling check, and is empty otherwise; the CLI prints it, and
    ``to_json_doc`` leaves it out."""

    verdict: str
    alpha_grid: tuple[float, ...]
    probes: tuple[int, ...]
    thresholds: Thresholds
    estimates: tuple[DefectEstimate, ...]
    stabilization: dict[float, dict[int, float]]
    note: str = TRUNCATION_NOTE
    reason: str = ""

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
    opts: SolveOptions | None = None,
) -> ClassificationReport:
    """The defect sequences d_n = alpha - R_n(alpha*W) at the probes for
    each alpha of the grid, and a verdict on them.

    Each alpha is taken once.  A failed bounds or monotonicity
    certificate of some alpha's defects (``DefectEstimate``) makes the
    verdict inconclusive, its ``reason`` naming the alpha.  Otherwise
    complete-at-infinity requires every (alpha, probe) defect to be
    below complete_tol and stabilized, or the exhaustion ``closed``, its
    last ball the root's whole component, where the defects are exact;
    incomplete-at-infinity requires some stabilized defect at or above
    incomplete_floor that also changed by at most stabilization_tol since
    the largest scheduled radius <= R/2, R the last one; anything else is
    inconclusive (a verdict, not an error), and where only that doubling
    check withheld an incomplete verdict the report's ``reason`` says so.
    The alphas are solved together, in groups of consecutive alphas within
    a factor 16 of each other (scale groups, see ``resolvent._extend``):
    a trace row's sweeps and residual are its group's joint solve's, the
    residual bounding each alpha's own, the start is chosen by the group's
    total energy, and ``max_sweeps`` caps each joint solve; the defects
    agree with one one-alpha ``classify`` per alpha to within the residual
    test.

    W is sampled once, on the exhaustion's largest ball, for the whole
    grid.  A failed solve raises SolveError whose ``partial`` holds every
    alpha's rows for the radii before the failing one (None when the
    first radius failed).  ``probes`` defaults to ``default_probes(ex)``,
    drawn with seed 0.
    """
    grid = _alpha_grid(alpha_grid)
    th = thresholds or Thresholds()
    at = _probe_index(ex, tuple(probes) if probes is not None else default_probes(ex))
    w = _sample(g, W.fn, ex.order, ex.m, ex.deg)
    with np.errstate(all="ignore"):
        fv = np.multiply.outer(grid, w)  # bitwise alpha * W(x)
    try:
        ests = _extend(ex, nl, W.W0, w, fv, at, opts, shifted=True)
    except SolveError as exc:
        if exc.partial is not None:
            exc.partial = _DefectRows(tuple(map(_defect_estimate, grid, exc.partial)))
        raise
    return _report(ex, grid, th, tuple(map(_defect_estimate, grid, ests)))


def _report(ex: Exhaustion, grid: tuple[float, ...], th: Thresholds,
            ests: tuple[DefectEstimate, ...]) -> ClassificationReport:
    """classify's verdict on the defect estimates ``ests`` of the alpha
    grid along ``ex``, and its evidence."""
    stabilization = {
        est.alpha: {p: est.stabilization_error(p) for p in est.probes}
        for est in ests
    }

    def stable(est: DefectEstimate, p: int) -> bool:
        return stabilization[est.alpha][p] <= th.stabilization_tol

    # truncation over-estimates the defect, and a slowly decaying one moves
    # little over closely spaced radii: an incomplete verdict also needs
    # the defect to have held still since the largest radius <= R/2
    R = ex.radii[-1]
    half = max((k for k, r in enumerate(ex.radii) if 2 * r <= R), default=None)
    positive = [(est, p) for est in ests for p in est.probes
                if stable(est, p) and est.final[p] >= th.incomplete_floor]
    broken = [(est.alpha, name) for est in ests
              for name, ok in (("bounds", est.bounds_ok), ("monotonicity", est.monotone_ok))
              if not ok]
    reason = ""
    if broken:
        verdict = VERDICT_INCONCLUSIVE
        a, name = broken[0]
        reason = f"the defect at alpha = {a} fails its {name} certificate"
    elif all(
        (ex.closed or stable(est, p)) and est.final[p] <= th.complete_tol
        for est in ests
        for p in est.probes
    ):
        verdict = VERDICT_COMPLETE
    elif positive and half is None:
        verdict = VERDICT_INCONCLUSIVE
        reason = (f"not {VERDICT_INCOMPLETE}: no scheduled radius is <= {R}/2, "
                  "against which the defect must have stabilized")
    elif positive:
        moved = min(abs(est.final[p] - est.defects[p][half]) for est, p in positive)
        if moved <= th.stabilization_tol:
            verdict = VERDICT_INCOMPLETE
        else:
            verdict = VERDICT_INCONCLUSIVE
            reason = (f"not {VERDICT_INCOMPLETE}: the defect moved by {moved:.3g} > "
                      f"stabilization_tol between radii {ex.radii[half]} and {R}")
    else:
        verdict = VERDICT_INCONCLUSIVE

    return ClassificationReport(
        verdict=verdict,
        alpha_grid=grid,
        probes=ests[0].probes,
        thresholds=th,
        estimates=ests,
        stabilization=stabilization,
        reason=reason,
    )


class PathCriterionReport(NamedTuple):
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
) -> PathCriterionReport:
    """Evaluate S_N = sum_{k=1..N} m(x_k) phi(alpha W(x_k)) / deg(x_k).

    ``path`` must yield at least N+1 vertices with consecutive pairs
    joined by an edge of positive weight; alpha must lie in (0, 1].  Its
    rows, measures and degrees are read in one ``g.block`` call, and W
    is evaluated on that block's measures and degrees (see
    ``solver._sample``), so a ``const:``, ``degm:`` or large potential
    reads nothing more.
    The diagnosis reports either a divergent trend (partial sums still
    growing, with the conditional per-term floor phi(alpha*W0)/C for
    the observed C = max deg/m) or stalled partial sums (growth at most
    1e-9 (1 + |S_N|) over the last quarter of the terms), which are
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
    xs = _ids(verts)
    src, ys, ws, ms, degs = g.block(xs)
    for a, b, row in zip(verts, verts[1:], _rows(src, ys, ws, len(verts))):
        if next((w for y, w in row if y == b), 0.0) <= 0.0:
            raise ValueError(f"invalid path: {a} and {b} are not adjacent")

    xs, ms, degs = xs[1:], ms[1:], degs[1:]
    terms: list[float] = []
    sums: list[float] = []
    acc = 0.0
    ratio_max = 0.0
    for m, deg, w in zip(ms.tolist(), degs.tolist(), _sample(g, W.fn, xs, ms, degs).tolist()):
        ratio = deg / m
        if ratio > ratio_max:
            ratio_max = ratio
        terms.append(m * nl(alpha * w) / deg)
        acc += terms[-1]
        sums.append(acc)

    floor = nl(alpha * W.W0) / ratio_max
    n = len(sums)
    tail_growth = acc - sums[max(0, (3 * n) // 4 - 1)]
    if tail_growth <= 1e-9 * (1.0 + abs(acc)):
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
    return Potential(_Ratio(1.0, g, nl.inverse), W0=1.0)
