"""Weighted graphs over a discrete measure space.

A graph here is a countable vertex set X (vertices are plain ints), a
symmetric edge weight b(x, y) >= 0 with zero diagonal, and a strictly
positive vertex measure m.  The weighted degree is deg(x) = sum_y b(x, y),
assumed finite at every vertex, and the formal Laplacian acts on finitely
supported functions by

    (L u)(x) = (1/m(x)) * sum_y b(x, y) * (u(x) - u(y)).

Two backends share one interface: :class:`ExplicitGraph` keeps a finite
adjacency table, :class:`ProceduralGraph` generates neighbors from a rule
and materializes vertices on demand.  Both are immutable after
construction.

Besides the per-vertex ``neighbors``, ``measure`` and ``degree``, every
graph answers :meth:`WeightedGraph.block`: the rows of a whole array of
vertices at once, as numpy arrays.  Breadth-first balls, the solver's
assembly, :func:`validate` and the graph writer read the graph through
it.  One private reader, ``_ball``, materializes every ball, for
:func:`ball`, ``gen`` and ``resolvent.make_exhaustion`` alike: one
block call per breadth-first layer, or one per ball where a procedural
graph gives its balls in closed form.  One cut, ``_assemble``, turns
a block into the edges inside a vertex set, for that reader, the
solver and the graph writer.  A procedural graph keeps no per-vertex
state: it reads every row, measure and degree through its block rule,
so a family whose rule works on arrays is materialized without a
Python call per vertex, and each scalar ``neighbors``, ``measure`` or
``degree`` costs one block call.

Every degree, of either backend, is one rule: ``np.bincount(src, ws)``,
each row's weights added in neighbor order from 0.0, as the solver adds
a row's terms b u(y).  So A c = deg c - sum_y b c is exactly 0 on a row
whose neighbors all lie in a set, for c a power of two, and deg is never
below a row's in-set sum (rounding is monotone, no weight is negative);
a correctly rounded degree would give up both.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
from bisect import bisect_left
from collections.abc import Callable, Iterable, Iterator, Mapping
from itertools import filterfalse
from typing import NamedTuple

import numpy as np

__all__ = [
    "GraphError",
    "WeightedGraph",
    "ExplicitGraph",
    "ProceduralGraph",
    "VertexFunction",
    "ValidationReport",
    "laplacian_apply",
    "energy",
    "ball",
    "validate",
    "edge_weight",
    "graph_from_json",
    "graph_to_json",
    "write_graph_json",
    "materialization_cap",
]

_CAP_ENV = "NLRESOLVENT_MAX_VERTICES"
_CAP_DEFAULT = 5_000_000


class GraphError(Exception):
    """Structural problem with a graph, a vertex function, or a resource cap."""


_INT64 = np.iinfo(np.int64)


def _require_int64(*ids: int) -> None:
    """Raise GraphError naming the first of ids outside int64."""
    for v in ids:
        if not _INT64.min <= v <= _INT64.max:
            raise GraphError(f"vertex id {v} is outside int64")


def _ids(values) -> np.ndarray:
    """Vertex ids as an int64 array; GraphError names an id outside int64."""
    try:
        return np.asarray(values, dtype=np.int64)
    except OverflowError:
        _require_int64(*values)
        raise


def materialization_cap(override: int | None = None) -> int:
    """Maximum number of vertices any single materialization may touch.

    Reads the NLRESOLVENT_MAX_VERTICES environment variable (default
    5e6) unless an explicit override is given.  Either must be positive.
    """
    name, raw = "max_vertices", override
    if override is None:
        name, raw = _CAP_ENV, os.environ.get(_CAP_ENV)
        if raw is None:
            return _CAP_DEFAULT
    try:
        cap = int(raw)
    except ValueError as exc:
        raise GraphError(f"{name} must be an integer, got {raw!r}") from exc
    if cap <= 0:
        raise GraphError(f"{name} must be positive, got {cap}")
    return cap


class WeightedGraph:
    """Interface shared by both backends.

    A subclass provides a ``root`` attribute and either :meth:`block`,
    computed on whole arrays, or the three scalar readers ``measure``,
    ``neighbors`` and ``degree``: each default reads the other side.
    Everything else in this module is written against those four.
    """

    root: int

    def measure(self, x: int) -> float:
        """The vertex measure m(x); this version is one block call on [x]."""
        return self.block(_ids([x]))[3].tolist()[0]

    def neighbors(self, x: int) -> tuple[tuple[int, float], ...]:
        """All (y, b(x, y)) pairs with a stored edge at x, fixed order."""
        _, ys, ws, _, _ = self.block(_ids([x]))
        return tuple(zip(ys.tolist(), ws.tolist()))

    def degree(self, x: int) -> float:
        """Weighted degree sum_y b(x, y); this version is one block call on [x]."""
        return self.block(_ids([x]))[4].tolist()[0]

    def block(self, xs: np.ndarray):
        """The rows of the vertices xs (an int64 array) in one call.

        Returns ``src, ys, ws, m, deg``: entry e is the stored edge from
        ``xs[src[e]]`` to ``ys[e]`` with weight ``ws[e]``, ``src`` is
        non-decreasing and each vertex's entries come in its
        ``neighbors`` order; ``m`` and ``deg`` hold the measure and the
        weighted degree of each vertex of xs, its row's weights added in
        that order from 0.0 (see the module docstring).  This version
        reads ``neighbors``, ``measure`` and ``degree`` vertex by vertex.
        """
        xl = _ids(xs).tolist()
        src, ys, ws = _pack([self.neighbors(x) for x in xl])
        m = np.array([self.measure(x) for x in xl], dtype=float)
        deg = np.array([self.degree(x) for x in xl], dtype=float)
        return src, ys, ws, m, deg


def _pack(rows: list) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``src, ys, ws`` of a list of rows of (y, b) pairs, one row per vertex."""
    src = np.arange(len(rows)).repeat([len(r) for r in rows])
    ys = _ids([y for r in rows for y, _ in r])
    ws = np.array([w for r in rows for _, w in r], dtype=float)
    return src, ys, ws


class ExplicitGraph(WeightedGraph):
    """Finite graph stored as an adjacency table.

    The table is kept exactly as handed in, so a malformed document
    (asymmetric weights, nonpositive measures) survives construction
    and is caught by :func:`validate`.  Use :meth:`from_edges` for the
    symmetrizing programmatic path.  The degrees are summed once, at
    construction, by the block rule's bincount over the packed table, so
    a table and a rule with the same rows agree bit for bit.
    """

    def __init__(
        self,
        measures: Mapping[int, float],
        adjacency: Mapping[int, Mapping[int, float]],
        root: int | None = None,
    ):
        self._m = {int(x): float(v) for x, v in measures.items()}
        if not self._m:
            raise GraphError("graph needs at least one vertex")
        self._adj = {
            int(x): tuple(sorted((int(y), float(w)) for y, w in nbrs.items()))
            for x, nbrs in adjacency.items()
        }
        for x in self._adj:
            if x not in self._m:
                raise GraphError(f"edge endpoint {x} has no vertex entry")
        for x, nbrs in self._adj.items():
            for y, _ in nbrs:
                if y not in self._m:
                    raise GraphError(f"edge ({x}, {y}) points at unknown vertex {y}")
        rows = [self._adj.get(x, ()) for x in self._m]
        src = np.arange(len(rows)).repeat([len(r) for r in rows])
        ws = np.array([w for r in rows for _, w in r], dtype=float)
        self._deg = dict(zip(self._m, np.bincount(src, ws, minlength=len(rows)).tolist()))
        self.root = int(root) if root is not None else min(self._m)
        if self.root not in self._m:
            raise GraphError(f"root {self.root} is not a vertex")

    @classmethod
    def from_edges(
        cls,
        edges: Iterable[tuple[int, int, float]],
        measures: Mapping[int, float] | None = None,
        vertices: Iterable[int] | None = None,
        root: int | None = None,
    ) -> "ExplicitGraph":
        """Build a graph from undirected edge triples (u, v, b).

        Each triple is stored in both directions, so the result is
        symmetric by construction; a self-loop, or a weight that is not
        finite or is negative, raises GraphError.  Vertices not mentioned in
        ``measures`` get measure 1; ``vertices`` may add isolated ones.
        """
        adj: dict[int, dict[int, float]] = {}
        seen: set[int] = set(int(v) for v in vertices) if vertices else set()
        for u, v, w in edges:
            u, v, w = int(u), int(v), float(w)
            if u == v:
                raise GraphError(f"self-loop at {u} (diagonal must be zero)")
            if not math.isfinite(w):
                raise GraphError(f"weight b({u},{v}) = {w} is not finite")
            if w < 0:
                raise GraphError(f"negative weight b({u},{v}) = {w}")
            seen.add(u)
            seen.add(v)
            if w == 0.0:
                continue  # zero weight means no edge
            adj.setdefault(u, {})[v] = w
            adj.setdefault(v, {})[u] = w
        m = {x: 1.0 for x in seen}
        if measures:
            for x, mv in measures.items():
                m[int(x)] = float(mv)
        return cls(m, adj, root=root)

    def vertices(self) -> list[int]:
        return sorted(self._m)

    def __len__(self) -> int:
        return len(self._m)

    def measure(self, x: int) -> float:
        try:
            return self._m[x]
        except KeyError:
            raise GraphError(f"unknown vertex {x}") from None

    def neighbors(self, x: int) -> tuple[tuple[int, float], ...]:
        if x not in self._m:
            raise GraphError(f"unknown vertex {x}")
        return self._adj.get(x, ())

    def degree(self, x: int) -> float:
        try:
            return self._deg[x]
        except KeyError:
            raise GraphError(f"unknown vertex {x}") from None


class ProceduralGraph(WeightedGraph):
    """Infinite (or just implicit) graph given by a rule.

    ``block_rule(xs)`` (keyword only) returns, for an int64 array of
    vertices, ``src, ys, ws`` laid out as in :meth:`WeightedGraph.block`,
    so a whole breadth-first layer costs a few numpy calls instead of a
    Python call per vertex.  A per-vertex ``neighbor_rule(x)``, giving
    the (y, b(x, y)) pairs at x, is turned into such a rule once, at
    construction.  ``measure_rule(x)`` gives the vertex measure (1 by
    default).

    Every row is read through :meth:`block`, which checks it (no
    self-loop, every weight finite and >= 0), sums each row into its
    degree with one bincount, in row order, and keeps nothing: a scalar
    ``neighbors``, ``measure`` or ``degree`` costs one block call.  The
    rule must be symmetric; :func:`validate` can spot-check that on any
    probe set.

    ``ball_rule(root, radius, max_vertices)`` (keyword only, optional)
    gives a ball in closed form, so :func:`ball` and
    ``make_exhaustion`` need no search: ``order, ends``, where ``ends``
    (int64) are the ball sizes at radii 0, 1, ... up to ``radius``,
    fewer where the ball saturates, and stopping at the first ball of
    more than ``max_vertices`` vertices; ``order`` is the ball of
    ``ends[-1]`` vertices in breadth-first order (int64), or None where
    that ball is over ``max_vertices``.  It returns None where it has
    no closed form.  Its answer is checked against the rows it reads,
    and a search replaces it where the two differ.
    """

    def __init__(
        self,
        root: int,
        neighbor_rule: Callable[[int], Iterable[tuple[int, float]]] | None = None,
        measure_rule: Callable[[int], float] | None = None,
        *,
        block_rule: Callable[[np.ndarray], tuple] | None = None,
        ball_rule: Callable[[int, int, int], tuple | None] | None = None,
    ):
        if (neighbor_rule is None) == (block_rule is None):
            raise TypeError("ProceduralGraph needs exactly one of neighbor_rule and block_rule")
        if block_rule is None:
            def block_rule(xs):
                return _pack([list(neighbor_rule(x)) for x in xs.tolist()])
        self.root = int(root)
        self._rule = block_rule
        self._ball_rule = ball_rule
        self._m_rule = measure_rule

    def block(self, xs: np.ndarray):
        xs = _ids(xs)
        src, ys, ws = self._rule(xs)
        bad = ys == xs[src]
        bad |= ~(ws >= 0.0)  # negative or NaN
        bad |= ws == np.inf
        if bad.any():
            e = np.flatnonzero(bad)[0]
            x, y, w = int(xs[src[e]]), int(ys[e]), float(ws[e])
            if y == x:
                raise GraphError(f"neighbor rule produced a self-loop at {x}")
            if not math.isfinite(w):
                raise GraphError(f"neighbor rule produced b({x},{y}) = {w}, which is not finite")
            raise GraphError(f"neighbor rule produced b({x},{y}) = {w} < 0")
        deg = np.bincount(src, ws, minlength=xs.size)
        if self._m_rule is None:
            m = np.ones(xs.size)
        else:
            m = np.array([float(self._m_rule(x)) for x in xs.tolist()], dtype=float)
        return src, ys, ws, m, deg


class VertexFunction:
    """Immutable finitely supported real function on the vertex set.

    Calling it off the support returns 0.0.  Values must be finite; a
    NaN or infinity in a vertex function poisons every downstream sum,
    so construction rejects them.
    """

    __slots__ = ("_values",)

    def __init__(self, values: Mapping[int, float] | None = None):
        vals = {}
        if values:
            for x, v in values.items():
                v = float(v)
                if not math.isfinite(v):
                    raise GraphError(f"non-finite value {v} at vertex {x}")
                if v != 0.0:
                    vals[int(x)] = v
        self._values = vals

    @classmethod
    def zero(cls) -> "VertexFunction":
        return cls()

    @classmethod
    def delta(cls, x: int, scale: float = 1.0) -> "VertexFunction":
        return cls({x: scale})

    def __call__(self, x: int) -> float:
        return self._values.get(x, 0.0)

    @property
    def support(self) -> tuple[int, ...]:
        return tuple(sorted(self._values))

    def items(self):
        return self._values.items()

    def as_dict(self) -> dict[int, float]:
        return dict(self._values)

    def sup_norm(self) -> float:
        return max((abs(v) for v in self._values.values()), default=0.0)

    def __len__(self) -> int:
        return len(self._values)

    def __repr__(self) -> str:
        inside = ", ".join(f"{x}: {v:g}" for x, v in sorted(self._values.items()))
        return f"VertexFunction({{{inside}}})"


class ValidationReport(NamedTuple):
    ok: bool
    failures: tuple[str, ...]

    def __str__(self) -> str:
        if self.ok:
            return "valid"
        return "invalid:\n" + "\n".join(f"  - {f}" for f in self.failures)


def edge_weight(g: WeightedGraph, x: int, y: int) -> float:
    """b(x, y) as stored at x (0.0 when no edge is stored there)."""
    for z, w in g.neighbors(x):
        if z == y:
            return w
    return 0.0


def laplacian_apply(g: WeightedGraph, u: VertexFunction, x: int) -> float:
    """Evaluate (L u)(x) = (1/m(x)) * sum_y b(x, y) (u(x) - u(y)).

    The sum runs over the stored neighbors of x, which covers every
    nonzero term because u is finitely supported.  The row and m(x) are
    read in one ``g.block`` call.
    """
    _, ys, ws, m, _ = g.block(_ids([x]))
    ux = u(x)
    acc = 0.0
    for y, w in zip(ys.tolist(), ws.tolist()):
        acc += w * (ux - u(y))
    return acc / m.tolist()[0]


def energy(g: WeightedGraph, u: VertexFunction, v: VertexFunction) -> float:
    """Bilinear graph energy Q(u, v) = 1/2 sum_{x,y} b(x,y)(u(x)-u(y))(v(x)-v(y)).

    Evaluated over edges incident to supp u union supp v.  An ordered
    pair with both ends in that set is visited twice (hence the half
    weight); a pair with one end outside it is visited once but equals
    its mirror term, so it enters with full weight.  The rows of that
    set are read in one ``g.block`` call.
    """
    spt = set(u.support) | set(v.support)
    if not spt:
        return 0.0
    xs = list(spt)
    src, ys, ws, _, _ = g.block(_ids(xs))
    ux, vx = [u(x) for x in xs], [v(x) for x in xs]
    acc = 0.0
    for i, y, w in zip(src.tolist(), ys.tolist(), ws.tolist()):
        if w == 0.0:
            continue
        term = w * (ux[i] - u(y)) * (vx[i] - v(y))
        acc += 0.5 * term if y in spt else term
    return acc


def _positions(xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """The index of each of ys among the distinct vertices xs, -1 where absent.

    Where xs is the range xs[0], xs[0] + 1, ..., as every ball a tree
    family gives in closed form is, ys - xs[0] is the index and no
    search runs.  (That difference may wrap around int64 only for a ys
    outside the range, and then not into [0, len(xs)).)
    """
    n = xs.size
    if n and int(xs[-1]) - int(xs[0]) == n - 1 and (np.diff(xs) == 1).all():
        j = ys - xs[0]
        # a negative j reads as at least 2**63 unsigned, so one test finds both ends
        j[j.view(np.uint64) >= n] = -1
        return j
    perm = np.argsort(xs, kind="stable")
    ordered = xs[perm]
    j = np.minimum(np.searchsorted(ordered, ys), max(n - 1, 0))
    return np.where(ordered[j] == ys, perm[j], -1) if n else np.full(ys.size, -1)


def _assemble(xs: np.ndarray, blk):
    """rows, cols, b, m, deg: the block ``blk`` of the first vertices of
    the distinct vertices xs (see ``WeightedGraph.block``) cut to the
    edges with b > 0 between vertices of xs, in coordinate form: rows
    ascending and each row in neighbor order (so cutting the edges that
    leave a prefix of xs leaves the prefix's own arrays), and the
    measure and weighted degree."""
    src, ys, ws, m, deg = blk
    cols = _positions(xs, ys)
    inside = cols >= 0
    inside &= ws > 0.0
    return src[inside], cols[inside], ws[inside], m, deg


def _ruled_ball(g: WeightedGraph, root: int, radius: int, cap: int):
    """``order, ends`` of g's ball rule (see :class:`ProceduralGraph`),
    with ``ends`` cut after the first ball over ``cap`` and ``order``
    None there, or None where g has no rule, the rule gives no answer
    or a malformed one, or raises GraphError (the search meets it again,
    or the error before it).  No row is read."""
    if not isinstance(g, ProceduralGraph) or g._ball_rule is None:
        return None
    try:
        got = g._ball_rule(root, radius, cap)
    except GraphError:
        return None
    if got is None:
        return None
    order, ends = got
    ends = np.asarray(ends)
    if not (ends.dtype == np.int64 and ends.ndim == 1 and 0 < ends.size <= radius + 1
            and ends[0] == 1 and (np.diff(ends) > 0).all()):
        return None
    over = int(np.searchsorted(ends, cap, side="right"))
    if over < ends.size:
        return None, ends[:over + 1]
    if not (isinstance(order, np.ndarray) and order.dtype == np.int64
            and order.shape == (ends[-1],) and order[0] == root):
        return None
    return order, ends


def _discovers(ends: np.ndarray, n: int, src, ws, rows, cols) -> bool:
    """Whether the search of :func:`_ball`, reading the rows of the
    first n vertices of a ball ``order``, finds exactly its layers
    ``ends``, given a block of its first vertices (``src``, ``ws``,
    covering at least those n) and the block's edges with b > 0 into
    the ball (``rows`` ascending, ``cols`` their targets' positions in
    ``order``).

    The search reads rows in this order and keeps each target's first
    occurrence.  So it agrees when every b > 0 target of a read row lies
    in the ball, the targets' running maximum position climbs by at
    most one at a time to the last vertex (each vertex then first occurs
    in ball order, the root being seen from the start), and each vertex
    first occurs in a row of the layer before its own.
    """
    e = int(np.searchsorted(rows, n))
    if np.count_nonzero(ws[:np.searchsorted(src, n)] > 0.0) != e:
        return False
    top = np.maximum.accumulate(cols[:e])
    if (top[-1] if e else 0) != ends[-1] - 1:
        return False
    # the entries where the maximum rises, from 0 before the first: it
    # climbs to ends[-1] - 1 in that many rises only by one at a time,
    # and then vertex k + 1 first occurs at entry first[k]
    rise = np.empty(e, dtype=bool)
    if e:
        rise[0] = top[0] > 0
        np.not_equal(top[1:], top[:-1], out=rise[1:])
    first = rise.nonzero()[0]
    if first.size != ends[-1] - 1:
        return False
    # the rows where the vertices are first seen ascend, so every vertex of
    # layer k + 1 is first seen from layer k where the first and the last are
    seen, starts = rows[first], ends[:-1]
    return bool((seen[starts - 1] >= np.concatenate(([0], starts[:-1]))).all()
                and (seen[ends[1:] - 2] < starts).all())


def _ball(g: WeightedGraph, root: int, radii: tuple[int, ...], max_vertices: int | None,
          outer: bool, steps: bool):
    """``order, ends, arrays, closed`` of the ball of radius ``radii[-1]``
    around root, for :func:`ball`, ``gen`` and ``make_exhaustion``: the
    ball in breadth-first order (int64), its layer ends (int64, the ball
    sizes at radii 0, 1, ..., fewer where it saturates), the
    :func:`_assemble` arrays of the rows read, all of the ball's with
    ``outer``, and with ``outer`` whether no edge with b > 0 leaves the
    ball, so that it covers root's component; a search without ``outer``
    neither keeps nor assembles the rows: None and None.

    The search reads one layer's rows per ``g.block`` call, every layer
    but the last, and with ``outer`` the last too.  Where g has a ball
    rule, one call reads those rows of the rule's ball, and the search
    runs only where they do not discover exactly its layers, or reading
    them fails.  A hit of the cap ``materialization_cap(max_vertices)``
    (before any row is read where the rule gives the sizes) or a graph
    error met while forming layer k raises GraphError, which with
    ``steps`` names the exhaustion step: the first of ``radii`` at or
    above k.  An error in the last layer's rows, which no ball of
    ``radii`` needs, is raised as it is.
    """
    radius, cap = radii[-1], materialization_cap(max_vertices)

    def error(k: int, exc: GraphError | None = None) -> GraphError:
        """exc, or the cap error, met while forming layer k."""
        r = radii[bisect_left(radii, k)]
        if exc is None:
            exc = GraphError(f"materialization cap exceeded: ball({root}, {r}) "
                             f"has more than {cap} vertices (set {_CAP_ENV} to raise it)")
        return GraphError(f"exhaustion step at radius {r}: {exc}") if steps else exc

    ruled = _ruled_ball(g, root, radius, cap)
    if ruled is not None:
        order, ends = ruled
        if order is None:
            raise error(ends.size - 1)
        # the search reads the rows of the ball of radius ``radius - 1``
        n = int(ends[min(ends.size, radius) - 1]) if radius else 0
        if n or outer:  # else radius 0, where the search reads no row
            with contextlib.suppress(GraphError):  # the search meets it again
                src, _, ws, *_ = blk = g.block(order if outer else order[:n])
                arrays = _assemble(order, blk)
                if _discovers(ends, n, src, ws, *arrays[:2]):
                    return order, ends, arrays, _closed(ws, arrays) if outer else None
    # each layer is what one block call on the layer before reaches
    # first: its targets with b > 0, in row order, first occurrence
    # only, minus every vertex seen so far
    seen = {root}
    layers, blocks = [_ids([root])], []
    size = 1
    # the rows of layer k - 1 form layer k; ``outer`` reads layer radius too
    for k in range(1, radius + 1 + outer):
        try:
            src, ys, ws, *_ = blk = g.block(layers[-1])
        except GraphError as exc:
            if not steps or k > radius:
                raise
            raise error(k, exc) from exc
        if outer:
            blocks.append(blk)
        if k > radius:
            break
        new = list(filterfalse(seen.__contains__, dict.fromkeys(ys[ws > 0.0].tolist())))
        if not new:
            break  # the ball saturates
        seen.update(new)
        size += len(new)
        if size > cap:
            raise error(k)
        layers.append(np.array(new, dtype=np.int64))
    order = np.concatenate(layers)
    ends = np.cumsum([layer.size for layer in layers])
    if not outer:
        return order, ends, None, None
    # the blocks of the layers read as one block of their vertices
    src = np.concatenate([blk[0] + k for blk, k in zip(blocks, [0, *ends.tolist()])])
    ys, ws, m, deg = (np.concatenate(parts) for parts in list(zip(*blocks))[1:])
    arrays = _assemble(order, (src, ys, ws, m, deg))
    return order, ends, arrays, _closed(ws, arrays)


def _closed(ws: np.ndarray, arrays) -> bool:
    """Whether every edge with b > 0 of a block of a ball's rows (weights
    ``ws``) lies in the ball: whether its ``_assemble`` arrays kept them
    all.  A block holds no negative weight, so those are the nonzero
    ones, which are counted without a temporary array."""
    return bool(np.count_nonzero(ws) == arrays[0].size)


def ball(
    g: WeightedGraph,
    root: int,
    radius: int,
    max_vertices: int | None = None,
) -> list[int]:
    """Vertices reachable from root in at most ``radius`` edges with b > 0.

    Returned in breadth-first discovery order (deterministic given the
    graph's neighbor order), so balls around the same root are nested
    as prefixes.  The ball is materialized by the one reader this module
    shares with ``make_exhaustion``: a search that expands one layer per
    ``g.block`` call, so the last layer's rows are never read, or where
    g has a ball rule, one ``g.block`` call on the rows of every layer
    but the last, with the search run only where they do not discover
    the rule's ball.  Raises GraphError when the materialization cap is
    exceeded, before any row is read where the rule gives the ball's
    size.
    """
    if radius < 0:
        raise GraphError(f"radius must be >= 0, got {radius}")
    return _ball(g, root, (radius,), max_vertices, False, False)[0].tolist()


def validate(g: WeightedGraph, probe: Iterable[int]) -> ValidationReport:
    """Check the graph axioms on a finite probe set.

    Verifies m > 0 and finite, b >= 0 and finite, a zero diagonal,
    finite weighted degrees, and exact symmetry b(x, y) = b(y, x) for
    every edge leaving the probe set (the mirror endpoint is
    materialized if needed).  A graph other than an ExplicitGraph is
    read in block calls, on the probe and then on its neighbors (two
    calls when every vertex reads cleanly); a vertex they did not cover
    is read through ``measure``, ``neighbors`` and ``degree``.  A
    ``GraphError`` met reading a row, a probe vertex's or a mirror
    endpoint's, is reported as a failure.  What is read is kept for the
    length of the call.
    """
    probe = list(probe)
    rows: dict[int, tuple] = {}  # x -> (row of x, m(x), deg(x)), as read
    if not isinstance(g, ExplicitGraph):
        # a vertex that fails here fails again, where it is met, below
        with contextlib.suppress(GraphError):
            ys = _read_rows(g, _ids(probe), rows)
            _read_rows(g, np.unique(ys), rows)

    def read(x: int) -> tuple:
        if x not in rows:
            m = g.measure(x)
            rows[x] = (g.neighbors(x), m, g.degree(x))
        return rows[x]

    failures: list[str] = []
    for x in probe:
        try:
            nbrs, m, deg = read(x)
        except GraphError as exc:
            failures.append(str(exc))
            continue
        if not math.isfinite(m) or m <= 0.0:
            failures.append(f"measure positivity at {x}: m({x}) = {m!r}")
        if not math.isfinite(deg):
            failures.append(f"degree at {x} is not finite")
        for y, w in nbrs:
            if y == x:
                failures.append(f"diagonal at {x}: b({x},{x}) = {w!r} stored")
                continue
            if not math.isfinite(w) or w < 0.0:
                failures.append(f"weight at ({x},{y}): b = {w!r}")
                continue
            try:
                back = next((v for z, v in read(y)[0] if z == x), 0.0)  # b(y, x)
            except GraphError as exc:
                failures.append(str(exc))
                continue
            if back != w:
                failures.append(
                    f"symmetry at ({x},{y}): b({x},{y}) = {w!r} but b({y},{x}) = {back!r}"
                )
    return ValidationReport(ok=not failures, failures=tuple(failures))


def _read_rows(g: WeightedGraph, xs: np.ndarray, rows: dict) -> np.ndarray:
    """Keep the row, measure and degree of each vertex of xs that
    ``g.block`` reads without GraphError in ``rows``, and return their
    neighbors with a finite b >= 0.  A batch that fails is halved until
    its failing vertices stand alone, so k of them cost O(k log |xs|)
    block calls, not one call per vertex."""
    try:
        src, ys, ws, m, deg = g.block(xs)
    except GraphError:
        if xs.size < 2:
            return xs[:0]
        h = xs.size // 2
        return np.concatenate([_read_rows(g, xs[:h], rows), _read_rows(g, xs[h:], rows)])
    rows.update(zip(xs.tolist(), zip(_rows(src, ys, ws, xs.size), m.tolist(), deg.tolist())))
    return ys[np.isfinite(ws) & (ws >= 0.0)]


def _rows(src: np.ndarray, ys: np.ndarray, ws: np.ndarray, n: int) -> list:
    """The n rows of a block, as ``neighbors`` gives them."""
    ends = np.cumsum(np.bincount(src, minlength=n)).tolist()
    pairs = list(zip(ys.tolist(), ws.tolist()))
    return [tuple(pairs[a:b]) for a, b in zip([0, *ends], ends)]


def graph_from_json(doc: Mapping | str) -> ExplicitGraph:
    """Load a finite graph from the JSON document form.

    Accepts a parsed mapping or a file path.  Schema:
    ``{"vertices": [{"id": int, "m": float}], "edges": [{"u": ..., "v": ..., "b": ...}]}``
    with each undirected edge listed once; both directions are stored.
    A duplicate listing of the same pair with a different weight leaves
    the table asymmetric on purpose, so ``validate`` can report it.
    """
    if isinstance(doc, str):
        with open(doc, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    try:
        vert_rows = doc["vertices"]
        edge_rows = doc.get("edges", [])
    except (TypeError, KeyError) as exc:
        raise GraphError(f"malformed graph document: {exc}") from exc
    measures: dict[int, float] = {}
    for row in vert_rows:
        try:
            measures[int(row["id"])] = float(row["m"])
        except (TypeError, KeyError, ValueError) as exc:
            raise GraphError(f"malformed vertex row {row!r}") from exc
    adj: dict[int, dict[int, float]] = {x: {} for x in measures}
    for row in edge_rows:
        try:
            u, v, b = int(row["u"]), int(row["v"]), float(row["b"])
        except (TypeError, KeyError, ValueError) as exc:
            raise GraphError(f"malformed edge row {row!r}") from exc
        if u not in measures or v not in measures:
            raise GraphError(f"edge ({u},{v}) references a vertex with no row")
        if b == 0.0:
            continue
        adj[u][v] = b
        # keep the first stored value for the mirror direction; a
        # conflicting duplicate row then shows up as an asymmetry
        adj[v].setdefault(u, b)
    return ExplicitGraph(measures, adj)


def _vertex_list(g: WeightedGraph, vertices: Iterable[int] | None) -> np.ndarray:
    """The vertices to serialize as int64, each at its first occurrence."""
    if vertices is None:
        if not isinstance(g, ExplicitGraph):
            raise GraphError("procedural graphs need an explicit vertex list to serialize")
        return _ids(g.vertices())
    xs = _ids(vertices if isinstance(vertices, np.ndarray) else list(vertices))
    if (xs[1:] > xs[:-1]).all():  # ascending, so distinct
        return xs
    return xs[np.sort(np.unique(xs, return_index=True)[1])]


def _edges(g: WeightedGraph, verts: list[int]) -> Iterator[tuple[int, int, float]]:
    """(x, y, b) for each undirected edge with both ends in verts, listed once."""
    vset = set(verts)
    for x in verts:
        for y, w in g.neighbors(x):
            if y in vset and x < y and w > 0.0:
                yield x, y, w


def graph_to_json(g: WeightedGraph, vertices: Iterable[int] | None = None) -> dict:
    """Serialize (a finite piece of) a graph to the JSON document form."""
    verts = _vertex_list(g, vertices).tolist()
    rows = [{"id": x, "m": mx} for x, mx in zip(verts, g.block(_ids(verts))[3].tolist())]
    edges = [{"u": x, "v": y, "b": w} for x, y, w in _edges(g, verts)]
    return {"vertices": rows, "edges": edges}


def _json_number(v: float) -> bytes:
    if math.isfinite(v):
        return repr(v).encode()
    return b"NaN" if v != v else (b"Infinity" if v > 0 else b"-Infinity")


def _spelled(v: np.ndarray) -> np.ndarray | bytes:
    """json.dumps's spelling of the floats of v, by bit pattern (non-finite
    ones too), so -0.0 keeps its sign and every NaN reads NaN: one bytes
    value when every float of v has the same bits, else an object array
    of bytes, one per float, with each distinct bit pattern spelled once."""
    bits = v.view(np.int64)
    if bits.size and (bits == bits[0]).all():
        return _json_number(float(v[0]))
    bits, inv = np.unique(bits, return_inverse=True)
    return np.array([_json_number(x) for x in bits.view(np.float64).tolist()], dtype=object)[inv]


def _write_array(fh, item: bytes, columns: tuple[np.ndarray | bytes, ...]) -> int:
    """Write to the binary file fh an indent=2 JSON array, one level
    deep, of ``item % row`` for each row of the equally long columns
    (ints, and the bytes of :func:`_spelled`), 4096 rows per ``%``.  A
    column given as one bytes value is put into item once, in place of
    its ``%s``; the first column that is an array sets the row count."""
    head, *fields = item.split(b"%")
    item = head + b"".join(c + f[1:] if isinstance(c, bytes) else b"%" + f
                           for c, f in zip(columns, fields))
    columns = tuple(c for c in columns if not isinstance(c, bytes))
    n, c = columns[0].size, len(columns)
    template = b",\n    ".join([item] * 4096)
    flat: list = [None] * (4096 * c)
    for a in range(0, n, 4096):
        if a + 4096 > n:
            template = b",\n    ".join([item] * (n - a))
            flat = flat[:(n - a) * c]
        for k, col in enumerate(columns):
            flat[k::c] = col[a:a + 4096].tolist()
        fh.write(b"\n    " if a == 0 else b",\n    ")
        fh.write(template % tuple(flat))
    fh.write(b"\n  ]" if n else b"]")
    return n


def _write_graph(path: str, xs: np.ndarray, i, j, b, m, deg) -> tuple[int, int]:
    """:func:`write_graph_json` of the distinct vertices xs, given the
    :func:`_assemble` arrays of their rows.  A float column (the written
    edges' b, or m) whose rows share one bit pattern is spelled once,
    into the item template."""
    # the edges of _edges: listed at the smaller end
    keep = xs[i] < xs[j]
    fh = open(path, "wb")
    try:
        with fh:
            fh.write(b'{\n  "edges": [')
            n_edges = _write_array(fh, b'{\n      "b": %s,\n      "u": %d,\n      "v": %d\n    }',
                                   (_spelled(b[keep]), xs[i[keep]], xs[j[keep]]))
            fh.write(b',\n  "vertices": [')
            _write_array(fh, b'{\n      "id": %d,\n      "m": %s\n    }', (xs, _spelled(m)))
            fh.write(b"\n}\n")
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(path)
        raise
    return xs.size, n_edges


def write_graph_json(
    path: str, g: WeightedGraph, vertices: Iterable[int] | None = None
) -> tuple[int, int]:
    """Write graph_to_json(g, vertices) to path without building the document.

    The file holds the same bytes as ``json.dump(doc, fh, indent=2,
    sort_keys=True)`` followed by a newline, ``\\n`` on every platform:
    it is written as bytes, from the arrays of one ``g.block`` call over
    the vertices.  A float column with a single bit pattern (m in every
    shipped family, b in most) is spelled once, into the item template;
    in any other column each distinct float is spelled once.  Each chunk
    of 4096 items is written with one ``%`` on a repeated bytes item
    template.  Returns the vertex and edge counts.  On an error the
    partial file is removed.
    """
    xs = _vertex_list(g, vertices)
    return _write_graph(path, xs, *_assemble(xs, g.block(xs)))
