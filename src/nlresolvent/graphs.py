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
"""

from __future__ import annotations

import contextlib
import json
import math
import os
from dataclasses import dataclass
from collections.abc import Callable, Iterable, Iterator, Mapping
from itertools import islice

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


def materialization_cap(override: int | None = None) -> int:
    """Maximum number of vertices any single materialization may touch.

    Reads the NLRESOLVENT_MAX_VERTICES environment variable (default
    5e6) unless an explicit override is given.
    """
    if override is not None:
        return int(override)
    raw = os.environ.get(_CAP_ENV)
    if raw is None:
        return _CAP_DEFAULT
    try:
        cap = int(raw)
    except ValueError as exc:
        raise GraphError(f"{_CAP_ENV} must be an integer, got {raw!r}") from exc
    if cap <= 0:
        raise GraphError(f"{_CAP_ENV} must be positive, got {cap}")
    return cap


class WeightedGraph:
    """Interface shared by both backends.

    Subclasses provide ``measure``, ``neighbors``, ``degree`` and a
    ``root`` attribute; everything else in this module is written
    against those four.
    """

    root: int

    def measure(self, x: int) -> float:
        raise NotImplementedError

    def neighbors(self, x: int) -> tuple[tuple[int, float], ...]:
        """All (y, b(x, y)) pairs with a stored edge at x, fixed order."""
        raise NotImplementedError

    def degree(self, x: int) -> float:
        """Weighted degree sum_y b(x, y); cached per vertex."""
        raise NotImplementedError


class ExplicitGraph(WeightedGraph):
    """Finite graph stored as an adjacency table.

    The table is kept exactly as handed in, so a malformed document
    (asymmetric weights, nonpositive measures) survives construction
    and is caught by :func:`validate`.  Use :meth:`from_edges` for the
    symmetrizing programmatic path.
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
        self._deg = {
            x: math.fsum(w for _, w in self._adj.get(x, ())) for x in self._m
        }
        self.root = int(root) if root is not None else min(self._m)
        if self.root not in self._m:
            raise GraphError(f"root {self.root} is not a vertex")

    @classmethod
    def from_edges(
        cls,
        edges: Iterable[tuple[int, int, float]],
        measures: Mapping[int, float] | None = None,
        vertices: Iterable[int] | None = None,
        default_measure: float = 1.0,
        root: int | None = None,
    ) -> "ExplicitGraph":
        """Build a graph from undirected edge triples (u, v, b).

        Each triple is stored in both directions, so the result is
        symmetric by construction.  Vertices not mentioned in
        ``measures`` get ``default_measure``; ``vertices`` may add
        isolated ones.
        """
        adj: dict[int, dict[int, float]] = {}
        seen: set[int] = set(int(v) for v in vertices) if vertices else set()
        for u, v, w in edges:
            u, v, w = int(u), int(v), float(w)
            if u == v:
                raise GraphError(f"self-loop at {u} (diagonal must be zero)")
            if w < 0:
                raise GraphError(f"negative weight b({u},{v}) = {w}")
            seen.add(u)
            seen.add(v)
            if w == 0.0:
                continue  # zero weight means no edge
            adj.setdefault(u, {})[v] = w
            adj.setdefault(v, {})[u] = w
        m = {x: default_measure for x in seen}
        if measures:
            for x, mv in measures.items():
                m[int(x)] = float(mv)
                seen.add(int(x))
        for x in seen:
            m.setdefault(x, default_measure)
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
    """Infinite (or just implicit) graph given by a neighbor rule.

    ``neighbor_rule(x)`` returns the (y, b(x, y)) pairs at x and
    ``measure_rule(x)`` the vertex measure; results are memoized the
    first time a vertex is touched.  The rule must be
    symmetric; :func:`validate` can spot-check that on any probe set.
    """

    def __init__(
        self,
        root: int,
        neighbor_rule: Callable[[int], Iterable[tuple[int, float]]],
        measure_rule: Callable[[int], float] | None = None,
        name: str = "procedural",
    ):
        self.root = int(root)
        self.name = name
        self._nbr_rule = neighbor_rule
        self._m_rule = measure_rule
        self._nbrs: dict[int, tuple[tuple[int, float], ...]] = {}
        self._deg: dict[int, float] = {}
        self._m: dict[int, float] = {}

    def _materialize(self, x: int) -> None:
        nbrs = tuple([(int(y), float(w)) for y, w in self._nbr_rule(x)])
        for y, w in nbrs:
            if y == x:
                raise GraphError(f"neighbor rule produced a self-loop at {x}")
            if w < 0:
                raise GraphError(f"neighbor rule produced b({x},{y}) = {w} < 0")
        m = 1.0 if self._m_rule is None else float(self._m_rule(x))
        self._nbrs[x] = nbrs
        self._deg[x] = math.fsum([w for _, w in nbrs])
        self._m[x] = m

    def measure(self, x: int) -> float:
        if x not in self._m:
            self._materialize(x)
        return self._m[x]

    def neighbors(self, x: int) -> tuple[tuple[int, float], ...]:
        if x not in self._nbrs:
            self._materialize(x)
        return self._nbrs[x]

    def degree(self, x: int) -> float:
        if x not in self._deg:
            self._materialize(x)
        return self._deg[x]


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


@dataclass(frozen=True)
class ValidationReport:
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
    nonzero term because u is finitely supported.
    """
    ux = u(x)
    acc = 0.0
    for y, w in g.neighbors(x):
        acc += w * (ux - u(y))
    return acc / g.measure(x)


def energy(g: WeightedGraph, u: VertexFunction, v: VertexFunction) -> float:
    """Bilinear graph energy Q(u, v) = 1/2 sum_{x,y} b(x,y)(u(x)-u(y))(v(x)-v(y)).

    Evaluated over edges incident to supp u union supp v.  An ordered
    pair with both ends in that set is visited twice (hence the half
    weight); a pair with one end outside it is visited once but equals
    its mirror term, so it enters with full weight.
    """
    spt = set(u.support) | set(v.support)
    acc = 0.0
    for x in spt:
        ux, vx = u(x), v(x)
        for y, w in g.neighbors(x):
            if w == 0.0:
                continue
            term = w * (ux - u(y)) * (vx - v(y))
            acc += 0.5 * term if y in spt else term
    return acc


def ball(
    g: WeightedGraph,
    root: int,
    radius: int,
    max_vertices: int | None = None,
) -> list[int]:
    """Vertices reachable from root in at most ``radius`` edges with b > 0.

    Returned in breadth-first discovery order (deterministic given the
    graph's neighbor order), so balls around the same root are nested
    as prefixes.  Raises GraphError when the materialization cap is
    exceeded.
    """
    if radius < 0:
        raise GraphError(f"radius must be >= 0, got {radius}")
    cap = materialization_cap(max_vertices)
    seen = {root}
    out = [root]
    frontier = [root]
    for _ in range(radius):
        if not frontier:
            break
        nxt = []
        for x in frontier:
            for y, w in g.neighbors(x):
                if w > 0.0 and y not in seen:
                    seen.add(y)
                    out.append(y)
                    nxt.append(y)
                    if len(out) > cap:
                        raise GraphError(
                            f"materialization cap exceeded: ball({root}, {radius}) "
                            f"has more than {cap} vertices (set {_CAP_ENV} to raise it)"
                        )
        frontier = nxt
    return out


def validate(g: WeightedGraph, probe: Iterable[int]) -> ValidationReport:
    """Check the graph axioms on a finite probe set.

    Verifies m > 0 and finite, b >= 0 and finite, a zero diagonal,
    finite weighted degrees, and exact symmetry b(x, y) = b(y, x) for
    every edge leaving the probe set (the mirror endpoint is
    materialized if needed).
    """
    failures: list[str] = []
    for x in probe:
        try:
            m = g.measure(x)
        except GraphError as exc:
            failures.append(str(exc))
            continue
        if not math.isfinite(m) or m <= 0.0:
            failures.append(f"measure positivity at {x}: m({x}) = {m!r}")
        nbrs = g.neighbors(x)
        if not math.isfinite(g.degree(x)):
            failures.append(f"degree at {x} is not finite")
        for y, w in nbrs:
            if y == x:
                failures.append(f"diagonal at {x}: b({x},{x}) = {w!r} stored")
                continue
            if not math.isfinite(w) or w < 0.0:
                failures.append(f"weight at ({x},{y}): b = {w!r}")
                continue
            back = edge_weight(g, y, x)
            if back != w:
                failures.append(
                    f"symmetry at ({x},{y}): b({x},{y}) = {w!r} but b({y},{x}) = {back!r}"
                )
    return ValidationReport(ok=not failures, failures=tuple(failures))


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


def _vertex_list(g: WeightedGraph, vertices: Iterable[int] | None) -> list[int]:
    if vertices is None:
        if not isinstance(g, ExplicitGraph):
            raise GraphError("procedural graphs need an explicit vertex list to serialize")
        return g.vertices()
    return list(dict.fromkeys(int(v) for v in vertices))


def _edges(g: WeightedGraph, verts: list[int]) -> Iterator[tuple[int, int, float]]:
    """(x, y, b) for each undirected edge with both ends in verts, listed once."""
    vset = set(verts)
    for x in verts:
        for y, w in g.neighbors(x):
            if y in vset and x < y and w > 0.0:
                yield x, y, w


def graph_to_json(g: WeightedGraph, vertices: Iterable[int] | None = None) -> dict:
    """Serialize (a finite piece of) a graph to the JSON document form."""
    verts = _vertex_list(g, vertices)
    rows = [{"id": x, "m": g.measure(x)} for x in verts]
    edges = [{"u": x, "v": y, "b": w} for x, y, w in _edges(g, verts)]
    return {"vertices": rows, "edges": edges}


def _json_number(v: float) -> str:
    # the spelling json.dumps gives a float, non-finite values included
    if math.isfinite(v):
        return repr(v)
    return "NaN" if v != v else ("Infinity" if v > 0 else "-Infinity")


def _write_array(fh, items: Iterator[str]) -> int:
    """Write an indent=2 JSON array, one level deep, of preformatted items."""
    n = 0
    sep = "\n    "
    while chunk := list(islice(items, 4096)):
        fh.write(sep + ",\n    ".join(chunk))
        sep = ",\n    "
        n += len(chunk)
    fh.write("\n  ]" if n else "]")
    return n


def write_graph_json(
    path: str, g: WeightedGraph, vertices: Iterable[int] | None = None
) -> tuple[int, int]:
    """Write graph_to_json(g, vertices) to path without building the document.

    The file holds the same bytes as ``json.dump(doc, fh, indent=2,
    sort_keys=True)`` followed by a newline, streamed straight from the
    graph.  Returns the vertex and edge counts.  On an error the partial
    file is removed.
    """
    verts = _vertex_list(g, vertices)
    edges = (
        f'{{\n      "b": {_json_number(w)},\n      "u": {x},\n      "v": {y}\n    }}'
        for x, y, w in _edges(g, verts)
    )
    rows = (
        f'{{\n      "id": {x},\n      "m": {_json_number(g.measure(x))}\n    }}'
        for x in verts
    )
    fh = open(path, "w", encoding="utf-8")
    try:
        with fh:
            fh.write('{\n  "edges": [')
            n_edges = _write_array(fh, edges)
            fh.write(',\n  "vertices": [')
            _write_array(fh, rows)
            fh.write("\n}\n")
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(path)
        raise
    return len(verts), n_edges
