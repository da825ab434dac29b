"""The graph families, and the spec strings that name them.

The families cover the phenomena the package is about: the integer
lattice (bounded deg/m, conservative), rapidly growing birth-death
chains (the standard non-conservative examples), trees, and seeded
random sparse graphs for cross-validation runs.  The infinite ones are
procedural: block rules over numpy arrays, with their balls in closed
form.  :func:`generate` builds a family's graph from its spec, the
``--graph`` syntax of the CLI.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_right
from collections.abc import Callable

import numpy as np

from .graphs import ExplicitGraph, GraphError, ProceduralGraph, WeightedGraph, _require_int64

__all__ = [
    "lattice_z",
    "finite_path",
    "birth_death",
    "geometric_chain",
    "symmetric_tree",
    "complete_graph",
    "star",
    "random_sparse",
    "generate",
]

_AROUND = np.array([-1, 1], dtype=np.int64)


def _first_negative(xs: np.ndarray) -> int:
    return int(xs[np.argmax(xs < 0)])


def _line_rows(xs: np.ndarray):
    """src, ys for rows listing x - 1, then x + 1."""
    return np.arange(xs.size).repeat(2), (xs[:, None] + _AROUND).ravel()


def lattice_z() -> ProceduralGraph:
    """The integer line with unit weights and unit measure; deg = 2 everywhere.

    Its balls are known in closed form: around x0, layer k is x0 - k,
    then x0 + k.
    """

    def rows(xs: np.ndarray):
        if xs.size:
            _require_int64(int(xs.min()) - 1, int(xs.max()) + 1)
        src, ys = _line_rows(xs)
        return src, ys, np.ones(ys.size)

    def ball(root: int, radius: int, cap: int):
        r = min(radius, (cap + 1) // 2)  # 2r + 1 vertices: the first ball over cap
        _require_int64(root - r, root + r)
        ends = 2 * np.arange(r + 1, dtype=np.int64) + 1
        if ends[-1] > cap:
            return None, ends
        order = np.full(2 * r + 1, root, dtype=np.int64)
        k = np.arange(1, r + 1, dtype=np.int64)
        order[1::2] -= k
        order[2::2] += k
        return order, ends

    return ProceduralGraph(root=0, block_rule=rows, ball_rule=ball)


def finite_path(n: int) -> ExplicitGraph:
    """Path on vertices 0..n-1 with unit weights and unit measure."""
    if n < 1:
        raise ValueError(f"finite_path needs n >= 1, got {n}")
    edges = [(i, i + 1, 1.0) for i in range(n - 1)]
    return ExplicitGraph.from_edges(edges, vertices=range(n), root=0)


def birth_death(
    b_rule: Callable[[int], float],
    m_rule: Callable[[int], float] | None = None,
) -> ProceduralGraph:
    """Chain on {0, 1, 2, ...} with b(n, n+1) = b_rule(n), measure m_rule.

    Vertex 0 has the single edge b_rule(0); vertex n >= 1 also sees
    b_rule(n-1) toward its parent, listed first.  b_rule is called once
    per row entry, in row order, and m_rule once per vertex.  The ball
    of radius r around 0 is 0..r unless a weight below it is not
    positive, which the rows read show.  A weight past the float range
    raises GraphError naming its edge.
    """

    def weight(n: int) -> float:
        try:
            return float(b_rule(n))
        except OverflowError:
            raise GraphError(f"b({n}, {n + 1}) overflows a float") from None

    def rows(xs: np.ndarray):
        if xs.size:
            if xs.min() < 0:
                raise GraphError(
                    f"birth-death chains live on the nonnegative integers, got {_first_negative(xs)}")
            _require_int64(int(xs.max()) + 1)
        src, ys = _line_rows(xs)
        keep = ys >= 0  # vertex 0 has no parent
        src, ys = src[keep], ys[keep]
        ws = np.array([weight(n) for n in np.minimum(xs[src], ys).tolist()], dtype=float)
        return src, ys, ws

    def ball(root: int, radius: int, cap: int):
        # 0..radius is over the cap only where no weight below it is 0: the search decides
        if root != 0 or radius >= cap:
            return None
        return np.arange(radius + 1, dtype=np.int64), np.arange(1, radius + 2, dtype=np.int64)

    return ProceduralGraph(root=0, block_rule=rows, ball_rule=ball, measure_rule=m_rule)


def geometric_chain(rate: float) -> ProceduralGraph:
    """Birth-death chain with b(n, n+1) = rate**n, unit measure."""
    if not 0 < rate < math.inf:
        raise ValueError(f"rate must be positive and finite, got {rate}")
    return birth_death(lambda n: rate**n)


def symmetric_tree(branching: int | Callable[[int], int]) -> ProceduralGraph:
    """Rooted tree whose branching depends only on depth, unit weights.

    Vertices use breadth-first integer coding: depth d occupies the id
    block [offset_d, offset_{d+1}) where the block sizes follow the
    branching rule.  A constant int gives the usual k-ary tree.  A
    vertex's row lists its parent first, then its children in order, so
    the ball of radius r around 0 is the id range [0, offset_{r+1}).
    """
    if isinstance(branching, int):
        k = branching
        if k < 1:
            raise ValueError(f"branching must be >= 1, got {k}")
        rule = lambda depth: k
    else:
        rule = branching

    offsets = [0, 1]  # offsets[d] = first id at depth d
    ks: list[int] = []  # ks[d] = branching at depth d, so len(ks) == len(offsets) - 2

    def _grow() -> None:
        d = len(ks)
        k = int(rule(d))
        if k < 1:
            raise GraphError(f"branching rule gave {k} at depth {d}")
        ks.append(k)
        offsets.append(offsets[-1] + (offsets[-1] - offsets[-2]) * k)

    def rows(xs: np.ndarray):
        if not xs.size:
            return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64), np.zeros(0)
        if xs.min() < 0:
            raise GraphError(f"tree ids are nonnegative, got {_first_negative(xs)}")
        top = int(xs.max())
        # offsets[-2] > top means every depth in xs already has its branching
        while offsets[-2] <= top:
            _grow()
        d_top = bisect_right(offsets, top) - 1
        _require_int64(offsets[d_top + 1] + (top - offsets[d_top] + 1) * ks[d_top] - 1)
        offs = np.array(offsets[: d_top + 2], dtype=np.int64)
        kk = np.array(ks[: d_top + 1], dtype=np.int64)
        d = np.searchsorted(offs, xs, side="right") - 1  # each vertex's depth
        k, i = kk[d], xs - offs[d]  # its branching and its index in its depth
        up = d > 0
        count = k + up
        start = np.cumsum(count) - count
        # the children of row r are offs[d + 1] + i * k onward, after the
        # parent, so entry e of row r reads e plus row r's value here
        ys = (offs[d + 1] + i * k - start - up).repeat(count)
        ys += np.arange(ys.size)
        # the parent, offs[d - 1] + i // kk[d - 1], where d > 0 (at the
        # root d - 1 = -1 reads the last entries, into a value nothing reads)
        d -= 1
        i //= kk[d]
        i += offs[d]
        ys[start[up]] = i[up]
        # src after ys: in a cold process the allocator then serves src and
        # ws from heap pages that the solves reuse, not from fresh mappings
        return np.arange(xs.size).repeat(count), ys, np.ones(ys.size)

    def ball(root: int, radius: int, cap: int):
        if root != 0:
            return None
        # offsets[d + 1] is the size of the ball of radius d
        while len(offsets) < radius + 2 and offsets[-1] <= cap:
            _grow()
        ends = np.array(offsets[1:radius + 2], dtype=np.int64)
        return (np.arange(ends[-1], dtype=np.int64) if ends[-1] <= cap else None), ends

    return ProceduralGraph(root=0, block_rule=rows, ball_rule=ball)


def complete_graph(n: int) -> ExplicitGraph:
    if n < 1:
        raise ValueError(f"complete graph needs n >= 1, got {n}")
    edges = [(i, j, 1.0) for i in range(n) for j in range(i + 1, n)]
    return ExplicitGraph.from_edges(edges, vertices=range(n), root=0)


def star(k: int) -> ExplicitGraph:
    """Center 0 with k unit spokes to 1..k."""
    if k < 0:
        raise ValueError(f"star needs k >= 0 spokes, got {k}")
    edges = [(0, i, 1.0) for i in range(1, k + 1)]
    return ExplicitGraph.from_edges(edges, vertices=range(k + 1), root=0)


def random_sparse(
    n: int,
    density: float,
    weight_range: tuple[float, float] = (0.5, 2.0),
    seed: int = 0,
) -> ExplicitGraph:
    """Connected random graph: spanning tree overlay plus density edges.

    A uniformly chosen attachment tree guarantees connectivity; every
    remaining pair then appears independently with the given density.
    Weights are uniform in weight_range, measures are 1.  Deterministic
    for a fixed seed.
    """
    if n < 1:
        raise ValueError(f"random_sparse needs n >= 1, got {n}")
    if not (0.0 < density <= 1.0):
        raise ValueError(f"density must lie in (0, 1], got {density}")
    wlo, whi = weight_range
    if not (0.0 < wlo <= whi < math.inf):
        raise ValueError(f"weight range must be positive and finite, got {weight_range}")
    rng = random.Random(seed)
    edges: dict[tuple[int, int], float] = {}
    verts = list(range(n))
    rng.shuffle(verts)
    for i in range(1, n):
        a = verts[rng.randrange(i)]
        b = verts[i]
        key = (min(a, b), max(a, b))
        edges[key] = rng.uniform(wlo, whi)
    for i in range(n):
        for j in range(i + 1, n):
            if (i, j) in edges:
                continue
            if rng.random() < density:
                edges[(i, j)] = rng.uniform(wlo, whi)
    return ExplicitGraph.from_edges(
        [(a, b, w) for (a, b), w in sorted(edges.items())], vertices=range(n), root=0
    )


# the families whose spec takes one number, and the type of that number
_ONE_NUMBER = {
    "finite-path": (finite_path, int),
    "complete": (complete_graph, int),
    "star": (star, int),
    "birth-death": (geometric_chain, float),
    "tree": (symmetric_tree, int),
}
_SPARSE_KEYS = {"n", "density", "wmin", "wmax", "seed"}


def generate(spec: str, seed: int = 0) -> WeightedGraph:
    """The graph of a family spec; procedural families come back lazy.

    Forms: lattice-z (or lattice_z, z), finite-path:N, complete:N,
    star:K, birth-death:RATE, tree:K, or
    random-sparse:n=N,density=D[,wmin=A][,wmax=B][,seed=S] (weights
    uniform in [A, B], 0.5 and 2 by default).  The family name's case
    does not matter.  A random-sparse spec without ``seed=`` takes
    ``seed``.  An unknown family, a parameter that is missing, extra,
    repeated or malformed, or one its constructor rejects raises
    ValueError naming the spec.
    """
    head, _, rest = spec.strip().partition(":")
    head = head.lower()
    try:
        if head in ("lattice-z", "lattice_z", "z"):
            if rest:
                raise ValueError("lattice-z takes no parameter")
            return lattice_z()
        if head in _ONE_NUMBER:
            make, kind = _ONE_NUMBER[head]
            return make(kind(rest))
        if head == "random-sparse":
            params = {}
            for item in filter(None, rest.split(",")):
                key, _, val = (part.strip() for part in item.partition("="))
                if key in params:
                    raise ValueError(f"random-sparse repeats {key!r}")
                params[key] = val
            extra = sorted(params.keys() - _SPARSE_KEYS)
            if extra:
                raise ValueError(f"random-sparse has no parameter {extra[0]!r}")
            if "n" not in params or "density" not in params:
                raise ValueError("random-sparse needs n= and density=")
            return random_sparse(
                int(params["n"]),
                float(params["density"]),
                (float(params.get("wmin", 0.5)), float(params.get("wmax", 2.0))),
                int(params.get("seed", seed)),
            )
    except ValueError as exc:
        raise ValueError(f"graph spec {spec!r}: {exc}") from None
    raise ValueError(f"unknown graph spec {spec!r}")
