"""Canonical graph families and independent solution oracles.

The families cover the phenomena the package is about: the integer
lattice (bounded deg/m, conservative), rapidly growing birth-death
chains (the standard non-conservative examples), trees, and seeded
random sparse graphs for cross-validation runs.  The two oracles solve
the same problems as the Dirichlet solver by entirely different means:
a dense direct linear solve for phi = identity, and exhaustive grid
search plus coordinate refinement on the raw energy for up to three
unknowns.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_right
from dataclasses import dataclass, field
from collections.abc import Callable

import numpy as np

from .graphs import (
    ExplicitGraph,
    GraphError,
    ProceduralGraph,
    VertexFunction,
    WeightedGraph,
    _ids,
    _require_int64,
)
from .nonlinearity import Nonlinearity
from .solver import Potential, energy_functional

__all__ = [
    "GraphFamily",
    "generate",
    "family_from_spec",
    "lattice_z",
    "finite_path",
    "birth_death",
    "geometric_chain",
    "symmetric_tree",
    "complete_graph",
    "star",
    "random_sparse",
    "linear_oracle",
    "brute_force_minimizer",
    "micro_suite",
]

_DENSE_CAP = 2000
_GRID_POINTS = 17
_COORD_TOL = 1e-7


@dataclass(frozen=True)
class GraphFamily:
    """Named family plus parameters; ``generate`` realizes it."""

    kind: str
    params: dict = field(default_factory=dict)


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

    return ProceduralGraph(root=0, block_rule=rows, ball_rule=ball, name="lattice-z")


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

    return ProceduralGraph(root=0, block_rule=rows, ball_rule=ball, measure_rule=m_rule,
                           name="birth-death")


def geometric_chain(rate: float) -> ProceduralGraph:
    """Birth-death chain with b(n, n+1) = rate**n, unit measure."""
    if rate <= 0:
        raise ValueError(f"rate must be positive, got {rate}")
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

    return ProceduralGraph(root=0, block_rule=rows, ball_rule=ball, name="symmetric-tree")


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
    if not (0.0 < wlo <= whi):
        raise ValueError(f"weight range must be positive, got {weight_range}")
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


def generate(family: GraphFamily) -> WeightedGraph:
    """Realize a family; procedural kinds come back lazy, the rest explicit."""
    kind = family.kind
    p = family.params
    if kind == "lattice-Z":
        return lattice_z()
    if kind == "finite-path":
        return finite_path(int(p["n"]))
    if kind == "birth-death":
        return geometric_chain(float(p["rate"]))
    if kind == "symmetric-tree":
        return symmetric_tree(p["branching"])
    if kind == "complete":
        return complete_graph(int(p["n"]))
    if kind == "star":
        return star(int(p["k"]))
    if kind == "random-sparse":
        return random_sparse(
            int(p["n"]),
            float(p["density"]),
            (float(p.get("wmin", 0.5)), float(p.get("wmax", 2.0))),
            int(p.get("seed", 0)),
        )
    raise ValueError(f"unknown graph family {kind!r}")


def family_from_spec(spec: str) -> GraphFamily:
    """Parse the CLI family syntax.

    Forms: ``lattice-z``, ``finite-path:N``, ``complete:N``, ``star:K``,
    ``birth-death:RATE``, ``tree:K``, and
    ``random-sparse:n=20,density=0.3,wmin=0.5,wmax=2,seed=7``.
    """
    spec = spec.strip()
    head, _, rest = spec.partition(":")
    head = head.lower()
    if head in ("lattice-z", "lattice_z", "z"):
        return GraphFamily("lattice-Z")
    if head == "finite-path":
        return GraphFamily("finite-path", {"n": int(rest)})
    if head == "complete":
        return GraphFamily("complete", {"n": int(rest)})
    if head == "star":
        return GraphFamily("star", {"k": int(rest)})
    if head == "birth-death":
        return GraphFamily("birth-death", {"rate": float(rest)})
    if head == "tree":
        return GraphFamily("symmetric-tree", {"branching": int(rest)})
    if head == "random-sparse":
        params: dict = {}
        for item in rest.split(","):
            if not item:
                continue
            key, _, val = item.partition("=")
            params[key.strip()] = val.strip()
        if "n" not in params or "density" not in params:
            raise ValueError(f"random-sparse needs n= and density=, got {spec!r}")
        return GraphFamily("random-sparse", params)
    raise ValueError(f"unknown graph spec {spec!r}")


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
