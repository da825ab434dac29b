"""The array path of the graph layer against a per-vertex reference.

The reference is the breadth-first loop and the assembly that walked
``neighbors`` one vertex at a time, run on graphs that read the
families' per-vertex neighbor rules one vertex at a time (``RuleGraph``,
with its own checks and its own loop for the degree); the array path
runs ``block`` on the families themselves.  Orders, sizes and arrays
must agree bit for bit.
"""

import json
import math
import struct
import tracemalloc
from bisect import bisect_right

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nlresolvent import (
    DEFAULT_ALPHA_GRID,
    ExplicitGraph,
    GraphError,
    Potential,
    ProceduralGraph,
    VertexFunction,
    WeightedGraph,
    ball,
    birth_death,
    classify,
    edge_weight,
    energy,
    energy_functional,
    graph_to_json,
    bounded_atan,
    identity,
    laplacian_apply,
    large_potential,
    lattice_z,
    linear_oracle,
    make_exhaustion,
    materialization_cap,
    odd_power,
    path_criterion,
    residual,
    symmetric_tree,
    validate,
    write_graph_json,
)
from nlresolvent import cli
from nlresolvent.graphs import _positions
from nlresolvent.nonlinearity import RangeError
from nlresolvent.solver import _Ratio

# --- per-vertex reference --------------------------------------------------


def row_sum(ws):
    """The weights ws added in their order, from 0.0: the degree rule."""
    acc = 0.0
    for w in ws:
        acc += w
    return acc


class RuleGraph(WeightedGraph):
    """A graph read from a per-vertex neighbor rule one vertex at a time:
    each row converted to (int, float) pairs, checked, summed in
    neighbor order from 0.0 and memoized."""

    def __init__(self, root, rule, measure_rule=None):
        self.root, self._rule, self._m_rule = root, rule, measure_rule
        self._rows, self._m, self._deg = {}, {}, {}

    def _materialize(self, x):
        if x in self._rows:
            return
        nbrs = tuple([(int(y), float(w)) for y, w in self._rule(x)])
        for y, w in nbrs:
            if y == x:
                raise GraphError(f"neighbor rule produced a self-loop at {x}")
            if not math.isfinite(w):
                raise GraphError(f"neighbor rule produced b({x},{y}) = {w}, which is not finite")
            if w < 0:
                raise GraphError(f"neighbor rule produced b({x},{y}) = {w} < 0")
        self._m[x] = 1.0 if self._m_rule is None else float(self._m_rule(x))
        self._deg[x] = row_sum([w for _, w in nbrs])
        self._rows[x] = nbrs

    def neighbors(self, x):
        self._materialize(x)
        return self._rows[x]

    def measure(self, x):
        self._materialize(x)
        return self._m[x]

    def degree(self, x):
        self._materialize(x)
        return self._deg[x]


def ref_ball(g, root, radius, max_vertices=None):
    cap = materialization_cap(max_vertices)
    seen, out, frontier = {root}, [root], [root]
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
                            f"has more than {cap} vertices "
                            f"(set NLRESOLVENT_MAX_VERTICES to raise it)")
        frontier = nxt
    return out


def ref_assemble(g, order):
    index = {x: i for i, x in enumerate(order)}
    cols, b, counts = [], [], []
    for x in order:
        k = len(cols)
        for y, w in g.neighbors(x):
            j = index.get(y)
            if j is not None and w > 0.0:
                cols.append(j)
                b.append(w)
        counts.append(len(cols) - k)
    rows = np.repeat(np.arange(len(order)), counts)
    m = np.array([g.measure(x) for x in order], dtype=float)
    deg = np.array([g.degree(x) for x in order], dtype=float)
    return rows, np.array(cols, dtype=np.intp), np.array(b, dtype=float), m, deg


def ref_energy(g, u, v):
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


def ref_exhaustion(g, root, radii, max_vertices=None):
    sizes = []
    for r in radii:
        try:
            order = ref_ball(g, root, r, max_vertices)
        except GraphError as exc:
            raise GraphError(f"exhaustion step at radius {r}: {exc}") from exc
        sizes.append(len(order))
    return tuple(sizes), tuple(order), ref_assemble(g, order)


# the families' per-vertex neighbor rules


def lattice_rule(x):
    return ((x - 1, 1.0), (x + 1, 1.0))


def chain_rule(b_rule):
    def nbrs(x):
        if x < 0:
            raise GraphError(f"birth-death chains live on the nonnegative integers, got {x}")
        out = []
        if x > 0:
            out.append((x - 1, float(b_rule(x - 1))))
        out.append((x + 1, float(b_rule(x))))
        return tuple(out)
    return nbrs


def tree_rule(branching):
    rule = (lambda d: branching) if isinstance(branching, int) else branching
    offsets, ks = [0, 1], []

    def nbrs(v):
        if v < 0:
            raise GraphError(f"tree ids are nonnegative, got {v}")
        while offsets[-2] <= v:
            d = len(ks)
            k = int(rule(d))
            if k < 1:
                raise GraphError(f"branching rule gave {k} at depth {d}")
            ks.append(k)
            offsets.append(offsets[-1] + (offsets[-1] - offsets[-2]) * k)
        d = bisect_right(offsets, v) - 1
        i = v - offsets[d]
        first = offsets[d + 1] + i * ks[d]
        out = [(y, 1.0) for y in range(first, first + ks[d])]
        if d > 0:
            out.insert(0, (offsets[d - 1] + i // ks[d - 1], 1.0))
        return tuple(out)
    return nbrs


def as_block_rule(rule):
    """A block rule made of a per-vertex rule, for faulty test graphs."""
    def rows(xs):
        per = [tuple(rule(x)) for x in xs.tolist()]
        src = np.repeat(np.arange(len(per)), [len(r) for r in per])
        ys = np.array([y for r in per for y, _ in r], dtype=np.int64)
        ws = np.array([w for r in per for _, w in r], dtype=float)
        return src, ys, ws
    return rows


def chain15(n):
    return (n + 1.0) ** 1.5


def scalar_path(x):
    # a scalar-rule graph: a path with uneven weights and three-term rows
    return tuple((y, 0.1 * (min(x, y) + 1)) for y in (x - 2, x - 1, x + 1) if y >= 0)


# name -> (array-path graph, per-vertex reference graph, radii)
FAMILIES = {
    "tree:2": (lambda: symmetric_tree(2),
               lambda: RuleGraph(0, tree_rule(2)), (0, 2, 5, 9)),
    "tree:3": (lambda: symmetric_tree(3),
               lambda: RuleGraph(0, tree_rule(3)), (1, 3, 6)),
    "tree:1+d%3": (lambda: symmetric_tree(lambda d: 1 + d % 3),
                   lambda: RuleGraph(0, tree_rule(lambda d: 1 + d % 3)), (2, 5, 9)),
    "lattice-z": (lattice_z, lambda: RuleGraph(0, lattice_rule), (1, 12, 25, 50)),
    "birth-death:4": (lambda: birth_death(lambda n: 4.0**n),
                      lambda: RuleGraph(0, chain_rule(lambda n: 4.0**n)), (5, 10, 40)),
    "birth-death:(n+1)^1.5": (
        lambda: birth_death(chain15, m_rule=lambda n: 1.0 + n % 3),
        lambda: RuleGraph(0, chain_rule(chain15), measure_rule=lambda n: 1.0 + n % 3),
        (3, 30)),
    "scalar-rule": (lambda: ProceduralGraph(0, scalar_path),
                    lambda: RuleGraph(0, scalar_path), (1, 4, 9)),
}


def bits(a):
    a = np.asarray(a)
    return a.dtype.str, a.shape, a.tobytes()


# --- ball, exhaustion and writer against the reference -----------------------


@pytest.mark.parametrize("name", FAMILIES)
def test_ball_order_matches_reference(name):
    fast, ref, radii = FAMILIES[name]
    for r in radii:
        assert ball(fast(), 0, r) == ref_ball(ref(), 0, r)


@pytest.mark.parametrize("name", FAMILIES)
def test_exhaustion_arrays_match_reference_bit_for_bit(name):
    fast, ref, radii = FAMILIES[name]
    ex = make_exhaustion(fast(), 0, radii)
    sizes, order, arrays = ref_exhaustion(ref(), 0, radii)
    assert ex.sizes == sizes
    assert tuple(ex.order.tolist()) == order
    for got, want in zip((ex.rows, ex.cols, ex.b, ex.m, ex.deg), arrays):
        assert bits(got) == bits(want)


@pytest.mark.parametrize("name", FAMILIES)
def test_inner_balls_are_read_off_the_exhaustion(name):
    fast, ref, radii = FAMILIES[name]
    ex = make_exhaustion(fast(), 0, radii)
    for r in range(radii[-1] + 1):
        assert ex.order[:ex.size(r)].tolist() == ref_ball(ref(), 0, r)


@pytest.mark.parametrize("name", FAMILIES)
def test_graph_writer_matches_reference_document(name, tmp_path):
    fast, ref, radii = FAMILIES[name]
    verts = ref_ball(ref(), 0, radii[-1])
    path = tmp_path / "graph.json"
    counts = write_graph_json(str(path), fast(), verts)
    doc = graph_to_json(ref(), verts)
    assert path.read_text(encoding="utf-8") == json.dumps(doc, indent=2, sort_keys=True) + "\n"
    assert counts == (len(doc["vertices"]), len(doc["edges"]))


# --- errors keep their text and radius ----------------------------------------


def self_loop_at_7(x):
    return ((x, 1.0),) if x == 7 else lattice_rule(x)


def negative_at_5(x):
    return tuple((y, -0.5 if {x, y} == {5, 6} else 1.0) for y, _ in lattice_rule(x))


def weight_at_5(w):
    # lattice-z with b(5, 6) = w
    return lambda x: tuple((y, w if {x, y} == {5, 6} else 1.0) for y, _ in lattice_rule(x))


# name -> (array-path graph, reference graph, root, radii, max_vertices)
FAULTS = {
    "self-loop": (lambda: ProceduralGraph(0, block_rule=as_block_rule(self_loop_at_7)),
                  lambda: RuleGraph(0, self_loop_at_7), 0, (2, 5, 8, 12), None),
    "self-loop-outer-layer": (lambda: ProceduralGraph(0, block_rule=as_block_rule(self_loop_at_7)),
                              lambda: RuleGraph(0, self_loop_at_7), 0, (3, 7), None),
    # ball(7) reads no row of layer 7, the exhaustion reads them all
    "self-loop-outer-layer-ruled": (
        lambda: ProceduralGraph(0, block_rule=as_block_rule(self_loop_at_7),
                                ball_rule=lattice_ball),
        lambda: RuleGraph(0, self_loop_at_7), 0, (3, 7), None),
    "negative-weight": (lambda: ProceduralGraph(0, block_rule=as_block_rule(negative_at_5)),
                        lambda: RuleGraph(0, negative_at_5), 0, (1, 4, 9), None),
    "nan-weight": (lambda: ProceduralGraph(0, block_rule=as_block_rule(weight_at_5(math.nan))),
                   lambda: RuleGraph(0, weight_at_5(math.nan)), 0, (1, 4, 9), None),
    "inf-weight": (lambda: ProceduralGraph(0, block_rule=as_block_rule(weight_at_5(math.inf))),
                   lambda: RuleGraph(0, weight_at_5(math.inf)), 0, (1, 4, 9), None),
    "negative-tree-id": (lambda: symmetric_tree(2),
                         lambda: RuleGraph(0, tree_rule(2)), -3, (0, 2), None),
    "negative-chain-id": (lambda: birth_death(chain15),
                          lambda: RuleGraph(0, chain_rule(chain15)), -1, (1, 3), None),
    "branching-below-1": (lambda: symmetric_tree(lambda d: 0 if d == 3 else 2),
                          lambda: RuleGraph(0, tree_rule(lambda d: 0 if d == 3 else 2)),
                          0, (1, 2, 3, 6), None),
    "cap": (lambda: symmetric_tree(2), lambda: RuleGraph(0, tree_rule(2)),
            0, (1, 3, 5, 8), 40),
    "cap-lattice": (lattice_z, lambda: RuleGraph(0, lattice_rule), 0, (1, 60), 20),
}


@pytest.mark.parametrize("name", FAULTS)
def test_exhaustion_errors_match_reference(name):
    fast, ref, root, radii, cap = FAULTS[name]
    with pytest.raises(GraphError) as want:
        ref_exhaustion(ref(), root, radii, cap)
    with pytest.raises(GraphError) as got:
        make_exhaustion(fast(), root, radii, max_vertices=cap)
    assert str(got.value) == str(want.value)


@pytest.mark.parametrize("name", FAULTS)
def test_ball_errors_match_reference(name):
    fast, ref, root, radii, cap = FAULTS[name]
    with pytest.raises(GraphError) as want:
        for r in radii:
            ref_assemble(ref(), ref_ball(ref(), root, r, cap))
    with pytest.raises(GraphError) as got:
        for r in radii:
            g = fast()
            g.block(np.array(ball(g, root, r, cap)))
    assert str(got.value) == str(want.value)


def asymmetric_at_3(x):
    return tuple((y, 2.0 if (x, y) == (3, 4) else 1.0) for y, _ in lattice_rule(x))


def outcome(call):
    try:
        return str(call())
    except GraphError as exc:
        return f"GraphError: {exc}"


@pytest.mark.parametrize("rule", [lattice_rule, asymmetric_at_3, negative_at_5, self_loop_at_7],
                         ids=lambda rule: rule.__name__)
def test_validate_matches_reference(rule):
    probe = [0, 2, 3, 4, -1, 9, 3, 6]
    fast = outcome(lambda: validate(ProceduralGraph(0, block_rule=as_block_rule(rule)), probe))
    assert fast == outcome(lambda: validate(RuleGraph(0, rule), probe))


def no_row_at_5(x):
    if x == 5:
        raise GraphError("no row at 5")
    return lattice_rule(x)


def test_validate_reports_a_mirror_row_error():
    # the row of a neighbor, read for the symmetry check, fails as a
    # probe vertex's own row does: as that edge's failure, not raised
    g = ProceduralGraph(0, block_rule=as_block_rule(no_row_at_5))
    assert validate(g, [4]).failures == ("no row at 5",)
    assert validate(g, [3, 4, 5, 6]).failures == ("no row at 5",) * 3


# --- block against neighbors, row sums and int64 -------------------------------


def weighted_rule(weights):
    # three or four entries per row, hypothesis-drawn weights (integers,
    # fractions, huge, inf and nan among them)
    def nbrs(x):
        k = 3 + x % 2
        return tuple((x + j, weights[(x + j) % len(weights)]) for j in range(1, k + 1))
    return nbrs


weight = st.one_of(
    st.floats(min_value=0.0, max_value=1e300),
    st.integers(min_value=0, max_value=2**60).map(float),
    st.sampled_from([0.0, -0.0, 0.1, 2.0**53, 2.0**53 + 2, math.inf, math.nan]),
)


def fsum_bits(values):
    return struct.pack("<d", math.fsum(values))


def row_sum_bits(values):
    return struct.pack("<d", row_sum(values))


def row_bits(row):
    return [(y, struct.pack("<d", w)) for y, w in row]


@settings(max_examples=60, deadline=None)
@example(family="tree:1+d%3", xs=[40, 3, 0, 17, 3, 1, 2, 800])
@given(
    family=st.sampled_from(["tree:2", "tree:1+d%3", "lattice-z", "birth-death:(n+1)^1.5"]),
    xs=st.lists(st.integers(min_value=0, max_value=3000), max_size=40),
)
def test_block_rows_equal_neighbors_and_fsum(family, xs):
    # rows of at most two entries, or of integer weights, sum exactly in
    # any order: there the degree is also the correctly rounded fsum
    fast, ref, _ = FAMILIES[family]
    g, r = fast(), ref()
    src, ys, ws, m, deg = g.block(np.array(xs, dtype=np.int64))
    assert np.all(np.diff(src) >= 0)
    for i, x in enumerate(xs):
        row = tuple(zip(ys[src == i].tolist(), ws[src == i].tolist()))
        assert row == r.neighbors(x) == fast().neighbors(x)
        assert struct.pack("<d", deg[i]) == fsum_bits([w for _, w in row])
        assert m[i] == r.measure(x)


@settings(max_examples=60, deadline=None)
@example(weights=[1e308, 1.0], xs=[0, 1, 2])  # the row of 1, 1e308 + 1 + 1e308 + 1, overflows
@example(weights=[2.0**53, 1.0, 1.0], xs=[2])  # 2**53 + 1 + 1 rounds to 2**53, fsum is 2**53 + 2
@given(weights=st.lists(weight, min_size=1, max_size=8),
       xs=st.lists(st.integers(min_value=0, max_value=50), max_size=12))
def test_block_degree_is_the_row_sum_in_neighbor_order(weights, xs):
    rule = weighted_rule(weights)
    g = ProceduralGraph(0, block_rule=as_block_rule(rule))
    if not all(math.isfinite(w) for x in xs for _, w in rule(x)):
        with pytest.raises(GraphError, match="which is not finite"):
            g.block(np.array(xs, dtype=np.int64))
        return
    want = [row_sum_bits([w for _, w in rule(x)]) for x in xs]
    deg = g.block(np.array(xs, dtype=np.int64))[4]
    assert [struct.pack("<d", d) for d in deg] == want
    for x, d in zip(xs, want):
        assert struct.pack("<d", g.degree(x)) == d
        assert row_bits(g.neighbors(x)) == row_bits(rule(x))


@settings(max_examples=60, deadline=None)
@example(weights=[2.0**53, 1.0, 1.0])
@example(weights=[0.1, 0.2, 0.3, 0.7])
@given(weights=st.lists(st.floats(min_value=0.0, max_value=1e300), min_size=1, max_size=8))
def test_block_degrees_equal_table_degrees_on_the_same_table(weights):
    # one rule for both backends: a table's degree is its row summed in
    # neighbor order from 0.0, as a rule's block sums it
    rule, xs = weighted_rule(weights), list(range(12))
    table = ExplicitGraph(dict.fromkeys(range(16), 1.0), {x: dict(rule(x)) for x in xs})
    want = [row_sum_bits([w for _, w in rule(x)]) for x in xs]
    for g in (ProceduralGraph(0, block_rule=as_block_rule(rule)), table):
        assert [struct.pack("<d", d) for d in g.block(np.array(xs))[4]] == want
    assert [struct.pack("<d", table.degree(x)) for x in xs] == want


@pytest.mark.parametrize("call, vertex", [
    (lambda: ball(symmetric_tree(2), 2**63, 1), 2**63),
    (lambda: make_exhaustion(lattice_z(), -2**63 - 5, [1]), -2**63 - 5),
    (lambda: lattice_z().neighbors(2**63 - 1), 2**63),
    (lambda: lattice_z().degree(-2**63), -2**63 - 1),
    (lambda: birth_death(chain15).measure(2**63 - 1), 2**63),
    (lambda: symmetric_tree(2).neighbors(2**62), 2**63 + 2),  # its last child
    (lambda: ball(ExplicitGraph.from_edges([(0, 2**64, 1.0)]), 0, 1), 2**64),
], ids=["ball-root", "exhaustion-root", "lattice-up", "lattice-down", "chain-up",
        "tree-children", "explicit-neighbor"])
def test_ids_outside_int64_raise_naming_the_vertex(call, vertex):
    with pytest.raises(GraphError, match=f"vertex id {vertex} is outside int64"):
        call()


def test_procedural_graph_takes_exactly_one_rule():
    with pytest.raises(TypeError):
        ProceduralGraph(0)
    with pytest.raises(TypeError):
        ProceduralGraph(0, lattice_rule, block_rule=as_block_rule(lattice_rule))


_LO, _HI = -2**63, 2**63 - 1


@pytest.mark.parametrize("xs", [
    [0, 1, 2, 3],              # a range: indexed directly
    [-3, -2, -1, 0, 1],        # a range at a negative offset
    [0, 2, 1, 3],              # its ends are a range's, its steps not
    [0, 1, 3, 4],              # a range with a gap
    [2, 0, 5, -7],
    [5],
    [],
    [_HI - 1, _HI],            # ranges at the ends of int64, where
    [_LO, _LO + 1],            # ys - xs[0] wraps around
])
def test_positions_match_a_lookup(xs):
    near = {y + d for y in [*xs, 0, _LO, _HI] for d in range(-3, 4)}
    ys = sorted(y for y in near if _LO <= y <= _HI)
    at = {x: i for i, x in enumerate(xs)}
    got = _positions(np.array(xs, dtype=np.int64), np.array(ys, dtype=np.int64))
    assert got.dtype == np.int64
    assert got.tolist() == [at.get(y, -1) for y in ys]


# --- structure of the hot path --------------------------------------------------


@pytest.fixture
def counted(monkeypatch):
    """Counts of ProceduralGraph.block and .neighbors calls."""
    calls = {"block": 0, "neighbors": 0}
    for name in calls:
        inner = getattr(ProceduralGraph, name)

        def wrapper(self, arg, inner=inner, name=name):
            calls[name] += 1
            return inner(self, arg)
        monkeypatch.setattr(ProceduralGraph, name, wrapper)
    return calls


@pytest.mark.parametrize("grid", [(1.0,), DEFAULT_ALPHA_GRID], ids=["1-alpha", "5-alphas"])
def test_exhaustion_and_classify_make_one_block_call_per_layer(counted, grid):
    g = ProceduralGraph(0, tree_rule(2))  # no ball rule: the search runs
    ex = make_exhaustion(g, 0, [4, 8, 10])
    classify(g, Potential.constant(1.0), identity(), ex, alpha_grid=grid)
    assert counted == {"block": 11, "neighbors": 0}  # layers 0..10


def constant_w(g):
    return Potential.constant(1.0)


def large_w(g):
    return large_potential(g, identity())


@pytest.mark.parametrize("grid, potential", [
    ((1.0,), constant_w), (DEFAULT_ALPHA_GRID, constant_w),
    ((1.0,), large_w), (DEFAULT_ALPHA_GRID, large_w),
], ids=["1-alpha", "5-alphas", "1-alpha-large-potential", "5-alphas-large-potential"])
def test_exhaustion_and_classify_make_one_block_call_on_a_ruled_ball(counted, grid, potential):
    # W is sampled off the exhaustion's m and deg, not read from the graph
    g = symmetric_tree(2)
    ex = make_exhaustion(g, 0, [4, 8, 10])
    classify(g, potential(g), identity(), ex, alpha_grid=grid)
    assert counted == {"block": 1, "neighbors": 0}  # the whole ball of radius 10


def test_gen_reads_no_scalar_neighbors(counted, tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "generate", lambda spec, seed: ProceduralGraph(0, tree_rule(2)))
    assert cli.main(["gen", "--family", "tree:2", "--radii", "6", "--out", str(tmp_path)]) == 0
    # the search expands layers 0..5 and reads layer 6's rows too; the writer reuses them
    assert counted == {"block": 7, "neighbors": 0}


def test_gen_reads_a_ruled_ball_in_one_block_call(counted, tmp_path, capsys):
    assert cli.main(["gen", "--family", "tree:2", "--radii", "6", "--out", str(tmp_path)]) == 0
    # all 127 rows of ball(6), checked against the rule and then written
    assert counted == {"block": 1, "neighbors": 0}


@pytest.mark.parametrize("argv, passes", [
    (("tree:2", "--radii", "5"), 0),
    (("birth-death:1.5", "--radii", "20"), 1),  # b varies, m = 1
    (("random-sparse:n=30,density=0.2", "--seed", "3"), 1),
], ids=["tree", "birth-death", "random-sparse"])
def test_gen_spells_only_columns_with_several_values(tmp_path, capsys, monkeypatch, argv, passes):
    # a column with one bit pattern is spelled once, without np.unique's sort
    unique, calls = np.unique, []

    def counted_unique(a, *args, **kwargs):
        calls.append(kwargs.get("return_inverse", False))
        return unique(a, *args, **kwargs)
    monkeypatch.setattr(np, "unique", counted_unique)
    assert cli.main(["gen", "--family", *argv, "--out", str(tmp_path)]) == 0
    assert calls.count(True) == passes


def test_scalar_neighbors_is_one_block_call(counted):
    g = symmetric_tree(2)
    make_exhaustion(g, 0, [2, 7])
    counted["block"] = 0
    assert g.neighbors(200) == ((99, 1.0), (401, 1.0), (402, 1.0))
    assert counted == {"block": 1, "neighbors": 1}


def degm_w(g):
    return Potential(_Ratio(1.0, g), W0=1.0)


POTENTIALS = {"const": constant_w, "degm": degm_w, "large-potential": large_w}


@pytest.mark.parametrize("potential", POTENTIALS.values(), ids=POTENTIALS)
def test_path_criterion_reads_its_path_in_one_block_call(counted, potential):
    # the edge checks, m and deg of the 41 path vertices, and W on them;
    # the terms and sums are those of the per-vertex loop, bit for bit
    g = lattice_z()
    W, nl = potential(g), identity()
    rep = path_criterion(g, W, nl, range(0, 50), 1.0, 40)
    assert counted == {"block": 1, "neighbors": 0}
    ref, terms, sums, acc = RuleGraph(0, lattice_rule), [], [], 0.0
    for x in range(1, 41):
        assert edge_weight(ref, x - 1, x) > 0.0
        terms.append(ref.measure(x) * nl(1.0 * W(x)) / ref.degree(x))
        acc += terms[-1]
        sums.append(acc)
    assert rep.vertices == tuple(range(41))
    assert [struct.pack("<d", t) for t in rep.terms] == [struct.pack("<d", t) for t in terms]
    assert [struct.pack("<d", t) for t in rep.partial_sums] == [
        struct.pack("<d", t) for t in sums]
    assert (rep.max_deg_over_m, rep.per_term_floor) == (2.0, 0.5)


def test_a_graph_keeps_no_per_vertex_state():
    # once the exhaustion is gone, nothing of its 32,767 vertices is left
    # in the graph (a degree memo held about 3 MiB here)
    tracemalloc.start()
    try:
        g = symmetric_tree(2)
        ex = make_exhaustion(g, 0, [14])
        assert ex.sizes == (32767,)
        del ex
        kept, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert g.root == 0
    assert kept < 64 * 1024


def test_validate_reads_rows_in_two_block_calls(counted):
    # the probe, then its neighbors; no call per vertex
    g = symmetric_tree(2)
    probe = ball(g, 0, 8)
    counted["block"] = 0
    assert validate(g, probe).ok
    assert counted == {"block": 2, "neighbors": 0}


@pytest.mark.parametrize("bad", [[-1], [-1, 300, -7]], ids=["one", "two"])
def test_validate_halves_a_failing_batch(counted, bad):
    # each failing vertex costs at most two block calls per halving of
    # the probe and its own read below, not one call per vertex of the
    # probe, and the report is the per-vertex reference's
    g = symmetric_tree(2)
    probe = ball(g, 0, 8)[:200] + bad + ball(g, 0, 8)[200:]
    counted["block"] = 0
    report = validate(g, probe)
    assert counted["block"] <= 2 + len(bad) * (2 * len(probe).bit_length() + 1)
    assert report == validate(RuleGraph(0, tree_rule(2)), probe)
    assert report.failures == tuple(f"tree ids are nonnegative, got {x}" for x in bad if x < 0)


@pytest.mark.parametrize("name", FAMILIES)
def test_energy_reads_its_support_in_one_block_call(counted, name):
    # the same terms in the same order as the per-vertex reference, so
    # the same bits; u and v have different supports, so both kinds of
    # term (an edge inside the support, an edge leaving it) occur
    array_graph, ref_graph, radii = FAMILIES[name]
    g = array_graph()
    outer, inner = ball(g, 0, radii[-1]), ball(g, 0, radii[-2])
    rng = np.random.default_rng(len(outer))
    u = VertexFunction(dict(zip(outer, rng.uniform(-1.0, 1.0, len(outer)).tolist())))
    v = VertexFunction(dict(zip(inner, rng.uniform(-1.0, 1.0, len(inner)).tolist())))
    counted["block"] = 0
    got = energy(g, u, v)
    assert counted == {"block": 1, "neighbors": 0}
    assert struct.pack("<d", got) == struct.pack("<d", ref_energy(ref_graph(), u, v))


def ref_linear_oracle(g, W, f, U):
    # the per-vertex assembly: one neighbors call per vertex of U
    index = {x: i for i, x in enumerate(U)}
    a, rhs = np.zeros((len(U), len(U))), np.zeros(len(U))
    for x, i in index.items():
        m = g.measure(x)
        a[i, i] = g.degree(x) / m + W(x)
        for y, w in g.neighbors(x):
            if y in index and w > 0.0:
                a[i, index[y]] -= w / m
        rhs[i] = f(x)
    return np.linalg.solve(a, rhs)


@pytest.mark.parametrize("name", FAMILIES)
def test_set_readers_read_their_set_in_one_block_call(counted, name):
    # laplacian_apply, the measure terms of energy_functional and
    # linear_oracle add the per-vertex loops' terms in their order, so
    # they give the same bits
    array_graph, ref_graph, radii = FAMILIES[name]
    g, ref = array_graph(), ref_graph()
    U = ball(g, 0, radii[-2])
    rng = np.random.default_rng(len(U))
    u = VertexFunction(dict(zip(U, rng.uniform(0.0, 1.0, len(U)).tolist())))
    f = VertexFunction(dict(zip(U[::2], rng.uniform(0.0, 1.0, len(U[::2])).tolist())))
    W, nl, x = Potential.constant(1.5), odd_power(3.0), U[-1]

    def calls(run, n):
        counted["block"] = 0
        out = run()
        assert counted == {"block": n, "neighbors": 0}
        return out

    # left-to-right sums (the builtin sum compensates from Python 3.12 on)
    lu = 0.0
    for y, w in ref.neighbors(x):
        lu += w * (u(x) - u(y))
    lu /= ref.measure(x)
    assert struct.pack("<d", calls(lambda: laplacian_apply(g, u, x), 1)) == struct.pack("<d", lu)
    e = 0.0
    for y in set(U) | set(f.support):
        e += nl.antiderivative(f(y) - W(y) * u(y)) * ref.measure(y) / W(y)
    e = ref_energy(ref, u, u) + e
    got = calls(lambda: energy_functional(g, W, nl, f, u, U), 2)  # Q(u, u), then the measures
    assert struct.pack("<d", got) == struct.pack("<d", e)
    sol = calls(lambda: linear_oracle(g, W, f, U), 1)
    assert bits(np.array([sol(y) for y in U])) == bits(ref_linear_oracle(ref, W, f, U))


def ref_residual(g, W, nl, f, u, U):
    # the per-vertex loop: one neighbors call per vertex of U
    values, violations = {}, []
    for x in dict.fromkeys(U):
        lu = laplacian_apply(g, u, x)
        if not nl.contains(lu):
            violations.append((x, lu))
            continue
        try:
            values[x] = nl.inverse(lu) + W(x) * u(x) - f(x)
        except RangeError:
            violations.append((x, lu))
    return values, violations


@pytest.mark.parametrize("nl", [identity(), odd_power(3.0), bounded_atan()],
                         ids=["identity", "power:3", "atan"])
@pytest.mark.parametrize("name", FAMILIES)
def test_residual_reads_its_set_in_one_block_call(counted, name, nl):
    # values, sup and range violations bit for bit those of the
    # per-vertex loop; atan's bounded range makes some vertices violate
    array_graph, ref_graph, radii = FAMILIES[name]
    g = array_graph()
    U = ball(g, 0, radii[-1])
    rng = np.random.default_rng(len(U))
    u = VertexFunction(dict(zip(U, rng.uniform(-2.0, 2.0, len(U)).tolist())))
    f = VertexFunction(dict(zip(U[::2], rng.uniform(0.0, 1.0, len(U[::2])).tolist())))
    W = Potential.constant(1.5)
    counted["block"] = 0
    rep = residual(g, W, nl, f, u, U + U[:3])
    assert counted == {"block": 1, "neighbors": 0}
    values, violations = ref_residual(ref_graph(), W, nl, f, u, U)
    assert list(rep.values) == list(values)
    assert [struct.pack("<d", v) for v in rep.values.values()] == [
        struct.pack("<d", v) for v in values.values()]
    assert rep.range_violations == tuple(violations)
    sup = max((abs(v) for v in values.values()), default=0.0)
    assert struct.pack("<d", rep.sup) == struct.pack("<d", sup)


# --- closed-form balls ---------------------------------------------------------

RULED = [name for name in FAMILIES if name != "scalar-rule"]


@pytest.mark.parametrize("name", RULED)
def test_a_ruled_ball_costs_one_block_call(counted, name):
    # the rule's ball is taken, not searched again: the arrays are
    # checked against the reference by the tests above
    fast, _, radii = FAMILIES[name]
    make_exhaustion(fast(), 0, radii)
    assert counted == {"block": 1, "neighbors": 0}
    for r in radii:
        counted["block"] = 0
        ball(fast(), 0, r)
        assert counted["block"] == min(r, 1)


@pytest.mark.parametrize("root", [-3, 7, 0])
def test_lattice_balls_around_any_root(counted, root):
    ref = RuleGraph(root, lattice_rule)
    for radii in [(0,), (0, 4, 9), (2, 25)]:
        counted["block"] = 0
        ex = make_exhaustion(lattice_z(), root, radii)
        assert counted["block"] == 1
        sizes, order, arrays = ref_exhaustion(ref, root, radii)
        assert (ex.sizes, tuple(ex.order.tolist())) == (sizes, order)
        assert ex.ends == tuple(range(1, 2 * radii[-1] + 2, 2))
        for got, want in zip((ex.rows, ex.cols, ex.b, ex.m, ex.deg), arrays):
            assert bits(got) == bits(want)
        for r in radii:
            assert ball(lattice_z(), root, r) == ref_ball(ref, root, r)
    counted["block"] = 0
    assert ball(lattice_z(), root, 0) == [root]
    assert counted["block"] == 0


def stops_at_7(n):
    return 0.0 if n == 7 else 1.0


def test_a_chain_with_a_zero_weight_stops_where_the_search_does():
    g = birth_death(stops_at_7)
    ex = make_exhaustion(g, 0, (3, 12))
    sizes, order, arrays = ref_exhaustion(RuleGraph(0, chain_rule(stops_at_7)), 0, (3, 12))
    assert (ex.sizes, tuple(ex.order.tolist()), ex.ends) == (sizes, order, tuple(range(1, 9)))
    for got, want in zip((ex.rows, ex.cols, ex.b, ex.m, ex.deg), arrays):
        assert bits(got) == bits(want)
    assert ball(birth_death(stops_at_7), 0, 12) == list(range(8))
    assert ball(birth_death(stops_at_7), 0, 5) == list(range(6))


def test_an_exhaustion_is_closed_where_no_edge_leaves_its_largest_ball(counted):
    # the edge 7 - 8 has weight 0: the rows of the outermost layer show that
    # the ball of radius 7 is closed, also where it is the largest, read in
    # one call on the ball rule's ball, as at radius 6, which is not closed
    for r, closed in ((6, False), (7, True)):
        counted["block"] = 0
        assert make_exhaustion(birth_death(stops_at_7), 0, (3, r)).closed is closed
        assert counted["block"] == 1
    # past radius 7 the rule's ball is wrong, and the search finds the closed one
    assert make_exhaustion(birth_death(stops_at_7), 0, (3, 12)).closed is True
    assert make_exhaustion(lattice_z(), 0, (3, 12)).closed is False
    assert make_exhaustion(RuleGraph(0, lattice_rule), 0, (3, 12)).closed is False


def lattice_ball(root, radius, cap):
    return lattice_z()._ball_rule(root, radius, cap)


def swapped(root, radius, cap):
    order, ends = lattice_ball(root, radius, cap)
    order[[3, 4]] = order[[4, 3]]  # layer 2 as 2, -2: the running maximum jumps by 2
    return order, ends


def short(root, radius, cap):
    order, ends = lattice_ball(root, min(radius, 3), cap)
    return order, ends  # claims the ball saturates at radius 3


def shifted(root, radius, cap):
    order, ends = lattice_ball(root, radius, cap)
    ends[1] -= 1  # right order, but x0 + 1 put in layer 2
    return order, ends


def extra(root, radius, cap):
    order, ends = lattice_ball(root, radius, cap)
    ends[-1] += 1  # an unreachable vertex in the last layer
    return np.append(order, 99), ends


def raises(root, radius, cap):
    raise GraphError("no closed form")


def float_ends(root, radius, cap):
    order, ends = lattice_ball(root, radius, cap)
    return order, ends.astype(float)  # the right ends, of the wrong dtype


def int32_order(root, radius, cap):
    order, ends = lattice_ball(root, radius, cap)
    return order.astype(np.int32), ends  # the right order, of the wrong dtype


def column_order(root, radius, cap):
    order, ends = lattice_ball(root, radius, cap)
    return order[:, None], ends  # the right order, of the wrong shape


@pytest.mark.parametrize("rule", [swapped, short, shifted, extra, raises, float_ends,
                                  int32_order, column_order],
                         ids=lambda rule: rule.__name__)
def test_a_lying_ball_rule_gives_the_searched_ball(counted, rule):
    g = ProceduralGraph(0, block_rule=as_block_rule(lattice_rule), ball_rule=rule)
    ex = make_exhaustion(g, 0, (2, 6))
    assert counted["block"] > 1  # the search ran
    sizes, order, arrays = ref_exhaustion(RuleGraph(0, lattice_rule), 0, (2, 6))
    assert (ex.sizes, tuple(ex.order.tolist()), ex.ends) == (sizes, order, tuple(range(1, 14, 2)))
    for got, want in zip((ex.rows, ex.cols, ex.b, ex.m, ex.deg), arrays):
        assert bits(got) == bits(want)
    for r in (2, 6):
        assert ball(g, 0, r) == ref_ball(RuleGraph(0, lattice_rule), 0, r)


@pytest.mark.parametrize("nbrs, claimed, ends", [
    # the path 0 - 1 - 2 - 3: 2 is first seen from layer 1, its claimed layer
    ({0: (1,), 1: (0, 2), 2: (1, 3), 3: (2,)}, [1, 3, 4], (1, 2, 3)),
    # 0 - 1, 0 - 2, 1 - 3: 2 is first seen from layer 0, two before its claimed
    # layer 2, while 3, the last vertex there, is seen from layer 1
    ({0: (1, 2), 1: (0, 3), 2: (0,), 3: (1,)}, [1, 2, 4], (1, 3, 4)),
], ids=["own-layer", "two-layers-early"])
def test_a_ball_rule_with_a_misplaced_vertex_gives_the_searched_ball(counted, nbrs, claimed,
                                                                     ends):
    # every other test of the rows read passes: each target lies in the
    # claimed ball and the running maximum climbs by one at a time
    g = ProceduralGraph(0, lambda x: [(y, 1.0) for y in nbrs[x]],
                        ball_rule=lambda root, radius, cap: (np.arange(4), np.array(claimed)))
    ex = make_exhaustion(g, 0, (2,))
    assert counted["block"] > 1  # the search ran
    assert (ex.ends, ex.order.tolist()) == (ends, list(range(ends[-1])))


@pytest.mark.parametrize("make, ref, radii, cap, at", [
    (lambda: symmetric_tree(2), None, (4, 30), None, 30),
    (lambda: symmetric_tree(2), lambda: RuleGraph(0, tree_rule(2)), (4, 8, 30), 100, 8),
    (lambda: symmetric_tree(lambda d: 1 + d % 3),
     lambda: RuleGraph(0, tree_rule(lambda d: 1 + d % 3)), (2, 9, 40), 500, 40),
    (lattice_z, lambda: RuleGraph(0, lattice_rule), (5, 10**9), 1000, 10**9),
], ids=["tree:2", "tree:2-small-cap", "tree:1+d%3", "lattice-z"])
def test_a_ruled_cap_error_reads_no_row(counted, make, ref, radii, cap, at):
    with pytest.raises(GraphError) as got:
        make_exhaustion(make(), 0, radii, max_vertices=cap)
    with pytest.raises(GraphError) as got_ball:
        ball(make(), 0, at, max_vertices=cap)
    assert counted["block"] == 0
    want = (f"exhaustion step at radius {at}: materialization cap exceeded: "
            f"ball(0, {at}) has more than {materialization_cap(cap)} vertices "
            f"(set NLRESOLVENT_MAX_VERTICES to raise it)")
    assert str(got.value) == want
    assert str(got_ball.value) == want.partition(": ")[2]
    if ref is not None:  # the search's text, where it is quick
        with pytest.raises(GraphError) as searched:
            ref_exhaustion(ref(), 0, radii, cap)
        assert str(searched.value) == want
