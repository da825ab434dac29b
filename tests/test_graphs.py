"""Graph layer: balls, Laplacian, energy form, validation, JSON."""

import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nlresolvent import (
    ExplicitGraph,
    GraphError,
    ProceduralGraph,
    VertexFunction,
    ball,
    edge_weight,
    energy,
    finite_path,
    graph_from_json,
    graph_to_json,
    laplacian_apply,
    lattice_z,
    materialization_cap,
    random_sparse,
    star,
    symmetric_tree,
    validate,
    write_graph_json,
)
from nlresolvent import graphs


# --- balls ---------------------------------------------------------------


def test_ball_on_lattice_is_symmetric_interval(lattice):
    for r in (0, 1, 4):
        assert sorted(ball(lattice, 0, r)) == list(range(-r, r + 1))


def test_balls_are_nested_prefixes(lattice):
    b3 = ball(lattice, 0, 3)
    b5 = ball(lattice, 0, 5)
    assert b5[: len(b3)] == b3


def test_ball_starts_at_root(lattice):
    assert ball(lattice, 0, 2)[0] == 0
    assert ball(lattice, 7, 0) == [7]


def test_ball_rejects_negative_radius(lattice):
    with pytest.raises(GraphError):
        ball(lattice, 0, -1)


def test_ball_hits_materialization_cap(lattice):
    with pytest.raises(GraphError):
        ball(lattice, 0, 100, max_vertices=10)


def test_cap_env_override(monkeypatch):
    monkeypatch.setenv("NLRESOLVENT_MAX_VERTICES", "17")
    assert materialization_cap() == 17
    # explicit argument wins over the environment
    assert materialization_cap(5) == 5


@pytest.mark.parametrize("cap", [0, -3])
def test_non_positive_cap_override_rejected(cap):
    with pytest.raises(GraphError, match=f"max_vertices must be positive, got {cap}"):
        materialization_cap(cap)


# --- Laplacian and energy ------------------------------------------------


def test_laplacian_of_delta_on_pair(pair):
    d0 = VertexFunction.delta(0)
    assert laplacian_apply(pair, d0, 0) == pytest.approx(1.0)
    assert laplacian_apply(pair, d0, 1) == pytest.approx(-1.0)


def test_laplacian_divides_by_measure():
    g = ExplicitGraph.from_edges([(0, 1, 1.0)], measures={0: 2.0, 1: 1.0})
    d0 = VertexFunction.delta(0)
    assert laplacian_apply(g, d0, 0) == pytest.approx(0.5)


def test_laplacian_kills_constants(path3):
    c = VertexFunction({0: 2.5, 1: 2.5, 2: 2.5})
    assert laplacian_apply(path3, c, 1) == 0.0


def test_energy_form_on_pair(pair):
    d0 = VertexFunction.delta(0)
    d1 = VertexFunction.delta(1)
    assert energy(pair, d0, d0) == pytest.approx(1.0)
    assert energy(pair, d0, d1) == pytest.approx(-1.0)


def _small_graphs():
    """Strategy: explicit graph on 2..6 vertices plus two functions."""

    def build(n, edge_bits, weights, measures, uvals, vvals):
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        edges = [
            (i, j, w)
            for (i, j), keep, w in zip(pairs, edge_bits, weights)
            if keep
        ]
        g = ExplicitGraph.from_edges(
            edges,
            measures={i: m for i, m in enumerate(measures[:n])},
            vertices=range(n),
        )
        u = VertexFunction({i: uvals[i] for i in range(n)})
        v = VertexFunction({i: vvals[i] for i in range(n)})
        return g, u, v

    finite = st.floats(
        min_value=-5.0, max_value=5.0, allow_nan=False, allow_infinity=False
    )
    wgt = st.floats(min_value=0.1, max_value=3.0)
    msr = st.floats(min_value=0.2, max_value=2.0)
    return st.integers(min_value=2, max_value=6).flatmap(
        lambda n: st.builds(
            build,
            st.just(n),
            st.lists(st.booleans(), min_size=15, max_size=15),
            st.lists(wgt, min_size=15, max_size=15),
            st.lists(msr, min_size=6, max_size=6),
            st.lists(finite, min_size=6, max_size=6),
            st.lists(finite, min_size=6, max_size=6),
        )
    )


@given(_small_graphs())
@settings(max_examples=200, deadline=None)
def test_green_formula(guv):
    # Q(u, v) = sum_x m(x) Lu(x) v(x) for finitely supported functions
    g, u, v = guv
    lhs = energy(g, u, v)
    rhs = math.fsum(
        g.measure(x) * laplacian_apply(g, u, x) * v(x) for x in g.vertices()
    )
    assert lhs == pytest.approx(rhs, abs=1e-10)


@given(_small_graphs())
@settings(max_examples=100, deadline=None)
def test_energy_symmetric_and_nonnegative(guv):
    g, u, v = guv
    assert energy(g, u, v) == pytest.approx(energy(g, v, u), rel=1e-12, abs=1e-12)
    assert energy(g, u, u) >= 0.0


# --- VertexFunction ------------------------------------------------------


def test_vertex_function_drops_zeros():
    u = VertexFunction({0: 1.0, 1: 0.0, 2: -2.0})
    assert u.support == (0, 2)
    assert u(1) == 0.0
    assert u(99) == 0.0


def test_vertex_function_rejects_non_finite():
    with pytest.raises(GraphError):
        VertexFunction({0: math.nan})
    with pytest.raises(GraphError):
        VertexFunction({0: math.inf})


def test_vertex_function_delta_and_norm():
    d = VertexFunction.delta(3, -2.0)
    assert d(3) == -2.0
    assert d.sup_norm() == 2.0
    assert VertexFunction.zero().sup_norm() == 0.0
    assert VertexFunction.zero().support == ()


def test_vertex_function_as_dict_is_a_copy():
    u = VertexFunction({0: 1.0})
    u.as_dict()[0] = 5.0
    assert u(0) == 1.0


# --- degrees and edge weights --------------------------------------------


def test_weighted_degree_and_edge_weight(pair):
    s = star(3)
    assert s.degree(0) == pytest.approx(3.0)
    assert s.degree(1) == pytest.approx(1.0)
    assert edge_weight(pair, 0, 1) == 1.0
    assert edge_weight(pair, 0, 0) == 0.0


# --- validation -----------------------------------------------------------


def test_validate_accepts_good_graph(path3):
    rep = validate(path3, path3.vertices())
    assert rep.ok
    assert rep.failures == ()


def test_validate_flags_asymmetry():
    g = ExplicitGraph({0: 1.0, 1: 1.0}, {0: {1: 1.0}, 1: {0: 2.0}})
    rep = validate(g, [0, 1])
    assert not rep.ok
    assert any("symmetry at" in f for f in rep.failures)


def test_validate_flags_bad_measure():
    g = ExplicitGraph({0: 0.0, 1: 1.0}, {0: {1: 1.0}, 1: {0: 1.0}})
    rep = validate(g, [0, 1])
    assert not rep.ok
    assert any("measure" in f for f in rep.failures)


def test_validate_flags_negative_weight():
    g = ExplicitGraph({0: 1.0, 1: 1.0}, {0: {1: -1.0}, 1: {0: -1.0}})
    rep = validate(g, [0, 1])
    assert not rep.ok


# --- construction and JSON ------------------------------------------------


def test_from_edges_rejects_self_loop():
    with pytest.raises(GraphError):
        ExplicitGraph.from_edges([(0, 0, 1.0)])


def test_from_edges_rejects_negative_weight():
    with pytest.raises(GraphError):
        ExplicitGraph.from_edges([(0, 1, -0.5)])


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_from_edges_rejects_non_finite_weight(bad):
    with pytest.raises(GraphError, match=re.escape(f"weight b(0,1) = {bad} is not finite")):
        ExplicitGraph.from_edges([(0, 1, bad)])


def test_from_edges_zero_weight_is_no_edge():
    g = ExplicitGraph.from_edges([(0, 1, 0.0)], vertices=[0, 1])
    assert edge_weight(g, 0, 1) == 0.0
    assert len(g) == 2


def test_unknown_vertex_rejected():
    g = finite_path(3)
    for query in (g.measure, g.neighbors, g.degree):
        with pytest.raises(GraphError, match=r"^unknown vertex 7$"):
            query(7)


def test_empty_graph_rejected():
    with pytest.raises(GraphError):
        ExplicitGraph({}, {})


@pytest.mark.parametrize("build, message", [
    (lambda: ExplicitGraph({0: 1.0}, {1: {0: 1.0}}), "edge endpoint 1 has no vertex entry"),
    (lambda: ExplicitGraph({0: 1.0}, {0: {1: 1.0}}), "edge (0, 1) points at unknown vertex 1"),
    (lambda: ExplicitGraph({0: 1.0}, {}, root=5), "root 5 is not a vertex"),
    (materialization_cap, "NLRESOLVENT_MAX_VERTICES must be an integer, got 'abc'"),
    (lambda: graph_to_json(lattice_z()),
     "procedural graphs need an explicit vertex list to serialize"),
], ids=["endpoint", "neighbour", "root", "cap-env", "procedural-json"])
def test_graph_input_checks(monkeypatch, build, message):
    monkeypatch.setenv("NLRESOLVENT_MAX_VERTICES", "abc")
    with pytest.raises(GraphError, match=f"^{re.escape(message)}$"):
        build()


def test_json_round_trip():
    g = ExplicitGraph.from_edges([(0, 1, 0.5), (1, 2, 2.0)], measures={2: 3.0})
    doc = graph_to_json(g)
    g2 = graph_from_json(doc)
    assert g2.vertices() == g.vertices()
    for x in g.vertices():
        assert g2.measure(x) == g.measure(x)
        assert g2.neighbors(x) == g.neighbors(x)


def test_json_keeps_conflicting_rows_for_validate():
    # a document listing b(0,1) != b(1,0) must stay asymmetric so that
    # validate can report it, rather than being silently repaired
    doc = {
        "vertices": [{"id": 0, "m": 1.0}, {"id": 1, "m": 1.0}],
        "edges": [{"u": 0, "v": 1, "b": 1.0}, {"u": 1, "v": 0, "b": 2.0}],
    }
    g = graph_from_json(doc)
    rep = validate(g, [0, 1])
    assert not rep.ok
    assert any("symmetry" in f for f in rep.failures)


# the graphs with a weight that is not finite are tables: a rule's block
# rejects such a weight, the table keeps it as handed in


def _inf_edge_graph():
    # b(1, 2) = inf, which json spells Infinity
    adj = {x: {y: math.inf if {x, y} == {1, 2} else 1.0 for y in (x - 1, x + 1) if 0 <= y <= 3}
           for x in range(4)}
    return ExplicitGraph({x: 1.0 for x in range(4)}, adj, root=0), [0, 1, 2, 3]


# distinct float spellings: a signed zero, NaN, +-inf, the least subnormal
_SPELLED = {0: -0.0, 1: 0.0, 2: math.nan, 3: math.inf, 4: 5e-324, 5: 0.1, 6: -math.inf}


def _spelled_floats_graph():
    # a path 0..6 whose measures and weights each need their own spelling
    weights = {0: 0.1, 1: 5e-324, 2: math.inf, 3: 0.1, 4: 1e300, 5: 2.5}
    adj = {x: {y: weights[min(x, y)] for y in (x - 1, x + 1) if 0 <= y <= 6} for x in range(7)}
    return ExplicitGraph(_SPELLED, adj, root=0), list(range(7))


# (m, b) of a path whose measures and whose weights each have one value,
# which the writer spells once, into the item template
_UNIFORM = {"m=-0.0": (-0.0, 1.0), "m=5e-324": (5e-324, 1.0), "m=inf": (math.inf, 1.0),
            "b=inf": (1.0, math.inf), "m=b=0.1": (0.1, 0.1)}


def _path(measure_rule, b):
    # the path 0..6 with every weight b
    adj = {x: {y: b for y in (x - 1, x + 1) if 0 <= y <= 6} for x in range(7)}
    return ExplicitGraph({x: measure_rule(x) for x in range(7)}, adj, root=0), list(range(7))


def _lattice_with_last_measure(m):
    # lattice-z's ball of radius 4096, whose last vertex alone has measure m
    lat = lattice_z()
    verts = ball(lat, lat.root, 4096)
    last = verts[-1]
    g = ProceduralGraph(0, block_rule=lambda xs: lat.block(xs)[:3],
                        measure_rule=lambda x: m if x == last else 1.0)
    return g, verts


@pytest.mark.parametrize("case", ["tree", "random-sparse", "single-vertex", "tree-r0",
                                  "inf-weight", "spelled-floats", "lattice-4097",
                                  "lattice-8193", "lattice-8193-last-m", "signed-zeros",
                                  *_UNIFORM])
def test_write_graph_json_matches_reference_bytes(tmp_path, case):
    if case in ("tree", "tree-r0"):
        g = symmetric_tree(2)
        verts = ball(g, g.root, 6 if case == "tree" else 0)
    elif case == "lattice-8193-last-m":
        # the first two 4096-item chunks of m have one value, the column two
        g, verts = _lattice_with_last_measure(2.0)
    elif case == "signed-zeros":
        # equal as floats, but two bit patterns: the column is not folded
        g, verts = _path(lambda x: -0.0 if x % 2 else 0.0, 1.0)
    elif case in _UNIFORM:
        m, b = _UNIFORM[case]
        g, verts = _path(lambda x: m, b)
    elif case.startswith("lattice-"):
        # 4097 vertices and 4096 edges, or 8193 and 8192: items of a
        # second and a third 4096-item chunk
        g = lattice_z()
        verts = ball(g, g.root, (int(case[8:]) - 1) // 2)
    elif case == "spelled-floats":
        g, verts = _spelled_floats_graph()
    elif case == "random-sparse":
        g, verts = random_sparse(30, 0.2, seed=3), None
    elif case == "single-vertex":
        g, verts = finite_path(1), None
    else:
        g, verts = _inf_edge_graph()
    path = tmp_path / "graph.json"
    counts = write_graph_json(str(path), g, verts)
    doc = graph_to_json(g, verts)
    text = path.read_text(encoding="utf-8")
    assert text == json.dumps(doc, indent=2, sort_keys=True) + "\n"
    assert counts == (len(doc["vertices"]), len(doc["edges"]))
    if case in ("single-vertex", "tree-r0"):
        assert '"edges": [],' in text
    if case == "signed-zeros":
        ms = [line.split(": ")[1] for line in text.splitlines() if '"m": ' in line]
        assert ms == ["0.0", "-0.0"] * 3 + ["0.0"]
    if case == "lattice-8193-last-m":
        assert text.count('"m": 2.0') == 1 and text.count('"m": 1.0') == 8192
    if case == "inf-weight":
        assert '"b": Infinity' in text
    if case == "spelled-floats":
        ms = [line.split(": ")[1] for line in text.splitlines() if '"m": ' in line]
        assert ms == ["-0.0", "0.0", "NaN", "Infinity", "5e-324", "0.1", "-Infinity"]
    if case in ("lattice-4097", "lattice-8193"):
        assert counts == (int(case[8:]), int(case[8:]) - 1)


@pytest.mark.parametrize("as_array", [False, True])
def test_write_graph_json_keeps_first_occurrences(tmp_path, as_array):
    verts = [3, -1, 3, 0, -1, 2, 0]
    if as_array:
        verts = np.array(verts, dtype=np.int64)
    path = tmp_path / "graph.json"
    counts = write_graph_json(str(path), lattice_z(), verts)
    doc = json.loads(path.read_text(encoding="utf-8"))
    assert [row["id"] for row in doc["vertices"]] == [3, -1, 0, 2]
    assert [(e["u"], e["v"]) for e in doc["edges"]] == [(-1, 0), (2, 3)]
    assert counts == (4, 2)
    assert doc == graph_to_json(lattice_z(), [3, -1, 0, 2])


def test_write_graph_json_leaves_no_file_on_error(tmp_path):
    def rule(x):
        return [(x, 1.0)] if x == 3 else [(x + 1, 1.0)]
    path = tmp_path / "graph.json"
    with pytest.raises(GraphError, match="self-loop at 3"):
        write_graph_json(str(path), ProceduralGraph(0, rule), [0, 1, 2, 3])
    assert not path.exists()


class _FileFailingOnChunk:
    """A binary file whose write raises OSError on the nth write of a
    4096-item chunk; what it wrote before stays in the file."""

    def __init__(self, fh, n):
        self.fh, self.n, self.written_at_error = fh, n, None

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()

    def write(self, data):
        self.n -= data.count(b"{") >= 4096
        if self.n == 0:
            self.fh.flush()
            self.written_at_error = self.fh.tell()
            raise OSError(28, "No space left on device")
        return self.fh.write(data)


def test_write_graph_json_leaves_no_partial_file_on_a_failed_write(tmp_path, monkeypatch):
    # lattice-8193 writes its 8192 edges in two 4096-item chunks; the second fails
    files = []

    def failing_open(path, mode):
        files.append(_FileFailingOnChunk(open(path, mode), 2))
        return files[-1]
    monkeypatch.setattr(graphs, "open", failing_open, raising=False)
    g = lattice_z()
    path = tmp_path / "graph.json"
    with pytest.raises(OSError, match="No space left on device"):
        write_graph_json(str(path), g, ball(g, g.root, 4096))
    assert files[0].written_at_error > 4096 * 50  # the first chunk reached the file
    assert not path.exists()
