"""Exhaustions and the monotone resolvent limit."""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nlresolvent import (
    CSV_HEADER,
    GraphError,
    Potential,
    SolveError,
    SolveOptions,
    VertexFunction,
    ball,
    classify,
    default_probes,
    doubling_schedule,
    extended_resolvent,
    finite_path,
    geometric_chain,
    identity,
    lattice_z,
    make_exhaustion,
    generate,
    odd_power,
    solve_dirichlet,
    star,
    symmetric_tree,
)
from nlresolvent.resolvent import _copies, _shifted_profile
from nlresolvent.solver import _System

ID = identity()


# --- schedules and exhaustions ------------------------------------------------


def test_doubling_schedule_values():
    assert doubling_schedule(25, 5) == [25, 50, 100, 200, 400]
    assert doubling_schedule(5, 4) == [5, 10, 20, 40]
    assert doubling_schedule(1, 1) == [1]


def test_doubling_schedule_rejects_bad_args():
    with pytest.raises(ValueError):
        doubling_schedule(0, 3)
    with pytest.raises(ValueError):
        doubling_schedule(5, 0)


def test_make_exhaustion_on_lattice(lattice):
    ex = make_exhaustion(lattice, 0, [1, 2, 3])
    assert ex.root == 0
    assert ex.radii == (1, 2, 3)
    assert ex.sizes == (3, 5, 7)
    assert len(ex) == 3
    # nested as prefixes of the largest ball
    assert tuple(ex.order.tolist()) == tuple(ball(lattice, 0, 3))
    assert tuple(ex.order[: ex.sizes[0]].tolist()) == tuple(ball(lattice, 0, 1))


def test_make_exhaustion_default_root(lattice):
    ex = make_exhaustion(lattice, schedule=[2])
    assert ex.root == lattice.root


def test_make_exhaustion_validates_schedule(lattice):
    with pytest.raises(ValueError):
        make_exhaustion(lattice, 0, [])
    with pytest.raises(ValueError):
        make_exhaustion(lattice, 0, [5, 5])
    with pytest.raises(ValueError):
        make_exhaustion(lattice, 0, [10, 5])
    with pytest.raises(ValueError):
        make_exhaustion(lattice, 0, [-1, 5])


def test_make_exhaustion_reports_cap_radius(lattice):
    with pytest.raises(GraphError, match="radius 60"):
        make_exhaustion(lattice, 0, [1, 60], max_vertices=20)


# --- resolvent limits -----------------------------------------------------------


def test_constant_data_on_lattice_tends_to_one(lattice, unit_potential):
    ex = make_exhaustion(lattice, 0, [5, 10, 20, 40, 80])
    est = extended_resolvent(lattice, unit_potential, ID, lambda x: 1.0, ex)
    assert est.probes == (0,)
    assert all(est.stabilization_error(p) <= 1e-6 for p in est.probes)
    assert est.final[0] == pytest.approx(1.0, abs=1e-8)
    # monotone from below, certified
    assert est.max_decrease <= 1e-9
    assert all(inc >= -1e-12 for inc in est.increments[0])
    assert all(st.sweeps < 2000 for st in est.steps)


def test_finite_graph_saturates(unit_potential):
    g = finite_path(15)
    ex = make_exhaustion(g, 0, [20, 40, 60])
    assert ex.sizes == (15, 15, 15)
    est = extended_resolvent(g, unit_potential, ID, VertexFunction.delta(0), ex)
    # the repeated sets reuse the first solve verbatim
    assert est.steps[1].sweeps == 0
    assert est.steps[2].sweeps == 0
    assert est.increments[0][1] == 0.0
    assert all(est.stabilization_error(p) <= 1e-6 for p in est.probes)


def test_saturated_estimate_equals_direct_solve(unit_potential):
    g = finite_path(9)
    U = g.vertices()
    f = VertexFunction.delta(0)
    direct = solve_dirichlet(g, unit_potential, ID, f, U)
    ex = make_exhaustion(g, 0, [10, 20])
    est = extended_resolvent(g, unit_potential, ID, f, ex, probes=[0, 4])
    for p in (0, 4):
        assert est.final[p] == pytest.approx(direct.u(p), abs=1e-12)


def test_zero_data_converges_immediately(lattice, unit_potential):
    ex = make_exhaustion(lattice, 0, [2, 4, 6])
    est = extended_resolvent(lattice, unit_potential, ID, VertexFunction.zero(), ex)
    assert est.final[0] == 0.0
    assert all(est.stabilization_error(p) <= 1e-6 for p in est.probes)


def test_support_outside_final_set_is_clipped(lattice, unit_potential):
    ex = make_exhaustion(lattice, 0, [2, 4])
    wide = VertexFunction({0: 1.0, 100: 5.0})
    narrow = VertexFunction.delta(0)
    a = extended_resolvent(lattice, unit_potential, ID, wide, ex)
    b = extended_resolvent(lattice, unit_potential, ID, narrow, ex)
    assert a.final[0] == b.final[0]


def test_negative_data_rejected(lattice, unit_potential):
    ex = make_exhaustion(lattice, 0, [2])
    with pytest.raises(ValueError):
        extended_resolvent(lattice, unit_potential, ID, VertexFunction({0: -0.5}), ex)
    with pytest.raises(ValueError):
        extended_resolvent(lattice, unit_potential, ID, lambda x: -1.0, ex)


def test_unconverged_step_raises_solve_error(chain4, unit_potential):
    # phi = t^3 needs more than one Newton step, each one sweep on the chain
    ex = make_exhaustion(chain4, 0, [6, 12])
    with pytest.raises(SolveError, match="exhaustion step"):
        extended_resolvent(chain4, unit_potential, odd_power(3.0), lambda x: 1.0, ex,
                           opts=SolveOptions(max_sweeps=1))


def test_solve_error_carries_completed_steps(cyclic, unit_potential):
    # the graph has cycles, so a step's sweeps are CG iterations: 6 at
    # radius 1 (7 vertices), more than 8 at radius 40 (all 60)
    opts = SolveOptions(max_sweeps=8)
    f = VertexFunction.delta(0)  # probe 10 is a neighbor of 0
    with pytest.raises(SolveError) as info:
        extended_resolvent(cyclic, unit_potential, ID, f,
                           make_exhaustion(cyclic, 0, [1, 40]), probes=[0, 10], opts=opts)
    done = extended_resolvent(cyclic, unit_potential, ID, f,
                              make_exhaustion(cyclic, 0, [1]), probes=[0, 10], opts=opts)
    assert info.value.partial.csv_rows() == done.csv_rows()
    # nothing completed before a failure at step 0
    with pytest.raises(SolveError) as info:
        extended_resolvent(cyclic, unit_potential, ID, f,
                           make_exhaustion(cyclic, 0, [40]), opts=opts)
    assert info.value.partial is None


def test_probe_deduplication_and_default(lattice, unit_potential):
    ex = make_exhaustion(lattice, 0, [3, 6])
    est = extended_resolvent(lattice, unit_potential, ID, lambda x: 1.0, ex,
                             probes=[2, 2, -1])
    assert est.probes == (2, -1)
    with pytest.raises(ValueError):
        extended_resolvent(lattice, unit_potential, ID, lambda x: 1.0, ex, probes=[])


@pytest.mark.parametrize("graph, radii, probe", [
    (lattice_z, [5, 10, 20], 500),
    (lambda: star(3), [1, 2], 99),  # not a vertex at all
], ids=["beyond-the-largest-ball", "not-a-vertex"])
def test_probe_outside_the_largest_ball_is_rejected(graph, radii, probe, unit_potential):
    # its value would read 0 at every step: a defect of alpha, stabilized
    g = graph()
    ex = make_exhaustion(g, 0, radii)
    msg = f"probe {probe} is outside the largest ball, of radius {radii[-1]} around 0"
    with pytest.raises(ValueError, match=msg):
        extended_resolvent(g, unit_potential, ID, lambda x: 1.0, ex, probes=[0, probe])
    with pytest.raises(ValueError, match=msg):
        classify(g, unit_potential, ID, ex, alpha_grid=[1.0], probes=[0, probe])


# --- bookkeeping -----------------------------------------------------------------


def test_csv_rows_shape(lattice, unit_potential):
    ex = make_exhaustion(lattice, 0, [3, 6, 12])
    est = extended_resolvent(lattice, unit_potential, ID, lambda x: 0.5, ex,
                             probes=[0, 1])
    rows = est.csv_rows()
    assert len(rows) == 3 * 2
    assert len(CSV_HEADER) == len(rows[0]) == 8
    first = rows[0]
    assert first[0] == 0 and first[1] == 3 and first[2] == 7 and first[3] == 0
    # value column carries the probe sequence
    assert first[4] == est.values[0][0]


def test_increment_bookkeeping(lattice, unit_potential):
    ex = make_exhaustion(lattice, 0, [3, 6, 12])
    est = extended_resolvent(lattice, unit_potential, ID, lambda x: 1.0, ex)
    vals = est.values[0]
    incs = est.increments[0]
    assert incs[0] == vals[0]
    assert incs[1] == pytest.approx(vals[1] - vals[0], abs=1e-15)
    assert incs[2] == pytest.approx(vals[2] - vals[1], abs=1e-15)
    assert est.final[0] == vals[-1]


# --- one assembly, sliced per step ----------------------------------------------

SLICED_RUNS = {
    "tree2-identity": (lambda: symmetric_tree(2), ID, [4, 8, 12]),
    "lattice-power3": (lattice_z, odd_power(3.0), [12, 25, 50]),
    "chain4-identity": (lambda: geometric_chain(4.0), ID, [5, 10, 20, 40]),
    "lattice-sqrt-gauss-seidel": (lattice_z, odd_power(0.5), [5, 10, 20]),
}


@pytest.mark.parametrize("name", SLICED_RUNS)
def test_steps_equal_direct_solves_exactly(name, unit_potential):
    # each step solves a block of the largest ball's arrays; the same
    # numbers must come out of a fresh solve of that ball, warm-started
    # from the previous step's solution
    make_graph, nl, radii = SLICED_RUNS[name]
    g = make_graph()
    ex = make_exhaustion(g, g.root, radii)
    probes = default_probes(ex)
    est = extended_resolvent(g, unit_potential, nl, lambda x: 1.0, ex, probes=probes)
    start = None
    for k, step in enumerate(est.steps):
        K = ex.order[: ex.sizes[k]]
        direct = solve_dirichlet(g, unit_potential, nl, VertexFunction({x: 1.0 for x in K}),
                                 K, start=start)
        assert step.sweeps == direct.sweeps_used
        assert step.residual_inf == direct.residual_inf
        assert [est.values[p][k] for p in probes] == [direct.u(p) for p in probes]
        start = direct.u


_LATTICE_EX = make_exhaustion(lattice_z(), 0, [2, 4])


@given(
    x=st.sampled_from(_LATTICE_EX.order),
    bad=st.sampled_from([math.nan, math.inf, -math.inf]),
    where=st.sampled_from(["f", "W"]),
)
@settings(max_examples=60, deadline=None)
def test_non_finite_data_raises_value_error_naming_the_vertex(x, bad, where):
    def data(y):
        return bad if y == x else 1.0

    W = Potential(data, W0=1.0) if where == "W" else Potential.constant(1.0)
    f = data if where == "f" else (lambda y: 1.0)
    with pytest.raises(ValueError, match=re.escape(f"{where}({x}) = {bad} is not finite")):
        extended_resolvent(lattice_z(), W, ID, f, _LATTICE_EX)


# --- the union of copies of a ball and the shifted start ------------------------

# every shipped family; the finite ones saturate before their largest
# radius, and are closed there
_UNION_CASES = [
    ("tree:2", (2, 4, 5)), ("lattice-z", (3, 6)),
    ("random-sparse:n=60,density=0.06,seed=0", (1, 2, 3)), ("finite-path:5", (2, 6)),
    ("birth-death:4", (3, 7)), ("star:8", (1, 3)), ("complete:6", (1, 2)),
    ("random-sparse:n=200,density=0.02,seed=1", (1, 2, 4, 9)), ("finite-path:30", (5, 10, 40)),
]


def _union_copy_by_copy(ex, w, fv):
    """The union of k = len(fv) copies of the largest ball of ``ex``, built
    in plain Python: layer by layer, in each layer copy by copy, and in
    each copy in ball order; each place's edges are its vertex's, in
    neighbor order, moved into its copy.  ``pos, arrays`` as lists, as
    ``_copies`` gives them."""
    k, n = fv.shape
    places = [(c, i) for lo, hi in zip((0, *ex.ends), ex.ends)
              for c in range(k) for i in range(lo, hi)]
    pos = [[0] * n for _ in range(k)]
    for p, (c, i) in enumerate(places):
        pos[c][i] = p
    row = {i: [] for i in range(n)}
    for i, j, b in zip(ex.rows.tolist(), ex.cols.tolist(), ex.b.tolist()):
        row[i].append((j, b))
    edges = [(p, pos[c][j], b) for p, (c, i) in enumerate(places) for j, b in row[i]]

    def vertex(a):
        a = a.tolist()
        return [a[i] for _, i in places]

    return pos, (vertex(ex.order), [e[0] for e in edges], [e[1] for e in edges],
                 [e[2] for e in edges], vertex(ex.m), vertex(ex.deg), vertex(w),
                 [fv[c, i] for c, i in places])


def _layer_means_moved(ends, u, r_old, r_new):
    """The shifted profile of one copy, in plain Python: the mean of u over
    each layer of the ball of radius ``r_old``, moved out by r_new - r_old
    layers over the ball of radius ``r_new``, the root's inside."""
    old, new = ends[:r_old + 1], ends[:r_new + 1]
    means = [math.fsum(u[lo:hi]) / (hi - lo) for lo, hi in zip((0, *old), old)]
    return [means[max(layer - (r_new - r_old), 0)]
            for layer, (lo, hi) in enumerate(zip((0, *new), new)) for _ in range(lo, hi)]


def test_shifted_profile_on_a_lattice_ball(lattice):
    # ball 2 is 0, -1, 1, -2, 2: layer means 5, 2 and 1, moved out by 2 layers
    ex = make_exhaustion(lattice, 0, [2, 4])
    u = np.array([5.0, 3.0, 1.0, 2.0, 0.0])
    start = _shifted_profile(ex.ends, np.arange(ex.order.size)[None], u, 2, 4)
    assert start.tolist() == [5.0, 5.0, 5.0, 5.0, 5.0, 2.0, 2.0, 1.0, 1.0]
    assert start.size == ex.sizes[1]


def test_shifted_profile_moves_each_copy_on_its_own(lattice):
    # the lattice ball of radius 2 in 2 copies, the second twice the first
    ex = make_exhaustion(lattice, 0, [2, 4])
    u = np.array([5.0, 3.0, 1.0, 2.0, 0.0])
    pos, _ = _copies(ex, np.ones(9), np.ones((2, 9)))
    union = np.empty(10)
    union[pos[:, :5]] = [u, 2.0 * u]
    start = _shifted_profile(ex.ends, pos, union, 2, 4)
    one = [5.0, 5.0, 5.0, 5.0, 5.0, 2.0, 2.0, 1.0, 1.0]
    assert start[pos[0]].tolist() == one
    assert start[pos[1]].tolist() == [2.0 * v for v in one]
    # k = 2, 3 and 5 copies on every family, also out to a radius past
    # saturation: each copy's profile is its own, bit for bit, and the
    # copy-by-copy means to rounding
    rng = np.random.default_rng(0)
    for spec, radii in _UNION_CASES:
        g = generate(spec)
        ex = make_exhaustion(g, g.root, radii)
        n = ex.order.size
        for k in (2, 3, 5):
            pos, _ = _copies(ex, np.ones(n), np.ones((k, n)))
            for r_old, r_new in (*zip(radii, radii[1:]), (radii[0], radii[-1] + 3)):
                old, new = ex.size(r_old), ex.size(r_new)
                union = rng.random(k * old)
                start = _shifted_profile(ex.ends, pos, union, r_old, r_new)
                assert start.size == k * new
                for c in range(k):
                    mine = union[pos[c, :old]]
                    alone = _shifted_profile(ex.ends, np.arange(n)[None], mine, r_old, r_new)
                    assert start[pos[c, :new]].tobytes() == alone.tobytes()
                    assert alone.tolist() == pytest.approx(
                        _layer_means_moved(ex.ends, mine.tolist(), r_old, r_new), rel=1e-14)


def test_shifted_profile_on_a_ball_that_saturates():
    # the path 0 - 1 - 2 - 3 - 4 has 5 layers, so the ball of radius 5 is
    # the ball of radius 4: the shift by 3 layers still reads radius 5
    ex = make_exhaustion(finite_path(5), 0, [2, 5])
    assert ex.ends == (1, 2, 3, 4, 5)
    start = _shifted_profile(ex.ends, np.arange(5)[None], np.array([6.0, 4.0, 1.0]), 2, 5)
    assert start.tolist() == [6.0, 6.0, 6.0, 6.0, 4.0]
    # classify runs through it to the exact answer on the finite graph
    rep = classify(finite_path(5), Potential.constant(1.0), ID, ex, alpha_grid=[1.0], probes=[0])
    assert rep.estimates[0].defects[0][-1] == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("spec, radii", _UNION_CASES)
def test_copies_of_each_ball_are_a_leading_block_of_the_union(spec, radii):
    g = generate(spec)
    ex = make_exhaustion(g, g.root, radii)
    n = ex.order.size
    w = np.linspace(1.0, 2.0, n)
    for k in (2, 3, 5):
        fv = np.outer(np.arange(1, k + 1) / 2.0, w)
        pos, arrays = _copies(ex, w, fv)
        want_pos, want = _union_copy_by_copy(ex, w, fv)
        assert pos.tolist() == want_pos
        assert [a.tolist() for a in arrays] == list(want)
        order, rows, cols, b, m, deg, wu, f = arrays
        assert sorted(pos.ravel().tolist()) == list(range(k * n))
        which = np.empty(k * n, dtype=np.int64)  # the copy and vertex at each place
        vertex = np.empty(k * n, dtype=np.int64)
        which[pos], vertex[pos] = np.arange(k)[:, None], np.arange(n)
        for c in range(k):
            for got, want in ((order, ex.order), (m, ex.m), (deg, ex.deg), (wu, w), (f, fv[c])):
                assert (got[pos[c]] == want).all()
        for size in ex.sizes:
            assert (np.sort(pos[:, :size].ravel()) == np.arange(k * size)).all()
            joint = _System(*arrays, k * size)
            one = _System(ex.order, ex.rows, ex.cols, ex.b, ex.m, ex.deg, w, fv[0], size)
            assert (joint.forest is None) == (one.forest is None)
            for c in range(k):  # each copy's edges, in order, are the ball's
                mine = which[joint.rows] == c
                assert (which[joint.cols[mine]] == c).all()
                assert vertex[joint.rows[mine]].tolist() == one.rows.tolist()
                assert vertex[joint.cols[mine]].tolist() == one.cols.tolist()
                assert joint.b[mine].tolist() == one.b.tolist()
            assert mine.sum() * k == joint.rows.size


def test_one_copy_is_the_ball_itself(lattice):
    ex = make_exhaustion(lattice, 0, [3, 6])
    w = np.ones(ex.order.size)
    pos, arrays = _copies(ex, w, w[None])
    assert pos.tolist() == [list(range(13))]
    assert all(a is b for a, b in zip(arrays[:7], (ex.order, ex.rows, ex.cols, ex.b, ex.m,
                                                    ex.deg, w)))
