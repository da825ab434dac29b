"""Exhaustions and the monotone resolvent limit."""

import math
import re

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
    default_probes,
    doubling_schedule,
    extended_resolvent,
    finite_path,
    geometric_chain,
    identity,
    lattice_z,
    make_exhaustion,
    odd_power,
    solve_dirichlet,
    symmetric_tree,
)

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
    assert ex.order == tuple(ball(lattice, 0, 3))
    assert ex.order[: ex.sizes[0]] == tuple(ball(lattice, 0, 1))


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
    ex = make_exhaustion(chain4, 0, [6, 12])
    with pytest.raises(SolveError, match="exhaustion step"):
        extended_resolvent(chain4, unit_potential, ID, lambda x: 1.0, ex,
                           opts=SolveOptions(max_sweeps=1))


def test_solve_error_carries_completed_steps(chain4, unit_potential):
    opts = SolveOptions(max_sweeps=8)
    f = VertexFunction.delta(0)
    with pytest.raises(SolveError) as info:
        extended_resolvent(chain4, unit_potential, ID, f,
                           make_exhaustion(chain4, 0, [2, 40]), probes=[0, 1], opts=opts)
    done = extended_resolvent(chain4, unit_potential, ID, f,
                              make_exhaustion(chain4, 0, [2]), probes=[0, 1], opts=opts)
    assert info.value.partial.csv_rows() == done.csv_rows()
    # nothing completed before a failure at step 0
    with pytest.raises(SolveError) as info:
        extended_resolvent(chain4, unit_potential, ID, f,
                           make_exhaustion(chain4, 0, [40]), opts=opts)
    assert info.value.partial is None


def test_probe_deduplication_and_default(lattice, unit_potential):
    ex = make_exhaustion(lattice, 0, [3, 6])
    est = extended_resolvent(lattice, unit_potential, ID, lambda x: 1.0, ex,
                             probes=[2, 2, -1])
    assert est.probes == (2, -1)
    with pytest.raises(ValueError):
        extended_resolvent(lattice, unit_potential, ID, lambda x: 1.0, ex, probes=[])


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
    probes = default_probes(g, ex)
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
