"""Exhaustions and the monotone resolvent limit."""

import pytest

from nlresolvent import (
    CSV_HEADER,
    GraphError,
    Potential,
    SolveError,
    SolveOptions,
    VertexFunction,
    doubling_schedule,
    extended_resolvent,
    finite_path,
    identity,
    make_exhaustion,
    solve_dirichlet,
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
    # nested as prefixes
    assert ex.sets[1][: len(ex.sets[0])] == ex.sets[0]


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
    assert est.all_converged
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
    assert est.all_converged


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
    assert est.all_converged


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
