"""Checks of the benchmark's own oracles and span arithmetic.

    python3 -m pytest perfbench
"""

import pytest

from nlresolvent import (
    Potential,
    SolveOptions,
    VertexFunction,
    ball,
    lattice_z,
    linear_oracle,
    odd_power,
    solve_dirichlet,
    symmetric_tree,
)

import oracles
import tracer


@pytest.mark.parametrize("radius", [0, 1, 2, 3, 4])
def test_tree_oracle_matches_dense_linear_solve(radius):
    g = symmetric_tree(2)
    U = ball(g, 0, radius)
    dense = linear_oracle(g, Potential.constant(1.0), VertexFunction({x: 1.0 for x in U}), U)
    radial = oracles.tree_radial_resolvent(radius)
    for x in U:
        assert radial[oracles.tree_depth(x, 2)] == pytest.approx(dense(x), abs=1e-13)


@pytest.mark.parametrize("radius", [0, 1, 2, 3])
@pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0])
def test_cubic_oracle_matches_solver(radius, alpha):
    g = lattice_z()
    U = ball(g, 0, radius)
    res = solve_dirichlet(g, Potential.constant(1.0), odd_power(3.0),
                          VertexFunction({x: alpha for x in U}), U,
                          opts=SolveOptions(residual_tol=1e-13, sweep_tol=1e-15))
    assert res.converged
    half = oracles.lattice_power_resolvent(radius, alpha)
    for x in U:
        assert half[abs(x)] == pytest.approx(res.u(x), abs=1e-11)


def test_tree_depth_of_breadth_first_ids():
    assert [oracles.tree_depth(v, 2) for v in range(8)] == [0, 1, 1, 2, 2, 2, 2, 3]
    assert [oracles.tree_depth(v, 3) for v in (0, 1, 3, 4, 12, 13)] == [0, 1, 1, 2, 2, 3]


def test_self_time_subtracts_nested_children():
    spans = [
        ["cli.main", 0.0, 10.0, -1],
        ["solver.solve", 1.0, 4.0, 0],
        ["solver.energy", 2.0, 3.0, 1],
        ["graphs.ball", 5.0, 6.5, 0],
        ["graphs.ball", 6.0, 7.0, 0],  # overlaps its sibling: covered once
    ]
    assert tracer.self_times(spans) == pytest.approx([5.0, 2.0, 1.0, 1.5, 1.0])


def test_layer_metrics_from_spans_and_counts():
    report = {
        "spans": [
            ["cli.main", 0.0, 10.0, -1],
            ["solver.solve_dirichlet", 1.0, 4.0, 0],
            ["solver.energy_functional", 3.0, 3.5, 1],
            ["solver.solve_dirichlet", 5.0, 6.0, 0],
        ],
        "counts": {"solver.vertex_updates": 40, "nonlinearity.phi.calls": 100,
                   "solver.converged": 1, "resolvent.steps": 3},
        "absent": [],
    }
    m = tracer.layer_metrics(report)
    assert m["solver.solve_s"] == pytest.approx(4.0)
    assert m["solver.solve_self_s"] == pytest.approx(3.5)
    assert m["solver.solve_s_max"] == pytest.approx(3.0)
    assert m["solver.energy_s"] == pytest.approx(0.5)
    assert m["cli.self_s"] == pytest.approx(6.0)
    assert m["solver.solve_calls"] == 2
    assert m["solver.converged_ratio"] == 0.5
    assert m["resolvent.reused_steps"] == 1
    assert m["nonlinearity.phi_calls_per_update"] == 2.5
