"""Dirichlet solver: exact small solutions, flags, residuals, energy."""

import dataclasses
import math
import random
import warnings

import pytest

from nlresolvent import (
    ExplicitGraph,
    Potential,
    ProceduralGraph,
    SolveOptions,
    VertexFunction,
    ball,
    bounded_atan,
    energy_functional,
    extended_resolvent,
    finite_path,
    identity,
    lattice_z,
    make_exhaustion,
    micro_suite,
    odd_log,
    odd_power,
    random_sparse,
    residual,
    solve_dirichlet,
)

ID = identity()


# --- exact hand-solved instances -------------------------------------------
# pair, W = 1, f = delta_0, phi = id:  (u0 - u1) + u0 = 1, (u1 - u0) + u1 = 0
# gives u = (2/3, 1/3); energy = Q + sum Phi(f - Wu) m / W = 1/9 + 1/9 + 1/9.


def test_pair_delta_exact(pair, unit_potential):
    res = solve_dirichlet(pair, unit_potential, ID, VertexFunction.delta(0), [0, 1])
    assert res.converged
    assert res.u(0) == pytest.approx(2.0 / 3.0, abs=1e-9)
    assert res.u(1) == pytest.approx(1.0 / 3.0, abs=1e-9)
    e = energy_functional(pair, unit_potential, ID, VertexFunction.delta(0), res.u, [0, 1])
    assert e == pytest.approx(1.0 / 3.0, abs=1e-9)


def test_pair_delta_with_w_two(pair):
    # (t0 - t1) + 2 t0 = 1 and (t1 - t0) + 2 t1 = 0  =>  (3/8, 1/8)
    res = solve_dirichlet(pair, Potential.constant(2.0), ID, VertexFunction.delta(0), [0, 1])
    assert res.u(0) == pytest.approx(3.0 / 8.0, abs=1e-9)
    assert res.u(1) == pytest.approx(1.0 / 8.0, abs=1e-9)


def test_isolated_vertex_is_f_over_w():
    # L u = 0 there, so phi^{-1}(0) + W u = f regardless of phi
    g = ExplicitGraph({7: 1.0}, {})
    for nl in (ID, odd_power(3.0), bounded_atan()):
        res = solve_dirichlet(g, Potential.constant(2.0), nl, VertexFunction({7: 3.0}), [7])
        assert res.converged
        assert res.u(7) == pytest.approx(1.5, abs=1e-10)


def test_zero_data_gives_zero(path3, unit_potential):
    res = solve_dirichlet(path3, unit_potential, odd_power(3.0), VertexFunction.zero(), [0, 1, 2])
    assert res.converged
    assert res.u.support == ()
    assert energy_functional(path3, unit_potential, odd_power(3.0), VertexFunction.zero(),
                             res.u, [0, 1, 2]) == 0.0


def test_empty_unknown_set(pair, unit_potential):
    res = solve_dirichlet(pair, unit_potential, ID, VertexFunction.delta(0), [])
    assert res.converged
    assert res.u.support == ()


def test_data_outside_u_does_not_leak(path3, unit_potential):
    # f lives at vertex 2 only; with U = {0, 1} the Dirichlet value
    # u(2) = 0 is what couples in, so the solution is identically zero
    res = solve_dirichlet(path3, unit_potential, ID, VertexFunction.delta(2), [0, 1])
    assert res.converged
    assert res.u.support == ()


# --- invariants -------------------------------------------------------------


def test_sup_norm_bound(path3):
    W = Potential.constant(0.5)
    f = VertexFunction({0: 1.0, 1: -2.0, 2: 0.5})
    for nl in (ID, odd_power(3.0), odd_power(0.5)):
        res = solve_dirichlet(path3, W, nl, f, [0, 1, 2])
        assert res.u.sup_norm() <= f.sup_norm() / W.W0 + 1e-9


def test_monotone_iteration_for_nonnegative_data(chain4, unit_potential):
    f = VertexFunction({k: 1.0 for k in range(8)})
    res = solve_dirichlet(chain4, unit_potential, ID, f, list(range(8)))
    assert res.converged
    assert res.max_decrease <= 1e-9
    assert all(res.u(x) >= -1e-12 for x in range(8))


def test_warm_start_reuses_solution(pair, unit_potential):
    f = VertexFunction.delta(0)
    first = solve_dirichlet(pair, unit_potential, ID, f, [0, 1])
    again = solve_dirichlet(pair, unit_potential, ID, f, [0, 1], start=first.u)
    assert again.converged
    assert again.sweeps_used <= 2
    assert again.u(0) == pytest.approx(first.u(0), abs=1e-10)


def test_scaled_residual_handles_huge_data(pair, unit_potential):
    # at f ~ 1e12 an absolute residual of 1e-9 is below float resolution
    opts = SolveOptions()
    f = VertexFunction({0: 1e12, 1: 1e12})
    res = solve_dirichlet(pair, unit_potential, ID, f, [0, 1], opts=opts)
    assert res.converged
    assert res.residual_inf <= opts.residual_tol * (1.0 + f.sup_norm())


def test_energy_at_solution_is_minimal(path3, unit_potential):
    f = VertexFunction({0: 1.0, 1: 0.6, 2: 0.9})
    for nl in (ID, odd_power(3.0)):
        res = solve_dirichlet(path3, unit_potential, nl, f, [0, 1, 2])
        base = energy_functional(path3, unit_potential, nl, f, res.u, [0, 1, 2])
        for x in (0, 1, 2):
            for eps in (1e-3, -1e-3, 1e-2):
                bumped = res.u.as_dict()
                bumped[x] = bumped.get(x, 0.0) + eps
                e = energy_functional(path3, unit_potential, nl, f,
                                      VertexFunction(bumped), [0, 1, 2])
                assert e >= base - 1e-10


def test_energy_functional_hand_value(pair, unit_potential):
    # u = delta_0: Q = 1, both kappa terms vanish since f - Wu = 0 on supp
    e = energy_functional(pair, unit_potential, ID, VertexFunction.delta(0),
                          VertexFunction.delta(0), [0, 1])
    assert e == pytest.approx(1.0, abs=1e-12)


# --- flags and failure modes -------------------------------------------------


def test_non_convergence_is_flagged_not_raised(chain4, unit_potential):
    f = VertexFunction({k: 1.0 for k in range(12)})
    res = solve_dirichlet(chain4, unit_potential, ID, f, list(range(12)),
                          opts=SolveOptions(max_sweeps=1))
    assert not res.converged
    assert res.sweeps_used == 1
    assert res.residual_inf > 0.0


def test_potential_below_certificate_rejected(pair):
    W = Potential(lambda x: 0.1, W0=1.0)
    with pytest.raises(ValueError):
        solve_dirichlet(pair, W, ID, VertexFunction.delta(0), [0, 1])


def test_residual_report_range_violations(pair, unit_potential):
    # L u = +-20 falls outside ran atan = (-pi/2, pi/2)
    u = VertexFunction({0: 10.0, 1: -10.0})
    rep = residual(pair, unit_potential, bounded_atan(), VertexFunction.delta(0), u, [0, 1])
    assert not rep.ok
    assert rep.range_violations
    violated = [x for x, _ in rep.range_violations]
    assert 0 in violated


def test_residual_report_at_solution(pair, unit_potential):
    res = solve_dirichlet(pair, unit_potential, ID, VertexFunction.delta(0), [0, 1])
    rep = residual(pair, unit_potential, ID, VertexFunction.delta(0), res.u, [0, 1])
    assert rep.ok
    assert rep.sup <= 1e-9
    assert set(rep.values) == {0, 1}


@pytest.mark.parametrize("U", [[0, 1, 2], [1, 0, 2]])
def test_residual_sup_propagates_nan_in_any_order(path3, U):
    W = Potential(lambda x: math.nan if x == 1 else 1.0, W0=1.0)
    u = VertexFunction({0: 1.0, 1: 1.0, 2: 1.0})
    rep = residual(path3, W, ID, VertexFunction.delta(0), u, U)
    assert math.isnan(rep.values[1])
    assert math.isnan(rep.sup)


def test_options_validation():
    with pytest.raises(ValueError):
        SolveOptions(sweep_tol=0.0)
    with pytest.raises(ValueError):
        SolveOptions(max_sweeps=0)
    for name in ("sweep_tol", "residual_tol"):
        for bad in (math.nan, math.inf):
            with pytest.raises(ValueError, match=name):
                SolveOptions(**{name: bad})


@pytest.mark.parametrize("nl", [ID, odd_power(0.5)], ids=["newton", "gauss-seidel"])
@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_non_finite_potential_rejected(path3, nl, bad):
    W = Potential(lambda x: bad if x == 1 else 1.0, W0=1.0)
    with pytest.raises(ValueError, match=r"W\(1\) = .* is not finite"):
        solve_dirichlet(path3, W, nl, VertexFunction.delta(0), [0, 1, 2])


def test_non_finite_weight_rejected(unit_potential):
    g = ProceduralGraph(0, lambda x: [(x + 1, math.inf if x == 2 else 1.0)])
    with pytest.raises(ValueError, match=r"deg\(2\) = inf is not finite"):
        solve_dirichlet(g, unit_potential, ID, VertexFunction.delta(0), [0, 1, 2])


# --- Newton path against the Gauss-Seidel fallback ---------------------------

BUILTINS = (ID, odd_power(3.0), odd_log(), bounded_atan())


def _without_arrays(nl):
    """The same phi with no array forms, which forces Gauss-Seidel."""
    return dataclasses.replace(nl, name=f"{nl.name}/scalar", arrays=None)


@pytest.mark.parametrize("nl", BUILTINS, ids=lambda nl: nl.name)
def test_newton_agrees_with_gauss_seidel_on_random_graphs(nl):
    for seed in range(30):
        rng = random.Random(seed)
        n = rng.randint(2, 40)
        g = random_sparse(n, density=rng.uniform(0.05, 0.4), seed=seed)
        wmap = {x: rng.uniform(0.5, 3.0) for x in range(n)}
        W = Potential.from_callable(lambda x, m=wmap: m[x], W0=0.5)
        f = VertexFunction({x: rng.uniform(-2.0, 2.0) for x in range(n)})
        U = sorted(rng.sample(range(n), rng.randint(1, n)))
        a = solve_dirichlet(g, W, nl, f, U)
        b = solve_dirichlet(g, W, _without_arrays(nl), f, U)
        assert a.converged and b.converged
        assert max(abs(a.u(x) - b.u(x)) for x in U) <= 1e-9


@pytest.mark.parametrize("nl", BUILTINS, ids=lambda nl: nl.name)
def test_newton_agrees_with_gauss_seidel_on_lattice_ball(nl, unit_potential):
    g = lattice_z()
    U = ball(g, 0, 25)
    f = VertexFunction({x: 1.0 for x in U})
    a = solve_dirichlet(g, unit_potential, nl, f, U)
    b = solve_dirichlet(g, unit_potential, _without_arrays(nl), f, U)
    assert a.converged and b.converged
    assert max(abs(a.u(x) - b.u(x)) for x in U) <= 1e-9


def test_square_root_power_takes_the_fallback(path3, unit_potential):
    # phi'(0) is infinite, so Newton cannot run; Gauss-Seidel still solves
    nl = odd_power(0.5)
    f = VertexFunction({0: 1.0, 1: -2.0, 2: 0.5})
    res = solve_dirichlet(path3, unit_potential, nl, f, [0, 1, 2])
    scalar = solve_dirichlet(path3, unit_potential, _without_arrays(nl), f, [0, 1, 2])
    assert res.converged
    assert res.sweeps_used == scalar.sweeps_used
    rep = residual(path3, unit_potential, nl, f, res.u, [0, 1, 2])
    assert rep.ok and rep.sup <= 1e-8


def test_array_forms_raise_no_numpy_warnings(path3, unit_potential):
    # overflow inside phi, expm1 or tan must surface as inf or a range
    # violation, never as a RuntimeWarning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for case in micro_suite():
            for nl in BUILTINS:
                res = solve_dirichlet(case["g"], case["W"], nl, case["f"], case["U"])
                assert res.converged
        g = lattice_z()
        ex = make_exhaustion(g, 0, [25, 50, 100])
        est = extended_resolvent(g, unit_potential, odd_power(3.0), lambda x: 1.0, ex)
        assert len(est.steps) == 3
        # data whose phi overflows float64: flagged, not warned about
        huge = VertexFunction({0: 1e200, 1: -1e200})
        for nl in (odd_power(3.0), bounded_atan()):
            res = solve_dirichlet(path3, unit_potential, nl, huge, [0, 1, 2])
            assert not res.converged
        # probing phi'(0) = inf for the fallback choice divides by zero
        assert solve_dirichlet(path3, unit_potential, odd_power(0.5),
                               VertexFunction.delta(0), [0, 1, 2]).converged
