"""Dirichlet solver: exact small solutions, flags, residuals, energy."""

import dataclasses
import math
import random
import re
import time
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nlresolvent import (
    ExplicitGraph,
    GraphError,
    Nonlinearity,
    Potential,
    ProceduralGraph,
    SolveOptions,
    VertexFunction,
    ball,
    bounded_atan,
    brute_force_minimizer,
    energy_functional,
    extended_resolvent,
    finite_path,
    generate,
    identity,
    lattice_z,
    make_exhaustion,
    micro_suite,
    odd_log,
    odd_power,
    random_sparse,
    residual,
    solve_dirichlet,
    symmetric_tree,
)
from nlresolvent import solver

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


def test_a_closed_set_with_data_c_w_is_solved_exactly():
    # no edge leaves all of star:8, and f = 2 W: u = 2 solves it with no
    # sweep, where Newton on t^3 meets a singular Hessian, phi'(0) = 0, and
    # ran out of 100,000 sweeps; the cap fails the Newton run fast
    g, W = generate("star:8"), Potential.constant(0.5)
    res = solve_dirichlet(g, W, odd_power(3.0), lambda x: 1.0, range(9),
                          opts=SolveOptions(max_sweeps=50))
    assert res.converged and res.sweeps_used == 0 and res.residual_inf == 0.0
    assert res.u.as_dict() == dict.fromkeys(range(9), 2.0)


def test_each_closed_component_takes_its_own_constant(unit_potential):
    # two components, both closed in U: f / W is constant along each edge,
    # not on U, and each component takes its constant
    g = ExplicitGraph.from_edges([(0, 1, 1.0), (2, 3, 2.0), (3, 4, 1.0)])
    f = VertexFunction({0: 3.0, 1: 3.0, 2: -1.5, 3: -1.5, 4: -1.5})
    res = solve_dirichlet(g, unit_potential, odd_power(3.0), f, range(5))
    assert res.converged and res.sweeps_used == 0
    assert res.u.as_dict() == f.as_dict()


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
    # phi = t^3 needs more than one Newton step, each one sweep on the chain
    f = VertexFunction({k: 1.0 for k in range(12)})
    nl = odd_power(3.0)
    assert solve_dirichlet(chain4, unit_potential, nl, f, list(range(12))).sweeps_used > 1
    res = solve_dirichlet(chain4, unit_potential, nl, f, list(range(12)),
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


def test_residual_report_an_inverse_past_the_largest_float(pair, unit_potential):
    # ran phi is all of R, but phi^{-1}(+-1e12) = +-1e312 is no float
    nl = Nonlinearity(name="flat", phi=lambda t: 1e-300 * t)
    u = VertexFunction({0: 5e11, 1: -5e11})
    rep = residual(pair, unit_potential, nl, VertexFunction.zero(), u, [0, 1])
    assert rep.range_violations == ((0, 1e12), (1, -1e12))
    assert (rep.values, rep.sup) == ({}, 0.0)


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


# the second id names odd_power(0.5), whose Newton step runs on the inverse form
@pytest.mark.parametrize("nl", [ID, odd_power(0.5)], ids=["newton", "gauss-seidel"])
@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_non_finite_potential_rejected(path3, nl, bad):
    W = Potential(lambda x: bad if x == 1 else 1.0, W0=1.0)
    with pytest.raises(ValueError, match=r"W\(1\) = .* is not finite"):
        solve_dirichlet(path3, W, nl, VertexFunction.delta(0), [0, 1, 2])


def test_non_finite_weight_rejected(unit_potential):
    g = ProceduralGraph(0, lambda x: [(x + 1, math.inf if x == 2 else 1.0)])
    with pytest.raises(GraphError, match=re.escape("b(2,3) = inf, which is not finite")):
        solve_dirichlet(g, unit_potential, ID, VertexFunction.delta(0), [0, 1, 2])


@pytest.mark.parametrize("call", [
    lambda g: ball(g, 0, 5),
    lambda g: make_exhaustion(g, 0, [2, 5]),
    lambda g: solve_dirichlet(g, Potential.constant(1.0), ID, VertexFunction.delta(0), [0, 1, 2]),
], ids=["ball", "make_exhaustion", "solve_dirichlet"])
def test_nan_weight_rejected_where_rows_enter(call):
    # a search would drop a NaN edge as one of weight 0, and stop short
    g = ProceduralGraph(0, lambda x: [(x + 1, math.nan if x == 2 else 1.0)])
    with pytest.raises(GraphError, match=re.escape("b(2,3) = nan, which is not finite")):
        call(g)


# --- array forms mapped from the scalar calculus -----------------------------
# A phi without array forms runs Newton on forms mapped from its scalar
# ones; the tests keep the names they had when it ran Gauss-Seidel.  The
# reference is the per-vertex ``residual``: by the comparison principle
# ||u - u*||_inf <= sup |r| / W0.

BUILTINS = (ID, odd_power(3.0), odd_log(), bounded_atan())
# odd_power(3)'s phi and phi' alone: Phi and the inverse are numeric
CUBIC = Nonlinearity(name="cubic", phi=odd_power(3.0).phi, deriv=odd_power(3.0).deriv)


def _without_arrays(nl):
    """The same phi with no array forms, which the solver maps from its scalar forms."""
    return dataclasses.replace(nl, name=f"{nl.name}/scalar", arrays=None)


def _certified(g, W, nl, f, res, U, bound=1e-8):
    """res converged, and within ``bound`` of the solution by its residual."""
    rep = residual(g, W, nl, f, res.u, U)
    return res.converged and rep.ok and rep.sup / W.W0 <= bound


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
        assert _certified(g, W, nl, f, a, U) and _certified(g, W, nl, f, b, U)
        assert max(abs(a.u(x) - b.u(x)) for x in U) <= 1e-9


@pytest.mark.parametrize("nl", BUILTINS, ids=lambda nl: nl.name)
def test_newton_agrees_with_gauss_seidel_on_lattice_ball(nl, unit_potential):
    g = lattice_z()
    U = ball(g, 0, 25)
    f = VertexFunction({x: 1.0 for x in U})
    a = solve_dirichlet(g, unit_potential, nl, f, U)
    b = solve_dirichlet(g, unit_potential, _without_arrays(nl), f, U)
    assert _certified(g, unit_potential, nl, f, a, U)
    assert _certified(g, unit_potential, nl, f, b, U)
    assert max(abs(a.u(x) - b.u(x)) for x in U) <= 1e-9


def test_square_root_power_takes_the_inverse_form(path3, unit_potential):
    # phi'(0) is infinite: Newton runs on phi^{-1}(L u) + W u = f, whose
    # Jacobian diag(psi'(L u) / m) A + diag(W), psi = phi^{-1}, is an M-matrix
    nl = odd_power(0.5)
    f = VertexFunction({0: 1.0, 1: -2.0, 2: 0.5})
    res = solve_dirichlet(path3, unit_potential, nl, f, [0, 1, 2])
    scalar = solve_dirichlet(path3, unit_potential, _without_arrays(nl), f, [0, 1, 2])
    assert res.converged and res.sweeps_used <= 10
    assert res.sweeps_used == scalar.sweeps_used
    rep = residual(path3, unit_potential, nl, f, res.u, [0, 1, 2])
    assert rep.ok and rep.sup <= 1e-8


@pytest.mark.parametrize("opts, sweeps", [
    (SolveOptions(max_sweeps=1), 1),  # the budget runs out
    (SolveOptions(residual_tol=1e-300), 7),  # steps at float noise, long before 100,000
], ids=["max-sweeps", "float-noise"])
def test_inverse_form_reports_its_two_unconverged_exits(path3, unit_potential, opts, sweeps):
    f = VertexFunction({0: 1.0, 1: -2.0, 2: 0.5})
    res = solve_dirichlet(path3, unit_potential, odd_power(0.5), f, [0, 1, 2], opts=opts)
    assert (res.converged, res.sweeps_used) == (False, sweeps)


@pytest.mark.parametrize("case, u0", [
    ("finite-path:3", 0.9999999999216018),
    ("lattice-r200", 0.9908309421245018),
])
def test_custom_cubic_converges(case, u0, unit_potential):
    # phi'(0) = 0 where f = W u; u(0) is the builtin power:3's
    g = finite_path(3) if case == "finite-path:3" else lattice_z()
    U = [0, 1, 2] if case == "finite-path:3" else ball(g, 0, 200)
    f = VertexFunction({x: 1.0 for x in U})
    start = time.perf_counter()
    res = solve_dirichlet(g, unit_potential, CUBIC, f, U)
    assert time.perf_counter() - start < 1.0
    assert res.converged
    assert res.u(0) == pytest.approx(u0, abs=1e-9)
    bare = Nonlinearity(name="bare", phi=CUBIC.phi)  # phi' from difference quotients
    res = solve_dirichlet(g, unit_potential, bare, f, U)
    assert _certified(g, unit_potential, CUBIC, f, res, U)


@pytest.mark.parametrize("nl", [odd_power(0.5), odd_power(0.25)], ids=lambda nl: nl.name)
def test_a_bare_phi_solves(nl, unit_potential):
    # phi alone: phi' is a difference quotient, infinite at 0 for t**p, p < 1
    bare = Nonlinearity(name="bare", phi=nl.phi)
    g = lattice_z()
    U = ball(g, 0, 20)
    for f in (VertexFunction({x: 1.0 for x in U}), VertexFunction({0: 1.0, 3: -2.0})):
        res = solve_dirichlet(g, unit_potential, bare, f, U)
        assert _certified(g, unit_potential, nl, f, res, U)
        ref = solve_dirichlet(g, unit_potential, nl, f, U)
        assert max(abs(res.u(x) - ref.u(x)) for x in U) <= 1e-9


@pytest.mark.parametrize("nl", [odd_power(0.5), CUBIC], ids=lambda nl: nl.name)
def test_newton_matches_the_brute_force_minimizer(nl):
    # energy values alone locate the minimizer: an oracle independent of
    # the equations either Newton form linearizes
    for case in micro_suite():
        g, W, f, U = case["g"], case["W"], case["f"], case["U"]
        res = solve_dirichlet(g, W, nl, f, U)
        assert res.converged, case["name"]
        ref = brute_force_minimizer(g, W, nl, f, U)
        assert max(abs(res.u(x) - ref(x)) for x in U) <= 1e-4, case["name"]


def test_a_cold_sublinear_solve_on_a_tree_is_fast(unit_potential):
    # 8,191 vertices, f = delta_0, the support compact
    g = symmetric_tree(2)
    U = ball(g, 0, 12)
    start = time.perf_counter()
    res = solve_dirichlet(g, unit_potential, odd_power(0.5), VertexFunction.delta(0), U)
    assert time.perf_counter() - start < 0.5
    assert res.converged
    assert res.u(0) == pytest.approx(0.4385663786555008, abs=1e-9)
    assert _certified(g, unit_potential, odd_power(0.5), VertexFunction.delta(0), res, U)


def test_a_step_that_does_not_descend_e_backtracks_on_r():
    # at this start the inverse-form Newton step d raises E: g . d > 0
    # for the gradient g of E, computed densely here; the line search then
    # backtracks on sup |r| instead, and the solve still converges
    g = ExplicitGraph.from_edges([(0, 1, 1.67), (0, 2, 0.6), (1, 2, 0.63), (1, 3, 0.8),
                                  (2, 3, 1.12)], measures={0: 0.16, 1: 0.15, 2: 0.2})
    w, f = np.array([3.81, 5.92, 10.3]), np.array([-1.14, 1.77, 1.24])
    u, m, nl = np.array([-0.161, -0.079, -0.303]), np.array([0.16, 0.15, 0.2]), odd_power(0.1)
    A = np.array([[2.27, -1.67, -0.6], [-1.67, 3.1, -0.63], [-0.6, -0.63, 2.35]])
    lu = A @ u / m
    psi = nl.arrays.inv(lu)
    jac = (A / m[:, None]) / nl.arrays.deriv(psi)[:, None] + np.diag(w)
    d = np.linalg.solve(jac, -(psi - (f - w * u)))
    assert (A @ u - m * nl.arrays.phi(f - w * u)) @ d > 0.0
    W = Potential.from_callable(lambda x: w[x], W0=3.81)
    fv = VertexFunction(dict(enumerate(f.tolist())))
    start = VertexFunction(dict(enumerate(u.tolist())))
    res = solve_dirichlet(g, W, nl, fv, [0, 1, 2], start=start)
    assert _certified(g, W, nl, fv, res, [0, 1, 2])
    cold = solve_dirichlet(g, W, nl, fv, [0, 1, 2])
    assert max(abs(res.u(x) - cold.u(x)) for x in range(3)) <= 1e-12


def test_a_heavy_chain_shell_takes_the_gradient_rows(chain4, unit_potential):
    # on each new shell A u = 0, so D = 0, and W d = -r would lift u to
    # f / W = 1 where edges of weight 4^n hold it near 0: from radius 40 on,
    # no line search down to t = 2^-64 recovers from that step.  E's own
    # rows there give the step; u(0) and u(3) are Gauss-Seidel's, to 1e-9
    ex = make_exhaustion(chain4, 0, [5, 10, 20, 40, 80])
    est = extended_resolvent(chain4, unit_potential, odd_power(0.5), lambda x: 1.0, ex,
                             probes=[0, 3])
    assert est.values[0][-1] == pytest.approx(0.8538441529464346, abs=1e-9)
    assert est.values[3][-1] == pytest.approx(0.0687954796199873, abs=1e-9)


def test_rows_where_phi_prime_is_infinite_step_alone(unit_potential):
    # f = W = 1 on a lattice ball: u = 1 with L u = 0 on a dead core, where
    # the inverse form's row reads W d = -r; only the rows near the
    # boundary are solved as a system
    g = lattice_z()
    U = ball(g, 0, 200)
    f = VertexFunction({x: 1.0 for x in U})
    res = solve_dirichlet(g, unit_potential, odd_power(0.5), f, U)
    assert res.converged and res.sweeps_used <= 10
    assert all(res.u(x) == 1.0 for x in range(-150, 151))
    assert res.u(200) < 1.0


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
        # probing phi'(0) = inf for the choice of the inverse form divides by zero
        assert solve_dirichlet(path3, unit_potential, odd_power(0.5),
                               VertexFunction.delta(0), [0, 1, 2]).converged


# --- inexact Newton: forcing terms of the inner CG solves --------------------


def _lattice_system(radius, seed):
    """The Dirichlet Laplacian of a lattice ball, a small positive shift
    and a random right-hand side, as arrays."""
    ex = make_exhaustion(lattice_z(), 0, [radius])
    rng = np.random.default_rng(seed)
    n = len(ex.order)
    ones = np.ones(n)
    sys_ = solver._System(ex.order, ex.rows, ex.cols, ex.b, ex.m, ex.deg, ones, ones, n)
    return sys_, rng.uniform(1e-3, 1e-2, n), rng.standard_normal(n)


@pytest.mark.parametrize("seed", range(3))
def test_pcg_stops_at_the_forcing_tolerance(seed):
    sys_, c, rhs = _lattice_system(50, seed)
    dense = np.diag(sys_.deg + c)
    np.subtract.at(dense, (sys_.rows, sys_.cols), sys_.b)
    exact = np.linalg.solve(dense, rhs)
    size = np.linalg.norm(rhs)
    used = []
    for eta in (0.5, 1e-2, 1e-6, 0.0):
        x, its, r = solver._pcg(sys_, c, rhs, 10**6, eta)
        # r is the residual of x, and it has fallen by eta at least
        assert np.linalg.norm(r - (rhs - dense @ x)) <= 1e-12 * size
        assert np.linalg.norm(r) <= eta * size or eta == 0.0
        used.append(its)
    assert used == sorted(used) and used[0] < used[-1]
    # eta = 0 runs to float noise, as the exact solve of a first step
    assert np.max(np.abs(x - exact)) <= 1e-10 * np.max(np.abs(exact))
    _, its, _ = solver._pcg(sys_, c, rhs, 7, 0.0)
    assert its == 7


def test_pcg_stops_where_the_direction_has_no_curvature():
    # on a closed component with c = 0 and rhs = deg, the first direction is
    # p = deg / deg = 1, in the null space of A: p.Ap = 0, and CG must stop
    # at x = 0 before it divides by it
    ex = make_exhaustion(generate("complete:6"), 0, [1])
    n = len(ex.order)
    ones = np.ones(n)
    sys_ = solver._System(ex.order, ex.rows, ex.cols, ex.b, ex.m, ex.deg, ones, ones, n)
    assert ex.closed and not sys_.apply(ones).any()
    x, its, r = solver._pcg(sys_, np.zeros(n), ex.deg.copy(), 100, 0.0)
    assert its == 0 and not x.any()
    assert np.isfinite(r).all() and np.array_equal(r, ex.deg)


@pytest.fixture
def pcg_calls(monkeypatch):
    """The eta of every _pcg call, one list per Newton solve."""
    calls = []
    newton, pcg = solver._newton, solver._pcg

    def counted_newton(*args):
        calls.append([])
        return newton(*args)

    def counted_pcg(sys_, c, rhs, budget, eta):
        calls[-1].append(eta)
        return pcg(sys_, c, rhs, budget, eta)

    monkeypatch.setattr(solver, "_newton", counted_newton)
    monkeypatch.setattr(solver, "_pcg", counted_pcg)
    return calls


@pytest.fixture
def eliminations(monkeypatch):
    """For every _eliminate call, whether it solved the step."""
    calls = []
    eliminate = solver._eliminate

    def counted_eliminate(sys_, c, rhs):
        x = eliminate(sys_, c, rhs)
        calls.append(x is not None)
        return x

    monkeypatch.setattr(solver, "_eliminate", counted_eliminate)
    return calls


def second_neighbor_lattice():
    """Z with unit edges to the first and second neighbors: a graph with
    cycles, so its Newton steps run conjugate gradients."""
    return ProceduralGraph(0, lambda x: [(x - 2, 1.0), (x - 1, 1.0), (x + 1, 1.0), (x + 2, 1.0)])


def test_quadratic_energy_takes_one_exact_step_per_exhaustion_step(pcg_calls, unit_potential):
    g = second_neighbor_lattice()
    ex = make_exhaustion(g, 0, [6, 12, 25])
    est = extended_resolvent(g, unit_potential, ID, lambda x: 1.0, ex)
    assert pcg_calls == [[0.0]] * len(est.steps)


def test_quadratic_energy_on_a_tree_takes_one_elimination_per_exhaustion_step(
        pcg_calls, eliminations, unit_potential):
    g = symmetric_tree(2)
    ex = make_exhaustion(g, 0, [4, 8, 12])
    est = extended_resolvent(g, unit_potential, ID, lambda x: 1.0, ex)
    assert pcg_calls == [[]] * len(est.steps)
    assert eliminations == [True] * len(est.steps)
    assert [s.sweeps for s in est.steps] == [1] * len(est.steps)


def test_later_newton_steps_take_eisenstat_walker_forcing_terms(pcg_calls, unit_potential):
    g = second_neighbor_lattice()
    ex = make_exhaustion(g, 0, [6, 12, 25])
    extended_resolvent(g, unit_potential, odd_power(3.0), lambda x: 1.0, ex)
    assert len(pcg_calls) == 3
    for etas in pcg_calls:
        assert etas[0] == 0.0 and len(etas) > 1
        assert all(0.0 <= eta <= solver._ETA_MAX for eta in etas)
        assert any(eta > 0.0 for eta in etas)


def test_newton_steps_on_a_tree_are_eliminations(pcg_calls, eliminations, unit_potential):
    g = lattice_z()
    ex = make_exhaustion(g, 0, [12, 25, 50])
    est = extended_resolvent(g, unit_potential, odd_power(3.0), lambda x: 1.0, ex)
    assert pcg_calls == [[]] * 3
    assert len(eliminations) == sum(s.sweeps for s in est.steps) > 3
    assert all(eliminations)


# --- exact steps on forests: leaf-to-root elimination -------------------------


def _forest_system(parent, b, excess):
    """The _System of the forest with the given parent of each vertex (-1
    at a root, parents first) and edge weights b(x, parent(x)); deg is
    the sum of the forest weights plus ``excess``, the weight of the
    edges that leave the set."""
    n = len(parent)
    kids = [x for x in range(n) if parent[x] >= 0]
    entries = sorted([(x, parent[x], b[x]) for x in kids] + [(parent[x], x, b[x]) for x in kids])
    rows = np.array([e[0] for e in entries], dtype=np.intp)
    cols = np.array([e[1] for e in entries], dtype=np.intp)
    ws = np.array([e[2] for e in entries], dtype=float)
    deg = np.bincount(rows, ws, minlength=n) + np.asarray(excess, dtype=float)
    ones = np.ones(n)
    return solver._System(list(range(n)), rows, cols, ws, ones, deg, ones, ones, n)


def _dense(sys_, c):
    a = np.diag(sys_.deg + c)
    np.subtract.at(a, (sys_.rows, sys_.cols), sys_.b)
    return a


def _bfs_layers(parent):
    """The layer bounds of a forest given in breadth-first order, from
    the depth of each vertex."""
    depth = []
    for p in parent:
        depth.append(0 if p < 0 else depth[p] + 1)
    return [0, *(i for i in range(1, len(depth)) if depth[i] != depth[i - 1]), len(depth)]


@st.composite
def forests(draw, bfs, leak):
    """A forest with parents first, its weights, excess, c and rhs; in
    breadth-first order (non-decreasing parents) when ``bfs``.  Weights
    are log-uniform on 1e-8..1e8, and c and the excess are 0 at about a
    third of the vertices.  The excess is positive at the roots, and
    where ``leak`` it is 1% to 100% of the forest degree at every vertex
    on top, which bounds the condition of the Jacobi-scaled matrix."""
    n = draw(st.integers(1, 40))
    roots = draw(st.integers(1, min(n, 3)))
    parent = [-1] * roots
    for x in range(roots, n):
        lo = max(parent[-1], 0) if bfs else 0
        parent.append(draw(st.integers(lo, x - 1)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def weights(zeros):
        return 10.0 ** rng.uniform(-8.0, 8.0, n) * (rng.random(n) >= zeros)

    b = weights(0.0)
    excess = np.where(np.array(parent) < 0, weights(0.0), weights(0.3))
    if leak:
        forest_deg = np.bincount(range(roots, n), b[roots:], minlength=n)
        forest_deg += np.bincount(parent[roots:], b[roots:], minlength=n)
        excess += forest_deg * rng.uniform(0.01, 1.0, n)
    return parent, b.tolist(), excess, weights(0.3), rng.uniform(-1.0, 1.0, n)


def _relative(x, y):
    return np.max(np.abs(x - y)) / max(np.max(np.abs(y)), np.finfo(float).tiny)


@pytest.mark.parametrize("bfs", [True, False], ids=["bfs", "parents-first"])
@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_elimination_matches_a_dense_solve(bfs, data):
    parent, b, excess, c, rhs = data.draw(forests(bfs, leak=True))
    sys_ = _forest_system(parent, b, excess)
    assert sys_.forest is not None
    assert list(sys_.forest[0]) == parent
    x = solver._eliminate(sys_, c, rhs)
    assert x is not None
    assert _relative(x, np.linalg.solve(_dense(sys_, c), rhs)) <= 1e-10


@pytest.mark.parametrize("bfs", [True, False], ids=["bfs", "parents-first"])
@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_elimination_is_backward_stable(bfs, data):
    # without a leak at every vertex the forward error can reach 1e-4
    # (for the dense solve as well), but each equation still holds to
    # rounding: |(H x - rhs)(i)| against (|H| |x| + |rhs|)(i)
    parent, b, excess, c, rhs = data.draw(forests(bfs, leak=False))
    sys_ = _forest_system(parent, b, excess)
    x = solver._eliminate(sys_, c, rhs)
    h = _dense(sys_, c)
    scale = np.abs(h) @ np.abs(x) + np.abs(rhs)
    assert (np.abs(h @ x - rhs) <= 1e-14 * scale).all()


@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_loop_and_layered_elimination_agree(data):
    parent, b, excess, c, rhs = data.draw(forests(bfs=True, leak=True))
    sys_ = _forest_system(parent, b, excess)
    _, pb, _ = sys_.forest
    sys_.forest = (np.array(parent), pb, None)
    loop = solver._eliminate(sys_, c, rhs)
    sys_.forest = (np.array(parent), pb, _bfs_layers(parent))
    layered = solver._eliminate(sys_, c, rhs)
    assert _relative(layered, loop) <= 1e-12


def test_exhaustion_forests_and_their_layers():
    # wide breadth-first balls get their layer ends, thin ones the loop
    ones = np.ones(2047)
    ex = make_exhaustion(symmetric_tree(2), 0, [10])
    sys_ = solver._System(ex.order, ex.rows, ex.cols, ex.b, ex.m, ex.deg, ones, ones, 2047)
    assert sys_.forest[2] == [0, *ex.ends]
    ex = make_exhaustion(lattice_z(), 0, [50])
    sys_ = solver._System(ex.order, ex.rows, ex.cols, ex.b, ex.m, ex.deg, ones, ones, 101)
    assert sys_.forest is not None and sys_.forest[2] is None


def test_system_residual_leaves_out_the_range_violations():
    # on the path 0 - 1 - 2 at u = (3, 0, 0), L u = (3, -3, 0): under atan
    # only vertex 2 has a residual, |atan^-1(0) + 0 - f(2)| = 0.25
    xs = np.arange(3)
    rows, cols, b, m, deg = solver._assemble(xs, finite_path(3).block(xs))
    f = np.array([5.0, 7.0, 0.25])
    sys_ = solver._System(xs, rows, cols, b, m, deg, np.ones(3), f, 3)
    assert sys_.residual(bounded_atan(), np.array([3.0, 0.0, 0.0])) == (0.25, 0.2, (0, 1))


@pytest.mark.parametrize("make, radius", [
    (lambda: symmetric_tree(2), 6),
    (lattice_z, 10),
    (lambda: random_sparse(40, 0.15, seed=2), 3),  # cyclic, saturated at 40 vertices
], ids=["tree:2", "lattice-z", "random-sparse"])
def test_a_system_is_the_cut_of_its_block(make, radius):
    # every ball of the exhaustion, the whole set among them, against the
    # edges with both ends in the ball and the forest of those edges
    g = make()
    ex = make_exhaustion(g, g.root, [radius])
    assert ex.ends[-1] == len(ex.order)
    ones = np.ones(len(ex.order))
    for n in ex.ends:
        keep = (ex.rows < n) & (ex.cols < n)
        rows, cols, b = ex.rows[keep], ex.cols[keep], ex.b[keep]
        sys_ = solver._System(ex.order, ex.rows, ex.cols, ex.b, ex.m, ex.deg, ones, ones, n)
        assert np.array_equal(sys_.rows, rows) and np.array_equal(sys_.cols, cols)
        assert sys_.b.tobytes() == b.tobytes()
        want = solver._forest(rows, cols, b, n)
        if want is None:
            assert sys_.forest is None
        else:
            assert np.array_equal(sys_.forest[0], want[0])
            assert sys_.forest[1].tobytes() == want[1].tobytes()
            assert sys_.forest[2] == want[2]


def test_two_earlier_neighbors_are_not_a_forest():
    # the path 0 - 1 - 2 given in the order 0, 2, 1: vertex 1 comes last
    # and has both others before it; a cycle has such a vertex as well
    g = finite_path(3)
    for order in ([0, 2, 1], [1, 0, 2]):
        xs = np.array(order)
        rows, cols, b, m, deg = solver._assemble(xs, g.block(xs))
        sys_ = solver._System(order, rows, cols, b, m, deg, m, m, 3)
        assert (sys_.forest is None) == (order == [0, 2, 1])
    ex = make_exhaustion(second_neighbor_lattice(), 0, [2])
    ones = np.ones(5)
    assert solver._System(ex.order, ex.rows, ex.cols, ex.b, ex.m, ex.deg,
                          ones, ones, 5).forest is None


@pytest.mark.parametrize("bad", [0.0, -3.0, math.inf, math.nan])
def test_a_bad_pivot_gives_no_elimination(bad):
    sys_ = _forest_system([-1, 0, 1, 1], [1.0] * 4, [1.0, 0.0, 0.0, 0.0])
    c = np.zeros(4)
    c[3] = bad - 1.0  # the pivot of vertex 3, a leaf, is deg + c = bad
    assert solver._eliminate(sys_, c, np.ones(4)) is None
    assert solver._eliminate(sys_, np.zeros(4), np.array([1.0, math.inf, 0.0, 0.0])) is None


def test_a_zero_pivot_falls_back_to_pcg(pcg_calls, eliminations, unit_potential):
    # vertex 2 is isolated with f = 0: deg = 0 and phi'(0) = 0 there
    g = ExplicitGraph.from_edges([(0, 1, 1.0)], vertices=[2])
    f = VertexFunction({0: 1.0})
    res = solve_dirichlet(g, unit_potential, odd_power(3.0), f, [0, 1, 2])
    assert res.converged and res.u(2) == 0.0
    assert eliminations and not any(eliminations)
    assert len(pcg_calls[0]) == len(eliminations)
    ref = solve_dirichlet(g, unit_potential, _without_arrays(odd_power(3.0)), f, [0, 1, 2])
    assert max(abs(res.u(x) - ref.u(x)) for x in (0, 1)) <= 1e-9


@pytest.mark.parametrize("nl", [
    odd_power(3.0),
    Nonlinearity(name="cubic", phi=lambda t: t**3),
    Nonlinearity(name="cubic", phi=lambda t: t**3, deriv=lambda t: 3.0 * t * t),
], ids=["builtin", "custom", "custom-deriv"])
def test_overflowing_data_spends_no_sweep(unit_potential, nl):
    # phi(1e120) overflows: the first step's right-hand side is not finite,
    # so no step is taken, and none is counted; a custom phi's t**3 raises
    # OverflowError, which its mapped array forms turn into inf
    g = lattice_z()
    res = solve_dirichlet(g, unit_potential, nl, VertexFunction({0: 1e120}), ball(g, 0, 2))
    assert not res.converged
    assert res.sweeps_used == 0


@pytest.mark.parametrize("case", ["lattice-cubic", "tree-power3"])
def test_elimination_agrees_with_pcg_at_every_step(monkeypatch, case, unit_potential):
    # the solves of a classify run with W = 1 (data alpha W = alpha), by
    # elimination and, with no forest found, by CG
    if case == "lattice-cubic":
        g, radii, alphas = lattice_z(), [12, 25, 50], (0.5, 1.0, 2.0)
    else:
        g, radii, alphas = symmetric_tree(2), [4, 8, 10], (1.0,)
    ex = make_exhaustion(g, 0, radii)
    probes = ex.order[:ex.sizes[0]]
    tol = SolveOptions().residual_tol

    def runs():
        return [extended_resolvent(g, unit_potential, odd_power(3.0), lambda x: a, ex,
                                   probes=probes) for a in alphas]

    exact = runs()
    monkeypatch.setattr(solver, "_forest", lambda *args: None)
    inexact = runs()
    for e, i in zip(exact, inexact):
        assert [s.sweeps for s in e.steps] != [s.sweeps for s in i.steps]
        for p in probes:
            assert max(abs(a - b) for a, b in zip(e.values[p], i.values[p])) <= tol


# --- one pass per Newton iterate ----------------------------------------------


@pytest.fixture
def passes(monkeypatch):
    """The number of _System.apply, _System.residual and _eliminate calls."""
    calls = {"apply": 0, "residual": 0, "eliminate": 0}

    def counted(name, fn):
        def call(*args):
            calls[name] += 1
            return fn(*args)
        return call

    monkeypatch.setattr(solver._System, "apply", counted("apply", solver._System.apply))
    monkeypatch.setattr(solver._System, "residual", counted("residual", solver._System.residual))
    monkeypatch.setattr(solver, "_eliminate", counted("eliminate", solver._eliminate))
    return calls


@pytest.mark.parametrize("case, eliminations, applies, residuals", [
    ("lattice-cubic", 86, 95, 18),
    ("tree-resolve", 4, 8, 4),
])
def test_each_newton_iterate_is_computed_once(passes, case, eliminations, applies, residuals,
                                              unit_potential):
    # the solves of the two benchmark workloads: A u once per trial point
    # of the line search and once per solve at its start, and the residual
    # only where the step test passes or the solve stops
    if case == "lattice-cubic":
        g, radii, nl, alphas = lattice_z(), [12, 25, 50], odd_power(3.0), (0.5, 1.0, 2.0)
    else:
        g, radii, nl, alphas = symmetric_tree(2), [4, 8, 12, 14], ID, (1.0,)
    ex = make_exhaustion(g, 0, radii)
    for a in alphas:
        extended_resolvent(g, unit_potential, nl, lambda x: a, ex)
    assert passes["eliminate"] == eliminations
    assert passes["apply"] <= applies
    assert passes["residual"] <= residuals


@pytest.mark.parametrize("case", ["converged", "one-sweep", "overflow"])
@pytest.mark.parametrize("nl", BUILTINS, ids=lambda nl: nl.name)
@pytest.mark.parametrize("forest", [True, False], ids=["forest", "cg"])
def test_newton_reports_the_residual_of_its_iterate(forest, nl, case):
    ex = make_exhaustion(lattice_z(), 0, [12])
    n = len(ex.order)
    f = np.ones(n)
    if case == "overflow":
        f[0] = 1e120
    sys_ = solver._System(ex.order, ex.rows, ex.cols, ex.b, ex.m, ex.deg, np.ones(n), f, n)
    if not forest:
        sys_.forest = None
    opts = SolveOptions(max_sweeps=1 if case == "one-sweep" else 100_000)
    res = solver._solve(sys_, nl, 1.0, np.zeros(n), opts)
    assert res.converged or case != "converged"
    sup, scaled, violations = sys_.residual(nl, res.u)
    assert res.residual_inf.hex() == sup.hex()
    assert res.range_violations == violations
    assert not res.converged or (not violations and scaled <= opts.residual_tol)
