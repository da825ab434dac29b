"""Conservation defects, verdicts, path criterion."""

import math
import re

import numpy as np
import pytest

from nlresolvent import (
    CLASSIFY_CSV_HEADER,
    CSV_HEADER,
    DEFAULT_ALPHA_GRID,
    DefectEstimate,
    Potential,
    RangeError,
    SolveError,
    SolveOptions,
    Thresholds,
    TRUNCATION_NOTE,
    VERDICT_COMPLETE,
    VERDICT_INCOMPLETE,
    VERDICT_INCONCLUSIVE,
    birth_death,
    bounded_atan,
    classify,
    complete_graph,
    default_probes,
    extended_resolvent,
    generate,
    identity,
    large_potential,
    linear_oracle,
    make_exhaustion,
    odd_log,
    odd_power,
    parse_phi,
    path_criterion,
    symmetric_tree,
)
from nlresolvent.completeness import _report
from nlresolvent.solver import _System

ID = identity()

# stabilized defect of the 4^n chain at radii [5, 10, 20, 40, 80],
# cross-checked below against a dense linear solve on the same ball
CHAIN_DEFECT = 0.30151462841444154


@pytest.fixture
def chain_ex(chain4):
    return make_exhaustion(chain4, 0, [5, 10, 20, 40, 80])


# --- conservation defect -----------------------------------------------------


def test_negative_alpha_rejected(chain4, unit_potential):
    ex = make_exhaustion(chain4, 0, [3, 6])
    with pytest.raises(ValueError, match="alpha grid must be positive"):
        classify(chain4, unit_potential, ID, ex, alpha_grid=[-1.0], probes=[0])


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_non_finite_alpha_rejected(chain4, unit_potential, bad):
    # alpha*W would reach the solver as non-finite data, blamed on f
    ex = make_exhaustion(chain4, 0, [3, 6])
    with pytest.raises(ValueError, match="alpha grid"):
        classify(chain4, unit_potential, ID, ex, alpha_grid=(1.0, bad), probes=(0,))


def test_lattice_defect_vanishes(lattice, unit_potential):
    ex = make_exhaustion(lattice, 0, [5, 10, 20, 40, 80])
    est = classify(lattice, unit_potential, ID, ex, alpha_grid=[1.0], probes=[0]).estimates[0]
    assert est.bounds_ok and est.monotone_ok
    assert abs(est.final[0]) <= 1e-8
    assert est.stabilization_error(0) <= 1e-8


def test_chain_defect_frozen_value(chain4, unit_potential, chain_ex):
    est = classify(chain4, unit_potential, ID, chain_ex, alpha_grid=[1.0], probes=[0]).estimates[0]
    assert est.bounds_ok and est.monotone_ok
    assert est.final[0] == pytest.approx(CHAIN_DEFECT, abs=1e-12)
    assert est.stabilization_error(0) <= 1e-6


def test_chain_defect_matches_linear_oracle(chain4, unit_potential, chain_ex):
    # identity case: the whole computation reduces to one linear solve
    U = list(chain_ex.order)
    from nlresolvent import VertexFunction

    f = VertexFunction({x: 1.0 for x in U})
    exact = linear_oracle(chain4, unit_potential, f, U, cap=5000)
    est = classify(chain4, unit_potential, ID, chain_ex, alpha_grid=[1.0], probes=[0]).estimates[0]
    assert est.final[0] == pytest.approx(1.0 - exact(0), abs=1e-9)


def test_defect_is_alpha_minus_value(chain4, unit_potential):
    ex = make_exhaustion(chain4, 0, [4, 8])
    alpha = 2.0
    est = classify(chain4, unit_potential, ID, ex, alpha_grid=[alpha], probes=[0]).estimates[0]
    vals = est.resolvent.values[0]
    for d, v in zip(est.defects[0], vals):
        assert d == pytest.approx(alpha - v, abs=1e-15)
    # increments mirror the value increments with the sign flipped
    assert est.increments[0][1] == pytest.approx(-est.resolvent.increments[0][1], abs=1e-15)


def test_finite_graph_defect_zero_and_complete(unit_potential):
    # saturated exhaustion of a finite graph leaves no Dirichlet
    # boundary, so u = alpha solves exactly and nothing is lost
    g = complete_graph(3)
    ex = make_exhaustion(g, 0, [1, 2, 3])
    rep = classify(g, unit_potential, ID, ex, alpha_grid=(0.5, 1.0), probes=(0,))
    assert rep.verdict == VERDICT_COMPLETE
    for est in rep.estimates:
        assert abs(est.final[0]) <= 1e-9
        assert est.bounds_ok


# --- verdicts ------------------------------------------------------------------


def test_lattice_classifies_complete(lattice, unit_potential):
    # five doublings: the stabilization window [20->40, 40->80] must sit
    # below 1e-6, and on the lattice each halving of the defect tail
    # needs the extra step (the 10->20 increment is still ~7e-5)
    ex = make_exhaustion(lattice, 0, [5, 10, 20, 40, 80])
    rep = classify(lattice, unit_potential, ID, ex, alpha_grid=(0.5, 1.0), probes=(0,))
    assert rep.verdict == VERDICT_COMPLETE
    assert rep.alpha_grid == (0.5, 1.0)
    assert rep.note == TRUNCATION_NOTE


def test_chain_classifies_incomplete(chain4, unit_potential, chain_ex):
    rep = classify(chain4, unit_potential, ID, chain_ex, alpha_grid=(0.25, 1.0),
                   probes=(0,))
    assert rep.verdict == VERDICT_INCOMPLETE
    # defect scales linearly in alpha for the identity nonlinearity
    d_small = rep.estimates[0].final[0]
    d_one = rep.estimates[1].final[0]
    assert d_one == pytest.approx(CHAIN_DEFECT, abs=1e-12)
    assert d_small == pytest.approx(0.25 * CHAIN_DEFECT, abs=1e-9)


def test_short_schedule_is_inconclusive(lattice, unit_potential):
    ex = make_exhaustion(lattice, 0, [2, 4])
    rep = classify(lattice, unit_potential, ID, ex, alpha_grid=(1.0,), probes=(0,))
    assert rep.verdict == VERDICT_INCONCLUSIVE


@pytest.mark.parametrize("field, certificate", [("bounds_ok", "bounds"),
                                                ("monotone_ok", "monotonicity")])
def test_a_failed_certificate_makes_the_verdict_inconclusive(chain4, unit_potential, chain_ex,
                                                             field, certificate):
    # the chain's defects are certified and stabilized: incomplete, until a
    # hand-made estimate of alpha = 1 fails one of its certificates
    rep = classify(chain4, unit_potential, ID, chain_ex, alpha_grid=(0.25, 1.0), probes=(0,))
    assert (rep.verdict, rep.reason) == (VERDICT_INCOMPLETE, "")
    ests = (rep.estimates[0], rep.estimates[1]._replace(**{field: False}))
    got = _report(chain_ex, rep.alpha_grid, rep.thresholds, ests)
    assert got.verdict == VERDICT_INCONCLUSIVE
    assert got.reason == f"the defect at alpha = 1.0 fails its {certificate} certificate"


def test_classify_propagates_solve_error(chain4, unit_potential, chain_ex):
    # phi = t^3 needs more than one Newton step, each one sweep on the chain
    with pytest.raises(SolveError):
        classify(chain4, unit_potential, odd_power(3.0), chain_ex, alpha_grid=(1.0,),
                 probes=(0,), opts=SolveOptions(max_sweeps=1))


def test_classify_partial_keeps_every_alpha_for_the_completed_balls(cyclic, unit_potential):
    # the grid is solved ball by ball, jointly: the budget is what the joint
    # solve needs at step 0 (radius 1), and at step 1 (radius 3, 50 of the
    # 60 vertices) it needs more and runs out, so the partial holds both
    # alphas' rows for step 0, those of a run that stops at radius 1
    nl, probes, grid = odd_log(), (0, 10), (0.5, 8.0)  # 10 is a neighbor of 0
    ex = make_exhaustion(cyclic, 0, [1, 3])
    rep = classify(cyclic, unit_potential, nl, ex, alpha_grid=grid, probes=probes)
    need = [st.sweeps for st in rep.estimates[0].resolvent.steps]
    assert need[1] > need[0]
    opts = SolveOptions(max_sweeps=need[0])
    with pytest.raises(SolveError) as info:
        classify(cyclic, unit_potential, nl, ex, alpha_grid=grid, probes=probes, opts=opts)
    cut = classify(cyclic, unit_potential, nl, make_exhaustion(cyclic, 0, [1]), alpha_grid=grid,
                   probes=probes, opts=opts)
    assert [est.alpha for est in info.value.partial.estimates] == list(grid)
    assert info.value.partial.csv_rows() == cut.csv_rows()
    assert not hasattr(info.value.partial, "verdict")


def test_one_alpha_classify_partial_is_the_estimate_of_the_completed_steps(
        cyclic, unit_potential):
    # the budget is what step 0 (radius 1) needs, and step 1 (radius 3, 50 of
    # the 60 vertices) needs more: the partial holds the DefectEstimate of
    # step 0, that of a run that stops at radius 1
    nl, probes = odd_log(), (0, 10)
    ex = make_exhaustion(cyclic, 0, [1, 3])
    rep = classify(cyclic, unit_potential, nl, ex, alpha_grid=[2.0], probes=probes)
    need = [st.sweeps for st in rep.estimates[0].resolvent.steps]
    assert need[1] > need[0]
    opts = SolveOptions(max_sweeps=need[0])
    with pytest.raises(SolveError) as info:
        classify(cyclic, unit_potential, nl, ex, alpha_grid=[2.0], probes=probes, opts=opts)
    cut = classify(cyclic, unit_potential, nl, make_exhaustion(cyclic, 0, [1]), alpha_grid=[2.0],
                   probes=probes, opts=opts).estimates[0]
    (part,) = info.value.partial.estimates
    assert isinstance(part, DefectEstimate)
    assert part._replace(resolvent=None) == cut._replace(resolvent=None)
    assert part.resolvent.steps == cut.resolvent.steps
    assert part.resolvent.u.tobytes() == cut.resolvent.u.tobytes()
    assert part.csv_rows() == cut.csv_rows()


def test_thresholds_validation():
    with pytest.raises(ValueError):
        Thresholds(complete_tol=1e-2, incomplete_floor=1e-4)
    with pytest.raises(ValueError):
        Thresholds(stabilization_tol=0.0)
    for name in ("complete_tol", "stabilization_tol", "incomplete_floor"):
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match=name):
                Thresholds(**{name: bad})
    th = Thresholds()
    assert th.complete_tol == 1e-4
    assert th.stabilization_tol == 1e-6
    assert th.incomplete_floor == 1e-2


def test_custom_thresholds_change_verdict(chain4, unit_potential, chain_ex):
    # with an absurd incomplete_floor the chain defect no longer counts
    rep = classify(chain4, unit_potential, ID, chain_ex, alpha_grid=(1.0,),
                   probes=(0,),
                   thresholds=Thresholds(incomplete_floor=0.5))
    assert rep.verdict == VERDICT_INCONCLUSIVE


# --- probes and report plumbing ---------------------------------------------------


def test_default_probes_deterministic(lattice, unit_potential):
    ex = make_exhaustion(lattice, 0, [10, 20])
    a = default_probes(ex, seed=42)
    b = default_probes(ex, seed=42)
    assert a == b
    assert a[0] == 0
    inner = set(range(-9, 10))
    assert all(p in inner for p in a)
    assert list(a[1:]) == sorted(a[1:])


def test_default_probes_tiny_first_ball(lattice):
    ex = make_exhaustion(lattice, 0, [1, 2])
    assert default_probes(ex) == (0,)


def test_json_doc_schema(chain4, unit_potential, chain_ex):
    rep = classify(chain4, unit_potential, ID, chain_ex, alpha_grid=(1.0,), probes=(0,))
    doc = rep.to_json_doc()
    assert set(doc) == {"alpha", "defect", "stabilization", "verdict", "thresholds", "note"}
    assert doc["alpha"] == [1.0]
    assert doc["defect"]["1.0"]["0"] == pytest.approx(CHAIN_DEFECT, abs=1e-12)
    assert doc["verdict"] == VERDICT_INCOMPLETE
    assert doc["thresholds"]["complete_tol"] == 1e-4
    assert doc["note"] == TRUNCATION_NOTE


def test_csv_rows_carry_alpha_column(chain4, unit_potential, chain_ex):
    assert CLASSIFY_CSV_HEADER == ("alpha",) + CSV_HEADER
    rep = classify(chain4, unit_potential, ID, chain_ex, alpha_grid=(0.5, 1.0),
                   probes=(0, 1))
    rows = rep.csv_rows()
    assert len(rows) == 2 * 5 * 2
    assert {r[0] for r in rows} == {0.5, 1.0}
    assert all(len(r) == len(CLASSIFY_CSV_HEADER) for r in rows)


@pytest.mark.parametrize("call, message", [
    (lambda g, W, ex: classify(g, W, ID, ex, alpha_grid=()), "alpha grid must be non-empty"),
    (lambda g, W, ex: path_criterion(g, W, ID, range(5), 1.0, n_terms=0),
     "n_terms must be >= 1, got 0"),
], ids=["empty-alpha-grid", "no-terms"])
def test_completeness_input_checks(chain4, chain_ex, unit_potential, call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call(chain4, unit_potential, chain_ex)


# --- path criterion ----------------------------------------------------------------


def test_ray_on_lattice_diverges(lattice, unit_potential):
    rep = path_criterion(lattice, unit_potential, ID, range(0, 50), 1.0, 40)
    assert rep.final_sum == 20.0
    assert rep.max_deg_over_m == 2.0
    assert rep.per_term_floor == 0.5
    assert "divergent" in rep.diagnosis


def test_chain_partial_sums_stall(chain4, unit_potential):
    rep = path_criterion(chain4, unit_potential, ID, range(0, 50), 1.0, 40)
    # sum_{k>=1} 1 / (4^k + 4^{k-1}) = (1/5) / (1 - 1/4) = 4/15
    assert rep.final_sum == pytest.approx(4.0 / 15.0, abs=1e-15)
    assert "inconclusive" in rep.diagnosis
    assert rep.tail_growth <= 1e-9 * (1.0 + rep.final_sum)


def test_bounded_phi_stalls_even_with_large_w(chain4):
    # terms are at most (pi/2) m / deg, summable on this chain no
    # matter how large the potential is
    rep = path_criterion(chain4, Potential.constant(5.0), bounded_atan(),
                         range(0, 40), 1.0, 30)
    assert rep.final_sum < 1.0
    assert "inconclusive" in rep.diagnosis


def test_term_formula(lattice, unit_potential):
    rep = path_criterion(lattice, unit_potential, ID, range(0, 12), 0.5, 10)
    assert all(t == pytest.approx(0.25, abs=1e-15) for t in rep.terms)
    assert rep.partial_sums[-1] == pytest.approx(2.5, abs=1e-12)
    assert rep.vertices == tuple(range(0, 11))


def test_path_validation(lattice, unit_potential):
    with pytest.raises(ValueError):
        path_criterion(lattice, unit_potential, ID, [0, 2, 4, 6], 1.0, 2)
    with pytest.raises(ValueError):
        path_criterion(lattice, unit_potential, ID, range(0, 50), 0.0, 10)
    with pytest.raises(ValueError):
        path_criterion(lattice, unit_potential, ID, range(0, 50), 1.5, 10)
    with pytest.raises(ValueError):
        path_criterion(lattice, unit_potential, ID, [0, 1, 2], 1.0, 10)


# --- large potential ----------------------------------------------------------------


def test_large_potential_identity(lattice):
    W = large_potential(lattice, ID)
    assert W(0) == 3.0
    assert W(17) == 3.0
    assert W.W0 == 1.0


def test_large_potential_cube_root():
    g = birth_death(lambda n: 4.0)
    W = large_potential(g, odd_power(3.0))
    assert W(2) == pytest.approx(3.0)


def test_large_potential_sqrt_is_square_plus_one(chain4):
    W = large_potential(chain4, odd_power(0.5))
    assert W(2) == pytest.approx(20.0**2 + 1.0)
    assert W(0) == pytest.approx(2.0)


def test_large_potential_bounded_phi_range_error(chain4):
    W = large_potential(chain4, bounded_atan())
    assert W(0) == pytest.approx(math.tan(1.0) + 1.0)
    with pytest.raises(RangeError):
        W(2)


def test_large_potential_rescues_chain(chain4):
    nl = odd_power(0.5)
    ex = make_exhaustion(chain4, 0, [5, 10, 20, 40])
    rep = classify(chain4, large_potential(chain4, nl), nl, ex, probes=(0,))
    assert rep.verdict == VERDICT_COMPLETE
    assert max(abs(est.final[0]) for est in rep.estimates) <= 1e-4


# --- one assembly per classify; analytic oracle ------------------------------


def test_classify_assembles_once_whatever_the_grid(unit_potential):
    # every alpha shares the exhaustion's arrays, so neighbor lookups
    # do not grow with the alpha grid
    g = symmetric_tree(2)
    rule = g.neighbors
    calls = []

    def counting(x):
        calls.append(x)
        return rule(x)

    g.neighbors = counting
    counts = []
    for grid in ((1.0,), DEFAULT_ALPHA_GRID):
        calls.clear()
        classify(g, unit_potential, ID, make_exhaustion(g, 0, [4, 8, 10]), alpha_grid=grid)
        counts.append(len(calls))
    assert counts[0] == counts[1]


@pytest.mark.parametrize("grid", [(1.0,), DEFAULT_ALPHA_GRID], ids=["1-alpha", "5-alphas"])
def test_classify_samples_w_once_whatever_the_grid(grid):
    # the data alpha*W of every alpha is read off one sample of W on the
    # largest ball, with the same values as calling W per vertex
    g = symmetric_tree(2)
    ex = make_exhaustion(g, 0, [2, 4, 6])
    calls = []

    def w(x):
        calls.append(x)
        return 1.0 + (x % 7) / 3.0

    rep = classify(g, Potential.from_callable(w, W0=1.0), ID, ex, alpha_grid=grid, probes=[0, 5])
    assert len(calls) == len(ex.order) == ex.sizes[-1]
    for est in rep.estimates:
        ref = classify(g, Potential.from_callable(w, W0=1.0), ID, ex, alpha_grid=[est.alpha],
                       probes=[0, 5]).estimates[0]
        assert est.defects == ref.defects


@pytest.mark.parametrize("beta", [1.0, 1.5, 2.5, 3.0])
def test_birth_death_verdict_agrees_with_analytic_criterion(beta, unit_potential):
    # b(n, n+1) = (n+1)^beta with m = 1 is stochastically complete iff
    # sum_n m([0, n]) / b(n, n+1) = sum_n (n+1)^(1-beta) diverges, i.e.
    # iff beta <= 2 (Keller, Lenz & Wojciechowski, Math. Z. 2013);
    # inconclusive is allowed, a wrong verdict is not
    g = birth_death(lambda n: (n + 1.0) ** beta)
    ex = make_exhaustion(g, 0, [25, 50, 100, 200, 400])
    rep = classify(g, unit_potential, ID, ex, probes=[0])
    assert rep.verdict != (VERDICT_INCOMPLETE if beta <= 2.0 else VERDICT_COMPLETE)
    if beta == 1.0:
        assert rep.verdict == VERDICT_COMPLETE


# --- the start of each ball ---------------------------------------------------


def _sweeps(rep):
    return [[st.sweeps for st in est.resolvent.steps] for est in rep.estimates]


@pytest.mark.parametrize("phi, most", [(odd_power(0.5), 34), (odd_power(3.0), 12)],
                         ids=["power:0.5", "power:3"])
def test_chain_keeps_the_padded_start_where_it_has_the_smaller_energy(chain4, unit_potential,
                                                                      phi, most):
    # the shifted profile alone takes 91 and 17 sweeps here: the energy
    # choice keeps the padded start, and the padded start's counts
    ex = make_exhaustion(chain4, 0, [5, 10, 20, 40])
    rep = classify(chain4, unit_potential, phi, ex, alpha_grid=[1.0], probes=[0])
    assert sum(_sweeps(rep)[0]) <= most


@pytest.mark.parametrize("spec, radii", [
    ("lattice-z", [25, 50, 100, 200, 400]),  # the shifted start wins
    ("tree:2", [4, 8, 12]),
    ("birth-death:4", [5, 10, 20, 40]),  # the padded start wins
])
def test_max_decrease_is_measured_from_the_padded_start(unit_potential, spec, radii):
    # measured from the shifted profile, birth-death:4 would read 0.44 at
    # alpha = 1 on a monotone sequence: that start is not below the solution
    g = generate(spec)
    rep = classify(g, unit_potential, odd_power(3.0), make_exhaustion(g, 0, radii),
                   alpha_grid=[0.5, 1.0, 2.0], probes=[0])
    for est in rep.estimates:
        assert est.resolvent.max_decrease <= 1e-12
        assert est.monotone_ok


def test_a_first_newton_step_counts_as_exact_only_on_a_quadratic_energy(unit_potential):
    # the radius-20 ball's first step leaves a residual within
    # residual_tol (7.7e-10 for log), but log's E is not quadratic, so the
    # step test asks for a second step: it moves the defect of 2.6e-9 by
    # 7.7e-10
    g = generate("finite-path:30")
    ex = make_exhaustion(g, 0, [5, 10, 20])
    for nl, sweeps in ((odd_log(), 2), (ID, 1)):
        rep = classify(g, unit_potential, nl, ex, alpha_grid=[1.0], probes=[0])
        step = rep.estimates[0].resolvent.steps[-1]
        assert step.sweeps == sweeps
        assert step.residual_inf <= 1e-15


def test_resolve_keeps_the_one_padded_start(lattice, unit_potential):
    # classify's alpha = 1 is the resolvent of f = W = 1: the same values,
    # where only classify starts the later balls from the shifted profile
    nl, ex = odd_power(3.0), make_exhaustion(lattice, 0, [25, 50, 100])
    est = extended_resolvent(lattice, unit_potential, nl, lambda x: 1.0, ex, probes=[0])
    rep = classify(lattice, unit_potential, nl, ex, alpha_grid=[1.0], probes=[0])
    assert est.values[0] == pytest.approx([1.0 - d for d in rep.estimates[0].defects[0]],
                                          abs=1e-12)
    padded, shifted = [st.sweeps for st in est.steps], _sweeps(rep)[0]
    assert padded[0] == shifted[0]
    assert all(p > s for p, s in zip(padded[1:], shifted[1:]))


# --- the alpha grid, solved jointly --------------------------------------------


@pytest.mark.parametrize("spec, phi, radii, grid", [
    ("lattice-z", "power:3", (12, 25, 50), (0.5, 1.0, 2.0)),
    ("birth-death:4", "power:3", (5, 10, 20, 40), None),
    ("tree:2", "power:3", (4, 8, 12), None),  # one union per alpha
    ("tree:2", "power:3", (4, 8, 10), None),  # a union of 4 alphas, then 1
    ("random-sparse:n=60,density=0.06,seed=0", "log", (1, 2, 3), None),  # conjugate gradients
    ("lattice-z", "power:0.5", (25, 50, 100), None),  # the inverse form
    ("lattice-z", "atan", (25, 50, 100), None),
])
def test_classify_agrees_with_one_defect_per_alpha(spec, phi, radii, grid):
    # the grid's joint solve meets each alpha's residual test, as each
    # alpha's own solve does: their defects differ by at most residual_tol / W0
    g, nl, W, opts = generate(spec), parse_phi(phi), Potential.constant(1.0), SolveOptions()
    ex = make_exhaustion(g, g.root, radii)
    probes = default_probes(ex)
    rep = classify(g, W, nl, ex, alpha_grid=grid, probes=probes, opts=opts)
    alone = tuple(classify(g, W, nl, ex, alpha_grid=[a], probes=probes, opts=opts).estimates[0]
                  for a in rep.alpha_grid)
    for est, ref in zip(rep.estimates, alone):
        for p in probes:
            assert est.defects[p] == pytest.approx(ref.defects[p], rel=0.0,
                                                   abs=opts.residual_tol / W.W0)
    ref = _report(ex, rep.alpha_grid, rep.thresholds, alone)
    assert (rep.verdict, rep.reason) == (ref.verdict, ref.reason)


# --- the comparison principle ---------------------------------------------------


@pytest.mark.parametrize("spec, radii", [
    ("birth-death:4", (5, 10, 20, 40)),
    ("lattice-z", (25, 50, 100)),
    ("tree:2", (4, 8)),
    ("random-sparse:n=200,density=0.02,seed=1", (1, 2, 3, 4)),
])
@pytest.mark.parametrize("phi, convex", [
    ("identity", True), ("power:3", True), ("power:0.5", False), ("log", False), ("atan", False),
])
def test_defects_obey_the_comparison_principle(spec, radii, phi, convex):
    # w = alpha - u solves L w + phi(W w) = 0 on each ball, w = alpha outside.
    # In alpha: for alpha <= beta the data are ordered, so d_alpha <= d_beta;
    # with t = alpha / beta, phi(t s) <= t phi(s) for convex phi (>= for
    # concave) makes t w_beta a subsolution (supersolution) of alpha's
    # problem, so d_beta <= d_alpha / t for convex phi, d_alpha / t <= d_beta
    # for concave.  Linear: with W = 1, phi(s) <= c s on [0, alpha] for convex
    # phi (>= for concave), c = phi(alpha) / alpha, makes w_alpha a super-
    # (sub)solution of the identity problem with potential c, so d_alpha >=
    # d_lin for convex phi, <= for concave.  The grid spans 256: two unions.
    g, W, nl, opts = generate(spec), Potential.constant(1.0), parse_phi(phi), SolveOptions()
    ex, root = make_exhaustion(g, g.root, radii), g.root
    grid = (*DEFAULT_ALPHA_GRID, 64.0)
    rep = classify(g, W, nl, ex, alpha_grid=grid, probes=[root], opts=opts)
    slack = opts.residual_tol / W.W0
    for i, lo in enumerate(rep.estimates):
        for hi in rep.estimates[i + 1:]:
            scale = hi.alpha / lo.alpha
            for d_lo, d_hi in zip(lo.defects[root], hi.defects[root]):
                assert d_lo <= d_hi + slack
                if convex:
                    assert d_hi <= scale * d_lo + slack
                else:
                    assert scale * d_lo <= d_hi + slack
        c = nl(lo.alpha) / lo.alpha
        lin = classify(g, Potential.constant(c), ID, ex, alpha_grid=[lo.alpha], probes=[root],
                       opts=opts).estimates[0]
        for d, d_lin in zip(lo.defects[root], lin.defects[root]):
            if convex:
                assert d_lin <= d + slack + opts.residual_tol / c
            else:
                assert d <= d_lin + slack + opts.residual_tol / c


# --- a ball that covers its component ------------------------------------------


def test_a_ball_that_covers_its_component_is_solved_exactly(cyclic, unit_potential):
    # the exhaustion saturates at radius 4 (all 60 vertices), before its
    # largest radius: no edge leaves that ball, so u = alpha solves it,
    # which Newton on t^3 cannot reach, the cube root magnifying the
    # rounding of A u
    nl, ex = odd_power(3.0), make_exhaustion(cyclic, 0, [1, 40])
    for alpha in (0.5, 4.0):
        est = classify(cyclic, unit_potential, nl, ex, alpha_grid=[alpha],
                       probes=(0, 10)).estimates[0]
        assert est.final == {0: 0.0, 10: 0.0}
        assert (est.resolvent.u == alpha).all()
        last = est.resolvent.steps[-1]
        assert (last.set_size, last.sweeps) == (60, 0)
        w = np.ones(60)
        sys_ = _System(ex.order, ex.rows, ex.cols, ex.b, ex.m, ex.deg, w, alpha * w, 60)
        assert last.residual_inf == sys_.residual(nl, est.resolvent.u)[0]
    # from the first ball on, in the defect and in resolve alike: the rule
    # lives in the solve core, and reads only the data f = 1 W
    ex = make_exhaustion(cyclic, 0, [4, 5])
    est = classify(cyclic, unit_potential, ID, ex, alpha_grid=[1.0], probes=(0,)).estimates[0]
    assert [st.sweeps for st in est.resolvent.steps] == [0, 0]
    res = extended_resolvent(cyclic, unit_potential, ID, lambda x: 1.0, ex, probes=(0,))
    assert [st.sweeps for st in res.steps] == [0, 0]
    assert (res.u == 1.0).all()


def test_a_ball_that_saturates_at_the_largest_radius_is_solved_exactly(cyclic, unit_potential):
    # radius 4 is the largest and its ball covers all 60 vertices: the rows
    # of its outer layer, read for the assembly, show that no edge leaves
    # it, where Newton on t^3 stalled (residual 2.06e-5 after 526 sweeps)
    assert not make_exhaustion(cyclic, 0, [1, 3]).closed
    ex = make_exhaustion(cyclic, 0, [1, 4])
    assert ex.closed and ex.sizes == (7, 60)
    rep = classify(cyclic, unit_potential, odd_power(3.0), ex, probes=(0,))
    for est in rep.estimates:
        assert est.final == {0: 0.0}
        assert (est.resolvent.u == est.alpha).all()
        assert est.resolvent.steps[-1].sweeps == 0
