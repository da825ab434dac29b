"""Conservation defects, verdicts, path criterion, Liouville check."""

import math

import pytest

from nlresolvent import (
    CLASSIFY_CSV_HEADER,
    CSV_HEADER,
    DEFAULT_ALPHA_GRID,
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
    conservation_defect,
    default_probes,
    identity,
    large_potential,
    linear_oracle,
    make_exhaustion,
    odd_power,
    path_criterion,
    symmetric_tree,
    verify_liouville,
)

ID = identity()

# stabilized defect of the 4^n chain at radii [5, 10, 20, 40, 80],
# cross-checked below against a dense linear solve on the same ball
CHAIN_DEFECT = 0.30151462841444154


@pytest.fixture
def chain_ex(chain4):
    return make_exhaustion(chain4, 0, [5, 10, 20, 40, 80])


# --- conservation defect -----------------------------------------------------


def test_alpha_zero_gives_zero_defect(chain4, unit_potential):
    ex = make_exhaustion(chain4, 0, [3, 6])
    est = conservation_defect(chain4, unit_potential, ID, 0.0, ex)
    assert est.final[0] == 0.0
    assert est.bounds_ok and est.monotone_ok


def test_negative_alpha_rejected(chain4, unit_potential):
    ex = make_exhaustion(chain4, 0, [3, 6])
    with pytest.raises(ValueError):
        conservation_defect(chain4, unit_potential, ID, -1.0, ex)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_non_finite_alpha_rejected(chain4, unit_potential, bad):
    # alpha*W would reach the solver as non-finite data, blamed on f
    ex = make_exhaustion(chain4, 0, [3, 6])
    with pytest.raises(ValueError, match="alpha must be finite"):
        conservation_defect(chain4, unit_potential, ID, bad, ex)
    with pytest.raises(ValueError, match="alpha grid"):
        classify(chain4, unit_potential, ID, ex, alpha_grid=(1.0, bad), probes=(0,))


def test_lattice_defect_vanishes(lattice, unit_potential):
    ex = make_exhaustion(lattice, 0, [5, 10, 20, 40, 80])
    est = conservation_defect(lattice, unit_potential, ID, 1.0, ex)
    assert est.bounds_ok and est.monotone_ok
    assert abs(est.final[0]) <= 1e-8
    assert est.stabilization_error(0) <= 1e-8


def test_chain_defect_frozen_value(chain4, unit_potential, chain_ex):
    est = conservation_defect(chain4, unit_potential, ID, 1.0, chain_ex)
    assert est.bounds_ok and est.monotone_ok
    assert est.final[0] == pytest.approx(CHAIN_DEFECT, abs=1e-12)
    assert est.stabilization_error(0) <= 1e-6


def test_chain_defect_matches_linear_oracle(chain4, unit_potential, chain_ex):
    # identity case: the whole computation reduces to one linear solve
    U = list(chain_ex.order)
    from nlresolvent import VertexFunction

    f = VertexFunction({x: 1.0 for x in U})
    exact = linear_oracle(chain4, unit_potential, f, U, cap=5000)
    est = conservation_defect(chain4, unit_potential, ID, 1.0, chain_ex)
    assert est.final[0] == pytest.approx(1.0 - exact(0), abs=1e-9)


def test_defect_is_alpha_minus_value(chain4, unit_potential):
    ex = make_exhaustion(chain4, 0, [4, 8])
    alpha = 2.0
    est = conservation_defect(chain4, unit_potential, ID, alpha, ex)
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


def test_classify_propagates_solve_error(chain4, unit_potential, chain_ex):
    with pytest.raises(SolveError):
        classify(chain4, unit_potential, ID, chain_ex, alpha_grid=(1.0,),
                 probes=(0,), opts=SolveOptions(max_sweeps=1))


def test_classify_partial_keeps_completed_alphas_and_steps(chain4, unit_potential):
    # at this budget alpha 0.25 completes, and alpha 4.0 converges at
    # step 0 (radius 2) and runs out of sweeps at step 1 (radius 10)
    nl, opts, probes = odd_power(3.0), SolveOptions(max_sweeps=40), (0, 1)
    ex = make_exhaustion(chain4, 0, [2, 10])
    with pytest.raises(SolveError) as info:
        classify(chain4, unit_potential, nl, ex, alpha_grid=(0.25, 4.0),
                 probes=probes, opts=opts)
    done = conservation_defect(chain4, unit_potential, nl, 0.25, ex, probes=probes, opts=opts)
    cut = conservation_defect(chain4, unit_potential, nl, 4.0,
                              make_exhaustion(chain4, 0, [2]), probes=probes, opts=opts)
    assert info.value.partial.csv_rows() == done.csv_rows() + cut.csv_rows()
    assert not hasattr(info.value.partial, "verdict")


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
    a = default_probes(lattice, ex, seed=42)
    b = default_probes(lattice, ex, seed=42)
    assert a == b
    assert a[0] == 0
    inner = set(range(-9, 10))
    assert all(p in inner for p in a)
    assert list(a[1:]) == sorted(a[1:])


def test_default_probes_tiny_first_ball(lattice):
    ex = make_exhaustion(lattice, 0, [1, 2])
    assert default_probes(lattice, ex) == (0,)


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


# --- Liouville certificate ------------------------------------------------------------


def test_liouville_on_incomplete_chain(chain4, unit_potential, chain_ex):
    rep = verify_liouville(chain4, unit_potential, ID, chain_ex, 1.0, probes=(0,))
    assert rep.skipped == ()
    assert rep.max_w == pytest.approx(CHAIN_DEFECT, abs=1e-12)
    assert rep.bounds_ok
    assert rep.residual_ok
    assert rep.max_residual <= 1e-6
    assert rep.w[0] == rep.max_w


def test_liouville_on_complete_lattice(lattice, unit_potential):
    ex = make_exhaustion(lattice, 0, [5, 10, 20, 40])
    rep = verify_liouville(lattice, unit_potential, ID, ex, 1.0, probes=(0,))
    assert rep.bounds_ok and rep.residual_ok
    assert rep.max_w <= 1e-8


def test_liouville_counts_a_repeated_probe_once(chain4, unit_potential, chain_ex):
    rep = verify_liouville(chain4, unit_potential, ID, chain_ex, 1.0, probes=(0, 0, 1))
    assert rep.probes == rep.defect.probes == (0, 1)


def test_liouville_skips_non_interior_probes(lattice, unit_potential):
    ex = make_exhaustion(lattice, 0, [3, 6])
    rep = verify_liouville(lattice, unit_potential, ID, ex, 1.0, probes=(0, 5))
    assert 5 in rep.skipped
    assert 5 not in rep.residuals
    assert 0 in rep.residuals


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
