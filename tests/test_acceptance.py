"""Acceptance suite: every criterion at its stated tolerance and budget.

Each criterion prints exactly one PASS/FAIL line (visible with -s or in
the captured output of a failing test) before asserting, so a red run
still reports the status of every criterion it reached.
"""

import json
import random
import time

import pytest

from nlresolvent import (
    Potential,
    SolveOptions,
    VertexFunction,
    bounded_atan,
    brute_force_minimizer,
    classify,
    energy,
    energy_functional,
    generate,
    identity,
    laplacian_apply,
    large_potential,
    linear_oracle,
    make_exhaustion,
    micro_suite,
    odd_log,
    odd_power,
    random_sparse,
    residual,
    solve_dirichlet,
)
from nlresolvent.cli import main as cli_main

GOLDEN = "tests/golden/chain_defect.json"

# tight options so oracle comparisons at 1e-9 are not eaten by the
# solver's own default tolerance
TIGHT = SolveOptions(sweep_tol=1e-12, residual_tol=2e-10)

SUP_SLACK = 1e-9


def _report(name: str, ok: bool, detail: str) -> None:
    print(f"{name}: {'PASS' if ok else 'FAIL'} ({detail})")


def _sup_bound_ok(res, W, f, U) -> bool:
    """Structural invariant: ||u||_inf <= ||f||_inf / W0."""
    f_sup = max((abs(f(x)) for x in U), default=0.0)
    u_sup = max((abs(res.u(x)) for x in U), default=0.0)
    return u_sup <= f_sup / W.W0 + SUP_SLACK


def _chain4():
    return generate("birth-death:4")


# --- criterion 1: linear oracle equivalence ------------------------------------


def test_criterion_1_linear_oracle_equivalence():
    t0 = time.perf_counter()
    worst = 0.0
    for seed in range(100):
        rng = random.Random(seed)
        n = rng.randint(2, 50)
        g = random_sparse(n, density=rng.uniform(0.05, 0.3), seed=seed)
        wmap = {x: rng.uniform(0.5, 3.0) for x in range(n)}
        W = Potential.from_callable(lambda x, m=wmap: m[x], W0=0.5)
        f = VertexFunction({x: rng.uniform(-1.0, 1.0) for x in range(n)})
        U = list(range(n))
        res = solve_dirichlet(g, W, identity(), f, U, opts=TIGHT)
        assert res.converged
        assert _sup_bound_ok(res, W, f, U)
        exact = linear_oracle(g, W, f, U)
        worst = max(worst, max(abs(res.u(x) - exact(x)) for x in U))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-9 and elapsed < 10.0
    _report("criterion 1 (linear oracle, 100 graphs)", ok,
            f"sup diff {worst:.3e} <= 1e-9, {elapsed:.1f}s < 10s")
    assert worst <= 1e-9
    assert elapsed < 10.0


# --- criterion 2: nonlinear micro-oracle ----------------------------------------


def test_criterion_2_nonlinear_micro_oracle():
    t0 = time.perf_counter()
    worst = 0.0
    worst_case = ""
    for case in micro_suite():
        for nl in (odd_power(3), odd_log(), bounded_atan()):
            g, W, f, U = case["g"], case["W"], case["f"], case["U"]
            res = solve_dirichlet(g, W, nl, f, U, opts=TIGHT)
            assert res.converged, f"{case['name']} under {nl.name}"
            assert _sup_bound_ok(res, W, f, U)
            ref = brute_force_minimizer(g, W, nl, f, U)
            diff = max(abs(res.u(x) - ref(x)) for x in U)
            if diff > worst:
                worst, worst_case = diff, f"{case['name']}/{nl.name}"
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-4 and elapsed < 30.0
    _report("criterion 2 (micro oracle, 3 nonlinearities)", ok,
            f"sup diff {worst:.3e} <= 1e-4 (worst: {worst_case}), {elapsed:.1f}s < 30s")
    assert worst <= 1e-4
    assert elapsed < 30.0


# --- criterion 3: comparison / monotonicity / domination ------------------------


def _random_potential(rng, n, low, high, W0):
    vals = {x: rng.uniform(low, high) for x in range(n)}
    return Potential.from_callable(lambda x, m=vals: m[x], W0=W0)


def test_criterion_3_comparison_suite():
    violations = 0
    worst_slack = 0.0

    # 200 triples: U subset of V, 0 <= f <= g, same phi and W.  Checks
    # 0 <= R_U f <= R_V g pointwise (domain and data monotonicity).
    nls = (identity(), odd_power(3), odd_log(), bounded_atan())
    for seed in range(200):
        rng = random.Random(1000 + seed)
        n = rng.randint(3, 30)
        g = random_sparse(n, density=rng.uniform(0.1, 0.4), seed=seed)
        W = _random_potential(rng, n, 0.5, 2.0, W0=0.5)
        nl = nls[seed % len(nls)]
        gdata = VertexFunction({x: rng.uniform(0.0, 2.0) for x in range(n)})
        fdata = VertexFunction({x: gdata(x) * rng.uniform(0.0, 1.0) for x in range(n)})
        V = sorted(rng.sample(range(n), rng.randint(2, n)))
        U = sorted(rng.sample(V, rng.randint(1, len(V))))
        ru = solve_dirichlet(g, W, nl, fdata, U, opts=TIGHT)
        rv = solve_dirichlet(g, W, nl, gdata, V, opts=TIGHT)
        assert ru.converged and rv.converged
        assert _sup_bound_ok(ru, W, fdata, U) and _sup_bound_ok(rv, W, gdata, V)
        for x in range(n):
            lo, hi = ru.u(x), rv.u(x)
            if lo < -SUP_SLACK or lo > hi + SUP_SLACK:
                violations += 1
            worst_slack = max(worst_slack, lo - hi, -lo)

    # 100 pairs: psi <= phi on [0, inf), V >= W, data alpha*V (the form
    # for which the dominated side has L v >= 0): R^{psi,V} <= R^{phi,W}.
    pairs = ((bounded_atan(), identity()), (odd_log(), identity()),
             (bounded_atan(), bounded_atan()), (identity(), identity()))
    for seed in range(100):
        rng = random.Random(2000 + seed)
        n = rng.randint(3, 25)
        g = random_sparse(n, density=rng.uniform(0.1, 0.4), seed=500 + seed)
        base = {x: rng.uniform(0.5, 1.5) for x in range(n)}
        bump = {x: rng.uniform(0.0, 1.0) for x in range(n)}
        W = Potential.from_callable(lambda x, m=base: m[x], W0=0.5)
        V = Potential.from_callable(lambda x, m=base, b=bump: m[x] + b[x], W0=0.5)
        psi, phi = pairs[seed % len(pairs)]
        alpha = rng.uniform(0.1, 2.0)
        U = sorted(rng.sample(range(n), rng.randint(2, n)))
        f = VertexFunction({x: alpha * V(x) for x in range(n)})
        small = solve_dirichlet(g, V, psi, f, U, opts=TIGHT)
        big = solve_dirichlet(g, W, phi, f, U, opts=TIGHT)
        assert small.converged and big.converged
        for x in range(n):
            lo, hi = small.u(x), big.u(x)
            if lo < -SUP_SLACK or lo > hi + SUP_SLACK:
                violations += 1
            worst_slack = max(worst_slack, lo - hi, -lo)

    ok = violations == 0
    _report("criterion 3 (200 triples + 100 domination pairs)", ok,
            f"{violations} violations, worst slack {worst_slack:.3e} <= 1e-9")
    assert violations == 0


# --- criterion 4: complete case on the integer lattice --------------------------


AC4_BASE = ("classify", "--graph", "lattice-z", "--W", "const:1",
            "--radii", "doubling:25:5", "--alpha", "0.5,1,2",
            "--probes", "auto", "--seed", "20260822")

AC4_LEGS = {
    "identity": ("--phi", "identity"),
    "log": ("--phi", "log"),
    # the cubic solve is budget-capped: its truncation defect decays
    # only algebraically, so the full default budget would burn minutes
    # before failing the same way
    "power3": ("--phi", "power:3", "--max-sweeps", "12000"),
}


def _run_ac4_leg(outdir, leg):
    argv = list(AC4_BASE) + list(AC4_LEGS[leg]) + ["--out", str(outdir)]
    t0 = time.perf_counter()
    code = cli_main(argv)
    return code, time.perf_counter() - t0


def _check_ac4_leg(tmp_path, leg, budget):
    outdir = tmp_path / leg
    code, elapsed = _run_ac4_leg(outdir, leg)
    result = outdir / "result.json"
    if code != 0 or not result.is_file():
        _report(f"criterion 4 ({leg})", False,
                f"exit {code}, no verdict, {elapsed:.1f}s")
        assert code == 0, f"classify exited {code} for {leg}"
    doc = json.loads(result.read_text())
    root_defects = {a: per["0"] for a, per in doc["defect"].items()}
    worst = max(abs(v) for v in root_defects.values())
    ok = doc["verdict"] == "complete-at-infinity" and worst <= 1e-4 and elapsed < budget
    _report(f"criterion 4 ({leg})", ok,
            f"verdict {doc['verdict']}, root defect {worst:.3e} <= 1e-4, "
            f"{elapsed:.1f}s < {budget:.0f}s")
    assert doc["verdict"] == "complete-at-infinity"
    assert worst <= 1e-4
    assert elapsed < budget


def test_criterion_4_complete_case_identity(tmp_path):
    _check_ac4_leg(tmp_path, "identity", 30.0)


def test_criterion_4_complete_case_odd_log(tmp_path):
    _check_ac4_leg(tmp_path, "log", 30.0)


def test_criterion_4_complete_case_odd_power3(tmp_path):
    # per-leg budget 60s so the three legs stay under the 2 minute total
    _check_ac4_leg(tmp_path, "power3", 60.0)


# --- criterion 5: incomplete case on the 4^n chain -------------------------------


def test_criterion_5_incomplete_case_with_golden_value():
    with open(GOLDEN, "r", encoding="utf-8") as fh:
        golden = json.load(fh)

    g = _chain4()
    W = Potential.constant(1.0)
    ex = make_exhaustion(g, 0, golden["radii"])
    est = classify(g, W, identity(), ex, alpha_grid=[golden["alpha"]],
                   probes=(golden["probe"],)).estimates[0]
    d = est.final[golden["probe"]]
    stab = est.stabilization_error(golden["probe"])

    rep = classify(g, W, identity(), ex, alpha_grid=(1.0,),
                   probes=(golden["probe"],))
    # the last ball's u solves its equation at the probe: with phi the
    # identity, phi^{-1}(L u) + W u = alpha W is -L w = W w for w = alpha - u
    u = VertexFunction(dict(zip(ex.order.tolist(), est.resolvent.u.tolist())))
    f = Potential.constant(golden["alpha"]).fn
    res = residual(g, W, identity(), f, u, [golden["probe"]]).sup

    ok = (abs(d - golden["defect"]) <= 1e-12
          and stab <= 1e-6
          and d >= 1e-2
          and rep.verdict == "incomplete-at-infinity"
          and est.bounds_ok and 0.0 < d <= 1.0
          and res < 1e-6)
    _report("criterion 5 (4^n chain incomplete)", ok,
            f"defect {d:.17g} vs golden {golden['defect']:.17g}, "
            f"stabilization {stab:.2e} <= 1e-6, verdict {rep.verdict}, "
            f"defect in (0,1], residual {res:.2e} < 1e-6")
    assert d == pytest.approx(golden["defect"], abs=1e-12)
    assert stab <= 1e-6
    assert d >= 1e-2
    assert rep.verdict == "incomplete-at-infinity"
    assert est.bounds_ok and 0.0 < d <= 1.0
    assert res < 1e-6


# --- criterion 6: large-potential rescue ----------------------------------------


def test_criterion_6_large_potential_rescue():
    g = _chain4()
    nl = odd_power(0.5)
    W = large_potential(g, nl)
    ex = make_exhaustion(g, 0, [5, 10, 20, 40])
    rep = classify(g, W, nl, ex, probes=(0,))
    worst = max(abs(est.final[0]) for est in rep.estimates)
    ok = rep.verdict == "complete-at-infinity" and worst <= 1e-4
    _report("criterion 6 (large-potential rescue)", ok,
            f"verdict {rep.verdict}, root defect {worst:.3e} <= 1e-4")
    assert rep.verdict == "complete-at-infinity"
    assert worst <= 1e-4


# --- criterion 7: structural invariants ------------------------------------------


def test_criterion_7_structural_invariants():
    failures = []

    # defect bounds 0 <= d <= alpha and monotonicity in n
    g = _chain4()
    W = Potential.constant(1.0)
    ex = make_exhaustion(g, 0, [4, 8, 16])
    for alpha in (0.5, 2.0):
        est = classify(g, W, identity(), ex, alpha_grid=[alpha], probes=(0, 1)).estimates[0]
        if not est.bounds_ok:
            failures.append(f"defect bounds violated at alpha={alpha}")
        if not est.monotone_ok:
            failures.append(f"defect monotonicity violated at alpha={alpha}")

    # Green's formula: energy(u, v) = sum m * (L u) * v on random graphs
    for seed in range(30):
        rng = random.Random(3000 + seed)
        n = rng.randint(2, 20)
        gr = random_sparse(n, density=rng.uniform(0.1, 0.5), seed=seed)
        u = VertexFunction({x: rng.uniform(-2, 2) for x in range(n)})
        v = VertexFunction({x: rng.uniform(-2, 2) for x in range(n)})
        lhs = energy(gr, u, v)
        rhs = sum(gr.measure(x) * laplacian_apply(gr, u, x) * v(x) for x in range(n))
        if abs(lhs - rhs) > 1e-10 * (1.0 + abs(lhs)):
            failures.append(f"Green's formula off by {abs(lhs - rhs):.2e} at seed {seed}")

    # sup bound and energy local minimality on solved instances
    for seed in range(10):
        rng = random.Random(4000 + seed)
        n = rng.randint(3, 15)
        gr = random_sparse(n, density=0.3, seed=800 + seed)
        W = _random_potential(rng, n, 0.5, 2.0, W0=0.5)
        nl = (identity(), odd_power(3), odd_log(), bounded_atan())[seed % 4]
        f = VertexFunction({x: rng.uniform(-1, 1) for x in range(n)})
        U = list(range(n))
        res = solve_dirichlet(gr, W, nl, f, U, opts=TIGHT)
        if not res.converged:
            failures.append(f"solve failed at seed {seed}")
            continue
        if not _sup_bound_ok(res, W, f, U):
            failures.append(f"sup bound violated at seed {seed}")
        base = energy_functional(gr, W, nl, f, res.u, U)
        for x in U:
            for eps in (1e-3, -1e-3, 1e-2, -1e-2):
                bumped = VertexFunction(
                    {y: res.u(y) + (eps if y == x else 0.0) for y in U}
                )
                e = energy_functional(gr, W, nl, f, bumped, U)
                if e < base - 1e-10:
                    failures.append(
                        f"energy drops by {base - e:.2e} at seed {seed}, "
                        f"vertex {x}, eps {eps}"
                    )

    ok = not failures
    _report("criterion 7 (structural invariants)", ok,
            "all invariant families hold" if ok else "; ".join(failures[:3]))
    assert not failures, failures


# --- criterion 8: determinism ----------------------------------------------------


def test_criterion_8_trace_determinism(tmp_path):
    mismatched = []
    for leg in AC4_LEGS:
        first = tmp_path / "a" / leg
        second = tmp_path / "b" / leg
        code_a, _ = _run_ac4_leg(first, leg)
        code_b, _ = _run_ac4_leg(second, leg)
        if code_a != code_b:
            mismatched.append(f"{leg}: exit codes differ ({code_a} vs {code_b})")
            continue
        ta = (first / "trace.csv").read_bytes()
        tb = (second / "trace.csv").read_bytes()
        if ta != tb:
            mismatched.append(f"{leg}: trace.csv differs")
    ok = not mismatched
    _report("criterion 8 (byte-identical traces)", ok,
            "3 configs x 2 runs" if ok else "; ".join(mismatched))
    assert not mismatched, mismatched
