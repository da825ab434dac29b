"""Graph families, oracles, and the micro instance suite."""

import math
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nlresolvent import (
    ExplicitGraph,
    GraphError,
    Potential,
    SolveOptions,
    VertexFunction,
    ball,
    birth_death,
    brute_force_minimizer,
    complete_graph,
    conservation_defect,
    finite_path,
    generate,
    geometric_chain,
    graph_to_json,
    identity,
    lattice_z,
    linear_oracle,
    make_exhaustion,
    micro_suite,
    odd_power,
    random_sparse,
    shooting_defect,
    solve_dirichlet,
    star,
    symmetric_tree,
    validate,
)


# --- families ----------------------------------------------------------------


def test_lattice_shape(lattice):
    assert lattice.measure(0) == 1.0
    assert lattice.degree(5) == 2.0
    assert dict(lattice.neighbors(5)) == {4: 1.0, 6: 1.0}


def test_finite_path_shape():
    g = finite_path(4)
    assert g.vertices() == [0, 1, 2, 3]
    assert g.degree(0) == 1.0
    assert g.degree(1) == 2.0
    assert g.root == 0


def test_birth_death_degrees(chain4):
    # b(n, n+1) = 4^n: deg(0) = 1 and deg(n) = 4^n + 4^(n-1)
    assert chain4.degree(0) == 1.0
    for n in (1, 2, 5):
        assert chain4.degree(n) == pytest.approx(4.0**n + 4.0 ** (n - 1))
    assert chain4.measure(3) == 1.0


def test_birth_death_custom_rules():
    g = birth_death(lambda n: float(n + 1), m_rule=lambda n: 2.0)
    assert g.degree(0) == 1.0
    assert g.degree(2) == pytest.approx(2.0 + 3.0)
    assert g.measure(4) == 2.0


def test_geometric_chain_matches_birth_death(chain4):
    g = geometric_chain(4.0)
    for n in range(6):
        assert g.degree(n) == chain4.degree(n)


def test_symmetric_tree_ball_sizes():
    g = symmetric_tree(2)
    for r in (0, 1, 2, 3):
        assert len(ball(g, g.root, r)) == 2 ** (r + 1) - 1
    # every non-root vertex sees one parent and two children
    inner = ball(g, g.root, 2)
    for v in inner:
        expect = 2.0 if v == g.root else 3.0
        assert g.degree(v) == expect


def test_symmetric_tree_depth_rule():
    # one child at even depth, two at odd: sizes 1, 2, 6, 12 minus overlap
    g = symmetric_tree(lambda depth: 1 if depth % 2 == 0 else 2)
    assert len(ball(g, g.root, 1)) == 2
    assert len(ball(g, g.root, 2)) == 4


def test_symmetric_tree_neighbors_match_offsets_table():
    def rule(d):
        return 1 + d % 3

    offsets, count = [0], 1  # offsets[d] = first id at depth d
    for d in range(12):
        offsets.append(offsets[-1] + count)
        count *= rule(d)

    def expected(v):
        d = max(e for e in range(len(offsets)) if offsets[e] <= v)
        i = v - offsets[d]
        out = [(offsets[d - 1] + i // rule(d - 1), 1.0)] if d > 0 else []
        first = offsets[d + 1] + i * rule(d)
        return tuple(out + [(first + j, 1.0) for j in range(rule(d))])

    g = symmetric_tree(rule)
    deep = offsets[9] + 5  # queried first, so the table grows many depths at once
    queries = [deep, *range(offsets[5]), offsets[9] - 1, offsets[10] - 1]
    for v in queries:
        assert g.neighbors(v) == expected(v), v


def test_complete_graph_and_star():
    k = complete_graph(4)
    assert all(k.degree(x) == 3.0 for x in k.vertices())
    s = star(3)
    assert len(s) == 4
    assert s.degree(0) == 3.0
    assert s.degree(2) == 1.0


def test_random_sparse_is_deterministic():
    a = random_sparse(25, 0.2, seed=11)
    b = random_sparse(25, 0.2, seed=11)
    assert graph_to_json(a) == graph_to_json(b)


def test_random_sparse_connected_and_valid():
    g = random_sparse(30, 0.1, weight_range=(0.5, 2.0), seed=3)
    assert len(g) == 30
    assert len(ball(g, g.root, 30)) == 30
    assert validate(g, g.vertices()).ok
    for x in g.vertices():
        for _, w in g.neighbors(x):
            assert 0.5 <= w <= 2.0


def test_random_sparse_rejects_bad_density():
    with pytest.raises(ValueError):
        random_sparse(10, 0.0)
    with pytest.raises(ValueError):
        random_sparse(10, 1.5)


@pytest.mark.parametrize("make", [
    lambda: geometric_chain(0.0),
    lambda: geometric_chain(math.inf),
    lambda: geometric_chain(math.nan),
    lambda: random_sparse(10, 0.5, weight_range=(1.0, math.inf)),
    lambda: random_sparse(10, 0.5, weight_range=(math.nan, 2.0)),
    lambda: random_sparse(10, 0.5, weight_range=(0.5, math.nan)),
], ids=["rate-0", "rate-inf", "rate-nan", "wmax-inf", "wmin-nan", "wmax-nan"])
def test_constructors_reject_non_finite_parameters(make):
    with pytest.raises(ValueError, match="finite"):
        make()


def test_generate_round_trips_family_specs():
    cases = {
        "lattice-z": lambda g: g.degree(-3) == 2.0,
        "finite-path:5": lambda g: len(g) == 5,
        "complete:6": lambda g: g.degree(0) == 5.0,
        "star:4": lambda g: len(g) == 5,
        "birth-death:3": lambda g: g.degree(1) == 4.0,
        "tree:3": lambda g: len(ball(g, g.root, 1)) == 4,
        "random-sparse:n=12,density=0.4,wmin=1,wmax=1,seed=5": lambda g: len(g) == 12,
    }
    for spec, check in cases.items():
        g = generate(spec)
        assert check(g), spec
    # the seed argument seeds a random-sparse spec without seed=
    spec = "random-sparse:n=12,density=0.4"
    expect = graph_to_json(random_sparse(12, 0.4, seed=5))
    assert graph_to_json(generate(spec, 5)) == expect
    assert graph_to_json(generate(spec + ",seed=5", 0)) == expect


def test_bad_specs_rejected():
    for bad in ("moebius", "finite-path:x", "random-sparse:n=5", "", "lattice-z:5", "z:junk",
                "tree:abc", "random-sparse:n=5,density=0.5,foo=1", "birth-death:inf",
                "birth-death:nan", "random-sparse:n=5,density=0.5,wmax=inf",
                "random-sparse:n=5,n=7,density=0.5"):
        # every spec error names the spec
        with pytest.raises(ValueError, match=f"graph spec {re.escape(repr(bad))}"):
            generate(bad)


# --- linear oracle -------------------------------------------------------------


def test_linear_oracle_pair_hand_value(pair, unit_potential):
    u = linear_oracle(pair, unit_potential, VertexFunction.delta(0), [0, 1])
    assert u(0) == pytest.approx(2.0 / 3.0, abs=1e-12)
    assert u(1) == pytest.approx(1.0 / 3.0, abs=1e-12)


def test_linear_oracle_diagonal_case():
    g = ExplicitGraph({7: 1.0}, {})
    u = linear_oracle(g, Potential.constant(2.0), VertexFunction({7: 3.0}), [7])
    assert u(7) == pytest.approx(1.5, abs=1e-12)


def test_linear_oracle_respects_dirichlet_boundary(path3, unit_potential):
    # same boundary convention as the solver: u = 0 off U
    u = linear_oracle(path3, unit_potential, VertexFunction.delta(2), [0, 1])
    assert u(0) == 0.0 and u(1) == 0.0


@given(st.integers(min_value=0, max_value=2**31))
@settings(max_examples=20, deadline=None)
def test_solver_agrees_with_linear_oracle(seed):
    import random

    rng = random.Random(seed)
    g = random_sparse(rng.randint(2, 15), 0.3, seed=seed % 1000)
    U = g.vertices()
    W = Potential.constant(rng.uniform(0.5, 3.0))
    f = VertexFunction({x: rng.uniform(-1.0, 1.0) for x in U})
    exact = linear_oracle(g, W, f, U)
    res = solve_dirichlet(g, W, identity(), f, U)
    assert res.converged
    for x in U:
        assert res.u(x) == pytest.approx(exact(x), abs=1e-8)


# --- brute force minimizer ------------------------------------------------------


def test_brute_force_pair_identity(pair, unit_potential):
    u = brute_force_minimizer(pair, unit_potential, identity(),
                              VertexFunction.delta(0), [0, 1])
    assert u(0) == pytest.approx(2.0 / 3.0, abs=1e-5)
    assert u(1) == pytest.approx(1.0 / 3.0, abs=1e-5)


def test_brute_force_zero_data(pair, unit_potential):
    u = brute_force_minimizer(pair, unit_potential, odd_power(3.0),
                              VertexFunction.zero(), [0, 1])
    assert abs(u(0)) <= 1e-6 and abs(u(1)) <= 1e-6


def test_brute_force_single_vertex():
    g = ExplicitGraph({0: 1.0}, {})
    u = brute_force_minimizer(g, Potential.constant(2.0), identity(),
                              VertexFunction({0: 3.0}), [0])
    assert u(0) == pytest.approx(1.5, abs=1e-6)


def test_brute_force_box_must_cover_certificate(pair, unit_potential):
    with pytest.raises(GraphError):
        brute_force_minimizer(pair, unit_potential, identity(),
                              VertexFunction.delta(0), [0, 1], box=(-0.1, 0.1))


# --- micro suite -----------------------------------------------------------------


def test_micro_suite_shape():
    suite = micro_suite()
    names = [c["name"] for c in suite]
    assert len(names) == len(set(names))
    assert len(suite) >= 6
    for case in suite:
        assert set(case) >= {"name", "g", "W", "f", "U"}
        assert 1 <= len(case["U"]) <= 3
        probe = list(case["U"]) + [x for x in case["f"].support]
        assert validate(case["g"], probe).ok, case["name"]


def test_micro_suite_cases_solve(unit_potential):
    for case in micro_suite():
        res = solve_dirichlet(case["g"], case["W"], identity(), case["f"], case["U"])
        assert res.converged, case["name"]


# --- shooting defect -----------------------------------------------------------

# m(n) and b(n, n+1) of the lattice's spheres {-n, n}
LATTICE_QUOTIENT = (lambda n: 1 if n == 0 else 2, lambda n: 2)
# radii past 6,400 exit 3 today: at r = 12,800 the solve for u = alpha - w stops at a
# residual of 6e-9, from cancellation, so they wait for a solve in the defect variable
LATTICE_RADII = [400, 1600, 6400]


@pytest.fixture(scope="module")
def lattice_cubic_defects():
    return [shooting_defect(*LATTICE_QUOTIENT, lambda t: t**3, r) for r in LATTICE_RADII]


def _root_defects(g, nl, radii, alpha=1.0, W0=1.0):
    W = Potential.constant(W0)
    est = conservation_defect(g, W, nl, alpha, make_exhaustion(g, 0, radii), probes=(0,))
    return est.defects[0], SolveOptions.residual_tol / W.W0


def test_chain4_root_defects_match_the_shooting_reference(chain4):
    radii = [5, 10, 20, 40, 80]
    got, tol = _root_defects(chain4, identity(), radii)
    for r, d in zip(radii, got):
        assert abs(d - float(shooting_defect(lambda n: 1, lambda n: 4**n, lambda t: t, r))) <= tol


def test_lattice_cubic_root_defects_match_the_shooting_reference(lattice_cubic_defects):
    got, tol = _root_defects(lattice_z(), odd_power(3.0), LATTICE_RADII)
    for d, ref in zip(got, lattice_cubic_defects):
        assert abs(d - float(ref)) <= tol


def test_lattice_cubic_shooting_defect_follows_its_asymptote(lattice_cubic_defects):
    # d_R ~ K / (R + 2.21) for phi = t^3, with K = K(1/sqrt 2) = Gamma(1/4)^2 / (4 sqrt(pi))
    K = 1.8540746773
    assert float(lattice_cubic_defects[-1]) * (LATTICE_RADII[-1] + 2.21) / K == pytest.approx(
        1.0, abs=5e-4)


@pytest.mark.parametrize("alpha, W0", [(0.5, 1.0), (2.0, 1.0), (1.0, 2.0)])
def test_lattice_cubic_root_defects_match_the_shooting_reference_at_alpha_and_W(alpha, W0):
    radii = LATTICE_RADII[:2]
    got, tol = _root_defects(lattice_z(), odd_power(3.0), radii, alpha, W0)
    for r, d in zip(radii, got):
        assert abs(d - float(shooting_defect(*LATTICE_QUOTIENT, lambda t: t**3, r, alpha, W0))) <= tol


@pytest.mark.parametrize("alpha, W0", [(0.5, 1.0), (1.0, 2.0)])
def test_chain4_root_defects_match_the_shooting_reference_at_alpha_and_W(chain4, alpha, W0):
    radii = [5, 20, 80]
    got, tol = _root_defects(chain4, identity(), radii, alpha, W0)
    for r, d in zip(radii, got):
        ref = shooting_defect(lambda n: 1, lambda n: 4**n, lambda t: t, r, alpha, W0)
        assert abs(d - float(ref)) <= tol
