"""Independent oracles and output checks for the benchmark workloads.

The oracles share no code with ``nlresolvent``.  Each reduces its
workload by symmetry to a small dense system and solves it with numpy:

- the linear resolvent on a ball of the binary tree is radial, so it is
  a tridiagonal system in the depth (R + 1 unknowns);
- the cubic resolvent on a ball of Z is even, so it is a nonlinear
  system on the half-line (R + 1 unknowns), solved by Newton's method
  with backtracking.

Each ``check_*`` function reads the artifacts one CLI run wrote and
returns a list of problems, empty when the output is right.
"""

from __future__ import annotations

import csv
import json
import math
import os

import numpy as np

# The solver stops at a sup residual of 1e-9 * (1 + |f|), and on these
# data that bounds its error in u by 3e-9 (the Jacobian of
# phi^{-1}(L u) + W u is diagonally dominant with margin W = 1).
VALUE_TOL = 1e-8

RESOLVE_HEADER = ["n", "radius", "set_size", "probe_id", "value", "increment",
                  "sweeps", "residual"]
CLASSIFY_HEADER = ["alpha"] + RESOLVE_HEADER


def tree_depth(v: int, branching: int) -> int:
    """Depth of vertex v in the breadth-first id coding of the k-ary tree."""
    depth, first, width = 0, 0, 1
    while v >= first + width:
        first += width
        width *= branching
        depth += 1
    return depth


def tree_radial_resolvent(radius: int, branching: int = 2) -> np.ndarray:
    """u_0..u_R solving (L + 1) u = 1 on the ball B_R of the k-ary tree.

    Unit weights and measures, u = 0 outside the ball.  A vertex at
    depth d has one parent (none at the root) and k children, so by
    symmetry (L u)_d = deg_d u_d - u_{d-1} - k u_{d+1} with u_{R+1} = 0.
    """
    n = radius + 1
    a = np.zeros((n, n))
    for d in range(n):
        a[d, d] = branching + (d > 0) + 1.0
        if d > 0:
            a[d, d - 1] = -1.0
        if d < radius:
            a[d, d + 1] = -float(branching)
    return np.linalg.solve(a, np.ones(n))


def lattice_power_resolvent(radius: int, alpha: float, power: float = 3.0) -> np.ndarray:
    """u_0..u_R solving phi^{-1}(L u) + u = alpha on {-R..R} in Z, phi(t) = t^p.

    Written as L u = (alpha - u)^p with u = 0 outside the ball; the
    solution is even, so u(-x) = u(x) folds the system onto the
    half-line, where row 0 sees its neighbor u_1 twice.  Newton steps
    on that system are damped by halving until the residual norm
    drops (Armijo), starting from u = 0.
    """
    n = radius + 1
    lap = np.zeros((n, n))
    for x in range(n):
        lap[x, x] = 2.0
        if x > 0:
            lap[x, x - 1] = -1.0
        if x < radius:
            lap[x, x + 1] = -2.0 if x == 0 else -1.0

    def resid(u):
        s = alpha - u
        return lap @ u - np.sign(s) * np.abs(s) ** power

    u = np.zeros(n)
    r = resid(u)
    for _ in range(200):
        jac = lap + np.diag(power * np.abs(alpha - u) ** (power - 1.0))
        step = np.linalg.solve(jac, -r)
        t = 1.0
        while True:
            cand = u + t * step
            r_cand = resid(cand)
            if np.linalg.norm(r_cand) <= (1.0 - 1e-4 * t) * np.linalg.norm(r) or t < 1e-12:
                break
            t *= 0.5
        u, r = cand, r_cand
        if np.max(np.abs(t * step)) <= 1e-15 * max(1.0, np.max(np.abs(u))):
            return u
    raise RuntimeError(f"oracle Newton did not converge (R={radius}, alpha={alpha})")


def _read_trace(outdir: str, header: list[str]) -> tuple[list[list[str]], list[str]]:
    path = os.path.join(outdir, "trace.csv")
    try:
        with open(path, encoding="utf-8", newline="") as fh:
            rows = list(csv.reader(fh))
    except OSError as exc:
        return [], [f"cannot read trace.csv: {exc}"]
    if not rows or rows[0] != header:
        return [], [f"trace.csv header is {rows[0] if rows else None}, want {header}"]
    return rows[1:], []


def _check_rows(rows, keys, expect, radii, set_size, probe_ok, problems):
    """Compare value/increment columns against oracle values.

    ``rows`` are (key..., n, radius, set_size, probe, value, increment,
    sweeps, residual) with ``keys`` leading columns; ``expect(key, n,
    probe)`` gives the oracle value and the value the increment is
    taken from.
    """
    probes_by_group: dict[tuple, list[int]] = {}
    for row in rows:
        key = tuple(row[:keys])
        n, radius, size, probe = (int(c) for c in row[keys:keys + 4])
        value, inc, residual = float(row[keys + 4]), float(row[keys + 5]), float(row[keys + 7])
        where = f"row {key + (n, probe)}"
        if not 0 <= n < len(radii) or radius != radii[n] or size != set_size(radius):
            problems.append(f"{where}: step {n} has radius {radius}, size {size}")
            continue
        if not probe_ok(probe):
            problems.append(f"{where}: probe {probe} is not interior to the first ball")
            continue
        probes_by_group.setdefault(key + (n,), []).append(probe)
        want, prev = expect(key, n, probe)
        if abs(value - want) > VALUE_TOL:
            problems.append(f"{where}: value {value!r}, oracle {want!r}")
        if abs(inc - (want - prev)) > 2 * VALUE_TOL:
            problems.append(f"{where}: increment {inc!r}, oracle {want - prev!r}")
        if not math.isfinite(residual):
            problems.append(f"{where}: residual {residual!r}")
    probe_sets = {tuple(p) for p in probes_by_group.values()}
    if len(probe_sets) != 1:
        problems.append(f"probe lists differ between steps: {sorted(probe_sets)}")
    else:
        (probes,) = probe_sets
        if len(set(probes)) != len(probes) or 0 not in probes:
            problems.append(f"probes {probes} are not distinct or miss the root")
    return probes_by_group


def tree_resolve_expectation(radii: list[int]) -> dict[int, np.ndarray]:
    return {r: tree_radial_resolvent(r) for r in radii}


def check_tree_resolve(outdir: str, radii: list[int], oracle: dict[int, np.ndarray],
                       probe_count: int) -> list[str]:
    """trace.csv of ``resolve --graph tree:2 --W const:1 --f const:1``."""
    rows, problems = _read_trace(outdir, RESOLVE_HEADER)
    if problems:
        return problems

    def expect(key, n, probe):
        d = tree_depth(probe, 2)
        prev = float(oracle[radii[n - 1]][d]) if n > 0 else 0.0
        return float(oracle[radii[n]][d]), prev

    groups = _check_rows(
        rows, 0, expect, radii, lambda r: 2 ** (r + 1) - 1,
        lambda p: p >= 0 and tree_depth(p, 2) < radii[0], problems)
    if len(rows) != len(radii) * probe_count or len(groups) != len(radii):
        problems.append(f"{len(rows)} trace rows, want {len(radii)} steps x {probe_count} probes")
    return problems


def lattice_cubic_expectation(radii: list[int], alphas: list[float]) -> dict:
    return {(a, r): lattice_power_resolvent(r, a) for a in alphas for r in radii}


def check_lattice_cubic(outdir: str, radii: list[int], alphas: list[float], oracle: dict,
                        probe_count: int) -> list[str]:
    """trace.csv and result.json of ``classify --graph lattice-z --phi power:3``."""
    rows, problems = _read_trace(outdir, CLASSIFY_HEADER)
    if problems:
        return problems
    try:
        with open(os.path.join(outdir, "result.json"), encoding="utf-8") as fh:
            verdict = json.load(fh).get("verdict")
    except (OSError, ValueError) as exc:
        return [f"cannot read result.json: {exc}"]
    if verdict != "inconclusive":
        problems.append(f"verdict {verdict!r}, want 'inconclusive'")

    def expect(key, n, probe):
        a = float(key[0])
        defect = a - float(oracle[(a, radii[n])][abs(probe)])
        prev = a - float(oracle[(a, radii[n - 1])][abs(probe)]) if n > 0 else a
        return defect, prev

    bad_alpha = {float(row[0]) for row in rows} - set(alphas)
    if bad_alpha:
        return problems + [f"trace.csv has unexpected alphas {sorted(bad_alpha)}"]
    groups = _check_rows(
        rows, 1, expect, radii, lambda r: 2 * r + 1,
        lambda p: abs(p) < radii[0], problems)
    want = len(alphas) * len(radii)
    if len(rows) != want * probe_count or len(groups) != want:
        problems.append(f"{len(rows)} trace rows, want {want} steps x {probe_count} probes")
    return problems


def check_tree_gen(outdir: str, radius: int) -> list[str]:
    """graph.json of ``gen --family tree:2 --radii R``: the full binary tree of depth R."""
    try:
        with open(os.path.join(outdir, "graph.json"), encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, ValueError) as exc:
        return [f"cannot read graph.json: {exc}"]
    n = 2 ** (radius + 1) - 1
    problems = []
    verts, edges = doc.get("vertices", []), doc.get("edges", [])
    if sorted(row["id"] for row in verts) != list(range(n)):
        problems.append(f"vertex ids are not 0..{n - 1} ({len(verts)} rows)")
    if any(row["m"] != 1.0 for row in verts):
        problems.append("some vertex has m != 1")
    if len(edges) != n - 1:
        problems.append(f"{len(edges)} edges, want {n - 1}")
    children = sorted(max(e["u"], e["v"]) for e in edges)
    if children != list(range(1, n)):
        problems.append("edge children are not exactly 1..n-1")
    bad = [e for e in edges
           if min(e["u"], e["v"]) != (max(e["u"], e["v"]) - 1) // 2 or e["b"] != 1.0]
    if bad:
        problems.append(f"{len(bad)} edges do not join v to (v-1)//2 with b = 1, e.g. {bad[0]}")
    return problems
