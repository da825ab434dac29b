"""Spans and counters for the traced benchmark run, recorded from outside.

Nothing under ``src/`` is changed: :func:`install` replaces public
functions at the place where the calling module looks them up (for
example ``nlresolvent.cli.ball`` rather than ``nlresolvent.graphs.ball``)
with wrappers that record a span (name, start, end, parent) and count
work.  Spans are kept in memory and written out when the run ends.  A
name that a later refactor removed is listed as absent instead of
failing the run.

The span names are ``<layer>.<function>``, the layer being the module
that defines the function; per-layer self time is summed over them.
"""

from __future__ import annotations

import dataclasses
import inspect
import time
from collections import Counter, defaultdict


class Tracer:
    """Spans and counts of one traced run, kept in memory until it ends."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counts: Counter = Counter()
        self.absent: list[str] = []
        self.vertices: set[int] = set()
        self._stack: list[int] = []

    def traced(self, name, fn, on_result=None):
        """fn wrapped in a span; ``on_result(args, kwargs, result)`` may replace the result."""
        def wrapper(*args, **kwargs):
            rec = [name, time.perf_counter(), None, self._stack[-1] if self._stack else -1]
            self._stack.append(len(self.spans))
            self.spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter()
                self._stack.pop()
            return result if on_result is None else on_result(args, kwargs, result)
        return wrapper

    def patch(self, module, attr, name, on_result=None):
        fn = getattr(module, attr, None)
        if fn is None:
            self.absent.append(f"{module.__name__.rpartition('.')[2]}.{attr}")
        else:
            setattr(module, attr, self.traced(name, fn, on_result))

    def counted(self, key, fn):
        if fn is None:
            return None

        def wrapper(*args):
            self.counts[key] += 1
            return fn(*args)
        return wrapper

    def report(self) -> dict:
        counts = dict(self.counts, **{"graphs.neighbors.vertices": len(self.vertices)})
        return {"spans": self.spans, "counts": counts, "absent": self.absent}


def install(tracer: Tracer) -> None:
    """Wrap the package's layer boundaries; call after importing ``nlresolvent.cli``."""
    from nlresolvent import cli, completeness, resolvent, solver

    def graph(args, kwargs, g):
        inner = g.neighbors

        def neighbors(x):
            tracer.counts["graphs.neighbors.calls"] += 1
            tracer.vertices.add(x)
            return inner(x)
        g.neighbors = neighbors
        return g

    def phi(args, kwargs, nl):
        return dataclasses.replace(
            nl, phi=tracer.counted("nonlinearity.phi.calls", nl.phi),
            deriv=tracer.counted("nonlinearity.deriv.calls", nl.deriv),
            inv=tracer.counted("nonlinearity.inv.calls", nl.inv))

    def ball_size(args, kwargs, out):
        key = "graphs.ball.vertices"
        tracer.counts[key] = max(tracer.counts[key], len(out))
        return out

    def solve(args, kwargs, res):
        bound = inspect.signature(solver.solve_dirichlet).bind(*args, **kwargs)
        n_u = len(set(bound.arguments["U"]))
        tracer.counts["solver.unknowns"] += n_u
        tracer.counts["solver.sweeps"] += res.sweeps_used
        tracer.counts["solver.vertex_updates"] += res.sweeps_used * n_u
        tracer.counts["solver.converged"] += bool(res.converged)
        return res

    def steps(args, kwargs, est):
        tracer.counts["resolvent.steps"] += len(est.steps)
        return est

    for mod, attr, name, hook in [
        (cli, "generate", "testkit.generate", graph),
        (cli, "parse_phi", "nonlinearity.parse_phi", phi),
        (cli, "make_exhaustion", "resolvent.make_exhaustion", None),
        (cli, "default_probes", "completeness.default_probes", None),
        (cli, "conservation_defect", "completeness.conservation_defect", None),
        (cli, "extended_resolvent", "resolvent.extended_resolvent", steps),
        (cli, "graph_to_json", "graphs.graph_to_json", None),
        (cli, "ball", "graphs.ball", ball_size),
        (resolvent, "ball", "graphs.ball", ball_size),
        (completeness, "ball", "graphs.ball", ball_size),
        (completeness, "extended_resolvent", "resolvent.extended_resolvent", steps),
        (resolvent, "solve_dirichlet", "solver.solve_dirichlet", solve),
        (solver, "energy_functional", "solver.energy_functional", None),
    ]:
        tracer.patch(mod, attr, name, hook)


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it that its direct children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for _, start, end, parent in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    out = []
    for i, (_, start, end, _) in enumerate(spans):
        covered, reach = 0.0, start
        for c_start, c_end in sorted(children.get(i, ())):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        out.append((end - start) - covered)
    return out


def layer_metrics(report: dict) -> dict[str, float]:
    """Per-layer metrics of one traced run from its spans and counts."""
    spans, counts = report["spans"], Counter(report["counts"])
    total, own, longest, layer_self = (defaultdict(float) for _ in range(4))
    calls = Counter()
    for (name, start, end, _), st in zip(spans, self_times(spans)):
        total[name] += end - start
        own[name] += st
        longest[name] = max(longest[name], end - start)
        calls[name] += 1
        layer_self[name.partition(".")[0]] += st

    def ratio(a, b):
        return a / b if b else 0.0

    solves = calls["solver.solve_dirichlet"]
    return {
        "testkit.generate_s": total["testkit.generate"],
        "graphs.ball_s": total["graphs.ball"],
        "graphs.ball_calls": calls["graphs.ball"],
        "graphs.ball_vertices": counts["graphs.ball.vertices"],
        "graphs.neighbor_calls": counts["graphs.neighbors.calls"],
        "graphs.neighbor_vertices": counts["graphs.neighbors.vertices"],
        "graphs.neighbor_calls_per_vertex": ratio(counts["graphs.neighbors.calls"],
                                                  counts["graphs.neighbors.vertices"]),
        "graphs.to_json_s": total["graphs.graph_to_json"],
        "nonlinearity.phi_calls": counts["nonlinearity.phi.calls"],
        "nonlinearity.deriv_calls": counts["nonlinearity.deriv.calls"],
        "nonlinearity.inv_calls": counts["nonlinearity.inv.calls"],
        "nonlinearity.phi_calls_per_update": ratio(counts["nonlinearity.phi.calls"],
                                                   counts["solver.vertex_updates"]),
        "solver.solve_s": total["solver.solve_dirichlet"],
        "solver.solve_self_s": own["solver.solve_dirichlet"],
        "solver.solve_s_max": longest["solver.solve_dirichlet"],
        "solver.solve_calls": solves,
        "solver.energy_s": total["solver.energy_functional"],
        "solver.sweeps": counts["solver.sweeps"],
        "solver.unknowns": counts["solver.unknowns"],
        "solver.vertex_updates": counts["solver.vertex_updates"],
        "solver.converged_ratio": ratio(counts["solver.converged"], solves),
        "resolvent.exhaustion_s": total["resolvent.make_exhaustion"],
        "resolvent.steps": counts["resolvent.steps"],
        "resolvent.reused_steps": counts["resolvent.steps"] - solves,
        "resolvent.self_s": layer_self["resolvent"],
        "completeness.defect_s": total["completeness.conservation_defect"],
        "completeness.defect_calls": calls["completeness.conservation_defect"],
        "completeness.probes_s": total["completeness.default_probes"],
        "completeness.self_s": layer_self["completeness"],
        "cli.self_s": layer_self["cli"],
    }
