"""Batch command-line driver.

Subcommands: validate, solve, resolve, classify, path-criterion,
verify-liouville, gen.  Each run can emit three artifacts into --out:
``config.json`` (the fully resolved configuration, seed included),
``trace.csv`` (per-step rows), and ``result.json`` (the summary; every
number in it also appears in the trace, so results are auditable
against the raw rows).

Exit codes: 0 for a completed run (an inconclusive verdict is a
result, not a failure), 2 for configuration and input errors, 3 when
a solve that the mode depends on did not converge.  On exit 3 the
trace keeps the rows of the steps that completed, so partial traces
stay reproducible, and ``result.json`` holds
``{"converged": false, "error": ...}``.

CSV numbers are written with 17 significant digits and '.' decimal
regardless of locale; identical configuration and seed reproduce
trace.csv byte for byte.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from dataclasses import asdict, dataclass, replace

from .completeness import (
    CLASSIFY_CSV_HEADER,
    DEFAULT_ALPHA_GRID,
    Thresholds,
    classify,
    default_probes,
    large_potential,
    path_criterion,
    verify_liouville,
)
from .graphs import (
    ExplicitGraph,
    GraphError,
    VertexFunction,
    WeightedGraph,
    ball,
    graph_from_json,
    validate,
    write_graph_json,
)
from .nonlinearity import Nonlinearity, RangeError, parse_phi
from .resolvent import (
    CSV_HEADER,
    doubling_schedule,
    extended_resolvent,
    make_exhaustion,
)
from .solver import Potential, SolveError, SolveOptions, _require_positive, solve_dirichlet
from .testkit import family_from_spec, generate

__all__ = ["RunConfig", "build_parser", "run", "main"]

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NO_CONVERGENCE = 3


class CliError(Exception):
    """Configuration or input problem; maps to exit code 2."""


@dataclass
class RunConfig:
    """Fully resolved run description; flags and config files map here 1:1."""

    mode: str
    graph: str | None = None
    phi: str = "identity"
    W: str = "const:1"
    f: str | None = None
    U: str | None = None
    radii: str | None = None
    alpha: str | None = None
    probes: str = "auto"
    terms: int = 50
    path: str = "ray"
    family: str | None = None
    seed: int = 0
    out: str | None = None
    tol: float = 1e-6
    sweep_tol: float = 1e-10
    residual_tol: float = 1e-9
    max_sweeps: int = 100_000
    complete_tol: float = 1e-4
    stabilization_tol: float = 1e-6
    incomplete_floor: float = 1e-2
    max_vertices: int | None = None

    def solve_options(self) -> SolveOptions:
        return SolveOptions(
            sweep_tol=self.sweep_tol,
            residual_tol=self.residual_tol,
            max_sweeps=self.max_sweeps,
        )

    def thresholds(self) -> Thresholds:
        return Thresholds(
            complete_tol=self.complete_tol,
            stabilization_tol=self.stabilization_tol,
            incomplete_floor=self.incomplete_floor,
        )


# ---------------------------------------------------------------- parsing

_MODES = ("validate", "solve", "resolve", "classify", "path-criterion",
          "verify-liouville", "gen")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nlresolvent",
        description="Dirichlet solves, resolvent estimates, and completeness "
                    "classification on weighted graphs.",
    )
    sub = parser.add_subparsers(dest="mode", required=True, metavar="|".join(_MODES))

    def sp(name: str, help_: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_, argument_default=argparse.SUPPRESS)
        p.set_defaults(mode=name)
        p.add_argument("--graph", help="family spec (lattice-z, finite-path:N, "
                       "complete:N, star:K, birth-death:RATE, tree:K, "
                       "random-sparse:n=..,density=..) or file:PATH")
        p.add_argument("--phi", help="identity | power:P | log | atan (default identity)")
        p.add_argument("--W", help="const:C | degm:C (deg/m + C) | large-potential "
                       "(default const:1)")
        p.add_argument("--config", help="JSON file of option values; explicit flags win")
        p.add_argument("--seed", type=int, help="seed for probe selection and for a "
                       "random-sparse family whose spec has no seed= (default 0)")
        p.add_argument("--out", help="directory for config.json/trace.csv/result.json")
        p.add_argument("--max-vertices", type=int, dest="max_vertices",
                       help="materialization cap (overrides NLRESOLVENT_MAX_VERTICES)")
        p.add_argument("--sweep-tol", type=float, dest="sweep_tol")
        p.add_argument("--residual-tol", type=float, dest="residual_tol")
        p.add_argument("--max-sweeps", type=int, dest="max_sweeps",
                       help="cap on passes over each solve's vertex set: "
                       "conjugate-gradient iterations of the Newton solver, or "
                       "rounds of scalar solves where phi falls back to "
                       "Gauss-Seidel (default 100000)")
        return p

    p = sp("validate", "check graph axioms and report failures")
    p.add_argument("--radii", help="probe ball radius for procedural graphs (first value)")

    p = sp("solve", "one Dirichlet solve on an explicit vertex set")
    p.add_argument("--f", help="delta:X | delta:X,SCALE | const:C | zero")
    p.add_argument("--U", help="all | ball:R | list:1,2,3")

    p = sp("resolve", "resolvent estimate along a ball exhaustion")
    p.add_argument("--f", help="delta:X | delta:X,SCALE | const:C | zero")
    p.add_argument("--radii", help="comma list 25,50,100 or doubling:START:STEPS")
    p.add_argument("--probes", help="auto | root | list:0,5,7 (default auto)")
    p.add_argument("--tol", type=float, help="per-probe increment tolerance (default 1e-6)")

    p = sp("classify", "conservation-defect verdict over an alpha grid")
    p.add_argument("--radii", help="comma list or doubling:START:STEPS")
    p.add_argument("--alpha", help="comma list of alphas (default 0.25,0.5,1,2,4)")
    p.add_argument("--probes", help="auto | root | list:... (default auto)")
    p.add_argument("--complete-tol", type=float, dest="complete_tol")
    p.add_argument("--stabilization-tol", type=float, dest="stabilization_tol")
    p.add_argument("--incomplete-floor", type=float, dest="incomplete_floor")

    p = sp("path-criterion", "term sums m*phi(alpha*W)/deg along a path")
    p.add_argument("--alpha", help="single alpha in (0, 1] (default 1)")
    p.add_argument("--terms", type=int, help="number of terms N (default 50)")
    p.add_argument("--path", help="ray (greedy smallest-id walk from root) | "
                   "list:0,1,2,... (default ray)")

    p = sp("verify-liouville", "equation check for w = alpha - R(alpha W)")
    p.add_argument("--radii", help="comma list or doubling:START:STEPS")
    p.add_argument("--alpha", help="single alpha > 0 (default 1)")
    p.add_argument("--probes", help="auto | root | list:... (default auto)")

    p = sp("gen", "write a generated family instance as graph.json")
    p.add_argument("--family", help="family spec, as for --graph")
    p.add_argument("--radii", help="ball radius to materialize a procedural family")

    return parser


def _merge_config(ns: argparse.Namespace) -> RunConfig:
    provided = {k: v for k, v in vars(ns).items()}
    mode = provided.pop("mode")
    config_path = provided.pop("config", None)
    merged: dict = {}
    if config_path:
        try:
            with open(config_path, "r", encoding="utf-8") as fh:
                file_vals = json.load(fh)
        except OSError as exc:
            raise CliError(f"cannot read config file: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise CliError(f"malformed config file {config_path}: {exc}") from exc
        if not isinstance(file_vals, dict):
            raise CliError(f"config file {config_path} must hold a JSON object")
        fields = set(RunConfig.__dataclass_fields__)
        for key, val in file_vals.items():
            key_n = key.replace("-", "_")
            if key_n == "mode":
                if val != mode:
                    raise CliError(
                        f"config file mode {val!r} conflicts with subcommand {mode!r}"
                    )
                continue
            if key_n == "config":
                continue
            if key_n not in fields:
                raise CliError(f"unknown config key {key!r}")
            if key_n in provided and provided[key_n] != val:
                print(
                    f"warning: --{key_n.replace('_', '-')} = {provided[key_n]!r} "
                    f"overrides config value {val!r}",
                    file=sys.stderr,
                )
                continue
            merged[key_n] = val
    merged.update(provided)
    try:
        return RunConfig(mode=mode, **merged)
    except TypeError as exc:
        raise CliError(str(exc)) from exc


# ---------------------------------------------------------------- specs

def _load_graph(cfg: RunConfig) -> WeightedGraph:
    spec = cfg.graph
    if not spec:
        raise CliError("--graph is required for this mode")
    if spec.startswith("file:"):
        path = spec[len("file:"):]
        try:
            g = graph_from_json(path)
        except OSError as exc:
            raise CliError(f"cannot read graph file: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise CliError(f"malformed JSON in {path}: {exc}") from exc
        report = validate(g, g.vertices())
        if not report.ok:
            raise CliError(f"graph file {path} is {report}")
        return g
    return _generate(spec, cfg.seed)


def _generate(spec: str, seed: int) -> WeightedGraph:
    """The family graph of ``spec``; ``seed`` seeds a random-sparse spec
    without ``seed=``, so gen and --graph build the same graph."""
    fam = family_from_spec(spec)
    if fam.kind == "random-sparse":
        fam = replace(fam, params={"seed": seed, **fam.params})
    return generate(fam)


def _parse_potential(cfg: RunConfig, g: WeightedGraph, nl: Nonlinearity) -> Potential:
    spec = cfg.W.strip()
    if spec in ("large-potential", "large_potential"):
        return large_potential(g, nl)
    head, _, rest = spec.partition(":")
    try:
        c = float(rest)
    except ValueError:
        raise CliError(f"potential spec {spec!r} needs a numeric parameter") from None
    if c <= 0:
        raise CliError(f"potential parameter must be positive, got {c}")
    if head == "const":
        return Potential.constant(c)
    if head == "degm":
        return Potential.from_callable(lambda x: g.degree(x) / g.measure(x) + c, W0=c)
    raise CliError(f"unknown potential spec {spec!r}")


def _parse_f(cfg: RunConfig):
    spec = cfg.f
    if not spec:
        raise CliError("--f is required for this mode")
    spec = spec.strip()
    if spec == "zero":
        return VertexFunction.zero()
    head, _, rest = spec.partition(":")
    if head == "delta":
        parts = rest.split(",")
        try:
            x = int(parts[0])
            scale = float(parts[1]) if len(parts) > 1 else 1.0
        except (ValueError, IndexError):
            raise CliError(f"bad delta spec {spec!r}") from None
        return VertexFunction.delta(x, scale)
    if head == "const":
        try:
            c = float(rest)
        except ValueError:
            raise CliError(f"bad const spec {spec!r}") from None
        return lambda x: c
    raise CliError(f"unknown f spec {spec!r}")


def _parse_U(cfg: RunConfig, g: WeightedGraph) -> list[int]:
    spec = cfg.U
    if not spec:
        raise CliError("--U is required for solve")
    spec = spec.strip()
    if spec == "all":
        if not isinstance(g, ExplicitGraph):
            raise CliError("--U all needs a finite explicit graph; use ball:R instead")
        return g.vertices()
    head, _, rest = spec.partition(":")
    if head == "ball":
        try:
            r = int(rest)
        except ValueError:
            raise CliError(f"bad ball spec {spec!r}") from None
        return ball(g, g.root, r, max_vertices=cfg.max_vertices)
    if head == "list":
        try:
            return [int(v) for v in rest.split(",")]
        except ValueError:
            raise CliError(f"bad vertex list {spec!r}") from None
    raise CliError(f"unknown U spec {spec!r}")


def _parse_radii(cfg: RunConfig) -> list[int]:
    spec = cfg.radii
    if not spec:
        raise CliError("--radii is required for this mode")
    spec = str(spec).strip()
    if spec.startswith("doubling:"):
        parts = spec.split(":")[1:]
        try:
            start, steps = int(parts[0]), int(parts[1])
        except (ValueError, IndexError):
            raise CliError(f"bad doubling spec {spec!r}; want doubling:START:STEPS") from None
        return doubling_schedule(start, steps)
    try:
        return [int(v) for v in spec.split(",")]
    except ValueError:
        raise CliError(f"bad radii list {spec!r}") from None


def _parse_probes(cfg: RunConfig, g: WeightedGraph, ex) -> tuple[int, ...]:
    spec = (cfg.probes or "auto").strip()
    if spec == "auto":
        return default_probes(g, ex, seed=cfg.seed)
    if spec == "root":
        return (ex.root,)
    head, _, rest = spec.partition(":")
    if head == "list":
        try:
            return tuple(dict.fromkeys(int(v) for v in rest.split(",")))
        except ValueError:
            raise CliError(f"bad probe list {spec!r}") from None
    raise CliError(f"unknown probes spec {spec!r}")


def _parse_alpha_grid(cfg: RunConfig) -> tuple[float, ...]:
    if cfg.alpha is None:
        return DEFAULT_ALPHA_GRID
    try:
        grid = tuple(float(v) for v in str(cfg.alpha).split(","))
    except ValueError:
        raise CliError(f"bad alpha list {cfg.alpha!r}") from None
    if not all(0.0 < a < math.inf for a in grid):
        raise CliError(f"alpha grid must be positive and finite, got {cfg.alpha!r}")
    return grid


def _parse_alpha_single(cfg: RunConfig, default: float = 1.0) -> float:
    if cfg.alpha is None:
        return default
    try:
        return float(cfg.alpha)
    except (TypeError, ValueError):
        raise CliError(f"this mode takes a single alpha, got {cfg.alpha!r}") from None


def _ray(g: WeightedGraph, start: int):
    """Greedy walk from start, always to the smallest-id unvisited neighbor."""
    visited = {start}
    x = start
    yield x
    while True:
        nxt = None
        for y, w in g.neighbors(x):
            if w > 0.0 and y not in visited and (nxt is None or y < nxt):
                nxt = y
        if nxt is None:
            return
        visited.add(nxt)
        x = nxt
        yield x


def _parse_path(cfg: RunConfig, g: WeightedGraph):
    spec = (cfg.path or "ray").strip()
    if spec == "ray":
        return _ray(g, g.root)
    head, _, rest = spec.partition(":")
    if head == "list":
        try:
            return [int(v) for v in rest.split(",")]
        except ValueError:
            raise CliError(f"bad path list {spec!r}") from None
    raise CliError(f"unknown path spec {spec!r}")


# ---------------------------------------------------------------- artifacts

def _fmt_cell(v) -> str:
    if isinstance(v, int):
        return str(v)
    return format(float(v), ".17g")


def _write_trace(outdir: str, header: tuple[str, ...], rows: list[tuple]) -> None:
    with open(os.path.join(outdir, "trace.csv"), "w", encoding="utf-8", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(header)
        for row in rows:
            w.writerow([_fmt_cell(c) for c in row])


def _write_json(outdir: str, name: str, doc: dict) -> None:
    with open(os.path.join(outdir, name), "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _prepare_out(cfg: RunConfig, extra: dict | None = None) -> str | None:
    if not cfg.out:
        return None
    os.makedirs(cfg.out, exist_ok=True)
    doc = asdict(cfg)
    if extra:
        doc.update(extra)
    _write_json(cfg.out, "config.json", doc)
    return cfg.out


# ---------------------------------------------------------------- modes

def _run_validate(cfg: RunConfig) -> int:
    g = _load_graph(cfg)  # file graphs are fully validated on load
    if isinstance(g, ExplicitGraph):
        probe = g.vertices()
    else:
        r = _parse_radii(cfg)[0] if cfg.radii else 3
        probe = ball(g, g.root, r, max_vertices=cfg.max_vertices)
    report = validate(g, probe)
    outdir = _prepare_out(cfg, {"probe_count": len(probe)})
    if outdir:
        _write_json(outdir, "result.json",
                    {"ok": report.ok, "failures": list(report.failures)})
    print(str(report))
    return EXIT_OK if report.ok else EXIT_CONFIG


def _run_solve(cfg: RunConfig) -> int:
    g = _load_graph(cfg)
    nl = parse_phi(cfg.phi)
    W = _parse_potential(cfg, g, nl)
    u_set = _parse_U(cfg, g)
    f = _parse_f(cfg)
    res = solve_dirichlet(g, W, nl, f, u_set, opts=cfg.solve_options())
    order = list(dict.fromkeys(u_set))
    rows = [
        (0, 0, len(order), x, res.u(x), res.u(x), res.sweeps_used, res.residual_inf)
        for x in order
    ]
    outdir = _prepare_out(cfg)
    if outdir:
        _write_trace(outdir, CSV_HEADER, rows)
        _write_json(outdir, "result.json", {
            "u": {str(x): res.u(x) for x in order},
            "residual_sup": res.residual_inf,
            "sweeps": res.sweeps_used,
            "converged": res.converged,
        })
    if not res.converged:
        print(
            f"error: solve did not converge after {res.sweeps_used} sweeps "
            f"(residual {res.residual_inf:.3g})",
            file=sys.stderr,
        )
        return EXIT_NO_CONVERGENCE
    print("u = (" + ", ".join(f"{res.u(x):.4f}" for x in sorted(order)) + ")")
    print(f"sweeps {res.sweeps_used}, residual {res.residual_inf:.3g}")
    return EXIT_OK


def _run_resolve(cfg: RunConfig) -> int:
    g = _load_graph(cfg)
    nl = parse_phi(cfg.phi)
    W = _parse_potential(cfg, g, nl)
    ex = make_exhaustion(g, g.root, _parse_radii(cfg), max_vertices=cfg.max_vertices)
    probes = _parse_probes(cfg, g, ex)
    f = _parse_f(cfg)
    outdir = _prepare_out(cfg, {"probes_resolved": list(probes), "radii_resolved": list(ex.radii)})
    _require_positive("tol", cfg.tol)
    est = extended_resolvent(g, W, nl, f, ex, probes=probes, opts=cfg.solve_options())
    converged = {p: est.stabilization_error(p) <= cfg.tol for p in est.probes}
    if outdir:
        _write_trace(outdir, CSV_HEADER, est.csv_rows())
        _write_json(outdir, "result.json", {
            "final": {str(p): est.final[p] for p in est.probes},
            "converged": {str(p): converged[p] for p in est.probes},
            "all_converged": all(converged.values()),
        })
    for p in est.probes:
        tag = "converged" if converged[p] else "still increasing"
        print(f"probe {p}: estimate {est.final[p]:.10g} ({tag})")
    return EXIT_OK


def _run_classify(cfg: RunConfig) -> int:
    g = _load_graph(cfg)
    nl = parse_phi(cfg.phi)
    W = _parse_potential(cfg, g, nl)
    ex = make_exhaustion(g, g.root, _parse_radii(cfg), max_vertices=cfg.max_vertices)
    probes = _parse_probes(cfg, g, ex)
    grid = _parse_alpha_grid(cfg)
    th = cfg.thresholds()
    outdir = _prepare_out(cfg, {"probes_resolved": list(probes),
                                "radii_resolved": list(ex.radii),
                                "alpha_resolved": list(grid)})
    report = classify(g, W, nl, ex, alpha_grid=grid, probes=probes, thresholds=th,
                      opts=cfg.solve_options())
    if outdir:
        _write_trace(outdir, CLASSIFY_CSV_HEADER, report.csv_rows())
        _write_json(outdir, "result.json", report.to_json_doc())
    print(f"verdict: {report.verdict}")
    for est in report.estimates:
        root = est.probes[0]
        print(
            f"  alpha {est.alpha:g}: defect at root {est.final[root]:.6g}, "
            f"stabilization {est.stabilization_error(root):.3g}"
        )
    return EXIT_OK


def _run_path_criterion(cfg: RunConfig) -> int:
    g = _load_graph(cfg)
    nl = parse_phi(cfg.phi)
    W = _parse_potential(cfg, g, nl)
    alpha = _parse_alpha_single(cfg)
    path = _parse_path(cfg, g)
    rep = path_criterion(g, W, nl, path, alpha, cfg.terms)
    rows = [
        (alpha, k + 1, k + 1, k + 2, rep.vertices[k + 1],
         rep.partial_sums[k], rep.terms[k], 0, 0.0)
        for k in range(len(rep.terms))
    ]
    outdir = _prepare_out(cfg)
    if outdir:
        _write_trace(outdir, CLASSIFY_CSV_HEADER, rows)
        _write_json(outdir, "result.json", {
            "alpha": rep.alpha,
            "terms": len(rep.terms),
            "partial_sum": rep.final_sum,
            "diagnosis": rep.diagnosis,
        })
    print(f"S_{len(rep.terms)} = {rep.final_sum:.10g}")
    print(rep.diagnosis)
    return EXIT_OK


def _run_verify_liouville(cfg: RunConfig) -> int:
    g = _load_graph(cfg)
    nl = parse_phi(cfg.phi)
    W = _parse_potential(cfg, g, nl)
    ex = make_exhaustion(g, g.root, _parse_radii(cfg), max_vertices=cfg.max_vertices)
    probes = _parse_probes(cfg, g, ex)
    alpha = _parse_alpha_single(cfg)
    outdir = _prepare_out(cfg, {"probes_resolved": list(probes),
                                "radii_resolved": list(ex.radii)})
    rep = verify_liouville(g, W, nl, ex, alpha, probes=probes,
                           opts=cfg.solve_options(), seed=cfg.seed)
    rows = rep.defect.csv_rows()
    last = rep.defect.resolvent.steps[-1]
    rows.extend(
        (alpha, last.n + 1, last.radius, last.set_size, p,
         rep.residuals[p], 0.0, 0, rep.residuals[p])
        for p in rep.probes
    )
    if outdir:
        _write_trace(outdir, CLASSIFY_CSV_HEADER, rows)
        _write_json(outdir, "result.json", {
            "alpha": rep.alpha,
            "w": {str(p): rep.w[p] for p in rep.probes},
            "residual": {str(p): rep.residuals[p] for p in rep.probes},
            "max_w": rep.max_w,
            "max_residual": rep.max_residual,
            "bounds_ok": rep.bounds_ok,
            "residual_ok": rep.residual_ok,
            "skipped": list(rep.skipped),
        })
    print(
        f"w in [0, {rep.alpha:g}]: {'ok' if rep.bounds_ok else 'VIOLATED'}; "
        f"max w = {rep.max_w:.6g}"
    )
    print(
        f"equation residual at {len(rep.probes)} interior probes: "
        f"max {rep.max_residual:.3g} "
        f"({'ok' if rep.residual_ok else 'ABOVE'} bound {rep.residual_bound:.3g})"
    )
    if rep.skipped:
        print(f"skipped non-interior probes: {list(rep.skipped)}")
    return EXIT_OK


def _run_gen(cfg: RunConfig) -> int:
    spec = cfg.family or cfg.graph
    if not spec:
        raise CliError("--family is required for gen")
    if not cfg.out:
        raise CliError("--out is required for gen")
    g = _generate(spec, cfg.seed)
    verts = None
    if not isinstance(g, ExplicitGraph):
        if not cfg.radii:
            raise CliError("procedural families need --radii to pick a finite ball")
        verts = ball(g, g.root, _parse_radii(cfg)[0], max_vertices=cfg.max_vertices)
    _prepare_out(cfg)
    path = os.path.join(cfg.out, "graph.json")
    n_verts, n_edges = write_graph_json(path, g, verts)
    print(f"wrote {path} ({n_verts} vertices, {n_edges} edges)")
    return EXIT_OK


_RUNNERS = {
    "validate": _run_validate,
    "solve": _run_solve,
    "resolve": _run_resolve,
    "classify": _run_classify,
    "path-criterion": _run_path_criterion,
    "verify-liouville": _run_verify_liouville,
    "gen": _run_gen,
}


def run(config: RunConfig) -> int:
    """Execute a resolved configuration; returns the process exit code.

    A SolveError ends the run with exit 3.  With --out, trace.csv then
    holds the rows of the completed steps (its ``partial``) under the
    mode's header, and result.json records the error.
    """
    runner = _RUNNERS.get(config.mode)
    if runner is None:
        raise CliError(f"unknown mode {config.mode!r}")
    try:
        return runner(config)
    except SolveError as exc:
        if config.out:
            header = CSV_HEADER if config.mode == "resolve" else CLASSIFY_CSV_HEADER
            _write_trace(config.out, header, exc.partial.csv_rows() if exc.partial else [])
            _write_json(config.out, "result.json", {"converged": False, "error": str(exc)})
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NO_CONVERGENCE


def main(argv=None) -> int:
    parser = build_parser()
    ns = parser.parse_args(argv)
    try:
        cfg = _merge_config(ns)
        return run(cfg)
    except (CliError, GraphError, RangeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
