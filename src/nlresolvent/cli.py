"""Batch command-line driver.

Subcommands: validate, solve, resolve, classify, path-criterion,
verify-liouville, gen.  Each run can emit three artifacts into --out:
``config.json`` (the fully resolved configuration, seed included),
``trace.csv`` (per-step rows), and ``result.json`` (the summary; every
number in it also appears in the trace, so results are auditable
against the raw rows).  ``run`` alone writes them, once the mode's
runner has returned its exit code, trace rows and result document.

``main`` parses with a parser of the invoked mode alone, which fails on
a bad value and prints ``MODE -h`` as ``build_parser()``'s subcommand
does; arguments that it does not know send the command line to
``build_parser()``, the parser of every mode, which reports them.

Exit codes: 0 for a completed run (an inconclusive verdict is a
result, not a failure), 2 for configuration and input errors, 3 when
a solve that the mode depends on did not converge.  An error exit 2
leaves no --out directory; an --out that names an existing file is
such an error, found before the run computes.  resolve, classify and
verify-liouville check their own parameters, then (``_exhaustion``) the
graph, phi and W, then --radii and --probes, and only then build the
exhaustion.  On exit 3 the trace keeps the rows of the steps that
completed, so partial traces stay reproducible, and ``result.json``
holds ``{"converged": false, "error": ...}``.

CSV numbers are written with 17 significant digits and '.' decimal
regardless of locale; identical configuration and seed reproduce
trace.csv byte for byte.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import os
import shutil
import sys
from dataclasses import asdict, dataclass
from typing import get_args, get_type_hints

from .completeness import (
    CLASSIFY_CSV_HEADER,
    DEFAULT_ALPHA_GRID,
    Thresholds,
    _alpha,
    _alpha_grid,
    classify,
    default_probes,
    large_potential,
    path_criterion,
    verify_liouville,
)
from .families import generate
from .graphs import (
    ExplicitGraph,
    GraphError,
    VertexFunction,
    WeightedGraph,
    _ball,
    _write_graph,
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
from .solver import (
    Potential, SolveError, SolveOptions, _Ratio, _require_positive, solve_dirichlet,
)

__all__ = ["RunConfig", "build_parser", "run", "main"]

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NO_CONVERGENCE = 3

# the alpha of path-criterion and verify-liouville when --alpha is not given
_ALPHA_DEFAULT = 1.0


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
    sweep_tol: float = SolveOptions.sweep_tol
    residual_tol: float = SolveOptions.residual_tol
    max_sweeps: int = SolveOptions.max_sweeps
    complete_tol: float = Thresholds.complete_tol
    stabilization_tol: float = Thresholds.stabilization_tol
    incomplete_floor: float = Thresholds.incomplete_floor
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

_MODES = {
    "validate": "check graph axioms and report failures",
    "solve": "one Dirichlet solve on an explicit vertex set",
    "resolve": "resolvent estimate along a ball exhaustion",
    "classify": "conservation-defect verdict over an alpha grid",
    "path-criterion": "term sums m*phi(alpha*W)/deg along a path",
    "verify-liouville": "equation check for w = alpha - R(alpha W)",
    "gen": "write a generated family instance as graph.json",
}


def _formatter():
    # every add_argument builds a formatter: read the terminal width once for all
    return functools.partial(argparse.HelpFormatter, width=shutil.get_terminal_size().columns - 2)


def _add_arguments(p: argparse.ArgumentParser, mode: str) -> None:
    """The flags of ``mode`` on p, a parser that stores only given flags."""
    p.set_defaults(mode=mode)
    p.add_argument("--graph", help="family spec: lattice-z (or lattice_z, z), "
                   "finite-path:N, complete:N, star:K, birth-death:RATE, tree:K, or "
                   "random-sparse:n=N,density=D[,wmin=A][,wmax=B][,seed=S]; or file:PATH")
    p.add_argument("--phi", help=f"identity | power:P | log | atan (default {RunConfig.phi})")
    p.add_argument("--W", help="const:C | degm:C (deg/m + C) | large-potential "
                   f"(default {RunConfig.W})")
    p.add_argument("--config", help="JSON file of option values; explicit flags win")
    p.add_argument("--seed", type=int, help="seed for probe selection and for a "
                   f"random-sparse family whose spec has no seed= (default {RunConfig.seed})")
    p.add_argument("--out", help="directory for config.json/trace.csv/result.json")
    p.add_argument("--max-vertices", type=int, dest="max_vertices",
                   help="materialization cap (overrides NLRESOLVENT_MAX_VERTICES)")
    p.add_argument("--sweep-tol", type=float, dest="sweep_tol")
    p.add_argument("--residual-tol", type=float, dest="residual_tol")
    p.add_argument("--max-sweeps", type=int, dest="max_sweeps",
                   help="cap on passes over each solve's vertex set: "
                   "conjugate-gradient iterations of the Newton solver, or one "
                   "elimination per Newton step where the set spans a forest "
                   f"(default {SolveOptions.max_sweeps})")

    if mode == "validate":
        p.add_argument("--radii", help="probe ball radius for procedural graphs (first value)")
    elif mode == "solve":
        p.add_argument("--f", help="delta:X | delta:X,SCALE | const:C | zero")
        p.add_argument("--U", help="all | ball:R | list:1,2,3")
    elif mode == "resolve":
        p.add_argument("--f", help="delta:X | delta:X,SCALE | const:C | zero")
        p.add_argument("--radii", help="comma list 25,50,100 or doubling:START:STEPS")
        p.add_argument("--probes", help=f"auto | root | list:0,5,7 (default {RunConfig.probes})")
        p.add_argument("--tol", type=float,
                       help=f"per-probe increment tolerance (default {RunConfig.tol:g})")
    elif mode == "classify":
        p.add_argument("--radii", help="comma list or doubling:START:STEPS")
        p.add_argument("--alpha", help="comma list of alphas (default "
                       f"{','.join(f'{a:g}' for a in DEFAULT_ALPHA_GRID)})")
        p.add_argument("--probes", help=f"auto | root | list:... (default {RunConfig.probes})")
        p.add_argument("--complete-tol", type=float, dest="complete_tol")
        p.add_argument("--stabilization-tol", type=float, dest="stabilization_tol")
        p.add_argument("--incomplete-floor", type=float, dest="incomplete_floor")
    elif mode == "path-criterion":
        p.add_argument("--alpha", help=f"single alpha in (0, 1] (default {_ALPHA_DEFAULT:g})")
        p.add_argument("--terms", type=int, help=f"number of terms N (default {RunConfig.terms})")
        p.add_argument("--path", help="ray (greedy smallest-id walk from root) | "
                       f"list:0,1,2,... (default {RunConfig.path})")
    elif mode == "verify-liouville":
        p.add_argument("--radii", help="comma list or doubling:START:STEPS")
        p.add_argument("--alpha", help=f"single alpha > 0 (default {_ALPHA_DEFAULT:g})")
        p.add_argument("--probes", help=f"auto | root | list:... (default {RunConfig.probes})")
    else:  # gen
        p.add_argument("--family", help="family spec, as for --graph")
        p.add_argument("--radii", help="ball radius to materialize a procedural family")


def build_parser() -> argparse.ArgumentParser:
    """The parser of every mode, as a subcommand each."""
    fmt = _formatter()
    parser = argparse.ArgumentParser(
        prog="nlresolvent",
        description="Dirichlet solves, resolvent estimates, and completeness "
                    "classification on weighted graphs.",
        formatter_class=fmt,
    )
    sub = parser.add_subparsers(dest="mode", required=True, metavar="|".join(_MODES))
    for mode, help_ in _MODES.items():
        _add_arguments(sub.add_parser(mode, help=help_, argument_default=argparse.SUPPRESS,
                                      formatter_class=fmt), mode)
    return parser


_TYPE_NAMES = {str: "a string", int: "an integer", float: "a number", type(None): "null"}


def _check_config_value(key: str, val, hint) -> None:
    """Raise CliError unless a config file's val has the type of its RunConfig
    field, whose annotation is hint; an int is a valid float, a bool is no number."""
    types = get_args(hint) or (hint,)
    fits = isinstance(val, types) or (float in types and isinstance(val, int))
    if isinstance(val, bool) or not fits:
        want = " or ".join(_TYPE_NAMES[t] for t in types)
        raise CliError(f"config key {key!r} must be {want}, got {json.dumps(val)}")


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
        fields = get_type_hints(RunConfig)
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
            _check_config_value(key, val, fields[key_n])
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
    return generate(spec, cfg.seed)


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
        return Potential(_Ratio(c, g), W0=c)
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
        return _Ratio(c)
    raise CliError(f"unknown f spec {spec!r}")


def _numbers(text: str, kind: type, what: str, spec) -> list:
    """The comma list ``text`` as ``kind`` values; CliError naming ``spec`` otherwise."""
    try:
        return [kind(v) for v in text.split(",")]
    except ValueError:
        raise CliError(f"bad {what} list {spec!r}") from None


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
        return _numbers(rest, int, "vertex", spec)
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
    return _numbers(spec, int, "radii", spec)


def _parse_probes(cfg: RunConfig) -> str | tuple[int, ...]:
    """The --probes spec: "auto", "root" or the listed vertices."""
    spec = (cfg.probes or "auto").strip()
    if spec in ("auto", "root"):
        return spec
    head, _, rest = spec.partition(":")
    if head == "list":
        return tuple(dict.fromkeys(_numbers(rest, int, "probe", spec)))
    raise CliError(f"unknown probes spec {spec!r}")


def _parse_alpha_grid(cfg: RunConfig) -> tuple[float, ...]:
    if cfg.alpha is None:
        return _alpha_grid(None)
    return _alpha_grid(_numbers(str(cfg.alpha), float, "alpha", cfg.alpha))


def _parse_alpha_single(cfg: RunConfig) -> float:
    if cfg.alpha is None:
        return _ALPHA_DEFAULT
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
        return _numbers(rest, int, "path", spec)
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


# ---------------------------------------------------------------- modes

def _problem(cfg: RunConfig) -> tuple[WeightedGraph, Nonlinearity, Potential]:
    """The graph, phi and W of the run."""
    g = _load_graph(cfg)
    nl = parse_phi(cfg.phi)
    return g, nl, _parse_potential(cfg, g, nl)


def _exhaustion(cfg: RunConfig, resolved: dict):
    """The graph, phi and W of the run, its exhaustion and the probes
    --probes names on it, the latter two recorded in ``resolved``."""
    g, nl, W = _problem(cfg)
    radii = _parse_radii(cfg)
    probes = _parse_probes(cfg)
    ex = make_exhaustion(g, g.root, radii, max_vertices=cfg.max_vertices)
    if probes == "auto":
        probes = default_probes(ex, seed=cfg.seed)
    elif probes == "root":
        probes = (ex.root,)
    resolved.update(probes_resolved=list(probes), radii_resolved=list(ex.radii))
    return g, nl, W, ex, probes


def _run_validate(cfg: RunConfig, resolved: dict) -> tuple[int, list | None, dict | None]:
    g = _load_graph(cfg)  # file graphs are fully validated on load
    if isinstance(g, ExplicitGraph):
        probe = g.vertices()
    else:
        r = _parse_radii(cfg)[0] if cfg.radii else 3
        probe = ball(g, g.root, r, max_vertices=cfg.max_vertices)
    report = validate(g, probe)
    resolved["probe_count"] = len(probe)
    print(str(report))
    return EXIT_OK if report.ok else EXIT_CONFIG, None, {
        "ok": report.ok, "failures": list(report.failures)}


def _run_solve(cfg: RunConfig, resolved: dict) -> tuple[int, list | None, dict | None]:
    g, nl, W = _problem(cfg)
    u_set = _parse_U(cfg, g)
    f = _parse_f(cfg)
    res = solve_dirichlet(g, W, nl, f, u_set, opts=cfg.solve_options())
    order = list(dict.fromkeys(u_set))
    rows = [
        (0, 0, len(order), x, res.u(x), res.u(x), res.sweeps_used, res.residual_inf)
        for x in order
    ]
    if res.converged:
        print("u = (" + ", ".join(f"{res.u(x):.4f}" for x in sorted(order)) + ")")
        print(f"sweeps {res.sweeps_used}, residual {res.residual_inf:.3g}")
    else:
        print(
            f"error: solve did not converge after {res.sweeps_used} sweeps "
            f"(residual {res.residual_inf:.3g})",
            file=sys.stderr,
        )
    return EXIT_OK if res.converged else EXIT_NO_CONVERGENCE, rows, {
        "u": {str(x): res.u(x) for x in order},
        "residual_sup": res.residual_inf,
        "sweeps": res.sweeps_used,
        "converged": res.converged,
    }


def _run_resolve(cfg: RunConfig, resolved: dict) -> tuple[int, list | None, dict | None]:
    f = _parse_f(cfg)
    _require_positive("tol", cfg.tol)
    opts = cfg.solve_options()
    g, nl, W, ex, probes = _exhaustion(cfg, resolved)
    est = extended_resolvent(g, W, nl, f, ex, probes=probes, opts=opts)
    converged = {p: est.stabilization_error(p) <= cfg.tol for p in est.probes}
    for p in est.probes:
        tag = "converged" if converged[p] else "still increasing"
        print(f"probe {p}: estimate {est.final[p]:.10g} ({tag})")
    return EXIT_OK, est.csv_rows(), {
        "final": {str(p): est.final[p] for p in est.probes},
        "converged": {str(p): converged[p] for p in est.probes},
        "all_converged": all(converged.values()),
    }


def _run_classify(cfg: RunConfig, resolved: dict) -> tuple[int, list | None, dict | None]:
    grid = _parse_alpha_grid(cfg)
    th = cfg.thresholds()
    opts = cfg.solve_options()
    resolved["alpha_resolved"] = list(grid)
    g, nl, W, ex, probes = _exhaustion(cfg, resolved)
    report = classify(g, W, nl, ex, alpha_grid=grid, probes=probes, thresholds=th, opts=opts)
    print(f"verdict: {report.verdict}")
    if report.reason:
        print(f"  {report.reason}")
    for est in report.estimates:
        p = est.probes[0]
        where = "root" if p == ex.root else f"probe {p}"
        print(
            f"  alpha {est.alpha:g}: defect at {where} {est.final[p]:.6g}, "
            f"stabilization {est.stabilization_error(p):.3g}"
        )
    return EXIT_OK, report.csv_rows(), report.to_json_doc()


def _run_path_criterion(cfg: RunConfig, resolved: dict) -> tuple[int, list | None, dict | None]:
    g, nl, W = _problem(cfg)
    alpha = _parse_alpha_single(cfg)
    path = _parse_path(cfg, g)
    rep = path_criterion(g, W, nl, path, alpha, cfg.terms)
    rows = [
        (alpha, k + 1, k + 1, k + 2, rep.vertices[k + 1],
         rep.partial_sums[k], rep.terms[k], 0, 0.0)
        for k in range(len(rep.terms))
    ]
    print(f"S_{len(rep.terms)} = {rep.final_sum:.10g}")
    print(rep.diagnosis)
    return EXIT_OK, rows, {
        "alpha": rep.alpha,
        "terms": len(rep.terms),
        "partial_sum": rep.final_sum,
        "diagnosis": rep.diagnosis,
    }


def _run_verify_liouville(cfg: RunConfig, resolved: dict) -> tuple[int, list | None, dict | None]:
    alpha = _alpha(_parse_alpha_single(cfg))
    opts = cfg.solve_options()
    g, nl, W, ex, probes = _exhaustion(cfg, resolved)
    rep = verify_liouville(g, W, nl, ex, alpha, probes=probes, opts=opts)
    rows = rep.defect.csv_rows()
    last = rep.defect.resolvent.steps[-1]
    rows.extend(
        (alpha, last.n + 1, last.radius, last.set_size, p,
         rep.residuals[p], 0.0, 0, rep.residuals[p])
        for p in rep.probes
    )
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
    return EXIT_OK, rows, {
        "alpha": rep.alpha,
        "w": {str(p): rep.w[p] for p in rep.probes},
        "residual": {str(p): rep.residuals[p] for p in rep.probes},
        "max_w": rep.max_w,
        "max_residual": rep.max_residual,
        "bounds_ok": rep.bounds_ok,
        "residual_ok": rep.residual_ok,
        "skipped": list(rep.skipped),
    }


def _run_gen(cfg: RunConfig, resolved: dict) -> tuple[int, list | None, dict | None]:
    spec = cfg.family or cfg.graph
    if not spec:
        raise CliError("--family is required for gen")
    if not cfg.out:
        raise CliError("--out is required for gen")
    g = generate(spec, cfg.seed)
    if isinstance(g, ExplicitGraph):
        write, data = write_graph_json, (g,)
    else:
        if not cfg.radii:
            raise CliError("procedural families need --radii to pick a finite ball")
        r = _parse_radii(cfg)[0]
        if r < 0:
            raise GraphError(f"radius must be >= 0, got {r}")
        # the ball as ``ball`` finds it, with the rows of all its vertices
        order, _, arrays = _ball(g, g.root, (r,), cfg.max_vertices, True, False)
        write, data = _write_graph, (order, *arrays)
    path = os.path.join(cfg.out, "graph.json")
    try:
        os.makedirs(cfg.out, exist_ok=True)
        n_verts, n_edges = write(path, *data)
    except OSError as exc:
        raise CliError(f"cannot write --out: {exc}") from exc
    print(f"wrote {path} ({n_verts} vertices, {n_edges} edges)")
    return EXIT_OK, None, None


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

    ``runner(config, resolved)`` computes and prints, records config.json's
    extra keys in ``resolved`` and returns (code, trace rows or None,
    result.json document or None); a SolveError gives exit 3, its
    ``partial``'s rows and the error.  Only then is --out written, so an
    error exit 2 leaves none (gen writes its graph.json there itself).
    An --out whose nearest existing path (itself or an ancestor) is not
    a directory is a CliError before the runner starts, and an OSError
    from making or writing --out is one too.
    """
    runner = _RUNNERS.get(config.mode)
    if runner is None:
        raise CliError(f"unknown mode {config.mode!r}")
    if config.out:
        head = config.out
        while head and not os.path.lexists(head):
            head = os.path.dirname(head)
        if head and not os.path.isdir(head):
            if head == config.out:
                raise CliError(f"--out {config.out} exists and is not a directory")
            raise CliError(f"cannot write --out: {head} is not a directory")
    resolved: dict = {}
    try:
        code, rows, result = runner(config, resolved)
    except SolveError as exc:
        print(f"error: {exc}", file=sys.stderr)
        code = EXIT_NO_CONVERGENCE
        rows = exc.partial.csv_rows() if exc.partial else []
        result = {"converged": False, "error": str(exc)}
    if config.out:
        try:
            os.makedirs(config.out, exist_ok=True)
            _write_json(config.out, "config.json", {**asdict(config), **resolved})
            if rows is not None:
                header = CSV_HEADER if config.mode in ("solve", "resolve") else CLASSIFY_CSV_HEADER
                _write_trace(config.out, header, rows)
            if result is not None:
                _write_json(config.out, "result.json", result)
        except OSError as exc:
            raise CliError(f"cannot write --out: {exc}") from exc
    return code


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    ns = rest = None
    if argv and argv[0] in _MODES:
        # a parser of the invoked mode alone: it fails as build_parser()'s
        # subcommand does, except on arguments left over, which the full
        # parser reports in its own words
        mode_parser = argparse.ArgumentParser(prog=f"nlresolvent {argv[0]}",
                                              argument_default=argparse.SUPPRESS,
                                              formatter_class=_formatter())
        _add_arguments(mode_parser, argv[0])
        ns, rest = mode_parser.parse_known_args(argv[1:])
    if ns is None or rest:
        ns = build_parser().parse_args(argv)
    try:
        cfg = _merge_config(ns)
        return run(cfg)
    except (CliError, GraphError, RangeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
