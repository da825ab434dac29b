"""Benchmark of the nlresolvent CLI on three fixed workloads.

    python3 perfbench/run.py --workload lattice-cubic --seed 0 --seconds 30 --trace 0

Run from anywhere inside a checkout; the package is imported from its
``src/`` directory.  The loop is closed, with one client: each run is a
fresh interpreter (``perfbench/child.py``) that imports the package and
calls ``nlresolvent.cli.main(argv)`` in-process, and the next run starts
only after the previous one ended and its output was checked.  Between
runs a further fresh interpreter only imports the package, for more
``setup_s`` samples.  Runs continue until ``--seconds`` would be
exceeded, with at least two.

Every output is checked against an independent oracle
(``perfbench/oracles.py``) and must be byte-identical to the first run's
output in the same session; a run fails on an unexpected exit code or
on any failed check.

Times are wall-clock times rescaled to a fixed host speed.  The host's
speed drifts by up to 1.5x within minutes, because other virtual
machines share its cores, and that drift swamps the differences the
benchmark must resolve.  Each child therefore samples the duration of a
fixed loop of dict lookups and float multiplies every 5 ms while it is
being timed (``child.SpeedProbe``),
and a time t whose interval saw a harmonic-mean probe duration p is
reported as t * PROBE_REFERENCE_S / p: the time it would have taken on
a host where the probe takes PROBE_REFERENCE_S.  The raw medians are
printed alongside.

``--trace 0`` reports the end-to-end metrics (run_s, setup_s,
peak_rss_mb).  ``--trace 1`` alternates untraced runs with runs under
the tracer (``perfbench/tracer.py``) and reports the per-layer metrics
plus ``trace.overhead_s``.  A human-readable summary comes first, and
the last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import oracles
import tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MIN_ITERATIONS = 2
HARD_STOP_S = 120.0  # no new run starts after this, so a session ends within 180 s
PROBES = 5  # the exhaustion root plus default_probes' four seeded picks
# Harmonic-mean duration of child.SpeedProbe's loop on an idle 2-vCPU
# Intel Xeon virtual machine, so rescaled times read as seconds there.
PROBE_REFERENCE_S = 2.5e-5

LATTICE_RADII, LATTICE_ALPHAS = [12, 25, 50], [0.5, 1.0, 2.0]
TREE_RADII = [4, 8, 12, 14]
GEN_RADIUS = 16


@dataclass(frozen=True)
class Workload:
    args: tuple[str, ...]  # CLI arguments; --seed (if seeded) and --out are appended
    seeded: bool
    artifact: str  # compared byte for byte across the runs of one session
    oracle: Callable[[], object]
    check: Callable[[str, object], list[str]]

    def argv(self, seed: int, outdir: str) -> list[str]:
        return [*self.args, *(["--seed", str(seed)] if self.seeded else []), "--out", outdir]


# Why these three: see perfbench/README.md.  lattice-cubic is solver-bound
# on small sets, tree-resolve mixes solves with large-set assembly and
# materialization, and tree-gen materializes and writes without solving.
WORKLOADS = {
    "lattice-cubic": Workload(
        ("classify", "--graph", "lattice-z", "--phi", "power:3", "--W", "const:1",
         "--radii", "12,25,50", "--alpha", "0.5,1,2", "--probes", "auto"),
        True, "trace.csv",
        lambda: oracles.lattice_cubic_expectation(LATTICE_RADII, LATTICE_ALPHAS),
        lambda out, exp: oracles.check_lattice_cubic(out, LATTICE_RADII, LATTICE_ALPHAS,
                                                     exp, PROBES)),
    "tree-resolve": Workload(
        ("resolve", "--graph", "tree:2", "--phi", "identity", "--W", "const:1",
         "--f", "const:1", "--radii", "4,8,12,14", "--probes", "auto"),
        True, "trace.csv",
        lambda: oracles.tree_resolve_expectation(TREE_RADII),
        lambda out, exp: oracles.check_tree_resolve(out, TREE_RADII, exp, PROBES)),
    "tree-gen": Workload(
        ("gen", "--family", "tree:2", "--radii", str(GEN_RADIUS)),
        False, "graph.json",
        lambda: None,
        lambda out, exp: oracles.check_tree_gen(out, GEN_RADIUS)),
}


class RunFailed(Exception):
    pass


class Session:
    """The runs of one benchmark invocation and what they measured."""

    def __init__(self, workload: Workload, seed: int, work: Path):
        self.workload, self.seed, self.work = workload, seed, work
        self.expected = workload.oracle()
        self.env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p))
        self.start = time.perf_counter()
        self.setup_s: list[tuple[float, float]] = []  # (raw, rescaled)
        self.reports: dict[str, list[dict]] = {"run": [], "trace": []}
        self.attempted = self.failed = 0
        self.first_digest: str | None = None
        self.first_problems: list[str] = []
        self.written = (0, 0)

    def elapsed(self) -> float:
        return time.perf_counter() - self.start

    def child(self, mode: str, argv: list[str] = ()) -> dict:
        report = self.work / "report.json"
        report.unlink(missing_ok=True)
        timeout = max(10.0, 170.0 - self.elapsed())
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "child.py"), str(report), mode, *argv],
                cwd=self.work, env=self.env, capture_output=True, text=True, timeout=timeout)
        except subprocess.TimeoutExpired:
            raise RunFailed(f"{mode} child exceeded {timeout:.0f} s") from None
        if proc.returncode != 0 or not report.exists():
            raise RunFailed(f"{mode} child exited {proc.returncode}: {proc.stderr.strip()[-500:]}")
        return json.loads(report.read_text())

    def run(self, mode: str) -> None:
        """One CLI run, checked; a failure is counted, not raised."""
        self.attempted += 1
        outdir = self.work / "out"
        shutil.rmtree(outdir, ignore_errors=True)
        try:
            # a relative --out keeps config.json, and so cli.bytes_written,
            # independent of where the checkout lives
            rep = self.child(mode, self.workload.argv(self.seed, outdir.name))
            self.setup_s.append(timed(rep, "setup"))
            self.reports[mode].append(rep)
            problems = self.verify(rep, outdir)
        except (RunFailed, OSError, ValueError, KeyError, IndexError) as exc:
            problems = [f"{type(exc).__name__}: {exc}"]
        if problems:
            self.failed += 1
            print(f"run {self.attempted} ({mode}) failed: " + "; ".join(problems[:5]),
                  file=sys.stderr)

    def verify(self, rep: dict, outdir: Path) -> list[str]:
        if rep["exit_code"] != 0:
            return [f"exit code {rep['exit_code']}, want 0"]
        files = [p for p in outdir.rglob("*") if p.is_file()]
        self.written = (sum(p.stat().st_size for p in files), len(files))
        digest = hashlib.sha256((outdir / self.workload.artifact).read_bytes()).hexdigest()
        if self.first_digest is None:
            # later runs must reproduce these bytes, so one oracle check covers them all
            self.first_problems = self.workload.check(str(outdir), self.expected)
            self.first_digest = digest
        elif digest != self.first_digest:
            return [f"{self.workload.artifact} differs from the first run of this session"]
        return self.first_problems

    def measure(self, seconds: float, traced: bool) -> None:
        modes = ["run", "trace"] if traced else ["run"]
        self.child("setup")  # warm-up: bytecode compilation and file cache, not timed
        iteration_s = 0.0
        iterations = 0
        while iterations < MIN_ITERATIONS or (
                self.elapsed() + iteration_s <= seconds and self.elapsed() < HARD_STOP_S):
            t0 = time.perf_counter()
            self.setup_s.append(timed(self.child("setup"), "setup"))
            for mode in modes:
                self.run(mode)
            iteration_s = time.perf_counter() - t0
            iterations += 1


def timed(rep: dict, phase: str) -> tuple[float, float]:
    """Raw and rescaled duration of a child's ``setup`` or ``run`` phase."""
    raw = rep[f"{phase}_s"]
    return raw, raw * PROBE_REFERENCE_S / rep[f"{phase}_probe_s"]


def tail_percentile(values: list[float]) -> tuple[float, float] | None:
    """Highest nearest-rank percentile above the median with >= 10 values beyond it."""
    v = sorted(values)
    i = len(v) - 11
    if i < 0 or 2 * (i + 1) <= len(v):
        return None
    return 100.0 * (i + 1) / len(v), v[i]


def end_to_end(s: Session) -> tuple[dict, list[str]]:
    runs = s.reports["run"]
    raw, run_s = zip(*(timed(r, "run") for r in runs))
    setup_raw, setup_s = zip(*s.setup_s)
    metrics = {
        "run_s": (statistics.median(run_s), "s"),
        "setup_s": (statistics.median(setup_s), "s"),
        "peak_rss_mb": (statistics.median(r["peak_rss_kib"] / 1024.0 for r in runs), "MiB"),
    }
    tail = tail_percentile(run_s)
    tail_note = (f"p{tail[0]:.0f} {tail[1]:.4f} s" if tail
                 else "no percentile above it has 10 runs beyond it")
    notes = [f"run_s: median of {len(run_s)} runs, {statistics.median(raw):.4f} s unscaled; "
             f"{tail_note}",
             f"setup_s: median of {len(setup_s)} fresh-interpreter imports, "
             f"{statistics.median(setup_raw):.4f} s unscaled",
             f"peak_rss_mb: median of {len(runs)} runs"]
    return metrics, notes


def per_layer(s: Session) -> tuple[dict, list[str]]:
    traces = [r["trace"] for r in s.reports["trace"]]
    per_run = [tracer.layer_metrics(t) for t in traces]
    metrics = {}
    for name in per_run[0]:
        unit = unit_of(name)
        average = statistics.median_low if unit == "count" else statistics.median
        metrics[name] = (average(m[name] for m in per_run), unit)
    metrics["cli.bytes_written"] = (s.written[0], "bytes")
    metrics["cli.files_written"] = (s.written[1], "count")
    metrics["trace.overhead_s"] = (
        statistics.median(timed(r, "run")[1] for r in s.reports["trace"])
        - statistics.median(timed(r, "run")[1] for r in s.reports["run"]), "s")
    counts = [k for k in per_run[0] if unit_of(k) == "count"]
    steady = all(m[k] == per_run[0][k] for m in per_run for k in counts)
    absent = sorted(set().union(*(t["absent"] for t in traces)))
    notes = [f"median of {len(per_run)} traced runs; counts "
             f"{'repeat exactly' if steady else 'DIFFER'} between them",
             f"absent spans: {', '.join(absent) if absent else 'none'}"]
    return metrics, notes


def unit_of(name: str) -> str:
    if name.endswith(("_s", "_s_max")):
        return "s"
    if name.endswith(("_ratio", "_per_vertex", "_per_update")):
        return "ratio"
    return "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "nlresolvent" / "cli.py").is_file():
        print(f"error: no package at {ROOT / 'src' / 'nlresolvent'}; "
              "run the benchmark inside a checkout of the repository", file=sys.stderr)
        return 2

    work = ROOT / ".perfbench" / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        session = Session(WORKLOADS[args.workload], args.seed, work)
        session.measure(args.seconds, bool(args.trace))
        if not session.reports["trace" if args.trace else "run"]:
            print("error: no run completed", file=sys.stderr)
            return 1
        if args.trace:
            metrics, notes = per_layer(session)
            spans = ROOT / ".perfbench" / f"spans-{args.workload}-seed{args.seed}.json"
            spans.write_text(json.dumps(session.reports["trace"][-1]["trace"]))
            notes.append(f"spans of the last traced run: {spans.relative_to(ROOT)}")
        else:
            metrics, notes = end_to_end(session)
    except RunFailed as exc:  # the package cannot even be imported
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    correct = session.failed == 0
    print(f"{args.workload} seed {args.seed}: {session.attempted} runs, {session.failed} failed, "
          f"failed_ratio {session.failed / session.attempted:.4g} ratio")
    for name, (value, unit) in metrics.items():
        shown = f"{value:14.6g}" if isinstance(value, float) else f"{value:14d}"
        print(f"  {name:36s} {shown} {unit}")
    for note in notes:
        print(f"  ({note})")
    print(json.dumps({
        "correct": correct,
        "attempted": session.attempted,
        "failed": session.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
