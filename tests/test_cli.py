"""CLI behavior: exit codes, artifacts, determinism, config merging."""

import argparse
import json
import math
import os
import re
import shutil
import subprocess
import sys
from dataclasses import asdict

import pytest

from nlresolvent import (
    GraphError,
    Potential,
    ProceduralGraph,
    ball,
    classify,
    generate,
    graph_from_json,
    graph_to_json,
    identity,
    lattice_z,
    make_exhaustion,
    symmetric_tree,
    validate,
)
from nlresolvent import cli
from nlresolvent.cli import RunConfig, build_parser, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --- basic modes and exit codes ----------------------------------------------


def test_solve_prints_solution(capsys):
    code, out, _ = run_cli(capsys, "solve", "--graph", "finite-path:2",
                           "--f", "delta:0", "--U", "all")
    assert code == 0
    assert "u = (0.6667, 0.3333)" in out


def test_validate_reports_valid(capsys):
    code, out, _ = run_cli(capsys, "validate", "--graph", "finite-path:3")
    assert code == 0
    assert out.strip() == "valid"


def test_validate_rejects_asymmetric_file(tmp_path, capsys):
    doc = {
        "vertices": [{"id": 0, "m": 1.0}, {"id": 1, "m": 1.0}],
        "edges": [{"u": 0, "v": 1, "b": 1.0}, {"u": 1, "v": 0, "b": 2.0}],
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code, _, err = run_cli(capsys, "validate", "--graph", f"file:{path}")
    assert code == 2
    assert "symmetry at (0,1)" in err


def test_solve_starved_of_sweeps_exits_3_with_artifacts(tmp_path, capsys):
    out_dir = tmp_path / "run"
    code, _, err = run_cli(capsys, "solve", "--graph", CYCLIC,
                           "--f", "const:1", "--U", "all",
                           "--max-sweeps", "3", "--out", str(out_dir))
    assert code == 3
    assert "did not converge" in err
    # partial artifacts must still land for repro
    assert (out_dir / "config.json").is_file()
    assert (out_dir / "trace.csv").is_file()
    result = json.loads((out_dir / "result.json").read_text())
    assert result["converged"] is False
    assert result["sweeps"] == 3


# a graph with cycles, so that its Newton steps run conjugate gradients
CYCLIC = "random-sparse:n=60,density=0.06,seed=0"


# an exhaustion of CYCLIC whose step 0 (radius 1, 7 vertices) converges
# and whose step 1 (radius 40, all 60) runs out of sweeps; the completed
# step's rows must equal those of a run that stops at radius 1 (for
# verify-liouville: the defect rows classify writes for it)
@pytest.mark.parametrize("mode, args, ref_mode", [
    ("resolve", ("--f", "delta:0"), "resolve"),
    ("classify", ("--alpha", "1"), "classify"),
    ("verify-liouville", ("--alpha", "1"), "classify"),
], ids=["resolve", "classify", "verify-liouville"])
def test_exit_3_keeps_completed_steps(tmp_path, capsys, mode, args, ref_mode):
    common = ("--graph", CYCLIC, "--max-sweeps", "8", *args)
    code, _, _ = run_cli(capsys, mode, *common, "--radii", "1,40",
                         "--out", str(tmp_path / "cut"))
    assert code == 3
    code, _, _ = run_cli(capsys, ref_mode, *common, "--radii", "1",
                         "--out", str(tmp_path / "step0"))
    assert code == 0
    rows = [(d / "trace.csv").read_text().splitlines()[1:]
            for d in (tmp_path / "cut", tmp_path / "step0")]
    assert rows[0] and rows[0] == rows[1]


@pytest.mark.parametrize("mode, args", [
    ("resolve", ("--f", "delta:0")),
    ("classify", ("--alpha", "1")),
    ("verify-liouville", ("--alpha", "1")),
], ids=["resolve", "classify", "verify-liouville"])
def test_exit_3_writes_result_json(tmp_path, capsys, mode, args):
    out_dir = tmp_path / "cut"
    code, _, err = run_cli(capsys, mode, "--graph", CYCLIC, "--max-sweeps", "8",
                           *args, "--radii", "1,40", "--out", str(out_dir))
    assert code == 3
    result = json.loads((out_dir / "result.json").read_text())
    assert result == {"converged": False, "error": err.strip().removeprefix("error: ")}
    assert "did not converge" in result["error"]
    # the keys the runner resolved before the failed solve still reach config.json
    config = json.loads((out_dir / "config.json").read_text())
    assert config["probes_resolved"] == [0]
    assert config["radii_resolved"] == [1, 40]
    if mode == "classify":
        assert config["alpha_resolved"] == [1.0]


def test_gradient_norm_underflowing_to_0_is_a_solve_failure(capsys):
    # g = -1e-170 on every vertex: g @ g underflows to 0 while g does not,
    # and a residual_tol of 1e-300 asks for further Newton steps
    code, _, err = run_cli(capsys, "resolve", "--graph", "lattice-z", "--f", "const:1e-170",
                           "--radii", "3,6", "--residual-tol", "1e-300", "--probes", "root")
    assert (code, err) == (3, "error: solve did not converge at exhaustion step 0 (radius 3, "
                              "7 vertices): residual 1.84e-186 after 3 sweeps\n")


def test_u_all_on_procedural_graph_is_config_error(capsys):
    code, _, err = run_cli(capsys, "solve", "--graph", "lattice-z",
                           "--f", "const:1", "--U", "all")
    assert code == 2
    assert "ball:R" in err


def test_vertex_cap_maps_to_config_error(capsys):
    code, _, err = run_cli(capsys, "solve", "--graph", "lattice-z",
                           "--f", "const:1", "--U", "ball:99",
                           "--max-vertices", "10")
    assert code == 2
    assert "max_vertices" in err or "cap" in err


@pytest.mark.parametrize("cap", ["0", "-3"])
def test_non_positive_max_vertices_exits_2(capsys, cap):
    code, _, err = run_cli(capsys, "resolve", "--graph", "lattice-z", "--f", "const:1",
                           "--radii", "0,1", "--max-vertices", cap)
    assert code == 2
    assert err == f"error: max_vertices must be positive, got {cap}\n"


@pytest.mark.parametrize("argv, probe, radius", [
    (("classify", "--graph", "lattice-z", "--radii", "5,10,20", "--probes", "list:0,500",
      "--alpha", "1"), 500, 20),
    (("classify", "--graph", "star:3", "--radii", "1,2", "--probes", "list:99"), 99, 2),
    (("resolve", "--graph", "lattice-z", "--radii", "5,10", "--f", "const:1",
      "--probes", "list:500"), 500, 10),
    (("verify-liouville", "--graph", "lattice-z", "--radii", "2,5", "--probes", "list:3,-6"),
     -6, 5),
], ids=["classify", "not-a-vertex", "resolve", "verify-liouville"])
def test_probe_outside_the_largest_ball_exits_2(tmp_path, capsys, argv, probe, radius):
    code, out, err = run_cli(capsys, *argv, "--out", str(tmp_path / "run"))
    assert code == 2
    assert out == ""
    assert err == f"error: probe {probe} is outside the largest ball, of radius {radius} around 0\n"
    assert not (tmp_path / "run").exists()


# input errors found only after the exhaustion is built: the run exits 2
# and leaves no --out directory, not one holding a lone config.json
@pytest.mark.parametrize("argv, err", [
    (("classify", "--graph", "lattice-z", "--W", "large-potential", "--phi", "atan",
      "--radii", "5"),
     "2.0 is outside ran atan = (-1.5707963267948966, 1.5707963267948966)"),
    (("verify-liouville", "--graph", "lattice-z", "--W", "large-potential", "--phi", "atan",
      "--radii", "5"),
     "2.0 is outside ran atan = (-1.5707963267948966, 1.5707963267948966)"),
    (("resolve", "--graph", "lattice-z", "--f", "const:-1", "--radii", "5"),
     "extended resolvent needs f >= 0, got f(0) = -1.0"),
], ids=["classify-W-range", "verify-liouville-W-range", "resolve-negative-f"])
def test_input_error_after_the_exhaustion_leaves_no_out_dir(tmp_path, capsys, argv, err):
    code, out, stderr = run_cli(capsys, *argv, "--out", str(tmp_path / "run"))
    assert code == 2
    assert out == ""
    assert stderr == f"error: {err}\n"
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("argv", [
    ("validate", "--graph", "finite-path:3"),
    ("classify", "--graph", "lattice-z", "--radii", "3,6", "--alpha", "1"),
    ("gen", "--family", "tree:2", "--radii", "2"),
], ids=["validate", "classify", "gen"])
def test_out_naming_a_file_exits_2_before_the_run(tmp_path, capsys, argv):
    target = tmp_path / "afile"
    target.write_bytes(b"keep\n")
    code, out, err = run_cli(capsys, *argv, "--out", str(target))
    assert (code, out) == (2, "")
    assert err == f"error: --out {target} exists and is not a directory\n"
    assert target.read_bytes() == b"keep\n"


@pytest.mark.parametrize("argv, under", [
    (("validate", "--graph", "finite-path:3"), ("sub",)),
    (("resolve", "--graph", "tree:2", "--f", "const:1", "--radii", "2,4"), ("sub", "x")),
], ids=["validate", "resolve"])
def test_out_under_a_file_exits_2_before_the_run(tmp_path, capsys, argv, under):
    target = tmp_path / "afile"
    target.write_bytes(b"keep\n")
    code, out, err = run_cli(capsys, *argv, "--out", str(target.joinpath(*under)))
    assert (code, out) == (2, "")
    assert err == f"error: cannot write --out: {target} is not a directory\n"
    assert target.read_bytes() == b"keep\n"


def test_out_that_cannot_be_made_exits_2_with_one_error_line(tmp_path, capsys):
    (tmp_path / "afile").write_bytes(b"")
    code, _, err = run_cli(capsys, "validate", "--graph", "finite-path:3",
                           "--out", str(tmp_path / "afile" / "run"))
    assert code == 2
    assert err.startswith("error: cannot write --out: ")
    assert err.count("\n") == 1


def test_classify_labels_a_first_probe_other_than_the_root(capsys):
    code, out, _ = run_cli(capsys, "classify", "--graph", "birth-death:4", "--radii", "5,10",
                           "--alpha", "1", "--probes", "list:3,0")
    assert code == 0
    assert "  alpha 1: defect at probe 3 " in out
    assert "root" not in out


# a slowly decaying defect moves little between close radii: an explicit
# supersolution proves d* <= 2.4/sqrt(R) for this problem, so it is complete
# at infinity, yet the last two steps changed the defect by only 8.9e-7
WRONG_INCOMPLETE = ("classify", "--graph", "lattice-z", "--phi", "power:5", "--W", "const:1.26",
                    "--alpha", "1", "--probes", "root", "--radii")


@pytest.mark.parametrize("radii, why", [
    ("6000,6001,6002", "no scheduled radius is <= 6002/2"),
    ("3000,6000,6001,6002", "the defect moved by 0.00441 > stabilization_tol between radii "
                            "3000 and 6002"),
], ids=["no-half-radius", "moved-since-half"])
def test_incomplete_needs_a_defect_stable_since_half_the_radius(tmp_path, capsys, radii, why):
    code, out, _ = run_cli(capsys, *WRONG_INCOMPLETE, radii, "--out", str(tmp_path / "run"))
    assert code == 0
    assert out.startswith(f"verdict: inconclusive\n  not incomplete-at-infinity: {why}")
    doc = json.loads((tmp_path / "run" / "result.json").read_text())
    assert doc["verdict"] == "inconclusive"
    assert set(doc) == {"alpha", "defect", "stabilization", "verdict", "thresholds", "note"}
    assert doc["stabilization"]["1.0"]["0"] == pytest.approx(8.88e-7, rel=1e-3)


def test_unknown_phi_spec_exits_2(capsys):
    code, _, err = run_cli(capsys, "solve", "--graph", "finite-path:2",
                           "--phi", "cosh", "--f", "delta:0", "--U", "all")
    assert code == 2
    assert "cosh" in err


# a NaN threshold or tolerance used to pass every comparison it met and
# change the outcome silently; a NaN alpha was reported as bad data f
@pytest.mark.parametrize("argv, name", [
    (("classify", "--alpha", "1", "--stabilization-tol", "nan"), "stabilization_tol"),
    (("classify", "--alpha", "nan"), "alpha"),
    (("resolve", "--f", "const:1", "--tol", "nan"), "tol"),
    (("resolve", "--f", "const:1", "--residual-tol", "nan"), "residual_tol"),
], ids=["stabilization-tol", "alpha", "tol", "residual-tol"])
def test_non_finite_parameter_exits_2_naming_it(capsys, argv, name):
    code, _, err = run_cli(capsys, *argv, "--graph", "birth-death:4",
                           "--radii", "5,10", "--probes", "root")
    assert code == 2
    assert err.startswith(f"error: {name} ")


# parameters are checked before the exhaustion is built, so a bad one costs
# no materialization (these runs would build 131,071 vertices first)
@pytest.mark.parametrize("argv, name", [
    (("resolve", "--f", "const:1", "--residual-tol", "nan"), "residual_tol"),
    (("resolve", "--f", "const:1", "--tol", "nan"), "tol"),
    (("resolve", "--f", "const:1", "--max-sweeps", "0"), "max_sweeps"),
    (("classify", "--alpha", "nan"), "alpha"),
    (("classify", "--stabilization-tol", "nan"), "stabilization_tol"),
    (("classify", "--sweep-tol", "-1"), "sweep_tol"),
    (("verify-liouville", "--alpha", "nan"), "alpha"),
    (("verify-liouville", "--residual-tol", "0"), "residual_tol"),
    (("resolve", "--f", "const:1", "--probes", "bogus"), "unknown probes spec"),
    (("classify", "--probes", "list:1,x"), "bad probe list"),
], ids=["residual-tol", "tol", "max-sweeps", "alpha", "stabilization-tol", "sweep-tol",
        "liouville-alpha", "liouville-residual-tol", "probes", "probe-list"])
def test_bad_parameter_exits_2_before_the_exhaustion(monkeypatch, tmp_path, capsys, argv, name):
    def never(*args, **kwargs):
        raise AssertionError("make_exhaustion ran before the parameters were checked")

    monkeypatch.setattr(cli, "make_exhaustion", never)
    mode, *args = argv
    code, _, err = run_cli(capsys, mode, "--probes", "root", *args, "--graph", "tree:2",
                           "--radii", "16", "--out", str(tmp_path / "run"))
    assert code == 2
    assert err.startswith(f"error: {name} ")
    assert not (tmp_path / "run").exists()


def test_alpha_grid_error_is_the_library_error(capsys):
    with pytest.raises(ValueError) as lib:
        classify(symmetric_tree(2), Potential.constant(1.0), identity(),
                 make_exhaustion(symmetric_tree(2), 0, [1]), alpha_grid=[0.5, math.nan])
    code, _, err = run_cli(capsys, "classify", "--graph", "tree:2", "--radii", "1",
                           "--alpha", "0.5,nan")
    assert code == 2
    assert err == f"error: {lib.value}\n"


def test_classify_inconclusive_is_a_result_not_an_error(capsys):
    # two steps only: the stabilization window cannot clear 1e-6 yet
    code, out, _ = run_cli(capsys, "classify", "--graph", "birth-death:4",
                           "--radii", "5,10", "--alpha", "1", "--probes", "root")
    assert code == 0
    assert "verdict: inconclusive" in out


def test_resolve_smoke(tmp_path, capsys):
    out_dir = tmp_path / "run"
    code, out, _ = run_cli(capsys, "resolve", "--graph", "lattice-z",
                           "--f", "const:1", "--radii", "5,10,20,40,80",
                           "--probes", "root", "--out", str(out_dir))
    assert code == 0
    assert "probe 0" in out
    result = json.loads((out_dir / "result.json").read_text())
    assert result["final"]["0"] == pytest.approx(1.0, abs=1e-6)
    assert result["all_converged"] is True


def test_path_criterion_cli(capsys):
    code, out, _ = run_cli(capsys, "path-criterion", "--graph", "lattice-z",
                           "--terms", "40", "--alpha", "1")
    assert code == 0
    assert "S_40 = 20" in out
    assert "divergent" in out


def test_verify_liouville_cli(capsys):
    code, out, _ = run_cli(capsys, "verify-liouville", "--graph", "birth-death:4",
                           "--radii", "5,10,20,40,80", "--alpha", "1",
                           "--probes", "root")
    assert code == 0
    assert "w in [0, 1]: ok" in out
    assert "max w = 0.301515" in out


# --- artifacts ---------------------------------------------------------------


CLASSIFY_ARGS = ("classify", "--graph", "birth-death:4", "--phi", "identity",
                 "--W", "const:1", "--radii", "5,10,20,40", "--alpha", "0.5,1",
                 "--probes", "auto", "--seed", "7")


def test_trace_is_byte_identical_across_reruns(tmp_path, capsys):
    dirs = (tmp_path / "a", tmp_path / "b")
    for d in dirs:
        code, _, _ = run_cli(capsys, *CLASSIFY_ARGS, "--out", str(d))
        assert code == 0
    first = (dirs[0] / "trace.csv").read_bytes()
    second = (dirs[1] / "trace.csv").read_bytes()
    assert first == second


@pytest.mark.parametrize("phi, f, probes", [
    ("power:3", "const:1", ["--probes", "auto"]),
    # the inverse-form Newton step, phi'(0) infinite
    ("power:0.5", "delta:0", []),
], ids=["power:3", "power:0.5"])
def test_artifacts_do_not_depend_on_the_blas_thread_count(tmp_path, phi, f, probes):
    # 65,535 vertices: at sizes like this numpy's float64 dot can give other
    # last bits on one and on two OpenBLAS threads; the artifacts must not
    src = os.path.dirname(os.path.dirname(cli.__file__))
    argv = ["resolve", "--graph", "tree:2", "--phi", phi, "--W", "const:1",
            "--f", f, "--radii", "4,8,12,15", *probes]
    outs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        out = tmp_path / f"threads{threads}"
        proc = subprocess.run([sys.executable, "-m", "nlresolvent", *argv, "--out", str(out)],
                              capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr
        outs.append(out)
    for name in ("trace.csv", "result.json"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()


# per mode: the arguments and the result.json numbers that must appear
# verbatim in trace.csv
TRACEABLE = {
    "classify": (CLASSIFY_ARGS, lambda doc: [
        *doc["alpha"], *(v for per_probe in doc["defect"].values() for v in per_probe.values())]),
    "verify-liouville": (
        ("verify-liouville", "--graph", "birth-death:4", "--radii", "5,10,20,40,80",
         "--alpha", "1", "--probes", "root"),
        lambda doc: [doc["alpha"], *doc["w"].values(), *doc["residual"].values(),
                     doc["max_w"], doc["max_residual"]]),
    "path-criterion": (
        ("path-criterion", "--graph", "lattice-z", "--terms", "40"),
        lambda doc: [doc["alpha"], doc["terms"], doc["partial_sum"]]),
}


@pytest.mark.parametrize("mode", TRACEABLE)
def test_result_numbers_are_traceable_to_csv(tmp_path, capsys, mode):
    args, numbers = TRACEABLE[mode]
    out_dir = tmp_path / "run"
    code, _, _ = run_cli(capsys, *args, "--out", str(out_dir))
    assert code == 0

    lines = (out_dir / "trace.csv").read_text().splitlines()
    cells = set()
    for line in lines[1:]:
        for cell in line.split(","):
            cells.add(float(cell))

    doc = json.loads((out_dir / "result.json").read_text())
    values = numbers(doc)
    assert values and all(v in cells for v in values)
    for per_probe in doc.get("stabilization", {}).values():
        for v in per_probe.values():
            # stabilization is max |increment| over the window
            assert v in cells or any(c == -v for c in cells)


@pytest.mark.parametrize("graph, radii", [("tree:2", [2, 4, 6]), ("birth-death:4", [5, 10, 20])])
def test_degm_potential_traces_as_its_per_vertex_form(tmp_path, capsys, graph, radii):
    # --W degm:1 samples deg/m + 1 off the exhaustion's arrays; the trace
    # is the one the library writes for the per-vertex callable
    code, _, _ = run_cli(capsys, "classify", "--graph", graph, "--W", "degm:1",
                         "--radii", ",".join(map(str, radii)), "--alpha", "0.5,1",
                         "--probes", "root", "--out", str(tmp_path / "cli"))
    assert code == 0
    g = cli.generate(graph, 0)
    W = Potential.from_callable(lambda x: g.degree(x) / g.measure(x) + 1, W0=1)
    rep = classify(g, W, identity(), make_exhaustion(g, g.root, radii),
                   alpha_grid=[0.5, 1.0], probes=[g.root])
    (tmp_path / "lib").mkdir()
    cli._write_trace(str(tmp_path / "lib"), cli.CLASSIFY_CSV_HEADER, rep.csv_rows())
    assert ((tmp_path / "cli" / "trace.csv").read_bytes()
            == (tmp_path / "lib" / "trace.csv").read_bytes())


def test_config_echo_includes_seed(tmp_path, capsys):
    out_dir = tmp_path / "run"
    run_cli(capsys, *CLASSIFY_ARGS, "--out", str(out_dir))
    cfg = json.loads((out_dir / "config.json").read_text())
    assert cfg["seed"] == 7
    assert cfg["mode"] == "classify"
    assert cfg["alpha_resolved"] == [0.5, 1.0]


# mode -> (mode flags, their RunConfig fields, the keys config.json adds after
# probes_resolved and radii_resolved)
EXHAUSTION_MODES = {
    "resolve": (("--f", "const:1"), {"f": "const:1"}, {}),
    "classify": (("--alpha", "0.5,1"), {"alpha": "0.5,1"}, {"alpha_resolved": [0.5, 1.0]}),
    "verify-liouville": (("--alpha", "1"), {"alpha": "1"}, {}),
}


@pytest.mark.parametrize("probes, resolved", [
    ("auto", [0, -1, 1]),  # the root, then the seeded draw from the ball of radius 1
    ("root", [0]),
    ("list:3,-2,3", [3, -2]),  # deduplicated, in the listed order
], ids=["auto", "root", "list"])
@pytest.mark.parametrize("mode", EXHAUSTION_MODES)
def test_config_json_of_each_exhaustion_mode(tmp_path, capsys, mode, probes, resolved):
    args, fields, extra = EXHAUSTION_MODES[mode]
    out_dir = tmp_path / "run"
    code, _, _ = run_cli(capsys, mode, "--graph", "lattice-z", "--radii", "2,5",
                         "--probes", probes, *args, "--out", str(out_dir))
    assert code == 0
    want = {**asdict(RunConfig(mode=mode, graph="lattice-z", radii="2,5", probes=probes,
                               out=str(out_dir), **fields)),
            "probes_resolved": resolved, "radii_resolved": [2, 5], **extra}
    text = (out_dir / "config.json").read_text(encoding="utf-8")
    assert text == json.dumps(want, indent=2, sort_keys=True) + "\n"


# --- config files ------------------------------------------------------------


def test_config_file_supplies_values(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"graph": "finite-path:2", "f": "delta:0", "U": "all"}))
    code, out, err = run_cli(capsys, "solve", "--config", str(cfg))
    assert code == 0
    assert "u = (0.6667, 0.3333)" in out
    assert err == ""


def test_explicit_flag_overrides_config_with_warning(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"graph": "finite-path:2", "f": "delta:0",
                               "U": "all", "seed": 3}))
    code, out, err = run_cli(capsys, "solve", "--config", str(cfg), "--seed", "9")
    assert code == 0
    assert "warning: --seed = 9 overrides config value 3" in err
    assert "u = (0.6667, 0.3333)" in out


def test_flags_map_one_to_one_onto_run_config():
    subparsers = next(a for a in build_parser()._actions
                      if isinstance(a, argparse._SubParsersAction))
    dests = {a.dest for p in subparsers.choices.values() for a in p._actions
             if not isinstance(a, argparse._HelpAction)}
    assert dests - {"config"} == set(RunConfig.__dataclass_fields__) - {"mode"}


def test_help_defaults_follow_their_sources(monkeypatch, capsys):
    monkeypatch.setattr(RunConfig, "tol", 2.5e-3)
    monkeypatch.setattr(RunConfig, "probes", "root")
    monkeypatch.setattr(cli, "DEFAULT_ALPHA_GRID", (0.125, 3.0))
    monkeypatch.setattr(cli, "_ALPHA_DEFAULT", 0.75)
    monkeypatch.setattr(cli.SolveOptions, "max_sweeps", 1234)
    subparsers = next(a for a in build_parser()._actions
                      if isinstance(a, argparse._SubParsersAction))

    def help_of(mode):
        return " ".join(subparsers.choices[mode].format_help().split())

    assert "per-probe increment tolerance (default 0.0025)" in help_of("resolve")
    assert "list:0,5,7 (default root)" in help_of("resolve")
    assert "comma list of alphas (default 0.125,3)" in help_of("classify")
    assert "single alpha in (0, 1] (default 0.75)" in help_of("path-criterion")
    assert "single alpha > 0 (default 0.75)" in help_of("verify-liouville")
    assert "spans a forest (default 1234)" in help_of("solve")


def test_unknown_config_key_exits_2(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"graph": "finite-path:2", "bogus": 1}))
    code, _, err = run_cli(capsys, "solve", "--config", str(cfg))
    assert code == 2
    assert "unknown config key 'bogus'" in err


def test_config_mode_conflict_exits_2(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"mode": "classify"}))
    code, _, err = run_cli(capsys, "solve", "--config", str(cfg))
    assert code == 2
    assert "conflicts with subcommand" in err


@pytest.mark.parametrize("doc, err", [
    ({"max_sweeps": "10"}, "config key 'max_sweeps' must be an integer, got \"10\""),
    ({"probes": 5}, "config key 'probes' must be a string, got 5"),
    ({"seed": "x"}, "config key 'seed' must be an integer, got \"x\""),
    ({"residual_tol": True}, "config key 'residual_tol' must be a number, got true"),
], ids=["str-for-int", "int-for-str", "str-for-seed", "bool-for-float"])
def test_config_value_of_the_wrong_type_exits_2(tmp_path, capsys, doc, err):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc))
    code, out, got = run_cli(capsys, "resolve", "--graph", "tree:2", "--f", "const:1",
                             "--radii", "1,2", "--config", str(cfg), "--out", str(tmp_path / "run"))
    assert (code, out, got) == (2, "", f"error: {err}\n")
    assert not (tmp_path / "run").exists()


def test_config_values_of_the_field_types_are_taken(tmp_path, capsys):
    # an int stands for a float, and null for a field that allows None
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"graph": "finite-path:2", "f": "delta:0", "U": "all",
                               "residual_tol": 1, "max_vertices": None}))
    code, out, err = run_cli(capsys, "solve", "--config", str(cfg))
    assert (code, err) == (0, "")
    assert "u = (0.6667, 0.3333)" in out


# spec and input errors: each exits 2 with one error line, prints nothing
# and makes no --out directory.  A token "{tmp}" in argv names tmp_path.
@pytest.mark.parametrize("argv, err", [
    (("solve", "--config", "{tmp}/missing.json"), "cannot read config file: "),
    (("solve", "--config", "{tmp}/bad.json"), "malformed config file "),
    (("solve", "--config", "{tmp}/list.json"), "config file {tmp}/list.json must hold a JSON object"),
    (("validate",), "--graph is required for this mode"),
    (("validate", "--graph", "file:{tmp}/missing.json"), "cannot read graph file: "),
    (("validate", "--graph", "file:{tmp}/bad.json"), "malformed JSON in {tmp}/bad.json: "),
    (("classify", "--graph", "tree:2", "--radii", "2", "--W", "const:x"),
     "potential spec 'const:x' needs a numeric parameter"),
    (("classify", "--graph", "tree:2", "--radii", "2", "--W", "const:-1"),
     "potential parameter must be positive, got -1.0"),
    (("classify", "--graph", "tree:2", "--radii", "2", "--W", "bogus:1"),
     "unknown potential spec 'bogus:1'"),
    (("solve", "--graph", "finite-path:2", "--U", "all"), "--f is required for this mode"),
    (("solve", "--graph", "finite-path:2", "--U", "all", "--f", "delta:x"),
     "bad delta spec 'delta:x'"),
    (("solve", "--graph", "finite-path:2", "--U", "all", "--f", "const:x"),
     "bad const spec 'const:x'"),
    (("solve", "--graph", "finite-path:2", "--U", "all", "--f", "bogus"), "unknown f spec 'bogus'"),
    (("solve", "--graph", "finite-path:2", "--f", "const:1"), "--U is required for solve"),
    (("solve", "--graph", "finite-path:2", "--f", "const:1", "--U", "ball:x"),
     "bad ball spec 'ball:x'"),
    (("solve", "--graph", "finite-path:2", "--f", "const:1", "--U", "list:0,x"),
     "bad vertex list 'list:0,x'"),
    (("solve", "--graph", "finite-path:2", "--f", "const:1", "--U", "bogus"),
     "unknown U spec 'bogus'"),
    (("solve", "--graph", "finite-path:3", "--U", "list:0,7", "--f", "delta:0"),
     "unknown vertex 7"),
    (("resolve", "--graph", "tree:2", "--f", "const:1"), "--radii is required for this mode"),
    (("resolve", "--graph", "tree:2", "--f", "const:1", "--radii", "2,x"),
     "bad radii list '2,x'"),
    (("resolve", "--graph", "tree:2", "--f", "const:1", "--radii", "doubling:2"),
     "bad doubling spec 'doubling:2'; want doubling:START:STEPS"),
    (("resolve", "--graph", "tree:2", "--f", "const:1", "--radii", "doubling:2:x"),
     "bad doubling spec 'doubling:2:x'; want doubling:START:STEPS"),
    (("classify", "--graph", "tree:2", "--radii", "2", "--alpha", "1,x"), "bad alpha list '1,x'"),
    (("path-criterion", "--graph", "tree:2", "--alpha", "1,2"),
     "this mode takes a single alpha, got '1,2'"),
    (("verify-liouville", "--graph", "tree:2", "--radii", "2", "--alpha", "x"),
     "this mode takes a single alpha, got 'x'"),
    (("path-criterion", "--graph", "tree:2", "--path", "list:0,x"), "bad path list 'list:0,x'"),
    (("path-criterion", "--graph", "tree:2", "--path", "bogus"), "unknown path spec 'bogus'"),
    (("gen",), "--family is required for gen"),
    (("validate", "--graph", "lattice-z:5", "--radii", "2"),
     "graph spec 'lattice-z:5': lattice-z takes no parameter"),
    (("validate", "--graph", "tree:abc"), "graph spec 'tree:abc': "),
    (("validate", "--graph", "random-sparse:n=5,density=0.5,foo=1"),
     "graph spec 'random-sparse:n=5,density=0.5,foo=1': random-sparse has no parameter 'foo'"),
    (("gen", "--family", "birth-death:inf", "--radii", "3"),
     "graph spec 'birth-death:inf': rate must be positive and finite, got inf"),
    (("gen", "--family", "birth-death:nan", "--radii", "3"),
     "graph spec 'birth-death:nan': rate must be positive and finite, got nan"),
    (("gen", "--family", "random-sparse:n=5,density=0.5,wmax=inf"),
     "graph spec 'random-sparse:n=5,density=0.5,wmax=inf': weight range must be positive "
     "and finite, got (0.5, inf)"),
], ids=["config-unreadable", "config-malformed", "config-not-object", "no-graph",
        "graph-file-unreadable", "graph-file-not-json", "W-not-numeric", "W-not-positive",
        "W-unknown", "no-f", "f-delta", "f-const", "f-unknown", "no-U", "U-ball", "U-list",
        "U-unknown", "U-unknown-vertex", "no-radii", "radii-list", "doubling-short", "doubling-not-int",
        "alpha-grid", "alpha-single", "alpha-liouville", "path-list", "path-unknown",
        "gen-no-family", "graph-extra-parameter", "graph-not-int", "graph-unknown-key",
        "graph-rate-inf", "graph-rate-nan", "graph-wmax-inf"])
def test_spec_and_input_errors_exit_2_with_one_error_line(tmp_path, capsys, argv, err):
    (tmp_path / "bad.json").write_text("{not json")
    (tmp_path / "list.json").write_text("[1, 2]")
    argv = [a.replace("{tmp}", str(tmp_path)) for a in argv]
    code, out, got = run_cli(capsys, *argv, "--out", str(tmp_path / "run"))
    assert (code, out) == (2, "")
    assert got.startswith("error: " + err.replace("{tmp}", str(tmp_path)))
    assert got.count("\n") == 1 and got.endswith("\n")
    assert not (tmp_path / "run").exists()


def test_gen_without_out_exits_2(capsys):
    assert run_cli(capsys, "gen", "--family", "tree:2", "--radii", "2") == (
        2, "", "error: --out is required for gen\n")


def test_listed_vertex_set_and_path_match_their_defaults(capsys):
    # on finite-path:3 the list is all of U; on the birth-death chain it is the ray
    solve = ("solve", "--graph", "finite-path:3", "--f", "const:1", "--U")
    assert run_cli(capsys, *solve, "list:0,1,2") == run_cli(capsys, *solve, "all")
    crit = ("path-criterion", "--graph", "birth-death:4", "--alpha", "0.5", "--terms", "3")
    listed = run_cli(capsys, *crit, "--path", "list:0,1,2,3")
    assert listed[0] == 0 and listed[1].startswith("S_3 = ")
    assert listed == run_cli(capsys, *crit)


# --- gen -----------------------------------------------------------------------


def test_gen_writes_loadable_graph(tmp_path, capsys):
    out_dir = tmp_path / "gen"
    code, out, _ = run_cli(capsys, "gen",
                           "--family", "random-sparse:n=12,density=0.4,seed=5",
                           "--out", str(out_dir))
    assert code == 0
    assert "graph.json" in out
    g = graph_from_json(str(out_dir / "graph.json"))
    assert len(g.vertices()) == 12
    assert validate(g, g.vertices()).ok


def test_gen_seed_seeds_random_sparse(tmp_path, capsys):
    spec = "random-sparse:n=30,density=0.2"

    def gen(name, family, *flags):
        code, _, _ = run_cli(capsys, "gen", "--family", family, *flags,
                             "--out", str(tmp_path / name))
        assert code == 0
        return (tmp_path / name / "graph.json").read_bytes()

    seeded = gen("seed3", spec + ",seed=3")
    assert gen("flag3", spec, "--seed", "3") == seeded
    assert gen("flag0", spec, "--seed", "0") != seeded
    # a seed= in the spec wins over --seed
    assert gen("spec3", spec + ",seed=3", "--seed", "0") == seeded


def test_gen_procedural_family_needs_radii(tmp_path, capsys):
    out_dir = tmp_path / "gen"
    code, _, err = run_cli(capsys, "gen", "--family", "lattice-z",
                           "--out", str(out_dir))
    assert code == 2
    assert "--radii" in err

    code, _, _ = run_cli(capsys, "gen", "--family", "lattice-z",
                         "--radii", "4", "--out", str(out_dir))
    assert code == 0
    g = graph_from_json(str(out_dir / "graph.json"))
    assert len(g.vertices()) == 9  # ball of radius 4 around 0 in Z


@pytest.mark.parametrize("family, radius", [
    ("tree:2", 0), ("tree:2", 1), ("tree:2", 5), ("tree:3", 4),
    ("lattice-z", 0), ("lattice-z", 7), ("birth-death:4", 20),
])
def test_gen_tree_bytes_match_reference(tmp_path, capsys, family, radius):
    # at radius 0 ball() reads no row, and gen reads the root's
    out_dir = tmp_path / "gen"
    code, out, _ = run_cli(capsys, "gen", "--family", family, "--radii", str(radius),
                           "--out", str(out_dir))
    assert code == 0
    g = generate(family)
    doc = graph_to_json(g, ball(g, g.root, radius))
    assert f"({len(doc['vertices'])} vertices, {len(doc['edges'])} edges)" in out
    expect = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    assert (out_dir / "graph.json").read_bytes() == expect.encode()


def self_loop_at_7(x):
    return ((x, 1.0),) if x == 7 else ((x - 1, 1.0), (x + 1, 1.0))


def binary_tree(x):
    kids = ((2 * x + 1, 1.0), (2 * x + 2, 1.0))
    return kids if x == 0 else (((x - 1) // 2, 1.0), *kids)


# a graph gen builds instead of the family's, or None for the family itself
GEN_GRAPHS = {
    "family": None,
    "searched-tree": lambda: ProceduralGraph(0, binary_tree),
    "searched-self-loop": lambda: ProceduralGraph(0, self_loop_at_7),
    "ruled-self-loop": lambda: ProceduralGraph(0, self_loop_at_7,
                                               ball_rule=lattice_z()._ball_rule),
}
CAP = ("error: materialization cap exceeded: ball(0, {}) has more than 1000 vertices "
       "(set NLRESOLVENT_MAX_VERTICES to raise it)\n")
LOOP = "error: neighbor rule produced a self-loop at 7\n"


@pytest.mark.parametrize("graph, argv, err", [
    ("family", ("tree:2", "--radii", "16", "--max-vertices", "1000"), CAP.format(16)),
    ("family", ("lattice-z", "--radii", "600", "--max-vertices", "1000"), CAP.format(600)),
    ("searched-tree", ("tree:2", "--radii", "16", "--max-vertices", "1000"), CAP.format(16)),
    ("searched-self-loop", ("x", "--radii", "12"), LOOP),
    ("ruled-self-loop", ("x", "--radii", "12"), LOOP),
    ("family", ("birth-death:4", "--radii", "512"), "error: b(512, 513) overflows a float\n"),
    ("searched-self-loop", ("x", "--radii", "7"), LOOP),
    ("ruled-self-loop", ("x", "--radii", "7"), LOOP),
], ids=["cap-tree", "cap-lattice", "cap-searched", "inner-row-searched", "inner-row-ruled",
        "outer-row-birth-death:4", "outer-row-searched", "outer-row-ruled"])
def test_gen_errors_keep_their_text_and_write_no_config(tmp_path, capsys, monkeypatch,
                                                        graph, argv, err):
    # no "exhaustion step at radius r:" prefix: gen reads a ball, not an exhaustion.
    # An error in the outer layer's rows (outer-row-*) used to come from the
    # writer, after config.json was written; gen now reads those rows with the
    # ball, so like every error materializing a ball it leaves --out unmade.
    if GEN_GRAPHS[graph]:
        monkeypatch.setattr(cli, "generate", lambda spec, seed: GEN_GRAPHS[graph]())
    code, out, got = run_cli(capsys, "gen", "--family", *argv, "--out", str(tmp_path / "gen"))
    assert (code, out, got) == (2, "", err)
    assert not (tmp_path / "gen").exists()


@pytest.mark.parametrize("argv", [
    ("gen", "--family", "birth-death:4", "--radii", "512"),
    ("resolve", "--graph", "birth-death:4", "--f", "delta:0", "--radii", "600"),
], ids=["gen", "resolve"])
def test_chain_weight_past_the_float_range_exits_2(tmp_path, capsys, argv):
    # b(512, 513) = 4**512 = 2**1024 is the first weight past the largest float
    code, _, err = run_cli(capsys, *argv, "--out", str(tmp_path / "run"))
    assert code == 2
    assert len(err.splitlines()) == 1
    assert err.startswith("error: ") and err.rstrip().endswith("b(512, 513) overflows a float")


def test_chain_weights_up_to_the_float_range_are_written(tmp_path, capsys):
    code, out, _ = run_cli(capsys, "gen", "--family", "birth-death:4", "--radii", "511",
                           "--out", str(tmp_path / "gen"))
    assert code == 0
    assert "(512 vertices, 511 edges)" in out
    doc = json.loads((tmp_path / "gen" / "graph.json").read_text(encoding="utf-8"))
    assert (len(doc["vertices"]), len(doc["edges"])) == (512, 511)


def test_validate_reports_a_weight_past_the_float_range(tmp_path, capsys):
    # the probe ball's last vertex, 511, reads fine; the row of its neighbor
    # 512, read for the symmetry check, overflows and is reported
    code, out, err = run_cli(capsys, "validate", "--graph", "birth-death:4", "--radii", "511",
                             "--out", str(tmp_path / "run"))
    assert (code, out, err) == (2, "invalid:\n  - b(512, 513) overflows a float\n", "")
    result = json.loads((tmp_path / "run" / "result.json").read_text(encoding="utf-8"))
    assert result == {"ok": False, "failures": ["b(512, 513) overflows a float"]}


# deg(1750) = 1.5**1749 + 1.5**1750 passes the float range although both of
# its weights are floats: the degree is +inf, a bad input, not a traceback
def test_degree_past_the_float_range_exits_2(tmp_path, capsys):
    code, out, err = run_cli(capsys, "resolve", "--graph", "birth-death:1.5", "--f", "const:1",
                             "--radii", "1750", "--out", str(tmp_path / "run"))
    assert (code, out, err) == (2, "", "error: deg(1750) = inf is not finite\n")
    assert not (tmp_path / "run").exists()
    code, out, _ = run_cli(capsys, "validate", "--graph", "birth-death:1.5", "--radii", "1750")
    assert code == 2
    assert "  - degree at 1750 is not finite\n" in out


def test_file_graph_with_a_degree_past_the_float_range_exits_2(tmp_path, capsys):
    doc = {"vertices": [{"id": x, "m": 1.0} for x in range(3)],
           "edges": [{"u": 0, "v": 1, "b": 1e308}, {"u": 1, "v": 2, "b": 1e308}]}
    path = tmp_path / "big.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, out, err = run_cli(capsys, "validate", "--graph", f"file:{path}")
    assert (code, out) == (2, "")
    assert err == f"error: graph file {path} is invalid:\n  - degree at 1 is not finite\n"


# --- graph files ---------------------------------------------------------------


@pytest.mark.parametrize("family, argv", [
    (("tree:2", "--radii", "9"),
     ("resolve", "--f", "const:1", "--radii", "2,4,8", "--probes", "auto", "--seed", "3")),
    (("random-sparse:n=40,density=0.1,seed=2",),
     ("classify", "--phi", "log", "--radii", "1,2,4")),
], ids=["tree", "random-sparse"])
def test_generated_file_reproduces_its_family(tmp_path, capsys, family, argv):
    spec, *radii = family
    assert run_cli(capsys, "gen", "--family", spec, *radii, "--out", str(tmp_path / "gen"))[0] == 0
    mode, *args = argv
    graph_file = f"file:{tmp_path / 'gen' / 'graph.json'}"
    for name, graph in (("file", graph_file), ("family", spec)):
        code, _, _ = run_cli(capsys, mode, "--graph", graph, *args, "--out", str(tmp_path / name))
        assert code == 0
    for artifact in ("trace.csv", "result.json"):
        assert ((tmp_path / "file" / artifact).read_bytes()
                == (tmp_path / "family" / artifact).read_bytes())


@pytest.mark.parametrize("doc, err", [
    ({"vertices": [{"id": 0}]}, "malformed vertex row {'id': 0}"),
    ({"vertices": [{"id": 0, "m": 1.0}], "edges": [{"u": 0}]}, "malformed edge row {'u': 0}"),
    ({"edges": []}, "malformed graph document: 'vertices'"),
    ({"vertices": [{"id": 0, "m": 1.0}], "edges": [{"u": 0, "v": 7, "b": 1.0}]},
     "edge (0,7) references a vertex with no row"),
], ids=["vertex-row", "edge-row", "no-vertices", "edge-to-no-row"])
def test_malformed_graph_file_exits_2(tmp_path, capsys, doc, err):
    path = tmp_path / "g.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(GraphError, match=re.escape(err)):
        graph_from_json(str(path))
    assert run_cli(capsys, "validate", "--graph", f"file:{path}") == (2, "", f"error: {err}\n")


def test_validate_reports_a_stored_diagonal_entry(tmp_path, capsys):
    doc = {"vertices": [{"id": 0, "m": 1.0}, {"id": 1, "m": 1.0}],
           "edges": [{"u": 0, "v": 0, "b": 2.0}, {"u": 0, "v": 1, "b": 1.0}]}
    path = tmp_path / "diag.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert validate(graph_from_json(str(path)), [0, 1]).failures == (
        "diagonal at 0: b(0,0) = 2.0 stored",)
    assert run_cli(capsys, "validate", "--graph", f"file:{path}") == (
        2, "", f"error: graph file {path} is invalid:\n  - diagonal at 0: b(0,0) = 2.0 stored\n")


# --- help ----------------------------------------------------------------------


def test_help_wraps_at_the_terminal_width_read_once(monkeypatch):
    monkeypatch.setenv("COLUMNS", "60")
    reads = []
    size = shutil.get_terminal_size
    monkeypatch.setattr(shutil, "get_terminal_size", lambda *a: reads.append(a) or size(*a))
    parser = build_parser()
    subs = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    for p in subs.choices.values():
        options = p.format_help().split("options:")[1]
        assert max(map(len, options.splitlines())) == 58
    assert len(reads) == 1


# --- parsing -------------------------------------------------------------------


def _exit_of(capsys, parse, argv):
    with pytest.raises(SystemExit) as exc:
        parse(argv)
    captured = capsys.readouterr()
    return exc.value.code, captured.out, captured.err


# main parses with the invoked mode's parser alone; each of these must come
# out as build_parser() words it, exit code, stdout and stderr
PARSE_FAILURES = [
    *([mode, "-h"] for mode in cli._MODES),
    ["classify", "--seed", "x"],
    ["resolve", "--tol", "small"],
    ["solve", "--graph"],
    ["classify", "--graph", "lattice-z", "--radii"],
    ["classify", "--s", "1"],
    ["classify", "--bogus"],
    ["classify", "--graph", "lattice-z", "--bogus", "1", "--radii", "5"],
    ["gen", "--family", "tree:2", "stray"],
    ["verify-liouville", "--seed", "x", "--bogus"],
    ["--help"],
    [],
    ["nope", "--graph", "lattice-z"],
]


@pytest.mark.parametrize("argv", PARSE_FAILURES, ids=" ".join)
def test_mode_parser_fails_as_the_full_parser_does(monkeypatch, capsys, argv):
    monkeypatch.setenv("COLUMNS", "80")
    expected = _exit_of(capsys, build_parser().parse_args, argv)
    assert _exit_of(capsys, main, argv) == expected


def test_mode_parser_reads_what_the_full_parser_reads(monkeypatch):
    argv = ["classify", "--graph=lattice-z", "--rad", "3,6", "--alpha", "1",
            "--seed", "-2", "--sweep-tol", "1e-9", "--seed", "4"]
    seen = []
    monkeypatch.setattr(cli, "_merge_config", lambda ns: seen.append(ns) or RunConfig("x"))
    monkeypatch.setattr(cli, "run", lambda cfg: 0)
    assert main(argv) == 0
    assert vars(seen[0]) == vars(build_parser().parse_args(argv))


def test_a_valid_command_builds_one_parser(monkeypatch, capsys):
    built = []
    init = argparse.ArgumentParser.__init__
    monkeypatch.setattr(argparse.ArgumentParser, "__init__",
                        lambda self, *a, **k: built.append(k.get("prog")) or init(self, *a, **k))
    code, _, _ = run_cli(capsys, "classify", "--graph", "finite-path:3", "--radii", "1,2",
                         "--alpha", "1")
    assert code == 0
    assert built == ["nlresolvent classify"]


# --- installed entry point -----------------------------------------------------


def test_console_script_end_to_end():
    exe = shutil.which("nlresolvent")
    cmd = [exe] if exe else [sys.executable, "-m", "nlresolvent"]
    proc = subprocess.run(cmd + ["solve", "--graph", "finite-path:2",
                                 "--f", "delta:0", "--U", "all"],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0
    assert "u = (0.6667, 0.3333)" in proc.stdout


def test_module_entry_point():
    # the package's own src/ directory, wherever the tests were started from
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(cli.__file__))}
    proc = subprocess.run([sys.executable, "-m", "nlresolvent", "--help"],
                          capture_output=True, text=True, timeout=60, env=env)
    assert proc.returncode == 0
    assert proc.stdout.startswith("usage: nlresolvent ")
