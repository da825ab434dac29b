"""CLI behavior: exit codes, artifacts, determinism, config merging."""

import argparse
import json
import shutil
import subprocess
import sys

import pytest

from nlresolvent import ball, graph_from_json, graph_to_json, symmetric_tree, validate
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
    code, _, err = run_cli(capsys, "solve", "--graph", "lattice-z",
                           "--f", "const:1", "--U", "ball:50",
                           "--max-sweeps", "3", "--out", str(out_dir))
    assert code == 3
    assert "did not converge" in err
    # partial artifacts must still land for repro
    assert (out_dir / "config.json").is_file()
    assert (out_dir / "trace.csv").is_file()
    result = json.loads((out_dir / "result.json").read_text())
    assert result["converged"] is False
    assert result["sweeps"] == 3


# a birth-death:4 exhaustion whose step 0 (radius 2) converges and whose
# step 1 (radius 40) runs out of sweeps; the completed step's rows must
# equal those of a run that stops at radius 2 (for verify-liouville: the
# defect rows classify writes for it)
@pytest.mark.parametrize("mode, args, ref_mode", [
    ("resolve", ("--f", "delta:0"), "resolve"),
    ("classify", ("--alpha", "1"), "classify"),
    ("verify-liouville", ("--alpha", "1"), "classify"),
], ids=["resolve", "classify", "verify-liouville"])
def test_exit_3_keeps_completed_steps(tmp_path, capsys, mode, args, ref_mode):
    common = ("--graph", "birth-death:4", "--max-sweeps", "8", *args)
    code, _, _ = run_cli(capsys, mode, *common, "--radii", "2,40",
                         "--out", str(tmp_path / "cut"))
    assert code == 3
    code, _, _ = run_cli(capsys, ref_mode, *common, "--radii", "2",
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
    code, _, err = run_cli(capsys, mode, "--graph", "birth-death:4", "--max-sweeps", "8",
                           *args, "--radii", "2,40", "--out", str(out_dir))
    assert code == 3
    result = json.loads((out_dir / "result.json").read_text())
    assert result == {"converged": False, "error": err.strip().removeprefix("error: ")}
    assert "did not converge" in result["error"]


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


def test_config_echo_includes_seed(tmp_path, capsys):
    out_dir = tmp_path / "run"
    run_cli(capsys, *CLASSIFY_ARGS, "--out", str(out_dir))
    cfg = json.loads((out_dir / "config.json").read_text())
    assert cfg["seed"] == 7
    assert cfg["mode"] == "classify"
    assert cfg["alpha_resolved"] == [0.5, 1.0]


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


def test_gen_tree_bytes_match_reference(tmp_path, capsys):
    out_dir = tmp_path / "gen"
    code, out, _ = run_cli(capsys, "gen", "--family", "tree:2", "--radii", "5",
                           "--out", str(out_dir))
    assert code == 0
    assert "(63 vertices, 62 edges)" in out
    g = symmetric_tree(2)
    doc = graph_to_json(g, ball(g, g.root, 5))
    expect = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    assert (out_dir / "graph.json").read_text(encoding="utf-8") == expect


# --- installed entry point -----------------------------------------------------


def test_console_script_end_to_end():
    exe = shutil.which("nlresolvent")
    cmd = [exe] if exe else [sys.executable, "-m", "nlresolvent"]
    proc = subprocess.run(cmd + ["solve", "--graph", "finite-path:2",
                                 "--f", "delta:0", "--U", "all"],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0
    assert "u = (0.6667, 0.3333)" in proc.stdout
