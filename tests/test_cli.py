import csv
import dataclasses
import json
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

from specx import glminmax, spectra
from specx.cli import RunConfig, _build_parser, main
from specx.mesh import (TriMesh, build_sphere_mesh, build_torus_mesh,
                        load_mesh, puncture, save_mesh)
from specx.spectra import steklov_eigs


def run(args, out):
    return main(list(args) + ["--out", str(out)])


def load_json(out, name):
    with open(os.path.join(str(out), name)) as fh:
        return json.load(fh)


def test_eigs_sphere(tmp_path):
    assert run(["eigs", "--surface", "sphere", "--subdiv", "3", "-k", "5"],
               tmp_path) == 0
    doc = load_json(tmp_path, "eigs.json")
    vals = doc["payload"]["values"]
    assert all(abs(v - 2.0) < 0.02 for v in vals[1:4])
    assert doc["config"]["subdiv"] == 3
    assert "version" in doc and "timestamp" in doc


def test_eigs_torus(tmp_path):
    assert run(["eigs", "--surface", "torus", "--tau", "0,1", "--res", "24",
                "-k", "5"], tmp_path) == 0
    doc = load_json(tmp_path, "eigs.json")
    lam1 = doc["payload"]["values"][1]
    assert abs(lam1 - 4 * np.pi ** 2) < 0.02 * 4 * np.pi ** 2


def test_tau_with_a_negative_real_part(tmp_path, capsys):
    # argparse would take -0.5,1 for an option; the run is the one of the
    # --tau=-0.5,1 form, also under argparse's abbreviation --ta
    forms = [("space", ["--tau", "-0.5,1"]), ("equals", ["--tau=-0.5,1"]),
             ("abbreviated", ["--ta", "-0.5,1"])]
    for form, argv in forms:
        assert run(["eigs", "--surface", "torus", "--res", "8", "-k", "1"]
                   + argv, tmp_path / form) == 0
    docs = [load_json(tmp_path / form, "eigs.json") for form, _ in forms]
    assert docs[0]["config"]["tau"] == "-0.5,1"
    assert docs[0]["payload"] == docs[1]["payload"] == docs[2]["payload"]
    # an option after --tau is not taken for its value
    capsys.readouterr()
    assert run(["eigs", "--tau", "--help"], tmp_path) == 2
    assert "--tau: expected one argument" in capsys.readouterr().err


def test_eigs_from_file(tmp_path, sphere3):
    mesh_path = tmp_path / "m.off"
    save_mesh(sphere3, mesh_path)
    assert run(["eigs", "--surface", "file", "--mesh-file", str(mesh_path),
                "-k", "3"], tmp_path) == 0


def test_eigs_on_open_mesh_is_steklov(tmp_path):
    mesh_path = tmp_path / "holed.off"
    sphere = build_sphere_mesh(2)
    save_mesh(puncture(sphere, [0], 0.3), mesh_path)
    assert run(["eigs", "--surface", "file", "--mesh-file", str(mesh_path),
                "-k", "2"], tmp_path) == 0
    payload = load_json(tmp_path, "eigs.json")["payload"]
    assert payload["kind"] == "steklov"
    want = steklov_eigs(load_mesh(mesh_path), k=2)
    assert payload["values"] == [float(v) for v in want.values]


def test_usage_errors(tmp_path, capsys):
    assert run(["eigs", "--surface", "file"], tmp_path) == 2
    assert run(["eigs", "--surface", "file", "--mesh-file",
                str(tmp_path / "missing.off")], tmp_path) == 2
    assert main(["nope"]) == 2
    assert run(["eigs", "--surface", "torus", "--tau", "zzz"], tmp_path) == 2
    cfg = tmp_path / "run.cfg"
    cfg.write_text("subdiv=abc\n")
    capsys.readouterr()
    assert run(["eigs", "--config", str(cfg)], tmp_path) == 2
    assert "bad subdiv 'abc'" in capsys.readouterr().err
    density = tmp_path / "density.txt"
    density.write_text("1.0\nnot-a-number\n")
    assert run(["eigs", "--subdiv", "1", "--density", str(density)],
               tmp_path) == 2
    assert f"bad density file {density}" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["eigs", "maximize"])
@pytest.mark.parametrize("values, message", [
    (["1.0"] * 41 + ["nan"], "density must be finite"),
    (["1.0"] * 41 + ["inf"], "density must be finite"),
    (["1.0"] * 41 + ["-1.0"], "density must be nonnegative"),
    (["0.0"] * 42, "density has zero total mass"),
    (["1.0"] * 41, "density shape mismatch"),
    ([], "density shape mismatch"),
], ids=["nan", "inf", "negative", "zero", "short", "empty"])
def test_bad_density_file_is_usage_error(tmp_path, capsys, command, values,
                                         message):
    # a malformed file (exit 2), not a numerical failure of the solver it
    # would otherwise reach; a negative value and an all-zero file were
    # numerical failures (exit 1). The usage error is the one line on
    # stderr: an empty file also printed numpy's "loadtxt: input contained
    # no data" warning, which this test would raise
    density = tmp_path / "density.txt"
    density.write_text("".join(value + "\n" for value in values))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run([command, "--subdiv", "1", "--density", str(density)],
                   tmp_path / "out") == 2
    assert capsys.readouterr().err == (
        f"specx: usage error: bad density file {density}: {message}\n")
    assert not (tmp_path / "out").exists()


def test_numerical_failure_exit(tmp_path):
    # an OFF file with a non-manifold edge trips the mesh validators
    bad = tmp_path / "bad.off"
    bad.write_text("OFF\n5 3 0\n0 0 0\n1 0 0\n0 1 0\n0 0 1\n0 -1 0\n"
                   "3 0 1 2\n3 1 0 3\n3 0 1 4\n")
    assert run(["eigs", "--surface", "file", "--mesh-file", str(bad)],
               tmp_path) == 1


@pytest.mark.parametrize("command",
                         ["eigs", "maximize", "steklov", "vc", "index"])
@pytest.mark.parametrize("value", ["nan", "inf"])
def test_non_finite_off_vertex_is_numerical_failure(tmp_path, capsys,
                                                    command, value):
    # accepted before: maximize died in SuperLU with a traceback, steklov
    # reported a nan radius, and eigs, vc and index failed later with
    # unrelated messages
    mesh_path = tmp_path / "s1.off"
    save_mesh(build_sphere_mesh(1), mesh_path)
    lines = mesh_path.read_text().splitlines()
    assert lines[:2] == ["OFF", "42 80 0"]
    lines[2] = " ".join([value] + lines[2].split()[1:])  # vertex 0
    mesh_path.write_text("\n".join(lines) + "\n")
    out = tmp_path / "out"
    capsys.readouterr()
    assert run([command, "--surface", "file", "--mesh-file", str(mesh_path)],
               out) == 1
    assert capsys.readouterr().err == (
        "specx: numerical failure: OFF vertex 0 has a non-finite "
        "coordinate\n")
    assert not out.exists()


def _sphere1_and_a_lone_vertex():
    s1 = build_sphere_mesh(1)
    return TriMesh(np.vstack([s1.vertices, np.zeros((1, 3))]),
                   s1.triangles), 2


def _three_vertices_no_face():
    return TriMesh(np.eye(3), np.empty((0, 3), dtype=int)), 3


def _two_disjoint_sphere1s():
    s1 = build_sphere_mesh(1)
    return TriMesh(np.vstack([s1.vertices, s1.vertices + 3.0]),
                   np.vstack([s1.triangles, s1.triangles + 42])), 2


@pytest.mark.parametrize("command", [["eigs"], ["maximize"], ["steklov"],
                                     ["sweep", "steklov-holes"]])
@pytest.mark.parametrize("build", [_sphere1_and_a_lone_vertex,
                                   _three_vertices_no_face,
                                   _two_disjoint_sphere1s])
def test_off_mesh_of_several_components_is_numerical_failure(
        tmp_path, capsys, command, build):
    # accepted before: a lone vertex made SuperLU's singular factor a
    # traceback, a faceless file failed with unrelated messages, and eigs
    # on two spheres wrote the second constant eigenvalue as lambda_1
    mesh, ncomp = build()
    mesh_path = tmp_path / "m.off"
    save_mesh(mesh, mesh_path)
    out = tmp_path / "out"
    assert run(command + ["--surface", "file", "--mesh-file",
                          str(mesh_path)], out) == 1
    assert capsys.readouterr().err == (
        "specx: numerical failure: OFF mesh must be one connected surface; "
        f"it has {ncomp} connected components\n")
    assert not out.exists()


def test_config_file_and_override(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("surface=sphere\nsubdiv=2\ncount=3\n")
    assert main(["eigs", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    doc = load_json(tmp_path, "eigs.json")
    assert doc["config"]["subdiv"] == 2
    assert main(["eigs", "--config", str(cfg), "--subdiv", "1",
                 "--out", str(tmp_path)]) == 0
    doc = load_json(tmp_path, "eigs.json")
    assert doc["config"]["subdiv"] == 1
    bad = tmp_path / "bad.cfg"
    bad.write_text("nonsense_key=1\n")
    assert main(["eigs", "--config", str(bad), "--out", str(tmp_path)]) == 2


def test_env_out_override(tmp_path, monkeypatch):
    target = tmp_path / "env_dir"
    monkeypatch.setenv("SPECX_OUT", str(target))
    assert main(["eigs", "--surface", "sphere", "--subdiv", "1",
                 "--out", str(tmp_path / "flag_dir")]) == 0
    assert (target / "eigs.json").exists()
    assert not (tmp_path / "flag_dir").exists()


def test_determinism(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    args = ["vc", "--surface", "sphere", "--subdiv", "2", "--seed", "7"]
    assert run(args, out1) == 0
    assert run(args, out2) == 0
    d1 = load_json(out1, "vc.json")
    d2 = load_json(out2, "vc.json")
    assert json.dumps(d1["payload"], sort_keys=True) \
        == json.dumps(d2["payload"], sort_keys=True)
    assert d1["version"] == d2["version"]


def test_ledger_appends(tmp_path):
    run(["eigs", "--surface", "sphere", "--subdiv", "1"], tmp_path)
    run(["eigs", "--surface", "sphere", "--subdiv", "1"], tmp_path)
    with open(tmp_path / "results.csv") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["command", "surface", "seed", "quantity", "value"]
    assert len(rows) == 3


def test_eigs_with_density_file(tmp_path):
    mesh = build_sphere_mesh(2)
    dens = tmp_path / "f.txt"
    np.savetxt(dens, np.full(mesh.num_vertices, 2.0))
    assert run(["eigs", "--surface", "sphere", "--subdiv", "2",
                "--density", str(dens), "-k", "3"], tmp_path) == 0
    doc = load_json(tmp_path, "eigs.json")
    assert abs(doc["payload"]["values"][1] - 1.0) < 0.02  # 2 / density


def test_maximize_starts_from_density_file(tmp_path):
    args = ["maximize", "--surface", "torus", "--res", "12"]
    assert run(args, tmp_path / "plain") == 0
    plain = load_json(tmp_path / "plain", "maximize.json")["payload"]
    n = len(plain["density"])
    flat, bumped = tmp_path / "flat.txt", tmp_path / "bumped.txt"
    np.savetxt(flat, np.ones(n))
    np.savetxt(bumped, 1.0 + 0.5 * np.cos(2 * np.pi * np.arange(n) / 12))
    assert run(args + ["--density", str(flat)], tmp_path / "flat") == 0
    assert load_json(tmp_path / "flat", "maximize.json")["payload"] == plain
    assert run(args + ["--density", str(bumped)], tmp_path / "bumped") == 0
    bumped_doc = load_json(tmp_path / "bumped", "maximize.json")["payload"]
    assert bumped_doc["density"] != plain["density"]


def test_maximize_and_index(tmp_path):
    assert run(["maximize", "--surface", "torus", "--res", "16"],
               tmp_path) == 0
    doc = load_json(tmp_path, "maximize.json")
    lam = doc["payload"]["lambda_bar"]
    assert abs(lam - 4 * np.pi ** 2) < 0.05 * 4 * np.pi ** 2
    assert len(doc["payload"]["density"]) == 256  # per-vertex array
    assert run(["index", "--surface", "sphere", "--subdiv", "2"],
               tmp_path) == 0
    doc = load_json(tmp_path, "index.json")
    assert doc["payload"]["ind_S"] == 1
    assert doc["payload"]["nul_S"] == 3
    assert doc["payload"]["ind_E"] == 0


def test_glminmax_command(tmp_path):
    assert run(["glminmax", "--surface", "sphere", "--subdiv", "2",
                "--eps", "0.1", "--n", "2"], tmp_path) == 0
    doc = load_json(tmp_path, "glminmax.json")
    entry = doc["payload"][0]
    assert abs(entry["sup_energy"] - 4 * np.pi) < 0.05 * 4 * np.pi
    assert entry["sandwich"]["holds"]
    assert os.path.exists(os.path.join(str(tmp_path),
                                       "glminmax_sweep_eps0.1.csv"))


def test_glminmax_builds_each_member_once(tmp_path, monkeypatch):
    # the benchmark's schedule sweeps 107 distinct parameters at each eps,
    # and the descent at the first eps starts from one more member; one
    # family serves all three eps, so nothing is built twice
    calls = {"member": 0, "heat": 0}

    def counted(fn, key):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(glminmax.FamilySpec, "member",
                        counted(glminmax.FamilySpec.member, "member"))
    monkeypatch.setattr(spectra, "_heat_factor",
                        counted(spectra._heat_factor, "heat"))
    assert run(["glminmax", "--surface", "sphere", "--subdiv", "3",
                "--eps", "0.2,0.1,0.05", "--n", "2", "--seed", "0"],
               tmp_path) == 0
    assert calls == {"member": 108, "heat": 1}


def test_glminmax_runs_share_no_state(tmp_path):
    # the second run's mesh differs, so a member cache that outlived the
    # first run would show in the second run's energies
    src = os.path.dirname(os.path.dirname(glminmax.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, os.environ.get("PYTHONPATH", "")]))
    runs = [["--subdiv", "2", "--seed", "0"], ["--subdiv", "1", "--seed", "1"]]
    for i, args in enumerate(runs):
        argv = ["glminmax", "--surface", "sphere", "--eps", "0.2,0.1"] + args
        assert run(argv, tmp_path / f"together{i}") == 0
        subprocess.run([sys.executable, "-m", "specx.cli"] + argv
                       + ["--out", str(tmp_path / f"alone{i}")],
                       check=True, env=env, capture_output=True)
    for i in range(len(runs)):
        assert load_json(tmp_path / f"together{i}", "glminmax.json")[
            "payload"] == load_json(tmp_path / f"alone{i}",
                                    "glminmax.json")["payload"]


def test_glminmax_flags_unconverged_descent(tmp_path, capsys):
    # on sphere3 the eps = 0.2 descent leaves the saddle and hits the cap
    assert run(["glminmax", "--surface", "sphere", "--subdiv", "3",
                "--eps", "0.2", "--n", "2"], tmp_path) == 0
    entry = load_json(tmp_path, "glminmax.json")["payload"][0]
    assert not entry["critical"]["converged"]
    assert "iterations" not in entry["critical"]
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1
    assert "eps=0.2" in lines[0] and "not converged" in lines[0]


def test_glminmax_flags_a_collapsed_map(tmp_path, capsys):
    # on sphere2 both descents end on a constant unit map (E_eps ~ 1e-14),
    # the global minimum of E_eps; the flag names it, the run still exits 0
    assert run(["glminmax", "--surface", "sphere", "--subdiv", "2",
                "--eps", "0.2,0.1"], tmp_path) == 0
    for entry in load_json(tmp_path, "glminmax.json")["payload"]:
        assert entry["critical"]["E_eps"] < 1e-10
        assert "spread" not in entry["critical"]
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 2
    for line, eps in zip(lines, ("0.2", "0.1")):
        assert line.startswith(f"specx: glminmax eps={eps}: descent "
                               "collapsed to a constant map (spread ")


def test_glminmax_sandwich_failure(tmp_path, monkeypatch, capsys):
    # the sandwich holds on every mesh here, so a failing check stands in;
    # the report up to the failing eps is still written
    real = glminmax.sandwich_holds

    def fails_below_02(report, lam1):
        ok, lhs, rhs = real(report, lam1)
        return ok and report.eps >= 0.2, lhs, rhs

    monkeypatch.setattr(glminmax, "sandwich_holds", fails_below_02)
    assert run(["glminmax", "--surface", "sphere", "--subdiv", "1",
                "--eps", "0.2,0.1,0.05"], tmp_path) == 1
    assert "eigenvalue sandwich violated" in capsys.readouterr().err
    docs = load_json(tmp_path, "glminmax.json")["payload"]
    assert [d["eps"] for d in docs] == [0.2, 0.1]
    assert [d["sandwich"]["holds"] for d in docs] == [True, False]


def test_steklov_command(tmp_path):
    assert run(["steklov", "--surface", "sphere", "--subdiv", "3",
                "--holes", "1", "-k", "2"], tmp_path) == 0
    doc = load_json(tmp_path, "steklov.json")
    assert doc["payload"]["values"][1] > 0


def test_bare_steklov_punches_one_hole(tmp_path):
    assert run(["steklov", "--surface", "sphere", "--subdiv", "2", "-k", "2"],
               tmp_path / "bare") == 0
    assert run(["steklov", "--surface", "sphere", "--subdiv", "2", "-k", "2",
                "--holes", "1"], tmp_path / "one") == 0
    bare = load_json(tmp_path / "bare", "steklov.json")
    assert bare["config"]["holes"] == "1"
    assert bare["payload"] == load_json(tmp_path / "one",
                                        "steklov.json")["payload"]
    # the sweep keeps its range
    args = _build_parser().parse_args(["sweep", "steklov-holes"])
    assert RunConfig(args).holes_list == list(range(1, 9))


@pytest.mark.parametrize("given", [["--holes", "1"], ["--holes", "3"],
                                   ["--holes", "2..3"], "config"])
def test_steklov_holes_on_an_open_mesh_is_usage_error(tmp_path, capsys,
                                                      given):
    # steklov punches holes only in a closed mesh; on a disk it ignored
    # --holes, exited 0 and recorded the count in steklov.json
    mesh_path = tmp_path / "holed.off"
    save_mesh(puncture(build_sphere_mesh(2), [0], 0.3), mesh_path)
    args = ["steklov", "--surface", "file", "--mesh-file", str(mesh_path),
            "-k", "2"]
    if given == "config":
        cfg = tmp_path / "run.cfg"
        cfg.write_text("holes = 2\n")
        given = ["--config", str(cfg)]
    assert run(args + given, tmp_path / "out") == 2
    assert "usage error: bad --holes" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()
    # without --holes the open mesh runs as it is
    assert run(args, tmp_path / "bare") == 0
    doc = load_json(tmp_path / "bare", "steklov.json")
    assert doc["config"]["holes"] == "1"
    assert doc["payload"]["values"] == [
        float(v) for v in steklov_eigs(load_mesh(mesh_path), k=2).values]


@pytest.mark.parametrize("command", [
    ["maximize"], ["sweep", "steklov-holes", "--holes", "1..2"]],
    ids=["maximize", "sweep"])
def test_closed_mesh_commands_on_an_open_mesh_are_usage_errors(
        tmp_path, capsys, command):
    # both reached the conformal ascent's MeshError ("conformal
    # maximization expects a closed mesh") and exited 1
    mesh_path = tmp_path / "holed.off"
    save_mesh(puncture(build_sphere_mesh(2), [0], 0.3), mesh_path)
    out = tmp_path / "out"
    assert run(command + ["--surface", "file", "--mesh-file", str(mesh_path)],
               out) == 2
    assert capsys.readouterr().err == (
        f"specx: usage error: {command[0]} needs a closed mesh; this mesh has "
        "a boundary\n")
    assert not out.exists()


def test_sweep_command(tmp_path):
    assert run(["sweep", "steklov-holes", "--surface", "torus", "--res",
                "24", "--holes", "1..3"], tmp_path) == 0
    with open(tmp_path / "steklov_holes.csv") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["holes", "sigma_bar_1", "lambda_bar_1_ref",
                       "nondecreasing_trend"]
    assert len(rows) == 4
    doc = load_json(tmp_path, "sweep.json")
    assert len(doc["payload"]["rows"]) == 3


def test_unconverged_ascent_is_flagged(tmp_path, monkeypatch, capsys):
    # both ascents converge here, so an unconverged report stands in; the
    # files and exit codes stay as they were, bar the report's own flag
    runs = {"maximize": ["maximize", "--surface", "torus", "--res", "12"],
            "sweep lambda_bar_ref": ["sweep", "steklov-holes", "--surface",
                                     "torus", "--res", "16", "--holes",
                                     "1..2"]}
    for name, args in runs.items():
        assert run(args, tmp_path / "real" / args[0]) == 0
    assert capsys.readouterr().err == ""
    real = spectra.maximize_lambda1_conformal

    def unconverged(*args, **kwargs):
        return dataclasses.replace(real(*args, **kwargs), converged=False)

    monkeypatch.setattr(spectra, "maximize_lambda1_conformal", unconverged)
    for name, args in runs.items():
        assert run(args, tmp_path / "flagged" / args[0]) == 0
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith(f"specx: {name}: ascent not converged")
    docs = [load_json(tmp_path / out / "maximize", "maximize.json")["payload"]
            for out in ("real", "flagged")]
    assert [doc.pop("converged") for doc in docs] == [True, False]
    assert docs[0] == docs[1]
    for name in ("sweep.json", "steklov_holes.csv", "results.csv"):
        texts = [(tmp_path / out / "sweep" / name).read_text()
                 for out in ("real", "flagged")]
        if name.endswith(".json"):
            texts = [json.loads(t)["payload"] for t in texts]
        assert texts[0] == texts[1]


def test_hole_counts_below_one_are_usage_errors(tmp_path, capsys):
    for args in (["sweep", "steklov-holes", "--holes", "0..2"],
                 ["sweep", "steklov-holes", "--holes", "5..3"],
                 ["steklov", "--surface", "sphere", "--holes", "0"],
                 ["steklov", "--surface", "torus", "--holes", "0"]):
        assert run(args + ["--subdiv", "1", "--res", "8"], tmp_path) == 2
        assert "usage error: bad --holes" in capsys.readouterr().err
    assert not os.path.exists(tmp_path / "results.csv")


def test_steklov_rejects_several_hole_counts(tmp_path, capsys):
    for holes in ("3..5", "2,4"):
        assert run(["steklov", "--surface", "sphere", "--subdiv", "1",
                    "--holes", holes], tmp_path) == 2
        assert "sweep steklov-holes" in capsys.readouterr().err
    assert not os.path.exists(tmp_path / "steklov.json")
    assert not os.path.exists(tmp_path / "results.csv")


def test_index_flags_a_nonharmonic_map(tmp_path, capsys):
    # the flowed torus collapse map is far from harmonic: one stderr line,
    # the residual in the payload, and exit code 0 as before
    assert run(["index", "--surface", "torus", "--res", "16"],
               tmp_path / "torus") == 0
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and "tension residual" in err[0]
    doc = load_json(tmp_path / "torus", "index.json")
    assert doc["payload"]["tension_residual"] > 0.01
    assert run(["index", "--surface", "sphere", "--subdiv", "2"],
               tmp_path / "sphere") == 0
    assert capsys.readouterr().err == ""
    doc = load_json(tmp_path / "sphere", "index.json")
    assert doc["payload"]["tension_residual"] < 0.01


@pytest.mark.parametrize("command", ["eigs", "steklov"])
@pytest.mark.parametrize("count", ["0", "-1"])
def test_count_below_one_is_usage_error(tmp_path, capsys, command, count):
    # -k 0 used to write its report before failing on the missing
    # lambda_1, and -k -1 failed inside the dense eigensolver
    assert run([command, "--subdiv", "1", "--count", count], tmp_path) == 2
    assert f"usage error: bad count {count}" in capsys.readouterr().err
    assert not os.listdir(tmp_path)


@pytest.mark.parametrize("args, message", [
    (["glminmax", "--n", "1"], "bad n 1"),
    (["vc", "--n", "0"], "bad n 0"),
    (["index", "--n", "1"], "bad n 1"),
    (["glminmax", "--eps", ","], "bad --eps ','"),
])
def test_small_target_and_empty_eps_are_usage_errors(tmp_path, capsys, args,
                                                     message):
    # these ran the n = 2 map (while the report recorded the n given) or
    # wrote an empty glminmax report, with exit code 0
    assert run(args + ["--subdiv", "1"], tmp_path) == 2
    assert f"usage error: {message}" in capsys.readouterr().err
    assert not os.listdir(tmp_path)


_TORUS = ["--surface", "torus"]


@pytest.mark.parametrize("args, message", [
    # numpy refused a negative seed with a traceback (exit 1) wherever a
    # random draw ran, and the dense eigs branch, which draws none, took it
    (["maximize", "--subdiv", "2", "--seed", "-1"], "bad seed -1"),
    (["vc", "--subdiv", "1", "--seed", "-1"], "bad seed -1"),
    (["glminmax", "--subdiv", "1", "--seed", "-1"], "bad seed -1"),
    (["sweep", "steklov-holes", "--res", "16", "--seed", "-1"] + _TORUS,
     "bad seed -1"),
    (["eigs", "--subdiv", "3", "--seed", "-1"], "bad seed -1"),
    (["eigs", "--subdiv", "1", "--seed", "-1"],
     "bad seed -1: want at least 0"),
    # these searched a 6-point grid and recorded "dirs": 0 or -3
    (["glminmax", "--subdiv", "1", "--grid", "0"],
     "bad grid 0: want at least 1"),
    (["glminmax", "--subdiv", "1", "--grid", "-3"], "bad grid -3"),
    (["vc", "--subdiv", "1", "--grid", "0"], "bad grid 0"),
    (["vc", "--subdiv", "1", "--grid", "-3"], "bad grid -3"),
    # the mesh builders refused these as numerical failures (exit 1)
    (["eigs", "--subdiv", "-1"], "bad subdiv -1: want at least 0"),
    (["eigs", "--res", "2"] + _TORUS, "bad res 2: want at least 3"),
    (["eigs", "--tau", "0,-1"] + _TORUS, "bad --tau '0,-1': want Im tau > 0"),
    (["eigs", "--tau", "1,0"] + _TORUS, "bad --tau '1,0'"),
    # a non-finite part failed in the eigensolver (exit 1)
    (["eigs", "--tau", "nan,1"] + _TORUS,
     "bad --tau 'nan,1': want finite parts"),
    (["eigs", "--tau", "inf,1"] + _TORUS, "bad --tau 'inf,1'"),
    (["eigs", "--tau", "0,inf"] + _TORUS, "bad --tau '0,inf'"),
])
def test_out_of_range_flags_are_usage_errors(tmp_path, capsys, args,
                                             message):
    assert run(args, tmp_path) == 2
    assert f"usage error: {message}" in capsys.readouterr().err
    assert not os.listdir(tmp_path)


def test_negative_seed_in_config_file_is_usage_error(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("seed = -2\n")
    out = tmp_path / "out"
    assert run(["eigs", "--subdiv", "1", "--config", str(cfg)], out) == 2
    assert "usage error: bad seed -2" in capsys.readouterr().err
    assert not out.exists()


def test_mesh_flags_of_another_surface_are_ignored(tmp_path):
    # only the flags of the surface in use are checked
    assert run(["eigs", "--surface", "sphere", "--subdiv", "1", "--res", "2",
                "--tau", "0,-1", "-k", "2"], tmp_path / "sphere") == 0
    assert run(["eigs", "--surface", "torus", "--res", "8", "--subdiv", "-1",
                "-k", "2"], tmp_path / "torus") == 0


@pytest.mark.parametrize("eps", ["-0.1", "0", "inf", "nan", "0.1,inf",
                                 "0.1,0", "0.1,-0.1"])
def test_bad_eps_is_usage_error(tmp_path, capsys, eps):
    # each was a numerical failure (exit 1) of glminmax_recipe's own check;
    # before that check, inf ran to exit 0 and wrote "eps": Infinity, and a
    # bad eps after the first left the first stage's CSV and ledger row
    assert run(["glminmax", "--subdiv", "1", f"--eps={eps}"],
               tmp_path / "out") == 2
    err = capsys.readouterr().err
    assert f"usage error: bad --eps {eps!r}: want positive finite values" \
        in err
    assert not (tmp_path / "out").exists()


def test_glminmax_failure_after_first_eps_keeps_report(tmp_path, monkeypatch,
                                                       capsys):
    # a failure in a later eps's descent writes the report of the eps
    # values that finished, as a violated sandwich does
    real = glminmax.extract_critical

    def fails_below_02(spec, report, start=None):
        if report.eps < 0.2:
            raise glminmax.FamilyError("vector map has non-finite entries")
        return real(spec, report, start=start)

    monkeypatch.setattr(glminmax, "extract_critical", fails_below_02)
    assert run(["glminmax", "--subdiv", "1", "--eps", "0.2,0.1,0.05"],
               tmp_path) == 1
    err = capsys.readouterr().err.splitlines()
    assert err[-1] == ("specx: numerical failure: vector map has non-finite "
                       "entries")
    docs = load_json(tmp_path, "glminmax.json")["payload"]
    assert [d["eps"] for d in docs] == [0.2]
    assert sorted(os.listdir(tmp_path)) == [
        "glminmax.json", "glminmax_sweep_eps0.2.csv", "results.csv"]


@pytest.mark.parametrize("command", [["vc"], ["index"],
                                     ["glminmax", "--eps", "0.2"]],
                         ids=["vc", "index", "glminmax"])
def test_saved_flat_torus_runs_like_the_built_one(tmp_path, command):
    # the base map followed --surface, so the torus read back from its OFF
    # file and chart sidecar got the radial projection of its chart, which
    # failed with "cannot normalize a zero vector"
    mesh_path = tmp_path / "t.off"
    save_mesh(build_torus_mesh(1j, 12), mesh_path)
    assert run(command + ["--surface", "file", "--mesh-file",
                          str(mesh_path)], tmp_path / "file") == 0
    assert run(command + ["--surface", "torus", "--res", "12"],
               tmp_path / "torus") == 0
    name = f"{command[0]}.json"
    assert json.dumps(load_json(tmp_path / "file", name)["payload"]) == \
        json.dumps(load_json(tmp_path / "torus", name)["payload"])


def _torus_of_revolution():
    grid = build_torus_mesh(1j, 16)
    u, v = 2.0 * np.pi * grid.vertices[:, :2].T
    ring = 2.0 + np.cos(v)
    return TriMesh(np.stack([ring * np.cos(u), ring * np.sin(u), np.sin(v)],
                            axis=1), grid.triangles)


def _shifted_ellipsoid():
    sphere = build_sphere_mesh(2)
    return TriMesh(sphere.vertices * [3.0, 1.0, 0.5] + [2.5, 0.0, 0.0],
                   sphere.triangles)


@pytest.mark.parametrize("build, code, message", [
    # a genus-1 mesh without a flat chart has no base map: a usage error,
    # where the identity map's sphere check made it exit 1
    pytest.param(_torus_of_revolution, 2,
                 "usage error: vc needs a genus-0 mesh or a flat torus with "
                 "its chart sidecar; this mesh has genus 1",
                 id="_torus_of_revolution"),
    pytest.param(_shifted_ellipsoid, 1,
                 "numerical failure: identity map needs vertices on one "
                 "sphere centred at the origin", id="_shifted_ellipsoid"),
])
def test_vc_refuses_a_mesh_off_a_centred_sphere(tmp_path, capsys, build,
                                                code, message):
    # vc ran on the radial projection of any file mesh: V_c = 20.81 for the
    # torus's degree-0 map, 24.45 for the ellipsoid's nonconformal one
    mesh_path = tmp_path / "m.off"
    save_mesh(build(), mesh_path)
    out = tmp_path / "out"
    assert run(["vc", "--surface", "file", "--mesh-file", str(mesh_path)],
               out) == code
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["glminmax", "index"])
def test_a_torus_without_its_chart_has_no_base_map(tmp_path, capsys,
                                                   command):
    # both failed with exit 1 on the identity map's sphere check
    mesh_path = tmp_path / "m.off"
    save_mesh(_torus_of_revolution(), mesh_path)
    out = tmp_path / "out"
    assert run([command, "--surface", "file", "--mesh-file", str(mesh_path)],
               out) == 2
    assert capsys.readouterr().err == (
        f"specx: usage error: {command} needs a genus-0 mesh or a flat torus "
        "with its chart sidecar; this mesh has genus 1\n")
    assert not out.exists()


def test_unknown_surface_in_config_file_is_usage_error(tmp_path, capsys):
    # surface=cube ran eigs on the mesh file, and wrote cube into
    # results.csv and the JSON config
    mesh_path = tmp_path / "s1.off"
    save_mesh(build_sphere_mesh(1), mesh_path)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"surface=cube\nmesh_file={mesh_path}\n")
    out = tmp_path / "out"
    assert run(["eigs", "--config", str(cfg)], out) == 2
    assert ("usage error: bad surface 'cube': want one of sphere, torus, "
            "file") in capsys.readouterr().err
    assert not out.exists()


# the keys each command takes beside the run keys, which all take
_RUN_KEYS = {"surface", "subdiv", "tau", "res", "mesh_file", "seed", "out"}
_OWN_KEYS = {"eigs": {"density", "count"}, "maximize": {"density"},
             "glminmax": {"eps", "n", "grid"}, "vc": {"n", "grid"},
             "steklov": {"holes", "count"}, "index": {"n"},
             "sweep": {"holes"}}
_ALL_KEYS = _RUN_KEYS | set().union(*_OWN_KEYS.values())


@pytest.mark.parametrize("command", sorted(_OWN_KEYS))
def test_each_command_takes_only_the_keys_it_reads(tmp_path, capsys,
                                                   command):
    # every command took all 14 flags and config keys and ignored, unread,
    # the ones its recipe does not read
    argv = [command] + (["steklov-holes"] if command == "sweep" else [])
    cfg = tmp_path / "run.cfg"
    for key in sorted(_ALL_KEYS):
        flag = "--" + key.replace("_", "-")
        if key in _RUN_KEYS | _OWN_KEYS[command]:
            assert getattr(_build_parser().parse_args(argv + [flag, "1"]),
                           key) == "1"
            continue
        assert run(argv + [flag, "1"], tmp_path) == 2
        assert f"unrecognized arguments: {flag} 1" in capsys.readouterr().err
        cfg.write_text(f"{key}=1\n")
        assert run(argv + ["--config", str(cfg)], tmp_path) == 2
        assert (f"usage error: unknown config keys for {command}: "
                f"['{key}']") in capsys.readouterr().err
    assert os.listdir(tmp_path) == ["run.cfg"]


def test_unread_flags_are_usage_errors(tmp_path, capsys):
    # this ran to exit 0, with missing.txt and abc in its JSON config
    assert run(["steklov", "--subdiv", "1", "--density", "missing.txt",
                "--eps", "abc", "--grid", "3"], tmp_path) == 2
    assert "unrecognized arguments: --density missing.txt --eps abc " \
        "--grid 3" in capsys.readouterr().err
    assert not os.listdir(tmp_path)


def test_unread_config_key_is_usage_error(tmp_path, capsys):
    # index reads no eps; the key ran to exit 0 and went into its config
    cfg = tmp_path / "run.cfg"
    cfg.write_text("eps=0.1\n")
    out = tmp_path / "out"
    assert run(["index", "--subdiv", "1", "--config", str(cfg)], out) == 2
    assert "usage error: unknown config keys for index: ['eps']" in \
        capsys.readouterr().err
    assert not out.exists()


def test_index_takes_the_seed_it_records(tmp_path):
    # index draws nothing at random, but results.csv records the seed
    assert run(["index", "--subdiv", "1", "--seed", "3"], tmp_path) == 0
    with open(tmp_path / "results.csv") as fh:
        assert list(csv.reader(fh))[1][:3] == ["index", "sphere", "3"]
    assert load_json(tmp_path, "index.json")["config"]["seed"] == 3
