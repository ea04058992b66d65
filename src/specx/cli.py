"""Command-line driver: experiment recipes, JSON/CSV persistence, and an
append-only results ledger.

Subcommands: eigs, maximize, glminmax, vc, steklov, index, sweep. A plain
key=value config file can seed any run; flags override it. SPECX_OUT
overrides --out. Exit codes: 0 ok, 1 numerical failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import csv
import datetime
import json
import os
import sys
import warnings

import numpy as np

from . import __version__, glminmax, harmonic, index, mobius, spectra
from . import mesh as meshmod


class UsageError(ValueError):
    pass


def _parse_config_file(path):
    out = {}
    with open(path) as fh:
        for line in fh:
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise UsageError(f"bad config line: {line!r}")
            key, val = line.split("=", 1)
            out[key.strip().replace("-", "_")] = val.strip()
    return out


def _build_parser():
    p = argparse.ArgumentParser(
        prog="specx",
        description="Conformal eigenvalues, harmonic maps, and relaxed "
                    "min-max energies on triangle meshes")
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="command", required=True)

    def add_common(sp):
        sp.add_argument("--surface", choices=["sphere", "torus", "file"],
                        default=None)
        sp.add_argument("--subdiv", type=int, default=None)
        sp.add_argument("--tau", type=str, default=None,
                        help="torus modulus as re,im")
        sp.add_argument("--res", type=int, default=None)
        sp.add_argument("--mesh-file", type=str, default=None)
        sp.add_argument("--density", type=str, default=None,
                        help="per-vertex density file (one value per line)")
        sp.add_argument("--eps", type=str, default=None,
                        help="comma-separated epsilon schedule")
        sp.add_argument("--n", type=int, default=None,
                        help="target sphere dimension")
        sp.add_argument("--grid", type=int, default=None,
                        help="directions per grid shell")
        sp.add_argument("--holes", type=str, default=None,
                        help="hole count or range first..last")
        sp.add_argument("--seed", type=int, default=None)
        sp.add_argument("--out", type=str, default=None)
        sp.add_argument("--config", type=str, default=None)
        sp.add_argument("-k", "--count", type=int, default=None,
                        help="number of nontrivial eigenvalues")

    for name in ("eigs", "maximize", "glminmax", "vc", "steklov", "index"):
        add_common(sub.add_parser(name))
    sp = sub.add_parser("sweep")
    sp.add_argument("recipe", choices=["steklov-holes"])
    add_common(sp)
    return p


DEFAULTS = {
    "surface": "sphere", "subdiv": 3, "tau": "0,1", "res": 32,
    "mesh_file": None, "density": None, "eps": "0.2,0.1,0.05", "n": 2,
    "grid": 14, "holes": "1..8", "seed": 0, "out": "specx_out", "count": 5,
}

_INT_KEYS = {"subdiv", "res", "n", "grid", "seed", "count"}

# the smallest accepted value of each key: at least one eigenvalue past
# the constant one, a target sphere S^n that a SphereMap can hold, a seed
# that numpy accepts and one direction per grid shell; and of the mesh
# flags of each surface: an icosahedron and a 3 x 3 torus grid
_MINIMUM = {"count": 1, "n": 2, "seed": 0, "grid": 1}
_SURFACE_MINIMUM = {"sphere": {"subdiv": 0}, "torus": {"res": 3}}


class RunConfig:
    """Resolved configuration: defaults < config file < flags."""

    def __init__(self, args):
        merged = dict(DEFAULTS)
        if args.command == "steklov":
            merged["holes"] = "1"  # the 1..8 default is the sweep's range
        if args.config:
            file_cfg = _parse_config_file(args.config)
            unknown = set(file_cfg) - set(DEFAULTS)
            if unknown:
                raise UsageError(f"unknown config keys: {sorted(unknown)}")
            merged.update(file_cfg)
        for key in DEFAULTS:
            val = getattr(args, key, None)
            if val is not None:
                merged[key] = val
        for key in _INT_KEYS:
            try:
                merged[key] = int(merged[key])
            except ValueError as exc:
                raise UsageError(f"bad {key} {merged[key]!r}: want an "
                                 "integer") from exc
        minimum = dict(_MINIMUM, **_SURFACE_MINIMUM.get(merged["surface"], {}))
        for key, low in minimum.items():
            if merged[key] < low:
                raise UsageError(f"bad {key} {merged[key]}: want at least "
                                 f"{low}")
        merged["out"] = os.environ.get("SPECX_OUT", merged["out"])
        self.command = args.command
        self.recipe = getattr(args, "recipe", None)
        self.values = merged

    def __getattr__(self, key):
        try:
            return self.values[key]
        except KeyError as exc:
            raise AttributeError(key) from exc

    @property
    def tau_complex(self):
        try:
            re, im = (float(x) for x in str(self.tau).split(","))
        except ValueError as exc:
            raise UsageError(f"bad --tau {self.tau!r}: want re,im") from exc
        if not im > 0.0:
            raise UsageError(f"bad --tau {self.tau!r}: want Im tau > 0")
        return complex(re, im)

    @property
    def eps_list(self):
        try:
            eps = [float(x) for x in str(self.eps).split(",") if x]
        except ValueError as exc:
            raise UsageError(f"bad --eps {self.eps!r}") from exc
        if not eps:
            raise UsageError(f"bad --eps {self.eps!r}: empty schedule")
        return eps

    @property
    def holes_list(self):
        text = str(self.holes)
        try:
            if ".." in text:
                lo, hi = text.split("..")
                holes = list(range(int(lo), int(hi) + 1))
            else:
                holes = [int(x) for x in text.split(",") if x]
            if not holes or min(holes) < 1:
                raise ValueError
        except ValueError as exc:
            raise UsageError(f"bad --holes {self.holes!r}: want counts >= 1 "
                             "as n, n,m,... or first..last") from exc
        return holes

    def to_json_dict(self):
        doc = {k: self.values[k] for k in sorted(self.values)}
        doc["command"] = self.command
        if self.recipe:
            doc["recipe"] = self.recipe
        return doc


def _build_mesh(cfg):
    if cfg.surface == "sphere":
        return meshmod.build_sphere_mesh(cfg.subdiv)
    if cfg.surface == "torus":
        return meshmod.build_torus_mesh(cfg.tau_complex, cfg.res)
    if not cfg.mesh_file:
        raise UsageError("--surface file needs --mesh-file")
    return meshmod.load_mesh(cfg.mesh_file)


def _load_density(cfg, mesh):
    if cfg.density is None:
        return None
    try:
        vals = np.loadtxt(cfg.density)
    except ValueError as exc:
        raise UsageError(f"bad density file {cfg.density}: {exc}") from exc
    if not np.all(np.isfinite(vals)):
        raise UsageError(f"bad density file {cfg.density}: non-finite value")
    if vals.shape != (mesh.num_vertices,):
        raise UsageError("density file length does not match the mesh")
    return meshmod.validate_density(mesh, vals)


def _base_map(cfg, mesh):
    dim = cfg.n + 1
    if cfg.surface == "torus":
        base = harmonic.torus_collapse_map(mesh)
    else:
        base = harmonic.identity_sphere_map(mesh)
    return harmonic.embed_map(base, dim) if dim > 3 else base


def _write_json(cfg, name, payload):
    os.makedirs(cfg.out, exist_ok=True)
    doc = {
        "config": cfg.to_json_dict(),
        "version": __version__,
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "payload": payload,
    }
    path = os.path.join(cfg.out, name)
    with open(path, "w") as fh:
        json.dump(doc, fh, sort_keys=True, indent=1)
        fh.write("\n")
    return path


def _append_ledger(cfg, row):
    os.makedirs(cfg.out, exist_ok=True)
    path = os.path.join(cfg.out, "results.csv")
    exists = os.path.exists(path)
    with open(path, "a", newline="") as fh:
        writer = csv.writer(fh)
        if not exists:
            writer.writerow(["command", "surface", "seed", "quantity",
                             "value"])
        writer.writerow(row)
    return path


def _flag_unconverged(what, rep):
    """One stderr line for a maximiser report that did not converge."""
    if not rep.converged:
        print(f"specx: {what}: ascent not converged after {rep.iterations} "
              f"iterations (stationarity gap {rep.stationarity_gap:.3e})",
              file=sys.stderr)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_eigs(cfg):
    mesh = _build_mesh(cfg)
    density = _load_density(cfg, mesh)
    if mesh.is_closed:
        spec = spectra.laplace_eigs(mesh, density, k=cfg.count,
                                    seed=cfg.seed)
        kind = "laplace"
    else:
        spec = spectra.steklov_eigs(mesh, k=cfg.count, seed=cfg.seed)
        kind = "steklov"
    payload = spec.to_json_dict()
    payload["kind"] = kind
    _write_json(cfg, "eigs.json", payload)
    _append_ledger(cfg, [cfg.command, cfg.surface, cfg.seed,
                         f"{kind}_lambda1", repr(float(spec.values[1]))])
    return 0


def cmd_maximize(cfg):
    mesh = _build_mesh(cfg)
    density = _load_density(cfg, mesh)
    rep = spectra.maximize_lambda1_conformal(mesh, seed=cfg.seed, f0=density)
    _flag_unconverged("maximize", rep)
    _write_json(cfg, "maximize.json", rep.to_json_dict())
    _append_ledger(cfg, [cfg.command, cfg.surface, cfg.seed, "lambda_bar_1",
                         repr(float(rep.lambda_bar))])
    return 0


def cmd_glminmax(cfg):
    mesh = _build_mesh(cfg)
    scale = 1.0 / np.sqrt(meshmod.area(mesh))
    unit = mesh.scaled(scale)
    base = _base_map(cfg, mesh)
    lam1 = float(spectra.laplace_eigs(unit, k=1, seed=cfg.seed).values[1])
    results = []
    warm = None  # track the critical branch across the eps schedule
    spec = glminmax.FamilySpec(unit, base, seed=cfg.seed, n_dirs=cfg.grid)
    for eps in cfg.eps_list:
        rep = glminmax.extract_critical(
            spec, glminmax.minmax_upper(spec, eps), start=warm)
        crit = rep.critical
        warm = crit["u"]
        if not crit["converged"]:
            print(f"specx: glminmax eps={eps}: descent not converged after "
                  f"{crit['iterations']} iterations (gradient norm "
                  f"{crit['gradient_norm']:.3e})", file=sys.stderr)
        ok, lhs, rhs = glminmax.sandwich_holds(rep, lam1)
        doc = rep.to_json_dict()
        doc["sandwich"] = {"holds": bool(ok), "lhs": lhs, "rhs": rhs,
                           "lambda1": lam1}
        results.append(doc)
        os.makedirs(cfg.out, exist_ok=True)
        glminmax.sweep_to_csv(rep, os.path.join(
            cfg.out, f"glminmax_sweep_eps{eps}.csv"))
        _append_ledger(cfg, [cfg.command, cfg.surface, cfg.seed,
                             f"sup_energy_eps{eps}",
                             repr(float(rep.sup_energy))])
        if not ok:
            _write_json(cfg, "glminmax.json", results)
            raise spectra.SolverError("eigenvalue sandwich violated")
    _write_json(cfg, "glminmax.json", results)
    return 0


def cmd_vc(cfg):
    mesh = _build_mesh(cfg)
    base = _base_map(cfg, mesh)
    out = mobius.conformal_volume(mesh, base, n_dirs=cfg.grid, seed=cfg.seed)
    payload = {"V_c_estimate": float(out["V_c_estimate"]),
               "argmax": [float(x) for x in out["argmax"]],
               "refinement": [float(x) for x in out["refinement"]]}
    _write_json(cfg, "vc.json", payload)
    _append_ledger(cfg, [cfg.command, cfg.surface, cfg.seed, "V_c",
                         repr(payload["V_c_estimate"])])
    return 0


def cmd_steklov(cfg):
    mesh = _build_mesh(cfg)
    if mesh.is_closed:
        counts = cfg.holes_list
        if len(counts) > 1:
            raise UsageError(f"steklov punches one hole count, got --holes "
                             f"{cfg.holes!r}; give one count, or run "
                             "'sweep steklov-holes' for several")
        holes = counts[0]
        mesh = meshmod.puncture(mesh,
                                meshmod.hole_centers(mesh, holes, cfg.seed),
                                meshmod.hole_radius(mesh, holes, 0.5))
    spec = spectra.steklov_eigs(mesh, k=cfg.count, seed=cfg.seed)
    payload = spec.to_json_dict()
    payload["boundary_length"] = spec.mass  # the boundary measure's mass
    _write_json(cfg, "steklov.json", payload)
    _append_ledger(cfg, [cfg.command, cfg.surface, cfg.seed, "sigma_bar_1",
                         repr(float(spec.values[1] * spec.mass))])
    return 0


def cmd_index(cfg):
    mesh = _build_mesh(cfg)
    base = _base_map(cfg, mesh)
    base = harmonic.harmonic_flow(mesh, base, steps=400)
    with warnings.catch_warnings():  # the line below replaces the warning
        warnings.simplefilter("ignore", UserWarning)
        rep = index.index_report(mesh, base)
    if rep.tension_residual > index.RESIDUAL_WARN:
        print(f"specx: index: map has tension residual "
              f"{rep.tension_residual:.3g} (above {index.RESIDUAL_WARN}); "
              "index counts assume an approximately harmonic map",
              file=sys.stderr)
    _write_json(cfg, "index.json", rep.to_json_dict())
    _append_ledger(cfg, [cfg.command, cfg.surface, cfg.seed, "ind_S",
                         str(rep.ind_S)])
    return 0


def cmd_sweep(cfg):
    counts = cfg.holes_list  # argparse admits only the steklov-holes recipe
    mesh = _build_mesh(cfg)
    ref = spectra.maximize_lambda1_conformal(mesh, seed=cfg.seed)
    _flag_unconverged("sweep lambda_bar_ref", ref)
    lam_ref = ref.lambda_bar
    rows = spectra.steklov_hole_sweep(mesh, counts, seed=cfg.seed)
    for holes, sigma_bar, _, _ in rows:
        _append_ledger(cfg, [cfg.command, cfg.surface, cfg.seed,
                             f"sigma_bar_1_holes{holes}", repr(sigma_bar)])
    trend = spectra.nondecreasing_trend([row[1] for row in rows], lam_ref)
    os.makedirs(cfg.out, exist_ok=True)
    with open(os.path.join(cfg.out, "steklov_holes.csv"), "w",
              newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["holes", "sigma_bar_1", "lambda_bar_1_ref",
                         "nondecreasing_trend"])
        writer.writerows([holes, repr(sig), repr(lam_ref), trend]
                         for holes, sig, _, _ in rows)
    payload = {"rows": [[int(h), float(s)] for h, s, _, _ in rows],
               "nondecreasing_trend": bool(trend),
               "lambda_bar_ref": float(lam_ref)}
    _write_json(cfg, "sweep.json", payload)
    return 0


_COMMANDS = {
    "eigs": cmd_eigs, "maximize": cmd_maximize, "glminmax": cmd_glminmax,
    "vc": cmd_vc, "steklov": cmd_steklov, "index": cmd_index,
    "sweep": cmd_sweep,
}


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code
    try:
        cfg = RunConfig(args)
        return _COMMANDS[args.command](cfg)
    except (UsageError, FileNotFoundError) as exc:
        print(f"specx: usage error: {exc}", file=sys.stderr)
        return 2
    except (meshmod.MeshError, spectra.SolverError, glminmax.FamilyError,
            harmonic.MapError, np.linalg.LinAlgError) as exc:
        print(f"specx: numerical failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
