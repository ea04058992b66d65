"""Command-line driver: argument handling and config, one library recipe
call per command, and one write path for every run (JSON report, CSV
tables, and an append-only results ledger).

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
        sp.add_argument("--surface", choices=list(_SURFACE_MINIMUM),
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
# flags of each surface: an icosahedron and a 3 x 3 torus grid. Its keys
# are the surfaces that --surface and a config file accept.
_MINIMUM = {"count": 1, "n": 2, "seed": 0, "grid": 1}
_SURFACE_MINIMUM = {"sphere": {"subdiv": 0}, "torus": {"res": 3}, "file": {}}


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
        if merged["surface"] not in _SURFACE_MINIMUM:
            raise UsageError(f"bad surface {merged['surface']!r}: want one "
                             f"of {', '.join(_SURFACE_MINIMUM)}")
        minimum = dict(_MINIMUM, **_SURFACE_MINIMUM[merged["surface"]])
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
        if not (np.isfinite(re) and np.isfinite(im)):
            raise UsageError(f"bad --tau {self.tau!r}: want finite parts")
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

    @property
    def hole_count(self):
        counts = self.holes_list
        if len(counts) > 1:
            raise UsageError(f"steklov punches one hole count, got --holes "
                             f"{self.holes!r}; give one count, or run "
                             "'sweep steklov-holes' for several")
        return counts[0]

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


def _finish(cfg, payload, ledger, tables, flags):
    """The one write path of a run, for what its recipe returns: the
    tables (CSV file name -> rows), the ledger ((quantity, value) rows of
    `results.csv`, the results ledger) and the payload (of the JSON
    report), all in cfg.out; then each flag (stage, message) on stderr.
    Returns the exit code: 1 if a flag records a numerical failure, else
    0."""
    os.makedirs(cfg.out, exist_ok=True)
    # glminmax's sweep tables have always ended their lines with \n, the
    # other CSV files with the csv module's \r\n
    end = "\n" if cfg.command == "glminmax" else "\r\n"
    for name, rows in tables.items():
        with open(os.path.join(cfg.out, name), "w", newline="") as fh:
            csv.writer(fh, lineterminator=end).writerows(rows)
    path = os.path.join(cfg.out, "results.csv")
    exists = os.path.exists(path)
    with open(path, "a", newline="") as fh:
        writer = csv.writer(fh)
        if not exists:
            writer.writerow(["command", "surface", "seed", "quantity",
                             "value"])
        writer.writerows([cfg.command, cfg.surface, cfg.seed, quantity, value]
                         for quantity, value in ledger)
    doc = {
        "config": cfg.to_json_dict(),
        "version": __version__,
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "payload": payload,
    }
    with open(os.path.join(cfg.out, f"{cfg.command}.json"), "w") as fh:
        json.dump(doc, fh, sort_keys=True, indent=1)
        fh.write("\n")
    for stage, message in flags:
        print(f"specx: {stage}: {message}", file=sys.stderr)
    return int(any(stage == glminmax.FAILED for stage, _ in flags))


# each command's recipe call, on the run's config and mesh
_COMMANDS = {
    "eigs": lambda cfg, mesh: spectra.eigs_recipe(
        mesh, _load_density(cfg, mesh), cfg.count, cfg.seed),
    "maximize": lambda cfg, mesh: spectra.maximize_recipe(
        mesh, _load_density(cfg, mesh), cfg.seed),
    "glminmax": lambda cfg, mesh: glminmax.glminmax_recipe(
        mesh, harmonic.base_map(mesh, cfg.n), cfg.eps_list,
        cfg.seed, cfg.grid),
    "vc": lambda cfg, mesh: mobius.vc_recipe(
        mesh, harmonic.base_map(mesh, cfg.n), cfg.grid, cfg.seed),
    "steklov": lambda cfg, mesh: spectra.steklov_recipe(
        mesh, cfg.hole_count, cfg.count, cfg.seed),
    "index": lambda cfg, mesh: index.index_recipe(
        mesh, harmonic.base_map(mesh, cfg.n)),
    "sweep": lambda cfg, mesh: spectra.sweep_recipe(
        mesh, cfg.holes_list, cfg.seed),
}


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code
    try:
        cfg = RunConfig(args)
        return _finish(cfg, *_COMMANDS[args.command](cfg, _build_mesh(cfg)))
    except (UsageError, FileNotFoundError) as exc:
        print(f"specx: usage error: {exc}", file=sys.stderr)
        return 2
    except glminmax.FAILURES as exc:
        print(f"specx: {glminmax.FAILED}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
