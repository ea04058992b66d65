"""Command-line driver: argument handling and config, one library recipe
call per command, and one write path for every run (JSON report, CSV
tables, and an append-only results ledger).

Subcommands: eigs, maximize, glminmax, vc, steklov, index, sweep. Each
takes the run keys (`_RUN_KEYS`) and the keys its recipe reads
(`_COMMANDS`), as flags or from a plain key=value config file, which flags
override; any other key is a usage error. SPECX_OUT overrides --out. Exit
codes: 0 ok, 1 numerical failure, 2 usage error.
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


# each key of a run, from a flag or a config file: its default, its least
# value and its help text. A key with a least value is an integer. The least
# values are one eigenvalue past the constant one, a target sphere S^n that
# a SphereMap can hold, a seed that numpy accepts, one direction per grid
# shell, an icosahedron and a 3 x 3 torus grid.
_KEYS = {
    "surface": ("sphere", None, "sphere, torus or file"),
    "subdiv": (3, 0, "icosphere subdivisions (sphere)"),
    "tau": ("0,1", None, "torus modulus as re,im (torus)"),
    "res": (32, 3, "grid points per side (torus)"),
    "mesh_file": (None, None, "OFF mesh file (file)"),
    "seed": (0, 0, "random seed"),
    "out": ("specx_out", None, "output directory"),
    "density": (None, None, "per-vertex density file (one value per line)"),
    "eps": ("0.2,0.1,0.05", None, "comma-separated epsilon schedule"),
    "n": (2, 2, "target sphere dimension"),
    "grid": (14, 1, "directions per grid shell"),
    "holes": ("1..8", None, "hole count or range first..last"),
    "count": (5, 1, "number of nontrivial eigenvalues"),
}

# the keys that every command takes: the mesh keys, and the seed and output
# directory that every run records
_RUN_KEYS = ("surface", "subdiv", "tau", "res", "mesh_file", "seed", "out")

# the integer mesh key of each surface; only the one of the surface in use
# is checked, since a config file may hold both surfaces' keys
_SURFACES = {"sphere": "subdiv", "torus": "res", "file": None}


def _build_parser():
    p = argparse.ArgumentParser(
        prog="specx",
        description="Conformal eigenvalues, harmonic maps, and relaxed "
                    "min-max energies on triangle meshes")
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="command", required=True)
    for command, (keys, _, _) in _COMMANDS.items():
        sp = sub.add_parser(command)
        if command == "sweep":
            sp.add_argument("recipe", choices=["steklov-holes"])
        for key in _RUN_KEYS + keys:
            flag = "--" + key.replace("_", "-")
            sp.add_argument(*(("-k", flag) if key == "count" else (flag,)),
                            help=_KEYS[key][2])
        sp.add_argument("--config", help="key=value file; flags override it")
    return p


class RunConfig:
    """Resolved configuration, one attribute per key of `_KEYS`: defaults <
    config file < flags. Only the run keys and the command's own keys may
    be set; the others keep their defaults. `given` holds the keys that a
    flag or the config file set."""

    def __init__(self, args):
        keys, defaults, _ = _COMMANDS[args.command]
        keys = _RUN_KEYS + keys
        file_cfg = _parse_config_file(args.config) if args.config else {}
        unknown = set(file_cfg) - set(keys)
        if unknown:
            raise UsageError(f"unknown config keys for {args.command}: "
                             f"{sorted(unknown)}")
        merged = {key: row[0] for key, row in _KEYS.items()}
        flags = {key: getattr(args, key) for key in keys
                 if getattr(args, key) is not None}
        merged.update(defaults, **file_cfg)
        merged.update(flags)
        if merged["surface"] not in _SURFACES:
            raise UsageError(f"bad surface {merged['surface']!r}: want one "
                             f"of {', '.join(_SURFACES)}")
        ignored = set(_SURFACES.values()) - {_SURFACES[merged["surface"]]}
        for key, (_, low, _) in _KEYS.items():
            if low is None:
                continue
            try:
                merged[key] = int(merged[key])
            except ValueError as exc:
                raise UsageError(f"bad {key} {merged[key]!r}: want an "
                                 "integer") from exc
            if key not in ignored and merged[key] < low:
                raise UsageError(f"bad {key} {merged[key]}: want at least "
                                 f"{low}")
        merged["out"] = os.environ.get("SPECX_OUT", merged["out"])
        vars(self).update(merged)
        self.given = set(file_cfg) | set(flags)
        self.command = args.command
        self.recipe = getattr(args, "recipe", None)

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
        if not all(0.0 < e < np.inf for e in eps):  # NaN fails too
            raise UsageError(f"bad --eps {self.eps!r}: want positive finite "
                             "values")
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

    def hole_count(self, mesh):
        """steklov's one hole count. Only a closed mesh gets holes, so a
        --holes given for a mesh with boundary is a usage error."""
        if not mesh.is_closed and "holes" in self.given:
            raise UsageError(f"bad --holes {self.holes!r}: steklov punches "
                             "holes only in a closed mesh, and this one has "
                             "a boundary")
        counts = self.holes_list
        if len(counts) > 1:
            raise UsageError(f"steklov punches one hole count, got --holes "
                             f"{self.holes!r}; give one count, or run "
                             "'sweep steklov-holes' for several")
        return counts[0]

    def to_json_dict(self):
        doc = {key: getattr(self, key) for key in sorted(_KEYS)}
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
        with warnings.catch_warnings():  # an empty file: the error says so
            warnings.filterwarnings("ignore", "loadtxt: input contained no")
            values = np.loadtxt(cfg.density)
        return meshmod.validate_density(mesh, values)
    except ValueError as exc:  # np.loadtxt's, or validate_density's MeshError
        raise UsageError(f"bad density file {cfg.density}: {exc}") from exc


def _finish(cfg, payload, ledger, tables, flags):
    """The one write path of a run, for what its recipe returns: the
    tables (CSV file name -> rows), the ledger ((quantity, value) rows of
    `results.csv`, the results ledger) and the payload (of the JSON
    report), all in cfg.out; then each flag (stage, message) on stderr.
    Returns the exit code: 1 if a flag records a numerical failure, else
    0."""
    os.makedirs(cfg.out, exist_ok=True)
    for name, rows in tables.items():
        with open(os.path.join(cfg.out, name), "w", newline="") as fh:
            csv.writer(fh).writerows(rows)
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


def _base_map(cfg, mesh):
    """`harmonic.base_map` of a genus-0 mesh or of one with a flat chart;
    any other mesh has no base map, so its run is a usage error."""
    if mesh.genus != 0 and meshmod.torus_chart(mesh) is None:
        raise UsageError(f"{cfg.command} needs a genus-0 mesh or a flat "
                         "torus with its chart sidecar; this mesh has genus "
                         f"{mesh.genus}")
    return harmonic.base_map(mesh, cfg.n)


def _closed(cfg, mesh):
    """mesh, if closed: `maximize` and `sweep` run the conformal ascent,
    which is defined on closed meshes only, so a mesh with a boundary is a
    usage error here (the library raises MeshError)."""
    if not mesh.is_closed:
        raise UsageError(f"{cfg.command} needs a closed mesh; this mesh has "
                         "a boundary")
    return mesh


# each command: the keys its recipe reads beside the run keys, the defaults
# it sets apart from _KEYS's, and its recipe call on the run's config and
# mesh
_COMMANDS = {
    "eigs": (("density", "count"), {}, lambda cfg, mesh: spectra.eigs_recipe(
        mesh, _load_density(cfg, mesh), cfg.count, cfg.seed)),
    "maximize": (("density",), {}, lambda cfg, mesh: spectra.maximize_recipe(
        _closed(cfg, mesh), _load_density(cfg, mesh), cfg.seed)),
    "glminmax": (("eps", "n", "grid"), {},
                 lambda cfg, mesh: glminmax.glminmax_recipe(
                     mesh, _base_map(cfg, mesh), cfg.eps_list, cfg.seed,
                     cfg.grid)),
    "vc": (("n", "grid"), {}, lambda cfg, mesh: mobius.vc_recipe(
        mesh, _base_map(cfg, mesh), cfg.grid, cfg.seed)),
    # one hole; the 1..8 default is the sweep's range
    "steklov": (("holes", "count"), {"holes": "1"},
                lambda cfg, mesh: spectra.steklov_recipe(
                    mesh, cfg.hole_count(mesh), cfg.count, cfg.seed)),
    "index": (("n",), {}, lambda cfg, mesh: index.index_recipe(
        mesh, _base_map(cfg, mesh))),
    "sweep": (("holes",), {}, lambda cfg, mesh: spectra.sweep_recipe(
        _closed(cfg, mesh), cfg.holes_list, cfg.seed)),
}


def _joined_tau(argv):
    """argv with each `--tau X`, or `--t X` or `--ta X` (argparse's
    abbreviations; no other option starts with --t), given as `--tau=X`:
    argparse takes a value such as -0.5,1 (a modulus with a negative real
    part) for an option. An X that starts with -- is left to argparse."""
    out = []
    for arg in argv:
        if (out and len(out[-1]) > 2 and "--tau".startswith(out[-1])
                and not arg.startswith("--")):
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(_joined_tau(
            sys.argv[1:] if argv is None else argv))
    except SystemExit as exc:
        return exc.code
    try:
        cfg = RunConfig(args)
        recipe = _COMMANDS[args.command][2]
        return _finish(cfg, *recipe(cfg, _build_mesh(cfg)))
    except (UsageError, FileNotFoundError) as exc:
        print(f"specx: usage error: {exc}", file=sys.stderr)
        return 2
    except glminmax.FAILURES as exc:
        print(f"specx: {glminmax.FAILED}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
