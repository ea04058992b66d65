#!/usr/bin/env python3
"""Whether two source trees give the same outputs on small CLI runs.

    python3 tools/compare_outputs.py [--rtol R] PARENT_TREE CHANGE_TREE

Each tree is a directory holding the package under `src/`, such as a
checkout or a `git archive` of the repository. Every run in RUNS is made
once per tree, as `python -m specx.cli ARGS --out out` in a fresh
interpreter, with PYTHONPATH=<tree>/src, OPENBLAS_NUM_THREADS=1 and
SPECX_OUT unset, in its own working directory, which holds only the
files of INPUTS. Then it compares the exit code, stdout and stderr, and
every file in that directory after the run: the JSON reports parsed,
without their `timestamp` and `config.out`, value for value and type for
type (an integer is no float), every other file byte for byte. It prints
one line per run, `same` or `DIFFERS` with what differs, and exits 1 if
any run differs, else 0.

With `--rtol R`, a JSON or CSV file may also differ in its floating-point
numbers, each pair by |a - b| <= R max(|a|, |b|, 1); the run then prints
`close` and the largest such relative difference. Everything else still
matches exactly: the exit code, stdout and stderr, the other files, and
in the JSON and CSV files every key, length, integer, boolean and string
(a CSV cell is an integer if int() reads it, else a float if float()
does, else a string; NaN and infinities, in JSON or CSV, are strings).
RUNS covers every recipe, sets each key of each command at least once,
and runs `index` on spheres of subdivision 2 and 3 and on res-16 tori at
a square and a skewed tau, each at `--n` 2 and 3. With `--surface file`
it reads the OFF files of INPUTS: `eigs` and `steklov` on an open disk,
`vc` and `index` on a res-12 torus with its chart sidecar, and `eigs` on a
file that the mesh loader refuses. Six runs are usage errors: a negative
`--eps`, a density file with a negative value, an empty density file,
`--holes` on the open disk, and `maximize` and `sweep steklov-holes` on
the open disk, which need a closed mesh. The exit code and stderr of these
failing runs are compared like any other. Standard library only.
"""

import argparse
import csv
import io
import json
import math
import os
import subprocess
import sys
import tempfile


def _grid_off(res, squares):
    """OFF text of a res x res vertex grid, vertex j * res + i at (i, j, 0),
    with a squares x squares block of its cells each split into two faces
    as `mesh.build_torus_mesh` splits them. Indices wrap mod res, so
    squares = res gives the torus grid and res - 1 an open square."""
    def v(i, j):
        return (j % res) * res + i % res
    faces = [face for j in range(squares) for i in range(squares)
             for face in ((v(i, j), v(i + 1, j), v(i + 1, j + 1)),
                          (v(i, j), v(i + 1, j + 1), v(i, j + 1)))]
    return (f"OFF\n{res * res} {len(faces)} 0\n"
            + "".join(f"{i} {j} 0\n" for j in range(res) for i in range(res))
            + "".join(f"3 {a} {b} {c}\n" for a, b, c in faces))


# the files in each run's working directory before it starts: a
# nonconstant density on the 42 vertices of a subdivision-1 sphere; an
# open square of 3 x 3 grid squares (a disk); a res-12 flat torus, whose
# chart sidecar gives it its flat metric (at res 10 and below, `index`
# flows its base map to a constant and stops); a triangle with a vertex
# that no face uses, which `mesh.load_mesh` refuses as two components; and
# two density files that `eigs` refuses: the density with its last value
# made negative, and an empty file
INPUTS = {
    "density.txt": "".join(f"{1 + i % 5 / 10}\n" for i in range(42)),
    "negative.txt": "".join(f"{1 + i % 5 / 10}\n" for i in range(41))
    + "-1\n",
    "empty.txt": "",
    "disk.off": _grid_off(4, 3),
    "torus12.off": _grid_off(12, 12),
    "torus12.off.chart": "tau_re=0.3\ntau_im=1.1\nres=12\n",
    "lone.off": "OFF\n4 1 0\n0 0 0\n1 0 0\n0 1 0\n5 5 5\n3 0 1 2\n",
}

# (name, CLI arguments), each a run of at most a few seconds
RUNS = [
    ("eigs sphere2", ["eigs", "--surface", "sphere", "--subdiv", "2"]),
    ("eigs torus16 tau0.3,1.1 k3", ["eigs", "--surface", "torus", "--res",
                                    "16", "--tau", "0.3,1.1", "-k", "3"]),
    ("eigs sphere1 density", ["eigs", "--subdiv", "1", "--density",
                              "density.txt", "-k", "3"]),
    ("maximize sphere2", ["maximize", "--surface", "sphere", "--subdiv",
                          "2"]),
    ("maximize sphere1 density", ["maximize", "--subdiv", "1", "--density",
                                  "density.txt"]),
    ("steklov sphere2", ["steklov", "--surface", "sphere", "--subdiv", "2"]),
    ("steklov sphere2 holes2 k2", ["steklov", "--subdiv", "2", "--holes", "2",
                                   "-k", "2"]),
    ("sweep torus16", ["sweep", "steklov-holes", "--surface", "torus",
                       "--res", "16", "--holes", "1..2"]),
    ("vc sphere2", ["vc", "--surface", "sphere", "--subdiv", "2"]),
    ("vc sphere2 n3 grid6 seed3", ["vc", "--subdiv", "2", "--n", "3",
                                   "--grid", "6", "--seed", "3"]),
    ("glminmax sphere2", ["glminmax", "--surface", "sphere", "--subdiv", "2",
                          "--eps", "0.2,0.1"]),
    ("glminmax sphere1 n3 grid6", ["glminmax", "--subdiv", "1", "--eps",
                                   "0.2", "--n", "3", "--grid", "6"]),
] + [
    (f"index sphere{subdiv} n{n}",
     ["index", "--surface", "sphere", "--subdiv", str(subdiv), "--n", str(n)])
    for subdiv in (2, 3) for n in (2, 3)
] + [
    (f"index torus16 tau{tau} n{n}",
     ["index", "--surface", "torus", "--res", "16", "--tau", tau, "--n",
      str(n)])
    for tau in ("0,1", "0.3,1.1") for n in (2, 3)
] + [
    (f"{command} {name} file", [command, "--surface", "file", "--mesh-file",
                                f"{name}.off"] + extra)
    for command, name, extra in (
        ("eigs", "disk", []), ("steklov", "disk", ["-k", "3"]),
        ("vc", "torus12", []), ("index", "torus12", []),
        ("eigs", "lone", ["-k", "1"]))
] + [
    ("glminmax eps-0.1", ["glminmax", "--subdiv", "1", "--eps=-0.1"]),
    ("eigs sphere1 negative density", ["eigs", "--subdiv", "1", "--density",
                                       "negative.txt", "-k", "3"]),
    ("steklov disk holes2 file", ["steklov", "--surface", "file",
                                  "--mesh-file", "disk.off", "--holes", "2"]),
    ("eigs sphere1 empty density", ["eigs", "--subdiv", "1", "--density",
                                    "empty.txt"]),
    ("maximize disk file", ["maximize", "--surface", "file", "--mesh-file",
                            "disk.off"]),
    ("sweep disk file", ["sweep", "steklov-holes", "--surface", "file",
                         "--mesh-file", "disk.off", "--holes", "1..2"]),
]


def _canonical(path):
    """A file's bytes, or for a JSON report its parsed document without
    `timestamp` and `config.out`, which differ between any two runs. NaN
    and infinities are kept as their strings, so they match only
    exactly."""
    with open(path, "rb") as fh:
        data = fh.read()
    if not path.endswith(".json"):
        return data
    doc = json.loads(data, parse_constant=str)
    doc.pop("timestamp", None)
    doc.get("config", {}).pop("out", None)
    return doc


def outcome(tree, args):
    """(exit code, stdout, stderr, {relative path: canonical contents}) of
    one CLI run on a tree."""
    env = dict(os.environ, PYTHONPATH=os.path.join(os.path.abspath(tree),
                                                   "src"),
               OPENBLAS_NUM_THREADS="1")
    env.pop("SPECX_OUT", None)
    with tempfile.TemporaryDirectory() as work:
        for name, text in INPUTS.items():
            with open(os.path.join(work, name), "w") as fh:
                fh.write(text)
        proc = subprocess.run(
            [sys.executable, "-m", "specx.cli"] + args + ["--out", "out"],
            cwd=work, env=env, capture_output=True)
        files = {}
        for root, _, names in os.walk(work):
            for name in names:
                path = os.path.join(root, name)
                files[os.path.relpath(path, work)] = _canonical(path)
    return proc.returncode, proc.stdout, proc.stderr, files


def _values(path, contents):
    """A file's canonical contents as values: a CSV file as rows of int,
    float or str cells, any other file as it is."""
    if not path.endswith(".csv"):
        return contents
    rows = csv.reader(io.StringIO(contents.decode(), newline=""))
    return [[_cell(cell) for cell in row] for row in rows]


def _cell(text):
    for kind in (int, float):
        try:
            value = kind(text)
        except ValueError:
            continue
        return value if math.isfinite(value) else text
    return text


def _gap(x, y):
    """The largest |a - b| / max(|a|, |b|, 1) over the pairs of floats in
    two values of the same shape, or None if they differ in anything else:
    a type, a key, a length, an integer, a boolean, a string, or a float
    pair without a finite gap."""
    if type(x) is not type(y):
        return None
    if isinstance(x, float):
        if x == y:
            return 0.0
        gap = abs(x - y) / max(abs(x), abs(y), 1.0)
        return gap if math.isfinite(gap) else None
    if isinstance(x, dict):
        if x.keys() != y.keys():
            return None
        pairs = [(x[key], y[key]) for key in x]
    elif isinstance(x, list):
        if len(x) != len(y):
            return None
        pairs = zip(x, y)
    else:
        return 0.0 if x == y else None
    gaps = [_gap(a, b) for a, b in pairs]
    return None if None in gaps else max(gaps, default=0.0)


def differences(a, b, rtol=None):
    """What differs between two outcomes, as short labels, and the gaps
    (`_gap`) of the files that differ only in floats within rtol, as
    {path: gap}; without rtol every differing file is a label."""
    found = [label for label, x, y in zip(("exit code", "stdout", "stderr"),
                                          a[:3], b[:3]) if x != y]
    close = {}
    for path in sorted(set(a[3]) | set(b[3])):
        x, y = a[3].get(path), b[3].get(path)
        if rtol is not None and x is not None and y is not None:
            x, y = _values(path, x), _values(path, y)
        gap = _gap(x, y)
        if gap is None or gap > (rtol or 0.0):
            found.append(path)
        elif gap > 0.0:
            close[path] = gap
    return found, close


def main(argv=None, runs=RUNS):
    parser = argparse.ArgumentParser(
        prog="compare_outputs.py",
        description="Compare the CLI outputs of two source trees.")
    parser.add_argument("--rtol", type=float, help="forgive floats in "
                        "JSON and CSV files that differ by at most this, "
                        "relative")
    parser.add_argument("parent")
    parser.add_argument("change")
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code
    failed = False
    for name, cli_args in runs:
        found, close = differences(outcome(args.parent, cli_args),
                                   outcome(args.change, cli_args),
                                   args.rtol)
        failed = failed or bool(found)
        if found:
            line = f"DIFFERS {name}: {', '.join(found)}"
        elif close:
            line = (f"close   {name}: largest relative difference "
                    f"{max(close.values()):.1e}")
        else:
            line = f"same    {name}"
        print(line, flush=True)
    return int(failed)


if __name__ == "__main__":
    sys.exit(main())
