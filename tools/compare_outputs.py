#!/usr/bin/env python3
"""Whether two source trees give the same outputs on small CLI runs.

    python3 tools/compare_outputs.py PARENT_TREE CHANGE_TREE

Each tree is a directory holding the package under `src/`, such as a
checkout or a `git archive` of the repository. Every run in RUNS is made
once per tree, as `python -m specx.cli ARGS --out out` in a fresh
interpreter, with PYTHONPATH=<tree>/src, OPENBLAS_NUM_THREADS=1 and
SPECX_OUT unset, in its own working directory, which holds only the
files of INPUTS. Then it compares the exit code, stdout and stderr, and
every file in that directory after the run: the JSON reports without
their `timestamp` and `config.out`, every other file byte for byte. It
prints one line per run, `same` or `DIFFERS` with what differs, and exits
1 if any run differs, else 0. RUNS covers every recipe, sets each key of
each command at least once, and runs `index` on spheres of subdivision 2
and 3 and on res-16 tori at a square and a skewed tau, each at `--n` 2
and 3. Standard library only.
"""

import json
import os
import subprocess
import sys
import tempfile

# the files in each run's working directory before it starts: a
# nonconstant density on the 42 vertices of a subdivision-1 sphere
INPUTS = {"density.txt": "".join(f"{1 + i % 5 / 10}\n" for i in range(42))}

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
]


def _canonical(path):
    """A file's bytes, or for a JSON report its text without `timestamp`
    and `config.out`, which differ between any two runs."""
    with open(path, "rb") as fh:
        data = fh.read()
    if not path.endswith(".json"):
        return data
    doc = json.loads(data)
    doc.pop("timestamp", None)
    doc.get("config", {}).pop("out", None)
    return json.dumps(doc, sort_keys=True).encode()


def outcome(tree, args):
    """(exit code, stdout, stderr, {relative path: canonical contents}) of
    one CLI run on a tree."""
    env = dict(os.environ, PYTHONPATH=os.path.join(tree, "src"),
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


def differences(a, b):
    """What differs between two outcomes, as short labels."""
    found = [label for label, x, y in zip(("exit code", "stdout", "stderr"),
                                          a[:3], b[:3]) if x != y]
    for path in sorted(set(a[3]) | set(b[3])):
        if a[3].get(path) != b[3].get(path):
            found.append(path)
    return found


def main(argv=None, runs=RUNS):
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print("usage: compare_outputs.py PARENT_TREE CHANGE_TREE",
              file=sys.stderr)
        return 2
    parent, change = args
    failed = False
    for name, cli_args in runs:
        found = differences(outcome(parent, cli_args),
                            outcome(change, cli_args))
        failed = failed or bool(found)
        print(f"{'DIFFERS' if found else 'same':8s}{name}"
              + (f": {', '.join(found)}" if found else ""), flush=True)
    return int(failed)


if __name__ == "__main__":
    sys.exit(main())
