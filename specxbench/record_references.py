#!/usr/bin/env python3
"""Record the reference outputs that workloads.py checks against.

Run from the repository root:

    python3 specxbench/record_references.py

The outputs the workloads check do not depend on the seed: hole-sweep,
conformal-max and harmonic-index pass it only to ARPACK start vectors, and
gl-minmax's parameter-ball grid moves with it but the supremum over the
grid does not (sup_energy read the same to the last digit at seeds 0-31).
So each workload is recorded at SEEDS, the outputs must agree there, and
they are stored once per workload. Writes specxbench/references.json.
"""

import json
import math
import os
import shutil
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
SEEDS = (0, 1, 2)
WORKDIR = ".specxbench"  # git-ignored scratch directory in the repository


def outputs(name, seed, tmp):
    import workloads

    out = os.path.join(tmp, f"{name}-{seed}")
    _, problems, results = workloads.run_pass(name, seed, out, None)
    if problems:
        raise RuntimeError(f"{name} seed {seed}: {problems}")

    def payload(filename):
        with open(os.path.join(out, filename)) as fh:
            return json.load(fh)["payload"]

    if name == "hole-sweep":
        doc = payload("sweep.json")
        return {"rows": doc["rows"], "lambda_bar_ref": doc["lambda_bar_ref"]}
    if name == "conformal-max":
        rep = results["maximize_lambda1_conformal"]
        return {"lambda_bar": rep.lambda_bar, "iterations": rep.iterations,
                "converged": rep.converged}
    if name == "gl-minmax":
        return {"sup_energy": [d["sup_energy"]
                               for d in payload("glminmax.json")]}
    doc = payload("index.json")
    ref = {k: doc[k] for k in ("ind_S", "nul_S", "ind_E")}
    ref["composition"] = {
        key.split("=")[1]: {"lhs": law["lhs"], "rhs": law["rhs"]}
        for key, law in results.items() if key.startswith("composition")}
    return ref


def agree(a, b):
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(agree(a[k], b[k]) for k in a)
    if isinstance(a, list):
        return len(a) == len(b) and all(map(agree, a, b))
    if isinstance(a, float):
        return math.isclose(a, b, rel_tol=1e-9)
    return a == b


def main():
    from run import pin_blas_threads

    pin_blas_threads()  # record with the BLAS threads the benchmark uses
    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    os.makedirs(WORKDIR, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="refs-", dir=WORKDIR)
    refs = {}
    try:
        for name in ("hole-sweep", "conformal-max", "gl-minmax",
                     "harmonic-index"):
            first, *rest = [outputs(name, seed, tmp) for seed in SEEDS]
            for seed, other in zip(SEEDS[1:], rest):
                if not agree(first, other):
                    raise RuntimeError(f"{name} depends on its seed: seed "
                                       f"{SEEDS[0]} gives {first}, seed "
                                       f"{seed} gives {other}")
            refs[name] = first
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    with open(os.path.join(HERE, "references.json"), "w") as fh:
        json.dump(refs, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
