"""The specx benchmark workloads: whole recipes, each output checked.

A pass of a workload runs its operations one after another (a closed loop
with one client) and checks each output. An operation is one CLI recipe
through `specx.cli.main` or one library call, plus its check. It fails on a
nonzero exit code, an exception or an output that fails its check.

Why these four (self-time shares of the traced pass, 2-core x86 VM, numpy
kernels, one BLAS thread):

- hole-sweep: `sweep steklov-holes` on a res-48 torus, 1..9 holes: 44
  punctured meshes and rank-deficient Steklov pencils (Schur complement and
  SuperLU). mesh 55% + spectra 42%; the only workload where mesh
  combinatorics block the result.
- conformal-max: 50 iterations of the conformal maximiser on sphere subdiv 3
  (the `maximize` recipe runs 200 of the same iterations): full-rank dense
  pencil solves on one fixed mesh with a changing density. spectra 99%.
- gl-minmax: the `glminmax` recipe on sphere subdiv 3, eps 0.2,0.1,0.05:
  ~41k Ginzburg-Landau energy calls and Armijo descent. glminmax + kernels
  + mobius 97%, spectra + mesh 2%.
- harmonic-index: the `index` recipe plus the composition law for
  m = 3, 4, 5 on the 400-step flowed identity map: dense Hessians up to
  3210^2 (index 94%) and spectra with a full-rank energy-density B and a
  growing k (4%).

Passes are kept to a few seconds so that a run's median pass time rests on
several passes, each bracketed by a speed probe (see run.py).
"""

from __future__ import annotations

import functools
import json
import math
import os
from typing import Any, Callable, NamedTuple

import numpy as np

from specx import cli, harmonic, index, spectra
from specx import mesh as meshmod

HERE = os.path.dirname(os.path.abspath(__file__))

RESIDUAL_TOL = 1e-6  # worst relative eigenpair residual any solve may return
RTOL = 1e-6  # relative tolerance against recorded reference values
MAXIMIZE_ITERS = 50  # ascent iterations per conformal-max pass


class Op(NamedTuple):
    name: str
    run: Callable[[], Any]
    check: Callable[[Any], list]


class ResidualProbe:
    """Records the worst `Spectrum.residuals` entry that
    `spectra.solve_pencil` returns while installed, so that every operation
    can check its eigenpairs. Restores the binding on exit."""

    def __enter__(self):
        self._orig = original = spectra.solve_pencil
        self.worst = 0.0

        @functools.wraps(original)
        def solve_pencil(*args, **kwargs):
            spec = original(*args, **kwargs)
            self.worst = max(self.worst, float(np.max(spec.residuals)))
            return spec

        spectra.solve_pencil = solve_pencil
        return self

    def take(self):
        worst, self.worst = self.worst, 0.0
        return worst

    def __exit__(self, *exc):
        spectra.solve_pencil = self._orig
        return False


def reference(name):
    """Recorded outputs of workload `name`; they hold for every seed.

    The checked outputs do not depend on the seed: it reaches only ARPACK
    start vectors and the parameter-ball grid, whose supremum is the same
    (see record_references.py). A workload without a recorded entry is an
    error, so that no run skips its reference checks.
    """
    with open(os.path.join(HERE, "references.json")) as fh:
        refs = json.load(fh)
    if name not in refs:
        raise KeyError(f"no reference outputs recorded for {name}; run "
                       "specxbench/record_references.py")
    return refs[name]


def _payload(out, filename):
    with open(os.path.join(out, filename)) as fh:
        return json.load(fh)["payload"]


def _exit_ok(code):
    return [] if code == 0 else [f"exit code {code}"]


def _close(label, got, want):
    if not math.isclose(got, want, rel_tol=RTOL, abs_tol=RTOL):
        return [f"{label} = {got!r}, reference {want!r}"]
    return []


def _equal(label, got, want):
    return [] if got == want else [f"{label} = {got!r}, reference {want!r}"]


def _cli_op(name, argv, check):
    return Op(name, lambda: cli.main(argv), check)


# ---------------------------------------------------------------------------
# workloads: each returns the operations of one pass
# ---------------------------------------------------------------------------

def hole_sweep(seed, out, ref, small):
    res, holes = (16, "1..2") if small else (48, "1..9")
    argv = ["sweep", "steklov-holes", "--surface", "torus", "--res", str(res),
            "--holes", holes, "--seed", str(seed)]

    def check(code):
        problems = _exit_ok(code)
        if problems:
            return problems
        doc = _payload(out, "sweep.json")
        rows = doc["rows"]
        if not rows:
            return ["sweep returned no rows"]
        sigmas = [s for _, s in rows]
        if not all(math.isfinite(s) and s > 0 for s in sigmas):
            problems.append(f"non-finite or nonpositive sigma_bar_1: {sigmas}")
        if ref is not None:
            problems += _equal("hole counts", [h for h, _ in rows],
                               [h for h, _ in ref["rows"]])
            for (h, got), (_, want) in zip(rows, ref["rows"]):
                problems += _close(f"sigma_bar_1 at {h} holes", got, want)
            problems += _close("lambda_bar_ref", doc["lambda_bar_ref"],
                               ref["lambda_bar_ref"])
        return problems

    return [_cli_op("sweep steklov-holes", argv, check)]


def conformal_max(seed, out, ref, small):
    subdiv = 1 if small else 3

    def run():
        mesh = meshmod.build_sphere_mesh(subdiv)
        return spectra.maximize_lambda1_conformal(mesh, iters=MAXIMIZE_ITERS,
                                                  seed=seed)

    def check(rep):
        problems = []
        if not (math.isfinite(rep.lambda_bar) and rep.lambda_bar > 0):
            problems.append(f"lambda_bar = {rep.lambda_bar!r}")
        if ref is not None:
            problems += _close("lambda_bar", rep.lambda_bar,
                               ref["lambda_bar"])
            problems += _equal("iterations", rep.iterations,
                               ref["iterations"])
            problems += _equal("converged", rep.converged, ref["converged"])
        return problems

    return [Op("maximize_lambda1_conformal", run, check)]


def gl_minmax(seed, out, ref, small):
    eps = "0.2" if small else "0.2,0.1,0.05"
    argv = ["glminmax", "--surface", "sphere", "--subdiv",
            "1" if small else "3", "--eps", eps, "--n", "2",
            "--seed", str(seed)]

    def check(code):
        problems = _exit_ok(code)
        if problems:
            return problems
        docs = _payload(out, "glminmax.json")
        if len(docs) != len(eps.split(",")):
            return [f"{len(docs)} epsilon results for schedule {eps}"]
        for doc in docs:
            if not doc["sandwich"]["holds"]:
                problems.append(f"sandwich fails at eps={doc['eps']}")
            if not math.isfinite(doc["critical"]["E_eps"]):
                problems.append(f"critical E_eps not finite at {doc['eps']}")
        if ref is not None:
            for doc, want in zip(docs, ref["sup_energy"]):
                problems += _close(f"sup_energy at eps={doc['eps']}",
                                   doc["sup_energy"], want)
        return problems

    return [_cli_op("glminmax", argv, check)]


def harmonic_index(seed, out, ref, small):
    subdiv = 1 if small else 3
    argv = ["index", "--surface", "sphere", "--subdiv", str(subdiv),
            "--seed", str(seed)]
    state = {}

    def check_index(code):
        problems = _exit_ok(code)
        if problems:
            return problems
        doc = _payload(out, "index.json")
        if ref is not None:
            for key in ("ind_S", "nul_S", "ind_E"):
                problems += _equal(key, doc[key], ref[key])
        return problems

    def flow():
        mesh = meshmod.build_sphere_mesh(subdiv)
        state["mesh"] = mesh
        state["phi"] = harmonic.harmonic_flow(
            mesh, harmonic.identity_sphere_map(mesh), steps=400)
        return state["phi"]

    def check_flow(phi):
        if not np.all(np.isfinite(phi.values)):
            return ["flowed map has non-finite values"]
        return []

    def composition(m):
        def run():
            return index.check_composition_law(state["mesh"], state["phi"], m)

        def check(law):
            problems = []
            if law["lhs"] != law["rhs"]:
                problems.append(f"composition law fails at m={m}: {law}")
            if ref is not None:
                want = ref["composition"][str(m)]
                problems += _equal(f"composition m={m}",
                                   [law["lhs"], law["rhs"]],
                                   [want["lhs"], want["rhs"]])
            return problems

        return Op(f"composition m={m}", run, check)

    ms = (3,) if small else (3, 4, 5)
    return [_cli_op("index", argv, check_index),
            Op("harmonic_flow", flow, check_flow)] + \
        [composition(m) for m in ms]


BUILDERS = {
    "hole-sweep": hole_sweep,
    "conformal-max": conformal_max,
    "gl-minmax": gl_minmax,
    "harmonic-index": harmonic_index,
}

# the probe (run.PROBES) that wall_s is scaled by: the kind of work that
# dominates the workload. A pass's time moves with its probe's; log-log
# slope over 28-140 passes on a 2-vCPU x86 VM:
# - hole-sweep, gl-minmax (interpreter and small numpy calls): 0.57-0.96
#   and 0.75-0.90 against the Python probe.
# - conformal-max (dense eigh of 642^2): 0.92 against the LAPACK probe,
#   0.41-0.51 against the Python one, which would over-correct.
# - harmonic-index (dense Hessians up to 3210^2): 0.25-0.77 against the
#   LAPACK probe, 0.12-0.42 against the Python one.
SPEED_PROBE = {
    "hole-sweep": "python",
    "conformal-max": "lapack",
    "gl-minmax": "python",
    "harmonic-index": "lapack",
}

# the layers (spans.MODULES) each workload was chosen to exercise; the traced
# run reports their summed self time and its share of the traced wall time
TARGET_LAYERS = {
    "hole-sweep": ("mesh", "spectra"),
    "conformal-max": ("spectra",),
    "gl-minmax": ("glminmax", "kernels", "mobius"),
    "harmonic-index": ("index",),
}


def run_pass(name, seed, out, ref, small=False):
    """One pass of workload `name` writing into the fresh directory `out`.

    Returns (attempted, problems, outputs): problems lists
    (operation, [messages]) for every failed operation, outputs maps each
    operation that ran to its result. `ref` is the workload's recorded
    outputs (see `reference`). With None only the checks that need no
    recorded value run (exit code, residuals, GL sandwich, composition law,
    finite results), as in the warm-up and while recording.
    small=True runs the same code paths on tiny inputs (the warm-up).
    """
    os.makedirs(out)
    os.environ["SPECX_OUT"] = out
    ops = BUILDERS[name](seed, out, ref, small)
    outputs, problems = {}, []
    with ResidualProbe() as probe:
        for op in ops:
            try:
                result = op.run()
                found = op.check(result)
                outputs[op.name] = result
            except Exception as exc:  # a failed operation is counted, not fatal
                found = [f"{type(exc).__name__}: {exc}"]
            worst = probe.take()
            if worst > RESIDUAL_TOL:
                found.append(f"eigenpair residual {worst:.3g} above "
                             f"{RESIDUAL_TOL:g}")
            if found:
                problems.append((op.name, found))
    return len(ops), problems, outputs
