"""In-memory span recorder for the traced benchmark pass.

Inside `traced(recorder)` every public function of every specx module is
wrapped by object identity in every module namespace that binds it, so a
re-export such as `from .mesh import curve_measure` in spectra is traced as
mesh work wherever it is called from. `TriMesh.__init__` and the first
(cache-filling) access of its geometry properties are wrapped at class
level, and the solver entry points splu, eigh, eigsh and eigvalsh are
wrapped at their module attributes; a solver span is charged to the layer
of the span that called it. Leaving the block restores every binding.

A span is [name, layer, start, end, parent, error, note]; spans stay in a
list until the caller writes them out.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import time
import types
from collections import defaultdict

import numpy as np

# module -> layer; _ballopt is the ball search behind the min-max sweeps
MODULES = {
    "specx.mesh": "mesh", "specx.spectra": "spectra",
    "specx.harmonic": "harmonic", "specx.mobius": "mobius",
    "specx.glminmax": "glminmax", "specx._ballopt": "glminmax",
    "specx.index": "index", "specx.cli": "cli", "specx._kernels": "kernels",
}
LAYERS = ("cli", "mesh", "spectra", "harmonic", "mobius", "glminmax",
          "index", "kernels", "bench")
ASSEMBLY = ("stiffness", "vertex_areas", "face_geometry", "edge_lengths",
            "adjacency")
SOLVERS = (("scipy.sparse.linalg", "splu"), ("scipy.linalg", "eigh"),
           ("scipy.sparse.linalg", "eigsh"), ("numpy.linalg", "eigvalsh"))

NAME, LAYER, START, END, PARENT, ERROR, NOTE = range(7)


class Recorder:
    """Spans of one traced pass, in the order they opened."""

    def __init__(self):
        self.spans = []
        self._stack = []

    def open(self, name, layer):
        parent = self._stack[-1] if self._stack else -1
        if layer is None:  # solver entry point: charge the caller's layer
            layer = self.spans[parent][LAYER] if parent >= 0 else "bench"
            name = f"{layer}.{name}"
        self._stack.append(len(self.spans))
        span = [name, layer, time.perf_counter(), None, parent, False, None]
        self.spans.append(span)
        return span

    def close(self, span, error=False, note=None):
        span[END] = time.perf_counter()
        span[ERROR] = error
        span[NOTE] = note
        self._stack.pop()

    def discard(self, span):
        """Drop the innermost span, which must have no children."""
        if self.spans[-1] is not span:
            raise RuntimeError("discard of a span that has children")
        self.spans.pop()
        self._stack.pop()

    @property
    def open_spans(self):
        return len(self._stack)


def _solve_note(args, kwargs, spec):
    b = args[1] if len(args) > 1 else kwargs["b"]
    return {"n": len(spec.vectors), "support": int(np.count_nonzero(
        np.asarray(b) > 0)), "residual": float(np.max(spec.residuals))}


# span name -> note(args, kwargs, result), recorded when the call returns
NOTES = {
    "mesh.TriMesh": lambda a, kw, r: {"V": len(a[0].vertices)},
    "spectra.solve_pencil": _solve_note,
    "spectra.maximize_lambda1_conformal":
        lambda a, kw, r: {"iterations": int(r.iterations)},
    "glminmax.gl_descend": lambda a, kw, r: {
        "iterations": int(r["iterations"]),
        "converged": bool(r["converged"])},
    "index.energy_hessian": lambda a, kw, r: {"dim": int(r.shape[0])},
}


def _wrap(rec, fn, name, layer):
    note = NOTES.get(name)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        span = rec.open(name, layer)
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            rec.close(span, error=True)
            raise
        rec.close(span, note=note(args, kwargs, result) if note else None)
        return result

    return wrapper


def _wrap_cached_property(rec, prop, name):
    """Span only the first access, the one that fills TriMesh._cache."""
    fget = prop.fget

    def getter(mesh):
        before = len(mesh._cache)
        span = rec.open(name, "mesh")
        try:
            value = fget(mesh)
        except BaseException:
            rec.close(span, error=True)
            raise
        if len(mesh._cache) == before:
            rec.discard(span)
        else:
            rec.close(span)
        return value

    return property(functools.wraps(fget)(getter), doc=prop.__doc__)


@contextlib.contextmanager
def traced(rec):
    """Install the wrappers for the duration of the block."""
    undo = []

    def patch(target, attr, value):
        undo.append((target, attr, vars(target)[attr]))
        setattr(target, attr, value)

    try:
        modules = {name: importlib.import_module(name) for name in MODULES}
        wrappers = {}
        for modname, mod in modules.items():
            for attr, obj in vars(mod).items():
                if (not attr.startswith("_")
                        and isinstance(obj, types.FunctionType)
                        and obj.__module__ == modname
                        and id(obj) not in wrappers):
                    layer = MODULES[modname]
                    wrappers[id(obj)] = _wrap(rec, obj, f"{layer}.{attr}",
                                              layer)
        for mod in modules.values():
            for attr, obj in list(vars(mod).items()):
                if not attr.startswith("_") and id(obj) in wrappers:
                    patch(mod, attr, wrappers[id(obj)])
        trimesh = modules["specx.mesh"].TriMesh
        patch(trimesh, "__init__",
              _wrap(rec, trimesh.__init__, "mesh.TriMesh", "mesh"))
        for attr in ASSEMBLY:
            patch(trimesh, attr, _wrap_cached_property(
                rec, trimesh.__dict__[attr], f"mesh.assembly.{attr}"))
        for modname, attr in SOLVERS:
            mod = importlib.import_module(modname)
            patch(mod, attr, _wrap(rec, getattr(mod, attr), attr, None))
        yield rec
    finally:
        for target, attr, original in reversed(undo):
            setattr(target, attr, original)


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------

def _names(layer, *funcs):
    return frozenset(f"{layer}.{f}" for f in funcs)


MESH_BUILDERS = _names("mesh", "build_sphere_mesh", "build_torus_mesh",
                       "load_mesh")
ASSEMBLY_SPANS = _names("mesh.assembly", *ASSEMBLY)
MEMBERS = _names("glminmax", "family_first", "family_second")

# metric -> spans whose outermost occurrences' durations are summed
INCLUSIVE = {
    "mesh.build_s": MESH_BUILDERS,
    "mesh.trimesh_s": _names("mesh", "TriMesh"),
    "mesh.assembly_s": ASSEMBLY_SPANS,
    "mesh.puncture_s": _names("mesh", "puncture"),
    "mesh.geodesic_s": _names("mesh", "geodesic_distances"),
    "mesh.curve_measure_s": _names("mesh", "curve_measure"),
    "spectra.solve_s": _names("spectra", "solve_pencil"),
    "spectra.factor_s": _names("spectra", "splu"),
    "spectra.eigh_s": _names("spectra", "eigh"),
    "spectra.eigsh_s": _names("spectra", "eigsh"),
    "glminmax.energy_s": _names("glminmax", "gl_energy"),
    "glminmax.descend_s": _names("glminmax", "gl_descend"),
    "glminmax.member_s": MEMBERS,
    "glminmax.mollify_s": _names("glminmax", "mollify"),
    "kernels.gl_pointwise_s": _names("kernels", "gl_pointwise"),
    "kernels.tri_geometry_s": _names("kernels", "tri_geometry"),
    "kernels.mobius_batch_s": _names("kernels", "mobius_batch"),
    "kernels.cap_reflect_raw_s": _names("kernels", "cap_reflect_raw"),
    "harmonic.flow_s": _names("harmonic", "harmonic_flow"),
    "index.energy_hessian_s": _names("index", "energy_hessian"),
    "index.eigvalsh_s": _names("index", "eigvalsh"),
    "index.spectral_index_s": _names("index", "spectral_index"),
    "index.tangent_frames_s": _names("index", "tangent_frames"),
}

# metric -> spans counted, nested ones included
COUNTS = {
    "mesh.trimesh_calls": _names("mesh", "TriMesh"),
    "mesh.puncture_calls": _names("mesh", "puncture"),
    "mesh.geodesic_calls": _names("mesh", "geodesic_distances"),
    "spectra.solve_calls": _names("spectra", "solve_pencil"),
    "spectra.factorizations": _names("spectra", "splu"),
    "spectra.eigh_calls": _names("spectra", "eigh"),
    "spectra.eigsh_calls": _names("spectra", "eigsh"),
    "glminmax.energy_calls": _names("glminmax", "gl_energy"),
    "glminmax.gradient_calls": _names("glminmax", "gl_gradient"),
    "glminmax.members": MEMBERS,
    "glminmax.factorizations": _names("glminmax", "splu"),
    "kernels.gl_pointwise_calls": _names("kernels", "gl_pointwise"),
    "harmonic.tension_calls": _names("harmonic", "tension_residual"),
    "harmonic.energy_shares_calls": _names("harmonic", "energy_shares"),
    "index.spectral_index_calls": _names("index", "spectral_index"),
}

SOLVER_NAMES = frozenset(attr for _, attr in SOLVERS)


def _has_ancestor(spans, i, names):
    p = spans[i][PARENT]
    while p >= 0:
        if spans[p][NAME] in names:
            return True
        p = spans[p][PARENT]
    return False


def layer_metrics(spans):
    """Every per-layer metric of one traced pass as {name: (value, unit)}.

    A layer's self time is its spans' durations minus the time their child
    spans cover; the self times of all layers sum to the root span's
    duration. A ratio or maximum over nothing attempted is left out, so
    that it cannot read as a failure or a best case.
    """
    dur = [s[END] - s[START] for s in spans]
    covered = [0.0] * len(spans)
    for i, s in enumerate(spans):
        if s[PARENT] >= 0:
            covered[s[PARENT]] += dur[i]
    self_s = dict.fromkeys(LAYERS, 0.0)
    calls = dict.fromkeys(LAYERS, 0)
    errors = dict.fromkeys(LAYERS, 0)
    by_name = defaultdict(list)
    for i, s in enumerate(spans):
        self_s[s[LAYER]] += dur[i] - covered[i]
        by_name[s[NAME]].append(i)
        if s[NAME].rsplit(".", 1)[-1] not in SOLVER_NAMES:
            calls[s[LAYER]] += 1
            errors[s[LAYER]] += s[ERROR]

    out = {}
    for layer in LAYERS:
        out[f"{layer}.self_s"] = (self_s[layer], "s")
        if layer != "bench":
            out[f"{layer}.calls"] = (calls[layer], "count")
            out[f"{layer}.errors"] = (errors[layer], "count")
    for metric, names in INCLUSIVE.items():
        total = sum(dur[i] for n in names for i in by_name[n]
                    if not _has_ancestor(spans, i, names))
        out[metric] = (total, "s")
    for metric, names in COUNTS.items():
        out[metric] = (sum(len(by_name[n]) for n in names), "count")

    def notes(name, key):
        return [spans[i][NOTE][key] for i in by_name[name]
                if spans[i][NOTE] is not None]

    punctures = by_name["mesh.puncture"]
    feasible = sum(not spans[i][ERROR] for i in punctures)
    descents = notes("glminmax.gl_descend", "iterations")
    in_descent = sum(1 for i in by_name["glminmax.gl_energy"]
                     if _has_ancestor(spans, i, {"glminmax.gl_descend"}))
    residuals = notes("spectra.solve_pencil", "residual")
    dims = notes("index.energy_hessian", "dim")
    out.update({
        "mesh.vertices_built": (sum(notes("mesh.TriMesh", "V")), "count"),
        "spectra.pencil_n_sum": (sum(notes("spectra.solve_pencil", "n")),
                                 "count"),
        "spectra.support_sum": (
            sum(notes("spectra.solve_pencil", "support")), "count"),
        "spectra.maximize_iters": (
            sum(notes("spectra.maximize_lambda1_conformal", "iterations")),
            "count"),
        "glminmax.descend_iters": (sum(descents), "count"),
    })
    if punctures:
        out["mesh.puncture_ok_ratio"] = (feasible / len(punctures), "ratio")
    if residuals:
        out["spectra.max_residual"] = (max(residuals), "ratio")
    if dims:
        out["index.hessian_dim_max"] = (max(dims), "count")
    if descents:
        out["glminmax.descend_converged"] = (
            sum(notes("glminmax.gl_descend", "converged")) / len(descents),
            "ratio")
    if in_descent:
        out["glminmax.step_accept_ratio"] = (sum(descents) / in_descent,
                                             "ratio")
    return out


def dump(spans, path):
    """Write the spans as JSON: times in seconds from the first span."""
    t0 = spans[0][START] if spans else 0.0
    rows = [[s[NAME], s[LAYER], s[START] - t0, s[END] - t0, s[PARENT],
             s[ERROR]] for s in spans]
    with open(path, "w") as fh:
        json.dump({"fields": ["name", "layer", "start", "end", "parent",
                              "error"], "spans": rows}, fh)
