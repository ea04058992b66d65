"""Self-test of the benchmark's span recorder and workloads.

Run from the repository root: python3 -m pytest -q specxbench
"""

import math
import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from specx import glminmax, harmonic, index, spectra  # noqa: E402
from specx import mesh as meshmod  # noqa: E402


def _bindings():
    """Every attribute the recorder may rebind, by identity."""
    targets = [sys.modules[name] for name in spans.MODULES]
    targets.append(meshmod.TriMesh)
    targets += [sys.modules[mod] for mod, _ in spans.SOLVERS]
    return {(id(t), attr): id(obj) for t in targets
            for attr, obj in list(vars(t).items())}


def _tiny_results():
    sphere = meshmod.build_sphere_mesh(1)
    phi = harmonic.identity_sphere_map(sphere)
    flowed = harmonic.harmonic_flow(sphere, phi, steps=20)
    torus = meshmod.build_torus_mesh(1j, 12)
    holed = meshmod.puncture(torus, [0], 2.1 * torus.mean_edge_length)
    return {
        "laplace": spectra.laplace_eigs(sphere, k=4).values,
        "laplace_vectors": spectra.laplace_eigs(sphere, k=4).vectors,
        "steklov": spectra.steklov_eigs(holed, k=3).values,
        "gl_energy": np.array([glminmax.gl_energy(sphere, phi, 0.1)]),
        "flow": flowed.values,
        "hessian": index.energy_hessian(sphere, flowed),
    }


def test_traced_calls_are_bit_identical():
    plain = _tiny_results()
    rec = spans.Recorder()
    with spans.traced(rec):
        traced = _tiny_results()
    assert len(rec.spans) > 0
    for key in plain:
        assert np.array_equal(plain[key], traced[key]), key


def test_every_span_closes_and_bindings_are_restored():
    before = _bindings()
    rec = spans.Recorder()
    with spans.traced(rec):
        with pytest.raises(meshmod.MeshError):
            meshmod.build_sphere_mesh(-1)
        spectra.laplace_eigs(meshmod.build_sphere_mesh(1), k=2)
    assert rec.open_spans == 0
    assert all(s[spans.END] is not None and s[spans.END] >= s[spans.START]
               for s in rec.spans)
    failed = [s for s in rec.spans if s[spans.ERROR]]
    assert [s[spans.NAME] for s in failed] == ["mesh.build_sphere_mesh"]
    names = {s[spans.NAME] for s in rec.spans}
    assert {"spectra.laplace_eigs", "spectra.solve_pencil", "spectra.eigh",
            "mesh.TriMesh", "mesh.assembly.stiffness",
            "kernels.tri_geometry", "mesh.volume_measure"} <= names
    assert _bindings() == before


@pytest.mark.parametrize("name", run.NAMES)
def test_layer_self_times_sum_to_traced_wall(name, tmp_path, monkeypatch):
    monkeypatch.setenv("SPECX_OUT", str(tmp_path))
    rec, attempted, problems = run.traced_pass(name, 0,
                                               str(tmp_path / "pass"), None,
                                               small=True)
    assert problems == [] and attempted >= 1
    assert rec.open_spans == 0
    root = rec.spans[0]
    wall = root[spans.END] - root[spans.START]
    metrics = spans.layer_metrics(rec.spans)
    total = sum(metrics[f"{layer}.self_s"][0] for layer in spans.LAYERS)
    assert math.isclose(total, wall, rel_tol=1e-9)
    assert all(metrics[f"{layer}.self_s"][0] >= 0 for layer in spans.LAYERS)
    assert metrics["spectra.solve_calls"][0] >= 1
    # a ratio over nothing attempted is left out, not reported as 0
    assert ("mesh.puncture_ok_ratio" in metrics) == (
        metrics["mesh.puncture_calls"][0] > 0)


def test_every_workload_has_references_and_a_missing_one_is_an_error():
    for name in run.NAMES:
        assert workloads.reference(name)
    with pytest.raises(KeyError):
        workloads.reference("no-such-workload")
