"""The benchmark's span tracer still finds every public name it wraps.

perfbench/tracing.py rebinds named functions and methods of the package;
a deleted or renamed one fails its install, which otherwise only a
benchmark run would notice.
"""

import importlib.util
from pathlib import Path

import numpy as np

import fluctem
import fluctem.cli  # noqa: F401  the tracer wraps cli.run_subcommand
from fluctem import greens

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_uninstalls_on_the_package():
    original = greens.surface_functional
    tracer = load_tracing().Tracer()
    tracer.install()
    try:
        assert greens.surface_functional is not original
        assert fluctem.surface_functional is greens.surface_functional
        tracer.enabled = True
        sc = fluctem.build_scene({"box_side": 40.0, "voxel_pitch": 0.2, "voxels": []})
        a = np.array([0.0, 0.0, 0.3])
        solver = greens.EffectiveSolver(sc, 1.0)
        greens.surface_functional(sc, a, a, solver, solver.interior_solution(np.stack([a, a])))
        assert tracer.calls["greens.surface_functional"] == 1
        assert tracer.calls["scene.build"] == 1
    finally:
        tracer.uninstall()
    assert greens.surface_functional is original
    assert fluctem.surface_functional is original


def test_traced_identity_report_records_its_terms(monkeypatch):
    # the report calls the public term functions, so a traced run sees a
    # surface span and volume spans, and all of them share one solve
    solutions = []
    interior_solution = greens.EffectiveSolver.interior_solution
    monkeypatch.setattr(greens.EffectiveSolver, "interior_solution",
                        lambda self, s: solutions.append(len(s)) or interior_solution(self, s))
    sc = fluctem.build_scene({"box_side": 40.0, "voxel_pitch": 0.2, "primitives": [
        {"shape": "sphere", "radius": 0.5, "material": {
            "type": "drude_lorentz", "omega_p": 1.2, "omega_0": 0.9, "gamma": 0.4}}]})
    tracer = load_tracing().Tracer()
    tracer.install()
    try:
        tracer.enabled = True
        greens.greens_identity_report(sc, 1.0, np.array([0.31, -0.47, 1.83]),
                                      np.array([-1.52, 0.66, -1.07]))
    finally:
        tracer.uninstall()
    assert tracer.calls["greens.identity_report"] == 1
    assert tracer.calls["greens.surface_functional"] >= 1
    assert tracer.calls["greens.noise_volume"] >= 1
    assert solutions == [2]
