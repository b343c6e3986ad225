import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml

from fluctem.material import DrudeLorentzModel, TabulatedPermittivity
from fluctem.scene import Scene, build_scene


class FixedEps:
    """Frequency-flat permittivity; handy for single-frequency scenes."""

    def __init__(self, value):
        self.value = complex(value)

    def eval(self, omega):
        return self.value


LAM = 2 * np.pi  # wavelength at omega = 1 with c = 1


def one_voxel_scene(eps=2 + 0.5j, pitch=LAM / 20, box=60.0):
    return Scene(box_side=box, voxel_pitch=pitch,
                 scatterer_voxels=(((0.0, 0.0, 0.0), FixedEps(eps)),))


# the frequencies of the stacked-sweep checks: 8 log-spaced points around omega_L
STACK_GRID = np.logspace(-1, 1, 8) * np.sqrt(2)
STACK_SCENES = ("pair", "jittered", "vacuum-voxel", "table")


def stack_scene(name):
    """(scene, body) of a stacked-sweep check.

    pair: configs/casimir.yaml's two voxels, body [0]; jittered: 20 voxels
    off any lattice, body all; vacuum-voxel: a chi = 0 voxel between two
    Drude-Lorentz ones, body all; table: the pair with its material
    tabulated over STACK_GRID's range.
    """
    config = Path(__file__).resolve().parents[1] / "configs" / "casimir.yaml"
    pair = build_scene(yaml.safe_load(config.read_text())["scene"])
    pitch, dl = pair.voxel_pitch, pair.scatterer_voxels[0][1]
    if name == "pair":
        return pair, (0,)
    if name == "jittered":
        cells = np.indices((3, 3, 3)).reshape(3, -1).T[:20]
        pos = 1.3 * pitch * cells + np.random.default_rng(3).uniform(-0.1, 0.1, (20, 3)) * pitch
        voxels = sorted(((tuple(p), dl) for p in pos), key=lambda pm: pm[0])
        return Scene(40.0, pitch, tuple(voxels)), tuple(range(20))
    if name == "vacuum-voxel":
        voxels = ((-0.6, dl), (0.0, FixedEps(1.0)), (0.7, dl))
        return Scene(40.0, pitch, tuple(((0.0, 0.0, z), m) for z, m in voxels)), (0, 1, 2)
    if name == "table":
        assert isinstance(dl, DrudeLorentzModel)
        ws = np.logspace(-1.2, 1.2, 60) * np.sqrt(2)
        tab = TabulatedPermittivity(tuple(ws), tuple(dl.eval(w) for w in ws))
        return Scene(40.0, pitch, tuple((p, tab) for p, _ in pair.scatterer_voxels)), (0,)
    raise ValueError(name)


def voxel_owner(sc, pts):
    """The owning voxel of the points pts, (3,) or (P, 3): Scene.placement's owner."""
    return sc.placement(pts)[0]


def run_at_one_blas_thread(script):
    """Run script in a child interpreter at one BLAS thread; assert it exits 0 and prints "ok".

    The benchmark and CI run at one thread, and OpenBLAS rounds a threaded
    product differently from a small unthreaded one, so checks of the bits
    of blocked products run there.  The child imports fluctem from src and
    the test modules from tests.
    """
    tests = Path(__file__).resolve().parent
    env = dict(os.environ, PYTHONPATH=f"{tests.parent / 'src'}{os.pathsep}{tests}",
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == ["ok"]


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)
