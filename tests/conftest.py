import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from fluctem.scene import Scene


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
