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


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)
