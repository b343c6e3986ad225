import numpy as np
import pytest

from fluctem.scene import Scene, owner_of


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
    """scene.owner_of for the points pts, (3,) or (P, 3), against every voxel of sc."""
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    d = pts[:, None, :] - sc.positions()[None, :, :]
    return owner_of(d, np.linalg.norm(d, axis=-1), sc.voxel_pitch)


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)
