"""Which SciPy modules a run loads: only those it uses.

`import fluctem` and a scene build need scipy.linalg (the LDL^T) and
scipy.fft (the lattice routes).  The spline of tabulated materials and the
window quadrature of the polariton norm import theirs on first use.  The
check is on sys.modules in a fresh interpreter, not on a timing.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

SCRIPT = """
import sys
import numpy as np
import fluctem, fluctem.cli
from fluctem import build_scene, polariton
from fluctem.material import DrudeLorentzModel, TabulatedPermittivity

scene = build_scene({"box_side": 40.0, "voxel_pitch": 0.2, "primitives": [
    {"shape": "sphere", "radius": 1.2,
     "material": {"type": "drude_lorentz", "omega_p": 1.2, "omega_0": 0.9, "gamma": 0.4}}]})
assert scene.n_voxels == 739, scene.n_voxels
unused = ("scipy.integrate", "scipy.interpolate", "scipy.spatial", "scipy.optimize", "scipy.sparse")
print(sorted(m for m in unused if m in sys.modules))

# the function-level imports still serve their one caller each
print(repr(polariton.window_integral_norm(DrudeLorentzModel(1.2, 0.9, 0.4), 1.0).ratio))
ws = np.linspace(0.5, 2.0, 7)
tab = TabulatedPermittivity(tuple(ws), tuple(2.0 + 1 / w + 0.1j * w for w in ws))
print(repr(tab.eval(0.7)), repr(tab.eval(1.3)))
"""


def test_import_and_scene_build_load_no_unused_scipy_module():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-c", SCRIPT], env=env, capture_output=True,
                         text=True, check=True).stdout.splitlines()
    assert out[0] == "[]"
    ratio = float(out[1])
    eps = [complex(v) for v in out[2].split()]
    assert abs(ratio - 0.9964935834386226) < 1e-12
    assert abs(eps[0] - (3.4287593279387205 + 0.07j)) < 1e-12
    assert abs(eps[1] - (2.769227032673497 + 0.13j)) < 1e-12
