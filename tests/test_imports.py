"""Which SciPy modules a run loads: only those it uses.

`import fluctem` (with `fluctem.cli`) and a scene build load no SciPy
submodule.  The factor route imports scipy.linalg (the LDL^T) on its first
factorization; the lattice routes and the mode sum's Chebyshev test import
scipy.fft on their first transform, as the spline of tabulated materials and
the window quadrature of the polariton norm import theirs.  Each check is on
sys.modules in a fresh interpreter, not on a timing.
"""

import os
import subprocess
import sys
from pathlib import Path

import scipy.fft

from fluctem.greens import _next_fast_len

ROOT = Path(__file__).resolve().parents[1]

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
unused = ("scipy.linalg", "scipy.fft", "scipy.integrate", "scipy.interpolate", "scipy.spatial",
          "scipy.optimize", "scipy.sparse", "concurrent.futures")
print(sorted(m for m in unused if m in sys.modules))

# the function-level imports still serve their one caller each
print(repr(polariton.window_integral_norm(DrudeLorentzModel(1.2, 0.9, 0.4), 1.0).ratio))
ws = np.linspace(0.5, 2.0, 7)
tab = TabulatedPermittivity(tuple(ws), tuple(2.0 + 1 / w + 0.1j * w for w in ws))
print(repr(tab.eval(0.7)), repr(tab.eval(1.3)))
"""

# one subcommand through the CLI, then which of the lazily loaded modules it loaded
RUN = """
import sys
from fluctem.cli import run_subcommand

print(run_subcommand(sys.argv[1], sys.argv[2], sys.argv[3]))
print(sorted(m for m in ("scipy.linalg", "scipy.fft") if m in sys.modules))
"""


def _fresh(script, *args):
    """stdout lines of script run in a new interpreter on this checkout's src/."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run([sys.executable, "-c", script, *args], env=env, capture_output=True,
                          text=True, check=True).stdout.splitlines()


def test_import_and_scene_build_load_no_unused_scipy_module():
    out = _fresh(SCRIPT)
    assert out[0] == "[]"
    ratio = float(out[1])
    eps = [complex(v) for v in out[2].split()]
    assert abs(ratio - 0.9964935834386226) < 1e-12
    assert abs(eps[0] - (3.4287593279387205 + 0.07j)) < 1e-12
    assert abs(eps[1] - (2.769227032673497 + 0.13j)) < 1e-12


def test_casimir_run_loads_neither_lapack_nor_fft(tmp_path):
    # the stacked sweep solves with numpy.linalg.solve and factors nothing
    out = _fresh(RUN, "casimir", str(ROOT / "configs" / "casimir.yaml"), str(tmp_path))
    assert out == ["0", "[]"]


def test_one_voxel_ldos_loads_lapack_not_fft(tmp_path):
    # reference.yaml's one voxel is off the FFT grid bound: it factors S and transforms nothing
    out = _fresh(RUN, "ldos", str(ROOT / "configs" / "reference.yaml"), str(tmp_path))
    assert out == ["0", "['scipy.linalg']"]


def test_next_fast_len_matches_scipy():
    assert all(_next_fast_len(n) == scipy.fft.next_fast_len(n) for n in range(1, 5001))
