"""Opt-in scaling report: solver set-up, LU time and peak RSS against N.

    python3 perfbench/scaling.py    # spheres of N = 179, 739, 1791

Not a gated workload and not part of BENCHMARK.json.  Each sphere (pitch
0.2, the workloads' Drude-Lorentz material) runs in a process of its own,
so that ru_maxrss peaks do not pile up.  The process builds the scene and
computes one LDOS at omega = 1 with the tracer on, which assembles and
factorizes the interaction matrix once.  One JSON line per size; N = 1791
needs about 2.5 GB of memory and ten seconds.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
RADII = (0.8, 1.2, 1.6)  # N = 179, 739, 1791 at pitch 0.2


def measure(radius):
    from worker import import_program, peak_rss_mb

    fl = import_program()
    from tracing import Tracer
    from workloads import sphere_scene

    scene = sphere_scene(radius)
    tracer = Tracer()
    tracer.install()
    tracer.enabled = True
    fl.ldos(scene, 1.0, [0.0, 0.0, radius + 0.5], [1.0, 0.0, 0.0])
    tracer.uninstall()
    m = tracer.layer_metrics()
    return {"radius": radius, "voxels": scene.n_voxels,
            "greens.solver_init.s": m["greens.solver_init.s"],
            "greens.lu_factor.s": m["greens.lu_factor.s"],
            "greens.matrix_mb": m["greens.matrix_mb"],
            "peak_rss_mb": peak_rss_mb()}


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--case", type=float, help=argparse.SUPPRESS)  # one size, in-process
    args = p.parse_args(argv)
    if args.case is not None:
        print(json.dumps(measure(args.case)))
        return 0
    for r in RADII:
        proc = subprocess.run([sys.executable, str(HERE / "scaling.py"), "--case", repr(r)],
                              capture_output=True, text=True, timeout=600)
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return 1
        print(proc.stdout.strip().splitlines()[-1], flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
