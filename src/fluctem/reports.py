"""CSV/JSON artifact writers with deterministic, round-trip float formatting."""

from __future__ import annotations

import csv
import hashlib
import json
from pathlib import Path

import numpy as np


def _f(x):
    """Shortest round-trip decimal form; bit-identical across reruns."""
    return repr(float(x))


def sha256_file(path):
    h = hashlib.sha256()
    h.update(Path(path).read_bytes())
    return h.hexdigest()


def write_dyadic_block_csv(block, path):
    """(target index, source index, row, col, re, im) plus a JSON sidecar."""
    path = Path(path)
    with path.open("w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["target", "source", "row", "col", "re", "im"])
        T, S = block.values.shape[:2]
        for t in range(T):
            for s in range(S):
                for i in range(3):
                    for j in range(3):
                        v = block.values[t, s, i, j]
                        w.writerow([t, s, i, j, _f(v.real), _f(v.imag)])
    sidecar = {
        "omega": block.omega,
        "metadata": block.metadata,
        "targets": [list(map(float, p)) for p in block.target_points],
        "sources": [list(map(float, p)) for p in block.source_points],
    }
    path.with_suffix(".json").write_text(json.dumps(sidecar, sort_keys=True, indent=1))
    return path


def write_density_csv(path, rows):
    """rows: iterables (omega, a, b, i, j, value, provenance, T, ordering)."""
    path = Path(path)
    with path.open("w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["omega", "ax", "ay", "az", "bx", "by", "bz",
                    "row", "col", "re", "im", "provenance", "T", "ordering"])
        for (omega, a, b, i, j, v, prov, temp, ordering) in rows:
            w.writerow([_f(omega), _f(a[0]), _f(a[1]), _f(a[2]),
                        _f(b[0]), _f(b[1]), _f(b[2]), i, j,
                        _f(v.real), _f(v.imag), prov,
                        "" if temp is None else _f(temp), ordering or ""])
    return path


def density_rows(density, T=None, ordering=None):
    for i in range(3):
        for j in range(3):
            yield (density.omega, density.a, density.b, i, j,
                   density.value[i, j], density.provenance, T, ordering)


def write_spectral_csv(path, entries):
    """entries: SpectralDensity records; one row per tensor component."""
    path = Path(path)
    with path.open("w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["omega", "row", "col", "re", "im", "mode_count", "box_side"])
        for s in entries:
            for i in range(3):
                for j in range(3):
                    v = s.value[i, j]
                    w.writerow([_f(s.omega), i, j, _f(v.real), _f(v.imag),
                                s.mode_count, _f(s.box_side)])
    return path


def write_dispersion_csv(path, branch_points):
    path = Path(path)
    with path.open("w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["omega_alpha", "branch", "re_omega", "im_omega", "residual"])
        for bp in branch_points:
            w.writerow([_f(bp.omega_alpha), bp.branch, _f(bp.Omega.real),
                        _f(bp.Omega.imag), _f(bp.residual)])
    return path


def write_force_json(path, force):
    path = Path(path)
    payload = {
        "total": [_f(x) for x in force.total],
        "ordering_anti": [_f(x) for x in force.ordering_anti],
        "ordering_bose": [_f(x) for x in force.ordering_bose],
        "omega_grid": {
            "min": _f(force.omega_grid[0]),
            "max": _f(force.omega_grid[-1]),
            "points": int(force.omega_grid.size),
        },
        "tail_fraction": _f(force.tail_fraction),
        "metadata": force.metadata,
    }
    path.write_text(json.dumps(payload, sort_keys=True, indent=1))
    return path


def write_per_voxel_force_csv(path, scene, body, force):
    path = Path(path)
    with path.open("w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["voxel", "x", "y", "z", "fx", "fy", "fz"])
        for row, i in enumerate(body.voxel_indices):
            p = scene.scatterer_voxels[i][0]
            f = force.per_voxel[row]
            w.writerow([i, _f(p[0]), _f(p[1]), _f(p[2]), _f(f[0]), _f(f[1]), _f(f[2])])
    return path


def write_manifest(outdir, config_text, artifacts, extra=None, wall_time=None):
    """manifest.json: config digest, per-artifact digests, library versions.

    Wall time is informational and excluded from all digests, so reruns with
    the same config produce identical artifact digests.
    """
    import scipy

    from . import __version__

    outdir = Path(outdir)
    manifest = {
        "config_sha256": hashlib.sha256(config_text.encode()).hexdigest(),
        "artifacts": {Path(p).name: sha256_file(p) for p in artifacts},
        "versions": {
            "fluctem": __version__,
            "numpy": np.__version__,
            "scipy": scipy.__version__,
        },
    }
    if extra:
        manifest["run"] = extra
    if wall_time is not None:
        manifest["wall_time_s"] = wall_time
    path = outdir / "manifest.json"
    path.write_text(json.dumps(manifest, sort_keys=True, indent=1))
    return path
