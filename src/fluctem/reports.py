"""CSV/JSON artifact writers with deterministic, round-trip float formatting.

Every artifact goes through write_csv or write_json, so one format holds for
all of them: floats as their shortest round-trip decimal (_f), CSV rows
from csv.writer (each ending in \\r\\n), JSON with sorted keys at indent 1
and no trailing newline.
"""

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


def write_csv(path, header, rows):
    """The header row, then each of rows, as CSV; returns the path."""
    path = Path(path)
    with path.open("w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)
    return path


def write_json(path, payload):
    """payload as JSON, keys sorted, at indent 1; returns the path."""
    path = Path(path)
    path.write_text(json.dumps(payload, sort_keys=True, indent=1))
    return path


def write_dyadic_block_csv(block, path):
    """(target index, source index, row, col, re, im) plus a JSON sidecar."""
    path = write_csv(path, ["target", "source", "row", "col", "re", "im"],
                     ([*idx, _f(v.real), _f(v.imag)] for idx, v in np.ndenumerate(block.values)))
    write_json(path.with_suffix(".json"), {
        "omega": block.omega,
        "metadata": block.metadata,
        "targets": [list(map(float, p)) for p in block.target_points],
        "sources": [list(map(float, p)) for p in block.source_points],
    })
    return path


def write_density_csv(path, densities, T=None, ordering=None):
    """One row per tensor component of each CorrelatorDensity; T and ordering blank when None."""
    temp = "" if T is None else _f(T)
    return write_csv(path, ["omega", "ax", "ay", "az", "bx", "by", "bz",
                            "row", "col", "re", "im", "provenance", "T", "ordering"],
                     ([_f(d.omega), *map(_f, d.a), *map(_f, d.b), *ij, _f(v.real), _f(v.imag),
                       d.provenance, temp, ordering or ""]
                      for d in densities for ij, v in np.ndenumerate(d.value)))


def write_spectral_csv(path, entries):
    """entries: SpectralDensity records; one row per tensor component."""
    return write_csv(path, ["omega", "row", "col", "re", "im", "mode_count", "box_side"],
                     ([_f(s.omega), *ij, _f(v.real), _f(v.imag), s.mode_count, _f(s.box_side)]
                      for s in entries for ij, v in np.ndenumerate(s.value)))


def write_dispersion_csv(path, branch_points):
    return write_csv(path, ["omega_alpha", "branch", "re_omega", "im_omega", "residual"],
                     ([_f(bp.omega_alpha), bp.branch, _f(bp.Omega.real), _f(bp.Omega.imag),
                       _f(bp.residual)] for bp in branch_points))


def write_force_json(path, force):
    return write_json(path, {
        "total": [_f(x) for x in force.total],
        "ordering_anti": [_f(x) for x in force.ordering_anti],
        "ordering_bose": [_f(x) for x in force.ordering_bose],
        "omega_grid": {
            "min": _f(force.omega_grid[0]),
            "max": _f(force.omega_grid[-1]),
            "points": int(force.omega_grid.size),
        },
        "tail_fraction": _f(force.tail_fraction),
        # the solve record is a run diagnostic: the manifest's run block holds it
        "metadata": {k: v for k, v in force.metadata.items() if k != "solve"},
    })


def write_per_voxel_force_csv(path, scene, body, force):
    return write_csv(path, ["voxel", "x", "y", "z", "fx", "fy", "fz"],
                     ([i, *map(_f, scene.scatterer_voxels[i][0]), *map(_f, f)]
                      for i, f in zip(body.voxel_indices, force.per_voxel)))


def write_manifest(outdir, config_text, artifacts, extra=None, wall_time=None):
    """manifest.json: config digest, per-artifact digests, library versions.

    Wall time is informational and excluded from all digests, so reruns with
    the same config produce identical artifact digests.
    """
    import scipy

    from . import __version__

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
    return write_json(Path(outdir) / "manifest.json", manifest)
