"""Geometry: voxelized scatterer, absorbing far shell, sphere quadratures.

The scatterer lives as cubic voxels (material constant per voxel) strictly
inside the inner radius R2 of an optional spherically symmetric absorbing
shell R2 <= r <= R1.  Scenes are immutable after construction and every
query is pure, so frequency sweeps can share one Scene across workers.
"""

from __future__ import annotations

import hashlib
import json
import warnings
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from .material import VACUUM, DrudeLorentzModel, TabulatedPermittivity, Vacuum


class SceneError(ValueError):
    pass


@dataclass(frozen=True)
class Shell:
    inner_radius: float
    outer_radius: float
    material: object

    def attenuation_length(self, omega, c=1.0):
        """1 / Imag[omega sqrt(eps) / c]: the amplitude e-folding distance."""
        eps = self.material.eval(omega)
        im = np.imag(np.sqrt(eps)) * omega / c
        return float(1.0 / im) if im > 0 else np.inf


@dataclass(frozen=True)
class Scene:
    box_side: float
    voxel_pitch: float
    scatterer_voxels: tuple  # ((x, y, z), material) sorted lexicographically
    shell: Shell | None = None  # the absorbing far shell, when the scene has one

    @property
    def n_voxels(self):
        return len(self.scatterer_voxels)

    @property
    def voxel_volume(self):
        return self.voxel_pitch**3

    def positions(self):
        if not self.scatterer_voxels:
            return np.zeros((0, 3))
        return np.array([p for p, _ in self.scatterer_voxels], dtype=float)

    def chi_at(self, omega):
        """eps - 1 per scatterer voxel at omega, each material evaluated once per value.

        Shape (N,) at one frequency; at a 1-D array of F frequencies, (F, N),
        each material evaluated once on the whole array.  Equal frozen
        dataclasses share one evaluation; unhashable materials key by
        identity.  Each object is hashed once: a long table hashes slowly.
        """
        by_value, by_id = {}, {}
        for _, m in self.scatterer_voxels:
            if id(m) not in by_id:
                key = m if m.__hash__ else id(m)
                if key not in by_value:
                    by_value[key] = m.eval(omega) - 1.0
                by_id[id(m)] = by_value[key]
        if np.ndim(omega) == 0:
            return np.array([by_id[id(m)] for _, m in self.scatterer_voxels], dtype=complex)
        # a material may return one value for every frequency, as Vacuum does
        shape = np.shape(omega)
        chi = np.array([np.broadcast_to(by_id[id(m)], shape) for _, m in self.scatterer_voxels],
                       dtype=complex)
        return np.moveaxis(chi.reshape((self.n_voxels,) + shape), 0, -1)

    @cached_property
    def lattice(self):
        """The voxels' integer cell coordinates (a Lattice), or None off-lattice.

        Computed once per scene; see _lattice for the rule.
        """
        return _lattice(self.positions(), self.voxel_pitch)

    def digest(self):
        """Stable content hash recorded in artifact metadata."""
        payload = {
            "box_side": self.box_side,
            "voxel_pitch": self.voxel_pitch,
            "voxels": [[list(p), _material_tag(m)] for p, m in self.scatterer_voxels],
            "shell": None
            if self.shell is None
            else [self.shell.inner_radius, self.shell.outer_radius, _material_tag(self.shell.material)],
            # kept so that recorded digests stay valid: a shell is always active
            "shell_enabled": self.shell is not None,
        }
        return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()[:16]

    def placement(self, pts):
        """Where the points pts, (P, 3) or (3,), sit: (owner, distance), each (P,).

        owner is the voxel that holds each point (owner_of), -1 outside every
        voxel; distance is the one to the nearest voxel centre, inf without
        voxels.
        """
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        pos = self.positions()
        owner = np.full(len(pts), -1)
        distance = np.full(len(pts), np.inf)
        step = max(1, 2**16 // max(len(pos), 1))  # 2^16 point-voxel pairs: 1.5 MiB of d
        for i in range(0, len(pts), step):
            d = pts[i:i + step, None, :] - pos[None, :, :]
            r = _lengths(d)
            owner[i:i + step] = owner_of(d, r, self.voxel_pitch)
            distance[i:i + step] = r.min(axis=1, initial=np.inf)
        return owner, distance


def _lengths(d):
    """|d| over the last axis: the bits of np.linalg.norm(d, axis=-1), without its wrapper."""
    return np.sqrt(np.add.reduce(d * d, axis=-1))


def owner_of(d, r, pitch):
    """The owning voxel of each point from its separations d = pts - centres.

    d is (P, N, 3) and r (P, N) their lengths.  A point belongs to the first
    voxel, in the scene's sorted order, whose closed cube holds it:
    |d|_inf <= pitch / 2, faces inside to 1e-12.  Returns (P,) indices, -1
    for a point outside every voxel.
    """
    h = pitch / 2.0 + 1e-12
    if r.size <= 100:
        # on a few pairs the filter below costs more than testing them all
        inside = np.abs(d).max(axis=-1) <= h
    else:
        # a cube lies within sqrt(3) h of its centre: only those pairs are tested
        near = r <= 1.75 * h
        inside = np.zeros_like(near)
        inside[near] = np.max(np.abs(d[near]), axis=-1) <= h
    if not inside.shape[1]:  # no voxels: argmax has nothing to reduce
        return np.full(len(inside), -1)
    return np.where(inside.any(axis=1), inside.argmax(axis=1), -1)


@dataclass(frozen=True, eq=False)
class Lattice:
    """Voxels on one cubic lattice: centre v = origin + pitch * cells[v].

    cells are non-negative integers inside the bounding box shape; each
    cell holds at most one voxel.  The origin is the per-axis minimum of the
    centres.
    """

    pitch: float
    cells: np.ndarray  # (N, 3) int64
    shape: tuple  # cells per axis


def _lattice(pos, pitch):
    """A Lattice when every centre is origin + pitch * m to 1e-9 pitch, else None.

    The origin is the per-axis minimum of the centres.  Two centres in one
    cell, or a bounding box of 2^62 cells or more, also give None.
    """
    if not len(pos):
        return None
    origin = pos.min(axis=0)
    t = (pos - origin) / pitch
    cells = np.rint(t)
    if np.abs(t - cells).max() > 1e-9:
        return None
    shape = cells.max(axis=0) + 1
    if np.prod(shape) >= 2.0**62:
        return None
    cells = cells.astype(np.int64)
    shape = tuple(int(L) for L in shape)
    if len(np.unique(np.ravel_multi_index(tuple(cells.T), shape))) < len(cells):
        return None
    return Lattice(float(pitch), cells, shape)


# a cell itself, then the 13 of its 26 neighbours that follow it in key order
_FORWARD = [(0, 0, 0), (0, 0, 1), (0, 1, -1), (0, 1, 0), (0, 1, 1)] + [
    (1, dy, dz) for dy in (-1, 0, 1) for dz in (-1, 0, 1)
]


def _any_pair_within(pos, dmin):
    """Whether two of the centres pos (N, 3) lie at distance <= dmin.

    Centres are binned into cubic cells a hair wider than dmin, so a close
    pair shares a cell or sits in two touching ones, and every cell that
    holds no close pair holds at most 15 centres.  Sorted by cell, each
    centre meets the others in its cell and in its 13 forward neighbours,
    one index offset within the met cell per pass: O(N log N) time, O(N)
    memory.  The centres must be finite.
    """
    if len(pos) < 2:
        return False
    # the margin absorbs the rounding of the binning: a pair within dmin
    # lands in cells at most one apart on every axis while the scene spans
    # fewer than 1e9 cells.  Lattice centres sit mid-cell, one to a cell
    t = (pos - pos.min(axis=0)) / (dmin * (1 + 1e-6))
    cells = np.floor(t + 0.5).astype(np.int64)
    # per axis, steps of 0 and 1 between occupied cells stay, longer ones
    # become 2: neighbours stay neighbours, and the key below is bounded by
    # the voxel count (it fits int64 below 2^20 voxels), not the extent
    for ax in range(3):
        u, inv = np.unique(cells[:, ax], return_inverse=True)
        cells[:, ax] = np.concatenate(([1], 1 + np.cumsum(np.minimum(np.diff(u), 2))))[inv]
    L = cells.max(axis=0) + 2  # a free cell either side of every axis
    if np.prod(L, dtype=float) >= 2.0**63:
        raise SceneError("too many scatterer voxels for the overlap check")
    key = (cells[:, 0] * L[1] + cells[:, 1]) * L[2] + cells[:, 2]
    order = np.argsort(key, kind="stable")
    key, pos = key[order], pos[order]

    def close(i, j):
        d = pos[i] - pos[j]
        return bool(np.any(np.einsum("ij,ij->i", d, d) <= dmin * dmin))

    # a centre meets those after it in its own cell, and that comes first, so
    # no neighbour cell met later holds more than 15 centres
    after = np.arange(1, len(key) + 1)
    for dx, dy, dz in _FORWARD:
        target = key + (dx * L[1] + dy) * L[2] + dz
        lo = after if (dx, dy, dz) == (0, 0, 0) else np.searchsorted(key, target)
        hi = np.searchsorted(key, target, side="right")
        for k in range(len(key)):
            i = np.flatnonzero(lo + k < hi)
            if not i.size:
                break
            if close(i, lo[i] + k):
                return True
    return False


def _material_tag(m):
    if isinstance(m, Vacuum):
        return "vacuum"
    if isinstance(m, DrudeLorentzModel):
        return ["drude_lorentz", m.omega_p, m.omega_0, m.gamma]
    if isinstance(m, TabulatedPermittivity):
        return ["table", list(m.omegas), [[v.real, v.imag] for v in m.values]]
    if hasattr(m, "eval"):  # custom material objects: digest by type and state
        state = getattr(m, "__dict__", {})
        return ["custom", type(m).__name__, sorted((k, repr(v)) for k, v in state.items())]
    raise SceneError(f"unknown material {m!r}")


def build_scene(config: dict, base_dir=".") -> Scene:
    """Materialize a Scene from a parsed configuration mapping.

    Recognized keys: box_side, voxel_pitch, voxels (explicit list of
    {position, material}), primitives (list of sphere/box entries filling
    the pitch lattice), shell {inner_radius, outer_radius, material,
    enabled}; a shell with enabled false is validated, then dropped.
    Materials are either material objects already or mappings with a
    'type' key; table paths are relative to base_dir.
    """
    box_side = float(config.get("box_side", 0.0))
    pitch = float(config.get("voxel_pitch", 0.0))
    if not 0 < pitch < np.inf:
        raise SceneError("voxel_pitch must be finite and > 0")
    if not 0 < box_side < np.inf:
        raise SceneError("box_side must be finite and > 0")

    voxels = []
    for entry in config.get("voxels", []):
        pos = tuple(float(v) for v in entry["position"])
        voxels.append((pos, _coerce_material(entry["material"], base_dir)))
    for prim in config.get("primitives", []):
        voxels.extend(_voxelize_primitive(prim, pitch, base_dir))

    voxels.sort(key=lambda pm: pm[0])
    pos = np.array([p for p, _ in voxels]) if voxels else np.zeros((0, 3))
    if not np.all(np.isfinite(pos)):
        raise SceneError("scatterer voxel positions must be finite")
    if _any_pair_within(pos, pitch * (1 - 1e-9)):
        raise SceneError("overlapping scatterer voxels (centers closer than one pitch)")

    shell = None
    shell_cfg = config.get("shell")
    if shell_cfg:
        r2 = float(shell_cfg["inner_radius"])
        r1 = float(shell_cfg["outer_radius"])
        if not (0 <= r2 < r1):
            raise SceneError(f"need inner_radius < outer_radius, got R2={r2}, R1={r1}")
        if r1 > box_side / 2:
            raise SceneError(f"outer_radius {r1} exceeds box_side/2 = {box_side/2}")
        material = _coerce_material(shell_cfg["material"], base_dir)
        if voxels:
            rmax = float(np.max(np.linalg.norm(pos, axis=1)))
            if rmax >= r2:
                raise SceneError(
                    f"scatterer voxel at radius {rmax:.4g} not strictly inside R2={r2}"
                )
        if shell_cfg.get("enabled", True):
            shell = Shell(r2, r1, material)

    return Scene(box_side=box_side, voxel_pitch=pitch, scatterer_voxels=tuple(voxels),
                 shell=shell)


def _coerce_material(m, base_dir="."):
    """A material object from itself, the name 'vacuum' or a config mapping.

    A drude_lorentz mapping with gamma below 1e-6 omega_L is clamped there,
    with a warning; a table mapping gives 'omegas' and 'values' inline or a
    'path' (relative to base_dir) to a CSV of omega, eps_real, eps_imag.
    """
    if isinstance(m, (Vacuum, DrudeLorentzModel, TabulatedPermittivity)):
        return m
    if isinstance(m, str):
        if m == "vacuum":
            return VACUUM
        raise SceneError(f"unknown material name {m!r}")
    if isinstance(m, dict):
        kind = m.get("type")
        if kind == "vacuum":
            return VACUUM
        if kind == "drude_lorentz":
            wp, w0, g = float(m["omega_p"]), float(m["omega_0"]), float(m["gamma"])
            gmin = 1e-6 * float(np.hypot(wp, w0))
            if g < gmin:
                warnings.warn(f"gamma clamped from {g:.3g} to {gmin:.3g} (1e-6 omega_L)")
                g = gmin
            return DrudeLorentzModel(wp, w0, g)
        if kind == "table":
            if "path" in m:
                data = np.loadtxt(Path(base_dir) / m["path"], delimiter=",", ndmin=2)
                if data.shape[1] != 3:
                    raise SceneError("permittivity table CSV needs columns omega,eps_real,eps_imag")
                return TabulatedPermittivity(tuple(data[:, 0]), tuple(data[:, 1] + 1j * data[:, 2]))
            om = [float(x) for x in m["omegas"]]
            vals = [complex(re, im) for re, im in m["values"]]
            return TabulatedPermittivity(tuple(om), tuple(vals))
        raise SceneError(f"unknown material type {kind!r}")
    raise SceneError(f"cannot interpret material {m!r}")


def _voxelize_primitive(prim, pitch, base_dir):
    """Lattice cells center + pitch * i whose cube lies inside the primitive.

    The cells come in C order of i, the order of a loop over ix, iy, iz.
    """
    mat = _coerce_material(prim["material"], base_dir)
    center = np.asarray(prim.get("center", (0.0, 0.0, 0.0)), dtype=float)
    kind = prim["shape"]
    if kind == "sphere":
        radius = float(prim["radius"])
        nmax = np.full(3, int(np.ceil(radius / pitch)) + 1)
    elif kind == "box":
        half = np.asarray(prim["half_size"], dtype=float)
        nmax = np.ceil(half / pitch).astype(int) + 1
    else:
        raise SceneError(f"unknown primitive shape {kind!r}")
    idx = np.indices(2 * nmax + 1).reshape(3, -1).T - nmax
    p = center + pitch * idx.astype(float)
    d = p - center
    if kind == "sphere":
        keep = np.sqrt((d * d).sum(axis=1)) <= radius - pitch / 2 + 1e-12
    else:
        keep = np.all(np.abs(d) <= half - pitch / 2 + 1e-12, axis=1)
    return [(tuple(q), mat) for q in p[keep]]


@dataclass(frozen=True)
class SurfaceQuadrature:
    """Nodes, outward normals and weights partitioning a sphere of radius R.

    Product rule: Gauss-Legendre in cos(theta) times a uniform azimuth grid,
    exact for spherical harmonics up to degree ``exactness_degree``.
    """

    radius: float
    nodes: np.ndarray  # (N, 3)
    normals: np.ndarray  # (N, 3)
    weights: np.ndarray  # (N,)
    exactness_degree: int


def sphere_quadrature(radius, order) -> SurfaceQuadrature:
    """Product Gauss-Legendre x uniform-azimuth rule on a sphere.

    order >= 6 sets the number of polar nodes; 2*order azimuthal nodes.
    Weights sum to the sphere area 4 pi R^2 to machine precision.
    """
    order = int(order)
    if order < 6:
        raise SceneError("sphere_quadrature needs order >= 6")
    if radius <= 0:
        raise SceneError("radius must be > 0")
    ct, wt = np.polynomial.legendre.leggauss(order)
    nphi = 2 * order
    phi = 2 * np.pi * np.arange(nphi) / nphi
    st = np.sqrt(1 - ct**2)
    dirs = np.empty((order * nphi, 3))
    w = np.empty(order * nphi)
    idx = 0
    for i in range(order):
        dirs[idx : idx + nphi, 0] = st[i] * np.cos(phi)
        dirs[idx : idx + nphi, 1] = st[i] * np.sin(phi)
        dirs[idx : idx + nphi, 2] = ct[i]
        w[idx : idx + nphi] = wt[i] * (2 * np.pi / nphi) * radius**2
        idx += nphi
    return SurfaceQuadrature(
        radius=float(radius),
        nodes=radius * dirs,
        normals=dirs,
        weights=w,
        exactness_degree=2 * order - 1,
    )


@dataclass(frozen=True)
class ShellNodes:
    """Volume quadrature covering the shell annulus R2 <= |x| <= R1."""

    positions: np.ndarray  # (N, 3)
    weights: np.ndarray  # (N,)


def shell_voxelization(scene: Scene, shell_pitch, omega=None, n_theta=24, c=1.0) -> ShellNodes:
    """Quadrature nodes with volume weights covering V1 - V2.

    Radial Gauss-Legendre nodes (mean spacing <= shell_pitch) times the
    sphere product rule; weights sum to the exact annulus volume.  When
    omega is given, shell_pitch must resolve the shell skin depth
    (attenuation length / 4), otherwise the call errors naming the
    frequency.
    """
    if scene.shell is None or scene.shell.outer_radius <= scene.shell.inner_radius:
        return ShellNodes(np.zeros((0, 3)), np.zeros(0))
    r2, r1 = scene.shell.inner_radius, scene.shell.outer_radius
    if shell_pitch <= 0:
        raise SceneError("shell_pitch must be > 0")
    if omega is not None:
        skin = scene.shell.attenuation_length(omega, c=c)
        if shell_pitch > skin / 4:
            raise SceneError(
                f"shell_pitch {shell_pitch:.4g} too coarse at omega={omega:.6g}: "
                f"skin depth {skin:.4g} requires pitch <= {skin/4:.4g}"
            )
    n_r = max(8, int(np.ceil((r1 - r2) / shell_pitch)))
    xr, wr = np.polynomial.legendre.leggauss(n_r)
    rr = 0.5 * (xr + 1) * (r1 - r2) + r2
    wrr = 0.5 * (r1 - r2) * wr
    ang = sphere_quadrature(1.0, n_theta)
    pts = (rr[:, None, None] * ang.nodes[None, :, :]).reshape(-1, 3)
    w = (wrr[:, None] * (rr**2)[:, None] * ang.weights[None, :]).reshape(-1)
    return ShellNodes(pts, w)


def warn_if_thin_shell(scene: Scene, omega, c=1.0):
    """Warn when the shell is thinner than 3 attenuation lengths."""
    if scene.shell is None:
        return
    ell = scene.shell.attenuation_length(omega, c=c)
    thick = scene.shell.outer_radius - scene.shell.inner_radius
    if thick < 3.0 * ell:
        warnings.warn(
            f"shell thickness {thick:.3g} is below 3.0 attenuation lengths "
            f"({3.0 * ell:.3g}) at omega={omega:.6g}; residual incoming field "
            f"of order exp(-{thick/ell:.2f}) remains"
        )
