"""Periodic-box plane-wave basis, scattered mode fields and mode-sum densities.

The quantization box of side L only enters through the discrete wave vectors
k = 2 pi n / L; every propagation problem stays open-space with the
outgoing-wave vacuum tensor.  Mode amplitudes carry the normalization
|A|^2 V = hbar w / 2, so summing E (x) E*(y) over a frequency bin and
dividing by the bin width estimates the same spectral density as
(hbar/pi) (w/c)^2 Imag G(x, y), which is the box-to-continuum bridge the
tests exercise.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .constants import DEFAULT, Constants
from . import greens
from .greens import EffectiveSolver


# the nested Chebyshev-Lobatto node counts across a mode-sum bin (each
# count's nodes are every second one of the next), and the size of the two
# trailing Chebyshev coefficients of W(omega), relative to the largest, at
# which a count resolves W: the relative accuracy the interpolated W keeps,
# three decades under the 1e-5 to which perfbench/reference.json pins the
# headline values.  The N = 179 sphere's bin stops at 9 nodes (tail 3.2e-9,
# its value 2.6e-13 from the 17-node one's); 5 never resolved W there
_NODES = (5, 9, 17)
_TAIL_TOLERANCE = 1e-8


class ModeError(ValueError):
    pass


@dataclass(frozen=True)
class ModeBasis:
    box_side: float
    n_index: np.ndarray  # (M, 3) integer triples
    k: np.ndarray  # (M, 3)
    pol: np.ndarray  # (M, 3) unit polarization vectors
    omega_alpha: np.ndarray  # (M,)
    amplitude: np.ndarray  # (M,) real, |A|^2 V = hbar w / 2
    metadata: dict = field(default_factory=dict, compare=False)

    def __len__(self):
        return len(self.omega_alpha)


def _polarization_pair(khat):
    """Deterministic transverse dyad: e1 = z x khat (x if k || z), e2 = khat x e1."""
    z = np.array([0.0, 0.0, 1.0])
    e1 = np.cross(z, khat)
    n1 = np.linalg.norm(e1, axis=-1)
    degenerate = n1 < 1e-12
    e1[degenerate] = np.array([1.0, 0.0, 0.0])
    n1 = np.where(degenerate, 1.0, n1)
    e1 = e1 / n1[..., None]
    e2 = np.cross(khat, e1)
    return e1, e2


def enumerate_modes(L, omega_max, const: Constants = DEFAULT, max_modes=4_000_000) -> ModeBasis:
    """All box modes with c |2 pi n / L| <= omega_max, two polarizations each.

    Deterministic ordering: by (|n|^2, n lexicographic, polarization).
    """
    L = float(L)
    c = const.c
    if L <= 0:
        raise ModeError("box side must be positive")
    if omega_max <= 2 * np.pi * c / L:
        raise ModeError(
            f"omega_max {omega_max} is below the first mode shell {2*np.pi*c/L:.6g}"
        )
    nmax = int(np.floor(L * omega_max / (2 * np.pi * c)))
    predicted = 2 * (4.0 / 3.0) * np.pi * (L * omega_max / (2 * np.pi * c)) ** 3
    if predicted > 1.2 * max_modes + 64:
        raise ModeError(
            f"mode count ~{predicted:.3g} exceeds cap {max_modes}; "
            "shrink the box or omega_max"
        )
    rng = np.arange(-nmax, nmax + 1)
    n3 = np.array(np.meshgrid(rng, rng, rng, indexing="ij")).reshape(3, -1).T
    n2 = np.sum(n3 * n3, axis=1)
    keep = (n2 > 0) & (n2 <= (L * omega_max / (2 * np.pi * c)) ** 2)
    n3 = n3[keep]
    n2 = n2[keep]
    order = np.lexsort((n3[:, 2], n3[:, 1], n3[:, 0], n2))
    n3 = n3[order]
    if 2 * len(n3) > max_modes:
        raise ModeError(f"mode count {2*len(n3)} exceeds cap {max_modes}")
    k = (2 * np.pi / L) * n3.astype(float)
    knorm = np.linalg.norm(k, axis=1)
    khat = k / knorm[:, None]
    e1, e2 = _polarization_pair(khat.copy())
    om = c * knorm
    amp = np.sqrt(const.hbar * om / (2 * L**3))
    n_index = np.repeat(n3, 2, axis=0)
    kk = np.repeat(k, 2, axis=0)
    oo = np.repeat(om, 2)
    aa = np.repeat(amp, 2)
    pol = np.empty((2 * len(n3), 3))
    pol[0::2] = e1
    pol[1::2] = e2
    return ModeBasis(
        box_side=L,
        n_index=n_index,
        k=kk,
        pol=pol,
        omega_alpha=oo,
        amplitude=aa,
        metadata={"omega_max": float(omega_max), "n_max": nmax},
    )


def mode_field_vacuum(basis: ModeBasis, sel, pts):
    """Plane-wave fields A e exp(i k . x) for selected modes at points.

    Returns (M_sel, P, 3) complex.
    """
    pts = np.atleast_2d(pts)
    ph = np.exp(1j * (basis.k[sel] @ pts.T))  # (M, P)
    return basis.amplitude[sel, None, None] * basis.pol[sel, None, :] * ph[:, :, None]


@dataclass(frozen=True)
class SpectralDensity:
    omega: float
    delta_omega: float
    value: np.ndarray  # (3, 3) per unit frequency
    mode_count: int
    window: str
    box_side: float
    metadata: dict = field(default_factory=dict, compare=False)


def default_bin_width(L, omega, const: Constants = DEFAULT):
    """Recorded per run; keeps well over 20 modes per bin for any L > sqrt(pi)."""
    c = const.c
    return 10.0 * (2 * np.pi * c / L) * (c / omega) ** 2


def mode_sum_spectral_density(scene, a, b, omega_center, delta_omega, basis: ModeBasis,
                              window="boxcar", const: Constants = DEFAULT,
                              min_modes=20) -> SpectralDensity:
    """Binned mode sum E(a) (x) E*(b) / (bin measure) around omega_center.

    scene=None sums the bare plane waves; with a scene the scattered mode
    fields enter.  window='boxcar' is the sharp bin; 'hann' tapers the bin
    edges (smoother box-size convergence, same normalization).  The
    metadata records the solves made, the Chebyshev node count (None when
    each frequency group is solved), the final coefficient tail and the
    tail tolerance the node count was held to.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if delta_omega is None:
        delta_omega = default_bin_width(basis.box_side, omega_center, const)
    lo, hi = omega_center - delta_omega / 2, omega_center + delta_omega / 2
    sel = np.nonzero((basis.omega_alpha >= lo) & (basis.omega_alpha <= hi))[0]
    if sel.size == 0:
        raise ModeError(
            f"no modes in [{lo:.6g}, {hi:.6g}]; enlarge the box or the bin"
        )
    if sel.size < min_modes:
        warnings.warn(f"only {sel.size} modes in the bin (guard is {min_modes})")
    x = (basis.omega_alpha[sel] - omega_center) / (delta_omega / 2)
    if window == "boxcar":
        wts = np.ones_like(x)
        norm = delta_omega
    elif window == "hann":
        wts = np.cos(np.pi * x / 2) ** 2
        norm = delta_omega / 2
    else:
        raise ModeError(f"unknown window {window!r}")

    acc = np.zeros((3, 3), complex)
    use_scene = scene is not None and scene.n_voxels > 0
    pts = np.vstack([a, b])
    record = {"solves": 0, "nodes": None, "tail": None}
    if not use_scene:
        F = mode_field_vacuum(basis, sel, pts)  # (m, 2, 3): O(modes), no N-sized table
        acc += np.einsum("m,mi,mj->ij", wts, F[:, 0], np.conj(F[:, 1]))
    else:
        # group by identical mode frequency: one W serves a group
        omsel = basis.omega_alpha[sel]
        order = np.argsort(omsel, kind="stable")
        sel = sel[order]
        wts = wts[order]
        omsel = omsel[order]
        bounds = np.nonzero(np.diff(omsel) > 1e-12 * omega_center)[0] + 1
        groups = np.split(np.arange(sel.size), bounds)
        n = scene.n_voxels
        record, rows = _rows_by_group(scene, pts, omsel[[g[0] for g in groups]], const)
        tables = _axis_tables(basis, sel, scene.positions())
        amp_pol = basis.amplitude[sel, None] * basis.pol[sel]  # (M, 3)
        # wave vectors per block of the (wave vectors, N) phase table, under
        # the surface term's bound: 732 at N = 179, more than any group there
        # (336), so each group is one product; a group's fields are summed at
        # once.  The two polarizations of a wave vector sit next to each other
        # in every group and share its phase row
        step = max(1, greens._ASSEMBLY_BYTES // (16 * n))
        for W, g in zip(rows, groups):
            Wg = W.reshape(n, 18)  # rows (voxel), columns (j, point, i)
            kv = g[::2]
            T = np.empty((kv.size, 18), dtype=complex)
            for start in range(0, kv.size, step):
                kb = kv[start : start + step]
                # a one-row product goes through gemv, which may round
                # differently from a block's gemm: a lone wave vector takes two
                ph = _phases(tables, kb if kb.size > 1 else kb.repeat(2))
                T[start : start + step] = (ph @ Wg)[: kb.size]
            T = np.repeat(T, 2, axis=0)
            F = mode_field_vacuum(basis, sel[g], pts)  # (m, 2, 3)
            F = F + np.einsum("mj,mjc->mc", amp_pol[g], T.reshape(g.size, 3, 6)).reshape(
                g.size, 2, 3)
            acc += np.einsum("m,mi,mj->ij", wts[g], F[:, 0], np.conj(F[:, 1]))
    return SpectralDensity(
        omega=float(omega_center),
        delta_omega=float(delta_omega),
        value=acc / norm,
        mode_count=int(sel.size),
        window=window,
        box_side=basis.box_side,
        metadata={"scene": None if scene is None else scene.digest(),
                  "tolerance": _TAIL_TOLERANCE, **record},
    )


def _coupled_rows(scene, pts, omega, const):
    """W = chi A^-1 rows(pts)^T at omega, (3N, 3P), from one solve.

    The scattered field at pts is R chi A^-1 Ev with R = rows(pts); chi A^-1
    is symmetric, so one solve for W serves every mode of the frequency.
    """
    solver = EffectiveSolver(scene, omega, const=const)
    R = solver._coupling_rows(pts)
    return solver._solve(R.transpose(0, 2, 1, 3).reshape(3 * len(pts), -1).T)


def _rows_by_group(scene, pts, freqs, const):
    """W = chi A^-1 rows(pts)^T at each group frequency freqs (ascending), (3N, 6) each.

    W(omega) is analytic across the groups, so when there are more groups
    than _NODES[-1] it is solved at Chebyshev-Lobatto points of
    [freqs[0], freqs[-1]], going up the nested counts _NODES: each count
    adds the points between the last count's, and reuses those.  The first
    count whose two trailing Chebyshev coefficients (the DCT-I of the node
    values) fall below _TAIL_TOLERANCE of the largest carries W to the
    groups by barycentric interpolation (Berrut & Trefethen, SIAM Rev. 46,
    501 (2004)).  With fewer groups, or when no count resolves W (a
    resonance among the groups), each group is solved at its own frequency,
    one at a time.  Returns the record and an iterator over the groups' W.
    """
    record = {"solves": 0, "nodes": None, "tail": None}
    top = _NODES[-1] - 1
    if len(freqs) > top + 1:
        import scipy.fft as sfft  # as the lattice routes, loaded on first use

        mid, half = (freqs[0] + freqs[-1]) / 2, (freqs[-1] - freqs[0]) / 2
        # the most nodes' points, 1 .. -1; a smaller count takes every
        # (top / (count - 1))-th of them, so its points are these bits
        cheb = np.sin(np.pi * (top - 2 * np.arange(top + 1)) / (2 * top))
        solved = {}
        for count in _NODES:
            at = np.arange(0, top + 1, top // (count - 1))
            for j in at:
                if j not in solved:
                    solved[j] = _coupled_rows(scene, pts, mid + half * cheb[j], const)
            shape, values = solved[0].shape, np.stack([solved[j].ravel() for j in at])
            coef = np.abs(sfft.dct(values, type=1, axis=0)).max(axis=1)
            coef[[0, -1]] /= 2
            tail = float(coef[-2:].max() / coef.max()) if coef.max() else 0.0  # W = 0 at chi = 0
            record.update(solves=len(solved), tail=tail)
            if tail <= _TAIL_TOLERANCE:
                record["nodes"] = count
                interp = _barycentric(cheb[at], (freqs - mid) / half)
                return record, ((row @ values).reshape(shape) for row in interp)
    record["solves"] += len(freqs)
    return record, (_coupled_rows(scene, pts, f, const) for f in freqs)


def _barycentric(nodes, at):
    """(len(at), len(nodes)) rows carrying values at Chebyshev-Lobatto nodes to the points at.

    The barycentric formula of the second kind, weights (-1)^j, halved at
    the ends; a point on a node takes that node's value exactly.
    """
    w = (-1.0) ** np.arange(len(nodes))
    w[[0, -1]] /= 2
    d = at[:, None] - nodes
    hit = d == 0
    with np.errstate(divide="ignore", invalid="ignore"):
        rows = w / d
        rows /= rows.sum(axis=1, keepdims=True)
    on_node = hit.any(axis=1)
    rows[on_node] = hit[on_node]
    return rows


def _axis_tables(basis, sel, pts):
    """Per-axis factors of exp(i k . x) for the modes sel at the points pts.

    k = 2 pi n / L, so exp(i k . x) is the product over the axes of
    exp(2 pi i n_a x_a / L).  Each axis tables its factor over the distinct
    n_a of the modes and the distinct coordinates x_a of the points, which
    needs no lattice.  Returns, per axis, the table and each mode's and each
    point's index into it.
    """
    tables = []
    for n_a, x_a in zip(basis.n_index[sel].T, np.atleast_2d(pts).T):
        nu, ni = np.unique(n_a, return_inverse=True)
        xu, xi = np.unique(x_a, return_inverse=True)
        tables.append((np.exp((2j * np.pi / basis.box_side) * np.outer(nu, xu)), ni, xi))
    return tables


def _phases(tables, rows):
    """exp(i k . x), (len(rows), P), for the modes at positions rows of the tabled selection."""
    (t, ni, xi), *rest = tables
    ph = t[np.ix_(ni[rows], xi)]
    for t, ni, xi in rest:
        ph *= t[np.ix_(ni[rows], xi)]
    return ph
