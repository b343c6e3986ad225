"""Vacuum and effective dyadic Green tensors on voxelized scenes.

The effective tensor solves the volume integral equation

    G(x, x') = Gv(x, x') + (w^2/c^2) int du Gv(x, u) (eps(u) - 1) G(u, x')

by collocation on the voxel centers with a regularized self term (static
depolarization of an equal-volume sphere plus the radiative correction).

With M = dV (w/c)^2 Gv between voxel centers (the self term on its diagonal)
and C = diag(chi), chi = eps - 1, the collocation matrix A = I - M C is not
symmetric, but M is (reciprocity, Gv(v, u) = Gv(u, v)^T).  The solver
therefore works with the complex-symmetric S = I - C^1/2 M C^1/2 =
C^1/2 A C^-1/2, factored once per frequency by the Bunch-Kaufman LDL^T
(stable for symmetric indefinite matrices, about half the flops of LU).
Every caller radiates the polarization chi A^-1 rhs = C^1/2 S^-1 C^1/2 rhs,
so no step divides by chi and voxels with chi = 0 stay exact.

The first solve on the factor route assembles the one triangle of S that
LDL^T reads and factors it in place, so the solver never holds S beside its
factor: the factor takes the place of S.  On a lattice scene with an FFT
grid the blocks are gathered from one kernel table over the box's (2L-1)^3
displacements; elsewhere the kernel is evaluated on the N(N-1)/2 pairs.  A
solver has one owner and holds no lock; callers that run in parallel each
build their own.

Lattice scenes (Scene.lattice, the padded FFT grid no larger than S) can
take a second route that never forms S: COCG (van der Vorst & Melissen 1990)
on the Jacobi-scaled D^-1/2 S D^-1/2, D = diag S, each iteration one
zero-padded FFT convolution with the kernel table at shift 0 (Goodman,
Draine & Flatau 1991).  A column stops when its true residual passes LAPACK
zcgesv's test, ||b - S x||_inf <= sqrt(3N) u ||S||_inf ||x||_inf (u = 2^-53),
the backward error the double factorization guarantees.  Such a solver has
a work budget in column-matvecs, about the cost of assembling and factoring
S, and admits a solve to COCG only if its columns times the expected
iterations fit in what is left: the crossover follows from the budget.

A solver runs down one ladder, stacked-lu -> lattice-cocg -> dense-ldlt,
from the first route it qualifies for.  A system whose S fits _STACK_BYTES
at every frequency, where each call costs more than its flops, keeps S and
solves it by numpy's batched LU, measuring the backward error; only it may
carry an (F,) frequency axis, as the Casimir sweep does.  A solve that
would overrun the COCG budget (too many columns, too many solves, slow
convergence) or a COCG breakdown leaves COCG for good, and the factor route
serves that solve and every later one.  The memory charge follows the
route: a solver that starts on COCG is admitted against its grid's bytes,
and S is charged only when it must be formed, so a scene whose S would not
fit still runs while COCG serves it, and a solve that must leave COCG
raises MemoryError before allocating S.

The scatterer volume term of the dissipation identity needs the field at
every Gauss sub-node of every voxel.  On a lattice scene (Scene.lattice) the
field at sub-node j is a zero-padded 3-D FFT convolution of the polarization
with the kernel table K_j(m) = dV (w/c)^2 Gv(pitch m + sub_j), the own cell
holding the self term (Goodman, Draine & Flatau 1991).  The sub-nodes
sigma s, sigma in {+1, -1}^3, are mirror images of one another, and so are
their tables, K_{sigma s}(m)_ik = sigma_i sigma_k K_s(sigma m)_ik: one table
is built and transformed per mirror class (one at nsub = 2, eight at
nsub = 3), and each node reads it at the mirrored frequencies.  It is taken
when the padded grid needs no more bytes than S; one-voxel, sparse and
off-lattice scenes build dense coupling rows at the nodes instead.

The surface term of the dissipation identity is taken on the sphere at
infinity, a discrete optical theorem (Draine & Flatau 1994).  Far from every
source G(R r, s) -> e^{ikR}/(4 pi R) (I - r r) F_s(r) with the amplitude
F_s(r) = e^{-ik r.s} I + k^2 dV sum_v e^{-ik r.x_v} (chi X)_v(s), so the term
is (k / 16 pi^2) sum_i w_i F_a(r_i)^T (I - r_i r_i) conj(F_b(r_i)) over one
fixed direction rule: a (directions, N) phase table, built one block of
directions at a time, and its product with the polarization the other
terms radiate.  A sphere of finite radius R
differs from this limit by O(1/(kR)^2), by O(1/(kR)) behind an absorbing
shell.

A scene's absorbing far shell is not discretized into the matrix: its
effect on propagation is the accumulated complex path factor
exp(i (w/c) (sqrt(eps_shell) - 1) * path-length-in-shell), the leading
behaviour of a weak quasi-homogeneous absorber.  Tiny shells can instead be
voxelized explicitly (see tests) to bound the error of this treatment.  On
the sphere at infinity each amplitude takes the factor of the ray from its
source along r, which crosses the annulus exactly.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import warnings
from dataclasses import dataclass, field

import numpy as np

from .constants import DEFAULT, Constants
from .scene import (Scene, _lengths, owner_of, shell_voxelization, sphere_quadrature,
                    warn_if_thin_shell)

_EYE = np.eye(3)


class _LazyModule:
    """A module imported by the first attribute read through this stand-in."""

    def __init__(self, name):
        self._name = name

    def __getattr__(self, attr):
        return getattr(importlib.import_module(self._name), attr)


# scipy.linalg, imported by the first LDL^T (the factor route's zsytrf/zsytrs)
# and not by `import fluctem`: that import costs about 24 MB of RSS and
# 0.2 s (SciPy 1.17), which routes that never factor (stacked-lu, COCG)
# need not pay.  It is an object bound to a module attribute,
# not a PEP 562 module __getattr__, because the benchmark tracer
# (perfbench/tracing.py) reads greens.sla and rebinds it through
# vars(greens)["sla"]
sla = _LazyModule("scipy.linalg")

# polar order of the direction rule of the far-field surface term: 24
# Gauss-Legendre polar nodes times 48 azimuths, 1,152 directions.  On the
# N = 739 sphere the term moves by 4e-15 relative from order 12 to 32
_FAR_ORDER = 24

# largest (targets, 3, 3N) block of coupling rows alive at once; 32 MiB
# doubles the traced peak of the N = 179 noise density (82 MB against 39 MB)
_BLOCK_BYTES = 8 * 2**20

# the same bound for the chunks of voxel rows the assembly writes, each a
# slab of blocks right of its diagonal square; with 8 MiB chunks the
# allocator keeps their temporaries resident, and the N = 739 LDOS loop
# peaked at 246 MB RSS, against 242 MB at 2 MiB (as fast).  It also bounds
# the blocks of the (rows, N) phase tables of the surface term (directions)
# and the mode sum (wave vectors)
_ASSEMBLY_BYTES = 2 * 2**20

# column width of the LDL^T panels (LAPACK's default is 64); the workspace is
# 3N x this, so with S factored in place the N = 179 first solve peaks at
# 1.085x the matrix bytes (1.140x at 64), and at N = 739 it factors as fast
# as 64
_LDLT_PANEL = 32

# the largest estimated peak a solver admits.  A lattice solver with a COCG
# budget is charged its padded grid at _FFT_CELL_BYTES a cell; S is charged
# 2 x (3N)^2 x 16 bytes, S or its factor plus one more array as large as S
# (see EffectiveSolver._admit_matrix), when a solver forms it: at
# construction off the lattice or without a budget, else when a solve
# leaves COCG.  Either charge is checked before the allocation it covers
_MEMORY_CAP = 2 * 1024**3

# bytes per cell of the padded grid a lattice solver is charged: what the
# identity report, the widest user of the grid, holds in its volume term's
# convolutions (_lattice_fields): 18 complex numbers for the transformed
# polarization, 6 each for the kernel transforms of COCG (kept by the
# solver) and of one mirror class of sub-nodes, 12 for the two product
# buffers and 1 for a mirrored component, 43 in all, plus arrays as long as
# the voxels.  At N = 739 (a 21^3 grid) it charges 7.9 MiB, against a traced
# 7.3 MiB for the whole report (827 bytes a cell; 771 at N = 3,695, a 40^3
# grid), 5.9 MiB for its 6-column COCG solve and 3.3 MiB for an LDOS
_FFT_CELL_BYTES = 56 * 16

# a lattice solver's work budget, in column-matvecs, is this constant times
# (3N)^3 / (cells of the padded grid): about what assembly and LDL^T cost, in
# matvecs.  That ratio measured 4.6e-4 to 5.2e-4 at N = 389 and 4.5e-4 to
# 5.7e-4 at N = 739, with the triangle gathered from the kernel table (three
# runs, best of nine, one thread, shared machine).  At pitch 0.2 a 3-column
# solve at _COCG_ITERATIONS fits the budget of the N = 389 sphere (103), not
# N = 257 (29), where assembly, LDL^T and that solve against COCG read
# 68-72 against 56-83 ms and 24-38 against 52-60 ms (the same runs)
_COCG_BUDGET = 3.8e-4

# the iterations a lattice solver expects of its first solve, until one has
# run: 27-33 on the Drude-Lorentz spheres of N = 179 to 1189, any frequency
_COCG_ITERATIONS = 32

# the bound of the stacked-lu route on F stack_bytes(N, 0), S and its LU copy
# at F frequencies (N <= 30 at one); the Casimir sweep adds its rows.  At
# 2^18 casimir.yaml's pair stacks 113 frequencies, and its CLI run took
# 11-12 ms at 61.3 MB peak RSS, against 9.6-9.8 ms and 1.1 MB more at 2^20
# (medians of 9 runs, one BLAS thread, 2-core shared machine)
_STACK_BYTES = 2**18


class GreensError(RuntimeError):
    pass


def vacuum_green(omega, x, xp, c=1.0):
    """Outgoing-wave free-space dyadic at a single point pair.

    (I + (c^2/w^2) grad grad) exp(i w r / c) / (4 pi r), r = |x - xp|.
    Coincident points are an error; coincidence limits have dedicated
    handling where they are finite (the imaginary part).
    """
    x = np.asarray(x, dtype=float)
    xp = np.asarray(xp, dtype=float)
    if np.allclose(x, xp):
        raise GreensError("vacuum_green is singular at coincident points")
    return vacuum_green_block(omega, x[None, :], xp[None, :], c=c)[0, 0]


def _dyadic(d, r, k, scale=1.0, out=None):
    """scale * Gv for separations d (..., 3) of lengths r > 0, shape of k r + (3, 3).

    The one closed form of the outgoing dyadic,
    g [(1 + i/u - 1/u^2) I + (-1 - 3i/u + 3/u^2) rr], u = k r,
    g = exp(i u) / (4 pi r); the result is built in place in one array, out
    if given: any strided complex view of that shape, such as a transposed
    view of the layout a later product needs, so that costs no copy.  k and
    scale broadcast with r, so k of shape (F, 1, ...) adds a leading axis
    of F frequencies; scale must broadcast to the shape of k r.
    """
    u = k * r
    if out is None:
        out = np.empty(u.shape + (3, 3), dtype=complex)
    rh = d / r[..., None]
    np.multiply(rh[..., :, None], rh[..., None, :], out=out)
    del rh
    u2 = u**2
    out *= (-1 - 3j / u + 3 / u2)[..., None, None]
    diag = np.einsum("...ii->...i", out)  # a writeable view of the diagonal
    diag += (1 + 1j / u - 1 / u2)[..., None]
    g = np.exp(1j * u) / (4 * np.pi * r)
    # g on the left: numpy's complex product is not bitwise commutative
    return np.multiply((scale * g)[..., None, None], out, out=out)


def _dyadic_gradient(d, r, k, scale, out):
    """scale * d_j Gv for separations d (..., 3) of lengths r > 0, in out, shape of k r + (3, 3, 3).

    Axis -3 is j.  With _dyadic's Gv = f I + h rr, d_j Gv_ik = f' r_j delta_ik
    + (h/r) (delta_ij r_k + delta_jk r_i) + (h' - 2h/r) r_i r_j r_k, where
    f' = g/r (iu - 2 - 3i/u + 3/u^2) and h' = g/r (-iu + 4 + 9i/u - 9/u^2).
    k, scale and out (any strided complex view) as in _dyadic.
    """
    u = k * r
    rh = d / r[..., None]
    g_r = (scale / (4 * np.pi)) * np.exp(1j * u) / r**2  # scale g / r
    np.multiply(rh[..., :, None, None] * rh[..., None, :, None], rh[..., None, None, :], out=out)
    out *= (g_r * (-1j * u + 6 + 15j / u - 15 / u**2))[..., None, None, None]
    fr = (g_r * (1j * u - 2 - 3j / u + 3 / u**2))[..., None, None] * rh[..., :, None]  # f' r_j
    hr = (g_r * (-1 - 3j / u + 3 / u**2))[..., None, None] * rh[..., None, :]  # (h/r) r
    for diagonal, term in (("...jii->...ji", fr), ("...jjk->...jk", hr), ("...jij->...ji", hr)):
        np.einsum(diagonal, out)[...] += term  # a writeable view, as in _dyadic
    return out


def vacuum_green_block(omega, targets, sources, c=1.0):
    """Vacuum dyadics for all target/source pairs, shape (T, S, 3, 3)."""
    T = np.atleast_2d(np.asarray(targets, dtype=float))
    S = np.atleast_2d(np.asarray(sources, dtype=float))
    d = T[:, None, :] - S[None, :, :]
    r = np.linalg.norm(d, axis=-1)
    if np.any(r == 0):
        raise GreensError("vacuum_green_block hit a coincident target/source pair")
    return _dyadic(d, r, omega / c)


def vacuum_imag_coincidence(omega, c=1.0):
    """lim_{x'->x} Imag[Gv(x, x')] = (w / 6 pi c) I, the finite part."""
    return (omega / (6 * np.pi * c)) * _EYE


def self_term_coupling(omega, voxel_volume, c=1.0):
    """Diagonal coupling constant C_self so that C_self * chi enters A's diagonal.

    -1/3 (static depolarization of an equal-volume spherical cell)
    + i k^3 dV / (6 pi) (radiative reaction).
    """
    k = omega / c
    return -1.0 / 3.0 + 1j * k**3 * voxel_volume / (6 * np.pi)


def _separations(pts, pos, pitch):
    """(d, r, cells): p - x_u (P, N, 3), its lengths and the (point, voxel) owner cells, r = 1 there."""
    d = pts[:, None, :] - pos[None, :, :]
    r = _lengths(d)
    owner = owner_of(d, r, pitch)
    cells = np.flatnonzero(owner >= 0), owner[owner >= 0]
    r[cells] = 1.0  # r = 0 only inside the owner voxel, whose block the caller overwrites
    return d, r, cells


def _couplings(pts, pos, pitch, k, scale, cself, gradients=False):
    """(..., P, 3, 3N) couplings scale Gv(p - x_u) of points pts, (P, 3), to voxels at pos.

    C-ordered as [p, i, (u, k)], so each point's rows are the (3, 3N)
    operand of a product.  A point inside voxel u (owner_of) couples to it
    by the cell-averaged self term cself I.  k and scale broadcast as in
    _dyadic and cself over the leading axes, such as a frequency axis: k of
    shape (F, 1, 1), cself (F,).  With gradients, also the rows' gradients
    d/dp_j, (..., P, 3, 3, 3N) C-ordered as [p, j, i, (u, k)], from the same
    separations: _dyadic_gradient, and 0 in the owner cell, where the
    coupling is cself I.
    """
    d, r, cells = _separations(pts, pos, pitch)
    lead, n = np.shape(cself) + (len(pts),), len(pos)
    rows = np.empty(lead + (3, n, 3), dtype=complex)
    view = rows.swapaxes(-2, -3)  # (..., P, N, 3, 3), the blocks _dyadic writes
    _dyadic(d, r, k, scale, out=view)
    view[..., cells[0], cells[1], :, :] = np.multiply.outer(cself, _EYE)[..., None, :, :]
    if not gradients:
        return rows.reshape(lead + (3, 3 * n))
    grads = np.empty(lead + (3, 3, n, 3), dtype=complex)
    view = np.moveaxis(grads, -2, -4)  # (..., P, N, 3, 3, 3)
    _dyadic_gradient(d, r, k, scale, out=view)
    view[..., cells[0], cells[1], :, :, :] = 0
    return rows.reshape(lead + (3, 3 * n)), grads.reshape(lead + (3, 3, 3 * n))


@functools.lru_cache(maxsize=4)
def _strict_lower(m):
    """(rows, cols) of the strict lower triangle of an m x m block, read-only.

    Cached: the assembly takes the same chunk size for every chunk of every
    frequency, a frequency sweep on a small scene assembles once per
    frequency, and a stacked-lu solver mirrors its 3N x 3N triangle.
    """
    iv, iu = np.nonzero(np.tri(m, k=-1, dtype=bool))
    iv.flags.writeable = iu.flags.writeable = False
    return iv, iu


class EffectiveSolver:
    """Lippmann-Schwinger solve bound to one scene at one omega, or at an (F,) array of them.

    Its route is the first rung of the ladder (module docstring) it
    qualifies for, and only moves down (see _leave); its state is that, S
    or its factor and the COCG budget.  At an (F,) omega, on stacked-lu
    only, k, chi, the self term, S, the rows and the polarization have a
    leading axis of F.  It has one owner and holds no lock: threads that
    run in parallel each build their own.  Points inside voxels take the
    cell-averaged (regularized) kernel.
    """

    def __init__(self, scene: Scene, omega, const: Constants = DEFAULT):
        self.scene = scene
        self.const = const
        stacked = np.ndim(omega) > 0
        self.omega = np.asarray(omega, dtype=float) if stacked else float(omega)
        self.k = self.omega / const.c
        self.pos = scene.positions()
        self.chi = scene.chi_at(self.omega)
        self.dv = scene.voxel_volume
        self.cself = self_term_coupling(self.omega, self.dv, c=const.c)
        # any D with D^2 = C gives the same D S^-1 D = chi A^-1: one branch suffices
        self.sq = np.sqrt(self.chi)
        self._sqrt_chi3 = np.repeat(self.sq, 3, axis=-1)[..., None]  # (..., 3N, 1), C^1/2
        n = scene.n_voxels
        self._system = None  # S, mirrored and kept on stacked-lu
        self._fact = None  # the LDL^T factor, made in place of S by the first solve on it
        self._matvec = None  # the lattice matvec, built by the first COCG solve
        # the padded grid of both FFT routes, or None: the kernel is evaluated on the pairs
        self.grid = None if stacked else _fft_grid(scene)
        small = np.size(self.omega) * stack_bytes(n, 0) <= _STACK_BYTES
        budget = 0 if self.grid is None else _COCG_BUDGET * (3 * n) ** 3 / np.prod(self.grid)
        self._budget = 0 if small else int(budget)
        self._spent = 0  # column-matvecs so far
        self._iterations = _COCG_ITERATIONS  # the next solve's estimate
        self._route = "stacked-lu" if small else "lattice-cocg"
        # a report, never read back: the route, the reason COCG was left;
        # iterations are those of the COCG solve that finished last, the
        # backward error that solve's or, on stacked-lu, the worst of every
        # solve so far, and the factor route reports no backward error
        self.diagnostics = {
            "route": self._route, "fallback": None, "iterations": 0,
            "backward_error": None, "matvecs": 0, "budget": self._budget,
        }
        if small:
            S = self._assemble()
            iv, iu = _strict_lower(S.shape[-1])
            S[..., iv, iu] = S[..., iu, iv]
            self._system = S
        elif stacked:
            raise GreensError(f"{np.size(omega)} frequencies of {n} voxels exceed the stack bound")
        elif not self._budget:
            self._leave(None)
            self._admit_matrix()
        else:
            # the lattice route holds the grid's arrays and forms S only if it
            # is left; that charge is checked then (see _admit_matrix)
            peak = np.prod(self.grid, dtype=float) * _FFT_CELL_BYTES
            if peak > _MEMORY_CAP:
                raise MemoryError(
                    f"the lattice route would peak at {peak/1e9:.2f} GB (cap "
                    f"{_MEMORY_CAP/1e9:.2f} GB) on its {'x'.join(map(str, self.grid))} "
                    f"grid for {n} voxels")

    def _k(self, ndim):
        """k with ndim unit axes after its frequency axis, to broadcast over ndim point axes."""
        return np.reshape(self.k, np.shape(self.k) + (1,) * ndim)

    def _assemble(self):
        """S's C-order upper triangle, (..., 3N, 3N): the lower triangle of S.T, all zsytrf reads.

        Each chunk of voxel rows u writes the blocks (u, v > u) right of its
        diagonal square as one row-contiguous slab, then the square's strict
        upper triangle; block (u, v) is -dV k^2 Gv(x_v - x_u) sqrt(chi_v)
        sqrt(chi_u), from _pair_blocks.  The rest of the lower triangle is
        never written.
        """
        n = len(self.pos)
        sq = self.sq
        blocks = self._pair_blocks()
        S = np.empty(np.shape(self.k) + (3 * n, 3 * n), dtype=complex)
        S4 = S.reshape(S.shape[:-2] + (n, 3, n, 3))
        for sl in self._blocks(n, _ASSEMBLY_BYTES):
            u0, u1 = sl.start, min(sl.stop, n)
            if u1 < n:  # the last chunk has nothing to its right
                B = blocks(np.arange(u0, u1)[:, None], np.arange(u1, n))
                B *= (sq[..., None, u1:] * sq[..., u0:u1, None])[..., None, None]
                S4[..., u0:u1, :, u1:, :] = B.swapaxes(-3, -2)
            v, u = _strict_lower(u1 - u0)
            u, v = u + u0, v + u0
            B = blocks(u, v)
            B *= (sq[..., v] * sq[..., u])[..., None, None]
            # the pair axis comes first in an assignment through two index arrays
            S4[..., u, :, v, :] = B.swapaxes(0, -3)
        # each voxel centre lies in its own cell: the self term, no owner lookup;
        # written through a view of the diagonal blocks
        np.multiply((1.0 - np.asarray(self.cself)[..., None] * self.chi)[..., None, None], _EYE,
                    out=np.einsum("...vivj->...vij", S4))
        return S

    def _pair_blocks(self):
        """The blocks -dV k^2 Gv(x_v - x_u), (..., 3, 3), of voxel indices u != v.

        u and v broadcast together.  On a lattice solver (grid set) each
        block is gathered from one table of the kernel over the box's
        displacements (_lattice_kernel): m_v - m_u sits at F(m_v) - F(m_u) +
        c, F the table's linear index of a cell and c that of the own cell.
        Elsewhere the kernel is evaluated on the pairs.
        """
        if self.grid is None:
            def blocks(u, v):
                d = self.pos[v] - self.pos[u]
                r = _lengths(d)
                k = self._k(r.ndim)
                return _dyadic(d, r, k, -self.dv * k**2)
            return blocks
        lat = self.scene.lattice
        K = _lattice_kernel(self, [np.arange(1 - L, L) for L in lat.shape], np.zeros(3),
                            -self.dv * self.k**2)
        side = 2 * np.array(lat.shape) - 1
        stride = np.array([side[1] * side[2], side[2], 1])
        F, c = lat.cells @ stride, (np.array(lat.shape) - 1) @ stride
        K = K.reshape(-1, 3, 3)
        return lambda u, v: K[F[v] - F[u] + c]

    def _blocks(self, n_pts, nbytes=None):
        """Slices of n_pts points, each at most nbytes (_BLOCK_BYTES) of coupling rows."""
        step = max(1, (nbytes or _BLOCK_BYTES) // (9 * 16 * max(self.sq.size, 1)))
        return [slice(i, i + step) for i in range(0, n_pts, step)]

    def _coupling_rows(self, pts, gradients=False):
        """(..., P, 3, 3N) coupling rows dV k^2 Gv(p, u); with gradients also theirs (_couplings)."""
        k = self._k(2)
        return _couplings(np.atleast_2d(pts), self.pos, self.scene.voxel_pitch, k, self.dv * k**2,
                          self.cself, gradients)

    def _row_blocks(self, pts, gradients=False):
        """(slice, rows) per block of pts, the rows (..., t, 3, 3N) of _coupling_rows.

        With gradients, (slice, rows, d/dp_j rows) (see _couplings); both
        together hold at most _BLOCK_BYTES, a quarter of that in rows.
        """
        for sl in self._blocks(len(pts), _BLOCK_BYTES // 4 if gradients else None):
            out = self._coupling_rows(pts[sl], gradients)
            yield (sl, *out) if gradients else (sl, out)

    def _polarize(self, s, blocks, c=3):
        """chi A^-1 rows^T / (dV k^2), (..., 3N, c s) C-ordered, for s points given their blocks.

        blocks yields (slice, rows), rows (..., t, c, 3N) of the points in the
        slice: _row_blocks' (c = 3) or c combinations of them.  Column (p, i)
        is the polarization that radiates row i of point p.  The one place
        that divides by dV k^2.
        """
        k = self._k(3)
        rhs = np.empty(np.shape(self.k) + (3 * len(self.pos), s, c), dtype=complex)
        for sl, R in blocks:
            np.divide(np.moveaxis(R, -1, -3), self.dv * k**2, out=rhs[..., sl, :])
        # in C order for every reader: zsytrs leaves the factor route's solution in Fortran order
        return np.ascontiguousarray(self._solve(rhs.reshape(rhs.shape[:-2] + (s * c,))))


    def _admit_matrix(self):
        """Raise MemoryError, before any allocation, unless S fits _MEMORY_CAP.

        The charge is S or its LDL^T factor, which overwrites S, plus one more
        array as large as S: the assembly chunk or a right-hand side as wide
        as S.  A solver that has left COCG names the reason.
        """
        n = self.scene.n_voxels
        peak = 2 * (3 * n) ** 2 * 16
        if peak <= _MEMORY_CAP:
            return
        fallback = self.diagnostics["fallback"]
        why = f"a solve left COCG ({fallback}): " if fallback else ""
        raise MemoryError(
            f"{why}interaction matrix assembly and factorization would peak at "
            f"{peak/1e9:.2f} GB (cap {_MEMORY_CAP/1e9:.2f} GB) for {n} voxels")

    def _leave(self, reason):
        """Leave COCG for the factor route, for good, reporting reason; drop the lattice matvec."""
        self._route = "dense-ldlt"
        self._matvec = None
        self.diagnostics.update(route=self._route, fallback=reason, backward_error=None)

    # -- linear algebra -------------------------------------------------

    def _solve(self, rhs):
        """chi A^-1 rhs = C^1/2 S^-1 C^1/2 rhs for rhs of shape (..., 3N, m).

        The operator is symmetric, so it also serves transposed solves.  On
        stacked-lu one batched LU solves S x = C^1/2 rhs (_lu_solve); on the
        lattice route COCG solves it with the FFT matvec while the work
        budget lasts; otherwise zsytrs solves it with the LDL^T factor of S
        (Bunch-Kaufman, lower triangle), made on first use.
        """
        s = self._sqrt_chi3
        if not len(self.pos):
            return np.zeros(rhs.shape, dtype=complex)  # zsytrs rejects n = 0
        if self._route == "stacked-lu":
            x = self._lu_solve(s * rhs)
        else:
            x = self._cocg_solve(s * rhs) if self._route == "lattice-cocg" else None
        if x is None:
            fact = self._fact or self._factor()
            # in the Fortran order zsytrs takes, so it solves in b without a copy
            b = np.multiply(s, rhs, order="F")
            x, _ = sla.lapack.zsytrs(*fact, b, lower=1, overwrite_b=1)
        return np.multiply(s, x, out=x)  # s on the left: the bits of s * x

    def _lu_solve(self, b):
        """S^-1 b by batched LU on the kept S, reporting the worst backward error so far."""
        S = self._system
        try:
            x = np.linalg.solve(S, b)
        except np.linalg.LinAlgError:
            raise GreensError("LS matrix is singular: an LU pivot is exactly zero") from None
        norm = np.abs(S).sum(axis=-1).max(axis=-1)  # ||S||_inf per frequency
        resid = np.abs(b - S @ x).max(axis=-2)
        xmax = np.abs(x).max(axis=-2)
        live = xmax > 0  # a column with b = 0 has x = 0, solved exactly
        # ||b - S x||_inf / (||S||_inf ||x||_inf) per column
        bwd = resid[live] / (np.asarray(norm)[..., None] * xmax)[live]
        worst = max(self.diagnostics["backward_error"] or 0.0, float(np.max(bwd, initial=0.0)))
        self.diagnostics["backward_error"] = worst
        return x

    def _factor(self):
        """LDL^T of S, made in place of _assemble's triangle; MemoryError first (_admit_matrix)."""
        self._admit_matrix()
        lapack = sla.lapack  # the first factorization imports LAPACK before S is allocated
        S = self._assemble()
        # S.T is S in the Fortran order LAPACK takes, whose lower triangle is
        # the one assembled: zsytrf reads only that and overwrites it in place
        ldu, ipiv, info = lapack.zsytrf(S.T, lower=1, lwork=_LDLT_PANEL * len(S),
                                        overwrite_a=1)
        if info > 0:
            raise GreensError(f"LS matrix is singular: LDL^T pivot D[{info - 1}] "
                              f"is exactly zero")
        self._fact = ldu, ipiv
        return self._fact

    # -- the matrix-free lattice route -----------------------------------

    def _cocg_solve(self, b):
        """S^-1 b by COCG in column blocks; None once the route is left.

        A solve whose columns times the expected iterations (the last solve's)
        would not fit in what is left of the budget is not started; one that
        runs out of budget or breaks down is dropped whole.  Either way the
        solver leaves COCG for this solve and every later one.  The first
        solve that starts builds the lattice matvec.
        """
        m = b.shape[1]
        if self._spent + m * self._iterations > self._budget:
            self._leave("budget")
            return None
        op = self._matvec = self._matvec or _LatticeMatvec(self, self.grid)
        x = np.empty(b.shape, dtype=complex)
        for i in range(0, m, op.columns):
            reason = self._cocg(op, b[:, i:i + op.columns], x[:, i:i + op.columns])
            if reason:
                break
        else:
            return x
        del op  # so that leaving frees the lattice tables
        self._leave(reason)
        return None

    def _charge(self, cols):
        """Book cols column-matvecs; False, booking nothing, when they exceed the budget."""
        if self._spent + cols > self._budget:
            return False
        self._spent += cols
        self.diagnostics["matvecs"] = self._spent
        return True

    def _cocg(self, op, b, out):
        """Jacobi-scaled COCG for S out = b; None on success, else the reason to stop.

        COCG (van der Vorst & Melissen 1990) is CG with the unconjugated
        product, for the complex-symmetric D^-1/2 S D^-1/2, D = diag S.  A
        column stops when its true residual passes LAPACK zcgesv's test,
        ||b - S x||_inf <= sqrt(3N) u ||S||_inf ||x||_inf; the
        recursive residual only nominates it, and one that fails the test
        is replaced by its true residual.
        """
        tol = np.sqrt(len(b)) * 2.0**-53
        d = op.sqrt_diag
        out[:] = 0  # zero columns stay zero, without a matvec
        live = np.flatnonzero(np.abs(b).max(axis=0) > 0)
        bl = b[:, live]
        r = bl / d  # scaled residual of y = D^1/2 x = 0
        y = np.zeros(r.shape, dtype=complex)
        p = r.copy()
        rho = np.einsum("ij,ij->j", r, r)
        its, err, reason = 0, 0.0, None
        while live.size:
            if not self._charge(live.size):
                reason = "budget"
                break
            its += 1
            q = op(p / d) / d
            with np.errstate(divide="ignore", invalid="ignore"):
                alpha = rho / np.einsum("ij,ij->j", p, q)
            if not np.all(np.isfinite(alpha)):  # p^T q = 0 or an overflow
                reason = "breakdown"
                break
            y += alpha * p
            r -= alpha * q
            x = y / d
            xmax = np.abs(x).max(axis=0)
            near = np.flatnonzero(np.abs(d * r).max(axis=0) <= tol * op.norm * xmax)
            if near.size:
                if not self._charge(near.size):
                    reason = "budget"
                    break
                true = bl[:, near] - op(x[:, near])
                bwd = np.abs(true).max(axis=0) / (op.norm * xmax[near])
                ok = bwd <= tol
                r[:, near[~ok]] = true[:, ~ok] / d
                out[:, live[near[ok]]] = x[:, near[ok]]
                err = max(err, float(np.max(bwd[ok], initial=0.0)))
                keep = np.ones(live.size, dtype=bool)
                keep[near[ok]] = False
                live, bl, r, y, p, rho = (live[keep], bl[:, keep], r[:, keep], y[:, keep],
                                          p[:, keep], rho[keep])
            rho_next = np.einsum("ij,ij->j", r, r)
            with np.errstate(divide="ignore", invalid="ignore"):
                beta = rho_next / rho
            if not np.all(np.isfinite(beta)):
                reason = "breakdown"
                break
            p = r + beta * p
            rho = rho_next
        self.diagnostics.update(iterations=its, backward_error=None if reason else err)
        if reason is None:
            self._iterations = max(its, 1)
        return reason

    # -- field evaluation ------------------------------------------------

    def interior_solution(self, sources):
        """The polarization chi X of point sources, (3N, 3S): _polarize of their coupling rows.

        Column (s, i) at row (u, k) is chi(u) X(u, s)_ki, X the effective
        tensor at the voxel centres, the self-consistent interior response
        to a point source at s; chi X is the polarization that radiates it.
        """
        sources = np.atleast_2d(sources)
        return self._polarize(len(sources), self._row_blocks(sources))

    def interior_field(self, evals_at_voxels):
        """Polarization chi E, with A E = Ev, for incident fields at the voxel centers.

        evals_at_voxels: (N, 3) or (N, M, 3) for M incident fields at once.
        """
        n = self.scene.n_voxels
        ev = np.asarray(evals_at_voxels, dtype=complex)
        single = ev.ndim == 2
        if single:
            ev = ev[:, None, :]
        m = ev.shape[1]
        rhs = ev.transpose(0, 2, 1).reshape(3 * n, m)
        sol = self._solve(rhs).reshape(n, 3, m).transpose(0, 2, 1)
        return sol[:, 0, :] if single else sol

    def green(self, targets, sources, scattered_only=False, warn_near=True):
        """Effective dyadics (T, S, 3, 3); vacuum part skipped if scattered_only.

        One solve of 3 min(T, S) columns: with fewer targets than sources
        the targets are solved for and radiated to the sources, and the
        block is transposed back, since reciprocity G(x, x') = G(x', x)^T
        holds exactly for the symmetric S.  Targets or sources inside voxels
        use the regularized kernel, so the scattered part stays finite
        there; the vacuum part still requires non-coincident pairs.
        """
        targets = np.atleast_2d(np.asarray(targets, dtype=float))
        sources = np.atleast_2d(np.asarray(sources, dtype=float))
        if warn_near:
            owner, distance = self.scene.placement(np.vstack([targets, sources]))
            if np.all(owner < 0) and distance.min() < self.scene.voxel_pitch:
                warnings.warn("evaluation point within one pitch of a scatterer voxel; "
                              "near-field accuracy is reduced")
        swap = len(targets) < len(sources)
        # solve for b, the smaller side, and radiate to a
        a, b = (sources, targets) if swap else (targets, sources)
        scat = self._radiate(a, self._polarize(len(b), self._row_blocks(b)))
        if swap:
            scat = scat.transpose(1, 0, 3, 2)
        if scattered_only:
            return scat
        return vacuum_green_block(self.omega, targets, sources, c=self.const.c) + scat

    def imag_green(self, a, b, *, chiX=None):
        """Imag G(a, b), (3, 3); at a = b the vacuum part is its finite coincidence limit.

        chiX, when given, is interior_solution([a, b]), the polarization a
        caller has already solved, and the scattered part is radiated from
        its columns for b; otherwise the scattered part takes one solve of
        its own (green, or green_coincident_scattered at a = b).
        """
        a = np.asarray(a, dtype=float)
        b = np.asarray(b, dtype=float)
        coincident = np.allclose(a, b)
        if coincident:
            vac = vacuum_imag_coincidence(self.omega, self.const.c)
        else:
            vac = np.imag(vacuum_green_block(self.omega, a, b, c=self.const.c)[0, 0])
        if chiX is not None:
            scat = self._radiate(a[None, :], chiX[:, 3:])[0, 0]
        elif coincident:
            scat = self.green_coincident_scattered(a[None, :])[0]
        else:
            scat = self.green(a[None, :], b[None, :], scattered_only=True, warn_near=False)[0, 0]
        return vac + np.imag(scat)

    def green_coincident_scattered(self, pts, n_hat=None):
        """Scattered part at coincidence, finite everywhere: (P, 3, 3), or (P,) with n_hat.

        With orientations E (I, or the one row n_hat) the rows of point p
        are v = E rows(p), the same cell-averaged couplings, and by
        reciprocity they also read the field back: the result is
        v chi A^-1 v^T / (dV k^2), from one solve (_polarize) of P columns
        per orientation.  n_hat is taken as given, not normalized.
        """
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        E = _EYE if n_hat is None else np.asarray(n_hat, dtype=float)[None, :]
        v = np.empty((3 * self.scene.n_voxels, len(pts), len(E)), dtype=complex)
        for sl, R in self._row_blocks(pts):
            np.einsum("oi,tij->jto", E, R, out=v[:, sl])
        w = self._polarize(len(pts), [(slice(None), v.transpose(1, 2, 0))], len(E))
        out = np.einsum("jto,jtp->top", v, w.reshape(v.shape))
        return out if n_hat is None else out[:, 0, 0]

    def _radiate(self, targets, P):
        """sum_n rows(t, n) . P(n, s) for a polarization P of shape (3N, 3S), shape (T, S, 3, 3).

        The rows are built one block of targets at a time (_row_blocks), and
        each block is contracted as one (3t, 3N) @ (3N, 3S) product.
        """
        s = P.shape[1] // 3
        out = np.empty((len(targets), 3, s, 3), dtype=complex)
        for sl, R in self._row_blocks(targets):
            t = len(R)
            np.matmul(R.reshape(3 * t, len(P)), P, out=out[sl].reshape(3 * t, 3 * s))
        return out.transpose(0, 2, 1, 3)


def stack_bytes(n, points):
    """Bytes a frequency of a stacked-lu solver on n voxels: S, its LU copy and rows at this many points.

    A point's coupling rows are 9 N complex numbers, its gradient rows three points' worth.
    """
    return 16 * (2 * (3 * n) ** 2 + 9 * n * points)


def solver_at(scene: Scene, omega, const: Constants, solver):
    """solver, checked to be at omega and const, or a new EffectiveSolver of scene when None.

    A solver at another frequency, at an array of them or with other
    constants raises GreensError.  Its scene is not compared: a shelled
    scene's terms take the shell-free scene's solver (equivalence_densities).
    """
    if solver is not None and (np.ndim(solver.omega) or solver.omega != omega
                               or solver.const != const):
        raise GreensError(f"the solver is at omega = {solver.omega} with {solver.const}, "
                          f"not at omega = {omega} with {const}")
    return EffectiveSolver(scene, omega, const) if solver is None else solver


@dataclass(frozen=True)
class DyadicBlock:
    """Dense 3x3 dyadics over (target, source) pairs at one frequency."""

    source_points: np.ndarray
    target_points: np.ndarray
    omega: float
    values: np.ndarray  # (T, S, 3, 3)
    metadata: dict = field(default_factory=dict, compare=False)


def solve_effective_green(scene: Scene, omega, sources, targets, const: Constants = DEFAULT,
                          solver: EffectiveSolver = None) -> DyadicBlock:
    """Effective Green block target <- source through the scatterer voxels."""
    solver = solver_at(scene, omega, const, solver)
    sources = np.atleast_2d(np.asarray(sources, dtype=float))
    targets = np.atleast_2d(np.asarray(targets, dtype=float))
    vals = solver.green(targets, sources)
    return DyadicBlock(
        source_points=sources,
        target_points=targets,
        omega=float(omega),
        values=vals,
        metadata={
            "scene": scene.digest(),
            "self_term_rule": "spherical_pv_radiative",
            "solver": solver.diagnostics["route"],
        },
    )


# -- absorbing-shell propagation ------------------------------------------


def _segment_ball_length(y, pts, radius):
    """Length of each segment y -> pts[i] inside the ball |x| <= radius."""
    pts = np.atleast_2d(pts)
    d = pts - y[None, :]
    L = np.linalg.norm(d, axis=1)
    safe = np.where(L > 0, L, 1.0)
    dh = d / safe[:, None]
    ydh = dh @ y
    disc = ydh**2 - (y @ y - radius**2)
    s = np.sqrt(np.maximum(disc, 0.0))
    t1 = np.clip(-ydh - s, 0.0, L)
    t2 = np.clip(-ydh + s, 0.0, L)
    return np.where(disc > 0, t2 - t1, 0.0)


def shell_path_factors(scene: Scene, omega, endpoint, pts, const: Constants = DEFAULT):
    """Complex in-shell propagation factor between endpoint and each point.

    exp(i (w/c) (sqrt(eps_shell) - 1) * path-in-shell); identically one when
    the scene has no shell or the path never crosses it.
    """
    pts = np.atleast_2d(pts)
    if scene.shell is None:
        return np.ones(len(pts), complex)
    y = np.asarray(endpoint, dtype=float)
    eps1 = scene.shell.material.eval(omega)
    k = omega / const.c
    path = _segment_ball_length(y, pts, scene.shell.outer_radius) - _segment_ball_length(
        y, pts, scene.shell.inner_radius
    )
    return np.exp(1j * k * (np.sqrt(eps1) - 1.0) * path)


# -- surface functional and the dissipation identity -----------------------


def surface_functional(scene: Scene, a, b, solver: EffectiveSolver, chiX):
    """Surface term of the dissipation identity on the sphere at infinity, a 3x3 dyadic.

    (k / 16 pi^2) sum_i w_i F_a(r_i)^T (I - r_i r_i) conj(F_b(r_i)) over the
    unit directions r_i, F_s the far-field amplitude of G(., s): the limit
    R -> infinity of (k / R^2) times the outgoing-wave (Sommerfeld) boundary
    integral on a sphere of radius R (see the module docstring).

    solver is the scatterer's at the frequency of the term, and chiX =
    solver.interior_solution([a, b]), the polarization every term of the
    identity radiates; scene may add a shell, which is not in the matrix.
    """
    k = solver.k
    dirs = sphere_quadrature(1.0, _FAR_ORDER)
    r = dirs.normals
    srcs = np.stack([a, b])
    # the amplitudes F_s(r) of both sources, shape (P, 2, 3, 3), whole; the
    # (P, N) phase table is built one block of directions at a time.  At one
    # BLAS thread a block of two or more rows rounds each row as the whole
    # table would; a threaded product, or a one-row block (gemv), may differ
    # in the last bit
    F = np.exp(-1j * k * (r @ srcs.T))[:, :, None, None] * _EYE
    X = chiX.reshape(scene.n_voxels, 18)  # [u, (k, s, i)]
    step = max(1, _ASSEMBLY_BYTES // (16 * max(scene.n_voxels, 1)))
    for i in range(0, len(r), step):
        phase = -1j * k * (r[i:i + step] @ solver.pos.T)
        np.exp(phase, out=phase)
        F[i:i + step] += (k**2 * solver.dv) * (phase @ X).reshape(-1, 3, 2, 3).swapaxes(1, 2)
        del phase
    if scene.shell is not None:
        for i, s in enumerate(srcs):
            far = s + (np.linalg.norm(s) + 2 * scene.shell.outer_radius) * r  # beyond the shell
            F[:, i] *= shell_path_factors(scene, solver.omega, s, far, solver.const)[:, None, None]
    Fb = F[:, 1] - r[:, :, None] * np.einsum("pk,pkj->pj", r, F[:, 1])[:, None, :]  # (I - rr) F_b
    return (k / (16 * np.pi**2)) * np.einsum("p,pki,pkj->ij", dirs.weights, F[:, 0], np.conj(Fb))


def vacuum_gap_placement(scene: Scene, pts):
    """(where, distance) of each point: where names one outside the vacuum gap, else None.

    where reads "inside scatterer voxel v (centre ...)" or "at |x| = ..., in
    or beyond the shell (inner radius ...)"; distance is Scene.placement's,
    to the nearest voxel centre.
    """
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    owner, distance = scene.placement(pts)
    r2 = np.inf if scene.shell is None else scene.shell.inner_radius
    where = []
    for p, v in zip(pts, owner):
        r = float(np.linalg.norm(p))
        if v >= 0:
            where.append(f"inside scatterer voxel {v} "
                         f"(centre {tuple(map(float, scene.scatterer_voxels[v][0]))})")
        elif r >= r2:
            where.append(f"at |x| = {r:.6g}, in or beyond the shell (inner radius {r2:.6g})")
        else:
            where.append(None)
    return where, distance


def check_vacuum_gap(scene: Scene, a, b):
    """Raise GreensError unless the sources a and b lie in the vacuum gap.

    The gap is outside every scatterer voxel (Scene.placement) and strictly
    inside the shell's inner radius (vacuum_gap_placement).  The absorption
    terms integrate G(a, x) . conj(G(x, b)) over the absorbers, which is not
    defined with a source inside one, and the Langevin and polariton
    pictures agree only at points in the vacuum between them.
    """
    pts = np.array([a, b], dtype=float)
    for name, p, where in zip("ab", pts, vacuum_gap_placement(scene, pts)[0]):
        if where:
            raise GreensError(f"source {name} = {tuple(map(float, p))} lies {where}; the "
                              f"absorption terms need both sources in the vacuum gap")


def _field(solver, pts, a, b, chiX):
    """G(x, a) and G(x, b) at the points, shape (P, 2, 3, 3), radiated from chiX."""
    srcs = np.stack([a, b])
    return vacuum_green_block(solver.omega, pts, srcs, c=solver.const.c) + solver._radiate(pts, chiX)


def _gauss_subnodes(pitch, nsub):
    xg, wg = np.polynomial.legendre.leggauss(nsub)
    pts = np.array([[x, y, z] for x in xg for y in xg for z in xg]) * (pitch / 2.0)
    w = np.array([wx * wy * wz for wx in wg for wy in wg for wz in wg]) * (pitch / 2.0) ** 3
    return pts, w


def noise_volume_integral_scatterer(scene, a, b, solver: EffectiveSolver, chiX, nsub):
    """(w/c)^2 int_{scatterer} eps'' G(a, x) . conj(G(x, b)) dV, bare.

    Per-voxel tensor-product Gauss quadrature of nsub^3 sub-nodes of the
    continuous integrand; the own-voxel kernel is the cell-averaged
    constant, so the rule degrades gracefully at coarse pitch and converges
    under refinement.  solver and chiX are as in surface_functional.

    The route is volume_route(solver, nsub).  On a lattice scene
    (Scene.lattice) whose FFT arrays need no more bytes than S, the field at
    each Gauss sub-node is one zero-padded 3-D FFT convolution of the
    polarization with the kernel table of that sub-node, one table per
    mirror class of sub-nodes (_lattice_fields, "lattice-fft");
    other scenes build coupling rows at every node ("dense-rows").  Both
    give the same sum to rounding.

    At nsub = 1 ("collocation") the one node is the voxel centre, where the
    field is the interior solution X = chi X / chi itself, so the term is
    k^2 dV sum_v (Im chi_v / |chi_v|^2) (chi X)(v, a)^T conj((chi X)(v, b)),
    voxels with chi = 0 left out: no rows and no FFT.
    """
    if scene.n_voxels == 0:
        return np.zeros((3, 3), complex)
    k2 = solver.k ** 2
    route = volume_route(solver, nsub)
    if route == "collocation":
        live = solver.chi != 0
        chi = solver.chi[live]
        P = chiX.reshape(-1, 3, 2, 3)[live]  # [u, k, s, i]
        return (k2 * solver.dv) * np.einsum("n,nki,nkj->ij", chi.imag / np.abs(chi) ** 2,
                                            P[:, :, 0], np.conj(P[:, :, 1]))
    sub, wsub = _gauss_subnodes(scene.voxel_pitch, nsub)
    epsim = solver.chi.imag  # Im(eps - 1) = Im eps
    if route == "dense-rows":
        pts = (scene.positions()[:, None, :] + sub[None, :, :]).reshape(-1, 3)
        B = _field(solver, pts, a, b, chiX)  # G(x_s, a), G(x_s, b)
        w = (epsim[:, None] * wsub[None, :]).reshape(-1)
        # G(a, x) = G(x, a)^T by reciprocity of the discrete model
        return k2 * np.einsum("n,nki,nkj->ij", w, B[:, 0], np.conj(B[:, 1]))
    out = np.zeros((3, 3), complex)
    # summed in _lattice_fields' order: at nsub = 2 one mirror class, the
    # nodes' order; at nsub = 3 eight classes, a different order
    for j, B in _lattice_fields(solver, solver.grid, sub, a, b, chiX):
        out += np.einsum("n,nki,nkj->ij", wsub[j] * epsim, B[:, 0], np.conj(B[:, 1]))
    return k2 * out


def volume_route(solver, nsub):
    """Route of the scatterer volume term at nsub: 'collocation', 'lattice-fft' or 'dense-rows'.

    'collocation' at nsub = 1, where the field at the one node is the
    interior solution; else 'lattice-fft' when the term convolves on the
    solver's FFT grid, and 'dense-rows' without one.
    """
    if nsub == 1:
        return "collocation"
    return "dense-rows" if solver.grid is None else "lattice-fft"


def _next_fast_len(n):
    """Smallest 11-smooth integer >= n, the complex-FFT length scipy.fft.next_fast_len picks.

    Computed here so that choosing a grid, which may then be rejected,
    imports no FFT code; scipy.fft is loaded by the first transform.
    """
    while True:
        m = n
        for p in (2, 3, 5, 7, 11):
            while m % p == 0:
                m //= p
        if m == 1:
            return n
        n += 1


def _fft_grid(scene):
    """Padded grid shape of the lattice routes, or None where the dense rows serve.

    Each axis of L cells pads to _next_fast_len(2L - 1), so the circular
    convolution holds every displacement -(L-1)..L-1 once; the route is
    taken when that grid, at _FFT_CELL_BYTES a cell, needs no more bytes
    than S.  A solver that starts on COCG is admitted against those bytes
    and a factor-route solver against S's, so the grid never needs more
    than either route's charge.
    """
    lat = scene.lattice
    if lat is None:
        return None
    grid = tuple(_next_fast_len(2 * L - 1) for L in lat.shape)
    if np.prod(grid, dtype=float) * _FFT_CELL_BYTES > (3 * scene.n_voxels) ** 2 * 16:
        return None
    return grid


# the six distinct components (i, k) of the symmetric 3x3 kernel
_SYM = ((0, 0), (1, 1), (2, 2), (0, 1), (0, 2), (1, 2))
_SYM_INDEX = np.array([[0, 3, 4], [3, 1, 5], [4, 5, 2]])
_AXES = (-3, -2, -1)


def _lattice_kernel(solver, disp, s, scale):
    """scale Gv(pitch m + s) over the lattice displacements m, (len(disp[0]), ..., 3, 3).

    disp holds the displacements along each axis.  The own cell m = 0, where
    a node at s = 0 has r = 0, is evaluated at r = 1: the caller overwrites
    it or never reads it.
    """
    d = solver.scene.lattice.pitch * np.stack(np.meshgrid(*disp, indexing="ij"), axis=-1) + s
    r = np.linalg.norm(d, axis=-1)
    r[tuple(np.flatnonzero(a == 0)[0] for a in disp)] = 1.0
    return _dyadic(d, r, solver.k, scale)


def _kernel_hat(solver, grid, s):
    """The kernel table K(m) = dV k^2 Gv(pitch m + s), (grid..., 3, 3), and its transform.

    m runs over the circular displacements of the padded grid; the own cell
    m = 0 holds the self term cself I, since a node at shift s lies in its
    own voxel.  The transform is that of the six distinct components, shape
    (6,) + grid.
    """
    import scipy.fft as sfft

    # circular displacements: 0..L-1 then negative ones from the top of each axis
    disp = [np.where(np.arange(g) < L, np.arange(g), np.arange(g) - g)
            for g, L in zip(grid, solver.scene.lattice.shape)]
    K = _lattice_kernel(solver, disp, s, solver.dv * solver.k**2)
    K[0, 0, 0] = solver.cself * _EYE
    return K, sfft.fftn(np.stack([K[..., i, k] for i, k in _SYM]), axes=_AXES, overwrite_x=True)


def _box(lat, ax):
    """Index of the lattice box's rows on the axes before ax and every row of ax and after it."""
    return (Ellipsis,) + tuple(slice(L) for L in lat.shape[:ax]) + (slice(None),) * -ax


def _transform_in(fft, view, ax):
    """Transform view along ax in place: scipy's overwrite_x permits that, not promises it."""
    out = fft(view, axis=ax, overwrite_x=True)
    if not np.may_share_memory(out, view):
        view[...] = out


def _mirror(flip):
    """(dst, src) index pairs of the grid axes: dst[f] = src[sigma f], sigma = flip.

    On a flipped axis (sign -1) index f reads (-f) mod G: the first row
    reads itself and the rest read the rows in reverse, two strided views
    and no copy.  Unflipped axes are read as they are.
    """
    axes = [((slice(None), slice(None)),) if s > 0 else
            ((slice(1), slice(1)), (slice(1, None), slice(None, 0, -1))) for s in flip]
    return [((Ellipsis,) + tuple(d for d, _ in pairs), (Ellipsis,) + tuple(s for _, s in pairs))
            for pairs in itertools.product(*axes)]


def _convolve(Kh, Ph, lat, flip=(1, 1, 1)):
    """Component i of sum_k K_ik * P_k at the lattice cells, shape (3, m, N).

    Kh is a kernel table's transform (6,) + grid, Ph the transformed sources
    (3, m) + grid.  Signs flip = sigma on the axes convolve with the mirror
    image of Kh's table instead, K(m)_ik = sigma_i sigma_k K_Kh(sigma m)_ik,
    whose transform is Kh's at the mirrored frequencies (_mirror) with those
    signs; each product first copies that component into one grid buffer.
    Per component i: three products, written into two buffers every
    component reuses, and one inverse transform in place in the first, an
    axis at a time over the lattice box's rows of the axes done before.
    """
    import scipy.fft as sfft

    cells = tuple(lat.cells.T)
    E = np.empty((3, Ph.shape[1], len(lat.cells)), dtype=complex)
    F, T = np.empty((2,) + Ph.shape[1:], dtype=complex)
    blocks = _mirror(flip) if min(flip) < 0 else None
    M = None if blocks is None else np.empty(Ph.shape[2:], dtype=complex)
    for i in range(3):
        for k, out in enumerate((F, T, T)):
            Kik = Kh[_SYM_INDEX[i, k]]
            if blocks:
                # negation is exact: the bits of the product with the signed table
                sign = np.positive if flip[i] * flip[k] > 0 else np.negative
                for dst, src in blocks:
                    sign(Kik[src], out=M[dst])
                Kik = M
            np.multiply(Kik, Ph[k], out=out)
            if k:
                F += T
        for ax in _AXES:
            _transform_in(sfft.ifft, F[_box(lat, ax)], ax)
        E[i] = F[:, cells[0], cells[1], cells[2]]
    return E


def _scatter(X, grid, lat):
    """(3, m, N) sources on the lattice box, transformed on the zero-padded grid.

    Scattered into one zero-padded array and transformed in place, an axis
    at a time over the box's rows of the axes not yet transformed, so the
    all-zero lines of the padding are never transformed.  Shape (3, m) + grid.
    """
    import scipy.fft as sfft

    P = np.zeros(X.shape[:2] + tuple(grid), dtype=complex)
    P[:, :, lat.cells[:, 0], lat.cells[:, 1], lat.cells[:, 2]] = X
    for ax in _AXES[::-1]:
        _transform_in(sfft.fft, P[_box(lat, ax)], ax)
    return P


def _lattice_fields(solver, grid, sub, a, b, chiX):
    """(j, G(x, a) and G(x, b) at x = pos + sub[j], (N, 2, 3, 3)) for each sub-node j.

    Node (v, j) sees voxel u through pitch (m_v - m_u) + sub[j] only, so its
    scattered field is a convolution over the lattice: the polarization is
    scattered onto the padded grid and transformed once.  The sub-nodes come
    by mirror class, the nodes sigma |s| of one |s| (sigma in {+1, -1}^3):
    classes in order of first appearance, one alive at a time, and the
    nodes of each in their order.  A class builds and transforms one kernel
    table K_|s| (_kernel_hat), and each of its nodes reads that transform
    mirrored (_convolve), since Gv(sigma d)_ik = sigma_i sigma_k Gv(d)_ik.
    The mirror holds at every circular index; on a grid longer than 2L - 1
    it differs from the directly built table only at displacements no pair
    of box cells reaches, so the fields agree to rounding, not bit for bit.
    """
    lat = solver.scene.lattice
    n = len(lat.cells)
    # P[k, (s, c)] on the grid: component k of column c of the source-s polarization
    P = _scatter(chiX.reshape(n, 3, 6).transpose(1, 2, 0), grid, lat)
    pos = solver.scene.positions()
    bases = np.abs(sub)
    _, first = np.unique(bases, axis=0, return_index=True)
    for base in bases[np.sort(first)]:
        Kh = _kernel_hat(solver, grid, base)[1]
        for j in np.flatnonzero(np.all(bases == base, axis=1)):
            flip = np.where(sub[j] < 0, -1, 1)
            # E[i, (s, c), v] is component i of G(x_v, s)[:, c]
            yield j, (vacuum_green_block(solver.omega, pos + sub[j], np.stack([a, b]),
                                         c=solver.const.c)
                      + _convolve(Kh, P, lat, flip).reshape(3, 2, 3, n).transpose(3, 1, 0, 2))
        del Kh  # before the next class builds its own


class _LatticeMatvec:
    """x -> S x on a lattice scene by one FFT convolution; S is never formed.

    S x = x - C^1/2 (K_0 * C^1/2 x), K_0 the kernel table at shift 0 (its
    own cell holding cself I), the DDA matvec of Goodman, Draine & Flatau
    (1991).  Also holds what COCG needs besides: D^1/2 for the Jacobi
    scaling (D = diag S = 1 - cself chi), ||S||_inf and the column block.
    """

    def __init__(self, solver, grid):
        import scipy.fft as sfft

        self.grid = grid
        self.lat = solver.scene.lattice
        self.sq = solver._sqrt_chi3
        K, self.Kh = _kernel_hat(solver, grid, np.zeros(3))
        diag = 1.0 - solver.cself * solver.chi
        self.sqrt_diag = np.repeat(np.sqrt(diag), 3)[:, None]
        # ||S||_inf exactly: row (v, i) sums |D_v| and |sq_v| sum_{u != v, k}
        # |K_ik(m_v - m_u)| |sq_u|, one real convolution of |K|'s row sums
        R = np.moveaxis(np.abs(K).sum(axis=-1), -1, 0)
        del K
        R[:, 0, 0, 0] = 0.0  # the own block is D_v I, counted apart
        asq = np.abs(solver.sq)
        A = np.zeros(grid)
        cells = tuple(self.lat.cells.T)
        A[cells] = asq
        off = sfft.irfftn(sfft.rfftn(R, axes=_AXES) * sfft.rfftn(A), s=grid, axes=_AXES)
        self.norm = float(np.max(np.abs(diag) + asq * off[:, cells[0], cells[1], cells[2]]))
        # columns per block: the transformed sources, the largest array of a
        # matvec at 3 complex numbers per cell and column, stay within the
        # assembly's chunk bound, so the allocator keeps no more resident
        self.columns = max(1, _ASSEMBLY_BYTES // (3 * 16 * int(np.prod(grid))))

    def __call__(self, x):
        """S x for x of shape (3N, m)."""
        n3, m = x.shape
        X = (self.sq * x).reshape(n3 // 3, 3, m).transpose(1, 2, 0)
        E = _convolve(self.Kh, _scatter(X, self.grid, self.lat), self.lat)
        return x - self.sq * E.transpose(2, 0, 1).reshape(n3, m)


def noise_volume_integral_shell(scene, a, b, solver: EffectiveSolver, chiX):
    """(w/c)^2 int_{shell} eps'' G(a, x) . conj(G(x, b)) dV, bare.

    Shell propagation uses the in-shell path factor on top of the
    scatterer-only effective tensor: solver and chiX are the shell-free
    scene's, as in surface_functional, and scene adds the shell.
    """
    if scene.shell is None:
        return np.zeros((3, 3), complex)
    omega, const = solver.omega, solver.const
    # a sixth of the attenuation length, at least 24 radial spacings
    shell_pitch = scene.shell.attenuation_length(omega, c=const.c) / 6.0
    shell_pitch = min(shell_pitch, (scene.shell.outer_radius - scene.shell.inner_radius) / 24.0)
    nodes = shell_voxelization(scene, shell_pitch, omega=omega, c=const.c)
    eps1 = scene.shell.material.eval(omega)
    B = _field(solver, nodes.positions, a, b, chiX)
    Ba = B[:, 0] * shell_path_factors(scene, omega, a, nodes.positions, const)[:, None, None]
    Bb = B[:, 1] * shell_path_factors(scene, omega, b, nodes.positions, const)[:, None, None]
    return solver.k ** 2 * eps1.imag * np.einsum("n,nki,nkj->ij", nodes.weights, Ba, np.conj(Bb))


@dataclass(frozen=True)
class IdentityReport:
    residual: float
    imag_green: np.ndarray
    surface_term: np.ndarray
    volume_term: np.ndarray
    volume_scatterer: np.ndarray
    volume_shell: np.ndarray
    volume_route: str  # of the scatterer volume term, see volume_route()


def greens_identity_report(scene: Scene, omega, a, b, nsub=2, const: Constants = DEFAULT,
                           solver: EffectiveSolver = None) -> IdentityReport:
    """All terms of Imag G = surface + volume, with the relative residual.

    One solve for the sources [a, b], on solver (built here unless given),
    serves every term: Imag G(a, b), the surface term and both volume terms
    radiate the same polarization.  volume_route is volume_route(solver,
    nsub), the scatterer volume term's.  At a = b the vacuum part of Imag G
    is its finite coincidence limit.  Both sources must lie in the vacuum
    gap (check_vacuum_gap).
    """
    check_vacuum_gap(scene, a, b)
    warn_if_thin_shell(scene, omega, c=const.c)
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    solver = solver_at(scene, omega, const, solver)
    chiX = solver.interior_solution(np.stack([a, b]))
    img = solver.imag_green(a, b, chiX=chiX)
    F = surface_functional(scene, a, b, solver, chiX)
    nv = noise_volume_integral_scatterer(scene, a, b, solver, chiX, nsub)
    ns = noise_volume_integral_shell(scene, a, b, solver, chiX)
    vol = nv + ns
    resid = np.linalg.norm(img - F - vol) / np.linalg.norm(img)
    return IdentityReport(
        residual=float(resid),
        imag_green=img,
        surface_term=F,
        volume_term=vol,
        volume_scatterer=nv,
        volume_shell=ns,
        volume_route=volume_route(solver, nsub),
    )
