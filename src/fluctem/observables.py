"""Physical outputs: LDOS, spontaneous emission, thermal-Casimir forces.

The LDOS splits into the analytic free-space constant plus the scattered
part at coincidence, which is finite; the divergent real part of the
free-space coincidence never enters any observable here.  Forces are
gradients of the scattered trace only: the position-independent self cell
term is force free by construction.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .constants import DEFAULT, Constants
from .fluctuations import planck_weights
from . import greens
from .greens import EffectiveSolver, solver_at
from .material import DrudeLorentzModel, resonance_params
from .scene import Scene


class ObservableError(ValueError):
    pass


def _finite_vector(v, name):
    """v as a float array of shape (3,), else ObservableError."""
    a = np.asarray(v, dtype=float)
    if a.shape != (3,) or not np.all(np.isfinite(a)):
        raise ObservableError(f"{name} must be three finite numbers, not {v!r}")
    return a


def unit_orientation(n_hat):
    """n_hat / |n_hat| for three finite numbers not all zero, else ObservableError."""
    n = _finite_vector(n_hat, "orientation")
    norm = np.linalg.norm(n)
    if not norm > 0:
        raise ObservableError("orientation must be nonzero")
    return n / norm


@dataclass(frozen=True)
class EmitterSpec:
    position: tuple
    n_hat: tuple
    dipole_moment: float
    omega0: float

    def __post_init__(self):
        _finite_vector(self.position, "position")
        # written so that a NaN fails each test
        if not abs(np.linalg.norm(_finite_vector(self.n_hat, "n_hat")) - 1.0) <= 1e-9:
            raise ObservableError("n_hat must be a unit vector")
        if not 0 <= self.dipole_moment < np.inf:
            raise ObservableError("dipole magnitude must be finite and >= 0")
        if not 0 < self.omega0 < np.inf:
            raise ObservableError("transition frequency must be finite and > 0")


@dataclass(frozen=True)
class BodySpec:
    voxel_indices: tuple

    def __post_init__(self):
        idx = self.voxel_indices
        if len(idx) == 0:
            raise ObservableError("body must contain at least one voxel")
        if not all(isinstance(i, (int, np.integer)) and not isinstance(i, bool) for i in idx):
            raise ObservableError(f"body voxel indices must be integers, not {list(idx)!r}")
        # every voxel adds its force once: a repeated index would add it twice
        if len(set(idx)) < len(idx):
            raise ObservableError(f"body voxel indices must be distinct, not {list(idx)!r}")


def vacuum_ldos(omega0, const: Constants = DEFAULT):
    """w^2 / (pi^2 c^3): both polarizations, per volume per unit frequency."""
    return omega0**2 / (np.pi**2 * const.c**3)


def ldos(scene: Scene, omega0, x0, n_hat, const: Constants = DEFAULT,
         solver: EffectiveSolver = None):
    """(6 w / pi c^2) Imag[n . G(x0, x0) . n], orientation resolved.

    n_hat is normalized; a zero or non-finite n_hat or x0, or a frequency
    that is not finite and positive, raises ObservableError.  The scattered
    part n . G_s(x0, x0) . n is one one-column solve
    (EffectiveSolver.green_coincident_scattered with n_hat).  Empty scenes
    take the purely analytic path and return the vacuum value to round-off.
    """
    if not 0 < omega0 < np.inf:
        raise ObservableError(f"frequency must be finite and > 0, not {omega0!r}")
    x0 = _finite_vector(x0, "x0")
    n = unit_orientation(n_hat)
    img_nn = omega0 / (6 * np.pi * const.c)
    if scene is not None and scene.n_voxels:
        solver = solver_at(scene, omega0, const, solver)
        gnn = solver.green_coincident_scattered(x0[None, :], n)[0]
        img_nn = img_nn + float(np.imag(gnn))
    return (6 * omega0 / (np.pi * const.c**2)) * img_nn


@dataclass(frozen=True)
class RateResult:
    gamma: float
    gamma_vacuum: float
    purcell: float
    ldos: float


def spontaneous_rate(scene: Scene, emitter: EmitterSpec, const: Constants = DEFAULT,
                     solver: EffectiveSolver = None) -> RateResult:
    """Gamma = (pi/3) (w0/hbar) |mu|^2 rho(x0), plus the Purcell ratio."""
    rho = ldos(scene, emitter.omega0, emitter.position, emitter.n_hat, const=const,
               solver=solver)
    pref = (np.pi / 3) * (emitter.omega0 / const.hbar) * emitter.dipole_moment**2
    g = pref * rho
    gv = pref * vacuum_ldos(emitter.omega0, const)
    return RateResult(gamma=float(g), gamma_vacuum=float(gv),
                      purcell=float(g / gv) if gv > 0 else float("nan"), ldos=float(rho))


@dataclass(frozen=True)
class GradientResult:
    gradient: np.ndarray  # complex (3,)
    left: np.ndarray
    right: np.ndarray


def _left_gradients(solver, rows, grads):
    """grad_1 Tr G_s(x, x), (..., B, 3), at points given their rows (..., B, 3, 3N) and gradients.

    Tr[d_j rows(x) . Y(x)] with Y the polarization of the points, one solve
    of 3B columns (_polarize), at one frequency or, on an (F,) solver, at each.
    """
    b = rows.shape[-3]
    Y = solver._polarize(b, [(slice(None), rows)])
    return np.einsum("...bjim,...mbi->...bj", grads, Y.reshape(Y.shape[:-1] + (b, 3)))


def green_trace_gradient(scene: Scene, omega, x, const: Constants = DEFAULT,
                         solver: EffectiveSolver = None) -> GradientResult:
    """Gradient of Tr G_scattered(x, x) acting on one argument at a time, x one finite point.

    Exact: G_s(x, x') = rows(x) chi A^-1 rows(x')^T / (dV k^2), and the
    rows' gradient is closed-form (greens._couplings), built with them.
    Each side makes one solve of its own: the left one for x (3 columns),
    contracted with d rows(x), the right one for d rows(x)^T (9 columns),
    contracted with rows(x).  chi A^-1 is symmetric, so the two are equal;
    the result reports both and their mean.
    """
    x = _finite_vector(x, "x")
    solver = solver_at(scene, omega, const, solver)
    rows, grads = solver._coupling_rows(x, gradients=True)
    left = _left_gradients(solver, rows, grads)[0]
    W = solver._polarize(1, [(slice(None), grads.reshape(1, 9, -1))], c=9)
    right = np.einsum("im,mji->j", rows[0], W.reshape(-1, 3, 3))
    return GradientResult(gradient=(left + right) / 2, left=left, right=right)


@dataclass(frozen=True)
class ForceResult:
    total: np.ndarray  # (3,) real
    ordering_anti: np.ndarray  # weight 1/(1 - e^-x)
    ordering_bose: np.ndarray  # weight 1/(e^x - 1)
    omega_grid: np.ndarray
    tail_fraction: float
    per_voxel: np.ndarray  # (V, 3)
    metadata: dict = field(default_factory=dict, compare=False)


def default_force_grid(material):
    """801 log-spaced points over two decades either side of the resonance omega_L."""
    if isinstance(material, DrudeLorentzModel):
        wl = resonance_params(material).omega_L
    else:
        wl = 1.0
    return np.logspace(np.log10(wl) - 2.0, np.log10(wl) + 2.0, 801)


def _diameter(pts):
    """Largest distance between two of the points, in blocks of about 2^18 pairs."""
    step = max(1, 2**18 // len(pts))  # rows per block
    return max(float(np.max(np.linalg.norm(pts[i:i + step, None] - pts[None, :], axis=-1)))
               for i in range(0, len(pts), step))


def casimir_thermal_force(scene: Scene, body: BodySpec, T, omega_grid=None,
                          const: Constants = DEFAULT, tail_tol=0.01) -> ForceResult:
    """Thermal-Casimir force on a voxel subset by frequency quadrature.

    Per frequency, per body voxel: (hbar/pi) (w/c)^2 coth(hbar w / 2 k T)
    Imag[(eps - 1) grad_1 Tr G_scat(x, x)] dV, trapezoid in log w.  The two
    orderings weighted 1/(1 - e^-x) and 1/(e^x - 1) are reported separately
    and sum to the coth total by construction on the same grid.

    The gradient is green_trace_gradient's left one, exact.  When two
    frequencies' worth of systems and rows fit in greens._STACK_BYTES, the
    sweep builds one EffectiveSolver per stack of frequencies (route
    "stacked"), one batched solve a stack; larger scenes build one per
    frequency and make one solve per block of body voxels (_row_blocks),
    route "per-frequency".  metadata["solve"] names the route, the number
    of batched solves (0 per frequency) and the worst backward error of
    every solver on either route, None when one of them measured none (a
    factor-route solver).
    """
    idx = tuple(body.voxel_indices)
    if any(i < 0 or i >= scene.n_voxels for i in idx):
        raise ObservableError("body voxel index out of range")
    if omega_grid is None:
        omega_grid = default_force_grid(scene.scatterer_voxels[idx[0]][1])
    w = np.asarray(omega_grid, dtype=float)
    if w.ndim != 1 or w.size < 4 or np.any(np.diff(w) <= 0):
        raise ObservableError("omega_grid must be increasing with >= 4 points")
    if scene.n_voxels > 1:
        diam = _diameter(scene.positions())
        if diam > 0 and float(np.max(np.diff(w))) > np.pi * const.c / (4 * diam):
            warnings.warn(
                "omega grid under-resolves the 2 k d interference oscillation "
                f"(largest step {np.max(np.diff(w)):.3g} vs pi c / 4 d = "
                f"{np.pi*const.c/(4*diam):.3g}); densify the grid"
            )

    pos = scene.positions()[list(idx)]
    # Imag[chi grad_1 Tr G_s(x, x)] per frequency and body voxel, 0 where chi = 0
    core = np.zeros((w.size, len(idx), 3))
    # each body voxel's rows and its gradient rows: four points' worth of rows
    chunk = greens._STACK_BYTES // greens.stack_bytes(scene.n_voxels, 4 * len(idx))
    stacked = chunk >= 2
    starts = range(0, w.size, chunk if stacked else 1)
    worst = 0.0  # None once a solver has measured no backward error
    for i in starts:
        solver = EffectiveSolver(scene, w[i:i + chunk] if stacked else w[i], const=const)
        chi = solver.chi[..., list(idx), None]
        # a solve's right-hand side stays within its block's rows
        grad = np.concatenate([_left_gradients(solver, rows, grads)
                               for _, rows, grads in solver._row_blocks(pos, gradients=True)],
                              axis=-2)
        core[i:i + np.size(solver.k)] = np.where(chi != 0, (chi * grad).imag, 0.0)
        bwd = solver.diagnostics["backward_error"]
        worst = None if worst is None or bwd is None else max(worst, bwd)
    solve = {"route": "stacked" if stacked else "per-frequency",
             "batched_solves": len(starts) if stacked else 0, "backward_error": worst}
    pref = (const.hbar / np.pi) * (w / const.c) ** 2 * scene.voxel_volume
    integrand_sym, integrand_anti, integrand_bose = (
        (pref * planck_weights(w, T, kind, const))[:, None, None] * core
        for kind in ("symmetrized", "plus-minus", "minus-plus"))

    lnw = np.log(w)
    navg = max(w.size // 4, 4)  # averaged truncation over the top grid segment

    def integrate(arr, spread=False):
        # cumulative log-trapezoid, then the mean over truncation points in
        # the last quarter of the grid: averaged truncation damps the
        # oscillatory high-frequency remainder of real-axis force integrals.
        # The tail estimate is the drift between the two half-window means.
        cum = np.concatenate([
            np.zeros((1,) + arr.shape[1:]),
            np.cumsum(np.diff(lnw)[:, None, None]
                      * 0.5 * ((arr * w[:, None, None])[1:] + (arr * w[:, None, None])[:-1]),
                      axis=0),
        ])
        window = cum[-navg:]
        mean = window.mean(axis=0)
        if spread:
            half = navg // 2
            drift = window[:half].mean(axis=0) - window[half:].mean(axis=0)
            return mean, float(np.linalg.norm(drift, axis=-1).sum())
        return mean

    per_voxel, tail_abs = integrate(integrand_sym, spread=True)
    total = per_voxel.sum(axis=0)
    f_anti = integrate(integrand_anti).sum(axis=0)
    f_bose = integrate(integrand_bose).sum(axis=0)

    scale = float(np.linalg.norm(total))
    tail = tail_abs / scale if scale > 0 else 0.0
    if tail > tail_tol:
        raise ObservableError(
            f"frequency quadrature unconverged: truncation drift {tail:.3g} "
            f"of the total exceeds {tail_tol}"
        )
    return ForceResult(
        total=total, ordering_anti=f_anti, ordering_bose=f_bose,
        omega_grid=w, tail_fraction=tail,
        per_voxel=per_voxel,
        metadata={
            "T": float(T),
            "scene": scene.digest(),
            "quasi_static_caveat": "dipole force formula; quasi-static limit only",
            # how the sweep solved, a run diagnostic that force.json leaves out
            "solve": solve,
        },
    )
