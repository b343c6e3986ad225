"""Bulk polariton branches of a Drude-Lorentz medium and mode-operator norms.

Transverse branches solve w_a^2 - W^2 eps(W) = 0; the longitudinal branch
solves eps(W) = 0, which for the single-oscillator model is the undispersed
point W = omega_L - i gamma.  Roots live in the lower half plane for any
causal lossy medium.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import quad

from .material import DrudeLorentzModel, MaterialError, resonance_params


class PolaritonError(RuntimeError):
    pass


@dataclass(frozen=True)
class BranchPoint:
    omega_alpha: float
    branch: str  # 'upper', 'lower', 'longitudinal'
    Omega: complex
    residual: float
    metadata: dict = field(default_factory=dict, compare=False)


def lossless_transverse(m: DrudeLorentzModel, omega_alpha):
    """Closed-form gamma -> 0 branch frequencies (upper, lower), real.

    Omega_pm^2 = [w_a^2 + w_L^2 +- sqrt((w_a^2 + w_L^2)^2 - 4 w_a^2 w_0^2)] / 2.
    """
    wa2 = float(omega_alpha) ** 2
    wl2 = m.omega_p**2 + m.omega_0**2
    s = wa2 + wl2
    disc = s * s - 4 * wa2 * m.omega_0**2
    root = np.sqrt(max(disc, 0.0))
    up = np.sqrt((s + root) / 2)
    lo = np.sqrt(max((s - root) / 2, 0.0))
    return up, lo


def _eval_c(m: DrudeLorentzModel, W):
    # analytic continuation of the closed form to complex W
    return 1.0 + m.omega_p**2 / (m.omega_0**2 - (W + 1j * m.gamma) ** 2)


def _newton_branch(m, omega_alpha, seed, tol_scale, max_iter=100):
    """Damped Newton on f(W) = w_a^2 - W^2 eps(W), seeded from the lossless root.

    The tolerance carries a floating-point floor ~ eps * w_a^2 since the
    residual itself cannot be evaluated below the roundoff of w_a^2.
    """
    wl2 = m.omega_p**2 + m.omega_0**2
    eps_floor = 64 * np.finfo(float).eps * max(omega_alpha**2, wl2)
    tol = max(1e-10 * max(wl2, 1e-300) * tol_scale, eps_floor)
    W = complex(seed)
    trace = []
    fW = omega_alpha**2 - W**2 * _eval_c(m, W)
    for it in range(max_iter):
        if abs(fW) <= tol:
            break
        dfW = -(2 * W * _eval_c(m, W) + W**2 * m.eval_deriv(W))
        step = fW / dfW
        lam = 1.0
        for _ in range(40):
            Wn = W - lam * step
            fn = omega_alpha**2 - Wn**2 * _eval_c(m, Wn)
            if abs(fn) < abs(fW):
                break
            lam /= 2
        trace.append((complex(W), abs(fW)))
        if abs(Wn - W) <= 4 * np.finfo(float).eps * abs(Wn):
            W, fW = Wn, fn
            break  # stagnated at the float floor
        W, fW = Wn, fn
    else:
        raise PolaritonError(
            f"Newton failed after {max_iter} steps at omega_alpha={omega_alpha}: "
            f"|f|={abs(fW):.3e}, trace tail={trace[-3:]}"
        )
    if W.imag > 0:  # causal roots sit in the lower half plane
        W = W.conjugate()
    return W, abs(omega_alpha**2 - W**2 * _eval_c(m, W))


def transverse_branches(m: DrudeLorentzModel, omega_alpha, seeds=None):
    """(upper, lower) BranchPoints at one vacuum mode frequency.

    seeds, when given as (upper_seed, lower_seed), start the Newton
    iteration there instead of the lossless closed form; sweeps use this to
    track branches continuously.
    """
    if omega_alpha < 0:
        raise MaterialError("omega_alpha must be nonnegative")
    up0, lo0 = lossless_transverse(m, omega_alpha)
    if seeds is not None:
        up0, lo0 = seeds
    out = []
    for tag, seed in (("upper", up0), ("lower", lo0)):
        if abs(seed) == 0.0:
            out.append(BranchPoint(float(omega_alpha), tag, 0.0 + 0.0j, 0.0))
            continue
        W, res = _newton_branch(m, float(omega_alpha), seed, tol_scale=1.0)
        out.append(BranchPoint(float(omega_alpha), tag, W, float(res)))
    return tuple(out)


def longitudinal_branch(m: DrudeLorentzModel, omega_alpha=0.0) -> BranchPoint:
    """The dispersionless longitudinal root W = omega_L - i gamma."""
    rp = resonance_params(m)
    W = rp.longitudinal_branch
    res = abs(_eval_c(m, W))
    meta = {}
    if m.gamma > 0.1 * rp.omega_L:
        meta["warning"] = (
            f"gamma = {m.gamma/rp.omega_L:.2f} omega_L: the weak-loss reading of the "
            "longitudinal root degrades"
        )
        warnings.warn(meta["warning"])
    return BranchPoint(float(omega_alpha), "longitudinal", W, float(res), meta)


def dispersion_sweep(m: DrudeLorentzModel, omega_alphas):
    """Branch points along a sweep, tracking roots from the previous point."""
    rows = []
    seeds = None
    for wa in omega_alphas:
        up, lo = transverse_branches(m, wa, seeds=seeds)
        seeds = (up.Omega, lo.Omega if abs(lo.Omega) > 0 else None)
        if seeds[1] is None:
            seeds = None
        rows.append((up, lo, longitudinal_branch(m, wa)))
    return rows


def effective_photon_weight(m: DrudeLorentzModel, omega, omega_alpha, hbar=1.0):
    """Spectral weight w^2 / (w_a^2 - w^2 eps_w) * sqrt(hbar eps''_w / pi).

    The complex integrand whose window integral around a transverse branch
    normalizes the effective photon ladder operators.
    """
    if omega <= 0:
        raise MaterialError("omega must be > 0")
    eps = m.eval(omega)
    return omega**2 / (omega_alpha**2 - omega**2 * eps) * np.sqrt(hbar * eps.imag / np.pi)


def _weight_sq_longitudinal(m, omega, hbar):
    eps = m.eval(omega)
    return hbar * eps.imag / (np.pi * abs(eps) ** 2)


@dataclass(frozen=True)
class WindowNorm:
    raw: float
    n_pred: float
    ratio: float
    window_halfwidths: float
    metadata: dict = field(default_factory=dict, compare=False)


def window_integral_norm(m: DrudeLorentzModel, omega_alpha, branch="upper",
                         window_halfwidths=10.0, hbar=1.0) -> WindowNorm:
    """Window norm sqrt(int |weight|^2 dw) against the closed-form prediction.

    The prediction is N = sqrt(hbar W / 2 * dW^2/d(w_a^2)) with the branch
    derivative taken by central differences of the solver (Richardson
    refined).  The ratio raw/N approaches (2/pi) arctan(w)^(1/2) -> 1 for a
    resonance-dominated window of half-width w leak widths.
    """
    w = float(window_halfwidths)
    if w < 3:
        raise PolaritonError("window_halfwidths must be >= 3")
    if branch == "longitudinal":
        bp = longitudinal_branch(m)
        center = bp.Omega.real
        half = max(w * abs(bp.Omega.imag), 1e-12 * max(center, 1.0))
        val, err = quad(lambda x: _weight_sq_longitudinal(m, x, hbar),
                        max(center - half, 1e-12), center + half,
                        points=[center], limit=400)
        return WindowNorm(raw=float(np.sqrt(val)), n_pred=float("nan"),
                          ratio=float("nan"), window_halfwidths=w,
                          metadata={"quad_error": err, "branch": "longitudinal"})
    idx = {"upper": 0, "lower": 1}[branch]
    bp = transverse_branches(m, omega_alpha)[idx]
    center = bp.Omega.real
    halfw = abs(bp.Omega.imag)
    if halfw == 0:
        raise PolaritonError("branch has zero linewidth; lossless norm is ill defined")
    lo = max(center - w * halfw, 1e-12)
    hi = center + w * halfw

    def integrand(x):
        return abs(effective_photon_weight(m, x, omega_alpha, hbar=hbar)) ** 2

    val, err = quad(integrand, lo, hi, points=[center], limit=800)
    raw = float(np.sqrt(val))

    # dW^2/d(w_a^2) by central difference with Richardson refinement
    wa2 = omega_alpha**2

    def omega2_at(d):
        up, lo_ = transverse_branches(m, np.sqrt(wa2 + d))
        return (up if branch == "upper" else lo_).Omega ** 2

    h = 1e-4 * wa2
    d1 = (omega2_at(h) - omega2_at(-h)) / (2 * h)
    d2 = (omega2_at(h / 2) - omega2_at(-h / 2)) / h
    deriv = (4 * d2 - d1) / 3
    n_pred = float(np.sqrt(abs(hbar * bp.Omega / 2 * deriv)))
    return WindowNorm(
        raw=raw,
        n_pred=n_pred,
        ratio=raw / n_pred,
        window_halfwidths=w,
        metadata={"quad_error": err, "deriv_error": float(abs(d2 - d1)),
                  "branch": branch, "Omega": bp.Omega},
    )
