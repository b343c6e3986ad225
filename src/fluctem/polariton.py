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


def _quartic(m: DrudeLorentzModel, wa2):
    """Coefficients of P(W) = (w_a^2 - W^2)(w_0^2 - (W + i gamma)^2) - w_p^2 W^2."""
    g = m.gamma
    return np.array([1.0, 2j * g, -(wa2 + m.omega_0**2 + g**2 + m.omega_p**2),
                     -2j * g * wa2, wa2 * (m.omega_0**2 + g**2)])


def _den(m: DrudeLorentzModel, W):
    """The Drude-Lorentz denominator D(W) = w_0^2 - (W + i gamma)^2."""
    return m.omega_0**2 - (W + 1j * m.gamma) ** 2


def transverse_branches(m: DrudeLorentzModel, omega_alpha):
    """(upper, lower) BranchPoints at one vacuum mode frequency.

    w_a^2 = W^2 eps(W) times D(W) is the quartic P(W) = 0, whose roots come
    in mirror pairs (W, -conj(W)).  The two with Re W >= 0, ordered by real
    part, are the upper and lower branches.
    """
    if omega_alpha < 0:
        raise MaterialError("omega_alpha must be nonnegative")
    wa = float(omega_alpha)
    roots = np.roots(_quartic(m, wa**2))
    out = []
    for tag, W in zip(("upper", "lower"), sorted(roots, key=lambda r: -r.real)):
        W = complex(abs(W.real), W.imag)
        res = abs(wa**2 - W**2 * (1.0 + m.omega_p**2 / _den(m, W)))
        out.append(BranchPoint(wa, tag, W, float(res)))
    return tuple(out)


def longitudinal_branch(m: DrudeLorentzModel, omega_alpha=0.0) -> BranchPoint:
    """The dispersionless longitudinal root W = omega_L - i gamma."""
    rp = resonance_params(m)
    W = rp.longitudinal_branch
    res = abs(1.0 + m.omega_p**2 / _den(m, W))
    meta = {}
    if m.gamma > 0.1 * rp.omega_L:
        meta["warning"] = (
            f"gamma = {m.gamma/rp.omega_L:.2f} omega_L: the weak-loss reading of the "
            "longitudinal root degrades"
        )
        warnings.warn(meta["warning"])
    return BranchPoint(float(omega_alpha), "longitudinal", W, float(res), meta)


def dispersion_sweep(m: DrudeLorentzModel, omega_alphas):
    """(upper, lower, longitudinal) branch points at each sweep frequency."""
    return [(*transverse_branches(m, wa), longitudinal_branch(m, wa)) for wa in omega_alphas]


def effective_photon_weight(m: DrudeLorentzModel, omega, omega_alpha, hbar=1.0):
    """Spectral weight w^2 / (w_a^2 - w^2 eps_w) * sqrt(hbar eps''_w / pi).

    The complex integrand whose window integral around a transverse branch
    normalizes the effective photon ladder operators.
    """
    if omega <= 0:
        raise MaterialError("omega must be > 0")
    return _weight(m, omega, omega - np.roots(_quartic(m, float(omega_alpha) ** 2)), hbar)


def _weight(m, omega, offsets, hbar):
    """effective_photon_weight with w_a^2 - w^2 eps_w = P(w) / D(w) in product form.

    P is the monic quartic, the product of offsets = w - W_r over its four
    roots.  The direct difference cancels to the distance from the nearest
    root, about 1e-8 of w_a^2 inside a narrow branch's window; the product
    keeps the relative accuracy of each offset, which the caller computes.
    """
    eps = m.eval(omega)
    return (omega**2 * _den(m, omega) / np.prod(offsets)
            * np.sqrt(hbar * eps.imag / np.pi))


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

    The prediction is N = sqrt(hbar W / 2 * dW^2/d(w_a^2)), the branch
    derivative -2 W D(W) / P'(W) by implicit differentiation of the quartic
    P(W) = (w_a^2 - W^2) D(W) - w_p^2 W^2.  The ratio raw/N approaches
    (2/pi) arctan(w)^(1/2) -> 1 for a resonance-dominated window of
    half-width w leak widths.
    """
    # imported here, its only user, so a run that integrates no window never loads it
    from scipy.integrate import quad

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
    # in the window coordinate t, w = center + halfw t: the nodes and each
    # offset w - W_r = (center - W_r) + halfw t keep their relative accuracy
    # however narrow the window, where w itself rounds to 1e-7 of a 4e-9 width
    rel = center - np.roots(_quartic(m, float(omega_alpha) ** 2))

    def integrand(t):
        return abs(_weight(m, center + halfw * t, rel + halfw * t, hbar)) ** 2

    val, err = quad(integrand, max(-w, (1e-12 - center) / halfw), w, points=[0.0], limit=800)
    val, err = val * halfw, err * halfw
    raw = float(np.sqrt(val))

    W = bp.Omega
    deriv = -2 * W * _den(m, W) / np.polyval(np.polyder(_quartic(m, omega_alpha**2)), W)
    n_pred = float(np.sqrt(abs(hbar * W / 2 * deriv)))
    return WindowNorm(
        raw=raw,
        n_pred=n_pred,
        ratio=raw / n_pred,
        window_halfwidths=w,
        metadata={"quad_error": err, "branch": branch, "Omega": W},
    )
