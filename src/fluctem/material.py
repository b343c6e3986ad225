"""Causal permittivity models and their Kramers-Kronig check.

Materials are referenced everywhere through three concrete types:

* ``Vacuum`` evaluates to exactly 1 + 0j at every frequency.
* ``DrudeLorentzModel`` is the single-resonance closed form
  eps(w) = 1 + omega_p**2 / (omega_0**2 - (w + i*gamma)**2).
* ``TabulatedPermittivity`` interpolates measured spectra, cubic in
  log-frequency for the real part and linear for the imaginary part.
  Extrapolation outside the table is an error by design.

All models are immutable and pure, so they are safe to evaluate from any
number of threads.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np


class MaterialError(ValueError):
    """Invalid material definition or evaluation request."""


@dataclass(frozen=True)
class Vacuum:
    """The trivial material, eps identically 1."""

    def eval(self, omega):
        _check_omega(omega)
        return complex(1.0, 0.0)


VACUUM = Vacuum()


@dataclass(frozen=True)
class DrudeLorentzModel:
    """Single-oscillator causal permittivity.

    Parameters
    ----------
    omega_p : plasma frequency (>= 0)
    omega_0 : resonance frequency (>= 0)
    gamma : damping rate, strictly positive.  A strictly positive gamma keeps
        Imag[eps] > 0 for omega > 0, which the noise-current amplitude
        sqrt(Imag[eps]) requires.
    """

    omega_p: float
    omega_0: float
    gamma: float

    def __post_init__(self):
        if self.omega_p < 0 or self.omega_0 < 0:
            raise MaterialError("omega_p and omega_0 must be nonnegative")
        if not self.gamma > 0:
            raise MaterialError("gamma must be strictly positive")

    def eval(self, omega):
        _check_omega(omega)
        w = np.asarray(omega, dtype=complex)
        val = 1.0 + self.omega_p**2 / (self.omega_0**2 - (w + 1j * self.gamma) ** 2)
        return complex(val) if np.ndim(omega) == 0 else val


@dataclass(frozen=True)
class ResonanceParams:
    omega_L: float
    longitudinal_branch: complex


@dataclass(frozen=True)
class TabulatedPermittivity:
    """Permittivity given as samples (omega_i, eps_i), omega_i > 0 increasing.

    The real part is a cubic spline in ln(omega), the imaginary part linear
    in omega.  Requests outside [omega_min, omega_max] raise.
    """

    omegas: tuple
    values: tuple
    _spline: object = field(init=False, repr=False, compare=False, default=None)

    def __post_init__(self):
        # imported here, its only user, so a run without a table never loads it
        from scipy.interpolate import CubicSpline

        w = np.asarray(self.omegas, dtype=float)
        v = np.asarray(self.values, dtype=complex)
        if w.ndim != 1 or w.size < 4:
            raise MaterialError("need at least 4 samples")
        if w.size != v.size:
            raise MaterialError("omegas and values length mismatch")
        if np.any(w <= 0) or np.any(np.diff(w) <= 0):
            raise MaterialError("sample frequencies must be positive and strictly increasing")
        if np.any(v.imag < 0):
            raise MaterialError("Imag[eps] must be >= 0 at every sample (no gain media)")
        object.__setattr__(self, "omegas", tuple(float(x) for x in w))
        object.__setattr__(self, "values", tuple(complex(x) for x in v))
        object.__setattr__(self, "_spline", CubicSpline(np.log(w), v.real))

    def eval(self, omega):
        _check_omega(omega)
        w = np.asarray(omega, dtype=float)
        lo, hi = self.omegas[0], self.omegas[-1]
        if np.any(w < lo) or np.any(w > hi):
            raise MaterialError(
                f"frequency {omega} outside tabulated range [{lo}, {hi}]; extrapolation is forbidden"
            )
        wa = np.asarray(self.omegas)
        va = np.asarray(self.values)
        re = self._spline(np.log(w))
        im = np.interp(w, wa, va.imag)
        val = re + 1j * im
        return complex(val) if np.ndim(omega) == 0 else val


def _check_omega(omega):
    # a float is checked without an array: each solver checks its frequency
    # once per material, and the array tests cost more than the evaluation
    if type(omega) in (float, np.float64):
        if not 0.0 < omega < np.inf:  # also False for NaN
            raise MaterialError("omega must be real, finite and > 0")
        return
    w = np.asarray(omega)
    if not np.all(np.isreal(w)) or not np.all(np.isfinite(w)) or np.any(np.real(w) <= 0):
        raise MaterialError("omega must be real, finite and > 0")


def resonance_params(m: DrudeLorentzModel) -> ResonanceParams:
    """Derived spectral landmarks of a Drude-Lorentz oscillator.

    omega_L = sqrt(omega_p**2 + omega_0**2) is the frequency where the real
    part of eps crosses zero in the lossless limit; the undispersed
    longitudinal branch sits at omega_L - i*gamma.
    """
    if not isinstance(m, DrudeLorentzModel):
        raise MaterialError("resonance_params needs a DrudeLorentzModel")
    omega_L = float(np.hypot(m.omega_p, m.omega_0))
    return ResonanceParams(omega_L=omega_L, longitudinal_branch=omega_L - 1j * m.gamma)


@dataclass(frozen=True)
class KKResult:
    residual: float
    warnings: tuple = ()


def kramers_kronig_residual(material, grid) -> KKResult:
    """Worst-case causality defect of a material over a frequency grid.

    Evaluates eps'(w) - 1 - (2/pi) P.V. int w' eps''(w') / (w'^2 - w^2) dw'
    on the interior grid points, the principal value handled by subtracting
    the singular part analytically.  The result is truncation-limited by the
    grid extent; a causal model on a wide enough grid gives a small residual,
    a non-causal table gives O(1).
    """
    w = np.asarray(grid, dtype=float)
    if w.ndim != 1 or w.size < 16:
        raise MaterialError("grid must be a 1-d array with at least 16 points")
    if np.any(w <= 0) or np.any(np.diff(w) <= 0):
        raise MaterialError("grid must be positive, strictly increasing")

    eps = np.asarray([material.eval(wi) for wi in w], dtype=complex)
    if isinstance(material, Vacuum):
        return KKResult(residual=0.0)

    notes = []
    if isinstance(material, DrudeLorentzModel):
        near = np.abs(w - material.omega_0) < 5 * material.gamma
        if near.sum() < 8:
            notes.append(
                f"grid too coarse near the resonance: {near.sum()} points within 5*gamma of omega_0"
            )

    f = w * eps.imag  # numerator of the KK kernel
    worst = 0.0
    # skip the extreme points where the subtracted log term degenerates
    for i in range(2, w.size - 2):
        wi = w[i]
        den = w**2 - wi**2
        sub = np.empty_like(f)
        mask = np.abs(den) > 0
        sub[mask] = (f[mask] - f[i]) / den[mask]
        # limit of the subtracted integrand at w' = wi: d(w eps'')/dw / (2 wi)
        dfdw = (f[i + 1] - f[i - 1]) / (w[i + 1] - w[i - 1])
        sub[~mask] = dfdw / (2 * wi)
        pv_rest = f[i] / (2 * wi) * (
            np.log((w[-1] - wi) / (w[-1] + wi)) - np.log((wi - w[0]) / (wi + w[0]))
        )
        kk = (2 / np.pi) * (np.trapezoid(sub, w) + pv_rest)
        worst = max(worst, abs(eps[i].real - 1.0 - kk))
    if notes:
        warnings.warn("; ".join(notes))
    return KKResult(residual=float(worst), warnings=tuple(notes))
