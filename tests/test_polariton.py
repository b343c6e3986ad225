import dataclasses

import numpy as np
import pytest

from fluctem import polariton

from fluctem.material import DrudeLorentzModel, resonance_params
from fluctem.polariton import (
    PolaritonError,
    dispersion_sweep,
    effective_photon_weight,
    longitudinal_branch,
    lossless_transverse,
    transverse_branches,
    window_integral_norm,
)

WEAK = DrudeLorentzModel(1e-2, 1.0, 1e-4)  # weak-coupling regime
STIFF = DrudeLorentzModel(1.2, 0.9, 0.05)


def test_lossless_vieta_identities(rng):
    # the squared branch frequencies solve X^2 - (wa^2 + wL^2) X + wa^2 w0^2
    m = STIFF
    wl2 = m.omega_p**2 + m.omega_0**2
    for wa in rng.uniform(0.05, 8.0, 25):
        up, lo = lossless_transverse(m, wa)
        s = up**2 + lo**2
        p = up**2 * lo**2
        assert abs(s - (wa**2 + wl2)) < 1e-12 * (wa**2 + wl2)
        assert abs(p - wa**2 * m.omega_0**2) < 1e-12 * max(wa**2 * m.omega_0**2, 1e-30)


def test_upper_branch_asymptote():
    m = STIFF
    wl = resonance_params(m).omega_L
    wa = 1e3 * wl
    up, _ = transverse_branches(m, wa)
    assert abs(up.Omega.real / wa - 1) < 1e-3


def test_small_momentum_limits():
    m = STIFF
    wl = resonance_params(m).omega_L
    up, lo = lossless_transverse(m, 1e-6 * wl)
    assert up == pytest.approx(wl, rel=1e-9)
    assert lo == pytest.approx(1e-6 * wl * m.omega_0 / wl, rel=1e-3)  # lo ~ wa w0/wL


def test_lossy_roots_satisfy_dispersion():
    m = DrudeLorentzModel(1.0, 1.0, 0.05)
    wl2 = 2.0
    for wa in (0.3, 1.0, 2.5):
        for bp in transverse_branches(m, wa):
            eps = 1 + m.omega_p**2 / (m.omega_0**2 - (bp.Omega + 1j * m.gamma) ** 2)
            assert abs(wa**2 - bp.Omega**2 * eps) <= 1e-10 * wl2
            assert bp.Omega.imag <= 0


def test_longitudinal_exact_345():
    bp = longitudinal_branch(DrudeLorentzModel(3.0, 4.0, 0.1))
    assert bp.Omega == pytest.approx(5.0 - 0.1j, rel=1e-15)


def test_longitudinal_epsilon_zero():
    m = DrudeLorentzModel(1.0, 1.0, 1e-4 * np.sqrt(2))
    bp = longitudinal_branch(m)
    # eps at the root vanishes identically for the single-oscillator form
    assert bp.residual < 1e-6


def test_longitudinal_large_gamma_warns():
    wl = resonance_params(DrudeLorentzModel(3.0, 4.0, 2.5)).omega_L
    with pytest.warns(UserWarning, match="degrades"):
        bp = longitudinal_branch(DrudeLorentzModel(3.0, 4.0, 0.5 * wl))
    assert bp.Omega == pytest.approx(5.0 - 2.5j)


def test_branch_continuity_no_swap():
    m = DrudeLorentzModel(1.0, 1.0, 0.02)
    grid = np.linspace(0.05, 4.0, 120)
    rows = dispersion_sweep(m, grid)
    ups = np.array([r[0].Omega for r in rows])
    los = np.array([r[1].Omega for r in rows])
    assert np.all(ups.real > los.real)  # branches never cross
    assert np.max(np.abs(np.diff(ups))) < 0.1
    assert np.max(np.abs(np.diff(los))) < 0.1


def test_weight_peaks_on_the_branch():
    m = WEAK
    wa = 2.0
    up, _ = transverse_branches(m, wa)
    width = abs(up.Omega.imag)
    # grid oracle: coarse global scan plus a fine scan around the resonance
    coarse = np.linspace(0.05, 4.0, 4001)
    fine = up.Omega.real + np.linspace(-50, 50, 2001) * width
    grid = np.unique(np.concatenate([coarse, fine]))
    vals = np.abs([effective_photon_weight(m, w, wa) for w in grid])
    peak = grid[np.argmax(vals)]
    assert abs(peak - up.Omega.real) < 2 * m.gamma
    # far off resonance (beyond 1e3 gamma) the weight is down by >= 1e3
    far = np.abs(grid - up.Omega.real) > 1e3 * m.gamma
    assert vals[far].max() < 1e-3 * vals.max()


def test_weight_vanishes_in_vacuum_limit():
    thin = DrudeLorentzModel(1e-8, 1.0, 1e-4)
    w = abs(effective_photon_weight(thin, 2.3, 2.0))
    thick = abs(effective_photon_weight(DrudeLorentzModel(1e-2, 1.0, 1e-4), 2.3, 2.0))
    assert w < 1e-10 * thick / 1e-4  # amplitude carries sqrt(eps'') ~ omega_p


def test_window_norm_weak_coupling():
    res = window_integral_norm(WEAK, 2.0, "upper", 10.0)
    assert res.ratio == pytest.approx(1.0, abs=0.05)


def test_window_norm_insensitive_to_window():
    # computed from the quadrature oracle: the Lorentzian tail changes the
    # ratio by 0.8% between w = 20 and w = 40 (1.7% between 10 and 20)
    r20 = window_integral_norm(WEAK, 2.0, "upper", 20.0)
    r40 = window_integral_norm(WEAK, 2.0, "upper", 40.0)
    assert abs(r40.ratio / r20.ratio - 1) < 0.01


def test_window_minimum():
    with pytest.raises(PolaritonError):
        window_integral_norm(WEAK, 2.0, "upper", 2.0)


def test_longitudinal_norm_decouples():
    n1 = window_integral_norm(DrudeLorentzModel(1e-2, 1.0, 1e-4), 2.0,
                              "longitudinal", 10.0)
    n2 = window_integral_norm(DrudeLorentzModel(1e-3, 1.0, 1e-4), 2.0,
                              "longitudinal", 10.0)
    assert np.isnan(n1.n_pred)
    assert n2.raw < 0.2 * n1.raw  # norm shrinks with the oscillator strength


def _dispersion_residual(m, wa, W):
    eps = 1 + m.omega_p**2 / (m.omega_0**2 - (W + 1j * m.gamma) ** 2)
    return abs(wa**2 - W**2 * eps)


def test_far_mode_has_two_distinct_branches():
    # far above omega_L the lower branch sits at the resonance, not on a
    # second copy of the upper root
    up, lo = transverse_branches(STIFF, 7.0)
    assert up.Omega.real > 7.0
    assert abs(lo.Omega.real - STIFF.omega_0) < 0.05
    assert abs(up.Omega - lo.Omega) > 6.0


def test_lower_branch_stays_positive_at_large_momentum():
    wa = 1e3 * resonance_params(STIFF).omega_L
    up, lo = transverse_branches(STIFF, wa)
    assert lo.Omega.real > 0
    assert abs(lo.Omega.real - STIFF.omega_0) < 0.05
    assert up.Omega.real == pytest.approx(wa, rel=1e-3)


def test_strong_loss_sweep_keeps_the_branches_apart():
    rows = dispersion_sweep(DrudeLorentzModel(3.0, 4.0, 2.5), np.linspace(0.05, 10.0, 200))
    ups = np.array([r[0].Omega for r in rows])
    los = np.array([r[1].Omega for r in rows])
    assert np.all(ups.real > los.real)


def test_pure_drude_lower_branch_is_a_lossy_root():
    m = DrudeLorentzModel(1.0, 0.0, 0.1)
    wl2 = resonance_params(m).omega_L ** 2
    for wa in (0.05, 0.5, 2.0, 5.0):
        up, lo = transverse_branches(m, wa)
        assert lo.Omega != 0
        assert 0 < lo.Omega.real < up.Omega.real and lo.Omega.imag < 0
        assert _dispersion_residual(m, wa, lo.Omega) <= 1e-12 * wl2
        assert lo.residual <= 1e-12 * wl2


def test_zero_momentum_lower_branch_is_exactly_zero():
    up, lo = transverse_branches(STIFF, 0.0)
    assert lo.Omega == 0 and lo.residual == 0
    assert up.Omega == pytest.approx(resonance_params(STIFF).longitudinal_branch, rel=1e-14)


@pytest.mark.parametrize("m, wa, branch", [
    (STIFF, 2.0, "upper"),
    (STIFF, 0.5, "lower"),
    (DrudeLorentzModel(1.0, 1.0, 0.05), 1.0, "lower"),
    (DrudeLorentzModel(3.0, 4.0, 2.5), 0.5, "upper"),
    (WEAK, 2.0, "upper"),
])
def test_window_norm_derivative_matches_central_difference(m, wa, branch):
    # n_pred = sqrt(|W/2 dW^2/d(wa^2)|); the analytic derivative against a
    # central difference of the branch roots themselves
    idx = {"upper": 0, "lower": 1}[branch]
    h = 1e-5 * wa**2

    def omega2(d):
        return transverse_branches(m, np.sqrt(wa**2 + d))[idx].Omega ** 2

    fd = (omega2(h) - omega2(-h)) / (2 * h)
    W = transverse_branches(m, wa)[idx].Omega
    norm = window_integral_norm(m, wa, branch)
    assert norm.n_pred == pytest.approx(np.sqrt(abs(W / 2 * fd)), rel=1e-8)


def test_window_ratio_is_insensitive_to_a_one_ulp_shift_of_the_branch(monkeypatch):
    # criterion 6's narrow window (half-width 4.4e-9 at Omega = 2.00003):
    # there w_a^2 - w^2 eps(w) cancels to about 1e-8 of w_a^2, so the direct
    # form of the weight moves the ratio by 1.2e-8 when the window moves by
    # one ulp; the product form over the quartic's roots does not cancel
    m = DrudeLorentzModel(1e-2, 1.0, 1e-4)
    base = window_integral_norm(m, 2.0, "upper", 10.0).ratio
    branches = polariton.transverse_branches

    def nudged(model, wa):
        up, lo = branches(model, wa)
        W = complex(np.nextafter(up.Omega.real, np.inf), up.Omega.imag)
        return dataclasses.replace(up, Omega=W), lo

    monkeypatch.setattr(polariton, "transverse_branches", nudged)
    moved = window_integral_norm(m, 2.0, "upper", 10.0).ratio
    assert abs(moved - base) <= 1e-12 * base
