import numpy as np
import pytest

from fluctem.greens import EffectiveSolver
from fluctem.material import (
    VACUUM,
    DrudeLorentzModel,
    KKResult,
    MaterialError,
    TabulatedPermittivity,
    kramers_kronig_residual,
    resonance_params,
)
from fluctem.scene import Scene, Shell

from conftest import FixedEps, voxel_owner


def test_vacuum_is_exactly_one():
    assert VACUUM.eval(0.7) == 1.0 + 0.0j
    assert VACUUM.eval(123.0) == 1.0 + 0.0j


def test_static_limit():
    # omega -> 0 of the closed form tends to 1 + omega_p^2/omega_0^2 = 2
    m = DrudeLorentzModel(1.0, 1.0, 1e-9)
    val = m.eval(1e-8)
    assert val.real == pytest.approx(2.0, abs=1e-10)


def test_high_frequency_limit():
    m = DrudeLorentzModel(2.0, 1.5, 0.3)
    val = m.eval(1e8)
    assert abs(val - 1.0) < 1e-12


def test_resonant_value_against_high_precision():
    # independent evaluation of 1 + 1/(1 - (1 + 0.01i)^2) at 50 digits
    import mpmath

    mpmath.mp.dps = 50
    w = mpmath.mpc(1, 0.01)
    exact = 1 + 1 / (1 - w * w)
    m = DrudeLorentzModel(1.0, 1.0, 0.01)
    val = m.eval(1.0)
    assert abs(val - complex(exact)) / abs(complex(exact)) < 1e-14
    assert val.imag > 10  # strongly resonant


def test_omega_must_be_positive_real():
    m = DrudeLorentzModel(1.0, 1.0, 0.1)
    with pytest.raises(MaterialError):
        m.eval(0.0)
    with pytest.raises(MaterialError):
        m.eval(-2.0)


@pytest.mark.parametrize("omega", [np.nan, np.inf, -np.inf, np.array([1.0, np.nan])])
def test_omega_must_be_finite(omega):
    # a NaN frequency used to evaluate to nan+nanj and surface later as a
    # singular LS matrix
    tab = TabulatedPermittivity((0.5, 1.0, 1.5, 2.0), (2 + 0.1j, 1.8 + 0.2j, 1.6 + 0.1j, 1.5 + 0j))
    for m in (VACUUM, DrudeLorentzModel(1.2, 0.9, 0.4), tab):
        with pytest.raises(MaterialError, match="finite"):
            m.eval(omega)


def _array_rule_accepts(omega):
    """The frequency check in its array form, the one rule for every input."""
    w = np.asarray(omega)
    return not (not np.all(np.isreal(w)) or not np.all(np.isfinite(w)) or np.any(np.real(w) <= 0))


FREQUENCY_INPUTS = [
    1, 0, -2, True, False, 1.5, 0.0, -0.0, -1.0, 5e-324, np.nan, np.inf, -np.inf,
    np.float32(1.5), np.float32(0.0), np.float32(-1.0), np.float32(np.nan), np.float32(np.inf),
    np.float64(1.5), np.float64(0.0), np.float64(-1.0), np.float64(np.nan), np.float64(-np.inf),
    np.array(1.5), np.array(0.0), np.array(-1.0), np.array(np.nan), np.array(np.inf),
    1.5 + 0j, 1.5 + 1e-300j, 1.5 - 2j, -1.5 + 0j, 0j, complex(np.nan, 0.0), complex(np.inf, 0.0),
    np.complex128(2.0 + 0j), np.complex128(2.0 + 1j), np.array(2.0 + 0j), np.array(2.0 - 1j),
]


@pytest.mark.parametrize("omega", FREQUENCY_INPUTS, ids=repr)
def test_scalar_frequency_check_keeps_the_array_rule(omega):
    # floats take a path without arrays; every input is accepted or refused
    # as the array rule does, and an accepted one evaluates as its 0-d array
    m = DrudeLorentzModel(1.2, 0.9, 0.4)
    if _array_rule_accepts(omega):
        assert m.eval(omega) == m.eval(np.asarray(omega))
        assert VACUUM.eval(omega) == 1.0
    else:
        for mat in (m, VACUUM):
            with pytest.raises(MaterialError, match="real, finite and > 0"):
                mat.eval(omega)


def test_solver_rejects_nan_frequency():
    scene = Scene(box_side=10.0, voxel_pitch=0.3,
                  scatterer_voxels=(((0.0, 0.0, 0.0), DrudeLorentzModel(1.2, 0.9, 0.4)),))
    with pytest.raises(MaterialError, match="finite"):
        EffectiveSolver(scene, np.nan)


def test_gamma_strictly_positive():
    with pytest.raises(MaterialError):
        DrudeLorentzModel(1.0, 1.0, 0.0)
    with pytest.raises(MaterialError):
        DrudeLorentzModel(-1.0, 1.0, 0.1)


def test_resonance_params_345():
    rp = resonance_params(DrudeLorentzModel(3.0, 4.0, 0.1))
    assert rp.omega_L == pytest.approx(5.0, rel=1e-15)
    assert rp.longitudinal_branch == pytest.approx(5.0 - 0.1j, rel=1e-15)


def test_resonance_params_limits():
    assert resonance_params(DrudeLorentzModel(0.0, 1.3, 0.1)).omega_L == pytest.approx(1.3)
    rp = resonance_params(DrudeLorentzModel(1.0, 0.0, 0.5))  # pure Drude
    assert rp.omega_L == pytest.approx(1.0)
    assert rp.longitudinal_branch == pytest.approx(1.0 - 0.5j)


def test_omega_l_closes_to_machine(rng):
    for _ in range(50):
        wp, w0 = rng.uniform(0.1, 10.0, 2)
        rp = resonance_params(DrudeLorentzModel(wp, w0, 0.01))
        assert abs(rp.omega_L**2 - (wp**2 + w0**2)) < 1e-14 * (wp**2 + w0**2)


def test_positive_absorption_everywhere(rng):
    models = [DrudeLorentzModel(*rng.uniform(0.1, 5.0, 2), rng.uniform(0.01, 1.0))
              for _ in range(10)]
    grid = np.logspace(-2, 2, 200)
    for m in models:
        for w in grid:
            assert m.eval(w).imag > 0


def test_reality_condition(rng):
    # eps(-w)* computed from the closed form equals eps(w)
    for _ in range(20):
        wp, w0 = rng.uniform(0.1, 5.0, 2)
        g = rng.uniform(0.01, 0.5)
        w = rng.uniform(0.05, 20.0)
        m = DrudeLorentzModel(wp, w0, g)
        minus = 1.0 + wp**2 / (w0**2 - (-w + 1j * g) ** 2)
        assert np.conj(minus) == pytest.approx(m.eval(w), rel=1e-15)


def _dl_table(m, lo=0.05, hi=20.0, n=400):
    ws = np.logspace(np.log10(lo), np.log10(hi), n)
    return TabulatedPermittivity(tuple(ws), tuple(m.eval(w) for w in ws))


def test_table_interpolation_accuracy():
    m = DrudeLorentzModel(1.0, 1.0, 0.2)
    tab = _dl_table(m)
    for w in (0.1, 0.7, 1.05, 3.3, 15.0):
        assert tab.eval(w) == pytest.approx(m.eval(w), rel=2e-3)


def test_table_extrapolation_forbidden():
    tab = _dl_table(DrudeLorentzModel(1.0, 1.0, 0.2))
    with pytest.raises(MaterialError):
        tab.eval(0.01)
    with pytest.raises(MaterialError):
        tab.eval(100.0)
    # an array, as a stacked Casimir sweep passes, names its first frequency outside
    with pytest.raises(MaterialError, match=r"^frequency 100\.0 outside"):
        tab.eval(np.array([1.0, 100.0, 200.0]))


def test_table_rejects_gain_and_disorder():
    with pytest.raises(MaterialError):
        TabulatedPermittivity((1.0, 2.0, 3.0, 4.0), (1 + 0j, 1 - 0.1j, 1 + 0j, 1 + 0j))
    with pytest.raises(MaterialError):
        TabulatedPermittivity((1.0, 3.0, 2.0, 4.0), (1 + 0j,) * 4)


def test_kk_vacuum_is_zero():
    grid = np.logspace(-1, 1, 64)
    assert kramers_kronig_residual(VACUUM, grid) == KKResult(0.0)


def test_kk_drude_lorentz_baseline():
    # regression baseline recorded from this implementation: 3.1e-3 on this
    # grid, truncation-limited; anything below 1e-2 is healthy
    m = DrudeLorentzModel(1.0, 1.0, 0.1)
    grid = np.logspace(np.log10(0.01), np.log10(100.0), 10000)
    r = kramers_kronig_residual(m, grid)
    assert 1e-4 < r.residual < 1e-2


def test_kk_flags_non_causal_table():
    # a table that keeps eps'' >= 0 (the type forbids gain) but flattens the
    # real part is maximally non-causal: the residual is O(1)
    m = DrudeLorentzModel(1.0, 1.0, 0.1)
    ws = np.logspace(np.log10(0.05), np.log10(20.0), 400)
    bad = TabulatedPermittivity(tuple(ws), tuple(1.0 + 1j * m.eval(w).imag for w in ws))
    r = kramers_kronig_residual(bad, np.logspace(np.log10(0.06), np.log10(18.0), 1200))
    assert r.residual > 0.5


def test_kk_warns_on_coarse_grid():
    m = DrudeLorentzModel(1.0, 1.0, 0.001)
    with pytest.warns(UserWarning, match="coarse"):
        r = kramers_kronig_residual(m, np.logspace(-1, 1, 64))
    assert r.warnings


def _shelled_scene():
    return Scene(box_side=20.0, voxel_pitch=0.2,
                 scatterer_voxels=(((0.0, 0.0, 0.0), FixedEps(3 + 1j)),),
                 shell=Shell(2.0, 5.0, FixedEps(1 + 0.1j)))


def test_voxel_owner_inside_face_outside_empty():
    sc = _shelled_scene()  # one voxel of pitch 0.2 at the origin
    # inside, on a face, then outside: the vacuum gap, the shell, beyond it
    pts = [(0.05, 0.0, 0.0), (0.1, 0.0, 0.0), (0.0, 0.0, 1.0), (0.0, 3.0, 0.0), (0.0, 0.0, 6.0)]
    assert voxel_owner(sc, pts).tolist() == [0, 0, -1, -1, -1]
    assert voxel_owner(sc, (0.1, 0.0, 0.0)).tolist() == [0]
    # a face shared by two voxels belongs to the first in sorted order
    pair = Scene(box_side=20.0, voxel_pitch=0.2,
                 scatterer_voxels=(((0.0, 0.0, 0.0), FixedEps(2.0)),
                                   ((0.2, 0.0, 0.0), FixedEps(3.0))))
    assert voxel_owner(pair, [(0.1, 0.0, 0.0), (0.25, 0.0, 0.0)]).tolist() == [0, 1]
    empty = Scene(box_side=20.0, voxel_pitch=0.2, scatterer_voxels=())
    assert voxel_owner(empty, pts).tolist() == [-1] * len(pts)
