import numpy as np
import pytest

from fluctem.fluctuations import (
    FluctuationError,
    commutator_density,
    equivalence_densities,
    noise_correlator_density,
    planck_factor,
    thermal_correlator_density,
    time_domain_correlator,
)
from fluctem.greens import EffectiveSolver
from fluctem.material import DrudeLorentzModel
from fluctem.scene import Scene, Shell

from conftest import LAM, FixedEps, one_voxel_scene


def test_planck_bose_at_ln2():
    assert planck_factor(np.log(2.0), 1.0, "minus-plus") == pytest.approx(1.0, rel=1e-15)


def test_planck_small_x_laurent():
    # Laurent oracle: 1/(e^x - 1) = 1/x - 1/2 + x/12 + O(x^3)
    x = 1e-10
    val = planck_factor(x, 1.0, "minus-plus")
    assert abs(val - (1 / x - 0.5)) < 1e-6 * val


def test_planck_zero_temperature_limits():
    assert planck_factor(1.0, 0.0, "minus-plus") == 0.0
    assert planck_factor(1.0, 0.0, "plus-minus") == 1.0
    assert planck_factor(1.0, 0.0, "symmetrized") == 1.0


def test_planck_large_x_stable():
    assert planck_factor(1000.0, 1.0, "minus-plus") == pytest.approx(np.exp(-1000.0), rel=1e-12)
    assert planck_factor(1000.0, 1.0, "plus-minus") == pytest.approx(1.0, rel=1e-15)
    assert planck_factor(1000.0, 1.0, "symmetrized") == pytest.approx(1.0, rel=1e-15)


def test_planck_coth_identity_grid():
    for x in np.logspace(-2, 1.5, 100):
        s = planck_factor(x, 1.0, "minus-plus") + planck_factor(x, 1.0, "plus-minus")
        assert abs(s - planck_factor(x, 1.0, "symmetrized")) <= 1e-12 * s


def test_planck_guards():
    with pytest.raises(FluctuationError):
        planck_factor(1.0, -1.0)
    with pytest.raises(FluctuationError):
        planck_factor(0.0, 1.0)
    with pytest.raises(FluctuationError):
        planck_factor(1.0, 1.0, "sideways")


def test_noise_density_vacuum_is_zero():
    sc = Scene(box_side=10.0, voxel_pitch=0.2,
               scatterer_voxels=(((0.0, 0.0, 0.0), FixedEps(1.0)),))
    d = noise_correlator_density(sc, "all", 1.0, np.array([0, 0, 1.0]),
                                 np.array([0.5, 0, 0.5]))
    assert np.array_equal(d.value, np.zeros((3, 3)))


def _compliant_scene(eta=0.05, lengths=4.0):
    ell = 1.0 / np.imag(np.sqrt(1 + 1j * eta))
    r1 = 2.0 + lengths * ell
    return Scene(box_side=4 * r1, voxel_pitch=0.4,
                 scatterer_voxels=(((0.0, 0.0, 0.0), FixedEps(2 + 0.5j)),),
                 shell=Shell(2.0, r1, FixedEps(1 + 1j * eta)))


def test_region_additivity_bit_consistent():
    sc = _compliant_scene()
    a = np.array([0.0, 0.0, 1.2])
    b = np.array([0.8, 0.3, -0.5])
    solver = EffectiveSolver(sc, 1.0)
    d_sc = noise_correlator_density(sc, "scatterer", 1.0, a, b, solver=solver)
    d_sh = noise_correlator_density(sc, "shell", 1.0, a, b, solver=solver)
    d_all = noise_correlator_density(sc, "all", 1.0, a, b, solver=solver)
    assert np.array_equal(d_sc.value + d_sh.value, d_all.value)


def test_full_volume_matches_imag_green():
    # with a compliant absorber the surface term is dead and the volume
    # integral over everything reproduces the closed-form density
    sc = _compliant_scene()
    a = np.array([0.0, 0.0, 1.2])
    b = np.array([0.8, 0.3, -0.5])
    solver = EffectiveSolver(sc, 1.0)
    d_all = noise_correlator_density(sc, "all", 1.0, a, b, solver=solver)
    d_img = commutator_density(sc, 1.0, a, b, solver=solver)
    rel = np.linalg.norm(d_all.value - d_img.value) / np.linalg.norm(d_img.value)
    assert rel < 2e-2


def test_region_selector_guard():
    sc = _compliant_scene()
    with pytest.raises(FluctuationError):
        noise_correlator_density(sc, "everywhere", 1.0, np.zeros(3), np.zeros(3))


def test_commutator_density_coincidence_positivity():
    sc = one_voxel_scene(eps=3 + 1j, pitch=0.4)
    a = np.array([0.0, 0.0, 1.0])
    d = commutator_density(sc, 1.0, a, a)
    v = d.value
    assert np.allclose(v, v.conj().T, atol=1e-14 * np.linalg.norm(v))
    assert np.all(np.diag(v).real > 0)
    assert d.provenance == "imag-green"


def test_commutator_metadata_flags_near_points():
    sc = one_voxel_scene(eps=3 + 1j, pitch=0.4)
    d = commutator_density(sc, 1.0, np.array([0.0, 0.0, 0.45]),
                           np.array([0.0, 0.0, 1.5]))
    assert d.metadata["compliance_warning_a"] == (
        "point a lies 0.45 from the nearest voxel centre (pitch 0.4)")
    assert "compliance_warning_b" not in d.metadata


def test_commutator_metadata_names_where_a_point_lies():
    # in check_vacuum_gap's words: inside a voxel, or in or beyond the shell
    sc = one_voxel_scene(eps=3 + 1j, pitch=0.4)
    d = commutator_density(sc, 1.0, np.array([0.05, 0.0, 0.1]), np.array([0.0, 0.0, 1.5]))
    assert d.metadata["compliance_warning_a"] == (
        "point a lies inside scatterer voxel 0 (centre (0.0, 0.0, 0.0))")
    shell = Scene(box_side=40.0, voxel_pitch=0.2,
                  scatterer_voxels=(((0.0, 0.0, 0.0), FixedEps(2 + 0.5j)),),
                  shell=Shell(2.0, 12.0, FixedEps(1 + 0.1j)))
    d = commutator_density(shell, 1.0, np.array([0.0, 0.0, 50.0]), np.array([0.0, 0.0, 1.85]))
    assert d.metadata["compliance_warning_a"] == (
        "point a lies at |x| = 50, in or beyond the shell (inner radius 2)")
    assert d.metadata["compliance_warning_b"] == (
        "point b lies at |x| = 1.85, within one pitch of the shell (inner radius 2)")


def test_thermal_zero_temperature_minus_plus_vanishes():
    sc = one_voxel_scene()
    a = np.array([0.0, 0.0, 1.2])
    d = thermal_correlator_density(sc, 1.0, a, a, T=0.0, ordering="minus-plus")
    assert np.array_equal(d.value, np.zeros((3, 3)))


def test_thermal_detailed_balance_exact():
    sc = one_voxel_scene()
    a = np.array([0.0, 0.0, 1.2])
    b = np.array([0.6, 0.2, -0.4])
    T = 0.7
    pm = thermal_correlator_density(sc, 1.0, a, b, T, "plus-minus")
    mp = thermal_correlator_density(sc, 1.0, a, b, T, "minus-plus")
    x = 1.0 / T
    nz = np.abs(mp.value) > 0
    ratio = pm.value[nz] / mp.value[nz]
    assert np.allclose(ratio, np.exp(x), rtol=1e-13)


def test_thermal_high_temperature_classical_limit():
    # coth(x/2) -> 2/x for x << 1, here x = 1e-2
    sc = one_voxel_scene()
    a = np.array([0.0, 0.0, 1.2])
    b = np.array([0.6, 0.2, -0.4])
    omega = 1.0
    T = 100.0
    sym = thermal_correlator_density(sc, omega, a, b, T, "symmetrized")
    com = commutator_density(sc, omega, a, b)
    assert np.allclose(sym.value, (2 * T / omega) * com.value, rtol=1e-2)


def test_orderings_sum_to_symmetrized():
    sc = one_voxel_scene()
    a = np.array([0.0, 0.0, 1.2])
    b = np.array([0.6, 0.2, -0.4])
    pm = thermal_correlator_density(sc, 1.0, a, b, 0.9, "plus-minus")
    mp = thermal_correlator_density(sc, 1.0, a, b, 0.9, "minus-plus")
    sym = thermal_correlator_density(sc, 1.0, a, b, 0.9, "symmetrized")
    assert np.allclose(pm.value + mp.value, sym.value, rtol=1e-12)


def test_time_domain_at_zero_lag_is_plain_integral():
    omegas = np.linspace(0.5, 1.5, 11)
    dens = np.array([np.eye(3) * w for w in omegas])
    td = time_domain_correlator(dens, omegas, 0.0)
    assert np.allclose(td, np.trapezoid(dens, omegas, axis=0))


def test_equivalence_three_routes_close():
    # single level of the three-route comparison; the full fan runs in the
    # acceptance suite
    dens, nmodes = equivalence_densities(
        DrudeLorentzModel(1.2, 0.9, 0.4), 1.0,
        np.array([0.0, 0.0, 1.25]), np.array([0.85, 0.4, -0.7]),
        box_side=16 * LAM, shell_eps_imag=0.06, shell_lengths=3.0, pitch=LAM / 8,
    )
    assert nmodes > 1000
    scale = np.linalg.norm(dens["imag-minus-scat"])
    for k1 in dens:
        for k2 in dens:
            assert np.linalg.norm(dens[k1] - dens[k2]) < 0.1 * scale
