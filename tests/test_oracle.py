import numpy as np
import pytest

from fluctem.greens import EffectiveSolver, solve_effective_green, vacuum_green
from fluctem.observables import green_trace_gradient
from fluctem.oracle import (
    OracleError,
    born_series_oracle,
    mode_counting_ldos,
    quadrature_convergence,
    richardson_gradient,
)

from conftest import LAM, one_voxel_scene


def test_born_order_zero_is_vacuum():
    sc = one_voxel_scene(eps=1 + 1e-3, pitch=0.3)
    a = np.array([0.0, 0.0, 1.5])
    b = np.array([1.0, 0.3, -0.8])
    assert np.array_equal(born_series_oracle(sc, 1.0, a, b, order=0),
                          vacuum_green(1.0, a, b))


def test_born_first_order_close_to_full_solve():
    a = np.array([0.0, 0.0, 1.5])
    b = np.array([1.0, 0.3, -0.8])
    gaps = {}
    for chi in (1e-3, 2e-3):
        sc = one_voxel_scene(eps=1 + chi, pitch=0.3)
        full = solve_effective_green(sc, 1.0, b[None], a[None]).values[0, 0]
        b1 = born_series_oracle(sc, 1.0, a, b, order=1)
        gaps[chi] = np.linalg.norm(full - b1) / np.linalg.norm(full)
        assert gaps[chi] < 1e-4
    # second-order smallness: doubling chi quadruples the first-order gap
    assert gaps[2e-3] / gaps[1e-3] == pytest.approx(4.0, rel=0.2)


def test_born_second_order_tightens():
    sc = one_voxel_scene(eps=1 + 0.05, pitch=0.3)
    a = np.array([0.0, 0.0, 1.5])
    b = np.array([1.0, 0.3, -0.8])
    full = solve_effective_green(sc, 1.0, b[None], a[None]).values[0, 0]
    g1 = np.linalg.norm(full - born_series_oracle(sc, 1.0, a, b, order=1))
    g2 = np.linalg.norm(full - born_series_oracle(sc, 1.0, a, b, order=2))
    assert g2 < 0.1 * g1


def test_born_contraction_guard():
    sc = one_voxel_scene(eps=20 + 5j, pitch=2.0)
    with pytest.raises(OracleError, match="contraction"):
        born_series_oracle(sc, 1.0, np.array([0, 0, 3.0]), np.array([0, 0, -3.0]))


def test_mode_counting_ldos_matches_continuum():
    omega = 1.0
    L = 40 * np.pi  # 20 wavelengths
    val = mode_counting_ldos(L, omega, delta=0.1)
    assert val / (omega**2 / np.pi**2) == pytest.approx(1.0, abs=0.05)


def test_mode_counting_improves_with_box():
    omega = 1.0
    tgt = omega**2 / np.pi**2
    e1 = abs(mode_counting_ldos(20 * np.pi, omega, delta=0.2) / tgt - 1)
    e2 = abs(mode_counting_ldos(40 * np.pi, omega, delta=0.2) / tgt - 1)
    assert e2 < e1


def test_mode_counting_band_guard():
    with pytest.raises(OracleError, match="band"):
        mode_counting_ldos(2 * np.pi, 0.5, delta=0.2)  # below the first shell


def test_richardson_exact_on_quadratic():
    g, err, flagged = richardson_gradient(lambda p: float(p @ p + 2 * p[0]),
                                          np.array([0.3, -0.2, 0.5]), 0.05)
    assert np.allclose(g, [2.6, -0.4, 1.0], atol=1e-12)
    assert not flagged


def test_richardson_sine():
    g, err, flagged = richardson_gradient(lambda p: float(np.sin(p[0])),
                                          np.zeros(3), 0.1)
    assert abs(g[0] - 1.0) <= max(err, 1e-8)
    assert not flagged


def test_richardson_cross_checks_green_gradient():
    # same quantity, independent sampler path
    sc = one_voxel_scene(eps=2 + 0.5j, pitch=0.4)
    solver = EffectiveSolver(sc, 1.0)
    x = np.array([0.0, 0.0, 1.1])

    def sampler(p):
        g = solver.green(p[None], p[None], scattered_only=True, warn_near=False)[0, 0]
        return float(np.real(np.trace(g)))

    g_oracle, err, _ = richardson_gradient(sampler, x, 0.02)
    g_lib = green_trace_gradient(sc, 1.0, x, solver=solver).left
    # the library differentiates one argument; the oracle moves both, which
    # doubles the gradient of the coincidence trace by the swap symmetry
    assert np.allclose(g_oracle, 2 * g_lib.real, atol=max(4 * err, 1e-9))


def test_quadrature_convergence_pass_and_fail():
    rep = quadrature_convergence("demo", "pitch", [0.4, 0.1, 0.025], min_order=1.5)
    assert rep.passed and rep.details["orders"] == (2.0, 2.0)
    bad = quadrature_convergence("demo", "pitch", [0.4, 0.5, 0.1], min_order=1.0)
    assert not bad.passed
    assert "non-monotone" in bad.details["reason"]
    with pytest.raises(OracleError):
        quadrature_convergence("demo", "pitch", [1.0, 0.5], min_order=1.0)


@pytest.mark.slow
def test_identity_residual_order_in_pitch():
    from fluctem.greens import greens_identity_report

    a = np.array([0.0, 0.0, 1.0])
    b = np.array([0.7, 0.3, -0.6])
    resid = [greens_identity_report(one_voxel_scene(pitch=p), 1.0, a, b).residual
             for p in (LAM / 10, LAM / 20, LAM / 40)]
    rep = quadrature_convergence("identity-residual", "pitch", resid, min_order=1.0)
    assert rep.passed


@pytest.mark.slow
def test_surface_functional_order_refinement(monkeypatch):
    # the polar order of the direction rule, k|a-b| ~ 13: recorded 2.2,
    # 2.6e-4, 4.7e-15 at orders 6, 12, 24, spectral decay far beyond the
    # order-4 floor (a sphere of radius 3000 stopped at 7.6e-7)
    from fluctem import greens
    from fluctem.greens import surface_functional
    from fluctem.scene import build_scene

    sc = build_scene({"box_side": 40000.0, "voxel_pitch": 0.1, "voxels": []})
    a = np.array([0.0, 0.0, 6.0])
    b = np.array([7.0, 3.0, -5.0])
    img = np.imag(vacuum_green(1.0, a, b))
    solver = EffectiveSolver(sc, 1.0)
    chiX = solver.interior_solution(np.stack([a, b]))
    errs = []
    for order in (6, 12, 24):
        monkeypatch.setattr(greens, "_FAR_ORDER", order)
        F = surface_functional(sc, a, b, solver, chiX)
        errs.append(np.linalg.norm(img - F) / np.linalg.norm(img))
    rep = quadrature_convergence("surface-functional", "order", errs, min_order=4.0)
    assert rep.passed


def test_oracle_report_json_deterministic():
    r1 = quadrature_convergence("demo", "grid", [0.4, 0.1, 0.025], min_order=1.0)
    r2 = quadrature_convergence("demo", "grid", [0.4, 0.1, 0.025], min_order=1.0)
    assert r1.to_json() == r2.to_json()
    assert r1.inputs_digest == r2.inputs_digest
