"""Acceptance suite: the nine exit criteria, one printed line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every tolerance is pinned here, none deferred.
"""

import json
import time

import numpy as np
import yaml

from fluctem.fluctuations import (
    equivalence_fan,
    planck_factor,
    thermal_correlator_density,
)
from fluctem.greens import EffectiveSolver, greens_identity_report
from fluctem.material import DrudeLorentzModel
from fluctem.observables import BodySpec, casimir_thermal_force, green_trace_gradient, ldos
from fluctem.oracle import mode_counting_ldos, quadrature_convergence
from fluctem.polariton import (
    longitudinal_branch,
    lossless_transverse,
    transverse_branches,
    window_integral_norm,
)
from fluctem.scene import Scene, Shell, build_scene

from conftest import LAM, FixedEps, one_voxel_scene


def report(criterion, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {criterion}] {status}: {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def test_criterion_1_vacuum_ldos():
    t0 = time.perf_counter()
    sc = Scene(box_side=10.0, voxel_pitch=0.1, scatterer_voxels=())
    omega = 1.0
    analytic = ldos(sc, omega, np.zeros(3), np.array([0, 0, 1.0]))
    target = omega**2 / np.pi**2
    ok_analytic = abs(analytic - target) < 1e-10
    counted = mode_counting_ldos(40 * np.pi, omega, delta=0.1)
    ok_count = abs(counted / target - 1) < 0.05
    dt = time.perf_counter() - t0
    report(1, ok_analytic and ok_count and dt < 10,
           f"analytic |err| = {abs(analytic-target):.2e} (<1e-10), "
           f"mode-count ratio = {counted/target:.4f} (within 5%), {dt:.1f}s < 10s")


def test_criterion_2_green_identity():
    t0 = time.perf_counter()
    a = np.array([0.0, 0.0, 1.0])
    b = np.array([0.7, 0.3, -0.6])
    resid = [greens_identity_report(one_voxel_scene(eps=2 + 0.5j, pitch=p), 1.0, a, b).residual
             for p in (LAM / 10, LAM / 20, LAM / 40)]
    conv = quadrature_convergence("identity", "pitch", resid, min_order=1.0)
    dt = time.perf_counter() - t0
    report(2, resid[1] < 1e-2 and conv.passed and dt < 120,
           f"residual(lam/20) = {resid[1]:.2e} (<1e-2), observed orders = "
           f"{tuple(round(o, 2) for o in conv.details.get('orders', ()))} (>=1), "
           f"{dt:.1f}s < 2min")


def _absorber_scene(eta, lengths, r2=0.8 * LAM, r1=None):
    ell = 1.0 / np.imag(np.sqrt(1 + 1j * eta))
    if r1 is None:
        r1 = r2 + lengths * ell
    return Scene(box_side=2.2 * r1, voxel_pitch=0.2, scatterer_voxels=(),
                 shell=Shell(r2, r1, FixedEps(1 + 1j * eta)))


def test_criterion_3_vacuum_limit_split():
    a = np.array([0.0, 0.0, 1.2])
    b = np.array([0.9, 0.4, -0.6])

    t0 = time.perf_counter()
    weak = _absorber_scene(1e-6, lengths=None, r1=2 * LAM)
    rep = greens_identity_report(weak, 1.0, a, b)
    scale = np.linalg.norm(rep.imag_green)
    vol_frac_weak = np.linalg.norm(rep.volume_term) / scale
    surf_frac_weak = np.linalg.norm(rep.surface_term) / scale
    dt1 = time.perf_counter() - t0
    ok_a = vol_frac_weak < 0.01 and surf_frac_weak > 0.99 and dt1 < 300

    t0 = time.perf_counter()
    thick = _absorber_scene(0.02, lengths=5.0)
    rep2 = greens_identity_report(thick, 1.0, a, b)
    scale2 = np.linalg.norm(rep2.imag_green)
    vol_frac_thick = np.linalg.norm(rep2.volume_term) / scale2
    surf_frac_thick = np.linalg.norm(rep2.surface_term) / scale2
    dt2 = time.perf_counter() - t0
    ok_b = vol_frac_thick > 0.99 and surf_frac_thick < 0.01 and dt2 < 300

    report(3, ok_a and ok_b,
           f"near-vacuum absorber: volume {vol_frac_weak:.2%} (<1%), surface "
           f"{surf_frac_weak:.2%} (>99%), {dt1:.1f}s; thick absorber: volume "
           f"{vol_frac_thick:.2%} (>99%), surface {surf_frac_thick:.2%} (<1%), {dt2:.1f}s")


def test_criterion_4_equivalence_theorem():
    t0 = time.perf_counter()
    mat = DrudeLorentzModel(1.2, 0.9, 0.4)
    a = np.array([0.0, 0.0, 1.25])
    b = np.array([0.85, 0.4, -0.7])
    levels = [
        {"box_side": 12 * LAM, "shell_eps_imag": 0.12, "shell_lengths": 2.0,
         "pitch": LAM / 6},
        {"box_side": 16 * LAM, "shell_eps_imag": 0.06, "shell_lengths": 3.0,
         "pitch": LAM / 8},
        {"box_side": 24 * LAM, "shell_eps_imag": 0.03, "shell_lengths": 4.0,
         "pitch": LAM / 12},
    ]
    fan = equivalence_fan(mat, 1.0, a, b, levels)
    final = fan[-1].disagreements
    within = all(d <= 0.05 for d in final.values())
    monotone = all(
        fan[0].disagreements[p] > fan[1].disagreements[p] > fan[2].disagreements[p]
        for p in final
    )
    dt = time.perf_counter() - t0
    detail = ", ".join(f"{p}: {d:.3f}" for p, d in sorted(final.items()))
    report(4, within and monotone and dt < 1800,
           f"final pairwise disagreement {detail} (all <= 5%), three-level fans "
           f"monotone for every pair, {dt:.0f}s < 30min")


def test_criterion_5_reciprocity(rng):
    scenes = {
        "vacuum": Scene(box_side=40.0, voxel_pitch=0.2, scatterer_voxels=()),
        "one-voxel": one_voxel_scene(eps=2 + 0.5j, pitch=0.4),
        "cube-27": build_scene({
            "box_side": 40.0, "voxel_pitch": LAM / 10,
            "primitives": [{"shape": "box", "half_size": [LAM / 8] * 3,
                            "material": {"type": "drude_lorentz", "omega_p": 1.2,
                                          "omega_0": 0.9, "gamma": 0.2}}]}),
        "shelled": Scene(box_side=60.0, voxel_pitch=0.4,
                         scatterer_voxels=(((0.0, 0.0, 0.0), FixedEps(2 + 0.5j)),),
                         shell=Shell(3.0, 12.0, FixedEps(1 + 0.05j))),
    }
    worst = {}
    for name, sc in scenes.items():
        solver = EffectiveSolver(sc, 1.0)
        pts = rng.uniform(-2.8, 2.8, (64, 3))
        pts = pts[np.linalg.norm(pts, axis=1) > 2.2][:40]
        A, B = pts[:20], pts[20:40]
        G1 = solver.green(A, B, warn_near=False)
        G2 = solver.green(B, A, warn_near=False)
        worst[name] = float(np.max(np.abs(G1 - np.transpose(G2, (1, 0, 3, 2))))
                            / np.max(np.abs(G1)))
    ok = all(v <= 1e-8 for v in worst.values())
    report(5, ok, "20 random pairs per scene, max asymmetry " +
           ", ".join(f"{k}: {v:.1e}" for k, v in worst.items()) + " (<= 1e-8)")


def test_criterion_6_polariton_algebra(rng):
    t0 = time.perf_counter()
    m = DrudeLorentzModel(1.2, 0.9, 0.05)
    wl2 = m.omega_p**2 + m.omega_0**2
    vieta = 0.0
    for wa in rng.uniform(0.05, 6.0, 50):
        up, lo = lossless_transverse(m, wa)
        vieta = max(vieta, abs(up**2 + lo**2 - (wa**2 + wl2)) / (wa**2 + wl2))
        vieta = max(vieta, abs(up**2 * lo**2 - wa**2 * m.omega_0**2)
                    / max(wa**2 * m.omega_0**2, 1e-300))
    wl = np.sqrt(wl2)
    up_far, _ = transverse_branches(m, 1e3 * wl)
    asym = abs(up_far.Omega.real / (1e3 * wl) - 1)
    mlong = DrudeLorentzModel(1.0, 1.0, 1e-4 * np.sqrt(2))
    eps_root = longitudinal_branch(mlong).residual
    ratio = window_integral_norm(DrudeLorentzModel(1e-2, 1.0, 1e-4), 2.0,
                                 "upper", 10.0).ratio
    dt = time.perf_counter() - t0
    ok = vieta < 1e-12 and asym < 1e-3 and eps_root < 1e-6 and abs(ratio - 1) < 0.05
    report(6, ok and dt < 60,
           f"Vieta worst = {vieta:.1e} (<1e-12), asymptote gap = {asym:.1e} (<1e-3), "
           f"|eps(root)| = {eps_root:.1e} (<1e-6), window ratio = {ratio:.4f} "
           f"(1 within 5%), {dt:.1f}s < 1min")


def test_criterion_7_planck_algebra():
    xs = np.logspace(-2, 1.5, 100)
    worst = max(abs(planck_factor(x, 1.0, "minus-plus")
                    + planck_factor(x, 1.0, "plus-minus")
                    - planck_factor(x, 1.0, "symmetrized"))
                / planck_factor(x, 1.0, "symmetrized") for x in xs)
    sc = one_voxel_scene()
    a = np.array([0.0, 0.0, 1.2])
    b = np.array([0.6, 0.2, -0.4])
    zero = thermal_correlator_density(sc, 1.0, a, a, T=0.0, ordering="minus-plus")
    exactly_zero = np.array_equal(zero.value, np.zeros((3, 3)))
    T = 0.7
    pm = thermal_correlator_density(sc, 1.0, a, b, T, "plus-minus")
    mp = thermal_correlator_density(sc, 1.0, a, b, T, "minus-plus")
    nz = np.abs(mp.value) > 0
    db = float(np.max(np.abs(pm.value[nz] / mp.value[nz] - np.exp(1.0 / T))))
    ok = worst <= 1e-12 and exactly_zero and db < 1e-13 * np.exp(1.0 / T)
    report(7, ok,
           f"coth identity worst = {worst:.1e} (<=1e-12) on a 100-point grid, "
           f"T=0 minus-plus density identically zero: {exactly_zero}, "
           f"detailed-balance ratio off by {db:.1e} (exact algebra at double precision)")


def test_criterion_8_casimir_assembly():
    t0 = time.perf_counter()
    dl = {"type": "drude_lorentz", "omega_p": 1.0, "omega_0": 1.0, "gamma": 0.1}
    two = build_scene({"box_side": 40.0, "voxel_pitch": LAM / 12,
                       "voxels": [{"position": [0, 0, -0.6], "material": dl},
                                  {"position": [0, 0, 0.6], "material": dl}]})
    wl = np.sqrt(2)
    grid = np.logspace(np.log10(wl) - 2, np.log10(wl) + 1, 801)
    f1 = casimir_thermal_force(two, BodySpec((0,)), T=1.0, omega_grid=grid,
                               tail_tol=0.2)
    f2 = casimir_thermal_force(two, BodySpec((1,)), T=1.0, omega_grid=grid,
                               tail_tol=0.2)
    scale = np.linalg.norm(f1.total)
    split = np.linalg.norm(f1.ordering_anti + f1.ordering_bose - f1.total) / scale
    asym = np.linalg.norm(f1.total + f2.total) / scale
    one = build_scene({"box_side": 40.0, "voxel_pitch": LAM / 12,
                       "voxels": [{"position": [0, 0, 0], "material": dl}]})
    fi = casimir_thermal_force(one, BodySpec((0,)), T=1.0, omega_grid=grid,
                               tail_tol=10.0)
    iso = np.linalg.norm(fi.total) / scale
    grad = green_trace_gradient(two, wl, np.array([0.0, 0.0, -0.6]))
    sym = np.linalg.norm(grad.left - grad.right)
    sym_ok = sym <= 1e-10 * np.linalg.norm(grad.left)
    dt = time.perf_counter() - t0
    ok = split < 1e-10 and asym < 0.01 and iso < 1e-3 and sym_ok and dt < 600
    report(8, ok,
           f"F1+F2 vs coth = {split:.1e} (<1e-10), action-reaction asymmetry = "
           f"{asym:.1e} (<1%), isolated body = {iso:.1e} of the pair force, "
           f"grad symmetry gap {sym:.1e} (<1e-10 of |left|), {dt:.0f}s < 10min "
           f"(truncation drift {f1.tail_fraction:.1%} reported)")


def test_criterion_9_determinism(tmp_path):
    from fluctem.cli import run_subcommand

    cfg = {
        "constants": {"hbar": 1.0, "c": 1.0, "k_B": 1.0},
        "threads": 1,
        "scene": {"box_side": 40.0, "voxel_pitch": LAM / 12,
                  "voxels": [{"position": [0, 0, 0],
                              "material": {"type": "drude_lorentz", "omega_p": 1.2,
                                            "omega_0": 0.9, "gamma": 0.4}}]},
        "correlator": {"a": [0, 0, 1.2], "b": [0.6, 0.2, -0.4], "T": 0.8,
                       "ordering": "symmetrized",
                       "omega": {"min": 0.8, "max": 1.2, "points": 5}},
        "dispersion": {"material": {"type": "drude_lorentz", "omega_p": 1.0,
                                     "omega_0": 1.0, "gamma": 0.01},
                       "omega_alpha": {"min": 0.1, "max": 4.0, "points": 25}},
    }
    path = tmp_path / "run.yaml"
    path.write_text(yaml.safe_dump(cfg))
    same = True
    for sub, artifact in (("correlator", "correlator.csv"),
                          ("dispersion", "dispersion.csv")):
        o1, o2 = tmp_path / f"{sub}-1", tmp_path / f"{sub}-2"
        assert run_subcommand(sub, path, o1, threads=1) == 0
        assert run_subcommand(sub, path, o2, threads=1) == 0
        same = same and (o1 / artifact).read_bytes() == (o2 / artifact).read_bytes()
        m1 = json.loads((o1 / "manifest.json").read_text())["artifacts"]
        m2 = json.loads((o2 / "manifest.json").read_text())["artifacts"]
        same = same and m1 == m2
    report(9, same, "single-threaded reruns byte-identical for correlator and "
                    "dispersion artifacts (manifest digests equal)")
