import tracemalloc

import numpy as np
import pytest
import scipy.linalg as sla

from fluctem import greens
from fluctem import scene as scene_module
from fluctem.greens import (
    EffectiveSolver,
    GreensError,
    SolverStack,
    greens_identity_report,
    noise_volume_integral_scatterer,
    noise_volume_integral_shell,
    self_term_coupling,
    shell_path_factors,
    solve_effective_green,
    surface_functional,
    vacuum_green,
    vacuum_green_block,
    vacuum_imag_coincidence,
)
from fluctem.modes import enumerate_modes
from fluctem.observables import ldos
from fluctem.oracle import _vacuum_green_block_offdiag, richardson_gradient
from fluctem.scene import Scene, Shell, build_scene, sphere_quadrature

from conftest import (
    LAM,
    STACK_GRID,
    STACK_SCENES,
    FixedEps,
    one_voxel_scene,
    run_at_one_blas_thread,
    stack_scene,
)


def vacuum_scene(box=400.0):
    return build_scene({"box_side": box, "voxel_pitch": 0.1, "voxels": []})


def test_far_field_transversality():
    # longitudinal part decays as 1/r^2: at k r = 1e3 the projection is tiny
    x = np.array([0.0, 0.0, 1e3])
    G = vacuum_green(1.0, x, np.zeros(3))
    rhat = x / np.linalg.norm(x)
    assert abs(rhat @ G @ rhat) / np.linalg.norm(G) < 1e-2


def test_imag_coincidence_limit():
    # brute-force extrapolation of Imag G along several directions
    target = vacuum_imag_coincidence(1.3)
    for direction in (np.array([1.0, 0, 0]), np.array([0, 1.0, 0]),
                      np.array([1.0, 1.0, 1.0]) / np.sqrt(3)):
        vals = [np.imag(vacuum_green(1.3, r * direction, np.zeros(3)))
                for r in (1e-2, 5e-3)]
        extrap = vals[1] + (vals[1] - vals[0]) / 3  # h^2 Richardson
        assert np.allclose(extrap, target, atol=1e-8)


def test_closed_form_reciprocity(rng):
    for _ in range(10):
        x, y = rng.uniform(-3, 3, (2, 3))
        G1 = vacuum_green(0.9, x, y)
        G2 = vacuum_green(0.9, y, x)
        assert np.max(np.abs(G1 - G2.T)) < 1e-13 * np.max(np.abs(G1))


def test_coincident_points_error():
    with pytest.raises(GreensError):
        vacuum_green(1.0, np.zeros(3), np.zeros(3))


def test_all_vacuum_voxels_give_identity_matrix():
    sc = Scene(box_side=10.0, voxel_pitch=0.3,
               scatterer_voxels=(((0.0, 0.0, 0.0), FixedEps(1.0)),
                                 ((0.9, 0.0, 0.0), FixedEps(1.0))))
    assert np.array_equal(EffectiveSolver(sc, 1.0).system, np.eye(6))


def test_single_voxel_matches_hand_solution():
    # one voxel: A is 3x3 diagonal, solvable by hand
    sc = one_voxel_scene(eps=2 + 0.5j, pitch=0.3)
    chi = 1 + 0.5j
    dv = 0.3**3
    denom = 1 + chi / 3 - 1j * chi * dv / (6 * np.pi)  # k = 1
    s = np.array([[0.0, 0.0, 1.4]])
    t = np.array([[1.0, 0.6, -0.8]])
    block = solve_effective_green(sc, 1.0, s, t)
    gv_ts = vacuum_green(1.0, t[0], s[0])
    expected = gv_ts + dv * vacuum_green(1.0, t[0], np.zeros(3)) @ (
        (chi / denom) * vacuum_green(1.0, np.zeros(3), s[0])
    )
    assert np.allclose(block.values[0, 0], expected, rtol=1e-12)
    assert block.metadata["self_term_rule"] == "spherical_pv_radiative"


def test_pitch_doubling_scales_couplings_by_eight():
    pos = (((0.0, 0.0, 0.0), FixedEps(1.5)), ((0.0, 0.0, 2.0), FixedEps(1.5)))
    off1 = EffectiveSolver(Scene(20.0, 0.25, pos), 1.0).system[0:3, 3:6]
    off2 = EffectiveSolver(Scene(20.0, 0.50, pos), 1.0).system[0:3, 3:6]
    assert np.allclose(off2, 8 * off1, rtol=1e-13)


def test_empty_scene_effective_equals_vacuum_bitwise():
    sc = vacuum_scene()
    s = np.array([[0.0, 0.0, 1.0]])
    t = np.array([[1.0, 0.0, 0.0]])
    block = solve_effective_green(sc, 1.0, s, t)
    assert np.array_equal(block.values, vacuum_green_block(1.0, t, s))


def test_weak_voxel_first_born(rng):
    # Born oracle computed inline: dV k^2 Gv(t,u) chi Gv(u,s)
    t = np.array([0.0, 0.0, 1.5])
    s = np.array([1.2, 0.4, -0.9])
    u = np.zeros(3)
    gaps = {}
    for chi_mag in (1e-3, 2e-3):
        sc = one_voxel_scene(eps=1 + chi_mag, pitch=0.3)
        dv = 0.3**3
        full = solve_effective_green(sc, 1.0, s[None], t[None]).values[0, 0]
        born = dv * chi_mag * vacuum_green(1.0, t, u) @ vacuum_green(1.0, u, s)
        scattered = full - vacuum_green(1.0, t, s)
        gaps[chi_mag] = np.linalg.norm(scattered - born)
        assert gaps[chi_mag] < 1e-3 * np.linalg.norm(scattered)
    ratio = gaps[2e-3] / gaps[1e-3]
    assert ratio == pytest.approx(4.0, rel=0.2)


def test_solved_reciprocity(rng):
    sc = build_scene({
        "box_side": 40.0, "voxel_pitch": LAM / 10,
        "primitives": [{"shape": "box", "half_size": [LAM / 8] * 3,
                        "material": {"type": "drude_lorentz", "omega_p": 1.2,
                                      "omega_0": 0.9, "gamma": 0.2}}],
    })
    solver = EffectiveSolver(sc, 1.0)
    pts = rng.uniform(-4, 4, (20, 3))
    pts = pts[np.linalg.norm(pts, axis=1) > 2.2][:8]
    A, B = pts[:4], pts[4:8]
    G1 = solver.green(A, B, warn_near=False)
    G2 = solver.green(B, A, warn_near=False)
    err = np.max(np.abs(G1 - np.transpose(G2, (1, 0, 3, 2))))
    assert err <= 1e-8 * np.max(np.abs(G1))


def test_near_field_guard_warns():
    sc = one_voxel_scene(pitch=0.4)
    solver = EffectiveSolver(sc, 1.0)
    with pytest.warns(UserWarning, match="one pitch"):
        solver.green(np.array([[0.0, 0.0, 0.35]]), np.array([[0.0, 0.0, 2.0]]))


def test_memory_cap_error_reports_estimate(monkeypatch):
    voxels = tuple(((0.0, 0.0, 0.4 * i), FixedEps(2.0)) for i in range(40))
    sc = Scene(box_side=100.0, voxel_pitch=0.35, scatterer_voxels=voxels)
    monkeypatch.setattr(greens, "_MEMORY_CAP", 1000)
    with pytest.raises(MemoryError, match="GB"):
        EffectiveSolver(sc, 1.0)
    # the cap bounds the matrix plus one more of its size, not the matrix alone
    matrix_bytes = (3 * sc.n_voxels) ** 2 * 16
    monkeypatch.setattr(greens, "_MEMORY_CAP", 2 * matrix_bytes - 1)
    with pytest.raises(MemoryError, match="peak"):
        EffectiveSolver(sc, 1.0)
    monkeypatch.setattr(greens, "_MEMORY_CAP", 2 * matrix_bytes)
    assert EffectiveSolver(sc, 1.0).system.nbytes == matrix_bytes


def two_material_scene():
    """Five voxels on the 0.3 lattice, two different flat materials."""
    sites = ((0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0), (0, 0, 2))
    mats = (FixedEps(2 + 0.5j), FixedEps(4 + 0.1j))
    return Scene(box_side=20.0, voxel_pitch=0.3, scatterer_voxels=tuple(
        (tuple(0.3 * np.array(p, float)), mats[i % 2]) for i, p in enumerate(sites)))


def lattice_scene(*primitives):
    """Drude-Lorentz primitives on the 0.2 lattice, each a dict of shape keys."""
    material = {"type": "drude_lorentz", "omega_p": 1.2, "omega_0": 0.9, "gamma": 0.4}
    return build_scene({"box_side": 40.0, "voxel_pitch": 0.2, "primitives": [
        dict(p, material=material) for p in primitives]})


def two_voxel_pair():
    """The two Drude-Lorentz voxels of configs/casimir.yaml."""
    material = {"type": "drude_lorentz", "omega_p": 1.0, "omega_0": 1.0, "gamma": 0.1}
    return build_scene({"box_side": 40.0, "voxel_pitch": LAM / 12, "voxels": [
        {"position": [0.0, 0.0, z], "material": material} for z in (-0.6, 0.6)]})


def sphere_scene(radius):
    """Drude-Lorentz sphere on the 0.2 lattice; |chi| = 1.95 at omega = 0.9."""
    return lattice_scene({"shape": "sphere", "radius": radius})


def pairwise_coupling(sc, omega):
    """(3N, 3N) M = dV k^2 Gv between voxel centres, self term on the diagonal."""
    n, dv = sc.n_voxels, sc.voxel_volume
    M = dv * omega**2 * _vacuum_green_block_offdiag(omega, sc.positions())
    M[np.arange(n), np.arange(n)] = self_term_coupling(omega, dv) * np.eye(3)
    return M.transpose(0, 2, 1, 3).reshape(3 * n, 3 * n)


def test_assembly_matches_pairwise_reference():
    # S = I - C^1/2 M C^1/2 from the pairwise vacuum block and the self term
    sc, omega = two_material_scene(), 1.3
    s = np.repeat(np.sqrt(sc.chi_at(omega)), 3)
    ref = np.eye(3 * sc.n_voxels) - s[:, None] * pairwise_coupling(sc, omega) * s[None, :]
    S = EffectiveSolver(sc, omega).system
    assert np.linalg.norm(S - ref) <= 1e-14 * np.linalg.norm(ref)


def test_symmetric_solve_matches_dense_lu_of_the_collocation_matrix(rng):
    # chi A^-1 with A = I - M C by general LU, against the LDL^T of S; one
    # scene has a chi = 0 voxel, the sphere has |chi| = 1.95
    sc = two_material_scene()
    vac = ((0.3, 0.0, 0.6), FixedEps(1.0))
    with_vacuum = Scene(sc.box_side, sc.voxel_pitch, sc.scatterer_voxels + (vac,))
    for sc, omega in ((with_vacuum, 1.3), (sphere_scene(0.8), 0.9)):
        chi = np.repeat(sc.chi_at(omega), 3)
        A = np.eye(len(chi)) - pairwise_coupling(sc, omega) * chi[None, :]
        rhs = rng.standard_normal((len(chi), 4)) + 1j * rng.standard_normal((len(chi), 4))
        ref = chi[:, None] * sla.lu_solve(sla.lu_factor(A), rhs)
        solver = EffectiveSolver(sc, omega)
        S = solver.system
        assert np.array_equal(S, S.T)
        got = solver._solve(rhs)
        assert np.linalg.norm(got - ref) <= 1e-12 * np.linalg.norm(ref)


def test_route_is_named_in_the_metadata():
    # below the COCG crossover the factor route
    s, t = np.array([[0.0, 0.0, 1.9]]), np.array([[0.4, 0.3, -1.8]])
    block = solve_effective_green(sphere_scene(0.8), 0.9, s, t)
    assert block.metadata["solver"] == "dense-ldlt"


def cube_scene(eps):
    """Eight voxels, a 2 x 2 x 2 cube on the 0.3 lattice, one flat material."""
    return Scene(box_side=20.0, voxel_pitch=0.3, scatterer_voxels=tuple(
        ((0.3 * i, 0.3 * j, 0.3 * k), FixedEps(eps))
        for i in (0, 1) for j in (0, 1) for k in (0, 1)))


def near_singular_cube(omega, offset=1e-7):
    """The cube with chi = chi* (1 + offset) near a static coupled-mode zero of S.

    S = I - chi M vanishes on a coupled mode at chi* = 1/lambda, lambda the
    eigenvalue of M farthest below zero; cond(S) ~ 1/offset.
    """
    lam = np.linalg.eigvals(pairwise_coupling(cube_scene(2.0), omega))
    return cube_scene(1 + (1 + offset) / lam[np.argmin(lam.real)])


def backward_tol(solver):
    """COCG's target backward error sqrt(3N) u, as in LAPACK zcgesv."""
    return np.sqrt(3 * solver.scene.n_voxels) * 2**-53


def test_near_singular_system_solves_on_the_factor_route(rng):
    # the one factor route on a system near a coupled-mode zero, against
    # general LU of the collocation matrix
    omega = 1e-3
    sc = near_singular_cube(omega)
    rhs = rng.standard_normal((3 * sc.n_voxels, 4)) + 1j * rng.standard_normal((3 * sc.n_voxels, 4))
    ref = dense_lu_reference(sc, omega, rhs)
    solver = EffectiveSolver(sc, omega)
    cond = np.linalg.cond(solver.system)
    assert 1e6 < cond < 1e8
    got = solver._solve(rhs)
    assert solver.diagnostics["route"] == "dense-ldlt"
    assert solver.diagnostics["fallback"] is None
    # two backward-stable solves of a system this ill-conditioned agree to
    # about cond(S) times the double unit roundoff (4.5e-10 here), not 1e-12
    assert np.linalg.norm(got - ref) <= 10 * cond * 2**-53 * np.linalg.norm(ref)


def test_factor_route_solves_are_bitwise_reproducible(rng):
    # two solvers give the same bits, and the factor made in place of S gives
    # the bits of zsytrf on an S read before the solve, which it leaves intact
    sc = sphere_scene(0.8)
    rhs = rng.standard_normal((3 * sc.n_voxels, 6)) + 0j
    first, second = (EffectiveSolver(sc, 0.9) for _ in range(2))
    S = first.system
    got = first._solve(rhs)
    assert np.array_equal(got, second._solve(rhs))
    assert first.diagnostics == second.diagnostics
    assert first.diagnostics["route"] == "dense-ldlt"
    ldu, ipiv, info = sla.lapack.zsytrf(S.T, lower=1, lwork=greens._LDLT_PANEL * len(S))
    assert info == 0 and not np.shares_memory(ldu, S)
    sq = first._sqrt_chi3
    x, _ = sla.lapack.zsytrs(ldu, ipiv, sq * rhs, lower=1)
    assert np.array_equal(got, sq * x)


def test_assembly_work_counters(monkeypatch):
    # the kernel on pairs v > u only, one chunk of rows at a time, and no
    # voxel-owner lookup: each centre lies in its own cell
    pairs, owner_calls = [], []
    dyadic, owner_of = greens._dyadic, scene_module.owner_of
    monkeypatch.setattr(greens, "_dyadic",
                        lambda d, r, k, scale=1.0: pairs.append(r.size) or dyadic(d, r, k, scale))
    for module in (scene_module, greens):
        monkeypatch.setattr(module, "owner_of",
                            lambda d, r, pitch: owner_calls.append(len(d)) or owner_of(d, r, pitch))
    sc = sphere_scene(0.8)
    n, rows = sc.n_voxels, 16
    monkeypatch.setattr(greens, "_ASSEMBLY_BYTES", rows * n * 9 * 16)
    EffectiveSolver(sc, 1.0).system
    assert 0 < sum(pairs) <= n * (n + 1) // 2 + rows * n  # the parent route: n^2
    assert owner_calls == []


def test_exactly_singular_system_raises():
    # static limit: the self term is exactly -1/3, so eps = -2 (the Froehlich
    # condition, chi = -3) makes the one-voxel S exactly zero
    solver = EffectiveSolver(one_voxel_scene(eps=-2.0, pitch=0.3), 0.0)
    assert not solver.system.any()
    with pytest.raises(GreensError, match="exactly zero"):
        solver.interior_field(np.ones((1, 3)))


def test_diagnostics_are_a_report_only(monkeypatch):
    # editing the report does not change the route the solver takes
    monkeypatch.setattr(greens, "_COCG_BUDGET", 1.0)
    solver = EffectiveSolver(sphere_scene(0.8), 0.9)
    solver.diagnostics["route"] = "dense-ldlt"
    counts = count_assembly(monkeypatch)
    solver.interior_field(np.ones((solver.scene.n_voxels, 3)))
    assert solver._route == "lattice-cocg"
    assert solver._fact is None and counts == []
    assert solver.diagnostics["iterations"] > 0


# -- the matrix-free lattice route ------------------------------------------


def count_assembly(monkeypatch):
    """A list that gets "assemble" for each assembly of S, the factor's or a read of system."""
    counts = []
    real = EffectiveSolver._assemble
    monkeypatch.setattr(EffectiveSolver, "_assemble",
                        lambda s: counts.append("assemble") or real(s))
    return counts


def cocg_budget(monkeypatch, sc, matvecs):
    """Set the budget constant so that a solver on sc gets this many column-matvecs."""
    n3 = 3 * sc.n_voxels
    grid = greens._fft_grid(sc)
    monkeypatch.setattr(greens, "_COCG_BUDGET", (matvecs + 0.5) * np.prod(grid) / n3**3)


def dense_lu_reference(sc, omega, rhs):
    """chi A^-1 rhs by general LU of the collocation matrix A = I - M C."""
    chi = np.repeat(sc.chi_at(omega), 3)
    A = np.eye(len(chi)) - pairwise_coupling(sc, omega) * chi[None, :]
    return chi[:, None] * sla.lu_solve(sla.lu_factor(A), rhs)


def factor_route(sc, omega):
    """A solver on the factor route, as below the crossover."""
    with pytest.MonkeyPatch.context() as m:
        m.setattr(greens, "_COCG_BUDGET", 0.0)
        return EffectiveSolver(sc, omega)


def two_material_sphere():
    """The N = 179 sphere, a flat material in its upper half and a vacuum voxel."""
    sc = sphere_scene(0.8)
    flat, vac = FixedEps(4 + 0.1j), FixedEps(1.0)
    voxels = [(p, flat if p[2] > 0 else m) for p, m in sc.scatterer_voxels]
    voxels[0] = (voxels[0][0], vac)
    return Scene(sc.box_side, sc.voxel_pitch, tuple(voxels))


# the benchmark's LDOS point and orientation on the N = 739 sphere
LDOS_X0 = np.array([0.42, -0.27, 1.61])
LDOS_N = np.array([0.62, 0.35, 0.70])
# and the sources of its identity report there
IDENTITY_A = np.array([0.31, -0.47, 1.83])
IDENTITY_B = np.array([-1.52, 0.66, -1.07])


def metallic_sphere():
    """The N = 179 sphere of a Drude metal: Re chi from -4 to -23 at omega 0.6..1.4."""
    return build_scene({"box_side": 40.0, "voxel_pitch": 0.2, "primitives": [
        {"shape": "sphere", "radius": 0.8, "material": {
            "type": "drude_lorentz", "omega_p": 3.0, "omega_0": 0.0, "gamma": 0.1}}]})


def test_cocg_route_matches_dense_lu_of_the_collocation_matrix(monkeypatch, rng):
    # the 1e-12 check of the factor routes, with no matrix formed for the solve
    cocg_budget(monkeypatch, sphere_scene(0.8), 10**6)
    counts = count_assembly(monkeypatch)
    for sc, omega in ((sphere_scene(0.8), 0.6), (sphere_scene(0.8), 0.9),
                      (sphere_scene(0.8), 1.4), (two_material_sphere(), 0.9)):
        shape = (3 * sc.n_voxels, 4)
        rhs = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        ref = dense_lu_reference(sc, omega, rhs)
        solver = EffectiveSolver(sc, omega)
        got = solver._solve(rhs)
        assert solver._fact is None and counts == []
        assert solver.diagnostics["route"] == "lattice-cocg"
        assert solver.diagnostics["fallback"] is None
        assert solver.diagnostics["iterations"] > 0
        assert solver.diagnostics["backward_error"] <= backward_tol(solver)
        assert np.linalg.norm(got - ref) <= 1e-12 * np.linalg.norm(ref)


def test_lattice_norm_is_the_dense_row_sum_maximum(monkeypatch):
    monkeypatch.setattr(greens, "_COCG_BUDGET", 1.0)
    for sc, omega in ((sphere_scene(0.8), 0.9), (two_material_sphere(), 1.4)):
        solver = EffectiveSolver(sc, omega)
        dense = np.abs(solver.system).sum(axis=1).max()
        op = greens._LatticeMatvec(solver, solver.grid)
        assert abs(op.norm - dense) <= 1e-13 * dense
        assert solver.diagnostics["route"] == "lattice-cocg"  # reading S switches nothing


def test_lattice_matvec_is_the_product_with_s(monkeypatch, rng):
    monkeypatch.setattr(greens, "_COCG_BUDGET", 1.0)
    solver = EffectiveSolver(two_material_sphere(), 1.1)
    x = rng.standard_normal((3 * solver.scene.n_voxels, 2)) + 0j
    ref = solver.system @ x
    op = greens._LatticeMatvec(solver, solver.grid)
    assert np.linalg.norm(op(x) - ref) <= 1e-14 * np.linalg.norm(ref)


def test_cocg_route_solves_are_bitwise_reproducible(monkeypatch, rng):
    cocg_budget(monkeypatch, sphere_scene(0.8), 10**6)
    sc = sphere_scene(0.8)
    rhs = rng.standard_normal((3 * sc.n_voxels, 6)) + 0j
    first, second = (EffectiveSolver(sc, 0.9) for _ in range(2))
    assert np.array_equal(first._solve(rhs), second._solve(rhs))
    assert first.diagnostics == second.diagnostics
    assert first.diagnostics["route"] == "lattice-cocg"


def test_wide_solve_goes_to_the_factor_before_any_matvec(monkeypatch):
    # sources at every voxel centre: one column per voxel component
    # (interior_solution, since green() would solve for a single target)
    sc = sphere_scene(0.8)
    cocg_budget(monkeypatch, sc, 1000)  # ten narrow solves, far from 3N = 537 columns
    om = enumerate_modes(12.0, 1.3).omega_alpha[7]
    solver = EffectiveSolver(sc, om)
    got = solver.interior_solution(sc.positions())
    ref = factor_route(sc, om).interior_solution(sc.positions())
    assert np.array_equal(got, ref)
    assert solver.diagnostics["route"] == "dense-ldlt"
    assert solver.diagnostics["fallback"] == "budget"
    assert solver.diagnostics["matvecs"] == 0


def test_many_narrow_solves_switch_to_the_factor_for_good(monkeypatch):
    # one 3-column solve per source, as the force makes one per body voxel
    sc = sphere_scene(0.8)
    cocg_budget(monkeypatch, sc, 300)
    solver, factor = EffectiveSolver(sc, 0.9), factor_route(sc, 0.9)
    routes = []
    for z in np.linspace(1.0, 1.9, 6):
        src = np.array([[0.1, -0.2, z]])
        got, ref = solver.interior_solution(src), factor.interior_solution(src)
        routes.append(solver.diagnostics["route"])
        if routes[-1] == "lattice-cocg":
            assert np.linalg.norm(got - ref) <= 1e-12 * np.linalg.norm(ref)
        else:
            assert np.array_equal(got, ref)
    assert routes == ["lattice-cocg"] * 3 + ["dense-ldlt"] * 3
    assert solver.diagnostics["fallback"] == "budget"
    assert solver.diagnostics["matvecs"] <= solver.diagnostics["budget"]


def test_metallic_spectrum_abandons_cocg_within_one_budget(monkeypatch, rng):
    # Re chi of -4 to -23: COCG needs about 500 column-matvecs per 3-column
    # solve here, the dielectric sphere about 90
    cocg_budget(monkeypatch, sphere_scene(0.8), 300)
    sc = metallic_sphere()
    rhs = rng.standard_normal((3 * sc.n_voxels, 3)) + 0j
    for omega in (0.6, 0.9, 1.4):
        solver = EffectiveSolver(sc, omega)
        got = solver._solve(rhs)
        assert np.array_equal(got, factor_route(sc, omega)._solve(rhs))
        assert solver.diagnostics["route"] == "dense-ldlt"
        assert solver.diagnostics["fallback"] == "budget"
        assert 0 < solver.diagnostics["matvecs"] <= solver.diagnostics["budget"] == 300


def test_cocg_breakdown_switches_to_the_factor(monkeypatch, rng):
    # a matvec with p^T q = 0 breaks COCG down at its first step
    sc = sphere_scene(0.8)
    cocg_budget(monkeypatch, sc, 10**6)
    solver = EffectiveSolver(sc, 0.9)
    monkeypatch.setattr(greens._LatticeMatvec, "__call__", lambda op, x: np.zeros_like(x))
    rhs = rng.standard_normal((3 * sc.n_voxels, 2)) + 0j
    ref = factor_route(sc, 0.9)._solve(rhs)
    assert np.array_equal(solver._solve(rhs), ref)
    assert solver.diagnostics["route"] == "dense-ldlt"
    assert solver.diagnostics["fallback"] == "breakdown"
    # for good: the next solve, well inside the budget, makes no matvec
    spent = solver.diagnostics["matvecs"]
    assert np.array_equal(solver._solve(rhs), ref)
    assert solver.diagnostics["matvecs"] == spent


def count_operators(monkeypatch):
    # "assemble", "zsytrf" and "lattice" in the order the solver builds them
    counts = count_assembly(monkeypatch)
    real_zsytrf = sla.lapack.zsytrf
    monkeypatch.setattr(sla.lapack, "zsytrf", lambda *a, **k: counts.append("zsytrf")
                        or real_zsytrf(*a, **k))
    real_lattice = greens._LatticeMatvec.__init__
    monkeypatch.setattr(greens._LatticeMatvec, "__init__", lambda op, *a: counts.append("lattice")
                        or real_lattice(op, *a))
    return counts


def test_a_cocg_solver_switches_once(monkeypatch, rng):
    # eight 3-column solves against a budget for about three: the first run
    # on COCG, the rest on the factor; the lattice matvec is built once, S
    # assembled and factored once
    sc = sphere_scene(0.8)
    cocg_budget(monkeypatch, sc, 300)
    rhs = rng.standard_normal((3 * sc.n_voxels, 3)) + 0j
    ref = factor_route(sc, 0.9)._solve(rhs)
    counts = count_operators(monkeypatch)
    solver = EffectiveSolver(sc, 0.9)
    routes = []
    for _ in range(8):
        x = solver._solve(rhs)
        assert np.linalg.norm(x - ref) <= 1e-12 * np.linalg.norm(ref)
        routes.append(solver.diagnostics["route"])
    assert counts == ["lattice", "assemble", "zsytrf"]
    assert routes[0] == "lattice-cocg" and routes[-1] == "dense-ldlt"
    assert solver.diagnostics["fallback"] == "budget"
    assert solver.diagnostics["matvecs"] <= solver.diagnostics["budget"]


def test_a_solver_factors_once(monkeypatch, rng):
    # a factor-route solver assembles and factors once over three solves and
    # builds no lattice matvec
    sc = sphere_scene(0.8)
    rhs = rng.standard_normal((3 * sc.n_voxels, 3)) + 0j
    ref = factor_route(sc, 0.9)._solve(rhs)
    counts = count_operators(monkeypatch)
    solver = factor_route(sc, 0.9)
    for _ in range(3):
        assert np.array_equal(solver._solve(rhs), ref)
    assert counts == ["assemble", "zsytrf"]


def test_lattice_ldos_at_n739_factors_nothing_and_reads_no_matrix(monkeypatch):
    # the N = 739 sphere is above the crossover: each frequency's LDOS is one
    # one-column COCG solve, its 26-32 iterations plus the true-residual
    # checks, no LDL^T and no S
    sc = sphere_scene(1.2)
    n3, cells = 3 * sc.n_voxels, np.prod(greens._fft_grid(sc))
    assert sc.n_voxels == 739
    assert int(greens._COCG_BUDGET * n3**3 / cells) >= 3 * greens._COCG_ITERATIONS
    factored = []
    real = sla.lapack.zsytrf
    monkeypatch.setattr(sla.lapack, "zsytrf", lambda *a, **k: factored.append(1) or real(*a, **k))
    assembled = count_assembly(monkeypatch)
    for omega in (0.6, 1.0, 1.4):
        solver = EffectiveSolver(sc, omega)
        ldos(sc, omega, LDOS_X0, LDOS_N, solver=solver)
        assert solver.diagnostics["route"] == "lattice-cocg"
        assert 0 < solver.diagnostics["iterations"] <= 40
        assert solver.diagnostics["matvecs"] <= 40
        assert solver.diagnostics["backward_error"] <= backward_tol(solver)
    assert factored == []
    assert assembled == []


@pytest.mark.parametrize("radius, route", [(0.8, "dense-ldlt"), (1.2, "lattice-cocg")])
def test_oriented_coincidence_is_the_projected_tensor(radius, route):
    # n . G_s . n from its one column against the full tensor's three, on
    # the N = 179 (factor) and N = 739 (COCG) spheres, outside the body and
    # inside a voxel (its self term), for a non-unit orientation too; ldos
    # reads the same value through the unit orientation
    sc = sphere_scene(radius)
    inside = sc.positions()[7] + np.array([0.03, -0.02, 0.01])
    for x0 in (LDOS_X0, inside):
        G = EffectiveSolver(sc, 1.0).green_coincident_scattered(x0)[0]
        for n in (LDOS_N, np.array([0.0, 0.0, 1.0]), np.array([1.5, -0.3, 2.0])):
            solver = EffectiveSolver(sc, 1.0)
            got = solver.green_coincident_scattered(x0, n)
            assert solver.diagnostics["route"] == route
            assert got.shape == (1,)
            assert abs(got[0] - n @ G @ n) <= 1e-13 * abs(n @ G @ n)
            u = n / np.linalg.norm(n)
            ref = (6 / np.pi) * (1 / (6 * np.pi) + np.imag(u @ G @ u))
            assert abs(ldos(sc, 1.0, x0, n, solver=solver) - ref) <= 1e-13 * ref


@pytest.mark.parametrize("n_hat", [None, np.array([0.62, 0.35, 0.70])])
def test_coincident_scattered_builds_rows_once_and_solves_once(monkeypatch, n_hat):
    # the rows of each block of points serve as right-hand side and read-back:
    # every point's rows are built once, and one solve serves all points
    sc = sphere_scene(0.8)
    pts = np.vstack([LDOS_X0, sc.positions()[7] + 0.03, [0.4, -1.3, 0.2]])
    monkeypatch.setattr(greens, "_BLOCK_BYTES", 2 * sc.n_voxels * 9 * 16)
    rows, solves = [], []
    coupling_rows, solve = EffectiveSolver._coupling_rows, EffectiveSolver._solve
    monkeypatch.setattr(EffectiveSolver, "_coupling_rows",
                        lambda self, p: rows.append(len(p)) or coupling_rows(self, p))
    monkeypatch.setattr(EffectiveSolver, "_solve",
                        lambda self, rhs: solves.append(rhs.shape[1]) or solve(self, rhs))
    got = EffectiveSolver(sc, 1.0).green_coincident_scattered(pts, n_hat)
    assert rows == [2, 1]
    assert solves == [len(pts) * (3 if n_hat is None else 1)]
    assert got.shape == ((3, 3, 3) if n_hat is None else (3,))


def test_factor_route_ldos_solves_one_column(monkeypatch):
    # an LDOS or a rate hands zsytrs one column, not the tensor's three
    from fluctem.observables import EmitterSpec, spontaneous_rate

    sc = sphere_scene(0.8)
    cols = []
    real = sla.lapack.zsytrs
    monkeypatch.setattr(sla.lapack, "zsytrs", lambda *a, **k: cols.append(a[2].shape[1])
                        or real(*a, **k))
    em = EmitterSpec(tuple(LDOS_X0), tuple(LDOS_N / np.linalg.norm(LDOS_N)), 1.0, 1.0)
    for omega in (0.6, 1.0, 1.4):
        solver = EffectiveSolver(sc, omega)
        ldos(sc, omega, LDOS_X0, LDOS_N, solver=solver)
        assert solver.diagnostics["route"] == "dense-ldlt"  # budget 21: no column fits
        spontaneous_rate(sc, em, solver=solver)
    assert cols == [1] * 6


def test_lattice_route_agrees_with_the_factor_route_at_n739():
    # the benchmark's 8-frequency LDOS and identity report, COCG against LDL^T
    sc = sphere_scene(1.2)
    for omega in np.linspace(0.6, 1.4, 8):
        got = ldos(sc, omega, LDOS_X0, LDOS_N)
        ref = ldos(sc, omega, LDOS_X0, LDOS_N, solver=factor_route(sc, omega))
        assert abs(got - ref) <= 1e-12 * abs(ref)
    a, b = np.array([0.31, -0.47, 1.83]), np.array([-1.52, 0.66, -1.07])
    solver = EffectiveSolver(sc, 1.0)
    got = greens_identity_report(sc, 1.0, a, b, solver=solver)
    ref = greens_identity_report(sc, 1.0, a, b, solver=factor_route(sc, 1.0))
    # the report's one 6-column solve stays inside the budget
    assert solver.diagnostics["route"] == "lattice-cocg"
    assert solver.diagnostics["matvecs"] <= solver.diagnostics["budget"]
    for term in ("imag_green", "surface_term", "volume_scatterer"):
        x, y = getattr(got, term), getattr(ref, term)
        assert np.linalg.norm(x - y) <= 1e-12 * np.linalg.norm(y)
    assert abs(got.residual - ref.residual) <= 1e-12 * ref.residual


def refuse_lattice_matvec(monkeypatch):
    def refuse(*args):
        raise AssertionError("the lattice matvec was built")
    monkeypatch.setattr(greens._LatticeMatvec, "__init__", refuse)


@pytest.mark.parametrize("shape, n, budget, route", [
    ({"shape": "sphere", "radius": 0.8}, 179, 21, "dense-ldlt"),
    ({"shape": "sphere", "radius": 0.9}, 257, 29, "dense-ldlt"),
    ({"shape": "sphere", "radius": 1.0}, 389, 103, "lattice-cocg"),
    ({"shape": "sphere", "radius": 1.2}, 739, 447, "lattice-cocg"),
    ({"shape": "box", "half_size": [0.5] * 3}, 125, 27, "dense-ldlt"),
    ({"shape": "box", "half_size": [0.7] * 3}, 343, 150, "lattice-cocg"),
])
def test_the_budget_picks_the_starting_route(monkeypatch, shape, n, budget, route):
    # every lattice solver with a budget starts on COCG, and construction
    # assembles nothing.  A solve runs by COCG iff its columns at the expected
    # iterations fit in the budget: a one-source (3-column) solve needs
    # 3 * 32 = 96 column-matvecs, which keeps the measured crossover of such
    # a solve between N = 257 and N = 389.  Below it the solve goes to the
    # factor before any matvec
    counts = count_assembly(monkeypatch)
    solver = EffectiveSolver(lattice_scene(shape), 0.9)
    assert solver.scene.n_voxels == n
    assert solver.diagnostics["budget"] == budget
    assert solver.diagnostics["route"] == "lattice-cocg"
    assert solver._fact is None and counts == []
    solver.interior_solution([[0.3, -0.2, 2.5]])
    assert solver.diagnostics["route"] == route
    if route == "dense-ldlt":
        assert solver.diagnostics["fallback"] == "budget"
        assert solver.diagnostics["matvecs"] == 0 and counts == ["assemble"]
    else:
        assert solver.diagnostics["fallback"] is None
        assert 0 < solver.diagnostics["matvecs"] <= budget and counts == []


def test_thin_slab_starts_on_cocg_and_matches_the_factor_route():
    # 29 x 3 x 3 cells: a long grid of few cells for its N = 261, budget 121
    sc = lattice_scene({"shape": "box", "half_size": [3.0, 0.3, 0.3]})
    x0, n_hat = np.array([0.7, -0.2, 0.6]), np.array([0.0, 0.6, 0.8])
    assert sc.n_voxels == 261
    for omega in (0.6, 1.0, 1.4):
        solver = EffectiveSolver(sc, omega)
        assert solver.diagnostics["route"] == "lattice-cocg"
        assert solver.diagnostics["budget"] == 121
        got = ldos(sc, omega, x0, n_hat, solver=solver)
        ref = ldos(sc, omega, x0, n_hat, solver=factor_route(sc, omega))
        assert solver.diagnostics["route"] == "lattice-cocg"
        assert solver.diagnostics["fallback"] is None
        assert abs(got - ref) <= 1e-12 * abs(ref)


def test_two_spheres_run_a_one_column_ldos_by_cocg(monkeypatch):
    # a 60 x 18 x 18 grid for N = 514: the budget, 71, covers no 3-column
    # solve at the expected 32 iterations, but the LDOS solves one column, so
    # it runs by COCG and assembles no S; it matches the factor route
    sc = lattice_scene({"shape": "sphere", "radius": 0.9, "center": [-2.0, 0.0, 0.0]},
                       {"shape": "sphere", "radius": 0.9, "center": [2.0, 0.0, 0.0]})
    assert sc.n_voxels == 514
    ref = ldos(sc, 0.9, LDOS_X0, LDOS_N, solver=factor_route(sc, 0.9))
    counts = count_assembly(monkeypatch)
    solver = EffectiveSolver(sc, 0.9)
    got = ldos(sc, 0.9, LDOS_X0, LDOS_N, solver=solver)
    assert solver.diagnostics["route"] == "lattice-cocg"
    assert solver.diagnostics["fallback"] is None and counts == []
    assert 0 < solver.diagnostics["matvecs"] <= solver.diagnostics["budget"] == 71
    assert abs(got - ref) <= 1e-12 * abs(ref)


def test_reading_system_builds_no_lattice_matvec(monkeypatch):
    sc = sphere_scene(1.2)
    solver = EffectiveSolver(sc, 1.0)
    assert solver.diagnostics["route"] == "lattice-cocg"
    ref = solver.system
    refuse_lattice_matvec(monkeypatch)
    assert np.array_equal(EffectiveSolver(sc, 1.0).system, ref)


def test_materials_evaluated_once_per_solver(monkeypatch):
    calls = []
    flat = FixedEps.eval
    monkeypatch.setattr(FixedEps, "eval", lambda m, omega: calls.append(omega) or flat(m, omega))
    sc = two_material_scene()
    EffectiveSolver(sc, 1.0)
    assert len(calls) == 2  # one per distinct material, not per voxel


def test_assembly_and_first_solve_peak_within_twice_the_matrix():
    # construction assembles nothing; the first solve assembles S's triangle,
    # one chunk of voxel rows at a time, then factors it in place, adding the
    # LDL^T workspace and no second matrix (measured 1.47x, the assembly's peak)
    sc = sphere_scene(0.8)
    assert sc.n_voxels == 179
    matrix_bytes = (3 * sc.n_voxels) ** 2 * 16
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        solver = EffectiveSolver(sc, 1.0)
        solver.green([[0.0, 0.0, 1.8]], [[0.3, 0.0, 2.3]], warn_near=False)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert solver.diagnostics["route"] == "dense-ldlt"
    assert peak <= 1.6 * matrix_bytes


def test_lattice_first_factor_solve_peak_at_n739():
    # the N = 739 sphere on the factor route: S gathered from a 21^3 kernel
    # table (1.3 MB) and factored in place, well inside the 2 x S charge
    # (measured 1.05x S's bytes)
    sc = sphere_scene(1.2)
    solver = factor_route(sc, 1.0)
    assert solver.grid is not None
    matrix_bytes = (3 * sc.n_voxels) ** 2 * 16
    peak = traced_peak(lambda: solver._solve(np.ones((3 * sc.n_voxels, 1), dtype=complex)))[1]
    assert solver.diagnostics["route"] == "dense-ldlt"
    assert peak <= 1.1 * matrix_bytes


def test_blocked_evaluation_matches_any_block_size(monkeypatch, rng):
    # block boundaries fall inside the target lists: 23 = 23 x 1 = 3 x 7 + 2
    sc = two_material_scene()
    solver = EffectiveSolver(sc, 1.3)
    targets = rng.uniform(-0.6, 0.9, (23, 3))
    targets[:4] = sc.positions()[:4] + 0.05  # some inside a voxel
    sources = np.array([[0.1, 0.2, 1.4], [1.3, -0.4, 0.2]])
    pts = targets[:5]
    ref_g = solver.green(targets, sources, scattered_only=True, warn_near=False)
    ref_c = solver.green_coincident_scattered(pts)
    for per_block in (1, 7):
        monkeypatch.setattr(greens, "_BLOCK_BYTES", per_block * sc.n_voxels * 9 * 16)
        assert len(solver._blocks(len(targets))) == -(-len(targets) // per_block)
        g = solver.green(targets, sources, scattered_only=True, warn_near=False)
        c = solver.green_coincident_scattered(pts)
        assert np.linalg.norm(g - ref_g) <= 1e-13 * np.linalg.norm(ref_g)
        assert np.linalg.norm(c - ref_c) <= 1e-13 * np.linalg.norm(ref_c)


def test_one_pass_green_matches_the_streamed_rows(monkeypatch, rng):
    # green() builds the rows of its targets and sources in one pass when
    # they fit in one block, and streams them block by block otherwise
    sc = two_voxel_pair()
    x = sc.positions()[0]
    targets = np.vstack([x + 0.01 * rng.standard_normal((12, 3)), [0.3, 0.2, 0.1]])
    sources = np.vstack([x, [0.5, -0.2, 1.5]])  # one inside a voxel
    solver = EffectiveSolver(sc, 1.3)
    ref = solver.green(targets, sources, warn_near=False)
    # every target in one block (the one-pass product's shape), or one per block
    for per_block in (len(targets), 1):
        monkeypatch.setattr(greens, "_BLOCK_BYTES", per_block * sc.n_voxels * 9 * 16)
        assert len(solver._blocks(len(targets) + len(sources))) > 1
        assert np.array_equal(solver.green(targets, sources, warn_near=False), ref)
    monkeypatch.undo()
    # a sphere: with the targets in one block the bits are the same; smaller
    # target blocks change only the shape of the BLAS product
    sc = sphere_scene(0.8)
    targets = rng.uniform(-1.0, 1.0, (23, 3))
    sources = np.array([[0.1, 0.2, 1.4], sc.positions()[5] + 0.03])
    solver = factor_route(sc, 0.9)
    ref = solver.green(targets, sources, scattered_only=True, warn_near=False)
    assert len(solver._blocks(len(targets) + len(sources))) == 1
    for per_block in (len(targets), 7, 1):
        monkeypatch.setattr(greens, "_BLOCK_BYTES", per_block * sc.n_voxels * 9 * 16)
        assert len(solver._blocks(len(targets) + len(sources))) > 1
        got = solver.green(targets, sources, scattered_only=True, warn_near=False)
        if per_block == len(targets):
            assert np.array_equal(got, ref)
        assert np.linalg.norm(got - ref) <= 1e-15 * np.linalg.norm(ref)


@pytest.mark.parametrize("lattice", [True, False])
def test_green_solves_for_the_smaller_side(monkeypatch, lattice):
    # with fewer targets than sources green() solves for the targets and
    # radiates to the sources: the reciprocal call's block transposed, bit
    # for bit, vacuum part included, from 3 min(T, S) columns.  The lattice
    # sphere solves by COCG, the jittered one on the factor route
    sc = sphere_scene(0.8) if lattice else jittered_sphere()
    if lattice:
        cocg_budget(monkeypatch, sc, 10**6)
    targets = np.array([[0.3, -0.2, 1.5], [-1.1, 0.4, 0.9]])
    sources = np.array([[0.1, 0.2, 1.4], [1.3, 0.1, -0.6], [-0.4, -1.2, 0.5],
                        [0.2, 0.9, -1.3], [0.0, 0.0, -1.8]])
    cols = []
    solve = EffectiveSolver._solve
    monkeypatch.setattr(EffectiveSolver, "_solve",
                        lambda self, rhs: cols.append(rhs.shape[1]) or solve(self, rhs))
    solver = EffectiveSolver(sc, 0.9)
    got = solver.green(targets, sources, warn_near=False)
    back = EffectiveSolver(sc, 0.9).green(sources, targets, warn_near=False)
    assert cols == [6, 6]
    assert np.array_equal(got, back.transpose(1, 0, 3, 2))
    assert solver.diagnostics["route"] == ("lattice-cocg" if lattice else "dense-ldlt")
    ref = factor_route(sc, 0.9)
    assert np.linalg.norm(got - ref.green(targets, sources, warn_near=False)) <= (
        1e-12 * np.linalg.norm(got))
    # rows streamed one block of sources, then one of targets: the same bits
    monkeypatch.setattr(greens, "_BLOCK_BYTES", len(sources) * sc.n_voxels * 9 * 16)
    assert len(solver._blocks(len(targets) + len(sources))) > 1
    assert np.array_equal(EffectiveSolver(sc, 0.9).green(targets, sources, warn_near=False), got)


def test_chunked_assembly_is_the_one_chunk_assembly_bitwise(monkeypatch):
    # the small-scene assembly (one chunk, cached pairs) and the chunked one
    # write the same bits, and S stays bitwise symmetric
    for sc in (two_voxel_pair(), sphere_scene(0.8)):
        n = sc.n_voxels
        S = EffectiveSolver(sc, 0.9).system
        assert np.array_equal(S, S.T)
        for rows in (1, 16):
            monkeypatch.setattr(greens, "_ASSEMBLY_BYTES", rows * n * 9 * 16)
            assert np.array_equal(EffectiveSolver(sc, 0.9).system, S)
        monkeypatch.undo()


def pair_assembled_system(sc, omega):
    """S with the kernel on every voxel pair v > u in one batch, each block written twice."""
    solver = EffectiveSolver(sc, omega)
    n, sq = sc.n_voxels, solver._sqrt_chi3[::3, 0]
    iv, iu = np.nonzero(np.tri(n, k=-1, dtype=bool))
    d = solver.pos[iv] - solver.pos[iu]
    B = greens._dyadic(d, np.linalg.norm(d, axis=-1), solver.k, -solver.dv * solver.k**2)
    B *= (sq[iv] * sq[iu])[:, None, None]
    S4 = np.empty((n, 3, n, 3), dtype=complex)
    S4[iv, :, iu] = B
    S4[iu, :, iv] = B.transpose(0, 2, 1)
    S4[np.arange(n), :, np.arange(n)] = (1.0 - solver.cself * solver.chi)[:, None, None] * np.eye(3)
    return S4.reshape(3 * n, 3 * n)


def sparse_scene():
    """Nine voxels 1.2 to 1.6 apart on the 0.2 lattice, two materials: a grid larger than S."""
    mats = (FixedEps(2 + 0.5j), FixedEps(4 + 0.1j))
    return Scene(box_side=40.0, voxel_pitch=0.2, scatterer_voxels=tuple(
        ((1.6 * i, 1.2 * j, 0.0), mats[(i + j) % 2]) for i in range(3) for j in range(3)))


def jittered_sphere():
    """The N = 179 sphere with every centre moved by about 0.01: off the lattice."""
    sc = sphere_scene(0.8)
    shift = np.random.default_rng(7).uniform(-0.01, 0.01, (sc.n_voxels, 3))
    return Scene(sc.box_side, sc.voxel_pitch, tuple(
        (tuple(np.array(p) + s), m) for (p, m), s in zip(sc.scatterer_voxels, shift)))


def test_off_lattice_factor_solves_are_the_pair_assembled_solves_bitwise(monkeypatch, rng):
    # off the kernel table the triangle is evaluated pair by pair with the
    # operands of the full assembly, in chunks of any size: system is the
    # pair-assembled S, and a solve is zsytrs on that S's factor, bit for bit
    for sc, omega in ((two_voxel_pair(), 0.9), (sparse_scene(), 1.3), (jittered_sphere(), 0.9)):
        n = sc.n_voxels
        assert greens._fft_grid(sc) is None
        ref = pair_assembled_system(sc, omega)
        ldu, ipiv, info = sla.lapack.zsytrf(ref.T, lower=1, lwork=greens._LDLT_PANEL * len(ref))
        rhs = rng.standard_normal((3 * n, 3)) + 1j * rng.standard_normal((3 * n, 3))
        for rows in (1, 2, None):
            if rows:
                monkeypatch.setattr(greens, "_ASSEMBLY_BYTES", rows * n * 9 * 16)
            solver = EffectiveSolver(sc, omega)
            assert np.array_equal(solver.system, ref)
            sq = solver._sqrt_chi3
            x, _ = sla.lapack.zsytrs(ldu, ipiv, sq * rhs, lower=1)
            assert np.array_equal(solver._solve(rhs), sq * x)
            monkeypatch.undo()


def test_lattice_factor_route_gathers_s_from_the_kernel_table(rng):
    # on the lattice S is gathered from one kernel table, whose separations
    # pitch m round apart from the centres' differences: within 4e-16 of
    # the largest entry of the pair-assembled S (2.6e-16 measured), and the
    # factor-route solve agrees with general LU of A to 1e-14 (1.2e-15)
    sc = sphere_scene(0.8)
    solver = factor_route(sc, 0.9)
    assert solver.grid is not None
    ref = pair_assembled_system(sc, 0.9)
    assert np.abs(solver.system - ref).max() <= 4e-16 * np.abs(ref).max()
    rhs = rng.standard_normal((3 * sc.n_voxels, 4)) + 1j * rng.standard_normal((3 * sc.n_voxels, 4))
    got = solver._solve(rhs)
    lu = dense_lu_reference(sc, 0.9, rhs)
    assert solver.diagnostics["route"] == "dense-ldlt"
    assert np.linalg.norm(got - lu) <= 1e-14 * np.linalg.norm(lu)


def test_the_factor_reads_the_triangle_of_system(monkeypatch):
    # zsytrf reads the lower triangle of S.T, the upper one of S: bitwise
    # that of system, which mirrors it and so is bitwise symmetric
    read = []
    real = sla.lapack.zsytrf
    monkeypatch.setattr(sla.lapack, "zsytrf", lambda a, **k: read.append(np.tril(a)) or real(a, **k))
    for sc in (two_voxel_pair(), sparse_scene(), sphere_scene(0.8)):
        solver = factor_route(sc, 0.9)
        S = solver.system
        assert np.array_equal(S, S.T)
        solver._solve(np.ones((len(S), 1), dtype=complex))
        assert np.array_equal(read[-1], np.tril(S.T))


def test_a_lattice_assembly_evaluates_the_kernel_once_per_displacement(monkeypatch):
    # the N = 179 sphere fills a 7^3 box: one table of its 13^3 = 2,197
    # displacements, not its N(N - 1)/2 = 15,931 pairs; off the lattice
    # every pair once
    evaluated = []
    dyadic = greens._dyadic
    monkeypatch.setattr(greens, "_dyadic",
                        lambda d, r, k, scale=1.0: evaluated.append(r.size) or dyadic(d, r, k, scale))
    sc = sphere_scene(0.8)
    assert sc.lattice.shape == (7, 7, 7)
    factor_route(sc, 0.9)._assemble()
    assert evaluated == [13**3]
    evaluated.clear()
    sc = jittered_sphere()
    EffectiveSolver(sc, 0.9)._assemble()
    assert sum(evaluated) == sc.n_voxels * (sc.n_voxels - 1) // 2


def test_factor_route_wide_solve_peak(rng):
    # a right-hand side as large as S, as green() and the mode fields can pass:
    # the solve holds only C^1/2 rhs, in the Fortran order zsytrs solves in
    # place, and scales the result in place (measured 1.056x the right-hand
    # side's bytes)
    sc = sphere_scene(0.8)
    solver = EffectiveSolver(sc, 1.0)
    solver._solve(np.ones((3 * sc.n_voxels, 1), dtype=complex))  # factor first
    rhs = rng.standard_normal((3 * sc.n_voxels, 3 * sc.n_voxels)) + 0j
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        solver._solve(rhs)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert solver.diagnostics["route"] == "dense-ldlt"
    assert peak <= 1.11 * rhs.nbytes


def traced_peak(fn):
    """(fn(), the peak bytes tracemalloc traces above the start while it runs)."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        out = fn()
        return out, tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def test_identity_report_peak_near_twice_the_matrix(monkeypatch):
    # on the COCG route the report forms no S and streams the surface term's
    # (1,152, N) phase table in 2 MiB blocks: measured 0.109x, most of it the
    # volume term's grid.  On the factor route (no budget) S, factored in
    # place, plus those: 1.097x
    sc = sphere_scene(1.2)
    assert sc.n_voxels == 739
    matrix_bytes = (3 * sc.n_voxels) ** 2 * 16
    for budget, bound in ((greens._COCG_BUDGET, 0.13), (0.0, 1.15)):
        monkeypatch.setattr(greens, "_COCG_BUDGET", budget)
        peak = traced_peak(lambda: greens_identity_report(sc, 1.0, IDENTITY_A, IDENTITY_B))[1]
        assert peak <= bound * matrix_bytes


def test_a_lattice_solver_is_charged_its_grid_and_refuses_s_before_allocating(monkeypatch):
    # the cap at the N = 739 sphere's grid charge (6.4 MiB), far below S's
    # 2 x 79 MB: the solver is admitted and an LDOS is served by COCG under
    # that charge (traced 3.3 MiB), with the bits of an uncapped solver.  A
    # solve too wide for what is left of the budget must leave COCG: it
    # raises, naming the reason and S's estimate, before S is allocated, and
    # so does a read of system
    sc = sphere_scene(1.2)
    charge = np.prod(greens._fft_grid(sc)) * greens._FFT_CELL_BYTES
    matrix_bytes = (3 * sc.n_voxels) ** 2 * 16
    ref = ldos(sc, 1.0, LDOS_X0, LDOS_N)
    monkeypatch.setattr(greens, "_MEMORY_CAP", charge)
    with pytest.raises(MemoryError, match=r"system was read on the COCG route: .* GB"):
        EffectiveSolver(sc, 1.0).system
    solver = EffectiveSolver(sc, 1.0)
    got, peak = traced_peak(lambda: ldos(sc, 1.0, LDOS_X0, LDOS_N, solver=solver))
    assert solver.diagnostics["route"] == "lattice-cocg"
    assert peak <= charge
    assert got == ref
    d = solver.diagnostics
    spent = d["matvecs"]
    rhs = np.ones((3 * sc.n_voxels, d["budget"] // d["iterations"] + 1), dtype=complex)

    def leave():
        with pytest.raises(MemoryError, match=r"left COCG \(budget\): .* 0\.16 GB .* 739 voxels"):
            solver._solve(rhs)

    peak = traced_peak(leave)[1]
    assert solver._fact is None and d["matvecs"] == spent
    assert peak <= 0.05 * matrix_bytes


def test_identity_report_at_n739_is_one_cocg_solve_and_forms_no_matrix(monkeypatch):
    # the identity-sphere workload's work: one interior_solution for [a, b],
    # the lattice matvec built once, no S assembled and no LDL^T
    sc = sphere_scene(1.2)
    counts = count_operators(monkeypatch)
    sources = []
    interior = EffectiveSolver.interior_solution
    monkeypatch.setattr(EffectiveSolver, "interior_solution",
                        lambda self, s: sources.append(len(s)) or interior(self, s))
    solver = EffectiveSolver(sc, 1.0)
    greens_identity_report(sc, 1.0, IDENTITY_A, IDENTITY_B, solver=solver)
    assert sources == [2]
    assert counts == ["lattice"]
    assert solver.diagnostics["route"] == "lattice-cocg"
    assert solver.diagnostics["fallback"] is None


def test_ldos_spectrum_at_n739_solves_one_column_per_frequency(monkeypatch):
    # the ldos-spectrum workload's timed work: at each of its 8 frequencies a
    # fresh solver makes one one-column COCG solve and forms no S
    sc = sphere_scene(1.2)
    counts = count_operators(monkeypatch)
    cols = []
    solve = EffectiveSolver._solve
    monkeypatch.setattr(EffectiveSolver, "_solve",
                        lambda self, rhs: cols.append(rhs.shape[1]) or solve(self, rhs))
    for omega in np.linspace(0.6, 1.4, 8):
        solver = EffectiveSolver(sc, omega)
        ldos(sc, omega, LDOS_X0, LDOS_N, solver=solver)
        assert solver.diagnostics["route"] == "lattice-cocg"
    assert cols == [1] * 8
    assert counts == ["lattice"] * 8


def test_ldos_spectrum_checks_at_n739_stay_on_cocg(monkeypatch):
    # one frequency of the ldos-spectrum workload with its checks: the LDOS,
    # the 2 x 2 reciprocity block and the 1 x 4 coincidence-limit row, which
    # solves for its one target (3 columns, not 12).  The sequence fits the
    # budget, forms no S and traces about 6 MiB against S's 75 MiB
    sc = sphere_scene(1.2)
    matrix_bytes = (3 * sc.n_voxels) ** 2 * 16
    counts = count_assembly(monkeypatch)
    y = np.array([-1.35, 0.88, 0.73])
    m = np.array([0.48, -0.81, 0.34])
    d = 0.02 * m / np.linalg.norm(m)
    pts = np.array([LDOS_X0, y])
    for omega in (0.6, 1.4):
        def sequence():
            solver = EffectiveSolver(sc, omega)
            ldos(sc, omega, LDOS_X0, LDOS_N, solver=solver)
            solver.green(pts, pts, scattered_only=True, warn_near=False)
            solver.green(LDOS_X0, LDOS_X0 + np.array([d, -d, 2 * d, -2 * d]), warn_near=False)
            return solver

        solver, peak = traced_peak(sequence)
        assert counts == []
        assert solver.diagnostics["route"] == "lattice-cocg"
        assert solver.diagnostics["matvecs"] <= solver.diagnostics["budget"]
        assert peak <= 0.1 * matrix_bytes


STREAMED_BITS = """
import numpy as np
from fluctem import greens
from fluctem.greens import EffectiveSolver, surface_functional
from fluctem.modes import enumerate_modes, mode_sum_spectral_density
from test_greens import sphere_scene, thick_shell_scene

a, b = np.array([0.3, 0.2, 1.5]), np.array([-0.9, 0.4, -1.1])
basis = enumerate_modes(8 * np.pi, 1.2)
in_bin = basis.omega_alpha[np.abs(basis.omega_alpha - 1.0) <= 0.15]
assert np.unique(np.round(in_bin, 9), return_counts=True)[1].max() > 3
for sc in (sphere_scene(0.8), thick_shell_scene()):
    n = sc.n_voxels
    solver = EffectiveSolver(sc, 1.0)
    chiX = solver.interior_solution([a, b])
    greens._ASSEMBLY_BYTES = basis.k.shape[0] * 16 * n  # one block of each table
    ref_f = surface_functional(sc, 1.0, a, b, solver=solver, chiX=chiX)
    ref_m = mode_sum_spectral_density(sc, a, b, 1.0, 0.3, basis).value
    for rows in (5, 3):
        greens._ASSEMBLY_BYTES = rows * 16 * n
        assert np.array_equal(surface_functional(sc, 1.0, a, b, solver=solver, chiX=chiX), ref_f)
        assert np.array_equal(mode_sum_spectral_density(sc, a, b, 1.0, 0.3, basis).value, ref_m)
print("ok")
"""


def test_streamed_surface_term_and_mode_sum_keep_their_bits():
    # the surface term's phase table in blocks of 5 or 3 directions and the
    # mode sum's in blocks of 5 or 3 wave vectors give the one-block bits,
    # with a shell and without one.  Pinned at one BLAS thread, as the
    # benchmark and CI run: OpenBLAS rounds a threaded product differently
    # from a small unthreaded one
    run_at_one_blas_thread(STREAMED_BITS)


def test_system_reassembly_bit_exact():
    sc = one_voxel_scene(pitch=0.3)
    m1 = EffectiveSolver(sc, 1.0).system
    m2 = EffectiveSolver(sc, 1.0).system
    assert np.array_equal(m1, m2)
    # the first solve factors an S of its own in place; a later read
    # assembles a fresh S, never the array the factor overwrote
    sc = sphere_scene(0.8)
    solver = EffectiveSolver(sc, 0.9)
    before = solver.system
    solver.interior_field(np.ones((sc.n_voxels, 3)))
    after = solver.system
    assert solver._fact is not None
    assert not np.shares_memory(before, solver._fact[0])
    assert not np.shares_memory(after, solver._fact[0])
    assert np.array_equal(before, after)
    assert np.array_equal(after, EffectiveSolver(sc, 0.9).system)


# -- surface functional and the dissipation identity ------------------------


def test_surface_functional_vacuum_coincidence():
    sc = vacuum_scene()
    a = np.array([0.0, 0.0, 0.2])
    F = surface_functional(sc, 1.0, a, a)
    target = vacuum_imag_coincidence(1.0)
    assert np.linalg.norm(F - target) < 1e-12 * np.linalg.norm(target)


def thick_shell_scene(eta=0.1):
    """One voxel inside five amplitude e-foldings of a flat absorber."""
    ell = 1.0 / np.imag(np.sqrt(1 + 1j * eta))
    return Scene(box_side=4 * (2.0 + 5 * ell), voxel_pitch=0.2,
                 scatterer_voxels=(((0.0, 0.0, 0.0), FixedEps(2 + 0.5j)),),
                 shell=Shell(2.0, 2.0 + 5 * ell, FixedEps(1 + 1j * eta)))


def test_thick_shell_kills_surface_term():
    # five amplitude e-foldings of absorber: outgoing propagation is gone
    sc = thick_shell_scene()
    a = np.array([0.0, 0.0, 1.0])
    b = np.array([0.8, 0.3, -0.6])
    solver = EffectiveSolver(sc, 1.0)
    F = surface_functional(sc, 1.0, a, b, solver=solver)
    img = np.imag(solver.green(a[None], b[None], warn_near=False)[0, 0])
    assert np.linalg.norm(F) < 1e-4 * np.linalg.norm(img)


def finite_sphere_surface_term(sc, omega, a, b, radius):
    """The surface term on a sphere of finite radius, the route it replaced.

    (w/c) sum_i w_i G^T(x_i, a) (I - n_i n_i) conj(G(x_i, b)) over the nodes
    of sphere_quadrature(radius, 24), each G from solver.green times the
    shell path factor of the segment from its source to the node.
    """
    q = sphere_quadrature(radius, 24)
    G = EffectiveSolver(sc, omega).green(q.nodes, np.stack([a, b]), warn_near=False)
    Ga = G[:, 0] * shell_path_factors(sc, omega, a, q.nodes)[:, None, None]
    Gb = G[:, 1] * shell_path_factors(sc, omega, b, q.nodes)[:, None, None]
    proj = np.eye(3) - q.normals[:, :, None] * q.normals[:, None, :]
    return omega * np.einsum("n,nki,nkl,nlj->ij", q.weights, Ga, proj, np.conj(Gb))


@pytest.mark.parametrize("case, order", [("sphere", 2), ("thick_shell", 1)])
def test_far_field_surface_term_is_the_large_sphere_limit(case, order):
    # the sphere's finite-radius sum approaches the far-field term as
    # 1/(kR)^2: 1.38e-7 at R = 3000/k, 3.45e-8 at 6000/k.  Behind the shell
    # the rate is 1/(kR) (3.9e-7, 1.9e-7): the path factor is no solution of
    # the wave equation, so the sphere's O(1/(kR)) Fresnel phase no longer
    # cancels between the two amplitudes
    if case == "sphere":
        sc, omega = sphere_scene(0.8), 1.0
        a, b = np.array([0.23, -0.36, 1.21]), np.array([0.84, 0.47, -0.93])
    else:
        sc, omega = thick_shell_scene(), 1.0
        a, b = np.array([0.0, 0.0, 1.0]), np.array([0.8, 0.3, -0.6])
    F = surface_functional(sc, omega, a, b)
    diff = [np.linalg.norm(finite_sphere_surface_term(sc, omega, a, b, R) - F)
            / np.linalg.norm(F) for R in (3000.0, 6000.0)]
    assert diff[0] < 1e-6
    assert 0.95 * 2**order < diff[0] / diff[1] < 1.05 * 2**order


def test_identity_vacuum():
    sc = vacuum_scene()
    res = greens_identity_report(sc, 1.0, np.array([0, 0, 0.3]),
                                 np.array([0.4, 0.1, -0.2])).residual
    assert res < 1e-12


@pytest.mark.slow
def test_identity_single_voxel_converges_with_pitch():
    a = np.array([0.0, 0.0, 1.0])
    b = np.array([0.7, 0.3, -0.6])
    resid = [greens_identity_report(one_voxel_scene(pitch=p), 1.0, a, b).residual
             for p in (LAM / 10, LAM / 20, LAM / 40)]
    assert resid[1] < 1e-2  # the lam/20 level
    assert resid[0] > resid[1] > resid[2]
    order = np.log2(resid[0] / resid[1])
    assert order >= 1.0


def test_identity_report_parts_vacuum():
    sc = vacuum_scene()
    rep = greens_identity_report(sc, 1.0, np.array([0, 0, 0.3]),
                                 np.array([0.4, 0.1, -0.2]))
    assert np.allclose(rep.volume_term, 0.0)
    assert np.linalg.norm(rep.surface_term - rep.imag_green) < 1e-12


def test_identity_report_at_coincidence():
    # at a = b the vacuum part of Imag G is its limit (w / 6 pi c) I: the
    # vacuum identity holds to rounding, and each term of a one-voxel report
    # is the b -> a limit, the mean of b = a +- 1e-4 x (linear terms cancel)
    a = np.array([0.0, 0.0, 0.3])
    assert greens_identity_report(vacuum_scene(), 1.0, a, a).residual <= 1e-12
    sc = one_voxel_scene(pitch=0.4)
    a, dx = np.array([0.0, 0.0, 1.0]), np.array([1e-4, 0.0, 0.0])
    rep = greens_identity_report(sc, 1.0, a, a)
    near = [greens_identity_report(sc, 1.0, a, a + s * dx) for s in (1, -1)]
    for term in ("imag_green", "surface_term", "volume_term"):
        got = getattr(rep, term)
        limit = (getattr(near[0], term) + getattr(near[1], term)) / 2
        assert np.linalg.norm(got - limit) <= 1e-6 * np.linalg.norm(got)
    assert abs(rep.residual - near[0].residual) <= 1e-5 * rep.residual


def test_identity_report_refuses_a_source_inside_a_voxel():
    # the absorption integrand is not integrable at a source inside a
    # scatterer voxel; such a source read residuals of 0.84 and 74 as if the
    # identity failed.  A point on a face belongs to the voxel
    sc = one_voxel_scene(pitch=0.4)
    b = np.array([0.7, 0.3, -0.6])
    assert greens_identity_report(sc, 1.0, np.array([0.0, 0.0, 1.0]), b).residual < 1e-2
    for a in ([0.05, 0.03, 0.02], [0.1, 0.1, 0.1], [0.2, 0.0, 0.0]):
        with pytest.raises(GreensError, match=r"source a = .* inside scatterer voxel 0 "):
            greens_identity_report(sc, 1.0, np.array(a), b)
        with pytest.raises(GreensError, match=r"source b = .* inside scatterer voxel 0 "):
            greens_identity_report(sc, 1.0, b, np.array(a))


@pytest.mark.parametrize("term", ["identity", "scatterer", "shell", "all"])
def test_absorption_terms_need_both_sources_in_the_vacuum_gap(monkeypatch, term):
    # the identity report and the noise density of every region refuse a
    # source inside a voxel (a face included) or at or beyond the shell's
    # inner radius, before any solve.  Such sources read residuals of 0.15
    # to 1.3 and densities off by orders of magnitude, with no error
    from fluctem.fluctuations import noise_correlator_density

    sc = thick_shell_scene()  # a pitch-0.2 voxel at the origin, the shell from R2 = 2

    def evaluate(a, b):
        if term == "identity":
            return greens_identity_report(sc, 1.0, a, b).residual
        return noise_correlator_density(sc, term, 1.0, a, b).value

    gap = np.array([0.8, 0.3, -0.6])
    assert np.all(np.isfinite(evaluate(np.array([0.0, 0.0, 1.0]), gap)))
    solves = []
    monkeypatch.setattr(EffectiveSolver, "_solve", lambda self, rhs: solves.append(rhs.shape))
    for p, where in (([0.05, 0.03, 0.02], r"inside scatterer voxel 0 \(centre"),
                     ([0.1, 0.0, 0.0], r"inside scatterer voxel 0 \(centre"),
                     ([0.0, 0.0, 2.0], r"at \|x\| = 2, in or beyond the shell"),
                     ([0.0, 150.0, 0.0], r"at \|x\| = 150, in or beyond the shell")):
        with pytest.raises(GreensError, match=r"^source a = .* lies " + where):
            evaluate(np.array(p), gap)
        with pytest.raises(GreensError, match=r"^source b = .* lies " + where):
            evaluate(gap, np.array(p))
    assert solves == []


def test_a_scene_given_a_shell_has_a_shell_term():
    # a Scene given a Shell has it, with no flag besides: its shell noise
    # density once read 0 without the flag
    from fluctem.fluctuations import noise_correlator_density

    sc = thick_shell_scene()
    a, b = np.array([0.0, 0.0, 1.0]), np.array([0.8, 0.3, -0.6])
    assert np.linalg.norm(noise_correlator_density(sc, "shell", 1.0, a, b).value) > 0.01


def test_terms_take_the_callers_polarization(monkeypatch):
    # chiX only passes the solve a caller has made: each term returns the
    # same bits with it and without it, and makes no solve of its own
    from fluctem.fluctuations import noise_correlator_density

    a, b = np.array([0.23, -0.36, 1.21]), np.array([0.84, 0.47, -0.93])
    solves = []
    solve = EffectiveSolver._solve
    monkeypatch.setattr(EffectiveSolver, "_solve",
                        lambda self, rhs: solves.append(rhs.shape) or solve(self, rhs))
    for sc in (sphere_scene(0.8), one_voxel_scene(), thick_shell_scene()):
        solver = EffectiveSolver(sc, 1.0)
        chiX = solver.interior_solution([a, b])
        terms = (  # each term and the solves it makes without chiX
            (lambda **kw: surface_functional(sc, 1.0, a, b, solver=solver, **kw), 1),
            (lambda **kw: noise_volume_integral_scatterer(sc, 1.0, a, b, solver=solver,
                                                          **kw), 1),
            (lambda **kw: noise_volume_integral_shell(sc, 1.0, a, b, solver=solver, **kw),
             int(sc.shell is not None)),  # no shell: zero, before any solve
            (lambda **kw: noise_correlator_density(sc, "all", 1.0, a, b, solver=solver,
                                                   **kw).value, 1),
        )
        for term, own in terms:
            solves.clear()
            given = term(chiX=chiX)
            assert solves == []
            assert np.array_equal(given, term())
            assert len(solves) == own


def test_passivity_of_coincidence_imag(rng):
    sc = one_voxel_scene(eps=3 + 1j, pitch=0.4)
    solver = EffectiveSolver(sc, 1.0)
    pts = rng.uniform(-2, 2, (6, 3))
    pts = pts[np.linalg.norm(pts, axis=1) > 0.8]
    vac = vacuum_imag_coincidence(1.0)
    for p in pts:
        gs = solver.green_coincident_scattered(p[None])[0]
        total = vac + np.imag(gs)
        eigs = np.linalg.eigvalsh((total + total.T) / 2)
        assert np.all(eigs > -1e-10)


def test_dyadic_block_export(tmp_path):
    from fluctem.reports import write_dyadic_block_csv

    sc = one_voxel_scene(pitch=0.3)
    block = solve_effective_green(sc, 1.0, np.array([[0, 0, 1.4]]),
                                  np.array([[1.0, 0.4, -0.7]]))
    path = write_dyadic_block_csv(block, tmp_path / "block.csv")
    lines = path.read_text().splitlines()
    assert lines[0] == "target,source,row,col,re,im"
    assert len(lines) == 1 + 9
    sidecar = (tmp_path / "block.json").read_text()
    assert "self_term_rule" in sidecar and "omega" in sidecar


def test_one_solve_per_call_site(monkeypatch):
    # every call site hands all its sources to one solve, whose right-hand
    # side widths are recorded at EffectiveSolver._solve; the identity
    # report's terms, the shell's included, all radiate the one solve for
    # [a, b].  The gradient's right side solves for its 9 gradient-row
    # columns itself, not for x as its left side does
    from fluctem.fluctuations import noise_correlator_density
    from fluctem.observables import green_trace_gradient

    solves = []
    solve = EffectiveSolver._solve

    def counted(self, rhs):
        solves.append(rhs.shape[1])
        return solve(self, rhs)

    monkeypatch.setattr(EffectiveSolver, "_solve", counted)
    sc = one_voxel_scene(pitch=0.4)
    a = np.array([0.0, 0.0, 1.0])
    b = np.array([0.8, 0.3, -0.6])
    x = np.array([0.0, 0.0, 1.2])
    cases = [
        (lambda: green_trace_gradient(sc, 1.0, x, side="left"), [3]),
        (lambda: green_trace_gradient(sc, 1.0, x, side="right"), [9]),
        (lambda: green_trace_gradient(sc, 1.0, x, side="both"), [3, 9]),
        (lambda: greens_identity_report(sc, 1.0, a, b), [6]),
        (lambda: greens_identity_report(thick_shell_scene(), 1.0, a, b), [6]),
        (lambda: noise_correlator_density(sc, "scatterer", 1.0, a, b), [6]),
    ]
    for run, expected in cases:
        solves.clear()
        run()
        assert solves == expected


# -- the lattice route of the scatterer volume term ---------------------------


def lattice_and_dense_volume(sc, omega, a, b, nsub=2):
    """The scatterer volume term by the lattice FFT and by dense rows, one solver."""
    solver = EffectiveSolver(sc, omega)
    assert greens.volume_route(solver) == "lattice-fft"
    fft = noise_volume_integral_scatterer(sc, omega, a, b, solver=solver, nsub=nsub)
    solver.grid = None
    dense = noise_volume_integral_scatterer(sc, omega, a, b, solver=solver, nsub=nsub)
    return fft, dense


@pytest.mark.parametrize("nsub", [1, 2, 3])
def test_lattice_volume_term_matches_dense_rows_on_a_sphere(nsub):
    # nsub = 1 and 3 put a node at the voxel centre: r = 0 in the own cell
    sc = sphere_scene(0.8)
    assert sc.n_voxels == 179
    a, b = np.array([0.23, -0.36, 1.21]), np.array([0.84, 0.47, -0.93])
    fft, dense = lattice_and_dense_volume(sc, 0.9, a, b, nsub)
    assert np.linalg.norm(fft - dense) <= 1e-12 * np.linalg.norm(dense)


def test_lattice_volume_term_two_materials_and_a_vacuum_voxel():
    other = {"type": "drude_lorentz", "omega_p": 0.8, "omega_0": 1.3, "gamma": 0.2}
    sc = build_scene({"box_side": 40.0, "voxel_pitch": 0.2, "voxels": [
        {"position": [0.6, 0.0, 0.0], "material": "vacuum"},
        {"position": [0.0, 0.6, 0.0], "material": other},
    ], "primitives": [{"shape": "box", "half_size": [0.5, 0.5, 0.5], "material": {
        "type": "drude_lorentz", "omega_p": 1.2, "omega_0": 0.9, "gamma": 0.4}}]})
    assert sc.n_voxels == 127
    a, b = np.array([0.1, -0.3, 1.4]), np.array([-1.1, 0.5, -0.6])
    fft, dense = lattice_and_dense_volume(sc, 0.9, a, b)
    assert np.linalg.norm(fft - dense) <= 1e-12 * np.linalg.norm(dense)


def test_lattice_volume_term_off_centre_box():
    sc = build_scene({"box_side": 40.0, "voxel_pitch": 0.2, "primitives": [
        {"shape": "box", "center": [0.37, -0.11, 0.05], "half_size": [0.5, 0.3, 0.4],
         "material": {"type": "drude_lorentz", "omega_p": 1.2, "omega_0": 0.9,
                      "gamma": 0.4}}]})
    assert sc.n_voxels == 45
    a, b = np.array([0.3, 0.2, 1.3]), np.array([-0.9, -0.7, -0.5])
    fft, dense = lattice_and_dense_volume(sc, 1.1, a, b)
    assert np.linalg.norm(fft - dense) <= 1e-12 * np.linalg.norm(dense)


def test_sparse_single_and_off_lattice_scenes_take_dense_rows():
    # the 2-voxel pair at +-0.6 with pitch pi/6 is off the lattice
    pair = Scene(box_side=40.0, voxel_pitch=np.pi / 6, scatterer_voxels=(
        ((0.0, 0.0, -0.6), FixedEps(2 + 0.5j)), ((0.0, 0.0, 0.6), FixedEps(2 + 0.5j))))
    assert pair.lattice is None
    assert greens.volume_route(EffectiveSolver(pair, 1.0)) == "dense-rows"
    assert greens.volume_route(EffectiveSolver(one_voxel_scene(), 1.0)) == "dense-rows"
    # voxels at the corners of a 60-pitch cube: a 121^3 grid against a 24 x 24 S
    corners = Scene(box_side=100.0, voxel_pitch=0.2, scatterer_voxels=tuple(
        ((12.0 * i, 12.0 * j, 12.0 * k), FixedEps(2 + 0.5j))
        for i in (0, 1) for j in (0, 1) for k in (0, 1)))
    assert corners.lattice.shape == (61, 61, 61)
    solver = EffectiveSolver(corners, 1.0)
    assert greens.volume_route(solver) == "dense-rows"
    a, b = np.array([6.0, 6.0, 6.3]), np.array([5.1, 6.2, 5.8])
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        noise_volume_integral_scatterer(corners, 1.0, a, b, solver=solver)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < 2**20  # the grid's transformed polarization alone is 0.5 GB


def test_noise_density_records_the_volume_route():
    from fluctem.fluctuations import noise_correlator_density

    a, b = np.array([0.23, -0.36, 1.21]), np.array([0.84, 0.47, -0.93])
    routes = [noise_correlator_density(sc, region, 1.0, a, b).metadata["volume_route"]
              for sc, region in ((sphere_scene(0.8), "scatterer"),
                                 (one_voxel_scene(), "scatterer"),
                                 (thick_shell_scene(), "all"),
                                 (thick_shell_scene(), "shell"))]
    assert routes == ["lattice-fft", "dense-rows", "dense-rows", "dense-rows"]


# -- the stacked systems of a frequency sweep ---------------------------------


def test_dyadic_over_a_frequency_axis_has_the_bits_of_each_frequency(rng):
    d = rng.uniform(-1, 1, (5, 7, 3))
    r = np.linalg.norm(d, axis=-1)
    k = STACK_GRID[:, None, None]
    scale = -0.3 * k**2
    stacked = greens._dyadic(d, r, k, scale)
    assert stacked.shape == (len(STACK_GRID), 5, 7, 3, 3)
    for f, kf in enumerate(STACK_GRID):
        assert np.array_equal(stacked[f], greens._dyadic(d, r, kf, scale[f, 0, 0]))


@pytest.mark.parametrize("d", [
    [0.37, -0.52, 0.81],  # off every axis, about a wavelength at k = 5
    [0.053, 0.021, -0.017],  # just outside the owner cell of a 0.1 voxel
])
@pytest.mark.parametrize("k", [0.02, 1.0, 5.0])
def test_dyadic_gradient_matches_richardson_of_the_dyadic(d, k):
    # the closed form against the oracle's central differences of _dyadic
    # itself, each real and imaginary component on its own; a step of 1e-3
    # |d| keeps the near-boundary stencil outside the cell
    d = np.array(d)
    got = greens._dyadic_gradient(d, np.linalg.norm(d), k, 1.0, np.empty((3, 3, 3), complex))

    def component(i, m, part):
        return lambda p: float(part(greens._dyadic(p[None], greens._lengths(p[None]), k)[0, i, m]))

    h0 = 1e-3 * np.linalg.norm(d)
    scale = np.abs(got).max()
    for i in range(3):
        for m in range(3):
            for part, value in ((np.real, got[:, i, m].real), (np.imag, got[:, i, m].imag)):
                ref, err, _ = richardson_gradient(component(i, m, part), d, h0)
                assert np.abs(value - ref).max() <= max(4 * err, 1e-8 * scale)


def test_coupling_gradients_vanish_in_the_owner_cell_and_follow_the_dyadic(rng):
    # rows(p) hold cself I in the cell that owns p, so their gradient is 0
    # there; every other block is dV k^2 d_j Gv(p - x_u), over a frequency
    # axis too
    pitch = 0.1
    pos = np.array([[0.0, 0.0, 0.0], [0.1, 0.0, 0.0], [0.0, 0.3, 0.1]])
    pts = np.array([[0.049, 0.02, -0.03], [0.051, 0.02, -0.03], [0.4, -0.2, 0.3]])
    owners = [0, 1, -1]
    k = STACK_GRID[:, None, None]
    cself = 0.5 - 0.1j * STACK_GRID
    rows, got = greens._couplings(pts, pos, pitch, k, 0.001 * k**2, cself, gradients=True)
    # the rows built with the gradients are the rows built alone
    assert np.array_equal(rows, greens._couplings(pts, pos, pitch, k, 0.001 * k**2, cself))
    assert got.shape == (len(STACK_GRID), 3, 3, 3, 9)
    blocks = got.reshape(len(STACK_GRID), 3, 3, 3, 3, 3)  # (f, p, j, i, u, k)
    for f, kf in enumerate(STACK_GRID):
        _, one = greens._couplings(pts, pos, pitch, kf, 0.001 * kf**2, cself[f], gradients=True)
        assert np.abs(got[f] - one).max() <= 1e-14 * np.abs(one).max()
        for p, owner in enumerate(owners):
            for u in range(3):
                block = blocks[f, p, :, :, u]
                if u == owner:
                    assert np.all(block == 0)
                else:
                    d = pts[p] - pos[u]
                    ref = greens._dyadic_gradient(d, np.linalg.norm(d), kf, 0.001 * kf**2,
                                                  np.empty((3, 3, 3), complex))
                    assert np.abs(block - ref).max() <= 1e-14 * np.abs(ref).max()


@pytest.mark.parametrize("name", STACK_SCENES)
def test_solver_stack_matches_the_solver_and_dense_lu(name, rng):
    scene, body = stack_scene(name)
    n3 = 3 * scene.n_voxels
    stack = SolverStack(scene, STACK_GRID)
    rhs = rng.standard_normal((len(STACK_GRID), n3, 4)) + 1j * rng.standard_normal(
        (len(STACK_GRID), n3, 4))
    got = stack.solve(rhs)
    # points inside the body's voxels (the own-cell self term) and one outside
    pts = np.vstack([scene.positions()[list(body)] + 0.01, [[0.3, -0.2, 2.5]]])
    rows = stack.coupling_rows(pts)
    with_grads, grads = stack.coupling_rows(pts, gradients=True)
    assert np.array_equal(with_grads, rows)
    for f, omega in enumerate(STACK_GRID):
        solver = EffectiveSolver(scene, omega)
        S = solver.system
        assert np.linalg.norm(stack.system[f] - S) <= 1e-14 * np.linalg.norm(S)
        R = solver._coupling_rows(pts).transpose(0, 2, 1, 3).reshape(len(pts), 3, n3)
        assert np.linalg.norm(rows[f] - R) <= 1e-14 * np.linalg.norm(R)
        (_, R_grads, D), = solver._row_blocks(pts, gradients=True)
        assert np.array_equal(R_grads, R)
        assert np.linalg.norm(grads[f] - D) <= 1e-14 * np.linalg.norm(D)
        ref = dense_lu_reference(scene, omega, rhs[f])
        assert np.linalg.norm(got[f] - ref) <= 1e-12 * np.linalg.norm(ref)
    assert 0 < stack.backward_error < 1e-14


def test_centre_rule_volume_term_matches_the_field_routes():
    # at nsub = 1 the term reads the field at the voxel centres from the
    # interior solution; the field routes it replaced radiate the same
    # polarization there: the lattice FFT on the N = 739 sphere, the dense
    # rows on an off-lattice scene with a vacuum voxel
    sphere = sphere_scene(1.2)
    assert sphere.n_voxels == 739
    for sc, omega, a, b in ((sphere, 1.0, IDENTITY_A, IDENTITY_B),
                            (stack_scene("vacuum-voxel")[0], 0.9, np.array([0.4, 0.1, 1.6]),
                             np.array([-0.5, 0.3, -1.5]))):
        solver = EffectiveSolver(sc, omega)
        chiX = solver.interior_solution(np.stack([a, b]))
        got = noise_volume_integral_scatterer(sc, omega, a, b, solver, nsub=1, chiX=chiX)
        pos = sc.positions()
        if solver.grid is None:
            B = greens._field(solver, pos, a, b, chiX)
        else:
            B = next(greens._lattice_fields(solver, solver.grid, np.zeros((1, 3)), a, b, chiX))
        w = omega**2 * sc.voxel_volume * solver.chi.imag
        ref = np.einsum("n,nki,nkj->ij", w, B[:, 0], np.conj(B[:, 1]))
        assert np.linalg.norm(got - ref) <= 1e-13 * np.linalg.norm(ref)
