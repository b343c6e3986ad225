from pathlib import Path

import numpy as np
import pytest
import yaml

from fluctem import greens, observables
from fluctem.greens import EffectiveSolver, stack_bytes
from fluctem.material import DrudeLorentzModel
from fluctem.observables import (
    BodySpec,
    EmitterSpec,
    ObservableError,
    _diameter,
    casimir_thermal_force,
    green_trace_gradient,
    ldos,
    spontaneous_rate,
)
from fluctem.oracle import richardson_gradient
from fluctem.scene import Scene, build_scene

from conftest import LAM, STACK_GRID, STACK_SCENES, one_voxel_scene, stack_scene

DLMAT = {"type": "drude_lorentz", "omega_p": 1.0, "omega_0": 1.0, "gamma": 0.1}


def test_vacuum_ldos_analytic():
    sc = Scene(box_side=10.0, voxel_pitch=0.1, scatterer_voxels=())
    val = ldos(sc, 1.3, np.zeros(3), np.array([0, 0, 1.0]))
    assert abs(val - 1.3**2 / np.pi**2) < 1e-10


def test_ldos_orientation_average_is_trace():
    sc = one_voxel_scene(eps=3 + 1j, pitch=0.4)
    x0 = np.array([0.0, 0.0, 1.0])
    solver = EffectiveSolver(sc, 1.0)
    avg = np.mean([ldos(sc, 1.0, x0, e, solver=solver)
                   for e in np.eye(3)])
    gs = solver.green_coincident_scattered(x0[None])[0]
    trace = (2 * 1.0 / np.pi) * (3 * 1.0 / (6 * np.pi) + np.imag(np.trace(gs)))
    assert avg == pytest.approx(trace, rel=1e-12)


def test_ldos_monotone_near_lossy_voxel():
    # near zone: the absorptive 1/d^6 channel dominates and the local
    # density rises strictly as the point approaches the voxel
    sc = one_voxel_scene(eps=3 + 1j, pitch=0.3)
    vals = [ldos(sc, 1.0, np.array([0.0, 0.0, d]), np.array([1.0, 0, 0]))
            for d in (0.55, 0.45, 0.35)]
    assert vals[0] < vals[1] < vals[2]


def test_spontaneous_rate_vacuum_closed_form():
    # substitute the vacuum LDOS: Gamma = mu^2 w0^3 / (3 pi hbar c^3)
    sc = Scene(box_side=10.0, voxel_pitch=0.1, scatterer_voxels=())
    em = EmitterSpec(position=(0, 0, 0), n_hat=(0, 0, 1), dipole_moment=0.7, omega0=1.4)
    res = spontaneous_rate(sc, em)
    assert res.gamma == pytest.approx(0.7**2 * 1.4**3 / (3 * np.pi), rel=1e-10)
    assert res.purcell == pytest.approx(1.0, rel=1e-10)


def test_spontaneous_rate_zero_dipole():
    sc = Scene(box_side=10.0, voxel_pitch=0.1, scatterer_voxels=())
    em = EmitterSpec((0, 0, 0), (0, 0, 1), 0.0, 1.0)
    assert spontaneous_rate(sc, em).gamma == 0.0


def test_spontaneous_rate_quadratic_in_dipole():
    sc = one_voxel_scene()
    g1 = spontaneous_rate(sc, EmitterSpec((0, 0, 1.0), (1, 0, 0), 0.5, 1.0)).gamma
    g2 = spontaneous_rate(sc, EmitterSpec((0, 0, 1.0), (1, 0, 0), 1.0, 1.0)).gamma
    assert g2 / g1 == pytest.approx(4.0, rel=1e-12)


def test_purcell_orientation_anisotropy_slab():
    sc = build_scene({
        "box_side": 40.0, "voxel_pitch": 0.5,
        "primitives": [{"shape": "box", "half_size": [0.75, 0.75, 0.25],
                        "material": {"type": "drude_lorentz", "omega_p": 1.5,
                                      "omega_0": 0.8, "gamma": 0.3}}],
    })
    assert sc.n_voxels == 9  # 3 x 3 x 1 slab
    x0 = np.array([0.0, 0.0, 1.1])
    px = spontaneous_rate(sc, EmitterSpec(tuple(x0), (1, 0, 0), 1.0, 1.0)).purcell
    pz = spontaneous_rate(sc, EmitterSpec(tuple(x0), (0, 0, 1), 1.0, 1.0)).purcell
    assert abs(px - pz) > 0.01 * max(px, pz)


def test_emitter_validation():
    with pytest.raises(ObservableError):
        EmitterSpec((0, 0, 0), (0, 0, 2.0), 1.0, 1.0)
    with pytest.raises(ObservableError):
        EmitterSpec((0, 0, 0), (0, 0, 1.0), -1.0, 1.0)
    with pytest.raises(ObservableError):
        BodySpec(())


def test_emitter_rejects_a_nan_orientation():
    with pytest.raises(ObservableError):
        EmitterSpec((0, 0, 0), (np.nan, 0, 1.0), 1.0, 1.0)


def test_emitter_rejects_a_nan_dipole_moment():
    with pytest.raises(ObservableError):
        EmitterSpec((0, 0, 0), (0, 0, 1.0), np.nan, 1.0)


def test_emitter_rejects_a_non_finite_position():
    with pytest.raises(ObservableError):
        EmitterSpec((0, np.inf, 0), (0, 0, 1.0), 1.0, 1.0)


def test_ldos_rejects_a_zero_orientation():
    with pytest.raises(ObservableError):
        ldos(one_voxel_scene(), 1.0, np.array([0.0, 0.0, 1.0]), np.zeros(3))


def test_ldos_rejects_a_nan_position():
    with pytest.raises(ObservableError):
        ldos(one_voxel_scene(), 1.0, np.array([0.0, np.nan, 1.0]), np.array([0, 0, 1.0]))


def test_ldos_rejects_a_nan_frequency():
    # NaN used to return NaN without voxels and raise GreensError with them
    for sc in (Scene(box_side=10.0, voxel_pitch=0.1, scatterer_voxels=()), one_voxel_scene()):
        with pytest.raises(ObservableError):
            ldos(sc, np.nan, np.array([0.0, 0.0, 1.2]), np.array([0, 0, 1.0]))


def test_ldos_without_voxels_still_rejects_a_bad_orientation():
    sc = Scene(box_side=10.0, voxel_pitch=0.1, scatterer_voxels=())
    for n in (np.zeros(3), np.array([0.0, np.nan, 1.0])):
        with pytest.raises(ObservableError):
            ldos(sc, 1.0, np.zeros(3), n)


def test_gradient_vanishes_without_scatterer():
    sc = Scene(box_side=10.0, voxel_pitch=0.2, scatterer_voxels=())
    res = green_trace_gradient(sc, 1.0, np.array([0.2, 0.1, -0.3]))
    assert np.linalg.norm(res.gradient) < 1e-12


def test_gradient_left_right_agree():
    sc = one_voxel_scene(eps=2 + 0.5j, pitch=0.4)
    res = green_trace_gradient(sc, 1.0, np.array([0.0, 0.0, 1.1]))
    assert np.linalg.norm(res.left - res.right) <= 1e-10 * np.linalg.norm(res.left)


def test_gradient_takes_one_finite_point():
    # two points, and a NaN point, are refused before any solve
    sc = one_voxel_scene(eps=2 + 0.5j, pitch=0.4)
    two = np.array([[0.0, 0.0, 1.1], [0.0, 0.0, -1.1]])
    for x in (two, np.array([0.0, np.nan, 1.1])):
        with pytest.raises(ObservableError, match="x must be three finite numbers"):
            green_trace_gradient(sc, 1.0, x)


def _richardson_trace_gradient(solver, x, h0):
    """The oracle's Richardson gradient of Tr G_s(p, x) in p at p = x, complex (3,)."""
    def part(take):
        return lambda p: float(take(np.trace(
            solver.green(p[None], x[None], scattered_only=True, warn_near=False)[0, 0])))

    return (richardson_gradient(part(np.real), x, h0)[0]
            + 1j * richardson_gradient(part(np.imag), x, h0)[0])


@pytest.mark.parametrize("name, omegas", [
    ("pair", (0.02, 0.1, 1.4, 10.0)),
    ("sphere", (0.6, 1.4)),
])
def test_exact_gradient_matches_the_richardson_gradient(name, omegas):
    # the closed form against central differences at 0.02 and 0.01 pitch
    # with one Richardson sweep, the estimate the force used before: at a
    # body voxel of configs/casimir.yaml's pair and at an off-axis surface
    # voxel of the N = 179 sphere, where the stencil's own truncation error
    # is about 2.4e-7
    if name == "pair":
        scene = stack_scene("pair")[0]
    else:
        scene = build_scene({"box_side": 40.0, "voxel_pitch": 0.2, "primitives": [
            {"shape": "sphere", "radius": 0.8, "material": {
                "type": "drude_lorentz", "omega_p": 1.2, "omega_0": 0.9, "gamma": 0.4}}]})
        assert scene.n_voxels == 179
    x = scene.positions()[0]
    for omega in omegas:
        solver = EffectiveSolver(scene, omega)
        got = green_trace_gradient(scene, omega, x, solver=solver).left
        ref = _richardson_trace_gradient(solver, x, 0.02 * scene.voxel_pitch)
        assert np.linalg.norm(got - ref) <= 1e-6 * np.linalg.norm(ref)


def test_gradient_sides_agree_across_routes_on_the_n389_sphere():
    # criterion 8's check where the two sides take different routes: the
    # 3-column left solve stays on COCG within the N = 389 sphere's budget,
    # and the 9-column right solve leaves it for LDL^T
    scene = build_scene({"box_side": 40.0, "voxel_pitch": 0.2, "primitives": [
        {"shape": "sphere", "radius": 1.0, "material": {
            "type": "drude_lorentz", "omega_p": 1.2, "omega_0": 0.9, "gamma": 0.4}}]})
    assert scene.n_voxels == 389
    x = scene.positions()[0]
    solver = EffectiveSolver(scene, 0.9)
    left = observables._left_gradients(solver, *solver._coupling_rows(x, gradients=True))[0]
    assert solver.diagnostics["route"] == "lattice-cocg"
    solver = EffectiveSolver(scene, 0.9)
    res = green_trace_gradient(scene, 0.9, x, solver=solver)
    assert solver.diagnostics["route"] == "dense-ldlt"
    assert solver.diagnostics["fallback"] == "budget"
    assert np.array_equal(res.left, left)
    assert np.linalg.norm(res.left - res.right) <= 1e-10 * np.linalg.norm(res.left)


def test_gradient_identity_with_boundary_term():
    # the trace-gradient of Imag G equals the gradient of the boundary term
    # plus the gradient of the absorption volume integral; at desk scale the
    # boundary term must be kept (only an ideal far absorber kills it), and
    # the volume term uses the point rule, which is the discrete model's
    # exact absorption.
    from fluctem.greens import noise_volume_integral_scatterer, surface_functional

    sc = one_voxel_scene(eps=2 + 0.5j, pitch=0.45)
    x = np.array([0.0, 0.0, 1.1])
    solver = EffectiveSolver(sc, 1.0)
    h = 0.02

    def imtr(b):
        g = solver.green(x[None], b[None], warn_near=False)[0, 0]
        return np.imag(np.trace(g))

    def rhs_tr(b):
        chiX = solver.interior_solution(np.stack([x, b]))
        F = surface_functional(sc, x, b, solver, chiX)
        N = noise_volume_integral_scatterer(sc, x, b, solver, chiX, 1)
        return np.trace(F + N)

    lhs = np.zeros(3)
    rhs = np.zeros(3, complex)
    for i in range(3):
        e = np.zeros(3)
        e[i] = 1.0
        lhs[i] = (imtr(x + h * e) - imtr(x - h * e)) / (2 * h)
        rhs[i] = (rhs_tr(x + h * e) - rhs_tr(x - h * e)) / (2 * h)
    assert np.linalg.norm(lhs - rhs.real) < 1e-4 * np.linalg.norm(lhs)
    assert np.linalg.norm(rhs.imag) < 1e-4 * np.linalg.norm(lhs)


def _two_voxel_scene(d=1.2, pitch=LAM / 12):
    return build_scene({"box_side": 40.0, "voxel_pitch": pitch,
                        "voxels": [{"position": [0, 0, -d / 2], "material": DLMAT},
                                   {"position": [0, 0, +d / 2], "material": DLMAT}]})


FORCE_GRID = np.logspace(np.log10(np.sqrt(2)) - 2, np.log10(np.sqrt(2)) + 1, 801)


@pytest.mark.slow
def test_casimir_action_reaction_and_split():
    sc = _two_voxel_scene()
    f1 = casimir_thermal_force(sc, BodySpec((0,)), T=1.0, omega_grid=FORCE_GRID,
                               tail_tol=0.2)
    f2 = casimir_thermal_force(sc, BodySpec((1,)), T=1.0, omega_grid=FORCE_GRID,
                               tail_tol=0.2)
    scale = np.linalg.norm(f1.total)
    assert np.linalg.norm(f1.total + f2.total) < 0.01 * scale
    assert np.linalg.norm(f1.ordering_anti + f1.ordering_bose - f1.total) < 1e-10 * scale
    assert f1.total[2] > 0  # attraction pulls the lower voxel upward


@pytest.mark.slow
def test_casimir_isolated_voxel_is_noise():
    sc1 = build_scene({"box_side": 40.0, "voxel_pitch": LAM / 12,
                       "voxels": [{"position": [0, 0, 0], "material": DLMAT}]})
    fi = casimir_thermal_force(sc1, BodySpec((0,)), T=1.0, omega_grid=FORCE_GRID,
                               tail_tol=10.0)
    pair = casimir_thermal_force(_two_voxel_scene(), BodySpec((0,)), T=1.0,
                                 omega_grid=FORCE_GRID, tail_tol=0.2)
    assert np.linalg.norm(fi.total) < 1e-3 * np.linalg.norm(pair.total)


@pytest.mark.slow
def test_casimir_mirror_antisymmetry():
    sc = _two_voxel_scene()
    grid = FORCE_GRID[::4]
    f_low = casimir_thermal_force(sc, BodySpec((0,)), T=2.0, omega_grid=grid,
                                  tail_tol=0.3)
    f_high = casimir_thermal_force(sc, BodySpec((1,)), T=2.0, omega_grid=grid,
                                   tail_tol=0.3)
    # reflecting the scene through z -> -z swaps the bodies: force flips sign
    assert f_low.total[2] == pytest.approx(-f_high.total[2], rel=1e-6)


def test_casimir_tail_error_contract():
    sc = _two_voxel_scene()
    sparse = np.logspace(-2, 2, 25) * np.sqrt(2)
    with pytest.warns(UserWarning, match="under-resolves"):
        with pytest.raises(ObservableError, match="unconverged"):
            casimir_thermal_force(sc, BodySpec((0,)), T=1.0, omega_grid=sparse,
                                  tail_tol=1e-4)


def test_casimir_evaluates_materials_only_in_the_solver(monkeypatch):
    calls = []
    flat = DrudeLorentzModel.eval
    monkeypatch.setattr(DrudeLorentzModel, "eval",
                        lambda m, omega: calls.append(omega) or flat(m, omega))
    casimir_thermal_force(_two_voxel_scene(), BodySpec((0,)), T=1.0, omega_grid=FORCE_GRID,
                          tail_tol=100.0)
    # each frequency is evaluated exactly once, on its chunk's array: the two
    # voxels' equal materials share one evaluation, and the body reads chi
    # from the stack
    chunk = greens._STACK_BYTES // stack_bytes(2, 4)
    assert len(calls) == -(-FORCE_GRID.size // chunk)
    assert np.array_equal(np.concatenate(calls), FORCE_GRID)


def _casimir_config_scene():
    config = Path(__file__).resolve().parents[1] / "configs" / "casimir.yaml"
    cfg = yaml.safe_load(config.read_text())
    return build_scene(cfg["scene"]), cfg["casimir"]["grid"]["points"]


def _count_sweep_work(monkeypatch):
    """The labels of the sweep's solver, solve and row calls, in call order."""
    counts = []

    def counted(owner, name, label):
        real = getattr(owner, name)
        monkeypatch.setattr(owner, name, lambda *a, **k: counts.append(label) or real(*a, **k))

    counted(EffectiveSolver, "__init__", "solver")
    counted(greens.sla.lapack, "zsytrf", "zsytrf")
    counted(greens.sla.lapack, "zsytrs", "zsytrs")
    counted(np.linalg, "solve", "batched solve")
    counted(EffectiveSolver, "_coupling_rows", "rows")
    counted(EffectiveSolver, "green", "green")
    return counts


def test_casimir_sweep_work_counters(monkeypatch):
    # configs/casimir.yaml's sweep is stacked: no LDL^T, and per chunk of
    # frequencies one solver, one row build and one batched solve
    scene, points = _casimir_config_scene()
    counts = _count_sweep_work(monkeypatch)
    grid = np.logspace(-2, 1, points) * np.sqrt(2)
    force = casimir_thermal_force(scene, BodySpec((0,)), T=1.0, omega_grid=grid, tail_tol=100.0)
    chunk = greens._STACK_BYTES // stack_bytes(2, 4)
    assert chunk >= 2
    solves = -(-points // chunk)
    assert counts == ["solver", "rows", "batched solve"] * solves
    assert force.metadata["solve"]["route"] == "stacked"
    assert force.metadata["solve"]["batched_solves"] == solves
    assert 0 < force.metadata["solve"]["backward_error"] < 1e-14


def test_casimir_sweep_above_the_stack_bound_solves_per_frequency(monkeypatch):
    # a scene whose two frequencies' worth exceed the bound keeps one solver
    # and one solve per frequency, whose right-hand side comes from one
    # coupling-row build, and no green() call: one frequency's S still
    # stacks, so that solve is a batched LU; at no bound at all, one LDL^T.
    # The worst backward error is that of every frequency's solver, None
    # when the factor route measured none.  At the bound itself the sweep
    # stacks two frequencies a solve
    scene, _ = _casimir_config_scene()
    grid = np.logspace(-1, 1, 8) * np.sqrt(2)
    counts = _count_sweep_work(monkeypatch)
    diagnostics = []
    init = EffectiveSolver.__init__

    def record(self, *args, **kwargs):
        init(self, *args, **kwargs)
        diagnostics.append(self.diagnostics)  # the dict its solves update

    monkeypatch.setattr(EffectiveSolver, "__init__", record)
    for bound, per_frequency in ((2 * stack_bytes(2, 4) - 1, ["solver", "rows", "batched solve"]),
                                 (0, ["solver", "rows", "zsytrf", "zsytrs"])):
        monkeypatch.setattr(greens, "_STACK_BYTES", bound)
        counts.clear()
        diagnostics.clear()
        with pytest.warns(UserWarning, match="under-resolves"):
            force = casimir_thermal_force(scene, BodySpec((0,)), T=1.0, omega_grid=grid,
                                          tail_tol=100.0)
        assert counts == per_frequency * grid.size
        solve = force.metadata["solve"]
        assert {k: solve[k] for k in ("route", "batched_solves")} == {
            "route": "per-frequency", "batched_solves": 0}
        measured = [d["backward_error"] for d in diagnostics]
        assert len(measured) == grid.size
        if bound:
            assert 0 < solve["backward_error"] <= 1e-14
            assert solve["backward_error"] == max(measured)
        else:
            assert measured == [None] * grid.size
            assert solve["backward_error"] is None
    counts.clear()
    monkeypatch.setattr(greens, "_STACK_BYTES", 2 * stack_bytes(2, 4))
    with pytest.warns(UserWarning, match="under-resolves"):
        casimir_thermal_force(scene, BodySpec((0,)), T=1.0, omega_grid=grid, tail_tol=100.0)
    assert counts == ["solver", "rows", "batched solve"] * (grid.size // 2)


@pytest.mark.filterwarnings("ignore:omega grid under-resolves")
def test_per_frequency_route_solves_a_whole_body_once_a_frequency(monkeypatch):
    # the 20 jittered voxels, all in the body, are above the stack bound:
    # each frequency builds one solver and makes one LDL^T (with the bound
    # at 0, where one frequency's S does not stack either) and one solve of
    # 3 columns per body voxel, and never calls green()
    scene, body = stack_scene("jittered")
    assert greens._STACK_BYTES // stack_bytes(scene.n_voxels, 4 * len(body)) < 2
    monkeypatch.setattr(greens, "_STACK_BYTES", 0)
    counts = _count_sweep_work(monkeypatch)
    widths = []
    zsytrs = greens.sla.lapack.zsytrs
    monkeypatch.setattr(greens.sla.lapack, "zsytrs",
                        lambda *a, **k: widths.append(a[2].shape[1]) or zsytrs(*a, **k))
    force = casimir_thermal_force(scene, BodySpec(body), T=1.0, omega_grid=STACK_GRID,
                                  tail_tol=np.inf)
    assert counts == ["solver", "rows", "zsytrf", "zsytrs"] * STACK_GRID.size
    assert widths == [3 * len(body)] * STACK_GRID.size
    assert force.metadata["solve"]["route"] == "per-frequency"


@pytest.mark.filterwarnings("ignore:omega grid under-resolves")
def test_per_frequency_route_splits_a_wide_body_into_row_blocks(monkeypatch):
    # with a block bound of 7 points' rows and gradient rows, the 20-voxel
    # body is solved in blocks of 7, 7 and 6 voxels after one LDL^T a
    # frequency (the factor route, with the stack bound at 0); each
    # right-hand side stays within the block's rows, and the forces are
    # those of the single whole-body solve
    scene, body = stack_scene("jittered")
    monkeypatch.setattr(greens, "_STACK_BYTES", 0)
    ref = casimir_thermal_force(scene, BodySpec(body), T=1.0, omega_grid=STACK_GRID,
                                tail_tol=np.inf)
    n3 = 3 * scene.n_voxels
    bound = 4 * 7 * 3 * n3 * 16
    monkeypatch.setattr(greens, "_BLOCK_BYTES", bound)
    monkeypatch.setattr(greens, "_STACK_BYTES", 0)
    counts = _count_sweep_work(monkeypatch)
    widths = []
    zsytrs = greens.sla.lapack.zsytrs
    monkeypatch.setattr(greens.sla.lapack, "zsytrs",
                        lambda *a, **k: widths.append(a[2].shape[1]) or zsytrs(*a, **k))
    force = casimir_thermal_force(scene, BodySpec(body), T=1.0, omega_grid=STACK_GRID,
                                  tail_tol=np.inf)
    assert len(body) == 20
    per_frequency = ["solver", "rows", "zsytrf", "zsytrs", "rows", "zsytrs", "rows", "zsytrs"]
    assert counts == per_frequency * STACK_GRID.size
    assert widths == [21, 21, 18] * STACK_GRID.size
    assert all(n3 * w * 16 <= bound // 4 for w in widths)
    assert force.metadata["solve"]["route"] == "per-frequency"
    for a, b in zip(force.per_voxel, ref.per_voxel):
        assert np.linalg.norm(a - b) <= 1e-12 * np.linalg.norm(b)


def test_spheres_are_above_the_stack_bound():
    # the N = 179 sphere does not stack even for a one-voxel body
    assert greens._STACK_BYTES < 2 * stack_bytes(179, 4)


@pytest.mark.filterwarnings("ignore:omega grid under-resolves")
@pytest.mark.parametrize("name", STACK_SCENES)
def test_stacked_sweep_matches_the_per_frequency_route(monkeypatch, name):
    scene, body = stack_scene(name)
    pos = scene.positions()[list(body)]
    # stack every scene, the 20-voxel one included, whatever the bound
    monkeypatch.setattr(greens, "_STACK_BYTES", 2**40)
    stack = EffectiveSolver(scene, STACK_GRID)
    got = observables._left_gradients(stack, *stack._coupling_rows(pos, gradients=True))
    for f, omega in enumerate(STACK_GRID):
        solver = EffectiveSolver(scene, omega)
        for j, x in enumerate(pos):
            ref = green_trace_gradient(scene, omega, x, solver=solver).left
            assert np.linalg.norm(got[f, j] - ref) <= 1e-9 * np.linalg.norm(ref)
    stacked = casimir_thermal_force(scene, BodySpec(body), T=1.0, omega_grid=STACK_GRID,
                                    tail_tol=np.inf)
    monkeypatch.setattr(greens, "_STACK_BYTES", 0)
    ref = casimir_thermal_force(scene, BodySpec(body), T=1.0, omega_grid=STACK_GRID,
                                tail_tol=np.inf)
    assert stacked.metadata["solve"]["route"] == "stacked"
    assert ref.metadata["solve"]["route"] == "per-frequency"
    for a, b in zip(stacked.per_voxel, ref.per_voxel):
        assert np.linalg.norm(a - b) <= 1e-10 * np.linalg.norm(b)
    # a whole body's total cancels to rounding (action and reaction): the
    # totals are held to the scale of the voxel forces they sum
    scale = np.linalg.norm(ref.per_voxel)
    assert scale > 0
    for a, b in ((stacked.total, ref.total), (stacked.ordering_anti, ref.ordering_anti),
                 (stacked.ordering_bose, ref.ordering_bose)):
        assert np.linalg.norm(a - b) <= 1e-10 * scale
    for j, i in enumerate(body):
        if scene.chi_at(1.0)[i] == 0:
            # a vacuum voxel's integrand stays exactly 0 on both routes
            assert np.all(stacked.per_voxel[j] == 0) and np.all(ref.per_voxel[j] == 0)
    if len(body) == scene.n_voxels:
        # an isolated body exerts no net force on itself: on each route its
        # voxel forces cancel to rounding (1.2e-16 and 1.3e-16 of their sum
        # on the 20 jittered voxels)
        for force in (stacked, ref):
            total_of_magnitudes = np.linalg.norm(force.per_voxel, axis=1).sum()
            assert np.linalg.norm(force.total) <= 1e-12 * total_of_magnitudes


def test_casimir_body_validation():
    sc = _two_voxel_scene()
    with pytest.raises(ObservableError):
        casimir_thermal_force(sc, BodySpec((5,)), T=1.0, omega_grid=FORCE_GRID)
    # a repeated voxel would add its force twice; a fractional or boolean
    # index is not a voxel.  NumPy integers are indices
    for idx, match in (((0, 0), "distinct"), ((1, 0, 1), "distinct"), ((0.7,), "integers"),
                       ((0.0,), "integers"), ((True,), "integers"), (("0",), "integers")):
        with pytest.raises(ObservableError, match=match):
            BodySpec(idx)
    assert BodySpec((np.int64(1), 0)).voxel_indices == (1, 0)


def test_scene_diameter_matches_brute_force(rng):
    # a random ball, a plate of several blocks, a pair
    ball = rng.uniform(-1, 1, (400, 3))
    ball = ball[np.linalg.norm(ball, axis=1) < 1]
    g = np.arange(30.0)
    plate = np.stack(np.meshgrid(g, g, [0.0]), axis=-1).reshape(-1, 3) * 0.3
    for pts in (ball, plate, plate[:2]):
        brute = np.max(np.linalg.norm(pts[:, None] - pts[None, :], axis=-1))
        assert _diameter(pts) == brute
