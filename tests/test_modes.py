import numpy as np
import pytest

from fluctem import greens, modes
from fluctem.fluctuations import commutator_density
from fluctem.greens import EffectiveSolver, vacuum_green, vacuum_imag_coincidence
from fluctem.material import DrudeLorentzModel
from fluctem.modes import (
    ModeError,
    default_bin_width,
    enumerate_modes,
    mode_field_vacuum,
    mode_sum_spectral_density,
)
from fluctem.scene import Scene, build_scene

from conftest import LAM, one_voxel_scene, run_at_one_blas_thread


def test_lattice_counting_first_shell_only():
    basis = enumerate_modes(2 * np.pi, 1.2)
    # |n| = 1 shell: 6 wave vectors, 2 polarizations
    assert len(basis) == 12


def test_lattice_counting_includes_sqrt2_shell():
    # at omega_max = 1.5 the |n|^2 = 2 shell (omega = sqrt 2) is in band:
    # 6 + 12 wave vectors, 2 polarizations each
    basis = enumerate_modes(2 * np.pi, 1.5)
    assert len(basis) == 36


def test_omega_max_below_first_shell_errors():
    with pytest.raises(ModeError):
        enumerate_modes(2 * np.pi, 0.5)


def test_mode_cap():
    with pytest.raises(ModeError, match="cap"):
        enumerate_modes(200 * np.pi, 3.0, max_modes=100)


def test_mode_density_approaches_continuum():
    # count(omega <= W) -> V W^3 / (3 pi^2 c^3) for large W
    L, W = 30.0, 4.0
    basis = enumerate_modes(L, W)
    expected = L**3 * W**3 / (3 * np.pi**2)
    assert len(basis) == pytest.approx(expected, rel=0.02)


def test_polarizations_orthonormal_transverse():
    basis = enumerate_modes(2 * np.pi, 2.3)
    khat = basis.k / np.linalg.norm(basis.k, axis=1)[:, None]
    assert np.max(np.abs(np.sum(basis.pol * khat, axis=1))) < 1e-12
    assert np.allclose(np.linalg.norm(basis.pol, axis=1), 1.0)
    e1 = basis.pol[0::2]
    e2 = basis.pol[1::2]
    assert np.max(np.abs(np.sum(e1 * e2, axis=1))) < 1e-12


def test_deterministic_ordering():
    b1 = enumerate_modes(2 * np.pi, 2.3)
    b2 = enumerate_modes(2 * np.pi, 2.3)
    assert np.array_equal(b1.n_index, b2.n_index)
    assert np.array_equal(b1.pol, b2.pol)


def test_discrete_orthogonality_on_8cube():
    # exact DFT orthogonality of low modes on an 8^3 sampling lattice
    L = 2 * np.pi
    basis = enumerate_modes(L, 1.5)
    n = 8
    g = (np.arange(n) / n - 0.5) * L
    pts = np.array(np.meshgrid(g, g, g, indexing="ij")).reshape(3, -1).T
    F = mode_field_vacuum(basis, np.arange(len(basis)), pts)  # (M, P, 3)
    V = L**3
    w = V / n**3
    gram = w * np.einsum("mpi,npi->mn", F, np.conj(F))
    target = np.diag(basis.amplitude**2 * V)
    assert np.max(np.abs(gram - target)) < 1e-10 * np.max(np.abs(target))


def test_parseval_bookkeeping():
    basis = enumerate_modes(4 * np.pi, 2.0)
    V = (4 * np.pi) ** 3
    total = np.sum(basis.amplitude**2 * 2 / basis.omega_alpha) * V
    assert total == pytest.approx(len(basis), rel=1e-12)


def test_vacuum_mode_sum_coincidence():
    omega = 1.3  # not 1: catches any stray factor of omega in the density
    basis = enumerate_modes(18 * 2 * np.pi / omega, omega + 0.1)
    sd = mode_sum_spectral_density(None, np.zeros(3), np.zeros(3), omega, 0.1,
                                   basis, window="hann")
    target = (1 / np.pi) * omega**2 * vacuum_imag_coincidence(omega)
    assert np.linalg.norm(sd.value - target) < 0.01 * np.linalg.norm(target)


@pytest.mark.slow
def test_vacuum_mode_sum_half_wavelength_budget():
    # recorded finite-box budgets at three box sizes (hann window, dw=0.1):
    # 3.3e-2, 6.0e-3, 2.5e-3; frozen caps double those
    a = np.zeros(3)
    b = np.array([0.0, 0.0, LAM / 2])
    target = (1 / np.pi) * np.imag(vacuum_green(1.0, a, b))
    caps = {10: 6.6e-2, 14: 1.2e-2, 18: 5e-3}
    errs = []
    for Ll, cap in caps.items():
        basis = enumerate_modes(Ll * LAM, 1.1)
        sd = mode_sum_spectral_density(None, a, b, 1.0, 0.1, basis, window="hann")
        err = np.linalg.norm(sd.value - target) / np.linalg.norm(target)
        errs.append(err)
        assert err < cap
    assert errs[0] > errs[1] > errs[2]


def test_empty_bin_errors_and_guard_warns():
    basis = enumerate_modes(2 * np.pi, 2.0)
    with pytest.raises(ModeError, match="no modes"):
        mode_sum_spectral_density(None, np.zeros(3), np.zeros(3), 1.2, 0.01, basis)
    with pytest.warns(UserWarning, match="guard"):
        mode_sum_spectral_density(None, np.zeros(3), np.zeros(3), 1.0, 0.05, basis)


def scattered_mode_field(scene, basis, mode_index, x, solver=None):
    """Self-consistent field at x of one basis mode, the forward-route reference.

    Solves for the interior polarization chi E of the mode's plane wave and
    radiates it with the coupling rows, one mode at a time.
    """
    sel = np.array([mode_index])
    x = np.atleast_2d(np.asarray(x, dtype=float))
    ev_x = mode_field_vacuum(basis, sel, x)[0]  # (P, 3)
    if scene.n_voxels == 0:
        return ev_x[0] if len(x) == 1 else ev_x
    if solver is None:
        solver = EffectiveSolver(scene, float(basis.omega_alpha[mode_index]))
    pol = solver.interior_field(mode_field_vacuum(basis, sel, scene.positions())[0])
    out = ev_x + np.einsum("pnij,nj->pi", solver._coupling_rows(x), pol)
    return out[0] if len(x) == 1 else out


def test_scattered_field_vacuum_scene_is_incident():
    sc = Scene(box_side=10.0, voxel_pitch=0.1, scatterer_voxels=())
    basis = enumerate_modes(10.0, 1.5)
    x = np.array([0.3, -0.2, 0.6])
    ev = mode_field_vacuum(basis, np.array([4]), x[None])[0, 0]
    assert np.array_equal(scattered_mode_field(sc, basis, 4, x), ev)


def test_scattered_field_weak_voxel_born():
    sc = one_voxel_scene(eps=1 + 1e-3, pitch=0.3, box=12.0)
    basis = enumerate_modes(12.0, 1.3)
    idx = len(basis) // 2
    om = basis.omega_alpha[idx]
    x = np.array([0.0, 0.0, 1.7])
    full = scattered_mode_field(sc, basis, idx, x)
    ev_x = mode_field_vacuum(basis, np.array([idx]), x[None])[0, 0]
    ev_u = mode_field_vacuum(basis, np.array([idx]), np.zeros((1, 3)))[0, 0]
    born = 0.3**3 * om**2 * 1e-3 * (vacuum_green(om, x, np.zeros(3)) @ ev_u)
    scat = full - ev_x
    assert np.linalg.norm(scat - born) < 1e-3 * np.linalg.norm(scat)


def two_material_cube():
    """27 voxels on the 0.3 lattice, alternating two Drude-Lorentz materials."""
    mats = (DrudeLorentzModel(omega_p=1.2, omega_0=0.9, gamma=0.4),
            DrudeLorentzModel(omega_p=0.8, omega_0=1.4, gamma=0.2))
    sites = [(x, y, z) for x in range(3) for y in range(3) for z in range(3)]
    return Scene(box_side=20.0, voxel_pitch=0.3, scatterer_voxels=tuple(
        (tuple(0.3 * np.array(p, float)), mats[i % 2]) for i, p in enumerate(sites)))


def test_mode_sum_matches_forward_route(monkeypatch):
    # reference: each mode's interior field solved forward and radiated by
    # the coupling rows (scattered_mode_field); blocks of 7
    # modes put block boundaries inside the frequency groups
    sc = two_material_cube()
    monkeypatch.setattr(greens, "_ASSEMBLY_BYTES", 7 * 16 * sc.n_voxels)
    a, b = np.array([0.3, 0.2, 1.5]), np.array([-0.9, 0.4, 0.1])
    basis = enumerate_modes(8 * np.pi, 1.2)
    omega, delta = 1.0, 0.3
    got = mode_sum_spectral_density(sc, a, b, omega, delta, basis).value
    sel = np.nonzero(np.abs(basis.omega_alpha - omega) <= delta / 2)[0]
    sel = sel[np.argsort(basis.omega_alpha[sel], kind="stable")]
    ref = np.zeros((3, 3), complex)
    solver = None
    for i in sel:
        om = basis.omega_alpha[i]
        if solver is None or abs(solver.omega - om) > 1e-12 * om:
            solver = EffectiveSolver(sc, om)
        F = scattered_mode_field(sc, basis, i, np.stack([a, b]), solver=solver)
        ref += np.outer(F[0], np.conj(F[1]))
    ref /= delta
    assert len({round(w, 9) for w in basis.omega_alpha[sel]}) > 1
    assert np.linalg.norm(got - ref) <= 1e-12 * np.linalg.norm(ref)


def test_mode_sum_group_is_one_six_column_transposed_solve(monkeypatch):
    # the solve operator chi A^-1 is symmetric: its transposed solve is itself
    calls = []
    solve = EffectiveSolver._solve

    def counted(self, rhs):
        calls.append(rhs.shape)
        return solve(self, rhs)

    monkeypatch.setattr(EffectiveSolver, "_solve", counted)
    sc = two_material_cube()
    basis = enumerate_modes(2 * np.pi, 1.2)  # one shell: 12 modes at omega = 1
    mode_sum_spectral_density(sc, [0.3, 0.2, 1.5], [-0.9, 0.4, 0.1], 1.0, 0.2, basis,
                              min_modes=1)
    assert calls == [(3 * sc.n_voxels, 6)]


def per_group_mode_sum(sc, a, b, omega, delta, basis):
    """Boxcar mode sum with one solve per distinct mode frequency and exp(i k.x) at the voxels."""
    om = basis.omega_alpha
    sel = np.nonzero((om >= omega - delta / 2) & (om <= omega + delta / 2))[0]
    sel = sel[np.argsort(om[sel], kind="stable")]
    om = om[sel]
    groups = np.split(sel, np.nonzero(np.diff(om) > 1e-12 * omega)[0] + 1)
    pts, n = np.stack([a, b]), sc.n_voxels
    ref = np.zeros((3, 3), complex)
    for g in groups:
        solver = EffectiveSolver(sc, basis.omega_alpha[g[0]])
        R = solver._coupling_rows(pts)
        W = solver._solve(R.transpose(0, 2, 1, 3).reshape(6, 3 * n).T)
        ev = mode_field_vacuum(basis, g, sc.positions()).reshape(g.size, 3 * n)
        F = mode_field_vacuum(basis, g, pts) + (ev @ W).reshape(g.size, 2, 3)
        ref += np.einsum("mi,mj->ij", F[:, 0], np.conj(F[:, 1]))
    return ref / delta, len(groups)


def count_solvers(monkeypatch):
    made = []
    init = EffectiveSolver.__init__

    def counted(self, *args, **kwargs):
        made.append(args[1] if len(args) > 1 else kwargs["omega"])
        init(self, *args, **kwargs)

    monkeypatch.setattr(EffectiveSolver, "__init__", counted)
    return made


def test_mode_sum_interpolates_many_groups_from_chebyshev_nodes(monkeypatch):
    # 90 frequency groups in the bin: W(omega) is solved at nested
    # Chebyshev-Lobatto points spanning the groups, not the bin edges, and
    # interpolated to each group
    sc = two_material_cube()
    a, b = np.array([0.3, 0.2, 1.5]), np.array([-0.9, 0.4, 0.1])
    basis = enumerate_modes(40 * np.pi, 1.06)
    ref, groups = per_group_mode_sum(sc, a, b, 1.0, 0.11, basis)
    om = basis.omega_alpha[np.abs(basis.omega_alpha - 1.0) <= 0.055]
    made = count_solvers(monkeypatch)
    sd = mode_sum_spectral_density(sc, a, b, 1.0, 0.11, basis)
    assert groups > 17
    assert len(made) <= 17
    assert sd.metadata["solves"] == len(made)
    assert sd.metadata["nodes"] == len(made)
    assert sd.metadata["tail"] <= modes._TAIL_TOLERANCE
    assert min(made) == pytest.approx(om.min(), rel=1e-15) and om.min() > 0.945
    assert max(made) == pytest.approx(om.max(), rel=1e-15) and om.max() < 1.055
    assert np.linalg.norm(sd.value - ref) <= 1e-12 * np.linalg.norm(ref)


def test_mode_sum_few_groups_make_one_solve_each(monkeypatch):
    # no more groups than the largest node count: no Chebyshev node is
    # solved, so the bin costs one solve per group and no more
    sc = two_material_cube()
    a, b = np.array([0.3, 0.2, 1.5]), np.array([-0.9, 0.4, 0.1])
    basis = enumerate_modes(8 * np.pi, 1.2)
    ref, groups = per_group_mode_sum(sc, a, b, 1.0, 0.3, basis)
    made = count_solvers(monkeypatch)
    sd = mode_sum_spectral_density(sc, a, b, 1.0, 0.3, basis)
    assert 5 < groups <= 17
    assert len(made) == sd.metadata["solves"] == groups
    assert (sd.metadata["nodes"], sd.metadata["tail"]) == (None, None)
    assert np.linalg.norm(sd.value - ref) <= 1e-12 * np.linalg.norm(ref)


def test_mode_sum_default_bin_reaching_below_zero_frequency(monkeypatch):
    # the default bin width at L = 20 is pi, so the bin starts at 1 - pi/2 < 0;
    # every solve stays at a mode frequency or between two of them
    sc = two_material_cube()
    a, b = np.array([0.3, 0.2, 1.5]), np.array([-0.9, 0.4, 0.1])
    delta = default_bin_width(20.0, 1.0)
    basis = enumerate_modes(20.0, 1.0 + delta / 2)
    ref, groups = per_group_mode_sum(sc, a, b, 1.0, delta, basis)
    made = count_solvers(monkeypatch)
    sd = mode_sum_spectral_density(sc, a, b, 1.0, None, basis)
    assert 1.0 - delta / 2 < 0 and groups > 17
    assert sd.metadata["solves"] == len(made)
    assert min(made) >= basis.omega_alpha.min() * (1 - 1e-15)
    assert max(made) <= basis.omega_alpha.max() * (1 + 1e-15)
    assert np.linalg.norm(sd.value - ref) <= 1e-12 * np.linalg.norm(ref)


def test_mode_sum_resonance_in_the_bin_falls_back_to_one_solve_per_group(monkeypatch):
    # a Lorentzian of width 1e-3 at 1.01: 17 nodes do not resolve W(omega),
    # so each frequency group is solved at its own frequency
    res = DrudeLorentzModel(omega_p=0.1, omega_0=1.01, gamma=1e-3)
    sc = Scene(box_side=20.0, voxel_pitch=0.3, scatterer_voxels=tuple(
        ((0.3 * i, 0.0, 0.3 * j), res) for i in range(2) for j in range(2)))
    a, b = np.array([0.3, 0.2, 1.5]), np.array([-0.9, 0.4, 0.1])
    basis = enumerate_modes(40 * np.pi, 1.06)
    ref, groups = per_group_mode_sum(sc, a, b, 1.0, 0.1, basis)
    made = count_solvers(monkeypatch)
    sd = mode_sum_spectral_density(sc, a, b, 1.0, 0.1, basis)
    assert sd.metadata["nodes"] is None
    assert sd.metadata["tail"] > modes._TAIL_TOLERANCE
    assert len(made) == sd.metadata["solves"] == modes._NODES[-1] + groups
    assert np.linalg.norm(sd.value - ref) <= 1e-12 * np.linalg.norm(ref)


def test_mode_sum_goes_up_to_17_nodes_reusing_the_9(monkeypatch):
    # a Lorentzian of width 0.05 at 1.1, beyond the bin: 9 nodes leave a
    # tail decades above the tolerance, so the 8 points between them are
    # added and each of the 17 points is solved once
    res = DrudeLorentzModel(omega_p=0.3, omega_0=1.1, gamma=0.05)
    sc = Scene(box_side=20.0, voxel_pitch=0.3, scatterer_voxels=tuple(
        ((0.3 * i, 0.0, 0.3 * j), res) for i in range(2) for j in range(2)))
    a, b = np.array([0.3, 0.2, 1.5]), np.array([-0.9, 0.4, 0.1])
    basis = enumerate_modes(40 * np.pi, 1.06)
    ref, groups = per_group_mode_sum(sc, a, b, 1.0, 0.1, basis)
    made = count_solvers(monkeypatch)
    sd = mode_sum_spectral_density(sc, a, b, 1.0, 0.1, basis)
    assert groups > 17
    assert len(made) == len(set(made)) == sd.metadata["solves"] == 17
    assert sd.metadata["nodes"] == 17 and sd.metadata["tail"] <= modes._TAIL_TOLERANCE
    assert np.linalg.norm(sd.value - ref) <= 1e-12 * np.linalg.norm(ref)
    monkeypatch.setattr(modes, "_NODES", (5, 9))
    assert mode_sum_spectral_density(sc, a, b, 1.0, 0.1, basis).metadata["tail"] > (
        100 * modes._TAIL_TOLERANCE)


def test_mode_sum_on_the_n179_sphere_makes_9_solves(monkeypatch):
    # the sphere, box and Hann bin of the modesum-sphere benchmark workload:
    # 68 frequency groups, one solver each before the Chebyshev nodes; 5
    # nodes do not resolve W, and the 4 between them make 9 that do
    sc = build_scene({"box_side": 40.0, "voxel_pitch": 0.2, "primitives": [
        {"shape": "sphere", "radius": 0.8, "material": {
            "type": "drude_lorentz", "omega_p": 1.2, "omega_0": 0.9, "gamma": 0.4}}]})
    assert sc.n_voxels == 179
    basis = enumerate_modes(40 * np.pi, 1.05)
    made = count_solvers(monkeypatch)
    sd = mode_sum_spectral_density(sc, [0.23, -0.36, 1.21], [0.84, 0.47, -0.93], 1.0, 0.1,
                                   basis, window="hann")
    assert len(made) == len(set(made)) == 9
    assert (sd.metadata["solves"], sd.metadata["nodes"]) == (9, 9)
    assert sd.metadata["tolerance"] == modes._TAIL_TOLERANCE


PER_WAVE_VECTOR_BITS = """
import numpy as np
from fluctem import greens, modes
from fluctem.constants import DEFAULT
from fluctem.modes import enumerate_modes, mode_field_vacuum, mode_sum_spectral_density
from test_greens import sphere_scene


def per_mode_sum(sc, a, b, omega, dw, basis):
    # the Hann mode sum with a phase row of its own for each mode, each
    # frequency group's (modes, N) table one product
    pts = np.vstack([a, b])
    om = basis.omega_alpha
    sel = np.nonzero((om >= omega - dw / 2) & (om <= omega + dw / 2))[0]
    order = np.argsort(om[sel], kind="stable")
    sel = sel[order]
    wts = np.cos(np.pi * ((om[sel] - omega) / (dw / 2)) / 2) ** 2
    groups = np.split(np.arange(sel.size), np.nonzero(np.diff(om[sel]) > 1e-12 * omega)[0] + 1)
    _, rows = modes._rows_by_group(sc, pts, om[sel][[g[0] for g in groups]], DEFAULT)
    tables = modes._axis_tables(basis, sel, sc.positions())
    amp_pol = basis.amplitude[sel, None] * basis.pol[sel]
    acc = np.zeros((3, 3), complex)
    for W, g in zip(rows, groups):
        T = modes._phases(tables, g) @ W.reshape(sc.n_voxels, 18)
        F = mode_field_vacuum(basis, sel[g], pts)
        F = F + np.einsum("mj,mjc->mc", amp_pol[g], T.reshape(g.size, 3, 6)).reshape(g.size, 2, 3)
        acc += np.einsum("m,mi,mj->ij", wts[g], F[:, 0], np.conj(F[:, 1]))
    return acc / (dw / 2)


sc = sphere_scene(0.8)
a, b = np.array([0.3, 0.2, 1.5]), np.array([-0.9, 0.4, -1.1])
basis = enumerate_modes(8 * np.pi, 1.2)
ref = per_mode_sum(sc, a, b, 1.0, 0.3, basis)
for wave_vectors in (1, 2, 3, 5):
    greens._ASSEMBLY_BYTES = wave_vectors * 16 * sc.n_voxels
    got = mode_sum_spectral_density(sc, a, b, 1.0, 0.3, basis, window="hann").value
    assert np.array_equal(got, ref), wave_vectors
print("ok")
"""


def test_one_phase_row_per_wave_vector_keeps_the_per_mode_bits():
    # the two polarizations of a wave vector share its phase row, in blocks
    # of 1, 2, 3 or 5 wave vectors (a lone one taken as two rows, never a
    # one-row product): bitwise the sum with a phase row per mode.  At one
    # BLAS thread, as the benchmark and CI run
    run_at_one_blas_thread(PER_WAVE_VECTOR_BITS)


def test_per_axis_phase_tables_match_the_exponential(rng):
    # off-lattice points: every coordinate distinct, so nothing is shared
    basis = enumerate_modes(12.0, 2.2)
    sel = np.arange(0, len(basis), 3)
    pts = rng.uniform(-4.0, 4.0, size=(57, 3))
    got = modes._phases(modes._axis_tables(basis, sel, pts), np.arange(sel.size))
    ref = np.exp(1j * (basis.k[sel] @ pts.T))
    assert got.shape == ref.shape
    assert np.max(np.abs(got - ref)) <= 1e-14


def test_commutator_density_vacuum_coincidence():
    sc = Scene(box_side=10.0, voxel_pitch=0.1, scatterer_voxels=())
    d = commutator_density(sc, 1.0, np.zeros(3), np.zeros(3)).value
    target = (1 / np.pi) * 1.0**2 * vacuum_imag_coincidence(1.0)
    assert np.allclose(d, target, rtol=1e-14)


def test_commutator_density_hermitian_swap(rng):
    sc = one_voxel_scene(eps=2 + 0.5j, pitch=0.4)
    a = np.array([0.0, 0.0, 1.2])
    b = np.array([0.9, 0.4, -0.5])
    dab = commutator_density(sc, 1.0, a, b).value
    dba = commutator_density(sc, 1.0, b, a).value
    assert np.allclose(dab, dba.T, rtol=1e-9)  # reciprocity + real symmetry


def test_commutator_density_decays_far_from_scatterer():
    sc = one_voxel_scene(eps=2 + 0.5j, pitch=0.4)
    vac = Scene(box_side=sc.box_side, voxel_pitch=sc.voxel_pitch, scatterer_voxels=())
    diffs = []
    for dist in (2.0, 4.0, 8.0):
        a = np.array([0.0, 0.0, dist])
        b = np.array([0.3, 0.0, dist])
        d1 = commutator_density(sc, 1.0, a, b).value
        d0 = commutator_density(vac, 1.0, a, b).value
        diffs.append(np.linalg.norm(d1 - d0) / np.linalg.norm(d0))
    assert diffs[0] > diffs[1] > diffs[2]
