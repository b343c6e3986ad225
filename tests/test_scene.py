from dataclasses import replace

import numpy as np
import pytest

from fluctem.greens import EffectiveSolver, SolverStack
from fluctem.material import DrudeLorentzModel, MaterialError, TabulatedPermittivity
from fluctem.scene import (
    Scene,
    SceneError,
    _any_pair_within,
    build_scene,
    shell_voxelization,
    sphere_quadrature,
)

from conftest import FixedEps, voxel_owner

DL = {"type": "drude_lorentz", "omega_p": 1.0, "omega_0": 1.0, "gamma": 0.1}


def test_minimal_scene():
    sc = build_scene({
        "box_side": 10.0, "voxel_pitch": 0.1,
        "voxels": [{"position": [0, 0, 0], "material": DL}],
        "shell": {"inner_radius": 1.0, "outer_radius": 2.0, "material": DL},
    })
    assert sc.n_voxels == 1
    assert isinstance(sc.scatterer_voxels[0][1], DrudeLorentzModel)


def test_cube_primitive_27_voxels():
    sc = build_scene({
        "box_side": 10.0, "voxel_pitch": 0.2,
        "primitives": [{"shape": "box", "half_size": [0.3, 0.3, 0.3], "material": DL}],
    })
    assert sc.n_voxels == 27
    rmax = np.max(np.linalg.norm(sc.positions(), axis=1))
    assert rmax == pytest.approx(np.sqrt(3) * 0.2)


def test_sphere_primitive_inside_radius():
    sc = build_scene({
        "box_side": 10.0, "voxel_pitch": 0.25,
        "primitives": [{"shape": "sphere", "radius": 0.8, "material": DL}],
    })
    assert sc.n_voxels > 0
    assert np.all(np.linalg.norm(sc.positions(), axis=1) <= 0.8)


def test_scatterer_escaping_inner_radius_errors():
    with pytest.raises(SceneError, match="strictly inside"):
        build_scene({
            "box_side": 10.0, "voxel_pitch": 0.1,
            "voxels": [{"position": [1.5, 0, 0], "material": DL}],
            "shell": {"inner_radius": 1.0, "outer_radius": 2.0, "material": DL},
        })


def test_overlapping_voxels_error():
    with pytest.raises(SceneError, match="overlap"):
        build_scene({
            "box_side": 10.0, "voxel_pitch": 0.5,
            "voxels": [{"position": [0, 0, 0], "material": DL},
                       {"position": [0.1, 0, 0], "material": DL}],
        })


def test_lattice_neighbours_do_not_overlap():
    # face neighbours sit exactly one pitch apart; only closer centres overlap
    sc = build_scene({
        "box_side": 10.0, "voxel_pitch": 0.1,
        "voxels": [{"position": [0, 0, 0], "material": DL},
                   {"position": [0.1, 0, 0], "material": DL},
                   {"position": [0.1, 0.1, 0], "material": DL}],
    })
    assert sc.n_voxels == 3


DMIN = 0.1 * (1 - 1e-9)  # build_scene's bound at pitch 0.1


def _oracle(pos, dmin):
    """Whether any pair lies at distance <= dmin, by cKDTree.query_pairs."""
    from scipy.spatial import cKDTree

    return len(pos) > 1 and bool(cKDTree(pos).query_pairs(dmin))


def test_overlap_check_matches_kdtree_on_random_clouds(rng):
    hits = 0
    for _ in range(300):
        n = int(rng.integers(2, 80))
        pos = rng.uniform(-1.0, 1.0, (n, 3)) * rng.choice([0.2, 1.0, 10.0])
        if rng.random() < 0.3:  # snap to a grid: exact distances and ties
            pos = np.round(pos * 20) / 20
        dmin = float(rng.choice([0.05, 0.1, 0.3]))
        want = _oracle(pos, dmin)
        assert _any_pair_within(pos, dmin) == want
        hits += want
    assert 30 < hits < 270  # both answers were exercised


def test_overlap_check_on_shuffled_lattice_spheres(rng):
    for radius in (0.25, 0.6):
        sc = build_scene({"box_side": 40.0, "voxel_pitch": 0.1, "primitives": [
            {"shape": "sphere", "radius": radius, "material": DL}]})
        pos = rng.permutation(sc.positions())
        assert not _any_pair_within(pos, DMIN) and not _oracle(pos, DMIN)
        # one centre moved a hundredth of a pitch toward a face neighbour
        i = int(rng.integers(len(pos)))
        j = int(np.argmin(np.where(np.arange(len(pos)) == i, np.inf,
                                   np.linalg.norm(pos - pos[i], axis=1))))
        pos[i] += 0.01 * (pos[j] - pos[i])
        assert _any_pair_within(pos, DMIN) and _oracle(pos, DMIN)


@pytest.mark.parametrize("direction", [(1, 0, 0), (1, 1, 0), (1, 1, 1), (-3, 2, 1)])
def test_overlap_check_inclusive_at_dmin_to_one_ulp(direction):
    u = np.asarray(direction, float) / np.linalg.norm(direction)
    for origin in (np.zeros(3), np.array([0.37, -5.1, 2.2])):
        for dist in (np.nextafter(DMIN, 0), DMIN, np.nextafter(DMIN, 1)):
            pos = np.array([origin, origin + dist * u])
            assert _any_pair_within(pos, DMIN) == _oracle(pos, DMIN)
    # on an axis the distance is exact: dmin itself overlaps, one ulp more does not
    assert _any_pair_within(np.array([[0, 0, 0], [DMIN, 0, 0]]), DMIN)
    assert not _any_pair_within(np.array([[0, 0, 0], [np.nextafter(DMIN, 1), 0, 0]]), DMIN)


def test_overlap_check_finds_every_lone_close_pair(rng):
    # two centres just inside dmin, in a random direction: over the draws
    # the pair straddles every face, edge and corner between cells
    for _ in range(500):
        u = rng.normal(size=3)
        p = rng.uniform(-1.0, 1.0, 3)
        pos = np.array([p, p + rng.uniform(0.5, 0.999) * DMIN * u / np.linalg.norm(u)])
        assert _any_pair_within(pos, DMIN)


def test_overlap_check_coincident_and_crowded_centres(rng):
    assert _any_pair_within(np.array([[0.3, 0.2, 0.1]] * 2), DMIN)
    # in units of dmin; the centre at the origin pins the cells.  In one
    # cell the close pair is the first and the third centre, the second far
    # from both
    cell = np.array([[0, 0, 0], [1.6, 1.6, 1.6], [2.45, 2.45, 2.45], [2.1, 1.6, 1.6]])
    assert _any_pair_within(cell * DMIN, DMIN)
    assert not _any_pair_within(cell[:3] * DMIN, DMIN)
    # the cell above (1.6, 1.6, 1.6) holds two centres, and only its second
    # is close to it
    above = np.array([[0, 0, 0], [1.6, 1.6, 1.6], [2.45, 2.45, 3.45], [1.6, 1.6, 2.55]])
    assert _any_pair_within(above * DMIN, DMIN)
    assert not _any_pair_within(above[:3] * DMIN, DMIN)
    # a hundred centres in one cell, and a cell crowded far from the rest
    crowd = rng.uniform(0.0, DMIN / 2, (100, 3))
    assert _any_pair_within(crowd, DMIN)
    far = np.vstack([np.arange(50)[:, None] * [0.2, 0, 0], crowd + 100.0])
    assert _any_pair_within(far, DMIN) == _oracle(far, DMIN)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_lengths_error(bad):
    two = [{"position": [0, 0, 0], "material": DL}, {"position": [1, 0, 0], "material": DL}]
    off = [two[0], {"position": [bad, 0, 0], "material": DL}]
    for cfg in ({"box_side": 10.0, "voxel_pitch": 0.1, "voxels": off},
                {"box_side": 10.0, "voxel_pitch": bad, "voxels": two},
                {"box_side": bad, "voxel_pitch": 0.1, "voxels": two}):
        with pytest.raises(SceneError, match="finite"):
            build_scene(cfg)


def test_overlap_check_on_empty_and_single_scenes():
    assert not _any_pair_within(np.zeros((0, 3)), DMIN)
    assert not _any_pair_within(np.zeros((1, 3)), DMIN)
    for voxels in ([], [{"position": [0, 0, 0], "material": DL}]):
        sc = build_scene({"box_side": 10.0, "voxel_pitch": 0.1, "voxels": voxels})
        assert sc.n_voxels == len(voxels)


def test_gamma_clamp_applies_to_config_mappings_only():
    tiny = dict(DL, gamma=1e-12)
    with pytest.warns(UserWarning, match="clamped"):
        sc = build_scene({"box_side": 10.0, "voxel_pitch": 0.1,
                          "voxels": [{"position": [0, 0, 0], "material": tiny}]})
    assert sc.scatterer_voxels[0][1].gamma == pytest.approx(1e-6 * np.sqrt(2))
    with pytest.raises(MaterialError):
        DrudeLorentzModel(1.0, 1.0, 0.0)


def test_table_path_relative_to_base_dir(tmp_path):
    ws = np.logspace(-1, 1, 20)
    (tmp_path / "eps.csv").write_text("\n".join(f"{w},2.0,{0.1 * w}" for w in ws))
    sc = build_scene({"box_side": 10.0, "voxel_pitch": 0.1,
                      "voxels": [{"position": [0, 0, 0],
                                  "material": {"type": "table", "path": "eps.csv"}}]},
                     base_dir=tmp_path)
    mat = sc.scatterer_voxels[0][1]
    assert isinstance(mat, TabulatedPermittivity)
    assert mat.eval(ws[3]) == pytest.approx(2.0 + 0.1j * ws[3], rel=1e-12)
    bad = tmp_path / "two_columns.csv"
    bad.write_text("\n".join(f"{w},2.0" for w in ws))
    with pytest.raises(SceneError, match="columns"):
        build_scene({"box_side": 10.0, "voxel_pitch": 0.1,
                     "voxels": [{"position": [0, 0, 0],
                                 "material": {"type": "table", "path": bad.name}}]},
                    base_dir=tmp_path)


def test_bad_shell_radii_error():
    with pytest.raises(SceneError):
        build_scene({
            "box_side": 10.0, "voxel_pitch": 0.1, "voxels": [],
            "shell": {"inner_radius": 2.0, "outer_radius": 2.0, "material": DL},
        })


def test_deterministic_voxel_ordering():
    vox = [{"position": [0.5, 0, 0], "material": DL},
           {"position": [-0.5, 0, 0], "material": DL},
           {"position": [0, 0.5, 0], "material": DL}]
    sc1 = build_scene({"box_side": 10.0, "voxel_pitch": 0.4, "voxels": vox})
    sc2 = build_scene({"box_side": 10.0, "voxel_pitch": 0.4, "voxels": vox[::-1]})
    assert sc1.scatterer_voxels == sc2.scatterer_voxels  # sorted lexicographically
    assert sc1.digest() == sc2.digest()


def test_sphere_quadrature_area():
    for order in (6, 12, 24):
        q = sphere_quadrature(1.7, order)
        area = 4 * np.pi * 1.7**2
        assert abs(q.weights.sum() - area) < 1e-10 * area
        assert q.exactness_degree == 2 * order - 1


def test_sphere_quadrature_order_guard():
    with pytest.raises(SceneError):
        sphere_quadrature(1.0, 5)


def test_sphere_quadrature_dipole_pattern():
    # oracle: int sin^2(theta) dS over the unit sphere = 8 pi / 3 by hand
    q = sphere_quadrature(1.0, 12)
    sin2 = 1.0 - q.normals[:, 2] ** 2
    assert q.weights @ sin2 == pytest.approx(8 * np.pi / 3, rel=1e-12)


def _shell_scene(r2=1.0, r1=2.0, eta=0.3):
    from fluctem.scene import Scene, Shell

    return Scene(box_side=10.0, voxel_pitch=0.1, scatterer_voxels=(),
                 shell=Shell(r2, r1, FixedEps(1 + 1j * eta)))


def test_digests_with_and_without_a_shell_are_pinned():
    # the digest keeps its "shell_enabled" key, true exactly when the scene
    # has a shell: configs/reference.yaml's scene, then with an active shell,
    # read these digests when Scene carried the flag
    cfg = {"box_side": 40.0, "voxel_pitch": 0.3141592653589793, "voxels": [
        {"position": [0.0, 0.0, 0.0], "material": {
            "type": "drude_lorentz", "omega_p": 1.2, "omega_0": 0.9, "gamma": 0.4}}]}
    shell = {"inner_radius": 2.0, "outer_radius": 12.0, "material": {
        "type": "drude_lorentz", "omega_p": 0.3, "omega_0": 0.0, "gamma": 0.2}}
    assert build_scene(cfg).digest() == "464e342bcd5604dd"
    assert build_scene(dict(cfg, shell=shell)).digest() == "1931c7b246308e9c"


def test_chi_at_evaluates_each_material_value_once():
    # equal frozen materials share one evaluation, and an unhashable custom
    # material (a plain dataclass) is keyed by identity
    from dataclasses import dataclass

    @dataclass
    class Unhashable:
        value: complex

        def eval(self, omega):
            return self.value

    calls = []
    flat = DrudeLorentzModel.eval

    class Counted(DrudeLorentzModel):
        def eval(self, omega):
            calls.append(self)
            return flat(self, omega)

    mats = (Counted(1.0, 1.0, 0.1), Counted(1.0, 1.0, 0.1), Unhashable(3.0), Unhashable(3.0))
    sc = Scene(box_side=20.0, voxel_pitch=0.2, scatterer_voxels=tuple(
        ((0.0, 0.0, 0.4 * i), m) for i, m in enumerate(mats)))
    chi = sc.chi_at(1.0)
    assert len(calls) == 1
    assert chi[0] == chi[1] and chi[2] == chi[3] == 2.0


def test_shell_volume_weights():
    sc = _shell_scene()
    nodes = shell_voxelization(sc, 0.05)
    vol = 4 * np.pi / 3 * (2.0**3 - 1.0**3)
    assert nodes.weights.sum() == pytest.approx(vol, rel=1e-12)
    assert np.all(nodes.weights > 0)


def test_shell_centroid_unbiased():
    sc = _shell_scene()
    nodes = shell_voxelization(sc, 0.05)
    centroid = (nodes.weights[:, None] * nodes.positions).sum(axis=0) / nodes.weights.sum()
    assert np.linalg.norm(centroid) < 0.05


def test_shell_disabled_or_degenerate_empty():
    # a config's disabled shell is validated, then dropped: the scene has none
    disabled = build_scene({"box_side": 10.0, "voxel_pitch": 0.1, "shell": {
        "inner_radius": 1.0, "outer_radius": 2.0, "material": DL, "enabled": False}})
    assert disabled.shell is None
    assert disabled.digest() == replace(_shell_scene(), shell=None).digest()
    assert shell_voxelization(disabled, 0.05).weights.size == 0
    assert shell_voxelization(_shell_scene(r2=2.0, r1=2.0), 0.05).weights.size == 0


def test_shell_resolution_guard_names_frequency():
    sc = _shell_scene(eta=0.5)  # attenuation length ~ 2 c / (omega eta)
    with pytest.raises(SceneError, match="omega=2"):
        shell_voxelization(sc, shell_pitch=5.0, omega=2.0)


def test_attenuation_length():
    sc = _shell_scene(eta=0.2)
    ell = sc.shell.attenuation_length(1.0)
    # Im sqrt(1 + 0.2i) ~ 0.0995 so the e-folding length is ~ 10
    assert ell == pytest.approx(1.0 / np.imag(np.sqrt(1 + 0.2j)), rel=1e-12)


def test_thin_shell_warning():
    import warnings as _w

    from fluctem.scene import warn_if_thin_shell

    sc = _shell_scene(eta=0.01)  # attenuation length ~ 200, shell is 1 thick
    with pytest.warns(UserWarning, match="attenuation lengths"):
        warn_if_thin_shell(sc, 1.0)
    thick = _shell_scene(r2=1.0, r1=1000.0, eta=0.01)
    with _w.catch_warnings():
        _w.simplefilter("error")
        warn_if_thin_shell(thick, 1.0)  # compliant: no warning


def owner_by_scan(sc, pts):
    """The Chebyshev scan over every voxel: faces inside to 1e-12, first index wins."""
    cheb = np.max(np.abs(pts[:, None, :] - sc.positions()[None, :, :]), axis=-1)
    inside = cheb <= sc.voxel_pitch / 2.0 + 1e-12
    return np.where(inside.any(axis=1), inside.argmax(axis=1), -1)


def cube_probe_points(sc, rng):
    """Centres, face centres, edge midpoints and corners of every voxel, plus points around."""
    offsets = np.array(np.meshgrid(*[(-0.5, 0.0, 0.5)] * 3, indexing="ij")).reshape(3, -1).T
    pts = (sc.positions()[:, None, :] + sc.voxel_pitch * offsets[None]).reshape(-1, 3)
    lo, hi = pts.min(axis=0) - 1.0, pts.max(axis=0) + 1.0
    return np.vstack([pts, rng.uniform(lo, hi, (2000, 3)), [[1e30, 0.0, 0.0]]])


def owner_scenes(rng):
    """A lattice scene, the same cells in permuted order, and an off-lattice pair."""
    pitch = 0.23
    origin = np.array([0.31, -0.7, 0.05])
    cells = rng.permutation(np.argwhere(rng.random((6, 5, 7)) < 0.4))
    lattice = build_scene({"box_side": 20.0, "voxel_pitch": pitch, "voxels": [
        {"position": list(origin + pitch * m), "material": "vacuum"} for m in cells]})
    shuffled = Scene(box_side=20.0, voxel_pitch=pitch, scatterer_voxels=tuple(
        (tuple(origin + pitch * m), FixedEps(2.0)) for m in cells))
    off = build_scene({"box_side": 20.0, "voxel_pitch": np.pi / 6, "voxels": [
        {"position": [0.0, 0.0, z], "material": "vacuum"} for z in (-0.6, 0.6)]})
    assert lattice.lattice is not None and shuffled.lattice is not None and off.lattice is None
    return lattice, shuffled, off


def test_voxel_owner_matches_the_scan_on_and_off_the_lattice(rng):
    pitch = 0.23
    origin = np.array([0.31, -0.7, 0.05])
    cells = rng.permutation(np.argwhere(rng.random((6, 5, 7)) < 0.4))
    lattice = build_scene({"box_side": 20.0, "voxel_pitch": pitch, "voxels": [
        {"position": list(origin + pitch * m), "material": "vacuum"} for m in cells]})
    # the same cells in the permuted order: ties go to the lower index, not key
    shuffled = Scene(box_side=20.0, voxel_pitch=pitch, scatterer_voxels=tuple(
        (tuple(origin + pitch * m), FixedEps(2.0)) for m in cells))
    assert lattice.lattice is not None and shuffled.lattice is not None
    # the casimir.yaml pair: centres 1.2 apart at pitch pi/6
    off = build_scene({"box_side": 20.0, "voxel_pitch": np.pi / 6, "voxels": [
        {"position": [0.0, 0.0, z], "material": "vacuum"} for z in (-0.6, 0.6)]})
    assert off.lattice is None
    for sc in (lattice, shuffled, off):
        pts = cube_probe_points(sc, rng)
        owner = voxel_owner(sc, pts)
        assert np.array_equal(owner, owner_by_scan(sc, pts))
        assert np.any(owner >= 0) and np.any(owner < 0)


def test_voxel_owner_on_few_pairs_matches_the_scan(rng):
    # calls of at most 100 point-voxel pairs test every pair, larger ones
    # only the pairs near a centre: both follow the scan, faces and corners too
    for sc in owner_scenes(rng):
        pts = cube_probe_points(sc, rng)[::7]
        per_call = max(1, 100 // sc.n_voxels)
        assert per_call * sc.n_voxels <= 100 < len(pts) * sc.n_voxels
        owner = np.concatenate([voxel_owner(sc, pts[i:i + per_call])
                                for i in range(0, len(pts), per_call)])
        assert np.array_equal(owner, owner_by_scan(sc, pts))
        assert np.array_equal(owner, voxel_owner(sc, pts))
        assert np.any(owner >= 0) and np.any(owner < 0)


def test_coupling_rows_hold_the_self_term_in_the_owner_column_only(rng, monkeypatch):
    # the rows read the owner off their own separations: cself I exactly in
    # the scan's voxel, and nowhere else, at faces, edges and corners too.
    # They have one layout, C-ordered (P, 3, 3N): _row_blocks yields the
    # arrays _coupling_rows built, not copies, and SolverStack's rows are
    # those of each frequency.  The polarization a solve makes of them has
    # one layout too, C-ordered (3N, 3S), on either route
    built = []
    coupling_rows = EffectiveSolver._coupling_rows

    def record(self, *args):
        built.append(coupling_rows(self, *args))
        return built[-1]

    for sc in owner_scenes(rng):
        pts = cube_probe_points(sc, rng)
        owner = owner_by_scan(sc, pts)
        n = sc.n_voxels
        solver = EffectiveSolver(sc, 1.0)
        R = solver._coupling_rows(pts)
        assert R.shape == (len(pts), 3, 3 * n) and R.flags.c_contiguous
        blocks = R.reshape(len(pts), 3, n, 3).swapaxes(1, 2)  # (P, N, 3, 3)
        held = np.all(blocks == solver.cself * np.eye(3), axis=(-2, -1))
        want = np.zeros_like(held)
        inside = np.flatnonzero(owner >= 0)
        want[inside, owner[inside]] = True
        assert np.array_equal(held, want)
        assert inside.size and inside.size < len(pts)
        monkeypatch.setattr(EffectiveSolver, "_coupling_rows", record)
        built.clear()
        for sl, rows in solver._row_blocks(pts):
            assert np.shares_memory(rows, built[-1]) and rows.shape == R[sl].shape
        monkeypatch.undo()
        some = pts[::50]
        chiX = solver.interior_solution(some)
        assert chiX.shape == (3 * n, 3 * len(some)) and chiX.flags.c_contiguous
        stacked = SolverStack(sc, [0.8, 1.0])._coupling_rows(some)
        assert stacked.shape == (2, len(some), 3, 3 * n) and stacked.flags.c_contiguous
        assert np.abs(stacked[1] - R[::50]).max() <= 1e-15 * np.abs(R).max()


def voxelize_by_loop(prim, pitch):
    """The cell-by-cell voxelization: ix, iy, iz loops over the bounding box."""
    center = np.asarray(prim["center"], dtype=float)
    out = []
    if prim["shape"] == "sphere":
        nmax = [int(np.ceil(prim["radius"] / pitch)) + 1] * 3
    else:
        half = np.asarray(prim["half_size"], dtype=float)
        nmax = np.ceil(half / pitch).astype(int) + 1
    for ix in range(-nmax[0], nmax[0] + 1):
        for iy in range(-nmax[1], nmax[1] + 1):
            for iz in range(-nmax[2], nmax[2] + 1):
                p = center + pitch * np.array([ix, iy, iz], dtype=float)
                if prim["shape"] == "sphere":
                    keep = np.linalg.norm(p - center) <= prim["radius"] - pitch / 2 + 1e-12
                else:
                    keep = np.all(np.abs(p - center) <= half - pitch / 2 + 1e-12)
                if keep:
                    out.append(tuple(p))
    return out


def test_voxelized_primitives_equal_the_cell_loop_bitwise():
    from fluctem.scene import _voxelize_primitive

    pitch = 0.17
    for prim in ({"shape": "sphere", "radius": 0.93, "center": [0.31, -0.22, 0.45]},
                 {"shape": "box", "half_size": [0.5, 0.27, 0.61], "center": [-0.13, 0.4, 0.07]}):
        prim["material"] = "vacuum"
        got = [p for p, _ in _voxelize_primitive(prim, pitch, ".")]
        want = voxelize_by_loop(prim, pitch)
        assert len(got) > 20
        assert np.array(got).tobytes() == np.array(want).tobytes()
