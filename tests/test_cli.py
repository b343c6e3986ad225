import json
from pathlib import Path

import numpy as np
import pytest
import yaml

from fluctem import greens
from fluctem.cli import SUBCOMMANDS, UsageError, main, run_subcommand
from fluctem.greens import stack_bytes

CONFIGS = Path(__file__).resolve().parents[1] / "configs"

BASE_SCENE = {
    "box_side": 40.0,
    "voxel_pitch": 2 * np.pi / 12,
    "voxels": [{"position": [0, 0, 0],
                "material": {"type": "drude_lorentz", "omega_p": 1.2,
                              "omega_0": 0.9, "gamma": 0.4}}],
}


def write_cfg(tmp_path, extra, name="run.yaml"):
    cfg = {"constants": {"hbar": 1.0, "c": 1.0, "k_B": 1.0}, "threads": 1,
           "scene": BASE_SCENE}
    cfg.update(extra)
    p = tmp_path / name
    p.write_text(yaml.safe_dump(cfg))
    return p


def test_dispersion_artifacts(tmp_path):
    cfg = write_cfg(tmp_path, {"dispersion": {
        "material": {"type": "drude_lorentz", "omega_p": 1.0, "omega_0": 1.0,
                      "gamma": 0.01},
        "omega_alpha": {"min": 0.1, "max": 4.0, "points": 40},
    }})
    out = tmp_path / "out"
    assert run_subcommand("dispersion", cfg, out) == 0
    rows = (out / "dispersion.csv").read_text().splitlines()
    assert rows[0].startswith("omega_alpha,branch")
    longs = [r.split(",") for r in rows[1:] if ",longitudinal," in r]
    assert len(longs) == 40
    # undispersed longitudinal line at omega_L = sqrt(2)
    res = {float(r[2]) for r in longs}
    assert all(abs(v - np.sqrt(2)) < 1e-12 for v in res)
    ups = [r.split(",") for r in rows[1:] if ",upper," in r]
    los = [r.split(",") for r in rows[1:] if ",lower," in r]
    assert len(ups) == len(los) == 40
    assert (out / "manifest.json").exists()


def test_ldos_and_rate(tmp_path):
    cfg = write_cfg(tmp_path, {
        "ldos": {"omega0": 1.0, "position": [0, 0, 1.2], "orientation": [1, 0, 0]},
        "rate": {"omega0": 1.0, "position": [0, 0, 1.2], "orientation": [1, 0, 0],
                 "dipole_moment": 1.0},
    })
    out = tmp_path / "out"
    assert run_subcommand("ldos", cfg, out) == 0
    data = json.loads((out / "ldos.json").read_text())
    assert float(data["enhancement"]) > 0
    assert run_subcommand("rate", cfg, out) == 0
    rate = json.loads((out / "rate.json").read_text())
    assert float(rate["purcell"]) == pytest.approx(float(data["enhancement"]), rel=1e-9)


def test_correlator_rerun_bit_identical(tmp_path):
    cfg = write_cfg(tmp_path, {"correlator": {
        "a": [0, 0, 1.2], "b": [0.6, 0.2, -0.4], "T": 0.8,
        "ordering": "symmetrized",
        "omega": {"min": 0.8, "max": 1.2, "points": 5}, "tau": 0.3,
    }})
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    assert run_subcommand("correlator", cfg, out1) == 0
    assert run_subcommand("correlator", cfg, out2) == 0
    assert (out1 / "correlator.csv").read_bytes() == (out2 / "correlator.csv").read_bytes()
    m1 = json.loads((out1 / "manifest.json").read_text())
    m2 = json.loads((out2 / "manifest.json").read_text())
    assert m1["artifacts"] == m2["artifacts"]
    assert m1["config_sha256"] == m2["config_sha256"]


def test_correlator_threads_write_the_same_bytes(tmp_path):
    # each frequency builds its own solver, so worker threads share none
    cfg = write_cfg(tmp_path, {"correlator": {
        "a": [0, 0, 1.2], "b": [0.6, 0.2, -0.4], "T": 0.8,
        "omega": {"min": 0.8, "max": 1.2, "points": 5},
    }})
    out1, out2 = tmp_path / "t1", tmp_path / "t2"
    assert run_subcommand("correlator", cfg, out1, threads=1) == 0
    assert run_subcommand("correlator", cfg, out2, threads=2) == 0
    assert (out1 / "correlator.csv").read_bytes() == (out2 / "correlator.csv").read_bytes()
    assert json.loads((out2 / "manifest.json").read_text())["run"]["threads"] == 2


def test_commutator_with_mode_sum(tmp_path):
    cfg = write_cfg(tmp_path, {"commutator": {
        "a": [0, 0, 1.2], "b": [0.6, 0.2, -0.4], "omega": 1.0,
        "mode_sum": {"box_side": 10 * 2 * np.pi, "delta_omega": 0.1,
                      "window": "hann"},
    }})
    out = tmp_path / "out"
    assert run_subcommand("commutator", cfg, out) == 0
    assert (out / "commutator.csv").exists()
    assert (out / "commutator_modes.csv").exists()


def test_mode_sum_solves_recorded_in_manifest(tmp_path):
    # the one-voxel scene's bin holds few groups: each is solved at its own
    # frequency, so there are no Chebyshev nodes
    cfg = write_cfg(tmp_path, {"commutator": {
        "a": [0, 0, 1.2], "b": [0.6, 0.2, -0.4], "omega": 1.0,
        "mode_sum": {"box_side": 10 * 2 * np.pi, "delta_omega": 0.1},
    }})
    out = tmp_path / "out"
    assert run_subcommand("commutator", cfg, out) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    record = manifest["run"]["mode_sum"]
    assert set(record) == {"solves", "nodes", "tail", "tolerance"}
    assert record["solves"] >= 1 and record["nodes"] is None
    assert "mode_sum" not in json.dumps(manifest["artifacts"])


def test_mode_sum_default_bin_in_a_small_box(tmp_path):
    # L = 20 and no delta_omega: the default bin is pi wide and starts below
    # zero frequency; its groups are each solved at their own frequency
    cfg = write_cfg(tmp_path, {"commutator": {
        "a": [0, 0, 1.2], "b": [0.6, 0.2, -0.4], "omega": 1.0,
        "mode_sum": {"box_side": 20.0},
    }})
    out = tmp_path / "out"
    assert run_subcommand("commutator", cfg, out) == 0
    record = json.loads((out / "manifest.json").read_text())["run"]["mode_sum"]
    assert record["solves"] > 5 and record["nodes"] is None


def test_mode_sum_rerun_byte_identical_across_chebyshev_nodes(tmp_path):
    # a lattice cube whose bin holds 68 frequency groups, so W is
    # interpolated from Chebyshev nodes; one thread, the same bytes twice
    cube = {"box_side": 40.0, "voxel_pitch": 0.2, "primitives": [
        {"shape": "box", "half_size": [0.3, 0.3, 0.3],
         "material": BASE_SCENE["voxels"][0]["material"]}]}
    cfg = write_cfg(tmp_path, {"scene": cube, "commutator": {
        "a": [0, 0, 1.2], "b": [0.6, 0.2, -0.4], "omega": 1.0,
        "mode_sum": {"box_side": 40 * np.pi, "delta_omega": 0.1, "window": "hann"},
    }})
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    assert run_subcommand("commutator", cfg, out1) == 0
    assert run_subcommand("commutator", cfg, out2) == 0
    assert ((out1 / "commutator_modes.csv").read_bytes()
            == (out2 / "commutator_modes.csv").read_bytes())
    m1 = json.loads((out1 / "manifest.json").read_text())
    m2 = json.loads((out2 / "manifest.json").read_text())
    assert m1["artifacts"] == m2["artifacts"]
    assert m1["run"]["threads"] == 1
    assert m1["run"]["mode_sum"]["nodes"] is not None
    assert m1["run"]["mode_sum"] == m2["run"]["mode_sum"]


def test_verify_identity_pass_and_fail(tmp_path):
    vac = {"box_side": 10.0, "voxel_pitch": 0.2, "voxels": []}
    cfg = write_cfg(tmp_path, {"scene": vac,
                               "verify_identity": {"omega": 1.0, "tolerance": 1e-6}})
    out = tmp_path / "out"
    assert run_subcommand("verify-identity", cfg, out) == 0
    report = json.loads((out / "identity.json").read_text())
    assert report["passed"]
    # the vacuum identity holds to rounding (9e-16); a voxel 0.3 from a leaves 0.27
    one = {"box_side": 10.0, "voxel_pitch": 0.2, "voxels": [
        {"position": [0.0, 0.0, 0.0], "material": {"type": "drude_lorentz", "omega_p": 1.2,
                                                   "omega_0": 0.9, "gamma": 0.4}}]}
    cfg2 = write_cfg(tmp_path, {"scene": one,
                                "verify_identity": {"omega": 1.0,
                                                     "tolerance": 1e-6}},
                     name="strict.yaml")
    assert run_subcommand("verify-identity", cfg2, tmp_path / "out2") == 2


def test_verify_identity_at_coincidence(tmp_path):
    # a = b used to stop in the vacuum dyadic; it takes the coincidence limit
    vac = {"box_side": 10.0, "voxel_pitch": 0.2, "voxels": []}
    cfg = write_cfg(tmp_path, {"scene": vac, "verify_identity": {
        "omega": 1.0, "a": [0.0, 0.0, 0.3], "b": [0.0, 0.0, 0.3], "tolerance": 1e-12}})
    assert run_subcommand("verify-identity", cfg, tmp_path / "out") == 0
    report = json.loads((tmp_path / "out" / "identity.json").read_text())
    assert report["passed"]


def test_verify_identity_reports_route_and_margin(tmp_path):
    sphere = {"box_side": 40.0, "voxel_pitch": 0.2, "primitives": [
        {"shape": "sphere", "radius": 0.8, "material": BASE_SCENE["voxels"][0]["material"]}]}
    cfg = write_cfg(tmp_path, {"scene": sphere, "verify_identity": {
        "omega": 1.0, "a": [0.23, -0.36, 1.21], "b": [0.84, 0.47, -0.93],
        "tolerance": 0.1}})
    assert run_subcommand("verify-identity", cfg, tmp_path / "out") == 0
    report = json.loads((tmp_path / "out" / "identity.json").read_text())
    assert report["volume_route"] == "lattice-fft"
    assert report["margin"] == float(report["residual"]) / 0.1
    assert 0 < report["margin"] < 1
    # the centre rule at nsub = 1 is named as such
    cfg = write_cfg(tmp_path, {"scene": sphere, "verify_identity": {
        "omega": 1.0, "a": [0.23, -0.36, 1.21], "b": [0.84, 0.47, -0.93],
        "tolerance": 0.1, "nsub": 1}}, name="centre.yaml")
    assert run_subcommand("verify-identity", cfg, tmp_path / "centre") == 0
    report = json.loads((tmp_path / "centre" / "identity.json").read_text())
    assert report["volume_route"] == "collocation"


def test_solver_diagnostics_recorded_in_manifest(tmp_path, monkeypatch):
    # the run block reports how each solve went; the artifacts do not change
    cfg = write_cfg(tmp_path, {
        "ldos": {"omega0": 1.0, "position": [0, 0, 1.2], "orientation": [1, 0, 0]},
        "rate": {"omega0": 1.0, "position": [0, 0, 1.2], "orientation": [1, 0, 0],
                 "dipole_moment": 1.0},
        "verify_identity": {"omega": 1.0, "a": [0, 0, 1.2], "b": [0.6, 0.2, -0.9],
                            "tolerance": 0.1},
    })
    for name in ("ldos", "rate", "verify-identity"):
        out = tmp_path / name
        assert run_subcommand(name, cfg, out) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        solver = manifest["run"]["solver"]
        # one voxel: S stacks, and every solve measures its backward error
        assert solver["route"] == "stacked-lu"
        assert solver["fallback"] is None
        assert solver["iterations"] == 0
        assert 0 < solver["backward_error"] <= 1e-14
        assert set(solver) == {"route", "fallback", "iterations", "backward_error",
                               "matvecs", "budget"}
        assert "solver" not in json.dumps(manifest["artifacts"])
    # a lattice sphere with a budget that starts it on COCG: the route and its work
    from fluctem import greens

    monkeypatch.setattr(greens, "_COCG_BUDGET", 1.0)
    sphere = {"box_side": 40.0, "voxel_pitch": 0.2, "primitives": [
        {"shape": "sphere", "radius": 0.8, "material": BASE_SCENE["voxels"][0]["material"]}]}
    cfg = write_cfg(tmp_path, {"scene": sphere, "ldos": {
        "omega0": 0.9, "position": [0.1, 0.2, 1.6], "orientation": [0, 0, 1]}}, "sphere.yaml")
    assert run_subcommand("ldos", cfg, tmp_path / "cocg") == 0
    solver = json.loads((tmp_path / "cocg" / "manifest.json").read_text())["run"]["solver"]
    assert solver["route"] == "lattice-cocg"
    assert solver["fallback"] is None
    assert 0 < solver["iterations"] <= solver["matvecs"] <= solver["budget"]
    assert 0 < solver["backward_error"] <= np.sqrt(3 * 179) * 2.0**-53


def test_casimir_subcommand(tmp_path):
    scene = dict(BASE_SCENE)
    scene["voxels"] = [
        {"position": [0, 0, -0.6], "material": {"type": "drude_lorentz",
                                                 "omega_p": 1.0, "omega_0": 1.0,
                                                 "gamma": 0.1}},
        {"position": [0, 0, 0.6], "material": {"type": "drude_lorentz",
                                                "omega_p": 1.0, "omega_0": 1.0,
                                                "gamma": 0.1}},
    ]
    # drift of the averaged truncation sits near 5% on this pair; raise the
    # per-run tolerance and let the JSON carry the honest number
    cfg = write_cfg(tmp_path, {"scene": scene, "casimir": {
        "T": 1.0, "body": [0], "per_voxel": True, "tail_tolerance": 0.2,
        "grid": {"min": 0.0141, "max": 14.1, "points": 801},
        }})
    out = tmp_path / "out"
    assert run_subcommand("casimir", cfg, out) == 0
    force = json.loads((out / "force.json").read_text())
    assert abs(float(force["total"][2])) > 0
    assert (out / "force_per_voxel.csv").exists()


def test_casimir_manifest_records_the_solve(tmp_path, monkeypatch):
    # the sweep's route, its batched solves and their worst backward error go
    # to the manifest's run block, outside every digest; force.json leaves
    # them out, so its bytes do not depend on them
    cfg = CONFIGS / "casimir.yaml"
    assert run_subcommand("casimir", cfg, tmp_path / "stacked") == 0
    solve = json.loads((tmp_path / "stacked" / "manifest.json").read_text())["run"]["solve"]
    assert solve["route"] == "stacked"
    chunk = greens._STACK_BYTES // stack_bytes(2, 4)
    assert solve["batched_solves"] == -(-801 // chunk)
    assert 0 < solve["backward_error"] < 1e-14
    force = json.loads((tmp_path / "stacked" / "force.json").read_text())
    assert sorted(force["metadata"]) == ["T", "quasi_static_caveat", "scene"]
    monkeypatch.setattr(greens, "_STACK_BYTES", 0)
    assert run_subcommand("casimir", cfg, tmp_path / "per-frequency") == 0
    manifest = json.loads((tmp_path / "per-frequency" / "manifest.json").read_text())
    assert manifest["run"]["solve"] == {"route": "per-frequency", "batched_solves": 0,
                                        "backward_error": None}


def test_casimir_body_of_repeated_or_fractional_indices_is_an_error_line(tmp_path, capsys):
    # body [0, 0] would add voxel 0's force twice, body [0.7] is no voxel
    # and body 0 is no list: each exits 1 with an error line, the indices
    # passed through unconverted
    scene = dict(BASE_SCENE)
    scene["voxels"] = [{"position": [0, 0, z], "material": {
        "type": "drude_lorentz", "omega_p": 1.0, "omega_0": 1.0, "gamma": 0.1}}
        for z in (-0.6, 0.6)]
    for body, match in (([0, 0], "voxel indices must be distinct"),
                        ([0.7], "voxel indices must be integers"), (0, "a list")):
        cfg = write_cfg(tmp_path, {"scene": scene, "casimir": {
            "T": 1.0, "body": body, "grid": {"min": 0.1, "max": 3.0, "points": 8}}})
        assert main(["casimir", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: body") and match in err, err


def test_casimir_warning_recorded_in_manifest(tmp_path):
    # eight log-spaced points cannot resolve the 2 k d oscillation at d = 1.2
    scene = dict(BASE_SCENE)
    scene["voxels"] = [{"position": [0, 0, z], "material": {
        "type": "drude_lorentz", "omega_p": 1.0, "omega_0": 1.0, "gamma": 0.1}}
        for z in (-0.6, 0.6)]
    cfg = write_cfg(tmp_path, {"scene": scene, "casimir": {
        "T": 1.0, "body": [0], "tail_tolerance": 100.0,
        "grid": {"min": 0.1, "max": 3.0, "points": 8},
        }})
    out = tmp_path / "out"
    assert main(["casimir", "--config", str(cfg), "--out", str(out)]) == 0
    notes = json.loads((out / "manifest.json").read_text())["run"]["notes"]
    assert any("under-resolves the 2 k d interference oscillation" in n for n in notes)


def test_oracle_suite(tmp_path):
    cfg = write_cfg(tmp_path, {"oracle_suite": {"omega": 1.0}})
    out = tmp_path / "out"
    assert run_subcommand("oracle-suite", cfg, out) == 0
    reports = sorted((out / "baselines").glob("*.json"))
    assert len(reports) >= 3
    for r in reports:
        assert json.loads(r.read_text())["passed"]


def test_gamma_clamp_recorded(tmp_path):
    scene = dict(BASE_SCENE)
    scene["voxels"] = [{"position": [0, 0, 0],
                        "material": {"type": "drude_lorentz", "omega_p": 1.0,
                                      "omega_0": 1.0, "gamma": 1e-12}}]
    cfg = write_cfg(tmp_path, {"scene": scene,
                               "ldos": {"omega0": 1.0, "position": [0, 0, 1.2]}})
    out = tmp_path / "out"
    assert run_subcommand("ldos", cfg, out) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert any("clamped" in n for n in manifest["run"]["notes"])


def test_usage_errors_exit_one(tmp_path):
    assert main(["dispersion", "--config", str(tmp_path / "missing.yaml"),
                 "--out", str(tmp_path / "o")]) == 1
    with pytest.raises(UsageError):
        run_subcommand("no-such-thing", tmp_path / "x.yaml", tmp_path / "o")
    bad = tmp_path / "bad.yaml"
    bad.write_text("scene: [unclosed")
    assert main(["ldos", "--config", str(bad), "--out", str(tmp_path / "o")]) == 1


@pytest.mark.parametrize("grid, key", [
    ({"spacing": "logarithmic"}, "spacing"),
    ({"min": 2.0, "max": 0.5}, "min"),
    ({"min": 1.0, "max": 1.0}, "min"),
    ({"max": float("inf")}, "max"),
    ({"min": float("nan")}, "min"),
    ({"min": 0.0}, "min"),
    ({"min": -0.5, "spacing": "log"}, "min"),
    ({"points": 1}, "points"),
    ({"points": 4.5}, "points"),
    ({"points": True}, "points"),
])
def test_malformed_omega_grid_is_a_usage_error(tmp_path, capsys, grid, key):
    # reference.yaml's correlator grid with one key spoiled exits 1 before any
    # solve, naming the key: a misspelt spacing used to run a linear grid and
    # min > max a backwards one, the time-domain correlator's sign flipped
    omega = {"min": 0.5, "max": 2.0, "points": 31, **grid}
    cfg = write_cfg(tmp_path, {"correlator": {
        "a": [0, 0, 1.2], "b": [0.6, 0.2, -0.4], "T": 0.8, "omega": omega, "tau": 0.3}})
    out = tmp_path / "out"
    assert main(["correlator", "--config", str(cfg), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("usage error:") and key in err, err
    assert not (out / "manifest.json").exists()


def test_linear_grid_may_start_at_zero(tmp_path):
    cfg = write_cfg(tmp_path, {"dispersion": {
        "material": {"type": "drude_lorentz", "omega_p": 1.0, "omega_0": 1.0, "gamma": 0.01},
        "omega_alpha": {"min": 0, "max": 4.0, "points": 5, "spacing": "linear"},
    }})
    out = tmp_path / "out"
    assert run_subcommand("dispersion", cfg, out) == 0
    rows = (out / "dispersion.csv").read_text().splitlines()
    assert {r.split(",")[0] for r in rows[1:]} == {"0.0", "1.0", "2.0", "3.0", "4.0"}


@pytest.mark.parametrize("libyaml", [True, False])
def test_config_loader_matches_safe_load(tmp_path, monkeypatch, libyaml):
    # libyaml's safe loader where PyYAML has it, the pure-Python one where
    # not: the shipped configs parse to the same dicts as yaml.safe_load,
    # and a malformed file is a usage error either way
    from fluctem.cli import _load_config

    if not libyaml:
        monkeypatch.delattr(yaml, "CSafeLoader", raising=False)
    for name in ("casimir.yaml", "reference.yaml"):
        cfg, text = _load_config(CONFIGS / name)
        assert cfg == yaml.safe_load(text) and text == (CONFIGS / name).read_text()
    bad = tmp_path / "bad.yaml"
    bad.write_text("scene: [unclosed")
    with pytest.raises(UsageError, match="unparseable"):
        _load_config(bad)


def test_memory_error_is_an_error_line(tmp_path, monkeypatch, capsys):
    from fluctem.greens import EffectiveSolver

    def refuse(self, *args, **kwargs):
        raise MemoryError("interaction matrix assembly would peak at 9.99 GB")

    monkeypatch.setattr(EffectiveSolver, "__init__", refuse)
    cfg = write_cfg(tmp_path, {"ldos": {"omega0": 1.0, "position": [0, 0, 1.2],
                                        "orientation": [0, 0, 1]}})
    assert main(["ldos", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err.startswith("error:")


def test_memory_error_mid_run_is_an_error_line(tmp_path, monkeypatch, capsys):
    # the N = 389 sphere's grid (4.2 MB) fits a 16 MiB cap and its S (2 x 22
    # MB) does not: the solver is admitted, and its LDOS solve, which must
    # leave COCG when no solve fits the budget, refuses S mid-run
    from fluctem import greens

    monkeypatch.setattr(greens, "_MEMORY_CAP", 16 * 2**20)
    monkeypatch.setattr(greens, "_COCG_ITERATIONS", 10**6)
    scene = {"box_side": 40.0, "voxel_pitch": 0.2, "primitives": [
        {"shape": "sphere", "radius": 1.0, "material": BASE_SCENE["voxels"][0]["material"]}]}
    cfg = write_cfg(tmp_path, {"scene": scene, "ldos": {
        "omega0": 1.0, "position": [0, 0, 1.6], "orientation": [0, 0, 1]}})
    assert main(["ldos", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "Traceback" not in err
    assert err.startswith("error: a solve left COCG (budget): interaction matrix assembly and "
                          "factorization would peak at 0.04 GB (cap 0.02 GB) for 389 voxels")


def test_oracle_error_is_an_error_line(tmp_path, capsys):
    # a box of side 10 holds no mode in the band of the LDOS count
    cfg = write_cfg(tmp_path, {"oracle_suite": {"box_side": 10}})
    assert main(["oracle-suite", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err.startswith("error: band too narrow: only 0 modes")


def test_greens_error_is_an_error_line(tmp_path, capsys):
    # a source on a Gauss node of the volume term, where the vacuum dyadic is
    # singular, lies inside the voxel: the report refuses it before any solve
    from fluctem.greens import _gauss_subnodes

    node = _gauss_subnodes(BASE_SCENE["voxel_pitch"], 2)[0][0]  # the voxel is at the origin
    cfg = write_cfg(tmp_path, {"verify_identity": {"a": node.tolist(), "b": [0.6, 0.2, -0.9]}})
    assert main(["verify-identity", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err.startswith("error: source a = ")


def test_verify_identity_source_inside_a_voxel_is_an_error_line(tmp_path, capsys):
    # the absorption integrand is not integrable there: no residual is reported
    cfg = write_cfg(tmp_path, {"verify_identity": {"a": [0.0, 0.0, 1.0],
                                                   "b": [0.05, 0.03, 0.02]}})
    out = tmp_path / "out"
    assert main(["verify-identity", "--config", str(cfg), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: source b = (0.05, 0.03, 0.02) lies inside scatterer voxel 0 ")
    assert "(centre (0.0, 0.0, 0.0))" in err
    assert not (out / "identity.json").exists()


@pytest.mark.parametrize("a, where", [
    ([0.1, 0.1, 0.1], "inside scatterer voxel 0 (centre (0.0, 0.0, 0.0))"),
    ([0.0, 0.0, 2.5], "at |x| = 2.5, in or beyond the shell (inner radius 2)"),
], ids=["voxel", "shell"])
def test_verify_equivalence_source_outside_the_gap_is_an_error_line(tmp_path, capsys, a, where):
    # the levels' scenes hold a voxel at the origin and a shell from radius 2;
    # the run stops before the first mode sum
    cfg = write_cfg(tmp_path, {"verify_equivalence": {"a": a, "b": [0.85, 0.4, -0.7]}})
    out = tmp_path / "out"
    assert main(["verify-equivalence", "--config", str(cfg), "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith(f"error: source a = {tuple(a)} lies {where}; ")
    assert not (out / "equivalence.csv").exists()


@pytest.mark.parametrize("name", ["ldos", "rate"])
def test_zero_orientation_is_an_error_line(tmp_path, capsys, name):
    # it used to exit 0 and write "nan" (and bare NaN tokens in ldos.json)
    cfg = write_cfg(tmp_path, {name: {"omega0": 1.0, "position": [0, 0, 1.2],
                                      "orientation": [0, 0, 0], "dipole_moment": 1.0}})
    out = tmp_path / "out"
    assert main([name, "--config", str(cfg), "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith("error: orientation must be nonzero")
    assert not (out / f"{name}.json").exists()


def test_bad_material_config_is_an_error_line(tmp_path, capsys):
    scene = dict(BASE_SCENE)
    scene["voxels"] = [{"position": [0, 0, 0], "material": {"type": "unobtainium"}}]
    cfg = write_cfg(tmp_path, {"scene": scene,
                               "ldos": {"omega0": 1.0, "position": [0, 0, 1.2]}})
    assert main(["ldos", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err.startswith("error: unknown material type")


def test_dispersion_of_a_non_drude_material_is_an_error_line(tmp_path, capsys):
    cfg = tmp_path / "vacuum.yaml"
    cfg.write_text("dispersion:\n"
                   "  material:\n"
                   "    type: vacuum\n")
    assert main(["dispersion", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err.startswith("error: dispersion needs a drude_lorentz")


def test_main_entrypoint_roundtrip(tmp_path):
    cfg = write_cfg(tmp_path, {"ldos": {"omega0": 1.0, "position": [0, 0, 1.2],
                                        "orientation": [0, 0, 1]}})
    code = main(["ldos", "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert code == 0


def test_table_material_from_csv(tmp_path):
    table = tmp_path / "eps.csv"
    ws = np.logspace(-1, 1, 50)
    rows = [f"{w},{2.0},{0.3}" for w in ws]
    table.write_text("\n".join(rows))
    scene = {"box_side": 40.0, "voxel_pitch": 0.5,
             "voxels": [{"position": [0, 0, 0],
                         "material": {"type": "table", "path": "eps.csv"}}]}
    cfg = write_cfg(tmp_path, {"scene": scene,
                               "ldos": {"omega0": 1.0, "position": [0, 0, 1.2]}})
    assert run_subcommand("ldos", cfg, tmp_path / "out") == 0


def test_verify_equivalence_levels(tmp_path):
    # two coarse levels keep this quick; the acceptance suite runs the
    # reference three-level fan
    lam = 2 * np.pi
    levels = [
        {"box_side": 12 * lam, "shell_eps_imag": 0.12, "shell_lengths": 2.0,
         "pitch": lam / 6},
        {"box_side": 16 * lam, "shell_eps_imag": 0.06, "shell_lengths": 3.0,
         "pitch": lam / 8},
    ]
    cfg = write_cfg(tmp_path, {"verify_equivalence": {
        "omega": 1.0, "tolerance": 0.12, "levels": levels}})
    out = tmp_path / "out"
    assert run_subcommand("verify-equivalence", cfg, out) == 0
    rows = (out / "equivalence.csv").read_text().splitlines()
    assert rows[0].startswith("level,box_side")
    assert len(rows) == 1 + 2 * 3  # two levels, three pairs
    # an unreachable tolerance turns the same run into a verification failure
    cfg2 = write_cfg(tmp_path, {"verify_equivalence": {
        "omega": 1.0, "tolerance": 1e-5, "levels": levels}}, name="strict.yaml")
    assert run_subcommand("verify-equivalence", cfg2, tmp_path / "out2") == 2


def test_verify_equivalence_solves_each_source_pair_once(tmp_path, monkeypatch):
    # per level: one solve for [a, b] serves both noise densities and the
    # commutator density.  Every solve for a point source is counted, made
    # through interior_solution or through green (which may or may not call
    # interior_solution: a call inside green is green's solve)
    from fluctem.greens import EffectiveSolver

    interior, green = EffectiveSolver.interior_solution, EffectiveSolver.green
    solves, in_green = [], []

    def counted_interior(self, src):
        if not in_green:
            solves.append(np.atleast_2d(src).tolist())
        return interior(self, src)

    def counted_green(self, targets, sources, *args, **kwargs):
        solves.append(np.atleast_2d(sources).tolist())
        in_green.append(True)
        try:
            return green(self, targets, sources, *args, **kwargs)
        finally:
            in_green.pop()

    monkeypatch.setattr(EffectiveSolver, "interior_solution", counted_interior)
    monkeypatch.setattr(EffectiveSolver, "green", counted_green)
    assert run_subcommand("verify-equivalence", CONFIGS / "reference.yaml", tmp_path) == 0
    cfg = yaml.safe_load((CONFIGS / "reference.yaml").read_text())["verify_equivalence"]
    assert solves == [[cfg["a"], cfg["b"]]] * 3  # one per level of the three


@pytest.mark.parametrize("name", SUBCOMMANDS)
def test_shipped_configs_run(tmp_path, name):
    config = CONFIGS / ("casimir.yaml" if name == "casimir" else "reference.yaml")
    assert run_subcommand(name, config, tmp_path) == 0
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["artifacts"]
    for artifact in manifest["artifacts"]:
        assert len(list(tmp_path.rglob(artifact))) == 1, artifact


@pytest.mark.parametrize("name", [n for n in SUBCOMMANDS if n != "casimir"])
def test_reference_subcommands_rerun_byte_identical(tmp_path, name):
    # each of the eight reference.yaml subcommands, run twice in one process,
    # writes every artifact with the same bytes, and both manifests hold the
    # same artifact digests
    outs = [tmp_path / "1", tmp_path / "2"]
    for out in outs:
        assert run_subcommand(name, CONFIGS / "reference.yaml", out) == 0
    digests = [json.loads((out / "manifest.json").read_text())["artifacts"] for out in outs]
    assert digests[0] == digests[1]
    for artifact in digests[0]:
        (first,), (second,) = (list(out.rglob(artifact)) for out in outs)
        assert first.read_bytes() == second.read_bytes(), artifact
