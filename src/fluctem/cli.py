"""Command-line front end: config ingestion, experiment subcommands, artifacts.

Every run reads one YAML config, writes CSV/JSON artifacts plus a
manifest.json into the output directory, and exits 0 on success, 2 when a
physics verification fails, 1 on usage, I/O or numerical errors.  Reruns
with the same config and a single thread are bit-identical at the artifact
level.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import yaml

from .constants import Constants
from .fluctuations import (
    commutator_density,
    equivalence_fan,
    thermal_correlator_density,
    time_domain_correlator,
)
from .greens import EffectiveSolver, GreensError, greens_identity_report
from .material import DrudeLorentzModel, MaterialError
from .modes import enumerate_modes, mode_sum_spectral_density
from .observables import (
    BodySpec,
    EmitterSpec,
    ObservableError,
    casimir_thermal_force,
    ldos,
    spontaneous_rate,
    unit_orientation,
    vacuum_ldos,
)
from .oracle import (
    OracleError,
    OracleReport,
    _digest,
    mode_counting_ldos,
    quadrature_convergence,
    richardson_gradient,
)
from .polariton import PolaritonError, dispersion_sweep
from .reports import (
    density_rows,
    write_density_csv,
    write_dispersion_csv,
    write_force_json,
    write_manifest,
    write_per_voxel_force_csv,
    write_spectral_csv,
)
from .scene import Scene, _coerce_material, build_scene

SUBCOMMANDS = (
    "dispersion", "ldos", "rate", "correlator", "commutator",
    "verify-identity", "verify-equivalence", "casimir", "oracle-suite",
)


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse default exits 2; keep 2 for physics
        raise UsageError(message)


def _load_config(path):
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise UsageError(f"cannot read config {path}: {exc}") from exc
    try:
        # libyaml's loader when PyYAML was built with it: the same safe
        # subset, about 8 times faster on casimir.yaml
        cfg = yaml.load(text, Loader=getattr(yaml, "CSafeLoader", yaml.SafeLoader)) or {}
    except yaml.YAMLError as exc:
        raise UsageError(f"unparseable config {path}: {exc}") from exc
    return cfg, text


def _constants(cfg):
    c = cfg.get("constants", {})
    return Constants(hbar=float(c.get("hbar", 1.0)), c=float(c.get("c", 1.0)),
                     k_B=float(c.get("k_B", 1.0)))


def _scene_from_cfg(cfg, base_dir):
    scfg = cfg.get("scene") or {}
    if not scfg:
        raise UsageError("config is missing the scene section")
    return build_scene(scfg, base_dir=base_dir)


def _omega_grid(gcfg):
    lo, hi = float(gcfg["min"]), float(gcfg["max"])
    n = int(gcfg.get("points", 101))
    if gcfg.get("spacing", "log") == "log":
        return np.logspace(np.log10(lo), np.log10(hi), n)
    return np.linspace(lo, hi, n)


def _pmap(fn, items, threads):
    if threads <= 1:
        return [fn(x) for x in items]
    from concurrent.futures import ThreadPoolExecutor  # only a threaded run loads it

    with ThreadPoolExecutor(max_workers=threads) as ex:
        return list(ex.map(fn, items))


def _solver(scene, omega, const, run):
    """A solver of the run at omega, its diagnostics kept in run["solvers"] (see run_subcommand)."""
    solver = EffectiveSolver(scene, omega, const=const)
    run["solvers"].append(solver.diagnostics)
    return solver


# -- subcommand bodies -------------------------------------------------------


def _run_dispersion(cfg, scene, outdir, const, run):
    dc = cfg.get("dispersion") or {}
    mat = _coerce_material(dc["material"])
    if not isinstance(mat, DrudeLorentzModel):
        raise MaterialError(f"dispersion needs a drude_lorentz material, "
                            f"not {type(mat).__name__}")
    grid = _omega_grid(dc.get("omega_alpha", {"min": 0.01, "max": 10.0, "points": 200}))
    rows = []
    for up, lo, par in dispersion_sweep(mat, grid):
        rows.extend([up, lo, par])
    return [write_dispersion_csv(outdir / "dispersion.csv", rows)], 0


def _run_ldos(cfg, scene, outdir, const, run):
    lc = cfg.get("ldos") or {}
    omega0 = float(lc["omega0"])
    x0 = np.asarray(lc["position"], dtype=float)
    n = np.asarray(lc.get("orientation", [0, 0, 1]), dtype=float)
    val = ldos(scene, omega0, x0, n, const=const, solver=_solver(scene, omega0, const, run))
    vac = vacuum_ldos(omega0, const)
    out = outdir / "ldos.json"
    out.write_text(json.dumps({"omega0": omega0, "position": list(map(float, x0)),
                               "orientation": list(map(float, n / np.linalg.norm(n))),
                               "ldos": repr(val), "vacuum_ldos": repr(vac),
                               "enhancement": repr(val / vac)}, sort_keys=True, indent=1))
    return [out], 0


def _run_rate(cfg, scene, outdir, const, run):
    rc = cfg.get("rate") or {}
    em = EmitterSpec(position=tuple(rc["position"]),
                     n_hat=tuple(unit_orientation(rc["orientation"])),
                     dipole_moment=float(rc["dipole_moment"]),
                     omega0=float(rc["omega0"]))
    res = spontaneous_rate(scene, em, const=const,
                           solver=_solver(scene, em.omega0, const, run))
    out = outdir / "rate.json"
    out.write_text(json.dumps({"gamma": repr(res.gamma),
                               "gamma_vacuum": repr(res.gamma_vacuum),
                               "purcell": repr(res.purcell),
                               "ldos": repr(res.ldos)}, sort_keys=True, indent=1))
    return [out], 0


def _run_correlator(cfg, scene, outdir, const, run):
    cc = cfg.get("correlator") or {}
    a = np.asarray(cc["a"], float)
    b = np.asarray(cc["b"], float)
    T = float(cc.get("T", 0.0))
    ordering = cc.get("ordering", "symmetrized")
    grid = _omega_grid(cc.get("omega", {"min": 0.5, "max": 2.0, "points": 16}))

    def one(om):
        return thermal_correlator_density(scene, om, a, b, T, ordering, const,
                                          _solver(scene, om, const, run))

    dens = _pmap(one, grid, run["threads"])
    rows = []
    for d in dens:
        rows.extend(density_rows(d, T=T, ordering=ordering))
    arts = [write_density_csv(outdir / "correlator.csv", rows)]
    if "tau" in cc:
        tau = float(cc["tau"])
        td = time_domain_correlator([d.value for d in dens], grid, tau)
        p = outdir / "correlator_time.json"
        p.write_text(json.dumps({"tau": tau,
                                 "value_re": [[repr(x) for x in row] for row in td.real.tolist()],
                                 "value_im": [[repr(x) for x in row] for row in td.imag.tolist()]},
                                sort_keys=True, indent=1))
        arts.append(p)
    return arts, 0


def _run_commutator(cfg, scene, outdir, const, run):
    cc = cfg.get("commutator") or {}
    a = np.asarray(cc["a"], float)
    b = np.asarray(cc["b"], float)
    omega = float(cc["omega"])
    d = commutator_density(scene, omega, a, b, const, _solver(scene, omega, const, run))
    rows = list(density_rows(d))
    arts = [write_density_csv(outdir / "commutator.csv", rows)]
    if cc.get("mode_sum"):
        ms = cc["mode_sum"]
        basis = enumerate_modes(float(ms.get("box_side", scene.box_side)),
                                omega * 1.1, const=const)
        sd = mode_sum_spectral_density(scene, a, b, omega,
                                       ms.get("delta_omega"), basis,
                                       window=ms.get("window", "boxcar"), const=const)
        run["mode_sum"] = {k: sd.metadata[k] for k in ("solves", "nodes", "tail", "tolerance")}
        arts.append(write_spectral_csv(outdir / "commutator_modes.csv", [sd]))
    return arts, 0


def _run_verify_identity(cfg, scene, outdir, const, run):
    vc = cfg.get("verify_identity") or {}
    omega = float(vc.get("omega", 1.0))
    a = np.asarray(vc.get("a", [0, 0, 0.3]), float)
    b = np.asarray(vc.get("b", [0.4, 0.1, -0.2]), float)
    tol = float(vc.get("tolerance", 1e-6 if scene.n_voxels == 0 else 1e-2))
    rep = greens_identity_report(scene, omega, a, b, nsub=int(vc.get("nsub", 2)),
                                 const=const, solver=_solver(scene, omega, const, run))
    out = outdir / "identity.json"
    out.write_text(json.dumps({
        "omega": omega, "residual": repr(rep.residual), "tolerance": tol,
        "surface_norm": repr(float(np.linalg.norm(rep.surface_term))),
        "volume_norm": repr(float(np.linalg.norm(rep.volume_term))),
        "imag_green_norm": repr(float(np.linalg.norm(rep.imag_green))),
        "passed": bool(rep.residual <= tol),
        "margin": rep.residual / tol, "volume_route": rep.volume_route,
    }, sort_keys=True, indent=1))
    status = 0 if rep.residual <= tol else 2
    return [out], status


def _default_equivalence_levels():
    return [
        {"box_side": 12 * 2 * np.pi, "shell_eps_imag": 0.12, "shell_lengths": 2.0,
         "pitch": 2 * np.pi / 6, "label": "coarse"},
        {"box_side": 16 * 2 * np.pi, "shell_eps_imag": 0.06, "shell_lengths": 3.0,
         "pitch": 2 * np.pi / 8, "label": "medium"},
        {"box_side": 24 * 2 * np.pi, "shell_eps_imag": 0.03, "shell_lengths": 4.0,
         "pitch": 2 * np.pi / 12, "label": "fine"},
    ]


def _run_verify_equivalence(cfg, scene, outdir, const, run):
    vc = cfg.get("verify_equivalence") or {}
    omega = float(vc.get("omega", 1.0))
    a = np.asarray(vc.get("a", [0.0, 0.0, 1.25]), float)
    b = np.asarray(vc.get("b", [0.85, 0.4, -0.7]), float)
    tol = float(vc.get("tolerance", 0.05))
    mat = _coerce_material(vc.get("scatterer_material",
                                  {"type": "drude_lorentz", "omega_p": 1.2,
                                   "omega_0": 0.9, "gamma": 0.4}))
    levels = vc.get("levels") or _default_equivalence_levels()
    fan = equivalence_fan(mat, omega, a, b, levels, const=const,
                          delta_omega=float(vc.get("delta_omega", 0.05)),
                          window=vc.get("window", "hann"))
    out = outdir / "equivalence.csv"
    with out.open("w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["level", "box_side", "shell_eps_imag", "shell_lengths",
                    "pitch", "mode_count", "pair", "disagreement"])
        for i, lv in enumerate(fan):
            for pair, d in sorted(lv.disagreements.items()):
                w.writerow([i, repr(lv.box_side), repr(lv.shell_eps_imag),
                            repr(lv.shell_lengths), repr(lv.pitch),
                            lv.mode_count, pair, repr(d)])
    final = fan[-1].disagreements
    ok = all(d <= tol for d in final.values())
    for pair in final:
        seq = [lv.disagreements[pair] for lv in fan]
        if not all(seq[i] > seq[i + 1] for i in range(len(seq) - 1)):
            ok = False
            run["notes"].append(f"non-monotone disagreement for {pair}: {seq}")
    return [out], 0 if ok else 2


def _run_casimir(cfg, scene, outdir, const, run):
    cc = cfg.get("casimir") or {}
    T = float(cc.get("T", 1.0))
    sel = cc.get("body", "all")
    if sel != "all" and not isinstance(sel, list):
        raise ObservableError(f"body must be all or a list of voxel indices, not {sel!r}")
    idx = tuple(range(scene.n_voxels)) if sel == "all" else tuple(sel)
    body = BodySpec(voxel_indices=idx)
    grid = _omega_grid(cc["grid"]) if "grid" in cc else None
    force = casimir_thermal_force(scene, body, T, omega_grid=grid, const=const,
                                  tail_tol=float(cc.get("tail_tolerance", 0.01)))
    run["solve"] = force.metadata["solve"]
    arts = [write_force_json(outdir / "force.json", force)]
    if cc.get("per_voxel"):
        arts.append(write_per_voxel_force_csv(outdir / "force_per_voxel.csv",
                                              scene, body, force))
    return arts, 0


def _run_oracle_suite(cfg, scene, outdir, const, run):
    oc = cfg.get("oracle_suite") or {}
    base = outdir / "baselines"
    base.mkdir(exist_ok=True)
    reports = []

    # mode-counting LDOS against the continuum value
    omega = float(oc.get("omega", 1.0))
    L = float(oc.get("box_side", 40 * np.pi * const.c / omega))
    val = mode_counting_ldos(L, omega, delta=0.1 * omega, const=const)
    tgt = omega**2 / (np.pi**2 * const.c**3)
    reports.append(OracleReport(
        name="mode-counting-ldos", inputs_digest=_digest(L, omega),
        values=(val,), error_estimate=abs(val / tgt - 1), target=tgt,
        passed=bool(abs(val / tgt - 1) < 0.05), details={"box_side": L}))

    # richardson gradient exactness on a quadratic
    g, err, flagged = richardson_gradient(lambda p: float(p @ p), np.array([0.3, -0.2, 0.5]), 0.05)
    reports.append(OracleReport(
        name="richardson-quadratic", inputs_digest=_digest(0.05),
        values=tuple(g), error_estimate=err, target=0.0,
        passed=bool(np.allclose(g, [0.6, -0.4, 1.0], atol=1e-10) and not flagged),
        details={}))

    # identity-residual convergence in pitch on a one-voxel scene
    class _Eps:
        def eval(self, omega):
            return 2 + 0.5j

    lam = 2 * np.pi * const.c / omega
    resid = []
    for pitch in (lam / 10, lam / 20, lam / 40):
        s = Scene(scene.box_side, pitch, (((0.0, 0.0, 0.0), _Eps()),))
        resid.append(greens_identity_report(
            s, omega, np.array([0, 0, 1.0]) * lam / (2 * np.pi),
            np.array([0.7, 0.3, -0.6]) * lam / (2 * np.pi), const=const,
            solver=_solver(s, omega, const, run)).residual)
    reports.append(quadrature_convergence("identity-residual", "pitch", resid, min_order=1.0))

    ok = True
    for r in reports:
        fname = f"{r.name.replace(':', '_')}_{r.inputs_digest}.json"
        (base / fname).write_text(r.to_json())
        ok = ok and r.passed
    return sorted(base.glob("*.json")), 0 if ok else 2


_RUNNERS = {
    "dispersion": _run_dispersion,
    "ldos": _run_ldos,
    "rate": _run_rate,
    "correlator": _run_correlator,
    "commutator": _run_commutator,
    "verify-identity": _run_verify_identity,
    "verify-equivalence": _run_verify_equivalence,
    "casimir": _run_casimir,
    "oracle-suite": _run_oracle_suite,
}


def run_subcommand(name, config_path, outdir, threads=None):
    """Execute one subcommand; returns the process exit status."""
    if name not in _RUNNERS:
        raise UsageError(f"unknown subcommand {name!r}; choose from {SUBCOMMANDS}")
    cfg, text = _load_config(config_path)
    const = _constants(cfg)
    if threads is None:
        threads = int(cfg.get("threads", os.environ.get("FLUCTEM_THREADS", 1)))
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    # the manifest's run block, outside every digest: the runner adds its
    # notes and, where it solves, the solvers' diagnostics
    run = {"subcommand": name, "threads": threads, "notes": [], "solvers": []}
    # physics warnings go to the manifest's notes, each distinct message once
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        scene = None
        if "scene" in cfg:
            scene = _scene_from_cfg(cfg, Path(config_path).parent)
        t0 = time.time()
        artifacts, status = _RUNNERS[name](cfg, scene, outdir, const, run)
        wall = time.time() - t0
    run["notes"].extend(dict.fromkeys(str(w.message) for w in caught))
    # one solver's diagnostics, or of a sweep's those with the worst backward error
    solvers = run.pop("solvers")
    if solvers:
        run["solver"] = max(solvers, key=lambda d: d["backward_error"] or 0.0)
    run["exit_status"] = status
    write_manifest(outdir, text, artifacts, extra=run, wall_time=wall)
    return status


def main(argv=None):
    parser = _Parser(prog="fluctem",
                     description="fluctuational-electromagnetics verification CLI")
    parser.add_argument("subcommand", choices=SUBCOMMANDS)
    parser.add_argument("--config", required=True, help="YAML run configuration")
    parser.add_argument("--out", required=True, help="output directory for artifacts")
    parser.add_argument("--threads", type=int, default=None,
                        help="worker threads; correlator runs its frequencies in parallel, "
                             "each on its own solver (default: config, env FLUCTEM_THREADS, "
                             "or 1)")
    try:
        args = parser.parse_args(argv)
        return run_subcommand(args.subcommand, args.config, args.out, threads=args.threads)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (OSError, KeyError, ValueError, MemoryError,
            GreensError, OracleError, PolaritonError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
