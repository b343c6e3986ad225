"""The four benchmark workloads: inputs, the timed calls, and their checks.

Geometry, sizes and frequencies are fixed.  The seed only picks the
evaluation points, as one of the lattice symmetries of the voxel scene
applied to a fixed base configuration: every seed does the same physics on
different coordinates, so the physics errors repeat across seeds and the
stored reference values (kept in the base frame) check every seed.

Each workload has
  prepare(seed, shrink, root, scratch) -> inputs   (the set-up being timed)
  run(inputs, clock) -> outputs                    (timed inside clock.timed())
  checks(inputs, outputs) -> [Check]                (physics checks)
  headline(inputs, outputs) -> {name: array}        (base-frame values)
``shrink`` swaps in small sizes for the warm-up and the harness self-test.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass

import numpy as np
import yaml

import fluctem as fl
import fluctem.cli  # noqa: F401  called as fl.cli.run_subcommand, so tracing sees it

DRUDE_LORENTZ = {"type": "drude_lorentz", "omega_p": 1.2, "omega_0": 0.9, "gamma": 0.4}
PITCH = 0.2


@dataclass(frozen=True)
class Check:
    name: str
    error: float
    tolerance: float
    physics: bool  # physics checks make up accuracy_ratio; reference checks do not

    @property
    def passed(self):
        return bool(self.error <= self.tolerance)  # NaN fails


def sphere_scene(radius):
    return fl.build_scene({
        "box_side": 40.0, "voxel_pitch": PITCH,
        "primitives": [{"shape": "sphere", "radius": radius,
                        "material": dict(DRUDE_LORENTZ)}],
    })


def symmetry_image(seed, keep_z):
    """Signed permutation matrix picked by the seed.

    Voxel spheres on the pitch lattice are invariant under all 48 of them;
    keep_z restricts to the 16 that map the z axis to itself, which also
    leave the surface quadrature of the identity report invariant.
    """
    ops = []
    for perm in itertools.permutations(range(3)):
        if keep_z and perm[2] != 2:
            continue
        for signs in itertools.product((1.0, -1.0), repeat=3):
            R = np.zeros((3, 3))
            R[range(3), perm] = signs
            ops.append(R)
    return ops[int(np.random.default_rng(seed).integers(len(ops)))]


def rel_diff(x, y):
    return float(np.linalg.norm(np.asarray(x) - np.asarray(y)) / np.linalg.norm(y))


def to_base(R, M):
    """Undo the image on a rank-2 tensor: M = R M0 R^T."""
    return R.T @ M @ R


class CasimirPair:
    """`fluctem casimir` on the shipped two-voxel config, through the CLI."""

    name = "casimir-pair"

    def prepare(self, seed, shrink, root, scratch):
        path = root / "configs" / "casimir.yaml"
        cfg = yaml.safe_load(path.read_text())
        if shrink:
            cfg["casimir"]["grid"]["points"] = 101
            path = scratch / "casimir-shrunk.yaml"
            path.write_text(yaml.safe_dump(cfg))
        return {"config": path, "outdir": scratch / "casimir-out",
                "tail_tolerance": float(cfg["casimir"]["tail_tolerance"]),
                "scene": fl.build_scene(cfg["scene"])}

    def run(self, inp, clock):
        with clock.timed():
            status = fl.cli.run_subcommand("casimir", inp["config"], inp["outdir"])
        force = json.loads((inp["outdir"] / "force.json").read_text())
        out = {k: np.array([float(x) for x in force[k]])
               for k in ("total", "ordering_anti", "ordering_bose")}
        out["tail_fraction"] = float(force["tail_fraction"])
        out["status"] = status
        return out

    def checks(self, inp, out):
        split = rel_diff(out["ordering_anti"] + out["ordering_bose"], out["total"])
        return [
            Check("cli.exit_status", float(out["status"]), 0.0, physics=False),
            Check("casimir.tail_fraction", out["tail_fraction"], inp["tail_tolerance"],
                  physics=True),
            # 1/(1 - e^-x) + 1/(e^x - 1) = coth(x/2): exact algebra on one grid
            Check("casimir.ordering_split", split, 1e-10, physics=True),
        ]

    def headline(self, inp, out):
        return {k: out[k] for k in ("total", "ordering_anti", "ordering_bose", "tail_fraction")}


class IdentitySphere:
    """Dissipation identity Imag G = surface + volume terms on the N = 739 sphere."""

    name = "identity-sphere"
    A = (0.31, -0.47, 1.83)
    B = (-1.52, 0.66, -1.07)
    # the N = 739 residual is 4-5 % on this configuration and does not shrink
    # with the pitch; 10 % catches a broken term, accuracy_ratio tracks drift
    TOLERANCE = 0.1

    def prepare(self, seed, shrink, root, scratch):
        R = symmetry_image(seed, keep_z=True)
        return {"scene": sphere_scene(0.5 if shrink else 1.2), "R": R,
                "a": R @ self.A, "b": R @ self.B}

    def run(self, inp, clock):
        with clock.timed():
            return fl.greens_identity_report(inp["scene"], 1.0, inp["a"], inp["b"])

    def checks(self, inp, rep):
        return [Check("identity.residual", rep.residual, self.TOLERANCE, physics=True)]

    def headline(self, inp, rep):
        R = inp["R"]
        return {"imag_green": to_base(R, rep.imag_green),
                "surface_term": to_base(R, rep.surface_term),
                "volume_term": to_base(R, rep.volume_term),
                "residual": rep.residual}


class LdosSpectrum:
    """LDOS at 8 frequencies on the N = 739 sphere, one fresh solver each."""

    name = "ldos-spectrum"
    X0 = (0.42, -0.27, 1.61)
    N_HAT = (0.62, 0.35, 0.70)
    Y = (-1.35, 0.88, 0.73)  # partner point of the reciprocity check
    M_HAT = (0.48, -0.81, 0.34)  # offset direction of the coincidence-limit check
    DELTA = PITCH / 10
    RECIPROCITY_TOLERANCE = 1e-8  # as in acceptance criterion 5
    # the Richardson pair leaves the O(delta^4) truncation of the program's own
    # G near x0, about 2e-6 here, set by the scattered field near the sphere;
    # a wrong vacuum or coincident scattered term is off by 1e-2 or more
    LIMIT_TOLERANCE = 1e-4

    def prepare(self, seed, shrink, root, scratch):
        R = symmetry_image(seed, keep_z=False)
        unit = lambda v: np.asarray(v) / np.linalg.norm(v)  # noqa: E731
        return {"scene": sphere_scene(0.5 if shrink else 1.2),
                "omegas": np.linspace(0.6, 1.4, 2 if shrink else 8),
                "x0": R @ self.X0, "n": R @ unit(self.N_HAT), "y": R @ self.Y,
                "m": R @ unit(self.M_HAT)}

    def run(self, inp, clock):
        scene, x0, n = inp["scene"], inp["x0"], inp["n"]
        rho, recip, limit = [], [], []
        for omega in inp["omegas"]:
            with clock.timed():
                solver = fl.EffectiveSolver(scene, omega)
                value = fl.ldos(scene, omega, x0, n, solver=solver)
            rho.append(value)
            # checks reuse the factorization, outside the timed section
            pts = np.array([x0, inp["y"]])
            G = solver.green(pts, pts, scattered_only=True, warn_near=False)
            recip.append(max(rel_diff(G[0, 1], G[1, 0].T), rel_diff(G[0, 0], G[0, 0].T)))
            # ldos() adds the analytic vacuum term to the coincident scattered
            # part; compare with the limit of the full off-diagonal G, taking
            # (4 f(delta) - f(2 delta)) / 3 of the symmetric pair means f
            d = self.DELTA * inp["m"]
            Gd = solver.green(x0[None, :], x0 + np.array([d, -d, 2 * d, -2 * d]),
                              warn_near=False)[0]
            f = [(6 * omega / np.pi) * float(np.imag(n @ (Gd[i] + Gd[i + 1]) @ n)) / 2
                 for i in (0, 2)]
            limit.append(abs((4 * f[0] - f[1]) / 3 - value) / value)
            del solver  # as with ldos() alone, no solver outlives its frequency
        return {"ldos": np.array(rho), "reciprocity": max(recip), "limit": max(limit)}

    def checks(self, inp, out):
        return [
            Check("ldos.reciprocity", out["reciprocity"], self.RECIPROCITY_TOLERANCE,
                  physics=True),
            Check("ldos.coincidence_limit", out["limit"], self.LIMIT_TOLERANCE, physics=True),
        ]

    def headline(self, inp, out):
        return {"ldos": out["ldos"]}


class ModeSumSphere:
    """Mode sum against Imag G minus absorption on the N = 179 sphere."""

    name = "modesum-sphere"
    A = (0.23, -0.36, 1.21)
    B = (0.84, 0.47, -0.93)
    BOX = 40 * np.pi
    BIN = 0.1
    # a 20-wavelength box and a 0.1 Hann bin leave 7.5 % between the routes
    # here (the shipped refinement ladder reaches 5 % at 24 wavelengths)
    TOLERANCE = 0.1

    def prepare(self, seed, shrink, root, scratch):
        R = symmetry_image(seed, keep_z=False)
        return {"scene": sphere_scene(0.4 if shrink else 0.8), "R": R,
                "a": R @ self.A, "b": R @ self.B}

    def run(self, inp, clock):
        scene, a, b = inp["scene"], inp["a"], inp["b"]
        with clock.timed():
            basis = fl.enumerate_modes(self.BOX, 1.0 + self.BIN / 2)
            modes = fl.mode_sum_spectral_density(scene, a, b, 1.0, self.BIN, basis,
                                                 window="hann")
            imag = fl.commutator_density(scene, 1.0, a, b)
            absorbed = fl.noise_correlator_density(scene, "scatterer", 1.0, a, b)
        return {"mode_sum": modes.value, "mode_count": modes.mode_count,
                "commutator": imag.value, "noise": absorbed.value}

    def checks(self, inp, out):
        routes = (out["mode_sum"], out["commutator"] - out["noise"])
        scale = max(np.linalg.norm(r) for r in routes)
        disagreement = float(np.linalg.norm(routes[0] - routes[1]) / scale)
        return [Check("modes.route_disagreement", disagreement, self.TOLERANCE, physics=True)]

    def headline(self, inp, out):
        R = inp["R"]
        return {"mode_sum": to_base(R, out["mode_sum"]),
                "commutator": to_base(R, out["commutator"]),
                "noise": to_base(R, out["noise"]),
                "mode_count": out["mode_count"]}


WORKLOADS = {w.name: w for w in (CasimirPair(), IdentitySphere(), LdosSpectrum(),
                                 ModeSumSphere())}
