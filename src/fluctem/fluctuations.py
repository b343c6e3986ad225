"""Noise-current correlator densities and their thermal dressing.

Every density carries the full prefactor (hbar/pi) (w/c)^2, so the three
routes to the same two-point spectral density are directly comparable:

* 'noise-volume' integrates (w/c)^2 eps'' G . G* over a material region,
* 'mode-sum' bins the box modes (module ``modes``),
* 'imag-green' is the closed form Imag G.

The equivalence experiment at the bottom runs all three on a reference
scene and reports the pairwise disagreements on a ladder of refinement
levels; the downward trend is the verification target.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .constants import DEFAULT, Constants
from .greens import (
    EffectiveSolver,
    check_vacuum_gap,
    noise_volume_integral_scatterer,
    noise_volume_integral_shell,
    vacuum_gap_placement,
    volume_route,
)
from .modes import enumerate_modes, mode_sum_spectral_density
from .scene import Scene, Shell


class FluctuationError(ValueError):
    pass


REGIONS = ("scatterer", "shell", "all")
ORDERINGS = ("minus-plus", "plus-minus", "symmetrized")

@dataclass(frozen=True)
class CorrelatorDensity:
    a: np.ndarray
    b: np.ndarray
    omega: float
    value: np.ndarray  # (3, 3) complex, per unit frequency
    provenance: str  # 'noise-volume:<region>' | 'mode-sum' | 'imag-green'
    metadata: dict = field(default_factory=dict, compare=False)


def planck_weights(omega, T, kind="minus-plus", const: Constants = DEFAULT):
    """Thermal occupation weights over an array of frequencies, stable from x ~ 1e-300 to overflow.

    minus-plus: 1/(e^x - 1); plus-minus: 1/(1 - e^-x); symmetrized:
    coth(x/2); with x = hbar w / k_B T.  At T = 0 these limit to 0, 1, 1.
    Each branch runs only on the frequencies it serves (e^-x above x = 50,
    expm1 below), so no branch overflows.
    """
    w = np.asarray(omega, dtype=float)
    if np.any(w <= 0):
        raise FluctuationError("omega must be > 0")
    if T < 0:
        raise FluctuationError("temperature must be >= 0")
    if kind not in ORDERINGS:
        raise FluctuationError(f"unknown kind {kind!r}; choose from {ORDERINGS}")
    if T == 0:
        return np.full(w.shape, {"minus-plus": 0.0, "plus-minus": 1.0, "symmetrized": 1.0}[kind])
    x = const.hbar * w / (const.k_B * T)
    if kind == "symmetrized":
        return 1.0 / np.tanh(x / 2)
    out = np.empty_like(x)
    big = x > 50
    e = np.exp(-x[big])
    if kind == "minus-plus":
        out[big] = e / (1.0 - e)
        out[~big] = 1.0 / np.expm1(x[~big])
    else:
        out[big] = 1.0 / (1.0 - e)
        out[~big] = -1.0 / np.expm1(-x[~big])
    return out


def planck_factor(omega, T, kind="minus-plus", const: Constants = DEFAULT):
    """planck_weights at one frequency, as a float."""
    return float(planck_weights(omega, T, kind, const))


def noise_correlator_density(scene: Scene, region, omega, a, b,
                             const: Constants = DEFAULT, solver: EffectiveSolver = None,
                             nsub=2, *, chiX=None) -> CorrelatorDensity:
    """Fluctuating-current density over a region of the composed medium.

    (hbar/pi) (w/c)^2 int_region (w/c)^2 eps''(x) G(a,x) . conj(G(x,b)) dV.
    Region 'all' is computed as scatterer + shell on identical nodes, so
    the additivity of disjoint regions is exact up to float summation; both
    regions radiate one solve for the sources [a, b], chiX =
    solver.interior_solution([a, b]), made here unless given.  metadata
    records the volume_route of the scatterer term ('lattice-fft' or
    'dense-rows'; the shell nodes always take dense rows, so region 'shell'
    reads 'dense-rows').  For every region both sources must lie in the
    vacuum gap (greens.check_vacuum_gap).
    """
    if region not in REGIONS:
        raise FluctuationError(f"region must be one of {REGIONS}")
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    check_vacuum_gap(scene, a, b)
    if solver is None:
        solver = EffectiveSolver(scene, omega, const=const)
    if chiX is None:
        chiX = solver.interior_solution(np.stack([a, b]))
    pref = (const.hbar / np.pi) * (omega / const.c) ** 2
    parts = {}
    if region in ("scatterer", "all"):
        parts["scatterer"] = pref * noise_volume_integral_scatterer(
            scene, omega, a, b, solver, nsub, const, chiX=chiX)
    if region in ("shell", "all"):
        parts["shell"] = pref * noise_volume_integral_shell(scene, omega, a, b, solver, const,
                                                            chiX=chiX)
    total = sum(parts.values(), np.zeros((3, 3), complex))
    route = volume_route(solver) if region != "shell" else "dense-rows"
    return CorrelatorDensity(
        a=a, b=b, omega=float(omega), value=total,
        provenance=f"noise-volume:{region}",
        metadata={"scene": scene.digest(), "nsub": nsub, "volume_route": route},
    )


def commutator_density(scene: Scene, omega, a, b, const: Constants = DEFAULT,
                       solver: EffectiveSolver = None, *, chiX=None) -> CorrelatorDensity:
    """Closed-form commutator density (hbar/pi) (w/c)^2 Imag G(a, b).

    At coincidence the vacuum part is the analytic constant (w / 6 pi c) I
    and only the scattered part is evaluated numerically.  chiX, when
    given, is solver.interior_solution([a, b]), which a caller has already
    solved (EffectiveSolver.imag_green); otherwise the density makes one
    solve of its own.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    meta = {"scene": scene.digest()}
    # where a point lies outside the vacuum gap, or within one pitch of a
    # voxel's cell or of the shell, in check_vacuum_gap's words
    pitch = scene.voxel_pitch
    r2 = np.inf if scene.shell is None else scene.shell.inner_radius
    for name, p, where, r in zip("ab", (a, b), *vacuum_gap_placement(scene, [a, b])):
        x = float(np.linalg.norm(p))
        if where is None and r < 2 * pitch:
            where = f"{r:.6g} from the nearest voxel centre (pitch {pitch:.6g})"
        elif where is None and x > r2 - pitch:
            where = f"at |x| = {x:.6g}, within one pitch of the shell (inner radius {r2:.6g})"
        if where:
            meta[f"compliance_warning_{name}"] = f"point {name} lies {where}"
    if solver is None:
        solver = EffectiveSolver(scene, omega, const=const)
    img = solver.imag_green(a, b, chiX=chiX)
    val = (const.hbar / np.pi) * (omega / const.c) ** 2 * img
    return CorrelatorDensity(a=a, b=b, omega=float(omega), value=val,
                             provenance="imag-green", metadata=meta)


def thermal_correlator_density(scene: Scene, omega, a, b, T, ordering="symmetrized",
                               const: Constants = DEFAULT,
                               solver: EffectiveSolver = None) -> CorrelatorDensity:
    """Commutator density dressed with the Planck weight of the ordering."""
    base = commutator_density(scene, omega, a, b, const=const, solver=solver)
    f = planck_factor(omega, T, kind=ordering, const=const)
    meta = dict(base.metadata)
    meta.update({"T": float(T), "ordering": ordering, "planck_factor": f})
    return CorrelatorDensity(a=base.a, b=base.b, omega=base.omega,
                             value=f * base.value,
                             provenance=f"thermal:{ordering}", metadata=meta)


def time_domain_correlator(densities, omegas, tau):
    """Direct quadrature of int dw density(w) e^{-i w tau} on a given grid."""
    omegas = np.asarray(omegas, dtype=float)
    vals = np.asarray(densities, dtype=complex)
    phase = np.exp(-1j * omegas * tau)
    return np.trapezoid(vals * phase[:, None, None], omegas, axis=0)


# -- the three-route equivalence experiment ---------------------------------


@dataclass(frozen=True)
class EquivalenceLevel:
    label: str
    box_side: float
    shell_eps_imag: float
    shell_lengths: float
    pitch: float
    densities: dict
    disagreements: dict  # pair -> relative Frobenius difference
    mode_count: int


def _pairwise(dens):
    keys = list(dens)
    scale = max(np.linalg.norm(dens[k]) for k in keys)
    out = {}
    for i, ki in enumerate(keys):
        for kj in keys[i + 1 :]:
            out[f"{ki}|{kj}"] = float(np.linalg.norm(dens[ki] - dens[kj]) / scale)
    return out


def equivalence_densities(scatterer_material, omega, a, b, box_side, shell_eps_imag,
                          shell_lengths, pitch, delta_omega=0.05, window="hann", nsub=2,
                          const: Constants = DEFAULT):
    """The three spectral densities on the reference one-voxel scene.

    The composed scene's absorbing shell starts at radius 2 and is
    shell_lengths attenuation lengths thick.  Returns (dict of 3x3 arrays,
    mode_count).  Routes:
      mode-sum         binned scattered-mode fields of the vacuum-bounded scene
      shell-noise      far-shell fluctuating currents of the composed scene
      imag-minus-scat  Imag G density minus the scatterer-region noise density
    """
    ei = float(shell_eps_imag)
    # a flat absorber: Re eps = 1 exactly, Im eps = ei across the band
    shell_mat = _FlatAbsorber(ei)
    ell = 1.0 / (omega * np.imag(np.sqrt(1 + 1j * ei)) / const.c)
    scene = Scene(
        box_side=box_side,
        voxel_pitch=pitch,
        scatterer_voxels=(((0.0, 0.0, 0.0), scatterer_material),),
        shell=Shell(2.0, 2.0 + shell_lengths * ell, shell_mat),
    )
    scene3 = replace(scene, shell=None)
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    check_vacuum_gap(scene, a, b)  # before the mode sum solves anything

    basis = enumerate_modes(box_side, omega + delta_omega, const=const)
    smode = mode_sum_spectral_density(scene3, a, b, omega, delta_omega, basis,
                                      window=window, const=const)

    # the shell is not in the interaction matrix: one solver, and its one
    # solve for the sources [a, b], serve both scenes and all three densities
    solver3 = EffectiveSolver(scene3, omega, const=const)
    chiX = solver3.interior_solution(np.stack([a, b]))
    shell_noise = noise_correlator_density(scene, "shell", omega, a, b, const, solver3, nsub,
                                           chiX=chiX)
    imag_density = commutator_density(scene3, omega, a, b, const=const, solver=solver3,
                                      chiX=chiX)
    scat_noise = noise_correlator_density(scene3, "scatterer", omega, a, b, const, solver3,
                                          nsub, chiX=chiX)
    dens = {
        "mode-sum": smode.value,
        "shell-noise": shell_noise.value,
        "imag-minus-scat": imag_density.value - scat_noise.value,
    }
    return dens, smode.mode_count


class _FlatAbsorber:
    """eps = 1 + i eta at every frequency: the idealized far absorber."""

    def __init__(self, eta):
        self.eta = float(eta)

    def eval(self, omega):
        return 1.0 + 1j * self.eta


def equivalence_fan(scatterer_material, omega, a, b, levels,
                    const: Constants = DEFAULT, **kw):
    """Run the three-route comparison on a ladder of refinement levels.

    levels: sequence of dicts with keys box_side, shell_eps_imag,
    shell_lengths, pitch (refining simultaneously).  Returns a list of
    EquivalenceLevel; the pairwise disagreements are expected to decrease
    down the ladder.
    """
    out = []
    for i, lv in enumerate(levels):
        dens, nmodes = equivalence_densities(
            scatterer_material, omega, a, b,
            box_side=lv["box_side"], shell_eps_imag=lv["shell_eps_imag"],
            shell_lengths=lv["shell_lengths"], pitch=lv["pitch"], const=const, **kw
        )
        out.append(EquivalenceLevel(
            label=lv.get("label", f"level-{i}"),
            box_side=lv["box_side"], shell_eps_imag=lv["shell_eps_imag"],
            shell_lengths=lv["shell_lengths"], pitch=lv["pitch"],
            densities=dens, disagreements=_pairwise(dens), mode_count=nmodes,
        ))
    return out
