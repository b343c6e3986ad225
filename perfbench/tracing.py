"""Span tracer that wraps fluctem's public functions from outside the package.

Nothing under src/fluctem is edited.  ``Tracer.install`` rebinds the public
functions in every loaded ``fluctem`` module, and the public methods on the
solver and material classes, to wrappers that record a span per call;
``Tracer.uninstall`` restores the originals, so untraced runs execute the
program exactly as shipped.

A span is (name, start, end, parent index).  The self time of a span is its
duration minus the time covered by its direct children, so the per-layer
times below add up to the traced wall time without double counting.
Counts are taken at the same boundaries from call arguments and return
shapes (for example ``greens.kernel_pairs`` from the number of target and
source points times the voxel count).
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

LAYERS = ("scene", "material", "greens", "modes", "fluctuations", "observables",
          "cli", "reports")


def _n_points(x):
    return len(np.atleast_2d(np.asarray(x, dtype=float)))


def _count_green(tracer, args, kwargs, out):
    solver, targets, sources = args[0], args[1], args[2]
    n = solver.scene.n_voxels
    tracer.counts["greens.kernel_pairs"] += (_n_points(targets) + _n_points(sources)) * n


def _count_coincident(tracer, args, kwargs, out):
    solver, pts = args[0], args[1]
    tracer.counts["greens.kernel_pairs"] += 2 * _n_points(pts) * solver.scene.n_voxels


def _count_lu_factor(tracer, args, kwargs, out):
    n = np.shape(args[0])[0]
    tracer.counts["greens.lu_factor.gflop"] += (8.0 / 3.0) * n**3 / 1e9  # complex LU
    tracer.counts["greens.matrix_mb"] = max(tracer.counts["greens.matrix_mb"],
                                           n * n * 16 / 1e6)


def _count_lu_solve(tracer, args, kwargs, out):
    tracer.counts["greens.lu_solve.rhs_cols"] += (out.shape[1] if out.ndim == 2 else 1)


def _count_build(tracer, args, kwargs, out):
    tracer.counts["scene.voxels"] = out.n_voxels


def _count_mode_sum(tracer, args, kwargs, out):
    tracer.counts["modes.in_bin"] += out.mode_count


def _count_report(tracer, args, kwargs, out):
    tracer.counts["reports.bytes"] += Path(out).stat().st_size


# (module, attribute, span name, counter); the module's public function is
# replaced wherever a fluctem module holds a reference to it.
_FUNCTIONS = (
    ("scene", "build_scene", "scene.build", _count_build),
    ("greens", "surface_functional", "greens.surface_functional", None),
    ("greens", "noise_volume_integral_scatterer", "greens.noise_volume", None),
    ("greens", "noise_volume_integral_shell", "greens.noise_volume", None),
    ("greens", "greens_identity_report", "greens.identity_report", None),
    ("modes", "enumerate_modes", "modes.enumerate", None),
    ("modes", "mode_sum_spectral_density", "modes.mode_sum", _count_mode_sum),
    ("fluctuations", "noise_correlator_density", "fluctuations.noise_density", None),
    ("fluctuations", "commutator_density", "fluctuations.commutator", None),
    ("observables", "green_trace_gradient", "observables.trace_gradient", None),
    ("observables", "casimir_thermal_force", "observables.casimir_force", None),
    ("observables", "ldos", "observables.ldos", None),
    ("cli", "run_subcommand", "cli.run_subcommand", None),
    ("reports", "write_force_json", "reports.write", _count_report),
    ("reports", "write_per_voxel_force_csv", "reports.write", _count_report),
    ("reports", "write_density_csv", "reports.write", _count_report),
    ("reports", "write_spectral_csv", "reports.write", _count_report),
    ("reports", "write_dispersion_csv", "reports.write", _count_report),
    ("reports", "write_dyadic_block_csv", "reports.write", _count_report),
    ("reports", "write_manifest", "reports.write", _count_report),
)

# (module, class, method, span name, counter)
_METHODS = (
    ("greens", "EffectiveSolver", "__init__", "greens.solver_init", None),
    ("greens", "EffectiveSolver", "green", "greens.green", _count_green),
    ("greens", "EffectiveSolver", "green_coincident_scattered", "greens.green_coincident",
     _count_coincident),
    ("greens", "EffectiveSolver", "interior_field", "greens.interior_field", None),
    ("material", "DrudeLorentzModel", "eval", "material.eval", None),
    ("material", "TabulatedPermittivity", "eval", "material.eval", None),
    ("material", "Vacuum", "eval", "material.eval", None),
)

# greens calls LAPACK through its module-level ``sla`` (scipy.linalg) name
_LAPACK = (
    ("lu_factor", "greens.lu_factor", _count_lu_factor),
    ("lu_solve", "greens.lu_solve", _count_lu_solve),
)


class _LinalgProxy:
    """Stands in for scipy.linalg inside fluctem.greens with two wrapped calls."""

    def __init__(self, module, wrapped):
        self._module = module
        self.__dict__.update(wrapped)

    def __getattr__(self, name):
        return getattr(self._module, name)


class Tracer:
    """In-memory span recorder; ``enabled`` gates recording without unpatching."""

    def __init__(self):
        self.enabled = False
        self._undo = []
        self.reset()

    def reset(self):
        self.spans = []  # (name, start, end, parent index)
        self._stack = []  # [span index, time covered by children]
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.counts = defaultdict(float)

    def wrap(self, name, fn, count=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            idx = len(tracer.spans)
            parent = tracer._stack[-1][0] if tracer._stack else -1
            frame = [idx, 0.0]
            tracer.spans.append(None)
            tracer._stack.append(frame)
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                tracer._stack.pop()
                if tracer._stack:
                    tracer._stack[-1][1] += t1 - t0
                tracer.spans[idx] = (name, t0, t1, parent)
                tracer.calls[name] += 1
                tracer.self_s[name] += (t1 - t0) - frame[1]
            if count is not None:
                count(tracer, args, kwargs, out)
            return out

        return traced

    # -- patching ---------------------------------------------------------

    def install(self):
        if self._undo:
            return
        mods = {k.partition(".")[2]: m for k, m in list(sys.modules.items())
                if (k == "fluctem" or k.startswith("fluctem.")) and m is not None}
        for modname, attr, name, count in _FUNCTIONS:
            orig = getattr(mods[modname], attr)
            wrapped = self.wrap(name, orig, count)
            for m in mods.values():  # the package namespace ("") included
                for key, val in list(vars(m).items()):
                    if val is orig:
                        self._set(m, key, wrapped)
        for modname, clsname, meth, name, count in _METHODS:
            cls = getattr(mods[modname], clsname)
            self._set(cls, meth, self.wrap(name, vars(cls)[meth], count))
        greens = mods["greens"]
        sla = greens.sla
        proxy = _LinalgProxy(sla, {fn: self.wrap(name, getattr(sla, fn), count)
                                   for fn, name, count in _LAPACK})
        self._set(greens, "sla", proxy)

    def _set(self, owner, key, value):
        self._undo.append((owner, key, vars(owner)[key]))
        setattr(owner, key, value)

    def uninstall(self):
        while self._undo:
            owner, key, value = self._undo.pop()
            setattr(owner, key, value)

    # -- reduction --------------------------------------------------------

    def _under(self, name, ancestor):
        """Number of ``name`` spans that have an ``ancestor`` span above them."""
        spans = self.spans
        n = 0
        for s in spans:
            if s is None or s[0] != name:
                continue
            p = s[3]
            while p >= 0:
                if spans[p][0] == ancestor:
                    n += 1
                    break
                p = spans[p][3]
        return n

    def layer_metrics(self):
        """Per-layer numbers of everything recorded since the last reset."""
        c, s, k = self.calls, self.self_s, self.counts
        grads = c["observables.trace_gradient"]
        lu_s = s["greens.lu_factor"]
        return {
            "observables.green_calls_per_gradient":
                self._under("greens.green", "observables.trace_gradient") / grads
                if grads else 0.0,
            "greens.green.calls": c["greens.green"],
            "greens.lu_solve.calls": c["greens.lu_solve"],
            "observables.trace_gradient.s": s["observables.trace_gradient"],
            "greens.lu_factor.calls": c["greens.lu_factor"],
            "greens.solver_init.s": s["greens.solver_init"],
            "greens.kernel_pairs": int(k["greens.kernel_pairs"]),
            "greens.noise_volume.s": s["greens.noise_volume"],
            "greens.surface_functional.s": s["greens.surface_functional"],
            "greens.green.s": s["greens.green"],
            "greens.lu_factor.s": lu_s,
            "greens.lu_factor.gflop": k["greens.lu_factor.gflop"],
            "greens.lu_factor.gflop_per_s": k["greens.lu_factor.gflop"] / lu_s if lu_s else 0.0,
            "greens.matrix_mb": k["greens.matrix_mb"],
            "modes.enumerate.s": s["modes.enumerate"],
            "modes.mode_sum.s": s["modes.mode_sum"],
            "modes.in_bin": int(k["modes.in_bin"]),
            "modes.groups": self._under("greens.solver_init", "modes.mode_sum"),
            "greens.lu_solve.rhs_cols": int(k["greens.lu_solve.rhs_cols"]),
            "material.eval.calls": c["material.eval"],
            "material.eval.s": s["material.eval"],
            "fluctuations.noise_density.s": s["fluctuations.noise_density"],
            "fluctuations.commutator.s": s["fluctuations.commutator"],
            "cli.run_subcommand.s": s["cli.run_subcommand"],
            "reports.write.s": s["reports.write"],
            "reports.bytes": int(k["reports.bytes"]),
        }

    def layer_calls(self):
        """Span count per layer, for checking that every layer was reached."""
        out = dict.fromkeys(LAYERS, 0)
        for name, n in self.calls.items():
            out[name.split(".", 1)[0]] += n
        return out
