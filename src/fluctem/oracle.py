"""Independent brute-force baselines: Born series, mode counting, refinement fits.

Nothing here shares kernels with the code it checks beyond the closed-form
vacuum dyadic.  Oracles are deterministic given their inputs digest and run
single threaded.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field

import numpy as np

from .constants import DEFAULT, Constants
from .greens import self_term_coupling, vacuum_green, vacuum_green_block
from .scene import Scene


class OracleError(RuntimeError):
    pass


@dataclass(frozen=True)
class OracleReport:
    name: str
    inputs_digest: str
    values: tuple
    error_estimate: float
    target: float
    passed: bool
    details: dict = field(default_factory=dict, compare=False)

    def to_json(self):
        return json.dumps(
            {
                "name": self.name,
                "inputs_digest": self.inputs_digest,
                "values": list(self.values),
                "error_estimate": self.error_estimate,
                "target": self.target,
                "passed": bool(self.passed),
                "details": {k: repr(v) for k, v in self.details.items()},
            },
            sort_keys=True,
            indent=1,
        )


def _digest(*parts):
    h = hashlib.sha256()
    for p in parts:
        h.update(repr(p).encode())
    return h.hexdigest()[:16]


def born_series_oracle(scene: Scene, omega, a, b, order=1, const: Constants = DEFAULT):
    """Truncated Neumann series for the effective tensor; no linear solve.

    order 0 returns the bare vacuum dyadic; order 1 adds the single-pass
    scattering term; order 2 one more pass through the couplings (including
    the regularized self coupling).  Errors out when the contraction factor
    of the series is not small.
    """
    if order not in (0, 1, 2):
        raise OracleError("order must be 0, 1 or 2")
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    g_ab = vacuum_green(omega, a, b, c=const.c)
    if order == 0 or scene.n_voxels == 0:
        return g_ab
    k = omega / const.c
    dv = scene.voxel_volume
    pos = scene.positions()
    chi = scene.chi_at(omega)
    # contraction check: worst row sum of coupling norms must be < 1/2
    cself = self_term_coupling(omega, dv, c=const.c)
    n = scene.n_voxels
    row = np.full(n, abs(cself)) * np.abs(chi)
    if n > 1:
        g = _vacuum_green_block_offdiag(omega, pos, c=const.c)
        norms = np.linalg.norm(g, axis=(2, 3)) * dv * k**2
        row = row + norms @ np.abs(chi)
    strength = float(np.max(row))
    if strength > 0.5:
        raise OracleError(f"Born series contraction check failed: factor ~ {strength:.3g}")
    g_a_u = vacuum_green_block(omega, a[None, :], pos, c=const.c)[0]  # (N,3,3)
    g_u_b = vacuum_green_block(omega, pos, b[None, :], c=const.c)[:, 0]  # (N,3,3)
    first = dv * k**2 * np.einsum("nij,n,njk->ik", g_a_u, chi, g_u_b)
    if order == 1:
        return g_ab + first
    # order 2: one more pass, off-diagonal couplings plus the self coupling
    second = np.zeros((3, 3), complex)
    for u in range(scene.n_voxels):
        for v in range(scene.n_voxels):
            cpl = cself * np.eye(3) if u == v else dv * k**2 * vacuum_green(
                omega, pos[u], pos[v], c=const.c
            )
            second += dv * k**2 * g_a_u[u] @ (chi[u] * cpl) @ (chi[v] * g_u_b[v])
    return g_ab + first + second


def _vacuum_green_block_offdiag(omega, pts, c=1.0):
    """(N, N, 3, 3) vacuum block over one point set, zeros on the diagonal."""
    n = len(pts)
    out = np.zeros((n, n, 3, 3), dtype=complex)
    for u in range(n):
        others = np.arange(n) != u
        out[u, others] = vacuum_green_block(omega, pts[u], pts[others], c=c)[0]
    return out


def mode_counting_ldos(L, omega, delta, const: Constants = DEFAULT):
    """Band-averaged modal density per volume from a direct lattice count.

    count(omega +- delta/2) / (V delta), polarizations included, compared
    against w^2 / (pi^2 c^3).
    """
    c = const.c
    nmax = int(np.ceil(L * (omega + delta / 2) / (2 * np.pi * c)))
    r = np.arange(-nmax, nmax + 1)
    n2 = (r[:, None, None] ** 2 + r[None, :, None] ** 2 + r[None, None, :] ** 2).ravel()
    om = (2 * np.pi * c / L) * np.sqrt(n2[n2 > 0])
    count = 2 * int(np.count_nonzero((om >= omega - delta / 2) & (om <= omega + delta / 2)))
    if count < 100:
        raise OracleError(f"band too narrow: only {count} modes")
    return count / (L**3 * delta)


def richardson_gradient(f, x, h0):
    """Central differences at h0 and h0/2 with one Richardson sweep.

    Returns (gradient (3,), error bar = max level difference).  Exact on
    quadratics by construction.
    """
    x = np.asarray(x, dtype=float)
    g = np.zeros(3)
    err = 0.0
    for i in range(3):
        e = np.zeros(3)
        e[i] = 1.0
        d1 = (f(x + h0 * e) - f(x - h0 * e)) / (2 * h0)
        d2 = (f(x + h0 / 2 * e) - f(x - h0 / 2 * e)) / h0
        g[i] = (4 * d2 - d1) / 3
        err = max(err, abs(d2 - d1))
    gn = np.linalg.norm(g)
    flagged = gn > 0 and err > 0.1 * gn
    return g, float(err), bool(flagged)


def quadrature_convergence(task_tag, knob, values, min_order=1.0, inputs=None):
    """Fit the observed refinement order of a 3-level error sequence.

    values: residuals at three refinement levels (each halving the knob's
    error scale).  Non-monotone sequences fail with the triplet recorded.
    """
    v = [float(x) for x in values]
    if len(v) != 3:
        raise OracleError("exactly three refinement levels required")
    digest = _digest(task_tag, knob, v, inputs)
    monotone = v[0] > v[1] > v[2] > 0
    if not monotone:
        return OracleReport(
            name=f"convergence:{task_tag}:{knob}", inputs_digest=digest,
            values=tuple(v), error_estimate=float("nan"), target=min_order,
            passed=False, details={"reason": "non-monotone residual triplet"},
        )
    o1 = np.log2(v[0] / v[1])
    o2 = np.log2(v[1] / v[2])
    order = min(o1, o2)
    return OracleReport(
        name=f"convergence:{task_tag}:{knob}", inputs_digest=digest,
        values=tuple(v), error_estimate=float(abs(o1 - o2)), target=min_order,
        passed=bool(order >= min_order),
        details={"orders": (float(o1), float(o2))},
    )
