"""Sampled identity suite behind the `verify` CLI command.

Each check compares a matrix-arithmetic (or solver) route against the
corresponding closed form and reports the worst relative error.  Relative
error is measured against max(1, |lhs|, |rhs|, operand scale) so identities
whose exact value passes through zero are judged at the precision the
computation can actually carry.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import classification as cls
from .equilibria import Q_MAX, Q_MIN, q_of_vplus, state_from_v, v_minus_squared, v_plus_squared
from .errors import OptionOutOfRange
from .model import (
    b_sharp,
    det_b_sharp_closed,
    det_lin_closed,
    kinematics,
    lin_matrix,
    trace_adj_closed,
    trace_adj_identity,
)

TOLERANCE = 1e-10

# Sampled (v, eps) pairs by default, for the library and the `verify` command.
DEFAULT_SAMPLES = 4000


@dataclass(frozen=True)
class IdentityCheck:
    name: str
    error: float
    tolerance: float
    passed: bool


def _rel(lhs: float, rhs: float, scale: float = 0.0) -> float:
    return abs(lhs - rhs) / max(1.0, abs(lhs), abs(rhs), scale)


def _check(name: str, error: float, tolerance: float = TOLERANCE) -> IdentityCheck:
    return IdentityCheck(name=name, error=error, tolerance=tolerance, passed=error <= tolerance)


def run_identity_suite(
    samples: int = DEFAULT_SAMPLES, seed: int = 20240811
) -> list[IdentityCheck]:
    """Run every check; `samples` random (v, eps) pairs feed the matrix checks.

    A sample count below 1 raises OptionOutOfRange.
    """
    if samples < 1:
        raise OptionOutOfRange(f"samples must be a positive integer, got {samples}")
    rng = np.random.default_rng(seed)
    v_sq = rng.uniform(1e-6, 2.0, samples)
    v = np.sqrt(v_sq) * rng.choice([-1.0, 1.0], samples)
    eps = rng.uniform(1e-6, 1.0, samples)

    err_det_b = err_det_a = err_trace = 0.0
    kins = [kinematics(state_from_v(float(vi))) for vi in v]
    bs = np.array([b_sharp(kin, float(ei)) for kin, ei in zip(kins, eps)])
    for vi, ei, kin, b in zip(v, eps, kins, bs):
        a = lin_matrix(kin)
        frob_b = float((b * b).sum())
        frob_a = float((a * a).sum())
        det_b = float(b[0, 0] * b[1, 1] - b[0, 1] * b[1, 0])
        det_a = float(a[0, 0] * a[1, 1] - a[0, 1] * a[1, 0])
        err_det_b = max(err_det_b, _rel(det_b, det_b_sharp_closed(vi**2, ei), frob_b))
        err_det_a = max(err_det_a, _rel(det_a, det_lin_closed(vi**2), frob_a))
        tr = trace_adj_identity(kin, float(ei))
        err_trace = max(
            err_trace, _rel(tr, trace_adj_closed(float(vi), float(ei)), math.sqrt(frob_b * frob_a))
        )

    # B# = eps u^2 a a^T - w w^T - c2 y y^T, a = (v, -u), w = (4uv, -r), y = (1 + 2v^2, -2uv).
    u, vk = np.array([(kin.u, kin.v) for kin in kins]).T
    uv, vk_sq = u * vk, vk * vk
    vecs = np.array([[vk, -u], [4.0 * uv, -4.0 * vk_sq - 1.0], [2.0 * vk_sq + 1.0, -2.0 * uv]])
    weights = np.array([eps * u * u, np.full_like(u, -1.0), -9.0 * eps / (4.0 - eps)])
    split = np.einsum("kn,kin,kjn->nij", weights, vecs, vecs)
    scale = np.sqrt(np.maximum(1.0, (bs * bs).sum(axis=(1, 2))))
    err_split = float((np.abs(bs - split).max(axis=(1, 2)) / scale).max())

    # phi = r q0 - 4uv = 16 ((1-q)/q) (v^2 - v+^2)(v^2 - v-^2) / (r q0 + 4uv) for v > 0.
    qs, z = np.linspace(Q_MIN + 1e-6, Q_MAX - 1e-6, 257)[:, None], np.geomspace(1e-3, 1e6, 64)
    v_minus_sq = np.array([[v_minus_squared(float(q))] for q in qs[:, 0]])
    rq0, four_uv = (4.0 * z + 1.0) * qs**-0.5, 4.0 * np.sqrt(z * (1.0 + z))
    factored = 16.0 * (1.0 - qs) / qs * (z - v_plus_squared(qs)) * (z - v_minus_sq)
    err_phi = float((np.abs(rq0 - four_uv - factored / (rq0 + four_uv)) / rq0).max())

    eps_grid = np.linspace(1e-6, 1.0, 257)
    err_half = max(
        _rel(cls.p_eval(0.5, float(e)), 9.0 / 8.0 * e * e * (e - 4.0) ** 2)
        for e in eps_grid
    )
    err_third = max(
        _rel(cls.p_eval(1.0 / 3.0, float(e)), 16.0 / 27.0 * (e - 1.0) ** 2 * (e * e - 4.0 * e + 1.0))
        for e in eps_grid
    )
    eps_hat = cls.epsilon_hat()
    err_eighth = abs(cls.p_eval(0.125, eps_hat))

    min_tail = min(cls.discriminant_tail(float(e)) for e in eps_grid)
    tail_err = 0.0 if min_tail > 0.0 else abs(min_tail) + 1.0

    roots_one = cls.cubic_roots(1.0)
    err_roots = max(
        abs(roots_one.w1 + 1.0), abs(roots_one.w2), abs(roots_one.w3 - 1.0 / 3.0)
    )

    err_q1 = _rel(cls.separatrix_q1(1.0), 49.0 / 64.0)

    zs = np.linspace(0.125 + 1e-6, 0.5 - 1e-6, 1001)
    err_round = max(abs(v_plus_squared(q_of_vplus(float(z))) - z) for z in zs)

    return [
        _check("det(B#) matrix vs closed form", err_det_b),
        _check("det(A) matrix vs 2v^2-1", err_det_a),
        _check("trace(adj(B#)A) matrix vs closed form", err_trace),
        _check("B# = eps u^2 a a^T - w w^T - c2 y y^T", err_split),
        _check("r q0 - 4uv factored through v+^2, v-^2", err_phi),
        _check("P(1/2,eps) = (9/8) eps^2 (eps-4)^2", err_half),
        _check("P(1/3,eps) = (16/27)(eps-1)^2(eps^2-4eps+1)", err_third),
        _check("P(1/8, eps_hat) = 0", err_eighth),
        _check("discriminant tail positive on (0,1)", tail_err),
        _check("roots at eps=1 are (-1, 0, 1/3)", err_roots, 1e-12),
        _check("separatrix q1(1) = 49/64", err_q1, 1e-12),
        _check("v_plus_squared o q_of_vplus = id", err_round),
    ]


def format_report(checks: list[IdentityCheck]) -> str:
    width = max(len(c.name) for c in checks)
    lines = []
    for c in checks:
        status = "PASS" if c.passed else "FAIL"
        lines.append(
            f"{status}  {c.name:<{width}}  max_error={c.error:.3e}  tol={c.tolerance:.1e}"
        )
    lines.append(
        "all identities passed" if all(c.passed for c in checks) else "IDENTITY FAILURE"
    )
    return "\n".join(lines)
