"""Sampled identity suite behind the `verify` CLI command.

Each check compares a matrix-arithmetic (or solver) route against the
corresponding closed form and reports the worst relative error.  Relative
error is measured against max(1, |lhs|, |rhs|, operand scale) so identities
whose exact value passes through zero are judged at the precision the
computation can actually carry.  A check passes when its error is at most
its tolerance, `TOLERANCE` unless the check names its own; `passed` is read
off the two, not stored beside them.

Every check runs on stacked arrays: the sampled states reach `b_sharp` and
`lin_matrix` once each, as (2, 2, n) lanes, and the trace check applies
`model.trace_adj` to the same two stacks the determinant checks use.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import classification as cls
from .equilibria import Q_MAX, Q_MIN, _rest_v_sq, psi_from_v, q_of_vplus, v_plus_squared
from .errors import OptionOutOfRange, _count
from .model import (
    Kinematics,
    b_sharp,
    det_b_sharp_closed,
    det_lin_closed,
    lin_matrix,
    theta_u_v,
    trace_adj,
    trace_adj_closed,
)

TOLERANCE = 1e-10

# Sampled (v, eps) pairs by default, for the library and the `verify` command.
DEFAULT_SAMPLES = 4000


@dataclass(frozen=True)
class IdentityCheck:
    name: str
    error: float
    tolerance: float = TOLERANCE

    @property
    def passed(self) -> bool:
        return self.error <= self.tolerance


def _rel(lhs, rhs, scale=0.0) -> float:
    """Worst of |lhs - rhs| / max(1, |lhs|, |rhs|, scale) over floats or ndarrays."""
    bound = np.maximum(np.maximum(1.0, np.abs(lhs)), np.maximum(np.abs(rhs), scale))
    return float((np.abs(lhs - rhs) / bound).max())


def run_identity_suite(
    samples: int = DEFAULT_SAMPLES, seed: int = 20240811
) -> list[IdentityCheck]:
    """Run every check; `samples` random (v, eps) pairs feed the matrix checks.

    A sample count not an integer of at least 1 or too large to allocate, or
    a seed that numpy's `default_rng` cannot use, raises OptionOutOfRange.
    """
    if (count := _count(samples)) < 1:
        raise OptionOutOfRange(f"samples must be a positive integer, got {samples}")
    try:
        rng = np.random.default_rng(seed)
    except (TypeError, ValueError) as exc:
        raise OptionOutOfRange(f"unusable seed {seed!r}: {exc}") from exc
    try:
        v = np.sqrt(rng.uniform(1e-6, 2.0, count)) * rng.choice([-1.0, 1.0], count)
        eps = rng.uniform(1e-6, 1.0, count)
    except MemoryError as exc:
        raise OptionOutOfRange(f"{count} samples: {exc}") from exc
    v_sq = v**2

    # One stacked call per builder: b and a hold one 2x2 matrix per sample, shape (2, 2, n),
    # and all three matrix checks read them.
    kin = Kinematics(*theta_u_v(*psi_from_v(v)))
    b, a = b_sharp(kin, eps), lin_matrix(kin)
    frob_b, frob_a = (b * b).sum(axis=(0, 1)), (a * a).sum(axis=(0, 1))
    det_b = b[0, 0] * b[1, 1] - b[0, 1] * b[1, 0]
    det_a = a[0, 0] * a[1, 1] - a[0, 1] * a[1, 0]
    err_det_b = _rel(det_b, det_b_sharp_closed(v_sq, eps), frob_b)
    err_det_a = _rel(det_a, det_lin_closed(v_sq), frob_a)
    err_trace = _rel(trace_adj(b, a), trace_adj_closed(v, eps), np.sqrt(frob_b * frob_a))

    # B# = eps u^2 a a^T - w w^T - c2 y y^T, a = (v, -u), w = (4uv, -r), y = (1 + 2v^2, -2uv).
    u, vk = kin.u, kin.v
    uv, vk_sq = u * vk, vk * vk
    vecs = np.array([[vk, -u], [4.0 * uv, -4.0 * vk_sq - 1.0], [2.0 * vk_sq + 1.0, -2.0 * uv]])
    weights = np.array([eps * u * u, np.full_like(u, -1.0), -9.0 * eps / (4.0 - eps)])
    split = np.einsum("kn,kin,kjn->ijn", weights, vecs, vecs)
    scale = np.sqrt(np.maximum(1.0, frob_b))
    err_split = float((np.abs(b - split).max(axis=(0, 1)) / scale).max())

    # phi = r q0 - 4uv = 16 ((1-q)/q) (v^2 - v+^2)(v^2 - v-^2) / (r q0 + 4uv) for v > 0.
    qs, z = np.linspace(Q_MIN + 1e-6, Q_MAX - 1e-6, 257)[:, None], np.geomspace(1e-3, 1e6, 64)
    rq0, four_uv = (4.0 * z + 1.0) * qs**-0.5, 4.0 * np.sqrt(z * (1.0 + z))
    v_minus_sq, v_plus_sq = _rest_v_sq(qs)  # qs lies inside (3/4, 1)
    factored = 16.0 * (1.0 - qs) / qs * (z - v_plus_sq) * (z - v_minus_sq)
    err_phi = float((np.abs(rq0 - four_uv - factored / (rq0 + four_uv)) / rq0).max())

    e = np.linspace(1e-6, 1.0, 257)
    err_half = _rel(cls.p_eval(0.5, e), 9.0 / 8.0 * e * e * (e - 4.0) ** 2)
    err_third = _rel(
        cls.p_eval(1.0 / 3.0, e), 16.0 / 27.0 * (e - 1.0) ** 2 * (e * e - 4.0 * e + 1.0)
    )
    eps_hat = cls.epsilon_hat()
    err_eighth = abs(cls.p_eval(0.125, eps_hat))

    min_tail = float(cls.discriminant_tail(e).min())
    tail_err = 0.0 if min_tail > 0.0 else abs(min_tail) + 1.0

    roots_one = cls.cubic_roots(1.0)
    err_roots = max(
        abs(roots_one.w1 + 1.0), abs(roots_one.w2), abs(roots_one.w3 - 1.0 / 3.0)
    )

    err_q1 = _rel(cls.separatrix_q1(1.0), 49.0 / 64.0)

    zs = np.linspace(0.125 + 1e-6, 0.5 - 1e-6, 1001)
    err_round = float(np.abs(v_plus_squared(q_of_vplus(zs)) - zs).max())

    return [
        IdentityCheck("det(B#) matrix vs closed form", err_det_b),
        IdentityCheck("det(A) matrix vs 2v^2-1", err_det_a),
        IdentityCheck("trace(adj(B#)A) matrix vs closed form", err_trace),
        IdentityCheck("B# = eps u^2 a a^T - w w^T - c2 y y^T", err_split),
        IdentityCheck("r q0 - 4uv factored through v+^2, v-^2", err_phi),
        IdentityCheck("P(1/2,eps) = (9/8) eps^2 (eps-4)^2", err_half),
        IdentityCheck("P(1/3,eps) = (16/27)(eps-1)^2(eps^2-4eps+1)", err_third),
        IdentityCheck("P(1/8, eps_hat) = 0", err_eighth),
        IdentityCheck("discriminant tail positive on (0,1)", tail_err),
        IdentityCheck("roots at eps=1 are (-1, 0, 1/3)", err_roots, 1e-12),
        IdentityCheck("separatrix q1(1) = 49/64", err_q1, 1e-12),
        IdentityCheck("v_plus_squared o q_of_vplus = id", err_round),
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
