"""Pinned values of whole shots, one row per point.

A row pins what `shoot` gives at its point: the verdict, the oscillatory
flag, the number of samples, the field evaluations (real ones, the
integrator's right-hand side, and complex ones, the complex-step Jacobians
of the start and of LSODA), and for five rows the sha256 of the shot's
`profile_to_csv`.  `guards` says what the row is there for.  `WORK` and
`INTERIOR_WORK` pin the summed work of the shots at `WORK_POINTS` and at
`INTERIOR_POINTS`.

The tests read these rows, so a change that moves samples edits this file
alone.  Bounds and tolerances stay in their own tests.  Run as

    PYTHONPATH=src python tests/shot_pins.py

it shoots every row and the work points again and prints each pinned value
that differs, as old -> new.  It never writes this file: a person edits it.
"""

from __future__ import annotations

import contextlib
import hashlib
from dataclasses import dataclass

import numpy as np

from radshock import shooting
from radshock.shooting import ShootOptions, profile_to_csv, shoot


@dataclass(frozen=True)
class ShotPin:
    verdict: str
    oscillatory: bool
    samples: int
    evaluations: tuple[int, int]  # (real, complex)
    guards: str
    digest: str | None = None
    tolerances: tuple[float, float] | None = None  # (rel_tol, abs_tol); None for the defaults


PINS = {
    (1.0, 0.762): ShotPin(
        "ConvergedToPlus", False, 174, (358, 4),
        "a node shot, to the last bit",
        digest="8a58b9064c6c782b30260a46361ff5e96e105dd75ba9f44101383e463b107397",
    ),
    (1.0, 0.8): ShotPin(
        "ConvergedToPlus", True, 192, (394, 4),
        "a focus shot, to the last bit; the profile command's stdout",
        digest="6693be1a8137baedd3ffbc94fba12aa245e4f43dbb8af6dc8a43f7f66f723008",
    ),
    (1e-6, 0.8): ShotPin(
        "ConvergedToPlus", False, 360, (640, 54),
        "the default scan's lower eps edge, singularly perturbed, to the last bit",
        digest="557a9cc4db9c48ca763bcb2bace46bfd535ae16d88a69ca3fc4996de73e0ea3f",
    ),
    (0.5, 0.9999): ShotPin(
        "HitSingularLocus", False, 256, (519, 4),
        "det(B#) cancels at psi_minus; the orbit crosses the locus, to the last bit",
        digest="f4b1a49be4f4e75dd8466406dcc65c615de271d7a4c923aa5df4c6d902694edb",
    ),
    (1.0, 1.0 - 1e-6): ShotPin(
        "ConvergedToPlus", False, 373, (763, 4),
        "the default scan's upper q edge at eps = 1, to the last bit",
        digest="d69273e4dec38e6e7317c0d0d39e37862227229008e795f23dda4529c86e5bd6",
    ),
    (1e-3, 0.8): ShotPin("ConvergedToPlus", False, 355, (661, 42), "a stiff edge point"),
    (1e-4, 0.8): ShotPin("ConvergedToPlus", False, 344, (624, 40), "a stiffer edge point"),
    (0.5, 1.0 - 1e-6): ShotPin(
        "HitSingularLocus", False, 332, (681, 4),
        "the upper q edge, where LSODA stepping psi misread the field as stiff",
    ),
    (1.0, 0.75 + 1e-6): ShotPin(
        "ConvergedToPlus", False, 186, (261, 38),
        "the lower q edge, where the decay rate at psi_plus vanishes",
    ),
    (1.0, 0.76): ShotPin("ConvergedToPlus", False, 173, (358, 10), "the profile command's stdout"),
    (0.526, 0.763): ShotPin(
        "ConvergedToPlus", False, 164, (336, 4),
        "the profile command's stdout: a focus whose spiral stays below the noise floor",
    ),
    (0.5, 0.9): ShotPin(
        "ConvergedToPlus", False, 490, (935, 14),
        "rel_tol below 100 ulp, raised to it for LSODA",
        tolerances=(1e-16, 1e-20),
    ),
}

# The five points whose every sample is pinned, in the digest tests' order.
DIGEST_POINTS = [point for point, pin in PINS.items() if pin.digest is not None]

# The centres of an 8x8 split of eps in [0.05, 1], q_tilde in [0.76, 0.99],
# then a node, a focus and a slow spiral.
WORK_POINTS = [
    (0.05 + (i + 0.5) * 0.95 / 8, 0.76 + (j + 0.5) * 0.23 / 8) for i in range(8) for j in range(8)
] + [(1.0, 0.762), (1.0, 0.8), (0.3, 0.95)]

# Summed over the shots at WORK_POINTS: (real evaluations, complex ones, samples).
WORK = (33_270, 310, 16_321)

# The benchmark's 147 seed-1 interior points (perfbench/run.py, `interior_points(12, 1)`):
# one uniform point in each cell of a 12x12 split of eps in [0.05, 1],
# q_tilde in [0.76, 0.99], then the node, the focus and the slow spiral.
_U_EPS, _U_Q = np.random.default_rng(1).random((2, 12, 12)).tolist()
INTERIOR_POINTS = [
    (0.05 + (i + _U_EPS[i][j]) * (1.0 - 0.05) / 12, 0.76 + (j + _U_Q[i][j]) * (0.99 - 0.76) / 12)
    for i in range(12) for j in range(12)
] + [(1.0, 0.762), (1.0, 0.8), (0.3, 0.95)]
INTERIOR_WORK = (72_331, 768, 35_634)


@contextlib.contextmanager
def counted_evaluations():
    """Count the calls of every field closure `shoot` builds, into {"real": n, "complex": n}."""
    calls = {"real": 0, "complex": 0}
    make_field = shooting._field

    def counting_factory(eps, q_tilde, vp2, vm2):
        field = make_field(eps, q_tilde, vp2, vm2)

        def counting_field(y0, y1):
            kind = "complex" if isinstance(y0, complex) or isinstance(y1, complex) else "real"
            calls[kind] += 1
            return field(y0, y1)

        return counting_field

    shooting._field = counting_factory
    try:
        yield calls
    finally:
        shooting._field = make_field


def measure(point) -> ShotPin:
    """The row that a shot at `point`, with its row's tolerances, gives now."""
    pin = PINS[point]
    opts = ShootOptions(*pin.tolerances) if pin.tolerances else None
    with counted_evaluations() as calls:
        res = shoot(*point, opts)
    digest = hashlib.sha256(profile_to_csv(res).encode()).hexdigest() if pin.digest else None
    return ShotPin(
        res.verdict.value, res.oscillation.oscillatory, len(res.times),
        (calls["real"], calls["complex"]), pin.guards, digest, pin.tolerances,
    )


def measure_work(points) -> tuple[int, int, int]:
    """(real evaluations, complex ones, samples) summed over shots at `points`."""
    with counted_evaluations() as calls:
        samples = sum(len(shoot(*point).times) for point in points)
    return calls["real"], calls["complex"], samples


def main() -> None:
    for point, pin in PINS.items():
        now = measure(point)
        for name in ("verdict", "oscillatory", "samples", "evaluations", "digest"):
            old, new = getattr(pin, name), getattr(now, name)
            if old != new:
                print(f"{point} {name}: {old} -> {new}")
    for name, points, pinned in (("work", WORK_POINTS, WORK),
                                 ("interior work", INTERIOR_POINTS, INTERIOR_WORK)):
        if (work := measure_work(points)) != pinned:
            print(f"{name} (real, complex, samples): {pinned} -> {work}")


if __name__ == "__main__":
    main()
