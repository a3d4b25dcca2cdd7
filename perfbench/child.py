"""Child processes of the benchmark, each a fresh interpreter.

    child.py setup SRC          import radshock, a first classify and a first shoot
    child.py edge SRC EPS Q     import radshock, warm up, print "ready", shoot one point

Both print one JSON line at the end with the raw time of the measured
work; `edge` adds its shot's normalized time (see calibrate.py).  `edge` prints "ready" just before the shot, so the parent
can start the point's wall budget after the import.  Its outcome class is "verdict" (a
ProfileVerdict), "typed_error" (a RadshockError) or "untyped" (any other
exception); a timeout is decided by the parent, which kills this process.
"""

import time

T_START = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402


def setup(src: str) -> dict:
    sys.path.insert(0, src)
    import radshock

    t1 = time.perf_counter()
    radshock.classify(1.0, 0.8)
    t2 = time.perf_counter()
    radshock.shoot(1.0, 0.8)
    t3 = time.perf_counter()
    return {"setup_s": t3 - T_START, "import_s": t1 - T_START,
            "classify_s": t2 - t1, "shoot_s": t3 - t2}


def edge(src: str, eps: float, q_tilde: float) -> dict:
    sys.path.insert(0, src)
    import radshock

    # One interior shot first, so the timed shot pays no first-call costs;
    # those belong to setup_s.
    radshock.shoot(1.0, 0.8)
    from calibrate import Calibrator

    calibrator = Calibrator()
    print("ready", flush=True)
    t0 = time.perf_counter()
    mark = calibrator.begin()
    try:
        res = radshock.shoot(eps, q_tilde)
        out = {
            "outcome": "verdict",
            "detail": res.verdict.value,
            "samples": int(res.states.shape[0]),
            "end_gap": end_gap(res),
        }
    except radshock.RadshockError as exc:
        out = {"outcome": "typed_error", "detail": type(exc).__name__, "samples": 0}
    except Exception as exc:  # noqa: BLE001 - an escaped untyped error is the measurement
        out = {"outcome": "untyped", "detail": f"{type(exc).__name__}: {exc}", "samples": 0}
    out["norm_s"] = calibrator.end(mark)
    out["shot_s"] = time.perf_counter() - t0
    return out


def end_gap(res) -> float:
    """Distance of the last sample from psi_plus, relative to |psi_minus - psi_plus|."""
    import numpy as np

    plus = res.psi_plus.as_array()
    return float(
        np.linalg.norm(res.states[-1] - plus) / np.linalg.norm(res.psi_minus.as_array() - plus)
    )


if __name__ == "__main__":
    if sys.argv[1] == "setup":
        result = setup(sys.argv[2])
    else:
        result = edge(sys.argv[2], float(sys.argv[3]), float(sys.argv[4]))
    print(json.dumps(result), flush=True)
