import importlib.machinery
import math
import os
import subprocess
import sys
from pathlib import Path

from hypothesis import settings

import radshock
from radshock import shooting

settings.register_profile("ci", derandomize=True, max_examples=150)
settings.load_profile("ci")


def run_python(*args, **kwargs):
    """Run `python ARGS` in a fresh interpreter that imports this checkout's src.

    The output is captured as text; other keyword arguments (cwd, timeout,
    check) go to `subprocess.run`.  Returns its CompletedProcess.
    """
    env = dict(os.environ)
    src = str(Path(radshock.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=env, **kwargs
    )


def hide_module(monkeypatch, name):
    """Make `importlib.machinery.PathFinder` find no module `name` while `monkeypatch` holds.

    The loaded LSODA runner is dropped first, so the next shot looks its
    compiled module up afresh.
    """
    finder = importlib.machinery.PathFinder
    lookup = finder.find_spec
    shooting._lsoda.cache_clear()
    monkeypatch.setattr(
        finder,
        "find_spec",
        lambda full, path=None, target=None: None if full == name else lookup(full, path, target),
    )


def bisect_root(f, lo, hi, tol=1e-14, max_iter=200):
    """Plain bisection; the independent oracle used against closed forms."""
    flo, fhi = f(lo), f(hi)
    assert flo * fhi < 0.0, f"no sign change on [{lo}, {hi}]"
    for _ in range(max_iter):
        mid = 0.5 * (lo + hi)
        fm = f(mid)
        if fm == 0.0 or hi - lo < tol:
            return mid
        if flo * fm < 0.0:
            hi = mid
        else:
            lo, flo = mid, fm
    return 0.5 * (lo + hi)


def bracketed_roots(f, lo, hi, n=4000, tol=1e-13):
    """All simple roots of f on [lo, hi] found by scanning for sign changes."""
    xs = [lo + (hi - lo) * i / n for i in range(n + 1)]
    vals = [f(x) for x in xs]
    roots = []
    for a, b, fa, fb in zip(xs, xs[1:], vals, vals[1:]):
        if fa == 0.0:
            roots.append(a)
        elif fa * fb < 0.0:
            roots.append(bisect_root(f, a, b, tol=tol))
    if vals[-1] == 0.0:
        roots.append(xs[-1])
    return roots


def rel_err(lhs, rhs, scale=0.0):
    return abs(lhs - rhs) / max(1.0, abs(lhs), abs(rhs), scale)


def frob_sq(m):
    return float((m * m).sum())


def spiral_samples(center, amplitude=1e-3, t_max=20.0, n=2001):
    """Damped spiral fixture around a fixed point, as (n, 2) samples."""
    out = []
    for i in range(n):
        t = t_max * i / (n - 1)
        decay = amplitude * math.exp(-t)
        out.append(
            (center[0] + decay * math.cos(t), center[1] + decay * math.sin(t))
        )
    return out
