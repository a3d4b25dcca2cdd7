"""Benchmark of the radshock toolkit: one workload, one process, one caller.

Run from the root of a checkout:

    python3 perfbench/run.py --workload map --seed 1 --seconds 20 --trace 0

Every workload runs all four stages of the toolkit -- the node/focus map,
interior shooting, `run_scan(shoot=True)` and the edge points -- so that
every end-to-end metric exists on every workload; the workload's own stage
fills `--seconds` and the others run a small fixed complement.  Outputs are
checked as they are produced.  The last line of stdout is one JSON object
with the end-to-end metrics (`--trace 0`) or the per-layer metrics of a
traced run (`--trace 1`); the line before it holds the run's context.
perfbench/README.md says why each workload exists and which layer each
metric belongs to.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import platform
import resource
import selectors
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import astuple, dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
CHILD = BENCH_DIR / "child.py"
OUT_DIR = ROOT / ".bench_out"

if not (SRC / "radshock" / "__init__.py").is_file():
    sys.exit(f"perfbench: no radshock sources under {SRC}; run from a repository checkout")
sys.path.insert(0, str(SRC))
sys.path.insert(0, str(BENCH_DIR))

import jsonschema  # noqa: E402
import numpy as np  # noqa: E402
import scipy  # noqa: E402

from radshock import (  # noqa: E402
    ProfileVerdict,
    RadshockError,
    ScanConfig,
    b_sharp,
    classify,
    cubic_roots,
    kinematics,
    lin_matrix,
    oscillation_report,
    rest_points,
    run_scan,
    separatrix_q1,
    shoot,
    state_from_v,
    unstable_direction,
    v_plus_squared,
)
from radshock.scan import (  # noqa: E402
    SCAN_JSON_SCHEMA,
    scan_to_csv,
    scan_to_json,
    scan_to_svg,
)
from radshock.verify import run_identity_suite  # noqa: E402
from calibrate import REF_KERNEL_S, SAMPLE_INTERVAL_S  # noqa: E402
from child import end_gap  # noqa: E402
from tracing import Tracer  # noqa: E402

DEFAULT_SEED = 1
MAP_GRID = 200
# Interior box of the shooting workloads: every shot here is non-stiff and
# short (tens of ms).  The three probes pin one shot in each region.
INTERIOR_BOX = (0.05, 1.0, 0.76, 0.99)  # eps_lo, eps_hi, q_lo, q_hi
REGION_PROBES = ((1.0, 0.762), (1.0, 0.8), (0.3, 0.95))  # NodeBelow, Focus, NodeAbove
REGIONS = ("NodeBelow", "Focus", "NodeAbove")

# Wall budget of one edge point.  Costs measured at the first benchmarked
# commit on 2 cores: 0.3-0.45 s and 3.2-4.1 s for the two that converge, at
# least 14.7 s for the slowest one that finishes.  8 s keeps about 2x from
# both sides, so no outcome flips from run to run.
EDGE_BUDGET_S = 8.0
EDGE_POINTS = (
    (1e-3, 0.8),  # stiff, converges
    (1e-4, 0.8),  # stiffer, converges
    (1e-6, 0.8),  # default scan's lower eps edge; no finish in 25 s
    (0.5, 0.9999),  # det(B#) cancellation; HitSingularLocus after ~32 s
    (0.5, 1.0 - 1e-6),  # default scan's upper q edge; raw scipy ValueError at once
    (1.0, 0.75 + 1e-6),  # default scan's lower q edge; Stalled after ~15 s
)
READY_TIMEOUT_S = 120.0  # a child's interpreter start and import
END_GAP_TOL = 1e-6  # a converged shot ends this close to psi_plus, relative

# Passes of each stage when it is not the workload's own stage.
COMPLEMENT_PASSES = {"map": 2, "interior": 1, "edge": 1}
SCAN_SHOOT_SIDE = 6  # grid side of run_scan(shoot=True) over INTERIOR_BOX
VERIFY_PER_MAP = 3  # identity-suite runs per map pass; one takes a fifth of a map
SETUP_REPEATS = 3
OUTCOMES = ("verdict", "typed_error", "untyped", "timeout")


@dataclass(frozen=True)
class Workload:
    main: str  # stage that fills --seconds: "map", "interior" or "edge"
    seeded_points: bool  # interior points drawn from the seed, else stratum centres
    side: int  # interior strata per side of INTERIOR_BOX
    edge_points: tuple


WORKLOADS = {
    "map": Workload("map", False, 8, EDGE_POINTS[:1]),
    "shoot-interior": Workload("interior", True, 12, EDGE_POINTS[:1]),
    "shoot-edge": Workload("edge", False, 8, EDGE_POINTS),
}

# Per-layer values that `layer_metrics` takes from the spans of probe loops,
# as microseconds per call.
PROBED = (
    "model.b_sharp", "model.lin_matrix", "model.kinematics",
    "equilibria.v_plus_squared", "equilibria.rest_points",
    "classification.cubic_roots", "classification.classify", "classification.separatrix_q1",
    "shooting.unstable_direction",
)
OVERHEAD_OF = ("map_s", "verify_s", "shot_p50_ms", "shot_p90_ms", "shoot_cells_per_s", "edge_s")


def interior_points(side: int, seed: int | None) -> list[tuple[float, float]]:
    """One point in each of side x side strata of INTERIOR_BOX, then REGION_PROBES.

    With a seed each point is uniform in its stratum; without one it is the
    stratum's centre.
    """
    e_lo, e_hi, q_lo, q_hi = INTERIOR_BOX
    if seed is None:
        ue = uq = np.full((side, side), 0.5)
    else:
        ue, uq = np.random.default_rng(seed).random((2, side, side))
    pts = [
        (float(e_lo + (i + ue[i, j]) * (e_hi - e_lo) / side),
         float(q_lo + (j + uq[i, j]) * (q_hi - q_lo) / side))
        for i in range(side)
        for j in range(side)
    ]
    return pts + list(REGION_PROBES)


def interior_key(w: Workload, seed: int) -> str:
    return f"side{w.side}-" + (f"seed{seed}" if w.seeded_points else "centres")


def scan_shoot_config() -> ScanConfig:
    e_lo, e_hi, q_lo, q_hi = INTERIOR_BOX
    return ScanConfig(eps_lo=e_lo, eps_hi=e_hi, eps_count=SCAN_SHOOT_SIDE,
                      q_lo=q_lo, q_hi=q_hi, q_count=SCAN_SHOOT_SIDE, shoot=True)


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _norm(span: dict) -> float:
    return span["norm"]


class _LineReader:
    """Lines from a child's stdout pipe, each awaited up to a deadline."""

    def __init__(self, pipe):
        self.fd = pipe.fileno()
        self.buf = b""
        self.sel = selectors.DefaultSelector()
        self.sel.register(self.fd, selectors.EVENT_READ)

    def readline(self, deadline: float) -> str | None:
        """Next line; None at end of file; TimeoutError past the deadline."""
        while b"\n" not in self.buf:
            left = deadline - time.perf_counter()
            if left <= 0.0 or not self.sel.select(left):
                raise TimeoutError
            chunk = os.read(self.fd, 65536)
            if not chunk:
                return None
            self.buf += chunk
        line, _, self.buf = self.buf.partition(b"\n")
        return line.decode()

    def close(self) -> None:
        self.sel.close()


def run_edge_point(eps: float, q_tilde: float, budget: float = EDGE_BUDGET_S) -> dict:
    """Shoot one point in a fresh child and classify how it ended.

    The budget starts once the child has imported radshock.  A child still
    running at the budget is killed and recorded as a timeout at the budget;
    the child is always waited for before returning.  `time_s` is the time
    the point counts for: the normalized shot time if the child reported,
    the budget if it was killed.
    """
    rec = {"eps": eps, "q_tilde": q_tilde, "samples": None}
    t_spawn = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(CHILD), "edge", str(SRC), repr(eps), repr(q_tilde)],
        stdout=subprocess.PIPE, bufsize=0,
    )
    reader = _LineReader(proc.stdout)
    try:
        try:
            ready = reader.readline(t_spawn + READY_TIMEOUT_S)
        except TimeoutError:
            ready = None
        t0 = time.perf_counter()
        rec["spawn_s"] = t0 - t_spawn
        if ready != "ready":
            rec.update(outcome="no_start", detail="child did not start", wall_s=0.0, time_s=0.0)
            return rec
        try:
            line = reader.readline(t0 + budget)
        except TimeoutError:
            rec.update(outcome="timeout", detail=f"killed at the {budget} s budget",
                       wall_s=budget, time_s=budget)
            return rec
        wall = time.perf_counter() - t0
        if line is None:
            rec.update(outcome="untyped", detail=f"child died, exit code {proc.wait()}",
                       wall_s=wall, time_s=wall)
            return rec
        rec.update(json.loads(line), wall_s=wall)
        rec["time_s"] = rec["norm_s"]
        return rec
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        reader.close()
        proc.stdout.close()


def edge_record_ok(rec: dict) -> bool:
    """An edge point was measured and, if it claims convergence, really converged."""
    if rec["outcome"] not in OUTCOMES:
        return False
    if rec["outcome"] != "verdict":
        return True
    if rec["detail"] not in {v.value for v in ProfileVerdict}:
        return False
    return rec["detail"] != ProfileVerdict.CONVERGED_TO_PLUS.value or rec["end_gap"] <= END_GAP_TOL


def measure_setup(repeats: int = SETUP_REPEATS) -> list[dict]:
    """Fresh interpreters doing import + first classify + first shoot.

    One unmeasured start first fills the bytecode caches, which an installed
    package already has.  These times are raw: import time does not follow
    the calibration kernel's speed (see calibrate.py).
    """
    cmd = [sys.executable, str(CHILD), "setup", str(SRC)]
    subprocess.run(cmd, check=True, capture_output=True, timeout=READY_TIMEOUT_S)
    splits = []
    for _ in range(repeats):
        out = subprocess.run(cmd, check=True, capture_output=True, text=True,
                             timeout=READY_TIMEOUT_S)
        splits.append(json.loads(out.stdout.splitlines()[-1]))
    return splits


class Run:
    """One pass over a workload's stages, timed, traced when asked, and checked."""

    def __init__(self, name: str, seed: int, tracer: Tracer, ref: dict):
        self.name, self.w, self.seed, self.tr, self.ref = name, WORKLOADS[name], seed, tracer, ref
        self.points = interior_points(self.w.side, seed if self.w.seeded_points else None)
        self.regions = [classify(e, q).value for e, q in self.points]
        self.point_ref = ref["interior"].get(interior_key(self.w, seed))
        self.map_s: list[float] = []
        self.verify_s: list[float] = []
        self.verify_passed = self.verify_total = 0
        self.shots: list[dict] = []
        self.scan_cells = 0
        self.scan_s = 0.0
        self.scan_overhead: list[float] = []
        self.edge_passes: list[list[dict]] = []
        self.emitted: dict[str, int] = {}
        self.map_digests: list[str] | None = None
        self.check_s = 0.0  # time spent in the deep checks of the first map pass
        self.attempted = self.failed = 0
        self.failures: list[str] = []

    def op(self, problem: str | None) -> None:
        """Count one operation; a non-empty problem marks it failed."""
        self.attempted += 1
        if problem:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(problem)

    def stages(self, seconds: float) -> None:
        """Fixed complements of the other stages, then the own stage for `seconds`.

        The one-off deep output checks of the first map pass do not count
        against `seconds`.
        """
        passes = {"map": self.map_pass, "interior": self.interior_pass, "edge": self.edge_pass}
        for stage, count in COMPLEMENT_PASSES.items():
            if stage != self.w.main:
                for _ in range(count):
                    passes[stage]()
        checks_before = self.check_s
        t_end = time.perf_counter() + seconds
        while True:
            passes[self.w.main]()
            if time.perf_counter() - (self.check_s - checks_before) >= t_end:
                break

    # -- map: 200x200 classification scan, three emitters, identity suite --

    def map_pass(self) -> None:
        tr = self.tr
        cfg = ScanConfig(eps_count=MAP_GRID, q_count=MAP_GRID)
        texts = {}
        with tr.span("bench.map"):
            with tr.span("scan.run_scan", calibrate=True, cells=MAP_GRID * MAP_GRID) as s:
                res = run_scan(cfg)
            map_s = _norm(s)
            for fmt, emit in (("csv", scan_to_csv), ("json", scan_to_json), ("svg", scan_to_svg)):
                with tr.span(f"scan.{fmt}", calibrate=True) as s:
                    texts[fmt] = emit(res)
                s["bytes"] = len(texts[fmt])
                map_s += _norm(s)
        self.map_s.append(map_s)
        self.emitted = {fmt: len(t) for fmt, t in texts.items()}
        first, t0 = self.map_digests is None, time.perf_counter()
        self.op(self.check_map(res, texts))
        if first:
            self.check_s = time.perf_counter() - t0

        for _ in range(VERIFY_PER_MAP):
            with tr.span("verify.run_identity_suite", calibrate=True) as s:
                checks = run_identity_suite(seed=self.seed)
            self.verify_s.append(_norm(s))
            self.verify_passed = sum(bool(c.passed) for c in checks)
            self.verify_total = len(checks)
            bad = [c.name for c in checks if not c.passed]
            self.op(f"identity checks failed: {bad}" if bad else None)

    def check_map(self, res, texts: dict[str, str]) -> str | None:
        """Deep checks on the first pass; later passes must emit the same bytes.

        The schema validation takes about 3 s, so it runs only where the map
        is the workload's own stage; the output is deterministic, so the map
        workload's check covers the others.
        """
        digests = [sha256(texts[f]) for f in ("csv", "json", "svg")]
        if self.map_digests is not None:
            return None if digests == self.map_digests else "map output changed between passes"
        self.map_digests = digests
        regions = [r.region for r in res.records]
        if sha256("\n".join(regions)) != self.ref["map"]["region_sha256"]:
            return f"region labels differ from the reference: {dict(Counter(regions))}"
        try:
            doc = json.loads(texts["json"])
            if self.w.main == "map":
                jsonschema.Draft7Validator(SCAN_JSON_SCHEMA).validate(doc)
        except (ValueError, jsonschema.ValidationError) as exc:
            return f"scan JSON invalid: {str(exc)[:200]}"
        if [r["region"] for r in doc["records"]] != regions:
            return "scan JSON regions differ from the records"
        n = len(res.records)
        rows = list(csv.reader(texts["csv"].splitlines()[1:n + 1]))
        flags = {"": None, "true": True, "false": False}
        parsed = [
            (float(r[0]), float(r[1]), r[2], float(r[3]), float(r[4]), r[5] or None, flags[r[6]])
            for r in rows
        ]
        if parsed != [astuple(r) for r in res.records]:
            return "scan CSV does not parse back to the records"
        return None

    # -- interior: rest points, unstable direction and shot per point, then run_scan(shoot) --

    def interior_pass(self) -> None:
        tr = self.tr
        for k, ((eps, q), region) in enumerate(zip(self.points, self.regions)):
            with tr.span("bench.point", eps=eps, q_tilde=q):
                try:
                    with tr.span("equilibria.rest_points"):
                        rest_points(q)
                    with tr.span("shooting.unstable_direction"):
                        unstable_direction(eps, q)
                    with tr.span("shooting.shoot", calibrate=True, region=region) as s:
                        res = shoot(eps, q)
                except RadshockError as exc:
                    self.op(f"interior ({eps}, {q}): {type(exc).__name__}")
                    continue
                s.update(verdict=res.verdict.value, samples=int(res.states.shape[0]))
                if tr.enabled:
                    with tr.span("shooting.oscillation_report", calibrate=True):
                        oscillation_report(res.states, res.psi_plus)
            self.shots.append({"ms": _norm(s) * 1e3, "samples": s["samples"]})
            self.op(self.check_shot(k, res))

        with tr.span("scan.run_scan_shoot", calibrate=True) as s:
            res = run_scan(scan_shoot_config())
        self.scan_cells += len(res.records)
        self.scan_s += _norm(s)
        got = [[r.shoot_verdict, r.oscillatory] for r in res.records]
        self.op(None if got == self.ref["scan_shoot"] else
                "run_scan(shoot=True) verdicts differ from the reference")
        if tr.enabled:
            self.scan_overhead.append(_norm(s) - self.shoot_cells(res.records))

    def shoot_cells(self, records) -> float:
        """Shoot each scan cell directly; the summed shot time."""
        total = 0.0
        with self.tr.span("bench.scan_cells"):
            for r in records:
                with self.tr.span("shooting.shoot", calibrate=True, region=r.region) as s:
                    try:
                        res = shoot(r.eps, r.q_tilde)
                        s.update(verdict=res.verdict.value, samples=int(res.states.shape[0]))
                    except RadshockError:
                        s.update(verdict="error", samples=0)
                total += _norm(s)
        return total

    def check_shot(self, k: int, res) -> str | None:
        where = f"interior point {k} {self.points[k]}"
        if not isinstance(res.verdict, ProfileVerdict):
            return f"{where}: untyped verdict {res.verdict!r}"
        if res.verdict is ProfileVerdict.CONVERGED_TO_PLUS:
            gap = end_gap(res)
            if not gap <= END_GAP_TOL:
                return f"{where}: converged but ends {gap:.3g} away from psi_plus"
        if self.point_ref is not None:
            want = self.point_ref[k]
            if [res.verdict.value, res.oscillation.oscillatory] != want:
                return f"{where}: got {res.verdict.value}/{res.oscillation.oscillatory}, want {want}"
        return None

    # -- edge: each point in its own child under the wall budget --

    def edge_pass(self) -> None:
        results = []
        for eps, q in self.w.edge_points:
            with self.tr.span("edge.point", eps=eps, q_tilde=q) as s:
                rec = run_edge_point(eps, q)
            s.update(outcome=rec["outcome"], samples=rec["samples"])
            results.append(rec)
            self.op(None if edge_record_ok(rec) else f"edge point ({eps}, {q}): {rec}")
        self.edge_passes.append(results)

    # -- traced run only: per-call cost of the cheap layers on workload inputs --

    def layer_probes(self) -> None:
        tr = self.tr
        # The identity suite's own states: same draws, same order, same seed.
        rng = np.random.default_rng(self.seed)
        n = 4000
        v = np.sqrt(rng.uniform(1e-6, 2.0, n)) * rng.choice([-1.0, 1.0], n)
        eps = [float(e) for e in rng.uniform(1e-6, 1.0, n)]
        states = [state_from_v(float(x)) for x in v]
        cfg = ScanConfig(eps_count=MAP_GRID, q_count=MAP_GRID)
        eps_grid = [float(e) for e in np.linspace(cfg.eps_lo, cfg.eps_hi, MAP_GRID)]
        q_grid = [float(q) for q in np.linspace(cfg.q_lo, cfg.q_hi, MAP_GRID)]
        cells = np.random.default_rng(self.seed).integers(0, MAP_GRID, (n, 2))

        def probe(name: str, calls: int):
            return tr.span(name, calibrate=True, calls=calls)

        with tr.span("bench.probes"):
            with probe("model.kinematics", n):
                kins = [kinematics(s) for s in states]
            with probe("model.b_sharp", n):
                for kin, e in zip(kins, eps):
                    b_sharp(kin, e)
            with probe("model.lin_matrix", n):
                for kin in kins:
                    lin_matrix(kin)
            with probe("equilibria.v_plus_squared", 10 * MAP_GRID):
                for _ in range(10):
                    for q in q_grid:
                        v_plus_squared(q)
            with probe("equilibria.rest_points", len(self.points)):
                for _, q in self.points:
                    rest_points(q)
            with probe("classification.cubic_roots", MAP_GRID):
                for e in eps_grid:
                    cubic_roots(e)
            with probe("classification.classify", n):
                for i, j in cells:
                    classify(eps_grid[i], q_grid[j])
            with probe("classification.separatrix_q1", MAP_GRID):
                for e in eps_grid:
                    separatrix_q1(e)
            with probe("shooting.unstable_direction", len(self.points)):
                for e, q in self.points:
                    unstable_direction(e, q)


def peak_rss_mb() -> float:
    """Largest resident set of this process or of any child it waited for."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


E2E_UNITS = {
    "setup_s": "s", "map_s": "s", "verify_s": "s", "shot_p50_ms": "ms", "shot_p90_ms": "ms",
    "shoot_cells_per_s": "1/s", "edge_s": "s", "edge_done_frac": "frac", "peak_rss_mb": "MB",
}
DONE = ("verdict", "typed_error")


def e2e_values(run: Run) -> dict[str, float]:
    """The end-to-end metrics a pass of stages yields, setup and memory aside."""
    shot_ms = [s["ms"] for s in run.shots]
    edge = [r for p in run.edge_passes for r in p]
    return {
        "map_s": statistics.median(run.map_s),
        "verify_s": statistics.median(run.verify_s),
        "shot_p50_ms": statistics.median(shot_ms),
        "shot_p90_ms": statistics.quantiles(shot_ms, n=10)[-1],
        "shoot_cells_per_s": run.scan_cells / run.scan_s,
        "edge_s": statistics.median(sum(r["time_s"] for r in p) for p in run.edge_passes),
        "edge_done_frac": sum(r["outcome"] in DONE for r in edge) / len(edge),
    }


def layer_metrics(run: Run, splits: list[dict], untraced: dict[str, float]) -> dict:
    """Per-layer metrics of a traced pass, as {name: (value, unit)}."""
    tr = run.tr
    m: dict[str, tuple[float, str]] = {}

    def median_of(name: str, scale: float = 1.0) -> float:
        return statistics.median(map(_norm, tr.named(name))) * scale

    for key, name in (("import_s", "import.radshock_s"), ("classify_s", "import.first_classify_s"),
                      ("shoot_s", "import.first_shoot_s")):
        m[name] = (statistics.median(x[key] for x in splits), "s")

    for name in PROBED:
        (span,) = [s for s in tr.named(name) if "calls" in s]
        m[name + "_us"] = (_norm(span) / span["calls"] * 1e6, "us")

    m["scan.run_scan_s"] = (median_of("scan.run_scan"), "s")
    m["scan.cells"] = (MAP_GRID * MAP_GRID, "count")
    for fmt in ("csv", "json", "svg"):
        m[f"scan.{fmt}_s"] = (median_of(f"scan.{fmt}"), "s")
        m[f"scan.{fmt}_bytes"] = (run.emitted[fmt], "bytes")
    m["scan.shoot_overhead_s"] = (statistics.median(run.scan_overhead), "s")
    m["scan.shoot_cells"] = (SCAN_SHOOT_SIDE ** 2, "count")

    shots = tr.named("shooting.shoot")
    samples = sum(s["samples"] for s in shots)
    for region in REGIONS:
        m[f"shooting.shoot_ms.{region}"] = (
            statistics.median(_norm(s) for s in shots if s["region"] == region) * 1e3, "ms")
    m["shooting.shots"] = (len(shots), "count")
    m["shooting.samples_per_shot"] = (samples / len(shots), "count")
    m["shooting.us_per_sample"] = (sum(map(_norm, shots)) / samples * 1e6, "us")
    m["shooting.oscillation_report_ms"] = (median_of("shooting.oscillation_report", 1e3), "ms")
    verdicts = Counter(s["verdict"] for s in shots)
    for v in ProfileVerdict:
        m[f"shooting.verdicts.{v.value}"] = (verdicts[v.value], "count")

    edge = [r for p in run.edge_passes for r in p]
    outcomes = Counter(r["outcome"] for r in edge)
    m["edge.points"] = (len(edge), "count")
    for outcome in OUTCOMES:
        m[f"edge.{outcome}"] = (outcomes[outcome], "count")
    m["edge.done_s"] = (sum(r["time_s"] for r in edge if r["outcome"] in DONE), "s")
    m["edge.samples"] = (sum(r["samples"] or 0 for r in edge), "count")
    m["edge.spawn_s"] = (statistics.median(r["spawn_s"] for r in edge), "s")

    m["verify.suite_s"] = (statistics.median(run.verify_s), "s")
    m["verify.checks_passed"] = (run.verify_passed, "count")
    m["verify.checks"] = (run.verify_total, "count")

    m["trace.spans"] = (len(tr.spans), "count")
    for layer, secs in tr.self_seconds().items():
        m[f"trace.self_s.{layer}"] = (secs, "s")
    traced = e2e_values(run)
    for name in OVERHEAD_OF:
        m[f"trace.overhead.{name}"] = (traced[name] - untraced[name], E2E_UNITS[name])
    return m


def context(run: Run, seconds: float, trace: int, splits: list[dict]) -> dict:
    w = run.w
    kernels = run.tr.calibrator.kernels
    return {
        "workload": run.name,
        "seed": run.seed,
        "seconds": seconds,
        "trace": trace,
        "machine": {
            "nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "platform": platform.platform(),
        },
        "calibration": {
            "ref_kernel_s": REF_KERNEL_S,
            "sample_interval_s": SAMPLE_INTERVAL_S,
            "kernel_runs": len(kernels),
            "kernel_median_s": statistics.median(kernels),
            "kernel_min_s": min(kernels),
            "kernel_max_s": max(kernels),
        },
        "map_grid": [MAP_GRID, MAP_GRID],
        "interior_box": list(INTERIOR_BOX),
        "interior_points": {"count": len(run.points), "seeded": w.seeded_points, "side": w.side},
        "scan_shoot_grid": [SCAN_SHOOT_SIDE, SCAN_SHOOT_SIDE],
        "edge_budget_s": EDGE_BUDGET_S,
        "work": {
            "setup": splits,
            "map_passes": len(run.map_s),
            "map_cells": MAP_GRID * MAP_GRID * len(run.map_s),
            "emitted_bytes": run.emitted,
            "verify_passes": len(run.verify_s),
            "shots": len(run.shots),
            "shot_samples": sum(s["samples"] for s in run.shots),
            "scan_shoot_cells": run.scan_cells,
            "edge": [r for p in run.edge_passes for r in p],
        },
        "failures": run.failures,
    }


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=5.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    ref = json.loads((BENCH_DIR / "reference.json").read_text())

    splits = measure_setup()
    run = Run(args.workload, args.seed, Tracer(enabled=False), ref)
    if not args.trace:
        run.stages(args.seconds)
        values = e2e_values(run)
        values["setup_s"] = statistics.median(x["setup_s"] for x in splits)
        values["peak_rss_mb"] = peak_rss_mb()
        metrics = {k: {"value": float(values[k]), "unit": E2E_UNITS[k]} for k in E2E_UNITS}
    else:
        # Half the time untraced, half traced; their difference is the
        # tracing overhead.  Per-layer figures come from the traced half.
        run.stages(args.seconds / 2)
        untraced = e2e_values(run)
        traced = Run(args.workload, args.seed, Tracer(enabled=True), ref)
        traced.layer_probes()
        traced.stages(args.seconds / 2)
        layers = layer_metrics(traced, splits, untraced)
        metrics = {k: {"value": float(v), "unit": u} for k, (v, u) in layers.items()}
        traced.tr.write(OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json",
                        context(traced, args.seconds, 1, splits))
        run.attempted += traced.attempted
        run.failed += traced.failed
        run.failures += traced.failures

    print(json.dumps({"context": context(run, args.seconds, args.trace, splits)}))
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
