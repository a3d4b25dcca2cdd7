"""Calibrated timers and in-memory spans for the benchmark.

A span is opened by the benchmark around one call into a radshock layer and
records the layer, its start and end, and the span that caused it.  A span
opened with `calibrate=True` also samples the calibration kernel around and
during the call and stores the call's normalized duration as `norm` (see
calibrate.py).  When tracing is off the same context manager
serves as the timer and keeps nothing; when it is on, spans are kept in
memory and written out once, when the run ends.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from pathlib import Path

from calibrate import Calibrator

LAYERS = (
    "bench", "model", "equilibria", "classification", "scan", "shooting", "verify", "edge",
)


class Tracer:
    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[dict] = []
        self.calibrator = Calibrator()
        self._stack: list[dict] = []

    @contextmanager
    def span(self, name: str, calibrate: bool = False, **attrs):
        """Time the enclosed block: raw `start`/`end`, and `norm` if calibrated."""
        rec = {"name": name, "layer": name.split(".", 1)[0], **attrs}
        if self.enabled:
            parent = self._stack[-1] if self._stack else None
            rec["id"] = len(self.spans)
            rec["parent"] = parent["id"] if parent else None
            rec["trace"] = parent["trace"] if parent else rec["id"]
            self.spans.append(rec)
            self._stack.append(rec)
        mark = self.calibrator.begin() if calibrate else None
        rec["start"] = time.perf_counter()
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            if self.enabled:
                self._stack.pop()
            if calibrate:
                rec["norm"] = self.calibrator.end(mark)

    def named(self, name: str) -> list[dict]:
        return [s for s in self.spans if s["name"] == name]

    def self_seconds(self) -> dict[str, float]:
        """Per-layer self time: each span's raw duration minus its children's.

        Spans come from one thread and nest strictly, so the part of a span
        its children cover is the sum of their durations.  Calibration
        kernels count as self time: those run around a span count for its
        parent, those run inside it for the span.
        """
        covered = [0.0] * len(self.spans)
        for s in self.spans:
            if s["parent"] is not None:
                covered[s["parent"]] += s["end"] - s["start"]
        out = dict.fromkeys(LAYERS, 0.0)
        for s in self.spans:
            out[s["layer"]] += (s["end"] - s["start"]) - covered[s["id"]]
        return out

    def write(self, path: Path, context: dict) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            json.dump({"context": context, "self_s": self.self_seconds(), "spans": self.spans}, fh)
