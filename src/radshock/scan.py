"""Parameter-square sweeps and their CSV/JSON/SVG emitters.

A scan evaluates the region label and the classifying polynomial value on a
rectangular grid, optionally shoots a profile per cell, and always emits the
two separatrix polylines.  Output is byte-deterministic: floats are printed
with 17 significant digits and cells are ordered by (eps index, q index).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import classification as cls
from .equilibria import v_plus_squared
from .errors import ParamsOutOfOmega, RadshockError
from .shooting import ShootOptions, shoot

EPS_MARGIN = 1e-6
Q_MARGIN = 1e-6

_SVG_COLORS = {
    "NodeBelow": "#5b8dd9",
    "Focus": "#d96a6a",
    "NodeAbove": "#67b36b",
    "Separatrix1": "#222222",
    "Separatrix2": "#222222",
}

SCAN_JSON_SCHEMA = {
    "type": "object",
    "required": ["meta", "records", "separatrices"],
    "properties": {
        "meta": {
            "type": "object",
            "required": ["schema_version", "eps_range", "q_range", "shoot"],
            "properties": {
                "schema_version": {"const": 1},
                "eps_range": {"type": "array", "minItems": 3, "maxItems": 3},
                "q_range": {"type": "array", "minItems": 3, "maxItems": 3},
                "shoot": {"type": "boolean"},
            },
        },
        "records": {
            "type": "array",
            "items": {
                "type": "object",
                "required": [
                    "eps", "q_tilde", "region", "v_plus_sq",
                    "discriminant", "shoot_verdict", "oscillatory",
                ],
                "properties": {
                    "eps": {"type": "number"},
                    "q_tilde": {"type": "number"},
                    "region": {"type": "string"},
                    "v_plus_sq": {"type": "number"},
                    "discriminant": {"type": "number"},
                    "shoot_verdict": {"type": ["string", "null"]},
                    "oscillatory": {"type": ["boolean", "null"]},
                },
            },
        },
        "separatrices": {
            "type": "object",
            "required": ["q1", "q2"],
            "properties": {
                "q1": {"type": "array"},
                "q2": {"type": "array"},
            },
        },
    },
}


FORMATS = ("csv", "json", "svg")

# A dict lookup per scan cell; Enum .value goes through a descriptor.
_REGION_TEXT = {label: label.value for label in cls.RegionLabel}


@dataclass(frozen=True)
class ScanConfig:
    eps_lo: float = EPS_MARGIN
    eps_hi: float = 1.0
    eps_count: int = 100
    q_lo: float = 0.75 + Q_MARGIN
    q_hi: float = 1.0 - Q_MARGIN
    q_count: int = 100
    shoot: bool = False
    fmt: str = "csv"

    def __post_init__(self):
        if self.eps_count < 2 or self.q_count < 2:
            raise ParamsOutOfOmega("grid counts must be >= 2")
        if not (EPS_MARGIN <= self.eps_lo < self.eps_hi <= 1.0):
            raise ParamsOutOfOmega(
                f"eps range [{self.eps_lo}, {self.eps_hi}] outside [{EPS_MARGIN}, 1]"
            )
        if not (0.75 + Q_MARGIN <= self.q_lo < self.q_hi <= 1.0 - Q_MARGIN):
            raise ParamsOutOfOmega(
                f"q range [{self.q_lo}, {self.q_hi}] outside "
                f"[{0.75 + Q_MARGIN}, {1.0 - Q_MARGIN}]"
            )
        if self.fmt not in FORMATS:
            raise ValueError(f"format must be one of {FORMATS}, got {self.fmt!r}")


@dataclass(frozen=True)
class ScanRecord:
    eps: float
    q_tilde: float
    region: str
    v_plus_sq: float
    discriminant: float
    shoot_verdict: str | None = None
    oscillatory: bool | None = None


@dataclass(frozen=True)
class ScanResult:
    config: ScanConfig
    records: list[ScanRecord]
    separatrix1: list[tuple[float, float]]
    separatrix2: list[tuple[float, float]]


def _separatrix_polylines(config: ScanConfig) -> tuple[list, list]:
    n = max(config.eps_count, 64)
    sep1 = []
    for e in np.linspace(config.eps_lo, config.eps_hi, n):
        sep1.append((float(e), cls.separatrix_q1(float(e))))
    sep2 = []
    hi2 = min(config.eps_hi, cls.epsilon_hat() - 1e-9)
    if config.eps_lo < hi2:
        for e in np.linspace(config.eps_lo, hi2, n):
            sep2.append((float(e), cls.separatrix_q2(float(e))))
    return sep1, sep2


def run_scan(config: ScanConfig, shoot_options: ShootOptions | None = None) -> ScanResult:
    """Classify every grid cell; optionally shoot a profile per cell.

    Shooting failures of individual cells are recorded by error name in the
    shoot_verdict column so a sweep never dies half way.
    """
    eps_grid = np.linspace(config.eps_lo, config.eps_hi, config.eps_count)
    q_grid = np.linspace(config.q_lo, config.q_hi, config.q_count)
    q_list = q_grid.tolist()
    v_plus_sq = v_plus_squared(q_grid).tolist()
    records: list[ScanRecord] = []
    for e in eps_grid.tolist():
        labels, pvals = cls.classify_row(e, q_grid)
        for q, label, z, pval in zip(q_list, labels, v_plus_sq, pvals.tolist()):
            verdict: str | None = None
            oscillatory: bool | None = None
            if config.shoot:
                try:
                    res = shoot(e, q, shoot_options)
                    verdict = res.verdict.value
                    oscillatory = res.oscillation.oscillatory
                except RadshockError as exc:
                    verdict = type(exc).__name__
            records.append(
                ScanRecord(e, q, _REGION_TEXT[label], z, pval, verdict, oscillatory)
            )
    sep1, sep2 = _separatrix_polylines(config)
    return ScanResult(config=config, records=records, separatrix1=sep1, separatrix2=sep2)


def _g(x: float) -> str:
    return format(float(x), ".17g")


class _TextMemo(dict):
    """Text of each distinct number, made once; one per emitter call.

    A grid repeats each eps, q_tilde and v_plus^2 many times.  Zeros are not
    kept: 0.0 == -0.0 as keys, but the two print differently.
    """

    def __init__(self, text=_g):
        super().__init__()
        self._text = text

    def __missing__(self, x):
        s = self._text(x)
        if x:
            self[x] = s
        return s


def scan_to_csv(result: ScanResult) -> str:
    g = _TextMemo()
    lines = ["eps,q_tilde,region,v_plus_sq,discriminant,shoot_verdict,oscillatory"]
    for r in result.records:
        verdict = r.shoot_verdict or ""
        osc = "" if r.oscillatory is None else ("true" if r.oscillatory else "false")
        lines.append(
            f"{g[r.eps]},{g[r.q_tilde]},{r.region},{g[r.v_plus_sq]},"
            f"{_g(r.discriminant)},{verdict},{osc}"
        )
    lines.append("# separatrix q1")
    lines.append("eps,q_tilde")
    lines.extend(f"{_g(e)},{_g(q)}" for e, q in result.separatrix1)
    lines.append("# separatrix q2")
    lines.append("eps,q_tilde")
    lines.extend(f"{_g(e)},{_g(q)}" for e, q in result.separatrix2)
    return "\n".join(lines) + "\n"


def _json_pairs(points: list[tuple[float, float]]) -> str:
    return "[" + ", ".join(f"[{_g(e)}, {_g(q)}]" for e, q in points) + "]"


def scan_to_json(result: ScanResult) -> str:
    # Hand-assembled so numbers keep the same fixed 17-significant-digit
    # formatting as the CSV emitter.
    c = result.config
    g = _TextMemo()
    parts = ["{\n"]
    parts.append(
        '  "meta": {"schema_version": 1, '
        f'"eps_range": [{_g(c.eps_lo)}, {_g(c.eps_hi)}, {c.eps_count}], '
        f'"q_range": [{_g(c.q_lo)}, {_g(c.q_hi)}, {c.q_count}], '
        f'"shoot": {"true" if c.shoot else "false"}}},\n'
    )
    rec_lines = []
    for r in result.records:
        verdict = "null" if r.shoot_verdict is None else f'"{r.shoot_verdict}"'
        osc = "null" if r.oscillatory is None else ("true" if r.oscillatory else "false")
        rec_lines.append(
            f'    {{"eps": {g[r.eps]}, "q_tilde": {g[r.q_tilde]}, '
            f'"region": "{r.region}", "v_plus_sq": {g[r.v_plus_sq]}, '
            f'"discriminant": {_g(r.discriminant)}, '
            f'"shoot_verdict": {verdict}, "oscillatory": {osc}}}'
        )
    parts.append('  "records": [\n' + ",\n".join(rec_lines) + "\n  ],\n")
    parts.append(
        '  "separatrices": {"q1": ' + _json_pairs(result.separatrix1)
        + ', "q2": ' + _json_pairs(result.separatrix2) + "}\n"
    )
    parts.append("}\n")
    return "".join(parts)


def scan_to_svg(result: ScanResult, width: int = 880, height: int = 640) -> str:
    """Standalone SVG: region-colored grid cells plus both separatrices."""
    c = result.config
    ml, mr, mt, mb = 70, 170, 30, 55
    pw, ph = width - ml - mr, height - mt - mb

    def x_of(e: float) -> float:
        return ml + (e - c.eps_lo) / (c.eps_hi - c.eps_lo) * pw

    def y_of(q: float) -> float:
        return mt + (c.q_hi - q) / (c.q_hi - c.q_lo) * ph

    cw = pw / c.eps_count
    ch = ph / c.q_count
    # A cell's x depends on eps alone and its y on q_tilde alone.  The memo
    # is keyed by value, so float() keeps the arithmetic off the key's type.
    cell_x = _TextMemo(lambda e: f"{x_of(float(e)) - cw / 2.0:.2f}")
    cell_y = _TextMemo(lambda q: f"{y_of(float(q)) - ch / 2.0:.2f}")
    size = f'width="{cw:.2f}" height="{ch:.2f}"'
    out = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect x="0" y="0" width="{width}" height="{height}" fill="#ffffff"/>',
    ]
    for r in result.records:
        color = _SVG_COLORS.get(r.region, "#999999")
        out.append(
            f'<rect x="{cell_x[r.eps]}" y="{cell_y[r.q_tilde]}" {size} fill="{color}"/>'
        )
    for pts, color in ((result.separatrix1, "#000000"), (result.separatrix2, "#000000")):
        if not pts:
            continue
        path = " ".join(f"{x_of(e):.2f},{y_of(q):.2f}" for e, q in pts)
        out.append(
            f'<polyline points="{path}" fill="none" stroke="{color}" stroke-width="1.5"/>'
        )
    out.append(
        f'<rect x="{ml}" y="{mt}" width="{pw}" height="{ph}" fill="none" '
        f'stroke="#000000" stroke-width="1"/>'
    )
    out.append(
        f'<text x="{ml + pw / 2:.0f}" y="{height - 14}" text-anchor="middle" '
        f'font-size="15" font-family="sans-serif">dissipation eps</text>'
    )
    out.append(
        f'<text x="18" y="{mt + ph / 2:.0f}" text-anchor="middle" font-size="15" '
        f'font-family="sans-serif" transform="rotate(-90 18 {mt + ph / 2:.0f})">'
        "shock strength q~</text>"
    )
    for e in (c.eps_lo, c.eps_hi):
        out.append(
            f'<text x="{x_of(e):.0f}" y="{mt + ph + 18}" text-anchor="middle" '
            f'font-size="12" font-family="sans-serif">{e:.4g}</text>'
        )
    for q in (c.q_lo, c.q_hi):
        out.append(
            f'<text x="{ml - 8}" y="{y_of(q) + 4:.0f}" text-anchor="end" '
            f'font-size="12" font-family="sans-serif">{q:.6g}</text>'
        )
    legend = [
        ("NodeBelow", "node (below Q1)"),
        ("Focus", "focus"),
        ("NodeAbove", "node (above Q2)"),
        ("Separatrix1", "separatrices"),
    ]
    ly = mt + 8
    for key, text in legend:
        out.append(
            f'<rect x="{ml + pw + 14}" y="{ly}" width="14" height="14" '
            f'fill="{_SVG_COLORS[key]}"/>'
        )
        out.append(
            f'<text x="{ml + pw + 34}" y="{ly + 12}" font-size="13" '
            f'font-family="sans-serif">{text}</text>'
        )
        ly += 22
    out.append("</svg>")
    return "\n".join(out) + "\n"


def render_scan(result: ScanResult, fmt: str | None = None) -> str:
    fmt = result.config.fmt if fmt is None else fmt
    if fmt == "csv":
        return scan_to_csv(result)
    if fmt == "json":
        return scan_to_json(result)
    if fmt == "svg":
        return scan_to_svg(result)
    raise ValueError(f"unknown format {fmt!r}")
