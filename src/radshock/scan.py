"""Parameter-square sweeps and their CSV/JSON/SVG emitters.

A scan evaluates the region label and the classifying polynomial value on a
rectangular grid, optionally shoots a profile per cell, and always emits the
two separatrix polylines.  Output is byte-deterministic: floats are printed
with 17 significant digits and cells are ordered by (eps index, q index).
The grid is classified in one call, and the cells are kept as columns, one
per `ScanRecord` field, the scan's one field list; a record is built only
when a caller reads one.  The numeric columns are turned into text once per
table, by the first emitter call, and the CSV and JSON emitters share that
text.  Each emitter writes its document in one join over the column texts
and the literals between them (`_woven`), building no line; the string
columns and the SVG's cell coordinates go through memos whose text comes
with the literal around it.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, fields
from functools import cached_property
from itertools import chain, repeat

import numpy as np

from . import classification as cls
from .equilibria import Q_MAX, Q_MIN
from .errors import DomainError, OptionOutOfRange, ParamsOutOfOmega, RadshockError, _count, _real
from .shooting import ShootOptions, shoot

EPS_MARGIN = 1e-6
Q_MARGIN = 1e-6

_SVG_WIDTH = 880
_SVG_HEIGHT = 640

_SVG_COLORS = {
    "NodeBelow": "#5b8dd9",
    "Focus": "#d96a6a",
    "NodeAbove": "#67b36b",
    "Separatrix1": "#222222",
    "Separatrix2": "#222222",
}
# The end of a cell's rect after its fill attribute, by region, and for any
# other region.
_SVG_FILL = {region: f'{color}"/>\n' for region, color in _SVG_COLORS.items()}
_SVG_FILL_OTHER = '#999999"/>\n'

# The text of an oscillatory flag in each format, with what follows it at
# the end of its row.
_CSV_FLAG = {None: "\n", True: "true\n", False: "false\n"}
_JSON_FLAG = {None: "null}", True: "true}", False: "false}"}


@dataclass(frozen=True)
class ScanRecord:
    """One scan cell; its fields, in order, are the scan's columns."""

    eps: float
    q_tilde: float
    region: str
    v_plus_sq: float
    discriminant: float
    shoot_verdict: str | None = None
    oscillatory: bool | None = None


_FIELDS = tuple(f.name for f in fields(ScanRecord))
_row_of = operator.attrgetter(*_FIELDS)
# The JSON type of each annotation of a `ScanRecord` field.
_JSON_TYPES = {"float": "number", "str": "string", "str | None": ["string", "null"],
               "bool | None": ["boolean", "null"]}


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
                "required": list(_FIELDS),
                "properties": {f.name: {"type": _JSON_TYPES[f.type]} for f in fields(ScanRecord)},
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


# The region text of each classification code, as an array to index by the codes.
_CODE_TEXT = np.array([label.value for label in cls.CODE_LABELS], dtype=object)


@dataclass(frozen=True)
class ScanConfig:
    eps_lo: float = EPS_MARGIN
    eps_hi: float = 1.0
    eps_count: int = 100
    q_lo: float = Q_MIN + Q_MARGIN
    q_hi: float = Q_MAX - Q_MARGIN
    q_count: int = 100
    shoot: bool = False

    def __post_init__(self):
        for axis, floor, top in ("eps", EPS_MARGIN, 1), ("q", Q_MIN + Q_MARGIN, Q_MAX - Q_MARGIN):
            count, lo, hi = (getattr(self, f"{axis}_{end}") for end in ("count", "lo", "hi"))
            if not (_count(count) >= 2 and floor <= _real(lo) < _real(hi) <= top):
                raise ParamsOutOfOmega(f"{axis} grid: {count!r} points over [{lo!r}, {hi!r}]; need "
                                       f"an integer count >= 2 and lo < hi in [{floor}, {top}]")
            for end, value in (("count", _count(count)), ("lo", _real(lo)), ("hi", _real(hi))):
                object.__setattr__(self, f"{axis}_{end}", value)
        if not isinstance(self.shoot, (bool, np.bool_)):
            raise OptionOutOfRange(f"shoot must be a bool, got {self.shoot!r}")
        object.__setattr__(self, "shoot", bool(self.shoot))


@dataclass(frozen=True)
class ScanTable:
    """The cells of a scan in cell order, as one tuple per `ScanRecord` field.

    The emitters read the columns and build no record.  The record view
    builds a `ScanRecord` only when one is read: an index gives one record,
    a slice a list of them, and iteration yields them, so `len`, `in` and
    `reversed` work too.  It is kept for its readers outside the emitters:
    `perfbench/run.py` (`check_map`, `interior_pass`, `shoot_cells`), the
    harness's smoke test `test_map_check_catches_a_changed_label`, and the
    tests that build a `ScanResult` from a list of records.

    The first CSV or JSON emitter call makes the `.17g` text of the four
    numeric columns, and the table keeps it for as long as it lives.  This
    pays only where one table is written as both CSV and JSON (the CLI's
    `scan --format csv json`): the second emitter makes no text.  The
    text more than doubles what the table holds once written: about 4.0 MB
    next to its own 3.3 MB at 200x200.  It is not a field, so it takes no
    part in `==`, `hash` or `dataclasses.replace`.
    """

    eps: tuple[float, ...]
    q_tilde: tuple[float, ...]
    region: tuple[str, ...]
    v_plus_sq: tuple[float, ...]
    discriminant: tuple[float, ...]
    shoot_verdict: tuple[str | None, ...]
    oscillatory: tuple[bool | None, ...]

    def __post_init__(self):
        for name in _FIELDS:
            object.__setattr__(self, name, tuple(getattr(self, name)))
        if len({len(col) for col in _row_of(self)}) != 1:
            raise DomainError("scan columns differ in length")

    def __len__(self) -> int:
        return len(self.eps)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return list(map(ScanRecord, *(col[index] for col in _row_of(self))))
        return ScanRecord(*(col[index] for col in _row_of(self)))

    def __iter__(self):
        return map(ScanRecord, *_row_of(self))

    @cached_property
    def _texts(self) -> tuple[tuple[str, ...], ...]:
        """The text of eps, q_tilde, v_plus_sq and discriminant, in that order."""
        g = _TextMemo()
        # The discriminants are all distinct, so they skip the memo; a ".17g"
        # spec prints a numpy scalar as `_g` prints its float.
        return (tuple(map(g.__getitem__, self.eps)), tuple(map(g.__getitem__, self.q_tilde)),
                tuple(map(g.__getitem__, self.v_plus_sq)),
                tuple([f"{d:.17g}" for d in self.discriminant]))


@dataclass(frozen=True)
class ScanResult:
    config: ScanConfig
    records: ScanTable
    separatrix1: list[tuple[float, float]]
    separatrix2: list[tuple[float, float]]

    def __post_init__(self):
        # Any other sequence of records becomes a table once.
        if not isinstance(self.records, ScanTable):
            columns = list(zip(*map(_row_of, self.records))) or [()] * len(_FIELDS)
            object.__setattr__(self, "records", ScanTable(*columns))


def _separatrix_polylines(config: ScanConfig, eps_grid: np.ndarray, separatrices: np.ndarray):
    """The q1 and q2 polylines, each of at least 64 points, from `_separatrix_rows`.

    The q2 polyline stops below eps_hat.  Each polyline takes the rows of the
    eps grid before it where its own grid is the same: q1 the scan's, q2 q1's.
    """
    n = max(config.eps_count, 64)
    if n != config.eps_count:
        eps_grid = np.linspace(config.eps_lo, config.eps_hi, n)
        separatrices = cls._separatrix_rows(eps_grid)
    sep1 = list(zip(eps_grid.tolist(), separatrices[0].tolist()))
    hi2 = min(config.eps_hi, cls.epsilon_hat() - 1e-9)
    if config.eps_lo >= hi2:
        return sep1, []
    if hi2 != config.eps_hi:
        eps_grid = np.linspace(config.eps_lo, hi2, n)
        separatrices = cls._separatrix_rows(eps_grid)
    return sep1, list(zip(eps_grid.tolist(), separatrices[1].tolist()))


def _shot_cell(eps: float, q_tilde: float,
               options: ShootOptions | None) -> tuple[str, bool | None]:
    """One cell's verdict text and oscillatory flag; a typed error gives its name."""
    try:
        res = shoot(eps, q_tilde, options)
    except RadshockError as exc:
        return type(exc).__name__, None
    return res.verdict.value, res.oscillation.oscillatory


def run_scan(config: ScanConfig, shoot_options: ShootOptions | None = None) -> ScanResult:
    """Classify every grid cell; optionally shoot a profile per cell.

    Shooting failures of individual cells are recorded by error name in the
    shoot_verdict column so a sweep never dies half way.  The columns are
    built as tuples, which the table keeps without a copy.  A grid too large
    to allocate raises ParamsOutOfOmega, as a count the config rejects does.
    """
    try:
        eps_grid = np.linspace(config.eps_lo, config.eps_hi, config.eps_count)
        q_grid = np.linspace(config.q_lo, config.q_hi, config.q_count)
        # The config has gated both grids, so the scan calls the bodies behind the gates.
        separatrices = cls._separatrix_rows(eps_grid)
        code, z, pval = cls._labels(eps_grid[:, None], q_grid, *separatrices[..., None])
    except MemoryError as exc:
        raise ParamsOutOfOmega(f"{config.eps_count}x{config.q_count} scan grid: {exc}") from exc
    eps_col = tuple(chain.from_iterable(map(repeat, eps_grid.tolist(), repeat(config.q_count))))
    q_col = tuple(q_grid.tolist()) * config.eps_count
    verdicts = oscillatory = (None,) * len(eps_col)
    if config.shoot:
        verdicts, oscillatory = zip(*map(_shot_cell, eps_col, q_col, repeat(shoot_options)))
    table = ScanTable(eps_col, q_col, tuple(_CODE_TEXT[code.ravel()]),
                      tuple(z.tolist()) * config.eps_count, tuple(pval.ravel().tolist()),
                      verdicts, oscillatory)
    sep1, sep2 = _separatrix_polylines(config, eps_grid, separatrices)
    return ScanResult(config=config, records=table, separatrix1=sep1, separatrix2=sep2)


def _g(x: float) -> str:
    return format(float(x), ".17g")


class _TextMemo(dict):
    """Text of each distinct value, made once per memo.

    A grid repeats each eps, q_tilde and v_plus^2 many times, and a string
    column holds a few labels.  A memo's text may carry the literal around
    the value: the CSV's string cells come with their commas, the JSON's
    with the field names on either side, and the SVG's x and y with the rest
    of the cell's rect up to its fill.  Zeros are not kept: 0.0 == -0.0 as
    keys, but the two print differently.
    """

    def __init__(self, text=_g):
        super().__init__()
        self._text = text

    def __missing__(self, x):
        s = self._text(x)
        if x:
            self[x] = s
        return s


def _csv_cell(s: str) -> str:
    """A string cell, quoted if it holds a comma, quote, CR or LF (RFC 4180).

    A str subclass such as `RegionLabel` is written by its characters, as
    `json.dumps` writes it, since a memo keyed by value cannot tell the two.
    """
    s = str.__str__(s)
    if any(c in s for c in ',"\r\n'):
        return '"' + s.replace('"', '""') + '"'
    return s


def _woven(head: str, n: int, pieces, sep: str, tail: str) -> str:
    """`head + sep.join(rows) + tail` in one join, making no row.

    Row i is the i-th text of each piece in turn; a piece is a sequence of n
    texts or one text for every row.  Each piece fills its stride of one
    list of pointers, so the document's bytes are copied once.  With `sep`
    empty the rows run end to end, and a line's newline is its last piece.
    """
    pieces = (*pieces, sep) if sep else pieces
    k = len(pieces)
    parts = [None] * (n * k + 2)
    parts[0], parts[-1] = head, tail
    for i, piece in enumerate(pieces, 1):
        parts[i:-1:k] = [piece] * n if isinstance(piece, str) else piece
    if sep and n:
        del parts[-2]  # the separator after the last row
    return "".join(parts)


def scan_to_csv(result: ScanResult) -> str:
    # A string cell's text comes with the commas on either side of it.
    t, cell = result.records, _TextMemo(lambda s: f",{_csv_cell(s)},")
    cell[None] = ",,"
    eps, q_tilde, v_plus_sq, discriminant = t._texts
    tail = []
    for name, points in (("q1", result.separatrix1), ("q2", result.separatrix2)):
        tail += [f"# separatrix {name}", "eps,q_tilde"]
        tail += [f"{_g(e)},{_g(q)}" for e, q in points]
    return _woven(
        ",".join(_FIELDS) + "\n", len(t),
        (eps, ",", q_tilde, map(cell.__getitem__, t.region), v_plus_sq, ",", discriminant,
         map(cell.__getitem__, t.shoot_verdict), map(_CSV_FLAG.__getitem__, t.oscillatory)),
        "", "\n".join(tail) + "\n")


def _json_pairs(points: list[tuple[float, float]]) -> str:
    return "[" + ", ".join(f"[{_g(e)}, {_g(q)}]" for e, q in points) + "]"


def scan_to_json(result: ScanResult) -> str:
    # Hand-assembled so numbers keep the same fixed 17-significant-digit
    # formatting as the CSV emitter.  json is imported here, not at module
    # level, so that `import radshock` does not load it.
    import json

    def string_field(name: str, next_name: str) -> _TextMemo:
        """A string field's text, from its name up to the next field's value."""
        memo = _TextMemo(lambda s: f', "{name}": {json.dumps(s)}, "{next_name}": ')
        memo[None] = memo._text(None)
        return memo

    c, t = result.config, result.records
    region = string_field("region", "v_plus_sq")
    verdict = string_field("shoot_verdict", "oscillatory")
    eps, q_tilde, v_plus_sq, discriminant = t._texts
    head = (
        '{\n  "meta": {"schema_version": 1, '
        f'"eps_range": [{_g(c.eps_lo)}, {_g(c.eps_hi)}, {c.eps_count}], '
        f'"q_range": [{_g(c.q_lo)}, {_g(c.q_hi)}, {c.q_count}], '
        f'"shoot": {"true" if c.shoot else "false"}}},\n'
        '  "records": [\n'
    )
    tail = (
        '\n  ],\n  "separatrices": {"q1": ' + _json_pairs(result.separatrix1)
        + ', "q2": ' + _json_pairs(result.separatrix2) + "}\n}\n"
    )
    return _woven(
        head, len(t),
        ('    {"eps": ', eps, ', "q_tilde": ', q_tilde, map(region.__getitem__, t.region),
         v_plus_sq, ', "discriminant": ', discriminant, map(verdict.__getitem__, t.shoot_verdict),
         map(_JSON_FLAG.__getitem__, t.oscillatory)),
        ",\n", tail)


def scan_to_svg(result: ScanResult) -> str:
    """Standalone SVG: region-colored grid cells plus both separatrices."""
    c = result.config
    width, height = _SVG_WIDTH, _SVG_HEIGHT
    ml, mr, mt, mb = 70, 170, 30, 55
    pw, ph = width - ml - mr, height - mt - mb

    def x_of(e: float) -> float:
        return ml + (e - c.eps_lo) / (c.eps_hi - c.eps_lo) * pw

    def y_of(q: float) -> float:
        return mt + (c.q_hi - q) / (c.q_hi - c.q_lo) * ph

    cw = pw / c.eps_count
    ch = ph / c.q_count
    # A cell's x depends on eps alone and its y on q_tilde alone, so each
    # memo holds the rect's text up to and after its y.  The memo is keyed
    # by value, so float() keeps the arithmetic off the key's type.
    cell_x = _TextMemo(lambda e: f'<rect x="{x_of(float(e)) - cw / 2.0:.2f}" y="')
    cell_y = _TextMemo(
        lambda q: f'{y_of(float(q)) - ch / 2.0:.2f}" width="{cw:.2f}" height="{ch:.2f}" fill="')
    head = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect x="0" y="0" width="{width}" height="{height}" fill="#ffffff"/>',
    ]
    tail = []
    for pts in (result.separatrix1, result.separatrix2):
        if not pts:
            continue
        path = " ".join(f"{x_of(e):.2f},{y_of(q):.2f}" for e, q in pts)
        tail.append(
            f'<polyline points="{path}" fill="none" stroke="#000000" stroke-width="1.5"/>'
        )
    tail.append(
        f'<rect x="{ml}" y="{mt}" width="{pw}" height="{ph}" fill="none" '
        f'stroke="#000000" stroke-width="1"/>'
    )
    tail.append(
        f'<text x="{ml + pw / 2:.0f}" y="{height - 14}" text-anchor="middle" '
        f'font-size="15" font-family="sans-serif">dissipation eps</text>'
    )
    tail.append(
        f'<text x="18" y="{mt + ph / 2:.0f}" text-anchor="middle" font-size="15" '
        f'font-family="sans-serif" transform="rotate(-90 18 {mt + ph / 2:.0f})">'
        "shock strength q~</text>"
    )
    for e in (c.eps_lo, c.eps_hi):
        tail.append(
            f'<text x="{x_of(e):.0f}" y="{mt + ph + 18}" text-anchor="middle" '
            f'font-size="12" font-family="sans-serif">{e:.4g}</text>'
        )
    for q in (c.q_lo, c.q_hi):
        tail.append(
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
        tail.append(
            f'<rect x="{ml + pw + 14}" y="{ly}" width="14" height="14" '
            f'fill="{_SVG_COLORS[key]}"/>'
        )
        tail.append(
            f'<text x="{ml + pw + 34}" y="{ly + 12}" font-size="13" '
            f'font-family="sans-serif">{text}</text>'
        )
        ly += 22
    t = result.records
    return _woven(
        "\n".join(head) + "\n", len(t),
        (map(cell_x.__getitem__, t.eps), map(cell_y.__getitem__, t.q_tilde),
         map(_SVG_FILL.get, t.region, repeat(_SVG_FILL_OTHER))),
        "", "\n".join(tail) + "\n</svg>\n")


# The emitter of each output format, by the name the CLI's --format takes.
EMITTERS = {"csv": scan_to_csv, "json": scan_to_json, "svg": scan_to_svg}
