"""Parameter-square sweeps and their CSV/JSON/SVG emitters.

A scan evaluates the region label and the classifying polynomial value on a
rectangular grid, optionally shoots a profile per cell, and always emits the
two separatrix polylines.  Output is byte-deterministic: floats are printed
with 17 significant digits and cells are ordered by (eps index, q index).
The grid is classified in one call, and the cells are kept as columns, one
per `ScanRecord` field, the scan's one field list; a record is built only
when a caller reads one.  Each column but the discriminant is also seen as
its distinct values and one index per cell (`ScanTable._view`), which
`run_scan` supplies from the grid and any other table derives once.  An
emitter formats each distinct value once, with the literal around it, and
gathers the texts per cell by index; the discriminants, one per cell, are
formatted once per table and shared by the CSV and JSON emitters.  Each
emitter writes its document in one join over the column texts (`_woven`),
building no line.
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
# The columns whose values are numbers, and so are printed by their float.
_NUMBERS = frozenset(f.name for f in fields(ScanRecord) if f.type == "float")
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

    Each column but the discriminant has one view: its distinct values and,
    per cell, the index of the cell's value among them (`_view`).
    `run_scan` supplies the views from its grid; any other table, built
    from records, by `ScanTable(...)` or by `dataclasses.replace`, derives
    a view once, when an emitter first asks for it (`_distinct`).  The
    first CSV or JSON emitter call makes the `.17g` text of each
    discriminant, and the table keeps it, so the second emitter makes none
    (the CLI's `scan --format csv json`).  At 200x200 the views and texts
    hold about 4.0 MB next to the table's own 2.9 MB (by `sys.getsizeof`,
    each object counted once).  They are not fields, so they take no part
    in `==`, `hash` or `dataclasses.replace`.
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
    def _views(self) -> dict[str, tuple[list, np.ndarray]]:
        """The views made so far, by column name."""
        return {}

    def _view(self, name: str) -> tuple[list, np.ndarray]:
        """The distinct values of column `name` and the index of each cell's value."""
        view = self._views.get(name)
        if view is None:
            view = self._views[name] = _distinct(getattr(self, name), name in _NUMBERS)
        return view

    @cached_property
    def _discriminant_texts(self) -> list[str]:
        # The discriminants are all distinct, so each cell is formatted; a
        # ".17g" spec prints a numpy scalar as `_g` prints its float.
        return [f"{d:.17g}" for d in self.discriminant]


def _distinct(column, numeric: bool) -> tuple[list, np.ndarray]:
    """The distinct values of a column and, per cell, the index of its value among them.

    A number is keyed by the bits of its float, which are all its text
    depends on: 0.0 and -0.0 stay two values (printed "0" and "-0"), a NaN
    is kept, and a numpy scalar is its float.  Any other value is keyed by
    itself: a `RegionLabel` meets its string, and both are written by their
    characters.
    """
    if numeric:
        floats = np.fromiter(map(float, column), dtype=float, count=len(column))
        bits, index = np.unique(floats.view(np.int64), return_inverse=True)
        return bits.view(float).tolist(), index
    values = list(dict.fromkeys(column))
    position = {x: i for i, x in enumerate(values)}
    return values, np.fromiter(map(position.__getitem__, column), dtype=np.intp, count=len(column))


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
    built as tuples, which the table keeps without a copy, and the grid
    gives the table its views: eps repeats its axis, q_tilde and v_plus^2
    tile theirs, the region codes index the labels, and an unshot table's
    verdict and flag columns hold one value.  A grid too large to allocate
    raises ParamsOutOfOmega, as a count the config rejects does.
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
    q_at = np.tile(np.arange(config.q_count), config.eps_count)
    views = {"eps": (eps_grid.tolist(), np.repeat(np.arange(config.eps_count), config.q_count)),
             "q_tilde": (q_grid.tolist(), q_at), "region": (_CODE_TEXT.tolist(), code.ravel()),
             "v_plus_sq": (z.tolist(), q_at)}
    verdicts = oscillatory = (None,) * len(eps_col)
    if config.shoot:
        verdicts, oscillatory = zip(*map(_shot_cell, eps_col, q_col, repeat(shoot_options)))
    else:
        views["shoot_verdict"] = views["oscillatory"] = (
            [None], np.broadcast_to(np.intp(0), (len(eps_col),)))
    table = ScanTable(eps_col, q_col, tuple(_CODE_TEXT[code.ravel()]),
                      tuple(z.tolist()) * config.eps_count, tuple(pval.ravel().tolist()),
                      verdicts, oscillatory)
    table._views.update(views)
    sep1, sep2 = _separatrix_polylines(config, eps_grid, separatrices)
    return ScanResult(config=config, records=table, separatrix1=sep1, separatrix2=sep2)


def _g(x: float) -> str:
    return format(float(x), ".17g")


def _csv_cell(s: str | None) -> str:
    """A string cell, quoted if it holds a comma, quote, CR or LF (RFC 4180).

    None is the empty cell.  A str subclass such as `RegionLabel` is written
    by its characters, as `json.dumps` writes it, since a view keyed by value
    cannot tell the two.
    """
    if s is None:
        return ""
    s = str.__str__(s)
    if any(c in s for c in ',"\r\n'):
        return '"' + s.replace('"', '""') + '"'
    return s


def _column(table: ScanTable, name: str, text):
    """Column `name` as `_woven` takes it: the `text` of each distinct value, per cell.

    A column of one value gives its one text, which `_woven` writes in every
    row as a literal.
    """
    values, index = table._view(name)
    texts = list(map(text, values))
    if len(texts) == 1:
        return texts[0]
    return np.array(texts, dtype=object)[index].tolist()


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
    # Each text comes with the comma after it, or the newline that ends its row.
    t = result.records
    tail = []
    for name, points in (("q1", result.separatrix1), ("q2", result.separatrix2)):
        tail += [f"# separatrix {name}", "eps,q_tilde"]
        tail += [f"{_g(e)},{_g(q)}" for e, q in points]
    return _woven(
        ",".join(_FIELDS) + "\n", len(t),
        (_column(t, "eps", lambda e: _g(e) + ","), _column(t, "q_tilde", lambda q: _g(q) + ","),
         _column(t, "region", lambda s: _csv_cell(s) + ","),
         _column(t, "v_plus_sq", lambda v: _g(v) + ","), t._discriminant_texts,
         _column(t, "shoot_verdict", lambda s: f",{_csv_cell(s)},"),
         _column(t, "oscillatory", _CSV_FLAG.__getitem__)),
        "", "\n".join(tail) + "\n")


def _json_pairs(points: list[tuple[float, float]]) -> str:
    return "[" + ", ".join(f"[{_g(e)}, {_g(q)}]" for e, q in points) + "]"


def scan_to_json(result: ScanResult) -> str:
    # Hand-assembled so numbers keep the same fixed 17-significant-digit
    # formatting as the CSV emitter.  json is imported here, not at module
    # level, so that `import radshock` does not load it.
    import json

    c, t = result.config, result.records
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
    # Each text comes with the field names up to the next field's value.
    return _woven(
        head, len(t),
        (_column(t, "eps", lambda e: f'    {{"eps": {_g(e)}, "q_tilde": '),
         _column(t, "q_tilde", lambda q: f'{_g(q)}, "region": '),
         _column(t, "region", lambda s: f'{json.dumps(s)}, "v_plus_sq": '),
         _column(t, "v_plus_sq", lambda v: f'{_g(v)}, "discriminant": '), t._discriminant_texts,
         _column(t, "shoot_verdict", lambda s: f', "shoot_verdict": {json.dumps(s)}, '
                                               '"oscillatory": '),
         _column(t, "oscillatory", _JSON_FLAG.__getitem__)),
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
    # A cell's x depends on eps alone and its y on q_tilde alone, so one
    # text holds the rect up to its y and the other the rest up to its fill.
    t = result.records
    return _woven(
        "\n".join(head) + "\n", len(t),
        (_column(t, "eps", lambda e: f'<rect x="{x_of(e) - cw / 2.0:.2f}" y="'),
         _column(t, "q_tilde", lambda q: f'{y_of(q) - ch / 2.0:.2f}" width="{cw:.2f}" '
                                         f'height="{ch:.2f}" fill="'),
         _column(t, "region", lambda s: _SVG_FILL.get(s, _SVG_FILL_OTHER))),
        "", "\n".join(tail) + "\n</svg>\n")


# The emitter of each output format, by the name the CLI's --format takes.
EMITTERS = {"csv": scan_to_csv, "json": scan_to_json, "svg": scan_to_svg}
