import hashlib
import math
import json
import xml.etree.ElementTree as ET

import jsonschema
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from radshock.classification import RegionLabel
from radshock.errors import ParamsOutOfOmega
from radshock.scan import (
    SCAN_JSON_SCHEMA,
    ScanConfig,
    ScanRecord,
    ScanResult,
    run_scan,
    scan_to_csv,
    scan_to_json,
    scan_to_svg,
)


@pytest.fixture(scope="module")
def small_scan():
    return run_scan(ScanConfig(eps_count=12, q_count=12))


class TestScanConfig:
    def test_rejects_small_counts(self):
        with pytest.raises(ParamsOutOfOmega):
            ScanConfig(eps_count=1)

    def test_rejects_margin_violations(self):
        with pytest.raises(ParamsOutOfOmega):
            ScanConfig(eps_lo=0.0)
        with pytest.raises(ParamsOutOfOmega):
            ScanConfig(q_hi=1.0)
        with pytest.raises(ParamsOutOfOmega):
            ScanConfig(q_lo=0.70)


class TestRunScan:
    def test_grid_size_and_order(self, small_scan):
        assert len(small_scan.records) == 144
        eps_seq = [r.eps for r in small_scan.records]
        assert eps_seq == sorted(eps_seq)

    def test_sign_consistency(self, small_scan):
        for r in small_scan.records:
            if r.region == RegionLabel.FOCUS.value:
                assert r.discriminant < 0.0
            elif r.region in (RegionLabel.NODE_BELOW.value, RegionLabel.NODE_ABOVE.value):
                assert r.discriminant > 0.0

    def test_corner_labels(self):
        result = run_scan(
            ScanConfig(eps_lo=1e-6, eps_hi=1.0, eps_count=2,
                       q_lo=0.75 + 1e-6, q_hi=1.0 - 1e-6, q_count=2)
        )
        by_cell = {(r.eps, r.q_tilde): r.region for r in result.records}
        assert by_cell[(1.0, 0.75 + 1e-6)] == RegionLabel.NODE_BELOW.value
        assert by_cell[(1.0, 1.0 - 1e-6)] == RegionLabel.FOCUS.value

    def test_separatrix_polylines(self, small_scan):
        assert len(small_scan.separatrix1) >= 64
        assert len(small_scan.separatrix2) >= 64
        for e, q in small_scan.separatrix1 + small_scan.separatrix2:
            assert 0.75 < q < 1.0

    def test_shoot_columns(self):
        result = run_scan(
            ScanConfig(eps_lo=0.999, eps_hi=1.0, eps_count=2,
                       q_lo=0.76, q_hi=0.80, q_count=2, shoot=True)
        )
        for r in result.records:
            assert r.shoot_verdict == "ConvergedToPlus"
            assert r.oscillatory in (True, False)


class TestEmitters:
    def test_csv_layout(self, small_scan):
        text = scan_to_csv(small_scan)
        lines = text.splitlines()
        assert lines[0] == "eps,q_tilde,region,v_plus_sq,discriminant,shoot_verdict,oscillatory"
        assert len([l for l in lines if l.startswith("#")]) == 2
        data = [l for l in lines[1:] if l and not l.startswith("#") and l != "eps,q_tilde"]
        assert len(data) == 144 + len(small_scan.separatrix1) + len(small_scan.separatrix2)

    def test_csv_deterministic(self):
        config = ScanConfig(eps_count=5, q_count=5)
        assert scan_to_csv(run_scan(config)) == scan_to_csv(run_scan(config))

    def test_json_parses_and_validates(self, small_scan):
        doc = json.loads(scan_to_json(small_scan))
        jsonschema.validate(doc, SCAN_JSON_SCHEMA)
        assert doc["meta"]["schema_version"] == 1
        assert len(doc["records"]) == 144
        csv_first = scan_to_csv(small_scan).splitlines()[1].split(",")
        assert doc["records"][0]["region"] == csv_first[2]
        assert doc["records"][0]["eps"] == float(csv_first[0])

    def test_json_deterministic(self):
        config = ScanConfig(eps_count=4, q_count=4)
        assert scan_to_json(run_scan(config)) == scan_to_json(run_scan(config))

    def test_svg_well_formed(self, small_scan):
        text = scan_to_svg(small_scan)
        root = ET.fromstring(text)
        assert root.tag.endswith("svg")
        ns = root.tag.split("}")[0] + "}"
        rects = root.findall(f"{ns}rect")
        polylines = root.findall(f"{ns}polyline")
        assert len(rects) >= 144
        assert len(polylines) == 2

    def test_svg_separatrix_endpoints(self, small_scan):
        # Both curves start at the zero-amplitude corner; the lower one ends
        # at (1, 49/64), the upper one reaches the infinite-amplitude edge.
        text = scan_to_svg(small_scan)
        root = ET.fromstring(text)
        ns = root.tag.split("}")[0] + "}"
        curves = []
        for poly in root.findall(f"{ns}polyline"):
            pts = [tuple(map(float, xy.split(","))) for xy in poly.get("points").split()]
            curves.append(pts)
        q1_pts, q2_pts = curves
        c = small_scan.config
        ml, mt, pw, ph = 70, 30, 880 - 70 - 170, 640 - 30 - 55

        def y_of(q):
            return mt + (c.q_hi - q) / (c.q_hi - c.q_lo) * ph

        bottom = y_of(0.75)
        assert abs(q1_pts[0][1] - bottom) < 3.0
        assert abs(q2_pts[0][1] - bottom) < 3.0
        assert abs(q1_pts[-1][0] - (ml + pw)) < 1.0
        assert abs(q1_pts[-1][1] - y_of(49.0 / 64.0)) < 3.0
        assert q2_pts[-1][1] < mt + 3.0

    def test_100x100_csv_example(self):
        result = run_scan(ScanConfig(eps_count=100, q_count=100))
        text = scan_to_csv(result)
        lines = text.splitlines()
        headers = [i for i, l in enumerate(lines) if l.startswith("eps,")]
        comments = [l for l in lines if l.startswith("#")]
        data_rows = headers[1] - 2  # record block ends where the first curve block starts
        assert data_rows == 10000
        assert len(comments) == 2
        regions = {r.region for r in result.records}
        assert {"NodeBelow", "Focus", "NodeAbove"} <= regions

    @pytest.mark.parametrize(
        "config,digests",
        [
            # Default margins, so both 1e-6 edges are cells.
            (
                ScanConfig(eps_count=41, q_count=41),
                (
                    "83b6f95407a692de623deda0b80dff1e226be542954ef25544e154b59a96783c",
                    "b5be9be15a1a46dc420db178019979a6606ace4e439f631f9d67641a1ccd995e",
                    "ef318d6425f255aa8ff8b1f8540aeac8feb1da4234418f697faa9d303b08fd63",
                ),
            ),
            # A box straddling eps_hat and crossing both separatrices.
            (
                ScanConfig(eps_lo=0.3, eps_hi=0.9, eps_count=37,
                           q_lo=0.755, q_hi=0.95, q_count=53),
                (
                    "11155f181002dae87a4e311211018b4e44f8a7e71a9487cbd677c574bc163367",
                    "e7a8b9c790f3d19c90df8d52365882a8fac097f5c8550aa1e865735ae01ed4d6",
                    "1f2cf86cd1d396ba587694ce92db00a2d4b486f261d9af14c25e6d5adc6f58eb",
                ),
            ),
            # The benchmark's map: every eps, q_tilde and v_plus^2 repeats 200 times.
            (
                ScanConfig(eps_count=200, q_count=200),
                (
                    "6e26f8bb0afbce6254b4501ee30bed28dcd99b979cdeff132a532c16091c6605",
                    "ca7e00246870ad1b58db53e0cf08aefd6d441c671e620096920dd96c745e3954",
                    "71c8da27bd5a1bef0e7b862286fdf37d9b364e84f80e621808ee9540b5152190",
                ),
            ),
            # Shooting fills the shoot_verdict and oscillatory columns: node and
            # focus cells converge, the large-amplitude corner hits the locus.
            (
                ScanConfig(eps_lo=0.05, eps_hi=1.0, eps_count=3,
                           q_lo=0.76, q_hi=0.99, q_count=3, shoot=True),
                (
                    "9ab508e9cafbf0a7f3e20aa6438a9c342598148c61e4873c1f7d679107436bff",
                    "26ab22cae5e3d862ced529223820c21599cfb08c885e1c8de96a7bd1260761c9",
                    "5583eab6b64489baf1a8a419cda14dac7f63eb4afee81376137cdfdc16703b8d",
                ),
            ),
        ],
    )
    def test_golden_bytes(self, config, digests):
        # The emitted bytes are part of the output contract: they change only
        # with a deliberate schema_version bump.
        result = run_scan(config)
        got = tuple(
            hashlib.sha256(emit(result).encode()).hexdigest()
            for emit in (scan_to_csv, scan_to_json, scan_to_svg)
        )
        assert got == digests


# Per-value reference emitters: the record formatting of the emitters before
# they formatted each distinct value once per call.
def _ref_g(x):
    return format(float(x), ".17g")


def _ref_csv(result):
    lines = ["eps,q_tilde,region,v_plus_sq,discriminant,shoot_verdict,oscillatory"]
    for r in result.records:
        verdict = r.shoot_verdict or ""
        osc = "" if r.oscillatory is None else ("true" if r.oscillatory else "false")
        lines.append(
            f"{_ref_g(r.eps)},{_ref_g(r.q_tilde)},{r.region},{_ref_g(r.v_plus_sq)},"
            f"{_ref_g(r.discriminant)},{verdict},{osc}"
        )
    lines.append("# separatrix q1")
    lines.append("eps,q_tilde")
    lines.extend(f"{_ref_g(e)},{_ref_g(q)}" for e, q in result.separatrix1)
    lines.append("# separatrix q2")
    lines.append("eps,q_tilde")
    lines.extend(f"{_ref_g(e)},{_ref_g(q)}" for e, q in result.separatrix2)
    return "\n".join(lines) + "\n"


def _ref_json(result):
    def pairs(points):
        return "[" + ", ".join(f"[{_ref_g(e)}, {_ref_g(q)}]" for e, q in points) + "]"

    c = result.config
    parts = ["{\n"]
    parts.append(
        '  "meta": {"schema_version": 1, '
        f'"eps_range": [{_ref_g(c.eps_lo)}, {_ref_g(c.eps_hi)}, {c.eps_count}], '
        f'"q_range": [{_ref_g(c.q_lo)}, {_ref_g(c.q_hi)}, {c.q_count}], '
        f'"shoot": {"true" if c.shoot else "false"}}},\n'
    )
    rec_lines = []
    for r in result.records:
        verdict = "null" if r.shoot_verdict is None else f'"{r.shoot_verdict}"'
        osc = "null" if r.oscillatory is None else ("true" if r.oscillatory else "false")
        rec_lines.append(
            f'    {{"eps": {_ref_g(r.eps)}, "q_tilde": {_ref_g(r.q_tilde)}, '
            f'"region": "{r.region}", "v_plus_sq": {_ref_g(r.v_plus_sq)}, '
            f'"discriminant": {_ref_g(r.discriminant)}, '
            f'"shoot_verdict": {verdict}, "oscillatory": {osc}}}'
        )
    parts.append('  "records": [\n' + ",\n".join(rec_lines) + "\n  ],\n")
    parts.append(
        '  "separatrices": {"q1": ' + pairs(result.separatrix1)
        + ', "q2": ' + pairs(result.separatrix2) + "}\n"
    )
    parts.append("}\n")
    return "".join(parts)


_SVG_FILL = {"NodeBelow": "#5b8dd9", "Focus": "#d96a6a", "NodeAbove": "#67b36b",
             "Separatrix1": "#222222", "Separatrix2": "#222222"}


def _ref_svg_cells(result, width=880, height=640):
    # The cell rects, the only part of the SVG that depends on the records.
    c = result.config
    ml, mr, mt, mb = 70, 170, 30, 55
    pw, ph = width - ml - mr, height - mt - mb
    cw = pw / c.eps_count
    ch = ph / c.q_count
    lines = []
    for r in result.records:
        x = ml + (r.eps - c.eps_lo) / (c.eps_hi - c.eps_lo) * pw - cw / 2.0
        y = mt + (c.q_hi - r.q_tilde) / (c.q_hi - c.q_lo) * ph - ch / 2.0
        lines.append(
            f'<rect x="{x:.2f}" y="{y:.2f}" width="{cw:.2f}" height="{ch:.2f}" '
            f'fill="{_SVG_FILL.get(r.region, "#999999")}"/>'
        )
    return lines


# Values a per-call memo keyed by the float could get wrong: signed zeros
# (equal as keys, printed "0" and "-0"), NaN (unequal to itself), infinities,
# neighbours that differ in the last bit, and numpy scalars equal to floats.
_TRAPS = [0.0, -0.0, math.nan, math.inf, -math.inf, 0.5, math.nextafter(0.5, 1.0),
          5e-324, -1e-300, 0.1, 1.0]
_number = st.one_of(
    st.sampled_from(_TRAPS),
    st.floats(allow_nan=True, allow_infinity=True),
).flatmap(lambda x: st.sampled_from([x, np.float64(x)]))
_record = st.builds(
    ScanRecord,
    eps=_number,
    q_tilde=_number,
    region=st.sampled_from([label.value for label in RegionLabel] + ["Unknown"]),
    v_plus_sq=_number,
    discriminant=_number,
    shoot_verdict=st.sampled_from([None, "ConvergedToPlus", "NotASaddle"]),
    oscillatory=st.sampled_from([None, True, False]),
)


@given(
    pool=st.lists(_record, min_size=1, max_size=6),
    picks=st.lists(st.integers(0, 5), min_size=1, max_size=30),
    curve=st.lists(st.tuples(_number, _number), max_size=4),
)
def test_emitters_match_per_value_formatting(pool, picks, curve):
    # Records drawn from a small pool, so equal values repeat across cells.
    records = [pool[i % len(pool)] for i in picks]
    result = ScanResult(
        config=ScanConfig(eps_count=7, q_count=5),
        records=records,
        separatrix1=curve,
        separatrix2=curve[::-1],
    )
    with np.errstate(all="ignore"):
        assert scan_to_csv(result) == _ref_csv(result)
        assert scan_to_json(result) == _ref_json(result)
        assert scan_to_svg(result).splitlines()[3:3 + len(records)] == _ref_svg_cells(result)
