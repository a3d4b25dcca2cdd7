import hashlib
import json
import xml.etree.ElementTree as ET

import jsonschema
import pytest

from radshock.classification import RegionLabel
from radshock.errors import ParamsOutOfOmega
from radshock.scan import (
    SCAN_JSON_SCHEMA,
    ScanConfig,
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

    def test_fmt_field_validated(self):
        with pytest.raises(ValueError):
            ScanConfig(eps_count=4, q_count=4, fmt="pdf")
