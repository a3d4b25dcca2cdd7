import csv
import dataclasses
import functools
import hashlib
import io
import math
import json
import xml.etree.ElementTree as ET

import jsonschema
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from radshock import classification, equilibria, model, scan
from radshock.classification import RegionLabel, classify, p_eval
from radshock.equilibria import v_plus_squared
from radshock.errors import DomainError, NotASaddle, ParamsOutOfOmega, RadshockError
from radshock.scan import (
    SCAN_JSON_SCHEMA,
    ScanConfig,
    ScanRecord,
    ScanResult,
    ScanTable,
    run_scan,
    scan_to_csv,
    scan_to_json,
    scan_to_svg,
)
from radshock.shooting import ProfileVerdict, shoot

# The shooting scan of the golden bytes below: node and focus cells
# converge, the large-amplitude corner hits the locus.
SHOOT_3X3 = ScanConfig(eps_lo=0.05, eps_hi=1.0, eps_count=3, q_lo=0.76, q_hi=0.99, q_count=3,
                       shoot=True)


@pytest.fixture(scope="module")
def small_scan():
    return run_scan(ScanConfig(eps_count=12, q_count=12))


def per_cell_records(config):
    """One ScanRecord per cell, built cell by cell from scalar classify, p_eval and shoot."""
    records = []
    for e in np.linspace(config.eps_lo, config.eps_hi, config.eps_count).tolist():
        for q in np.linspace(config.q_lo, config.q_hi, config.q_count).tolist():
            z = v_plus_squared(q)
            verdict = oscillatory = None
            if config.shoot:
                try:
                    res = shoot(e, q)
                    verdict, oscillatory = res.verdict.value, res.oscillation.oscillatory
                except RadshockError as exc:
                    verdict = type(exc).__name__
            records.append(
                ScanRecord(e, q, classify(e, q).value, z, p_eval(z, e), verdict, oscillatory)
            )
    return records


class TestScanConfig:
    def test_rejects_small_counts(self):
        with pytest.raises(ParamsOutOfOmega):
            ScanConfig(eps_count=1)
        # Counts must be integers that numpy can size an array of: a float,
        # NaN, string or huge int is a typed error here, not numpy's error
        # from np.linspace in run_scan.
        for value in (2.5, 3.0, math.nan, "3", 10**30):
            with pytest.raises(ParamsOutOfOmega):
                ScanConfig(eps_count=value)
            with pytest.raises(ParamsOutOfOmega):
                ScanConfig(q_count=value)

    def test_numpy_bool_shoot_is_kept_as_a_bool(self):
        # Anything else raises OptionOutOfRange (see test_domain.py).
        assert ScanConfig(shoot=np.True_).shoot is True
        assert ScanConfig(shoot=np.False_).shoot is False

    def test_rejects_margin_violations(self):
        with pytest.raises(ParamsOutOfOmega):
            ScanConfig(eps_lo=0.0)
        with pytest.raises(ParamsOutOfOmega):
            ScanConfig(q_hi=1.0)
        with pytest.raises(ParamsOutOfOmega):
            ScanConfig(q_lo=0.70)


class TestRunScan:
    @pytest.mark.parametrize("counts", [(2, 10**17), (10**17, 2)], ids=["q", "eps"])
    def test_grid_too_large_to_allocate_is_a_typed_error(self, counts):
        # 10**17 points pass the count gate, but their 711 PiB lie beyond any
        # address space, so numpy's allocation fails at once, touching no memory.
        eps_count, q_count = counts
        with pytest.raises(ParamsOutOfOmega, match="Unable to allocate"):
            run_scan(ScanConfig(eps_count=eps_count, q_count=q_count))

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

    def test_one_classification_call_per_scan(self, monkeypatch):
        # The whole grid goes through the labelling body at once, and v_plus^2
        # of the q_tilde grid is solved once, however many eps rows.
        bodies, squares = [], []
        body, square = classification._labels, classification._rest_v_sq

        def counted_body(*args):
            bodies.append(args)
            return body(*args)

        def counted_square(q_tilde):
            squares.append(q_tilde)
            return square(q_tilde)

        monkeypatch.setattr(classification, "_labels", counted_body)
        monkeypatch.setattr(classification, "_rest_v_sq", counted_square)
        config = ScanConfig(eps_count=50, q_count=40)
        result = run_scan(config)
        assert len(result.records) == 2000
        assert len(bodies) == 1
        assert len(squares) == 1
        np.testing.assert_array_equal(squares[0], np.linspace(config.q_lo, config.q_hi, 40))

    @pytest.fixture
    def solves(self, monkeypatch):
        """The eps of every cubic solve (a call of the body `_roots`) from here on."""
        calls = []
        roots = classification._roots

        def counted_roots(eps):
            calls.append(eps)
            return roots(eps)

        monkeypatch.setattr(classification, "_roots", counted_roots)
        return calls

    def test_q1_polyline_reuses_the_classification_solves(self, solves, monkeypatch):
        # On a 200x200 grid the q1 polyline's eps are the grid's, so only the
        # classification (one solve per eps row) and the q2 polyline, on its
        # own eps grid below eps_hat, solve the cubic: 400 calls, not 600, in
        # two calls of the separatrix body.  The config has gated both grids,
        # so no array gate sees them again.
        calls = []
        for module in (classification, equilibria, model):
            for name in ("check_eps", "_check_q", "_separatrix_rows"):
                if func := vars(module).get(name):
                    monkeypatch.setattr(module, name, lambda x, name=name, func=func:
                                        calls.append(name) or func(x))
        config = ScanConfig(eps_count=200, q_count=200)
        result = run_scan(config)
        assert len(solves) == 400
        assert calls == ["_separatrix_rows"] * 2
        # The polyline is bit for bit the one of a solve per point.
        assert result.separatrix1 == [(e, classification.separatrix_q1(e))
                                      for e in np.linspace(config.eps_lo, config.eps_hi, 200)
                                      .tolist()]

    @pytest.mark.parametrize("config, count", [
        (ScanConfig(eps_count=20, q_count=20), 20 + 64 + 64),
        # Below eps_hat the q2 polyline takes the q1 polyline's 64-point grid.
        (ScanConfig(eps_hi=0.6, eps_count=20, q_count=20), 20 + 64),
        # The 6x6 box of the benchmark's shooting scan.
        (ScanConfig(eps_lo=0.05, eps_hi=1.0, eps_count=6, q_lo=0.76, q_hi=0.99, q_count=6),
         6 + 64 + 64),
        # Below eps_hat both polylines lie on the scan's own grid.
        (ScanConfig(eps_hi=0.2, eps_count=64, q_count=4), 64),
    ], ids=["20x20", "20x20-below-eps-hat", "6x6", "64-below-eps-hat"])
    def test_polylines_match_a_solve_per_point(self, solves, config, count):
        result = run_scan(config)
        assert len(solves) == count
        n = max(config.eps_count, 64)
        hi2 = min(config.eps_hi, classification.epsilon_hat() - 1e-9)
        assert result.separatrix1 == [
            (e, classification.separatrix_q1(e))
            for e in np.linspace(config.eps_lo, config.eps_hi, n).tolist()]
        assert result.separatrix2 == [
            (e, classification.separatrix_q2(e))
            for e in np.linspace(config.eps_lo, hi2, n).tolist()]

    def test_shoot_columns(self):
        result = run_scan(
            ScanConfig(eps_lo=0.999, eps_hi=1.0, eps_count=2,
                       q_lo=0.76, q_hi=0.80, q_count=2, shoot=True)
        )
        for r in result.records:
            assert r.shoot_verdict == "ConvergedToPlus"
            assert r.oscillatory in (True, False)

    def test_failing_cell_does_not_stop_the_sweep(self, monkeypatch):
        # One cell's typed error is recorded by name, and the others are shot.
        failing = (0.525, 0.875)

        def shoot_or_fail(eps, q_tilde, opts=None):
            if (eps, q_tilde) == failing:
                raise NotASaddle("injected")
            return shoot(eps, q_tilde, opts)

        monkeypatch.setattr(scan, "shoot", shoot_or_fail)
        result = run_scan(SHOOT_3X3)
        assert len(result.records) == 9
        cell = result.records[4]
        assert (cell.eps, cell.q_tilde) == failing
        assert cell.shoot_verdict == "NotASaddle" and cell.oscillatory is None
        others = result.records[:4] + result.records[5:]
        assert all(r.shoot_verdict in {v.value for v in ProfileVerdict} for r in others)
        # The CSV's header line, then one line per cell.
        assert scan_to_csv(result).splitlines()[1 + 4].endswith(",NotASaddle,")


class TestScanTable:
    def test_record_fields_are_fixed(self):
        # The order is the CSV's column order; the benchmark's parse-back
        # check compares astuple(record) with each CSV row.
        names = ["eps", "q_tilde", "region", "v_plus_sq", "discriminant",
                 "shoot_verdict", "oscillatory"]
        assert [f.name for f in dataclasses.fields(ScanRecord)] == names
        assert [f.name for f in dataclasses.fields(ScanTable)] == names
        record = ScanRecord(0.5, 0.8, "Focus", 0.1, -1.0)
        with pytest.raises(dataclasses.FrozenInstanceError):
            record.region = "NodeBelow"

    @pytest.mark.parametrize("config", [ScanConfig(eps_count=12, q_count=12), SHOOT_3X3])
    def test_reads_as_the_per_cell_records(self, config):
        records = run_scan(config).records
        expected = per_cell_records(config)
        assert isinstance(records, ScanTable)
        assert len(records) == len(expected) == config.eps_count * config.q_count
        assert list(records) == expected
        assert records[-1] == expected[-1]
        assert records[-len(expected)] == expected[0]
        assert records[2:7] == expected[2:7] and isinstance(records[2:7], list)
        assert records[::-1] == expected[::-1]
        for name in ("region", "shoot_verdict", "oscillatory"):
            assert getattr(records, name) == tuple(getattr(r, name) for r in expected)
        with pytest.raises(IndexError):
            records[len(expected)]

    def test_scan_and_emitters_build_no_record(self, monkeypatch):
        built = []

        def counting_record(*args):
            built.append(args)
            return ScanRecord(*args)

        monkeypatch.setattr(scan, "ScanRecord", counting_record)
        result = run_scan(ScanConfig(eps_count=200, q_count=200))
        for emit in (scan_to_csv, scan_to_json, scan_to_svg):
            emit(result)
        assert built == []
        # The counter sees a record that is read.
        assert result.records[40_000 - 1] == ScanRecord(*built[0])
        assert len(built) == 1

    def test_json_after_csv_makes_no_column_text(self, monkeypatch):
        # The benchmark's map, whose bytes test_golden_bytes pins.
        config = ScanConfig(eps_count=200, q_count=200)
        expected = scan_to_json(run_scan(config))
        result = run_scan(config)
        scan_to_csv(result)

        def no_text(table):
            raise AssertionError("column texts made twice")

        rebuild = functools.cached_property(no_text)
        rebuild.__set_name__(ScanTable, "_texts")
        monkeypatch.setattr(ScanTable, "_texts", rebuild)
        memo_keys, g_calls = [], []

        def missing(memo, x):
            memo_keys.append(x)
            return memo._text(x)

        def g(x):
            g_calls.append(x)
            return format(float(x), ".17g")

        monkeypatch.setattr(scan._TextMemo, "__missing__", missing)
        monkeypatch.setattr(scan, "_g", g)
        assert scan_to_json(result) == expected
        # Only the string columns go through a memo, and `_g` prints only the
        # meta ranges and the separatrix points.
        assert all(isinstance(x, str) for x in memo_keys)
        assert len(g_calls) == 4 + 2 * (len(result.separatrix1) + len(result.separatrix2))

    def test_cached_texts_leave_eq_and_hash(self):
        config = ScanConfig(eps_count=12, q_count=12)
        emitted, fresh = run_scan(config), run_scan(config)
        scan_to_csv(emitted)
        assert "_texts" in vars(emitted.records) and "_texts" not in vars(fresh.records)
        assert emitted.records == fresh.records
        assert hash(emitted.records) == hash(fresh.records)
        assert emitted == fresh

    def test_replaced_table_makes_its_own_texts(self, small_scan):
        scan_to_csv(small_scan)
        table = dataclasses.replace(
            small_scan.records, eps=[-e for e in small_scan.records.eps],
            discriminant=[2.0 * d for d in small_scan.records.discriminant])
        changed = dataclasses.replace(small_scan, records=table)
        assert "_texts" not in vars(table)
        assert scan_to_json(changed) == _ref_json(changed)
        assert scan_to_csv(changed) == _ref_csv(changed)
        assert scan_to_csv(changed) != scan_to_csv(small_scan)

    def test_a_list_of_records_becomes_a_table_once(self, small_scan):
        records = list(small_scan.records)
        result = dataclasses.replace(small_scan, records=records)
        assert isinstance(result.records, ScanTable)
        assert result.records == small_scan.records
        assert ScanResult(small_scan.config, result.records, [], []).records is result.records

    def test_columns_of_unequal_length_are_rejected(self):
        with pytest.raises(DomainError):
            ScanTable([0.5], [0.8], ["Focus"], [0.1], [-1.0], [None], [])


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

    @pytest.mark.parametrize("cell", [0, 77, 143])
    def test_a_changed_label_changes_only_its_line(self, small_scan, cell):
        # The benchmark's own check edits the first cell the same way.
        records = small_scan.records
        region = "Focus" if records[cell].region != "Focus" else "NodeBelow"
        bad = dataclasses.replace(records[cell], region=region)
        changed = dataclasses.replace(
            small_scan, records=records[:cell] + [bad] + records[cell + 1:]
        )
        # Line of the cell: below the CSV header, or below the JSON meta and
        # the SVG preamble.
        for emit, line in ((scan_to_csv, 1 + cell), (scan_to_json, 3 + cell),
                           (scan_to_svg, 3 + cell)):
            before = emit(small_scan).splitlines()
            after = emit(changed).splitlines()
            assert len(before) == len(after)
            assert [i for i, (a, b) in enumerate(zip(before, after)) if a != b] == [line]

    def test_empty_scan_bytes(self, small_scan):
        empty = ScanResult(
            config=small_scan.config, records=[],
            separatrix1=small_scan.separatrix1, separatrix2=small_scan.separatrix2,
        )
        assert len(empty.records) == 0
        got = tuple(
            hashlib.sha256(emit(empty).encode()).hexdigest()
            for emit in (scan_to_csv, scan_to_json, scan_to_svg)
        )
        assert got == (
            "2b3132ecc5fe70a69f9b3d29031d0009e5e5a309db2f0664b33a53c72324c8f5",
            "5fa9c17ddc9896d14f44c8f7710a1567b6b80e873308a036c90c33ccd8337379",
            "0ed0da0886cd4e607d1dc944c17bb210a124ca2f3e78b733241438ca9de1f7f0",
        )

    @pytest.mark.xfail(raises=json.JSONDecodeError, strict=True,
                       reason="a non-finite number is written bare, which JSON has no text for; "
                              "its text is for schema_version 2 to fix (ROADMAP item 10)")
    def test_json_with_a_nan_parses(self):
        record = ScanRecord(0.5, 0.8, "Focus", 0.1, math.nan)
        result = ScanResult(ScanConfig(eps_count=7, q_count=5), [record], [], [])
        assert '"discriminant": nan,' in scan_to_json(result)
        assert math.isnan(json.loads(scan_to_json(result))["records"][0]["discriminant"])

    @pytest.mark.parametrize(
        "config,digests",
        [
            # Default margins, so both 1e-6 edges are cells.
            (
                ScanConfig(eps_count=41, q_count=41),
                (
                    "694037d103da1ad39efe4fed1748c216f3dc679f2d96a0b8ffc70fab631fe75b",
                    "5d34929100f832a28a477fa7b8cebf502ffcbba31024311d3f0d268de2cf4f92",
                    "ef318d6425f255aa8ff8b1f8540aeac8feb1da4234418f697faa9d303b08fd63",
                ),
            ),
            # A box straddling eps_hat and crossing both separatrices.
            (
                ScanConfig(eps_lo=0.3, eps_hi=0.9, eps_count=37,
                           q_lo=0.755, q_hi=0.95, q_count=53),
                (
                    "66db2b57dcee385dde0b2231bb7f73b6225c3626bc82a42a92063adf70bda793",
                    "66c94e5f0cc48feeda63b41451ce22a4885a04ad3532c7dca5dd5e1a9a0b1d6c",
                    "1f2cf86cd1d396ba587694ce92db00a2d4b486f261d9af14c25e6d5adc6f58eb",
                ),
            ),
            # The benchmark's map: every eps, q_tilde and v_plus^2 repeats 200 times.
            (
                ScanConfig(eps_count=200, q_count=200),
                (
                    "9f07113892491ffa3b44d7fb6dfa708076dc6a4ba22c662eb668fa31fadee58d",
                    "542e18e7b30713fb59173e2694dcf2d8ad164bc92dbaad7b94e3b1f0a1109cda",
                    "71c8da27bd5a1bef0e7b862286fdf37d9b364e84f80e621808ee9540b5152190",
                ),
            ),
            # Shooting fills the shoot_verdict and oscillatory columns: node and
            # focus cells converge, the large-amplitude corner hits the locus.
            (
                ScanConfig(eps_lo=0.05, eps_hi=1.0, eps_count=3,
                           q_lo=0.76, q_hi=0.99, q_count=3, shoot=True),
                (
                    "7c3ee2029ee0cc7ec5e7037033d502519147010f0c3195c0c44b81b59ef01d84",
                    "247bf0cfa0421d274bb6298757b38bc08b30d9fc52f3766df640cbba9a9dbfdf",
                    "5583eab6b64489baf1a8a419cda14dac7f63eb4afee81376137cdfdc16703b8d",
                ),
            ),
        ],
    )
    def test_golden_bytes(self, config, digests):
        # The emitted bytes are part of the output contract: the layout changes
        # only with a deliberate schema_version bump, and a value only with a
        # deliberate change of the quantity behind it.
        result = run_scan(config)
        got = tuple(
            hashlib.sha256(emit(result).encode()).hexdigest()
            for emit in (scan_to_csv, scan_to_json, scan_to_svg)
        )
        assert got == digests


# Per-value reference emitters: each value formatted where it is written, and
# each string quoted by the csv module (minimal quoting) or `json.dumps`.
def _ref_g(x):
    return format(float(x), ".17g")


def _ref_csv_line(cells):
    out = io.StringIO()
    csv.writer(out).writerow(cells)
    return out.getvalue().removesuffix("\r\n")


def _ref_csv(result):
    lines = ["eps,q_tilde,region,v_plus_sq,discriminant,shoot_verdict,oscillatory"]
    for r in result.records:
        verdict = r.shoot_verdict or ""
        osc = "" if r.oscillatory is None else ("true" if r.oscillatory else "false")
        lines.append(_ref_csv_line([
            _ref_g(r.eps), _ref_g(r.q_tilde), r.region, _ref_g(r.v_plus_sq),
            _ref_g(r.discriminant), verdict, osc,
        ]))
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
        osc = "null" if r.oscillatory is None else ("true" if r.oscillatory else "false")
        rec_lines.append(
            f'    {{"eps": {_ref_g(r.eps)}, "q_tilde": {_ref_g(r.q_tilde)}, '
            f'"region": {json.dumps(r.region)}, "v_plus_sq": {_ref_g(r.v_plus_sq)}, '
            f'"discriminant": {_ref_g(r.discriminant)}, '
            f'"shoot_verdict": {json.dumps(r.shoot_verdict)}, "oscillatory": {osc}}}'
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


def _ref_svg(result, width=880, height=640):
    # The whole document, one line per element, each value formatted where
    # it is written.
    c = result.config
    ml, mr, mt, mb = 70, 170, 30, 55
    pw, ph = width - ml - mr, height - mt - mb

    def x_of(e):
        return ml + (e - c.eps_lo) / (c.eps_hi - c.eps_lo) * pw

    def y_of(q):
        return mt + (c.q_hi - q) / (c.q_hi - c.q_lo) * ph

    cw = pw / c.eps_count
    ch = ph / c.q_count
    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect x="0" y="0" width="{width}" height="{height}" fill="#ffffff"/>',
    ]
    for r in result.records:
        x = x_of(float(r.eps)) - cw / 2.0
        y = y_of(float(r.q_tilde)) - ch / 2.0
        lines.append(
            f'<rect x="{x:.2f}" y="{y:.2f}" width="{cw:.2f}" height="{ch:.2f}" '
            f'fill="{_SVG_FILL.get(r.region, "#999999")}"/>'
        )
    for pts in (result.separatrix1, result.separatrix2):
        if pts:
            path = " ".join(f"{x_of(e):.2f},{y_of(q):.2f}" for e, q in pts)
            lines.append(f'<polyline points="{path}" fill="none" stroke="#000000" '
                         'stroke-width="1.5"/>')
    lines.append(f'<rect x="{ml}" y="{mt}" width="{pw}" height="{ph}" fill="none" '
                 'stroke="#000000" stroke-width="1"/>')
    lines.append(f'<text x="{ml + pw / 2:.0f}" y="{height - 14}" text-anchor="middle" '
                 'font-size="15" font-family="sans-serif">dissipation eps</text>')
    lines.append(f'<text x="18" y="{mt + ph / 2:.0f}" text-anchor="middle" font-size="15" '
                 f'font-family="sans-serif" transform="rotate(-90 18 {mt + ph / 2:.0f})">'
                 "shock strength q~</text>")
    for e in (c.eps_lo, c.eps_hi):
        lines.append(f'<text x="{x_of(e):.0f}" y="{mt + ph + 18}" text-anchor="middle" '
                     f'font-size="12" font-family="sans-serif">{e:.4g}</text>')
    for q in (c.q_lo, c.q_hi):
        lines.append(f'<text x="{ml - 8}" y="{y_of(q) + 4:.0f}" text-anchor="end" '
                     f'font-size="12" font-family="sans-serif">{q:.6g}</text>')
    ly = mt + 8
    for key, text in [("NodeBelow", "node (below Q1)"), ("Focus", "focus"),
                      ("NodeAbove", "node (above Q2)"), ("Separatrix1", "separatrices")]:
        lines.append(f'<rect x="{ml + pw + 14}" y="{ly}" width="14" height="14" '
                     f'fill="{_SVG_FILL[key]}"/>')
        lines.append(f'<text x="{ml + pw + 34}" y="{ly + 12}" font-size="13" '
                     f'font-family="sans-serif">{text}</text>')
        ly += 22
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


# Values a per-call memo keyed by the float could get wrong: signed zeros
# (equal as keys, printed "0" and "-0"), NaN (unequal to itself), infinities,
# neighbours that differ in the last bit, and numpy scalars equal to floats.
_TRAPS = [0.0, -0.0, math.nan, math.inf, -math.inf, 0.5, math.nextafter(0.5, 1.0),
          5e-324, -1e-300, 0.1, 1.0]
_number = st.one_of(
    st.sampled_from(_TRAPS),
    st.floats(allow_nan=True, allow_infinity=True),
).flatmap(lambda x: st.sampled_from([x, np.float64(x)]))
# Strings a caller may put in a record: the library's labels, a label member
# (a str subclass, written by its characters), and text that needs quoting
# in CSV (comma, quote, CR, LF) or escaping in JSON.
_AWKWARD = ['Fo"cus', "Bad\\Name", "a,b", "two\nlines", "cr\r", '"', "", " x ", "\x00\t", "é"]
_region = st.one_of(
    st.sampled_from([label.value for label in RegionLabel] + [RegionLabel.FOCUS, "Unknown"]
                    + _AWKWARD),
    st.text(max_size=6),
)
_verdict = st.one_of(
    st.sampled_from([None, "ConvergedToPlus", "NotASaddle"] + _AWKWARD),
    st.text(max_size=6),
)


def _records(number):
    return st.builds(
        ScanRecord,
        eps=number,
        q_tilde=number,
        region=_region,
        v_plus_sq=number,
        discriminant=number,
        shoot_verdict=_verdict,
        oscillatory=st.sampled_from([None, True, False]),
    )


_record = _records(_number)


@given(
    pool=st.lists(_record, min_size=1, max_size=6),
    picks=st.lists(st.integers(0, 5), max_size=30),
    curve=st.lists(st.tuples(_number, _number), max_size=4),
    json_first=st.booleans(),
)
def test_emitters_match_per_value_formatting(pool, picks, curve, json_first):
    # Records drawn from a small pool, so equal values repeat across cells;
    # no picks give the empty table, where the head meets the tail.
    records = [pool[i % len(pool)] for i in picks]
    result = ScanResult(
        config=ScanConfig(eps_count=7, q_count=5),
        records=records,
        separatrix1=curve,
        separatrix2=curve[::-1],
    )
    # The first emitter call makes the table's texts; the second reads them.
    emitters = [(scan_to_csv, _ref_csv), (scan_to_json, _ref_json)]
    with np.errstate(all="ignore"):
        for emit, ref in emitters[::-1] if json_first else emitters:
            assert emit(result) == ref(result)
        assert scan_to_svg(result) == _ref_svg(result)


@given(records=st.lists(_records(st.floats(allow_nan=False, allow_infinity=False)), max_size=8))
def test_any_string_keeps_both_formats_parseable(records):
    # Finite numbers only: JSON has no text for NaN or the infinities.
    result = ScanResult(config=ScanConfig(eps_count=7, q_count=5), records=records,
                        separatrix1=[], separatrix2=[])
    doc = json.loads(scan_to_json(result))
    assert [(r["region"], r["shoot_verdict"]) for r in doc["records"]] == [
        (r.region, r.shoot_verdict) for r in records]
    rows = list(csv.reader(io.StringIO(scan_to_csv(result), newline="")))[1:1 + len(records)]
    assert all(len(row) == 7 for row in rows)
    assert [(row[2], row[5]) for row in rows] == [
        (r.region, r.shoot_verdict or "") for r in records]
