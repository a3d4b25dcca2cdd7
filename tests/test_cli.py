import hashlib
import json
import os
import shlex
import warnings
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest

import radshock.cli
from conftest import hide_module, run_python
from radshock.cli import main
from radshock.scan import run_scan
from radshock.shooting import profile_to_csv, shoot
from shot_pins import PINS

README = Path(__file__).resolve().parents[1] / "README.md"


def run_cli_process(cwd, *args):
    """Run `python -W error -m radshock.cli ARGS` in a child, importing this checkout's src."""
    return run_python("-W", "error", "-m", "radshock.cli", *args, cwd=cwd, timeout=120)


class TestClassifyCommand:
    def test_node_below(self, capsys):
        assert main(["classify", "--eps", "1", "--q", "0.76"]) == 0
        out = capsys.readouterr().out
        assert "region: NodeBelow" in out
        assert "0.765625" in out

    def test_focus(self, capsys):
        assert main(["classify", "--eps", "1", "--q", "0.8"]) == 0
        assert "region: Focus" in capsys.readouterr().out

    def test_default_scan_corner(self, capsys):
        # det B#(psi_plus) is ~7.6e-12 here, yet v_plus^2 is 4.2e-7 off the
        # singular locus, far beyond its rounding: the spectrum is defined.
        assert main(["classify", "--eps", "1e-6", "--q", "0.999999"]) == 0
        assert "region: NodeAbove" in capsys.readouterr().out

    def test_root_collision_is_an_internal_failure(self, capsys):
        # Below eps ~ 2.2e-7 the upper roots of P collide in float64 (ROADMAP
        # item 9): a typed error, exit 4 and one line, no traceback.
        assert main(["classify", "--eps", "1e-8", "--q", "0.8"]) == 4
        err = capsys.readouterr().err
        assert "Traceback" not in err
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: RootFindingFailure: ")

    def test_q2_printed_below_hat(self, capsys):
        assert main(["classify", "--eps", "0.3", "--q", "0.8"]) == 0
        assert "separatrix q2" in capsys.readouterr().out

    def test_golden_stdout_at_small_eps(self, capsys):
        # Every 12-digit line at eps where the upper roots are 1e-4 to 1e-2
        # apart.  The 50-digit q2(0.03) is 0.75016844359250049, so its line
        # must round up.
        for eps in ("0.02", "0.03", "0.05", "0.1"):
            for q in ("0.8", "0.95"):
                assert main(["classify", "--eps", eps, "--q", q]) == 0
        out = capsys.readouterr().out
        assert out.count("separatrix q2(eps): 0.750168443593\n") == 2
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "42bba648648b0902d0e40bbefaf592faa64ba38abeaaa690e10ac8b3bbf8e021"
        )

    @pytest.mark.parametrize("q", ["0.5", "0.7", "1.0"])
    def test_domain_exit_code(self, q):
        assert main(["classify", "--eps", "0.5", "--q", q]) == 2


class TestCausalityCommand:
    def test_sharply_causal(self, capsys):
        assert main(["causality", "--eta", "1", "--mu", "1.3333333333", "--nu", "4"]) == 0
        out = capsys.readouterr().out
        assert "SharplyCausal" in out and "eps: 1" in out

    def test_acausal(self, capsys):
        assert main(["causality", "--eta", "1", "--mu", "1", "--nu", "1"]) == 0
        assert "Acausal" in capsys.readouterr().out

    def test_strictly_causal(self, capsys):
        assert main(["causality", "--eta", "1", "--mu", "3", "--nu", "3"]) == 0
        assert "StrictlyCausal" in capsys.readouterr().out

    def test_nonpositive_exit_code(self):
        for eta, mu, nu in [("-1", "1", "1"), ("nan", "1", "1"), ("1", "1", "nan"),
                            ("1", "inf", "1")]:
            assert main(["causality", "--eta", eta, "--mu", mu, "--nu", nu]) == 2


class TestVerifyCommand:
    def test_passes(self, capsys):
        assert main(["verify", "--samples", "400"]) == 0
        out = capsys.readouterr().out
        assert "all identities passed" in out
        assert out.count("PASS") >= 10

    @pytest.mark.parametrize("samples", ["0", "-3", str(10**30)])
    def test_nonpositive_samples_is_a_usage_error(self, samples):
        assert main(["verify", "--samples", samples]) == 2

    def test_default_run_from_the_process_is_warning_free(self, tmp_path):
        # Every numpy warning is an error here, so an overflow or invalid
        # value in the stacked lanes would fail the run.
        proc = run_cli_process(tmp_path, "verify")
        assert proc.returncode == 0
        assert proc.stdout.splitlines()[-1] == "all identities passed"
        assert proc.stderr == ""


PROFILE_STDOUT = {
    # A focus: two sign changes in every component.
    (1.0, 0.8): """verdict: ConvergedToPlus
oscillatory: true
system psi: psi0: extrema=2 sign_changes=2; psi1: extrema=2 sign_changes=2; oscillatory=true
system theta_v: theta: extrema=2 sign_changes=2; v: extrema=2 sign_changes=2; oscillatory=true
system u_v: u: extrema=2 sign_changes=2; v: extrema=2 sign_changes=2; oscillatory=true
samples: {samples}  trajectory: {out}
""",
    (1.0, 0.76): """verdict: ConvergedToPlus
oscillatory: false
system psi: psi0: extrema=0 sign_changes=0; psi1: extrema=0 sign_changes=0; oscillatory=false
system theta_v: theta: extrema=0 sign_changes=0; v: extrema=0 sign_changes=0; oscillatory=false
system u_v: u: extrema=0 sign_changes=0; v: extrema=0 sign_changes=0; oscillatory=false
samples: {samples}  trajectory: {out}
""",
    # A focus by its spectrum whose spiral stays below the noise floor.
    (0.526, 0.763): """verdict: ConvergedToPlus
oscillatory: false
system psi: psi0: extrema=0 sign_changes=0; psi1: extrema=0 sign_changes=0; oscillatory=false
system theta_v: theta: extrema=0 sign_changes=0; v: extrema=0 sign_changes=0; oscillatory=false
system u_v: u: extrema=0 sign_changes=0; v: extrema=0 sign_changes=0; oscillatory=false
samples: {samples}  trajectory: {out}
""",
}


class TestProfileCommand:
    @pytest.mark.parametrize("point", PROFILE_STDOUT, ids=lambda p: f"eps={p[0]}-q={p[1]}")
    def test_stdout_is_pinned(self, tmp_path, capsys, point):
        out_file = tmp_path / "traj.csv"
        args = ["profile", "--eps", repr(point[0]), "--q", repr(point[1]), "--out", str(out_file)]
        assert main(args) == 0
        want = PROFILE_STDOUT[point].format(samples=PINS[point].samples, out=out_file)
        assert capsys.readouterr().out == want

    def test_node_profile(self, tmp_path, capsys):
        out_file = tmp_path / "traj.csv"
        assert main(["profile", "--eps", "1", "--q", "0.76", "--out", str(out_file)]) == 0
        out = capsys.readouterr().out
        assert "verdict: ConvergedToPlus" in out
        assert "oscillatory: false" in out
        lines = out_file.read_text().splitlines()
        assert lines[0] == "pseudo_time,psi0,psi1,theta,u,v"
        assert len(lines) > 50

    def test_trajectory_file_is_profile_to_csv(self, tmp_path):
        out_file = tmp_path / "traj.csv"
        assert main(["profile", "--eps", "1", "--q", "0.8", "--out", str(out_file)]) == 0
        assert out_file.read_bytes() == profile_to_csv(shoot(1.0, 0.8)).encode()

    def test_run_from_the_process_is_warning_free(self, tmp_path):
        # A fresh interpreter under `-W error` imports, shoots and writes
        # the default trajectory file with no warning on the way.
        proc = run_cli_process(tmp_path, "profile", "--eps", "1.0", "--q", "0.8")
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr == ""
        digest = hashlib.sha256((tmp_path / "profile.csv").read_bytes()).hexdigest()
        assert digest.startswith("6693be1a")

    def test_rel_tol_below_100_ulp(self, tmp_path, capsys):
        # LSODA gets rtol raised to 100 ulp, so the shot runs, and no raw
        # scipy warning escapes.
        out_file = tmp_path / "traj.csv"
        args = ["profile", "--eps", "0.5", "--q", "0.9", "--rtol", "1e-16", "--atol", "1e-20"]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(args + ["--out", str(out_file)]) == 0
        out = capsys.readouterr().out
        assert "verdict: ConvergedToPlus" in out
        assert f"samples: {PINS[(0.5, 0.9)].samples}" in out

    def test_out_of_omega(self):
        assert main(["profile", "--eps", "1", "--q", "0.74"]) == 2

    def test_degenerate(self):
        assert main(["profile", "--eps", "1", "--q", "0.750000001"]) == 2

    def test_upstream_state_not_a_saddle_is_internal(self, monkeypatch, tmp_path, capsys):
        monkeypatch.setattr(radshock.shooting, "spectrum_at_v", lambda v, eps: (1j, 2.0 + 0j))
        out_file = tmp_path / "traj.csv"
        assert main(["profile", "--eps", "1", "--q", "0.8", "--out", str(out_file)]) == 4
        assert "NotASaddle" in capsys.readouterr().err
        assert not out_file.exists()

    @pytest.mark.parametrize("exc", [ValueError("f(a) and f(b) must have different signs"),
                                     ZeroDivisionError("float division by zero")])
    def test_stray_numerical_exception_exit_code(self, monkeypatch, capsys, exc):
        def broken_shoot(*_args):
            raise exc

        monkeypatch.setattr(radshock.cli, "shoot", broken_shoot)
        assert main(["profile", "--eps", "1", "--q", "0.8"]) == 4
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err.splitlines() == [f"error: {type(exc).__name__}: {exc}"]

    @pytest.mark.parametrize("flag", ["--rtol", "--atol"])
    def test_nonpositive_tolerance_is_a_usage_error(self, flag):
        for value in ("0", "nan", "inf"):
            assert main(["profile", "--eps", "1", "--q", "0.8", flag, value]) == 2

    @pytest.mark.parametrize("command", [["profile", "--eps", "1", "--q", "0.8"], ["scan"]])
    def test_offset_is_not_an_option(self, capsys, command):
        # The start offset is fixed inside the library.
        with pytest.raises(SystemExit) as info:
            main(command + ["--offset", "1e-7"])
        assert info.value.code == 2
        assert "unrecognized arguments: --offset" in capsys.readouterr().err

    @pytest.mark.parametrize("rtol", ["1", "1e10"])
    def test_rel_tol_of_one_or_more_is_a_usage_error(self, tmp_path, capsys, rtol):
        # Such a tolerance asks for no accuracy; the shot would end in a
        # verdict that says nothing about the orbit.
        out_file = tmp_path / "traj.csv"
        args = ["profile", "--eps", "1", "--q", "0.8", "--rtol", rtol, "--out", str(out_file)]
        assert main(args) == 2
        assert capsys.readouterr().err.startswith("error: rel_tol")
        assert not out_file.exists()

    def test_bad_option_exits_2_from_the_process(self, tmp_path):
        # The library, not argparse, rejects the value, so the exit code
        # comes from `main`'s return.
        proc = run_cli_process(tmp_path, "profile", "--eps", "1", "--q", "0.8", "--rtol", "1e10")
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")


@pytest.mark.parametrize(
    "command", [["profile", "--eps", "1", "--q", "0.8"], ["scan", "--shoot", "--grid", "2x2"]],
    ids=["profile", "scan-shoot"],
)
def test_missing_compiled_module_is_an_internal_failure(monkeypatch, tmp_path, capsys, command):
    # Without the compiled module a shot raises an ImportError, which exits
    # 4 on one line: a traceback's exit 1 would read as a failed verification.
    hide_module(monkeypatch, "scipy.integrate._odepack")
    out_file = tmp_path / "out"
    assert main(command + ["--out", str(out_file)]) == 4
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ImportError: a shot calls lsoda")
    assert not out_file.exists()


@pytest.mark.parametrize(
    "command", [["scan", "--grid", "2x100000000000000000"],
                ["verify", "--samples", "100000000000000000"]],
    ids=["scan", "verify"],
)
def test_count_too_large_to_allocate_is_a_domain_error(monkeypatch, tmp_path, capsys, command):
    # 10**17 float64 values pass the count gate, but their 711 PiB lie beyond
    # any address space, so numpy's allocation fails at once, touching no
    # memory.  The library raises its typed error, which exits 2 on one
    # line, as any count out of range does.
    monkeypatch.chdir(tmp_path)
    assert main(command) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ") and "Unable to allocate" in lines[0]
    assert not any(tmp_path.iterdir())


class TestScanCommand:
    def test_csv(self, tmp_path, capsys):
        out_file = tmp_path / "scan.csv"
        code = main(["scan", "--grid", "6x6", "--format", "csv", "--out", str(out_file)])
        assert code == 0
        assert "wrote" in capsys.readouterr().out
        lines = out_file.read_text().splitlines()
        assert lines[0].startswith("eps,q_tilde,region")
        assert sum(1 for l in lines if l.startswith("#")) == 2

    def test_json(self, tmp_path):
        out_file = tmp_path / "scan.json"
        assert main(["scan", "--grid", "4x4", "--format", "json", "--out", str(out_file)]) == 0
        doc = json.loads(out_file.read_text())
        assert len(doc["records"]) == 16

    def test_svg(self, tmp_path):
        out_file = tmp_path / "scan.svg"
        assert main(["scan", "--grid", "4x4", "--format", "svg", "--out", str(out_file)]) == 0
        ET.fromstring(out_file.read_text())

    def test_several_formats_come_from_one_scan(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        scans = []

        def counted(*args):
            scans.append(args)
            return run_scan(*args)

        monkeypatch.setattr(radshock.cli, "run_scan", counted)
        assert main(["scan", "--grid", "6x6", "--format", "csv", "json", "svg", "csv"]) == 0
        assert len(scans) == 1
        assert capsys.readouterr().out.startswith("wrote scan.csv, scan.json, scan.svg: 36 records")
        # Each file holds the bytes that a scan of its format alone writes.
        for fmt in ("csv", "json", "svg"):
            alone = tmp_path / f"alone.{fmt}"
            assert main(["scan", "--grid", "6x6", "--format", fmt, "--out", str(alone)]) == 0
            assert (tmp_path / f"scan.{fmt}").read_text() == alone.read_text()

    def test_out_with_several_formats_exits_2_before_scanning(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(radshock.cli, "run_scan", None)
        out_file = tmp_path / "scan.out"
        code = main(["scan", "--grid", "4x4", "--format", "csv", "json", "--out", str(out_file)])
        assert code == 2
        assert not out_file.exists()
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: --out names one file")

    def test_summary_line(self, tmp_path, capsys):
        # Regions in the order the scan first meets them, not by count.
        out_file = tmp_path / "scan.csv"
        assert main(["scan", "--grid", "20x20", "--out", str(out_file)]) == 0
        assert capsys.readouterr().out == (
            f"wrote {out_file}: 400 records, "
            "regions {'NodeAbove': 215, 'NodeBelow': 28, 'Focus': 157}\n"
        )

    def test_region_figure_writes_svg_and_csv(self, tmp_path, monkeypatch, capsys):
        # The README's figure command, on a 20x20 grid.
        monkeypatch.chdir(tmp_path)
        assert main([
            "scan", "--grid", "20x20", "--eps-min", "1e-4", "--q-min", "0.7501",
            "--q-max", "0.9999", "--format", "svg", "csv",
        ]) == 0
        svg = (tmp_path / "scan.svg").read_text()
        rows = (tmp_path / "scan.csv").read_text().splitlines()
        assert svg.rstrip().endswith("</svg>")
        # The cells, then the separatrix polylines under their own headers.
        assert rows.index("# separatrix q1") == 1 + 20 * 20
        assert capsys.readouterr().out == (
            "wrote scan.svg, scan.csv: 400 records, "
            "regions {'NodeAbove': 215, 'NodeBelow': 28, 'Focus': 157}\n"
        )

    def test_run_from_the_process_is_warning_free(self, tmp_path):
        proc = run_cli_process(tmp_path, "scan", "--grid", "20x20")
        assert proc.returncode == 0
        assert proc.stdout == (
            "wrote scan.csv: 400 records, "
            "regions {'NodeAbove': 215, 'NodeBelow': 28, 'Focus': 157}\n"
        )
        assert proc.stderr == ""

    def test_default_output_name(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["scan", "--grid", "3x3"]) == 0
        assert os.path.exists("scan.csv")

    def test_io_error_exit_code(self, tmp_path):
        assert main(["scan", "--grid", "3x3", "--out", str(tmp_path)]) == 3

    def test_bad_range_exit_code(self):
        assert main(["scan", "--grid", "4x4", "--q-min", "0.5"]) == 2

    @pytest.mark.parametrize("grid", ["200x", "x200", "20x20x2", "axb"])
    def test_malformed_grid_is_a_usage_error(self, grid):
        with pytest.raises(SystemExit) as info:
            main(["scan", "--grid", grid])
        assert info.value.code == 2

    def test_unknown_format_is_a_usage_error(self):
        with pytest.raises(SystemExit) as info:
            main(["scan", "--grid", "4x4", "--format", "pdf"])
        assert info.value.code == 2

    def test_shoot_flag(self, tmp_path):
        out_file = tmp_path / "s.csv"
        code = main([
            "scan", "--grid", "2x2", "--eps-min", "0.999", "--eps-max", "1.0",
            "--q-min", "0.76", "--q-max", "0.8", "--shoot", "--out", str(out_file),
        ])
        assert code == 0
        body = out_file.read_text()
        assert "ConvergedToPlus" in body


def readme_sh_lines():
    """The lines of the README's sh blocks."""
    lines, in_sh = [], False
    for line in README.read_text().splitlines():
        if line.startswith("```"):
            in_sh = line == "```sh"
        elif in_sh:
            lines.append(line)
    return lines


def test_readme_commands_parse():
    # Every `radshock ...` line in the README's sh blocks is a command the parser takes.
    lines = [line for line in readme_sh_lines() if line.startswith("radshock ")]
    assert lines
    parser = radshock.cli.build_parser()
    for line in lines:
        try:
            parser.parse_args(shlex.split(line)[1:])
        except SystemExit:
            pytest.fail(f"README command does not parse: {line}")


def test_readme_python_paths_exist():
    # Every `*.py` path that a line of the README's sh blocks names is a file of the checkout.
    paths = [word for line in readme_sh_lines() for word in shlex.split(line, comments=True)
             if word.endswith(".py")]
    assert paths
    missing = [path for path in paths if not (README.parent / path).is_file()]
    assert not missing, f"README names files that do not exist: {missing}"
