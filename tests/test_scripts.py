from pathlib import Path

from conftest import run_python

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def run_script(name, *args):
    """Run a script under `python -W error` with the package importable; return stdout."""
    proc = run_python("-W", "error", str(SCRIPTS / name), *args, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_make_figure1_writes_svg_and_csv(tmp_path):
    out = run_script("make_figure1.py", "--grid", "20x20", "--out-dir", str(tmp_path))
    svg = (tmp_path / "parameter_square.svg").read_text()
    rows = (tmp_path / "parameter_square.csv").read_text().splitlines()
    assert svg.rstrip().endswith("</svg>")
    # The cells, then the separatrix polylines under their own headers.
    assert rows.index("# separatrix q1") == 1 + 20 * 20
    assert out.splitlines()[-1] == (
        "region cell counts: {'NodeAbove': 215, 'NodeBelow': 28, 'Focus': 157}"
    )


def test_profile_gallery_writes_every_trajectory(tmp_path):
    out = run_script("profile_gallery.py", "--out-dir", str(tmp_path))
    files = sorted(tmp_path.glob("profile_eps*_q*.csv"))
    assert len(files) == 10
    for path in files:
        assert path.read_text().startswith("pseudo_time,psi0,psi1,theta,u,v\n")
    assert "ConvergedToPlus" in out
