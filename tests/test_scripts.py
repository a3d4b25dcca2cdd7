from pathlib import Path

from conftest import run_python

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def run_script(name, *args):
    """Run a script under `python -W error` with the package importable; return stdout."""
    proc = run_python("-W", "error", str(SCRIPTS / name), *args, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_profile_gallery_writes_every_trajectory(tmp_path):
    out = run_script("profile_gallery.py", "--out-dir", str(tmp_path))
    files = sorted(tmp_path.glob("profile_eps*_q*.csv"))
    assert len(files) == 10
    for path in files:
        assert path.read_text().startswith("pseudo_time,psi0,psi1,theta,u,v\n")
    assert "ConvergedToPlus" in out
