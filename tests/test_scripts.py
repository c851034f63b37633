"""The scripts under scripts/ run against the package in src/."""

import csv
import os
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]

SWEEP_HEADER = "sigma,omega,v_sq,v_anti,v_sq_db,separability,eof_ebits,log_negativity"


def run_script(name, *args, cwd):
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    return subprocess.run(
        [sys.executable, str(REPO / "scripts" / name), *args],
        capture_output=True,
        text=True,
        cwd=cwd,
        env=env,
        timeout=120,
    )


def test_reproduce_headline_numbers(tmp_path):
    result = run_script("reproduce_headline_numbers.py", cwd=tmp_path)
    assert result.returncode == 0, result.stderr
    assert "== twin beams ==" in result.stdout


def test_sweep_squeezing_writes_three_csvs(tmp_path):
    out = tmp_path / "sweeps"
    result = run_script("sweep_squeezing.py", str(out), cwd=tmp_path)
    assert result.returncode == 0, result.stderr
    headers = {
        "pump_sweep.csv": SWEEP_HEADER,
        "frequency_sweep.csv": SWEEP_HEADER,
        "twin_spectrum.csv": "omega,noise_power,noise_power_db",
    }
    for name, header in headers.items():
        lines = (out / name).read_text().splitlines()
        assert lines[0] == header
        assert len(lines) > 1


def test_sweep_squeezing_rows_equal_the_cli_rows(tmp_path):
    out = tmp_path / "sweeps"
    assert run_script("sweep_squeezing.py", str(out), cwd=tmp_path).returncode == 0
    grids = {
        "pump_sweep.csv": ["--sigma", "0.05:0.98:60", "--omega", "0", "--eta", "0.9"],
        "frequency_sweep.csv": ["--sigma", "0.9", "--omega", "0:5:80", "--eta", "0.9"],
    }
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    for name, argv in grids.items():
        cli = subprocess.run(
            [sys.executable, "-m", "cvopo", "opo-sweep", *argv],
            capture_output=True,
            text=True,
            env=env,
            timeout=120,
        )
        assert cli.returncode == 0, cli.stderr
        script_rows = list(csv.DictReader((out / name).read_text().splitlines()))
        cli_rows = list(csv.DictReader(cli.stdout.splitlines()))
        shared = set(script_rows[0]) & set(cli_rows[0])
        assert len(shared) == 7
        assert [{k: r[k] for k in shared} for r in script_rows] == [
            {k: r[k] for k in shared} for r in cli_rows
        ]
