"""Smoke tests of the experiment scripts: each runs end to end and prints
its header and the expected number of rows."""

import runpy
import sys
from pathlib import Path

import pytest

from gausscat.wavefunc import AliasingWarning

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def run_script(monkeypatch, capsys, name, *args):
    monkeypatch.setattr(sys, "argv", [name, *args])
    runpy.run_path(str(SCRIPTS / name), run_name="__main__")
    return capsys.readouterr().out


def test_state_tables(monkeypatch, capsys):
    out = run_script(monkeypatch, capsys, "state_tables.py", "--n-max", "4")
    headers = [line for line in out.splitlines() if line.startswith("M/N = ")]
    components = [line for line in out.splitlines() if line.startswith("    k=")]
    # 1/2, 1/3, 2/3, 1/4, 3/4 with N components each
    assert [h.split()[2] for h in headers] == ["1/2", "1/3", "2/3", "1/4", "3/4"]
    assert len(components) == 2 + 3 + 3 + 4 + 4
    assert all(float(h.split("discrepancy ")[1].rstrip(")")) < 1e-12 for h in headers)


def test_kernel_convergence(monkeypatch, capsys):
    # the coarsest grids cannot resolve the transformed state and say so
    with pytest.warns(AliasingWarning):
        out = run_script(monkeypatch, capsys, "kernel_convergence.py")
    lines = out.strip().splitlines()
    assert lines[0] == "points,spacing,spectral_error,round_trip_error"
    rows = [[float(v) for v in line.split(",")] for line in lines[1:]]
    assert [int(r[0]) for r in rows] == [51, 75, 101, 151, 201, 401, 801, 2001]
    # converged at the finest grid, to the acceptance tolerance of kernel-spectral
    assert rows[-1][2] < 1e-6
