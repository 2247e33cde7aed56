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
