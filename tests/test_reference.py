"""Printed Coulomb columns against the decimal reference in reference.py, which imports nothing from spinscatter."""

import csv
import io
import json
import math

import numpy as np
import pytest

from reference import coulomb, correctly_rounded, ulps
from spinscatter.cli import main


def run(capsys, *argv):
    assert main(list(argv)) == 0
    return capsys.readouterr().out


@pytest.mark.parametrize("statistics", ["fermion", "boson"])
def test_default_scan_is_correctly_rounded(capsys, statistics):
    """Every f_plus, f_minus, entropy and F field of the default 200-row CSV scan is its reference value, rounded."""
    rows = list(csv.DictReader(io.StringIO(run(capsys, "scan", "--statistics", statistics))))
    thetas = np.linspace(0.01, math.pi / 2, 200).tolist()
    assert [row["theta"] for row in rows] == [f"{theta:.12f}" for theta in thetas]
    wrong = [
        (theta, name, row[name])
        for theta, row in zip(thetas, rows)
        for name, exact in coulomb(theta, statistics).items()
        if not correctly_rounded(row[name], exact)
    ]
    assert wrong == []


@pytest.mark.xfail(
    strict=True,
    reason="1 - cos theta cancels in f_minus, and w_+ = 1 - w_- rounds in the entropy, near the beam axis",
)
def test_json_point_near_the_beam_axis_is_within_4_ulp(capsys):
    """point 0.01 prints f_minus and entropy within 4 ulp of the reference (2130 and 3.95e7 ulp off today)."""
    (row,) = json.loads(run(capsys, "point", "0.01", "--format", "json"))
    exact = coulomb(0.01, "fermion")
    assert [name for name in ("f_minus", "entropy") if ulps(row[name], exact[name]) > 4] == []
