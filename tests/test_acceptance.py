"""Acceptance suite: one test per shipped guarantee, one printed line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the pass/fail lines.
Every expected number below was either frozen from an independent evaluation
route before the implementation existed, or is asserted against a second
route.  Two such routes live in tests/.  tests/oracles.py holds the
eigenvalue entropy entropy_of_state (criteria 3, 9 and 10): the state's
coefficient vector, its partial trace onto one slot and np.linalg.eigvalsh.
It ends in shannon_bits, as the package's own entropy does, so it cannot
catch an error there.  tests/reference.py can: it computes in the decimal
module and imports nothing from spinscatter.  tests/test_reference.py holds
to it the default scan's printed columns, the Slater rank on 1e-4...1e-2,
both fields of the `critical` line, and f_plus and F of the 10k-row JSON
scan.  The Pauli oracle of criterion 5, correlator_oracle, is still in
spinscatter.bell.
"""

import math

import numpy as np
import pytest

from spinscatter.amplitudes import (
    Kinematics,
    NormalizedAmplitudePair,
    coulomb_amplitudes,
    coulomb_f_pm,
    coulomb_provider,
    normalize,
)
from spinscatter.bell import (
    bell_F,
    correlator_closed_form,
    correlator_oracle,
    critical_angle,
    standard_geometry,
    UnitVector3,
)
from spinscatter.cli import main
from spinscatter.entanglement import (
    eoe_label_fixed,
    eoe_symmetrized,
)
from spinscatter.spin_states import (
    ExchangeStatistics,
    SlaterDecomposition,
    distinguishable_outgoing_state,
    outgoing_state,
    slater_decomposition,
    slater_rank,
)

from oracles import entropy_of_state

INV_SQRT2 = 1.0 / math.sqrt(2.0)

# 200 uniformly spaced angles over (0, pi/2], endpoint included.
GRID_200 = np.linspace(math.pi / 2.0 / 200.0, math.pi / 2.0, 200)


def report(number: int, label: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[{status}] criterion {number}: {label}{suffix}")
    assert ok, f"criterion {number}: {label}{suffix}"


def coulomb_pair(theta):
    return NormalizedAmplitudePair(*coulomb_f_pm(theta))


def test_criterion_01_critical_angle():
    """The Bell border of the Coulomb curve sits at pi/4 within 1e-9."""
    root = critical_angle(coulomb_provider())
    err = abs(root - math.pi / 4.0)
    report(1, "critical angle pi/4", err <= 1e-9, f"|error| = {err:.3e}")


def test_criterion_02_maximal_entanglement():
    """At pi/2 the entropy is one e-bit and the decomposition is the singlet."""
    entropy_err = abs(eoe_label_fixed(coulomb_f_pm(math.pi / 2.0)) - 1.0)
    dec = slater_decomposition(coulomb_pair(math.pi / 2.0))
    coeff_err = max(abs(dec.c_s - INV_SQRT2), abs(dec.c_minus_s + INV_SQRT2))
    ok = entropy_err <= 1e-12 and coeff_err <= 1e-12
    report(2, "maximal entanglement at pi/2", ok,
           f"|S-1| = {entropy_err:.3e}, singlet coeff error = {coeff_err:.3e}")


def test_criterion_03_entropy_curve():
    """Schmidt-route entropy equals the closed form and rises monotonically."""
    closed = [eoe_label_fixed(coulomb_f_pm(t)) for t in GRID_200]
    schmidt = [
        entropy_of_state(outgoing_state(coulomb_pair(t), ExchangeStatistics.FERMION))
        for t in GRID_200
    ]
    worst = max(abs(a - b) for a, b in zip(closed, schmidt))
    increasing = all(a < b for a, b in zip(schmidt, schmidt[1:]))
    report(3, "entropy curve", worst <= 1e-12 and increasing,
           f"max |closed - schmidt| = {worst:.3e}, strictly increasing = {increasing}")


def test_criterion_04_bell_curve():
    """F = 5/4 - (3/2) f+ f-, strictly decreasing, one border crossing, F(pi/2) = 1/2."""
    values = []
    worst = 0.0
    for t in GRID_200:
        f_plus, f_minus = coulomb_f_pm(t)
        value = bell_F(coulomb_pair(t))
        worst = max(worst, abs(value - (1.25 - 1.5 * f_plus * f_minus)))
        values.append(value)
    decreasing = all(a > b for a, b in zip(values, values[1:]))
    crossings = sum(
        1 for a, b in zip(values, values[1:]) if (a - 1.0 < 0.0) != (b - 1.0 < 0.0)
    )
    end_err = abs(values[-1] - 0.5)
    ok = worst <= 1e-12 and decreasing and crossings == 1 and end_err <= 1e-12
    report(4, "Bell combination curve", ok,
           f"max formula error = {worst:.3e}, decreasing = {decreasing}, "
           f"crossings = {crossings}, |F(pi/2)-1/2| = {end_err:.3e}")


def test_criterion_05_oracle_equivalence():
    """Closed-form correlator vs Pauli-expectation oracle on 10^4 random triples."""
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(10_000):
        amps = coulomb_pair(rng.uniform(1e-3, math.pi - 1e-3))
        state = outgoing_state(amps, ExchangeStatistics.FERMION)
        a = UnitVector3.normalized(*rng.normal(size=3))
        b = UnitVector3.normalized(*rng.normal(size=3))
        diff = abs(correlator_closed_form(a, b, amps) - correlator_oracle(state, a, b))
        worst = max(worst, diff)
    report(5, "oracle equivalence", worst < 1e-12, f"max |closed - oracle| = {worst:.3e}")


def test_criterion_06_geometry_identity():
    """|E(a,b) - E(a,c)| = 1 at every angle for the canonical analyzer triple."""
    geo = standard_geometry()
    worst = 0.0
    for t in np.linspace(0.01, math.pi - 0.01, 100):
        amps = coulomb_pair(t)
        gap = correlator_closed_form(geo.a_hat, geo.b_hat, amps) - correlator_closed_form(
            geo.a_hat, geo.c_hat, amps
        )
        worst = max(worst, abs(abs(gap) - 1.0))
    report(6, "geometry identity", worst <= 1e-12, f"max deviation from 1 = {worst:.3e}")


def test_criterion_07_kinematics_cancellation():
    """Mass, energy and coupling cancel from the normalized Coulomb pair."""
    rng = np.random.default_rng(7)
    grid = np.linspace(0.05, math.pi - 0.05, 21)
    worst = 0.0
    for _ in range(100):
        m = rng.uniform(0.0, 5.0)
        kin = Kinematics(
            m=m, E=m + rng.uniform(0.01, 20.0), charge_factor=rng.uniform(0.01, 10.0)
        )
        for t in grid:
            out = normalize(coulomb_amplitudes(float(t), kin))
            f_plus, f_minus = coulomb_f_pm(float(t))
            worst = max(worst, abs(out.f_plus - f_plus), abs(out.f_minus - f_minus))
    report(7, "kinematics cancellation", worst <= 1e-12, f"max amplitude error = {worst:.3e}")


def test_criterion_08_convention_offset():
    """The two entropy conventions differ by exactly one bit."""
    rng = np.random.default_rng(88)
    worst = 0.0
    for _ in range(1000):
        w = rng.uniform(0.0, 1.0)
        phase = np.exp(1j * rng.uniform(0.0, 2.0 * math.pi))
        coeffs = [math.sqrt(w), -math.sqrt(1.0 - w) * phase]
        diff = eoe_symmetrized(coeffs) - eoe_label_fixed(coeffs)
        worst = max(worst, abs(diff - 1.0))
    report(8, "convention offset", worst <= 1e-15, f"max |offset - 1| = {worst:.3e}")


def test_criterion_09_distinguishable_null_result():
    """Distinguishable particles: zero entropy, single-determinant analogue."""
    entropy = entropy_of_state(distinguishable_outgoing_state(coulomb_pair(1.0)))
    rank = slater_rank(SlaterDecomposition(1.0, 0.0))
    ok = entropy == 0.0 and rank == 1
    report(9, "distinguishable null result", ok, f"entropy = {entropy!r}, rank = {rank}")


def test_criterion_10_boson_parity():
    """Boson and fermion entropies coincide; only the exchange sign differs."""
    worst = 0.0
    signs_opposite = True
    for t in GRID_200:
        amps = coulomb_pair(t)
        fermion = outgoing_state(amps, ExchangeStatistics.FERMION)
        boson = outgoing_state(amps, ExchangeStatistics.BOSON)
        worst = max(worst, abs(entropy_of_state(fermion) - entropy_of_state(boson)))
        if not fermion.c_downup == -boson.c_downup or not boson.c_downup.real > 0.0:
            signs_opposite = False
    report(10, "boson parity", worst <= 1e-12 and signs_opposite,
           f"max entropy gap = {worst:.3e}, opposite exchange signs = {signs_opposite}")


def test_criterion_11_cli_determinism(capsys):
    """Byte-identical repeated scans; the pi/4 row sits on the border, unviolated."""
    argv = ["scan", "--theta-min", str(math.pi / 4.0), "--theta-max", str(math.pi / 2.0), "--steps", "100"]
    assert main(list(argv)) == 0
    first = capsys.readouterr().out
    assert main(list(argv)) == 0
    second = capsys.readouterr().out

    row = first.splitlines()[1].split(",")
    theta_err = abs(float(row[0]) - math.pi / 4.0)
    f_err = abs(float(row[4]) - 1.0)
    ok = (
        first == second
        and theta_err <= 1e-12
        and f_err <= 1e-12
        and row[5] == "false"
    )
    report(11, "CLI determinism and border row", ok,
           f"identical = {first == second}, |F(pi/4)-1| = {f_err:.3e}, violated = {row[5]}")
