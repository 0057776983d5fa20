"""Property tests: scan tables against one-angle calls of the same functions, closed forms against the Pauli oracle."""

import cmath
import json
import math

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from spinscatter.amplitudes import AmplitudePair, constant_provider, normalize  # noqa: E402
from spinscatter.bell import (  # noqa: E402
    BellGeometry,
    UnitVector3,
    bell_F,
    correlator_closed_form,
    correlator_oracle,
    standard_geometry,
)
from spinscatter.cli import FIELDS, ScanConfig, evaluate_grid, parse_interaction, render, scan_records  # noqa: E402
from spinscatter.entanglement import shannon_bits  # noqa: E402
from spinscatter.spin_states import ExchangeStatistics, outgoing_state, rank_of_weights  # noqa: E402

HALF_PI = math.pi / 2.0
STATISTICS = {"fermion": ExchangeStatistics.FERMION, "boson": ExchangeStatistics.BOSON}

statistics_names = st.sampled_from(sorted(STATISTICS))
scan_steps = st.integers(2, 400)
constant_f_plus = st.one_of(st.sampled_from([0.0, 1.0, 1e-7, 0.999999]), st.floats(0.0, 1.0))
interactions = st.one_of(st.just("coulomb"), constant_f_plus.map(lambda f_plus: f"constant:{f_plus!r}"))
# Direction of a real channel pair (cos phi, sin phi): every sign pattern, f_plus = 0 and f_minus = 0 included.
pair_angles = st.one_of(
    st.sampled_from([0.0, HALF_PI, math.pi, -HALF_PI]),
    st.floats(-math.pi, math.pi, allow_nan=False),
)
# Relative phase of the exchange channel: 0 keeps the pair real, pi/2 makes Re f_minus vanish.
relative_phases = st.one_of(st.sampled_from([0.0, HALF_PI, math.pi]), st.floats(-math.pi, math.pi))


@st.composite
def scan_ranges(draw):
    lo = draw(st.floats(1e-9, HALF_PI, exclude_max=True))
    hi = draw(st.one_of(st.just(HALF_PI), st.floats(lo, HALF_PI, exclude_min=True)))
    return lo, hi


@st.composite
def rotations(draw):
    """A rotation matrix from a random unit quaternion."""
    q = np.array(draw(st.tuples(*[st.floats(-1.0, 1.0)] * 4)))
    n = np.linalg.norm(q)
    if n < 0.1:
        q, n = np.array([1.0, 0.0, 0.0, 0.0]), 1.0
    w, x, y, z = q / n
    return np.array([
        [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
        [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
        [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
    ])


@st.composite
def angle_grids(draw):
    """Sorted random angles in (1e-7, pi/2], where the Coulomb amplitude stays finite; repeats allowed."""
    thetas = draw(st.lists(st.floats(1e-7, HALF_PI, exclude_min=True), min_size=2, max_size=300))
    return np.array(sorted(thetas))


def phased_pair(phi, psi):
    """Normalized (cos phi, e^{i psi} sin phi); Python floats when psi = 0."""
    exchange = math.sin(phi) * cmath.rect(1.0, psi) if psi else math.sin(phi)
    return normalize(AmplitudePair(math.cos(phi), exchange))


def scalar_row(theta, provider, statistics):
    """One table row from one-angle calls: provider, normalize, bell_F, shannon_bits, rank_of_weights."""
    amps = normalize(provider(theta))
    f_value = bell_F(amps, statistics)
    f_minus = amps.f_minus.real
    weights = (amps.f_plus * amps.f_plus, f_minus * f_minus)
    return (theta, amps.f_plus, f_minus, shannon_bits(weights), f_value, f_value < 1.0, rank_of_weights(weights))


@settings(max_examples=80, deadline=None)
@given(
    grid=scan_ranges(),
    steps=scan_steps,
    f_plus=constant_f_plus,
    name=statistics_names,
)
def test_grid_matches_scalar_reference(grid, steps, f_plus, name):
    """Each scan row equals normalize + bell_F + shannon_bits + rank_of_weights at its angle, exactly."""
    lo, hi = grid
    interaction = f"constant:{f_plus!r}"
    records = scan_records(ScanConfig(lo, hi, steps, interaction=interaction, statistics=name))
    thetas = np.linspace(lo, hi, steps).tolist()
    provider = constant_provider(f_plus)
    assert records == [scalar_row(theta, provider, STATISTICS[name]) for theta in thetas]


@settings(max_examples=80, deadline=None)
@given(thetas=angle_grids(), interaction=interactions, name=statistics_names)
def test_random_grid_rows_match_one_angle_rows(thetas, interaction, name):
    """Every row equals its one-angle row wherever the angle sits: on the grid, shifted by one and reversed."""
    provider, statistics = parse_interaction(interaction), STATISTICS[name]
    want = [scalar_row(theta, provider, statistics) for theta in thetas.tolist()]
    assert evaluate_grid(thetas, provider, statistics) == want
    assert evaluate_grid(thetas[1:], provider, statistics) == want[1:]
    assert evaluate_grid(thetas[::-1], provider, statistics) == want[::-1]


@settings(max_examples=80, deadline=None)
@given(
    grid=scan_ranges(),
    steps=scan_steps,
    interaction=interactions,
    name=statistics_names,
)
def test_json_template_matches_json_dumps(grid, steps, interaction, name):
    """The hand-filled JSON template writes exactly the bytes of json.dumps(indent=2)."""
    lo, hi = grid
    assume(interaction != "coulomb" or lo > 1e-7)  # closer to the beam axis the Coulomb amplitude diverges
    rows = scan_records(ScanConfig(lo, hi, steps, interaction=interaction, statistics=name))
    want = json.dumps([dict(zip(FIELDS, row)) for row in rows], indent=2) + "\n"
    # Compared line by line: on a failure, pytest diffs two long strings for minutes and two lists at once.
    assert render(rows, "json").splitlines(keepends=True) == want.splitlines(keepends=True)


@settings(max_examples=150, deadline=None)
@given(phi=pair_angles, psi=relative_phases, rotation=rotations())
def test_closed_form_matches_oracle_under_rotation(phi, psi, rotation):
    """Closed-form fermion correlator = Pauli oracle, for any relative phase and rigid rotation of the triple."""
    amps = phased_pair(phi, psi)
    state = outgoing_state(amps, ExchangeStatistics.FERMION)
    standard = standard_geometry()
    geo = BellGeometry(*(
        UnitVector3(*(rotation @ v.as_array()).tolist()) for v in (standard.a_hat, standard.b_hat, standard.c_hat)
    ))
    for u, v in ((geo.a_hat, geo.b_hat), (geo.a_hat, geo.c_hat), (geo.b_hat, geo.c_hat), (geo.c_hat, geo.a_hat)):
        assert correlator_closed_form(u, v, amps) == pytest.approx(correlator_oracle(state, u, v), abs=1e-12)


@settings(max_examples=150, deadline=None)
@given(phi=pair_angles, psi=relative_phases, name=statistics_names)
def test_F_is_one_plus_oracle_correlator(phi, psi, name):
    """F = 1 + E(b, c) in the outgoing state of either statistics, for any relative phase."""
    amps = phased_pair(phi, psi)
    statistics = STATISTICS[name]
    geo = standard_geometry()
    want = 1.0 + correlator_oracle(outgoing_state(amps, statistics), geo.b_hat, geo.c_hat)
    assert bell_F(amps, statistics) == pytest.approx(want, abs=1e-12)
