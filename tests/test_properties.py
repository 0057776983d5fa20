"""Property tests: scan tables against one-angle calls, one pair against its one-element grid, closed forms against the
Pauli oracle."""

import cmath
import contextlib
import functools
import io
import json
import math
import os
import re
import tempfile

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from spinscatter.amplitudes import (  # noqa: E402
    AmplitudePair,
    Kinematics,
    check_unit_norm,
    constant_provider,
    coulomb_provider,
    normalize,
    raw_grid,
    unit_weights,
)
from spinscatter.bell import (  # noqa: E402
    _BRACKET,
    _ITP_N0,
    _SCAN_POINTS,
    _first_crossing,
    BellGeometry,
    UnitVector3,
    bell_F,
    correlator_closed_form,
    correlator_oracle,
    critical_angle,
    standard_geometry,
)
from spinscatter.cli import (  # noqa: E402
    BLOCK_ROWS,
    FIELDS,
    WRITE_ROWS,
    angle_grid,
    build_parser,
    evaluate_grid,
    main,
    parse_interaction,
)
from spinscatter.entanglement import eoe_label_fixed  # noqa: E402
from spinscatter.spin_states import (  # noqa: E402
    ExchangeStatistics,
    outgoing_state,
    slater_decomposition,
    slater_rank,
)

from oracles import bisected_critical_angle  # noqa: E402
from providers import grid_form  # noqa: E402

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

# Channel values at the edges of float arithmetic, as a provider might return them: signed zeros, infinities, NaN,
# subnormals, huge and tiny values, ints, numpy floats, and complex values built from these, so one channel may be real
# and the other complex.
edge_floats = st.one_of(
    st.sampled_from([
        0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324, 2.5e-310, 1e200, -1e200, 1e300, -1e300, 1e-300,
        -1e-300, 1.5e308, -1.5e308, 1.7976931348623157e308,
    ]),
    st.floats(),
)
real_channels = st.one_of(edge_floats, st.integers(-(2**62), 2**62), edge_floats.map(np.float64))
channels = st.one_of(
    real_channels,
    st.builds(complex, edge_floats, edge_floats),
    st.builds(complex, edge_floats, edge_floats).map(np.complex128),
)


# Number spellings a user might type: non-finite, signed zero, subnormal, huge, hex, digit-grouped, any float, and
# angles in the CLI's range.
number_texts = st.one_of(
    st.sampled_from([
        "nan", "-nan", "inf", "-inf", "-0.0", "0", "5e-324", "1e-310", "1e308", "1e400", "0x1p-1", "0x10", "1_0",
        "0.7_5", "1.5707963267948966", "1.5707963267948968", "", "abc",
    ]),
    st.floats().map(repr),
    st.floats(1e-9, HALF_PI).map(repr),
)
# f_plus spellings for constant:, valid or not.
constant_texts = st.sampled_from(["nan", "inf", "-0.0", "1e-320", "1", "1.0000000000000002", "", "junk", "0.6"])


@st.composite
def cli_argvs(draw):
    """An argv for one command, each option present or not, with number-like and junk values; at most 3000 rows."""
    command = draw(st.sampled_from(["scan", "point", "critical"]))
    argv = [command]
    if command == "point":
        argv.append(draw(number_texts))
    if command == "scan":
        for option in ("--theta-min", "--theta-max"):
            if draw(st.booleans()):
                argv += [option, draw(number_texts)]
        if draw(st.booleans()):
            argv += ["--steps", draw(st.one_of(st.integers(-3, 3000).map(str), st.sampled_from(["1_0", "0x10", "2.0"])))]
    if draw(st.booleans()):
        argv += ["--interaction", draw(st.one_of(st.just("coulomb"), constant_texts.map("constant:{}".format)))]
    if command != "critical":
        argv += draw(st.sampled_from([[], ["--statistics", "boson"], ["--format", "json"]]))
    return argv


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


ROUND_OFF_PHASE = 1e-12 + 1e-12j
# Direct 1, exchange 1e-12 + 1e-12j at every angle: a relative phase within NORM_TOL, which tables accept.  A grid gets
# the pair from the grid form as constant arrays, or as the numbers that an angle-independent provider may answer it
# with.
round_off_phase_providers = {
    "round-off-phase-arrays": grid_form(lambda theta: (
        AmplitudePair(np.ones(theta.shape), np.full(theta.shape, ROUND_OFF_PHASE))
        if isinstance(theta, np.ndarray)
        else AmplitudePair(1.0, ROUND_OFF_PHASE)
    )),
    "round-off-phase-numbers": grid_form(lambda theta: AmplitudePair(1.0, ROUND_OFF_PHASE)),
}


def screened(theta):
    """The README's user provider, which takes one angle and has no grid form."""
    c = math.cos(theta)
    return AmplitudePair(1.0 / (1.1 - c), 1.0 / (1.1 + c))


def phased_pair(phi, psi):
    """Normalized (cos phi, e^{i psi} sin phi); Python floats when psi = 0."""
    exchange = math.sin(phi) * cmath.rect(1.0, psi) if psi else math.sin(phi)
    return normalize(AmplitudePair(math.cos(phi), exchange))


def rows_of(columns):
    """The rows of evaluated columns: tuples of Python values in FIELDS order, as render reads them."""
    return list(zip(*(column.tolist() for column in columns)))


def scan_rows(lo, hi, steps, interaction, name):
    """The rows `scan` writes over [lo, hi]: its own grid rule, then the table columns."""
    args = build_parser().parse_args([
        "scan", "--theta-min", repr(lo), "--theta-max", repr(hi), "--steps", str(steps),
        "--interaction", interaction, "--statistics", name,
    ])
    return rows_of(evaluate_grid(angle_grid(args), parse_interaction(args.interaction), STATISTICS[args.statistics]))


def scalar_row(theta, provider, statistics):
    """One table row from the library's one-angle calls: normalize, eoe_label_fixed, bell_F and slater_rank."""
    amps = normalize(provider(theta))
    f_value = bell_F(amps, statistics)
    entropy, rank = eoe_label_fixed([amps.f_plus, amps.f_minus]), slater_rank(slater_decomposition(amps))
    return (theta, amps.f_plus, amps.f_minus.real, entropy, f_value, f_value < 1.0, rank)


@settings(max_examples=80, deadline=None)
@given(
    grid=scan_ranges(),
    steps=scan_steps,
    f_plus=constant_f_plus,
    name=statistics_names,
)
def test_grid_matches_scalar_reference(grid, steps, f_plus, name):
    """Each scan row equals normalize + eoe_label_fixed + bell_F + slater_rank at its angle, exactly."""
    lo, hi = grid
    interaction = f"constant:{f_plus!r}"
    records = scan_rows(lo, hi, steps, interaction, name)
    thetas = np.linspace(lo, hi, steps).tolist()
    provider = constant_provider(f_plus)
    assert records == [scalar_row(theta, provider, STATISTICS[name]) for theta in thetas]


@settings(max_examples=80, deadline=None)
@given(
    thetas=angle_grids(),
    interaction=st.one_of(interactions, st.sampled_from(sorted(round_off_phase_providers))),
    name=statistics_names,
)
def test_random_grid_rows_match_one_angle_rows(thetas, interaction, name):
    """Every row equals its one-angle row wherever the angle sits: on the grid, shifted by one and reversed."""
    provider = round_off_phase_providers.get(interaction) or parse_interaction(interaction)
    statistics = STATISTICS[name]
    want = [scalar_row(theta, provider, statistics) for theta in thetas.tolist()]
    assert rows_of(evaluate_grid(thetas, provider, statistics)) == want
    assert rows_of(evaluate_grid(thetas[1:], provider, statistics)) == want[1:]
    assert rows_of(evaluate_grid(thetas[::-1], provider, statistics)) == want[::-1]


@settings(max_examples=40, deadline=None)
@given(thetas=angle_grids(), name=statistics_names)
def test_one_angle_provider_rows_match_one_angle_rows(thetas, name):
    """evaluate_grid takes a provider that takes one angle, calling it with each angle as a Python float: every row
    equals the provider's one-angle row."""
    statistics = STATISTICS[name]
    seen = []

    def recording(theta):
        seen.append(theta)
        return screened(theta)

    want = [scalar_row(theta, screened, statistics) for theta in thetas.tolist()]
    assert rows_of(evaluate_grid(thetas, recording, statistics)) == want
    assert seen == thetas.tolist() and {type(theta) for theta in seen} == {float}


@settings(max_examples=80, deadline=None)
@given(
    grid=scan_ranges(),
    steps=scan_steps,
    interaction=interactions,
    name=statistics_names,
)
# Tables that end just before, at and just after a write block's and an evaluation slice's boundary, and one that spans
# three slices.
@example(grid=(0.01, HALF_PI), steps=WRITE_ROWS - 1, interaction="constant:0.6", name="boson")
@example(grid=(0.01, HALF_PI), steps=WRITE_ROWS, interaction="coulomb", name="fermion")
@example(grid=(0.01, HALF_PI), steps=WRITE_ROWS + 1, interaction="coulomb", name="boson")
@example(grid=(0.01, HALF_PI), steps=BLOCK_ROWS - 1, interaction="coulomb", name="fermion")
@example(grid=(0.01, HALF_PI), steps=BLOCK_ROWS, interaction="coulomb", name="boson")
@example(grid=(0.01, HALF_PI), steps=BLOCK_ROWS + 1, interaction="constant:0.6", name="fermion")
@example(grid=(0.01, HALF_PI), steps=2 * BLOCK_ROWS + 1, interaction="coulomb", name="fermion")
def test_json_template_matches_json_dumps(grid, steps, interaction, name):
    """The JSON table `scan` writes, block by block, has exactly the bytes of json.dumps(indent=2)."""
    lo, hi = grid
    assume(interaction != "coulomb" or lo > 1e-7)  # closer to the beam axis the Coulomb amplitude diverges
    rows = scan_rows(lo, hi, steps, interaction, name)
    want = json.dumps([dict(zip(FIELDS, row)) for row in rows], indent=2) + "\n"
    argv = ["scan", "--theta-min", repr(lo), "--theta-max", repr(hi), "--steps", str(steps)]
    with contextlib.redirect_stdout(io.StringIO()) as out:
        code = main([*argv, "--interaction", interaction, "--statistics", name, "--format", "json"])
    assert code == 0
    # Compared line by line: on a failure, pytest diffs two long strings for minutes and two lists at once.
    assert out.getvalue().splitlines(keepends=True) == want.splitlines(keepends=True)


def float_bits(x):
    """The bits of a float or complex, signed zeros told apart, and its Python type."""
    return type(x), x.real.hex(), x.imag.hex()


def squared_parts(coeffs):
    """|c|^2 of numbers as complex(c)'s parts squared: unit_weights' rule, without its fast path for a float."""
    return [c.real * c.real + c.imag * c.imag for c in map(complex, coeffs)]


@settings(max_examples=1000, deadline=None)
@given(direct=channels, exchange=channels)
@example(direct=0.0, exchange=0.0)  # zero norm
@example(direct=0.0, exchange=math.nan)  # zero lead, NaN norm
@example(direct=-0.0j, exchange=math.inf)  # f_plus = 0: f_minus is inf / inf
@example(direct=3, exchange=-4.0 + 0.0j)  # an int beside a complex channel
@example(direct=1.0 + 1.0j, exchange=1.7e308 + 1.7e308j)  # the exchange channel's modulus overflows to inf
@example(direct=1.5e308, exchange=1.5e308)  # finite channels whose norm overflows to inf
@example(direct=1e200, exchange=-0.0)  # a weight that squares to inf, refused as a raw pair's weights
@example(direct=0.6, exchange=-0.8)  # floats whose weights pass unit_weights' check
@example(direct=np.float64(-0.6), exchange=np.complex128(0.8j))  # numpy scalars whose weights pass it
@example(direct=-5e-324, exchange=1)  # a subnormal beside an int
def test_one_pair_matches_its_one_element_grid(direct, exchange):
    """normalize of one pair raises ValueError exactly when its one-element arrays do; else it is bit for bit theirs.

    The arrays are built per channel, as critical_angle's bracket builds them.  So is a grid that holds one channel as
    a number beside a two-element array of the other: normalize broadcasts the number, and each element is bit for bit
    the one pair.  AmplitudePair is a plain record, so normalize meets every pair, those with a zero, inf or NaN
    channel norm too; no exception but ValueError may escape.  The weights follow one rule, squared_parts: of the raw
    pair unit_weights returns it bit for bit or refuses the pair exactly when its sum fails the unit-norm check, and
    every normalized pair, one or a grid's element, stores those bits.
    """
    want = squared_parts((direct, exchange))
    try:
        weights = unit_weights((direct, exchange), "w")
    except ValueError:
        with pytest.raises(ValueError):
            check_unit_norm(sum(want), "w")
    else:
        assert [float_bits(w) for w in weights] == [float_bits(w) for w in want]
    outcomes = []
    for d, e in (
        (direct, exchange),
        (np.array([direct]), np.array([exchange])),
        (direct, np.array([exchange, exchange])),
        (np.array([direct, direct]), exchange),
    ):
        try:
            outcomes.append(normalize(AmplitudePair(d, e)))
        except ValueError:
            outcomes.append(None)
    one, *grids = outcomes
    assert all((one is None) == (grid is None) for grid in grids)
    if one is not None:
        assert type(one.f_plus) is float and type(one.f_minus) in (float, complex)
        weights = [float_bits(w) for w in one.weights]
        assert weights == [float_bits(w) for w in squared_parts((one.f_plus, one.f_minus))]
        for grid in grids:
            for want in zip(grid.f_plus.tolist(), grid.f_minus.tolist()):
                assert [float_bits(x) for x in (one.f_plus, one.f_minus)] == [float_bits(x) for x in want]
            for element in zip(*(w.tolist() for w in grid.weights)):
                assert [float_bits(w) for w in element] == weights


@st.composite
def bracket_values(draw):
    """F - 1 over the bracket grid as critical_angle scans it.

    Runs of one sign (one run: an array of one sign throughout) with exact zeros anywhere, the first and last angle
    included; or one number broadcast over the grid, which is what a grid answered with numbers gives.
    """
    magnitudes = st.one_of(st.sampled_from([5e-324, 1e-300, 0.25, 0.5]), st.floats(5e-324, 0.5))
    if draw(st.booleans()):
        number = draw(st.one_of(st.sampled_from([0.0, -0.0]), magnitudes, magnitudes.map(lambda m: -m)))
        return np.broadcast_to(np.float64(number), (_SCAN_POINTS,))
    runs = draw(st.lists(st.tuples(st.sampled_from([-1.0, 1.0]), magnitudes, st.integers(1, _SCAN_POINTS)), min_size=1,
                         max_size=6))
    values = np.resize(np.concatenate([np.full(length, sign * m) for sign, m, length in runs]), _SCAN_POINTS)
    at = st.one_of(st.sampled_from([0, _SCAN_POINTS - 1]), st.integers(0, _SCAN_POINTS - 1))
    for k in draw(st.lists(at, max_size=4)):
        values[k] = draw(st.sampled_from([0.0, -0.0]))
    return values


@settings(max_examples=300, deadline=None)
@given(values=bracket_values())
@example(values=np.full(_SCAN_POINTS, -0.5))
@example(values=np.full(_SCAN_POINTS, 0.25))
@example(values=np.concatenate([[0.0], np.full(_SCAN_POINTS - 1, -0.5)]))
@example(values=np.concatenate([np.full(_SCAN_POINTS - 1, 0.25), [0.0]]))
def test_first_crossing_matches_the_diff_scan(values):
    """The sign-change scan picks the first index that the np.diff expression it replaced picks, or None with it."""
    hits = np.flatnonzero((values == 0.0) | np.append(np.diff(values < 0.0), False))
    assert _first_crossing(values) == (int(hits[0]) if hits.size else None)


def scalar_provider(k):
    """(cos k theta, sin k theta), with no grid form: F = 5/4 - (3/4) sin(2 k theta) crosses 1 at asin(1/3) / (2 k)."""
    return lambda theta: AmplitudePair(math.cos(k * theta), math.sin(k * theta))


def screened(theta):
    """The README's screened Coulomb provider."""
    c = math.cos(theta)
    return AmplitudePair(1.0 / (1.1 - c), 1.0 / (1.1 + c))


def steep(theta):
    """F falls from 5/4 to 1/2 within about 0.016 of theta = 1.2, and crosses 1 near 1.19385."""
    phi = min(max(math.pi / 4 + 100.0 * (theta - 1.2), 0.0), math.pi / 2)
    return AmplitudePair(math.cos(phi), math.sin(phi))


_SPACING = (_BRACKET[1] - _BRACKET[0]).item()
_CENTER = (0.5 * (_BRACKET[500] + _BRACKET[501])).item()


def window(theta):
    """A step function: F = 1/2 within 0.75 grid spacings of a point between two bracket angles, F = 5/4 outside."""
    return AmplitudePair(1.0, 1.0) if abs(theta - _CENTER) < 0.75 * _SPACING else AmplitudePair(1.0, 0.0)


WORK_BOUND_PROVIDERS = {
    "coulomb": coulomb_provider(),
    "coulomb-massless": coulomb_provider(Kinematics(m=0.0, E=1.0)),
    "coulomb-fast": coulomb_provider(Kinematics(m=1.0, E=1e3, charge_factor=3.0)),
    "scalar-0.25": scalar_provider(0.25),
    "scalar-1": scalar_provider(1.0),
    "scalar-root-at-0.5": scalar_provider(math.asin(1.0 / 3.0)),  # its bracket cell holds floats of two binades
    "screened": screened,
    "steep": steep,
    "window": window,
}


@functools.cache
def float_spacing_root(name):
    """The reference root of a provider above: bisection until no float lies inside the bracket."""
    return bisected_critical_angle(WORK_BOUND_PROVIDERS[name], tol=5e-324)


def root_and_steps(solver, provider, tol):
    """The solver's root and the number of provider calls after the bracket, which a grid form answers in one call."""
    steps = 0

    def counted(theta):
        nonlocal steps
        steps += 1
        return provider(theta)

    counted.grid = lambda thetas: raw_grid(provider, thetas)
    return solver(counted, tol=tol), steps


@settings(max_examples=60, deadline=None)
@given(tol=st.floats(-17.0, -3.0).map(lambda e: 10.0**e))
@example(tol=1e-6)
@example(tol=1e-10)
@example(tol=1e-12)
@example(tol=5e-324)
def test_itp_takes_at_most_one_step_more_than_bisection(tol):
    """ITP's provider calls after the bracket are at most bisection's plus n0 = 1, and at most ceil(log2(w / (2 tol)))
    + 1 for the cell width w (tol no smaller than half the float spacing there); its root lies within tol of the
    float-spacing root.  The window's step function defeats interpolation, so there ITP spends its whole budget."""
    for name, provider in WORK_BOUND_PROVIDERS.items():
        root, steps = root_and_steps(critical_angle, provider, tol)
        _, bisection_steps = root_and_steps(bisected_critical_angle, provider, tol)
        want = float_spacing_root(name)
        assert steps <= bisection_steps + _ITP_N0, name
        i = int(np.searchsorted(_BRACKET, want)) - 1
        lo, hi = _BRACKET[i].item(), _BRACKET[i + 1].item()
        assert steps <= math.ceil(math.log2((hi - lo) / (2.0 * max(tol, 0.5 * math.ulp(lo))))) + 1, name
        assert abs(root - want) <= tol + 1e-15, name


@settings(max_examples=150, deadline=None)
@given(phi=pair_angles, psi=relative_phases, rotation=rotations())
def test_closed_form_matches_oracle_under_rotation(phi, psi, rotation):
    """Closed-form fermion correlator = Pauli oracle, for any relative phase and rigid rotation of the triple."""
    amps = phased_pair(phi, psi)
    state = outgoing_state(amps, ExchangeStatistics.FERMION)
    standard = standard_geometry()
    geo = BellGeometry(*(
        UnitVector3(*(rotation @ np.array([v.x, v.y, v.z])).tolist())
        for v in (standard.a_hat, standard.b_hat, standard.c_hat)
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


@settings(max_examples=150, deadline=None)
@given(phi=pair_angles, psi=relative_phases, name=statistics_names, turn=st.floats(-math.pi, math.pi))
def test_F_is_unchanged_by_a_common_z_rotation_of_b_and_c(phi, psi, name, turn):
    """Turning b and c together about z leaves alpha |ud> + beta |du> and so F as they are, for any relative phase."""
    amps = phased_pair(phi, psi)
    statistics = STATISTICS[name]
    geo, cos, sin = standard_geometry(), math.cos(turn), math.sin(turn)
    b, c = (UnitVector3(cos * v.x - sin * v.y, sin * v.x + cos * v.y, v.z) for v in (geo.b_hat, geo.c_hat))
    want = 1.0 + correlator_oracle(outgoing_state(amps, statistics), b, c)
    assert bell_F(amps, statistics) == pytest.approx(want, abs=1e-12)


@settings(max_examples=300, deadline=None)
@given(argv=cli_argvs(), to_file=st.booleans())
@example(argv=["point", "nan"], to_file=True)
@example(argv=["scan", "--theta-min", "5e-324", "--steps", "3"], to_file=True)
@example(argv=["scan", "--theta-max", "0x1p-1"], to_file=True)
@example(argv=["point", "1e-310", "--interaction", "constant:1e-320"], to_file=True)
@example(argv=["critical", "--interaction", "constant:"], to_file=False)
@example(argv=["critical", "--tol", "1e-6"], to_file=False)  # unrecognized: argparse names the program alone
def test_cli_exit_status_policy(argv, to_file):
    """Any of these argvs exits 0 or 2 without a traceback; exit 2 prints nothing, ends in one error line, writes no file.

    argparse's own usage errors name the program (`spinscatter: error:` for an unrecognized argument) or the program
    and command (`spinscatter scan: error:` for a bad option value) before `error:`.  None of them is a runtime failure,
    whose exit 1 fails the test.
    """
    with tempfile.TemporaryDirectory() as folder:
        target = os.path.join(folder, "t.out")
        full = [*argv, "--output", target] if to_file and argv[0] != "critical" else argv
        with contextlib.redirect_stdout(io.StringIO()) as out, contextlib.redirect_stderr(io.StringIO()) as err:
            try:
                code = main(full)
            except SystemExit as exc:
                code = exc.code
        assert code in (0, 2)
        assert "Traceback" not in err.getvalue()
        if code == 2:
            assert out.getvalue() == ""
            assert re.match(r"(spinscatter( \w+)?: )?error: ", err.getvalue().splitlines()[-1])
            assert os.listdir(folder) == []
        else:
            assert err.getvalue() == ""
