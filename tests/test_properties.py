"""Property tests: scan tables against one-angle calls of the same functions, closed forms against the Pauli oracle."""

import cmath
import contextlib
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

from spinscatter.amplitudes import AmplitudePair, constant_provider, normalize  # noqa: E402
from spinscatter.bell import (  # noqa: E402
    BellGeometry,
    UnitVector3,
    bell_F,
    correlator_closed_form,
    correlator_oracle,
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
    table_rows,
)
from spinscatter.entanglement import eoe_label_fixed  # noqa: E402
from spinscatter.spin_states import (  # noqa: E402
    ExchangeStatistics,
    outgoing_state,
    slater_decomposition,
    slater_rank,
)

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


def round_off_phase_provider(theta):
    """Direct 1, exchange 1e-12 + 1e-12j at every angle: a relative phase within NORM_TOL, which tables accept."""
    if isinstance(theta, np.ndarray):
        return AmplitudePair(np.ones(theta.shape), np.full(theta.shape, 1e-12 + 1e-12j))
    return AmplitudePair(1.0, 1e-12 + 1e-12j)


def phased_pair(phi, psi):
    """Normalized (cos phi, e^{i psi} sin phi); Python floats when psi = 0."""
    exchange = math.sin(phi) * cmath.rect(1.0, psi) if psi else math.sin(phi)
    return normalize(AmplitudePair(math.cos(phi), exchange))


def scan_rows(lo, hi, steps, interaction, name):
    """The rows `scan` writes over [lo, hi]: its own grid rule, then the table columns."""
    args = build_parser().parse_args([
        "scan", "--theta-min", repr(lo), "--theta-max", repr(hi), "--steps", str(steps),
        "--interaction", interaction, "--statistics", name,
    ])
    return table_rows(evaluate_grid(angle_grid(args), parse_interaction(args.interaction), STATISTICS[args.statistics]))


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
@given(thetas=angle_grids(), interaction=st.one_of(interactions, st.just("round-off-phase")), name=statistics_names)
def test_random_grid_rows_match_one_angle_rows(thetas, interaction, name):
    """Every row equals its one-angle row wherever the angle sits: on the grid, shifted by one and reversed."""
    provider = round_off_phase_provider if interaction == "round-off-phase" else parse_interaction(interaction)
    statistics = STATISTICS[name]
    want = [scalar_row(theta, provider, statistics) for theta in thetas.tolist()]
    assert table_rows(evaluate_grid(thetas, provider, statistics)) == want
    assert table_rows(evaluate_grid(thetas[1:], provider, statistics)) == want[1:]
    assert table_rows(evaluate_grid(thetas[::-1], provider, statistics)) == want[::-1]


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
def test_cli_exit_status_policy(argv, to_file):
    """Any of these argvs exits 0 or 2 without a traceback; exit 2 prints nothing, ends in one error line, writes no file.

    argparse's own usage errors name the program before `error:`.  A runtime failure with stdout as the output fails
    too, as io.UnsupportedOperation: main points the real stdout at devnull, and a StringIO has no file descriptor.
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
            assert re.match(r"(spinscatter \w+: )?error: ", err.getvalue().splitlines()[-1])
            assert os.listdir(folder) == []
        else:
            assert err.getvalue() == ""
