"""Tests for the Bell correlator, analyzer geometry and critical angle."""

import math
import re

import numpy as np
import pytest

from spinscatter.amplitudes import (
    AmplitudePair,
    Kinematics,
    NormalizedAmplitudePair,
    constant_provider,
    coulomb_f_pm,
    coulomb_provider,
    normalize,
    raw_grid,
)
from spinscatter.bell import (
    _BRACKET,
    _BRACKET_LO,
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
from spinscatter.cli import BLOCK_ROWS, evaluate_grid
from spinscatter.spin_states import ExchangeStatistics, TwoSpinState, outgoing_state

from oracles import bisected_critical_angle
from providers import grid_form

# Frozen before implementation by two independent evaluation routes.
F_PI_8 = 1.1907435698305462

X_HAT = UnitVector3(1.0, 0.0, 0.0)
Y_HAT = UnitVector3(0.0, 1.0, 0.0)
Z_HAT = UnitVector3(0.0, 0.0, 1.0)


def coulomb_pair(theta):
    return NormalizedAmplitudePair(*coulomb_f_pm(theta))


def singlet():
    return TwoSpinState(0.0, math.sqrt(0.5), -math.sqrt(0.5), 0.0)


def random_direction(rng):
    return UnitVector3.normalized(*rng.normal(size=3))


class TestUnitVector:
    def test_rejects_non_unit(self):
        with pytest.raises(ValueError):
            UnitVector3(1.0, 1.0, 0.0)

    def test_normalized_constructor(self):
        v = UnitVector3.normalized(3.0, 0.0, 4.0)
        assert (v.x, v.y, v.z) == pytest.approx((0.6, 0.0, 0.8), abs=1e-15)

    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError):
            UnitVector3.normalized(0.0, 0.0, 0.0)

    @pytest.mark.parametrize(
        "raw, want",
        [
            ((1e200, 0.0, 0.0), (1.0, 0.0, 0.0)),
            ((1e-200, 0.0, 0.0), (1.0, 0.0, 0.0)),
            ((3e-170, 4e-170, 0.0), (0.6, 0.8, 0.0)),
        ],
        ids=["huge", "tiny", "tiny-3-4-5"],
    )
    def test_normalized_at_extreme_scales(self, raw, want):
        """The squared length would overflow or underflow; math.hypot does not."""
        v = UnitVector3.normalized(*raw)
        assert (v.x, v.y, v.z) == pytest.approx(want, abs=1e-15)

    def test_dot(self):
        assert X_HAT.dot(Z_HAT) == 0.0
        assert Z_HAT.dot(Z_HAT) == 1.0


class TestGeometry:
    def test_standard_geometry_angles(self):
        geo = standard_geometry()
        assert geo.a_hat.dot(geo.b_hat) == pytest.approx(0.5, abs=1e-12)
        assert geo.a_hat.dot(geo.c_hat) == pytest.approx(-0.5, abs=1e-12)
        assert geo.b_hat.dot(geo.c_hat) == pytest.approx(0.5, abs=1e-12)

    def test_standard_geometry_is_coplanar(self):
        geo = standard_geometry()
        a, b, c = (np.array([v.x, v.y, v.z]) for v in (geo.a_hat, geo.b_hat, geo.c_hat))
        triple = np.dot(a, np.cross(b, c))
        assert abs(triple) <= 1e-12

    def test_rotations_of_the_triple_are_accepted(self):
        for phi in (0.3, 1.0, 2.5):
            BellGeometry(
                UnitVector3(math.sin(phi), 0.0, math.cos(phi)),
                UnitVector3(math.sin(phi + math.pi / 3), 0.0, math.cos(phi + math.pi / 3)),
                UnitVector3(math.sin(phi + 2 * math.pi / 3), 0.0, math.cos(phi + 2 * math.pi / 3)),
            )

    def test_wrong_angles_rejected(self):
        with pytest.raises(ValueError):
            BellGeometry(Z_HAT, X_HAT, UnitVector3(0.0, 0.0, -1.0))

    def test_non_coplanar_triple_rejected(self):
        """c tilted 1e-6 out of the x-z plane keeps every pairwise angle within NORM_TOL, but not the triple product."""
        geo = standard_geometry()
        tilted = UnitVector3.normalized(geo.c_hat.x, 1e-6, geo.c_hat.z)
        with pytest.raises(ValueError, match=r"^directions must be coplanar, got triple product 8\.66\d*e-07$"):
            BellGeometry(geo.a_hat, geo.b_hat, tilted)

    def test_axis_identity(self):
        """|E(a,b) - E(a,c)| = 1 for every amplitude pair once a sits on the axis."""
        geo = standard_geometry()
        for theta in np.linspace(0.01, math.pi - 0.01, 100):
            amps = coulomb_pair(theta)
            gap = correlator_closed_form(geo.a_hat, geo.b_hat, amps) - correlator_closed_form(
                geo.a_hat, geo.c_hat, amps
            )
            assert abs(gap) == pytest.approx(1.0, abs=1e-12)


class TestClosedForm:
    def test_axis_analyzers(self):
        """E(z, z) = -1 for any amplitudes: axis spins are always opposite."""
        for theta in (0.3, 1.0, math.pi / 2):
            assert correlator_closed_form(Z_HAT, Z_HAT, coulomb_pair(theta)) == -1.0

    def test_transverse_analyzers_at_symmetric_point(self):
        """E(x, x) = -2 f+ f- = -1 at pi/2, where the state is the singlet."""
        value = correlator_closed_form(X_HAT, X_HAT, coulomb_pair(math.pi / 2))
        assert value == pytest.approx(-1.0, abs=1e-12)

    def test_transverse_analyzers_at_pi_third(self):
        """E(x, x) = -2 sqrt(0.9 * 0.1) = -0.6 at pi/3."""
        value = correlator_closed_form(X_HAT, X_HAT, coulomb_pair(math.pi / 3))
        assert value == pytest.approx(-0.6, abs=1e-12)

    def test_relative_phase_matches_oracle(self):
        """With a = x and b = y only the Im f_minus term survives: E = 2 f_plus Im f_minus = 0.96."""
        amps = NormalizedAmplitudePair(0.6, 0.8j)
        value = correlator_closed_form(X_HAT, Y_HAT, amps)
        assert value == pytest.approx(0.96, abs=1e-15)
        state = outgoing_state(amps, ExchangeStatistics.FERMION)
        assert value == pytest.approx(correlator_oracle(state, X_HAT, Y_HAT), abs=1e-15)

    def test_bounded(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            amps = coulomb_pair(rng.uniform(0.01, math.pi - 0.01))
            value = correlator_closed_form(random_direction(rng), random_direction(rng), amps)
            assert -1.0 - 1e-12 <= value <= 1.0 + 1e-12


class TestOracle:
    def test_singlet_is_minus_cosine(self):
        """Textbook check: the singlet correlator is E(a, b) = -a.b."""
        rng = np.random.default_rng(8)
        state = singlet()
        for _ in range(100):
            a = random_direction(rng)
            b = random_direction(rng)
            assert correlator_oracle(state, a, b) == pytest.approx(-a.dot(b), abs=1e-12)

    def test_product_state(self):
        state = TwoSpinState(0.0, 1.0, 0.0, 0.0)
        assert correlator_oracle(state, Z_HAT, Z_HAT) == pytest.approx(-1.0, abs=1e-15)
        assert correlator_oracle(state, X_HAT, X_HAT) == pytest.approx(0.0, abs=1e-15)

    def test_matches_closed_form_on_random_triples(self):
        rng = np.random.default_rng(13)
        for _ in range(500):
            amps = coulomb_pair(rng.uniform(0.01, math.pi - 0.01))
            state = outgoing_state(amps, ExchangeStatistics.FERMION)
            a = random_direction(rng)
            b = random_direction(rng)
            assert correlator_oracle(state, a, b) == pytest.approx(
                correlator_closed_form(a, b, amps), abs=1e-12
            )

    def test_handles_relative_phase(self):
        """The oracle takes complex pairs too; axis spins stay opposite."""
        state = outgoing_state(NormalizedAmplitudePair(0.6, 0.8j), ExchangeStatistics.FERMION)
        assert correlator_oracle(state, Z_HAT, Z_HAT) == pytest.approx(-1.0, abs=1e-12)

    @pytest.mark.parametrize(
        "coeffs, pins",
        [
            ((1.0, 1.0, 0.0, 0.0), [(Z_HAT, X_HAT, 1.0), (X_HAT, Z_HAT, 0.0)]),
            ((1.0, 0.0, 1.0, 0.0), [(Z_HAT, X_HAT, 0.0), (X_HAT, Z_HAT, 1.0)]),
            ((1.0, 0.0, 0.0, 1.0), [(X_HAT, X_HAT, 1.0), (Y_HAT, Y_HAT, -1.0)]),
        ],
        ids=["uu+ud", "uu+du", "uu+dd"],
    )
    def test_basis_order(self, coeffs, pins):
        """The four coefficients are read in the order (uu, ud, du, dd), the first analyzer acting on slot 1.

        (|uu> + |ud>)/sqrt 2 is slot 1 up along z and slot 2 up along x; (|uu> + |du>)/sqrt 2 the mirror image; and
        (|uu> + |dd>)/sqrt 2 is the Bell state with E(x, x) = 1 and E(y, y) = -1.
        """
        state = TwoSpinState(*(c * math.sqrt(0.5) for c in coeffs))
        for a, b, want in pins:
            assert correlator_oracle(state, a, b) == pytest.approx(want, abs=1e-15)


class TestBellF:
    def test_border_value(self):
        """F(pi/4) = 1: the classical border."""
        assert bell_F(coulomb_pair(math.pi / 4)) == pytest.approx(1.0, abs=1e-12)

    def test_symmetric_point_value(self):
        """F(pi/2) = 5/4 - 3/2 * 1/2 = 1/2, the strongest violation."""
        assert bell_F(coulomb_pair(math.pi / 2)) == pytest.approx(0.5, abs=1e-12)

    def test_pi_third_value(self):
        """F(pi/3) = 5/4 - 3/2 * 0.3 = 0.8."""
        assert bell_F(coulomb_pair(math.pi / 3)) == pytest.approx(0.8, abs=1e-12)

    def test_pi_eighth_value(self):
        assert bell_F(coulomb_pair(math.pi / 8)) == pytest.approx(F_PI_8, abs=1e-12)

    def test_equals_one_plus_transverse_correlator(self):
        """F = 1 + E(b, c) for the standard analyzer triple."""
        geo = standard_geometry()
        for theta in np.linspace(0.01, math.pi / 2, 100):
            amps = coulomb_pair(theta)
            want = 1.0 + correlator_closed_form(geo.b_hat, geo.c_hat, amps)
            assert bell_F(amps) == pytest.approx(want, abs=1e-12)

    def test_strictly_decreasing_on_half_range(self):
        values = [bell_F(coulomb_pair(t)) for t in np.linspace(0.01, math.pi / 2, 400)]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_relative_phase_is_one_plus_oracle(self):
        """A relative phase enters F only through Re f_minus; one pair and a mixed grid alike."""
        geo = standard_geometry()
        pairs = [NormalizedAmplitudePair(0.6, f_minus) for f_minus in (0.8j, 0.8, -0.8j)]
        grid = NormalizedAmplitudePair(np.array([0.6, 0.6, 0.6]), np.array([0.8j, 0.8, -0.8j]))
        for statistics in ExchangeStatistics:
            want = [1.0 + correlator_oracle(outgoing_state(p, statistics), geo.b_hat, geo.c_hat) for p in pairs]
            assert bell_F(pairs[0], statistics) == pytest.approx(want[0], abs=1e-12)
            assert bell_F(grid, statistics) == pytest.approx(want, abs=1e-12)

    def test_grid_matches_one_angle_calls(self):
        """One angle's pair gives a Python float; a grid gives the same values element by element."""
        pairs = [coulomb_pair(theta) for theta in (0.1, math.pi / 4, 1.0, math.pi / 2)]
        grid = NormalizedAmplitudePair(np.array([p.f_plus for p in pairs]), np.array([p.f_minus for p in pairs]))
        for statistics in ExchangeStatistics:
            values = [bell_F(p, statistics) for p in pairs]
            assert all(type(value) is float for value in values)
            assert bell_F(grid, statistics).tolist() == values


class TestViolation:
    """The table's violated column is F < 1, strictly."""

    @staticmethod
    def violated(*thetas):
        return evaluate_grid(np.array(thetas), coulomb_provider(), ExchangeStatistics.FERMION)[5].tolist()

    def test_violated_beyond_critical_angle(self):
        assert self.violated(math.pi / 3, math.pi / 2) == [True, True]

    def test_not_violated_below_critical_angle(self):
        assert self.violated(0.1, math.pi / 8) == [False, False]


class TestCriticalAngle:
    def test_coulomb_crossing_at_pi_quarter(self):
        assert critical_angle(coulomb_provider()) == pytest.approx(math.pi / 4, abs=1e-9)

    def test_tighter_tolerance(self):
        assert critical_angle(coulomb_provider(), tol=1e-12) == pytest.approx(
            math.pi / 4, abs=1e-11
        )

    def test_no_crossing_when_always_violated(self):
        """f+ = 0.6 keeps F = 0.53 < 1 over the whole range: no crossing."""
        assert critical_angle(constant_provider(0.6)) is None

    def test_no_crossing_when_never_violated(self):
        """f+ = 1 keeps F = 1.25 > 1 over the whole range: no crossing."""
        assert critical_angle(constant_provider(1.0)) is None

    @pytest.mark.parametrize("tol", [0.0, -1.0, math.nan])
    def test_invalid_tolerance(self, tol):
        with pytest.raises(ValueError, match="tol must be positive"):
            critical_angle(coulomb_provider(), tol=tol)

    def test_tolerance_below_float_spacing_terminates(self):
        """tol=1e-20 cannot be met near 1.2; refinement stops at adjacent floats."""
        calls = 0

        def steep(theta):
            nonlocal calls
            calls += 1
            if calls > 2000:
                raise RuntimeError("refinement did not stop")
            phi = min(max(math.pi / 4 + 100.0 * (theta - 1.2), 0.0), math.pi / 2)
            return AmplitudePair(math.cos(phi), math.sin(phi))

        root = critical_angle(steep, tol=1e-20)
        # F = 5/4 - (3/4) sin(2 phi) first reaches 1 where sin(2 phi) = 1/3.
        assert root == pytest.approx(1.2 + (math.asin(1.0 / 3.0) / 2 - math.pi / 4) / 100.0, abs=1e-15)

    def test_infinite_tolerance_gives_the_cell_midpoint(self):
        """tol=inf is met by the bracket cell itself: the root is its midpoint, with no call after the bracket."""
        seen = []

        @grid_form
        def recording(theta):
            seen.append(theta.shape if isinstance(theta, np.ndarray) else type(theta))
            return coulomb_provider()(theta)

        root = critical_angle(recording, tol=math.inf)
        i = int(np.searchsorted(_BRACKET, math.pi / 4)) - 1
        assert root == 0.5 * (_BRACKET[i] + _BRACKET[i + 1]) == 0.7853986633974483
        assert seen == [(_SCAN_POINTS,)]

    @pytest.mark.parametrize(
        "provider",
        [coulomb_provider(), lambda theta: AmplitudePair(math.cos(500 * theta), math.sin(500 * theta))],
        ids=["coulomb", "root-in-the-first-cell"],
    )
    def test_tolerances_below_half_the_float_spacing_agree(self, provider):
        """Below half the float spacing at the cell's lower end, every tol refines alike: to adjacent floats, within one
        step of bisection's.

        So the step budget, tol times a power of 2, neither overflows nor vanishes.  The second provider's root, near
        3.4e-4, lies in the first bracket cell, whose floats span several binades from 1e-6 up.
        """

        def solve(solver, tol):
            calls = []
            root = solver(lambda theta: calls.append(theta) or provider(theta), tol=tol)
            return root, len(calls) - _SCAN_POINTS

        ((root, steps),) = {solve(critical_angle, tol) for tol in (5e-324, 1e-300, 1e-30, 1e-23)}
        want, bisection_steps = solve(bisected_critical_angle, 5e-324)
        # Or another float of Coulomb's zero band, pi/4 - 2 ulp to pi/4 + 1 ulp, where F - 1 is exactly 0.0.
        assert abs(root - want) <= math.ulp(want) or bell_F(normalize(provider(root))) == 1.0
        assert steps <= bisection_steps + 1

    @pytest.mark.parametrize(
        "provider, tol, calls",
        [
            (coulomb_provider(), 1e-10, 1030),
            (coulomb_provider(), 1e-12, 1030),
            (coulomb_provider(), 5e-324, 1031),  # what `critical` passes: refine until no float lies inside the bracket
            (constant_provider(0.6), 1e-10, 1024),
        ],
        ids=["coulomb", "coulomb-1e-12", "coulomb-5e-324", "constant-0.6"],
    )
    def test_provider_traffic(self, provider, tol, calls):
        """One call per angle, each with a Python float: 1024 for the bracket scan, one per ITP step."""
        seen = []

        def recording(theta):
            seen.append(type(theta))
            return provider(theta)

        critical_angle(recording, tol=tol)
        assert seen == [float] * calls

    @pytest.mark.parametrize(
        "provider, tol, steps",
        [
            (coulomb_provider(), 1e-10, 6),
            (coulomb_provider(), 1e-12, 6),
            (coulomb_provider(), 5e-324, 7),
            (constant_provider(0.6), 1e-10, 0),
        ],
        ids=["coulomb", "coulomb-1e-12", "coulomb-5e-324", "constant-0.6"],
    )
    def test_grid_form_traffic(self, provider, tol, steps):
        """Through a grid form: one call with the 1024 bracket angles, then one Python float per ITP step."""
        seen = []

        @grid_form
        def recording(theta):
            seen.append(theta.shape if isinstance(theta, np.ndarray) else type(theta))
            return provider(theta)

        critical_angle(recording, tol=tol)
        assert seen == [(_SCAN_POINTS,)] + [float] * steps

    @pytest.mark.parametrize(
        "provider",
        [
            coulomb_provider(),
            coulomb_provider(Kinematics(m=0.0, E=1.0)),
            coulomb_provider(Kinematics(m=1.0, E=1e3, charge_factor=3.0)),
            constant_provider(0.6),
            constant_provider(0.0),
            constant_provider(1.0),
        ],
        ids=["coulomb", "coulomb-massless", "coulomb-fast", "constant-0.6", "constant-0", "constant-1"],
    )
    def test_grid_form_matches_the_one_angle_route(self, provider):
        """The bracket's F - 1 through the grid form equals, bit for bit at all 1024 angles, that through one call per
        angle and that of each angle alone; critical_angle returns the same root through either route."""
        one_angle = lambda theta: provider(theta)
        thetas = _BRACKET
        grid, fallback = (
            np.broadcast_to(bell_F(normalize(raw_grid(p, thetas))) - 1.0, thetas.shape) for p in (provider, one_angle)
        )
        alone = np.array([bell_F(normalize(provider(theta))) - 1.0 for theta in thetas.tolist()])
        assert grid.tobytes() == fallback.tobytes() == alone.tobytes()
        for tol in (1e-6, 1e-10, 5e-324):
            assert critical_angle(provider, tol=tol) == critical_angle(one_angle, tol=tol)

    def test_exact_zero_answered_for_the_whole_grid_is_the_root(self):
        """A grid form answering the bracket with the one pair where F - 1 is exactly 0.0 gives the first angle.

        The bracket's F - 1 is then one number, broadcast over the grid, and the root is thetas[0] as through one call
        per angle.
        """
        phi = 0.16991845472706094
        on_root = AmplitudePair(math.cos(phi), math.sin(phi))
        thetas = _BRACKET.tolist()
        seen = []

        @grid_form
        def provider(theta):
            seen.append(theta)
            return on_root

        assert critical_angle(provider) == thetas[0]
        assert len(seen) == 1 and seen[0].tolist() == thetas
        assert critical_angle(lambda theta: on_root) == thetas[0]

    def test_exact_zero_on_the_bracket_grid_is_the_root(self):
        """Where F - 1 is exactly 0.0 at a bracket angle, that angle is the root, with no refinement step.

        (cos phi, sin phi) at phi = 0.16991845472706094 gives F = 1 to the last bit; F > 1 before that angle and F < 1
        after it.
        """
        phi = 0.16991845472706094
        on_root = AmplitudePair(math.cos(phi), math.sin(phi))
        assert bell_F(normalize(on_root)) - 1.0 == 0.0
        thetas = _BRACKET.tolist()
        k = 500
        seen = []

        def provider(theta):
            seen.append(theta)
            if theta == thetas[k]:
                return on_root
            return AmplitudePair(1.0, 0.0) if theta < thetas[k] else AmplitudePair(1.0, 1.0)

        assert critical_angle(provider) == thetas[k]
        assert seen == thetas

    def test_exact_zero_only_at_the_last_bracket_angle_is_the_root(self):
        """F - 1 is exactly 0.0 at the last bracket angle, pi/2, and above 0 before it: pi/2 is the root, through the
        grid form and through one call per angle."""
        phi = 0.16991845472706094
        on_root = (math.cos(phi), math.sin(phi))
        one_angle = lambda theta: AmplitudePair(*on_root) if theta == math.pi / 2 else AmplitudePair(1.0, 0.0)

        @grid_form
        def provider(theta):
            if not isinstance(theta, np.ndarray):
                return one_angle(theta)
            last = theta == math.pi / 2
            return AmplitudePair(np.where(last, on_root[0], 1.0), np.where(last, on_root[1], 0.0))

        values = bell_F(normalize(raw_grid(provider, _BRACKET))) - 1.0
        assert values[-1] == 0.0 and (values[:-1] > 0.0).all()
        assert critical_angle(provider) == critical_angle(one_angle) == _BRACKET[-1] == math.pi / 2

    def test_bracket_grid_is_one_read_only_constant(self):
        """Every solve reads the same bracket grid: the linspace each solve used to build, bit for bit, and read-only."""
        assert not _BRACKET.flags.writeable
        assert _BRACKET.tobytes() == np.linspace(_BRACKET_LO, math.pi / 2, _SCAN_POINTS).tobytes()
        with pytest.raises(ValueError, match="read-only"):
            _BRACKET[0] = 1.0

    def test_a_grid_form_that_writes_into_its_angles_is_refused(self):
        """A grid form gets the shared bracket grid; writing into it raises ValueError and leaves the next root as it
        was."""
        coulomb = coulomb_provider()
        root = critical_angle(coulomb)

        @grid_form
        def scribbling(theta):
            if isinstance(theta, np.ndarray):
                theta *= 0.5
            return coulomb(theta)

        with pytest.raises(ValueError, match="read-only"):
            critical_angle(scribbling)
        assert critical_angle(coulomb) == root == critical_angle(lambda theta: coulomb(theta))

    def test_a_window_narrower_than_the_grid_spacing_can_be_missed(self):
        """F < 1 on a window that holds no bracket angle: its two crossings are closer than the grid spacing
        pi/2/1023, about 1.54e-3, and critical_angle reports none.  Widened over two bracket angles, it is found."""
        spacing = (_BRACKET[1] - _BRACKET[0]).item()
        assert spacing == pytest.approx(1.54e-3, abs=5e-6)
        center = (0.5 * (_BRACKET[500] + _BRACKET[501])).item()

        def window(half_width):
            inside, outside = AmplitudePair(1.0, 1.0), AmplitudePair(1.0, 0.0)  # F = 0.5 and F = 1.25
            return lambda theta: inside if abs(theta - center) < half_width else outside

        narrow = window(0.25 * spacing)
        assert bell_F(normalize(narrow(center))) < 1.0
        assert critical_angle(narrow) is None
        assert critical_angle(window(0.75 * spacing)) == pytest.approx(center - 0.75 * spacing, abs=1e-9)

    def test_vanishing_pair_on_the_bracket_grid_is_refused(self):
        """A user provider that vanishes in both channels at one bracket angle meets normalize's gate, naming 0.0."""
        thetas = _BRACKET.tolist()
        coulomb = coulomb_provider()
        provider = lambda theta: AmplitudePair(0.0, 0.0) if theta == thetas[500] else coulomb(theta)
        with pytest.raises(ValueError, match=r"channel norm hypot\(\|direct\|, \|exchange\|\) must be .*, got 0.0$"):
            critical_angle(provider)

    def test_common_phase_gives_the_root_of_the_real_twin(self):
        """A phase common to both channels drops out up to rounding: F = 5/4 - (3/4) sin(theta) crosses 1 at asin(1/3),
        and either root lies within tol of it and of the other.  Rounding the phased pair's F moves ITP's steps, so
        the roots need not share their bits."""
        phase = complex(math.cos(0.3), math.sin(0.3))
        tol = 1e-10
        real_twin = critical_angle(lambda t: AmplitudePair(math.cos(t / 2), math.sin(t / 2)), tol=tol)
        phased = critical_angle(lambda t: AmplitudePair(phase * math.cos(t / 2), phase * math.sin(t / 2)), tol=tol)
        assert abs(real_twin - math.asin(1.0 / 3.0)) <= tol
        assert abs(phased - math.asin(1.0 / 3.0)) <= tol
        assert abs(real_twin - phased) <= tol

    def test_real_channel_beside_a_complex_one(self):
        """A provider returning (float, complex) gives its all-complex twin's root, with as many provider calls."""
        phase = complex(math.cos(0.3), math.sin(0.3))
        seen = {"mixed": 0, "complex": 0}

        def provider(kind, direct):
            def call(theta):
                seen[kind] += 1
                return AmplitudePair(direct(math.cos(theta / 2)), phase * math.sin(theta / 2))

            return call

        for tol in (1e-10, 5e-324):
            seen.update(mixed=0, complex=0)
            root = critical_angle(provider("mixed", float), tol=tol)
            assert root == critical_angle(provider("complex", complex), tol=tol)
            assert root == pytest.approx(math.asin(1.0 / (3.0 * math.cos(0.3))), abs=1e-10)
            assert seen["mixed"] == seen["complex"] > _SCAN_POINTS

    def test_relative_phase_root(self):
        """F = 5/4 - (3/4) sin(theta) cos(psi) for f_minus with phase psi: the root is asin(1 / (3 cos psi)).

        At psi = pi/2, Re f_minus = 0 keeps F at 5/4: no crossing.
        """
        phase = complex(math.cos(0.3), math.sin(0.3))
        root = critical_angle(lambda t: AmplitudePair(math.cos(t / 2), phase * math.sin(t / 2)))
        assert root == pytest.approx(math.asin(1.0 / (3.0 * math.cos(0.3))), abs=1e-10)
        assert critical_angle(lambda t: AmplitudePair(math.cos(t / 2), 1j * math.sin(t / 2))) is None


def half_angle(theta):
    """(cos theta/2, sin theta/2): its fermion F crosses 1 at 0.33983690940795663."""
    return AmplitudePair(math.cos(theta / 2), math.sin(theta / 2))


def each_angle(fn, thetas):
    """fn of every angle of an array, as an array of their shape: a grid form with the one-angle bits."""
    return np.array([fn(theta) for theta in thetas.tolist()])


def with_grid(one_angle, grid):
    """A copy of the one-angle provider whose grid form is grid."""
    provider = lambda theta: one_angle(theta)
    provider.grid = grid
    return provider


WRONG_SHAPES = {
    "first-angle-only": lambda thetas: thetas[:1],
    "one-short": lambda thetas: thetas[:-1],
    "column": lambda thetas: thetas[:, None],
}


class TestGridAnswerShape:
    """raw_grid takes from a grid form numbers, or arrays of exactly the grid's shape, and refuses every other array.

    numpy would broadcast a (1,) answer over any grid, so before this gate a grid form that answered only its first
    angle made critical_angle find no crossing and evaluate_grid write one row's values into every row.
    """

    SCAN = np.linspace(0.01, math.pi / 2, 5000)  # two slices of evaluate_grid, the first of BLOCK_ROWS angles

    @staticmethod
    def refused(n, shape):
        """The gate's ValueError for a grid of n angles answered with a channel of this shape (or with what a text
        names)."""
        got = shape if isinstance(shape, str) else f"a channel of shape {shape}"
        text = f"a raw pair over {n} angles must hold numbers or arrays of shape {(n,)}, got {got}"
        return pytest.raises(ValueError, match=re.escape(text) + "$")

    def calls(self, provider):
        """critical_angle and evaluate_grid of the provider, each with the size of the first grid that it fetches."""
        return [
            (lambda: critical_angle(provider), _SCAN_POINTS),
            (lambda: evaluate_grid(self.SCAN, provider, ExchangeStatistics.FERMION), BLOCK_ROWS),
        ]

    @pytest.mark.parametrize("pick", WRONG_SHAPES.values(), ids=WRONG_SHAPES.keys())
    def test_a_wrong_shape_is_refused(self, pick):
        """critical_angle and evaluate_grid raise the gate's ValueError, naming the answer's shape and the grid size."""
        provider = with_grid(half_angle, lambda thetas: AmplitudePair(*(f(pick(thetas) / 2) for f in (np.cos, np.sin))))
        for call, n in self.calls(provider):
            with self.refused(n, pick(np.empty(n)).shape):
                call()

    def test_one_angle_pairs_that_hold_arrays_are_refused(self):
        """One-angle pairs of 2-element arrays stack to an (n, 2) channel, which the gate refuses by its shape.  Arrays
        of 2 elements below theta = 1 and 3 above it do not stack; the gate names the first two shapes."""
        twins = lambda theta: AmplitudePair(np.full(2, math.cos(theta / 2)), np.full(2, math.sin(theta / 2)))
        ragged = lambda theta: AmplitudePair(np.ones(2 if theta < 1 else 3), 1.0)
        for provider, got in ((twins, lambda n: (n, 2)), (ragged, lambda n: "one-angle channels of shapes (2,) and (3,)")):
            for call, n in self.calls(provider):
                with self.refused(n, got(n)):
                    call()

    @pytest.mark.parametrize(
        "one_angle, grid",
        [
            (lambda theta: AmplitudePair(0.6, 0.8), lambda thetas: AmplitudePair(0.6, 0.8)),
            (half_angle, lambda thetas: AmplitudePair(*(each_angle(f, thetas / 2) for f in (math.cos, math.sin)))),
            (
                lambda theta: AmplitudePair(1.0, math.tan(theta / 2)),
                lambda thetas: AmplitudePair(1.0, each_angle(math.tan, thetas / 2)),
            ),
        ],
        ids=["numbers", "grid-shaped", "number-beside-array"],
    )
    def test_accepted_answers_give_the_one_angle_bits(self, one_angle, grid):
        """Numbers, grid-shaped arrays and a number beside an array pass the gate, and give the roots and the columns
        of the provider called once per angle, bit for bit."""
        provider = with_grid(one_angle, grid)
        for tol in (1e-10, 5e-324):
            assert critical_angle(provider, tol=tol) == critical_angle(one_angle, tol=tol)
        for statistics in ExchangeStatistics:
            got, want = (evaluate_grid(self.SCAN, p, statistics) for p in (provider, one_angle))
            assert [c.tobytes() for c in got] == [c.tobytes() for c in want]
