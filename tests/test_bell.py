"""Tests for the Bell correlator, analyzer geometry and critical angle."""

import math

import numpy as np
import pytest

from spinscatter.amplitudes import (
    AmplitudePair,
    NormalizedAmplitudePair,
    constant_provider,
    coulomb_f_pm,
    coulomb_provider,
    normalize,
)
from spinscatter.bell import (
    _BRACKET_LO,
    _SCAN_POINTS,
    BellGeometry,
    UnitVector3,
    bell_F,
    correlator_closed_form,
    correlator_oracle,
    critical_angle,
    standard_geometry,
)
from spinscatter.cli import evaluate_grid
from spinscatter.spin_states import ExchangeStatistics, TwoSpinState, outgoing_state

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
        triple = np.dot(
            geo.a_hat.as_array(), np.cross(geo.b_hat.as_array(), geo.c_hat.as_array())
        )
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
        """tol=1e-20 cannot be met near 1.2; bisection stops at adjacent floats."""
        calls = 0

        def steep(theta):
            nonlocal calls
            calls += 1
            if calls > 2000:
                raise RuntimeError("bisection did not stop")
            phi = min(max(math.pi / 4 + 100.0 * (theta - 1.2), 0.0), math.pi / 2)
            return AmplitudePair(math.cos(phi), math.sin(phi))

        root = critical_angle(steep, tol=1e-20)
        # F = 5/4 - (3/4) sin(2 phi) first reaches 1 where sin(2 phi) = 1/3.
        assert root == pytest.approx(1.2 + (math.asin(1.0 / 3.0) / 2 - math.pi / 4) / 100.0, abs=1e-15)

    @pytest.mark.parametrize(
        "provider, tol, calls",
        [
            (coulomb_provider(), 1e-10, 1047),
            (coulomb_provider(), 1e-12, 1054),
            (coulomb_provider(), 5e-324, 1063),  # what `critical` passes: bisect until no float lies inside the bracket
            (constant_provider(0.6), 1e-10, 1024),
        ],
        ids=["coulomb", "coulomb-1e-12", "coulomb-5e-324", "constant-0.6"],
    )
    def test_provider_traffic(self, provider, tol, calls):
        """One call per angle, each with a Python float: 1024 for the bracket scan, one per bisection step."""
        seen = []

        def recording(theta):
            seen.append(type(theta))
            return provider(theta)

        critical_angle(recording, tol=tol)
        assert seen == [float] * calls

    def test_exact_zero_on_the_bracket_grid_is_the_root(self):
        """Where F - 1 is exactly 0.0 at a bracket angle, that angle is the root, with no bisection step.

        (cos phi, sin phi) at phi = 0.16991845472706094 gives F = 1 to the last bit; F > 1 before that angle and F < 1
        after it.
        """
        phi = 0.16991845472706094
        on_root = AmplitudePair(math.cos(phi), math.sin(phi))
        assert bell_F(normalize(on_root)) - 1.0 == 0.0
        thetas = np.linspace(_BRACKET_LO, math.pi / 2, _SCAN_POINTS).tolist()
        k = 500
        seen = []

        def provider(theta):
            seen.append(theta)
            if theta == thetas[k]:
                return on_root
            return AmplitudePair(1.0, 0.0) if theta < thetas[k] else AmplitudePair(1.0, 1.0)

        assert critical_angle(provider) == thetas[k]
        assert seen == thetas

    def test_common_phase_gives_the_root_of_the_real_twin(self):
        """A phase common to both channels drops out: the root is bit for bit the real pair's."""
        phase = complex(math.cos(0.3), math.sin(0.3))
        real_twin = critical_angle(lambda t: AmplitudePair(math.cos(t / 2), math.sin(t / 2)))
        phased = critical_angle(lambda t: AmplitudePair(phase * math.cos(t / 2), phase * math.sin(t / 2)))
        assert real_twin == phased == 0.33983690940795663

    def test_relative_phase_root(self):
        """F = 5/4 - (3/4) sin(theta) cos(psi) for f_minus with phase psi: the root is asin(1 / (3 cos psi)).

        At psi = pi/2, Re f_minus = 0 keeps F at 5/4: no crossing.
        """
        phase = complex(math.cos(0.3), math.sin(0.3))
        root = critical_angle(lambda t: AmplitudePair(math.cos(t / 2), phase * math.sin(t / 2)))
        assert root == pytest.approx(math.asin(1.0 / (3.0 * math.cos(0.3))), abs=1e-10)
        assert critical_angle(lambda t: AmplitudePair(math.cos(t / 2), 1j * math.sin(t / 2))) is None
