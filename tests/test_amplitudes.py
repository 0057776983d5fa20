"""Tests for kinematics, channel amplitudes and normalization."""

import cmath
import dataclasses
import fractions
import math
import re

import numpy as np
import pytest

from spinscatter.amplitudes import (
    DEFAULT_KINEMATICS,
    AmplitudePair,
    Kinematics,
    NormalizedAmplitudePair,
    constant_provider,
    coulomb_amplitudes,
    coulomb_f_pm,
    coulomb_provider,
    check_unit_norm,
    exact_map,
    normalize,
    unit_weights,
    validate_angle,
)
from spinscatter import amplitudes
from spinscatter.bell import UnitVector3, bell_F, critical_angle
from spinscatter.cli import evaluate_grid
from spinscatter.entanglement import eoe_label_fixed
from spinscatter.spin_states import ExchangeStatistics, SlaterDecomposition, TwoSpinState, outgoing_state

from providers import grid_form

MASSLESS = Kinematics(m=0.0, E=1.0)
NAN = float("nan")
INF = float("inf")


class TestValidateAngle:
    @pytest.mark.parametrize("theta", [0.0, math.pi, -0.3, 3.5, 100.0])
    def test_rejects_outside_open_interval(self, theta):
        with pytest.raises(ValueError):
            validate_angle(theta)

    @pytest.mark.parametrize("theta", [1e-9, math.pi / 2, math.pi - 1e-9])
    def test_accepts_interior(self, theta):
        assert validate_angle(theta) == theta


class TestKinematics:
    def test_rejects_energy_not_above_mass(self):
        with pytest.raises(ValueError):
            Kinematics(m=1.0, E=1.0)
        with pytest.raises(ValueError):
            Kinematics(m=2.0, E=1.0)

    def test_rejects_negative_mass(self):
        with pytest.raises(ValueError):
            Kinematics(m=-0.5, E=1.0)

    def test_rejects_nonpositive_charge_factor(self):
        with pytest.raises(ValueError):
            Kinematics(m=1.0, E=2.0, charge_factor=0.0)

    @pytest.mark.parametrize("charge_factor", [INF, NAN], ids=["inf", "nan"])
    def test_rejects_non_finite_charge_factor(self, charge_factor):
        """Named at construction, not later as a Coulomb overflow that blames the angle."""
        with pytest.raises(ValueError, match="charge_factor"):
            Kinematics(m=1.0, E=2.0, charge_factor=charge_factor)

    def test_massless_limit_is_allowed(self):
        assert Kinematics(m=0.0, E=1.0).E == 1.0

    @pytest.mark.parametrize(
        "m, E",
        [(NAN, 1.0), (0.0, NAN), (0.0, INF), (1.0, INF), (-INF, 1.0)],
        ids=["nan-mass", "nan-energy", "inf-energy-massless", "inf-energy", "minus-inf-mass"],
    )
    def test_rejects_non_finite_mass_or_energy(self, m, E):
        with pytest.raises(ValueError, match=re.escape(f"must be finite, got m={m!r}, E={E!r}")):
            Kinematics(m=m, E=E)

    @pytest.mark.parametrize(
        "m, E",
        [(0.0, 1e-170), (1.0, 1e200), (1e200, 2e200)],
        ids=["square-underflows", "square-overflows", "difference-is-nan"],
    )
    def test_rejects_scale_outside_float_range(self, m, E):
        """2 (m^2 - E^2) that is 0, inf or NaN: a ValueError naming m and E, not a divergence or OverflowError later."""
        with pytest.raises(ValueError, match=r"energy scale 2 \(m\^2 - E\^2\) is .* for " + re.escape(f"m={m!r}, E={E!r}")):
            Kinematics(m=m, E=E)


def invariants(theta, kin):
    """(t, u) = (N/direct, N/exchange): the momentum-transfer invariants that coulomb_amplitudes divides by."""
    pair = coulomb_amplitudes(theta, kin)
    return kin.charge_factor / pair.direct, kin.charge_factor / pair.exchange


class TestMandelstamInvariants:
    def test_symmetric_point_massless(self):
        """t(pi/2) = 2 (0 - 1)(1 - 0) = -2 for m=0, E=1."""
        t, u = invariants(math.pi / 2, MASSLESS)
        assert t == pytest.approx(-2.0, abs=1e-15)
        assert u == pytest.approx(-2.0, abs=1e-15)

    def test_symmetric_point_massive(self):
        """t(pi/2) = 2 (1 - 4) = -6 for m=1, E=2."""
        t, u = invariants(math.pi / 2, Kinematics(m=1.0, E=2.0))
        assert t == pytest.approx(-6.0, abs=1e-12)
        assert u == pytest.approx(-6.0, abs=1e-12)

    def test_exchange_invariant_at_pi_third(self):
        """u(pi/3) = 2 (0 - 1)(1 + 1/2) = -3 for m=0, E=1."""
        assert invariants(math.pi / 3, MASSLESS)[1] == pytest.approx(-3.0, abs=1e-12)

    def test_both_negative_on_grid(self):
        kin = Kinematics(m=0.5, E=3.0)
        for theta in np.linspace(1e-4, math.pi - 1e-4, 200):
            t, u = invariants(theta, kin)
            assert t < 0.0
            assert u < 0.0

    def test_supplement_relation(self):
        """u(theta) equals t(pi - theta) up to relative rounding error."""
        rng = np.random.default_rng(7)
        for _ in range(100):
            m = rng.uniform(0.0, 5.0)
            kin = Kinematics(m=m, E=m + rng.uniform(0.1, 10.0))
            theta = rng.uniform(1e-3, math.pi - 1e-3)
            u = invariants(theta, kin)[1]
            assert invariants(math.pi - theta, kin)[0] == pytest.approx(u, rel=1e-12)

    def test_sum_rule(self):
        """t + u = 4 (m^2 - E^2) at every angle."""
        kin = Kinematics(m=1.0, E=2.0)
        for theta in np.linspace(0.1, math.pi - 0.1, 50):
            assert sum(invariants(theta, kin)) == pytest.approx(-12.0, rel=1e-12)

    def test_angle_domain_enforced(self):
        with pytest.raises(ValueError):
            invariants(0.0, MASSLESS)
        with pytest.raises(ValueError):
            invariants(math.pi, MASSLESS)


class TestCoulombAmplitudes:
    def test_symmetric_point(self):
        """m=0, E=1, N=1: t = u = -2, so both channels are -1/2."""
        pair = coulomb_amplitudes(math.pi / 2, MASSLESS)
        assert pair.direct == pytest.approx(-0.5, abs=1e-15)
        assert pair.exchange == pytest.approx(-0.5, abs=1e-15)

    def test_pi_third(self):
        """m=0, E=1, N=1: t(pi/3) = -1 and u(pi/3) = -3."""
        pair = coulomb_amplitudes(math.pi / 3, MASSLESS)
        assert pair.direct == pytest.approx(-1.0, abs=1e-12)
        assert pair.exchange == pytest.approx(-1.0 / 3.0, abs=1e-12)

    def test_charge_factor_scales_linearly(self):
        base = coulomb_amplitudes(1.0, Kinematics(m=1.0, E=2.0))
        scaled = coulomb_amplitudes(1.0, Kinematics(m=1.0, E=2.0, charge_factor=3.0))
        assert scaled.direct == pytest.approx(3.0 * base.direct, rel=1e-15)
        assert scaled.exchange == pytest.approx(3.0 * base.exchange, rel=1e-15)

    def test_exchange_consistency(self):
        """provider(pi - theta) swaps the channels of provider(theta)."""
        provider = coulomb_provider(Kinematics(m=1.0, E=4.0, charge_factor=2.0))
        for theta in np.linspace(0.05, math.pi - 0.05, 80):
            here = provider(theta)
            there = provider(math.pi - theta)
            assert there.direct == pytest.approx(here.exchange, rel=1e-12)
            assert there.exchange == pytest.approx(here.direct, rel=1e-12)

    @pytest.mark.parametrize("theta", [1e-9, math.pi - 1e-9], ids=["t-rounds-to-0", "u-rounds-to-0"])
    def test_divergence_at_the_beam_axis(self, theta):
        """Where cos theta rounds to +-1 the amplitude diverges: ValueError, scalar and array alike."""
        with pytest.raises(ValueError, match=f"diverges at theta = {theta!r}"):
            coulomb_amplitudes(theta, DEFAULT_KINEMATICS)
        with pytest.raises(ValueError, match=f"diverges at theta = {theta!r}"):
            coulomb_amplitudes(np.array([0.5, theta, 1.0]), DEFAULT_KINEMATICS)

    def test_overflow_at_a_tiny_energy_scale(self):
        """N/t beyond the float range: ValueError naming the angle, not inf or a NaN norm error later."""
        for energy in (1e-160, 1e-155):
            kin = Kinematics(m=0.0, E=energy)
            with pytest.raises(ValueError, match="overflows at theta = 0.5"):
                coulomb_amplitudes(0.5, kin)
            with pytest.raises(ValueError, match="overflows at theta = 0.5"):
                coulomb_amplitudes(np.array([0.5, 1.0]), kin)
        with pytest.raises(ValueError, match="overflows at theta = 1e-06"):
            critical_angle(coulomb_provider(Kinematics(m=0.0, E=1e-155)))
        in_range = normalize(coulomb_amplitudes(0.5, Kinematics(m=0.0, E=1e-150)))
        assert in_range.f_plus == pytest.approx(coulomb_f_pm(0.5)[0], rel=1e-15)

    def test_overflow_where_t_underflows(self):
        """t = scale (1 - cos theta) rounds to 0 although 1 - cos theta does not: an overflow, not a divergence."""
        kin = Kinematics(m=0.0, E=1e-160)
        assert kin.scale * (1.0 - math.cos(1e-6)) == 0.0
        for theta in (1e-6, np.array([0.5, 1e-6])):
            with pytest.raises(ValueError, match="overflows at theta = "):
                coulomb_amplitudes(theta, kin)
        with pytest.raises(ValueError, match="overflows at theta = 1e-06"):
            critical_angle(coulomb_provider(kin))


def reference_normalize(direct, exchange):
    """normalize of one pair in plain Python floats: each channel's modulus once, turn by the direct channel's phase,
    then divide the parts by the norm."""
    modulus = lambda z: math.hypot(z.real, z.imag) if isinstance(z, complex) else abs(z)
    lead, tail = modulus(direct), modulus(exchange)
    norm = math.hypot(lead, tail)
    f_plus = lead / norm
    phased = isinstance(direct, complex) or isinstance(exchange, complex)
    if f_plus == 0.0:
        return f_plus, complex(tail / norm, 0.0 / norm) if phased else tail / norm
    cos = direct.real / lead
    if not phased:
        return f_plus, exchange * cos / norm
    sin, re, im = direct.imag / lead, exchange.real, exchange.imag
    return f_plus, complex((re * cos + im * sin) / norm, (im * cos - re * sin) / norm)


def bits(pair):
    """Exact bits of a normalized pair of Python numbers, the sign of zero and the type included."""
    return [(type(z), z.real.hex(), z.imag.hex()) for z in pair]


class TestNormalize:
    def test_symmetric_coulomb_point(self):
        """(-1/2, -1/2) -> (1, 1)/sqrt(2): the common negative sign is a global phase."""
        out = normalize(AmplitudePair(-0.5, -0.5))
        assert out.f_plus == pytest.approx(math.sqrt(0.5), abs=1e-12)
        assert out.f_minus == pytest.approx(math.sqrt(0.5), abs=1e-12)

    def test_pi_third_coulomb_point(self):
        """(-1, -1/3) -> (3, 1)/sqrt(10)."""
        out = normalize(AmplitudePair(-1.0, -1.0 / 3.0))
        assert out.f_plus == pytest.approx(3.0 / math.sqrt(10.0), abs=1e-12)
        assert out.f_minus == pytest.approx(1.0 / math.sqrt(10.0), abs=1e-12)

    def test_vanishing_direct_channel(self):
        """(0, 5) -> (0, 1): the phase convention falls to f_minus."""
        out = normalize(AmplitudePair(0.0, 5.0))
        assert out.f_plus == 0.0
        assert out.f_minus == 1.0

    def test_complex_pair_keeps_relative_phase(self):
        pair = AmplitudePair(1.0 + 1.0j, 2.0 - 0.5j)
        out = normalize(pair)
        assert cmath.isclose(out.f_minus / out.f_plus, pair.exchange / pair.direct, rel_tol=1e-12)

    def test_unit_norm_and_phase_convention_randomized(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            pair = AmplitudePair(
                complex(rng.normal(), rng.normal()),
                complex(rng.normal(), rng.normal()),
            )
            out = normalize(pair)
            norm_sq = abs(out.f_plus) ** 2 + abs(out.f_minus) ** 2
            assert norm_sq == pytest.approx(1.0, abs=1e-12)
            assert complex(out.f_plus).imag == pytest.approx(0.0, abs=1e-12)
            assert complex(out.f_plus).real >= 0.0

    def test_global_phase_invariance(self):
        """Multiplying both channels by one phase leaves the output unchanged."""
        rng = np.random.default_rng(3)
        base = AmplitudePair(-0.7 + 0.2j, 0.1 - 0.9j)
        ref = normalize(base)
        for _ in range(25):
            phase = cmath.exp(1j * rng.uniform(0.0, 2.0 * math.pi))
            out = normalize(AmplitudePair(base.direct * phase, base.exchange * phase))
            assert cmath.isclose(complex(out.f_plus), complex(ref.f_plus), abs_tol=1e-12)
            assert cmath.isclose(complex(out.f_minus), complex(ref.f_minus), abs_tol=1e-12)

    def test_complex_moduli_do_not_depend_on_numpy_abs(self, monkeypatch):
        """Complex channels take their moduli from math.hypot of the parts, not from np.abs.

        An np.abs that rounds complex input one ulp up moves no table row and
        no critical_angle root of a common-phase provider, and no bit of a
        pair whose direct channel vanishes.
        """
        phase = complex(math.cos(0.3), math.sin(0.3))
        provider = grid_form(lambda t: AmplitudePair(phase * np.cos(t / 2), phase * np.sin(t / 2)))
        grid = np.linspace(0.01, math.pi / 2, 200)

        def results():
            vanishing = normalize(AmplitudePair(np.array([0.0, 0.6]), np.array([0.3 + 0.4j, 0.8j])))
            columns = [column.tolist() for column in evaluate_grid(grid, provider, ExchangeStatistics.FERMION)]
            return columns, critical_angle(provider), vanishing.f_plus.tolist(), vanishing.f_minus.tolist()

        want = results()
        exact_abs = np.abs

        def rounds_complex_up(x, *args, **kwargs):
            value = exact_abs(x, *args, **kwargs)
            return np.nextafter(value, np.inf) if np.iscomplexobj(x) else value

        monkeypatch.setattr(np, "abs", rounds_complex_up)
        assert np.abs(0.6 + 0.8j) > 1.0 and np.abs(1.0) == 1.0  # the wrapper is in place, for complex input only
        assert results() == want

    def test_complex_pairs_match_a_numpy_free_reference(self):
        """Grid, reversed grid and one-angle calls give reference_normalize's bits: no numpy complex arithmetic."""
        rng = np.random.default_rng(17)
        direct = rng.normal(size=20000) + 1j * rng.normal(size=20000)
        exchange = rng.normal(size=20000) + 1j * rng.normal(size=20000)
        direct[0], exchange[1] = 0.0, 0.0
        want = [bits(reference_normalize(d, e)) for d, e in zip(direct.tolist(), exchange.tolist())]
        grid = normalize(AmplitudePair(direct, exchange))
        backward = normalize(AmplitudePair(direct[::-1], exchange[::-1]))
        assert [bits(pair) for pair in zip(grid.f_plus.tolist(), grid.f_minus.tolist())] == want
        assert [bits(pair) for pair in zip(backward.f_plus.tolist(), backward.f_minus.tolist())] == want[::-1]
        for d, e, pair in zip(direct[:500].tolist(), exchange[:500].tolist(), want):
            out = normalize(AmplitudePair(d, e))
            assert bits((out.f_plus, out.f_minus)) == pair

    def test_real_pairs_match_a_numpy_free_reference(self):
        """Signed zeros, negative direct channels, a vanishing channel and 1e+-300 scales, as grid and one-angle calls."""
        rng = np.random.default_rng(5)
        direct = rng.normal(size=2000) * 10.0 ** rng.choice([-300, 0, 300], size=2000)
        exchange = rng.normal(size=2000) * 10.0 ** rng.choice([-300, 0, 300], size=2000)
        direct[:6] = [-2.0, -2.0, -0.0, 0.0, 3.0, -1e-300]
        exchange[:6] = [0.0, -0.0, -1.0, 4.0, -0.0, 1e300]
        want = [bits(reference_normalize(d, e)) for d, e in zip(direct.tolist(), exchange.tolist())]
        assert want[0] == bits((1.0, -0.0)) and want[1] == bits((1.0, 0.0)) and want[5] == bits((0.0, 1.0))
        grid = normalize(AmplitudePair(direct, exchange))
        assert [bits(pair) for pair in zip(grid.f_plus.tolist(), grid.f_minus.tolist())] == want
        for d, e, pair in zip(direct.tolist(), exchange.tolist(), want):
            out = normalize(AmplitudePair(d, e))
            assert bits((out.f_plus, out.f_minus)) == pair

    def test_degenerate_pair_rejected(self):
        """A pair that vanishes in both channels is a plain record; normalize refuses it, naming the zero norm."""
        for pair in (AmplitudePair(0.0, -0.0), AmplitudePair(np.array([1.0, 0.0]), np.array([0.0, -0.0j]))):
            with pytest.raises(ValueError, match="must be finite and nonzero, got 0.0$"):
                normalize(pair)

    def test_overflowing_norm_is_named(self):
        """Finite channels whose norm overflows are refused as inf, not as a unit-norm failure of a (0, 0) result."""
        for pair in (AmplitudePair(1.5e308, 1.5e308), AmplitudePair(np.array([1.5e308]), np.array([1.5e308]))):
            with pytest.raises(ValueError, match="must be finite and nonzero, got inf$"):
                normalize(pair)


class TestClosedFormPair:
    def test_symmetric_point(self):
        """f_pm(pi/2) = (1, 1)/sqrt(2)."""
        f_plus, f_minus = coulomb_f_pm(math.pi / 2)
        assert f_plus == pytest.approx(math.sqrt(0.5), abs=1e-15)
        assert f_minus == pytest.approx(math.sqrt(0.5), abs=1e-15)

    def test_pi_third(self):
        """f_pm(pi/3) = (sqrt(0.9), sqrt(0.1)): channel weights 0.9 and 0.1."""
        f_plus, f_minus = coulomb_f_pm(math.pi / 3)
        assert f_plus == pytest.approx(math.sqrt(0.9), abs=1e-12)
        assert f_minus == pytest.approx(math.sqrt(0.1), abs=1e-12)

    def test_forward_limit(self):
        f_plus, f_minus = coulomb_f_pm(1e-8)
        assert f_plus == pytest.approx(1.0, abs=1e-12)
        assert f_minus == pytest.approx(0.0, abs=1e-12)

    def test_unit_norm_on_grid(self):
        for theta in np.linspace(1e-3, math.pi - 1e-3, 500):
            f_plus, f_minus = coulomb_f_pm(theta)
            assert f_plus * f_plus + f_minus * f_minus == pytest.approx(1.0, abs=1e-12)

    def test_monotone_toward_symmetric_point(self):
        thetas = np.linspace(0.01, math.pi / 2, 300)
        pairs = [coulomb_f_pm(t) for t in thetas]
        assert all(a[0] > b[0] for a, b in zip(pairs, pairs[1:]))
        assert all(a[1] < b[1] for a, b in zip(pairs, pairs[1:]))

    def test_matches_normalized_raw_amplitudes(self):
        """Mass, energy and charge cancel: closed form == normalize(raw pair)."""
        rng = np.random.default_rng(42)
        for _ in range(50):
            m = rng.uniform(0.0, 3.0)
            kin = Kinematics(m=m, E=m + rng.uniform(0.05, 8.0), charge_factor=rng.uniform(0.1, 5.0))
            theta = rng.uniform(1e-3, math.pi - 1e-3)
            out = normalize(coulomb_amplitudes(theta, kin))
            f_plus, f_minus = coulomb_f_pm(theta)
            assert out.f_plus == pytest.approx(f_plus, abs=1e-13)
            assert out.f_minus == pytest.approx(f_minus, abs=1e-13)


class TestProviders:
    def test_constant_pair_is_angle_independent(self):
        provider = constant_provider(0.6)
        pair = provider(0.3)
        assert pair.direct == 0.6
        assert pair.exchange == pytest.approx(0.8, abs=1e-15)
        assert provider(1.2) == pair

    def test_constant_validates_angle(self):
        with pytest.raises(ValueError):
            constant_provider(0.6)(0.0)

    @pytest.mark.parametrize("bad", [-0.1, 1.5, 2.0])
    def test_constant_rejects_out_of_range(self, bad):
        with pytest.raises(ValueError):
            constant_provider(bad)

    def test_constant_edge_values(self):
        assert constant_provider(1.0)(0.5).exchange == 0.0
        assert constant_provider(0.0)(0.5).direct == 0.0

    def test_coulomb_provider_uses_default_kinematics(self):
        assert coulomb_provider()(math.pi / 2) == coulomb_amplitudes(math.pi / 2, DEFAULT_KINEMATICS)


class TestNormalizedPairValidation:
    def test_rejects_non_unit_norm(self):
        with pytest.raises(ValueError):
            NormalizedAmplitudePair(0.5, 0.5)

    def test_rejects_complex_leading_amplitude(self):
        with pytest.raises(ValueError):
            NormalizedAmplitudePair(0.6j, 0.8)

    def test_rejects_negative_leading_amplitude(self):
        with pytest.raises(ValueError):
            NormalizedAmplitudePair(-0.6, 0.8)

    def test_zero_f_plus_falls_back_to_f_minus(self):
        assert NormalizedAmplitudePair(0.0, 1.0).f_minus == 1.0
        with pytest.raises(ValueError):
            NormalizedAmplitudePair(0.0, -1.0)

    def test_relative_phase_is_allowed(self):
        assert NormalizedAmplitudePair(0.6, 0.8j).f_minus == 0.8j
        assert NormalizedAmplitudePair(0.6, -0.8).f_minus == -0.8

    @pytest.mark.parametrize(
        "number, array",
        [
            (0.6, [0.8, 0.8]),
            (0.0, [1.0, 1.0]),
            (0.6, [0.8, -0.8]),
            (0.6, [0.8j, -0.8j]),
            (0.6j, [0.8, 0.8]),
            (-0.6, [0.8, 0.8]),
            (0.0, [1.0, -1.0]),
            (0.6, [0.8, 0.9]),
            (NAN, [0.8, 0.8]),
            (1e200, [0.0, 0.0]),
        ],
    )
    def test_a_number_beside_an_array_holds_at_every_angle(self, number, array):
        """A number as f_plus or as f_minus beside an array: the pair's weights and checks are, element for element,
        those of the pair with the number repeated into an array, in either order."""
        array = np.array(array)
        full = np.full(array.shape, number)
        for mixed, grid in (((number, array), (full, array)), ((array, number), (array, full))):
            try:
                want = NormalizedAmplitudePair(*grid)
            except ValueError as error:
                with pytest.raises(ValueError, match=re.escape(str(error))):
                    NormalizedAmplitudePair(*mixed)
                continue
            got = NormalizedAmplitudePair(*mixed)
            assert [np.broadcast_to(w, array.shape).tobytes() for w in got.weights] == [
                w.tobytes() for w in want.weights
            ]

    def test_weights_are_computed_once(self, monkeypatch):
        """The check in __post_init__ computes the weights; .weights and a table's columns reuse them.

        The weights are stored as an attribute, not a field: fields, astuple, repr and equality are those of (f_plus,
        f_minus), and the pair stays frozen.  A SlaterDecomposition stores its weights the same way.
        """
        calls = []
        counted = lambda coeffs, what: calls.append(what) or unit_weights(coeffs, what)
        monkeypatch.setattr(amplitudes, "unit_weights", counted)
        pair = NormalizedAmplitudePair(0.6, 0.8)
        assert pair.weights is pair.weights and pair.weights == unit_weights((0.6, 0.8), "norm")
        assert repr(pair) == "NormalizedAmplitudePair(f_plus=0.6, f_minus=0.8)"
        assert pair == NormalizedAmplitudePair(0.6, 0.8) != NormalizedAmplitudePair(0.8, 0.6)
        assert len(calls) == 3
        assert [f.name for f in dataclasses.fields(NormalizedAmplitudePair)] == ["f_plus", "f_minus"]
        assert dataclasses.astuple(pair) == (0.6, 0.8)
        for name in ("f_plus", "weights"):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(pair, name, 1.0)
        dec = SlaterDecomposition(0.6, -0.8)
        assert dec.weights is dec.weights and dec.weights == unit_weights((0.6, -0.8), "norm")
        assert [f.name for f in dataclasses.fields(SlaterDecomposition)] == ["c_s", "c_minus_s"]
        assert dataclasses.astuple(dec) == (0.6, -0.8)
        with pytest.raises(dataclasses.FrozenInstanceError):
            dec.weights = [1.0, 0.0]
        calls.clear()
        evaluate_grid(np.linspace(0.1, 1.5, 50), coulomb_provider(), ExchangeStatistics.FERMION)
        assert calls == ["|f_plus|^2 + |f_minus|^2"]


class TestUnitNormCheck:
    """Every unit-norm check goes through check_unit_norm, which rejects NaN and inf."""

    @pytest.mark.parametrize(
        "build",
        [
            lambda: normalize(AmplitudePair(NAN, 1.0)),
            lambda: normalize(AmplitudePair(INF, 1.0)),
            lambda: NormalizedAmplitudePair(NAN, 1.0),
            lambda: TwoSpinState(0.0, NAN, 0.0, 0.0),
            lambda: SlaterDecomposition(NAN, 0.0),
            lambda: UnitVector3(NAN, 0.0, 0.0),
            lambda: eoe_label_fixed([NAN, 0.0]),
            # The weights that shannon_bits and rank_of_weights take come from these checks, never NaN or +-inf.
            lambda: eoe_label_fixed([NAN, 1.0]),
            lambda: eoe_label_fixed([INF, 0.5]),
            lambda: eoe_label_fixed([0.5, -INF]),
            lambda: SlaterDecomposition(NAN, NAN),
            lambda: SlaterDecomposition(NAN, 0.5),
            lambda: SlaterDecomposition(INF, 0.0),
            lambda: TwoSpinState(0.0, INF, 0.0, 0.0),
            lambda: TwoSpinState(0.0, 0.5, -INF, 0.0),
            # A square that overflows is inf too: squared with multiplies, not float ** 2, which raises OverflowError.
            lambda: NormalizedAmplitudePair(1e200, 0.0),
            lambda: NormalizedAmplitudePair(0.0, 1e200j),
            lambda: TwoSpinState(0.0, 1e200, 0.0, 0.0),
            lambda: SlaterDecomposition(1e200, 0.0),
            lambda: UnitVector3(1e200, 0.0, 0.0),
            lambda: eoe_label_fixed([1e200, 0.0]),
        ],
        ids=[
            "normalize-nan", "normalize-inf", "pair-nan", "state-nan",
            "slater-nan", "vector-nan", "entropy-nan",
            "shannon-nan", "shannon-inf", "shannon-minus-inf", "rank-nan-nan", "rank-nan", "rank-inf",
            "state-inf", "state-minus-inf",
            "pair-huge", "pair-huge-complex", "state-huge", "slater-huge", "vector-huge", "entropy-huge",
        ],
    )
    def test_non_finite_input_rejected(self, build):
        with pytest.raises(ValueError):
            build()

    @pytest.mark.parametrize("bad", [NAN, INF, -INF, 1e200, 1e200j, complex(0.0, NAN)])
    def test_unit_weights_rejects_non_finite_and_huge(self, bad):
        """One bad component fails the sum, for one coefficient pair and for one element of a grid."""
        with pytest.raises(ValueError, match="must be 1"):
            unit_weights((0.6, bad), "norm")
        with pytest.raises(ValueError, match="must be 1"):
            unit_weights((np.array([0.6, 1.0]), np.array([0.8, bad])), "norm")

    def test_unit_weights_grid_matches_one_coefficient_calls(self):
        """Squared parts, not abs: each weight of a complex grid has the bits of its one-element call, also reversed."""
        rng = np.random.default_rng(14)
        phi, alpha, beta = rng.uniform(-math.pi, math.pi, (3, 2000))
        c, s = np.cos(phi) * np.exp(1j * alpha), np.sin(phi) * np.exp(1j * beta)
        for a, b in ((c, s), (c[::-1], s[::-1])):
            grid = unit_weights((a, b), "norm")
            for i, pair in enumerate(zip(a.tolist(), b.tolist())):
                assert [w[i] for w in grid] == unit_weights(pair, "norm")

    def test_unit_weights_of_a_grid_whose_first_coefficient_is_a_number(self):
        """Any array among the coefficients makes a grid: the state 0 |uu> + f_plus |ud> - f_minus |du> + 0 |dd> of a
        grid pair is checked element by element, and its first failing element is named."""
        amps = NormalizedAmplitudePair(np.array([0.6, 1.0]), np.array([0.8, 0.0]))
        state = outgoing_state(amps, ExchangeStatistics.FERMION)
        coeffs = (state.c_upup, state.c_updown, state.c_downup, state.c_downdown)
        assert [np.broadcast_to(w, (2,)).tolist() for w in unit_weights(coeffs, "norm")] == [
            [0.0, 0.0], [0.36, 1.0], [0.6400000000000001, 0.0], [0.0, 0.0]
        ]
        with pytest.raises(ValueError, match=r"^\|psi\|\^2 must be 1, got 1\.25$"):
            TwoSpinState(0.0, np.array([0.6, 1.0]), np.array([-0.8, 0.5]), 0.0)

    @pytest.mark.parametrize("norm_sq", [NAN, INF, -INF, 1.0 + 2e-12, 1.0 - 2e-12])
    def test_check_rejects(self, norm_sq):
        with pytest.raises(ValueError):
            check_unit_norm(norm_sq, "norm")

    @pytest.mark.parametrize("norm_sq", [1.0, 1.0 + 5e-13, 1.0 - 5e-13])
    def test_check_accepts_within_tolerance(self, norm_sq):
        check_unit_norm(norm_sq, "norm")

    def test_message_names_a_plain_float(self):
        with pytest.raises(ValueError) as exc:
            UnitVector3(np.float64(2.0), 0.0, 0.0)
        assert str(exc.value).endswith("got 4.0")


class TestExactMap:
    """exact_map reads a real array's float64 buffer: fn takes the floats it would make of the array's list."""

    @staticmethod
    def listed(fn, *arrays):
        """exact_map by way of each array's .tolist(), whose elements fn converts itself."""
        lists = (a.ravel().tolist() for a in arrays)
        return np.fromiter(map(fn, *lists), float, arrays[0].size).reshape(arrays[0].shape)

    GRID = np.linspace(0.05, 3.0, 20)

    @pytest.mark.parametrize(
        "array",
        [
            np.array([1, -7, 2**53 + 1, 2**62 + 3, -(2**63)], dtype=np.int64),
            np.array([True, False]),
            np.linspace(0.05, 3.0, 7, dtype=np.float32),
            np.array([fractions.Fraction(1, 3), fractions.Fraction(10**30 + 1, 7), fractions.Fraction(-5, 2)]),
            np.broadcast_arrays(np.array([0.3]), np.zeros(5))[0],
            GRID[::3],
            GRID[::-1],
            GRID.reshape(4, 5),
            GRID.reshape(4, 5).T,
        ],
        ids=["int64", "bool", "float32", "fractions", "stride-0", "slice", "reversed", "2-D", "transposed"],
    )
    def test_matches_tolist(self, array):
        for got, want in (
            (exact_map(math.atan, array), self.listed(math.atan, array)),
            (exact_map(math.hypot, array, array), self.listed(math.hypot, array, array)),
        ):
            assert got.shape == want.shape == array.shape and got.dtype == want.dtype == float
            assert got.tobytes() == want.tobytes()

    def test_refuses_a_complex_array_as_math_does(self):
        """A complex array is not cast to its real part: math's functions refuse its elements, in a grid too."""
        with pytest.raises(TypeError, match="must be real number, not complex"):
            exact_map(math.atan, np.array([0.5, 0.5 + 1j]))
        with pytest.raises(TypeError, match="must be real number, not complex"):
            coulomb_provider()(np.array([0.5 + 1j]))


class TestGridForms:
    """The array forms the scan uses apply the scalar checks to every element of a grid."""

    GRID = np.array([0.3, 0.7, 1.1, 1.5])

    @pytest.mark.parametrize(
        "provider",
        [coulomb_provider(), constant_provider(0.6), constant_provider(0.0)],
        ids=["coulomb", "constant-0.6", "constant-0"],
    )
    def test_providers_match_scalar_calls(self, provider):
        """Coulomb answers a grid element by element; a constant answers it with its one-angle pair of floats."""
        pair = provider(self.GRID)
        for i, theta in enumerate(self.GRID.tolist()):
            one = provider(theta)
            if isinstance(pair.direct, np.ndarray):
                assert (pair.direct[i], pair.exchange[i]) == (one.direct, one.exchange)
            else:
                assert pair == one and type(pair.direct) is type(pair.exchange) is float

    @pytest.mark.parametrize("bad", [0.0, math.pi, -0.1, 4.0, NAN, INF, -INF])
    @pytest.mark.parametrize("provider", [coulomb_provider(), constant_provider(0.6)], ids=["coulomb", "constant"])
    def test_providers_reject_one_bad_angle(self, provider, bad):
        grid = self.GRID.copy()
        grid[2] = bad
        with pytest.raises(ValueError, match="strictly in"):
            provider(grid)
        with pytest.raises(ValueError, match="strictly in"):
            validate_angle(grid)

    def test_matches_scalar_normalize(self):
        direct = np.array([-0.5, -1.0, 0.0, 3.0, 1e-300, -2.0])
        exchange = np.array([-0.5, -1.0 / 3.0, 5.0, -4.0, 1e-300, 0.0])
        grid = normalize(AmplitudePair(direct, exchange))
        for i in range(direct.size):
            amps = normalize(AmplitudePair(float(direct[i]), float(exchange[i])))
            assert (grid.f_plus[i], grid.f_minus[i]) == (amps.f_plus, amps.f_minus)

    @pytest.mark.parametrize("bad", [NAN, INF, -INF])
    @pytest.mark.parametrize("channel", ["direct", "exchange"])
    def test_rejects_one_non_finite_element(self, channel, bad):
        """The channel norm of a NaN is nan, of an inf is inf: normalize's gate names it, in the grid and one pair."""
        values = {"direct": np.array([0.6, 0.6, 0.6]), "exchange": np.array([0.8, 0.8, 0.8])}
        values[channel][1] = bad
        message = f"must be finite and nonzero, got {abs(bad)!r}$"
        with pytest.raises(ValueError, match=message):
            normalize(AmplitudePair(values["direct"], values["exchange"]))
        with pytest.raises(ValueError, match=message):
            normalize(AmplitudePair(float(values["direct"][1]), float(values["exchange"][1])))

    def test_rejects_one_vanishing_pair(self):
        with pytest.raises(ValueError, match="must be finite and nonzero, got 0.0$"):
            normalize(AmplitudePair(np.array([0.6, 0.0, 1.0]), np.array([0.8, 0.0, 0.0])))

    def test_complex_grid_matches_one_angle_and_evaluate_grid_refuses(self):
        """A complex grid keeps its relative phase and matches its one-angle calls; evaluating the grid rejects it.

        Bit for bit, wherever an element sits: the grid shifted by one
        element and reversed gives the same values.
        """
        rng = np.random.default_rng(21)
        direct = rng.normal(size=200) + 1j * rng.normal(size=200)
        exchange = rng.normal(size=200) + 1j * rng.normal(size=200)
        direct[:2], exchange[2] = 0.0, 0.0
        grid = normalize(AmplitudePair(direct, exchange))
        shifted = normalize(AmplitudePair(direct[1:], exchange[1:]))
        backward = normalize(AmplitudePair(direct[::-1], exchange[::-1]))
        for i in range(direct.size):
            amps = normalize(AmplitudePair(complex(direct[i]), complex(exchange[i])))
            assert grid.f_plus[i] == amps.f_plus
            assert grid.f_minus[i] == amps.f_minus
            assert backward.f_plus[-1 - i] == amps.f_plus and backward.f_minus[-1 - i] == amps.f_minus
            if i:
                assert shifted.f_plus[i - 1] == amps.f_plus and shifted.f_minus[i - 1] == amps.f_minus
        # The phased pair as constant arrays and as the numbers a provider may answer a grid with: both name 0.5.
        for phased in (
            grid_form(lambda thetas: AmplitudePair(np.full(thetas.shape, 0.6), np.full(thetas.shape, 0.8j))),
            grid_form(lambda thetas: AmplitudePair(0.6, 0.8j)),
        ):
            with pytest.raises(ValueError, match=r"real channel amplitudes; relative phase at theta = 0\.5$"):
                evaluate_grid(np.array([0.5, 1.0]), phased, ExchangeStatistics.FERMION)

    def test_one_angle_gives_python_numbers(self):
        """One angle's pair normalizes to Python numbers, not 0-d arrays."""
        real = normalize(AmplitudePair(-1.0, -1.0 / 3.0))
        assert type(real.f_plus) is float and type(real.f_minus) is float
        phased = normalize(AmplitudePair(1.0 + 1.0j, 2.0 - 0.5j))
        assert type(phased.f_plus) is float and type(phased.f_minus) is complex

    def test_one_pair_makes_no_numpy_array_call(self, monkeypatch):
        """One pair is normalized and checked in Python numbers: no np.array, where, errstate, asarray or fromiter runs.

        So is a whole refinement step of critical_angle: provider, normalize, then bell_F on one angle.
        """
        providers = (coulomb_provider(), constant_provider(0.6), lambda theta: AmplitudePair(math.cos(theta), 0.5j))

        def refuse(*args, **kwargs):
            raise AssertionError("numpy array call on one pair")

        for name in ("array", "where", "errstate", "asarray", "ascontiguousarray", "fromiter", "iscomplexobj"):
            monkeypatch.setattr(np, name, refuse)
        for direct, exchange in ((-1.0, -1.0 / 3.0), (1.0 + 1.0j, 2.0 - 0.5j)):
            amps = normalize(AmplitudePair(direct, exchange))
            assert NormalizedAmplitudePair(amps.f_plus, amps.f_minus) == amps
        for provider in providers:
            f = bell_F(normalize(provider(0.7))) - 1.0
            assert type(f) is float

    @pytest.mark.parametrize(
        "f_plus, f_minus",
        [([0.6, -0.6, 0.6], [0.8, 0.8, 0.8]), ([0.6, 0.6j, 0.6], [0.8, 0.8, 0.8]), ([0.6, 0.0, 0.6], [0.8, -1.0, 0.8])],
        ids=["negative-f_plus", "complex-anchor", "negative-f_minus-at-zero-f_plus"],
    )
    def test_pair_rejects_one_unfixed_phase(self, f_plus, f_minus):
        """A grid pair checks the phase convention on every element, not on the grid as a whole."""
        NormalizedAmplitudePair(np.array([0.6, 0.0, 1.0]), np.array([0.8, 1.0, 0.0]))
        with pytest.raises(ValueError, match="global phase"):
            NormalizedAmplitudePair(np.array(f_plus), np.array(f_minus))

    def test_grid_norm_check_names_first_failure(self):
        check_unit_norm(np.array([1.0, 1.0 + 5e-13]), "norm")
        with pytest.raises(ValueError, match="got 2.0"):
            check_unit_norm(np.array([1.0, 2.0, NAN]), "norm")
