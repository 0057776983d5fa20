"""Tests for the entropy-of-entanglement conventions."""

import math

import numpy as np
import pytest

from spinscatter.amplitudes import NormalizedAmplitudePair, coulomb_f_pm
from spinscatter.entanglement import (
    eoe_label_fixed,
    eoe_symmetrized,
    shannon_bits,
)
from spinscatter.spin_states import (
    ExchangeStatistics,
    distinguishable_outgoing_state,
    outgoing_state,
    slater_decomposition,
)

from oracles import entropy_of_state

INV_SQRT2 = 1.0 / math.sqrt(2.0)

# -(0.9 log2 0.9 + 0.1 log2 0.1), evaluated independently and frozen.
H_09 = 0.4689955935892812


def coulomb_pair(theta):
    return NormalizedAmplitudePair(*coulomb_f_pm(theta))


class TestLabelFixedEntropy:
    def test_single_determinant_is_zero(self):
        assert eoe_label_fixed([1.0, 0.0]) == 0.0
        assert eoe_label_fixed([0.0, -1.0]) == 0.0

    def test_singlet_is_one_bit(self):
        assert eoe_label_fixed([INV_SQRT2, -INV_SQRT2]) == pytest.approx(1.0, abs=1e-12)

    def test_biased_pair(self):
        """Weights (0.9, 0.1) carry 0.468996 bits."""
        value = eoe_label_fixed([math.sqrt(0.9), -math.sqrt(0.1)])
        assert value == pytest.approx(H_09, abs=1e-12)
        assert value == pytest.approx(0.468996, abs=1e-6)

    def test_phase_invariance(self):
        rng = np.random.default_rng(19)
        for _ in range(50):
            w = rng.uniform(0.0, 1.0)
            plain = [math.sqrt(w), math.sqrt(1.0 - w)]
            phased = np.array(plain) * np.exp(1j * rng.uniform(0.0, 2.0 * math.pi, size=2))
            assert eoe_label_fixed(phased) == pytest.approx(eoe_label_fixed(plain), abs=1e-12)

    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError):
            eoe_label_fixed([1.0, 1.0])

    def test_no_negative_zero(self):
        assert math.copysign(1.0, eoe_label_fixed([1.0, 0.0])) == 1.0


class TestSymmetrizedEntropy:
    def test_single_determinant_is_one_bit(self):
        assert eoe_symmetrized([1.0, 0.0]) == 1.0

    def test_singlet_is_two_bits(self):
        assert eoe_symmetrized([INV_SQRT2, -INV_SQRT2]) == pytest.approx(2.0, abs=1e-12)

    def test_offset_is_exactly_one(self):
        """The two conventions differ by 1 to machine precision, whatever the pair."""
        rng = np.random.default_rng(23)
        for _ in range(1000):
            w = rng.uniform(0.0, 1.0)
            coeffs = [math.sqrt(w), -math.sqrt(1.0 - w)]
            diff = eoe_symmetrized(coeffs) - eoe_label_fixed(coeffs)
            assert abs(diff - 1.0) <= 1e-15


class TestEntropyOfState:
    def test_singlet(self):
        state = outgoing_state(coulomb_pair(math.pi / 2), ExchangeStatistics.FERMION)
        assert entropy_of_state(state) == pytest.approx(1.0, abs=1e-12)

    def test_product_state_is_exactly_zero(self):
        state = distinguishable_outgoing_state(coulomb_pair(0.7))
        assert entropy_of_state(state) == 0.0

    def test_biased_state(self):
        state = outgoing_state(coulomb_pair(math.pi / 3), ExchangeStatistics.FERMION)
        assert entropy_of_state(state) == pytest.approx(H_09, abs=1e-12)

    def test_agrees_with_label_fixed_on_determinant_coefficients(self):
        for theta in np.linspace(0.05, math.pi / 2, 200):
            amps = coulomb_pair(theta)
            state = outgoing_state(amps, ExchangeStatistics.FERMION)
            dec = slater_decomposition(amps)
            assert entropy_of_state(state) == pytest.approx(
                eoe_label_fixed([dec.c_s, dec.c_minus_s]), abs=1e-12
            )


class TestCoulombEntropy:
    def test_symmetric_point_is_one_bit(self):
        assert eoe_label_fixed(coulomb_f_pm(math.pi / 2)) == pytest.approx(1.0, abs=1e-12)

    def test_pi_third(self):
        assert eoe_label_fixed(coulomb_f_pm(math.pi / 3)) == pytest.approx(H_09, abs=1e-12)

    def test_vanishes_toward_forward_direction(self):
        assert eoe_label_fixed(coulomb_f_pm(1e-6)) < 1e-9

    def test_symmetric_about_pi_half(self):
        for theta in np.linspace(0.05, math.pi / 2, 100):
            assert eoe_label_fixed(coulomb_f_pm(math.pi - theta)) == pytest.approx(
                eoe_label_fixed(coulomb_f_pm(theta)), abs=1e-12
            )

    def test_strictly_increasing_to_symmetric_point(self):
        values = [eoe_label_fixed(coulomb_f_pm(t)) for t in np.linspace(1e-3, math.pi / 2, 1000)]
        assert all(a < b for a, b in zip(values, values[1:]))

    def test_matches_schmidt_route(self):
        """Closed form equals the reduced-density-matrix eigenvalue route."""
        for theta in np.linspace(1e-3, math.pi - 1e-3, 1000):
            state = outgoing_state(coulomb_pair(theta), ExchangeStatistics.FERMION)
            assert entropy_of_state(state) == pytest.approx(eoe_label_fixed(coulomb_f_pm(theta)), abs=1e-12)

    def test_statistics_do_not_change_entropy(self):
        for theta in np.linspace(0.05, math.pi / 2, 100):
            amps = coulomb_pair(theta)
            s_fermion = entropy_of_state(outgoing_state(amps, ExchangeStatistics.FERMION))
            s_boson = entropy_of_state(outgoing_state(amps, ExchangeStatistics.BOSON))
            assert s_fermion == pytest.approx(s_boson, abs=1e-12)

    @pytest.mark.parametrize("theta", [0.0, math.pi, -1.0])
    def test_angle_domain(self, theta):
        with pytest.raises(ValueError):
            eoe_label_fixed(coulomb_f_pm(theta))


class TestShannonBits:
    def test_round_off_is_clamped(self):
        assert shannon_bits([1.0 + 1e-16, -1e-17]) == 0.0
        assert shannon_bits([0.9, 0.1]) == pytest.approx(H_09, abs=1e-15)

    def test_grid_matches_scalar_per_column(self):
        weights = np.array([[1.0, 0.0, 0.9, 0.5, 1.0 + 1e-16, 0.999], [0.0, 1.0, 0.1, 0.5, -1e-17, 0.001]])
        grid = shannon_bits(weights)
        assert grid.tolist() == [shannon_bits(column) for column in weights.T.tolist()]
        assert not np.signbit(grid).any()

    def test_one_distribution_gives_a_python_float(self):
        assert type(shannon_bits([0.9, 0.1])) is float
        assert type(shannon_bits(np.array([1.0, 0.0]))) is float
        assert type(shannon_bits((np.float64(0.5), np.float64(0.5)))) is float
