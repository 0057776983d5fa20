"""Tests for outgoing two-spin states and Slater bookkeeping."""

import math

import numpy as np
import pytest

from spinscatter import spin_states
from spinscatter.amplitudes import NormalizedAmplitudePair, coulomb_f_pm, unit_weights
from spinscatter.spin_states import (
    RANK_EPSILON,
    ExchangeStatistics,
    SlaterDecomposition,
    TwoSpinState,
    distinguishable_outgoing_state,
    outgoing_state,
    rank_of_weights,
    slater_decomposition,
    slater_rank,
)

from oracles import reduced_density_matrix, state_vector

INV_SQRT2 = 1.0 / math.sqrt(2.0)


def coulomb_pair(theta):
    return NormalizedAmplitudePair(*coulomb_f_pm(theta))


class TestExchangeStatistics:
    def test_signs(self):
        assert ExchangeStatistics.FERMION.sign == -1
        assert ExchangeStatistics.BOSON.sign == 1


class TestOutgoingState:
    def test_fermion_symmetric_point_is_singlet(self):
        """At theta = pi/2 the fermion state is (|ud> - |du>)/sqrt(2)."""
        state = outgoing_state(coulomb_pair(math.pi / 2), ExchangeStatistics.FERMION)
        assert state.c_upup == 0.0
        assert state.c_downdown == 0.0
        assert state.c_updown == pytest.approx(INV_SQRT2, abs=1e-12)
        assert state.c_downup == pytest.approx(-INV_SQRT2, abs=1e-12)

    def test_boson_symmetric_point_is_triplet(self):
        state = outgoing_state(coulomb_pair(math.pi / 2), ExchangeStatistics.BOSON)
        assert state.c_updown == pytest.approx(INV_SQRT2, abs=1e-12)
        assert state.c_downup == pytest.approx(INV_SQRT2, abs=1e-12)

    def test_stays_in_opposite_spin_sector(self):
        for theta in np.linspace(0.05, math.pi - 0.05, 50):
            state = outgoing_state(coulomb_pair(theta), ExchangeStatistics.FERMION)
            assert state.c_upup == 0.0
            assert state.c_downdown == 0.0

    def test_pure_direct_channel_gives_product_state(self):
        state = outgoing_state(NormalizedAmplitudePair(1.0, 0.0), ExchangeStatistics.FERMION)
        assert state.c_updown == 1.0
        assert state.c_downup == 0.0

    def test_statistics_flips_only_the_exchange_sign(self):
        amps = coulomb_pair(0.9)
        fermion = outgoing_state(amps, ExchangeStatistics.FERMION)
        boson = outgoing_state(amps, ExchangeStatistics.BOSON)
        assert fermion.c_updown == boson.c_updown
        assert fermion.c_downup == -boson.c_downup


class TestDistinguishableParticles:
    def test_state_is_initial_product_everywhere(self):
        for theta in (0.1, 0.7, math.pi / 2):
            state = distinguishable_outgoing_state(coulomb_pair(theta))
            assert state.c_updown == 1.0
            assert state.c_upup == state.c_downup == state.c_downdown == 0.0

    def test_reduced_state_is_pure(self):
        rho = reduced_density_matrix(distinguishable_outgoing_state(coulomb_pair(1.0)), 1)
        np.testing.assert_allclose(rho, np.diag([1.0, 0.0]), atol=1e-15)


class TestSlaterDecomposition:
    def test_symmetric_point(self):
        """pi/2: determinant coefficients (1, -1)/sqrt(2), the singlet combination."""
        dec = slater_decomposition(coulomb_pair(math.pi / 2))
        assert dec.c_s == pytest.approx(INV_SQRT2, abs=1e-12)
        assert dec.c_minus_s == pytest.approx(-INV_SQRT2, abs=1e-12)

    def test_pi_third(self):
        """pi/3: determinant coefficients (sqrt(0.9), -sqrt(0.1))."""
        dec = slater_decomposition(coulomb_pair(math.pi / 3))
        assert dec.c_s == pytest.approx(math.sqrt(0.9), abs=1e-12)
        assert dec.c_minus_s == pytest.approx(-math.sqrt(0.1), abs=1e-12)

    def test_round_trip_reproduces_fermion_state(self):
        """The determinant coefficients are the fermion state's (c_updown, c_downup)."""
        for theta in np.linspace(0.05, math.pi - 0.05, 100):
            amps = coulomb_pair(theta)
            dec = slater_decomposition(amps)
            state = outgoing_state(amps, ExchangeStatistics.FERMION)
            assert (dec.c_s, dec.c_minus_s) == (state.c_updown, state.c_downup)


class TestSlaterRank:
    def test_single_determinant(self):
        assert slater_rank(SlaterDecomposition(1.0, 0.0)) == 1
        assert slater_rank(SlaterDecomposition(0.0, 1.0)) == 1

    def test_generic_pair(self):
        assert slater_rank(SlaterDecomposition(INV_SQRT2, -INV_SQRT2)) == 2
        assert slater_rank(SlaterDecomposition(math.sqrt(0.9), -math.sqrt(0.1))) == 2

    @pytest.mark.parametrize("weight, rank", [(1e-12, 1), (2e-12, 2)], ids=["at-cut", "above-cut"])
    def test_cut_is_strictly_above_rank_epsilon(self, weight, rank):
        """A weight of exactly RANK_EPSILON = 1e-12 counts as absent; twice that does not."""
        assert RANK_EPSILON == 1e-12
        assert rank_of_weights((1.0 - weight, weight)) == rank

    def test_near_forward_scattering_is_still_rank_two(self):
        """The exchange weight is tiny at small angles but above the default cut."""
        assert slater_rank(slater_decomposition(coulomb_pair(0.01))) == 2

    def test_reads_the_weights_the_check_computed(self, monkeypatch):
        """SlaterDecomposition computes its weights once, in __post_init__; slater_rank reads them."""
        calls = []
        counted = lambda coeffs, what: calls.append(what) or unit_weights(coeffs, what)
        monkeypatch.setattr(spin_states, "unit_weights", counted)
        dec = SlaterDecomposition(0.6, -0.8)
        assert slater_rank(dec) == 2 and dec.weights is dec.weights
        assert calls == ["|c_s|^2 + |c_minus_s|^2"]
        assert repr(dec) == "SlaterDecomposition(c_s=0.6, c_minus_s=-0.8)"


class TestReducedDensityMatrix:
    def test_singlet_both_slots_maximally_mixed(self):
        state = outgoing_state(coulomb_pair(math.pi / 2), ExchangeStatistics.FERMION)
        for slot in (1, 2):
            np.testing.assert_allclose(
                reduced_density_matrix(state, slot), 0.5 * np.eye(2), atol=1e-12
            )

    def test_product_state_slots(self):
        state = TwoSpinState(0.0, 1.0, 0.0, 0.0)
        np.testing.assert_allclose(reduced_density_matrix(state, 1), np.diag([1.0, 0.0]), atol=1e-15)
        np.testing.assert_allclose(reduced_density_matrix(state, 2), np.diag([0.0, 1.0]), atol=1e-15)

    def test_generic_channel_weights(self):
        state = outgoing_state(coulomb_pair(math.pi / 3), ExchangeStatistics.FERMION)
        np.testing.assert_allclose(reduced_density_matrix(state, 1), np.diag([0.9, 0.1]), atol=1e-12)
        np.testing.assert_allclose(reduced_density_matrix(state, 2), np.diag([0.1, 0.9]), atol=1e-12)

    def test_random_state_properties(self):
        """Hermitian, unit trace, PSD, and both slots share one eigenvalue set."""
        rng = np.random.default_rng(5)
        for _ in range(50):
            v = rng.normal(size=4) + 1j * rng.normal(size=4)
            v /= np.linalg.norm(v)
            state = TwoSpinState(*v)
            rho1 = reduced_density_matrix(state, 1)
            rho2 = reduced_density_matrix(state, 2)
            for rho in (rho1, rho2):
                np.testing.assert_allclose(rho, rho.conj().T, atol=1e-12)
                assert float(np.trace(rho).real) == pytest.approx(1.0, abs=1e-12)
                assert np.linalg.eigvalsh(rho).min() > -1e-12
            np.testing.assert_allclose(
                np.linalg.eigvalsh(rho1), np.linalg.eigvalsh(rho2), atol=1e-12
            )

    def test_invalid_slot(self):
        state = TwoSpinState(0.0, 1.0, 0.0, 0.0)
        with pytest.raises(ValueError):
            reduced_density_matrix(state, 0)


class TestValidation:
    def test_rejects_unnormalized_state(self):
        with pytest.raises(ValueError):
            TwoSpinState(0.0, 1.0, 1.0, 0.0)

    def test_rejects_unnormalized_decomposition(self):
        with pytest.raises(ValueError):
            SlaterDecomposition(0.9, 0.1)

    def test_vector_basis_order(self):
        state = TwoSpinState(0.0, 0.6, -0.8, 0.0)
        np.testing.assert_array_equal(state_vector(state), np.array([0.0, 0.6, -0.8, 0.0], dtype=complex))
