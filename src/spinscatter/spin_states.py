"""Two-particle spin states and their Slater-determinant bookkeeping.

States are written over the product basis (uu, ud, du, dd), where slot 1
is the particle detected at theta and slot 2 its partner at pi - theta.
Starting from opposite spins along the quantization axis, a
spin-independent interaction superposes the direct and exchange channels
into

    fermions:  f_plus |ud> - f_minus |du>
    bosons:    f_plus |ud> + f_minus |du>

Re-expressed over the two antisymmetrized opposite-spin mode determinants,
the fermion state carries the coefficient pair (f_plus, -f_minus).  A
single determinant is just antisymmetrization and carries no useful
entanglement; a genuine superposition of both does, which is what the
entropy module quantifies.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .amplitudes import NormalizedAmplitudePair, check_unit_norm


class ExchangeStatistics(enum.Enum):
    """Exchange symmetry of the identical pair; the value is the exchange sign."""

    FERMION = -1
    BOSON = 1

    def __init__(self, sign: int) -> None:
        # A plain attribute, not a property: bell_F reads it on every angle.
        self.sign = sign


@dataclass(frozen=True)
class TwoSpinState:
    """Normalized pure state of two spin-1/2 slots, basis order (uu, ud, du, dd)."""

    c_upup: complex
    c_updown: complex
    c_downup: complex
    c_downdown: complex

    def __post_init__(self) -> None:
        check_unit_norm(sum(m * m for m in map(abs, self._coeffs())), "|psi|^2")

    def _coeffs(self) -> tuple[complex, complex, complex, complex]:
        return (self.c_upup, self.c_updown, self.c_downup, self.c_downdown)

    @property
    def vector(self) -> np.ndarray:
        """Coefficients as a length-4 complex array in basis order."""
        return np.array(self._coeffs(), dtype=complex)


@dataclass(frozen=True)
class SlaterDecomposition:
    """Coefficients over the two opposite-spin mode determinants.

    c_s multiplies the determinant with spin up in the detected slot,
    c_minus_s the one with spin down there.
    """

    c_s: complex
    c_minus_s: complex

    def __post_init__(self) -> None:
        s, t = abs(self.c_s), abs(self.c_minus_s)
        check_unit_norm(s * s + t * t, "|c_s|^2 + |c_minus_s|^2")

    @property
    def coefficients(self) -> np.ndarray:
        return np.array([self.c_s, self.c_minus_s], dtype=complex)


def outgoing_state(amps: NormalizedAmplitudePair, statistics: ExchangeStatistics) -> TwoSpinState:
    """Outgoing spin state for identical particles with opposite initial spins.

    The direct channel keeps the detected slot's spin (|ud>), the exchange
    channel swaps it (|du>); the exchange sign of the statistics sets the
    relative sign between the two channels in the slot-labeled basis.
    """
    return TwoSpinState(0.0, amps.f_plus, statistics.sign * amps.f_minus, 0.0)


def distinguishable_outgoing_state(amps: NormalizedAmplitudePair) -> TwoSpinState:
    """Outgoing spin state when the two particles are distinguishable.

    Without exchange there is a single channel, and a spin-independent
    interaction factors out of the spin sector entirely: whatever the
    amplitudes, the normalized spin content stays the initial |ud>.
    """
    return TwoSpinState(0.0, 1.0, 0.0, 0.0)


def slater_decomposition(amps: NormalizedAmplitudePair) -> SlaterDecomposition:
    """Determinant coefficients (f_plus, -f_minus) of the fermion outgoing state."""
    return SlaterDecomposition(amps.f_plus, -amps.f_minus)


RANK_EPSILON = 1e-12  # a determinant weight at or below this counts as absent (round-off of a unit-norm pair)


def finite_weights(weights) -> np.ndarray:
    """Determinant weights as a float array; ValueError naming the first NaN or +-inf.

    A sequence of numbers gives a 1-d array, one equal-shape array per
    weight gives their stack.
    """
    w = np.asarray(weights, dtype=float)
    finite = np.isfinite(w)
    if not finite.all():
        raise ValueError(f"weights must be finite, got {float(w[~finite].flat[0])!r}")
    return w


def rank_of_weights(weights):
    """Number of determinant weights |c|^2 above RANK_EPSILON (1 or 2).

    Rank 1 means a single determinant, i.e. nothing beyond
    antisymmetrization; rank 2 is genuine two-particle entanglement.  With
    one equal-shape array per determinant (an angle grid), the result is
    the integer array of ranks, element by element.  NaN and +-inf raise
    ValueError.
    """
    finite_weights(weights)
    return sum(w > RANK_EPSILON for w in weights)


def slater_rank(dec: SlaterDecomposition) -> int:
    """Slater rank of a decomposition: rank_of_weights of its |c|^2."""
    s, t = abs(dec.c_s), abs(dec.c_minus_s)
    return rank_of_weights((s * s, t * t))


def reduced_density_matrix(state: TwoSpinState, slot: int) -> np.ndarray:
    """Partial trace of the pure two-spin state onto one slot.

    Returns the 2x2 complex density matrix of the kept slot in its
    (up, down) basis: Hermitian, unit trace, positive semidefinite.
    """
    if slot not in (1, 2):
        raise ValueError(f"slot must be 1 or 2, got {slot!r}")
    c = state.vector.reshape(2, 2)
    if slot == 1:
        return c @ c.conj().T
    return c.T @ c.conj()
