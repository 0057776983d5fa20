"""Entropy of entanglement for determinant superpositions and two-spin states.

Two bookkeeping conventions coexist for identical particles.  With the
slot labels held fixed, the entropy is the Shannon entropy (base 2) of the
determinant weights: zero for a single determinant, one bit for an equal
superposition.  Over the antisymmetrized states themselves, the
unremovable which-particle uncertainty adds exactly one bit on top of the
same quantity.  The label-fixed convention is the default everywhere
user-facing.
"""

from __future__ import annotations

import math

import numpy as np

from .amplitudes import exact_map, unit_weights
from .spin_states import TwoSpinState, finite_weights, reduced_density_matrix


def shannon_bits(weights):
    """Shannon entropy -sum w log2 w of a weight distribution, in bits.

    0 log 0 := 0; finite weights are clamped to [0, 1] to absorb round-off,
    NaN and +-inf raise ValueError.  A sequence of numbers gives one entropy
    (a Python float).  One equal-shape array per weight (for a scan, one per
    determinant, over the angle grid) gives the array of entropies, element
    by element, with math.log2 through exact_map.
    """
    w = np.clip(finite_weights(weights), 0.0, 1.0)
    log2 = exact_map(math.log2, np.where(w > 0.0, w, 1.0))  # 0 log 0 := 0, as log2(1) = 0
    total = 0.0
    for term in w * log2:
        total = total - term
    total = total + 0.0  # never return -0.0
    return total if w.ndim > 1 else float(total)


def eoe_label_fixed(coeffs) -> float:
    """Entropy of entanglement with slot labels fixed: -sum |c|^2 log2 |c|^2.

    Zero for a single determinant, 1 bit for an equal-weight pair.
    eoe_label_fixed(coulomb_f_pm(theta)) is the closed-form Coulomb entropy
    curve.
    """
    return shannon_bits(unit_weights(np.asarray(coeffs, dtype=complex).ravel().tolist(), "sum |c|^2"))


def eoe_symmetrized(coeffs) -> float:
    """Entropy of entanglement over antisymmetrized states: 1 + label-fixed.

    The offset is the one bit of which-particle uncertainty carried by
    antisymmetrization itself; it is exactly 1 for every input.
    """
    return 1.0 + eoe_label_fixed(coeffs)


def entropy_of_state(state: TwoSpinState) -> float:
    """Von Neumann entropy (base 2) of either slot's reduced density matrix.

    Computed by the Schmidt route: eigenvalues of the slot-1 reduced
    density matrix, clamped to [0, 1] before the logarithm.  Independent
    of which slot is traced out, and of any fixed exchange sign between
    the channel components.  This is the reference route that tests hold
    the closed-form tables against; the tables themselves take
    shannon_bits of |f_plus|^2 and |f_minus|^2 directly.
    """
    evals = np.linalg.eigvalsh(reduced_density_matrix(state, 1))
    return shannon_bits(evals)

