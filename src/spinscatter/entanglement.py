"""Entropy of entanglement of determinant superpositions.

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


def shannon_bits(weights):
    """Shannon entropy -sum w log2 w of a weight distribution, in bits.

    The weights are ones that unit_weights made, so none is NaN or +-inf;
    0 log 0 := 0, and they are clamped to [0, 1] to absorb round-off.  A
    sequence of numbers gives one entropy (a Python float).  One
    equal-shape array per weight (for a scan, one per determinant, over
    the angle grid) gives the array of entropies, element by element, with
    math.log2 through exact_map, one weight at a time: so exact_map sees no
    more than one slice of a scan.
    """
    w = np.clip(np.asarray(weights, dtype=float), 0.0, 1.0)
    total = 0.0
    for row in w:
        total = total - row * exact_map(math.log2, np.where(row > 0.0, row, 1.0))  # 0 log 0 := 0, as log2(1) = 0
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
