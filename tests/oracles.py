"""The eigenvalue route to the entropy of entanglement, a cross-check of the package's one route.

The package takes the entropy as shannon_bits of the two determinant weights |f_plus|^2 and |f_minus|^2.  Here the
same number comes from the state itself: its four coefficients as a vector in basis order (uu, ud, du, dd), the
partial trace onto one slot, and the eigenvalues of that 2x2 density matrix.  Both routes end in shannon_bits, so
this one cannot catch an error in it; tests/reference.py, which imports nothing from spinscatter, can.
"""

import numpy as np

from spinscatter.entanglement import shannon_bits
from spinscatter.spin_states import TwoSpinState


def state_vector(state: TwoSpinState) -> np.ndarray:
    """The state's coefficients as a length-4 complex array in basis order (uu, ud, du, dd)."""
    return np.array((state.c_upup, state.c_updown, state.c_downup, state.c_downdown), dtype=complex)


def reduced_density_matrix(state: TwoSpinState, slot: int) -> np.ndarray:
    """Partial trace of the pure two-spin state onto one slot.

    Returns the 2x2 complex density matrix of the kept slot in its
    (up, down) basis: Hermitian, unit trace, positive semidefinite.
    """
    if slot not in (1, 2):
        raise ValueError(f"slot must be 1 or 2, got {slot!r}")
    c = state_vector(state).reshape(2, 2)
    if slot == 1:
        return c @ c.conj().T
    return c.T @ c.conj()


def entropy_of_state(state: TwoSpinState) -> float:
    """Von Neumann entropy (base 2) of either slot's reduced density matrix.

    Computed by the Schmidt route: eigenvalues of the slot-1 reduced
    density matrix, clamped to [0, 1] by shannon_bits before the
    logarithm.  Independent of which slot is traced out, and of any fixed
    exchange sign between the channel components.
    """
    return shannon_bits(np.linalg.eigvalsh(reduced_density_matrix(state, 1)))
