"""Independent routes for tests: the eigenvalue entropy of entanglement, and bisection for the critical angle.

The package takes the entropy as shannon_bits of the two determinant weights |f_plus|^2 and |f_minus|^2.  Here the
same number comes from the state itself: its four coefficients as a vector in basis order (uu, ud, du, dd), the
partial trace onto one slot, and the eigenvalues of that 2x2 density matrix.  Both routes end in shannon_bits, so
this one cannot catch an error in it; tests/reference.py, which imports nothing from spinscatter, can.

bisected_critical_angle is critical_angle with bisection in place of ITP: the same bracket cell, then the midpoint of
the bracket at every step.  The package refined the cell that way before it took ITP, and tests hold ITP's roots and
step counts against it.
"""

import numpy as np

from spinscatter.amplitudes import normalize, raw_grid
from spinscatter.bell import _BRACKET, _first_crossing, bell_F
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


def bisected_critical_angle(provider, tol=1e-10):
    """critical_angle's bracket cell, bisected until its half-width drops below tol or no float lies inside it."""
    values = bell_F(normalize(raw_grid(provider, _BRACKET))) - 1.0
    if not isinstance(values, np.ndarray):
        values = np.broadcast_to(values, _BRACKET.shape)
    if (i := _first_crossing(values)) is None:
        return None
    if values[i] == 0.0:
        return _BRACKET[i].item()
    lo, f_lo, hi = _BRACKET[i].item(), values[i].item(), _BRACKET[i + 1].item()

    while 0.5 * (hi - lo) > tol:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
        f_mid = bell_F(normalize(provider(mid))) - 1.0
        if f_mid == 0.0:
            return mid
        if (f_lo < 0.0) != (f_mid < 0.0):
            hi = mid
        else:
            lo, f_lo = mid, f_mid
    return 0.5 * (lo + hi)
