"""Bell correlator, analyzer geometry and inequality test.

For a two-spin state alpha |ud> + beta |du> (quantization axis z) and
z = alpha* beta, the correlator for analyzer directions a and b is

    E(a, b) = -a_z b_z + 2 Re z (a_x b_x + a_y b_y) + 2 Im z (a_y b_x - a_x b_y).

The outgoing state has alpha = f_plus (real) and beta = sign f_minus, so
z = sign f_plus f_minus, where sign is the exchange sign of the statistics
(-1 for fermions, +1 for bosons).

Three coplanar analyzer directions with pairwise angles (pi/3, 2pi/3,
pi/3), the first along the quantization axis, turn the local-realism
bound |E(a,b) - E(a,c)| <= 1 + E(b,c) into the scalar condition F >= 1
with

    F(theta) = 1 + E(b, c) = 5/4 + (3/2) sign f_plus Re f_minus,

because |E(a,b) - E(a,c)| = 1 identically for that triple, and b and c
lie in the x-z plane, where the Im z term vanishes.  A common rotation
of b and c about z leaves F as it is, because it leaves alpha |ud> +
beta |du> unchanged.  F < 1 flags a Bell violation; for fermions with
Coulomb amplitudes the border is crossed at theta = pi/4.  bell_F takes
one normalized pair or the arrays of an angle grid; critical_angle
brackets the crossing on an angle grid, then bisects on single angles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .amplitudes import NORM_TOL, AmplitudePair, AmplitudeProvider, NormalizedAmplitudePair, check_unit_norm, normalize
from .spin_states import ExchangeStatistics, TwoSpinState

_ANGLE_AB = math.pi / 3
_ANGLE_AC = 2.0 * math.pi / 3
_ANGLE_BC = math.pi / 3

# Tolerance on the imaginary part of the oracle expectation value; the
# operator is Hermitian, so anything larger signals a construction bug.
_IMAG_TOL = 1e-9

_SCAN_POINTS = 1024
_BRACKET_LO = 1e-6


@dataclass(frozen=True)
class UnitVector3:
    """A direction on the unit sphere (x^2 + y^2 + z^2 = 1)."""

    x: float
    y: float
    z: float

    def __post_init__(self) -> None:
        check_unit_norm(self.x * self.x + self.y * self.y + self.z * self.z, "direction length |v|^2")

    @classmethod
    def normalized(cls, x: float, y: float, z: float) -> "UnitVector3":
        """Scale an arbitrary nonzero vector onto the unit sphere."""
        n = math.hypot(x, y, z)
        if n == 0.0:
            raise ValueError("cannot normalize the zero vector")
        return cls(x / n, y / n, z / n)

    def dot(self, other: "UnitVector3") -> float:
        return self.x * other.x + self.y * other.y + self.z * other.z

    def as_array(self) -> np.ndarray:
        return np.array([self.x, self.y, self.z])


def _angle_between(u: UnitVector3, v: UnitVector3) -> float:
    return math.acos(min(1.0, max(-1.0, u.dot(v))))


@dataclass(frozen=True)
class BellGeometry:
    """Three coplanar analyzer directions with pairwise angles (pi/3, 2pi/3, pi/3).

    Any rigid rotation of the canonical triple is accepted; the angular
    pattern and coplanarity are what the inequality arithmetic relies on.
    """

    a_hat: UnitVector3
    b_hat: UnitVector3
    c_hat: UnitVector3

    def __post_init__(self) -> None:
        pairs = (
            ("a,b", self.a_hat, self.b_hat, _ANGLE_AB),
            ("a,c", self.a_hat, self.c_hat, _ANGLE_AC),
            ("b,c", self.b_hat, self.c_hat, _ANGLE_BC),
        )
        for label, u, v, want in pairs:
            got = _angle_between(u, v)
            if abs(got - want) > NORM_TOL:
                raise ValueError(f"angle({label}) must be {want!r}, got {got!r}")
        triple = float(np.dot(self.a_hat.as_array(), np.cross(self.b_hat.as_array(), self.c_hat.as_array())))
        if abs(triple) > NORM_TOL:
            raise ValueError(f"directions must be coplanar, got triple product {triple!r}")


def standard_geometry() -> BellGeometry:
    """Canonical x-z plane realization of the analyzer triple.

    a along the quantization axis z, with b and c at pi/3 and 2pi/3 from
    it.  With a on the axis, the amplitude-dependent transverse term drops
    out of E(a, .), so |E(a,b) - E(a,c)| = 1 holds identically and the
    whole inequality collapses onto F = 1 + E(b,c).
    """
    return BellGeometry(
        UnitVector3(0.0, 0.0, 1.0),
        UnitVector3(math.sin(_ANGLE_AB), 0.0, math.cos(_ANGLE_AB)),
        UnitVector3(math.sin(_ANGLE_AC), 0.0, math.cos(_ANGLE_AC)),
    )


def correlator_closed_form(a: UnitVector3, b: UnitVector3, amps: NormalizedAmplitudePair) -> float:
    """Spin correlator E(a, b) of the fermion outgoing state, closed form.

    E(a, b) = -[a_z b_z + 2 f_plus (Re f_minus (a_x b_x + a_y b_y) + Im f_minus (a_y b_x - a_x b_y))]
    with quantization axis z, for any normalized pair (f_plus is real).
    """
    f_plus, real, imag = amps.f_plus.real, amps.f_minus.real, amps.f_minus.imag
    return -(a.z * b.z + 2.0 * f_plus * (real * (a.x * b.x + a.y * b.y) + imag * (a.y * b.x - a.x * b.y)))


_SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
_SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
_SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)


def _spin_along(direction: UnitVector3) -> np.ndarray:
    return direction.x * _SIGMA_X + direction.y * _SIGMA_Y + direction.z * _SIGMA_Z


def correlator_oracle(state: TwoSpinState, a: UnitVector3, b: UnitVector3) -> float:
    """Spin correlator from the explicit Pauli tensor product.

    Builds (sigma.a) x (sigma.b) and takes its expectation value in the
    given state.  Works for any normalized two-spin state and serves as
    the independent cross-check of the closed form.  The operator is
    Hermitian, so a non-negligible imaginary part raises rather than
    being silently discarded.
    """
    op = np.kron(_spin_along(a), _spin_along(b))
    psi = state.vector
    value = complex(np.vdot(psi, op @ psi))
    if abs(value.imag) > _IMAG_TOL:
        raise ArithmeticError(f"correlator expectation has imaginary part {value.imag!r}")
    return value.real


def bell_F(amps: NormalizedAmplitudePair, statistics: ExchangeStatistics = ExchangeStatistics.FERMION):
    """Bell combination F = 5/4 + (3/2) sign f_plus Re f_minus for the canonical triple.

    sign is the exchange sign of the statistics.  F equals 1 + E(b, c) in
    the outgoing state of that statistics for any normalized pair: b and c
    lie in the x-z plane, so a relative phase enters only through
    Re f_minus.  Local realism requires F >= 1, so F < 1 is a violation.
    A pair of numbers gives one F, a pair of arrays over an angle grid the
    array of F.
    """
    # (1.5 * sign) first: the fermion value is bit-identical to 1.25 - 1.5 * f_plus * f_minus.
    return 1.25 + 1.5 * statistics.sign * amps.f_plus.real * amps.f_minus.real


def critical_angle(provider: AmplitudeProvider, tol: float = 1e-10) -> Optional[float]:
    """Smallest angle in (0, pi/2] where the provider's fermion F(theta) crosses 1.

    F comes from normalize and bell_F, with one provider call per angle
    (a Python float): on a 1024-angle grid that brackets the first sign
    change of F - 1 (robust against non-monotone providers), then on one
    angle per bisection step, until the bracket's half-width drops below
    tol or no float lies strictly inside it.  The bracket's pairs are
    stacked and normalized as one grid, whose elements equal their
    one-angle results, so both stages see the same F.  Returns None when
    F - 1 keeps a single sign over the whole range.
    """
    if not tol > 0.0:
        raise ValueError(f"tol must be positive, got {tol!r}")

    thetas = np.linspace(_BRACKET_LO, math.pi / 2.0, _SCAN_POINTS).tolist()
    direct, exchange = np.array([(p.direct, p.exchange) for p in map(provider, thetas)]).T
    values = bell_F(normalize(AmplitudePair(direct, exchange))) - 1.0
    # The first angle where F - 1 is 0 or has the other sign at the next angle.
    hits = np.flatnonzero((values == 0.0) | np.append(np.diff(values < 0.0), False))
    if hits.size == 0:
        return None
    i = int(hits[0])
    if values[i] == 0.0:
        return thetas[i]
    lo, f_lo, hi = thetas[i], values[i], thetas[i + 1]

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
