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
brackets the crossing on an angle grid, then refines it on single angles
with ITP (interpolate, truncate, project), which takes at most one step
more than bisection would.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .amplitudes import NORM_TOL, AmplitudeProvider, NormalizedAmplitudePair, check_unit_norm, normalize, raw_grid
from .spin_states import ExchangeStatistics, TwoSpinState

_ANGLE_AB = math.pi / 3
_ANGLE_AC = 2.0 * math.pi / 3
_ANGLE_BC = math.pi / 3

# Tolerance on the imaginary part of the oracle expectation value; the
# operator is Hermitian, so anything larger signals a construction bug.
_IMAG_TOL = 1e-9

_SCAN_POINTS = 1024
_BRACKET_LO = 1e-6
# critical_angle's bracket grid, built once and shared by every solve; read-only, so a grid form cannot write into it.
_BRACKET = np.linspace(_BRACKET_LO, math.pi / 2.0, _SCAN_POINTS)
_BRACKET.flags.writeable = False
# ITP's constants: kappa1 = 0.2 / (b0 - a0) for the bracket cell width b0 - a0, kappa2 = 2, and n0 = 1 step of slack
# over bisection.
_ITP_K1 = 0.2 / ((math.pi / 2.0 - _BRACKET_LO) / (_SCAN_POINTS - 1))
_ITP_K2 = 2
_ITP_N0 = 1


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
        a, b, c = self.a_hat, self.b_hat, self.c_hat
        triple = a.x * (b.y * c.z - b.z * c.y) + a.y * (b.z * c.x - b.x * c.z) + a.z * (b.x * c.y - b.y * c.x)
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
    given state, whose four coefficients it reads in basis order (uu, ud,
    du, dd).  Works for any normalized two-spin state and serves as
    the independent cross-check of the closed form.  The operator is
    Hermitian, so a non-negligible imaginary part raises rather than
    being silently discarded.
    """
    op = np.kron(_spin_along(a), _spin_along(b))
    psi = np.array((state.c_upup, state.c_updown, state.c_downup, state.c_downdown), dtype=complex)
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


def _first_crossing(values: np.ndarray) -> Optional[int]:
    """Index of the first angle where F - 1 is 0 or has the other sign at the next angle; None where there is none."""
    negative = values < 0.0
    hits = values == 0.0
    hits[:-1] |= negative[:-1] != negative[1:]
    i = int(hits.argmax())
    return i if hits[i] else None


def critical_angle(provider: AmplitudeProvider, tol: float = 1e-10) -> Optional[float]:
    """Smallest angle in (0, pi/2] where the provider's fermion F(theta) crosses 1.

    F comes from normalize and bell_F: on the shared bracket grid _BRACKET,
    1024 angles from 1e-6 to pi/2 built once at import and read-only (a grid
    form gets that array and may not write into it), fetched by raw_grid (one
    call of the provider's grid form, such as a built-in provider's, else one
    call per angle), that brackets the first sign change of F - 1 (robust
    against non-monotone providers; two crossings closer than the grid
    spacing, about 1.54e-3, can be missed), then on one angle per ITP step
    (Oliveira & Takahashi, ACM TOMS 47, 2020: interpolate, truncate towards
    the midpoint, project into the step budget), each a Python float strictly
    inside the current bracket, until the bracket's half-width drops below tol
    or no float lies strictly inside it.  The result lies within tol of a sign
    change (or exact zero) of the computed F - 1 in that grid cell.  ITP takes
    at most _ITP_N0 = 1 step more than bisection of the cell would, and at most
    ceil(log2(w / (2 tol))) + 1 steps for the cell width w, with tol no
    smaller than half the float spacing.  A step normalizes its pair in Python
    floats, bit for bit as in a grid, so both routes find the same root.  None
    when F - 1 keeps one sign over the range.
    """
    if not tol > 0.0:
        raise ValueError(f"tol must be positive, got {tol!r}")

    values = bell_F(normalize(raw_grid(provider, _BRACKET))) - 1.0
    # A grid answered with numbers gives one F - 1, which holds at every angle; raw_grid refuses any other shape.
    if not isinstance(values, np.ndarray):
        values = np.broadcast_to(values, _BRACKET.shape)
    if (i := _first_crossing(values)) is None:
        return None
    if values[i] == 0.0:
        return _BRACKET[i].item()
    # Python floats: each step compares and interpolates them, and a numpy scalar's arithmetic costs about 20 times.
    lo, hi = _BRACKET[i].item(), _BRACKET[i + 1].item()
    f_lo, f_hi = values[i].item(), values[i + 1].item()
    if not 0.5 * (hi - lo) > tol:  # the cell meets tol (tol=inf included, whose budget below would be floor(inf))
        return 0.5 * (lo + hi)

    # Every float of the cell is a multiple of u, and so is every bracket width: n units at the start.  eps, tol rounded
    # down to m halves of u (at least one), ends a bracket where tol does.  Bisection keeps floor(k / 2) or ceil(k / 2)
    # of k units a step, so it ends after (n // (m + 1)).bit_length() steps at the fewest and one more at the most.
    # After each step the bracket is at most `budget` wide, and the budget halves; starting from the fewest steps plus
    # _ITP_N0, it covers the most, so ITP takes at most _ITP_N0 steps more than bisection, whichever halves that keeps,
    # and at most ceil(log2((hi - lo) / (2 eps))) + _ITP_N0.  The budget is a multiple of u, so within one binade the
    # rounded midpoint keeps it too.
    u = math.ulp(lo)
    m = max(1, math.floor(2.0 * tol / u))
    eps = 0.5 * u * m
    n = int(hi / u) - int(lo / u)
    budget = math.ldexp(eps, (n // (m + 1)).bit_length() + _ITP_N0)
    while 0.5 * (hi - lo) > eps:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
        width = hi - lo
        # Interpolate (regula falsi), truncate towards the midpoint, project into the budget's radius about it.
        guess = (lo * f_hi - hi * f_lo) / (f_hi - f_lo)
        sigma = math.copysign(1.0, mid - guess)
        delta = _ITP_K1 * width**_ITP_K2
        if delta <= abs(mid - guess):
            guess += sigma * delta
        else:
            guess = mid
        radius = budget - 0.5 * width
        if not abs(guess - mid) <= radius:
            guess = mid - sigma * radius
        # Rounding may leave that point outside the bracket or the budget; the midpoint keeps both.
        x = guess if lo < guess < hi and max(guess - lo, hi - guess) <= budget else mid
        f_x = bell_F(normalize(provider(x))) - 1.0
        if f_x == 0.0:
            return x
        if (f_lo < 0.0) != (f_x < 0.0):
            hi, f_hi = x, f_x
        else:
            lo, f_lo = x, f_x
        budget *= 0.5
    return 0.5 * (lo + hi)
