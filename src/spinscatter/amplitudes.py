"""Center-of-mass kinematics and two-channel scattering amplitudes.

Elastic scattering of two identical particles in the center-of-mass frame
involves two indistinguishable channels: the detected particle emerged
either at the scattering angle theta (direct) or at pi - theta (exchange).
For the Coulomb interaction at lowest order the channel amplitudes are
inversely proportional to the momentum-transfer invariants

    t(theta) = 2 (m^2 - E^2) (1 - cos theta)
    u(theta) = 2 (m^2 - E^2) (1 + cos theta)

with m the particle mass and E the per-particle energy (E > m, so both
invariants are negative away from the beam axis).  Everything downstream
consumes only the unit-norm pair (f_plus, f_minus), from which mass,
energy and coupling strength cancel; for Coulomb the normalized pair has
the closed form

    f_pm(theta) = (1 +- cos theta) / sqrt(2 (1 + cos^2 theta)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from numpy import ndarray  # bound once: critical_angle makes these isinstance checks on every scalar call

# Shared tolerance for "is this normalized / real" checks on constructed values.
NORM_TOL = 1e-12


def check_unit_norm(norm_sq, what: str) -> None:
    """Raise ValueError unless norm_sq is within NORM_TOL of 1; NaN and +-inf fail too.

    norm_sq may also be an array over an angle grid; it passes only if every
    element does, and the error names the first element that fails.
    """
    ok = abs(norm_sq - 1.0) <= NORM_TOL
    if isinstance(ok, ndarray):
        if ok.all():
            return
        norm_sq = float(norm_sq[~ok].flat[0])
    elif ok:
        return
    raise ValueError(f"{what} must be 1, got {norm_sq!r}")


def validate_angle(theta):
    """Check that a scattering angle lies strictly inside (0, pi).

    The exact forward and backward directions are excluded: there the two
    emission directions coincide and the channel decomposition becomes
    meaningless (for Coulomb the amplitudes diverge as well).  theta may
    also be an array (an angle grid), which passes only if every element
    does; NaN never does.
    """
    if isinstance(theta, ndarray):
        outside = theta[~((0.0 < theta) & (theta < math.pi))]
        if outside.size == 0:
            return theta
        theta = outside.flat[0]
    else:
        theta = float(theta)
        if 0.0 < theta < math.pi:
            return theta
    raise ValueError(f"scattering angle must lie strictly in (0, pi), got {float(theta)!r}")


@dataclass(frozen=True)
class Kinematics:
    """Center-of-mass kinematics of the colliding pair.

    Parameters
    ----------
    m : particle mass (m >= 0).
    E : per-particle energy; must exceed the mass so that the momentum
        transfer invariants are negative.
    charge_factor : overall coupling prefactor of the Coulomb amplitude.
        It cancels from every normalized quantity, so its value only
        matters if the raw amplitudes themselves are of interest.
    """

    m: float
    E: float
    charge_factor: float = 1.0

    def __post_init__(self) -> None:
        if self.m < 0.0:
            raise ValueError(f"mass must be nonnegative, got {self.m!r}")
        if not self.E > self.m:
            raise ValueError(f"energy must exceed the mass, got E={self.E!r}, m={self.m!r}")
        if not self.charge_factor > 0.0:
            raise ValueError(f"charge_factor must be positive, got {self.charge_factor!r}")


@dataclass(frozen=True)
class AmplitudePair:
    """Raw (unnormalized) amplitudes of the direct and exchange channels.

    A provider called with an angle grid returns one pair of equal-shape
    arrays; then no element may vanish in both channels.
    """

    direct: complex
    exchange: complex

    def __post_init__(self) -> None:
        if isinstance(self.direct, ndarray):
            vanishes = ((self.direct == 0) & (self.exchange == 0)).any()
        else:
            vanishes = self.direct == 0 and self.exchange == 0
        if vanishes:
            raise ValueError("amplitude pair must not vanish in both channels")


@dataclass(frozen=True)
class NormalizedAmplitudePair:
    """Unit-norm channel amplitudes with the global phase fixed.

    Convention: f_plus is real and nonnegative (if f_plus vanishes, the
    convention falls to f_minus instead).  Only the relative phase of the
    two components is physical; fixing the global phase this way makes
    equal states compare equal.
    """

    f_plus: complex
    f_minus: complex

    def __post_init__(self) -> None:
        check_unit_norm(abs(self.f_plus) ** 2 + abs(self.f_minus) ** 2, "|f_plus|^2 + |f_minus|^2")
        anchor = self.f_minus if self.f_plus == 0 else self.f_plus
        if abs(anchor.imag) > NORM_TOL or anchor.real < 0.0:
            raise ValueError("global phase not fixed: leading amplitude must be real and >= 0")

    @property
    def is_real(self) -> bool:
        """True when both components are real (f_plus always is, by convention)."""
        return abs(self.f_minus.imag) <= NORM_TOL


# An interaction model: maps a scattering angle onto the raw channel pair.
# Physically consistent providers satisfy the exchange relation
# provider(pi - theta) == (exchange, direct) of provider(theta), i.e. the
# exchange channel is the direct channel at the supplementary angle.
# The built-in providers also take an angle array; a user provider need
# only take one angle, which is all critical_angle passes.
AmplitudeProvider = Callable[[float], AmplitudePair]


def _mandelstam_pair(theta, kin: Kinematics):
    """(t, u) = 2 (m^2 - E^2) (1 -+ cos theta), from one angle check and one cosine."""
    theta = validate_angle(theta)
    cos_theta = np.cos(theta) if isinstance(theta, ndarray) else math.cos(theta)
    scale = 2.0 * (kin.m ** 2 - kin.E ** 2)
    return scale * (1.0 - cos_theta), scale * (1.0 + cos_theta)


def mandelstam_t(theta, kin: Kinematics):
    """Momentum transfer invariant of the direct channel.

    t(theta) = 2 (m^2 - E^2) (1 - cos theta); strictly negative on (0, pi).
    Element-wise for an angle array.
    """
    return _mandelstam_pair(theta, kin)[0]


def mandelstam_u(theta, kin: Kinematics):
    """Momentum transfer invariant of the exchange channel.

    u(theta) = 2 (m^2 - E^2) (1 + cos theta) = t(pi - theta).  Element-wise
    for an angle array.
    """
    return _mandelstam_pair(theta, kin)[1]


def coulomb_amplitudes(theta, kin: Kinematics) -> AmplitudePair:
    """Lowest-order Coulomb channel amplitudes (N/t, N/u).

    Both components are real and negative; the coupling prefactor N is
    ``kin.charge_factor``.  An angle array gives a pair of arrays.
    """
    t, u = _mandelstam_pair(theta, kin)
    n = kin.charge_factor
    return AmplitudePair(n / t, n / u)


def normalize(pair: AmplitudePair) -> NormalizedAmplitudePair:
    """Scale a channel pair to unit norm and fix the global phase.

    The common phase is rotated away so that f_plus comes out real and
    nonnegative (f_minus instead when the direct channel vanishes); the
    relative phase between the channels is preserved exactly.
    """
    norm = math.hypot(abs(pair.direct), abs(pair.exchange))
    if norm == 0.0:
        raise ValueError("cannot normalize a pair that vanishes in both channels")
    f_plus = complex(pair.direct) / norm
    f_minus = complex(pair.exchange) / norm
    if f_plus != 0:
        phase = f_plus.conjugate() / abs(f_plus)
        return NormalizedAmplitudePair(abs(f_plus), f_minus * phase)
    return NormalizedAmplitudePair(0.0, abs(f_minus))


def normalize_grid(pair: AmplitudePair) -> tuple[np.ndarray, np.ndarray]:
    """Array form of normalize for a pair of real channel arrays over an angle grid.

    Returns the arrays (f_plus, f_minus), element by element equal to the
    real parts of normalize's result: each pair is divided by math.hypot of
    its channels (np.hypot rounds differently in about 0.5% of inputs), the
    common sign is flipped where f_plus < 0 and f_minus is taken positive
    where f_plus vanishes.  |f_plus|^2 + |f_minus|^2 goes through
    check_unit_norm, so a NaN or +-inf anywhere raises ValueError.  Complex
    channels raise ValueError too: normalize keeps their relative phase.
    """
    direct, exchange = np.asarray(pair.direct), np.asarray(pair.exchange)
    if np.iscomplexobj(direct) or np.iscomplexobj(exchange):
        raise ValueError("normalize_grid takes real channel amplitudes; use normalize for complex pairs")
    norm = np.fromiter(map(math.hypot, direct.ravel().tolist(), exchange.ravel().tolist()), float, direct.size)
    norm = norm.reshape(direct.shape)
    with np.errstate(invalid="ignore"):  # inf / inf gives NaN, which the norm check rejects
        f_plus = direct / norm
        f_minus = exchange / norm
    f_minus = np.where(f_plus == 0.0, np.abs(f_minus), np.sign(f_plus) * f_minus)
    f_plus = np.abs(f_plus)
    check_unit_norm(f_plus * f_plus + f_minus * f_minus, "|f_plus|^2 + |f_minus|^2")
    return f_plus, f_minus


def coulomb_f_pm(theta: float) -> tuple[float, float]:
    """Normalized Coulomb amplitudes in closed form.

    f_pm(theta) = (1 +- cos theta) / sqrt(2 (1 + cos^2 theta)).  Mass,
    energy and coupling cancel in the normalization, so this depends on
    the angle alone; it agrees with normalize(coulomb_amplitudes(...))
    for every kinematics.
    """
    theta = validate_angle(theta)
    c = math.cos(theta)
    scale = math.sqrt(2.0 * (1.0 + c * c))
    return (1.0 + c) / scale, (1.0 - c) / scale


DEFAULT_KINEMATICS = Kinematics(m=1.0, E=2.0)


def coulomb_provider(kin: Kinematics = DEFAULT_KINEMATICS) -> AmplitudeProvider:
    """Amplitude provider for the lowest-order Coulomb interaction."""

    def provider(theta) -> AmplitudePair:
        return coulomb_amplitudes(theta, kin)

    return provider


def constant_provider(f_plus: float) -> AmplitudeProvider:
    """Angle-independent diagnostic provider with f_minus = sqrt(1 - f_plus^2).

    Useful for exercising consumers on a fixed amplitude pair (e.g. one
    whose Bell combination never crosses the classical border).  Being
    angle-independent it deliberately breaks the exchange relation that
    physical providers obey, except at the symmetric point.  An angle array
    gives a pair of constant arrays of its shape.
    """
    if not 0.0 <= f_plus <= 1.0:
        raise ValueError(f"f_plus must lie in [0, 1], got {f_plus!r}")
    f_minus = math.sqrt(1.0 - f_plus * f_plus)

    def provider(theta) -> AmplitudePair:
        theta = validate_angle(theta)
        if isinstance(theta, ndarray):
            return AmplitudePair(np.full(theta.shape, f_plus), np.full(theta.shape, f_minus))
        return AmplitudePair(f_plus, f_minus)

    return provider
