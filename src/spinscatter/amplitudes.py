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
from functools import cached_property
from typing import Callable

import numpy as np
# Bound once: the isinstance checks that tell one angle from a grid run on every one-angle provider call.  The one
# in check_unit_norm is off that path but stays: np.all costs about 4 us a scalar call, the branch about 0.2 us.
from numpy import ndarray

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
    m : particle mass (m >= 0, finite).
    E : per-particle energy (finite); must exceed the mass so that the
        momentum transfer invariants are negative.  The scale 2 (m^2 - E^2)
        must neither underflow to 0 nor overflow.
    charge_factor : overall coupling prefactor of the Coulomb amplitude.
        It cancels from every normalized quantity, so its value only
        matters if the raw amplitudes themselves are of interest.
    """

    m: float
    E: float
    charge_factor: float = 1.0

    def __post_init__(self) -> None:
        if not (math.isfinite(self.m) and math.isfinite(self.E)):
            raise ValueError(f"mass and energy must be finite, got m={self.m!r}, E={self.E!r}")
        if self.m < 0.0:
            raise ValueError(f"mass must be nonnegative, got {self.m!r}")
        if not self.E > self.m:
            raise ValueError(f"energy must exceed the mass, got E={self.E!r}, m={self.m!r}")
        if not -math.inf < self.scale < 0.0:
            raise ValueError(f"energy scale 2 (m^2 - E^2) is {self.scale!r} for m={self.m!r}, E={self.E!r}")
        if not self.charge_factor > 0.0:
            raise ValueError(f"charge_factor must be positive, got {self.charge_factor!r}")

    @cached_property  # read on every provider call
    def scale(self) -> float:
        """2 (m^2 - E^2), the factor common to t and u; multiplies give inf or 0 where float ** 2 would raise."""
        return 2.0 * (self.m * self.m - self.E * self.E)


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
    equal states compare equal.  For an angle grid both components are
    equal-shape arrays, and every element must pass both checks.
    """

    f_plus: complex
    f_minus: complex

    def __post_init__(self) -> None:
        p, m = abs(self.f_plus), abs(self.f_minus)
        check_unit_norm(p * p + m * m, "|f_plus|^2 + |f_minus|^2")
        anchor = np.where(self.f_plus == 0, self.f_minus, self.f_plus)
        if ((abs(anchor.imag) > NORM_TOL) | (anchor.real < 0.0)).any():
            raise ValueError("global phase not fixed: leading amplitude must be real and >= 0")


# An interaction model: maps a scattering angle onto the raw channel pair.
# Physically consistent providers satisfy the exchange relation
# provider(pi - theta) == (exchange, direct) of provider(theta), i.e. the
# exchange channel is the direct channel at the supplementary angle.
# The built-in providers also take an angle array; a user provider need
# only take one angle, which is all critical_angle passes.
AmplitudeProvider = Callable[[float], AmplitudePair]


def _cos_factors(theta):
    """(1 - cos theta, 1 + cos theta), from one angle check and one cosine."""
    theta = validate_angle(theta)
    cos_theta = np.cos(theta) if isinstance(theta, ndarray) else math.cos(theta)
    return 1.0 - cos_theta, 1.0 + cos_theta


def mandelstam_t(theta, kin: Kinematics):
    """Momentum transfer invariant of the direct channel.

    t(theta) = 2 (m^2 - E^2) (1 - cos theta); negative on (0, pi), except
    that it is -0.0 where cos theta rounds to 1 (theta below about 1e-8, e.g.
    1e-9).  Element-wise for an angle array.
    """
    return kin.scale * _cos_factors(theta)[0]


def mandelstam_u(theta, kin: Kinematics):
    """Momentum transfer invariant of the exchange channel.

    u(theta) = 2 (m^2 - E^2) (1 + cos theta) = t(pi - theta); negative on
    (0, pi), except that it is -0.0 where cos theta rounds to -1 (within
    about 1e-8 of pi).  Element-wise for an angle array.
    """
    return kin.scale * _cos_factors(theta)[1]


def coulomb_amplitudes(theta, kin: Kinematics) -> AmplitudePair:
    """Lowest-order Coulomb channel amplitudes (N/t, N/u).

    Both components are real and negative; the coupling prefactor N is
    ``kin.charge_factor``.  An angle array gives a pair of arrays.  Where
    1 - cos theta or 1 + cos theta rounds to 0, next to the beam axis, the
    amplitude diverges; where N/t or N/u exceeds the float range otherwise
    (a tiny energy scale), it overflows.  Either way: ValueError naming the
    first such angle.
    """
    minus, plus = _cos_factors(theta)
    t, u = kin.scale * minus, kin.scale * plus
    n = kin.charge_factor
    if isinstance(t, ndarray):
        with np.errstate(divide="ignore", over="ignore"):  # reported below, with the angle
            direct, exchange = n / t, n / u
        infinite = np.isinf(direct) | np.isinf(exchange)
        failed = infinite.any()
    else:
        direct = n / t if t else math.inf
        exchange = n / u if u else math.inf
        failed = infinite = math.isinf(direct) or math.isinf(exchange)
    if failed:
        theta, minus, plus = (float(np.extract(infinite, x)[0]) for x in (theta, minus, plus))
        what = "diverges" if minus == 0.0 or plus == 0.0 else "overflows"
        raise ValueError(f"Coulomb amplitude {what} at theta = {theta!r}")
    return AmplitudePair(direct, exchange)


def normalize(pair: AmplitudePair) -> NormalizedAmplitudePair:
    """Scale a channel pair to unit norm and fix the global phase.

    Each pair is divided by math.hypot of its channel moduli (np.hypot
    rounds differently in about 0.5% of inputs) and rotated so that f_plus
    comes out real and nonnegative (f_minus instead where the direct channel
    vanishes); the relative phase between the channels is preserved.  A pair
    of numbers gives a pair of Python numbers; a pair of channel arrays over
    an angle grid gives a pair of arrays, each element equal to its one-angle
    result wherever it sits in the grid.  NormalizedAmplitudePair checks the
    result, so a NaN or +-inf anywhere raises ValueError.
    """
    # Contiguous, because numpy's complex abs and divide round differently on strided arrays (a reversed view).
    direct, exchange = np.asarray(pair.direct, order="C"), np.asarray(pair.exchange, order="C")
    moduli = np.abs(direct).ravel().tolist(), np.abs(exchange).ravel().tolist()
    norm = np.fromiter(map(math.hypot, *moduli), float, direct.size).reshape(direct.shape)
    with np.errstate(invalid="ignore"):  # NaN from inf / inf fails the norm check; from 0 / 0, np.where drops it
        f_plus = direct / norm
        f_minus = exchange / norm
        modulus = np.abs(f_plus)
        phase = np.conj(f_plus) / modulus  # +-1 exactly for real channels
        if np.iscomplexobj(f_minus) or np.iscomplexobj(phase):
            # numpy's SIMD complex multiply rounds differently from its scalar loop; real operations round alike.
            a, b, c, d = f_minus.real, f_minus.imag, phase.real, phase.imag
            rotated = np.empty(direct.shape, complex)
            rotated.real, rotated.imag = a * c - b * d, a * d + b * c
        else:
            rotated = f_minus * phase
    f_minus = np.where(modulus == 0.0, np.abs(f_minus), rotated)
    if direct.ndim == 0:
        return NormalizedAmplitudePair(modulus.item(), f_minus.item())
    return NormalizedAmplitudePair(modulus, f_minus)


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
