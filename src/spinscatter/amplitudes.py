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
# Bound once: the isinstance checks that tell one angle from a grid run on every one-angle provider call.
from numpy import ndarray

# Shared tolerance for "is this normalized / real" checks on constructed values.
NORM_TOL = 1e-12
# Grid elements turned into Python values at a time by exact_map, and angles per slice of cli's evaluate_grid.  Traced
# scan peaks (20k / 100k CSV rows, 10k JSON rows) at 1024: 1.2 / 5.1 / 0.9 MB, at 4096: 1.7 / 5.6 / 1.2 MB, at
# 16384: 3.1 / 7.7 / 2.1 MB; the columns alone are 1.0 / 4.9 / 0.5 MB.  Evaluating 20k Coulomb angles takes 13.6 ms in
# 1024-angle slices, 10.9 ms in 4096-angle ones and 10.8 ms in one pass (process CPU, median of 21).
BLOCK_ROWS = 4096


def exact_map(fn, *arrays) -> ndarray:
    """fn, a float function from math, mapped over equal-shape arrays BLOCK_ROWS elements at a time; a float array.

    Not numpy's cos, hypot or log2 ufuncs, which may round an element unlike math (as one-angle calls use it) and unlike
    another numpy build or CPU: so a grid element equals its one-angle result by construction.
    """
    flat = [a.ravel() for a in arrays]
    out = np.empty(flat[0].size)
    for i in range(0, out.size, BLOCK_ROWS):
        out[i : i + BLOCK_ROWS] = np.fromiter(map(fn, *(a[i : i + BLOCK_ROWS].tolist() for a in flat)), float)
    return out.reshape(arrays[0].shape)


def first_failure(ok, values):
    """None if the check ok holds at every element, else the first element of values where it fails, as a float."""
    return None if np.asarray(ok).all() else float(np.extract(np.logical_not(ok), values)[0])


def check_unit_norm(norm_sq, what: str) -> None:
    """Raise ValueError unless norm_sq is within NORM_TOL of 1; NaN and +-inf fail too.

    norm_sq may also be an array over an angle grid; it passes only if every
    element does, and the error names the first element that fails.
    """
    if (bad := first_failure(abs(norm_sq - 1.0) <= NORM_TOL, norm_sq)) is not None:
        raise ValueError(f"{what} must be 1, got {bad!r}")


def unit_weights(coeffs, what: str) -> list:
    """The weights |c|^2 of numbers, or of equal-shape arrays over a grid; ValueError unless they sum to 1.

    The package's one weight rule: the norm checks of pairs, states and decompositions, the entropy and the Slater rank
    all take their |c|^2 here.  Squared parts, not abs, whose numpy and Python forms can differ in the last bit: so grid
    and one-angle bits agree.
    """
    with np.errstate(over="ignore"):  # a huge component squares to inf, which fails the check
        weights = [c.real * c.real + c.imag * c.imag for c in coeffs]
    check_unit_norm(sum(weights), what)
    return weights


def validate_angle(theta):
    """Check that a scattering angle lies strictly inside (0, pi).

    The exact forward and backward directions are excluded: there the two
    emission directions coincide and the channel decomposition becomes
    meaningless (for Coulomb the amplitudes diverge as well).  theta may
    also be an array (an angle grid), which passes only if every element
    does; NaN never does.
    """
    if isinstance(theta, ndarray):
        if (outside := first_failure((0.0 < theta) & (theta < math.pi), theta)) is None:
            return theta
        theta = outside
    else:
        theta = float(theta)
        if 0.0 < theta < math.pi:
            return theta
    raise ValueError(f"scattering angle must lie strictly in (0, pi), got {theta!r}")


@dataclass(frozen=True)
class Kinematics:
    """Center-of-mass kinematics of the colliding pair.

    Parameters
    ----------
    m : particle mass (m >= 0, finite).
    E : per-particle energy (finite); must exceed the mass so that the
        momentum transfer invariants are negative.  The scale 2 (m^2 - E^2)
        must neither underflow to 0 (m=0.0, E=1e-170) nor overflow
        (m=1.0, E=1e200).
    charge_factor : overall coupling prefactor of the Coulomb amplitude
        (positive, finite).  It cancels from every normalized quantity, so
        its value only matters if the raw amplitudes are of interest.
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
        if not 0.0 < self.charge_factor < math.inf:
            raise ValueError(f"charge_factor must be positive and finite, got {self.charge_factor!r}")

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
        self.weights  # computed and checked here, read by the entropy and rank columns
        anchor = np.where(self.f_plus == 0, self.f_minus, self.f_plus)
        if ((abs(anchor.imag) > NORM_TOL) | (anchor.real < 0.0)).any():
            raise ValueError("global phase not fixed: leading amplitude must be real and >= 0")

    @cached_property
    def weights(self) -> list:
        """[|f_plus|^2, |f_minus|^2], numbers or arrays like the components; unit_weights checks their sum."""
        return unit_weights((self.f_plus, self.f_minus), "|f_plus|^2 + |f_minus|^2")


# An interaction model: maps a scattering angle onto the raw channel pair.
# Physically consistent providers satisfy the exchange relation
# provider(pi - theta) == (exchange, direct) of provider(theta), i.e. the
# exchange channel is the direct channel at the supplementary angle.
# The built-in providers also take an angle array; a user provider need
# only take one angle, which is all critical_angle passes.
AmplitudeProvider = Callable[[float], AmplitudePair]


def coulomb_amplitudes(theta, kin: Kinematics) -> AmplitudePair:
    """Lowest-order Coulomb channel amplitudes (N/t, N/u).

    Both components are real and negative; the coupling prefactor N is
    ``kin.charge_factor``.  An angle array gives a pair of arrays.  Where
    1 - cos theta or 1 + cos theta rounds to 0, within about 1e-8 of the
    beam axis, the amplitude diverges; where N/t or N/u exceeds the float
    range otherwise (a tiny energy scale, e.g. Kinematics(m=0.0, E=1e-155)),
    it overflows.  Either way: ValueError naming the first such angle, which
    the command line reports with exit status 2.
    """
    theta = validate_angle(theta)
    cos_theta = exact_map(math.cos, theta) if isinstance(theta, ndarray) else math.cos(theta)
    minus, plus = 1.0 - cos_theta, 1.0 + cos_theta
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

    Each pair is turned so that f_plus comes out real and nonnegative
    (f_minus instead where f_plus vanishes), then divided by math.hypot of
    its channel moduli; the relative phase is preserved.  Only real
    operations on the parts, no numpy complex arithmetic.  A pair of numbers
    gives a pair of Python numbers; a pair of channel arrays over an angle
    grid gives a pair of arrays, each element equal to its one-angle result
    wherever it sits in the grid.  NormalizedAmplitudePair checks the
    result, so a NaN or +-inf anywhere raises ValueError.
    """
    # [()] gives one angle's channels as numpy scalars, whose arithmetic costs a fraction of 0-d arrays'.
    direct, exchange = np.asarray(pair.direct)[()], np.asarray(pair.exchange)[()]
    modulus = lambda z: exact_map(math.hypot, z.real, z.imag) if z.dtype.kind == "c" else np.abs(z)
    lead, tail = modulus(direct), modulus(exchange)
    norm = exact_map(math.hypot, lead, tail)
    with np.errstate(invalid="ignore"):  # NaN from inf / inf fails the norm check; from 0 / 0, np.where drops it
        f_plus = lead / norm
        vanishes = f_plus == 0.0
        if direct.dtype.kind == "c" or exchange.dtype.kind == "c":
            cos, sin, re, im = direct.real / lead, direct.imag / lead, exchange.real, exchange.imag
            f_minus = np.empty(direct.shape, complex)
            f_minus.real = np.where(vanishes, tail, re * cos + im * sin) / norm
            f_minus.imag = np.where(vanishes, 0.0, im * cos - re * sin) / norm
        else:
            f_minus = np.where(vanishes, tail, exchange * (direct / lead)) / norm  # direct / lead is cos, +-1
    if direct.ndim == 0:
        return NormalizedAmplitudePair(f_plus.item(), f_minus.item())
    return NormalizedAmplitudePair(f_plus, f_minus)


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
