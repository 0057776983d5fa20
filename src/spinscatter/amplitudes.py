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
# Bound once: the isinstance checks that tell one angle or pair from a grid run on every one-angle call.
from numpy import ndarray

# Shared tolerance for "is this normalized / real" checks on constructed values.
NORM_TOL = 1e-12
# The channel types that normalize of one pair takes as complex; any other number it takes as a float.
_COMPLEX = (complex, np.complexfloating)


def exact_map(fn, *arrays) -> ndarray:
    """fn, a float function from math, mapped over equal-shape arrays in one pass; a float array of their shape.

    Not numpy's cos, hypot or log2 ufuncs, which may round an element unlike math (as one-angle calls use it) and unlike
    another numpy build or CPU: so a grid element equals its one-angle result by construction.  fn reads a real array
    (bool, int or float) from its float64 buffer, a copy where it is not contiguous or float64: element for element the
    float that fn would make of its Python number.  Any other array, complex or object, is turned into Python numbers
    whole, and fn takes or refuses them itself.  No caller in the package passes more than one slice: cli's
    evaluate_grid one slice of a scan, critical_angle its 1024-angle bracket, shannon_bits one weight of such a slice at
    a time.
    """
    floats = (
        memoryview(np.ascontiguousarray(a, float).ravel()) if a.dtype.kind in "biuf" else a.ravel().tolist()
        for a in arrays
    )
    return np.fromiter(map(fn, *floats), float, arrays[0].size).reshape(arrays[0].shape)


def first_failure(ok, values):
    """None if the check ok holds at every element, else the first element of values where it fails, as a float."""
    if isinstance(ok, bool):  # one value's check, numpy-free on success (critical_angle checks every refinement step)
        return None if ok else float(np.ravel(values)[0])  # a number pair answering a grid fails at its first angle
    return None if np.asarray(ok).all() else float(np.extract(np.logical_not(ok), values)[0])


def check_channel_norm(norm) -> None:
    """Raise ValueError unless every channel norm is finite and nonzero; it names the first that is 0.0, inf or nan."""
    if (bad := first_failure((0.0 < norm) & (norm < math.inf), norm)) is not None:
        raise ValueError(f"channel norm hypot(|direct|, |exchange|) must be finite and nonzero, got {bad!r}")


def check_unit_norm(norm_sq, what: str) -> None:
    """Raise ValueError unless norm_sq is within NORM_TOL of 1; NaN and +-inf fail too.

    norm_sq may also be an array over an angle grid; it passes only if every
    element does, and the error names the first element that fails.
    """
    if (bad := first_failure(abs(norm_sq - 1.0) <= NORM_TOL, norm_sq)) is not None:
        raise ValueError(f"{what} must be 1, got {bad!r}")


def unit_weights(coeffs, what: str) -> list:
    """The weights |c|^2 of numbers, or of arrays over a grid; ValueError unless they sum to 1.

    The package's one weight rule: the norm checks of pairs, states and decompositions, the entropy and the Slater rank
    all take their |c|^2 here.  Squared parts, not abs, whose numpy and Python forms can differ in the last bit: so grid
    and one-angle bits agree.  A real c, a float or a real array, is squared as it is: a square is never -0.0, so adding
    the +0.0 of its imaginary part would change no bit.  On a grid, the arrays are of one shape, and a number among them
    holds at every angle.
    """
    weights = [c * c if type(c) is float else _modulus_sq(c) for c in coeffs]
    # Summed from the first weight: 0 + an array would copy it, and 0 + a weight is the weight (a square is never -0.0).
    check_unit_norm(sum(weights[1:], weights[0]), what)
    return weights


def _modulus_sq(c):
    """|c|^2 of an array, element by element, or of a number that is not a float, as a Python float."""
    if isinstance(c, ndarray):
        with np.errstate(over="ignore"):  # a huge component squares to inf, which fails the check
            return c.real * c.real + c.imag * c.imag if c.dtype.kind == "c" else c * c
    c = complex(c)  # Python numbers square to inf without a warning
    return c.real * c.real + c.imag * c.imag


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


@dataclass(slots=True)
class AmplitudePair:
    """Raw (unnormalized) amplitudes of the direct and exchange channels.

    A plain record, slotted, mutable and so unhashable: it holds no
    invariant, and normalize decides whether a pair can be normalized.  On
    an angle grid a channel is an array of its shape, or a number where it
    does not depend on the angle; normalize broadcasts the two.
    """

    direct: complex
    exchange: complex


@dataclass(frozen=True)
class NormalizedAmplitudePair:
    """Unit-norm channel amplitudes with the global phase fixed.

    Convention: f_plus is real and nonnegative (if f_plus vanishes, the
    convention falls to f_minus instead).  Only the relative phase of the
    two components is physical; fixing the global phase this way makes
    equal states compare equal.  For an angle grid the components are
    equal-shape arrays, or a number beside an array, which then holds at
    every angle; every element must pass both checks.

    weights, [|f_plus|^2, |f_minus|^2] as numbers or arrays like the
    components, is computed and checked once here, and read by the entropy
    and rank columns.  It is an attribute, not a field: repr, equality and
    dataclasses.astuple are those of (f_plus, f_minus).
    """

    f_plus: complex
    f_minus: complex

    def __post_init__(self) -> None:
        f_plus, f_minus = self.f_plus, self.f_minus
        # Stored past the frozen __setattr__ as object.__setattr__ would, at about a third of its cost: once per step.
        self.__dict__["weights"] = unit_weights((f_plus, f_minus), "|f_plus|^2 + |f_minus|^2")
        if isinstance(f_plus, ndarray) or isinstance(f_minus, ndarray):  # a number beside an array holds at every angle
            anchor = np.where(f_plus == 0, f_minus, f_plus)
            if anchor.dtype.kind == "c":
                unfixed = ((abs(anchor.imag) > NORM_TOL) | (anchor.real < 0.0)).any()
            else:  # a real array's .imag is zeros
                unfixed = (anchor < 0.0).any()
        else:
            anchor = f_minus if f_plus == 0 else f_plus
            unfixed = abs(anchor.imag) > NORM_TOL or anchor.real < 0.0
        if unfixed:
            raise ValueError("global phase not fixed: leading amplitude must be real and >= 0")


# An interaction model: maps a scattering angle onto the raw channel pair.  Physically consistent providers satisfy the
# exchange relation provider(pi - theta) == (exchange, direct) of provider(theta), i.e. the exchange channel is the
# direct channel at the supplementary angle.  A provider need only take one angle.  One may also have a grid form, its
# `grid` attribute: a callable that takes an angle array and answers it with channel arrays of exactly that array's
# shape, or with numbers where the amplitudes do not depend on the angle; raw_grid refuses any other answer with
# ValueError.  It reads the array and never writes into it: critical_angle's bracket grid is shared by every solve and
# read-only.  The built-in providers are their own grid form; raw_grid uses it.
AmplitudeProvider = Callable[[float], AmplitudePair]


def raw_grid(provider: AmplitudeProvider, thetas: ndarray) -> AmplitudePair:
    """The provider's raw pair over an angle grid, for normalize: the one way to fetch a grid.

    One call of the provider's grid form where it has one; otherwise one call per angle, each with a Python float, and
    each channel stacked into an array.  Through either route a grid element equals its one-angle pair, for the built-in
    providers bit for bit.  Each channel comes out a number, which holds at every angle, or an array of exactly the
    grid's shape; any other array, such as a broadcastable (1,) answer or one-angle pairs that hold arrays, raises
    ValueError naming its shape (or, for one-angle channels that numpy cannot stack, their first two shapes) and the
    grid's size.
    """
    if (grid := getattr(provider, "grid", None)) is not None:
        pair = grid(thetas)
    else:
        pairs = list(map(provider, thetas.tolist()))
        channels = [p.direct for p in pairs], [p.exchange for p in pairs]
        try:
            pair = AmplitudePair(*map(np.array, channels))
        except ValueError:  # numpy cannot stack one-angle channels of different shapes
            for channel in channels:
                if len(shapes := list(dict.fromkeys(map(np.shape, channel)))) > 1:
                    got = f"one-angle channels of shapes {shapes[0]} and {shapes[1]}"
                    raise ValueError(_refusal(thetas, got)) from None
            raise
    for channel in (pair.direct, pair.exchange):
        if isinstance(channel, ndarray) and channel.shape != thetas.shape:
            raise ValueError(_refusal(thetas, f"a channel of shape {channel.shape}"))
    return pair


def _refusal(thetas: ndarray, got: str) -> str:
    return f"a raw pair over {thetas.size} angles must hold numbers or arrays of shape {thetas.shape}, got {got}"


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
    takes the grid's steps on Python floats and gives Python numbers, equal
    bit for bit to its element in any grid of channel arrays, which gives a
    pair of arrays; a number beside an array broadcasts, each element then
    being that number's pair with the array's element.  The one gate for a
    raw pair: check_channel_norm refuses, with ValueError, a pair whose
    channel norm is zero (both channels vanish), inf (a channel is inf, or
    finite channels overflow) or NaN; NormalizedAmplitudePair then checks
    the result.
    """
    direct, exchange = pair.direct, pair.exchange
    if not isinstance(direct, ndarray) and not isinstance(exchange, ndarray):
        if type(direct) is not float:  # float() of a float is the float itself
            direct = complex(direct) if isinstance(direct, _COMPLEX) else float(direct)
        if type(exchange) is not float:
            exchange = complex(exchange) if isinstance(exchange, _COMPLEX) else float(exchange)
        phased = type(direct) is complex or type(exchange) is complex
        lead = math.hypot(direct.real, direct.imag) if type(direct) is complex else abs(direct)
        tail = math.hypot(exchange.real, exchange.imag) if type(exchange) is complex else abs(exchange)
        norm = math.hypot(lead, tail)
        check_channel_norm(norm)
        f_plus = lead / norm
        if f_plus == 0.0:
            f_minus = complex(tail / norm, 0.0) if phased else tail / norm
        elif phased:
            cos, sin, re, im = direct.real / lead, direct.imag / lead, exchange.real, exchange.imag
            f_minus = complex((re * cos + im * sin) / norm, (im * cos - re * sin) / norm)
        else:
            f_minus = exchange * (direct / lead) / norm
        return NormalizedAmplitudePair(f_plus, f_minus)
    if not (isinstance(direct, ndarray) and isinstance(exchange, ndarray) and direct.shape == exchange.shape):
        direct, exchange = np.broadcast_arrays(direct, exchange)  # read-only views: never written to
    modulus = lambda z: exact_map(math.hypot, z.real, z.imag) if z.dtype.kind == "c" else np.abs(z)
    lead, tail = modulus(direct), modulus(exchange)
    norm = exact_map(math.hypot, lead, tail)
    check_channel_norm(norm)
    with np.errstate(invalid="ignore", over="ignore"):  # np.where drops 0 / 0 at a zero lead; inf fails unit_weights
        f_plus = lead / norm
        vanishes = f_plus == 0.0
        if direct.dtype.kind == "c" or exchange.dtype.kind == "c":
            cos, sin, re, im = direct.real / lead, direct.imag / lead, exchange.real, exchange.imag
            f_minus = np.empty(direct.shape, complex)
            f_minus.real = np.where(vanishes, tail, re * cos + im * sin) / norm
            f_minus.imag = np.where(vanishes, 0.0, im * cos - re * sin) / norm
        else:
            f_minus = np.where(vanishes, tail, exchange * (direct / lead)) / norm  # direct / lead is cos, +-1
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
    """Amplitude provider for the lowest-order Coulomb interaction; its own grid form, giving arrays for an array."""

    def provider(theta) -> AmplitudePair:
        return coulomb_amplitudes(theta, kin)

    provider.grid = provider
    return provider


def constant_provider(f_plus: float) -> AmplitudeProvider:
    """Angle-independent diagnostic provider with f_minus = sqrt(1 - f_plus^2).

    Useful for exercising consumers on a fixed amplitude pair (e.g. one
    whose Bell combination never crosses the classical border).  Being
    angle-independent it deliberately breaks the exchange relation that
    physical providers obey, except at the symmetric point.  It is its own
    grid form: an angle array is checked like one angle and answered with
    the same pair of numbers.
    """
    if not 0.0 <= f_plus <= 1.0:
        raise ValueError(f"f_plus must lie in [0, 1], got {f_plus!r}")
    f_minus = math.sqrt(1.0 - f_plus * f_plus)

    def provider(theta) -> AmplitudePair:
        validate_angle(theta)
        return AmplitudePair(f_plus, f_minus)

    provider.grid = provider
    return provider
