"""A 60-digit decimal reference for the Coulomb columns, sharing no code with spinscatter.

At the exact binary value of a float angle theta, with c = cos theta:

    f_pm = (1 +- c) / sqrt(2 (1 + c^2))
    S    = -(w_+ log2 w_+ + w_- log2 w_-),  w_pm = f_pm^2
    F    = 5/4 + (3/2) sign f_+ f_-,        sign -1 for fermions, +1 for bosons

cos is a Taylor series, the logarithm Decimal.ln and the root Decimal.sqrt, and pi Machin's formula, all at DIGITS
significant digits; so a value here is exact far beyond any float's last bit, and a printed digit can be judged against
it.  The constant:<f_plus> interaction takes the same columns from f_+ = f_plus, f_- = sqrt(1 - f_plus^2).
"""

import math
from decimal import ROUND_FLOOR, ROUND_HALF_EVEN, Decimal, localcontext

DIGITS = 60
SIGN = {"fermion": -1, "boson": 1}


def cos(x: Decimal) -> Decimal:
    """cos x as the Taylor series sum of (-x^2)^n / (2n)!, summed until a term no longer moves the total."""
    total = term = Decimal(1)
    n = 0
    while True:
        n += 2
        term = -term * x * x / (n * (n - 1))
        if total + term == total:
            return total
        total += term


def arctan_inverse(x: int) -> Decimal:
    """arctan(1/x) as the sum of (-1)^n / ((2n + 1) x^(2n + 1)), summed until a term no longer moves the total."""
    total = power = Decimal(1) / x
    n = 1
    while True:
        power /= -x * x
        term = power / (2 * n + 1)
        if total + term == total:
            return total
        total += term
        n += 1


def pi() -> Decimal:
    """pi by Machin's formula, pi / 4 = 4 arctan(1/5) - arctan(1/239)."""
    with localcontext() as ctx:
        ctx.prec = DIGITS
        return 4 * (4 * arctan_inverse(5) - arctan_inverse(239))


def columns(f_plus: Decimal, f_minus: Decimal, statistics: str) -> dict:
    """f_plus, f_minus, entropy and F of a real unit pair with both components nonzero, as Decimals."""
    entropy = -sum(w * w.ln() for w in (f_plus * f_plus, f_minus * f_minus)) / Decimal(2).ln()
    F = Decimal("1.25") + Decimal("1.5") * SIGN[statistics] * f_plus * f_minus
    return {"f_plus": f_plus, "f_minus": f_minus, "entropy": entropy, "F": F}


def coulomb(theta: float, statistics: str) -> dict:
    """f_plus, f_minus, entropy and F of the normalized Coulomb pair at the float angle theta, as Decimals."""
    with localcontext() as ctx:
        ctx.prec = DIGITS
        c = cos(Decimal(theta))
        scale = (2 * (1 + c * c)).sqrt()
        return columns((1 + c) / scale, (1 - c) / scale, statistics)


def constant(f_plus: float, statistics: str) -> dict:
    """The columns of constant:<f_plus>, the same at every angle, as Decimals."""
    with localcontext() as ctx:
        ctx.prec = DIGITS
        f_plus = Decimal(f_plus)
        return columns(f_plus, (1 - f_plus * f_plus).sqrt(), statistics)


def correctly_rounded(printed: str, exact: Decimal) -> bool:
    """Whether the decimal text printed is exact rounded to its number of decimals.

    Where exact lies within 1e-3 of a last-digit unit from the midpoint between two neighbours, either neighbour
    counts: a float within a few ulp of the true value may fall on either side of such a midpoint.
    """
    with localcontext() as ctx:
        ctx.prec = DIGITS
        value = Decimal(printed)
        unit = Decimal(1).scaleb(value.as_tuple().exponent)
        below = exact.quantize(unit, rounding=ROUND_FLOOR)
        if abs(exact - (below + unit / 2)) < unit / 1000:
            return value in (below, below + unit)
        return value == exact.quantize(unit, rounding=ROUND_HALF_EVEN)


def ulps(x: float, exact: Decimal) -> Decimal:
    """Distance of the float x from exact, in units of the float spacing at x."""
    with localcontext() as ctx:
        ctx.prec = DIGITS
        return abs(Decimal(x) - exact) / Decimal(math.ulp(x))
