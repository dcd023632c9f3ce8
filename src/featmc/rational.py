"""Exact rational arithmetic backend.

All probabilities, rewards and polynomial coefficients are arbitrary
precision rationals.  gmpy2's mpq is used when available (it is roughly an
order of magnitude faster than fractions.Fraction); the stdlib Fraction is a
drop-in fallback.  Engines that opt into float mode convert at the boundary.
"""

from __future__ import annotations

from decimal import Decimal

try:
    from gmpy2 import mpq as _mpq

    _BACKEND = "gmpy2"

    def rational(value, denom=None):
        if denom is not None:
            return _mpq(value, denom)
        if isinstance(value, float):
            # floats are rejected on purpose: 0.1 as a float is not 1/10
            raise TypeError("pass floats as strings to keep them exact")
        return _mpq(value)

except ImportError:  # pragma: no cover - exercised only without gmpy2
    from fractions import Fraction as _Fraction

    _BACKEND = "fractions"

    def rational(value, denom=None):
        if denom is not None:
            return _Fraction(value, denom)
        if isinstance(value, float):
            raise TypeError("pass floats as strings to keep them exact")
        if isinstance(value, str):
            value = value.strip()
            if "/" in value:
                num, den = value.split("/")
                return _Fraction(int(num), int(den))
            if "." in value or "e" in value or "E" in value:
                from decimal import Decimal

                return _Fraction(Decimal(value))
            return _Fraction(int(value))
        return _Fraction(value)


ZERO = rational(0)
ONE = rational(1)

#: Sentinel for diverging expected rewards (target missed with positive
#: probability).  Compares greater than every rational.
INFINITY = float("inf")


def int_str(n) -> str:
    """The decimal digits of an int or mpz of any size: ``str`` of an int
    refuses more than 4300 digits, ``Decimal`` has no such limit."""
    return str(Decimal(int(n)))


def rat_str(value) -> str:
    """Canonical text form: integers bare, otherwise ``num/den``, in full
    at any size; floats (and the INFINITY sentinel, ``inf``) as ``str``."""
    if isinstance(value, float):
        return "inf" if value == INFINITY else str(value)
    num = int_str(value.numerator)
    return num if value.denominator == 1 else f"{num}/{int_str(value.denominator)}"


def as_float(value) -> float:
    if value == INFINITY:
        return INFINITY
    return float(value)
