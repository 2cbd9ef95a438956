"""Exact signed binary fractions m/2^u in canonical form.

Values are triples (sign, mantissa, exponent) denoting sign * m * 2^(-u).
Canonical form makes equality structural: the mantissa is odd unless the
exponent is already 0, and zero is the unique (0, 0, 0).  All arithmetic
is exact big-integer work on a common grid; nothing here rounds except the
directed divisions div_floor and div_ceil, which round to a stated grid.

POW_BIT_LIMIT bounds what that work may allocate.  dy_pow refuses a power
whose mantissa would pass it, and add, sub, exact_div, div_floor, div_ceil
and between refuse to shift a nonzero mantissa by more than it, which alone
would make a number of more than POW_BIT_LIMIT bits; both end in SizeLimit
before anything is built.  compare and so dy_max and dy_min shift nothing
that large: operands whose exponents lie further apart are ordered without
a common grid.
"""

from __future__ import annotations

from .errors import (
    BadOrder,
    ExprSyntaxError,
    NonPositiveDivisor,
    NotAnInteger,
    SizeLimit,
)
from .naturals import _nat, _read_decimal, _write_decimal

_SIGNS = (-1, 0, 1)
# Bit cap on the mantissa of a power and on the shift of a nonzero mantissa
# (see the module docstring).  3^(2^20), of ~1.7M bits, takes ~0.1 s with
# CPython 3.11 on one x86 core; the default 4300-digit print limit is ~14,300
# bits.
POW_BIT_LIMIT = 1 << 20


def _too_wide(what: str) -> SizeLimit:
    return SizeLimit(f"{what} needs more than {POW_BIT_LIMIT} mantissa bits")


class Dyadic:
    __slots__ = ("_sign", "_man", "_exp")

    def __init__(self, sign: int, man: int, exp: int):
        # Private: use make() so canonical form is guaranteed.
        self._sign = sign
        self._man = man
        self._exp = exp

    @property
    def sign(self):
        return self._sign

    @property
    def man(self):
        return self._man

    @property
    def exp(self):
        return self._exp

    def __eq__(self, other):
        if not isinstance(other, Dyadic):
            return NotImplemented
        return (
            self._sign == other._sign
            and self._man == other._man
            and self._exp == other._exp
        )

    def __hash__(self):
        return hash((self._sign, self._man, self._exp))

    def __lt__(self, other):
        return compare(self, other) < 0

    def __le__(self, other):
        return compare(self, other) <= 0

    def __gt__(self, other):
        return compare(self, other) > 0

    def __ge__(self, other):
        return compare(self, other) >= 0

    def __add__(self, other):
        return add(self, other)

    def __sub__(self, other):
        return sub(self, other)

    def __mul__(self, other):
        return mul(self, other)

    def __neg__(self):
        return neg(self)

    def __bool__(self):
        return self._sign != 0

    def __str__(self):
        body = ("-" if self._sign < 0 else "") + _write_decimal(self._man)
        return f"{body}/2^{_write_decimal(self._exp)}" if self._exp else body

    def __repr__(self):
        return f"Dyadic({self})"


def make(man: int, exp: int, sign: int = 1) -> Dyadic:
    """Canonical representative of sign * man * 2^(-exp)."""
    # One type test each on the common path; _nat raises, or passes an int
    # subclass, when it fails.
    if type(man) is not int or man < 0:
        _nat(man, "mantissa")
    if type(exp) is not int or exp < 0:
        _nat(exp, "exponent")
    if sign not in _SIGNS:
        raise ValueError(f"sign must be -1, 0, or 1, got {sign!r}")
    if man == 0 or sign == 0:
        return ZERO
    # Strip trailing zero bits in one shift, stopping at exponent 0.
    shift = (man & -man).bit_length() - 1
    if shift > exp:
        shift = exp
    return Dyadic(sign, man >> shift, exp - shift)


def _signed(num: int, exp: int) -> Dyadic:
    if num >= 0:
        return make(num, exp)
    return make(-num, exp, -1)


def _num(d: Dyadic) -> int:
    return d._sign * d._man


ZERO = Dyadic(0, 0, 0)
ONE = Dyadic(1, 1, 0)
HALF = Dyadic(1, 1, 1)


def _aligned(d: Dyadic, e: Dyadic):
    """Numerators of d and e on their common grid 2^(-max(u, v)), and that
    exponent: only the operand with the coarser grid is shifted, and not by
    more than POW_BIT_LIMIT bits unless it is zero."""
    shift = d._exp - e._exp
    if shift >= 0:
        if shift > POW_BIT_LIMIT and e._sign:
            raise _too_wide("sum")
        return d._sign * d._man, e._sign * e._man << shift, d._exp
    if shift < -POW_BIT_LIMIT and d._sign:
        raise _too_wide("sum")
    return d._sign * d._man << -shift, e._sign * e._man, e._exp


def compare(d: Dyadic, e: Dyadic) -> int:
    """-1, 0, or 1 as d is below, equal to, or above e.

    Comparing numerators on the common grid 2^(-max(u, v)) decides without
    any rounding.  When _aligned refuses that grid, the exponents lie more
    than POW_BIT_LIMIT apart and neither operand is zero, whose exponent is
    0.  Then the signs decide, or else the binary magnitudes: the mantissa
    on the finer grid is odd, so shifted down to the coarser grid it is no
    whole number, and its floor orders it against the other mantissa.
    """
    try:
        left, right, _ = _aligned(d, e)
    except SizeLimit:
        if d._sign != e._sign:
            return d._sign
        if d._exp > e._exp:
            above = d._man >> (d._exp - e._exp) >= e._man
        else:
            above = d._man > e._man >> (e._exp - d._exp)
        return d._sign if above else -d._sign
    return (left > right) - (left < right)


def add(d: Dyadic, e: Dyadic) -> Dyadic:
    left, right, exp = _aligned(d, e)
    return _signed(left + right, exp)


def neg(d: Dyadic) -> Dyadic:
    if d._sign == 0:
        return d
    return Dyadic(-d._sign, d._man, d._exp)


def sub(d: Dyadic, e: Dyadic) -> Dyadic:
    return add(d, neg(e))


def mul(d: Dyadic, e: Dyadic) -> Dyadic:
    return _signed(_num(d) * _num(e), d._exp + e._exp)


def dy_pow(d: Dyadic, m: int) -> Dyadic:
    """d raised to a natural power, exactly.

    Refused with SizeLimit, before anything is allocated, when the mantissa
    would need more than POW_BIT_LIMIT bits: (bits(man) - 1) * m is a lower
    bound on its size, and it is 0 for a mantissa of 1, so (1/2)^m and
    (-1)^m answer for every m.
    """
    _nat(m, "exponent")
    if m == 0:
        return ONE
    sign = 1 if (d._sign >= 0 or m % 2 == 0) else -1
    if d._sign == 0:
        return ZERO
    if (d._man.bit_length() - 1) * m > POW_BIT_LIMIT:
        raise _too_wide("power")
    return make(d._man**m, d._exp * m, sign)


def dy_abs(d: Dyadic) -> Dyadic:
    return d if d._sign >= 0 else neg(d)


def dy_max(d: Dyadic, e: Dyadic) -> Dyadic:
    return e if compare(d, e) < 0 else d


def dy_min(d: Dyadic, e: Dyadic) -> Dyadic:
    return e if compare(d, e) > 0 else d


def between(d: Dyadic, e: Dyadic) -> Dyadic:
    """Deterministic strict witness of density.

    Both endpoints are placed on the grid 2^(-(u+v+1)), where their
    numerators come out even and at least 2 apart; the smallest admissible
    numerator is then one past d's, which is odd, so the result is already
    canonical on that grid.
    """
    if compare(d, e) >= 0:
        raise BadOrder(f"between needs d < e, got {d} >= {e}")
    shift = e._exp + 1
    if shift > POW_BIT_LIMIT and d._sign:
        raise _too_wide("between")
    return _signed((_num(d) << shift) + 1, d._exp + shift)


def _directed(a: Dyadic, b: Dyadic, p: int):
    # Numerator and denominator of a/b * 2^p, after checking b and p.
    if b._sign <= 0:
        raise NonPositiveDivisor(f"directed division needs b > 0, got {b}")
    _nat(p, "precision")
    # b's mantissa is nonzero, and a's exponent is 0 when a is zero.
    if a._exp > POW_BIT_LIMIT or b._exp + p > POW_BIT_LIMIT and a._sign:
        raise _too_wide("quotient")
    return _num(a) << (b._exp + p), b._man << a._exp


def div_floor(a: Dyadic, b: Dyadic, p: int) -> Dyadic:
    """Largest multiple of 2^(-p) that is <= a/b.  Requires b > 0."""
    num, den = _directed(a, b, p)
    return _signed(num // den, p)


def div_ceil(a: Dyadic, b: Dyadic, p: int) -> Dyadic:
    """Smallest multiple of 2^(-p) that is >= a/b.  Requires b > 0."""
    num, den = _directed(a, b, p)
    return _signed(-(-num // den), p)


def exact_div(d: Dyadic, e: Dyadic):
    """d/e when the quotient is itself a binary fraction, else None.

    That happens exactly when e's mantissa is a power of two (after
    canonicalization the only interesting case is exponent 0 with an even
    mantissa, e.g. 2 or 8).
    """
    if e._sign == 0:
        return None
    if e._man & (e._man - 1):
        return None
    j = e._man.bit_length() - 1
    if e._exp > POW_BIT_LIMIT and d._sign:
        raise _too_wide("quotient")
    # 1/e = sign_e * 2^(exp_e - j), folded into d on the common grid
    scaled = e._sign * (_num(d) << e._exp)
    return _signed(scaled, d._exp + j)


def from_int(k: int) -> Dyadic:
    if isinstance(k, bool) or not isinstance(k, int):
        raise NotAnInteger(f"expected an integer, got {k!r}")
    return _signed(k, 0)


def from_float(x: float) -> Dyadic:
    """Exact conversion; every finite binary float is a dyadic."""
    p, q = float(x).as_integer_ratio()
    return _signed(p, q.bit_length() - 1)


def parse_dyadic(text: str) -> Dyadic:
    """Parse an exact literal: integer, m/2^u, or a binary-fraction decimal.

    Decimals with no finite binary expansion (0.1, 2.3, ...) are rejected
    rather than rounded.
    """
    s = text.strip()
    body = s
    sign = 1
    if body.startswith(("+", "-")):
        sign = -1 if body[0] == "-" else 1
        body = body[1:]
    n = _read_decimal(body)
    if n is not None:
        return make(n, 0, sign)
    if "/2^" in body:
        m_part, u_part = body.split("/2^", 1)
        # A malformed m is reported before u is read.
        m = _read_decimal(m_part)
        u = None if m is None else _read_decimal(u_part)
        if u is None:
            raise ExprSyntaxError(f"malformed dyadic literal {text!r}", 0)
        return make(m, u, sign)
    if "." in body:
        int_part, _, frac_part = body.partition(".")
        n = _read_decimal(int_part + frac_part) if int_part and frac_part else None
        if n is not None:
            k = len(frac_part)
            if n % 5**k:
                raise ExprSyntaxError(
                    f"{text!r} has no finite binary expansion", 0
                )
            return make(n // 5**k, k, sign)
    raise ExprSyntaxError(f"not a dyadic literal: {text!r}", 0)


def format_decimal(d: Dyadic) -> str:
    """Exact decimal rendering (always terminates for binary fractions)."""
    scaled = d._man * 5**d._exp
    whole, frac = divmod(scaled, 10**d._exp)
    out = _write_decimal(whole)
    if frac:
        out += "." + _write_decimal(frac).zfill(d._exp).rstrip("0")
    return "-" + out if d._sign < 0 else out
