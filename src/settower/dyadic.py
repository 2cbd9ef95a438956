"""Exact signed binary fractions m/2^u in canonical form.

A value is a signed numerator n and an exponent u, denoting n * 2^(-u).
Canonical form makes equality structural: the numerator is odd unless the
exponent is already 0, and zero is the unique (0, 0).  All arithmetic is
exact big-integer work on a common grid; nothing here rounds except the
directed divisions div_floor and div_ceil, which round to a stated grid.
Every power of two is a shift: the quotients div_floor, div_ceil and
exact_div shift the dividend's numerator onto the result's grid and divide
it only by the divisor's numerator, exact_div by that numerator's odd part,
so exact_div answers every quotient that is itself a binary fraction.
div_floor and div_ceil by a divisor of numerator 1, such as the ONE by
which reals rounds onto a query grid, do not divide at all.

POW_BIT_LIMIT bounds what that work may allocate.  mul refuses a product
and dy_pow a power whose mantissa would pass it, by one measure, so d * d
is refused exactly when d^2 is; and every left shift of a nonzero numerator
by more than it goes through _shl, which refuses it; all end in SizeLimit
before that number is built.  So add, sub, exact_div, div_floor, div_ceil
and between refuse operands whose exponents lie too far apart, and
format_decimal refuses an exponent past it.  add, sub, exact_div and
between also refuse a result whose mantissa passes the limit by mul's
measure, so a sum, a quotient or a witness is refused exactly when it times
1 would be.  Such a result is built before it is measured, but it holds at
most one bit more than an operand shifted by at most POW_BIT_LIMIT, or, for
a quotient, no more bits than the dividend's numerator shifted by at most
POW_BIT_LIMIT.  compare, and so dy_max and dy_min, shift only
down and answer at any distance, as do div_floor and div_ceil when the
result's grid is the coarser one.
"""

from __future__ import annotations

from .errors import (
    BadOrder,
    ExprSyntaxError,
    NonPositiveDivisor,
    NotAnInteger,
    SizeLimit,
)
from .naturals import (
    _check_printable,
    _nat,
    _read_decimal,
    _write_decimal,
    square_and_multiply,
)

_SIGNS = (-1, 0, 1)
# Bit cap on the mantissa of a product or power and on the shift of a nonzero
# mantissa (see the module docstring).  3^(2^19), of ~0.8M bits, takes
# ~0.05 s with CPython 3.11 on one x86 core; 3^(2^20) is refused, as its last
# step 3^(2^19) * 3^(2^19) is.  The default 4300-digit print limit is
# ~14,300 bits.
POW_BIT_LIMIT = 1 << 20


def _too_wide(what: str) -> SizeLimit:
    return SizeLimit(f"{what} needs more than {POW_BIT_LIMIT} mantissa bits")


class Dyadic:
    __slots__ = ("_num", "_exp")

    def __init__(self, num: int, exp: int):
        # Private: use make() so canonical form is guaranteed.
        self._num = num
        self._exp = exp

    @property
    def sign(self):
        num = self._num
        return 1 if num > 0 else -1 if num else 0

    @property
    def man(self):
        return abs(self._num)

    @property
    def exp(self):
        return self._exp

    def __eq__(self, other):
        if not isinstance(other, Dyadic):
            return NotImplemented
        return self._num == other._num and self._exp == other._exp

    def __hash__(self):
        return hash((self._num, self._exp))

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
        return self._num != 0

    def __str__(self):
        body = _write_decimal(self._num)
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
    man >>= shift
    return Dyadic(man if sign > 0 else -man, exp - shift)


def _signed(num: int, exp: int) -> Dyadic:
    if num >= 0:
        return make(num, exp)
    return make(-num, exp, -1)


ZERO = Dyadic(0, 0)
ONE = Dyadic(1, 0)
HALF = Dyadic(1, 1)


def _shl(num: int, k: int, what: str) -> int:
    """num << k, refused before it is built when num is nonzero and k
    passes POW_BIT_LIMIT."""
    if k > POW_BIT_LIMIT and num:
        raise _too_wide(what)
    return num << k


def compare(d: Dyadic, e: Dyadic) -> int:
    """-1, 0, or 1 as d is below, equal to, or above e.

    On one grid the numerators decide.  Otherwise the numerator on the finer
    grid is odd, so shifted down to the coarser grid it is no whole number,
    and its floor orders it against the other numerator; nothing is built
    larger than the operands, whatever the distance of the exponents.
    """
    shift = d._exp - e._exp
    if shift > 0:
        return 1 if d._num >> shift >= e._num else -1
    if shift < 0:
        return 1 if d._num > e._num >> -shift else -1
    return (d._num > e._num) - (d._num < e._num)


def add(d: Dyadic, e: Dyadic) -> Dyadic:
    """d + e, refused with SizeLimit when the canonical result's mantissa
    measures bits - 1 > POW_BIT_LIMIT, mul's measure, so x + 0 is refused
    exactly when x * 1 is."""
    # On the common grid 2^(-max(u, v)): only the coarser operand shifts.
    shift = d._exp - e._exp
    if shift >= 0:
        total = _signed(d._num + _shl(e._num, shift, "sum"), d._exp)
    else:
        total = _signed(_shl(d._num, -shift, "sum") + e._num, e._exp)
    if total._num.bit_length() - 1 > POW_BIT_LIMIT:
        raise _too_wide("sum")
    return total


def neg(d: Dyadic) -> Dyadic:
    if not d._num:
        return d
    return Dyadic(-d._num, d._exp)


def sub(d: Dyadic, e: Dyadic) -> Dyadic:
    return add(d, neg(e))


def mul(d: Dyadic, e: Dyadic) -> Dyadic:
    """d * e, refused with SizeLimit before it is built when
    (bits(d) - 1) + (bits(e) - 1), dy_pow's measure, passes POW_BIT_LIMIT."""
    if d._num.bit_length() + e._num.bit_length() - 2 > POW_BIT_LIMIT:
        raise _too_wide("product")
    return _signed(d._num * e._num, d._exp + e._exp)


def dy_pow(d: Dyadic, m: int) -> Dyadic:
    """d raised to a natural power, exactly.

    Refused with SizeLimit exactly when squaring and multiplying it out
    with mul is.  (bits(man) - 1) * m, a lower bound on the last step's
    measure, refuses the largest powers before anything is allocated, and
    bits(man) * m - 2, an upper bound on every step's, lets the smaller ones
    skip the steps.  A mantissa of 0 or 1 never grows, so 0^m, (1/2)^m and
    (-1)^m answer for every m.
    """
    _nat(m, "exponent")
    if m == 0:
        return ONE
    bits = d._num.bit_length()
    if (bits - 1) * m > POW_BIT_LIMIT:
        raise _too_wide("power")
    if bits <= 1 or bits * m - 2 <= POW_BIT_LIMIT:
        # No step of squaring and multiplying d out could be refused.
        return _signed(d._num**m, d._exp * m)
    try:
        return square_and_multiply(d, m, mul)
    except SizeLimit:
        raise _too_wide("power") from None


def dy_abs(d: Dyadic) -> Dyadic:
    return d if d._num >= 0 else neg(d)


def dy_max(d: Dyadic, e: Dyadic) -> Dyadic:
    return e if compare(d, e) < 0 else d


def dy_min(d: Dyadic, e: Dyadic) -> Dyadic:
    return e if compare(d, e) > 0 else d


def between(d: Dyadic, e: Dyadic) -> Dyadic:
    """Deterministic strict witness of density.

    Both endpoints are placed on the grid 2^(-(u+v+1)), where their
    numerators come out even and at least 2 apart; the smallest admissible
    numerator is then one past d's, which is odd, so the result is already
    canonical on that grid.  A witness whose mantissa passes POW_BIT_LIMIT
    by add's measure is refused with SizeLimit.
    """
    if compare(d, e) >= 0:
        raise BadOrder(f"between needs d < e, got {d} >= {e}")
    shift = e._exp + 1
    witness = _signed(_shl(d._num, shift, "between") + 1, d._exp + shift)
    if witness._num.bit_length() - 1 > POW_BIT_LIMIT:
        raise _too_wide("between")
    return witness


def _floor_quotient(num: int, exp: int, b: Dyadic, p: int) -> int:
    # floor(num * 2^(-exp) / b * 2^p): num shifted onto the grid 2^(-p)
    # times b's, where a right shift floors, then one floor division by b's
    # numerator, skipped when it is 1; floor(floor(x) / n) = floor(x / n)
    # for n > 0.
    if b._num <= 0:
        raise NonPositiveDivisor(f"directed division needs b > 0, got {b}")
    if type(p) is not int or p < 0:
        _nat(p, "precision")
    k = b._exp + p - exp
    q = _shl(num, k, "quotient") if k >= 0 else num >> -k
    return q if b._num == 1 else q // b._num


def div_floor(a: Dyadic, b: Dyadic, p: int) -> Dyadic:
    """Largest multiple of 2^(-p) that is <= a/b.  Requires b > 0."""
    return _signed(_floor_quotient(a._num, a._exp, b, p), p)


def div_ceil(a: Dyadic, b: Dyadic, p: int) -> Dyadic:
    """Smallest multiple of 2^(-p) that is >= a/b.  Requires b > 0."""
    return _signed(-_floor_quotient(-a._num, a._exp, b, p), p)


def exact_div(d: Dyadic, e: Dyadic):
    """d/e when the quotient is itself a binary fraction, else None.

    With e's numerator written as odd * 2^twos, d/e is the binary fraction
    (d's numerator / odd) * 2^(e.exp) * 2^(-(d.exp + twos)) exactly when odd
    divides d's numerator; so 6/3 is 2 and 1/3 is None.  A quotient whose
    mantissa passes POW_BIT_LIMIT by add's measure is refused with SizeLimit.
    """
    if not e._num:
        return None
    twos = (e._num & -e._num).bit_length() - 1
    q, r = divmod(d._num, e._num >> twos)
    if r:
        return None
    quotient = _signed(_shl(q, e._exp, "quotient"), d._exp + twos)
    if quotient._num.bit_length() - 1 > POW_BIT_LIMIT:
        raise _too_wide("quotient")
    return quotient


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
    # 2^-u has u fraction digits: refuse a large u before 5^u is built.
    u = d._exp
    if u > POW_BIT_LIMIT:
        raise _too_wide("decimal")
    whole = abs(d._num) >> u
    out = _write_decimal(whole)
    if u:
        # The numerator is odd, so the fraction (|num| mod 2^u) * 5^u is at
        # least 5^u, of more than u * log10(5) > u * 0.69897 digits.
        _check_printable(u * 69897 // 100000 + 1)
        frac = (abs(d._num) - _shl(whole, u, "decimal")) * 5**u
        out += "." + _write_decimal(frac).zfill(u).rstrip("0")
    return "-" + out if d._num < 0 else out
