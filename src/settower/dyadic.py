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

POW_BIT_LIMIT bounds what that work may allocate.  mul refuses a product
and dy_pow a power whose mantissa would pass it, by one measure, so d * d
is refused exactly when d^2 is; and every left shift of a nonzero numerator
by more than it is refused; all end in SizeLimit before that number is
built.  So add, sub, exact_div, div_floor, div_ceil and between refuse
operands whose exponents lie too far apart, and format_decimal refuses an
exponent past it.  add, sub, exact_div and between also refuse a result
whose mantissa passes the limit by mul's measure, so a sum, a quotient or a
witness is refused exactly when it times 1 would be.  Such a result is
built before it is measured, but it holds at most one bit more than an
operand shifted by at most POW_BIT_LIMIT, or, for a quotient, no more bits
than the dividend's numerator shifted by at most POW_BIT_LIMIT.  compare,
and so dy_max and dy_min, shift only down and answer at any distance, as
do div_floor and div_ceil when the result's grid is the coarser one.

Each measure is written once, in a private primitive on integer numerators
that the public calls and the fused steps of the reals node oracles share:

    _plus      add and sub, between (d plus 2^(-(u+v+1))), _sum_step,
               _difference and _below
    _times     mul, both endpoints of _products, _sum_step's repeat count,
               every step of _powers
    _quotient  div_floor, div_ceil and _div_bounds
    _onto      _sum_round, _products and _powers: div_floor(x, ONE, p)'s
               shift

The public calls end in _signed and so in make, which validates its input
and ends in _canonical, the one canonicaliser.  The fused steps work out
each endpoint's exact numerator on one grid and round it onto the node's
2^(-p) grid once, with _canonical: _sum_step and _sum_round for a sum,
_products for a product, _div_bounds for a leaf a/b and for an inverse,
_below for a tagged leaf, and _difference for a positive part and a signed
interval.  So each endpoint, and each SizeLimit, is what the public calls
composed would give.  _powers, for a power node, is the one step that
rounds along the way: it squares and multiplies on its operand's grid,
rounding the lower chain down and the upper chain up after each step, and
_power_guard sizes that grid from an upper bound that _power_bits raises
to the power on a 64-bit mantissa, and refuses a power whose lower chain
would be refused at every precision from the lower bound it raises.
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
    return _canonical(man if sign > 0 else -man if sign else 0, exp)


def _canonical(num: int, exp: int) -> Dyadic:
    # The canonical representative of num * 2^(-exp), for ints num and
    # exp >= 0: trailing zero bits stripped in one shift, stopping at
    # exponent 0.  The one canonicaliser; make ends here after validating.
    if not num:
        return ZERO
    shift = (num & -num).bit_length() - 1
    if shift > exp:
        shift = exp
    return Dyadic(num >> shift, exp - shift)


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


def _plus(snum: int, sexp: int, tnum: int, texp: int, what: str = "sum"):
    """s + t for s and t given as numerators on the grids 2^(-sexp) and
    2^(-texp): its numerator on the finer grid and that grid's exponent.
    Refused with SizeLimit, named what, when the coarser of s and t is
    nonzero and their canonical exponents lie more than POW_BIT_LIMIT
    apart, and then when the canonical sum's mantissa measures bits - 1 >
    POW_BIT_LIMIT, mul's measure."""
    if sexp > POW_BIT_LIMIT or texp > POW_BIT_LIMIT:
        # Far out, align the canonical forms, and refuse to shift a nonzero
        # one past the budget.
        s, t = _canonical(snum, sexp), _canonical(tnum, texp)
        snum, sexp, tnum, texp = s._num, s._exp, t._num, t._exp
        if sexp - texp > POW_BIT_LIMIT and tnum or texp - sexp > POW_BIT_LIMIT and snum:
            raise _too_wide(what)
    if sexp < texp:
        snum, sexp = snum << (texp - sexp), texp
    num = snum + (tnum << (sexp - texp))
    # Only near POW_BIT_LIMIT does the measure need the canonical form.
    if (
        num.bit_length() - 1 > POW_BIT_LIMIT
        and _canonical(num, sexp)._num.bit_length() - 1 > POW_BIT_LIMIT
    ):
        raise _too_wide(what)
    return num, sexp


def add(d: Dyadic, e: Dyadic) -> Dyadic:
    """d + e, refused as _plus refuses it, so x + 0 is refused exactly when
    x * 1 is."""
    return _signed(*_plus(d._num, d._exp, e._num, e._exp))


def neg(d: Dyadic) -> Dyadic:
    if not d._num:
        return d
    return Dyadic(-d._num, d._exp)


def sub(d: Dyadic, e: Dyadic) -> Dyadic:
    return add(d, neg(e))


def _times(m: int, n: int) -> int:
    """m * n, refused with SizeLimit before it is built when
    (bits(m) - 1) + (bits(n) - 1), dy_pow's measure, passes POW_BIT_LIMIT."""
    if m.bit_length() + n.bit_length() - 2 > POW_BIT_LIMIT:
        raise _too_wide("product")
    return m * n


def mul(d: Dyadic, e: Dyadic) -> Dyadic:
    """d * e, refused as _times refuses the product of the numerators."""
    return _signed(_times(d._num, e._num), d._exp + e._exp)


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
    numerator is then one past d's, which is odd: the witness is d plus
    2^(-(u+v+1)), refused with SizeLimit, named between, where add would
    refuse that sum.
    """
    if compare(d, e) >= 0:
        raise BadOrder(f"between needs d < e, got {d} >= {e}")
    return _signed(*_plus(d._num, d._exp, 1, d._exp + e._exp + 1, "between"))


def _quotient(a: Dyadic, b: Dyadic, p: int):
    """floor(a/b * 2^p), and a value that is true when a/b * 2^p is no
    whole number.  Refused
    with NonPositiveDivisor unless b > 0, then as _nat refuses a precision
    p, then with SizeLimit when a's nonzero numerator shifts up by more than
    POW_BIT_LIMIT onto the grid 2^(-p) times b's."""
    if b._num <= 0:
        raise NonPositiveDivisor(f"directed division needs b > 0, got {b}")
    if type(p) is not int or p < 0:
        _nat(p, "precision")
    k = b._exp + p - a._exp
    if k < 0:
        # a's exponent is positive, so its numerator is odd, and a/b * 2^p
        # is an odd number over 2^(-k) times b's numerator; a right shift
        # floors, and floor(floor(x) / n) = floor(x / n) for n > 0.
        return (a._num >> -k) // b._num, 1
    return divmod(_shl(a._num, k, "quotient"), b._num)


def div_floor(a: Dyadic, b: Dyadic, p: int) -> Dyadic:
    """Largest multiple of 2^(-p) that is <= a/b.  Requires b > 0."""
    return _signed(_quotient(a, b, p)[0], p)


def div_ceil(a: Dyadic, b: Dyadic, p: int) -> Dyadic:
    """Smallest multiple of 2^(-p) that is >= a/b.  Requires b > 0."""
    q, rest = _quotient(a, b, p)
    return _signed(q + 1 if rest else q, p)


# Fused steps for the node oracles of reals.  Each step works out an
# endpoint's exact numerator on one grid with the primitives of the public
# calls it stands for, so it refuses as they do, in their order and with
# their messages, and canonicalises the endpoint once, with _canonical.


def _onto(num: int, exp: int, p: int) -> int:
    # floor(num * 2^(p - exp)), refused as div_floor(x, ONE, p) refuses
    # x = num * 2^(-exp): when x's canonical numerator shifts up by more
    # than POW_BIT_LIMIT.
    if p > POW_BIT_LIMIT and num and p - _canonical(num, exp)._exp > POW_BIT_LIMIT:
        raise _too_wide("quotient")
    return num << (p - exp) if p >= exp else num >> (exp - p)


def _sum_step(acc, lo: Dyadic, hi: Dyadic, count: int):
    """The running endpoint sums of a sum_cuts node, (lo_num, lo_exp,
    hi_num, hi_exp), after adding lo and hi, each times count, to acc, or
    starting from them when acc is None.  Refused as mul(lo, make(count,
    0)) and mul(hi, make(count, 0)), when count > 1, and then add of each
    running sum and its new term refuse."""
    ln, le, hn, he = lo._num, lo._exp, hi._num, hi._exp
    if count > 1:
        ln, hn = _times(ln, count), _times(hn, count)
    if acc is None:
        return ln, le, hn, he
    return _plus(acc[0], acc[1], ln, le) + _plus(acc[2], acc[3], hn, he)


def _sum_round(acc, p: int):
    """div_floor(lo, ONE, p) and div_ceil(hi, ONE, p) of the sums that
    _sum_step ran up in acc."""
    ln, le, hn, he = acc
    return _canonical(_onto(ln, le, p), p), _canonical(-_onto(-hn, he, p), p)


def _products(lx: Dyadic, ly: Dyadic, hx: Dyadic, hy: Dyadic, p: int):
    """div_floor(mul(lx, ly), ONE, p) and div_ceil(mul(hx, hy), ONE, p),
    refused in that order."""
    lo = _canonical(_onto(_times(lx._num, ly._num), lx._exp + ly._exp, p), p)
    return lo, _canonical(-_onto(-_times(hx._num, hy._num), hx._exp + hy._exp, p), p)


def _power_bits(d: Dyadic, m: int, down: bool = False) -> int:
    """A natural t with max(1, d)^m <= 2^t, at most about one more than the
    least: d^m squared and multiplied out on a 64-bit mantissa rounded up
    at every step, so nothing larger than 128 bits is built.  With down,
    one with 2^t <= max(1, d)^m, at most about one less than the greatest,
    from the same steps rounded down."""
    num, exp = d._num, d._exp
    if num <= 1 << exp:
        return 0

    def cut(c, s):
        # c * 2^s rounded to a mantissa of at most 64 bits.
        k = c.bit_length() - 64
        return ((c >> k) + (not down), s + k) if k > 0 else (c, s)

    c, s = cut(num, -exp)
    pc, ps = c, s
    for bit in bin(m)[3:]:
        pc, ps = cut(pc * pc, 2 * ps)
        if bit == "1":
            pc, ps = cut(pc * c, ps + s)
    return ps + pc.bit_length() - down


def _power_guard(lo: Dyadic, hi: Dyadic, m: int) -> int:
    """The guard g of a power node x^m, m >= 2, whose operand answered
    [lo, hi] at precision b = bit_length(m).  Queried at k = n + g >= b,
    x's interval lies in [0, hi] and is at most 2^(-k) wide.  Through the
    fewer than 2b roundings of _powers onto 2^(-k), each under 2^(-k), the
    width grows to at most e * m * max(1, hi)^(m-1) * 4b * 2^(-k) before
    the last step is rounded, and g keeps that within 2^(-n-1).

    Refused with SizeLimit, named product, where _powers would refuse it
    at every n, as a lower bound on the measure of one of its lower
    chain's steps passes POW_BIT_LIMIT.  That chain works on numerators of
    at least k >= g bits less one once lo >= 1/2, since x's later
    intervals nest in [lo, hi], so its first step measures at least 2g - 2.
    Once lo > 1, its numerators on its grid 2^(-w), w >= k, stay at least
    2^w, so each rounding down loses under a 2^(-w) share of a step's
    value.  Compounded over fewer than m steps' worth, as 2m < 2^g, the
    shares lose under half, so its last step multiplies out at least lo^m
    * 2^(2w-1) and measures at least t + 2g - 2, where 2^t <= lo^m, as
    dy_pow's (bits - 1) * m bounds an exact power's."""
    b = m.bit_length()
    g = b + b.bit_length() + 5 + _power_bits(hi, m - 1)
    if compare(lo, HALF) >= 0 and _power_bits(lo, m, True) + 2 * g - 2 > POW_BIT_LIMIT:
        raise _too_wide("product")
    return g


def _powers(lo: Dyadic, hi: Dyadic, m: int, k: int, p: int):
    """Lower and upper ends of [lo, hi]^m, for 0 <= lo <= hi and m >= 2,
    squared and multiplied out from the top bit of m on the numerators of
    the grid 2^(-w), w the finest of k and the endpoints' exponents.  Each
    product is refused as _times refuses it, the lower chain's first; the
    lower chain rounds down and the upper chain up onto 2^(-w) after every
    step but the last, whose products are rounded once onto 2^(-p)."""
    w = max(k, lo._exp, hi._exp)
    ln, hn = lo._num << (w - lo._exp), hi._num << (w - hi._exp)
    la, ha = ln, hn
    # Each bit of m after the top squares, "0", and a set bit then
    # multiplies by x, "1"; a step's products lie on the grid 2^(-2w).
    for i, step in enumerate(bin(m)[3:].replace("1", "01")):
        if i:
            la, ha = la >> w, -(-ha >> w)
        by_x = step == "1"
        la, ha = _times(la, ln if by_x else la), _times(ha, hn if by_x else ha)
    return _canonical(_onto(la, 2 * w, p), p), _canonical(-_onto(-ha, 2 * w, p), p)


def _div_bounds(a: Dyadic, b: Dyadic, c: Dyadic, p: int):
    """div_floor(a, b, p) and div_ceil(a, c, p), refused in that order, for
    b, c > 0; one division when b is c."""
    lo, rest = _quotient(a, b, p)
    hi = lo
    if c is not b:
        hi, rest = _quotient(a, c, p)
    return _canonical(lo, p), _canonical(hi + 1 if rest else hi, p)


def _difference(d: Dyadic, e: Dyadic, clamp: bool = False) -> Dyadic:
    """sub(d, e), refused as sub refuses it, or dy_max(ZERO, sub(d, e))
    when clamp is true."""
    num, exp = _plus(d._num, d._exp, -e._num, e._exp)
    return ZERO if clamp and num <= 0 else _canonical(num, exp)


def _below(d: Dyadic, p: int) -> Dyadic:
    """dy_max(ZERO, sub(d, make(1, p))), or d itself where sub refuses that
    difference: the lower endpoint on the 2^(-p) grid of a leaf tagged d."""
    try:
        num, exp = _plus(d._num, d._exp, -1, p)
    except SizeLimit:
        return d
    return _canonical(num, exp) if num > 0 else ZERO


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
