"""Exact nonnegative reals as interval-refinement oracles, and signed reals
as difference pairs.

A CutReal answers precision queries: query(n) returns exact dyadic bounds
(lo, hi) with lo >= 0, successive intervals nested, and hi - lo <= 2^(-n).
The lower endpoints generate a cut (a union of lower segments of binary
fractions); the upper endpoint is what makes comparison decidable up to a
stated tolerance.  Values that happen to be binary fractions carry an exact
tag so arithmetic can stay exact along dyadic-only paths.  A node reads
its operands only through query, so a query costs two frames, query and
the node's oracle, per node on its path.

Tags follow one rule, kept in _tag: a node's tag is its dyadic operation
folded over its operands' tags (dy.add for sum_cuts, dy.mul for mul,
dy.dy_max for sup_finite, and dy.sub for _posdiff, clamped at 0, and
dy.dy_pow of the operand's tag for pow_nat), and None
when an operand has no tag or the operation refuses the result with
SizeLimit.  So a tag obeys dyadic's POW_BIT_LIMIT like every exact result,
and a node with no tag answers by intervals alone, however large its
operands' tags or however far apart.  Leaves carry their own tags, and
inverse of a tagged operand is a leaf.

Guard-bit policy (normative for interoperability).  Every oracle sums,
multiplies or divides its operands' endpoints exactly on one grid and
rounds each result once onto its query grid, through dyadic's fused steps,
so no intermediate Dyadic is built:
  * sum_cuts is the one addition node.  ZERO_CUT operands are skipped
    and not counted; with none left the sum is ZERO_CUT, and with one left
    it is that operand shifted one bit, n -> y.query(n + 1), with its tag.
    Otherwise it queries each distinct operand left once at n + g,
    g = ceil(log2 k) + 1 where k counts every operand left, repeats
    included, multiplies the endpoints by the operand's count, adds them
    exactly and rounds the sums outward onto the 2^(-n-2) grid, so the
    width stays within 2^(-n), the node's depth is 1 and its endpoints
    follow n, not k.  add is its k = 2 case, and real_sum with a non-exact
    operand is one such node per side, as the CLI's run of + and - operands
    is;
  * mul queries at n+t+2 where t is the smallest natural with
    hi_x(0) + hi_y(0) <= 2^t, read from the operands' queries at 0 when
    the node is first queried, multiplies endpoints, and rounds the lower
    product down and the upper product up to n+3 fractional bits, so the
    width stays within 2^(-n-2) + 2^(-n-2) and endpoint sizes follow n,
    not the size of the expression.  That is the grid of the mul node
    under a one-bit shift that a product of one-signed values was, so
    such a product prints, and certifies a divisor's sign, as it did;
  * pow_nat(x, m), m >= 2, is one node that queries x once at
    b = bit_length(m) for an upper bound H, and at precision n once at
    n + g, g = b + bit_length(b) + 5 + t where 2^t >= max(1, H)^(m-1).
    It squares and multiplies the endpoints' numerators, rounding the
    lower chain down and the upper chain up onto x's grid after every
    step, so the width 2^(-n-g) of x and the fewer than 2b roundings grow
    to at most e * m * max(1, H)^(m-1) * 4b * 2^(-n-g) <= 2^(-n-1).  The
    last step's products are rounded outward onto the 2^(-n-3) grid, the
    grid of the shifted mul node that topped a power's product DAG.  So
    x^m costs one node and one query of x per precision, and a power
    whose first square would pass dyadic's product measure at every
    precision is refused before x is queried deeply;
  * inverse divides 1 by the swapped endpoints with directed rounding to
    n+2 fractional bits, querying the operand at max(n0, n + 2e + 1) where
    2^(-e) lower-bounds the witness interval's lo;
  * every exact value is one kind of leaf, which queries nothing: the
    leaf of a/b, for dyadics a >= 0 and b > 0, answers at precision n with
    hi = a/b rounded up onto the 2^(-n-1) grid and lo = hi - 2^(-n-1)
    clamped at 0, so off that grid it is [floor, ceil] of a/b, and on it
    no division runs.  from_dyadic(d) is the leaf of d/1, tagged d, and
    reciprocal(d) the leaf of 1/d, tagged when 1/d is a binary fraction.
    inverse of a tagged operand and real_inv of an exact value both build
    the reciprocal leaf.  Within one CLI evaluation a repeated inv(d) or
    x / d is one node, evaluated once, so a sum queries its value once
    however often it repeats, and inv(d) and every x / d that is not
    exact share one reciprocal of d;
  * real_sup of k signed values is a balanced tree of two-way maxima,
    each Real(sup_finite([px + ny, py + nx]), nx + ny), so its depth is
    O(log k) and a query at n reaches the values at n + O(log k);
  * real_abs of a pair (pos, neg) is sup_finite of its two positive parts
    _posdiff(pos, neg) and _posdiff(neg, pos), each of which queries its
    operands at n+1; at precision n its endpoints are
    lo = max(0, lp - hn, ln - hp) and hi = max(hp - ln, hn - lp);
  * exact zeros fold when a node is built.  ZERO_CUT, which from_dyadic(0)
    returns, is the exact zero: mul with it, pow_nat of it and
    _posdiff(ZERO_CUT, b) are ZERO_CUT; _posdiff(a, ZERO_CUT) is a shifted
    one bit, as a sum with one operand left is; sup_finite skips ZERO_CUT
    operands, so real_abs of a pair with a ZERO_CUT side is the other side
    shifted one bit.  A signed value with a ZERO_CUT side is one-signed:
    real_mul multiplies each side of the other factor by its other side
    with one mul node, and real_pow raises that side with one pow_nat
    node, so neither builds a zero side's product or a shift.  The general
    mul and _posdiff, which query every operand, return the same endpoints
    at every precision, so no answer changes; only a tag None may become
    the node's exact value.  A zero tag alone does not fold: real_abs of a
    pair with equal nonzero tags is tagged 0, but its upper endpoints are
    positive.

Signed values are pairs (pos, neg) standing for pos - neg; canonicalize
shifts the pair so the smaller component is within 2^(-n) of zero at every
queried precision.

A signed value is exact when real_tag finds its value, pos.tag - neg.tag,
and one rule settles exact results: real_sum, real_mul, real_sup,
real_from_cut and canonicalize return real_from_dyadic of an exact
result's value, so an exact value is always the one leaf pair of that
value.  Exact operands combine by dyadic arithmetic alone: real_sum sums
them in order, real_mul multiplies them, real_div divides them when the
quotient is a binary fraction and real_pow raises them to a power, each
refusing with SizeLimit what dyadic refuses, though a product with a zero
factor is zero, and real_sup takes their maximum.  The reciprocal of an
exact value is its reciprocal leaf, with no sign probe, and an exact zero
divisor is refused by name; a divisor that is not exact must show its
sign at the caller's precision.  Settling a product
or a tree of maxima after the fact would not do: their nodes' tags follow
_tag's rule, so far-apart exact operands would answer by intervals.  A sum
with a non-exact operand joins its exact operands' sum to the other
operands as one leaf pair, or, when that sum is refused, each exact operand
as its own, so such a sum answers by intervals however far apart its exact
terms lie.
"""

from __future__ import annotations

from . import dyadic as dy
from .errors import (
    DivisionNearZero, EmptyList, NegativeInput, NotBoundedAwayFromZero, SizeLimit
)
from .naturals import _nat


class CutReal:
    """Nonnegative real presented as a nested dyadic interval oracle.

    Answers are memoized per precision without a lock: two threads asking
    for a new precision at once may both evaluate the oracle, but the first
    answer stored is the one every caller gets, then and later, so sharing
    a value across threads never changes what any caller observes.
    """

    __slots__ = ("_fn", "_tag", "_memo")

    def __init__(self, fn, tag=None):
        self._fn = fn
        self._tag = tag
        self._memo = {}

    @property
    def tag(self):
        """The exact dyadic value, when one is known."""
        return self._tag

    def query(self, n: int):
        # The check runs before the memo is read: True would find 1's entry.
        if type(n) is not int or n < 0:
            _nat(n, "precision")
        got = self._memo.get(n)
        if got is None:
            got = self._memo.setdefault(n, self._fn(n))
        return got

    def lo(self, n: int) -> dy.Dyadic:
        return self.query(n)[0]

    def hi(self, n: int) -> dy.Dyadic:
        return self.query(n)[1]

    def __repr__(self):
        if self._tag is not None:
            return f"CutReal(= {self._tag})"
        return f"CutReal({format_interval(self, 10)})"


def _leaf(a: dy.Dyadic, b: dy.Dyadic, tag) -> CutReal:
    # The exact value a/b, for dyadics a >= 0 and b > 0, tagged with tag:
    # a/b itself when it is a binary fraction, else None.  At precision n,
    # hi is a/b rounded up onto the 2^(-n-1) grid and lo is one grid step
    # below it, clamped at 0.  Off the grid that step down is the floor; on
    # it hi is the tag itself, so nothing is divided, and where the step
    # down would pass dyadic's size budget the tag is both endpoints.
    def fn(n):
        p = n + 1
        if tag is None or tag.exp > p:
            return dy._div_bounds(a, b, b, p)
        return dy._below(tag, p), tag

    return CutReal(fn, tag)


ZERO_CUT = _leaf(dy.ZERO, dy.ONE, dy.ZERO)
ONE_CUT = _leaf(dy.ONE, dy.ONE, dy.ONE)


def from_dyadic(d: dy.Dyadic) -> CutReal:
    """Embed a binary fraction as the leaf d/1: at precision n the interval
    [hi - 2^(-n-1) clamped at 0, hi], where hi is d rounded up onto the
    2^(-n-1) grid.  That is [d - 2^(-n-1) clamped at 0, d] when d lies on
    the grid, and d rounded down and up onto it when d does not.  Zero
    embeds as ZERO_CUT itself, so it folds."""
    if d.sign < 0:
        raise NegativeInput(f"cut embedding needs d >= 0, got {d}")
    return ZERO_CUT if d.sign == 0 else _leaf(d, dy.ONE, d)


def _tag(op, xs):
    # The exact value of a node over a list or tuple of operands: op folded
    # left to right over their tags.  None at the first operand with no
    # tag, or when op refuses the result with SizeLimit.
    tag = None
    try:
        for x in xs:
            t = x._tag
            if t is None:
                return None
            tag = t if tag is None else op(tag, t)
    except SizeLimit:
        return None
    return tag


def _shift(y: CutReal) -> CutReal:
    # The node y + 0 or y - 0: y queried one bit deeper, with y's tag.
    if y is ZERO_CUT:
        return ZERO_CUT
    return CutReal(lambda n: y.query(n + 1), y._tag)


def sum_cuts(xs) -> CutReal:
    """Sum of a list or tuple of k >= 1 cuts as one node, so its depth is 1
    at any k.

    ZERO_CUT operands are skipped and not counted: with none left the sum
    is ZERO_CUT, and with one left it is that operand shifted one bit.
    Otherwise each distinct operand left (by identity) is queried once at
    n + g, g = ceil(log2 k) + 1 where k counts every operand left, so the
    k widths add up to at most 2^(-n-1).  An operand's endpoints are
    multiplied by the number of times it occurs, so the exact endpoint sums
    are those of the k operands, and they are rounded outward onto the
    2^(-n-2) grid, as mul rounds its products.  The tag is the exact sum
    when every operand left has one and dy.add builds that sum without
    SizeLimit; otherwise the node has no tag and answers by intervals
    alone, so exact operands whose exponents lie far apart still sum.
    """
    if not xs:
        raise EmptyList("sum_cuts needs at least one value")
    # A loop, not a comprehension: most sums are built from two operands.
    live = []
    for x in xs:
        if x is not ZERO_CUT:
            live.append(x)
    if len(live) <= 1:
        return _shift(live[0]) if live else ZERO_CUT
    guard = (len(live) - 1).bit_length() + 1
    # Each distinct operand once, with its count; a CutReal hashes by
    # identity.
    counts = {}
    for x in live:
        counts[x] = counts.get(x, 0) + 1
    (first, count), *rest = counts.items()

    def fn(n):
        # The endpoint sums run up exactly on one grid and are rounded
        # once; the oracle calls each step itself, so no frame sits
        # between this query and its operands'.
        k = n + guard
        lo, hi = first.query(k)
        sums = dy._sum_step(None, lo, hi, count)
        for x, c in rest:
            lo, hi = x.query(k)
            sums = dy._sum_step(sums, lo, hi, c)
        return dy._sum_round(sums, n + 2)

    return CutReal(fn, _tag(dy.add, live))


def add(x: CutReal, y: CutReal) -> CutReal:
    """x + y: the Sum node of two operands."""
    return sum_cuts((x, y))


def mul(x: CutReal, y: CutReal) -> CutReal:
    if x is ZERO_CUT or y is ZERO_CUT:
        return ZERO_CUT
    guard = []

    def fn(n):
        if not guard:
            # The smallest t >= 0 with hi_x(0) + hi_y(0) <= 2^t: the product
            # of widths then stays within 2^(-n) after querying at n + t.
            s = dy.add(x.query(0)[1], y.query(0)[1])
            guard.append(max(0, (s.man - 1).bit_length() - s.exp) if s.sign else 0)
        # Endpoint products are within 2^(-n-2) of each other at n + t + 2;
        # outward rounding onto the 2^(-n-3) grid adds less than 2^(-n-3)
        # per side.  A floor of a larger value on a finer grid is never
        # below the floor on a coarser grid, so nesting survives rounding.
        k = n + guard[0] + 2
        lx, hx = x.query(k)
        ly, hy = y.query(k)
        return dy._products(lx, ly, hx, hy, n + 3)

    return CutReal(fn, _tag(dy.mul, (x, y)))


class Comparison:
    """What compare_eps decides: one of the three instances LESS, GREATER
    and INDISTINGUISHABLE, each with a name and the word the CLI prints as
    its value.  copy and pickle return the instance itself."""

    __slots__ = ("name", "value")

    def __init__(self, name: str, value: str):
        self.name = name
        self.value = value

    def __repr__(self):
        return f"<Comparison.{self.name}: {self.value!r}>"

    def __str__(self):
        return f"Comparison.{self.name}"

    def __reduce__(self):
        return f"Comparison.{self.name}"


Comparison.LESS = Comparison("LESS", "less")
Comparison.GREATER = Comparison("GREATER", "greater")
Comparison.INDISTINGUISHABLE = Comparison("INDISTINGUISHABLE", "indistinguishable")


def compare_eps(x: CutReal, y: CutReal, n: int) -> Comparison:
    """Order decision at precision n.

    LESS means the intervals at n are disjoint with x below y, which
    certifies x < y; INDISTINGUISHABLE certifies |x - y| <= 2^(-n+1).
    """
    lx, hx = x.query(n)
    ly, hy = y.query(n)
    if dy.compare(hx, ly) < 0:
        return Comparison.LESS
    if dy.compare(hy, lx) < 0:
        return Comparison.GREATER
    return Comparison.INDISTINGUISHABLE


def sup_finite(xs) -> CutReal:
    """Least upper bound of finitely many values: endpoint-wise maxima.
    Every cut is >= 0, so ZERO_CUT operands are skipped: with none left the
    sup is ZERO_CUT, and with one left it is that operand."""
    xs = list(xs)
    if not xs:
        raise EmptyList("sup_finite needs at least one value")
    xs = [x for x in xs if x is not ZERO_CUT]
    if len(xs) <= 1:
        return xs[0] if xs else ZERO_CUT

    first, *rest = xs

    def fn(n):
        # A plain loop: no comprehension frame sits between this query and
        # its operands'.
        lo, hi = first.query(n)
        for x in rest:
            plo, phi = x.query(n)
            lo = dy.dy_max(lo, plo)
            hi = dy.dy_max(hi, phi)
        return lo, hi

    return CutReal(fn, _tag(dy.dy_max, xs))


def reciprocal(d: dy.Dyadic) -> CutReal:
    """1/d for an exact positive dyadic d, as the leaf 1/d that queries
    nothing: at precision n, 1/d rounded down and up onto the 2^(-n-1)
    grid, or the embedding's interval when 1/d is a binary fraction, which
    is then its tag."""
    if d.sign <= 0:
        raise NotBoundedAwayFromZero(f"reciprocal needs d > 0, got {d}")
    return _leaf(dy.ONE, d, dy.exact_div(dy.ONE, d))


def inverse(x: CutReal, n0: int) -> CutReal:
    """Reciprocal of a value bounded away from zero.

    The caller vouches for positivity by naming a precision n0 whose lower
    endpoint is strictly positive; anything weaker would force an unbounded
    search.  Exact when the value is a power of two; otherwise directed
    division keeps lo rounded down and hi rounded up.
    """
    _nat(n0, "positivity witness")
    lo0 = x.query(n0)[0]
    if lo0.sign <= 0:
        raise NotBoundedAwayFromZero(
            f"lower endpoint at precision {n0} is {lo0}, not positive"
        )

    if x._tag is not None:
        return reciprocal(x._tag)

    # 2^(-e) <= lo0, so every deeper query keeps the value >= 2^(-e).
    e = max(0, lo0.exp - lo0.man.bit_length() + 1)

    def fn(n):
        k = max(n0, n + 2 * e + 1)
        lk, hk = x.query(k)
        return dy._div_bounds(dy.ONE, hk, lk, n + 2)

    return CutReal(fn)


def pow_nat(x: CutReal, m: int) -> CutReal:
    """x^m as one node: ONE_CUT for m = 0, and x itself for m = 1 or for
    ZERO_CUT.  Otherwise the node queries x once at b = bit_length(m) for
    the guard of dy._power_guard, and at precision n once at n + g; its
    endpoints are squared and multiplied out by dy._powers, the lower chain
    rounded down and the upper up at every step, and the last step's
    products rounded outward onto the 2^(-n-3) grid.  The tag is
    dy.dy_pow of x's tag, None when x has none or dy_pow refuses it."""
    _nat(m, "exponent")
    if m == 0:
        return ONE_CUT
    if m == 1 or x is ZERO_CUT:
        return x
    b = m.bit_length()
    guard = []

    def fn(n):
        if not guard:
            guard.append(dy._power_guard(*x.query(b), m))
        k = n + guard[0]
        lo, hi = x.query(k)
        return dy._powers(lo, hi, m, k, n + 3)

    tag = x._tag
    if tag is not None:
        try:
            tag = dy.dy_pow(tag, m)
        except SizeLimit:
            tag = None
    return CutReal(fn, tag)


class Real:
    """Signed real as a formal difference pos - neg of two cuts."""

    __slots__ = ("_pos", "_neg")

    def __init__(self, pos: CutReal, neg: CutReal):
        self._pos = pos
        self._neg = neg

    @property
    def pos(self):
        return self._pos

    @property
    def neg(self):
        return self._neg

    def __repr__(self):
        return f"Real({format_real_interval(self, 10)})"


def real_from_cut(c: CutReal) -> Real:
    """c as a signed value; a tagged c is the leaf pair of its tag."""
    return Real(c, ZERO_CUT) if c._tag is None else real_from_dyadic(c._tag)


def real_from_dyadic(d: dy.Dyadic) -> Real:
    if d.sign < 0:
        return Real(ZERO_CUT, from_dyadic(dy.neg(d)))
    return Real(from_dyadic(d), ZERO_CUT)


REAL_ZERO = real_from_dyadic(dy.ZERO)


def real_tag(x: Real):
    """The exact value of x, pos.tag - neg.tag, or None when a side has no
    tag or dy.sub refuses the difference with SizeLimit.  A ZERO_CUT side
    costs no subtraction."""
    if x._neg is ZERO_CUT:
        return x._pos._tag
    if x._pos is ZERO_CUT and x._neg._tag is not None:
        return dy.neg(x._neg._tag)
    return _tag(dy.sub, (x._pos, x._neg))


def _exact(op, xs, acc=None):
    # op folded left to right over the exact values of xs, starting from
    # acc when it is given; None at the first value that is not exact.
    # op's SizeLimit is raised.
    for x in xs:
        tag = real_tag(x)
        if tag is None:
            return None
        acc = tag if acc is None else op(acc, tag)
    return acc


def _settled(pos: CutReal, neg: CutReal) -> Real:
    # The pair (pos, neg), or the leaf pair of its value when that is exact.
    x = Real(pos, neg)
    tag = real_tag(x)
    return x if tag is None else real_from_dyadic(tag)


def real_add(x: Real, y: Real) -> Real:
    return real_sum((x, y))


def real_sum(xs) -> Real:
    """Sum of k >= 1 signed values.

    The exact operands are summed from 0 with dy.add, in order; with no
    other operand that sum is the result, and its SizeLimit is raised.
    Otherwise the sum is one sum_cuts node on each side over the other
    operands and then the exact sum's leaf pair, or, when the exact sum is
    refused, the exact operands themselves."""
    terms, exact = [], []
    for x in xs:
        (terms if real_tag(x) is None else exact).append(x)
    if exact:
        try:
            exact = [real_from_dyadic(_exact(dy.add, exact, dy.ZERO))]
        except SizeLimit:
            if not terms:
                raise
        if not terms:
            return exact[0]
    terms += exact
    return _settled(sum_cuts([x.pos for x in terms]), sum_cuts([x.neg for x in terms]))


def real_neg(x: Real) -> Real:
    return Real(x.neg, x.pos)


def real_sub(x: Real, y: Real) -> Real:
    return real_add(x, real_neg(y))


def real_mul(x: Real, y: Real) -> Real:
    """x * y.  When both are exact, their exact product: zero when a factor
    is zero, however wide the other, else dy.mul's, which may refuse it
    with SizeLimit.  Otherwise a factor of exactly 1 or -1 returns the
    other, negated for -1.  A one-signed factor, one with a ZERO_CUT side,
    multiplies with one mul node: two such factors give one node over
    their other sides, on the negative side when exactly one factor is
    negative, and one such factor gives one node per side of the other
    value, the sides swapped when it is negative.  Two values with no
    ZERO_CUT side give four mul nodes, summed on each side."""
    a, b = real_tag(x), real_tag(y)
    if a is not None and b is not None:
        return real_from_dyadic(dy.mul(a, b) if a and b else dy.ZERO)
    for d, other in ((a, y), (b, x)):
        if d is not None and d.man == 1 and d.exp == 0:
            return other if d.sign > 0 else real_neg(other)
    sx, sy = _one_side(x), _one_side(y)
    if sx and sy:
        return _signed_cut(mul(sx[0], sy[0]), sx[1] is not sy[1])
    if sx or sy:
        # Both products carry tags when an exact factor meets a pair whose
        # difference dy.sub refused, so the result is settled, as the
        # four-node product is.
        (c, negative), z = (sx, y) if sx else (sy, x)
        pos, neg = mul(c, z.pos), mul(c, z.neg)
        return _settled(neg, pos) if negative else _settled(pos, neg)
    return _settled(
        add(mul(x.pos, y.pos), mul(x.neg, y.neg)),
        add(mul(x.pos, y.neg), mul(x.neg, y.pos)),
    )


def _one_side(x: Real):
    # (c, negative) when x is c or -c for a cut c, that is when a side of x
    # is ZERO_CUT; None when neither side is.
    if x._neg is ZERO_CUT:
        return x._pos, False
    if x._pos is ZERO_CUT:
        return x._neg, True
    return None


def _signed_cut(c: CutReal, negative: bool) -> Real:
    return Real(ZERO_CUT, c) if negative else Real(c, ZERO_CUT)


def real_inv(x: Real, prec: int) -> Real:
    """1/x.  For an exact x, the reciprocal leaf of |x|, negated when x < 0,
    which is the leaf pair of 1/x when that is a binary fraction; an exact
    zero raises DivisionNearZero.  Otherwise x's sign must be certified at
    precision prec + 1, or DivisionNearZero is raised, and the result is
    inverse of |x| with prec as its positivity witness, negated when x < 0."""
    d = real_tag(x)
    if d is None:
        side = compare_eps(x.pos, x.neg, prec + 1)
        if side is Comparison.INDISTINGUISHABLE:
            raise DivisionNearZero(f"divisor not certified nonzero at precision {prec}")
        flipped = real_from_cut(inverse(real_abs(x), prec))
        return real_neg(flipped) if side is Comparison.LESS else flipped
    if not d:
        raise DivisionNearZero("division by exact zero")
    flipped = real_from_cut(reciprocal(dy.dy_abs(d)))
    return real_neg(flipped) if d.sign < 0 else flipped


def real_div(x: Real, y: Real, prec: int) -> Real:
    """x / y: the exact quotient when both are exact and dy.exact_div finds
    it, which may refuse it with SizeLimit; otherwise x * real_inv(y, prec)."""
    exact = _exact_quotient(x, y)
    return real_mul(x, real_inv(y, prec)) if exact is None else exact


def _exact_quotient(x: Real, y: Real):
    # The leaf pair of x / y when both are exact and dy.exact_div finds
    # the quotient, which it may refuse with SizeLimit; else None.
    d, e = real_tag(x), real_tag(y)
    exact = None if d is None or e is None else dy.exact_div(d, e)
    return None if exact is None else real_from_dyadic(exact)


def real_pow(x: Real, m: int) -> Real:
    """x^m for a natural m: exact 1 for m = 0, dy.dy_pow's power of an exact
    x, which may refuse it with SizeLimit, and x itself for m = 1.
    Otherwise one pow_nat node: over x's nonzero side when x is one-signed,
    on the negative side when x is negative and m odd, and over real_abs(x)
    when neither side is ZERO_CUT, times x once when m is odd."""
    _nat(m, "exponent")
    d = real_tag(x) if m else dy.ONE
    if d is not None:
        return real_from_dyadic(dy.dy_pow(d, m))
    if m == 1:
        return x
    side = _one_side(x)
    if side is not None:
        return _signed_cut(pow_nat(side[0], m), side[1] and m % 2 == 1)
    power = Real(pow_nat(real_abs(x), m - m % 2), ZERO_CUT)
    return real_mul(power, x) if m % 2 else power


def real_sup(xs) -> Real:
    """Greatest of finitely many signed values: one value is itself, exact
    values give their maximum, and otherwise a balanced tree of two-way
    maxima, so the DAG has depth O(log k) for k values.  Each maximum uses
    max(px - nx, py - ny) = max(px + ny, py + nx) - (nx + ny)."""
    level = list(xs)
    if not level:
        raise EmptyList("real_sup needs at least one value")
    if len(level) == 1:
        return level[0]
    top = _exact(dy.dy_max, level)
    if top is not None:
        return real_from_dyadic(top)
    while len(level) > 1:
        paired = [
            Real(
                sup_finite([add(x.pos, y.neg), add(y.pos, x.neg)]),
                add(x.neg, y.neg),
            )
            for x, y in zip(level[::2], level[1::2])
        ]
        level = paired + level[len(paired) * 2:]
    return _settled(level[0].pos, level[0].neg)


def real_abs(x: Real) -> CutReal:
    """|pos - neg| as a single cut: the larger of its two positive parts."""
    return sup_finite([_posdiff(x.pos, x.neg), _posdiff(x.neg, x.pos)])


def _posdiff(a: CutReal, b: CutReal) -> CutReal:
    # The nonnegative part of a - b, as a cut.
    if a is ZERO_CUT:
        return ZERO_CUT
    if b is ZERO_CUT:
        return _shift(a)

    def fn(n):
        la, ha = a.query(n + 1)
        lb, hb = b.query(n + 1)
        return dy._difference(la, hb, True), dy._difference(ha, lb, True)

    tag = _tag(dy.sub, (a, b))
    return CutReal(fn, dy.ZERO if tag is not None and tag.sign < 0 else tag)


def canonicalize(x: Real) -> Real:
    """Equivalent pair whose smaller component hugs zero.

    At every precision at most one component can have a positive lower
    endpoint, so the other stays within the interval [0, 2^(-n)]: the
    finite-precision reading of reducing ⟨pos, neg⟩ to ⟨pos - neg, 0⟩.
    """
    return _settled(_posdiff(x.pos, x.neg), _posdiff(x.neg, x.pos))


def real_compare_eps(x: Real, y: Real, n: int) -> Comparison:
    """Compare pos_x + neg_y against pos_y + neg_x at precision n."""
    return compare_eps(add(x.pos, y.neg), add(y.pos, x.neg), n)


def real_interval(x: Real, n: int):
    """Signed dyadic bounds on pos - neg at precision n (width <= 2^(-n+1))."""
    lp, hp = x.pos.query(n)
    ln, hn = x.neg.query(n)
    return dy._difference(lp, hn), dy._difference(hp, ln)


def format_interval(c: CutReal, n: int) -> str:
    lo, hi = c.query(n)
    return f"[{lo}, {hi}]@{n}"


def format_real_interval(x: Real, n: int) -> str:
    lo, hi = real_interval(x, n)
    return f"[{lo}, {hi}]@{n}"
