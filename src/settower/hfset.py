"""Canonical hereditarily finite sets.

Every value is an immutable set of other HFSets, grounded in the empty set.
Elements are stored deduplicated and sorted by Ackermann-code order, which
makes extensional equality plain structural equality and gives every value
exactly one serialized form.

The Ackermann code N(X) = sum over x in X of 2^N(x) is injective, but the
integers explode as towers (the von Neumann natural 6 already needs a code
of about 2^2059 bits).  Ordering by code therefore never materializes the
code: two sets are compared like binary numbers, by walking their element
lists from the largest element down.  `ackermann_code` itself refuses, with
SizeLimit, inputs whose code would not fit in CODE_BIT_LIMIT bits.
"""

from __future__ import annotations

from functools import cmp_to_key

from .errors import (
    EmptyFamily,
    ExprSyntaxError,
    NotANatural,
    NotAPair,
    SizeLimit,
)
from .naturals import _nat

# Bounds keeping tower-growth inputs out of the library. All overridable by
# tests that know what they are doing, none raised silently.
POWER_SET_LIMIT = 10
NAT_BOUND = 12
PRODUCT_LIMIT = 4096
CODE_BIT_LIMIT = 1 << 16


def compare(a: "HFSet", b: "HFSet") -> int:
    """Order of Ackermann codes, computed structurally.

    The code of a set is the binary number whose set bits sit at the codes
    of its elements, so the larger code belongs to whichever set wins the
    first disagreement when both element lists are read from the top.
    """
    if a is b:
        return 0
    xs, ys = a._elems, b._elems
    i, j = len(xs) - 1, len(ys) - 1
    while i >= 0 and j >= 0:
        c = compare(xs[i], ys[j])
        if c != 0:
            return c
        i -= 1
        j -= 1
    if i >= 0:
        return 1
    if j >= 0:
        return -1
    return 0


_sort_key = cmp_to_key(compare)


class HFSet:
    __slots__ = ("_elems", "_hash", "_rank")

    def __init__(self, elements=()):
        distinct = []
        for e in elements:
            if not isinstance(e, HFSet):
                raise TypeError(f"HFSet elements must be HFSets, got {type(e).__name__}")
            if e not in distinct:
                distinct.append(e)
        distinct.sort(key=_sort_key)
        self._elems = tuple(distinct)
        self._rank = 1 + max((e._rank for e in self._elems), default=-1)
        self._hash = hash(self._elems)

    @staticmethod
    def of(*elements: "HFSet") -> "HFSet":
        return HFSet(elements)

    @property
    def elements(self) -> tuple:
        return self._elems

    @property
    def rank(self) -> int:
        """Nesting depth: rank of the empty set is 0."""
        return self._rank

    def __len__(self):
        return len(self._elems)

    def __iter__(self):
        return iter(self._elems)

    def __contains__(self, item):
        if not isinstance(item, HFSet):
            return False
        return any(item == e for e in self._elems)

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, HFSet):
            return NotImplemented
        return self._hash == other._hash and self._elems == other._elems

    def __hash__(self):
        return self._hash

    def __str__(self):
        return "{" + ",".join(str(e) for e in self._elems) + "}"

    __repr__ = __str__

    def issubset(self, other: "HFSet") -> bool:
        return all(e in other for e in self._elems)

    def union(self, other: "HFSet") -> "HFSet":
        return HFSet(self._elems + other._elems)

    def intersection(self, other: "HFSet") -> "HFSet":
        return HFSet(e for e in self._elems if e in other)

    def difference(self, other: "HFSet") -> "HFSet":
        return HFSet(e for e in self._elems if e not in other)


EMPTY = HFSet()


def big_union(family: HFSet) -> HFSet:
    """Set of all members of members.  Defined only for a nonempty family."""
    if len(family) == 0:
        raise EmptyFamily("union of the empty family")
    return HFSet(e for x in family for e in x)


def big_intersection(family: HFSet) -> HFSet:
    """Members common to every member.  Defined only for a nonempty family."""
    if len(family) == 0:
        raise EmptyFamily("intersection of the empty family")
    first, *rest = family.elements
    acc = first
    for x in rest:
        acc = acc.intersection(x)
    return acc


def power_set(s: HFSet) -> HFSet:
    if len(s) > POWER_SET_LIMIT:
        raise SizeLimit(f"power set of {len(s)} elements exceeds limit {POWER_SET_LIMIT}")
    elems = s.elements
    subsets = []
    for mask in range(1 << len(elems)):
        subsets.append(HFSet(elems[i] for i in range(len(elems)) if mask >> i & 1))
    return HFSet(subsets)


def kuratowski_pair(x: HFSet, y: HFSet) -> HFSet:
    return HFSet.of(HFSet.of(x, y), HFSet.of(x))


def unpair(p: HFSet) -> tuple:
    """Coordinates of a Kuratowski pair {{x,y},{x}}.

    The left coordinate is the sole member of the intersection of p; the
    right one is the leftover of the union past that intersection, or the
    left coordinate again in the degenerate x = y case.
    """
    if not 1 <= len(p) <= 2:
        raise NotAPair(f"expected a Kuratowski pair, got {p}")
    inter = big_intersection(p)
    if len(inter) != 1:
        raise NotAPair(f"no unique left coordinate in {p}")
    x = inter.elements[0]
    leftover = big_union(p).difference(inter)
    if len(leftover) == 0:
        y = x
    elif len(leftover) == 1:
        y = leftover.elements[0]
    else:
        raise NotAPair(f"no unique right coordinate in {p}")
    if kuratowski_pair(x, y) != p:
        raise NotAPair(f"not a Kuratowski pair: {p}")
    return x, y


def cartesian_product(x: HFSet, y: HFSet) -> HFSet:
    if len(x) * len(y) > PRODUCT_LIMIT:
        raise SizeLimit(f"product of {len(x)}x{len(y)} pairs exceeds limit {PRODUCT_LIMIT}")
    return HFSet(kuratowski_pair(a, b) for a in x for b in y)


def successor(x: HFSet) -> HFSet:
    """x together with {x}; on von Neumann naturals this is n + 1."""
    return HFSet(x.elements + (x,))


def nat_to_hf(n: int) -> HFSet:
    _nat(n)
    if n > NAT_BOUND:
        raise SizeLimit(f"von Neumann encoding of {n} exceeds depth bound {NAT_BOUND}")
    acc = EMPTY
    for _ in range(n):
        acc = successor(acc)
    return acc


def hf_to_nat(x: HFSet) -> int:
    # A von Neumann natural sorts, in code order, as 0 < 1 < ... < n-1, and
    # each element must equal the set of all earlier ones.
    elems = x.elements
    for i, e in enumerate(elems):
        if e.elements != elems[:i]:
            raise NotANatural(f"not a von Neumann natural: {x}")
    return len(elems)


def ackermann_code(x: HFSet, _memo=None) -> int:
    if _memo is None:
        _memo = {}
    cached = _memo.get(x)
    if cached is not None:
        return cached
    code = 0
    for e in x:
        sub = ackermann_code(e, _memo)
        if sub >= CODE_BIT_LIMIT:
            raise SizeLimit(
                f"Ackermann code needs more than {CODE_BIT_LIMIT} bits"
            )
        code += 1 << sub
    _memo[x] = code
    return code


def is_full(x: HFSet) -> bool:
    """Every element is also a subset (transitive, as a set)."""
    return all(e.issubset(x) for e in x)


def is_ordinal(x: HFSet) -> bool:
    """Empty, or full with the membership-minimum property.

    The defining condition quantifies over all nonempty subsets; on
    well-founded values (and every HFSet is well-founded by construction)
    it reduces to pairwise membership-comparability of distinct elements:
    a minimal element of a subset exists by finiteness, and comparability
    promotes it to the minimum.  The literal quantifier form stays in the
    test suite as the oracle.
    """
    if len(x) == 0:
        return True
    if not is_full(x):
        return False
    elems = x.elements
    for i in range(len(elems)):
        for j in range(i + 1, len(elems)):
            if elems[i] not in elems[j] and elems[j] not in elems[i]:
                return False
    return True


def parse(text: str) -> HFSet:
    """Parse the brace serialization; any element order is canonicalized."""
    pos = 0

    def skip_ws():
        nonlocal pos
        while pos < len(text) and text[pos].isspace():
            pos += 1

    def parse_set() -> HFSet:
        nonlocal pos
        skip_ws()
        if pos >= len(text) or text[pos] != "{":
            raise ExprSyntaxError("expected '{'", pos)
        pos += 1
        elems = []
        skip_ws()
        if pos < len(text) and text[pos] == "}":
            pos += 1
            return HFSet(elems)
        while True:
            elems.append(parse_set())
            skip_ws()
            if pos >= len(text):
                raise ExprSyntaxError("unterminated set", pos)
            if text[pos] == ",":
                pos += 1
                continue
            if text[pos] == "}":
                pos += 1
                return HFSet(elems)
            raise ExprSyntaxError("expected ',' or '}'", pos)

    result = parse_set()
    skip_ws()
    if pos != len(text):
        raise ExprSyntaxError("trailing characters after set", pos)
    return result
