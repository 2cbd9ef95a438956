"""Canonical hereditarily finite sets.

Every value is an immutable set of other HFSets, grounded in the empty set.
Elements are stored deduplicated and sorted by Ackermann-code order, which
makes extensional equality plain structural equality and gives every value
exactly one serialized form.

The Ackermann code N(X) = sum over x in X of 2^N(x) is injective, but the
integers explode as towers (the von Neumann natural 6 already needs a code
of about 2^2059 bits).  Ordering by code therefore never materializes the
code.  Each set instead carries an order key: the tuple of its elements'
keys, largest element first.  A code is the binary number whose set bits
sit at its elements' codes, so reading both element lists from the top,
the first disagreement decides, and a list that runs out first is the
smaller code; that is exactly Python's lexicographic order on these nested
tuples, so sorting by key runs the comparison in C.  `ackermann_code`
refuses, with SizeLimit, inputs whose code would not fit in CODE_BIT_LIMIT
bits, and `from_code` decodes every code that fits.

`parse` and `str` work at any nesting depth, but equality does not.  On
two separately built chains of singletons, `==`, `in` and `union` answer at
990 levels and raise RecursionError at 1000: comparing nested order keys in
C recurses once per level, against the interpreter's recursion limit
(ROADMAP item 5).  `str` and `parse` answer at 3000.

Sets are not shared: every construction builds a new object and no table
is kept, so a set lives exactly as long as something holds it.
Hash-consing (ROADMAP item 5) would make equality an identity test, but it
needs a weak table that copying, pickling and threads keep consistent, and
perfbench reads its speed-up as a `peak_rss_mb` regression until that
harness bounds its per-operation samples (ROADMAP item 1).
"""

from __future__ import annotations

from operator import attrgetter

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
    """Order of Ackermann codes (-1, 0 or 1), computed on order keys."""
    ka, kb = a._key, b._key
    return (ka > kb) - (ka < kb)


_key_of = attrgetter("_key")


class HFSet:
    """An immutable hereditarily finite set.

    HFSet(elements) takes any iterable of HFSets, in any order and with
    repeats, keeps the first of equal elements, and raises TypeError for
    anything else.  Every construction checks each element once and hashes
    the element tuple.  Only three or more elements are deduped by a dict,
    sorted by key and given a key built by a comprehension; a pair costs one
    or two key comparisons, and the empty and one-element sets, most of
    what `parse` or a decode from scratch builds, cost nothing more.  A
    tuple argument of at most two elements that is already in order, with
    no repeat, is kept as the set's own element tuple; three or more
    elements are always sorted into a new tuple, even when already in order.
    """

    __slots__ = ("_elems", "_hash", "_rank", "_key")

    def __init__(self, elements=()):
        # One tuple of the elements: a tuple argument as it is, anything else
        # through a list.  tuple() of a lazy iterator allocates ten slots and
        # shrinks, and the shrunken tuples, once freed, fill the interpreter's
        # per-size tuple free lists (~2 MB held for good on `hf_codes`).
        cls = elements.__class__
        elems = elements if cls is tuple else tuple(elements if cls is list else [*elements])
        for e in elems:
            if not isinstance(e, HFSet):
                raise TypeError(f"HFSet elements must be HFSets, got {type(e).__name__}")
        if len(elems) > 2:
            # A dict dedupes by hash, keeping the first of equal elements.
            elems = tuple(sorted(dict.fromkeys(elems), key=_key_of))
            self._key = tuple([e._key for e in reversed(elems)])
        elif len(elems) == 2:
            # One or two key comparisons order the pair or find it equal.
            a, b = elems
            ka, kb = a._key, b._key
            if ka < kb:
                self._key = (kb, ka)
            elif kb < ka:
                elems, self._key = (b, a), (ka, kb)
            else:
                elems, self._key = (a,), (ka,)
        else:
            self._key = (elems[0]._key,) if elems else ()
        self._elems = elems
        # The sets of rank < r are exactly the codes below 2^^(r-1), so the
        # element with the largest code also has the largest rank.
        self._rank = elems[-1]._rank + 1 if elems else 0
        self._hash = hash(elems)

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
        return isinstance(item, HFSet) and item in self._elems

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, HFSet):
            return NotImplemented
        return self._hash == other._hash and self._key == other._key

    def __hash__(self):
        return self._hash

    def __str__(self):
        # An explicit stack of sets still to print and the tokens that
        # close them, as `parse` reads, so any nesting depth prints.
        out = []
        todo = [self]
        while todo:
            x = todo.pop()
            if x.__class__ is str:
                out.append(x)
            elif x._elems:
                out.append("{")
                todo.append("}")
                for e in reversed(x._elems):
                    todo += (e, ",")
                todo.pop()
            else:
                out.append("{}")
        return "".join(out)

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


def _is_natural(elems: tuple) -> bool:
    # A von Neumann natural sorts, in code order, as 0 < 1 < ... < n-1, and
    # each element must equal the set of all earlier ones.
    return all(e._elems == elems[:i] for i, e in enumerate(elems))


def hf_to_nat(x: HFSet) -> int:
    if not _is_natural(x._elems):
        raise NotANatural(f"not a von Neumann natural: {x}")
    return len(x._elems)


def _refused_rank(limit: int) -> int:
    """Least rank whose sets all have codes of at least `limit`.

    The least code of a rank-r set is 2^^(r-1) (with 2^^(-1) = 0), the code
    of r nested braces around the empty set.
    """
    rank, least = 0, 0
    while least < limit:
        rank += 1
        # 2^least >= limit as soon as least reaches limit's bit length.
        least = limit if least >= limit.bit_length() else 1 << least
    return rank


def _code_too_wide() -> SizeLimit:
    return SizeLimit(f"Ackermann code needs more than {CODE_BIT_LIMIT} bits")


def ackermann_code(x: HFSet) -> int:
    """N(x), the sum of 2^N(e) over the elements e of x."""
    # The largest element has the largest rank; once that rank alone puts
    # its code at CODE_BIT_LIMIT or more, refuse before recursing.
    if x._elems and x._elems[-1]._rank >= _refused_rank(CODE_BIT_LIMIT):
        raise _code_too_wide()
    return _code(x, {})


def _code(x: HFSet, memo: dict) -> int:
    cached = memo.get(x)
    if cached is not None:
        return cached
    code = 0
    for e in x._elems:
        sub = _code(e, memo)
        if sub >= CODE_BIT_LIMIT:
            raise _code_too_wide()
        code += 1 << sub
    memo[x] = code
    return code


def from_code(c: int) -> HFSet:
    """The set whose Ackermann code is `c`: the inverse of `ackermann_code`.

    Its elements are the sets whose codes are the positions of c's set bits.
    Codes past CODE_BIT_LIMIT bits are refused with SizeLimit, as
    `ackermann_code` refuses their sets.  A memo private to the call builds
    each distinct sub-code once.
    """
    _nat(c, "code")
    if c.bit_length() > CODE_BIT_LIMIT:
        raise _code_too_wide()
    memo = {0: EMPTY}

    def decode(code: int) -> HFSet:
        got = memo.get(code)
        if got is None:
            elems = []
            rest = code
            while rest:
                low = rest & -rest
                elems.append(decode(low.bit_length() - 1))
                rest ^= low
            got = memo[code] = HFSet(elems)
        return got

    return decode(c)


def is_full(x: HFSet) -> bool:
    """Every element is also a subset (transitive, as a set)."""
    return all(e.issubset(x) for e in x)


def is_ordinal(x: HFSet) -> bool:
    """Transitive and well-ordered by membership.

    An HFSet is finite and well-founded, so its ordinals are exactly the
    von Neumann naturals, the sets `hf_to_nat` reads.  The literal
    definition, over all nonempty subsets, stays in the test suite as the
    oracle.
    """
    return _is_natural(x._elems)


# Parser states: what the next character that is not whitespace may be.
_SET, _OPENED, _AFTER, _DONE = range(4)
_EXPECTED = {
    _SET: "expected '{'",
    _OPENED: "expected '{'",
    _AFTER: "expected ',' or '}'",
    _DONE: "trailing characters after set",
}


def parse(text: str) -> HFSet:
    """Parse the brace serialization; any element order is canonicalized.

    One pass over the characters, with an explicit stack of the element
    lists of the sets still open, so nesting depth is bounded by memory and
    not by the interpreter's recursion limit.
    """
    stack = []
    state = _SET
    result = None
    for pos, ch in enumerate(text):
        if ch == "{" and state in (_SET, _OPENED):
            stack.append([])
            state = _OPENED
        elif ch == "}" and state in (_OPENED, _AFTER):
            done = HFSet(stack.pop())
            if stack:
                stack[-1].append(done)
                state = _AFTER
            else:
                result = done
                state = _DONE
        elif ch == "," and state == _AFTER:
            state = _SET
        elif not ch.isspace():
            raise ExprSyntaxError(_EXPECTED[state], pos)
    if state == _DONE:
        return result
    raise ExprSyntaxError("unterminated set" if state == _AFTER else "expected '{'", len(text))
