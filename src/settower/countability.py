"""Explicit enumerations and finite stand-ins for the choice principles.

An Enumeration packages a total forward map from indices and a partial
back map from items.  Composite enumerations (pairs, finite unions) are
driven by the diagonal pairing bijection from the naturals module, so
injectivity of the pieces lifts to injectivity of the whole.

The choice constructions are deliberately deterministic: "choose" always
means "first in carrier order", which makes every derived well-ordering
and maximal chain reproducible.
"""

from __future__ import annotations

from . import dyadic as dy
from .errors import (
    EmptyBlock,
    EmptyCarrier,
    NonTotalMap,
    NotANatural,
    NotOrdering,
)
from .naturals import _nat, pair, unpair
# classify is not called here; it stays bound for callers that import it
# from this module.
from .relations import (  # noqa: F401
    Carrier,
    Relation,
    _bits,
    _from_rows,
    _is_ordering,
    classify,
)


class Enumeration:
    """A countability witness: forward is total, back partial.

    back returns the least index that forward maps to the item, and raises
    LookupError on items outside the enumerated range.
    """

    __slots__ = ("_forward", "_back")

    def __init__(self, forward, back):
        self._forward = forward
        self._back = back

    def forward(self, n: int):
        return self._forward(_nat(n, "index"))

    def back(self, item) -> int:
        return self._back(item)


def enum_dyadics() -> Enumeration:
    """Every nonnegative binary fraction, indexed through the pairing map.

    forward(n) decodes n to (m, u) and builds m/2^u; distinct codes can
    collide on one value (2/2^1 and 1/2^0 are both 1), so forward is a
    surjection rather than a bijection.  back returns the index of the
    canonical form, making back a right inverse of forward: for every
    value d, forward(back(d)) = d, and back(forward(n)) = n exactly when
    (m, u) was already canonical.
    """

    def forward(n):
        m, u = unpair(n)
        return dy.make(m, u)

    def back(d):
        if not isinstance(d, dy.Dyadic) or d.sign < 0:
            raise LookupError(f"not a nonnegative dyadic: {d!r}")
        return pair(d.man, d.exp)

    return Enumeration(forward, back)


def enum_finite_subsets(base: Enumeration) -> Enumeration:
    """Finite sets of base items via bitmask indices.

    Index n maps to the set of base items at the positions of n's set
    bits; 0 maps to the empty set.  Injective whenever base is.
    """

    def forward(n):
        items = []
        i = 0
        while n:
            if n & 1:
                items.append(base.forward(i))
            n >>= 1
            i += 1
        return frozenset(items)

    def back(items):
        mask = 0
        for item in items:
            mask |= 1 << base.back(item)
        return mask

    return Enumeration(forward, back)


def enum_product(left: Enumeration, right: Enumeration) -> Enumeration:
    """Pairs of enumerated items, diagonally indexed."""

    def forward(n):
        i, j = unpair(n)
        return left.forward(i), right.forward(j)

    def back(item):
        x, y = item
        return pair(left.back(x), right.back(y))

    return Enumeration(forward, back)


def enum_union(members) -> Enumeration:
    """Union of finitely many enumerations by diagonal traversal.

    forward(n) decodes n to (which member, inner index).  Members may
    overlap, so forward need not be injective; back returns the least index
    that forward maps to the item.  pair grows with each argument, so that
    is the least pair(i, members[i].back(item)) over the members that hold
    the item.  A member's back may answer for an item outside its range,
    with a negative index or the index of another item, so each answer is
    confirmed by forward.
    """
    members = list(members)
    if not members:
        raise EmptyBlock("union of no enumerations")

    def forward(n):
        i, j = unpair(n)
        return members[i % len(members)].forward(j)

    def back(item):
        best = None
        for i, member in enumerate(members):
            try:
                n = pair(i, member.back(item))
            except (LookupError, NotANatural):
                continue
            if (best is None or n < best) and forward(n) == item:
                best = n
        if best is None:
            raise LookupError(f"{item!r} is in no member of the union")
        return best

    return Enumeration(forward, back)


def choice_function(carrier: Carrier, blocks):
    """One representative per block: the earliest member in carrier order."""
    chosen = {}
    for block in blocks:
        block = frozenset(block)
        for atom in block:
            carrier.index(atom)
        picks = [a for a in carrier if a in block]
        if not picks:
            raise EmptyBlock("cannot choose from an empty block")
        chosen[block] = picks[0]
    return chosen


def well_order_finite(carrier: Carrier, choice=None) -> Relation:
    """Build a strict well-ordering by repeatedly choosing from what's left.

    choice may be a mapping from frozensets to atoms (as produced by
    choice_function) or None for the default first-in-carrier-order rule,
    under which the order is the carrier order itself.
    """
    if choice is None:
        order = range(len(carrier))
    else:
        order = [carrier._index[a] for a in _chosen_order(carrier, choice)]
    # Row i holds the atoms chosen after atom i, column i those before it.
    rows = [0] * len(carrier)
    cols = [0] * len(carrier)
    before = 0
    for i in order:
        cols[i] = before
        before |= 1 << i
    for i in order:
        before ^= 1 << i
        rows[i] = before
    return _from_rows(carrier, carrier, rows, cols)


def _chosen_order(carrier: Carrier, choice):
    """The atoms of carrier in the order a choice table or callable picks
    them from what is left."""
    if callable(choice):
        choose = choice
    else:
        table = dict(choice)

        def choose(block):
            try:
                return table[block]
            except KeyError:
                raise NonTotalMap(
                    f"choice undefined on a block of size {len(block)}"
                ) from None

    remaining = set(carrier)
    ordered = []
    while remaining:
        picked = choose(frozenset(remaining))
        if picked not in remaining:
            raise NonTotalMap(f"choice returned {picked!r}, not in the block")
        ordered.append(picked)
        remaining.discard(picked)
    return ordered


def zorn_max_finite(r: Relation):
    """A weak maximum of a finite ordered carrier, by greedy chain growth.

    Mirrors the chain argument: extend a chain with the first atom that
    keeps it a chain until none exists, then take the final chain's
    largest element.  Maximality of the chain forces that element to be a
    weak maximum of the whole carrier.
    """
    carrier = r.carrier
    if len(carrier) == 0:
        raise EmptyCarrier("no atoms to maximize over")
    if not _is_ordering(r):
        raise NotOrdering("weak-maximum search needs an ordering")
    rows, cols = r._rows, r._cols
    # comparable[z]: the atoms comparable with z, z itself included.
    comparable = [row | cols[z] | 1 << z for z, row in enumerate(rows)]
    # The chain in the order it grew, and the atoms comparable with every
    # link of it (the links among them); the next link is the first other.
    chain, in_chain = [], 0
    reach = (1 << len(rows)) - 1
    while reach != in_chain:
        z = next(_bits(reach & ~in_chain))
        chain.append(z)
        in_chain |= 1 << z
        reach &= comparable[z]
    top = next(x for x in chain if in_chain & ~(cols[x] | 1 << x) == 0)
    return carrier.atoms[top]
