"""Finite relational spaces and their order-theoretic toolkit.

A Relation is a set of atom pairs between two explicit carriers.  Carriers
keep their input order so reports, partitions, and constructed orderings
come out deterministic.  Property checks work on bit rows (bit j of row i
is the pair (atom i, atom j)) and stay polynomial by two equivalences of
finite order theory; the test suite re-derives every answer from the
subset-quantified definitions by independent brute force.

* A transitive relation on a finite carrier gives every nonempty subset a
  minimum exactly when it is connective: pairs need minima, and a minimum
  m of A is related to a new atom z one way or the other, so by
  transitivity m or z is a minimum of A + {z}.
* A transitive relation has the least-upper-bound property exactly when
  every bounded-above pair has a supremum: the upper bounds of A + {z} are
  those of {sup A, z}, since an atom bounds A exactly when it is sup A or
  lies above it.

Convention for products: compose(V, U) is the relation VU whose pairs are
(x, z) with (x, y) in U and (y, z) in V for some y.  V and U read right to
left, as with function composition.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

from .errors import (
    BadExponent,
    CarrierMismatch,
    EmptyFamily,
    NotEquivalence,
    NotOrdering,
    NotPreordering,
    NotWellOrdering,
    NonTotalMap,
    ParseError,
    UnknownAtom,
)

class Carrier:
    """Ordered finite list of distinct opaque atoms."""

    __slots__ = ("_atoms", "_index")

    def __init__(self, atoms):
        atoms = tuple(atoms)
        index = {}
        for i, a in enumerate(atoms):
            if not isinstance(a, str):
                raise TypeError(f"atoms must be strings, got {type(a).__name__}")
            if a in index:
                raise ValueError(f"duplicate atom {a!r} in carrier")
            index[a] = i
        self._atoms = atoms
        self._index = index

    @property
    def atoms(self):
        return self._atoms

    def index(self, atom):
        try:
            return self._index[atom]
        except KeyError:
            raise UnknownAtom(f"atom {atom!r} not in carrier") from None

    def __contains__(self, atom):
        return atom in self._index

    def __iter__(self):
        return iter(self._atoms)

    def __len__(self):
        return len(self._atoms)

    def __eq__(self, other):
        if not isinstance(other, Carrier):
            return NotImplemented
        return self._atoms == other._atoms

    def __hash__(self):
        return hash(self._atoms)

    def __repr__(self):
        return f"Carrier({list(self._atoms)!r})"


class Relation:
    """Finite relation with explicit source and target carriers."""

    __slots__ = ("_source", "_target", "_pairs")

    def __init__(self, source: Carrier, target: Carrier, pairs):
        self._source = source
        self._target = target
        clean = set()
        for x, y in pairs:
            if x not in source:
                raise UnknownAtom(f"pair source {x!r} not in carrier")
            if y not in target:
                raise UnknownAtom(f"pair target {y!r} not in carrier")
            clean.add((x, y))
        self._pairs = frozenset(clean)

    @staticmethod
    def on(carrier: Carrier, pairs) -> "Relation":
        """Endorelation constructor."""
        return Relation(carrier, carrier, pairs)

    @property
    def source(self):
        return self._source

    @property
    def target(self):
        return self._target

    @property
    def pairs(self):
        return self._pairs

    @property
    def carrier(self):
        """The shared carrier of an endorelation."""
        if self._source != self._target:
            raise CarrierMismatch("relation has distinct source and target")
        return self._source

    def __contains__(self, pair):
        return pair in self._pairs

    def __eq__(self, other):
        if not isinstance(other, Relation):
            return NotImplemented
        return (
            self._source == other._source
            and self._target == other._target
            and self._pairs == other._pairs
        )

    def __hash__(self):
        return hash((self._source, self._target, self._pairs))

    def __repr__(self):
        shown = sorted(self._pairs)
        return f"Relation({list(self._source.atoms)!r}, {shown!r})"


def diagonal(carrier: Carrier) -> Relation:
    return Relation.on(carrier, ((a, a) for a in carrier))


@dataclass(frozen=True)
class PropertyReport:
    reflexive: bool
    antireflexive: bool
    symmetric: bool
    antisymmetric: bool
    transitive: bool
    connective: bool
    directive: bool
    pre_ordering: bool
    ordering: bool
    ordering_lt: bool
    ordering_le: bool
    direction: bool
    equivalence: bool
    total_ordering: bool
    well_ordering: bool

    def as_dict(self):
        return {f.name: getattr(self, f.name) for f in fields(self)}


@dataclass(frozen=True)
class Extremal:
    minima: frozenset
    maxima: frozenset
    weak_minima: frozenset
    weak_maxima: frozenset
    upper_bounds: frozenset
    lower_bounds: frozenset
    suprema: frozenset
    infima: frozenset


@dataclass(frozen=True)
class IndependenceReport:
    upwards: bool
    downwards: bool


def _require_endo(r: Relation) -> Carrier:
    if r.source != r.target:
        raise CarrierMismatch("operation requires source = target")
    return r.source


def compose(v: Relation, u: Relation) -> Relation:
    """The product VU: u runs first, v second."""
    if u.target != v.source:
        raise CarrierMismatch("compose needs U.target = V.source")
    by_mid = {}
    for x, y in u.pairs:
        by_mid.setdefault(y, []).append(x)
    out = set()
    for y, z in v.pairs:
        for x in by_mid.get(y, ()):
            out.add((x, z))
    return Relation(u.source, v.target, out)


def inverse(r: Relation) -> Relation:
    return Relation(r.target, r.source, ((y, x) for x, y in r.pairs))


def restrict(r: Relation, atoms) -> Relation:
    carrier = _require_endo(r)
    keep = set()
    for a in atoms:
        carrier.index(a)
        keep.add(a)
    sub = Carrier(a for a in carrier if a in keep)
    return Relation.on(sub, ((x, y) for x, y in r.pairs if x in keep and y in keep))


def power(r: Relation, m: int) -> Relation:
    _require_endo(r)
    if not isinstance(m, int) or m < 1:
        raise BadExponent(f"relation power needs m >= 1, got {m!r}")
    acc = r
    for _ in range(m - 1):
        acc = compose(acc, r)
    return acc


def image(r: Relation, atoms) -> frozenset:
    """R[A]: everything reachable from A in one step."""
    wanted = set()
    for a in atoms:
        r.source.index(a)
        wanted.add(a)
    return frozenset(y for x, y in r.pairs if x in wanted)


def point_image(r: Relation, atom) -> frozenset:
    """R{x}."""
    r.source.index(atom)
    return frozenset(y for x, y in r.pairs if x == atom)


def co_image(r: Relation, atoms) -> frozenset:
    """R<A>: targets reached from every member of A; the whole target
    carrier when A is empty."""
    wanted = []
    for a in atoms:
        r.source.index(a)
        wanted.append(a)
    if not wanted:
        return frozenset(r.target)
    acc = point_image(r, wanted[0])
    for a in wanted[1:]:
        acc &= point_image(r, a)
    return acc


def _rows(r: Relation):
    """Bit rows of an endorelation: bit j of rows[i] is the pair (atom i, atom j)."""
    carrier = _require_endo(r)
    index = carrier._index
    rows = [0] * len(carrier)
    for x, y in r.pairs:
        rows[index[x]] |= 1 << index[y]
    return rows


def _columns(rows):
    """Column masks of bit rows: bit i of cols[j] is bit j of rows[i]."""
    cols = [0] * len(rows)
    for i, row in enumerate(rows):
        for j in _bits(row):
            cols[j] |= 1 << i
    return cols


def _bits(mask):
    """Indices of the set bits of mask, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


# The base properties that guards need, one helper each over bit rows (and
# column masks), so a guard computes only its own flag.


def _reflexive(rows) -> bool:
    return all(row >> i & 1 for i, row in enumerate(rows))


def _antisymmetric(rows, cols) -> bool:
    return all(row & cols[i] & ~(1 << i) == 0 for i, row in enumerate(rows))


def _transitive(rows) -> bool:
    return all(rows[j] & ~row == 0 for row in rows for j in _bits(row))


def _connective(rows, cols) -> bool:
    full = (1 << len(rows)) - 1
    return all(row | cols[i] | 1 << i == full for i, row in enumerate(rows))


def _is_ordering(r: Relation) -> bool:
    rows = _rows(r)
    return _transitive(rows) and _antisymmetric(rows, _columns(rows))


def classify(r: Relation) -> PropertyReport:
    rows = _rows(r)
    cols = _columns(rows)
    n = len(rows)

    reflexive = _reflexive(rows)
    antireflexive = not any(row >> i & 1 for i, row in enumerate(rows))
    symmetric = rows == cols
    antisymmetric = _antisymmetric(rows, cols)
    transitive = _transitive(rows)
    connective = _connective(rows, cols)
    # X x X = R^-1 R: every two points have a common successor.
    directive = all(rows[x] & rows[z] for x in range(n) for z in range(x, n))

    ordering = transitive and antisymmetric
    return PropertyReport(
        reflexive=reflexive,
        antireflexive=antireflexive,
        symmetric=symmetric,
        antisymmetric=antisymmetric,
        transitive=transitive,
        connective=connective,
        directive=directive,
        pre_ordering=transitive,
        ordering=ordering,
        ordering_lt=antireflexive and transitive,
        ordering_le=reflexive and antisymmetric and transitive,
        direction=reflexive and transitive and directive,
        equivalence=reflexive and symmetric and transitive,
        total_ordering=ordering and connective,
        # Minimum property of a transitive relation = connectivity.
        well_ordering=ordering and connective,
    )


def equivalence_partition(r: Relation):
    """Blocks of the partition induced by an equivalence relation, each a
    tuple in carrier order, listed by first representative."""
    carrier = _require_endo(r)
    rows = _rows(r)
    if not (_reflexive(rows) and _transitive(rows) and rows == _columns(rows)):
        raise NotEquivalence("relation is not an equivalence")
    seen = set()
    blocks = []
    for a in carrier:
        if a in seen:
            continue
        block = tuple(b for b in carrier if (a, b) in r.pairs)
        seen.update(block)
        blocks.append(block)
    return blocks


def preorder_closure(r: Relation) -> Relation:
    """Smallest transitive relation containing r (union of all powers)."""
    carrier = _require_endo(r)
    rows = _rows(r)
    changed = True
    while changed:
        changed = False
        for i in range(len(rows)):
            acc = rows[i]
            for j in _bits(acc):
                acc |= rows[j]
            if acc != rows[i]:
                rows[i] = acc
                changed = True
    atoms = carrier.atoms
    return Relation.on(
        carrier,
        ((atoms[i], atoms[j]) for i, row in enumerate(rows) for j in _bits(row)),
    )


def antisymmetrize(r: Relation):
    """Quotient a transitive relation by its two-way pairs.

    Returns (blocks, s) where blocks partition the carrier into classes
    (mutually related pairs plus the diagonal) and s is the induced
    relation on class representatives; s is always an ordering, and it is
    reflexive whenever r is.
    """
    carrier = _require_endo(r)
    if not _transitive(_rows(r)):
        raise NotPreordering("antisymmetrize needs a transitive relation")
    p = r.pairs
    blocks = []
    rep_of = {}
    for a in carrier:
        if a in rep_of:
            continue
        block = tuple(
            b for b in carrier
            if b == a or ((a, b) in p and (b, a) in p)
        )
        for b in block:
            rep_of[b] = a
        blocks.append(block)
    reps = Carrier(block[0] for block in blocks)
    s_pairs = {(rep_of[x], rep_of[y]) for x, y in p}
    return blocks, Relation.on(reps, s_pairs)


def _minima_of(pairs, members) -> frozenset:
    return frozenset(
        x for x in members
        if all(y == x or (x, y) in pairs for y in members)
    )


def _maxima_of(pairs, members) -> frozenset:
    return frozenset(
        x for x in members
        if all(y == x or (y, x) in pairs for y in members)
    )


def extremal(r: Relation, atoms) -> Extremal:
    carrier = _require_endo(r)
    a_set = list(dict.fromkeys(atoms))
    for a in a_set:
        carrier.index(a)
    p = r.pairs

    upper = frozenset(
        x for x in carrier
        if all(y == x or (y, x) in p for y in a_set)
    )
    lower = frozenset(
        x for x in carrier
        if all(y == x or (x, y) in p for y in a_set)
    )
    return Extremal(
        minima=_minima_of(p, a_set),
        maxima=_maxima_of(p, a_set),
        weak_minima=frozenset(
            x for x in a_set
            if all((x, y) in p for y in a_set if (y, x) in p)
        ),
        weak_maxima=frozenset(
            x for x in a_set
            if all((y, x) in p for y in a_set if (x, y) in p)
        ),
        upper_bounds=upper,
        lower_bounds=lower,
        suprema=_minima_of(p, upper),
        infima=_maxima_of(p, lower),
    )


def _pairs_have_joins(rows) -> bool:
    """Whether every pair of atoms with a common upper bound has a least one,
    reading bit rows with the diagonal added: an atom bounds itself."""
    up = [row | 1 << i for i, row in enumerate(rows)]
    joined = set()
    for i, up_i in enumerate(up):
        for up_j in up[i + 1:]:
            u = up_i & up_j
            if u and u not in joined:
                if not any(u & ~up[k] == 0 for k in _bits(u)):
                    return False
                joined.add(u)
    return True


def lub_property_check(r: Relation) -> bool:
    """Whether every nonempty bounded-above subset has a supremum.

    For a transitive relation this holds exactly when every bounded-above
    pair has one (a singleton is its own supremum), since the upper bounds
    of A + {z} are those of {sup A, z}; so the check is O(n^2) pairs on bit
    rows for any carrier size.  The dual statement (bounded-below pairs
    have infima) is provably equivalent; both are computed, on rows and on
    columns, and cross-checked before one answer is returned.
    """
    rows = _rows(r)
    if not _transitive(rows):
        raise NotPreordering("least-upper-bound check needs a transitive relation")
    lub = _pairs_have_joins(rows)
    glb = _pairs_have_joins(_columns(rows))
    assert lub == glb, "least-upper-bound and greatest-lower-bound disagree"
    return lub


def order_variants(r: Relation):
    """Strict and weak forms (R minus diagonal, R plus diagonal) of an
    ordering.  Extremal elements are invariant across the three."""
    carrier = _require_endo(r)
    if not _is_ordering(r):
        raise NotOrdering("order_variants needs an ordering")
    delta = {(a, a) for a in carrier}
    lt = Relation.on(carrier, r.pairs - delta)
    le = Relation.on(carrier, set(r.pairs) | delta)
    return lt, le


def pullback(r: Relation, domain: Carrier, mapping) -> Relation:
    """R_f: pairs whose images under f are related by r."""
    _require_endo(r)
    f = dict(mapping)
    for x in domain:
        if x not in f:
            raise NonTotalMap(f"map undefined on {x!r}")
        if f[x] not in r.source:
            raise NonTotalMap(f"map sends {x!r} outside the relation's carrier")
    return Relation.on(
        domain,
        ((x, z) for x in domain for z in domain if (f[x], f[z]) in r.pairs),
    )


def check_independence(system) -> IndependenceReport:
    """Upwards/downwards independence of a family of transitive relations.

    Both flags quantify over the intersection S of the family.  When the
    upwards flag holds, the segment identity (every strict lower i-segment
    is the union of the S-segments below its members) is re-checked as an
    internal consistency assertion, and dually for downwards.
    """
    system = list(system)
    if not system:
        raise EmptyFamily("independence check needs at least one relation")
    carrier = _require_endo(system[0])
    for rel in system[1:]:
        if _require_endo(rel) != carrier:
            raise CarrierMismatch("system members live on different carriers")
    for rel in system:
        if not _transitive(_rows(rel)):
            raise NotPreordering("system members must be transitive")

    s_pairs = frozenset.intersection(*(rel.pairs for rel in system))
    atoms = carrier.atoms

    upwards = all(
        any((x, y) in s_pairs and (y, s) in rel.pairs for y in atoms)
        for rel in system
        for x, s in rel.pairs
    )
    downwards = all(
        any((y, x) in s_pairs and (s, y) in rel.pairs for y in atoms)
        for rel in system
        for s, x in rel.pairs
    )

    if upwards:
        for rel in system:
            for s in atoms:
                segment = {z for z in atoms if (z, s) in rel.pairs}
                union = {
                    z
                    for x in atoms
                    if (x, s) in rel.pairs
                    for z in atoms
                    if (z, x) in s_pairs
                }
                assert segment == union, "upwards segment identity failed"
    if downwards:
        for rel in system:
            for s in atoms:
                segment = {z for z in atoms if (s, z) in rel.pairs}
                union = {
                    z
                    for x in atoms
                    if (s, x) in rel.pairs
                    for z in atoms
                    if (x, z) in s_pairs
                }
                assert segment == union, "downwards segment identity failed"
    return IndependenceReport(upwards=upwards, downwards=downwards)


def order_type_finite(r: Relation):
    """Rank isomorphism of a finite well-ordering onto 0..n-1: an atom's
    rank is the number of its strict predecessors."""
    carrier = _require_endo(r)
    rows = _rows(r)
    cols = _columns(rows)
    # Well-ordering: a connective ordering (see classify).
    if not (
        _transitive(rows)
        and _antisymmetric(rows, cols)
        and _connective(rows, cols)
    ):
        raise NotWellOrdering("order type requires a well-ordering")
    by_rank = [None] * len(carrier)
    for i, col in enumerate(cols):
        by_rank[(col & ~(1 << i)).bit_count()] = carrier.atoms[i]
    return len(by_rank), {a: rank for rank, a in enumerate(by_rank)}


def parse_relation(text: str) -> Relation:
    """Parse the relation file format.

    Line 1 (ignoring blank lines and # comments): ``carrier: a b c``.
    Every further line: two atoms forming a pair.
    """
    carrier = None
    pairs = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if carrier is None:
            if not line.startswith("carrier:"):
                raise ParseError("first line must start with 'carrier:'", lineno)
            atoms = line[len("carrier:"):].split()
            if not atoms:
                raise ParseError("carrier must list at least one atom", lineno)
            try:
                carrier = Carrier(atoms)
            except ValueError as exc:
                raise ParseError(str(exc), lineno) from None
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ParseError(f"expected two atoms, got {len(parts)}", lineno)
        x, y = parts
        if x not in carrier:
            raise UnknownAtom(f"atom {x!r} not in carrier (line {lineno})")
        if y not in carrier:
            raise UnknownAtom(f"atom {y!r} not in carrier (line {lineno})")
        pairs.append((x, y))
    if carrier is None:
        raise ParseError("missing carrier line", 1)
    return Relation.on(carrier, pairs)
