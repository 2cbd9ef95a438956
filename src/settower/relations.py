"""Finite relational spaces and their order-theoretic toolkit.

A Relation is a set of atom pairs between two explicit carriers, held as
bit rows built once when it is made: bit j of row i is the pair (source
atom i, target atom j), and the column masks hold the same bits by target.
Carriers keep their input order so reports, partitions, and constructed
orderings come out deterministic.  Every operation reads and builds rows
and columns; the pair set is derived from them on first use of ``pairs``.
The file reader ORs each pair line into the rows and columns in one pass,
and the preorder closure is one pass of Warshall's algorithm over them.
Transitivity, the quantifier that closure walks, is checked for each row
through its smaller side: the rows of its successors, or the columns of
its non-successors when the row holds more than half the carrier.  So the
check reads the sum over rows of min(|row|, n - |row|) masks, at most
n^2/2 and about n^2/4 on a chain of n atoms.
Property checks stay polynomial by two equivalences of finite order
theory; the test suite re-derives every answer from the subset-quantified
definitions, and from pair-quantified bodies, by independent brute force.

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

from operator import attrgetter

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
from .naturals import square_and_multiply


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
    """Finite relation with explicit source and target carriers, held as
    bit rows and column masks (see the module docstring)."""

    __slots__ = ("_source", "_target", "_rows", "_cols", "_pairs")

    def __init__(self, source: Carrier, target: Carrier, pairs):
        s_index, t_index = source._index, target._index
        rows = [0] * len(source)
        cols = [0] * len(target)
        for x, y in pairs:
            i = s_index.get(x)
            if i is None:
                raise UnknownAtom(f"pair source {x!r} not in carrier")
            j = t_index.get(y)
            if j is None:
                raise UnknownAtom(f"pair target {y!r} not in carrier")
            rows[i] |= 1 << j
            cols[j] |= 1 << i
        self._init(source, target, rows, cols)

    def _init(self, source, target, rows, cols):
        self._source = source
        self._target = target
        self._rows = tuple(rows)
        self._cols = tuple(cols)
        self._pairs = None

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
        """The relation as a frozenset of atom pairs, built on first use (two
        threads that race here build equal sets)."""
        if self._pairs is None:
            s_atoms, t_atoms = self._source.atoms, self._target.atoms
            self._pairs = frozenset(
                (s_atoms[i], t_atoms[j])
                for i, row in enumerate(self._rows)
                for j in _bits(row)
            )
        return self._pairs

    @property
    def carrier(self):
        """The shared carrier of an endorelation."""
        return _require_endo(self)

    def __contains__(self, pair):
        if not (isinstance(pair, tuple) and len(pair) == 2):
            # No member; the lookup still hashes pair, so an unhashable
            # value raises TypeError as it would against a pair set.
            return pair in frozenset()
        i = self._source._index.get(pair[0])
        j = self._target._index.get(pair[1])
        return i is not None and j is not None and self._rows[i] >> j & 1 == 1

    def __eq__(self, other):
        if not isinstance(other, Relation):
            return NotImplemented
        return (
            self._source == other._source
            and self._target == other._target
            and self._rows == other._rows
        )

    def __hash__(self):
        return hash((self._source, self._target, self._rows))

    def __repr__(self):
        shown = sorted(self.pairs)
        return f"Relation({list(self._source.atoms)!r}, {shown!r})"


def _from_rows(source: Carrier, target: Carrier, rows, cols=None) -> Relation:
    """The relation with these bit rows; its columns are derived from the
    rows unless given."""
    if cols is None:
        cols = [0] * len(target)
        for i, row in enumerate(rows):
            for j in _bits(row):
                cols[j] |= 1 << i
    r = Relation.__new__(Relation)
    r._init(source, target, rows, cols)
    return r


def _atoms_of(carrier: Carrier, mask) -> frozenset:
    """The atoms at the set bits of mask."""
    atoms = carrier.atoms
    return frozenset(atoms[j] for j in _bits(mask))


def _mask(carrier: Carrier, atoms):
    """The carrier indices of atoms as a mask, each atom checked in turn."""
    mask = 0
    for a in atoms:
        mask |= 1 << carrier.index(a)
    return mask


def _union(masks, members):
    """The OR of masks[i] over the set bits i of members."""
    acc = 0
    for i in _bits(members):
        acc |= masks[i]
    return acc


def _gather(mask, positions):
    """Bit k is bit positions[k] of mask."""
    return sum(1 << k for k, j in enumerate(positions) if mask >> j & 1)


def _bits(mask):
    """Indices of the set bits of mask, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def diagonal(carrier: Carrier) -> Relation:
    return Relation.on(carrier, ((a, a) for a in carrier))


_set = object.__setattr__


class _Record:
    """An immutable record of named fields, the base of the report classes
    below.  A subclass lists its fields in ``__slots__``, and the one
    ``__init__`` here takes them in that order, by position or keyword.
    Records compare equal only to records of their own class with equal
    fields, hash as the tuple of their fields, print as
    ``Name(field=value, ...)``, refuse assignment and deletion with
    AttributeError, and pickle and copy by their fields."""

    __slots__ = ()

    def __init_subclass__(cls):
        # The fields as one tuple: every subclass has two or more, so the
        # attrgetter returns a tuple.
        cls._values = property(attrgetter(*cls.__slots__))
        cls.__match_args__ = cls.__slots__

    def __init__(self, *args, **kwargs):
        names, kind = self.__slots__, type(self).__qualname__
        if len(args) > len(names):
            raise TypeError(f"{kind} takes {len(names)} fields, got {len(args)}")
        for name, value in zip(names, args):
            _set(self, name, value)
        for name in names[len(args) :]:
            if name not in kwargs:
                raise TypeError(f"{kind} is missing field {name!r}")
            _set(self, name, kwargs.pop(name))
        if kwargs:
            raise TypeError(f"{kind} got unknown or repeated fields {sorted(kwargs)}")

    def as_dict(self):
        return dict(zip(self.__slots__, self._values))

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values == other._values
        return NotImplemented

    def __hash__(self):
        return hash(self._values)

    def __repr__(self):
        fields = zip(self.__slots__, self._values)
        shown = ", ".join(f"{name}={value!r}" for name, value in fields)
        return f"{type(self).__qualname__}({shown})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        # Restoring slot state by default would go through __setattr__.
        return type(self), self._values


class PropertyReport(_Record):
    """The fifteen flags :func:`classify` reports for an endorelation: the
    seven base properties, then the kinds of ordering they combine into."""

    __slots__ = (
        "reflexive",
        "antireflexive",
        "symmetric",
        "antisymmetric",
        "transitive",
        "connective",
        "directive",
        "pre_ordering",
        "ordering",
        "ordering_lt",
        "ordering_le",
        "direction",
        "equivalence",
        "total_ordering",
        "well_ordering",
    )


class Extremal(_Record):
    """The extremal atoms :func:`extremal` finds for a subset of the
    carrier, each field a frozenset of atoms."""

    __slots__ = (
        "minima",
        "maxima",
        "weak_minima",
        "weak_maxima",
        "upper_bounds",
        "lower_bounds",
        "suprema",
        "infima",
    )


class IndependenceReport(_Record):
    """Whether a system of relations is independent upwards and downwards,
    as :func:`check_independence` decides it."""

    __slots__ = ("upwards", "downwards")


def _require_endo(r: Relation) -> Carrier:
    if r.source != r.target:
        raise CarrierMismatch("operation requires source = target")
    return r.source


def compose(v: Relation, u: Relation) -> Relation:
    """The product VU: u runs first, v second."""
    if u.target != v.source:
        raise CarrierMismatch("compose needs U.target = V.source")
    rows = [_union(v._rows, row) for row in u._rows]
    return _from_rows(u.source, v.target, rows)


def inverse(r: Relation) -> Relation:
    return _from_rows(r.target, r.source, r._cols, r._rows)


def restrict(r: Relation, atoms) -> Relation:
    carrier = _require_endo(r)
    kept = list(_bits(_mask(carrier, atoms)))
    sub = Carrier(carrier.atoms[i] for i in kept)
    return _from_rows(sub, sub, [_gather(r._rows[i], kept) for i in kept])


def power(r: Relation, m: int) -> Relation:
    """r^m for m >= 1 from O(log m) products, by squaring and multiplying
    (powers of r commute)."""
    _require_endo(r)
    if isinstance(m, bool) or not isinstance(m, int) or m < 1:
        raise BadExponent(f"relation power needs m >= 1, got {m!r}")
    return square_and_multiply(r, m, compose)


def image(r: Relation, atoms) -> frozenset:
    """R[A]: everything reachable from A in one step."""
    return _atoms_of(r.target, _union(r._rows, _mask(r.source, atoms)))


def point_image(r: Relation, atom) -> frozenset:
    """R{x}."""
    return _atoms_of(r.target, r._rows[r.source.index(atom)])


def co_image(r: Relation, atoms) -> frozenset:
    """R<A>: targets reached from every member of A; the whole target
    carrier when A is empty."""
    acc = (1 << len(r.target)) - 1
    for i in _bits(_mask(r.source, atoms)):
        acc &= r._rows[i]
    return _atoms_of(r.target, acc)


def _rows(r: Relation):
    """Bit rows of an endorelation: bit j of rows[i] is the pair (atom i, atom j)."""
    _require_endo(r)
    return r._rows


# The base properties that guards need, one helper each over bit rows (and
# column masks), so a guard computes only its own flag.


def _reflexive(rows) -> bool:
    return all(row >> i & 1 for i, row in enumerate(rows))


def _antisymmetric(rows, cols) -> bool:
    return all(row & cols[i] & ~(1 << i) == 0 for i, row in enumerate(rows))


def _transitive(rows, cols) -> bool:
    """No pairs (i, j), (j, k) with k outside row i, checked for each row
    through its smaller side: the rows of i's successors must lie inside
    row i, or, when row i holds more than half the carrier, the columns of
    its non-successors must miss it.  Both state the same condition, so a
    check reads the sum over rows of min(|row|, n - |row|) masks: at most
    n^2/2, and about n^2/4 on a chain of n atoms."""
    n = len(rows)
    full = (1 << n) - 1
    for row in rows:
        if row.bit_count() * 2 <= n:
            rest = row
            outside = ~row
            while rest:
                low = rest & -rest
                if rows[low.bit_length() - 1] & outside:
                    return False
                rest ^= low
        else:
            rest = full ^ row
            while rest:
                low = rest & -rest
                if cols[low.bit_length() - 1] & row:
                    return False
                rest ^= low
    return True


def _connective(rows, cols) -> bool:
    full = (1 << len(rows)) - 1
    return all(row | cols[i] | 1 << i == full for i, row in enumerate(rows))


def _directive(rows, cols) -> bool:
    """X x X = R^-1 R: every two points have a common successor.  The
    points that share a successor with x are the union of the columns of
    x's successors, so each row ORs columns until that union is full."""
    full = (1 << len(rows)) - 1
    for row in rows:
        shared = 0
        while row and shared != full:
            low = row & -row
            shared |= cols[low.bit_length() - 1]
            row ^= low
        if shared != full:
            return False
    return True


def _is_ordering(r: Relation) -> bool:
    rows = _rows(r)
    return _transitive(rows, r._cols) and _antisymmetric(rows, r._cols)


def classify(r: Relation) -> PropertyReport:
    rows = _rows(r)
    cols = r._cols

    reflexive = _reflexive(rows)
    antireflexive = not any(row >> i & 1 for i, row in enumerate(rows))
    symmetric = rows == cols
    antisymmetric = _antisymmetric(rows, cols)
    transitive = _transitive(rows, cols)
    connective = _connective(rows, cols)
    directive = _directive(rows, cols)

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
    rows = _rows(r)
    if not (_reflexive(rows) and _transitive(rows, r._cols) and rows == r._cols):
        raise NotEquivalence("relation is not an equivalence")
    return _partition(r.source.atoms, rows)[0]


def _partition(atoms, classes):
    """The blocks of a partition whose block around atom i is the mask
    classes[i], each a tuple in carrier order, listed by first member; and
    the index of each block's first member."""
    blocks, firsts, seen = [], [], 0
    for i, block in enumerate(classes):
        if not seen >> i & 1:
            seen |= block
            firsts.append(i)
            blocks.append(tuple(atoms[j] for j in _bits(block)))
    return blocks, firsts


def preorder_closure(r: Relation) -> Relation:
    """Smallest transitive relation containing r (union of all powers), by
    one Warshall pass: taking each atom k in turn as a midpoint, every
    predecessor of k gains all of k's successors, in rows and columns
    alike (Warshall, JACM 1962)."""
    carrier = _require_endo(r)
    rows, cols = list(r._rows), list(r._cols)
    for k in range(len(rows)):
        succ, pred = rows[k], cols[k]
        while pred:
            low = pred & -pred
            rows[low.bit_length() - 1] |= succ
            pred ^= low
        pred = cols[k]
        while succ:
            low = succ & -succ
            cols[low.bit_length() - 1] |= pred
            succ ^= low
    return _from_rows(carrier, carrier, rows, cols)


def antisymmetrize(r: Relation):
    """Quotient a transitive relation by its two-way pairs.

    Returns (blocks, s) where blocks partition the carrier into classes
    (mutually related pairs plus the diagonal) and s is the induced
    relation on class representatives; s is always an ordering, and it is
    reflexive whenever r is.
    """
    rows = _rows(r)
    if not _transitive(rows, r._cols):
        raise NotPreordering("antisymmetrize needs a transitive relation")
    atoms = r.source.atoms
    blocks, firsts = _partition(
        atoms, [row & r._cols[i] | 1 << i for i, row in enumerate(rows)]
    )
    # By transitivity each row is a union of blocks, and the members of a
    # block share one row; so s reads the rows of the first members there.
    reps = Carrier(atoms[i] for i in firsts)
    return blocks, _from_rows(reps, reps, [_gather(rows[i], firsts) for i in firsts])


def _covering(candidates, members, masks):
    """The candidates x whose mask, with x itself added, covers members."""
    found = 0
    for x, mask in enumerate(masks):
        if candidates >> x & 1 and members & ~(mask | 1 << x) == 0:
            found |= 1 << x
    return found


def _extremal_masks(r: Relation, a):
    """The masks of the minima, maxima, weak minima and weak maxima of the
    subset of r's carrier with mask a."""
    rows, cols = r._rows, r._cols
    return (
        _covering(a, a, rows),
        _covering(a, a, cols),
        sum(1 << x for x in _bits(a) if a & cols[x] & ~rows[x] == 0),
        sum(1 << x for x in _bits(a) if a & rows[x] & ~cols[x] == 0),
    )


def extremal(r: Relation, atoms) -> Extremal:
    rows = _rows(r)
    cols = r._cols
    carrier = r.source
    a = _mask(carrier, dict.fromkeys(atoms))

    full = (1 << len(rows)) - 1
    upper = _covering(full, a, cols)
    lower = _covering(full, a, rows)
    masks = (
        *_extremal_masks(r, a),
        upper,
        lower,
        _covering(upper, upper, rows),
        _covering(lower, lower, cols),
    )
    return Extremal(*(_atoms_of(carrier, m) for m in masks))


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
    if not _transitive(rows, r._cols):
        raise NotPreordering("least-upper-bound check needs a transitive relation")
    lub = _pairs_have_joins(rows)
    glb = _pairs_have_joins(r._cols)
    assert lub == glb, "least-upper-bound and greatest-lower-bound disagree"
    return lub


def order_variants(r: Relation):
    """Strict and weak forms (R minus diagonal, R plus diagonal) of an
    ordering.  Extremal elements are invariant across the three."""
    carrier = _require_endo(r)
    if not _is_ordering(r):
        raise NotOrdering("order_variants needs an ordering")

    def strict(masks):
        return [m & ~(1 << i) for i, m in enumerate(masks)]

    def weak(masks):
        return [m | 1 << i for i, m in enumerate(masks)]

    return (
        _from_rows(carrier, carrier, strict(r._rows), strict(r._cols)),
        _from_rows(carrier, carrier, weak(r._rows), weak(r._cols)),
    )


def pullback(r: Relation, domain: Carrier, mapping) -> Relation:
    """R_f: pairs whose images under f are related by r."""
    carrier = _require_endo(r)
    f = dict(mapping)
    for x in domain:
        if x not in f:
            raise NonTotalMap(f"map undefined on {x!r}")
        if f[x] not in carrier:
            raise NonTotalMap(f"map sends {x!r} outside the relation's carrier")
    image_of = [carrier.index(f[x]) for x in domain]
    rows = [_gather(r._rows[k], image_of) for k in image_of]
    return _from_rows(domain, domain, rows)


def _upwards(rows, cols, direction: str) -> bool:
    """Upwards independence of the family with bit rows rows[i] and columns
    cols[i], with the segment identity asserted when it holds."""
    # S-rows and S-columns: the AND of the family's masks.
    s_rows, s_cols = rows[0], cols[0]
    for member_rows, member_cols in zip(rows[1:], cols[1:]):
        s_rows = [a & b for a, b in zip(s_rows, member_rows)]
        s_cols = [a & b for a, b in zip(s_cols, member_cols)]
    # Each pair (x, s) of a member factors as (x, y) in S and (y, s) in the
    # member.
    independent = all(
        s_rows[x] & member_cols[s]
        for member_rows, member_cols in zip(rows, cols)
        for x, row in enumerate(member_rows)
        for s in _bits(row)
    )
    if independent:
        for member_cols in cols:
            for col in member_cols:
                assert col == _union(s_cols, col), (
                    f"{direction} segment identity failed"
                )
    return independent


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
        if not _transitive(rel._rows, rel._cols):
            raise NotPreordering("system members must be transitive")

    # Downwards independence of the family is upwards independence of its
    # inverses, whose rows are the members' columns.
    rows = [rel._rows for rel in system]
    cols = [rel._cols for rel in system]
    upwards = _upwards(rows, cols, "upwards")
    downwards = _upwards(cols, rows, "downwards")
    return IndependenceReport(upwards=upwards, downwards=downwards)


def order_type_finite(r: Relation):
    """Rank isomorphism of a finite well-ordering onto 0..n-1: an atom's
    rank is the number of its strict predecessors."""
    carrier = _require_endo(r)
    rows = _rows(r)
    cols = r._cols
    # Well-ordering: a connective ordering (see classify).
    if not (
        _transitive(rows, cols)
        and _antisymmetric(rows, cols)
        and _connective(rows, cols)
    ):
        raise NotWellOrdering("order type requires a well-ordering")
    by_rank = [None] * len(carrier)
    for i, col in enumerate(cols):
        by_rank[(col & ~(1 << i)).bit_count()] = carrier.atoms[i]
    return len(by_rank), {a: rank for rank, a in enumerate(by_rank)}


def _uncommented_split(line):
    return line.partition("#")[0].split()


def parse_relation(text: str) -> Relation:
    """Parse the relation file format.

    Line 1 (ignoring blank lines and # comments): ``carrier: a b c``.
    Every further line: two atoms forming a pair, ORed into the bit rows
    and column masks as it is read.  The lines after the carrier are split
    by one ``map``, which strips comments only when they hold a ``#``.
    """
    carrier = None
    lines = text.splitlines()
    for first, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if not line.startswith("carrier:"):
            raise ParseError("first line must start with 'carrier:'", first)
        atoms = line[len("carrier:"):].split()
        if not atoms:
            raise ParseError("carrier must list at least one atom", first)
        try:
            carrier = Carrier(atoms)
        except ValueError as exc:
            raise ParseError(str(exc), first) from None
        break
    if carrier is None:
        raise ParseError("missing carrier line", 1)
    body = lines[first:]
    split = _uncommented_split if "#" in "".join(body) else str.split
    get = carrier._index.get
    bits = [1 << k for k in range(len(carrier))]
    rows = [0] * len(carrier)
    cols = [0] * len(carrier)
    for lineno, parts in enumerate(map(split, body), start=first + 1):
        try:
            x, y = parts
        except ValueError:
            if not parts:
                continue
            raise ParseError(f"expected two atoms, got {len(parts)}", lineno) from None
        i = get(x)
        j = get(y)
        if i is None or j is None:
            unknown = x if i is None else y
            raise UnknownAtom(f"atom {unknown!r} not in carrier (line {lineno})")
        rows[i] |= bits[j]
        cols[j] |= bits[i]
    return _from_rows(carrier, carrier, rows, cols)
