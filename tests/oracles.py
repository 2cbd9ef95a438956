"""Independent brute-force oracles for the test suite.

Everything here recomputes definitions from scratch with the dumbest
possible loops: no code is shared with the library's algorithms, so an
agreement between the two is evidence, not tautology.
"""

import json
import math
from dataclasses import dataclass, fields
from fractions import Fraction
from itertools import combinations

from settower import dyadic as dy
from settower.cli import _FUNCTIONS
from settower.errors import (
    BadExponent,
    BadOrder,
    CarrierMismatch,
    DivisionNearZero,
    EmptyBlock,
    EmptyCarrier,
    EmptyFamily,
    ExprSyntaxError,
    NonPositiveDivisor,
    NonTotalMap,
    NotEquivalence,
    NotOrdering,
    NotPreordering,
    ParseError,
    SettowerError,
    SizeLimit,
    UnknownAtom,
)
from settower import reals
from settower.hfset import HFSet
from settower.reals import (
    CutReal,
    Real,
    real_abs,
    real_add,
    real_from_cut,
    real_from_dyadic,
    real_mul,
    real_neg,
    real_sub,
    real_tag,
)
from settower import relations
from settower.relations import Carrier, Relation, compose

# ---------------------------------------------------------------- relations


def props_oracle(atoms, pairs):
    """The seven base relation properties by literal quantifier loops."""
    atoms = list(atoms)
    reflexive = all((a, a) in pairs for a in atoms)
    antireflexive = all((a, a) not in pairs for a in atoms)
    symmetric = True
    antisymmetric = True
    transitive = True
    connective = True
    directive = True
    for x in atoms:
        for y in atoms:
            if (x, y) in pairs and (y, x) not in pairs:
                symmetric = False
            if x != y and (x, y) in pairs and (y, x) in pairs:
                antisymmetric = False
            if x != y and (x, y) not in pairs and (y, x) not in pairs:
                connective = False
            for z in atoms:
                if (x, y) in pairs and (y, z) in pairs and (x, z) not in pairs:
                    transitive = False
    for x in atoms:
        for z in atoms:
            if not any((x, y) in pairs and (z, y) in pairs for y in atoms):
                directive = False
    return {
        "reflexive": reflexive,
        "antireflexive": antireflexive,
        "symmetric": symmetric,
        "antisymmetric": antisymmetric,
        "transitive": transitive,
        "connective": connective,
        "directive": directive,
    }


def subsets_of(atoms):
    atoms = list(atoms)
    for k in range(len(atoms) + 1):
        yield from (list(c) for c in combinations(atoms, k))


def has_minimum_oracle(pairs, subset):
    return any(
        all(y == x or (x, y) in pairs for y in subset) for x in subset
    )


def min_property_oracle(atoms, pairs):
    return all(
        has_minimum_oracle(pairs, s) for s in subsets_of(atoms) if s
    )


def lub_oracle(atoms, pairs):
    """Every nonempty subset with an upper bound has a supremum, checked on
    every subset from the definitions."""
    atoms = list(atoms)
    for subset in subsets_of(atoms):
        if not subset:
            continue
        upper = [
            x for x in atoms if all(y == x or (y, x) in pairs for y in subset)
        ]
        if upper and not any(
            all(y == x or (x, y) in pairs for y in upper) for x in upper
        ):
            return False
    return True


def order_type_oracle(atoms, pairs):
    """Ranks of a finite well-ordering, peeling off the minimum each round."""
    remaining = list(atoms)
    iso = {}
    while remaining:
        front = [
            x for x in remaining
            if all(y == x or (x, y) in pairs for y in remaining)
        ]
        assert len(front) == 1, "well-ordering must have a unique minimum"
        iso[front[0]] = len(iso)
        remaining.remove(front[0])
    return len(iso), iso


def product_oracle(first_pairs, second_pairs):
    """Pairs (x, z) with an intermediate y: first runs first."""
    return frozenset(
        (x, z)
        for x, y in first_pairs
        for y2, z in second_pairs
        if y == y2
    )


def inverse_oracle(pairs):
    return frozenset((y, x) for x, y in pairs)


def closure_oracle(atoms, pairs):
    """Transitive closure by breadth-first reachability (length >= 1)."""
    adjacency = {a: [y for x, y in pairs if x == a] for a in atoms}
    out = set()
    for start in atoms:
        frontier = list(adjacency[start])
        seen = set()
        while frontier:
            node = frontier.pop()
            if node in seen:
                continue
            seen.add(node)
            frontier.extend(adjacency[node])
        out.update((start, t) for t in seen)
    return frozenset(out)


def matrix_power_oracle(atoms, pairs, m):
    """Boolean matrix product iterated m times."""
    atoms = list(atoms)
    idx = {a: i for i, a in enumerate(atoms)}
    n = len(atoms)
    base = [[False] * n for _ in range(n)]
    for x, y in pairs:
        base[idx[x]][idx[y]] = True
    acc = [row[:] for row in base]
    for _ in range(m - 1):
        nxt = [[False] * n for _ in range(n)]
        for i in range(n):
            for j in range(n):
                nxt[i][j] = any(acc[i][k] and base[k][j] for k in range(n))
        acc = nxt
    return frozenset(
        (atoms[i], atoms[j]) for i in range(n) for j in range(n) if acc[i][j]
    )


def power_chain(r, m):
    """r^m as the linear chain r r ... r of m - 1 compositions: the
    reference for relations.power, which squares and multiplies."""
    acc = r
    for _ in range(m - 1):
        acc = compose(acc, r)
    return acc


def extremal_oracle(atoms, pairs, subset):
    atoms = list(atoms)
    subset = list(subset)

    def minima_in(members):
        return frozenset(
            x
            for x in members
            if all(y == x or (x, y) in pairs for y in members)
        )

    def maxima_in(members):
        return frozenset(
            x
            for x in members
            if all(y == x or (y, x) in pairs for y in members)
        )

    upper = [
        x
        for x in atoms
        if all(y == x or (y, x) in pairs for y in subset)
    ]
    lower = [
        x
        for x in atoms
        if all(y == x or (x, y) in pairs for y in subset)
    ]
    weak_min = frozenset(
        x
        for x in subset
        if all((x, y) in pairs for y in subset if (y, x) in pairs)
    )
    weak_max = frozenset(
        x
        for x in subset
        if all((y, x) in pairs for y in subset if (x, y) in pairs)
    )
    return {
        "minima": minima_in(subset),
        "maxima": maxima_in(subset),
        "weak_minima": weak_min,
        "weak_maxima": weak_max,
        "upper_bounds": frozenset(upper),
        "lower_bounds": frozenset(lower),
        "suprema": minima_in(upper),
        "infima": maxima_in(lower),
    }


def relcheck_report(text, fmt):
    """relcheck's exit status, stdout and stderr for the relation file text
    in format fmt, rendered from the public parse_relation, classify and
    extremal as relcheck printed them before it read the four masks alone:
    each extremal set listed by a rescan of the carrier."""
    try:
        r = relations.parse_relation(text)
    except SettowerError as exc:
        return 1, "", f"error: {exc}\n"
    out = []
    for name, value in relations.classify(r).as_dict().items():
        shown = name.replace("_", "-")
        if fmt == "json-lines":
            record = {"kind": "property", "name": shown, "value": value}
            out.append(json.dumps(record, sort_keys=True))
        else:
            out.append(f"{shown}: {'yes' if value else 'no'}")
    ext = relations.extremal(r, r.carrier.atoms)
    for label in ("minima", "maxima", "weak_minima", "weak_maxima"):
        found = getattr(ext, label)
        ordered = [a for a in r.carrier if a in found]
        shown = label.replace("_", "-")
        if fmt == "json-lines":
            record = {"atoms": ordered, "kind": "extremal", "name": shown}
            out.append(json.dumps(record, sort_keys=True))
        else:
            out.append(f"{shown}: {' '.join(ordered) if ordered else '(none)'}")
    return 0, "".join(line + "\n" for line in out), ""


def all_pairsets(atoms):
    """Every relation on the carrier, as a frozenset of pairs."""
    atoms = list(atoms)
    grid = [(x, y) for x in atoms for y in atoms]
    for mask in range(1 << len(grid)):
        yield frozenset(
            grid[i] for i in range(len(grid)) if mask >> i & 1
        )


# The pair-quantified bodies that relations.antisymmetrize,
# equivalence_partition, pullback, check_independence and
# countability.zorn_max_finite had before they moved onto bit rows; the
# guards re-derive their flags from props_oracle.  Each takes and returns
# what the library function does, errors included.


def _endo_carrier(r):
    if r.source != r.target:
        raise CarrierMismatch("operation requires source = target")
    return r.source


def _flags(r):
    return props_oracle(r.source, r.pairs)


def equivalence_partition_oracle(r):
    carrier = _endo_carrier(r)
    flags = _flags(r)
    if not (flags["reflexive"] and flags["symmetric"] and flags["transitive"]):
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


def antisymmetrize_oracle(r):
    carrier = _endo_carrier(r)
    if not _flags(r)["transitive"]:
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


def pullback_oracle(r, domain, mapping):
    _endo_carrier(r)
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


def check_independence_oracle(system):
    system = list(system)
    if not system:
        raise EmptyFamily("independence check needs at least one relation")
    carrier = _endo_carrier(system[0])
    for rel in system[1:]:
        if _endo_carrier(rel) != carrier:
            raise CarrierMismatch("system members live on different carriers")
    for rel in system:
        if not _flags(rel)["transitive"]:
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
    return relations.IndependenceReport(upwards=upwards, downwards=downwards)


def zorn_max_oracle(r):
    carrier = r.carrier
    if len(carrier) == 0:
        raise EmptyCarrier("no atoms to maximize over")
    flags = _flags(r)
    if not (flags["transitive"] and flags["antisymmetric"]):
        raise NotOrdering("weak-maximum search needs an ordering")
    p = r.pairs

    def comparable(a, b):
        return a == b or (a, b) in p or (b, a) in p

    chain = []
    while True:
        extension = next(
            (
                z
                for z in carrier
                if z not in chain and all(comparable(z, c) for c in chain)
            ),
            None,
        )
        if extension is None:
            break
        chain.append(extension)
    top = next(
        x for x in chain if all(y == x or (y, x) in p for y in chain)
    )
    return top


# The bodies that relations.parse_relation, preorder_closure, the
# transitivity and directive flags, and countability.well_order_finite had
# before the reader filled bit rows in one pass, the closure became
# Warshall's and the default well-ordering was read off the carrier.  Each
# takes and returns what the library function does, errors included.


def _row_bits(mask):
    return [j for j in range(mask.bit_length()) if mask >> j & 1]


def columns_of_rows(r):
    """The column masks of a relation, read off its rows bit by bit."""
    rows = r._rows
    return tuple(
        sum(1 << i for i, row in enumerate(rows) if row >> j & 1)
        for j in range(len(r.target))
    )


def parse_relation_two_pass(text):
    """Validate every line into a pair list, then build the relation from
    it (which checks each pair again)."""
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


def preorder_closure_sweeps(r):
    """Sweep the rows, ORing in the rows of each row's successors, until a
    sweep changes nothing."""
    carrier = _endo_carrier(r)
    rows = list(r._rows)
    changed = True
    while changed:
        changed = False
        for i, row in enumerate(rows):
            acc = row
            for j in _row_bits(row):
                acc |= rows[j]
            if acc != row:
                rows[i] = acc
                changed = True
    atoms = carrier.atoms
    pairs = [(atoms[i], atoms[j]) for i, row in enumerate(rows) for j in _row_bits(row)]
    return Relation.on(carrier, pairs)


def transitive_generator(rows):
    """Every successor's row lies inside the row, by nested generators."""
    return all(rows[j] & ~row == 0 for row in rows for j in _row_bits(row))


def directive_pair_scan(rows):
    """Every two rows, a row with itself included, share a bit."""
    n = len(rows)
    return all(rows[x] & rows[z] for x in range(n) for z in range(x, n))


def well_order_pair_list(carrier, choice=None):
    """Pick from what is left until nothing is; the default picks the first
    atom in carrier order.  Every earlier pick precedes every later one."""
    if choice is None:

        def choose(block):
            for a in carrier:
                if a in block:
                    return a
            raise EmptyBlock("cannot choose from an empty block")

    elif callable(choice):
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
    pairs = [
        (ordered[i], ordered[j])
        for i in range(len(ordered))
        for j in range(i + 1, len(ordered))
    ]
    return Relation.on(carrier, pairs)


# The frozen dataclasses that relations.PropertyReport, Extremal and
# IndependenceReport were before they became slot records.  They keep the
# library's class names, so their reprs read the same.


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


# ------------------------------------------------------------------ dyadics


def to_fraction(d) -> Fraction:
    return Fraction(d.sign * d.man, 1 << d.exp)


def is_dyadic_fraction(fr: Fraction) -> bool:
    return fr.denominator & (fr.denominator - 1) == 0


def make_loop(man, exp, sign=1):
    """Canonical (sign, mantissa, exponent) by halving one bit per pass:
    the library's original make, kept as the reference for its shift."""
    if man == 0 or sign == 0:
        return (0, 0, 0)
    while man % 2 == 0 and exp > 0:
        man //= 2
        exp -= 1
    return (sign, man, exp)


def _triple_of_num(num, exp):
    return make_loop(-num, exp, -1) if num < 0 else make_loop(num, exp)


def add_cross(d, e):
    """d + e as a triple, worked on the product grid 2^-(u+v)."""
    num = (d.sign * d.man << e.exp) + (e.sign * e.man << d.exp)
    return _triple_of_num(num, d.exp + e.exp)


def sub_cross(d, e):
    num = (d.sign * d.man << e.exp) - (e.sign * e.man << d.exp)
    return _triple_of_num(num, d.exp + e.exp)


def compare_cross(d, e):
    """Order by cross-multiplication onto the grid 2^-(u+v)."""
    left = d.sign * d.man << e.exp
    right = e.sign * e.man << d.exp
    return (left > right) - (left < right)


def compare_normalized(d, e):
    """Order of d and e as normalized binary floats: by sign, then by the
    place of the leading one bit (bit length minus exponent), then by the
    mantissas widened to one bit length.  Nothing is put on a common grid,
    so no step is shared with dyadic.compare, and exponents of any size
    cost nothing."""
    if d.sign != e.sign:
        return (d.sign > e.sign) - (d.sign < e.sign)
    lead_d, lead_e = d.man.bit_length() - d.exp, e.man.bit_length() - e.exp
    if lead_d != lead_e:
        return d.sign * (1 if lead_d > lead_e else -1)
    width = max(d.man.bit_length(), e.man.bit_length())
    left = d.man << (width - d.man.bit_length())
    right = e.man << (width - e.man.bit_length())
    return d.sign * ((left > right) - (left < right))


def _aligned_numerators(d, e):
    """Numerators of d and e on the grid 2^-max(u, v): the coarser operand
    shifts up, and SizeLimit when it is nonzero and the shift passes
    POW_BIT_LIMIT bits."""
    shift = d.exp - e.exp
    coarse = e if shift >= 0 else d
    if abs(shift) > dy.POW_BIT_LIMIT and coarse.sign:
        raise SizeLimit("sum")
    if shift >= 0:
        return d.sign * d.man, e.sign * e.man << shift
    return d.sign * d.man << -shift, e.sign * e.man


def compare_aligned(d, e):
    """The library's two-path compare, kept as the reference for the one
    path that replaced it: numerators on the common grid, and only when
    that grid is refused, the signs and then the floor of the finer
    mantissa shifted down to the coarser grid."""
    try:
        left, right = _aligned_numerators(d, e)
    except SizeLimit:
        if d.sign != e.sign:
            return d.sign
        if d.exp > e.exp:
            above = d.man >> (d.exp - e.exp) >= e.man
        else:
            above = d.man > e.man >> (e.exp - d.exp)
        return d.sign if above else -d.sign
    return (left > right) - (left < right)


def _directed_shift_both(a, b, p):
    """Numerator and denominator of a/b * 2^p, each shifted up by the
    other's exponent, after the library's checks of b and p."""
    if b.sign <= 0:
        raise NonPositiveDivisor(f"directed division needs b > 0, got {b}")
    dy._nat(p, "precision")
    return (
        dy._shl(a.sign * a.man, b.exp + p, "quotient"),
        dy._shl(b.man, a.exp, "quotient"),
    )


def div_floor_shift_both(a, b, p):
    """The library's div_floor before it shifted only the dividend, kept as
    the reference for the one shift that replaced the two: a floor division
    by b's mantissa shifted up by a's exponent."""
    num, den = _directed_shift_both(a, b, p)
    return dy._signed(num // den, p)


def div_ceil_shift_both(a, b, p):
    num, den = _directed_shift_both(a, b, p)
    return dy._signed(-(-num // den), p)


def exact_div_power_of_two(d, e):
    """The library's exact_div before it divided by odd parts: d/e only for
    a divisor whose mantissa is a power of two, else None."""
    if not e.man or e.man & (e.man - 1):
        return None
    scaled = dy._shl(d.sign * d.man, e.exp, "quotient")
    return dy._signed(scaled * e.sign, d.exp + e.man.bit_length() - 1)


def triple(d):
    return (d.sign, d.man, d.exp)


# ------------------------------------------------------------------- hfsets


def freeze(x: HFSet):
    """Translate to the plain nested-frozenset model."""
    return frozenset(freeze(e) for e in x.elements)


def thaw(fs) -> HFSet:
    return HFSet.of(*(thaw(e) for e in fs))


def union_oracle(family):
    out = set()
    for member in family:
        out |= member
    return frozenset(out)


def intersection_oracle(family):
    family = list(family)
    out = set(family[0])
    for member in family[1:]:
        out &= member
    return frozenset(out)


def power_oracle(fs):
    elems = list(fs)
    return frozenset(
        frozenset(c)
        for k in range(len(elems) + 1)
        for c in combinations(elems, k)
    )


def kuratowski_oracle(x, y):
    return frozenset({frozenset({x, y}), frozenset({x})})


def cartesian_oracle(xs, ys):
    return frozenset(kuratowski_oracle(x, y) for x in xs for y in ys)


def code_oracle(fs, _memo=None):
    if _memo is None:
        _memo = {}
    got = _memo.get(fs)
    if got is None:
        got = sum(1 << code_oracle(e, _memo) for e in fs)
        _memo[fs] = got
    return got


def nat_frozen(n):
    out = frozenset()
    for _ in range(n):
        out = out | {out}
    return out


def is_full_frozen(fs) -> bool:
    return all(e <= fs for e in fs)


def is_ordinal_frozen(fs) -> bool:
    """Literal definition: full, and every nonempty subset of the elements
    has a member that belongs to all the others."""
    if not fs:
        return True
    if not is_full_frozen(fs):
        return False
    elems = list(fs)
    for k in range(1, len(elems) + 1):
        for sub in combinations(elems, k):
            if not any(
                all(y == x or x in y for y in sub) for x in sub
            ):
                return False
    return True


# Bit-level model: the set with Ackermann code c has as elements the sets
# whose codes are the positions of c's set bits; i is a member of j exactly
# when bit i of j is set.


def code_bits(c):
    out = []
    i = 0
    while c:
        if c & 1:
            out.append(i)
        c >>= 1
        i += 1
    return out


def code_is_full(c) -> bool:
    return all(i & c == i for i in code_bits(c))


def code_is_ordinal(c) -> bool:
    if c == 0:
        return True
    if not code_is_full(c):
        return False
    bits = code_bits(c)
    for k in range(1, len(bits) + 1):
        for sub in combinations(bits, k):
            if not any(
                all(j == i or (j >> i) & 1 for j in sub) for i in sub
            ):
                return False
    return True


def from_code(c, _memo=None) -> HFSet:
    if _memo is None:
        _memo = {}
    got = _memo.get(c)
    if got is None:
        got = HFSet.of(*(from_code(i, _memo) for i in code_bits(c)))
        _memo[c] = got
    return got


def compare_walk(a: HFSet, b: HFSet) -> int:
    """Code order by walking both element lists from the largest element
    down; the first disagreement decides and a longer list wins a tie."""
    if a is b:
        return 0
    xs, ys = a.elements, b.elements
    i, j = len(xs) - 1, len(ys) - 1
    while i >= 0 and j >= 0:
        c = compare_walk(xs[i], ys[j])
        if c != 0:
            return c
        i -= 1
        j -= 1
    if i >= 0:
        return 1
    if j >= 0:
        return -1
    return 0


def str_nested(x: HFSet) -> str:
    """Brace serialization by recursion: one level of Python stack per
    level of nesting."""
    return "{" + ",".join(map(str_nested, x.elements)) + "}"


def parse_descent(text: str) -> HFSet:
    """Recursive-descent parser of the brace serialization."""
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


# --------------------------------------------------------------------- cuts


def assert_cut_invariants(x, upto=40):
    """Nesting, nonnegativity, and the width bound on a precision prefix."""
    prev = None
    for n in range(upto + 1):
        lo, hi = x.query(n)
        assert lo.sign >= 0, f"lo({n}) = {lo} negative"
        flo, fhi = to_fraction(lo), to_fraction(hi)
        assert flo <= fhi, f"crossed endpoints at {n}"
        assert fhi - flo <= Fraction(1, 1 << n), f"width bound broken at {n}"
        if prev is not None:
            plo, phi = prev
            assert plo <= flo and fhi <= phi, f"nesting broken at {n}"
        prev = (flo, fhi)


def cut_brackets(x, fr: Fraction, n: int) -> bool:
    lo, hi = x.query(n)
    return to_fraction(lo) <= fr <= to_fraction(hi)


def reciprocal_oracle(d, n):
    """Bounds on 1/d at precision n for a non-power-of-two d > 0: 1/d
    rounded down and up onto the 2^-(n+1) grid, with Fractions."""
    q = 1 / to_fraction(d)
    scale = 1 << (n + 1)
    return Fraction(math.floor(q * scale), scale), Fraction(math.ceil(q * scale), scale)


def floor_then_widen(d):
    """The embedding of a binary fraction d >= 0 before reals had one leaf
    rule: d rounded down and up onto the 2^-(n+1) grid, then the lower end
    moved one grid step down, clamped at 0.  The reference that every
    interval of reals.from_dyadic lies inside."""

    def fn(n):
        p = n + 1
        if d.exp <= p:
            low = hi = d
        else:
            low, hi = dy.div_floor(d, dy.ONE, p), dy.div_ceil(d, dy.ONE, p)
        lo = dy.sub(low, dy.make(1, p))
        return (dy.ZERO if lo.sign < 0 else lo), hi

    return CutReal(fn, tag=d)


def reciprocal_closure(d):
    """reals.reciprocal before it became the leaf of 1/d: floor_then_widen
    of 1/d when d is a power of two, else its own closure, 1/d rounded down
    and up onto the 2^-(n+1) grid.  The leaf must answer as it did."""
    flipped = dy.exact_div(dy.ONE, d)
    if flipped is not None:
        return floor_then_widen(flipped)

    def fn(n):
        p = n + 1
        return dy.div_floor(dy.ONE, d, p), dy.div_ceil(dy.ONE, d, p)

    return CutReal(fn)


def pow_chain(x, m, times, one):
    """x^m as the linear product chain one * x * ... * x: the reference
    for powers (reals.pow_nat's node and the CLI's ^)."""
    acc = one
    for _ in range(m):
        acc = times(acc, x)
    return acc


def power_guard_first_step(lo, hi, m):
    """dy._power_guard as it was before it bounded the lower chain's last
    step: a power is refused only where the first square of dy._powers
    passes the product measure at every precision.  The reference for the
    powers the guard answers."""
    b = m.bit_length()
    g = b + b.bit_length() + 5 + dy._power_bits(hi, m - 1)
    if 2 * g - 2 > dy.POW_BIT_LIMIT and dy.compare(lo, dy.HALF) >= 0:
        raise dy._too_wide("product")
    return g


# The general oracle nodes of settower.reals, without zero folding: every
# operand is queried, whatever its tag.  Folding in mul, _posdiff and
# real_abs must reproduce their endpoints at every precision and may only
# add tags.  generic_add is the binary add that reals.add was before it
# became the Sum node of two operands, and generic_sum_cuts the Sum node
# that still counted its ZERO_CUT operands in k; the library's sums must
# agree with them in tags and in what they bracket, not in endpoints.


def generic_add(x, y):
    def fn(n):
        lx, hx = x.query(n + 1)
        ly, hy = y.query(n + 1)
        return dy.add(lx, ly), dy.add(hx, hy)

    tag = None
    if x.tag is not None and y.tag is not None:
        tag = dy.add(x.tag, y.tag)
    return CutReal(fn, tag=tag)


def _generic_mul_guard(x, y):
    s = dy.add(x.hi(0), y.hi(0))
    if s.sign <= 0:
        return 0
    return max(0, (s.man - 1).bit_length() - s.exp)


def generic_mul(x, y):
    guard = []

    def fn(n):
        if not guard:
            guard.append(_generic_mul_guard(x, y))
        k = n + guard[0] + 2
        lx, hx = x.query(k)
        ly, hy = y.query(k)
        p = n + 3
        return (
            dy.div_floor(dy.mul(lx, ly), dy.ONE, p),
            dy.div_ceil(dy.mul(hx, hy), dy.ONE, p),
        )

    tag = None
    if x.tag is not None and y.tag is not None:
        tag = dy.mul(x.tag, y.tag)
    return CutReal(fn, tag=tag)


def generic_real_abs(x):
    def fn(n):
        lp, hp = x.pos.query(n + 1)
        ln, hn = x.neg.query(n + 1)
        lo = dy.dy_max(dy.ZERO, dy.dy_max(dy.sub(lp, hn), dy.sub(ln, hp)))
        hi = dy.dy_max(dy.sub(hp, ln), dy.sub(hn, lp))
        return lo, hi

    tag = None
    if x.pos.tag is not None and x.neg.tag is not None:
        tag = dy.dy_abs(dy.sub(x.pos.tag, x.neg.tag))
    return CutReal(fn, tag=tag)


def generic_posdiff(a, b):
    def fn(n):
        la, ha = a.query(n + 1)
        lb, hb = b.query(n + 1)
        lo = dy.dy_max(dy.ZERO, dy.sub(la, hb))
        hi = dy.dy_max(dy.ZERO, dy.sub(ha, lb))
        return lo, hi

    # Exact values pass through nodes, so this node is tagged as reals._tag
    # tags _posdiff: the clamped difference, None when it is refused.
    tag = None
    if a.tag is not None and b.tag is not None:
        try:
            tag = dy.dy_max(dy.ZERO, dy.sub(a.tag, b.tag))
        except SizeLimit:
            pass
    return CutReal(fn, tag=tag)


def generic_sum_cuts(xs):
    xs = list(xs)
    guard = (len(xs) - 1).bit_length() + 1

    def fn(n):
        lo = hi = dy.ZERO
        for x in xs:
            lx, hx = x.query(n + guard)
            lo, hi = dy.add(lo, lx), dy.add(hi, hx)
        p = n + 2
        return dy.div_floor(lo, dy.ONE, p), dy.div_ceil(hi, dy.ONE, p)

    tag = None
    if all(x.tag is not None for x in xs):
        tag = sum((x.tag for x in xs), dy.ZERO)
    return CutReal(fn, tag=tag)


GENERIC_NODES = {
    "add": generic_add,
    "mul": generic_mul,
    "real_abs": generic_real_abs,
    "_posdiff": generic_posdiff,
    "sum_cuts": generic_sum_cuts,
}


# The five tag blocks that sum_cuts, mul, sup_finite, _posdiff and
# canonicalize each wrote out before reals._tag replaced them, as functions
# of the operands' tags: the reference for that helper wherever the tags
# stay small.  Only the sum's block caught SizeLimit.


def sum_cuts_tag(tags):
    if any(t is None for t in tags):
        return None
    tag = tags[0]
    try:
        for t in tags[1:]:
            tag = dy.add(tag, t)
    except SizeLimit:
        return None
    return tag


def mul_tag(x, y):
    if x is None or y is None:
        return None
    return dy.mul(x, y)


def sup_finite_tag(tags):
    if any(t is None for t in tags):
        return None
    tag = tags[0]
    for t in tags[1:]:
        tag = dy.dy_max(tag, t)
    return tag


def posdiff_tag(a, b):
    if a is None or b is None:
        return None
    return dy.dy_max(dy.ZERO, dy.sub(a, b))


def canonicalize_tags(pos, neg):
    """The tags of canonicalize's (pos, neg) pair: the exact difference on
    one side and zero on the other, or the tags of its two _posdiff nodes."""
    if pos is not None and neg is not None:
        d = dy.sub(pos, neg)
        return (d, dy.ZERO) if d.sign >= 0 else (dy.ZERO, dy.neg(d))
    return posdiff_tag(pos, neg), posdiff_tag(neg, pos)


def add_fold(xs):
    """A sum of cuts as the left fold of generic_add, the binary add with
    which the CLI summed a run of + before reals.sum_cuts: the reference
    for that node."""
    acc = xs[0]
    for x in xs[1:]:
        acc = generic_add(acc, x)
    return acc


def formula_max(x, y):
    """max(x, y) of signed reals as (x + y + |x - y|) / 2: the CLI's sup
    before reals.real_sup, the reference for that balanced tree."""
    gap = real_from_cut(real_abs(real_sub(x, y)))
    total = real_add(real_add(x, y), gap)
    return real_mul(total, real_from_dyadic(dy.HALF))


# ---------------------------------------------------------------- cli


_KEYWORDS = {"let", "in"}
_OP_CHARS = set("+-*/^(),=")


def tokenize_by_char(text: str):
    """The CLI's tokenizer before it bound its hot names and tested
    operators and whitespace first: one character class test after another,
    with len(text) read at every step.  The reference for cli._tokenize."""
    tokens = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < len(text) and text[j].isdigit():
                j += 1
            if j < len(text) and text[j] == "." and j + 1 < len(text) and text[j + 1].isdigit():
                j += 1
                while j < len(text) and text[j].isdigit():
                    j += 1
            tokens.append(("num", text[i:j], i))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                j += 1
            word = text[i:j]
            tokens.append(("kw" if word in _KEYWORDS else "name", word, i))
            i = j
            continue
        if ch in _OP_CHARS:
            tokens.append(("op", ch, i))
            i += 1
            continue
        raise ExprSyntaxError(f"unexpected character {ch!r}", i)
    tokens.append(("end", "", len(text)))
    return tokens


class BinaryDescent:
    """The eval grammar by recursive descent, one method per precedence
    level, each building a left-deep ("bin", op, left, right) tree; a
    prefix minus and a let recurse once per sign and per clause."""

    def __init__(self, text: str):
        self.tokens = tokenize_by_char(text)
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos]

    def take(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect_op(self, ch):
        kind, text, at = self.take()
        if kind != "op" or text != ch:
            raise ExprSyntaxError(f"expected {ch!r}", at)

    def parse(self):
        node = self.expr()
        kind, text, at = self.peek()
        if kind != "end":
            raise ExprSyntaxError(f"trailing input {text!r}", at)
        return node

    def expr(self):
        kind, text, at = self.peek()
        if kind == "kw" and text == "let":
            self.take()
            nkind, name, nat_ = self.take()
            if nkind != "name":
                raise ExprSyntaxError("expected a name after 'let'", nat_)
            self.expect_op("=")
            bound = self.expr()
            kkind, ktext, kat = self.take()
            if kkind != "kw" or ktext != "in":
                raise ExprSyntaxError("expected 'in'", kat)
            body = self.expr()
            return ("let", name, bound, body)
        return self.additive()

    def additive(self):
        node = self.multiplicative()
        while True:
            kind, text, _ = self.peek()
            if kind == "op" and text in "+-":
                self.take()
                node = ("bin", text, node, self.multiplicative())
            else:
                return node

    def multiplicative(self):
        node = self.unary()
        while True:
            kind, text, _ = self.peek()
            if kind == "op" and text in "*/":
                self.take()
                node = ("bin", text, node, self.unary())
            else:
                return node

    def unary(self):
        kind, text, _ = self.peek()
        if kind == "op" and text == "-":
            self.take()
            return ("neg", self.unary())
        return self.power()

    def power(self):
        node = self.atom()
        while True:
            kind, text, _ = self.peek()
            if kind == "op" and text == "^":
                self.take()
                node = ("bin", "^", node, self.atom())
            else:
                return node

    def atom(self):
        kind, text, at = self.take()
        if kind == "num":
            try:
                return ("num", dy.parse_dyadic(text))
            except ExprSyntaxError as exc:
                raise ExprSyntaxError(exc.message, at) from None
        if kind == "name":
            pkind, ptext, _ = self.peek()
            if pkind == "op" and ptext == "(":
                if text not in _FUNCTIONS:
                    raise ExprSyntaxError(f"unknown function {text!r}", at)
                self.take()
                args = [self.expr()]
                while True:
                    ckind, ctext, cat = self.take()
                    if ckind == "op" and ctext == ",":
                        args.append(self.expr())
                    elif ckind == "op" and ctext == ")":
                        break
                    else:
                        raise ExprSyntaxError("expected ',' or ')'", cat)
                low, high = _FUNCTIONS[text]
                if len(args) < low or (high is not None and len(args) > high):
                    raise ExprSyntaxError(
                        f"{text}() takes {low}{'' if high == low else '+'} "
                        f"argument(s), got {len(args)}",
                        at,
                    )
                return ("call", text, args)
            return ("var", text, at)
        if kind == "op" and text == "(":
            node = self.expr()
            self.expect_op(")")
            return node
        raise ExprSyntaxError(f"unexpected {text!r}" if text else "unexpected end of input", at)


_LEVELS = ("+-", "*/", "^")


class RunDescent:
    """The eval grammar by descent, one method per precedence level, each
    reading a run of its operators by a loop into one ("chain", ops,
    operands) node, with a ("var", name, position) node per name read and
    a ("let", bindings, body) node per run of let clauses; no node is
    shared.  It is the reference for cli.parse_expr, which accepts the
    same texts and reports the same error at the same position, and the
    parser of the reference evaluators below, which walk its trees.  A
    parenthesis level costs six frames, as it does in BinaryDescent."""

    def __init__(self, text: str):
        self.tokens = tokenize_by_char(text)
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos]

    def take(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect_op(self, ch):
        kind, text, at = self.take()
        if kind != "op" or text != ch:
            raise ExprSyntaxError(f"expected {ch!r}", at)

    def parse(self):
        node = self.expr()
        kind, text, at = self.peek()
        if kind != "end":
            raise ExprSyntaxError(f"trailing input {text!r}", at)
        return node

    def expr(self):
        bindings = []
        while self.peek()[1] == "let":
            self.take()
            nkind, name, nat_ = self.take()
            if nkind != "name":
                raise ExprSyntaxError("expected a name after 'let'", nat_)
            self.expect_op("=")
            bound = self.expr()
            kkind, ktext, kat = self.take()
            if kkind != "kw" or ktext != "in":
                raise ExprSyntaxError("expected 'in'", kat)
            bindings.append((name, bound))
        body = self.chain(0)
        return ("let", bindings, body) if bindings else body

    def chain(self, level):
        symbols = _LEVELS[level]
        node = self.chain(1) if level == 0 else self.unary() if level == 1 else self.atom()
        kind, text, _ = self.peek()
        if kind != "op" or text not in symbols:
            return node
        ops, operands = [], [node]
        while kind == "op" and text in symbols:
            self.take()
            ops.append(text)
            operands.append(
                self.chain(1) if level == 0 else self.unary() if level == 1 else self.atom()
            )
            kind, text, _ = self.peek()
        return ("chain", ops, operands)

    def unary(self):
        odd = False
        while self.peek()[1] == "-":
            self.take()
            odd = not odd
        node = self.chain(2)
        return ("neg", node) if odd else node

    def atom(self):
        kind, text, at = self.take()
        if kind == "num":
            try:
                return ("num", dy.parse_dyadic(text))
            except ExprSyntaxError as exc:
                raise ExprSyntaxError(exc.message, at) from None
        if kind == "name":
            pkind, ptext, _ = self.peek()
            if pkind == "op" and ptext == "(":
                if text not in _FUNCTIONS:
                    raise ExprSyntaxError(f"unknown function {text!r}", at)
                self.take()
                args = [self.expr()]
                while True:
                    ckind, ctext, cat = self.take()
                    if ckind == "op" and ctext == ",":
                        args.append(self.expr())
                    elif ckind == "op" and ctext == ")":
                        break
                    else:
                        raise ExprSyntaxError("expected ',' or ')'", cat)
                low, high = _FUNCTIONS[text]
                if len(args) < low or (high is not None and len(args) > high):
                    raise ExprSyntaxError(
                        f"{text}() takes {low}{'' if high == low else '+'} "
                        f"argument(s), got {len(args)}",
                        at,
                    )
                return ("call", text, args)
            return ("var", text, at)
        if kind == "op" and text == "(":
            node = self.expr()
            self.expect_op(")")
            return node
        raise ExprSyntaxError(f"unexpected {text!r}" if text else "unexpected end of input", at)


# The CLI evaluator before every value became a Real: a value is a Dyadic
# while every step stays exact, else a Real, and each operator has one rule
# for exact operands and one for the rest.  It is the reference for
# cli.evaluate: cli.main prints the same bytes with evaluate_two_types in
# its place.  Its Real operations are looked up in reals when called,
# so a test can put the generic nodes in their place; a power of a Real is
# reals.real_pow's node, as it is in the CLI.


def _as_real(value):
    return real_from_dyadic(value) if isinstance(value, dy.Dyadic) else value


def _invert(value, prec, leaves):
    """Reciprocal: exact when possible, else the reciprocal leaf of the
    dyadic's magnitude, else an interval whose sign was certified at
    precision prec; leaves holds each exact divisor's reciprocal."""
    if isinstance(value, dy.Dyadic):
        got = leaves.get(value)
        if got is None:
            if value.sign == 0:
                raise DivisionNearZero("division by exact zero")
            if value.sign < 0:
                got = _invert(dy.neg(value), prec, leaves)
                got = dy.neg(got) if isinstance(got, dy.Dyadic) else real_neg(got)
            else:
                leaf = reals.reciprocal(value)
                got = real_from_cut(leaf) if leaf.tag is None else leaf.tag
            leaves[value] = got
        return got
    side = reals.compare_eps(value.pos, value.neg, prec + 1)
    if side is reals.Comparison.INDISTINGUISHABLE:
        raise DivisionNearZero(f"divisor not certified nonzero at precision {prec}")
    flipped = real_from_cut(reals.inverse(reals.real_abs(value), prec))
    return real_neg(flipped) if side is reals.Comparison.LESS else flipped


def _nat_exponent(value):
    if isinstance(value, dy.Dyadic) and value.exp == 0 and value.sign >= 0:
        return value.man
    raise BadExponent("exponent must be an exact natural number")


def _sum_run(ops, operands, env, prec, leaves):
    """A run of + and - operands, evaluated in order; then its exact
    operands, negated for -, are summed exactly from left to right.  With
    no Real that sum is the value; otherwise the Reals and that sum make
    one real_sum, or, when the sum passes the size limit, the Reals and
    one leaf per exact operand."""
    exact, terms = [], []
    for sym, operand in zip(["+"] + ops, operands):
        value = two_type_eval(operand, env, prec, leaves)
        if isinstance(value, dy.Dyadic):
            exact.append(value if sym == "+" else dy.neg(value))
        else:
            terms.append(value if sym == "+" else real_neg(value))
    total = dy.ZERO
    try:
        for value in exact:
            total = dy.add(total, value)
    except SizeLimit:
        if not terms:
            raise
        return reals.real_sum(terms + [real_from_dyadic(v) for v in exact])
    if not terms:
        return total
    return reals.real_sum(terms + [real_from_dyadic(total)])


def _apply_bin(sym, a, b, prec, leaves):
    both_dyadic = isinstance(a, dy.Dyadic) and isinstance(b, dy.Dyadic)
    if sym == "*":
        # Anything times exact zero is exact zero.
        if isinstance(a, dy.Dyadic) and a.sign == 0:
            return dy.ZERO
        if isinstance(b, dy.Dyadic) and b.sign == 0:
            return dy.ZERO
        if both_dyadic:
            return dy.mul(a, b)
        return reals.real_mul(_as_real(a), _as_real(b))
    if sym == "/":
        if both_dyadic and b.sign != 0:
            exact = dy.exact_div(a, b)
            if exact is not None:
                return exact
        return _apply_bin("*", a, _invert(b, prec, leaves), prec, leaves)
    m = _nat_exponent(b)
    if isinstance(a, dy.Dyadic):
        return dy.dy_pow(a, m)
    if m == 0:
        return dy.ONE
    return reals.real_pow(a, m)


def _apply_call(name, values, prec, leaves):
    if name == "abs":
        value = values[0]
        if isinstance(value, dy.Dyadic):
            return dy.dy_abs(value)
        return real_from_cut(reals.real_abs(value))
    if name == "inv":
        return _invert(values[0], prec, leaves)
    if name == "sup":
        if all(isinstance(v, dy.Dyadic) for v in values):
            acc = values[0]
            for v in values[1:]:
                acc = dy.dy_max(acc, v)
            return acc
        return reals.real_sup(_as_real(v) for v in values)
    lo, hi = values
    if not (isinstance(lo, dy.Dyadic) and isinstance(hi, dy.Dyadic)):
        raise BadOrder("between() needs exact dyadic endpoints")
    return dy.between(lo, hi)


def two_type_eval(node, env, prec, leaves):
    """Value of a RunDescent tree: a Dyadic while every step stays exact,
    else a Real."""
    op = node[0]
    if op == "num":
        return node[1]
    if op == "var":
        _, name, at = node
        if name not in env:
            raise ExprSyntaxError(f"unbound name {name!r}", at)
        return env[name]
    if op == "chain":
        _, ops, operands = node
        if ops[0] in "+-":
            return _sum_run(ops, operands, env, prec, leaves)
        acc = two_type_eval(operands[0], env, prec, leaves)
        for i, sym in enumerate(ops, 1):
            b = two_type_eval(operands[i], env, prec, leaves)
            acc = _apply_bin(sym, acc, b, prec, leaves)
        return acc
    if op == "let":
        _, bindings, body = node
        env = dict(env)
        for name, bound in bindings:
            env[name] = two_type_eval(bound, env, prec, leaves)
        return two_type_eval(body, env, prec, leaves)
    if op == "neg":
        value = two_type_eval(node[1], env, prec, leaves)
        return dy.neg(value) if isinstance(value, dy.Dyadic) else real_neg(value)
    _, name, args = node
    values = [two_type_eval(a, env, prec, leaves) for a in args]
    return _apply_call(name, values, prec, leaves)


def evaluate_two_types(text: str, prec: int):
    """cli.evaluate as it was with two value types: a Dyadic or a Real."""
    return two_type_eval(RunDescent(text).parse(), {}, prec, {})


# The CLI evaluator before it shared subexpressions: one leaf pair per
# literal value and one reciprocal per exact divisor, kept per evaluation in a
# leaves dict keyed by the literal's value or by the divisor, with the
# reciprocal, quotient and power rules in the evaluator.  It is the
# reference for the slots of cli.evaluate's program and for reals.real_inv,
# real_div and real_pow's exact rules: cli.main prints the same bytes with
# evaluate_with_leaves in place of cli.evaluate.  A power of a value that is
# not exact is reals.real_pow's node.


def _leaves_invert(value, prec, leaves):
    """Reciprocal of a Real: for an exact value d, the exact value 1/d when
    it is a binary fraction, else the reciprocal leaf of |d|, negated when
    d < 0, kept in leaves under d; otherwise an interval whose sign was
    certified at precision prec."""
    d = real_tag(value)
    if d is None:
        side = reals.compare_eps(value.pos, value.neg, prec + 1)
        if side is reals.Comparison.INDISTINGUISHABLE:
            raise DivisionNearZero(f"divisor not certified nonzero at precision {prec}")
        flipped = real_from_cut(reals.inverse(reals.real_abs(value), prec))
        return real_neg(flipped) if side is reals.Comparison.LESS else flipped
    got = leaves.get(d)
    if got is None:
        if d.sign == 0:
            raise DivisionNearZero("division by exact zero")
        if d.sign < 0:
            got = real_neg(_leaves_invert(real_neg(value), prec, leaves))
        else:
            got = real_from_cut(reals.reciprocal(d))
        leaves[d] = got
    return got


def _leaves_exponent(value):
    d = real_tag(value)
    if d is not None and d.exp == 0 and d.sign >= 0:
        return d.man
    raise BadExponent("exponent must be an exact natural number")


def _leaves_bin(sym, a, b, prec, leaves):
    if sym == "*":
        return reals.real_mul(a, b)
    if sym == "/":
        d, e = real_tag(a), real_tag(b)
        exact = None if d is None or e is None else dy.exact_div(d, e)
        if exact is not None:
            return real_from_dyadic(exact)
        return reals.real_mul(a, _leaves_invert(b, prec, leaves))
    m = _leaves_exponent(b)
    d = real_tag(a)
    if d is not None:
        return real_from_dyadic(dy.dy_pow(d, m))
    if m == 0:
        return real_from_dyadic(dy.ONE)
    return reals.real_pow(a, m)


def _leaves_call(name, values, prec, leaves):
    if name == "abs":
        return real_from_cut(reals.real_abs(values[0]))
    if name == "inv":
        return _leaves_invert(values[0], prec, leaves)
    if name == "sup":
        return reals.real_sup(values)
    lo, hi = (real_tag(v) for v in values)
    if lo is None or hi is None:
        raise BadOrder("between() needs exact dyadic endpoints")
    return real_from_dyadic(dy.between(lo, hi))


def leaves_eval(node, env, prec, leaves):
    """Value of a RunDescent tree, a Real, walked as a tree: a repeated
    subexpression is evaluated wherever it occurs, except a literal, whose
    leaf pair leaves keeps under ("num", its Dyadic)."""
    op = node[0]
    if op == "num":
        key = ("num", node[1])
        if key not in leaves:
            leaves[key] = real_from_dyadic(node[1])
        return leaves[key]
    if op == "var":
        _, name, at = node
        if name not in env:
            raise ExprSyntaxError(f"unbound name {name!r}", at)
        return env[name]
    if op == "chain":
        _, ops, operands = node
        if ops[0] in "+-":
            terms = []
            for sym, operand in zip(["+"] + ops, operands):
                value = leaves_eval(operand, env, prec, leaves)
                terms.append(value if sym == "+" else real_neg(value))
            return reals.real_sum(terms)
        acc = leaves_eval(operands[0], env, prec, leaves)
        for i, sym in enumerate(ops, 1):
            b = leaves_eval(operands[i], env, prec, leaves)
            acc = _leaves_bin(sym, acc, b, prec, leaves)
        return acc
    if op == "let":
        _, bindings, body = node
        env = dict(env)
        for name, bound in bindings:
            env[name] = leaves_eval(bound, env, prec, leaves)
        return leaves_eval(body, env, prec, leaves)
    if op == "neg":
        return real_neg(leaves_eval(node[1], env, prec, leaves))
    _, name, args = node
    values = [leaves_eval(a, env, prec, leaves) for a in args]
    return _leaves_call(name, values, prec, leaves)


def evaluate_with_leaves(text: str, prec: int):
    """cli.evaluate as it was with a leaves dict: the Dyadic of an exact
    value, else the Real."""
    value = leaves_eval(RunDescent(text).parse(), {}, prec, {})
    exact = real_tag(value)
    return value if exact is None else exact


def eval_tree(node, env, prec, leaves):
    """Value of a BinaryDescent tree, by recursion on every node, with
    binary_sum at + and -, and the two-type evaluator's operations at every
    other operator and function call."""
    op = node[0]
    if op == "num":
        return node[1]
    if op == "var":
        _, name, at = node
        if name not in env:
            raise ExprSyntaxError(f"unbound name {name!r}", at)
        return env[name]
    if op == "let":
        _, name, bound, body = node
        value = eval_tree(bound, env, prec, leaves)
        return eval_tree(body, {**env, name: value}, prec, leaves)
    if op == "neg":
        value = eval_tree(node[1], env, prec, leaves)
        return dy.neg(value) if isinstance(value, dy.Dyadic) else real_neg(value)
    if op == "bin":
        _, sym, left, right = node
        a = eval_tree(left, env, prec, leaves)
        b = eval_tree(right, env, prec, leaves)
        if sym in "+-":
            return binary_sum(sym, a, b)
        return _apply_bin(sym, a, b, prec, leaves)
    _, name, args = node
    values = [eval_tree(a, env, prec, leaves) for a in args]
    return _apply_call(name, values, prec, leaves)


def binary_sum(sym, a, b):
    """a + b or a - b: exact for two dyadics, else reals.add on each side
    of the signed pair, looked up when called so that a test can put
    generic_add in its place."""
    if isinstance(a, dy.Dyadic) and isinstance(b, dy.Dyadic):
        return dy.add(a, b) if sym == "+" else dy.sub(a, b)
    a, b = (real_from_dyadic(v) if isinstance(v, dy.Dyadic) else v for v in (a, b))
    if sym == "-":
        b = real_neg(b)
    return Real(reals.add(a.pos, b.pos), reals.add(a.neg, b.neg))


def evaluate_descent(text: str, prec: int):
    return eval_tree(BinaryDescent(text).parse(), {}, prec, {})


def _dyadic_of(fr: Fraction):
    sign = 1 if fr >= 0 else -1
    return dy.make(abs(fr.numerator), fr.denominator.bit_length() - 1, sign)


def exact_tree(node, env):
    """Exact Fraction value of a BinaryDescent tree whose evaluation by
    eval_tree answered, so every divisor is nonzero, every exponent a
    natural and every between() endpoint a binary fraction."""
    op = node[0]
    if op == "num":
        return to_fraction(node[1])
    if op == "var":
        return env[node[1]]
    if op == "let":
        _, name, bound, body = node
        return exact_tree(body, {**env, name: exact_tree(bound, env)})
    if op == "neg":
        return -exact_tree(node[1], env)
    if op == "bin":
        _, sym, left, right = node
        a, b = exact_tree(left, env), exact_tree(right, env)
        if sym == "+":
            return a + b
        if sym == "-":
            return a - b
        if sym == "*":
            return a * b
        if sym == "/":
            return a / b
        return a ** int(b)
    _, name, args = node
    values = [exact_tree(a, env) for a in args]
    if name == "abs":
        return abs(values[0])
    if name == "inv":
        return 1 / values[0]
    if name == "sup":
        return max(values)
    return to_fraction(dy.between(*map(_dyadic_of, values)))


def exact_value(text: str) -> Fraction:
    return exact_tree(BinaryDescent(text).parse(), {})
