"""Independent reference answers for the benchmark's output checks.

Nothing here imports settower.  Expressions are evaluated exactly with
``fractions.Fraction`` by a parser of the same grammar as ``settower eval``;
relation properties are computed from their definitions on bit rows; sets
are modelled as nested frozensets.  A check returns True only when the
program's answer is certified correct by these references.
"""

from __future__ import annotations

import json
import sys
from contextlib import contextmanager
from fractions import Fraction
from math import isqrt

# ---------------------------------------------------------------------------
# Expressions

_KEYWORDS = {"let", "in"}
_FUNCTIONS = {"abs": 1, "inv": 1, "sup": None, "between": 2}


class Between:
    """Top-level between(a, b): any dyadic strictly inside (a, b) is right."""

    def __init__(self, lo: Fraction, hi: Fraction):
        self.lo = lo
        self.hi = hi


def _tokens(text: str):
    out = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
        elif ch.isdigit():
            j = i
            while j < len(text) and (text[j].isdigit() or text[j] == "."):
                j += 1
            out.append(("num", text[i:j]))
            i = j
        elif ch.isalpha():
            j = i
            while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                j += 1
            word = text[i:j]
            out.append(("kw" if word in _KEYWORDS else "name", word))
            i = j
        else:
            out.append(("op", ch))
            i += 1
    out.append(("end", ""))
    return out


class _Evaluator:
    def __init__(self, text: str):
        self.toks = _tokens(text)
        self.pos = 0

    def peek(self):
        return self.toks[self.pos]

    def take(self, expected=None):
        tok = self.toks[self.pos]
        if expected is not None and tok[1] != expected:
            raise ValueError(f"expected {expected!r}, got {tok[1]!r}")
        self.pos += 1
        return tok

    def expr(self, env):
        if self.peek() == ("kw", "let"):
            self.take()
            name = self.take()[1]
            self.take("=")
            bound = self.expr(env)
            self.take("in")
            return self.expr({**env, name: bound})
        value = self.term(env)
        while self.peek()[1] in ("+", "-") and self.peek()[0] == "op":
            op = self.take()[1]
            rhs = self.term(env)
            value = value + rhs if op == "+" else value - rhs
        return value

    def term(self, env):
        value = self.unary(env)
        while self.peek()[1] in ("*", "/") and self.peek()[0] == "op":
            op = self.take()[1]
            rhs = self.unary(env)
            value = value * rhs if op == "*" else value / rhs
        return value

    def unary(self, env):
        if self.peek() == ("op", "-"):
            self.take()
            return -self.unary(env)
        value = self.atom(env)
        while self.peek() == ("op", "^"):
            self.take()
            exponent = self.atom(env)
            if exponent.denominator != 1 or exponent < 0:
                raise ValueError("exponent must be a natural number")
            value = value ** int(exponent)
        return value

    def atom(self, env):
        kind, text = self.take()
        if kind == "num":
            return Fraction(text)
        if kind == "name" and self.peek() == ("op", "("):
            self.take()
            args = [self.expr(env)]
            while self.take()[1] == ",":
                args.append(self.expr(env))
            arity = _FUNCTIONS[text]
            if arity is not None and len(args) != arity:
                raise ValueError(f"{text} takes {arity} argument(s)")
            if text == "abs":
                return abs(args[0])
            if text == "inv":
                return 1 / args[0]
            if text == "sup":
                return max(args)
            raise ValueError("between() is only checked at top level")
        if kind == "name":
            return env[text]
        if (kind, text) == ("op", "("):
            value = self.expr(env)
            self.take(")")
            return value
        raise ValueError(f"unexpected token {text!r}")


@contextmanager
def _deep_recursion(limit: int):
    # The reference parser recurses once per nesting level, like the CLI's.
    # Checks run outside every timed region, so raising the limit here never
    # changes what the program under test sees.
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(max(old, limit))
    try:
        yield
    finally:
        sys.setrecursionlimit(old)


def exact_value(text: str):
    """Exact value of an expression: a Fraction, or Between at top level."""
    ev = _Evaluator(text)
    with _deep_recursion(20_000):
        if ev.peek() == ("name", "between"):
            ev.take()
            ev.take("(")
            lo = ev.expr({})
            ev.take(",")
            hi = ev.expr({})
            ev.take(")")
            value = Between(lo, hi)
        else:
            value = ev.expr({})
    if ev.peek()[0] != "end":
        raise ValueError("trailing input")
    return value


def parse_dyadic_text(text: str):
    """The value of ``m``, ``-m`` or ``m/2^u`` as printed by the CLI; the
    text must be in canonical form."""
    sign = -1 if text.startswith("-") else 1
    body = text.lstrip("-")
    man, _, exp = body.partition("/2^")
    m = int(man)
    u = int(exp) if exp else 0
    canonical = (m % 2 == 1 or u == 0) and (m != 0 or (u == 0 and sign == 1))
    if not canonical:
        raise ValueError(f"not a canonical dyadic: {text!r}")
    return sign * Fraction(m, 1 << u)


def _one_record(stdout: str, fmt: str):
    lines = stdout.splitlines()
    if len(lines) != 1:
        raise ValueError("expected exactly one output line")
    return json.loads(lines[0]) if fmt == "json-lines" else lines[0]


def check_eval(expr: str, prec: int, fmt: str, rc: int, stdout: str) -> bool:
    """An interval must bracket the value with width <= 2^(1-prec); an exact
    answer must equal it; a between() answer must lie strictly inside."""
    if rc != 0:
        return False
    value = exact_value(expr)
    record = _one_record(stdout, fmt)
    if fmt == "json-lines":
        if record.get("exact"):
            if record.get("kind") != "dyadic":
                return False
            exact, lo_text, hi_text = record["value"], None, None
        else:
            if record.get("kind") != "interval" or record.get("precision") != prec:
                return False
            exact, lo_text, hi_text = None, record["lo"], record["hi"]
    elif record.startswith("["):
        body, _, at = record.rpartition("]@")
        if int(at) != prec:
            return False
        lo_text, _, hi_text = body[1:].partition(", ")
        exact = None
    else:
        exact, lo_text, hi_text = record, None, None

    if exact is not None:
        got = parse_dyadic_text(exact)
        if isinstance(value, Between):
            return value.lo < got < value.hi
        return got == value
    if isinstance(value, Between):
        return False
    lo = parse_dyadic_text(lo_text)
    hi = parse_dyadic_text(hi_text)
    return lo <= value <= hi and hi - lo <= Fraction(2) ** (1 - prec)


def check_cmp(left: str, right: str, prec: int, fmt: str, rc: int, stdout: str) -> bool:
    """The verdict must not contradict the exact order; 'indistinguishable'
    certifies |x - y| <= 2^(1-prec) and exits with status 2."""
    x, y = exact_value(left), exact_value(right)
    record = _one_record(stdout, fmt)
    word = record.get("result") if fmt == "json-lines" else record
    if fmt == "json-lines" and record.get("kind") != "comparison":
        return False
    if word == "indistinguishable":
        return rc == 2 and abs(x - y) <= Fraction(2) ** (1 - prec)
    if rc != 0:
        return False
    return {"less": x < y, "greater": x > y, "equal": x == y}.get(word, False)


def pair(p: int, q: int) -> int:
    return (p + q) * (p + q + 1) // 2 + q


def canonical_dyadic_text(m: int, u: int) -> str:
    if m == 0:
        return "0"
    shift = min(u, (m & -m).bit_length() - 1)
    m >>= shift
    u -= shift
    return str(m) if u == 0 else f"{m}/2^{u}"


def _unpair(r: int):
    w = (isqrt(8 * r + 1) - 1) // 2
    q = r - w * (w + 1) // 2
    return w - q, q


def check_enum(what: str, args, fmt: str, rc: int, stdout: str) -> bool:
    if rc != 0:
        return False
    record = _one_record(stdout, fmt)
    if what == "pair":
        p, q = args
        value = pair(p, q)
        if fmt == "json-lines":
            return record == {"kind": "pair", "p": p, "q": q, "value": value}
        return record == str(value)
    if what == "unpair":
        (r,) = args
        if fmt == "json-lines":
            p, q = record.get("p"), record.get("q")
            ok_record = record == {"kind": "unpair", "p": p, "q": q, "value": r}
        else:
            p_text, _, q_text = record.partition(" ")
            p, q = int(p_text), int(q_text)
            ok_record = record == f"{p} {q}"
        return ok_record and p >= 0 and q >= 0 and pair(p, q) == r
    (n,) = args
    text = canonical_dyadic_text(*_unpair(n))
    if fmt == "json-lines":
        return record == {"index": n, "kind": "dyadic", "value": text}
    return record == text


# ---------------------------------------------------------------------------
# Relations, from their definitions on bit rows

class RelationFacts:
    """Definitions evaluated on one finite relation (atoms, pairs)."""

    def __init__(self, atoms, pairs):
        self.atoms = list(atoms)
        self.pairs = frozenset(map(tuple, pairs))
        index = {a: i for i, a in enumerate(self.atoms)}
        self.row = [0] * len(self.atoms)
        for x, y in self.pairs:
            self.row[index[x]] |= 1 << index[y]
        self.index = index

    def related(self, x, y) -> bool:
        return self.row[self.index[x]] >> self.index[y] & 1 == 1

    def properties(self) -> dict:
        n = len(self.atoms)
        row = self.row
        full = (1 << n) - 1
        col = [0] * n
        for i in range(n):
            for j in bits(row[i]):
                col[j] |= 1 << i
        reflexive = all(row[i] >> i & 1 for i in range(n))
        antireflexive = not any(row[i] >> i & 1 for i in range(n))
        symmetric = all(row[i] == col[i] for i in range(n))
        antisymmetric = all(row[i] & col[i] & ~(1 << i) == 0 for i in range(n))
        transitive = all(
            row[j] & ~row[i] == 0 for i in range(n) for j in bits(row[i])
        )
        connective = all((row[i] | col[i] | 1 << i) == full for i in range(n))
        directive = all(row[i] & row[k] for i in range(n) for k in range(n))
        ordering = transitive and antisymmetric
        # On a finite ordering, every nonempty subset has a minimum exactly
        # when every two-element subset does: minima of pairs chain together
        # by transitivity.
        return {
            "reflexive": reflexive,
            "antireflexive": antireflexive,
            "symmetric": symmetric,
            "antisymmetric": antisymmetric,
            "transitive": transitive,
            "connective": connective,
            "directive": directive,
            "pre_ordering": transitive,
            "ordering": ordering,
            "ordering_lt": antireflexive and transitive,
            "ordering_le": reflexive and antisymmetric and transitive,
            "direction": reflexive and transitive and directive,
            "equivalence": reflexive and symmetric and transitive,
            "total_ordering": ordering and connective,
            "well_ordering": ordering and connective,
        }

    def extremal(self, subset) -> dict:
        members = list(dict.fromkeys(subset))
        rel = self.related

        def minima(group):
            return frozenset(
                x for x in group if all(y == x or rel(x, y) for y in group)
            )

        def maxima(group):
            return frozenset(
                x for x in group if all(y == x or rel(y, x) for y in group)
            )

        upper = [x for x in self.atoms if all(y == x or rel(y, x) for y in members)]
        lower = [x for x in self.atoms if all(y == x or rel(x, y) for y in members)]
        return {
            "minima": minima(members),
            "maxima": maxima(members),
            "weak_minima": frozenset(
                x for x in members
                if all(rel(x, y) for y in members if rel(y, x))
            ),
            "weak_maxima": frozenset(
                x for x in members
                if all(rel(y, x) for y in members if rel(x, y))
            ),
            "upper_bounds": frozenset(upper),
            "lower_bounds": frozenset(lower),
            "suprema": minima(upper),
            "infima": maxima(lower),
        }

    def lub_property(self) -> bool:
        """Every nonempty bounded-above subset has a supremum, by brute force
        over all subsets; upper-bound sets are built incrementally."""
        n = len(self.atoms)
        # up[i]: atoms x with x == i or (i, x) related: the upper bounds of {i}.
        up = [self.row[i] | 1 << i for i in range(n)]
        has_sup = {}
        upper = [0] * (1 << n)
        upper[0] = (1 << n) - 1
        for mask in range(1, 1 << n):
            low = mask & -mask
            u = upper[mask ^ low] & up[low.bit_length() - 1]
            upper[mask] = u
            if u == 0:
                continue
            found = has_sup.get(u)
            if found is None:
                found = any(u & ~up[k] == 0 for k in bits(u))
                has_sup[u] = found
            if not found:
                return False
        return True

    def closure_pairs(self) -> frozenset:
        n = len(self.atoms)
        reach = list(self.row)
        for k in range(n):
            bit = 1 << k
            for i in range(n):
                if reach[i] & bit:
                    reach[i] |= reach[k]
        return frozenset(
            (self.atoms[i], self.atoms[j]) for i in range(n) for j in bits(reach[i])
        )

    def tie_blocks(self):
        """Classes of mutually related atoms, in carrier order."""
        blocks, seen = [], set()
        for a in self.atoms:
            if a in seen:
                continue
            block = tuple(
                b for b in self.atoms
                if b == a or (self.related(a, b) and self.related(b, a))
            )
            seen.update(block)
            blocks.append(block)
        return blocks

    def is_weak_maximum(self, x) -> bool:
        return x in self.index and all(
            self.related(y, x) for y in self.atoms if self.related(x, y)
        )

    def ranks(self) -> dict:
        """Rank of each atom in a well-ordering: how many lie strictly below."""
        return {
            a: sum(1 for b in self.atoms if b != a and self.related(b, a))
            for a in self.atoms
        }


def bits(mask: int):
    """Positions of the set bits of mask, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def relcheck_records(facts: RelationFacts):
    """The records `settower relcheck` must print, as (plain line, json)."""
    out = []
    for name, value in facts.properties().items():
        shown = name.replace("_", "-")
        out.append((
            f"{shown}: {'yes' if value else 'no'}",
            {"kind": "property", "name": shown, "value": value},
        ))
    ext = facts.extremal(facts.atoms)
    for label in ("minima", "maxima", "weak_minima", "weak_maxima"):
        ordered = [a for a in facts.atoms if a in ext[label]]
        shown = label.replace("_", "-")
        out.append((
            f"{shown}: {' '.join(ordered) if ordered else '(none)'}",
            {"atoms": ordered, "kind": "extremal", "name": shown},
        ))
    return out


def check_relcheck(facts: RelationFacts, fmt: str, rc: int, stdout: str) -> bool:
    if rc != 0:
        return False
    lines = stdout.splitlines()
    expected = relcheck_records(facts)
    if fmt == "json-lines":
        return [json.loads(line) for line in lines] == [rec for _, rec in expected]
    return lines == [line for line, _ in expected]


# ---------------------------------------------------------------------------
# Hereditarily finite sets as nested frozensets

ORDINAL_CODES = frozenset({0, 1, 3, 11, 2059})


class CodeModel:
    """Ackermann decoding into frozensets and canonical strings, memoized."""

    def __init__(self):
        self._sets = {}
        self._strs = {}

    def frozen(self, code: int) -> frozenset:
        got = self._sets.get(code)
        if got is None:
            got = frozenset(self.frozen(i) for i in bits(code))
            self._sets[code] = got
        return got

    def text(self, code: int) -> str:
        # Elements print in increasing code order, which _bits yields.
        got = self._strs.get(code)
        if got is None:
            got = "{" + ",".join(self.text(i) for i in bits(code)) + "}"
            self._strs[code] = got
        return got


def frozen_of(hf, memo=None) -> frozenset:
    """Model of a program HFSet, read through its public ``elements``."""
    if memo is None:
        memo = {}
    got = memo.get(id(hf))
    if got is None:
        # Keep hf alive with its model so its id is not reused meanwhile.
        got = (hf, frozenset(frozen_of(e, memo) for e in hf.elements))
        memo[id(hf)] = got
    return got[1]


def kuratowski(x: frozenset, y: frozenset) -> frozenset:
    return frozenset({frozenset({x, y}), frozenset({x})})


def power_set(s: frozenset) -> frozenset:
    items = list(s)
    return frozenset(
        frozenset(items[i] for i in range(len(items)) if mask >> i & 1)
        for mask in range(1 << len(items))
    )
