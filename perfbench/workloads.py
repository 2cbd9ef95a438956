"""Seeded workloads: input generation and binding inputs to program calls.

Generation is pure Python on plain data and imports nothing from settower,
so the same seed gives the same inputs in any process.  Every draw is
stratified (a fixed number of inputs per band of size and kind), so the
amount of work in one pass over the inputs hardly depends on the seed.

``bind`` turns one input into an Operation: a zero-argument ``call`` that
is the only timed part, a ``check`` against the independent references in
``reference.py``, and a ``render`` of the answer for the traced run's
transcript comparison.  Calls look up settower functions through their
modules at call time, so the traced run sees them.
"""

from __future__ import annotations

import contextlib
import io
import math
import random
import sys

import reference as ref

# Odd or even but never a power of two, so inv(k) is not a binary fraction.
_INV_BASES = (3, 5, 6, 7, 9, 10, 11, 12, 13, 14, 15)


class Operation:
    __slots__ = ("call", "check", "render", "phase", "cli")

    def __init__(self, call, check, render, phase="main", cli=False):
        self.call = call
        self.check = check
        self.render = render
        self.phase = phase
        self.cli = cli


def _inv(rng) -> str:
    return f"inv({rng.choice(_INV_BASES)})"


def _fmt(i: int) -> str:
    return "json-lines" if i % 4 == 3 else "plain"


def _prec(i: int) -> int:
    # 7 in 10 at the default precision, 2 at 60 and 1 at 120.
    return (30, 30, 60, 30, 30, 120, 30, 60, 30, 30)[i % 10]


# ---------------------------------------------------------------------------
# real_dag

# (prec, count, lo, hi) bands of ladder exponents for `eval inv(k)^m`.  At
# prec 30 the endpoints pass 4300 decimal digits near m = 142 (ValueError on
# printing) and the query chain passes the recursion limit near m = 164.
_EVAL_LADDER = (
    (30, 1, 6, 12), (30, 1, 24, 30), (30, 1, 46, 52), (30, 6, 84, 86),
    (30, 1, 94, 100), (30, 2, 118, 122), (30, 2, 146, 150), (30, 2, 190, 200),
    (60, 1, 20, 26), (60, 1, 44, 50), (120, 1, 8, 12), (120, 1, 18, 22),
)
# `cmp` prints one word, so only the recursion edge applies.
_CMP_LADDER = (
    (30, 1, 20, 26), (30, 1, 56, 62), (30, 1, 96, 102), (30, 2, 126, 130),
    (30, 2, 190, 200), (60, 1, 36, 42), (120, 1, 16, 20),
)
# Sums of n inv(k) terms; the add chain passes the recursion limit near 490.
_SUM_TERMS = ((3, 10, 60), (3, 60, 160), (2, 200, 260), (2, 300, 310), (2, 540, 600))
# Nested parentheses; the parser passes the recursion limit near 165 levels.
_PAREN_DEPTH = ((2, 10, 100), (1, 250, 300))
_MIXES = 60


# Mixes of sup, abs, let and division: fixed shapes over random inv(k)
# leaves, so their cost hardly depends on the seed.
_MIX_SHAPES = (
    "let x = {0} + {1} in sup(x * x, abs(x - {2})) / (abs({3}) + {k})",
    "abs({0} - {1} * {2}) / ({k} + sup({3}, {4}))",
    "let y = {0} * {1} in let z = y + {2} in z * z - y / {k}",
    "sup({0}, {1} / {k}, abs({2} - {3})) + {4} * {5}",
    "({0} + {1}) * ({2} - {3}) / (abs({4}) + {k})",
    "let x = {0} in sup(x, {1}) * abs(x - {2}) + x / {k}",
)


def _mix(rng, i: int) -> str:
    leaves = [_inv(rng) for _ in range(6)]
    return _MIX_SHAPES[i % len(_MIX_SHAPES)].format(*leaves, k=rng.randint(2, 9))


def real_dag_inputs(rng: random.Random):
    specs = []
    for prec, count, lo, hi in _EVAL_LADDER:
        for _ in range(count):
            expr = f"{_inv(rng)}^{rng.randint(lo, hi)}"
            specs.append(("eval", expr, prec, _fmt(len(specs))))
    for prec, count, lo, hi in _CMP_LADDER:
        for _ in range(count):
            m = rng.randint(lo, hi)
            base = _inv(rng)
            # Alternately a distinguishable value and one within 2^-prec.
            other = _inv(rng) if len(specs) % 2 else f"{base}^{m + 2}"
            left, right = f"{base}^{m}", other
            if rng.randrange(2):
                left, right = right, left
            specs.append(("cmp", left, right, prec, _fmt(len(specs))))
    for count, lo, hi in _SUM_TERMS:
        for _ in range(count):
            n = rng.randint(lo, hi)
            expr = " + ".join(_inv(rng) for _ in range(n))
            specs.append(("eval", expr, _prec(len(specs)), _fmt(len(specs))))
    for count, lo, hi in _PAREN_DEPTH:
        for _ in range(count):
            d = rng.randint(lo, hi)
            expr = "(" * d + f"{_inv(rng)} + 1" + ")" * d
            specs.append(("eval", expr, 30, _fmt(len(specs))))
    for i in range(_MIXES):
        expr = _mix(rng, i)
        if i % 5 == 4:
            specs.append(("cmp", expr, _mix(rng, i + 1), _prec(i), _fmt(i)))
        else:
            specs.append(("eval", expr, _prec(i), _fmt(i)))
    rng.shuffle(specs)
    return specs


# ---------------------------------------------------------------------------
# exact_cli

def _decimal(rng) -> str:
    # n / 2^j written in decimal: always a finite binary expansion.
    j = rng.randint(0, 8)
    n = rng.randint(1, 4000)
    whole, frac = divmod(n * 5**j, 10**j)
    return f"{whole}.{str(frac).zfill(j)}" if j else str(whole)


def _dyadic_literal(rng) -> str:
    return rng.choice((_decimal(rng), f"{rng.randrange(1, 999, 2)}/2^{rng.randint(1, 40)}"))


# `a/2^k * 2^k`: canonicalising the product strips k trailing zeros.
_SHIFT_BANDS = (
    (3, 1000, 3000), (6, 8000, 8200), (3, 14000, 14200), (2, 20000, 20200), (2, 30000, 30200),
)
# `(a/2^u)^m` with a result of this many decimal digits in the mantissa; the
# CLI cannot print past 4300 digits (ValueError).
_POWER_DIGITS = ((3, 20, 400), (3, 400, 2000), (2, 2000, 4000), (2, 4500, 6000))
# `2^k`: 2^k has more than 4300 digits from k = 14285 on.
_TWO_POWERS = ((2, 100, 4000), (2, 4000, 13000), (1, 15000, 19000))
# enum arguments by decimal digits; pair of two 2300-digit naturals no
# longer prints.
_ENUM_DIGITS = {
    "pair": ((3, 1, 60), (3, 60, 600), (2, 600, 1500), (1, 2250, 2400)),
    "unpair": ((3, 1, 60), (3, 60, 1200), (2, 1200, 4000)),
    "dyadic": ((3, 1, 60), (3, 60, 1200), (2, 1200, 4000)),
}
_LITERAL_MIXES = 16


def _natural(rng, digits: int) -> int:
    return rng.randint(10 ** (digits - 1), 10**digits - 1)


def exact_cli_inputs(rng: random.Random):
    specs = []
    for count, lo, hi in _SHIFT_BANDS:
        for _ in range(count):
            k = rng.randint(lo, hi)
            a = rng.randrange(1, 100, 2)
            specs.append(("eval", f"{a}/2^{k} * 2^{k}", 30, _fmt(len(specs))))
    for count, lo, hi in _POWER_DIGITS:
        for _ in range(count):
            a = rng.randrange(3, 1000, 2)
            digits = rng.randint(lo, hi)
            m = max(1, round(digits / math.log10(a)))
            u = rng.randint(1, 64)
            specs.append(("eval", f"({a}/2^{u})^{m}", 30, _fmt(len(specs))))
    for count, lo, hi in _TWO_POWERS:
        for _ in range(count):
            specs.append(("eval", f"2^{rng.randint(lo, hi)}", 30, _fmt(len(specs))))
    for i in range(_LITERAL_MIXES):
        lits = [_dyadic_literal(rng) for _ in range(4)]
        kind = i % 4
        if kind == 0:
            expr = f"{lits[0]} * {lits[1]} + {lits[2]} - {lits[3]}"
        elif kind == 1:
            expr = f"sup({', '.join(lits)}) * 2^{rng.randint(1, 30)}"
        elif kind == 2:
            lo, hi = sorted(lits[:2], key=ref.exact_value)
            if ref.exact_value(lo) == ref.exact_value(hi):
                hi = f"{hi} + 1"
            expr = f"between({lo}, {hi})"
        else:
            expr = f"let y = {lits[0]} in y * y - {lits[1]} / 2^{rng.randint(1, 9)}"
        specs.append(("eval", expr, 30, _fmt(i)))
    for what, bands in _ENUM_DIGITS.items():
        for count, lo, hi in bands:
            for _ in range(count):
                arity = 2 if what == "pair" else 1
                args = tuple(_natural(rng, rng.randint(lo, hi)) for _ in range(arity))
                specs.append(("enum", what, args, _fmt(len(specs))))
    rng.shuffle(specs)
    return specs


# ---------------------------------------------------------------------------
# rel_audit

def _atoms(rng, n: int):
    return tuple(f"a{i}" for i in rng.sample(range(1000), n))


def chain(rng, n: int, weak: bool):
    atoms = _atoms(rng, n)
    order = list(atoms)
    rng.shuffle(order)
    pairs = [(order[i], order[j]) for i in range(n) for j in range(i + 1, n)]
    if weak:
        pairs += [(a, a) for a in atoms]
    return atoms, tuple(pairs)


def poset(rng, n: int, weak: bool):
    """Transitive closure of a random DAG: a random partial order."""
    atoms = _atoms(rng, n)
    order = list(atoms)
    rng.shuffle(order)
    density = 1.5 / n
    edges = [
        (order[i], order[j])
        for i in range(n) for j in range(i + 1, n) if rng.random() < density
    ]
    closed = ref.RelationFacts(atoms, edges).closure_pairs()
    pairs = sorted(closed, key=lambda p: (atoms.index(p[0]), atoms.index(p[1])))
    if weak:
        pairs += [(a, a) for a in atoms]
    return atoms, tuple(pairs)


def _blocks(rng, atoms, count: int):
    """A random partition into `count` blocks of nearly equal size."""
    shuffled = list(atoms)
    rng.shuffle(shuffled)
    return [shuffled[i::count] for i in range(count)]


def preorder(rng, n: int):
    """Ties: a random partition, ordered as a random chain of blocks with
    some links dropped (and the result closed again)."""
    atoms = _atoms(rng, n)
    blocks = _blocks(rng, atoms, max(2, n // 3))
    links = [
        (i, j) for i in range(len(blocks)) for j in range(i + 1, len(blocks))
        if j == i + 1 or rng.random() < 0.05
    ]
    links = [link for link in links if rng.random() < 0.8]
    pairs = [(x, y) for b in blocks for x in b for y in b]
    pairs += [(x, y) for i, j in links for x in blocks[i] for y in blocks[j]]
    closed = ref.RelationFacts(atoms, pairs).closure_pairs()
    return atoms, tuple(sorted(closed, key=lambda p: (atoms.index(p[0]), atoms.index(p[1]))))


def equivalence(rng, n: int):
    atoms = _atoms(rng, n)
    blocks = _blocks(rng, atoms, max(2, n // 4))
    return atoms, tuple((x, y) for b in blocks for x in b for y in b)


def sparse(rng, n: int):
    atoms = _atoms(rng, n)
    pairs = [(rng.choice(atoms), rng.choice(atoms)) for _ in range(n + n // 2)]
    return atoms, tuple(dict.fromkeys(pairs))


def relation_text(atoms, pairs) -> str:
    lines = ["# generated relation", "carrier: " + " ".join(atoms)]
    lines += [f"{x} {y}" for x, y in pairs]
    return "\n".join(lines) + "\n"


_MID_FILES = 36


def rel_audit_inputs(rng: random.Random):
    specs = []
    n = rng.randint

    def relcheck(rel):
        specs.append(("relcheck", rel, _fmt(len(specs))))

    # Chains are well-orderings, so classify checks 4096 sampled subsets.
    for lo in (10, 36, 70, 104, 140):
        relcheck(chain(rng, n(lo, lo + 4), weak=len(specs) % 2 == 0))
    for lo in (20, 60, 110):
        relcheck(poset(rng, n(lo, lo + 4), weak=len(specs) % 2 == 0))
        relcheck(preorder(rng, n(lo // 2, lo // 2 + 2)))
        relcheck(equivalence(rng, n(lo // 2, lo // 2 + 2)))
    # The bulk of the operations: mid-sized relation files of every kind.
    for i in range(_MID_FILES):
        kind = i % 3
        if kind == 0:
            relcheck(poset(rng, n(36, 40), weak=i % 2 == 0))
        elif kind == 1:
            relcheck(preorder(rng, n(30, 34)))
        else:
            relcheck(equivalence(rng, n(30, 34)))
    for lo in (40, 120):
        specs.append(("classify", chain(rng, n(lo, lo + 4), weak=True)))
        specs.append(("classify", poset(rng, n(lo, lo + 4), weak=False)))
        specs.append(("classify", preorder(rng, n(lo // 2, lo // 2 + 2))))
    for lo in (10, 30, 60, 100):
        rel = poset(rng, n(lo, lo + 2), weak=True)
        for _ in range(2):
            subset = tuple(rng.sample(rel[0], n(1, min(12, len(rel[0])))))
            specs.append(("extremal", rel, subset))
    # Exhaustive over all subsets up to 12 atoms; refused from 13 atoms on.
    for maker in (
        lambda k: chain(rng, k, weak=True),
        lambda k: poset(rng, k, weak=True),
        lambda k: preorder(rng, k),
        lambda k: equivalence(rng, k),
    ):
        specs.append(("lub", maker(7)))
        specs.append(("lub", maker(10)))
    specs.append(("lub", poset(rng, 13, weak=True)))
    specs.append(("lub", chain(rng, 16, weak=True)))
    for lo in (20, 60, 110):
        specs.append(("closure", sparse(rng, n(lo, lo + 4))))
        specs.append(("antisymmetrize", preorder(rng, n(lo // 2, lo // 2 + 2))))
        specs.append(("order_type", chain(rng, n(lo // 2, lo // 2 + 2), weak=False)))
        specs.append(("well_order", _atoms(rng, n(lo, lo + 4))))
        specs.append(("zorn", poset(rng, n(lo // 2, lo // 2 + 2), weak=True)))
    rng.shuffle(specs)
    return specs


# ---------------------------------------------------------------------------
# hf_codes

_CONSTRUCTS = 500
_POOL = 21
_QUERY_KINDS = (
    "member", "issubset", "union", "intersection", "difference",
    "pair", "product", "power_set",
)
_QUERIES = 240


def hf_codes_inputs(rng: random.Random):
    codes = sorted(ref.ORDINAL_CODES) + [
        rng.randrange(1 << 16) for _ in range(_CONSTRUCTS - len(ref.ORDINAL_CODES))
    ]
    rng.shuffle(codes)
    specs = [("construct", c) for c in codes]
    # Pool set j has j % 7 elements below 2^16, so power sets stay at 64
    # members and every seed has the same mix of sizes.
    pool = [sum(1 << b for b in rng.sample(range(16), j % 7)) for j in range(_POOL)]
    for i in range(_QUERIES):
        kind = _QUERY_KINDS[i % len(_QUERY_KINDS)]
        specs.append(("query", kind, pool[i % _POOL], pool[(5 * i + 3) % _POOL]))
    return specs


GENERATORS = {
    "real_dag": real_dag_inputs,
    "exact_cli": exact_cli_inputs,
    "rel_audit": rel_audit_inputs,
    "hf_codes": hf_codes_inputs,
}

# Modules each workload imports before its first operation (setup_s).
MODULES = {
    "real_dag": ("settower", "settower.cli"),
    "exact_cli": ("settower", "settower.cli"),
    "rel_audit": ("settower", "settower.relations", "settower.countability", "settower.cli"),
    "hf_codes": ("settower", "settower.hfset"),
}


def inputs(workload: str, seed: int):
    return GENERATORS[workload](random.Random(f"{workload}:{seed}"))


# ---------------------------------------------------------------------------
# Binding inputs to program calls

def _run_cli(st, argv, stdin_text=None):
    out, err = io.StringIO(), io.StringIO()
    stdin = io.StringIO(stdin_text) if stdin_text is not None else None
    with contextlib.ExitStack() as stack:
        stack.enter_context(contextlib.redirect_stdout(out))
        stack.enter_context(contextlib.redirect_stderr(err))
        if stdin is not None:
            stack.enter_context(_stdin_from(stdin))
        rc = st.cli.main(argv)
    return rc, out.getvalue(), err.getvalue()


@contextlib.contextmanager
def _stdin_from(stream):
    saved = sys.stdin
    sys.stdin = stream
    try:
        yield
    finally:
        sys.stdin = saved


def _cli_op(st, argv, check, stdin_text=None) -> Operation:
    return Operation(
        call=lambda: _run_cli(st, argv, stdin_text),
        check=lambda got: check(got[0], got[1]),
        render=lambda got: f"{got[0]}|{got[1]}",
        cli=True,
    )


def bind(spec, st, cache) -> Operation:
    """Operation for one input.  `st` holds the imported settower modules;
    `cache` shares reference answers between inputs of one run."""
    kind = spec[0]
    if kind == "eval":
        _, expr, prec, fmt = spec
        argv = ["eval", expr, "--prec", str(prec), "--format", fmt]
        return _cli_op(st, argv, lambda rc, out: ref.check_eval(expr, prec, fmt, rc, out))
    if kind == "cmp":
        _, left, right, prec, fmt = spec
        argv = ["cmp", left, right, "--prec", str(prec), "--format", fmt]
        return _cli_op(
            st, argv, lambda rc, out: ref.check_cmp(left, right, prec, fmt, rc, out)
        )
    if kind == "enum":
        _, what, args, fmt = spec
        argv = ["enum", what, *map(str, args), "--format", fmt]
        return _cli_op(st, argv, lambda rc, out: ref.check_enum(what, args, fmt, rc, out))
    if kind == "relcheck":
        _, rel, fmt = spec
        facts = _facts(cache, rel)
        argv = ["relcheck", "-", "--format", fmt]
        return _cli_op(
            st, argv, lambda rc, out: ref.check_relcheck(facts, fmt, rc, out),
            stdin_text=relation_text(*rel),
        )
    if kind in ("construct", "query"):
        return _bind_hf(spec, st, cache)
    return _bind_relations(spec, st, cache)


def _facts(cache, rel) -> ref.RelationFacts:
    key = ("facts", rel)
    if key not in cache:
        cache[key] = ref.RelationFacts(*rel)
    return cache[key]


def _relation(st, rel):
    atoms, pairs = rel
    return st.relations.Relation.on(st.relations.Carrier(atoms), pairs)


def _bind_relations(spec, st, cache) -> Operation:
    kind, data = spec[0], spec[1]
    relations, countability = st.relations, st.countability
    if kind == "well_order":
        carrier = relations.Carrier(data)
        expected = frozenset(
            (data[i], data[j]) for i in range(len(data)) for j in range(i + 1, len(data))
        )
        return Operation(
            call=lambda: countability.well_order_finite(carrier),
            check=lambda got: got.pairs == expected and got.carrier == carrier,
            render=lambda got: repr(sorted(got.pairs)),
        )
    facts = _facts(cache, data)
    r = _relation(st, data)
    if kind == "classify":
        expected = facts.properties()
        return Operation(
            call=lambda: relations.classify(r),
            check=lambda got: got.as_dict() == expected,
            render=lambda got: repr(got.as_dict()),
        )
    if kind == "extremal":
        subset = spec[2]
        expected = facts.extremal(subset)
        return Operation(
            call=lambda: relations.extremal(r, subset),
            check=lambda got: {k: getattr(got, k) for k in expected} == expected,
            render=lambda got: repr(sorted((k, sorted(getattr(got, k))) for k in expected)),
        )
    if kind == "lub":
        expected = facts.lub_property()
        return Operation(
            call=lambda: relations.lub_property_check(r),
            check=lambda got: got is expected,
            render=repr,
        )
    if kind == "closure":
        expected = facts.closure_pairs()
        return Operation(
            call=lambda: relations.preorder_closure(r),
            check=lambda got: got.pairs == expected and got.carrier == r.carrier,
            render=lambda got: repr(sorted(got.pairs)),
        )
    if kind == "antisymmetrize":
        blocks = facts.tie_blocks()
        rep = {b: block[0] for block in blocks for b in block}
        expected_pairs = frozenset((rep[x], rep[y]) for x, y in facts.pairs)
        expected_reps = tuple(block[0] for block in blocks)
        return Operation(
            call=lambda: relations.antisymmetrize(r),
            check=lambda got: (
                got[0] == blocks
                and got[1].pairs == expected_pairs
                and got[1].carrier.atoms == expected_reps
            ),
            render=lambda got: repr((got[0], sorted(got[1].pairs))),
        )
    if kind == "order_type":
        ranks = facts.ranks()
        return Operation(
            call=lambda: relations.order_type_finite(r),
            check=lambda got: got == (len(ranks), ranks),
            render=lambda got: repr((got[0], sorted(got[1].items()))),
        )
    if kind == "zorn":
        return Operation(
            call=lambda: countability.zorn_max_finite(r),
            check=facts.is_weak_maximum,
            render=repr,
        )
    raise ValueError(f"unknown input kind {kind!r}")


def decode(hfset, code: int):
    """The set with Ackermann code `code`, built from scratch through the
    public constructor (no sharing between or within codes)."""
    return hfset.HFSet([decode(hfset, i) for i in ref.bits(code)])


def _bind_hf(spec, st, cache) -> Operation:
    hfset = st.hfset
    model = cache.setdefault("code_model", ref.CodeModel())
    if spec[0] == "construct":
        code = spec[1]

        def construct():
            h = decode(hfset, code)
            text = str(h)
            return h, hfset.is_ordinal(h), hfset.ackermann_code(h), text, hfset.parse(text)

        def check(got):
            h, ordinal, back, text, parsed = got
            frozen = model.frozen(code)
            return (
                ordinal is (code in ref.ORDINAL_CODES)
                and back == code
                and text == model.text(code)
                and ref.frozen_of(h) == frozen
                and ref.frozen_of(parsed) == frozen
            )

        return Operation(
            call=construct, check=check,
            render=lambda got: repr(got[1:4]), phase="construct",
        )

    _, kind, a_code, b_code = spec
    pool = cache.setdefault("pool", {})
    for c in (a_code, b_code):
        if c not in pool:
            pool[c] = decode(hfset, c)
    a, b = pool[a_code], pool[b_code]
    fa, fb = model.frozen(a_code), model.frozen(b_code)
    if kind == "member":
        # An element of a, built separately, so membership is by equality.
        bits = list(ref.bits(a_code))
        x_code = bits[b_code % len(bits)] if bits else b_code
        x = decode(hfset, x_code)
        fx = model.frozen(x_code)
        call = lambda: (x in a, x in b, b in a)  # noqa: E731
        expected = (fx in fa, fx in fb, fb in fa)
        render = repr
    elif kind == "issubset":
        call = lambda: (a.issubset(b), b.issubset(a))  # noqa: E731
        expected = (fa <= fb, fb <= fa)
        render = repr
    elif kind in ("union", "intersection", "difference"):
        call = lambda: getattr(a, kind)(b)  # noqa: E731
        expected = {"union": fa | fb, "intersection": fa & fb, "difference": fa - fb}[kind]
        render = str
    elif kind == "pair":
        def call():
            p = hfset.kuratowski_pair(a, b)
            return (p, *hfset.unpair(p))

        expected = (ref.kuratowski(fa, fb), fa, fb)
        render = lambda got: str(got[0])  # noqa: E731
    elif kind == "product":
        call = lambda: hfset.cartesian_product(a, b)  # noqa: E731
        expected = frozenset(ref.kuratowski(x, y) for x in fa for y in fb)
        render = str
    else:
        call = lambda: hfset.power_set(a)  # noqa: E731
        expected = ref.power_set(fa)
        render = str
    return Operation(
        call=call, check=lambda got: _frozen_answer(got) == expected,
        render=render, phase="query",
    )


def _frozen_answer(got):
    if isinstance(got, tuple):
        return tuple(_frozen_answer(g) for g in got)
    return got if isinstance(got, bool) else ref.frozen_of(got)
