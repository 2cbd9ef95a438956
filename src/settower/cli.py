"""Command-line surface: exact expression evaluation, comparison, relation
reports, and enumeration utilities.

Subcommands:
  eval EXPR       evaluate an arithmetic expression (exact dyadic result
                  when possible, otherwise an interval at --prec)
  cmp EXPR EXPR   order two expressions; exit code 2 when undecidable at
                  the requested precision
  relcheck PATH   classify a relation file and report extremal elements
  enum ...        pairing-function and dyadic-enumeration helpers

Expressions support + - * / ^, parentheses, abs(), inv(), sup(...),
between(,), and let NAME = E in E.  Literals are integers, m/2^u written
as ordinary division, and decimals with a finite binary expansion (3.25
yes, 0.1 no).  Division falls back from exact to interval arithmetic when
the quotient is not a binary fraction; the divisor's positivity is probed
at --prec and failure to certify a sign is an error rather than a guess.
The tokenizer tests for operators and whitespace first, and the parser
reads the three precedence levels in one loop and recurses only where the
input nests, so a parenthesis level costs it two frames; an operand that no
operator follows builds no run.  The parser builds each distinct
subexpression once, so equal subtrees are one node and each distinct
literal text is parsed once, and the evaluator keeps each node's value for
the whole evaluation, so a repeated literal, inv(d), x / d or any other
repeated subexpression costs one lookup.  Every value the evaluator builds
is a reals.Real, and reals alone decides when one is exact: reals.real_tag
reads an exact value, reals settles every exact result into the leaf pair
of its value, and real_inv, real_div and real_pow hold the rules of inv, /
and ^, so each operator is one call into reals.

The package imports this module, so ``import settower`` pays for whatever
it imports at module level.  argparse and json are therefore imported where
they are used: argparse when main() builds its parser (or --prec is
refused), json when a record is written as json-lines.  A library user who
never calls main() loads neither.
"""

from __future__ import annotations

import sys

from . import dyadic as dy
from . import reals as re
from .countability import enum_dyadics
from .errors import (
    BadExponent,
    BadOrder,
    ExprSyntaxError,
    NotUTF8,
    PrecisionCap,
    SettowerError,
    SizeLimit,
)
from .naturals import _read_decimal, _write_decimal, pair, parse_nat, unpair
from .relations import _bits, _extremal_masks, classify, parse_relation

PRECISION_CAP = 200
DEFAULT_PRECISION = 30

_KEYWORDS = {"let", "in"}
_FUNCTIONS = {"abs": (1, 1), "inv": (1, 1), "sup": (1, None), "between": (2, 2)}
_OP_CHARS = set("+-*/^(),=")


def _tokenize(text: str):
    """(kind, text, position) tokens of an expression, ending with an "end"
    token at len(text).  Operators and whitespace are tested first, as most
    characters are one or the other; a number is a run of str.isdigit
    characters, with one "." inside it, so a non-ASCII digit reaches
    dy.parse_dyadic and is refused there."""
    tokens = []
    push = tokens.append
    end = len(text)
    i = 0
    while i < end:
        ch = text[i]
        if ch in _OP_CHARS:
            push(("op", ch, i))
            i += 1
        elif ch.isspace():
            i += 1
        elif ch.isdigit():
            j = i + 1
            while j < end and text[j].isdigit():
                j += 1
            if j + 1 < end and text[j] == "." and text[j + 1].isdigit():
                j += 2
                while j < end and text[j].isdigit():
                    j += 1
            push(("num", text[i:j], i))
            i = j
        elif ch.isalpha() or ch == "_":
            j = i + 1
            while j < end and (text[j].isalnum() or text[j] == "_"):
                j += 1
            word = text[i:j]
            push(("kw" if word in _KEYWORDS else "name", word, i))
            i = j
        else:
            raise ExprSyntaxError(f"unexpected character {ch!r}", i)
    push(("end", "", end))
    return tokens


def parse_expr(text: str):
    """The tree of an eval expression: ("num", d), ("var", name, at),
    ("neg", x), ("call", name, args), ("chain", ops, operands) for a run of
    one precedence level's operators and ("let", bindings, body).  Equal
    subtrees are one node: each node is built once per parse, from its
    kind, its literal text, name or operators and its children's
    identities.  A var node is never shared, so neither is a node above
    one, and a node whose value depends on a binding occurs once; nor is a
    let node, whose body almost always reads a name it binds."""
    tokens = _tokenize(text)
    node, i = _expr(tokens, 0, {})
    kind, word, at = tokens[i]
    if kind != "end":
        raise ExprSyntaxError(f"trailing input {word!r}", at)
    return node


# An operator's or a keyword's text alone tells its token apart: names are
# words other than let and in, and numbers start with a digit.


def _chain(shared, ops, operands):
    key = ("chain", tuple(ops), *map(id, operands))
    return shared.setdefault(key, ("chain", ops, operands))


def _expr(tokens, i, shared):
    """(node, index after it) for the expression at tokens[i]: a run of let
    clauses, then one loop over operands and operators.  ^ binds tighter
    than a prefix - run, which binds tighter than * and /, which bind
    tighter than + and -, and each run of one level's operators is one
    chain.  Each run list is built when its first operator is read, so an
    operand that no operator follows, such as a call's argument or a
    parenthesis body, builds none.  Only a
    let's bound expression recurses here, and _atom only into a parenthesis
    or a function argument, so a level of nesting costs two frames.
    shared maps each node's key, as parse_expr describes it, to the node.
    It holds every node a key names, or that node's parent, so no id in a
    key is reused while the parse runs."""
    bindings = []
    while tokens[i][1] == "let":
        kind, name, at = tokens[i + 1]
        if kind != "name":
            raise ExprSyntaxError("expected a name after 'let'", at)
        if tokens[i + 2][1] != "=":
            raise ExprSyntaxError("expected '='", tokens[i + 2][2])
        bound, i = _expr(tokens, i + 3, shared)
        if tokens[i][1] != "in":
            raise ExprSyntaxError("expected 'in'", tokens[i][2])
        bindings.append((name, bound))
        i += 1
    terms = factors = powers = None
    odd = False
    while True:
        if powers is None:
            # Two minus signs cancel, so only an odd run leaves a neg node.
            while tokens[i][1] == "-":
                odd = not odd
                i += 1
        node, i = _atom(tokens, i, shared)
        sym = tokens[i][1]
        if sym == "^":
            if powers is None:
                powers = []
            powers.append(node)
            i += 1
            continue
        if powers is not None:
            powers.append(node)
            node = _chain(shared, ["^"] * (len(powers) - 1), powers)
            powers = None
        if odd:
            node, odd = shared.setdefault(("neg", id(node)), ("neg", node)), False
        if sym == "*" or sym == "/":
            if factors is None:
                factors, factor_ops = [], []
            factors.append(node)
            factor_ops.append(sym)
            i += 1
            continue
        if factors is not None:
            factors.append(node)
            node = _chain(shared, factor_ops, factors)
            factors = None
        if sym != "+" and sym != "-":
            break
        if terms is None:
            terms, term_ops = [], []
        terms.append(node)
        term_ops.append(sym)
        i += 1
    if terms is not None:
        terms.append(node)
        node = _chain(shared, term_ops, terms)
    return (("let", bindings, node) if bindings else node), i


def _atom(tokens, i, shared):
    """(node, index after it) for a number, a name, a call or a
    parenthesis at tokens[i]."""
    kind, text, at = tokens[i]
    i += 1
    if kind == "name":
        if tokens[i][1] != "(":
            return ("var", text, at), i
        if text not in _FUNCTIONS:
            raise ExprSyntaxError(f"unknown function {text!r}", at)
        args = []
        while True:
            arg, i = _expr(tokens, i + 1, shared)
            args.append(arg)
            sym = tokens[i][1]
            if sym == ")":
                break
            if sym != ",":
                raise ExprSyntaxError("expected ',' or ')'", tokens[i][2])
        low, high = _FUNCTIONS[text]
        if len(args) < low or (high is not None and len(args) > high):
            raise ExprSyntaxError(
                f"{text}() takes {low}{'' if high == low else '+'} "
                f"argument(s), got {len(args)}",
                at,
            )
        node = ("call", text, args)
        return shared.setdefault(("call", text, *map(id, args)), node), i + 1
    if kind == "num":
        node = shared.get(("num", text))
        if node is None:
            try:
                node = shared[("num", text)] = ("num", dy.parse_dyadic(text))
            except ExprSyntaxError as exc:
                raise ExprSyntaxError(exc.message, at) from None
        return node, i
    if text == "(":
        node, i = _expr(tokens, i, shared)
        if tokens[i][1] != ")":
            raise ExprSyntaxError("expected ')'", tokens[i][2])
        return node, i + 1
    raise ExprSyntaxError(f"unexpected {text!r}" if text else "unexpected end of input", at)


def _as_real(value) -> re.Real:
    if isinstance(value, dy.Dyadic):
        return re.real_from_dyadic(value)
    return value


def _nat_exponent(value: re.Real) -> int:
    d = re.real_tag(value)
    if d is not None and d.exp == 0 and d.sign >= 0:
        return d.man
    raise BadExponent("exponent must be an exact natural number")


def _eval(node, env, prec: int, memo: dict) -> re.Real:
    """Value of a parsed node, a Real; reals settles every exact result
    into the leaf pair of its value.  A + and - chain is one real_sum,
    another chain folds left to right, and a let binds its names in order
    into one copy of env, all by loops, so the walk recurses only into
    nested nodes.  memo holds the value of each node evaluated so far, by
    the node's id, so a shared node is evaluated once; the check is made
    here, so it costs no frame."""
    value = memo.get(id(node))
    if value is not None:
        return value
    op = node[0]
    if op == "num":
        value = re.real_from_dyadic(node[1])
    elif op == "var":
        _, name, at = node
        if name not in env:
            raise ExprSyntaxError(f"unbound name {name!r}", at)
        value = env[name]
    elif op == "chain":
        _, ops, operands = node
        if ops[0] in "+-":
            terms = []
            for sym, operand in zip(["+"] + ops, operands):
                term = _eval(operand, env, prec, memo)
                terms.append(term if sym == "+" else re.real_neg(term))
            value = re.real_sum(terms)
        else:
            value = _eval(operands[0], env, prec, memo)
            for sym, operand in zip(ops, operands[1:]):
                b = _eval(operand, env, prec, memo)
                if sym == "*":
                    value = re.real_mul(value, b)
                elif sym == "/":
                    value = re.real_div(value, b, prec)
                else:
                    value = re.real_pow(value, _nat_exponent(b))
    elif op == "let":
        _, bindings, body = node
        env = dict(env)
        for name, bound in bindings:
            env[name] = _eval(bound, env, prec, memo)
        value = _eval(body, env, prec, memo)
    elif op == "neg":
        value = re.real_neg(_eval(node[1], env, prec, memo))
    else:
        _, name, args = node
        values = [_eval(a, env, prec, memo) for a in args]
        if name == "abs":
            value = re.real_from_cut(re.real_abs(values[0]))
        elif name == "inv":
            value = re.real_inv(values[0], prec)
        elif name == "sup":
            value = re.real_sup(values)
        else:
            lo, hi = (re.real_tag(v) for v in values)
            if lo is None or hi is None:
                raise BadOrder("between() needs exact dyadic endpoints")
            value = re.real_from_dyadic(dy.between(lo, hi))
    memo[id(node)] = value
    return value


def evaluate(text: str, prec: int):
    """Parse and evaluate; returns the Dyadic when the value is exact, as
    reals.real_tag decides, and the Real otherwise.  Each distinct
    subexpression is one node of the parse, evaluated once."""
    value = _eval(parse_expr(text), {}, prec, {})
    exact = re.real_tag(value)
    return value if exact is None else exact


def _check_prec(prec: int) -> int:
    if prec < 0 or prec > PRECISION_CAP:
        raise PrecisionCap(
            f"precision must lie in 0..{PRECISION_CAP}, got {prec}"
        )
    return prec


def _emit(out, fmt: str, *records):
    """Write (record, plain line) pairs to out in one write, one line each:
    the record as JSON with sorted keys for json-lines, else the line."""
    if fmt == "json-lines":
        import json

        lines = [json.dumps(record, sort_keys=True) for record, _ in records]
    else:
        lines = [plain for _, plain in records]
    out.write("\n".join(lines) + "\n")


def _read_source(arg: str) -> str:
    return _read_text("-") if arg == "-" else arg


def _read_text(path: str) -> str:
    """The text of the file at path, or of stdin for "-"; bytes that are
    not UTF-8 end as NotUTF8 instead of escaping as UnicodeDecodeError.
    Stdin's bytes are decoded here, because its text layer may use the
    locale's surrogateescape handler; a stream with no byte layer, such
    as io.StringIO, is read as text."""
    try:
        if path == "-":
            raw = getattr(sys.stdin, "buffer", None)
            return sys.stdin.read() if raw is None else raw.read().decode("utf-8")
        with open(path, encoding="utf-8") as handle:
            return handle.read()
    except UnicodeDecodeError as exc:
        name = "stdin" if path == "-" else path
        raise NotUTF8(
            f"{name} is not valid UTF-8 (byte {exc.start}: {exc.reason})"
        ) from None


def _cmd_eval(args, out) -> int:
    prec = _check_prec(args.prec)
    value = evaluate(_read_source(args.expr), prec)
    if isinstance(value, dy.Dyadic):
        text = str(value)
        _emit(out, args.format, ({"exact": True, "kind": "dyadic", "value": text}, text))
        return 0
    # One bit deeper, so the printed interval is at most 2^-prec wide.
    lo, hi = (str(end) for end in re.real_interval(value, prec + 1))
    _emit(
        out,
        args.format,
        (
            {"exact": False, "hi": hi, "kind": "interval", "lo": lo, "precision": prec},
            f"[{lo}, {hi}]@{prec}",
        ),
    )
    return 0


def _cmd_cmp(args, out) -> int:
    prec = _check_prec(args.prec)
    a = evaluate(args.left, prec)
    b = evaluate(args.right, prec)
    if isinstance(a, dy.Dyadic) and isinstance(b, dy.Dyadic):
        order = dy.compare(a, b)
        word = "less" if order < 0 else "greater" if order > 0 else "equal"
    else:
        side = re.real_compare_eps(_as_real(a), _as_real(b), prec)
        word = side.value
    _emit(out, args.format, ({"kind": "comparison", "result": word}, word))
    return 2 if word == "indistinguishable" else 0


def _cmd_relcheck(args, out) -> int:
    """The fifteen classify flags, then the minima, maxima, weak minima and
    weak maxima of the whole carrier, each listed in carrier order from its
    mask's bits; the report is written at once."""
    rel = parse_relation(_read_text(args.path))
    records = []
    for name, value in classify(rel).as_dict().items():
        shown = name.replace("_", "-")
        records.append(
            ({"kind": "property", "name": shown, "value": value},
             f"{shown}: {'yes' if value else 'no'}")
        )
    atoms = rel.carrier.atoms
    masks = _extremal_masks(rel, (1 << len(atoms)) - 1)
    for shown, mask in zip(("minima", "maxima", "weak-minima", "weak-maxima"), masks):
        listed = [atoms[j] for j in _bits(mask)]
        records.append(
            ({"atoms": listed, "kind": "extremal", "name": shown},
             f"{shown}: {' '.join(listed) if listed else '(none)'}")
        )
    _emit(out, args.format, *records)
    return 0


def _cmd_enum(args, out) -> int:
    if args.what == "pair" and args.second is None:
        raise SettowerError("enum pair needs two naturals")
    if args.what != "pair" and args.second is not None:
        raise SettowerError(f"enum {args.what} takes one argument")
    if args.what == "pair":
        p, q = parse_nat(args.first), parse_nat(args.second)
        value = pair(p, q)
        text = _write_decimal(value)
        _emit(out, args.format, ({"kind": "pair", "p": p, "q": q, "value": value}, text))
        return 0
    if args.what == "unpair":
        r = parse_nat(args.first)
        p, q = unpair(r)
        _emit(out, args.format, ({"kind": "unpair", "p": p, "q": q, "value": r}, f"{p} {q}"))
        return 0
    index = parse_nat(args.first)
    text = str(enum_dyadics().forward(index))
    _emit(out, args.format, ({"index": index, "kind": "dyadic", "value": text}, text))
    return 0


def _precision_arg(text: str) -> int:
    """--prec as ASCII digits after an optional "-"; int() alone would also
    take " 7 ", "+7", "1_0" and non-ASCII digits.  The range is checked by
    _check_prec, so -1 and 9999 end there with exit status 1."""
    try:
        value = _read_decimal(text[1:] if text.startswith("-") else text)
    except SizeLimit:
        value = None
    if value is None:
        import argparse

        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    return -value if text.startswith("-") else value


def _build_parser() -> argparse.ArgumentParser:
    import argparse

    top = argparse.ArgumentParser(
        prog="settower",
        description="Exact set-theoretic arithmetic and relation reports.",
    )
    sub = top.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument(
            "--format",
            choices=("plain", "json-lines"),
            default="plain",
            help="output style",
        )

    def numeric(p):
        p.add_argument(
            "--prec",
            type=_precision_arg,
            default=DEFAULT_PRECISION,
            help=f"working precision in bits (default {DEFAULT_PRECISION}, "
            f"cap {PRECISION_CAP})",
        )
        common(p)

    p_eval = sub.add_parser("eval", help="evaluate an expression")
    p_eval.add_argument("expr", help="expression, or - to read stdin")
    numeric(p_eval)

    p_cmp = sub.add_parser("cmp", help="compare two expressions")
    p_cmp.add_argument("left")
    p_cmp.add_argument("right")
    numeric(p_cmp)

    p_rel = sub.add_parser("relcheck", help="classify a relation file")
    p_rel.add_argument("path", help="relation file, or - to read stdin")
    common(p_rel)

    p_enum = sub.add_parser("enum", help="pairing and enumeration utilities")
    p_enum.add_argument("what", choices=("pair", "unpair", "dyadic"))
    p_enum.add_argument("first")
    p_enum.add_argument("second", nargs="?")
    common(p_enum)
    return top


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    handlers = {
        "eval": _cmd_eval,
        "cmp": _cmd_cmp,
        "relcheck": _cmd_relcheck,
        "enum": _cmd_enum,
    }
    try:
        return handlers[args.command](args, sys.stdout)
    except (SettowerError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
