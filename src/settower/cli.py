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
The tokenizer tests for operators and whitespace first.  The parser reads
the tokens in one loop, keeping the expressions around the one it reads on
a stack, and emits a program: a list of instructions in post-order, each
naming its operands by slot, with each let name resolved to the slot of
its bound expression.  One dict numbers the instructions, so equal
subexpressions are one slot and each distinct literal text is parsed once.
The evaluator runs the program in one loop into a list of values, so a
repeated literal, inv(d), x / d, name read or any other repeated
subexpression is computed once, and neither walk recurses at any depth of
nesting.  A divisor's reciprocal is built once per evaluation too, where
inv(d) or the first x / d whose quotient is not exact needs it, and every
such x / d multiplies x by it.  Every value the evaluator builds is a
reals.Real, and reals alone decides when one is exact: reals.real_tag
reads an exact value, reals settles every exact result into the leaf pair
of its value, and real_inv, the exact quotient of real_div and real_pow
hold the rules of inv, / and ^, so each instruction is a call or two into
reals.

The package imports this module, so ``import settower`` pays for whatever
it imports at module level.  argparse and json are therefore imported where
they are used: argparse when main() builds its parser (or --prec is
refused), json when a record is written as json-lines.  A library user who
never calls main() loads neither.  When argv starts with a subcommand's
name, main() builds that subcommand's parser alone, as the settower parser
would build it, and parses the rest of argv with it; only an argv that
leaves something over, or that does not start with a subcommand, is
parsed by the settower parser, which lists every subcommand with its
arguments and reports exactly as before.  Keeping parsers across calls
would save more; it waits on the benchmark's memory accounting (ROADMAP
item 1).
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
    """The program of an eval expression and the slot of its value.  The
    program is a list of instructions in post-order, each a tuple (op,
    payload, *operand slots), where a slot is an instruction's index:
    ("num", d), ("unbound", name, position), ("neg", None, x), ("sum",
    None, *terms) for a run of + and -, with a neg instruction for each
    subtracted term, ("*", None, a, b), ("/", None, a, b) and ("^", None,
    a, b) for each step of a left fold, and (function, None, *arguments)
    for a call.  A let name is resolved here to the slot of its bound
    expression.  One dict numbers the instructions, so equal ones are one
    slot, and a literal is keyed by its text, so each distinct literal
    text is parsed once; an unbound name's instruction is never shared,
    so no instruction above it is either.

    One loop reads the input: ^ binds tighter than a prefix - run, which
    binds tighter than * and /, which bind tighter than + and -.  A
    parenthesis body, a call argument and a let's bound expression push
    the state of the expression around them onto a stack, which is popped
    when they end, so no depth of nesting makes the parser recurse."""
    tokens = _tokenize(text)
    program, slots, scope, stack = [], {}, {}, []

    def emit(*ins):
        slot = slots.get(ins)
        if slot is None:
            slot = slots[ins] = len(program)
            program.append(ins)
        return slot

    # The expression being read: the token that ends it ("in", ")", or
    # "call" for an argument) with the let's name or the call's name,
    # position and arguments; the names its let clauses bound, each with
    # the slot it hid; the terms of its + and - run so far and the sign of
    # the next; its open * or / step and ^ step, each an instruction that
    # lacks its right operand; and the parity of a prefix - run.
    close = info = None
    bound, terms, sign, factor, power, odd = [], [], "+", None, None, False
    i = 0
    while True:
        if not terms and factor is None and power is None:
            # The expression starts here, so let clauses may come first.
            while tokens[i][1] == "let":
                kind, name, at = tokens[i + 1]
                if kind != "name":
                    raise ExprSyntaxError("expected a name after 'let'", at)
                if tokens[i + 2][1] != "=":
                    raise ExprSyntaxError("expected '='", tokens[i + 2][2])
                stack.append((close, info, bound, terms, sign, factor, power, odd))
                close, info, bound, terms = "in", name, [], []
                i += 3
        if power is None:
            # Two minus signs cancel, so only an odd run leaves a neg.
            while tokens[i][1] == "-":
                odd = not odd
                i += 1
        kind, word, at = tokens[i]
        i += 1
        if kind == "num":
            node = slots.get(word)
            if node is None:
                try:
                    program.append(("num", dy.parse_dyadic(word)))
                except ExprSyntaxError as exc:
                    raise ExprSyntaxError(exc.message, at) from None
                node = slots[word] = len(program) - 1
        elif kind == "name" and tokens[i][1] != "(":
            node = scope.get(word)
            if node is None:
                node = len(program)
                program.append(("unbound", word, at))
        elif word == "(" or kind == "name":
            stack.append((close, info, bound, terms, sign, factor, power, odd))
            if word == "(":
                close = ")"
            elif word in _FUNCTIONS:
                close, info, i = "call", (word, at, []), i + 1
            else:
                raise ExprSyntaxError(f"unknown function {word!r}", at)
            bound, terms, sign, factor, power, odd = [], [], "+", None, None, False
            continue
        else:
            raise ExprSyntaxError(f"unexpected {word!r}" if word else "unexpected end of input", at)
        # node is an operand: close the steps it ends, up to the operator
        # that follows it.  When that ends the expression, its value is an
        # operand of the expression below it on the stack.
        while True:
            _, sym, at = tokens[i]
            i += 1
            if sym == "^":
                power = ("^", None, node if power is None else emit(*power, node))
                break
            if power is not None:
                node, power = emit(*power, node), None
            if odd:
                node, odd = emit("neg", None, node), False
            if factor is not None:
                node, factor = emit(*factor, node), None
            if sym == "*" or sym == "/":
                factor = (sym, None, node)
                break
            if sign == "-":
                node = emit("neg", None, node)
            if sym == "+" or sym == "-":
                terms.append(node)
                sign = sym
                break
            if terms:
                node = emit("sum", None, *terms, node)
            for name, hidden in reversed(bound):
                scope[name] = hidden
            if close is None:
                if sym:
                    raise ExprSyntaxError(f"trailing input {sym!r}", at)
                return program, node
            if close == "call":
                name, where, args = info
                args.append(node)
                if sym == ",":
                    bound, terms, sign = [], [], "+"
                    break
                if sym != ")":
                    raise ExprSyntaxError("expected ',' or ')'", at)
                low, high = _FUNCTIONS[name]
                if len(args) < low or (high is not None and len(args) > high):
                    raise ExprSyntaxError(
                        f"{name}() takes {low}{'' if high == low else '+'} "
                        f"argument(s), got {len(args)}",
                        where,
                    )
                node = emit(name, None, *args)
            elif sym != close:
                raise ExprSyntaxError(f"expected {close!r}", at)
            ended, name = close, info
            close, info, bound, terms, sign, factor, power, odd = stack.pop()
            if ended == "in":
                bound.append((name, scope.get(name)))
                scope[name] = node
                break


def _as_real(value) -> re.Real:
    if isinstance(value, dy.Dyadic):
        return re.real_from_dyadic(value)
    return value


def _nat_exponent(value: re.Real) -> int:
    d = re.real_tag(value)
    if d is not None and d.exp == 0 and d.sign >= 0:
        return d.man
    raise BadExponent("exponent must be an exact natural number")


def evaluate(text: str, prec: int):
    """Parse, then run the program in one loop into a list of values, one
    per slot, so each distinct subexpression is computed once, and each
    divisor's reciprocal at most once.  Every value is a reals.Real;
    returns the Dyadic when the result is exact, as reals.real_tag
    decides, and the Real otherwise."""
    program, result = parse_expr(text)
    values, inverses = [], {}
    for op, payload, *args in program:
        if op == "num":
            values.append(re.real_from_dyadic(payload))
            continue
        if op == "unbound":
            raise ExprSyntaxError(f"unbound name {payload!r}", args[0])
        xs = [values[s] for s in args]
        if op == "sum":
            value = re.real_sum(xs)
        elif op == "neg":
            value = re.real_neg(*xs)
        elif op == "*":
            value = re.real_mul(*xs)
        elif op == "/" or op == "inv":
            # x / d is x times d's reciprocal unless the quotient is exact,
            # and inv(d) is that reciprocal: one per divisor slot, built
            # where the evaluation first needs it.
            value = re._exact_quotient(*xs) if op == "/" else None
            if value is None:
                value = inverses.get(args[-1])
                if value is None:
                    value = inverses[args[-1]] = re.real_inv(xs[-1], prec)
                if op == "/":
                    value = re.real_mul(xs[0], value)
        elif op == "^":
            value = re.real_pow(xs[0], _nat_exponent(xs[1]))
        elif op == "abs":
            value = re.real_from_cut(re.real_abs(*xs))
        elif op == "sup":
            value = re.real_sup(xs)
        else:
            lo, hi = map(re.real_tag, xs)
            if lo is None or hi is None:
                raise BadOrder("between() needs exact dyadic endpoints")
            value = re.real_from_dyadic(dy.between(lo, hi))
        values.append(value)
    exact = re.real_tag(values[result])
    return values[result] if exact is None else exact


def _check_prec(prec: int) -> int:
    if prec < 0 or prec > PRECISION_CAP:
        raise PrecisionCap(
            f"precision must lie in 0..{PRECISION_CAP}, got {prec}"
        )
    return prec


def _emit(out, fmt: str, *records):
    """Write (record, plain line) pairs to out in one write, one line each:
    the record as JSON with sorted keys for json-lines, else the line.  out
    is None when the process started with stdout closed."""
    if out is None:
        raise OSError("stdout is closed")
    if fmt == "json-lines":
        import json

        lines = [json.dumps(record, sort_keys=True) for record, _ in records]
    else:
        lines = [plain for _, plain in records]
    out.write("\n".join(lines) + "\n")


def _read_text(path: str) -> str:
    """The text of the file at path, or of stdin for "-"; bytes that are
    not UTF-8 end as NotUTF8 instead of escaping as UnicodeDecodeError.
    Stdin's bytes are decoded here, because its text layer may use the
    locale's surrogateescape handler; a stream with no byte layer, such
    as io.StringIO, is read as text, and sys.stdin is None when the
    process started with stdin closed."""
    try:
        if path == "-":
            if sys.stdin is None:
                raise OSError("stdin is closed")
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
    value = evaluate(_read_text("-") if args.expr == "-" else args.expr, prec)
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


def _format_arg(p):
    p.add_argument(
        "--format",
        choices=("plain", "json-lines"),
        default="plain",
        help="output style",
    )


def _numeric_args(p):
    p.add_argument(
        "--prec",
        type=_precision_arg,
        default=DEFAULT_PRECISION,
        help=f"working precision in bits (default {DEFAULT_PRECISION}, "
        f"cap {PRECISION_CAP})",
    )
    _format_arg(p)


def _eval_args(p):
    p.add_argument("expr", help="expression, or - to read stdin")
    _numeric_args(p)


def _cmp_args(p):
    p.add_argument("left")
    p.add_argument("right")
    _numeric_args(p)


def _relcheck_args(p):
    p.add_argument("path", help="relation file, or - to read stdin")
    _format_arg(p)


def _enum_args(p):
    p.add_argument("what", choices=("pair", "unpair", "dyadic"))
    p.add_argument("first")
    p.add_argument("second", nargs="?")
    _format_arg(p)


# Each subcommand's help line, the function that adds its arguments, and
# its handler, in the order the usage line and -h list them.
_COMMANDS = {
    "eval": ("evaluate an expression", _eval_args, _cmd_eval),
    "cmp": ("compare two expressions", _cmp_args, _cmd_cmp),
    "relcheck": ("classify a relation file", _relcheck_args, _cmd_relcheck),
    "enum": ("pairing and enumeration utilities", _enum_args, _cmd_enum),
}


def _build_parser() -> argparse.ArgumentParser:
    """The settower parser listing every subcommand, each with its help line
    and arguments."""
    import argparse

    top = argparse.ArgumentParser(
        prog="settower",
        description="Exact set-theoretic arithmetic and relation reports.",
    )
    sub = top.add_subparsers(dest="command", required=True)
    for name, (text, add_args, _) in _COMMANDS.items():
        add_args(sub.add_parser(name, help=text))
    return top


def _command_parser(name: str) -> argparse.ArgumentParser:
    """The parser of the subcommand name alone, as _build_parser's
    add_parser builds it: prog "settower NAME", with name's arguments."""
    import argparse

    parser = argparse.ArgumentParser(prog="settower " + name)
    _COMMANDS[name][1](parser)
    return parser


def _parse(argv):
    """The namespace of argv, with the subcommand's name as its command.
    The top level's only option, -h/--help, takes no value, so when argv[0]
    names a subcommand argparse hands every later entry to that
    subcommand's parser unchanged, and the top level prints nothing of its
    own but a report of what is left over.  So that parser alone parses
    argv[1:], and only an argv that leaves something over, or that does not
    start with a subcommand, is parsed, and reported on, by the parser
    listing every subcommand."""
    if argv and argv[0] in _COMMANDS:
        args, rest = _command_parser(argv[0]).parse_known_args(argv[1:])
        if not rest:
            args.command = argv[0]
            return args
    return _build_parser().parse_args(argv)


def main(argv=None) -> int:
    args = _parse(sys.argv[1:] if argv is None else argv)
    try:
        return _COMMANDS[args.command][2](args, sys.stdout)
    except (SettowerError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
