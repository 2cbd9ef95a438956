"""Checks of the console program as data: each row is one run, with its
arguments, its stdin, the exit status it must end with, and the stdout it
must print, as exact lines or as a pattern for the whole of stdout.  No
run may print a traceback.

    python tests/console_checks.py             # runs `python -m settower`
    python tests/console_checks.py settower    # runs an installed script

The tier-1 suite runs the table through ``python -m settower`` in a child
process (tests/test_console.py), and CI runs it against the installed
console script.
"""

import os
import re
import subprocess
import sys

# One interval line at the default precision.
ONE_INTERVAL = re.compile(r"\[.*\]@30\n")
# A row's stdin when the run starts with file descriptor 0 closed.
CLOSED = "closed"


def check(name, argv, status=0, stdout=(), stdin=None, stderr=None, env=None,
          timeout=60, module=False):
    """One row.  stdout is the exact lines printed, or a compiled pattern
    that all of stdout must match; stdin is bytes, or CLOSED; stderr, when
    given, is a pattern that some line of stderr must match; env entries
    are added to the environment; a module row always runs
    ``python -m settower``."""
    return {
        "name": name, "argv": argv, "status": status, "stdout": stdout,
        "stdin": stdin, "stderr": stderr, "env": env, "timeout": timeout,
        "module": module,
    }


def relcheck_lines(flags, minima, maxima, weak_minima, weak_maxima):
    """The plain relcheck report: flags is 15 characters of y and n, in
    classify's order."""
    names = [
        "reflexive", "antireflexive", "symmetric", "antisymmetric", "transitive",
        "connective", "directive", "pre-ordering", "ordering", "ordering-lt",
        "ordering-le", "direction", "equivalence", "total-ordering", "well-ordering",
    ]
    assert len(flags) == len(names)
    lines = [f"{name}: {'yes' if flag == 'y' else 'no'}" for name, flag in zip(names, flags)]
    return lines + [
        f"minima: {minima}", f"maxima: {maxima}",
        f"weak-minima: {weak_minima}", f"weak-maxima: {weak_maxima}",
    ]


def squaring_chain(levels):
    """let a0 = 3 in let a1 = a0*a0 in ... in aL - aL: 3^(2^19) squares
    within 2^20 mantissa bits, and 3^(2^20) does not."""
    lets = "".join(f"let a{i} = a{i - 1}*a{i - 1} in " for i in range(1, levels + 1))
    return f"let a0 = 3 in {lets}a{levels} - a{levels}"


# A descending chain a149 < ... < a0 with its diagonal, read from stdin.
CHAIN_150 = "carrier: " + " ".join(f"a{i}" for i in range(150)) + "\n" + "".join(
    f"a{i} a{j}\n" for i in range(150) for j in range(i + 1)
)

CHECKS = [
    check("relcheck", ["relcheck", "-"], stdin=b"carrier: a b\na b\n",
          stdout=relcheck_lines("nynyyynyyynnnyy", "a", "b", "a", "b")),
    check("relcheck-json", ["relcheck", "-", "--format", "json-lines"],
          stdin=b"carrier: b a c\nb a\na c\nb c\nc c\n",
          stdout=[
              '{"kind": "property", "name": "reflexive", "value": false}',
              '{"kind": "property", "name": "antireflexive", "value": false}',
              '{"kind": "property", "name": "symmetric", "value": false}',
              '{"kind": "property", "name": "antisymmetric", "value": true}',
              '{"kind": "property", "name": "transitive", "value": true}',
              '{"kind": "property", "name": "connective", "value": true}',
              '{"kind": "property", "name": "directive", "value": true}',
              '{"kind": "property", "name": "pre-ordering", "value": true}',
              '{"kind": "property", "name": "ordering", "value": true}',
              '{"kind": "property", "name": "ordering-lt", "value": false}',
              '{"kind": "property", "name": "ordering-le", "value": false}',
              '{"kind": "property", "name": "direction", "value": false}',
              '{"kind": "property", "name": "equivalence", "value": false}',
              '{"kind": "property", "name": "total-ordering", "value": true}',
              '{"kind": "property", "name": "well-ordering", "value": true}',
              '{"atoms": ["b"], "kind": "extremal", "name": "minima"}',
              '{"atoms": ["c"], "kind": "extremal", "name": "maxima"}',
              '{"atoms": ["b"], "kind": "extremal", "name": "weak-minima"}',
              '{"atoms": ["c"], "kind": "extremal", "name": "weak-maxima"}',
          ]),
    check("chain150", ["relcheck", "-"], stdin=CHAIN_150.encode(),
          stdout=relcheck_lines("ynnyyyyyynyynyy", "a149", "a0", "a149", "a0")),
    check("eval", ["eval", "inv(3)", "--prec", "16"], stdout=["[87381/2^18, 43691/2^17]@16"]),
    check("json", ["eval", "sup(1/2^2, 3/2^2)", "--format", "json-lines"],
          stdout=['{"exact": true, "kind": "dyadic", "value": "3/2^2"}']),
    check("module", ["eval", "1+1"], stdout=["2"], module=True),
    check("quotient", ["eval", "6/3"], stdout=["2"]),
    check("quotient-cmp", ["cmp", "6/3", "2"], stdout=["equal"]),
    check("sum", ["eval", "+".join(["1"] * 3000)], stdout=["3000"]),
    check("lets", ["eval", "".join(f"let v{k} = 0 in " for k in range(1500)) + "v1499"],
          stdout=["0"]),
    check("invsum", ["eval", "+".join(["inv(3)"] * 3000)], stdout=ONE_INTERVAL),
    # A 10^4-term sum of inv(k), k = 1..10^4, read from stdin.
    check("invsum10k", ["eval", "-"], timeout=30, stdout=ONE_INTERVAL,
          stdin=(" + ".join(f"inv({k})" for k in range(1, 10001)) + "\n").encode()),
    check("parens", ["eval", "(" * 400 + "inv(3) + 1" + ")" * 400], stdout=ONE_INTERVAL),
    # 10^5 nested parentheses, read from stdin: one argv string may not
    # pass 128 KiB on Linux.
    check("deep-parens", ["eval", "-"], timeout=30, stdout=ONE_INTERVAL,
          stdin=("(" * 10**5 + "inv(3) + 1" + ")" * 10**5).encode()),
    check("product", ["eval", "*".join(["inv(3)"] * 200)], stdout=ONE_INTERVAL),
    check("tiny", ["eval", "(1/2)^(2^40) / 3"], stdout=["[0, 1/2^34]@30"]),
    check("pairsum", ["eval", "inv(3) + (1/2)^(2^40)"],
          stdout=["[1431655765/2^32, 715827883/2^31]@30"]),
    check("mixedsum", ["eval", "inv(3) + (1/2)^(2^40) + 1"],
          stdout=["[5726623061/2^32, 11453246123/2^33]@30"]),
    check("chain19", ["eval", squaring_chain(19)], timeout=10, stdout=["0"]),
    check("chain20", ["eval", squaring_chain(20)], status=1, timeout=10,
          stderr=r"error: product needs more than 1048576 mantissa bits"),
    # A power obeys the product budget step by step: 3^(2^20) is refused
    # as 3^(2^19) * 3^(2^19) is, and 2^(2^20), of 2^20 + 1 bits, answers.
    check("pow20", ["cmp", "3^(2^20)", "1"], status=1, timeout=10,
          stderr=r"error: power needs more than 1048576 mantissa bits"),
    check("pow2", ["cmp", "2^(2^20)", "1"], timeout=10, stdout=["greater"]),
    # A sum and that sum times 1 obey one size budget.
    check("bigsum", ["cmp", "3^(2^19) + (1/2)^(2^20)", "1"], status=1,
          stderr=r"error: sum needs more than 1048576 mantissa bits"),
    check("bigsum-times-one", ["cmp", "(3^(2^19) + (1/2)^(2^20)) * 1", "1"], status=1,
          stderr=r"error: sum needs more than 1048576 mantissa bits"),
    # A quotient and a between() witness obey the budget as a sum does.
    check("quotient-budget", ["cmp", "3^(2^19) / (1/2)^(2^20)", "1"], status=1,
          stderr=r"error: quotient needs more than 1048576 mantissa bits"),
    check("between-budget", ["eval", "between(3^(2^19) * (1/2)^(2^21), 1/2^1048575)"],
          status=1, stderr=r"error: between needs more than 1048576 mantissa bits"),
    # 2000 distinct quotients k/d over seven divisors.
    check("kdsum", ["eval", " + ".join(
        f"{k}/{d}" for k, d in zip(range(1, 2001), [3, 5, 6, 7, 9, 10, 11] * 300))],
          stdout=["[702791692260017/2^31, 2811166769040069/2^33]@30"]),
    # Quotients over one divisor share its reciprocal and print what each
    # term's own reciprocal printed.
    check("sevenths", ["eval", "1/7 + 2/7 + 3/7"],
          stdout=["[3681400539/2^32, 920350135/2^30]@30"]),
    # A power, a + run and a quotient, rounded onto the 2^-202 grid.
    check("prec200-mix", ["eval", "--prec", "200", "inv(3)^12 + inv(5) + inv(7) - 5/9"],
          stdout=["[-1367160590324590099023455407123659175476973640615864433079205/2^202, "
                  "-5468642361298360396093821628494636701907894562463457732316815/2^204]@200"]),
    check("exponent", ["eval", "(1/2)^(2^14300)"], status=1, stderr=r"error: .*"),
    check("far", ["cmp", "(1/2)^(2^40)", "1"], stdout=["less"]),
    # A value is exact only where dyadic arithmetic finds it: 1/3 times 3
    # is an interval, an all-exact sum past the budget is refused, and a
    # sup with a non-exact argument keeps its pairwise tree.
    check("thirds-cmp", ["cmp", "inv(3)*3", "1"], status=2, stdout=["indistinguishable"]),
    check("exact-abs", ["eval", "abs((1/2)^(2^40) - 1)"], status=1,
          stderr=r"error: sum needs more than 1048576 mantissa bits"),
    check("mixed-sup", ["eval", "sup(1, 2, inv(3))"], stdout=["[34359738367/2^34, 2]@30"]),
    check("between", ["eval", "between(0, (1/2)^(2^40))"], stdout=["1/2^1099511627777"]),
    # Help and usage errors: argparse's exits.
    check("help", ["-h"], stdout=re.compile(r"usage: settower .*", re.S)),
    check("eval-help", ["eval", "-h"], stdout=re.compile(r"usage: settower eval .*", re.S)),
    check("no-expr", ["eval"], status=2,
          stderr=r".*the following arguments are required: expr"),
    check("bad-command", ["frobnicate"], status=2, stderr=r".*invalid choice.*"),
    # An argv that starts with a subcommand, parsed by that subcommand's
    # parser alone: an argument or option left over is still reported by
    # the settower parser, "--" still ends options, and an abbreviated -h
    # still prints the subcommand's help.
    check("unrecognized", ["eval", "1", "extra"], status=2,
          stderr=r".*unrecognized arguments: extra"),
    check("unrecognized-option", ["cmp", "1", "2", "--bogus"], status=2,
          stderr=r"settower: error: unrecognized arguments: --bogus"),
    check("negative", ["eval", "--", "-1"], stdout=["-1"]),
    check("eval-he", ["eval", "1", "--he"],
          stdout=re.compile(r"usage: settower eval .*", re.S)),
    check("closed-stdin", ["eval", "-"], status=1, stdin=CLOSED,
          stderr=r"error: stdin is closed"),
    check("bad", ["relcheck", "-"], status=1, stdin=b"carrier: a \xff\n", env={"LC_ALL": "C"},
          stderr=r".*not valid UTF-8.*"),
]


def failures(row, command):
    """What is wrong with one run of row under command (a list of program
    arguments), as a list of messages; empty when the run passes."""
    program = [sys.executable, "-m", "settower"] if row["module"] else command
    env = {**os.environ, **(row["env"] or {})}
    closed = row["stdin"] is CLOSED
    try:
        proc = subprocess.run(
            program + row["argv"], input=None if closed else row["stdin"] or b"",
            capture_output=True, env=env, timeout=row["timeout"],
            preexec_fn=(lambda: os.close(0)) if closed else None,
        )
    except subprocess.TimeoutExpired:
        return [f"no exit within {row['timeout']} s"]
    out, err = proc.stdout.decode(), proc.stderr.decode()
    found = []
    if proc.returncode != row["status"]:
        found.append(f"exit status {proc.returncode}, expected {row['status']}")
    if "Traceback" in err:
        found.append("a traceback on stderr")
    want = row["stdout"]
    if isinstance(want, re.Pattern):
        if not want.fullmatch(out):
            found.append(f"stdout {out!r} does not match {want.pattern!r}")
    elif out != "".join(line + "\n" for line in want):
        found.append(f"stdout {out!r}, expected the lines {list(want)!r}")
    if row["stderr"] is not None and not any(
        re.fullmatch(row["stderr"], line) for line in err.splitlines()
    ):
        found.append(f"no stderr line matches {row['stderr']!r}")
    if found:
        found.append(f"stderr was {err!r}")
    return found


def main(argv):
    command = argv or [sys.executable, "-m", "settower"]
    failed = 0
    for row in CHECKS:
        found = failures(row, command)
        failed += bool(found)
        for message in found:
            print(f"{row['name']}: {message}", file=sys.stderr)
    print(f"{len(CHECKS)} checks, {failed} failed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
