import contextlib
import io
import json
import os
import random
import re as regex
import shlex
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from console_checks import squaring_chain
from settower import cli
from settower import dyadic as dy
from settower import reals
from settower.dyadic import make
from settower.errors import BadExponent, ExprSyntaxError, SettowerError

README = Path(__file__).resolve().parents[1] / "README.md"
DIGIT_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()

INTERVAL = regex.compile(
    r"^\[(-?\d+(?:/2\^\d+)?), (-?\d+(?:/2\^\d+)?)\]@(\d+)$"
)


def run_cli(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def interval_of(line):
    m = INTERVAL.match(line.strip())
    assert m, f"not an interval line: {line!r}"
    lo = oracles.to_fraction(dy.parse_dyadic(m.group(1)))
    hi = oracles.to_fraction(dy.parse_dyadic(m.group(2)))
    return lo, hi, int(m.group(3))


class TestExpressionParsing:
    @pytest.mark.parametrize(
        "text,value",
        [
            ("2+3*2^2", make(14, 0)),
            ("2^2^3", make(64, 0)),
            ("8/2/2", make(2, 0)),
            ("2-3-4", make(5, 0, -1)),
            ("-2^2", make(4, 0, -1)),
            ("(-2)^2", make(4, 0)),
            ("1/2 + 1/2", make(1, 0)),
            ("3.25 * 4", make(13, 0)),
            ("let x = 3 in x*x", make(9, 0)),
            ("let x = 1 in let x = 2 in x", make(2, 0)),
            ("let x = 2 in let y = x+1 in y*x", make(6, 0)),
            ("abs(-3.25)", make(13, 2)),
            ("sup(1/4, 3/4) ^ 2", make(9, 4)),
            ("between(0, 1)", make(1, 1)),
            ("0 * inv(3)", dy.ZERO),
        ],
    )
    def test_exact_results(self, text, value):
        assert cli.evaluate(text, 30) == value

    @pytest.mark.parametrize(
        "text,pos",
        [
            ("2 +", 3),
            ("(1", 2),
            ("2 @ 3", 2),
            ("0.1", 0),
            ("1 + 0.1", 4),
            ("x+1", 0),
            ("foo(1)", 0),
            ("inv(1,2)", 0),
            ("between(1)", 0),
            ("1 2", 2),
            ("2^-2", 2),
        ],
    )
    def test_syntax_errors_carry_positions(self, text, pos):
        with pytest.raises(ExprSyntaxError) as err:
            cli.evaluate(text, 30)
        assert err.value.position == pos

    def test_negative_exponent_needs_natural(self):
        with pytest.raises(BadExponent):
            cli.evaluate("2^(-2)", 30)
        with pytest.raises(BadExponent):
            cli.evaluate("2^(1/2)", 30)

    def test_let_binds_interval_values(self):
        value = cli.evaluate("let t = inv(3) in t+t+t", 24)
        lo, hi = reals.real_interval(reals.canonicalize(value), 24)
        assert oracles.to_fraction(lo) <= 1 <= oracles.to_fraction(hi)


class TestEvalCommand:
    @pytest.mark.parametrize(
        "expr,line",
        [
            ("1/2 + 1/2", "1"),
            ("3.25 * 4", "13"),
            ("0 * inv(3)", "0"),
            ("sup(1/4, 3/4) ^ 2", "9/2^4"),
            ("2^10", "1024"),
            ("-2^2", "-4"),
            ("between(0, 1)", "1/2^1"),
            ("5/8", "5/2^3"),
            ("6/3", "2"),
            ("-21/12", "-7/2^2"),
        ],
    )
    def test_exact_output(self, expr, line, capsys):
        # -- keeps leading-minus expressions out of option parsing
        code, out, err = run_cli(["eval", "--", expr], capsys)
        assert (code, err) == (0, "")
        assert out == line + "\n"

    def test_three_thirds(self, capsys):
        code, out, _ = run_cli(
            ["eval", "inv(3)+inv(3)+inv(3)", "--prec", "24"], capsys
        )
        assert code == 0
        assert out.strip() == "[134217727/2^27, 134217729/2^27]@24"

    def test_one_third_interval(self, capsys):
        code, out, _ = run_cli(["eval", "1/3"], capsys)
        assert code == 0
        lo, hi, prec = interval_of(out)
        assert prec == 30
        assert lo <= Fraction(1, 3) <= hi
        assert hi - lo <= Fraction(1, 1 << 29)

    def test_non_power_division_falls_back_to_interval(self, capsys):
        code, out, _ = run_cli(["eval", "7/3"], capsys)
        assert code == 0
        lo, hi, _ = interval_of(out)
        assert lo <= Fraction(7, 3) <= hi
        assert hi - lo <= Fraction(1, 1 << 29)

    @pytest.mark.parametrize(
        "expr,line",
        [
            ("inv(7)", "[153391689/2^30, 613566757/2^32]@30"),
            ("1/7", "[2454267025/2^34, 2454267027/2^34]@30"),
            ("inv(-3)", "[-715827883/2^31, -1431655765/2^32]@30"),
            ("2/6", "[1431655765/2^32, 2863311531/2^33]@30"),
        ],
    )
    def test_literal_divisors_build_one_leaf(self, expr, line, capsys, monkeypatch):
        # The reciprocal of a literal divisor is one leaf of its magnitude,
        # built without probing the divisor's sign.
        built = []

        def refuse(*args):
            raise AssertionError("probed a literal divisor")

        def record(d, build=reals.reciprocal):
            built.append(d)
            return build(d)

        monkeypatch.setattr(reals, "inverse", refuse)
        monkeypatch.setattr(reals, "reciprocal", record)
        assert run_cli(["eval", expr], capsys) == (0, line + "\n", "")
        divisor = {"inv(7)": 7, "1/7": 7, "inv(-3)": 3, "2/6": 6}[expr]
        assert built == [make(divisor, 0)]

    def test_divisors_share_one_leaf_per_evaluation(self, monkeypatch):
        # One reciprocal leaf, and so one exact check in reals.reciprocal,
        # per distinct divisor subexpression: inv(d) and every x / d whose
        # quotient is not exact share it.
        built, checks = [], []

        def record(d, build=reals.reciprocal):
            built.append(d)
            return build(d)

        def count(d, e, check=dy.exact_div):
            checks.append((d, e))
            return check(d, e)

        monkeypatch.setattr(reals, "reciprocal", record)
        text = "inv(3) + 1/3 + inv(3) - 1/3 + inv(-3) + 2/6 + inv(4) + inv(4)"
        value = cli.evaluate(text, 30)
        assert built == [make(3, 0), make(3, 0), make(6, 0), make(4, 0)]
        lo, hi = reals.real_interval(value, 30)
        want = Fraction(2, 3) + Fraction(1, 2)
        assert oracles.to_fraction(lo) <= want <= oracles.to_fraction(hi)
        # The values live for one call: a second evaluation builds its own.
        monkeypatch.setattr(dy, "exact_div", count)
        cli.evaluate("inv(7) - inv(3) + inv(7) - inv(3)", 30)
        assert built[4:] == [make(7, 0), make(3, 0)]
        assert checks == [(dy.ONE, make(7, 0)), (dy.ONE, make(3, 0))]

    def test_quotients_share_their_divisor_reciprocal(self, capsys, monkeypatch):
        # 1/7 + ... + 39/7 builds one reciprocal of 7, as 1*inv(7) + ... +
        # 39*inv(7) does, and prints what each term's own reciprocal gave.
        built = []

        def record(d, build=reals.reciprocal):
            built.append(d)
            return build(d)

        text = " + ".join(f"{k}/7" for k in range(1, 40))
        line = "[957164140251/2^33, 239291035063/2^31]@30\n"
        assert run_cli(["eval", text], capsys) == (0, line, "")
        monkeypatch.setattr(reals, "reciprocal", record)
        assert run_cli(["eval", text], capsys) == (0, line, "")
        assert built == [make(7, 0)]
        # A divisor is inverted only where a quotient is not exact, and
        # inv(d) reuses a reciprocal built for x / d, and the reverse.
        built.clear()
        assert cli.evaluate("6/3 + 0/3", 30) == make(2, 0)
        assert built == []
        cli.evaluate("1/3 + inv(3) + 2/3 + inv(5) + 7/5", 30)
        assert built == [make(3, 0), make(5, 0)]

    @pytest.mark.parametrize(
        "expr,error",
        [
            # The zero divisor is refused at the first quotient that needs
            # it, as before, and only there.
            ("4/2 + 0/0", "division by exact zero"),
            ("1/(1/2)^(2^21) + 5/0", "quotient needs more than 1048576 mantissa bits"),
            ("0/(1/2)^(2^21) + 1/0", "division by exact zero"),
            ("0/(1/2)^(2^21) + 3/(1/2)^(2^21)", "quotient needs more than 1048576 mantissa bits"),
        ],
    )
    def test_shared_reciprocals_keep_each_error(self, expr, error, capsys):
        assert run_cli(["eval", expr], capsys) == (1, "", f"error: {error}\n")

    def test_abs_of_interval(self, capsys):
        code, out, _ = run_cli(["eval", "abs(inv(3) - 1)"], capsys)
        assert code == 0
        lo, hi, _ = interval_of(out)
        assert lo <= Fraction(2, 3) <= hi

    def test_sup_mixing_exact_and_interval(self, capsys):
        code, out, _ = run_cli(["eval", "sup(inv(3), 3/4)"], capsys)
        assert code == 0
        lo, hi, _ = interval_of(out)
        assert lo <= Fraction(3, 4) <= hi

    @pytest.mark.parametrize(
        "sign,top",
        [
            (lambda k: "", Fraction(1)),
            (lambda k: "-", Fraction(-1, 10**4)),
            (lambda k: "-" if k % 2 == 0 else "", Fraction(1)),
        ],
        ids=["positive", "negative", "mixed"],
    )
    def test_sup_of_ten_thousand_reciprocals(self, sign, top, capsys):
        k, prec = 10**4, 30
        expr = "sup(" + ", ".join(f"{sign(i)}inv({i})" for i in range(1, k + 1)) + ")"
        code, out, err = run_cli(["eval", "--prec", str(prec), "--", expr], capsys)
        assert (code, err) == (0, "")
        lo, hi, at = interval_of(out)
        assert at == prec and lo <= top <= hi and hi - lo <= Fraction(2, 1 << prec)
        bits = max(end.denominator.bit_length() - 1 for end in (lo, hi))
        assert bits <= prec + (k - 1).bit_length() + 4

    def test_stdin_source(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "stdin", io.StringIO("1+1\n"))
        code, out, _ = run_cli(["eval", "-"], capsys)
        assert code == 0
        assert out == "2\n"

    @pytest.mark.parametrize(
        "expr,needle",
        [
            ("inv(0)", "division by exact zero"),
            ("1/0", "division by exact zero"),
            ("inv(inv(3)-inv(3))", "not certified nonzero"),
            ("2^(1/2)", "exponent"),
            ("between(1, 0)", "between"),
            ("between(inv(3), 1)", "exact dyadic endpoints"),
            ("2 +", "unexpected end of input"),
        ],
    )
    def test_failures_exit_one(self, expr, needle, capsys):
        code, out, err = run_cli(["eval", expr], capsys)
        assert code == 1
        assert out == ""
        assert err.startswith("error:")
        assert needle in err

    def test_precision_cap(self, capsys):
        code, _, err = run_cli(["eval", "1", "--prec", "9999"], capsys)
        assert code == 1 and "precision" in err
        code, _, err = run_cli(["eval", "1", "--prec", "-1"], capsys)
        assert code == 1 and "precision" in err

    # int() reads all of these; --prec takes ASCII digits only.
    @pytest.mark.parametrize(
        "prec",
        ["abc", "\u0663", "\u00b2", " 7 ", "+7", "1_0", "7" * (DIGIT_LIMIT + 700)],
        ids=["letters", "arabic-indic", "superscript", "spaces", "plus", "underscore", "long"],
    )
    def test_precision_spelling_is_a_usage_error(self, prec, capsys):
        argv = ["eval", "inv(3)", "--prec", prec]
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        captured = capsys.readouterr()
        assert exc.value.code == 2 and captured.out == ""
        assert "argument --prec: invalid int value" in captured.err
        proc = run_in_a_process(argv)
        assert (proc.returncode, proc.stdout) == (2, "")
        assert "argument --prec: invalid int value" in proc.stderr
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("prec", ["-1", "9999"])
    def test_precision_out_of_range_in_a_process(self, prec):
        proc = run_in_a_process(["eval", "1", "--prec", prec])
        assert (proc.returncode, proc.stdout) == (1, "")
        assert proc.stderr == f"error: precision must lie in 0..200, got {prec}\n"

    def test_json_lines_exact(self, capsys):
        code, out, _ = run_cli(
            ["eval", "1/2 + 1/2", "--format", "json-lines"], capsys
        )
        assert code == 0
        assert out == '{"exact": true, "kind": "dyadic", "value": "1"}\n'

    def test_json_lines_interval(self, capsys):
        code, out, _ = run_cli(
            ["eval", "inv(3)", "--prec", "12", "--format", "json-lines"],
            capsys,
        )
        assert code == 0
        record = json.loads(out)
        assert record["kind"] == "interval"
        assert record["exact"] is False
        assert record["precision"] == 12
        lo = oracles.to_fraction(dy.parse_dyadic(record["lo"]))
        hi = oracles.to_fraction(dy.parse_dyadic(record["hi"]))
        assert lo <= Fraction(1, 3) <= hi


class TestPowers:
    @pytest.mark.parametrize("m", [1, 2, 5, 64, 100])
    @pytest.mark.parametrize("base,root", [("inv(3)", 3), ("(0 - inv(3))", -3)])
    def test_square_and_multiply_matches_linear_chain(self, base, root, m):
        # The reference multiplies one factor at a time, as ^ used to.
        want = Fraction(1, root) ** m
        a = cli.evaluate(base, 30)
        chain = oracles.pow_chain(
            a, m, reals.real_mul, reals.real_from_dyadic(dy.ONE),
        )
        got = cli.evaluate(f"{base}^{m}", 30)
        for value in (got, chain):
            lo, hi = reals.real_interval(reals.canonicalize(value), 30)
            assert oracles.to_fraction(lo) <= want <= oracles.to_fraction(hi)
        side = reals.real_compare_eps(got, chain, 30)
        assert side is reals.Comparison.INDISTINGUISHABLE

    def test_zeroth_power_stays_exact(self):
        assert cli.evaluate("inv(3)^0", 30) == dy.ONE

    @pytest.mark.parametrize("prec", [30, 120])
    @pytest.mark.parametrize("k,m", [(3, 150), (7, 1000)])
    def test_long_ladders_print_short_endpoints(self, k, m, prec, capsys):
        code, out, err = run_cli(
            ["eval", f"inv({k})^{m}", "--prec", str(prec)], capsys
        )
        assert (code, err) == (0, "")
        lo, hi, at = interval_of(out)
        assert at == prec
        assert lo <= Fraction(1, k) ** m <= hi
        assert hi - lo <= Fraction(2, 1 << prec)
        ends = INTERVAL.match(out.strip()).groups()[:2]
        assert all(dy.parse_dyadic(e).exp <= prec + 8 for e in ends)

    @pytest.mark.parametrize("prec", [30, 120])
    def test_deep_ladders_compare(self, prec, capsys):
        code, out, err = run_cli(
            ["cmp", "inv(3)^190", "inv(3)^192", "--prec", str(prec)], capsys
        )
        assert (code, out, err) == (2, "indistinguishable\n", "")

    @pytest.mark.parametrize(
        "expr", ["inv(3)^1000", "3/2^40000 * 2^40000"]
    )
    def test_large_results_are_fast(self, expr):
        # Both took seconds when mul did not round and make halved one bit
        # at a time; now they take milliseconds.
        start = time.perf_counter()
        cli.evaluate(expr, 30)
        assert time.perf_counter() - start < 1.0


class TestPowerSizeGuard:
    @pytest.mark.parametrize(
        "expr,line",
        [
            ("(1/2)^(2^40)", "1/2^1099511627776"),
            ("(-1)^(2^40)", "1"),
            ("2^30200/2^30190", "1024"),
        ],
    )
    def test_answers_stay(self, expr, line, capsys):
        assert run_cli(["eval", expr], capsys) == (0, line + "\n", "")
        proc = run_in_a_process(["eval", expr])
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, line + "\n", "")

    @pytest.mark.parametrize("expr", ["2^100000000", "2^(2^40)", "(3/2)^(2^40) * 0"])
    def test_oversized_powers_are_refused_before_they_are_built(self, expr, capsys):
        start = time.perf_counter()
        code, out, err = run_cli(["eval", expr], capsys)
        assert time.perf_counter() - start < 0.5
        assert (code, out) == (1, "")
        assert err == f"error: power needs more than {dy.POW_BIT_LIMIT} mantissa bits\n"
        assert_no_traceback_in_a_process(["eval", expr])


class TestProductSizeGuard:
    """An exact product obeys the power's size limit: x * x is refused
    exactly when x^2 is, before it is built."""

    def test_the_squaring_chain_ends_at_the_limit(self, capsys):
        assert run_cli(["eval", squaring_chain(19)], capsys) == (0, "0\n", "")
        start = time.perf_counter()
        code, out, err = run_cli(["eval", squaring_chain(20)], capsys)
        assert time.perf_counter() - start < 2.0
        assert (code, out) == (1, "")
        assert err == f"error: product needs more than {dy.POW_BIT_LIMIT} mantissa bits\n"

    @pytest.mark.parametrize(
        "argv",
        [
            ["cmp", "3^(2^19) * 3^(2^19)", "1"],
            ["eval", "let a = 3^(2^19) in a*a - a*a"],
            ["eval", "3^(2^19) * inv(3)"],
        ],
    )
    def test_products_past_the_limit_exit_one(self, argv, capsys):
        assert run_cli(argv, capsys) == (
            1, "", f"error: product needs more than {dy.POW_BIT_LIMIT} mantissa bits\n"
        )

    def test_no_traceback_in_a_process(self):
        assert_no_traceback_in_a_process(["eval", squaring_chain(20)])

    def test_a_sum_and_that_sum_times_one_agree(self, capsys):
        # The sum's mantissa holds about 2^20 + 830,000 bits.
        total = "3^(2^19) + (1/2)^(2^20)"
        refused = (1, "", f"error: sum needs more than {dy.POW_BIT_LIMIT} mantissa bits\n")
        assert run_cli(["cmp", total, "1"], capsys) == refused
        assert run_cli(["cmp", f"({total}) * 1", "1"], capsys) == refused
        assert run_cli(["cmp", "3^(2^19) + 1", "1"], capsys) == (0, "greater\n", "")


class TestFarApartExponents:
    """Exact values whose exponents lie more than 2^20 apart: comparisons
    answer, and a sum, quotient or reciprocal that would shift a mantissa
    that far ends as an error before it allocates."""

    @pytest.mark.parametrize(
        "argv,line",
        [
            (["cmp", "(1/2)^(2^40)", "1"], "less"),
            (["cmp", "(1/2)^(2^40)", "(1/2)^(2^41)"], "greater"),
            (["eval", "sup((1/2)^(2^40), 1)"], "1"),
            # Zero, equal exponents and products shift nothing past the limit.
            (["eval", "between(0, (1/2)^(2^40))"], "1/2^1099511627777"),
            (["eval", "(1/2)^(2^40) * 0"], "0"),
            (["eval", "(1/2)^(2^40) - (1/2)^(2^40)"], "0"),
            (["eval", "(1/2)^(2^40) * 2^(2^19)"], "1/2^1099511103488"),
            (["cmp", "(1/2)^(2^40)", "(1/2)^(2^40)"], "equal"),
            # The embedding rounds the tiny factor onto the query grid.
            (["eval", "(1/2)^(2^40) / 3"], "[0, 1/2^34]@30"),
            # A run with a Real sums its far-apart exact terms as leaves.
            (["eval", "inv(3) + (1/2)^(2^40) + 1"], "[5726623061/2^32, 11453246123/2^33]@30"),
            (["eval", "1 - inv(3) + (1/2)^(2^40)"], "[1431655765/2^31, 5726623063/2^33]@30"),
        ],
    )
    def test_answers(self, argv, line, capsys):
        assert run_cli(argv, capsys) == (0, line + "\n", "")
        proc = run_in_a_process(argv)
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, line + "\n", "")

    @pytest.mark.parametrize(
        "expr,what",
        [
            ("(1/2)^(2^40) + 1", "sum"),
            ("inv((1/2)^(2^40))", "quotient"),
            ("(1/2)^(2^14300) + 1", "sum"),
        ],
    )
    def test_refusals_exit_one(self, expr, what, capsys):
        start = time.perf_counter()
        code, out, err = run_cli(["eval", expr], capsys)
        assert time.perf_counter() - start < 0.5
        assert (code, out) == (1, "")
        assert err == f"error: {what} needs more than {dy.POW_BIT_LIMIT} mantissa bits\n"
        assert_no_traceback_in_a_process(["eval", expr])

    def test_an_operand_error_comes_before_the_sum_refusal(self, capsys):
        # A run's operands are all evaluated before its exact terms are summed.
        argv = ["eval", "(1/2)^(2^40) + 1 + inv(0)"]
        assert run_cli(argv, capsys) == (1, "", "error: division by exact zero\n")


@pytest.mark.skipif(not DIGIT_LIMIT, reason="no int->str digit limit")
class TestDigitLimit:
    @pytest.mark.parametrize("fmt", ["plain", "json-lines"])
    @pytest.mark.parametrize(
        "argv",
        [
            ["eval", f"2^{4 * DIGIT_LIMIT}"],
            ["eval", f"inv(3) * 2^{4 * DIGIT_LIMIT}"],
            ["enum", "pair"]
            + [d * (DIGIT_LIMIT // 2 + 150) for d in "73"],
            # Past the limit in the exponent, not the mantissa.
            ["eval", f"(1/2)^(10^{DIGIT_LIMIT})"],
        ],
    )
    def test_results_past_the_limit_exit_one(self, argv, fmt, capsys):
        code, out, err = run_cli(argv + ["--format", fmt], capsys)
        assert (code, out) == (1, "")
        assert err.startswith("error:") and "digits" in err
        assert_no_traceback_in_a_process(argv + ["--format", fmt])

    def test_boundary(self, capsys):
        code, out, _ = run_cli(["eval", f"10^{DIGIT_LIMIT} - 1"], capsys)
        assert (code, out) == (0, "9" * DIGIT_LIMIT + "\n")
        code, out, _ = run_cli(["eval", f"10^{DIGIT_LIMIT}"], capsys)
        assert (code, out) == (1, "")

    def test_limit_is_read_when_printing(self, capsys):
        sys.set_int_max_str_digits(640)
        try:
            assert run_cli(["eval", "2^3000"], capsys)[0] == 1
            assert run_cli(["eval", "2^2000"], capsys)[0] == 0
        finally:
            sys.set_int_max_str_digits(DIGIT_LIMIT)

    def test_no_limit_without_the_interpreter_hook(self, capsys, monkeypatch):
        monkeypatch.delattr(sys, "get_int_max_str_digits")
        sys.set_int_max_str_digits(0)
        try:
            code, out, _ = run_cli(["eval", "2^15000"], capsys)
            assert (code, out) == (0, str(2**15000) + "\n")
        finally:
            sys.set_int_max_str_digits(DIGIT_LIMIT)

    @pytest.mark.parametrize(
        "argv",
        [
            ["eval", "7" * (DIGIT_LIMIT + 700)],
            ["eval", "1." + "5" * (DIGIT_LIMIT + 700)],
            ["enum", "unpair", "7" * (DIGIT_LIMIT + 700)],
        ],
        ids=["eval-int", "eval-decimal", "enum-unpair"],
    )
    def test_inputs_past_the_limit_exit_one(self, argv, capsys):
        code, out, err = run_cli(argv, capsys)
        assert (code, out) == (1, "")
        assert err.startswith("error:") and "digits" in err
        assert_no_traceback_in_a_process(argv)

    def test_no_traceback_in_a_process(self):
        assert_no_traceback_in_a_process(["eval", f"2^{4 * DIGIT_LIMIT}"])


def run_in_a_process(argv):
    return subprocess.run(
        [
            sys.executable,
            "-c",
            f"from settower.cli import main; raise SystemExit(main({argv!r}))",
        ],
        capture_output=True,
        text=True,
        timeout=60,
    )


def assert_no_traceback_in_a_process(argv):
    proc = run_in_a_process(argv)
    assert proc.returncode == 1 and proc.stdout == ""
    assert proc.stderr.startswith("error:")
    assert "Traceback" not in proc.stderr


class TestNonAsciiDigits:
    # Superscript two, Arabic-Indic three and fullwidth two all pass
    # str.isdigit(), and int() reads the last two; only ASCII digits are
    # decimal input.
    @pytest.mark.parametrize(
        "argv",
        [
            ["enum", "unpair", "\u00b2"],
            ["eval", "\u00b2"],
            ["eval", "\u0663+1"],
            ["enum", "dyadic", "1\uff12"],
        ],
        ids=["unpair-superscript", "eval-superscript", "eval-arabic-indic", "dyadic-fullwidth"],
    )
    def test_exit_one(self, argv, capsys):
        code, out, err = run_cli(argv, capsys)
        assert (code, out) == (1, "")
        assert err.startswith("error:")
        assert_no_traceback_in_a_process(argv)


def readme_commands():
    """(argv, stdin, stdout) for each `$ ...` line in the README's sh
    blocks that runs settower: stdin is None for `$ settower ...`, and the
    text printf writes for `$ printf '...' | settower ...`."""
    commands = []
    for block in regex.findall(r"```sh\n(.*?)```", README.read_text(), regex.S):
        current = None
        for line in block.splitlines():
            if line.startswith("$ "):
                current = None
                words = shlex.split(line[2:])
                stdin = None
                if words[:1] == ["printf"] and words[2:4] == ["|", "settower"]:
                    stdin = words[1].encode().decode("unicode_escape")
                    words = words[3:]
                if words[:1] == ["settower"]:
                    current = (words[1:], stdin, [])
                    commands.append(current)
            elif current is not None:
                current[2].append(line + "\n")
    return [(argv, stdin, "".join(out)) for argv, stdin, out in commands]


def readme_examples():
    """(argv, stdout) for each `$ settower ...` line in the README."""
    return [(argv, out) for argv, stdin, out in readme_commands() if stdin is None]


def readme_piped_examples():
    """(argv, stdin, stdout) for each `$ printf ... | settower ...` line."""
    return [command for command in readme_commands() if command[1] is not None]


class TestReadmeExamples:
    def test_inv3_at_sixteen_is_pinned(self):
        assert (
            ["eval", "inv(3)", "--prec", "16"],
            "[87381/2^18, 43691/2^17]@16\n",
        ) in readme_examples()

    @pytest.mark.parametrize(
        "argv,want",
        readme_examples(),
        ids=[" ".join(argv) for argv, _ in readme_examples()],
    )
    def test_output_matches(self, argv, want, capsys):
        code, out, err = run_cli(argv, capsys)
        assert (out, err) == (want, "")
        assert code == (2 if want == "indistinguishable\n" else 0)

    def test_every_command_line_runs_settower(self):
        lines = [
            line
            for block in regex.findall(r"```sh\n(.*?)```", README.read_text(), regex.S)
            for line in block.splitlines()
            if line.startswith("$ ") and "settower" in line
        ]
        assert len(lines) == len(readme_commands())
        assert [argv for argv, _, _ in readme_piped_examples()] == [["relcheck", "-"]]

    @pytest.mark.parametrize(
        "argv,stdin,want",
        readme_piped_examples(),
        ids=[" ".join(argv) for argv, _, _ in readme_piped_examples()],
    )
    def test_piped_output_matches(self, argv, stdin, want, capsys, monkeypatch):
        monkeypatch.setattr(sys, "stdin", io.StringIO(stdin))
        code, out, err = run_cli(argv, capsys)
        assert (code, out, err) == (0, want, "")


class TestCmpCommand:
    @pytest.mark.parametrize(
        "left,right,word,code",
        [
            ("1/2", "1", "less", 0),
            ("1", "1/2", "greater", 0),
            ("2", "2", "equal", 0),
            ("6/3", "2", "equal", 0),
            ("inv(3)", "1/2", "less", 0),
            ("inv(3)", "inv(3)", "indistinguishable", 2),
        ],
    )
    def test_orders(self, left, right, word, code, capsys):
        got, out, err = run_cli(["cmp", left, right, "--prec", "10"], capsys)
        assert got == code
        assert out == word + "\n"
        assert err == ""

    def test_close_values_need_depth(self, capsys):
        args = ["cmp", "inv(3)", "inv(3) + 1/2^8"]
        code, out, _ = run_cli(args + ["--prec", "4"], capsys)
        assert (code, out) == (2, "indistinguishable\n")
        code, out, _ = run_cli(args + ["--prec", "16"], capsys)
        assert (code, out) == (0, "less\n")

    def test_json_lines(self, capsys):
        code, out, _ = run_cli(
            ["cmp", "1/2", "1", "--format", "json-lines"], capsys
        )
        assert code == 0
        assert out == '{"kind": "comparison", "result": "less"}\n'


EXAMPLE_FILE = """\
# one reflexive point inside a chain
carrier: a b c
a b
b c
a c
b b
"""

EXAMPLE_REPORT = """\
reflexive: no
antireflexive: no
symmetric: no
antisymmetric: yes
transitive: yes
connective: yes
directive: no
pre-ordering: yes
ordering: yes
ordering-lt: no
ordering-le: no
direction: no
equivalence: no
total-ordering: yes
well-ordering: yes
minima: a
maxima: c
weak-minima: a
weak-maxima: c
"""


class TestRelcheckCommand:
    def test_report(self, tmp_path, capsys):
        path = tmp_path / "rel.txt"
        path.write_text(EXAMPLE_FILE)
        code, out, err = run_cli(["relcheck", str(path)], capsys)
        assert (code, err) == (0, "")
        assert out == EXAMPLE_REPORT

    def test_stdin(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "stdin", io.StringIO(EXAMPLE_FILE))
        code, out, _ = run_cli(["relcheck", "-"], capsys)
        assert code == 0
        assert out == EXAMPLE_REPORT

    def test_empty_relation_is_vacuously_strict(self, tmp_path, capsys):
        path = tmp_path / "rel.txt"
        path.write_text("carrier: a b\n")
        code, out, _ = run_cli(["relcheck", str(path)], capsys)
        assert code == 0
        lines = dict(
            line.split(": ", 1) for line in out.strip().splitlines()
        )
        assert lines["antireflexive"] == "yes"
        assert lines["ordering-lt"] == "yes"
        assert lines["connective"] == "no"
        assert lines["well-ordering"] == "no"
        assert lines["minima"] == "(none)"
        assert lines["weak-minima"] == "a b"

    def test_json_lines(self, tmp_path, capsys):
        path = tmp_path / "rel.txt"
        path.write_text(EXAMPLE_FILE)
        code, out, _ = run_cli(
            ["relcheck", str(path), "--format", "json-lines"], capsys
        )
        assert code == 0
        records = [json.loads(line) for line in out.splitlines()]
        assert len(records) == 19
        properties = {
            r["name"]: r["value"] for r in records if r["kind"] == "property"
        }
        assert properties["well-ordering"] is True
        assert properties["directive"] is False
        extremals = {
            r["name"]: r["atoms"] for r in records if r["kind"] == "extremal"
        }
        assert extremals == {
            "minima": ["a"],
            "maxima": ["c"],
            "weak-minima": ["a"],
            "weak-maxima": ["c"],
        }

    def test_bad_file_exits_one(self, tmp_path, capsys):
        path = tmp_path / "rel.txt"
        path.write_text("a b\n")
        code, _, err = run_cli(["relcheck", str(path)], capsys)
        assert code == 1 and "carrier" in err

    def test_missing_file_exits_one(self, tmp_path, capsys):
        code, _, err = run_cli(["relcheck", str(tmp_path / "nope.txt")], capsys)
        assert code == 1 and err.startswith("error:")


RELATION_KINDS = ("chain", "poset", "preorder", "equivalence", "sparse", "empty")


def relation_file(rng, n, kind):
    """A relation file on n atoms of one kind, its carrier in a shuffled
    order, with comments and blank lines now and then."""
    atoms = [f"r{i}" for i in rng.sample(range(10 * n), n)]
    order = rng.sample(atoms, n)
    weak = rng.random() < 0.5
    blocks = [order[k::max(1, n // 3)] for k in range(max(1, n // 3))]
    if kind == "chain":
        pairs = [(x, y) for i, x in enumerate(order) for y in order[i + (not weak):]]
    elif kind == "poset":
        edges = [(x, y) for i, x in enumerate(order) for y in order[i + 1:] if rng.random() < 2 / n]
        pairs = sorted(oracles.closure_oracle(atoms, edges)) + [(x, x) for x in atoms if weak]
    elif kind == "preorder":
        pairs = [(x, y) for i, b in enumerate(blocks) for c in blocks[i:] for x in b for y in c]
    elif kind == "equivalence":
        pairs = [(x, y) for b in blocks for x in b for y in b]
    elif kind == "sparse":
        pairs = [(rng.choice(atoms), rng.choice(atoms)) for _ in range(n + n // 2)]
    else:
        pairs = []
    lines = ["carrier: " + " ".join(atoms)] + [f"{x} {y}" for x, y in pairs]
    if rng.random() < 0.3:
        lines.insert(rng.randrange(len(lines) + 1), "")
        lines.insert(rng.randrange(1, len(lines) + 1), "# a comment")
        lines[-1] += "  # trailing"
    return "\n".join(lines) + "\n"


class TestRelcheckReport:
    """relcheck's exit status and output are byte-identical to
    oracles.relcheck_report, which renders the public classify and
    extremal."""

    @pytest.mark.parametrize("fmt", ["plain", "json-lines"])
    @pytest.mark.parametrize("kind", RELATION_KINDS)
    def test_matches_the_public_functions(self, kind, fmt, tmp_path, capsys):
        rng = random.Random(f"{kind}:{fmt}")
        path = tmp_path / "rel.txt"
        for n in (1, 2, 3, 5, 8, 13, 40, 41, 64, 97, 150):
            text = relation_file(rng, n, kind)
            path.write_text(text)
            got = run_cli(["relcheck", str(path), "--format", fmt], capsys)
            assert got == oracles.relcheck_report(text, fmt), (kind, n)

    @pytest.mark.parametrize("fmt", ["plain", "json-lines"])
    def test_stdin_and_errors_match(self, fmt, capsys, monkeypatch):
        rng = random.Random(fmt)
        texts = [relation_file(rng, n, "poset") for n in (1, 150)] + [
            "a b\n",
            "carrier: a b\na c\n",
            "carrier: a b\na b b\n",
            "carrier: a a\n",
        ]
        for text in texts:
            monkeypatch.setattr(sys, "stdin", io.StringIO(text))
            got = run_cli(["relcheck", "-", "--format", fmt], capsys)
            assert got == oracles.relcheck_report(text, fmt), text

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_small_relations_match(self, data):
        rng = random.Random(data.draw(st.integers(0, 2**32)))
        n = data.draw(st.integers(1, 7))
        kind = data.draw(st.sampled_from(RELATION_KINDS))
        fmt = data.draw(st.sampled_from(["plain", "json-lines"]))
        text = relation_file(rng, n, kind)
        out, err = io.StringIO(), io.StringIO()
        stdin, sys.stdin = sys.stdin, io.StringIO(text)
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(["relcheck", "-", "--format", fmt])
        finally:
            sys.stdin = stdin
        assert (code, out.getvalue(), err.getvalue()) == oracles.relcheck_report(text, fmt)


@pytest.mark.parametrize(
    "argv",
    [["relcheck", "-", "--prec", "5"], ["enum", "pair", "3", "5", "--prec", "5"]],
    ids=["relcheck", "enum"],
)
def test_prec_is_a_usage_error_outside_eval_and_cmp(argv, capsys, monkeypatch):
    monkeypatch.setattr(sys, "stdin", io.StringIO("carrier: a\n"))
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    captured = capsys.readouterr()
    assert exc.value.code == 2 and captured.out == ""
    assert "unrecognized arguments: --prec 5" in captured.err


NOT_UTF8 = b"carrier: a b\na \xff\n"


class TestNotUTF8:
    def test_file_exits_one(self, tmp_path, capsys):
        path = tmp_path / "bad.rel"
        path.write_bytes(NOT_UTF8)
        code, out, err = run_cli(["relcheck", str(path)], capsys)
        assert (code, out) == (1, "")
        assert err == f"error: {path} is not valid UTF-8 (byte 15: invalid start byte)\n"
        assert_no_traceback_in_a_process(["relcheck", str(path)])

    @pytest.mark.parametrize(
        "argv,data",
        [(["relcheck", "-"], NOT_UTF8), (["eval", "-"], b"inv(\xc3)")],
        ids=["relcheck", "eval"],
    )
    def test_strict_stdin_exits_one(self, argv, data, capsys, monkeypatch):
        stdin = io.TextIOWrapper(io.BytesIO(data), encoding="utf-8")
        monkeypatch.setattr(sys, "stdin", stdin)
        code, out, err = run_cli(argv, capsys)
        assert (code, out) == (1, "")
        assert err.startswith("error: stdin is not valid UTF-8 (byte ")
        program = f"from settower.cli import main; raise SystemExit(main({argv!r}))"
        proc = subprocess.run(
            [sys.executable, "-c", program],
            input=data,
            capture_output=True,
            env={**os.environ, "PYTHONIOENCODING": "utf-8:strict"},
            timeout=60,
        )
        assert (proc.returncode, proc.stdout) == (1, b"")
        assert proc.stderr.decode().startswith("error: stdin is not valid UTF-8")

    @pytest.mark.parametrize("argv", [["relcheck", "-"], ["eval", "-"]], ids=["relcheck", "eval"])
    def test_escaping_stdin_exits_one(self, argv, capsys, monkeypatch):
        # The POSIX locale's stdin turns bad bytes into surrogates instead
        # of raising; the bytes under it are what gets decoded.
        stdin = io.TextIOWrapper(io.BytesIO(NOT_UTF8), encoding="utf-8", errors="surrogateescape")
        monkeypatch.setattr(sys, "stdin", stdin)
        code, out, err = run_cli(argv, capsys)
        assert (code, out) == (1, "")
        assert err == "error: stdin is not valid UTF-8 (byte 15: invalid start byte)\n"

    @pytest.mark.parametrize("locale", [None, "C", "POSIX"], ids=["default", "C", "POSIX"])
    @pytest.mark.parametrize(
        "argv,data",
        [(["relcheck", "-"], b"carrier: a \xff\na \xff\n"), (["eval", "-"], b"inv(\xff)")],
        ids=["relcheck", "eval"],
    )
    def test_stdin_in_a_process(self, argv, data, locale):
        env = {k: v for k, v in os.environ.items() if k != "PYTHONIOENCODING"}
        if locale is not None:
            env["LC_ALL"] = locale
        program = f"from settower.cli import main; raise SystemExit(main({argv!r}))"
        proc = subprocess.run(
            [sys.executable, "-c", program],
            input=data,
            capture_output=True,
            env=env,
            timeout=60,
        )
        assert (proc.returncode, proc.stdout) == (1, b"")
        assert proc.stderr.decode().startswith("error: stdin is not valid UTF-8 (byte ")
        assert b"Traceback" not in proc.stderr


class TestClosedStreams:
    """A process started with stdin or stdout closed has sys.stdin or
    sys.stdout None; a command that needs the closed stream ends as an
    error with exit status 1, and one that does not runs as usual."""

    @pytest.mark.parametrize("argv", [["eval", "-"], ["relcheck", "-"]], ids=["eval", "relcheck"])
    def test_closed_stdin_exits_one(self, argv, capsys, monkeypatch):
        monkeypatch.setattr(sys, "stdin", None)
        assert run_cli(argv, capsys) == (1, "", "error: stdin is closed\n")

    def test_closed_stdin_unread(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "stdin", None)
        assert run_cli(["eval", "1"], capsys) == (0, "1\n", "")

    @pytest.mark.parametrize(
        "argv",
        [["eval", "1"], ["eval", "inv(3)"], ["cmp", "1", "2"], ["relcheck", "-"],
         ["enum", "pair", "1", "2", "--format", "json-lines"]],
        ids=shlex.join,
    )
    def test_closed_stdout_exits_one(self, argv, monkeypatch):
        err = io.StringIO()
        monkeypatch.setattr(sys, "stdin", io.StringIO("carrier: a\n"))
        monkeypatch.setattr(sys, "stdout", None)
        monkeypatch.setattr(sys, "stderr", err)
        assert (cli.main(argv), err.getvalue()) == (1, "error: stdout is closed\n")


class TestEnumCommand:
    def test_pair(self, capsys):
        code, out, _ = run_cli(["enum", "pair", "3", "5"], capsys)
        assert (code, out) == (0, "41\n")

    def test_unpair(self, capsys):
        code, out, _ = run_cli(["enum", "unpair", "23"], capsys)
        assert (code, out) == (0, "4 2\n")

    def test_roundtrip_through_text(self, capsys):
        code, out, _ = run_cli(["enum", "pair", "4", "2"], capsys)
        n = out.strip()
        code, out, _ = run_cli(["enum", "unpair", n], capsys)
        assert out == "4 2\n"

    def test_dyadic(self, capsys):
        code, out, _ = run_cli(["enum", "dyadic", "17"], capsys)
        assert (code, out) == (0, "3/2^2\n")

    def test_argument_counts(self, capsys):
        code, out, err = run_cli(["enum", "pair", "3"], capsys)
        assert (code, out, err) == (1, "", "error: enum pair needs two naturals\n")
        code, out, err = run_cli(["enum", "unpair", "3", "4"], capsys)
        assert (code, out, err) == (1, "", "error: enum unpair takes one argument\n")

    def test_non_natural_rejected(self, capsys):
        code, _, err = run_cli(["enum", "pair", "x", "2"], capsys)
        assert code == 1 and err.startswith("error:")

    def test_json_lines(self, capsys):
        code, out, _ = run_cli(
            ["enum", "pair", "3", "5", "--format", "json-lines"], capsys
        )
        assert out == '{"kind": "pair", "p": 3, "q": 5, "value": 41}\n'
        code, out, _ = run_cli(
            ["enum", "dyadic", "17", "--format", "json-lines"], capsys
        )
        assert out == '{"index": 17, "kind": "dyadic", "value": "3/2^2"}\n'


class TestStability:
    def test_repeated_runs_are_byte_identical(self, capsys):
        first = run_cli(["eval", "inv(3)", "--prec", "20"], capsys)
        second = run_cli(["eval", "inv(3)", "--prec", "20"], capsys)
        assert first == second

    def test_entry_point_subprocess(self):
        proc = subprocess.run(
            [
                sys.executable,
                "-c",
                "from settower.cli import main; raise SystemExit(main(['eval', '1+1']))",
            ],
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert proc.returncode == 0
        assert proc.stdout == "2\n"

    def test_module_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "settower", "eval", "inv(3)", "--prec", "16"],
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert (proc.returncode, proc.stdout, proc.stderr) == (
            0,
            "[87381/2^18, 43691/2^17]@16\n",
            "",
        )


def random_expr(rng, depth, names=()):
    """A random expression of the eval grammar, mixing exact dyadics with
    non-dyadic reciprocals so both the exact and the interval paths run."""
    if depth == 0 or rng.random() < 0.25:
        atoms = ["0", "1", "3", "0.75", "2.5", "inv(3)", "inv(7)", "between(0, 1)"]
        return rng.choice(atoms + list(names))
    a = random_expr(rng, depth - 1, names)
    pick = rng.randrange(9)
    if pick < 4:
        b = random_expr(rng, depth - 1, names)
        return f"({a}) {'+-*/'[pick]} ({b})"
    if pick == 4:
        return f"({a})^{rng.randrange(4)}"
    if pick == 5:
        return f"-({a})"
    if pick == 6:
        return f"{rng.choice(['abs', 'inv'])}({a})"
    if pick == 7:
        rest = [random_expr(rng, depth - 1, names) for _ in range(rng.randrange(1, 3))]
        return f"sup({', '.join([a] + rest)})"
    name = f"v{len(names)}"
    return f"let {name} = {a} in {random_expr(rng, depth - 1, names + (name,))}"


def fold_corpus(seed=4, evals=1500, cmps=500):
    rng = random.Random(seed)
    corpus = []
    for k in range(evals + cmps):
        command = "eval" if k < evals else "cmp"
        exprs = [random_expr(rng, 3) for _ in range(1 if k < evals else 2)]
        # "--" keeps an expression that starts with "-" positional.
        corpus.append([command, "--prec", str(rng.randrange(61)), "--", *exprs])
    return corpus


def quiet_main(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def exiting_main(argv):
    """quiet_main's answer to argv, where an argparse exit gives the exit
    status."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def every_command_answers(corpus):
    """exiting_main's answers to corpus when every main call parses its
    whole argv with one parser that lists every subcommand with its
    arguments, as argv that does not start with a subcommand is parsed."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cli, "_parse", cli._build_parser().parse_args)
        return [exiting_main(argv) for argv in corpus]


# The evaluators that today's cli.evaluate replaced, each with the reals
# nodes it ran on where today's replaced those too.  The generic nodes fold
# no exact zero, and the CLI's 0 * inv(3) is exact only by that folding, so
# they run under the two-type evaluator, whose exact zero needs no node.
REFERENCES = {
    "two_types": (oracles.evaluate_two_types, {}),
    "leaves": (oracles.evaluate_with_leaves, {}),
    "generic_nodes": (oracles.evaluate_two_types, oracles.GENERIC_NODES),
    "binary_add": (oracles.evaluate_descent, {"add": oracles.generic_add}),
    "descent": (oracles.evaluate_descent, {}),
}


def reference_answers(name, corpus):
    """every_command_answers to corpus with the reference `name` in place:
    one parser with every subcommand's arguments, which the real
    cli._build_parser builds once for the pass, parses each argv."""
    evaluate, nodes = REFERENCES[name]
    with pytest.MonkeyPatch.context() as patch:
        for attr, node in nodes.items():
            patch.setattr(reals, attr, node)
        patch.setattr(cli, "evaluate", evaluate)
        return every_command_answers(corpus)


def assert_same_answers(name, corpus, today=None):
    """cli.main as shipped (or its answers in `today`) ends each argv of
    corpus with the same exit status, stdout and stderr as the reference."""
    wants = reference_answers(name, corpus)
    for argv, got, want in zip(corpus, today or map(quiet_main, corpus), wants):
        assert got == want, argv


@pytest.fixture(scope="session")
def fold_answers():
    """Today's quiet_main answers to fold_corpus(seed) for seeds 4 and 11,
    computed once per session with no patch active."""
    assert getattr(sys, "get_int_max_str_digits", lambda: 0)() == DIGIT_LIMIT
    return {seed: [quiet_main(argv) for argv in fold_corpus(seed)] for seed in (4, 11)}


class TestZeroFolding:
    def test_stdout_matches_the_generic_nodes(self, fold_answers):
        corpus, folded = fold_corpus(), fold_answers[4]
        for argv, f, g in zip(corpus, folded, reference_answers("generic_nodes", corpus)):
            assert_stdout_agrees(argv, f, g)
        # The corpus reaches the interval path, not just exact answers.
        assert sum("@" in out for _, out, _ in folded) > len(corpus) // 4

    @pytest.mark.parametrize("seed", [4, 11])
    def test_outcomes_match_the_binary_add(self, seed, fold_answers):
        """Every + and - in fold_corpus joins two operands.  Binary descent
        with generic_add in place of reals.add evaluates them as the CLI
        did before add became the Sum node of two operands; exit status,
        stderr and every answer but a printed interval stay the same."""
        corpus, summed = fold_corpus(seed), fold_answers[seed]
        binary = reference_answers("binary_add", corpus)
        changed = 0
        for argv, (code, out, err), want in zip(corpus, summed, binary):
            if "@" in out and "@" in want[1]:
                changed += out != want[1]
                out = want[1]
            assert (code, out, err) == want, argv
        # The two rules round differently, so some intervals do change.
        assert changed > 0


def random_chain(rng, names=()):
    """Operands of random_expr joined by bare operators, after up to three
    minus signs and under up to three let clauses, so runs of every
    precedence level, of lets and of signs meet in one expression."""
    if names == () and rng.random() < 0.5:
        clauses = []
        for k in range(rng.randrange(1, 4)):
            clauses.append(f"let v{k} = {random_chain(rng, names)} in ")
            names += (f"v{k}",)
        return "".join(clauses) + random_chain(rng, names)

    def operand():
        text = random_expr(rng, 1, names)
        return f"({text})" if text.startswith("let") else text

    text = "-" * rng.randrange(4) + operand()
    for _ in range(rng.randrange(6)):
        sym = rng.choice(["+", "-", "*", "/", "^", " + -", " * --"])
        text += sym + (str(rng.randrange(3)) if sym == "^" else operand())
    return text


# Tokens of the eval grammar and a little junk, in any order.
expr_token_strings = st.lists(
    st.sampled_from(
        ["0", "1", "3", "0.75", "0.1", "x", "v0", "let", "in", "=", "+", "-", "*",
         "/", "^", "(", ")", ",", "abs", "inv", "sup", "between", " ", "@"]
    ),
    max_size=20,
).map("".join)

chain_texts = st.integers(0, 2**32 - 1).map(lambda seed: random_chain(random.Random(seed)))


def outcome(evaluate, text, prec=30):
    """An exact Dyadic, the intervals at precisions 0..40, or the error's
    type and text (which carries an ExprSyntaxError's position)."""
    try:
        value = evaluate(text, prec)
        if isinstance(value, dy.Dyadic):
            return value
        return [reals.real_interval(value, n) for n in range(41)]
    except SettowerError as exc:
        return type(exc), str(exc)


def assert_outcome_agrees(text, prec=30):
    """The CLI's outcome against binary descent's: an exact answer or an
    error is the same; where descent gives intervals, the CLI's at each
    precision n bracket the exact value within 2^(1-n).  A run of three
    or more + and - operands is one Sum node, so its intervals differ."""
    want = outcome(oracles.evaluate_descent, text, prec)
    got = outcome(cli.evaluate, text, prec)
    if not isinstance(want, list):
        assert got == want
        return
    assert isinstance(got, list), got
    value = oracles.exact_value(text)
    for n, (lo, hi) in enumerate(got):
        lo, hi = oracles.to_fraction(lo), oracles.to_fraction(hi)
        assert lo <= value <= hi and hi - lo <= Fraction(2, 1 << n), n


def assert_stdout_agrees(argv, got, want):
    """quiet_main's (code, stdout, stderr) for argv against binary
    descent's: exact answers, errors and exit status are the same; an
    interval brackets the exact value within 2^(1-prec), and a cmp verdict
    never contradicts the exact order."""
    if got == want:
        return
    prec = int(argv[argv.index("--prec") + 1]) if "--prec" in argv else 30
    values = [oracles.exact_value(e) for e in argv[argv.index("--") + 1:]]
    assert 1 not in (got[0], want[0]) and got[2] == want[2] == "", argv
    if argv[0] == "eval":
        assert (got[0], want[0]) == (0, 0) and "@" in want[1]
        lo, hi, at = interval_of(got[1])
        assert at == prec and lo <= values[0] <= hi
        assert hi - lo <= Fraction(2, 1 << prec)
        return
    word, gap = got[1].strip(), values[0] - values[1]
    assert want[1].strip() != "equal"
    assert got[0] == (2 if word == "indistinguishable" else 0)
    assert {
        "less": gap < 0,
        "greater": gap > 0,
        "indistinguishable": abs(gap) <= Fraction(2, 1 << prec),
    }[word]


# Nesting depth of the inputs that must answer without recursion.
DEEP = 10**5

LONG_RUNS = [
    ("+".join(["1"] * 3000), "3000"),
    ("*".join(["3"] * 2000), str(3**2000)),
    ("".join(f"let v{k} = 0 in " for k in range(1500)) + "v1499", "0"),
    ("-" * 3001 + "1", "-1"),
    ("+".join(["inv(3)"] * 3000), "[8589934591999/2^33, 8589934592001/2^33]@30"),
    ("(" * 400 + "inv(3) + 1" + ")" * 400, "[5726623061/2^32, 11453246123/2^33]@30"),
]


class TestOneValueType:
    """cli.evaluate, where every value is a Real, against the evaluator it
    replaced, where a value was a Dyadic while every step stayed exact
    (oracles.evaluate_two_types): cli.main ends with the same exit status
    and prints the same stdout and stderr."""

    @pytest.mark.parametrize("seed", [4, 11])
    def test_fold_corpus_matches_the_two_type_evaluator(self, seed, fold_answers):
        assert_same_answers("two_types", fold_corpus(seed), fold_answers[seed])

    @pytest.mark.parametrize(
        "argv",
        [
            ["eval", "--", "sup(1, -(1/2)^(2^40))"],
            ["eval", "--", "sup(-3, -(1/2)^(2^40), -1)"],
            ["eval", "(1 + (1/2)^600000) * (1 + (1/2)^600000)"],
            ["cmp", "(1 + (1/2)^600000) * (1 + (1/2)^600000)", "1"],
            # The exact quotient's mantissa passes the budget, so both
            # evaluators refuse it before it cancels or meets a zero factor.
            ["eval", "3^(2^19) / (1/2)^(2^20) - 3^(2^19) / (1/2)^(2^20)"],
            ["eval", "3^(2^19) / (1/2)^(2^20) * 0"],
            ["cmp", "0 * (3^(2^19) / (1/2)^(2^20))", "2^(3^(2^19) / (1/2)^(2^20) * 0)"],
            ["eval", "inv(3) + (1/2)^(2^40) + 1 + 1"],
            ["eval", "abs((1/2)^(2^40) - 1)"],
        ],
        ids=["sup", "sup3", "product", "product-cmp", "quotient-sum", "zero-product",
             "zero-product-cmp", "mixed-sum", "abs"],
    )
    def test_far_apart_values_match_the_two_type_evaluator(self, argv):
        assert_same_answers("two_types", [argv])

    @given(chain_texts, chain_texts, st.integers(0, 60))
    @settings(max_examples=150)
    def test_chains_match_the_two_type_evaluator(self, left, right, prec):
        assert_same_answers("two_types", [["eval", "--prec", str(prec), "--", left],
                                          ["cmp", "--prec", str(prec), "--", left, right]])


# Inputs where sharing, a memo, an error or the size budget could tell the
# two evaluators apart.
SHARING_PROBES = [
    "inv(3) + 1/3 + inv(3) - 1/3 + inv(-3) + 2/6",
    "let x = inv(3) in let x = x * x in x + x - inv(3) * inv(3)",
    "(let x = 1 in 2) + (let x = 1 in 2)",
    "(let x = 1 in x) + (let x = 2 in x) + (let x = 1 in x)",
    "let x = 1 in (let x = 2 in x) + x + (let x = 2 in x)",
    "let x = 3 in x + y + x + y",
    "(let x = 1 in x) + x",
    "sup(let y = 2 in y, y) + inv(let y = 3 in y) * y",
    "inv(0) + inv(0)",
    "inv(inv(3) - inv(3)) + inv(inv(3) - inv(3))",
    "1/(inv(3)*3 - 1) + 1/(inv(3)*3 - 1)",
    "(inv(3) + 1)^5 * (inv(3) + 1)^5 / (inv(3) + 1)^5",
    "2^(1/2) + 2^(1/2)",
    "inv(3)^0 + inv(3)^0",
    "sup(inv(3), inv(3), -inv(3)) - abs(-inv(3))",
    "between(1/3, 1) + between(0, 1) + between(0, 1)",
    "3^(2^19) / (1/2)^(2^20)",
    "between(3^(2^19) * (1/2)^(2^21), 1/2^1048575)",
    "3^(2^19) / (1/2)^(2^20) * 0",
    "(1 + (1/2)^600000) * (1 + (1/2)^600000)",
    "inv(3) + (1/2)^(2^40) + 1 + inv(3)",
    " + ".join(f"{k}/{d}" for k, d in zip(range(1, 300), [3, 5, 6, 7, 9] * 60)),
]


class TestSharing:
    """cli.evaluate, which evaluates each distinct subexpression once,
    against the evaluator it replaced, which walked the tree and kept a
    leaves dict of literal leaf pairs and exact divisors' reciprocals
    (oracles.evaluate_with_leaves): cli.main ends with the same exit status
    and prints the same stdout and stderr."""

    @pytest.mark.parametrize("seed", [4, 11])
    def test_fold_corpus_matches_the_leaves_evaluator(self, seed, fold_answers):
        assert_same_answers("leaves", fold_corpus(seed), fold_answers[seed])

    @pytest.mark.parametrize("text", SHARING_PROBES)
    def test_probes_match_the_leaves_evaluator(self, text):
        assert_same_answers("leaves", [["eval", "--", text], ["cmp", "--", text, text],
                                       ["cmp", "--prec", "3", "--", text, "1"]])

    @given(chain_texts, chain_texts, st.integers(0, 60))
    @settings(max_examples=150)
    def test_chains_match_the_leaves_evaluator(self, left, right, prec):
        assert_same_answers("leaves", [["eval", "--prec", str(prec), "--", left + " + " + left],
                                       ["cmp", "--prec", str(prec), "--", left, right]])

    def test_each_distinct_subexpression_is_evaluated_once(self, monkeypatch):
        # inv(3) + 1 occurs three times and is one slot; x + x reads the
        # slot of 1 twice.
        sums = []

        def record(xs, build=reals.real_sum):
            xs = list(xs)
            sums.append(len(xs))
            return build(xs)

        monkeypatch.setattr(reals, "real_sum", record)
        text = "(inv(3) + 1) * (inv(3) + 1) - (inv(3) + 1) + (let x = 1 in x + x)"
        cli.evaluate(text, 30)
        assert sums == [2, 2, 3]


class TestChains:
    @given(expr_token_strings)
    @settings(max_examples=200)
    def test_token_strings_match_binary_descent(self, text):
        assert_outcome_agrees(text)

    @given(chain_texts)
    @settings(max_examples=200)
    def test_chains_match_binary_descent(self, text):
        assert_outcome_agrees(text)

    def test_stdout_matches_binary_descent(self):
        corpus = fold_corpus(seed=11, evals=300, cmps=100)
        rng = random.Random(11)
        corpus += [["eval", "--", random_chain(rng)] for _ in range(300)]
        corpus += [["cmp", "--", random_chain(rng), random_chain(rng)] for _ in range(100)]
        descent = reference_answers("descent", corpus)
        for argv, c, d in zip(corpus, map(quiet_main, corpus), descent):
            assert_stdout_agrees(argv, c, d)

    @pytest.mark.parametrize(
        "text,want", LONG_RUNS, ids=["sum", "product", "lets", "minus", "inv_sum", "parens"]
    )
    def test_long_runs_answer(self, text, want, capsys):
        with pytest.raises(RecursionError):
            oracles.evaluate_descent(text, 30)
        assert run_cli(["eval", "--", text], capsys) == (0, want + "\n", "")
        proc = run_in_a_process(["eval", "--", text])
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, want + "\n", "")

    @pytest.mark.parametrize(
        "text",
        [
            "*".join(["inv(3)"] * 200),
            "let x = inv(5) in " + "let x = x * inv(5) in " * 199 + "x",
        ],
        ids=["product", "let_product"],
    )
    def test_non_exact_products_answer(self, text, capsys, monkeypatch):
        # A factor costs four frames: query and the oracle of its Sum and of
        # its mul node.  generic_mul's guard reads hi(0) through two frames
        # more, so 200 factors pass the recursion limit.
        want = (0, "[0, 1/2^34]@30\n", "")
        assert run_cli(["eval", "--", text], capsys) == want
        proc = run_in_a_process(["eval", "--", text])
        assert (proc.returncode, proc.stdout, proc.stderr) == want
        monkeypatch.setattr(reals, "mul", oracles.generic_mul)
        with pytest.raises(RecursionError):
            run_cli(["eval", "--", text], capsys)

    @pytest.mark.parametrize("k", [3, 100, 10**4])
    @pytest.mark.parametrize("prec", [0, 30, 120])
    def test_sum_endpoints_follow_the_precision(self, k, prec, capsys):
        # One Sum node rounds onto the 2^-(prec+3) grid, whatever k.
        bases = [3, 5, 6, 7, 9, 10, 11, 12, 13, 14, 15]
        terms = [bases[i % len(bases)] for i in range(k)]
        text = " - ".join(f"inv({b})" for b in terms)
        start = time.perf_counter()
        code, out, err = run_cli(["eval", "--prec", str(prec), "--", text], capsys)
        assert time.perf_counter() - start < 0.5
        assert (code, err) == (0, "")
        lo, hi, at = interval_of(out)
        value = Fraction(1, terms[0]) - sum(Fraction(1, b) for b in terms[1:])
        assert at == prec and lo <= value <= hi and hi - lo <= Fraction(1, 1 << prec)
        assert max(end.denominator.bit_length() - 1 for end in (lo, hi)) <= prec + 3

    @pytest.mark.parametrize(
        "text,want",
        [
            ("(" * DEEP + "inv(3) + 1" + ")" * DEEP, "[5726623061/2^32, 11453246123/2^33]@30"),
            ("-(" * DEEP + "1" + ")" * DEEP, "1"),
            ("sup(1, " * DEEP + "2" + ")" * DEEP, "2"),
            ("abs(" * DEEP + "-1" + ")" * DEEP, "1"),
            ("(let x = 1 in " * DEEP + "x + 1" + ")" * DEEP, "2"),
        ],
        ids=["parens", "minus", "sup", "abs", "let"],
    )
    def test_deep_nesting_answers(self, text, want, capsys):
        # The parser keeps the expressions around the one it reads on a
        # stack, and evaluate runs the program in one loop, so neither
        # recurses at any depth; parentheses and let build no reals node,
        # and reals settles each exact -, sup and abs into a leaf pair.
        assert sys.getrecursionlimit() == 1000
        assert run_cli(["eval", "--", text], capsys) == (0, want + "\n", "")


def syntax_outcome(fn, text):
    """fn(text), or its ExprSyntaxError's message and position."""
    try:
        return fn(text)
    except ExprSyntaxError as exc:
        return exc.message, exc.position


class TestParser:
    """cli.parse_expr against RunDescent, the descent with one method per
    precedence level that its one loop replaced: it parses exactly the
    texts RunDescent parses, and ends every other text with the same error
    at the same position.  The program it builds is checked by evaluating
    it against evaluators that walk RunDescent's trees (TestOneValueType
    and TestSharing)."""

    @given(st.one_of(expr_token_strings, chain_texts))
    @settings(max_examples=600)
    def test_parses_as_run_descent(self, text):
        # Each side's outcome is "parsed", or its error's message and
        # position; both parsers return a nonempty tuple.
        def outcome(parse):
            return syntax_outcome(lambda t: parse(t) and "parsed", text)

        assert outcome(cli.parse_expr) == outcome(lambda t: oracles.RunDescent(t).parse())

    def test_each_literal_text_is_parsed_once(self, monkeypatch):
        # One parse_dyadic call per distinct literal text in a parse_expr
        # call; repeated literals share one slot.  A second call parses
        # again, so nothing is kept between calls.
        texts = []
        literals = [("num", dy.parse_dyadic(t)) for t in ("3", "1", "0.5")]

        def record(text, parse=dy.parse_dyadic):
            texts.append(text)
            return parse(text)

        monkeypatch.setattr(dy, "parse_dyadic", record)
        program, _ = cli.parse_expr("inv(3) + 1/3 - 3 * inv(3) + 0.5^3")
        assert texts == ["3", "1", "0.5"]
        assert [ins for ins in program if ins[0] == "num"] == literals
        cli.parse_expr("3 + 3")
        assert texts[3:] == ["3"]

    def test_equal_subtrees_are_one_node(self, monkeypatch):
        # Equal instructions are one slot, also where they read a let name
        # or sit in different let bodies; an unbound name's instruction is
        # never shared, nor is any above it.
        def slots(text):
            program, result = cli.parse_expr(text)
            assert result == len(program) - 1
            return len(program)

        # 1, 2, 1 + 2, inv, 3, 3 ^ 2, neg, *, 2 ^ 3, neg, sum.
        assert slots("inv(1 + 2) * -(3 ^ 2) + inv(1 + 2) * -(3 ^ 2) - 2 ^ 3") == 11
        assert slots("(let y = 1 in 2) - (let y = 1 in 2)") == 4
        assert slots("let x = inv(3) in x*x + x*x") == slots("inv(3)*inv(3) + inv(3)*inv(3)") == 4
        assert slots("(let x = 1 in x) + (let y = 1 in y + 0) + 1") == 4
        program, _ = cli.parse_expr("inv(x) + inv(x) + x")
        assert [ins[0] for ins in program] == ["unbound", "inv", "unbound", "inv", "unbound", "sum"]
        # So the repeated product reads one value.
        products = []

        def record(x, y, mul=reals.real_mul):
            products.append((x, y))
            return mul(x, y)

        monkeypatch.setattr(reals, "real_mul", record)
        cli.evaluate("let x = inv(3) in x*x + x*x", 30)
        assert len(products) == 1

    def test_a_bad_literal_reports_its_first_position(self):
        with pytest.raises(ExprSyntaxError) as err:
            cli.parse_expr("1 + 0.1 + 0.1")
        assert err.value.position == 4


# Characters the tokenizer must class as str methods do: the grammar's own,
# whitespace that is not ASCII, digits that are not ASCII (which isdigit
# takes and parse_dyadic refuses, such as the superscript two), letters and
# numerals that are not ASCII, and junk.
TOKEN_CHARS = (
    "0123456789.+-*/^(),= _xvlet"
    "\t\n\x0b\x0c\r\x1c\x85\xa0 　"
    "٣१²①\U0001d7d9"
    "éλǅ½Ⅷ"
    "@#$%\x00€\U0001f600﻿"
)

tokenizer_texts = st.one_of(
    expr_token_strings,
    st.text(st.sampled_from(TOKEN_CHARS), max_size=30),
    # Digit runs around a ".", where a number may or may not go on.
    st.text(st.sampled_from("019.٣²x "), max_size=10),
    st.text(max_size=30),
)


class TestTokenizer:
    """cli._tokenize against tokenize_by_char, the loop it replaced: the
    same tokens and positions, or the same error at the same position."""

    @given(tokenizer_texts)
    @settings(max_examples=1500)
    def test_tokens_match_the_character_loop(self, text):
        assert syntax_outcome(cli._tokenize, text) == syntax_outcome(oracles.tokenize_by_char, text)

    @pytest.mark.parametrize(
        "text",
        ["1.5", "1.", "1..5", ".5", "1.5.5", "x1.5", "_a1", "²", "1²", "٣.5",
         "1.٣", "1.²", "let in letin", "a½", "½", "    ", "", "1\x85+2"],
    )
    def test_edges_match_the_character_loop(self, text):
        assert syntax_outcome(cli._tokenize, text) == syntax_outcome(oracles.tokenize_by_char, text)

    @pytest.mark.parametrize("text", ["²", "1٣", "٣.5"])
    def test_non_ascii_digits_reach_the_literal_parser(self, text):
        assert cli._tokenize(text)[0] == ("num", text, 0)
        with pytest.raises(ExprSyntaxError) as err:
            cli.parse_expr(text)
        assert err.value.position == 0


class TestRepeatedDivisors:
    def test_share_one_real(self, monkeypatch):
        # Every repeated inv(d) is one node, so one value per evaluation;
        # inv(-d) is the negation of a reciprocal leaf of d with the same
        # endpoints, and x / d multiplies x by such a reciprocal.
        runs = []

        def record(xs, build=reals.real_sum):
            xs = list(xs)
            runs.append(xs)
            return build(xs)

        monkeypatch.setattr(reals, "real_sum", record)
        products = []

        def multiply(x, y, build=reals.real_mul):
            products.append((x, y))
            return build(x, y)

        monkeypatch.setattr(reals, "real_mul", multiply)
        cli.evaluate("inv(3) + inv(5) + inv(3) + 2/3 + inv(-3) + inv(3)", 30)
        (terms,) = runs
        third = terms[0]
        assert terms[2] is third and terms[5] is third and terms[1] is not third
        assert third.neg is reals.ZERO_CUT and reals.real_tag(third) is None
        (_, divided), = products
        assert terms[4].pos is reals.ZERO_CUT and divided.neg is reals.ZERO_CUT
        for n in range(40):
            assert divided.pos.query(n) == terms[4].neg.query(n) == third.pos.query(n)

    def test_exact_reciprocals_are_dyadics(self, monkeypatch):
        # A reciprocal that is a binary fraction is the leaf pair of that
        # value, and a repeated inv(d) is inverted once per evaluation.
        four = reals.real_from_dyadic(make(4, 0))
        quarter = reals.real_inv(four, 30)
        assert reals.real_tag(quarter) == make(1, 2) and quarter.neg is reals.ZERO_CUT
        minus = reals.real_inv(reals.real_neg(four), 30)
        assert reals.real_tag(minus) == make(1, 2, -1) and minus.pos is reals.ZERO_CUT
        inverted = []

        def record(x, prec, invert=reals.real_inv):
            inverted.append(reals.real_tag(x))
            return invert(x, prec)

        monkeypatch.setattr(reals, "real_inv", record)
        assert cli.evaluate("inv(4) + inv(-4) + inv(4)", 30) == make(1, 2)
        assert inverted == [make(4, 0), make(4, 0, -1)]
        with pytest.raises(SettowerError, match="division by exact zero"):
            reals.real_inv(reals.REAL_ZERO, 30)


def subparsers(parser):
    """The parsers of the subcommands that parser lists, by name."""
    (sub,) = [action for action in parser._actions if action.dest == "command"]
    return sub.choices


def dests(parser):
    return [action.dest for action in parser._actions]


EVERY_COMMAND_DESTS = {
    "eval": ["help", "expr", "prec", "format"],
    "cmp": ["help", "left", "right", "prec", "format"],
    "relcheck": ["help", "path", "format"],
    "enum": ["help", "what", "first", "second", "format"],
}


def described(parser):
    """A parser's prog, with the dests of its arguments, or, for the
    settower parser, each subcommand's name and dests in order."""
    if parser.prog != "settower":
        return parser.prog, dests(parser)
    return parser.prog, [(name, dests(p)) for name, p in subparsers(parser).items()]


def lone(name):
    """described of the parser of subcommand name alone."""
    return "settower " + name, EVERY_COMMAND_DESTS[name]


def every_name():
    """described of the parser listing every subcommand."""
    return "settower", list(EVERY_COMMAND_DESTS.items())


HELP_ARGVS = [["-h"], ["--help"], ["--he"], ["eval", "1", "-h"]] + [
    [name, "-h"] for name in cli._COMMANDS
]
USAGE_ERROR_ARGVS = [
    [], ["bogus"], ["--", "eval", "1"], ["-x", "eval", "1"], ["eval"],
    ["eval", "1", "extra"], ["cmp", "1"], ["enum", "pair", "1", "2", "3"],
    ["enum", "bogus", "1"], ["eval", "1", "--prec", "x"],
    ["relcheck", "-", "--prec", "5"], ["eval", "1", "--format", "yaml"],
    ["cmp", "1", "2", "3"], ["cmp", "1", "2", "--bogus"], ["relcheck", "-", "extra"],
    ["eval", "1", "--prec", "5", "extra"], ["enum", "pair", "1", "2", "--bogus"],
]
# Command names as expressions, argv as a tuple, "--" and options after the
# subcommand, and a handler's exit status 1.
NAMED_ARGVS = [
    ["eval", "cmp"], ["eval", "--", "eval"], ["cmp", "relcheck", "enum"],
    ("cmp", "inv(3)", "1/3", "--prec", "8"),
    ["eval", "--", "-1"], ["eval", "1", "--prec=8"], ["eval", "1", "--pre", "8"],
    ["cmp", "1", "2", "--format=json-lines"], ["enum", "pair", "3"],
]


class TestSubcommandArguments:
    """main parses what follows a subcommand's name with that subcommand's
    parser alone, and an argv that leaves something over, or that does not
    start with a subcommand, with the parser listing every subcommand; its
    help, usage errors and answers are the bytes of the parser listing
    every subcommand parsing every argv."""

    @pytest.mark.parametrize(
        "argv", HELP_ARGVS + USAGE_ERROR_ARGVS + NAMED_ARGVS,
        ids=lambda argv: shlex.join(argv) or "no-arguments",
    )
    def test_matches_every_command_parser(self, argv, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")
        monkeypatch.setattr(sys, "stdin", io.StringIO("carrier: a\n"))
        got = exiting_main(argv)
        assert got == every_command_answers([argv])[0]
        code, out, err = got
        if argv in HELP_ARGVS:
            assert code == 0 and out.startswith("usage: settower") and err == ""
        elif argv in USAGE_ERROR_ARGVS:
            assert code == 2 and out == "" and err.startswith("usage: settower")
        else:
            assert cli._parse(argv) == cli._build_parser().parse_args(argv)

    @pytest.mark.parametrize("seed", [4, 11])
    def test_fold_corpus_matches_every_command_parser(self, seed, fold_answers):
        corpus = fold_corpus(seed)
        for argv, got, want in zip(corpus, fold_answers[seed], every_command_answers(corpus)):
            assert got == want, argv

    def test_no_argv_reads_sys_argv(self, monkeypatch):
        monkeypatch.setattr(sys, "argv", ["settower", "enum", "pair", "3", "5"])
        assert exiting_main(None) == exiting_main(sys.argv[1:]) == (0, "41\n", "")

    @pytest.mark.parametrize(
        "argv,commands",
        [
            (["eval", "1"], [lone("eval")]),
            (["-x", "cmp", "1", "2"], [every_name()]),
            (["eval", "cmp"], [lone("eval")]),
            (["enum", "pair", "1", "2"], [lone("enum")]),
            (["bogus"], [every_name()]),
            ([], [every_name()]),
            (["eval", "1", "extra"], [lone("eval"), every_name()]),
        ],
    )
    def test_builds_the_named_subcommand_only(self, argv, commands, monkeypatch):
        """commands holds, for each parser main builds, in order, what
        described says of it."""
        built = []

        def recording(build):
            def record(*args):
                built.append(build(*args))
                return built[-1]

            return record

        monkeypatch.setattr(cli, "_command_parser", recording(cli._command_parser))
        monkeypatch.setattr(cli, "_build_parser", recording(cli._build_parser))
        exiting_main(argv)
        assert [described(parser) for parser in built] == commands

    @pytest.mark.parametrize("columns", ["20", "40", "80", "200"])
    @pytest.mark.parametrize("name", cli._COMMANDS)
    def test_lone_parser_formats_as_the_subparser(self, name, columns, monkeypatch):
        monkeypatch.setenv("COLUMNS", columns)
        alone, nested = cli._command_parser(name), subparsers(cli._build_parser())[name]
        assert (alone.format_help(), alone.format_usage()) == (
            nested.format_help(), nested.format_usage()
        )

    @pytest.mark.parametrize(
        "argv,error",
        [
            ([], "settower: error: the following arguments are required: command"),
            (["bogus"], "settower: error: argument command: invalid choice: 'bogus'"),
        ],
        ids=["no-arguments", "bogus"],
    )
    def test_every_name_errors_name_the_command(self, argv, error):
        code, out, err = exiting_main(argv)
        assert (code, out, err.splitlines()[-1][:len(error)]) == (2, "", error)
