import math
import re
import sys
import time
import tracemalloc
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import assume, example, given, strategies as st

import oracles
from settower import dyadic as dy
from settower.errors import (
    BadOrder,
    ExprSyntaxError,
    NonPositiveDivisor,
    NotANatural,
    NotAnInteger,
    SettowerError,
    SizeLimit,
)
from settower.dyadic import HALF, ONE, ZERO, Dyadic, make
from settower.naturals import square_and_multiply

DIGIT_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()
dyadics = st.builds(
    make,
    st.integers(min_value=0, max_value=2**20),
    st.integers(min_value=0, max_value=12),
    st.sampled_from([-1, 1]),
)
naturals = st.integers(min_value=0, max_value=500)
# Mantissas up to ~2^5000 that end in long runs of zero bits, on exponents
# up to 5000: the shapes where canonicalisation and grid alignment work hardest.
long_mantissas = st.builds(
    lambda odd, zeros: odd << zeros,
    st.integers(min_value=0, max_value=2**2500),
    st.integers(min_value=0, max_value=2500),
)
long_exps = st.integers(min_value=0, max_value=5000)
signs = st.sampled_from([-1, 0, 1])
long_dyadics = st.builds(make, long_mantissas, long_exps, st.sampled_from([-1, 1]))
LIMIT = dy.POW_BIT_LIMIT
# (1/2)^(2^40): aligning it with 1 would take 2^40 bits.
TINY = make(1, 2**40)
# Operands for runs with POW_BIT_LIMIT lowered to SMALL_LIMIT bits, where
# every refusal happens on numbers that Fraction checks in microseconds.
SMALL_LIMIT = 64
small_grid = st.builds(
    make,
    st.integers(min_value=0, max_value=2**100),
    st.integers(min_value=0, max_value=150),
    st.sampled_from([-1, 1]),
)


def outcome(f, *args):
    """f(*args), or the class SizeLimit when f refuses."""
    try:
        return f(*args)
    except SizeLimit:
        return SizeLimit


@st.composite
def far_apart(draw):
    """(d, e) in either order with exponents more than POW_BIT_LIMIT apart,
    by up to 2^64.  For gaps just past the limit the finer mantissa may be
    the coarser one's (give or take 2) shifted by the gap with a low bit
    set, so both share one leading bit and only the low bits decide."""
    coarse = draw(dyadics)
    gap = draw(st.one_of(st.integers(LIMIT + 1, LIMIT + 64), st.integers(2**40, 2**64)))
    man = draw(st.integers(1, 2**64))
    if gap <= LIMIT + 64 and draw(st.booleans()):
        man = (max(coarse.man + draw(st.integers(-2, 2)), 0) << gap) | 1
    fine = make(man, coarse.exp + gap, draw(st.sampled_from([-1, 1])))
    return (coarse, fine) if draw(st.booleans()) else (fine, coarse)


def assert_canonical(d):
    if d.sign == 0:
        assert (d.man, d.exp) == (0, 0)
    else:
        assert d.sign in (-1, 1)
        assert d.man >= 1 and (d.man % 2 == 1 or d.exp == 0)


class TestMake:
    def test_reduces_even_mantissas(self):
        assert make(2, 1) == ONE
        assert make(4, 1) == make(2, 0)
        assert make(12, 2) == make(3, 0)

    def test_zero_is_unique(self):
        assert make(0, 5) is ZERO
        assert make(7, 3, 0) is ZERO
        assert not ZERO

    @given(st.integers(0, 1000), st.integers(0, 10), st.integers(0, 8))
    def test_scaling_invariance(self, m, u, k):
        assert make(m << k, u + k) == make(m, u)

    @given(dyadics)
    def test_canonical(self, d):
        assert_canonical(d)

    def test_rejects_bad_input(self):
        for n in (-1, 1.5, "2", True):
            with pytest.raises(NotANatural):
                make(n, 0)
            with pytest.raises(NotANatural):
                make(1, n)
        with pytest.raises(ValueError):
            make(1, 0, 2)

    @pytest.mark.parametrize("bad", [True, False, -1, 1.0, 1.5, "3", None], ids=repr)
    def test_messages_name_the_argument(self, bad):
        got = re.escape(repr(bad))
        with pytest.raises(NotANatural, match=rf"^mantissa must be a natural number, got {got}$"):
            make(bad, 0)
        with pytest.raises(NotANatural, match=rf"^exponent must be a natural number, got {got}$"):
            make(1, bad)

    def test_int_subclasses_and_signs(self):
        class Count(int):
            pass

        assert make(Count(12), Count(2)) == make(3, 0)
        with pytest.raises(ValueError, match=r"^sign must be -1, 0, or 1, got 2$"):
            make(1, 0, 2)


class TestKernelAgainstReferences:
    """The one-shift make and the max-grid add/sub/compare against the
    halving loop and cross-grid originals kept in oracles, and Fraction."""

    @given(long_mantissas, long_exps, signs)
    def test_make(self, man, exp, sign):
        d = make(man, exp, sign)
        assert_canonical(d)
        assert oracles.triple(d) == oracles.make_loop(man, exp, sign)
        assert oracles.to_fraction(d) == Fraction(sign * man, 2**exp)

    def test_make_stops_at_exponent_zero(self):
        assert make(1 << 100000, 100000) == ONE
        assert oracles.triple(make(3 << 10, 4)) == (1, 3 << 6, 0)

    @given(long_dyadics, long_dyadics)
    def test_add_sub(self, d, e):
        fd, fe = oracles.to_fraction(d), oracles.to_fraction(e)
        for got, want, value in (
            (dy.add(d, e), oracles.add_cross(d, e), fd + fe),
            (dy.sub(d, e), oracles.sub_cross(d, e), fd - fe),
        ):
            assert_canonical(got)
            assert oracles.triple(got) == want
            assert oracles.to_fraction(got) == value

    @given(long_dyadics, long_dyadics, st.integers(0, 3), st.integers(0, 300))
    def test_results_are_what_make_builds(self, d, e, m, p):
        """Every result of the arithmetic is make of the same value: the
        same sign, numerator and exponent, with an int numerator."""

        def made(fr):
            return make(abs(fr.numerator), fr.denominator.bit_length() - 1, (fr > 0) - (fr < 0))

        fd, fe = oracles.to_fraction(d), oracles.to_fraction(e)
        results = [
            (dy.add(d, e), fd + fe),
            (dy.sub(d, e), fd - fe),
            (dy.mul(d, e), fd * fe),
            (dy.dy_pow(d, m), fd**m),
        ]
        if e.sign > 0:
            results += [
                (dy.div_floor(d, e, p), Fraction(math.floor(fd / fe * 2**p), 2**p)),
                (dy.div_ceil(d, e, p), Fraction(math.ceil(fd / fe * 2**p), 2**p)),
            ]
        if e.sign:
            q = dy.exact_div(d, e)
            if q is not None:
                results.append((q, fd / fe))
        if fd < fe:
            results.append((dy.between(d, e), None))
        for got, value in results:
            assert type(got._num) is int and type(got._exp) is int
            want = made(oracles.to_fraction(got) if value is None else value)
            assert (got._num, got._exp) == (want._num, want._exp)

    @given(long_dyadics, long_dyadics)
    def test_compare(self, d, e):
        fd, fe = oracles.to_fraction(d), oracles.to_fraction(e)
        assert dy.compare(d, e) == oracles.compare_cross(d, e)
        assert dy.compare(d, e) == (fd > fe) - (fd < fe)
        assert dy.compare(d, d) == 0


class TestCompare:
    def test_half_below_one(self):
        assert HALF < ONE
        assert dy.compare(HALF, ONE) == -1

    @given(dyadics, dyadics)
    def test_matches_fraction_order(self, d, e):
        fd, fe = oracles.to_fraction(d), oracles.to_fraction(e)
        assert dy.compare(d, e) == (fd > fe) - (fd < fe)

    @given(dyadics, dyadics)
    def test_agrees_with_difference_sign(self, d, e):
        assert dy.compare(d, e) == dy.sub(d, e).sign

    @given(dyadics, dyadics)
    def test_dunder_consistency(self, d, e):
        assert (d < e) == (not d >= e)
        assert (d <= e) == (d < e or d == e)


class TestFarApartExponents:
    """No shift of a nonzero mantissa passes POW_BIT_LIMIT bits: compare
    orders such operands without one, div_floor and div_ceil answer
    without one when the result's grid is the coarser, and otherwise add,
    sub, exact_div, div_floor, div_ceil and between refuse with SizeLimit
    before they allocate, as format_decimal does for an exponent past the
    limit."""

    @given(st.one_of(far_apart(), st.tuples(long_dyadics, long_dyadics)))
    def test_compare_matches_normalized_order(self, pair):
        d, e = pair
        want = oracles.compare_normalized(d, e)
        assert dy.compare(d, e) == want
        assert dy.compare(e, d) == -want
        assert dy.dy_max(d, e) == (e if want < 0 else d)
        assert dy.dy_min(d, e) == (d if want < 0 else e)

    @given(
        st.one_of(
            far_apart(),
            st.tuples(dyadics, dyadics),
            st.tuples(long_dyadics, long_dyadics),
        )
    )
    def test_compare_matches_aligned_reference(self, pair):
        d, e = pair
        assert dy.compare(d, e) == oracles.compare_aligned(d, e)
        assert dy.compare(e, d) == oracles.compare_aligned(e, d)

    def test_compare_allocates_no_common_grid(self):
        # Exponents exactly POW_BIT_LIMIT apart: a common grid would take a
        # number of 2^20 bits (128 KiB).
        far = make(1, LIMIT)
        pairs = [(x, y) for x in (far, -far) for y in (ONE, -ONE)]
        pairs += [(y, x) for x, y in pairs]
        tracemalloc.start()
        try:
            for d, e in pairs:
                for op in (dy.compare, dy.dy_max, dy.dy_min):
                    op(d, e)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1024

    def test_compare_far_apart(self):
        assert dy.compare(TINY, ONE) == -1
        assert dy.compare(TINY, make(1, 2**41)) == 1
        assert dy.compare(-TINY, make(1, 2**41)) == -1
        assert dy.compare(TINY, TINY) == 0
        assert dy.dy_max(TINY, ONE) == ONE

    @pytest.mark.parametrize(
        "call,what",
        [
            (lambda: dy.add(TINY, ONE), "sum"),
            (lambda: dy.sub(ONE, TINY), "sum"),
            (lambda: dy.add(make(1, 2**14300), ONE), "sum"),
            (lambda: dy.add(make(1, LIMIT + 1), ONE), "sum"),
            (lambda: dy.exact_div(ONE, TINY), "quotient"),
            (lambda: dy.exact_div(make(3, 0), make(1, LIMIT + 1)), "quotient"),
            (lambda: dy.exact_div(make(3, 0), make(3, LIMIT + 1)), "quotient"),
            (lambda: dy.div_floor(make(3, 1), make(5, LIMIT), 2), "quotient"),
            (lambda: dy.div_floor(ONE, ONE, LIMIT + 1), "quotient"),
            (lambda: dy.div_ceil(ONE, make(1, LIMIT), 1), "quotient"),
            (lambda: dy.between(make(1, 0, -1), TINY), "between"),
            (lambda: dy.between(make(1, 0, -1), make(1, LIMIT)), "between"),
            (lambda: dy.format_decimal(TINY), "decimal"),
            (lambda: dy.format_decimal(make(3, LIMIT + 1, -1)), "decimal"),
        ],
    )
    def test_shifts_past_the_limit_are_refused(self, call, what):
        with pytest.raises(SizeLimit, match=f"^{what} needs more than {LIMIT} mantissa bits$"):
            call()

    def test_decimal_of_a_far_exponent_is_refused_at_once(self):
        start = time.perf_counter()
        with pytest.raises(SizeLimit):
            dy.format_decimal(TINY)
        assert time.perf_counter() - start < 0.01

    def test_shifts_up_to_the_limit_answer(self):
        edge = make(1, LIMIT)
        assert dy.add(edge, ONE) == make((1 << LIMIT) + 1, LIMIT)
        assert dy.exact_div(ONE, edge) == make(1 << LIMIT, 0)
        assert dy.div_floor(edge, ONE, 0) == ZERO
        assert dy.div_ceil(ONE, ONE, LIMIT) == ONE
        assert dy.div_floor(make(3, 1), make(5, LIMIT), 1) == make((3 << LIMIT) // 5, 1)
        low = make(1, LIMIT - 1)
        assert dy.between(make(1, 0, -1), low) == make((1 << LIMIT) - 1, LIMIT, -1)

    @pytest.mark.skipif(not DIGIT_LIMIT, reason="no int->str digit limit")
    def test_decimal_past_the_digit_limit_is_refused_at_once(self):
        # The fraction of 1/2^u is 5^u, printable while 5^u < 10^DIGIT_LIMIT.
        u = int(DIGIT_LIMIT / math.log10(5)) - 2
        while 5 ** (u + 1) < 10**DIGIT_LIMIT:
            u += 1
        assert dy.format_decimal(make(1, u)) == "0." + str(5**u).zfill(u)
        with pytest.raises(SizeLimit, match="limit for printing integers$"):
            dy.format_decimal(make(1, u + 1))
        start = time.perf_counter()
        with pytest.raises(SizeLimit, match="limit for printing integers$"):
            dy.format_decimal(make(1, LIMIT))
        assert time.perf_counter() - start < 0.01

    def test_directed_division_shifts_down_any_distance(self):
        assert dy.div_floor(TINY, make(3, 0), 30) == ZERO
        assert dy.div_ceil(TINY, make(3, 0), 30) == make(1, 30)
        assert dy.div_ceil(make(1, LIMIT + 1), ONE, 0) == ONE
        assert dy.div_floor(make(3, LIMIT + 1, -1), ONE, 0) == make(1, 0, -1)
        # Shifting the divisor up by the dividend's exponent instead would
        # take a number of 2^20 bits (128 KiB).
        far = make(3, LIMIT)
        tracemalloc.start()
        try:
            dy.div_floor(far, ONE, 30)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1024

    def test_zero_shifts_any_distance(self):
        assert dy.add(TINY, ZERO) == TINY
        assert dy.sub(TINY, TINY) == ZERO
        assert dy.mul(TINY, ZERO) == ZERO
        assert dy.exact_div(ZERO, TINY) == ZERO
        assert dy.div_floor(ZERO, TINY, LIMIT + 1) == ZERO
        assert dy.between(ZERO, TINY) == make(1, 2**40 + 1)
        assert dy.mul(TINY, make(1 << 2**19, 0)) == make(1, 2**40 - 2**19)


class TestArithmetic:
    def test_halves_sum_to_one(self):
        assert HALF + HALF == ONE

    @given(dyadics)
    def test_additive_identity_inverse(self, d):
        assert d + ZERO == d
        assert d + dy.neg(d) == ZERO
        assert dy.neg(dy.neg(d)) == d

    @given(dyadics)
    def test_multiplicative_identity_absorber(self, d):
        assert d * ONE == d
        assert d * ZERO == ZERO

    @given(dyadics, dyadics)
    def test_commutative(self, d, e):
        assert d + e == e + d
        assert d * e == e * d

    @given(dyadics, dyadics, dyadics)
    def test_field_laws_via_fractions(self, d, e, f):
        fd, fe, ff = map(oracles.to_fraction, (d, e, f))
        assert oracles.to_fraction((d + e) + f) == fd + fe + ff
        assert oracles.to_fraction((d * e) * f) == fd * fe * ff
        assert oracles.to_fraction(d * (e + f)) == fd * (fe + ff)
        assert oracles.to_fraction(d - e) == fd - fe

    @given(dyadics, dyadics)
    def test_results_canonical(self, d, e):
        for out in (d + e, d - e, d * e, dy.neg(d), dy.dy_abs(d)):
            assert_canonical(out)

    @given(dyadics, dyadics, dyadics)
    def test_addition_strictly_monotone(self, d, e, f):
        if d < e:
            assert d + f < e + f

    def test_pow_examples(self):
        assert dy.dy_pow(make(1, 1, -1), 3) == make(1, 3, -1)
        assert dy.dy_pow(ZERO, 0) == ONE
        assert dy.dy_pow(ZERO, 5) == ZERO

    @given(dyadics, st.integers(0, 8), st.integers(0, 8))
    def test_pow_laws(self, d, m, n):
        assert dy.dy_pow(d, m + n) == dy.dy_pow(d, m) * dy.dy_pow(d, n)
        assert oracles.to_fraction(dy.dy_pow(d, m)) == oracles.to_fraction(d) ** m

    def test_pow_refuses_oversized_mantissas_before_computing(self):
        two = make(2, 0)
        assert dy.dy_pow(two, dy.POW_BIT_LIMIT) == make(1 << dy.POW_BIT_LIMIT, 0)
        # 2^(2^40) would need 128 GiB: the refusal must come first.
        for m in (dy.POW_BIT_LIMIT + 1, 2**40):
            with pytest.raises(SizeLimit, match="mantissa bits"):
                dy.dy_pow(two, m)
        with pytest.raises(SizeLimit):
            dy.dy_pow(make(3, 7, -1), 2**40)

    @pytest.mark.parametrize("sign", [-1, 1])
    @pytest.mark.parametrize("extra", [-1, 0, 1, 2])
    def test_a_square_is_refused_exactly_when_the_power_is(self, sign, extra):
        # Both measure (bits - 1) * 2: mantissas of LIMIT/2 + 1 bits square
        # within the limit, and one bit more is refused.
        bits = LIMIT // 2 + 1 + extra
        for man in ((1 << (bits - 1)) | 1, (1 << bits) - 1):
            x = make(man, 3, sign)
            want = outcome(dy.dy_pow, x, 2)
            assert (want is SizeLimit) == (extra > 0)
            assert outcome(dy.mul, x, x) == want
            if want is SizeLimit:
                with pytest.raises(SizeLimit, match=f"^product needs more than {LIMIT} mantissa bits$"):
                    x * x

    @given(small_grid, small_grid)
    def test_products_obey_the_power_measure(self, d, e):
        with mock.patch.object(dy, "POW_BIT_LIMIT", SMALL_LIMIT):
            got = outcome(dy.mul, d, e)
            assert outcome(dy.mul, d, d) == outcome(dy.dy_pow, d, 2)
        if d.man.bit_length() + e.man.bit_length() - 2 > SMALL_LIMIT:
            assert got is SizeLimit
        else:
            assert oracles.to_fraction(got) == oracles.to_fraction(d) * oracles.to_fraction(e)

    @pytest.mark.parametrize("sign", [-1, 1])
    @pytest.mark.parametrize("extra", [-1, 0, 1, 2])
    def test_a_sum_is_refused_exactly_when_that_sum_times_one_is(self, sign, extra):
        # Both measure bits - 1: a mantissa of LIMIT + 1 bits answers, and
        # one bit more is refused.
        bits = LIMIT + 1 + extra
        for man in ((1 << (bits - 1)) | 1, (1 << bits) - 1):
            x = make(man, 3, sign)
            want = outcome(dy.mul, x, ONE)
            assert (want is SizeLimit) == (extra > 0)
            assert outcome(dy.add, x, ZERO) == outcome(dy.sub, ZERO, dy.neg(x)) == want
            if want is SizeLimit:
                message = f"^sum needs more than {LIMIT} mantissa bits$"
                with pytest.raises(SizeLimit, match=message):
                    x + ZERO

    @given(small_grid, small_grid)
    def test_sums_obey_the_product_measure(self, d, e):
        with mock.patch.object(dy, "POW_BIT_LIMIT", SMALL_LIMIT):
            got = outcome(dy.add, d, e)
            for x in (d, e):
                assert outcome(dy.add, x, ZERO) == outcome(dy.mul, x, ONE)
        total = oracles.to_fraction(d) + oracles.to_fraction(e)
        coarse = d if d.exp < e.exp else e
        shifted = abs(d.exp - e.exp) > SMALL_LIMIT and coarse.sign != 0
        if shifted or abs(total.numerator).bit_length() - 1 > SMALL_LIMIT:
            assert got is SizeLimit
        else:
            assert oracles.to_fraction(got) == total

    @given(small_grid, small_grid)
    def test_quotients_obey_the_sum_measure(self, d, e):
        with mock.patch.object(dy, "POW_BIT_LIMIT", SMALL_LIMIT):
            got = outcome(dy.exact_div, d, e)
            if isinstance(got, dy.Dyadic):
                assert outcome(dy.add, got, ZERO) == outcome(dy.mul, got, ONE) == got
        if e.sign == 0:
            assert got is None
            return
        quotient = oracles.to_fraction(d) / oracles.to_fraction(e)
        shifted = e.exp > SMALL_LIMIT and d.sign != 0
        if not oracles.is_dyadic_fraction(quotient):
            assert got is None
        elif shifted or abs(quotient.numerator).bit_length() - 1 > SMALL_LIMIT:
            assert got is SizeLimit
        else:
            assert oracles.to_fraction(got) == quotient

    @given(small_grid, small_grid)
    def test_witnesses_obey_the_sum_measure(self, d, e):
        assume(d != e)
        d, e = sorted((d, e))
        with mock.patch.object(dy, "POW_BIT_LIMIT", SMALL_LIMIT):
            got = outcome(dy.between, d, e)
            if isinstance(got, dy.Dyadic):
                assert outcome(dy.add, got, ZERO) == outcome(dy.mul, got, ONE) == got
        # The witness is one past d's numerator on the grid 2^-(u+v+1).
        grid = 1 << (d.exp + e.exp + 1)
        want = Fraction(int(oracles.to_fraction(d) * grid) + 1, grid)
        shifted = e.exp + 1 > SMALL_LIMIT and d.sign != 0
        if shifted or abs(want.numerator).bit_length() - 1 > SMALL_LIMIT:
            assert got is SizeLimit
        else:
            assert oracles.to_fraction(got) == want
            assert d < got < e

    @pytest.mark.parametrize(
        "call,what",
        [
            (lambda: dy.exact_div(dy.dy_pow(make(3, 0), 2**19), make(1, LIMIT)), "quotient"),
            (lambda: dy.between(make(3**(2**19), 2 * LIMIT), make(1, LIMIT - 1)), "between"),
        ],
        ids=["quotient", "between"],
    )
    def test_results_past_the_limit_are_refused(self, call, what):
        # 3^(2^19) * 2^(2^20) and the witness below 2^-(2^20 - 1) hold
        # 1,879,553 bits, past the limit without a shift past it.
        with pytest.raises(SizeLimit, match=f"^{what} needs more than {LIMIT} mantissa bits$"):
            call()

    def test_pow_of_a_unit_mantissa_is_never_refused(self):
        assert dy.dy_pow(HALF, 2**40) == make(1, 2**40)
        assert dy.dy_pow(make(1, 0, -1), 2**40) == ONE
        assert dy.dy_pow(make(1, 0, -1), 2**40 + 1) == make(1, 0, -1)
        # An exponent of a million bits answers without a step per bit.
        assert dy.dy_pow(make(1, 3, -1), 1 << 2**20) == make(1, 3 << 2**20)
        assert dy.dy_pow(ZERO, 1 << 2**20) == ZERO

    @given(
        st.builds(make, st.integers(0, 300), st.integers(0, 20), st.sampled_from([-1, 1])),
        st.integers(0, 100),
    )
    def test_powers_obey_the_product_budget(self, d, m):
        # d^m is refused exactly when a step of squaring and multiplying it
        # out with mul is; the lower bound (bits - 1) * m alone lets some
        # powers past the budget.
        with mock.patch.object(dy, "POW_BIT_LIMIT", SMALL_LIMIT):
            got = outcome(dy.dy_pow, d, m)
            want = ONE if m == 0 else outcome(square_and_multiply, d, m, dy.mul)
        assert (got is SizeLimit) == (want is SizeLimit)
        if got is not SizeLimit:
            assert oracles.to_fraction(got) == oracles.to_fraction(d) ** m

    def test_power_past_the_budget_by_its_steps(self):
        # (bits - 1) * m is exactly the limit, but 3^(2^19) squared is not.
        with pytest.raises(SizeLimit, match=f"^power needs more than {LIMIT} mantissa bits$"):
            dy.dy_pow(make(3, 0), 2**20)
        assert dy.dy_pow(make(2, 0), 2**20) == make(1 << 2**20, 0)

    @given(dyadics, dyadics)
    def test_abs_max_min(self, d, e):
        assert dy.dy_abs(d) >= ZERO
        assert dy.dy_abs(dy.neg(d)) == dy.dy_abs(d)
        assert dy.dy_max(d, e) + dy.dy_min(d, e) == d + e
        assert dy.dy_min(d, e) <= d <= dy.dy_max(d, e) or \
            dy.dy_min(d, e) <= e <= dy.dy_max(d, e)


class TestEmbeddingOfNaturals:
    @given(st.integers(0, 10**6), st.integers(0, 10**6))
    def test_preserves_structure(self, m, n):
        g = lambda k: make(k, 0)  # noqa: E731
        assert g(m) + g(n) == g(m + n)
        assert g(m) * g(n) == g(m * n)
        assert (g(m) < g(n)) == (m < n)


    def test_from_int_takes_every_integer(self):
        assert dy.from_int(-3) == make(3, 0, -1)
        assert dy.from_int(0) is ZERO
        assert dy.from_int(12) == make(3, 0) * make(4, 0)

    @pytest.mark.parametrize("k", [1.5, True, False, "3", None])
    def test_from_int_rejects_non_integers(self, k):
        with pytest.raises(NotAnInteger, match=r"^expected an integer, got "):
            dy.from_int(k)
        assert issubclass(NotAnInteger, SettowerError)
        assert not issubclass(NotAnInteger, NotANatural)


class TestBetween:
    def test_frozen_witnesses(self):
        assert dy.between(ZERO, ONE) == HALF
        assert dy.between(HALF, ONE) == make(3, 2)
        assert dy.between(make(1, 0, -1), make(1, 1, -1)) == make(3, 2, -1)

    @given(dyadics, dyadics)
    def test_strictly_between(self, d, e):
        if d >= e:
            with pytest.raises(BadOrder):
                dy.between(d, e)
            return
        w = dy.between(d, e)
        assert d < w < e
        assert_canonical(w)

    @given(dyadics, dyadics)
    def test_two_point_refinement(self, d, e):
        # Density again: any gap holds a strictly increasing chain of two.
        if d >= e:
            return
        w1 = dy.between(d, e)
        w2 = dy.between(w1, e)
        assert d < w1 < w2 < e


class TestOrderedFieldFacts:
    @given(dyadics, dyadics)
    def test_midpoint_splits_any_gap(self, d, e):
        if d >= e:
            return
        mid = (d + e) * HALF
        assert d < mid < e

    @given(dyadics)
    def test_some_power_of_two_below_any_positive(self, d):
        if d <= ZERO:
            return
        t = 0
        while not make(1, t) < d:
            t += 1
        assert make(1, t) < d
        assert t <= d.exp + 1

    @given(dyadics)
    def test_archimedean(self, d):
        n = 0
        while not d < dy.from_int(n):
            n += 1
        assert d < dy.from_int(n)
        assert dy.from_int(n) - d <= dy.dy_abs(d) + ONE

    def test_one_third_is_not_dyadic(self):
        # 3m = 2^u has no solution: powers of two are never divisible by 3.
        for u in range(65):
            assert (1 << u) % 3 != 0
        assert dy.exact_div(ONE, make(3, 0)) is None


class TestDivFloorCeil:
    @given(dyadics, dyadics, st.integers(0, 20))
    def test_brackets_true_quotient(self, a, b, p):
        if b <= ZERO:
            return
        lo = dy.div_floor(a, b, p)
        hi = dy.div_ceil(a, b, p)
        q = oracles.to_fraction(a) / oracles.to_fraction(b)
        step = Fraction(1, 2**p)
        assert oracles.to_fraction(lo) <= q <= oracles.to_fraction(hi)
        assert q - oracles.to_fraction(lo) < step
        assert oracles.to_fraction(hi) - q < step
        if (q * 2**p).denominator == 1:
            assert lo == hi

    @staticmethod
    def assert_matches_shift_both(a, b, p):
        """Where shifting both numerator and denominator answers, shifting
        the dividend alone agrees; where it refused, this answers the
        rounded quotient or refuses too."""
        exact = oracles.to_fraction(a) / oracles.to_fraction(b) * 2**p
        for new, old, rounded in (
            (dy.div_floor, oracles.div_floor_shift_both, math.floor),
            (dy.div_ceil, oracles.div_ceil_shift_both, math.ceil),
        ):
            with mock.patch.object(dy, "POW_BIT_LIMIT", SMALL_LIMIT):
                got = outcome(new, a, b, p)
                want = outcome(old, a, b, p)
            if want is not SizeLimit:
                assert got == want
            elif got is not SizeLimit:
                assert oracles.to_fraction(got) * 2**p == rounded(exact)

    @given(small_grid, small_grid, st.integers(0, 100))
    def test_matches_shift_both_reference(self, a, b, p):
        self.assert_matches_shift_both(a, dy.dy_abs(b) or ONE, p)

    @given(small_grid, st.integers(0, 150), st.integers(0, 100))
    def test_power_of_two_divisors_match_shift_both_reference(self, a, u, p):
        # A divisor of numerator 1 makes the quotient a shift alone.
        self.assert_matches_shift_both(a, make(1, u), p)

    @given(small_grid, small_grid, st.integers(0, 150))
    @example(ONE, ONE, SMALL_LIMIT)
    @example(ONE, ONE, SMALL_LIMIT + 1)
    @example(make(3, 7, -1), make(5, 2), SMALL_LIMIT + 5)
    @example(make(3, 7, -1), make(5, 2), SMALL_LIMIT + 6)
    @example(ZERO, make(5, 2), 150)
    def test_directed_quotients_obey_the_shift_measure(self, a, b, p):
        # Refused exactly when a's nonzero numerator would shift up by more
        # than the limit onto the grid 2^(-p) times b's; else the Fraction
        # floor and ceiling.
        b = dy.dy_abs(b) or ONE
        with mock.patch.object(dy, "POW_BIT_LIMIT", SMALL_LIMIT):
            got = [answer(directed, a, b, p) for directed in (dy.div_floor, dy.div_ceil)]
        if a.sign != 0 and b.exp + p - a.exp > SMALL_LIMIT:
            assert got == [f"quotient needs more than {SMALL_LIMIT} mantissa bits"] * 2
        else:
            exact = oracles.to_fraction(a) / oracles.to_fraction(b) * 2**p
            assert [oracles.to_fraction(d) * 2**p for d in got] == [
                math.floor(exact),
                math.ceil(exact),
            ]
            for d in got:
                assert_canonical(d)

    def test_one_third_endpoints(self):
        three = make(3, 0)
        assert dy.div_floor(ONE, three, 4) == make(5, 4)
        assert dy.div_ceil(ONE, three, 4) == make(6, 4)

    @pytest.mark.parametrize("b", [ZERO, make(3, 1, -1)])
    def test_rejects_non_positive_divisor(self, b):
        # The divisor is checked first: before the precision, and before a
        # shift past the limit.
        for directed in (dy.div_floor, dy.div_ceil):
            for p in (4, -1, LIMIT + 1):
                with pytest.raises(NonPositiveDivisor):
                    directed(ONE, b, p)
        assert issubclass(NonPositiveDivisor, SettowerError)

    def test_rejects_negative_precision(self):
        for directed in (dy.div_floor, dy.div_ceil):
            with pytest.raises(NotANatural):
                directed(ONE, make(3, 0), -1)

    @pytest.mark.parametrize("p", [-1, True, 2.0, "3"])
    def test_rejects_non_natural_precision_for_any_divisor(self, p):
        for directed in (dy.div_floor, dy.div_ceil):
            for b in (make(3, 0), ONE, make(1, 5)):
                with pytest.raises(NotANatural):
                    directed(ONE, b, p)


def answer(f, *args):
    """f(*args), or the message of the SizeLimit it raises, as a str."""
    try:
        return f(*args)
    except SizeLimit as exc:
        return str(exc)


def composed_sum(terms, p):
    """The endpoints of a sum_cuts node over terms (lo, hi, count), as it
    composed them from public calls before its fused steps."""
    (lo, hi, count), *rest = terms
    if count > 1:
        lo, hi = dy.mul(lo, make(count, 0)), dy.mul(hi, make(count, 0))
    for lx, hx, count in rest:
        if count > 1:
            lx, hx = dy.mul(lx, make(count, 0)), dy.mul(hx, make(count, 0))
        lo, hi = dy.add(lo, lx), dy.add(hi, hx)
    return dy.div_floor(lo, ONE, p), dy.div_ceil(hi, ONE, p)


def fused_sum(terms, p):
    sums = None
    for lo, hi, count in terms:
        sums = dy._sum_step(sums, lo, hi, count)
    return dy._sum_round(sums, p)


def composed_products(lx, ly, hx, hy, p):
    return dy.div_floor(dy.mul(lx, ly), ONE, p), dy.div_ceil(dy.mul(hx, hy), ONE, p)


def composed_div_bounds(a, b, c, p):
    return dy.div_floor(a, b, p), dy.div_ceil(a, c, p)


def composed_below(d, p):
    """The lower endpoint of a leaf tagged d on the 2^(-p) grid, as the leaf
    composed it before its fused step."""
    try:
        lo = dy.sub(d, make(1, p))
    except SizeLimit:
        return d
    return dy.dy_max(ZERO, lo)


# Operands of the fused steps: signed and zero numerators whose bit lengths
# spread evenly over 0..100, on grids up to 2^-150, so with POW_BIT_LIMIT at
# SMALL_LIMIT every measure answers, refuses and meets its bound exactly,
# and precisions on either side of the exponents.
sized = st.integers(0, 100).flatmap(lambda bits: st.integers(1 << bits >> 1, (1 << bits) - 1))
fused_operands = st.builds(make, sized, st.integers(0, 150), st.sampled_from([-1, 1]))
fused_precisions = st.integers(0, 150)
counts = st.one_of(st.integers(1, 5), sized.filter(bool))
budgets = pytest.mark.parametrize("limit", [SMALL_LIMIT, LIMIT])


class TestFusedSteps:
    """Each private step that a reals oracle calls gives the endpoints, or
    the SizeLimit message, of the public calls it stands for, and gives them
    in canonical form.

    The steps and those calls share their measures: test_sum, test_difference
    and test_below compare two callers of _plus, test_products and the
    repeat counts of test_sum two callers of _times, and test_div_bounds two
    callers of _quotient.  So these tests check how each step composes the
    primitives, in what order it refuses and that it canonicalises; the
    measures themselves are checked against Fraction by TestArithmetic's
    test_sums_obey_the_product_measure, test_products_obey_the_power_measure
    and test_witnesses_obey_the_sum_measure, and by TestDivFloorCeil's
    test_directed_quotients_obey_the_shift_measure."""

    @staticmethod
    def assert_same(limit, fused, composed, *args):
        with mock.patch.object(dy, "POW_BIT_LIMIT", limit):
            got = answer(fused, *args)
            assert got == answer(composed, *args)
        if not isinstance(got, str):
            for d in got if isinstance(got, tuple) else (got,):
                assert_canonical(d)

    @budgets
    @given(
        st.lists(st.tuples(fused_operands, fused_operands, counts), min_size=1, max_size=5),
        fused_precisions,
    )
    def test_sum(self, limit, terms, p):
        self.assert_same(limit, fused_sum, composed_sum, terms, p)

    @budgets
    @given(fused_operands, fused_operands, fused_operands, fused_operands, fused_precisions)
    def test_products(self, limit, lx, ly, hx, hy, p):
        self.assert_same(limit, dy._products, composed_products, lx, ly, hx, hy, p)

    @budgets
    @given(fused_operands, fused_operands, fused_operands, fused_precisions, st.booleans())
    def test_div_bounds(self, limit, a, b, c, p, one_divisor):
        b = dy.dy_abs(b) or ONE
        c = b if one_divisor else dy.dy_abs(c) or ONE
        self.assert_same(limit, dy._div_bounds, composed_div_bounds, a, b, c, p)

    @budgets
    @given(fused_operands, fused_operands)
    def test_difference(self, limit, d, e):
        self.assert_same(limit, dy._difference, dy.sub, d, e)

        def clamped(d, e):
            return dy.dy_max(ZERO, dy.sub(d, e))

        self.assert_same(limit, lambda d, e: dy._difference(d, e, True), clamped, d, e)

    @budgets
    @given(fused_operands, fused_precisions)
    def test_below(self, limit, d, p):
        self.assert_same(limit, dy._below, composed_below, d, p)

    @given(far_apart(), st.integers(0, 60), counts)
    def test_far_apart_exponents(self, pair, p, count):
        # Exponents more than POW_BIT_LIMIT apart, by up to 2^64: nothing is
        # shifted that far, and each step answers or refuses as the calls do.
        d, e = pair
        positive = dy.dy_abs(e) or ONE
        for fused, composed, args in (
            (fused_sum, composed_sum, ([(d, e, count), (e, d, 1)], p)),
            (fused_sum, composed_sum, ([(d, d, 1), (e, e, count)], p)),
            (dy._products, composed_products, (d, e, e, d, p)),
            (dy._div_bounds, composed_div_bounds, (d, positive, positive, p)),
            (dy._difference, dy.sub, (d, e)),
            (dy._below, composed_below, (d, p)),
        ):
            assert answer(fused, *args) == answer(composed, *args)

    @pytest.mark.parametrize("extra", [0, 1])
    def test_each_measure_at_its_bound(self, extra):
        # With POW_BIT_LIMIT at 64, each case answers at its bound and is
        # refused one bit past it, by the steps as by the calls.
        wide = make((1 << 40) - 1, 3)
        count = (1 << (25 + extra)) | 1
        fine = make(1, 64 + extra)
        cases = [
            (fused_sum, composed_sum, [(wide, wide, count)], 10),
            (fused_sum, composed_sum, [(ONE, wide, 1), (ONE, wide, count)], 10),
            (dy._products, composed_products, ONE, ONE, wide, make(count, 0), 10),
            (fused_sum, composed_sum, [(fine, fine, 1), (ONE, ONE, 1)], 10),
            (fused_sum, composed_sum, [(ONE, ONE, 1)], 64 + extra),
            (dy._difference, dy.sub, fine, ONE),
            (dy._difference, dy.sub, ONE, fine),
            (dy._div_bounds, composed_div_bounds, ONE, ONE, ONE, 64 + extra),
            (dy._below, composed_below, ONE, 64 + extra),
        ]
        with mock.patch.object(dy, "POW_BIT_LIMIT", SMALL_LIMIT):
            for fused, composed, *args in cases:
                got = answer(fused, *args)
                assert got == answer(composed, *args)
                refused = got == ONE if fused is dy._below else isinstance(got, str)
                assert refused == bool(extra)

    def test_sums_are_measured_in_canonical_form(self):
        # 1 less than 2^70 plus 1, on the grid 2^-100, is 2^-30: 71 bits on
        # that grid, and 1 in canonical form.
        wide, one = make((1 << 70) - 1, 100), make(1, 100)
        with mock.patch.object(dy, "POW_BIT_LIMIT", SMALL_LIMIT):
            terms = [(wide, wide, 1), (one, one, 1)]
            assert fused_sum(terms, 40) == composed_sum(terms, 40) == (make(1, 30),) * 2
            assert dy._difference(wide, dy.neg(one)) == dy.sub(wide, dy.neg(one)) == make(1, 30)

    def test_a_cancelled_far_sum_shifts_nothing_far(self):
        # (1/2)^(2^40) - (1/2)^(2^40) is 0, and adding 1 to it on the finer
        # of their grids would take 2^40 bits.
        terms = [(TINY, TINY, 1), (dy.neg(TINY), dy.neg(TINY), 1), (ONE, ONE, 3)]
        assert fused_sum(terms, 5) == composed_sum(terms, 5) == (make(3, 0), make(3, 0))


class TestExactDiv:
    def test_power_of_two_divisors(self):
        assert dy.exact_div(ONE, make(2, 0)) == HALF
        assert dy.exact_div(make(3, 0), make(8, 0)) == make(3, 3)
        assert dy.exact_div(make(3, 1), make(1, 2)) == make(6, 0)
        assert dy.exact_div(make(5, 0, -1), make(2, 0, -1)) == make(5, 1)

    def test_refuses_others(self):
        assert dy.exact_div(ONE, ZERO) is None
        assert dy.exact_div(ONE, make(3, 0)) is None
        assert dy.exact_div(make(7, 0), make(3, 0)) is None
        assert dy.exact_div(make(3, 2), make(9, 1, -1)) is None

    def test_odd_divisors(self):
        assert dy.exact_div(make(6, 0), make(3, 0)) == make(2, 0)
        assert dy.exact_div(make(6, 0, -1), make(3, 0)) == make(2, 0, -1)
        assert dy.exact_div(make(6, 0), make(3, 0, -1)) == make(2, 0, -1)
        assert dy.exact_div(make(9, 2), make(3, 0)) == make(3, 2)
        assert dy.exact_div(make(3, 0), make(3, 5)) == make(32, 0)
        assert dy.exact_div(make(15, 0), make(6, 0)) == make(5, 1)
        assert dy.exact_div(make(21, 0), make(12, 0, -1)) == make(7, 2, -1)

    @given(dyadics, st.integers(0, 10), st.integers(0, 6), st.sampled_from([-1, 1]))
    def test_inverts_multiplication(self, d, j, u, s):
        divisor = make(1 << j, u, s)
        out = dy.exact_div(d, divisor)
        assert out is not None
        assert out * divisor == d

    @given(dyadics, dyadics)
    def test_inverts_multiplication_by_any_divisor(self, d, e):
        if e:
            assert dy.exact_div(d * e, e) == d

    @given(small_grid, small_grid, st.booleans())
    def test_matches_power_of_two_reference(self, d, e, multiply):
        """Where the power-of-two-only exact_div answers, this one agrees,
        or refuses a quotient whose mantissa passes the limit, which the
        reference does not measure; where it refused or gave None, this one
        gives the exact quotient when that is a binary fraction, the shift
        fits and the mantissa does, else None or the refusal."""
        if multiply:
            d = d * e
        with mock.patch.object(dy, "POW_BIT_LIMIT", SMALL_LIMIT):
            got = outcome(dy.exact_div, d, e)
            want = outcome(oracles.exact_div_power_of_two, d, e)
        if want not in (None, SizeLimit):
            assert got == (SizeLimit if want.man.bit_length() - 1 > SMALL_LIMIT else want)
        elif not e:
            assert got is None
        else:
            q = oracles.to_fraction(d) / oracles.to_fraction(e)
            if not oracles.is_dyadic_fraction(q):
                assert got is None
            elif got is SizeLimit:
                assert e.exp > SMALL_LIMIT or abs(q.numerator).bit_length() - 1 > SMALL_LIMIT
            else:
                assert oracles.to_fraction(got) == q


class TestParseAndFormat:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("3.25", make(13, 2)),
            ("42", make(42, 0)),
            (" -7 ", make(7, 0, -1)),
            ("7/2^3", make(7, 3)),
            ("-5/2^1", make(5, 1, -1)),
            ("+0.5", HALF),
            ("0", ZERO),
            ("-0", ZERO),
            ("2.0", make(2, 0)),
        ],
    )
    def test_literals(self, text, expected):
        assert dy.parse_dyadic(text) == expected

    @pytest.mark.parametrize(
        "bad",
        [
            "0.1", "2.3", "x", "", "1/3", "3/2^", "1.2.3",
            "\u00b2", "\u0663", "1.\u0663", "\u0663/2^1", "1/2^\uff12",
        ],
    )
    def test_rejects_non_dyadics(self, bad):
        with pytest.raises(ExprSyntaxError):
            dy.parse_dyadic(bad)

    @pytest.mark.skipif(not DIGIT_LIMIT, reason="no int->str digit limit")
    def test_digit_limit(self):
        half = DIGIT_LIMIT // 2 + 1
        assert dy.parse_dyadic("1" * DIGIT_LIMIT) == make(int("1" * DIGIT_LIMIT), 0)
        for text in (
            "7" * (DIGIT_LIMIT + 1),
            "-1." + "5" * DIGIT_LIMIT,
            # Each part is short enough; the digits read together are not.
            "1" * half + "." + "5" * half,
            "1/2^" + "1" * (DIGIT_LIMIT + 1),
        ):
            with pytest.raises(SizeLimit):
                dy.parse_dyadic(text)

    @pytest.mark.skipif(not DIGIT_LIMIT, reason="no int->str digit limit")
    def test_digit_limit_is_read_when_printing(self):
        # 640 is the lowest limit the interpreter lets anyone set.
        printing = (
            "result has more than 640 decimal digits, "
            "the interpreter's limit for printing integers"
        )
        sys.set_int_max_str_digits(640)
        try:
            for d in (make(3**2000, 0), make(1, 10**700)):
                with pytest.raises(SizeLimit, match=f"^{printing}$"):
                    str(d)
            with pytest.raises(SizeLimit, match=f"^{printing}$"):
                dy.format_decimal(make(1, 3000))
            with pytest.raises(SizeLimit, match="limit for reading integers$"):
                dy.parse_dyadic("9" * 641)
        finally:
            sys.set_int_max_str_digits(DIGIT_LIMIT)

    def test_no_digit_limit_without_the_interpreter_hook(self, monkeypatch):
        monkeypatch.delattr(sys, "get_int_max_str_digits", raising=False)
        if DIGIT_LIMIT:
            sys.set_int_max_str_digits(0)
        try:
            assert dy.format_decimal(make(1, 7000)) == "0." + str(5**7000).zfill(7000)
        finally:
            if DIGIT_LIMIT:
                sys.set_int_max_str_digits(DIGIT_LIMIT)

    @given(dyadics)
    def test_str_roundtrip(self, d):
        assert dy.parse_dyadic(str(d)) == d

    @given(dyadics)
    def test_decimal_roundtrip(self, d):
        assert dy.parse_dyadic(dy.format_decimal(d)) == d

    def test_decimal_rendering(self):
        assert dy.format_decimal(make(13, 2)) == "3.25"
        assert dy.format_decimal(HALF) == "0.5"
        assert dy.format_decimal(make(3, 3, -1)) == "-0.375"
        assert dy.format_decimal(ZERO) == "0"
        assert dy.format_decimal(make(10, 0)) == "10"

    def test_str_forms(self):
        assert str(ZERO) == "0"
        assert str(make(5, 0)) == "5"
        assert str(make(5, 1, -1)) == "-5/2^1"

    @given(st.floats(allow_nan=False, allow_infinity=False, width=32))
    def test_from_float_is_exact(self, x):
        assert oracles.to_fraction(dy.from_float(x)) == Fraction(x)
