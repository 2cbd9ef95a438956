import copy
import inspect
import math
import pickle
import random
import re
import sys
import threading
import time
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

import oracles
from settower import dyadic as dy
from settower import reals
from settower.dyadic import HALF, ONE, ZERO, make
from settower.errors import (
    DivisionNearZero,
    EmptyList,
    NegativeInput,
    NotANatural,
    NotBoundedAwayFromZero,
    SizeLimit,
)
from settower.naturals import square_and_multiply
from settower.reals import (
    Comparison,
    CutReal,
    ONE_CUT,
    REAL_ZERO,
    Real,
    ZERO_CUT,
    add,
    canonicalize,
    compare_eps,
    from_dyadic,
    inverse,
    mul,
    pow_nat,
    real_abs,
    real_add,
    real_compare_eps,
    real_from_cut,
    real_from_dyadic,
    real_interval,
    real_mul,
    real_neg,
    real_sub,
    sup_finite,
)

nonneg_dyadics = st.builds(
    make,
    st.integers(min_value=0, max_value=2**16),
    st.integers(min_value=0, max_value=14),
)
signed_dyadics = st.builds(
    make,
    st.integers(min_value=0, max_value=2**16),
    st.integers(min_value=0, max_value=14),
    st.sampled_from([-1, 1]),
)


def inv3():
    """A genuinely untagged cut for 1/3."""
    x = inverse(from_dyadic(make(3, 0)), 0)
    assert x.tag is None
    return x


class TestFromDyadic:
    def test_rejects_negative(self):
        with pytest.raises(NegativeInput):
            from_dyadic(make(1, 1, -1))

    def test_zero_cut_pins_zero(self):
        for n in (0, 5, 30):
            assert ZERO_CUT.query(n) == (ZERO, ZERO)

    @given(nonneg_dyadics)
    @settings(max_examples=50)
    def test_invariants_and_tag(self, d):
        c = from_dyadic(d)
        assert c.tag == d
        oracles.assert_cut_invariants(c, upto=36)
        assert oracles.cut_brackets(c, oracles.to_fraction(d), 36)

    def test_query_validates_precision(self):
        with pytest.raises(NotANatural):
            ONE_CUT.query(-1)

    @given(nonneg_dyadics, st.integers(0, 20))
    @settings(max_examples=50)
    def test_rounds_before_it_widens(self, d, n):
        # hi is d rounded up onto the 2^-(n+1) grid, lo one step below it.
        lo, hi = from_dyadic(d).query(n)
        grid = Fraction(1, 1 << (n + 1))
        fr = oracles.to_fraction(d)
        assert oracles.to_fraction(hi) == math.ceil(fr / grid) * grid
        assert oracles.to_fraction(lo) == max(0, oracles.to_fraction(hi) - grid)
        if d.exp <= n + 1:
            assert hi == d

    @given(nonneg_dyadics, st.integers(0, 40))
    @settings(max_examples=100)
    @example(make(3, 5), 1)
    @example(make(1, 2**40), 30)
    def test_lies_inside_the_floor_then_widen_rule(self, d, n):
        # Off the grid lo is the floor, one step above the old rule's lo.
        lo, hi = from_dyadic(d).query(n)
        old_lo, old_hi = oracles.floor_then_widen(d).query(n)
        assert hi == old_hi and old_lo <= lo
        assert (lo == old_lo) == (d.exp <= n + 1 or lo == ZERO)

    def test_far_exponent_answers_on_the_query_grid(self):
        tiny = make(1, 1 << 40)
        assert from_dyadic(tiny).query(30) == (ZERO, make(1, 31))
        assert from_dyadic(tiny).tag == tiny


class TestCompareEps:
    def test_half_below_one(self):
        assert compare_eps(from_dyadic(HALF), ONE_CUT, 4) == Comparison.LESS
        assert compare_eps(ONE_CUT, from_dyadic(HALF), 4) == Comparison.GREATER

    @given(nonneg_dyadics)
    def test_self_comparison(self, d):
        c = from_dyadic(d)
        assert compare_eps(c, c, 10) == Comparison.INDISTINGUISHABLE

    @given(nonneg_dyadics, nonneg_dyadics)
    def test_decides_tagged_values_at_depth(self, d, e):
        # Distinct values on the 2^-28 grid separate by depth 30.
        got = compare_eps(from_dyadic(d), from_dyadic(e), 30)
        want = {
            -1: Comparison.LESS,
            0: Comparison.INDISTINGUISHABLE,
            1: Comparison.GREATER,
        }[dy.compare(d, e)]
        assert got == want

    def test_less_certifies_order(self):
        x, y = inv3(), from_dyadic(HALF)
        assert compare_eps(x, y, 8) == Comparison.LESS


class TestComparison:
    MEMBERS = {"LESS": "less", "GREATER": "greater", "INDISTINGUISHABLE": "indistinguishable"}

    @pytest.mark.parametrize("name", sorted(MEMBERS))
    def test_prints_and_names_as_the_enum_did(self, name):
        member = getattr(Comparison, name)
        value = self.MEMBERS[name]
        assert isinstance(member, Comparison)
        assert (member.name, member.value) == (name, value)
        assert repr(member) == f"<Comparison.{name}: {value!r}>"
        assert str(member) == f"Comparison.{name}"

    @pytest.mark.parametrize("name", sorted(MEMBERS))
    def test_copies_and_pickles_are_the_member(self, name):
        member = getattr(Comparison, name)
        assert copy.copy(member) is member and copy.deepcopy(member) is member
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            assert pickle.loads(pickle.dumps(member, protocol)) is member


class TestAdd:
    @given(nonneg_dyadics, nonneg_dyadics)
    @settings(max_examples=40)
    def test_embedding_is_additive(self, d, e):
        lhs = add(from_dyadic(d), from_dyadic(e))
        assert lhs.tag == dy.add(d, e)
        oracles.assert_cut_invariants(lhs, upto=34)
        assert compare_eps(
            lhs, from_dyadic(dy.add(d, e)), 30
        ) == Comparison.INDISTINGUISHABLE

    @given(nonneg_dyadics)
    def test_zero_is_neutral(self, d):
        c = add(from_dyadic(d), ZERO_CUT)
        for n in (0, 10, 30, 40):
            assert compare_eps(c, from_dyadic(d), n) == Comparison.INDISTINGUISHABLE

    def test_commutes_endpointwise(self):
        x, y = inv3(), from_dyadic(make(5, 3))
        assert add(x, y).query(22) == add(y, x).query(22)

    def test_untagged_sum_brackets_true_value(self):
        s = add(inv3(), inv3())
        assert s.tag is None
        oracles.assert_cut_invariants(s, upto=36)
        assert oracles.cut_brackets(s, Fraction(2, 3), 36)


# (cut, exact value) pairs: tagged embeddings, ZERO_CUT and untagged
# reciprocal leaves.
sum_operands = st.lists(
    st.one_of(
        nonneg_dyadics.map(lambda d: (from_dyadic(d), oracles.to_fraction(d))),
        st.just((ZERO_CUT, Fraction(0))),
        st.integers(1, 40).map(
            lambda k: (reals.reciprocal(make(2 * k + 1, 0)), Fraction(1, 2 * k + 1))
        ),
    ),
    min_size=1,
    max_size=64,
)


class TestSumCuts:
    @given(sum_operands)
    @settings(max_examples=60, deadline=None)
    @example([(ZERO_CUT, Fraction(0))] * 3)
    @example([(ZERO_CUT, Fraction(0)), (inv3(), Fraction(1, 3))])
    def test_brackets_like_the_add_fold(self, pairs):
        xs = [x for x, _ in pairs]
        total = sum(v for _, v in pairs)
        node, fold = reals.sum_cuts(xs), oracles.add_fold(xs)
        assert node.tag == fold.tag
        if node.tag is not None:
            assert oracles.to_fraction(node.tag) == total
        for x in (node, fold):
            oracles.assert_cut_invariants(x, upto=40)
            assert all(oracles.cut_brackets(x, total, n) for n in (0, 7, 30, 40, 64))
        # Skipped ZERO_CUT operands do not count towards the guard bits, and
        # a lone operand left is shifted one bit.
        live = [x for x in xs if x is not ZERO_CUT]
        if not live:
            assert node is ZERO_CUT
        for n in range(41):
            if len(live) == 1:
                assert node.query(n) == live[0].query(n + 1), n
            elif live:
                assert node.query(n) == oracles.generic_sum_cuts(live).query(n), n

    @given(st.lists(st.integers(0, 5), min_size=1, max_size=40), st.integers(0, 5))
    @settings(max_examples=80, deadline=None)
    @example([0, 0, 0], 0)
    @example([1, 0, 1, 1], 0)
    @example([1], 1)
    def test_repeated_operands_match_the_sequential_fold(self, picks, zeros):
        # Operands drawn by index from a pool, so a cut repeats by identity;
        # the pool holds ZERO_CUT, a tagged leaf, untagged leaves and an
        # untagged inner node.  generic_sum_cuts queries every operand in
        # turn, repeats included, and adds the endpoints one by one.
        pool = [
            ZERO_CUT,
            reals.reciprocal(make(3, 0)),
            from_dyadic(make(5, 3)),
            reals.reciprocal(make(7, 0)),
            inv3(),
            mul(reals.reciprocal(make(5, 0)), inv3()),
        ]
        xs = [pool[i] for i in picks] + [ZERO_CUT] * zeros
        live = [x for x in xs if x is not ZERO_CUT]
        node = reals.sum_cuts(xs)
        if not live:
            assert node is ZERO_CUT
            return
        reference = reals._shift(live[0]) if len(live) == 1 else oracles.generic_sum_cuts(live)
        assert node.tag == reference.tag
        for n in range(61):
            assert node.query(n) == reference.query(n), n

    @pytest.mark.parametrize("k,d", [(2, 1), (10, 3), (1000, 11), (17, 17)])
    def test_each_distinct_operand_is_queried_once_per_precision(self, k, d):
        class Counting(CutReal):
            def __init__(self, value):
                super().__init__(reals.reciprocal(make(value, 0)).query)
                self.asked = []

            def query(self, n):
                self.asked.append(n)
                return super().query(n)

        leaves = [Counting(2 * j + 3) for j in range(d)]
        node = reals.sum_cuts([leaves[i % d] for i in range(k)])
        guard = (k - 1).bit_length() + 1
        precisions = [0, 5, 30, 5, 61]
        for n in precisions:
            node.query(n)
        # The node's memo answers the repeated 5 without a query.
        for leaf in leaves:
            assert leaf.asked == [n + guard for n in (0, 5, 30, 61)]
        total = sum(Fraction(k // d + (j < k % d), 2 * j + 3) for j in range(d))
        assert oracles.cut_brackets(node, total, 61)

    def test_tag_waits_for_every_operand(self):
        # An untagged operand leaves the sum untagged, wherever it stands.
        # The tag fold stops there, and 1 + (1/2)^(2^40), which would need
        # 2^40 mantissa bits, is refused before it is built.
        tiny, third = from_dyadic(make(1, 2**40)), reals.reciprocal(make(3, 0))
        for xs in ([tiny, ONE_CUT, third], [third, tiny, ONE_CUT]):
            node = reals.sum_cuts(xs)
            assert node.tag is None
            assert reals.format_interval(node, 10) == "[5461/2^12, 2731/2^11]@10"

    def test_far_apart_tags_leave_no_tag(self):
        # 1 + (1/2)^(2^40) as a tag would need 2^40 mantissa bits, so the
        # node answers by intervals alone.
        tiny = from_dyadic(make(1, 2**40))
        for xs in ([ONE_CUT, tiny], [tiny, ONE_CUT, from_dyadic(HALF)]):
            node = reals.sum_cuts(xs)
            assert node.tag is None
            oracles.assert_cut_invariants(node, upto=40)
        assert reals.format_interval(node, 10) == "[6143/2^12, 6145/2^12]@10"

    def test_empty_rejected(self):
        with pytest.raises(EmptyList):
            reals.sum_cuts([])


class TestMul:
    def test_quarter_from_halves(self):
        c = mul(from_dyadic(HALF), from_dyadic(HALF))
        assert c.tag == make(1, 2)
        assert oracles.cut_brackets(c, Fraction(1, 4), 30)

    @given(nonneg_dyadics, nonneg_dyadics)
    @settings(max_examples=40)
    def test_embedding_is_multiplicative(self, d, e):
        c = mul(from_dyadic(d), from_dyadic(e))
        assert c.tag == dy.mul(d, e)
        oracles.assert_cut_invariants(c, upto=32)
        assert oracles.cut_brackets(c, oracles.to_fraction(c.tag), 32)

    def test_large_factors_keep_width_bound(self):
        c = mul(from_dyadic(make(999, 0)), from_dyadic(make(2001, 0)))
        oracles.assert_cut_invariants(c, upto=30)

    def test_untagged_product(self):
        c = mul(inv3(), inv3())
        oracles.assert_cut_invariants(c, upto=32)
        assert oracles.cut_brackets(c, Fraction(1, 9), 32)

    @given(st.integers(1, 2**40), st.integers(0, 40), st.integers(3, 2**20))
    @settings(max_examples=40)
    def test_rounded_product_invariants(self, man, exp, k):
        # Untagged factors with long endpoints: rounding must keep nesting
        # and the width bound, and keep every endpoint on the 2^(-n-3) grid.
        x = inverse(from_dyadic(make(k, 0)), 0)
        c = mul(from_dyadic(make(man, exp)), x)
        oracles.assert_cut_invariants(c, upto=40)
        assert oracles.cut_brackets(c, Fraction(man, 2**exp) / k, 40)
        for n in (0, 17, 40):
            assert max(end.exp for end in c.query(n)) <= n + 3

    def test_distributes_up_to_tolerance(self):
        x, y, z = inv3(), from_dyadic(HALF), inv3()
        lhs = mul(x, add(y, z))
        rhs = add(mul(x, y), mul(x, z))
        assert compare_eps(lhs, rhs, 26) == Comparison.INDISTINGUISHABLE


class TestSupFinite:
    def test_empty_rejected(self):
        with pytest.raises(EmptyList):
            sup_finite([])

    def test_singleton(self):
        c = from_dyadic(make(3, 2))
        assert sup_finite([c]).query(12) == c.query(12)

    def test_two_tagged_values(self):
        s = sup_finite([from_dyadic(make(1, 2)), from_dyadic(make(3, 2))])
        assert s.tag == make(3, 2)
        assert s.query(20) == from_dyadic(make(3, 2)).query(20)

    @given(st.lists(nonneg_dyadics, min_size=1, max_size=5))
    @settings(max_examples=40)
    def test_is_least_upper_bound_on_tags(self, ds):
        s = sup_finite([from_dyadic(d) for d in ds])
        top = ds[0]
        for d in ds[1:]:
            top = dy.dy_max(top, d)
        assert s.tag == top
        oracles.assert_cut_invariants(s, upto=30)

    def test_exact_zeros_are_skipped(self):
        x = inv3()
        assert sup_finite([x, ZERO_CUT]) is x
        assert sup_finite([ZERO_CUT, x, from_dyadic(ZERO)]) is x
        assert sup_finite([ZERO_CUT, ZERO_CUT]) is ZERO_CUT

    def test_mixed_tagged_untagged(self):
        s = sup_finite([inv3(), from_dyadic(make(1, 3))])
        assert s.tag is None
        oracles.assert_cut_invariants(s, upto=32)
        assert oracles.cut_brackets(s, Fraction(1, 3), 32)

    @pytest.mark.parametrize("node_of", [sup_finite, reals.sum_cuts])
    def test_operands_are_queried_from_the_oracle(self, node_of):
        # Exactly two frames lie between the node's query and an operand's:
        # the node's query and its oracle.  A comprehension in the oracle
        # would add a third under Python 3.10 and 3.11, and so a frame per
        # level of a nested query.
        seen = []

        def probe(n):
            # Above this oracle and the operand's query.
            oracle, query = sys._getframe(2), sys._getframe(3)
            seen.append((oracle.f_code, query.f_code, query.f_locals.get("self")))
            return ZERO, ONE

        node = node_of([CutReal(probe), CutReal(probe)])
        node.query(5)
        assert seen == [(node._fn.__code__, CutReal.query.__code__, node)] * 2


def _tagged_leaf(d):
    return real_from_dyadic(d), oracles.to_fraction(d)


# Signed leaves for real_sup, each with its exact value: exact zero, tagged
# values of either sign, untagged cuts, negations, and pairs with two
# nonzero sides.
SUP_LEAVES = (
    lambda: (REAL_ZERO, Fraction(0)),
    lambda: (real_from_cut(inv3()), Fraction(1, 3)),
    lambda: (real_neg(real_from_cut(inv3())), Fraction(-1, 3)),
    lambda: (real_from_cut(CutReal(from_dyadic(make(3, 2)).query)), Fraction(3, 4)),
    lambda: (real_neg(real_from_dyadic(HALF)), Fraction(-1, 2)),
    lambda: (Real(inv3(), from_dyadic(HALF)), Fraction(-1, 6)),
    lambda: (Real(from_dyadic(ONE), reals.reciprocal(make(5, 0))), Fraction(4, 5)),
    lambda: (Real(from_dyadic(make(3, 2)), from_dyadic(HALF)), Fraction(1, 4)),
)

sup_leaves = st.one_of(
    signed_dyadics.map(lambda d: lambda: _tagged_leaf(d)),
    st.sampled_from(SUP_LEAVES),
)


def _tagged(x):
    return x.pos.tag is not None and x.neg.tag is not None


class TestRealSup:
    def test_empty_rejected(self):
        with pytest.raises(EmptyList):
            reals.real_sup([])
        with pytest.raises(EmptyList):
            reals.real_sup(iter(()))

    def test_singleton_is_the_value(self):
        x = real_from_cut(inv3())
        assert reals.real_sup([x]) is x

    @given(st.lists(sup_leaves, min_size=1, max_size=9))
    @settings(max_examples=100, deadline=None)
    @example([SUP_LEAVES[0], SUP_LEAVES[0]])
    @example([SUP_LEAVES[2], SUP_LEAVES[4], SUP_LEAVES[5]])
    def test_brackets_the_max_and_overlaps_the_formula(self, makers):
        leaves = [make_leaf() for make_leaf in makers]
        xs = [x for x, _ in leaves]
        top = max(value for _, value in leaves)
        got = reals.real_sup(xs)
        fold = xs[0]
        for x in xs[1:]:
            fold = oracles.formula_max(fold, x)
        oracles.assert_cut_invariants(got.pos, upto=40)
        oracles.assert_cut_invariants(got.neg, upto=40)
        for n in range(41):
            lo, hi = (oracles.to_fraction(e) for e in real_interval(got, n))
            flo, fhi = (oracles.to_fraction(e) for e in real_interval(fold, n))
            assert lo <= top <= hi, n
            assert lo <= fhi and flo <= hi, n
        if all(_tagged(x) for x in xs):
            assert _tagged(got)
            assert oracles.to_fraction(dy.sub(got.pos.tag, got.neg.tag)) == top

    def test_depth_is_logarithmic(self):
        # A chain of k two-way maxima would need thousands of frames; the
        # balanced tree over 2^14 leaves answers within a few hundred.
        xs = [real_from_cut(reals.reciprocal(make(2 * k + 3, 0))) for k in range(1 << 14)]
        xs[5] = real_neg(xs[5])
        got = reals.real_sup(xs)
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(len(inspect.stack()) + 400)
        try:
            lo, hi = real_interval(got, 31)
        finally:
            sys.setrecursionlimit(limit)
        assert oracles.to_fraction(lo) <= Fraction(1, 3) <= oracles.to_fraction(hi)


class TestInverse:
    def test_exact_on_powers_of_two(self):
        assert inverse(ONE_CUT, 0).tag == ONE
        assert inverse(from_dyadic(make(2, 0)), 0).tag == HALF
        assert inverse(from_dyadic(make(1, 3)), 3).tag == make(8, 0)

    def test_one_third_at_twenty(self):
        x = inv3()
        lo, hi = x.query(20)
        assert lo == make(349525, 20)
        assert hi == make(699051, 21)
        three = make(3, 0)
        assert dy.mul(lo, three) < ONE < dy.mul(hi, three)
        assert dy.sub(hi, lo) <= make(1, 20)

    def test_invariants(self):
        oracles.assert_cut_invariants(inv3(), upto=36)
        assert oracles.cut_brackets(inv3(), Fraction(1, 3), 36)

    def test_requires_positive_witness(self):
        with pytest.raises(NotBoundedAwayFromZero):
            inverse(ZERO_CUT, 5)
        # lo(0) of the embedding of 1/2 is exactly 0: the witness fails
        # even though the value is positive.
        with pytest.raises(NotBoundedAwayFromZero):
            inverse(from_dyadic(HALF), 0)
        assert inverse(from_dyadic(HALF), 1).tag == make(2, 0)

    def test_witness_precision_validated(self):
        with pytest.raises(NotANatural):
            inverse(ONE_CUT, -3)

    def test_untagged_inverse_of_inverse(self):
        y = inverse(inv3(), 2)
        assert y.tag is None
        oracles.assert_cut_invariants(y, upto=30)
        assert oracles.cut_brackets(y, Fraction(3), 30)

    @given(st.integers(1, 400), st.integers(0, 6))
    @settings(max_examples=40)
    def test_tagged_general_case(self, man, exp):
        d = make(man, exp)
        x = inverse(from_dyadic(d), exp + 2)
        oracles.assert_cut_invariants(x, upto=28)
        assert oracles.cut_brackets(x, 1 / oracles.to_fraction(d), 28)


@st.composite
def power_bases(draw):
    """(cut, its exact Fraction value): a leaf, a reciprocal leaf, a sum of
    two or three of those, or real_abs of their difference."""

    def leaf():
        if draw(st.booleans()):
            d = make(draw(st.integers(0, 2**8)), draw(st.integers(0, 8)))
            return from_dyadic(d), oracles.to_fraction(d)
        k = draw(st.integers(1, 20))
        return reals.reciprocal(make(k, 0)), Fraction(1, k)

    kind = draw(st.sampled_from(["leaf", "sum", "abs"]))
    if kind == "leaf":
        return leaf()
    if kind == "sum":
        terms = [leaf() for _ in range(draw(st.integers(2, 3)))]
        return reals.sum_cuts([c for c, _ in terms]), sum(v for _, v in terms)
    (a, va), (b, vb) = leaf(), leaf()
    return real_abs(Real(a, b)), abs(va - vb)


class TestPowNat:
    @given(power_bases(), st.integers(0, 300))
    @example((from_dyadic(make(3, 1)), Fraction(3, 2)), 300)
    @example((reals.reciprocal(make(7, 0)), Fraction(1, 7)), 255)
    @settings(max_examples=60, deadline=None)
    def test_matches_square_and_multiply_and_the_chain(self, base, m):
        # The node against the square-and-multiply DAG of mul nodes it
        # replaced and the linear chain of mul nodes: the same tag, and at
        # every n an interval that brackets the power, within 2^(-n) and
        # nested in the one before.  Each mul of the chain reads its
        # factors at 0 for its guard, which queries every factor below at
        # a new precision, so the chain is queried only up to m = 64.
        x, value = base
        want = value**m
        got = pow_nat(x, m)
        dag = square_and_multiply(x, m, mul) if m else ONE_CUT
        chain = oracles.pow_chain(x, m, mul, ONE_CUT)
        assert got.tag == dag.tag == chain.tag
        oracles.assert_cut_invariants(got, upto=60)
        for n in range(61):
            assert oracles.cut_brackets(got, want, n), n
        for reference in (dag, chain) if m <= 64 else (dag,):
            assert oracles.cut_brackets(reference, want, 60)
            assert compare_eps(got, reference, 60) is Comparison.INDISTINGUISHABLE

    def test_zeroth_power_is_one(self):
        assert pow_nat(inv3(), 0) is ONE_CUT

    def test_square_of_half(self):
        assert pow_nat(from_dyadic(HALF), 2).tag == make(1, 2)

    def test_untagged_square(self):
        c = pow_nat(inv3(), 2)
        oracles.assert_cut_invariants(c, upto=30)
        assert oracles.cut_brackets(c, Fraction(1, 9), 30)

    @given(st.integers(0, 5), st.integers(0, 5))
    @settings(max_examples=25)
    def test_power_law_on_a_tag(self, m, n):
        x = from_dyadic(make(3, 1))
        lhs = pow_nat(x, m + n)
        rhs = mul(pow_nat(x, m), pow_nat(x, n))
        assert lhs.tag == rhs.tag
        assert compare_eps(lhs, rhs, 20) == Comparison.INDISTINGUISHABLE

    def test_exponent_validated(self):
        with pytest.raises(NotANatural):
            pow_nat(ONE_CUT, -1)

    @given(st.integers(2, 9), st.integers(0, 300))
    @example(3, 300)
    @example(7, 300)
    @settings(max_examples=30)
    def test_matches_linear_chain_and_fraction(self, k, m):
        x = inverse(from_dyadic(make(k, 0)), 0)
        want = Fraction(1, k) ** m
        got = pow_nat(x, m)
        oracles.assert_cut_invariants(got, upto=40)
        assert oracles.cut_brackets(got, want, 40)
        chain = oracles.pow_chain(x, m, mul, ONE_CUT)
        assert oracles.cut_brackets(chain, want, 40)
        assert compare_eps(got, chain, 40) == Comparison.INDISTINGUISHABLE

    def test_endpoints_stay_on_the_query_grid(self):
        # The power node rounds onto the 2^(-n-3) grid, so endpoint sizes
        # follow n, not m.
        c = pow_nat(inv3(), 1000)
        for n in (0, 30, 120):
            lo, hi = c.query(n)
            assert lo.exp <= n + 3 and hi.exp <= n + 3
        assert oracles.cut_brackets(c, Fraction(1, 3) ** 1000, 120)


class TestSignedReals:
    @given(signed_dyadics)
    @settings(max_examples=40)
    def test_additive_inverse_vanishes(self, d):
        x = real_from_dyadic(d)
        s = real_add(x, real_neg(x))
        assert real_compare_eps(s, REAL_ZERO, 30) == Comparison.INDISTINGUISHABLE

    @given(signed_dyadics, signed_dyadics)
    @settings(max_examples=40)
    def test_interval_brackets_difference(self, d, e):
        x = real_sub(real_from_dyadic(d), real_from_dyadic(e))
        lo, hi = real_interval(x, 30)
        want = oracles.to_fraction(d) - oracles.to_fraction(e)
        assert oracles.to_fraction(lo) <= want <= oracles.to_fraction(hi)
        assert oracles.to_fraction(hi) - oracles.to_fraction(lo) <= Fraction(
            1, 1 << 29
        )

    def test_negative_one_times_flips_sign(self):
        x = real_from_cut(inv3())
        y = real_mul(real_from_dyadic(make(1, 0, -1)), x)
        assert real_compare_eps(
            real_add(y, x), REAL_ZERO, 30
        ) == Comparison.INDISTINGUISHABLE

    @given(signed_dyadics, signed_dyadics)
    @settings(max_examples=40)
    def test_product_signs(self, d, e):
        x = real_mul(real_from_dyadic(d), real_from_dyadic(e))
        got = real_compare_eps(x, REAL_ZERO, 30)
        product = oracles.to_fraction(d) * oracles.to_fraction(e)
        if got == Comparison.LESS:
            assert product < 0
        elif got == Comparison.GREATER:
            assert product > 0
        else:
            assert abs(product) <= Fraction(1, 1 << 28)

    @given(signed_dyadics, signed_dyadics)
    @settings(max_examples=30)
    def test_triangle_inequality(self, d, e):
        x, y = real_from_dyadic(d), real_from_dyadic(e)
        lhs = real_abs(real_add(x, y))
        rhs = add(real_abs(x), real_abs(y))
        assert compare_eps(rhs, lhs, 24) != Comparison.LESS

    @given(signed_dyadics, signed_dyadics)
    @settings(max_examples=30)
    def test_abs_is_multiplicative(self, d, e):
        x, y = real_from_dyadic(d), real_from_dyadic(e)
        lhs = real_abs(real_mul(x, y))
        assert lhs.tag == dy.dy_abs(dy.mul(d, e))
        rhs = mul(real_abs(x), real_abs(y))
        assert compare_eps(lhs, rhs, 24) == Comparison.INDISTINGUISHABLE

    def test_abs_of_untagged_difference(self):
        x = real_sub(real_from_cut(inv3()), real_from_dyadic(HALF))
        c = real_abs(x)
        assert c.tag is None
        oracles.assert_cut_invariants(c, upto=30)
        assert oracles.cut_brackets(c, Fraction(1, 6), 30)


# 2^(-2^21): its exponent lies past POW_BIT_LIMIT from 1's.
TINY = make(1, 1 << 21)
ONE_REAL = real_from_dyadic(ONE)


def _is_leaf_pair_of(x, d):
    """x is the leaf pair of d: real_from_dyadic(d), side for side and
    endpoint for endpoint."""
    want = real_from_dyadic(d)
    return all(
        (got is ZERO_CUT) == (side is ZERO_CUT) and got.tag == side.tag
        and all(got.query(n) == side.query(n) for n in range(12))
        for got, side in ((x.pos, want.pos), (x.neg, want.neg))
    )


class TestExactValues:
    """real_tag reads a signed value's exact value, and real_sum, real_mul,
    real_sup and real_from_cut settle an exact result into the leaf pair of
    its value."""

    def test_tag_of_a_pair_is_the_difference(self):
        assert reals.real_tag(Real(from_dyadic(make(3, 0)), from_dyadic(ONE))) == make(2, 0)
        assert reals.real_tag(real_from_dyadic(make(3, 2, -1))) == make(3, 2, -1)
        assert reals.real_tag(REAL_ZERO) == ZERO
        assert reals.real_tag(real_from_cut(inv3())) is None
        assert reals.real_tag(Real(from_dyadic(ONE), inv3())) is None

    def test_tags_too_far_apart_give_none(self):
        far = Real(from_dyadic(ONE), from_dyadic(TINY))
        assert far.pos.tag is not None and far.neg.tag is not None
        assert reals.real_tag(far) is None

    def test_sum_folds_its_exact_operands_in_order(self):
        one, tiny = real_from_dyadic(ONE), real_from_dyadic(TINY)
        # 1 - 1 + tiny is exact, but 1 + tiny, the first partial sum of
        # 1 + tiny - 1, passes the budget.
        assert _is_leaf_pair_of(reals.real_sum([one, real_neg(one), tiny]), TINY)
        with pytest.raises(SizeLimit, match="sum needs more than"):
            reals.real_sum([one, tiny, real_neg(one)])

    def test_a_sum_with_a_non_exact_operand_answers(self):
        one, tiny = real_from_dyadic(ONE), real_from_dyadic(TINY)
        got = reals.real_sum([one, tiny, real_from_cut(inv3())])
        assert reals.real_tag(got) is None
        for n in range(31):
            lo, hi = (oracles.to_fraction(e) for e in real_interval(got, n))
            assert lo <= Fraction(4, 3) + oracles.to_fraction(TINY) <= hi
            assert hi - lo <= Fraction(2, 1 << n)

    def test_empty_sum_is_refused(self):
        with pytest.raises(EmptyList):
            reals.real_sum([])

    def test_exact_results_are_leaf_pairs(self):
        two = Real(from_dyadic(make(3, 0)), from_dyadic(ONE))
        assert _is_leaf_pair_of(real_mul(two, real_from_dyadic(make(3, 2, -1))), make(3, 1, -1))
        assert _is_leaf_pair_of(real_mul(two, real_from_cut(ZERO_CUT)), ZERO)
        assert _is_leaf_pair_of(reals.real_sup([two, real_from_dyadic(make(9, 2))]), make(9, 2))
        assert _is_leaf_pair_of(reals.real_sup([real_neg(two), real_from_dyadic(-TINY)]), -TINY)
        assert _is_leaf_pair_of(real_from_cut(from_dyadic(HALF)), HALF)
        assert _is_leaf_pair_of(reals.real_add(two, two), make(4, 0))

    def test_exact_product_past_the_budget_is_refused(self):
        # Its endpoints at low precision fit the budget, but the product
        # of exact operands is exact or refused, as dy.mul is.
        x = real_from_dyadic(dy.add(ONE, make(1, 600000)))
        with pytest.raises(SizeLimit, match="product needs more than"):
            real_mul(x, x)

    def test_a_zero_factor_makes_zero(self):
        # dy.mul measures a mantissa past the budget even against zero.
        wide = make(3**(2**19) << dy.POW_BIT_LIMIT, 0)
        with pytest.raises(SizeLimit):
            dy.mul(wide, ZERO)
        x = real_from_dyadic(wide)
        for got in (real_mul(x, REAL_ZERO), real_mul(REAL_ZERO, real_neg(x))):
            assert _is_leaf_pair_of(got, ZERO)

    def test_singleton_sup_is_the_value(self):
        for x in (real_from_dyadic(HALF), Real(from_dyadic(make(3, 0)), from_dyadic(ONE))):
            assert reals.real_sup([x]) is x


@st.composite
def signed_values(draw, depth=1):
    """(x, text): a signed value and an expression whose exact value
    oracles.exact_value reads as x's, exact or not, up to one sum deep."""
    kind = draw(st.sampled_from(("exact", "cut", "sum")[: 3 if depth else 2]))
    if kind == "exact":
        d = draw(signed_dyadics)
        return real_from_dyadic(d), f"({d})"
    if kind == "cut":
        k = draw(st.sampled_from([3, 5, 6, 7, 9, 11]))
        x = real_from_cut(inverse(from_dyadic(make(k, 0)), 0))
        return (real_neg(x), f"(-inv({k}))") if draw(st.booleans()) else (x, f"inv({k})")
    (x, tx), (y, ty) = draw(signed_values(0)), draw(signed_values(0))
    return reals.real_sum([x, y]), f"({tx} + {ty})"


def _brackets(x, want, upto=40):
    for n in range(upto):
        lo, hi = (oracles.to_fraction(e) for e in real_interval(x, n))
        assert lo <= want <= hi and hi - lo <= Fraction(2, 1 << n)


def _inverts_or_refuses(invert, x, value, prec):
    """invert() is 1/value, exactly when x is exact and 1/value a binary
    fraction, or DivisionNearZero: for an exact zero by name, else for a
    value within 2^-prec of zero, whose sign prec + 1 bits cannot show."""
    try:
        got = invert()
    except DivisionNearZero as exc:
        if reals.real_tag(x) is not None:
            assert value == 0 and str(exc) == "division by exact zero"
        else:
            assert abs(value) <= Fraction(1, 1 << prec)
            assert str(exc) == f"divisor not certified nonzero at precision {prec}"
        return None
    _brackets(got, 1 / value)
    if reals.real_tag(x) is not None and oracles.is_dyadic_fraction(1 / value):
        assert oracles.to_fraction(reals.real_tag(got)) == 1 / value
    return got


class TestInvDivPow:
    """real_inv, real_div and real_pow: brackets of the exact reciprocal,
    quotient and power, exact results as leaf pairs, and the two ways a
    division near zero is refused."""

    @given(signed_values(), st.integers(0, 40))
    def test_reciprocals_bracket_the_exact_value(self, value, prec):
        x, text = value
        _inverts_or_refuses(lambda: reals.real_inv(x, prec), x, oracles.exact_value(text), prec)

    @given(signed_values(), signed_values(), st.integers(0, 40))
    def test_quotients_bracket_the_exact_value(self, left, right, prec):
        (x, tx), (y, ty) = left, right
        a, b = oracles.exact_value(tx), oracles.exact_value(ty)
        got = _inverts_or_refuses(lambda: reals.real_div(ONE_REAL, y, prec), y, b, prec)
        if got is None:
            return
        quotient = reals.real_div(x, y, prec)
        _brackets(quotient, a / b)
        exact = reals.real_tag(x) is not None and reals.real_tag(y) is not None
        if exact and oracles.is_dyadic_fraction(a / b):
            assert _is_leaf_pair_of(quotient, oracles._dyadic_of(a / b))

    @given(signed_values(), st.integers(0, 12))
    def test_powers_bracket_the_exact_value(self, value, m):
        x, text = value
        got = reals.real_pow(x, m)
        want = oracles.exact_value(text) ** m
        _brackets(got, want)
        if reals.real_tag(x) is not None or m == 0:
            assert _is_leaf_pair_of(got, oracles._dyadic_of(want))
        else:
            assert reals.real_tag(got) is None

    def test_exact_results_are_leaf_pairs(self):
        four = real_from_dyadic(make(4, 0))
        assert _is_leaf_pair_of(reals.real_inv(four, 30), make(1, 2))
        assert _is_leaf_pair_of(reals.real_inv(real_from_dyadic(make(1, 1, -1)), 0), make(2, 0, -1))
        assert _is_leaf_pair_of(reals.real_div(real_from_dyadic(make(6, 0)), real_from_dyadic(make(3, 0)), 30), make(2, 0))
        assert _is_leaf_pair_of(reals.real_div(real_from_dyadic(make(3, 0)), four, 30), make(3, 2))
        assert _is_leaf_pair_of(reals.real_pow(real_from_dyadic(make(1, 1, -1)), 3), make(1, 3, -1))
        # A reciprocal that is no binary fraction is the reciprocal leaf.
        third = reals.real_inv(real_from_dyadic(make(3, 0, -1)), 30)
        assert third.pos is ZERO_CUT and third.neg.tag is None
        for n in range(40):
            assert third.neg.query(n) == reals.reciprocal(make(3, 0)).query(n)

    def test_both_division_messages(self):
        near = real_sub(real_from_cut(inv3()), real_from_cut(inv3()))
        for call in (lambda: reals.real_inv(REAL_ZERO, 30),
                     lambda: reals.real_div(ONE_REAL, REAL_ZERO, 30),
                     lambda: reals.real_div(REAL_ZERO, real_neg(REAL_ZERO), 7)):
            with pytest.raises(DivisionNearZero, match="^division by exact zero$"):
                call()
        for call in (lambda: reals.real_inv(near, 30), lambda: reals.real_div(ONE_REAL, near, 30)):
            with pytest.raises(
                DivisionNearZero, match="^divisor not certified nonzero at precision 30$"
            ):
                call()

    @pytest.mark.parametrize(
        "x",
        [REAL_ZERO, real_from_dyadic(make(3, 2, -1)), real_from_cut(inv3()),
         real_neg(real_from_cut(inv3())), Real(from_dyadic(ONE), from_dyadic(TINY))],
        ids=["zero", "exact", "cut", "negative-cut", "far-apart"],
    )
    def test_zeroth_power_is_exact_one(self, x):
        assert _is_leaf_pair_of(reals.real_pow(x, 0), ONE)

    def test_exact_results_past_the_budget_are_refused(self):
        big = real_from_dyadic(dy.dy_pow(make(3, 0), 2**19))
        with pytest.raises(SizeLimit, match="^quotient needs more than"):
            reals.real_div(big, real_from_dyadic(make(1, dy.POW_BIT_LIMIT)), 30)
        with pytest.raises(SizeLimit, match="^power needs more than"):
            reals.real_pow(big, 2)


class TestOneSignedFactors:
    """A factor of exactly 1 or -1 is no node; a one-signed factor, one with
    a ZERO_CUT side, multiplies by one mul node per side of the other
    factor, with no shift; and a power of a value that is not exact is one
    pow_nat node, on the side that m's parity and the base's sign pick."""

    @staticmethod
    def no_shift(monkeypatch):
        def refuse(*args):
            raise AssertionError("built a shift")

        monkeypatch.setattr(reals, "_shift", refuse)

    def test_unit_factors_return_the_other_factor(self):
        y = Real(inv3(), from_dyadic(HALF))
        minus_one = real_from_dyadic(make(1, 0, -1))
        assert real_mul(ONE_REAL, y) is y and real_mul(y, ONE_REAL) is y
        for got in (real_mul(minus_one, y), real_mul(y, minus_one)):
            assert (got.pos, got.neg) == (y.neg, y.pos)

    @pytest.mark.parametrize("x_negative", [False, True])
    @pytest.mark.parametrize("y_negative", [False, True])
    def test_two_one_signed_factors_make_one_node(self, x_negative, y_negative, monkeypatch):
        self.no_shift(monkeypatch)
        a, b = inv3(), inverse(from_dyadic(make(5, 0)), 0)
        x, y = real_from_cut(a), real_from_cut(b)
        x, y = real_neg(x) if x_negative else x, real_neg(y) if y_negative else y
        got = real_mul(x, y)
        node, zero = (got.neg, got.pos) if x_negative is not y_negative else (got.pos, got.neg)
        assert zero is ZERO_CUT and node.tag is None
        reference = oracles.generic_mul(a, b)
        assert all(node.query(n) == reference.query(n) for n in range(41))
        _brackets(got, Fraction(1, 15) * (-1) ** (x_negative + y_negative))

    @pytest.mark.parametrize("negative", [False, True])
    def test_a_one_signed_factor_makes_one_node_per_side(self, negative, monkeypatch):
        self.no_shift(monkeypatch)
        x = real_from_cut(inv3())
        y = Real(from_dyadic(make(3, 0)), inverse(from_dyadic(make(5, 0)), 0))
        got = real_mul(real_neg(x) if negative else x, y)
        pos, neg = (got.neg, got.pos) if negative else (got.pos, got.neg)
        for side, other in ((pos, y.pos), (neg, y.neg)):
            reference = oracles.generic_mul(x.pos, other)
            assert all(side.query(n) == reference.query(n) for n in range(41))
        _brackets(got, Fraction(14, 15) * (-1 if negative else 1))

    @pytest.mark.parametrize("m", [2, 3, 8, 9])
    def test_powers_are_one_node(self, m, monkeypatch):
        self.no_shift(monkeypatch)
        x = real_from_cut(inv3())
        for base, value in ((x, Fraction(1, 3)), (real_neg(x), Fraction(-1, 3))):
            got = reals.real_pow(base, m)
            positive = value > 0 or m % 2 == 0
            node, zero = (got.pos, got.neg) if positive else (got.neg, got.pos)
            assert zero is ZERO_CUT
            assert all(node.query(n) == pow_nat(x.pos, m).query(n) for n in range(41))
            _brackets(got, value**m)
        # Two nonzero sides: the power of real_abs, times the base for odd m.
        two_sided = Real(from_dyadic(make(3, 0)), inv3())
        _brackets(reals.real_pow(two_sided, m), Fraction(8, 3) ** m)


class TestCanonicalize:
    def test_tagged_pair_collapses_exactly(self):
        x = Real(from_dyadic(make(3, 0)), from_dyadic(make(5, 0)))
        c = canonicalize(x)
        assert c.neg.tag == make(2, 0)
        assert c.pos.tag == ZERO

    def test_untagged_components_hug_zero(self):
        # Both sides carry the same value, so both components must shrink.
        x = Real(inv3(), inv3())
        c = canonicalize(x)
        for n in (0, 8, 20, 30):
            assert c.pos.hi(n) <= make(1, n)
            assert c.neg.hi(n) <= make(1, n)
        assert real_compare_eps(c, x, 30) == Comparison.INDISTINGUISHABLE

    def test_preserves_value(self):
        x = Real(inv3(), from_dyadic(make(1, 3)))
        c = canonicalize(x)
        assert real_compare_eps(c, x, 28) == Comparison.INDISTINGUISHABLE
        oracles.assert_cut_invariants(c.pos, upto=28)
        oracles.assert_cut_invariants(c.neg, upto=28)


class TestOrderFacts:
    def test_dyadic_between_distinct_reals(self):
        x, y = inv3(), from_dyadic(HALF)
        n = 10
        assert compare_eps(x, y, n) == Comparison.LESS
        w = dy.between(x.hi(n), y.lo(n))
        assert compare_eps(x, from_dyadic(w), 16) == Comparison.LESS
        assert compare_eps(from_dyadic(w), y, 16) == Comparison.LESS

    @given(st.integers(0, 2**10), st.integers(1, 2**10))
    @settings(max_examples=30)
    def test_addition_strictly_monotone(self, a, gap):
        y = inv3()
        d = make(a, 5)
        e = dy.add(d, make(gap, 5))
        got = compare_eps(add(y, from_dyadic(d)), add(y, from_dyadic(e)), 22)
        assert got == Comparison.LESS

    def test_multiplication_monotone_on_positive(self):
        y = inv3()
        lhs = mul(y, from_dyadic(make(1, 0)))
        rhs = mul(y, from_dyadic(make(2, 0)))
        assert compare_eps(lhs, rhs, 12) == Comparison.LESS

    def test_powers_of_three_halves_grow(self):
        x = from_dyadic(make(3, 1))
        for m in range(4):
            assert compare_eps(
                pow_nat(x, m), pow_nat(x, m + 1), 16
            ) == Comparison.LESS

    def test_min_shift_on_finite_dyadic_samples(self):
        sample = [make(5, 2), make(1, 0), make(9, 3)]
        shift = make(7, 4)
        before = sample[0]
        for d in sample[1:]:
            before = dy.dy_min(before, d)
        shifted = [dy.add(d, shift) for d in sample]
        after = shifted[0]
        for d in shifted[1:]:
            after = dy.dy_min(after, d)
        assert after == dy.add(before, shift)
        sup_before = sup_finite([from_dyadic(d) for d in sample])
        sup_after = sup_finite([from_dyadic(d) for d in shifted])
        assert sup_after.tag == dy.add(sup_before.tag, shift)


class TestMemoization:
    def test_oracle_runs_once_per_precision(self):
        calls = []

        def fn(n):
            calls.append(n)
            return dy.ZERO, dy.make(1, n)

        c = CutReal(fn)
        threads = [
            threading.Thread(target=lambda: [c.query(7) for _ in range(50)])
            for _ in range(8)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert calls == [7]
        c.query(3)
        c.query(7)
        assert sorted(calls) == [3, 7]


def _raising_cut():
    def fn(n):
        raise AssertionError(f"queried at {n}")

    return CutReal(fn)


# Leaves of the folding DAGs: exact zeros, tagged values (few, so equal
# tags are common) and untagged cuts, one of them an untagged zero.
FOLD_LEAVES = (
    lambda: ZERO_CUT,
    lambda: from_dyadic(ZERO),
    lambda: from_dyadic(HALF),
    lambda: from_dyadic(ONE),
    lambda: from_dyadic(make(3, 2)),
    inv3,
    lambda: inverse(from_dyadic(make(5, 0)), 0),
    lambda: CutReal(from_dyadic(make(3, 2)).query),
    lambda: CutReal(ZERO_CUT.query),
)

FOLDED = {
    "add": add,
    "mul": mul,
    "posdiff": reals._posdiff,
    "abs": lambda a, b: real_abs(Real(a, b)),
    "sum": lambda a, b: reals.sum_cuts([a, b, a]),
}
GENERIC = {
    "add": oracles.generic_add,
    "mul": oracles.generic_mul,
    "posdiff": oracles.generic_posdiff,
    "abs": lambda a, b: oracles.generic_real_abs(Real(a, b)),
    "sum": lambda a, b: oracles.generic_sum_cuts([a, b, a]),
}

fold_steps = st.lists(
    st.tuples(
        st.sampled_from(sorted(FOLDED)),
        st.integers(min_value=0, max_value=99),
        st.integers(min_value=0, max_value=99),
    ),
    min_size=1,
    max_size=6,
)


# The exact values of FOLD_LEAVES and of FOLDED's nodes.
FOLD_VALUES = tuple(
    lambda v=v: Fraction(v)
    for v in (0, 0, Fraction(1, 2), 1, Fraction(3, 4), Fraction(1, 3),
              Fraction(1, 5), Fraction(3, 4), 0)
)
VALUES = {
    "add": lambda a, b: a + b,
    "mul": lambda a, b: a * b,
    "posdiff": lambda a, b: max(a - b, 0),
    "abs": lambda a, b: abs(a - b),
    "sum": lambda a, b: 2 * a + b,
}


def build_fold_dag(leaves, steps, nodes, makers=FOLD_LEAVES):
    """Every node of a DAG over the leaf indices: each step applies one
    node constructor to two earlier nodes picked by index."""
    built = [makers[i]() for i in leaves]
    for op, i, j in steps:
        built.append(nodes[op](built[i % len(built)], built[j % len(built)]))
    return built


class TestZeroFolding:
    @given(
        st.lists(
            st.integers(min_value=0, max_value=len(FOLD_LEAVES) - 1),
            min_size=1,
            max_size=4,
        ),
        fold_steps,
    )
    @settings(max_examples=300, deadline=None)
    @example(leaves=[2, 2, 5], steps=[("abs", 0, 1), ("add", 3, 2)])
    @example(leaves=[0, 5], steps=[("mul", 1, 0), ("posdiff", 2, 1)])
    def test_folded_nodes_match_generic_nodes(self, leaves, steps):
        folded = build_fold_dag(leaves, steps, FOLDED)
        generic = build_fold_dag(leaves, steps, GENERIC)
        values = build_fold_dag(leaves, steps, VALUES, FOLD_VALUES)
        # add and sum round onto their own grids; every other fold keeps
        # the generic node's endpoints.
        same_grid = all(op not in ("add", "sum") for op, _, _ in steps)
        for f, g, value in zip(folded, generic, values):
            for x in (f, g):
                oracles.assert_cut_invariants(x, upto=40)
                assert all(oracles.cut_brackets(x, value, n) for n in range(41))
            if same_grid:
                assert all(f.query(n) == g.query(n) for n in range(41))
            if g.tag is not None:
                assert f.tag == g.tag
            elif f.tag is not None:
                # A tag may only appear where the node is exactly that value.
                assert oracles.to_fraction(f.tag) == value

    def test_zero_factor_is_never_queried(self):
        x = _raising_cut()
        assert mul(x, ZERO_CUT) is ZERO_CUT
        assert mul(from_dyadic(ZERO), x) is ZERO_CUT
        assert reals._posdiff(ZERO_CUT, x) is ZERO_CUT

    def test_zero_embeds_as_zero_cut(self):
        assert from_dyadic(ZERO) is ZERO_CUT
        assert REAL_ZERO.pos is ZERO_CUT and REAL_ZERO.neg is ZERO_CUT

    def test_one_sided_pairs_build_no_zero_side(self):
        x, y = real_from_cut(inv3()), real_from_dyadic(HALF)
        assert real_add(x, y).neg is ZERO_CUT
        assert real_mul(x, y).neg is ZERO_CUT
        assert real_mul(x, real_neg(y)).pos is ZERO_CUT
        assert canonicalize(x).neg is ZERO_CUT
        assert mul(inv3(), ZERO_CUT).tag == ZERO

    def test_shift_carries_the_tag(self):
        half = from_dyadic(HALF)
        for c in (add(half, ZERO_CUT), add(ZERO_CUT, half),
                  reals._posdiff(half, ZERO_CUT), real_abs(Real(ZERO_CUT, half))):
            assert c.tag == HALF
            assert c.query(5) == half.query(6)

    @given(nonneg_dyadics, nonneg_dyadics)
    @settings(max_examples=40)
    def test_posdiff_of_tagged_operands_is_tagged(self, d, e):
        a, b = from_dyadic(d), from_dyadic(e)
        c, generic = reals._posdiff(a, b), oracles.generic_posdiff(a, b)
        assert c.tag == dy.dy_max(ZERO, dy.sub(d, e))
        assert all(c.query(n) == generic.query(n) for n in range(41))

    def test_equal_tags_do_not_fold(self):
        # |1/2 - 1/2| is tagged 0, but its upper endpoints are positive, so
        # it is not an exact zero and a sum counts and queries it.
        z = real_abs(Real(from_dyadic(HALF), from_dyadic(HALF)))
        assert z.tag == ZERO and z.hi(3).sign > 0
        y = inv3()
        s, old = add(z, y), oracles.generic_add(z, y)
        assert s.tag is None and old.tag is None
        counted = oracles.generic_sum_cuts([z, y])
        assert all(s.query(n) == counted.query(n) for n in range(41))
        for x in (s, old):
            oracles.assert_cut_invariants(x, upto=40)
            assert all(oracles.cut_brackets(x, Fraction(1, 3), n) for n in range(41))


positive_dyadics = st.builds(
    make,
    st.one_of(
        st.integers(1, 2**64).map(lambda k: 2 * k + 1),
        st.integers(1, 2**64).map(lambda k: 2 * k),
        st.integers(0, 70).map(lambda k: 1 << k),
    ),
    st.integers(0, 200),
)


class TestReciprocalLeaf:
    @given(positive_dyadics)
    @settings(max_examples=150)
    @example(make(3, 0))
    @example(make(1, 200))
    @example(make(6, 0))
    def test_matches_inverse_of_the_embedding(self, d):
        leaf = reals.reciprocal(d)
        general = inverse(from_dyadic(d), d.exp + 1)
        assert leaf.tag == general.tag
        for n in range(81):
            lo, hi = leaf.query(n)
            assert (lo, hi) == general.query(n)
            if leaf.tag is None:
                got = oracles.to_fraction(lo), oracles.to_fraction(hi)
                assert got == oracles.reciprocal_oracle(d, n)
        if leaf.tag is not None:
            assert oracles.to_fraction(leaf.tag) == 1 / oracles.to_fraction(d)
        oracles.assert_cut_invariants(leaf, upto=80)

    @given(positive_dyadics)
    @settings(max_examples=100)
    @example(make(3, 0))
    @example(make(6, 0))
    @example(make(1, 200))
    @example(make(5, 9))
    def test_answers_as_the_closure_it_replaced(self, d):
        # The same Dyadics, so the same printed bytes, at every precision.
        leaf, closure = reals.reciprocal(d), oracles.reciprocal_closure(d)
        assert leaf.tag == closure.tag
        for n in range(41):
            assert leaf.query(n) == closure.query(n), n

    def test_queries_nothing(self):
        leaf = reals.reciprocal(make(7, 0))
        assert leaf.tag is None and leaf._memo == {}
        assert leaf.query(20) == (make(299593, 21), make(149797, 20))

    @pytest.mark.parametrize("d", [ZERO, make(3, 1, -1)])
    def test_rejects_non_positive(self, d):
        with pytest.raises(NotBoundedAwayFromZero, match="reciprocal needs d > 0"):
            reals.reciprocal(d)


# Leaves for the tag-rule DAGs: small tagged values and untagged cuts, and
# no ZERO_CUT, whose folds may tag a node that the old blocks left untagged.
TAG_LEAVES = (
    lambda: from_dyadic(HALF),
    lambda: from_dyadic(ONE),
    lambda: from_dyadic(make(3, 2)),
    lambda: from_dyadic(make(5, 3)),
    inv3,
    lambda: CutReal(from_dyadic(make(3, 2)).query),
)
# Each node constructor over two operands, and the old block that tagged
# it, as a function of the operands' tags.
TAG_NODES = {
    "sum": (lambda a, b: reals.sum_cuts([a, b, a]),
            lambda a, b: oracles.sum_cuts_tag([a, b, a])),
    "mul": (mul, oracles.mul_tag),
    "sup": (lambda a, b: sup_finite([a, b, a]),
            lambda a, b: oracles.sup_finite_tag([a, b, a])),
    "posdiff": (reals._posdiff, oracles.posdiff_tag),
    "abs": (lambda a, b: real_abs(Real(a, b)),
            lambda a, b: oracles.sup_finite_tag(
                [oracles.posdiff_tag(a, b), oracles.posdiff_tag(b, a)])),
}


def _brackets_just_below_one(lo, hi):
    # The value 1 - 2^(-2^40), for endpoints on grids coarser than 2^(-100):
    # no such grid point lies strictly between the value and 1.
    assert lo.exp < 100 and hi.exp < 100
    return lo < ONE <= hi


class TestTagRule:
    """Every node's tag is its dyadic operation folded over its operands'
    tags, None when one has no tag or the operation passes the size limit."""

    # 1 and (1/2)^(2^40): their difference would need 2^40 mantissa bits.
    FAR = (ONE_CUT, from_dyadic(make(1, 2**40)))

    def test_a_leaf_whose_step_down_passes_the_budget_answers_its_tag(self):
        # 3^(2^19) has about 830,000 bits; one step of 2^-(2^20 + 1) below
        # it would need about 1,880,000.
        tag = dy.dy_pow(make(3, 0), 2**19)
        x = from_dyadic(tag)
        lo, hi = x.query(30)
        assert lo == tag - make(1, 31) and hi == tag
        assert x.query(dy.POW_BIT_LIMIT) == (tag, tag)
        assert x.query(30) == (lo, hi)

    @pytest.mark.parametrize("flip", [False, True])
    def test_far_apart_tags_answer_by_intervals(self, flip):
        one, tiny = self.FAR
        a, b = (tiny, one) if flip else (one, tiny)
        pair = Real(a, b)
        nodes = [real_abs(pair), reals._posdiff(one, tiny), reals._posdiff(tiny, one)]
        canon = canonicalize(pair)
        nodes += [canon.pos, canon.neg]
        assert all(c.tag is None for c in nodes)
        for c in nodes:
            oracles.assert_cut_invariants(c, upto=60)
        for n in range(61):
            assert _brackets_just_below_one(*nodes[0].query(n))
            assert _brackets_just_below_one(*nodes[1].query(n))
            assert nodes[2].query(n)[0] == ZERO
            lo, hi = real_interval(canon, n)
            if flip:
                lo, hi = dy.neg(hi), dy.neg(lo)
            assert _brackets_just_below_one(lo, hi)
            width = oracles.to_fraction(hi) - oracles.to_fraction(lo)
            assert width <= Fraction(2, 2**n)

    def test_tagged_powers_stay_within_the_budget(self):
        x = from_dyadic(make(3, 2))
        assert pow_nat(x, 2**16).tag == dy.dy_pow(make(3, 2), 2**16)
        start = time.perf_counter()
        big = pow_nat(x, 2**30)
        assert big.tag is None
        assert reals.format_interval(big, 30) == "[0, 1/2^33]@30"
        assert time.perf_counter() - start < 1.0
        oracles.assert_cut_invariants(big, upto=40)

    def test_a_product_past_the_budget_is_untagged(self):
        x = from_dyadic(make(3**(2**19), 0))
        assert mul(x, x).tag is None
        with pytest.raises(SizeLimit):
            dy.dy_pow(x.tag, 2)

    @given(
        st.lists(
            st.integers(min_value=0, max_value=len(TAG_LEAVES) - 1),
            min_size=1,
            max_size=4,
        ),
        st.lists(
            st.tuples(
                st.sampled_from(sorted(TAG_NODES)),
                st.integers(min_value=0, max_value=99),
                st.integers(min_value=0, max_value=99),
            ),
            min_size=1,
            max_size=6,
        ),
    )
    @settings(max_examples=200, deadline=None)
    def test_helper_matches_the_old_blocks(self, leaves, steps):
        built = [TAG_LEAVES[i]() for i in leaves]
        for op, i, j in steps:
            a, b = built[i % len(built)], built[j % len(built)]
            node, old = TAG_NODES[op]
            c = node(a, b)
            assert c.tag == old(a.tag, b.tag)
            canon = canonicalize(Real(a, b))
            assert (canon.pos.tag, canon.neg.tag) == oracles.canonicalize_tags(a.tag, b.tag)
            built.append(c)


def shared_dag():
    """Roots of one DAG with shared subterms: a power ladder, sums, sup,
    abs of a difference and a non-dyadic division."""
    third = reals.reciprocal(make(3, 0))
    fifth = inverse(from_dyadic(make(5, 0)), 0)
    ladder = pow_nat(third, 40)
    total = add(add(third, ladder), fifth)
    top = sup_finite([third, total, ladder])
    gap = real_abs(Real(total, third))
    ratio = inverse(add(third, fifth), 2)
    return [ladder, total, top, gap, ratio, mul(ratio, gap)]


class TestLockFreeMemo:
    def test_threads_see_the_single_thread_answers(self):
        precisions = range(61)
        want = [[root.query(n) for n in precisions] for root in shared_dag()]
        for answers in want:
            prev = None
            for n, (lo, hi) in enumerate(answers):
                assert ZERO <= lo <= hi and dy.sub(hi, lo) <= make(1, n)
                if prev is not None:
                    assert prev[0] <= lo and hi <= prev[1]
                prev = (lo, hi)

        roots = shared_dag()
        got = [{} for _ in range(8)]

        def work(seed):
            rng = random.Random(seed)
            order = [(i, n) for i in range(len(roots)) for n in precisions]
            rng.shuffle(order)
            for i, n in order:
                got[seed][i, n] = roots[i].query(n)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(k,)) for k in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        for seen in got:
            assert seen == {
                (i, n): want[i][n] for i in range(len(roots)) for n in precisions
            }
            # One stored answer: every thread holds the memo's own pair.
            assert all(pair is roots[i].query(n) for (i, n), pair in seen.items())

    @pytest.mark.parametrize("bad", [True, 1.0, -1, 1.5, "3"], ids=repr)
    def test_precision_is_checked_before_the_memo(self, bad):
        c = from_dyadic(HALF)
        c.query(1)
        message = rf"^precision must be a natural number, got {re.escape(repr(bad))}$"
        with pytest.raises(NotANatural, match=message):
            c.query(bad)
