from functools import cmp_to_key
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from settower import hfset as hf
from settower.errors import (
    EmptyFamily,
    ExprSyntaxError,
    NotANatural,
    NotAPair,
    SizeLimit,
)
from settower.hfset import EMPTY, HFSet

# Sets with Ackermann codes below 2^16: a complete, cheap universe whose
# canonical order is literally integer order on codes.
codes = st.integers(min_value=0, max_value=2**16 - 1)
coded_sets = codes.map(oracles.from_code)

# Arbitrary small sets, ranks well past the coded universe's 5.
trees = st.recursive(
    st.just(EMPTY), lambda kids: st.lists(kids, max_size=3).map(HFSet), max_leaves=12
)


def rank_oracle(fs) -> int:
    return 1 + max((rank_oracle(e) for e in fs), default=-1)


# A tiny fixed universe (the 8 subsets of {0,1,2}) for algebraic identities.
UNIVERSE = hf.power_set(hf.nat_to_hf(3))
universe_subsets = st.lists(
    st.sampled_from(UNIVERSE.elements), max_size=8
).map(HFSet)


class TestConstruction:
    def test_deduplicates(self):
        one = hf.nat_to_hf(1)
        assert len(HFSet.of(one, one, EMPTY, one)) == 2

    def test_elements_strictly_increasing(self):
        s = HFSet.of(hf.nat_to_hf(2), EMPTY, hf.nat_to_hf(1))
        ranks = s.elements
        for a, b in zip(ranks, ranks[1:]):
            assert hf.compare(a, b) < 0

    @given(coded_sets, coded_sets)
    def test_extensional_equality(self, a, b):
        rebuilt = HFSet(reversed(a.elements))
        assert rebuilt == a
        assert (a == b) == (oracles.freeze(a) == oracles.freeze(b))

    @given(coded_sets)
    def test_never_contains_itself(self, a):
        assert a not in a

    @given(coded_sets, coded_sets)
    def test_no_membership_two_cycles(self, a, b):
        assert not (a in b and b in a)

    @given(coded_sets)
    def test_usable_as_dict_key(self, a):
        table = {a: "x", HFSet(a.elements): "y"}
        assert len(table) == 1

    def test_rejects_non_hfset_elements(self):
        with pytest.raises(TypeError):
            HFSet.of("atom")
        with pytest.raises(TypeError, match="got list"):
            HFSet.of(EMPTY, [])

    def test_keeps_the_first_of_equal_elements(self):
        first, second = hf.parse("{{}}"), hf.parse("{{}}")
        (kept,) = HFSet.of(first, second).elements
        assert kept is first

    @given(st.one_of(coded_sets, trees))
    def test_rank_is_one_past_the_largest_element_rank(self, a):
        assert a.rank == 1 + max((e.rank for e in a), default=-1)
        assert a.rank == rank_oracle(oracles.freeze(a))

    @given(coded_sets, coded_sets)
    def test_membership_matches_frozen_oracle(self, a, b):
        rebuilt = [HFSet(e.elements) for e in a]
        assert all(e in a for e in rebuilt)
        assert (b in a) == (oracles.freeze(b) in oracles.freeze(a))
        assert "atom" not in a


# The argument shapes the constructor takes: a tuple it keeps as it is, a
# list, and a lazy iterable.
CONTAINERS = {
    "list": list,
    "tuple": tuple,
    "generator": lambda xs: (x for x in xs),
}
containers = st.sampled_from(sorted(CONTAINERS))


@st.composite
def element_lists(draw):
    """0, 1 or many sets in any order, with repeats; a repeat is the same
    object or an equal set built separately, with no subset shared."""
    pool = draw(st.lists(st.one_of(coded_sets, trees), max_size=4))
    picks = draw(st.lists(st.sampled_from(pool), max_size=7)) if pool else []
    return [
        x if draw(st.booleans()) else oracles.thaw(oracles.freeze(x)) for x in picks
    ]


class TestConstructorAgainstOracle:
    """Every argument shape and size builds what the frozenset model says:
    the empty and one-element sets, which skip sorting and deduping, and
    the pairs, which compare their two keys, as well as larger sets."""

    @given(element_lists(), containers)
    def test_matches_frozen_oracle(self, xs, kind):
        got = HFSet(CONTAINERS[kind](xs))
        want = oracles.thaw(frozenset(map(oracles.freeze, xs)))
        assert got.elements == want.elements
        assert got._key == want._key
        assert got.rank == want.rank == rank_oracle(oracles.freeze(want))
        assert hash(got) == hash(want)
        assert str(got) == str(want)
        assert got == want and not got != want

    @given(element_lists(), containers)
    def test_keeps_the_first_of_equal_elements(self, xs, kind):
        got = HFSet(CONTAINERS[kind](xs))
        for e in got.elements:
            assert e is next(x for x in xs if x == e)

    @given(element_lists(), st.integers(0, 7), st.sampled_from(["atom", 0, None, ()]),
           containers)
    def test_rejects_a_non_set_at_any_position(self, xs, pos, bad, kind):
        xs = xs[:pos] + [bad] + xs[pos:]
        with pytest.raises(TypeError, match=f"got {type(bad).__name__}$"):
            HFSet(CONTAINERS[kind](xs))

    @pytest.mark.parametrize("bad", ["atom", 0, None, (), [EMPTY]], ids=repr)
    def test_rejects_a_one_element_tuple_of_a_non_set(self, bad):
        with pytest.raises(TypeError, match=f"got {type(bad).__name__}$"):
            HFSet((bad,))

    def test_every_call_builds_a_new_set(self):
        elems = (EMPTY,)
        a, b = HFSet(elems), HFSet(elems)
        assert a is not b and a == b
        assert HFSet() is not EMPTY and HFSet() == EMPTY

    @given(codes)
    def test_code_of_unshared_subtrees(self, c):
        # Equal subtrees are distinct objects, as parse and a decode from
        # scratch build them.
        x = oracles.thaw(oracles.freeze(oracles.from_code(c)))
        assert hf.ackermann_code(x) == oracles.code_oracle(oracles.freeze(x)) == c
        assert hf.ackermann_code(hf.parse(str(x))) == c


class TestCompare:
    @given(codes, codes)
    def test_matches_code_order(self, ca, cb):
        got = hf.compare(oracles.from_code(ca), oracles.from_code(cb))
        want = (ca > cb) - (ca < cb)
        assert got == want

    @given(st.one_of(st.tuples(coded_sets, coded_sets), st.tuples(trees, trees)))
    def test_sign_matches_element_walk(self, pair):
        a, b = pair
        assert hf.compare(a, b) == oracles.compare_walk(a, b)
        assert hf.compare(b, a) == -hf.compare(a, b)
        assert hf.compare(a, HFSet(a.elements)) == 0

    @given(st.lists(st.one_of(coded_sets, trees), max_size=12))
    def test_element_order_matches_element_walk(self, members):
        distinct = list(dict.fromkeys(members))
        want = sorted(distinct, key=cmp_to_key(oracles.compare_walk))
        assert HFSet(members).elements == tuple(want)
        assert HFSet(reversed(members)).elements == tuple(want)

    @given(st.lists(codes, min_size=1, max_size=20))
    def test_sorting_agrees_with_codes(self, cs):
        sets = HFSet(oracles.from_code(c) for c in cs)
        got = [hf.ackermann_code(e) for e in sets.elements]
        assert got == sorted(set(cs))


class TestBigUnionIntersection:
    def test_union_textbook(self):
        a, b = EMPTY, hf.nat_to_hf(1)
        fam = HFSet.of(HFSet.of(a), HFSet.of(a, b))
        assert hf.big_union(fam) == HFSet.of(a, b)

    def test_union_of_singleton_empty(self):
        assert hf.big_union(HFSet.of(EMPTY)) == EMPTY

    def test_intersection_textbook(self):
        a, b = EMPTY, hf.nat_to_hf(1)
        fam = HFSet.of(HFSet.of(a), HFSet.of(a, b))
        assert hf.big_intersection(fam) == HFSet.of(a)

    def test_intersection_of_singleton(self):
        s = hf.nat_to_hf(3)
        assert hf.big_intersection(HFSet.of(s)) == s

    def test_empty_family_rejected(self):
        with pytest.raises(EmptyFamily):
            hf.big_union(EMPTY)
        with pytest.raises(EmptyFamily):
            hf.big_intersection(EMPTY)

    @given(st.lists(universe_subsets, min_size=1, max_size=5))
    def test_against_frozenset_oracle(self, members):
        fam = HFSet(members)
        if len(fam) == 0:
            return
        frozen_family = [oracles.freeze(m) for m in fam]
        assert oracles.freeze(hf.big_union(fam)) == oracles.union_oracle(
            frozen_family
        )
        assert oracles.freeze(
            hf.big_intersection(fam)
        ) == oracles.intersection_oracle(frozen_family)

    @given(universe_subsets)
    def test_union_of_power_set_recovers_the_set(self, s):
        assert hf.big_union(hf.power_set(s)) == s


class TestPowerSet:
    def test_of_empty(self):
        assert str(hf.power_set(EMPTY)) == "{{}}"

    def test_of_singleton_empty(self):
        assert str(hf.power_set(HFSet.of(EMPTY))) == "{{},{{}}}"

    @given(st.lists(st.sampled_from(UNIVERSE.elements), max_size=6).map(HFSet))
    def test_counts_and_membership(self, s):
        ps = hf.power_set(s)
        assert len(ps) == 2 ** len(s)
        assert oracles.freeze(ps) == oracles.power_oracle(oracles.freeze(s))

    def test_size_limit(self):
        big = HFSet(hf.nat_to_hf(i) for i in range(11))
        assert len(big) == 11
        with pytest.raises(SizeLimit):
            hf.power_set(big)


class TestKuratowskiPairs:
    def test_shape(self):
        a, b = EMPTY, hf.nat_to_hf(1)
        assert hf.kuratowski_pair(a, b) == hf.parse("{{{},{{}}},{{}}}")
        assert oracles.freeze(hf.kuratowski_pair(a, b)) == oracles.kuratowski_oracle(
            oracles.freeze(a), oracles.freeze(b)
        )

    def test_degenerate(self):
        a = hf.nat_to_hf(2)
        p = hf.kuratowski_pair(a, a)
        assert len(p) == 1
        assert hf.unpair(p) == (a, a)

    @given(coded_sets, coded_sets)
    def test_roundtrip(self, x, y):
        assert hf.unpair(hf.kuratowski_pair(x, y)) == (x, y)

    @given(coded_sets, coded_sets, coded_sets, coded_sets)
    def test_pair_equality_is_coordinatewise(self, x, y, u, v):
        same = hf.kuratowski_pair(x, y) == hf.kuratowski_pair(u, v)
        assert same == (x == u and y == v)

    @pytest.mark.parametrize(
        "bad",
        [
            "{}",
            "{{},{{}},{{},{{}}}}",  # three elements
            "{{{},{{}}}}",  # single two-element member
            "{{{}},{{{}}}}",  # disjoint singletons
        ],
    )
    def test_rejects_non_pairs(self, bad):
        with pytest.raises(NotAPair):
            hf.unpair(hf.parse(bad))


class TestCartesianProduct:
    def test_empty_factor_kills_product(self):
        y = hf.power_set(hf.nat_to_hf(2))
        assert hf.cartesian_product(EMPTY, y) == EMPTY
        assert hf.cartesian_product(y, EMPTY) == EMPTY

    def test_singletons(self):
        a, b = EMPTY, hf.nat_to_hf(1)
        assert hf.cartesian_product(HFSet.of(a), HFSet.of(b)) == HFSet.of(
            hf.kuratowski_pair(a, b)
        )

    @given(universe_subsets, universe_subsets)
    def test_cardinality(self, x, y):
        assert len(hf.cartesian_product(x, y)) == len(x) * len(y)

    @given(universe_subsets, universe_subsets, universe_subsets, universe_subsets)
    @settings(max_examples=40)
    def test_intersection_identity(self, u, v, x, y):
        lhs = hf.cartesian_product(u, v).intersection(hf.cartesian_product(x, y))
        rhs = hf.cartesian_product(u.intersection(x), v.intersection(y))
        assert lhs == rhs

    def test_size_limit(self):
        base = hf.power_set(hf.nat_to_hf(7))
        seventy = HFSet(base.elements[:70])
        with pytest.raises(SizeLimit):
            hf.cartesian_product(seventy, seventy)


class TestVonNeumannNaturals:
    def test_successor_of_empty(self):
        assert hf.successor(EMPTY) == HFSet.of(EMPTY)

    def test_two(self):
        one = hf.nat_to_hf(1)
        assert hf.successor(one) == HFSet.of(EMPTY, one)

    @given(coded_sets)
    def test_successor_grows_by_one(self, x):
        assert len(hf.successor(x)) == len(x) + 1
        assert x in hf.successor(x)

    def test_three_is_the_first_three_naturals(self):
        assert str(hf.nat_to_hf(3)) == "{{},{{}},{{},{{}}}}"
        assert hf.nat_to_hf(3) == HFSet.of(*(hf.nat_to_hf(i) for i in range(3)))

    def test_roundtrip(self):
        for n in range(11):
            assert hf.hf_to_nat(hf.nat_to_hf(n)) == n

    def test_frozen_model_agrees(self):
        for n in range(9):
            assert oracles.freeze(hf.nat_to_hf(n)) == oracles.nat_frozen(n)

    def test_hf_to_nat_rejects_non_naturals(self):
        with pytest.raises(NotANatural):
            hf.hf_to_nat(hf.parse("{{{}}}"))
        with pytest.raises(NotANatural):
            hf.hf_to_nat(HFSet.of(hf.nat_to_hf(1)))

    def test_nat_to_hf_bounds(self):
        with pytest.raises(NotANatural):
            hf.nat_to_hf(-1)
        with pytest.raises(SizeLimit):
            hf.nat_to_hf(13)


class TestAckermannCodes:
    def test_first_naturals(self):
        got = [hf.ackermann_code(hf.nat_to_hf(n)) for n in range(5)]
        assert got == [0, 1, 3, 11, 2059]

    def test_code_of_six_overflows(self):
        with pytest.raises(SizeLimit):
            hf.ackermann_code(hf.nat_to_hf(6))

    def test_roundtrip_on_shared_memo(self):
        for c in range(4096):
            assert hf.ackermann_code(oracles.from_code(c)) == c

    @given(coded_sets)
    def test_matches_frozen_oracle(self, x):
        assert hf.ackermann_code(x) == oracles.code_oracle(oracles.freeze(x))

    def test_deep_sets_refused_before_recursing(self):
        deep = hf.parse("{" * 3000 + "}" * 3000)
        with pytest.raises(SizeLimit, match="more than 65536 bits"):
            hf.ackermann_code(deep)
        with pytest.raises(SizeLimit):
            hf.ackermann_code(deep)

    @pytest.mark.parametrize("limit", [0, 1, 2, 3, 4, 5, 16, 17, 2**16])
    def test_nested_braces_at_every_limit(self, limit):
        # r nested braces around {} have the least code of any rank-r set.
        with mock.patch.object(hf, "CODE_BIT_LIMIT", limit):
            for r in range(8):
                x = hf.parse("{" * (r + 1) + "}" * (r + 1))
                least = 0
                for _ in range(min(r, 5)):
                    least = 1 << least
                if r <= 5 and least.bit_length() <= limit:
                    assert hf.ackermann_code(x) == least
                else:
                    with pytest.raises(SizeLimit):
                        hf.ackermann_code(x)

    @given(trees, st.one_of(st.integers(0, 40), st.just(2**16)))
    def test_limit_matches_frozen_oracle(self, x, limit):
        # Past rank 5 the code has more than 2^16 bits; below it the oracle
        # computes the code and the limit applies to its bit length.
        if rank_oracle(oracles.freeze(x)) <= 5:
            want = oracles.code_oracle(oracles.freeze(x))
            refused = want.bit_length() > limit
        else:
            refused = True
        with mock.patch.object(hf, "CODE_BIT_LIMIT", limit):
            if refused:
                with pytest.raises(SizeLimit):
                    hf.ackermann_code(x)
            else:
                assert hf.ackermann_code(x) == want


class TestFromCode:
    def test_every_code_below_4096(self):
        for c in range(4096):
            got = hf.from_code(c)
            want = oracles.from_code(c)
            assert got == want and str(got) == str(want)
            assert hf.ackermann_code(got) == c

    @given(st.integers(min_value=0, max_value=2**16))
    def test_matches_naive_decoder(self, c):
        got = hf.from_code(c)
        assert got.elements == oracles.from_code(c).elements
        assert hf.ackermann_code(got) == c

    @given(trees)
    def test_inverts_ackermann_code(self, x):
        if rank_oracle(oracles.freeze(x)) <= 5:
            assert hf.from_code(hf.ackermann_code(x)) == x

    def test_decodes_each_sub_code_once(self):
        x = hf.from_code(2**12 - 1)
        for e in x.elements:
            for sub in e.elements:
                assert sub is x.elements[hf.ackermann_code(sub)]

    @pytest.mark.parametrize("bad", [-1, 1.5, True, "3", None])
    def test_rejects_non_naturals(self, bad):
        with pytest.raises(NotANatural):
            hf.from_code(bad)

    def test_same_bound_as_ackermann_code(self):
        widest = hf.from_code(1 << (hf.CODE_BIT_LIMIT - 1))
        assert hf.ackermann_code(widest) == 1 << (hf.CODE_BIT_LIMIT - 1)
        with pytest.raises(SizeLimit, match="more than 65536 bits"):
            hf.from_code(1 << hf.CODE_BIT_LIMIT)
        with mock.patch.object(hf, "CODE_BIT_LIMIT", 16):
            assert hf.ackermann_code(hf.from_code(2**16 - 1)) == 2**16 - 1
            with pytest.raises(SizeLimit):
                hf.from_code(2**16)


class TestPredicates:
    def test_naturals_are_ordinals(self):
        for n in range(9):
            assert hf.is_ordinal(hf.nat_to_hf(n))

    def test_empty_is_ordinal(self):
        assert hf.is_ordinal(EMPTY)

    def test_non_full_set_is_not(self):
        assert not hf.is_full(hf.parse("{{{}}}"))
        assert not hf.is_ordinal(hf.parse("{{{}}}"))

    def test_full_but_not_ordinal(self):
        # {0, 1, {1}} is full ({1}'s member 1 is in the set) but 0 and {1}
        # are not membership-comparable... 0 in {1}? no; {1} in 0? no.
        s = hf.parse("{{},{{}},{{{}}}}")
        assert hf.is_full(s)
        assert not hf.is_ordinal(s)

    def test_literal_subset_oracle_agrees_on_small_codes(self):
        for c in range(512):
            x = oracles.from_code(c)
            assert hf.is_full(x) == oracles.code_is_full(c)
            assert hf.is_ordinal(x) == oracles.code_is_ordinal(c)
            assert hf.is_ordinal(x) == oracles.is_ordinal_frozen(oracles.freeze(x))

    def test_ordinal_trichotomy_facts(self):
        ordinals = [hf.nat_to_hf(n) for n in range(9)]
        for a in ordinals:
            for b in a:
                assert hf.is_ordinal(b)
            for b in ordinals:
                if a.issubset(b) and a != b:
                    assert a in b
                assert a.issubset(b) or b.issubset(a)


class TestSetIdentities:
    @given(universe_subsets, universe_subsets)
    def test_double_difference(self, a, b):
        assert a.difference(a.difference(b)) == a.intersection(b)

    @given(universe_subsets, universe_subsets)
    def test_de_morgan(self, a, b):
        u = UNIVERSE
        lhs = u.difference(a.union(b))
        rhs = u.difference(a).intersection(u.difference(b))
        assert lhs == rhs
        lhs2 = u.difference(a.intersection(b))
        rhs2 = u.difference(a).union(u.difference(b))
        assert lhs2 == rhs2


# Braces, commas, ASCII and Unicode whitespace and junk, in any order.
token_strings = st.lists(
    st.sampled_from(["{", "}", ",", "{}", " ", "\t", "\x1c", "\u3000", "x", "\u00e9"]),
    max_size=24,
).map("".join)


@st.composite
def edited_serializations(draw):
    """A set's serialization with up to three characters inserted."""
    text = str(draw(coded_sets))
    for _ in range(draw(st.integers(0, 3))):
        at = draw(st.integers(0, len(text)))
        text = text[:at] + draw(st.sampled_from([" ", "\x1c", "\t", "x", ",", "}"])) + text[at:]
    return text


class TestStr:
    @given(st.one_of(coded_sets, trees))
    def test_matches_nested_oracle(self, x):
        assert str(x) == repr(x) == oracles.str_nested(x)

    def test_any_depth(self):
        x = EMPTY
        for _ in range(5000):
            x = HFSet.of(x)
        text = str(x)
        assert text == "{" * 5001 + "}" * 5001 and len(text) == 10002
        assert str(hf.parse(text)) == text


class TestParse:
    @given(coded_sets)
    def test_roundtrip(self, x):
        assert hf.parse(str(x)) == x

    def test_any_order_and_whitespace(self):
        assert hf.parse(" { {{}} , {} } ") == hf.parse("{{},{{}}}")

    def test_duplicates_collapse(self):
        assert hf.parse("{{},{}}") == HFSet.of(EMPTY)

    def test_any_depth(self):
        x = hf.parse("{" * 5000 + "}" * 5000)
        assert x.rank == 4999
        for _ in range(4999):
            (x,) = x.elements
        assert x == EMPTY
        with pytest.raises(ExprSyntaxError) as err:
            hf.parse("{" * 5000 + "}" * 4999)
        assert (err.value.message, err.value.position) == ("unterminated set", 9999)

    @given(st.one_of(token_strings, edited_serializations()))
    def test_matches_recursive_descent(self, text):
        try:
            want = oracles.parse_descent(text)
        except ExprSyntaxError as err:
            with pytest.raises(ExprSyntaxError) as got:
                hf.parse(text)
            assert (got.value.message, got.value.position) == (err.message, err.position)
            assert str(got.value) == str(err)
        else:
            got = hf.parse(text)
            assert got == want and str(got) == str(want)

    @pytest.mark.parametrize(
        "bad,pos",
        [
            ("", 0),
            ("{", 1),
            ("{}}", 2),
            ("{},", 2),
            ("x", 0),
            ("{{} {}}", 4),
            ("{,}", 1),
            ("{{},}", 4),
            (" \x1c", 2),
            ("{{}\u3000", 4),
        ],
    )
    def test_errors_carry_position(self, bad, pos):
        with pytest.raises(ExprSyntaxError) as err:
            hf.parse(bad)
        assert err.value.position == pos
