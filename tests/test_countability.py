import random

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from settower import dyadic as dy
from settower import countability as ct
from settower.dyadic import ZERO, make
from settower.errors import (
    EmptyBlock,
    EmptyCarrier,
    NonTotalMap,
    NotANatural,
    NotOrdering,
    UnknownAtom,
)
from settower.naturals import pair, unpair
from settower.relations import Carrier, Relation, classify, order_type_finite

ABC = Carrier("abc")


def identity_enum():
    def back(n):
        if isinstance(n, bool) or not isinstance(n, int) or n < 0:
            raise LookupError(f"not an enumerated natural: {n!r}")
        return n

    return ct.Enumeration(lambda n: n, back)


nonneg_dyadics = st.builds(
    make,
    st.integers(min_value=0, max_value=2**12),
    st.integers(min_value=0, max_value=12),
)


class TestEnumeration:
    def test_forward_validates_index(self):
        e = identity_enum()
        for bad in (-1, True, 1.5, "3"):
            with pytest.raises(NotANatural):
                e.forward(bad)

    def test_back_is_partial(self):
        with pytest.raises(LookupError):
            identity_enum().back(-2)


class TestEnumDyadics:
    def test_zero_comes_first(self):
        assert ct.enum_dyadics().forward(0) is ZERO

    @given(nonneg_dyadics)
    def test_back_then_forward_is_identity(self, d):
        e = ct.enum_dyadics()
        assert e.forward(e.back(d)) == d

    def test_collision_makes_forward_non_injective(self):
        e = ct.enum_dyadics()
        assert unpair(7) == (2, 1)
        assert e.forward(7) == e.forward(1) == make(1, 0)
        assert e.back(e.forward(7)) == 1

    @given(st.integers(0, 10**6))
    def test_forward_then_back_fixes_canonical_codes(self, n):
        e = ct.enum_dyadics()
        m, u = unpair(n)
        canonical = m % 2 == 1 or u == 0
        assert (e.back(e.forward(n)) == n) == canonical

    def test_back_rejects_foreign_items(self):
        e = ct.enum_dyadics()
        with pytest.raises(LookupError):
            e.back(make(1, 0, -1))
        with pytest.raises(LookupError):
            e.back("1/2")

    def test_prefix_is_surjective_onto_small_values(self):
        e = ct.enum_dyadics()
        seen = {e.forward(n) for n in range(300)}
        for man in range(8):
            for exp in range(4):
                d = make(man, exp)
                if pair(d.man, d.exp) < 300:
                    assert d in seen


class TestEnumFiniteSubsets:
    def test_empty_set_at_zero(self):
        subsets = ct.enum_finite_subsets(identity_enum())
        assert subsets.forward(0) == frozenset()

    def test_bitmask_positions(self):
        subsets = ct.enum_finite_subsets(identity_enum())
        assert subsets.forward(5) == {0, 2}
        assert subsets.forward(0b1101) == {0, 2, 3}

    @given(st.integers(0, 10**4))
    def test_roundtrip(self, n):
        subsets = ct.enum_finite_subsets(identity_enum())
        assert subsets.back(subsets.forward(n)) == n

    @given(st.integers(0, 10**6))
    def test_sizes_follow_popcount(self, n):
        subsets = ct.enum_finite_subsets(identity_enum())
        assert len(subsets.forward(n)) == bin(n).count("1")

    def test_lifts_dyadic_enumeration(self):
        subsets = ct.enum_finite_subsets(ct.enum_dyadics())
        items = frozenset([make(1, 1), make(3, 0)])
        assert subsets.forward(subsets.back(items)) == items


class TestEnumProduct:
    def test_roundtrip(self):
        prod = ct.enum_product(identity_enum(), identity_enum())
        for n in range(300):
            assert prod.back(prod.forward(n)) == n

    def test_injective_prefix(self):
        prod = ct.enum_product(identity_enum(), ct.enum_dyadics())
        seen = {}
        for n in range(200):
            item = prod.forward(n)
            if item in seen:
                # Only the dyadic side may collide, never the index side.
                assert unpair(n)[0] == unpair(seen[item])[0]
            seen[item] = n

    def test_components(self):
        prod = ct.enum_product(identity_enum(), identity_enum())
        assert prod.forward(pair(4, 9)) == (4, 9)


class TestEnumUnion:
    @staticmethod
    def evens_and_odds():
        evens = ct.Enumeration(lambda n: 2 * n, lambda k: k // 2)
        odds = ct.Enumeration(lambda n: 2 * n + 1, lambda k: k // 2)
        return ct.enum_union([evens, odds])

    def test_covers_both_members(self):
        union = self.evens_and_odds()
        seen = {union.forward(n) for n in range(400)}
        assert set(range(10)) <= seen

    def test_back_is_first_hit(self):
        union = self.evens_and_odds()
        for item in range(12):
            n = union.back(item)
            assert union.forward(n) == item
            assert all(union.forward(k) != item for k in range(n))

    def test_back_answers_beyond_any_search_prefix(self):
        union = ct.enum_union([identity_enum()])
        assert union.back(10**9) == pair(0, 10**9)
        with pytest.raises(LookupError):
            union.back(-1)

    def test_back_confirms_each_member_answer(self):
        # evens.back(3) answers 1, but forward(1) is 2, and evens.back(-1)
        # answers -1: neither 3 nor -1 is in a member.
        evens = ct.Enumeration(lambda n: 2 * n, lambda k: k // 2)
        union = ct.enum_union([evens, identity_enum()])
        assert union.back(3) == pair(1, 3)
        for item in (3, -1):
            with pytest.raises(LookupError):
                ct.enum_union([evens]).back(item)

    def test_back_is_the_least_index_over_overlapping_members(self):
        # Naturals 0, 1, 2, ... are both ints in the first member and
        # dyadics in the second; Dyadic and int never compare equal.
        union = ct.enum_union([identity_enum(), ct.enum_dyadics(), identity_enum()])
        firsts = {}
        for n in range(600):
            firsts.setdefault(union.forward(n), n)
        for item, n in firsts.items():
            assert union.back(item) == n
        # Every member refuses "a" with LookupError.
        with pytest.raises(LookupError):
            union.back("a")

    def test_rejects_empty_union(self):
        with pytest.raises(EmptyBlock):
            ct.enum_union([])


class TestChoiceFunction:
    def test_picks_earliest_in_carrier_order(self):
        blocks = [{"b", "c"}, {"a", "c"}, {"c"}]
        chosen = ct.choice_function(ABC, blocks)
        assert chosen == {
            frozenset({"b", "c"}): "b",
            frozenset({"a", "c"}): "a",
            frozenset({"c"}): "c",
        }

    def test_every_nonempty_subset(self):
        blocks = [s for s in oracles.subsets_of("abc") if s]
        chosen = ct.choice_function(ABC, blocks)
        assert len(chosen) == 7
        for block, pick in chosen.items():
            assert pick in block
            assert all("abc".index(pick) <= "abc".index(a) for a in block)

    def test_deterministic(self):
        blocks = [{"c", "a"}]
        assert ct.choice_function(ABC, blocks) == ct.choice_function(ABC, blocks)

    def test_empty_block_rejected(self):
        with pytest.raises(EmptyBlock):
            ct.choice_function(ABC, [set()])

    def test_unknown_atom_rejected(self):
        with pytest.raises(UnknownAtom):
            ct.choice_function(ABC, [{"a", "z"}])


class TestWellOrderFinite:
    def test_single_atom(self):
        r = ct.well_order_finite(Carrier("a"))
        assert r.pairs == frozenset()
        assert classify(r).well_ordering

    def test_default_follows_carrier_order(self):
        r = ct.well_order_finite(ABC)
        assert r.pairs == {("a", "b"), ("a", "c"), ("b", "c")}
        assert order_type_finite(r) == (3, {"a": 0, "b": 1, "c": 2})

    @given(st.integers(1, 8))
    def test_output_is_well_ordering(self, size):
        carrier = Carrier([f"x{i}" for i in range(size)])
        report = classify(ct.well_order_finite(carrier))
        assert report.well_ordering
        assert report.ordering_lt

    def test_mapping_choice(self):
        blocks = [s for s in oracles.subsets_of("abc") if s]
        chosen = ct.choice_function(ABC, blocks)
        assert ct.well_order_finite(ABC, chosen) == ct.well_order_finite(ABC)

    def test_callable_choice(self):
        def last(block):
            return [a for a in "abc" if a in block][-1]

        r = ct.well_order_finite(ABC, last)
        assert order_type_finite(r) == (3, {"c": 0, "b": 1, "a": 2})

    def test_partial_mapping_rejected(self):
        partial = {frozenset("abc"): "a"}
        with pytest.raises(NonTotalMap):
            ct.well_order_finite(ABC, partial)

    def test_choice_outside_block_rejected(self):
        with pytest.raises(NonTotalMap):
            ct.well_order_finite(ABC, lambda block: "a")

    @pytest.mark.parametrize("seed", range(3))
    def test_matches_pair_list_on_150_atoms(self, seed):
        rng = random.Random(seed)
        carrier = Carrier(f"x{i}" for i in rng.sample(range(1000), 150))
        order = list(carrier)
        rng.shuffle(order)
        table = {frozenset(order[k:]): order[k] for k in range(len(order))}
        rank = {a: k for k, a in enumerate(order)}
        for choice in (None, table, lambda block: min(block, key=rank.get), max):
            got = ct.well_order_finite(carrier, choice)
            assert got == oracles.well_order_pair_list(carrier, choice)
            assert got._cols == oracles.columns_of_rows(got)
        assert order_type_finite(ct.well_order_finite(carrier, table))[1] == rank

    def test_errors_match_pair_list(self):
        carrier = Carrier(f"x{i}" for i in range(150))
        partial = {frozenset(carrier): "x7"}
        for choice in (partial, lambda block: "x0", lambda block: "nowhere"):
            with pytest.raises(NonTotalMap) as want:
                oracles.well_order_pair_list(carrier, choice)
            with pytest.raises(NonTotalMap) as got:
                ct.well_order_finite(carrier, choice)
            assert str(got.value) == str(want.value)


class TestZornMaxFinite:
    def test_chain_gives_its_top(self):
        chain = Relation.on(
            Carrier("abcd"),
            (
                (x, y)
                for x in "abcd"
                for y in "abcd"
                if x < y
            ),
        )
        assert ct.zorn_max_finite(chain) == "d"

    def test_antichain_gives_first_atom(self):
        assert ct.zorn_max_finite(Relation.on(ABC, [])) == "a"

    def test_branching_poset(self):
        r = Relation.on(
            Carrier("abcd"), [("a", "c"), ("a", "d"), ("b", "c")]
        )
        assert ct.zorn_max_finite(r) == "c"

    def test_result_is_weak_maximum_for_every_small_ordering(self):
        for pairs in oracles.all_pairsets("abc"):
            r = Relation.on(ABC, pairs)
            if not classify(r).ordering:
                continue
            top = ct.zorn_max_finite(r)
            assert all(
                (y, top) in pairs
                for y in "abc"
                if (top, y) in pairs
            )

    def test_empty_carrier_rejected(self):
        with pytest.raises(EmptyCarrier):
            ct.zorn_max_finite(Relation.on(Carrier(()), []))

    def test_non_ordering_rejected(self):
        with pytest.raises(NotOrdering):
            ct.zorn_max_finite(
                Relation.on(ABC, [("a", "b"), ("b", "a")])
            )
