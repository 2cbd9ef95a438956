import copy
import dataclasses
import pickle
import random
import time
from itertools import product

import pytest
from hypothesis import assume, given, settings, strategies as st

import oracles
from settower import relations as rel
from settower.countability import zorn_max_finite
from settower.errors import (
    BadExponent,
    CarrierMismatch,
    EmptyCarrier,
    EmptyFamily,
    NonTotalMap,
    NotEquivalence,
    NotOrdering,
    NotPreordering,
    NotWellOrdering,
    ParseError,
    UnknownAtom,
)
from settower.relations import Carrier, Relation

ABC = Carrier("abc")
ABCD = Carrier("abcd")

# Running example: a strict-ish total order with one reflexive point.
EXAMPLE = Relation.on(ABC, [("a", "b"), ("b", "c"), ("a", "c"), ("b", "b")])

pair_sets = st.frozensets(
    st.tuples(st.sampled_from("abc"), st.sampled_from("abc"))
)
relations_abc = pair_sets.map(lambda p: Relation.on(ABC, p))


def transitive_abc():
    return relations_abc.map(rel.preorder_closure)


@st.composite
def arbitrary_upto6(draw):
    atoms = "abcdef"[: draw(st.integers(0, 6))]
    pairs = draw(st.frozensets(st.tuples(*[st.sampled_from(atoms)] * 2))) \
        if atoms else frozenset()
    return Relation.on(Carrier(atoms), pairs)


@st.composite
def chains_upto6(draw):
    """Total orders with some loops, so that well-orderings come up often."""
    order = draw(st.permutations("abcdef"[: draw(st.integers(0, 6))]))
    loops = draw(st.sets(st.sampled_from(order))) if order else set()
    return Relation.on(
        Carrier(sorted(order)),
        [(x, y) for i, x in enumerate(order) for y in order[i + 1:]]
        + [(x, x) for x in loops],
    )


# Arbitrary relations on up to six atoms, their preorder closures, and chains.
relations_upto6 = st.one_of(
    arbitrary_upto6(),
    arbitrary_upto6().map(rel.preorder_closure),
    chains_upto6(),
)


def chain_pairs(atoms, weak):
    n = len(atoms)
    return [
        (atoms[i], atoms[j])
        for i in range(n)
        for j in range(i if weak else i + 1, n)
    ]


def tree_pairs(atoms):
    """A rooted tree with the root on top: a[i] lies below a[(i - 1) // 2]
    and all of its ancestors.  Every bounded pair has a join."""
    pairs = set()
    for i in range(1, len(atoms)):
        j = i
        while j:
            j = (j - 1) // 2
            pairs.add((atoms[i], atoms[j]))
    return pairs


def random_poset_pairs(atoms, seed):
    """Closure of a seeded random DAG whose edges go up the atom list."""
    rng = random.Random(seed)
    edges = [
        (x, y) for i, x in enumerate(atoms) for y in atoms[i + 1:]
        if rng.random() < 0.2
    ]
    return oracles.closure_oracle(atoms, edges)


class TestCarrier:
    def test_keeps_order(self):
        assert Carrier(["x", "a", "m"]).atoms == ("x", "a", "m")

    def test_rejects_duplicates(self):
        with pytest.raises(ValueError):
            Carrier("aa")

    def test_rejects_non_strings(self):
        with pytest.raises(TypeError):
            Carrier(["a", 3])

    def test_index(self):
        assert ABC.index("b") == 1
        with pytest.raises(UnknownAtom):
            ABC.index("z")


class TestRelationBasics:
    def test_pairs_validated(self):
        with pytest.raises(UnknownAtom):
            Relation.on(ABC, [("a", "z")])
        with pytest.raises(UnknownAtom):
            Relation.on(ABC, [("z", "a")])

    def test_carrier_property_needs_endorelation(self):
        hetero = Relation(ABC, ABCD, [("a", "d")])
        with pytest.raises(CarrierMismatch):
            hetero.carrier
        assert EXAMPLE.carrier == ABC

    def test_membership_and_equality(self):
        assert ("a", "b") in EXAMPLE
        assert ("b", "a") not in EXAMPLE
        assert EXAMPLE == Relation.on(ABC, reversed(sorted(EXAMPLE.pairs)))

    def test_diagonal(self):
        assert rel.diagonal(ABC).pairs == {("a", "a"), ("b", "b"), ("c", "c")}


class TestCompose:
    def test_example(self):
        u = Relation.on(ABC, [("a", "b")])
        v = Relation.on(ABC, [("b", "c")])
        assert rel.compose(v, u).pairs == {("a", "c")}
        assert rel.compose(u, v).pairs == frozenset()

    @given(relations_abc)
    def test_diagonal_is_identity(self, r):
        d = rel.diagonal(ABC)
        assert rel.compose(r, d) == r
        assert rel.compose(d, r) == r

    @given(relations_abc, relations_abc)
    def test_matches_oracle(self, u, v):
        assert rel.compose(v, u).pairs == oracles.product_oracle(u.pairs, v.pairs)

    @given(relations_abc, relations_abc)
    def test_inverse_antihomomorphism(self, u, v):
        lhs = rel.inverse(rel.compose(v, u))
        rhs = rel.compose(rel.inverse(u), rel.inverse(v))
        assert lhs == rhs

    @given(relations_abc, relations_abc, relations_abc)
    def test_associative(self, u, v, w):
        assert rel.compose(w, rel.compose(v, u)) == rel.compose(
            rel.compose(w, v), u
        )

    @given(relations_abc, relations_abc, pair_sets)
    def test_monotone_in_both_arguments(self, u, v, extra):
        bigger = Relation.on(ABC, set(u.pairs) | set(extra))
        assert rel.compose(v, u).pairs <= rel.compose(v, bigger).pairs
        assert rel.compose(u, v).pairs <= rel.compose(bigger, v).pairs

    def test_typed_composition(self):
        ef = Carrier("ef")
        u = Relation(ABC, ABCD, [("a", "d")])
        v = Relation(ABCD, ef, [("d", "e")])
        out = rel.compose(v, u)
        assert out.source == ABC and out.target == ef
        assert out.pairs == {("a", "e")}

    def test_mid_carrier_mismatch(self):
        u = Relation(ABC, ABC, [])
        v = Relation(ABCD, ABCD, [])
        with pytest.raises(CarrierMismatch):
            rel.compose(v, u)

    @given(relations_abc, relations_abc)
    def test_sandwich_for_symmetric_outer(self, u, v_any):
        v = Relation.on(ABC, set(v_any.pairs) | {(y, x) for x, y in v_any.pairs})
        vuv = rel.compose(v, rel.compose(u, v))
        expected = set()
        for x, y in u.pairs:
            for p in rel.point_image(v, x):
                for q in rel.point_image(v, y):
                    expected.add((p, q))
        assert vuv.pairs == frozenset(expected)


class TestInverseAndPower:
    @given(relations_abc)
    def test_inverse_involution(self, r):
        assert rel.inverse(rel.inverse(r)) == r
        assert rel.inverse(r).pairs == oracles.inverse_oracle(r.pairs)

    @given(relations_abc, st.integers(1, 4))
    def test_power_matches_matrix_oracle(self, r, m):
        assert rel.power(r, m).pairs == oracles.matrix_power_oracle(
            ABC.atoms, r.pairs, m
        )

    @given(relations_abc, st.integers(1, 3), st.integers(1, 3))
    def test_power_additivity(self, r, m, n):
        assert rel.power(r, m + n) == rel.compose(rel.power(r, m), rel.power(r, n))

    @given(relations_upto6, st.integers(1, 40))
    @settings(max_examples=300)
    def test_power_matches_linear_chain(self, r, m):
        assert rel.power(r, m) == oracles.power_chain(r, m)

    def test_power_is_logarithmic_in_the_exponent(self):
        cycle = Relation.on(ABC, [("a", "b"), ("b", "c"), ("c", "a")])
        start = time.perf_counter()
        assert rel.power(cycle, 10**9) == cycle
        assert rel.power(cycle, 3 * 10**9) == rel.diagonal(ABC)
        assert time.perf_counter() - start < 0.5

    def test_bad_exponents(self):
        for m in (0, -2, 1.5):
            with pytest.raises(BadExponent):
                rel.power(EXAMPLE, m)


class TestRestrict:
    def test_example(self):
        sub = rel.restrict(EXAMPLE, ["b", "a"])
        assert sub.carrier.atoms == ("a", "b")
        assert sub.pairs == {("a", "b"), ("b", "b")}

    def test_unknown_atom(self):
        with pytest.raises(UnknownAtom):
            rel.restrict(EXAMPLE, ["a", "z"])

    @given(transitive_abc(), st.frozensets(st.sampled_from("abc")))
    def test_preserves_ordering_flags(self, r, keep):
        sub = rel.restrict(r, keep)
        before = rel.classify(r)
        after = rel.classify(sub)
        for flag in ("antireflexive", "symmetric", "antisymmetric",
                     "transitive", "connective"):
            if getattr(before, flag):
                assert getattr(after, flag)


class TestImages:
    def test_point_image(self):
        assert rel.point_image(EXAMPLE, "a") == {"b", "c"}
        assert rel.point_image(EXAMPLE, "c") == frozenset()

    def test_image(self):
        assert rel.image(EXAMPLE, ["a"]) == {"b", "c"}
        assert rel.image(EXAMPLE, []) == frozenset()
        assert rel.image(EXAMPLE, ABC) == {"b", "c"}

    def test_co_image(self):
        assert rel.co_image(EXAMPLE, []) == {"a", "b", "c"}
        assert rel.co_image(EXAMPLE, ["a", "b"]) == {"b", "c"} & {"b", "c"}
        assert rel.co_image(EXAMPLE, ["a", "c"]) == frozenset()

    def test_unknown_atoms(self):
        for op in (rel.image, rel.co_image):
            with pytest.raises(UnknownAtom):
                op(EXAMPLE, ["z"])
        with pytest.raises(UnknownAtom):
            rel.point_image(EXAMPLE, "z")

    @given(relations_abc, st.frozensets(st.sampled_from("abc")))
    def test_image_is_union_of_point_images(self, r, subset):
        want = frozenset().union(*(rel.point_image(r, a) for a in subset)) \
            if subset else frozenset()
        assert rel.image(r, subset) == want


class TestClassify:
    def test_running_example(self):
        report = rel.classify(EXAMPLE)
        assert report.as_dict() == {
            "reflexive": False,
            "antireflexive": False,
            "symmetric": False,
            "antisymmetric": True,
            "transitive": True,
            "connective": True,
            "directive": False,
            "pre_ordering": True,
            "ordering": True,
            "ordering_lt": False,
            "ordering_le": False,
            "direction": False,
            "equivalence": False,
            "total_ordering": True,
            "well_ordering": True,
        }

    def test_diagonal(self):
        report = rel.classify(rel.diagonal(ABC))
        assert report.reflexive and report.symmetric and report.antisymmetric
        assert report.equivalence and report.ordering_le
        assert not report.connective and not report.directive

    def test_empty_relation(self):
        report = rel.classify(Relation.on(ABC, []))
        assert report.antireflexive and report.ordering_lt
        assert not report.connective and not report.well_ordering

    def test_empty_relation_on_one_point(self):
        report = rel.classify(Relation.on(Carrier("a"), []))
        assert report.total_ordering and report.well_ordering
        assert not report.directive

    @given(relations_abc)
    def test_base_flags_match_oracle(self, r):
        report = rel.classify(r).as_dict()
        for name, value in oracles.props_oracle(ABC.atoms, r.pairs).items():
            assert report[name] == value

    @given(relations_abc)
    def test_derived_flags_are_conjunctions(self, r):
        q = rel.classify(r)
        assert q.pre_ordering == q.transitive
        assert q.ordering == (q.transitive and q.antisymmetric)
        assert q.ordering_lt == (q.antireflexive and q.transitive)
        assert q.ordering_le == (q.reflexive and q.antisymmetric and q.transitive)
        assert q.direction == (q.reflexive and q.transitive and q.directive)
        assert q.equivalence == (q.reflexive and q.symmetric and q.transitive)
        assert q.total_ordering == (q.ordering and q.connective)
        assert q.well_ordering == (
            q.ordering and oracles.min_property_oracle(ABC.atoms, r.pairs)
        )

    def test_finite_well_ordering_is_total_ordering(self):
        # Exhaustive over every relation on three atoms.
        for pairs in oracles.all_pairsets("abc"):
            report = rel.classify(Relation.on(ABC, pairs))
            assert report.well_ordering == report.total_ordering

    @given(relations_upto6)
    @settings(max_examples=400)
    def test_matches_oracles_up_to_six_atoms(self, r):
        report = rel.classify(r).as_dict()
        atoms = r.carrier.atoms
        for name, value in oracles.props_oracle(atoms, r.pairs).items():
            assert report[name] == value
        assert report["well_ordering"] == (
            report["ordering"] and oracles.min_property_oracle(atoms, r.pairs)
        )

    @given(relations_abc, st.permutations(["x", "y", "z"]))
    def test_invariant_under_relabeling(self, r, names):
        table = dict(zip("abc", names))
        renamed = Relation.on(
            Carrier(names), ((table[x], table[y]) for x, y in r.pairs)
        )
        assert rel.classify(renamed) == rel.classify(r)


class TestEquivalencePartition:
    def test_diagonal_gives_singletons(self):
        assert rel.equivalence_partition(rel.diagonal(ABC)) == [
            ("a",), ("b",), ("c",)
        ]

    def test_full_relation_gives_one_block(self):
        full = Relation.on(ABC, ((x, y) for x in "abc" for y in "abc"))
        assert rel.equivalence_partition(full) == [("a", "b", "c")]

    def test_rejects_non_equivalence(self):
        with pytest.raises(NotEquivalence):
            rel.equivalence_partition(EXAMPLE)

    def test_value_equality_of_scaled_fractions(self):
        # Atoms m/u encode m * 2^-u for m, u <= 4; relate equal values.
        atoms = [f"{m}/{u}" for m in range(5) for u in range(5)]
        carrier = Carrier(atoms)

        def value(atom):
            m, u = map(int, atom.split("/"))
            return (m, u)

        pairs = []
        for a in atoms:
            for b in atoms:
                (m1, u1), (m2, u2) = value(a), value(b)
                if m1 * 2**u2 == m2 * 2**u1:
                    pairs.append((a, b))
        partition = rel.equivalence_partition(Relation.on(carrier, pairs))
        by_atom = {a: block for block in partition for a in block}
        assert by_atom["1/1"] is by_atom["2/2"]
        assert by_atom["1/1"] == ("1/1", "2/2", "4/3")
        assert by_atom["0/0"] == ("0/0", "0/1", "0/2", "0/3", "0/4")
        assert sorted(a for block in partition for a in block) == sorted(atoms)


class TestPreorderClosure:
    def test_adds_composite_pair(self):
        r = Relation.on(ABC, [("a", "b"), ("b", "c")])
        assert rel.preorder_closure(r).pairs == {
            ("a", "b"), ("b", "c"), ("a", "c")
        }

    def test_cycle_gains_loops(self):
        r = Relation.on(ABC, [("a", "b"), ("b", "a")])
        assert rel.preorder_closure(r).pairs == {
            ("a", "b"), ("b", "a"), ("a", "a"), ("b", "b")
        }

    @given(relations_abc)
    def test_matches_reachability_oracle(self, r):
        assert rel.preorder_closure(r).pairs == oracles.closure_oracle(
            ABC.atoms, r.pairs
        )

    @given(relations_abc)
    def test_transitive_idempotent_extension(self, r):
        closed = rel.preorder_closure(r)
        assert r.pairs <= closed.pairs
        assert rel.classify(closed).pre_ordering
        assert rel.preorder_closure(closed) == closed


class TestAntisymmetrize:
    def test_ordering_is_untouched(self):
        blocks, s = rel.antisymmetrize(EXAMPLE)
        assert blocks == [("a",), ("b",), ("c",)]
        assert s == EXAMPLE

    def test_two_cycle_collapses(self):
        r = Relation.on(
            ABC,
            [("a", "b"), ("b", "a"), ("a", "a"), ("b", "b"), ("a", "c"),
             ("b", "c")],
        )
        blocks, s = rel.antisymmetrize(r)
        assert blocks == [("a", "b"), ("c",)]
        assert s.carrier.atoms == ("a", "c")
        assert s.pairs == {("a", "a"), ("a", "c")}

    def test_rejects_non_transitive(self):
        with pytest.raises(NotPreordering):
            rel.antisymmetrize(Relation.on(ABC, [("a", "b"), ("b", "c")]))

    @given(transitive_abc())
    def test_quotient_is_ordering(self, r):
        blocks, s = rel.antisymmetrize(r)
        assert sorted(a for b in blocks for a in b) == ["a", "b", "c"]
        report = rel.classify(s)
        assert report.ordering
        if rel.classify(r).reflexive:
            assert report.reflexive


class TestExtremal:
    @staticmethod
    def inclusion_poset():
        atoms = [str(m) for m in range(8)]
        pairs = [
            (str(i), str(j)) for i in range(8) for j in range(8)
            if i & j == i
        ]
        return Relation.on(Carrier(atoms), pairs)

    def test_subset_lattice(self):
        r = self.inclusion_poset()
        ext = rel.extremal(r, ["1", "2"])
        assert ext.minima == frozenset()
        assert ext.weak_minima == {"1", "2"}
        assert ext.upper_bounds == {"3", "7"}
        assert ext.suprema == {"3"}
        assert ext.lower_bounds == {"0"}
        assert ext.infima == {"0"}

    def test_three_generators(self):
        r = self.inclusion_poset()
        assert rel.extremal(r, ["1", "2", "4"]).suprema == {"7"}

    def test_singleton(self):
        r = self.inclusion_poset()
        ext = rel.extremal(r, ["5"])
        assert ext.minima == ext.maxima == {"5"}
        assert ext.suprema == {"5"} and ext.infima == {"5"}

    def test_empty_subset(self):
        r = self.inclusion_poset()
        ext = rel.extremal(r, [])
        assert ext.upper_bounds == frozenset(str(m) for m in range(8))
        assert ext.suprema == {"0"}

    def test_duplicates_collapse(self):
        r = self.inclusion_poset()
        assert rel.extremal(r, ["1", "1", "2"]) == rel.extremal(r, ["1", "2"])

    def test_unknown_atom(self):
        with pytest.raises(UnknownAtom):
            rel.extremal(EXAMPLE, ["d"])

    @given(relations_abc, st.frozensets(st.sampled_from("abc")))
    def test_matches_oracle(self, r, subset):
        got = rel.extremal(r, subset)
        want = oracles.extremal_oracle(ABC.atoms, r.pairs, subset)
        for name, value in want.items():
            assert getattr(got, name) == value


class TestLubPropertyCheck:
    def test_total_chain_has_all_bounds(self):
        chain = Relation.on(
            ABCD,
            ((x, y) for x in "abcd" for y in "abcd" if x <= y),
        )
        assert rel.lub_property_check(chain) is True

    def test_diamond_without_join_fails(self):
        r = Relation.on(
            ABCD, [("a", "c"), ("a", "d"), ("b", "c"), ("b", "d")]
        )
        assert rel.lub_property_check(r) is False

    def test_rejects_non_transitive(self):
        with pytest.raises(NotPreordering):
            rel.lub_property_check(Relation.on(ABC, [("a", "b"), ("b", "c")]))

    @pytest.mark.parametrize(
        "n,make",
        [
            (13, lambda atoms: chain_pairs(atoms, weak=True)),
            (16, lambda atoms: chain_pairs(atoms, weak=False)),
            (13, tree_pairs),
            (16, tree_pairs),
            (13, lambda atoms: random_poset_pairs(atoms, 13)),
            (16, lambda atoms: random_poset_pairs(atoms, 16)),
        ],
        ids=["chain13", "strict-chain16", "tree13", "tree16", "poset13", "poset16"],
    )
    def test_large_carriers_match_oracle(self, n, make):
        # No size cap: past twelve atoms the answer is still exact.
        atoms = [f"a{i:02}" for i in range(n)]
        pairs = frozenset(make(atoms))
        want = oracles.lub_oracle(atoms, pairs)
        assert rel.lub_property_check(Relation.on(Carrier(atoms), pairs)) is want

    @given(relations_upto6)
    @settings(max_examples=400)
    def test_matches_oracle_up_to_six_atoms(self, r):
        atoms = r.carrier.atoms
        if not oracles.props_oracle(atoms, r.pairs)["transitive"]:
            with pytest.raises(NotPreordering):
                rel.lub_property_check(r)
            return
        want = oracles.lub_oracle(atoms, r.pairs)
        # The dual property, read off the inverse, agrees.
        assert oracles.lub_oracle(atoms, oracles.inverse_oracle(r.pairs)) == want
        assert rel.lub_property_check(r) is want

    def test_two_hundred_atom_chain_is_fast(self):
        atoms = [f"a{i}" for i in range(200)]
        chain = Relation.on(Carrier(atoms), chain_pairs(atoms, weak=True))
        start = time.perf_counter()
        assert rel.classify(chain).well_ordering
        assert rel.lub_property_check(chain) is True
        assert time.perf_counter() - start < 1.0

    @given(transitive_abc())
    @settings(max_examples=60)
    def test_dual_consistency_holds(self, r):
        # The internal lub/glb cross-check must never trip on a transitive
        # input; the return value itself is just a bool.
        assert rel.lub_property_check(r) in (True, False)


class TestOrderVariants:
    def test_example(self):
        lt, le = rel.order_variants(EXAMPLE)
        assert lt.pairs == {("a", "b"), ("b", "c"), ("a", "c")}
        assert le.pairs == lt.pairs | {("a", "a"), ("b", "b"), ("c", "c")}
        assert rel.classify(lt).ordering_lt
        assert rel.classify(le).ordering_le

    def test_rejects_non_ordering(self):
        with pytest.raises(NotOrdering):
            rel.order_variants(Relation.on(ABC, [("a", "b"), ("b", "a")]))

    @given(transitive_abc(), st.frozensets(st.sampled_from("abc")))
    def test_extremals_invariant(self, r, subset):
        if not rel.classify(r).ordering:
            return
        lt, le = rel.order_variants(r)
        base = rel.extremal(r, subset)
        assert rel.extremal(lt, subset) == base
        assert rel.extremal(le, subset) == base


class TestPullback:
    def test_identity_map(self):
        f = {a: a for a in "abc"}
        assert rel.pullback(EXAMPLE, ABC, f) == EXAMPLE

    def test_constant_map_on_antireflexive(self):
        strict = Relation.on(ABC, [("a", "b"), ("b", "c"), ("a", "c")])
        f = {a: "b" for a in "abc"}
        assert rel.pullback(strict, ABC, f).pairs == frozenset()

    def test_projection_identity_for_idempotent_increasing_map(self):
        atoms = ["0", "1", "2", "3"]
        chain = Relation.on(
            Carrier(atoms),
            ((x, y) for x in atoms for y in atoms if x <= y),
        )
        f = {"0": "1", "1": "1", "2": "3", "3": "3"}
        pulled = rel.pullback(chain, chain.carrier, f)
        for x in atoms:
            for z in atoms:
                assert ((x, z) in pulled) == ((x, f[z]) in chain)

    def test_non_total_maps(self):
        with pytest.raises(NonTotalMap):
            rel.pullback(EXAMPLE, ABC, {"a": "a", "b": "b"})
        with pytest.raises(NonTotalMap):
            rel.pullback(EXAMPLE, ABC, {"a": "a", "b": "b", "c": "z"})

    def test_relabels_onto_new_domain(self):
        xy = Carrier("xy")
        f = {"x": "a", "y": "c"}
        pulled = rel.pullback(EXAMPLE, xy, f)
        assert pulled.pairs == {("x", "y")}


class TestIndependence:
    def test_reflexive_chain_is_independent(self):
        chain = Relation.on(
            ABCD, ((x, y) for x in "abcd" for y in "abcd" if x <= y)
        )
        report = rel.check_independence([chain])
        assert report.upwards and report.downwards

    def test_strict_chain_is_not(self):
        strict = Relation.on(ABC, [("a", "b"), ("b", "c"), ("a", "c")])
        report = rel.check_independence([strict])
        assert not report.upwards and not report.downwards

    def test_product_of_chains(self):
        atoms = [f"{r}{c}" for r in range(3) for c in range(3)]
        grid = Carrier(atoms)
        chain3 = Relation.on(
            Carrier("012"),
            ((x, y) for x in "012" for y in "012" if x <= y),
        )
        rows = rel.pullback(chain3, grid, {a: a[0] for a in atoms})
        cols = rel.pullback(chain3, grid, {a: a[1] for a in atoms})
        report = rel.check_independence([rows, cols])
        assert report.upwards and report.downwards

    def test_empty_relation_is_vacuously_independent(self):
        report = rel.check_independence([Relation.on(ABC, [])])
        assert report.upwards and report.downwards

    def test_errors(self):
        with pytest.raises(EmptyFamily):
            rel.check_independence([])
        with pytest.raises(CarrierMismatch):
            rel.check_independence([rel.diagonal(ABC), rel.diagonal(ABCD)])
        with pytest.raises(NotPreordering):
            rel.check_independence(
                [Relation.on(ABC, [("a", "b"), ("b", "c")])]
            )


class TestOrderTypeFinite:
    def test_empty_carrier(self):
        empty = Relation.on(Carrier(()), [])
        assert rel.order_type_finite(empty) == (0, {})

    def test_strict_chain(self):
        strict = Relation.on(ABC, [("a", "b"), ("b", "c"), ("a", "c")])
        assert rel.order_type_finite(strict) == (3, {"a": 0, "b": 1, "c": 2})

    @given(st.permutations(["p", "q", "r", "s", "t"]))
    def test_ranks_follow_the_order(self, order):
        carrier = Carrier(sorted(order))
        position = {a: i for i, a in enumerate(order)}
        r = Relation.on(
            carrier,
            (
                (x, y)
                for x in order
                for y in order
                if position[x] <= position[y]
            ),
        )
        n, iso = rel.order_type_finite(r)
        assert n == 5
        assert iso == position

    def test_rejects_non_well_orderings(self):
        with pytest.raises(NotWellOrdering):
            rel.order_type_finite(Relation.on(ABC, [("a", "b"), ("b", "a")]))

    @given(relations_upto6)
    @settings(max_examples=400)
    def test_matches_peel_loop_up_to_six_atoms(self, r):
        if not rel.classify(r).well_ordering:
            with pytest.raises(NotWellOrdering):
                rel.order_type_finite(r)
            return
        want = oracles.order_type_oracle(r.carrier.atoms, r.pairs)
        assert rel.order_type_finite(r) == want


class TestParseRelation:
    TEXT = """\
# running example
carrier: a b c

a b
b c   # transitive step
a c
b b
"""

    def test_roundtrip(self):
        assert rel.parse_relation(self.TEXT) == EXAMPLE

    def test_carrier_order_kept(self):
        r = rel.parse_relation("carrier: z y x\nz y\n")
        assert r.carrier.atoms == ("z", "y", "x")

    def test_missing_carrier(self):
        with pytest.raises(ParseError) as err:
            rel.parse_relation("a b\n")
        assert err.value.line == 1

    def test_empty_input(self):
        with pytest.raises(ParseError) as err:
            rel.parse_relation("# nothing here\n")
        assert err.value.line == 1

    def test_empty_carrier_list(self):
        with pytest.raises(ParseError):
            rel.parse_relation("carrier:\n")

    def test_duplicate_carrier_atom(self):
        with pytest.raises(ParseError) as err:
            rel.parse_relation("\ncarrier: a b a\n")
        assert err.value.line == 2

    def test_bad_pair_arity(self):
        with pytest.raises(ParseError) as err:
            rel.parse_relation("carrier: a b\na\n")
        assert err.value.line == 2
        with pytest.raises(ParseError):
            rel.parse_relation("carrier: a b\na b b\n")

    def test_unknown_atom_names_line(self):
        with pytest.raises(UnknownAtom) as err:
            rel.parse_relation("carrier: a b\n\na z\n")
        assert "line 3" in str(err.value)


# Each guard against the classify flag it stands for.
GUARDS = [
    (rel.equivalence_partition, "equivalence", NotEquivalence),
    (rel.antisymmetrize, "pre_ordering", NotPreordering),
    (rel.lub_property_check, "pre_ordering", NotPreordering),
    (lambda r: rel.check_independence([r]), "pre_ordering", NotPreordering),
    (rel.order_variants, "ordering", NotOrdering),
    (rel.order_type_finite, "well_ordering", NotWellOrdering),
    (zorn_max_finite, "ordering", NotOrdering),
]


class TestGuards:
    @given(relations_upto6)
    @settings(max_examples=400, deadline=None)
    def test_each_guard_raises_exactly_when_its_flag_fails(self, r):
        report = rel.classify(r)
        for guard, flag, error in GUARDS:
            if guard is zorn_max_finite and not r.carrier.atoms:
                with pytest.raises(EmptyCarrier):
                    guard(r)
            elif getattr(report, flag):
                guard(r)
            else:
                with pytest.raises(error):
                    guard(r)

    def test_guards_do_not_run_classify(self, monkeypatch):
        def refuse(r):
            raise AssertionError("classify called")

        monkeypatch.setattr(rel, "classify", refuse)
        chain = Relation.on(ABCD, chain_pairs("abcd", weak=True))
        for guard, flag, _ in GUARDS:
            guard(rel.diagonal(ABCD) if flag == "equivalence" else chain)


def outcome(fn, *args):
    """What a call does: its value, or its error's type and message."""
    try:
        return ("value", fn(*args))
    except Exception as exc:  # noqa: BLE001 - the error is the outcome
        return ("raised", type(exc), str(exc))


@st.composite
def posets_upto6(draw):
    """Closures of DAGs whose edges go up the atom list, with some loops."""
    atoms = "abcdef"[: draw(st.integers(0, 6))]
    edges = [
        (x, y) for i, x in enumerate(atoms) for y in atoms[i + 1:]
        if draw(st.booleans())
    ]
    loops = draw(st.sets(st.sampled_from(atoms))) if atoms else set()
    pairs = set(oracles.closure_oracle(atoms, edges)) | {(a, a) for a in loops}
    return Relation.on(Carrier(atoms), pairs)


@st.composite
def equivalences_upto6(draw):
    atoms = "abcdef"[: draw(st.integers(0, 6))]
    label = {a: draw(st.integers(0, 2)) for a in atoms}
    return Relation.on(
        Carrier(atoms),
        [(x, y) for x in atoms for y in atoms if label[x] == label[y]],
    )


@st.composite
def pullback_args(draw):
    """A relation, a domain of other atoms (or its own carrier), and a map
    that may miss a domain atom or leave the relation's carrier."""
    r = draw(st.one_of(relations_upto6, posets_upto6()))
    domain = draw(st.one_of(
        st.integers(0, 6).map(lambda k: Carrier("uvwxyz"[:k])),
        st.just(r.source),
    ))
    targets = list(r.source.atoms) * 4 + ["zz", None]
    mapping = {}
    for x in domain:
        y = draw(st.sampled_from(targets))
        if y is not None:
            mapping[x] = y
    return r, domain, mapping


@st.composite
def transitive_families(draw):
    """One to three transitive relations on one carrier of up to six atoms."""
    atoms = "abcdef"[: draw(st.integers(0, 6))]
    carrier = Carrier(atoms)
    family = []
    for _ in range(draw(st.integers(1, 3))):
        pairs = draw(st.frozensets(st.tuples(*[st.sampled_from(atoms)] * 2))) \
            if atoms else frozenset()
        closed = set(oracles.closure_oracle(atoms, pairs))
        if draw(st.booleans()):
            closed |= {(a, a) for a in atoms}
        family.append(Relation.on(carrier, closed))
    return family


class TestRowsAgreeWithPairBodies:
    """The bit-row functions against their former pair-quantified bodies:
    equal values, block and tuple order included, and equal errors."""

    @given(st.one_of(relations_upto6, posets_upto6(), equivalences_upto6()))
    @settings(max_examples=300, deadline=None)
    def test_equivalence_partition(self, r):
        assert outcome(rel.equivalence_partition, r) == outcome(
            oracles.equivalence_partition_oracle, r
        )

    @given(st.one_of(relations_upto6, posets_upto6()))
    @settings(max_examples=300, deadline=None)
    def test_antisymmetrize(self, r):
        got = outcome(rel.antisymmetrize, r)
        want = outcome(oracles.antisymmetrize_oracle, r)
        assert got == want
        if got[0] == "value":
            assert got[1][1].carrier.atoms == want[1][1].carrier.atoms

    @given(pullback_args())
    @settings(max_examples=300, deadline=None)
    def test_pullback(self, args):
        got = outcome(rel.pullback, *args)
        assert got == outcome(oracles.pullback_oracle, *args)
        if got[0] == "value":
            assert got[1].source is args[1]

    @given(transitive_families())
    @settings(max_examples=300, deadline=None)
    def test_check_independence(self, family):
        assert outcome(rel.check_independence, family) == outcome(
            oracles.check_independence_oracle, family
        )

    @given(st.one_of(relations_upto6, posets_upto6()))
    @settings(max_examples=300, deadline=None)
    def test_zorn_max_finite(self, r):
        assert outcome(zorn_max_finite, r) == outcome(oracles.zorn_max_oracle, r)


@st.composite
def hetero_pair_lists(draw):
    """Distinct source and target carriers and a pair list with repeats."""
    source = Carrier("abcde"[: draw(st.integers(0, 5))])
    target = Carrier("cdxyz"[: draw(st.integers(0, 5))])
    if not (source.atoms and target.atoms):
        return source, target, []
    pair = st.tuples(st.sampled_from(source.atoms), st.sampled_from(target.atoms))
    return source, target, draw(st.lists(pair, max_size=12))


class TestRelationAgainstPairSetModel:
    """Relation's public surface answers as a frozenset of pairs does."""

    @given(hetero_pair_lists(), st.randoms(use_true_random=False))
    def test_pairs_equality_hash_and_repr(self, args, rng):
        source, target, pairs = args
        model = frozenset(pairs)
        r = Relation(source, target, pairs)
        assert r.pairs == model and isinstance(r.pairs, frozenset)
        assert r.source is source and r.target is target
        shuffled = pairs + pairs[: len(pairs) // 2]
        rng.shuffle(shuffled)
        twin = Relation(source, target, shuffled)
        assert twin == r and hash(twin) == hash(r)
        assert repr(r) == f"Relation({list(source.atoms)!r}, {sorted(model)!r})"
        for extra in set(product(source.atoms, target.atoms)) - model:
            other = Relation(source, target, list(model) + [extra])
            assert other != r
        if source != target:
            assert Relation(target, source, []) != Relation(source, target, [])

    @given(hetero_pair_lists())
    def test_membership(self, args):
        source, target, pairs = args
        model = frozenset(pairs)
        r = Relation(source, target, pairs)
        atoms = sorted(set(source.atoms) | set(target.atoms) | {"zz"})
        probes = list(product(atoms, atoms)) + [
            5, "ab", ("a",), ("a", "c", "x"), (), None, ("a", 5), (5, "c"),
            frozenset(), [], {}, ("a", []), ([], "c"), ("zz", []),
        ]
        for probe in probes:
            assert outcome(lambda: probe in r) == outcome(lambda: probe in model)

    def test_unknown_atoms(self):
        with pytest.raises(UnknownAtom, match=r"^pair source 'z' not in carrier$"):
            Relation(ABC, ABCD, [("a", "d"), ("z", "a")])
        with pytest.raises(UnknownAtom, match=r"^pair target 'd' not in carrier$"):
            Relation(ABCD, ABC, [("d", "a"), ("a", "d")])
        # The source of a pair is checked before its target.
        with pytest.raises(UnknownAtom, match=r"^pair source 'z' not in carrier$"):
            Relation.on(ABC, [("z", "z")])

    def test_power_rejects_booleans(self):
        for m in (True, False):
            with pytest.raises(BadExponent, match=r"needs m >= 1, got (True|False)$"):
                rel.power(EXAMPLE, m)


# The one-pass reader, Warshall's closure and the row-wise flags against
# the bodies they replaced (oracles.parse_relation_two_pass and the rest).

NAMES = ["a", "b", "c", "dd", "e1"]
GAPS = st.sampled_from([" ", "\t", "  ", " \t "])
MARGINS = st.sampled_from(["", " ", "\t"])
COMMENTS = st.sampled_from(["", "# note", "  #a b", "#carrier: a"])


@st.composite
def token_line(draw, tokens):
    text = draw(MARGINS)
    for k, token in enumerate(tokens):
        text += (draw(GAPS) if k else "") + token
    return text + draw(MARGINS) + draw(COMMENTS)


@st.composite
def relation_texts(draw):
    """Relation files with comments, blank lines, CRLF, tabs, runs of
    spaces, unknown atoms, 1- and 3-token lines, and duplicate or missing
    carriers."""
    lines = []
    noise = st.sampled_from(["", "   ", "# only a comment", "\t# tab comment"])
    lines += draw(st.lists(noise, max_size=2))
    carrier = draw(st.sampled_from(["listed"] * 7 + ["duplicate", "empty", "missing"]))
    atoms = NAMES
    if carrier != "missing":
        atoms = draw(st.lists(st.sampled_from(NAMES), min_size=1, max_size=5, unique=True))
        listed = {"listed": atoms, "duplicate": atoms + atoms[:1], "empty": []}
        lines.append(draw(token_line(["carrier:"] + listed[carrier])))
    known = st.sampled_from(atoms)
    anything = st.one_of(known, st.sampled_from(["zz", "q", "carrier:"]))
    pair_line = st.lists(known, min_size=2, max_size=2)
    odd_line = st.lists(anything, min_size=1, max_size=3)
    for _ in range(draw(st.integers(0, 8))):
        kind = draw(st.integers(0, 9))
        if kind < 6:
            lines.append(draw(token_line(draw(pair_line))))
        elif kind < 8:
            lines.append(draw(noise))
        else:
            lines.append(draw(token_line(draw(odd_line))))
    ends = st.sampled_from(["\n", "\r\n"])
    text = "".join(line + draw(ends) for line in lines)
    return text if draw(st.booleans()) else text.rstrip("\r\n")


def parse_outcome(parse, text):
    try:
        return ("value", parse(text))
    except (ParseError, UnknownAtom) as exc:
        return ("raised", type(exc), str(exc), getattr(exc, "line", None))


def seeded_relations(n, seed):
    """Relations on n atoms: sparse with cycles, random DAG closures, dense,
    and relations with one common top, with and without one row cut."""
    rng = random.Random(f"{n}:{seed}")
    atoms = [f"x{i}" for i in rng.sample(range(1000), n)]
    carrier = Carrier(atoms)
    sparse = {(rng.choice(atoms), rng.choice(atoms)) for _ in range(n + n // 2)}
    dense = {(x, y) for x in atoms for y in atoms if rng.random() < 0.3}
    top = rng.choice(atoms)
    topped = sparse | {(x, top) for x in atoms}
    cut = topped - {(atoms[-1], top)}
    made = [
        Relation.on(carrier, pairs)
        for pairs in (
            sparse,
            random_poset_pairs(atoms, seed),
            dense,
            topped,
            cut,
        )
    ]
    return made + [rel.preorder_closure(r) for r in made[:1]]


CARRIER_SIZES = [40, 41, 64, 97, 150]


class TestAgainstPreviousBodies:
    @given(relation_texts())
    @settings(max_examples=250, deadline=None)
    def test_parse_matches_two_pass_reader(self, text):
        got = parse_outcome(rel.parse_relation, text)
        assert got == parse_outcome(oracles.parse_relation_two_pass, text)
        if got[0] == "value":
            assert got[1]._cols == oracles.columns_of_rows(got[1])

    def test_parse_keeps_every_error(self):
        cases = {
            "": ("missing carrier line", 1),
            "\r\n# c\r\na b\r\n": ("first line must start with 'carrier:'", 3),
            "carrier:\t# none\n": ("carrier must list at least one atom", 1),
            "\ncarrier: a\tb  a\n": ("duplicate atom 'a' in carrier", 2),
            "carrier: a b\n\na\tb b\n": ("expected two atoms, got 3", 3),
            "carrier: a b\r\na\r\n": ("expected two atoms, got 1", 2),
        }
        for text, (message, line) in cases.items():
            with pytest.raises(ParseError) as err:
                rel.parse_relation(text)
            assert (str(err.value), err.value.line) == (f"{message} (line {line})", line)
        with pytest.raises(UnknownAtom, match=r"^atom 'z' not in carrier \(line 4\)$"):
            rel.parse_relation("carrier: a b\r\n\r\n a b # ok\r\nb   z\n")

    @pytest.mark.parametrize("n", CARRIER_SIZES)
    @pytest.mark.parametrize("seed", range(3))
    def test_closure_matches_sweeps(self, n, seed):
        for r in seeded_relations(n, seed):
            closed = rel.preorder_closure(r)
            assert closed == oracles.preorder_closure_sweeps(r)
            assert closed._cols == oracles.columns_of_rows(closed)

    @pytest.mark.parametrize("n", CARRIER_SIZES)
    @pytest.mark.parametrize("seed", range(3))
    def test_classify_flags_match_previous_scans(self, n, seed):
        for r in seeded_relations(n, seed):
            report = rel.classify(r)
            assert report.transitive == oracles.transitive_generator(r._rows)
            assert report.directive == oracles.directive_pair_scan(r._rows)

    @given(relations_upto6)
    @settings(max_examples=200, deadline=None)
    def test_classify_flags_match_previous_scans_up_to_six_atoms(self, r):
        report = rel.classify(r)
        assert report.transitive == oracles.transitive_generator(r._rows)
        assert report.directive == oracles.directive_pair_scan(r._rows)


def order_kinds(n, seed):
    """A weak chain, a poset, a preorder and an equivalence on n atoms, each
    transitive, as pair sets on one carrier."""
    rng = random.Random(f"kinds:{n}:{seed}")
    atoms = [f"y{i}" for i in rng.sample(range(1000), n)]
    order = rng.sample(atoms, n)
    blocks = [order[k::max(1, n // 3)] for k in range(max(1, n // 3))]
    kinds = {
        "chain": {(x, y) for i, x in enumerate(order) for y in order[i:]},
        "poset": set(random_poset_pairs(order, seed)),
        "preorder": {
            (x, y) for i, b in enumerate(blocks) for c in blocks[i:] for x in b for y in c
        },
        "equivalence": {(x, y) for b in blocks for x in b for y in b},
    }
    return Carrier(atoms), kinds


@st.composite
def dense_relations(draw):
    """Relations on 2-10 atoms whose rows OR three draws each, so most rows
    hold more than half the carrier; half of them closed, and some with one
    pair removed."""
    n = draw(st.integers(2, 10))
    masks = st.integers(0, (1 << n) - 1)
    carrier = Carrier([f"a{i}" for i in range(n)])
    r = rel._from_rows(
        carrier, carrier, [draw(masks) | draw(masks) | draw(masks) for _ in range(n)]
    )
    if draw(st.booleans()):
        r = rel.preorder_closure(r)
    if r.pairs and draw(st.booleans()):
        r = Relation.on(carrier, r.pairs - {draw(st.sampled_from(sorted(r.pairs)))})
    return r


class TestSmallerSideTransitivity:
    """_transitive checks each row through its successors' rows or, past
    half the carrier, through its non-successors' columns; both must agree
    with the successor rule of oracles.transitive_generator, as classify's
    flag does on seeded_relations in TestAgainstPreviousBodies."""

    @given(dense_relations())
    @settings(max_examples=300, deadline=None)
    def test_matches_generator_on_dense_rows(self, r):
        n = len(r.carrier)
        assume(any(row.bit_count() * 2 > n for row in r._rows))
        assert rel._transitive(r._rows, r._cols) == oracles.transitive_generator(r._rows)

    @pytest.mark.parametrize("n", [1, 2, 7, 16, 41])
    @pytest.mark.parametrize("kind", ["chain", "poset", "preorder", "equivalence"])
    def test_kinds_with_one_pair_removed(self, kind, n):
        carrier, kinds = order_kinds(n, n)
        pairs = kinds[kind]
        whole = Relation.on(carrier, pairs)
        assert rel._transitive(whole._rows, whole._cols)
        removed = sorted(pairs)
        if len(removed) > 200:
            removed = random.Random(n).sample(removed, 200)
        broken = 0
        for pair in removed:
            r = Relation.on(carrier, pairs - {pair})
            want = oracles.transitive_generator(r._rows)
            assert rel._transitive(r._rows, r._cols) == want, pair
            broken += not want
        assert broken or n < 7

    @pytest.mark.parametrize("n", [40, 41, 64])
    @pytest.mark.parametrize("seed", range(2))
    def test_extremal_matches_oracle_on_seeded_relations(self, n, seed):
        rng = random.Random(f"extremal:{n}:{seed}")
        for r in seeded_relations(n, seed):
            atoms = r.carrier.atoms
            for subset in ([], atoms, *(rng.sample(atoms, k) for k in (1, 3, n // 2))):
                got = rel.extremal(r, subset)
                want = oracles.extremal_oracle(atoms, r.pairs, subset)
                assert got.as_dict() == want


# Each report class beside the frozen dataclass it replaced, and field
# values drawn from a small pool so that two draws are often equal.
REPORT_CLASSES = [
    (rel.PropertyReport, oracles.PropertyReport, st.sampled_from([True, False, 0, 1])),
    (rel.Extremal, oracles.Extremal, st.frozensets(st.sampled_from("ab"))),
    (rel.IndependenceReport, oracles.IndependenceReport, st.booleans()),
]


@st.composite
def report_values(draw, cls, value):
    """Two value lists for cls, the second the first with some fields
    redrawn."""
    names = [f.name for f in dataclasses.fields(cls)]
    first = draw(st.lists(value, min_size=len(names), max_size=len(names)))
    second = [draw(value) if draw(st.booleans()) else v for v in first]
    return names, first, second


@pytest.mark.parametrize(
    "new,old,value", REPORT_CLASSES, ids=[new.__name__ for new, _, _ in REPORT_CLASSES]
)
class TestReportsMatchDataclasses:
    @given(data=st.data())
    def test_construction_repr_hash_and_fields(self, new, old, value, data):
        names, values, _ = data.draw(report_values(old, value))
        by_position, by_keyword = new(*values), new(**dict(zip(names, values)))
        reference = old(*values)
        assert by_position == by_keyword
        assert repr(by_position) == repr(by_keyword) == repr(reference)
        assert hash(by_position) == hash(reference)
        assert by_position.as_dict() == dataclasses.asdict(reference)
        if hasattr(old, "as_dict"):
            assert by_position.as_dict() == reference.as_dict()
        assert list(by_position.as_dict()) == names
        assert new.__match_args__ == old.__match_args__

    @given(data=st.data())
    def test_equality(self, new, old, value, data):
        _, first, second = data.draw(report_values(old, value))
        assert (new(*first) == new(*second)) == (old(*first) == old(*second))
        assert (new(*first) != new(*second)) == (old(*first) != old(*second))
        for other in (old(*first), tuple(first), None):
            assert new(*first) != other and not new(*first) == other

    @given(data=st.data())
    def test_missing_or_unknown_field(self, new, old, value, data):
        names, values, _ = data.draw(report_values(old, value))
        keywords = dict(zip(names, values))
        missing = dict(list(keywords.items())[1:])
        for cls in (new, old):
            for args, kwargs in [
                (values[:-1], {}),
                (values + [values[0]], {}),
                ((), missing),
                ((), {**keywords, "bogus": values[0]}),
                (values[:1], keywords),
            ]:
                with pytest.raises(TypeError):
                    cls(*args, **kwargs)

    @given(data=st.data())
    def test_assignment_and_deletion_refused(self, new, old, value, data):
        names, values, _ = data.draw(report_values(old, value))
        name = data.draw(st.sampled_from(names + ["bogus"]))
        for report in (new(*values), old(*values)):
            with pytest.raises(AttributeError):
                setattr(report, name, values[0])
            if name != "bogus":
                with pytest.raises(AttributeError):
                    delattr(report, name)
            assert [getattr(report, n) for n in names] == values

    @given(data=st.data())
    def test_pickle_and_copy_round_trip(self, new, old, value, data):
        names, values, _ = data.draw(report_values(old, value))
        report = new(*values)
        for twin in (
            pickle.loads(pickle.dumps(report)),
            copy.copy(report),
            copy.deepcopy(report),
        ):
            # Fields, not repr: a set rebuilt from a pickle may iterate in
            # another order when its members' hashes collide.
            assert type(twin) is new and twin == report
            assert [getattr(twin, n) for n in names] == values
