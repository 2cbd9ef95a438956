import re
import sys
import threading

import pytest
from hypothesis import given, strategies as st

from settower import countability as cnt
from settower import dyadic as dy
from settower import hfset as hf
from settower import naturals as nat
from settower import reals
from settower.errors import NotANatural, SizeLimit, Underflow

DIGIT_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()
small = st.integers(min_value=0, max_value=200)
big = st.integers(min_value=0, max_value=10**30)


class TestArithmetic:
    def test_add_zero_is_identity(self):
        for n in range(50):
            assert nat.add(0, n) == n
            assert nat.add(n, 0) == n

    @given(big, big)
    def test_add_commutes(self, m, n):
        assert nat.add(m, n) == nat.add(n, m)

    @given(big, big, big)
    def test_mul_distributes(self, m, n, p):
        assert nat.mul(m, nat.add(n, p)) == nat.add(nat.mul(m, n), nat.mul(m, p))

    @given(small, st.integers(min_value=0, max_value=12))
    def test_pow_matches_repeated_multiplication(self, m, n):
        acc = 1
        for _ in range(n):
            acc *= m
        assert nat.pow(m, n) == acc

    @given(st.integers(min_value=0, max_value=12),
           st.integers(min_value=0, max_value=12),
           st.integers(min_value=0, max_value=12))
    def test_pow_laws(self, m, n, p):
        assert nat.pow(m, n + p) == nat.mul(nat.pow(m, n), nat.pow(m, p))
        assert nat.pow(nat.pow(m, n), p) == nat.pow(m, nat.mul(n, p))

    @given(big, st.integers(min_value=1, max_value=10**9), big)
    def test_add_strictly_monotone(self, m, gap, p):
        n = m + gap
        assert nat.add(m, p) < nat.add(n, p)

    def test_doubles_are_even_and_odds_have_witness(self):
        for n in range(200):
            assert nat.mul(2, n) % 2 == 0
        for m in range(1, 200, 2):
            n = (m - 1) // 2
            assert m == 2 * n + 1

    @given(small, small)
    def test_parity_algebra(self, m, n):
        if m % 2 == n % 2:
            assert (m + n) % 2 == 0
        else:
            assert (m + n) % 2 == 1

    @given(big, big)
    def test_sub_partial_is_the_additive_witness(self, m, extra):
        n = m + extra
        p = nat.sub_partial(m, n)
        assert nat.add(m, p) == n

    def test_sub_partial_underflow(self):
        with pytest.raises(Underflow):
            nat.sub_partial(5, 3)

    @pytest.mark.parametrize("bad", [-1, 1.5, "3", None, True])
    def test_inputs_validated(self, bad):
        with pytest.raises(NotANatural):
            nat.add(bad, 1)


class TestSuccessor:
    def test_is_bijective_onto_positives(self):
        image = {nat.successor(n) for n in range(500)}
        assert image == set(range(1, 501))
        assert 0 not in image

    def test_predecessor_unique(self):
        seen = {}
        for n in range(500):
            s = nat.successor(n)
            assert s not in seen
            seen[s] = n


class TestTriangular:
    def test_base_values(self):
        assert nat.triangular(0) == 0
        assert nat.triangular(3) == 6

    def test_defining_identity_on_prefix(self):
        for m in range(10_000):
            assert 2 * nat.triangular(m) == m * nat.successor(m)


class TestPairing:
    def test_origin(self):
        assert nat.pair(0, 0) == 0

    def test_roundtrip_small_grid(self):
        for p in range(60):
            for q in range(60):
                assert nat.unpair(nat.pair(p, q)) == (p, q)

    @given(big, big)
    def test_roundtrip_large(self, p, q):
        assert nat.unpair(nat.pair(p, q)) == (p, q)

    def test_diagonal_boundaries(self):
        # s(m) is the first code of diagonal m and s(m) - 1 the last of
        # diagonal m - 1, where a square root one off would land wrong.
        ms = list(range(1, 300))
        ms += [(1 << k) + d for k in range(9, 201) for d in (-1, 0, 1)]
        for m in ms:
            assert nat.unpair(nat.triangular(m)) == (m, 0)
            assert nat.unpair(nat.triangular(m) - 1) == (0, m - 1)

    @given(st.integers(min_value=0, max_value=10**18))
    def test_every_code_decodes_and_recodes(self, r):
        p, q = nat.unpair(r)
        assert nat.pair(p, q) == r


class TestRecurse:
    def test_seed_is_index_zero(self):
        g = nat.recurse(0, nat.successor)
        assert g(0) == 0

    def test_successor_recursion_is_identity(self):
        g = nat.recurse(0, nat.successor)
        for n in range(100):
            assert g(n) == n

    @given(small, small)
    def test_addition_recursion(self, m, n):
        g = nat.recurse(m, nat.successor)
        assert g(n) == m + n

    @given(st.integers(min_value=0, max_value=20),
           st.integers(min_value=0, max_value=10))
    def test_power_recursion(self, m, n):
        g = nat.recurse(1, lambda acc: nat.mul(acc, m))
        assert g(n) == m**n

    def test_step_runs_exactly_once_per_index(self):
        calls = []
        g = nat.recurse(0, lambda x: calls.append(x) or x + 1)
        assert g(5) == 5
        assert g(3) == 3
        assert g(7) == 7
        assert len(calls) == 7
        assert g.evaluations() == 7

    def test_concurrent_queries_share_one_evaluation(self):
        counts = []
        lock = threading.Lock()

        def step(x):
            with lock:
                counts.append(x)
            return x + 1

        g = nat.recurse(0, step)
        threads = [
            threading.Thread(target=g, args=(50,)) for _ in range(8)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert sorted(counts) == list(range(50))
        assert g(50) == 50


class TestParse:
    def test_accepts_decimal(self):
        assert nat.parse_nat("42") == 42
        assert nat.parse_nat("  007 ") == 7

    @pytest.mark.parametrize("bad", ["-3", "x", "1.5", "", "\u00b2", "\u0663", "1\uff12"])
    def test_rejects_non_naturals(self, bad):
        # Superscript two, Arabic-Indic three and fullwidth two all pass
        # str.isdigit(), and int() reads the last two; only ASCII is decimal.
        with pytest.raises(NotANatural):
            nat.parse_nat(bad)

    @pytest.mark.skipif(not DIGIT_LIMIT, reason="no int->str digit limit")
    def test_digit_limit(self):
        assert nat.parse_nat("9" * DIGIT_LIMIT) == 10**DIGIT_LIMIT - 1
        for text in ("9" * (DIGIT_LIMIT + 1), "0" * DIGIT_LIMIT + "1"):
            with pytest.raises(SizeLimit):
                nat.parse_nat(text)

    @pytest.mark.skipif(not DIGIT_LIMIT, reason="no int->str digit limit")
    def test_digit_limit_is_read_when_parsing(self):
        # 640 is the lowest limit the interpreter lets anyone set.
        sys.set_int_max_str_digits(640)
        try:
            assert nat.parse_nat("9" * 640) == 10**640 - 1
            with pytest.raises(SizeLimit):
                nat.parse_nat("9" * 641)
        finally:
            sys.set_int_max_str_digits(DIGIT_LIMIT)


class TestOneValidator:
    """Every layer's entry points that take a natural share one check."""

    ENTRY_POINTS = {
        "naturals.add": lambda n: nat.add(n, 1),
        "dyadic.make": lambda n: dy.make(n, 0),
        "dyadic.dy_pow": lambda n: dy.dy_pow(dy.HALF, n),
        "dyadic.div_floor precision": lambda n: dy.div_floor(dy.ONE, dy.ONE, n),
        "reals.CutReal.query": lambda n: reals.from_dyadic(dy.HALF).query(n),
        "reals.inverse n0": lambda n: reals.inverse(reals.ONE_CUT, n),
        "reals.pow_nat": lambda n: reals.pow_nat(reals.ONE_CUT, n),
        "countability.Enumeration.forward": lambda n: cnt.enum_dyadics().forward(n),
        "hfset.nat_to_hf": lambda n: hf.nat_to_hf(n),
    }

    @pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
    @pytest.mark.parametrize("bad", [True, -1, 1.5, "3"], ids=repr)
    def test_rejects_non_naturals(self, entry, bad):
        message = rf"must be a natural number, got {re.escape(repr(bad))}$"
        with pytest.raises(NotANatural, match=message):
            self.ENTRY_POINTS[entry](bad)

    @pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
    def test_accepts_naturals(self, entry):
        for n in (0, 3):
            self.ENTRY_POINTS[entry](n)

    def test_layers_bind_the_naturals_check(self):
        for module in (dy, reals, cnt, hf):
            assert module._nat is nat._nat
