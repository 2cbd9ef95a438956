"""Self-tests of the benchmark: deterministic inputs, checks that reject
planted wrong answers, and tracer counts on tiny inputs.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import reference as ref
import run
import spans
import workloads

HERE = Path(__file__).resolve().parent
st = run.import_program("rel_audit")


def _digest(workload: str, seed: int) -> str:
    return hashlib.sha256(repr(workloads.inputs(workload, seed)).encode()).hexdigest()


# ---------------------------------------------------------------------------
# Inputs


@pytest.mark.parametrize("workload", sorted(workloads.GENERATORS))
def test_same_seed_same_inputs(workload):
    assert workloads.inputs(workload, 7) == workloads.inputs(workload, 7)
    assert workloads.inputs(workload, 7) != workloads.inputs(workload, 8)


def test_inputs_do_not_depend_on_the_process():
    code = (
        "import sys, hashlib; sys.path.insert(0, sys.argv[1]); import workloads; "
        "print(hashlib.sha256(repr(workloads.inputs('rel_audit', 3)).encode()).hexdigest())"
    )
    digests = {
        subprocess.run(
            [sys.executable, "-c", code, str(HERE)],
            env={**os.environ, "PYTHONHASHSEED": hash_seed},
            capture_output=True, text=True, check=True,
        ).stdout.strip()
        for hash_seed in ("1", "2")
    }
    assert digests == {_digest("rel_audit", 3)}


def test_generation_imports_nothing_from_the_program():
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import workloads; "
        "[workloads.inputs(w, 1) for w in workloads.GENERATORS]; "
        "print(any(m.startswith('settower') for m in sys.modules))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code, str(HERE)], capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "False"


# ---------------------------------------------------------------------------
# Checks reject planted wrong answers


def _interval_text(lo: Fraction, hi: Fraction, prec: int) -> str:
    def text(f: Fraction) -> str:
        u = f.denominator.bit_length() - 1
        return ref.canonical_dyadic_text(f.numerator, u) if f else "0"

    return f"[{text(lo)}, {text(hi)}]@{prec}\n"


@pytest.mark.parametrize("prec", [8, 30, 60])
def test_eval_check_rejects_an_interval_shifted_by_one_ulp(prec):
    value = Fraction(1, 3)
    grid = Fraction(1, 2 ** (prec + 1))
    lo = (value // grid) * grid
    hi = lo + grid
    assert ref.check_eval("inv(3)", prec, "plain", 0, _interval_text(lo, hi, prec))
    shift = Fraction(1, 2**prec)
    assert not ref.check_eval("inv(3)", prec, "plain", 0, _interval_text(lo + shift, hi + shift, prec))
    assert not ref.check_eval("inv(3)", prec, "plain", 0, _interval_text(lo - shift, hi - shift, prec))


def test_eval_check_rejects_wide_or_wrong_answers():
    wide = _interval_text(Fraction(0), Fraction(1), 30)
    assert not ref.check_eval("inv(3)", 30, "plain", 0, wide)
    assert ref.check_eval("3/2^40 * 2^40", 30, "plain", 0, "3\n")
    assert not ref.check_eval("3/2^40 * 2^40", 30, "plain", 0, "5\n")
    assert not ref.check_eval("3/2^40 * 2^40", 30, "plain", 1, "")
    good = '{"exact": true, "kind": "dyadic", "value": "3"}\n'
    assert ref.check_eval("3/2^40 * 2^40", 30, "json-lines", 0, good)
    assert not ref.check_eval("3/2^40 * 2^40", 30, "json-lines", 0, good.replace("3", "7"))
    assert ref.check_eval("between(1, 2)", 30, "plain", 0, "3/2^1\n")
    assert not ref.check_eval("between(1, 2)", 30, "plain", 0, "2\n")


def test_cmp_check_rejects_a_contradicted_order():
    assert ref.check_cmp("inv(3)", "inv(5)", 30, "plain", 0, "greater\n")
    assert not ref.check_cmp("inv(3)", "inv(5)", 30, "plain", 0, "less\n")
    assert not ref.check_cmp("inv(3)", "inv(5)", 30, "plain", 2, "indistinguishable\n")
    assert ref.check_cmp("inv(3)^40", "inv(3)^42", 30, "plain", 2, "indistinguishable\n")


def test_malformed_output_counts_as_wrong():
    op = workloads.bind(("eval", "inv(3)", 30, "json-lines"), st, {})
    assert not run._checked(op, (0, "not json\n", ""))
    assert run._checked(op, op.call())


def test_relation_checks_reject_a_flipped_verdict():
    rng = workloads.random.Random(5)
    rel = workloads.chain(rng, 9, weak=True)
    facts = ref.RelationFacts(*rel)
    op = workloads.bind(("relcheck", rel, "plain"), st, {})
    rc, out, err = op.call()
    assert run._checked(op, (rc, out, err))
    planted = out.replace("well-ordering: yes", "well-ordering: no")
    assert planted != out and not run._checked(op, (rc, planted, err))
    assert not ref.check_relcheck(facts, "plain", 0, out.replace("minima:", "maxima:", 1))

    classify = workloads.bind(("classify", rel), st, {})
    report = classify.call()
    assert run._checked(classify, report)
    flipped = st.relations.PropertyReport(**{**report.as_dict(), "directive": not report.directive})
    assert not run._checked(classify, flipped)

    lub = workloads.bind(("lub", rel), st, {})
    assert run._checked(lub, True) and not run._checked(lub, False)


def test_hf_checks_reject_a_wrong_code():
    op = workloads.bind(("construct", 2059), st, {})
    got = op.call()
    assert got[1] is True and run._checked(op, got)
    h, ordinal, code, text, parsed = got
    assert not run._checked(op, (h, ordinal, code + 1, text, parsed))
    assert not run._checked(op, (h, False, code, text, parsed))
    other = workloads.decode(st.hfset, 2058)
    assert not run._checked(op, (other, ordinal, code, text, parsed))
    not_ordinal = workloads.bind(("construct", 2058), st, {})
    assert not_ordinal.call()[1] is False and run._checked(not_ordinal, not_ordinal.call())


def test_every_outcome_is_classified_and_a_failure_does_not_stop_the_pass():
    def boom(exc):
        def call():
            raise exc

        return call

    ops = [
        workloads.Operation(boom(RecursionError()), lambda got: True, repr),
        workloads.Operation(boom(st.package.errors.SizeLimit("x")), lambda got: True, repr),
        workloads.Operation(lambda: 1, lambda got: False, repr),
        workloads.Operation(lambda: 1, lambda got: got == 1, repr),
    ]
    result = run.run_pass(ops, st.package.SettowerError)
    assert result.outcomes == ["escaped", "refused", "wrong", "ok"]


# ---------------------------------------------------------------------------
# Tracer


@pytest.fixture
def tracer():
    t = spans.Tracer()
    t.install()
    try:
        yield t
    finally:
        t.uninstall()


def _names(recorded):
    counts = {}
    for span in recorded:
        counts[span[0]] = counts.get(span[0], 0) + 1
    return counts


def test_tracer_counts_match_hand_counted_calls(tracer):
    tracer.take()
    assert st.naturals.pair(2, 3) == 18
    recorded = tracer.take()
    # pair -> triangular(5); _check is private and not wrapped.
    assert _names(recorded) == {"naturals.pair": 1, "naturals.triangular": 1}
    assert recorded[1][1] == 0 and recorded[0][1] == -1

    st.dyadic.add(st.dyadic.ONE, st.dyadic.HALF)
    # add -> _signed (private) -> make.
    assert _names(tracer.take()) == {"dyadic.add": 1, "dyadic.make": 1}

    st.hfset.kuratowski_pair(st.hfset.EMPTY, st.hfset.EMPTY)
    recorded = tracer.take()
    # {{x, y}, {x}}: three constructions, all inside kuratowski_pair.
    assert _names(recorded) == {"hfset.kuratowski_pair": 1, "hfset.HFSet.__init__": 3}
    assert all(span[1] == 0 for span in recorded[1:])

    # Names bound with `from ... import` in cli are wrapped too.
    st.cli.pair(1, 1)
    assert _names(tracer.take()) == {"naturals.pair": 1, "naturals.triangular": 1}


def test_self_time_excludes_children():
    recorded = [["a", -1, 0, 100, None], ["b", 0, 10, 40, None], ["c", 1, 15, 25, None]]
    assert spans.self_times(recorded) == [70, 20, 10]
    assert spans.outermost(recorded, 2)
    assert not spans.outermost([["a", -1, 0, 9, None], ["a", 0, 1, 2, None]], 1)


def test_layer_stats_of_one_cli_call(tracer):
    op = workloads.bind(("eval", "inv(3) + 1", 30, "plain"), st, {})
    stats = run.LayerStats(st)
    tracer.take()
    op.call()
    stats.fold(tracer.take(), op, 1)
    metrics = stats.metrics(1.0)
    assert metrics["cli.main_calls"] == 1
    assert stats.calls["cli.parse_expr"] == 1 and stats.calls["cli.evaluate"] == 1
    assert metrics["reals.query_calls"] > 0 and metrics["dyadic.calls"] > 0
    assert metrics["reals.max_query_prec"] >= 30
    assert metrics["relations.classify_calls"] == 0 and metrics["hfset.constructs"] == 0


def test_uninstall_restores_every_name():
    before = {
        (module.__name__, name): value
        for module in (st.cli, st.countability, st.dyadic, st.hfset, st.naturals, st.reals, st.relations)
        for name, value in vars(module).items()
    }
    init, query = st.hfset.HFSet.__init__, st.reals.CutReal.query
    limit = sys.getrecursionlimit()
    t = spans.Tracer()
    t.install()
    assert st.cli.classify is not before[("settower.cli", "classify")]
    assert st.cli.classify is st.relations.classify is st.countability.classify
    t.uninstall()
    after = {
        (module.__name__, name): value
        for module in (st.cli, st.countability, st.dyadic, st.hfset, st.naturals, st.reals, st.relations)
        for name, value in vars(module).items()
    }
    assert after == before
    assert st.hfset.HFSet.__init__ is init and st.reals.CutReal.query is query
    assert sys.getrecursionlimit() == limit


def _nested(depth: int) -> str:
    return "(" * depth + "inv(3)" + ")" * depth


def _sum(terms: int) -> str:
    return " + ".join(["inv(3)"] * terms)


def _fails(expr: str) -> bool:
    op = workloads.bind(("eval", expr, 30, "plain"), st, {})
    return run.run_pass([op], st.package.SettowerError).outcomes[0] == "escaped"


@pytest.mark.parametrize("shape", [_nested, _sum])
def test_wrapped_frames_do_not_move_the_recursion_edge(shape):
    # Nesting recurses in the parser, which is not wrapped; a long sum
    # recurses through CutReal.query, which is wrapped at every level.
    lo, hi = 1, 2000
    assert not _fails(shape(lo)) and _fails(shape(hi))
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if not _fails(shape(mid)) else (lo, mid)
    t = spans.Tracer()
    t.install()
    try:
        traced = (_fails(shape(lo)), _fails(shape(hi)))
    finally:
        t.uninstall()
    assert traced == (False, True)


def test_benchmark_json_names_the_metrics_the_run_prints():
    doc = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == run.PER_LAYER_UNITS
    assert [w["name"] for w in doc["workloads"]] == list(workloads.GENERATORS)
