"""settower benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload real_dag --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25

Run from anywhere; the program is imported from ``src/`` next to this
directory.  The run generates the workload's inputs from the seed, times
closed-loop passes over them (one client, one operation at a time, in this
process) until ``--seconds`` have passed, checks every answer against the
independent references, and prints a summary followed by one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` alternates
untraced and traced passes and reports the per-layer metrics instead.
METRICS.md describes both.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import resource
import statistics
import subprocess
import sys
import time
import types
from pathlib import Path

import spans as spanlib
import speed
import workloads

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
SETUP_SAMPLES = 21
TAIL_BEYOND = 10

END_TO_END_UNITS = {
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "ok_ratio": "ratio",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER_UNITS = {
    "reals.query_calls": "count",
    "reals.query_self_s": "s",
    "reals.query_repeat_ratio": "ratio",
    "reals.max_query_prec": "bits",
    "reals.endpoint_bits_max": "bits",
    "reals.nodes_built": "count",
    "dyadic.calls": "count",
    "dyadic.self_s": "s",
    "dyadic.result_bits_max": "bits",
    "dyadic.result_bits_mean": "bits",
    "cli.main_calls": "count",
    "cli.parse_expr_s": "s",
    "cli.evaluate_s": "s",
    "cli.format_s": "s",
    "cli.stdout_bytes_mean": "bytes",
    "cli.uncaught_errors": "count",
    "relations.classify_calls": "count",
    "relations.classify_s": "s",
    "relations.extremal_calls": "count",
    "relations.extremal_s": "s",
    "relations.lub_s": "s",
    "relations.closure_s": "s",
    "relations.parse_s": "s",
    "hfset.constructs": "count",
    "hfset.construct_s": "s",
    "hfset.construct_dup_ratio": "ratio",
    "hfset.compare_calls": "count",
    "hfset.query_s": "s",
    "hfset.is_ordinal_s": "s",
    "hfset.ackermann_code_s": "s",
    "naturals.calls": "count",
    "naturals.self_s": "s",
    "countability.calls": "count",
    "countability.self_s": "s",
    "trace.overhead_ratio": "ratio",
}

# Functions whose time is reported inclusive of their callees, counted once
# per outermost call: metric -> span name.
_INCLUSIVE = {
    "relations.classify_s": "relations.classify",
    "relations.extremal_s": "relations.extremal",
    "relations.lub_s": "relations.lub_property_check",
    "relations.closure_s": "relations.preorder_closure",
    "relations.parse_s": "relations.parse_relation",
    "hfset.construct_s": "hfset.HFSet.__init__",
    "hfset.is_ordinal_s": "hfset.is_ordinal",
    "hfset.ackermann_code_s": "hfset.ackermann_code",
}
# Self time of one function: metric -> span name.
_SELF = {
    "reals.query_self_s": "reals.CutReal.query",
    "cli.parse_expr_s": "cli.parse_expr",
    "cli.evaluate_s": "cli.evaluate",
    "cli.format_s": "cli.main",
}
_BY_SPAN_INCLUSIVE = {name: metric for metric, name in _INCLUSIVE.items()}
_BY_SPAN_SELF = {name: metric for metric, name in _SELF.items()}
_COUNTS = {
    "reals.query_calls": "reals.CutReal.query",
    "reals.nodes_built": "reals.CutReal.__init__",
    "cli.main_calls": "cli.main",
    "relations.classify_calls": "relations.classify",
    "relations.extremal_calls": "relations.extremal",
    "hfset.constructs": "hfset.HFSet.__init__",
    "hfset.compare_calls": "hfset.compare",
}


def import_program(workload: str):
    """Import settower from this checkout's src/ and nowhere else."""
    sys.path.insert(0, str(SRC))
    for name in workloads.MODULES[workload]:
        __import__(name)
    import settower

    origin = Path(settower.__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise RuntimeError(f"settower imported from {origin}, not from {SRC}")
    return types.SimpleNamespace(
        package=settower,
        **{layer: sys.modules[f"settower.{layer}"] for layer in spanlib.LAYERS},
    )


_SETUP_CHILD = (
    "import sys; sys.path.insert(0, sys.argv[1]); import {modules}; "
    "import settower; sys.stdout.write(settower.__file__ + '\\n'); sys.stdout.flush()"
)


def measure_setup(workload: str) -> float:
    """Median time for a fresh interpreter to start and import what the
    workload uses, up to the point where its first operation could run."""
    code = _SETUP_CHILD.format(modules=", ".join(workloads.MODULES[workload]))
    # -S: without the site module, so whatever the environment's
    # site-packages import at start-up stays out of the figure.
    argv = [sys.executable, "-I", "-S", "-c", code, str(SRC)]
    times, probes = [], []
    for i in range(SETUP_SAMPLES + 1):
        probe = statistics.median(speed.probe() for _ in range(3))
        t0 = time.perf_counter_ns()
        with subprocess.Popen(argv, stdout=subprocess.PIPE, text=True) as child:
            line = child.stdout.readline()
            elapsed = time.perf_counter_ns() - t0
            child.stdout.read()
            if child.wait(timeout=60) != 0 or SRC.resolve() not in Path(line.strip()).resolve().parents:
                raise RuntimeError(f"set-up child failed or imported {line.strip()!r}")
        if i:  # the first start also writes the bytecode cache
            times.append(elapsed)
            probes.append(probe)
    return statistics.median(speed.scale(times, probes)) / 1e9


class Pass:
    """Outcomes and latencies of one pass over the inputs, and a digest of
    its transcript: every operation's outcome and rendered answer."""

    def __init__(self):
        self.latency_ns = []
        self.probe_ns = []
        self.outcomes = []
        self.stdout_bytes = []
        self._transcript = hashlib.sha256()

    def record(self, outcome: str, text: str):
        self.outcomes.append(outcome)
        self._transcript.update(f"{outcome}\0{text}\0".encode())

    @property
    def transcript(self) -> bytes:
        return self._transcript.digest()


def run_pass(ops, refused_error, tracer=None, layer_stats=None) -> Pass:
    result = Pass()
    for op in ops:
        result.probe_ns.append(speed.probe())
        if tracer is not None:
            tracer.take()
        t0 = time.perf_counter_ns()
        try:
            got = op.call()
        except refused_error:
            got, outcome, text = None, "refused", "refused"
        except SystemExit as exc:  # argparse usage errors
            got, outcome, text = None, "refused", f"exit {exc.code}"
        except Exception as exc:  # noqa: BLE001 - any other exception escapes
            got, outcome, text = None, "escaped", f"escaped {type(exc).__name__}"
        else:
            outcome = None
        elapsed = time.perf_counter_ns() - t0
        if tracer is not None:
            layer_stats.fold(tracer.take(), op, elapsed)
        if outcome is None:
            if op.cli and got[0] == 1:
                outcome = "refused"
            else:
                outcome = "ok" if _checked(op, got) else "wrong"
            try:
                text = op.render(got)
            except Exception:  # noqa: BLE001 - an answer of the wrong shape
                text, outcome = f"unrenderable {type(got).__name__}", "wrong"
            if op.cli:
                result.stdout_bytes.append(len(got[1].encode()))
        if tracer is not None:
            tracer.take()
            if op.cli and outcome == "escaped":
                layer_stats.uncaught += 1
        result.latency_ns.append(elapsed)
        result.record(outcome, text)
    return result


def _checked(op, got) -> bool:
    try:
        return bool(op.check(got))
    except Exception:  # noqa: BLE001 - malformed output is a wrong answer
        return False


class LayerStats:
    """Per-layer metrics of one traced pass, folded from its spans."""

    def __init__(self, st):
        self.dyadic_type = st.dyadic.Dyadic
        self.calls = {}
        self.metric_ns = dict.fromkeys(list(_INCLUSIVE) + list(_SELF), 0)
        self.layer_calls = dict.fromkeys(spanlib.LAYERS, 0)
        self.layer_self_ns = dict.fromkeys(spanlib.LAYERS, 0)
        self.query_repeats = 0
        self.max_query_prec = 0
        self.endpoint_bits_max = 0
        self.hf_ids = {}
        self.hf_keys = {}
        self.hf_dups = 0
        self.query_phase_ns = 0
        self.uncaught = 0
        self.dyadic_bits_sum = 0
        self.dyadic_results = 0
        self.dyadic_bits_max = 0

    def fold(self, spans, op, elapsed_ns):
        if op.phase == "query":
            self.query_phase_ns += elapsed_ns
        selfs = spanlib.self_times(spans)
        asked = set()
        for i, span in enumerate(spans):
            name, _, start, end, payload = span
            layer = name.partition(".")[0]
            self.calls[name] = self.calls.get(name, 0) + 1
            self.layer_calls[layer] += 1
            self.layer_self_ns[layer] += selfs[i]
            metric = _BY_SPAN_SELF.get(name)
            if metric is not None:
                self.metric_ns[metric] += selfs[i]
            metric = _BY_SPAN_INCLUSIVE.get(name)
            if metric is not None and spanlib.outermost(spans, i):
                self.metric_ns[metric] += end - start
            if payload is None:
                continue
            if name == "reals.CutReal.query":
                (node, n), (lo, hi) = payload
                key = (id(node), n)
                if key in asked:
                    self.query_repeats += 1
                asked.add(key)
                self.max_query_prec = max(self.max_query_prec, n)
                bits = max(lo.man.bit_length(), hi.man.bit_length())
                self.endpoint_bits_max = max(self.endpoint_bits_max, bits)
            elif name == "hfset.HFSet.__init__":
                self._intern(payload[0][0], constructed=True)
            elif isinstance(payload, self.dyadic_type):
                bits = payload.man.bit_length()
                self.dyadic_results += 1
                self.dyadic_bits_sum += bits
                self.dyadic_bits_max = max(self.dyadic_bits_max, bits)

    def _intern(self, hf, constructed=False) -> int:
        """Structural id of a set: equal sets get equal ids."""
        known = self.hf_ids.get(id(hf))
        if known is not None and not constructed:
            return known[1]
        key = tuple(self._intern(e) for e in hf.elements)
        seen = key in self.hf_keys
        if constructed and seen:
            self.hf_dups += 1
        sid = self.hf_keys.setdefault(key, len(self.hf_keys))
        self.hf_ids[id(hf)] = (hf, sid)  # keeps hf alive, so ids stay unique
        return sid

    def metrics(self, time_scale: float) -> dict:
        """Metrics of the pass; times are multiplied by time_scale."""
        seconds = time_scale / 1e9
        calls = self.calls
        out = {metric: calls.get(name, 0) for metric, name in _COUNTS.items()}
        out.update({metric: ns * seconds for metric, ns in self.metric_ns.items()})
        queries = out["reals.query_calls"]
        constructs = out["hfset.constructs"]
        out.update({
            "reals.query_repeat_ratio": self.query_repeats / queries if queries else 0.0,
            "reals.max_query_prec": self.max_query_prec,
            "reals.endpoint_bits_max": self.endpoint_bits_max,
            "dyadic.calls": self.layer_calls["dyadic"],
            "dyadic.self_s": self.layer_self_ns["dyadic"] * seconds,
            "dyadic.result_bits_max": self.dyadic_bits_max,
            "dyadic.result_bits_mean": (
                self.dyadic_bits_sum / self.dyadic_results if self.dyadic_results else 0.0
            ),
            "cli.uncaught_errors": self.uncaught,
            "hfset.construct_dup_ratio": self.hf_dups / constructs if constructs else 0.0,
            "hfset.query_s": self.query_phase_ns * seconds,
            "naturals.calls": self.layer_calls["naturals"],
            "naturals.self_s": self.layer_self_ns["naturals"] * seconds,
            "countability.calls": self.layer_calls["countability"],
            "countability.self_s": self.layer_self_ns["countability"] * seconds,
        })
        return out


def _repeat_passes(seconds, run_one):
    """Call run_one until `seconds` of wall time have passed (at least once)."""
    start = time.perf_counter()
    results = []
    while not results or time.perf_counter() - start < seconds:
        results.append(run_one())
    return results


def _timings(per_input, ok_share):
    latency = sorted(per_input)
    n = len(latency)
    beyond = min(TAIL_BEYOND, n - 1)
    return {
        "ops_per_s": ok_share * n / (sum(latency) / 1e9),
        "latency_p50_ms": statistics.median(latency) / 1e6,
        "latency_tail_ms": latency[n - 1 - beyond] / 1e6,
    }, beyond


def end_to_end(ops, st, seconds, setup_s):
    passes = _repeat_passes(seconds, lambda: run_pass(ops, st.package.SettowerError))
    outcomes = [o for p in passes for o in p.outcomes]
    n = len(ops)
    ok_share = outcomes.count("ok") / len(outcomes)
    # One latency per input, a median over the passes, so a stall during
    # one pass does not become the tail.
    metrics, beyond = _timings(
        speed.per_input([p.latency_ns for p in passes], [p.probe_ns for p in passes]),
        ok_share,
    )
    unscaled, _ = _timings(
        [statistics.median(col) for col in zip(*(p.latency_ns for p in passes))], ok_share
    )
    metrics.update({
        "ok_ratio": ok_share,
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    })
    stable = all(p.transcript == passes[0].transcript for p in passes)
    notes = {
        "passes": len(passes),
        "ops_per_pass": n,
        "outcomes": {k: outcomes.count(k) for k in ("ok", "refused", "escaped", "wrong")},
        "fail_ratio": 1 - ok_share,
        "latency_tail_percentile": 100 * (n - beyond) / n,
        "latency_tail_samples_beyond": beyond,
        "latency_samples": n,
        "transcripts_repeat": stable,
        "wall_clock_unscaled": {k: round(v, 6) for k, v in unscaled.items()},
    }
    return metrics, outcomes, notes, stable


def per_layer(ops, st, seconds):
    refused = st.package.SettowerError
    tracer = spanlib.Tracer()
    untraced, traced, layer_metrics = [], [], []

    def pair_of_passes():
        plain = run_pass(ops, refused)
        stats = LayerStats(st)
        tracer.install()
        try:
            seen = run_pass(ops, refused, tracer=tracer, layer_stats=stats)
        finally:
            tracer.uninstall()
        untraced.append(plain)
        traced.append(seen)
        layer_metrics.append(
            stats.metrics(speed.REFERENCE_NS / statistics.median(seen.probe_ns))
        )

    _repeat_passes(seconds, pair_of_passes)
    identical = all(
        t.transcript == u.transcript and u.transcript == untraced[0].transcript
        for u, t in zip(untraced, traced)
    )
    metrics = {
        name: statistics.median(m[name] for m in layer_metrics) for name in layer_metrics[0]
    }
    stdout_bytes = traced[0].stdout_bytes
    metrics["cli.stdout_bytes_mean"] = (
        sum(stdout_bytes) / len(stdout_bytes) if stdout_bytes else 0.0
    )
    metrics["trace.overhead_ratio"] = statistics.median(
        sum(speed.scale(t.latency_ns, t.probe_ns)) / sum(speed.scale(u.latency_ns, u.probe_ns))
        for u, t in zip(untraced, traced)
    )
    outcomes = [o for p in traced for o in p.outcomes]
    notes = {
        "pairs_of_passes": len(traced),
        "ops_per_pass": len(ops),
        "outcomes": {k: outcomes.count(k) for k in ("ok", "refused", "escaped", "wrong")},
        "traced_stdout_identical": identical,
    }
    return {name: metrics[name] for name in PER_LAYER_UNITS}, outcomes, notes, identical


def run_all(args) -> int:
    """Every workload, each in a fresh interpreter; the last line maps each
    workload to its result."""
    results = {}
    for workload in workloads.GENERATORS:
        argv = [
            sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
        ]
        done = subprocess.run(argv, stdout=subprocess.PIPE, text=True, check=False)
        print(done.stdout, end="", flush=True)
        if done.returncode != 0:
            return done.returncode
        results[workload] = json.loads(done.stdout.splitlines()[-1])
    print(json.dumps(results))
    return 0 if all(r["correct"] for r in results.values()) else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--workload", required=True, choices=[*workloads.GENERATORS, "all"],
        help="one workload, or all of them one after another",
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "settower" / "__init__.py").is_file():
        print(f"error: no settower sources at {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)

    specs = workloads.inputs(args.workload, args.seed)
    setup_s = None if args.trace else measure_setup(args.workload)
    st = import_program(args.workload)
    cache = {}
    ops = [workloads.bind(spec, st, cache) for spec in specs]
    cache.clear()
    # The bench's own inputs and references stay out of the collector's way.
    gc.collect()
    gc.freeze()

    if args.trace:
        metrics, outcomes, notes, consistent = per_layer(ops, st, args.seconds)
        units = PER_LAYER_UNITS
    else:
        metrics, outcomes, notes, consistent = end_to_end(ops, st, args.seconds, setup_s)
        units = END_TO_END_UNITS

    wrong = outcomes.count("wrong")
    print(f"{args.workload} seed={args.seed} trace={args.trace} " + json.dumps(notes))
    for name, value in metrics.items():
        print(f"  {name} = {value:.6g} {units[name]}")
    if not args.trace:
        print(
            f"  fail_ratio = {notes['fail_ratio']:.6g} ratio; latency_tail_ms is "
            f"p{notes['latency_tail_percentile']:.3f} with "
            f"{notes['latency_tail_samples_beyond']} of {notes['latency_samples']} samples beyond"
        )
    result = {
        "correct": wrong == 0 and consistent,
        "attempted": len(outcomes),
        "failed": len(outcomes) - outcomes.count("ok"),
        "metrics": {
            name: {"value": value, "unit": units[name]} for name, value in metrics.items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
