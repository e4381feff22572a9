"""Spans around restfuzz's layer boundaries, recorded from outside.

The program is not edited: a ``Tracer`` swaps module-level callables for
wrappers while it is installed and puts the originals back afterwards.
Each wrapped call appends one span ``[name, start, end, parent, case]``
to an in-memory list; ``case`` is the index of the fuzz case whose
generation (``next`` on the CLI's case stream) opened it.  Only calls
made on the thread that created the tracer are recorded, so the
in-process target's worker threads stay invisible except through the
time they add to client-side spans.

``summarize`` turns one tracer's spans into raw totals; ``layer_metrics``
pools the totals of several traced units into the per-layer metrics
that BENCHMARK.json lists.
"""

from __future__ import annotations

import functools
import socket
import statistics
import threading
import time
from collections import Counter

from restfuzz import autoencoder, cli, coverage, execution, grammar, mutation, parsing, seedgen

# Top-level spans of the fuzz loop, one of each per case; whatever the
# loop spends outside them is bookkeeping.
LOOP_SPANS = (
    "cli.case_gen",
    "execution.reset_state",
    "coverage.reset",
    "execution.execute",
)


class Tracer:
    """Records spans and outcome counts for one traced unit of work
    (one setup, one fuzz session or one training call)."""

    def __init__(self):
        self.spans: list[list] = []
        self.case = -1
        self.connections = 0
        self.results = []  # ExecutionResults handed back to the fuzz loop
        self.perturbs = []  # PerturbResults
        self.plans: list[tuple[str, int]] = []  # (seed id, plans made)
        self._stack: list[int] = []
        self._thread = threading.get_ident()
        self._undo: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _mine(self) -> bool:
        return threading.get_ident() == self._thread

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, self.case])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def _span(self, name, fn, on_result=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self._mine():
                return fn(*args, **kwargs)
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if on_result is not None:
                on_result(args, result)
            return result

        return traced

    def _stream(self, factory):
        """Wrap a case-stream generator factory: every ``next`` starts a
        new case and is timed as ``cli.case_gen``."""

        @functools.wraps(factory)
        def traced_factory(*args, **kwargs):
            inner = factory(*args, **kwargs)

            def cases():
                while True:
                    self.case += 1
                    idx = self._open("cli.case_gen")
                    try:
                        item = next(inner)
                    finally:
                        self._close(idx)
                    yield item

            return cases()

        return traced_factory

    def _count_connection(self, fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            if self._mine():
                self.connections += 1
            return fn(*args, **kwargs)

        return counted

    # -- installation ------------------------------------------------------

    def _patch(self, owner, attr, make):
        original = owner.__dict__[attr]
        self._undo.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def install(self) -> None:
        def spans(name, on_result=None):
            return lambda fn: self._span(name, fn, on_result)

        def classmethod_span(name):
            return lambda cm: classmethod(self._span(name, cm.__func__))

        keep_result = lambda _args, result: self.results.append(result)  # noqa: E731
        keep_perturb = lambda _args, result: self.perturbs.append(result)  # noqa: E731
        keep_plans = lambda args, result: self.plans.append((args[3], len(result)))  # noqa: E731

        table = [
            (cli, "execute_test_case", spans("execution.execute", keep_result)),
            (execution, "execute_test_case", spans("execution.execute")),
            (cli, "fetch_and_reset_coverage", spans("coverage.fetch_reset")),
            (cli, "reset_coverage", spans("coverage.reset")),
            (coverage, "reset_coverage", spans("coverage.reset")),
            (cli, "reset_target_state", spans("execution.reset_state")),
            (execution, "http_request", spans("execution.http_request")),
            (execution, "request_wire", spans("execution.request_wire")),
            (mutation, "perturb_and_select", spans("mutation.perturb", keep_perturb)),
            (mutation, "plan_learned_mutations", spans("mutation.plan", keep_plans)),
            (mutation, "apply_plan", spans("mutation.apply_plan")),
            (mutation, "encode", spans("autoencoder.encode")),
            (mutation, "decode", spans("autoencoder.decode")),
            (autoencoder, "train", spans("autoencoder.train")),
            (autoencoder, "_forward_backward", spans("autoencoder.forward_backward")),
            (autoencoder, "_prepare_batch", spans("autoencoder.batch_prep")),
            (autoencoder._Adam, "step", spans("autoencoder.adam")),
            (parsing.TestCase, "from_sequence", classmethod_span("parsing.from_sequence")),
            (cli, "load_grammar", spans("grammar.load")),
            (grammar, "load_grammar", spans("grammar.load")),
            (cli, "load_corpus", spans("parsing.load_corpus")),
            (seedgen, "load_corpus", spans("parsing.load_corpus")),
            (seedgen, "generate_seeds", spans("seedgen.generate")),
            (socket, "create_connection", self._count_connection),
        ]
        for name in ("_byte_case_stream", "_tree_case_stream", "_learned_case_stream"):
            table.append((cli, name, self._stream))
        for owner, attr, make in table:
            self._patch(owner, attr, make)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()


# -- analysis ---------------------------------------------------------------


def _self_times(spans) -> list[float]:
    """Each span's duration minus the time its direct children cover
    (children of one span never overlap: there is one client thread)."""
    own = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            own[s[3]] -= s[2] - s[1]
    return own


def summarize(tracer: Tracer, wall_s: float) -> dict:
    """Raw totals of one traced unit and its per-case times."""
    spans = tracer.spans
    own = _self_times(spans)
    t = Counter()
    t["units"] = 1
    t["wall_s"] = wall_s
    t["connections"] = tracer.connections
    case_start: dict[int, float] = {}
    case_end: dict[int, float] = {}
    for i, (name, start, end, parent, case) in enumerate(spans):
        dur = end - start
        t[name + ".n"] += 1
        t[name + ".s"] += dur
        if parent < 0:
            t["top_s"] += dur
            if name == "coverage.reset":
                t["coverage.reset.top_s"] += dur
            if case >= 0 and name in LOOP_SPANS:
                t["loop_spans_s"] += dur
                case_start[case] = min(case_start.get(case, start), start)
                case_end[case] = max(case_end.get(case, end), end)
        if name == "execution.execute":
            t["execute_self_s"] += own[i]
    t["cases"] = len(case_start)
    if case_start:
        t["loop_s"] = max(case_end.values()) - min(case_start.values())
    case_ms = [1000.0 * (case_end[c] - case_start[c]) for c in case_start]

    seen = 0
    for result in tracer.results:
        t["requests"] += len(result.records)
        t["verdict." + result.verdict] += 1
        for rec in result.records:
            t["status.%sxx" % (rec.status // 100) if rec.status else "status.000"] += 1
        mask = 0
        for rec in result.records:
            if rec.bitmap is not None:
                mask |= int.from_bytes(rec.bitmap.bits, "little")
        if mask & ~seen:
            t["new_coverage_cases"] += 1
        seen |= mask
    for pr in tracer.perturbs:
        t["perturb_differs"] += int(pr.differs)
        t["scale_exponent_sum"] += pr.scale_exponent
    t["plans"] = sum(n for _, n in tracer.plans)
    t["seeds_visited"] = len({seed for seed, _ in tracer.plans})
    return {"totals": t, "case_ms": case_ms}


def _p50_p99(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return 0.0, 0.0
    q = statistics.quantiles(values, n=100, method="inclusive")
    return q[49], q[98]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(sessions: list[dict], setups: list[dict], extra: dict) -> dict[str, float]:
    """Per-layer metrics from summaries of traced sessions and setups.

    Times and counts named ``*_s`` / ``*_calls`` are per session (one
    fixed-size fuzz session or one fixed-step training call), setup
    figures are per setup, ``*_ms`` are means per call, and shares and
    ``*_per_*`` ratios pool every traced session.  ``extra`` supplies
    what the spans cannot see (faults, reports, reconstruction,
    overhead)."""
    s = Counter()
    for unit in sessions:
        s.update(unit["totals"])
    u = Counter()
    for unit in setups:
        u.update(unit["totals"])
    both = s + u
    n = max(s["units"], 1)
    n_setup = max(u["units"], 1)
    cases = s["cases"]
    requests = s["requests"]
    case_p50, case_p99 = _p50_p99([ms for unit in sessions for ms in unit["case_ms"]])
    side_s = s["coverage.fetch_reset.s"] + s["coverage.reset.top_s"] + s["execution.reset_state.s"]

    def per_call_ms(name, pool=both):
        return 1000.0 * _ratio(pool[name + ".s"], pool[name + ".n"])

    return {
        "coverage.fetch_reset_calls": s["coverage.fetch_reset.n"] / n,
        "coverage.fetch_reset_s": s["coverage.fetch_reset.s"] / n,
        "coverage.reset_s": s["coverage.reset.top_s"] / n,
        "coverage.side_channel_requests_per_case": _ratio(s["execution.http_request.n"], cases),
        "coverage.side_channel_share": _ratio(side_s, s["wall_s"]),
        "coverage.new_coverage_share": _ratio(s["new_coverage_cases"], cases),
        "coverage.blocks_covered": extra["blocks_covered"],
        "coverage.faults_found": extra["faults_found"],
        "coverage.reports_per_fault": _ratio(extra["reports"], extra["faults_found"]),
        "execution.requests_per_case": _ratio(requests, cases),
        "execution.connections_per_case": _ratio(s["connections"], cases),
        "execution.execute_self_s": s["execute_self_s"] / n,
        "execution.request_wire_s": s["execution.request_wire.s"] / n,
        "execution.reset_state_s": s["execution.reset_state.s"] / n,
        "execution.transport_errors": s["verdict.transport_error"] / n,
        "execution.status_2xx_share": _ratio(s["status.2xx"], requests),
        "execution.status_4xx_share": _ratio(s["status.4xx"], requests),
        "execution.status_5xx_share": _ratio(s["status.5xx"], requests),
        "execution.status_000_share": _ratio(s["status.000"], requests),
        "mutation.perturb_calls": s["mutation.perturb.n"] / n,
        "mutation.perturb_s": s["mutation.perturb.s"] / n,
        "mutation.perturb_differs_share": _ratio(s["perturb_differs"], s["mutation.perturb.n"]),
        "mutation.scale_exponent_mean": _ratio(s["scale_exponent_sum"], s["mutation.perturb.n"]),
        "mutation.plans_per_perturb": _ratio(s["plans"], s["mutation.plan.n"]),
        "mutation.plan_s": s["mutation.plan.s"] / n,
        "mutation.apply_plan_s": s["mutation.apply_plan.s"] / n,
        "mutation.seeds_visited": s["seeds_visited"] / n,
        "autoencoder.encode_calls": s["autoencoder.encode.n"] / n,
        "autoencoder.encode_ms": per_call_ms("autoencoder.encode", s),
        "autoencoder.decode_calls": s["autoencoder.decode.n"] / n,
        "autoencoder.decode_ms": per_call_ms("autoencoder.decode", s),
        "autoencoder.reconstruction": extra["reconstruction"],
        "autoencoder.forward_backward_ms": per_call_ms("autoencoder.forward_backward"),
        "autoencoder.adam_ms": per_call_ms("autoencoder.adam"),
        "autoencoder.batch_prep_ms": per_call_ms("autoencoder.batch_prep"),
        "autoencoder.train_s": u["autoencoder.train.s"] / n_setup,
        "parsing.from_sequence_calls": s["parsing.from_sequence.n"] / n,
        "parsing.from_sequence_s": s["parsing.from_sequence.s"] / n,
        "parsing.load_corpus_s": _ratio(both["parsing.load_corpus.s"], both["parsing.load_corpus.n"]),
        "grammar.load_s": u["grammar.load.s"] / n_setup,
        "seedgen.generate_s": u["seedgen.generate.s"] / n_setup,
        "seedgen.validate_cases": u["execution.execute.n"] / n_setup,
        "seedgen.seeds_kept": extra["seeds_kept"],
        "cli.case_gen_s": s["cli.case_gen.s"] / n,
        "cli.loop_self_s": (s["loop_s"] - s["loop_spans_s"]) / n,
        "cli.case_ms_p50": case_p50,
        "cli.case_ms_p99": case_p99,
        "trace.overhead_share": extra["overhead_share"],
        "trace.uncovered_share": _ratio(s["wall_s"] - s["top_s"], s["wall_s"]),
    }


def spans_record(tracer: Tracer) -> list[list]:
    """Spans as JSON-ready rows, times relative to the unit's first span."""
    if not tracer.spans:
        return []
    t0 = tracer.spans[0][1]
    return [
        [name, round(start - t0, 7), round(end - t0, 7), parent, case]
        for name, start, end, parent, case in tracer.spans
    ]
