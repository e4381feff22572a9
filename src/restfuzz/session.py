"""The session engine, the one place that runs test cases: ``schedule``
cycles the corpus, and ``run`` runs each case with the caller's
``run_case`` and counts the blocks it adds to the session's coverage.
``fuzz`` writes a session's artifacts; ``distill`` runs the seeds once
and keeps those that add a block, the rule afl-fuzz's queue and afl-cmin
share."""

from __future__ import annotations

import json
import os
import time

from . import mutation as mu
from .coverage import BugDeduplicator, CoverageAccumulator
from .execution import TransportError

EVENTS_CSV = "events.csv"
MUTATION_LOG = "mutations.log"
BUGS_JSON = "bugs.json"
SESSION_JSON = "session.json"
BUG_DIR = "bugs"
CSV_HEADER = "elapsed_s,cumulative_new_blocks,tests_executed,bugs_found"


class NoCases(Exception):
    """A full pass over the corpus made no case (not a ``StopIteration``,
    which a generator turns into a ``RuntimeError``)."""


def schedule(seeds, mutate):
    """Cycle ``seeds`` in order, yielding ``(seed_id, tc, transform, plan)``
    for each ``(tc, transform, plan)`` of ``mutate(seed_id, seed_tc)``;
    a pass that yields nothing raises ``NoCases``."""
    while True:
        made = 0
        for seed_id, seed_tc in seeds:
            for tc, transform, plan in mutate(seed_id, seed_tc):
                made += 1
                yield seed_id, tc, transform, plan
        if not made:
            raise NoCases("a full pass over %d seeds made no case" % len(seeds))


def run(cases, run_case, acc, label, more):
    """While ``more(n)`` holds for the ``n`` cases run so far, draw a case
    and run it as ``run_case(tc, case_id, transform) -> (result,
    bitmap)``; yield ``(n, seed_id, plan, result, new_blocks)``, with
    ``n`` counting this case and the blocks it added to ``acc``.  A lost
    target's ``TransportError`` and the stream's ``NoCases`` propagate."""
    n = 0
    while more(n):
        seed_id, tc, transform, plan = next(cases)
        result, bitmap = run_case(tc, "%s-%06d" % (label, n), transform)
        n += 1
        yield n, seed_id, plan, result, acc.add(bitmap)


def fuzz(cases, run_case, out_dir, settings):
    """Run a session until ``budget_s`` seconds pass or ``max_cases``
    cases ran (0: no cap), writing its artifacts under ``out_dir``, whose
    ``BUG_DIR`` must exist.  ``settings`` heads session.json and names
    those, the ``strategy`` and the coverage width ``block_count``.
    Returns session.json's content, the seconds taken and the error that
    ended the session early, if any; every artifact is written then too."""
    budget_s, cap = settings["budget_s"], settings["max_cases"]
    acc = CoverageAccumulator(settings["block_count"])
    dedup = BugDeduplicator()
    bugs: list[dict] = []
    tests, stopped = 0, None
    t0 = time.monotonic()

    def more(n):
        return time.monotonic() - t0 < budget_s and not (cap and n >= cap)

    with open(os.path.join(out_dir, MUTATION_LOG), "w", encoding="latin-1") as log, open(
        os.path.join(out_dir, EVENTS_CSV), "w", encoding="utf-8"
    ) as events:
        log.write("# seed\tleaf\tcase\trule\tnoise\tstatus\n")
        events.write(CSV_HEADER + "\n")
        try:
            for tests, seed_id, plan, result, _new in run(
                cases, run_case, acc, settings["strategy"], more
            ):
                status = result.statuses[-1] if result.records else 0
                log.write(mu.format_mutation_log(plan, status) + "\n")
                report = dedup.add(result)
                if report is not None:
                    bug_id = "bug-%03d" % len(dedup.reports)
                    transcript = os.path.join(BUG_DIR, bug_id + ".txt")  # session-relative
                    with open(os.path.join(out_dir, transcript), "w", encoding="latin-1") as fh:
                        fh.write(report.transcript)
                    mutation = mu.format_mutation_log(plan).replace("\t", " ")
                    bugs.append({"bug_id": bug_id, "bitmap": report.bitmap.hex(),
                                 "statuses": report.statuses, "seed": seed_id,
                                 "case": report.first_case_id, "mutation": mutation,
                                 "transcript": transcript})
                events.write(
                    "%.3f,%d,%d,%d\n" % (time.monotonic() - t0, acc.count(), tests, len(bugs))
                )
        except (TransportError, NoCases) as exc:
            stopped = exc  # keep the artifacts of the cases already run
    meta = dict(settings, tests_executed=tests, blocks_covered=acc.count(), bugs_found=len(bugs))
    for name, content in ((BUGS_JSON, bugs), (SESSION_JSON, meta)):
        with open(os.path.join(out_dir, name), "w", encoding="utf-8") as fh:
            json.dump(content, fh, indent=2)
            fh.write("\n")
    return meta, time.monotonic() - t0, stopped


def distill(seeds, run_case, width):
    """Run each seed once, unmutated.  Returns the ids of the seeds that
    added coverage, in corpus order, and the blocks all of them cover."""
    acc = CoverageAccumulator(width)
    cases = schedule(seeds, lambda _seed_id, tc: [(tc, None, None)])
    steps = run(cases, run_case, acc, "distill", lambda n: n < len(seeds))
    return [seed_id for _n, seed_id, _plan, _result, new in steps if new], acc.count()
