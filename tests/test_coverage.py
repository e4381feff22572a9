"""Tests for coverage bitmaps, distillation, bug dedup, and the
target's coverage side channels."""

import functools
import itertools
import json
import operator

import numpy as np
import pytest

from restfuzz import coverage as cov
from restfuzz import execution as ex
from restfuzz.execution import ExecutionResult, RequestRecord, http_request, write_transcript
from restfuzz.seedgen import build_case, load_corpus

from .conftest import chain_by_names


def bm(width, *indices):
    buf = bytearray((width + 7) // 8)
    for i in indices:
        buf[i // 8] |= 1 << (i % 8)
    return cov.CoverageBitmap(width, bytes(buf))


def union(bitmaps):
    return functools.reduce(operator.or_, bitmaps)


# --------------------------------------------------------------- bitmaps


def test_bitmap_round_trips():
    b = bm(20, 0, 7, 8, 19)
    assert b.indices() == [0, 7, 8, 19]
    assert b.count() == 4
    assert cov.CoverageBitmap.from_hex(20, b.hex()) == b
    assert cov.CoverageBitmap.empty(20).count() == 0
    assert cov.CoverageBitmap.empty(20).indices() == []


def test_bitmap_width_padding():
    # width 10 needs 2 bytes even though only 10 bits are meaningful
    assert len(cov.CoverageBitmap.empty(10).bits) == 2
    with pytest.raises(ValueError, match="bytes"):
        cov.CoverageBitmap(width=10, bits=b"\x00")


def test_bitmap_from_hex_rejects_bits_beyond_width():
    # 66 blocks fill 9 bytes; the 6 high bits of the last one must be clear
    assert cov.CoverageBitmap.from_hex(66, "ff" * 8 + "03").count() == 66
    with pytest.raises(ValueError, match="beyond width 66"):
        cov.CoverageBitmap.from_hex(66, "ff" * 9)


def test_bitmap_union_and_new_versus():
    a = bm(16, 1, 2)
    b = bm(16, 2, 9)
    u = a | b
    assert u.indices() == [1, 2, 9]
    assert a.union(b) == u
    assert b.new_versus(a) == 1  # only bit 9 is new
    assert a.new_versus(u) == 0
    with pytest.raises(ValueError, match="width mismatch"):
        a.union(bm(8, 1))


def test_accumulator_counts_new_blocks():
    acc = cov.CoverageAccumulator(16)
    new = [acc.add(bm(16, 1, 2)), acc.add(bm(16, 2, 3)), acc.add(bm(16, 1))]
    assert new == [2, 1, 0]
    assert acc.count() == sum(new) == 3
    assert not acc.is_new_path(bm(16, 1, 2, 3))  # so the union is {1, 2, 3}
    assert acc.is_new_path(bm(16, 9))
    assert not acc.is_new_path(bm(16, 1, 3))
    with pytest.raises(ValueError, match="width mismatch"):
        acc.add(bm(8, 0))


# ----------------------------------------------------------- distillation


def entry(case_id, bitmap):
    return cov.CorpusEntry(case_id=case_id, bitmap=bitmap)


def test_distill_keeps_first_contributor():
    entries = [
        entry("a", bm(8, 0, 1)),
        entry("b", bm(8, 0, 1)),  # duplicate coverage: dropped
        entry("c", bm(8, 2)),
        entry("d", bm(8, 1, 2)),  # subset of a|c: dropped
    ]
    kept = cov.distill(entries)
    assert [e.case_id for e in kept] == ["a", "c"]


def test_distill_empty():
    assert cov.distill([]) == []


def test_distill_preserves_union_on_random_corpora():
    rng = np.random.default_rng(0)
    for _ in range(30):
        entries = []
        for i in range(40):
            idx = rng.choice(64, size=rng.integers(1, 6), replace=False)
            entries.append(entry("c%d" % i, bm(64, *idx)))
        kept = cov.distill(entries)
        assert union(e.bitmap for e in kept) == union(e.bitmap for e in entries)
        assert len(kept) <= len(entries)


def _brute_force_min_cover(entries):
    goal = union(e.bitmap for e in entries)
    for size in range(1, len(entries) + 1):
        for combo in itertools.combinations(entries, size):
            if union(e.bitmap for e in combo) == goal:
                return size
    raise AssertionError("unreachable")


def test_distill_close_to_minimum_on_small_instances():
    rng = np.random.default_rng(1)
    for _ in range(15):
        entries = []
        for i in range(7):
            idx = rng.choice(10, size=rng.integers(1, 4), replace=False)
            entries.append(entry("c%d" % i, bm(10, *idx)))
        kept = cov.distill(entries)
        minimum = _brute_force_min_cover(entries)
        assert len(kept) >= minimum
        # classic greedy set-cover bound: ln(n) factor; tiny widths stay close
        assert len(kept) <= minimum + 3


def test_distill_exactly_minimal_on_disjoint_groups():
    # one shared block plus disjoint per-group blocks: greedy must match
    # the optimum of one entry per group
    entries = []
    for grp in range(5):
        for rep in range(4):
            entries.append(entry("g%dr%d" % (grp, rep), bm(16, 0, 1 + grp)))
    kept = cov.distill(entries)
    assert len(kept) == 5 == _brute_force_min_cover(entries)
    assert [e.case_id for e in kept] == ["g0r0", "g1r0", "g2r0", "g3r0", "g4r0"]


# ------------------------------------------------------------ bug dedup


def _result(verdict, crash_window, case_id, statuses=(201, 500), earlier_window=None):
    """An execution result whose 500 request carries ``crash_window``
    and whose other requests carry ``earlier_window``."""
    records = [
        RequestRecord(
            request_text="GET /%s/%d HTTP/1.1" % (case_id, i),
            status=status,
            reason="",
            response_body="",
            latency_s=0.0,
            bitmap=crash_window if status == 500 else earlier_window,
        )
        for i, status in enumerate(statuses)
    ]
    return ExecutionResult(
        case_id=case_id, records=records, resolved_bindings={}, verdict=verdict
    )


def test_dedup_bugs_buckets_by_bitmap():
    b1, b2 = bm(8, 1), bm(8, 2)
    first = _result("bug_500", b1, "first")
    dedup = cov.BugDeduplicator()
    opened = [
        dedup.add(r)
        for r in (
            first,
            _result("pass", bm(8, 3), "ok", statuses=(201,)),
            _result("bug_500", b1, "again"),
            _result("bug_500", b2, "other"),
            _result("transport_error", None, "dead", statuses=(0,)),
        )
    ]
    reports = dedup.reports
    assert opened == [reports[0], None, None, reports[1], None]
    assert [(r.first_case_id, r.count) for r in reports] == [("first", 2), ("other", 1)]
    assert reports[0].transcript == write_transcript(first)
    assert reports[0].bitmap == b1 and reports[1].bitmap == b2
    assert reports[0].statuses == [201, 500]


def test_dedup_bugs_requires_bitmap_on_bugs():
    with pytest.raises(ValueError, match="no bitmap"):
        cov.BugDeduplicator().add(_result("bug_500", None, "x"))


def test_dedup_bugs_keys_on_the_crash_window_only():
    crash = bm(8, 5)
    dedup = cov.BugDeduplicator()
    dedup.add(_result("bug_500", crash, "a", earlier_window=bm(8, 0)))
    dedup.add(_result("bug_500", crash, "b", earlier_window=bm(8, 1)))
    assert [(r.first_case_id, r.count) for r in dedup.reports] == [("a", 2)]
    dedup.add(_result("bug_500", bm(8, 6), "c", earlier_window=bm(8, 0)))
    assert [(r.first_case_id, r.count) for r in dedup.reports] == [("a", 2), ("c", 1)]


# --------------------------------------------------------- side channels


def test_manifest_lists_declared_blocks(target_cfg):
    blocks = cov.fetch_manifest(target_cfg)
    assert len(blocks) == len(set(blocks))
    assert all(isinstance(b, str) and b for b in blocks)
    bmp = cov.fetch_and_reset_coverage(target_cfg)
    assert bmp.width == len(blocks)


def test_side_channels_hit_no_blocks(target_cfg):
    cov.reset_coverage(target_cfg)
    cov.fetch_manifest(target_cfg)
    cov.reset_coverage(target_cfg)
    assert cov.fetch_and_reset_coverage(target_cfg).count() == 0


def test_fetch_and_reset_clears_the_map(target_cfg):
    cov.reset_coverage(target_cfg)
    status, _ = http_request(target_cfg, "GET", "/api/projects")
    assert status == 200
    first = cov.fetch_and_reset_coverage(target_cfg)
    assert first.count() > 0
    assert cov.fetch_and_reset_coverage(target_cfg).count() == 0


def test_distinct_endpoints_cover_distinct_blocks(target_cfg):
    cov.reset_coverage(target_cfg)
    http_request(target_cfg, "GET", "/api/projects")
    listing = cov.fetch_and_reset_coverage(target_cfg)
    http_request(target_cfg, "POST", "/api/projects", body='{"name":"x"}')
    creating = cov.fetch_and_reset_coverage(target_cfg)
    assert creating.new_versus(listing) > 0
    acc = cov.CoverageAccumulator(listing.width)
    assert acc.add(listing) > 0
    assert acc.add(creating) > 0


def test_coverage_reset_answers_with_the_window_it_cleared(target_cfg):
    cov.reset_coverage(target_cfg)
    http_request(target_cfg, "GET", "/api/projects")
    _, peek = http_request(target_cfg, "GET", "/__coverage__")
    status, cleared = http_request(target_cfg, "POST", "/__coverage__/reset")
    window = json.loads(peek)
    assert status == 200 and json.loads(cleared) == window
    assert cov.CoverageBitmap.from_hex(window["block_count"], window["bitmap"]).count() > 0
    assert cov.fetch_and_reset_coverage(target_cfg).count() == 0


# ------------------------------------------------------ carried windows

RESET = ("POST", cov.COVERAGE_RESET_PATH)


@pytest.fixture
def side_channel_log(monkeypatch):
    """(method, path) of every request sent through ``http_request``."""
    log = []
    send = ex.http_request

    def logged(cfg, method, path, body=None):
        log.append((method, path))
        return send(cfg, method, path, body)

    monkeypatch.setattr(ex, "http_request", logged)
    return log


def _run_windowed(tc, g, cfg, log, transform=None):
    """Reset the target, then run ``tc`` with one coverage window per
    answered request; returns the result and the side-channel requests
    the case sent."""
    ex.reset_target_state(cfg)
    cov.reset_coverage(cfg)
    del log[:]
    result = ex.execute_test_case(
        tc,
        g,
        cfg,
        request_text_transform=transform,
        per_request_bitmaps=cov.fetch_and_reset_coverage,
    )
    return result, list(log)


def test_carried_windows_equal_side_channel_windows_on_every_seed(
    ref_grammar, target_cfg, validated_corpus_dir, side_channel_log, monkeypatch
):
    corpus = [tc for _, tc in load_corpus(validated_corpus_dir, ref_grammar)]
    carried = [_run_windowed(tc, ref_grammar, target_cfg, side_channel_log) for tc in corpus]
    wire = ex.request_wire  # the same runs with no window asked for
    monkeypatch.setattr(ex, "request_wire", lambda text, host, coverage_window=False: wire(text, host))
    read = [_run_windowed(tc, ref_grammar, target_cfg, side_channel_log) for tc in corpus]
    assert len(corpus) == 14
    for (c, c_log), (r, r_log) in zip(carried, read):
        assert c.statuses == r.statuses
        assert [rec.bitmap for rec in c.records] == [rec.bitmap for rec in r.records]
        assert all(rec.bitmap.count() > 0 for rec in c.records)
        assert c_log == []
        assert r_log == [RESET] * len(r.records)


def test_a_request_rejected_before_routing_is_read_on_the_side_channel(
    ref_grammar, target_cfg, side_channel_log
):
    idx = {name: i for i, name in enumerate(cov.fetch_manifest(target_cfg))}
    chain = chain_by_names(ref_grammar, 2, ("create-project", "create-branch"))
    tc = build_case(ref_grammar, chain, [["testString"], ["master"]])

    def break_second_header(text, i):
        return text.replace("\n", "\nno colon here\n", 1) if i == 1 else text

    result, log = _run_windowed(tc, ref_grammar, target_cfg, side_channel_log, break_second_header)
    assert result.statuses == [201, 400]
    first, second = (rec.bitmap for rec in result.records)
    assert idx["http.header_bad"] in second.indices()
    assert idx["http.header_bad"] not in first.indices()
    assert idx["projects.created"] not in second.indices()
    assert log == [RESET]
