"""Tests for coverage bitmaps, the session engine's distillation, bug
dedup, and the target's coverage side channels."""

import functools
import itertools
import json
import operator

import numpy as np
import pytest

from restfuzz import coverage as cov
from restfuzz import execution as ex
from restfuzz import session
from restfuzz.execution import ExecutionResult, RequestRecord, http_request, write_transcript
from restfuzz.seedgen import build_case
from restfuzz.target import serve

from .conftest import chain_by_names, peek_coverage, windowed_request


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


def test_bitmap_union():
    a = bm(16, 1, 2)
    b = bm(16, 2, 9)
    u = a | b
    assert u.indices() == [1, 2, 9]
    with pytest.raises(ValueError, match="width mismatch"):
        a | bm(8, 1)


def test_accumulator_counts_new_blocks():
    acc = cov.CoverageAccumulator(16)
    new = [acc.add(bm(16, 1, 2)), acc.add(bm(16, 2, 3)), acc.add(bm(16, 1))]
    assert new == [2, 1, 0]
    assert acc.count() == sum(new) == 3
    with pytest.raises(ValueError, match="width mismatch"):
        acc.add(bm(8, 0))


# ----------------------------------------------------------- distillation
# ``session.distill`` runs each seed through the engine's case loop; a fake
# ``run_case`` answers a "seed" that is its own bitmap with that bitmap.


def distill(entries):
    """Kept (case id, bitmap) entries of ``entries``, by ``session.distill``."""
    width = entries[0][1].width if entries else 8
    kept, blocks = session.distill(entries, lambda tc, _case_id, _transform: (None, tc), width)
    assert blocks == (union(b for _, b in entries).count() if entries else 0)
    by_id = dict(entries)
    return [(k, by_id[k]) for k in kept]


def test_distill_keeps_first_contributor():
    entries = [
        ("a", bm(8, 0, 1)),
        ("b", bm(8, 0, 1)),  # duplicate coverage: dropped
        ("c", bm(8, 2)),
        ("d", bm(8, 1, 2)),  # subset of a|c: dropped
    ]
    kept = distill(entries)
    assert [case_id for case_id, _ in kept] == ["a", "c"]


def test_distill_empty():
    assert distill([]) == []


def test_distill_preserves_union_on_random_corpora():
    rng = np.random.default_rng(0)
    for _ in range(30):
        entries = []
        for i in range(40):
            idx = rng.choice(64, size=rng.integers(1, 6), replace=False)
            entries.append(("c%d" % i, bm(64, *idx)))
        kept = distill(entries)
        assert union(b for _, b in kept) == union(b for _, b in entries)
        assert len(kept) <= len(entries)


def _brute_force_min_cover(entries):
    goal = union(b for _, b in entries)
    for size in range(1, len(entries) + 1):
        for combo in itertools.combinations(entries, size):
            if union(b for _, b in combo) == goal:
                return size
    raise AssertionError("unreachable")


def test_distill_close_to_minimum_on_small_instances():
    rng = np.random.default_rng(1)
    for _ in range(15):
        entries = []
        for i in range(7):
            idx = rng.choice(10, size=rng.integers(1, 4), replace=False)
            entries.append(("c%d" % i, bm(10, *idx)))
        kept = distill(entries)
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
            entries.append(("g%dr%d" % (grp, rep), bm(16, 0, 1 + grp)))
    kept = distill(entries)
    assert len(kept) == 5 == _brute_force_min_cover(entries)
    assert [case_id for case_id, _ in kept] == ["g0r0", "g1r0", "g2r0", "g3r0", "g4r0"]


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
        case_id=case_id, records=records, verdict=verdict
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
    _status, _body, window = windowed_request(target_cfg, "GET", "/api/projects")
    assert window.width == len(blocks)


def test_side_channels_hit_no_blocks():
    # a block left on the bitmap stays there through every side channel but
    # the clear
    srv = serve()
    cfg = ex.TargetConfig(base_url=srv.base_url)
    try:
        srv.registry.hit("projects.list_ok")
        left = peek_coverage(cfg)
        cov.fetch_manifest(cfg)
        ex.reset_target_state(cfg)
        assert peek_coverage(cfg) == left != 0
        cov.reset_coverage(cfg)
        assert peek_coverage(cfg) == 0
    finally:
        cfg.close()
        srv.stop()


def test_fetch_and_reset_clears_the_map(target_cfg):
    status, _, first = windowed_request(target_cfg, "GET", "/api/projects")
    assert status == 200 and first.count() > 0
    assert peek_coverage(target_cfg) == 0  # the window took every block
    assert windowed_request(target_cfg, "GET", "/api/projects")[2] == first


def test_distinct_endpoints_cover_distinct_blocks(target_cfg):
    listing = windowed_request(target_cfg, "GET", "/api/projects")[2]
    creating = windowed_request(target_cfg, "POST", "/api/projects", '{"name":"x"}')[2]
    acc = cov.CoverageAccumulator(listing.width)
    assert acc.add(listing) > 0
    assert acc.add(creating) > 0


def test_coverage_reset_answers_with_the_window_it_cleared():
    srv = serve()
    cfg = ex.TargetConfig(base_url=srv.base_url)
    try:
        srv.registry.hit("projects.list_ok")
        _, peek = http_request(cfg, "GET", "/__coverage__")
        status, cleared = http_request(cfg, "POST", "/__coverage__/reset")
        window = json.loads(peek)
        assert status == 200 and json.loads(cleared) == window
        names = cov.fetch_manifest(cfg)
        bitmap = cov.CoverageBitmap.from_hex(window["block_count"], window["bitmap"])
        assert bitmap.indices() == [names.index("projects.list_ok")]
        assert peek_coverage(cfg) == 0
    finally:
        cfg.close()
        srv.stop()


# ------------------------------------------------------ carried windows


@pytest.fixture
def side_channel_log(monkeypatch):
    """(method, path) of every request sent through ``http_request``."""
    log = []
    send = ex.http_request

    def logged(cfg, method, path):
        log.append((method, path))
        return send(cfg, method, path)

    monkeypatch.setattr(ex, "http_request", logged)
    return log


def test_a_request_rejected_before_routing_carries_its_window(
    ref_grammar, target_cfg, side_channel_log
):
    idx = {name: i for i, name in enumerate(cov.fetch_manifest(target_cfg))}
    chain = chain_by_names(ref_grammar, 2, ("create-project", "create-branch"))
    tc = build_case(ref_grammar, chain, [["testString"], ["master"]])

    def break_second_header(text, i):
        return text.replace("\n", "\nno colon here\n", 1) if i == 1 else text

    del side_channel_log[:]
    result = ex.execute_test_case(
        tc,
        ref_grammar,
        target_cfg,
        request_text_transform=break_second_header,
        per_request_bitmaps=cov.fetch_and_reset_coverage,
    )
    assert result.statuses == [201, 400]
    first, second = (rec.bitmap for rec in result.records)
    assert second.indices() == [idx["http.request_received"], idx["http.header_bad"]]
    assert idx["http.header_bad"] not in first.indices()
    assert side_channel_log == []


def test_another_clients_requests_never_reach_a_case_window(
    ref_grammar, live_target, target_cfg
):
    # a second client's API request, sent before each request of the case,
    # is answered with its own window
    idx = {name: i for i, name in enumerate(cov.fetch_manifest(target_cfg))}
    other = ex.TargetConfig(base_url=live_target.base_url)
    chain = chain_by_names(ref_grammar, 2, ("create-project", "create-branch"))
    tc = build_case(ref_grammar, chain, [["testString"], ["master"]])

    def interleave(text, _i):
        assert http_request(other, "GET", "/api/projects/999")[0] == 404
        return text

    try:
        result = ex.execute_test_case(
            tc,
            ref_grammar,
            target_cfg,
            request_text_transform=interleave,
            per_request_bitmaps=cov.fetch_and_reset_coverage,
        )
    finally:
        other.close()
    assert result.statuses == [201, 201]
    for rec in result.records:
        assert idx["router.project_item"] not in rec.bitmap.indices()
        assert idx["projects.item_missing"] not in rec.bitmap.indices()
