"""End-to-end tests for the command-line front end, driven in-process
through ``main(argv)`` against the live reference service."""

import json
import os
import re
import socket
import time

import numpy as np
import pytest

from restfuzz import cli
from restfuzz.execution import execute_test_case, reset_target_state, write_transcript
from restfuzz.seedgen import build_case, load_corpus
from restfuzz.target import serve

from .conftest import TESTS_DIR, chain_by_names

DEAD_URL = "http://127.0.0.1:9"  # discard port; nothing listens there
# names the benchmark's tracer and case counter patch in ``cli``; the
# fuzz loop must keep calling them through the module's globals
BENCHMARK_HOOKS = (
    "execute_test_case",
    "fetch_and_reset_coverage",
    "reset_coverage",
    "reset_target_state",
    "load_grammar",
    "load_corpus",
    "_byte_case_stream",
    "_tree_case_stream",
    "_learned_case_stream",
)


# ----------------------------------------------------------- config file


def test_load_config_parses_and_validates(tmp_path):
    path = tmp_path / "fuzz.cfg"
    path.write_text(
        "# comment\n"
        "\n"
        "target.base_url = http://127.0.0.1:1234\n"
        "fuzz.strategy=tree\n"
        "seeds.max_len = 3\n"
    )
    cfg = cli.load_config(str(path))
    assert cfg == {
        "target.base_url": "http://127.0.0.1:1234",
        "fuzz.strategy": "tree",
        "seeds.max_len": "3",
    }
    assert cli.load_config(None) == {}


def test_load_config_rejects_bad_input(tmp_path):
    missing = tmp_path / "nope.cfg"
    with pytest.raises(cli.CliError, match="not found"):
        cli.load_config(str(missing))
    bad_key = tmp_path / "bad_key.cfg"
    bad_key.write_text("fuzz.warp_factor=9\n")
    with pytest.raises(cli.CliError, match="unknown config key"):
        cli.load_config(str(bad_key))
    bad_line = tmp_path / "bad_line.cfg"
    bad_line.write_text("just words\n")
    with pytest.raises(cli.CliError, match="key=value"):
        cli.load_config(str(bad_line))


def test_readme_config_example_loads(tmp_path):
    with open(os.path.join(os.path.dirname(TESTS_DIR), "README.md"), encoding="utf-8") as fh:
        block = fh.read().split("```ini\n", 1)[1].split("```", 1)[0]
    path = tmp_path / "fuzz.cfg"
    path.write_text(block)
    cfg = cli.load_config(str(path))
    assert cfg["target.base_url"] == "http://127.0.0.1:8642"
    assert cfg["fuzz.strategy"] == "learned"


def test_get_precedence_and_casts():
    cfg = {"fuzz.n_scales": "6", "seeds.validate": "off", "fuzz.budget_s": "oops"}
    assert cli._get(cfg, 9, "fuzz.n_scales", 8, int) == 9  # flag wins
    assert cli._get(cfg, None, "fuzz.n_scales", 8, int) == 6  # then config
    assert cli._get(cfg, None, "fuzz.rng_seed", 8, int) == 8  # then default
    assert cli._get(cfg, None, "seeds.validate", True, bool) is False
    assert cli._get({"seeds.validate": "Yes"}, None, "seeds.validate", False, bool)
    with pytest.raises(cli.CliError, match="not a boolean"):
        cli._get({"seeds.validate": "maybe"}, None, "seeds.validate", True, bool)
    with pytest.raises(cli.CliError, match="fuzz.budget_s"):
        cli._get(cfg, None, "fuzz.budget_s", 1.0, float)


# ------------------------------------------------------ pipeline fixture


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory, live_target):
    """Seed corpus + trained checkpoint shared by the command tests."""
    base = tmp_path_factory.mktemp("cli")
    seeds_dir = str(base / "seeds")
    checkpoint = str(base / "model.npz")
    assert (
        cli.main(
            [
                "seeds",
                "--target",
                live_target.base_url,
                "--seeds-dir",
                seeds_dir,
                "--max-len",
                "3",
                "--dict-values",
                "2",
            ]
        )
        == 0
    )
    assert (
        cli.main(
            [
                "train",
                "--seeds-dir",
                seeds_dir,
                "--checkpoint",
                checkpoint,
                "--steps",
                "300",
                "--batch-size",
                "4",
                "--hidden-dim",
                "48",
                "--embedding-dim",
                "24",
                "--max-seq-len",
                "96",
                "--seed",
                "3",
            ]
        )
        == 0
    )
    return {"base": base, "seeds_dir": seeds_dir, "checkpoint": checkpoint}


def _fuzz(pipeline, live_target, strategy, out, extra=()):
    return cli.main(
        [
            "fuzz",
            "--target",
            live_target.base_url,
            "--seeds-dir",
            pipeline["seeds_dir"],
            "--strategy",
            strategy,
            "--budget",
            "60",
            "--max-cases",
            "60",
            "--seed",
            "1",
            "--checkpoint",
            pipeline["checkpoint"],
            "--out",
            out,
            *extra,
        ]
    )


# ------------------------------------------------------------- commands


def test_seeds_command_writes_validated_corpus(pipeline):
    names = sorted(os.listdir(pipeline["seeds_dir"]))
    assert "index.txt" in names
    assert len([n for n in names if n.endswith(".txt") and n != "index.txt"]) == 14


def test_seeds_no_validate_skips_target(tmp_path):
    out = str(tmp_path / "raw")
    rc = cli.main(
        [
            "seeds",
            "--target",
            DEAD_URL,
            "--no-validate",
            "--seeds-dir",
            out,
            "--max-len",
            "1",
            "--dict-values",
            "2",
        ]
    )
    assert rc == 0
    assert len(os.listdir(out)) == 3  # two seeds + index


def test_seeds_validation_needs_target(tmp_path, capsys):
    rc = cli.main(
        [
            "seeds",
            "--target",
            DEAD_URL,
            "--seeds-dir",
            str(tmp_path / "x"),
            "--max-len",
            "1",
        ]
    )
    assert rc == 1
    assert "--no-validate" in capsys.readouterr().err


def test_train_rejects_tight_max_seq_len(pipeline, capsys):
    rc = cli.main(
        [
            "train",
            "--seeds-dir",
            pipeline["seeds_dir"],
            "--checkpoint",
            str(pipeline["base"] / "ignored.npz"),
            "--steps",
            "1",
            "--max-seq-len",
            "4",
        ]
    )
    assert rc == 1
    assert "max_seq_len" in capsys.readouterr().err


def test_train_accepts_max_seq_len_equal_to_longest_seed(pipeline, ref_grammar, capsys):
    seeds = load_corpus(pipeline["seeds_dir"], ref_grammar)
    longest = max(len(tc.seq.tokens) for _, tc in seeds)

    def train(max_seq_len):
        return cli.main(
            [
                "train",
                "--seeds-dir",
                pipeline["seeds_dir"],
                "--checkpoint",
                str(pipeline["base"] / "tight.npz"),
                "--steps",
                "2",
                "--hidden-dim",
                "8",
                "--embedding-dim",
                "4",
                "--max-seq-len",
                str(max_seq_len),
                "--eval",
            ]
        )

    assert train(longest) == 0
    out = capsys.readouterr().out
    assert re.search(r"; reconstruction=[0-9.]+; exact=\d+/%d$" % len(seeds), out.strip())
    assert train(longest - 1) == 1
    assert "max_seq_len" in capsys.readouterr().err


def test_train_needs_seeds(tmp_path, capsys):
    os.makedirs(tmp_path / "empty", exist_ok=True)
    rc = cli.main(
        ["train", "--seeds-dir", str(tmp_path / "empty"), "--steps", "1"]
    )
    assert rc == 1
    assert "no seeds" in capsys.readouterr().err


@pytest.mark.parametrize("strategy", cli.STRATEGIES)
def test_fuzz_session_artifacts(pipeline, live_target, strategy, tmp_path):
    out = str(tmp_path / ("session-" + strategy))
    assert _fuzz(pipeline, live_target, strategy, out) == 0

    with open(os.path.join(out, cli.EVENTS_CSV)) as fh:
        lines = fh.read().splitlines()
    assert lines[0] == cli.CSV_HEADER
    assert len(lines) == 61  # one row per executed case
    blocks = [int(row.split(",")[1]) for row in lines[1:]]
    assert blocks == sorted(blocks) and blocks[-1] > 0
    tests = [int(row.split(",")[2]) for row in lines[1:]]
    assert tests == list(range(1, 61))

    with open(os.path.join(out, cli.MUTATION_LOG), encoding="latin-1") as fh:
        log_lines = fh.read().splitlines()
    assert log_lines[0].startswith("#")
    assert len(log_lines) == 61
    assert all(len(ln.split("\t")) == 6 for ln in log_lines[1:])

    with open(os.path.join(out, cli.SESSION_JSON)) as fh:
        meta = json.load(fh)
    assert meta["strategy"] == strategy
    assert meta["tests_executed"] == 60
    assert meta["blocks_covered"] == blocks[-1]
    assert meta["bugs_found"] == int(lines[-1].split(",")[3])
    with open(os.path.join(out, cli.BUGS_JSON)) as fh:
        bugs = json.load(fh)
    assert len(bugs) == meta["bugs_found"]
    for bug in bugs:
        assert os.path.exists(bug["transcript"])


def test_fuzz_calls_benchmark_hooks_through_cli(pipeline, live_target, tmp_path, monkeypatch):
    calls = dict.fromkeys(BENCHMARK_HOOKS, 0)

    def counting(name, fn):
        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return counted

    for name in BENCHMARK_HOOKS:
        assert callable(cli.__dict__.get(name)), name
        monkeypatch.setattr(cli, name, counting(name, cli.__dict__[name]))
    out = str(tmp_path / "s")
    assert _fuzz(pipeline, live_target, "byte", out, extra=["--max-cases", "7"]) == 0
    assert calls["execute_test_case"] == 7
    assert calls["reset_coverage"] == 7
    assert calls["reset_target_state"] == 8  # plus the reachability check
    assert calls["fetch_and_reset_coverage"] >= 7
    assert calls["load_grammar"] == calls["load_corpus"] == calls["_byte_case_stream"] == 1


def test_fuzz_session_reuses_its_connections(pipeline, live_target, tmp_path, monkeypatch):
    # one control connection for the side channels and one per case, plus
    # a reconnect after each response that closes the case connection
    opened = []
    connect = socket.create_connection

    def counted(*args, **kwargs):
        opened.append(args[0])
        return connect(*args, **kwargs)

    monkeypatch.setattr(socket, "create_connection", counted)
    out = str(tmp_path / "s")
    assert _fuzz(pipeline, live_target, "byte", out, extra=["--max-cases", "20"]) == 0
    assert len(opened) <= 2 * 20 + 2


def test_fuzz_session_keeps_one_case_connection(pipeline, live_target, tmp_path, connection_counts):
    # one control and one case connection for the whole session, plus a
    # reconnect after each response that closed its connection
    out = str(tmp_path / "s")
    assert _fuzz(pipeline, live_target, "byte", out, extra=["--max-cases", "20"]) == 0
    assert connection_counts["opened"] <= 2 + connection_counts["closing"]


def test_fuzz_leaves_no_connection_open_on_the_target(pipeline, tmp_path):
    srv = serve()
    try:
        rc = cli.main(
            [
                "fuzz", "--target", srv.base_url, "--seeds-dir", pipeline["seeds_dir"],
                "--strategy", "byte", "--max-cases", "5", "--seed", "1",
                "--out", str(tmp_path / "s"),
            ]
        )
        assert rc == 0
        deadline = time.monotonic() + 1
        while srv._conns and time.monotonic() < deadline:
            time.sleep(0.01)
        assert not srv._conns
    finally:
        srv.stop()


def _stop_after(monkeypatch, srv, n):
    """Stop ``srv`` once ``cli.execute_test_case`` has returned ``n`` times."""
    calls = 0
    execute = cli.execute_test_case

    def counted(*args, **kwargs):
        nonlocal calls
        result = execute(*args, **kwargs)
        calls += 1
        if calls == n:
            srv.stop()
        return result

    monkeypatch.setattr(cli, "execute_test_case", counted)


def test_fuzz_keeps_artifacts_when_the_target_is_lost(pipeline, tmp_path, monkeypatch, capsys):
    srv = serve()
    _stop_after(monkeypatch, srv, 3)
    out = tmp_path / "s"
    try:
        rc = cli.main(
            [
                "fuzz", "--target", srv.base_url, "--seeds-dir", pipeline["seeds_dir"],
                "--strategy", "byte", "--max-cases", "10", "--seed", "1", "--out", str(out),
            ]
        )
    finally:
        srv.stop()
    assert rc == 1
    assert "error: target unreachable at %s" % srv.base_url in capsys.readouterr().err
    meta = json.loads((out / cli.SESSION_JSON).read_text())
    assert meta["tests_executed"] == 3
    assert len((out / cli.EVENTS_CSV).read_text().splitlines()) == 1 + 3
    assert len(json.loads((out / cli.BUGS_JSON).read_text())) == meta["bugs_found"]


def test_distill_reports_a_lost_target(pipeline, tmp_path, monkeypatch, capsys):
    srv = serve()
    _stop_after(monkeypatch, srv, 2)
    try:
        rc = cli.main(
            [
                "distill", "--target", srv.base_url, "--seeds-dir", pipeline["seeds_dir"],
                "--out", str(tmp_path / "kept.txt"),
            ]
        )
    finally:
        srv.stop()
    assert rc == 1
    assert "error: target unreachable at %s" % srv.base_url in capsys.readouterr().err


def test_byte_flips_land_on_the_sent_text(ref_grammar, target_cfg):
    g = ref_grammar
    chain = chain_by_names(g, 2, ("create-project", "create-branch"))
    tc = build_case(g, chain, [["testString"], ["master"]])
    reset_target_state(target_cfg)
    sent = [r.request_text for r in execute_test_case(tc, g, target_cfg).records]
    assert len(sent) == 2 and "{{producer:" not in sent[1]  # consumer slot resolved
    stream = cli._byte_case_stream([("seed-0", tc)], np.random.default_rng(0))
    n = 2000
    last_byte = 0
    for _ in range(n):
        _seed_id, _tc, transform, plan = next(stream)
        flipped = [transform(text, idx) for idx, text in enumerate(sent)]
        assert [len(t) for t in flipped] == [len(t) for t in sent]
        diffs = [
            (idx, k)
            for idx, (old, new) in enumerate(zip(sent, flipped))
            for k in range(len(old))
            if old[k] != new[k]
        ]
        assert len(diffs) == 1
        idx, k = diffs[0]
        flat = sum(len(t) for t in sent[:idx]) + k
        assert plan.byte_noise == [(flat, ord(flipped[idx][k]))]
        last_byte += k == len(sent[idx]) - 1
    assert last_byte <= 0.05 * n


def test_fuzz_repeat_runs_agree_modulo_time(pipeline, live_target, tmp_path):
    out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
    assert _fuzz(pipeline, live_target, "byte", out1) == 0
    assert _fuzz(pipeline, live_target, "byte", out2) == 0

    def stripped_events(d):
        with open(os.path.join(d, cli.EVENTS_CSV)) as fh:
            return [ln.split(",")[1:] for ln in fh.read().splitlines()[1:]]

    assert stripped_events(out1) == stripped_events(out2)
    for name in (cli.MUTATION_LOG,):
        with open(os.path.join(out1, name), encoding="latin-1") as fh:
            first = fh.read()
        with open(os.path.join(out2, name), encoding="latin-1") as fh:
            second = fh.read()
        assert first == second
    with open(os.path.join(out1, cli.BUGS_JSON)) as fh:
        bugs1 = [(b["bitmap"], b["statuses"]) for b in json.load(fh)]
    with open(os.path.join(out2, cli.BUGS_JSON)) as fh:
        bugs2 = [(b["bitmap"], b["statuses"]) for b in json.load(fh)]
    assert bugs1 == bugs2


def test_fuzz_rejects_unknown_strategy_flag(pipeline, live_target):
    with pytest.raises(SystemExit) as exc:
        cli.main(["fuzz", "--strategy", "quantum"])
    assert exc.value.code == 2


def test_fuzz_rejects_unknown_strategy_from_config(tmp_path, capsys):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("fuzz.strategy=quantum\n")
    rc = cli.main(["fuzz", "--config", str(cfg)])
    assert rc == 1
    assert "strategy" in capsys.readouterr().err


def test_fuzz_learned_needs_checkpoint(pipeline, live_target, tmp_path, capsys):
    rc = cli.main(
        [
            "fuzz",
            "--target",
            live_target.base_url,
            "--seeds-dir",
            pipeline["seeds_dir"],
            "--strategy",
            "learned",
            "--checkpoint",
            str(tmp_path / "missing.npz"),
        ]
    )
    assert rc == 1
    assert "train" in capsys.readouterr().err


def test_fuzz_unreachable_target(pipeline, tmp_path, capsys):
    rc = cli.main(
        [
            "fuzz",
            "--target",
            DEAD_URL,
            "--seeds-dir",
            pipeline["seeds_dir"],
            "--strategy",
            "tree",
            "--out",
            str(tmp_path / "s"),
        ]
    )
    assert rc == 1
    assert "unreachable" in capsys.readouterr().err


def test_fuzz_config_controls_dependencies_toggle(
    pipeline, live_target, tmp_path
):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("fuzz.mutate_dependencies=true\n")
    out = str(tmp_path / "dep")
    rc = _fuzz(
        pipeline,
        live_target,
        "tree",
        out,
        extra=["--config", str(cfg), "--max-cases", "5", "--budget", "30"],
    )
    assert rc == 0
    with open(os.path.join(out, cli.SESSION_JSON)) as fh:
        assert json.load(fh)["mutate_dependencies"] is True


def test_distill_command(pipeline, live_target, tmp_path, capsys):
    out = str(tmp_path / "kept.txt")
    rc = cli.main(
        [
            "distill",
            "--target",
            live_target.base_url,
            "--seeds-dir",
            pipeline["seeds_dir"],
            "--out",
            out,
        ]
    )
    assert rc == 0
    with open(out) as fh:
        kept = fh.read().split()
    assert 0 < len(kept) <= 14
    assert all(k.startswith("seed-") for k in kept)
    assert "distilled 14 seeds" in capsys.readouterr().out


def test_replay_command_round_trip(
    ref_grammar, live_target, target_cfg, tmp_path, capsys
):
    from restfuzz.execution import reset_target_state

    reset_target_state(target_cfg)
    tc = build_case(
        ref_grammar,
        chain_by_names(ref_grammar, 2, ("create-project",)),
        [["testString"]],
    )
    result = execute_test_case(tc, ref_grammar, target_cfg)
    path = tmp_path / "t.txt"
    path.write_text(write_transcript(result), encoding="latin-1")
    rc = cli.main(["replay", "--target", live_target.base_url, str(path)])
    out = capsys.readouterr().out
    assert rc == 0 and "reproduced" in out

    tampered = tmp_path / "bad.txt"
    tampered.write_text(
        write_transcript(result).replace("HTTP/1.1 201", "HTTP/1.1 500"),
        encoding="latin-1",
    )
    rc = cli.main(["replay", "--target", live_target.base_url, str(tampered)])
    out = capsys.readouterr().out
    assert rc == 1 and "MISMATCH" in out


def test_replay_missing_transcript(tmp_path, capsys):
    rc = cli.main(["replay", str(tmp_path / "none.txt")])
    assert rc == 1
    assert "transcript not found" in capsys.readouterr().err


def test_report_command(pipeline, live_target, tmp_path, capsys):
    sessions = []
    for strategy in ("byte", "tree"):
        out = str(tmp_path / strategy)
        assert _fuzz(
            pipeline,
            live_target,
            strategy,
            out,
            extra=["--max-cases", "20", "--budget", "30"],
        ) == 0
        sessions.append(out)
    report_dir = str(tmp_path / "report")
    rc = cli.main(["report", "--session", *sessions, "--out", report_dir])
    assert rc == 0
    with open(os.path.join(report_dir, "report_coverage.csv")) as fh:
        lines = fh.read().splitlines()
    assert lines[0] == "strategy," + cli.CSV_HEADER
    assert len(lines) == 1 + 20 + 20
    assert {ln.split(",")[0] for ln in lines[1:]} == {"byte", "tree"}
    assert os.path.exists(os.path.join(report_dir, "report_bugs.csv"))
    out_text = capsys.readouterr().out
    assert "coverage series" in out_text and "bug table" in out_text


def test_report_rejects_non_session_dir(tmp_path, capsys):
    rc = cli.main(["report", "--session", str(tmp_path)])
    assert rc == 1
    assert "session" in capsys.readouterr().err
