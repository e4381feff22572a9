"""End-to-end tests for the command-line front end, driven in-process
through ``main(argv)`` against the live reference service."""

import csv
import hashlib
import inspect
import json
import os
import re
import socket
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from restfuzz import autoencoder as ae, cli, coverage, execution, mutation
from restfuzz.execution import execute_test_case, reset_target_state, write_transcript
from restfuzz.seedgen import build_case, load_corpus
from restfuzz.target import serve

from .conftest import TESTS_DIR, chain_by_names, count_target_resets, peek_coverage
from .test_execution import _ok, _path_server

DEAD_URL = "http://127.0.0.1:9"  # discard port; nothing listens there
# names the benchmark's tracer and case counter patch in ``cli``; a fuzz
# session must call them through the module's globals
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


def test_config_keys_are_unchanged():
    assert set(cli.CONFIG_KEYS) == {
        "target.base_url", "target.token", "grammar.path", "model.checkpoint",
        "seeds.dir", "seeds.max_len", "seeds.dict_values", "seeds.budget", "seeds.validate",
        "train.steps", "train.batch_size", "train.hidden_dim", "train.embedding_dim",
        "train.learning_rate", "train.max_seq_len", "train.rng_seed",
        "fuzz.strategy", "fuzz.budget_s", "fuzz.n_scales", "fuzz.rng_seed",
        "fuzz.max_cases", "fuzz.out_dir",
    }


def test_each_command_takes_the_flags_it_reads():
    # train and replay take no --target/--token or --grammar/--seeds-dir:
    # they never read those keys
    common = {"-h", "--help", "--config"}
    target, corpus = {"--target", "--token"}, {"--grammar", "--seeds-dir"}
    expected = {
        "seeds": common | target | corpus
        | {"--max-len", "--dict-values", "--budget-seeds", "--no-validate"},
        "train": common | corpus | {
            "--checkpoint", "--steps", "--batch-size", "--hidden-dim", "--embedding-dim",
            "--learning-rate", "--max-seq-len", "--seed", "--eval",
        },
        "fuzz": common | target | corpus | {
            "--strategy", "--budget", "--max-cases", "--seed", "--n-scales", "--checkpoint",
            "--out",
        },
        "distill": common | target | corpus | {"--out"},
        "replay": common | target | {"--no-reset"},
        "report": {"-h", "--help", "--session", "--out"},
    }
    (sub,) = [a for a in cli.build_parser()._actions if a.dest == "command"]
    got = {
        name: {s for action in p._actions for s in action.option_strings}
        for name, p in sub.choices.items()
    }
    assert got == expected


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


def test_seeds_closing_line_counts_validated_candidates(live_target, tmp_path, capsys):
    out = str(tmp_path / "seeds")
    argv = ["seeds", "--target", live_target.base_url, "--seeds-dir", out, "--max-len", "2"]
    assert cli.main(argv) == 0
    last = capsys.readouterr().out.splitlines()[-1]
    assert re.fullmatch(
        r"wrote 4 seeds to %s \(max_len=2 dict_values=2\); validated 10 candidates in \d+\.\d\ds"
        % re.escape(out),
        last,
    ), last
    assert cli.main(argv + ["--no-validate"]) == 0
    assert "; validated 0 candidates in " in capsys.readouterr().out


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


@pytest.mark.parametrize(
    "argv, message",
    [
        (["seeds", "--seeds-dir", ""],
         "cannot write seeds: [Errno 2] No such file or directory: ''"),
        (["seeds", "--seeds-dir", "afile/sub"],
         "cannot write seeds: [Errno 20] Not a directory: 'afile/sub'"),
        (["distill", "--out", "nodir/kept.txt"],
         "cannot write nodir/kept.txt: not a file in an existing directory"),
        (["fuzz", "--strategy", "byte", "--out", "afile/x"],
         "cannot write session: afile is not a directory"),
        (["replay", "adir"], "cannot read transcript: [Errno 21] Is a directory: 'adir'"),
    ],
    ids=["seeds-dir-empty", "seeds-dir-under-a-file", "distill-out-dir-missing",
         "fuzz-out-under-a-file", "replay-a-directory"],
)
def test_commands_check_their_paths_before_they_connect(
    pipeline, tmp_path, monkeypatch, capsys, argv, message
):
    # the target is dead, so a path checked only after a request would be
    # reported as an unreachable target instead
    monkeypatch.chdir(tmp_path)
    (tmp_path / "afile").write_text("")
    (tmp_path / "adir").mkdir()
    where = ["--target", DEAD_URL]
    if argv[0] in ("distill", "fuzz"):
        where += ["--seeds-dir", pipeline["seeds_dir"]]
    assert cli.main(argv + where) == 1
    assert capsys.readouterr().err == "error: %s\n" % message


@pytest.mark.parametrize("url", ["ftp://x", "http://127.0.0.1:99999", "http://:80", "http://[::1"])
@pytest.mark.parametrize("command", ["seeds", "fuzz", "distill", "replay"])
def test_a_malformed_target_url_is_an_error_line(pipeline, tmp_path, capsys, command, url):
    argv = {
        "seeds": ["seeds", "--seeds-dir", str(tmp_path / "new"), "--max-len", "1"],
        "fuzz": ["fuzz", "--strategy", "byte", "--seeds-dir", pipeline["seeds_dir"],
                 "--out", str(tmp_path / "s")],
        "distill": ["distill", "--seeds-dir", pipeline["seeds_dir"]],
        "replay": ["replay", str(tmp_path / "t.txt")],
    }[command]
    assert cli.main(argv + ["--target", url]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: bad target URL %r (" % url) and err.count("\n") == 1, err
    assert os.listdir(tmp_path) == []  # seeds made no directory, fuzz no session


def test_train_checks_its_checkpoint_path_before_it_trains(pipeline, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(ae, "train", lambda *a, **kw: pytest.fail("trained"))
    argv = ["train", "--seeds-dir", pipeline["seeds_dir"], "--checkpoint", "nodir/model"]
    assert cli.main(argv) == 1
    assert capsys.readouterr().err == (
        "error: cannot write nodir/model.npz: not a file in an existing directory\n"
    )


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


def test_train_reports_a_missing_seeds_dir(tmp_path, capsys):
    missing = str(tmp_path / "nonexistent")
    assert cli.main(["train", "--seeds-dir", missing, "--steps", "1"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: cannot read seeds: ") and missing in err


def test_train_reports_an_unparsable_seed_file(tmp_path, capsys):
    (tmp_path / "seed-00001.txt").write_text("FOO /x HTTP/1.1\n")
    assert cli.main(["train", "--seeds-dir", str(tmp_path), "--steps", "1"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: bad seed file %s: " % (tmp_path / "seed-00001.txt"))


def test_train_needs_seeds(tmp_path, capsys):
    os.makedirs(tmp_path / "empty", exist_ok=True)
    rc = cli.main(
        ["train", "--seeds-dir", str(tmp_path / "empty"), "--steps", "1"]
    )
    assert rc == 1
    assert "no seeds" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["train", "--hidden-dim", "0"], "hidden_dim must be >= 1, got 0"),
        (["train", "--batch-size", "0"], "batch_size must be >= 1, got 0"),
        (["train", "--steps", "-3"], "steps must be >= 0, got -3"),
        (["train", "--learning-rate", "nan"], "learning_rate must be > 0, got nan"),
        (["train", "--seed", "-1"], "rng_seed must be >= 0, got -1"),
        (["seeds", "--dict-values", "0"], "dict_values_per_type must be >= 1, got 0"),
        (["seeds", "--max-len", "0"], "max_len must be >= 1, got 0"),
        (["seeds", "--budget-seeds", "0"], "budget must be >= 1, got 0"),
    ],
    ids=["hidden-dim", "batch-size", "steps", "learning-rate", "seed", "dict-values", "max-len",
         "budget-seeds"],
)
def test_train_and_seeds_reject_out_of_range_values(pipeline, tmp_path, capsys, argv, message):
    # seeds validates against a dead target: the check comes before any request
    if argv[0] == "train":
        where = ["--seeds-dir", pipeline["seeds_dir"], "--checkpoint", str(tmp_path / "m")]
    else:
        where = ["--target", DEAD_URL, "--seeds-dir", str(tmp_path / "seeds")]
    assert cli.main(argv + where) == 1
    assert capsys.readouterr().err == "error: %s\n" % message
    assert list(tmp_path.iterdir()) == []


def test_train_and_fuzz_agree_on_a_checkpoint_path_without_suffix(
    pipeline, live_target, tmp_path, capsys
):
    model = str(tmp_path / "model")
    argv = ["train", "--seeds-dir", pipeline["seeds_dir"], "--checkpoint", model,
            "--steps", "2", "--hidden-dim", "8", "--embedding-dim", "4"]
    assert cli.main(argv) == 0
    assert capsys.readouterr().out.endswith("; checkpoint %s.npz\n" % model)
    argv = ["fuzz", "--target", live_target.base_url, "--seeds-dir", pipeline["seeds_dir"],
            "--strategy", "learned", "--checkpoint", model, "--max-cases", "3",
            "--out", str(tmp_path / "s")]
    assert cli.main(argv) == 0


def test_train_hyperparams_default_to_hyperparams(pipeline, tmp_path, monkeypatch):
    seen = []

    def captured(sequences, hp, **kwargs):
        seen.append(hp)
        raise ValueError("captured")  # skip the training itself

    monkeypatch.setattr(ae, "train", captured)
    cfg = tmp_path / "c.cfg"
    cfg.write_text("train.hidden_dim = 8\ntrain.steps = 9\n")
    argv = ["train", "--seeds-dir", pipeline["seeds_dir"], "--checkpoint", str(tmp_path / "m")]
    assert cli.main(argv) == 1
    assert cli.main(argv + ["--config", str(cfg), "--steps", "5"]) == 1
    assert seen == [ae.Hyperparams(), ae.Hyperparams(hidden_dim=8, steps=5)]
    assert not (tmp_path / "m.npz").exists()


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
        assert bug["transcript"] == os.path.join(cli.BUG_DIR, bug["bug_id"] + ".txt")
        assert os.path.exists(os.path.join(out, bug["transcript"]))


@pytest.mark.parametrize("strategy", cli.STRATEGIES)
def test_fuzz_calls_benchmark_hooks_through_cli(
    pipeline, live_target, strategy, tmp_path, monkeypatch
):
    calls = dict.fromkeys(BENCHMARK_HOOKS, 0)

    def counting(name, fn):
        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return counted

    for name in BENCHMARK_HOOKS:
        assert callable(cli.__dict__.get(name)), name
        monkeypatch.setattr(cli, name, counting(name, cli.__dict__[name]))
    served = count_target_resets(monkeypatch, live_target)
    control = _count_control_resets(monkeypatch)
    out = str(tmp_path / "s")
    assert _fuzz(pipeline, live_target, strategy, out, extra=["--max-cases", "7"]) == 0
    assert calls["execute_test_case"] == 7
    assert calls["reset_coverage"] == 1  # once per session, when it connects
    # the tracer's state-reset span stays empty: one state reset per case
    # reaches the target, riding the case connection, and none goes on the
    # control connection
    assert calls["reset_target_state"] == 0
    assert served[0] == 7 and control[0] == 0
    assert calls["fetch_and_reset_coverage"] >= 7
    factory = "_%s_case_stream" % strategy
    assert calls["load_grammar"] == calls["load_corpus"] == calls[factory] == 1
    assert sum(calls[name] for name in BENCHMARK_HOOKS if name.endswith("_case_stream")) == 1
    # the tracer takes the fourth positional argument of each planning call
    # as the visited seed's id
    params = list(inspect.signature(mutation.plan_learned_mutations).parameters)
    assert params[:5] == ["x", "pr", "g", "seed_id", "rng"]


def _count_control_resets(monkeypatch) -> list:
    """Counts the state resets sent on the control connection."""
    sent = [0]
    send = execution.http_request

    def counted(cfg, method, path):
        sent[0] += (method, path) == execution.STATE_RESET
        return send(cfg, method, path)

    monkeypatch.setattr(execution, "http_request", counted)
    return sent


@pytest.mark.parametrize("command", ["fuzz", "distill"])
def test_each_case_starts_from_a_reset_target(
    pipeline, live_target, command, tmp_path, monkeypatch
):
    served = count_target_resets(monkeypatch, live_target)
    control = _count_control_resets(monkeypatch)
    cases = []
    execute = cli.execute_test_case

    def counted(*args, **kwargs):
        cases.append(execute(*args, **kwargs))
        return cases[-1]

    monkeypatch.setattr(cli, "execute_test_case", counted)
    argv = [command, "--target", live_target.base_url, "--seeds-dir", pipeline["seeds_dir"]]
    if command == "fuzz":
        argv += ["--strategy", "byte", "--max-cases", "30", "--out", str(tmp_path / "s")]
    else:
        argv += ["--out", str(tmp_path / "kept.txt")]
    assert cli.main(argv) == 0
    assert len(cases) == (30 if command == "fuzz" else 14)
    assert served[0] == len(cases) and control[0] == 0


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


def test_fuzz_session_reads_coverage_only_for_responses_without_a_window(
    pipeline, live_target, tmp_path, monkeypatch
):
    # every case answer carries its coverage window, so the side channel
    # is read only by the session's one coverage reset
    counts = dict.fromkeys(["resets", "coverage_reads", "control", "windowed", "windowless"], 0)
    served = count_target_resets(monkeypatch, live_target)
    send, recv, reset = execution.http_request, execution._recv_response, cli.reset_coverage

    def counted_send(cfg, method, path):
        counts["control"] += 1
        counts["coverage_reads"] += (method, path) == ("POST", "/__coverage__/reset")
        return send(cfg, method, path)

    def counted_recv(sock, rest=b""):
        response = recv(sock, rest)
        counts["windowless" if response[4] is None else "windowed"] += 1
        return response

    def counted_reset(cfg):
        counts["resets"] += 1
        return reset(cfg)

    monkeypatch.setattr(execution, "http_request", counted_send)
    monkeypatch.setattr(execution, "_recv_response", counted_recv)
    monkeypatch.setattr(cli, "reset_coverage", counted_reset)
    out = str(tmp_path / "s")
    assert _fuzz(pipeline, live_target, "byte", out, extra=["--max-cases", "20"]) == 0
    # control answers carry none, nor do the state resets that ride ahead
    # of each case's first request
    case_resets = served[0]
    assert case_resets == 20
    case_windowless = counts["windowless"] - counts["control"] - case_resets
    assert counts["windowed"] > 0 and case_windowless == 0
    assert counts["coverage_reads"] == counts["resets"] == 1


@pytest.mark.parametrize("strategy", cli.STRATEGIES)
def test_each_fuzz_case_starts_on_an_empty_bitmap(
    pipeline, live_target, target_cfg, strategy, tmp_path, monkeypatch
):
    # coverage is cleared once per session: every answered request's window
    # is read and cleared, so the next case finds nothing left over
    seen = []
    execute = cli.execute_test_case

    def peeked(*args, **kwargs):
        seen.append(peek_coverage(target_cfg))
        return execute(*args, **kwargs)

    monkeypatch.setattr(cli, "execute_test_case", peeked)
    out = str(tmp_path / "s")
    assert _fuzz(pipeline, live_target, strategy, out, extra=["--max-cases", "100"]) == 0
    assert len(seen) == 100 and not any(seen)


_LEFTOVER_TRANSCRIPT = (
    "POST /api/projects HTTP/1.1\nPRIVATE-TOKEN: %(token)s\n{\"name\": \"p\"}\n"
    "HTTP/1.1 201 Created\n\n"
    "FROB /api/projects/1/repository/commits HTTP/1.1\nPRIVATE-TOKEN: %(token)s\n"
    "HTTP/1.1 500 Internal Server Error\n"
)


def _session_artifacts(out):
    events = [ln.split(",", 1)[1] for ln in (out / cli.EVENTS_CSV).read_text().splitlines()]
    return events, [
        (out / name).read_bytes() for name in (cli.MUTATION_LOG, cli.BUGS_JSON, cli.SESSION_JSON)
    ]


def test_blocks_left_before_a_session_do_not_change_its_artifacts(
    pipeline, live_target, target_cfg, tmp_path
):
    # a transcript replayed between sessions, as a benchmark does, reads
    # none of its windows; the target cleared them all as it sent them
    clean = tmp_path / "clean"
    assert _fuzz(pipeline, live_target, "byte", str(clean)) == 0
    reset_target_state(target_cfg)
    replayed = execution.replay_transcript(
        _LEFTOVER_TRANSCRIPT % {"token": live_target.token}, target_cfg
    )
    assert replayed.actual == [201, 500]
    assert peek_coverage(target_cfg) == 0
    left = tmp_path / "left"
    assert _fuzz(pipeline, live_target, "byte", str(left)) == 0
    assert _session_artifacts(left) == _session_artifacts(clean)


@pytest.mark.parametrize("command", ["fuzz", "distill"])
def test_blocks_of_an_unanswered_request_never_reach_the_next_case(
    pipeline, live_target, target_cfg, ref_grammar, command, tmp_path, monkeypatch
):
    # the first case's only request is rejected before routing; the target
    # answers it with its own window and clears the bitmap, and that answer
    # is then lost: its blocks must not land in the window of the next
    # case's first request
    _seed_id, tc = load_corpus(pipeline["seeds_dir"], ref_grammar)[0]
    assert len(tc.requests) == 1
    results = []
    execute = cli.execute_test_case
    roundtrip = execution._CaseConnection.roundtrip

    def bad_header(text, _idx):
        return text.replace("\n", "\nno colon here\n", 1)

    def fixed_cases(_tc, g, cfg, case_id, request_text_transform=None, **kwargs):
        transform = None if results else bad_header
        results.append(execute(tc, g, cfg, case_id, request_text_transform=transform, **kwargs))
        return results[-1]

    def answer_lost(conn, wire, reset=b""):
        answer = roundtrip(conn, wire, reset)
        if b"no colon here" in wire:
            raise execution.TransportError("answer lost")
        return answer

    monkeypatch.setattr(cli, "execute_test_case", fixed_cases)
    monkeypatch.setattr(execution._CaseConnection, "roundtrip", answer_lost)
    argv = [command, "--target", live_target.base_url, "--seeds-dir", pipeline["seeds_dir"]]
    if command == "fuzz":
        argv += ["--strategy", "tree", "--max-cases", "3", "--out", str(tmp_path / "s")]
    else:
        argv += ["--out", str(tmp_path / "kept.txt")]
    assert cli.main(argv) == 0
    assert results[0].statuses == [execution.NO_RESPONSE_STATUS]
    after_lost, after_answered = (r.records[0].bitmap for r in results[1:3])
    header_bad = coverage.fetch_manifest(target_cfg).index("http.header_bad")
    assert header_bad not in after_lost.indices()
    assert after_lost == after_answered


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


def test_fuzz_keeps_artifacts_when_a_state_reset_is_refused(
    pipeline, tmp_path, monkeypatch, capsys
):
    # two cases' resets get a 200, the third case's a 503: the session
    # ends there, as when the target is lost
    srv = serve()
    count_target_resets(monkeypatch, srv, refuse_after=2)
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
    err = capsys.readouterr().err
    assert err == "error: target unreachable at %s (state reset returned 503)\n" % srv.base_url
    meta = json.loads((out / cli.SESSION_JSON).read_text())
    assert meta["tests_executed"] == 2
    assert len((out / cli.EVENTS_CSV).read_text().splitlines()) == 1 + 2
    assert len(json.loads((out / cli.BUGS_JSON).read_text())) == meta["bugs_found"]


def test_seeds_reports_a_target_lost_mid_validation(tmp_path, monkeypatch, capsys):
    srv = serve()
    calls = 0
    execute = execution.execute_test_case

    def counted(*args, **kwargs):
        nonlocal calls
        result = execute(*args, **kwargs)
        calls += 1
        if calls == 3:
            srv.stop()
        return result

    monkeypatch.setattr(execution, "execute_test_case", counted)
    out = tmp_path / "seeds"
    try:
        rc = cli.main(["seeds", "--target", srv.base_url, "--seeds-dir", str(out),
                       "--max-len", "2"])
    finally:
        srv.stop()
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: seed validation needs a reachable target (connect failed")
    assert calls == 3


def test_fuzz_rejects_a_coverage_window_wider_than_the_manifest(pipeline, tmp_path, capsys):
    # a target whose manifest lists 8 blocks answers case requests with a
    # 16-block window
    url, _heads, stop = _path_server(
        {
            "/__reset__": _ok(b"{}"),
            "/__coverage__/manifest": _ok(json.dumps({"blocks": list("abcdefgh")}).encode()),
            "/__coverage__/reset": _ok(b'{"block_count": 8, "bitmap": "00"}'),
            None: _ok(b"{}", b"X-Coverage-Window: 16:0000\r\n"),
        }
    )
    out = tmp_path / "s"
    try:
        rc = cli.main(
            [
                "fuzz", "--target", url, "--seeds-dir", pipeline["seeds_dir"],
                "--strategy", "tree", "--max-cases", "3", "--seed", "1", "--out", str(out),
            ]
        )
    finally:
        stop()
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "coverage window of 16 blocks, manifest lists 8" in err
    # the target answered: its coverage data, not its reachability, is at fault
    assert "unreachable" not in err and "bad coverage data from %s" % url in err
    meta = json.loads((out / cli.SESSION_JSON).read_text())
    assert meta["tests_executed"] == 0
    assert (out / cli.EVENTS_CSV).read_text() == cli.CSV_HEADER + "\n"


@pytest.mark.parametrize("command", ["fuzz", "distill"])
def test_a_failed_coverage_reset_at_connect_is_reported(pipeline, command, tmp_path, capsys):
    url, _heads, stop = _path_server(
        {
            "/__reset__": _ok(b"{}"),
            "/__coverage__/manifest": _ok(json.dumps({"blocks": list("abcdefgh")}).encode()),
            "/__coverage__/reset": b"HTTP/1.1 500 Internal Server Error\r\n"
            b"Content-Length: 2\r\n\r\n{}",
            None: _ok(b"{}"),
        }
    )
    out = tmp_path / "out"
    argv = [command, "--target", url, "--seeds-dir", pipeline["seeds_dir"], "--out", str(out)]
    if command == "fuzz":
        argv += ["--strategy", "tree", "--max-cases", "3"]
    try:
        rc = cli.main(argv)
    finally:
        stop()
    assert rc == 1
    err = capsys.readouterr().err
    assert err == "error: target unreachable at %s (coverage reset returned 500)\n" % url
    assert not out.exists()  # the session never started


def test_byte_flips_land_on_the_sent_text(ref_grammar, target_cfg):
    g = ref_grammar
    chain = chain_by_names(g, 2, ("create-project", "create-branch"))
    tc = build_case(g, chain, [["testString"], ["master"]])
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


# (strategy, --seed, tests_executed, blocks_covered, bugs_found, sha256 of
# mutations.log, sha256 of bugs.json without transcript paths) of 400-case
# sessions on the pipeline corpus; a change that keeps what a session does
# keeps them.  The learned row also rests on the pipeline model's bits, pinned
# by the sha256 of its loss history: at the quick-start size they do not
# depend on the BLAS thread count (at the default size they do).
PINNED_LOSSES_SHA256 = "c92426f0e58813749a17a2b7064eccb914fb6dbfba1126b37931a5f969ea85af"
PINNED_SESSIONS = (
    (
        "byte", 25, 400, 53, 2,
        "38412bf07bbc3fd2d94e157edb6515aaf47e0df26b70987b26b9bf1f27452ceb",
        "7b1875cc3745219b3afc50cc3f9b82d130ea171c4ed421a368c8efaaeb39fc66",
    ),
    (
        "tree", 2, 400, 46, 1,
        "f9fd98f6cb8af62355e0eb331145db5a95ac3e96d5412f7f2b9d035b55610342",
        "d595ef85795befa67bdc7aff425d4435ed9a86d06e32d47e5bd8ea5186c1cbb1",
    ),
    (
        "learned", 1, 400, 26, 0,
        "f8e2af672a88aaa0c810227c842bc571b144c12bf9d04e971df8e0355d47cd05",
        "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945",
    ),
)


def test_fuzz_session_fingerprints_are_pinned(pipeline, live_target, tmp_path):
    losses = ae.load_model(pipeline["checkpoint"]).loss_history
    got = hashlib.sha256(json.dumps([float(x) for x in losses]).encode()).hexdigest()
    assert got == PINNED_LOSSES_SHA256
    # the shared target still holds blocks from seed validation and earlier
    # tests, which must not leak into a session
    for strategy, seed, *fingerprint in PINNED_SESSIONS:
        out = tmp_path / strategy
        extra = ["--max-cases", "400", "--seed", str(seed)]
        assert _fuzz(pipeline, live_target, strategy, str(out), extra) == 0
        meta = json.loads((out / cli.SESSION_JSON).read_text())
        bugs = json.loads((out / cli.BUGS_JSON).read_text())
        stripped = [{k: v for k, v in bug.items() if k != "transcript"} for bug in bugs]
        got = [
            meta["tests_executed"],
            meta["blocks_covered"],
            meta["bugs_found"],
            hashlib.sha256((out / cli.MUTATION_LOG).read_bytes()).hexdigest(),
            hashlib.sha256(json.dumps(stripped, sort_keys=True).encode()).hexdigest(),
        ]
        assert got == fingerprint, strategy


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


@pytest.mark.parametrize(
    "config, extra, message",
    [
        # a setting that no longer exists fails loudly instead of being ignored
        ("fuzz.noise_norm = z\n", [], "c.cfg:1: unknown config key 'fuzz.noise_norm'"),
        ("", ["--n-scales", "0"], "n_scales must be >= 1, got 0"),
        ("", ["--budget", "nan"], "budget_s must be > 0, got nan"),
        ("", ["--max-cases", "-1"], "max_cases must be >= 0 (0 = no cap), got -1"),
        ("", ["--seed", "-1"], "rng_seed must be >= 0, got -1"),
        ("", ["--checkpoint", "old.npz"], "cannot load checkpoint old.npz: "
         "unsupported checkpoint version 1"),
        # version 2 headers carried the cyclic-batch flag; such a model must be retrained
        ("", ["--checkpoint", "v2.npz"], "cannot load checkpoint v2.npz: "
         "unsupported checkpoint version 2"),
        ("", ["--checkpoint", "bogus.npz"], "cannot load checkpoint bogus.npz: "
         "unknown hyperparameter 'bogus' in checkpoint header"),
        ("", ["--checkpoint", "nan.npz"], "cannot load checkpoint nan.npz: "
         "non-finite parameter 'enc_W' in checkpoint"),
        ("", ["--checkpoint", "other.npz"], "checkpoint other.npz was trained on a different "
         "grammar"),
        ("", ["--checkpoint", "small.npz"], "checkpoint small.npz has no token for a rule of "
         "seed seed-00007; train it on this corpus"),
    ],
    ids=["noise-norm-from-config", "n-scales", "budget", "max-cases", "seed", "checkpoint-version",
         "checkpoint-version-2", "checkpoint-hyperparameter", "checkpoint-not-finite",
         "checkpoint-other-grammar", "checkpoint-vocabulary"],
)
def test_fuzz_checks_its_settings_before_it_connects(
    pipeline, tmp_path, monkeypatch, capsys, config, extra, message
):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "c.cfg").write_text(config)
    header = json.dumps({"version": 1}).encode()  # written before the last version bump
    np.savez(tmp_path / "old.npz", header=np.frombuffer(header, dtype=np.uint8))
    with np.load(pipeline["checkpoint"]) as saved:
        arrays = dict(saved)
    header = json.loads(bytes(arrays["header"]))

    def save(name, header, **params):
        raw = np.frombuffer(json.dumps(header).encode(), dtype=np.uint8)
        np.savez(tmp_path / name, **dict(arrays, **params, header=raw))

    save("bogus.npz", dict(header, hp=dict(header["hp"], bogus=1)))  # not a Hyperparams field
    save("other.npz", dict(header, grammar_hash="0" * 64))
    save("nan.npz", header, enc_W=np.full_like(arrays["enc_W"], np.nan))
    save("v2.npz", dict(header, version=2))
    # as if trained on a corpus whose largest rule id is one less
    v = header["vocab_size"] - 1
    save("small.npz", dict(header, vocab_size=v), enc_emb=arrays["enc_emb"][:v],
         dec_emb=arrays["dec_emb"][:v], out_W=arrays["out_W"][:, :v], out_b=arrays["out_b"][:v])
    argv = [
        "fuzz", "--config", "c.cfg", "--target", DEAD_URL, "--seeds-dir", pipeline["seeds_dir"],
        "--strategy", "learned", "--checkpoint", pipeline["checkpoint"], "--out", "s",
    ]
    assert cli.main(argv + extra) == 1
    assert capsys.readouterr().err == "error: %s\n" % message
    assert not (tmp_path / "s").exists()


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


def test_fuzz_learned_stops_when_the_checkpoint_plans_nothing(pipeline, live_target, tmp_path):
    # a model biased to end every decode at once plans no mutation for any
    # seed; the session must end on the first empty pass over the corpus,
    # long before its budget, instead of cycling the corpus forever.  It
    # runs in a child process so that a hang fails the test at the timeout.
    with np.load(pipeline["checkpoint"]) as saved:
        arrays = dict(saved)
    arrays["out_b"] = arrays["out_b"].copy()
    arrays["out_b"][ae.EOS] = 1e4
    checkpoint = str(tmp_path / "eos.npz")
    np.savez(checkpoint, **arrays)
    out = tmp_path / "s"
    argv = [
        sys.executable, "-m", "restfuzz.cli", "fuzz", "--target", live_target.base_url,
        "--seeds-dir", pipeline["seeds_dir"], "--strategy", "learned",
        "--checkpoint", checkpoint, "--budget", "600", "--out", str(out),
    ]
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(cli.__file__)))
    proc = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 1
    assert proc.stderr == "error: checkpoint %s planned no mutation for any seed\n" % checkpoint
    assert json.loads((out / cli.SESSION_JSON).read_text())["tests_executed"] == 0
    assert (out / cli.EVENTS_CSV).read_text() == cli.CSV_HEADER + "\n"


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
    assert kept == ["seed-00001", "seed-00002", "seed-00003", "seed-00004", "seed-00007"]
    assert capsys.readouterr().out == "distilled 14 seeds to 5 (union 29 blocks) -> %s\n" % out


def test_distill_output_is_not_read_back_as_a_seed(pipeline, live_target, ref_grammar, tmp_path):
    # without an index, a corpus is its seed-*.txt files; the default
    # output, distilled.txt in the corpus directory, is not one of them
    seeds_dir = tmp_path / "seeds"
    seeds_dir.mkdir()
    for name in os.listdir(pipeline["seeds_dir"]):
        if name != "index.txt":
            (seeds_dir / name).write_bytes((Path(pipeline["seeds_dir"]) / name).read_bytes())
    before = load_corpus(str(seeds_dir), ref_grammar)
    assert len(before) == 14
    argv = ["distill", "--target", live_target.base_url, "--seeds-dir", str(seeds_dir)]
    assert cli.main(argv) == 0
    assert (seeds_dir / "distilled.txt").exists()
    assert load_corpus(str(seeds_dir), ref_grammar) == before


def test_replay_command_round_trip(
    ref_grammar, live_target, target_cfg, tmp_path, capsys
):
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


@pytest.mark.parametrize(
    "content, message",
    [
        ("", "holds no recorded request"),
        ("hello world\n", "holds no recorded request"),
        ("GET / HTTP/1.1\n\nHTTP/1.1 200 OK\n", "holds no recorded request"),
        ("GET /\\q HTTP/1.1\nHTTP/1.1 200 OK\n", "bad transcript"),
    ],
    ids=["empty", "text", "status-line-alone", "bad-escape"],
)
def test_replay_sends_nothing_for_a_file_without_a_recorded_request(
    live_target, tmp_path, monkeypatch, capsys, content, message
):
    path = tmp_path / "t.txt"
    path.write_text(content, encoding="latin-1")
    opened = []
    monkeypatch.setattr(socket, "create_connection", lambda *args, **kwargs: opened.append(args))
    rc = cli.main(["replay", "--target", live_target.base_url, str(path)])
    captured = capsys.readouterr()
    assert rc == 1 and captured.out == "" and opened == []
    assert re.fullmatch(r"error: [^\n]*%s[^\n]*\n" % re.escape(str(path)), captured.err)
    assert message in captured.err


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


def test_report_joins_transcripts_with_their_session(tmp_path):
    # bugs.json names transcripts relative to its session directory
    session = tmp_path / "session"
    (session / cli.BUG_DIR).mkdir(parents=True)
    (session / cli.BUG_DIR / "bug-001.txt").write_text("GET / HTTP/1.1\r\n\r\n")
    meta = {"strategy": "byte", "block_count": 8}
    (session / cli.SESSION_JSON).write_text(json.dumps(meta))
    (session / cli.EVENTS_CSV).write_text(cli.CSV_HEADER + "\n")
    bug = {"bug_id": "bug-001", "statuses": [500], "seed": "s", "mutation": "m",
           "bitmap": "03", "transcript": os.path.join(cli.BUG_DIR, "bug-001.txt")}
    (session / cli.BUGS_JSON).write_text(json.dumps([bug]))
    report_dir = tmp_path / "report"
    assert cli.main(["report", "--session", str(session), "--out", str(report_dir)]) == 0
    with open(report_dir / "report_bugs.csv") as fh:
        row = fh.read().splitlines()[1]
    assert row.rsplit(",", 1)[1] == str(session / cli.BUG_DIR / "bug-001.txt")


def test_report_quotes_commas_in_session_names_and_mutations(tmp_path):
    session = tmp_path / "run,1"
    (session / cli.BUG_DIR).mkdir(parents=True)
    (session / cli.BUG_DIR / "bug-001.txt").write_text("GET / HTTP/1.1\r\n\r\n")
    (session / cli.SESSION_JSON).write_text(json.dumps({"strategy": "tree", "block_count": 8}))
    (session / cli.EVENTS_CSV).write_text(cli.CSV_HEADER + "\n")
    mutation = 'req 0 "a,b" -> "c"'
    bug = {"bug_id": "bug-001", "statuses": [201, 500], "seed": "s", "mutation": mutation,
           "bitmap": "03", "transcript": os.path.join(cli.BUG_DIR, "bug-001.txt")}
    (session / cli.BUGS_JSON).write_text(json.dumps([bug]))
    report_dir = tmp_path / "report"
    assert cli.main(["report", "--session", str(session), "--out", str(report_dir)]) == 0
    with open(report_dir / "report_bugs.csv", newline="") as fh:
        header, row = list(csv.reader(fh))
    assert len(row) == len(header) == 7
    assert dict(zip(header, row)) == {
        "strategy": "tree",
        "bug_id": "bug-001",
        "statuses": "201|500",
        "seed": "s",
        "mutation": mutation,
        "bitmap_blocks": "2",
        "transcript": str(session / cli.BUG_DIR / "bug-001.txt"),
    }


def test_report_reports_an_out_dir_it_cannot_create(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "afile").write_text("")
    session = tmp_path / "session"
    session.mkdir()
    (session / cli.SESSION_JSON).write_text(json.dumps({"strategy": "byte", "block_count": 8}))
    (session / cli.EVENTS_CSV).write_text(cli.CSV_HEADER + "\n")
    assert cli.main(["report", "--session", str(session), "--out", "afile/x"]) == 1
    assert capsys.readouterr().err == (
        "error: cannot write report: [Errno 20] Not a directory: 'afile/x'\n"
    )


@pytest.mark.parametrize(
    "name, text, message",
    [
        (cli.SESSION_JSON, "{not json",
         "malformed {session}/session.json (JSONDecodeError: Expecting property name"),
        (cli.BUGS_JSON, json.dumps([{"bug_id": "bug-001", "seed": "s", "mutation": "m",
                                     "bitmap": "03", "transcript": "bugs/bug-001.txt"}]),
         "malformed {session}/bugs.json (KeyError: 'statuses')"),
        (cli.EVENTS_CSV, None, "no events.csv in {session}\n"),
    ],
    ids=["session-not-json", "bug-without-statuses", "events-missing"],
)
def test_report_rejects_malformed_session_files(tmp_path, capsys, name, text, message):
    # the second of two sessions is at fault, after the first one parsed
    good, session = tmp_path / "good", tmp_path / "session"
    for d in (good, session):
        d.mkdir()
        (d / cli.SESSION_JSON).write_text(json.dumps({"strategy": "byte", "block_count": 8}))
        (d / cli.EVENTS_CSV).write_text(cli.CSV_HEADER + "\n0.1,3,1,0\n")
    if text is None:
        (session / name).unlink()
    else:
        (session / name).write_text(text)
    report_dir = tmp_path / "report"
    argv = ["report", "--session", str(good), str(session), "--out", str(report_dir)]
    assert cli.main(argv) == 1
    assert capsys.readouterr().err.startswith("error: " + message.format(session=session))
    assert not report_dir.exists()  # nothing is written before every file has been read


def test_report_rejects_non_session_dir(tmp_path, capsys):
    rc = cli.main(["report", "--session", str(tmp_path)])
    assert rc == 1
    assert "session" in capsys.readouterr().err
