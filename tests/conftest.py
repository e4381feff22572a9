import json
import os
import socket

import pytest

from restfuzz import autoencoder as ae
from restfuzz import coverage, execution
from restfuzz.execution import TargetConfig
from restfuzz.grammar import load_grammar, packaged_reference_grammar
from restfuzz.seedgen import build_case, enumerate_chains, generate_seeds, write_corpus
from restfuzz.target import _Response, serve

TESTS_DIR = os.path.dirname(os.path.abspath(__file__))
DATA_DIR = os.path.join(TESTS_DIR, "data")


def data_path(name: str) -> str:
    return os.path.join(DATA_DIR, name)


@pytest.fixture(scope="session")
def ref_grammar():
    return load_grammar(packaged_reference_grammar())


@pytest.fixture(scope="session")
def live_target():
    srv = serve()
    yield srv
    srv.stop()


@pytest.fixture(scope="session")
def target_cfg(live_target):
    cfg = TargetConfig(base_url=live_target.base_url)
    yield cfg
    cfg.close()


@pytest.fixture
def connection_counts(monkeypatch):
    """Counts the sockets opened and the responses after which the client
    must not reuse its socket (``Connection: close`` and the like)."""
    counts = {"opened": 0, "closing": 0}
    connect = socket.create_connection
    recv_response = execution._recv_response

    def counted_connect(*args, **kwargs):
        counts["opened"] += 1
        return connect(*args, **kwargs)

    def counted_recv(sock, rest=b""):
        response = recv_response(sock, rest)
        counts["closing"] += response[3]
        return response

    monkeypatch.setattr(socket, "create_connection", counted_connect)
    monkeypatch.setattr(execution, "_recv_response", counted_recv)
    return counts


def request_wire(cfg, method, path, body=""):
    """One request with ``cfg``'s token and a latin-1 ``body``, as bytes."""
    payload = body.encode("latin-1")
    head = "%s %s HTTP/1.1\r\nHost: %s\r\n%s: %s\r\nContent-Length: %d\r\n\r\n" % (
        method, path, cfg.host, cfg.auth_header, cfg.auth_value, len(payload)
    )
    return head.encode("latin-1") + payload


def windowed_request(cfg, method, path, body=""):
    """Send one API request with ``cfg``'s token on its case connection:
    the answer's status, its body text and the coverage window it
    carried."""
    status, _reason, text, window = cfg._case.roundtrip(request_wire(cfg, method, path, body))
    return status, text, coverage.fetch_and_reset_coverage(window)


def count_target_resets(monkeypatch, srv, refuse_after=None) -> list:
    """Counts the state resets ``srv`` serves, whichever connection
    carries them: a one-item list.  Past ``refuse_after`` resets, each
    gets a 503 instead."""
    served = [0]
    channels = dict(srv._SIDE_CHANNELS)
    key = ("/__reset__", "POST")  # (path, method)
    reset = channels[key]

    def counted(target):
        served[0] += 1
        if refuse_after is not None and served[0] > refuse_after:
            return _Response(503, {"message": "busy"})
        return reset(target)

    channels[key] = counted
    monkeypatch.setattr(srv, "_SIDE_CHANNELS", channels)
    return served


def peek_coverage(cfg) -> int:
    """The target's coverage bitmap as an int, read without clearing it."""
    status, body = execution.http_request(cfg, "GET", "/__coverage__")
    assert status == 200
    return int(json.loads(body)["bitmap"], 16)


def chain_by_names(g, max_len, names):
    for chain in enumerate_chains(g, max_len):
        if tuple(chain) == names:
            return chain
    raise AssertionError("chain %r not enumerated" % (names,))


@pytest.fixture(scope="session")
def two_seed_sequences(ref_grammar):
    """A one-request and a two-request seed used for overfit training."""
    g = ref_grammar
    p = chain_by_names(g, 2, ("create-project",))
    pb = chain_by_names(g, 2, ("create-project", "create-branch"))
    x1 = build_case(g, p, [["testString"]]).seq
    x2 = build_case(g, pb, [["testString"], ["master"]]).seq
    return [x1, x2]


@pytest.fixture(scope="session")
def overfit_model(ref_grammar, two_seed_sequences):
    """Small autoencoder trained to exact reconstruction on two seeds."""
    hp = ae.Hyperparams(
        hidden_dim=64,
        embedding_dim=32,
        steps=400,
        batch_size=2,
        max_seq_len=64,
        rng_seed=3,
    )
    m = ae.train(two_seed_sequences, hp, grammar_hash=ref_grammar.grammar_hash())
    for s in two_seed_sequences:
        assert ae.decode(m, ae.encode(m, s)) == s.tokens, "overfit fixture failed"
    return m


@pytest.fixture(scope="session")
def validated_corpus_dir(tmp_path_factory, ref_grammar, target_cfg):
    """Seed corpus validated against the live reference target."""
    corpus = generate_seeds(
        ref_grammar, max_len=3, dict_values_per_type=2, validate_cfg=target_cfg
    )
    directory = tmp_path_factory.mktemp("seeds")
    write_corpus(corpus, str(directory))
    return str(directory)
