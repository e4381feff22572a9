import dataclasses

import pytest

from restfuzz.grammar import TERMINAL, loads
from restfuzz.parsing import (
    LeafSpec,
    ParseError,
    canonicalize,
    derive_tokens,
    leaf_diff,
    leaf_rule_ids,
    marker_text,
    parse_test_case,
    render,
    replay_tokens,
)
from restfuzz.seedgen import build_case, generate_seeds

PING = """\
[alphabet http-methods]
GET
POST

[alphabet string]
a
b

[rule]
sequence -> request + sequence | eps
request -> method + path + header + body
method -> @http-methods
path -> static + path | eps
header -> static + header | eps
body -> static + body | string + body | eps
static -> @static
string -> @string

[request ping]
method GET
path "/ping"

[request echo]
method POST
path "/echo"
body "{\\"v\\":\\"" fuzz:string "\\"}"
"""

# same grammar plus a request carrying a dependency slot
PING_DEPS = PING + """
[rule]
path -> consumer + path
consumer -> @resource-ids

[request need]
method GET
path "/r/" consumer:thing
"""


@pytest.fixture(scope="module")
def ping_grammar():
    return loads(PING)


def rid(g, lhs, value=None, rhs=None):
    if rhs == ["eps"]:
        rhs = []  # epsilon rules store an empty right-hand side
    for r in g.rules:
        if r.lhs != lhs:
            continue
        if value is not None and r.value == value:
            return r.rule_id
        if rhs is not None and r.rhs == tuple(rhs):
            return r.rule_id
    raise AssertionError("no rule %s %r %r" % (lhs, value, rhs))


def test_single_request_token_structure(ping_grammar):
    """The DFS rule sequence of `GET /ping` spelled out by hand."""
    g = ping_grammar
    tc = parse_test_case("GET /ping HTTP/1.1\n", g)
    expected = [
        rid(g, "sequence", rhs=["request", "sequence"]),
        rid(g, "request", rhs=["method", "path", "header", "body"]),
        rid(g, "method", value="GET"),
        rid(g, "path", rhs=["static", "path"]),
        rid(g, "static", value="/ping"),
        rid(g, "path", rhs=["eps"]),
        rid(g, "header", rhs=["eps"]),
        rid(g, "body", rhs=["eps"]),
        rid(g, "sequence", rhs=["eps"]),
    ]
    assert tc.seq.tokens == expected


def test_two_request_sequence_nests_tail(ping_grammar):
    g = ping_grammar
    tc = parse_test_case("GET /ping HTTP/1.1\n\nGET /ping HTTP/1.1\n", g)
    seq_cons = rid(g, "sequence", rhs=["request", "sequence"])
    seq_eps = rid(g, "sequence", rhs=["eps"])
    assert tc.seq.tokens.count(seq_cons) == 2
    assert tc.seq.tokens[-1] == seq_eps
    assert len(tc.requests) == 2


def test_replay_matches_parse_structure(ping_grammar):
    g = ping_grammar
    tc = parse_test_case('POST /echo HTTP/1.1\n{"v":"a"}\n', g)
    info = replay_tokens(tc.seq.tokens, g)
    assert info.leaf_positions == tc.seq.leaf_index
    assert info.leaf_sections == ["method", "path", "body", "body", "body"]
    assert info.leaf_requests == [0, 0, 0, 0, 0]


def test_replay_rejects_incomplete_and_garbage(ping_grammar):
    g = ping_grammar
    tc = parse_test_case("GET /ping HTTP/1.1\n", g)
    with pytest.raises(ParseError):
        replay_tokens(tc.seq.tokens[:-1], g)
    with pytest.raises(ParseError):
        replay_tokens(tc.seq.tokens + [0], g)
    with pytest.raises(ParseError):
        replay_tokens([999], g)


def test_derive_tokens_inverts_replay(ping_grammar):
    g = ping_grammar
    tc = parse_test_case('POST /echo HTTP/1.1\n{"v":"b"}\n', g)
    info = replay_tokens(tc.seq.tokens, g)
    leaves = [
        LeafSpec(g.rules[tc.seq.tokens[pos]].rule_id, section=info.leaf_sections[i])
        for i, pos in enumerate(tc.seq.leaf_index)
    ]
    assert derive_tokens(g, leaves) == tc.seq.tokens
    # without section constraints the derivation may differ (statics are
    # ambiguous between path and body) but must still replay as valid
    bare = [LeafSpec(spec.rule_id) for spec in leaves]
    replay_tokens(derive_tokens(g, bare), g)


def test_derive_tokens_respects_sections(ping_grammar):
    """The same static leaf derives into path or body depending on the
    section constraint."""
    g = ping_grammar
    method = LeafSpec(rid(g, "method", value="GET"), section="method")
    s = rid(g, "string", value="a")
    as_body = derive_tokens(g, [method, LeafSpec(s, section="body")])
    info = replay_tokens(as_body, g)
    assert info.leaf_sections == ["method", "body"]


def test_render_parse_round_trip_with_markers():
    g = loads(PING_DEPS)
    text = "GET /r/%s HTTP/1.1\n" % marker_text("thing")
    tc = parse_test_case(text, g)
    assert render(tc, g) == canonicalize(text)


def test_payload_overrides_render_and_copy(ping_grammar):
    g = ping_grammar
    tc = parse_test_case('POST /echo HTTP/1.1\n{"v":"a"}\n', g)
    rs = tc.seq.copy()
    pos = rs.leaf_index[3]  # the body string leaf
    rs.payloads[pos] = "ZAP"
    assert "ZAP" in render(dataclasses.replace(tc, seq=rs), g)
    assert rs.leaf_value(3, g) == "ZAP"
    copied = rs.copy()
    assert copied == rs and copied.payloads is not rs.payloads
    copied.payloads[pos] = "ZIP"
    assert rs.payloads[pos] == "ZAP"


def test_leaf_value_precedence(ping_grammar):
    g = loads(PING_DEPS)
    tc = parse_test_case("GET /r/%s HTTP/1.1\n" % marker_text("thing"), g)
    rs = tc.seq
    # ordinal 2 is the consumer leaf: marker by default, payload once set
    assert rs.leaf_value(2, g) == marker_text("thing")
    rs.payloads[rs.leaf_index[2]] = "42"
    assert rs.leaf_value(2, g) == "42"


def test_canonicalize_normalises_whitespace():
    messy = "GET /ping HTTP/1.1  \r\n\r\n\r\n\r\nGET /ping HTTP/1.1\r\n\r\n"
    canon = canonicalize(messy)
    assert canon == "GET /ping HTTP/1.1\n\nGET /ping HTTP/1.1\n"
    assert canonicalize(canon) == canon


def test_parse_errors_on_malformed_text(ping_grammar):
    g = ping_grammar
    with pytest.raises(ParseError):
        parse_test_case("", g)
    with pytest.raises(ParseError):
        parse_test_case("GET\n", g)  # no path / version
    with pytest.raises(ParseError):
        parse_test_case("FLY /ping HTTP/1.1\n", g)  # unknown method
    with pytest.raises(ParseError):
        parse_test_case("GET /nope HTTP/1.1\n", g)  # unknown layout


def test_leaf_diff_alignment_and_overhang(ping_grammar):
    g = ping_grammar
    a = parse_test_case('POST /echo HTTP/1.1\n{"v":"a"}\n', g).seq.tokens
    b = parse_test_case('POST /echo HTTP/1.1\n{"v":"b"}\n', g).seq.tokens
    d = leaf_diff(a, b, g)
    assert d.common == [0, 1, 2, 4]
    assert d.different == [3]
    longer = parse_test_case('POST /echo HTTP/1.1\n{"v":"a"}\n\nGET /ping HTTP/1.1\n', g).seq.tokens
    d2 = leaf_diff(a, longer, g)
    assert d2.common == [0, 1, 2, 3, 4]
    assert d2.different == [5, 6]  # overhang ordinals
    assert leaf_rule_ids([999, -4] + a, g) == leaf_rule_ids(a, g)


def test_request_views_group_ordinals(ref_grammar):
    g = ref_grammar
    from .conftest import chain_by_names

    chain = chain_by_names(g, 3, ("create-project", "create-branch", "create-commit"))
    tc = build_case(g, chain, [["testString"], ["master"], ["feature1", "create", "feature1"]])
    assert len(tc.requests) == 3
    seen = set()
    for view in tc.requests:
        ords = [view.method] + view.path + [o for kv in view.headers for o in kv] + view.body
        assert seen.isdisjoint(ords)
        seen.update(ords)
    assert seen == set(range(tc.seq.n_leaves()))


def test_corpus_round_trip_property(ref_grammar):
    """Every generated seed re-renders to its own text."""
    corpus = generate_seeds(ref_grammar, max_len=3, dict_values_per_type=2)
    assert corpus.seeds
    for seed in corpus.seeds:
        tc = parse_test_case(seed.text, ref_grammar)
        assert render(tc, ref_grammar) == canonicalize(seed.text), seed.seed_id
        # the parser and the generator build leaves the same way
        assert tc.seq.tokens == seed.case.seq.tokens, seed.seed_id
        assert tc.seq.payloads == seed.case.seq.payloads, seed.seed_id
        assert tc.requests == seed.case.requests, seed.seed_id


def test_parse_rejects_static_header_mismatch(ref_grammar):
    """A header whose layout value is static must carry exactly that text."""
    g = ref_grammar
    seed = generate_seeds(g, max_len=1, dict_values_per_type=1).seeds[0]
    assert "PRIVATE-TOKEN: " in seed.text
    parse_test_case(seed.text, g)
    forged = seed.text.replace("PRIVATE-TOKEN: DRiX47nuEP2AR", "PRIVATE-TOKEN: forged")
    assert forged != seed.text
    with pytest.raises(ParseError, match="expected static"):
        parse_test_case(forged, g)
