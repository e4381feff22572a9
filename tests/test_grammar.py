import pytest

from restfuzz.grammar import (
    EPSILON,
    STRUCTURAL,
    TERMINAL,
    GrammarError,
    check_tail_recursive,
    escape,
    load_grammar,
    loads,
    packaged_reference_grammar,
    terminal_rules,
    unescape,
)

from .conftest import data_path

MINI = """\
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
body -> string + body | eps
static -> @static
string -> @string

[request ping]
method GET
path "/ping"
"""


def test_escape_unescape_round_trip():
    tricky = 'a "quoted" piece\\with\tweird\xff bytes\n'
    assert unescape(escape(tricky)) == tricky


def test_unescape_rejects_bad_escapes():
    with pytest.raises(GrammarError):
        unescape("trailing\\")
    with pytest.raises(GrammarError):
        unescape("\\q")
    with pytest.raises(GrammarError):
        unescape("\\x9")


def test_loads_assigns_dense_rule_ids():
    g = loads(MINI)
    assert [r.rule_id for r in g.rules] == list(range(len(g.rules)))
    kinds = {r.kind for r in g.rules}
    assert kinds == {STRUCTURAL, TERMINAL, EPSILON}


def test_auto_registration_of_layout_literals():
    g = loads(MINI)
    # method GET was declared; the static "/ping" only appears in the layout
    assert g.terminal_rule("method", "GET") is not None
    assert g.terminal_rule("static", "/ping") is not None
    assert "/ping" in g.alphabets["static"]


def test_alphabet_expansion_orders_terminals_by_alphabet_order():
    g = loads(MINI)
    strings = [r for r in g.rules if r.lhs == "string" and r.kind == TERMINAL]
    assert [r.value for r in strings] == ["a", "b"]


def test_duplicate_alphabet_values_collapse():
    g = loads(MINI.replace("a\nb\n", "a\na\nb\n"))
    strings = [r for r in g.rules if r.lhs == "string" and r.kind == TERMINAL]
    assert [r.value for r in strings] == ["a", "b"]


def test_unknown_nonterminal_rejected():
    with pytest.raises(GrammarError):
        loads(MINI.replace("path -> static + path", "path -> nothere + path"))


def test_alphabet_ref_must_be_sole_symbol():
    with pytest.raises(GrammarError):
        loads(MINI.replace("method -> @http-methods", "method -> @http-methods + path"))


def test_unknown_fuzzable_type_rejected():
    with pytest.raises(GrammarError):
        loads(MINI + 'body fuzz:floaty\n')


def test_header_needs_key_and_value():
    bad = MINI + 'header "only-key"\n'
    with pytest.raises(GrammarError):
        loads(bad)


def test_missing_method_rejected():
    bad = MINI.replace("method GET\n", "")
    with pytest.raises(GrammarError):
        loads(bad)


def test_unterminated_quote_rejected():
    with pytest.raises(GrammarError):
        loads(MINI + 'path "oops\n')


def test_tail_recursion_checker_accepts_reference():
    g = load_grammar(packaged_reference_grammar())
    assert check_tail_recursive(g) == []


def test_tail_recursion_checker_flags_left_recursion():
    bad = MINI.replace("path -> static + path | eps", "path -> path + static | eps")
    assert bad != MINI
    with pytest.raises(GrammarError, match="non-tail position"):
        loads(bad)


def test_grammar_hash_stable_and_content_sensitive():
    g1 = loads(MINI)
    g2 = loads(MINI)
    assert g1.grammar_hash() == g2.grammar_hash()
    g3 = loads(MINI.replace("a\nb", "a\nc"))
    assert g3.grammar_hash() != g1.grammar_hash()


def test_reference_grammar_hash_is_pinned():
    # checkpoints store this digest; a model trained before a change to it
    # would be refused by encode and fuzz
    g = load_grammar(packaged_reference_grammar())
    assert g.grammar_hash() == "caa35522f5f91ad866cb3a9f945afec0ad853af7b4dcad109b97e82189c14ae8"


def test_reference_grammar_shape():
    g = load_grammar(packaged_reference_grammar())
    assert len(g.requests) == 5
    names = [rq.name for rq in g.requests]
    assert names == [
        "create-project",
        "create-branch",
        "list-branches",
        "create-commit",
        "get-project",
    ]
    assert len(g.rules) == 58
    assert len(terminal_rules(g)) == 41
    # first three rules form the request-chaining spine
    assert g.rules[0].rhs == ("request", "sequence")
    assert g.rules[1].kind == EPSILON
    assert g.rules[2].lhs == "request"
    # every layout authenticates
    for rq in g.requests:
        assert rq.headers, rq.name
        assert rq.headers[0][0].value == "PRIVATE-TOKEN: "


def test_layout_dependency_bookkeeping():
    g = load_grammar(packaged_reference_grammar())
    create = g.requests_by_name["create-branch"]
    assert create.consumed_resources() == {"project-id"}
    assert create.produced_resources() == {"branch-name"}
    commit = g.requests_by_name["create-commit"]
    assert commit.consumed_resources() == {"project-id", "branch-name"}
    assert commit.produced_resources() == set()


def test_fixture_grammars_load_and_are_tail_recursive():
    for name in ("commit_multi_action.grammar", "project_api_state_space.grammar"):
        g = load_grammar(data_path(name))
        assert check_tail_recursive(g) == []
        assert g.requests
