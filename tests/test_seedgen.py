"""Tests for seed generation: chain enumeration, search-space counting,
corpus materialisation and validation against the live service."""

import hashlib
import itertools
import os

import pytest

from restfuzz import execution
from restfuzz.execution import TargetConfig, execute_test_case
from restfuzz.grammar import load_grammar, loads
from restfuzz.parsing import canonicalize, render
from restfuzz.seedgen import (
    _slot_value_lists,
    build_case,
    chain_combinations,
    count_sequences,
    enumerate_chains,
    generate_seeds,
    load_corpus,
    renderings_per_chain,
    write_corpus,
)

from .conftest import count_target_resets, data_path

TINY = """\
[alphabet http-methods]
POST
GET

[alphabet string]
aa
bb

[rule]
sequence -> request + sequence | eps
request -> method + path + header + body
method -> @http-methods
path -> static + path | consumer + path | eps
header -> eps
body -> static + body | string + body | producer + body | eps
static -> @static
string -> @string
producer -> @resource-ids
consumer -> @resource-ids

[request make-thing]
method POST
path "/things"
body "{\\"id\\":\\"" producer:thing-id "\\"}"
produces thing-id

[request use-thing]
method GET
path "/things/" consumer:thing-id

[request ping]
method GET
path "/ping"

[request shout]
method POST
path "/shout"
body "{\\"a\\":\\"" fuzz:string "\\",\\"b\\":\\"" fuzz:string "\\"}"
"""


# uuid values outside the uuid rule's alphabet: each seed carries them as
# payloads on the first uuid terminal
UUID_PAYLOADS = """\
[alphabet http-methods]
POST

[alphabet uuid]
u-1
u-2

[alphabet uuid-pool]
u-0

[rule]
sequence -> request + sequence | eps
request -> method + path + header + body
method -> @http-methods
path -> static + path | eps
header -> eps
body -> static + body | uuid + body | eps
static -> @static
uuid -> @uuid-pool

[request tag]
method POST
path "/tags"
body "{\\"a\\":\\"" fuzz:uuid "\\",\\"b\\":\\"" fuzz:uuid "\\"}"
"""


@pytest.fixture(scope="module")
def tiny():
    return loads(TINY)


# ------------------------------------------------------------ enumeration


def test_chain_enumeration_respects_dependencies(tiny):
    chains = enumerate_chains(tiny, 2)
    # consumers need a producer earlier in the chain; unrelated requests
    # never extend a chain they share nothing with
    assert ("use-thing",) not in chains
    assert ("make-thing", "use-thing") in chains
    assert ("make-thing", "make-thing") not in chains
    assert ("make-thing", "ping") not in chains
    assert ("ping", "ping") not in chains
    singles = [c for c in chains if len(c) == 1]
    assert singles == [("make-thing",), ("ping",), ("shout",)]


def test_chains_come_out_in_bfs_length_order(tiny):
    chains = enumerate_chains(tiny, 3)
    lengths = [len(c) for c in chains]
    assert lengths == sorted(lengths)
    assert ("make-thing", "use-thing", "use-thing") in chains


def test_reference_chain_shapes(ref_grammar):
    chains = enumerate_chains(ref_grammar, 3)
    assert chains[0] == ("create-project",)
    assert ("create-project", "create-branch", "create-commit") in chains
    assert ("create-commit",) not in chains
    for chain in chains:
        assert chain[0] == "create-project"  # the only root producer


# --------------------------------------------------------------- counting


def test_renderings_formula(tiny):
    # two string slots, k candidate values each
    assert renderings_per_chain(tiny, ("shout",), 2) == 4
    assert renderings_per_chain(tiny, ("shout",), 1) == 1
    # dependency slots are not dictionary slots
    assert renderings_per_chain(tiny, ("make-thing", "use-thing"), 2) == 1
    assert renderings_per_chain(tiny, ("make-thing", "shout"), 2) == 4


def test_reference_search_space_frozen_counts(ref_grammar):
    assert count_sequences(ref_grammar, 4, 2) == {
        1: (1, 2),
        2: (3, 8),
        3: (10, 64),
        4: (36, 704),
    }


def test_wide_api_search_space_counts():
    g = load_grammar(data_path("project_api_state_space.grammar"))
    stats = count_sequences(g, 5, 2)
    assert stats[5][0] == 20_736
    assert stats[5][1] == 234_256
    n_chains = sum(c for c, _ in stats.values())
    n_renderings = sum(r for _, r in stats.values())
    assert round(n_renderings / n_chains) == 11


# ------------------------------------------------------------ build_case


def test_build_case_dictionary_values_become_tokens(tiny):
    tc = build_case(tiny, ("shout",), [["aa", "bb"]])
    assert tc.seq.payloads == {}
    values = [
        tiny.rules[tc.seq.tokens[pos]].value for pos in tc.seq.leaf_index
    ]
    assert "aa" in values and "bb" in values
    assert render(tc, tiny).startswith("POST /shout")


def test_build_case_rejects_unknown_value(tiny):
    with pytest.raises(ValueError, match="no terminal rule"):
        build_case(tiny, ("shout",), [["aa", "zz"]])


# ------------------------------------------------------- corpus generation


def test_generate_seeds_orders_and_ids(tiny):
    corpus = generate_seeds(tiny, max_len=2, dict_values_per_type=2)
    assert not corpus.partial
    assert [s.seed_id for s in corpus.seeds] == [
        "seed-%05d" % (i + 1) for i in range(len(corpus.seeds))
    ]
    lengths = [len(s.chain) for s in corpus.seeds]
    assert lengths == sorted(lengths)
    # every (chain, value-combo) is materialised exactly once
    assert len({s.text for s in corpus.seeds}) == len(corpus.seeds)


def test_generate_seeds_budget_sets_partial_flag(tiny):
    full = generate_seeds(tiny, max_len=2, dict_values_per_type=2)
    cut = generate_seeds(tiny, max_len=2, dict_values_per_type=2, budget=3)
    assert cut.partial and len(cut.seeds) == 3
    assert [s.text for s in cut.seeds] == [s.text for s in full.seeds[:3]]
    roomy = generate_seeds(
        tiny, max_len=2, dict_values_per_type=2, budget=10_000
    )
    assert not roomy.partial and len(roomy.seeds) == len(full.seeds)


def test_corpus_write_load_round_trip(tmp_path, tiny):
    corpus = generate_seeds(tiny, max_len=2, dict_values_per_type=2)
    directory = str(tmp_path / "seeds")
    write_corpus(corpus, directory)
    index = os.path.join(directory, "index.txt")
    assert os.path.exists(index)
    loaded = load_corpus(directory, tiny)
    assert [sid for sid, _ in loaded] == [s.seed_id for s in corpus.seeds]
    for (sid, case), seed in zip(loaded, corpus.seeds):
        assert render(case, tiny) == canonicalize(seed.text), sid
    os.remove(index)  # sorted-filename fallback must agree
    assert [sid for sid, _ in load_corpus(directory, tiny)] == sorted(
        s.seed_id for s in corpus.seeds
    )


def test_validated_corpus_is_all_2xx(ref_grammar, target_cfg, validated_corpus_dir):
    loaded = load_corpus(validated_corpus_dir, ref_grammar)
    assert len(loaded) == 14
    commit_bearing = 0
    with open(os.path.join(validated_corpus_dir, "index.txt")) as fh:
        for line in fh:
            if not line.startswith("#") and "create-commit" in line:
                commit_bearing += 1
    assert commit_bearing == 1
    for seed_id, case in loaded:
        result = execute_test_case(case, ref_grammar, target_cfg, case_id=seed_id)
        assert result.verdict == "pass", (seed_id, result.statuses)
        assert all(200 <= s < 300 for s in result.statuses), (
            seed_id,
            result.statuses,
        )


def test_validation_drops_failing_seeds(tiny, ref_grammar, target_cfg):
    # the reference grammar's unvalidated corpus includes commits whose
    # actions hit files that do not exist yet; validation prunes them
    raw = generate_seeds(ref_grammar, max_len=3, dict_values_per_type=2)
    validated = generate_seeds(
        ref_grammar, max_len=3, dict_values_per_type=2, validate_cfg=target_cfg
    )
    assert 0 < len(validated.seeds) < len(raw.seeds)
    validated_texts = {s.text for s in validated.seeds}
    assert validated_texts <= {s.text for s in raw.seeds}


def test_seed_validation_keeps_one_case_connection(ref_grammar, live_target, connection_counts):
    # the quick-start corpus: 74 candidates, each validated as one case
    cfg = TargetConfig(base_url=live_target.base_url)
    try:
        corpus = generate_seeds(ref_grammar, max_len=3, dict_values_per_type=2, validate_cfg=cfg)
    finally:
        cfg.close()
    assert len(corpus.seeds) == 14
    # the state resets ride the case connection too: no control connection
    assert connection_counts["opened"] <= 1 + connection_counts["closing"]


# sha256 over each file of the validated quick-start corpus (max_len=3,
# dict_values=2), sorted by name: name, NUL, bytes, NUL
QUICK_START_CORPUS_SHA256 = "8ace3f6d46683834f1319c8c422eedd96304af0677c06a896595d355a6913497"


def test_quick_start_corpus_is_pinned(validated_corpus_dir):
    digest = hashlib.sha256()
    names = sorted(os.listdir(validated_corpus_dir))
    for name in names:
        with open(os.path.join(validated_corpus_dir, name), "rb") as fh:
            digest.update(name.encode() + b"\0" + fh.read() + b"\0")
    assert len(names) == 15  # index.txt and 14 seeds
    assert digest.hexdigest() == QUICK_START_CORPUS_SHA256


def test_chain_combinations_nest_per_request_products(ref_grammar):
    for chain in enumerate_chains(ref_grammar, 3):
        per_request = [
            list(itertools.product(*_slot_value_lists(ref_grammar.requests_by_name[n], ref_grammar, 3)))
            for n in chain
        ]
        assert list(chain_combinations(ref_grammar, chain, 3)) == [
            list(combo) for combo in itertools.product(*per_request)
        ], chain


@pytest.mark.parametrize(
    "grammar, max_len, k, budget",
    [
        ("reference", 3, 2, None),
        ("reference", 3, 3, None),
        ("reference", 4, 2, None),
        ("project_api_state_space.grammar", 3, 2, None),
        # one chain of 2**33 combinations: the first 300 vary its last slots
        ("commit_multi_action.grammar", 1, 2, 300),
        ("uuid-payloads", 1, 2, None),
    ],
    ids=["ref-3-2", "ref-3-3", "ref-4-2", "project-api-3-2", "commit-multi-action-1-2",
         "uuid-payloads"],
)
def test_refilled_cases_match_a_fresh_derivation(ref_grammar, grammar, max_len, k, budget):
    # generate_seeds derives each chain once and refills the leaves of
    # every later combination; build_case derives every one afresh
    if grammar == "reference":
        g = ref_grammar
    elif grammar == "uuid-payloads":
        g = loads(UUID_PAYLOADS)
    else:
        g = load_grammar(data_path(grammar))
    corpus = generate_seeds(g, max_len, k, budget=budget)
    candidates = [  # islice: never list a chain's 2**33 combinations
        (chain, combo)
        for chain in enumerate_chains(g, max_len)
        for combo in itertools.islice(chain_combinations(g, chain, k), budget)
    ][:budget]
    assert len(corpus.seeds) == len(candidates)
    for seed, (chain, combo) in zip(corpus.seeds, candidates):
        fresh = build_case(g, chain, combo)
        assert seed.chain == chain
        assert seed.case.seq.tokens == fresh.seq.tokens, (chain, combo)
        assert seed.case.seq.payloads == fresh.seq.payloads, (chain, combo)
        assert seed.case.seq.leaf_index == fresh.seq.leaf_index, (chain, combo)
        assert seed.case.requests == fresh.requests, (chain, combo)
        assert seed.text == render(fresh, g)
    if grammar == "uuid-payloads":
        assert [len(seed.case.seq.payloads) for seed in corpus.seeds] == [2, 2, 2, 2]


def test_validation_stops_each_candidate_at_its_first_non_2xx_answer(
    ref_grammar, live_target, monkeypatch
):
    counts = {"resets": 0, "sent": 0}
    results = []
    execute = execution.execute_test_case
    served = count_target_resets(monkeypatch, live_target)

    def kept_execute(*args, **kwargs):
        results.append(execute(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(execution, "execute_test_case", kept_execute)
    cfg = TargetConfig(base_url=live_target.base_url)
    roundtrip = cfg._case.roundtrip

    def counted_roundtrip(wire, reset=b""):
        counts["sent"] += 1
        counts["resets"] += bool(reset)  # riding ahead of a first request
        return roundtrip(wire, reset)

    monkeypatch.setattr(cfg._case, "roundtrip", counted_roundtrip)
    try:
        corpus = generate_seeds(ref_grammar, max_len=3, dict_values_per_type=2, validate_cfg=cfg)
    finally:
        cfg.close()
    assert len(corpus.seeds) == 14
    assert corpus.validated == len(results) == counts["resets"] == served[0] == 74
    # every request of every candidate would be 210
    assert counts["sent"] == sum(len(r.statuses) for r in results) == 130
    dropped = 0
    for result in results:
        *before, last = result.statuses
        assert all(200 <= s < 300 for s in before), result.statuses
        dropped += not 200 <= last < 300
    assert dropped == 74 - 14
