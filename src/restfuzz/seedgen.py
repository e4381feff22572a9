"""Breadth-first seed-corpus generation from request layouts.

Enumerates request chains in BFS order by length.  A chain grows by one
request at a time; the new request must have all consumed resource
types produced earlier in the chain, and (beyond the first position)
must actually consume something the prefix produced — otherwise
unrelated requests would multiply the state space without adding any
dependency structure.

Each chain is instantiated into concrete seeds by filling every
fuzzable slot with the first ``dict_values_per_type`` values of its
alphabet (cross product).  Dependency slots stay as placeholder
markers; the executor resolves them from live responses.  Requests are
turned into leaves by ``parsing.layout_leaves``, the builder the seed
parser uses too, so a written seed parses back to the case built.  A
chain's combinations share one derivation (see ``_refill``).
"""

from __future__ import annotations

import itertools
import os
from dataclasses import dataclass

from .grammar import FUZZABLE_KINDS, Grammar, RequestLayout
from .parsing import (
    LeafSpec,
    ParseError,
    RuleSequence,
    TestCase,
    layout_leaves,
    marker_text,
    parse_test_case,
    render,
)

INDEX_NAME = "index.txt"


@dataclass
class Seed:
    seed_id: str
    chain: tuple[str, ...]
    text: str
    case: TestCase


@dataclass
class SeedCorpus:
    seeds: list[Seed]
    partial: bool  # True when the budget cut enumeration short
    max_len: int
    dict_values_per_type: int
    validated: int  # candidates executed against the target


def enumerate_chains(g: Grammar, max_len: int) -> list[tuple[str, ...]]:
    """All dependency-consistent layout chains, BFS order by length."""
    chains: list[tuple[str, ...]] = []
    frontier: list[tuple[tuple[str, ...], set[str]]] = [((), set())]
    for _length in range(1, max_len + 1):
        nxt: list[tuple[tuple[str, ...], set[str]]] = []
        for chain, produced in frontier:
            for layout in g.requests:
                consumed = layout.consumed_resources()
                if not consumed <= produced:
                    continue
                if chain and not (consumed & produced):
                    # nothing ties this request to the prefix
                    continue
                new_chain = chain + (layout.name,)
                nxt.append((new_chain, produced | layout.produced_resources()))
        chains.extend(c for c, _ in nxt)
        frontier = nxt
    return chains


def _slot_value_lists(layout: RequestLayout, g: Grammar, k: int):
    """Per-fuzzable-slot candidate values (first k of each alphabet)."""
    lists = []
    for chunk in layout.fuzzable_chunks():
        values = g.alphabets.get(chunk.kind, [])
        if not values:
            raise ValueError(
                "layout %r: no alphabet values for fuzzable type %r"
                % (layout.name, chunk.kind)
            )
        lists.append(values[:k])
    return lists


def renderings_per_chain(g: Grammar, chain: tuple[str, ...], k: int) -> int:
    total = 1
    for name in chain:
        for values in _slot_value_lists(g.requests_by_name[name], g, k):
            total *= len(values)
    return total


def count_sequences(g: Grammar, max_len: int, dict_values_per_type: int = 2):
    """Size of the instantiated search space per chain length.

    Returns {length: (n_chains, n_renderings)} without materialising
    any seed text.
    """
    stats: dict[int, list[int]] = {}
    for chain in enumerate_chains(g, max_len):
        n = renderings_per_chain(g, chain, dict_values_per_type)
        bucket = stats.setdefault(len(chain), [0, 0])
        bucket[0] += 1
        bucket[1] += n
    return {length: (c, r) for length, (c, r) in sorted(stats.items())}


def chain_combinations(g: Grammar, chain: tuple[str, ...], k: int):
    """Yield every combination of dictionary values for ``chain``, one
    tuple of fuzzable-slot values per request, in cross-product order.

    One flat product over all slots gives the order of nesting products
    per request, but never materialises a request's combinations."""
    per_request = [_slot_value_lists(g.requests_by_name[name], g, k) for name in chain]
    for flat in itertools.product(*(values for lists in per_request for values in lists)):
        combo, start = [], 0
        for lists in per_request:
            combo.append(flat[start : start + len(lists)])
            start += len(lists)
        yield combo


def _chain_leaves(g: Grammar, chain: tuple[str, ...], values_per_request) -> list[LeafSpec]:
    """The leaves of ``chain`` with the given fuzzable-slot values;
    dependency slots keep their placeholder marker."""
    leaves: list[LeafSpec] = []
    for name, values in zip(chain, values_per_request):
        layout = g.requests_by_name[name]
        fuzzed = iter(values)
        slot_values = [
            next(fuzzed) if c.kind in FUZZABLE_KINDS else marker_text(c.resource)
            for c in layout.all_chunks()
            if c.kind != "static"
        ]
        leaves.extend(layout_leaves(g, layout, slot_values))
    return leaves


def build_case(g: Grammar, chain: tuple[str, ...], values_per_request) -> TestCase:
    """Assemble a TestCase for a chain with given fuzzable-slot values,
    deriving its tokens afresh; dependency slots keep their placeholder
    marker."""
    return TestCase.from_leaves(g, _chain_leaves(g, chain, values_per_request))


def _refill(case: TestCase, leaves: list[LeafSpec]) -> TestCase:
    """``case`` with each leaf's rule id and payload taken from ``leaves``.

    Only for ``leaves`` of another combination of ``case``'s chain.  Every
    combination of a chain has the same left-hand side and section at each
    leaf position: the layout fixes both, and a value only selects a
    terminal of its chunk's kind.  ``derive_tokens`` therefore finds the
    same derivation with only the leaf tokens changed, and the replay the
    same leaf positions and request views, which are reused."""
    seq = case.seq
    tokens = list(seq.tokens)
    payloads = {}
    for pos, spec in zip(seq.leaf_index, leaves):
        tokens[pos] = spec.rule_id
        if spec.payload is not None:
            payloads[pos] = spec.payload
    return TestCase(RuleSequence(tokens, payloads, list(seq.leaf_index)), case.requests)


def check_seed_settings(max_len: int, dict_values_per_type: int, budget: int | None) -> None:
    """Raise ValueError for a count below 1 (``budget`` None means no cap)."""
    for name, value in (
        ("max_len", max_len), ("dict_values_per_type", dict_values_per_type), ("budget", budget)
    ):
        if value is not None and value < 1:
            raise ValueError("%s must be >= 1, got %d" % (name, value))


def generate_seeds(
    g: Grammar,
    max_len: int,
    dict_values_per_type: int = 2,
    budget: int | None = None,
    validate_cfg=None,
    log=None,
) -> SeedCorpus:
    """Enumerate and instantiate seeds; optionally keep only seeds whose
    execution against ``validate_cfg``, from a reset target state, yields
    all-2xx responses.

    Each chain's first combination is built by ``build_case``; the others
    refill its derivation (``_refill``).  Validation stops a candidate at
    its first answer outside 2xx, which already drops it, and ``log``
    gets the statuses up to that answer.  Only kept seeds are rendered."""
    check_seed_settings(max_len, dict_values_per_type, budget)
    if validate_cfg is not None:
        from .execution import execute_test_case

    seeds: list[Seed] = []
    validated = 0
    for chain in enumerate_chains(g, max_len):
        first = None
        for combo in chain_combinations(g, chain, dict_values_per_type):
            if budget is not None and len(seeds) >= budget:
                return SeedCorpus(seeds, True, max_len, dict_values_per_type, validated)
            if first is None:
                case = first = build_case(g, chain, combo)
            else:
                case = _refill(first, _chain_leaves(g, chain, combo))
            if validate_cfg is not None:
                validated += 1
                result = execute_test_case(
                    case, g, validate_cfg, case_id="validate-%d" % validated,
                    stop_at_non_2xx=True,
                )
                ok = bool(result.statuses) and all(
                    200 <= s < 300 for s in result.statuses
                )
                if log:
                    log("validate %s %s -> %s" % (chain, result.statuses, "keep" if ok else "drop"))
                if not ok:
                    continue
            seed_id = "seed-%05d" % (len(seeds) + 1)
            seeds.append(Seed(seed_id=seed_id, chain=chain, text=render(case, g), case=case))
    return SeedCorpus(seeds, False, max_len, dict_values_per_type, validated)


def write_corpus(corpus: SeedCorpus, directory: str) -> None:
    os.makedirs(directory, exist_ok=True)
    index_lines = [
        "# seed_id\tn_requests\tchain",
        "# max_len=%d dict_values_per_type=%d partial=%s"
        % (corpus.max_len, corpus.dict_values_per_type, corpus.partial),
    ]
    for seed in corpus.seeds:
        path = os.path.join(directory, seed.seed_id + ".txt")
        with open(path, "w", encoding="latin-1") as fh:
            fh.write(seed.text)
        index_lines.append(
            "%s\t%d\t%s" % (seed.seed_id, len(seed.chain), ",".join(seed.chain))
        )
    with open(os.path.join(directory, INDEX_NAME), "w", encoding="utf-8") as fh:
        fh.write("\n".join(index_lines) + "\n")


def load_corpus(directory: str, g: Grammar) -> list[tuple[str, TestCase]]:
    """Read back seed files: those the index lists, in its order, or
    without an index every ``seed-*.txt`` by name, so that no other file
    in the directory (a distilled id list, say) is read as a seed."""
    index_path = os.path.join(directory, INDEX_NAME)
    seed_ids: list[str] = []
    if os.path.exists(index_path):
        with open(index_path, "r", encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                seed_ids.append(line.split("\t")[0])
    else:
        seed_ids = sorted(
            name[:-4]
            for name in os.listdir(directory)
            if name.startswith("seed-") and name.endswith(".txt")
        )
    out = []
    for seed_id in seed_ids:
        path = os.path.join(directory, seed_id + ".txt")
        with open(path, "r", encoding="latin-1") as fh:
            try:
                out.append((seed_id, parse_test_case(fh.read(), g)))
            except ParseError as exc:
                raise ParseError("%s: %s" % (path, exc)) from None
    return out
