"""Tests for the mutation engine: latent-noise scale sweep, learned
mutation planning, plan application, and the byte/tree baselines."""

import types

import numpy as np
import pytest

from restfuzz import mutation as mut
from restfuzz.autoencoder import Embedding
from restfuzz.grammar import DEPENDENCY_KINDS, load_grammar, loads, terminal_rules
from restfuzz.parsing import leaf_diff, leaf_rule_ids, replay_tokens
from restfuzz.seedgen import generate_seeds

from .conftest import data_path

MINI = """\
[alphabet http-methods]
GET

[alphabet string]
alpha
beta

[rule]
sequence -> request + sequence | eps
request -> method + path + header + body
method -> @http-methods
path -> static + path | string + path | eps
header -> eps
body -> eps
static -> @static
string -> @string

[request probe]
method GET
path "/p/" fuzz:string
"""


@pytest.fixture(scope="module")
def mini():
    g = loads(MINI)
    seed = generate_seeds(g, max_len=1, dict_values_per_type=1).seeds[0].case.seq
    return g, seed


# ---------------------------------------------------------------- sweep


def _fake_model(monkeypatch, z_vec, differ_at):
    """Replace encode/decode with stubs: decode returns the seed tokens
    until call number ``differ_at``, then a changed sequence.  Captures
    every vector decode receives."""
    captured = []

    def fake_encode(m, x):
        return Embedding(vector=np.asarray(z_vec, dtype=np.float64))

    def fake_decode(m, z):
        captured.append(np.array(z, dtype=np.float64))
        if len(captured) - 1 >= differ_at:
            return [99, 98]
        return [1, 2, 3]

    monkeypatch.setattr(mut, "encode", fake_encode)
    monkeypatch.setattr(mut, "decode", fake_decode)
    return captured


def test_scale_sweep_arithmetic_z_norm(monkeypatch):
    z = [2.0, 0.0, 0.0, 0.0]  # norm exactly 2
    captured = _fake_model(monkeypatch, z, differ_at=2)
    x = types.SimpleNamespace(tokens=[1, 2, 3])
    pr = mut.perturb_and_select(None, x, np.random.default_rng(5), n_scales=8)
    assert (pr.differs, pr.scale_exponent, pr.x_min) == (True, 2, [99, 98])
    assert len(captured) == 3  # stops at the first differing scale
    ref = np.random.default_rng(5)
    for j, got in enumerate(captured):
        delta = ref.standard_normal(4)
        expect = np.asarray(z) + delta * (2.0 ** j / 2.0)
        assert np.allclose(got, expect)


def test_scale_sweep_arithmetic_delta_norm(monkeypatch):
    z = [1.0, 1.0, 1.0]
    captured = _fake_model(monkeypatch, z, differ_at=10)  # never differs
    x = types.SimpleNamespace(tokens=[1, 2, 3])
    pr = mut.perturb_and_select(
        None, x, np.random.default_rng(9), n_scales=4, noise_norm="delta"
    )
    assert not pr.differs
    assert pr.scale_exponent == 3
    assert pr.x_min == [1, 2, 3]
    # normalising by the draw itself makes the applied offset length 2^j
    for j, got in enumerate(captured):
        assert np.isclose(np.linalg.norm(got - np.asarray(z)), 2.0 ** j)


def test_scale_sweep_zero_norm_fallback(monkeypatch):
    captured = _fake_model(monkeypatch, [0.0, 0.0], differ_at=10)
    x = types.SimpleNamespace(tokens=[1, 2, 3])
    mut.perturb_and_select(None, x, np.random.default_rng(0), n_scales=3)
    ref = np.random.default_rng(0)
    for j, got in enumerate(captured):
        delta = ref.standard_normal(2)
        assert np.allclose(got, delta * 2.0 ** j)  # norm fell back to 1


def test_scale_sweep_validation(overfit_model, two_seed_sequences):
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError, match="n_scales"):
        mut.perturb_and_select(overfit_model, two_seed_sequences[0], rng, n_scales=0)
    with pytest.raises(ValueError, match="noise_norm"):
        mut.perturb_and_select(
            overfit_model, two_seed_sequences[0], rng, noise_norm="l2"
        )


def test_selected_scale_is_minimal(overfit_model, two_seed_sequences):
    # independent replay: decoding the same noise at every smaller scale
    # must reproduce the seed, and at the reported scale the x_min
    from restfuzz.autoencoder import decode, encode

    m = overfit_model
    x = two_seed_sequences[1]
    z = encode(m, x).vector.astype(np.float64)
    z_norm = float(np.linalg.norm(z))
    n_differ = 0
    for trial in range(20):
        pr = mut.perturb_and_select(m, x, np.random.default_rng(trial))
        ref = np.random.default_rng(trial)
        for j in range(pr.scale_exponent + 1):
            delta = ref.standard_normal(z.shape[0])
            dec = decode(m, z + delta * (2.0 ** j / z_norm))
            if j < pr.scale_exponent:
                assert dec == x.tokens, "scale %d differed before the minimum" % j
            else:
                assert dec == pr.x_min
                assert (dec != x.tokens) == pr.differs
        n_differ += pr.differs
    assert n_differ >= 10, "sweep almost never perturbs; fixture too stable"


def test_early_stop_keeps_selection_stable(overfit_model, two_seed_sequences):
    m = overfit_model
    x = two_seed_sequences[0]
    for trial in range(10):
        small = mut.perturb_and_select(m, x, np.random.default_rng(trial), n_scales=4)
        big = mut.perturb_and_select(m, x, np.random.default_rng(trial), n_scales=9)
        if small.differs:
            assert (big.scale_exponent, big.x_min) == (
                small.scale_exponent,
                small.x_min,
            )
        else:
            assert big.differs is False or big.scale_exponent >= 4


# ------------------------------------------------------------- planning


def test_mutation_targets_skip_dependency_leaves(ref_grammar, two_seed_sequences):
    g = ref_grammar
    x = two_seed_sequences[1]
    dep = [
        o
        for o in range(x.n_leaves())
        if x.leaf_rule(o, g).lhs in DEPENDENCY_KINDS
    ]
    assert dep, "two-request seed should carry a dependency slot"
    assert mut.mutation_targets(x, g) == [
        o for o in range(x.n_leaves()) if o not in dep
    ]
    assert mut.mutation_targets(x, g, mutate_dependencies=True) == list(
        range(x.n_leaves())
    )


def test_plan_counts_when_decode_matches_seed(ref_grammar, two_seed_sequences):
    g = ref_grammar
    x = two_seed_sequences[1]
    pr = mut.PerturbResult(x_min=list(x.tokens), scale_exponent=0, differs=False)
    plans = mut.plan_learned_mutations(x, pr, g, "s", np.random.default_rng(0))
    eligible = mut.mutation_targets(x, g)
    unseen = [
        r.rule_id for r in terminal_rules(g) if r.rule_id not in x.terminal_rule_ids(g)
    ]
    assert len(plans) == len(eligible) * len(unseen)
    assert all(p.case == mut.CASE_UNSEEN_RULE for p in plans)
    assert [(p.target_leaf, p.new_rule) for p in plans] == [
        (o, r) for o in eligible for r in unseen
    ]
    assert len({(p.target_leaf, p.new_rule) for p in plans}) == len(plans)


def test_plan_noise_is_fresh_and_bounded(ref_grammar, two_seed_sequences):
    g = ref_grammar
    x = two_seed_sequences[1]
    pr = mut.PerturbResult(x_min=list(x.tokens), scale_exponent=0, differs=False)
    plans = mut.plan_learned_mutations(
        x, pr, g, "s", np.random.default_rng(1), pollution_rate=1.0
    )
    by_rule: dict[int, set] = {}
    for p in plans:
        value = g.rules[p.new_rule].value or ""
        if not value:
            assert p.byte_noise == []
            continue
        assert 1 <= len(p.byte_noise) <= mut.DEFAULT_K_MAX
        for off, byte in p.byte_noise:
            assert 0 <= off < len(value)
            assert 0 <= byte < 256
        by_rule.setdefault(p.new_rule, set()).add(tuple(p.byte_noise))
    # fresh draws per plan: the same replacement rule across many leaves
    # should almost never repeat its pollution
    wide = [s for s in by_rule.values() if len(s) > 1]
    assert len(wide) > len(by_rule) // 2


def test_plan_default_rate_mixes_clean_and_polluted(ref_grammar, two_seed_sequences):
    g = ref_grammar
    x = two_seed_sequences[1]
    pr = mut.PerturbResult(x_min=list(x.tokens), scale_exponent=0, differs=False)
    rng = np.random.default_rng(5)
    clean = polluted = 0
    for _ in range(10):
        for p in mut.plan_learned_mutations(x, pr, g, "s", rng):
            if not (g.rules[p.new_rule].value or ""):
                continue
            if p.byte_noise:
                polluted += 1
            else:
                clean += 1
    total = clean + polluted
    assert total > 200
    # default rate is one half; allow wide slack around it
    assert 0.3 < polluted / total < 0.7
    none_rate = mut.plan_learned_mutations(
        x, pr, g, "s", np.random.default_rng(0), pollution_rate=0.0
    )
    assert all(p.byte_noise == [] for p in none_rate)


def test_plan_partition_on_real_perturbation(
    ref_grammar, overfit_model, two_seed_sequences
):
    g = ref_grammar
    x = two_seed_sequences[1]
    pr = None
    for trial in range(40):
        cand = mut.perturb_and_select(overfit_model, x, np.random.default_rng(trial))
        if cand.differs:
            pr = cand
            break
    assert pr is not None, "no perturbation differed in 40 trials"
    plans = mut.plan_learned_mutations(x, pr, g, "s", np.random.default_rng(2))
    diff = leaf_diff(x.tokens, pr.x_min, g)
    eligible = set(mut.mutation_targets(x, g))
    unseen = {
        r.rule_id for r in terminal_rules(g) if r.rule_id not in x.terminal_rule_ids(g)
    }
    decode_rules = set(leaf_rule_ids(pr.x_min, g))
    for p in plans:
        if p.case == mut.CASE_UNSEEN_RULE:
            assert p.target_leaf in eligible and p.target_leaf in diff.common
            assert p.new_rule in unseen
        else:
            assert p.case == mut.CASE_DECODE_RULE
            assert p.target_leaf in eligible and p.target_leaf in diff.different
            assert p.target_leaf < x.n_leaves()
            assert p.new_rule in decode_rules


# ----------------------------------------------------------- apply_plan


def _rule_id(g, lhs, value):
    for r in terminal_rules(g):
        if r.lhs == lhs and r.value == value:
            return r.rule_id
    raise AssertionError("no %s terminal %r" % (lhs, value))


def _string_leaf(x, g):
    for o in range(x.n_leaves()):
        if x.leaf_rule(o, g).lhs == "string":
            return o
    raise AssertionError("no string leaf")


def test_apply_plan_same_side_flips_token(ref_grammar, two_seed_sequences):
    g = ref_grammar
    x = two_seed_sequences[0]
    ordinal = _string_leaf(x, g)
    pos = x.leaf_index[ordinal]
    master = _rule_id(g, "string", "master")
    plan = mut.MutationPlan("s", ordinal, master, mut.CASE_TREE, byte_noise=[])
    m1 = mut.apply_plan(x, plan, g)
    assert m1.tokens[pos] == master
    assert pos not in m1.payloads and pos not in m1.pinned
    replay_tokens(m1.tokens, g)  # still a valid derivation

    noisy = mut.MutationPlan("s", ordinal, master, "case1", byte_noise=[(0, 0x7A)])
    m2 = mut.apply_plan(x, noisy, g)
    assert m2.tokens[pos] == master
    assert m2.payloads[pos] == "zaster" and pos in m2.pinned
    m3 = mut.apply_plan(x, noisy, g, with_pollution=False)
    assert m3.tokens[pos] == master
    assert pos not in m3.payloads and pos not in m3.pinned


def test_apply_plan_cross_side_pins_payload(ref_grammar, two_seed_sequences):
    g = ref_grammar
    x = two_seed_sequences[0]
    method_ord = 0  # first leaf of a request is its method
    assert x.leaf_rule(method_ord, g).lhs == "method"
    pos = x.leaf_index[method_ord]
    old_token = x.tokens[pos]
    master = _rule_id(g, "string", "master")
    plan = mut.MutationPlan("s", method_ord, master, "case1", byte_noise=[(1, 0x21)])
    m1 = mut.apply_plan(x, plan, g)
    assert m1.tokens[pos] == old_token  # token untouched across sides
    assert m1.payloads[pos] == "m!ster" and pos in m1.pinned
    m2 = mut.apply_plan(x, plan, g, with_pollution=False)
    assert m2.payloads[pos] == "master" and pos in m2.pinned


def test_apply_plan_dependency_leaf_never_takes_payload(
    ref_grammar, two_seed_sequences
):
    g = ref_grammar
    x = two_seed_sequences[1]
    dep_ord = next(
        o for o in range(x.n_leaves()) if x.leaf_rule(o, g).lhs in DEPENDENCY_KINDS
    )
    rule = x.leaf_rule(dep_ord, g)
    pos = x.leaf_index[dep_ord]
    plan = mut.MutationPlan("s", dep_ord, rule.rule_id, "case1", byte_noise=[(0, 0x58)])
    m = mut.apply_plan(x, plan, g)
    assert m.tokens[pos] == rule.rule_id
    assert pos not in m.payloads and pos not in m.pinned


def test_apply_plan_leaves_input_untouched(ref_grammar, two_seed_sequences):
    g = ref_grammar
    x = two_seed_sequences[0]
    before = (list(x.tokens), dict(x.payloads), set(x.pinned))
    ordinal = _string_leaf(x, g)
    plan = mut.MutationPlan(
        "s", ordinal, _rule_id(g, "string", "master"), "case1", byte_noise=[(0, 65)]
    )
    mut.apply_plan(x, plan, g)
    assert (list(x.tokens), dict(x.payloads), set(x.pinned)) == before


def test_apply_plan_validation(ref_grammar, two_seed_sequences):
    g = ref_grammar
    x = two_seed_sequences[0]
    nonterminal = next(r for r in g.rules if r.kind != "terminal")
    with pytest.raises(ValueError, match="not terminal"):
        mut.apply_plan(
            x, mut.MutationPlan("s", 0, nonterminal.rule_id, "tree"), g
        )
    with pytest.raises(ValueError, match="out of range"):
        mut.apply_plan(
            x,
            mut.MutationPlan("s", x.n_leaves(), _rule_id(g, "string", "nil"), "tree"),
            g,
        )


# ------------------------------------------------------------ baselines


def test_mutate_bytes_changes_exactly_one_byte():
    rng = np.random.default_rng(3)
    text = "POST /api/projects HTTP/1.1"
    for _ in range(500):
        out = mut.mutate_bytes(text, rng)
        assert isinstance(out, str) and len(out) == len(text)
        diffs = [i for i, (a, b) in enumerate(zip(text, out)) if a != b]
        assert len(diffs) == 1
    raw = b"\x00\xff ABC"
    out = mut.mutate_bytes(raw, rng)
    assert isinstance(out, bytes) and len(out) == len(raw)
    assert sum(a != b for a, b in zip(raw, out)) == 1
    with pytest.raises(ValueError, match="empty"):
        mut.mutate_bytes("", rng)


def test_mutate_bytes_position_and_value_spread():
    rng = np.random.default_rng(4)
    text = "0123456789abcdef"  # 16 positions
    pos_counts = np.zeros(len(text), dtype=int)
    values = set()
    n = 10_000
    for _ in range(n):
        out = mut.mutate_bytes(text, rng)
        i = next(k for k in range(len(text)) if out[k] != text[k])
        pos_counts[i] += 1
        values.add(out[i])
    expected = n / len(text)
    assert pos_counts.min() > expected * 0.8
    assert pos_counts.max() < expected * 1.2
    assert len(values) > 220  # replacement bytes spread over most of 0..255


def test_tree_baseline_covers_every_cell(mini):
    g, seed = mini
    assert seed.n_leaves() == 3
    assert len(terminal_rules(g)) == 4
    assert mut.mutant_space_size(seed, g) == 12
    rng = np.random.default_rng(6)
    cells = set()
    for _ in range(600):
        mutant, plan = mut.mutate_tree_random(seed, g, rng)
        assert plan.case == mut.CASE_TREE and plan.byte_noise == []
        cells.add((plan.target_leaf, plan.new_rule))
        pos = seed.leaf_index[plan.target_leaf]
        if g.rules[plan.new_rule].lhs == g.rules[seed.tokens[pos]].lhs:
            assert mutant.tokens[pos] == plan.new_rule
            assert pos not in mutant.payloads
        else:
            assert mutant.tokens[pos] == seed.tokens[pos]
            assert mutant.payloads[pos] == (g.rules[plan.new_rule].value or "")
    assert len(cells) == 12


def test_tree_baseline_requires_targets(mini):
    g, seed = mini
    # a sequence with every leaf excluded has nothing to mutate
    import restfuzz.mutation as m

    orig = m.mutation_targets
    try:
        m.mutation_targets = lambda *a, **k: []
        with pytest.raises(ValueError, match="no eligible"):
            mut.mutate_tree_random(seed, g, np.random.default_rng(0))
    finally:
        m.mutation_targets = orig


def test_mutant_space_size_multi_action_commit():
    g = load_grammar(data_path("commit_multi_action.grammar"))
    seed = generate_seeds(g, max_len=1, dict_values_per_type=1).seeds[0].case.seq
    assert seed.n_leaves() == 73
    assert len(terminal_rules(g)) == 66
    assert mut.mutant_space_size(seed, g) == 4818


# ----------------------------------------------------------- byte noise


def test_draw_byte_noise_bounds():
    rng = np.random.default_rng(8)
    for _ in range(200):
        noise = mut.draw_byte_noise(5, rng, k_max=3)
        assert 1 <= len(noise) <= 3
        for off, byte in noise:
            assert 0 <= off < 5 and 0 <= byte < 256
    with pytest.raises(ValueError, match="k_max"):
        mut.draw_byte_noise(5, rng, k_max=0)
    with pytest.raises(ValueError, match="empty"):
        mut.draw_byte_noise(0, rng)


def test_draw_byte_noise_favours_special_bytes():
    rng = np.random.default_rng(9)
    special = set(mut.SPECIAL_BYTES)
    draws = [b for _ in range(4000) for _, b in mut.draw_byte_noise(8, rng, k_max=1)]
    hit_rate = sum(1 for b in draws if b in special) / len(draws)
    # half the draws come straight from the dictionary, plus the uniform
    # half occasionally landing on it by chance
    assert 0.45 < hit_rate < 0.65
    # the uniform half still reaches bytes outside the dictionary
    assert len(set(draws) - special) > 100


def test_apply_byte_noise_semantics():
    assert mut.apply_byte_noise("abcd", [(1, 0x58)]) == "aXcd"
    # repeated offsets: the last write wins
    assert mut.apply_byte_noise("abcd", [(1, 0x58), (1, 0x59)]) == "aYcd"
    assert mut.apply_byte_noise("ab", [(0, 0xFF)]) == "\xffb"
    with pytest.raises(ValueError, match="offset"):
        mut.apply_byte_noise("ab", [(2, 0x20)])


def test_format_mutation_log():
    plan = mut.MutationPlan("seed-1", 4, 17, "case1", byte_noise=[(3, 7), (0, 255)])
    assert mut.format_mutation_log(plan, 500) == "seed-1\t4\tcase1\t17\t3,0\t500"
    bare = mut.MutationPlan("s", 0, 2, "tree")
    assert mut.format_mutation_log(bare, 201) == "s\t0\ttree\t2\t-\t201"
    assert mut.format_mutation_log(bare) == "s\t0\ttree\t2\t-"
