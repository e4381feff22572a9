"""Mutation engine.

Three mutant families over seed test cases:

* learned mutations: encode a seed into the autoencoder's latent space,
  add Gaussian noise at growing scales until the greedy decode changes,
  then plan one mutation per (leaf, rule) pair suggested by comparing
  the seed against that minimally-changed decode.  Around half of the
  learned plans (``pollution_rate``) additionally carry a small
  byte-noise pollution applied to the replacement value's rendered
  text; the rest stay purely structural so the mutant remains a clean
  grammar derivation.
* byte baseline: flip exactly one byte of one request's text as sent.
* tree baseline: flip one random leaf of the derivation to one random
  terminal rule.

Leaves holding producer/consumer slots are never mutation targets, so
that mutants still resolve their dependencies.
"""

from dataclasses import dataclass, field

import numpy as np

from .autoencoder import Model, decode, encode
from .grammar import DEPENDENCY_KINDS, TERMINAL, Grammar, terminal_rules
from .parsing import RuleSequence, leaf_diff, leaf_rule_ids

DEFAULT_N_SCALES = 8
K_MAX = 4  # most (offset, byte) pairs in one value's pollution
DEFAULT_POLLUTION_RATE = 0.5
NORM_FALLBACK = 1.0

# Half of all pollution bytes come from this dictionary of delimiters,
# quote/escape characters and non-ASCII bytes; uniform bytes alone
# almost never produce the separators that upset route and body parsers.
SPECIAL_BYTES = (
    0x00,
    0x09,
    0x0A,
    0x0D,
    0x20,
    0x22,
    0x25,
    0x27,
    0x2C,
    0x2E,
    0x2F,
    0x3A,
    0x3B,
    0x3C,
    0x3E,
    0x5B,
    0x5C,
    0x5D,
    0x7B,
    0x7C,
    0x7D,
    0x80,
    0xC0,
    0xFF,
)

CASE_UNSEEN_RULE = "case1"  # common leaf, rule absent from the seed
CASE_DECODE_RULE = "case2"  # differing leaf, rule taken from the decode
CASE_TREE = "tree"  # random single-leaf baseline
CASE_BYTE = "byte"  # single-byte flip of the sent text


@dataclass
class PerturbResult:
    """Outcome of the noise-scale sweep for one seed.

    ``x_min`` is the greedy decode at the smallest scale whose output
    differed from the seed's tokens (or the last scale tried when none
    differed, in which case ``differs`` is False and ``x_min`` equals
    the seed's tokens).
    """

    x_min: list[int]
    scale_exponent: int
    differs: bool


@dataclass
class MutationPlan:
    """One planned single-leaf mutation of a seed.

    ``byte_noise`` holds (offset, byte) pollution pairs applied to the
    replacement value's text; offsets index into that text.  A byte
    baseline case (``case="byte"``) has leaf and rule -1 and one pair:
    the flipped offset into the case's sent request texts laid end to
    end, and the byte written there.
    """

    seed_id: str
    target_leaf: int
    new_rule: int
    case: str
    byte_noise: list[tuple[int, int]] = field(default_factory=list)


def perturb_and_select(
    m: Model,
    x: RuleSequence,
    rng: np.random.Generator,
    n_scales: int = DEFAULT_N_SCALES,
) -> PerturbResult:
    """Sweep noise scales 2^0 .. 2^(n_scales-1) and keep the decode at
    the smallest scale that changes the output.

    Each scale draws a fresh standard-normal vector, rescaled by 2^j
    divided by the embedding's norm; a zero norm falls back to 1 so the
    sweep still applies usable noise.
    """
    if n_scales < 1:
        raise ValueError("n_scales must be >= 1")
    z = encode(m, x).vector.astype(np.float64)
    norm = float(np.linalg.norm(z)) or NORM_FALLBACK
    decoded: list[int] = list(x.tokens)
    for j in range(n_scales):
        delta = rng.standard_normal(z.shape[0])
        decoded = decode(m, z + delta * (2.0 ** j / norm))
        if decoded != x.tokens:
            return PerturbResult(x_min=decoded, scale_exponent=j, differs=True)
    return PerturbResult(x_min=decoded, scale_exponent=n_scales - 1, differs=False)


def mutation_targets(x: RuleSequence, g: Grammar) -> list[int]:
    """Leaf ordinals of ``x`` eligible as mutation targets: every leaf
    but the producer/consumer slots."""
    return [o for o in range(x.n_leaves()) if x.leaf_rule(o, g).lhs not in DEPENDENCY_KINDS]


def draw_byte_noise(length: int, rng: np.random.Generator) -> list[tuple[int, int]]:
    """Draw 1..K_MAX (offset, byte) pollution pairs for a value of the
    given length.  Offsets may repeat; the last write wins.  Each byte
    is drawn from ``SPECIAL_BYTES`` or uniformly, with equal odds."""
    if length < 1:
        raise ValueError("cannot draw byte noise for an empty value")
    k = int(rng.integers(1, K_MAX + 1))
    noise = []
    for _ in range(k):
        offset = int(rng.integers(0, length))
        if rng.random() < 0.5:
            byte = int(SPECIAL_BYTES[int(rng.integers(0, len(SPECIAL_BYTES)))])
        else:
            byte = int(rng.integers(0, 256))
        noise.append((offset, byte))
    return noise


def apply_byte_noise(value: str, noise: list[tuple[int, int]]) -> str:
    """Overwrite bytes of ``value`` (latin-1 text) at the noise offsets."""
    chars = list(value)
    for offset, byte in noise:
        if not 0 <= offset < len(chars):
            raise ValueError(
                "byte-noise offset %d outside value of length %d" % (offset, len(chars))
            )
        chars[offset] = chr(byte)
    return "".join(chars)


def plan_learned_mutations(
    x: RuleSequence,
    pr: PerturbResult,
    g: Grammar,
    seed_id: str,
    rng: np.random.Generator,
    pollution_rate: float = DEFAULT_POLLUTION_RATE,
) -> list[MutationPlan]:
    """Expand a perturbation into concrete single-leaf plans.

    Leaves are aligned by ordinal between the seed and the perturbed
    decode; dependency slots are skipped (see ``mutation_targets``).
    Leaves that kept their rule are paired with every terminal rule the
    seed never uses; leaves that changed are paired with every terminal
    rule the decode does use.  A ``pollution_rate`` fraction of the
    plans get their own fresh byte noise sized to the replacement value;
    the rest apply the replacement rule verbatim.
    """
    diff = leaf_diff(x.tokens, pr.x_min, g)
    allowed = set(mutation_targets(x, g))
    present = x.terminal_rule_ids(g)
    unseen = [r.rule_id for r in terminal_rules(g) if r.rule_id not in present]
    decode_rules = sorted(set(leaf_rule_ids(pr.x_min, g)))
    n_leaves = x.n_leaves()

    plans: list[MutationPlan] = []
    for ordinal in diff.common:
        if ordinal not in allowed:
            continue
        for rule_id in unseen:
            plans.append(
                _plan(seed_id, ordinal, rule_id, CASE_UNSEEN_RULE, g, rng, pollution_rate)
            )
    for ordinal in diff.different:
        if ordinal >= n_leaves or ordinal not in allowed:
            continue
        for rule_id in decode_rules:
            plans.append(
                _plan(seed_id, ordinal, rule_id, CASE_DECODE_RULE, g, rng, pollution_rate)
            )
    return plans


def _plan(seed_id, ordinal, rule_id, case, g, rng, pollution_rate) -> MutationPlan:
    value = g.rules[rule_id].value or ""
    polluted = bool(value) and rng.random() < pollution_rate
    noise = draw_byte_noise(len(value), rng) if polluted else []
    return MutationPlan(
        seed_id=seed_id,
        target_leaf=ordinal,
        new_rule=rule_id,
        case=case,
        byte_noise=noise,
    )


def apply_plan(x: RuleSequence, plan: MutationPlan, g: Grammar) -> RuleSequence:
    """Build the mutant test case a plan describes.

    A replacement rule sharing the target leaf's left-hand side swaps
    the token itself; any other rule leaves the token in place and pins
    the rule's value as a payload override, so the mutant still derives
    from the grammar.  Pollution lands on the payload text; a pure
    same-side token swap without ``byte_noise`` carries none.
    Dependency-kind replacement rules never take payloads on a
    same-side swap — their value is whatever the binding resolves to.

    Invariant: the mutant has the seed's shape.  It swaps one terminal
    for another of the same left-hand side, or pins a payload on a
    leaf, so its tokens replay to the same ``leaf_index`` and request
    views as ``x``'s, and callers reuse those instead of replaying.
    """
    new_rule = g.rules[plan.new_rule]
    if new_rule.kind != TERMINAL:
        raise ValueError("replacement rule %d is not terminal" % plan.new_rule)
    if not 0 <= plan.target_leaf < x.n_leaves():
        raise ValueError("target leaf %d out of range" % plan.target_leaf)
    mutant = x.copy()
    pos = mutant.leaf_index[plan.target_leaf]
    old_rule = g.rules[mutant.tokens[pos]]
    same_side = new_rule.lhs == old_rule.lhs
    if same_side:
        mutant.tokens[pos] = new_rule.rule_id
        mutant.payloads.pop(pos, None)
        mutant.pinned.discard(pos)
        if new_rule.lhs in DEPENDENCY_KINDS:
            return mutant
        if not plan.byte_noise:
            return mutant
    value = new_rule.value or ""
    if plan.byte_noise:
        value = apply_byte_noise(value, plan.byte_noise)
    mutant.payloads[pos] = value
    mutant.pinned.add(pos)
    return mutant


def mutate_bytes(text: str, rng: np.random.Generator) -> str:
    """Flip exactly one byte of rendered request text (latin-1
    convention); length is preserved and the flipped byte always changes
    value."""
    buf = bytearray(text.encode("latin-1"))
    if not buf:
        raise ValueError("cannot byte-flip empty input")
    pos = int(rng.integers(0, len(buf)))
    buf[pos] = (buf[pos] + 1 + int(rng.integers(0, 255))) % 256
    return buf.decode("latin-1")


def mutate_tree_random(
    x: RuleSequence,
    g: Grammar,
    rng: np.random.Generator,
    seed_id: str = "seed",
) -> tuple[RuleSequence, MutationPlan]:
    """Baseline tree mutation: one uniformly random eligible leaf is
    flipped to one uniformly random terminal rule (possibly the same
    rule, in which case the mutant equals the input)."""
    targets = mutation_targets(x, g)
    if not targets:
        raise ValueError("test case has no eligible mutation targets")
    rules = terminal_rules(g)
    ordinal = targets[int(rng.integers(0, len(targets)))]
    rule = rules[int(rng.integers(0, len(rules)))]
    plan = MutationPlan(
        seed_id=seed_id,
        target_leaf=ordinal,
        new_rule=rule.rule_id,
        case=CASE_TREE,
        byte_noise=[],
    )
    return apply_plan(x, plan, g), plan


def mutant_space_size(x: RuleSequence, g: Grammar) -> int:
    """Number of (leaf, terminal rule) cells a single-leaf mutation of
    ``x`` can pick from."""
    return x.n_leaves() * len(terminal_rules(g))


def format_mutation_log(plan: MutationPlan, status: int | None = None) -> str:
    """One tab-delimited log line: seed, leaf ordinal, case, rule id,
    pollution offsets, then the response status unless ``status`` is
    None."""
    offsets = ",".join(str(off) for off, _ in plan.byte_noise) or "-"
    line = "%s\t%d\t%s\t%d\t%s" % (
        plan.seed_id,
        plan.target_leaf,
        plan.case,
        plan.new_rule,
        offsets,
    )
    return line if status is None else "%s\t%d" % (line, status)
