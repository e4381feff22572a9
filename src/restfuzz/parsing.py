"""Rule sequences: encoding test cases as DFS production-rule ids.

A test case (an ordered list of HTTP requests) is represented as the
sequence of grammar rules applied in depth-first, left-to-right order
when deriving it from the start symbol.  Rule ids double as model token
ids, so this module is the bridge between wire text and the learned
mutation machinery.

Mutated leaves keep their rule token but carry a raw byte payload that
overrides rendering; this keeps every mutant a valid derivation while
still letting mutations place arbitrary bytes anywhere.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from .grammar import (
    DEPENDENCY_KINDS,
    EPSILON,
    FUZZABLE_KINDS,
    STRUCTURAL,
    TERMINAL,
    Grammar,
    Rule,
)

SECTION_SYMBOLS = ("path", "header", "body")
MARKER_RE = re.compile(r"^\{\{producer:([A-Za-z0-9_.-]+)\}\}$")
UUID_PLACEHOLDER = "<uuid>"
HTTP_VERSION = "HTTP/1.1"


class ParseError(ValueError):
    """Raised when text or a token sequence does not fit the grammar."""


def marker_text(resource: str) -> str:
    """Placeholder written for an unresolved dependency slot."""
    return "{{producer:%s}}" % resource


@dataclass
class ReplayInfo:
    """Result of replaying a token sequence as a derivation."""

    leaf_positions: list[int]
    leaf_sections: list[str | None]  # "method"/"path"/"header"/"body" per leaf
    leaf_requests: list[int]  # request ordinal per leaf
    request_boundaries: list[int]  # token positions opening each request
    max_stack_depth: int
    duplicate_pending: bool  # True if some nonterminal was pending twice


def replay_tokens(tokens: list[int], g: Grammar) -> ReplayInfo:
    """Validate ``tokens`` as a DFS derivation from the start symbol and
    return structural information.  Raises :class:`ParseError` if the
    sequence is not a complete, valid derivation."""
    nts = g.nonterminals
    stack: list[tuple[str, str | None]] = [("sequence", None)]
    pending_counts: dict[str, int] = {"sequence": 1}
    leaf_positions: list[int] = []
    leaf_sections: list[str | None] = []
    leaf_requests: list[int] = []
    request_boundaries: list[int] = []
    max_depth = 1
    duplicate = False
    req_idx = -1

    for pos, rid in enumerate(tokens):
        if rid < 0 or rid >= len(g.rules):
            raise ParseError("position %d: unknown rule id %d" % (pos, rid))
        rule = g.rules[rid]
        if not stack:
            raise ParseError("position %d: tokens continue after completion" % pos)
        sym, sect = stack.pop()
        pending_counts[sym] -= 1
        if rule.lhs != sym:
            raise ParseError(
                "position %d: expected %r, got rule %r" % (pos, sym, rule)
            )
        if rule.lhs == "request":
            req_idx += 1
            request_boundaries.append(pos)
        if rule.kind == TERMINAL:
            section = sect
            if section is None and rule.lhs == "method":
                section = "method"
            leaf_positions.append(pos)
            leaf_sections.append(section)
            leaf_requests.append(req_idx)
        elif rule.kind == STRUCTURAL:
            child_sect = rule.lhs if rule.lhs in SECTION_SYMBOLS else sect
            for child in reversed(rule.rhs):
                if child in nts:
                    stack.append((child, child_sect))
                    pending_counts[child] = pending_counts.get(child, 0) + 1
                    if pending_counts[child] > 1:
                        duplicate = True
        max_depth = max(max_depth, len(stack))
    if stack:
        raise ParseError(
            "derivation incomplete: %d symbols still pending (%r...)"
            % (len(stack), stack[-1][0])
        )
    return ReplayInfo(
        leaf_positions=leaf_positions,
        leaf_sections=leaf_sections,
        leaf_requests=leaf_requests,
        request_boundaries=request_boundaries,
        max_stack_depth=max_depth,
        duplicate_pending=duplicate,
    )


@dataclass
class LeafSpec:
    """A terminal occurrence used when building a sequence bottom-up."""

    rule_id: int
    payload: str | None = None
    # Optional constraint naming the syntactic part the leaf belongs to
    # ("method"/"path"/"header"/"body").  Without it, runs of leaves with
    # the same left-hand side could be absorbed by the wrong section.
    section: str | None = None


def derive_tokens(g: Grammar, leaves: list[LeafSpec]) -> list[int]:
    """Find the DFS rule sequence deriving exactly the given leaves, by
    backtracking over rule alternatives in file order."""
    n = len(leaves)
    by_lhs = g.rules_by_lhs

    def walk(stack, pos: int):
        if not stack:
            return [] if pos == n else None
        # Prune runaway expansion: pending symbols can only be resolved
        # by remaining leaves or epsilons; the factor is a loose bound.
        if len(stack) > 4 * (n - pos) + 16:
            return None
        (sym, sect), rest = stack[0], stack[1:]
        for rule in by_lhs.get(sym, ()):
            if rule.kind == TERMINAL:
                if pos < n and leaves[pos].rule_id == rule.rule_id:
                    leaf_sect = sect
                    if leaf_sect is None and rule.lhs == "method":
                        leaf_sect = "method"
                    want = leaves[pos].section
                    if want is not None and want != leaf_sect:
                        continue
                    tail = walk(rest, pos + 1)
                    if tail is not None:
                        return [rule.rule_id] + tail
            elif rule.kind == EPSILON:
                tail = walk(rest, pos)
                if tail is not None:
                    return [rule.rule_id] + tail
            else:
                child_sect = rule.lhs if rule.lhs in SECTION_SYMBOLS else sect
                children = tuple((c, child_sect) for c in rule.rhs)
                tail = walk(children + rest, pos)
                if tail is not None:
                    return [rule.rule_id] + tail
        return None

    tokens = walk((("sequence", None),), 0)
    if tokens is None:
        raise ParseError(
            "no derivation covers the %d given leaves under this grammar" % n
        )
    return tokens


@dataclass
class RuleSequence:
    """A test case encoded as DFS rule ids plus leaf payload overrides.

    ``payloads`` maps token positions (which must be leaf positions) to
    raw byte strings that replace the terminal's value when rendering.
    ``pinned`` positions are mutation payloads the executor must never
    overwrite during dependency resolution.
    """

    tokens: list[int]
    grammar_hash: str
    payloads: dict[int, str] = field(default_factory=dict)
    pinned: set[int] = field(default_factory=set)
    leaf_index: list[int] = field(default_factory=list)
    request_boundaries: list[int] = field(default_factory=list)

    @classmethod
    def from_tokens(
        cls,
        tokens: list[int],
        g: Grammar,
        payloads: dict[int, str] | None = None,
        pinned: set[int] | None = None,
    ) -> "RuleSequence":
        info = replay_tokens(tokens, g)
        return cls(
            tokens=list(tokens),
            grammar_hash=g.grammar_hash(),
            payloads=dict(payloads or {}),
            pinned=set(pinned or ()),
            leaf_index=info.leaf_positions,
            request_boundaries=info.request_boundaries,
        )

    @classmethod
    def from_leaves(cls, g: Grammar, leaves: list[LeafSpec]) -> "RuleSequence":
        tokens = derive_tokens(g, leaves)
        info = replay_tokens(tokens, g)
        payloads = {}
        for ordinal, spec in enumerate(leaves):
            if spec.payload is not None:
                payloads[info.leaf_positions[ordinal]] = spec.payload
        return cls(
            tokens=tokens,
            grammar_hash=g.grammar_hash(),
            payloads=payloads,
            pinned=set(),
            leaf_index=info.leaf_positions,
            request_boundaries=info.request_boundaries,
        )

    def copy(self) -> "RuleSequence":
        return RuleSequence(
            tokens=list(self.tokens),
            grammar_hash=self.grammar_hash,
            payloads=dict(self.payloads),
            pinned=set(self.pinned),
            leaf_index=list(self.leaf_index),
            request_boundaries=list(self.request_boundaries),
        )

    def n_leaves(self) -> int:
        return len(self.leaf_index)

    def n_requests(self) -> int:
        return len(self.request_boundaries)

    def leaf_rule(self, ordinal: int, g: Grammar) -> Rule:
        return g.rules[self.tokens[self.leaf_index[ordinal]]]

    def leaf_payload(self, ordinal: int) -> str | None:
        return self.payloads.get(self.leaf_index[ordinal])

    def leaf_value(self, ordinal: int, g: Grammar) -> str:
        """Value a leaf renders to in placeholder mode: payload override,
        else a dependency marker, else the terminal's own text."""
        pos = self.leaf_index[ordinal]
        if pos in self.payloads:
            return self.payloads[pos]
        rule = g.rules[self.tokens[pos]]
        if rule.lhs in DEPENDENCY_KINDS:
            return marker_text(rule.value)
        return rule.value

    def terminal_rule_ids(self, g: Grammar) -> set[int]:
        return {
            rid for rid in self.tokens if g.rules[rid].kind == TERMINAL
        }


def leaf_rule_ids(tokens: list[int], g: Grammar) -> list[int]:
    """Terminal rule ids appearing in ``tokens``, in order.  Works on
    arbitrary (even structurally invalid) token lists."""
    return [rid for rid in tokens if 0 <= rid < len(g.rules) and g.rules[rid].kind == TERMINAL]


@dataclass
class LeafDiff:
    """Ordinal partition of aligned leaves into matching / differing."""

    common: list[int]
    different: list[int]


def leaf_diff(a_tokens: list[int], b_tokens: list[int], g: Grammar) -> LeafDiff:
    """Align leaves of two token sequences by ordinal position.  Slots
    whose terminal rules match are common; mismatches and any overhang
    beyond the shorter sequence are different."""
    a_leaves = leaf_rule_ids(a_tokens, g)
    b_leaves = leaf_rule_ids(b_tokens, g)
    short = min(len(a_leaves), len(b_leaves))
    long = max(len(a_leaves), len(b_leaves))
    common = []
    different = []
    for i in range(short):
        if a_leaves[i] == b_leaves[i]:
            common.append(i)
        else:
            different.append(i)
    different.extend(range(short, long))
    return LeafDiff(common=common, different=different)


@dataclass
class RequestView:
    """Leaf ordinals of one request, grouped by syntactic role."""

    method: int
    path: list[int] = field(default_factory=list)
    headers: list[tuple[int, int]] = field(default_factory=list)
    body: list[int] = field(default_factory=list)


@dataclass
class TestCase:
    """A rule sequence plus its per-request leaf grouping."""

    seq: RuleSequence
    requests: list[RequestView]

    @classmethod
    def from_sequence(cls, rs: RuleSequence, g: Grammar) -> "TestCase":
        info = replay_tokens(rs.tokens, g)
        views: list[RequestView] = []
        grouped: dict[int, dict[str, list[int]]] = {}
        for ordinal in range(len(info.leaf_positions)):
            req = info.leaf_requests[ordinal]
            sect = info.leaf_sections[ordinal]
            grouped.setdefault(req, {"method": [], "path": [], "header": [], "body": []})
            if sect is None:
                raise ParseError("leaf %d has no syntactic section" % ordinal)
            grouped[req][sect].append(ordinal)
        for req in sorted(grouped):
            parts = grouped[req]
            if len(parts["method"]) != 1:
                raise ParseError(
                    "request %d has %d method leaves" % (req, len(parts["method"]))
                )
            hdr = parts["header"]
            if len(hdr) % 2 != 0:
                raise ParseError("request %d has unpaired header leaves" % req)
            views.append(
                RequestView(
                    method=parts["method"][0],
                    path=parts["path"],
                    headers=[(hdr[i], hdr[i + 1]) for i in range(0, len(hdr), 2)],
                    body=parts["body"],
                )
            )
        return cls(seq=rs, requests=views)


def canonicalize(text: str) -> str:
    """Normalise seed text: unified newlines, no trailing spaces, single
    blank-line separators, exactly one trailing newline."""
    text = text.replace("\r\n", "\n").replace("\r", "\n")
    lines = [ln.rstrip() for ln in text.split("\n")]
    # collapse runs of blank lines and trim the ends
    out: list[str] = []
    for ln in lines:
        if ln == "" and (not out or out[-1] == ""):
            continue
        out.append(ln)
    while out and out[-1] == "":
        out.pop()
    return "\n".join(out) + "\n" if out else ""


def render_request(view: RequestView, value_of) -> str:
    """Render one request block; ``value_of(ordinal)`` gives each leaf's
    text (placeholder values here, live bindings in the executor)."""
    path = "".join(value_of(i) for i in view.path)
    lines = ["%s %s %s" % (value_of(view.method), path, HTTP_VERSION)]
    for key_ord, val_ord in view.headers:
        lines.append(value_of(key_ord) + value_of(val_ord))
    if view.body:
        lines.append("".join(value_of(i) for i in view.body))
    return "\n".join(lines)


def render(x: RuleSequence | TestCase, g: Grammar) -> str:
    """Render a rule sequence to seed-file text (placeholder mode:
    unresolved dependency slots keep their ``{{producer:...}}`` marker)."""
    tc = x if isinstance(x, TestCase) else TestCase.from_sequence(x, g)
    blocks = [render_request(view, lambda i: tc.seq.leaf_value(i, g)) for view in tc.requests]
    return "\n\n".join(blocks) + "\n"


def _chunk_regex(chunks) -> re.Pattern:
    parts = ["^"]
    for c in chunks:
        if c.kind == "static":
            parts.append(re.escape(c.value))
        else:
            parts.append("(.*?)")
    parts.append("$")
    return re.compile("".join(parts), re.DOTALL)


def _slot_leaf(c, value: str, g: Grammar, where: str, section: str) -> LeafSpec:
    """Map a matched slot value to a terminal rule (+payload)."""
    if c.kind in DEPENDENCY_KINDS:
        rule = g.terminal_rule(c.kind, c.resource)
        m = MARKER_RE.match(value)
        if m is not None:
            if m.group(1) != c.resource:
                raise ParseError(
                    "%s: marker %r does not name resource %r"
                    % (where, value, c.resource)
                )
            return LeafSpec(rule.rule_id, section=section)
        return LeafSpec(rule.rule_id, payload=value, section=section)
    if c.kind == "uuid":
        rules = [r for r in g.rules_by_lhs.get("uuid", ()) if r.kind == TERMINAL]
        if not rules:
            raise ParseError("%s: grammar has no uuid terminal rule" % where)
        for r in rules:
            if r.value == value:
                return LeafSpec(r.rule_id, section=section)
        return LeafSpec(rules[0].rule_id, payload=value, section=section)
    rule = g.terminal_rule(c.kind, value)
    if rule is None:
        raise ParseError(
            "%s: value %r is not in the %r alphabet" % (where, value, c.kind)
        )
    return LeafSpec(rule.rule_id, section=section)


def _parse_request_block(block: str, g: Grammar, idx: int) -> list[LeafSpec]:
    lines = block.split("\n")
    first = lines[0]
    parts = first.split(" ")
    if len(parts) < 2:
        raise ParseError("request %d: malformed request line %r" % (idx, first))
    method = parts[0]
    if parts[-1] == HTTP_VERSION:
        path = " ".join(parts[1:-1])
    else:
        path = " ".join(parts[1:])
    body_line = None
    header_lines = []
    for ln in lines[1:]:
        if body_line is None and (ln.startswith("{") or ln.startswith("[")):
            body_line = ln
        elif ln:
            header_lines.append(ln)

    last_error = None
    for layout in g.requests:
        if layout.method != method:
            continue
        m = _chunk_regex(layout.path).match(path)
        if m is None:
            continue
        if len(header_lines) != len(layout.headers):
            continue
        if (body_line is None) != (len(layout.body) == 0):
            continue
        try:
            leaves = [
                LeafSpec(g.terminal_rule("method", method).rule_id, section="method")
            ]
            slot_values = list(m.groups())
            for c in layout.path:
                if c.kind == "static":
                    leaves.append(
                        LeafSpec(
                            g.terminal_rule("static", c.value).rule_id, section="path"
                        )
                    )
                else:
                    leaves.append(
                        _slot_leaf(
                            c, slot_values.pop(0), g, "request %d path" % idx, "path"
                        )
                    )
            # headers match by key chunk, order-insensitively
            remaining = list(header_lines)
            for key_chunk, val_chunk in layout.headers:
                hit = None
                for ln in remaining:
                    if ln.startswith(key_chunk.value):
                        hit = ln
                        break
                if hit is None:
                    raise ParseError(
                        "request %d: missing header %r" % (idx, key_chunk.value)
                    )
                remaining.remove(hit)
                leaves.append(
                    LeafSpec(
                        g.terminal_rule("static", key_chunk.value).rule_id,
                        section="header",
                    )
                )
                value = hit[len(key_chunk.value) :]
                leaves.append(
                    _slot_leaf(val_chunk, value, g, "request %d header" % idx, "header")
                    if val_chunk.kind != "static"
                    else _require_static(val_chunk, value, g, idx)
                )
            if remaining:
                raise ParseError("request %d: unmatched headers %r" % (idx, remaining))
            if layout.body:
                bm = _chunk_regex(layout.body).match(body_line)
                if bm is None:
                    raise ParseError("request %d: body does not match layout" % idx)
                bvals = list(bm.groups())
                for c in layout.body:
                    if c.kind == "static":
                        leaves.append(
                            LeafSpec(
                                g.terminal_rule("static", c.value).rule_id,
                                section="body",
                            )
                        )
                    else:
                        leaves.append(
                            _slot_leaf(
                                c, bvals.pop(0), g, "request %d body" % idx, "body"
                            )
                        )
            return leaves
        except ParseError as exc:
            last_error = exc
            continue
    if last_error is not None:
        raise last_error
    raise ParseError(
        "request %d: no layout matches %r %r" % (idx, method, path[:80])
    )


def _require_static(chunk, value: str, g: Grammar, idx: int) -> LeafSpec:
    if value != chunk.value:
        raise ParseError(
            "request %d: header value %r != expected static %r"
            % (idx, value, chunk.value)
        )
    return LeafSpec(g.terminal_rule("static", chunk.value).rule_id, section="header")


def parse_test_case(raw: str, g: Grammar) -> TestCase:
    """Parse canonicalised seed text into a :class:`TestCase`."""
    text = canonicalize(raw)
    if not text:
        raise ParseError("empty test case")
    blocks = text.strip("\n").split("\n\n")
    leaves: list[LeafSpec] = []
    for idx, block in enumerate(blocks):
        leaves.extend(_parse_request_block(block, g, idx))
    rs = RuleSequence.from_leaves(g, leaves)
    return TestCase.from_sequence(rs, g)
