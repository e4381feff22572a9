"""Rule sequences: encoding test cases as DFS production-rule ids.

A test case (an ordered list of HTTP requests) is represented as the
sequence of grammar rules applied in depth-first, left-to-right order
when deriving it from the start symbol.  Rule ids double as model token
ids, so this module is the bridge between wire text and the learned
mutation machinery.

Every test case is built one way: :func:`layout_leaves` turns a
request layout and the text of its non-static slots into leaves (seed
generation passes dictionary values, the parser the text it read), and
:meth:`TestCase.from_leaves` derives the tokens and replays them once.

A mutated leaf either swaps to another terminal of the same left-hand
side or keeps its rule token and carries a raw byte payload that
overrides rendering.  Either way the mutant is a valid derivation with
its seed's shape, so it reuses the seed's request views, while
mutations can still place arbitrary bytes anywhere.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from .grammar import (
    DEPENDENCY_KINDS,
    EPSILON,
    STRUCTURAL,
    TERMINAL,
    Grammar,
    Rule,
)

SECTION_SYMBOLS = ("path", "header", "body")
MARKER_RE = re.compile(r"^\{\{producer:([A-Za-z0-9_.-]+)\}\}$")
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


def replay_tokens(tokens: list[int], g: Grammar) -> ReplayInfo:
    """Validate ``tokens`` as a DFS derivation from the start symbol and
    return structural information.  Raises :class:`ParseError` if the
    sequence is not a complete, valid derivation."""
    nts = g.nonterminals
    stack: list[tuple[str, str | None]] = [("sequence", None)]
    leaf_positions: list[int] = []
    leaf_sections: list[str | None] = []
    leaf_requests: list[int] = []
    req_idx = -1

    for pos, rid in enumerate(tokens):
        if rid < 0 or rid >= len(g.rules):
            raise ParseError("position %d: unknown rule id %d" % (pos, rid))
        rule = g.rules[rid]
        if not stack:
            raise ParseError("position %d: tokens continue after completion" % pos)
        sym, sect = stack.pop()
        if rule.lhs != sym:
            raise ParseError(
                "position %d: expected %r, got rule %r" % (pos, sym, rule)
            )
        if rule.lhs == "request":
            req_idx += 1
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
    if stack:
        raise ParseError(
            "derivation incomplete: %d symbols still pending (%r...)"
            % (len(stack), stack[-1][0])
        )
    return ReplayInfo(
        leaf_positions=leaf_positions,
        leaf_sections=leaf_sections,
        leaf_requests=leaf_requests,
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

    Built by :meth:`TestCase.from_leaves` (or copied from one and edited
    by ``mutation.apply_plan``).  ``leaf_index`` holds the token position
    of each leaf.  ``payloads`` maps token positions (which must be leaf
    positions) to raw byte strings that replace the terminal's value
    when rendering; a consumer leaf's live binding, when there is one,
    still wins over its payload.
    """

    tokens: list[int]
    payloads: dict[int, str] = field(default_factory=dict)
    leaf_index: list[int] = field(default_factory=list)

    def copy(self) -> "RuleSequence":
        return RuleSequence(list(self.tokens), dict(self.payloads), list(self.leaf_index))

    def n_leaves(self) -> int:
        return len(self.leaf_index)

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
    """A rule sequence plus its per-request leaf grouping.

    :meth:`from_leaves` builds one from layout leaves (seed generation
    and parsing); :meth:`from_sequence` replays an existing sequence.
    A mutant keeps its seed's shape, so it reuses the seed's views.
    """

    seq: RuleSequence
    requests: list[RequestView]

    @classmethod
    def from_leaves(cls, g: Grammar, leaves: list[LeafSpec]) -> "TestCase":
        """Derive the tokens covering ``leaves`` and replay them once."""
        tokens = derive_tokens(g, leaves)
        info = replay_tokens(tokens, g)
        payloads = {
            info.leaf_positions[ordinal]: spec.payload
            for ordinal, spec in enumerate(leaves)
            if spec.payload is not None
        }
        rs = RuleSequence(tokens, payloads, info.leaf_positions)
        return cls(seq=rs, requests=_request_views(info))

    @classmethod
    def from_sequence(cls, rs: RuleSequence, g: Grammar) -> "TestCase":
        return cls(seq=rs, requests=_request_views(replay_tokens(rs.tokens, g)))


def _request_views(info: ReplayInfo) -> list[RequestView]:
    """Group a replay's leaf ordinals by request and syntactic role."""
    grouped: dict[int, dict[str, list[int]]] = {}
    for ordinal in range(len(info.leaf_positions)):
        req = info.leaf_requests[ordinal]
        sect = info.leaf_sections[ordinal]
        grouped.setdefault(req, {"method": [], "path": [], "header": [], "body": []})
        if sect is None:
            raise ParseError("leaf %d has no syntactic section" % ordinal)
        grouped[req][sect].append(ordinal)
    views: list[RequestView] = []
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
    return views


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


def render(tc: TestCase, g: Grammar) -> str:
    """Render a test case to seed-file text (placeholder mode:
    unresolved dependency slots keep their ``{{producer:...}}`` marker)."""
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
    """Map the text of one non-static chunk to a terminal rule (+payload)."""
    if c.kind in DEPENDENCY_KINDS:
        rule = g.terminal_rule(c.kind, c.resource)
        if value == marker_text(c.resource):
            return LeafSpec(rule.rule_id, section=section)
        if MARKER_RE.match(value) is not None:
            raise ParseError(
                "%s: marker %r does not name resource %r" % (where, value, c.resource)
            )
        return LeafSpec(rule.rule_id, payload=value, section=section)
    rule = g.terminal_rule(c.kind, value)
    if rule is not None:
        return LeafSpec(rule.rule_id, section=section)
    if c.kind == "uuid":
        # any text parses as a uuid: the first uuid rule carries it as payload
        for r in g.rules_by_lhs.get("uuid", ()):
            if r.kind == TERMINAL:
                return LeafSpec(r.rule_id, payload=value, section=section)
    raise ParseError("%s: no terminal rule for %s value %r" % (where, c.kind, value))


def layout_leaves(g: Grammar, layout, slot_values) -> list[LeafSpec]:
    """The leaves of one request of ``layout``, method first.

    Static chunks become their own terminal.  ``slot_values`` holds the
    text of each non-static chunk in layout order (path, header, body).
    A dependency slot reading as its ``marker_text`` stays unresolved;
    any other text becomes a payload on the slot's terminal.
    """
    values = iter(slot_values)
    leaves = [LeafSpec(g.terminal_rule("method", layout.method).rule_id, section="method")]
    chunks = [("path", c) for c in layout.path]
    chunks += [("header", c) for pair in layout.headers for c in pair]
    chunks += [("body", c) for c in layout.body]
    for section, c in chunks:
        if c.kind == "static":
            rule = g.terminal_rule("static", c.value)
            leaves.append(LeafSpec(rule.rule_id, section=section))
        else:
            where = "layout %r %s" % (layout.name, section)
            leaves.append(_slot_leaf(c, next(values), g, where, section))
    return leaves


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
            slot_values = list(m.groups())
            # headers match by key chunk, order-insensitively
            remaining = list(header_lines)
            for key_chunk, val_chunk in layout.headers:
                hit = None
                for ln in remaining:
                    if ln.startswith(key_chunk.value):
                        hit = ln
                        break
                if hit is None:
                    raise ParseError("missing header %r" % key_chunk.value)
                remaining.remove(hit)
                value = hit[len(key_chunk.value) :]
                if val_chunk.kind != "static":
                    slot_values.append(value)
                elif value != val_chunk.value:
                    raise ParseError(
                        "header value %r != expected static %r" % (value, val_chunk.value)
                    )
            if remaining:
                raise ParseError("unmatched headers %r" % remaining)
            if layout.body:
                bm = _chunk_regex(layout.body).match(body_line)
                if bm is None:
                    raise ParseError("body does not match layout")
                slot_values.extend(bm.groups())
            return layout_leaves(g, layout, slot_values)
        except ParseError as exc:
            last_error = exc
    if last_error is not None:
        raise ParseError("request %d: %s" % (idx, last_error))
    raise ParseError(
        "request %d: no layout matches %r %r" % (idx, method, path[:80])
    )


def parse_test_case(raw: str, g: Grammar) -> TestCase:
    """Parse canonicalised seed text into a :class:`TestCase`."""
    text = canonicalize(raw)
    if not text:
        raise ParseError("empty test case")
    blocks = text.strip("\n").split("\n\n")
    leaves: list[LeafSpec] = []
    for idx, block in enumerate(blocks):
        leaves.extend(_parse_request_block(block, g, idx))
    return TestCase.from_leaves(g, leaves)
