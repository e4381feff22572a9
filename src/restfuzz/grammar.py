"""Tail-recursive regular grammar for REST API test cases.

A grammar file has three kinds of sections:

  [alphabet <name>]     one terminal value per line (backslash-escaped)
  [rule]                productions, one per line:  lhs -> sym + sym | sym
  [request <name>]      a concrete request layout (method/path/header/body)

Rule right-hand sides may reference an alphabet with ``@name``, which
expands to one terminal rule per alphabet value.  ``eps`` denotes the
empty alternative.  Lines starting with ``#`` are comments.  Recursion
is allowed only through a rule's right-most symbol; :func:`loads`
rejects any other.

All terminal values and payloads are handled as ``str`` with a strict
latin-1 byte mapping (codepoints 0..255 == raw bytes), so arbitrary,
even non-UTF-8, byte values survive loading and rendering unchanged.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

# The fixed nonterminal universe.  Grammar files may use any subset of
# these on the left-hand side; unknown symbols are rejected at load time
# so typos do not silently become new nonterminals.
START_SYMBOL = "sequence"
NONTERMINALS = frozenset(
    {
        "sequence",
        "request",
        "method",
        "path",
        "header",
        "body",
        "b1",
        "b2",
        "b3",
        "producer",
        "consumer",
        "static",
        "fuzzable",
        "string",
        "int",
        "bool",
        "enum",
        "uuid",
    }
)

# Leaf categories that take their value from an alphabet chosen by the
# request layout rather than a fixed literal.
FUZZABLE_KINDS = ("string", "int", "bool", "enum", "uuid")
DEPENDENCY_KINDS = ("producer", "consumer")

STRUCTURAL = "structural"
TERMINAL = "terminal"
EPSILON = "epsilon"

class GrammarError(ValueError):
    """Raised for malformed grammar files or inconsistent references."""


def unescape(text: str) -> str:
    """Decode backslash escapes (\\\\ \\" \\n \\r \\t \\xNN) in a value."""
    out = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch != "\\":
            out.append(ch)
            i += 1
            continue
        if i + 1 >= n:
            raise GrammarError("dangling backslash in %r" % text)
        nxt = text[i + 1]
        if nxt == "x":
            hex_part = text[i + 2 : i + 4]
            if len(hex_part) != 2:
                raise GrammarError("bad \\x escape in %r" % text)
            try:
                code = int(hex_part, 16)
            except ValueError:
                raise GrammarError("bad \\x escape in %r" % text) from None
            out.append(chr(code))
            i += 4
        elif nxt in ("\\", '"'):
            out.append(nxt)
            i += 2
        elif nxt == "n":
            out.append("\n")
            i += 2
        elif nxt == "r":
            out.append("\r")
            i += 2
        elif nxt == "t":
            out.append("\t")
            i += 2
        else:
            raise GrammarError("unknown escape \\%s in %r" % (nxt, text))
    return "".join(out)


def escape(text: str) -> str:
    """Inverse of :func:`unescape`; non-printable bytes become \\xNN."""
    out = []
    for ch in text:
        code = ord(ch)
        if code > 0xFF:
            raise GrammarError("codepoint %r outside byte range" % ch)
        if ch == "\\":
            out.append("\\\\")
        elif ch == "\n":
            out.append("\\n")
        elif ch == "\r":
            out.append("\\r")
        elif ch == "\t":
            out.append("\\t")
        elif code < 0x20 or code > 0x7E:
            out.append("\\x%02x" % code)
        else:
            out.append(ch)
    return "".join(out)


@dataclass(frozen=True)
class Rule:
    """One production.  ``rule_id`` doubles as the model token id base."""

    rule_id: int
    lhs: str
    rhs: tuple[str, ...]
    kind: str  # STRUCTURAL, TERMINAL or EPSILON
    value: str | None = None  # terminal text (TERMINAL rules only)

    def __repr__(self) -> str:  # compact, useful in assertion diffs
        if self.kind == TERMINAL:
            return "R%d[%s->%r]" % (self.rule_id, self.lhs, self.value)
        if self.kind == EPSILON:
            return "R%d[%s->eps]" % (self.rule_id, self.lhs)
        return "R%d[%s->%s]" % (self.rule_id, self.lhs, "+".join(self.rhs))


@dataclass(frozen=True)
class Chunk:
    """One layout slot: a static literal, a fuzzable hole, or a
    producer/consumer dependency slot."""

    kind: str  # "static", one of FUZZABLE_KINDS, "producer" or "consumer"
    value: str | None = None  # literal text (static only)
    resource: str | None = None  # resource type (producer/consumer only)


@dataclass
class RequestLayout:
    """Concrete shape of one API request as chunk lists."""

    name: str
    method: str
    path: list[Chunk] = field(default_factory=list)
    headers: list[tuple[Chunk, Chunk]] = field(default_factory=list)
    body: list[Chunk] = field(default_factory=list)
    produces: list[str] = field(default_factory=list)

    def all_chunks(self):
        for c in self.path:
            yield c
        for k, v in self.headers:
            yield k
            yield v
        for c in self.body:
            yield c

    def consumed_resources(self) -> set[str]:
        return {c.resource for c in self.all_chunks() if c.kind == "consumer"}

    def produced_resources(self) -> set[str]:
        out = set(self.produces)
        out |= {c.resource for c in self.all_chunks() if c.kind == "producer"}
        return out

    def fuzzable_chunks(self) -> list[Chunk]:
        return [c for c in self.all_chunks() if c.kind in FUZZABLE_KINDS]


@dataclass
class Grammar:
    """A loaded grammar: rules with dense ids, alphabets and layouts."""

    alphabets: dict[str, list[str]]
    rules: list[Rule]
    requests: list[RequestLayout]
    source_name: str = "<memory>"

    def __post_init__(self) -> None:
        self.rules_by_lhs: dict[str, list[Rule]] = {}
        for r in self.rules:
            self.rules_by_lhs.setdefault(r.lhs, []).append(r)
        self.requests_by_name = {rq.name: rq for rq in self.requests}
        self._terminal_index: dict[tuple[str, str], Rule] = {}
        for r in self.rules:
            if r.kind == TERMINAL:
                self._terminal_index[(r.lhs, r.value)] = r
        # like the indexes above, this assumes the grammar is not mutated
        h = hashlib.sha256()
        for name in sorted(self.alphabets):
            h.update(b"[A]" + name.encode("utf-8"))
            for v in self.alphabets[name]:
                h.update(b"\x00" + v.encode("latin-1"))
        for r in self.rules:
            h.update(
                b"[R]"
                + repr((r.rule_id, r.lhs, r.rhs, r.kind, r.value)).encode("latin-1")
            )
        for rq in self.requests:
            h.update(b"[Q]" + rq.name.encode("utf-8") + rq.method.encode("utf-8"))
            for c in rq.all_chunks():
                h.update(
                    b"\x00" + repr((c.kind, c.value, c.resource)).encode("latin-1")
                )
            h.update(b"\x00" + ",".join(sorted(rq.produces)).encode("utf-8"))
        self._digest = h.hexdigest()

    @property
    def nonterminals(self) -> set[str]:
        return {r.lhs for r in self.rules}

    def terminal_rule(self, lhs: str, value: str) -> Rule | None:
        return self._terminal_index.get((lhs, value))

    def grammar_hash(self) -> str:
        return self._digest


def terminal_rules(g: Grammar) -> list[Rule]:
    """All terminal rules of ``g`` (one per alphabet value reference)."""
    return [r for r in g.rules if r.kind == TERMINAL]


def check_tail_recursive(g: Grammar) -> list[str]:
    """Return violation messages; empty list means the grammar is
    tail-recursive (recursion only via the right-most RHS symbol)."""
    nts = g.nonterminals
    edges: dict[str, set[str]] = {nt: set() for nt in nts}
    for r in g.rules:
        if r.kind != STRUCTURAL:
            continue
        for sym in r.rhs:
            if sym in nts:
                edges[r.lhs].add(sym)

    reach_cache: dict[str, set[str]] = {}

    def reachable(start: str) -> set[str]:
        if start in reach_cache:
            return reach_cache[start]
        seen: set[str] = set()
        stack = [start]
        while stack:
            cur = stack.pop()
            for nxt in edges.get(cur, ()):
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
        reach_cache[start] = seen
        return seen

    violations = []
    for r in g.rules:
        if r.kind != STRUCTURAL:
            continue
        for pos, sym in enumerate(r.rhs):
            if sym not in nts:
                continue
            cyclic = r.lhs in reachable(sym) or sym == r.lhs
            if cyclic and pos != len(r.rhs) - 1:
                violations.append(
                    "rule %r: recursive symbol %r at non-tail position %d"
                    % (r, sym, pos)
                )
    return violations


def _tokenize_chunks(text: str, line_no: int) -> list[str]:
    """Split a layout line into chunk tokens, honouring double quotes."""
    toks = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch == '"':
            j = i + 1
            buf = []
            while j < n:
                if text[j] == "\\" and j + 1 < n:
                    buf.append(text[j : j + 2])
                    j += 2
                    continue
                if text[j] == '"':
                    break
                buf.append(text[j])
                j += 1
            if j >= n:
                raise GrammarError("line %d: unterminated quote" % line_no)
            toks.append('"' + "".join(buf) + '"')
            i = j + 1
        else:
            j = i
            while j < n and not text[j].isspace():
                j += 1
            toks.append(text[i:j])
            i = j
    return toks


def _parse_chunk(tok: str, line_no: int) -> Chunk:
    if tok.startswith('"'):
        return Chunk(kind="static", value=unescape(tok[1:-1]))
    if ":" in tok:
        head, arg = tok.split(":", 1)
        if head in ("producer", "consumer"):
            return Chunk(kind=head, resource=arg)
        if head == "fuzz":
            if arg not in FUZZABLE_KINDS:
                raise GrammarError("line %d: unknown fuzzable type %r" % (line_no, arg))
            return Chunk(kind=arg)
        raise GrammarError("line %d: unknown chunk %r" % (line_no, tok))
    raise GrammarError("line %d: unknown chunk %r" % (line_no, tok))


def loads(text: str, source_name: str = "<memory>") -> Grammar:
    """Parse grammar text into a :class:`Grammar`."""
    alphabets: dict[str, list[str]] = {}
    rule_lines: list[tuple[int, str]] = []
    layouts: list[RequestLayout] = []

    section = None  # ("alphabet", name) | ("rule",) | ("request", layout)
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.rstrip("\n")
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if stripped.startswith("[") and stripped.endswith("]"):
            inner = stripped[1:-1].strip()
            parts = inner.split(None, 1)
            if parts[0] == "alphabet":
                if len(parts) != 2:
                    raise GrammarError("line %d: alphabet needs a name" % line_no)
                name = parts[1].strip()
                alphabets.setdefault(name, [])
                section = ("alphabet", name)
            elif parts[0] == "rule":
                section = ("rule",)
            elif parts[0] == "request":
                if len(parts) != 2:
                    raise GrammarError("line %d: request needs a name" % line_no)
                layout = RequestLayout(name=parts[1].strip(), method="")
                layouts.append(layout)
                section = ("request", layout)
            else:
                raise GrammarError("line %d: unknown section %r" % (line_no, inner))
            continue
        if section is None:
            raise GrammarError("line %d: content before any section" % line_no)
        if section[0] == "alphabet":
            value = unescape(stripped)
            bucket = alphabets[section[1]]
            if value not in bucket:
                bucket.append(value)
        elif section[0] == "rule":
            rule_lines.append((line_no, stripped))
        else:
            layout = section[1]
            key, _, rest = stripped.partition(" ")
            rest = rest.strip()
            if key == "method":
                layout.method = rest
            elif key == "path":
                layout.path = [
                    _parse_chunk(t, line_no) for t in _tokenize_chunks(rest, line_no)
                ]
            elif key == "header":
                chunks = [
                    _parse_chunk(t, line_no) for t in _tokenize_chunks(rest, line_no)
                ]
                if len(chunks) != 2:
                    raise GrammarError(
                        "line %d: header takes exactly 2 chunks (key, value)" % line_no
                    )
                layout.headers.append((chunks[0], chunks[1]))
            elif key == "body":
                layout.body = [
                    _parse_chunk(t, line_no) for t in _tokenize_chunks(rest, line_no)
                ]
            elif key == "produces":
                layout.produces.append(rest)
            else:
                raise GrammarError("line %d: unknown request field %r" % (line_no, key))

    # Register layout static literals and methods into their alphabets so
    # every layout chunk has a terminal rule to expand to.
    for layout in layouts:
        if not layout.method:
            raise GrammarError("request %r has no method" % layout.name)
        bucket = alphabets.setdefault("http-methods", [])
        if layout.method not in bucket:
            bucket.append(layout.method)
        statics = alphabets.setdefault("static", [])
        for c in layout.all_chunks():
            if c.kind == "static" and c.value not in statics:
                statics.append(c.value)
            if c.kind in DEPENDENCY_KINDS:
                ids = alphabets.setdefault("resource-ids", [])
                if c.resource not in ids:
                    ids.append(c.resource)

    # Expand rule lines into Rule objects with dense ids in file order.
    rules: list[Rule] = []

    def add_rule(lhs, rhs, kind, value=None):
        rules.append(
            Rule(rule_id=len(rules), lhs=lhs, rhs=tuple(rhs), kind=kind, value=value)
        )

    for line_no, line in rule_lines:
        if "->" not in line:
            raise GrammarError("line %d: rule without '->'" % line_no)
        lhs, rhs_text = line.split("->", 1)
        lhs = lhs.strip()
        if lhs not in NONTERMINALS:
            raise GrammarError("line %d: unknown nonterminal %r" % (line_no, lhs))
        for alt in rhs_text.split("|"):
            syms = [s.strip() for s in alt.split("+") if s.strip()]
            if not syms:
                raise GrammarError("line %d: empty alternative" % line_no)
            if syms == ["eps"]:
                add_rule(lhs, (), EPSILON)
                continue
            if len(syms) == 1 and syms[0].startswith("@"):
                name = syms[0][1:]
                for value in alphabets.get(name, []):
                    add_rule(lhs, (value,), TERMINAL, value=value)
                continue
            for sym in syms:
                if sym.startswith("@"):
                    raise GrammarError(
                        "line %d: @alphabet must be the only RHS symbol" % line_no
                    )
                if sym not in NONTERMINALS:
                    raise GrammarError("line %d: unknown symbol %r" % (line_no, sym))
            add_rule(lhs, syms, STRUCTURAL)

    g = Grammar(
        alphabets=alphabets, rules=rules, requests=layouts, source_name=source_name
    )
    # DFS rule sequences are replayed with a stack that assumes right
    # recursion, so any other recursion is rejected here.
    violations = check_tail_recursive(g)
    if violations:
        raise GrammarError("; ".join(violations))

    # Sanity: layout chunks must resolve to terminal rules.
    for layout in layouts:
        if g.terminal_rule("method", layout.method) is None:
            raise GrammarError(
                "request %r: method %r has no terminal rule (missing "
                "'method -> @http-methods'?)" % (layout.name, layout.method)
            )
        for c in layout.all_chunks():
            if c.kind == "static" and g.terminal_rule("static", c.value) is None:
                raise GrammarError(
                    "request %r: static %r has no terminal rule" % (layout.name, c.value)
                )
            if c.kind in DEPENDENCY_KINDS and g.terminal_rule(c.kind, c.resource) is None:
                raise GrammarError(
                    "request %r: %s %r has no terminal rule"
                    % (layout.name, c.kind, c.resource)
                )
    return g


def load_grammar(path) -> Grammar:
    """Load a grammar file from ``path``."""
    with open(path, "r", encoding="latin-1") as fh:
        return loads(fh.read(), source_name=str(path))


def packaged_reference_grammar() -> str:
    """Filesystem path of the bundled reference-service grammar."""
    from importlib import resources

    return str(resources.files(__package__).joinpath("data/reference.grammar"))
