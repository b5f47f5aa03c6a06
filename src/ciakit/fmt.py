"""Line-oriented text format for automaton documents.

A document holds one or more blocks::

    automaton <name>
    hierarchy <hier-expr>          # (tok+) for a leaf, ((hier)(hier)...) for a node
    states <id>+
    initial <id>+
    actions <tok>+                 # optional extra actions beyond those used
    trans <id> (<src>,<action>,<dst>) <id>
    ...
    end

``#`` starts a comment; tokens are whitespace-separated except inside the
hierarchy expression, which nests at most ``MAX_HIERARCHY_DEPTH`` levels.
The action set is inferred from the transitions plus the optional
``actions`` line.  Each distinct label token in a block is checked once,
against the hierarchy in force where it first occurs.
Serialization is canonical (sorted states, initial, actions and
transitions), so parse/serialize round-trips are stable.
"""

from __future__ import annotations

import re

from .core import Automaton, Hierarchy, Label, Transition, _check_word
from .errors import FormatError, ValidationError

_HIER_TOKEN_RE = re.compile(r"\(|\)|[A-Za-z0-9_]+")

# far below the depth at which recursive parsing, rendering or comparing overflows
MAX_HIERARCHY_DEPTH = 100


def parse_hierarchy(expr: str) -> Hierarchy:
    """Parse a hierarchy expression like ``(A B)`` or ``((A)(B C))``."""
    tokens = _HIER_TOKEN_RE.findall(expr)
    if "".join(tokens).replace(" ", "") != re.sub(r"\s+", "", expr):
        raise FormatError(f"invalid characters in hierarchy expression {expr!r}")
    pos = 0

    def parse_node(depth: int) -> Hierarchy:
        nonlocal pos
        if depth > MAX_HIERARCHY_DEPTH:
            raise FormatError(f"hierarchy nested deeper than {MAX_HIERARCHY_DEPTH} levels")
        if pos >= len(tokens) or tokens[pos] != "(":
            raise FormatError(f"expected '(' in hierarchy expression {expr!r}")
        pos += 1
        names: list[str] = []
        children: list[Hierarchy] = []
        while pos < len(tokens) and tokens[pos] != ")":
            if tokens[pos] == "(":
                children.append(parse_node(depth + 1))
            else:
                names.append(tokens[pos])
                pos += 1
        if pos >= len(tokens):
            raise FormatError(f"unbalanced parentheses in hierarchy expression {expr!r}")
        pos += 1  # consume ')'
        if names and children:
            raise FormatError(f"hierarchy mixes names and subtrees: {expr!r}")
        if not names and not children:
            raise FormatError(f"empty hierarchy group in {expr!r}")
        if names:
            return Hierarchy.leaf(*names)
        return Hierarchy.node(*children)

    tree = parse_node(1)
    if pos != len(tokens):
        raise FormatError(f"trailing tokens after hierarchy expression {expr!r}")
    return tree


class _Block:
    def __init__(self, name: str, line: int):
        self.name = name
        self.line = line
        self.hierarchy: Hierarchy | None = None
        self.states: set[str] = set()
        self.initial: dict[str, tuple[int, str]] = {}  # state -> (number, text) of its first line
        self.actions: list[str] = []
        self.labels: dict[str, Label] = {}  # tokens checked against ``hierarchy``
        self.transitions: list[Transition] = []


def _parse_label(token: str, components: frozenset[str]) -> Label:
    """Check a ``(src,action,dst)`` token's shape, words and component names."""
    parts = token[1:-1].split(",") if token[:1] == "(" and token[-1:] == ")" else ()
    if len(parts) != 3:
        raise FormatError(f"malformed label {token!r}")
    src, action, dst = parts
    label = Label(None if src == "-" else src, action, None if dst == "-" else dst)
    for name in (label.src, label.dst):
        if name is not None and name not in components:
            raise FormatError(f"unknown component name {name!r} in label {label}")
    return label


def parse_automata(text: str) -> list[Automaton]:
    """Parse every automaton block in a document, validating as it goes."""
    automata: list[Automaton] = []
    block: _Block | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        body = raw.split("#", 1)[0]
        tokens = body.split()
        if not tokens:
            continue
        keyword, args = tokens[0], tokens[1:]
        if keyword == "automaton":
            if block is not None:
                raise FormatError(f"automaton {block.name!r} not closed with 'end'", lineno)
            if len(args) != 1:
                raise FormatError("expected: automaton <name>", lineno)
            block = _Block(args[0], lineno)
            continue
        if block is None:
            raise FormatError(f"expected 'automaton', got {keyword!r}", lineno)
        if keyword == "hierarchy":
            rest = body.split(None, 1)
            if len(rest) < 2:
                raise FormatError("expected: hierarchy <expr>", lineno)
            try:
                block.hierarchy = parse_hierarchy(rest[1].strip())
            except (FormatError, ValidationError) as exc:
                raise FormatError(str(exc), lineno) from exc
            block.labels.clear()
        elif keyword == "states":
            for state in args:
                if state in block.states:
                    raise FormatError(f"duplicate state id {state!r}", lineno)
                block.states.add(state)
        elif keyword == "initial":
            for state in args:
                block.initial.setdefault(state, (lineno, body))
        elif keyword == "actions":
            for word in list(re.finditer(r"\S+", body))[1:]:
                try:
                    block.actions.append(_check_word(word.group(), "action"))
                except ValidationError as exc:
                    raise FormatError(str(exc), lineno, word.start() + 1) from exc
        elif keyword == "trans":
            if len(args) != 3:
                raise FormatError("expected: trans <id> (<src>,<action>,<dst>) <id>", lineno)
            source, token, target = args
            for endpoint in (source, target):
                if endpoint not in block.states:
                    raise FormatError(f"undeclared state {endpoint!r} in transition", lineno)
            if block.hierarchy is None:
                raise FormatError("hierarchy must be declared before transitions", lineno)
            if token not in block.labels:
                try:
                    block.labels[token] = _parse_label(token, block.hierarchy.leaf_names())
                except (FormatError, ValidationError) as exc:
                    # the label is the third word; the source state may contain its text
                    column = [word.start() for word in re.finditer(r"\S+", body)][2] + 1
                    raise FormatError(str(exc), lineno, column) from exc
            block.transitions.append(Transition(source, block.labels[token], target))
        elif keyword == "end":
            if block.hierarchy is None:
                raise FormatError(f"automaton {block.name!r} has no hierarchy", lineno)
            # checked here, as a ``states`` line may follow ``initial``
            for state, (line, words) in block.initial.items():
                if state not in block.states:
                    starts = [word.start() for word in re.finditer(r"\S+", words)]
                    column = starts[words.split().index(state, 1)] + 1
                    raise FormatError(f"initial state {state!r} not among states", line, column)
            try:
                automata.append(
                    Automaton.make(
                        name=block.name,
                        states=block.states,
                        transitions=block.transitions,
                        initial=block.initial,
                        hierarchy=block.hierarchy,
                        actions=block.actions,
                    )
                )
            except ValidationError as exc:
                raise FormatError(str(exc), lineno) from exc
            block = None
        else:
            raise FormatError(f"unknown keyword {keyword!r}", lineno)
    if block is not None:
        raise FormatError(f"automaton {block.name!r} not closed with 'end'", block.line)
    return automata


def serialize_automaton(automaton: Automaton) -> str:
    """Render an automaton in canonical form (ending with a newline)."""
    lines = [
        f"automaton {automaton.name}",
        f"hierarchy {automaton.hierarchy.render()}",
        "states " + " ".join(automaton.sorted_states()),
        "initial " + " ".join(sorted(automaton.initial)),
    ]
    used = {t.label.action for t in automaton.transitions}
    if automaton.actions != used:
        lines.append("actions " + " ".join(sorted(automaton.actions)))
    for trans in automaton.sorted_transitions():
        lines.append(f"trans {trans.source} {trans.label.render()} {trans.target}")
    lines.append("end")
    return "\n".join(lines) + "\n"
