"""Core model for Component Interaction Automata.

An automaton is a quintuple: a finite set of states, a finite set of actions,
a set of transitions carrying *structured labels*, a non-empty set of initial
states, and a *hierarchy* of component-instance names.  A structured label is
a triple ``(src, action, dst)`` whose annotations name the emitting and the
receiving component instance; an absent annotation (``None``, rendered ``-``)
marks the label as an open input or output.  A label may not have both
annotations absent.

All values here are immutable after construction and validated eagerly, so
they can be shared freely across threads.  Canonical orderings (states
lexicographic, labels by ``(src, action, dst)`` with absent sorting first)
remove every trace of set-iteration nondeterminism from serialized output.
"""

from __future__ import annotations

import enum
import re
from collections import deque
from dataclasses import dataclass, replace
from typing import Iterable, NamedTuple

from .errors import ValidationError

# Component instances and actions are bare word tokens; this keeps labels
# unambiguous inside the `(src,action,dst)` syntax.
_WORD_RE = re.compile(r"[A-Za-z0-9_]+\Z")
# State ids are opaque: any non-whitespace token works, which admits the
# tuple tokens `(q1,q2)` produced by composition.  `#` starts a comment.
_STATE_RE = re.compile(r"[^\s#]+\Z")


def _check_word(token: str, what: str) -> str:
    if not isinstance(token, str) or not _WORD_RE.match(token):
        raise ValidationError(f"invalid {what} {token!r}: expected letters/digits/underscore")
    return token


def _check_state_id(token: str) -> str:
    if not isinstance(token, str) or not _STATE_RE.match(token):
        raise ValidationError(f"invalid state id {token!r}")
    return token


class LabelKind(enum.Enum):
    INPUT = "input"
    OUTPUT = "output"
    INTERNAL = "internal"


@dataclass(frozen=True)
class Label:
    """Structured label ``(src, action, dst)``; ``None`` is the absent mark."""

    src: str | None
    action: str
    dst: str | None

    def __post_init__(self) -> None:
        if self.src is None and self.dst is None:
            raise ValidationError(f"label with two absent annotations: (-,{self.action},-)")
        if self.src is not None:
            _check_word(self.src, "component name")
        if self.dst is not None:
            _check_word(self.dst, "component name")
        _check_word(self.action, "action")

    @property
    def kind(self) -> LabelKind:
        if self.src is None:
            return LabelKind.INPUT
        if self.dst is None:
            return LabelKind.OUTPUT
        return LabelKind.INTERNAL

    def __hash__(self) -> int:
        # hash(None) is address-based before Python 3.12; hashing strings
        # only makes label sets, and so every internal numbering, iterate
        # in the same order in every process with the same PYTHONHASHSEED.
        # Spelled out rather than calling sort_key(): hashing is hot.  Not
        # cached: a pickled cache would carry it into another hash seed.
        return hash((self.src or "", self.action, self.dst or ""))

    def sort_key(self) -> tuple[str, str, str]:
        # absent annotations sort before any component name
        return (self.src or "", self.action, self.dst or "")

    def render(self) -> str:
        return f"({self.src or '-'},{self.action},{self.dst or '-'})"

    def __str__(self) -> str:
        return self.render()


class Transition(NamedTuple):
    source: str
    label: Label
    target: str

    def sort_key(self) -> tuple:
        return (self.source, self.label.sort_key(), self.target)


@dataclass(frozen=True)
class Hierarchy:
    """Composition tree: a leaf lists component-instance names, a node nests subtrees.

    Sibling subtrees must have pairwise disjoint leaf-name sets, so every
    component instance occurs exactly once in the whole tree.
    """

    names: tuple[str, ...] = ()
    children: tuple["Hierarchy", ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "names", tuple(self.names))
        object.__setattr__(self, "children", tuple(self.children))
        if bool(self.names) == bool(self.children):
            raise ValidationError("hierarchy must hold either names or subtrees (and at least one)")
        seen: set[str] = set()
        if self.names:
            for name in self.names:
                _check_word(name, "component name")
                if name in seen:
                    raise ValidationError(f"duplicate component name {name!r} in hierarchy leaf")
                seen.add(name)
        else:
            for child in self.children:
                if not isinstance(child, Hierarchy):
                    raise ValidationError("hierarchy children must be hierarchies")
                clash = seen & child.leaf_names()
                if clash:
                    raise ValidationError(
                        f"hierarchy leaf sets not disjoint: {sorted(clash)!r} occurs in two subtrees"
                    )
                seen |= child.leaf_names()
        # computed once; not a field, so equality, hash and repr ignore it
        object.__setattr__(self, "_leaf_names", frozenset(seen))

    @classmethod
    def leaf(cls, *names: str) -> "Hierarchy":
        return cls(names=tuple(names))

    @classmethod
    def node(cls, *children: "Hierarchy") -> "Hierarchy":
        return cls(children=tuple(children))

    @property
    def is_leaf(self) -> bool:
        return bool(self.names)

    def leaf_names(self) -> frozenset[str]:
        return self._leaf_names

    def render(self) -> str:
        if self.is_leaf:
            return "(" + " ".join(self.names) + ")"
        return "(" + "".join(child.render() for child in self.children) + ")"

    def __str__(self) -> str:
        return self.render()


@dataclass(frozen=True)
class Automaton:
    """A validated component interaction automaton.

    ``actions`` may strictly contain the actions used by ``transitions``;
    every label annotation must name a component instance from the hierarchy.
    """

    name: str
    states: frozenset[str]
    actions: frozenset[str]
    transitions: frozenset[Transition]
    initial: frozenset[str]
    hierarchy: Hierarchy

    def __post_init__(self) -> None:
        object.__setattr__(self, "states", frozenset(self.states))
        object.__setattr__(self, "actions", frozenset(self.actions))
        object.__setattr__(self, "initial", frozenset(self.initial))
        object.__setattr__(
            self,
            "transitions",
            frozenset(t if isinstance(t, Transition) else Transition(*t) for t in self.transitions),
        )
        self._validate()

    def _validate(self) -> None:
        _check_state_id(self.name)
        if not isinstance(self.hierarchy, Hierarchy):
            raise ValidationError("automaton requires a hierarchy")
        for state in self.states:
            _check_state_id(state)
        if not self.initial:
            raise ValidationError("initial set is empty")
        for state in self.initial:
            if state not in self.states:
                raise ValidationError(f"initial state {state!r} not among states")
        for action in self.actions:
            _check_word(action, "action")
        components = self.hierarchy.leaf_names()
        for trans in self.transitions:
            if trans.source not in self.states:
                raise ValidationError(f"transition source {trans.source!r} not among states")
            if trans.target not in self.states:
                raise ValidationError(f"transition target {trans.target!r} not among states")
            if not isinstance(trans.label, Label):
                raise ValidationError("transition label must be a Label")
            if trans.label.action not in self.actions:
                raise ValidationError(f"action {trans.label.action!r} not declared")
            for annotation in (trans.label.src, trans.label.dst):
                if annotation is not None and annotation not in components:
                    raise ValidationError(
                        f"unknown component name {annotation!r} in label {trans.label}"
                    )

    @classmethod
    def make(
        cls,
        name: str,
        states: Iterable[str],
        transitions: Iterable[Transition | tuple],
        initial: Iterable[str],
        hierarchy: Hierarchy,
        actions: Iterable[str] = (),
    ) -> "Automaton":
        """Build an automaton, inferring ``actions`` from the transitions."""
        transitions = list(transitions)
        actions = {*actions, *(label.action for _, label, _ in transitions)}
        return cls(name, states, actions, transitions, initial, hierarchy)

    def sorted_states(self) -> list[str]:
        return sorted(self.states)

    def sorted_transitions(self) -> list[Transition]:
        return sorted(self.transitions, key=Transition.sort_key)


class Indexed(NamedTuple):
    """An automaton's transition graph over integer state numbers.

    States are ``0 .. n-1`` and ``labels`` is the label table.  Label
    ``lid``'s j-th transition runs from ``sources[lid][j]`` to
    ``targets[lid][j]``; ``zip(sources[lid], targets[lid])`` reads its pairs.
    No transition occurs twice.  Composition, metrics and refinement work on
    this form; state names are made or read only where an ``Automaton`` is
    built or taken apart.
    """

    n: int
    labels: list[Label]
    sources: list[list[int]]
    targets: list[list[int]]

    @classmethod
    def of(cls, automaton: Automaton) -> tuple["Indexed", list[str]]:
        """Index an automaton's sorted states; returns the form and the state names."""
        states = automaton.sorted_states()
        index = {state: i for i, state in enumerate(states)}
        label_id: dict[Label, int] = {}
        sources: list[list[int]] = []
        targets: list[list[int]] = []
        for source, label, target in automaton.transitions:
            lid = label_id.setdefault(label, len(sources))
            if lid == len(sources):
                sources.append([])
                targets.append([])
            sources[lid].append(index[source])
            targets[lid].append(index[target])
        return cls(len(states), list(label_id), sources, targets), states

    def internal(self) -> list[bool]:
        """Per label id: whether the label is internal (silent)."""
        # kind is INTERNAL, without the property: a Label has at most one absent annotation
        return [None not in (label.src, label.dst) for label in self.labels]


def reachable(automaton: Automaton) -> Automaton:
    """Restrict an automaton to the states reachable from its initial states.

    Initial states are always kept; the action set and hierarchy are
    unchanged.  Idempotent: applying it twice equals applying it once.
    """
    adjacency: dict[str, list[str]] = {}
    for trans in automaton.transitions:
        adjacency.setdefault(trans.source, []).append(trans.target)
    seen = set(automaton.initial)
    queue = deque(seen)
    while queue:
        state = queue.popleft()
        for nxt in adjacency.get(state, ()):
            if nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)
    if seen == automaton.states:
        return automaton
    return replace(
        automaton,
        states=seen,
        transitions=(t for t in automaton.transitions if t.source in seen and t.target in seen),
    )
