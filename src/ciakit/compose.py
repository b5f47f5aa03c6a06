"""Product composition of component interaction automata.

The composite of ``k`` automata lives on the Cartesian product of their state
sets.  Its transitions fall into four classes:

* old sync  -- an internal label of one component fires, the rest stay put
               (no gating: completed synchronizations persist);
* new sync  -- an output ``(n1,a,-)`` of one component pairs with an input
               ``(-,a,n2)`` of a *different* component, both move, producing
               the internal label ``(n1,a,n2)``;
* input     -- an input label fires alone, allowed only if its action is in
               the required set R;
* output    -- an output label fires alone, allowed only if its action is in
               the provided set P.

Composite states serialize as tuple tokens ``(q1,q2,...)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Iterable, Sequence

from .core import Automaton, Hierarchy, Label, LabelKind, Transition, reachable
from .errors import ValidationError
from .refine import partition_refine, quotient

__all__ = ["IoSets", "default_io_sets", "resolve_io", "compose", "compose_pairwise_reduce"]


@dataclass(frozen=True)
class IoSets:
    """Provided (P) and required (R) action sets gating solo output/input moves."""

    provided: frozenset[str]
    required: frozenset[str]

    def __post_init__(self) -> None:
        object.__setattr__(self, "provided", frozenset(self.provided))
        object.__setattr__(self, "required", frozenset(self.required))

    @classmethod
    def closed(cls) -> "IoSets":
        return cls(frozenset(), frozenset())


def default_io_sets(components: Iterable[Automaton]) -> IoSets:
    """Keep open interfaces open: R collects input actions, P output actions."""
    provided: set[str] = set()
    required: set[str] = set()
    for automaton in components:
        for trans in automaton.transitions:
            kind = trans.label.kind
            if kind is LabelKind.INPUT:
                required.add(trans.label.action)
            elif kind is LabelKind.OUTPUT:
                provided.add(trans.label.action)
    return IoSets(frozenset(provided), frozenset(required))


def resolve_io(policy: str | IoSets, components: Iterable[Automaton]) -> IoSets:
    """IoSets for a policy: explicit sets as given, ``"open"`` or ``"closed"``."""
    if isinstance(policy, IoSets):
        return policy
    if policy == "open":
        return default_io_sets(components)
    if policy == "closed":
        return IoSets.closed()
    raise ValueError(f"unknown io policy {policy!r}")


def _state_token(parts: Sequence[str]) -> str:
    return "(" + ",".join(parts) + ")"


def compose(components: Sequence[Automaton], io: IoSets) -> Automaton:
    """N-ary product composition under the four transition classes."""
    if len(components) < 2:
        raise ValidationError("composition needs at least 2 components")
    taken: set[str] = set()
    for automaton in components:
        clash = taken & automaton.hierarchy.leaf_names()
        if clash:
            raise ValidationError(f"component hierarchies overlap on {sorted(clash)!r}")
        taken |= automaton.hierarchy.leaf_names()
    all_actions = frozenset().union(*(a.actions for a in components))
    stray = (io.provided | io.required) - all_actions
    if stray:
        raise ValidationError(f"io sets mention unknown actions {sorted(stray)!r}")

    k = len(components)
    state_lists = [a.sorted_states() for a in components]
    transitions: set[Transition] = set()

    def others_product(skip: tuple[int, ...]):
        return product(*(state_lists[j] if j not in skip else [None] for j in range(k)))

    def fill(frame, moves: dict[int, tuple[str, str]]) -> tuple[str, str]:
        src, dst = [], []
        for j in range(k):
            if j in moves:
                src.append(moves[j][0])
                dst.append(moves[j][1])
            else:
                src.append(frame[j])
                dst.append(frame[j])
        return _state_token(src), _state_token(dst)

    for i, automaton in enumerate(components):
        for trans in automaton.transitions:
            kind = trans.label.kind
            if kind is LabelKind.INPUT and trans.label.action not in io.required:
                continue
            if kind is LabelKind.OUTPUT and trans.label.action not in io.provided:
                continue
            # old sync (internal) and gated solo input/output all move one component
            for frame in others_product((i,)):
                src, dst = fill(frame, {i: (trans.source, trans.target)})
                transitions.add(Transition(src, trans.label, dst))

    for i1, out_comp in enumerate(components):
        outputs = [t for t in out_comp.transitions if t.label.kind is LabelKind.OUTPUT]
        if not outputs:
            continue
        for i2, in_comp in enumerate(components):
            if i1 == i2:
                continue
            inputs = [t for t in in_comp.transitions if t.label.kind is LabelKind.INPUT]
            for t_out in outputs:
                for t_in in inputs:
                    if t_out.label.action != t_in.label.action:
                        continue
                    label = Label(t_out.label.src, t_out.label.action, t_in.label.dst)
                    for frame in others_product((i1, i2)):
                        src, dst = fill(
                            frame,
                            {i1: (t_out.source, t_out.target), i2: (t_in.source, t_in.target)},
                        )
                        transitions.add(Transition(src, label, dst))

    states = frozenset(_state_token(parts) for parts in product(*state_lists))
    initial = frozenset(
        _state_token(parts) for parts in product(*(sorted(a.initial) for a in components))
    )
    return Automaton(
        name="".join(a.name for a in components),
        states=states,
        actions=all_actions,
        transitions=frozenset(transitions),
        initial=initial,
        hierarchy=Hierarchy.node(*(a.hierarchy for a in components)),
    )


def compose_pairwise_reduce(
    components: Sequence[Automaton],
    io: IoSets,
    timeout: float | None = None,
    strict_internal: bool = False,
) -> Automaton:
    """Left-fold composition, pruning and reducing after every pairwise step.

    Composing only two automata at a time and immediately applying
    reachability pruning plus weak-bisimulation reduction keeps intermediate
    products small ("on-the-fly" reduction).  Fold order is part of the
    contract.  Raises RefinementTimeout if any reduction exceeds ``timeout``.
    """
    if len(components) < 2:
        raise ValidationError("composition needs at least 2 components")
    acc = components[0]
    for nxt in components[1:]:
        composite = reachable(compose([acc, nxt], io))
        partition = partition_refine(composite, timeout, strict_internal=strict_internal)
        acc = quotient(composite, partition)
    return acc
