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

One explorer builds every composite.  It reads each component's indexed
form (``core.Indexed.of``, which numbers the sorted states), codes a product
state as one integer and runs a worklist from a seed set of product states,
appending each move to its label's edge list (``core.Indexed``).
``compose`` seeds it with every product state; ``compose_pairwise_reduce``
and the experiment pipeline seed it with the initial states, which gives
``reachable(compose(...))`` without building the unreachable part, and
refine that indexed form as it is.  Composite states are named with tuple
tokens ``(q1,q2,...)`` only when an ``Automaton`` is returned.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import product
from typing import Iterable, Sequence

from .core import Automaton, Hierarchy, Indexed, Label, LabelKind, Transition
from .errors import ValidationError
from .refine import Partition, quotient, refine_indexed

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


class _Product:
    """Move tables of each component over its ``Indexed.of`` state numbers.

    A product state is coded as one integer, ``sum(local_i * stride_i)``
    with the last component varying fastest, so codes ``0 .. size-1`` run
    in the order of the Cartesian product of the sorted state lists and a
    move of component ``i`` from ``s`` to ``t`` adds ``(t - s) * stride_i``.
    """

    def __init__(self, components: Sequence[Automaton], io: IoSets):
        if len(components) < 2:
            raise ValidationError("composition needs at least 2 components")
        # Hierarchy.node rejects a leaf name two components share
        self.hierarchy = Hierarchy.node(*(a.hierarchy for a in components))
        self.actions = frozenset().union(*(a.actions for a in components))
        stray = (io.provided | io.required) - self.actions
        if stray:
            raise ValidationError(f"io sets mention unknown actions {sorted(stray)!r}")

        self.components = components
        forms = [Indexed.of(a) for a in components]
        self.names = [names for _, names in forms]
        self.strides = [1] * len(components)
        for i in range(len(components) - 2, -1, -1):
            self.strides[i] = self.strides[i + 1] * len(self.names[i + 1])
        self.size = self.strides[0] * len(self.names[0])
        self.labels: list[Label] = []
        self._label_id: dict[tuple, int] = {}
        # per component and local state: solo moves as (label id, code delta),
        # and per action the halves of a sync move as (annotation, code delta)
        self.solo, self.sends, self.receives = [], [], []
        for (form, names), stride in zip(forms, self.strides):
            solo: list[list[tuple[int, int]]] = [[] for _ in names]
            sends: list[dict[str, list]] = [{} for _ in names]
            receives: list[dict[str, list]] = [{} for _ in names]
            for label, flat in zip(form.labels, form.edges):
                kind = label.kind
                for src, dst in zip(flat[::2], flat[1::2]):
                    delta = (dst - src) * stride
                    if kind is LabelKind.OUTPUT:
                        sends[src].setdefault(label.action, []).append((label.src, delta))
                        if label.action not in io.provided:
                            continue
                    elif kind is LabelKind.INPUT:
                        receives[src].setdefault(label.action, []).append((label.dst, delta))
                        if label.action not in io.required:
                            continue
                    lid = self._intern(label.src, label.action, label.dst, label)
                    solo[src].append((lid, delta))
            self.solo.append(solo)
            self.sends.append(sends)
            self.receives.append(receives)

    def _intern(
        self, src: str | None, action: str, dst: str | None, label: Label | None = None
    ) -> int:
        key = (src, action, dst)
        lid = self._label_id.get(key)
        if lid is None:
            lid = self._label_id[key] = len(self.labels)
            self.labels.append(Label(src, action, dst) if label is None else label)
        return lid

    def initial_codes(self) -> list[int]:
        local = [
            [names.index(state) * stride for state in sorted(a.initial)]
            for a, names, stride in zip(self.components, self.names, self.strides)
        ]
        return [sum(parts) for parts in product(*local)]

    def token(self, code: int) -> str:
        parts = (
            names[code // stride % len(names)] for names, stride in zip(self.names, self.strides)
        )
        return "(" + ",".join(parts) + ")"

    def explore(self, seeds: Iterable[int]) -> tuple[Indexed, list[int]]:
        """Every product state reachable from ``seeds``, numbered in discovery
        order; returns the indexed form and the code of each state.

        Moves are appended with no duplicate check, because the moves of
        one state are distinct.  Each component's transitions are a
        frozenset.  Solo labels of different components differ: every
        annotation names an instance of the component's own hierarchy, and
        the hierarchies are disjoint.  A sync label ``(n1,a,n2)`` names its
        sender's and its receiver's component, so it is no solo label and
        fixes the pair.  For one label, distinct local transitions give
        distinct code deltas, as codes are mixed-radix numbers.
        """
        index: dict[int, int] = {}
        codes: list[int] = []
        for code in seeds:
            if code not in index:
                index[code] = len(codes)
                codes.append(code)
        labels = self.labels
        edges: list[list[int]] = [[] for _ in labels]
        locate = list(zip(self.strides, [len(names) for names in self.names]))
        solo, sends, receives = self.solo, self.sends, self.receives
        pos = 0
        while pos < len(codes):
            code = codes[pos]
            local = [code // stride % size for stride, size in locate]
            moves = [move for i, s in enumerate(local) for move in solo[i][s]]
            for i1, s1 in enumerate(local):
                outputs = sends[i1][s1]
                if not outputs:
                    continue
                for i2, s2 in enumerate(local):
                    inputs = receives[i2][s2]
                    if i2 == i1 or not inputs:
                        continue
                    for action, outs in outputs.items():
                        for dst_name, in_delta in inputs.get(action, ()):
                            for src_name, out_delta in outs:
                                lid = self._intern(src_name, action, dst_name)
                                moves.append((lid, out_delta + in_delta))
            if len(edges) < len(labels):  # sync labels met for the first time
                edges += ([] for _ in range(len(labels) - len(edges)))
            for lid, delta in moves:
                target = code + delta
                dst = index.get(target)
                if dst is None:
                    dst = index[target] = len(codes)
                    codes.append(target)
                edge = edges[lid]
                edge.append(pos)
                edge.append(dst)
            pos += 1
        return Indexed(len(codes), labels, edges), codes

    def automaton(self, indexed: Indexed, tokens: list[str]) -> Automaton:
        """The explored states under their tuple tokens ``(q1,q2,...)``; raises
        ValidationError when two share one (component state names may hold ``,()``)."""
        states = frozenset(tokens)
        if len(states) < len(tokens):
            clash = next(t for t, n in Counter(tokens).items() if n > 1)
            raise ValidationError(f"composite state token {clash!r} names two product states")
        return Automaton(
            name="".join(a.name for a in self.components),
            states=states,
            actions=self.actions,
            transitions=(
                Transition(tokens[s], label, tokens[d])
                for label, flat in zip(indexed.labels, indexed.edges)
                for s, d in zip(flat[::2], flat[1::2])
            ),
            initial=frozenset(self.token(code) for code in self.initial_codes()),
            hierarchy=self.hierarchy,
        )


def compose(components: Sequence[Automaton], io: IoSets) -> Automaton:
    """N-ary product composition under the four transition classes."""
    prod = _Product(components, io)
    indexed, codes = prod.explore(range(prod.size))
    return prod.automaton(indexed, list(map(prod.token, codes)))


def reachable_product(components: Sequence[Automaton], io: IoSets) -> Indexed:
    """The reachable composite as an indexed form; no state is named."""
    prod = _Product(components, io)
    return prod.explore(prod.initial_codes())[0]


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
    contract.  A step keeps open what a later component still synchronizes
    on: it composes under P plus the later components' input actions and R
    plus their output actions, without the actions only later components
    declare.  The last step uses ``io`` as given.  Raises RefinementTimeout
    if any reduction exceeds ``timeout``.
    """
    if len(components) < 2:
        raise ValidationError("composition needs at least 2 components")
    acc = components[0]
    for i in range(1, len(components)):
        nxt, later = components[i], components[i + 1 :]
        later_io = default_io_sets(later)
        # dropping only the later components' own actions, not intersecting
        # with the pair's, keeps the product's error for an action nobody declares
        pending = frozenset().union(*(a.actions for a in later)) - acc.actions - nxt.actions
        step = IoSets(
            (io.provided | later_io.required) - pending,
            (io.required | later_io.provided) - pending,
        )
        prod = _Product([acc, nxt], step)
        indexed, codes = prod.explore(prod.initial_codes())
        tokens = list(map(prod.token, codes))
        block, _ = refine_indexed(indexed, timeout, strict_internal)
        acc = quotient(prod.automaton(indexed, tokens), Partition.grouped(tokens, block))
    return acc
