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

``_Product`` numbers each component's sorted states, builds move tables
straight from the component's transitions and codes a product state as one
integer.  It builds a composite as an indexed form (``core.Indexed``), a
list of sources and a list of targets per label, in one of two ways:

* whole -- every product state, numbered by its code.  Each local move is
  emitted at once for all the codes it fires in, as slices of one list of
  codes.  ``compose`` always builds this.  So does ``_Product.reachable``,
  for each step of ``compose_pairwise_reduce``, when every component reaches
  all its local states from its initial ones by its own solo moves: the
  components can then move one at a time into any product state.
* explored -- otherwise a worklist from the initial states numbers the
  reached states in discovery order, so the unreachable part is never built.

Either way the result is ``reachable(compose(...))`` up to numbering, and the
fold refines that indexed form as it is.  Which form the experiment pipeline
refines, and where its metrics come from, is said once, in ``cells``.
Composite states are named with tuple tokens ``(q1,q2,...)`` only when an
``Automaton`` is returned.
"""

from __future__ import annotations

import sys
from collections import Counter
from dataclasses import dataclass
from itertools import permutations, product
from typing import Callable, Iterable, Iterator, Sequence

from .core import Automaton, Hierarchy, Indexed, Label, LabelKind, Transition
from .errors import ValidationError


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


_LIST_SLOTS = 1 << 22  # explore numbers up to this many product states in a list


class _Unnumbered(dict):
    """State numbers by code; a code not yet met reads -1 and is not stored."""

    def __missing__(self, code: int) -> int:
        return -1


class _Product:
    """Move tables of each component over the numbers of its sorted states.

    A product state is coded as one integer, ``sum(local_i * stride_i)``
    with the last component varying fastest, so codes ``0 .. size-1`` run
    in the order of the Cartesian product of the sorted state lists and a
    move of component ``i`` from ``s`` to ``t`` adds ``(t - s) * stride_i``.

    Every label id is fixed here: solo labels in the order the transitions
    first show them, then, sorted, each sync label that one component can
    send and another receive.  A label that never fires keeps an empty edge
    list, which refinement and metrics ignore.
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

        self.name = "".join(a.name for a in components)
        self._number([a.sorted_states() for a in components])
        if self.size > sys.maxsize:  # a whole product numbers them in one list
            raise ValidationError(f"the product has {self.size} states, too many to number")
        self.labels: list[Label] = []
        label_id: dict[tuple, int] = {}
        # per component and local state: solo moves as (label id, code delta),
        # and per action the halves of a sync move, (row, code delta) to send
        # and (receiver annotation, code delta) to receive; a sender's row
        # maps receiver annotations to sync label ids
        # and per component its internal moves as (local state, code delta)
        # and the sorted local numbers of its initial states
        self.solo, self.sends, self.receives, self.internal, self.initial = [], [], [], [], []
        # per component and action: each sender annotation's row, the receivers
        senders, receivers = [], []
        for a, names, stride in zip(components, self.names, self.strides):
            index = {state: i for i, state in enumerate(names)}
            solo: list[list[tuple[int, int]]] = [[] for _ in names]
            sends: list[dict[str, list]] = [{} for _ in names]
            receives: list[dict[str, list]] = [{} for _ in names]
            internal: list[tuple[int, int]] = []
            rows: dict[str, dict[str, dict[str, int]]] = {}
            heard: dict[str, set[str]] = {}
            for source, label, target in a.transitions:
                src, action = index[source], label.action
                delta = (index[target] - src) * stride
                if label.dst is None:  # output
                    row = rows.setdefault(action, {}).setdefault(label.src, {})
                    sends[src].setdefault(action, []).append((row, delta))
                    if action not in io.provided:
                        continue
                elif label.src is None:  # input
                    heard.setdefault(action, set()).add(label.dst)
                    receives[src].setdefault(action, []).append((label.dst, delta))
                    if action not in io.required:
                        continue
                else:
                    internal.append((src, delta))
                lid = label_id.setdefault((label.src, action, label.dst), len(self.labels))
                if lid == len(self.labels):
                    self.labels.append(label)
                solo[src].append((lid, delta))
            self.solo.append(solo)
            self.sends.append(sends)
            self.receives.append(receives)
            self.internal.append(internal)
            self.initial.append(sorted(map(index.__getitem__, a.initial)))
            senders.append(rows)
            receivers.append(heard)
        self.syncs_from = len(self.labels)  # the first sync label's id
        for i1, i2 in permutations(range(len(components)), 2):
            rows, heard = senders[i1], receivers[i2]
            for action in sorted(rows.keys() & heard.keys()):
                for n1, row in sorted(rows[action].items()):
                    for n2 in sorted(heard[action]):
                        row[n2] = len(self.labels)
                        self.labels.append(Label(n1, action, n2))

    def _number(self, names: Sequence[Sequence]) -> None:
        """Take ``names`` as the components' local states, with the strides
        and the size they give."""
        self.names = names
        self.strides = [1] * len(names)
        for i in range(len(names) - 2, -1, -1):
            self.strides[i] = self.strides[i + 1] * len(names[i + 1])
        self.size = self.strides[0] * len(names[0])

    def initial_codes(self) -> list[int]:
        local = [[s * stride for s in init] for init, stride in zip(self.initial, self.strides)]
        return [sum(parts) for parts in product(*local)]

    def token(self, code: int) -> str:
        parts = (
            names[code // stride % len(names)] for names, stride in zip(self.names, self.strides)
        )
        return "(" + ",".join(parts) + ")"

    def reachable(self) -> tuple[Indexed, Sequence[int]]:
        """The product states reachable from the initial ones; returns the
        indexed form and the code of each state.  The whole product when
        every component reaches all its local states alone, else explored."""
        if self.reaches_all():
            return self.whole(), range(self.size)
        return self.explore()

    def reaches_all(self) -> bool:
        """Whether each component reaches every local state from its initial
        states by its own allowed solo moves (internal moves, outputs in P,
        inputs in R).  Then every product state is reachable: the
        components can move there one at a time.  Costs O(component
        transitions); a state that only a sync reaches fails the check."""
        for initial, stride, solo in zip(self.initial, self.strides, self.solo):
            seen = set(initial)
            todo = list(seen)
            while todo:
                s = todo.pop()
                for _, delta in solo[s]:
                    t = s + delta // stride
                    if t not in seen:
                        seen.add(t)
                        todo.append(t)
            if len(seen) < len(solo):
                return False
        return True

    def whole(self) -> Indexed:
        """Every product state, numbered by its code, with every move.

        A solo move of component ``i`` from ``s`` fires at every code whose
        digit ``i`` is ``s`` (``with_digit[s]``), and a sync at every code
        whose sender's and receiver's digits are fixed; ``spread`` lists those
        codes as slices of one list, so the source and target lists share its
        int objects and no move is emitted state by state.  The moves are
        those ``explore`` would emit from every state, distinct for the
        reasons given there.
        """
        states = list(range(self.size))
        sources: list[list[int]] = [[] for _ in self.labels]
        targets: list[list[int]] = [[] for _ in self.labels]
        for i, (solo, stride) in enumerate(zip(self.solo, self.strides)):
            spread = self._spread(states, {i})
            with_digit = [spread((s * stride,)) for s in range(len(solo))]
            for s, moves in enumerate(solo):
                for lid, delta in moves:
                    sources[lid] += with_digit[s]
                    targets[lid] += with_digit[s + delta // stride]
        for lid, sent, received in self.syncs(states):
            sources[lid] += sent
            targets[lid] += received
        return Indexed(self.size, self.labels, sources, targets)

    def syncs(self, states: Sequence[int]) -> Iterator[tuple[int, list[int], list[int]]]:
        """Each sync move of the whole product once, as its label id and the
        codes it fires at and leads to, listed by ``_spread`` from
        ``states``: per ordered pair of components, sender state, action
        and receiver annotation, the codes whose two digits are fixed, once
        for all the sender's halves."""
        for i1, i2 in permutations(range(len(self.names)), 2):
            spread = self._spread(states, {i1, i2})
            stride1, stride2 = self.strides[i1], self.strides[i2]
            # per action and receiver annotation, i2's digit at and after each half, times stride2
            heard: dict[str, dict[str, tuple[list[int], list[int]]]] = {}
            for s2, inputs in enumerate(self.receives[i2]):
                for action, halves in inputs.items():
                    for n2, delta in halves:
                        at, to = heard.setdefault(action, {}).setdefault(n2, ([], []))
                        at.append(s2 * stride2)
                        to.append(s2 * stride2 + delta)
            for s1, outputs in enumerate(self.sends[i1]):
                for action, halves in outputs.items():
                    for n2, (at, to) in heard.get(action, {}).items():
                        sent = spread(map((s1 * stride1).__add__, at))
                        for row, out_delta in halves:
                            yield row[n2], sent, spread(map((s1 * stride1 + out_delta).__add__, to))

    def tally(
        self, syncs: Iterable[tuple[Sequence[int], Sequence[int]]]
    ) -> tuple[int, list[int], list[int]]:
        """The whole product's internal transition count and each state's
        out- and in-degree, with no solo edge built: a local move fires in
        ``size / len(names[i])`` states, and a state's solo degree is the sum
        over its digits of that local state's move counts.  Each sync edge
        list, a ``(sources, targets)`` pair of codes, adds one count per edge
        (every sync label is internal)."""
        internal, deg_out, deg_in = 0, [0], [0]
        for solo, stride, moves in zip(self.solo, self.strides, self.internal):
            out_count = [len(local) for local in solo]
            in_count = [0] * len(solo)
            for s, local in enumerate(solo):
                for _, delta in local:
                    in_count[s + delta // stride] += 1
            deg_out = [a + b for a in deg_out for b in out_count]
            deg_in = [a + b for a in deg_in for b in in_count]
            internal += len(moves) * (self.size // len(solo))
        for sources, targets in syncs:
            internal += len(sources)
            for code in sources:
                deg_out[code] += 1
            for code in targets:
                deg_in[code] += 1
        return internal, deg_out, deg_in

    def _spread(
        self, states: Sequence[int], fixed: set[int]
    ) -> Callable[[Iterable[int]], list[int]]:
        """A function from base codes to the codes that agree with one of
        them on the digits of the components in ``fixed`` (whose other
        digits are 0 in each base), base by base, in one order for every
        base: the j-th codes of two bases differ only in the fixed digits.
        The free digits that run up to the last free one are taken as slices
        of ``states``, one per value of the other free digits."""
        free = [i for i in range(len(self.names)) if i not in fixed]
        if not free:  # every digit fixed, as for the syncs of 2 components
            return lambda bases: list(map(states.__getitem__, bases))
        first = free.pop()
        step = self.strides[first]
        while free and free[-1] == first - 1:
            first = free.pop()
        span = self.strides[first] * len(self.names[first])
        offsets = [0]
        for i in free:
            offsets = [o + j * self.strides[i] for o in offsets for j in range(len(self.names[i]))]

        def spread(bases: Iterable[int]) -> list[int]:
            found: list[int] = []
            for base in bases:
                for o in offsets:
                    found += states[base + o : base + o + span : step]
            return found

        return spread

    def explore(self) -> tuple[Indexed, list[int]]:
        """Every product state reachable from the initial states, numbered in
        discovery order; returns the indexed form and the code of each state.

        ``number[code]`` is a state's number, -1 before it is met: a list
        with one slot per product state up to ``_LIST_SLOTS`` of them, and
        beyond that a dict that holds only the states met, so memory follows
        the reached states when a product of many components reaches few.
        A state's moves are its components' solo moves plus, per ordered pair
        of components, the syncs on actions the first sends and the second
        receives there; its local states are decoded last component first.

        Each move appends its source and target to its label's two lists,
        with no duplicate check, because the moves of one state are
        distinct.  Each component's transitions are a frozenset.  Solo
        labels of different components differ: every annotation names an
        instance of the component's own hierarchy, and the hierarchies are
        disjoint.  A sync label ``(n1,a,n2)`` names its sender's and its
        receiver's component, so it is no solo label and fixes the pair,
        which is visited once, and ``a``, which is met once in the pair's
        common actions.  For one label, distinct local transitions give
        distinct code deltas, as codes are mixed-radix numbers.
        """
        number = [-1] * self.size if self.size <= _LIST_SLOTS else _Unnumbered()
        codes: list[int] = []
        for code in self.initial_codes():
            if number[code] < 0:
                number[code] = len(codes)
                codes.append(code)
        sources: list[list[int]] = [[] for _ in self.labels]
        targets: list[list[int]] = [[] for _ in self.labels]
        pairs = list(permutations(range(len(self.names)), 2))
        sizes = [len(names) for names in self.names]
        last_first = list(zip(sizes, self.solo))[::-1]
        sends, receives = self.sends[::-1], self.receives[::-1]
        for pos, code in enumerate(codes):
            moves: list[tuple[int, int]] = []
            local = []
            rest = code
            for size, solo in last_first:
                rest, s = divmod(rest, size)
                moves += solo[s]
                local.append(s)
            for i1, i2 in pairs:
                outputs, inputs = sends[i1][local[i1]], receives[i2][local[i2]]
                if outputs and inputs:
                    for action in outputs.keys() & inputs.keys():
                        for n2, in_delta in inputs[action]:
                            for row, out_delta in outputs[action]:
                                moves.append((row[n2], out_delta + in_delta))
            for lid, delta in moves:
                target = code + delta
                dst = number[target]
                if dst < 0:
                    dst = number[target] = len(codes)
                    codes.append(target)
                sources[lid].append(pos)
                targets[lid].append(dst)
        return Indexed(len(codes), self.labels, sources, targets), codes

    def automaton(self, indexed: Indexed, tokens: list[str]) -> Automaton:
        """The explored states under their tuple tokens ``(q1,q2,...)``; raises
        ValidationError when two share one (component state names may hold ``,()``)."""
        states = frozenset(tokens)
        if len(states) < len(tokens):
            clash = next(t for t, n in Counter(tokens).items() if n > 1)
            raise ValidationError(f"composite state token {clash!r} names two product states")
        return Automaton(
            name=self.name,
            states=states,
            actions=self.actions,
            transitions=(
                Transition(tokens[s], label, tokens[d])
                for label, src, dst in zip(indexed.labels, indexed.sources, indexed.targets)
                for s, d in zip(src, dst)
            ),
            initial=frozenset(self.token(code) for code in self.initial_codes()),
            hierarchy=self.hierarchy,
        )


def compose(components: Sequence[Automaton], io: IoSets) -> Automaton:
    """N-ary product composition under the four transition classes."""
    prod = _Product(components, io)
    return prod.automaton(prod.whole(), list(map(prod.token, range(prod.size))))


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
    declare.  The last step uses ``io`` as given.  The result carries the
    n-ary product's hierarchy.  Raises RefinementTimeout if any reduction
    exceeds ``timeout``.
    """
    # the only use of the refinement engine here: building a product does not load it
    from .refine import Partition, quotient, refine_indexed

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
        prod.hierarchy = Hierarchy.node(*(a.hierarchy for a in components[: i + 1]))
        indexed, codes = prod.reachable()
        tokens = list(map(prod.token, codes))
        block, _ = refine_indexed(indexed, timeout, strict_internal)
        acc = quotient(prod.automaton(indexed, tokens), Partition.grouped(tokens, block))
    return acc
