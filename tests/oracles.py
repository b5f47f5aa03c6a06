"""Independent oracles used to compute expected values.

Each oracle deliberately takes a different route than the library code it
checks: set-comprehension enumeration for composition, plain BFS for
reachability, naive set fixpoints for silent closure, weak moves and
mutually reachable states, per-state DFS closures and weak-move sets to
check a partition of an indexed automaton at any size, the library's
brute-force ``weak_bisim_relation`` (not the refinement engine) on a
disjoint union to compare two automata,
exact rational arithmetic for the Gini coefficient, mpmath for logs and tail
probabilities, and grid search for the logistic MLE.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from typing import Mapping

import mpmath as mp
import numpy as np

from ciakit import (
    Automaton,
    IoSets,
    Label,
    LabelKind,
    Partition,
    Transition,
    ValidationError,
    weak_bisim_relation,
)

SilentClosure = Mapping[str, frozenset[str]]


def compose_oracle(components, io: IoSets) -> frozenset[Transition]:
    """Literal enumeration of the four composite transition classes."""
    k = len(components)
    deltas = [sorted(c.transitions, key=Transition.sort_key) for c in components]
    prod_states = list(product(*[c.sorted_states() for c in components]))

    def token(parts):
        return "(" + ",".join(parts) + ")"

    found: set[Transition] = set()
    for q in prod_states:
        for q2 in prod_states:
            diff = [j for j in range(k) if q[j] != q2[j]]
            # old sync: some i moves on an internal label, all others equal
            for i in range(k):
                if all(j == i for j in diff):
                    for src, label, dst in deltas[i]:
                        if src == q[i] and dst == q2[i] and label.kind is LabelKind.INTERNAL:
                            found.add(Transition(token(q), label, token(q2)))
            # new sync: i1 outputs a, i2 inputs a, all others equal
            for i1 in range(k):
                for i2 in range(k):
                    if i1 == i2 or any(j not in (i1, i2) for j in diff):
                        continue
                    for s1, l1, d1 in deltas[i1]:
                        if l1.kind is not LabelKind.OUTPUT or s1 != q[i1] or d1 != q2[i1]:
                            continue
                        for s2, l2, d2 in deltas[i2]:
                            if (
                                l2.kind is LabelKind.INPUT
                                and l2.action == l1.action
                                and s2 == q[i2]
                                and d2 == q2[i2]
                            ):
                                found.add(
                                    Transition(
                                        token(q), Label(l1.src, l1.action, l2.dst), token(q2)
                                    )
                                )
            # solo input / solo output, gated by the io sets
            for i in range(k):
                if all(j == i for j in diff):
                    for src, label, dst in deltas[i]:
                        if src != q[i] or dst != q2[i]:
                            continue
                        if label.kind is LabelKind.INPUT and label.action in io.required:
                            found.add(Transition(token(q), label, token(q2)))
                        if label.kind is LabelKind.OUTPUT and label.action in io.provided:
                            found.add(Transition(token(q), label, token(q2)))
    return frozenset(found)


def bfs_reachable_oracle(automaton: Automaton) -> frozenset[str]:
    """Forward reachability by plain list-based BFS."""
    frontier = list(automaton.initial)
    seen = set(frontier)
    while frontier:
        state = frontier.pop()
        for trans in automaton.transitions:
            if trans.source == state and trans.target not in seen:
                seen.add(trans.target)
                frontier.append(trans.target)
    return frozenset(seen)


def silent_closure(automaton: Automaton) -> dict[str, frozenset[str]]:
    """Reflexive-transitive closure of the internal (silent) transitions."""
    succ: dict[str, set[str]] = {state: {state} for state in automaton.states}
    for trans in automaton.transitions:
        if trans.label.kind is LabelKind.INTERNAL:
            succ[trans.source].add(trans.target)
    closure = {state: set(nbrs) for state, nbrs in succ.items()}
    changed = True
    while changed:
        changed = False
        for state in closure:
            extra: set[str] = set()
            for mid in closure[state]:
                extra |= closure[mid]
            if not extra <= closure[state]:
                closure[state] |= extra
                changed = True
    return {state: frozenset(members) for state, members in closure.items()}


def mutual_reachability_classes(succ: list[list[int]]) -> set[frozenset[int]]:
    """Classes of states that reach each other, by a naive closure fixpoint
    over a graph given as successor lists on states ``0 .. n-1``."""
    reach = [{state, *targets} for state, targets in enumerate(succ)]
    changed = True
    while changed:
        changed = False
        for state, seen in enumerate(reach):
            grown = set().union(*(reach[mid] for mid in seen))
            if grown - seen:
                seen |= grown
                changed = True
    return {
        frozenset(other for other in reach[state] if state in reach[other])
        for state in range(len(succ))
    }


def is_weak_bisimulation(indexed, block, strict_internal: bool = False) -> bool:
    """Whether a partition of an indexed automaton (``block[state]``, a block
    id per state) is a weak bisimulation: all states of a block have the same
    weak moves, as ``(label id, target block)`` pairs.

    A weak move on label ``l`` is silent closure, one ``l`` edge, silent
    closure.  In the default semantics every internal label is one silent
    move (label ``None``) to each block of the state's own closure;
    ``strict_internal`` treats an internal label like a visible one.  Naive
    on purpose: one DFS closure per state, no condensation, no bitsets.
    This checks stability, not coarseness: any finer stable partition passes.
    """
    n, labels = indexed.n, indexed.labels
    silent: list[list[int]] = [[] for _ in range(n)]
    steps: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for lid, (label, sources, targets) in enumerate(zip(labels, indexed.sources, indexed.targets)):
        internal = label.kind is LabelKind.INTERNAL
        for src, dst in zip(sources, targets):
            if internal:
                silent[src].append(dst)
            if strict_internal or not internal:
                steps[src].append((lid, dst))
    closure = []
    for state in range(n):
        seen, stack = {state}, [state]
        while stack:
            for nxt in silent[stack.pop()]:
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
        closure.append(seen)
    closure_blocks = [frozenset(block[other] for other in seen) for seen in closure]
    # per state, its direct steps as (label id, blocks of the target's closure)
    direct = [{(lid, closure_blocks[dst]) for lid, dst in out} for out in steps]
    moves_of_block: dict[int, set] = {}
    for state in range(n):
        reached = set().union(*(direct[mid] for mid in closure[state]))
        moves = {(lid, b) for lid, blocks in reached for b in blocks}
        if not strict_internal:
            moves |= {(None, b) for b in closure_blocks[state]}
        if moves_of_block.setdefault(block[state], moves) != moves:
            return False
    return True


def weak_targets(
    state: str,
    label: Label,
    automaton: Automaton,
    closure: SilentClosure | None = None,
    strict_internal: bool = False,
) -> frozenset[str]:
    """States weakly reachable from ``state`` through ``label``."""
    if closure is None:
        closure = silent_closure(automaton)
    if label.kind is LabelKind.INTERNAL and not strict_internal:
        return frozenset(closure[state])
    out: set[str] = set()
    for pre in closure[state]:
        for trans in automaton.transitions:
            if trans.source == pre and trans.label == label:
                out |= closure[trans.target]
    return frozenset(out)


def splitter(
    state: str,
    label: Label,
    candidate: frozenset[str],
    automaton: Automaton,
    closure: SilentClosure | None = None,
    strict_internal: bool = False,
) -> bool:
    """True iff ``state`` can weakly reach the candidate class via ``label``."""
    return bool(weak_targets(state, label, automaton, closure, strict_internal) & candidate)


def refine_step(
    partition: Partition,
    label: Label,
    candidate: frozenset[str],
    automaton: Automaton,
    closure: SilentClosure | None = None,
    strict_internal: bool = False,
) -> Partition:
    """Split every block by the splitter's verdict against one candidate class."""
    if closure is None:
        closure = silent_closure(automaton)
    out: list[frozenset[str]] = []
    for block in partition.blocks:
        hits = frozenset(
            state
            for state in block
            if splitter(state, label, candidate, automaton, closure, strict_internal)
        )
        misses = block - hits
        for part in (hits, misses):
            if part:
                out.append(part)
    return Partition.from_blocks(out)


def weak_bisim_oracle(
    a: Automaton,
    b: Automaton,
    max_states: int = 40,
    strict_internal: bool = False,
) -> bool:
    """Weak bisimilarity of two automata by ``weak_bisim_relation`` on their
    disjoint union (states tagged ``0.`` and ``1.``): some initial state of
    ``a`` must be related to some initial state of ``b``.

    Labels must range over the same component instances, so the hierarchy
    leaf sets must be equal; ``max_states`` bounds the union's state count.
    """
    if a.hierarchy.leaf_names() != b.hierarchy.leaf_names():
        raise ValidationError("automata have different hierarchy leaf sets")
    tagged = [(0, a), (1, b)]
    union = Automaton(
        name="union",
        states=frozenset(f"{tag}.{q}" for tag, x in tagged for q in x.states),
        actions=a.actions | b.actions,
        transitions=frozenset(
            Transition(f"{tag}.{t.source}", t.label, f"{tag}.{t.target}")
            for tag, x in tagged
            for t in x.transitions
        ),
        initial=frozenset(f"{tag}.{q}" for tag, x in tagged for q in x.initial),
        hierarchy=a.hierarchy,
    )
    relation = weak_bisim_relation(union, max_states, strict_internal)
    return any((f"0.{qa}", f"1.{qb}") in relation for qa in a.initial for qb in b.initial)


def gini_oracle(values) -> Fraction | None:
    """Exact rational evaluation of the sorted-index Gini formula."""
    xs = sorted(Fraction(v) for v in values)
    n = len(xs)
    total = sum(xs)
    if n == 0 or total == 0:
        return None
    return sum((2 * i - n - 1) * x for i, x in enumerate(xs, start=1)) / (n * total)


def beta_oracle(n_states: int, n_transitions: int) -> float | None:
    """High-precision ln-ratio."""
    if n_states <= 1 or n_transitions == 0:
        return None
    with mp.workdps(50):
        return float(mp.ln(n_transitions) / mp.ln(n_states))


def chi2_sf_oracle(x: float, df: int) -> float:
    """Chi-square survival function via the regularized incomplete gamma."""
    with mp.workdps(50):
        return float(mp.gammainc(mp.mpf(df) / 2, mp.mpf(x) / 2, mp.inf, regularized=True))


def logistic_grid_oracle(xs, ys, span: float = 10.0) -> tuple[float, float]:
    """Locate the logistic MLE by grid search plus coordinate descent.

    A coarse grid over (a, b) finds the basin; alternating exact 1-d ternary
    searches then walk the concave log-likelihood ridge to the optimum.  Only
    likelihood evaluations are used, no derivatives.
    """
    x = np.asarray(xs, dtype=float)
    y = np.asarray(ys, dtype=float)

    def ll(a, b):
        z = a + b * x
        return float(-(np.logaddexp(0.0, -z) * y + np.logaddexp(0.0, z) * (1.0 - y)).sum())

    a_grid = np.linspace(-span, span, 41)
    b_grid = np.linspace(-span, span, 41)
    z = a_grid[:, None, None] + b_grid[None, :, None] * x[None, None, :]
    coarse = -(np.logaddexp(0.0, -z) * y + np.logaddexp(0.0, z) * (1.0 - y)).sum(axis=2)
    i, j = np.unravel_index(np.argmax(coarse), coarse.shape)
    best_a, best_b = float(a_grid[i]), float(b_grid[j])

    def ternary(fixed, other, along_a, width):
        lo, hi = other - width, other + width
        for _ in range(200):
            m1 = lo + (hi - lo) / 3
            m2 = hi - (hi - lo) / 3
            v1 = ll(m1, fixed) if along_a else ll(fixed, m1)
            v2 = ll(m2, fixed) if along_a else ll(fixed, m2)
            if v1 < v2:
                lo = m1
            else:
                hi = m2
            if hi - lo < 1e-9:
                break
        return (lo + hi) / 2

    width = float(a_grid[1] - a_grid[0]) * 2
    previous = ll(best_a, best_b)
    for _ in range(400):
        best_a = ternary(best_b, best_a, along_a=True, width=width)
        best_b = ternary(best_a, best_b, along_a=False, width=width)
        current = ll(best_a, best_b)
        if current - previous < 1e-13:
            break
        previous = current
    return best_a, best_b
