"""Weak-bisimulation partition refinement and quotient construction.

Internal-synchronization transitions (labels with both annotations present)
are silent: a state weakly performs a visible label ``l`` by taking any
number of silent steps, one ``l`` step, and any number of silent steps.  For
a silent label itself the default semantics matches by silent closure alone,
so a silent move never has to reproduce the specific internal label; the
``strict_internal`` switch instead requires the exact internal label to occur
(closure-label-closure, like a visible one).

Weak bisimulation is strong bisimulation on this silently saturated
relation.  ``refine_indexed`` computes it on an indexed automaton
(``core.Indexed``) in three steps; ``partition_refine`` is its adapter for
an ``Automaton`` (index the sorted states, group them by block id):

1. Condense the silent graph, built from the internal labels' edge lists
   alone, into its strongly connected components (Tarjan); the sink states,
   those with no silent successor, are numbered first, each its own
   component, and the DFS skips them.
   States of one silent SCC have equal closures, hence equal saturated rows
   for every label in both semantics, so they are always weakly bisimilar;
   synchronization cliques collapse here.
2. Saturate: one bitset pass over the SCC DAG, sinks first, computes the
   silent closure, and one more pass per label, read straight from its edge
   list, computes closure;l;closure.
   A pass visits only the nodes with silent successors; every other row is
   its direct step.  In the default semantics every internal label shares
   the closure row.  It runs after round 1 of step 3, which decides
   the labels worth saturating.
3. Refine by signatures: a node's signature is its block plus, per label,
   the set of blocks its saturated row reaches.  Splitting by signature
   until no block splits gives the coarsest stable partition, i.e. the
   states modulo weak bisimilarity, which is unique.  Round 1 splits by the
   set of enabled labels (non-empty rows), which is what a full signature
   over one block tells apart.  It needs no rows: each node's mask of the
   labels on its own edges, propagated once over the SCC DAG, is that set.
   A block only ever splits, so a node alone in its block after round 1 is
   settled; only live nodes, those sharing a block, go on.  Step 2 saturates
   just the labels live nodes enable and keeps their rows alone, and later
   rounds key only live nodes, by block and the reached sets of their
   non-empty rows (nodes of one block enable the same labels, so their lists
   line up), dropping each node its round leaves alone.  Interning rows (a
   live node keeps a fixed profile of row ids) lets a round build one
   reached-block set per distinct row value, not one per node and label.
   Round 1 and every later round split through one step: it keys the nodes
   it is given, gives each the fresh id ``count + j`` (``j`` its key's
   first-seen index) and reports which still share a block.  A later round
   whose keys form exactly the live blocks splits nothing and ends the
   loop; the ids are compacted to ``0 .. count-1`` once, at the end.

``weak_bisim_relation`` is a brute-force greatest-fixpoint weak-bisimulation
oracle on one small automaton, kept independent of the engine to cross-check
its partitions (the perfbench gate uses it; the tests compare two automata
by running it on their disjoint union).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from itertools import chain, compress
from typing import Iterable

from .core import Automaton, Indexed, Label, LabelKind
from .errors import OracleLimitError, RefinementTimeout, ValidationError


def _block_key(block: frozenset[str]) -> tuple[int, tuple[str, ...]]:
    return (len(block), tuple(sorted(block)))


@dataclass(frozen=True)
class Partition:
    """Disjoint non-empty blocks covering the state set.

    ``blocks`` is kept in canonical order (by size, then by sorted members),
    so partitions compare by value.
    """

    blocks: tuple[frozenset[str], ...]

    @classmethod
    def from_blocks(cls, blocks: Iterable[frozenset[str]]) -> "Partition":
        out: list[frozenset[str]] = []
        seen: set[str] = set()
        for block in blocks:
            block = frozenset(block)
            if not block:
                raise ValidationError("empty partition block")
            if seen & block:
                raise ValidationError("partition blocks are not disjoint")
            seen |= block
            out.append(block)
        return cls(tuple(sorted(out, key=_block_key)))

    @classmethod
    def grouped(cls, states: Iterable[str], block: Iterable[int]) -> "Partition":
        """The partition that puts ``states[i]`` in the block with id ``block[i]``."""
        members: dict[int, list[str]] = {}
        for state, b in zip(states, block):
            members.setdefault(b, []).append(state)
        return cls.from_blocks(map(frozenset, members.values()))

    def block_count(self) -> int:
        return len(self.blocks)


@dataclass
class RefineStats:
    """Deterministic counters filled in by ``refine_indexed``, summed over calls.

    Work done: ``sweeps`` counts signature rounds, ``refine_steps`` the
    saturated label rows computed (the default semantics' shared closure row
    included), and ``splitter_evals`` the node signatures computed.  Round 1,
    the split by enabled labels, counts as a round and one signature per SCC
    node; a later round counts one signature per node still sharing its
    block.  Only labels enabled by such nodes are saturated, so when round 1
    leaves every node alone in its block, no row is.

    Structure: ``sccs`` is the number of silent SCCs (refinement's nodes),
    ``largest_scc`` the most states in one (the maximum over calls),
    ``shared`` the nodes that share a block after round 1 and ``blocks`` the
    final block count.  ``cells`` says which count differs on the form
    ``run_pair`` refines.  ``elapsed_s`` is the wall-clock time spent in
    ``refine_indexed``.
    """

    sweeps: int = 0
    refine_steps: int = 0
    splitter_evals: int = 0
    sccs: int = 0
    largest_scc: int = 0
    shared: int = 0
    blocks: int = 0
    elapsed_s: float = 0.0

    def work_units(self) -> int:
        return self.refine_steps + self.splitter_evals


def _bits(mask: int) -> list[int]:
    """Positions of the set bits of ``mask``, highest first."""
    out = []
    while mask:
        top = mask.bit_length() - 1
        out.append(top)
        mask ^= 1 << top
    return out


def _silent_sccs(silent: list[list[int]]) -> tuple[list[int], int, int]:
    """Iterative Tarjan over the silent graph.

    Returns each state's component id, the component count and the size of
    the largest component.  A state with no silent successor is its own
    component: the sinks are numbered ``0 .. s-1`` in state order before the
    search, which skips them as finished components.  The other ids follow
    emission order, so every silent edge leads to an equal or smaller id.
    """
    n = len(silent)
    index = [-1] * n
    low = [0] * n
    comp = [-1] * n
    count = 0
    for v, succs in enumerate(silent):
        if not succs:
            comp[v] = count
            count += 1
    stack: list[int] = []
    counter = 0
    largest = 1 if n else 0
    for root in range(n):
        if comp[root] >= 0:
            continue
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        work = [(root, iter(silent[root]))]
        while work:
            v, succs = work[-1]
            low_v = low[v]
            for w in succs:
                if comp[w] >= 0:  # in a finished component, or a sink
                    continue
                if index[w] < 0:
                    low[v] = low_v
                    index[w] = low[w] = counter
                    counter += 1
                    stack.append(w)
                    work.append((w, iter(silent[w])))
                    break
                if index[w] < low_v:  # visited and still on the stack
                    low_v = index[w]
            else:
                work.pop()
                if work:
                    parent = work[-1][0]
                    if low_v < low[parent]:
                        low[parent] = low_v
                if low_v == index[v]:
                    top = len(stack)
                    while True:
                        w = stack.pop()
                        comp[w] = count
                        if w == v:
                            break
                    largest = max(largest, top - len(stack))
                    count += 1
    return comp, count, largest


def _propagate(rows: list[int], inner: list[tuple[int, set[int]]]) -> list[int]:
    """Union each inner node's row with the rows of its silent successors, sinks first."""
    for c, succs in inner:
        row = rows[c]
        for d in succs:
            row |= rows[d]
        rows[c] = row
    return rows


def refine_indexed(
    indexed: Indexed,
    timeout: float | None = None,
    strict_internal: bool = False,
    stats: RefineStats | None = None,
) -> tuple[list[int], int]:
    """Weak-bisimulation classes of an indexed automaton.

    Returns a block id per state (ids ``0 .. count-1``, in no canonical
    order) and the block count.  ``timeout`` (seconds) is checked after SCC
    condensation, after each label's saturation and before every signature
    round; on expiry RefinementTimeout is raised.
    """
    started = time.perf_counter()
    if stats is None:
        stats = RefineStats()

    def check_budget() -> None:
        elapsed = time.perf_counter() - started
        if timeout is not None and elapsed > timeout:
            stats.elapsed_s = elapsed
            raise RefinementTimeout(elapsed, timeout)

    n, sources, targets = indexed.n, indexed.sources, indexed.targets
    internal = indexed.internal()
    silent: list[list[int]] = [[] for _ in range(n)]
    for lid in compress(range(len(internal)), internal):
        for src, dst in zip(sources[lid], targets[lid]):
            silent[src].append(dst)

    comp, k, largest = _silent_sccs(silent)
    dag: list[set[int]] = [set() for _ in range(k)]
    for src, succs in enumerate(silent):
        for dst in succs:
            if comp[src] != comp[dst]:
                dag[comp[src]].add(comp[dst])
    # only nodes with silent successors can gain targets from propagation
    inner = [(c, succs) for c, succs in enumerate(dag) if succs]
    stats.sccs += k
    stats.largest_scc = max(stats.largest_scc, largest)
    check_budget()

    block = [0] * k
    count = 0

    def split(nodes: Iterable[int], keys: Iterable) -> tuple[list[bool], list[int]]:
        """Give each node the fresh id ``count + j``, ``j`` its key's first-seen
        index; return per node whether it still shares a block, and the part sizes."""
        nonlocal count
        ids: dict = {}
        parts = [ids.setdefault(key, len(ids)) for key in keys]
        stats.sweeps += 1
        stats.splitter_evals += len(parts)
        for c, j in zip(nodes, parts):
            block[c] = count + j
        count += len(ids)
        size = [0] * len(ids)
        for j in parts:
            size[j] += 1
        return [size[j] > 1 for j in parts], size

    # Round 1 splits by the set of enabled labels (non-empty saturated rows),
    # as a dense signature with an empty reached set per disabled label would.
    # A row is non-empty iff some node of the silent closure has an edge of
    # its label, so one propagation of each node's own label mask (bit ``lid``
    # for label ``lid``) finds them.  In the default semantics every internal
    # label shares the closure row, which is never empty, so it sets no bit.
    enabled = [0] * k
    for lid, src_list in enumerate(sources):
        if strict_internal or not internal[lid]:
            bit = 1 << lid
            for src in src_list:
                enabled[comp[src]] |= bit
    _propagate(enabled, inner)
    shared, size = split(range(k), enabled)
    # A block only ever splits, so a node alone in its block is settled: from
    # here on only the live nodes, those sharing a block, get rows and signatures.
    live = list(compress(range(k), shared))
    stats.shared += len(live)

    if live:
        # Saturate the labels live nodes enable.  Propagation still covers
        # every node: a live node's row can run through a settled node's edges.
        wanted = 0
        for c in live:
            wanted |= enabled[c]
        closure = _propagate([1 << c for c in range(k)], inner)
        row_id: dict[int, int] = {}
        # profile[i]: row ids of live[i]'s non-empty saturated rows, in one
        # fixed label order; nodes of one block enable the same labels, so
        # their profiles line up.  Lists, not tuples: freed tuples linger on
        # per-size free lists and raise peak memory.
        if strict_internal:
            profile: list[list[int]] = [[] for _ in live]
        else:  # the closure row is never empty, so it does not split the label set
            profile = [[row_id.setdefault(closure[c], len(row_id))] for c in live]
        for lid in _bits(wanted):
            step = [0] * k
            for src, dst in zip(sources[lid], targets[lid]):
                step[comp[src]] |= closure[comp[dst]]
            _propagate(step, inner)
            rows = list(map(step.__getitem__, live))
            for i in compress(range(len(live)), rows):
                profile[i].append(row_id.setdefault(rows[i], len(row_id)))
            check_budget()
        stats.refine_steps += wanted.bit_count() + (not strict_internal)
        reaches = [_bits(row) for row in row_id]
        del closure, row_id

    # Later rounds key live nodes by block and the blocks their rows reach;
    # settled nodes keep their ids, which the reached sets still use.  A round
    # splits nothing when its keys form exactly the live nodes' blocks.
    while live:
        live_blocks = sum(s > 1 for s in size)
        check_budget()
        reached = {
            r: frozenset(map(block.__getitem__, reaches[r]))
            for r in set(chain.from_iterable(profile))
        }
        shared, size = split(
            live, [(block[c], tuple(map(reached.__getitem__, p))) for c, p in zip(live, profile)]
        )
        if len(size) == live_blocks:
            break
        live = list(compress(live, shared))
        profile = list(compress(profile, shared))

    # compact the block ids to 0, 1, ... in first-seen order
    number: dict[int, int] = {}
    compact = [number.setdefault(b, len(number)) for b in block]
    stats.blocks += len(number)
    stats.elapsed_s = time.perf_counter() - started
    return [compact[c] for c in comp], len(number)


def partition_refine(
    automaton: Automaton,
    timeout: float | None = None,
    strict_internal: bool = False,
    stats: RefineStats | None = None,
) -> Partition:
    """Coarsest partition of the state set stable under all weak splitters.

    Runs ``refine_indexed`` on the automaton's indexed form; on timeout the
    partial partition is discarded and RefinementTimeout raised.
    """
    indexed, states = Indexed.of(automaton)
    block, _ = refine_indexed(indexed, timeout, strict_internal, stats)
    return Partition.grouped(states, block)


def quotient_triples(triples: Iterable[tuple], block, internal) -> set[tuple]:
    """The distinct ``(block of source, label, block of target)`` triples a quotient keeps.

    ``block`` maps states to blocks, and ``internal[label]`` is true for an
    internal label (the ``Indexed.internal()`` list for label ids, a dict for
    ``Label`` objects).  A transition is dropped when it is internal and its ends
    share a block: exact in the default semantics, but ``strict_internal`` may
    need the internal label of a dropped loop.
    """
    return {
        (block[src], label, block[dst])
        for src, label, dst in triples
        if block[src] != block[dst] or not internal[label]
    }


def quotient(automaton: Automaton, partition: Partition) -> Automaton:
    """Collapse each block to one state, keeping the ``quotient_triples``.

    Block states are renamed ``r0, r1, ...`` in canonical block order, and the
    hierarchy is kept, so the quotient stays comparable with the original.
    Raises ValidationError unless the partition covers exactly the states.
    """
    name = {state: f"r{i}" for i, block in enumerate(partition.blocks) for state in block}
    if name.keys() != automaton.states:
        raise ValidationError("partition does not cover exactly the automaton's states")
    # transitions share label objects: keying by identity hashes each label once
    labels = {id(label): label for _, label, _ in automaton.transitions}.values()
    internal = {label: label.kind is LabelKind.INTERNAL for label in labels}
    return replace(
        automaton,
        states=frozenset(name.values()),
        transitions=quotient_triples(automaton.transitions, name, internal),
        initial=frozenset(name[state] for state in automaton.initial),
    )


# ---------------------------------------------------------------------------
# Brute-force oracle.  Independent of the engine above on purpose: it builds
# its own closure and weak moves by naive set fixpoints, and computes the
# greatest symmetric relation satisfying the weak transfer condition by
# deleting violating pairs until stable.


def weak_bisim_relation(
    automaton: Automaton, max_states: int = 40, strict_internal: bool = False
) -> frozenset[tuple[str, str]]:
    """Greatest weak bisimulation on one automaton's state set (test oracle)."""
    if len(automaton.states) > max_states:
        raise OracleLimitError(
            f"oracle limited to {max_states} states, got {len(automaton.states)}"
        )
    states = sorted(automaton.states)
    closure = {q: {q} for q in states}
    for src, label, dst in automaton.transitions:
        if label.kind is LabelKind.INTERNAL:
            closure[src].add(dst)
    changed = True
    while changed:
        changed = False
        for q in states:
            grown = set()
            for mid in closure[q]:
                grown |= closure[mid]
            if grown - closure[q]:
                closure[q] |= grown
                changed = True
    outgoing: dict[str, list[tuple[Label, str]]] = {q: [] for q in states}
    for src, label, dst in automaton.transitions:
        outgoing[src].append((label, dst))

    def weak_moves(state, label):
        if label.kind is LabelKind.INTERNAL and not strict_internal:
            return closure[state]
        found = set()
        for pre in closure[state]:
            for lab, dst in outgoing[pre]:
                if lab == label:
                    found |= closure[dst]
        return found

    relation = {(q, p) for q in states for p in states}

    def transfers(q, p):
        for label, q_next in outgoing[q]:
            if not any((q_next, p_next) in relation for p_next in weak_moves(p, label)):
                return False
        return True

    changed = True
    while changed:
        changed = False
        for pair in list(relation):
            q, p = pair
            if not (transfers(q, p) and transfers(p, q)):
                relation.discard(pair)
                relation.discard((p, q))
                changed = True
    return frozenset(relation)
