"""Seeded generator of primitive automata with software-like topology.

The construction lays a spanning arborescence from a single initial state
(so every state is reachable and the edge count can go as low as |Q|-1),
then adds edges until ``round(|Q| ** target_beta)`` transitions exist.
Endpoints of extra edges are drawn with probability proportional to
``(degree + 1) ** pa_strength`` -- preferential attachment; with strength 0
the choice is uniform.  With probability ``clique_bias`` an extra edge turns
into a short internal-synchronization chain (length 2-5) between existing
states, seeding the silent cliques that refinement later collapses.

Each call numbers its 3 * |alphabet| labels (the input, output and internal
label of every action) and builds a ``Label`` at most once, when first
needed.  Edges are ``(source, label index, target)`` integer triples until
the end, where each becomes a ``Transition``.  After 200 consecutive draws that hit an existing edge, the
graph is near saturation: the leftover triples are listed in canonical
transition order (states by name, labels by ``Label.sort_key``) and drawn
uniformly, without replacement, until the count is reached.

Randomness comes from splitmix64, a fixed, widely documented 64-bit mixer,
so a seed reproduces the exact same corpus on any platform or version.
"""

from __future__ import annotations

import math
import operator
from bisect import bisect_right
from dataclasses import dataclass, replace
from functools import cache
from itertools import accumulate
from pathlib import Path
from typing import Iterable, Sequence

from .core import Automaton, Hierarchy, Label, Transition
from .errors import ValidationError
from .fmt import serialize_automaton

_MASK64 = (1 << 64) - 1


class SplitMix64:
    """splitmix64: increment by the golden gamma, then mix; 64-bit state."""

    def __init__(self, seed: int):
        self._state = seed & _MASK64

    def next_u64(self) -> int:
        self._state = (self._state + 0x9E3779B97F4A7C15) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def random(self) -> float:
        """Uniform float in [0, 1) with 53 bits of precision."""
        return (self.next_u64() >> 11) * 2.0**-53

    def randint(self, lo: int, hi: int) -> int:
        """Uniform integer in [lo, hi], inclusive, via unbiased rejection."""
        span = hi - lo + 1
        if span <= 0:
            raise ValueError(f"empty range [{lo}, {hi}]")
        limit = (_MASK64 + 1) - (_MASK64 + 1) % span
        while True:
            r = self.next_u64()
            if r < limit:
                return lo + r % span

    def pick(self, seq: Sequence):
        return seq[self.randint(0, len(seq) - 1)]

    def pick_weighted(self, weights: Sequence[float]) -> int:
        """Index ``i`` with probability ``weights[i] / sum(weights)``.

        The total is the last running sum, the one ``bisect`` searches:
        ``sum()`` of floats rounds differently from CPython 3.12 on.
        """
        totals = list(accumulate(weights))
        return min(bisect_right(totals, self.random() * totals[-1]), len(weights) - 1)


@dataclass(frozen=True)
class GenParams:
    """Knobs of the generator; defaults target the observed corpus profile
    (mean scaling exponent near 1.36, skewed out-degree concentration)."""

    state_count_range: tuple[int, int] = (4, 24)
    target_beta: float = 1.36
    alphabet_size: int = 4
    kind_mix: tuple[float, float, float] = (0.4, 0.4, 0.2)
    clique_bias: float = 0.3
    pa_strength: float = 1.0
    seed: int = 0
    # Route extra edges out of terminal states first.  Terminal states are
    # all weakly bisimilar, so leaving them in guarantees a (trivially)
    # reducible automaton; removing them lets the silent-clique structure,
    # not leaf count, decide whether reduction succeeds.
    avoid_deadlocks: bool = False

    def __post_init__(self) -> None:
        sizes = self.state_count_range
        if len(sizes) != 2 or sizes[0] < 2 or sizes[1] < sizes[0]:
            raise ValidationError(f"bad state count range {sizes!r}")
        if not 0.63 <= self.target_beta <= 2.0:
            raise ValidationError("target_beta must lie in [0.63, 2]")
        if self.alphabet_size < 1:
            raise ValidationError("alphabet_size must be >= 1")
        mix = self.kind_mix
        if len(mix) != 3 or any(p < 0 for p in mix) or not math.isclose(sum(mix), 1.0):
            raise ValidationError("kind_mix must be three non-negative proportions summing to 1")
        if not 0.0 <= self.clique_bias <= 1.0:
            raise ValidationError("clique_bias must lie in [0, 1]")
        if not (math.isfinite(self.pa_strength) and self.pa_strength >= 0):
            raise ValidationError(f"pa_strength must be finite and >= 0, got {self.pa_strength!r}")


def _alphabet(params: GenParams, prefix: str = "a") -> list[str]:
    return [f"{prefix}{i}" for i in range(params.alphabet_size)]


def generate_primitive(
    params: GenParams,
    name: str | None = None,
    alphabet: Sequence[str] | None = None,
) -> Automaton:
    """One primitive automaton: single component, single initial state,
    every state reachable, exactly ``round(n ** target_beta)`` transitions
    (clamped to [n-1, n^2])."""
    rng = SplitMix64(params.seed)
    n = rng.randint(*params.state_count_range)
    m = min(max(round(n**params.target_beta), n - 1), n * n)
    # per-automaton hub propensity: multiplicative amplification of the
    # attachment exponent (mean 1) puts a fat right tail on the out-degree
    # concentration across a corpus while strength 0 stays exactly uniform
    pa_exponent = params.pa_strength * -math.log(1.0 - rng.random())
    component = name or f"C{params.seed % 100000}"
    actions = list(alphabet) if alphabet is not None else _alphabet(params)
    if not actions:
        raise ValidationError("alphabet must not be empty")
    repeated = sorted({action for action in actions if actions.count(action) > 1})
    if repeated:
        raise ValidationError(f"alphabet repeats actions {repeated!r}")
    width = len(actions)
    # input, output, internal: kind k with action i is label k * width + i
    ends = [
        (src, action, dst)
        for src, dst in ((None, component), (component, None), (component, component))
        for action in actions
    ]

    @cache
    def label(lid: int) -> Label:
        return Label(*ends[lid])

    states = [f"s{i}" for i in range(n)]
    edges: set[tuple[int, int, int]] = set()
    in_deg = [0] * n
    out_deg = [0] * n
    # states without an outgoing edge, in index order; kept only when needed
    childless = list(range(n)) if params.avoid_deadlocks else []
    # attachment weight of every degree a draw can see: a state's in- plus
    # out-degree is at most 2 * m, since a self-loop counts twice
    power = [(d + 1.0) ** pa_exponent for d in range(2 * m + 1)]

    def add(src: int, lid: int, dst: int) -> bool:
        if (src, lid, dst) in edges:
            return False
        edges.add((src, lid, dst))
        if childless and not out_deg[src]:
            childless.remove(src)
        out_deg[src] += 1
        in_deg[dst] += 1
        return True

    def weighted(degs: Iterable[int]) -> int:
        return rng.pick_weighted(list(map(power.__getitem__, degs)))

    def draw_label(kind: int) -> int:
        return kind * width + rng.randint(0, width - 1)

    # spanning arborescence rooted at s0 guarantees reachability
    for child in range(1, n):
        parent = weighted(map(operator.add, in_deg[:child], out_deg[:child]))
        add(parent, draw_label(rng.pick_weighted(params.kind_mix)), child)

    misses = 0
    while len(edges) < m:
        remaining = m - len(edges)
        if remaining >= 2 and rng.random() < params.clique_bias:
            # internal chain through existing states
            length = rng.randint(2, min(5, remaining))
            nodes = [rng.randint(0, n - 1) for _ in range(length + 1)]
            for a, b in zip(nodes, nodes[1:]):
                add(a, draw_label(2), b)  # kind 2: internal
            continue
        src = rng.pick(childless) if childless else weighted(out_deg)
        dst = weighted(in_deg)
        if add(src, draw_label(rng.pick_weighted(params.kind_mix)), dst):
            misses = 0
        else:
            misses += 1
            if misses >= 200:
                # near-saturated graph: draw from the leftover label space,
                # listed in canonical transition order
                by_name = sorted(range(n), key=states.__getitem__)
                by_label = sorted(range(len(ends)), key=lambda lid: label(lid).sort_key())
                leftover = [
                    (i, lid, j)
                    for i in by_name
                    for lid in by_label
                    for j in by_name
                    if (i, lid, j) not in edges
                ]
                while len(edges) < m:
                    add(*leftover.pop(rng.randint(0, len(leftover) - 1)))

    return Automaton.make(
        name=component,
        states=states,
        transitions=[Transition(states[i], label(lid), states[j]) for i, lid, j in edges],
        initial=[states[0]],
        hierarchy=Hierarchy.leaf(component),
    )


def generate_corpus(
    params: GenParams,
    n_pairs: int,
    disjoint_alphabets: bool = False,
) -> list[tuple[Automaton, Automaton]]:
    """Seeded pairs sharing one alphabet, so output/input handshakes arise.

    With ``disjoint_alphabets`` the two sides draw from unrelated token
    pools, making synchronization in a composition impossible.
    """
    if n_pairs < 1:
        raise ValidationError("n_pairs must be >= 1")
    master = SplitMix64(params.seed)
    pairs: list[tuple[Automaton, Automaton]] = []
    for i in range(n_pairs):
        seed_a = master.next_u64()
        seed_b = master.next_u64()
        alpha_a = _alphabet(params, "a")
        alpha_b = _alphabet(params, "b") if disjoint_alphabets else alpha_a
        first = generate_primitive(replace(params, seed=seed_a), name=f"C{2 * i}", alphabet=alpha_a)
        second = generate_primitive(
            replace(params, seed=seed_b), name=f"C{2 * i + 1}", alphabet=alpha_b
        )
        pairs.append((first, second))
    return pairs


def write_corpus(pairs: Sequence[tuple[Automaton, Automaton]], out_dir: str | Path) -> list[Path]:
    """Write one .cia file per pair (two blocks each), numbered in order, into a directory with none."""
    out = Path(out_dir)
    if any(out.glob("*.cia")):
        raise ValidationError(f"{out} already holds .cia pair files; write to a new or empty one")
    out.mkdir(parents=True, exist_ok=True)
    written = []
    for i, (first, second) in enumerate(pairs):
        path = out / f"pair{i:05d}.cia"
        path.write_text(serialize_automaton(first) + serialize_automaton(second), encoding="utf-8")
        written.append(path)
    return written
