"""Workload recipes: a seeded corpus of automaton pairs per workload.

A workload's automata come from its recipe, drawn once from the workload's
own default seed through ciakit's splitmix64 generator.  The corpus is a
stratified sample of the recipe: the side sizes of pair ``i`` and, for the
study recipe, the stratum of its ``target_beta`` come from a fixed schedule,
so sizes cover the whole band and ``target_beta`` is uniform over its range.

``--seed`` then draws an isomorphic copy of that corpus: the pair order, the
state names of every automaton and the action names of every pair are
permuted.  Every seed gives other files, other canonical state and label
orders and so other iteration orders inside ciakit, but the same amount of
work.  Corpora drawn afresh from the recipe differ in cost by more than a
performance change has to resolve: eight ``closed-strict`` seeds, run back to
back in one process, took between 6.3 s and 8.1 s a pass.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path

from ciakit import Automaton, GenParams, Label, SplitMix64, Transition, generate_primitive, write_corpus

# clique_bias cycles per pair exactly as in the acceptance study corpus
STUDY_CLIQUE_LEVELS = (0.0, 0.0, 0.1, 0.2, 0.4)

# salts of the fixed schedules; constants, so the schedule never depends on
# the seed
_SIZE_SALT = 0x5EED_0001
_BETA_SALT = 0x5EED_0002


@dataclass(frozen=True)
class Workload:
    name: str
    band: tuple[int, int]
    pairs: int
    study_recipe: bool  # False: GenParams defaults, as ROADMAP's size bands use
    io: str  # "open" or "closed"
    strict_internal: bool
    regress: bool
    default_seed: int
    # explicit side sizes per pair; empty means the band's size combinations
    sides: tuple[tuple[int, int], ...] = ()

    def experiment_args(self) -> list[str]:
        args = ["--io", self.io, "--workers", "1"]
        if self.strict_internal:
            args.append("--strict-internal")
        return args


WORKLOADS = {
    w.name: w
    for w in (
        Workload("study", (5, 12), 128, True, "open", False, True, 613),
        # two pairs of the band's extreme sizes: composites of about 1,000
        # states each, and a pass short enough that a run takes several
        Workload("large", (24, 40), 2, False, "open", False, False, 7,
                 sides=((24, 40), (40, 24))),
        Workload("closed-strict", (12, 24), 60, True, "closed", True, False, 929),
    )
}


def _shuffle(items: list, rng: SplitMix64) -> list:
    """A permutation of ``items`` drawn from ``rng`` (Fisher-Yates)."""
    items = list(items)
    for i in range(len(items) - 1, 0, -1):
        j = rng.randint(0, i)
        items[i], items[j] = items[j], items[i]
    return items


def _fixed_order(n: int, salt: int) -> list[int]:
    """A seed-independent permutation of range(n)."""
    return _shuffle(list(range(n)), SplitMix64(salt))


def side_sizes(workload: Workload) -> list[tuple[int, int]]:
    """State counts of both sides of every pair: the workload's explicit
    sides, or the band's size combinations in a fixed order, repeated as
    often as the pair count needs."""
    if workload.sides:
        return list(workload.sides)
    lo, hi = workload.band
    combos = [(a, b) for a in range(lo, hi + 1) for b in range(lo, hi + 1)]
    order = _fixed_order(len(combos), _SIZE_SALT)
    return [combos[order[i % len(combos)]] for i in range(workload.pairs)]


def recipe_pairs(workload: Workload) -> list[tuple]:
    """The workload's recipe corpus, drawn from its default seed, as
    (first, second) automata pairs."""
    master = SplitMix64(workload.default_seed)
    sizes = side_sizes(workload)
    strata = _fixed_order(workload.pairs, _BETA_SALT)
    pairs = []
    for i, (size_a, size_b) in enumerate(sizes):
        if workload.study_recipe:
            beta = 1.0 + 0.7 * (strata[i] + master.random()) / workload.pairs
            params = GenParams(
                state_count_range=workload.band,
                target_beta=beta,
                clique_bias=STUDY_CLIQUE_LEVELS[i % len(STUDY_CLIQUE_LEVELS)],
                alphabet_size=10,
                kind_mix=(0.5, 0.5, 0.0),
                avoid_deadlocks=True,
            )
        else:
            params = GenParams(state_count_range=workload.band, avoid_deadlocks=True)
        sides = []
        for j, size in enumerate((size_a, size_b)):
            side = replace(params, seed=master.next_u64(), state_count_range=(size, size))
            sides.append(generate_primitive(side, name=f"C{2 * i + j}"))
        pairs.append(tuple(sides))
    return pairs


def relabel(pair: tuple, rng: SplitMix64) -> tuple:
    """An isomorphic copy of a pair: the states of each automaton, and the
    actions of both together, renamed by permutations drawn from ``rng``."""
    actions = sorted(set().union(*(automaton.actions for automaton in pair)))
    action_map = dict(zip(actions, _shuffle(actions, rng)))
    copies = []
    for automaton in pair:
        states = sorted(automaton.states)
        state_map = dict(zip(states, _shuffle(states, rng)))
        transitions = [
            Transition(state_map[t.source],
                       Label(t.label.src, action_map[t.label.action], t.label.dst),
                       state_map[t.target])
            for t in automaton.sorted_transitions()
        ]
        copies.append(Automaton.make(
            name=automaton.name,
            states=state_map.values(),
            transitions=transitions,
            initial=[state_map[s] for s in automaton.initial],
            hierarchy=automaton.hierarchy,
            actions=[action_map[a] for a in automaton.actions],
        ))
    return tuple(copies)


def build_pairs(workload: Workload, seed: int) -> list[tuple]:
    """The workload's corpus for ``seed``: the recipe corpus, relabelled and
    reordered by permutations drawn from ``seed``."""
    rng = SplitMix64(seed)
    return [relabel(pair, rng) for pair in _shuffle(recipe_pairs(workload), rng)]


def write_workload_corpus(workload: Workload, seed: int, out_dir: Path) -> list[Path]:
    """Generate the corpus and write one ``.cia`` file per pair."""
    return write_corpus(build_pairs(workload, seed), out_dir)
