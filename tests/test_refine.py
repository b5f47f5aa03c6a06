import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ciakit import (
    GenParams,
    IoSets,
    Label,
    LabelKind,
    OracleLimitError,
    Partition,
    RefinementTimeout,
    RefineStats,
    ValidationError,
    compose,
    default_io_sets,
    generate_corpus,
    partition_refine,
    quotient,
    reachable,
    serialize_automaton,
    weak_bisim_relation,
)
from ciakit.core import Indexed
from ciakit.generate import SplitMix64
from ciakit.metrics import indexed_record
from ciakit.product import _Product
from ciakit.refine import _silent_sccs, quotient_triples, refine_indexed
from conftest import aut, handshake_pair, random_automaton
from oracles import (
    is_weak_bisimulation,
    mutual_reachability_classes,
    refine_step,
    silent_closure,
    splitter,
    weak_bisim_oracle,
    weak_targets,
)

TAU = Label("A", "t", "A")
IN_A = Label(None, "a", "A")
IN_B = Label(None, "b", "A")

# Two-component label pool for generated automata: two silent labels and two
# visible ones, so strict mode has distinct internal labels to tell apart.
SILENT = (Label("A", "t", "B"), Label("B", "u", "A"))
VISIBLE = (Label(None, "a", "A"), Label("B", "b", None))


def silent_chain():
    return aut(
        states=["s0", "s1", "s2"],
        trans=[("s0", TAU, "s1"), ("s1", TAU, "s2")],
        init=["s0"],
    )


def branching():
    # s0 -tau-> s1, s0 -a-> s2, s1 -b-> s3
    return aut(
        states=["s0", "s1", "s2", "s3"],
        trans=[("s0", TAU, "s1"), ("s0", IN_A, "s2"), ("s1", IN_B, "s3")],
        init=["s0"],
    )


class TestSilentClosure:
    def test_chain(self):
        c = silent_closure(silent_chain())
        assert c["s0"] == {"s0", "s1", "s2"}
        assert c["s1"] == {"s1", "s2"}
        assert c["s2"] == {"s2"}

    def test_no_internal_transitions(self):
        a = aut(states=["s0", "s1"], trans=[("s0", IN_A, "s1")])
        c = silent_closure(a)
        assert all(c[q] == {q} for q in a.states)

    def test_two_cycle(self):
        a = aut(states=["s0", "s1"], trans=[("s0", TAU, "s1"), ("s1", TAU, "s0")])
        c = silent_closure(a)
        assert c["s0"] == c["s1"] == {"s0", "s1"}


class TestWeakTargets:
    def test_silent_prefix_then_visible(self):
        a = aut(
            states=["s0", "s1", "s2"],
            trans=[("s0", TAU, "s1"), ("s1", IN_A, "s2")],
        )
        assert weak_targets("s0", IN_A, a) == {"s2"}

    def test_contains_direct_successors(self):
        a = branching()
        assert weak_targets("s0", IN_A, a) >= {"s2"}
        assert weak_targets("s1", IN_B, a) >= {"s3"}

    def test_silent_label_matches_by_closure(self):
        a = silent_chain()
        assert weak_targets("s0", TAU, a) == {"s0", "s1", "s2"}

    def test_strict_internal_requires_the_label(self):
        a = silent_chain()
        assert weak_targets("s2", TAU, a, strict_internal=True) == frozenset()
        assert weak_targets("s0", TAU, a, strict_internal=True) == {"s1", "s2"}


class TestSplitter:
    def test_weakly_reaches_candidate(self):
        a = aut(
            states=["s0", "s1", "s2"],
            trans=[("s0", TAU, "s1"), ("s1", IN_A, "s2")],
        )
        assert splitter("s0", IN_A, frozenset({"s2"}), a)

    def test_no_transitions_means_false(self):
        a = aut(states=["s0", "s1"])
        assert not splitter("s0", IN_A, frozenset({"s1"}), a)

    def test_internal_label_with_state_in_candidate(self):
        a = aut(states=["s0", "s1"])
        assert splitter("s0", TAU, frozenset({"s0", "s1"}), a)


class TestRefineStep:
    def test_splits_by_visible_offer(self):
        a = aut(
            states=["s0", "s1", "s2"],
            trans=[("s0", TAU, "s1"), ("s1", IN_A, "s2")],
        )
        start = Partition.from_blocks([frozenset({"s0", "s1", "s2"})])
        out = refine_step(start, IN_A, frozenset({"s2"}), a)
        assert set(out.blocks) == {frozenset({"s0", "s1"}), frozenset({"s2"})}
        assert tuple(b for b in out.blocks if len(b) > 1) == (frozenset({"s0", "s1"}),)
        assert tuple(b for b in out.blocks if len(b) == 1) == (frozenset({"s2"}),)

    def test_unreachable_candidate_changes_nothing(self):
        a = branching()
        start = Partition.from_blocks(
            [frozenset({"s0", "s1"}), frozenset({"s2", "s3"})]
        )
        out = refine_step(start, Label(None, "zz", "A"), frozenset({"s2"}), a)
        assert out == start

    def test_singletons_never_split(self):
        a = branching()
        start = Partition.from_blocks([frozenset({q}) for q in a.states])
        out = refine_step(start, IN_A, frozenset({"s2"}), a)
        assert out == start

    def test_block_count_monotone(self):
        a = branching()
        part = Partition.from_blocks([frozenset(a.states)])
        counts = [part.block_count()]
        for label in (IN_A, IN_B, TAU):
            for block in part.blocks:
                part = refine_step(part, label, block, a)
                counts.append(part.block_count())
        assert counts == sorted(counts)
        assert counts[-1] - counts[0] <= len(a.states) - 1


class TestPartition:
    @pytest.mark.parametrize(
        "blocks,message",
        [
            ([{"s0"}, set()], "empty partition block"),
            ([{"s0", "s1"}, {"s1", "s2"}], "partition blocks are not disjoint"),
        ],
        ids=["empty", "overlap"],
    )
    def test_from_blocks_rejects(self, blocks, message):
        with pytest.raises(ValidationError, match=f"^{message}$"):
            Partition.from_blocks(frozenset(block) for block in blocks)


class TestPartitionRefine:
    def test_silent_chain_merges_fully(self):
        part = partition_refine(silent_chain())
        assert part.blocks == (frozenset({"s0", "s1", "s2"}),)

    def test_branching_example(self):
        part = partition_refine(branching())
        assert set(part.blocks) == {
            frozenset({"s0"}),
            frozenset({"s1"}),
            frozenset({"s2", "s3"}),
        }

    def test_distinct_strong_behaviors_stay_apart(self):
        a = aut(
            states=["s0", "s1", "s2"],
            trans=[("s0", IN_A, "s1"), ("s1", IN_B, "s2")],
        )
        part = partition_refine(a)
        assert all(len(b) == 1 for b in part.blocks)

    def test_timeout_raises(self):
        a = random_automaton(5, max_states=12)
        with pytest.raises(RefinementTimeout):
            partition_refine(a, timeout=-1.0)

    def test_zero_budget_raises_promptly_on_a_large_composite(self):
        params = GenParams(state_count_range=(24, 40), avoid_deadlocks=True, seed=7)
        first, second = generate_corpus(params, 3)[2]
        composite = reachable(compose([first, second], default_io_sets([first, second])))
        assert len(composite.states) == 1170
        with pytest.raises(RefinementTimeout) as info:
            partition_refine(composite, timeout=0.0)
        assert info.value.elapsed < 0.5

    def test_deterministic_across_runs(self):
        for seed in range(10):
            a = random_automaton(seed)
            first = partition_refine(a)
            second = partition_refine(a)
            assert first == second
            assert serialize_automaton(quotient(a, first)) == serialize_automaton(
                quotient(a, second)
            )

    def test_idempotent_on_quotient(self):
        for seed in range(20):
            a = random_automaton(seed)
            reduced = quotient(a, partition_refine(a))
            again = partition_refine(reduced)
            assert all(len(b) == 1 for b in again.blocks)

    def test_stats_filled(self):
        stats = RefineStats()
        partition_refine(branching(), stats=stats)
        assert stats.refine_steps > 0
        assert stats.splitter_evals > 0
        assert stats.work_units() == stats.refine_steps + stats.splitter_evals

    def test_structural_counters(self):
        # a silent ring of three states and a state outside it
        ring = [("s0", TAU, "s1"), ("s1", TAU, "s2"), ("s2", TAU, "s0"), ("s2", IN_A, "s3")]
        stats = RefineStats()
        partition_refine(aut(states=["s0", "s1", "s2", "s3"], trans=ring), stats=stats)
        assert (stats.sccs, stats.largest_scc, stats.shared, stats.blocks) == (2, 3, 0, 2)

    def test_strict_internal_distinguishes_chain(self):
        chain = silent_chain()
        assert partition_refine(chain).block_count() == 1
        strict = partition_refine(chain, strict_internal=True)
        assert strict.block_count() == 3

    def test_engine_agrees_with_naive_weak_targets(self):
        for seed in range(12):
            a = random_automaton(seed, max_states=8)
            closure = silent_closure(a)
            part = partition_refine(a)
            # every pair of states in a block must agree with every splitter
            labels = {t.label for t in a.transitions}
            for block in part.blocks:
                for label in labels:
                    for candidate in part.blocks:
                        verdicts = {
                            splitter(q, label, candidate, a, closure) for q in block
                        }
                        assert len(verdicts) == 1


class TestQuotient:
    def test_silent_chain_collapses_to_point(self):
        chain = silent_chain()
        q = quotient(chain, partition_refine(chain))
        assert len(q.states) == 1
        assert not q.transitions
        assert q.initial == q.states

    def test_class_crossing_internal_survives(self):
        a = branching()
        q = quotient(a, partition_refine(a))
        assert len(q.states) == 3
        internal = [t for t in q.transitions if t.label.kind is LabelKind.INTERNAL]
        assert len(internal) == 1
        assert internal[0].source != internal[0].target

    def test_identity_partition_drops_only_silent_self_loops(self):
        a = aut(
            states=["s0", "s1"],
            trans=[("s0", TAU, "s0"), ("s0", IN_A, "s1"), ("s1", IN_B, "s1")],
        )
        part = Partition.from_blocks([frozenset({q}) for q in a.states])
        q = quotient(a, part)
        assert len(q.states) == 2
        kinds = sorted(t.label.action for t in q.transitions)
        assert kinds == ["a", "b"]

    def test_states_renamed_canonically(self):
        a = branching()
        q = quotient(a, partition_refine(a))
        assert q.states == {"r0", "r1", "r2"}

    @pytest.mark.parametrize(
        "blocks",
        [
            [{"s0", "s1"}, {"s2"}],  # s3 missing; it has no transition
            [{"s0", "s1"}, {"s2", "s3"}, {"x"}],  # x is no state
        ],
        ids=["missing", "stray"],
    )
    def test_partition_must_cover_exactly_the_states(self, blocks):
        a = aut(states=["s0", "s1", "s2", "s3"], trans=[("s0", TAU, "s1"), ("s1", IN_A, "s2")])
        part = Partition.from_blocks(frozenset(block) for block in blocks)
        with pytest.raises(ValidationError, match="partition does not cover"):
            quotient(a, part)


def oracle_classes(a, strict_internal=False):
    relation = weak_bisim_relation(a, strict_internal=strict_internal)
    return {frozenset(p for p in a.states if (q, p) in relation) for q in a.states}


class TestOracle:
    def test_quotient_always_bisimilar(self):
        for seed in range(25):
            a = random_automaton(seed)
            q = quotient(a, partition_refine(a))
            assert weak_bisim_oracle(a, q)

    def test_point_vs_silent_chain(self):
        point = aut(states=["s0"])
        two = aut(states=["s0", "s1"], trans=[("s0", TAU, "s1")])
        assert weak_bisim_oracle(point, two)

    def test_different_inputs_not_bisimilar(self):
        left = aut(states=["s0", "s1"], trans=[("s0", IN_A, "s1")])
        right = aut(states=["s0", "s1"], trans=[("s0", IN_B, "s1")])
        assert not weak_bisim_oracle(left, right)

    def test_bound_enforced(self):
        a = aut(states=["s0", "s1"], trans=[("s0", IN_A, "s1")])
        with pytest.raises(OracleLimitError, match="limited to"):
            weak_bisim_oracle(a, a, max_states=3)
        with pytest.raises(OracleLimitError, match="limited to"):
            weak_bisim_relation(a, max_states=1)

    def test_hierarchies_must_share_leaves(self):
        a = aut("A", ("A",), ["s0"])
        b = aut("B", ("B",), ["s0"])
        with pytest.raises(ValidationError, match="leaf sets"):
            weak_bisim_oracle(a, b)

    def test_minimality_via_relation(self):
        for seed in range(15):
            a = random_automaton(seed)
            q = quotient(a, partition_refine(a))
            relation = weak_bisim_relation(q)
            distinct = [(x, y) for (x, y) in relation if x != y]
            assert not distinct, f"seed {seed}: quotient not minimal: {distinct}"

    def test_partition_equals_oracle_equivalence_classes(self):
        # the refined blocks must be exactly the greatest relation's classes
        for seed in range(40):
            a = random_automaton(seed * 3 + 1, max_states=10)
            assert set(partition_refine(a).blocks) == oracle_classes(a)

    def test_strict_partition_equals_strict_oracle_classes(self):
        for seed in range(25):
            a = random_automaton(seed * 5 + 2, max_states=10)
            got = partition_refine(a, strict_internal=True)
            assert set(got.blocks) == oracle_classes(a, strict_internal=True)


@st.composite
def clique_automata(draw):
    """At most 10 states in a few silent rings plus sparse edges over 1-2 labels.

    Few labels and shared rings make many states' saturated rows equal, which
    is the case row interning in the refinement engine has to get right.
    """
    n = draw(st.integers(1, 10))
    states = [f"s{i}" for i in range(n)]
    ring_of = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
    trans = []
    for ring in sorted(set(ring_of)):
        members = [q for q, r in zip(states, ring_of) if r == ring]
        label = draw(st.sampled_from(SILENT))
        if len(members) > 1:
            trans += [(q, label, p) for q, p in zip(members, members[1:] + members[:1])]
    labels = draw(st.lists(st.sampled_from(SILENT + VISIBLE), min_size=1, max_size=2, unique=True))
    edge = st.tuples(st.sampled_from(states), st.sampled_from(labels), st.sampled_from(states))
    trans += draw(st.lists(edge, max_size=n + 2))
    return aut(hier=("A", "B"), states=states, trans=trans)


@pytest.mark.parametrize("strict", [False, True], ids=["default", "strict"])
@settings(max_examples=50, deadline=None, derandomize=True)
@given(a=clique_automata())
def test_partition_equals_oracle_classes_on_clique_automata(strict, a):
    got = partition_refine(a, strict_internal=strict)
    assert set(got.blocks) == oracle_classes(a, strict_internal=strict)


OUT_A = Label("A", "a", None)
OUT_B = Label("A", "b", None)


@pytest.mark.parametrize("strict", [False, True], ids=["default", "strict"])
@pytest.mark.parametrize("silent_prefix", [False, True], ids=["direct", "after-silent-step"])
def test_enabled_labels_split_before_targets(strict, silent_prefix):
    # p and q reach the same block x, but by different labels: the engine's
    # sparse signatures list reached blocks without their labels, so only the
    # split by enabled labels keeps p and q apart
    if silent_prefix:
        trans = [("p", TAU, "p1"), ("p1", OUT_A, "x"), ("q", TAU, "q1"), ("q1", OUT_B, "x")]
    else:
        trans = [("p", OUT_A, "x"), ("q", OUT_B, "x")]
    a = aut(states=sorted({s for s, _, _ in trans} | {"x"}), trans=trans)
    part = partition_refine(a, strict_internal=strict)
    assert not any({"p", "q"} <= block for block in part.blocks)
    assert set(part.blocks) == oracle_classes(a, strict_internal=strict)


# p and q share a block after round 1 while u, whose a-edge p's a-row runs
# through, is alone in its own.  In the first case p and q must end up apart;
# in the second they are weakly bisimilar only because that edge counts for q.
SETTLED_RELAY = {
    "apart": ([("p", TAU, "u"), ("u", IN_A, "x"), ("p", IN_B, "w"), ("q", IN_A, "y"),
               ("q", IN_B, "w"), ("y", IN_B, "w")], False, {False: (4, 3), True: (2, 0)}),
    "together": ([("p", TAU, "u"), ("q", TAU, "u"), ("u", IN_A, "x"), ("p", IN_A, "x"),
                  ("p", IN_B, "w"), ("q", IN_B, "w")], True, {False: (4, 3), True: (4, 3)}),
}


@pytest.mark.parametrize("strict", [False, True], ids=["default", "strict"])
@pytest.mark.parametrize("case", SETTLED_RELAY)
def test_shared_block_row_runs_through_a_settled_node(case, strict):
    trans, together, counters = SETTLED_RELAY[case]
    a = aut(states=sorted({s for s, _, _ in trans} | {d for _, _, d in trans}), trans=trans)
    stats = RefineStats()
    part = partition_refine(a, strict_internal=strict, stats=stats)
    assert frozenset({"u"}) in part.blocks
    assert any({"p", "q"} <= block for block in part.blocks) == together
    assert set(part.blocks) == oracle_classes(a, strict_internal=strict)
    # (nodes sharing a block after round 1, saturated rows); strict round 1
    # already splits the first case's p (it enables the silent label) from q
    assert (stats.shared, stats.refine_steps) == counters[strict]


def visible_chain():
    # s0 -a-> s1 -b-> s2: every state enables its own label set
    return aut(states=["s0", "s1", "s2"], trans=[("s0", IN_A, "s1"), ("s1", IN_B, "s2")])


@pytest.mark.parametrize("strict", [False, True], ids=["default", "strict"])
def test_round_one_singletons_saturate_no_row(strict):
    a = visible_chain()
    stats = RefineStats()
    part = partition_refine(a, strict_internal=strict, stats=stats)
    assert set(part.blocks) == oracle_classes(a, strict_internal=strict)
    assert part.block_count() == stats.blocks == 3
    assert (stats.sweeps, stats.refine_steps, stats.splitter_evals) == (1, 0, 3)
    assert (stats.sccs, stats.largest_scc, stats.shared) == (3, 1, 0)


@pytest.mark.parametrize("strict", [False, True], ids=["default", "strict"])
@settings(max_examples=50, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1))
def test_block_ids_are_compact(strict, seed):
    form = Indexed.of(random_automaton(seed))[0]
    # a self-loop of its own on every state gives every silent SCC its own
    # enabled labels, so round 1 settles every node
    own = [Label(None, f"own{q}", "A") for q in range(form.n)]
    loops = [[q] for q in range(form.n)]
    settled = Indexed(form.n, form.labels + own, form.sources + loops, form.targets + loops)
    for indexed in (form, settled):
        stats = RefineStats()
        block, count = refine_indexed(indexed, strict_internal=strict, stats=stats)
        assert len(block) == indexed.n
        assert sorted(set(block)) == list(range(count))
        assert count == stats.blocks
    assert stats.shared == 0


def test_zero_budget_raises_when_round_one_ends_refinement():
    with pytest.raises(RefinementTimeout):
        partition_refine(visible_chain(), timeout=0.0)


# Silent and visible labels over two components, for automata whose states
# differ mostly in which labels they enable.
LABEL_POOL = SILENT + VISIBLE + (Label("A", "c", None), Label(None, "d", "B"))


@st.composite
def label_subset_automata(draw):
    """At most 12 states over 3-5 labels; each state enables a random subset.

    Every move leads into one of at most three target states, so states that
    enable different labels often reach the same blocks.
    """
    n = draw(st.integers(1, 12))
    states = [f"s{i}" for i in range(n)]
    labels = draw(st.lists(st.sampled_from(LABEL_POOL), min_size=3, max_size=5, unique=True))
    targets = st.sampled_from(draw(st.lists(st.sampled_from(states), min_size=1, max_size=3)))
    trans = [
        (q, label, draw(targets))
        for q in states
        for label in draw(st.lists(st.sampled_from(labels), unique=True))
    ]
    return aut(hier=("A", "B"), states=states, trans=trans)


@pytest.mark.parametrize("strict", [False, True], ids=["default", "strict"])
@settings(max_examples=50, deadline=None, derandomize=True)
@given(a=label_subset_automata())
def test_partition_equals_oracle_classes_on_label_subsets(strict, a):
    got = partition_refine(a, strict_internal=strict)
    assert set(got.blocks) == oracle_classes(a, strict_internal=strict)


@st.composite
def silent_graphs(draw):
    """Successor lists on at most 12 states: sparse enough that many states
    are isolated or have no successor, with self-loops and repeated edges."""
    n = draw(st.integers(1, 12))
    state = st.integers(0, n - 1)
    succ: list[list[int]] = [[] for _ in range(n)]
    for src, dst in draw(st.lists(st.tuples(state, state), max_size=2 * n)):
        succ[src].append(dst)
    return succ


@settings(max_examples=200, deadline=None, derandomize=True)
@given(succ=silent_graphs())
def test_silent_sccs_are_mutual_reachability_classes(succ):
    comp, count, largest = _silent_sccs(succ)
    assert sorted(set(comp)) == list(range(count))
    members: dict[int, set[int]] = {}
    for state, c in enumerate(comp):
        members.setdefault(c, set()).add(state)
    assert {frozenset(group) for group in members.values()} == mutual_reachability_classes(succ)
    assert largest == max(map(len, members.values()))
    # saturation visits components in id order and relies on this
    assert all(comp[dst] <= comp[src] for src, targets in enumerate(succ) for dst in targets)


# Seeded composites above the oracle's size limit, with the refinement
# counters and a digest of the canonical partition pinned.  The counters feed
# ``--deterministic-timing`` output, so a change here changes experiment CSVs.
PINNED = [
    # (params, pair index, io, strict_internal, states, sweeps, refine_steps,
    #  splitter_evals, blocks, partition digest)
    (GenParams(state_count_range=(24, 40), avoid_deadlocks=True, seed=7), 2, "open", False,
     1170, 3, 17, 65, 21, "933e77d88d59dc2b"),
    (GenParams(state_count_range=(12, 24), clique_bias=0.4, seed=11), 0, "open", False,
     408, 5, 17, 266, 33, "30fb131afedb03fc"),
    (GenParams(state_count_range=(12, 24), clique_bias=0.4, seed=13), 0, "closed", True,
     387, 3, 16, 175, 32, "ca7a442d7fe1c371"),
]


@pytest.mark.parametrize("case", PINNED, ids=["large-open", "clique-open", "clique-closed-strict"])
def test_pinned_stats_and_partition_on_large_composites(case):
    params, index, io, strict, states, sweeps, steps, evals, blocks, digest = case
    first, second = generate_corpus(params, index + 1)[index]
    io_sets = default_io_sets([first, second]) if io == "open" else IoSets.closed()
    composite = reachable(compose([first, second], io_sets))
    assert len(composite.states) == states
    stats = RefineStats()
    part = partition_refine(composite, strict_internal=strict, stats=stats)
    assert (stats.sweeps, stats.refine_steps, stats.splitter_evals) == (sweeps, steps, evals)
    assert part.block_count() == stats.blocks == blocks
    text = "\n".join(" ".join(sorted(block)) for block in part.blocks)
    assert hashlib.sha256(text.encode()).hexdigest()[:16] == digest


def label_numbering_cases():
    """Indexed forms of random automata and of reachable corpus products."""
    forms = [Indexed.of(random_automaton(seed, max_states=20))[0] for seed in range(40)]
    for first, second in generate_corpus(GenParams(state_count_range=(4, 12), seed=3), 10):
        forms.append(_Product([first, second], default_io_sets([first, second])).reachable()[0])
    return forms


@pytest.mark.parametrize("strict", [False, True])
def test_refinement_ignores_label_numbering(strict):
    # renumbering the label table (each label moving with its edge list) must
    # not change the partition or any work counter
    for seed, form in enumerate(label_numbering_cases()):
        rng = SplitMix64(seed)
        order = list(range(len(form.labels)))
        for i in range(len(order) - 1, 0, -1):
            j = rng.randint(0, i)
            order[i], order[j] = order[j], order[i]
        shuffled = Indexed(form.n, [form.labels[i] for i in order],
                           [form.sources[i] for i in order], [form.targets[i] for i in order])
        results = []
        for indexed in (form, shuffled):
            stats = RefineStats()
            block, count = refine_indexed(indexed, strict_internal=strict, stats=stats)
            members: list[set[int]] = [set() for _ in range(count)]
            for state, b in enumerate(block):
                members[b].add(state)
            results.append(({frozenset(group) for group in members},
                             (stats.sweeps, stats.refine_steps, stats.splitter_evals)))
        assert results[0] == results[1], f"form {seed}"


# one internal, one input and one output label, none of which fires
UNUSED = (Label("X", "pad", "Y"), Label(None, "pad", "X"), Label("X", "pad", None))


@pytest.mark.parametrize("strict", [False, True])
def test_labels_without_edges_change_nothing(strict):
    # the product explorer numbers sync labels that may never fire: appending
    # labels with empty edge lists must not change metrics, the partition,
    # any counter or the quotient
    for seed, form in enumerate(label_numbering_cases()):
        empty = [[] for _ in UNUSED]
        padded = Indexed(form.n, form.labels + list(UNUSED), form.sources + empty,
                         form.targets + empty)
        results = []
        for indexed in (form, padded):
            stats = RefineStats()
            block, count = refine_indexed(indexed, strict_internal=strict, stats=stats)
            stats.elapsed_s = 0.0
            triples = [
                (src, lid, dst)
                for lid, (sources, targets) in enumerate(zip(indexed.sources, indexed.targets))
                for src, dst in zip(sources, targets)
            ]
            kept = quotient_triples(triples, block, indexed.internal())
            results.append((indexed_record(indexed), block, count, stats, kept))
        assert results[0] == results[1], f"form {seed}"


class TestFullPipelineOnHandshake:
    def test_closed_composite_reduces_to_point(self):
        a, b = handshake_pair()
        composite = reachable(compose([a, b], IoSets.closed()))
        assert len(composite.states) == 2
        part = partition_refine(composite)
        assert part.block_count() == 1
        q = quotient(composite, part)
        assert len(q.states) == 1 and not q.transitions
        assert weak_bisim_oracle(composite, q)

    def test_no_silent_self_loop_survives(self):
        for seed in range(20):
            a = random_automaton(seed)
            q = quotient(a, partition_refine(a))
            for t in q.transitions:
                assert not (t.label.kind is LabelKind.INTERNAL and t.source == t.target)


def _merge_two(block: list[int], count: int, data) -> list[int]:
    """``block`` with two of its ``count`` blocks, drawn by hypothesis, made one."""
    keep = data.draw(st.integers(0, count - 1))
    gone = data.draw(st.integers(0, count - 2))
    gone += gone >= keep
    return [keep if b == gone else b for b in block]


@pytest.mark.parametrize("strict", [False, True], ids=["default", "strict"])
def test_referee_accepts_the_oracle_classes_and_no_merge(strict):
    # the referee against the brute-force greatest weak bisimulation
    for seed in range(30):
        a = random_automaton(seed * 7 + 3, max_states=10)
        indexed, states = Indexed.of(a)
        classes = sorted(oracle_classes(a, strict_internal=strict), key=sorted)
        number = {state: i for i, members in enumerate(classes) for state in members}
        block = [number[state] for state in states]
        assert is_weak_bisimulation(indexed, block, strict), f"seed {seed}"
        for gone in range(1, len(classes)):
            merged = [0 if b == gone else b for b in block]
            assert not is_weak_bisimulation(indexed, merged, strict), f"seed {seed}"


@pytest.mark.parametrize("strict", [False, True], ids=["default", "strict"])
@settings(max_examples=40, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), closed=st.booleans(), data=st.data())
def test_referee_on_composites_past_the_oracle_bound(strict, seed, closed, data):
    """Generated pairs of 5..17 states a side: composites of up to 289 states."""
    pair = generate_corpus(GenParams(state_count_range=(5, 17), seed=seed), 1)[0]
    io = IoSets.closed() if closed else default_io_sets(pair)
    composite = _Product(pair, io).reachable()[0]
    block, count = refine_indexed(composite, strict_internal=strict)
    assert is_weak_bisimulation(composite, block, strict)
    if count > 1:
        assert not is_weak_bisimulation(composite, _merge_two(block, count, data), strict)
    if strict:
        return  # strict quotients drop internal self-loops they may need
    # the quotient, beside the composite, each state in its quotient state's block
    n, labels = composite.n, composite.labels
    triples = [
        (s, lid, d)
        for lid, (src, dst) in enumerate(zip(composite.sources, composite.targets))
        for s, d in zip(src, dst)
    ]
    sources = [list(src) for src in composite.sources]
    targets = [list(dst) for dst in composite.targets]
    for src, lid, dst in quotient_triples(triples, block, composite.internal()):
        sources[lid].append(n + src)
        targets[lid].append(n + dst)
    union = Indexed(n + count, labels, sources, targets)
    assert is_weak_bisimulation(union, block + list(range(count)))
