import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ciakit import (
    GenParams,
    IoSets,
    Label,
    LabelKind,
    Transition,
    ValidationError,
    compose,
    compose_pairwise_reduce,
    default_io_sets,
    generate_corpus,
    parse_automata,
    partition_refine,
    quotient,
    reachable,
    serialize_automaton,
)
from ciakit.product import resolve_io
from conftest import aut, colliding_pair, handshake_pair
from oracles import bfs_reachable_oracle, compose_oracle, weak_bisim_oracle


class TestCompose:
    def test_closed_handshake(self):
        a, b = handshake_pair()
        c = compose([a, b], IoSets.closed())
        assert len(c.states) == 4
        assert c.initial == {"(a0,b0)"}
        assert c.transitions == {
            Transition("(a0,b0)", Label("B", "m", "A"), "(a1,b1)")
        }
        assert c.hierarchy.render() == "((A)(B))"
        assert c.name == "AB"

    def test_open_handshake_adds_solo_moves(self):
        a, b = handshake_pair()
        c = compose([a, b], IoSets(frozenset({"m"}), frozenset({"m"})))
        solo = {
            Transition("(a0,b0)", Label(None, "m", "A"), "(a1,b0)"),
            Transition("(a0,b1)", Label(None, "m", "A"), "(a1,b1)"),
            Transition("(a0,b0)", Label("B", "m", None), "(a0,b1)"),
            Transition("(a1,b0)", Label("B", "m", None), "(a1,b1)"),
        }
        assert c.transitions == solo | {Transition("(a0,b0)", Label("B", "m", "A"), "(a1,b1)")}

    def test_internal_lifts_regardless_of_io(self):
        a = aut("A", ("A",), ["s0", "s1"], [("s0", ("A", "t", "A"), "s1")])
        b = aut("B", ("B",), ["b0"])
        c = compose([a, b], IoSets.closed())
        assert Transition("(s0,b0)", Label("A", "t", "A"), "(s1,b0)") in c.transitions

    def test_product_state_count(self):
        a, b = handshake_pair()
        c3 = aut("C", ("C",), ["c0", "c1", "c2"])
        c = compose([a, b, c3], IoSets.closed())
        assert len(c.states) == 2 * 2 * 3
        assert c.hierarchy.render() == "((A)(B)(C))"

    def test_rejects_single_component(self):
        a, _ = handshake_pair()
        with pytest.raises(ValidationError, match="at least 2"):
            compose([a], IoSets.closed())

    def test_rejects_hierarchy_overlap(self):
        a, _ = handshake_pair()
        twin = aut("A2", ("A",), ["x0"])
        with pytest.raises(ValidationError, match="not disjoint"):
            compose([a, twin], IoSets.closed())

    @pytest.mark.parametrize("build", [compose, compose_pairwise_reduce])
    def test_rejects_colliding_state_tokens(self, build):
        components = colliding_pair()
        with pytest.raises(ValidationError, match=r"'\(a,b,c\)' names two product states"):
            build(components, default_io_sets(components))

    def test_rejects_unknown_io_actions(self):
        a, b = handshake_pair()
        with pytest.raises(ValidationError, match="unknown actions"):
            compose([a, b], IoSets(frozenset({"zz"}), frozenset()))

    def test_closed_io_yields_only_internal_labels(self):
        for seed in range(8):
            first, second = generate_corpus(
                GenParams(state_count_range=(2, 4), seed=seed), 1
            )[0]
            c = compose([first, second], IoSets.closed())
            assert all(t.label.kind is LabelKind.INTERNAL for t in c.transitions)

    def test_new_sync_moves_exactly_two_components(self):
        a, b = handshake_pair()
        c = compose([a, b], default_io_sets([a, b]))
        for t in c.transitions:
            src = t.source[1:-1].split(",")
            dst = t.target[1:-1].split(",")
            movers = sum(1 for x, y in zip(src, dst) if x != y)
            if t.label.kind is LabelKind.INTERNAL:
                assert movers == 2  # new sync: handshake pair moves
            else:
                assert movers == 1

    def test_matches_enumeration_oracle(self):
        for seed in range(20):
            first, second = generate_corpus(
                GenParams(state_count_range=(2, 4), seed=seed), 1
            )[0]
            for io in (IoSets.closed(), default_io_sets([first, second])):
                got = compose([first, second], io)
                assert got.transitions == compose_oracle([first, second], io)

    def test_three_way_matches_oracle(self):
        a, b = handshake_pair()
        c3 = aut(
            "C", ("C",), ["c0", "c1"],
            [("c0", (None, "m", "C"), "c1"), ("c1", ("C", "n", None), "c0")],
        )
        io = default_io_sets([a, b, c3])
        got = compose([a, b, c3], io)
        assert got.transitions == compose_oracle([a, b, c3], io)


class TestDefaultIoSets:
    def test_handshake_pair(self):
        a, b = handshake_pair()
        io = default_io_sets([a, b])
        assert io.provided == {"m"} and io.required == {"m"}

    def test_internal_only(self):
        a = aut("A", ("A",), ["s0", "s1"], [("s0", ("A", "t", "A"), "s1")])
        io = default_io_sets([a])
        assert io.provided == frozenset() and io.required == frozenset()

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError, match="^unknown io policy 'half'$"):
            resolve_io("half", handshake_pair())

    def test_single_component_open_labels(self):
        a = aut(
            "A", ("A",), ["s0", "s1"],
            [("s0", (None, "a", "A"), "s1"), ("s1", ("A", "b", None), "s0")],
        )
        io = default_io_sets([a])
        assert io.provided == {"b"} and io.required == {"a"}


class TestReachableComposite:
    def test_closed_handshake_prunes_to_bfs_oracle(self):
        a, b = handshake_pair()
        c = compose([a, b], IoSets.closed())
        expected = bfs_reachable_oracle(c)
        assert expected == {"(a0,b0)", "(a1,b1)"}
        assert reachable(c).states == expected


FOLD_SHA256 = "2ed97c2b7ef59883ed950516e2c284e55326434fbe4910341a33829edbed284b"
COMPOSE_SHA256 = "a45d4293788f1be47804ac449721228aa5d2458f8b9ee20869c8996bae003943"


def test_nary_compose_pinned_output():
    """sha256 of the serialized n-ary composites of the first 2, 3 and 4
    generated components, seeds 1..5, open and closed io; any change of
    output moves it."""
    digest = hashlib.sha256()
    for seed in range(1, 6):
        corpus = generate_corpus(GenParams(state_count_range=(3, 6), seed=seed), 2)
        comps = [automaton for pair in corpus for automaton in pair]
        for k in (2, 3, 4):
            group = comps[:k]
            for io in (default_io_sets(group), IoSets.closed()):
                digest.update(serialize_automaton(compose(group, io)).encode())
    assert digest.hexdigest() == COMPOSE_SHA256


class TestPairwiseReduce:
    def test_two_components_equal_single_fold(self):
        a, b = handshake_pair()
        io = IoSets.closed()
        folded = compose_pairwise_reduce([a, b], io)
        pruned = reachable(compose([a, b], io))
        direct = quotient(pruned, partition_refine(pruned))
        assert len(folded.states) == len(direct.states) == 1

    def test_three_singletons(self):
        comps = [aut(n, (n,), ["s0"]) for n in ("A", "B", "C")]
        folded = compose_pairwise_reduce(comps, IoSets.closed())
        assert len(folded.states) == 1
        assert folded.hierarchy.leaf_names() == {"A", "B", "C"}

    def test_relay_chain_bisimilar_to_nary(self):
        a = aut("A", ("A",), ["a0", "a1"], [("a0", ("A", "m", None), "a1")])
        b = aut(
            "B", ("B",), ["b0", "b1", "b2"],
            [("b0", (None, "m", "B"), "b1"), ("b1", ("B", "n", None), "b2")],
        )
        c = aut("C", ("C",), ["c0", "c1"], [("c0", (None, "n", "C"), "c1")])
        io = default_io_sets([a, b, c])
        folded = compose_pairwise_reduce([a, b, c], io)
        nary = reachable(compose([a, b, c], io))
        assert len(nary.states) <= 30
        assert weak_bisim_oracle(folded, nary)

    def test_closed_strict_keeps_sync_with_a_later_component(self):
        # A outputs m to C and B is idle: the first step must keep A's output
        # open for C, or the fold loses the synchronization (A,m,C)
        a = aut("A", ("A",), ["a0", "a1"], [("a0", ("A", "m", None), "a1")])
        b = aut("B", ("B",), ["b0"])
        c = aut("C", ("C",), ["c0", "c1"], [("c0", (None, "m", "C"), "c1")])
        io = IoSets.closed()
        folded = compose_pairwise_reduce([a, b, c], io, strict_internal=True)
        nary = reachable(compose([a, b, c], io))
        assert {t.label for t in folded.transitions} == {Label("A", "m", "C")}
        assert weak_bisim_oracle(folded, nary, strict_internal=True)

    @pytest.mark.parametrize("k", [3, 4])
    def test_hierarchy_is_the_nary_products(self, k):
        corpus = generate_corpus(GenParams(state_count_range=(3, 5), seed=k), 2)
        comps = [automaton for pair in corpus for automaton in pair][:k]
        io = default_io_sets(comps)
        assert compose_pairwise_reduce(comps, io).hierarchy == compose(comps, io).hierarchy

    def test_hundred_and_one_components_round_trip(self):
        # one hierarchy level whatever the number of components, so the
        # parser's nesting bound does not reject the fold's document
        comps = [aut(f"C{i}", (f"C{i}",), ["s0", "s1"]) for i in range(101)]
        folded = compose_pairwise_reduce(comps, IoSets.closed())
        assert parse_automata(serialize_automaton(folded)) == [folded]

    def test_needs_two_components(self):
        with pytest.raises(ValidationError, match="^composition needs at least 2 components$"):
            compose_pairwise_reduce([aut(states=["s0"])], IoSets.closed())

    def test_io_action_no_component_declares_is_rejected(self):
        comps = [aut(n, (n,), ["s0"]) for n in ("A", "B", "C")]
        with pytest.raises(ValidationError, match="unknown actions"):
            compose_pairwise_reduce(comps, IoSets(frozenset({"zz"}), frozenset()))

    def test_pinned_output(self):
        """sha256 of the serialized folds of 4 generated components, seeds
        1..5, open and closed io, both semantics; any change of output moves it."""
        digest = hashlib.sha256()
        for seed in range(1, 6):
            corpus = generate_corpus(GenParams(state_count_range=(4, 9), seed=seed), 2)
            comps = [automaton for pair in corpus for automaton in pair]
            for io in (default_io_sets(comps), IoSets.closed()):
                for strict in (False, True):
                    folded = compose_pairwise_reduce(comps, io, strict_internal=strict)
                    digest.update(serialize_automaton(folded).encode())
        assert digest.hexdigest() == FOLD_SHA256


NAMES = ("A", "B", "C", "D")
ACTIONS = ("m", "n", "w")


@st.composite
def fold_components(draw):
    """3-4 one-instance components of 1-3 states (1-2 for four) over m, n, w.

    Each component moves on a few of its own input, output and internal
    labels, so some actions are used only by a later component.
    """
    k = draw(st.integers(3, 4))
    components = []
    for name in NAMES[:k]:
        states = [f"{name.lower()}{i}" for i in range(draw(st.integers(1, 6 - k)))]
        labels = [Label(name, "t", name)]
        labels += [Label(None, a, name) for a in ACTIONS] + [Label(name, a, None) for a in ACTIONS]
        edge = st.tuples(st.sampled_from(states), st.sampled_from(labels), st.sampled_from(states))
        components.append(aut(name, (name,), states, draw(st.lists(edge, max_size=3))))
    return components


@pytest.mark.parametrize("closed", [False, True], ids=["open", "closed"])
@settings(max_examples=60, deadline=None, derandomize=True)
@given(components=fold_components())
def test_pairwise_fold_weakly_bisimilar_to_nary(closed, components):
    io = IoSets.closed() if closed else default_io_sets(components)
    folded = compose_pairwise_reduce(components, io)
    nary = reachable(compose(components, io))
    assert weak_bisim_oracle(folded, nary, max_states=60)
