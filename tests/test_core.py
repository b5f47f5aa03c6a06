import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ciakit import (
    Automaton,
    Hierarchy,
    Label,
    LabelKind,
    Transition,
    ValidationError,
    reachable,
)
from ciakit.core import Indexed
from conftest import aut, python_output


class TestLabel:
    def test_kinds(self):
        assert Label(None, "a", "A").kind is LabelKind.INPUT
        assert Label("A", "a", None).kind is LabelKind.OUTPUT
        assert Label("C620", "a6", "C915").kind is LabelKind.INTERNAL

    def test_two_absent_rejected(self):
        with pytest.raises(ValidationError, match="two absent annotations"):
            Label(None, "m", None)

    @pytest.mark.parametrize("bad", ["", "has space", "pa-ren", "a,b", "x(y"])
    def test_bad_tokens_rejected(self, bad):
        with pytest.raises(ValidationError):
            Label(bad, "a", "A")
        with pytest.raises(ValidationError):
            Label(None, bad, "A")

    def test_render(self):
        assert Label(None, "m", "A").render() == "(-,m,A)"
        assert Label("B", "m", None).render() == "(B,m,-)"
        assert str(Label("A", "t", "B")) == "(A,t,B)"

    def test_sort_key_absent_first(self):
        labels = [Label("B", "a", None), Label(None, "a", "B"), Label("A", "a", "B")]
        ordered = sorted(labels, key=Label.sort_key)
        assert ordered[0] == Label(None, "a", "B")
        assert ordered[1] == Label("A", "a", "B")

    def test_hash_is_over_strings(self):
        # the dataclass keeps the explicit __hash__ instead of hashing None
        assert hash(Label(None, "m", "A")) == hash(("", "m", "A"))
        assert hash(Label("B", "m", None)) == hash(("B", "m", ""))


class TestHierarchy:
    def test_leaf_names(self):
        two_level = Hierarchy.node(Hierarchy.leaf("A", "B"), Hierarchy.leaf("C"))
        assert two_level.leaf_names() == {"A", "B", "C"}
        assert not two_level.is_leaf

    def test_disjointness_enforced(self):
        with pytest.raises(ValidationError, match="not disjoint"):
            Hierarchy.node(Hierarchy.leaf("A", "B"), Hierarchy.leaf("B", "C"))

    def test_duplicate_leaf_name(self):
        with pytest.raises(ValidationError, match="duplicate component name"):
            Hierarchy.leaf("A", "A")

    def test_needs_content(self):
        with pytest.raises(ValidationError):
            Hierarchy()

    def test_children_must_be_hierarchies(self):
        with pytest.raises(ValidationError, match="hierarchy children must be hierarchies"):
            Hierarchy.node(Hierarchy.leaf("A"), "B")

    def test_render(self):
        assert Hierarchy.leaf("A", "B").render() == "(A B)"
        nested = Hierarchy.node(Hierarchy.leaf("A"), Hierarchy.leaf("B", "C"))
        assert nested.render() == "((A)(B C))"


class TestAutomaton:
    def test_minimal(self):
        a = aut(states=["s0", "s1"], trans=[("s0", (None, "m", "A"), "s1")])
        assert a.states == {"s0", "s1"}
        assert a.actions == {"m"}
        assert next(iter(a.transitions)).label.kind is LabelKind.INPUT

    def test_empty_initial_rejected(self):
        with pytest.raises(ValidationError, match="initial set is empty"):
            Automaton.make("A", ["s0"], [], [], Hierarchy.leaf("A"))

    def test_initial_must_be_state(self):
        with pytest.raises(ValidationError, match="not among states"):
            aut(states=["s0"], init=["zz"])

    def test_unknown_component_rejected(self):
        with pytest.raises(ValidationError, match="unknown component name"):
            aut(states=["s0", "s1"], trans=[("s0", (None, "m", "X"), "s1")])

    def test_equal_label_objects_each_checked(self):
        # each automaton checks its own label objects: an equal label accepted
        # elsewhere, or the very object, is still rejected under another hierarchy
        label = Label("Z", "m", None)
        aut("Z", ("Z",), ["s0", "s1"], [("s0", label, "s1")])
        message = r"^unknown component name 'Z' in label \(Z,m,-\)$"
        for other in (Label("Z", "m", None), label):
            trans = [("s0", Label("A", "m", None), "s1"), ("s1", other, "s0")]
            with pytest.raises(ValidationError, match=message):
                aut(states=["s0", "s1"], trans=trans)

    def test_transition_endpoints_checked(self):
        with pytest.raises(ValidationError, match="not among states"):
            aut(states=["s0"], trans=[("s0", (None, "m", "A"), "s9")])

    def test_undeclared_action_rejected(self):
        with pytest.raises(ValidationError, match="not declared"):
            Automaton(
                name="A",
                states=frozenset({"s0", "s1"}),
                actions=frozenset(),
                transitions=frozenset({Transition("s0", Label(None, "m", "A"), "s1")}),
                initial=frozenset({"s0"}),
                hierarchy=Hierarchy.leaf("A"),
            )

    @pytest.mark.parametrize(
        "field,value,message",
        [
            ("states", {"s0", "bad id"}, "invalid state id 'bad id'"),
            ("transitions", {("s9", Label(None, "m", "A"), "s0")},
             "transition source 's9' not among states"),
            ("transitions", {("s0", Label(None, "m", "A"), "s9")},
             "transition target 's9' not among states"),
            ("transitions", {("s0", "(-,m,A)", "s0")}, "transition label must be a Label"),
            ("hierarchy", None, "automaton requires a hierarchy"),
        ],
        ids=["state-id", "source", "target", "label-type", "no-hierarchy"],
    )
    def test_invalid_field_rejected(self, field, value, message):
        fields = dict(name="A", states={"s0"}, actions={"m"}, transitions=(),
                      initial={"s0"}, hierarchy=Hierarchy.leaf("A"))
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            Automaton(**{**fields, field: value})

    def test_extra_actions_kept(self):
        a = aut(states=["s0"], actions=["spare"])
        assert a.actions == {"spare"}

    def test_duplicate_transitions_collapse(self):
        t = ("s0", (None, "m", "A"), "s1")
        a = aut(states=["s0", "s1"], trans=[t, t])
        assert len(a.transitions) == 1


class TestReachable:
    def test_fixpoint_when_connected(self):
        a = aut(states=["s0", "s1"], trans=[("s0", (None, "m", "A"), "s1")])
        assert reachable(a) == a

    def test_single_state(self):
        a = aut(states=["s0"])
        r = reachable(a)
        assert r.states == {"s0"} and not r.transitions

    def test_prunes_unreachable(self):
        a = aut(
            states=["s0", "s1", "s2"],
            trans=[("s1", (None, "m", "A"), "s2"), ("s0", ("A", "m", None), "s0")],
            init=["s0"],
        )
        r = reachable(a)
        assert r.states == {"s0"}
        assert len(r.transitions) == 1
        assert r.initial == {"s0"}
        assert r.actions == a.actions

    def test_idempotent(self):
        a = aut(
            states=["s0", "s1", "s2"],
            trans=[("s0", (None, "m", "A"), "s1")],
            init=["s0"],
        )
        assert reachable(reachable(a)) == reachable(a)


@st.composite
def automata(draw):
    n = draw(st.integers(min_value=1, max_value=6))
    states = [f"s{i}" for i in range(n)]
    pool = ["A", "B"]
    actions = ["a", "b"]
    labels = [Label(None, act, c) for act in actions for c in pool]
    labels += [Label(c, act, None) for act in actions for c in pool]
    labels += [Label(c1, act, c2) for act in actions for c1 in pool for c2 in pool]
    k = draw(st.integers(min_value=0, max_value=10))
    trans = [
        Transition(draw(st.sampled_from(states)), draw(st.sampled_from(labels)),
                   draw(st.sampled_from(states)))
        for _ in range(k)
    ]
    init = draw(st.lists(st.sampled_from(states), min_size=1, max_size=n, unique=True))
    return Automaton.make("H", states, trans, init, Hierarchy.leaf(*pool))


@settings(max_examples=120, deadline=None)
@given(automata())
def test_reachable_properties(a):
    r = reachable(a)
    assert reachable(r) == r
    assert a.initial <= r.states
    assert r.transitions <= a.transitions
    assert r.states <= a.states
    # the indexed form: one source and one target column per label, which
    # read back exactly the transitions
    indexed, states = Indexed.of(a)
    assert len(indexed.sources) == len(indexed.targets) == len(indexed.labels)
    assert all(len(src) == len(dst) for src, dst in zip(indexed.sources, indexed.targets))
    assert {
        Transition(states[s], label, states[d])
        for label, src, dst in zip(indexed.labels, indexed.sources, indexed.targets)
        for s, d in zip(src, dst)
    } == a.transitions


NUMBERING_SCRIPT = """
import hashlib
from ciakit import GenParams, generate_corpus
from ciakit.product import _Product, default_io_sets
from ciakit.refine import refine_indexed
out = []
for a, b in generate_corpus(GenParams(state_count_range=(4, 7), seed=3), 3):
    indexed = _Product([a, b], default_io_sets([a, b])).reachable()[0]
    out.append(([l.render() for l in indexed.labels], indexed.sources, indexed.targets,
                refine_indexed(indexed)))
print(hashlib.sha256(repr(out).encode()).hexdigest())
"""


def test_internal_numbering_reproducible_across_processes():
    """Label ids, state numbers and raw block ids depend on PYTHONHASHSEED only."""
    runs = [python_output(NUMBERING_SCRIPT, PYTHONHASHSEED="0") for _ in range(2)]
    assert runs[0] == runs[1]


OUTPUTS_SCRIPT = """
import hashlib, tempfile
from ciakit import (GenParams, IoSets, compose_pairwise_reduce, default_io_sets,
                    generate_corpus, partition_refine, quotient, run_experiment,
                    serialize_automaton, write_corpus)
from ciakit.experiment import rows_to_csv
digest = hashlib.sha256()
corpus = generate_corpus(GenParams(state_count_range=(4, 9), seed=11), 4)
comps = [a for pair in corpus for a in pair]
with tempfile.TemporaryDirectory() as out:
    for path in write_corpus(corpus, out):
        digest.update(path.read_bytes())
    for io in ("open", "closed"):
        for strict in (False, True):
            rows = run_experiment(out, io, deterministic_timing=True, strict_internal=strict)
            digest.update(rows_to_csv(rows).encode())
for io in (default_io_sets(comps[:4]), IoSets.closed()):
    for strict in (False, True):
        folded = compose_pairwise_reduce(comps[:4], io, strict_internal=strict)
        digest.update(serialize_automaton(folded).encode())
for a in comps:
    digest.update(serialize_automaton(quotient(a, partition_refine(a, strict_internal=True))).encode())
print(digest.hexdigest())
"""


def test_outputs_independent_of_hash_seed():
    """Corpora, experiment CSVs, folds and quotients read the same under any
    PYTHONHASHSEED, although internal numbering follows it."""
    runs = {python_output(OUTPUTS_SCRIPT, PYTHONHASHSEED=seed) for seed in ("0", "12345")}
    assert len(runs) == 1
