"""The product explorer: complete from every state, and seeded with the
initial states it gives reachable(compose)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ciakit import Automaton, Hierarchy, IoSets, Label, compose, default_io_sets, reachable
from ciakit.metrics import indexed_record, metrics_record
from ciakit.product import _Product, reachable_product
from oracles import compose_oracle

ACTIONS = ("a", "b")


@st.composite
def component(draw, index):
    """A small component on two instance names, with shared action names so
    components synchronize."""
    names = (f"C{index}", f"D{index}")
    states = [f"s{i}" for i in range(draw(st.integers(min_value=1, max_value=4)))]
    labels = [Label(None, act, name) for act in ACTIONS for name in names]
    labels += [Label(name, act, None) for act in ACTIONS for name in names]
    labels += [Label(n1, act, n2) for act in ACTIONS for n1 in names for n2 in names]
    trans = draw(st.lists(
        st.tuples(st.sampled_from(states), st.sampled_from(labels), st.sampled_from(states)),
        max_size=8,
    ))
    init = draw(st.lists(st.sampled_from(states), min_size=1, max_size=2, unique=True))
    return Automaton.make(f"X{index}", states, trans, init, Hierarchy.leaf(*names))


@pytest.mark.parametrize("k", [2, 3])
@settings(max_examples=25, derandomize=True, deadline=None)
@given(data=st.data(), closed=st.booleans())
def test_exploring_from_initial_states_equals_reachable_compose(k, data, closed):
    components = [data.draw(component(i)) for i in range(k)]
    io = IoSets.closed() if closed else default_io_sets(components)
    composite = compose(components, io)
    assert composite.transitions == compose_oracle(components, io)
    expected = reachable(composite)
    assert reachable(expected) == expected
    prod = _Product(components, io)
    indexed, codes = prod.explore(prod.initial_codes())
    assert prod.automaton(indexed, list(map(prod.token, codes))) == expected
    assert indexed_record(reachable_product(components, io)) == metrics_record(expected)


@pytest.mark.parametrize("k", [2, 3, 4])
@settings(max_examples=25, derandomize=True, deadline=None)
@given(data=st.data(), closed=st.booleans(), every_state=st.booleans())
def test_explorer_emits_each_move_once(k, data, closed, every_state):
    """The edge lists are not deduplicated: ``explore`` must never emit a
    move twice, seeded from every state (as ``compose``) or from the initial
    states."""
    components = [data.draw(component(i)) for i in range(k)]
    io = IoSets.closed() if closed else default_io_sets(components)
    prod = _Product(components, io)
    indexed, _ = prod.explore(range(prod.size) if every_state else prod.initial_codes())
    moves = [
        (src, lid, dst)
        for lid, flat in enumerate(indexed.edges)
        for src, dst in zip(flat[::2], flat[1::2])
    ]
    assert len(moves) == len(set(moves))
