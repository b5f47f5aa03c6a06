"""The product explorer: complete from every state, and seeded with the
initial states it gives reachable(compose).  The whole product: built when
every component reaches all its states alone, and equal to the explored one
up to numbering.  The product of cells: exactly the distinct cell images of
the whole and of the explored product's moves.  Whichever whole form is
refined, its tally is the internal count and the degrees the whole
product's edges give."""

import math
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ciakit import Automaton, Hierarchy, IoSets, Label, compose, default_io_sets, reachable
from ciakit.cells import condensed, refinable_product, silent_cells
from ciakit.metrics import degree_record, indexed_record, metrics_record
from ciakit.product import _LIST_SLOTS, _Product
from ciakit.refine import RefineStats, _silent_sccs, refine_indexed
from conftest import aut, sender_receiver
from oracles import compose_oracle

ACTIONS = ("a", "b")


@st.composite
def component(draw, index, cycle=False):
    """A small component on two instance names, with shared action names so
    components synchronize.  ``cycle`` adds an internal move from each state
    to the next, round the sorted states, so every state is reached alone."""
    names = (f"C{index}", f"D{index}")
    states = [f"s{i}" for i in range(draw(st.integers(min_value=1, max_value=4)))]
    labels = [Label(None, act, name) for act in ACTIONS for name in names]
    labels += [Label(name, act, None) for act in ACTIONS for name in names]
    labels += [Label(n1, act, n2) for act in ACTIONS for n1 in names for n2 in names]
    trans = draw(st.lists(
        st.tuples(st.sampled_from(states), st.sampled_from(labels), st.sampled_from(states)),
        max_size=8,
    ))
    if cycle:
        step = Label(names[0], "a", names[1])
        trans += [(s, step, t) for s, t in zip(states, states[1:] + states[:1])]
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
    indexed, codes = prod.explore()
    assert prod.automaton(indexed, list(map(prod.token, codes))) == expected
    assert indexed_record(prod.reachable()[0]) == metrics_record(expected)


@pytest.mark.parametrize("k", [2, 3, 4])
@settings(max_examples=25, derandomize=True, deadline=None)
@given(data=st.data(), closed=st.booleans(), every_state=st.booleans())
def test_explorer_emits_each_move_once(k, data, closed, every_state):
    """The edge lists are not deduplicated: neither the whole product (as
    ``compose`` builds it) nor ``explore`` may emit a move twice."""
    components = [data.draw(component(i)) for i in range(k)]
    io = IoSets.closed() if closed else default_io_sets(components)
    prod = _Product(components, io)
    indexed = prod.whole() if every_state else prod.explore()[0]
    assert len(indexed.sources) == len(indexed.targets) == len(indexed.labels)
    assert all(len(src) == len(dst) for src, dst in zip(indexed.sources, indexed.targets))
    moves = [
        (src, lid, dst)
        for lid, (sources, targets) in enumerate(zip(indexed.sources, indexed.targets))
        for src, dst in zip(sources, targets)
    ]
    assert len(moves) == len(set(moves))


def edge_sets(indexed, codes):
    """Per label, the set of edges as (source code, target code) pairs."""
    return [
        {(codes[s], codes[d]) for s, d in zip(src, dst)}
        for src, dst in zip(indexed.sources, indexed.targets)
    ]


@pytest.mark.parametrize("k", [2, 3, 4])
@settings(max_examples=30, derandomize=True, deadline=None)
@given(data=st.data(), closed=st.booleans(), cycle=st.booleans())
def test_whole_product_equals_explored_product(k, data, closed, cycle):
    """When every component reaches all its states alone, the whole product
    is the explored one renumbered by code; either way ``_Product.reachable``
    has the metrics of ``reachable(compose(...))``."""
    components = [data.draw(component(i, cycle)) for i in range(k)]
    io = IoSets.closed() if closed else default_io_sets(components)
    prod = _Product(components, io)
    expected = metrics_record(reachable(compose(components, io)))
    assert indexed_record(prod.reachable()[0]) == expected
    if cycle:
        assert prod.reaches_all()
    if not prod.reaches_all():
        return
    whole = prod.whole()
    explored, codes = prod.explore()
    assert whole.n == explored.n == prod.size
    assert edge_sets(whole, range(prod.size)) == edge_sets(explored, codes)
    assert indexed_record(whole) == indexed_record(explored) == expected


def edge_tally(indexed):
    """The internal transition count and each state's out- and in-degree,
    counted from the form's own edges."""
    deg_out, deg_in = [0] * indexed.n, [0] * indexed.n
    for src, dst in zip(indexed.sources, indexed.targets):
        for s, d in zip(src, dst):
            deg_out[s] += 1
            deg_in[d] += 1
    internal = sum(len(src) for src, silent in zip(indexed.sources, indexed.internal()) if silent)
    return internal, deg_out, deg_in


def listed_syncs(prod):
    """The whole product's sync edge lists as ``_Product.syncs`` lists them."""
    return ((src, dst) for _, src, dst in prod.syncs(range(prod.size)))


@pytest.mark.parametrize("k", [2, 3, 4])
@settings(max_examples=30, derandomize=True, deadline=None)
@given(data=st.data(), closed=st.booleans())
def test_tally_counts_the_whole_products_edges(k, data, closed):
    """For a whole product, ``_Product.tally`` is the internal count and the
    degrees of ``whole()``'s own edges, fed either the sync columns
    ``whole()`` built or the moves ``syncs`` lists.  ``refinable_product``'s
    record is that tally's, on whichever form it refines, the product itself
    or its cells' product; an explored product's is counted from its edges."""
    components = [data.draw(component(i, data.draw(st.booleans()))) for i in range(k)]
    io = IoSets.closed() if closed else default_io_sets(components)
    prod = _Product(components, io)
    form, record = refinable_product(components, io)
    if not prod.reaches_all():
        assert record == indexed_record(form)
        return
    cells = silent_cells(prod)
    assert form.n == (prod.size if cells is None else math.prod(max(c) + 1 for c in cells))
    whole = prod.whole()
    expected = edge_tally(whole)
    built = zip(whole.sources[prod.syncs_from :], whole.targets[prod.syncs_from :])
    assert prod.tally(built) == expected
    assert prod.tally(listed_syncs(prod)) == expected
    assert record == degree_record(*expected)


def scc_cells(components, names):
    """Each component's silent SCCs, as a cell number per local state, its
    states numbered by their place in ``names``."""
    cells = []
    for local, a in zip(names, components):
        index = {state: i for i, state in enumerate(local)}
        succs = [[] for _ in local]
        for source, label, target in a.transitions:
            if label.src is not None and label.dst is not None:
                succs[index[source]].append(index[target])
        cells.append(_silent_sccs(succs)[0])
    return cells


def partition_of(cell):
    return {frozenset(s for s, c in enumerate(cell) if c == d) for d in set(cell)}


@pytest.mark.parametrize("k", [2, 3])
@settings(max_examples=40, derandomize=True, deadline=None)
@given(data=st.data(), closed=st.booleans())
def test_cell_product_holds_the_distinct_cell_images(k, data, closed):
    """Condensing each component by its silent SCCs gives a product whose
    moves are exactly the distinct cell images of the whole product's moves,
    each once, internal self-loops included; ``_Product.tally`` gives the
    whole product's internal count and degrees without its edges;
    ``silent_cells`` returns the SCCs exactly when they halve the product.
    A component drawn with ``cycle`` is one cell.

    The cell product is a product of its own: explored from the cells of
    the initial states it reaches exactly the cell images of the reached
    states and moves, it reaches all its cells alone exactly when the
    product reaches all its states, its tally is its own edges', it has no
    silent cells left, and refining it explored gives the explored
    product's blocks, work units and silent SCCs in either semantics."""
    components = [data.draw(component(i, data.draw(st.booleans()))) for i in range(k)]
    io = IoSets.closed() if closed else default_io_sets(components)
    prod = _Product(components, io)
    cells = scc_cells(components, prod.names)
    counts = [max(cell) + 1 for cell in cells]
    found = silent_cells(prod)
    assert (found is None) == (2 * math.prod(counts) > prod.size)
    if found is not None:
        assert list(map(partition_of, found)) == list(map(partition_of, cells))
    whole = prod.whole()
    cell_prod = condensed(prod, cells)
    assert cell_prod.size == math.prod(counts)
    cell_form = cell_prod.whole()

    def image(code):
        return sum(
            cell[code // stride % len(names)] * to
            for cell, stride, names, to in zip(cells, prod.strides, prod.names, cell_prod.strides)
        )

    for src, dst, cell_src, cell_dst in zip(
        whole.sources, whole.targets, cell_form.sources, cell_form.targets
    ):
        moves = list(zip(cell_src, cell_dst))
        assert len(moves) == len(set(moves))
        assert set(moves) == {(image(s), image(d)) for s, d in zip(src, dst)}
    assert prod.tally(listed_syncs(prod)) == edge_tally(whole)

    explored, codes = prod.explore()
    cell_explored, cell_codes = cell_prod.explore()
    assert sorted(cell_codes) == sorted(set(map(image, codes)))
    cell_edges = edge_sets(cell_explored, cell_codes)
    assert sum(map(len, cell_explored.sources)) == sum(map(len, cell_edges))
    assert cell_edges == [
        {(image(s), image(d)) for s, d in edges} for edges in edge_sets(explored, codes)
    ]
    assert cell_prod.reaches_all() == prod.reaches_all()
    assert cell_prod.tally(listed_syncs(cell_prod)) == edge_tally(cell_form)
    assert silent_cells(cell_prod) is None
    for strict in (False, True):
        stats, cell_stats = RefineStats(), RefineStats()
        blocks = refine_indexed(explored, strict_internal=strict, stats=stats)[1]
        cell_blocks = refine_indexed(cell_explored, strict_internal=strict, stats=cell_stats)[1]
        assert cell_blocks == blocks
        assert cell_stats.work_units() == stats.work_units()
        assert cell_stats.sccs == stats.sccs


@pytest.mark.parametrize("provided, states", [((), 2), (("x",), 3)],
                         ids=["closed", "input-outside-R"])
def test_a_state_reached_only_with_a_partner_takes_the_explorer(provided, states):
    """Closed io reaches a1 and b1 only by the sync; with x in P but not in R,
    b1 still needs the sync.  Either way the check fails and the explorer
    builds the reachable part, which matches reachable(compose(...))."""
    components = sender_receiver()
    io = IoSets(frozenset(provided), frozenset())
    prod = _Product(components, io)
    assert not prod.reaches_all()
    indexed, codes = prod.reachable()
    expected = reachable(compose(components, io))
    assert prod.automaton(indexed, list(map(prod.token, codes))) == expected
    assert len(expected.states) == states < prod.size
    assert indexed_record(indexed) == metrics_record(expected)


def scheduler(n):
    """Milner's scheduler: a ring of n cells.  Cell i, once started by c_i,
    does a_i, then b_i and starts cell i+1 in either order; cell 1 starts
    in R, the others wait in W."""
    cells = []
    for i in range(1, n + 1):
        me, nxt = f"C{i}", f"c{i % n + 1}"
        trans = [
            ("W", (None, f"c{i}", me), "R"),
            ("R", (me, f"a{i}", None), "X"),
            ("X", (me, f"b{i}", None), "Yb"),
            ("X", (me, nxt, None), "Yc"),
            ("Yb", (me, nxt, None), "W"),
            ("Yc", (me, f"b{i}", None), "W"),
        ]
        init = ["R"] if i == 1 else ["W"]
        cells.append(aut(f"S{i}", (me,), ["W", "R", "X", "Yb", "Yc"], trans, init))
    io = IoSets(frozenset(f"{x}{i}" for x in "ab" for i in range(1, n + 1)), frozenset())
    return cells, io


def test_explorer_memory_follows_the_reached_states():
    """Ten scheduler cells make 5^10 (about 9.8M) product states, of which
    3n * 2^(n-1) = 15,360 are reachable.  A cell reaches W only when started,
    so the explorer runs, and past ``_LIST_SLOTS`` it numbers only the
    states it meets: a slot per product state would take about 78 MB."""
    cells, io = scheduler(10)
    assert _Product(cells, io).size == 5**10 > _LIST_SLOTS
    tracemalloc.start()
    try:
        indexed = _Product(cells, io).reachable()[0]
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert indexed.n == 3 * 10 * 2**9
    assert peak < 20 * 2**20
