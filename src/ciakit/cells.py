"""Refining a whole product on its components' silent cells.

A component's cells are its silent SCCs: the classes of its states that
reach each other by its own internal moves.  In a product those moves are
never gated, so a combination of cells, one per component, lies inside one
silent SCC of the product, and all its states are weakly bisimilar.

``condensed`` merges each component's cells into single local states, each
keeping the distinct images of its states' moves, internal self-loops
included (``strict_internal`` matching needs them, so ``refine.quotient``,
which drops them, cannot build this).  The whole product of the cells then
holds exactly the distinct cell images of the whole product's moves.  Its
silent SCC DAG, saturated rows and signature rounds are the product's up to
numbering, so ``refine_indexed`` gives it the product's block count, work
units and SCC count, and a block of it, constant on a cell, keeps the
product's internal transitions.  Only ``RefineStats.largest_scc`` counts
cells instead of states.

``refinable_product`` takes this path when the product is whole and the
cells at least halve its states; ``tally`` then gives the product's metrics
from the move tables, so none of its edges is built.
"""

from __future__ import annotations

import math
from copy import copy
from itertools import permutations
from typing import Sequence

from .core import Automaton, Indexed
from .product import IoSets, _Product
from .refine import _silent_sccs


def refinable_product(
    components: Sequence[Automaton], io: IoSets
) -> tuple[Indexed, tuple[int, list[int], list[int]] | None]:
    """A form whose weak-bisimulation classes are the reachable product's,
    and, when the product is whole, its ``tally`` (else None).

    When the product is whole and its components' cells at least halve its
    states, the form is the whole product of the cells.  Otherwise it is
    ``product.reachable_product``'s form; a whole one's tally adds one count
    per sync edge to ``_Product.solo_tally``.
    """
    prod = _Product(components, io)
    if not prod.reaches_all():
        return prod.explore()[0], None
    cells = silent_cells(prod)
    if cells is not None:
        return condensed(prod, cells).whole(), tally(prod)
    whole = prod.whole()
    internal, deg_out, deg_in = prod.solo_tally()
    for lid in range(prod.syncs_from, len(prod.labels)):  # every sync label is internal
        internal += len(whole.sources[lid])
        for code in whole.sources[lid]:
            deg_out[code] += 1
        for code in whole.targets[lid]:
            deg_in[code] += 1
    return whole, (internal, deg_out, deg_in)


def silent_cells(prod: _Product) -> list[Sequence[int]] | None:
    """Each component's cells, as a cell number per local state, when the
    product of the cell counts is at most half the product's states; else
    None.

    A silent SCC of ``k > 1`` states holds at least ``k`` internal moves,
    so a component's ``m`` internal moves merge at most ``m - 1`` of its
    states away; no SCC is computed when these bounds rule halving out.  A
    component with fewer than two internal moves has no silent cycle: each
    state is its own cell."""
    least = math.prod(
        max(1, len(names) - max(len(internal) - 1, 0))
        for names, internal in zip(prod.names, prod.internal)
    )
    if 2 * least > prod.size:
        return None
    cells: list[Sequence[int]] = []
    count = 1
    for names, stride, internal in zip(prod.names, prod.strides, prod.internal):
        cell: Sequence[int] = range(len(names))
        if len(internal) > 1:
            succs: list[list[int]] = [[] for _ in names]
            for s, delta in internal:
                succs[s].append(s + delta // stride)
            cell = _silent_sccs(succs)[0]
        cells.append(cell)
        count *= max(cell) + 1
    return cells if 2 * count <= prod.size else None


def condensed(prod: _Product, cells: list[Sequence[int]]) -> _Product:
    """``prod`` with component ``i``'s local state ``s`` merged into cell
    ``cells[i][s]``: a cell's solo moves, sending halves and receiving
    halves are the distinct images of its states'.  Labels and their ids are
    shared."""
    cp = copy(prod)
    cp._number([range(max(cell) + 1) for cell in cells])
    cp.solo, cp.sends, cp.receives = [], [], []
    for i, cell in enumerate(cells):
        stride = prod.strides[i]
        image = [c * cp.strides[i] for c in cell]  # each state's cell, times its stride
        solo: list[dict] = [{} for _ in cp.names[i]]
        sends: list[dict[str, dict]] = [{} for _ in cp.names[i]]
        receives: list[dict[str, dict]] = [{} for _ in cp.names[i]]
        for s, c in enumerate(cell):
            at = image[s]
            for lid, delta in prod.solo[i][s]:
                solo[c][lid, image[s + delta // stride] - at] = None
            for action, halves in prod.sends[i][s].items():
                merged = sends[c].setdefault(action, {})
                for row, delta in halves:  # a row is one sender annotation's
                    merged[id(row), image[s + delta // stride] - at] = row
            for action, halves in prod.receives[i][s].items():
                merged = receives[c].setdefault(action, {})
                for n2, delta in halves:
                    merged[n2, image[s + delta // stride] - at] = None
        cp.solo.append([list(moves) for moves in solo])
        cp.sends.append([
            {action: [(row, d) for (_, d), row in halves.items()]
             for action, halves in outputs.items()}
            for outputs in sends
        ])
        cp.receives.append([
            {action: list(halves) for action, halves in inputs.items()} for inputs in receives
        ])
    return cp


def tally(prod: _Product) -> tuple[int, list[int], list[int]]:
    """The whole product's internal transition count and each state's out-
    and in-degree, with no edge built: ``_Product.solo_tally``, and each
    sync move counted at the source and target codes ``whole`` would emit
    it between."""
    internal, deg_out, deg_in = prod.solo_tally()
    for i1, i2 in permutations(range(len(prod.names)), 2):
        spread = prod._spread(range(prod.size), {i1, i2})
        stride1, heard = prod.strides[i1], prod.heard(i2)
        for s1, outputs in enumerate(prod.sends[i1]):
            for action, halves in outputs.items():
                for at, to in heard.get(action, {}).values():
                    sent = spread(map((s1 * stride1).__add__, at))
                    internal += len(sent) * len(halves)
                    for code in sent:
                        deg_out[code] += len(halves)
                    for _, delta in halves:
                        for code in spread(map((s1 * stride1 + delta).__add__, to)):
                            deg_in[code] += 1
    return internal, deg_out, deg_in
