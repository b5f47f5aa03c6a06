"""The form of a pair's product that the experiment pipeline refines.

``refinable_product`` picks one of three forms, each with the metrics of
the reachable product (``metrics.MetricsRecord``), by this rule:

* explored -- when some component does not reach all its local states from
  its initial ones by its own allowed solo moves (``_Product.reaches_all``),
  ``_Product.explore`` numbers the states reached from the initial ones.
  The metrics are counted from its edges (``metrics.indexed_record``).
* cell product -- otherwise the product is whole; when its components'
  cells at least halve its states (``silent_cells``), the form is the whole
  product of the cells (``condensed``).  The metrics are the whole
  product's, summed from the move tables by ``_Product.tally`` over
  ``_Product.syncs``, so none of the product's edges is built.
* whole state product -- otherwise ``_Product.whole``.  The metrics are
  ``_Product.tally`` over the sync columns it built.

Refinement gives the reachable product's blocks, work units and silent SCC
count on every form; the one counter that differs is
``RefineStats.largest_scc``, which counts cells on the cell product
(``run_pair`` does not read it).

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
numbering, so ``refine_indexed`` gives it the product's counts, and a block
of it, constant on a cell, keeps the product's internal transitions.
"""

from __future__ import annotations

from copy import copy
from typing import Sequence

from .core import Automaton, Indexed
from .metrics import MetricsRecord, degree_record, indexed_record
from .product import IoSets, _Product
from .refine import _silent_sccs


def refinable_product(
    components: Sequence[Automaton], io: IoSets
) -> tuple[Indexed, MetricsRecord]:
    """The form to refine, whose weak-bisimulation classes are the
    reachable product's, and the reachable product's metrics, by the rule
    of the module docstring."""
    prod = _Product(components, io)
    if not prod.reaches_all():
        form = prod.explore()[0]
        return form, indexed_record(form)
    cells = silent_cells(prod)
    if cells is not None:
        syncs = ((sent, received) for _, sent, received in prod.syncs(range(prod.size)))
        return condensed(prod, cells).whole(), degree_record(*prod.tally(syncs))
    whole = prod.whole()
    syncs = zip(whole.sources[prod.syncs_from :], whole.targets[prod.syncs_from :])
    return whole, degree_record(*prod.tally(syncs))


def silent_cells(prod: _Product) -> list[Sequence[int]] | None:
    """Each component's cells, as a cell number per local state, when the
    product of the cell counts is at most half the product's states; else
    None.  A component with fewer than two internal moves has no silent
    cycle: each state is its own cell."""
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
    halves are the distinct images of its states' (solo moves and receiving
    halves as the keys of the dicts that merged them).  Labels and their ids
    are shared.  The result is a product of its own: its initial states are
    the cells of the initial states, and cell ``c`` is named ``str(c)``."""
    cp = copy(prod)
    cp._number([list(map(str, range(max(cell) + 1))) for cell in cells])
    cp.solo, cp.sends, cp.receives, cp.internal, cp.initial = [], [], [], [], []
    silent = [None not in (label.src, label.dst) for label in prod.labels[: prod.syncs_from]]
    for i, (cell, stride) in enumerate(zip(cells, prod.strides)):
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
        cp.solo.append(solo)
        cp.sends.append([
            {action: [(row, d) for (_, d), row in halves.items()]
             for action, halves in outputs.items()}
            for outputs in sends
        ])
        cp.receives.append(receives)
        cp.internal.append([
            (c, delta) for c, moves in enumerate(solo) for lid, delta in moves if silent[lid]
        ])
        cp.initial.append(sorted({cell[s] for s in prod.initial[i]}))
    return cp
