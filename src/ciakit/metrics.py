"""Structural graph metrics of an automaton.

``metrics_record`` is the entry point: one call gives the state, transition
and internal-transition counts and the three summary metrics of the
underlying directed graph.  The scaling exponent
``beta = ln(|transitions|) / ln(|states|)`` relates graph size to edge count;
for a fixed state count it ranges from ``ln(|Q|-1)/ln(|Q|)`` (spanning-tree
sparse) up to 2 (complete, |Q|^2 transitions).  The Gini coefficients of the
in- and out-degree sequences (``gini``) measure how unequally transitions
concentrate on states.  Degrees count every transition, internal ones
included.  Metrics that are undefined on a degenerate input are reported as
``None`` (serialized ``NA``), never as a sentinel number.
"""

from __future__ import annotations

import math
import operator
from itertools import chain, repeat
from typing import NamedTuple, Sequence

from .core import Automaton, Indexed


def gini(values: Sequence[float]) -> float | None:
    """Gini coefficient of a non-negative population, None when the sum is 0.

    With values x_1 <= ... <= x_n the coefficient is
    ``sum((2i - n - 1) * x_i) / (n * sum(x_i))``; 0 means perfect equality.
    Note the formula's attainable maximum is (n-1)/n, not 1.
    """
    if any(map(operator.lt, values, repeat(0))):
        raise ValueError("gini requires non-negative values")
    n = len(values)
    total = sum(values)
    if n == 0 or total == 0:
        return None
    ordered = sorted(values)
    # weights 2i - n - 1 for i = 1..n, multiplied and summed in order
    acc = sum(map(operator.mul, range(1 - n, n, 2), ordered))
    return acc / (n * total)


class MetricsRecord(NamedTuple):
    states: int
    transitions: int
    internal_transitions: int
    beta: float | None
    gini_in: float | None
    gini_out: float | None


def metrics_record(automaton: Automaton) -> MetricsRecord:
    """All structural metrics of one automaton in a single record."""
    return indexed_record(Indexed.of(automaton)[0])


def indexed_record(indexed: Indexed) -> MetricsRecord:
    """``metrics_record`` of an indexed automaton, its degrees counted per edge."""
    n, sources = indexed.n, indexed.sources
    internal = sum(len(src) for src, silent in zip(sources, indexed.internal()) if silent)
    deg_out, deg_in = [0] * n, [0] * n
    for src in chain.from_iterable(sources):
        deg_out[src] += 1
    for dst in chain.from_iterable(indexed.targets):
        deg_in[dst] += 1
    return degree_record(internal, deg_out, deg_in)


def degree_record(internal: int, deg_out: list[int], deg_in: list[int]) -> MetricsRecord:
    """``metrics_record`` of a graph given by its internal transition count
    and its states' out- and in-degrees; the out-degrees sum to its
    transition count."""
    n, m = len(deg_out), sum(deg_out)
    return MetricsRecord(
        states=n,
        transitions=m,
        internal_transitions=internal,
        beta=math.log(m) / math.log(n) if n > 1 and m else None,
        gini_in=gini(deg_in),
        gini_out=gini(deg_out),
    )
