"""Structural graph metrics of an automaton.

Two summary metrics of the underlying directed graph drive the analysis: the
scaling exponent ``beta = ln(|transitions|) / ln(|states|)`` relating graph
size to edge count, and Gini coefficients of the in-/out-degree sequences
measuring how unequally transitions concentrate on states.  Degrees count
every transition, internal ones included.  Metrics that are undefined on a
degenerate input are reported as ``None`` (serialized ``NA``), never as a
sentinel number.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .core import Automaton, Indexed

__all__ = ["MetricsRecord", "beta", "gini", "gini_in", "gini_out", "metrics_record"]


def beta(automaton: Automaton) -> float | None:
    """Scaling exponent ln|transitions|/ln|states|; None if either log degenerates.

    For a fixed state count the exponent ranges from
    ``ln(|Q|-1)/ln(|Q|)`` (spanning-tree sparse) up to 2 (complete, |Q|^2
    transitions).
    """
    return _beta(len(automaton.states), len(automaton.transitions))


def _beta(n: int, m: int) -> float | None:
    if n <= 1 or m == 0:
        return None
    return math.log(m) / math.log(n)


def gini(values: Sequence[float]) -> float | None:
    """Gini coefficient of a non-negative population, None when the sum is 0.

    With values x_1 <= ... <= x_n the coefficient is
    ``sum((2i - n - 1) * x_i) / (n * sum(x_i))``; 0 means perfect equality.
    Note the formula's attainable maximum is (n-1)/n, not 1.
    """
    if any(v < 0 for v in values):
        raise ValueError("gini requires non-negative values")
    n = len(values)
    total = sum(values)
    if n == 0 or total == 0:
        return None
    ordered = sorted(values)
    acc = sum((2 * i - n - 1) * x for i, x in enumerate(ordered, start=1))
    return acc / (n * total)


def _degrees(indexed: Indexed) -> tuple[list[int], list[int]]:
    """In- and out-degree of every state."""
    deg_in = [0] * indexed.n
    deg_out = [0] * indexed.n
    for src, _, dst in indexed.triples:
        deg_out[src] += 1
        deg_in[dst] += 1
    return deg_in, deg_out


def gini_in(automaton: Automaton) -> float | None:
    """Gini coefficient of the per-state in-degree sequence."""
    return gini(_degrees(Indexed.of(automaton)[0])[0])


def gini_out(automaton: Automaton) -> float | None:
    """Gini coefficient of the per-state out-degree sequence."""
    return gini(_degrees(Indexed.of(automaton)[0])[1])


@dataclass(frozen=True)
class MetricsRecord:
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
    """``metrics_record`` of an indexed automaton."""
    internal = indexed.internal()
    deg_in, deg_out = _degrees(indexed)
    return MetricsRecord(
        states=indexed.n,
        transitions=len(indexed.triples),
        internal_transitions=sum(internal[lid] for _, lid, _ in indexed.triples),
        beta=_beta(indexed.n, len(indexed.triples)),
        gini_in=gini(deg_in),
        gini_out=gini(deg_out),
    )
