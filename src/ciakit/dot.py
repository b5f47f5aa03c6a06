"""Graphviz DOT rendering of automata."""

from __future__ import annotations

from .core import Automaton, LabelKind


def _quote(token: str) -> str:
    return '"' + token.replace("\\", "\\\\").replace('"', '\\"') + '"'


def export_dot(automaton: Automaton) -> str:
    """Deterministic DOT digraph: initial states doubly circled, internal
    (silent) edges dashed and grey."""
    lines = [f"digraph {_quote(automaton.name)} {{", "  rankdir=LR;", "  node [shape=circle];"]
    for state in automaton.sorted_states():
        shape = " [shape=doublecircle]" if state in automaton.initial else ""
        lines.append(f"  {_quote(state)}{shape};")
    for trans in automaton.sorted_transitions():
        style = ", style=dashed, color=gray40" if trans.label.kind is LabelKind.INTERNAL else ""
        lines.append(
            f"  {_quote(trans.source)} -> {_quote(trans.target)}"
            f" [label={_quote(trans.label.render())}{style}];"
        )
    lines.append("}")
    return "\n".join(lines) + "\n"
