import os
import subprocess
import sys
from pathlib import Path

import ciakit

from ciakit import Automaton, GenParams, Hierarchy, Label, compose, default_io_sets
from ciakit import generate_corpus, generate_primitive, reachable
from ciakit.generate import SplitMix64

sys.path.insert(0, str(Path(__file__).parent))


def python_output(code: str, **env: str) -> str:
    """Standard output of ``python -c code`` in a fresh interpreter on this ciakit."""
    src = str(Path(ciakit.__file__).resolve().parents[1])
    return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          check=True, env={**os.environ, "PYTHONPATH": src, **env}).stdout


def aut(name="A", hier=("A",), states=(), trans=(), init=(), actions=()):
    """Terse automaton builder: trans items are (state, (src, action, dst), state)."""
    hierarchy = hier if isinstance(hier, Hierarchy) else Hierarchy.leaf(*hier)
    transitions = [
        (src, Label(lab[0], lab[1], lab[2]), dst) if isinstance(lab, tuple) else (src, lab, dst)
        for (src, lab, dst) in trans
    ]
    return Automaton.make(
        name=name,
        states=states,
        transitions=transitions,
        initial=init or [sorted(states)[0]],
        hierarchy=hierarchy,
        actions=actions,
    )


def handshake_pair():
    """One input component and one matching output component."""
    a = aut("A", ("A",), ["a0", "a1"], [("a0", (None, "m", "A"), "a1")], ["a0"])
    b = aut("B", ("B",), ["b0", "b1"], [("b0", ("B", "m", None), "b1")], ["b0"])
    return a, b


def sender_receiver():
    """A sends x once; B receives it once, so B's second state needs a
    partner: a sync, or a solo input when x is in R."""
    sender = aut("A", ("A",), ["a0", "a1"], [("a0", ("A", "x", None), "a1")])
    receiver = aut("B", ("B",), ["b0", "b1"], [("b0", (None, "x", "B"), "b1")])
    return [sender, receiver]


def colliding_pair():
    """Two automata whose product states ``(a,b | c)`` and ``(a | b,c)`` share a token."""
    x = aut("X", ("A",), ["a,b", "a"], [("a", ("A", "m", None), "a,b")], ["a"])
    y = aut("Y", ("B",), ["c", "b,c"], [("c", (None, "m", "B"), "b,c")], ["c"])
    return x, y


def nested_document(levels: int) -> str:
    """A one-automaton document whose hierarchy nests ``levels`` deep: ``((…(A)…))``."""
    hierarchy = "(" * (levels - 1) + "(A)" + ")" * (levels - 1)
    return f"automaton A\nhierarchy {hierarchy}\nstates s0 s1\ninitial s0\ntrans s0 (A,m,-) s1\nend\n"


def random_automaton(seed: int, max_states: int = 12) -> Automaton:
    """Seeded random automaton with varied topology; sometimes a composite."""
    rng = SplitMix64(seed)
    params = GenParams(
        state_count_range=(2, max_states),
        target_beta=0.8 + 1.1 * rng.random(),
        alphabet_size=rng.randint(2, 4),
        kind_mix=(0.35, 0.35, 0.3) if rng.random() < 0.5 else (0.45, 0.45, 0.1),
        clique_bias=rng.random() * 0.9,
        pa_strength=rng.random() * 1.5,
        avoid_deadlocks=rng.random() < 0.5,
        seed=rng.next_u64(),
    )
    if rng.random() < 0.4 and max_states >= 4:
        pair_params = GenParams(
            state_count_range=(2, max(2, max_states // 3)),
            target_beta=params.target_beta,
            alphabet_size=params.alphabet_size,
            clique_bias=params.clique_bias,
            seed=rng.next_u64(),
        )
        first, second = generate_corpus(pair_params, 1)[0]
        composite = reachable(compose([first, second], default_io_sets([first, second])))
        if len(composite.states) <= max_states:
            return composite
    return generate_primitive(params)
