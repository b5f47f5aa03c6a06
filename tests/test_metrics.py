import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ciakit import (
    GenParams,
    Label,
    generate_primitive,
    gini,
    metrics_record,
    partition_refine,
    quotient,
)
from conftest import aut
from oracles import beta_oracle, gini_oracle


def full_graph(n_states, n_transitions):
    """Automaton with the requested state/transition counts (internal labels)."""
    states = [f"s{i}" for i in range(n_states)]
    trans = []
    count = 0
    for i in range(n_states):
        for j in range(n_states):
            for k in range(n_states):
                if count == n_transitions:
                    break
                trans.append((states[i], Label("A", f"x{k}", "A"), states[j]))
                count += 1
    assert count == n_transitions
    return aut(states=states, trans=trans, init=[states[0]])


class TestBeta:
    def test_maximum_at_square(self):
        assert metrics_record(full_graph(4, 16)).beta == 2.0

    def test_equal_logs(self):
        assert metrics_record(full_graph(2, 2)).beta == 1.0

    def test_high_precision_value(self):
        # ln(23)/ln(10), frozen from a 50-digit evaluation
        actual = metrics_record(full_graph(10, 23)).beta
        assert actual == pytest.approx(1.3617278360175929, abs=1e-9)

    def test_undefined_cases(self):
        assert metrics_record(aut(states=["s0"])).beta is None
        assert metrics_record(aut(states=["s0", "s1"])).beta is None

    def test_single_transition_gives_zero(self):
        assert metrics_record(full_graph(2, 1)).beta == 0.0

    def test_sparse_extreme(self):
        for n in (3, 5, 9):
            a = full_graph(n, n - 1)
            assert metrics_record(a).beta == pytest.approx(math.log(n - 1) / math.log(n), abs=1e-12)


class TestGini:
    def test_perfect_equality(self):
        assert gini([5, 5, 5, 5]) == 0.0

    def test_concentrated(self):
        assert gini([0, 0, 0, 8]) == pytest.approx(0.75)

    def test_ramp(self):
        assert gini([1, 2, 3, 4]) == pytest.approx(0.25)

    def test_negative_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            gini([1, -1])

    def test_undefined(self):
        assert gini([]) is None
        assert gini([0, 0, 0]) is None

    def test_matches_exact_oracle(self):
        cases = [[1, 1, 2], [3, 0, 0, 7, 7], [10], [2, 4, 8, 16, 32, 64]]
        for xs in cases:
            assert gini(xs) == pytest.approx(float(gini_oracle(xs)), abs=1e-12)

    @pytest.mark.parametrize("draw", [
        lambda rng: rng.randrange(50),
        lambda rng: rng.random() * 100.0,
    ], ids=["int", "float"])
    def test_bit_identical_to_enumerated_sum(self, draw):
        # the rank-weighted sum as first written; the same products added in
        # the same order give the same float, bit for bit
        def enumerated(values):
            n = len(values)
            ordered = sorted(values)
            acc = sum((2 * i - n - 1) * x for i, x in enumerate(ordered, start=1))
            return acc / (n * sum(values))

        rng = random.Random(17)
        for _ in range(500):
            xs = [draw(rng) for _ in range(rng.randint(1, 40))]
            if sum(xs):
                assert gini(xs).hex() == enumerated(xs).hex()


@settings(max_examples=150, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=50), min_size=1, max_size=20))
def test_gini_invariants(xs):
    g = gini(xs)
    if g is None:
        assert sum(xs) == 0
        return
    n = len(xs)
    assert 0.0 <= g <= (n - 1) / n + 1e-12
    assert gini([3 * x for x in xs]) == pytest.approx(g)  # scale invariance
    assert gini(list(reversed(xs))) == pytest.approx(g)  # permutation invariance
    assert g == pytest.approx(float(gini_oracle(xs)), abs=1e-12)


class TestDegreeGinis:
    def test_star_out_degrees(self):
        center = "s0"
        leaves = [f"s{i}" for i in range(1, 5)]
        a = aut(
            states=[center] + leaves,
            trans=[(center, ("A", f"m{i}", None), leaf) for i, leaf in enumerate(leaves)],
            init=[center],
        )
        assert metrics_record(a).gini_out == pytest.approx(0.8)  # degrees [0,0,0,0,4]

    def test_uniform_cycle(self):
        states = [f"s{i}" for i in range(5)]
        a = aut(
            states=states,
            trans=[(states[i], (None, "m", "A"), states[(i + 1) % 5]) for i in range(5)],
            init=[states[0]],
        )
        assert metrics_record(a).gini_in == 0.0
        assert metrics_record(a).gini_out == 0.0

    def test_degree_sums_equal_transition_count(self):
        for seed in range(10):
            a = generate_primitive(GenParams(state_count_range=(3, 10), seed=seed))
            in_deg = {s: 0 for s in a.states}
            out_deg = {s: 0 for s in a.states}
            for t in a.transitions:
                in_deg[t.target] += 1
                out_deg[t.source] += 1
            assert sum(in_deg.values()) == len(a.transitions)
            assert sum(out_deg.values()) == len(a.transitions)

    def test_clique_collapse_concentrates_out_degrees(self):
        # a silent clique with visible spokes: collapsing it into one hub
        # must not decrease the out-degree concentration
        for clique_size in (3, 4, 5, 6):
            for spokes in (1, 2, 3):
                members = [f"c{i}" for i in range(clique_size)]
                leaves = []
                trans = []
                for i, member in enumerate(members):
                    trans.append((member, ("A", "t", "A"), members[(i + 1) % clique_size]))
                    for s in range(spokes):
                        leaf = f"l{i}_{s}"
                        leaves.append(leaf)
                        trans.append((member, ("A", f"sp{i}_{s}", None), leaf))
                        trans.append((leaf, ("A", f"u{i}_{s}", None), leaf))
                a = aut(states=members + leaves, trans=trans, init=[members[0]])
                reduced = quotient(a, partition_refine(a))
                assert len(reduced.states) == len(leaves) + 1
                assert metrics_record(reduced).gini_out >= metrics_record(a).gini_out - 1e-12

    def test_five_state_clique_fragment_value(self):
        # out-degrees [0]*10 + [3]*5 evaluate to 2/3 under the formula
        assert gini([0] * 10 + [3] * 5) == pytest.approx(2 / 3)


class TestMetricsRecord:
    def test_degenerate(self):
        record = metrics_record(aut(states=["s0"]))
        assert record.beta is None
        assert record.gini_in is None
        assert record.gini_out is None
        assert record.states == 1 and record.transitions == 0

    def test_two_state_input(self):
        a = aut(states=["s0", "s1"], trans=[("s0", (None, "m", "A"), "s1")])
        record = metrics_record(a)
        assert record == metrics_record(a)
        assert (record.states, record.transitions, record.internal_transitions) == (2, 1, 0)
        assert record.beta == 0.0

    def test_silent_chain_counts_internal(self):
        a = aut(
            states=["s0", "s1", "s2"],
            trans=[("s0", ("A", "t", "A"), "s1"), ("s1", ("A", "t", "A"), "s2")],
        )
        assert metrics_record(a).internal_transitions == 2


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=2, max_value=12), st.data())
def test_beta_matches_oracle(n, data):
    m = data.draw(st.integers(min_value=1, max_value=n * n))
    assert metrics_record(full_graph(n, m)).beta == pytest.approx(beta_oracle(n, m), abs=1e-9)
