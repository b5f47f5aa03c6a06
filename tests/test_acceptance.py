"""Acceptance gate: formula-level exactness, oracle equivalence, and
directional replication of the refinement-outcome analyses.

Each criterion prints one PASS/FAIL line (run with ``pytest -s`` to see them
all).  Headline statistics of the original corpus are not reproducible at
this scale; the directional criteria assert signs and significance, not the
published magnitudes.
"""

import statistics
import time
from contextlib import contextmanager

import pytest

from ciakit import (
    GenParams,
    IoSets,
    Label,
    LabelKind,
    SeparationError,
    compose,
    default_io_sets,
    export_dot,
    fit_logistic,
    generate_corpus,
    gini,
    metrics_record,
    partition_refine,
    quotient,
    reachable,
    run_experiment,
    run_pair,
    threshold_x,
    weak_bisim_relation,
    write_corpus,
)
from ciakit.experiment import rows_to_csv
from ciakit.generate import SplitMix64
from ciakit.regress import lr_p_value
from conftest import aut, random_automaton
from oracles import (
    beta_oracle,
    compose_oracle,
    gini_oracle,
    logistic_grid_oracle,
    weak_bisim_oracle,
)

import numpy as np


@contextmanager
def criterion(number, description):
    try:
        yield
    except BaseException:
        print(f"[criterion {number}] FAIL - {description}")
        raise
    print(f"[criterion {number}] PASS - {description}")


# --- shared corpora -------------------------------------------------------


@pytest.fixture(scope="module")
def refined_sample():
    """200 seeded automata (<= 12 states) with their quotients; timed."""
    started = time.monotonic()
    sample = []
    for seed in range(200):
        automaton = random_automaton(seed, max_states=12)
        reduced = quotient(automaton, partition_refine(automaton))
        sound = weak_bisim_oracle(automaton, reduced)
        sample.append((automaton, reduced, sound))
    return sample, time.monotonic() - started


@pytest.fixture(scope="module")
def structure_corpus():
    """>= 500 composed-and-refined pairs, clique_bias varied across the corpus."""
    started = time.monotonic()
    master = SplitMix64(613)
    rows = []
    clique_levels = (0.0, 0.0, 0.1, 0.2, 0.4)
    for i in range(500):
        params = GenParams(
            state_count_range=(5, 12),
            target_beta=1.0 + 0.7 * master.random(),
            clique_bias=clique_levels[i % len(clique_levels)],
            alphabet_size=10,
            kind_mix=(0.5, 0.5, 0.0),
            avoid_deadlocks=True,
            seed=master.next_u64(),
        )
        first, second = generate_corpus(params, 1)[0]
        rows.append(run_pair(f"p{i:04d}", first, second))
    return rows, time.monotonic() - started


def test_criterion_1_oracle_soundness(refined_sample):
    sample, elapsed = refined_sample
    with criterion(1, "quotient weakly bisimilar to input on 200 automata"):
        failures = [i for i, (_, _, sound) in enumerate(sample) if not sound]
        assert not failures, f"oracle rejected quotients for seeds {failures}"
        assert elapsed < 60.0, f"soundness sweep took {elapsed:.1f}s"


def test_criterion_2_minimality(refined_sample):
    sample, _ = refined_sample
    with criterion(2, "no two distinct quotient blocks weakly bisimilar"):
        for i, (_, reduced, _) in enumerate(sample):
            relation = weak_bisim_relation(reduced)
            merged = [(x, y) for (x, y) in relation if x != y]
            assert not merged, f"seed {i}: quotient states still bisimilar: {merged}"


def test_criterion_3_composition_equivalence():
    with criterion(3, "compose matches brute-force enumeration on 100 pairs"):
        master = SplitMix64(31)
        for i in range(100):
            params = GenParams(
                state_count_range=(2, 4),
                alphabet_size=3,
                seed=master.next_u64(),
            )
            first, second = generate_corpus(params, 1)[0]
            for io in (IoSets.closed(), default_io_sets([first, second])):
                composed = compose([first, second], io)
                assert composed.transitions == compose_oracle([first, second], io), (
                    f"pair {i} deviates from the enumeration oracle"
                )


def full_graph(n_states, n_transitions):
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
    return aut(states=states, trans=trans, init=[states[0]])


def test_criterion_4_metric_exactness():
    with criterion(4, "beta and gini match high-precision oracles on 1000 inputs"):
        rng = SplitMix64(47)
        for _ in range(1000):
            n = rng.randint(2, 20)
            m = rng.randint(1, n * n)
            actual = metrics_record(full_graph(n, m)).beta
            assert actual == pytest.approx(beta_oracle(n, m), abs=1e-9)
        for _ in range(1000):
            size = rng.randint(1, 25)
            values = [rng.randint(0, 40) / 4.0 for _ in range(size)]
            expected = gini_oracle(values)
            actual = gini(values)
            if expected is None:
                assert actual is None
            else:
                assert actual == pytest.approx(float(expected), abs=1e-9)
        assert metrics_record(full_graph(4, 16)).beta == 2.0
        assert gini([7, 7, 7, 7]) == 0.0


def test_criterion_5_regression_correctness():
    with criterion(5, "logistic MLE recovery, oracle agreement, tail probability"):
        rng = np.random.default_rng(12345)
        xs = rng.uniform(0, 10, size=2000)
        probs = 1.0 / (1.0 + np.exp(-(-2.0 + 0.5 * xs)))
        ys = (rng.uniform(size=2000) < probs).astype(int)
        fit = fit_logistic(xs.tolist(), ys.tolist())
        assert fit.converged
        assert abs(fit.a - (-2.0)) <= 3 * fit.se_a
        assert abs(fit.b - 0.5) <= 3 * fit.se_b
        oracle_a, oracle_b = logistic_grid_oracle(xs.tolist(), ys.tolist())
        assert abs(fit.a - oracle_a) <= 1e-3
        assert abs(fit.b - oracle_b) <= 1e-3
        assert lr_p_value(3.841) == pytest.approx(0.0500, abs=0.0005)
        separated_x = [i / 100 for i in range(1000)]
        separated_y = [1 if x > 5 else 0 for x in separated_x]
        with pytest.raises(SeparationError):
            fit_logistic(separated_x, separated_y)


def test_criterion_6_beta_predicts_success(structure_corpus):
    with criterion(6, "mean beta of successes below failures; b < 0 at p < 0.05"):
        corpus_rows, build_time = structure_corpus
        started = time.monotonic()
        rows = [r for r in corpus_rows if r.status == "ok" and r.beta is not None]
        assert len(rows) >= 500
        success_betas = [r.beta for r in rows if r.success]
        failure_betas = [r.beta for r in rows if not r.success]
        assert success_betas and failure_betas
        mu_success = statistics.fmean(success_betas)
        mu_failure = statistics.fmean(failure_betas)
        print(
            f"  successes={len(success_betas)} failures={len(failure_betas)} "
            f"mu1={mu_success:.3f} mu0={mu_failure:.3f}"
        )
        assert mu_success < mu_failure
        fit = fit_logistic([r.beta for r in rows], [r.success for r in rows])
        print(f"  beta->success: b={fit.b:.3f} chi2={fit.chi2:.2f} p={fit.p_value:.2e}")
        assert fit.b < 0
        assert fit.p_value < 0.05
        betas = [r.beta for r in rows]
        print(
            f"  threshold_x@0.5 = {threshold_x(fit, 0.5):.3f} "
            f"(reported; corpus beta range {min(betas):.2f}..{max(betas):.2f})"
        )
        assert build_time + (time.monotonic() - started) < 600.0


def test_criterion_7_size_predicts_running_time(structure_corpus):
    with criterion(7, "composite size predicts refinement time; b > 0 at p < 0.05"):
        master = SplitMix64(7211)
        rows = []
        for i in range(70):
            side_a = master.randint(4, 24)
            side_b = master.randint(4, 24)
            params = GenParams(
                state_count_range=(min(side_a, side_b), max(side_a, side_b)),
                target_beta=1.36,
                clique_bias=0.2,
                alphabet_size=6,
                seed=master.next_u64(),
            )
            first, second = generate_corpus(params, 1)[0]
            rows.append(run_pair(f"s{i:03d}", first, second))
        sizes = [float(r.states) for r in rows]
        assert max(sizes) >= 400, f"corpus tops out at {max(sizes)} states"
        elapsed = [r.elapsed_ms for r in rows]
        threshold = statistics.median(elapsed)
        ys = [1 if ms > threshold else 0 for ms in elapsed]
        fit = fit_logistic(sizes, ys)
        print(
            f"  states->over_{threshold:.0f}ms: b={fit.b:.4f} chi2={fit.chi2:.2f} "
            f"p={fit.p_value:.2e} (max composite {max(sizes):.0f} states)"
        )
        assert fit.b > 0
        assert fit.p_value < 0.05

        ok = [r for r in structure_corpus[0] if r.status == "ok" and r.beta is not None]
        size_fit = fit_logistic([float(r.states) for r in ok], [r.success for r in ok])
        print(
            "  success-vs-size on the structure corpus (reported, not asserted): "
            f"b={size_fit.b:.4f} chi2={size_fit.chi2:.2f} p={size_fit.p_value:.3f}"
        )


def test_criterion_8_determinism(tmp_path):
    with criterion(8, "same seeds give byte-identical corpus, CSV and DOT output"):
        dirs = [tmp_path / "run1", tmp_path / "run2"]
        params = GenParams(state_count_range=(3, 7), clique_bias=0.4, seed=88)
        for target in dirs:
            write_corpus(generate_corpus(params, 10), target)
        for fa, fb in zip(sorted(dirs[0].iterdir()), sorted(dirs[1].iterdir())):
            assert fa.read_bytes() == fb.read_bytes()

        csv_one = rows_to_csv(run_experiment(dirs[0], deterministic_timing=True))
        csv_two = rows_to_csv(run_experiment(dirs[0], deterministic_timing=True, workers=4))
        csv_three = rows_to_csv(run_experiment(dirs[1], deterministic_timing=True, workers=2))
        assert csv_one == csv_two == csv_three

        dots = []
        for _ in range(2):
            pair = generate_corpus(params, 1)[0]
            composite = reachable(compose(list(pair), default_io_sets(pair)))
            reduced = quotient(composite, partition_refine(composite))
            dots.append(export_dot(composite) + export_dot(reduced))
        assert dots[0] == dots[1]


def test_criterion_9_internal_transitions_cross_blocks():
    with criterion(9, "no silent self-loop survives in any quotient"):
        for seed in range(100):
            automaton = random_automaton(seed + 1000, max_states=14)
            partition = partition_refine(automaton)
            owner = {state: block for block in partition.blocks for state in block}
            reduced = quotient(automaton, partition)
            for trans in reduced.transitions:
                if trans.label.kind is LabelKind.INTERNAL:
                    assert trans.source != trans.target
            # restated per original transitions: an internal transition
            # survives exactly when it crosses two distinct blocks
            block_name = {block: f"r{i}" for i, block in enumerate(partition.blocks)}
            quotient_triples = set(reduced.transitions)
            for trans in automaton.transitions:
                if trans.label.kind is not LabelKind.INTERNAL:
                    continue
                src, dst = block_name[owner[trans.source]], block_name[owner[trans.target]]
                assert ((src, trans.label, dst) in quotient_triples) == (src != dst)
