"""Tests of the benchmark itself; run with ``python3 -m pytest perfbench``."""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(ROOT / "src"))

from ciakit import (  # noqa: E402
    Label, Partition, SplitMix64, Transition, compose, default_io_sets, partition_refine,
    quotient, reachable,
)
from ciakit.cli import main as ciakit_main  # noqa: E402

import gate  # noqa: E402
from corpus import WORKLOADS, build_pairs, recipe_pairs, relabel, write_workload_corpus  # noqa: E402
from traced import Tracer, traced_pass  # noqa: E402

EXACT_COUNTS = (
    "refine.refine_steps", "refine.splitter_evals", "refine.sweeps", "refine.blocks",
    "refine.merge_ratio", "compose.product_states", "compose.product_transitions",
    "core.kept_ratio", "regress.iterations",
)


@pytest.fixture(scope="module")
def study_slice(tmp_path_factory):
    """The first 20 pairs of the study corpus, its traced outcome and CLI CSV."""
    workload = WORKLOADS["study"]
    corpus = tmp_path_factory.mktemp("corpus")
    files = write_workload_corpus(workload, workload.default_seed, corpus)
    for path in files[20:]:
        path.unlink()
    files = files[:20]
    csv_path = corpus.parent / "rows.csv"
    code = ciakit_main(["experiment", "--corpus", str(corpus), "--out", str(csv_path),
                        *workload.experiment_args()])
    assert code == 0
    outcome = traced_pass(files, workload, Tracer())
    return files, outcome, csv_path.read_text(encoding="utf-8")


def test_seeds_draw_isomorphic_copies_of_one_corpus():
    workload = WORKLOADS["closed-strict"]
    first = build_pairs(workload, 5)
    assert first == build_pairs(workload, 5)
    other = build_pairs(workload, 6)
    assert first != other
    shape = lambda pairs: sorted(  # noqa: E731
        (len(a.states), len(a.transitions), len(b.states), len(b.transitions)) for a, b in pairs
    )
    assert shape(first) == shape(other)


def test_relabelled_pair_refines_to_the_same_block_count():
    for pair in recipe_pairs(WORKLOADS["study"])[:8]:
        results = set()
        for seed in (1, 2, 3):
            a, b = relabel(pair, SplitMix64(seed))
            composite = reachable(compose([a, b], default_io_sets([a, b])))
            results.add((len(composite.states), partition_refine(composite).block_count()))
        assert len(results) == 1


@pytest.mark.parametrize("name", ["study", "closed-strict"])
def test_traced_pass_counts_and_outputs_repeat(name, tmp_path):
    workload = WORKLOADS[name]
    files = write_workload_corpus(workload, 11, tmp_path)[:12]
    one = traced_pass(files, workload, Tracer())
    two = traced_pass(files, workload, Tracer())
    assert one.counts == two.counts
    assert gate.digests(one.csv_text, one.quotients) == gate.digests(two.csv_text, two.quotients)


def test_self_time_subtracts_children():
    tracer = Tracer()
    with tracer.span("outer"):
        with tracer.span("inner"):
            sum(range(200_000))
    selfs = tracer.self_cpu_s()
    outer, inner = tracer.spans
    assert inner.parent == outer.id
    assert selfs["inner"] == pytest.approx(inner.cpu_s)
    assert selfs["outer"] == pytest.approx(outer.cpu_s - inner.cpu_s)


def test_span_cost_is_positive_and_small():
    assert 0.0 < Tracer.span_cost_s() < 1e-3


def test_gate_accepts_untampered_outputs(study_slice):
    _, outcome, cli_csv = study_slice
    assert gate.check_cli_csv(cli_csv, outcome) == []
    assert gate.check_quotients(outcome) == []
    problems, checked = gate.check_oracle(outcome, strict_internal=False)
    assert problems == [] and checked > 0


def _replace_cell(csv_text: str, row: int, column: str, value: str) -> str:
    lines = csv_text.splitlines(keepends=True)
    header = lines[0].rstrip("\n").split(",")
    cells = lines[row + 1].rstrip("\n").split(",")
    cells[header.index(column)] = value
    lines[row + 1] = ",".join(cells) + "\n"
    return "".join(lines)


@pytest.mark.parametrize("column,value", [("refined_states", "1"), ("status", "error")])
def test_gate_rejects_tampered_csv_row(study_slice, column, value):
    _, outcome, cli_csv = study_slice
    tampered = _replace_cell(cli_csv, 3, column, value)
    assert tampered != cli_csv
    assert gate.check_cli_csv(tampered, outcome)
    assert gate.sha256(gate.canonical_csv(tampered)) != gate.sha256(gate.canonical_csv(cli_csv))


def test_gate_ignores_timing_columns(study_slice):
    _, outcome, cli_csv = study_slice
    retimed = _replace_cell(cli_csv, 0, "elapsed_ms", "987654")
    assert gate.check_cli_csv(retimed, outcome) == []


def test_gate_rejects_quotient_with_silent_self_loop(study_slice):
    _, outcome, _ = study_slice
    i = next(i for i, q in enumerate(outcome.quotients) if q.transitions)
    reduced = outcome.quotients[i]
    state = sorted(reduced.states)[0]
    leaf = sorted(reduced.hierarchy.leaf_names())[0]
    action = sorted(reduced.actions)[0]
    loop = Transition(state, Label(leaf, action, leaf), state)
    tampered = dataclasses.replace(reduced, transitions=reduced.transitions | {loop})
    bad = dataclasses.replace(outcome, quotients=[*outcome.quotients])
    bad.quotients[i] = tampered
    assert any("silent self-loop" in p for p in gate.check_quotients(bad))
    reference = gate.digests(outcome.csv_text, outcome.quotients)
    assert gate.check_reference(reference, gate.digests(bad.csv_text, bad.quotients))


def test_gate_rejects_wrongly_merged_blocks(study_slice):
    _, outcome, _ = study_slice
    small = [i for i, c in enumerate(outcome.composites)
             if len(c.states) <= gate.ORACLE_MAX_STATES]
    sampled = gate._spread_sample(small, gate.ORACLE_SAMPLE)
    i = next(i for i in sampled if outcome.partitions[i].block_count() > 1)
    blocks = list(outcome.partitions[i].blocks)
    merged = Partition.from_blocks([blocks[0] | blocks[1], *blocks[2:]])
    bad = dataclasses.replace(
        outcome,
        partitions=[merged if j == i else p for j, p in enumerate(outcome.partitions)],
        quotients=[quotient(outcome.composites[i], merged) if j == i else q
                   for j, q in enumerate(outcome.quotients)],
    )
    problems, _ = gate.check_oracle(bad, strict_internal=False)
    assert any("oracle" in p for p in problems)


def test_references_cover_every_default_seed():
    for name, workload in WORKLOADS.items():
        reference = gate.reference_for(name, workload.default_seed)
        assert set(reference) == {"csv_sha256", "quotients_sha256", "pairs", "composite_states"}


def _run(workdir: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=workdir,
        capture_output=True, text=True, timeout=170,
    )


def test_run_fails_without_sources(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = _run(tmp_path, "--workload", "study", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert done.returncode != 0
    assert done.stdout == ""


def test_two_traced_runs_report_identical_exact_counts():
    results = []
    for _ in range(2):
        done = _run(ROOT, "--workload", "study", "--seed", "3", "--seconds", "1", "--trace", "1")
        assert done.returncode == 0, done.stderr
        results.append(json.loads(done.stdout.splitlines()[-1]))
    for result in results:
        assert result["correct"] and result["failed"] == 0
    first, second = (r["metrics"] for r in results)
    for name in EXACT_COUNTS:
        assert first[name] == second[name], name
