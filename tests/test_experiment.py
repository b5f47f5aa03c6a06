import csv
import hashlib
import logging
import tracemalloc
from concurrent.futures import Executor, Future
from concurrent.futures.process import BrokenProcessPool

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ciakit import (
    CiaError,
    GenParams,
    IoSets,
    RefineStats,
    compose,
    generate_corpus,
    metrics_record,
    partition_refine,
    quotient,
    reachable,
    run_experiment,
    run_pair,
    serialize_automaton,
    write_corpus,
)
from ciakit.experiment import (
    CSV_COLUMNS,
    ExperimentRow,
    reduction_report,
    rows_from_csv,
    rows_to_csv,
)
from ciakit.cli import main
from ciakit.cells import refinable_product
from ciakit.product import _Product, resolve_io
from ciakit.refine import refine_indexed
from conftest import aut, handshake_pair, nested_document, python_output, sender_receiver

# small seeded pairs with internal labels and synchronization cliques
MANUAL_PAIRS = generate_corpus(
    GenParams(state_count_range=(3, 8), kind_mix=(0.35, 0.35, 0.3), clique_bias=0.4, seed=4),
    24,
)


def manual_row(pair_id, first, second, io_policy, strict):
    """The row ``run_pair`` must give, from the public pipeline on the named
    composite: ``compose``, ``reachable``, ``partition_refine``, ``quotient``
    and ``metrics_record``, with the work units of the refinement."""
    io_sets = resolve_io(io_policy, [first, second])
    composite = reachable(compose([first, second], io_sets))
    pre = metrics_record(composite)
    stats = RefineStats()
    partition = partition_refine(composite, strict_internal=strict, stats=stats)
    post = metrics_record(quotient(composite, partition))
    return ExperimentRow(
        pair_id=pair_id,
        states_a=len(first.states),
        states_b=len(second.states),
        states=pre.states,
        transitions=pre.transitions,
        internal=pre.internal_transitions,
        beta=pre.beta,
        gini_in=pre.gini_in,
        gini_out=pre.gini_out,
        refined_states=post.states,
        success=1 if post.states < pre.states else 0,
        reduction_ratio=1.0 - post.states / pre.states,
        internal_removed_ratio=(
            1.0 - post.internal_transitions / pre.internal_transitions
            if pre.internal_transitions
            else 0.0
        ),
        elapsed_ms=stats.work_units(),
        over_5min=0,
        timed_out=0,
    )


def takes_cell_path(first, second):
    """Whether ``run_pair`` refines the product of the pair's cells under
    open io.  Only that form has fewer states than ``pre.states``, which
    counts the reachable composite: the cells' product has at most half of
    them, and the other two forms have all of them."""
    form, pre = refinable_product([first, second], resolve_io("open", [first, second]))
    return form.n < pre.states


def loops_pair():
    """A's states a0 and a1 form one cell through two different internal
    labels, x and y; a2 moves to the cell by x or by y.  B is one cell of
    two states."""
    a = aut("A", ("A",), ["a0", "a1", "a2"], [
        ("a0", ("A", "x", "A"), "a1"), ("a1", ("A", "y", "A"), "a0"),
        ("a2", ("A", "x", "A"), "a0"), ("a2", ("A", "y", "A"), "a0"),
    ], ["a2"])
    b = aut("B", ("B",), ["b0", "b1"],
            [("b0", ("B", "u", "B"), "b1"), ("b1", ("B", "u", "B"), "b0")], ["b0"])
    return [a, b]


class TestRunPair:
    def test_closed_handshake_row(self):
        a, b = handshake_pair()
        row = run_pair("hs", a, b, io_policy="closed")
        assert (row.states_a, row.states_b) == (2, 2)
        assert row.states == 2  # pruned composite
        assert row.transitions == 1
        assert row.internal == 1
        assert row.refined_states == 1
        assert row.success == 1
        assert row.reduction_ratio == pytest.approx(0.5)
        assert row.internal_removed_ratio == pytest.approx(1.0)
        assert row.timed_out == 0 and row.status == "ok"

    def test_disjoint_closed_pair_is_old_sync_only(self):
        first, second = generate_corpus(
            GenParams(state_count_range=(3, 5), seed=21), 1, disjoint_alphabets=True
        )[0]
        row = run_pair("d", first, second, io_policy="closed")
        composite = reachable(compose([first, second], IoSets.closed()))
        assert row.states == len(composite.states)
        assert row.internal == row.transitions
        assert 0.0 <= row.reduction_ratio <= 1.0
        assert row.success == (1 if row.refined_states < row.states else 0)

    @pytest.mark.parametrize("strict", [False, True], ids=["default", "strict"])
    @pytest.mark.parametrize("io_policy", ["open", "closed"])
    def test_matches_manual_pipeline(self, io_policy, strict):
        rows = []
        for i, (first, second) in enumerate(MANUAL_PAIRS):
            expected = manual_row(f"m{i}", first, second, io_policy, strict)
            row = run_pair(
                f"m{i}", first, second, io_policy,
                deterministic_timing=True, strict_internal=strict,
            )
            assert row == expected, f"pair {i}"
            wall = run_pair(f"m{i}", first, second, io_policy, strict_internal=strict)
            assert wall._replace(elapsed_ms=row.elapsed_ms, over_5min=0) == expected
            rows.append(row)
        # the corpus exercises merges and removed internal synchronizations
        assert any(row.success for row in rows)
        assert any(row.internal_removed_ratio > 0.0 for row in rows)

    def test_timeout_row(self):
        pairs = generate_corpus(GenParams(state_count_range=(10, 12), seed=6), 1)
        row = run_pair("t", pairs[0][0], pairs[0][1], timeout=-1.0)
        assert row.timed_out == 1
        assert row.success == 0
        assert row.status == "timeout"
        assert row.refined_states == row.states
        assert row.reduction_ratio == 0.0
        # the budget check fires before any work is counted, so every cell is fixed
        row = run_pair("t", pairs[0][0], pairs[0][1], timeout=-1.0, deterministic_timing=True)
        assert rows_to_csv([row]).splitlines()[1] == (
            "t,10,10,100,487,207,1.343764480607317,0.28367556468172483,0.3865092402464066,"
            "100,0,0.0,0.0,0,0,1,timeout"
        )

    def test_over_5min_is_wall_clock_under_deterministic_timing(self):
        # a visible chain refines one state per round, so 1,000 states count
        # more work units than OVER_MS's 300,000 in about a second
        n = 1000
        chain = aut("A", ("A",), [f"s{i}" for i in range(n)],
                    [(f"s{i}", ("A", f"a{i % 2}", None), f"s{i + 1}") for i in range(n - 1)],
                    ["s0"])
        idle = aut("B", ("B",), ["b0"], [], ["b0"], actions=["a0", "a1"])
        row = run_pair("chain", chain, idle, deterministic_timing=True)
        assert row.elapsed_ms > 300_000
        assert row.over_5min == 0


EXPERIMENT_SHA256 = "747b18fc8d24557e9e83b2f173e95842e2103a749bc3d284300cbffd1bc47815"


def test_experiment_pinned_output(tmp_path):
    """sha256 of the ``--deterministic-timing`` CSVs of a clique-heavy corpus,
    most of whose pairs have components with silent cycles, under open and
    closed io and both semantics; any change of a row moves it."""
    write_corpus(
        generate_corpus(GenParams(state_count_range=(4, 14), clique_bias=0.6, seed=3), 16),
        tmp_path,
    )
    digest = hashlib.sha256()
    for io_policy in ("open", "closed"):
        for strict in (False, True):
            rows = run_experiment(
                tmp_path, io_policy, deterministic_timing=True, strict_internal=strict
            )
            assert all(row.status == "ok" for row in rows)
            digest.update(rows_to_csv(rows).encode())
    assert digest.hexdigest() == EXPERIMENT_SHA256


@pytest.mark.parametrize("strict", [False, True], ids=["default", "strict"])
@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 2**32 - 1),
    clique_bias=st.floats(0.5, 0.9),
    sides=st.tuples(st.integers(3, 9), st.integers(3, 9)).map(sorted),
)
def test_cell_path_matches_manual_pipeline(strict, seed, clique_bias, sides):
    """Pairs whose components have silent cycles: when ``run_pair`` refines
    the product of their cells instead of the product of their states, the
    row is still the manual pipeline's.  Only pairs that take the cell path
    count as examples."""
    params = GenParams(state_count_range=tuple(sides), clique_bias=clique_bias, seed=seed)
    first, second = generate_corpus(params, 1)[0]
    assume(takes_cell_path(first, second))  # no cells, or too few merged to halve the product
    row = run_pair("c", first, second, "open", deterministic_timing=True, strict_internal=strict)
    assert row == manual_row("c", first, second, "open", strict)


def test_strict_row_keeps_the_internal_loops_of_a_cell():
    """The cell {a0, a1} of the loops pair keeps an x loop and a y loop.
    Under strict internal matching a2 is then weakly bisimilar to it;
    without those loops the cell would enable no label and stand apart
    from a2."""
    a, b = loops_pair()
    row = run_pair("loops", a, b, "open", deterministic_timing=True, strict_internal=True)
    assert row == manual_row("loops", a, b, "open", True)
    assert (row.states, row.refined_states) == (6, 1)
    form, pre = refinable_product([a, b], resolve_io("open", [a, b]))
    assert (form.n, pre.states) == (2, 6)  # the cells' product
    internal = form.internal()
    kept = [[(s, d) for s, d in zip(src, dst) if s != d or not internal[lid]]
            for lid, (src, dst) in enumerate(zip(form.sources, form.targets))]
    loopless = form._replace(sources=[[s for s, _ in e] for e in kept],
                             targets=[[d for _, d in e] for e in kept])
    assert refine_indexed(form, strict_internal=True)[1] == 1
    assert refine_indexed(loopless, strict_internal=True)[1] == 2


@pytest.mark.parametrize("kind, pair, io_policy", [
    ("explored", sender_receiver, "closed"),
    ("whole", sender_receiver, "open"),
    ("cells", loops_pair, "open"),
])
def test_each_form_has_the_reachable_composites_metrics(kind, pair, io_policy):
    """One hand-made pair per form ``refinable_product`` picks: under closed
    io, a1 and b1 need the sync, so the product is explored; under open io
    the same pair has no internal move, so its whole state product is
    refined; the loops pair's cells halve its product.  Each form comes with
    the metrics of the reachable composite."""
    components = pair()
    io = resolve_io(io_policy, components)
    form, pre = refinable_product(components, io)
    if not _Product(components, io).reaches_all():
        found = "explored"
    else:
        found = "cells" if form.n < pre.states else "whole"
    assert found == kind
    assert pre == metrics_record(reachable(compose(components, io)))


def test_scale_pair_row_and_memory():
    """The 36,218-state product of the seed-11 pair of 150..200 states a side:
    its row is pinned, and refining its cells instead of its states keeps
    ``run_pair``'s traced peak under 8 MB (about 20 MB when every state and
    edge of the product is built)."""
    first, second = generate_corpus(GenParams(state_count_range=(150, 200), seed=11), 1)[0]
    assert takes_cell_path(first, second)
    tracemalloc.start()
    try:
        row = run_pair("scale", first, second, deterministic_timing=True)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (row.states, row.transitions, row.refined_states, row.elapsed_ms) == (
        36_218, 509_888, 11, 69
    )
    assert (row.gini_in, row.gini_out) == (0.1678751024705332, 0.19513782802223759)
    assert peak < 8 * 2**20


class TestRunExperiment:
    def test_deterministic_across_workers(self, tmp_path):
        corpus = tmp_path / "corpus"
        write_corpus(generate_corpus(GenParams(state_count_range=(3, 6), seed=17), 6), corpus)
        rows_serial = run_experiment(corpus, deterministic_timing=True)
        rows_parallel = run_experiment(corpus, workers=3, deterministic_timing=True)
        assert rows_to_csv(rows_serial) == rows_to_csv(rows_parallel)
        assert [r.pair_id for r in rows_serial] == sorted(r.pair_id for r in rows_serial)

    def test_malformed_pair_marked_and_run_continues(self, tmp_path):
        corpus = tmp_path / "corpus"
        write_corpus(generate_corpus(GenParams(state_count_range=(3, 4), seed=2), 3), corpus)
        clean = rows_to_csv(run_experiment(corpus, deterministic_timing=True)).splitlines()
        (corpus / "pair00000.cia").write_text("automaton broken\n", encoding="utf-8")
        (corpus / "pair00001.cia").write_bytes(b"automaton \xff\xfe\n")  # not UTF-8
        (corpus / "zy.cia").mkdir()  # matches *.cia but cannot be read
        a, _ = handshake_pair()
        (corpus / "zz_single.cia").write_text(serialize_automaton(a), encoding="utf-8")
        rows = run_experiment(corpus, deterministic_timing=True)
        assert [(r.pair_id, r.status) for r in rows] == [
            ("pair00000", "error"),
            ("pair00001", "error"),
            ("pair00002", "ok"),
            ("zy", "error"),
            ("zz_single", "error"),  # one block only
        ]
        out = tmp_path / "rows.csv"
        args = ["experiment", "--corpus", str(corpus), "--deterministic-timing", "--out", str(out)]
        for workers in ("1", "2"):
            assert main([*args, "--workers", workers]) == 0
            lines = out.read_text(encoding="utf-8").splitlines()
            assert lines == rows_to_csv(rows).splitlines()
            assert lines[3] == clean[3]  # pair00002's row is the one of the clean run
            assert lines[1:3] + lines[4:] == [
                f"{pair_id},0,0,0,0,0,NA,NA,NA,0,0,0.0,0.0,0,0,0,error"
                for pair_id in ("pair00000", "pair00001", "zy", "zz_single")
            ]

    def test_unexpected_exception_becomes_error_row(self, tmp_path, monkeypatch, caplog):
        corpus = tmp_path / "corpus"
        write_corpus(generate_corpus(GenParams(state_count_range=(3, 4), seed=2), 3), corpus)
        expected = run_experiment(corpus, deterministic_timing=True)

        def flaky(pair_id, *args, **kwargs):
            if pair_id == "pair00001":
                raise RuntimeError("boom")
            return run_pair(pair_id, *args, **kwargs)

        monkeypatch.setattr("ciakit.experiment.run_pair", flaky)
        rows = run_experiment(corpus, workers=1, deterministic_timing=True)
        assert [r.status for r in rows] == ["ok", "error", "ok"]
        assert rows[1].pair_id == "pair00001"
        assert (rows[0], rows[2]) == (expected[0], expected[2])
        assert "pair pair00001 failed" in caplog.text and "RuntimeError: boom" in caplog.text

    @pytest.mark.parametrize("levels", [450, 2000])
    def test_deep_hierarchy_becomes_error_row_without_a_log(
        self, levels, tmp_path, caplog
    ):
        corpus = tmp_path / "corpus"
        write_corpus(generate_corpus(GenParams(state_count_range=(3, 4), seed=2), 1), corpus)
        _, second = handshake_pair()
        deep = nested_document(levels) + serialize_automaton(second)
        (corpus / "pair00001.cia").write_text(deep, encoding="utf-8")
        with caplog.at_level(logging.DEBUG):
            rows = run_experiment(corpus)
        assert [r.status for r in rows] == ["ok", "error"]
        assert caplog.records == []

    def test_import_loads_no_process_pool(self):
        # the pool's modules load only when a run asks for several workers
        pool = "{'concurrent.futures.process', 'multiprocessing'}"
        probe = f"import ciakit, ciakit.cli, sys; print(sorted({pool} & set(sys.modules)))"
        assert python_output(probe).strip() == "[]"

    def test_pool_no_larger_than_the_pair_count(self, tmp_path, monkeypatch):
        corpus = tmp_path / "corpus"
        write_corpus(generate_corpus(GenParams(state_count_range=(3, 4), seed=2), 3), corpus)
        expected = run_experiment(corpus, deterministic_timing=True)
        sizes = []

        class RecordingPool(Executor):
            """Runs jobs in-process; records the pool size asked for, starts no process."""

            def __init__(self, max_workers=None):
                sizes.append(max_workers)

            def submit(self, fn, job):
                future = Future()
                future.set_result(fn(job))
                return future

        monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", RecordingPool)
        assert run_experiment(corpus, workers=8, deterministic_timing=True) == expected
        assert sizes == [3]
        for extra in ("pair00001.cia", "pair00002.cia"):
            (corpus / extra).unlink()
        assert run_experiment(corpus, workers=8, deterministic_timing=True) == expected[:1]
        assert sizes == [3]  # one pair runs in-process

    def test_broken_pool_turns_unfinished_pairs_into_error_rows(
        self, tmp_path, monkeypatch, caplog
    ):
        corpus = tmp_path / "corpus"
        write_corpus(generate_corpus(GenParams(state_count_range=(3, 4), seed=2), 4), corpus)
        expected = run_experiment(corpus, deterministic_timing=True)
        lost = {"pair00001", "pair00003"}

        class BreakingPool(Executor):
            """Runs jobs in-process; the futures of the ``lost`` pairs break."""

            def __init__(self, max_workers=None):
                pass

            def submit(self, fn, job):
                future = Future()
                if job[1] in lost:
                    future.set_exception(BrokenProcessPool("a worker was killed"))
                else:
                    future.set_result(fn(job))
                return future

        monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", BreakingPool)
        with caplog.at_level(logging.ERROR, logger="ciakit.experiment"):
            rows = run_experiment(corpus, workers=2, deterministic_timing=True)
        assert [r.pair_id for r in rows] == [r.pair_id for r in expected]
        assert [r.status for r in rows] == ["ok", "error", "ok", "error"]
        assert (rows[0], rows[2]) == (expected[0], expected[2])
        assert len(caplog.records) == 1
        assert "a worker was killed" in caplog.text

    def test_pool_broken_during_submission_turns_unsubmitted_pairs_into_error_rows(
        self, tmp_path, monkeypatch, caplog
    ):
        corpus = tmp_path / "corpus"
        write_corpus(generate_corpus(GenParams(state_count_range=(3, 4), seed=2), 4), corpus)
        expected = run_experiment(corpus, deterministic_timing=True)
        submitted = []

        class PoolBreakingOnThirdSubmit(Executor):
            """Runs jobs in-process; the third ``submit`` finds the pool broken."""

            def __init__(self, max_workers=None):
                pass

            def submit(self, fn, job):
                submitted.append(job[1])
                if len(submitted) == 3:
                    raise BrokenProcessPool("a worker was killed")
                future = Future()
                future.set_result(fn(job))
                return future

        monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", PoolBreakingOnThirdSubmit)
        with caplog.at_level(logging.ERROR, logger="ciakit.experiment"):
            rows = run_experiment(corpus, workers=2, deterministic_timing=True)
        assert submitted == ["pair00000", "pair00001", "pair00002"]
        assert [r.pair_id for r in rows] == [r.pair_id for r in expected]
        assert [r.status for r in rows] == ["ok", "ok", "error", "error"]
        assert rows[:2] == expected[:2]
        assert len(caplog.records) == 1
        assert "a worker was killed" in caplog.text

    def test_empty_corpus_rejected(self, tmp_path):
        with pytest.raises(CiaError, match="no .cia files"):
            run_experiment(tmp_path)

    @pytest.mark.parametrize("workers", [0, -3])
    def test_workers_below_one_rejected(self, tmp_path, workers):
        write_corpus(generate_corpus(GenParams(state_count_range=(3, 4), seed=2), 1), tmp_path)
        with pytest.raises(CiaError, match="workers must be at least 1"):
            run_experiment(tmp_path, workers=workers)

    def test_over_5min_consistency(self, tmp_path):
        corpus = tmp_path / "corpus"
        write_corpus(generate_corpus(GenParams(state_count_range=(3, 5), seed=5), 3), corpus)
        for row in run_experiment(corpus):
            assert row.over_5min == (1 if row.elapsed_ms > 300_000 else 0)


class TestCsvRoundTrip:
    def test_round_trip(self, tmp_path):
        corpus = tmp_path / "corpus"
        write_corpus(generate_corpus(GenParams(state_count_range=(3, 6), seed=8), 4), corpus)
        rows = run_experiment(corpus, deterministic_timing=True)
        text = rows_to_csv(rows)
        assert text.splitlines()[0] == ",".join(CSV_COLUMNS)
        back = rows_from_csv(text)
        assert back == rows
        assert rows_to_csv(back) == text

    def test_wall_clock_elapsed_ms_round_trips_as_float(self, tmp_path):
        corpus = tmp_path / "corpus"
        write_corpus(generate_corpus(GenParams(state_count_range=(3, 6), seed=8), 4), corpus)
        rows = run_experiment(corpus)
        assert all(isinstance(r.elapsed_ms, float) for r in rows)
        text = rows_to_csv(rows)
        back = rows_from_csv(text)
        assert back == rows
        assert [type(r.elapsed_ms) for r in back] == [float] * len(rows)
        assert rows_to_csv(back) == text
        work = rows_from_csv(rows_to_csv(run_experiment(corpus, deterministic_timing=True)))
        assert all(type(r.elapsed_ms) is int for r in work)

    def test_na_serialization(self):
        row = ExperimentRow(
            pair_id="x", states_a=1, states_b=1, states=1, transitions=0, internal=0,
            beta=None, gini_in=None, gini_out=None, refined_states=1, success=0,
            reduction_ratio=0.0, internal_removed_ratio=0.0, elapsed_ms=0,
            over_5min=0, timed_out=0,
        )
        text = rows_to_csv([row])
        assert ",NA,NA,NA," in text
        assert rows_from_csv(text)[0].beta is None


    ROW = ExperimentRow(
        pair_id="p", states_a=2, states_b=3, states=6, transitions=7, internal=2,
        beta=1.25, gini_in=0.5, gini_out=0.1, refined_states=4, success=1,
        reduction_ratio=1 / 3, internal_removed_ratio=0.5, elapsed_ms=12,
        over_5min=0, timed_out=0,
    )

    def test_hand_made_rows_round_trip(self):
        base = self.ROW
        rows = [
            base,
            base._replace(pair_id='quoted, "pair"', elapsed_ms=0.1 + 0.2),
            base._replace(beta=None, gini_in=None, gini_out=None),
            base._replace(status="timeout", timed_out=1, refined_states=6, success=0,
                          reduction_ratio=0.0, internal_removed_ratio=0.0, elapsed_ms=7.5),
            base._replace(pair_id="NA", status="error", states_a=0, states_b=0, states=0,
                          transitions=0, internal=0, beta=None, gini_in=None, gini_out=None,
                          refined_states=0, success=0, reduction_ratio=0.0,
                          internal_removed_ratio=0.0, elapsed_ms=0),
        ]
        text = rows_to_csv(rows)
        assert '"quoted, ""pair"""' in text
        back = rows_from_csv(text)
        assert back == rows
        assert [type(r.elapsed_ms) for r in back] == [int, float, int, float, int]
        assert rows_to_csv(back) == text

    @pytest.mark.parametrize("column,cell", [("states", "1.5"), ("beta", "x"), ("states", "NA")])
    def test_cell_of_the_wrong_type_rejected(self, column, cell):
        table = list(csv.reader(rows_to_csv([self.ROW]).splitlines()))
        table[1][table[0].index(column)] = cell
        message = f"^experiment CSV row 1 has a bad '{column}' cell '{cell}'$"
        with pytest.raises(CiaError, match=message):
            rows_from_csv("\n".join(",".join(record) for record in table) + "\n")


class TestReductionReport:
    def base_row(self, **kw):
        defaults = dict(
            pair_id="p", states_a=2, states_b=2, states=4, transitions=4, internal=2,
            beta=1.0, gini_in=0.1, gini_out=0.2, refined_states=4, success=0,
            reduction_ratio=0.0, internal_removed_ratio=0.0, elapsed_ms=1,
            over_5min=0, timed_out=0,
        )
        defaults.update(kw)
        return ExperimentRow(**defaults)

    def test_no_reduction_gives_empty_bands(self):
        report = reduction_report([self.base_row() for _ in range(3)])
        assert report["bands"]["reduction>=0.5"] == {"rows": 0}
        assert report["bands"]["reduction>=0.75"] == {"rows": 0}

    def test_full_internal_removal(self):
        row = self.base_row(
            refined_states=1, success=1, reduction_ratio=0.75, internal_removed_ratio=1.0
        )
        report = reduction_report([row])
        band = report["bands"]["reduction>=0.75"]
        assert band["rows"] == 1
        assert band["median"] == 1.0

    def test_empty_rows_rejected(self):
        with pytest.raises(CiaError, match="empty experiment"):
            reduction_report([])

    def test_generated_corpus_report(self, tmp_path):
        corpus = tmp_path / "corpus"
        write_corpus(
            generate_corpus(
                GenParams(state_count_range=(3, 7), clique_bias=0.6, seed=23), 12
            ),
            corpus,
        )
        rows = run_experiment(corpus)
        report = reduction_report(rows)
        assert report["rows"] == 12
        assert report["successes"] >= 1
        strong = report["bands"]["reduction>=0.75"]
        if strong["rows"]:
            assert 0.0 <= strong["median"] <= 1.0
