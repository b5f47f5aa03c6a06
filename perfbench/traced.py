"""Spans and the traced pass.

The traced pass repeats the call sequence of ``ciakit experiment`` (file read,
then per pair what ``run_pair`` does) and of ``ciakit regress`` through
ciakit's public functions, and wraps every call in a span.  Spans are timed
from outside the library; spans inside ``partition_refine`` are not taken.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

from ciakit import (
    IoSets,
    RefineStats,
    compose,
    default_io_sets,
    fit_logistic,
    metrics_record,
    parse_automata,
    partition_refine,
    quotient,
    reachable,
)
from ciakit.experiment import OVER_MS, ExperimentRow, rows_from_csv, rows_to_csv
from ciakit.regress import classify, threshold_x

from corpus import Workload

# run_pair's default budget, which ``ciakit experiment`` passes on
REFINE_TIMEOUT_S = 7200.0
# empty spans timed to price one span: about 30 ms of CPU
SPAN_COST_SAMPLES = 5000


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    pair: str | None
    start_ns: int
    cpu_start_ns: int
    end_ns: int = 0
    cpu_end_ns: int = 0

    @property
    def cpu_s(self) -> float:
        return (self.cpu_end_ns - self.cpu_start_ns) / 1e9


class Tracer:
    """Keeps spans in memory; ``write`` dumps them as JSON lines.

    Each span has a wall-clock interval (``perf_counter_ns``) and the process
    CPU time spent inside it (``process_time_ns``).
    """

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, pair: str | None = None):
        record = Span(
            id=len(self.spans),
            name=name,
            parent=self._open[-1] if self._open else None,
            pair=pair,
            start_ns=time.perf_counter_ns(),
            cpu_start_ns=time.process_time_ns(),
        )
        self.spans.append(record)
        self._open.append(record.id)
        try:
            yield record
        finally:
            record.cpu_end_ns = time.process_time_ns()
            record.end_ns = time.perf_counter_ns()
            self._open.pop()

    @staticmethod
    def span_cost_s() -> float:
        """CPU seconds the tracer's own bookkeeping adds per span, measured
        on empty spans."""
        tracer = Tracer()
        start = time.process_time()
        for _ in range(SPAN_COST_SAMPLES):
            with tracer.span("empty"):
                pass
        return (time.process_time() - start) / SPAN_COST_SAMPLES

    def self_cpu_s(self) -> dict[str, float]:
        """CPU seconds per span name, minus the time of each span's children."""
        child_cpu = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent is not None:
                child_cpu[span.parent] += span.cpu_s
        totals: dict[str, float] = {}
        for span in self.spans:
            totals[span.name] = totals.get(span.name, 0.0) + span.cpu_s - child_cpu[span.id]
        return totals

    def write(self, path: Path, run_index: int) -> None:
        with path.open("a", encoding="utf-8") as out:
            for span in self.spans:
                out.write(json.dumps({"pass": run_index, **span.__dict__}) + "\n")


@dataclass
class PassOutcome:
    """What one traced pass computed, kept for the correctness gate."""

    rows: list[ExperimentRow] = field(default_factory=list)
    composites: list = field(default_factory=list)  # reachable composites
    partitions: list = field(default_factory=list)
    quotients: list = field(default_factory=list)
    csv_text: str = ""
    regress: dict | None = None
    counts: dict[str, float] = field(default_factory=dict)


def _row(pair_id, first, second, pre, post, stats) -> ExperimentRow:
    """The row ``run_pair`` builds for a pair that refined within budget."""
    elapsed = int(stats.elapsed_s * 1000)
    removed = (
        1.0 - post.internal_transitions / pre.internal_transitions
        if pre.internal_transitions
        else 0.0
    )
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
        internal_removed_ratio=removed,
        elapsed_ms=elapsed,
        over_5min=1 if elapsed > OVER_MS else 0,
        timed_out=0,
        status="ok",
    )


def _regress(rows: list[ExperimentRow]) -> dict:
    """``ciakit regress --x beta --y success`` on parsed rows."""
    xs = [float(r.beta) for r in rows if r.status == "ok" and r.beta is not None]
    ys = [r.success for r in rows if r.status == "ok" and r.beta is not None]
    fit = fit_logistic(xs, ys)
    report = classify(fit, xs, ys)
    return {
        "n": len(xs),
        "b": fit.b,
        "converged": fit.converged,
        "iterations": fit.iterations,
        "sensitivity": report.sensitivity,
        "threshold_x": threshold_x(fit, 0.5) if fit.b != 0 else None,
    }


def traced_pass(corpus_files: list[Path], workload: Workload, tracer: Tracer) -> PassOutcome:
    """One pass over the corpus, every ciakit call inside its own span."""
    out = PassOutcome()
    counts = dict.fromkeys(
        ("product_states", "product_transitions", "composite_states", "blocks",
         "refine_steps", "splitter_evals", "sweeps", "regress_iterations"),
        0,
    )
    with tracer.span("experiment.pass"):
        with tracer.span("experiment.read"):
            texts = [(path.stem, path.read_text(encoding="utf-8")) for path in corpus_files]
        for pair_id, text in texts:
            with tracer.span("experiment.pair", pair_id):
                with tracer.span("fmt.parse", pair_id):
                    first, second = parse_automata(text)
                with tracer.span("compose.io_sets", pair_id):
                    if workload.io == "closed":
                        io_sets = IoSets.closed()
                    else:
                        io_sets = default_io_sets([first, second])
                with tracer.span("compose.compose", pair_id):
                    product = compose([first, second], io_sets)
                with tracer.span("core.reachable", pair_id):
                    composite = reachable(product)
                with tracer.span("metrics.metrics", pair_id):
                    pre = metrics_record(composite)
                stats = RefineStats()
                with tracer.span("refine.refine", pair_id):
                    partition = partition_refine(
                        composite, REFINE_TIMEOUT_S,
                        strict_internal=workload.strict_internal, stats=stats,
                    )
                with tracer.span("refine.quotient", pair_id):
                    reduced = quotient(composite, partition)
                with tracer.span("metrics.metrics", pair_id):
                    post = metrics_record(reduced)
                out.rows.append(_row(pair_id, first, second, pre, post, stats))
            out.composites.append(composite)
            out.partitions.append(partition)
            out.quotients.append(reduced)
            counts["product_states"] += len(product.states)
            counts["product_transitions"] += len(product.transitions)
            counts["composite_states"] += len(composite.states)
            counts["blocks"] += partition.block_count()
            counts["refine_steps"] += stats.refine_steps
            counts["splitter_evals"] += stats.splitter_evals
            counts["sweeps"] += stats.sweeps
        with tracer.span("experiment.csv"):
            out.csv_text = rows_to_csv(out.rows)
        with tracer.span("regress.read_csv"):
            parsed = rows_from_csv(out.csv_text)
        if workload.regress:
            with tracer.span("regress.fit"):
                out.regress = _regress(parsed)
            counts["regress_iterations"] = out.regress["iterations"]
    counts["pairs"] = len(texts)
    out.counts = counts
    return out
