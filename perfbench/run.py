"""ciakit benchmark: one workload, one seed, one result line.

Usage, from the repository root::

    python3 perfbench/run.py --workload study --seed 613 --seconds 30 --trace 0

The run has three parts.

* Set-up: a fresh interpreter imports ciakit from ``src/`` and writes the
  workload's corpus for ``--seed``.  It is repeated after every pass (and
  at least ``SETUP_REPEATS`` times), so the samples spread over the whole
  run, and ``setup_s`` is their median.
* Untraced pass: ``ciakit.cli.main(["experiment", ...])`` over the corpus,
  then ``main(["regress", ...])`` where the workload regresses, repeated for
  ``--seconds``.  It gives the end-to-end metrics (``--trace 0``).
* Traced pass (``--trace 1``): the same call sequence through ciakit's
  public functions, each call in a span, alternated with untraced passes.
  It gives the per-layer metrics and the spans file.

Times are CPU seconds (user + system) of the single workload process, which
runs with one worker: on a shared host the CPU time of a pass varies less
than its wall time, because it leaves out the time the host gives to other
tenants.  Wall times are kept in the metadata line.

The correctness gate (``gate.py``) runs outside the timed passes.  The last
line of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; a run whose gate fails prints no metrics and
exits with code 1.
"""

from __future__ import annotations

import argparse
import csv
import gc
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

# ciakit becomes importable only once main() has put src/ on sys.path, so
# the benchmark's modules that import it are imported inside functions.
BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = BENCH_DIR / ".work"
SETUP_REPEATS = 7
SETUP_TIMEOUT_S = 120
TRACE_REGENERATIONS = 3


def _parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", metavar="DIR", help=argparse.SUPPRESS)
    parser.add_argument("--record-reference", action="store_true",
                        help="store this run's output digests as the seed's reference "
                             "instead of comparing with it")
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def _children_cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


class SetUp:
    """Sets the workload up in fresh interpreters and keeps the CPU and wall
    seconds of each set-up."""

    def __init__(self, workload, seed: int, corpus_dir: Path):
        self.workload = workload
        self.seed = seed
        self.corpus_dir = corpus_dir
        self.cpu: list[float] = []
        self.wall: list[float] = []

    def run(self, out_dir: Path) -> list[Path]:
        shutil.rmtree(out_dir, ignore_errors=True)
        cpu0, wall0 = _children_cpu_s(), time.perf_counter()
        subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", self.workload.name,
             "--seed", str(self.seed), "--setup-only", str(out_dir)],
            check=True, timeout=SETUP_TIMEOUT_S,
        )
        self.wall.append(time.perf_counter() - wall0)
        self.cpu.append(_children_cpu_s() - cpu0)
        return sorted(out_dir.glob("*.cia"))

    def repeat(self, scratch_dir: Path) -> bool:
        """Set up once more, beside the corpus; False if the files differ."""
        files = self.run(scratch_dir)
        same = [p.read_bytes() for p in files] == [
            p.read_bytes() for p in sorted(self.corpus_dir.glob("*.cia"))
        ]
        shutil.rmtree(scratch_dir)
        return same


class UntracedPass:
    """``ciakit experiment`` (+ ``ciakit regress``) through the CLI entry point."""

    def __init__(self, workload, corpus_dir: Path, out_dir: Path):
        from ciakit.cli import main

        self.main = main
        self.workload = workload
        self.corpus_dir = corpus_dir
        self.csv_path = out_dir / "experiment.csv"
        self.regress_path = out_dir / "regress.json"

    def run(self) -> dict:
        for path in (self.csv_path, self.regress_path):
            path.unlink(missing_ok=True)
        gc.collect()
        cpu0, wall0 = time.process_time(), time.perf_counter()
        code = self.main(["experiment", "--corpus", str(self.corpus_dir),
                          "--out", str(self.csv_path), *self.workload.experiment_args()])
        regress_code = None
        if self.workload.regress and self.csv_path.exists():
            regress_code = self.main(["regress", "--csv", str(self.csv_path), "--x", "beta",
                                      "--y", "success", "--out", str(self.regress_path)])
        cpu, wall = time.process_time() - cpu0, time.perf_counter() - wall0
        csv_text = self.csv_path.read_text(encoding="utf-8") if self.csv_path.exists() else ""
        statuses = [row["status"] for row in csv.DictReader(io.StringIO(csv_text))]
        attempted = len(statuses) or len(list(self.corpus_dir.glob("*.cia")))
        failed = sum(1 for s in statuses if s != "ok") if statuses else attempted
        regress_json = None
        if self.workload.regress:
            attempted += 1
            if regress_code == 0:
                regress_json = self.regress_path.read_text(encoding="utf-8")
            else:
                failed += 1
        return {"cpu_s": cpu, "wall_s": wall, "exit": code, "csv": csv_text,
                "regress": regress_json, "attempted": attempted, "failed": failed}


def timed_loop(seconds: float, step) -> list:
    """Run ``step`` at least once, and again while another run fits in ``seconds``."""
    results = []
    started = time.perf_counter()
    while True:
        results.append(step())
        elapsed = time.perf_counter() - started
        if elapsed + elapsed / len(results) > seconds:
            return results


def tail_percentile(n: int) -> float:
    """Highest percentile with at least ten samples beyond it; with fewer than
    20 samples, 100 (the maximum)."""
    if n < 20:
        return 100.0
    return 100.0 * (1.0 - 10.0 / n)


def percentile(values: list[float], pct: float) -> float:
    ordered = sorted(values)
    if pct >= 100.0:
        return ordered[-1]
    rank = pct / 100.0 * (len(ordered) - 1)
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def git_commit() -> str:
    """The checked-out commit, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


LAYER_TIMES = {
    "refine.refine_s": ("refine.refine",),
    "refine.quotient_s": ("refine.quotient",),
    "compose.compose_s": ("compose.compose", "compose.io_sets"),
    "core.reachable_s": ("core.reachable",),
    "fmt.parse_s": ("fmt.parse",),
    "metrics.metrics_s": ("metrics.metrics",),
    "regress.fit_s": ("regress.read_csv", "regress.fit"),
}


def gate_problems(passes, outcomes, workload, seed: int, record: bool) -> tuple[list, dict]:
    """Run the correctness gate; returns the problems and facts for the metadata."""
    import gate

    first = outcomes[0]
    problems = sorted({f"experiment exited with {p['exit']}" for p in passes if p["exit"] != 0})
    if len({gate.canonical_csv(p["csv"]) for p in passes if p["csv"]}) > 1:
        problems.append("experiment CSV changed between passes")
    if len({p["regress"] for p in passes}) > 1:
        problems.append("regress output changed between passes")
    problems += gate.check_cli_csv(passes[0]["csv"], first)
    problems += gate.check_quotients(first)
    oracle_problems, oracle_checked = gate.check_oracle(first, workload.strict_internal)
    problems += oracle_problems
    problems += gate.check_regress(passes[0]["regress"], first)
    actual = gate.digests(first.csv_text, first.quotients)
    for outcome in outcomes[1:]:
        if gate.digests(outcome.csv_text, outcome.quotients) != actual:
            problems.append("traced passes computed different outputs")
        if outcome.counts != first.counts:
            problems.append("exact counts differ between traced passes")
    actual.update(pairs=first.counts["pairs"], composite_states=first.counts["composite_states"])
    if not record:
        problems += gate.check_reference(gate.reference_for(workload.name, seed), actual)
    elif not problems:
        gate.record_reference(workload.name, seed, actual)
    return problems, {"oracle_checked": oracle_checked, "digests": actual}


def layer_values(tracers, regen_tracer, counts, span_costs) -> tuple[dict, dict]:
    """Per-layer metrics of the traced passes, and facts for the metadata."""
    pair_ms = [span.cpu_s * 1000.0 for tracer in tracers
               for span in tracer.spans if span.name == "experiment.pair"]
    tail_pct = tail_percentile(len(pair_ms))
    per_pass = [tracer.self_cpu_s() for tracer in tracers]
    values = {
        metric: statistics.median(sum(selfs.get(n, 0.0) for n in names) for selfs in per_pass)
        for metric, names in LAYER_TIMES.items()
    }
    values.update({
        "refine.refine_steps": counts["refine_steps"],
        "refine.splitter_evals": counts["splitter_evals"],
        "refine.sweeps": counts["sweeps"],
        "refine.blocks": counts["blocks"],
        "refine.merge_ratio": 1.0 - counts["blocks"] / counts["composite_states"],
        "compose.product_states": counts["product_states"],
        "compose.product_transitions": counts["product_transitions"],
        "core.kept_ratio": counts["composite_states"] / counts["product_states"],
        "experiment.pair_ms_p50": statistics.median(pair_ms),
        "experiment.pair_ms_tail": percentile(pair_ms, tail_pct),
        "regress.iterations": counts["regress_iterations"],
        "generate.corpus_s": statistics.median(s.cpu_s for s in regen_tracer.spans),
        "trace.overhead_s": statistics.median(span_costs) * len(tracers[0].spans),
    })
    facts = {
        "traced_passes": len(tracers), "span_cost_s": span_costs,
        "self_cpu_s_by_span": {
            name: statistics.median(selfs[name] for selfs in per_pass) for name in per_pass[0]
        },
        "pair_samples": len(pair_ms), "pair_tail_percentile": tail_pct,
    }
    return values, facts


def run(args, workload) -> int:
    import numpy

    from corpus import write_workload_corpus
    from traced import Tracer, traced_pass

    run_dir = WORK / f"{workload.name}-{args.seed}-trace{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    corpus_dir = run_dir / "corpus"

    setup = SetUp(workload, args.seed, corpus_dir)
    files = setup.run(corpus_dir)
    untraced = UntracedPass(workload, corpus_dir, run_dir)
    metadata = {
        "workload": workload.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": os.cpu_count(), "python": platform.python_version(),
        "numpy": numpy.__version__, "commit": git_commit(),
    }
    problems: list[str] = []
    tracers: list = []
    outcomes: list = []
    span_costs: list[float] = []
    corpus_repeats = []

    def set_up_again():
        corpus_repeats.append(setup.repeat(run_dir / "setup"))

    if args.trace:
        regen_tracer = Tracer()
        for i in range(TRACE_REGENERATIONS):
            with regen_tracer.span("generate.corpus"):
                write_workload_corpus(workload, args.seed, run_dir / f"regen{i}")

        def step():
            plain = untraced.run()
            tracer = Tracer()
            gc.collect()
            cpu0, wall0 = time.process_time(), time.perf_counter()
            outcomes.append(traced_pass(files, workload, tracer))
            cpu, wall = time.process_time() - cpu0, time.perf_counter() - wall0
            tracers.append(tracer)
            span_costs.append(Tracer.span_cost_s())
            set_up_again()
            return plain, cpu, wall

        steps = timed_loop(args.seconds, step)
        passes = [plain for plain, _, _ in steps]
        metadata["traced_cpu_s"] = [cpu for _, cpu, _ in steps]
        metadata["traced_wall_s"] = [wall for _, _, wall in steps]
    else:
        def step():
            plain = untraced.run()
            set_up_again()
            return plain

        passes = timed_loop(args.seconds, step)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        outcomes.append(traced_pass(files, workload, Tracer()))
    while len(setup.cpu) < SETUP_REPEATS:
        set_up_again()
    if not all(corpus_repeats):
        problems.append("the same seed set up a different corpus")

    gate_found, gate_facts = gate_problems(
        passes, outcomes, workload, args.seed, args.record_reference
    )
    problems += gate_found
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    counts = outcomes[0].counts
    pipeline_s = statistics.median(p["cpu_s"] for p in passes)
    metadata.update(
        pairs=counts["pairs"], composite_states=counts["composite_states"],
        product_states=counts["product_states"], pipeline_passes=len(passes),
        pipeline_cpu_s=[p["cpu_s"] for p in passes],
        pipeline_wall_s=[p["wall_s"] for p in passes], setup_cpu_s=setup.cpu,
        setup_wall_s=setup.wall, **gate_facts,
    )
    if args.trace:
        values, layer_facts = layer_values(tracers, regen_tracer, counts, span_costs)
        metadata.update(layer_facts)
        for index, tracer in enumerate([regen_tracer, *tracers]):
            tracer.write(run_dir / "spans.jsonl", index)
    else:
        values = {
            "pipeline_s": pipeline_s,
            "setup_s": statistics.median(setup.cpu),
            "peak_rss_mb": peak_rss_mb,
            "ok_ratio": 1.0 - failed / attempted,
        }

    units = {m["name"]: m["unit"] for key in ("end_to_end", "per_layer")
             for m in json.loads((ROOT / "BENCHMARK.json").read_text())[key]}
    metrics = {name: {"value": value, "unit": units[name]} for name, value in values.items()}
    correct = not problems
    for problem in problems:
        print(f"gate: {problem}", file=sys.stderr)
    (run_dir / "result.json").write_text(
        json.dumps({"metadata": metadata, "metrics": metrics, "problems": problems}, indent=1)
    )
    print(f"{workload.name} seed={args.seed} pairs={counts['pairs']} "
          f"composite_states={counts['composite_states']} passes={len(passes)}")
    if correct:
        for name, metric in metrics.items():
            print(f"  {name:32s} {metric['value']:.6g} {metric['unit']}")
    print(json.dumps({"metadata": metadata}))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics if correct else {}}))
    return 0 if correct else 1


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not (SRC / "ciakit" / "__init__.py").is_file():
        print(f"perfbench: no ciakit sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from corpus import WORKLOADS, write_workload_corpus

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    if args.setup_only:
        write_workload_corpus(WORKLOADS[args.workload], args.seed, Path(args.setup_only))
        return 0
    return run(args, WORKLOADS[args.workload])


if __name__ == "__main__":
    sys.exit(main())
