"""Run every workload on several seeds and summarise each metric.

Usage, from the repository root::

    python3 perfbench/collect.py --runs 10 --trace-runs 3 --out perfbench/baseline.json

For every workload in ``BENCHMARK.json`` it makes ``--runs`` untraced runs on
seeds 1..runs and ``--trace-runs`` traced runs on the first seeds, one after
another, each measuring for the file's ``run_seconds``, and
prints every metric by name with its unit, its median and its spread: the
distance between the quartiles (``statistics.quantiles`` with n=4) as a
share of the median.  ``--out`` writes the summary, with every value, as
JSON.  A run that is not correct stops the collection.
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def run_once(workload: str, seed: int, seconds: int, trace: int,
             extra: tuple[str, ...] = ()) -> tuple[dict, dict]:
    done = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace), *extra],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    lines = done.stdout.splitlines()
    if done.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed} trace {trace} failed:\n{done.stderr}")
    return json.loads(lines[-2])["metadata"], json.loads(lines[-1])


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.machine()


def summarise(values: list[float]) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else None, "values": values}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--trace-runs", type=int, default=1)
    parser.add_argument("--out", help="write the summary as JSON here")
    parser.add_argument("--record-references", action="store_true",
                        help="store the untraced runs' output digests in references.json")
    args = parser.parse_args(argv)

    seconds = spec["run_seconds"]
    summary = {"run_seconds": seconds, "workloads": {}}
    for name in (w["name"] for w in spec["workloads"]):
        results: dict[int, list[dict]] = {0: [], 1: []}
        for trace, count in ((0, args.runs), (1, args.trace_runs)):
            for seed in range(1, count + 1):
                extra = ("--record-reference",) if args.record_references and not trace else ()
                metadata, result = run_once(name, seed, seconds, trace, extra)
                if not result["correct"]:
                    raise SystemExit(f"{name} seed {seed}: gate failed")
                results[trace].append(result)
                summary.setdefault("machine", {
                    "cpu": cpu_model(),
                    **{key: metadata[key] for key in ("nproc", "python", "numpy", "commit")},
                })
        entry = {"seeds": list(range(1, args.runs + 1))}
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            if results[trace]:
                metrics = results[trace][0]["metrics"]
                entry[key] = {
                    metric: summarise([r["metrics"][metric]["value"] for r in results[trace]])
                    | {"unit": metrics[metric]["unit"]}
                    for metric in metrics
                }
        summary["workloads"][name] = entry
        for group in ("end_to_end", "per_layer"):
            for metric, stats in entry.get(group, {}).items():
                spread = "-" if stats["spread"] is None else f"{stats['spread']:.3f}"
                print(f"{name:14s} {metric:28s} median {stats['median']:<12.6g} "
                      f"{stats['unit']:8s} spread {spread}", flush=True)
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
