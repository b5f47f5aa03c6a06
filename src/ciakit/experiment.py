"""Compose-then-refine experiment pipeline over a corpus of automaton pairs.

Each ``.cia`` file in a corpus holds one pair (two automaton blocks).  Per
pair the pipeline runs, on one integer-indexed form (``core.Indexed``):

1. parse and validate both components, and resolve the io policy;
2. the form to refine and the reachable composite's structural metrics
   (``cells.refinable_product``, whose docstring gives the three forms and
   the rule that picks each); no composite state is named;
3. timed refinement of the form (``refine.refine_indexed``);
4. count the quotient's states and the internal transitions it keeps
   (``refine.quotient_triples``, the rule ``refine.quotient`` applies to
   names, here over block ids and the internal labels' edges only);
5. one CSV row.

Row order follows sorted file names regardless of worker count.  Refinement
is considered a success when it merged at least one pair of states.  A pair
whose file cannot be read or decoded, is malformed, or whose pipeline raises
becomes a ``status=error`` row, and the run goes on.  With several workers, a
broken process pool (a worker killed, say) is logged once and every pair it
had not finished becomes an error row; the rows already computed stay, in
file order.

Timing: ``elapsed_ms`` is the wall-clock time of refining the form of step
3 by default, a float of milliseconds written as its exact ``repr``;
composing, indexing and the quotient are not in it, and a product of cells
refines faster than its product, so it reads lower than timing the public
``partition_refine`` on the composite would.  With ``deterministic_timing``
it records the refinement work counter instead, an integer
(``RefineStats.work_units()``: saturated label rows plus node signatures
computed; past the first round, which signs every node, only nodes that
still share a block count), the same on every form (``cells``), which makes
repeated runs byte-identical.  The wall clock still decides ``over_5min``
(refinement past ``OVER_MS``) and enforces the timeout either way.
"""

from __future__ import annotations

import csv
import io
import logging
import statistics
from functools import partial
from itertools import chain, compress, repeat
from pathlib import Path
from typing import Iterable, NamedTuple, get_args, get_type_hints

from .cells import refinable_product
from .core import Automaton
from .errors import CiaError, RefinementTimeout
from .fmt import parse_automata
from .product import IoSets, resolve_io
from .refine import RefineStats, quotient_triples, refine_indexed

OVER_MS = 300_000  # five minutes
BUDGET_S = 7200.0  # default refinement budget, two hours

_log = logging.getLogger(__name__)


class ExperimentRow(NamedTuple):
    """One corpus pair's pipeline outcome, its fields the CSV row's cells in order.

    ``states``/``transitions``/``internal`` and the metrics describe the
    pruned composite; ``success`` is 1 iff refinement merged anything
    (refined_states < states).  On timeout or a malformed pair the row is
    marked via ``status`` and refinement fields fall back to "no reduction".
    """

    pair_id: str
    states_a: int
    states_b: int
    states: int
    transitions: int
    internal: int
    beta: float | None
    gini_in: float | None
    gini_out: float | None
    refined_states: int
    success: int
    reduction_ratio: float
    internal_removed_ratio: float
    elapsed_ms: int | float
    over_5min: int
    timed_out: int
    status: str = "ok"


CSV_COLUMNS = list(ExperimentRow._fields)

# each column's declared types: (str,), (int,), (float, NoneType), or (int, float)
# for elapsed_ms, which holds work units or wall-clock ms
_COLUMN_TYPES = {
    name: get_args(hint) or (hint,) for name, hint in get_type_hints(ExperimentRow).items()
}


def _fmt(value) -> str:
    if value is None:
        return "NA"
    if isinstance(value, float):
        return repr(value)  # shortest representation that round-trips exactly
    return str(value)


def table_to_csv(columns: list[str], records: Iterable[Iterable]) -> str:
    """CSV text of a header and one record per row.

    ``None`` reads ``NA``, floats are their exact ``repr``, and a cell is
    quoted only when it needs to be (a comma or quote in a name).
    """
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(columns)
    for record in records:
        writer.writerow([_fmt(value) for value in record])
    return buffer.getvalue()


def rows_to_csv(rows: list[ExperimentRow]) -> str:
    return table_to_csv(CSV_COLUMNS, rows)


def _read_cell(raw: str, types: tuple[type, ...]):
    """A cell as the first of its column's types that reads it; ``NA`` is ``None`` if allowed."""
    if raw == "NA" and type(None) in types:
        return None
    kinds = [kind for kind in types if kind is not type(None)]
    for kind in kinds[:-1]:
        try:
            return kind(raw)
        except ValueError:
            pass
    return kinds[-1](raw)


def rows_from_csv(text: str) -> list[ExperimentRow]:
    reader = csv.DictReader(io.StringIO(text))
    missing = set(CSV_COLUMNS) - set(reader.fieldnames or ())
    if missing:
        raise CiaError(f"experiment CSV lacks columns {sorted(missing)!r}")
    rows = []
    for number, record in enumerate(reader, start=1):
        # DictReader fills the cells a short row lacks with None and files
        # a long row's surplus cells under the key None
        cut = [col for col in CSV_COLUMNS if record[col] is None]
        if cut:
            raise CiaError(f"experiment CSV row {number} lacks cells for columns {cut!r}")
        if None in record:
            raise CiaError(
                f"experiment CSV row {number} has {len(record[None])} cells more than the header"
            )
        values = []
        for col, types in _COLUMN_TYPES.items():
            try:
                values.append(_read_cell(record[col], types))
            except ValueError:
                raise CiaError(
                    f"experiment CSV row {number} has a bad {col!r} cell {record[col]!r}"
                ) from None
        rows.append(ExperimentRow._make(values))
    return rows


def run_pair(
    pair_id: str,
    first: Automaton,
    second: Automaton,
    io_policy: str | IoSets = "open",
    timeout: float = BUDGET_S,
    deterministic_timing: bool = False,
    strict_internal: bool = False,
) -> ExperimentRow:
    """Full pipeline on one pair of automata."""
    io_sets = resolve_io(io_policy, [first, second])
    composite, pre = refinable_product([first, second], io_sets)
    stats = RefineStats()
    refined, removed, status = pre.states, 0.0, "ok"
    try:
        block, refined = refine_indexed(composite, timeout, strict_internal, stats)
        if pre.internal_transitions:
            internal = composite.internal()
            # count the internal transitions the quotient keeps; the rest are not built
            silent = chain.from_iterable(
                zip(composite.sources[lid], repeat(lid), composite.targets[lid])
                for lid in compress(range(len(internal)), internal)
            )
            left = len(quotient_triples(silent, block, internal))
            removed = 1.0 - left / pre.internal_transitions
    except RefinementTimeout:
        status = "timeout"
    wall_ms = stats.elapsed_s * 1000.0
    return ExperimentRow(
        pair_id, len(first.states), len(second.states), *pre,  # pre: states .. gini_out
        refined_states=refined,
        success=int(refined < pre.states),
        reduction_ratio=1.0 - refined / pre.states if pre.states else 0.0,
        internal_removed_ratio=removed,
        elapsed_ms=stats.work_units() if deterministic_timing else wall_ms,
        over_5min=int(wall_ms > OVER_MS),  # wall-clock time, whatever elapsed_ms counts
        timed_out=int(status == "timeout"),
        status=status,
    )


def _error_row(pair_id: str) -> ExperimentRow:
    """The row of a pair with no outcome: its file is unreadable or malformed,
    its pipeline raised, or its worker died."""
    return ExperimentRow(pair_id, 0, 0, 0, 0, 0, None, None, None, 0, 0, 0.0, 0.0, 0, 0, 0, "error")


def _run_file(job: tuple[Path, str], **options) -> ExperimentRow:
    """The row of one ``(pair file, pair id)`` job; ``options`` go to ``run_pair``."""
    path, pair_id = job
    try:
        automata = parse_automata(path.read_text(encoding="utf-8"))
        if len(automata) != 2:
            raise CiaError(f"pair file must hold exactly 2 automata, found {len(automata)}")
        return run_pair(pair_id, automata[0], automata[1], **options)
    except (CiaError, OSError, UnicodeDecodeError):  # a malformed or unreadable pair file
        return _error_row(pair_id)
    except Exception:  # a bug hit by one pair must not end the whole run
        _log.exception("pair %s failed", pair_id)
        return _error_row(pair_id)


def run_experiment(
    corpus_dir: str | Path,
    io_policy: str | IoSets = "open",
    timeout: float = BUDGET_S,
    workers: int = 1,
    deterministic_timing: bool = False,
    strict_internal: bool = False,
) -> list[ExperimentRow]:
    """Run the pipeline over every pair file, in deterministic file order."""
    if workers < 1:
        raise CiaError("workers must be at least 1")
    corpus = Path(corpus_dir)
    paths = sorted(corpus.glob("*.cia"))
    if not paths:
        raise CiaError(f"no .cia files in {corpus}")
    jobs = [(path, path.stem) for path in paths]
    run = partial(_run_file, io_policy=io_policy, timeout=timeout,
                  deterministic_timing=deterministic_timing, strict_internal=strict_internal)
    workers = min(workers, len(jobs))  # a pool starts every worker it may use
    if workers <= 1:
        return [run(job) for job in jobs]
    # imported here: the pool pulls in multiprocessing, which one worker never needs
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    rows = []
    broken = None
    with ProcessPoolExecutor(max_workers=workers) as pool:
        futures = []
        for job in jobs:
            try:
                futures.append(pool.submit(run, job))
            except BrokenProcessPool as exc:  # this pair and the later ones stay unsubmitted
                broken = exc
                break
        for job, future in zip(jobs, futures):
            try:
                rows.append(future.result())
            except BrokenProcessPool as exc:  # a worker died: its pairs and the queued ones
                broken = broken or exc
                rows.append(_error_row(job[1]))
    if broken:
        _log.error("worker pool broke (%s); unfinished pairs become error rows", broken)
    return rows + [_error_row(job[1]) for job in jobs[len(rows):]]


def _band_summary(values: list[float]) -> dict:
    if not values:
        return {"rows": 0}
    return {
        "rows": len(values),
        "min": min(values),
        "median": statistics.median(values),
        "mean": statistics.fmean(values),
        "max": max(values),
    }


def reduction_report(rows: list[ExperimentRow]) -> dict:
    """Distribution of removed internal synchronizations per reduction band.

    For each reduction-ratio band (>=50%, >=75%) summarizes the
    internal_removed_ratio of the rows that achieved it, which exposes how
    much internal-synchronization removal strong reductions require.
    """
    if not rows:
        raise CiaError("empty experiment: no rows to report on")
    usable = [row for row in rows if row.status == "ok"]
    report = {
        "rows": len(rows),
        "usable": len(usable),
        "successes": sum(row.success for row in usable),
        "bands": {},
    }
    for cut in (0.5, 0.75):
        achieved = [row.internal_removed_ratio for row in usable if row.reduction_ratio >= cut]
        report["bands"][f"reduction>={cut:g}"] = _band_summary(achieved)
    return report
