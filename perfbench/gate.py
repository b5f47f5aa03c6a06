"""Correctness gate: runs outside the timed passes and decides ``correct``.

A run is correct when

* the ``ciakit experiment`` CSV of every untimed pass, without its timing
  columns, is the same text, has one ``ok`` row per pair, and equals the CSV
  the traced pass builds from its own calls;
* every quotient is a valid reduction: one state per block of a partition of
  the composite's states, and no silent self-loop left;
* on a sample of composites small enough for the brute-force oracle, the
  blocks equal the classes of ``weak_bisim_relation``, and, in the default
  semantics, on a sample of small quotients no two distinct states are
  weakly bisimilar (with ``strict_internal`` the quotient drops silent
  self-loops whose exact label strict matching still needs, so ciakit does
  not promise a minimal quotient there);
* ``ciakit regress``, where the workload runs it, succeeds and agrees with
  the traced pass's fit;
* for every seed recorded in ``references.json`` (each workload's default
  seed and seeds 1..10), the CSV and quotient digests, the pair count and
  the composite-state total equal the recorded ones.

Each check returns a list of problems; an empty list means it passed.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
from pathlib import Path

from ciakit import LabelKind, serialize_automaton, weak_bisim_relation

ORACLE_MAX_STATES = 40
ORACLE_SAMPLE = 4
TIMING_COLUMNS = ("elapsed_ms", "over_5min")
REFERENCES = Path(__file__).with_name("references.json")


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def canonical_csv(text: str) -> str:
    """The experiment CSV without the columns that hold measured time."""
    reader = csv.reader(io.StringIO(text))
    header = next(reader)
    keep = [i for i, col in enumerate(header) if col not in TIMING_COLUMNS]
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow([header[i] for i in keep])
    for record in reader:
        writer.writerow([record[i] for i in keep])
    return buffer.getvalue()


def quotients_text(quotients) -> str:
    return "".join(serialize_automaton(q) for q in quotients)


def digests(csv_text: str, quotients) -> dict[str, str]:
    return {
        "csv_sha256": sha256(canonical_csv(csv_text)),
        "quotients_sha256": sha256(quotients_text(quotients)),
    }


def check_cli_csv(cli_csv: str, outcome) -> list[str]:
    """The CLI's rows: all ``ok``, one per pair, equal to the traced pass's."""
    if not cli_csv:
        return ["ciakit experiment wrote no CSV"]
    problems = []
    records = list(csv.DictReader(io.StringIO(cli_csv)))
    if len(records) != len(outcome.rows):
        problems.append(f"experiment CSV has {len(records)} rows for {len(outcome.rows)} pairs")
    bad = [r["pair_id"] for r in records if r.get("status") != "ok"]
    if bad:
        problems.append(f"rows not ok: {bad[:5]}")
    if canonical_csv(cli_csv) != canonical_csv(outcome.csv_text):
        problems.append("experiment CSV differs from the rows the traced pass computed")
    return problems


def check_quotients(outcome) -> list[str]:
    problems = []
    for row, composite, partition, reduced in zip(
        outcome.rows, outcome.composites, outcome.partitions, outcome.quotients
    ):
        covered = set().union(*partition.blocks)
        if covered != set(composite.states):
            problems.append(f"{row.pair_id}: partition does not cover the composite's states")
        if len(reduced.states) != partition.block_count():
            problems.append(f"{row.pair_id}: quotient has {len(reduced.states)} states "
                            f"for {partition.block_count()} blocks")
        loops = [t for t in reduced.transitions
                 if t.source == t.target and t.label.kind is LabelKind.INTERNAL]
        if loops:
            problems.append(f"{row.pair_id}: quotient keeps silent self-loop {loops[0]}")
    return problems


def _spread_sample(indices: list[int], size: int) -> list[int]:
    if len(indices) <= size:
        return indices
    return [indices[k * len(indices) // size] for k in range(size)]


def _classes(relation, states) -> set[frozenset[str]]:
    related: dict[str, set[str]] = {state: {state} for state in states}
    for a, b in relation:
        related[a].add(b)
    return {frozenset(members) for members in related.values()}


def check_oracle(outcome, strict_internal: bool) -> tuple[list[str], int]:
    """Brute-force checks on a sample; returns (problems, automata checked)."""
    problems = []
    small = [i for i, c in enumerate(outcome.composites) if len(c.states) <= ORACLE_MAX_STATES]
    chosen = _spread_sample(small, ORACLE_SAMPLE)
    for i in chosen:
        composite = outcome.composites[i]
        relation = weak_bisim_relation(
            composite, ORACLE_MAX_STATES, strict_internal=strict_internal
        )
        if _classes(relation, composite.states) != set(outcome.partitions[i].blocks):
            problems.append(f"{outcome.rows[i].pair_id}: blocks differ from the oracle's classes")
    small_q = [
        i for i, q in enumerate(outcome.quotients)
        if 1 < len(q.states) <= ORACLE_MAX_STATES and i not in chosen and not strict_internal
    ]
    chosen_q = _spread_sample(small_q, ORACLE_SAMPLE)
    for i in chosen_q:
        relation = weak_bisim_relation(
            outcome.quotients[i], ORACLE_MAX_STATES, strict_internal=strict_internal
        )
        if any(a != b for a, b in relation):
            problems.append(f"{outcome.rows[i].pair_id}: quotient states still weakly bisimilar")
    return problems, len(chosen) + len(chosen_q)


def check_regress(cli_json: str | None, outcome) -> list[str]:
    if outcome.regress is None:
        return []
    if cli_json is None:
        return ["ciakit regress failed"]
    cli = json.loads(cli_json)
    problems = []
    if not cli.get("converged"):
        problems.append("logistic fit did not converge")
    for key in ("n", "b", "sensitivity"):
        if cli.get(key) != outcome.regress[key]:
            problems.append(f"regress {key}: CLI {cli.get(key)!r} vs traced {outcome.regress[key]!r}")
    return problems


def load_references() -> dict:
    return json.loads(REFERENCES.read_text(encoding="utf-8"))


def reference_for(workload: str, seed: int) -> dict | None:
    return load_references().get(workload, {}).get(str(seed))


def record_reference(workload: str, seed: int, actual: dict) -> None:
    references = load_references()
    references.setdefault(workload, {})[str(seed)] = actual
    REFERENCES.write_text(json.dumps(references, indent=1, sort_keys=True) + "\n",
                          encoding="utf-8")


def check_reference(expected: dict | None, actual: dict) -> list[str]:
    """Compare a run's digests and corpus size with a recorded reference."""
    if expected is None:
        return []
    return [
        f"{key}: expected {value!r}, got {actual.get(key)!r}"
        for key, value in expected.items()
        if actual.get(key) != value
    ]
