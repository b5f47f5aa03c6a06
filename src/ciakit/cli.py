"""Command-line front end.

Subcommands: parse, compose, refine, metrics, generate, experiment, regress,
dot.  Each takes ``--out`` (output file, default stdout; for generate, the
required corpus directory) and only the shared options its handler reads:
``--timeout`` and ``--strict-internal`` (compose, refine, experiment),
``--format csv|json`` (metrics, experiment), ``--seed`` (generate) and
``--workers`` (experiment); any other is a usage error.  Exit codes: 0
success, 1 usage error, 2 data error, 3 experiment run dominated by
refinement timeouts (at least one timed-out row).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import asdict, fields
from pathlib import Path

from .core import Automaton
from .dot import export_dot
from .errors import CiaError
from .experiment import (
    BUDGET_S,
    CSV_COLUMNS,
    OVER_MS,
    reduction_report,
    rows_from_csv,
    run_experiment,
    table_to_csv,
)
from .fmt import parse_automata, serialize_automaton
from .generate import GenParams, generate_corpus, write_corpus
from .metrics import metrics_record
from .product import IoSets, compose, compose_pairwise_reduce, resolve_io
from .refine import partition_refine, quotient
from .regress import classify, fit_logistic, threshold_x


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2; usage errors are 1 here
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _read_automata(paths: list[str]) -> list[Automaton]:
    automata = []
    for path in paths:
        automata.extend(parse_automata(Path(path).read_text(encoding="utf-8")))
    return automata


def _emit(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _split_actions(value: str | None) -> frozenset[str]:
    if not value:
        return frozenset()
    return frozenset(tok for tok in value.split(",") if tok)


def _io_policy(args) -> str | IoSets:
    """Explicit --provided/--required sets override the --io policy name."""
    if args.provided is not None or args.required is not None:
        return IoSets(_split_actions(args.provided), _split_actions(args.required))
    return args.io


def _warn_closed_default(args) -> None:
    """Closed io makes every label internal, so default semantics merges every state."""
    if _io_policy(args) == "closed" and not args.strict_internal:
        sys.stderr.write(
            "ciakit: warning: with --io closed every label is internal, so in the default "
            "semantics every composite collapses to one state; --strict-internal matches "
            "internal labels exactly\n"
        )


_METRICS_COLUMNS = ["name", "states", "transitions", "internal", "beta", "gini_in", "gini_out"]


def _parse_states_range(text: str) -> tuple[int, int]:
    lo, dots, hi = text.partition("..")  # only a text without ".." is a single count
    try:
        return (int(lo), int(hi if dots else lo))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected integers MIN..MAX, got {text!r}") from None


def _parse_probability(text: str) -> float:
    try:
        if 0 < float(text) < 1:  # false for NaN
            return float(text)
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(
        f"expected a probability strictly between 0 and 1, got {text!r}"
    )


def _parse_timeout(text: str) -> float:
    try:
        if not math.isnan(float(text)):  # NaN compares false with every time: no budget
            return float(text)
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"expected a number of seconds, got {text!r}")


def _parse_mix(text: str) -> tuple[float, float, float]:
    try:
        a, b, c = map(float, text.split(","))
    except ValueError:  # argparse names the function for any error but this type's
        raise argparse.ArgumentTypeError(
            f"expected three comma-separated proportions, got {text!r}"
        ) from None
    return a, b, c


def _cmd_parse(args) -> int:
    automata = _read_automata(args.files)
    _emit("".join(serialize_automaton(a) for a in automata), args.out)
    return 0


def _cmd_compose(args) -> int:
    components = _read_automata(args.files)
    io_sets = resolve_io(_io_policy(args), components)
    if args.pairwise:
        _warn_closed_default(args)
        result = compose_pairwise_reduce(
            components, io_sets, timeout=args.timeout, strict_internal=args.strict_internal
        )
    else:
        result = compose(components, io_sets)
    _emit(serialize_automaton(result), args.out)
    return 0


def _cmd_refine(args) -> int:
    out = []
    for automaton in _read_automata(args.files):
        partition = partition_refine(
            automaton, timeout=args.timeout, strict_internal=args.strict_internal
        )
        out.append(serialize_automaton(quotient(automaton, partition)))
    _emit("".join(out), args.out)
    return 0


def _emit_table(columns: list[str], records: list, args) -> None:
    """The records as ``--format`` says: CSV, or a JSON list of objects keyed by ``columns``."""
    if args.format == "json":
        _emit(json.dumps([dict(zip(columns, r)) for r in records], indent=2) + "\n", args.out)
    else:
        _emit(table_to_csv(columns, records), args.out)


def _cmd_metrics(args) -> int:
    records = [[a.name, *metrics_record(a)] for a in _read_automata(args.files)]
    _emit_table(_METRICS_COLUMNS, records, args)
    return 0


def _cmd_generate(args) -> int:
    params = GenParams(**{f.name: getattr(args, f.name) for f in fields(GenParams)})
    pairs = generate_corpus(params, args.pairs, disjoint_alphabets=args.disjoint_alphabets)
    written = write_corpus(pairs, args.out)
    sys.stderr.write(f"wrote {len(written)} pair files to {args.out}\n")
    return 0


def _cmd_experiment(args) -> int:
    if args.report:
        rows = rows_from_csv(Path(args.report).read_text(encoding="utf-8"))
        _emit(json.dumps(reduction_report(rows), indent=2) + "\n", args.out)
        return 0
    if not args.corpus:
        raise CiaError("experiment needs --corpus DIR (or --report CSV)")
    _warn_closed_default(args)
    rows = run_experiment(
        args.corpus,
        io_policy=_io_policy(args),
        timeout=args.timeout,
        workers=args.workers,
        deterministic_timing=args.deterministic_timing,
        strict_internal=args.strict_internal,
    )
    _emit_table(CSV_COLUMNS, rows, args)
    return 3 if any(row.timed_out for row in rows) else 0


def _cmd_regress(args) -> int:
    rows = rows_from_csv(Path(args.csv).read_text(encoding="utf-8"))
    xs, ys = [], []
    for row in rows:
        if row.status != "ok" and not (args.y == "over5min" and row.status == "timeout"):
            continue
        x = getattr(row, args.x)
        if x is None:
            continue
        xs.append(float(x))
        ys.append(row.success if args.y == "success" else int(row.elapsed_ms > args.over_ms))
    fit = fit_logistic(xs, ys)
    report = classify(fit, xs, ys, cutoff=args.cutoff)
    payload = {
        "n": len(xs),
        "x": args.x,
        "y": args.y,
        "a": fit.a,
        "b": fit.b,
        "se_a": fit.se_a,
        "se_b": fit.se_b,
        "chi2": fit.chi2,
        "p": fit.p_value,
        "converged": fit.converged,
        "sensitivity": report.sensitivity,
        "specificity": report.specificity,
        f"threshold_x@{args.cutoff:g}": threshold_x(fit, args.cutoff) if fit.b != 0 else None,
    }
    _emit(json.dumps(payload, indent=2) + "\n", args.out)
    return 0


def _cmd_dot(args) -> int:
    _emit("".join(export_dot(a) for a in _read_automata(args.files)), args.out)
    return 0


# each shared option: its flags, its settings and the subcommands that take it
_SHARED_OPTIONS = [
    (("--out",), dict(help="output file (default stdout)"),
     ("parse", "compose", "refine", "metrics", "experiment", "regress", "dot")),
    (("files",), dict(nargs="+"), ("parse", "compose", "refine", "metrics", "dot")),
    (("--timeout",), dict(type=_parse_timeout, default=BUDGET_S, help="refinement budget, seconds"),
     ("compose", "refine", "experiment")),
    (("--format",), dict(choices=("csv", "json"), default="csv"), ("metrics", "experiment")),
    (("--io",), dict(choices=("open", "closed"), default="open"), ("compose", "experiment")),
    (("--provided",), dict(help="comma-separated provided actions (overrides --io)"),
     ("compose", "experiment")),
    (("--required",), dict(help="comma-separated required actions (overrides --io)"),
     ("compose", "experiment")),
    (("--strict-internal",),
     dict(action="store_true",
          help="match internal moves by exact label instead of silent closure"),
     ("compose", "refine", "experiment")),
]


def _build_parser() -> _Parser:
    parser = _Parser(prog="ciakit", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {}
    for name, text, func in [
        ("parse", "validate and canonicalize documents", _cmd_parse),
        ("compose", "product composition", _cmd_compose),
        ("refine", "weak-bisimulation reduction", _cmd_refine),
        ("metrics", "structural metrics per automaton", _cmd_metrics),
        ("generate", "write a seeded corpus of pairs", _cmd_generate),
        ("experiment", "compose/refine every corpus pair into CSV rows", _cmd_experiment),
        ("regress", "logistic model over experiment CSV", _cmd_regress),
        ("dot", "Graphviz DOT export", _cmd_dot),
    ]:
        commands[name] = sub.add_parser(name, help=text)
        commands[name].set_defaults(func=func)
    # shared options come first, in table order, as the help lists them
    for flags, settings, names in _SHARED_OPTIONS:
        for name in names:
            commands[name].add_argument(*flags, **settings)

    commands["compose"].add_argument("--pairwise", action="store_true",
                                     help="fold pairwise, reducing each step")

    p = commands["generate"]
    p.add_argument("--out", required=True, help="corpus directory")
    p.add_argument("--pairs", type=int, required=True)
    p.add_argument("--seed", type=int, help="random seed")
    p.add_argument("--beta", dest="target_beta", metavar="BETA", type=float,
                   help="target scaling exponent")
    p.add_argument("--states", dest="state_count_range", metavar="STATES",
                   type=_parse_states_range, help="state count range MIN..MAX")
    p.add_argument("--clique-bias", type=float)
    p.add_argument("--alphabet-size", type=int)
    p.add_argument("--pa-strength", type=float)
    p.add_argument("--kind-mix", type=_parse_mix, help="input,output,internal proportions")
    p.add_argument("--disjoint-alphabets", action="store_true")
    p.add_argument("--avoid-deadlocks", action="store_true",
                   help="route extra edges out of terminal states first")
    # every generator default is GenParams' own
    p.set_defaults(**asdict(GenParams()))

    p = commands["experiment"]
    p.add_argument("--corpus", help="directory of pair .cia files")
    p.add_argument("--report", metavar="CSV",
                   help="summarize an existing experiment CSV instead of running")
    p.add_argument("--workers", type=int, default=1, help="parallel workers")
    p.add_argument("--deterministic-timing", action="store_true",
                   help="record refinement work units instead of wall-clock ms")

    p = commands["regress"]
    p.add_argument("--csv", required=True)
    p.add_argument("--x", required=True, choices=("beta", "states", "gini_in", "gini_out"))
    p.add_argument("--y", required=True, choices=("success", "over5min"))
    p.add_argument("--cutoff", type=_parse_probability, default=0.5)
    p.add_argument("--over-ms", type=int, default=OVER_MS,
                   help="over5min means elapsed_ms above this, in the CSV's unit: ms, or "
                        "work units for a --deterministic-timing CSV (default %(default)s, "
                        "five minutes in ms)")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (CiaError, OSError, ValueError) as exc:
        sys.stderr.write(f"ciakit: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
