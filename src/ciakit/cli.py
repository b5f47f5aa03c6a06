"""Command-line front end.

Subcommands: parse, compose, refine, metrics, generate, experiment, regress,
dot.  Each takes ``--out`` (output file, default stdout; for generate, the
required corpus directory) and only the shared options its handler reads:
``--timeout`` and ``--strict-internal`` (compose, refine, experiment),
``--format csv|json`` (metrics, experiment), ``--seed`` (generate) and
``--workers`` (experiment); any other is a usage error.  Exit codes: 0
success, 1 usage error, 2 data error, 3 experiment run dominated by
refinement timeouts (at least one timed-out row).

Compose and experiment also take ``--io open|closed`` and ``--provided`` /
``--required`` (comma-separated actions that override ``--io``).  One table,
``_OPTIONS``, lists every option with the commands that take it.  A call
builds one parser: only the invoked command's, when the command line starts
with a command.  The whole command tree is built only for a command line
that does not, and to report leftover arguments.  ``--help`` prints this
docstring but its last paragraph.
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

_HELP = __doc__.rsplit("\n\n", 1)[0]


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


_COMMANDS = {
    "parse": ("validate and canonicalize documents", _cmd_parse),
    "compose": ("product composition", _cmd_compose),
    "refine": ("weak-bisimulation reduction", _cmd_refine),
    "metrics": ("structural metrics per automaton", _cmd_metrics),
    "generate": ("write a seeded corpus of pairs", _cmd_generate),
    "experiment": ("compose/refine every corpus pair into CSV rows", _cmd_experiment),
    "regress": ("logistic model over experiment CSV", _cmd_regress),
    "dot": ("Graphviz DOT export", _cmd_dot),
}

_GENERATE, _EXPERIMENT, _REGRESS = ("generate",), ("experiment",), ("regress",)
# every option: its flags, its settings and the commands that take it; a
# command's help lists its options in table order
_OPTIONS = [
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
    (("--pairwise",), dict(action="store_true", help="fold pairwise, reducing each step"),
     ("compose",)),
    (("--out",), dict(required=True, help="corpus directory"), _GENERATE),
    (("--pairs",), dict(type=int, required=True), _GENERATE),
    (("--seed",), dict(type=int, help="random seed"), _GENERATE),
    (("--beta",), dict(dest="target_beta", metavar="BETA", type=float,
                       help="target scaling exponent"), _GENERATE),
    (("--states",), dict(dest="state_count_range", metavar="STATES",
                         type=_parse_states_range, help="state count range MIN..MAX"), _GENERATE),
    (("--clique-bias",), dict(type=float), _GENERATE),
    (("--alphabet-size",), dict(type=int), _GENERATE),
    (("--pa-strength",), dict(type=float), _GENERATE),
    (("--kind-mix",), dict(type=_parse_mix, help="input,output,internal proportions"), _GENERATE),
    (("--disjoint-alphabets",), dict(action="store_true"), _GENERATE),
    (("--avoid-deadlocks",), dict(action="store_true",
                                  help="route extra edges out of terminal states first"),
     _GENERATE),
    (("--corpus",), dict(help="directory of pair .cia files"), _EXPERIMENT),
    (("--report",), dict(metavar="CSV",
                         help="summarize an existing experiment CSV instead of running"),
     _EXPERIMENT),
    (("--workers",), dict(type=int, default=1, help="parallel workers"), _EXPERIMENT),
    (("--deterministic-timing",),
     dict(action="store_true", help="record refinement work units instead of wall-clock ms"),
     _EXPERIMENT),
    (("--csv",), dict(required=True), _REGRESS),
    (("--x",), dict(required=True, choices=("beta", "states", "gini_in", "gini_out")), _REGRESS),
    (("--y",), dict(required=True, choices=("success", "over5min")), _REGRESS),
    (("--cutoff",), dict(type=_parse_probability, default=0.5), _REGRESS),
    (("--over-ms",),
     dict(type=int, default=OVER_MS,
          help="over5min means elapsed_ms above this, in the CSV's unit: ms, or "
               "work units for a --deterministic-timing CSV (default %(default)s, "
               "five minutes in ms)"),
     _REGRESS),
]


def _add_command(parser: _Parser, name: str) -> _Parser:
    """Give ``parser`` command ``name``'s options and handler."""
    for flags, settings, names in _OPTIONS:
        if name in names:
            parser.add_argument(*flags, **settings)
    parser.set_defaults(func=_COMMANDS[name][1])
    if name == "generate":  # every generator default is GenParams' own
        parser.set_defaults(**asdict(GenParams()))
    return parser


def _top_parser() -> _Parser:
    """The whole command tree: it parses a command line that does not start
    with a command, and it reports leftover arguments."""
    parser = _Parser(prog="ciakit", description=_HELP)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (text, _) in _COMMANDS.items():
        _add_command(sub.add_parser(name, help=text), name)
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv and argv[0] in _COMMANDS:
        parser = _add_command(_Parser(prog=f"ciakit {argv[0]}"), argv[0])
        args, extras = parser.parse_known_args(argv[1:])
        if extras:  # the tree reports leftovers at its top, under its own usage
            _top_parser().error(f"unrecognized arguments: {' '.join(extras)}")
    else:
        args = _top_parser().parse_args(argv)  # help, or a usage error: it exits
    try:
        return args.func(args)
    except (CiaError, OSError, ValueError) as exc:
        sys.stderr.write(f"ciakit: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
