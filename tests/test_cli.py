import csv
import hashlib
import json
import sys

import pytest

from ciakit import cli
from ciakit.cli import main
from ciakit import (
    ExperimentRow,
    GenParams,
    IoSets,
    compose,
    compose_pairwise_reduce,
    default_io_sets,
    fit_logistic,
    generate_corpus,
    generate_primitive,
    metrics_record,
    parse_automata,
    reachable,
    run_experiment,
    serialize_automaton,
    write_corpus,
)
from ciakit.experiment import rows_from_csv, rows_to_csv
from conftest import aut, colliding_pair, handshake_pair, nested_document
from oracles import weak_bisim_oracle

MINIMAL = """\
automaton M
hierarchy (A)
states s0 s1
initial s0
trans s0 (-,m,A) s1
end
"""


@pytest.fixture
def doc(tmp_path):
    path = tmp_path / "m.cia"
    path.write_text(MINIMAL, encoding="utf-8")
    return path


@pytest.fixture
def pair_file(tmp_path):
    a, b = handshake_pair()
    path = tmp_path / "pair.cia"
    path.write_text(serialize_automaton(a) + serialize_automaton(b), encoding="utf-8")
    return path


def _csv_then_json(args, capsys):
    """Run ``args`` for CSV, then for JSON: the CSV header, its rows, the JSON records."""
    assert main(args) == 0
    header, *rows = csv.reader(capsys.readouterr().out.splitlines())
    assert main([*args, "--format", "json"]) == 0
    return header, rows, json.loads(capsys.readouterr().out)


def _three_components(tmp_path, c_label):
    """A sends m to B; C has one move on ``c_label``; all three in one file."""
    a = aut("A", ("A",), ["a0", "a1"], [("a0", ("A", "m", None), "a1")])
    b = aut("B", ("B",), ["b0", "b1"], [("b0", (None, "m", "B"), "b1")])
    c = aut("C", ("C",), ["c0", "c1"], [("c0", c_label, "c1")])
    path = tmp_path / "three.cia"
    path.write_text("".join(serialize_automaton(x) for x in (a, b, c)), encoding="utf-8")
    return path


class TestParse:
    def test_canonicalizes(self, doc, capsys):
        assert main(["parse", str(doc)]) == 0
        assert capsys.readouterr().out == MINIMAL

    def test_data_error_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.cia"
        bad.write_text("automaton X\nhierarchy (A)\nstates s0\nend\n", encoding="utf-8")
        assert main(["parse", str(bad)]) == 2
        assert "initial set is empty" in capsys.readouterr().err

    def test_missing_file_exit_2(self, tmp_path):
        assert main(["parse", str(tmp_path / "nope.cia")]) == 2

    def test_usage_error_exit_1(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["parse"])                       # missing file argument
        assert err.value.code == 1
        with pytest.raises(SystemExit) as err:
            main(["frobnicate"])                  # unknown subcommand
        assert err.value.code == 1


    @pytest.mark.parametrize("levels", [450, 2000])
    def test_deep_hierarchy_is_data_error(self, levels, tmp_path, capsys):
        deep = tmp_path / "deep.cia"
        deep.write_text(nested_document(levels), encoding="utf-8")
        assert main(["parse", str(deep)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "ciakit: line 2: hierarchy nested deeper than 100 levels\n"

    def test_hierarchy_at_the_depth_bound_round_trips(self, tmp_path, capsys):
        text = nested_document(100)
        deep = tmp_path / "deep.cia"
        deep.write_text(text, encoding="utf-8")
        assert main(["parse", str(deep)]) == 0
        assert capsys.readouterr().out == text


class TestComposeRefine:
    def test_compose_closed(self, pair_file, capsys):
        assert main(["compose", str(pair_file), "--io", "closed"]) == 0
        out = capsys.readouterr().out
        assert "automaton AB" in out
        assert "trans (a0,b0) (B,m,A) (a1,b1)" in out
        assert out.count("trans") == 1

    def test_compose_with_overrides(self, pair_file, capsys):
        assert main(["compose", str(pair_file), "--provided", "m", "--required", "m"]) == 0
        assert capsys.readouterr().out.count("trans") == 5

    @pytest.mark.parametrize(
        "io_args", [["--io", "closed"], ["--io", "open"], ["--provided", "m", "--required", ""]]
    )
    def test_experiment_resolves_io_like_compose(self, pair_file, capsys, io_args):
        assert main(["compose", str(pair_file), *io_args]) == 0
        [printed] = parse_automata(capsys.readouterr().out)
        composite = reachable(printed)
        corpus = str(pair_file.parent)
        assert main(["experiment", "--corpus", corpus, "--format", "json", *io_args]) == 0
        row = json.loads(capsys.readouterr().out)[0]
        assert (row["states"], row["transitions"]) == (
            len(composite.states),
            len(composite.transitions),
        )

    def test_compose_pairwise(self, pair_file, capsys):
        assert main(["compose", str(pair_file), "--io", "closed", "--pairwise"]) == 0
        out = capsys.readouterr().out
        assert "states r0\n" in out

    def test_compose_pairwise_open_io_on_action_of_a_later_component(self, tmp_path, capsys):
        # only C uses w: the first step (A with B) must not be given w
        path = _three_components(tmp_path, (None, "w", "C"))
        assert main(["compose", str(path), "--pairwise"]) == 0
        [folded] = parse_automata(capsys.readouterr().out)
        components = parse_automata(path.read_text(encoding="utf-8"))
        io = default_io_sets(components)
        assert weak_bisim_oracle(folded, reachable(compose(components, io)))

    def test_compose_pairwise_provided_action_of_a_later_component(self, tmp_path, capsys):
        # --provided w names an output only C has, which n-ary compose accepts
        path = _three_components(tmp_path, ("C", "w", None))
        args = ["compose", str(path), "--provided", "w"]
        assert main(args) == 0
        [printed] = parse_automata(capsys.readouterr().out)
        nary = reachable(printed)
        assert main([*args, "--pairwise"]) == 0
        [folded] = parse_automata(capsys.readouterr().out)
        assert "(C,w,-)" in {t.label.render() for t in folded.transitions}
        assert weak_bisim_oracle(folded, nary)

    @pytest.mark.parametrize("extra", [[], ["--pairwise"]], ids=["nary", "pairwise"])
    def test_compose_rejects_colliding_state_tokens(self, extra, tmp_path, capsys):
        path = tmp_path / "clash.cia"
        path.write_text("".join(map(serialize_automaton, colliding_pair())), encoding="utf-8")
        assert main(["compose", str(path), *extra]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "'(a,b,c)' names two product states" in captured.err

    def test_compose_rejects_a_product_too_large_to_number(self, tmp_path, capsys):
        # 70 two-state components: 2^70 product states, more than a list holds
        comps = [aut(f"C{i}", (f"C{i}",), ["s0", "s1"]) for i in range(70)]
        path = tmp_path / "seventy.cia"
        path.write_text("".join(map(serialize_automaton, comps)), encoding="utf-8")
        assert main(["compose", str(path), "--io", "closed"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"ciakit: the product has {2**70} states, too many to number\n"
        assert main(["compose", str(path), "--io", "closed", "--pairwise"]) == 0

    def test_refine(self, tmp_path, capsys):
        chain = aut(
            states=["s0", "s1", "s2"],
            trans=[("s0", ("A", "t", "A"), "s1"), ("s1", ("A", "t", "A"), "s2")],
        )
        path = tmp_path / "chain.cia"
        path.write_text(serialize_automaton(chain), encoding="utf-8")
        assert main(["refine", str(path)]) == 0
        out = capsys.readouterr().out
        assert "states r0\n" in out
        assert "trans" not in out

    def test_refine_strict_internal(self, tmp_path, capsys):
        chain = aut(
            states=["s0", "s1", "s2"],
            trans=[("s0", ("A", "t", "A"), "s1"), ("s1", ("A", "t", "A"), "s2")],
        )
        path = tmp_path / "chain.cia"
        path.write_text(serialize_automaton(chain), encoding="utf-8")
        assert main(["refine", str(path), "--strict-internal"]) == 0
        assert "states r0 r1 r2" in capsys.readouterr().out


def _closed_run(command, pair_file):
    """CLI arguments of a closed-io run and the output the library gives for it."""
    if command == "experiment":
        corpus = pair_file.parent
        args = ["experiment", "--corpus", str(corpus), "--deterministic-timing"]
        expected = rows_to_csv(run_experiment(corpus, "closed", deterministic_timing=True))
    else:
        args = ["compose", str(pair_file), "--pairwise"]
        components = parse_automata(pair_file.read_text(encoding="utf-8"))
        expected = serialize_automaton(compose_pairwise_reduce(components, IoSets.closed()))
    return [*args, "--io", "closed"], expected


@pytest.mark.parametrize("command", ["experiment", "compose"])
def test_closed_io_in_default_semantics_warns_once(command, pair_file, capsys):
    args, expected = _closed_run(command, pair_file)
    assert main(args) == 0
    captured = capsys.readouterr()
    assert captured.err.count("warning") == 1
    assert "every composite collapses to one state" in captured.err
    assert captured.out == expected


@pytest.mark.parametrize("command", ["experiment", "compose"])
@pytest.mark.parametrize("extra", [["--strict-internal"], ["--io", "open"]], ids=["strict", "open"])
def test_no_closed_io_warning(command, extra, pair_file, capsys):
    args, _ = _closed_run(command, pair_file)
    assert main([*args, *extra]) == 0
    assert capsys.readouterr().err == ""


class TestMetrics:
    def test_csv_with_na(self, tmp_path, capsys):
        single = aut(states=["s0"])
        path = tmp_path / "one.cia"
        path.write_text(serialize_automaton(single), encoding="utf-8")
        assert main(["metrics", str(path)]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "name,states,transitions,internal,beta,gini_in,gini_out"
        assert out[1] == "A,1,0,0,NA,NA,NA"

    def test_csv_quotes_names_and_keeps_exact_floats(self, tmp_path, capsys):
        comma = aut(
            name="A,B",
            states=["s0", "s1", "s2"],
            trans=[("s0", ("A", f"t{i}", "A"), dst) for i, dst in enumerate(["s1", "s2"])]
            + [("s1", (None, "m", "A"), "s2"), ("s2", ("A", "n", None), "s0"),
               ("s2", ("A", "t0", "A"), "s2")],
        )
        path = tmp_path / "two.cia"
        path.write_text(
            serialize_automaton(comma) + serialize_automaton(generate_primitive(GenParams(seed=3))),
            encoding="utf-8",
        )
        assert main(["metrics", str(path)]) == 0
        header, *rows = csv.reader(capsys.readouterr().out.splitlines())
        assert header == ["name", "states", "transitions", "internal", "beta", "gini_in",
                          "gini_out"]
        automata = parse_automata(path.read_text(encoding="utf-8"))
        assert [row[0] for row in rows] == ["A,B", automata[1].name]
        for row, automaton in zip(rows, automata, strict=True):
            assert len(row) == 7
            record = metrics_record(automaton)
            assert [int(cell) for cell in row[1:4]] == [
                record.states, record.transitions, record.internal_transitions]
            assert float(row[4]) == record.beta
            assert float(row[5]) == record.gini_in
            assert float(row[6]) == record.gini_out

    def test_json(self, doc, capsys):
        header, rows, payload = _csv_then_json(["metrics", str(doc)], capsys)
        assert payload[0]["states"] == 2
        assert payload[0]["beta"] == 0.0
        assert len(payload) == len(rows)
        assert all(list(record) == header for record in payload)


class TestDot:
    def test_single_state(self, tmp_path, capsys):
        single = aut(states=["s0"])
        path = tmp_path / "one.cia"
        path.write_text(serialize_automaton(single), encoding="utf-8")
        assert main(["dot", str(path)]) == 0
        out = capsys.readouterr().out
        assert '"s0" [shape=doublecircle];' in out
        assert "->" not in out

    def test_reduced_silent_chain_is_one_bare_node(self, tmp_path, capsys):
        chain = aut(
            states=["s0", "s1", "s2"],
            trans=[("s0", ("A", "t", "A"), "s1"), ("s1", ("A", "t", "A"), "s2")],
        )
        path = tmp_path / "chain.cia"
        path.write_text(serialize_automaton(chain), encoding="utf-8")
        assert main(["refine", str(path), "--out", str(tmp_path / "r.cia")]) == 0
        assert main(["dot", str(tmp_path / "r.cia")]) == 0
        out = capsys.readouterr().out
        assert '"r0" [shape=doublecircle];' in out
        assert "->" not in out

    def test_styles(self, pair_file, tmp_path, capsys):
        assert main(["compose", str(pair_file), "--io", "closed",
                     "--out", str(tmp_path / "c.cia")]) == 0
        assert main(["dot", str(tmp_path / "c.cia")]) == 0
        out = capsys.readouterr().out
        assert out.startswith('digraph "AB"')
        assert '"(a0,b0)" [shape=doublecircle];' in out
        assert 'label="(B,m,A)", style=dashed' in out


class TestPipeline:
    def test_generate_experiment_regress(self, tmp_path, capsys):
        corpus = tmp_path / "corpus"
        assert main([
            "generate", "--pairs", "30", "--seed", "5", "--states", "5..9",
            "--beta", "1.45", "--clique-bias", "0.1", "--alphabet-size", "10",
            "--kind-mix", "0.5,0.5,0.0", "--avoid-deadlocks", "--out", str(corpus),
        ]) == 0
        files = sorted(corpus.glob("*.cia"))
        assert len(files) == 30
        capsys.readouterr()

        csv_path = tmp_path / "rows.csv"
        code = main([
            "experiment", "--corpus", str(corpus), "--deterministic-timing",
            "--out", str(csv_path),
        ])
        assert code == 0
        header = csv_path.read_text(encoding="utf-8").splitlines()[0]
        assert header.startswith("pair_id,states_a,states_b,states")

        assert main([
            "regress", "--csv", str(csv_path), "--x", "beta", "--y", "success",
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert set(payload) >= {"a", "b", "se_a", "se_b", "chi2", "p",
                                "sensitivity", "specificity", "threshold_x@0.5"}

        assert main([
            "regress", "--csv", str(csv_path), "--x", "beta", "--y", "success", "--cutoff", "0.3",
        ]) == 0
        lower = json.loads(capsys.readouterr().out)
        assert "threshold_x@0.3" in lower
        # a lower cutoff predicts success for at least the same pairs
        assert lower["sensitivity"] >= payload["sensitivity"]

        assert main(["experiment", "--report", str(csv_path)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["rows"] == 30
        assert "reduction>=0.5" in report["bands"]

    def test_experiment_json(self, tmp_path, capsys):
        corpus = tmp_path / "corpus"
        assert main(["generate", "--pairs", "3", "--seed", "1", "--out", str(corpus)]) == 0
        capsys.readouterr()
        header, rows, records = _csv_then_json(["experiment", "--corpus", str(corpus)], capsys)
        assert len(records) == len(rows) == 3
        assert all(list(record) == header for record in records)

    def test_generate_deterministic(self, tmp_path):
        first = tmp_path / "one"
        second = tmp_path / "two"
        for target in (first, second):
            assert main(["generate", "--pairs", "4", "--seed", "9",
                         "--states", "3..5", "--out", str(target)]) == 0
        for fa, fb in zip(sorted(first.iterdir()), sorted(second.iterdir())):
            assert fa.read_bytes() == fb.read_bytes()

    def test_experiment_timeout_exit_3(self, tmp_path):
        corpus = tmp_path / "corpus"
        assert main(["generate", "--pairs", "1", "--seed", "2",
                     "--states", "8..10", "--out", str(corpus)]) == 0
        code = main(["experiment", "--corpus", str(corpus), "--timeout", "-1",
                     "--out", str(tmp_path / "t.csv")])
        assert code == 3

    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_experiment_workers_below_one_is_data_error(self, tmp_path, capsys, workers):
        corpus = tmp_path / "corpus"
        assert main(["generate", "--pairs", "1", "--seed", "2",
                     "--states", "3..4", "--out", str(corpus)]) == 0
        out = tmp_path / "rows.csv"
        assert main(["experiment", "--corpus", str(corpus), "--workers", workers,
                     "--out", str(out)]) == 2
        assert "workers must be at least 1" in capsys.readouterr().err
        assert not out.exists()

    def test_experiment_without_corpus_is_data_error(self, capsys):
        assert main(["experiment"]) == 2
        assert "needs --corpus" in capsys.readouterr().err

    def test_regress_single_class_is_data_error(self, tmp_path, capsys):
        corpus = tmp_path / "corpus"
        assert main(["generate", "--pairs", "12", "--seed", "42", "--states", "4..9",
                     "--beta", "1.4", "--clique-bias", "0.2", "--out", str(corpus)]) == 0
        csv_path = tmp_path / "rows.csv"
        main(["experiment", "--corpus", str(corpus), "--out", str(csv_path)])
        capsys.readouterr()
        # tiny default corpus reduces everywhere: one response class only
        assert main(["regress", "--csv", str(csv_path), "--x", "beta",
                     "--y", "success"]) == 2
        assert "both classes" in capsys.readouterr().err

    def test_regress_non_finite_predictor_is_data_error(self, tmp_path, capsys):
        csv_path = tmp_path / "rows.csv"
        _regress_csv(csv_path)
        rows = rows_from_csv(csv_path.read_text(encoding="utf-8"))
        rows[3] = rows[3]._replace(beta=float("nan"))
        csv_path.write_text(rows_to_csv(rows), encoding="utf-8")
        assert main(["regress", "--csv", str(csv_path), "--x", "beta",
                     "--y", "success"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "xs must be finite" in captured.err

    def test_regress_bad_cell_is_located(self, tmp_path, capsys):
        csv_path = tmp_path / "rows.csv"
        _regress_csv(csv_path)
        table = list(csv.reader(csv_path.read_text(encoding="utf-8").splitlines()))
        table[4][table[0].index("elapsed_ms")] = "x"
        csv_path.write_text("\n".join(",".join(record) for record in table) + "\n")
        assert main(["regress", "--csv", str(csv_path), "--x", "beta",
                     "--y", "success"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "ciakit: experiment CSV row 4 has a bad 'elapsed_ms' cell 'x'\n"

    def test_generate_refuses_a_directory_holding_pair_files(self, tmp_path, capsys):
        corpus = tmp_path / "gen"
        assert main(["generate", "--out", str(corpus), "--pairs", "5", "--seed", "1"]) == 0
        before = {path.name: path.read_bytes() for path in corpus.iterdir()}
        capsys.readouterr()
        assert main(["generate", "--out", str(corpus), "--pairs", "2", "--seed", "2"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"ciakit: {corpus} already holds .cia pair files; write to a new or empty one\n"
        )
        assert {path.name: path.read_bytes() for path in corpus.iterdir()} == before


# every option a subcommand's handler does not read is a usage error
DEAD_OPTIONS = [
    (command, option)
    for command, options in [
        ("parse", ["--seed", "--timeout", "--workers", "--format"]),
        ("dot", ["--seed", "--timeout", "--workers", "--format"]),
        ("regress", ["--seed", "--timeout", "--workers", "--format"]),
        ("compose", ["--seed", "--workers", "--format"]),
        ("refine", ["--seed", "--workers", "--format"]),
        ("metrics", ["--seed", "--timeout", "--workers"]),
        ("generate", ["--timeout", "--workers", "--format"]),
        ("experiment", ["--seed"]),
    ]
    for option in options
]
OPTION_VALUES = {"--seed": "5", "--timeout": "3", "--workers": "2", "--format": "json"}


def _base_argv(command: str, tmp_path) -> list[str]:
    """A command line that is valid apart from any option appended to it."""
    doc = str(tmp_path / "m.cia")
    return {
        "parse": ["parse", doc],
        "dot": ["dot", doc],
        "compose": ["compose", doc],
        "refine": ["refine", doc],
        "metrics": ["metrics", doc],
        "regress": ["regress", "--csv", str(tmp_path / "rows.csv"), "--x", "beta",
                    "--y", "success"],
        "generate": ["generate", "--pairs", "1", "--out", str(tmp_path / "corpus")],
        "experiment": ["experiment", "--corpus", str(tmp_path / "corpus")],
    }[command]


@pytest.mark.parametrize("command,option", DEAD_OPTIONS)
def test_unread_option_is_usage_error(command, option, tmp_path, capsys):
    with pytest.raises(SystemExit) as err:
        main([*_base_argv(command, tmp_path), option, OPTION_VALUES[option]])
    assert err.value.code == 1
    assert f"unrecognized arguments: {option}" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["parse", "dot", "regress", "metrics", "generate"])
def test_strict_internal_elsewhere_is_usage_error(command, tmp_path, capsys):
    with pytest.raises(SystemExit) as err:
        main([*_base_argv(command, tmp_path), "--strict-internal"])
    assert err.value.code == 1
    assert "unrecognized arguments: --strict-internal" in capsys.readouterr().err


def test_strict_internal_help_is_shared(capsys):
    for command in ("compose", "refine", "experiment"):
        with pytest.raises(SystemExit) as err:
            main([command, "--help"])
        assert err.value.code == 0
        assert ("--strict-internal match internal moves by exact label instead of silent closure"
                in " ".join(capsys.readouterr().out.split()))


COMMANDS = ["parse", "compose", "refine", "metrics", "generate", "experiment", "regress", "dot"]
# sha256 of the help, usage-error text and exit codes below at COLUMNS=80;
# argparse words and wraps its output differently from one Python to the next
HELP_SHA256 = {
    (3, 10): "c8b6d8df8e8f74c51822ef98c5d3062109c3a5643dc8d7bd9d0b6b7779e36161",
    (3, 11): "c8b6d8df8e8f74c51822ef98c5d3062109c3a5643dc8d7bd9d0b6b7779e36161",
    (3, 12): "c8b6d8df8e8f74c51822ef98c5d3062109c3a5643dc8d7bd9d0b6b7779e36161",
    (3, 13): "9240ea1df3e22e2e6fe26628df52654b69515377dc54d2b7fa7cc499239ec095",
}


def test_help_and_usage_errors_pinned(monkeypatch, capsys):
    digest = hashlib.sha256()
    monkeypatch.setenv("COLUMNS", "80")
    for argv in [["--help"], [], *([command, "--help"] for command in COMMANDS),
                 *([command, "--bogus"] for command in COMMANDS)]:
        with pytest.raises(SystemExit) as err:
            main(argv)
        captured = capsys.readouterr()
        digest.update(f"{argv} {err.value.code}\n{captured.out}\n{captured.err}\n".encode())
    pinned = HELP_SHA256.get(sys.version_info[:2])
    if pinned is None:
        pytest.skip(f"no help digest pinned for Python {sys.version_info[0]}.{sys.version_info[1]}")
    assert digest.hexdigest() == pinned


TOP_USAGE = "usage: ciakit [-h]"


def _usage_error(argv, capsys) -> str:
    with pytest.raises(SystemExit) as err:
        main(argv)
    assert err.value.code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    return captured.err


def test_leftover_arguments_are_reported_at_the_top(capsys):
    err = _usage_error(["experiment", "--corpus", "D", "stray"], capsys)
    assert err.startswith(TOP_USAGE)
    assert err.endswith("\nciakit: error: unrecognized arguments: stray\n")


def test_unknown_command_is_reported_at_the_top(capsys):
    err = _usage_error(["bogus"], capsys)
    assert err.startswith(TOP_USAGE)
    assert "ciakit: error: argument command: invalid choice: 'bogus'" in err


def test_bad_option_value_is_reported_by_the_command(capsys):
    err = _usage_error(["experiment", "--workers", "x"], capsys)
    assert err.startswith("usage: ciakit experiment")
    assert "ciakit experiment: error: argument --workers: invalid int value: 'x'" in err


def test_help_before_a_command_is_the_top_help(capsys):
    with pytest.raises(SystemExit) as err:
        main(["-h", "experiment"])
    assert err.value.code == 0
    out = capsys.readouterr().out
    assert out.startswith(TOP_USAGE)
    assert "write a seeded corpus of pairs" in out
    assert "--corpus" not in out


def test_abbreviated_option_still_parses(tmp_path, monkeypatch, capsys):
    seen = []
    monkeypatch.setattr(cli, "run_experiment", lambda corpus, **kwargs: seen.append(corpus) or [])
    assert main(["experiment", "--corp", str(tmp_path)]) == 0
    assert seen == [str(tmp_path)]


@pytest.mark.parametrize("argv", [["parse", "{doc}"], ["metrics", "{doc}", "--format", "json"]],
                         ids=lambda argv: argv[0])
def test_a_valid_command_line_builds_one_parser(argv, doc, monkeypatch, capsys):
    built = []
    init = cli._Parser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(cli._Parser, "__init__", counting_init)
    assert main([arg.format(doc=doc) for arg in argv]) == 0
    assert built == [f"ciakit {argv[0]}"]


def test_main_without_argv_reads_sys_argv(doc, monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", ["ciakit", "parse", str(doc)])
    assert main() == 0
    assert capsys.readouterr().out == MINIMAL


def test_generate_needs_out_dir(capsys):
    with pytest.raises(SystemExit) as err:
        main(["generate", "--pairs", "1"])
    assert err.value.code == 1
    assert "--out" in capsys.readouterr().err


@pytest.mark.parametrize("flags, params, disjoint", [
    ([], GenParams(), False),
    # every generator flag, each away from its default
    (["--seed", "11", "--beta", "1.5", "--states", "6..15", "--clique-bias", "0.45",
      "--alphabet-size", "3", "--pa-strength", "0.7", "--kind-mix", "0.3,0.3,0.4",
      "--avoid-deadlocks", "--disjoint-alphabets"],
     GenParams(state_count_range=(6, 15), target_beta=1.5, alphabet_size=3,
               kind_mix=(0.3, 0.3, 0.4), clique_bias=0.45, pa_strength=0.7, seed=11,
               avoid_deadlocks=True), True),
    # a text without ".." is a single count
    (["--states", "5"], GenParams(state_count_range=(5, 5)), False),
], ids=["defaults", "every-flag", "one-count"])
def test_generate_writes_the_library_corpus(tmp_path, flags, params, disjoint):
    cli_dir, lib_dir = tmp_path / "cli", tmp_path / "lib"
    assert main(["generate", "--pairs", "4", "--out", str(cli_dir), *flags]) == 0
    write_corpus(generate_corpus(params, 4, disjoint_alphabets=disjoint), lib_dir)
    names = sorted(path.name for path in lib_dir.iterdir())
    assert sorted(path.name for path in cli_dir.iterdir()) == names
    for name in names:
        assert (cli_dir / name).read_bytes() == (lib_dir / name).read_bytes(), name


def test_generate_kind_mix_needs_three_parts(tmp_path, capsys):
    for value in ["0.5,0.5", "0.5,x,0.5"]:
        with pytest.raises(SystemExit) as err:
            main(["generate", "--pairs", "1", "--out", str(tmp_path), "--kind-mix", value])
        assert err.value.code == 1
        stderr = capsys.readouterr().err
        assert ("argument --kind-mix: expected three comma-separated proportions, "
                f"got {value!r}") in stderr
        assert "_parse" not in stderr
    assert not list(tmp_path.iterdir())


def test_generate_kind_mix_of_a_negative_part(tmp_path, capsys):
    """A separate value that starts with "-" reads as an option, a usage
    error; joined by "=" it reaches ``GenParams``' own check, a data error."""
    with pytest.raises(SystemExit) as err:
        main(["generate", "--pairs", "1", "--out", str(tmp_path), "--kind-mix", "-1,0,2"])
    assert err.value.code == 1
    assert "argument --kind-mix: expected one argument" in capsys.readouterr().err
    assert main(["generate", "--pairs", "1", "--out", str(tmp_path), "--kind-mix=-1,0,2"]) == 2
    assert ("kind_mix must be three non-negative proportions summing to 1"
            in capsys.readouterr().err)
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("value", ["1.5", "0", "nan", "x"])
def test_regress_cutoff_outside_the_unit_interval_is_usage_error(tmp_path, capsys, value):
    out = tmp_path / "fit.json"
    with pytest.raises(SystemExit) as err:
        main(["regress", "--csv", str(tmp_path / "rows.csv"), "--x", "beta", "--y", "success",
              "--cutoff", value, "--out", str(out)])
    assert err.value.code == 1
    stderr = capsys.readouterr().err
    assert ("argument --cutoff: expected a probability strictly between 0 and 1, "
            f"got {value!r}") in stderr
    assert not out.exists()


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_generate_pa_strength_must_be_finite(tmp_path, capsys, value):
    """A NaN or infinite strength would make every weighted draw pick the last candidate."""
    out = tmp_path / "gen"
    assert main(["generate", "--pairs", "1", "--out", str(out), "--pa-strength", value]) == 2
    assert f"pa_strength must be finite and >= 0, got {float(value)!r}" in capsys.readouterr().err
    assert not list(tmp_path.rglob("*.cia"))


@pytest.mark.parametrize("value", ["nan", "x"])
@pytest.mark.parametrize("command", [
    ["compose", "{pair}", "--pairwise"],
    ["refine", "{doc}"],
    ["experiment", "--corpus", "{corpus}", "--workers", "1"],
], ids=lambda command: command[0])
def test_timeout_nan_is_usage_error(command, value, doc, pair_file, tmp_path, capsys):
    """A NaN budget compares false with every time, so it would bound nothing; a word
    is no number of seconds at all."""
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    (corpus / "pair.cia").write_bytes(pair_file.read_bytes())
    paths = {"doc": doc, "pair": pair_file, "corpus": corpus}
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as err:
        main([arg.format(**paths) for arg in command] + ["--timeout", value, "--out", str(out)])
    assert err.value.code == 1
    stderr = capsys.readouterr().err
    assert f"argument --timeout: expected a number of seconds, got {value!r}" in stderr
    assert not out.exists()


@pytest.mark.parametrize("value", ["5..x", "x", "..5", "5..", ".."])
def test_generate_states_needs_integers(tmp_path, capsys, value):
    with pytest.raises(SystemExit) as err:
        main(["generate", "--pairs", "1", "--out", str(tmp_path / "bad"), "--states", value])
    assert err.value.code == 1
    stderr = capsys.readouterr().err
    assert f"argument --states: expected integers MIN..MAX, got {value!r}" in stderr
    assert "_parse" not in stderr
    assert not list(tmp_path.iterdir())


REGRESS_OUTCOMES = [0, 1, 0, 0, 1, 1, 0, 1, 0, 1, 1, 0]


def _regress_row(i: int, **fields) -> ExperimentRow:
    """A hand-made ok row with ``beta = 1 + i/10``; ``fields`` override any column."""
    base = ExperimentRow("p", 2, 2, 4, 4, 0, 1.0, 0.0, 0.0, 4, 0, 0.0, 0.0, 0, 0, 0)
    return base._replace(**{"pair_id": f"p{i}", "beta": 1.0 + i / 10, **fields})


def _five_minutes_ms(over: int) -> float:
    """An ``elapsed_ms`` just past five minutes, or exactly on them (not over)."""
    return 300_000.5 if over else 300_000.0


def _regress_csv(path) -> None:
    rows = [_regress_row(i, success=success) for i, success in enumerate(REGRESS_OUTCOMES)]
    path.write_text(rows_to_csv(rows), encoding="utf-8")


class TestRegressResponses:
    """``regress`` picks its response and its rows as README documents."""

    @staticmethod
    def _fit(rows, tmp_path, capsys, *argv) -> dict:
        csv_path = tmp_path / "rows.csv"
        csv_path.write_text(rows_to_csv(rows), encoding="utf-8")
        assert main(["regress", "--csv", str(csv_path), "--x", "beta", *argv]) == 0
        return json.loads(capsys.readouterr().out)

    @staticmethod
    def _expected(payload, xs, ys) -> None:
        fit = fit_logistic(xs, ys)
        assert (payload["n"], payload["a"], payload["b"]) == (len(xs), fit.a, fit.b)

    def test_over5min_defaults_to_five_minutes(self, tmp_path, capsys):
        # rows on both sides of 300,000 ms, one exactly on it (not over)
        rows = [
            _regress_row(i, elapsed_ms=_five_minutes_ms(y), over_5min=y)
            for i, y in enumerate(REGRESS_OUTCOMES)
        ]
        payload = self._fit(rows, tmp_path, capsys, "--y", "over5min")
        assert payload["y"] == "over5min"
        self._expected(payload, [row.beta for row in rows], REGRESS_OUTCOMES)
        explicit = self._fit(rows, tmp_path, capsys, "--y", "over5min", "--over-ms", "300000")
        assert explicit == payload

    def test_over_ms_thresholds_elapsed_ms(self, tmp_path, capsys):
        # the over_5min column says the opposite; an elapsed_ms equal to the
        # threshold is not over it
        rows = [
            _regress_row(i, elapsed_ms=251.0 if y else 250.0, over_5min=1 - y)
            for i, y in enumerate(REGRESS_OUTCOMES)
        ]
        payload = self._fit(rows, tmp_path, capsys, "--y", "over5min", "--over-ms", "250")
        self._expected(payload, [row.beta for row in rows], REGRESS_OUTCOMES)

    @pytest.mark.parametrize("response", ["success", "over5min"])
    def test_error_and_na_rows_skipped_timeouts_count_for_over5min(
        self, response, tmp_path, capsys
    ):
        kept = [
            _regress_row(i, success=y, elapsed_ms=_five_minutes_ms(y), over_5min=y)
            for i, y in enumerate(REGRESS_OUTCOMES)
        ]
        over = {"elapsed_ms": _five_minutes_ms(1), "over_5min": 1}
        timeout = _regress_row(20, status="timeout", timed_out=1, **over)
        rows = [
            *kept,
            _regress_row(21, status="error", success=1, **over),
            _regress_row(22, beta=None, success=1, **over),
            timeout,
        ]
        payload = self._fit(rows, tmp_path, capsys, "--y", response)
        xs, ys = [row.beta for row in kept], list(REGRESS_OUTCOMES)
        if response == "over5min":
            xs.append(timeout.beta)
            ys.append(1)
        self._expected(payload, xs, ys)

    def test_csv_lacking_a_column_is_data_error(self, tmp_path, capsys):
        table = list(csv.reader(rows_to_csv([_regress_row(0)]).splitlines()))
        dropped = table[0].index("gini_in")
        csv_path = tmp_path / "rows.csv"
        csv_path.write_text(
            "\n".join(",".join(r[:dropped] + r[dropped + 1:]) for r in table) + "\n",
            encoding="utf-8",
        )
        assert main(["regress", "--csv", str(csv_path), "--x", "beta", "--y", "success"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "experiment CSV lacks columns ['gini_in']" in captured.err

    @pytest.mark.parametrize("command", [
        ["experiment", "--report", "{csv}"],
        ["regress", "--csv", "{csv}", "--x", "beta", "--y", "success"],
    ], ids=lambda command: command[0])
    def test_truncated_row_is_data_error(self, command, tmp_path, capsys):
        lines = rows_to_csv([_regress_row(i) for i in range(3)]).splitlines()
        lines[-1] = ",".join(lines[-1].split(",")[:5])
        csv_path = tmp_path / "rows.csv"
        csv_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        assert main([arg.format(csv=csv_path) for arg in command]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "experiment CSV row 3 lacks cells for columns ['internal', 'beta'," in captured.err

    @pytest.mark.parametrize("command", [
        ["experiment", "--report", "{csv}"],
        ["regress", "--csv", "{csv}", "--x", "beta", "--y", "success"],
    ], ids=lambda command: command[0])
    def test_overlong_row_is_data_error(self, command, tmp_path, capsys):
        lines = rows_to_csv([_regress_row(i) for i in range(3)]).splitlines()
        lines[2] += ",extra,cells"
        csv_path = tmp_path / "rows.csv"
        csv_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        assert main([arg.format(csv=csv_path) for arg in command]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "experiment CSV row 2 has 2 cells more than the header" in captured.err


@pytest.mark.parametrize("kept", [
    ["parse", "{doc}"],
    ["dot", "{doc}"],
    ["regress", "--csv", "{csv}", "--x", "beta", "--y", "success"],
    ["compose", "{pair}", "--pairwise", "--timeout", "60"],
    ["refine", "{doc}", "--timeout", "60"],
    ["metrics", "{doc}", "--format", "json"],
    ["generate", "--pairs", "1", "--seed", "3", "--states", "3..4"],
    ["experiment", "--corpus", "{corpus}", "--timeout", "60", "--workers", "1",
     "--format", "json"],
], ids=lambda kept: kept[0])
def test_kept_options_accepted(kept, doc, pair_file, tmp_path):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    (corpus / "pair.cia").write_bytes(pair_file.read_bytes())
    _regress_csv(tmp_path / "rows.csv")
    paths = {"doc": doc, "pair": pair_file, "csv": tmp_path / "rows.csv", "corpus": corpus}
    out = tmp_path / "out"
    assert main([arg.format(**paths) for arg in kept] + ["--out", str(out)]) == 0
    assert out.is_dir() if kept[0] == "generate" else out.read_text(encoding="utf-8")
