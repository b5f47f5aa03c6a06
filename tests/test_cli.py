import json

import pytest

from ciakit.cli import main
from ciakit import parse_automaton, reachable, serialize_automaton
from conftest import aut, handshake_pair

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
        composite = reachable(parse_automaton(capsys.readouterr().out))
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


class TestMetrics:
    def test_csv_with_na(self, tmp_path, capsys):
        single = aut(states=["s0"])
        path = tmp_path / "one.cia"
        path.write_text(serialize_automaton(single), encoding="utf-8")
        assert main(["metrics", str(path)]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "name,states,transitions,internal,beta,gini_in,gini_out"
        assert out[1] == "A,1,0,0,NA,NA,NA"

    def test_json(self, doc, capsys):
        assert main(["metrics", str(doc), "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload[0]["states"] == 2
        assert payload[0]["beta"] == 0.0


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

        assert main(["experiment", "--report", str(csv_path)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["rows"] == 30
        assert "reduction>=0.5" in report["bands"]

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
