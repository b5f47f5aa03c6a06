import hashlib
import math
import statistics

import pytest

from ciakit import (
    GenParams,
    IoSets,
    LabelKind,
    ValidationError,
    compose,
    default_io_sets,
    generate_corpus,
    generate_primitive,
    reachable,
    serialize_automaton,
    write_corpus,
)
import ciakit.generate
from ciakit.generate import SplitMix64
from ciakit.metrics import metrics_record
from oracles import chi2_sf_oracle


class TestSplitMix64:
    def test_known_stream(self):
        # splitmix64 reference values for seed 0
        rng = SplitMix64(0)
        assert rng.next_u64() == 0xE220A8397B1DCDAF
        assert rng.next_u64() == 0x6E789E6AA1B965F4

    def test_randint_bounds(self):
        rng = SplitMix64(9)
        draws = [rng.randint(3, 7) for _ in range(200)]
        assert set(draws) <= set(range(3, 8))
        assert len(set(draws)) == 5

    def test_randint_empty_range_rejected(self):
        with pytest.raises(ValueError, match=r"^empty range \[5, 4\]$"):
            SplitMix64(0).randint(5, 4)

    def test_random_in_unit_interval(self):
        rng = SplitMix64(1)
        assert all(0.0 <= rng.random() < 1.0 for _ in range(100))

    def test_pick_weighted_scales_by_the_searched_total(self):
        # sum() of these floats differs from their last running sum on
        # CPython 3.12 and later; scaling by it would pick the last index
        class TopDraw(SplitMix64):
            def random(self):
                return 1.0 - 2.0**-53

        assert TopDraw(0).pick_weighted([0.1] * 10 + [1e-17]) == 9


class TestGenerateParams:
    def test_invalid_params_rejected(self):
        with pytest.raises(ValidationError):
            GenParams(alphabet_size=0)
        with pytest.raises(ValidationError):
            GenParams(state_count_range=(1, 5))
        with pytest.raises(ValidationError):
            GenParams(state_count_range=(8, 4))
        with pytest.raises(ValidationError, match="^bad state count range"):
            GenParams(state_count_range=(4, 8, 12))
        with pytest.raises(ValidationError, match="^bad state count range"):
            GenParams(state_count_range=(4,))
        with pytest.raises(ValidationError):
            GenParams(target_beta=2.4)
        with pytest.raises(ValidationError):
            GenParams(kind_mix=(0.5, 0.5, 0.5))
        # the right total but not one proportion per kind
        with pytest.raises(ValidationError, match="^kind_mix must be three"):
            GenParams(kind_mix=(0.5, 0.5))
        with pytest.raises(ValidationError, match="^kind_mix must be three"):
            GenParams(kind_mix=(0.25, 0.25, 0.25, 0.25))
        with pytest.raises(ValidationError):
            GenParams(clique_bias=1.5)
        with pytest.raises(ValidationError):
            GenParams(pa_strength=-1)
        # a NaN or infinite weight would make every weighted draw pick the last candidate
        for strength in (math.nan, math.inf):
            with pytest.raises(ValidationError, match="^pa_strength must be finite"):
                GenParams(pa_strength=strength)


class TestGeneratePrimitive:
    def test_forced_counts(self):
        a = generate_primitive(GenParams(state_count_range=(5, 5), target_beta=1.0, seed=3))
        assert len(a.states) == 5
        assert len(a.transitions) == 5
        assert reachable(a) == a

    def test_empty_alphabet_rejected(self):
        with pytest.raises(ValidationError, match="^alphabet must not be empty$"):
            generate_primitive(GenParams(seed=1), alphabet=[])

    def test_repeated_action_rejected(self):
        with pytest.raises(ValidationError, match=r"^alphabet repeats actions \['a'\]$"):
            generate_primitive(GenParams(seed=1), alphabet=["a", "b", "a"])

    def test_same_seed_same_output(self):
        p = GenParams(seed=71)
        assert serialize_automaton(generate_primitive(p)) == serialize_automaton(
            generate_primitive(p)
        )

    def test_validity_and_count_bounds(self):
        for seed in range(200):
            a = generate_primitive(GenParams(state_count_range=(2, 14), seed=seed))
            n, m = len(a.states), len(a.transitions)
            assert n - 1 <= m <= n * n
            assert reachable(a) == a
            assert len(a.initial) == 1
            assert a.hierarchy.is_leaf and len(a.hierarchy.names) == 1

    def test_saturated_graph_reaches_exact_count(self):
        # beta 2.0 forces |Q|^2 transitions, which needs the fallback sweep
        a = generate_primitive(
            GenParams(state_count_range=(3, 3), target_beta=2.0, alphabet_size=1, seed=5)
        )
        assert len(a.transitions) == 9

    def test_no_internal_without_bias_or_mix(self):
        p = GenParams(kind_mix=(0.5, 0.5, 0.0), clique_bias=0.0, seed=11)
        a = generate_primitive(p)
        assert metrics_record(a).internal_transitions == 0

    def test_full_bias_concentrates_internal(self):
        mix = (0.3, 0.3, 0.4)
        p = GenParams(
            state_count_range=(8, 14), kind_mix=mix, clique_bias=1.0, target_beta=1.6, seed=13
        )
        for seed in range(10):
            a = generate_primitive(GenParams(**{**p.__dict__, "seed": seed}))
            record = metrics_record(a)
            assert record.internal_transitions / record.transitions >= mix[2]

    def test_zero_pa_strength_is_uniform(self):
        # in-degree of the extra edges is multinomial-uniform; chi-square GOF
        a = generate_primitive(
            GenParams(
                state_count_range=(1000, 1000),
                target_beta=1.36,
                pa_strength=0.0,
                clique_bias=0.0,
                seed=2024,
            )
        )
        n = 1000
        in_deg = {s: 0 for s in a.states}
        for t in a.transitions:
            in_deg[t.target] += 1
        # each state except the root gets exactly one tree edge
        extras = [in_deg[f"s{i}"] - (1 if i else 0) for i in range(n)]
        expected = sum(extras) / n
        chi2 = sum((o - expected) ** 2 / expected for o in extras)
        assert chi2_sf_oracle(chi2, n - 1) > 0.01

    def test_beta_calibration_and_gini_skew(self):
        betas, gouts = [], []
        for seed in range(1000):
            a = generate_primitive(GenParams(seed=seed))
            record = metrics_record(a)
            betas.append(record.beta)
            gouts.append(record.gini_out)
        assert statistics.fmean(betas) == pytest.approx(1.36, abs=0.05)
        mu = statistics.fmean(gouts)
        sd = statistics.pstdev(gouts)
        skew = sum((g - mu) ** 3 for g in gouts) / len(gouts) / sd**3
        assert skew > 0.0


# sha256 of the serialized output over a grid that covers the attachment
# draws, clique chains, avoid_deadlocks, uniform attachment, the saturation
# fallback (every kind_mix=(1, 0, 0), beta 2 call and one clique-chain call
# reach it) and a disjoint-alphabet corpus; any change of output moves it
PINNED_GRID_SHA256 = "7b11e1f8308e839ec93dae13e87e8863eb0477f8de93597e215892ad28f292ba"
PINNED_LARGE_SHA256 = "edb2f9beddd0bc7687420302ddd369285eeb84049190f91c298f7f44b0a3c356"


class TestPinnedOutput:
    def test_grid_digest(self):
        grid = [
            *(GenParams(seed=s) for s in range(20)),
            *(
                GenParams(kind_mix=(1, 0, 0), target_beta=2.0, clique_bias=0.0, seed=s)
                for s in range(12)
            ),
            *(
                GenParams(
                    state_count_range=(2, 12),
                    target_beta=1.9,
                    clique_bias=0.5,
                    avoid_deadlocks=bool(s % 2),
                    seed=s,
                )
                for s in range(20)
            ),
            *(GenParams(pa_strength=0.0, seed=s) for s in range(10)),
        ]
        digest = hashlib.sha256()
        for params in grid:
            digest.update(serialize_automaton(generate_primitive(params)).encode())
        corpus = generate_corpus(
            GenParams(state_count_range=(3, 10), seed=5), 4, disjoint_alphabets=True
        )
        for pair in corpus:
            for automaton in pair:
                digest.update(serialize_automaton(automaton).encode())
        assert digest.hexdigest() == PINNED_GRID_SHA256

    def test_large_digest(self):
        # a few 150..400-state automata with avoid_deadlocks: long childless
        # lists and large attachment tables, which the grid above never reaches
        grid = [
            *(
                GenParams(state_count_range=(150, 400), avoid_deadlocks=True, seed=s)
                for s in range(3)
            ),
            *(
                GenParams(
                    state_count_range=(150, 400),
                    avoid_deadlocks=True,
                    pa_strength=2.0,
                    clique_bias=0.6,
                    seed=s,
                )
                for s in range(3, 5)
            ),
        ]
        digest = hashlib.sha256()
        for params in grid:
            digest.update(serialize_automaton(generate_primitive(params)).encode())
        assert digest.hexdigest() == PINNED_LARGE_SHA256

    def test_each_label_built_once(self, monkeypatch):
        built = []

        class CountingLabel(ciakit.generate.Label):
            def __post_init__(self):
                built.append(self)
                super().__post_init__()

        monkeypatch.setattr(ciakit.generate, "Label", CountingLabel)
        params = GenParams(
            state_count_range=(12, 12),
            alphabet_size=1,
            kind_mix=(1, 0, 0),
            target_beta=2.0,
            clique_bias=0.0,
            seed=3,
        )
        a = generate_primitive(params)
        # 144 transitions need the saturation fallback; still one label per
        # (kind, action)
        assert len(a.transitions) == 144
        assert len(built) <= 3 * params.alphabet_size


class TestGenerateCorpus:
    def test_pair_composition_has_new_sync(self):
        params = GenParams(state_count_range=(4, 8), seed=3)
        first, second = generate_corpus(params, 1)[0]
        composite = compose([first, second], default_io_sets([first, second]))
        own = {t.label for t in first.transitions} | {t.label for t in second.transitions}
        handshakes = {
            t.label
            for t in composite.transitions
            if t.label.kind is LabelKind.INTERNAL and t.label not in own
        }
        assert handshakes

    def test_disjoint_alphabets_prevent_sync(self):
        params = GenParams(state_count_range=(4, 8), seed=3)
        for first, second in generate_corpus(params, 3, disjoint_alphabets=True):
            composite = compose([first, second], default_io_sets([first, second]))
            own = {t.label for t in first.transitions} | {t.label for t in second.transitions}
            assert {t.label for t in composite.transitions} <= own

    def test_hierarchies_disjoint_within_pair(self):
        for first, second in generate_corpus(GenParams(seed=8), 4):
            assert not first.hierarchy.leaf_names() & second.hierarchy.leaf_names()

    def test_same_seed_byte_identical(self, tmp_path):
        params = GenParams(state_count_range=(3, 6), seed=99)
        dir_a = tmp_path / "one"
        dir_b = tmp_path / "two"
        write_corpus(generate_corpus(params, 4), dir_a)
        write_corpus(generate_corpus(params, 4), dir_b)
        files_a = sorted(dir_a.iterdir())
        files_b = sorted(dir_b.iterdir())
        assert [f.name for f in files_a] == [f.name for f in files_b]
        for fa, fb in zip(files_a, files_b):
            assert fa.read_bytes() == fb.read_bytes()

    def test_refuses_a_directory_holding_pair_files(self, tmp_path):
        params = GenParams(state_count_range=(3, 4), seed=5)
        tmp_path.joinpath("notes.txt").write_text("kept", encoding="utf-8")  # not a pair file
        written = write_corpus(generate_corpus(params, 3), tmp_path)
        before = {path.name: path.read_bytes() for path in tmp_path.iterdir()}
        assert sorted(before) == sorted([path.name for path in written] + ["notes.txt"])
        with pytest.raises(ValidationError) as err:
            write_corpus(generate_corpus(GenParams(seed=6), 1), tmp_path)
        assert str(err.value).startswith(f"{tmp_path} already holds .cia pair files")
        assert {path.name: path.read_bytes() for path in tmp_path.iterdir()} == before

    def test_rejects_empty_corpus(self):
        with pytest.raises(ValidationError):
            generate_corpus(GenParams(), 0)
