import io
import math
from contextlib import redirect_stdout

import numpy as np
import pytest

import _synth
from libsuggest.decode import beam_search
from libsuggest.metrics import EvalCase, EvalReport, evaluate, precision_at_k, psr_at_k, recall_rate_at_k


def case(recommended, truth):
    return EvalCase(tuple(recommended), frozenset(truth))


# --- independent references: plain set arithmetic, no shared code paths ---


def ref_recall_rate(cases, k):
    found = 0
    for c in cases:
        top = set(list(c.recommended)[:k])
        if len(top.intersection(c.ground_truth)) > 0:
            found += 1
    return found / len(cases)


def ref_precision(cases, k):
    acc = 0.0
    for c in cases:
        top = set(list(c.recommended)[:k])
        acc += len(top.intersection(c.ground_truth)) / float(k)
    return acc / len(cases)


def ref_psr(cases, k, freq, beta):
    acc = 0.0
    for c in cases:
        denom = 0.0
        for lib in c.ground_truth:
            denom += freq[lib] ** (-beta)
        num = 0.0
        for lib in set(list(c.recommended)[:k]).intersection(c.ground_truth):
            num += freq[lib] ** (-beta)
        acc += num / denom
    return acc / len(cases)


def random_cases(rng, n_cases, universe=30):
    libs = [f"lib{i}" for i in range(universe)]
    freq = {lib: int(rng.integers(1, 200)) for lib in libs}
    cases = []
    for _ in range(n_cases):
        n_rec = int(rng.integers(0, 12))
        recommended = list(rng.choice(libs, size=n_rec, replace=False))
        n_truth = int(rng.integers(1, 8))
        truth = set(rng.choice(libs, size=n_truth, replace=False))
        cases.append(case(recommended, truth))
    return cases, freq


class TestRecallRate:
    def test_half_hit(self):
        cases = [case(["a", "b"], {"a"}), case(["x"], {"z"})]
        assert recall_rate_at_k(cases, 2) == 0.5

    def test_perfect_lists(self):
        cases = [case(["a", "b"], {"a", "b"}), case(["c"], {"c"})]
        assert recall_rate_at_k(cases, 5) == 1.0

    def test_disjoint_is_zero(self):
        cases = [case(["a"], {"b"}), case(["c"], {"d"})]
        assert recall_rate_at_k(cases, 1) == 0.0

    def test_empty_cases_rejected(self):
        with pytest.raises(ValueError):
            recall_rate_at_k([], 1)


class TestPrecision:
    def test_two_of_five(self):
        cases = [case(["a", "b", "x", "y", "z"], {"a", "b", "q"})]
        assert precision_at_k(cases, 5) == pytest.approx(0.4, abs=0)

    def test_equals_recall_rate_at_one(self):
        rng = np.random.default_rng(0)
        for _ in range(30):
            cases, _ = random_cases(rng, 20)
            assert precision_at_k(cases, 1) == recall_rate_at_k(cases, 1)

    def test_short_list_divides_by_k(self):
        cases = [case(["a"], {"a"})]
        assert precision_at_k(cases, 4) == 0.25

    def test_disjoint_zero(self):
        cases = [case(["a", "b"], {"c"})]
        assert precision_at_k(cases, 2) == 0.0


class TestPsr:
    def test_pinned_inverse_popularity_example(self):
        # truth {a, b}: s_a = 1^-0.2 = 1, s_b = 32^-0.2 = 0.5; only a hits
        cases = [case(["a", "x"], {"a", "b"})]
        freq = {"a": 1, "b": 32, "x": 9}
        value = psr_at_k(cases, 2, freq, beta=0.2)
        assert value == pytest.approx(2.0 / 3.0, abs=1e-15)

    def test_beta_zero_is_plain_per_case_recall(self):
        rng = np.random.default_rng(1)
        cases, freq = random_cases(rng, 50)
        expected = np.mean(
            [
                len(set(list(c.recommended)[:5]) & c.ground_truth) / len(c.ground_truth)
                for c in cases
            ]
        )
        assert psr_at_k(cases, 5, freq, 0.0) == pytest.approx(expected, abs=1e-12)

    def test_all_truth_hit_gives_one(self):
        cases = [case(["a", "b", "c"], {"a", "b"})]
        for beta in (0.0, 0.2, 1.0):
            assert psr_at_k(cases, 3, {"a": 3, "b": 77, "c": 5}, beta) == pytest.approx(1.0, abs=1e-12)

    def test_missing_frequency_rejected(self):
        cases = [case(["a"], {"ghost"})]
        with pytest.raises(ValueError, match="ghost"):
            psr_at_k(cases, 1, {"a": 1}, 0.2)

    def test_negative_beta_rejected(self):
        # NaN and inf too: inf weighs every library above 1 use at 0
        for beta in (-0.1, math.nan, math.inf):
            with pytest.raises(ValueError, match="beta"):
                psr_at_k([case(["a"], {"a"})], 1, {"a": 1}, beta)

    def test_truth_weights_that_all_underflow_name_the_case(self):
        # 2 ** -1100 is 0.0 in float64: the case would divide 0 by 0
        cases = [case(["b"], {"b"}), case(["a"], {"a"})]
        with pytest.raises(ValueError, match=r"^case 1: .*underflow"):
            psr_at_k(cases, 1, {"a": 2, "b": 1}, 1100.0)


class TestAgainstBruteForce:
    def test_exact_match_on_1000_random_cases(self):
        rng = np.random.default_rng(99)
        cases, freq = random_cases(rng, 1000)
        for k in (1, 3, 5, 10, 20):
            assert recall_rate_at_k(cases, k) == ref_recall_rate(cases, k)
            assert precision_at_k(cases, k) == ref_precision(cases, k)
            ours = psr_at_k(cases, k, freq, 0.2)
            theirs = ref_psr(cases, k, freq, 0.2)
            assert abs(ours - theirs) <= 1e-12

    def test_monotone_in_k_and_bounded(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            cases, freq = random_cases(rng, 40)
            ks = (1, 2, 5, 10, 20)
            recalls = [recall_rate_at_k(cases, k) for k in ks]
            psrs = [psr_at_k(cases, k, freq, 0.2) for k in ks]
            assert all(b >= a for a, b in zip(recalls, recalls[1:]))
            assert all(b >= a - 1e-12 for a, b in zip(psrs, psrs[1:]))
            for k in ks:
                for value in (
                    recall_rate_at_k(cases, k),
                    precision_at_k(cases, k),
                    psr_at_k(cases, k, freq, 0.2),
                ):
                    assert 0.0 <= value <= 1.0 + 1e-12


class TestEvalCaseInvariants:
    def test_duplicate_recommendations_rejected(self):
        with pytest.raises(ValueError, match="duplicates"):
            case(["a", "a"], {"a"})

    def test_empty_truth_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            case(["a"], set())


@pytest.fixture(scope="module")
def trained():
    from libsuggest.trainer import train

    data = _synth.prepared_dataset(n_projects=10, n_libs=8, cfg=_synth.overfit_config(1))
    cfg = _synth.overfit_config(max_epochs=60)
    with redirect_stdout(io.StringIO()):
        ckpt = train(data, cfg, _synth.make_embedding_table(n_projects=10, n_libs=8))
    test_set = []
    for ex in data.examples:
        tokens = [data.word_vocab.token(i) for i in ex.source.ids[: ex.source.length]]
        libs = [data.lib_vocab.token(i) for i in ex.target.ids[: ex.target.length - 1]]
        test_set.append((tokens, libs))
    return ckpt, test_set


class TestEvaluate:
    def test_default_columns(self, trained):
        ckpt, test_set = trained
        report = evaluate(ckpt, test_set)
        assert report.ks == (1, 5, 10, 20)
        assert report.beta == 0.2
        text = report.format_text()
        assert "k=1" in text and "k=20" in text
        for name in ("recall_rate@k", "precision@k", "psr@k"):
            assert name in text

    def test_machine_format_parses(self, trained):
        ckpt, test_set = trained
        report = evaluate(ckpt, test_set, ks=(1, 5))
        for line in report.format_machine().strip().splitlines():
            name, k, value = line.split("\t")
            assert name in ("recall_rate@k", "precision@k", "psr@k")
            assert int(k) in (1, 5)
            assert 0.0 <= float(value) <= 1.0

    def test_memorized_corpus_high_recall(self, trained):
        ckpt, test_set = trained
        report = evaluate(ckpt, test_set, ks=(10,))
        assert report.values["recall_rate@k"][10] >= 0.9

    def test_unknown_truth_cases_skipped(self, trained):
        ckpt, test_set = trained
        augmented = list(test_set) + [(["w000"], ["never-seen-lib"])]
        report = evaluate(ckpt, augmented, ks=(1,))
        assert report.skipped == 1
        assert report.cases == len(test_set)

    def test_empty_test_set_rejected(self, trained):
        ckpt, _ = trained
        with pytest.raises(ValueError, match="empty"):
            evaluate(ckpt, [])

    def test_psr_puts_popular_only_models_below_plain_recall(self):
        # skewed corpus: one hugely popular library plus rare ones; a
        # recommender that only ever emits the popular library scores the
        # same per-case recall but strictly less PSR mass per hit
        freq = {"popular": 1000, "rare1": 2, "rare2": 2, "rare3": 2}
        cases = [
            case(["popular"], {"popular", "rare1"}),
            case(["popular"], {"popular", "rare2"}),
            case(["popular"], {"popular", "rare3"}),
        ]
        plain = psr_at_k(cases, 1, freq, beta=0.0)
        stratified = psr_at_k(cases, 1, freq, beta=0.2)
        assert stratified < plain


class TestGroupedEvaluate:
    """`evaluate` decodes its evaluable cases in groups of
    `metrics.DECODE_GROUP` through one `beam_search` call each."""

    @staticmethod
    def cases_of(ckpt, n):
        libs = ckpt.lib_vocab.regular_tokens()
        return [
            (
                [f"t{(3 * i + j) % 9}" for j in range(1 + i % 7)],
                ["never-seen"] if i % 7 == 3 else [libs[(5 * i + 2 * j) % len(libs)] for j in range(1 + i % 6)],
            )
            for i in range(n)
        ]

    def test_report_equals_a_case_by_case_reference(self):
        # 20 cases, 3 without known truth: groups of 8, 8 and 1 cases
        ckpt = _synth.random_checkpoint(5, n_libs=40, n_words=8)
        test_set = self.cases_of(ckpt, 20)
        ks = (1, 5, 10, 20)
        cases = []
        for tokens, truth in test_set:
            known = frozenset(lib for lib in truth if lib in ckpt.lib_freq)
            if known:
                cases.append(EvalCase(tuple(beam_search(tokens, ckpt, 3, max(ks) + 5)), known))
        values = {
            "recall_rate@k": {k: recall_rate_at_k(cases, k) for k in ks},
            "precision@k": {k: precision_at_k(cases, k) for k in ks},
            "psr@k": {k: psr_at_k(cases, k, ckpt.lib_freq, 0.2) for k in ks},
        }
        expected = EvalReport(ks=ks, values=values, cases=17, skipped=3, beam_width=3, beta=0.2)
        assert len(cases) == 17
        assert evaluate(ckpt, test_set, ks=ks).format_machine() == expected.format_machine()

    @pytest.mark.parametrize("beta", [-0.1, math.nan, math.inf])
    def test_bad_beta_rejected_before_any_decoding(self, beta, monkeypatch):
        from libsuggest import metrics

        calls = []
        monkeypatch.setattr(metrics, "beam_search", lambda *args: calls.append(args))
        ckpt = _synth.random_checkpoint(5, n_libs=40, n_words=8)
        with pytest.raises(ValueError, match="beta"):
            evaluate(ckpt, self.cases_of(ckpt, 12), beta=beta)
        assert calls == []

    def test_empty_tokens_in_the_middle_of_a_group_name_their_case(self):
        ckpt = _synth.random_checkpoint(5, n_libs=40, n_words=8)
        test_set = self.cases_of(ckpt, 12)
        test_set[5] = ([], test_set[5][1])
        with pytest.raises(ValueError, match=r"^case 5: "):
            evaluate(ckpt, test_set)


_EVALUATE_SCRIPT = """
import _synth
from libsuggest.metrics import evaluate

ckpt = _synth.random_checkpoint(3, n_libs=40, n_words=8)
libs = ckpt.lib_vocab.regular_tokens()
test_set = [
    ([f"t{(i + j) % 8}" for j in range(3)], [libs[(7 * i + 3 * j) % len(libs)] for j in range(4 + i % 9)])
    for i in range(12)
]
print(evaluate(ckpt, test_set, ks=(1, 5, 10), beam_width=2).format_machine(), end="")
"""


def test_evaluate_report_does_not_depend_on_the_hash_seed():
    # set iteration order follows PYTHONHASHSEED; the report must not
    import os
    import subprocess
    import sys
    from pathlib import Path

    tests = Path(__file__).resolve().parent
    path = os.pathsep.join([str(tests.parent / "src"), str(tests), os.environ.get("PYTHONPATH", "")])
    reports = [
        subprocess.run(
            [sys.executable, "-c", _EVALUATE_SCRIPT],
            env={**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": path},
            capture_output=True, check=True, timeout=120,
        ).stdout
        for seed in ("1", "2")
    ]
    assert b"psr@k" in reports[0]
    assert reports[0] == reports[1]
