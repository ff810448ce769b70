"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the transcript.
"""

import io
import time
from contextlib import redirect_stdout

import numpy as np
import pytest

import _synth
from _fd import finite_difference_check
from libsuggest.cli import main
from libsuggest.corpus import EOS_ID, N_RESERVED, Vocabulary, process_description
from libsuggest.decode import _beam, beam_search, greedy_decode
from libsuggest.embeddings import EmbeddingTable, load_embeddings, save_embeddings
from libsuggest.metrics import EvalCase, precision_at_k, psr_at_k, recall_rate_at_k
from libsuggest.model import (
    BOS,
    decoder_step,
    example_loss,
    init_params,
    library_weights,
    named_parameters,
)
from libsuggest.tensor import Tensor
from libsuggest.trainer import checkpoint_bytes, checkpoint_from_bytes, train


def report(number: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f"  ({detail})" if detail else ""
    print(f"ACCEPTANCE {number} {name}: {status}{suffix}")


def test_1_gradient_correctness():
    """Tiny model (H=4, embedding 8, library vocab 6, T=3): every parameter
    tensor against central differences, 20 seeds, eps=1e-4, tol 1e-4."""
    start = time.monotonic()
    errors = {}
    for seed in range(20):
        rng = np.random.default_rng(seed)
        weights = np.full(6, 1.0 - 1.0 / 6.0)
        params = init_params(8, 4, 4, 8, 6 + N_RESERVED, weights, rng)
        x = Tensor(rng.normal(size=(3, 8)))
        targets = [int(rng.integers(N_RESERVED, 9)), EOS_ID]
        err = finite_difference_check(
            lambda: example_loss(x, 3, targets, params), named_parameters(params), epsilon=1e-4
        )
        errors[seed] = err
    elapsed = time.monotonic() - start
    worst = max(errors.values())
    failing = {s: e for s, e in errors.items() if e >= 1e-4}
    ok = not failing and elapsed < 60.0
    report(1, "gradient-correctness", ok, f"worst rel err {worst:.3e}, {elapsed:.1f}s")
    for seed in sorted(failing):
        print(f"  seed {seed}: max relative error {failing[seed]:.3e}")
    assert not failing, "seeds over tolerance: " + ", ".join(
        f"{seed} ({err:.3e})" for seed, err in sorted(failing.items())
    )
    assert elapsed < 60.0


def test_2_mask_invariant():
    """1000 random-parameter decodes (greedy and beam): no repeated library;
    masked probabilities exactly zero and distributions summing to 1e-9."""
    repeats = 0
    for seed in range(500):
        ckpt = _synth.random_checkpoint(seed)
        out = greedy_decode(["t0", "t2", "t4"], ckpt, 7)
        if len(set(out)) != len(out):
            repeats += 1
        out = beam_search(["t1", "t3"], ckpt, 3, 7)
        if len(set(out)) != len(out):
            repeats += 1

    worst_sum_gap = 0.0
    masked_nonzero = 0
    for seed in range(100):
        ckpt = _synth.random_checkpoint(seed)
        enc_out, valid_len, s_t, cell_t, ctx_t = _synth.start_one(["t0", "t5"], ckpt)
        rng = np.random.default_rng(seed)
        mask: set[int] = set()
        prev = BOS
        for _ in range(4):
            s_t, cell_t, ctx_t, _, y = decoder_step(
                prev, ctx_t, s_t, cell_t, enc_out, valid_len, mask, ckpt.params
            )
            masked_nonzero += int(any(y.data[i] != 0.0 for i in mask))
            worst_sum_gap = max(worst_sum_gap, abs(float(y.data.sum()) - 1.0))
            choices = [i for i in range(N_RESERVED, 8) if i not in mask]
            pick = int(rng.choice(choices))
            mask.add(pick)
            prev = pick
    ok = repeats == 0 and masked_nonzero == 0 and worst_sum_gap <= 1e-9
    report(
        2,
        "mask-invariant",
        ok,
        f"1000 decodes, 0 repeats expected: {repeats}; sum gap {worst_sum_gap:.1e}",
    )
    assert repeats == 0
    assert masked_nonzero == 0
    assert worst_sum_gap <= 1e-9


def test_3_beam_search_oracle():
    """5 libraries + EOS, max_steps 3: width-200 beam equals exhaustive
    enumeration of all no-repeat sequences, 50 random models, < 30 s."""
    start = time.monotonic()
    mismatches = []
    for seed in range(50):
        ckpt = _synth.random_checkpoint(seed, n_libs=5)
        tokens = ["t0", "t3", "t5"]
        [(beam_ids, _)] = _beam([tokens], ckpt, 200, 3)
        oracle = _synth.exhaustive_best(ckpt, tokens, 3)[1]
        if tuple(beam_ids) != oracle:
            mismatches.append((seed, beam_ids, oracle))
    elapsed = time.monotonic() - start
    ok = not mismatches and elapsed < 30.0
    report(3, "beam-search-oracle", ok, f"50 models, {elapsed:.1f}s")
    assert not mismatches, mismatches[:3]
    assert elapsed < 30.0


def test_4_overfit_oracle():
    """50-project synthetic corpus (<=200 words, 40 libraries): training
    reaches loss < 0.10 and training recall rate@10 >= 0.95 within 500
    epochs and 5 minutes."""
    start = time.monotonic()
    cfg = _synth.overfit_config(max_epochs=220)
    data = _synth.prepared_dataset(n_projects=50, n_libs=40, cfg=cfg)
    assert len(data.word_vocab.regular_tokens()) <= 200
    table = _synth.make_embedding_table()
    with redirect_stdout(io.StringIO()):
        ckpt = train(data, cfg, table)

    hits = 0
    for ex in data.examples:
        tokens = [data.word_vocab.token(i) for i in ex.source.ids[: ex.source.length]]
        truth = {data.lib_vocab.token(i) for i in ex.target.ids[: ex.target.length - 1]}
        decoded = greedy_decode(tokens, ckpt, 15)
        if set(decoded[:10]) & truth:
            hits += 1
    recall10 = hits / len(data.examples)
    elapsed = time.monotonic() - start
    ok = ckpt.final_loss < 0.10 and recall10 >= 0.95 and elapsed < 300.0
    report(
        4,
        "overfit-oracle",
        ok,
        f"loss {ckpt.final_loss:.4f}, recall@10 {recall10:.2f}, {elapsed:.0f}s / {cfg.max_epochs} epochs",
    )
    assert ckpt.final_loss < 0.10
    assert recall10 >= 0.95
    assert elapsed < 300.0


def _ref_recall_rate(cases, k):
    found = 0
    for c in cases:
        if set(list(c.recommended)[:k]) & set(c.ground_truth):
            found += 1
    return found / len(cases)


def _ref_precision(cases, k):
    total = 0.0
    for c in cases:
        total += len(set(list(c.recommended)[:k]) & set(c.ground_truth)) / float(k)
    return total / len(cases)


def _ref_psr(cases, k, freq, beta):
    total = 0.0
    for c in cases:
        denom = sum(freq[lib] ** (-beta) for lib in c.ground_truth)
        num = sum(
            freq[lib] ** (-beta)
            for lib in set(list(c.recommended)[:k]) & set(c.ground_truth)
        )
        total += num / denom
    return total / len(cases)


def test_5_metric_oracles():
    """All three metrics match independent brute-force references on 1000
    random cases, plus the pinned closed-form examples."""
    rng = np.random.default_rng(2024)
    libs = [f"lib{i}" for i in range(25)]
    freq = {lib: int(rng.integers(1, 300)) for lib in libs}
    cases = []
    for _ in range(1000):
        n_rec = int(rng.integers(0, 10))
        recommended = tuple(rng.choice(libs, size=n_rec, replace=False))
        truth = frozenset(rng.choice(libs, size=int(rng.integers(1, 7)), replace=False))
        cases.append(EvalCase(recommended, truth))

    exact = True
    for k in (1, 3, 5, 10, 20):
        exact &= recall_rate_at_k(cases, k) == _ref_recall_rate(cases, k)
        exact &= precision_at_k(cases, k) == _ref_precision(cases, k)
        exact &= abs(psr_at_k(cases, k, freq, 0.2) - _ref_psr(cases, k, freq, 0.2)) <= 1e-12

    weights = library_weights({"a": 1, "b": 3}, Vocabulary(["a", "b"]))
    pinned_weights = weights.tolist() == [0.75, 0.25]

    psr_case = [EvalCase(("a", "x"), frozenset({"a", "b"}))]
    pinned_psr = psr_at_k(psr_case, 2, {"a": 1, "b": 32, "x": 4}, 0.2) == pytest.approx(
        2.0 / 3.0, abs=1e-15
    )

    # 250 cases with 171 top-1 hits: precision@1 = recall rate@1 = 0.684
    table_cases = []
    for i in range(250):
        hit = i < 171
        table_cases.append(
            EvalCase(("a",) if hit else ("b",), frozenset({"a", f"extra{i}"}))
        )
    p1 = precision_at_k(table_cases, 1)
    r1 = recall_rate_at_k(table_cases, 1)
    pinned_table = p1 == r1 == 0.684

    coincide = all(
        precision_at_k(cases[i : i + 50], 1) == recall_rate_at_k(cases[i : i + 50], 1)
        for i in range(0, 1000, 50)
    )

    ok = exact and pinned_weights and pinned_psr and pinned_table and coincide
    report(5, "metric-oracles", ok, f"1000 cases exact; precision@1=recall@1={p1}")
    assert exact
    assert pinned_weights
    assert pinned_psr
    assert pinned_table
    assert coincide


def test_6_end_to_end_determinism(tmp_path, capsys):
    """preprocess -> train -> evaluate twice with one seed: bit-identical
    checkpoints and metric reports."""
    paths = _synth.write_corpus_files(tmp_path / "fixture", n_projects=12, n_libs=10)
    config = tmp_path / "fast.cfg"
    config.write_text(
        "max_epochs = 20\nseed = 5\ndropout_p = 0.1\nbatch_size = 6\n"
        "max_src = 16\nmax_tgt = 8\nembed_dim = 16\nenc_hidden = 12\n"
        "dec_hidden = 12\nlib_embed = 8\n",
        encoding="utf-8",
    )

    artifacts = []
    for run in ("one", "two"):
        prep = tmp_path / f"prep_{run}"
        ckpt = tmp_path / f"model_{run}.ckpt"
        assert main(
            [
                "preprocess",
                "--dataset", str(paths["dataset"]),
                "--stopwords", str(paths["stopwords"]),
                "--lemma-table", str(paths["lemma"]),
                "--seed", "3",
                "--out", str(prep),
            ]
        ) == 0
        assert main(
            [
                "train",
                "--preprocessed", str(prep),
                "--embeddings", str(paths["embeddings"]),
                "--config", str(config),
                "--checkpoint", str(ckpt),
            ]
        ) == 0
        capsys.readouterr()
        assert main(
            [
                "evaluate",
                "--checkpoint", str(ckpt),
                "--dataset", str(prep / "test.jsonl"),
                "--machine-readable",
            ]
        ) == 0
        report_text = capsys.readouterr().out
        prep_bytes = {
            name: (prep / name).read_bytes() for name in sorted(p.name for p in prep.iterdir())
        }
        artifacts.append((prep_bytes, ckpt.read_bytes(), report_text))

    ok = artifacts[0] == artifacts[1]
    report(6, "end-to-end-determinism", ok, "checkpoints and reports bit-identical")
    assert artifacts[0][0] == artifacts[1][0], "preprocessed outputs differ"
    assert artifacts[0][1] == artifacts[1][1], "checkpoints differ"
    assert artifacts[0][2] == artifacts[1][2], "metric reports differ"


def test_7_round_trips(tmp_path):
    """Checkpoint serialize/parse and embedding save/load are lossless on
    randomized fixtures, 100 trials each."""
    ckpt_ok = True
    for seed in range(100):
        ckpt = _synth.random_checkpoint(
            seed, n_libs=2 + seed % 5, n_words=3 + seed % 4, embed_dim=2 + seed % 3,
            hidden=2 + seed % 3,
        )
        blob = checkpoint_bytes(ckpt)
        ckpt_ok &= checkpoint_bytes(checkpoint_from_bytes(blob)) == blob

    emb_ok = True
    rng = np.random.default_rng(77)
    for trial in range(100):
        dim = int(rng.integers(1, 7))
        vectors = {
            f"w{i}": rng.normal(size=dim) * 10.0 ** rng.integers(-6, 7)
            for i in range(int(rng.integers(1, 12)))
        }
        table = EmbeddingTable(dim, vectors)
        path = tmp_path / f"emb{trial}.txt"
        save_embeddings(table, path)
        loaded = load_embeddings(path)
        emb_ok &= loaded.dimension == table.dimension
        emb_ok &= set(loaded.vectors) == set(table.vectors)
        emb_ok &= all(
            loaded.vectors[w].tobytes() == table.vectors[w].astype(np.float64).tobytes()
            for w in table.vectors
        )
        emb_ok &= loaded.unk_vector.tobytes() == table.unk_vector.tobytes()

    ok = ckpt_ok and emb_ok
    report(7, "round-trips", ok, "100 checkpoint + 100 embedding trials")
    assert ckpt_ok
    assert emb_ok


def test_8_preprocessing_conformance():
    """The 7-step pipeline reproduces the hand-derived token list and is
    idempotent on its own output."""
    stopwords = frozenset({"a", "for"})
    domain = frozenset({"json", "parser", "library", "parsing", "files", "parse", "file"})
    lemma = {"parsing": "parse", "files": "file", "libraries": "library"}
    expected = ["json", "parser", "library", "parse", "json", "file"]

    first = process_description("Json-Parser", "A library for parsing JSON files!", stopwords, domain, lemma)
    second = process_description("", " ".join(first), stopwords, domain, lemma)
    ok = first == expected and second == first
    report(8, "preprocessing-conformance", ok, f"tokens: {' '.join(first)}")
    assert first == expected
    assert second == first
