"""Deterministic synthetic fixtures shared across the test suite.

The overfit corpus wires each library to a small cluster of words so the
description -> library mapping is exactly learnable; every project also
carries a unique name token.  Word vocabulary stays under 200 tokens.
"""

from __future__ import annotations

import json
import math

import numpy as np

from libsuggest.corpus import (
    EOS_ID,
    EncodedExample,
    N_RESERVED,
    PreparedDataset,
    PreprocTables,
    ProjectRecord,
    Vocabulary,
    build_vocabularies,
    encode_example,
    process_description,
    sort_libraries,
)
from libsuggest.embeddings import EmbeddingTable
from libsuggest.model import BOS, decoder_step, encode, init_params, initial_decoder_state
from libsuggest.tensor import Tensor
from libsuggest.trainer import ModelCheckpoint, TrainConfig

STOPWORDS = frozenset({"the", "for", "a"})


def lib_name(j: int) -> str:
    return f"lib{j:02d}"


def cluster_words(j: int) -> list[str]:
    return [f"w{3 * j + d:03d}" for d in range(3)]


def make_corpus(n_projects: int = 50, n_libs: int = 40) -> list[ProjectRecord]:
    """Projects with deterministic word -> library correlations."""
    records = []
    for i in range(n_projects):
        k = 3 + i % 3
        used = [lib_name((3 * i + t) % n_libs) for t in range(k)]
        words = [f"proj{i:02d}"]
        for lib in used:
            j = int(lib[3:])
            cluster = cluster_words(j)
            words += ["the", cluster[0], cluster[1 + (i % 2)]]
        records.append(
            ProjectRecord(
                name=f"proj{i:02d}",
                description=" ".join(words),
                libraries=tuple(used),
                stars=20 + i,
            )
        )
    return records


def all_corpus_words(n_projects: int = 50, n_libs: int = 40) -> list[str]:
    words = [w for j in range(n_libs) for w in cluster_words(j)]
    words += [f"proj{i:02d}" for i in range(n_projects)]
    return words


def make_embedding_table(dim: int = 16, seed: int = 42, n_projects: int = 50, n_libs: int = 40) -> EmbeddingTable:
    rng = np.random.default_rng(seed)
    vectors = {w: rng.normal(size=dim) for w in all_corpus_words(n_projects, n_libs)}
    return EmbeddingTable(dim, vectors)


def overfit_config(max_epochs: int, seed: int = 7) -> TrainConfig:
    return TrainConfig(
        learning_rate=3e-3,
        dropout_p=0.0,
        batch_size=10,
        max_epochs=max_epochs,
        seed=seed,
        max_src=16,
        max_tgt=8,
        embed_dim=16,
        enc_hidden=24,
        dec_hidden=24,
        lib_embed=12,
    )


def prepared_dataset(n_projects: int = 50, n_libs: int = 40, cfg: TrainConfig | None = None) -> PreparedDataset:
    """Library-level pipeline over the synthetic corpus (no files)."""
    cfg = cfg or overfit_config(max_epochs=1)
    tables = PreprocTables(STOPWORDS, None, {})
    records = make_corpus(n_projects, n_libs)
    processed = [
        ProjectRecord(
            r.name,
            " ".join(
                process_description(r.name, r.description, tables.stopwords, None, {})
            ),
            r.libraries,
            r.stars,
        )
        for r in records
    ]
    word_vocab, lib_vocab, lib_freq = build_vocabularies(processed, min_lib_usage=2)
    examples = []
    for rec in processed:
        ordered = ProjectRecord(
            rec.name, rec.description, tuple(sort_libraries(rec.libraries, lib_freq)), rec.stars
        )
        src, tgt = encode_example(ordered, word_vocab, lib_vocab, cfg.max_src, cfg.max_tgt)
        examples.append(EncodedExample(rec.name, src, tgt))
    return PreparedDataset(examples, word_vocab, lib_vocab, lib_freq, tables)


def write_corpus_files(directory, n_projects: int = 15, n_libs: int = 12, dim: int = 16):
    """Write dataset/stopword/lemma/embedding/config files for CLI tests.

    Returns a dict of paths.
    """
    directory.mkdir(parents=True, exist_ok=True)
    paths = {
        "dataset": directory / "dataset.jsonl",
        "stopwords": directory / "stopwords.txt",
        "lemma": directory / "lemma.tsv",
        "embeddings": directory / "embeddings.txt",
        "config": directory / "train.cfg",
    }
    records = make_corpus(n_projects, n_libs)
    with open(paths["dataset"], "w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(
                json.dumps(
                    {
                        "name": rec.name,
                        "description": rec.description,
                        "libraries": list(rec.libraries),
                        "stars": rec.stars,
                    }
                )
                + "\n"
            )
    paths["stopwords"].write_text("".join(w + "\n" for w in sorted(STOPWORDS)), encoding="utf-8")
    paths["lemma"].write_text("libraries\tlibrary\nfiles\tfile\n", encoding="utf-8")

    rng = np.random.default_rng(42)
    words = all_corpus_words(n_projects, n_libs)
    lines = [f"{len(words)} {dim}"]
    for w in words:
        vec = rng.normal(size=dim)
        lines.append(w + " " + " ".join(repr(float(x)) for x in vec))
    paths["embeddings"].write_text("\n".join(lines) + "\n", encoding="utf-8")

    cfg = overfit_config(max_epochs=200)
    paths["config"].write_text(
        "\n".join(
            [
                f"learning_rate = {cfg.learning_rate}",
                f"dropout_p = {cfg.dropout_p}",
                f"batch_size = {cfg.batch_size}",
                f"max_epochs = {cfg.max_epochs}",
                f"seed = {cfg.seed}",
                f"max_src = {cfg.max_src}",
                f"max_tgt = {cfg.max_tgt}",
                f"embed_dim = {cfg.embed_dim}",
                f"enc_hidden = {cfg.enc_hidden}",
                f"dec_hidden = {cfg.dec_hidden}",
                f"lib_embed = {cfg.lib_embed}",
            ]
        )
        + "\n",
        encoding="utf-8",
    )
    return paths


def random_checkpoint(seed: int, n_libs: int = 5, n_words: int = 6, embed_dim: int = 4, hidden: int = 4) -> ModelCheckpoint:
    """Untrained checkpoint with random parameters, for decode/mask tests."""
    rng = np.random.default_rng(seed)
    weights = np.full(n_libs, 1.0 - 1.0 / n_libs)
    params = init_params(embed_dim, hidden, hidden, 4, n_libs + N_RESERVED, weights, rng)
    words = [f"t{i}" for i in range(n_words)]
    word_vocab = Vocabulary(words)
    lib_vocab = Vocabulary([f"lib{j}" for j in range(n_libs)])
    word_embed = np.zeros((len(word_vocab), embed_dim))
    word_embed[N_RESERVED:] = rng.normal(size=(n_words, embed_dim))
    cfg = TrainConfig(
        max_src=8,
        max_tgt=6,
        embed_dim=embed_dim,
        enc_hidden=hidden,
        dec_hidden=hidden,
        lib_embed=4,
    )
    return ModelCheckpoint(
        config=cfg,
        params=params,
        word_embed=word_embed,
        word_vocab=word_vocab,
        lib_vocab=lib_vocab,
        lib_freq={f"lib{j}": j + 1 for j in range(n_libs)},
        tables=PreprocTables(frozenset(), None, {}),
        epochs=0,
        final_loss=None,
    )


def start_one(tokens, ckpt: ModelCheckpoint):
    """The start of a decode of one token list from the model's
    one-sequence calls, as the benchmark's replay builds it, independent of
    the decoder's own start: (encoder output, length, s, cell, context)."""
    params = ckpt.params
    ids = [ckpt.word_vocab.id(tok) for tok in tokens][: ckpt.config.max_src]
    enc_out = encode(Tensor(ckpt.word_embed[np.array(ids)]), len(ids), params.enc_fwd, params.enc_bwd)
    return (enc_out, len(ids), *initial_decoder_state(enc_out, len(ids), params))


def exhaustive_best(ckpt, tokens, max_steps):
    """The best (score, sequence) of every no-repeat library sequence that
    ends with EOS within max_steps emissions, scored over the one-sequence
    `decoder_step`; ties resolve to the lexicographically smallest."""
    enc_out, valid_len, s0, c0, ctx0 = start_one(tokens, ckpt)
    vocab_n = ckpt.params.lib_vocab_size
    best: list[tuple[float, tuple[int, ...]]] = []

    def walk(prev, s, cell, ctx, seq, score, depth):
        if depth == max_steps:
            return
        s2, cell2, ctx2, _, y = decoder_step(prev, ctx, s, cell, enc_out, valid_len, set(seq), ckpt.params)
        yd = y.data
        p_eos = float(yd[EOS_ID])
        eos_score = score + (math.log(p_eos) if p_eos > 0 else -math.inf)
        best.append((eos_score, seq))
        for lib in range(N_RESERVED, vocab_n):
            if lib in seq:
                continue
            p = float(yd[lib])
            walk(lib, s2, cell2, ctx2, seq + (lib,), score + (math.log(p) if p > 0 else -math.inf), depth + 1)

    walk(BOS, s0, c0, ctx0, (), 0.0, 0)
    return min(best, key=lambda item: (-item[0], item[1]))
