"""Seeded input generator for the benchmark workloads.

The corpus has `n_libs` libraries with Zipf popularity.  Each library owns
a small cluster of words, so descriptions carry signal about the libraries
a project uses; noise words and stopwords fill the rest.  Lengths follow
fixed schedules over the item index (description lengths on both sides of
max_src, target lengths 1..15), so every seed asks the program for the same
amount of work and only the words and libraries change with the seed.

Run as a script, it writes one workload's inputs to a directory in the
program's own file formats (dataset JSON lines, text embeddings, binary
checkpoint) plus `inputs.json` for queries and test cases:

    python3 perfbench/gen.py --workload recommend --seed 1 --out DIR
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass, replace

import numpy as np

from libsuggest import corpus
from libsuggest.corpus import PreprocTables, ProjectRecord, build_vocabularies
from libsuggest.embeddings import EmbeddingTable, save_embeddings, vocab_matrix
from libsuggest.model import init_params, library_weights
from libsuggest.trainer import ModelCheckpoint, TrainConfig, save_checkpoint

STOPWORDS = frozenset({"the", "a", "an", "for", "and", "of", "with", "to", "in", "on"})
MIN_LIB_USAGE = 2
WIDTHS = (1, 3, 10)
RECOMMEND_K = 10
EVAL_KS = (1, 5, 10, 20)
EVAL_WIDTH = 3


@dataclass(frozen=True)
class Scale:
    """Sizes of the generated inputs and of the model that consumes them."""

    n_libs: int
    n_projects: int
    n_noise: int
    cluster_size: int
    desc_min: int  # content words per description, before stopwords
    desc_max: int
    tgt_max: int  # libraries per project / per test case
    shard: int  # projects the train workload trains on
    n_queries: int
    n_cases: int
    eval_chunk: int  # cases per evaluate() call, one of them skipped
    config: TrainConfig


# Paper dimensions are the TrainConfig defaults; only the epoch count is set.
PAPER = Scale(
    n_libs=1000,
    n_projects=3000,
    n_noise=400,
    cluster_size=3,
    desc_min=4,
    desc_max=40,
    tgt_max=15,
    shard=32,
    n_queries=600,
    n_cases=400,
    eval_chunk=8,
    config=TrainConfig(max_epochs=2),
)

TINY = Scale(
    n_libs=30,
    n_projects=80,
    n_noise=20,
    cluster_size=2,
    desc_min=2,
    desc_max=10,
    tgt_max=5,
    shard=6,
    n_queries=6,
    n_cases=8,
    eval_chunk=4,
    config=TrainConfig(
        max_epochs=2, batch_size=4, max_src=8, max_tgt=6,
        embed_dim=8, enc_hidden=6, dec_hidden=6, lib_embed=4,
    ),
)

SCALES = {"paper": PAPER, "tiny": TINY}


def lib_name(j: int) -> str:
    return f"lib{j:04d}"


def cluster(j: int, scale: Scale) -> list[str]:
    return [f"c{j:04d}{chr(97 + d)}" for d in range(scale.cluster_size)]


def noise_word(j: int) -> str:
    return f"n{j:03d}w"


def desc_length(i: int, scale: Scale) -> int:
    """Content words of item i: 17 is coprime with the range width, so any
    window of that many consecutive items covers every length once."""
    span = scale.desc_max - scale.desc_min + 1
    return scale.desc_min + (i * 17) % span


def chunk_length(p: int, scale: Scale) -> int:
    """Content words of the p-th evaluated case of a chunk: every chunk
    spreads the same lengths evenly over the range."""
    span = scale.desc_max - scale.desc_min
    return scale.desc_min + p * span // (scale.eval_chunk - 2)


def target_length(i: int, scale: Scale) -> int:
    return 1 + (i * 7) % scale.tgt_max


class _Gen:
    def __init__(self, seed: int, scale: Scale):
        self.rng = np.random.default_rng(seed)
        self.scale = scale
        ranks = np.arange(1, scale.n_libs + 1, dtype=np.float64)
        self.popularity = 1.0 / ranks / np.sum(1.0 / ranks)
        # which library sits at each popularity rank
        self.by_rank = self.rng.permutation(scale.n_libs)

    def libraries(self, count: int) -> list[int]:
        ranks = self.rng.choice(self.scale.n_libs, size=count, replace=False, p=self.popularity)
        return [int(self.by_rank[r]) for r in ranks]

    def words(self, libs: list[int], count: int) -> list[str]:
        """`count` content words: one cluster word per library first, then
        an even mix of further cluster words and noise words."""
        out = [str(self.rng.choice(cluster(j, self.scale))) for j in libs[:count]]
        while len(out) < count:
            if self.rng.random() < 0.5:
                out.append(str(self.rng.choice(cluster(int(self.rng.choice(libs)), self.scale))))
            else:
                out.append(noise_word(int(self.rng.integers(self.scale.n_noise))))
        self.rng.shuffle(out)
        return out

    def text(self, words: list[str]) -> str:
        """Raw description: stopwords between content words, a capital and
        punctuation, all of which preprocessing removes again."""
        stop = sorted(STOPWORDS)
        parts = []
        for n, w in enumerate(words):
            if n % 3 == 1:
                parts.append(stop[int(self.rng.integers(len(stop)))])
            parts.append(w)
        return (" ".join(parts) + ".").capitalize()

    def corpus(self) -> list[ProjectRecord]:
        records = []
        for i in range(self.scale.n_projects):
            libs = self.libraries(target_length(i, self.scale))
            a, b = self.rng.integers(self.scale.n_noise, size=2)
            name = f"{noise_word(int(a))}{noise_word(int(b)).capitalize()}"
            description = self.text(self.words(libs, desc_length(i, self.scale)))
            records.append(
                ProjectRecord(f"{name}-{i}", description, tuple(lib_name(j) for j in libs), 10 + i)
            )
        return records

    def query_words(self, n_libs: int, n_words: int, n_unknown: int) -> tuple[list[str], list[int]]:
        """Words and libraries of a query or test case; `n_unknown` of the
        words are unknown to the corpus, so they map to UNK."""
        libs = self.libraries(n_libs)
        words = self.words(libs, n_words)
        for n in range(min(n_unknown, len(words))):
            words[n] = f"u{int(self.rng.integers(10**6)):06d}x"
        return words, libs

    def embeddings(self, words: list[str]) -> EmbeddingTable:
        dim = self.scale.config.embed_dim
        vectors = {w: self.rng.normal(scale=0.5, size=dim) for w in sorted(words)}
        return EmbeddingTable(dim, vectors)


def tables() -> PreprocTables:
    return PreprocTables(STOPWORDS, None, {})


def corpus_words(scale: Scale) -> list[str]:
    words = [w for j in range(scale.n_libs) for w in cluster(j, scale)]
    return words + [noise_word(j) for j in range(scale.n_noise)]


def processed(records: list[ProjectRecord], t: PreprocTables) -> list[ProjectRecord]:
    """Records with preprocessed descriptions (space-joined tokens)."""
    return [
        replace(
            rec,
            description=" ".join(
                corpus.process_description(
                    rec.name, rec.description, t.stopwords, t.domain_vocab, t.lemma_table
                )
            ),
        )
        for rec in records
    ]


def make_inputs(workload: str, seed: int, scale: Scale) -> dict:
    """Every input of one workload, in memory.

    Keys: `records` and `embeddings` for train; `checkpoint` plus `queries`
    (recommend) or `chunks` (evaluate) for the others.
    """
    g = _Gen(seed, scale)
    records = g.corpus()
    table = g.embeddings(corpus_words(scale))
    if workload == "train":
        return {"records": records, "embeddings": table}

    t = tables()
    word_vocab, lib_vocab, lib_freq = build_vocabularies(processed(records, t), MIN_LIB_USAGE)
    cfg = scale.config
    params = init_params(
        cfg.embed_dim, cfg.enc_hidden, cfg.dec_hidden, cfg.lib_embed, len(lib_vocab),
        library_weights(lib_freq, lib_vocab), np.random.default_rng([seed, 1]),
    )
    ckpt = ModelCheckpoint(
        config=cfg, params=params, word_embed=vocab_matrix(word_vocab, table),
        word_vocab=word_vocab, lib_vocab=lib_vocab, lib_freq=lib_freq, tables=t,
        epochs=0, final_loss=None,
    )
    out = {"checkpoint": ckpt}
    if workload == "recommend":
        # each width cycles through every description length on its own
        out["queries"] = []
        for i in range(scale.n_queries):
            j = i // len(WIDTHS)
            words, _ = g.query_words(target_length(i, scale), desc_length(j, scale), j % 3)
            out["queries"].append({"text": g.text(words), "width": WIDTHS[i % len(WIDTHS)]})
    elif workload == "evaluate":
        cases = []
        for i in range(scale.n_cases):
            p = i % scale.eval_chunk
            if p == scale.eval_chunk - 1:
                # no truth library is known to the corpus: evaluate skips it
                words, libs = g.query_words(target_length(i, scale), scale.desc_min, 0)
                truth = [f"unseen{i:04d}.{n}" for n in range(len(libs))]
            else:
                words, libs = g.query_words(target_length(i, scale), chunk_length(p, scale), p % 3)
                truth = [lib_name(j) for j in libs]
            cases.append([words, truth])
        out["chunks"] = [
            cases[start : start + scale.eval_chunk]
            for start in range(0, len(cases), scale.eval_chunk)
        ]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return out


def write_inputs(workload: str, seed: int, scale: Scale, out_dir: str) -> None:
    """Write make_inputs() to `out_dir` in the program's own file formats."""
    inputs = make_inputs(workload, seed, scale)
    if workload == "train":
        with open(os.path.join(out_dir, "dataset.jsonl"), "w", encoding="utf-8") as fh:
            for r in inputs["records"]:
                row = {"name": r.name, "description": r.description, "libraries": list(r.libraries), "stars": r.stars}
                fh.write(json.dumps(row) + "\n")
        save_embeddings(inputs["embeddings"], os.path.join(out_dir, "embeddings.txt"))
        return
    save_checkpoint(inputs["checkpoint"], os.path.join(out_dir, "model.ckpt"))
    rest = {k: v for k, v in inputs.items() if k != "checkpoint"}
    with open(os.path.join(out_dir, "inputs.json"), "w", encoding="utf-8") as fh:
        json.dump(rest, fh)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=("train", "recommend", "evaluate"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--scale", choices=sorted(SCALES), default="paper")
    p.add_argument("--out", required=True)
    args = p.parse_args(argv)
    write_inputs(args.workload, args.seed, SCALES[args.scale], args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
