"""Command-line entry point: preprocess, train, evaluate, and recommend.

Every command is deterministic given the same files and flags, and no
command leaves partial outputs behind on failure (outputs are staged and
renamed into place).

`preprocess` writes a prepared directory of seven files:

- `meta.json`: the preprocessing flags and the record counts;
- `word_vocab.txt` and `lib_vocab.txt`: one regular token per line, in
  id order after the reserved ids;
- `lib_freq.tsv`: `library<TAB>count` for every library of the training
  split, the counts behind the loss weights;
- `tables.json`: the description-processing tables;
- `train.jsonl` and `test.jsonl`: one example per line, the object
  `{"name", "tokens", "libraries"}`: the processed description tokens
  and the libraries, most used first.

The rows hold text only.  `train` encodes them under its own config, so
one prepared directory trains under any `max_src` and `max_tgt`; rows
that also hold the id fields of earlier versions load, and those fields
are ignored.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import typing
from dataclasses import fields, replace

import numpy as np

from .corpus import (
    RESERVED_TOKENS,
    DatasetError,
    EncodedExample,
    PreparedDataset,
    PreprocTables,
    ProjectRecord,
    Vocabulary,
    build_vocabularies,
    encode_example,
    filter_projects,
    is_string_list,
    json_lines,
    load_dataset,
    load_lemma_table,
    load_word_list,
    process_description,
    sort_libraries,
    text_lines,
)
from .decode import recommend
from .embeddings import load_embeddings
from .metrics import evaluate
from .trainer import (
    TrainConfig,
    TrainingError,
    load_checkpoint,
    save_checkpoint,
    train,
)

__all__ = ["main", "load_config"]

_JSON_KW = dict(sort_keys=True, ensure_ascii=False, separators=(",", ":"))


def load_config(path) -> TrainConfig:
    """Parse a flat `key = value` config file into a TrainConfig.

    Unknown or repeated keys, uncastable values and values that
    TrainConfig rejects are errors; '#' starts a comment.  Every error is
    a DatasetError that names the file, and the line when one line is at
    fault.
    """
    types = typing.get_type_hints(TrainConfig)
    valid = {f.name for f in fields(TrainConfig)}
    values: dict[str, object] = {}
    for lineno, raw in text_lines(path):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if not sep or not key or not value:
            raise DatasetError(f"{path}: expected 'key = value'", lineno)
        if key not in valid:
            raise DatasetError(f"{path}: unknown config key {key!r}", lineno)
        if key in values:
            raise DatasetError(f"{path}: config key {key!r} is set twice", lineno)
        try:
            values[key] = types[key](value)
        except ValueError:
            raise DatasetError(f"{path}: cannot parse {value!r} as {types[key].__name__}", lineno) from None
    try:
        return TrainConfig(**values)
    except ValueError as exc:
        raise DatasetError(f"{path}: {exc}") from None


def _dump_jsonl(entries) -> str:
    return "".join(json.dumps(entry, **_JSON_KW) + "\n" for entry in entries)


def _usable(records, is_target):
    """The records with a token and a library that `is_target` accepts;
    returns them and the (empty-source, empty-target) drop counts."""
    kept, no_source, no_target = [], 0, 0
    for rec in records:
        if not rec.description.split():
            no_source += 1
        elif not any(map(is_target, rec.libraries)):
            no_target += 1
        else:
            kept.append(rec)
    return kept, no_source, no_target


def cmd_preprocess(args) -> int:
    if not 0.0 < args.split_ratio <= 1.0:
        raise DatasetError(f"--split-ratio must lie in (0, 1], not {args.split_ratio!r}")
    for name, least in (("min_stars", 0), ("min_libs", 0), ("min_desc_words", 0), ("min_lib_usage", 1), ("seed", 0)):
        value = getattr(args, name)
        if value < least:
            raise DatasetError(f"--{name.replace('_', '-')} must be >= {least}, not {value}")
    records = load_dataset(args.dataset)
    stopwords = load_word_list(args.stopwords) if args.stopwords else frozenset()
    domain_vocab = load_word_list(args.domain_vocab) if args.domain_vocab else None
    lemma_table = load_lemma_table(args.lemma_table) if args.lemma_table else {}
    tables = PreprocTables(stopwords, domain_vocab, lemma_table)

    filtered = filter_projects(records, args.min_stars, args.min_libs, args.min_desc_words)
    if not filtered:
        raise DatasetError("empty corpus: no project survived filtering")
    processed = [
        replace(
            rec,
            description=" ".join(
                process_description(rec.name, rec.description, stopwords, domain_vocab, lemma_table)
            ),
        )
        for rec in filtered
    ]

    rng = np.random.default_rng(args.seed)
    order = rng.permutation(len(processed))
    n_train = int(len(processed) * args.split_ratio)
    if n_train == 0:
        raise DatasetError("training split is empty; corpus too small for the split ratio")
    train_recs = [processed[i] for i in sorted(order[:n_train])]
    test_recs = [processed[i] for i in sorted(order[n_train:])]

    word_vocab, lib_vocab, lib_freq = build_vocabularies(train_recs, args.min_lib_usage)
    if not lib_vocab.regular_tokens():
        raise DatasetError("empty library vocabulary: lower --min-lib-usage or add data")

    # a training example needs a token and a library to learn; a test case
    # a token and a library known from the training split
    train_examples, train_no_src, train_no_tgt = _usable(train_recs, lib_vocab.__contains__)
    if not train_examples:
        raise DatasetError("empty corpus: every training record lacks tokens or a vocabulary library")
    test_examples, test_no_src, test_no_truth = _usable(test_recs, lib_freq.__contains__)

    def row(rec: ProjectRecord) -> dict:
        """A row of either split: the libraries known from the training
        split (every library of a training record), most used first."""
        known = sort_libraries([lib for lib in rec.libraries if lib in lib_freq], lib_freq)
        return {"name": rec.name, "tokens": rec.description.split(), "libraries": known}

    meta = {
        "counts": {
            "loaded": len(records),
            "filtered": len(filtered),
            "train_records": len(train_recs),
            "test_records": len(test_recs),
            "train_examples": len(train_examples),
            "test_cases": len(test_examples),
            "train_dropped_empty_source": train_no_src,
            "train_dropped_empty_target": train_no_tgt,
            "test_dropped_empty_source": test_no_src,
            "test_dropped_unknown_truth": test_no_truth,
        },
        "lib_vocab_size": len(lib_vocab.regular_tokens()),
        "min_desc_words": args.min_desc_words,
        "min_lib_usage": args.min_lib_usage,
        "min_libs": args.min_libs,
        "min_stars": args.min_stars,
        "seed": args.seed,
        "split_ratio": args.split_ratio,
        "word_vocab_size": len(word_vocab.regular_tokens()),
    }
    files = {
        "meta.json": json.dumps(meta, indent=2, **{k: v for k, v in _JSON_KW.items() if k != "separators"}) + "\n",
        "word_vocab.txt": "".join(tok + "\n" for tok in word_vocab.regular_tokens()),
        "lib_vocab.txt": "".join(tok + "\n" for tok in lib_vocab.regular_tokens()),
        "lib_freq.tsv": "".join(f"{lib}\t{n}\n" for lib, n in sorted(lib_freq.items())),
        "tables.json": json.dumps(tables.to_json(), **_JSON_KW) + "\n",
        "train.jsonl": _dump_jsonl(map(row, train_examples)),
        "test.jsonl": _dump_jsonl(map(row, test_examples)),
    }
    _write_directory(args.out, files)

    print(f"projects loaded: {len(records)}")
    print(f"projects kept after filtering: {len(filtered)}")
    print(f"train/test split: {len(train_recs)}/{len(test_recs)} (ratio {args.split_ratio})")
    print(f"training examples: {len(train_examples)}")
    print(f"test cases: {len(test_examples)}")
    print(f"word vocabulary: {len(word_vocab.regular_tokens())} tokens")
    print(f"library vocabulary: {len(lib_vocab.regular_tokens())} libraries")
    return 0


def _write_directory(out_dir: str, files: dict[str, str]) -> None:
    """Stage all files in a sibling temp dir, then rename into place."""
    if os.path.exists(out_dir) and os.listdir(out_dir):
        raise ValueError(f"output directory {out_dir!r} exists and is not empty")
    tmp = f"{out_dir.rstrip(os.sep)}.tmp{os.getpid()}"
    os.makedirs(tmp)
    try:
        for name, content in files.items():
            with open(os.path.join(tmp, name), "w", encoding="utf-8") as fh:
                fh.write(content)
        if os.path.exists(out_dir):
            os.rmdir(out_dir)
        os.rename(tmp, out_dir)
    except BaseException:
        shutil.rmtree(tmp, ignore_errors=True)
        raise


def _json_file(path, parse):
    """`parse` of the JSON document in the file; its errors name the file."""
    with open(path, encoding="utf-8") as fh:
        try:
            return parse(json.load(fh))
        except (UnicodeDecodeError, json.JSONDecodeError, DatasetError) as exc:
            raise DatasetError(f"{path}: {exc}") from None


def _vocabulary_file(path) -> Vocabulary:
    """One token per line; a token may not repeat or be a reserved symbol."""
    tokens: dict[str, None] = {}
    for lineno, token in text_lines(path):
        if token in RESERVED_TOKENS or token in tokens:
            raise DatasetError(f"{path}: token {token!r} is reserved or listed twice", lineno)
        tokens[token] = None
    return Vocabulary(list(tokens))


def _example_rows(path, tables: PreprocTables | None = None):
    """The (name, tokens, libraries) of each row of a JSON-lines file of
    examples; a row that does not fit raises DatasetError naming the file
    and the line.  Keys other than these three are ignored.

    Without `tables` the file is a prepared `train.jsonl`: a row needs a
    string name, a non-empty list of tokens without whitespace and a list
    of distinct libraries.  With them it is a test set: the name may be
    left out, and a row without `tokens` is a raw record whose
    `description` is processed with the tables.
    """
    for lineno, row in json_lines(path):
        name = row.get("name", None if tables is None else "")
        if not isinstance(name, str):
            raise DatasetError(f"{path}: 'name' must be a string", lineno)
        tokens, libraries = row.get("tokens"), row.get("libraries")
        if tables is not None and "tokens" not in row:
            if not isinstance(row.get("description"), str):
                raise DatasetError(f"{path}: a row without 'tokens' needs a string 'description'", lineno)
            tokens = process_description(
                name, row["description"], tables.stopwords, tables.domain_vocab, tables.lemma_table
            )
        for key, value in (("tokens", tokens), ("libraries", libraries)):
            if not is_string_list(value):
                raise DatasetError(f"{path}: {key!r} must be a list of strings", lineno)
        if tables is None:
            # train encodes the tokens joined by spaces, as `encode_example` reads a description
            if not tokens or any(tok.split() != [tok] for tok in tokens):
                raise DatasetError(f"{path}: 'tokens' must be one or more words without spaces", lineno)
            if len(set(libraries)) < len(libraries):
                raise DatasetError(f"{path}: 'libraries' must be distinct", lineno)
        yield name, tokens, libraries


def _load_prepared(directory: str, cfg: TrainConfig) -> PreparedDataset:
    """The prepared directory, its rows encoded under `cfg`."""

    def path(name):
        return os.path.join(directory, name)

    word_vocab = _vocabulary_file(path("word_vocab.txt"))
    lib_vocab = _vocabulary_file(path("lib_vocab.txt"))
    lib_freq: dict[str, int] = {}
    for lineno, line in text_lines(path("lib_freq.tsv")):
        fields = line.split("\t")
        if len(fields) != 2 or not fields[1].isdecimal() or int(fields[1]) < 1:
            raise DatasetError(
                f"{path('lib_freq.tsv')}: expected 'library<TAB>count' with a count >= 1", lineno
            )
        lib_freq[fields[0]] = int(fields[1])
    # the loss weights of training come from the counts of the vocabulary
    for lib in lib_vocab.regular_tokens():
        if lib not in lib_freq:
            raise DatasetError(f"{path('lib_freq.tsv')}: no count for library {lib!r} of lib_vocab.txt")
    tables = _json_file(path("tables.json"), PreprocTables.from_json)
    examples = []
    for name, tokens, libraries in _example_rows(path("train.jsonl")):
        record = ProjectRecord(name, " ".join(tokens), tuple(libraries))
        source, target = encode_example(record, word_vocab, lib_vocab, cfg.max_src, cfg.max_tgt)
        examples.append(EncodedExample(name, source, target))
    return PreparedDataset(examples, word_vocab, lib_vocab, lib_freq, tables)


def cmd_train(args) -> int:
    directory = os.path.dirname(args.checkpoint) or "."
    if not os.path.isdir(directory):
        raise ValueError(f"--checkpoint {args.checkpoint!r}: directory {directory!r} does not exist")
    if os.path.isdir(args.checkpoint):
        raise ValueError(f"--checkpoint {args.checkpoint!r} is a directory, not a file path")
    cfg = load_config(args.config) if args.config else TrainConfig()
    data = _load_prepared(args.preprocessed, cfg)
    table = load_embeddings(args.embeddings)
    ckpt = train(data, cfg, table)
    save_checkpoint(ckpt, args.checkpoint)
    print(f"checkpoint written to {args.checkpoint}")
    return 0


def _load_test_set(path, ckpt):
    """Test cases from a preprocessed test.jsonl (tokens ready) or a raw
    dataset file (processed here with the checkpoint's tables)."""
    return [(tokens, libraries) for _, tokens, libraries in _example_rows(path, ckpt.tables)]


def cmd_evaluate(args) -> int:
    try:
        ks = tuple(int(part) for part in args.k.split(","))
    except ValueError:
        raise ValueError(f"--k {args.k!r}: expected comma-separated ints, such as 1,5,10") from None
    ckpt = load_checkpoint(args.checkpoint)
    test_set = _load_test_set(args.dataset, ckpt)
    report = evaluate(ckpt, test_set, ks=ks, beta=args.beta, beam_width=args.beam_width)
    sys.stdout.write(report.format_machine() if args.machine_readable else report.format_text())
    return 0


def cmd_recommend(args) -> int:
    ckpt = load_checkpoint(args.checkpoint)
    result = recommend(args.description, ckpt, args.k, args.beam_width)
    for lib, prob in result.items:
        print(f"{lib} {prob!r}")
    if result.truncated:
        print(
            f"note: decoding finished after {len(result.items)} of {result.requested_k} requested",
            file=sys.stderr,
        )
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="libsuggest",
        description="Recommend third-party libraries from a requirements description.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "preprocess",
        help="filter, process and split a dataset into a prepared directory of vocabularies and text rows",
    )
    p.add_argument("--dataset", required=True, help="JSON-lines project records")
    p.add_argument("--stopwords", help="stopword file, one word per line")
    p.add_argument("--domain-vocab", help="domain vocabulary file; omit to keep all words")
    p.add_argument("--lemma-table", help="lemma file, surface<TAB>base per line")
    p.add_argument("--min-stars", type=int, default=0)
    p.add_argument("--min-libs", type=int, default=0)
    p.add_argument("--min-desc-words", type=int, default=0)
    p.add_argument("--min-lib-usage", type=int, default=2)
    p.add_argument("--split-ratio", type=float, default=0.8)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="output directory (must not exist)")
    p.set_defaults(func=cmd_preprocess)

    p = sub.add_parser(
        "train", help="train a model on a prepared directory, its rows encoded under the config"
    )
    p.add_argument("--preprocessed", required=True, help="directory written by preprocess")
    p.add_argument("--embeddings", required=True, help="textual word-embedding file")
    p.add_argument("--config", help="flat key = value training config")
    p.add_argument("--checkpoint", required=True, help="output checkpoint path")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("evaluate", help="metric report for a checkpoint on a test set")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--dataset", required=True, help="test.jsonl or raw records file")
    p.add_argument("--k", default="1,5,10,20", help="comma-separated k values")
    p.add_argument("--beta", type=float, default=0.2)
    p.add_argument("--beam-width", type=int, default=3)
    p.add_argument("--machine-readable", action="store_true")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("recommend", help="top-k libraries for one description")
    p.add_argument("description", help="requirements description text")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--k", type=int, default=10)
    p.add_argument("--beam-width", type=int, default=3)
    p.set_defaults(func=cmd_recommend)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, TrainingError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
