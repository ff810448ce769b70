import json
import os
import shutil
import subprocess
import sys

import pytest

import _synth
from libsuggest.cli import _load_prepared, _load_test_set, load_config, main
from libsuggest.corpus import DatasetError
from libsuggest.trainer import TrainConfig, load_checkpoint


def read_tree(directory):
    out = {}
    for name in sorted(os.listdir(directory)):
        out[name] = (directory / name).read_bytes()
    return out


@pytest.fixture(scope="module")
def corpus_files(tmp_path_factory):
    return _synth.write_corpus_files(tmp_path_factory.mktemp("fixture"))


def run_preprocess(paths, out_dir, extra=()):
    return main(
        [
            "preprocess",
            "--dataset", str(paths["dataset"]),
            "--stopwords", str(paths["stopwords"]),
            "--lemma-table", str(paths["lemma"]),
            "--min-libs", "2",
            "--seed", "0",
            "--out", str(out_dir),
            *extra,
        ]
    )


class TestConfigFile:
    def test_parse_and_overrides(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("learning_rate = 0.01  # fast\nbatch_size = 4\n", encoding="utf-8")
        cfg = load_config(path)
        assert cfg.learning_rate == 0.01
        assert cfg.batch_size == 4
        assert cfg.adam_beta1 == TrainConfig().adam_beta1

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("warp_speed = 9\n", encoding="utf-8")
        with pytest.raises(ValueError, match="unknown config key"):
            load_config(path)

    def test_text_that_is_not_utf8_names_file_and_line(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_bytes(b"seed = 1\n\xff\n")
        with pytest.raises(DatasetError, match=r"^line 2: .*c\.cfg: not UTF-8"):
            load_config(path)

    @pytest.mark.parametrize(
        "text, message",
        [
            ("seed 1", "expected 'key = value'"),
            ("warp_speed = 9", "unknown config key 'warp_speed'"),
            ("seed = one", "cannot parse 'one' as int"),
            ("seed = 1\nbatch_size = 4\nseed = 2", "config key 'seed' is set twice"),
        ],
        ids=["no_equals_sign", "unknown_key", "uncastable_value", "repeated_key"],
    )
    def test_line_errors_name_the_file_and_the_line(self, tmp_path, text, message):
        path = tmp_path / "c.cfg"
        path.write_text(f"# comment\n{text}\n", encoding="utf-8")
        # the error is on the last line of `text`
        line = 1 + len(text.splitlines())
        with pytest.raises(DatasetError, match=rf"^line {line}: .*c\.cfg: {message}"):
            load_config(path)

    def test_invalid_value_names_the_file(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("max_src = 0\n", encoding="utf-8")
        with pytest.raises(DatasetError, match=r"^\S*c\.cfg: sequence limits must be >= 1$"):
            load_config(path)

    def test_dropout_one_rejected_at_validation(self, tmp_path, capsys):
        path = tmp_path / "c.cfg"
        path.write_text("dropout_p = 1.0\n", encoding="utf-8")
        code = main(["train", "--preprocessed", "x", "--embeddings", "y",
                     "--config", str(path), "--checkpoint", "z"])
        assert code == 1
        assert "dropout" in capsys.readouterr().err


class TestPreprocess:
    def test_deterministic_across_runs(self, corpus_files, tmp_path, capsys):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert run_preprocess(corpus_files, out_a) == 0
        assert run_preprocess(corpus_files, out_b) == 0
        capsys.readouterr()
        assert read_tree(out_a) == read_tree(out_b)

    def test_statistics_lines(self, corpus_files, tmp_path, capsys):
        assert run_preprocess(corpus_files, tmp_path / "out") == 0
        out = capsys.readouterr().out
        assert "projects loaded: 15" in out
        assert "train/test split: 12/3 (ratio 0.8)" in out
        assert "library vocabulary:" in out
        assert "word vocabulary:" in out

    def test_filter_everything_errors_without_partial_output(self, corpus_files, tmp_path, capsys):
        out_dir = tmp_path / "never"
        code = run_preprocess(corpus_files, out_dir, extra=("--min-stars", "100000"))
        assert code == 1
        assert "empty corpus" in capsys.readouterr().err
        assert not out_dir.exists()

    @pytest.mark.parametrize("ratio", ["-0.5", "0", "1.5", "nan", "inf"])
    def test_split_ratio_outside_zero_to_one_rejected_before_reading(self, corpus_files, tmp_path, capsys, ratio):
        # a dataset that does not exist: the flag fails first
        out_dir = tmp_path / "never"
        paths = dict(corpus_files, dataset=tmp_path / "missing.jsonl")
        assert run_preprocess(paths, out_dir, extra=("--split-ratio", ratio)) == 1
        assert f"--split-ratio must lie in (0, 1], not {float(ratio)!r}" in capsys.readouterr().err
        assert not out_dir.exists()

    def test_split_ratio_one_leaves_the_test_split_empty(self, corpus_files, tmp_path, capsys):
        out_dir = tmp_path / "out"
        assert run_preprocess(corpus_files, out_dir, extra=("--split-ratio", "1.0")) == 0
        assert "train/test split: 15/0 (ratio 1.0)" in capsys.readouterr().out
        assert (out_dir / "test.jsonl").read_text(encoding="utf-8") == ""

    def test_existing_nonempty_output_rejected(self, corpus_files, tmp_path, capsys):
        out_dir = tmp_path / "busy"
        out_dir.mkdir()
        (out_dir / "junk").write_text("x", encoding="utf-8")
        assert run_preprocess(corpus_files, out_dir) == 1
        assert "not empty" in capsys.readouterr().err

    def test_output_files_complete_and_consistent(self, corpus_files, tmp_path, capsys):
        out_dir = tmp_path / "out"
        run_preprocess(corpus_files, out_dir)
        capsys.readouterr()
        names = set(os.listdir(out_dir))
        assert names == {
            "meta.json", "word_vocab.txt", "lib_vocab.txt", "lib_freq.tsv",
            "tables.json", "train.jsonl", "test.jsonl",
        }
        meta = json.loads((out_dir / "meta.json").read_text(encoding="utf-8"))
        assert meta["counts"]["train_records"] == 12
        assert "max_src" not in meta and "max_tgt" not in meta  # the rows hold no ids
        words = set((out_dir / "word_vocab.txt").read_text(encoding="utf-8").split())
        libs = set((out_dir / "lib_vocab.txt").read_text(encoding="utf-8").split())
        freq = dict(
            (lib, int(n)) for lib, n in
            (line.split("\t") for line in (out_dir / "lib_freq.tsv").read_text(encoding="utf-8").splitlines())
        )
        counts = meta["counts"]
        for name, n_rows in (("train.jsonl", counts["train_examples"]), ("test.jsonl", counts["test_cases"])):
            rows = [json.loads(l) for l in (out_dir / name).read_text(encoding="utf-8").splitlines()]
            assert len(rows) == n_rows
            for row in rows:
                assert set(row) == {"name", "tokens", "libraries"}
                assert row["tokens"] and row["libraries"]
                # most used first, ties by name, as the targets are learned
                assert row["libraries"] == sorted(row["libraries"], key=lambda lib: (-freq[lib], lib))
                if name == "train.jsonl":
                    assert set(row["tokens"]) <= words and set(row["libraries"]) & libs


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory, corpus_files):
    """One full preprocess -> train run shared by the CLI tests."""
    root = tmp_path_factory.mktemp("pipeline")
    out_dir = root / "prep"
    ckpt_path = root / "model.ckpt"
    assert run_preprocess(corpus_files, out_dir) == 0
    code = main(
        [
            "train",
            "--preprocessed", str(out_dir),
            "--embeddings", str(corpus_files["embeddings"]),
            "--config", str(corpus_files["config"]),
            "--checkpoint", str(ckpt_path),
        ]
    )
    assert code == 0
    return {"prep": out_dir, "ckpt": ckpt_path, "files": corpus_files}


class TestTrainCommand:
    def test_same_seed_bit_identical_checkpoints(self, pipeline, tmp_path, capsys):
        second = tmp_path / "again.ckpt"
        code = main(
            [
                "train",
                "--preprocessed", str(pipeline["prep"]),
                "--embeddings", str(pipeline["files"]["embeddings"]),
                "--config", str(pipeline["files"]["config"]),
                "--checkpoint", str(second),
            ]
        )
        capsys.readouterr()
        assert code == 0
        assert second.read_bytes() == pipeline["ckpt"].read_bytes()

    def test_training_recall_on_fixture(self, pipeline, capsys):
        code = main(
            [
                "evaluate",
                "--checkpoint", str(pipeline["ckpt"]),
                "--dataset", str(pipeline["prep"] / "train.jsonl"),
                "--k", "10",
                "--machine-readable",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        values = {}
        for line in out.strip().splitlines():
            name, k, value = line.split("\t")
            values[(name, int(k))] = float(value)
        assert values[("recall_rate@k", 10)] >= 0.95

    def test_missing_inputs_error(self, tmp_path, capsys):
        code = main(
            [
                "train",
                "--preprocessed", str(tmp_path / "nope"),
                "--embeddings", str(tmp_path / "nope.txt"),
                "--checkpoint", str(tmp_path / "out.ckpt"),
            ]
        )
        assert code == 1
        assert capsys.readouterr().err.startswith("error:")


class TestPreparedDirectory:
    """`train --preprocessed` input that would fail inside training, or
    without naming where, raises DatasetError with the file and line."""

    @staticmethod
    def copy(pipeline, tmp_path):
        prep = tmp_path / "prep"
        shutil.copytree(pipeline["prep"], prep)
        return prep

    def test_lib_freq_line_without_two_fields(self, pipeline, tmp_path):
        prep = self.copy(pipeline, tmp_path)
        lines = (prep / "lib_freq.tsv").read_text(encoding="utf-8").splitlines(keepends=True)
        lines[1] = lines[1].rstrip("\n") + "\t7\n"
        (prep / "lib_freq.tsv").write_text("".join(lines), encoding="utf-8")
        with pytest.raises(DatasetError, match=r"^line 2: .*lib_freq\.tsv"):
            _load_prepared(str(prep), load_config(pipeline["files"]["config"]))

    @staticmethod
    def replace_row(pipeline, tmp_path, edit, name="train.jsonl"):
        prep = TestPreparedDirectory.copy(pipeline, tmp_path)
        lines = (prep / name).read_text(encoding="utf-8").splitlines(keepends=True)
        lines[2] = edit(json.loads(lines[2])) + "\n"
        (prep / name).write_text("".join(lines), encoding="utf-8")
        return prep

    @staticmethod
    def set_field(key, value):
        def edit(row):  # None drops the key
            if value is None:
                del row[key]
            else:
                row[key] = value
            return json.dumps(row)

        return edit

    def test_invalid_json_line(self, pipeline, tmp_path):
        prep = self.replace_row(pipeline, tmp_path, lambda row: json.dumps(row)[:-1])
        with pytest.raises(DatasetError, match=r"^line 3: .*train\.jsonl: invalid JSON"):
            _load_prepared(str(prep), load_config(pipeline["files"]["config"]))

    def test_non_object_line(self, pipeline, tmp_path):
        prep = self.replace_row(pipeline, tmp_path, lambda row: "[1]")
        with pytest.raises(DatasetError, match=r"^line 3: .*train\.jsonl: record is not an object"):
            _load_prepared(str(prep), load_config(pipeline["files"]["config"]))

    @pytest.mark.parametrize(
        "key, value",
        [
            ("name", None), ("name", 5), ("tokens", None), ("tokens", 5), ("tokens", [1]),
            ("libraries", None), ("libraries", "abc"), ("libraries", [1]),
        ],
        ids=str,
    )
    def test_missing_or_mistyped_field(self, pipeline, tmp_path, key, value):
        prep = self.replace_row(pipeline, tmp_path, self.set_field(key, value))
        with pytest.raises(DatasetError, match=rf"^line 3: .*train\.jsonl: '{key}'"):
            _load_prepared(str(prep), load_config(pipeline["files"]["config"]))

    @pytest.mark.parametrize(
        "key, value",
        [
            ("name", 5), ("tokens", None), ("tokens", 5), ("tokens", [1]),
            ("libraries", None), ("libraries", "abc"), ("libraries", [1]),
        ],
        ids=str,
    )
    def test_test_set_row_with_a_missing_or_mistyped_field(self, pipeline, tmp_path, key, value):
        # a row without tokens is a raw record, which needs a description
        prep = self.replace_row(pipeline, tmp_path, self.set_field(key, value), name="test.jsonl")
        expected = "'description'" if key == "tokens" and value is None else f"'{key}'"
        with pytest.raises(DatasetError, match=rf"^line 3: .*test\.jsonl: .*{expected}"):
            _load_test_set(prep / "test.jsonl", _synth.random_checkpoint(0))

    @pytest.mark.parametrize(
        "edit, message",
        [
            ({"tokens": []}, "'tokens' must be one or more words"),
            ({"tokens": ["w000 w001"]}, "'tokens' must be one or more words without spaces"),
            ({"libraries": ["lib00", "lib01", "lib00"]}, "'libraries' must be distinct"),
        ],
        ids=["empty_tokens", "spaced_token", "repeated_library"],
    )
    def test_train_row_that_cannot_be_encoded(self, pipeline, tmp_path, edit, message):
        prep = self.replace_row(pipeline, tmp_path, lambda row: json.dumps({**row, **edit}))
        with pytest.raises(DatasetError, match=rf"^line 3: .*train\.jsonl: {message}"):
            _load_prepared(str(prep), load_config(pipeline["files"]["config"]))

    def test_rows_with_the_id_fields_of_earlier_versions_train_the_same_checkpoint(self, pipeline, tmp_path):
        # earlier versions stored each row's ids next to its text, and the
        # limits they were encoded under in meta.json; those fields are ignored
        prep = self.copy(pipeline, tmp_path)
        cfg = load_config(pipeline["files"]["config"])
        data = _load_prepared(str(prep), cfg)
        rows = [json.loads(l) for l in (prep / "train.jsonl").read_text(encoding="utf-8").splitlines()]
        for row, example in zip(rows, data.examples, strict=True):
            src, tgt = example.source, example.target
            row.update(src_ids=list(src.ids), src_len=src.length, tgt_ids=list(tgt.ids), tgt_len=tgt.length)
        (prep / "train.jsonl").write_text("".join(json.dumps(row) + "\n" for row in rows), encoding="utf-8")
        meta = json.loads((prep / "meta.json").read_text(encoding="utf-8"))
        (prep / "meta.json").write_text(json.dumps({**meta, "max_src": cfg.max_src, "max_tgt": cfg.max_tgt}))
        ckpt = tmp_path / "model.ckpt"
        assert self.train(pipeline, prep, ckpt) == 0
        assert ckpt.read_bytes() == pipeline["ckpt"].read_bytes()

    def test_one_directory_trains_under_other_sequence_limits(self, pipeline, tmp_path):
        cfg = load_config(pipeline["files"]["config"])
        lines = pipeline["files"]["config"].read_text(encoding="utf-8").splitlines(keepends=True)
        short = tmp_path / "short.cfg"
        short.write_text(
            "".join(l for l in lines if not l.startswith(("max_src", "max_tgt", "max_epochs")))
            + f"max_src = {cfg.max_src // 4}\nmax_tgt = {cfg.max_tgt // 2}\nmax_epochs = 2\n",
            encoding="utf-8",
        )
        data = _load_prepared(str(pipeline["prep"]), load_config(short))
        assert {len(ex.source.ids) for ex in data.examples} == {cfg.max_src // 4}
        assert {len(ex.target.ids) for ex in data.examples} == {cfg.max_tgt // 2}
        assert max(ex.source.length for ex in data.examples) == cfg.max_src // 4  # some sources cut
        ckpt = tmp_path / "short.ckpt"
        assert self.train(pipeline, pipeline["prep"], ckpt, config=short) == 0
        assert load_checkpoint(ckpt).config == load_config(short)

    @staticmethod
    def train(pipeline, prep, ckpt, config=None):
        return main(
            [
                "train",
                "--preprocessed", str(prep),
                "--embeddings", str(pipeline["files"]["embeddings"]),
                "--config", str(config or pipeline["files"]["config"]),
                "--checkpoint", str(ckpt),
            ]
        )

    def rejects(self, pipeline, tmp_path, name, content, match):
        prep = self.copy(pipeline, tmp_path)
        (prep / name).write_bytes(content.encode("utf-8") if isinstance(content, str) else content)
        with pytest.raises(DatasetError, match=match):
            _load_prepared(str(prep), load_config(pipeline["files"]["config"]))

    @pytest.mark.parametrize(
        "tables",
        [
            [],
            {"stopwords": "abc", "domain_vocab": None, "lemma": []},
            {"stopwords": [], "domain_vocab": None, "lemma": [[1, 2]]},
            {"stopwords": [], "domain_vocab": None, "lemma": ["ab"]},
        ],
    )
    def test_malformed_tables(self, pipeline, tmp_path, tables):
        self.rejects(pipeline, tmp_path, "tables.json", json.dumps(tables), r"tables\.json: ")

    def test_tables_that_a_checkpoint_cannot_hold_fail_before_training(self, pipeline, tmp_path, capsys):
        # the stored form of the tables is read by one checked reader, so
        # train does not write a checkpoint that load_checkpoint refuses
        prep = self.copy(pipeline, tmp_path)
        (prep / "tables.json").write_text('{"domain_vocab":null,"lemma":[],"stopwords":[1]}\n', encoding="utf-8")
        ckpt = tmp_path / "model.ckpt"
        assert self.train(pipeline, prep, ckpt) == 1 and not ckpt.exists()
        assert "tables.json: 'stopwords' must be a list of strings" in capsys.readouterr().err

    def test_lib_freq_lacking_a_vocabulary_library(self, pipeline, tmp_path, capsys):
        prep = self.copy(pipeline, tmp_path)
        first = (prep / "lib_vocab.txt").read_text(encoding="utf-8").split("\n")[0]
        lines = (prep / "lib_freq.tsv").read_text(encoding="utf-8").splitlines(keepends=True)
        (prep / "lib_freq.tsv").write_text("".join(l for l in lines if l.split("\t")[0] != first), encoding="utf-8")
        assert self.train(pipeline, prep, tmp_path / "model.ckpt") == 1
        assert f"lib_freq.tsv: no count for library {first!r}" in capsys.readouterr().err

    def test_lib_freq_count_below_one(self, pipeline, tmp_path):
        text = (pipeline["prep"] / "lib_freq.tsv").read_text(encoding="utf-8")
        self.rejects(pipeline, tmp_path, "lib_freq.tsv", text + "zzz.unused\t0\n", r"^line \d+: .*lib_freq\.tsv")

    @pytest.mark.parametrize("name", ["word_vocab.txt", "lib_vocab.txt"])
    @pytest.mark.parametrize("token", ["<unk>", None])  # None repeats the first token
    def test_reserved_or_repeated_token(self, pipeline, tmp_path, name, token):
        lines = (pipeline["prep"] / name).read_text(encoding="utf-8").splitlines(keepends=True)
        lines[2] = (token or lines[0].rstrip("\n")) + "\n"
        self.rejects(pipeline, tmp_path, name, "".join(lines), rf"^line 3: .*{name}: token")

    def test_text_that_is_not_utf8(self, pipeline, tmp_path):
        lines = (pipeline["prep"] / "train.jsonl").read_bytes().splitlines(keepends=True)
        lines[1] = lines[1].replace(b'"name"', b'"n\xffme"')
        self.rejects(pipeline, tmp_path, "train.jsonl", b"".join(lines), r"^line 2: .*train\.jsonl: not UTF-8")


def test_mutated_prepared_directory_only_raises_dataset_error(pipeline, tmp_path):
    """Byte edits of any file of a prepared directory, with binary or
    JSON-like bytes: the directory either loads or fails with DatasetError."""
    from hypothesis import given, settings
    from hypothesis import strategies as st

    cfg = load_config(pipeline["files"]["config"])
    files = {name: (pipeline["prep"] / name).read_bytes() for name in sorted(os.listdir(pipeline["prep"]))}
    raw = st.one_of(
        st.binary(min_size=1, max_size=4),
        st.text('[]{}",:0123-.en\t\n <>', min_size=1, max_size=4).map(str.encode),
    )
    edits = st.lists(st.tuples(st.integers(0, 2**20), raw), min_size=1, max_size=3)

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(st.sampled_from(sorted(files)), edits, st.integers(-16, 16))
    def run(name, byte_edits, resize):
        data = bytearray(files[name])
        for at, chunk in byte_edits:
            at %= len(data) + 1
            data[at : at + len(chunk)] = chunk
        if resize > 0:
            data += bytes(resize)
        elif resize < 0:
            del data[resize:]
        for other, content in files.items():
            (tmp_path / other).write_bytes(bytes(data) if other == name else content)
        try:
            _load_prepared(str(tmp_path), cfg)
        except DatasetError:
            pass

    run()


@pytest.mark.parametrize("loader", ["dataset", "word_list", "lemma_table", "embeddings", "config", "test_set"])
def test_mutated_input_files_only_raise_their_typed_errors(pipeline, tmp_path, loader):
    """Byte edits of one input file, with binary or text-like bytes: its
    loader either returns or fails with its typed error, never with a bare
    decoding error (a UnicodeDecodeError is a ValueError too)."""
    from hypothesis import given, settings
    from hypothesis import strategies as st

    from libsuggest.corpus import load_dataset, load_lemma_table, load_word_list
    from libsuggest.embeddings import EmbeddingFormatError, load_embeddings
    from libsuggest.trainer import load_checkpoint

    files, ckpt = pipeline["files"], load_checkpoint(pipeline["ckpt"])
    source, load, error = {
        "dataset": (files["dataset"], load_dataset, DatasetError),
        "word_list": (files["stopwords"], load_word_list, DatasetError),
        "lemma_table": (files["lemma"], load_lemma_table, DatasetError),
        "embeddings": (files["embeddings"], load_embeddings, EmbeddingFormatError),
        "config": (files["config"], load_config, DatasetError),
        "test_set": (pipeline["prep"] / "test.jsonl", lambda path: _load_test_set(path, ckpt), DatasetError),
    }[loader]
    original, path = source.read_bytes(), tmp_path / source.name
    raw = st.one_of(
        st.binary(min_size=1, max_size=4),
        st.text('[]{}",:=#0123-.en\t\n <>', min_size=1, max_size=4).map(str.encode),
    )
    edits = st.lists(st.tuples(st.integers(0, 2**20), raw), min_size=1, max_size=3)

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(edits, st.integers(-16, 16))
    def run(byte_edits, resize):
        data = bytearray(original)
        for at, chunk in byte_edits:
            at %= len(data) + 1
            data[at : at + len(chunk)] = chunk
        if resize > 0:
            data += bytes(resize)
        elif resize < 0:
            del data[resize:]
        path.write_bytes(bytes(data))
        try:
            load(path)
        except error as exc:
            assert not isinstance(exc, UnicodeError), exc

    run()


class TestEvaluateCommand:
    @pytest.mark.parametrize(
        "line",
        [
            "[1, 2]",
            "7",
            '{"tokens": 5, "libraries": ["a"]}',
            '{"tokens": "abc", "libraries": ["a"]}',
            '{"tokens": ["a"], "libraries": "lib"}',
            '{"tokens": ["a"]}',
            '{"description": "parse json files"}',
            '{"description": 5, "libraries": ["a"]}',
        ],
    )
    def test_malformed_test_set_line_raises_dataset_error(self, tmp_path, line):
        path = tmp_path / "test.jsonl"
        path.write_text('{"tokens": ["a"], "libraries": ["b"]}\n' + line + "\n", encoding="utf-8")
        with pytest.raises(DatasetError, match="^line 2: "):
            _load_test_set(path, _synth.random_checkpoint(0))

    def test_default_flags_table(self, pipeline, capsys):
        code = main(
            [
                "evaluate",
                "--checkpoint", str(pipeline["ckpt"]),
                "--dataset", str(pipeline["prep"] / "test.jsonl"),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "k=1" in out and "k=5" in out and "k=10" in out and "k=20" in out
        assert "beta = 0.2" in out
        assert "recall_rate@k" in out

    def test_machine_readable_round_trip(self, pipeline, capsys):
        code = main(
            [
                "evaluate",
                "--checkpoint", str(pipeline["ckpt"]),
                "--dataset", str(pipeline["prep"] / "test.jsonl"),
                "--k", "1,5",
                "--machine-readable",
            ]
        )
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 6  # 3 metrics x 2 ks
        for line in lines:
            name, k, value = line.split("\t")
            assert 0.0 <= float(value) <= 1.0

    def test_empty_test_set_errors(self, pipeline, tmp_path, capsys):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("", encoding="utf-8")
        code = main(
            [
                "evaluate",
                "--checkpoint", str(pipeline["ckpt"]),
                "--dataset", str(empty),
            ]
        )
        assert code == 1
        assert "empty" in capsys.readouterr().err

    @pytest.mark.parametrize("beta", ["inf", "nan", "-1", "1100"])
    def test_beta_that_gives_no_weights_is_an_error(self, pipeline, capsys, beta):
        # 1100 passes the flag check, but f ** -1100 underflows to 0
        code = main(
            [
                "evaluate",
                "--checkpoint", str(pipeline["ckpt"]),
                "--dataset", str(pipeline["prep"] / "test.jsonl"),
                "--beta", beta,
            ]
        )
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and "beta" in captured.err

    def test_identical_reports_across_runs(self, pipeline, capsys):
        args = [
            "evaluate",
            "--checkpoint", str(pipeline["ckpt"]),
            "--dataset", str(pipeline["prep"] / "test.jsonl"),
            "--machine-readable",
        ]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert main(args) == 0
        second = capsys.readouterr().out
        assert first == second


class TestRecommendCommand:
    def test_k_one_prints_single_line(self, pipeline, capsys):
        code = main(
            [
                "recommend", "w000 w001 w002",
                "--checkpoint", str(pipeline["ckpt"]),
                "--k", "1",
            ]
        )
        assert code == 0
        out_lines = capsys.readouterr().out.strip().splitlines()
        assert len(out_lines) == 1
        lib, prob = out_lines[0].split()
        assert lib.startswith("lib")
        assert 0.0 < float(prob) <= 1.0

    def test_stopword_description_is_error(self, pipeline, capsys):
        code = main(
            [
                "recommend", "the for a",
                "--checkpoint", str(pipeline["ckpt"]),
                "--k", "3",
            ]
        )
        assert code == 1
        assert "zero tokens" in capsys.readouterr().err

    def test_repeated_invocation_identical(self, pipeline, capsys):
        args = ["recommend", "w003 w004", "--checkpoint", str(pipeline["ckpt"]), "--k", "3"]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert main(args) == 0
        second = capsys.readouterr().out
        assert first == second


def test_cross_process_determinism(pipeline, tmp_path):
    """recommend run in two fresh interpreter processes gives identical bytes."""
    cmd = [
        sys.executable, "-m", "libsuggest.cli",
        "recommend", "w000 w001 w003",
        "--checkpoint", str(pipeline["ckpt"]),
        "--k", "3",
    ]
    runs = [subprocess.run(cmd, capture_output=True, timeout=240) for _ in range(2)]
    for run in runs:
        assert run.returncode == 0, run.stderr.decode()
    assert runs[0].stdout == runs[1].stdout
