import json
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from libsuggest.corpus import (
    EOS_ID,
    PAD_ID,
    UNK_ID,
    DatasetError,
    ProjectRecord,
    TokenSequence,
    Vocabulary,
    build_vocabularies,
    encode_example,
    filter_projects,
    load_dataset,
    load_lemma_table,
    load_word_list,
    process_description,
    sort_libraries,
    split_project_name,
)


def write_jsonl(path, rows):
    with open(path, "w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(json.dumps(row) + "\n")


def record(name="p", desc="does useful things", libs=("gson", "junit"), stars=None):
    return {"name": name, "description": desc, "libraries": list(libs), "stars": stars}


class TestLoadDataset:
    def test_three_valid_lines_in_order(self, tmp_path):
        path = tmp_path / "data.jsonl"
        write_jsonl(path, [record(name=f"p{i}") for i in range(3)])
        records = load_dataset(path)
        assert [r.name for r in records] == ["p0", "p1", "p2"]
        assert records[0].libraries == ("gson", "junit")

    def test_missing_libraries_names_line(self, tmp_path):
        path = tmp_path / "data.jsonl"
        rows = [record(name="ok"), {"name": "bad", "description": "x y z"}]
        write_jsonl(path, rows)
        with pytest.raises(DatasetError, match="line 2.*libraries"):
            load_dataset(path)

    def test_empty_file_gives_empty_list(self, tmp_path):
        path = tmp_path / "data.jsonl"
        path.write_text("", encoding="utf-8")
        assert load_dataset(path) == []

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_dataset(tmp_path / "nope.jsonl")

    def test_invalid_json_names_line(self, tmp_path):
        path = tmp_path / "data.jsonl"
        path.write_text('{"name": "a"\n', encoding="utf-8")
        with pytest.raises(DatasetError, match="line 1"):
            load_dataset(path)

    def test_line_that_is_not_utf8_names_file_and_line(self, tmp_path):
        path = tmp_path / "data.jsonl"
        path.write_bytes(json.dumps(record(name="a")).encode() + b"\n\n" + b'{"name": "\xff"}\n')
        with pytest.raises(DatasetError, match=r"^line 3: .*data\.jsonl: not UTF-8"):
            load_dataset(path)

    def test_line_breaks_of_text_mode(self, tmp_path):
        # \r\n and \r end a line as in a file opened in text mode; the
        # line numbers count them so
        path = tmp_path / "data.jsonl"
        rows = [json.dumps(record(name=f"p{i}")) for i in range(3)]
        path.write_bytes(f"{rows[0]}\r\n{rows[1]}\r{rows[2]}\n[1]\n".encode())
        with pytest.raises(DatasetError, match=r"^line 4: .*record is not an object"):
            load_dataset(path)
        path.write_bytes(f"{rows[0]}\r\n{rows[1]}\r{rows[2]}\n".encode())
        assert [r.name for r in load_dataset(path)] == ["p0", "p1", "p2"]

    def test_duplicate_project_name_rejected(self, tmp_path):
        path = tmp_path / "data.jsonl"
        write_jsonl(path, [record(name="dup"), record(name="dup")])
        with pytest.raises(DatasetError, match="line 2.*dup"):
            load_dataset(path)

    def test_empty_description_rejected(self, tmp_path):
        path = tmp_path / "data.jsonl"
        write_jsonl(path, [record(desc="   ")])
        with pytest.raises(DatasetError, match="line 1"):
            load_dataset(path)

    @pytest.mark.parametrize(
        "bad, message",
        [
            ({"description": "x y z", "libraries": ["a"]}, "missing key 'name'"),
            (record(name=" "), "name must be"),
            (record(desc=""), "description must be"),
            (record(libs=["a", ""]), "libraries must be"),
            (record(stars="3"), "stars must be an integer"),
            (record(stars=-1), "stars must be nonnegative"),
            (record(name="p0"), "duplicate project name 'p0'"),
        ],
    )
    def test_field_errors_name_file_and_line(self, tmp_path, bad, message):
        path = tmp_path / "data.jsonl"
        write_jsonl(path, [record(name="p0"), record(name="p1"), bad])
        with pytest.raises(DatasetError, match=rf"^line 3: {re.escape(str(path))}: {message}"):
            load_dataset(path)

    def test_duplicate_libraries_within_record_deduped(self, tmp_path):
        path = tmp_path / "data.jsonl"
        write_jsonl(path, [record(libs=["a", "b", "a"])])
        assert load_dataset(path)[0].libraries == ("a", "b")

    def test_stars_parsed_and_optional(self, tmp_path):
        path = tmp_path / "data.jsonl"
        write_jsonl(path, [record(name="s", stars=7), record(name="t")])
        records = load_dataset(path)
        assert records[0].stars == 7
        assert records[1].stars is None


class TestFilterProjects:
    def test_nine_libraries_dropped_at_min_ten(self):
        rec = ProjectRecord("p", "a b c d", tuple(f"l{i}" for i in range(9)), 50)
        assert filter_projects([rec], min_libs=10) == []
        rec10 = ProjectRecord("q", "a b c d", tuple(f"l{i}" for i in range(10)), 50)
        assert filter_projects([rec10], min_libs=10) == [rec10]

    def test_three_word_description_dropped_at_min_three(self):
        rec = ProjectRecord("p", "one two three", ("a",), 50)
        assert filter_projects([rec], min_desc_words=3) == []
        rec4 = ProjectRecord("q", "one two three four", ("a",), 50)
        assert filter_projects([rec4], min_desc_words=3) == [rec4]

    def test_all_thresholds_zero_is_identity(self):
        records = [
            ProjectRecord("a", "x y", ("l1",), 0),
            ProjectRecord("b", "x", ("l2",), None),
        ]
        assert filter_projects(records) == records

    def test_star_threshold_is_strict(self):
        records = [
            ProjectRecord("a", "x", ("l",), 10),
            ProjectRecord("b", "x", ("l",), 11),
            ProjectRecord("c", "x", ("l",), None),
        ]
        assert [r.name for r in filter_projects(records, min_stars=10)] == ["b"]

    def test_duplicate_names_keep_first(self):
        records = [
            ProjectRecord("a", "x y", ("l1",), None),
            ProjectRecord("a", "z w", ("l2",), None),
        ]
        kept = filter_projects(records)
        assert len(kept) == 1 and kept[0].description == "x y"

    def test_negative_threshold_rejected(self):
        with pytest.raises(ValueError):
            filter_projects([], min_stars=-1)

    @given(
        st.lists(
            st.tuples(st.integers(0, 5), st.integers(0, 60), st.integers(1, 6)),
            max_size=30,
        ),
        st.integers(0, 3),
        st.integers(0, 4),
    )
    @settings(max_examples=50, deadline=None)
    def test_output_is_subsequence_of_input(self, raw, min_libs, min_words):
        records = [
            ProjectRecord(f"p{i}", " ".join(["w"] * words), tuple(f"l{j}" for j in range(libs)), stars)
            for i, (libs, stars, words) in enumerate(raw)
        ]
        kept = filter_projects(records, 0, min_libs, min_words)
        it = iter(records)
        assert all(any(r is k for r in it) for k in kept)


class TestProcessDescription:
    TABLES = dict(
        stopwords=frozenset({"a", "for"}),
        domain_vocab=frozenset(
            {"json", "parser", "library", "parsing", "files", "parse", "file"}
        ),
        lemma_table={"parsing": "parse", "files": "file", "libraries": "library"},
    )

    def test_pipeline_fixture(self):
        out = process_description("Json-Parser", "A library for parsing JSON files!", **self.TABLES)
        assert out == ["json", "parser", "library", "parse", "json", "file"]

    def test_fixture_matches_independent_oracle(self):
        # hand-rolled reimplementation of the 7 steps, structured differently
        name, desc = "Json-Parser", "A library for parsing JSON files!"
        pieces = re.split(r"[-_.]", name)
        split_pieces = []
        for piece in pieces:
            split_pieces.extend(re.findall(r"[A-Z]+(?![a-z])|[A-Z][a-z0-9]*|[a-z0-9]+", piece))
        text = (" ".join(split_pieces) + " " + desc).lower()
        cleaned = "".join(ch if ch.islower() or ch.isdigit() else " " for ch in text)
        expected = []
        for tok in cleaned.split():
            if tok in self.TABLES["stopwords"]:
                continue
            if tok not in self.TABLES["domain_vocab"]:
                continue
            expected.append(self.TABLES["lemma_table"].get(tok, tok))
        assert process_description(name, desc, **self.TABLES) == expected

    def test_name_only(self):
        assert process_description("x", "", frozenset(), frozenset({"x"}), {}) == ["x"]

    def test_all_stopwords_annihilate(self):
        out = process_description("", "a for a for", frozenset({"a", "for"}), None, {})
        assert out == []

    def test_camel_case_name_split(self):
        assert split_project_name("jsonParser") == ["json", "Parser"]
        assert split_project_name("HTTPServer2") == ["HTTP", "Server2"]
        assert split_project_name("a-b_c.d") == ["a", "b", "c", "d"]

    def test_special_symbols_become_separators(self):
        out = process_description("", "c++ & node.js!", frozenset(), None, {})
        assert out == ["c", "node", "js"]

    def test_domain_vocab_filter_precedes_lemma(self):
        # 'parsing' is in-domain, its lemma 'parse' is not; lemma still applies
        out = process_description(
            "", "parsing", frozenset(), frozenset({"parsing"}), {"parsing": "parse"}
        )
        assert out == ["parse"]

    def test_fixture_idempotent(self):
        domain = self.TABLES["domain_vocab"]
        first = process_description("Json-Parser", "A library for parsing JSON files!", **self.TABLES)
        again = process_description(
            "",
            " ".join(first),
            self.TABLES["stopwords"],
            domain,
            self.TABLES["lemma_table"],
        )
        assert again == first

    @given(st.lists(st.text(alphabet="abcxyz", min_size=1, max_size=4), max_size=12))
    @settings(max_examples=60, deadline=None)
    def test_idempotent_for_closed_tables(self, words):
        # well-behaved tables: lemma images are fixed points, nothing maps
        # to a stopword, and the domain vocabulary is closed under lemmas
        stop = frozenset({"the"})
        lemma = {"xs": "x", "ys": "y"}
        domain = frozenset(words) | frozenset(lemma) | frozenset(lemma.values())
        first = process_description("", " ".join(words), stop, domain, lemma)
        again = process_description("", " ".join(first), stop, domain, lemma)
        assert again == first


class TestSortLibraries:
    def test_descending_frequency_with_tie_rule(self):
        freq = {"junit": 100, "gson": 50, "x": 50}
        assert sort_libraries(["gson", "junit", "x"], freq) == ["junit", "gson", "x"]

    def test_single_library(self):
        assert sort_libraries(["only"], {"only": 3}) == ["only"]

    def test_all_equal_frequencies_lexicographic(self):
        freq = {"c": 1, "a": 1, "b": 1}
        assert sort_libraries(["c", "b", "a"], freq) == ["a", "b", "c"]

    def test_unknown_library_raises(self):
        with pytest.raises(KeyError, match="ghost"):
            sort_libraries(["ghost"], {"a": 1})


class TestVocabularies:
    def processed(self, name, tokens, libs):
        return ProjectRecord(name, " ".join(tokens), tuple(libs))

    def test_shared_token_appears_once(self):
        records = [
            self.processed("a", ["json", "tool"], ["l1", "l2"]),
            self.processed("b", ["json", "web"], ["l1", "l2"]),
        ]
        word_vocab, _, _ = build_vocabularies(records, min_lib_usage=1)
        assert word_vocab.regular_tokens() == ("json", "tool", "web")

    def test_low_usage_library_excluded(self):
        records = [
            self.processed("a", ["x"], ["common", "rare"]),
            self.processed("b", ["y"], ["common"]),
        ]
        _, lib_vocab, freq = build_vocabularies(records, min_lib_usage=2)
        assert "rare" not in lib_vocab
        assert "common" in lib_vocab
        assert freq == {"common": 2, "rare": 1}

    def test_deterministic_across_runs(self):
        records = [
            self.processed("a", ["z", "m"], ["l2", "l1"]),
            self.processed("b", ["m"], ["l1", "l2"]),
        ]
        first = build_vocabularies(records, 1)
        second = build_vocabularies(records, 1)
        assert first[0] == second[0]
        assert first[1] == second[1]
        assert first[2] == second[2]

    def test_empty_corpus_raises(self):
        with pytest.raises(DatasetError, match="empty"):
            build_vocabularies([], 1)

    def test_reserved_ids(self):
        vocab = Vocabulary(["alpha", "beta"])
        assert vocab.id("<pad>") == PAD_ID == 0
        assert vocab.token(UNK_ID) == "<unk>"
        assert vocab.token(EOS_ID) == "<eos>"
        assert vocab.id("alpha") == 3
        assert vocab.id("missing") == UNK_ID
        assert "alpha" in vocab and "<pad>" not in vocab


class TestEncodeExample:
    def setup_method(self):
        self.word_vocab = Vocabulary(["fast", "json", "parser"])
        self.lib_vocab = Vocabulary(["gson", "junit"])

    def test_padding(self):
        rec = ProjectRecord("p", "json parser fast", ("gson",))
        src, _ = encode_example(rec, self.word_vocab, self.lib_vocab, 5, 4)
        ids = [self.word_vocab.id(t) for t in ["json", "parser", "fast"]]
        assert src.ids == (*ids, PAD_ID, PAD_ID)
        assert src.length == 3

    def test_unknown_token_becomes_unk(self):
        rec = ProjectRecord("p", "json zebra", ("gson",))
        src, _ = encode_example(rec, self.word_vocab, self.lib_vocab, 3, 4)
        assert src.ids[1] == UNK_ID

    def test_target_gets_eos_then_pad(self):
        rec = ProjectRecord("p", "json", ("gson", "junit"))
        _, tgt = encode_example(rec, self.word_vocab, self.lib_vocab, 3, 4)
        assert tgt.ids == (self.lib_vocab.id("gson"), self.lib_vocab.id("junit"), EOS_ID, PAD_ID)
        assert tgt.length == 3

    def test_source_truncation_keeps_head(self):
        rec = ProjectRecord("p", "json parser fast json", ("gson",))
        src, _ = encode_example(rec, self.word_vocab, self.lib_vocab, 2, 4)
        assert src.ids == (self.word_vocab.id("json"), self.word_vocab.id("parser"))

    def test_out_of_vocab_library_dropped_not_unk(self):
        rec = ProjectRecord("p", "json", ("mystery", "gson"))
        _, tgt = encode_example(rec, self.word_vocab, self.lib_vocab, 3, 4)
        assert UNK_ID not in tgt.ids
        assert tgt.ids[0] == self.lib_vocab.id("gson")

    def test_target_truncation_leaves_room_for_eos(self):
        rec = ProjectRecord("p", "json", ("gson", "junit"))
        _, tgt = encode_example(rec, self.word_vocab, self.lib_vocab, 3, 2)
        assert tgt.ids == (self.lib_vocab.id("gson"), EOS_ID)

    def test_target_prefix_distinct_and_eos_terminated(self):
        rec = ProjectRecord("p", "json parser", ("junit", "gson"))
        _, tgt = encode_example(rec, self.word_vocab, self.lib_vocab, 4, 6)
        prefix = tgt.ids[: tgt.length]
        assert prefix[-1] == EOS_ID
        libs = prefix[:-1]
        assert len(set(libs)) == len(libs)

    def test_token_sequence_invariants_enforced(self):
        with pytest.raises(ValueError):
            TokenSequence((PAD_ID, 5), 2)
        with pytest.raises(ValueError):
            TokenSequence((5, 4), 1)


class TestTableFiles:
    def test_word_list_and_lemma_table(self, tmp_path):
        wl = tmp_path / "stop.txt"
        wl.write_text("the\n\nfor\n", encoding="utf-8")
        assert load_word_list(wl) == {"the", "for"}
        lt = tmp_path / "lemma.tsv"
        lt.write_text("files\tfile\nlibraries\tlibrary\n", encoding="utf-8")
        assert load_lemma_table(lt) == {"files": "file", "libraries": "library"}

    def test_malformed_lemma_line(self, tmp_path):
        lt = tmp_path / "lemma.tsv"
        lt.write_text("justoneword\n", encoding="utf-8")
        with pytest.raises(DatasetError, match="line 1"):
            load_lemma_table(lt)

    def test_malformed_lemma_line_names_file(self, tmp_path):
        lt = tmp_path / "lemma.tsv"
        lt.write_text("files\tfile\n\nsurface\tbase\textra\n", encoding="utf-8")
        with pytest.raises(DatasetError, match=rf"^line 3: {re.escape(str(lt))}: expected 'surface<TAB>base'$"):
            load_lemma_table(lt)
