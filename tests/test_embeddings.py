import re

import numpy as np
import pytest

from libsuggest.corpus import PAD_ID, UNK_ID, DatasetError, Vocabulary
from libsuggest.embeddings import (
    EmbeddingFormatError,
    EmbeddingTable,
    load_embeddings,
    save_embeddings,
    vocab_matrix,
)


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return path


class TestLoadEmbeddings:
    def test_parse_two_words(self, tmp_path):
        path = write(tmp_path / "e.txt", "2 3\ncat 1 0 0\ndog 0 1 0\n")
        table = load_embeddings(path)
        assert table.dimension == 3
        assert len(table) == 2
        np.testing.assert_array_equal(table.vector("cat"), [1.0, 0.0, 0.0])

    def test_short_line_names_line(self, tmp_path):
        path = write(tmp_path / "e.txt", "2 3\ncat 1 0 0\ndog 0 1\n")
        with pytest.raises(EmbeddingFormatError, match="line 3"):
            load_embeddings(path)

    def test_non_numeric_component(self, tmp_path):
        path = write(tmp_path / "e.txt", "1 2\ncat 1 zebra\n")
        with pytest.raises(EmbeddingFormatError, match="line 2.*numeric"):
            load_embeddings(path)

    def test_empty_file(self, tmp_path):
        path = write(tmp_path / "e.txt", "")
        with pytest.raises(EmbeddingFormatError, match="empty"):
            load_embeddings(path)

    def test_header_after_a_blank_first_line_is_an_empty_file(self, tmp_path):
        path = write(tmp_path / "e.txt", "\n1 2\ncat 1 0\n")
        with pytest.raises(EmbeddingFormatError, match="empty"):
            load_embeddings(path)

    def test_text_that_is_not_utf8_names_file_and_line(self, tmp_path):
        path = tmp_path / "e.txt"
        path.write_bytes(b"1 2\nw 0.5 \xff\n")
        with pytest.raises(EmbeddingFormatError, match=r"^line 2: .*e\.txt: not UTF-8"):
            load_embeddings(path)

    @pytest.mark.parametrize(
        "text, prefix, message",
        [
            ("", "", "empty embedding file"),
            ("2\ncat 1\n", "line 1: ", "header must be"),
            ("x 2\ncat 1 0\n", "line 1: ", "header must hold two integers"),
            ("1 0\ncat\n", "line 1: ", "count and dimension must be >= 1"),
            ("2 2\ncat 1 0\ndog 1\n", "line 3: ", "expected 2 components, found 1"),
            ("1 2\ncat 1 zebra\n", "line 2: ", "non-numeric vector component"),
            ("1 2\n\ncat inf 0\n", "line 3: ", "non-finite vector component"),
            ("3 2\ncat 1 0\n", "", "header declares 3 entries but file holds 1"),
        ],
    )
    def test_every_error_names_the_file(self, tmp_path, text, prefix, message):
        path = write(tmp_path / "e.txt", text)
        with pytest.raises(EmbeddingFormatError, match=rf"^{prefix}{re.escape(str(path))}: {message}"):
            load_embeddings(path)

    def test_format_error_is_a_dataset_error(self, tmp_path):
        with pytest.raises(DatasetError):
            load_embeddings(write(tmp_path / "e.txt", "1 2\ncat 1\n"))

    def test_count_mismatch(self, tmp_path):
        path = write(tmp_path / "e.txt", "3 2\ncat 1 0\n")
        with pytest.raises(EmbeddingFormatError, match="declares 3"):
            load_embeddings(path)

    def test_non_finite_component_rejected(self, tmp_path):
        path = write(tmp_path / "e.txt", "1 2\ncat 1 nan\n")
        with pytest.raises(EmbeddingFormatError, match="line 2"):
            load_embeddings(path)

    def test_absent_word_falls_back_to_unk(self, tmp_path):
        path = write(tmp_path / "e.txt", "2 2\ncat 2 0\ndog 0 4\n")
        table = load_embeddings(path)
        np.testing.assert_array_equal(table.vector("missing"), [1.0, 2.0])

    def test_duplicate_last_wins(self, tmp_path):
        path = write(tmp_path / "e.txt", "3 2\ncat 1 0\ncat 5 5\ndog 0 1\n")
        table = load_embeddings(path)
        np.testing.assert_array_equal(table.vector("cat"), [5.0, 5.0])


class TestRoundTrip:
    def test_save_load_bit_exact_randomized(self, tmp_path):
        rng = np.random.default_rng(13)
        for trial in range(25):
            dim = int(rng.integers(1, 6))
            n = int(rng.integers(1, 9))
            vectors = {
                f"w{i}": rng.normal(size=dim) * 10.0 ** rng.integers(-3, 4) for i in range(n)
            }
            table = EmbeddingTable(dim, vectors)
            path = tmp_path / f"t{trial}.txt"
            save_embeddings(table, path)
            loaded = load_embeddings(path)
            assert loaded.dimension == table.dimension
            assert set(loaded.vectors) == set(table.vectors)
            for word, vec in table.vectors.items():
                assert loaded.vectors[word].tobytes() == vec.astype(np.float64).tobytes()
            assert loaded.unk_vector.tobytes() == table.unk_vector.tobytes()

    def test_unk_vector_independent_of_file_order(self, tmp_path):
        a = write(tmp_path / "a.txt", "2 1\nx 1\ny 2\n")
        b = write(tmp_path / "b.txt", "2 1\ny 2\nx 1\n")
        assert load_embeddings(a).unk_vector.tobytes() == load_embeddings(b).unk_vector.tobytes()


def embed_sequence(ids, word_vocab, table):
    """Reference embedding of a tuple of token ids, one id at a time: PAD
    rows are zero, UNK rows (and in-vocabulary words missing from the
    table) get the table's unknown-word vector."""
    out = np.zeros((len(ids), table.dimension))
    for t, token_id in enumerate(ids):
        if token_id == UNK_ID:
            out[t] = table.unk_vector
        elif token_id != PAD_ID:
            out[t] = table.vector(word_vocab.token(token_id))
    return out


def gathered(ids, word_vocab, table):
    """How the program embeds a sequence: rows of `vocab_matrix` by id."""
    return vocab_matrix(word_vocab, table)[np.array(ids)]


class TestEmbedSequence:
    def setup_method(self):
        self.vocab = Vocabulary(["cat", "dog"])
        self.table = EmbeddingTable(
            2, {"cat": np.array([1.0, 2.0]), "dog": np.array([3.0, 4.0])}
        )

    def test_all_pad_is_zero_matrix(self):
        out = gathered((PAD_ID, PAD_ID, PAD_ID), self.vocab, self.table)
        assert out.shape == (3, 2)
        assert np.all(out == 0.0)

    def test_known_token_row(self):
        out = gathered((self.vocab.id("cat"), PAD_ID), self.vocab, self.table)
        np.testing.assert_array_equal(out[0], [1.0, 2.0])

    def test_unk_row_uses_unk_vector(self):
        out = gathered((self.vocab.id("cat"), UNK_ID), self.vocab, self.table)
        np.testing.assert_array_equal(out[1], self.table.unk_vector)

    def test_pad_rows_have_exactly_zero_norm(self):
        out = gathered((self.vocab.id("dog"), PAD_ID, PAD_ID), self.vocab, self.table)
        assert np.linalg.norm(out[1]) == 0.0
        assert np.linalg.norm(out[2]) == 0.0

    def test_finite_output_for_finite_table(self):
        rng = np.random.default_rng(3)
        table = EmbeddingTable(4, {f"w{i}": rng.normal(size=4) for i in range(5)})
        vocab = Vocabulary(sorted(table.vectors))
        ids = tuple(vocab.id(f"w{i}") for i in range(5)) + (UNK_ID, PAD_ID)
        assert np.isfinite(gathered(ids, vocab, table)).all()

    def test_vocab_matrix_equals_a_row_by_row_fill(self):
        # the words missing from the table, every third, get the unk vector
        rng = np.random.default_rng(5)
        words = [f"w{i:03d}" for i in range(60)]
        table = EmbeddingTable(4, {w: rng.normal(size=4) for i, w in enumerate(words) if i % 3})
        for vocab in (Vocabulary(words), Vocabulary(words[::-1]), Vocabulary([])):
            expected = np.zeros((len(vocab), 4))
            expected[UNK_ID] = table.unk_vector
            for word in vocab.regular_tokens():
                expected[vocab.id(word)] = table.vectors.get(word, table.unk_vector)
            assert vocab_matrix(vocab, table).tobytes() == expected.tobytes()

    def test_vocab_matrix_gather_matches_embed_sequence(self):
        # a vocabulary word missing from the table falls back to UNK too
        vocab = Vocabulary(["cat", "dog", "emu"])
        for ids in ((vocab.id("dog"), UNK_ID, PAD_ID), (vocab.id("emu"), vocab.id("cat"), vocab.id("dog"))):
            np.testing.assert_array_equal(gathered(ids, vocab, self.table), embed_sequence(ids, vocab, self.table))
