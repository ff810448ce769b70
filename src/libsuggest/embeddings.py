"""Pre-trained word-embedding table: text format load/save and the id-aligned embedding matrix."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .corpus import N_RESERVED, UNK_ID, DatasetError, Vocabulary, text_lines

__all__ = [
    "EmbeddingFormatError",
    "EmbeddingTable",
    "load_embeddings",
    "save_embeddings",
    "vocab_matrix",
]


class EmbeddingFormatError(DatasetError):
    """Malformed embedding file."""


@dataclass
class EmbeddingTable:
    """Word -> dense float64 vector map with a shared unknown-word vector.

    All stored vectors have exactly `dimension` finite components.  Lookups
    of absent words fall back to `unk_vector`, the component-wise mean of
    the stored vectors, computed over words in sorted order so it does not
    depend on file order.
    """

    dimension: int
    vectors: dict[str, np.ndarray]
    unk_vector: np.ndarray = field(init=False)

    def __post_init__(self):
        if self.dimension < 1:
            raise ValueError("embedding dimension must be >= 1")
        for word, vec in self.vectors.items():
            if vec.shape != (self.dimension,):
                raise ValueError(f"vector for {word!r} has wrong dimension")
            if not np.isfinite(vec).all():
                raise ValueError(f"vector for {word!r} has a non-finite component")
        self.unk_vector = _mean_vector(self.vectors, self.dimension)

    def vector(self, word: str) -> np.ndarray:
        return self.vectors.get(word, self.unk_vector)

    def __len__(self) -> int:
        return len(self.vectors)


def _mean_vector(vectors: dict[str, np.ndarray], dimension: int) -> np.ndarray:
    if not vectors:
        return np.zeros(dimension)
    stacked = np.stack([vectors[w] for w in sorted(vectors)])
    return stacked.mean(axis=0)


def load_embeddings(path) -> EmbeddingTable:
    """Parse a textual embedding file: header `<count> <dim>` on line 1,
    then one `<word> <v1> ... <vdim>` line per word; blank lines are
    skipped.  A repeated word keeps its last entry.  Every error names the
    file, and the line when one is at fault."""
    lines = text_lines(path, EmbeddingFormatError)
    lineno, header = next(lines, (0, ""))
    if lineno != 1:
        raise EmbeddingFormatError(f"{path}: empty embedding file")
    parts = header.split()
    if len(parts) != 2:
        raise EmbeddingFormatError(f"{path}: header must be '<count> <dimension>'", 1)
    try:
        count, dimension = int(parts[0]), int(parts[1])
    except ValueError:
        raise EmbeddingFormatError(f"{path}: header must hold two integers", 1) from None
    if count < 1 or dimension < 1:
        raise EmbeddingFormatError(f"{path}: count and dimension must be >= 1", 1)

    vectors: dict[str, np.ndarray] = {}
    data_lines = 0
    for lineno, raw in lines:
        data_lines += 1
        fields = raw.split()
        if len(fields) != dimension + 1:
            raise EmbeddingFormatError(
                f"{path}: expected {dimension} components, found {len(fields) - 1}", lineno
            )
        word = fields[0]
        try:
            vec = np.array([float(x) for x in fields[1:]], dtype=np.float64)
        except ValueError:
            raise EmbeddingFormatError(f"{path}: non-numeric vector component", lineno) from None
        if not np.isfinite(vec).all():
            raise EmbeddingFormatError(f"{path}: non-finite vector component", lineno)
        vectors[word] = vec
    if data_lines != count:
        raise EmbeddingFormatError(
            f"{path}: header declares {count} entries but file holds {data_lines}"
        )
    return EmbeddingTable(dimension=dimension, vectors=vectors)


def save_embeddings(table: EmbeddingTable, path) -> None:
    """Write the table in the textual format, words sorted, floats at full
    round-trip precision (load(save(t)) reproduces t bit-exactly)."""
    lines = [f"{len(table.vectors)} {table.dimension}"]
    for word in sorted(table.vectors):
        comps = " ".join(repr(float(x)) for x in table.vectors[word])
        lines.append(f"{word} {comps}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def vocab_matrix(word_vocab: Vocabulary, table: EmbeddingTable) -> np.ndarray:
    """Embedding rows aligned to vocabulary ids: PAD and EOS rows are zero,
    UNK (and any word missing from the table) gets the unknown vector.
    Gathering its rows by token id embeds a sequence.
    """
    out = np.zeros((len(word_vocab), table.dimension))
    out[UNK_ID] = table.unk_vector
    regular = word_vocab.regular_tokens()
    if regular:  # they hold the ids from N_RESERVED on, in order
        out[N_RESERVED:] = [*map(table.vector, regular)]
    return out
