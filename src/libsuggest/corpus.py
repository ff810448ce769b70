"""Corpus ingestion and preprocessing.

Turns raw project records (name, description, library list) into filtered,
token-processed records, deterministic vocabularies, and the id
sequences of the model's examples.

Two stored formats are defined here once for every module that reads or
writes them.  `json_lines` reads a JSON-lines file, one object per line
(the raw dataset, a prepared `train.jsonl` and a test set), through
`text_lines`, the line reader of every line-based input file.
`PreprocTables.to_json` and `PreprocTables.from_json` write and check the
description-processing tables, stored as `tables.json` by `preprocess`
and in every checkpoint header.
"""

from __future__ import annotations

import json
import re
from collections import Counter
from collections.abc import Iterator, Mapping, Sequence
from dataclasses import dataclass

PAD_ID = 0
UNK_ID = 1
EOS_ID = 2
RESERVED_TOKENS = ("<pad>", "<unk>", "<eos>")
N_RESERVED = len(RESERVED_TOKENS)

__all__ = [
    "PAD_ID",
    "UNK_ID",
    "EOS_ID",
    "RESERVED_TOKENS",
    "N_RESERVED",
    "DatasetError",
    "ProjectRecord",
    "TokenSequence",
    "Vocabulary",
    "PreprocTables",
    "EncodedExample",
    "PreparedDataset",
    "text_lines",
    "json_lines",
    "is_string_list",
    "load_dataset",
    "load_word_list",
    "load_lemma_table",
    "filter_projects",
    "split_project_name",
    "process_description",
    "sort_libraries",
    "build_vocabularies",
    "encode_example",
]


class DatasetError(ValueError):
    """Malformed dataset input; `line` is 1-based when the error is line-bound."""

    def __init__(self, message: str, line: int | None = None):
        super().__init__(f"line {line}: {message}" if line is not None else message)
        self.line = line


@dataclass(frozen=True)
class ProjectRecord:
    """One project: free-text description plus the libraries it uses.

    `stars` is None when the star count is unknown.  `libraries` holds no
    duplicates (enforced at load time).
    """

    name: str
    description: str
    libraries: tuple[str, ...]
    stars: int | None = None


@dataclass(frozen=True)
class TokenSequence:
    """The ids of a source or a target, without padding; a batch pads them."""

    ids: tuple[int, ...]

    @property
    def length(self) -> int:
        return len(self.ids)


class Vocabulary:
    """Token<->id bijection with PAD=0, UNK=1, EOS=2 reserved up front.

    Regular tokens get contiguous ids starting at 3 in the order given to
    the constructor; builders sort tokens first, so numbering is
    deterministic for a given corpus.
    """

    __slots__ = ("_tokens", "_ids")

    def __init__(self, tokens: Sequence[str]):
        regular = tuple(tokens)
        for tok in regular:
            if tok in RESERVED_TOKENS:
                raise ValueError(f"token {tok!r} collides with a reserved symbol")
        if len(set(regular)) != len(regular):
            raise ValueError("duplicate tokens in vocabulary")
        self._tokens = RESERVED_TOKENS + regular
        # a text token spelled like a reserved symbol is an unknown word
        self._ids = {tok: i for i, tok in enumerate(regular, start=N_RESERVED)}

    def id(self, token: str) -> int:
        """Id of a regular token; UNK_ID for any other, the spellings of
        the reserved symbols included."""
        return self._ids.get(token, UNK_ID)

    def token(self, token_id: int) -> str:
        if not 0 <= token_id < len(self._tokens):
            raise IndexError(f"token id {token_id} out of range")
        return self._tokens[token_id]

    def regular_tokens(self) -> tuple[str, ...]:
        return self._tokens[N_RESERVED:]

    def __contains__(self, token: str) -> bool:
        return token in self._ids

    def __len__(self) -> int:
        return len(self._tokens)

    def __eq__(self, other) -> bool:
        return isinstance(other, Vocabulary) and self._tokens == other._tokens

    def __hash__(self) -> int:
        return hash(self._tokens)

    def __repr__(self) -> str:
        return f"Vocabulary({len(self) - N_RESERVED} tokens + reserved)"


@dataclass(frozen=True)
class PreprocTables:
    """Description-processing tables captured once and reused everywhere.

    `domain_vocab` of None disables the domain-vocabulary filter step.
    """

    stopwords: frozenset[str]
    domain_vocab: frozenset[str] | None
    lemma_table: Mapping[str, str]

    def to_json(self) -> dict:
        """The stored form: sorted word lists and sorted [surface, base] pairs."""
        return {
            "stopwords": sorted(self.stopwords),
            "domain_vocab": None if self.domain_vocab is None else sorted(self.domain_vocab),
            "lemma": sorted(self.lemma_table.items()),
        }

    @classmethod
    def from_json(cls, raw) -> PreprocTables:
        """The tables from their stored form; DatasetError if it is malformed."""
        if not isinstance(raw, dict) or set(raw) != {"stopwords", "domain_vocab", "lemma"}:
            raise DatasetError("tables must be an object with keys 'stopwords', 'domain_vocab' and 'lemma'")
        stopwords, domain_vocab, lemma = raw["stopwords"], raw["domain_vocab"], raw["lemma"]
        if not is_string_list(stopwords):
            raise DatasetError("'stopwords' must be a list of strings")
        if domain_vocab is not None and not is_string_list(domain_vocab):
            raise DatasetError("'domain_vocab' must be null or a list of strings")
        if not isinstance(lemma, list) or not all(is_string_list(pair) and len(pair) == 2 for pair in lemma):
            raise DatasetError("'lemma' must be a list of [surface, base] string pairs")
        domain = None if domain_vocab is None else frozenset(domain_vocab)
        return cls(frozenset(stopwords), domain, dict(lemma))


def is_string_list(value) -> bool:
    """Whether a value read from JSON is a list of strings."""
    return isinstance(value, list) and all(isinstance(v, str) for v in value)


@dataclass(frozen=True)
class EncodedExample:
    name: str
    source: TokenSequence
    target: TokenSequence


@dataclass
class PreparedDataset:
    """Everything the trainer needs: encoded examples plus shared lookups."""

    examples: list[EncodedExample]
    word_vocab: Vocabulary
    lib_vocab: Vocabulary
    lib_freq: dict[str, int]
    tables: PreprocTables


def text_lines(path, error: type[ValueError] = DatasetError) -> Iterator[tuple[int, str]]:
    """The lines of a UTF-8 text file that are not blank, without their
    line breaks, with their 1-based line numbers.  A line that is not
    UTF-8 raises `error(message, line)` naming the file and the line."""
    with open(path, "rb") as fh:
        # a binary line ends at \n; splitting it again at a lone \r gives
        # the line breaks of text mode: \n, \r\n and \r
        for lineno, raw in enumerate((part for chunk in fh for part in chunk.splitlines()), start=1):
            try:
                line = raw.decode("utf-8")
            except UnicodeDecodeError:
                raise error(f"{path}: not UTF-8 text", lineno) from None
            if line.strip():
                yield lineno, line


def json_lines(path) -> Iterator[tuple[int, dict]]:
    """The objects of a JSON-lines file with their line numbers, as
    `text_lines` reads it.  A line that is not a JSON object raises
    DatasetError naming the file and the line."""
    for lineno, line in text_lines(path):
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise DatasetError(f"{path}: invalid JSON ({exc.msg})", lineno) from None
        if not isinstance(obj, dict):
            raise DatasetError(f"{path}: record is not an object", lineno)
        yield lineno, obj


def load_dataset(path) -> list[ProjectRecord]:
    """Parse a UTF-8 JSON-lines dataset file into records, in file order.

    Each line is a flat object with keys `name`, `description`, `libraries`
    and optional `stars`.  Any malformed line aborts with a DatasetError
    naming the file and the line; duplicate project names and duplicate
    libraries within a record are rejected resp. dropped.
    """
    records: list[ProjectRecord] = []
    seen_names: set[str] = set()
    for lineno, obj in json_lines(path):
        for key in ("name", "description", "libraries"):
            if key not in obj:
                raise DatasetError(f"{path}: missing key {key!r}", lineno)
        name = obj["name"]
        description = obj["description"]
        libraries = obj["libraries"]
        if not isinstance(name, str) or not name.strip():
            raise DatasetError(f"{path}: name must be a non-empty string", lineno)
        if not isinstance(description, str) or not description.strip():
            raise DatasetError(f"{path}: description must be a non-empty string", lineno)
        if not isinstance(libraries, list) or not all(
            isinstance(lib, str) and lib for lib in libraries
        ):
            raise DatasetError(f"{path}: libraries must be a list of non-empty strings", lineno)
        stars = obj.get("stars")
        if stars is not None and (isinstance(stars, bool) or not isinstance(stars, int)):
            raise DatasetError(f"{path}: stars must be an integer", lineno)
        if stars is not None and stars < 0:
            raise DatasetError(f"{path}: stars must be nonnegative", lineno)
        if name in seen_names:
            raise DatasetError(f"{path}: duplicate project name {name!r}", lineno)
        seen_names.add(name)
        deduped = tuple(dict.fromkeys(libraries))
        records.append(ProjectRecord(name, description, deduped, stars))
    return records


def load_word_list(path) -> frozenset[str]:
    """Word file: one word per line, blank lines ignored."""
    return frozenset(line.strip() for _, line in text_lines(path))


def load_lemma_table(path) -> dict[str, str]:
    """Lemma file: `surface<TAB>base` per line."""
    table: dict[str, str] = {}
    for lineno, line in text_lines(path):
        parts = line.split("\t")
        if len(parts) != 2 or not parts[0] or not parts[1]:
            raise DatasetError(f"{path}: expected 'surface<TAB>base'", lineno)
        table[parts[0]] = parts[1]
    return table


def filter_projects(
    records: Sequence[ProjectRecord],
    min_stars: int = 0,
    min_libs: int = 0,
    min_desc_words: int = 0,
) -> list[ProjectRecord]:
    """Quality filter: star, library-count and description-length thresholds.

    Keeps records with stars > min_stars (min_stars of 0 disables the star
    filter, which also lets unknown-star records through), at least
    min_libs libraries, more than min_desc_words whitespace words, and a
    first-seen unique name.  Order is preserved.
    """
    if min(min_stars, min_libs, min_desc_words) < 0:
        raise ValueError("thresholds must be nonnegative")
    kept: list[ProjectRecord] = []
    seen: set[str] = set()
    for rec in records:
        if rec.name in seen:
            continue
        if min_stars > 0 and (rec.stars is None or rec.stars <= min_stars):
            continue
        if len(rec.libraries) < min_libs:
            continue
        if len(rec.description.split()) <= min_desc_words:
            continue
        seen.add(rec.name)
        kept.append(rec)
    return kept


_NAME_SEPARATORS = re.compile(r"[-_.]+")
_CAMEL_LOWER_UPPER = re.compile(r"(?<=[a-z0-9])(?=[A-Z])")
_CAMEL_ACRONYM = re.compile(r"(?<=[A-Z])(?=[A-Z][a-z])")
_NON_ALNUM = re.compile(r"[^a-z0-9]+")


def split_project_name(name: str) -> list[str]:
    """Split a project name on '-', '_', '.', and camelCase boundaries."""
    text = _NAME_SEPARATORS.sub(" ", name)
    text = _CAMEL_LOWER_UPPER.sub(" ", text)
    text = _CAMEL_ACRONYM.sub(" ", text)
    return text.split()


def process_description(
    name: str,
    description: str,
    stopwords: frozenset[str] | set[str],
    domain_vocab: frozenset[str] | set[str] | None,
    lemma_table: Mapping[str, str],
) -> list[str]:
    """Run the fixed 7-step description pipeline and return word tokens.

    Steps, in order: (1) split the project name and prepend it to the
    description, (2) lowercase, (3) turn every character outside [a-z0-9]
    into a separator, (4) tokenize on whitespace, (5) drop stopwords,
    (6) drop tokens outside the domain vocabulary (skipped when
    domain_vocab is None), (7) replace tokens by their base form when the
    lemma table has one.
    """
    text = " ".join(split_project_name(name) + [description])
    text = text.lower()
    text = _NON_ALNUM.sub(" ", text)
    tokens = text.split()
    tokens = [t for t in tokens if t not in stopwords]
    if domain_vocab is not None:
        tokens = [t for t in tokens if t in domain_vocab]
    return [lemma_table.get(t, t) for t in tokens]


def sort_libraries(libs: Sequence[str], freq: Mapping[str, int]) -> list[str]:
    """Order libraries by descending corpus frequency, ties lexicographic."""
    for lib in libs:
        if lib not in freq:
            raise KeyError(f"no frequency entry for library {lib!r}")
    return sorted(libs, key=lambda lib: (-freq[lib], lib))


def build_vocabularies(
    records: Sequence[ProjectRecord], min_lib_usage: int = 2
) -> tuple[Vocabulary, Vocabulary, dict[str, int]]:
    """Build word and library vocabularies plus the library frequency table.

    Expects records whose descriptions are already processed (space-joined
    tokens).  The frequency table counts, for every library seen in the
    corpus, the number of projects using it; the library vocabulary keeps
    only those with frequency >= min_lib_usage.  Ids are assigned in
    lexicographic token order, so identical corpora give identical results.
    """
    if not records:
        raise DatasetError("empty corpus")
    words = sorted({tok for rec in records for tok in rec.description.split()})
    counts: Counter[str] = Counter()
    for rec in records:
        counts.update(rec.libraries)
    kept = sorted(lib for lib, n in counts.items() if n >= min_lib_usage)
    freq = {lib: counts[lib] for lib in sorted(counts)}
    return Vocabulary(words), Vocabulary(kept), freq


def encode_example(
    record: ProjectRecord,
    word_vocab: Vocabulary,
    lib_vocab: Vocabulary,
    max_src: int,
    max_tgt: int,
) -> tuple[TokenSequence, TokenSequence]:
    """Encode one processed record into its (source, target) ids.

    Source: ids of the first max_src description tokens (UNK for
    out-of-vocabulary).  Target: the record's libraries (already
    frequency-sorted) restricted to the library vocabulary, cut to
    max_tgt - 1, then EOS.  Neither is padded.
    """
    if max_src < 1 or max_tgt < 1:
        raise ValueError("maximum lengths must be >= 1")
    src_ids = [word_vocab.id(tok) for tok in record.description.split()[:max_src]]
    libs = [lib for lib in record.libraries if lib in lib_vocab][: max_tgt - 1]
    tgt_ids = [lib_vocab.id(lib) for lib in libs] + [EOS_ID]
    return TokenSequence(tuple(src_ids)), TokenSequence(tuple(tgt_ids))
