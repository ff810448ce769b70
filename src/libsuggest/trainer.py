"""Mini-batch training loop and checkpoint persistence.

Adam with global-norm gradient clipping, teacher forcing, seeded shuffling
and dropout.  Adam runs with the defaults of Kingma and Ba, beta1 0.9,
beta2 0.999 and epsilon 1e-8: module constants, not config keys.  Each
mini-batch is one batched forward pass over [B x T x .] arrays
(`model.batch_loss`), one tape and one backward sweep.  Dropout draws its
masks per batch: once over the batch's [B x T x 2H] encoder output, then
once per decoder step over the [n_t x H] states of the rows still
running.  Same-seed runs are byte-identical.  Checkpoints are a binary
container of format version 3 that round-trips bit-exactly: magic, JSON
metadata padded so that the tensors start 8-byte aligned, raw
little-endian float64 tensors, and a trailing SHA-256 checksum.  The
tensors are those of `model.parameter_shapes`, in its order, then
`class_weights` and `word_embed`; the preprocessing tables sit in the
header in the stored form of `corpus.PreprocTables`, which checks them on
load.
"""

from __future__ import annotations

import hashlib
import json
import math
import mmap
import os
import struct
import tempfile
import weakref
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from .corpus import N_RESERVED, PAD_ID, PreparedDataset, PreprocTables, Vocabulary, is_string_list
from .embeddings import EmbeddingTable, vocab_matrix
from .model import (
    ModelParams,
    batch_loss,
    init_params,
    library_weights,
    named_parameters,
    parameter_shapes,
    params_from_named,
)
from .tensor import Tape, Tensor, backward, scale

__all__ = [
    "TrainConfig",
    "AdamState",
    "TrainingError",
    "CheckpointError",
    "ModelCheckpoint",
    "adam_step",
    "clip_gradients",
    "train",
    "save_checkpoint",
    "load_checkpoint",
    "checkpoint_bytes",
    "checkpoint_from_bytes",
]

CHECKPOINT_MAGIC = b"LSCKPT01"
CHECKPOINT_VERSION = 3

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPSILON = 1e-8


class TrainingError(RuntimeError):
    pass


class CheckpointError(ValueError):
    pass


@dataclass
class TrainConfig:
    """Training hyperparameters plus the model and sequence dimensions."""

    learning_rate: float = 1e-3
    clip_max_norm: float = 5.0
    dropout_p: float = 0.3
    batch_size: int = 32
    max_epochs: int = 10
    seed: int = 0
    max_src: int = 32
    max_tgt: int = 16
    embed_dim: int = 200
    enc_hidden: int = 128
    dec_hidden: int = 128
    lib_embed: int = 64

    def __post_init__(self):
        if not 0.0 < self.learning_rate < math.inf:
            raise ValueError("learning_rate must be positive and finite")
        if not 0.0 <= self.dropout_p < 1.0:
            raise ValueError("dropout_p must be in [0, 1)")
        if not self.clip_max_norm > 0:  # inf never clips
            raise ValueError("clip_max_norm must be positive")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.max_epochs < 0:
            raise ValueError("max_epochs must be >= 0")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        if min(self.max_src, self.max_tgt) < 1:
            raise ValueError("sequence limits must be >= 1")
        if min(self.embed_dim, self.enc_hidden, self.dec_hidden, self.lib_embed) < 1:
            raise ValueError("model dimensions must be >= 1")


@dataclass
class AdamState:
    """First and second moment estimates, one array per parameter name."""

    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)

    @classmethod
    def for_params(cls, params: dict[str, Tensor]) -> "AdamState":
        return cls(
            m={name: np.zeros(p.shape) for name, p in params.items()},
            v={name: np.zeros(p.shape) for name, p in params.items()},
        )


def adam_step(
    params: dict[str, Tensor],
    grads: dict[str, np.ndarray],
    state: AdamState,
    t: int,
    cfg: TrainConfig,
) -> None:
    """One Adam update, step index t >= 1, in place on the parameter
    tensors and on the moment arrays of `state`: m = b1*m + (1-b1)*g,
    v = b2*v + (1-b2)*g*g, then a step of lr * m_hat / (sqrt(v_hat) + eps)
    with the bias-corrected m_hat and v_hat; b1, b2 and eps are
    ADAM_BETA1, ADAM_BETA2 and ADAM_EPSILON.
    """
    if t < 1:
        raise ValueError("step index must be >= 1")
    b1, b2, eps = ADAM_BETA1, ADAM_BETA2, ADAM_EPSILON
    for name, p in params.items():
        g = grads[name]
        if g.shape != p.shape:
            raise ValueError(f"gradient shape {g.shape} != parameter shape {p.shape} for {name}")
        m, v = state.m[name], state.v[name]
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * g * g
        p.data -= cfg.learning_rate * (m / (1.0 - b1**t)) / (np.sqrt(v / (1.0 - b2**t)) + eps)


def clip_gradients(grads: dict[str, np.ndarray], max_norm: float) -> dict[str, np.ndarray]:
    """Scale all gradients by max_norm/norm when the global L2 norm exceeds
    max_norm; directions are preserved.  Returns `grads` itself when it
    does not clip, and raises FloatingPointError when an entry is inf or
    NaN, since no factor keeps such a direction."""
    if not max_norm > 0:
        raise ValueError("max_norm must be positive")
    with np.errstate(over="ignore", invalid="ignore"):
        total = np.sqrt(sum(float(np.sum(g * g)) for g in grads.values()))
        if np.isinf(total):  # squares past the float range, or an inf entry
            peak = max(float(np.abs(g).max(initial=0.0)) for g in grads.values())
            total = peak * np.sqrt(sum(float(np.sum((g / peak) ** 2)) for g in grads.values()))
    if not np.isfinite(total):
        raise FloatingPointError(f"gradient norm is {total}")
    if total <= max_norm:
        return grads
    factor = max_norm / total
    return {name: g * factor for name, g in grads.items()}


@dataclass
class ModelCheckpoint:
    """Everything needed to resume or serve a trained model."""

    config: TrainConfig
    params: ModelParams
    word_embed: np.ndarray  # frozen source-embedding rows, one per word id
    word_vocab: Vocabulary
    lib_vocab: Vocabulary
    lib_freq: dict[str, int]
    tables: PreprocTables
    epochs: int
    final_loss: float | None


def train(data: PreparedDataset, cfg: TrainConfig, table: EmbeddingTable) -> ModelCheckpoint:
    """Train on the encoded dataset and return the final checkpoint.

    Each epoch shuffles the examples with the run's seeded generator, then
    walks mini-batches: teacher-forced forward with dropout, weighted loss
    averaged over the batch, backward, global-norm clipping, Adam.  Runs
    are bit-reproducible for a given (seed, dataset, config).  A loss or a
    gradient that is not finite raises TrainingError naming the epoch and
    the batch, before Adam writes into the parameters.

    The source ids are padded once into one [N x longest source] array.  A
    mini-batch, in its shuffled order, is cut to its longest source,
    embedded and run as one `model.batch_loss` call on one tape.

    Memory: the run holds the parameters, Adam's two moments (each the
    parameters' size), `word_embed` and the tape of one step: its forward
    arrays and, after the sweep, the gradients and their clipped copy.  A
    step's tape and gradients are dropped once Adam has run, so none of
    them is alive through the next step's forward and backward.
    """
    if not data.examples:
        raise ValueError("cannot train on an empty dataset")
    if table.dimension != cfg.embed_dim:
        raise ValueError(
            f"embedding dimension {table.dimension} does not match configured {cfg.embed_dim}"
        )
    for ex in data.examples:
        if ex.source.length < 1:
            raise ValueError(f"example {ex.name!r} has an empty source")
        if ex.target.length < 1:
            raise ValueError(f"example {ex.name!r} has an empty target")

    rng = np.random.default_rng(cfg.seed)
    weights = library_weights(data.lib_freq, data.lib_vocab)
    params = init_params(
        cfg.embed_dim,
        cfg.enc_hidden,
        cfg.dec_hidden,
        cfg.lib_embed,
        len(data.lib_vocab),
        weights,
        rng,
    )
    named = named_parameters(params)
    state = AdamState.for_params(named)

    word_embed = vocab_matrix(data.word_vocab, table)
    n = len(data.examples)
    lengths = np.array([ex.source.length for ex in data.examples])
    source_ids = np.full((n, lengths.max()), PAD_ID)
    for row, ex in zip(source_ids, data.examples):
        row[: ex.source.length] = ex.source.ids
    targets = [list(ex.target.ids) for ex in data.examples]

    step = 0
    final_loss: float | None = None
    for epoch in range(1, cfg.max_epochs + 1):
        order = rng.permutation(n)
        epoch_total = 0.0
        for start in range(0, n, cfg.batch_size):
            batch = order[start : start + cfg.batch_size]
            x = word_embed[source_ids[batch, : lengths[batch].max()]]
            with Tape() as tape:
                total = batch_loss(
                    x, lengths[batch], [targets[i] for i in batch], params, cfg.dropout_p, rng
                )
                mean_loss = scale(total, 1.0 / len(batch))
            loss_value = mean_loss.item()
            where = f"epoch {epoch}, batch {start // cfg.batch_size + 1}"
            if not np.isfinite(loss_value):
                raise TrainingError(f"non-finite loss at {where}")
            backward(tape, mean_loss)
            grads = _gradients(tape, named)
            try:
                grads = clip_gradients(grads, cfg.clip_max_norm)
            except FloatingPointError:
                raise TrainingError(f"non-finite gradient at {where}") from None
            step += 1
            adam_step(named, grads, state, step, cfg)
            del grads, tape
            epoch_total += loss_value * len(batch)
        final_loss = epoch_total / n
        print(f"epoch {epoch} loss {final_loss!r}")

    return ModelCheckpoint(
        config=cfg,
        params=params,
        word_embed=word_embed,
        word_vocab=data.word_vocab,
        lib_vocab=data.lib_vocab,
        lib_freq=dict(data.lib_freq),
        tables=data.tables,
        epochs=cfg.max_epochs,
        final_loss=final_loss,
    )


def _gradients(tape: Tape, named: dict[str, Tensor]) -> dict[str, np.ndarray]:
    """Each parameter's gradient on the tape, zeros where none reached it;
    a function of its own, so that no loop name outlives it."""
    grads = {}
    for name, p in named.items():
        g = tape.gradient(p)
        grads[name] = g if g is not None else np.zeros(p.shape)
    return grads


def _checkpoint_tensors(ckpt: ModelCheckpoint) -> dict[str, np.ndarray]:
    arrays = {name: p.data for name, p in named_parameters(ckpt.params).items()}
    arrays["class_weights"] = ckpt.params.class_weights
    arrays["word_embed"] = ckpt.word_embed
    return arrays


def checkpoint_bytes(ckpt: ModelCheckpoint) -> bytes:
    """Serialize to the binary container format, in one buffer: the digest
    is taken over the parts in turn, each tensor's own float64 buffer
    among them, and one join copies the parts and the digest into the
    result.  So a call holds the result and no second copy of the tensors."""
    arrays = _checkpoint_tensors(ckpt)
    header = {
        "format_version": CHECKPOINT_VERSION,
        "config": asdict(ckpt.config),
        "epochs": ckpt.epochs,
        "final_loss": ckpt.final_loss,
        "word_vocab": list(ckpt.word_vocab.regular_tokens()),
        "lib_vocab": list(ckpt.lib_vocab.regular_tokens()),
        "lib_freq": sorted(ckpt.lib_freq.items()),
        "tables": ckpt.tables.to_json(),
        "tensors": [[name, list(arr.shape)] for name, arr in arrays.items()],
    }
    header_bytes = json.dumps(header, sort_keys=True, ensure_ascii=False).encode("utf-8")
    # JSON allows trailing blanks; they put the payload on an 8-byte boundary
    header_bytes += b" " * (-len(header_bytes) % 8)
    parts = [CHECKPOINT_MAGIC, struct.pack("<Q", len(header_bytes)), header_bytes]
    parts += [np.ascontiguousarray(arr, dtype="<f8") for arr in arrays.values()]
    digest = hashlib.sha256()
    for part in parts:
        digest.update(part)
    return b"".join([*parts, digest.digest()])


_HEADER_FIELDS = frozenset(
    ("format_version", "config", "epochs", "final_loss", "word_vocab", "lib_vocab", "lib_freq", "tables", "tensors")
)


@contextmanager
def _field(name: str):
    """Turn a malformed header field into a CheckpointError naming it."""
    try:
        yield
    except (TypeError, ValueError, KeyError) as exc:
        if isinstance(exc, CheckpointError):
            raise
        raise CheckpointError(f"bad checkpoint field {name!r}: {exc!r}") from None


def _config_from_header(raw) -> TrainConfig:
    if not isinstance(raw, dict):
        raise CheckpointError("checkpoint field 'config' is not an object")
    names = [f.name for f in fields(TrainConfig)]
    for key in raw:
        if key not in names:
            raise CheckpointError(f"unknown checkpoint field 'config.{key}'")
    for f in fields(TrainConfig):
        if f.name not in raw:
            raise CheckpointError(f"checkpoint field 'config.{f.name}' is missing")
        value = raw[f.name]
        kinds = (int,) if isinstance(f.default, int) else (int, float)
        if isinstance(value, bool) or not isinstance(value, kinds):
            raise CheckpointError(f"checkpoint field 'config.{f.name}' has the wrong type: {value!r}")
    with _field("config"):
        return TrainConfig(**raw)


def _vocabulary(header: dict, name: str) -> Vocabulary:
    with _field(name):
        if not is_string_list(header[name]):
            raise TypeError("not a list of strings")
        return Vocabulary(header[name])


def _tensor_shapes(cfg: TrainConfig, n_words: int, n_libs: int) -> dict[str, tuple[int, ...]]:
    """The shape every stored tensor must have, by name, in the order in
    which a checkpoint stores them."""
    shapes = parameter_shapes(cfg.embed_dim, cfg.enc_hidden, cfg.dec_hidden, cfg.lib_embed, n_libs)
    return shapes | {"class_weights": (n_libs - N_RESERVED,), "word_embed": (n_words, cfg.embed_dim)}


def _check_tensor_list(listed, cfg: TrainConfig, word_vocab: Vocabulary, lib_vocab: Vocabulary) -> None:
    """The header's tensor list must name every tensor once, with the
    shape that the vocabularies and the config give it."""
    with _field("tensors"):
        shapes = {_string(name): tuple(_integer(n) for n in shape) for name, shape in listed}
        if len(shapes) != len(listed):
            raise CheckpointError("checkpoint field 'tensors' names a tensor twice")
    expected = _tensor_shapes(cfg, len(word_vocab), len(lib_vocab))
    missing, unknown = sorted(expected.keys() - shapes.keys()), sorted(shapes.keys() - expected.keys())
    if missing:
        raise CheckpointError(f"checkpoint field 'tensors' lacks tensor {missing[0]!r}")
    if unknown:
        raise CheckpointError(f"unknown tensor {unknown[0]!r} in checkpoint field 'tensors'")
    # the vocabularies first: decoding maps emb rows and w_o columns to lib_vocab
    for vocab_name, vocab, name, axis in (
        ("lib_vocab", lib_vocab, "emb", 0),
        ("lib_vocab", lib_vocab, "out.w_o", 1),
        ("lib_vocab", lib_vocab, "class_weights", 0),
        ("word_vocab", word_vocab, "word_embed", 0),
    ):
        size = expected[name][axis]
        if len(shapes[name]) != len(expected[name]) or shapes[name][axis] != size:
            raise CheckpointError(
                f"checkpoint field {vocab_name!r} has {len(vocab)} ids, which does not fit "
                f"tensor {name!r} of shape {list(shapes[name])}"
            )
    for name, shape in expected.items():
        if shapes[name] != shape:
            raise CheckpointError(
                f"tensor {name!r} has shape {list(shapes[name])} but checkpoint field 'config' "
                f"gives {list(shape)}"
            )


def checkpoint_from_bytes(data) -> ModelCheckpoint:
    """Parse the binary container; raises CheckpointError on any corruption,
    including a tensor that holds NaN or inf.

    The tensors are views into one buffer holding the container: `data`
    itself when it is writable and 8-byte aligned (as `load_checkpoint`
    reads it), else one copy of it.
    """
    buf = np.frombuffer(data, dtype=np.uint8)
    if not buf.flags.writeable or buf.ctypes.data % 8:
        buf = buf.copy()
    overhead = len(CHECKPOINT_MAGIC) + 8 + 32
    if len(buf) < overhead:
        raise CheckpointError("truncated checkpoint file")
    if buf[: len(CHECKPOINT_MAGIC)].tobytes() != CHECKPOINT_MAGIC:
        raise CheckpointError("bad magic bytes: not a checkpoint file of this format version")
    body = buf[:-32]
    if hashlib.sha256(body).digest() != buf[-32:].tobytes():
        raise CheckpointError("checksum mismatch: corrupted checkpoint")
    (header_len,) = struct.unpack_from("<Q", buf, len(CHECKPOINT_MAGIC))
    header_start = len(CHECKPOINT_MAGIC) + 8
    if header_start + header_len > len(body):
        raise CheckpointError("truncated checkpoint header")
    try:
        header = json.loads(body[header_start : header_start + header_len].tobytes().decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CheckpointError(f"unreadable checkpoint header: {exc}") from None
    if not isinstance(header, dict):
        raise CheckpointError("checkpoint header is not an object")
    if header.get("format_version") != CHECKPOINT_VERSION:
        raise CheckpointError(
            f"unsupported checkpoint version {header.get('format_version')!r}"
        )
    if header_len % 8:
        raise CheckpointError(f"header length {header_len} leaves the tensor payload unaligned")
    missing, unknown = sorted(_HEADER_FIELDS - set(header)), sorted(set(header) - _HEADER_FIELDS)
    if missing:
        raise CheckpointError(f"checkpoint field {missing[0]!r} is missing")
    if unknown:
        raise CheckpointError(f"unknown checkpoint field {unknown[0]!r}")

    config = _config_from_header(header["config"])
    word_vocab = _vocabulary(header, "word_vocab")
    lib_vocab = _vocabulary(header, "lib_vocab")
    _check_tensor_list(header["tensors"], config, word_vocab, lib_vocab)

    arrays: dict[str, np.ndarray] = {}
    offset = header_start + header_len
    for name, shape in header["tensors"]:
        nbytes = math.prod(shape) * 8
        if offset + nbytes > len(body):
            raise CheckpointError("truncated tensor payload")
        arrays[name] = body[offset : offset + nbytes].view("<f8").reshape(shape)
        offset += nbytes
    if offset != len(body):
        raise CheckpointError("trailing bytes after tensor payload")
    # A NaN or inf weight would load and then decode to nothing.  The sum
    # of finite values is finite unless it overflows, so one pass without
    # a temporary array clears the payload; otherwise each tensor is checked.
    with np.errstate(over="ignore", invalid="ignore"):
        total = body[header_start + header_len :].view("<f8").sum()
    if not np.isfinite(total):
        bad = [name for name, arr in arrays.items() if not np.isfinite(arr).all()]
        if bad:
            raise CheckpointError(f"tensor {bad[0]!r} holds a value that is not finite")

    with _field("tables"):
        tables = PreprocTables.from_json(header["tables"])
    with _field("lib_freq"):
        lib_freq = {_string(k): _integer(v) for k, v in header["lib_freq"]}
    # evaluate weighs every truth library by its count, and the loss
    # weights of training come from the counts of the vocabulary
    for lib in [*lib_vocab.regular_tokens(), *lib_freq]:
        if lib_freq.get(lib, 0) < 1:
            raise CheckpointError(f"checkpoint field 'lib_freq' has no count >= 1 for library {lib!r}")
    with _field("epochs"):
        epochs = _integer(header["epochs"])
    final_loss = header["final_loss"]
    if final_loss is not None and (isinstance(final_loss, bool) or not isinstance(final_loss, (int, float))):
        raise CheckpointError(f"checkpoint field 'final_loss' is not a number: {final_loss!r}")
    word_embed, class_weights = arrays.pop("word_embed"), arrays.pop("class_weights")
    return ModelCheckpoint(
        config=config,
        params=params_from_named({name: Tensor(a) for name, a in arrays.items()}, class_weights),
        word_embed=word_embed,
        word_vocab=word_vocab,
        lib_vocab=lib_vocab,
        lib_freq=lib_freq,
        tables=tables,
        epochs=epochs,
        final_loss=final_loss,
    )


def _string(value) -> str:
    if not isinstance(value, str):
        raise TypeError(f"{value!r} is not a string")
    return value


def _integer(value) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"{value!r} is not an integer")
    return value


def save_checkpoint(ckpt: ModelCheckpoint, path) -> None:
    """Write atomically: serialize fully into the one buffer of
    `checkpoint_bytes`, then temp-file + rename."""
    data = checkpoint_bytes(ckpt)
    directory = os.path.dirname(os.fspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


# the memory map of the last checkpoint whose arrays are all gone
_SPARE_MAPS: list[mmap.mmap] = []


def _load_buffer(size: int) -> np.ndarray:
    """A writable, page-aligned buffer of `size` bytes in an anonymous
    memory map of its own.  Once no array over it is left, the map waits
    for the next load, whose pages are then already in memory.  From malloc
    instead, reloaded checkpoints share the heap with small long-lived
    allocations, and now and then a reload finds no free stretch large
    enough: peak memory read one checkpoint more in some runs than in
    others."""
    spare = _SPARE_MAPS.pop() if _SPARE_MAPS else None
    mm = spare if spare is not None and len(spare) >= size else mmap.mmap(-1, max(size, 1))
    whole = np.frombuffer(mm, dtype=np.uint8)
    weakref.finalize(whole, _SPARE_MAPS.__setitem__, slice(None), [mm])
    return whole[:size]


def load_checkpoint(path) -> ModelCheckpoint:
    """Read the file into one aligned, writable buffer (`_load_buffer`); the
    tensors of the checkpoint are views into it, not copies."""
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        buf = _load_buffer(size)
        if fh.readinto(buf) != size or fh.read(1):
            raise CheckpointError("checkpoint file changed size while being read")
    return checkpoint_from_bytes(buf)
