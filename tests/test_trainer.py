import hashlib
import json
import math
import mmap
import struct
import tracemalloc
import weakref
from dataclasses import asdict, replace

import numpy as np
import pytest

import _synth
from libsuggest.corpus import N_RESERVED, PreparedDataset, PreprocTables, Vocabulary
from libsuggest.decode import greedy_decode
from libsuggest.model import init_params, named_parameters, parameter_shapes, params_from_named
from libsuggest.tensor import Tensor
from libsuggest import trainer
from libsuggest.trainer import (
    AdamState,
    CheckpointError,
    ModelCheckpoint,
    TrainConfig,
    TrainingError,
    adam_step,
    checkpoint_bytes,
    checkpoint_from_bytes,
    clip_gradients,
    load_checkpoint,
    save_checkpoint,
    train,
)


class TestTrainConfig:
    def test_defaults_valid(self):
        TrainConfig()

    def test_dropout_one_rejected(self):
        with pytest.raises(ValueError, match="dropout"):
            TrainConfig(dropout_p=1.0)

    def test_other_invariants(self):
        with pytest.raises(ValueError):
            TrainConfig(learning_rate=0.0)
        with pytest.raises(ValueError):
            TrainConfig(clip_max_norm=0.0)
        with pytest.raises(ValueError):
            TrainConfig(batch_size=0)
        # values that cannot train: NaN steps, numpy's generator takes no
        # negative seed
        for name, value in (
            ("seed", -1),
            ("learning_rate", math.nan),
            ("learning_rate", math.inf),
            ("clip_max_norm", math.nan),
        ):
            with pytest.raises(ValueError, match=name):
                TrainConfig(**{name: value})
        assert TrainConfig(clip_max_norm=math.inf).clip_max_norm == math.inf  # never clips


class TestAdamStep:
    def cfg(self):
        return TrainConfig()

    def test_constants_are_the_defaults_of_kingma_and_ba(self):
        assert (trainer.ADAM_BETA1, trainer.ADAM_BETA2, trainer.ADAM_EPSILON) == (0.9, 0.999, 1e-8)

    def test_first_step_moves_by_learning_rate(self):
        p = {"w": Tensor(np.array([1.0]))}
        g = {"w": np.array([0.37])}
        state = AdamState.for_params(p)
        adam_step(p, g, state, 1, self.cfg())
        # bias-corrected first step: update = -lr * g / (|g| + eps)
        expected = 1.0 - 1e-3 * 0.37 / (0.37 + 1e-8)
        assert math.isclose(p["w"].data[0], expected, rel_tol=1e-12)

    def test_zero_gradient_is_fixed_point(self):
        p = {"w": Tensor(np.array([2.5, -1.0]))}
        state = AdamState.for_params(p)
        for t in range(1, 6):
            adam_step(p, {"w": np.zeros(2)}, state, t, self.cfg())
        np.testing.assert_array_equal(p["w"].data, [2.5, -1.0])

    def test_deterministic_across_runs(self):
        results = []
        for _ in range(2):
            rng = np.random.default_rng(3)
            p = {"w": Tensor(rng.normal(size=(4, 3)))}
            state = AdamState.for_params(p)
            for t in range(1, 10):
                adam_step(p, {"w": rng.normal(size=(4, 3))}, state, t, self.cfg())
            results.append(p["w"].data.tobytes())
        assert results[0] == results[1]

    def test_shape_mismatch_rejected(self):
        p = {"w": Tensor(np.zeros((2, 2)))}
        state = AdamState.for_params(p)
        with pytest.raises(ValueError, match="shape"):
            adam_step(p, {"w": np.zeros(3)}, state, 1, self.cfg())

    def test_formula_bytes_over_parameters_of_falling_and_rising_sizes(self):
        # sizes that fall and rise, so each parameter reads buffers a
        # larger one wrote before it; three steps against the formula
        cfg = replace(self.cfg(), learning_rate=2e-3)
        rng = np.random.default_rng(12)
        shapes = {"big": (6, 7), "one": (1,), "cube": (2, 3, 4), "row": (5,), "last": (7, 6)}
        params = {name: Tensor(rng.normal(size=shape)) for name, shape in shapes.items()}
        expected = {name: (p.data.copy(), 0.0, 0.0) for name, p in params.items()}
        state = AdamState.for_params(params)
        b1, b2, eps = trainer.ADAM_BETA1, trainer.ADAM_BETA2, trainer.ADAM_EPSILON
        for t in range(1, 4):
            grads = {name: rng.normal(size=shape) for name, shape in shapes.items()}
            adam_step(params, grads, state, t, cfg)
            for name, g in grads.items():
                w, m, v = expected[name]
                m = b1 * m + (1.0 - b1) * g
                v = b2 * v + (1.0 - b2) * g * g
                w = w - cfg.learning_rate * (m / (1.0 - b1**t)) / (np.sqrt(v / (1.0 - b2**t)) + eps)
                expected[name] = w, m, v
                assert params[name].data.tobytes() == w.tobytes(), (name, t)
                assert state.m[name].tobytes() == m.tobytes() and state.v[name].tobytes() == v.tobytes()

    def test_in_place_update_matches_the_allocating_formula_byte_for_byte(self):
        def reference(w, g, m, v, t, cfg):
            # the update as it was written before it ran in place
            b1, b2, eps = trainer.ADAM_BETA1, trainer.ADAM_BETA2, trainer.ADAM_EPSILON
            m = b1 * m + (1.0 - b1) * g
            v = b2 * v + (1.0 - b2) * g * g
            m_hat = m / (1.0 - b1**t)
            v_hat = v / (1.0 - b2**t)
            return w - cfg.learning_rate * m_hat / (np.sqrt(v_hat) + eps), m, v

        cfg = replace(self.cfg(), learning_rate=3e-3)
        rng = np.random.default_rng(11)
        shapes = {"w": (5, 4), "b": (4,)}
        params = {name: Tensor(rng.normal(size=shape)) for name, shape in shapes.items()}
        expected = {name: (p.data.copy(), np.zeros(p.shape), np.zeros(p.shape)) for name, p in params.items()}
        state = AdamState.for_params(params)
        moments = {name: (state.m[name], state.v[name]) for name in params}
        for t in range(1, 4):
            grads = {name: rng.normal(size=shape) * 10.0 ** rng.integers(-6, 2) for name, shape in shapes.items()}
            adam_step(params, grads, state, t, cfg)
            for name in params:
                w, m, v = expected[name]
                w, m, v = expected[name] = reference(w, grads[name], m, v, t, cfg)
                assert params[name].data.tobytes() == w.tobytes(), (name, t)
                assert state.m[name].tobytes() == m.tobytes() and state.v[name].tobytes() == v.tobytes(), (name, t)
        # the moments were updated in place, not replaced
        assert all(state.m[n] is moments[n][0] and state.v[n] is moments[n][1] for n in params)


class TestClipGradients:
    def test_norm_ten_halved_at_max_five(self):
        grads = {"a": np.array([6.0]), "b": np.array([8.0])}
        out = clip_gradients(grads, 5.0)
        np.testing.assert_allclose(out["a"], [3.0])
        np.testing.assert_allclose(out["b"], [4.0])

    def test_below_max_unchanged(self):
        grads = {"a": np.array([3.0])}
        out = clip_gradients(grads, 5.0)
        assert out is grads

    def test_post_clip_norm_bounded(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            grads = {f"g{i}": rng.normal(size=rng.integers(1, 5)) * 10 for i in range(3)}
            out = clip_gradients(grads, 2.0)
            norm = math.sqrt(sum(float(np.sum(g * g)) for g in out.values()))
            assert norm <= 2.0 + 1e-9

    def test_direction_preserved(self):
        rng = np.random.default_rng(6)
        grads = {"g": rng.normal(size=8) * 100}
        out = clip_gradients(grads, 1.0)
        ratio = out["g"] / grads["g"]
        np.testing.assert_allclose(ratio, ratio[0])
        assert ratio[0] > 0

    def test_finite_gradients_whose_squares_overflow_are_clipped(self):
        grads = {"a": np.array([1e200]), "b": np.array([-1e200])}
        out = clip_gradients(grads, 5.0)
        np.testing.assert_allclose(out["a"], [5.0 / math.sqrt(2.0)], rtol=1e-15)
        np.testing.assert_allclose(out["b"], [-5.0 / math.sqrt(2.0)], rtol=1e-15)

    def test_factor_is_max_norm_over_the_plain_norm(self):
        rng = np.random.default_rng(7)
        grads = {"a": rng.normal(size=(3, 4)) * 50, "b": rng.normal(size=5)}
        factor = 2.0 / np.sqrt(sum(float(np.sum(g * g)) for g in grads.values()))
        out = clip_gradients(grads, 2.0)
        assert all(out[name].tobytes() == (g * factor).tobytes() for name, g in grads.items())

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_non_finite_entry_raises(self, bad):
        with pytest.raises(FloatingPointError, match="gradient norm"):
            clip_gradients({"a": np.array([1.0, bad]), "b": np.ones(2)}, 5.0)


def tiny_dataset(n=1):
    data = _synth.prepared_dataset(n_projects=10, n_libs=8, cfg=_synth.overfit_config(1))
    return PreparedDataset(
        data.examples[:n], data.word_vocab, data.lib_vocab, data.lib_freq, data.tables
    )


def tiny_cfg(**kw):
    base = dict(
        learning_rate=5e-3,
        dropout_p=0.0,
        batch_size=4,
        max_epochs=5,
        seed=11,
        max_src=16,
        max_tgt=8,
        embed_dim=16,
        enc_hidden=12,
        dec_hidden=12,
        lib_embed=8,
    )
    base.update(kw)
    return TrainConfig(**base)


class TestTrain:
    def table(self):
        return _synth.make_embedding_table(n_projects=10, n_libs=8)

    def test_zero_epochs_returns_initialization(self):
        data = tiny_dataset(4)
        cfg = tiny_cfg(max_epochs=0)
        ckpt_a = train(data, cfg, self.table())
        ckpt_b = train(data, cfg, self.table())
        assert ckpt_a.final_loss is None
        assert ckpt_a.epochs == 0
        assert checkpoint_bytes(ckpt_a) == checkpoint_bytes(ckpt_b)

    def test_single_example_memorized(self, capsys):
        data = tiny_dataset(1)
        cfg = tiny_cfg(max_epochs=200, batch_size=1, learning_rate=1e-2)
        ckpt = train(data, cfg, self.table())
        capsys.readouterr()
        assert ckpt.final_loss < 0.05

    def test_epoch_log_lines_and_mostly_decreasing_loss(self, capsys):
        data = _synth.prepared_dataset(n_projects=50, n_libs=40, cfg=_synth.overfit_config(1))
        cfg = _synth.overfit_config(max_epochs=30)
        train(data, cfg, _synth.make_embedding_table())
        lines = [l for l in capsys.readouterr().out.splitlines() if l.startswith("epoch ")]
        assert len(lines) == 30
        losses = []
        for i, line in enumerate(lines, start=1):
            parts = line.split()
            assert parts[0] == "epoch" and int(parts[1]) == i and parts[2] == "loss"
            losses.append(float(parts[3]))
        drops = sum(1 for a, b in zip(losses, losses[1:]) if b <= a)
        assert drops / (len(losses) - 1) >= 0.9

    def test_same_seed_bit_identical(self, capsys):
        data = tiny_dataset(6)
        cfg = tiny_cfg(max_epochs=3, dropout_p=0.2)
        a = train(data, cfg, self.table())
        b = train(data, cfg, self.table())
        capsys.readouterr()
        assert checkpoint_bytes(a) == checkpoint_bytes(b)

    def test_empty_dataset_rejected(self):
        data = tiny_dataset(1)
        empty = PreparedDataset([], data.word_vocab, data.lib_vocab, data.lib_freq, data.tables)
        with pytest.raises(ValueError, match="empty"):
            train(empty, tiny_cfg(), self.table())

    def test_embedding_dimension_checked(self):
        data = tiny_dataset(1)
        with pytest.raises(ValueError, match="dimension"):
            train(data, tiny_cfg(embed_dim=7), self.table())

    def test_vocabulary_library_without_a_count_named(self):
        data = tiny_dataset(2)
        lib = data.lib_vocab.regular_tokens()[-1]
        freq = {k: v for k, v in data.lib_freq.items() if k != lib}
        uncounted = PreparedDataset(data.examples, data.word_vocab, data.lib_vocab, freq, data.tables)
        with pytest.raises(ValueError) as err:
            train(uncounted, tiny_cfg(), self.table())
        assert f"library {lib!r}" in str(err.value)

    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    def test_non_finite_gradient_stops_before_adam(self, bad, monkeypatch, capsys):
        named, steps, sweeps = {}, [], []
        real_named, real_backward, real_adam = trainer.named_parameters, trainer.backward, trainer.adam_step

        def capture(params):
            named.update(real_named(params))
            return named

        def poisoned(tape, loss):
            real_backward(tape, loss)
            sweeps.append(tape)
            if len(sweeps) == 2:
                tape.gradient(named["dec.u"])[0, 0] = bad

        monkeypatch.setattr(trainer, "named_parameters", capture)
        monkeypatch.setattr(trainer, "backward", poisoned)
        monkeypatch.setattr(trainer, "adam_step", lambda *args: steps.append(real_adam(*args)))
        with pytest.raises(TrainingError, match="non-finite gradient at epoch 1, batch 2"):
            train(tiny_dataset(6), tiny_cfg(max_epochs=1), self.table())
        assert len(steps) == 1
        assert all(np.isfinite(p.data).all() for p in named.values())

    @pytest.mark.parametrize("clip_max_norm", [5.0, 1e-9], ids=["unclipped", "clipped"])
    def test_no_gradient_of_a_batch_is_alive_when_the_next_batch_starts(self, clip_max_norm, monkeypatch, capsys):
        """Each gradient array Adam receives, the tape's own or its clipped
        copy, is freed before the next batch's forward pass begins."""
        received, starts = [], []
        real_loss, real_adam = trainer.batch_loss, trainer.adam_step

        def adam(params, grads, *args):
            received.extend(weakref.ref(g) for g in grads.values())
            return real_adam(params, grads, *args)

        def loss(*args):
            alive = [ref for ref in received if ref() is not None]
            assert not alive, f"{len(alive)} of {len(received)} gradients of the last batch are alive"
            starts.append(len(received))
            return real_loss(*args)

        monkeypatch.setattr(trainer, "adam_step", adam)
        monkeypatch.setattr(trainer, "batch_loss", loss)
        train(tiny_dataset(6), tiny_cfg(max_epochs=1, dropout_p=0.2, clip_max_norm=clip_max_norm), self.table())
        capsys.readouterr()
        assert starts[0] == 0 and starts[1] > 0 and len(starts) == 2

    def test_inference_has_no_dropout(self, capsys):
        data = tiny_dataset(4)
        ckpt = train(data, tiny_cfg(max_epochs=2, dropout_p=0.4), self.table())
        capsys.readouterr()
        tokens = ["w000", "w001"]
        first = greedy_decode(tokens, ckpt, 6)
        second = greedy_decode(tokens, ckpt, 6)
        assert first == second


class TestCheckpointRoundTrip:
    def test_random_checkpoints_bit_exact(self):
        import _synth as s

        for seed in range(12):
            ckpt = s.random_checkpoint(seed, n_libs=3 + seed % 4, n_words=4 + seed % 3)
            blob = checkpoint_bytes(ckpt)
            again = checkpoint_bytes(checkpoint_from_bytes(blob))
            assert blob == again

    def test_file_round_trip(self, tmp_path):
        import _synth as s

        ckpt = s.random_checkpoint(0)
        path = tmp_path / "model.ckpt"
        save_checkpoint(ckpt, path)
        loaded = load_checkpoint(path)
        assert checkpoint_bytes(loaded) == checkpoint_bytes(ckpt)
        assert loaded.word_vocab == ckpt.word_vocab
        assert loaded.lib_vocab == ckpt.lib_vocab
        assert loaded.lib_freq == ckpt.lib_freq

    def test_wrong_magic_rejected(self, tmp_path):
        import _synth as s

        blob = checkpoint_bytes(s.random_checkpoint(1))
        with pytest.raises(CheckpointError, match="magic"):
            checkpoint_from_bytes(b"NOTMAGIC" + blob[8:])

    def test_truncated_file_rejected(self):
        import _synth as s

        blob = checkpoint_bytes(s.random_checkpoint(2))
        with pytest.raises(CheckpointError):
            checkpoint_from_bytes(blob[: len(blob) // 2])

    def test_corrupted_payload_fails_checksum(self):
        import _synth as s

        blob = bytearray(checkpoint_bytes(s.random_checkpoint(3)))
        blob[len(blob) // 2] ^= 0xFF
        with pytest.raises(CheckpointError, match="checksum"):
            checkpoint_from_bytes(bytes(blob))

    def test_preprocessing_tables_round_trip(self):
        import _synth as s

        ckpt = s.random_checkpoint(4)
        ckpt = replace(
            ckpt,
            tables=type(ckpt.tables)(
                stopwords=frozenset({"the", "a"}),
                domain_vocab=frozenset({"json", "web"}),
                lemma_table={"files": "file"},
            ),
        )
        loaded = checkpoint_from_bytes(checkpoint_bytes(ckpt))
        assert loaded.tables == ckpt.tables


def reference_checkpoint_bytes(ckpt: ModelCheckpoint) -> bytes:
    """The container built the plain way: each tensor's bytes copied out,
    joined, prefixed with the magic and the header, and the digest of that
    body appended."""
    arrays = {name: p.data for name, p in named_parameters(ckpt.params).items()}
    arrays |= {"class_weights": ckpt.params.class_weights, "word_embed": ckpt.word_embed}
    header = {
        "format_version": trainer.CHECKPOINT_VERSION,
        "config": asdict(ckpt.config),
        "epochs": ckpt.epochs,
        "final_loss": ckpt.final_loss,
        "word_vocab": list(ckpt.word_vocab.regular_tokens()),
        "lib_vocab": list(ckpt.lib_vocab.regular_tokens()),
        "lib_freq": sorted(ckpt.lib_freq.items()),
        "tables": ckpt.tables.to_json(),
        "tensors": [[name, list(arr.shape)] for name, arr in arrays.items()],
    }
    text = json.dumps(header, sort_keys=True, ensure_ascii=False).encode("utf-8")
    text += b" " * (-len(text) % 8)
    payload = b"".join(np.ascontiguousarray(arr, dtype=np.float64).tobytes() for arr in arrays.values())
    body = trainer.CHECKPOINT_MAGIC + struct.pack("<Q", len(text)) + text + payload
    return body + hashlib.sha256(body).digest()


def paper_size_checkpoint(n_libs: int = 1000, n_words: int = 3000) -> ModelCheckpoint:
    """A checkpoint at the `TrainConfig` default dimensions, with a library
    vocabulary and a word table of the sizes a paper-scale corpus gives."""
    cfg = TrainConfig()
    rng = np.random.default_rng(22)
    libs = Vocabulary([f"lib{j}" for j in range(n_libs)])
    words = Vocabulary([f"w{i}" for i in range(n_words)])
    params = init_params(
        cfg.embed_dim, cfg.enc_hidden, cfg.dec_hidden, cfg.lib_embed, len(libs), np.full(n_libs, 0.99), rng
    )
    return ModelCheckpoint(
        config=cfg,
        params=params,
        word_embed=rng.normal(size=(len(words), cfg.embed_dim)),
        word_vocab=words,
        lib_vocab=libs,
        lib_freq=dict.fromkeys(libs.regular_tokens(), 1),
        tables=PreprocTables(frozenset(), None, {}),
        epochs=0,
        final_loss=None,
    )


class TestOneBufferSerialization:
    def test_bytes_equal_the_plain_serializer(self):
        ckpts = [
            _synth.random_checkpoint(seed, n_libs=2 + seed % 5, n_words=3 + seed % 4, hidden=3 + seed % 3)
            for seed in range(8)
        ]
        for ckpt in [*ckpts, paper_size_checkpoint()]:
            assert checkpoint_bytes(ckpt) == reference_checkpoint_bytes(ckpt)

    def test_allocation_peak_is_about_one_copy_of_the_result(self):
        """The tensors are not copied out before the join: the call's
        allocation peak is the result and little else."""
        ckpt = paper_size_checkpoint()
        tracemalloc.start()
        try:
            blob = checkpoint_bytes(ckpt)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(blob) > 10 * 2**20
        assert peak < 1.25 * len(blob), f"peak {peak} for {len(blob)} bytes"


@pytest.mark.parametrize("dims", [(200, 128, 128, 64, 1003), (5, 7, 9, 3, 41)])
def test_one_parameter_layout(dims):
    """`parameter_shapes`, `named_parameters`, `params_from_named` and a
    checkpoint's tensor list share one order and one set of shapes."""
    embed_dim, enc_hidden, dec_hidden, lib_embed, vocab_n = dims
    params = init_params(*dims, np.full(vocab_n - N_RESERVED, 0.5), np.random.default_rng(3))
    named = named_parameters(params)
    assert list(parameter_shapes(*dims).items()) == [(name, t.shape) for name, t in named.items()]
    rebuilt = params_from_named(named, params.class_weights)
    assert list(named_parameters(rebuilt).items()) == list(named.items())
    assert all(t is named[name] for name, t in named_parameters(rebuilt).items())

    ckpt = _synth.random_checkpoint(0)
    libs = Vocabulary([f"lib{j}" for j in range(vocab_n - N_RESERVED)])
    ckpt = replace(
        ckpt,
        config=replace(
            ckpt.config, embed_dim=embed_dim, enc_hidden=enc_hidden, dec_hidden=dec_hidden, lib_embed=lib_embed
        ),
        params=params,
        word_embed=np.zeros((len(ckpt.word_vocab), embed_dim)),
        lib_vocab=libs,
        lib_freq=dict.fromkeys(libs.regular_tokens(), 1),
    )
    blob = checkpoint_bytes(ckpt)
    (length,) = struct.unpack_from("<Q", blob, 8)
    header = json.loads(blob[16 : 16 + length])
    assert [name for name, _ in header["tensors"]] == [*named, "class_weights", "word_embed"]
    assert checkpoint_bytes(checkpoint_from_bytes(blob)) == blob


def resealed(body: bytes) -> bytes:
    import hashlib

    return body + hashlib.sha256(body).digest()


def reheadered(blob: bytes, edit) -> bytes:
    """The checkpoint with `edit` applied to its JSON header, the header
    padded with blanks to a multiple of 8 bytes as the writer does, the
    header length and the checksum recomputed, and the tensor payload kept."""
    import json
    import struct

    (length,) = struct.unpack_from("<Q", blob, 8)
    header = json.loads(blob[16 : 16 + length])
    edit(header)
    text = json.dumps(header, sort_keys=True).encode("utf-8")
    text += b" " * (-len(text) % 8)
    return resealed(blob[:8] + struct.pack("<Q", len(text)) + text + blob[16 + length : -32])


class TestCheckpointHeaderValidation:
    """A checkpoint whose header does not fit its tensors fails with a
    CheckpointError that names the field, whatever the edit."""

    blob = checkpoint_bytes(_synth.random_checkpoint(5))

    def rejects(self, edit, field):
        with pytest.raises(CheckpointError, match=field):
            checkpoint_from_bytes(reheadered(self.blob, edit))

    def test_unedited_header_round_trips(self):
        assert reheadered(self.blob, lambda h: None) == self.blob

    def test_unknown_config_key(self):
        self.rejects(lambda h: h["config"].update(attention="dot"), r"config\.attention")

    def test_missing_config_key(self):
        self.rejects(lambda h: h["config"].pop("lib_embed"), r"config\.lib_embed")

    def test_config_value_of_wrong_type(self):
        self.rejects(lambda h: h["config"].update(embed_dim="4"), r"config\.embed_dim")

    def test_invalid_config_value(self):
        self.rejects(lambda h: h["config"].update(dropout_p=1.5), "config")

    def test_learning_rate_that_is_not_a_number(self):
        # JSON as Python writes and reads it admits NaN
        self.rejects(lambda h: h["config"].update(learning_rate=math.nan), "learning_rate")

    @pytest.mark.parametrize("field", ["tables", "tensors", "lib_vocab", "config", "epochs"])
    def test_missing_field(self, field):
        self.rejects(lambda h: h.pop(field), field)

    def test_unknown_field(self):
        self.rejects(lambda h: h.update(extra=1), "extra")

    def test_lib_vocab_shorter_than_emb_rows(self):
        self.rejects(lambda h: h.update(lib_vocab=h["lib_vocab"][:-2]), "lib_vocab")

    def test_lib_vocab_longer_than_output_columns(self):
        def edit(h):
            h["lib_vocab"] = h["lib_vocab"] + ["extra"]
            shapes = dict(h["tensors"])
            # emb fits the longer vocabulary; the readout does not
            shapes["emb"][0] += 1
            shapes["word_embed"][0] -= 1
        self.rejects(edit, "lib_vocab")

    def test_word_vocab_longer_than_word_embed_rows(self):
        self.rejects(lambda h: h["word_vocab"].append("extra"), "word_vocab")

    def test_config_dimension_not_matching_tensors(self):
        self.rejects(lambda h: h["config"].update(dec_hidden=5), "config")

    def test_tensor_missing_from_the_list(self):
        self.rejects(lambda h: h.update(tensors=[t for t in h["tensors"] if t[0] != "bos"]), "bos")

    def test_unknown_tensor(self):
        def edit(h):
            h["tensors"][-1][0] = "word_embed2"
        self.rejects(edit, "word_embed")

    def test_malformed_tables(self):
        self.rejects(lambda h: h["tables"].update(lemma=[["a"]]), "tables")

    def test_duplicate_vocabulary_entry(self):
        self.rejects(lambda h: h["word_vocab"].__setitem__(1, h["word_vocab"][0]), "word_vocab")

    def test_lib_freq_lacking_a_vocabulary_library(self):
        self.rejects(lambda h: h["lib_freq"].pop(2), "lib_freq")

    @pytest.mark.parametrize("count", [0, -3])
    def test_lib_freq_count_below_one(self, count):
        self.rejects(lambda h: h["lib_freq"][1].__setitem__(1, count), "lib_freq")

    def test_lib_freq_count_below_one_outside_the_vocabulary(self):
        self.rejects(lambda h: h["lib_freq"].append(["zzz.unused", 0]), "lib_freq")

    def test_first_format_version_rejected(self):
        self.rejects(lambda h: h.update(format_version=1), "version 1")

        def version_2(h):  # a format 2 header, with the Adam keys its config had
            h.update(format_version=2)
            h["config"].update(adam_beta1=0.9, adam_beta2=0.999, adam_epsilon=1e-8)
        self.rejects(version_2, "version 2")

    def test_unaligned_payload(self):
        import json
        import struct

        (length,) = struct.unpack_from("<Q", self.blob, 8)
        text = json.dumps(json.loads(self.blob[16 : 16 + length]), sort_keys=True).encode("utf-8")
        text += b" " * (-len(text) % 8 + 1)
        blob = resealed(self.blob[:8] + struct.pack("<Q", len(text)) + text + self.blob[16 + length : -32])
        with pytest.raises(CheckpointError, match="unaligned"):
            checkpoint_from_bytes(blob)


class TestNonFiniteTensors:
    """A NaN or inf weight is a CheckpointError naming the tensor: loaded,
    it would make recommend return nothing.  The writer computes the
    checksum over the bad bytes, so only the finiteness check rejects them."""

    @pytest.mark.parametrize(
        "name, value",
        [("out.w_o", np.nan), ("word_embed", np.inf), ("word_embed", -np.inf), ("emb", np.nan)],
    )
    def test_rejected_naming_the_tensor(self, name, value):
        ckpt = _synth.random_checkpoint(9)
        array = ckpt.word_embed if name == "word_embed" else named_parameters(ckpt.params)[name].data
        array[-1, 1] = value
        with pytest.raises(CheckpointError, match=f"'{name}'"):
            checkpoint_from_bytes(checkpoint_bytes(ckpt))

    def test_finite_values_whose_sum_overflows_load(self):
        ckpt = _synth.random_checkpoint(9)
        ckpt.params.out.w_o.data[0, :2] = np.finfo(np.float64).max
        ckpt.word_embed[-1, 0] = -np.finfo(np.float64).tiny
        loaded = checkpoint_from_bytes(checkpoint_bytes(ckpt))
        assert (loaded.params.out.w_o.data[0, :2] == np.finfo(np.float64).max).all()


class TestSingleBufferLoad:
    def test_loaded_arrays_are_aligned_writable_views_equal_to_the_saved(self, tmp_path):
        ckpt = _synth.random_checkpoint(7, n_libs=6)
        path = tmp_path / "model.ckpt"
        save_checkpoint(ckpt, path)
        for loaded in (load_checkpoint(path), checkpoint_from_bytes(checkpoint_bytes(ckpt))):
            saved = {**named_parameters(ckpt.params), "word_embed": Tensor(ckpt.word_embed)}
            got = {**named_parameters(loaded.params), "word_embed": Tensor(loaded.word_embed)}
            arrays = [t.data for t in got.values()] + [loaded.params.class_weights]
            base = arrays[0].base
            for name, t in got.items():
                assert t.data.dtype == np.float64, name
                assert t.data.flags.writeable and t.data.flags.aligned, name
                assert t.data.ctypes.data % 8 == 0, name
                assert t.data.tobytes() == saved[name].data.tobytes(), name
            assert loaded.params.class_weights.tobytes() == ckpt.params.class_weights.tobytes()
            # one buffer behind every tensor, not a copy each
            assert base is not None and all(a.base is base for a in arrays)

    def test_buffer_is_a_memory_map_lent_to_the_next_load_once_dropped(self, tmp_path):
        path = tmp_path / "model.ckpt"
        ckpt = _synth.random_checkpoint(7, n_libs=6)
        save_checkpoint(ckpt, path)
        first = load_checkpoint(path)
        owner = first.word_embed
        while isinstance(owner, (np.ndarray, memoryview)):
            owner = owner.base if isinstance(owner, np.ndarray) else owner.obj
        assert isinstance(owner, mmap.mmap)
        # a live checkpoint keeps its memory; a dropped one's goes to the next load
        address = first.word_embed.ctypes.data
        second = load_checkpoint(path)
        assert second.word_embed.ctypes.data != address
        assert first.word_embed.tobytes() == ckpt.word_embed.tobytes()
        del first, owner
        third = load_checkpoint(path)
        assert third.word_embed.ctypes.data == address
        assert third.word_embed.tobytes() == second.word_embed.tobytes() == ckpt.word_embed.tobytes()


def _mutations():
    from hypothesis import strategies as st

    fields = ["format_version", "config", "epochs", "final_loss", "word_vocab", "lib_vocab", "lib_freq", "tables", "tensors"]
    junk = st.recursive(
        st.none() | st.booleans() | st.integers(-3, 40) | st.floats(allow_nan=False) | st.text(max_size=4),
        lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
        max_leaves=8,
    )
    return st.lists(st.tuples(st.sampled_from(fields), st.sampled_from(["drop", "set", "nested"]), junk), min_size=1, max_size=3)


def test_mutated_bytes_only_raise_checkpoint_error():
    """Raw-byte edits of the header length field, the header and the tensor
    payload, with the checksum recomputed: a checkpoint either loads or
    fails with CheckpointError."""
    import struct

    from hypothesis import given, settings
    from hypothesis import strategies as st

    blob = checkpoint_bytes(_synth.random_checkpoint(8))
    (length,) = struct.unpack_from("<Q", blob, 8)
    payload_start, end = 16 + length, len(blob) - 32
    lengths = st.one_of(
        st.integers(0, 2**64 - 1), st.integers(max(0, length - 24), length + 24)
    ).map(lambda n: struct.pack("<Q", n))
    edits = st.lists(
        st.one_of(
            st.tuples(st.integers(payload_start, end - 1), st.binary(min_size=1, max_size=8)),
            st.tuples(st.integers(16, payload_start - 1), st.binary(min_size=1, max_size=3)),
        ),
        max_size=3,
    )

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(lengths, edits, st.integers(-16, 16))
    def run(length_field, byte_edits, resize):
        body = bytearray(blob[:-32])
        body[8:16] = length_field
        for at, raw in byte_edits:
            body[at : at + len(raw)] = raw
        if resize > 0:
            body += bytes(resize)
        elif resize < 0:
            del body[resize:]
        try:
            checkpoint_from_bytes(resealed(bytes(body)))
        except CheckpointError:
            pass

    run()


def test_edited_headers_only_raise_checkpoint_error():
    from hypothesis import given, settings

    blob = checkpoint_bytes(_synth.random_checkpoint(6))

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(_mutations())
    def run(edits):
        def edit(h):
            for field, how, value in edits:
                if how == "drop":
                    h.pop(field, None)
                elif how == "set" or not isinstance(h.get(field), (dict, list)) or not h[field]:
                    h[field] = value
                elif isinstance(h[field], dict):
                    h[field][sorted(h[field])[0]] = value
                else:
                    h[field][0] = value
        try:
            checkpoint_from_bytes(reheadered(blob, edit))
        except CheckpointError:
            pass

    run()
