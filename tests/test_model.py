import itertools
import math

import numpy as np
import pytest

from libsuggest.corpus import EOS_ID, N_RESERVED, PAD_ID
import _synth
from _fd import einsum, finite_difference_check
from libsuggest.model import (
    BOS,
    LstmParams,
    attention,
    attention_keys,
    batch_loss,
    decoder_step,
    encode,
    example_loss,
    init_params,
    initial_decoder_state,
    library_weights,
    named_parameters,
    sequence_loss,
)
from libsuggest.corpus import Vocabulary
from libsuggest.tensor import Tensor, lstm_cell


def zero_lstm(input_size, hidden):
    def z(shape):
        return Tensor(np.zeros(shape))

    return LstmParams(w=z((input_size, 4 * hidden)), u=z((hidden, 4 * hidden)), b=z((4 * hidden,)))


def tiny_params(seed, n_regular=6, embed_dim=8, hidden=4, lib_embed=8):
    rng = np.random.default_rng(seed)
    weights = np.full(n_regular, 1.0 - 1.0 / n_regular)
    params = init_params(embed_dim, hidden, hidden, lib_embed, n_regular + N_RESERVED, weights, rng)
    return params, rng


class TestLstmStep:
    def test_zero_params_zero_cell(self):
        p = zero_lstm(3, 2)
        h, c = lstm_cell(Tensor(np.ones((1, 3))), Tensor(np.zeros((1, 2))), Tensor(np.zeros((1, 2))), p.w, p.u, p.b)
        np.testing.assert_array_equal(h.data, np.zeros((1, 2)))
        np.testing.assert_array_equal(c.data, np.zeros((1, 2)))

    def test_zero_params_nonzero_cell(self):
        p = zero_lstm(3, 2)
        v = np.array([[0.4, -1.2]])
        h, c = lstm_cell(Tensor(np.ones((1, 3))), Tensor(np.zeros((1, 2))), Tensor(v), p.w, p.u, p.b)
        np.testing.assert_allclose(c.data, 0.5 * v, atol=1e-15)
        np.testing.assert_allclose(h.data, 0.5 * np.tanh(0.5 * v), atol=1e-15)

    def test_gradients_pass_fd_check(self):
        rng = np.random.default_rng(9)
        params, _ = tiny_params(9)
        cell = params.dec
        x = Tensor(rng.normal(size=(1, cell.w.shape[0])))
        h0 = Tensor(rng.normal(size=(1, cell.u.shape[0])))
        c0 = Tensor(rng.normal(size=(1, cell.u.shape[0])))

        def f():
            h, c = lstm_cell(x, h0, c0, cell.w, cell.u, cell.b)
            from libsuggest.tensor import add, sum_all

            return add(sum_all(h), sum_all(c))

        err = finite_difference_check(f, [cell.w, cell.u, cell.b, x, h0, c0])
        assert err < 1e-4


def test_fused_cells_start_from_the_per_gate_draws():
    # a cell stored as twelve per-gate tensors drew (w, u, b) gate by gate
    # in the order i, f, o, g; the fused blocks hold exactly those numbers
    params, _ = tiny_params(4)
    rng = np.random.default_rng(4)
    for cell, n_in, hidden in ((params.enc_fwd, 8, 4), (params.enc_bwd, 8, 4), (params.dec, 16, 4)):
        for k in range(4):
            block = slice(k * hidden, (k + 1) * hidden)
            for fused, shape, fan_in in (
                (cell.w.data[:, block], (n_in, hidden), n_in),
                (cell.u.data[:, block], (hidden, hidden), hidden),
                (cell.b.data[block], (hidden,), hidden),
            ):
                r = 1.0 / np.sqrt(fan_in)
                assert np.array_equal(fused, rng.uniform(-r, r, size=shape))


class TestEncode:
    def test_single_step_sequence(self):
        params, rng = tiny_params(1)
        x = Tensor(rng.normal(size=(1, 8)))
        out = encode(x, 1, params.enc_fwd, params.enc_bwd)
        assert out.shape == (1, 8)

    def test_zero_params_give_zero_output(self):
        fwd = zero_lstm(3, 2)
        bwd = zero_lstm(3, 2)
        x = Tensor(np.random.default_rng(0).normal(size=(4, 3)))
        out = encode(x, 4, fwd, bwd)
        np.testing.assert_array_equal(out.data, np.zeros((4, 4)))

    def test_pad_rows_zero_and_excluded(self):
        params, rng = tiny_params(2)
        x_data = rng.normal(size=(5, 8))
        x_data[3:] = 0.0
        out = encode(Tensor(x_data), 3, params.enc_fwd, params.enc_bwd)
        np.testing.assert_array_equal(out.data[3:], np.zeros((2, 8)))
        # PAD content must not leak into valid rows
        x_dirty = x_data.copy()
        x_dirty[3:] = 123.0
        out_dirty = encode(Tensor(x_dirty), 3, params.enc_fwd, params.enc_bwd)
        assert out.data[:3].tobytes() == out_dirty.data[:3].tobytes()

    def test_reversing_input_swaps_direction_halves(self):
        params, rng = tiny_params(3)
        shared = params.enc_fwd  # same cell for both directions
        x_data = rng.normal(size=(4, 8))
        H = encode(Tensor(x_data), 4, shared, shared).data
        H_rev = encode(Tensor(x_data[::-1].copy()), 4, shared, shared).data
        hidden = 4
        for t in range(4):
            assert H_rev[t, :hidden].tobytes() == H[3 - t, hidden:].tobytes()
            assert H_rev[t, hidden:].tobytes() == H[3 - t, :hidden].tobytes()

    def test_all_pad_input_rejected(self):
        params, _ = tiny_params(4)
        with pytest.raises(ValueError, match="all-PAD"):
            encode(Tensor(np.zeros((3, 8))), 0, params.enc_fwd, params.enc_bwd)


class TestAttention:
    def test_single_valid_state_gets_full_weight(self):
        params, rng = tiny_params(5)
        enc_out = Tensor(rng.normal(size=(1, 4, 8)))
        s = Tensor(rng.normal(size=(1, 4)))
        alpha, context = attention(s, enc_out, np.array([1]), params.attn)
        np.testing.assert_array_equal(alpha.data, [[1.0, 0.0, 0.0, 0.0]])
        np.testing.assert_array_equal(context.data, enc_out.data[:, 0])

    def test_identical_rows_give_uniform_weights(self):
        params, rng = tiny_params(6)
        one = rng.normal(size=8)
        enc_out = Tensor(np.tile(one, (1, 3, 1)))
        s = Tensor(rng.normal(size=(1, 4)))
        alpha, _ = attention(s, enc_out, np.array([3]), params.attn)
        np.testing.assert_allclose(alpha.data, np.full((1, 3), 1 / 3), atol=1e-12)

    def test_weights_nonnegative_sum_one_zero_on_pad(self):
        params, rng = tiny_params(7)
        for _ in range(25):
            total = int(rng.integers(2, 7))
            valid = int(rng.integers(1, total + 1))
            enc_out = Tensor(rng.normal(size=(1, total, 8)))
            s = Tensor(rng.normal(size=(1, 4)))
            alpha, _ = attention(s, enc_out, np.array([valid]), params.attn)
            a = alpha.data[0]
            assert (a >= 0).all()
            assert abs(a[:valid].sum() - 1.0) <= 1e-9
            assert (a[valid:] == 0.0).all()

    def test_score_path_gradients_pass_fd_check(self):
        params, rng = tiny_params(8)
        enc_out = Tensor(rng.normal(size=(1, 3, 8)))
        s = Tensor(rng.normal(size=(1, 4)))

        def f():
            from libsuggest.tensor import sum_all

            _, context = attention(s, enc_out, np.array([3]), params.attn)
            return sum_all(context)

        err = finite_difference_check(
            f, [params.attn.w_a, params.attn.u_a, params.attn.v_a, s, enc_out]
        )
        assert err < 1e-4

    def test_batched_rows_pass_fd_audit_with_precomputed_keys(self):
        # rows of lengths T, 1 and a middle length; the keys come from
        # attention_keys on the tape, as training computes them once
        params, rng = tiny_params(14)
        enc_out = Tensor(rng.normal(size=(3, 5, 8)))
        s = Tensor(rng.normal(size=(3, 4)))
        lengths = np.array([5, 1, 3])
        readout = Tensor(rng.normal(size=(3, 13)))

        def f():
            from libsuggest.tensor import concat_rows, sum_all

            keys = attention_keys(enc_out, params.attn)
            alpha, context = attention(s, enc_out, lengths, params.attn, keys)
            return sum_all(einsum("bk,bk->bk", concat_rows(alpha, context), readout))

        attn = [params.attn.w_a, params.attn.u_a, params.attn.v_a]
        assert finite_difference_check(f, [*attn, s, enc_out], max_coords_per_tensor=1000) < 1e-4

    def test_batched_rows_equal_one_sequence_calls(self):
        params, rng = tiny_params(15)
        lengths = np.array([4, 1, 2, 4])
        enc_out = rng.normal(size=(4, 4, 8))
        s = rng.normal(size=(4, 4))
        alpha, context = attention(Tensor(s), Tensor(enc_out), lengths, params.attn)
        for b, n in enumerate(lengths):
            a_b, c_b = attention(Tensor(s[b : b + 1]), Tensor(enc_out[b : b + 1]), lengths[b : b + 1], params.attn)
            np.testing.assert_allclose(alpha.data[b], a_b.data[0], rtol=1e-13, atol=1e-16)
            np.testing.assert_allclose(context.data[b], c_b.data[0], rtol=1e-13, atol=1e-16)
            assert (alpha.data[b, n:] == 0.0).all()

    def test_inputs_that_do_not_fit_are_rejected(self):
        params, rng = tiny_params(16)
        enc_out = Tensor(rng.normal(size=(2, 3, 8)))
        s = Tensor(rng.normal(size=(2, 4)))
        keys = attention_keys(enc_out, params.attn)
        cases = [
            (Tensor(rng.normal(size=(3, 4))), np.array([3, 2]), None),  # a row too many
            (s, np.array([3, 2]), Tensor(keys.data[:, :2])),  # keys over 2 of 3 positions
            (s, np.array([3, 2]), Tensor(keys.data[:1])),  # keys of 1 of 2 rows
            (s, np.array([3, 2, 1]), None),
            (s, np.array([3, 0]), None),
            (s, np.array([4, 2]), None),
        ]
        for state, lengths, given in cases:
            with pytest.raises(ValueError):
                attention(state, enc_out, lengths, params.attn, given)
        attention(s, enc_out, np.array([3, 2]), params.attn, keys)  # the same inputs, fitting


class TestDecoderStep:
    def run_step(self, seed, mask):
        params, rng = tiny_params(seed)
        x = Tensor(rng.normal(size=(3, 8)))
        enc_out = encode(x, 3, params.enc_fwd, params.enc_bwd)
        s, cell, ctx = initial_decoder_state(enc_out, 3, params)
        return decoder_step(BOS, ctx, s, cell, enc_out, 3, mask, params)

    def test_masked_id_has_exactly_zero_probability(self):
        *_, y = self.run_step(10, {4})
        assert y.data[4] == 0.0

    def test_empty_mask_is_plain_softmax_of_logits(self):
        *_, logits, y = self.run_step(11, set())
        expected = np.exp(logits.data - logits.data.max())
        expected /= expected.sum()
        np.testing.assert_allclose(y.data, expected, atol=1e-12)

    def test_distribution_sums_to_one_100_seeds(self):
        for seed in range(100):
            *_, y = self.run_step(seed, {3, 5} if seed % 2 else set())
            assert abs(y.data.sum() - 1.0) <= 1e-9
            assert (y.data >= 0).all()

    def test_mask_covering_vocabulary_rejected(self):
        params, rng = tiny_params(12)
        x = Tensor(rng.normal(size=(3, 8)))
        enc_out = encode(x, 3, params.enc_fwd, params.enc_bwd)
        s, cell, ctx = initial_decoder_state(enc_out, 3, params)
        with pytest.raises(ValueError, match="whole"):
            decoder_step(BOS, ctx, s, cell, enc_out, 3, set(range(9)), params)

    def test_previous_id_validated(self):
        params, rng = tiny_params(13)
        x = Tensor(rng.normal(size=(3, 8)))
        enc_out = encode(x, 3, params.enc_fwd, params.enc_bwd)
        s, cell, ctx = initial_decoder_state(enc_out, 3, params)
        with pytest.raises(ValueError, match="out of vocabulary"):
            decoder_step(99, ctx, s, cell, enc_out, 3, set(), params)


class TestDecoderStepBatch:
    """With no tape, every row of a batched `decoder_step` must equal the
    one-sequence step bit for bit: beam search runs its hypotheses as those
    rows, reports their probabilities and ranks by them."""

    @staticmethod
    def broadcast(t, batch):
        # the beam's form: [B] read-only views of one sequence's array
        return Tensor(np.broadcast_to(t.data, (batch, *t.shape)))

    def check_rows(self, params, rng, total, valid_len, batch):
        vocab_n = params.lib_vocab_size
        embed_dim = params.enc_fwd.w.shape[0]
        x = Tensor(rng.normal(size=(total, embed_dim)))
        enc_out = encode(x, valid_len, params.enc_fwd, params.enc_bwd)
        keys = attention_keys(enc_out, params.attn)
        dec_hidden, ctx_width = params.init_b.shape[0], enc_out.shape[1]
        masked = np.zeros((batch, vocab_n), dtype=bool)
        for b in range(1, batch):
            n = min(b, vocab_n - N_RESERVED - 1)
            masked[b, rng.choice(np.arange(N_RESERVED, vocab_n), size=n, replace=False)] = True
        ctx = rng.normal(size=(batch, ctx_width))
        s = rng.normal(size=(batch, dec_hidden))
        cell = rng.normal(size=(batch, dec_hidden))
        # BOS starts every row or none: the first step, then the steps after a library
        for prev in (np.full(batch, BOS), rng.integers(N_RESERVED, vocab_n, size=batch)):
            s_b, cell_b, ctx_b, _, y_b = decoder_step(
                prev, Tensor(ctx), Tensor(s), Tensor(cell), self.broadcast(enc_out, batch),
                np.full(batch, valid_len), masked, params, keys=self.broadcast(keys, batch),
            )
            for b in range(batch):
                s_t, cell_t, ctx_t, _, y_t = decoder_step(
                    int(prev[b]), Tensor(ctx[b].copy()), Tensor(s[b].copy()), Tensor(cell[b].copy()),
                    enc_out, valid_len, set(np.flatnonzero(masked[b]).tolist()), params,
                )
                for name, batched, single in zip(
                    ("s", "cell", "context", "y"), (s_b, cell_b, ctx_b, y_b), (s_t, cell_t, ctx_t, y_t)
                ):
                    assert np.array_equal(batched.data[b], single.data), (name, b, batch, valid_len, total)

    @pytest.mark.parametrize("batch", [1, 2, 3, 10])
    def test_rows_match_decoder_step_on_random_checkpoints(self, batch):
        rng = np.random.default_rng(batch)
        for seed in range(10):
            params = _synth.random_checkpoint(seed).params
            for total, valid_len in ((6, 6), (6, 4), (3, 1), (1, 1)):
                self.check_rows(params, rng, total, valid_len, batch)

    @pytest.mark.parametrize("batch", [1, 2, 3, 10])
    def test_rows_match_decoder_step_at_paper_dimensions(self, batch):
        # OpenBLAS picks its kernels by size, so the small models prove
        # nothing about embed 200, hidden 128 and V ~ 1000
        rng = np.random.default_rng(100 + batch)
        vocab_n = 1003
        params = init_params(200, 128, 128, 64, vocab_n, np.full(vocab_n - N_RESERVED, 0.5), rng)
        for total, valid_len in ((32, 32), (32, 19)):
            self.check_rows(params, rng, total, valid_len, batch)

    def test_rows_match_decoder_step_at_odd_dimensions(self):
        rng = np.random.default_rng(7)
        params = init_params(5, 7, 9, 3, 41, np.full(41 - N_RESERVED, 0.5), rng)
        for batch in (1, 3, 10):
            self.check_rows(params, rng, 5, 5, batch)
            self.check_rows(params, rng, 5, 2, batch)

    @staticmethod
    def check_padded_row(params, rng, n, span):
        """Row 1 has a length-n source zero-padded to `span`, among rows of
        other queries; it must equal the one-sequence step on that source
        alone, as the multi-query beam needs."""
        vocab_n, embed_dim = params.lib_vocab_size, params.enc_fwd.w.shape[0]
        lengths = [span, n, *(int(m) for m in rng.integers(1, span + 1, size=3))]
        encs = [encode(Tensor(rng.normal(size=(m, embed_dim))), m, params.enc_fwd, params.enc_bwd) for m in lengths]
        keys = [attention_keys(enc, params.attn) for enc in encs]
        enc_rows = np.zeros((len(lengths), span, encs[0].shape[-1]))
        key_rows = np.zeros((len(lengths), span, keys[0].shape[-1]))
        for r, m in enumerate(lengths):
            enc_rows[r, :m], key_rows[r, :m] = encs[r].data, keys[r].data
        dec_hidden = params.init_b.shape[0]
        s, cell = rng.normal(size=(2, len(lengths), dec_hidden))
        ctx = rng.normal(size=(len(lengths), enc_rows.shape[-1]))
        masked = np.zeros((len(lengths), vocab_n), dtype=bool)
        masked[1, N_RESERVED] = True
        for prev in (np.full(len(lengths), BOS), rng.integers(N_RESERVED + 1, vocab_n, size=len(lengths))):
            batched = decoder_step(
                prev, Tensor(ctx), Tensor(s), Tensor(cell), Tensor(enc_rows), np.array(lengths), masked,
                params, keys=Tensor(key_rows),
            )
            single = decoder_step(
                int(prev[1]), Tensor(ctx[1]), Tensor(s[1]), Tensor(cell[1]), encs[1], n, {N_RESERVED}, params
            )
            for name, i in (("s", 0), ("cell", 1), ("context", 2), ("y", 4)):
                assert np.array_equal(batched[i].data[1], single[i].data), (name, n, span)

    def test_zero_padded_rows_among_other_queries_match_decoder_step(self):
        # the lengths about numpy's 8-wide pairwise sums and BLAS blocking
        rng = np.random.default_rng(200)
        vocab_n = 1003
        paper = init_params(200, 128, 128, 64, vocab_n, np.full(vocab_n - N_RESERVED, 0.5), rng)
        odd = init_params(5, 7, 9, 3, 41, np.full(41 - N_RESERVED, 0.5), rng)
        for params in (paper, odd):
            for n in (1, 7, 8, 9, 31, 32):
                for span in (n + 1, 40):
                    self.check_padded_row(params, rng, n, span)

    def test_invalid_rows_rejected(self):
        params = _synth.random_checkpoint(0).params
        enc_out = Tensor(np.ones((1, 2, 8)))
        keys = attention_keys(enc_out, params.attn)
        state = Tensor(np.zeros((1, 4))), Tensor(np.zeros((1, 4)))
        ctx = Tensor(np.zeros((1, 8)))

        def step(prev, masked):
            return decoder_step(np.array(prev), ctx, *state, enc_out, np.array([2]), masked, params, keys=keys)

        with pytest.raises(ValueError, match="whole"):
            step([BOS], np.ones((1, 8), dtype=bool))
        with pytest.raises(ValueError, match="out of vocabulary"):
            step([8], np.zeros((1, 8), dtype=bool))
        with pytest.raises(ValueError, match="shape"):
            step([BOS], np.zeros((2, 8), dtype=bool))


class TestBatchOfOne:
    """An int length marks one sequence: `encode`, `initial_decoder_state`
    and `decoder_step` run it as a batch of one and return row 0, with no
    tape only.  `attention_keys` takes no length: one sequence's keys are
    the rows of its batch of one."""

    @staticmethod
    def one_sequence(seed):
        params, rng = tiny_params(seed)
        x = Tensor(rng.normal(size=(4, 8)))
        enc_out = encode(x, 3, params.enc_fwd, params.enc_bwd)
        return params, x, enc_out, initial_decoder_state(enc_out, 3, params)

    def test_unbatched_calls_rejected_under_a_tape(self):
        from libsuggest.tensor import Tape

        params, x, enc_out, (s, cell, ctx) = self.one_sequence(16)
        calls = {
            "encode": lambda: encode(x, 3, params.enc_fwd, params.enc_bwd),
            "initial_decoder_state": lambda: initial_decoder_state(enc_out, 3, params),
            "decoder_step": lambda: decoder_step(BOS, ctx, s, cell, enc_out, 3, set(), params),
        }
        for name, call in calls.items():
            with Tape():
                with pytest.raises(ValueError, match=f"{name} takes a batch under a tape"):
                    call()
            call()

    def test_masked_id_outside_the_vocabulary_rejected(self):
        params, _, enc_out, (s, cell, ctx) = self.one_sequence(18)
        for bad in (-1, params.lib_vocab_size):
            with pytest.raises(ValueError, match=f"masked id {bad} out of vocabulary range"):
                decoder_step(BOS, ctx, s, cell, enc_out, 3, {N_RESERVED, bad}, params)

    def test_results_are_row_0_of_the_batch_of_one(self):
        params, x, enc_out, state = self.one_sequence(17)
        length, lift = np.array([3]), lambda t: Tensor(t.data[None])
        keys = attention_keys(enc_out, params.attn)
        pairs = [
            (enc_out, encode(lift(x), length, params.enc_fwd, params.enc_bwd)),
            (keys, attention_keys(lift(enc_out), params.attn)),
            *zip(state, initial_decoder_state(lift(enc_out), length, params)),
        ]
        s, cell, ctx = state
        for prev, mask in ((BOS, set()), (N_RESERVED + 1, {N_RESERVED + 1, N_RESERVED + 3})):
            row = np.zeros((1, params.lib_vocab_size), dtype=bool)
            row[0, list(mask)] = True
            one = decoder_step(prev, ctx, s, cell, enc_out, 3, mask, params, keys=keys)
            batch = decoder_step(
                np.array([prev]), lift(ctx), lift(s), lift(cell), lift(enc_out), length, row, params, keys=lift(keys)
            )
            pairs += zip(one, batch)
        for single, batched in pairs:
            assert single.shape == batched.shape[1:] and np.array_equal(single.data, batched.data[0])


class TestLibraryWeights:
    def test_two_libraries_direct(self):
        vocab = Vocabulary(["a", "b"])
        w = library_weights({"a": 1, "b": 3}, vocab)
        np.testing.assert_allclose(w, [0.75, 0.25], atol=1e-15)

    def test_uniform_frequencies(self):
        vocab = Vocabulary([f"l{i}" for i in range(5)])
        w = library_weights({f"l{i}": 7 for i in range(5)}, vocab)
        np.testing.assert_allclose(w, np.full(5, 0.8), atol=1e-15)

    def test_weights_sum_to_n_minus_one(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            n = int(rng.integers(2, 12))
            vocab = Vocabulary([f"l{i}" for i in range(n)])
            freq = {f"l{i}": int(rng.integers(1, 50)) for i in range(n)}
            w = library_weights(freq, vocab)
            assert abs(w.sum() - (n - 1)) <= 1e-9
            assert ((w > 0) & (w < 1)).all()

    def test_single_library_rejected(self):
        with pytest.raises(ValueError, match="two"):
            library_weights({"solo": 5}, Vocabulary(["solo"]))

    @pytest.mark.parametrize("freq", [{"a": 2}, {"a": 2, "b": 0}])
    def test_library_without_a_count_named(self, freq):
        with pytest.raises(ValueError, match="library 'b'"):
            library_weights(freq, Vocabulary(["a", "b"]))


class TestSequenceLoss:
    def test_single_target_half_probability(self):
        y = Tensor([[0.25, 0.25, 0.5]])
        w = np.array([1.0] * 3)
        loss = sequence_loss([y], [[2]], w)
        assert math.isclose(loss.item(), -math.log(0.5), rel_tol=1e-12)

    def test_perfect_prediction_zero_loss(self):
        y_lib = np.zeros(6)
        y_lib[4] = 1.0
        y_eos = np.zeros(6)
        y_eos[EOS_ID] = 1.0
        w = np.full(3, 0.5)
        loss = sequence_loss([Tensor(y_lib[None]), Tensor(y_eos[None])], [[4], [EOS_ID]], w)
        assert loss.item() == 0.0

    def test_doubling_weights_doubles_library_terms(self):
        rng = np.random.default_rng(4)
        probs = rng.dirichlet(np.ones(6))
        y = Tensor(probs[None])
        w = np.array([0.3, 0.5, 0.7])
        single = sequence_loss([y], [[4]], w).item()
        double = sequence_loss([y], [[4]], 2 * w).item()
        assert math.isclose(double, 2 * single, rel_tol=1e-12)

    def test_eos_uses_weight_one(self):
        probs = np.full(6, 1 / 6)
        loss = sequence_loss([Tensor(probs[None])], [[EOS_ID]], np.full(3, 123.0)).item()
        assert math.isclose(loss, -math.log(1 / 6), rel_tol=1e-12)

    def test_zero_probability_target_raises(self):
        y = np.zeros(6)
        y[3] = 1.0
        with pytest.raises(ValueError, match="zero probability"):
            sequence_loss([Tensor(y[None])], [[4]], np.full(3, 0.5))

    def test_pad_target_rejected(self):
        with pytest.raises(ValueError, match="PAD/UNK"):
            sequence_loss([Tensor(np.full((1, 6), 1 / 6))], [[PAD_ID]], np.full(3, 0.5))

    def test_loss_nonnegative_equality_iff_perfect(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            probs = rng.dirichlet(np.ones(6) * rng.uniform(0.5, 3))
            loss = sequence_loss([Tensor(probs[None])], [[5]], np.full(3, 0.9)).item()
            assert loss >= 0.0
            assert (loss == 0.0) == (probs[5] == 1.0)


class TestGoldenForward:
    """Pins the decoder ordering (state from previous context, then fresh
    attention, then readout) via frozen values at a fixed seed."""

    def build(self):
        rng = np.random.default_rng(3)
        weights = np.full(4, 0.75)
        params = init_params(3, 2, 2, 2, 4 + N_RESERVED, weights, rng)
        x = Tensor(rng.normal(size=(4, 3)))
        return params, x

    def test_two_step_probabilities(self):
        params, x = self.build()
        enc_out = encode(x, 3, params.enc_fwd, params.enc_bwd)
        s, cell, ctx = initial_decoder_state(enc_out, 3, params)
        s1, c1, ctx1, _, y1 = decoder_step(BOS, ctx, s, cell, enc_out, 3, set(), params)
        *_, y2 = decoder_step(4, ctx1, s1, c1, enc_out, 3, {4}, params)
        np.testing.assert_allclose(
            y1.data,
            [0.14264544606447987, 0.14271151856396325, 0.14316282919395973,
             0.14168076085761028, 0.14317613397460022, 0.14293953934405984,
             0.14368377200132681],
            rtol=0, atol=1e-15,
        )
        np.testing.assert_allclose(
            y2.data,
            [0.1664917906622572, 0.16656470885049224, 0.1670627300980169,
             0.16542694573007996, 0.0, 0.16681634046559574, 0.16763748419355806],
            rtol=0, atol=1e-15,
        )

    def test_example_loss_value(self):
        params, x = self.build()
        loss = example_loss(x, 3, [4, 6, EOS_ID], params)
        assert math.isclose(loss.item(), 4.4039981039714045, rel_tol=0, abs_tol=1e-12)


def random_batch(rng, params, source_lengths, target_lengths, total):
    """Embedded sources [B x total x dim] with junk past each length, and
    distinct library targets ending in EOS."""
    vocab_n, embed_dim = params.lib_vocab_size, params.enc_fwd.w.shape[0]
    x = rng.normal(size=(len(source_lengths), total, embed_dim))
    for row, n in zip(x, source_lengths):
        row[n:] *= 50.0
    targets = [
        [int(i) for i in rng.choice(np.arange(N_RESERVED, vocab_n), size=n - 1, replace=False)] + [EOS_ID]
        for n in target_lengths
    ]
    return x, np.array(source_lengths), targets


def odd_params(seed):
    rng = np.random.default_rng(seed)
    params = init_params(5, 7, 9, 3, 14, np.linspace(0.2, 0.9, 14 - N_RESERVED), rng)
    return params, rng


class TestBatchLoss:
    """`batch_loss` against a reference built from batches of one,
    example by example."""

    def reference(self, params, x, lengths, targets):
        from libsuggest.tensor import add

        total = None
        for row, n, target in zip(x, lengths, targets):
            length = np.array([n])
            enc_out = encode(Tensor(row[None]), length, params.enc_fwd, params.enc_bwd)
            s, cell, ctx = initial_decoder_state(enc_out, length, params)
            probs, mask, prev = [], np.zeros((1, params.lib_vocab_size), dtype=bool), BOS
            for t in target:
                s, cell, ctx, _, y = decoder_step(np.array([prev]), ctx, s, cell, enc_out, length, mask.copy(), params)
                probs.append(y)
                if t != EOS_ID:
                    mask[0, t] = True
                prev = t
            loss = sequence_loss(probs, [[t] for t in target], params.class_weights)
            total = loss if total is None else add(total, loss)
        return total

    def gradients(self, params, f):
        from libsuggest.tensor import Tape, backward

        with Tape() as tape:
            loss = f()
        backward(tape, loss)
        return loss.item(), {name: tape.gradient(p) for name, p in named_parameters(params).items()}

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_loss_and_every_gradient_match_the_per_example_reference(self, seed):
        # equal-length targets keep their order; sources of lengths T, 1
        # and in between; every row's junk past its length must not leak
        params, rng = odd_params(seed)
        x, lengths, targets = random_batch(rng, params, [6, 1, 3, 6, 2], [5, 4, 4, 2, 1], 6)
        got, got_grads = self.gradients(params, lambda: batch_loss(x, lengths, targets, params))
        want, want_grads = self.gradients(params, lambda: self.reference(params, x, lengths, targets))
        assert abs(got - want) <= 1e-10 * abs(want)
        for name, want_g in want_grads.items():
            scale = np.abs(want_g).max()
            assert np.abs(got_grads[name] - want_g).max() <= 1e-10 * scale, name

    def test_passes_fd_audit_at_odd_dimensions(self):
        params, rng = odd_params(3)
        x, lengths, targets = random_batch(rng, params, [4, 1, 2], [3, 3, 1], 4)
        err = finite_difference_check(lambda: batch_loss(x, lengths, targets, params), named_parameters(params))
        assert err < 1e-4

    def test_padded_source_positions_get_zero_gradient(self):
        params, rng = odd_params(4)
        x, lengths, targets = random_batch(rng, params, [5, 1, 3], [3, 2, 2], 5)
        junk = x.copy()
        junk[0, 5:], junk[1, 1:], junk[2, 3:] = 0.0, -7.0, 1e3
        (loss, grads), (junk_loss, junk_grads) = (
            self.gradients(params, lambda: batch_loss(source, lengths, targets, params)) for source in (x, junk)
        )
        assert junk_loss == loss
        # what the sources hold past their lengths reaches no weight gradient
        for name, g in grads.items():
            assert junk_grads[name].tobytes() == g.tobytes(), name

    def test_example_loss_is_the_batch_of_one(self):
        params, rng = odd_params(5)
        x, lengths, targets = random_batch(rng, params, [3], [4], 5)
        one = example_loss(Tensor(x[0]), 3, targets[0], params).item()
        assert one == batch_loss(x, lengths, targets, params).item()

    def test_rows_come_in_any_order(self):
        # target lengths with ties and distinct values; a permutation sums
        # the tied rows in another order, so equal to rounding only
        params, rng = odd_params(6)
        x, lengths, targets = random_batch(rng, params, [3, 1, 2, 3], [2, 3, 2, 4], 3)
        want, want_grads = self.gradients(params, lambda: batch_loss(x, lengths, targets, params, 0.0))
        for order in map(list, itertools.permutations(range(4))):
            got, got_grads = self.gradients(
                params, lambda: batch_loss(x[order], lengths[order], [targets[i] for i in order], params, 0.0)
            )
            assert abs(got - want) <= 1e-12 * abs(want), order
            for name, want_g in want_grads.items():
                assert np.abs(got_grads[name] - want_g).max() <= 1e-12 * np.abs(want_g).max(), (order, name)
        with pytest.raises(ValueError, match="do not fit"):
            batch_loss(x, lengths[:1], targets, params)


class TestFullModelGradients:
    # The fd oracle probes in extended precision, so its rounding noise is
    # far below the 1e-8 denominator floor and even coordinates with
    # |grad| ~ 1e-9 (attn.w_a) are resolved.  Acceptance 1's tolerance
    # applies; a backward rule off by 0.1% shows errors near 1e-3.
    def test_every_parameter_tensor_matches_fd_oracle(self):
        for seed in (0, 1, 2):
            params, rng = tiny_params(seed)
            x = Tensor(rng.normal(size=(3, 8)))
            targets = [int(rng.integers(N_RESERVED, 9)), EOS_ID]
            f = lambda: example_loss(x, 3, targets, params)
            err = finite_difference_check(f, named_parameters(params))
            assert err < 1e-4, f"seed {seed}: max relative error {err}"

    def test_small_gradient_coordinates_agree_at_wider_step(self):
        # at eps=1e-3 the O(eps^2) truncation error is 100x that at 1e-4
        # (about 3e-5 relative here), so agreement within 1e-3 shows the
        # small coordinates of seed 2 match at a second step size, not
        # only at the default one
        params, rng = tiny_params(2)
        x = Tensor(rng.normal(size=(3, 8)))
        targets = [int(rng.integers(N_RESERVED, 9)), EOS_ID]
        f = lambda: example_loss(x, 3, targets, params)
        err = finite_difference_check(f, named_parameters(params), epsilon=1e-3)
        assert err < 1e-3, f"max relative error {err}"


def test_paper_scale_example_op_and_tape_record_counts(monkeypatch):
    """At this scale the cost is per Python-level op, so the counts of one
    32-example paper-scale batch are pinned: embed 200, hidden 128,
    V=1000, 32 source rows each, targets of 16 down to 1 positions (two
    rows each).  One example of 32 source rows and 16 targets took 325
    tape records and 342 op calls when training looped over examples; a
    fall back to a per-example loop would multiply the batch's counts."""
    from collections import Counter

    from libsuggest import model, tensor
    from libsuggest.tensor import Tape

    rng = np.random.default_rng(0)
    vocab_n = 1000
    params = init_params(200, 128, 128, 64, vocab_n, np.full(vocab_n - N_RESERVED, 0.5), rng)
    x = rng.normal(size=(32, 32, 200))
    targets = [
        [int(t) for t in rng.choice(np.arange(N_RESERVED, vocab_n), size=15 - b // 2, replace=False)] + [EOS_ID]
        for b in range(32)
    ]
    calls = Counter()

    def counted(name, op):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return op(*args, **kwargs)

        return wrapper

    for name in tensor.__all__:
        if name not in ("Tensor", "Tape") and getattr(model, name, None) is getattr(tensor, name):
            monkeypatch.setattr(model, name, counted(name, getattr(tensor, name)))
    with Tape() as tape:
        batch_loss(x, np.full(32, 32), targets, params)
    assert (len(tape), sum(calls.values())) == (338, 355), (len(tape), calls)
    assert len(tape) < 32 * 325 and sum(calls.values()) < 32 * 342
    assert calls["bilstm"] == 1 and calls["lstm_cell"] == 16
