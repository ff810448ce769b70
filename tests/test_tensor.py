import math

import numpy as np
import pytest

from libsuggest.tensor import (
    Tape,
    Tensor,
    _sigmoid,
    add,
    backward,
    bilstm,
    concat_rows,
    dropout,
    einsum,
    finite_difference_check,
    log,
    lstm_cell,
    masked_softmax,
    matmul,
    relu,
    scale,
    sum_all,
    take,
    tanh,
)


class TestMatmul:
    def test_identity(self):
        eye = Tensor(np.eye(2))
        b = Tensor([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
        np.testing.assert_array_equal(matmul(eye, b).data, b.data)

    def test_direct_product(self):
        a = Tensor([[1.0, 2.0], [3.0, 4.0]])
        b = Tensor([[1.0], [1.0]])
        np.testing.assert_array_equal(matmul(a, b).data, [[3.0], [7.0]])

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 3))))

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(5)
        a = Tensor(rng.normal(size=(3, 4)))
        b = Tensor(rng.normal(size=(4, 2)))
        err = finite_difference_check(lambda: sum_all(matmul(a, b)), [a, b])
        assert err < 1e-5

    def test_vector_cases(self):
        # a vector times a matrix; a vector `b` is a contraction for einsum
        m = Tensor([[1.0, 2.0], [3.0, 4.0]])
        v = Tensor([1.0, 1.0])
        np.testing.assert_array_equal(matmul(v, m).data, [4.0, 6.0])
        np.testing.assert_array_equal(einsum("ij,j->i", m, v).data, [3.0, 7.0])
        with pytest.raises(ValueError, match="mismatch"):
            matmul(m, v)


class TestEinsum:
    """The contractions attention sums over source positions with."""

    def test_attention_contractions_pass_fd_audit(self):
        rng = np.random.default_rng(3)
        for lead in ((), (3,)):
            b = "b" if lead else ""
            t = Tensor(rng.normal(size=lead + (4, 5)))
            v = Tensor(rng.normal(size=5))
            values = Tensor(rng.normal(size=lead + (4, 2)))
            f = lambda: sum_all(tanh(einsum(f"{b}s,{b}sh->{b}h", tanh(einsum(f"{b}sa,a->{b}s", t, v)), values)))
            assert finite_difference_check(f, [t, v, values], max_coords_per_tensor=1000) < 1e-5

    def test_zero_terms_appended_to_the_summed_axis_keep_the_bits(self):
        rng = np.random.default_rng(4)
        for n in (1, 7, 8, 9, 31, 32):
            alpha, values = rng.random(n), rng.normal(size=(n, 256))
            alone = einsum("s,sh->h", Tensor(alpha), Tensor(values)).data
            padded_alpha, padded_values = np.zeros((5, 40)), np.zeros((5, 40, 256))
            padded_alpha[2, :n], padded_values[2, :n] = alpha, values
            out = einsum("bs,bsh->bh", Tensor(padded_alpha), Tensor(padded_values)).data
            assert np.array_equal(out[2], alone), n

    @pytest.mark.parametrize("subscripts", ["ij,j", "ij,jk->il", "ii,i->i", "ij,k->i", "ij,j->", "i,ij->j"])
    def test_subscripts_validated(self, subscripts):
        with pytest.raises(ValueError):
            einsum(subscripts, Tensor(np.ones((2, 2))), Tensor(np.ones(2)))


class TestConstruction:
    @pytest.mark.parametrize(
        "data", [3, np.arange(4), np.ones(3, dtype=np.float32), [1, 2.5], [[1.0], [2.0]]]
    )
    def test_other_input_becomes_float64(self, data):
        t = Tensor(data)
        assert t.data.dtype == np.float64
        np.testing.assert_array_equal(t.data, np.asarray(data, dtype=np.float64))

    def test_float64_array_is_kept_without_copy(self):
        d = np.ones(3)
        assert Tensor(d).data is d

    def test_longdouble_is_kept(self):
        d = np.ones(3, dtype=np.longdouble)
        assert Tensor(d).data is d
        assert Tensor(d.sum()).data.dtype == np.longdouble


class TestElementwise:
    def test_relu_definition(self):
        np.testing.assert_array_equal(relu(Tensor([-1.0, 0.0, 2.0])).data, [0.0, 0.0, 2.0])

    def test_tanh_sigmoid_at_zero(self):
        assert tanh(Tensor(0.0)).item() == 0.0
        assert _sigmoid(np.array(0.0)) == 0.5

    def test_sigmoid_extreme_arguments_stay_finite(self):
        # the LSTM gates' sigmoid
        out = _sigmoid(np.array([-1e4, 1e4]))
        assert np.isfinite(out).all()
        assert out[0] == 0.0 and out[1] == 1.0

    def test_concat_rejects_vectors(self):
        with pytest.raises(ValueError, match="matrices"):
            concat_rows(Tensor([1.0, 2.0]), Tensor([3.0]))
        with pytest.raises(ValueError, match="matrices"):
            concat_rows(Tensor(np.ones((2, 1))), Tensor(np.ones((3, 1))))

    def test_concat_matrices_along_last_axis(self):
        a = Tensor([[1.0], [2.0]])
        b = Tensor([[3.0, 4.0], [5.0, 6.0]])
        np.testing.assert_array_equal(concat_rows(a, b).data, [[1.0, 3.0, 4.0], [2.0, 5.0, 6.0]])

    def test_add_broadcast_bias_over_rows(self):
        m = Tensor(np.zeros((2, 3)))
        bias = Tensor([1.0, 2.0, 3.0])
        np.testing.assert_array_equal(add(m, bias).data, [[1.0, 2.0, 3.0], [1.0, 2.0, 3.0]])

    def test_slicing_ops(self):
        m = Tensor([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
        np.testing.assert_array_equal(take(m, slice(1, 3)).data, [[3.0, 4.0], [5.0, 6.0]])
        np.testing.assert_array_equal(take(m, 0).data, [1.0, 2.0])
        v = Tensor([7.0, 8.0, 9.0])
        np.testing.assert_array_equal(take(v, slice(1, 3)).data, [8.0, 9.0])
        assert take(v, 2).item() == 9.0


class TestMaskedSoftmax:
    def test_unmasked_direct_values(self):
        logits = Tensor([[math.log(2.0), math.log(1.0), math.log(1.0)]])
        out = masked_softmax(logits, np.zeros((1, 3), dtype=bool))
        np.testing.assert_allclose(out.data, [[0.5, 0.25, 0.25]], atol=1e-15)

    def test_masked_position_exactly_zero_and_renormalized(self):
        logits = Tensor([[math.log(2.0), 0.0, 0.0]])
        out = masked_softmax(logits, np.array([[True, False, False]]))
        assert out.data[0, 0] == 0.0
        np.testing.assert_allclose(out.data, [[0.0, 0.5, 0.5]], atol=1e-15)

    def test_uniform_logits_give_uniform_output(self):
        out = masked_softmax(Tensor(np.full((1, 5), 3.7)), np.zeros((1, 5), dtype=bool))
        np.testing.assert_allclose(out.data, np.full((1, 5), 0.2), atol=1e-15)

    def test_all_masked_raises(self):
        with pytest.raises(ValueError, match="masked"):
            masked_softmax(Tensor([[1.0, 2.0]]), np.array([[True, True]]))

    def test_mask_entries_validated(self):
        # a mask holds booleans; the 0/-inf float form is gone
        with pytest.raises(ValueError, match="boolean mask"):
            masked_softmax(Tensor([[1.0, 2.0]]), np.array([[0.0, -np.inf]]))
        with pytest.raises(ValueError, match="matrix"):
            masked_softmax(Tensor([1.0, 2.0]), np.array([False, False]))

    def test_sums_to_one_with_random_masks(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            n = int(rng.integers(2, 9))
            logits = Tensor(rng.normal(size=(1, n)) * 5)
            masked = rng.random((1, n)) < 0.4
            if masked.all():
                masked[0, 0] = False
            out = masked_softmax(logits, masked).data
            assert abs(out.sum() - 1.0) <= 1e-9
            assert (out >= 0).all()
            assert (out[masked] == 0.0).all()

    def test_sequential_sum_ignores_masked_positions_appended(self):
        rng = np.random.default_rng(12)
        for n in (1, 7, 8, 9, 31, 32):
            logits = rng.normal(size=(1, n)) * 3
            alone = masked_softmax(Tensor(logits), np.zeros((1, n), dtype=bool), sequential=True).data[0]
            padded = np.concatenate([logits[0], rng.normal(size=40 - n)])
            mask = np.arange(40) >= n
            rows = masked_softmax(Tensor(np.stack([padded] * 3)), np.stack([mask] * 3), sequential=True).data
            assert np.array_equal(rows[1, :n], alone) and (rows[1, n:] == 0.0).all(), n


class TestBackward:
    def test_sum_gradient_is_ones(self):
        p = Tensor(np.arange(6.0).reshape(2, 3))
        with Tape() as tape:
            loss = sum_all(p)
        backward(tape, loss)
        np.testing.assert_array_equal(tape.gradient(p), np.ones((2, 3)))

    def test_parameter_used_twice_doubles_gradient(self):
        p = Tensor([1.0, 2.0])
        with Tape() as tape:
            loss = sum_all(add(p, p))
        backward(tape, loss)
        np.testing.assert_array_equal(tape.gradient(p), [2.0, 2.0])

    def test_loss_must_be_scalar(self):
        p = Tensor([1.0, 2.0])
        with Tape() as tape:
            out = add(p, p)
        with pytest.raises(ValueError, match="scalar"):
            backward(tape, out)

    def test_loss_must_be_on_tape(self):
        p = Tensor([1.0])
        with Tape() as tape:
            sum_all(p)
        stray = Tensor(3.0)
        with pytest.raises(ValueError, match="on this tape"):
            backward(tape, stray)

    def test_loss_computed_with_no_tape_is_rejected(self):
        p = Tensor([1.0, 2.0])
        with Tape() as tape:
            sum_all(tanh(p))
        loss = sum_all(tanh(p))
        with pytest.raises(ValueError, match="loss was not produced on this tape"):
            backward(tape, loss)
        assert tape.gradient(p) is None

    def test_loss_computed_on_another_tape_is_rejected(self):
        p = Tensor([1.0, 2.0])
        with Tape() as other:
            loss = sum_all(tanh(p))
        with Tape() as tape:
            add(loss, sum_all(p))
        with pytest.raises(ValueError, match="loss was not produced on this tape"):
            backward(tape, loss)
        assert tape.gradient(p) is None
        backward(other, loss)
        np.testing.assert_allclose(other.gradient(p), 1.0 - np.tanh([1.0, 2.0]) ** 2)

    def test_backward_deterministic(self):
        rng = np.random.default_rng(0)
        p = Tensor(rng.normal(size=(3, 3)))
        grads = []
        for _ in range(2):
            with Tape() as tape:
                loss = sum_all(tanh(matmul(p, p)))
            backward(tape, loss)
            grads.append(tape.gradient(p).copy())
        assert grads[0].tobytes() == grads[1].tobytes()

    def test_nested_tapes_rejected(self):
        with Tape():
            with pytest.raises(RuntimeError, match="already active"):
                with Tape():
                    pass

    def test_no_tape_means_plain_numpy(self):
        out = tanh(add(Tensor([1.0]), Tensor([2.0])))
        assert out.shape == (1,)


class TestDropout:
    def test_identity_outside_training(self):
        x = Tensor([1.0, 2.0, 3.0])
        assert dropout(x, 0.0) is x
        assert dropout(x, 0.0, np.random.default_rng(0)) is x

    def test_kept_units_scaled(self):
        x = Tensor(np.ones(10_000))
        out = dropout(x, 0.25, np.random.default_rng(8)).data
        kept = out != 0.0
        np.testing.assert_allclose(out[kept], 1.0 / 0.75)
        assert abs(kept.mean() - 0.75) < 0.02

    def test_invalid_probability(self):
        with pytest.raises(ValueError):
            dropout(Tensor([1.0]), 1.0, np.random.default_rng(0))

    def test_gradient_uses_same_mask(self):
        x = Tensor(np.ones(50))
        err = finite_difference_check(
            lambda: sum_all(dropout(x, 0.4, np.random.default_rng(3))), [x]
        )
        assert err < 1e-7


class TestFiniteDifferenceCheck:
    def test_quadratic_form(self):
        rng = np.random.default_rng(2)
        q = rng.normal(size=(4, 4))
        x = Tensor(rng.normal(size=4))
        f = lambda: sum_all(einsum("i,i->i", matmul(x, Tensor(q)), x))
        err = finite_difference_check(f, [x])
        assert err < 1e-7

    def test_constant_function_zero_error(self):
        x = Tensor([1.0, 2.0])
        c = Tensor(5.0)
        err = finite_difference_check(lambda: sum_all(add(c, c)), [x])
        assert err == 0.0

    def test_nondeterministic_f_detected(self):
        rng = np.random.default_rng(0)
        x = Tensor([1.0])
        f = lambda: scale(sum_all(x), rng.random())
        with pytest.raises(ValueError, match="deterministic"):
            finite_difference_check(f, [x])

    def test_epsilon_validated(self):
        with pytest.raises(ValueError):
            finite_difference_check(lambda: Tensor(0.0), [], epsilon=0.0)

    def test_resolves_gradients_below_denominator_floor(self):
        # |loss| ~ 4 and |grad| ~ 2e-9: float64 probes give 2.8e-4 here
        x = Tensor(np.random.default_rng(0).normal(size=5))
        f = lambda: add(Tensor(4.0), scale(sum_all(einsum("i,i->i", x, x)), 1e-9))
        assert finite_difference_check(f, [x]) < 1e-4

    def test_parameters_left_as_found(self):
        rng = np.random.default_rng(1)
        a, b = Tensor(rng.normal(size=(2, 3))), Tensor(rng.normal(size=(3, 2)))
        arrays = [a.data, b.data]
        before = [d.tobytes() for d in arrays]
        finite_difference_check(lambda: sum_all(tanh(matmul(a, b))), [a, b])
        for t, d, raw in zip((a, b), arrays, before):
            assert t.data is d and t.data.dtype == np.float64 and d.tobytes() == raw

    def test_parameters_restored_when_f_raises(self):
        x = Tensor([0.5, -1.5])
        array, raw = x.data, x.data.tobytes()
        calls = []

        def f():
            # two determinism evaluations and the taped pass, then a probe
            calls.append(None)
            if len(calls) > 3:
                raise RuntimeError("probe failed")
            return sum_all(einsum("i,i->i", x, x))

        with pytest.raises(RuntimeError, match="probe failed"):
            finite_difference_check(f, [x])
        assert x.data is array and x.data.dtype == np.float64 and array.tobytes() == raw


def _random_op_case(rng):
    """One random differentiable composition over small shapes (extents <= 5)."""
    kind = rng.integers(0, 10)
    if kind == 0:
        a = Tensor(rng.normal(size=(rng.integers(1, 6), rng.integers(1, 6))))
        b = Tensor(rng.normal(size=(a.shape[1], rng.integers(1, 6))))
        return [a, b], lambda: sum_all(tanh(matmul(a, b)))
    if kind == 1:
        a = Tensor(rng.normal(size=(rng.integers(1, 6),)))
        b = Tensor(rng.normal(size=a.shape))
        return [a, b], lambda: sum_all(einsum("i,i->i", tanh(a), tanh(b)))
    if kind == 2:
        m = Tensor(rng.normal(size=(rng.integers(1, 6), rng.integers(1, 6))))
        bias = Tensor(rng.normal(size=(m.shape[1],)))
        return [m, bias], lambda: sum_all(relu(add(m, bias)))
    if kind == 3:
        parts = [Tensor(rng.normal(size=(1, rng.integers(1, 4)))) for _ in range(3)]
        return parts, lambda: sum_all(tanh(concat_rows(*parts)))
    if kind == 4:
        m = Tensor(rng.normal(size=(3, 4)))
        return [m], lambda: sum_all(tanh(take(m, (2, slice(1, 4)))))
    if kind == 5:
        m = Tensor(rng.normal(size=(5, 3)))
        return [m], lambda: sum_all(einsum("ij,ij->ij", take(m, slice(1, 4)), take(m, slice(1, 4))))
    if kind == 6:
        v = Tensor(rng.normal(size=(5,)))
        return [v], lambda: add(take(tanh(v), 2), sum_all(take(v, slice(1, 4))))
    if kind == 7:
        v = Tensor(rng.normal(size=(1, 4)) * 2)
        n = v.shape[1]
        mask = np.zeros((1, n), dtype=bool)
        mask[0, int(rng.integers(0, n))] = True
        picked = int(rng.integers(0, n))
        if mask[0, picked]:
            picked = (picked + 1) % n
        return [v], lambda: log(take(masked_softmax(v, mask), (0, picked)))
    if kind == 8:
        v = Tensor(rng.uniform(0.5, 2.0, size=(4,)))
        return [v], lambda: sum_all(log(v))
    m = Tensor(rng.normal(size=(3, 3)))
    return [m], lambda: scale(sum_all(matmul(take(m, 0), m)), 0.7)


def test_every_op_passes_fd_check_on_random_small_shapes():
    worst = 0.0
    for seed in range(100):
        rng = np.random.default_rng(seed)
        params, f = _random_op_case(rng)
        err = finite_difference_check(f, params)
        worst = max(worst, err)
    assert worst < 1e-4, f"worst relative error {worst}"


class TestTake:
    def test_row_range_component_and_tuple_index(self):
        m = Tensor(np.arange(12.0).reshape(3, 4))
        np.testing.assert_array_equal(take(m, (2, slice(1, 3))).data, [9.0, 10.0])
        assert take(m, (1, 2)).item() == 6.0

    @pytest.mark.parametrize(
        "index", [3, -1, slice(2, 2), slice(0, 4), slice(None, 2), slice(0, 2, 1 + 1), (0, 0, 0)]
    )
    def test_out_of_range_index_rejected(self, index):
        with pytest.raises(ValueError):
            take(Tensor(np.zeros((3, 2))), index)

    def test_repeated_rows_accumulate_their_gradients(self):
        emb = Tensor(np.arange(6.0).reshape(3, 2))
        with Tape() as tape:
            loss = add(add(sum_all(take(emb, 1)), sum_all(take(emb, 1))), sum_all(take(emb, slice(0, 2))))
        backward(tape, loss)
        np.testing.assert_array_equal(tape.gradient(emb), [[1.0, 1.0], [3.0, 3.0], [0.0, 0.0]])

    def test_scatter_leaves_a_shared_gradient_alone(self):
        # add hands one gradient array to both operands; the scatter into
        # one of them must not write into the other's
        v = Tensor([1.0, 2.0, 3.0])
        w = Tensor([4.0, 5.0, 6.0])
        with Tape() as tape:
            s = add(v, w)
            loss = add(sum_all(einsum("i,i->i", s, s)), take(v, 0))
        backward(tape, loss)
        np.testing.assert_array_equal(tape.gradient(w), 2.0 * (v.data + w.data))
        np.testing.assert_array_equal(tape.gradient(v), 2.0 * (v.data + w.data) + [1.0, 0.0, 0.0])


class TestDeferredLeafGradients:
    """A leaf matrix used by many products, vector and matrix ones, gets
    the sum of their gradients, accumulated in place on the tape."""

    def test_leaf_used_by_vector_and_matrix_products(self):
        rng = np.random.default_rng(0)
        w = Tensor(rng.normal(size=(3, 4)))
        v, m = Tensor(rng.normal(size=3)), Tensor(rng.normal(size=(2, 3)))
        f = lambda: add(sum_all(tanh(matmul(v, w))), sum_all(tanh(matmul(m, w))))
        with Tape() as tape:
            loss = f()
        backward(tape, loss)
        gv = 1.0 - np.tanh(v.data @ w.data) ** 2
        gm = 1.0 - np.tanh(m.data @ w.data) ** 2
        np.testing.assert_allclose(tape.gradient(w), np.outer(v.data, gv) + m.data.T @ gm, rtol=1e-14)
        assert finite_difference_check(f, [w, v, m]) < 1e-7

    def test_leaf_used_by_many_vector_products(self):
        rng = np.random.default_rng(1)
        w = Tensor(rng.normal(size=(4, 3)))
        xs = [Tensor(rng.normal(size=4)) for _ in range(5)]

        def f():
            total = sum_all(tanh(matmul(xs[0], w)))
            for x in xs[1:]:
                total = add(total, sum_all(tanh(matmul(x, w))))
            return total

        with Tape() as tape:
            loss = f()
        backward(tape, loss)
        expected = sum(np.outer(x.data, 1.0 - np.tanh(x.data @ w.data) ** 2) for x in xs)
        np.testing.assert_allclose(tape.gradient(w), expected, rtol=1e-14)

    def test_non_leaf_matrix_is_not_deferred(self):
        # the product's gradient must reach w2 before einsum's backward reads it
        rng = np.random.default_rng(2)
        w = Tensor(rng.normal(size=(3, 4)))
        v = Tensor(rng.normal(size=3))
        f = lambda: sum_all(tanh(matmul(v, einsum("ij,ij->ij", w, w))))
        with Tape() as tape:
            loss = f()
        backward(tape, loss)
        g = 1.0 - np.tanh(v.data @ (w.data * w.data)) ** 2
        np.testing.assert_allclose(tape.gradient(w), 2.0 * w.data * np.outer(v.data, g), rtol=1e-14)
        assert finite_difference_check(f, [w, v]) < 1e-7

    def test_fresh_tapes_share_no_state(self):
        rng = np.random.default_rng(3)
        w = Tensor(rng.normal(size=(3, 2)))
        v = Tensor(rng.normal(size=3))
        grads = []
        for _ in range(2):
            with Tape() as tape:
                loss = sum_all(matmul(v, w))
            backward(tape, loss)
            grads.append(tape.gradient(w))
        backward(tape, loss)  # a second sweep over the same tape starts afresh
        grads.append(tape.gradient(w))
        for g in grads:
            np.testing.assert_array_equal(g, np.outer(v.data, np.ones(2)))


class TestBatchedOps:
    """The batch forms of the ops: leading axes as rows, one matrix per
    row, a broadcast along the second-to-last axis, array indices that
    may repeat, and a softmax per row."""

    def test_compositions_pass_fd_audit(self):
        rng = np.random.default_rng(0)
        keys = Tensor(rng.normal(size=(3, 4, 5)))
        query = Tensor(rng.normal(size=(3, 5)))
        v = Tensor(rng.normal(size=5))
        values = Tensor(rng.normal(size=(3, 4, 2)))
        w = Tensor(rng.normal(size=(2, 6)))
        emb = Tensor(rng.normal(size=(5, 2)))
        readout = Tensor(rng.normal(size=(3, 6)))
        mask = np.zeros((3, 4), dtype=bool)
        mask[1, 2:] = mask[2, 0] = True

        def f():
            alpha = masked_softmax(einsum("bsa,a->bs", tanh(add(keys, query)), v), mask, sequential=True)
            rows = add(einsum("bs,bsh->bh", alpha, values), take(emb, np.array([1, 3, 1])))
            y = masked_softmax(matmul(rows, w), np.zeros((3, 6), dtype=bool))
            picked = log(take(y, (np.arange(3), np.array([5, 0, 2]))))
            lifted = sum_all(tanh(matmul(values, w)))
            return add(add(sum_all(einsum("bn,bn->bn", tanh(matmul(rows, w)), readout)), sum_all(picked)), lifted)

        params = [keys, query, v, values, w, emb]
        assert finite_difference_check(f, params, max_coords_per_tensor=1000) < 1e-4

    def test_forward_definitions(self):
        rng = np.random.default_rng(1)
        a, b = rng.normal(size=(3, 4)), rng.normal(size=(3, 4, 2))
        np.testing.assert_allclose(einsum("bk,bkn->bn", Tensor(a), Tensor(b)).data, np.einsum("bk,bkn->bn", a, b), rtol=1e-14)
        row = rng.normal(size=2)
        np.testing.assert_array_equal(add(Tensor(b), Tensor(np.tile(row, (3, 1)))).data, b + row)
        logits = rng.normal(size=(3, 6))
        mask = rng.random((3, 6)) < 0.4
        mask[:, 0] = False
        y = masked_softmax(Tensor(logits), mask).data
        for r in range(3):
            expected = masked_softmax(Tensor(logits[r : r + 1]), mask[r : r + 1]).data[0]
            np.testing.assert_allclose(y[r], expected, rtol=1e-14, atol=0)
            assert (y[r][mask[r]] == 0.0).all()
        with pytest.raises(ValueError, match="all positions"):
            masked_softmax(Tensor(logits), np.ones((3, 6), dtype=bool))
        with pytest.raises(ValueError):
            einsum("bk,bkn->bn", Tensor(a), Tensor(rng.normal(size=(2, 4, 2))))
        with pytest.raises(ValueError, match="mismatch"):
            add(Tensor(b), Tensor(np.ones((4, 2))))

    @pytest.mark.parametrize("index", [np.array([0, 3]), np.array([-1]), np.array([[0]]), np.array([0.0])])
    def test_bad_index_arrays_rejected(self, index):
        with pytest.raises(ValueError):
            take(Tensor(np.zeros((3, 2))), index)


def _cell(rng, input_size, hidden):
    return tuple(
        Tensor(rng.normal(size=shape))
        for shape in ((input_size, 4 * hidden), (hidden, 4 * hidden), (4 * hidden,))
    )


class TestFusedLstm:
    @pytest.mark.parametrize("total, valid_len", [(5, 5), (5, 3), (4, 1)])
    def test_bilstm_passes_fd_audit(self, total, valid_len):
        rng = np.random.default_rng(total + valid_len)
        x = Tensor(rng.normal(size=(1, total, 5)))
        fwd, bwd = _cell(rng, 5, 3), _cell(rng, 5, 3)
        # a random readout gives every output coordinate its own weight
        readout = Tensor(rng.normal(size=(1, total, 6)))
        f = lambda: sum_all(einsum("bth,bth->bth", tanh(bilstm(x, np.array([valid_len]), fwd, bwd)), readout))
        # every coordinate, at acceptance 1's tolerance: truncation error
        # reaches 6e-6 here, a backward rule off by 0.1% shows 1e-3
        err = finite_difference_check(f, [*fwd, *bwd], max_coords_per_tensor=1000)
        assert err < 1e-4
        # the source is a constant, also when it is a Tensor
        with Tape() as tape:
            loss = f()
        backward(tape, loss)
        assert tape.gradient(x) is None

    def test_bilstm_matches_its_definition_step_by_step(self):
        rng = np.random.default_rng(4)
        x = Tensor(rng.normal(size=(1, 6, 5)))
        fwd, bwd = _cell(rng, 5, 3), _cell(rng, 5, 3)
        out = bilstm(x, np.array([4]), fwd, bwd).data[0]

        def run(cell, order):
            w, u, b = (t.data for t in cell)
            h, c, states = np.zeros(3), np.zeros(3), {}
            for t in order:
                z = x.data[0, t] @ w + h @ u + b
                i, f, o = (1.0 / (1.0 + np.exp(-z[k * 3 : (k + 1) * 3])) for k in range(3))
                c = f * c + i * np.tanh(z[9:])
                h = o * np.tanh(c)
                states[t] = h
            return states

        forward, backward_ = run(fwd, range(4)), run(bwd, range(3, -1, -1))
        for t in range(4):
            np.testing.assert_allclose(out[t], np.concatenate([forward[t], backward_[t]]), rtol=1e-12)
        assert not out[4:].any()

    def test_bilstm_forward_keeps_longdouble(self):
        rng = np.random.default_rng(5)
        x = Tensor(rng.normal(size=(1, 4, 5)))
        fwd, bwd = _cell(rng, 5, 3), _cell(rng, 5, 3)
        plain = bilstm(x, np.array([3]), fwd, bwd).data
        for t in (*fwd, *bwd):
            t.data = t.data.astype(np.longdouble)
        wide = bilstm(x, np.array([3]), fwd, bwd).data
        assert wide.dtype == np.longdouble
        np.testing.assert_allclose(wide.astype(np.float64), plain, rtol=1e-13)

    def test_lstm_cell_passes_fd_audit(self):
        rng = np.random.default_rng(6)
        x, h, c = (Tensor(rng.normal(size=(1, n))) for n in (5, 3, 3))
        cell = _cell(rng, 5, 3)
        readout = Tensor(rng.normal(size=(1, 3)))

        def f():
            h1, c1 = lstm_cell(x, h, c, *cell)
            h2, _ = lstm_cell(x, h1, c1, *cell)  # the last cell state gets no gradient
            return sum_all(einsum("bh,bh->bh", add(h2, c1), readout))

        assert finite_difference_check(f, [*cell, x, h, c], max_coords_per_tensor=1000) < 1e-4

    @pytest.mark.parametrize("lengths", [(5, 1, 3), (1, 3, 5), (2, 2, 2)])
    def test_batched_bilstm_passes_fd_audit(self, lengths):
        rng = np.random.default_rng(sum(lengths))
        x = Tensor(rng.normal(size=(3, 5, 4)))
        fwd, bwd = _cell(rng, 4, 3), _cell(rng, 4, 3)
        readout = Tensor(rng.normal(size=(3, 5, 6)))
        f = lambda: sum_all(einsum("bth,bth->bth", tanh(bilstm(x, np.array(lengths), fwd, bwd)), readout))
        err = finite_difference_check(f, [*fwd, *bwd], max_coords_per_tensor=1000)
        assert err < 1e-4

    def test_batched_rows_equal_one_sequence_calls(self):
        rng = np.random.default_rng(8)
        x = rng.normal(size=(4, 6, 5))
        fwd, bwd = _cell(rng, 5, 3), _cell(rng, 5, 3)
        lengths = np.array([6, 1, 4, 6])
        out = bilstm(Tensor(x), lengths, fwd, bwd).data
        for b, n in enumerate(lengths):
            one = bilstm(Tensor(x[b : b + 1]), lengths[b : b + 1], fwd, bwd).data[0]
            np.testing.assert_allclose(out[b], one, rtol=1e-13, atol=1e-16)

    def test_padded_positions_get_exactly_zero_output_and_gradient(self):
        rng = np.random.default_rng(9)
        data = rng.normal(size=(3, 5, 4))
        fwd, bwd = _cell(rng, 4, 3), _cell(rng, 4, 3)
        lengths = np.array([5, 1, 3])
        readout = Tensor(rng.normal(size=(3, 5, 6)))
        junk = data.copy()
        junk[1, 1:], junk[2, 3:] = 1e6, np.nan
        outs, grads = [], []
        for x in (data, junk):
            with Tape() as tape:
                out = bilstm(Tensor(x), lengths, fwd, bwd)
                loss = sum_all(einsum("bth,bth->bth", tanh(out), readout))
            backward(tape, loss)
            outs.append(out.data)
            grads.append([tape.gradient(t).tobytes() for t in (*fwd, *bwd)])
        out, again = outs
        for b, n in enumerate(lengths):
            assert (out[b, n:] == 0.0).all()
            assert again[b, :n].tobytes() == out[b, :n].tobytes()
        # what x holds past a row's length reaches no weight gradient
        assert grads[1] == grads[0]

    def test_plain_array_input_is_a_constant(self):
        rng = np.random.default_rng(10)
        data = rng.normal(size=(2, 4, 5))
        fwd, bwd = _cell(rng, 5, 3), _cell(rng, 5, 3)
        grads = []
        for x in (Tensor(data), data):
            with Tape() as tape:
                loss = sum_all(tanh(bilstm(x, np.array([4, 2]), fwd, bwd)))
            backward(tape, loss)
            grads.append([tape.gradient(t).tobytes() for t in (*fwd, *bwd)])
        assert grads[0] == grads[1]

    def test_shapes_validated(self):
        rng = np.random.default_rng(7)
        x = Tensor(rng.normal(size=(1, 4, 5)))
        with pytest.raises(ValueError, match="do not fit"):
            bilstm(x, np.array([4]), _cell(rng, 5, 3), _cell(rng, 4, 3))
        with pytest.raises(ValueError, match="share"):
            bilstm(x, np.array([4]), _cell(rng, 5, 3), _cell(rng, 5, 2))
        with pytest.raises(ValueError, match="valid_len"):
            bilstm(x, np.array([5]), _cell(rng, 5, 3), _cell(rng, 5, 3))
        with pytest.raises(ValueError, match="valid_len"):
            bilstm(Tensor(np.ones((2, 4, 5))), 4, _cell(rng, 5, 3), _cell(rng, 5, 3))
        with pytest.raises(ValueError, match="valid_len"):
            bilstm(Tensor(np.ones((2, 4, 5))), np.array([4, 0]), _cell(rng, 5, 3), _cell(rng, 5, 3))
        # one sequence is a batch of one: a [T x in] input is not taken
        with pytest.raises(ValueError, match="valid_len"):
            bilstm(Tensor(np.ones((4, 5))), 4, _cell(rng, 5, 3), _cell(rng, 5, 3))
        with pytest.raises(ValueError, match="state"):
            lstm_cell(Tensor(np.ones((1, 5))), Tensor(np.ones((1, 2))), Tensor(np.ones((1, 3))), *_cell(rng, 5, 3))
        with pytest.raises(ValueError, match="do not fit"):
            lstm_cell(Tensor(np.ones(5)), Tensor(np.ones(3)), Tensor(np.ones(3)), *_cell(rng, 5, 3))


class TestRowProducts:
    """With no tape recording, the products of `matmul` and `lstm_cell`
    run as stacked rows, so each row of a batch gets the bits of the
    one-row call whatever the row count: decoding relies on it.  Under a
    tape they stay GEMMs, so training's bits do not move."""

    @pytest.mark.parametrize("rows", [1, 2, 3, 10, 32])
    def test_rows_equal_one_row_calls_without_a_tape(self, rows):
        rng = np.random.default_rng(rows)
        a, w = rng.normal(size=(rows, 456)), Tensor(rng.normal(size=(456, 512)))
        out = matmul(Tensor(a), w).data
        x, h, c = rng.normal(size=(rows, 320)), rng.normal(size=(rows, 128)), rng.normal(size=(rows, 128))
        cell = _cell(rng, 320, 128)
        h_out, c_out = lstm_cell(Tensor(x), Tensor(h), Tensor(c), *cell)
        for r in range(rows):
            assert np.array_equal(out[r], matmul(Tensor(a[r]), w).data)
            h_r, c_r = lstm_cell(Tensor(x[r : r + 1]), Tensor(h[r : r + 1]), Tensor(c[r : r + 1]), *cell)
            assert np.array_equal(h_out.data[r], h_r.data[0]) and np.array_equal(c_out.data[r], c_r.data[0])

    def test_products_under_a_tape_are_gemms(self):
        rng = np.random.default_rng(0)
        a, w = Tensor(rng.normal(size=(32, 456))), Tensor(rng.normal(size=(456, 512)))
        with Tape():
            out = matmul(a, w)
        assert np.array_equal(out.data, a.data @ w.data)
