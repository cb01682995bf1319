"""Gradient and semantics tests for the core Tensor ops."""

import numpy as np
import pytest

from repro.autograd import (
    Tensor,
    check_gradients,
    concat,
    is_grad_enabled,
    no_grad,
    ones,
    stack,
    zeros,
)


def t(shape, seed=0, requires_grad=True):
    data = np.random.default_rng(seed).normal(size=shape).astype(np.float32)
    return Tensor(data, requires_grad=requires_grad)


class TestArithmetic:
    def test_add_gradients(self):
        check_gradients(lambda a, b: a + b, [t((3, 4)), t((3, 4), seed=1)])

    def test_add_broadcast_gradients(self):
        check_gradients(lambda a, b: a + b, [t((3, 4)), t((1, 4), seed=1)])

    def test_add_scalar_broadcast(self):
        check_gradients(lambda a, b: a + b, [t((2, 3, 4)), t((4,), seed=1)])

    def test_mul_gradients(self):
        check_gradients(lambda a, b: a * b, [t((3, 4)), t((3, 4), seed=1)])

    def test_div_gradients(self):
        a = t((3, 4))
        b = Tensor(np.random.default_rng(1).uniform(0.5, 2.0, (3, 4)).astype(np.float32), requires_grad=True)
        check_gradients(lambda a, b: a / b, [a, b])

    def test_sub_and_neg(self):
        check_gradients(lambda a, b: a - b, [t((3, 4)), t((3, 4), seed=1)])
        check_gradients(lambda a: -a, [t((3, 4))])

    def test_pow_gradients(self):
        a = Tensor(np.random.default_rng(0).uniform(0.5, 2.0, (3, 4)).astype(np.float32), requires_grad=True)
        check_gradients(lambda a: a**3.0, [a])

    def test_rsub_rdiv_radd_rmul(self):
        a = Tensor(np.array([2.0, 4.0], dtype=np.float32), requires_grad=True)
        assert np.allclose((1.0 - a).data, [-1.0, -3.0])
        assert np.allclose((8.0 / a).data, [4.0, 2.0])
        assert np.allclose((1.0 + a).data, [3.0, 5.0])
        assert np.allclose((3.0 * a).data, [6.0, 12.0])

    def test_matmul_gradients(self):
        check_gradients(lambda a, b: a @ b, [t((3, 4)), t((4, 5), seed=1)])

    def test_batched_matmul_gradients(self):
        check_gradients(lambda a, b: a @ b, [t((2, 3, 4)), t((2, 4, 3), seed=1)])

    def test_matmul_broadcast_gradients(self):
        # (B, S, D) @ (D, V): the classic projection shape.
        check_gradients(lambda a, b: a @ b, [t((2, 3, 4)), t((4, 5), seed=1)])


class TestElementwise:
    @pytest.mark.parametrize(
        "fn",
        [
            Tensor.exp,
            Tensor.tanh,
            Tensor.sigmoid,
            Tensor.relu,
            Tensor.abs,
            lambda x: x.leaky_relu(0.2),
        ],
    )
    def test_unary_gradients(self, fn):
        x = Tensor(
            np.random.default_rng(0).uniform(-2, 2, (3, 4)).astype(np.float32) + 0.13,
            requires_grad=True,
        )
        check_gradients(fn, [x])

    def test_log_sqrt_gradients(self):
        x = Tensor(np.random.default_rng(0).uniform(0.5, 3.0, (3, 4)).astype(np.float32), requires_grad=True)
        check_gradients(Tensor.log, [x])
        check_gradients(Tensor.sqrt, [x])


class TestReductions:
    def test_sum_all(self):
        check_gradients(lambda a: a.sum(), [t((3, 4))])

    def test_sum_axis_keepdims(self):
        check_gradients(lambda a: a.sum(axis=1, keepdims=True), [t((3, 4))])
        check_gradients(lambda a: a.sum(axis=0), [t((3, 4))])

    def test_mean_matches_manual(self):
        a = t((3, 4))
        assert np.allclose(a.mean(axis=1).data, a.data.mean(axis=1))
        check_gradients(lambda a: a.mean(axis=1), [t((3, 4))])

    def test_var(self):
        a = t((3, 4))
        assert np.allclose(a.var(axis=1).data, a.data.var(axis=1), atol=1e-6)

    def test_max_gradients(self):
        # Distinct values so the argmax is unique and the gradient smooth.
        data = np.arange(12, dtype=np.float32).reshape(3, 4) * 0.37
        x = Tensor(data.copy(), requires_grad=True)
        check_gradients(lambda a: a.max(axis=1), [x])
        check_gradients(lambda a: a.max(), [x])


class TestShapes:
    def test_reshape_gradients(self):
        check_gradients(lambda a: a.reshape(4, 3).tanh(), [t((3, 4))])

    def test_transpose_gradients(self):
        check_gradients(lambda a: a.transpose(1, 0, 2).tanh(), [t((2, 3, 4))])

    def test_swapaxes_gradients(self):
        check_gradients(lambda a: a.swapaxes(-1, -2).tanh(), [t((2, 3, 4))])

    def test_getitem_gradients(self):
        check_gradients(lambda a: a[1:, :2].tanh(), [t((3, 4))])

    def test_take_rows_gradients(self):
        idx = np.array([[0, 2], [1, 1]])
        check_gradients(lambda a: a.take_rows(idx).tanh(), [t((4, 3))])

    def test_take_rows_repeated_index_accumulates(self):
        emb = Tensor(np.eye(3, dtype=np.float32), requires_grad=True)
        out = emb.take_rows(np.array([1, 1, 1])).sum()
        out.backward()
        assert np.allclose(emb.grad[1], [3.0, 3.0, 3.0])
        assert np.allclose(emb.grad[0], 0.0)

    @pytest.mark.parametrize(
        "index",
        [
            1,
            np.int64(2),
            -1,
            slice(1, None),
            (slice(None), 2),
            (Ellipsis, slice(0, 3, 2)),
            (None, 0, slice(None, 2)),
            (np.array([0, 2]), slice(None)),
            (np.array([1, 1, 0, 1]),),
            np.array([[0, 0], [2, 0]]),
            (slice(None), np.array([3, 3, 1])),
            np.array([True, False, True]),
        ],
        ids=lambda index: repr(index).replace(" ", ""),
    )
    def test_getitem_backward_matches_add_at(self, index):
        """Basic indices take a plain add, advanced ones np.add.at; both
        must give the bits of the np.add.at reference, repeats included."""
        x = t((3, 4))
        out = x[index]
        g = np.random.default_rng(1).normal(size=out.shape).astype(np.float32)
        out.backward(g)
        ref = np.zeros_like(x.data)
        np.add.at(ref, index, g)
        assert x.grad.tobytes() == ref.tobytes()

    def test_concat_gradients(self):
        check_gradients(
            lambda a, b: concat([a, b], axis=1).tanh(), [t((2, 3)), t((2, 2), seed=1)]
        )

    def test_stack_gradients(self):
        check_gradients(lambda a, b: stack([a, b]).tanh(), [t((2, 3)), t((2, 3), seed=1)])


class TestGraphMechanics:
    def test_grad_accumulates_over_multiple_uses(self):
        x = Tensor(np.array([2.0], dtype=np.float32), requires_grad=True)
        y = x * 3.0 + x * 4.0  # dy/dx = 7
        y.backward()
        assert np.allclose(x.grad, [7.0])

    @pytest.mark.parametrize("shape", [(2, 2), (1,)])
    def test_gradient_shared_by_two_parents_is_not_aliased(self, shape):
        """``h + x`` hands one gradient array to both parents; a later
        accumulation into ``h`` must not leak into ``x``'s gradient (nor
        write into the read-only array ``sum`` hands down)."""
        x = Tensor(np.full(shape, 1.0, dtype=np.float32), requires_grad=True)
        y = Tensor(np.full(shape, 2.0, dtype=np.float32), requires_grad=True)
        h = x * y
        out = (h + x) + h * 1
        out.sum().backward()
        assert np.all(x.grad == 5.0)  # d/dx (2xy + x) = 2y + 1
        assert np.all(y.grad == 2.0)  # d/dy (2xy + x) = 2x

    def test_diamond_graph(self):
        x = Tensor(np.array([1.5], dtype=np.float32), requires_grad=True)
        a = x * 2.0
        b = x * 3.0
        out = a * b  # 6 x^2 -> d/dx = 12 x = 18
        out.backward()
        assert np.allclose(x.grad, [18.0])

    def test_no_grad_disables_graph(self):
        x = Tensor(np.ones(3, dtype=np.float32), requires_grad=True)
        with no_grad():
            assert not is_grad_enabled()
            y = x * 2.0
        assert is_grad_enabled()
        assert not y.requires_grad
        assert y._parents == ()

    def test_detach(self):
        x = Tensor(np.ones(3, dtype=np.float32), requires_grad=True)
        y = (x * 2.0).detach() * x
        y.sum().backward()
        assert np.allclose(x.grad, [2.0, 2.0, 2.0])

    def test_constant_inputs_get_no_grad(self):
        x = Tensor(np.ones(3, dtype=np.float32), requires_grad=True)
        c = Tensor(np.ones(3, dtype=np.float32))
        (x * c).sum().backward()
        assert c.grad is None

    def test_item_requires_scalar(self):
        with pytest.raises(ValueError):
            Tensor(np.ones(3, dtype=np.float32)).item()
        assert Tensor(np.array([2.5], dtype=np.float32)).item() == pytest.approx(2.5)

    def test_zeros_ones_helpers(self):
        assert zeros((2, 3)).data.sum() == 0.0
        assert ones((2, 3)).data.sum() == 6.0

    def test_float64_input_coerced_to_float32(self):
        x = Tensor(np.ones(3, dtype=np.float64))
        assert x.dtype == np.float32

    def test_repr_mentions_grad(self):
        assert "requires_grad" in repr(Tensor(np.ones(1, dtype=np.float32), requires_grad=True))


class TestGraphMemory:
    def test_graphs_freed_by_refcount_alone(self):
        """Backward graphs must be reference-cycle-free: with the cyclic
        collector disabled, training steps must not accumulate tensors
        (regression test for a leak that grew unbounded in long runs)."""
        import gc

        from repro.nn import SGD, GPT2Config, GPT2Model

        model = GPT2Model(
            GPT2Config(vocab_size=20, block_size=8, dim=16, n_layers=1, n_heads=2, dropout=0.0)
        )
        opt = SGD(model.parameters(), lr=0.0)
        ids = np.random.default_rng(0).integers(0, 19, (8, 8))

        def live_tensors():
            return sum(isinstance(o, Tensor) for o in gc.get_objects())

        gc.disable()
        try:
            gc.collect()
            loss = model.loss(ids, pad_token_id=19)
            loss.backward()
            opt.step()
            del loss
            baseline = live_tensors()
            for _ in range(5):
                opt.zero_grad()
                loss = model.loss(ids, pad_token_id=19)
                loss.backward()
                opt.step()
                del loss
            growth = live_tensors() - baseline
        finally:
            gc.enable()
            gc.collect()
        assert growth <= 2, f"{growth} tensors leaked across 5 steps"
