"""Tests for the fused functional ops (softmax, layer norm, CE, ...)."""

import numpy as np
import pytest

from repro.autograd import (
    Tensor,
    check_gradients,
    cross_entropy,
    dropout,
    gelu,
    layer_norm,
    linear,
    log_softmax,
    scale_mask,
    softmax,
    split_heads,
)
from repro.autograd import functional as F
from repro.autograd.tensor import _op


def t(shape, seed=0):
    return Tensor(np.random.default_rng(seed).normal(size=shape).astype(np.float32), requires_grad=True)


class TestSoftmax:
    def test_rows_sum_to_one(self):
        out = softmax(t((4, 7))).data
        assert np.allclose(out.sum(axis=-1), 1.0, atol=1e-6)
        assert (out >= 0).all()

    def test_gradients(self):
        check_gradients(lambda x: softmax(x).tanh(), [t((3, 5))])

    def test_invariant_to_shift(self):
        x = t((2, 5))
        shifted = Tensor(x.data + 100.0)
        assert np.allclose(softmax(x).data, softmax(shifted).data, atol=1e-5)

    def test_extreme_logits_stable(self):
        x = Tensor(np.array([[1000.0, 0.0, -1000.0]], dtype=np.float32))
        out = softmax(x).data
        assert np.isfinite(out).all()
        assert out[0, 0] == pytest.approx(1.0)

    def test_axis_argument(self):
        x = t((3, 4))
        assert np.allclose(softmax(x, axis=0).data.sum(axis=0), 1.0, atol=1e-6)


class TestLogSoftmax:
    def test_matches_log_of_softmax(self):
        x = t((3, 5))
        assert np.allclose(log_softmax(x).data, np.log(softmax(x).data), atol=1e-5)

    def test_gradients(self):
        check_gradients(lambda x: log_softmax(x).exp(), [t((3, 5))])


class TestGelu:
    def test_gradients(self):
        check_gradients(gelu, [t((4, 6))])

    def test_known_values(self):
        x = Tensor(np.array([0.0, 10.0, -10.0], dtype=np.float32))
        out = gelu(x).data
        assert out[0] == pytest.approx(0.0, abs=1e-6)
        assert out[1] == pytest.approx(10.0, rel=1e-4)
        assert out[2] == pytest.approx(0.0, abs=1e-3)


class TestLayerNorm:
    def test_output_normalised(self):
        x = t((4, 8))
        w = Tensor(np.ones(8, dtype=np.float32), requires_grad=True)
        b = Tensor(np.zeros(8, dtype=np.float32), requires_grad=True)
        out = layer_norm(x, w, b).data
        assert np.allclose(out.mean(axis=-1), 0.0, atol=1e-5)
        assert np.allclose(out.std(axis=-1), 1.0, atol=1e-2)

    def test_gradients_all_inputs(self):
        w = Tensor(np.random.default_rng(1).uniform(0.5, 1.5, 6).astype(np.float32), requires_grad=True)
        b = Tensor(np.random.default_rng(2).normal(size=6).astype(np.float32), requires_grad=True)
        check_gradients(lambda x, w, b: layer_norm(x, w, b), [t((3, 6)), w, b])

    def test_3d_input(self):
        x = t((2, 3, 6))
        w = Tensor(np.ones(6, dtype=np.float32), requires_grad=True)
        b = Tensor(np.zeros(6, dtype=np.float32), requires_grad=True)
        check_gradients(lambda x, w, b: layer_norm(x, w, b), [x, w, b])


class TestCrossEntropy:
    def test_matches_manual(self):
        logits = t((4, 5))
        targets = np.array([0, 1, 2, 3])
        loss = cross_entropy(logits, targets).item()
        probs = softmax(logits).data
        manual = -np.log(probs[np.arange(4), targets]).mean()
        assert loss == pytest.approx(manual, rel=1e-5)

    def test_gradients(self):
        targets = np.array([0, 4, 2])
        check_gradients(lambda x: cross_entropy(x, targets), [t((3, 5))])

    def test_ignore_index_excludes_positions(self):
        logits = t((4, 5))
        full = cross_entropy(logits, np.array([0, 1, 2, 3])).item()
        # Position 3 ignored: loss computed over first three rows only.
        partial = cross_entropy(logits, np.array([0, 1, 2, -1]), ignore_index=-1).item()
        expected = cross_entropy(Tensor(logits.data[:3]), np.array([0, 1, 2])).item()
        assert partial == pytest.approx(expected, rel=1e-5)
        assert partial != pytest.approx(full)

    def test_ignore_index_gradients(self):
        targets = np.array([0, 1, -9, 2])
        check_gradients(lambda x: cross_entropy(x, targets, ignore_index=-9), [t((4, 5))])

    def test_3d_logits(self):
        targets = np.array([[0, 1], [2, 3]])
        check_gradients(lambda x: cross_entropy(x, targets), [t((2, 2, 5))])

    def test_all_ignored_raises(self):
        with pytest.raises(ValueError):
            cross_entropy(t((2, 5)), np.array([-1, -1]), ignore_index=-1)

    def test_uniform_logits_give_log_vocab(self):
        logits = Tensor(np.zeros((8, 11), dtype=np.float32))
        loss = cross_entropy(logits, np.zeros(8, dtype=np.int64)).item()
        assert loss == pytest.approx(np.log(11), rel=1e-5)


class TestDropout:
    def test_eval_mode_is_identity(self, rng):
        x = t((100,))
        out = dropout(x, 0.5, rng, training=False)
        assert out is x

    def test_zero_rate_is_identity(self, rng):
        x = t((100,))
        assert dropout(x, 0.0, rng, training=True) is x

    def test_scaling_preserves_expectation(self, rng):
        x = Tensor(np.ones(20_000, dtype=np.float32), requires_grad=True)
        out = dropout(x, 0.25, rng, training=True)
        assert out.data.mean() == pytest.approx(1.0, abs=0.02)
        kept = out.data != 0
        assert np.allclose(out.data[kept], 1.0 / 0.75)

    def test_gradients_follow_mask(self, rng):
        x = Tensor(np.ones(1000, dtype=np.float32), requires_grad=True)
        out = dropout(x, 0.5, rng, training=True)
        out.sum().backward()
        assert np.allclose(x.grad, (out.data != 0) * 2.0)

    def test_invalid_rate(self, rng):
        for p in (1.0, 1.5, -0.5):
            with pytest.raises(ValueError):
                dropout(t((3,)), p, rng, training=True)

    def test_eval_mode_ignores_rate(self, rng):
        x = t((3,))
        assert dropout(x, -0.5, rng, training=False) is x


class TestScaleMask:
    def test_masked_fill(self):
        mask = np.array([[True, False], [False, True]])
        x = t((2, 2))
        out = scale_mask(x, 1.0, mask, -5.0)
        assert np.allclose(out.data[mask], -5.0)
        assert np.array_equal(out.data[~mask], x.data[~mask])
        check_gradients(lambda a: scale_mask(a, 1.0, mask, -5.0).tanh(), [t((2, 2))])

    def test_scale_and_broadcast_mask(self):
        mask = np.triu(np.ones((3, 3), dtype=bool), k=1)[None, None]
        check_gradients(lambda a: scale_mask(a, 0.5, mask, -7.0).tanh(), [t((2, 2, 3, 3))])


class TestLinear:
    def test_gradients_with_bias(self):
        w = t((4, 3), seed=1)
        b = t((3,), seed=2)
        check_gradients(lambda x, w, b: linear(x, w, b).tanh(), [t((2, 5, 4)), w, b])

    def test_gradients_without_bias(self):
        check_gradients(lambda x, w: linear(x, w).tanh(), [t((5, 4)), t((4, 3), seed=1)])


class TestSplitHeads:
    def test_views_and_gradients(self):
        qkv = t((2, 3, 12))
        q, k, v = split_heads(qkv, 2)
        assert q.shape == k.shape == v.shape == (2, 2, 3, 2)
        assert np.array_equal(v.data[1, 0, 2], qkv.data[1, 2, 8:10])
        check_gradients(
            lambda a: (lambda q, k, v: q.matmul(k.swapaxes(-1, -2)).matmul(v))(
                *split_heads(a, 2)
            ).tanh(),
            [qkv],
        )

    def test_second_backward_pass_starts_afresh(self):
        qkv = t((2, 3, 6))
        q, k, _ = split_heads(qkv, 1)
        out = q * k
        out.backward(np.ones_like(out.data))
        first = qkv.grad.copy()
        out.backward(np.ones_like(out.data))
        assert np.array_equal(qkv.grad, 2 * first)


# ----------------------------------------------------------------------
# Bitwise equality with the unfused compositions the nodes replaced.
# The references below are the graph the training step used to build:
# the same float32 operations, each into a fresh temporary.
# ----------------------------------------------------------------------

_SQRT_2_OVER_PI = float(np.sqrt(2.0 / np.pi))


def reference_gelu(x):
    data = x.data
    x2 = data * data
    inner = _SQRT_2_OVER_PI * (data + 0.044715 * (x2 * data))
    tanh_inner = np.tanh(inner)
    out_data = 0.5 * data * (1.0 + tanh_inner)

    def backward(g, a=x, t=tanh_inner, x2=x2):
        d_inner = _SQRT_2_OVER_PI * (1.0 + (3 * 0.044715) * x2)
        grad = 0.5 * (1.0 + t) + 0.5 * a.data * (1.0 - t * t) * d_inner
        return [(a, g * grad)]

    return _op(out_data, (x,), backward)


def reference_softmax(x, axis=-1):
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    exp = np.exp(shifted)
    out_data = exp / exp.sum(axis=axis, keepdims=True)

    def backward(g, a=x, s=out_data, ax=axis):
        inner = (g * s).sum(axis=ax, keepdims=True)
        return [(a, s * (g - inner))]

    return _op(out_data, (x,), backward)


def reference_layer_norm(x, weight, bias, eps=1e-5):
    mu = x.data.mean(axis=-1, keepdims=True)
    centered = x.data - mu
    var = (centered * centered).mean(axis=-1, keepdims=True)
    inv_std = 1.0 / np.sqrt(var + eps)
    x_hat = centered * inv_std
    out_data = x_hat * weight.data + bias.data

    def backward(g, a=x, w=weight, b=bias, xh=x_hat, istd=inv_std):
        g_xhat = g * w.data
        grad_x = (
            g_xhat
            - g_xhat.mean(axis=-1, keepdims=True)
            - xh * (g_xhat * xh).mean(axis=-1, keepdims=True)
        ) * istd
        axes = tuple(range(g.ndim - 1))
        return [(a, grad_x), (w, (g * xh).sum(axis=axes)), (b, g.sum(axis=axes))]

    return _op(out_data, (x, weight, bias), backward)


def reference_dropout(x, p, rng):
    keep = (rng.random(x.data.shape) >= p).astype(np.float32) / (1.0 - p)

    def backward(g, a=x, k=keep):
        return [(a, g * k)]

    return _op(x.data * keep, (x,), backward)


def reference_masked_fill(x, mask, value):
    out_data = np.where(mask, np.asarray(value, dtype=np.float32), x.data)

    def backward(g, a=x, m=mask):
        return [(a, np.where(m, 0.0, g).astype(np.float32))]

    return _op(out_data, (x,), backward)


def reference_scale_mask(x, scale, mask, value):
    return reference_masked_fill(x * scale, mask, value)


def reference_linear(x, w, b=None):
    out = x.matmul(w)
    return out if b is None else out + b


def reference_split_heads(qkv, n_heads):
    batch, seq, width = qkv.shape
    heads = qkv.reshape(batch, seq, 3, n_heads, width // (3 * n_heads))
    heads = heads.transpose(2, 0, 3, 1, 4)
    return heads[0], heads[1], heads[2]


def leaves(*shapes, seed=0):
    """Fresh leaf tensors of ``shapes`` (std-normal, float32)."""
    rng = np.random.default_rng(seed)
    return [rng.standard_normal(shape, dtype=np.float32) for shape in shapes]


def run(fn, arrays, grad_seed=9):
    """Forward ``fn`` on fresh leaves made from ``arrays``, backward a
    seeded upstream gradient (with some exact zeros of both signs);
    returns the output and every leaf gradient."""
    inputs = [Tensor(a.copy(), requires_grad=True) for a in arrays]
    out = fn(*inputs)
    upstream = np.random.default_rng(grad_seed).standard_normal(out.shape, dtype=np.float32)
    upstream.reshape(-1)[::7] = 0.0
    upstream.reshape(-1)[3::11] = -0.0
    out.backward(upstream)
    return [out.data] + [x.grad for x in inputs]


def assert_same_bits(fused, reference):
    assert len(fused) == len(reference)
    for got, want in zip(fused, reference):
        assert got is not None and want is not None
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()


class TestSameBitsAsUnfused:
    @pytest.mark.parametrize("x_shape", [(64, 48), (16, 31, 48)])
    def test_linear(self, x_shape):
        arrays = leaves(x_shape, (48, 144), (144,))
        assert_same_bits(run(linear, arrays), run(reference_linear, arrays))

    @pytest.mark.parametrize("x_shape", [(64, 40), (16, 31, 40), (5, 3, 40)])
    def test_linear_without_bias(self, x_shape):
        arrays = leaves(x_shape, (40, 33))
        assert_same_bits(run(linear, arrays), run(reference_linear, arrays))

    def test_gelu(self):
        arrays = [3 * a for a in leaves((16, 31, 192))]
        assert_same_bits(run(gelu, arrays), run(reference_gelu, arrays))

    @pytest.mark.parametrize("axis", [-1, 0])
    def test_softmax(self, axis):
        arrays = [4 * a for a in leaves((8, 4, 31, 31))]
        assert_same_bits(
            run(lambda x: softmax(x, axis=axis), arrays),
            run(lambda x: reference_softmax(x, axis=axis), arrays),
        )

    def test_layer_norm(self):
        arrays = leaves((16, 31, 48), (48,), (48,))
        assert_same_bits(run(layer_norm, arrays), run(reference_layer_norm, arrays))

    def test_dropout(self):
        arrays = leaves((8, 4, 31, 31))
        fused_rng, reference_rng = np.random.default_rng(5), np.random.default_rng(5)
        assert_same_bits(
            run(lambda x: dropout(x, 0.1, fused_rng), arrays),
            run(lambda x: reference_dropout(x, 0.1, reference_rng), arrays),
        )
        assert fused_rng.random() == reference_rng.random()

    @pytest.mark.parametrize("used", [(0, 1, 2), (0, 1), (2,)])
    def test_split_heads(self, used):
        arrays = leaves((16, 31, 144))
        weights = leaves((16, 4, 31, 12), (16, 4, 31, 12), (16, 4, 31, 12), seed=3)
        weights[0].reshape(-1)[::5] = -0.0

        def loss(split):
            def fn(qkv):
                views = split(qkv, 4)
                total = None
                for i in used:
                    term = views[i] * Tensor(weights[i])
                    total = term if total is None else total + term
                return total
            return fn

        assert_same_bits(run(loss(split_heads), arrays), run(loss(reference_split_heads), arrays))

    def test_scale_mask(self):
        arrays = leaves((16, 4, 31, 31))
        mask = np.triu(np.ones((31, 31), dtype=bool), k=1)[None, None]
        mask = mask | (np.arange(31) > 25)[None, None, None, :]
        scale = 1.0 / np.sqrt(12)
        assert_same_bits(
            run(lambda x: scale_mask(x, scale, mask, -1e9), arrays),
            run(lambda x: reference_scale_mask(x, scale, mask, -1e9), arrays),
        )


class TestContiguousProductCheck:
    """The input gradient of :func:`linear` is ``g @ w.T`` to the bit,
    whichever product the check picks for the shape."""

    SHAPES = [(31, (48, 144)), (3, (48, 144)), (31, (48, 33)), (128, (40, 120))]

    @pytest.mark.parametrize("rows, shape", SHAPES)
    def test_decision_does_not_depend_on_the_data(self, rows, shape):
        g, w = leaves((rows, shape[1]), shape, seed=4)
        agree = (g @ w.T).tobytes() == (g @ np.ascontiguousarray(w.T)).tobytes()
        assert F._contiguous_product_exact(rows, shape) == agree

    def test_both_branches_run(self):
        # On numpy's OpenBLAS, 31-row products with 48x144 weights take
        # the contiguous copy and 3-row ones keep numpy's product.
        assert F._contiguous_product_exact(31, (48, 144))
        assert not F._contiguous_product_exact(3, (48, 144))

    @pytest.mark.parametrize("rows, shape", SHAPES)
    @pytest.mark.parametrize("batch", [None, 6])
    def test_input_gradient_is_numpys_product(self, rows, shape, batch):
        x_shape = (rows, shape[0]) if batch is None else (batch, rows, shape[0])
        x, w = (Tensor(a, requires_grad=True) for a in leaves(x_shape, shape, seed=6))
        out = linear(x, w)
        g = np.random.default_rng(7).standard_normal(out.shape, dtype=np.float32)
        out.backward(g)
        assert x.grad.tobytes() == (g @ w.data.T).tobytes()
