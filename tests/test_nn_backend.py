"""Compiled decode backend: per-op equivalence, fused parity, caching, fallback.

Three layers of guarantees, mirroring how the backend is built:

* **Per-op** — each rendered C primitive (pairwise sum, layernorm, GELU
  halves, softmax halves, the inline attention kernels, BLAS-delegated
  matmul) reproduces its numpy counterpart: bit-exact on the float32
  domains the step kernel actually uses, ≤1e-6 relative elsewhere.
* **Fused** — full decode-step rollouts and prefills (``start`` then
  ``extend`` up to the block size) through ``CompiledStepBackend`` are
  bit-identical to ``GPT2Inference._step_numpy`` / ``_prefill_numpy``,
  including the KV cache contents, across model shapes that exercise
  both attention paths (inline kernels and per-slice cblas) and both
  head layouts (tied/transposed and untied); out-of-range token ids,
  and calls that would run past a short (right-sized or trimmed) KV
  buffer, raise on both backends before the cache is touched; a kernel
  that strides the KV buffers by the block size fails the canary.
* **Infrastructure** — kernel-cache reuse across instances (in-memory
  and on-disk), and graceful numpy fallback when the compiler is
  masked: warning, ``backend.fallbacks`` counter, ``backend_fallback``
  telemetry event, campaign still runs.
"""

import ctypes
import dataclasses
import json
import sys
import threading

import numpy as np
import pytest

from repro.nn import backend as bk
from repro.nn.backend import compiled as compiled_mod
from repro.nn import inference as inference_mod
from repro.nn.inference import GPT2Inference, KVCache, _gelu, _layer_norm
from repro.nn.transformer import GPT2Config, GPT2Model
from repro.telemetry.metrics import get_registry
from repro.telemetry.tracing import session as telemetry_session
from repro.telemetry.logger import read_events

needs_cc = pytest.mark.skipif(not bk.compiler_available(), reason="no C compiler available")


def _f32(*shape, rng, scale=1.0):
    return (rng.standard_normal(shape) * scale).astype(np.float32)


def _ptr(arr):
    return ctypes.c_void_p(arr.ctypes.data)


@pytest.fixture(scope="module")
def oplib(tmp_path_factory):
    """The standalone per-op kernel library, BLAS pointers bound."""
    if not bk.compiler_available():
        pytest.skip("no C compiler available")
    blas = bk.find_blas()
    lib = bk.build_library(bk.render_op_test_source(blas_int64=blas.ilp64), tag="ops")
    lib.repro_set_blas(ctypes.c_void_p(blas.sgemm), ctypes.c_void_p(blas.sgemv))
    lib.repro_sum.restype = ctypes.c_float
    # explicit argtypes so the float scalar is passed single-precision
    lib.repro_softmax_prep.argtypes = [ctypes.c_void_p, ctypes.c_int64, ctypes.c_float]
    return lib


def _tiny_model(**overrides):
    cfg = dict(
        vocab_size=61, block_size=16, dim=32, n_layers=2, n_heads=2, dropout=0.0
    )
    cfg.update(overrides)
    return GPT2Model(GPT2Config(**cfg), seed=7)


# ----------------------------------------------------------------------
# Op graph structure
# ----------------------------------------------------------------------


class TestGraph:
    def test_segment_count_and_host_interleave(self):
        shape = bk.StepShape(64, 2, 4, 32, 135, head_transposed=True)
        program = bk.fuse_segments(bk.build_step_graph(shape))
        segments = [p for p in program if isinstance(p, bk.Segment)]
        hosts = [p for p in program if isinstance(p, bk.HostOp)]
        assert len(segments) == 2 * 2 + 1
        assert [h.func for h in hosts] == ["exp", "tanh"] * 2
        # strict alternation: seg, host, seg, host, ..., seg
        kinds = ["seg" if isinstance(p, bk.Segment) else "host" for p in program]
        assert kinds == ["seg", "host"] * (len(hosts)) + ["seg"]

    def test_graph_covers_reference_ops(self):
        shape = bk.StepShape(64, 3, 4, 32, 135, head_transposed=False)
        ops = bk.build_step_graph(shape)
        per_layer = [op.kind for op in ops if op.layer == 1]
        assert per_layer.count("layernorm") == 2
        assert per_layer.count("matmul") == 4
        assert ops[0].kind == "embed" and ops[-1].kind == "head"

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            bk.StepShape(30, 2, 4, 32, 135, head_transposed=False).validate()
        with pytest.raises(ValueError):
            bk.requested_backend("metal")

    def test_requested_backend_resolution(self, tmp_path, monkeypatch, capsys):
        monkeypatch.delenv(bk.BACKEND_ENV, raising=False)
        if bk.compiler_available():
            assert bk.requested_backend() == "compiled"
        # A missing compiler under the default is not a fallback: numpy is
        # picked quietly, without the warning or the fallback counter.
        monkeypatch.setenv("CC", "/nonexistent-compiler")
        monkeypatch.setenv("REPRO_KERNEL_CACHE", str(tmp_path / "empty"))
        monkeypatch.setattr(inference_mod, "_BACKEND_FALLBACK_EMITTED", False)
        registry = get_registry()
        before = dict(registry.values()).get("backend.fallbacks", 0)
        assert bk.requested_backend() == "numpy"
        assert GPT2Inference(_tiny_model()).backend_name == "numpy"
        assert dict(registry.values()).get("backend.fallbacks", 0) == before
        assert "falling back" not in capsys.readouterr().err
        monkeypatch.setenv(bk.BACKEND_ENV, "compiled")
        assert bk.requested_backend() == "compiled"
        assert bk.requested_backend("numpy") == "numpy"  # explicit wins


# ----------------------------------------------------------------------
# Per-op equivalence
# ----------------------------------------------------------------------


@needs_cc
class TestPerOp:
    @pytest.mark.parametrize("n", [1, 2, 5, 7, 8, 9, 17, 31, 48, 64, 128, 129, 333, 1000])
    def test_sum_matches_numpy_pairwise_exactly(self, oplib, n):
        rng = np.random.default_rng(n)
        a = _f32(n, rng=rng)
        got = np.float32(oplib.repro_sum(_ptr(a), ctypes.c_int64(n)))
        assert got.tobytes() == np.float32(a.sum()).tobytes()

    @pytest.mark.parametrize("dim", [8, 16, 64, 96, 128, 200])
    @pytest.mark.parametrize("rows", [1, 7])
    def test_layer_norm_exact(self, oplib, dim, rows):
        rng = np.random.default_rng(dim * rows)
        x, w, b = _f32(rows, dim, rng=rng), _f32(dim, rng=rng), _f32(dim, rng=rng)
        out = np.empty_like(x)
        oplib.repro_layer_norm(
            _ptr(x), _ptr(w), _ptr(b), _ptr(out), ctypes.c_int64(rows), ctypes.c_int64(dim)
        )
        assert out.tobytes() == _layer_norm(x, w, b).astype(np.float32).tobytes()

    def test_gelu_halves_with_host_tanh_exact(self, oplib):
        rng = np.random.default_rng(3)
        x = _f32(1024, rng=rng, scale=2.0)
        t = np.empty_like(x)
        oplib.repro_gelu_inner(_ptr(x), _ptr(t), ctypes.c_int64(x.size))
        np.tanh(t, out=t)  # the host op, exactly as the backend runs it
        oplib.repro_gelu_outer(_ptr(x), _ptr(t), ctypes.c_int64(x.size))
        assert t.tobytes() == _gelu(x).astype(np.float32).tobytes()

    @pytest.mark.parametrize("n", [1, 2, 3, 9, 31])
    def test_softmax_halves_exact(self, oplib, n):
        rng = np.random.default_rng(n)
        s = _f32(n, rng=rng, scale=3.0)
        kscale = np.float32(4.0)
        ref = s.copy()
        ref /= kscale
        ref -= ref.max()
        np.exp(ref, out=ref)
        ref /= ref.sum()
        oplib.repro_softmax_prep(_ptr(s), ctypes.c_int64(n), ctypes.c_float(kscale))
        np.exp(s, out=s)  # host op
        oplib.repro_softmax_norm(_ptr(s), ctypes.c_int64(n))
        assert s.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("hd", [16, 32, 64])
    @pytest.mark.parametrize("n", [2, 3, 5, 17, 33, 48])
    def test_attention_kernels_exact_on_validated_domain(self, oplib, hd, n):
        rng = np.random.default_rng(hd + n)
        q, K, V = _f32(hd, rng=rng), _f32(n, hd, rng=rng), _f32(n, hd, rng=rng)
        s = _f32(n, rng=rng)
        got_scores = np.empty(n, dtype=np.float32)
        got_mix = np.empty(hd, dtype=np.float32)
        oplib.repro_gemvt(_ptr(q), _ptr(K), _ptr(got_scores), ctypes.c_long(n), ctypes.c_long(hd))
        oplib.repro_gemvn(_ptr(s), _ptr(V), _ptr(got_mix), ctypes.c_long(n), ctypes.c_long(hd))
        # reference: the stacked 4-D matmuls the numpy step kernel issues
        ref_scores = (q[None, None, None] @ K[None, None].swapaxes(-1, -2)).ravel()
        ref_mix = (s[None, None, None] @ V[None, None]).ravel()
        assert got_scores.tobytes() == ref_scores.astype(np.float32).tobytes()
        assert got_mix.tobytes() == ref_mix.astype(np.float32).tobytes()

    @pytest.mark.parametrize("hd", [16, 64])
    def test_single_position_attention_washes_out_exactly(self, oplib, hd):
        """stop==1 (first decode into an empty cache) needs no gemvt
        exactness: softmax over one element is exactly 1.0 whatever the
        score, and ``fmaf(1, v, 0) == v`` makes the mix exact."""
        rng = np.random.default_rng(hd)
        s = _f32(1, rng=rng, scale=5.0)
        oplib.repro_softmax_prep(_ptr(s), ctypes.c_int64(1), ctypes.c_float(np.float32(4.0)))
        np.exp(s, out=s)
        oplib.repro_softmax_norm(_ptr(s), ctypes.c_int64(1))
        assert s[0] == np.float32(1.0)
        v = _f32(1, hd, rng=rng)
        out = np.empty(hd, dtype=np.float32)
        oplib.repro_gemvn(_ptr(s), _ptr(v), _ptr(out), ctypes.c_long(1), ctypes.c_long(hd))
        assert out.tobytes() == v.tobytes()

    @pytest.mark.parametrize("hd", [8, 24, 40])
    def test_attention_kernels_close_on_random_shapes(self, oplib, hd):
        rng = np.random.default_rng(hd)
        n = 37
        q, K = _f32(hd, rng=rng), _f32(n, hd, rng=rng)
        got = np.empty(n, dtype=np.float32)
        oplib.repro_gemvt(_ptr(q), _ptr(K), _ptr(got), ctypes.c_long(n), ctypes.c_long(hd))
        ref = K.astype(np.float64) @ q.astype(np.float64)
        np.testing.assert_allclose(got, ref, rtol=1e-6, atol=1e-6)

    @pytest.mark.parametrize("mkn", [(1, 64, 135), (4, 64, 192), (37, 256, 64)])
    def test_matmul_delegation_exact(self, oplib, mkn):
        m, k, n = mkn
        rng = np.random.default_rng(m + k + n)
        a, b = _f32(m, k, rng=rng), _f32(k, n, rng=rng)
        out = np.empty((m, n), dtype=np.float32)
        oplib.repro_matmul(
            _ptr(a), _ptr(b), _ptr(out),
            ctypes.c_int64(m), ctypes.c_int64(k), ctypes.c_int64(n),
        )
        assert out.tobytes() == (a @ b).tobytes()

    @pytest.mark.parametrize("m", [1, 5])
    def test_matmul_transposed_head_exact(self, oplib, m):
        rng = np.random.default_rng(m)
        a, bt = _f32(m, 64, rng=rng), _f32(135, 64, rng=rng)  # (vocab, dim) base
        out = np.empty((m, 135), dtype=np.float32)
        oplib.repro_matmul_t(
            _ptr(a), _ptr(bt), _ptr(out),
            ctypes.c_int64(m), ctypes.c_int64(64), ctypes.c_int64(135),
        )
        assert out.tobytes() == (a @ bt.T).tobytes()


# ----------------------------------------------------------------------
# Fused-kernel parity
# ----------------------------------------------------------------------


def _nan_headroom(cache):
    """NaN past ``length``: a gather that copied headroom, or a kernel
    that read it, would carry NaN into what the tests compare."""
    for buf in (*cache.keys, *cache.values):
        buf[:, :, cache.length :] = np.nan
    return cache


def _filled(buf, cache):
    """The bytes of ``buf``'s filled positions (gathered headroom is
    uninitialised, so whole-buffer bytes are not comparable)."""
    return buf[:, :, : cache.length].tobytes()


def _rollout_parity(model, batches, steps=None):
    cfg = model.config
    ref = GPT2Inference(model)
    comp = GPT2Inference(model, backend="compiled")
    assert comp.backend_name == "compiled", "backend fell back during parity test"
    rng = np.random.default_rng(0)
    head_dim = cfg.dim // cfg.n_heads
    steps = steps or cfg.block_size - 1
    for batch in batches:
        ref_cache = KVCache(cfg.n_layers, batch, cfg.n_heads, cfg.block_size, head_dim)
        got_cache = KVCache(cfg.n_layers, batch, cfg.n_heads, cfg.block_size, head_dim)
        for _ in range(steps):
            ids = rng.integers(0, cfg.vocab_size, size=batch)
            a = ref.step(ids, ref_cache)
            b = comp.step(ids, got_cache)
            assert a.tobytes() == b.tobytes()
        for layer in range(cfg.n_layers):
            assert ref_cache.keys[layer].tobytes() == got_cache.keys[layer].tobytes()
            assert ref_cache.values[layer].tobytes() == got_cache.values[layer].tobytes()


@needs_cc
class TestFusedParity:
    def test_inline_attention_tied_head(self):
        # head_dim 16 -> inline gemvt/gemvn kernels; tied transposed head
        _rollout_parity(_tiny_model(dim=64, n_heads=4, vocab_size=135, block_size=32), [1, 3, 37])

    def test_cblas_attention_untied_head(self):
        # head_dim 8 -> per-slice cblas path; untied (dim, vocab) head
        _rollout_parity(
            _tiny_model(dim=24, n_heads=3, vocab_size=50, tie_lm_head=False), [1, 5]
        )

    def test_three_layer_odd_vocab(self):
        _rollout_parity(_tiny_model(dim=96, n_heads=3, n_layers=3, vocab_size=99), [2])

    def test_gathered_cache_and_prompt_fanout(self):
        model = _tiny_model()
        ref = GPT2Inference(model)
        comp = GPT2Inference(model, backend="compiled")
        assert comp.backend_name == "compiled"
        _, primed = ref.start(np.array([[1, 4, 9]]))
        _nan_headroom(primed)
        fan_ref = primed.gather(np.zeros(6, dtype=np.intp))
        fan_got = primed.gather(np.zeros(6, dtype=np.intp))
        ids = np.arange(6) % model.config.vocab_size
        a = ref.step(ids, fan_ref)
        b = comp.step(ids, fan_got)
        assert a.tobytes() == b.tobytes()
        assert _filled(fan_ref.keys[0], fan_ref) == _filled(fan_got.keys[0], fan_got)

    def test_numpy_and_compiled_engines_share_weights(self):
        """The backend pins contiguous views, never stale copies."""
        model = _tiny_model()
        comp = GPT2Inference(model, backend="compiled")
        assert comp.backend_name == "compiled"
        # counters flow through the same step() wrapper on both paths
        cfg = model.config
        cache = KVCache(cfg.n_layers, 2, cfg.n_heads, cfg.block_size, cfg.dim // cfg.n_heads)
        before = comp.counters.step_calls
        comp.step(np.array([1, 2]), cache)
        assert comp.counters.step_calls == before + 1
        assert comp.counters.step_rows >= 2

    def test_cache_overflow_still_raises(self):
        model = _tiny_model()
        comp = GPT2Inference(model, backend="compiled")
        cfg = model.config
        cache = KVCache(cfg.n_layers, 1, cfg.n_heads, cfg.block_size, cfg.dim // cfg.n_heads)
        cache.length = cfg.block_size
        with pytest.raises(ValueError, match="cache overflow"):
            comp.step(np.array([0]), cache)


def _prefill_parity(model, batches):
    """``start`` with prompts of 1-5 tokens, then ``extend`` by 1-5 tokens
    until the block is full; every call's logits and the final KV bytes
    must equal numpy, and every call ending past position 1 must run the
    kernel (the guard sends ``stop == 1`` to numpy)."""
    cfg = model.config
    ref = GPT2Inference(model, backend="numpy")
    comp = GPT2Inference(model, backend="compiled")
    assert comp.backend_name == "compiled", "backend fell back during parity test"
    kernel = comp._compiled.prefill
    ran = []
    comp._compiled.prefill = lambda ids, cache: ran.append(1) or kernel(ids, cache)
    rng = np.random.default_rng(0)
    calls = 0
    for batch in batches:
        for prompt in range(1, 6):
            ids = rng.integers(0, cfg.vocab_size, size=(batch, prompt))
            a, ref_cache = ref.start(ids)
            b, got_cache = comp.start(ids)
            assert a.tobytes() == b.tobytes(), (batch, prompt)
            calls += prompt > 1
            feed = 1
            while ref_cache.length < cfg.block_size:
                seq = min(feed, cfg.block_size - ref_cache.length)
                ids = rng.integers(0, cfg.vocab_size, size=(batch, seq))
                a, b = ref.extend(ids, ref_cache), comp.extend(ids, got_cache)
                assert a.tobytes() == b.tobytes(), (batch, prompt, ref_cache.length, seq)
                calls += 1
                feed = feed % 5 + 1
            assert got_cache.length == cfg.block_size
            for layer in range(cfg.n_layers):
                assert ref_cache.keys[layer].tobytes() == got_cache.keys[layer].tobytes()
                assert ref_cache.values[layer].tobytes() == got_cache.values[layer].tobytes()
    assert len(ran) == calls


@needs_cc
class TestPrefillParity:
    def test_inline_attention_tied_head(self):
        # head_dim 16 -> inline gemvt/gemvn at one query per slice
        _prefill_parity(_tiny_model(dim=64, n_heads=4, vocab_size=135, block_size=32), [1, 2, 37])

    def test_cblas_attention_untied_head(self):
        # head_dim 8 -> per-slice cblas sgemv; untied (dim, vocab) head
        _prefill_parity(
            _tiny_model(dim=24, n_heads=3, vocab_size=50, tie_lm_head=False), [1, 2, 37]
        )

    def test_three_layer_odd_vocab(self):
        _prefill_parity(_tiny_model(dim=96, n_heads=3, n_layers=3, vocab_size=99), [1, 2, 37])

    def test_guard_sends_unsupported_calls_to_numpy(self):
        """Outside the kernel's domain a call behaves exactly as numpy's."""
        model = _tiny_model()
        cfg = model.config
        ref = GPT2Inference(model, backend="numpy")
        comp = GPT2Inference(model, backend="compiled")
        backend = comp._compiled
        _, primed = ref.start(np.array([[1, 4, 9]]))
        _nan_headroom(primed)
        ids = np.array([[5, 6]])

        def fortran(cache):
            cache.keys[0] = np.asfortranarray(cache.keys[0])
            return cache

        def float64(cache):
            cache.values[1] = cache.values[1].astype(np.float64)
            return cache

        for odd in (fortran, float64):
            assert not backend.supports(ids, odd(primed.gather([0])))
            want, got = odd(primed.gather([0])), odd(primed.gather([0]))
            assert comp.extend(ids, got).tobytes() == ref.extend(ids, want).tobytes()
            for a, b in zip((*want.keys, *want.values), (*got.keys, *got.values)):
                assert _filled(a, want) == _filled(b, got)
        # trimmed(): capacity stays block_size, the buffers hold 3 positions
        short = primed.trimmed()
        assert short.capacity == cfg.block_size and not backend.supports(ids, short)
        with pytest.raises(ValueError, match="cache overflow"):
            comp.extend(ids, short)
        empty = KVCache(cfg.n_layers, 1, cfg.n_heads, cfg.block_size, 16)
        assert not backend.supports(np.array([[7]]), empty)  # stop == 1
        assert backend.supports(ids, primed.gather([0]))

    def test_broken_prefill_kernel_falls_back(self, tmp_path, monkeypatch, capsys):
        """A prefill that ignores the causal mask passes the step canary
        but not the prefill one: construction falls back to numpy."""
        render = compiled_mod.render_step_source

        def unmasked(shape, blas_int64):
            source = render(shape, blas_int64)
            assert "s[j]=NEG_FILL;" in source
            return source.replace("s[j]=NEG_FILL;", "s[j]/=KSCALE;")

        monkeypatch.setattr(compiled_mod, "render_step_source", unmasked)
        monkeypatch.setenv("REPRO_KERNEL_CACHE", str(tmp_path))
        monkeypatch.setattr(compiled_mod, "_LIB_CACHE", {})
        monkeypatch.setattr(inference_mod, "_BACKEND_FALLBACK_EMITTED", False)
        registry = get_registry()
        before = dict(registry.values()).get("backend.fallbacks", 0)
        inf = GPT2Inference(_tiny_model(), backend="compiled")
        assert inf.backend_name == "numpy"
        assert dict(registry.values()).get("backend.fallbacks", 0) == before + 1
        assert list(tmp_path.glob("step-*.so")), "the broken kernel never compiled"
        assert "logits differ at batch=2, prefill seq=3" in capsys.readouterr().err

    def test_kernel_striding_by_block_size_falls_back(self, tmp_path, monkeypatch, capsys):
        """A kernel that strides the KV buffers by the block size instead
        of their length passes every block-size replay but not the
        right-sized one, whose buffers it lays out wrongly (its reads
        follow its own writes, so the logits still agree): construction
        falls back to numpy."""
        render = compiled_mod.render_step_source

        def block_stride(shape, blas_int64):
            source = render(shape, blas_int64)
            # per layer: the K and V cache writes, the scores, the mix
            assert source.count("*cap") == 4 * shape.n_layers
            return source.replace("*cap", f"*{shape.block_size}")

        monkeypatch.setattr(compiled_mod, "render_step_source", block_stride)
        monkeypatch.setenv("REPRO_KERNEL_CACHE", str(tmp_path))
        monkeypatch.setattr(compiled_mod, "_LIB_CACHE", {})
        monkeypatch.setattr(inference_mod, "_BACKEND_FALLBACK_EMITTED", False)
        registry = get_registry()
        before = dict(registry.values()).get("backend.fallbacks", 0)
        inf = GPT2Inference(_tiny_model(), backend="compiled")
        assert inf.backend_name == "numpy"
        assert dict(registry.values()).get("backend.fallbacks", 0) == before + 1
        assert list(tmp_path.glob("step-*.so")), "the broken kernel never compiled"
        assert "KV cache differs at batch=2, capacity 4, layer 0" in capsys.readouterr().err


class TestShortBuffers:
    """A call that would run past a cache's buffers -- a right-sized
    gather or a ``trimmed()`` cache, both shorter than the block size --
    raises the typed overflow error before any counter or byte moves."""

    @pytest.mark.parametrize("backend", ["numpy", pytest.param("compiled", marks=needs_cc)])
    @pytest.mark.parametrize("short", ["gather", "trimmed"])
    def test_overflow_raises_before_anything_moves(self, backend, short):
        inf = GPT2Inference(_tiny_model(), backend=backend)
        assert inf.backend_name == backend
        _, primed = inf.start(np.array([[1, 2, 3], [4, 5, 6]]))
        cache = primed.gather([1, 0], capacity=3) if short == "gather" else primed.trimmed()
        assert cache.keys[0].shape[2] == cache.length == 3
        counters = dataclasses.asdict(inf.counters)
        kv = [buf.tobytes() for buf in (*cache.keys, *cache.values)]
        with pytest.raises(ValueError, match="cache overflow: 4 > buffer length 3"):
            inf.step(np.array([7, 8]), cache)
        with pytest.raises(ValueError, match="cache overflow: 5 > buffer length 3"):
            inf.extend(np.array([[7, 8], [9, 10]]), cache)
        assert dataclasses.asdict(inf.counters) == counters
        assert cache.length == 3
        assert [buf.tobytes() for buf in (*cache.keys, *cache.values)] == kv


class TestTokenIds:
    """Ids numpy would wrap (-1) or index past (vocab_size) raise on both
    backends, and the cache is left exactly as it was."""

    @pytest.mark.parametrize("backend", ["numpy", pytest.param("compiled", marks=needs_cc)])
    @pytest.mark.parametrize("bad", [-1, 61])
    def test_out_of_range_ids_raise_before_the_cache_moves(self, backend, bad):
        model = _tiny_model()
        assert model.config.vocab_size == 61
        inf = GPT2Inference(model, backend=backend)
        assert inf.backend_name == backend
        with pytest.raises(IndexError):
            inf.start(np.array([[1, bad, 3], [4, 5, 6]]))
        _, cache = inf.start(np.array([[1, 2, 3], [4, 5, 6]]))
        kv = [buf.tobytes() for buf in (*cache.keys, *cache.values)]
        with pytest.raises(IndexError):
            inf.extend(np.array([[7, 8], [bad, 9]]), cache)
        with pytest.raises(IndexError):
            inf.step(np.array([bad, 3]), cache)
        assert cache.length == 3
        assert [buf.tobytes() for buf in (*cache.keys, *cache.values)] == kv


@needs_cc
class TestThreads:
    def test_engines_on_threads_match_serial_runs(self):
        """ctypes releases the GIL inside every kernel call, so engines
        stepping on threads really interleave; each must still produce
        the bytes of a serial run, logits and KV caches alike."""
        model = _tiny_model(block_size=24)
        cfg = model.config
        n_threads, rollouts, batch = 4, 8, 8  # more threads than cores

        def run(seed):
            engine = GPT2Inference(model, backend="compiled")
            assert engine.backend_name == "compiled"
            rng = np.random.default_rng(seed)
            out = []
            for _ in range(rollouts):
                cache = KVCache(
                    cfg.n_layers, batch, cfg.n_heads, cfg.block_size, cfg.dim // cfg.n_heads
                )
                for _ in range(cfg.block_size):
                    ids = rng.integers(0, cfg.vocab_size, size=batch)
                    out.append(engine.step(ids, cache).tobytes())
                out.extend(buf.tobytes() for buf in (*cache.keys, *cache.values))
            return out

        serial = [run(seed) for seed in range(n_threads)]
        results, errors = [None] * n_threads, []
        barrier = threading.Barrier(n_threads)

        def worker(i):
            try:
                barrier.wait(timeout=30)
                results[i] = run(i)
            except BaseException as exc:  # noqa: BLE001 — reported below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [
                threading.Thread(target=worker, args=(i,), daemon=True)
                for i in range(n_threads)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
                assert not thread.is_alive(), "engine thread did not finish"
        finally:
            sys.setswitchinterval(interval)
        assert not errors, errors
        assert results == serial


# ----------------------------------------------------------------------
# Kernel cache + fallback
# ----------------------------------------------------------------------


@needs_cc
class TestKernelCache:
    def test_reuse_across_instances_in_memory(self):
        model = _tiny_model(vocab_size=53)
        registry = get_registry()
        GPT2Inference(model, backend="compiled")
        compiled_before = dict(registry.values()).get("backend.kernels_compiled", 0)
        hits_before = dict(registry.values()).get("backend.cache_hits", 0)
        GPT2Inference(model, backend="compiled")  # same shape -> cache hit
        values = dict(registry.values())
        assert values.get("backend.kernels_compiled", 0) == compiled_before
        assert values.get("backend.cache_hits", 0) == hits_before + 1

    def test_disk_cache_survives_without_compiler(self, tmp_path, monkeypatch):
        monkeypatch.setenv(bk.BACKEND_ENV, "numpy")  # isolate from session env
        monkeypatch.setenv("REPRO_KERNEL_CACHE", str(tmp_path))
        model = _tiny_model(vocab_size=47)
        monkeypatch.setattr(compiled_mod, "_LIB_CACHE", {})
        first = GPT2Inference(model, backend="compiled")
        assert first.backend_name == "compiled"
        assert list(tmp_path.glob("step-*.so")), "library not published to disk cache"
        assert list(tmp_path.glob("step-*.c")), "source not kept beside the library"
        # New process-equivalent state: empty memory cache, no compiler.
        monkeypatch.setattr(compiled_mod, "_LIB_CACHE", {})
        monkeypatch.setenv("CC", "/nonexistent-compiler")
        second = GPT2Inference(model, backend="compiled")
        assert second.backend_name == "compiled", "disk-cached kernel was not reused"

    def test_compile_metrics_registered(self):
        model = _tiny_model(vocab_size=43, block_size=12)
        registry = get_registry()
        before = dict(registry.values())
        GPT2Inference(model, backend="compiled")  # fresh shape -> compile or disk hit
        values = dict(registry.values())
        compiled = values.get("backend.kernels_compiled", 0) - before.get(
            "backend.kernels_compiled", 0
        )
        hits = values.get("backend.cache_hits", 0) - before.get("backend.cache_hits", 0)
        assert compiled + hits >= 1
        if compiled:
            assert values.get("backend.compile_seconds", 0) > 0


class TestFallback:
    def test_masked_compiler_falls_back_with_event(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("CC", "/nonexistent-compiler")
        monkeypatch.setenv("REPRO_KERNEL_CACHE", str(tmp_path / "empty"))
        monkeypatch.setattr(compiled_mod, "_LIB_CACHE", {})
        monkeypatch.setattr(inference_mod, "_BACKEND_FALLBACK_EMITTED", False)
        model = _tiny_model()
        registry = get_registry()
        before = dict(registry.values()).get("backend.fallbacks", 0)
        tele_dir = tmp_path / "tele"
        with telemetry_session(str(tele_dir)):
            inf = GPT2Inference(model, backend="compiled")
            assert inf.backend_name == "numpy"
            # the campaign still runs on the numpy path
            cfg = model.config
            cache = KVCache(
                cfg.n_layers, 1, cfg.n_heads, cfg.block_size, cfg.dim // cfg.n_heads
            )
            logits = inf.step(np.array([1]), cache)
            assert logits.shape == (1, cfg.vocab_size)
        assert dict(registry.values()).get("backend.fallbacks", 0) == before + 1
        err = capsys.readouterr().err
        assert "falling back to numpy" in err
        events = [
            e
            for e in read_events(tele_dir / "telemetry.jsonl")
            if e.get("event") == "backend_fallback"
        ]
        assert len(events) == 1
        assert events[0]["fields"]["active"] == "numpy"

    def test_fallback_warns_once_per_process(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("CC", "/nonexistent-compiler")
        monkeypatch.setenv("REPRO_KERNEL_CACHE", str(tmp_path / "empty"))
        monkeypatch.setattr(compiled_mod, "_LIB_CACHE", {})
        monkeypatch.setattr(inference_mod, "_BACKEND_FALLBACK_EMITTED", False)
        model = _tiny_model()
        registry = get_registry()
        before = dict(registry.values()).get("backend.fallbacks", 0)
        assert GPT2Inference(model, backend="compiled").backend_name == "numpy"
        assert GPT2Inference(model, backend="compiled").backend_name == "numpy"
        # counter counts every fallback; stderr warns only once
        assert dict(registry.values()).get("backend.fallbacks", 0) == before + 2
        assert capsys.readouterr().err.count("falling back to numpy") == 1

    def test_explicit_numpy_backend_never_compiles(self, monkeypatch):
        monkeypatch.setenv(bk.BACKEND_ENV, "compiled")  # env says compiled...
        inf = GPT2Inference(_tiny_model(), backend="numpy")  # ...argument wins
        assert inf.backend_name == "numpy"
        assert inf._compiled is None
