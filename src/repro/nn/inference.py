"""Fast inference path for :class:`GPT2Model` with a KV cache.

Generation (especially D&C-GEN, which queries thousands of next-token
distributions) dominates runtime, so this module re-implements the GPT-2
forward pass in plain numpy over a key/value cache instead of walking
the autograd graph.  Equivalence with the training path is enforced by
tests (`tests/test_nn_inference.py`,
`tests/test_nn_inference_fastpath.py`).

Fast-path design (inference fast-path v2):

* **float32 end-to-end** — weights are stored in float32; every kernel
  keeps activations in float32 (the scale constant is a float32 scalar,
  so numpy's NEP-50 promotion never silently upcasts a matmul chain to
  float64).
* **seq==1 decode kernel** (:meth:`GPT2Inference.step`) — single-token
  decoding skips causal-mask construction and ``np.where`` entirely (a
  lone query attends to everything cached), avoids the 5-D
  reshape/transpose round-trip of the general path, and reuses
  per-cache scratch buffers for the QKV/attention/MLP matmuls.
* **compiled kernels** (:mod:`repro.nn.backend`) — where a C compiler
  exists, both the decode step and priming (:meth:`GPT2Inference.start`
  / :meth:`GPT2Inference.extend`) run fused C kernels that reproduce
  the numpy reference kernels here (``_step_numpy``, ``_prefill_numpy``)
  bit-for-bit; calls outside the kernels' validated domain run numpy.
* **prompt deduplication** (:class:`PromptCache` +
  :meth:`KVCache.gather`) — a shared prompt is primed once, stored
  trimmed to its filled region, and fanned out to any batch width with
  a vectorised row gather instead of being recomputed per row.
* **right-sized caches** — a gather allocates only the positions its
  caller will fill (D&C-GEN and ordered pass their final length) and
  copies only the filled region; nothing reads past ``length``, so the
  headroom is never zeroed.
* **instrumentation** (:class:`InferenceCounters`) — every forward
  records how many rows×positions it primed, which is the FLOPs proxy
  the tests use to detect de-dedup regressions, on the engine and in
  the process-wide ``inference.*`` registry counters.
"""

from __future__ import annotations

import sys
from collections import OrderedDict
from dataclasses import dataclass, fields

import numpy as np

from ..telemetry.metrics import get_registry
from .transformer import GPT2Model

_NEG_INF = -1e9

# One backend_fallback warning/event per process: campaigns build many
# GPT2Inference instances (per worker, per lab model) and a missing
# compiler should not flood stderr or the telemetry stream.
_BACKEND_FALLBACK_EMITTED = False


def _note_backend_fallback(reason: str) -> None:
    global _BACKEND_FALLBACK_EMITTED
    get_registry().counter("backend.fallbacks").inc()
    if _BACKEND_FALLBACK_EMITTED:
        return
    _BACKEND_FALLBACK_EMITTED = True
    print(
        f"repro: compiled backend unavailable, falling back to numpy: {reason}",
        file=sys.stderr,
    )
    from ..telemetry.tracing import emit

    emit("backend_fallback", requested="compiled", active="numpy", reason=reason)


# Python-float constant: a np.float64 scalar here would upcast every
# activation chain to float64 under NEP-50 promotion.
_GELU_C = float(np.sqrt(2.0 / np.pi))


def _gelu(x: np.ndarray) -> np.ndarray:
    # x*x*x instead of x**3: numpy's pow loop is ~100x slower elementwise.
    return 0.5 * x * (1.0 + np.tanh(_GELU_C * (x + 0.044715 * (x * x * x))))


def _layer_norm(x: np.ndarray, w: np.ndarray, b: np.ndarray, eps: float = 1e-5) -> np.ndarray:
    mu = x.mean(axis=-1, keepdims=True)
    var = x.var(axis=-1, keepdims=True)
    return (x - mu) / np.sqrt(var + eps) * w + b


def _softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    shifted = x - x.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=axis, keepdims=True)


@dataclass
class _BlockWeights:
    ln1_w: np.ndarray
    ln1_b: np.ndarray
    qkv_w: np.ndarray
    qkv_b: np.ndarray
    proj_w: np.ndarray
    proj_b: np.ndarray
    ln2_w: np.ndarray
    ln2_b: np.ndarray
    fc_w: np.ndarray
    fc_b: np.ndarray
    fc_proj_w: np.ndarray
    fc_proj_b: np.ndarray


@dataclass
class InferenceCounters:
    """Physical forward-pass accounting for one :class:`GPT2Inference`.

    ``prime_positions`` (rows × tokens written into KV caches) is the
    priming FLOPs proxy: with prefix-deduplicated priming it grows with
    the number of *unique* prefixes, not the number of sampled rows.
    The tests compare it against the planned budget to catch accidental
    de-deduplication deterministically.  These are one engine's counts;
    the registry's ``inference.<field>`` counters sum every engine's.
    """

    calls: int = 0  # every forward invocation (full + prime + step)
    full_calls: int = 0
    full_positions: int = 0
    prime_calls: int = 0
    prime_positions: int = 0
    step_calls: int = 0
    step_rows: int = 0

    def reset(self) -> None:
        for field in fields(self):
            setattr(self, field.name, 0)


class KVCache:
    """Per-layer key/value cache for a generation batch.

    Invariant: positions ``[0, length)`` of every buffer are filled; the
    remainder up to the buffer length is headroom for future decode
    steps, and no kernel reads it before writing it.  A fresh cache
    holds zeroed ``block_size``-position buffers; :meth:`gather` sizes
    its buffers to the ``capacity`` the caller will fill and leaves the
    headroom uninitialised.
    """

    def __init__(self, n_layers: int, batch: int, n_heads: int, block_size: int, head_dim: int) -> None:
        shape = (batch, n_heads, block_size, head_dim)
        self.keys = [np.zeros(shape, dtype=np.float32) for _ in range(n_layers)]
        self.values = [np.zeros(shape, dtype=np.float32) for _ in range(n_layers)]
        self.length = 0
        self.batch = batch
        #: Positions a :meth:`gather` from this cache holds by default:
        #: the model's block size, or the capacity a gather was given.
        self.capacity = block_size
        #: Per-layer scratch reused by the seq==1 decode kernel.
        self._scratch: dict | None = None

    def gather(self, indices: np.ndarray, capacity: int | None = None) -> "KVCache":
        """Return a new cache whose rows are ``self``'s rows at ``indices``.

        ``indices`` may repeat and reorder rows arbitrarily, which makes
        this the one primitive behind batch splitting, prompt fan-out and
        D&C-GEN's unique-prefix → full-row expansion.  The result owns
        fresh buffers of ``capacity`` positions (default:
        ``self.capacity``), never shared with the source; only the filled
        ``[0, length)`` region is copied, and the headroom past it is
        left uninitialised.  Callers that know how far they will decode
        pass exactly that length, so a fan-out allocates and touches no
        more than it fills.
        """
        indices = np.asarray(indices, dtype=np.intp)
        capacity = self.capacity if capacity is None else int(capacity)
        filled = self.length
        if capacity < filled:
            raise ValueError(f"capacity {capacity} < filled length {filled}")
        out = KVCache.__new__(KVCache)
        n = int(len(indices))
        out.keys = []
        out.values = []
        for k, v in zip(self.keys, self.values):
            shape = (n, k.shape[1], capacity, k.shape[3])
            nk = np.empty(shape, dtype=np.float32)
            nv = np.empty(shape, dtype=np.float32)
            if filled:
                nk[:, :, :filled] = k[indices, :, :filled]
                nv[:, :, :filled] = v[indices, :, :filled]
            out.keys.append(nk)
            out.values.append(nv)
        out.length = filled
        out.batch = n
        out.capacity = capacity
        out._scratch = None
        return out

    def trimmed(self) -> "KVCache":
        """Compact deep copy holding only the filled ``[0, length)`` region.

        Used by :class:`PromptCache` to store primed prompts densely.
        ``capacity`` is kept, so :meth:`gather` on a trimmed cache
        allocates the source's capacity unless told otherwise.
        """
        out = KVCache.__new__(KVCache)
        filled = self.length
        out.keys = [np.ascontiguousarray(k[:, :, :filled]) for k in self.keys]
        out.values = [np.ascontiguousarray(v[:, :, :filled]) for v in self.values]
        out.length = filled
        out.batch = self.batch
        out.capacity = self.capacity
        out._scratch = None
        return out


class GPT2Inference:
    """Numpy forward pass over a trained :class:`GPT2Model`'s weights.

    The instance snapshots the model weights at construction time (the
    arrays are shared, not copied); rebuild it after further training
    steps.  All paths compute in float32.

    ``backend`` selects the cached-forward kernels: ``"numpy"`` is the
    reference implementation below; ``"compiled"`` runs :meth:`step`,
    :meth:`start` and :meth:`extend` on the fused C kernels in
    :mod:`repro.nn.backend`, which reproduce the reference bit-for-bit
    (enforced by an init-time parity canary; any failure degrades to
    numpy with a warning).  When ``backend`` is None,
    :func:`repro.nn.backend.requested_backend` decides: the
    ``REPRO_BACKEND`` environment variable, else ``"compiled"`` when a C
    compiler is available.

    Token ids outside ``[0, vocab_size)`` raise :class:`IndexError` from
    :meth:`start`, :meth:`extend` and :meth:`step` on either backend,
    before the cache is touched.
    """

    def __init__(self, model: GPT2Model, backend: str | None = None) -> None:
        cfg = model.config
        self.config = cfg
        self.token_emb = model.token_emb.weight.data
        self.pos_emb = model.pos_emb.weight.data
        self.ln_f_w = model.ln_f.weight.data
        self.ln_f_b = model.ln_f.bias.data
        if model.lm_head is not None:
            self.lm_head = model.lm_head.weight.data
        else:
            self.lm_head = self.token_emb.T
        self.blocks = [
            _BlockWeights(
                ln1_w=b.ln1.weight.data,
                ln1_b=b.ln1.bias.data,
                qkv_w=b.attn.qkv.weight.data,
                qkv_b=b.attn.qkv.bias.data,
                proj_w=b.attn.proj.weight.data,
                proj_b=b.attn.proj.bias.data,
                ln2_w=b.ln2.weight.data,
                ln2_b=b.ln2.bias.data,
                fc_w=b.fc.weight.data,
                fc_b=b.fc.bias.data,
                fc_proj_w=b.fc_proj.weight.data,
                fc_proj_b=b.fc_proj.bias.data,
            )
            for b in model.blocks
        ]
        self._vocab = int(self.token_emb.shape[0])
        # float32 scalar: dividing by a float64 scalar would upcast the
        # whole activation chain to float64 under NEP-50 promotion.
        self._kscale = np.float32(np.sqrt(cfg.dim // cfg.n_heads))
        self.counters = InferenceCounters()
        # The process-wide ``inference.*`` counters, held by reference so
        # a forward call neither looks a name up nor takes the registry lock.
        registry = get_registry()
        self._totals = {
            field.name: registry.counter(f"inference.{field.name}")
            for field in fields(InferenceCounters)
        }

        from .backend import requested_backend

        self._compiled = None
        self.backend_name = "numpy"
        if requested_backend(backend) == "compiled":
            try:
                from .backend import CompiledStepBackend

                self._compiled = CompiledStepBackend(self)
                self.backend_name = "compiled"
            except Exception as exc:  # missing cc, compile error, parity failure
                _note_backend_fallback(str(exc))

    # ------------------------------------------------------------------
    # Full-sequence forward (no cache)
    # ------------------------------------------------------------------
    def logits(self, ids: np.ndarray, last_only: bool = False) -> np.ndarray:
        """Next-token logits; ids shape ``(B, S)``.

        By default every position is projected through ``lm_head`` and
        the result has shape ``(B, S, vocab)``.  ``last_only=True``
        projects just the final position — shape ``(B, vocab)`` — which
        is what next-token queries need and skips ``(S-1)/S`` of the
        output-projection work.
        """
        ids = np.asarray(ids)
        batch, seq = ids.shape
        cfg = self.config
        if seq > cfg.block_size:
            raise ValueError(f"sequence length {seq} exceeds block size {cfg.block_size}")
        self._count("full_calls", "full_positions", batch * seq)
        x = self.token_emb[ids] + self.pos_emb[:seq]
        mask = np.triu(np.ones((seq, seq), dtype=bool), k=1)
        for bw in self.blocks:
            x = x + self._attention(_layer_norm(x, bw.ln1_w, bw.ln1_b), bw, mask)
            h = _layer_norm(x, bw.ln2_w, bw.ln2_b)
            x = x + _gelu(h @ bw.fc_w + bw.fc_b) @ bw.fc_proj_w + bw.fc_proj_b
        if last_only:
            return _layer_norm(x[:, -1], self.ln_f_w, self.ln_f_b) @ self.lm_head
        x = _layer_norm(x, self.ln_f_w, self.ln_f_b)
        return x @ self.lm_head

    def _attention(self, x: np.ndarray, bw: _BlockWeights, mask: np.ndarray) -> np.ndarray:
        cfg = self.config
        batch, seq, _ = x.shape
        qkv = x @ bw.qkv_w + bw.qkv_b
        qkv = qkv.reshape(batch, seq, 3, cfg.n_heads, cfg.dim // cfg.n_heads)
        qkv = qkv.transpose(2, 0, 3, 1, 4)
        q, k, v = qkv[0], qkv[1], qkv[2]
        scores = q @ np.swapaxes(k, -1, -2) / self._kscale
        scores = np.where(mask[None, None], _NEG_INF, scores)
        out = _softmax(scores) @ v
        out = out.transpose(0, 2, 1, 3).reshape(batch, seq, cfg.dim)
        return out @ bw.proj_w + bw.proj_b

    # ------------------------------------------------------------------
    # Cached incremental decoding
    # ------------------------------------------------------------------
    def start(self, prompt_ids: np.ndarray) -> tuple[np.ndarray, KVCache]:
        """Prime a fresh KV cache with a prompt.

        Parameters
        ----------
        prompt_ids:
            ``(batch, prompt_len)`` token ids (all rows may differ).

        Returns
        -------
        (last_logits, cache):
            ``last_logits`` has shape ``(batch, vocab)`` — the distribution
            for the token following the prompt.
        """
        prompt_ids = np.asarray(prompt_ids)
        batch, seq = prompt_ids.shape
        cfg = self.config
        cache = KVCache(cfg.n_layers, batch, cfg.n_heads, cfg.block_size, cfg.dim // cfg.n_heads)
        logits = self._forward_cached(prompt_ids, cache)
        return logits, cache

    def extend(self, ids: np.ndarray, cache: KVCache) -> np.ndarray:
        """Feed ``(batch, seq)`` further tokens into an existing cache.

        The multi-token counterpart of :meth:`step`: D&C-GEN uses it to
        append a leaf's already-decided characters onto a shared primed
        prompt instead of re-running the prompt forward per row.
        Returns ``(batch, vocab)`` logits for the next position.
        """
        return self._forward_cached(np.asarray(ids), cache)

    def step(self, next_ids: np.ndarray, cache: KVCache) -> np.ndarray:
        """Feed one more token per row; returns ``(batch, vocab)`` logits.

        Single-token decode kernel: no causal mask is needed (the one
        new query may attend to every cached position), activations stay
        2-D ``(batch, dim)`` end to end, and the QKV/attention/MLP
        matmuls write into scratch buffers kept on the cache.
        """
        ids = np.asarray(next_ids).reshape(-1)
        batch = ids.shape[0]
        self._check_room(cache, cache.length + 1)
        self._check_ids(ids)
        self._count("step_calls", "step_rows", batch)
        backend = self._compiled
        if backend is not None and backend.supports(ids, cache):
            return backend.step(ids, cache)
        return self._step_numpy(ids, cache)

    def _check_room(self, cache: KVCache, stop: int) -> None:
        """Refuse a call that would write past the block size or past
        the cache's buffers (a right-sized or trimmed cache holds fewer
        than ``block_size`` positions)."""
        if stop > self.config.block_size:
            raise ValueError(f"cache overflow: {stop} > block size {self.config.block_size}")
        held = cache.keys[0].shape[2]
        if stop > held:
            raise ValueError(f"cache overflow: {stop} > buffer length {held}")

    def _check_ids(self, ids: np.ndarray) -> None:
        """Refuse ids numpy would wrap (negative) or the kernels would
        read past ``token_emb`` with."""
        if ids.size and (ids.min() < 0 or ids.max() >= self._vocab):
            raise IndexError(f"token id out of range [0, {self._vocab})")

    def _count(self, calls: str, size: str, n: int) -> None:
        """Count one forward call over ``n`` rows or positions under the
        ``calls`` and ``size`` fields, on the engine and process-wide."""
        counters, totals = self.counters, self._totals
        counters.calls += 1
        setattr(counters, calls, getattr(counters, calls) + 1)
        setattr(counters, size, getattr(counters, size) + n)
        totals["calls"].inc()
        totals[calls].inc()
        totals[size].inc(n)

    def _step_numpy(self, ids: np.ndarray, cache: KVCache) -> np.ndarray:
        """Reference seq==1 kernel (counter-free; ids already flattened)."""
        cfg = self.config
        batch = ids.shape[0]
        pos = cache.length
        stop = pos + 1
        dim = cfg.dim
        n_heads = cfg.n_heads
        head_dim = dim // n_heads
        scratch = cache._scratch
        if scratch is None or scratch["qkv"].shape[0] != batch:
            scratch = {
                "qkv": np.empty((batch, 3 * dim), dtype=np.float32),
                "att": np.empty((batch, n_heads, 1, head_dim), dtype=np.float32),
                "ff": np.empty((batch, self.blocks[0].fc_w.shape[1]), dtype=np.float32),
            }
            cache._scratch = scratch
        x = self.token_emb[ids] + self.pos_emb[pos]
        for layer, bw in enumerate(self.blocks):
            h = _layer_norm(x, bw.ln1_w, bw.ln1_b)
            qkv = np.matmul(h, bw.qkv_w, out=scratch["qkv"])
            qkv += bw.qkv_b
            q = qkv[:, :dim].reshape(batch, n_heads, 1, head_dim)
            cache.keys[layer][:, :, pos] = qkv[:, dim : 2 * dim].reshape(batch, n_heads, head_dim)
            cache.values[layer][:, :, pos] = qkv[:, 2 * dim :].reshape(batch, n_heads, head_dim)
            k = cache.keys[layer][:, :, :stop]
            v = cache.values[layer][:, :, :stop]
            scores = q @ np.swapaxes(k, -1, -2)  # (batch, heads, 1, stop)
            scores /= self._kscale
            scores -= scores.max(axis=-1, keepdims=True)
            np.exp(scores, out=scores)
            scores /= scores.sum(axis=-1, keepdims=True)
            att = np.matmul(scores, v, out=scratch["att"])
            x += att.reshape(batch, dim) @ bw.proj_w
            x += bw.proj_b
            h2 = _layer_norm(x, bw.ln2_w, bw.ln2_b)
            ff = np.matmul(h2, bw.fc_w, out=scratch["ff"])
            ff += bw.fc_b
            x += _gelu(ff) @ bw.fc_proj_w
            x += bw.fc_proj_b
        cache.length = stop
        return _layer_norm(x, self.ln_f_w, self.ln_f_b) @ self.lm_head

    def _forward_cached(self, ids: np.ndarray, cache: KVCache) -> np.ndarray:
        """Feed ``(batch, seq)`` ids into ``cache``: the compiled prefill
        when the backend supports the call, else the numpy reference."""
        batch, seq = ids.shape
        self._check_room(cache, cache.length + seq)
        self._check_ids(ids)
        self._count("prime_calls", "prime_positions", batch * seq)
        backend = self._compiled
        if backend is not None and backend.supports(ids, cache):
            return backend.prefill(ids, cache)
        return self._prefill_numpy(ids, cache)

    def _prefill_numpy(self, ids: np.ndarray, cache: KVCache) -> np.ndarray:
        """Reference prefill kernel (counter-free; ids already checked)."""
        cfg = self.config
        batch, seq = ids.shape
        start = cache.length
        stop = start + seq
        head_dim = cfg.dim // cfg.n_heads
        x = self.token_emb[ids] + self.pos_emb[start:stop]
        # causal mask restricted to the new queries attending over [0, stop)
        mask = np.triu(np.ones((seq, stop), dtype=bool), k=1 + start)
        for layer, bw in enumerate(self.blocks):
            h = _layer_norm(x, bw.ln1_w, bw.ln1_b)
            qkv = h @ bw.qkv_w + bw.qkv_b
            qkv = qkv.reshape(batch, seq, 3, cfg.n_heads, head_dim).transpose(2, 0, 3, 1, 4)
            q, k_new, v_new = qkv[0], qkv[1], qkv[2]
            cache.keys[layer][:, :, start:stop] = k_new
            cache.values[layer][:, :, start:stop] = v_new
            k = cache.keys[layer][:, :, :stop]
            v = cache.values[layer][:, :, :stop]
            scores = q @ np.swapaxes(k, -1, -2) / self._kscale
            scores = np.where(mask[None, None], _NEG_INF, scores)
            att = _softmax(scores) @ v
            att = att.transpose(0, 2, 1, 3).reshape(batch, seq, cfg.dim)
            x = x + att @ bw.proj_w + bw.proj_b
            h2 = _layer_norm(x, bw.ln2_w, bw.ln2_b)
            x = x + _gelu(h2 @ bw.fc_w + bw.fc_b) @ bw.fc_proj_w + bw.fc_proj_b
        cache.length = stop
        x_last = _layer_norm(x[:, -1], self.ln_f_w, self.ln_f_b)
        return x_last @ self.lm_head


class PromptCache:
    """LRU of primed prompt KV states, keyed by the prompt's token ids.

    D&C-GEN, pattern-guided generation and free generation all prime
    thousands of rows that share one short prompt (``<BOS> pattern
    <SEP>`` or a bare ``<BOS>``).  This cache primes each distinct
    prompt once through :meth:`GPT2Inference.start`, stores the result
    trimmed to its filled region, and fans it out to any batch width
    via :meth:`KVCache.gather` — turning O(rows × prompt_len) priming
    into O(distinct prompts × prompt_len).

    Entries are immutable by convention: callers must never decode into
    a cache returned by :meth:`lookup` (use :meth:`expand`, which
    returns fresh buffers).  Under the ``fork`` start method a warm
    cache is inherited copy-on-write by worker processes, so prompts
    primed in the parent (e.g. during the D&C-GEN divide phase) are
    never re-primed by workers.
    """

    def __init__(self, inference: GPT2Inference, maxsize: int = 512) -> None:
        if maxsize < 1:
            raise ValueError("maxsize must be >= 1")
        self.inference = inference
        self.maxsize = maxsize
        self._entries: OrderedDict[bytes, tuple[np.ndarray, KVCache]] = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._entries)

    def stats(self) -> dict[str, int]:
        """Lifetime hit/miss/eviction counts plus the current size."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "size": len(self._entries),
        }

    def lookup(self, prompt_ids: np.ndarray) -> tuple[np.ndarray, KVCache]:
        """``(logits, trimmed_cache)`` for a 1-D prompt, priming on miss.

        ``logits`` has shape ``(1, vocab)``; the cache holds one row.
        Both are shared cache state — treat them as read-only.
        """
        ids = np.ascontiguousarray(np.asarray(prompt_ids, dtype=np.int64).reshape(-1))
        key = ids.tobytes()
        entry = self._entries.get(key)
        if entry is not None:
            self.hits += 1
            get_registry().counter("prompt_cache.hits").inc()
            self._entries.move_to_end(key)
            return entry
        self.misses += 1
        get_registry().counter("prompt_cache.misses").inc()
        logits, cache = self.inference.start(ids[None, :])
        entry = (logits, cache.trimmed())
        self._entries[key] = entry
        if len(self._entries) > self.maxsize:
            self._entries.popitem(last=False)
            self.evictions += 1
            get_registry().counter("prompt_cache.evictions").inc()
        return entry

    def expand(
        self, prompt_ids: np.ndarray, rows: int, capacity: int | None = None
    ) -> tuple[np.ndarray, KVCache]:
        """Fan the primed prompt out to ``rows`` identical batch rows.

        Returns ``(logits, cache)`` with ``logits`` of shape
        ``(rows, vocab)`` and a freshly-allocated cache of ``capacity``
        positions (default: the block size) that is safe to decode into;
        see :meth:`KVCache.gather`.
        """
        logits, cache = self.lookup(prompt_ids)
        return (
            np.repeat(logits, rows, axis=0),
            cache.gather(np.zeros(rows, dtype=np.intp), capacity),
        )
