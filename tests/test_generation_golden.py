"""Golden-stream regression: optimisations must not change a single byte.

The committed fixture ``tests/golden/streams.json`` was produced by
``tests/goldens.py`` *before* the inference fast path landed; these tests
assert the current code reproduces it exactly — for serial and parallel
execution, several batch widths, journaled resume, and the
pattern-guided and free-sampling streams of both GPT models.  A
failure here means an "optimisation" changed what the generators sample.
"""

import hashlib
import json
import math
import shutil

import numpy as np
import pytest

from repro.generation import DCGenConfig, DCGenerator, OrderedGenerator, plan_digest
from repro.nn.backend import CompiledStepBackend, compiler_available
from repro.nn.inference import GPT2Inference, KVCache
from repro.runtime import faults
from repro.runtime.faults import InjectedFault

from tests.goldens import (
    CRASH_JOURNALS,
    FREE_STREAMS,
    GOLDEN_PATH,
    GUIDED_MODELS,
    SPEC,
    build_model,
    generate_campaign,
    generate_guided_streams,
    generate_ordered_stream,
    ordered_config,
)

needs_cc = pytest.mark.skipif(not compiler_available(), reason="no C compiler available")


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_PATH.read_text())


@pytest.fixture(autouse=True)
def _backend(monkeypatch):
    """The module-level tests hold the numpy reference to the fixture
    (compiled is the default wherever a C compiler exists);
    :class:`TestCompiledBackendGolden` overrides this to cover compiled."""
    monkeypatch.setenv("REPRO_BACKEND", "numpy")


def _dcgen_stream(workers: int, gen_batch: int, journal=None, resume=False):
    model = build_model()
    dc = SPEC["dcgen"]
    gen = DCGenerator(
        model,
        DCGenConfig(threshold=dc["threshold"], gen_batch=gen_batch, workers=workers),
    )
    stream = gen.generate(dc["total"], seed=dc["seed"], journal=journal, resume=resume)
    return stream, plan_digest(gen.leaf_tasks)


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("gen_batch", [37, 256])
def test_dcgen_stream_byte_identical(golden, workers, gen_batch):
    stream, digest = _dcgen_stream(workers, gen_batch)
    assert digest == golden["plan_digest"]
    assert stream == golden["dcgen"]
    assert hashlib.sha256("\n".join(stream).encode()).hexdigest() == golden["dcgen_sha256"]


@pytest.mark.parametrize("workers", [1, 2])
def test_free_stream_byte_identical(golden, workers):
    """Free sampling of both GPT models (one shared task campaign)."""
    for key, kind in FREE_STREAMS.items():
        model = build_model(kind)
        assert model.inference.backend_name == "numpy"
        stream = model.generate(SPEC["free"]["n"], seed=SPEC["free"]["seed"], workers=workers)
        assert stream == golden[key], key
        assert hashlib.sha256("\n".join(stream).encode()).hexdigest() == golden[f"{key}_sha256"]


def test_journaled_resume_validates_plan_digest(golden, tmp_path):
    """A journaled run resumes against the same plan digest and stream."""
    journal = tmp_path / "run.jsonl"
    first, digest = _dcgen_stream(1, 256, journal=journal)
    assert digest == golden["plan_digest"]
    header = json.loads(journal.read_text().splitlines()[0])
    assert header["payload"]["plan"] == golden["plan_digest"]
    # Resume replays the journaled batches and must emit the same bytes.
    resumed, _ = _dcgen_stream(1, 256, journal=journal, resume=True)
    assert resumed == first == golden["dcgen"]


@pytest.mark.parametrize("kind", sorted(CRASH_JOURNALS))
def test_committed_crash_journal_resumes_to_golden(golden, kind, tmp_path):
    """A crashed journal written by the fixture's code resumes to the
    golden bytes: the header and payload keys are still read the same."""
    fault, committed = CRASH_JOURNALS[kind]
    journal = tmp_path / committed.name
    shutil.copy(committed, journal)  # resume appends to (and may repair) it
    records = len(journal.read_text().splitlines()) - 1  # minus header
    assert records == int(fault.rsplit(":", 1)[1])
    assert generate_campaign(kind, journal=journal, resume=True) == golden[kind]


@pytest.mark.parametrize("snapshot_every", [1, 4])
def test_ordered_stream_byte_identical(golden, snapshot_every):
    """The best-first stream is deterministic for any journal cadence."""
    stream = generate_ordered_stream(snapshot_every=snapshot_every)
    assert stream == golden["ordered"]
    digest = hashlib.sha256("\n".join(stream).encode()).hexdigest()
    assert digest == golden["ordered_sha256"]


def test_ordered_counters_pinned():
    """The golden stream does not cover the pop, hold and prune
    accounting, so the counters of the golden campaign are pinned too."""
    gen = OrderedGenerator.for_patterns(build_model(), config=ordered_config())
    gen.generate(SPEC["ordered"]["n"])
    stats = gen.stats
    assert (
        stats.rounds,
        stats.pops,
        stats.expansions,
        stats.model_calls,
        stats.emitted,
        stats.truncated_nodes,
    ) == (361, 11734, 11492, 853, 120, 268823)
    assert not stats.exhausted
    assert stats.truncated_mass == pytest.approx(0.9885961863170567, rel=1e-12)
    # A pruned prefix (p 7.4e-5) beats the first guess (p 1.78e-5), so no
    # emitted guess is provably among the true top 120.
    assert math.exp(-stats.truncated_best_neg) == pytest.approx(7.404439885394527e-05, rel=1e-9)
    assert stats.exact_prefix == 0


@pytest.mark.parametrize("snapshot_every", [2, 5])
def test_ordered_crash_resume_byte_identical(golden, snapshot_every, tmp_path, monkeypatch):
    """A crashed-and-resumed ordered campaign reproduces the golden bytes.

    Two snapshot intervals exercise different crash points in the
    enumeration; both must splice back into the identical stream.
    """
    journal = tmp_path / "run.jsonl"
    monkeypatch.setenv(faults.FAULT_ENV, "crash:frontier:2")
    faults.reset()
    with pytest.raises(InjectedFault):
        generate_ordered_stream(snapshot_every=snapshot_every, journal=journal)
    monkeypatch.delenv(faults.FAULT_ENV)
    faults.reset()
    assert journal.exists()
    snapshots = len(journal.read_text().splitlines()) - 1  # minus header
    assert snapshots == 2  # the fault fired after exactly two clean writes
    resumed = generate_ordered_stream(
        snapshot_every=snapshot_every, journal=journal, resume=True
    )
    assert resumed == golden["ordered"]


def test_guided_streams_byte_identical(golden):
    """``generate_with_pattern`` of both GPT models, two batches each."""
    assert generate_guided_streams() == golden["guided"]


def test_fixture_self_consistent(golden):
    assert golden["spec"] == SPEC  # fixture was built from the current spec
    for key in ("dcgen", *FREE_STREAMS, "ordered"):
        digest = hashlib.sha256("\n".join(golden[key]).encode()).hexdigest()
        assert digest == golden[f"{key}_sha256"]
    guided = SPEC["guided"]
    assert sorted(golden["guided"]) == sorted(
        f"{kind}/{pattern}" for kind in GUIDED_MODELS for pattern in guided["patterns"]
    )
    assert {len(stream) for stream in golden["guided"].values()} == {guided["n"]}


@pytest.mark.skipif(not compiler_available(), reason="no C compiler available")
class TestCompiledBackendGolden:
    """The compiled decode backend is held to the same fixture bytes.

    ``REPRO_BACKEND=compiled`` swaps the decode step and the prefill
    (``start``/``extend``) for the fused C path (``repro.nn.backend``);
    every strategy must still emit
    the identical golden stream, serial and multi-process (forked
    workers inherit the loaded kernel library copy-on-write).
    """

    @pytest.fixture(autouse=True)
    def _backend(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "compiled")

    @pytest.mark.parametrize("workers", [1, 2])
    def test_dcgen_stream_byte_identical(self, golden, workers):
        model = build_model()
        assert model.inference.backend_name == "compiled", "backend fell back"
        dc = SPEC["dcgen"]
        gen = DCGenerator(model, DCGenConfig(threshold=dc["threshold"], workers=workers))
        stream = gen.generate(dc["total"], seed=dc["seed"])
        assert stream == golden["dcgen"]

    @pytest.mark.parametrize("workers", [1, 2])
    def test_free_stream_byte_identical(self, golden, workers):
        for key, kind in FREE_STREAMS.items():
            model = build_model(kind)
            assert model.inference.backend_name == "compiled", "backend fell back"
            stream = model.generate(SPEC["free"]["n"], seed=SPEC["free"]["seed"], workers=workers)
            assert stream == golden[key], key

    def test_ordered_stream_byte_identical(self, golden):
        stream = generate_ordered_stream(snapshot_every=4)
        assert stream == golden["ordered"]

    def test_guided_streams_byte_identical(self, golden):
        assert build_model("PassGPT").inference.backend_name == "compiled", "backend fell back"
        assert generate_guided_streams() == golden["guided"]


def _fill_headroom(cache):
    for buf in (*cache.keys, *cache.values):
        buf[:, :, cache.length :] = np.nan
    return cache


@pytest.fixture
def nan_headroom(monkeypatch):
    """Every KV buffer holds NaN past ``length`` after ``__init__``,
    ``gather`` and ``trimmed``: a kernel that read past the filled region
    would turn the golden streams to garbage."""
    init, gather, trimmed = KVCache.__init__, KVCache.gather, KVCache.trimmed

    def nan_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        _fill_headroom(self)

    def nan_gather(self, indices, capacity=None):
        return _fill_headroom(gather(self, indices, capacity))

    monkeypatch.setattr(KVCache, "__init__", nan_init)
    monkeypatch.setattr(KVCache, "gather", nan_gather)
    monkeypatch.setattr(KVCache, "trimmed", lambda self: _fill_headroom(trimmed(self)))


def _run_golden(kind: str):
    """The serial golden run of ``kind`` via the public API."""
    if kind == "ordered":
        return generate_ordered_stream()
    if kind == "guided":
        return generate_guided_streams()
    return generate_campaign(kind)


@pytest.mark.parametrize("backend", ["numpy", pytest.param("compiled", marks=needs_cc)])
@pytest.mark.parametrize("kind", ["dcgen", "free", "ordered", "guided"])
def test_kv_headroom_is_never_read(golden, nan_headroom, monkeypatch, backend, kind):
    monkeypatch.setenv("REPRO_BACKEND", backend)
    inference = build_model().inference
    assert inference.backend_name == backend  # the canary passes on NaN headroom too
    cache = inference.start(np.array([[1, 2]]))[1]
    assert np.isnan(cache.keys[0][:, :, 2:]).all()  # the fixture is live
    assert _run_golden(kind) == golden[kind]


@pytest.mark.parametrize("backend", ["numpy", pytest.param("compiled", marks=needs_cc)])
@pytest.mark.parametrize("kind", ["dcgen", "ordered", "guided"])
def test_gathered_caches_end_exactly_full(golden, monkeypatch, backend, kind):
    """Every cache D&C-GEN, ordered and pattern-guided generation gather
    is sized to what they fill: after its last kernel call, ``length``
    equals the buffer length.  A capacity formula one too small
    overflows; one too large fails here."""
    monkeypatch.setenv("REPRO_BACKEND", backend)
    probes = []
    gather = KVCache.gather

    def probed_gather(self, indices, capacity=None):
        out = gather(self, indices, capacity)
        out.probe = {"buffer": out.keys[0].shape[2], "length": out.length,
                     "calls": 0, "kernel_calls": 0}
        probes.append(out.probe)
        return out

    def counted(method, counter):
        def call(self, ids, cache):
            logits = method(self, ids, cache)
            probe = getattr(cache, "probe", None)
            if probe is not None:
                probe[counter] += 1
                probe["length"] = cache.length
            return logits

        return call

    monkeypatch.setattr(KVCache, "gather", probed_gather)
    for name in ("extend", "step"):
        monkeypatch.setattr(GPT2Inference, name, counted(getattr(GPT2Inference, name), "calls"))
    if backend == "compiled":
        for name in ("prefill", "step"):
            kernel = getattr(CompiledStepBackend, name)
            monkeypatch.setattr(CompiledStepBackend, name, counted(kernel, "kernel_calls"))
    assert _run_golden(kind) == golden[kind]
    assert any(probe["calls"] for probe in probes)
    for probe in probes:
        assert probe["length"] == probe["buffer"], probe
        if backend == "compiled":  # right-sized caches stay on the kernels
            assert probe["kernel_calls"] == probe["calls"], probe
