"""Golden-stream fixtures for the inference fast path.

The D&C-GEN, free-generation, ordered and pattern-guided guess streams
are part of the repo's compatibility contract: perf work on the
inference path (KV priming, decode kernels, batching, cache sizing) must
never change a single sampled byte.  This module pins that contract to
committed fixtures:

* :func:`build_model` constructs the deterministic reference model
  (fixed-seed random weights — sampling equivalence must hold for any
  next-token distribution, so training is unnecessary), or the PassGPT
  baseline on the same shape (its guided and free streams are pinned
  too);
* :func:`generate_streams` produces the reference streams through the
  *public* generation API only, so the exact same script reproduces the
  goldens at any commit;
* running ``PYTHONPATH=src python tests/goldens.py`` regenerates
  ``tests/golden/streams.json``.  Only regenerate after a change that is
  *meant* to alter sampling (e.g. a new sampler), never for a pure
  optimisation — the whole point is that optimisations keep these bytes;
* :data:`CRASH_JOURNALS` are journals of crashed golden campaigns,
  committed as written by the code that produced the fixture (rewrite
  them with ``python tests/goldens.py --crash-journals``, under the same
  rule).  Resuming them pins the journal wire format — header and
  payload keys — which journals written and read by the same code
  cannot.

``tests/test_generation_golden.py`` asserts current code reproduces the
committed fixture for workers 1/2 and several ``gen_batch`` widths.

Training numerics are pinned the same way: ``python tests/goldens.py
--training`` rewrites ``tests/golden/training.json`` with the per-epoch
losses and a digest of the final weights of the :data:`TRAINING_SPEC`
runs, and ``tests/test_training.py`` demands them exactly.  Speeding up
the autograd nodes must leave every one of those bits alone.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

GOLDEN_PATH = Path(__file__).parent / "golden" / "streams.json"
TRAINING_PATH = GOLDEN_PATH.parent / "training.json"

#: Crashed golden campaigns: ``kind -> (REPRO_FAULT directive, journal)``.
CRASH_JOURNALS = {
    "dcgen": ("crash:leaf_batch:3", GOLDEN_PATH.parent / "dcgen-crash.journal.jsonl"),
    "free": ("crash:free_chunk:1", GOLDEN_PATH.parent / "free-crash.journal.jsonl"),
}

#: Reference campaign parameters.  Scale is chosen so the full golden
#: suite (4 D&C-GEN runs + 2 free runs) stays test-suite friendly while
#: still covering thousands of sampled positions.
SPEC = {
    "model": {"dim": 64, "n_layers": 2, "n_heads": 4, "seed": 0},
    "pattern_probs": {"L4N2": 0.4, "N6": 0.3, "L3S1N2": 0.2, "L8": 0.1},
    "dcgen": {"total": 1500, "seed": 11, "threshold": 48},
    "free": {"n": 700, "seed": 13},
    "ordered": {"n": 120, "beam_width": 32, "max_frontier": 5000},
    "guided": {"patterns": ["L4N2", "L3S1N2"], "n": 520, "seed": 17},
}

#: Models whose ``generate_with_pattern`` streams the fixture pins.
GUIDED_MODELS = ("PagPassGPT", "PassGPT")

#: Free-sampling streams the fixture pins at ``SPEC["free"]``: key -> model.
FREE_STREAMS = {"free": "PagPassGPT", "free_passgpt": "PassGPT"}

#: Seeded training runs whose losses and final weights the training
#: fixture pins.  Two run at perfbench's training shape; ``dim`` 40 gives
#: layer widths (40, 120, 160) that are not multiples of 16.
TRAINING_SPEC = {
    "corpus": {"site": "rockyou", "entries": 1400, "seed": 5, "train": 800, "val": 100},
    "train": {"epochs": 2, "batch_size": 64, "lr": 2e-3, "seed": 3},
    "model": {"n_layers": 2, "n_heads": 4, "dropout": 0.1},
    "runs": {
        "PagPassGPT": {"model": "PagPassGPT", "dim": 48},
        "PassGPT": {"model": "PassGPT", "dim": 48},
        "PagPassGPT-dim40": {"model": "PagPassGPT", "dim": 40},
    },
}


def build_model(kind: str = "PagPassGPT"):
    """The fixed reference model: deterministic weights, hand-made S_p.

    ``kind="PassGPT"`` builds the baseline on the same GPT shape (it has
    no pattern distribution)."""
    from repro.models import PagPassGPT, PassGPT
    from repro.nn import GPT2Config

    spec = SPEC["model"]
    config = GPT2Config(
        vocab_size=135,
        block_size=32,
        dim=spec["dim"],
        n_layers=spec["n_layers"],
        n_heads=spec["n_heads"],
        dropout=0.0,
    )
    model = {"PagPassGPT": PagPassGPT, "PassGPT": PassGPT}[kind](
        model_config=config, seed=spec["seed"]
    )
    model._fitted = True
    if kind == "PagPassGPT":
        model.pattern_probs = dict(SPEC["pattern_probs"])
    return model


def ordered_config(snapshot_every: int = 4):
    """The reference ordered-enumeration config.

    ``snapshot_every`` is deliberately NOT part of :data:`SPEC`: journal
    cadence must never change the emitted bytes, and the golden resume
    tests exploit that by crashing runs at several intervals.
    """
    from repro.generation import OrderedConfig

    spec = SPEC["ordered"]
    return OrderedConfig(
        beam_width=spec["beam_width"],
        max_frontier=spec["max_frontier"],
        snapshot_every=snapshot_every,
    )


def generate_ordered_stream(snapshot_every: int = 4, journal=None, resume=False):
    """Reference ordered stream via the public generation API."""
    from repro.generation import OrderedGenerator

    gen = OrderedGenerator.for_patterns(
        build_model(), config=ordered_config(snapshot_every)
    )
    return gen.generate(SPEC["ordered"]["n"], journal=journal, resume=resume)


def generate_guided_streams() -> dict:
    """``generate_with_pattern`` streams keyed ``"<model>/<pattern>"``:
    two ``GEN_BATCH`` batches per pattern, via the public API."""
    from repro.tokenizer import Pattern

    guided = SPEC["guided"]
    streams = {}
    for kind in GUIDED_MODELS:
        model = build_model(kind)
        for pattern in guided["patterns"]:
            streams[f"{kind}/{pattern}"] = model.generate_with_pattern(
                Pattern.parse(pattern), guided["n"], seed=guided["seed"]
            )
    return streams


def generate_campaign(kind: str, journal=None, resume=False) -> list[str]:
    """The serial golden D&C-GEN or free campaign via the public API."""
    from repro.generation import DCGenConfig, DCGenerator

    model = build_model()
    if kind == "dcgen":
        dc = SPEC["dcgen"]
        gen = DCGenerator(model, DCGenConfig(threshold=dc["threshold"]))
        return gen.generate(dc["total"], seed=dc["seed"], journal=journal, resume=resume)
    free = SPEC["free"]
    return model.generate(free["n"], seed=free["seed"], journal=journal, resume=resume)


def write_crash_journals() -> None:
    """Rewrite :data:`CRASH_JOURNALS` by crashing each golden campaign."""
    import os

    from repro.runtime import faults

    for kind, (fault, path) in CRASH_JOURNALS.items():
        path.unlink(missing_ok=True)
        os.environ[faults.FAULT_ENV] = fault
        faults.reset()
        try:
            generate_campaign(kind, journal=path)
        except faults.InjectedFault:
            print(f"wrote {path} ({fault})")
        else:
            raise RuntimeError(f"{fault} did not fire")
        finally:
            del os.environ[faults.FAULT_ENV]
            faults.reset()


def generate_streams(workers: int = 1, gen_batch: int | None = None) -> dict:
    """Reference D&C-GEN + free + ordered streams via the public API."""
    from repro.generation import DCGenConfig, DCGenerator, plan_digest
    from repro.generation.sampler import GEN_BATCH

    model = build_model()
    dc = SPEC["dcgen"]
    config = DCGenConfig(
        threshold=dc["threshold"],
        gen_batch=gen_batch or GEN_BATCH,
        workers=workers,
    )
    gen = DCGenerator(model, config)
    dcgen_stream = gen.generate(dc["total"], seed=dc["seed"])
    digest = plan_digest(gen.leaf_tasks)
    free = SPEC["free"]
    free_streams = {}
    for key, kind in FREE_STREAMS.items():
        stream = build_model(kind).generate(free["n"], seed=free["seed"], workers=workers)
        free_streams[key] = stream
        free_streams[f"{key}_sha256"] = hashlib.sha256("\n".join(stream).encode()).hexdigest()
    ordered_stream = generate_ordered_stream()
    return {
        "spec": SPEC,
        "plan_digest": digest,
        "dcgen": dcgen_stream,
        "dcgen_sha256": hashlib.sha256("\n".join(dcgen_stream).encode()).hexdigest(),
        **free_streams,
        "ordered": ordered_stream,
        "ordered_sha256": hashlib.sha256("\n".join(ordered_stream).encode()).hexdigest(),
        "guided": generate_guided_streams(),
    }


def training_corpus() -> tuple[list[str], list[str]]:
    """The (train, validation) passwords of :data:`TRAINING_SPEC`."""
    from repro.datasets import clean_leak, generate_leak

    spec = TRAINING_SPEC["corpus"]
    cleaned, _ = clean_leak(generate_leak(spec["site"], spec["entries"], seed=spec["seed"]))
    n_train = spec["train"]
    return cleaned[:n_train], cleaned[n_train:n_train + spec["val"]]


def train_run(key: str) -> dict:
    """Train the :data:`TRAINING_SPEC` run ``key`` via the public API;
    returns its per-epoch losses and the sha256 of its final weights."""
    from repro.datasets import build_corpus
    from repro.models import PagPassGPT, PassGPT
    from repro.nn import GPT2Config
    from repro.training import TrainConfig

    run = TRAINING_SPEC["runs"][key]
    shape, train = TRAINING_SPEC["model"], TRAINING_SPEC["train"]
    cls = {"PagPassGPT": PagPassGPT, "PassGPT": PassGPT}[run["model"]]
    tokenizer = cls.tokenizer_cls()
    model = cls(
        model_config=GPT2Config(
            vocab_size=len(tokenizer.vocab), block_size=tokenizer.block_size,
            dim=run["dim"], n_layers=shape["n_layers"], n_heads=shape["n_heads"],
            dropout=shape["dropout"],
        ),
        train_config=TrainConfig(epochs=train["epochs"], batch_size=train["batch_size"],
                                 lr=train["lr"], seed=train["seed"]),
        seed=train["seed"],
    )
    passwords, val = training_corpus()
    model.fit(build_corpus(passwords), val_passwords=val)
    digest = hashlib.sha256()
    for name, value in sorted(model.model.state_dict().items()):
        digest.update(name.encode())
        digest.update(value.tobytes())
    return {
        "train_loss": model.history.train_loss,
        "val_loss": model.history.val_loss,
        "weights_sha256": digest.hexdigest(),
    }


def write_training() -> None:
    """Rewrite :data:`TRAINING_PATH` from the current code."""
    runs = {key: train_run(key) for key in TRAINING_SPEC["runs"]}
    TRAINING_PATH.write_text(json.dumps({"spec": TRAINING_SPEC, "runs": runs}, indent=1) + "\n")
    print(f"wrote {TRAINING_PATH}")
    for key, run in runs.items():
        print(f"  {key}: train {run['train_loss']} val {run['val_loss']}")


def main() -> None:
    streams = generate_streams()
    GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
    GOLDEN_PATH.write_text(json.dumps(streams, indent=1) + "\n")
    print(f"wrote {GOLDEN_PATH}")
    print(f"  dcgen:   {len(streams['dcgen'])} guesses, sha {streams['dcgen_sha256'][:16]}")
    for key in FREE_STREAMS:
        print(f"  {key}: {len(streams[key])} guesses, sha {streams[key + '_sha256'][:16]}")
    print(f"  ordered: {len(streams['ordered'])} guesses, sha {streams['ordered_sha256'][:16]}")
    for key, stream in streams["guided"].items():
        print(f"  guided {key}: {len(stream)} guesses")
    print(f"  plan digest: {streams['plan_digest']}")


if __name__ == "__main__":
    import sys

    if "--crash-journals" in sys.argv:
        write_crash_journals()
    elif "--training" in sys.argv:
        write_training()
    else:
        main()
