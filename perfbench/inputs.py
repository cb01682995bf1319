"""Seeded benchmark inputs, and the reference outputs they must produce.

A run's ``--seed`` picks one of :data:`VARIANTS` input sets
(``seed % VARIANTS``): the D&C-GEN campaign seed, the serve request
pool, schedule and payloads, and the training corpus.  The expected
outputs of every input set were recorded once through the library by
``record.py`` and live in ``expected.json``, so the output checks do not
depend on the code under test.

The checkpoint is the same for every seed (init seed
:data:`CHECKPOINT_SEED`): the D&C-GEN plan and the ordered frontier
depend on the weights, and a fixed model keeps the work per campaign the
same size from seed to seed.  The ordered stream is therefore the same
for every seed.
"""

from __future__ import annotations

import hashlib
import json
import random
import string
from pathlib import Path

HERE = Path(__file__).resolve().parent
VARIANTS = 16
CHECKPOINT_SEED = 0
#: The bench shape and 4-pattern S_p of ``benchmarks/bench_throughput.py``.
MODEL_SHAPE = {"vocab_size": 135, "block_size": 32, "dim": 64, "n_layers": 2,
               "n_heads": 4, "dropout": 0.0}
PATTERN_PROBS = {"L4N2": 0.4, "N6": 0.3, "L3S1N2": 0.2, "L8": 0.1}

DCGEN = {"n": 10000, "threshold": 64, "warmup_n": 500}
ORDERED = {"n": 40, "max_frontier": 2000, "warmup_n": 2, "warmup_frontier": 200}
SERVE = {
    "sampled_n": 128, "dcgen_n": 1000,
    "sampled_seeds": 8, "dcgen_seeds": 2, "score_payloads": 4,
    "score_guesses": 300, "score_test": 150,
    "tenants": ("tenant-a", "tenant-b"),
}
#: Requests of each kind in every block of the serve schedule.
MIX = {"sampled": 11, "score": 6, "dcgen": 3}
TRAIN = {"entries": 4000, "epochs": 3, "dim": 48, "layers": 2, "heads": 4,
         "batch_size": 128, "lr": 2e-3}


def variant(seed: int) -> int:
    return seed % VARIANTS


def stream_digest(lines) -> str:
    """sha256 of the guesses file the CLI and server write for ``lines``."""
    return hashlib.sha256(("\n".join(lines) + "\n").encode("utf-8")).hexdigest()


def load_expected() -> dict:
    return json.loads((HERE / "expected.json").read_text())


def write_checkpoint(path: Path) -> None:
    from repro.models import PagPassGPT
    from repro.nn import GPT2Config

    model = PagPassGPT(model_config=GPT2Config(**MODEL_SHAPE), seed=CHECKPOINT_SEED)
    model._fitted = True  # untrained weights: throughput does not depend on them
    model.pattern_probs = dict(PATTERN_PROBS)
    model.save(path)


def write_corpus(v: int, directory: Path) -> tuple[Path, Path]:
    """Synthetic leak -> cleaned -> 7:1:2 split; returns (train, val) files."""
    from repro.datasets import clean_leak, generate_leak, split_dataset

    cleaned, _ = clean_leak(generate_leak("rockyou", TRAIN["entries"], seed=v))
    splits = split_dataset(cleaned, seed=v)
    paths = []
    for part in ("train", "val"):
        path = directory / f"corpus.{part}.txt"
        path.write_text("\n".join(getattr(splits, part)) + "\n", encoding="utf-8")
        paths.append(path)
    return paths[0], paths[1]


def serve_pool(v: int) -> dict[str, dict]:
    """Every distinct request body one input set sends, by key."""
    rng = random.Random(f"serve-pool-{v}")
    pool: dict[str, dict] = {}
    for k in range(SERVE["sampled_seeds"]):
        seed = 1000 * v + k
        pool[f"sampled-{seed}"] = {"n": SERVE["sampled_n"], "seed": seed}
    for k in range(SERVE["dcgen_seeds"]):
        seed = 1000 * v + 500 + k
        pool[f"dcgen-{seed}"] = {"n": SERVE["dcgen_n"], "seed": seed, "strategy": "dcgen"}
    alphabet = string.ascii_lowercase + string.digits
    for k in range(SERVE["score_payloads"]):
        guesses = ["".join(rng.choices(alphabet, k=rng.randint(4, 9)))
                   for _ in range(SERVE["score_guesses"])]
        guesses += rng.sample(guesses, SERVE["score_guesses"] // 10)  # repeats
        test = rng.sample(guesses, SERVE["score_test"] // 2) + [
            "".join(rng.choices(alphabet, k=8)) for _ in range(SERVE["score_test"] // 2)
        ]
        pool[f"score-{k}"] = {"guesses": guesses, "test": test}
    return pool


def schedule(seed: int, pool: dict[str, dict], count: int) -> list[tuple[str, str]]:
    """The seeded request mix: (pool key, tenant) pairs, tenants alternating.

    Requests come in shuffled blocks holding :data:`MIX` requests of each
    kind, so every seed sends the same mix over a run.
    """
    rng = random.Random(f"serve-schedule-{seed}")
    by_kind: dict[str, list[str]] = {}
    for key in pool:
        by_kind.setdefault(key.split("-")[0], []).append(key)
    block = [kind for kind, share in MIX.items() for _ in range(share)]
    out: list[tuple[str, str]] = []
    while len(out) < count:
        rng.shuffle(block)
        for kind in block:
            out.append((rng.choice(by_kind[kind]), SERVE["tenants"][len(out) % 2]))
    return out[:count]
