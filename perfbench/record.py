"""Record the expected outputs of every benchmark input set.

Usage (from the root of the repo)::

    PYTHONPATH=src python3 perfbench/record.py

Everything is computed through the library on the numpy backend, never
through the CLI or the server the benchmark then checks.  Training
builds its model the way ``repro train`` does from the same flags.  Run
it again only when ``inputs.py`` changes; it rewrites ``expected.json``.
"""

from __future__ import annotations

import os

os.environ["OPENBLAS_NUM_THREADS"] = "1"

import json  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import inputs  # noqa: E402


def train_losses(v: int, directory: Path) -> dict:
    from repro.datasets import build_corpus
    from repro.models import PagPassGPT
    from repro.nn import GPT2Config
    from repro.training import TrainConfig

    train, val = inputs.write_corpus(v, directory)
    cfg = inputs.TRAIN
    probe = PagPassGPT()
    model = PagPassGPT(
        model_config=GPT2Config(
            vocab_size=len(probe.tokenizer.vocab), block_size=probe.tokenizer.block_size,
            dim=cfg["dim"], n_layers=cfg["layers"], n_heads=cfg["heads"], dropout=0.1,
        ),
        train_config=TrainConfig(epochs=cfg["epochs"], batch_size=cfg["batch_size"],
                                 lr=cfg["lr"], early_stop_patience=0, seed=v),
        seed=v,
    )
    model.fit(
        build_corpus(train.read_text(encoding="utf-8").splitlines()),
        val_passwords=val.read_text(encoding="utf-8").splitlines(),
        checkpoint_path=directory / "state.npz",
    )
    return {"train_loss": model.history.train_loss, "val_loss": model.history.val_loss}


def main() -> int:
    from repro.evaluation import hit_rate, repeat_rate
    from repro.generation import DCGenConfig, DCGenerator, OrderedConfig, OrderedGenerator
    from repro.models import PagPassGPT

    digest = inputs.stream_digest
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        checkpoint = tmp / "bench.npz"
        inputs.write_checkpoint(checkpoint)
        model = PagPassGPT.load(checkpoint)
        ordered = OrderedGenerator.for_patterns(
            model, config=OrderedConfig(max_frontier=inputs.ORDERED["max_frontier"])
        ).generate(inputs.ORDERED["n"])
        expected = {"variants_count": inputs.VARIANTS, "ordered": digest(ordered), "variants": {}}
        for v in range(inputs.VARIANTS):
            dcgen = DCGenerator(model, DCGenConfig(threshold=inputs.DCGEN["threshold"]))
            serve = {}
            for key, payload in inputs.serve_pool(v).items():
                if key.startswith("score"):
                    serve[key] = {
                        "hit_rate": hit_rate(payload["guesses"], payload["test"]),
                        "repeat_rate": repeat_rate(payload["guesses"]),
                        "unique_guesses": len(set(payload["guesses"])),
                    }
                elif key.startswith("dcgen"):
                    serve[key] = digest(DCGenerator(model, DCGenConfig()).generate(
                        payload["n"], seed=payload["seed"]))
                else:
                    serve[key] = digest(model.generate(payload["n"], seed=payload["seed"]))
            expected["variants"][str(v)] = {
                "dcgen": digest(dcgen.generate(inputs.DCGEN["n"], seed=v)),
                "serve": serve,
                "train": train_losses(v, tmp),
            }
            print(f"input set {v} recorded", file=sys.stderr)
    (HERE / "expected.json").write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
