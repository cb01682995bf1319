"""Train PagPassGPT on your own password list and save a checkpoint.

Reads newline-separated passwords (one per line), applies the paper's
cleaning rules, trains, reports validation loss, saves an npz checkpoint
with ``model.save`` (weights, config and S_p), and demonstrates reloading
it with ``PagPassGPT.load`` for generation.  The same file works with
``repro generate --checkpoint`` and ``repro serve``.

Usage::

    python examples/train_custom_model.py [--input passwords.txt]
                                          [--epochs 8] [--out model.npz]

Without ``--input`` a synthetic leak is used so the example always runs.
"""

import argparse
from pathlib import Path

from repro import (
    PagPassGPT,
    Pattern,
    build_corpus,
    clean_leak,
    generate_leak,
    split_dataset,
)
from repro.nn import GPT2Config
from repro.training import TrainConfig


def load_passwords(path: str | None) -> list[str]:
    if path is None:
        print("no --input given; using a synthetic RockYou-style leak")
        return generate_leak("rockyou", 6_000, seed=0)
    return Path(path).read_text(encoding="utf-8", errors="ignore").splitlines()


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--input", default=None, help="newline-separated password file")
    parser.add_argument("--epochs", type=int, default=8)
    parser.add_argument("--out", default="pagpassgpt.npz", help="checkpoint path")
    args = parser.parse_args()

    cleaned, report = clean_leak(load_passwords(args.input))
    print(f"cleaned {report.cleaned}/{report.unique} unique passwords "
          f"({report.retention_rate:.1%} retention)")
    if len(cleaned) < 100:
        raise SystemExit("need at least 100 cleaned passwords to train")
    splits = split_dataset(cleaned, seed=0)

    model = PagPassGPT(
        model_config=GPT2Config(vocab_size=135, block_size=32, dim=48, n_layers=2, n_heads=4),
        train_config=TrainConfig(epochs=args.epochs, batch_size=128, lr=2e-3),
        seed=0,
    )
    model.fit(build_corpus(splits.train), val_passwords=splits.val,
              log_fn=lambda m: print(f"  {m}"))

    model.save(args.out)
    print(f"checkpoint saved to {args.out}")

    # Reload into a fresh instance and generate.
    clone = PagPassGPT.load(args.out)
    top_pattern = max(clone.pattern_probs, key=clone.pattern_probs.get)
    print(f"most common pattern in training data: {top_pattern}")
    print("guesses from reloaded checkpoint:",
          clone.generate_with_pattern(Pattern.parse(top_pattern), 10, seed=0))


if __name__ == "__main__":
    main()
