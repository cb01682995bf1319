"""Experiment orchestration: datasets, trained models, and caching.

Every table/figure bench needs the same ingredients — a cleaned split of a
synthetic site and models trained on it.  :class:`ModelLab` builds those
once per configuration and caches GPT checkpoints on disk (training is the
expensive step), so the whole benchmark suite can run within a CPU budget.

Scales
------
``tiny``  — unit/integration tests: minutes of total CPU.
``small`` — default benchmark scale: each GPT trains in a few minutes.
``full``  — larger corpora/budgets for overnight runs.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from ..datasets import (
    CleaningReport,
    PasswordCorpus,
    Splits,
    build_corpus,
    clean_leak,
    generate_leak,
    split_dataset,
)
from ..generation import DCGenConfig
from ..models import (
    GPTGuesser,
    MarkovModel,
    PagPassGPT,
    PagPassGPTDC,
    PassFlow,
    PassGAN,
    PassGPT,
    PCFGModel,
    RuleBasedModel,
    VAEPass,
)
from ..nn import GPT2Config
from ..training import TrainConfig

#: Version of the cached GPT checkpoints, part of every cache key:
#: bumped when the file format changes (2: ``model.save`` checkpoints).
CACHE_FORMAT = 2


@dataclass(frozen=True)
class LabScale:
    """All scale-dependent knobs in one place."""

    name: str
    site_entries: dict[str, int]
    gpt_dim: int = 64
    gpt_layers: int = 2
    gpt_heads: int = 4
    gpt_epochs: int = 6
    gpt_batch: int = 128
    gpt_lr: float = 1e-3
    gpt_patience: int = 0
    baseline_epochs: int = 10
    guess_budgets: tuple[int, ...] = (1_000, 10_000, 100_000)
    guided_guesses_per_pattern: int = 2_000
    dc_threshold: int = 512
    crosssite_budget: int = 30_000


SCALES: dict[str, LabScale] = {
    "tiny": LabScale(
        name="tiny",
        site_entries={s: 4_000 for s in ("rockyou", "linkedin", "phpbb", "myspace", "yahoo")},
        gpt_dim=48,
        gpt_layers=2,
        gpt_epochs=4,
        gpt_batch=128,
        gpt_lr=2e-3,
        baseline_epochs=4,
        guess_budgets=(500, 2_000),
        guided_guesses_per_pattern=300,
        dc_threshold=16,
        crosssite_budget=2_000,
    ),
    "small": LabScale(
        name="small",
        site_entries={
            "rockyou": 15_000,
            "linkedin": 20_000,
            "phpbb": 6_000,
            "myspace": 4_000,
            "yahoo": 7_000,
        },
        gpt_dim=64,
        gpt_layers=3,
        gpt_epochs=60,
        gpt_batch=128,
        gpt_lr=2e-3,
        gpt_patience=6,
        baseline_epochs=14,
        guess_budgets=(1_000, 10_000, 100_000),
        guided_guesses_per_pattern=2_000,
        dc_threshold=16,
        crosssite_budget=30_000,
    ),
    "full": LabScale(
        name="full",
        site_entries={
            "rockyou": 60_000,
            "linkedin": 90_000,
            "phpbb": 12_000,
            "myspace": 6_000,
            "yahoo": 15_000,
        },
        gpt_dim=96,
        gpt_layers=4,
        gpt_epochs=60,
        gpt_batch=256,
        gpt_lr=1.5e-3,
        gpt_patience=6,
        baseline_epochs=16,
        guess_budgets=(1_000, 10_000, 100_000, 1_000_000),
        guided_guesses_per_pattern=10_000,
        dc_threshold=256,
        crosssite_budget=300_000,
    ),
}


@dataclass
class SiteData:
    """One site's cleaned data, splits and corpora."""

    site: str
    report: CleaningReport
    splits: Splits
    train_corpus: PasswordCorpus
    test_corpus: PasswordCorpus

    @property
    def test_set(self) -> frozenset[str]:
        return self.test_corpus.password_set


class ModelLab:
    """Builds and caches datasets and trained models for experiments."""

    def __init__(
        self,
        scale: str | LabScale = "small",
        cache_dir: Optional[str | Path] = None,
        seed: int = 0,
        log_fn=None,
        workers: int = 1,
    ) -> None:
        self.scale = SCALES[scale] if isinstance(scale, str) else scale
        self.cache_dir = Path(cache_dir) if cache_dir else None
        self.seed = seed
        self.log_fn = log_fn
        #: Worker processes for D&C-GEN leaf execution (guess streams are
        #: identical for any count; see repro.generation.parallel).
        self.workers = workers
        self._sites: dict[str, SiteData] = {}
        self._models: dict[tuple, object] = {}

    def _log(self, msg: str) -> None:
        if self.log_fn is not None:
            self.log_fn(msg)

    # ------------------------------------------------------------------
    # Data
    # ------------------------------------------------------------------
    def site_data(self, site: str) -> SiteData:
        """Cleaned + split data for ``site`` (memoised)."""
        if site not in self._sites:
            raw = generate_leak(site, self.scale.site_entries[site], seed=self.seed)
            cleaned, report = clean_leak(raw)
            splits = split_dataset(cleaned, seed=self.seed)
            self._sites[site] = SiteData(
                site=site,
                report=report,
                splits=splits,
                train_corpus=build_corpus(splits.train, name=f"{site}-train"),
                test_corpus=build_corpus(splits.test, name=f"{site}-test"),
            )
            self._log(
                f"[data] {site}: unique={report.unique} cleaned={report.cleaned} "
                f"train={len(splits.train)} test={len(splits.test)}"
            )
        return self._sites[site]

    def eval_corpus(self, site: str) -> PasswordCorpus:
        """Whole-site corpus for cross-site evaluation (§IV-A2: the three
        small sites are used entirely for evaluation)."""
        data = self.site_data(site)
        return build_corpus(
            data.splits.train + data.splits.val + data.splits.test, name=site
        )

    # ------------------------------------------------------------------
    # Models
    # ------------------------------------------------------------------
    def _gpt_configs(self, tokenizer) -> tuple[GPT2Config, TrainConfig]:
        s = self.scale
        model_cfg = GPT2Config(
            vocab_size=len(tokenizer.vocab),
            block_size=tokenizer.block_size,
            dim=s.gpt_dim,
            n_layers=s.gpt_layers,
            n_heads=s.gpt_heads,
            dropout=0.1,
        )
        train_cfg = TrainConfig(
            epochs=s.gpt_epochs,
            batch_size=s.gpt_batch,
            lr=s.gpt_lr,
            early_stop_patience=s.gpt_patience,
            seed=self.seed,
        )
        return model_cfg, train_cfg

    def _cache_path(self, kind: str, site: str) -> Optional[Path]:
        if self.cache_dir is None:
            return None
        s = self.scale
        key = json.dumps(
            [CACHE_FORMAT, kind, site, s.name, s.site_entries[site], s.gpt_dim, s.gpt_layers,
             s.gpt_heads, s.gpt_epochs, s.gpt_batch, s.gpt_lr, s.gpt_patience, self.seed],
            sort_keys=True,
        )
        digest = hashlib.sha256(key.encode()).hexdigest()[:16]
        return self.cache_dir / f"{kind}-{site}-{digest}.npz"

    def _gpt(self, cls: type[GPTGuesser], site: str) -> GPTGuesser:
        """A fitted GPT model of ``cls`` for ``site`` (disk-cached as a
        ``model.save`` checkpoint)."""
        kind = cls.name.lower()
        key = (kind, site)
        if key not in self._models:
            path = self._cache_path(kind, site)
            if path is not None and path.exists():
                model = cls.load(path)
                self._log(f"[model] {cls.name}({site}) loaded from cache")
            else:
                data = self.site_data(site)
                cfg, tcfg = self._gpt_configs(cls.tokenizer_cls())
                model = cls(model_config=cfg, train_config=tcfg, seed=self.seed)
                self._log(f"[model] training {cls.name}({site})...")
                model.fit(data.train_corpus, val_passwords=data.splits.val, log_fn=self.log_fn)
                if path is not None:
                    model.save(path)
            self._models[key] = model
        return self._models[key]  # type: ignore[return-value]

    def pagpassgpt(self, site: str = "rockyou") -> PagPassGPT:
        """A fitted PagPassGPT for ``site`` (disk-cached)."""
        return self._gpt(PagPassGPT, site)  # type: ignore[return-value]

    def passgpt(self, site: str = "rockyou") -> PassGPT:
        """A fitted PassGPT for ``site`` (disk-cached)."""
        return self._gpt(PassGPT, site)  # type: ignore[return-value]

    def pagpassgpt_dc(self, site: str = "rockyou") -> PagPassGPTDC:
        """PagPassGPT-D&C sharing the cached base model."""
        key = ("pagpassgpt_dc", site)
        if key not in self._models:
            base = self.pagpassgpt(site)
            self._models[key] = PagPassGPTDC(
                base,
                DCGenConfig(threshold=self.scale.dc_threshold, workers=self.workers),
            )
        return self._models[key]  # type: ignore[return-value]

    def baseline(self, name: str, site: str = "rockyou"):
        """A fitted non-GPT baseline (retrained per process; they're fast)."""
        key = (name, site)
        if key not in self._models:
            data = self.site_data(site)
            epochs = self.scale.baseline_epochs
            factories = {
                "passgan": lambda: PassGAN(epochs=epochs, seed=self.seed),
                "vaepass": lambda: VAEPass(epochs=epochs, seed=self.seed),
                "passflow": lambda: PassFlow(epochs=epochs, seed=self.seed),
                "pcfg": PCFGModel,
                "markov": MarkovModel,
                "rulebased": RuleBasedModel,
            }
            try:
                model = factories[name]()
            except KeyError:
                raise KeyError(f"unknown baseline {name!r}") from None
            self._log(f"[model] training {model.name}({site})...")
            model.fit(data.train_corpus, log_fn=self.log_fn)
            self._models[key] = model
        return self._models[key]
