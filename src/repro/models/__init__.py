"""The password-guessing model zoo.

* :class:`PagPassGPT` — the paper's contribution (pattern-conditioned GPT-2)
* :class:`GPTGuesser` — the GPT body PagPassGPT and PassGPT share
* :class:`PagPassGPTDC` — PagPassGPT generating through D&C-GEN
* :class:`PassGPT` — the state-of-the-art baseline
* :class:`PassGAN`, :class:`VAEPass`, :class:`PassFlow` — older deep models
* :class:`PCFGModel`, :class:`MarkovModel` — classical probabilistic models
"""

from .base import PasswordGuesser, PatternGuidedGuesser
from .markov import MarkovModel
from .pagpassgpt import GPTGuesser, PagPassGPT
from .pagpassgpt_dc import PagPassGPTDC
from .passflow import PassFlow
from .passgan import PassGAN
from .passgpt import PassGPT
from .pcfg import PCFGModel
from .registry import available_models, create_model, load_checkpoint
from .rulebased import RuleBasedModel
from .vaepass import VAEPass

__all__ = [
    "PasswordGuesser",
    "PatternGuidedGuesser",
    "GPTGuesser",
    "MarkovModel",
    "PagPassGPT",
    "PagPassGPTDC",
    "PassFlow",
    "PassGAN",
    "PassGPT",
    "PCFGModel",
    "RuleBasedModel",
    "available_models",
    "create_model",
    "load_checkpoint",
    "VAEPass",
]
