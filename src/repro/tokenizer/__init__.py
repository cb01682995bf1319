"""PCFG pattern extraction and the PagPassGPT / PassGPT tokenizers."""

from .charset import (
    CHAR_CLASSES,
    CLASS_DIGIT,
    CLASS_LETTER,
    CLASS_MEMBERS,
    CLASS_SPECIAL,
    DIGITS,
    LETTERS,
    SPECIALS,
    VISIBLE_ASCII,
    char_class,
    is_visible_ascii,
)
from .patterns import (
    MAX_PASSWORD_LENGTH,
    MAX_SEGMENT_LENGTH,
    MIN_PASSWORD_LENGTH,
    Pattern,
    Segment,
    extract_pattern,
    group_by_segments,
)
from .extended import build_extended_tokenizer, extended_gpt2_config
from .vocab import BOS, EOS, PAD, SEP, UNK, VOCAB, Vocabulary
from .tokenizer import FreeGrammar, PasswordOnlyTokenizer, PasswordTokenizer

__all__ = [
    "CHAR_CLASSES",
    "CLASS_DIGIT",
    "CLASS_LETTER",
    "CLASS_MEMBERS",
    "CLASS_SPECIAL",
    "DIGITS",
    "LETTERS",
    "SPECIALS",
    "VISIBLE_ASCII",
    "char_class",
    "is_visible_ascii",
    "MAX_PASSWORD_LENGTH",
    "MAX_SEGMENT_LENGTH",
    "MIN_PASSWORD_LENGTH",
    "Pattern",
    "Segment",
    "extract_pattern",
    "group_by_segments",
    "build_extended_tokenizer",
    "extended_gpt2_config",
    "BOS",
    "EOS",
    "PAD",
    "SEP",
    "UNK",
    "VOCAB",
    "Vocabulary",
    "FreeGrammar",
    "PasswordOnlyTokenizer",
    "PasswordTokenizer",
]
