"""The PagPassGPT tokenizer: preprocessing + encode/decode (§III-B1, Fig. 4-5).

Training preprocessing turns a password into a *rule*::

    <BOS> || pattern tokens || <SEP> || password chars || <EOS>  (+ <PAD>…)

Generation preprocessing turns an input pattern into a *prompt*::

    <BOS> || pattern tokens || <SEP>

The companion :class:`PasswordOnlyTokenizer` implements the PassGPT
baseline's encoding (no pattern prefix): ``<BOS> || password || <EOS>``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

from .charset import CLASS_MEMBERS
from .patterns import MAX_PASSWORD_LENGTH, Pattern, extract_pattern
from .vocab import VOCAB, Vocabulary


@dataclass(frozen=True)
class FreeGrammar:
    """Allowed-token table of grammar-constrained free generation.

    Free generation decodes ``pattern <SEP> password <EOS>`` after a bare
    ``<BOS>``, and every batch row is in one of a few decode states;
    ``allowed[state]`` is that state's boolean mask over the vocabulary:

    * pattern phase, ``state = last * (max_len + 1) + used`` — ``last``
      is the class code of the previous pattern token (``len(classes)``
      before the first one) and ``used`` the pattern length so far: every
      pattern token of another class that still fits in ``max_len``, plus
      ``<SEP>`` once ``used > 0``;
    * password phase, ``state = password + code`` — the characters of the
      class at the cursor; ``code == len(classes)`` (cursor past the
      pattern) allows only ``<EOS>``;
    * ``state = done`` — only ``<EOS>``.

    ``token_class`` / ``token_length`` give each token id's pattern
    segment: its class code and run length (length 0 for tokens that are
    not pattern tokens).
    """

    classes: tuple[str, ...]
    allowed: np.ndarray
    token_class: np.ndarray
    token_length: np.ndarray
    span: int  # max_len + 1
    password: int
    done: int

    def state(
        self,
        done: np.ndarray,
        in_pattern: np.ndarray,
        last: np.ndarray,
        used: np.ndarray,
        cursor_class: np.ndarray,
    ) -> np.ndarray:
        """The table row of every batch row's decoder state."""
        return np.where(
            done,
            self.done,
            np.where(in_pattern, last * self.span + used, self.password + cursor_class),
        )


class PasswordTokenizer:
    """Tokenizer with PCFG pattern preprocessing (PagPassGPT)."""

    #: <BOS> + up to 12 pattern tokens + <SEP> + up to 12 chars + <EOS> = 27,
    #: padded to the paper's input window of 32 tokens.  Longer-password
    #: configurations (§V) pass a wider vocabulary plus matching
    #: ``max_password_length`` and ``block_size``.
    def __init__(
        self,
        vocab: Vocabulary = VOCAB,
        block_size: int = 32,
        max_password_length: int = MAX_PASSWORD_LENGTH,
    ) -> None:
        if max_password_length > vocab.max_segment_length:
            raise ValueError(
                "vocabulary cannot express runs as long as max_password_length"
            )
        min_block = 3 + 2 * max_password_length
        if block_size < min_block:
            raise ValueError(f"block_size must be >= {min_block}, got {block_size}")
        self.vocab = vocab
        self.block_size = block_size
        self.max_password_length = max_password_length
        # Per-class candidate char ids for constrained generation:
        # 52 letters / 10 digits / 32 specials (the paper's c values, §III-C1).
        self.class_char_ids = {
            cls: np.array([vocab.id_of(ch) for ch in members], dtype=np.int64)
            for cls, members in CLASS_MEMBERS.items()
        }
        #: class -> length -> pattern token id (e.g. 'L' -> 4 -> id("L4")),
        #: used by grammar-constrained free generation.
        self.pattern_token_id = {
            cls: {
                length: vocab.id_of(f"{cls}{length}")
                for length in range(1, vocab.max_segment_length + 1)
            }
            for cls in CLASS_MEMBERS
        }
        #: pattern token id -> (class, length), the inverse mapping.
        self.pattern_token_info = {
            token_id: (cls, length)
            for cls, by_len in self.pattern_token_id.items()
            for length, token_id in by_len.items()
        }

    # ------------------------------------------------------------------
    # Encoding
    # ------------------------------------------------------------------
    def pattern_ids(self, pattern: Pattern) -> list[int]:
        """Ids of the pattern tokens, e.g. L4N3S1 -> [id(L4), id(N3), id(S1)]."""
        return [self.vocab.id_of(seg.token) for seg in pattern]

    def encode_rule(self, password: str, pad: bool = True) -> list[int]:
        """Training encoding: ``<BOS> pattern <SEP> password <EOS> [<PAD>…]``."""
        if self.max_password_length == MAX_PASSWORD_LENGTH:
            pattern = extract_pattern(password)  # cached hot path
        else:
            pattern = Pattern.from_password(password, self.vocab.max_segment_length)
        ids = [self.vocab.bos_id]
        ids.extend(self.pattern_ids(pattern))
        ids.append(self.vocab.sep_id)
        ids.extend(self.vocab.id_of(ch) for ch in password)
        ids.append(self.vocab.eos_id)
        if len(ids) > self.block_size:
            raise ValueError(
                f"encoded rule for {password!r} is {len(ids)} tokens; "
                f"block size is {self.block_size}"
            )
        if pad:
            ids.extend([self.vocab.pad_id] * (self.block_size - len(ids)))
        return ids

    def encode_prompt(self, pattern: Pattern) -> list[int]:
        """Generation encoding: ``<BOS> pattern <SEP>`` (right of Fig. 4)."""
        return [self.vocab.bos_id, *self.pattern_ids(pattern), self.vocab.sep_id]

    def encode_corpus(self, passwords: Iterable[str]) -> np.ndarray:
        """Encode many passwords into a padded ``(n, block_size)`` id matrix."""
        rows = [self.encode_rule(pw) for pw in passwords]
        return np.asarray(rows, dtype=np.int64)

    # ------------------------------------------------------------------
    # Decoding
    # ------------------------------------------------------------------
    def decode_password(self, ids: Sequence[int]) -> str:
        """Extract the password substring of a full or partial rule.

        Reads the character tokens between ``<SEP>`` and ``<EOS>`` (or the
        end of the sequence); pattern tokens and pads are skipped.
        """
        vocab = self.vocab
        chars: list[str] = []
        seen_sep = False
        for token_id in ids:
            token_id = int(token_id)
            if token_id == vocab.sep_id:
                seen_sep = True
                continue
            if token_id == vocab.eos_id:
                break
            if seen_sep and vocab.is_char(token_id):
                chars.append(vocab.token_of(token_id))
        return "".join(chars)

    def decode_tokens(self, ids: Sequence[int]) -> list[str]:
        """Ids -> token strings (diagnostic / Fig. 5 decode direction)."""
        return [self.vocab.token_of(int(i)) for i in ids]

    # ------------------------------------------------------------------
    # Constraint helpers
    # ------------------------------------------------------------------
    @cached_property
    def free_grammar(self) -> FreeGrammar:
        """The :class:`FreeGrammar` of this vocabulary, built on first use."""
        vocab = self.vocab
        classes = tuple(self.pattern_token_id)
        none = len(classes)
        span = self.max_password_length + 1
        password = (none + 1) * span
        allowed = np.zeros((password + none + 2, len(vocab)), dtype=bool)
        for last in range(none + 1):
            for used in range(span):
                row = allowed[last * span + used]
                row[vocab.sep_id] = used > 0
                for code, cls in enumerate(classes):
                    if code != last:
                        for length in range(1, span - used):
                            row[self.pattern_token_id[cls][length]] = True
        for code, cls in enumerate(classes):
            allowed[password + code, self.class_char_ids[cls]] = True
        allowed[password + none :, vocab.eos_id] = True
        token_class = np.full(len(vocab), none, dtype=np.int64)
        token_length = np.zeros(len(vocab), dtype=np.int64)
        for token_id, (cls, length) in self.pattern_token_info.items():
            token_class[token_id] = classes.index(cls)
            token_length[token_id] = length
        return FreeGrammar(
            classes, allowed, token_class, token_length, span, password, password + none + 1
        )

    def allowed_ids_at(self, pattern: Pattern, position: int) -> np.ndarray:
        """Candidate token ids for password position ``position`` (0-based).

        Within the password, only characters of the class the pattern
        prescribes are allowed; one past the end, only ``<EOS>``.
        """
        classes = pattern.char_classes()
        if position < len(classes):
            return self.class_char_ids[classes[position]]
        if position == len(classes):
            return np.array([self.vocab.eos_id], dtype=np.int64)
        raise IndexError(f"position {position} beyond pattern length {len(classes)}")


class PasswordOnlyTokenizer:
    """PassGPT-style tokenizer: no pattern prefix (baseline, §I-A1).

    Encoding is ``<BOS> password <EOS> [<PAD>…]`` over the same shared
    vocabulary, so both models can reuse the GPT backbone unchanged.
    """

    def __init__(self, vocab: Vocabulary = VOCAB, block_size: int = 16) -> None:
        if block_size < MAX_PASSWORD_LENGTH + 2:
            raise ValueError(f"block_size must be >= {MAX_PASSWORD_LENGTH + 2}")
        self.vocab = vocab
        self.block_size = block_size
        self.class_char_ids = {
            cls: np.array([vocab.id_of(ch) for ch in members], dtype=np.int64)
            for cls, members in CLASS_MEMBERS.items()
        }

    def encode(self, password: str, pad: bool = True) -> list[int]:
        ids = [self.vocab.bos_id]
        ids.extend(self.vocab.id_of(ch) for ch in password)
        ids.append(self.vocab.eos_id)
        if len(ids) > self.block_size:
            raise ValueError(
                f"password {password!r} encodes to {len(ids)} tokens; "
                f"block size is {self.block_size}"
            )
        if pad:
            ids.extend([self.vocab.pad_id] * (self.block_size - len(ids)))
        return ids

    def encode_corpus(self, passwords: Iterable[str]) -> np.ndarray:
        return np.asarray([self.encode(pw) for pw in passwords], dtype=np.int64)

    def encode_prompt(self, pattern: Pattern) -> list[int]:
        """Guided-generation prompt: a bare ``<BOS>`` (the model never
        sees the pattern; guided generation only filters each step)."""
        return [self.vocab.bos_id]

    def decode(self, ids: Sequence[int]) -> str:
        """Extract the password characters up to ``<EOS>``."""
        chars: list[str] = []
        for token_id in ids:
            token_id = int(token_id)
            if token_id == self.vocab.eos_id:
                break
            if self.vocab.is_char(token_id):
                chars.append(self.vocab.token_of(token_id))
        return "".join(chars)
