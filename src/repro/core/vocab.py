"""Interned vocabulary: the shared string ↔ int substrate of the summary core.

Every hot path of the reproduction — category aggregation (Definition 3),
the shrinkage EM of Figure 2, and the bGlOSS/CORI/LM scorers — operates on
per-word probability maps. Keeping those maps as ``dict[str, float]`` makes
each of them pay per-word hashing and boxing costs. A :class:`Vocabulary`
interns every word once per testbed/run and hands out dense integer ids,
so summaries can carry their probability regimes as numpy arrays over ids
and the hot paths become array arithmetic (see
:mod:`repro.summaries.summary`).

A vocabulary is append-only: ids are assigned in first-seen order and
never change, so arrays built at different times against the same instance
stay mutually consistent. :attr:`version` digests the current word list;
serialized artifacts store it next to their id arrays so a load against
the wrong (or reordered) word list fails loudly instead of silently
permuting probabilities.
"""

from __future__ import annotations

import hashlib
from collections.abc import Iterable, Iterator

import numpy as np


class Vocabulary:
    """Append-only string ↔ int interning table.

    One instance is shared per testbed/run; every summary built against it
    stores vocabulary ids instead of strings. Ids are dense, start at 0,
    and follow first-intern order.
    """

    def __init__(self, words: Iterable[str] = ()) -> None:
        self._words: list[str] = []
        self._ids: dict[str, int] = {}
        self._version: str | None = None
        for word in words:
            self.intern(word)

    # -- interning -----------------------------------------------------------

    def intern(self, word: str) -> int:
        """The id of ``word``, assigning the next free id on first sight."""
        word_id = self._ids.get(word)
        if word_id is None:
            word_id = len(self._words)
            self._ids[word] = word_id
            self._words.append(word)
            self._version = None
        return word_id

    def intern_many(self, words: Iterable[str]) -> np.ndarray:
        """Ids for ``words`` (interning any new ones), as an int64 array."""
        intern = self.intern
        return np.fromiter(
            (intern(word) for word in words), dtype=np.int64
        )

    # -- lookup (never interns) ----------------------------------------------

    def get(self, word: str) -> int | None:
        """The id of ``word``, or None when it was never interned."""
        return self._ids.get(word)

    def ids_of(self, words: Iterable[str]) -> np.ndarray:
        """Ids for ``words`` without interning; unknown words map to -1."""
        get = self._ids.get
        return np.fromiter(
            (get(word, -1) for word in words), dtype=np.int64
        )

    def word(self, word_id: int) -> str:
        """The word interned under ``word_id``."""
        return self._words[word_id]

    def words_of(self, ids: Iterable[int]) -> list[str]:
        """The words behind ``ids``, in order."""
        words = self._words
        return [words[int(word_id)] for word_id in ids]

    # -- container protocol --------------------------------------------------

    def __len__(self) -> int:
        return len(self._words)

    def __contains__(self, word: str) -> bool:
        return word in self._ids

    def __iter__(self) -> Iterator[str]:
        return iter(self._words)

    def __repr__(self) -> str:
        return f"{type(self).__name__}(size={len(self._words)})"

    # -- serialization support ------------------------------------------------

    @property
    def version(self) -> str:
        """Digest of the current word list (cached until the next intern).

        Two vocabularies agree on every id assignment iff their versions
        are equal; serialized id arrays carry this next to the ids.
        """
        if self._version is None:
            digest = hashlib.sha256()
            for word in self._words:
                digest.update(word.encode())
                digest.update(b"\x00")
            self._version = digest.hexdigest()[:16]
        return self._version

    def extends(self, other: Vocabulary) -> bool:
        """Whether every id of ``other`` names the same word here.

        True when ``other``'s word list is a prefix of this one's (equal
        lists included). Arrays over ``other``'s ids are then valid over
        this vocabulary unchanged — the case of a store-decoded copy of an
        append-only vocabulary.
        """
        if other is self:
            return True
        size = len(other._words)
        return size <= len(self._words) and self._words[:size] == other._words

    def to_list(self) -> list[str]:
        """The word list in id order (id ``i`` is element ``i``)."""
        return list(self._words)
