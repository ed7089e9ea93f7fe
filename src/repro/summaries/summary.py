"""Content summaries (Definitions 1 and 2), columnar over an interned vocabulary.

A content summary carries, for a database ``D``:

* ``size`` — (an estimate of) the number of documents ``|D|``;
* document-frequency probabilities ``p(w|D)`` = fraction of documents
  containing ``w`` (Definition 1, used by bGlOSS and CORI);
* term-frequency probabilities ``p_tf(w|D)`` = ``tf(w,D) / sum_i tf(w_i,D)``
  (the alternative definition of Section 5.3 used by LM and the KL metric).

Both regimes are kept on every summary so each selection algorithm can use
the one its formula expects.

Representation: each regime is a pair of parallel numpy arrays — sorted
vocabulary ids and their probabilities — over a shared
:class:`~repro.core.vocab.Vocabulary`. The hot paths (category
aggregation, shrinkage EM, scoring) consume the arrays directly via
:meth:`ContentSummary.regime_arrays` / :meth:`ContentSummary.lookup_ids`;
the mapping-style API (``p``, ``words``, ``df_items``, …) survives as a
thin view backed by lazily materialized dicts, so existing callers keep
working unchanged.
"""

from __future__ import annotations

import copy
import math
from collections.abc import Iterable, Mapping

import numpy as np

from repro.core.vocab import Vocabulary
from repro.index.document import Document
from repro.index.engine import TextDatabase

#: A regime in columnar form: (sorted unique vocabulary ids, probabilities).
IdProbs = tuple[np.ndarray, np.ndarray]


def _coerce_regime(
    probs: "Mapping[str, float] | IdProbs", vocab: Vocabulary
) -> IdProbs:
    """Normalize a probability regime to sorted (ids, values) arrays.

    Accepts either a word → probability mapping (interned into ``vocab``)
    or an already-columnar ``(ids, values)`` pair, which must be expressed
    in ``vocab``'s id space with sorted unique ids.
    """
    if isinstance(probs, tuple):
        ids, values = probs
        ids = np.asarray(ids, dtype=np.int64)
        values = np.asarray(values, dtype=np.float64)
        if ids.shape != values.shape:
            raise ValueError("ids and values must be parallel arrays")
        return ids, values
    ids = vocab.intern_many(probs.keys())
    values = np.fromiter(
        probs.values(), dtype=np.float64, count=ids.size
    )
    if ids.size > 1 and not np.all(ids[1:] > ids[:-1]):
        order = np.argsort(ids, kind="stable")
        ids = ids[order]
        values = values[order]
    return ids, values


class ContentSummary:
    """Content summary of a text database or a category.

    Instances are value objects: construct once, read many times. The
    ``tf_probs`` regime is optional at construction; when absent it falls
    back to the normalized ``df_probs`` (a reasonable surrogate when only
    document frequencies are known).

    ``df_probs``/``tf_probs`` accept either mappings (interned into
    ``vocab``, a fresh private vocabulary by default) or columnar
    ``(ids, values)`` pairs already in ``vocab``'s id space.
    """

    def __init__(
        self,
        size: float,
        df_probs: Mapping[str, float] | IdProbs,
        tf_probs: Mapping[str, float] | IdProbs | None = None,
        *,
        vocab: Vocabulary | None = None,
    ) -> None:
        if size < 0:
            raise ValueError("size must be non-negative")
        self.size = float(size)
        self.vocab = vocab if vocab is not None else Vocabulary()
        self._df_ids, self._df_values = _coerce_regime(df_probs, self.vocab)
        # One vectorized pass over the array replaces the per-word range
        # check; the offending word is recovered only on failure.
        if self._df_values.size and bool(
            np.any((self._df_values < 0.0) | (self._df_values > 1.0))
        ):
            bad = int(
                np.flatnonzero(
                    (self._df_values < 0.0) | (self._df_values > 1.0)
                )[0]
            )
            word = self.vocab.word(int(self._df_ids[bad]))
            raise ValueError(
                f"p({word!r}) = {self._df_values[bad]} outside [0, 1]"
            )
        if tf_probs is not None:
            self._tf_ids, self._tf_values = _coerce_regime(
                tf_probs, self.vocab
            )
        else:
            # fsum is exactly rounded and therefore permutation-invariant,
            # so the derived tf regime — and any payload serialized from
            # it — does not depend on the vocabulary's interning history.
            total = math.fsum(self._df_values.tolist())
            if total > 0:
                self._tf_ids = self._df_ids
                self._tf_values = self._df_values / total
            else:
                self._tf_ids = np.empty(0, dtype=np.int64)
                self._tf_values = np.empty(0, dtype=np.float64)
        self._df_map: dict[str, float] | None = None
        self._tf_map: dict[str, float] | None = None
        self._words_cache: set[str] | None = None
        self._effective_cache: set[str] | None = None
        self._effective_ids_cache: np.ndarray | None = None
        self._df_mass_cache: float | None = None
        self._df_total_cache: float | None = None
        self._tf_total_cache: float | None = None

    # -- columnar access -----------------------------------------------------

    def regime_arrays(
        self, regime: str = "df", vocab: Vocabulary | None = None
    ) -> IdProbs:
        """The regime's (sorted ids, probabilities) arrays.

        With ``vocab`` given and different from this summary's own, the
        ids are translated (interning as needed) into that vocabulary's id
        space — the slow path that keeps summaries built against separate
        vocabularies usable together.
        """
        if regime == "df":
            ids, values = self._df_ids, self._df_values
        elif regime == "tf":
            ids, values = self._tf_ids, self._tf_values
        else:
            raise ValueError("regime must be 'df' or 'tf'")
        if vocab is None or vocab is self.vocab:
            return ids, values
        translated = vocab.intern_many(self.vocab.words_of(ids))
        order = np.argsort(translated, kind="stable")
        return translated[order], values[order]

    def rebind(self, vocab: Vocabulary) -> ContentSummary:
        """This summary over ``vocab``, which must extend its own word list.

        Ids keep their meaning under :meth:`Vocabulary.extends`, so the
        copy shares every array and every lazily built view; only the
        vocabulary reference changes. Lets a store-decoded summary join
        matrices stacked over the live cell's vocabulary instance.
        """
        if vocab is self.vocab:
            return self
        if not vocab.extends(self.vocab):
            raise ValueError("target vocabulary does not extend the summary's")
        rebound = copy.copy(self)
        rebound.vocab = vocab
        return rebound

    def lookup_ids(self, ids: np.ndarray, regime: str = "df") -> np.ndarray:
        """Probabilities at ``ids`` (own-vocab id space); missing ids → 0.

        Negative ids (the :meth:`~repro.core.vocab.Vocabulary.ids_of`
        marker for unknown words) never match and come back 0 as well.
        """
        if regime == "df":
            ref, values = self._df_ids, self._df_values
        elif regime == "tf":
            ref, values = self._tf_ids, self._tf_values
        else:
            raise ValueError("regime must be 'df' or 'tf'")
        ids = np.asarray(ids, dtype=np.int64)
        out = np.zeros(ids.size, dtype=np.float64)
        if ref.size == 0 or ids.size == 0:
            return out
        positions = np.minimum(np.searchsorted(ref, ids), ref.size - 1)
        hit = ref[positions] == ids
        out[hit] = values[positions[hit]]
        return out

    def scored_lookup(self, ids: np.ndarray, regime: str = "df") -> np.ndarray:
        """Per-id probabilities exactly as :meth:`p` / :meth:`tf_p` report
        them — the vectorized entry point the scorers use. Subclasses with
        default-probability semantics (ShrunkSummary's uniform floor)
        override this alongside the scalar accessors."""
        return self.lookup_ids(ids, regime)

    def _ids_in_support(self, ids: np.ndarray) -> np.ndarray:
        """Boolean mask: which of ``ids`` are in the df support."""
        ids = np.asarray(ids, dtype=np.int64)
        ref = self._df_ids
        if ref.size == 0 or ids.size == 0:
            return np.zeros(ids.size, dtype=bool)
        positions = np.minimum(np.searchsorted(ref, ids), ref.size - 1)
        return ref[positions] == ids

    def query_probabilities(
        self, words: Iterable[str], regime: str = "df"
    ) -> np.ndarray:
        """Vectorized per-word probabilities for a query's words."""
        return self.lookup_ids(self.vocab.ids_of(words), regime)

    # -- probabilities -------------------------------------------------------

    def _df_mapping(self) -> dict[str, float]:
        if self._df_map is None:
            self._df_map = dict(
                zip(self.vocab.words_of(self._df_ids), self._df_values.tolist())
            )
        return self._df_map

    def _tf_mapping(self) -> dict[str, float]:
        if self._tf_map is None:
            self._tf_map = dict(
                zip(self.vocab.words_of(self._tf_ids), self._tf_values.tolist())
            )
        return self._tf_map

    def p(self, word: str) -> float:
        """Document-frequency probability p(w|D) (Definition 1)."""
        return self._df_mapping().get(word, 0.0)

    def tf_p(self, word: str) -> float:
        """Term-frequency probability (the LM regime of Section 5.3)."""
        return self._tf_mapping().get(word, 0.0)

    def document_frequency(self, word: str) -> float:
        """Estimated number of documents containing ``word``: |D| * p(w|D)."""
        return self.size * self.p(word)

    # -- vocabulary ----------------------------------------------------------

    def words(self) -> set[str]:
        """All words in the summary's document-frequency support."""
        if self._words_cache is None:
            self._words_cache = set(self.vocab.words_of(self._df_ids))
        return self._words_cache

    def __contains__(self, word: str) -> bool:
        return word in self._df_mapping()

    def __len__(self) -> int:
        return int(self._df_ids.size)

    def effective_ids(self) -> np.ndarray:
        """Vocabulary ids passing the word-drop rule (see effective_words)."""
        if self._effective_ids_cache is None:
            mask = np.round(self.size * self._df_values) >= 1.0
            self._effective_ids_cache = self._df_ids[mask]
        return self._effective_ids_cache

    def effective_words(self) -> set[str]:
        """Words that pass the paper's word-drop rule.

        Sections 5.3 and 6.1 treat a word as present in a (shrunk) summary
        only when ``round(|D| * p(w|D)) >= 1`` — i.e. the word is estimated
        to appear in at least one document. Cached: summaries are immutable
        and this set is consulted per query by CORI and the quality metrics.
        """
        if self._effective_cache is None:
            self._effective_cache = set(
                self.vocab.words_of(self.effective_ids())
            )
        return self._effective_cache

    def df_mass(self) -> float:
        """Total estimated document-frequency mass, sum_w round(|D| p(w|D)).

        Serves as the cw(D) collection-size proxy for CORI (see
        :mod:`repro.selection.cori`). Cached for the same reason as
        :meth:`effective_words`.
        """
        if self._df_mass_cache is None:
            estimated = np.round(self.size * self._df_values)
            total = float(estimated[estimated >= 1.0].sum())
            self._df_mass_cache = max(total, 1.0)
        return self._df_mass_cache

    def df_total(self) -> float:
        """Sum of the document-frequency probabilities (cached)."""
        if self._df_total_cache is None:
            self._df_total_cache = float(self._df_values.sum())
        return self._df_total_cache

    def tf_total(self) -> float:
        """Sum of the term-frequency probabilities (cached)."""
        if self._tf_total_cache is None:
            self._tf_total_cache = float(self._tf_values.sum())
        return self._tf_total_cache

    def df_items(self) -> Iterable[tuple[str, float]]:
        """(word, p(w|D)) pairs, in vocabulary-id order."""
        return self._df_mapping().items()

    def tf_items(self) -> Iterable[tuple[str, float]]:
        """(word, p_tf(w|D)) pairs, in vocabulary-id order."""
        return self._tf_mapping().items()

    def probabilities(self, regime: str = "df") -> dict[str, float]:
        """The full probability map for ``regime`` ('df' or 'tf')."""
        if regime == "df":
            return dict(self._df_mapping())
        if regime == "tf":
            return dict(self._tf_mapping())
        raise ValueError("regime must be 'df' or 'tf'")

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(size={self.size:.0f}, "
            f"words={self._df_ids.size})"
        )


class SampledSummary(ContentSummary):
    """Approximate content summary built from a document sample (Def. 2).

    Carries the raw sample statistics the adaptive selection algorithm of
    Section 4 needs: the sample size ``|S|``, per-word sample document
    frequencies ``s_k``, and the Mandelbrot exponent ``alpha`` of the
    database-scale rank-frequency fit (Appendix B derives the power-law
    prior exponent ``gamma = 1/alpha - 1`` from it).
    """

    def __init__(
        self,
        size: float,
        df_probs: Mapping[str, float] | IdProbs,
        tf_probs: Mapping[str, float] | IdProbs | None,
        sample_size: int,
        sample_df: Mapping[str, int],
        alpha: float | None = None,
        sample_tf: Mapping[str, int] | None = None,
        *,
        vocab: Vocabulary | None = None,
    ) -> None:
        super().__init__(size, df_probs, tf_probs, vocab=vocab)
        if sample_size < 0:
            raise ValueError("sample_size must be non-negative")
        self.sample_size = int(sample_size)
        self.sample_df = dict(sample_df)
        self.sample_tf = dict(sample_tf or {})
        self.alpha = alpha

    def sample_frequency(self, word: str) -> int:
        """s_k: number of sample documents containing ``word``."""
        return self.sample_df.get(word, 0)

    def _aligned_counts(self, regime: str) -> np.ndarray:
        """Sample counts aligned to the regime's id array (0 where absent)."""
        ids = self._df_ids if regime == "df" else self._tf_ids
        counts = self.sample_df if regime == "df" else self.sample_tf
        get = counts.get
        return np.fromiter(
            (get(word, 0) for word in self.vocab.words_of(ids)),
            dtype=np.float64,
            count=ids.size,
        )

    def leave_one_out_arrays(
        self, regime: str = "df", discount: float = 1.0
    ) -> np.ndarray:
        """Leave-one-out probabilities aligned to the regime's id array.

        The columnar counterpart of :meth:`leave_one_out_probabilities`,
        consumed directly by the vectorized EM: element ``i`` is the
        discounted probability of the regime's ``i``-th word (0 where the
        word has no surviving sample evidence).
        """
        if not 0.0 <= discount <= 1.0:
            raise ValueError("discount must lie in [0, 1]")
        if regime == "df":
            if self.sample_size <= 0:
                return np.zeros(self._df_ids.size, dtype=np.float64)
            counts = self._aligned_counts("df")
            with np.errstate(divide="ignore", invalid="ignore"):
                scaled = (
                    self._df_values
                    * np.maximum(counts - discount, 0.0)
                    / counts
                )
            return np.where(counts > 0, scaled, 0.0)
        if regime == "tf":
            if not self.sample_tf:
                # No raw counts recorded: discount proportionally instead.
                return np.maximum(
                    self._tf_values - discount / max(self.size, 1.0), 0.0
                )
            counts = self._aligned_counts("tf")
            with np.errstate(divide="ignore", invalid="ignore"):
                scaled = (
                    self._tf_values
                    * np.maximum(counts - discount, 0.0)
                    / counts
                )
            return np.where(counts > 0, scaled, 0.0)
        raise ValueError("regime must be 'df' or 'tf'")

    def leave_one_out_probabilities(
        self, regime: str = "df", discount: float = 1.0
    ) -> dict[str, float]:
        """Per-word probabilities with ``discount`` observations removed.

        Used by the shrinkage EM (see :mod:`repro.core.shrinkage`): scoring
        the sample's own words against the summary estimated from those
        same words degenerates to an all-database mixture, so — following
        McCallum et al. [22] — each word's own evidence is discounted when
        measuring how well the database component explains it. With a full
        discount (1.0), singleton words drop to probability zero and must
        be explained by the category components, which is what earns the
        categories their weight; fractional discounts soften the effect.
        """
        # The discount scales the summary's *actual* probabilities by the
        # share of sample evidence that survives removal — p * (s-d)/s —
        # so it stays consistent whether the probabilities are raw sample
        # fractions or Appendix A frequency estimates. (For raw summaries
        # this is exactly (s-d)/|S|.)
        values = self.leave_one_out_arrays(regime, discount)
        if regime == "df":
            if self.sample_size <= 0:
                return {}
            ids = self._df_ids
            counts = self._aligned_counts("df")
        else:
            ids = self._tf_ids
            if not self.sample_tf:
                return dict(
                    zip(self.vocab.words_of(ids), values.tolist())
                )
            counts = self._aligned_counts("tf")
        words = self.vocab.words_of(ids)
        return {
            word: value
            for word, value, present in zip(
                words, values.tolist(), counts > 0
            )
            if present
        }


def build_exact_summary(
    database: TextDatabase, vocab: Vocabulary | None = None
) -> ContentSummary:
    """The "perfect" content summary S(D), from every document (Section 6.1).

    This inspects the database's index directly — it is evaluation ground
    truth, not something a metasearcher could compute for an uncooperative
    database.
    """
    index = database.engine.index
    num_docs = index.num_docs
    if num_docs == 0:
        return ContentSummary(0, {}, {}, vocab=vocab)
    total_terms = index.total_terms
    df_probs = {}
    tf_probs = {}
    for word in index.vocabulary:
        df_probs[word] = index.doc_frequency(word) / num_docs
        tf_probs[word] = index.collection_frequency(word) / total_terms
    return ContentSummary(num_docs, df_probs, tf_probs, vocab=vocab)


def summarize_documents(
    documents: Iterable[Document],
) -> tuple[int, dict[str, int], dict[str, int]]:
    """Count documents, per-word document frequencies and term frequencies."""
    num_docs = 0
    df: dict[str, int] = {}
    tf: dict[str, int] = {}
    for document in documents:
        num_docs += 1
        for word, count in document.term_counts().items():
            df[word] = df.get(word, 0) + 1
            tf[word] = tf.get(word, 0) + count
    return num_docs, df, tf


def build_sampled_summary(
    documents: Iterable[Document],
    estimated_size: float,
    alpha: float | None = None,
    vocab: Vocabulary | None = None,
) -> SampledSummary:
    """Approximate summary from a document sample, without Appendix A.

    ``p(w|D)`` is the fraction of *sample* documents containing ``w``
    (the raw QBS/FPS estimate); ``estimated_size`` is the database-size
    estimate (typically from sample–resample).
    """
    sample_size, df, tf = summarize_documents(documents)
    if sample_size == 0:
        return SampledSummary(
            estimated_size, {}, {}, 0, {}, alpha, vocab=vocab
        )
    total_terms = sum(tf.values())
    df_probs = {w: c / sample_size for w, c in df.items()}
    tf_probs = {w: c / total_terms for w, c in tf.items()}
    return SampledSummary(
        size=estimated_size,
        df_probs=df_probs,
        tf_probs=tf_probs,
        sample_size=sample_size,
        sample_df=df,
        alpha=alpha,
        sample_tf=tf,
        vocab=vocab,
    )
