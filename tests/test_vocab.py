"""Tests for repro.core.vocab — the string/id interning layer."""

import numpy as np
import pytest

from repro.core.vocab import Vocabulary


class TestInterning:
    def test_intern_assigns_sequential_ids(self):
        vocab = Vocabulary()
        assert vocab.intern("alpha") == 0
        assert vocab.intern("beta") == 1
        assert vocab.intern("gamma") == 2

    def test_intern_is_idempotent(self):
        vocab = Vocabulary()
        first = vocab.intern("word")
        assert vocab.intern("word") == first
        assert len(vocab) == 1

    def test_intern_many_returns_int64_array(self):
        vocab = Vocabulary()
        ids = vocab.intern_many(["a", "b", "a", "c"])
        assert ids.dtype == np.int64
        assert ids.tolist() == [0, 1, 0, 2]

    def test_constructor_seeds_words_in_order(self):
        vocab = Vocabulary(["x", "y", "z"])
        assert vocab.get("x") == 0
        assert vocab.get("z") == 2
        assert len(vocab) == 3

    def test_word_round_trips_id(self):
        vocab = Vocabulary(["a", "b"])
        assert vocab.word(vocab.get("b")) == "b"

    def test_words_of_maps_arrays(self):
        vocab = Vocabulary(["a", "b", "c"])
        assert vocab.words_of(np.array([2, 0], dtype=np.int64)) == ["c", "a"]

    def test_to_list_preserves_order(self):
        words = ["one", "two", "three"]
        assert Vocabulary(words).to_list() == words


class TestLookup:
    def test_ids_of_marks_unknown_words(self):
        vocab = Vocabulary(["known"])
        ids = vocab.ids_of(["known", "unknown"])
        assert ids.tolist() == [0, -1]
        assert len(vocab) == 1  # lookup must not intern

    def test_contains(self):
        vocab = Vocabulary(["present"])
        assert "present" in vocab
        assert "absent" not in vocab

    def test_iteration_follows_id_order(self):
        vocab = Vocabulary(["b", "a", "c"])
        assert list(vocab) == ["b", "a", "c"]


class TestVersion:
    def test_version_is_stable_for_same_words(self):
        assert Vocabulary(["a", "b"]).version == Vocabulary(["a", "b"]).version

    def test_version_depends_on_order(self):
        assert Vocabulary(["a", "b"]).version != Vocabulary(["b", "a"]).version

    def test_version_changes_on_growth(self):
        vocab = Vocabulary(["a"])
        before = vocab.version
        vocab.intern("b")
        assert vocab.version != before

    def test_version_is_short_hex(self):
        version = Vocabulary(["w"]).version
        assert isinstance(version, str)
        int(version, 16)  # must parse as hexadecimal


class TestSharedUsage:
    def test_two_summaries_share_id_space(self):
        from repro.summaries.summary import ContentSummary

        vocab = Vocabulary()
        a = ContentSummary(10, {"x": 0.5, "y": 0.25}, vocab=vocab)
        b = ContentSummary(20, {"y": 0.75, "z": 0.1}, vocab=vocab)
        assert a.vocab is b.vocab
        # "y" resolves to one id for both summaries.
        (y_id,) = vocab.ids_of(["y"]).tolist()
        assert a.lookup_ids(np.array([y_id]), "df")[0] == pytest.approx(0.25)
        assert b.lookup_ids(np.array([y_id]), "df")[0] == pytest.approx(0.75)

    def test_rebind_moves_a_summary_onto_an_extending_vocabulary(self):
        from repro.summaries.summary import ContentSummary

        copy = Vocabulary(["x", "y"])
        summary = ContentSummary(10, {"y": 0.5, "x": 0.25}, vocab=copy)
        live = Vocabulary(["x", "y", "z"])
        assert live.extends(copy) and live.extends(live)
        assert not copy.extends(live)
        assert not Vocabulary(["y", "x"]).extends(copy)
        rebound = summary.rebind(live)
        assert rebound.vocab is live and summary.vocab is copy
        assert rebound.regime_arrays("df")[0] is summary.regime_arrays("df")[0]
        assert rebound.p("y") == 0.5
        assert summary.rebind(copy) is summary
        with pytest.raises(ValueError):
            summary.rebind(Vocabulary(["y", "x"]))
