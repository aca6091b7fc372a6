import math
import random

import pytest

from minit5.corpus import (CorpusStats, corpus_stats, fix_encoding,
                           pack_sentences, prepare_documents, split_sentences)


def wc(docs):
    return [len(d) for d in docs]


def make_sentences(counts):
    return [[f"w{i}_{k}" for k in range(n)] for i, n in enumerate(counts)]


def text(words):
    return " ".join(words)


class TestFixEncoding:
    def test_mojibake_repair_derived(self):
        # oracle: damage clean text by the UTF-8-read-as-Latin-1 round trip
        clean = "São Paulo"
        damaged = clean.encode("utf-8").decode("latin-1")
        assert damaged != clean
        assert fix_encoding(damaged) == clean

    def test_full_accent_set_round_trip(self):
        clean = "ã õ á é í ó ú â ê ô à ç Ã Õ Á É Í Ó Ú Â Ê Ô À Ç"
        damaged = clean.encode("utf-8").decode("latin-1")
        assert fix_encoding(damaged) == clean

    def test_identity_on_ascii(self):
        assert fix_encoding("plain ascii") == "plain ascii"

    def test_line_ending_normalization(self):
        assert fix_encoding("a\r\nb") == "a\nb"
        assert fix_encoding("a\rb") == "a\nb"

    def test_whitespace_collapse_keeps_newlines(self):
        assert fix_encoding("a\t\t b  c\nd") == "a b c\nd"

    def test_nul_dropped(self):
        assert "\x00" not in fix_encoding("a\x00b")

    def test_unrepairable_passes_through(self):
        assert fix_encoding("Ã!") == "Ã!"

    def test_idempotent_fuzz(self):
        rng = random.Random(13)
        alphabet = "abc ÃÂ£\x83\xa0\t\r\n.!ç?"
        for _ in range(300):
            s = "".join(rng.choice(alphabet) for _ in range(rng.randrange(0, 40)))
            once = fix_encoding(s)
            assert fix_encoding(once) == once


class TestSplitSentences:
    def test_two_terminals(self):
        sents = split_sentences("Olá. Tudo bem?")
        assert [text(s) for s in sents] == ["Olá.", "Tudo bem?"]

    def test_abbreviation_guard(self):
        sents = split_sentences("Dr. Silva chegou.")
        assert [text(s) for s in sents] == ["Dr. Silva chegou."]

    def test_all_guarded_abbreviations(self):
        for abbr in ("Sr.", "Sra.", "Dr.", "Dra.", "etc.", "e.g.", "i.e."):
            sents = split_sentences(f"foo {abbr} Bar baz.")
            assert len(sents) == 1, abbr

    def test_newline_hard_boundary(self):
        sents = split_sentences("a\nb")
        assert [text(s) for s in sents] == ["a", "b"]

    def test_opening_quote_starts_sentence(self):
        sents = split_sentences('Ele saiu. "Volto já", disse.')
        assert [text(s) for s in sents] == ["Ele saiu.", '"Volto já", disse.']

    def test_lowercase_continuation_not_split(self):
        sents = split_sentences("foi em 1999. e continuou depois.")
        assert len(sents) == 1

    def test_no_empty_sentences_and_all_content_kept(self):
        rng = random.Random(7)
        words = ["Olá", "tudo", "bem", "Dr.", "casa", "FIM", "a.b", "x!"]
        for _ in range(200):
            raw = " ".join(rng.choice(words) for _ in range(rng.randrange(0, 30)))
            sents = split_sentences(raw)
            assert all(len(s) >= 1 for s in sents)
            assert [w for s in sents for w in s] == raw.split()


    def test_words_are_non_empty_and_whitespace_free(self):
        # U+200B (zero-width space) is a format character, not whitespace
        for code in range(0x3001):
            raw = f"x a{chr(code)}b"
            words = [w for s in split_sentences(raw) for w in s]
            assert words == raw.split()
            assert all(w and not any(ch.isspace() for ch in w) for w in words)


class TestPackSentences:
    def test_split_forced_then_packs(self):
        sents = make_sentences([300, 300, 100])
        docs = pack_sentences(sents, max_words=512)
        assert docs == [sents[0], sents[1] + sents[2]]

    def test_oversize_sentence_truncated_as_own_document(self):
        docs = pack_sentences(make_sentences([600]), max_words=512)
        assert wc(docs) == [512]
        assert len(docs) == 1

    def test_exact_fit_boundary(self):
        docs = pack_sentences(make_sentences([512, 1]), max_words=512)
        assert wc(docs) == [512, 1]

    def test_empty_input(self):
        assert pack_sentences([], max_words=512) == []

    def test_order_preserved_and_word_sequence_reproduced(self):
        rng = random.Random(3)
        for _ in range(100):
            sents = make_sentences([rng.randrange(1, 40) for _ in range(rng.randrange(0, 30))])
            docs = pack_sentences(sents, max_words=64)
            original = [w for s in sents for w in s]
            packed = [w for d in docs for w in d]
            assert packed == original  # no sentence here exceeds the budget

    def test_greedy_maximality(self):
        # adding the first sentence of the next document would overflow
        rng = random.Random(5)
        for _ in range(100):
            sents = make_sentences([rng.randrange(1, 30) for _ in range(25)])
            docs = pack_sentences(sents, max_words=48)
            # no sentence is cut here, so each document opens with a word
            # w{i}_0, the first of sentence i
            firsts = [len(sents[int(d[0][1:].split("_")[0])]) for d in docs]
            for a, first in zip(docs, firsts[1:]):
                assert len(a) + first > 48
                assert len(a) <= 48

    def test_truncation_rule_is_only_word_loss(self):
        sents = make_sentences([10, 600, 5])
        docs = pack_sentences(sents, max_words=512)
        assert docs == [sents[0], sents[1][:512], sents[2]]


class TestCorpusStats:
    def test_constant_case(self):
        docs = pack_sentences(make_sentences([360, 360]), max_words=512)
        # 360 + 360 does not fit in 512, so two documents of 360
        stats = corpus_stats(docs)
        assert stats.mean_words == 360
        assert stats.std_words == 0

    def test_hand_case_population_std(self):
        docs = [[f"w{i}" for i in range(n)] for n in (100, 300)]
        stats = corpus_stats(docs)
        assert stats == CorpusStats(2, 400, 200.0, 100.0)

    def test_empty_corpus_error(self):
        with pytest.raises(ValueError, match="empty corpus"):
            corpus_stats([])

    def test_synthetic_corpus_against_recount(self):
        rng = random.Random(11)
        counts = [rng.randrange(1, 512) for _ in range(1000)]
        docs = [[f"w{i}" for i in range(n)] for n in counts]
        stats = corpus_stats(docs)
        # independent recount
        n = len(counts)
        total = 0
        for c in counts:
            total += c
        mean = total / n
        var = sum((c - mean) ** 2 for c in counts) / n
        assert stats.n_documents == n
        assert stats.n_words == total
        assert stats.mean_words == pytest.approx(mean, abs=0)
        assert stats.std_words == pytest.approx(math.sqrt(var), rel=1e-12)


def test_prepare_documents_end_to_end():
    raw = "SÃ£o Paulo Ã© grande. Tem muita gente.\r\nOutra linha aqui."
    docs = prepare_documents([raw], max_words=6)
    assert text(docs[0]).startswith("São Paulo é grande.")
    assert all(len(d) <= 6 for d in docs)
