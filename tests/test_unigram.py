import importlib.util
import math
import os
import random
from collections import Counter

import numpy as np
import pytest

from minit5.unigram import (BOUNDARY, EOS_ID, MASK_ID, PAD_ID, RESERVED_PIECES,
                            UNK_ID, UnigramVocab, build_seed_vocab, decode,
                            em_step, encode, prune_vocab, train_vocab)
from minit5 import unigram
from minit5.unigram import (N_RESERVED, _Lattice, _alternatives, _logadd, _piece_table,
                            _prune, _sentence_edges, _weighted_internal, _word_lattice)

from oracles import (_viterbi_piece_counts, all_segmentations, best_segmentation,
                     enumerate_expected_counts, reference_edges, reference_em,
                     reference_prune, reference_seed_scores, reference_train_vocab,
                     reference_words, segment_without_self, sentence_encode,
                     sentence_piece_counts)

PT_WORDS = ["casa", "gato", "cão", "água", "pão", "maçã", "coração", "você",
            "então", "também", "história", "rápido", "número", "São", "Paulo",
            "obrigado", "língua", "açúcar", "férias", "avó"]


def make_vocab(scored: dict[str, float]) -> UnigramVocab:
    return UnigramVocab([(p, 0.0) for p in RESERVED_PIECES] + list(scored.items()))


def lattice_usage(sentences: dict[str, int], vocab: UnigramVocab) -> Counter:
    """Pruning's usage counts for the vocabulary's pieces, from the lattice of
    the sentences' distinct words; zero counts dropped."""
    scored = vocab.scored_body()
    return +Counter(_word_lattice(sentences, scored).usage(scored, vocab._table))


def make_fresh(vocab: UnigramVocab) -> UnigramVocab:
    """The same pieces in a new vocabulary, with an empty encode memo."""
    return UnigramVocab(vocab.pieces)


def pt_corpus(n_sentences: int, seed: int = 0, max_words: int = 6) -> list[str]:
    rng = random.Random(seed)
    return [" ".join(rng.choice(PT_WORDS) for _ in range(rng.randrange(1, max_words)))
            for _ in range(n_sentences)]


class TestSeedVocab:
    def test_tiny_corpus_keeps_all_substrings(self):
        vocab = build_seed_vocab(["aa"], 3)
        pieces = {p for p, _ in vocab.pieces}
        assert {"a", "aa"} <= pieces

    def test_substring_frequency(self):
        vocab = build_seed_vocab(["ab", "ab"], 4)
        # initial probs come from raw frequencies: freq(ab) == freq(a) == 2
        scored = vocab.scored_body()
        assert math.isclose(scored["ab"], scored["a"])
        assert math.isclose(scored["ab"], scored["b"])

    def test_seed_size_below_character_count(self):
        with pytest.raises(ValueError, match="seed_size"):
            build_seed_vocab(["abcdef"], 3)

    def test_character_coverage_on_sample(self):
        corpus = pt_corpus(2000, seed=1)
        vocab = build_seed_vocab(corpus, 8000)
        pieces = {p for p, _ in vocab.pieces}
        chars = {ch for line in corpus for ch in line.replace(" ", BOUNDARY)}
        assert chars <= pieces

    def test_scores_equal_a_count_over_every_sentence(self):
        rng = random.Random(3)
        corpora = [pt_corpus(200, seed=1), ["a  b", " ab ", "ba\tb"]]
        corpora += [["".join(rng.choice("ab c") for _ in range(rng.randrange(0, 15)))
                     for _ in range(rng.randrange(1, 10))] for _ in range(100)]
        for trial, corpus in enumerate(corpora):
            n_chars = len({ch for line in corpus for ch in line})
            if not n_chars:
                continue
            for size in (n_chars, n_chars + 7, 400):
                want = reference_seed_scores(corpus, size)
                got = build_seed_vocab(corpus, size).scored_body()
                assert repr(sorted(got.items())) == repr(sorted(want.items())), trial

    def test_reserved_spellings_never_become_pieces(self):
        vocab = build_seed_vocab(["x <unk> y", "<M> <M>"], 200)
        body = vocab.scored_body()
        for reserved in RESERVED_PIECES:
            assert reserved not in body


class TestEmStep:
    def test_single_piece_identity(self):
        vocab = make_vocab({"a": math.log(1.0)})
        new, ll = em_step(["aaa"], vocab)
        assert ll == pytest.approx(0.0, abs=1e-12)
        assert new.scored_body()["a"] == pytest.approx(0.0, abs=1e-12)

    def test_two_path_hand_case(self):
        vocab = make_vocab({"a": math.log(0.5), "aa": math.log(0.5)})
        new, ll = em_step(["aa"], vocab)
        # paths: "aa" (.5) and "a a" (.25); posterior 2/3 vs 1/3
        assert ll == pytest.approx(math.log(0.75), abs=1e-12)
        # expected counts: aa -> 2/3, a -> 2 * 1/3; renormalized to 1/2, 1/2
        scored = new.scored_body()
        assert math.exp(scored["aa"]) == pytest.approx(0.5, abs=1e-12)
        assert math.exp(scored["a"]) == pytest.approx(0.5, abs=1e-12)

    def test_expected_counts_match_enumeration(self):
        rng = random.Random(23)
        corpus = ["".join(rng.choice("ab") for _ in range(rng.randrange(1, 11)))
                  for _ in range(50)]
        vocab = build_seed_vocab(corpus, 40)
        scored = vocab.scored_body()
        # oracle: enumerate all segmentations of each sentence
        want: dict[str, float] = {}
        total_ll = 0.0
        weights: dict[str, int] = {}
        for s in corpus:
            weights[s] = weights.get(s, 0) + 1
        for s, w in weights.items():
            counts, z = enumerate_expected_counts(s, scored)
            total_ll += w * math.log(z)
            for p, c in counts.items():
                want[p] = want.get(p, 0.0) + w * c
        got, ll = em_step(corpus, vocab)
        assert ll == pytest.approx(total_ll, abs=1e-10)
        total = sum(want.values())
        got_scored = got.scored_body()
        for p, c in want.items():
            assert math.exp(got_scored[p]) == pytest.approx(c / total, abs=1e-10)

    def test_unknown_character_not_fatal(self):
        vocab = make_vocab({"a": math.log(1.0)})
        new, ll = em_step(["aXa"], vocab)
        assert math.isfinite(ll)

    def test_monotone_log_likelihood(self):
        corpus = pt_corpus(200, seed=3)
        vocab = build_seed_vocab(corpus, 400)
        prev = None
        for _ in range(20):
            vocab, ll = em_step(corpus, vocab)
            if prev is not None:
                assert ll >= prev - 1e-9 * abs(prev)
            prev = ll


class TestPrune:
    def test_noop_at_target(self):
        corpus = ["abab", "ab"]
        vocab = build_seed_vocab(corpus, 6)
        out = prune_vocab(corpus, vocab, target_size=len(vocab))
        assert out.pieces == vocab.pieces

    def test_zero_use_piece_removed_first(self):
        # "xy" never appears in the corpus text, so it sits on no Viterbi path
        scored = {"a": math.log(0.4), "b": math.log(0.3),
                  "ab": math.log(0.2), "xy": math.log(0.05),
                  "x": math.log(0.025), "y": math.log(0.025)}
        vocab = make_vocab(scored)
        out = prune_vocab(["abab", "ab", "x", "y"], vocab, target_size=len(vocab) - 1)
        body = out.scored_body()
        assert "xy" not in body
        assert "ab" in body

    def test_exact_final_size(self):
        corpus = pt_corpus(300, seed=5)
        vocab = build_seed_vocab(corpus, 8000)
        assert len(vocab) > 300
        out = prune_vocab(corpus, vocab, target_size=300)
        assert len(out) == 300

    def test_usage_counts_are_the_pieces_encode_emits(self):
        # frequency log-probs of "ab"/"abc" text give exact ties (seeds 79 and
        # 88 here); on a tie, pruning must count the pieces encode picks
        def counts_and_emitted(vocab, corpus):
            usage = lattice_usage(_weighted_internal(corpus), vocab)
            return usage, Counter(vocab.piece(i) for line in corpus
                                  for i in encode(vocab, line))

        for seed in range(200):
            rng = random.Random(seed)
            alphabet = "ab" if seed % 2 else "abc"
            corpus = ["".join(rng.choice(alphabet) for _ in range(rng.randrange(1, 17)))
                      for _ in range(rng.randrange(1, 21))]
            vocab = build_seed_vocab(corpus, rng.randrange(len(set("".join(corpus))), 40))
            usage, emitted = counts_and_emitted(vocab, corpus)
            assert usage == emitted, seed
        # "abcdef": [abc, d, ef] and [a, bcde, f] tie on mass and count; the
        # second is lexicographically smaller although its last piece starts later
        vocab = make_vocab({p: math.log(1 / 6) for p in ("a", "abc", "bcde", "d", "ef", "f")})
        usage, emitted = counts_and_emitted(vocab, ["abcdef"])
        assert usage == emitted == Counter({"a": 1, "bcde": 1, "f": 1})

    def test_segment_without_self_keeps_the_unknown_edge(self):
        # "a" is no piece, so the only other way through "ab" is <unk> + "b"
        scored = {"ab": math.log(0.5), "b": math.log(0.5)}
        unk_lp = math.log(0.5) - 10.0
        assert segment_without_self("ab", _piece_table(scored), unk_lp) == \
            unk_lp + math.log(0.5)
        assert _alternatives(["ab"], _piece_table(scored), unk_lp) == \
            {"ab": unk_lp + math.log(0.5)}

    def test_target_below_minimum(self):
        corpus = ["abcdefgh"]
        vocab = build_seed_vocab(corpus, 30)
        with pytest.raises(ValueError, match="below minimum"):
            prune_vocab(corpus, vocab, target_size=5)


class TestTrainVocab:
    def test_frequent_pair_beats_reverse(self):
        corpus = ["abab"] * 10
        vocab = train_vocab(corpus, vocab_size=11, seed_size=7)
        scored = vocab.scored_body()
        assert "ab" in scored and "ba" in scored
        assert scored["ab"] > scored["ba"]
        # oracle: corpus likelihood drops if ab/ba probabilities are swapped
        swapped = dict(scored)
        swapped["ab"], swapped["ba"] = swapped["ba"], swapped["ab"]
        def corpus_ll(s):
            _, z = enumerate_expected_counts("abab", s)
            return 10 * math.log(z)
        assert corpus_ll(scored) > corpus_ll(swapped)

    def test_single_character_corpus(self):
        vocab = train_vocab(["a"], vocab_size=5)
        assert [p for p, _ in vocab.pieces] == list(RESERVED_PIECES) + ["a"]

    def test_deterministic_retraining_byte_identical(self, tmp_path):
        corpus = pt_corpus(60, seed=9)
        p1, p2 = tmp_path / "v1.tsv", tmp_path / "v2.tsv"
        train_vocab(corpus, vocab_size=80).save(p1)
        train_vocab(corpus, vocab_size=80).save(p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_trained_invariants(self):
        corpus = pt_corpus(80, seed=11)
        vocab = train_vocab(corpus, vocab_size=120)
        body = vocab.scored_body()
        assert all(math.isfinite(lp) and lp < 0 for lp in body.values())
        assert sum(math.exp(lp) for lp in body.values()) == pytest.approx(1.0, abs=1e-6)
        chars = {ch for line in corpus for ch in line.replace(" ", BOUNDARY)}
        assert chars <= set(body)

    def test_vocab_size_too_small(self):
        with pytest.raises(ValueError, match="cannot cover"):
            train_vocab(["abcdef"], vocab_size=6)


class TestEncode:
    def test_single_piece_beats_two(self):
        vocab = make_vocab({"a": math.log(0.5), "b": math.log(0.25),
                            "ab": math.log(0.25)})
        ids = encode(vocab, "ab")
        assert [vocab.piece(i) for i in ids] == ["ab"]

    def test_empty_string(self):
        vocab = make_vocab({"a": math.log(1.0)})
        assert encode(vocab, "") == []

    def test_unknown_character_maps_to_unk(self):
        vocab = make_vocab({"a": math.log(1.0)})
        assert encode(vocab, "aXa") == [vocab.id_of("a"), UNK_ID, vocab.id_of("a")]

    def test_reserved_ids_never_emitted_for_covered_text(self):
        corpus = pt_corpus(50, seed=13)
        vocab = train_vocab(corpus, vocab_size=90)
        for line in corpus[:20]:
            assert all(i > MASK_ID for i in encode(vocab, line))

    def test_tie_break_fewer_pieces_then_lexicographic(self):
        # p(ab) == p(a)*p(b): equal mass, the single-piece path wins
        vocab = make_vocab({"a": math.log(0.5), "b": math.log(0.5),
                            "ab": math.log(0.25)})
        ids = encode(vocab, "ab")
        assert [vocab.piece(i) for i in ids] == ["ab"]
        # equal mass and equal piece count: lexicographically smaller sequence
        vocab2 = make_vocab({"a": math.log(0.25), "b": math.log(0.25),
                             "x": math.log(0.25), "ax": math.log(0.25),
                             "xb": math.log(0.25)})
        ids2 = encode(vocab2, "axb")
        # [a, xb] vs [ax, b]: both 0.0625 with two pieces; "a" < "ax"
        assert [vocab2.piece(i) for i in ids2] == ["a", "xb"]

    def test_viterbi_matches_exhaustive_oracle(self):
        rng = random.Random(101)
        alphabet = "abc"
        for trial in range(500):
            # vocab of <= 20 pieces always covering the single characters
            pieces = {ch: None for ch in alphabet}
            while len(pieces) < rng.randrange(4, 21):
                ln = rng.randrange(2, 5)
                pieces["".join(rng.choice(alphabet) for _ in range(ln))] = None
            raw = {p: rng.random() + 0.05 for p in pieces}
            total = sum(raw.values())
            scored = {p: math.log(v / total) for p, v in raw.items()}
            vocab = make_vocab(scored)
            s = "".join(rng.choice(alphabet) for _ in range(rng.randrange(1, 13)))
            got = tuple(vocab.piece(i) for i in encode(vocab, s))
            want = best_segmentation(s, scored)
            assert got == want, f"trial {trial}: {s} -> {got} vs {want}"
            for p in (p for p in pieces if len(p) > 1):
                alt = max(sum(scored[q] for q in seg)
                          for seg in all_segmentations(p, set(pieces) - {p}))
                assert segment_without_self(p, vocab._table, vocab.unk_log_prob) == \
                    pytest.approx(alt, rel=0.0, abs=1e-12), (trial, p)
            assert encode(vocab, s) == sentence_encode(vocab, s), trial


def load_perfbench_gen():
    """perfbench/gen.py, the benchmark's text and vocabulary generator."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    spec = importlib.util.spec_from_file_location(
        "perfbench_gen", os.path.join(root, "perfbench", "gen.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestPerWordEncode:
    """encode segments each word on its own and memoizes its ids."""

    def test_a_word_encodes_the_same_after_any_prefix(self):
        corpus = pt_corpus(60, seed=17)
        vocab = train_vocab(corpus, vocab_size=100)
        assert vocab._cut
        rng = random.Random(5)
        for prefix in corpus[:20] + ["", " ", "casa  "]:
            for word in rng.sample(PT_WORDS, 5) + ["X", "casaX"]:
                assert encode(vocab, f"{prefix} {word}") == \
                    encode(vocab, prefix) + encode(make_fresh(vocab), f" {word}"), (prefix, word)

    def test_equals_the_sentence_level_encode_on_benchmark_text(self):
        gen = load_perfbench_gen()
        lex = gen.language()
        for seed, size in ((5, 32000), (1, 8000), (11, 8000)):
            rng = random.Random(seed)
            lines = gen.sentences(rng, lex, 6000) + gen.packed_documents(rng, lex, 8, 40)
            lines += [" ".join(row[1:3]) for row in gen.pair_rows(rng, lex, 30, 0)]
            vocab = gen.build_vocab(lex, size, lines)
            for line in lines:
                assert encode(vocab, line) == sentence_encode(vocab, line), (seed, line)

    def test_equals_the_sentence_level_encode_on_random_lattices(self):
        rng = random.Random(29)
        for trial in range(500):
            scored, text = random_lattice_case(rng)
            vocab = make_vocab(scored)
            for line in (text, " " + text, text + "  ab"):
                assert encode(vocab, line) == sentence_encode(vocab, line), trial

    def test_a_piece_holding_a_marker_inside_turns_the_cut_off(self, tmp_path):
        path = tmp_path / "vocab.tsv"
        make_vocab({"a": math.log(0.1), "b": math.log(0.1), BOUNDARY: math.log(0.1),
                    "a" + BOUNDARY + "b": math.log(0.7)}).save(path)
        vocab = UnigramVocab.load(path)
        assert not vocab._cut
        assert [vocab.piece(i) for i in encode(vocab, "a b a")] == \
            ["a" + BOUNDARY + "b", BOUNDARY, "a"]
        encode(vocab, "b a b")
        assert vocab._memo == {}  # whole texts as keys would never repeat
        cut = make_vocab({"a": math.log(0.1), "b": math.log(0.1),
                          BOUNDARY + "b": math.log(0.8)})
        assert cut._cut
        assert [cut.piece(i) for i in encode(cut, "a b")] == ["a", BOUNDARY + "b"]

    def test_results_past_the_memo_capacity_equal_those_below_it(self, monkeypatch):
        corpus = pt_corpus(80, seed=19)
        vocab = train_vocab(corpus, vocab_size=150)
        text = corpus + ["casa gato", "gato casa", "casa"]
        want = [encode(make_fresh(vocab), line) for line in text]
        monkeypatch.setattr(unigram, "_ENCODE_MEMO_WORDS", 3)
        small = make_fresh(vocab)
        assert [encode(small, line) for line in text] == want
        assert [encode(small, line) for line in text] == want
        assert len(small._memo) == 3

    def test_a_literal_marker_is_an_unknown_character(self):
        vocab = make_vocab({**dict.fromkeys("ogat" + BOUNDARY, math.log(0.1)),
                            "gato": math.log(0.25), BOUNDARY + "gato": math.log(0.25)})
        assert vocab.covers("o gato")
        assert not vocab.covers("o" + BOUNDARY + "gato")
        assert encode(vocab, "o" + BOUNDARY + "gato") == \
            [vocab.id_of("o"), UNK_ID, vocab.id_of("gato")]
        assert encode(vocab, BOUNDARY) == [UNK_ID]
        assert decode(vocab, encode(vocab, "o gato")) == "o gato"

    def test_prefix_memo_alternatives_equal_the_scalar_walk(self):
        rng = random.Random(31)
        cases = [random_lattice_case(rng)[0] for _ in range(600)]
        cases.append(build_seed_vocab(pt_corpus(80, seed=4), 600).scored_body())
        for trial, scored in enumerate(cases):
            table = _piece_table(scored)
            unk_lp = min(scored.values()) - 10.0
            multis = [p for p in scored if len(p) > 1]
            want = {p: segment_without_self(p, table, unk_lp) for p in multis}
            assert repr(_alternatives(multis, table, unk_lp)) == repr(want), trial

    def test_usage_counts_equal_the_sentence_level_counts(self):
        corpus = pt_corpus(200, seed=2)
        sentences = _weighted_internal(corpus)
        vocab = train_vocab(corpus, vocab_size=120)
        assert lattice_usage(sentences, vocab) == \
            sentence_piece_counts(sentences, vocab._table, vocab.unk_log_prob)


class TestDecode:
    def test_round_trip(self):
        corpus = pt_corpus(60, seed=17)
        vocab = train_vocab(corpus, vocab_size=100)
        s = "olá mundo"
        covered = {ch for line in corpus for ch in line}
        if all(ch in covered for ch in s):
            assert decode(vocab, encode(vocab, s)) == s

    def test_empty(self):
        vocab = make_vocab({"a": math.log(1.0)})
        assert decode(vocab, []) == ""

    def test_pad_suffix_rejected(self):
        """No sequence is padded, so a trailing pad is an error too."""
        vocab = make_vocab({"a": math.log(1.0)})
        ids = encode(vocab, "aa") + [PAD_ID, PAD_ID]
        with pytest.raises(ValueError, match="ids contains the padding id 0"):
            decode(vocab, ids)

    def test_out_of_range_id(self):
        vocab = make_vocab({"a": math.log(1.0)})
        with pytest.raises(ValueError, match="out of range"):
            decode(vocab, [len(vocab)])

    def test_interior_pad_rejected(self):
        vocab = make_vocab({"a": math.log(1.0)})
        with pytest.raises(ValueError, match="padding"):
            decode(vocab, [vocab.id_of("a"), PAD_ID, vocab.id_of("a")])

    def test_eos_skipped(self):
        vocab = make_vocab({"a": math.log(1.0)})
        assert decode(vocab, [vocab.id_of("a"), EOS_ID]) == "a"

    def test_round_trip_fuzz_10k(self):
        corpus = pt_corpus(80, seed=19)
        vocab = train_vocab(corpus, vocab_size=150)
        chars = sorted({ch for line in corpus for ch in line})
        rng = random.Random(999)
        failures = 0
        for _ in range(10_000):
            n = rng.randrange(0, 24)
            s = "".join(rng.choice(chars) for _ in range(n)).strip()
            if decode(vocab, encode(vocab, s)) != s:
                failures += 1
        assert failures == 0


def random_lattice_case(rng: random.Random) -> tuple[dict[str, float], str]:
    """A random vocabulary over a, b, c and the boundary marker, and text for it.
    Some single characters stay uncovered and the text may hold an X no piece
    covers; pieces may open with the boundary marker; one piece is longer than
    all others, and in half the cases its shorter prefixes are no pieces."""
    alphabet = "abc" + BOUNDARY
    pieces = {ch for ch in alphabet if rng.random() < 0.8}
    for _ in range(rng.randrange(1, 12)):
        pieces.add("".join(rng.choice(alphabet) for _ in range(rng.randrange(2, 5))))
    longest = "".join(rng.choice(alphabet) for _ in range(rng.randrange(6, 10)))
    pieces.add(longest)
    if rng.random() < 0.5:
        pieces -= {longest[:k] for k in range(2, len(longest))}
    scored = {p: math.log(rng.random() + 0.01) for p in sorted(pieces)}
    choices = sorted(pieces) + list(alphabet) + ["X", longest]
    text = "".join(rng.choice(choices) for _ in range(rng.randrange(0, 8)))
    return scored, text.replace(BOUNDARY, " ")


def bounded_probe(sent, table, unk_lp):
    """The reference edge builder behind the _sentence_edges signature."""
    scored = {p: lp for p, lp in table.items() if lp is not None}
    return reference_edges(sent, scored, unk_lp, max(map(len, scored), default=1))


class TestPrefixTable:
    def test_table_holds_pieces_and_exactly_their_other_prefixes(self):
        rng = random.Random(7)
        for trial in range(500):
            scored, _ = random_lattice_case(rng)
            prefixes = {p[:k] for p in scored for k in range(1, len(p))} - set(scored)
            assert _piece_table(scored) == {**scored, **dict.fromkeys(prefixes)}, trial

    def test_edges_equal_the_bounded_probe_edge_for_edge(self):
        fixed = [({"a": -1.0, "b": -1.0, "c": -1.0, "d": -1.0, "abcd": -2.0}, "abcdabcab"),
                 ({"b": -1.0, "abcd": -2.0}, "aabcdXabc"),
                 ({BOUNDARY + "ab": -1.0, "a": -2.0, BOUNDARY: -3.0}, " ab a  b")]
        rng = random.Random(11)
        cases = fixed + [random_lattice_case(rng) for _ in range(600)]
        for trial, (scored, text) in enumerate(cases):
            sent = text.replace(" ", BOUNDARY)
            unk_lp = min(scored.values()) - 10.0
            want = reference_edges(sent, scored, unk_lp, max(map(len, scored)))
            assert _sentence_edges(sent, _piece_table(scored), unk_lp) == want, trial

    def test_encode_segment_and_em_step_bitwise_over_both_builders(self, monkeypatch):
        rng = random.Random(13)
        for trial in range(500):
            scored, text = random_lattice_case(rng)
            corpus = [text, text[::-1], text[1:] + "a", "ab c" + text]

            def outputs():  # a fresh vocabulary each call: an empty encode memo
                vocab = make_vocab(scored)
                segments = [segment_without_self(p, vocab._table, vocab.unk_log_prob)
                            for p in scored if len(p) > 1]
                new, loglik = em_step(corpus, vocab)
                return repr(([encode(vocab, line) for line in corpus], segments,
                             new.pieces, loglik))

            got = outputs()
            with monkeypatch.context() as patch:
                patch.setattr(unigram, "_sentence_edges", bounded_probe)
                assert outputs() == got, trial


class TestEmMatchesTheScalarReference:
    """The level-swept EM must reproduce the scalar recurrence bit for bit."""

    def test_logaddexp_rounds_like_logadd(self):
        rng = np.random.default_rng(5)
        a = rng.normal(0.0, 50.0, 200_000)
        b = np.concatenate([rng.normal(0.0, 50.0, 100_000),  # random
                            a[100_000:150_000],  # equal
                            a[150_000:175_000] - rng.uniform(30.0, 800.0, 25_000)])
        b = np.concatenate([b, np.full(25_000, -np.inf)])  # widely separated, -inf
        a[:1000] = -np.inf
        b[:500] = -np.inf  # both -inf
        for x, y in ((a, b), (b, a)):
            want = [_logadd(p, q) for p, q in zip(x.tolist(), y.tolist())]
            got = np.logaddexp(x, y)
            assert got.tobytes() == np.array(want).tobytes()

    def test_em_step_equals_the_reference_bitwise(self):
        rng = random.Random(17)
        for trial in range(320):
            scored, text = random_lattice_case(rng)
            # steep scores underflow gammas to 0; below -1e308 every path of two
            # or more pieces overflows to -inf, and so do most sentences' logZ
            kind = trial % 4
            if kind == 2:
                scored = {p: 400.0 * lp - 1.0 for p, lp in scored.items()}
            elif kind == 3:
                scored = {p: -1e308 - 5e307 * rng.random() for p in scored}
            corpus = [text, text[::-1], text[1:] + "a", "ab c" + text, text]
            vocab = make_vocab(scored)
            with np.errstate(over="ignore"):
                new, loglik = em_step(corpus, vocab)
            want, want_ll = reference_em(reference_words(corpus, vocab._cut), scored,
                                         vocab.unk_log_prob)
            assert repr((list(new.scored_body().items()), loglik)) == \
                repr((list(want.items()), want_ll)), trial

    @pytest.mark.parametrize("n_sentences,seed_size,target", [(60, 500, 90), (200, 2000, 150)])
    def test_prune_and_train_vocab_equal_the_reference_bitwise(self, n_sentences,
                                                               seed_size, target):
        corpus = pt_corpus(n_sentences, seed=n_sentences)
        vocab = build_seed_vocab(corpus, seed_size)
        want = UnigramVocab.from_scored(
            reference_prune(reference_words(corpus), vocab.scored_body(), target))
        assert repr(prune_vocab(corpus, vocab, target).pieces) == repr(want.pieces)
        assert repr(train_vocab(corpus, target).pieces) == \
            repr(reference_train_vocab(corpus, target).pieces)

    def test_em_over_words_equals_em_over_sentences_up_to_rounding(self):
        """A sentence's lattice is its words' lattices end to end, so one pass
        over the distinct words moves the sentence-level sums only by rounding."""
        gen = load_perfbench_gen()
        rng, lex = random.Random(5), gen.language()
        gen.raw_text(rng, lex, n_chars=80000, sentences_per_paragraph=8)
        data = gen.sentences(rng, lex, n_chars=9000)  # the data workload's EM corpus
        for corpus, seed_size in ((pt_corpus(200, seed=3), 2000), (data, 8000)):
            sentences = _weighted_internal(corpus)
            scored = build_seed_vocab(corpus, seed_size).scored_body()
            by_word, word_ll = _word_lattice(sentences, scored).em(scored)
            by_sentence, sentence_ll = _Lattice(sentences, scored).em(scored)
            assert list(by_word) == list(by_sentence)
            for piece, lp in by_sentence.items():
                assert by_word[piece] == pytest.approx(lp, rel=0.0, abs=1e-9), piece
            assert word_ll == pytest.approx(sentence_ll, rel=0.0, abs=1e-9)

    def test_masked_lattice_equals_a_fresh_build(self):
        corpus = pt_corpus(80, seed=4)
        sentences = _weighted_internal(corpus)
        scored = build_seed_vocab(corpus, 600).scored_body()
        n_singles = sum(len(p) == 1 for p in scored)
        one_round = N_RESERVED + n_singles + int((len(scored) - n_singles) * 0.75)
        masked = _Lattice(sentences, scored)
        survivors = _prune(masked, scored, one_round, 0.75)
        assert len(survivors) < len(scored)
        fresh = _Lattice(sentences, survivors)

        def edges(lattice):
            names = list(lattice._index) + [None]
            return [(s, e, names[k], t) for s, e, k, t in zip(
                *(a.tolist() for a in (lattice._start, lattice._end, lattice._piece,
                                       lattice._sent)))]

        assert edges(masked) == edges(fresh)
        assert repr(masked.em(survivors)) == repr(fresh.em(survivors))


class TestLatticeUsage:
    """Pruning's usage counts from one sweep over the word lattice must equal
    the scalar per-word Viterbi counts bit for bit."""

    @staticmethod
    def both(corpus, scored):
        sentences = _weighted_internal(corpus)
        table, unk_lp = _piece_table(scored), min(scored.values()) - 10.0
        usage = _word_lattice(sentences, scored).usage(scored, table)
        want = _viterbi_piece_counts(sentences, table, unk_lp, unigram._cuts_words(scored))
        return +Counter(usage), want

    def test_equals_the_scalar_counts_on_random_lattices(self):
        rng = random.Random(37)
        for trial in range(500):
            scored, text = random_lattice_case(rng)  # uncovered characters too
            corpus = [text, text[::-1], text[1:] + "a", "ab c" + text, text, "X" + text]
            got, want = self.both(corpus, scored)
            assert got == want, trial

    def test_equals_the_scalar_counts_through_pruning_rounds(self, monkeypatch):
        seen = []

        def checked(self, scored, table):
            got = usage(self, scored, table)
            want = _viterbi_piece_counts(self.words, table, min(scored.values()) - 10.0,
                                         True)
            seen.append(+Counter(got) == want)
            return got

        usage = _Lattice.usage
        monkeypatch.setattr(_Lattice, "usage", checked)
        train_vocab(pt_corpus(200, seed=9), vocab_size=150)
        assert len(seen) > 2 and all(seen)

    def test_exact_ties_fall_back_to_the_scalar_walk(self):
        """Dyadic log-probs make exact ties on (log-prob, piece count): in
        "abc" the first candidate to reach the end, [a, bc], is the
        lexicographically smaller; in "abcdef" the later one, [a, bcde, f],
        beats [abc, d, ef]."""
        short = dict.fromkeys(("a", "ab", "bc", "c"), -1.0)
        long = dict.fromkeys(("a", "abc", "bcde", "d", "ef", "f"), -1.0)
        for scored, corpus, path in (
                (short, ["abc"], {"a": 1, "bc": 1}),
                # the marker is no piece: "▁abcdef" opens with an unknown edge
                (long, ["abcdef", "abcdef", "d abcdef"], {"a": 3, "bcde": 3, "f": 3, "d": 1})):
            got, want = self.both(corpus, scored)
            assert got == want == Counter(path)


class TestVocabFile:
    def test_format_and_round_trip(self, tmp_path):
        corpus = pt_corpus(40, seed=21)
        vocab = train_vocab(corpus, vocab_size=60)
        path = tmp_path / "vocab.tsv"
        vocab.save(path)
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "<pad>\t0"
        assert lines[1] == "</s>\t0"
        assert lines[2] == "<unk>\t0"
        assert lines[3] == "<M>\t0"
        for line in lines[4:]:
            piece, lp = line.split("\t")
            assert float(lp) < 0
        loaded = UnigramVocab.load(path)
        assert loaded.pieces == vocab.pieces
        path2 = tmp_path / "again.tsv"
        loaded.save(path2)
        assert path.read_bytes() == path2.read_bytes()

    def test_failed_save_keeps_previous_file(self, tmp_path):
        vocab = train_vocab(pt_corpus(40, seed=21), vocab_size=60)
        path = tmp_path / "vocab.tsv"
        vocab.save(path)
        before = path.read_bytes()
        # the last row's log-prob cannot be formatted, so save raises midway
        vocab.pieces[-1] = (vocab.pieces[-1][0], "not a number")
        with pytest.raises(ValueError):
            vocab.save(path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["vocab.tsv"]

    @pytest.mark.parametrize("piece", ["\t", "a\tb", "\n", "a\n"])
    def test_save_rejects_a_piece_the_format_cannot_hold(self, tmp_path, piece):
        path = tmp_path / "vocab.tsv"
        make_vocab({"a": math.log(0.5)}).save(path)
        before = path.read_bytes()
        with pytest.raises(ValueError, match="tab or newline"):
            make_vocab({"a": math.log(0.5), piece: math.log(0.5)}).save(path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["vocab.tsv"]

    def test_reserved_header_enforced(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("a\t0\n", encoding="utf-8")
        with pytest.raises(ValueError, match="reserved"):
            UnigramVocab.load(path)

    def test_blank_line_before_the_last_piece_is_a_bad_line(self, tmp_path):
        # the line number is the id, so a skipped blank line would shift every later id
        path = tmp_path / "bad.tsv"
        header = "".join(f"{p}\t0\n" for p in RESERVED_PIECES)
        path.write_text(header + "a\t-1\n\nb\t-2\n", encoding="utf-8")
        with pytest.raises(ValueError, match="bad.tsv:5: bad vocabulary line"):
            UnigramVocab.load(path)
        path.write_text(header + "a\t-1\nb\t-2\n\n\n", encoding="utf-8")
        vocab = UnigramVocab.load(path)
        assert (len(vocab), vocab.id_of("a"), vocab.id_of("b")) == (6, 4, 5)

    def test_reserved_and_duplicate_errors_name_the_file(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("a\t0\n", encoding="utf-8")
        with pytest.raises(ValueError, match="bad.tsv: vocabulary must start with the reserved"):
            UnigramVocab.load(path)
        header = "".join(f"{p}\t0\n" for p in RESERVED_PIECES)
        path.write_text(header + "a\t-1\na\t-2\n", encoding="utf-8")
        with pytest.raises(ValueError, match="bad.tsv: piece strings must be unique"):
            UnigramVocab.load(path)

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_log_prob_rejected(self, tmp_path, value):
        path = tmp_path / "bad.tsv"
        header = "".join(f"{p}\t0\n" for p in RESERVED_PIECES)
        path.write_text(header + "b\t-1\n" + f"a\t{value}\n", encoding="utf-8")
        with pytest.raises(ValueError, match=f"bad.tsv:5: log-prob {value} is not finite"):
            UnigramVocab.load(path)
        with pytest.raises(ValueError, match="non-finite"):
            make_vocab({"a": float(value)})

    def test_empty_piece_rejected(self, tmp_path):
        # the row "\t-3.5" would load as '' and a real id
        path = tmp_path / "bad.tsv"
        header = "".join(f"{p}\t0\n" for p in RESERVED_PIECES)
        path.write_text(header + "a\t-1\n\t-3.5\n", encoding="utf-8")
        with pytest.raises(ValueError, match="bad.tsv:5: empty piece"):
            UnigramVocab.load(path)
        with pytest.raises(ValueError, match="^empty piece$"):
            make_vocab({"a": math.log(0.5), "": math.log(0.5)})

    def test_scored_body_is_a_copy(self):
        vocab = make_vocab({"a": math.log(0.5), "b": math.log(0.25), "ab": math.log(0.25)})
        before = encode(vocab, "abba")
        body = vocab.scored_body()
        body["ab"], body["ba"] = 0.0, 0.0
        del body["a"]
        assert encode(vocab, "abba") == before
        assert vocab.scored_body() == {"a": math.log(0.5), "b": math.log(0.25),
                                       "ab": math.log(0.25)}
