import itertools
import random

import pytest

from minit5.ner import LabelTable, validate_bio
from minit5.tasks import (ASSIN_PREFIX_1, NerExample, SentencePairExample,
                          assin_input_ids, build_ner_target, format_assin_pair,
                          format_ner_input, make_similarity_target,
                          ner_input_ids, parse_score_string, read_conll,
                          read_pairs_tsv, strip_accents, window_ner_example,
                          window_offsets)
from minit5.unigram import EOS_ID, decode, encode, train_vocab

from oracles import (reference_build_ner_target, reference_sliding_windows,
                     reference_window_tags)

EN = LabelTable("en")
PT = LabelTable("pt")


@pytest.fixture(scope="module")
def vocab():
    corpus = ["ASSIN sentence1: o gato dorme", "sentence2: um gato descansa",
              "3.0 4.5 2.2 1.8 5.0", "0 1 2 3 4 5 6 7 8 9", "nota 4,5",
              "Recognize Entities: John", "a b c x y z"]
    return train_vocab(corpus, vocab_size=130)


class TestAssinFormat:
    def test_segments(self):
        seg1, seg2 = format_assin_pair("A", "B")
        assert seg1 == "ASSIN sentence1: A"
        assert seg2 == "sentence2: B"

    def test_token_stream_structure(self, vocab):
        ids = assin_input_ids(vocab, "o gato", "um gato")
        want = (encode(vocab, "ASSIN sentence1: o gato") + [EOS_ID]
                + encode(vocab, "sentence2: um gato") + [EOS_ID])
        assert ids == want
        assert ids.count(EOS_ID) == 2
        assert ids[-1] == EOS_ID

    def test_empty_sentences_still_well_formed(self, vocab):
        ids = assin_input_ids(vocab, "", "")
        assert ids.count(EOS_ID) == 2

    def test_round_trip_reproduces_sentences(self, vocab):
        s1, s2 = "o gato dorme", "um gato descansa"
        ids = assin_input_ids(vocab, s1, s2)
        first = ids[:ids.index(EOS_ID)]
        second = ids[ids.index(EOS_ID) + 1:-1]
        assert decode(vocab, first) == ASSIN_PREFIX_1 + s1
        assert decode(vocab, second) == "sentence2: " + s2

    def test_injective_for_distinct_pairs(self, vocab):
        a = assin_input_ids(vocab, "a b", "c")
        b = assin_input_ids(vocab, "a", "b c")
        assert a != b


class TestScoreParsing:
    def test_plain_decimal(self, vocab):
        ids = encode(vocab, "3.2")
        assert parse_score_string(ids, vocab) == (3.2, True)

    def test_integer_clamped(self, vocab):
        ids = encode(vocab, "7")
        assert parse_score_string(ids, vocab) == (5.0, True)

    def test_below_range_clamped(self, vocab):
        ids = encode(vocab, "0.2")
        assert parse_score_string(ids, vocab) == (1.0, True)

    def test_comma_decimal_normalized(self, vocab):
        ids = encode(vocab, "nota 4,5")
        result = parse_score_string(ids, vocab)
        assert result.value == 4.5 and result.ok

    def test_unparseable_flags_midpoint(self, vocab):
        ids = encode(vocab, "gato")
        assert parse_score_string(ids, vocab) == (3.0, False)

    def test_only_first_five_tokens_considered(self, vocab):
        ids = encode(vocab, "x y z a b c") + encode(vocab, "3.0")
        result = parse_score_string(ids, vocab)
        assert not result.ok

    def test_generation_stops_at_eos(self, vocab):
        ids = encode(vocab, "4.5")[:5]
        ids = ids + [EOS_ID] + encode(vocab, "1.0")
        assert parse_score_string(ids, vocab).value == 4.5


class TestSimilarityTarget:
    def test_one_decimal_digit(self, vocab):
        ids = make_similarity_target(3.0, vocab)
        assert ids[-1] == EOS_ID
        assert decode(vocab, ids[:-1]) == "3.0"

    def test_round_half_even(self, vocab):
        ids = make_similarity_target(4.25, vocab)
        assert decode(vocab, ids[:-1]) == "4.2"

    def test_out_of_range(self, vocab):
        with pytest.raises(ValueError, match="outside"):
            make_similarity_target(5.5, vocab)

    def test_parse_round_trip_property(self, vocab):
        rng = random.Random(42)
        for _ in range(100):
            s = 1.0 + 4.0 * rng.random()
            ids = make_similarity_target(s, vocab)
            got = parse_score_string(ids, vocab)
            assert got.ok
            assert got.value == pytest.approx(round(s, 1), abs=1e-9)


class TestNerFormat:
    def test_input_format(self):
        assert format_ner_input(["John", "lives"]) == "Recognize Entities: John lives"
        assert format_ner_input([]) == "Recognize Entities: "

    def test_input_ids_end_with_eos(self, vocab):
        ids = ner_input_ids(vocab, ["John"])
        assert ids[-1] == EOS_ID
        assert decode(vocab, ids) == "Recognize Entities: John"

    def test_worked_example_english_labels(self):
        words = ["John", "lives", "in", "New", "York"]
        tags = ["B-PER", "O", "O", "B-LOC", "I-LOC"]
        got = build_ner_target(words, tags, EN)
        assert got == "John [Person] lives in [Other] New York [Local]"

    def test_portuguese_labels_default(self):
        words = ["Ana", "visitou", "Lisboa"]
        tags = ["B-PER", "O", "B-LOC"]
        got = build_ner_target(words, tags, PT)
        assert got == "Ana [Pessoa] visitou [Outro] Lisboa [Local]"

    def test_all_other_run(self):
        assert build_ner_target(["a", "b"], ["O", "O"], EN) == "a b [Other]"

    def test_adjacent_entities_stay_separate(self):
        got = build_ner_target(["Ana", "Bia"], ["B-PER", "B-PER"], EN)
        assert got == "Ana [Person] Bia [Person]"

    def test_invalid_bio_rejected(self):
        with pytest.raises(ValueError):
            build_ner_target(["a", "b"], ["O", "I-PER"], EN)


class TestStripAccents:
    def test_example(self):
        assert strip_accents("São Paulo") == "Sao Paulo"

    def test_identity_on_ascii(self):
        assert strip_accents("abc") == "abc"

    def test_full_portuguese_accent_set_maps_to_ascii(self):
        accented = "ãõáéíóúâêôàçÃÕÁÉÍÓÚÂÊÔÀÇüÜ"
        out = strip_accents(accented)
        assert out == "aoaeiouaeoacAOAEIOUAEOACuU"
        assert all(ord(ch) < 128 for ch in out)


class TestWindowOffsets:
    def test_offsets_for_length_1000(self):
        assert window_offsets(1000, 512, 256) == [0, 256, 488]

    def test_exact_fit(self):
        assert window_offsets(512, 512, 256) == [0]

    def test_one_over(self):
        assert window_offsets(513, 512, 256) == [0, 1]

    def test_full_coverage_and_overlap_invariants(self):
        rng = random.Random(9)
        for _ in range(200):
            n = rng.randrange(1, 2000)
            size = rng.randrange(2, 600)
            stride = rng.randrange(1, size)
            offsets = window_offsets(n, size, stride)
            covered = set()
            for o in offsets:
                assert 0 <= o and min(o + size, n) - o <= size
                covered.update(range(o, min(o + size, n)))
            assert covered == set(range(n))
            # consecutive non-final windows overlap by exactly size - stride
            for a, b in zip(offsets, offsets[1:-1]):
                assert b - a == stride

    def test_exhaustive_against_stepping_reference(self):
        for size in range(2, 13):
            for stride in range(1, size):
                for n in range(300):
                    want = [o for o, _ in reference_sliding_windows(range(n), size, stride)]
                    assert window_offsets(n, size, stride) == want, (n, size, stride)

    def test_parameter_validation(self):
        for size, stride in ((2, 2), (3, 0), (1, 2)):
            with pytest.raises(ValueError) as got:
                window_offsets(5, size, stride)
            with pytest.raises(ValueError) as want:
                reference_sliding_windows(range(5), size, stride)
            assert str(got.value) == str(want.value) \
                == f"need window size {size} > stride {stride} > 0"


class TestDataFiles:
    def test_pairs_tsv_round_trip(self, tmp_path):
        path = tmp_path / "pairs.tsv"
        path.write_text(
            "id\tsentence1\tsentence2\tsimilarity\tentailment\n"
            "1\to gato dorme\tum gato descansa\t4.2\tentail\n"
            "2\ta\tb\t\tnone\n"
            "3\tc\td\t1.0\t\n",
            encoding="utf-8")
        rows = read_pairs_tsv(path)
        assert rows[0] == SentencePairExample("1", "o gato dorme",
                                              "um gato descansa", 4.2, "entail")
        assert rows[1].similarity is None
        assert rows[2].entailment is None

    def test_pairs_tsv_header_required(self, tmp_path):
        path = tmp_path / "pairs.tsv"
        path.write_text("a\tb\n", encoding="utf-8")
        with pytest.raises(ValueError, match="header"):
            read_pairs_tsv(path)

    def test_conll_round_trip_and_alias_normalization(self, tmp_path):
        path = tmp_path / "docs.conll"
        path.write_text(
            "Ana B-PESSOA\nfoi O\na O\nLisboa B-LOCAL\n\n"
            "John B-PER\nSilva I-PER\n\n",
            encoding="utf-8")
        docs = read_conll(path)
        assert len(docs) == 2
        assert docs[0].tags == ("B-PER", "O", "O", "B-LOC")
        assert docs[1].tags == ("B-PER", "I-PER")

    def test_conll_invalid_bio_rejected(self, tmp_path):
        path = tmp_path / "docs.conll"
        path.write_text("a O\nb I-PER\n", encoding="utf-8")
        with pytest.raises(ValueError):
            read_conll(path)


class TestWindowNerExample:
    def test_windows_repair_leading_continuation(self):
        ex = NerExample("d", tuple("abcdef"),
                        ("B-PER", "I-PER", "I-PER", "I-PER", "O", "O"))
        windows = window_ner_example(ex, window=4, stride=2)
        offsets = [w[0] for w in windows]
        assert offsets == [0, 2]
        _, _, tags1 = windows[1]
        assert tags1[0] == "B-PER"  # reopened continuation


def every_tagging(max_words: int = 6):
    """Every tagging of 0..max_words words over two classes, valid or not."""
    options = ("O", "B-PER", "I-PER", "B-LOC", "I-LOC")
    for n in range(max_words + 1):
        for combo in itertools.product(options, repeat=n):
            yield list(combo)


class TestEveryTaggingOfUpToSixWords:
    """Target and window tags against the word-by-word reference walks; the
    spans are checked over the same taggings in test_ner."""

    def test_target_matches_reference_or_both_reject(self):
        for tags in every_tagging():
            words = [f"w{i}" for i in range(len(tags))]
            try:
                want = reference_build_ner_target(words, tags, EN)
            except ValueError as exc:
                with pytest.raises(ValueError) as got:
                    build_ner_target(words, tags, EN)
                assert str(got.value) == str(exc), tags
                continue
            assert build_ner_target(words, tags, EN) == want, tags
            assert build_ner_target(words, tags, PT) == \
                reference_build_ner_target(words, tags, PT), tags

    def test_length_mismatch_message(self):
        with pytest.raises(ValueError, match="^words and tags length mismatch$"):
            build_ner_target(["a"], ["O", "O"], EN)

    def test_window_tags_match_reference(self):
        for tags in every_tagging():
            try:
                validate_bio(tags)
            except ValueError:
                continue
            words = tuple(f"w{i}" for i in range(len(tags)))
            ex = NerExample("d", words, tuple(tags))
            for size in range(2, 7):
                for stride in range(1, size):
                    got = window_ner_example(ex, size, stride)
                    want = reference_window_tags(tags, size, stride)
                    assert [(o, t) for o, _, t in got] == want, (tags, size, stride)
                    assert [w for _, w, _ in got] == \
                        [w for _, w in reference_sliding_windows(words, size, stride)]
