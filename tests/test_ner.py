import itertools
import random

import pytest

from minit5.ner import (CLASSES, EntitySpan, LabelTable, NerScorer,
                        entity_prf, extract_entities, merge_windows,
                        parse_tagged_output, repair_bio, to_bio, validate_bio)
from minit5.tasks import build_ner_target

from oracles import (reference_align_tagged, reference_prf, reference_spans,
                     reference_validate_bio)

EN = LabelTable("en")
PT = LabelTable("pt")
EN_LABEL_TO_CLASS = {"person": "Person", "organization": "Organization",
                     "local": "Location", "value": "Value", "date": "Date",
                     "other": "Other"}


def random_valid_bio(rng, n_words, classes=("PER", "LOC")):
    tags = []
    i = 0
    while i < n_words:
        if rng.random() < 0.4:
            cls = rng.choice(classes)
            run = min(rng.randrange(1, 4), n_words - i)
            tags.append(f"B-{cls}")
            tags.extend(f"I-{cls}" for _ in range(run - 1))
            i += run
        else:
            tags.append("O")
            i += 1
    return tags


class TestParseTaggedOutput:
    def test_worked_example(self):
        parsed = parse_tagged_output(
            "John [Person] lives in [Other] New York [Local]", EN)
        got = [(list(s.words), s.class_label) for s in parsed.segments]
        assert got == [(["John"], "Person"), (["lives", "in"], "Other"),
                       (["New", "York"], "Location")]
        assert parsed.flags == frozenset()

    def test_label_without_words_dropped_and_flagged(self):
        parsed = parse_tagged_output("[Person]", EN)
        assert parsed.segments == ()
        assert "empty_segment" in parsed.flags

    def test_unknown_label_becomes_other(self):
        parsed = parse_tagged_output("John [Alien]", EN)
        assert parsed.segments[0].class_label == "Other"
        assert "unknown_label" in parsed.flags

    def test_trailing_words_dangling(self):
        parsed = parse_tagged_output("John [Person] went home", EN)
        assert parsed.segments[-1].class_label == "Other"
        assert "dangling" in parsed.flags

    def test_portuguese_labels(self):
        parsed = parse_tagged_output("Ana [Pessoa] mora em [Outro] Lisboa [Local]", PT)
        assert [s.class_label for s in parsed.segments] == \
            ["Person", "Other", "Location"]


class TestToBio:
    def test_worked_example_alignment(self):
        text = "John [Person] lives in [Other] New York [Local]"
        parsed = parse_tagged_output(text, EN)
        words = ["John", "lives", "in", "New", "York"]
        assert to_bio(parsed.segments, words) == \
            ["B-PER", "O", "O", "B-LOC", "I-LOC"]

    def test_empty_segments_all_o(self):
        assert to_bio((), ["a", "b", "c"]) == ["O", "O", "O"]

    def test_short_output_leaves_trailing_o(self):
        parsed = parse_tagged_output("John [Person]", EN)
        assert to_bio(parsed.segments, ["John", "went", "home"]) == \
            ["B-PER", "O", "O"]

    def test_surplus_output_dropped(self):
        parsed = parse_tagged_output("John Paul George Ringo [Person]", EN)
        assert to_bio(parsed.segments, ["John", "Paul"]) == ["B-PER", "I-PER"]

    def test_output_length_always_matches_input(self):
        rng = random.Random(5)
        for _ in range(300):
            n_out = rng.randrange(0, 8)
            text = " ".join(
                rng.choice(["w", "[Person]", "[Local]", "[Other]", "v"])
                for _ in range(n_out))
            parsed = parse_tagged_output(text, EN)
            n_in = rng.randrange(0, 8)
            assert len(to_bio(parsed.segments, ["x"] * n_in)) == n_in


class TestInverseProperty:
    def test_fuzzed_round_trip_1000(self):
        rng = random.Random(11)
        for _ in range(1000):
            n = rng.randrange(1, 12)
            words = [f"w{i}" for i in range(n)]
            tags = random_valid_bio(rng, n)
            text = build_ner_target(words, tags, EN)
            parsed = parse_tagged_output(text, EN)
            assert parsed.flags == frozenset()
            assert to_bio(parsed.segments, words) == tags

    def test_exhaustive_small_instances_vs_reference(self):
        # all taggings of up to 5 words over two entity classes plus O
        options = ("O", "B-PER", "I-PER", "B-LOC", "I-LOC")
        for n in range(1, 6):
            for combo in itertools.product(options, repeat=n):
                tags = list(combo)
                try:
                    validate_bio(tags)
                except ValueError:
                    continue
                words = [f"w{i}" for i in range(n)]
                text = build_ner_target(words, tags, EN)
                parsed = parse_tagged_output(text, EN)
                got = to_bio(parsed.segments, words)
                want = reference_align_tagged(text, words, EN_LABEL_TO_CLASS)
                assert got == want
                assert got == tags


class TestBioValidation:
    def test_valid_sequences_pass(self):
        validate_bio(["B-PER", "I-PER", "O", "B-LOC"])

    def test_orphan_continuation_rejected(self):
        with pytest.raises(ValueError):
            validate_bio(["O", "I-PER"])
        with pytest.raises(ValueError):
            validate_bio(["B-LOC", "I-PER"])

    def test_messages_and_positions_match_reference_walk(self):
        """Every sequence of up to 5 tags, with malformed and unknown-class
        tags among the options: the same first error, message and position."""
        options = ("O", "B-PER", "I-PER", "I-LOC", "B-XYZ", "I-XYZ", "I")
        for n in range(6):
            for combo in itertools.product(options, repeat=n):
                tags = list(combo)
                try:
                    reference_validate_bio(tags)
                except ValueError as exc:
                    with pytest.raises(ValueError) as got:
                        validate_bio(tags)
                    assert str(got.value) == str(exc), tags
                else:
                    validate_bio(tags)

    def test_repair_promotes_orphans(self):
        assert repair_bio(["O", "I-PER", "I-PER"]) == ["O", "B-PER", "I-PER"]
        assert repair_bio(["B-LOC", "I-PER"]) == ["B-LOC", "B-PER"]


class TestMergeWindows:
    def test_single_window_identity(self):
        tags = ["B-PER", "I-PER", "O"]
        assert merge_windows([(0, tags)], 3) == tags

    def test_word_300_comes_from_first_window(self):
        # two windows [0, 512) and [256, 768): distances 211 vs 44
        w1 = ["O"] * 512
        w2 = ["O"] * 512
        w1[300] = "B-PER"
        w2[300 - 256] = "B-LOC"
        merged = merge_windows([(0, w1), (256, w2)], 768)
        assert merged[300] == "B-PER"

    def test_deep_interior_position_comes_from_second_window(self):
        # word 500: window 1 distance 11, window 2 distance 244
        w1 = ["O"] * 512
        w2 = ["O"] * 512
        w1[500] = "B-PER"
        w2[500 - 256] = "B-LOC"
        merged = merge_windows([(0, w1), (256, w2)], 768)
        assert merged[500] == "B-LOC"

    def test_tie_prefers_earlier_window(self):
        w1 = ["B-PER", "O", "O", "O"]
        w2 = ["B-LOC", "O", "O", "O"]
        # word 2: window1 distance min(2,1)=1; window2 (offset 2) distance 0
        merged = merge_windows([(0, w1), (2, w2)], 6)
        assert merged[2] == "O"
        # word 3 = window2[1]: d1 = min(3, 0) = 0, d2 = min(1, 2) = 1
        w2b = ["O", "B-LOC", "O", "O"]
        merged = merge_windows([(0, w1), (2, w2b)], 6)
        assert merged[3] == "B-LOC"

    def test_agreeing_windows_fuzz(self):
        rng = random.Random(21)
        for _ in range(200):
            n = rng.randrange(4, 40)
            doc = random_valid_bio(rng, n)
            size = rng.randrange(2, n + 1)
            stride = max(1, size // 2)
            windows = []
            offset = 0
            while offset + size < n:
                windows.append((offset, doc[offset:offset + size]))
                offset += stride
            windows.append((n - size, doc[n - size:]))
            merged = merge_windows(windows, n)
            assert merged == repair_bio(doc)

    def test_result_is_valid_bio(self):
        # window border cuts an entity; the merge must repair the seam
        w1 = ["O", "B-PER"]
        w2 = ["I-PER", "O"]
        merged = merge_windows([(0, w1), (2, w2)], 4)
        validate_bio(merged)

    def test_coverage_gap_rejected(self):
        with pytest.raises(ValueError, match="cover"):
            merge_windows([(0, ["O", "O"])], 4)


class TestExtractEntities:
    def test_simple_run(self):
        spans = extract_entities(["B-PER", "I-PER", "O"])
        assert spans == [EntitySpan(0, 1, "Person")]

    def test_no_entities(self):
        assert extract_entities(["O", "O"]) == []

    def test_exhaustive_small_sequences_vs_reference(self):
        """Every sequence, valid or not: an invalid one (an orphan I-X) gives
        the spans of its repair, which the reference reads."""
        options = ("O", "B-PER", "I-PER", "B-LOC", "I-LOC")
        for n in range(7):
            for combo in itertools.product(options, repeat=n):
                tags = list(combo)
                repaired = repair_bio(tags)
                validate_bio(repaired)
                spans = extract_entities(tags)
                assert spans == extract_entities(repaired), tags
                got = {(s.start, s.end, s.class_label) for s in spans}
                assert got == reference_spans(repaired), tags


class TestEntityPrf:
    def test_perfect_match(self):
        spans = [EntitySpan(0, 0, "Person"), EntitySpan(3, 4, "Location")]
        rep = entity_prf(spans, list(spans))
        assert rep.micro.precision == rep.micro.recall == rep.micro.f1 == 1.0

    def test_half_recall(self):
        gold = [EntitySpan(0, 0, "Person"), EntitySpan(3, 4, "Location")]
        pred = [EntitySpan(0, 0, "Person")]
        rep = entity_prf(gold, pred)
        assert rep.micro.precision == 1.0
        assert rep.micro.recall == 0.5
        assert rep.micro.f1 == pytest.approx(2 / 3)

    def test_class_must_match(self):
        gold = [EntitySpan(0, 1, "Person")]
        pred = [EntitySpan(0, 1, "Location")]
        rep = entity_prf(gold, pred)
        assert rep.micro.f1 == 0.0

    def test_symmetry_swaps_precision_recall(self):
        rng = random.Random(31)
        for _ in range(50):
            def spans():
                return [EntitySpan(i, i + rng.randrange(0, 2), rng.choice(CLASSES))
                        for i in rng.sample(range(0, 40, 3), rng.randrange(0, 6))]
            g, p = spans(), spans()
            a = entity_prf(g, p)
            b = entity_prf(p, g)
            assert a.micro.precision == b.micro.recall
            assert a.micro.recall == b.micro.precision

    def test_random_against_reference_scorer(self):
        rng = random.Random(41)
        for _ in range(100):
            def spans():
                out = set()
                for i in rng.sample(range(0, 60, 3), rng.randrange(0, 8)):
                    out.add((i, i + rng.randrange(0, 3), rng.choice(CLASSES)))
                return out
            g, p = spans(), spans()
            rep = entity_prf([EntitySpan(*s) for s in g],
                             [EntitySpan(*s) for s in p])
            wp, wr, wf = reference_prf(g, p)
            assert rep.micro.precision == pytest.approx(wp, abs=1e-12)
            assert rep.micro.recall == pytest.approx(wr, abs=1e-12)
            assert rep.micro.f1 == pytest.approx(wf, abs=1e-12)

    def test_micro_between_per_class_extremes_when_all_present(self):
        scorer = NerScorer()
        rng = random.Random(51)
        gold, pred = [], []
        pos = 0
        for cls in CLASSES:
            for _ in range(4):
                gold.append(EntitySpan(pos, pos, cls))
                if rng.random() < 0.7:
                    pred.append(EntitySpan(pos, pos, cls))
                else:
                    pred.append(EntitySpan(pos + 1, pos + 1, cls))
                pos += 3
        scorer.add(gold, pred)
        rep = scorer.report()
        f1s = [s.f1 for s in rep.per_class.values()]
        assert min(f1s) <= rep.micro.f1 <= max(f1s)
