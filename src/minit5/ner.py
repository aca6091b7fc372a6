"""Generative NER postprocessing: parse tagged output strings, align them to
input words as BIO labels, merge overlapping windows, and score entities with
exact-span precision/recall/F1."""

from __future__ import annotations

import re
from dataclasses import dataclass

from .atomic import format_rows, write_text
from .metrics import ClassScore, prf

CLASSES = ("Person", "Organization", "Location", "Value", "Date")
OTHER = "Other"

TAG_OF_CLASS = {"Person": "PER", "Organization": "ORG", "Location": "LOC",
                "Value": "VAL", "Date": "DAT"}
CLASS_OF_TAG = {v: k for k, v in TAG_OF_CLASS.items()}
# accepted spellings in data files, normalized to canonical classes
TAG_ALIASES = {
    "PER": "Person", "PERSON": "Person", "PESSOA": "Person",
    "ORG": "Organization", "ORGANIZATION": "Organization",
    "ORGANIZACAO": "Organization", "ORGANIZAÇÃO": "Organization",
    "LOC": "Location", "LOCATION": "Location", "LOCAL": "Location",
    "VAL": "Value", "VALUE": "Value", "VALOR": "Value",
    "DAT": "Date", "DATE": "Date", "DATA": "Date", "TEMPO": "Date",
}

# natural-language label spellings per output language; English spellings
# follow the tagged-output convention where Location renders as "Local"
_LABELS = {
    "pt": {"Person": "Pessoa", "Organization": "Organização",
           "Location": "Local", "Value": "Valor", "Date": "Data",
           OTHER: "Outro"},
    "en": {"Person": "Person", "Organization": "Organization",
           "Location": "Local", "Value": "Value", "Date": "Date",
           OTHER: "Other"},
}


class LabelTable:
    """Rendering and parsing of bracketed class labels for one language."""

    def __init__(self, language: str = "pt"):
        if language not in _LABELS:
            raise ValueError(f"unknown label language {language!r}")
        self.language = language
        self._render = _LABELS[language]
        self._parse = {lbl.lower(): cls for cls, lbl in self._render.items()}

    def label_of(self, cls: str) -> str:
        return self._render[cls]

    def class_of(self, label: str) -> str | None:
        return self._parse.get(label.strip().lower())


def normalize_tag(tag: str) -> str:
    """Normalize a data-file BIO tag to the canonical B-XXX/I-XXX/O form."""
    tag = tag.strip()
    if tag == "O" or tag == "o":
        return "O"
    if len(tag) > 2 and tag[1] == "-" and tag[0].upper() in "BI":
        cls = TAG_ALIASES.get(tag[2:].upper())
        if cls is not None:
            return f"{tag[0].upper()}-{TAG_OF_CLASS[cls]}"
    raise ValueError(f"unrecognized BIO tag {tag!r}")


def validate_bio(tags: list[str]) -> None:
    """Strict validity: every tag is O, B-X or I-X of a known class, and
    repair_bio leaves the sequence as it is."""
    for i, (tag, repaired) in enumerate(zip(tags, repair_bio(tags))):
        if tag != "O" and (len(tag) < 3 or tag[1] != "-" or tag[0] not in "BI"
                           or tag[2:] not in CLASS_OF_TAG):
            raise ValueError(f"invalid BIO tag {tag!r} at position {i}")
        if tag != repaired:
            raise ValueError(f"I-{tag[2:]} at position {i} does not continue an entity")


def repair_bio(tags: list[str]) -> list[str]:
    """The one continuation rule: an I-X continues a run only after B-X or
    I-X of the same class; without such a head it becomes B-X. Predictions
    are repaired; gold sequences are validated strictly instead."""
    out: list[str] = []
    prev = "O"
    for tag in tags:
        if tag.startswith("I-") and not (prev != "O" and prev[2:] == tag[2:]):
            tag = "B-" + tag[2:]
        out.append(tag)
        prev = tag
    return out


@dataclass(frozen=True)
class TaggedSegment:
    words: tuple[str, ...]
    class_label: str  # a canonical class or Other


@dataclass(frozen=True)
class ParsedTagging:
    segments: tuple[TaggedSegment, ...]
    flags: frozenset[str]


_BRACKET_RE = re.compile(r"\[([^\[\]]*)\]")


def parse_tagged_output(text: str, table: LabelTable) -> ParsedTagging:
    """Scan for bracketed labels; the words since the previous label form the
    labeled segment. Degenerate output is flagged, never fatal: unknown labels
    map to Other ("unknown_label"), labels without words are dropped
    ("empty_segment"), trailing words become Other ("dangling")."""
    segments: list[TaggedSegment] = []
    flags: set[str] = set()
    pos = 0
    for m in _BRACKET_RE.finditer(text):
        words = tuple(text[pos:m.start()].split())
        cls = table.class_of(m.group(1))
        if cls is None:
            cls = OTHER
            flags.add("unknown_label")
        if words:
            segments.append(TaggedSegment(words, cls))
        else:
            flags.add("empty_segment")
        pos = m.end()
    trailing = tuple(text[pos:].split())
    if trailing:
        segments.append(TaggedSegment(trailing, OTHER))
        flags.add("dangling")
    return ParsedTagging(tuple(segments), frozenset(flags))


def to_bio(segments, input_words: list[str]) -> list[str]:
    """Naive positional alignment of parsed segments onto the input words.

    Word i takes the class of the i-th emitted (word, class) pair; the first
    word of each non-Other segment opens an entity (B-X), later words continue
    it (I-X). Missing pairs leave trailing words O; surplus pairs are dropped.
    """
    tags = ["O"] * len(input_words)
    pos = 0
    for seg in segments:
        for k in range(len(seg.words)):
            if pos >= len(input_words):
                return tags
            if seg.class_label != OTHER:
                prefix = "B" if k == 0 else "I"
                tags[pos] = f"{prefix}-{TAG_OF_CLASS[seg.class_label]}"
            pos += 1
    return tags


def merge_windows(per_window: list[tuple[int, list[str]]], doc_len: int) -> list[str]:
    """Merge window-local BIO sequences into one document sequence.

    Each word takes its label from the window where its distance to the
    nearer window edge is largest (ties go to the earlier window); the result
    is BIO-repaired so entities cut at window borders stay well-formed.
    """
    windows = sorted(per_window, key=lambda item: item[0])
    merged: list[str | None] = [None] * doc_len
    best_d = [-1] * doc_len
    for offset, tags in windows:
        for k, tag in enumerate(tags):
            pos = offset + k
            if not 0 <= pos < doc_len:
                raise ValueError("window extends beyond the document")
            d = min(k, len(tags) - 1 - k)
            if d > best_d[pos]:
                best_d[pos] = d
                merged[pos] = tag
    if any(tag is None for tag in merged):
        raise ValueError("windows do not cover document")
    return repair_bio(merged)


@dataclass(frozen=True, order=True)
class EntitySpan:
    start: int  # word indices, inclusive
    end: int
    class_label: str


def extract_entities(tags: list[str]) -> list[EntitySpan]:
    """The one parser of BIO runs: the maximal runs of repair_bio(tags), each
    opened by a B-X and extended by the I-X after it."""
    runs: list[list] = []
    for i, tag in enumerate(repair_bio(tags)):
        if tag.startswith("B-"):
            runs.append([i, i, CLASS_OF_TAG[tag[2:]]])
        elif tag.startswith("I-"):
            runs[-1][1] = i
    return [EntitySpan(*run) for run in runs]


@dataclass(frozen=True)
class NerReport:
    per_class: dict[str, ClassScore]
    micro: ClassScore


class NerScorer:
    """Accumulates exact-span matches over documents."""

    def __init__(self):
        self.gold = {cls: 0 for cls in CLASSES}
        self.pred = {cls: 0 for cls in CLASSES}
        self.correct = {cls: 0 for cls in CLASSES}

    def add(self, gold_spans: list[EntitySpan], pred_spans: list[EntitySpan]) -> None:
        gold_set = set(gold_spans)
        pred_set = set(pred_spans)
        for span in gold_set:
            self.gold[span.class_label] += 1
        for span in pred_set:
            self.pred[span.class_label] += 1
        for span in gold_set & pred_set:
            self.correct[span.class_label] += 1

    def report(self) -> NerReport:
        per_class = {cls: prf(self.gold[cls], self.pred[cls], self.correct[cls])
                     for cls in CLASSES}
        micro = prf(sum(self.gold.values()), sum(self.pred.values()),
                    sum(self.correct.values()))
        return NerReport(per_class=per_class, micro=micro)


def entity_prf(gold: list[EntitySpan], pred: list[EntitySpan]) -> NerReport:
    """Exact (start, end, class) matching for one sequence's span sets."""
    scorer = NerScorer()
    scorer.add(gold, pred)
    return scorer.report()


def format_ner_report(report: NerReport, malformed_windows: int) -> str:
    """key=value micro summary and malformed_windows count, plus a per-class
    tab-separated table."""
    m = report.micro
    rows = [("class", "precision", "recall", "f1")]
    for cls in CLASSES:
        s = report.per_class[cls]
        rows.append((cls, s.precision, s.recall, s.f1))
    return format_rows([
        ("micro_precision", m.precision), ("micro_recall", m.recall),
        ("micro_f1", m.f1), ("n_gold", m.n_gold), ("n_pred", m.n_pred),
        ("n_correct", m.n_correct), ("malformed_windows", malformed_windows),
    ], "=") + format_rows(rows)


def write_conll_predictions(path: str, docs: list[tuple[list[str], list[str], list[str]]]) -> None:
    """word / gold / pred 3-column files, blank line between documents."""
    write_text(path, "".join(format_rows(zip(words, gold, pred)) + "\n"
                             for words, gold, pred in docs))
