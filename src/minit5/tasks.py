"""Task formatting: sentence-pair and NER records to model inputs/targets and
model outputs back to task predictions."""

from __future__ import annotations

import re
import unicodedata
from dataclasses import dataclass
from typing import NamedTuple

from .atomic import read_text
from .metrics import ENTAILMENT_CLASSES
from .ner import (LabelTable, OTHER, extract_entities, normalize_tag, repair_bio,
                  validate_bio)
from .unigram import EOS_ID, UnigramVocab, decode, encode

ASSIN_PREFIX_1 = "ASSIN sentence1: "
ASSIN_PREFIX_2 = "sentence2: "
NER_PREFIX = "Recognize Entities: "


@dataclass(frozen=True)
class SentencePairExample:
    id: str
    sentence1: str
    sentence2: str
    similarity: float | None = None
    entailment: str | None = None

    def __post_init__(self):
        if self.similarity is not None and not 1.0 <= self.similarity <= 5.0:
            raise ValueError(f"similarity {self.similarity} outside [1, 5]")
        if self.entailment is not None and self.entailment not in ENTAILMENT_CLASSES:
            raise ValueError(f"entailment label {self.entailment!r}")


@dataclass(frozen=True)
class NerExample:
    doc_id: str
    words: tuple[str, ...]
    tags: tuple[str, ...]

    def __post_init__(self):
        if len(self.words) != len(self.tags):
            raise ValueError(f"{self.doc_id}: {len(self.words)} words vs {len(self.tags)} tags")
        validate_bio(list(self.tags))


def read_pairs_tsv(path: str) -> list[SentencePairExample]:
    """Tab-separated sentence pairs with a required header row naming the
    columns id, sentence1, sentence2, similarity, entailment."""
    examples: list[SentencePairExample] = []
    header, *lines = read_text(path, newline="\n").split("\n")
    cols = header.split("\t")
    required = ("id", "sentence1", "sentence2", "similarity", "entailment")
    if tuple(cols) != required:
        raise ValueError(f"{path}: header must be {required}, got {tuple(cols)}")
    for lineno, line in enumerate(lines, start=2):
        if not line:
            continue
        parts = line.split("\t")
        if len(parts) != 5:
            raise ValueError(f"{path}:{lineno}: expected 5 columns")
        pid, s1, s2, sim, ent = parts
        try:
            examples.append(SentencePairExample(
                id=pid, sentence1=s1, sentence2=s2,
                similarity=float(sim) if sim else None,
                entailment=ent if ent else None))
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: {exc}") from exc
    return examples


def read_conll(path: str) -> list[NerExample]:
    """Two-column word/tag files, blank line between documents."""
    docs: list[NerExample] = []
    words: list[str] = []
    tags: list[str] = []

    def flush():
        if words:
            docs.append(NerExample(f"doc-{len(docs)}", tuple(words), tuple(tags)))
            words.clear()
            tags.clear()

    for lineno, line in enumerate(read_text(path, newline="\n").split("\n"), start=1):
        line = line.strip()
        if not line:
            flush()
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ValueError(f"{path}:{lineno}: expected 'word tag'")
        try:
            tag = normalize_tag(parts[1])
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: {exc}") from exc
        words.append(parts[0])
        tags.append(tag)
    flush()
    return docs


def fit(ids: list[int], limit: int) -> list[int]:
    """A sequence ending in EOS, cut to at most limit ids with the EOS kept:
    every fine-tuning input and target and every decode input."""
    return ids if len(ids) <= limit else ids[:limit - 1] + [EOS_ID]


def format_assin_pair(s1: str, s2: str) -> tuple[str, str]:
    """The two text segments of the sentence-pair input; each is followed by
    an eos id at tokenization time (the eos is never literal text)."""
    return ASSIN_PREFIX_1 + s1, ASSIN_PREFIX_2 + s2


def assin_input_ids(vocab: UnigramVocab, s1: str, s2: str) -> list[int]:
    seg1, seg2 = format_assin_pair(s1, s2)
    return encode(vocab, seg1) + [EOS_ID] + encode(vocab, seg2) + [EOS_ID]


class ParsedScore(NamedTuple):
    value: float
    ok: bool


_DECIMAL_COMMA_RE = re.compile(r"(?<=\d),(?=\d)")
_NUMBER_RE = re.compile(r"\d+(?:\.\d+)?|\.\d+")


def parse_score_string(generated: list[int], vocab: UnigramVocab) -> ParsedScore:
    """Decode up to five generated tokens and extract the first decimal number
    (comma decimals normalized), clamped to [1, 5]. An unparseable output
    yields the scale midpoint 3.0 with ok=False instead of an error."""
    ids = list(generated[:5])
    if EOS_ID in ids:
        ids = ids[:ids.index(EOS_ID)]
    text = decode(vocab, ids)
    text = _DECIMAL_COMMA_RE.sub(".", text)
    m = _NUMBER_RE.search(text)
    if not m:
        return ParsedScore(3.0, False)
    return ParsedScore(min(5.0, max(1.0, float(m.group(0)))), True)


def make_similarity_target(score: float, vocab: UnigramVocab) -> list[int]:
    """Token ids of the score printed with one decimal digit (round-half-even)
    plus eos."""
    if not 1.0 <= score <= 5.0:
        raise ValueError(f"score {score} outside [1, 5]")
    return encode(vocab, f"{score:.1f}") + [EOS_ID]


def format_ner_input(words: list[str]) -> str:
    return NER_PREFIX + " ".join(words)


def ner_input_ids(vocab: UnigramVocab, words: list[str]) -> list[int]:
    return encode(vocab, format_ner_input(words)) + [EOS_ID]


def build_ner_target(words: list[str], tags: list[str], table: LabelTable) -> str:
    """Tagged output string: each entity span of extract_entities, then its
    bracketed class label; each run of O words between spans, then [Other]."""
    if len(words) != len(tags):
        raise ValueError("words and tags length mismatch")
    validate_bio(tags)
    runs, pos = [], 0
    for span in extract_entities(tags):
        runs += [(pos, span.start, OTHER), (span.start, span.end + 1, span.class_label)]
        pos = span.end + 1
    runs.append((pos, len(words), OTHER))
    return " ".join(" ".join(words[a:b]) + f" [{table.label_of(cls)}]"
                    for a, b, cls in runs if a < b)


def strip_accents(text: str) -> str:
    """Closest non-accented representation: canonical decomposition, combining
    marks removed, recomposed (this also maps ç to c)."""
    decomposed = unicodedata.normalize("NFD", text)
    stripped = "".join(ch for ch in decomposed if unicodedata.category(ch) != "Mn")
    return unicodedata.normalize("NFC", stripped)


def check_windows(size: int, stride: int) -> None:
    """Windows overlap and advance: size > stride > 0."""
    if not size > stride > 0:
        raise ValueError(f"need window size {size} > stride {stride} > 0")


def window_offsets(n: int, size: int, stride: int) -> list[int]:
    """Offsets of overlapping windows over n items: 0, stride, 2*stride, ...
    while the next window still ends inside the sequence, then a final
    window clamped to end exactly at n. At most size items are one window."""
    check_windows(size, stride)
    if n <= size:
        return [0]
    return list(range(0, n - size, stride)) + [n - size]


def window_ner_example(example: NerExample, window: int, stride: int):
    """Word-level windows of a NER document, each BIO-repaired: a window that
    opens inside an entity opens it with B-X."""
    return [(o, example.words[o:o + window], tuple(repair_bio(example.tags[o:o + window])))
            for o in window_offsets(len(example.words), window, stride)]
