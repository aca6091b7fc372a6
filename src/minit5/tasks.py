"""Task formatting: sentence-pair and NER records to model inputs/targets and
model outputs back to task predictions."""

from __future__ import annotations

import re
import unicodedata
from dataclasses import dataclass
from typing import NamedTuple

from .metrics import ENTAILMENT_CLASSES
from .ner import LabelTable, OTHER, normalize_tag, tag_class, validate_bio
from .unigram import EOS_ID, MASK_ID, PAD_ID, UnigramVocab, decode, encode

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


@dataclass(frozen=True)
class WindowedExample:
    offset: int
    ids: tuple[int, ...]


def read_pairs_tsv(path: str) -> list[SentencePairExample]:
    """Tab-separated sentence pairs with a required header row naming the
    columns id, sentence1, sentence2, similarity, entailment."""
    examples: list[SentencePairExample] = []
    with open(path, "r", encoding="utf-8", newline="\n") as fh:
        header = fh.readline().rstrip("\n")
        cols = header.split("\t")
        required = ("id", "sentence1", "sentence2", "similarity", "entailment")
        if tuple(cols) != required:
            raise ValueError(f"{path}: header must be {required}, got {tuple(cols)}")
        for lineno, line in enumerate(fh, start=2):
            line = line.rstrip("\n")
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

    with open(path, "r", encoding="utf-8", newline="\n") as fh:
        for lineno, line in enumerate(fh, start=1):
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
    ids = [i for i in ids if i not in (PAD_ID, MASK_ID)]
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
    """Tagged output string: after each maximal run of same-entity tokens (a
    B- tag opens a new run) the bracketed class label is emitted; runs of O
    words are labeled [Other]."""
    if len(words) != len(tags):
        raise ValueError("words and tags length mismatch")
    validate_bio(tags)
    parts: list[str] = []
    run: list[str] = []
    run_class: str | None = None

    def close():
        if run:
            label = table.label_of(run_class if run_class is not None else OTHER)
            parts.append(" ".join(run) + f" [{label}]")
            run.clear()

    prev_class: str | None = None
    for word, tag in zip(words, tags):
        cls = tag_class(tag)
        starts_new = tag.startswith("B-") or (cls is None) != (prev_class is None) \
            or (cls is not None and cls != prev_class)
        if starts_new and run:
            close()
        run.append(word)
        run_class = cls
        prev_class = cls
    close()
    return " ".join(parts)


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


def sliding_windows(ids, size: int = 512, stride: int = 256) -> list[WindowedExample]:
    """Overlapping windows at offsets 0, stride, 2*stride, ... while the next
    window still ends inside the sequence; an over-length sequence gets a
    final window clamped to end exactly at the sequence end."""
    check_windows(size, stride)
    ids = tuple(ids)
    n = len(ids)
    if n <= size:
        return [WindowedExample(0, ids)]
    offsets: list[int] = []
    offset = 0
    while offset + size < n:
        offsets.append(offset)
        offset += stride
    offsets.append(n - size)
    return [WindowedExample(o, ids[o:o + size]) for o in offsets]


def window_ner_example(example: NerExample, window: int, stride: int):
    """Word-level windows of a NER document; a window whose first tag is a
    continuation (I-X) gets it reopened as B-X so each window is valid BIO."""
    out: list[tuple[int, tuple[str, ...], tuple[str, ...]]] = []
    for w in sliding_windows(tuple(range(len(example.words))), window, stride):
        words = example.words[w.offset:w.offset + len(w.ids)]
        tags = list(example.tags[w.offset:w.offset + len(w.ids)])
        if tags and tags[0].startswith("I-"):
            tags[0] = "B-" + tags[0][2:]
        out.append((w.offset, words, tuple(tags)))
    return out
