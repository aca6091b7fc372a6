"""Corpus preparation: encoding repair, sentence splitting, document packing."""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

# Portuguese accented characters whose UTF-8 byte pairs were mis-decoded as
# Latin-1 somewhere upstream. Keys are the damaged two-character sequences.
_ACCENTED = "ãõáéíóúâêôàçÃÕÁÉÍÓÚÂÊÔÀÇ"
MOJIBAKE_REPAIRS = {c.encode("utf-8").decode("latin-1"): c for c in _ACCENTED}

_REPAIR_RE = re.compile("|".join(re.escape(k) for k in MOJIBAKE_REPAIRS))
# whitespace runs that contain no newline
_WS_RUN_RE = re.compile(r"[^\S\n]+")

SENTENCE_TERMINALS = ".!?…"
OPENING_QUOTES = "\"'«“‘"
# words after which a terminal period never ends the sentence
ABBREVIATIONS = frozenset({"sr.", "sra.", "dr.", "dra.", "etc.", "e.g.", "i.e."})


@dataclass(frozen=True)
class Sentence:
    """A sentence as an ordered tuple of whitespace-delimited words."""

    words: tuple[str, ...]

    def __post_init__(self):
        if not self.words:
            raise ValueError("sentence must contain at least one word")
        # splitting the joined words gives them back exactly when none is
        # empty and none holds a character that str.split splits on
        if " ".join(self.words).split() != list(self.words):
            raise ValueError("words must be non-empty and whitespace-free")

    @property
    def word_count(self) -> int:
        return len(self.words)

    @property
    def text(self) -> str:
        return " ".join(self.words)

    @classmethod
    def from_text(cls, text: str) -> "Sentence":
        return cls(tuple(text.split()))


@dataclass(frozen=True)
class PackedDocument:
    """Sentences packed together under a word budget, order preserved."""

    sentences: tuple[Sentence, ...]

    @property
    def total_words(self) -> int:
        return sum(s.word_count for s in self.sentences)

    @property
    def text(self) -> str:
        return " ".join(s.text for s in self.sentences)


@dataclass(frozen=True)
class CorpusStats:
    n_documents: int
    n_words: int
    mean_words: float
    std_words: float


def fix_encoding(text: str) -> str:
    """Repair mojibake from the fixed table and normalize whitespace.

    Repairs run to a fixpoint (each pass strictly shrinks the text, so this
    terminates), which makes the whole function idempotent. Unrepairable
    sequences pass through unchanged. NUL characters are dropped, line
    endings become LF, and runs of non-LF whitespace collapse to one space.
    """
    while True:
        repaired = _REPAIR_RE.sub(lambda m: MOJIBAKE_REPAIRS[m.group(0)], text)
        if repaired == text:
            break
        text = repaired
    text = text.replace("\x00", "")
    text = text.replace("\r\n", "\n").replace("\r", "\n")
    return _WS_RUN_RE.sub(" ", text)


def _is_abbreviation(line: str, punct_end: int) -> bool:
    """True when the word ending at punct_end (exclusive) is a guarded abbreviation."""
    start = punct_end
    while start > 0 and not line[start - 1].isspace():
        start -= 1
    return line[start:punct_end].lower() in ABBREVIATIONS


def split_sentences(text: str) -> list[Sentence]:
    """Rule-based sentence splitting.

    Newlines are hard boundaries. Within a line, a terminal in ``.!?…``
    followed by whitespace and an uppercase letter or opening quote ends a
    sentence, unless the preceding word is a guarded abbreviation.
    """
    sentences: list[Sentence] = []
    for line in text.split("\n"):
        start = 0
        i = 0
        n = len(line)
        while i < n:
            ch = line[i]
            if ch in SENTENCE_TERMINALS:
                # absorb runs like "?!" or "..."
                j = i + 1
                while j < n and line[j] in SENTENCE_TERMINALS:
                    j += 1
                k = j
                while k < n and line[k].isspace():
                    k += 1
                follows_break = (
                    k > j
                    and k < n
                    and (line[k].isupper() or line[k] in OPENING_QUOTES)
                )
                if follows_break and not _is_abbreviation(line, j):
                    piece = line[start:j].strip()
                    if piece:
                        sentences.append(Sentence.from_text(piece))
                    start = k
                i = j
            else:
                i += 1
        piece = line[start:].strip()
        if piece:
            sentences.append(Sentence.from_text(piece))
    return sentences


def pack_sentences(sentences: list[Sentence], max_words: int = 512) -> list[PackedDocument]:
    """Greedy in-order packing under the word budget.

    A sentence that would overflow the current document starts a new one. A
    single sentence longer than the budget is truncated to ``max_words``
    words and emitted as its own document.
    """
    if max_words < 1:
        raise ValueError("max_words must be >= 1")
    docs: list[PackedDocument] = []
    current: list[Sentence] = []
    current_words = 0
    for sent in sentences:
        if sent.word_count > max_words:
            if current:
                docs.append(PackedDocument(tuple(current)))
                current, current_words = [], 0
            docs.append(PackedDocument((Sentence(sent.words[:max_words]),)))
            continue
        if current_words + sent.word_count > max_words:
            docs.append(PackedDocument(tuple(current)))
            current, current_words = [], 0
        current.append(sent)
        current_words += sent.word_count
    if current:
        docs.append(PackedDocument(tuple(current)))
    return docs


def corpus_stats(docs: list[PackedDocument]) -> CorpusStats:
    """Document count, word count, and mean/population-std of words per doc."""
    if not docs:
        raise ValueError("empty corpus")
    counts = [d.total_words for d in docs]
    n = len(counts)
    total = sum(counts)
    mean = total / n
    var = sum((c - mean) ** 2 for c in counts) / n
    return CorpusStats(n_documents=n, n_words=total, mean_words=mean,
                       std_words=math.sqrt(var))


def prepare_documents(raw_texts: list[str], max_words: int = 512) -> list[PackedDocument]:
    """fix_encoding + split_sentences + pack_sentences over source texts.

    Each source text is packed independently so no document mixes sources.
    """
    docs: list[PackedDocument] = []
    for raw in raw_texts:
        sents = split_sentences(fix_encoding(raw))
        docs.extend(pack_sentences(sents, max_words=max_words))
    return docs


def format_stats_report(stats: CorpusStats) -> str:
    lines = [
        f"n_documents={stats.n_documents}",
        f"n_words={stats.n_words}",
        f"mean_words={stats.mean_words:.6f}",
        f"std_words={stats.std_words:.6f}",
    ]
    return "\n".join(lines) + "\n"
