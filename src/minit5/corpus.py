"""Corpus preparation: encoding repair, sentence splitting, document packing."""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

from .atomic import format_rows

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


def split_sentences(text: str) -> list[list[str]]:
    """Rule-based sentence splitting; each sentence is its list of words.

    Newlines are hard boundaries. Within a line, a terminal in ``.!?…``
    followed by whitespace and an uppercase letter or opening quote ends a
    sentence, unless the preceding word is a guarded abbreviation.
    """
    sentences: list[list[str]] = []
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
                    words = line[start:j].split()
                    if words:
                        sentences.append(words)
                    start = k
                i = j
            else:
                i += 1
        words = line[start:].split()
        if words:
            sentences.append(words)
    return sentences


def pack_sentences(sentences: list[list[str]], max_words: int) -> list[list[str]]:
    """Greedy in-order packing under the word budget.

    A sentence that would overflow the current document starts a new one. A
    single sentence longer than the budget is truncated to ``max_words``
    words and emitted as its own document.
    """
    if max_words < 1:
        raise ValueError("max_words must be >= 1")
    docs: list[list[str]] = []
    current: list[str] = []
    for words in sentences:
        if current and len(current) + len(words) > max_words:
            docs.append(current)
            current = []
        if len(words) > max_words:
            docs.append(words[:max_words])
        else:
            current.extend(words)
    if current:
        docs.append(current)
    return docs


def corpus_stats(docs: list[list[str]]) -> CorpusStats:
    """Document count, word count, and mean/population-std of words per doc."""
    if not docs:
        raise ValueError("empty corpus")
    counts = [len(doc) for doc in docs]
    n = len(counts)
    total = sum(counts)
    mean = total / n
    var = sum((c - mean) ** 2 for c in counts) / n
    return CorpusStats(n_documents=n, n_words=total, mean_words=mean,
                       std_words=math.sqrt(var))


def prepare_documents(raw_texts: list[str], max_words: int = 512) -> list[list[str]]:
    """fix_encoding + split_sentences + pack_sentences over source texts,
    giving each document as its list of words.

    Each source text is packed independently so no document mixes sources.
    """
    docs: list[list[str]] = []
    for raw in raw_texts:
        sents = split_sentences(fix_encoding(raw))
        docs.extend(pack_sentences(sents, max_words=max_words))
    return docs


def format_stats_report(stats: CorpusStats) -> str:
    return format_rows(vars(stats).items(), "=")
