"""Seeded input generator for the benchmark.

Everything the program reads is made here: a Zipfian, syllable-built
Portuguese-like lexicon with accents and, drawn from it, raw multi-paragraph
text (with mojibake lines, abbreviations and ``?!``/``…`` terminals), packed
corpora, CoNLL NER documents over the five entity classes, ASSIN-style
sentence-pair TSV, and Unigram vocabularies built straight from the lexicon
(no EM), so that set-up stays short.

The lexicon, a made-up language, and the vocabularies built from it are the
same for every seed; the workload seed draws the text. Seeds then differ in
their data and not in their language, which keeps the work per run, and the
loss of a model that trains for one epoch, close across seeds.

Every line the program will encode must be covered by the vocabulary it is
encoded with, and ``build_vocab`` refuses text that is not. The reason is a
known defect of the program: an uncovered character encodes to the UNK id,
and ``mask_tokens`` rejects it with the misleading message "input ids must
not contain reserved ids", so ``pretrain`` and ``make-pretrain-data`` exit 2.
"""

from __future__ import annotations

import itertools
import math
import random
import string
from collections import Counter

from minit5.corpus import MOJIBAKE_REPAIRS
from minit5.ner import CLASSES, OTHER, TAG_OF_CLASS, LabelTable
from minit5.tasks import ASSIN_PREFIX_1, ASSIN_PREFIX_2, NER_PREFIX
from minit5.unigram import (BOUNDARY, MAX_SEED_PIECE_LEN, N_RESERVED,
                            UnigramVocab)

ONSETS = ("", "", "b", "c", "d", "f", "g", "j", "l", "m", "n", "p", "r", "s",
          "t", "v", "z", "ch", "lh", "nh", "qu", "br", "cr", "pr", "tr", "gr",
          "pl", "ç")
NUCLEI = ("a", "a", "e", "e", "i", "o", "o", "u", "ã", "õ", "á", "é", "í",
          "ó", "ú", "â", "ê", "ô", "à", "ai", "ei", "ou", "ão")
CODAS = ("", "", "", "", "s", "r", "l", "m", "n")
TERMINALS = (".", ".", ".", ".", "?", "!", "?!", "…")
ABBREVIATIONS = ("Sr.", "Sra.", "Dr.", "Dra.")
ACCENTED = "ãõáéíóúâêôàçÃÕÁÉÍÓÚÂÊÔÀÇ"
ALPHABET = (string.ascii_letters + string.digits + ACCENTED
            + ".,;:?!…[]/-" + BOUNDARY)
_MOJIBAKE = {good: bad for bad, good in MOJIBAKE_REPAIRS.items()}
LANGUAGE_SEED = 2008
LEXICON_WORDS, LEXICON_NAMES = 6000, 400


def language() -> "Lexicon":
    """The lexicon every workload and seed shares."""
    return Lexicon(random.Random(LANGUAGE_SEED), LEXICON_WORDS, LEXICON_NAMES)


class Lexicon:
    """Syllable-built words with Zipfian frequencies, plus capitalized names."""

    def __init__(self, rng: random.Random, n_words: int, n_names: int):
        self.words = _distinct_words(rng, n_words, 1, 4)
        self.names = [w.capitalize() for w in _distinct_words(rng, n_names, 2, 3)]
        self.weights = [1.0 / (rank + 2.7) ** 1.07 for rank in range(n_words)]
        self._cum = list(itertools.accumulate(self.weights))
        self._name_cum = list(itertools.accumulate(1.0 / (r + 1.0) for r in range(n_names)))

    def draw(self, rng: random.Random, k: int) -> list[str]:
        return rng.choices(self.words, cum_weights=self._cum, k=k)

    def name(self, rng: random.Random) -> str:
        return rng.choices(self.names, cum_weights=self._name_cum)[0]


def _distinct_words(rng: random.Random, n: int, lo: int, hi: int) -> list[str]:
    """n distinct words of lo..hi syllables, shorter words first, as frequent
    words tend to be short."""
    seen: dict[str, float] = {}
    while len(seen) < n:
        k = rng.randint(lo, hi)
        word = "".join(rng.choice(ONSETS) + rng.choice(NUCLEI) for _ in range(k))
        seen.setdefault(word + rng.choice(CODAS), k + 2.0 * rng.random())
    return sorted(seen, key=seen.__getitem__)


def sentence(rng: random.Random, lex: Lexicon, n_words: int,
             terminal: str | None = None) -> str:
    """One sentence: capitalized, a few commas, sometimes an abbreviated title
    before a name or a year, ending in a terminal."""
    words = lex.draw(rng, n_words)
    if rng.random() < 0.3:
        at = rng.randrange(1, n_words)
        words[at:at + 1] = [rng.choice(ABBREVIATIONS), lex.name(rng)]
    if rng.random() < 0.2:
        words[rng.randrange(1, len(words))] = str(rng.randint(1900, 2024))
    for i in range(len(words) - 1):
        if rng.random() < 0.06:
            words[i] += ","
    words[0] = words[0].capitalize()
    return " ".join(words) + (terminal or rng.choice(TERMINALS))


def mojibake(text: str) -> str:
    """The UTF-8-read-as-Latin-1 damage that ``fix_encoding`` repairs."""
    return "".join(_MOJIBAKE.get(ch, ch) for ch in text)


def sentences(rng: random.Random, lex: Lexicon, n_chars: int) -> list[str]:
    """Sentences of 6-18 words up to a total of n_chars characters, so that
    every seed gives about the same amount of text."""
    out, total = [], 0
    while total < n_chars:
        out.append(sentence(rng, lex, rng.randint(6, 18)))
        total += len(out[-1])
    return out


def raw_text(rng: random.Random, lex: Lexicon, n_chars: int,
             sentences_per_paragraph: int) -> tuple[str, list[str]]:
    """Raw multi-paragraph text of about n_chars characters, and its clean
    sentences.

    Some paragraphs are damaged by mojibake, use CRLF endings or carry runs of
    spaces and tabs; preprocessing repairs all of it."""
    paragraphs = []
    clean = sentences(rng, lex, n_chars)
    for i in range(0, len(clean), sentences_per_paragraph):
        sents = clean[i:i + sentences_per_paragraph]
        para = " ".join(sents)
        roll = rng.random()
        if roll < 0.2:
            para = mojibake(para)
        elif roll < 0.3:
            para = para.replace(" ", " \t ", 3) + "\r"
        elif roll < 0.4:
            para = para.replace(" ", "   ", 5)
        paragraphs.append(para)
    return "\n\n".join(paragraphs) + "\n", clean


def packed_documents(rng: random.Random, lex: Lexicon, n_docs: int,
                     min_words: int) -> list[str]:
    """Documents of whole sentences, each at least min_words words long."""
    docs = []
    for _ in range(n_docs):
        sents, words = [], 0
        while words < min_words:
            n = rng.randint(8, 20)
            sents.append(sentence(rng, lex, n))
            words += len(sents[-1].split())
        docs.append(" ".join(sents))
    return docs


def _entity(rng: random.Random, lex: Lexicon, cls: str) -> list[str]:
    if cls == "Person":
        return [lex.name(rng) for _ in range(rng.randint(1, 2))]
    if cls == "Organization":
        return [lex.name(rng), lex.draw(rng, 1)[0].capitalize()]
    if cls == "Location":
        return [lex.name(rng)]
    if cls == "Value":
        return [f"{rng.randint(1, 999)},{rng.randint(0, 9)}"]
    return [f"{rng.randint(1, 28)}/{rng.randint(1, 12)}/{rng.randint(1900, 2024)}"]


def ner_document(rng: random.Random, lex: Lexicon,
                 n_words: int) -> list[tuple[str, str]]:
    """(word, BIO tag) rows of exactly n_words words."""
    rows: list[tuple[str, str]] = []
    while len(rows) < n_words:
        if rng.random() < 0.3:
            cls = rng.choice(CLASSES)
            tag = TAG_OF_CLASS[cls]
            span = _entity(rng, lex, cls)
            rows.extend((w, ("B-" if i == 0 else "I-") + tag)
                        for i, w in enumerate(span))
        else:
            rows.extend((w, "O") for w in lex.draw(rng, rng.randint(1, 3)))
    return rows[:n_words]


def pair_rows(rng: random.Random, lex: Lexicon, n: int,
              start: int) -> list[tuple[str, str, str, str, str]]:
    """ASSIN-style pairs: sentence2 rewrites some words of sentence1, and the
    similarity and entailment labels follow how many were rewritten. The
    share rewritten cycles through nine levels, so every seed gives the same
    spread of labels."""
    rows = []
    for i in range(n):
        s1 = sentence(rng, lex, rng.randint(7, 10), terminal=".").split()
        changed = round((i % 9) / 8 * len(s1))
        s2 = list(s1)
        for pos in rng.sample(range(len(s1) - 1), min(changed, len(s1) - 1)):
            s2[pos] = lex.draw(rng, 1)[0]
        similarity = 5.0 - 4.0 * changed / len(s1)
        entail = "entail" if changed <= 2 else "none"
        rows.append((f"p{start + i}", " ".join(s1), " ".join(s2),
                     f"{similarity:.1f}", entail))
    return rows


def fixed_strings() -> list[str]:
    """Text the program adds around generated words: task prefixes and the
    bracketed NER labels of its target strings."""
    table = LabelTable("pt")
    labels = [f"[{table.label_of(c)}]" for c in (*CLASSES, OTHER)]
    return [ASSIN_PREFIX_1, ASSIN_PREFIX_2, NER_PREFIX, *labels]


def build_vocab(lex: Lexicon, size: int, covered: list[str]) -> UnigramVocab:
    """A Unigram vocabulary of exactly `size` ids without running EM.

    Candidate pieces are the substrings (up to the trainer's seed length) of
    lexicon words, names and the fixed strings, weighted by word frequency;
    multi-character pieces are ranked by weight times length as the trainer's
    seed step does. Every character of ALPHABET is kept as a single piece.
    Raises ValueError when a line of `covered` has a character outside it.
    """
    weight: Counter[str] = Counter()
    forms = list(zip(lex.words, lex.weights))
    forms += [(n, 0.002) for n in lex.names]
    forms += [(piece, 0.05) for s in fixed_strings() for piece in s.split()]
    forms += [(d, 0.01) for d in string.digits]
    for word, f in forms:
        text = BOUNDARY + word
        for i in range(len(text)):
            for j in range(i + 1, min(len(text), i + MAX_SEED_PIECE_LEN) + 1):
                weight[text[i:j]] += f
    # sentence-initial capitals: only the pieces that hold the capital differ
    for word, f in zip(lex.words, lex.weights):
        cap = word.capitalize()
        for text in (cap, BOUNDARY + cap):
            for j in range(1, min(len(text), MAX_SEED_PIECE_LEN) + 1):
                weight[text[:j]] += 0.1 * f
    singles = {ch: weight.get(ch, 0.0) + 1e-6 for ch in ALPHABET}
    multis = sorted(((p, f) for p, f in weight.items() if len(p) > 1),
                    key=lambda kv: (-kv[1] * len(kv[0]), kv[0]))
    budget = size - N_RESERVED - len(singles)
    if len(multis) < budget:
        raise ValueError(f"lexicon yields {len(multis)} pieces, {budget} needed")
    chosen = dict(multis[:budget])
    chosen.update(singles)
    total = sum(chosen.values())
    # a small fixed jitter keeps equal-frequency pieces from tying exactly
    rng = random.Random(size)
    scored = {p: math.log(f * (1.0 + 0.01 * rng.random()) / total)
              for p, f in sorted(chosen.items())}
    vocab = UnigramVocab.from_scored(scored)
    for line in covered:
        if not vocab.covers(line):
            bad = sorted({ch for ch in line.replace(" ", BOUNDARY)
                          if vocab.id_of(ch) is None})
            raise ValueError(f"generated text is not covered by the vocabulary: {bad}")
    return vocab
