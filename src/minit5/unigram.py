"""Unigram language-model subword vocabulary.

Training is EM over segmentation lattices followed by likelihood-ranked
pruning; application is Viterbi segmentation. Whitespace is made reversible
by mapping spaces to a boundary marker character before segmentation, so
decode(encode(s)) == s for any text that `UnigramVocab.covers`: every
character is a piece and none is a literal marker, which encode reads as an
unknown character, not as a space.
"""

from __future__ import annotations

import math
from collections import Counter
from functools import reduce
from itertools import filterfalse
from operator import add, itemgetter
from typing import Collection, Iterable

import numpy as np

from .atomic import read_text, write_text

PAD_ID, EOS_ID, UNK_ID, MASK_ID = 0, 1, 2, 3
PAD_PIECE, EOS_PIECE, UNK_PIECE, MASK_PIECE = "<pad>", "</s>", "<unk>", "<M>"
RESERVED_PIECES = (PAD_PIECE, EOS_PIECE, UNK_PIECE, MASK_PIECE)
N_RESERVED = len(RESERVED_PIECES)

BOUNDARY = "▁"  # spaces become this marker inside the model
MAX_SEED_PIECE_LEN = 8
SHRINK_FACTOR = 0.75  # the share of multi-character pieces a pruning round keeps
_UNK_PENALTY = 10.0  # unknown fallback scores this far below the worst piece

NEG_INF = float("-inf")
_ABSENT = object()  # a piece-table miss: no piece starts with the substring
_ENCODE_MEMO_WORDS = 1 << 15  # a vocabulary's encode memo stops growing here
_NOT_TAB_OR_NEWLINE = bytes(b for b in range(256) if b not in b"\t\n")


def _to_internal(text: str) -> str:
    return text.replace(" ", BOUNDARY)


def _to_text(piece_concat: str) -> str:
    return piece_concat.replace(BOUNDARY, " ")


def _logadd(a: float, b: float) -> float:
    if a == NEG_INF:
        return b
    if b == NEG_INF:
        return a
    if a < b:
        a, b = b, a
    return a + math.log1p(math.exp(b - a))


def _unk_log_prob(log_probs: Iterable[float]) -> float:
    """Unknown-character fallback score: _UNK_PENALTY below the worst piece."""
    return min(log_probs, default=0.0) - _UNK_PENALTY


def _cuts_words(pieces: Collection[str]) -> bool:
    """Whether text may be cut before every boundary marker: no piece holds a
    marker after its first character, so no piece spans a cut."""
    text = "\n".join(pieces)
    if text.count("\n") != len(pieces) - 1:  # a piece holds a newline
        return BOUNDARY not in "".join(map(itemgetter(slice(1, None)), pieces))
    # every marker opens a piece: the first, or one after a separator
    return text.count(BOUNDARY) == text.startswith(BOUNDARY) + text.count("\n" + BOUNDARY)


def _words(sent: str, cut: bool) -> list[str]:
    """An internal-form sentence's segments for Viterbi: its words, each with
    its leading marker, where cut is true; else the whole sentence."""
    if not cut:
        return [sent] if sent else []
    head, *rest = sent.split(BOUNDARY)
    return ([head] if head else []) + [BOUNDARY + word for word in rest]


def _weighted_words(sentences: dict[str, int], cut: bool) -> Counter:
    """The distinct segments (see _words) of weighted sentences, each weighted
    by its occurrences."""
    words: Counter[str] = Counter()
    for sent, weight in sentences.items():
        for word in _words(sent, cut):
            words[word] += weight
    return words


class UnigramVocab:
    """Piece table with log-probabilities; ids 0-3 are reserved controls."""

    def __init__(self, pieces: list[tuple[str, float]], source: str | None = None):
        """`source`, the file the rows were read from, names it in errors."""
        self.pieces = list(pieces)
        where = f"{source}: " if source else ""
        if tuple(p for p, _ in self.pieces[:N_RESERVED]) != RESERVED_PIECES:
            raise ValueError(f"{where}vocabulary must start with the reserved pieces")
        self._ids = {p: i for i, (p, _) in enumerate(self.pieces)}
        if len(self._ids) != len(self.pieces):
            raise ValueError(f"{where}piece strings must be unique")
        if "" in self._ids:
            raise ValueError(f"{source}:{self._ids['']}: empty piece" if source
                             else "empty piece")
        log_probs = list(map(itemgetter(1), self.pieces))
        # a sum is finite only if every term is (after an overflow, no row fails)
        if not math.isfinite(sum(log_probs)):
            for row, (piece, lp) in enumerate(self.pieces):
                if not math.isfinite(lp):
                    raise ValueError(f"{source}:{row}: log-prob {lp} is not finite" if source
                                     else f"piece {piece!r} has non-finite log-prob {lp}")
        self._table = _piece_table(self.pieces[N_RESERVED:])
        self._unk_lp = _unk_log_prob(log_probs[N_RESERVED:])
        self._cut = _cuts_words(self._ids)
        self._memo: dict[str, tuple[int, ...]] = {}  # encode's ids per word

    @classmethod
    def from_scored(cls, scored: dict[str, float]) -> "UnigramVocab":
        """Build from non-reserved piece log-probs, ranked by probability."""
        return cls([(p, 0.0) for p in RESERVED_PIECES] + list(_ranked(scored).items()))

    def __len__(self) -> int:
        return len(self.pieces)

    def id_of(self, piece: str) -> int | None:
        return self._ids.get(piece)

    def piece(self, idx: int) -> str:
        return self.pieces[idx][0]

    def log_prob(self, idx: int) -> float:
        return self.pieces[idx][1]

    def scored_body(self) -> dict[str, float]:
        return dict(self.pieces[N_RESERVED:])

    @property
    def unk_log_prob(self) -> float:
        return self._unk_lp

    def covers(self, text: str) -> bool:
        """Whether decode(encode(text)) == text: every character is a piece,
        and none is a literal boundary marker, which encode reads as unknown."""
        return BOUNDARY not in text and all(ch in self._ids for ch in _to_internal(text))

    def save(self, path: str) -> None:
        """Raises ValueError, writing nothing, on a piece the format cannot hold."""
        for piece, _ in self.pieces:
            if "\t" in piece or "\n" in piece:
                raise ValueError(f"piece {piece!r} holds a tab or newline, which "
                                 "the vocabulary file cannot store")
        write_text(path, "".join(f"{piece}\t{lp:.17g}\n" for piece, lp in self.pieces))

    @classmethod
    def load(cls, path: str) -> "UnigramVocab":
        """Line k holds id k; blank lines may only end the file."""
        body = read_text(path, newline="\n").rstrip("\n")
        # one split of the whole file when every line holds exactly one tab,
        # that is when its tabs and newlines alternate from a tab to a tab
        seps = body.encode("utf-8").translate(None, _NOT_TAB_OR_NEWLINE)
        rows = None
        if seps == b"\t\n" * (len(seps) // 2) + b"\t":
            fields = body.replace("\n", "\t").split("\t")
            try:
                rows = list(zip(fields[::2], map(float, fields[1::2])))
            except ValueError:  # a bad log-prob: the loop below names its line
                pass
        if rows is None:
            rows = []
            for lineno, line in enumerate(body.split("\n") if body else []):
                try:
                    piece, lp = line.split("\t")
                    rows.append((piece, float(lp)))
                except ValueError as exc:
                    raise ValueError(f"{path}:{lineno}: bad vocabulary line") from exc
        return cls(rows, source=path)


def build_seed_vocab(corpus: list[str], seed_size: int) -> UnigramVocab:
    """Seed vocabulary from frequent substrings (length <= 8).

    Multi-character candidates are ranked by frequency times length; all
    single characters seen in the corpus are always retained. Initial
    log-probs come from normalized raw frequencies.
    """
    sentences = _weighted_internal(corpus)
    if not sentences:
        raise ValueError("corpus is empty")
    return UnigramVocab.from_scored(_seed_scores(sentences, seed_size))


def _seed_scores(sentences: dict[str, int], seed_size: int) -> dict[str, float]:
    """build_seed_vocab's log-probs over weighted sentences, ranked."""
    char_freq: Counter[str] = Counter()
    sub_freq: Counter[str] = Counter()
    # substrings of each distinct word: the boundary marker may only open a
    # piece, so pieces never span across words
    for word, weight in _weighted_words(sentences, True).items():
        n = len(word)
        for i in range(n):
            char_freq[word[i]] += weight
            for j in range(i + 2, min(n, i + MAX_SEED_PIECE_LEN) + 1):
                sub_freq[word[i:j]] += weight
    if seed_size < len(char_freq):
        raise ValueError(
            f"seed_size {seed_size} is below the {len(char_freq)} distinct characters")
    for piece in RESERVED_PIECES:
        sub_freq.pop(piece, None)
    # tabs/newlines inside a piece would corrupt the vocabulary file format
    sub_freq = Counter({p: f for p, f in sub_freq.items() if "\t" not in p and "\n" not in p})
    budget = seed_size - len(char_freq)
    ranked = sorted(sub_freq.items(), key=lambda kv: (-kv[1] * len(kv[0]), kv[0]))
    kept = dict(ranked[:budget])
    freqs: dict[str, float] = {**char_freq, **kept}
    total = sum(freqs.values())
    return _ranked({p: math.log(f / total) for p, f in freqs.items()})


def _ranked(scored: dict[str, float]) -> dict[str, float]:
    """Pieces by descending log-prob, then by string: the vocabulary's id order."""
    return dict(sorted(scored.items(), key=lambda kv: (-kv[1], kv[0])))


def _weighted_internal(corpus: Iterable[str]) -> dict[str, int]:
    """Unique internal-form sentences with multiplicities, insertion-ordered."""
    weights: Counter[str] = Counter()
    for raw in corpus:
        internal = _to_internal(raw)
        if internal:
            weights[internal] += 1
    return dict(weights)


def _piece_table(scored: dict[str, float] | list[tuple[str, float]]
                 ) -> dict[str, float | None]:
    """Every piece's log-prob, and None for every other prefix of a piece. Each
    piece adds its prefix chain up to the first existing entry: a linear build."""
    table: dict[str, float | None] = dict(scored)
    # parents are sliced and looked up in C (load time); a missing one walks up its chain
    for prefix in filterfalse(table.__contains__, map(itemgetter(slice(None, -1)), list(table))):
        while prefix and prefix not in table:
            table[prefix] = None
            prefix = prefix[:-1]
    return table


def _sentence_edges(sent: str, table: dict[str, float | None],
                    unk_lp: float) -> list[list[tuple[int, str, float]]]:
    """Lattice edges per start position: (end, piece-or-None-for-unk, log_prob),
    in ascending end, the unknown edge last. The walk from a position stops at
    the first substring that is no piece's prefix (see _piece_table)."""
    n = len(sent)
    edges: list[list[tuple[int, str, float]]] = []
    for i in range(n):
        row = []
        for j in range(i + 1, n + 1):
            piece = sent[i:j]
            lp = table.get(piece, _ABSENT)
            if lp is _ABSENT:
                break
            if lp is not None:
                row.append((j, piece, lp))
        if not row or row[0][0] != i + 1:
            row.append((i + 1, None, unk_lp))  # unknown-character fallback
        edges.append(row)
    return edges


_COUNT_FLOOR = 1e-100  # keeps every retained piece at a finite log-prob


class _Lattice:
    """Every weighted sentence's edges as flat int arrays, from one
    _sentence_edges sweep; pruning masks out dropped pieces' edges (keep), as
    single characters, and so unknown edges, always survive. Positions are
    global, edges in the builder's (sentence, start, row) order. EM sweeps
    start levels across all sentences with np.logaddexp, which rounds like
    _logadd, in the scalar recurrence's order: its bytes equal that walk's."""

    def __init__(self, sentences: dict[str, int], scored: dict[str, float]):
        self.sentences = sentences
        self._index = {p: k for k, p in enumerate(scored)}
        table = _piece_table(scored)
        rows: list[int] = []  # six columns, flat
        first: list[int] = []
        pos = 0
        for k, sent in enumerate(sentences):
            first.append(pos)
            for i, row in enumerate(_sentence_edges(sent, table, 0.0)):
                for rank, (j, piece, _) in enumerate(row):  # the unknown piece is -1
                    rows += (pos + i, pos + j, i, rank, self._index.get(piece, -1), k)
            pos += len(sent) + 1
        self._n_pos = pos
        self._first = np.array(first, dtype=np.int64)
        self._last = self._first + np.array([len(s) for s in sentences], dtype=np.int64)
        self._weight = np.array(list(sentences.values()), dtype=np.float64)
        self._set_edges(np.array(rows, dtype=np.int64).reshape(-1, 6).T)

    def _set_edges(self, cols: np.ndarray) -> None:
        """Groups edges by start level, stably; each level's backward terms
        sit in a dense [start, rank] grid."""
        self._cols = cols
        self._start, self._end, level, rank, self._piece, self._sent = cols
        order = np.argsort(level, kind="stable")
        self._lstart, self._lend, self._lpiece = (
            self._start[order], self._end[order], self._piece[order])
        level, rank = level[order], rank[order]
        cuts = np.flatnonzero(np.diff(level, prepend=-1, append=-1)).tolist()
        self._levels = []
        for a, b in zip(cuts[:-1], cuts[1:]):
            starts, row = np.unique(self._lstart[a:b], return_inverse=True)
            width = int(rank[a:b].max()) + 1
            self._levels.append((a, b, starts, row * width + rank[a:b], width))

    def keep(self, scored: dict[str, float]) -> None:
        """Drops the edges of every piece not in scored."""
        alive = np.zeros(len(self._index) + 1, dtype=bool)
        alive[[self._index[p] for p in scored]] = True
        alive[-1] = True  # unknown edges
        self._set_edges(self._cols[:, alive[self._piece]])

    def em(self, scored: dict[str, float]) -> tuple[dict[str, float], float]:
        """One EM pass: (new scores in scored's order, pre-update log-likelihood)."""
        idx = [self._index[p] for p in scored]
        lp_of = np.zeros(len(self._index) + 1)
        lp_of[idx] = list(scored.values())
        lp_of[-1] = _unk_log_prob(scored.values())
        alpha = np.full(self._n_pos, NEG_INF)
        alpha[self._first] = 0.0
        lp = lp_of[self._lpiece]
        for a, b, _, _, _ in self._levels:  # one level's edges all end apart
            ends = self._lend[a:b]
            alpha[ends] = np.logaddexp(alpha[ends], alpha[self._lstart[a:b]] + lp[a:b])
        beta = np.full(self._n_pos, NEG_INF)
        beta[self._last] = 0.0
        for a, b, starts, cells, width in reversed(self._levels):
            terms = np.full(len(starts) * width, NEG_INF)  # -inf adds exactly nothing
            terms[cells] = lp[a:b] + beta[self._lend[a:b]]
            terms = terms.reshape(-1, width)
            acc = terms[:, 0]
            for r in range(1, width):  # in row order, as the scalar sum
                acc = np.logaddexp(acc, terms[:, r])
            beta[starts] = acc
        logz = alpha[self._last]
        loglik = reduce(add, (w * z for w, z in zip(self.sentences.values(), logz.tolist())
                              if z != NEG_INF), 0.0)  # sequential, as the scalar sum
        on = (self._piece >= 0) & (logz[self._sent] != NEG_INF)
        start, end, piece, sent = self._start[on], self._end[on], self._piece[on], self._sent[on]
        x = alpha[start] + lp_of[piece] + beta[end] - logz[sent]
        # math.exp, not np.exp: numpy's SIMD exp rounds some inputs differently
        gamma = np.fromiter(map(math.exp, x.tolist()), np.float64, len(x))
        # bincount adds in edge order, the scalar walk's order
        counts = np.bincount(piece, weights=self._weight[sent] * gamma,
                             minlength=len(self._index))
        floored = np.maximum(counts[idx], _COUNT_FLOOR).tolist()
        log_total = math.log(reduce(add, floored, 0.0))
        return dict(zip(scored, [math.log(c) - log_total for c in floored])), loglik


def em_step(corpus: list[str], vocab: UnigramVocab) -> tuple[UnigramVocab, float]:
    """One EM iteration: expected piece counts by forward-backward, then
    renormalization. Returns the updated vocabulary and the pre-update corpus
    log-likelihood. Piece order is preserved."""
    scored = vocab.scored_body()
    new_scored, loglik = _Lattice(_weighted_internal(corpus), scored).em(scored)
    rows = list(vocab.pieces[:N_RESERVED]) + [
        (p, new_scored[p]) for p, _ in vocab.pieces[N_RESERVED:]]
    return UnigramVocab(rows), loglik


def _best_path(sent: str, edges: list[list[tuple[int, str, float]]]
               ) -> tuple[float, list[tuple[int, int, str | None]]]:
    """Maximum log-probability path through a sentence lattice.

    Returns (log_prob, [(start, end, piece-or-None-for-unk), ...]). Ties go to
    fewer pieces, then to the lexicographically smallest piece sequence;
    sequences are compared only on an exact (log-prob, piece count) tie.
    """
    n = len(sent)
    best = [(NEG_INF, 0)] * (n + 1)  # (log-prob, -piece count): larger is better
    back: list[tuple[int, str | None] | None] = [None] * (n + 1)
    best[0] = (0.0, 0)

    def path_to(pos: int) -> list[tuple[int, int, str | None]]:
        path = []
        while pos > 0:
            i, piece = back[pos]
            path.append((i, pos, piece))
            pos = i
        return path[::-1]

    def texts(path) -> list[str]:  # an unknown character compares as itself
        return [sent[a:b] for a, b, _ in path]

    for i in range(n):
        lp_i, neg_count = best[i]
        if lp_i == NEG_INF:
            continue
        for j, piece, lp in edges[i]:
            cand = (lp_i + lp, neg_count - 1)
            if cand > best[j] or (cand == best[j] and
                                  texts(path_to(i) + [(i, j, piece)]) < texts(path_to(j))):
                best[j], back[j] = cand, (i, piece)
    return best[n][0], path_to(n)


def _viterbi(word: str, table: dict[str, float | None], unk_lp: float
             ) -> list[str | None]:
    """The pieces on a word's best path, None for an unknown character."""
    return [piece for _, _, piece in _best_path(word, _sentence_edges(word, table, unk_lp))[1]]


def encode(vocab: UnigramVocab, text: str) -> list[int]:
    """Viterbi-encode text to piece ids, one word at a time (see _words), so
    a word encodes the same in every context; unknown characters, and a
    literal boundary marker, map to UNK_ID."""
    ids: list[int] = []
    memo = vocab._memo
    for k, chunk in enumerate(text.split(BOUNDARY)):
        if k:
            ids.append(UNK_ID)  # no piece covers a literal marker
        for word in _words(_to_internal(chunk), vocab._cut):
            word_ids = memo.get(word)
            if word_ids is None:
                word_ids = tuple(UNK_ID if piece is None else vocab._ids[piece]
                                 for piece in _viterbi(word, vocab._table, vocab._unk_lp))
                # only words repeat; a full memo only stops growing
                if vocab._cut and len(memo) < _ENCODE_MEMO_WORDS:
                    memo[word] = word_ids
            ids += word_ids
    return ids


def decode(vocab: UnigramVocab, ids: list[int]) -> str:
    """Inverse of encode for covered text: pieces concatenated, boundary
    markers back to spaces, eos skipped. No sequence is padded, so <pad>
    anywhere is an error."""
    parts: list[str] = []
    for idx in ids:
        if not 0 <= idx < len(vocab):
            raise ValueError(f"id {idx} out of range for vocabulary of {len(vocab)}")
        if idx == PAD_ID:
            raise ValueError(f"ids contains the padding id {PAD_ID}; "
                             "no sequence is padded")
        if idx == EOS_ID:
            continue
        parts.append(vocab.piece(idx))
    return _to_text("".join(parts))


def _viterbi_piece_counts(sentences: dict[str, int], table: dict[str, float | None],
                          unk_lp: float, cut: bool) -> Counter:
    """Weighted counts of the pieces on each word's best path, which are the
    pieces encode emits; each distinct word is segmented once."""
    counts: Counter[str] = Counter()
    for word, weight in _weighted_words(sentences, cut).items():
        for piece in _viterbi(word, table, unk_lp):
            if piece is not None:
                counts[piece] += weight
    return counts


def _alternatives(pieces: Iterable[str], table: dict[str, float | None],
                  unk_lp: float) -> dict[str, float]:
    """Each piece's best log-prob of segmenting it without the piece itself:
    the max over its last edges p[i:], i >= 1 (a piece, or the unknown edge of
    an uncovered last character), of F(p[:i]) + lp. F, a string's best forward
    score, is memoized over every prefix and takes its max over the sums
    _best_path's best[] does, so the values equal one walk per piece bit for bit."""
    best = {"": 0.0}  # F

    def ending(s: str, first: int) -> float:
        sums = [best[s[:k]] + lp for k in range(first, len(s))
                if (lp := table.get(s[k:])) is not None]
        if table.get(s[-1]) is None:  # no single-character piece
            sums.append(best[s[:-1]] + unk_lp)
        return max(sums)

    alternatives = {}
    for piece in pieces:
        for i in range(1, len(piece)):
            if piece[:i] not in best:
                best[piece[:i]] = ending(piece[:i], 0)
        alternatives[piece] = ending(piece, 1)
    return alternatives


def prune_vocab(corpus: list[str], vocab: UnigramVocab, target_size: int) -> UnigramVocab:
    """Shrink the vocabulary to exactly target_size total ids.

    Each round runs two EM steps, ranks removable multi-character pieces by
    the Viterbi-approximated likelihood loss of removing them, and keeps the
    top SHRINK_FACTOR fraction (never dropping below the target).
    Single characters and reserved ids are always retained.
    """
    sentences, scored = _weighted_internal(corpus), vocab.scored_body()
    return UnigramVocab.from_scored(
        _prune(_Lattice(sentences, scored), scored, target_size, SHRINK_FACTOR))


def _prune(lattice: _Lattice, scored: dict[str, float], target_size: int,
           shrink_factor: float) -> dict[str, float]:
    """prune_vocab on scores over a lattice of them, masked to each round's
    survivors."""
    singles = {p for p in scored if len(p) == 1}
    min_size = N_RESERVED + len(singles)
    if target_size < min_size:
        raise ValueError(
            f"target_size {target_size} below minimum {min_size} "
            "(reserved ids plus single characters)")
    while N_RESERVED + len(scored) > target_size:
        for _ in range(2):
            scored, _ = lattice.em(scored)
        unk_lp = _unk_log_prob(scored.values())
        table = _piece_table(scored)  # one per round, shared by every piece below
        usage = _viterbi_piece_counts(lattice.sentences, table, unk_lp, _cuts_words(scored))
        multis = [p for p in scored if len(p) > 1]
        alts = _alternatives([p for p in multis if usage[p]], table, unk_lp)
        losses = [(usage[p] * (scored[p] - alts[p]) if usage[p] else 0.0, p)
                  for p in multis]
        losses.sort(key=lambda kv: (-kv[0], kv[1]))
        target_multi = target_size - N_RESERVED - len(singles)
        keep_n = max(target_multi, int(len(multis) * shrink_factor))
        keep = {p for _, p in losses[:keep_n]}
        scored = {p: lp for p, lp in scored.items() if len(p) == 1 or p in keep}
        # renormalize the survivors
        log_total = NEG_INF
        for lp in scored.values():
            log_total = _logadd(log_total, lp)
        scored = {p: lp - log_total for p, lp in scored.items()}
        lattice.keep(scored)
    return scored


def train_vocab(corpus: list[str], vocab_size: int = 32000, *,
                seed_size: int | None = None) -> UnigramVocab:
    """Full trainer: seed substrings, EM, prune to size, final EM polish.

    Deterministic given the corpus order and settings; retraining on the same
    input produces a byte-identical vocabulary file.
    """
    sentences = _weighted_internal(corpus)
    if not sentences:
        raise ValueError("corpus is empty")
    n_chars = len({ch for s in sentences for ch in s})
    if vocab_size < N_RESERVED + n_chars:
        raise ValueError(
            f"vocab_size {vocab_size} cannot cover {n_chars} characters "
            f"plus {N_RESERVED} reserved ids")
    if seed_size is None:
        seed_size = max(n_chars, 4 * vocab_size)
    scored = _seed_scores(sentences, seed_size)
    lattice = _Lattice(sentences, scored)  # the one build; pruning masks it
    for _ in range(2):
        scored, _ = lattice.em(scored)
    if N_RESERVED + len(scored) > vocab_size:
        scored = _ranked(_prune(lattice, scored, vocab_size, SHRINK_FACTOR))
    for _ in range(2):
        scored, _ = lattice.em(scored)
    return UnigramVocab.from_scored(scored)
