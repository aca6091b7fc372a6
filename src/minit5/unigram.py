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
from collections import ChainMap, Counter
from functools import cached_property, reduce
from itertools import filterfalse, islice
from operator import add, itemgetter
from typing import Any, Iterable

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
# encode_many segments this many new words or more in one lattice, fewer by
# _viterbi. Measured on a 2-vCPU shared host (numpy 2.4.6) with the data
# benchmark's V=32k vocabulary, both tables built, best of 15, on three runs
# of its corpus's distinct words: 96 words took 1.16-1.33 ms in the lattice
# and 1.06-1.36 ms by _viterbi, 128 words 1.34-1.53 against 1.46-1.84 ms, and
# 512 words 2.8-3.6 against 6.2-9.3 ms. Building the index once costs what
# building _piece_table once does (8-9 ms each at V=32k, best of 15).
LATTICE_MIN_WORDS = 100
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


def _words(sent: str) -> list[str]:
    """An internal-form sentence's words for Viterbi, each with its leading
    marker: no piece holds a marker after its first character, so none spans
    a cut before one."""
    head, *rest = sent.split(BOUNDARY)
    return ([head] if head else []) + [BOUNDARY + word for word in rest]


def _weighted_words(sentences: dict[str, int]) -> Counter:
    """The distinct words (see _words) of weighted sentences, each weighted
    by its occurrences."""
    words: Counter[str] = Counter()
    for sent, weight in sentences.items():
        for word in _words(sent):
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
        # text is cut into words before every marker, so no piece may span one:
        # in one joined string every marker opens a piece, the first or one
        # after a separator, unless a piece holds a newline
        joined = "\n".join(self._ids)
        if joined.count(BOUNDARY) != joined.startswith(BOUNDARY) + joined.count(
                "\n" + BOUNDARY) or joined.count("\n") != len(self._ids) - 1:
            for row, (piece, _) in enumerate(self.pieces):
                if BOUNDARY in piece[1:]:
                    where = f"{source}:{row}: " if source else ""
                    raise ValueError(f"{where}piece {piece!r} holds the boundary marker "
                                     f"{BOUNDARY} after its first character")
        self._unk_lp = _unk_log_prob(log_probs[N_RESERVED:])
        self._memo: dict[str, tuple[int, ...]] = {}  # encode's ids per word

    @cached_property
    def _table(self) -> dict[str, float | None]:
        """The scalar walk's _piece_table, built on first use."""
        return _piece_table(self.pieces[N_RESERVED:])

    @cached_property
    def _lattice_index(self) -> tuple["_PieceIndex", np.ndarray]:
        """The pieces' _PieceIndex, piece k being id N_RESERVED + k, and
        their log-probs by k, the unknown edge's last; built on first use."""
        body = self.pieces[N_RESERVED:]
        lp_of = np.fromiter(map(itemgetter(1), body), dtype=np.float64, count=len(body))
        return _PieceIndex(list(map(itemgetter(0), body))), np.append(lp_of, self._unk_lp)

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
    for word, weight in _weighted_words(sentences).items():
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


class _PieceIndex:
    """Every piece as an exact integer key, for matching substrings in numpy.

    A character's code is its rank in the pieces' sorted alphabet plus 1, and
    0 for a character no piece holds, so a key with a 0 code matches nothing.
    A key packs its codes `bits` each, `per_word` to an int64 word. The keys
    of one length are matched word by word: each word is found in its sorted
    distinct values, and every word after the first narrows the earlier
    words' group to a (group, word) pair, so any alphabet and any piece
    length stays exact."""

    def __init__(self, pieces: list[str]):
        self.pieces = pieces
        present = np.bincount(_code_points("".join(pieces)), minlength=1) > 0
        # the last entry, 0, codes every character past the alphabet's largest
        self._lut = np.append(np.cumsum(present) * present, 0).astype(np.int32)
        self.bits = max(1, int(present.sum()).bit_length())
        self.per_word = 63 // self.bits
        lens = _lengths(pieces)
        self.max_len = int(lens.max(initial=0))
        codes, starts = self.codes(pieces, lens)
        self._by_len = {}  # length -> ([(values, groups or None)], piece by group)
        for length in np.unique(lens).tolist():
            which = np.flatnonzero(lens == length)
            group, levels = None, []
            for word in self._words(codes, starts[which], length):
                values, rank = np.unique(word, return_inverse=True)
                groups = None
                if group is None:
                    group = rank
                else:
                    groups, group = np.unique(group * len(values) + rank, return_inverse=True)
                levels.append((values, groups))
            piece = np.empty(len(which), dtype=np.int64)
            piece[group] = which  # one group per piece: pieces are distinct
            self._by_len[length] = levels, piece

    def codes(self, texts: list[str], lens: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The texts' character codes laid end to end, each text followed by
        one 0, and where each text starts."""
        points = _code_points("".join(texts))
        starts = np.cumsum(lens + 1) - (lens + 1)
        codes = np.zeros(len(points) + len(texts), dtype=np.int64)
        at = np.arange(len(points)) + np.repeat(np.arange(len(texts)), lens)
        codes[at] = self._lut[np.minimum(points, len(self._lut) - 1)]
        return codes, starts

    def _words(self, codes: np.ndarray, at: np.ndarray, length: int):
        """The int64 words of the keys of codes[s:s + length], s in at."""
        for lo in range(0, length, self.per_word):
            word = codes[lo:][at]
            for c in range(lo + 1, min(lo + self.per_word, length)):
                word = (word << self.bits) | codes[c:][at]
            yield word

    def match(self, codes: np.ndarray, at: np.ndarray, length: int) -> np.ndarray:
        """The piece whose key is that of codes[s:s + length], for each s in
        at, or -1."""
        levels, piece = self._by_len[length]
        group, hit = None, np.ones(len(at), dtype=bool)
        for (values, groups), word in zip(levels, self._words(codes, at, length)):
            rank = np.searchsorted(values, word)
            hit &= values[np.minimum(rank, len(values) - 1)] == word
            if groups is not None:
                pair = group * len(values) + rank
                rank = np.searchsorted(groups, pair)
                hit &= groups[np.minimum(rank, len(groups) - 1)] == pair
            group = rank
        return np.where(hit, piece[np.minimum(group, len(piece) - 1)], -1)


def _code_points(text: str) -> np.ndarray:
    return np.frombuffer(text.encode("utf-32-le", "surrogatepass"), dtype="<u4")


def _lengths(texts: list[str]) -> np.ndarray:
    return np.fromiter(map(len, texts), dtype=np.int64, count=len(texts))


def _word_edges(words: list[str], index: _PieceIndex) -> np.ndarray:
    """_Lattice's six edge columns (global start, global end, start in the
    word, rank in its start's row, piece index or -1 for the unknown edge,
    word index) for every substring of the words, laid end to end one
    position apart, that is a piece of index. Edges run in _sentence_edges'
    order: ascending start, then ascending end, the unknown edge last where no
    single-character piece matches."""
    lens = _lengths(words)
    codes, first = index.codes(words, lens)
    word_of = np.repeat(np.arange(len(words)), lens + 1)
    room = first[word_of] + lens[word_of] - np.arange(len(word_of))  # 0 at each word's end
    # one column per piece length, ascending, then the unknown edge's; -2 is no edge
    lengths = sorted(index._by_len)
    grid = np.full((len(room), len(lengths) + 1), -2, dtype=np.int64)
    for col, length in enumerate(lengths):
        at = np.flatnonzero(room >= length)
        piece = index.match(codes, at, length)
        grid[at[piece >= 0], col] = piece[piece >= 0]
    no_single = grid[:, 0] < 0 if lengths[:1] == [1] else True
    grid[:, -1] = np.where((room > 0) & no_single, -1, -2)
    start, col = np.nonzero(grid > -2)  # row-major: (start, end) order
    piece = grid[start, col]
    length = np.array(lengths + [1], dtype=np.int64)[col]
    per_start = np.bincount(start, minlength=len(room))
    rank = np.arange(len(start)) - np.repeat(np.cumsum(per_start) - per_start, per_start)
    word = word_of[start]
    return np.stack([start, start + length, start - first[word], rank, piece, word])


_COUNT_FLOOR = 1e-100  # keeps every retained piece at a finite log-prob


class _Lattice:
    """Every weighted word's edges as flat int arrays, from one _word_edges
    build; pruning masks out dropped pieces' edges (keep), as single
    characters, and so unknown edges, always survive. Positions are global,
    edges in _word_edges' (word, start, row) order. The words are those of
    _word_lattice, or any weighted texts; `index`, scored's _PieceIndex, is
    built when not given. EM sweeps start levels across all words with
    np.logaddexp, which rounds like _logadd, in the scalar recurrence's
    order: its bytes equal that walk's."""

    def __init__(self, words: dict[str, int], scored: Iterable[str],
                 index: _PieceIndex | None = None):
        self.words = words
        self._pieces = list(scored)
        lens = _lengths(list(words))
        self._first = np.cumsum(lens + 1) - (lens + 1)
        self._last = self._first + lens
        self._n_pos = int(lens.sum()) + len(lens)
        self._weight = np.array(list(words.values()), dtype=np.float64)
        self._set_edges(_word_edges(list(words), index or _PieceIndex(self._pieces)))

    @cached_property
    def _index(self) -> dict[str, int]:
        return {p: k for k, p in enumerate(self._pieces)}

    def _set_edges(self, cols: np.ndarray) -> None:
        """Groups edges by start level, stably; each level's backward terms
        sit in a dense [start, rank] grid."""
        self._cols = cols
        self._start, self._end, level, rank, self._piece, self._sent = cols
        # the narrowest unsigned type sorts by radix
        order = np.argsort(level.astype(np.min_scalar_type(int(level.max(initial=0)))),
                           kind="stable")
        self._lstart, self._lend, self._lpiece, self._lsent = (
            self._start[order], self._end[order], self._piece[order], self._sent[order])
        level, rank = level[order], rank[order]
        cuts = np.flatnonzero(np.diff(level, prepend=-1, append=-1)).tolist()
        # edges keep their ascending start within a level: a row opens where it moves
        opens = np.diff(self._lstart, prepend=-1) != 0
        row = np.cumsum(opens) - 1
        self._levels = []
        for a, b in zip(cuts[:-1], cuts[1:]):
            width = int(rank[a:b].max()) + 1
            self._levels.append((a, b, self._lstart[a:b][opens[a:b]],
                                 (row[a:b] - row[a]) * width + rank[a:b], width))

    def keep(self, scored: dict[str, float]) -> None:
        """Drops the edges of every piece not in scored."""
        alive = np.zeros(len(self._pieces) + 1, dtype=bool)
        alive[[self._index[p] for p in scored]] = True
        alive[-1] = True  # unknown edges
        self._set_edges(self._cols[:, alive[self._piece]])

    def _log_probs(self, scored: dict[str, float]) -> tuple[list[int], np.ndarray]:
        """scored's piece indices, and every piece's log-prob by index, the
        unknown edge's last."""
        idx = [self._index[p] for p in scored]
        lp_of = np.zeros(len(self._pieces) + 1)
        lp_of[idx] = list(scored.values())
        lp_of[-1] = _unk_log_prob(scored.values())
        return idx, lp_of

    def em(self, scored: dict[str, float]) -> tuple[dict[str, float], float]:
        """One EM pass: (new scores in scored's order, pre-update log-likelihood)."""
        idx, lp_of = self._log_probs(scored)
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
        loglik = reduce(add, (w * z for w, z in zip(self.words.values(), logz.tolist())
                              if z != NEG_INF), 0.0)  # sequential, as the scalar sum
        on = (self._piece >= 0) & (logz[self._sent] != NEG_INF)
        start, end, piece, sent = self._start[on], self._end[on], self._piece[on], self._sent[on]
        x = alpha[start] + lp_of[piece] + beta[end] - logz[sent]
        # math.exp, not np.exp: numpy's SIMD exp rounds some inputs differently
        gamma = np.fromiter(map(math.exp, x.tolist()), np.float64, len(x))
        # bincount adds in edge order, the scalar walk's order
        counts = np.bincount(piece, weights=self._weight[sent] * gamma,
                             minlength=len(self._pieces))
        floored = np.maximum(counts[idx], _COUNT_FLOOR).tolist()
        log_total = math.log(reduce(add, floored, 0.0))
        return dict(zip(scored, [math.log(c) - log_total for c in floored])), loglik

    def _sweep(self, lp_of: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """One max-product sweep over the start levels, as em's forward, under
        the log-probs lp_of (see _log_probs): each position's back edge, the
        last edge of its best path, which words tie, and each position's best
        log-prob. It keeps each position's best (log-prob, piece count); a
        candidate wins on a higher log-prob, or an equal one with fewer
        pieces, and candidates reach a position in ascending start, as in
        _best_path. A word where a candidate exactly ties a position's best is
        tied: _best_path breaks that tie by its pieces' text, so tied_paths
        must walk it."""
        lp = lp_of[self._lpiece]
        best = np.full(self._n_pos, NEG_INF)
        best[self._first] = 0.0
        n_pieces = np.zeros(self._n_pos, dtype=np.int64)
        back = np.zeros(self._n_pos, dtype=np.int64)
        tied = np.zeros(len(self.words), dtype=bool)
        for a, b, _, _, _ in self._levels:  # one level's edges all end apart
            ends, starts = self._lend[a:b], self._lstart[a:b]
            cand, count = best[starts] + lp[a:b], n_pieces[starts] + 1
            same_lp = cand == best[ends]
            tied[self._lsent[a:b][same_lp & (count == n_pieces[ends])]] = True
            win = np.flatnonzero((cand > best[ends]) | (same_lp & (count < n_pieces[ends])))
            at = ends[win]
            best[at], n_pieces[at], back[at] = cand[win], count[win], a + win
        return back, tied, best

    def paths(self, back: np.ndarray, tied: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Every untied word's best path at once, from its end back to its
        start: the (word, piece) of each edge, grouped by word in ascending
        word, each word's edges in path order; the unknown piece is -1."""
        word = np.flatnonzero(~tied)
        pos, first = self._last[word], self._first[word]
        steps = []
        while len(pos):
            go = pos > first
            word, pos, first = word[go], pos[go], first[go]
            edge = back[pos]
            steps.append((word, edge))
            pos = self._lstart[edge]
        # the last step holds the first edges: reversed, each word's edges
        # run in path order, and a stable sort by word keeps that order
        steps.reverse()
        none = [np.zeros(0, dtype=np.int64)]
        words = np.concatenate([w for w, _ in steps] + none)
        edges = np.concatenate([e for _, e in steps] + none)
        order = np.argsort(words, kind="stable")
        return words[order], self._lpiece[edges[order]]

    def tied_paths(self, tied: np.ndarray, lp_of: np.ndarray):
        """Each tied word's best path by _best_path over the word's own edges,
        handed over as per-start (end, piece, log-prob) rows in _word_edges'
        order, which is _sentence_edges': yields (word, the path's pieces),
        the unknown piece -1."""
        words = list(self.words)
        for k in np.flatnonzero(tied).tolist():
            a, b = np.searchsorted(self._sent, [k, k + 1]).tolist()  # edges run by word
            rows: list[list[tuple[int, int, float]]] = [[] for _ in words[k]]
            piece = self._piece[a:b]
            for i, j, p, lp in zip((self._start[a:b] - self._first[k]).tolist(),
                                   (self._end[a:b] - self._first[k]).tolist(),
                                   piece.tolist(), lp_of[piece].tolist()):
                rows[i].append((j, p, lp))
            yield k, [p for _, _, p in _best_path(words[k], rows)[1]]

    def usage(self, scored: dict[str, float]) -> dict[str, int]:
        """Weighted counts of the pieces on each word's best path, which are
        the pieces encode emits, for every piece of scored. The paths come
        from one _sweep; a tied word's from tied_paths."""
        idx, lp_of = self._log_probs(scored)
        back, tied, _ = self._sweep(lp_of)
        word, piece = self.paths(back, tied)
        # integer weights: every sum is exact, in any order; the unknown
        # piece, -1, counts last
        n = len(self._pieces) + 1
        counts = np.bincount(piece % n, weights=self._weight[word], minlength=n).astype(np.int64)
        for k, path in self.tied_paths(tied, lp_of):
            np.add.at(counts, path, int(self._weight[k]))
        return dict(zip(scored, counts[idx].tolist()))


def _best_without_self(pieces: list[str], scored: dict[str, float]) -> list[float]:
    """Each of pieces' (all in scored) best log-prob of segmenting it without
    the piece itself: one _sweep over their lattice with every whole-span
    edge dropped, read at each piece's end."""
    lattice = _Lattice(dict.fromkeys(pieces, 1), scored)
    start, end, _, _, _, word = cols = lattice._cols
    lattice._set_edges(cols[:, (start != lattice._first[word]) | (end != lattice._last[word])])
    return lattice._sweep(lattice._log_probs(scored)[1])[2][lattice._last].tolist()


def _word_lattice(sentences: dict[str, int], scored: dict[str, float]) -> _Lattice:
    """The lattice of weighted sentences' distinct words (see _weighted_words),
    in first-occurrence order. A sentence's lattice is its words' lattices
    end to end, so EM's sums are the same; only their rounding moves."""
    return _Lattice(dict(_weighted_words(sentences)), scored)


def em_step(corpus: list[str], vocab: UnigramVocab) -> tuple[UnigramVocab, float]:
    """One EM iteration: expected piece counts by forward-backward, then
    renormalization. Returns the updated vocabulary and the pre-update corpus
    log-likelihood, summed over the corpus's distinct words (see
    _word_lattice). Piece order is preserved."""
    scored = vocab.scored_body()
    new_scored, loglik = _word_lattice(_weighted_internal(corpus), scored).em(scored)
    rows = list(vocab.pieces[:N_RESERVED]) + [
        (p, new_scored[p]) for p, _ in vocab.pieces[N_RESERVED:]]
    return UnigramVocab(rows), loglik


def _best_path(sent: str, edges: list[list[tuple[int, Any, float]]]
               ) -> tuple[float, list[tuple[int, int, Any]]]:
    """Maximum log-probability path through a sentence lattice, whose edges
    from position i are edges[i]: (end, piece, log_prob) rows as
    _sentence_edges gives them. A piece is any label, returned as given.

    Returns (log_prob, [(start, end, piece), ...]). Ties go to fewer pieces,
    then to the lexicographically smallest piece sequence; sequences are
    compared only on an exact (log-prob, piece count) tie.
    """
    n = len(sent)
    best = [(NEG_INF, 0)] * (n + 1)  # (log-prob, -piece count): larger is better
    back: list[tuple[int, Any] | None] = [None] * (n + 1)
    best[0] = (0.0, 0)

    def path_to(pos: int) -> list[tuple[int, int, Any]]:
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


def _viterbi_ids(vocab: UnigramVocab, word: str) -> tuple[int, ...]:
    return tuple(UNK_ID if piece is None else vocab._ids[piece]
                 for piece in _viterbi(word, vocab._table, vocab._unk_lp))


def _lattice_ids(vocab: UnigramVocab, words: list[str]) -> dict[str, tuple[int, ...]]:
    """Each word's ids from one lattice over the vocabulary's index: all
    untied words backtracked at once (see _Lattice.paths), a tied one by
    _Lattice.tied_paths."""
    index, lp_of = vocab._lattice_index
    lattice = _Lattice(dict.fromkeys(words, 1), index.pieces, index)
    back, tied, _ = lattice._sweep(lp_of)
    word, piece = lattice.paths(back, tied)
    ids = np.where(piece < 0, UNK_ID, piece + N_RESERVED).tolist()
    ends = np.cumsum(np.bincount(word, minlength=len(words))).tolist()
    out = {w: tuple(ids[a:b]) for w, a, b in zip(words, [0] + ends, ends)}
    for k, path in lattice.tied_paths(tied, lp_of):
        out[words[k]] = tuple(UNK_ID if p < 0 else p + N_RESERVED for p in path)
    return out


def encode_many(vocab: UnigramVocab, texts: list[str]) -> list[list[int]]:
    """Viterbi-encode each text to piece ids, one word at a time (see
    _words), so a word encodes the same in every context; unknown
    characters, and a literal boundary marker, map to UNK_ID. The distinct
    words the memo lacks are segmented together in one lattice when there
    are at least LATTICE_MIN_WORDS of them, else one by one; both give the
    same ids."""
    memo = vocab._memo
    chunked = [[_words(_to_internal(chunk)) for chunk in text.split(BOUNDARY)]
               for text in texts]
    new = dict.fromkeys(word for chunks in chunked for words in chunks for word in words
                        if word not in memo)
    known = memo
    if new:
        if len(new) >= LATTICE_MIN_WORDS:
            new = _lattice_ids(vocab, list(new))
        else:
            new = {word: _viterbi_ids(vocab, word) for word in new}
        room = max(0, _ENCODE_MEMO_WORDS - len(memo))  # a full memo only stops growing
        memo.update(islice(new.items(), room))
        if len(new) > room:
            known = ChainMap(new, memo)
    out = []
    for chunks in chunked:
        ids: list[int] = []
        for k, words in enumerate(chunks):
            if k:
                ids.append(UNK_ID)  # no piece covers a literal marker
            for word in words:
                ids += known[word]
        out.append(ids)
    return out


def encode(vocab: UnigramVocab, text: str) -> list[int]:
    """encode_many of one text."""
    return encode_many(vocab, [text])[0]


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


def prune_vocab(corpus: list[str], vocab: UnigramVocab, target_size: int) -> UnigramVocab:
    """Shrink the vocabulary to exactly target_size total ids.

    Each round runs two EM steps, ranks removable multi-character pieces by
    the Viterbi-approximated likelihood loss of removing them, and keeps the
    top SHRINK_FACTOR fraction (never dropping below the target).
    Single characters and reserved ids are always retained.
    """
    scored = vocab.scored_body()
    return UnigramVocab.from_scored(_prune(_word_lattice(_weighted_internal(corpus), scored),
                                           scored, target_size, SHRINK_FACTOR))


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
        usage = lattice.usage(scored)
        multis = [p for p in scored if len(p) > 1]
        used = [p for p in multis if usage[p]]
        alts = dict(zip(used, _best_without_self(used, scored)))
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
    lattice = _word_lattice(sentences, scored)  # the one build; pruning masks it
    for _ in range(2):
        scored, _ = lattice.em(scored)
    if N_RESERVED + len(scored) > vocab_size:
        scored = _ranked(_prune(lattice, scored, vocab_size, SHRINK_FACTOR))
    for _ in range(2):
        scored, _ = lattice.em(scored)
    return UnigramVocab.from_scored(scored)
