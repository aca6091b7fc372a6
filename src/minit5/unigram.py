"""Unigram language-model subword vocabulary.

Training is EM over segmentation lattices followed by likelihood-ranked
pruning; application is Viterbi segmentation. Whitespace is made reversible
by mapping spaces to a boundary marker character before segmentation, so
decode(encode(s)) == s for any text whose characters are covered.
"""

from __future__ import annotations

import math
from collections import Counter
from itertools import filterfalse
from operator import itemgetter
from typing import Iterable

from .atomic import atomic_write

PAD_ID, EOS_ID, UNK_ID, MASK_ID = 0, 1, 2, 3
PAD_PIECE, EOS_PIECE, UNK_PIECE, MASK_PIECE = "<pad>", "</s>", "<unk>", "<M>"
RESERVED_PIECES = (PAD_PIECE, EOS_PIECE, UNK_PIECE, MASK_PIECE)
N_RESERVED = len(RESERVED_PIECES)

BOUNDARY = "▁"  # spaces become this marker inside the model
MAX_SEED_PIECE_LEN = 8
_UNK_PENALTY = 10.0  # unknown fallback scores this far below the worst piece

NEG_INF = float("-inf")
_ABSENT = object()  # a piece-table miss: no piece starts with the substring


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
        log_probs = list(map(itemgetter(1), self.pieces))
        # a sum is finite only if every term is (after an overflow, no row fails)
        if not math.isfinite(sum(log_probs)):
            for row, (piece, lp) in enumerate(self.pieces):
                if not math.isfinite(lp):
                    raise ValueError(f"{source}:{row}: log-prob {lp} is not finite" if source
                                     else f"piece {piece!r} has non-finite log-prob {lp}")
        self._table = _piece_table(self.pieces[N_RESERVED:])
        self._unk_lp = _unk_log_prob(log_probs[N_RESERVED:])

    @classmethod
    def from_scored(cls, scored: dict[str, float]) -> "UnigramVocab":
        """Build from non-reserved piece log-probs, ranked by probability."""
        ranked = sorted(scored.items(), key=lambda kv: (-kv[1], kv[0]))
        rows = [(p, 0.0) for p in RESERVED_PIECES] + ranked
        return cls(rows)

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
        return all(ch in self._ids for ch in _to_internal(text))

    def save(self, path: str) -> None:
        with atomic_write(path) as fh:
            for piece, lp in self.pieces:
                fh.write(f"{piece}\t{lp:.17g}\n")

    @classmethod
    def load(cls, path: str) -> "UnigramVocab":
        """Line k holds id k; blank lines may only end the file."""
        with open(path, "r", encoding="utf-8", newline="\n") as fh:
            lines = fh.read().split("\n")
        while lines and not lines[-1]:
            lines.pop()
        rows: list[tuple[str, float]] = []
        for lineno, line in enumerate(lines):
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
    char_freq: Counter[str] = Counter()
    sub_freq: Counter[str] = Counter()
    for sent, weight in sentences.items():
        n = len(sent)
        for i in range(n):
            char_freq[sent[i]] += weight
            for j in range(i + 2, min(n, i + MAX_SEED_PIECE_LEN) + 1):
                # the boundary marker may only open a piece: pieces never
                # span across words
                if sent[j - 1] == BOUNDARY:
                    break
                sub_freq[sent[i:j]] += weight
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
    scored = {p: math.log(f / total) for p, f in freqs.items()}
    return UnigramVocab.from_scored(scored)


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


def _forward_backward(sent: str, table: dict[str, float | None], unk_lp: float):
    """Returns (edges, alpha, beta, logZ) for one sentence."""
    edges = _sentence_edges(sent, table, unk_lp)
    n = len(sent)
    alpha = [NEG_INF] * (n + 1)
    alpha[0] = 0.0
    for i in range(n):
        if alpha[i] == NEG_INF:
            continue
        base = alpha[i]
        for j, _, lp in edges[i]:
            alpha[j] = _logadd(alpha[j], base + lp)
    beta = [NEG_INF] * (n + 1)
    beta[n] = 0.0
    for i in range(n - 1, -1, -1):
        acc = NEG_INF
        for j, _, lp in edges[i]:
            if beta[j] != NEG_INF:
                acc = _logadd(acc, lp + beta[j])
        beta[i] = acc
    return edges, alpha, beta, alpha[n]


_COUNT_FLOOR = 1e-100  # keeps every retained piece at a finite log-prob


def _em_on_prepared(sentences: dict[str, int], scored: dict[str, float],
                    unk_lp: float) -> tuple[dict[str, float], float]:
    """One EM pass over pre-weighted sentences; returns (new scores, pre-update LL)."""
    table = _piece_table(scored)
    counts: dict[str, float] = {}
    loglik = 0.0
    for sent, weight in sentences.items():
        edges, alpha, beta, logz = _forward_backward(sent, table, unk_lp)
        if logz == NEG_INF:
            continue
        loglik += weight * logz
        for i in range(len(sent)):
            if alpha[i] == NEG_INF:
                continue
            for j, piece, lp in edges[i]:
                if piece is None or beta[j] == NEG_INF:
                    continue
                gamma = math.exp(alpha[i] + lp + beta[j] - logz)
                if gamma > 0.0:
                    counts[piece] = counts.get(piece, 0.0) + weight * gamma
    total = 0.0
    floored: dict[str, float] = {}
    for piece in scored:
        c = max(counts.get(piece, 0.0), _COUNT_FLOOR)
        floored[piece] = c
        total += c
    log_total = math.log(total)
    new_scored = {p: math.log(c) - log_total for p, c in floored.items()}
    return new_scored, loglik


def em_step(corpus: list[str], vocab: UnigramVocab) -> tuple[UnigramVocab, float]:
    """One EM iteration: expected piece counts by forward-backward, then
    renormalization. Returns the updated vocabulary and the pre-update corpus
    log-likelihood. Piece order is preserved."""
    new_scored, loglik = _em_on_prepared(
        _weighted_internal(corpus), vocab.scored_body(), vocab.unk_log_prob)
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


def encode(vocab: UnigramVocab, text: str) -> list[int]:
    """Viterbi-encode text to piece ids; unknown characters map to UNK_ID."""
    internal = _to_internal(text)
    edges = _sentence_edges(internal, vocab._table, vocab._unk_lp)
    return [UNK_ID if piece is None else vocab._ids[piece]
            for _, _, piece in _best_path(internal, edges)[1]]


def decode(vocab: UnigramVocab, ids: list[int]) -> str:
    """Inverse of encode for covered text: pieces concatenated, boundary
    markers back to spaces, right-pad suffix stripped, eos skipped."""
    ids = list(ids)
    while ids and ids[-1] == PAD_ID:
        ids.pop()
    parts: list[str] = []
    for idx in ids:
        if not 0 <= idx < len(vocab):
            raise ValueError(f"id {idx} out of range for vocabulary of {len(vocab)}")
        if idx == PAD_ID:
            raise ValueError("padding id inside sequence")
        if idx == EOS_ID:
            continue
        parts.append(vocab.piece(idx))
    return _to_text("".join(parts))


def _viterbi_piece_counts(sentences: dict[str, int], table: dict[str, float | None],
                          unk_lp: float) -> Counter:
    """Weighted counts of the pieces on each sentence's best path, which are
    the pieces encode emits."""
    counts: Counter[str] = Counter()
    for sent, weight in sentences.items():
        edges = _sentence_edges(sent, table, unk_lp)
        for _, _, piece in _best_path(sent, edges)[1]:
            if piece is not None:
                counts[piece] += weight
    return counts


def _segment_without_self(piece: str, table: dict[str, float | None],
                          unk_lp: float) -> float:
    """Best log-prob of segmenting `piece` without using the piece itself."""
    edges = _sentence_edges(piece, table, unk_lp)
    edges[0] = [e for e in edges[0] if e[0] != len(piece)]  # the full span is `piece`
    return _best_path(piece, edges)[0]


def prune_vocab(corpus: list[str], vocab: UnigramVocab, target_size: int,
                shrink_factor: float = 0.75) -> UnigramVocab:
    """Shrink the vocabulary to exactly target_size total ids.

    Each round runs two EM steps, ranks removable multi-character pieces by
    the Viterbi-approximated likelihood loss of removing them, and keeps the
    top shrink_factor fraction (never dropping below the target).
    Single characters and reserved ids are always retained.
    """
    if not 0.0 < shrink_factor < 1.0:
        raise ValueError("shrink_factor must be in (0, 1)")
    sentences = _weighted_internal(corpus)
    scored = vocab.scored_body()
    singles = {p for p in scored if len(p) == 1}
    min_size = N_RESERVED + len(singles)
    if target_size < min_size:
        raise ValueError(
            f"target_size {target_size} below minimum {min_size} "
            "(reserved ids plus single characters)")
    while N_RESERVED + len(scored) > target_size:
        for _ in range(2):
            scored, _ = _em_on_prepared(sentences, scored, _unk_log_prob(scored.values()))
        unk_lp = _unk_log_prob(scored.values())
        table = _piece_table(scored)  # one per round, shared by every piece below
        usage = _viterbi_piece_counts(sentences, table, unk_lp)
        multis = [p for p in scored if len(p) > 1]
        losses = [(usage[p] * (scored[p] - _segment_without_self(p, table, unk_lp))
                   if usage[p] else 0.0, p) for p in multis]
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
    return UnigramVocab.from_scored(scored)


def train_vocab(corpus: list[str], vocab_size: int = 32000, *,
                seed_size: int | None = None,
                shrink_factor: float = 0.75) -> UnigramVocab:
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
    vocab = build_seed_vocab(corpus, seed_size)
    for _ in range(2):
        vocab, _ = em_step(corpus, vocab)
    if len(vocab) > vocab_size:
        vocab = prune_vocab(corpus, vocab, vocab_size, shrink_factor)
    for _ in range(2):
        vocab, _ = em_step(corpus, vocab)
    return UnigramVocab.from_scored(vocab.scored_body())
