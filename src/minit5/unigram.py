"""Unigram language-model subword vocabulary.

Training is EM over segmentation lattices followed by likelihood-ranked
pruning; application is Viterbi segmentation. Whitespace is made reversible
by mapping spaces to a boundary marker character before segmentation, so
decode(encode(s)) == s for any text whose characters are covered.
"""

from __future__ import annotations

import math
from collections import Counter
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


def _unk_log_prob(scored: dict[str, float]) -> float:
    """Unknown-character fallback score: _UNK_PENALTY below the worst piece."""
    return min(scored.values(), default=0.0) - _UNK_PENALTY


class UnigramVocab:
    """Piece table with log-probabilities; ids 0-3 are reserved controls."""

    def __init__(self, pieces: list[tuple[str, float]]):
        if len(pieces) < N_RESERVED or tuple(p for p, _ in pieces[:N_RESERVED]) != RESERVED_PIECES:
            raise ValueError("vocabulary must start with the reserved pieces")
        self.pieces = list(pieces)
        self._ids = {p: i for i, (p, _) in enumerate(self.pieces)}
        if len(self._ids) != len(self.pieces):
            raise ValueError("piece strings must be unique")
        for piece, lp in self.pieces:
            if not math.isfinite(lp):
                raise ValueError(f"piece {piece!r} has non-finite log-prob {lp}")
        self._scored = {p: lp for p, lp in self.pieces[N_RESERVED:]}
        self._max_piece_len = max((len(p) for p in self._scored), default=1)
        self._unk_lp = _unk_log_prob(self._scored)

    @classmethod
    def from_scored(cls, scored: dict[str, float]) -> "UnigramVocab":
        """Build from non-reserved piece log-probs, ranked by probability."""
        ranked = sorted(scored.items(), key=lambda kv: (-kv[1], kv[0]))
        rows = [(p, 0.0) for p in RESERVED_PIECES] + ranked
        return cls(rows)

    def __len__(self) -> int:
        return len(self.pieces)

    @property
    def size(self) -> int:
        return len(self.pieces)

    def id_of(self, piece: str) -> int | None:
        return self._ids.get(piece)

    def piece(self, idx: int) -> str:
        return self.pieces[idx][0]

    def log_prob(self, idx: int) -> float:
        return self.pieces[idx][1]

    def scored_body(self) -> dict[str, float]:
        return dict(self._scored)

    @property
    def unk_log_prob(self) -> float:
        return self._unk_lp

    def covers(self, text: str) -> bool:
        internal = _to_internal(text)
        return all(ch in self._ids for ch in internal)

    def save(self, path: str) -> None:
        with atomic_write(path) as fh:
            for piece, lp in self.pieces:
                fh.write(f"{piece}\t{lp:.17g}\n")

    @classmethod
    def load(cls, path: str) -> "UnigramVocab":
        rows: list[tuple[str, float]] = []
        with open(path, "r", encoding="utf-8", newline="\n") as fh:
            for lineno, line in enumerate(fh):
                line = line.rstrip("\n")
                if not line:
                    continue
                try:
                    piece, lp = line.split("\t")
                    rows.append((piece, float(lp)))
                except ValueError as exc:
                    raise ValueError(f"{path}:{lineno}: bad vocabulary line") from exc
                if not math.isfinite(rows[-1][1]):
                    raise ValueError(f"{path}:{lineno}: log-prob {lp} is not finite")
        return cls(rows)


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


def _sentence_edges(sent: str, scored: dict[str, float], unk_lp: float,
                    max_len: int) -> list[list[tuple[int, str, float]]]:
    """Lattice edges per start position: (end, piece-or-None-for-unk, log_prob)."""
    n = len(sent)
    edges: list[list[tuple[int, str, float]]] = [[] for _ in range(n)]
    for i in range(n):
        found_single = False
        for j in range(i + 1, min(n, i + max_len) + 1):
            piece = sent[i:j]
            lp = scored.get(piece)
            if lp is not None:
                edges[i].append((j, piece, lp))
                if j == i + 1:
                    found_single = True
        if not found_single:
            edges[i].append((i + 1, None, unk_lp))  # unknown-character fallback
    return edges


def _forward_backward(sent: str, scored: dict[str, float], unk_lp: float,
                      max_len: int):
    """Returns (edges, alpha, beta, logZ) for one sentence."""
    edges = _sentence_edges(sent, scored, unk_lp, max_len)
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
                    unk_lp: float, max_len: int) -> tuple[dict[str, float], float]:
    """One EM pass over pre-weighted sentences; returns (new scores, pre-update LL)."""
    counts: dict[str, float] = {}
    loglik = 0.0
    for sent, weight in sentences.items():
        edges, alpha, beta, logz = _forward_backward(sent, scored, unk_lp, max_len)
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
    sentences = _weighted_internal(corpus)
    scored = vocab.scored_body()
    new_scored, loglik = _em_on_prepared(
        sentences, scored, vocab.unk_log_prob, vocab._max_piece_len)
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
    edges = _sentence_edges(internal, vocab._scored, vocab._unk_lp, vocab._max_piece_len)
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


def _viterbi_piece_counts(sentences: dict[str, int], scored: dict[str, float],
                          unk_lp: float, max_len: int) -> Counter:
    """Weighted counts of the pieces on each sentence's best path, which are
    the pieces encode emits."""
    counts: Counter[str] = Counter()
    for sent, weight in sentences.items():
        edges = _sentence_edges(sent, scored, unk_lp, max_len)
        for _, _, piece in _best_path(sent, edges)[1]:
            if piece is not None:
                counts[piece] += weight
    return counts


def _segment_without_self(piece: str, scored: dict[str, float], unk_lp: float,
                          max_len: int) -> float:
    """Best log-prob of segmenting `piece` without using the piece itself."""
    edges = _sentence_edges(piece, scored, unk_lp, max_len)
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
    max_len = vocab._max_piece_len
    while N_RESERVED + len(scored) > target_size:
        for _ in range(2):
            scored, _ = _em_on_prepared(sentences, scored, _unk_log_prob(scored), max_len)
        unk_lp = _unk_log_prob(scored)
        usage = _viterbi_piece_counts(sentences, scored, unk_lp, max_len)
        multis = [p for p in scored if len(p) > 1]
        losses: list[tuple[float, str]] = []
        for p in multis:
            used = usage.get(p, 0)
            if used == 0:
                losses.append((0.0, p))
                continue
            alt = _segment_without_self(p, scored, unk_lp, max_len)
            losses.append((used * (scored[p] - alt), p))
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
