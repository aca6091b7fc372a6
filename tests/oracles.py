"""Independent brute-force oracles used to freeze expected test values.

Everything here is deliberately written from first principles (recursive
enumeration, straight-line recurrences, direct formulas) and never calls the
implementation paths it checks.
"""

from __future__ import annotations

import math

import numpy as np

NEG_INF = float("-inf")


# --- segmentation ----------------------------------------------------------

def all_segmentations(s: str, pieces: set[str]) -> list[tuple[str, ...]]:
    """Every way to split s into pieces from the set (exponential)."""
    if s == "":
        return [()]
    out = []
    for k in range(1, len(s) + 1):
        head = s[:k]
        if head in pieces:
            for rest in all_segmentations(s[k:], pieces):
                out.append((head,) + rest)
    return out


def best_segmentation(s: str, scored: dict[str, float]) -> tuple[str, ...] | None:
    """Exhaustive argmax by (log-prob, fewer pieces, lexicographic pieces)."""
    segs = all_segmentations(s, set(scored))
    if not segs:
        return None
    def key(seg):
        return (-sum(scored[p] for p in seg), len(seg), seg)
    return min(segs, key=key)


def reference_edges(sent: str, scored: dict[str, float], unk_lp: float,
                    max_len: int) -> list[list[tuple[int, str | None, float]]]:
    """Lattice edges by the bounded probe: every substring of at most max_len
    characters at every position, looked up in the piece dict; edges per start
    position in ascending end, the unknown edge last where no single character
    is a piece."""
    n = len(sent)
    edges = [[] for _ in range(n)]
    for i in range(n):
        found_single = False
        for j in range(i + 1, min(n, i + max_len) + 1):
            lp = scored.get(sent[i:j])
            if lp is not None:
                edges[i].append((j, sent[i:j], lp))
                found_single = found_single or j == i + 1
        if not found_single:
            edges[i].append((i + 1, None, unk_lp))
    return edges


def enumerate_expected_counts(s: str, scored: dict[str, float]):
    """Exact posterior piece counts and likelihood by enumerating every
    segmentation of one sentence."""
    segs = all_segmentations(s, set(scored))
    weights = [math.exp(sum(scored[p] for p in seg)) for seg in segs]
    z = sum(weights)
    counts: dict[str, float] = {}
    for seg, w in zip(segs, weights):
        for p in seg:
            counts[p] = counts.get(p, 0.0) + w / z
    return counts, z


def reference_seed_scores(corpus: list[str], seed_size: int) -> dict[str, float]:
    """Seed log-probs by counting, in every sentence, each character and each
    substring of 2 to 8 characters that holds the boundary marker at most at
    its start; the top substrings by count times length fill the budget."""
    from minit5.unigram import BOUNDARY, MAX_SEED_PIECE_LEN, RESERVED_PIECES
    chars: dict[str, int] = {}
    subs: dict[str, int] = {}
    for line in corpus:
        sent = line.replace(" ", BOUNDARY)
        for i in range(len(sent)):
            chars[sent[i]] = chars.get(sent[i], 0) + 1
            for j in range(i + 2, min(len(sent), i + MAX_SEED_PIECE_LEN) + 1):
                sub = sent[i:j]
                if BOUNDARY not in sub[1:] and sub not in RESERVED_PIECES \
                        and "\t" not in sub and "\n" not in sub:
                    subs[sub] = subs.get(sub, 0) + 1
    ranked = sorted(subs.items(), key=lambda kv: (-kv[1] * len(kv[0]), kv[0]))
    freqs = {**chars, **dict(ranked[:seed_size - len(chars)])}
    total = sum(freqs.values())
    return {p: math.log(f / total) for p, f in freqs.items()}


def reference_words(corpus: list[str], cut: bool = True) -> dict[str, int]:
    """Each distinct word of the corpus lines, by first occurrence, weighted by
    its occurrences: a run of other characters after a boundary marker, with
    the marker, or one at a line's start; where cut is false, each whole
    internal-form line instead."""
    import re
    from minit5.unigram import BOUNDARY
    words: dict[str, int] = {}
    for line in corpus:
        sent = line.replace(" ", BOUNDARY)
        if cut:
            split = re.findall(f"{BOUNDARY}[^{BOUNDARY}]*|[^{BOUNDARY}]+", sent)
        else:
            split = [sent] if sent else []
        for word in split:
            words[word] = words.get(word, 0) + 1
    return words


# --- sentence-level Viterbi reference --------------------------------------
# The scalar walks unigram once ran, which its per-word encode, usage counts
# and prefix-memo alternatives are compared against. Each looks the
# edge builder up in unigram when it runs, so a test may substitute it.

def sentence_encode(vocab, text: str) -> list[int]:
    """Viterbi-encode text to piece ids; unknown characters map to UNK_ID."""
    from minit5.unigram import UNK_ID, _best_path, _sentence_edges, _to_internal
    internal = _to_internal(text)
    edges = _sentence_edges(internal, vocab._table, vocab._unk_lp)
    return [UNK_ID if piece is None else vocab._ids[piece]
            for _, _, piece in _best_path(internal, edges)[1]]


def sentence_piece_counts(sentences: dict[str, int], table, unk_lp: float):
    """Weighted counts of the pieces on each sentence's best path, which are
    the pieces encode emits."""
    from collections import Counter
    from minit5.unigram import _best_path, _sentence_edges
    counts = Counter()
    for sent, weight in sentences.items():
        edges = _sentence_edges(sent, table, unk_lp)
        for _, _, piece in _best_path(sent, edges)[1]:
            if piece is not None:
                counts[piece] += weight
    return counts


def _viterbi_piece_counts(sentences: dict[str, int], table, unk_lp: float, cut: bool):
    """Weighted counts of the pieces on each word's best path, which are the
    pieces encode emits; each distinct word is segmented once by the scalar
    _viterbi walk."""
    from collections import Counter
    from minit5.unigram import _viterbi, _weighted_words
    counts = Counter()
    for word, weight in _weighted_words(sentences, cut).items():
        for piece in _viterbi(word, table, unk_lp):
            if piece is not None:
                counts[piece] += weight
    return counts


def segment_without_self(piece: str, table, unk_lp: float) -> float:
    """Best log-prob of segmenting `piece` without using the piece itself."""
    from minit5.unigram import _best_path, _sentence_edges
    edges = _sentence_edges(piece, table, unk_lp)
    edges[0] = [e for e in edges[0] if e[0] != len(piece)]  # the full span is `piece`
    return _best_path(piece, edges)[0]


# --- scalar EM reference ---------------------------------------------------
# Sentence-by-sentence EM, the reference that unigram._Lattice.em must match
# bit for bit. It walks the same edge builder and sums with _logadd in each
# lattice row's order.

def reference_forward_backward(sent: str, table, unk_lp: float):
    """Returns (edges, alpha, beta, logZ) for one sentence."""
    from minit5.unigram import _logadd, _sentence_edges
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


def reference_em(sentences: dict[str, int], scored: dict[str, float],
                 unk_lp: float) -> tuple[dict[str, float], float]:
    """One EM pass over pre-weighted texts (the trainer's distinct words, see
    reference_words); returns (new scores, pre-update LL)."""
    from minit5.unigram import _COUNT_FLOOR, _piece_table
    table = _piece_table(scored)
    counts: dict[str, float] = {}
    loglik = 0.0
    for sent, weight in sentences.items():
        edges, alpha, beta, logz = reference_forward_backward(sent, table, unk_lp)
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


def reference_prune(sentences: dict[str, int], scored: dict[str, float],
                    target_size: int, shrink_factor: float = 0.75) -> dict[str, float]:
    """Pruning rounds over reference_em on pre-weighted texts (the trainer's
    distinct words); the surviving scores, unranked."""
    from minit5.unigram import N_RESERVED, _logadd, _piece_table, _unk_log_prob
    singles = {p for p in scored if len(p) == 1}
    while N_RESERVED + len(scored) > target_size:
        for _ in range(2):
            scored, _ = reference_em(sentences, scored, _unk_log_prob(scored.values()))
        unk_lp = _unk_log_prob(scored.values())
        table = _piece_table(scored)
        usage = sentence_piece_counts(sentences, table, unk_lp)
        multis = [p for p in scored if len(p) > 1]
        losses = [(usage[p] * (scored[p] - segment_without_self(p, table, unk_lp))
                   if usage[p] else 0.0, p) for p in multis]
        losses.sort(key=lambda kv: (-kv[0], kv[1]))
        keep_n = max(target_size - N_RESERVED - len(singles),
                     int(len(multis) * shrink_factor))
        keep = {p for _, p in losses[:keep_n]}
        scored = {p: lp for p, lp in scored.items() if len(p) == 1 or p in keep}
        log_total = NEG_INF
        for lp in scored.values():
            log_total = _logadd(log_total, lp)
        scored = {p: lp - log_total for p, lp in scored.items()}
    return scored


def reference_train_vocab(corpus: list[str], vocab_size: int):
    """Seed, two EM passes, pruning, two more passes over the corpus's
    distinct words, each through a fresh vocabulary as the trainer once did;
    returns the final UnigramVocab."""
    from minit5.unigram import N_RESERVED, UnigramVocab, build_seed_vocab
    words = reference_words(corpus)
    n_chars = len({ch for w in words for ch in w})
    vocab = build_seed_vocab(corpus, max(n_chars, 4 * vocab_size))

    def em_twice(vocab):
        for _ in range(2):
            scored, _ = reference_em(words, vocab.scored_body(), vocab.unk_log_prob)
            vocab = UnigramVocab(vocab.pieces[:N_RESERVED] + list(scored.items()))
        return vocab

    vocab = em_twice(vocab)
    if len(vocab) > vocab_size:
        vocab = UnigramVocab.from_scored(
            reference_prune(words, vocab.scored_body(), vocab_size))
    return UnigramVocab.from_scored(em_twice(vocab).scored_body())


# --- finite differences ----------------------------------------------------

def central_diff_grads(loss_fn, tensors: dict[str, np.ndarray],
                       h: float = 1e-3) -> dict[str, np.ndarray]:
    """Full central-difference gradients of loss_fn() w.r.t. every entry of
    every tensor (mutates and restores in place)."""
    grads = {}
    for name, tensor in tensors.items():
        g = np.zeros_like(tensor)
        flat = tensor.ravel()
        gflat = g.ravel()
        for i in range(flat.size):
            old = flat[i]
            flat[i] = old + h
            fp = loss_fn()
            flat[i] = old - h
            fm = loss_fn()
            flat[i] = old
            gflat[i] = (fp - fm) / (2.0 * h)
        grads[name] = g
    return grads


def max_rel_error(analytic: np.ndarray, numeric: np.ndarray,
                  floor: float = 1e-6) -> float:
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), floor)
    return float(np.max(np.abs(analytic - numeric) / denom))


# --- model numerics --------------------------------------------------------

GELU_C = math.sqrt(2.0 / math.pi)
GELU_A = 0.044715


def gelu_pow(x: np.ndarray) -> np.ndarray:
    """Tanh-form GELU with the cube taken by x ** 3 (libm pow)."""
    return 0.5 * x * (1.0 + np.tanh(GELU_C * (x + GELU_A * x ** 3)))


def dgelu_pow(x: np.ndarray) -> np.ndarray:
    t = np.tanh(GELU_C * (x + GELU_A * x ** 3))
    return 0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * GELU_C * (1.0 + 3.0 * GELU_A * x * x)


def attention_out_of_place(h_q, h_kv, wq, wk, wv, wo, n_heads, add_bias, dout):
    """Multi-head attention forward and backward in out-of-place expressions
    only (no buffer is written twice). Returns (out, dh_q, dh_kv, dwq, dwk,
    dwv, dwo, ds), ds being the gradient w.r.t. the additive score bias."""
    nq, d = h_q.shape
    nk = h_kv.shape[0]
    dk = d // n_heads
    scale = 1.0 / math.sqrt(dk)

    def heads(m, n):
        return m.reshape(n, n_heads, dk).transpose(1, 0, 2)

    def merge(m):
        return m.transpose(1, 0, 2).reshape(-1, d)

    q, k, v = heads(h_q @ wq, nq), heads(h_kv @ wk, nk), heads(h_kv @ wv, nk)
    s = q @ k.transpose(0, 2, 1) * scale + add_bias
    e = np.exp(s - np.max(s, axis=-1, keepdims=True))
    p = e / np.sum(e, axis=-1, keepdims=True)
    o = merge(p @ v)
    do = heads(dout @ wo.T, nq)
    dp = do @ v.transpose(0, 2, 1)
    dv = merge(p.transpose(0, 2, 1) @ do)
    ds = p * (dp - np.sum(dp * p, axis=-1, keepdims=True))
    dq = merge(ds @ k * scale)
    dkk = merge(ds.transpose(0, 2, 1) @ q * scale)
    return (o @ wo, dq @ wq.T, dkk @ wk.T + dv @ wv.T, h_q.T @ dq,
            h_kv.T @ dkk, h_kv.T @ dv, o.T @ dout, ds)


def relative_bias_grad_per_head(table, buckets, d_scores):
    """A relative-bias table gradient plus each [H, n, n] score gradient in
    d_scores, in order, scattered one head at a time into that head's row."""
    table = table.copy()
    for ds in d_scores:
        for h in range(table.shape[0]):
            np.add.at(table[h], buckets.ravel(), ds[h].ravel())
    return table


# --- decoding --------------------------------------------------------------

def exhaustive_decode(step_fn, vocab_size: int, max_out: int, eos_id: int):
    """Best complete sequence by length-normalized log-probability over the
    full tree (complete = ends in eos or reaches max_out)."""
    best = None

    def consider(seq, cum):
        nonlocal best
        key = (-(cum / len(seq)), len(seq), seq)
        if best is None or key < best[0]:
            best = (key, seq)

    def rec(prefix, cum):
        if len(prefix) == max_out:
            consider(prefix, cum)
            return
        lp = step_fn(prefix)
        for tok in range(vocab_size):
            if lp[tok] == NEG_INF:
                continue
            seq = prefix + (tok,)
            if tok == eos_id:
                consider(seq, cum + lp[tok])
            else:
                rec(seq, cum + lp[tok])

    rec((), 0.0)
    return list(best[1]) if best else []


def full_sort_beam(step_fn, width: int, max_out: int, eos_id: int):
    """Beam search by brute force: expand every finite token of every live
    hypothesis, sort all candidates by (-cumulative log-prob, ids), keep
    `width`; eos retires a hypothesis. The answer is the best finished or
    max-length hypothesis by (-cum/len, len, ids)."""
    live = [((), 0.0)]
    finished = []
    for _ in range(max_out):
        candidates = []
        for ids, cum in live:
            lp = step_fn(ids)
            for tok in range(len(lp)):
                if lp[tok] != NEG_INF:
                    candidates.append((ids + (tok,), cum + float(lp[tok])))
        if not candidates:
            break
        candidates.sort(key=lambda c: (-c[1], c[0]))
        live = []
        for ids, cum in candidates[:width]:
            (finished if ids[-1] == eos_id else live).append((ids, cum))
        if not live:
            break
    best = min(finished + live, key=lambda h: (-(h[1] / len(h[0])), len(h[0]), h[0]))
    return list(best[0])


def argmax_decode(step_fn, max_out: int, eos_id: int):
    """Greedy decoding: the lowest id among the most probable, until eos."""
    out = []
    for _ in range(max_out):
        lp = list(step_fn(tuple(out)))
        tok = lp.index(max(lp))
        out.append(tok)
        if tok == eos_id:
            break
    return out


def model_step_fn(params, enc_ids, masked: bool = True):
    """Uncached per-prefix step over a model: re-runs the encoder and the
    whole decoder prefix through the teacher-forcing `forward` on every call,
    the reference the incremental decoder is tested against. Masked, like
    the decoder's step, it never emits <pad> or <M>: their log-probs are
    -inf; unmasked, it is the model's own log-softmax."""
    from minit5.model import forward, log_softmax
    from minit5.unigram import EOS_ID, MASK_ID, PAD_ID

    def step(prefix: tuple[int, ...]) -> np.ndarray:
        dec_in = np.asarray((EOS_ID,) + prefix, dtype=np.int64)
        lp = log_softmax(forward(params, enc_ids, dec_in)[-1])
        if masked:
            lp[[PAD_ID, MASK_ID]] = NEG_INF
        return lp

    return step


def sequence_score(step_fn, ids) -> float:
    cum = 0.0
    for t, tok in enumerate(ids):
        cum += float(step_fn(tuple(ids[:t]))[tok])
    return cum / len(ids)


# --- NER -------------------------------------------------------------------

def reference_align_tagged(text: str, input_words: list[str],
                           label_to_class: dict[str, str]) -> list[str]:
    """Brute-force reference for parse_tagged_output followed by to_bio:
    scan tokens, group words under the next bracketed label, then assign
    positions one by one."""
    tokens = text.split()
    pairs: list[tuple[str, bool]] = []  # (class, starts_entity)
    bucket: list[str] = []
    for tok in tokens:
        if tok.startswith("[") and tok.endswith("]"):
            cls = label_to_class.get(tok[1:-1].lower(), "Other")
            for k in range(len(bucket)):
                pairs.append((cls, k == 0))
            bucket = []
        else:
            bucket.append(tok)
    for _ in bucket:  # dangling words get Other
        pairs.append(("Other", False))
    tags = []
    for i in range(len(input_words)):
        if i >= len(pairs) or pairs[i][0] == "Other":
            tags.append("O")
        else:
            cls, starts = pairs[i]
            abbr = {"Person": "PER", "Organization": "ORG", "Location": "LOC",
                    "Value": "VAL", "Date": "DAT"}[cls]
            tags.append(("B-" if starts else "I-") + abbr)
    return tags


def reference_spans(tags: list[str]) -> set[tuple[int, int, str]]:
    """Brute-force run extraction over a valid BIO sequence."""
    names = {"PER": "Person", "ORG": "Organization", "LOC": "Location",
             "VAL": "Value", "DAT": "Date"}
    spans = set()
    i = 0
    while i < len(tags):
        if tags[i].startswith("B-"):
            cls = tags[i][2:]
            j = i
            while j + 1 < len(tags) and tags[j + 1] == "I-" + cls:
                j += 1
            spans.add((i, j, names[cls]))
            i = j + 1
        else:
            i += 1
    return spans


_CLASS_OF_TAG = {"PER": "Person", "ORG": "Organization", "LOC": "Location",
                 "VAL": "Value", "DAT": "Date"}


def reference_validate_bio(tags: list[str]) -> None:
    """Tag syntax and continuation checked in one left-to-right walk."""
    prev = "O"
    for i, tag in enumerate(tags):
        if tag == "O":
            prev = tag
            continue
        if len(tag) < 3 or tag[1] != "-" or tag[0] not in "BI" or tag[2:] not in _CLASS_OF_TAG:
            raise ValueError(f"invalid BIO tag {tag!r} at position {i}")
        if tag[0] == "I" and not (prev != "O" and prev[2:] == tag[2:]):
            raise ValueError(f"I-{tag[2:]} at position {i} does not continue an entity")
        prev = tag


def reference_build_ner_target(words: list[str], tags: list[str], table) -> str:
    """Tagged output string by a word-by-word walk: a B- tag, a class change
    or an O/entity switch closes the current run, which is emitted with its
    bracketed label (Other for O runs)."""
    if len(words) != len(tags):
        raise ValueError("words and tags length mismatch")
    reference_validate_bio(tags)
    parts: list[str] = []
    run: list[str] = []
    run_class = None

    def close():
        if run:
            label = table.label_of(run_class if run_class is not None else "Other")
            parts.append(" ".join(run) + f" [{label}]")
            run.clear()

    prev_class = None
    for word, tag in zip(words, tags):
        cls = None if tag == "O" else _CLASS_OF_TAG[tag[2:]]
        starts_new = tag.startswith("B-") or (cls is None) != (prev_class is None) \
            or (cls is not None and cls != prev_class)
        if starts_new and run:
            close()
        run.append(word)
        run_class = cls
        prev_class = cls
    close()
    return " ".join(parts)


def reference_sliding_windows(ids, size: int, stride: int) -> list[tuple[int, tuple]]:
    """(offset, ids) windows by stepping: offsets 0, stride, ... while the
    next window still ends inside the sequence, then one final window
    clamped to the sequence end."""
    if not size > stride > 0:
        raise ValueError(f"need window size {size} > stride {stride} > 0")
    ids = tuple(ids)
    n = len(ids)
    if n <= size:
        return [(0, ids)]
    offsets: list[int] = []
    offset = 0
    while offset + size < n:
        offsets.append(offset)
        offset += stride
    offsets.append(n - size)
    return [(o, ids[o:o + size]) for o in offsets]


def reference_window_tags(tags, size: int, stride: int) -> list[tuple[int, tuple]]:
    """(offset, tags) per window, a leading I-X reopened as B-X."""
    out = []
    for offset, window in reference_sliding_windows(tags, size, stride):
        window = list(window)
        if window and window[0].startswith("I-"):
            window[0] = "B-" + window[0][2:]
        out.append((offset, tuple(window)))
    return out


# --- metrics ---------------------------------------------------------------

def reference_pearson(x, y) -> float:
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    xc = x - x.mean()
    yc = y - y.mean()
    return float((xc * yc).sum() / math.sqrt((xc * xc).sum() * (yc * yc).sum()))


def reference_prf(gold: set, pred: set):
    correct = len(gold & pred)
    p = correct / len(pred) if pred else 0.0
    r = correct / len(gold) if gold else 0.0
    f = 2 * p * r / (p + r) if p + r else 0.0
    return p, r, f


def reference_macro_f1(pred, gold, classes) -> float:
    total = 0.0
    for cls in classes:
        tp = sum(1 for p, g in zip(pred, gold) if p == cls and g == cls)
        fp = sum(1 for p, g in zip(pred, gold) if p == cls and g != cls)
        fn = sum(1 for p, g in zip(pred, gold) if p != cls and g == cls)
        prec = tp / (tp + fp) if tp + fp else 0.0
        rec = tp / (tp + fn) if tp + fn else 0.0
        total += 2 * prec * rec / (prec + rec) if prec + rec else 0.0
    return total / len(classes)


# --- text outputs ----------------------------------------------------------
# The report and log writers as they were before one value rule served them
# all, each spelling out '-' for None and six decimals for a float itself.

def reference_write_train_log(path, log) -> None:
    def fmt(v):
        return "-" if v is None else f"{v:.6f}"

    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("epoch\ttrain_loss\tval_loss\tval_objective\twall_seconds\n")
        for r in log.records:
            fh.write(f"{r.epoch}\t{fmt(r.train_loss)}\t{fmt(r.val_loss)}"
                     f"\t{fmt(r.val_objective)}\t{fmt(r.wall_seconds)}\n")
        fh.write(f"# best_epoch={log.best_epoch if log.best_epoch is not None else '-'}\n")


def reference_write_curve(path, log) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("epoch\ttrain\tval\n")
        for r in log.records:
            val = "-" if r.val_loss is None else f"{r.val_loss:.6f}"
            fh.write(f"{r.epoch}\t{r.train_loss:.6f}\t{val}\n")


def reference_format_pair_task_report(pearson_v, mse_v, accuracy_v, f1_v) -> str:
    def fmt(v):
        return "-" if v is None else f"{v:.6f}"

    lines = []
    for key, v in (("pearson", pearson_v), ("mse", mse_v),
                   ("accuracy", accuracy_v), ("f1", f1_v)):
        if v is not None:
            lines.append(f"{key}={fmt(v)}")
    row = "\t".join(fmt(v) for v in (pearson_v, mse_v, accuracy_v, f1_v))
    return "\n".join(lines) + "\n" + row + "\n"


def reference_format_ner_report(report, classes) -> str:
    lines = [
        f"micro_precision={report.micro.precision:.6f}",
        f"micro_recall={report.micro.recall:.6f}",
        f"micro_f1={report.micro.f1:.6f}",
        f"n_gold={report.micro.n_gold}",
        f"n_pred={report.micro.n_pred}",
        f"n_correct={report.micro.n_correct}",
        "class\tprecision\trecall\tf1",
    ]
    for cls in classes:
        s = report.per_class[cls]
        lines.append(f"{cls}\t{s.precision:.6f}\t{s.recall:.6f}\t{s.f1:.6f}")
    return "\n".join(lines) + "\n"


def reference_format_stats_report(stats) -> str:
    lines = [
        f"n_documents={stats.n_documents}",
        f"n_words={stats.n_words}",
        f"mean_words={stats.mean_words:.6f}",
        f"std_words={stats.std_words:.6f}",
    ]
    return "\n".join(lines) + "\n"


def reference_with_counts(report: str, **counts: int) -> str:
    """A report with key=N lines added after its leading key=value lines,
    ahead of its table."""
    lines = report.splitlines()
    at = next(i for i, line in enumerate(lines) if "=" not in line)
    lines[at:at] = [f"{key}={n}" for key, n in counts.items()]
    return "\n".join(lines) + "\n"


def reference_evaluate_stdout(report: dict) -> str:
    """What evaluate printed for its report: its float and int values."""
    out = []
    for key, value in report.items():
        if isinstance(value, float):
            out.append(f"{key}={value:.6f}\n")
        elif isinstance(value, int):
            out.append(f"{key}={value}\n")
    return "".join(out)


# --- optimizers --------------------------------------------------------------
# The whole-tensor AdamW and RAdam steps as they were before the updates went
# in place, one block at a time: every operation allocates its result, and the
# m and v slots are replaced each step.

def _reference_trainable_grads(params, grads, mask):
    for name in sorted(params):
        if name in grads and (mask is None or mask.get(name, False)):
            if not np.all(np.isfinite(grads[name])):
                raise RuntimeError(f"diverged: non-finite gradient for {name}")
            yield name, params[name], grads[name]


def _reference_adam_moments(slot, g, betas):
    b1, b2 = betas
    slot["m"] = b1 * slot.get("m", 0.0) + (1.0 - b1) * g
    slot["v"] = b2 * slot.get("v", 0.0) + (1.0 - b2) * g * g
    return slot["m"], slot["v"]


def reference_adamw_step(params, grads, state, lr, *, betas=(0.9, 0.999),
                         eps=1e-8, weight_decay=0.01, mask=None):
    state.step += 1
    t = state.step
    b1, b2 = betas
    c1 = 1.0 - b1 ** t
    c2 = 1.0 - b2 ** t
    for name, p, g in _reference_trainable_grads(params, grads, mask):
        p -= lr * weight_decay * p
        m, v = _reference_adam_moments(state.slots.setdefault(name, {}), g, betas)
        p -= lr * (m / c1) / (np.sqrt(v / c2) + eps)
    return params, state


def reference_radam_step(params, grads, state, lr, *, betas=(0.9, 0.999),
                         eps=1e-8, mask=None):
    state.step += 1
    t = state.step
    b1, b2 = betas
    c1 = 1.0 - b1 ** t
    c2 = 1.0 - b2 ** t
    rho_inf = 2.0 / (1.0 - b2) - 1.0
    rho_t = rho_inf - 2.0 * t * b2 ** t / c2
    if rho_t > 4.0:
        rect = math.sqrt(((rho_t - 4.0) * (rho_t - 2.0) * rho_inf)
                         / ((rho_inf - 4.0) * (rho_inf - 2.0) * rho_t))
    else:
        rect = None
    for name, p, g in _reference_trainable_grads(params, grads, mask):
        m, v = _reference_adam_moments(state.slots.setdefault(name, {}), g, betas)
        m_hat = m / c1
        if rect is None:
            p -= lr * m_hat
        else:
            p -= lr * rect * m_hat / (np.sqrt(v / c2) + eps)
    return params, state
