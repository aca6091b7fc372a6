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
