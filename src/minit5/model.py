"""Small encoder-decoder transformer in float64 numpy with exact analytic
gradients.

Pre-norm blocks with RMS normalization (gain only, no bias), GELU feed-forward
without biases, multi-head attention, and either learned absolute position
embeddings (default) or T5-style relative position buckets behind a config
flag. Everything runs per example in float64, which keeps finite-difference
gradient checks tight at desk scale.
"""

from __future__ import annotations

import functools
import math
import os
import typing
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, asdict

import numpy as np

from .unigram import N_RESERVED, PAD_ID

LEARNED_ABSOLUTE = "learned-absolute"
RELATIVE_BUCKET = "relative-bucket"

REL_BUCKETS = 32
REL_MAX_DISTANCE = 128
NORM_EPS = 1e-6
# A microbatch with at least this many decoder positions in total runs on
# two threads (accumulate_loss_and_grad): the smallest total at which two
# threads won every repeat, at batch 4 and 8, in two sweeps over 32 to 2048
# positions at V=8k, d=64 (BENCH_11.json).
HELPER_MIN_POSITIONS = 1024

_GELU_C = math.sqrt(2.0 / math.pi)
_GELU_A = 0.044715


@dataclass
class ModelConfig:
    vocab_size: int
    d_model: int = 64
    n_heads: int = 4
    d_ff: int = 128
    n_enc_layers: int = 2
    n_dec_layers: int = 2
    max_len: int = 512
    position_scheme: str = LEARNED_ABSOLUTE
    tie_embeddings: bool = True

    def __post_init__(self):
        if self.vocab_size <= N_RESERVED:
            raise ValueError("vocab_size must cover the reserved ids")
        if min(self.d_model, self.n_heads, self.d_ff, self.max_len) < 1:
            raise ValueError("d_model, n_heads, d_ff and max_len must be >= 1")
        if min(self.n_enc_layers, self.n_dec_layers) < 0:
            raise ValueError("n_enc_layers and n_dec_layers must be >= 0")
        if self.d_model % self.n_heads != 0:
            raise ValueError("d_model must be divisible by n_heads")
        if self.position_scheme not in (LEARNED_ABSOLUTE, RELATIVE_BUCKET):
            raise ValueError(f"unknown position_scheme {self.position_scheme!r}")

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d) -> "ModelConfig":
        """Inverse of to_dict: d must hold exactly the fields, each of its type."""
        types = typing.get_type_hints(cls)
        if type(d) is not dict or d.keys() != types.keys():
            raise ValueError(f"model config must hold exactly the keys {', '.join(types)}")
        for key, value in d.items():
            if type(value) is not types[key]:
                raise ValueError(f"model config {key} must be {types[key].__name__}")
        return cls(**d)


@dataclass
class ModelParams:
    cfg: ModelConfig
    tensors: dict[str, np.ndarray] = field(default_factory=dict)

    def copy(self) -> "ModelParams":
        return ModelParams(self.cfg, {k: v.copy() for k, v in self.tensors.items()})


TrainableMask = dict[str, bool]


def embedding_only_mask(params: ModelParams) -> TrainableMask:
    """Only the token embedding (and its tied output projection) trains."""
    return {name: name == "tok_emb" for name in params.tensors}


def tensor_shapes(cfg: ModelConfig) -> dict[str, tuple[int, ...]]:
    """Every parameter's name and shape, in init_model's order."""
    d, v = cfg.d_model, cfg.vocab_size
    shapes: dict[str, tuple[int, ...]] = {"tok_emb": (v, d)}
    if cfg.position_scheme == LEARNED_ABSOLUTE:
        shapes["pos_emb"] = (cfg.max_len, d)
    else:
        shapes["enc_rel_bias"] = shapes["dec_rel_bias"] = (cfg.n_heads, REL_BUCKETS)
    for stack, layers, attns in (("enc", cfg.n_enc_layers, ("attn",)),
                                 ("dec", cfg.n_dec_layers, ("self", "cross"))):
        for i in range(layers):
            p = f"{stack}.{i}"
            for k, a in enumerate(attns, 1):
                shapes[f"{p}.ln{k}.g"] = (d,)
                shapes.update({f"{p}.{a}.{w}": (d, d) for w in ("wq", "wk", "wv", "wo")})
            shapes[f"{p}.ln{len(attns) + 1}.g"] = (d,)
            shapes[f"{p}.ffn.w1"], shapes[f"{p}.ffn.w2"] = (d, cfg.d_ff), (cfg.d_ff, d)
        shapes[f"{stack}.final_ln.g"] = (d,)
    if not cfg.tie_embeddings:
        shapes["out_proj"] = (d, v)
    shapes.update({"reg.w": (d,), "reg.b": (1,), "cls.w": (d, 2), "cls.b": (2,)})
    return shapes


def init_model(cfg: ModelConfig, seed: int) -> ModelParams:
    """Deterministic initialization: embeddings ~ N(0, 1/d_model), projections
    Glorot-uniform (reg.w as a [d, 1] one), normalization gains one, biases
    and relative-bias tables zero."""
    rng = np.random.default_rng(seed)
    t: dict[str, np.ndarray] = {}
    for name, shape in tensor_shapes(cfg).items():
        if name.endswith("_emb"):
            t[name] = rng.normal(0.0, 1.0 / math.sqrt(cfg.d_model), size=shape)
        elif name.endswith(".g"):
            t[name] = np.ones(shape)
        elif name.endswith((".b", "_rel_bias")):
            t[name] = np.zeros(shape)
        else:
            fan_out = shape[1] if len(shape) == 2 else 1
            limit = math.sqrt(6.0 / (shape[0] + fan_out))
            t[name] = rng.uniform(-limit, limit, size=shape)
    return ModelParams(cfg, t)


def parameter_count(params: ModelParams) -> int:
    return sum(v.size for v in params.tensors.values())


# ---------------------------------------------------------------------------
# primitives
# ---------------------------------------------------------------------------

def _rmsnorm_fwd(x: np.ndarray, g: np.ndarray):
    # sum / d is bitwise np.mean without the wrapper's dispatch cost
    r = 1.0 / np.sqrt((x * x).sum(axis=-1, keepdims=True) / x.shape[-1] + NORM_EPS)
    return x * r * g, (x, g, r)


def _rmsnorm_bwd(dy: np.ndarray, cache):
    x, g, r = cache
    d = x.shape[-1]
    dg = (dy * x * r).sum(axis=0)
    dyg = dy * g
    dx = dyg * r - x * (r * r * r / d) * (dyg * x).sum(axis=-1, keepdims=True)
    return dx, dg


def _gelu(x: np.ndarray):
    """Tanh-form GELU and its tanh term, which _dgelu takes back. The cube is
    x * x * x: numpy sends x ** 3 to libm pow, about 60x slower."""
    t = np.tanh(_GELU_C * (x + _GELU_A * (x * x * x)))
    return 0.5 * x * (1.0 + t), t


def _dgelu(x: np.ndarray, t: np.ndarray) -> np.ndarray:
    return 0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * _GELU_C * (1.0 + 3.0 * _GELU_A * x * x)


def _softmax_rows(s: np.ndarray) -> np.ndarray:
    """Softmax over the last axis, in place: s is overwritten and returned."""
    s -= s.max(axis=-1, keepdims=True)
    np.exp(s, out=s)
    s /= s.sum(axis=-1, keepdims=True)
    return s


def log_softmax(v: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Log-softmax over the last axis, into out if given (out=v overwrites v)."""
    z = np.subtract(v, v.max(axis=-1, keepdims=True), out=out)
    z -= np.log(np.exp(z).sum(axis=-1, keepdims=True))
    return z


def _relative_bucket_matrix(nq: int, nk: int, bidirectional: bool,
                            q_start: int = 0) -> np.ndarray:
    """T5-style log-spaced distance buckets (REL_BUCKETS of them, the last
    from REL_MAX_DISTANCE on) for relative attention bias, for query positions
    q_start .. q_start + nq - 1 and key positions 0 .. nk - 1."""
    rel = np.arange(nk)[None, :] - np.arange(q_start, q_start + nq)[:, None]
    out = np.zeros((nq, nk), dtype=np.int64)
    num_buckets = REL_BUCKETS
    if bidirectional:
        num_buckets //= 2
        out += (rel > 0).astype(np.int64) * num_buckets
        rel = np.abs(rel)
    else:
        rel = -np.minimum(rel, 0)
    max_exact = num_buckets // 2
    is_small = rel < max_exact
    rel_clipped = np.maximum(rel, 1)
    large = max_exact + (
        np.log(rel_clipped / max_exact) / math.log(REL_MAX_DISTANCE / max_exact)
        * (num_buckets - max_exact)
    ).astype(np.int64)
    large = np.minimum(large, num_buckets - 1)
    out += np.where(is_small, rel, large)
    return out


def _heads(m, n_heads):
    """[..., n, d] -> [..., H, n, d/H] as a view of m."""
    return m.reshape(m.shape[:-1] + (n_heads, -1)).swapaxes(-3, -2)


def _merge_heads(m):
    """[..., H, n, dk] -> [... * n, H * dk]: the inverse of _heads on [n, d]."""
    return m.swapaxes(-3, -2).reshape(-1, m.shape[-3] * m.shape[-1])


def _attend(q, k, v, bias):
    """p = softmax(q k^T / sqrt(dk) + bias) over the keys, built in place in
    the fresh score array, and o = p v, both in the head layout."""
    s = q @ np.swapaxes(k, -1, -2)
    s *= 1.0 / math.sqrt(q.shape[-1])
    s += bias
    p = _softmax_rows(s)
    return p, p @ v


def _attn_fwd(h_q, h_kv, wq, wk, wv, wo, n_heads, add_bias):
    """Multi-head attention; add_bias [H-or-1, nq, nk] is added to the scaled
    scores (mask positions carry -inf)."""
    q = _heads(h_q @ wq, n_heads)
    k = _heads(h_kv @ wk, n_heads)
    v = _heads(h_kv @ wv, n_heads)
    p, o = _attend(q, k, v, add_bias)
    o = _merge_heads(o)
    return o @ wo, (h_q, h_kv, q, k, v, p, o, wq, wk, wv, wo)


def _attn_bwd(dout, cache):
    """Returns (dh_q, dh_kv, dwq, dwk, dwv, dwo, ds) where ds is the gradient
    w.r.t. the additive bias (for relative-bias tables)."""
    h_q, h_kv, q, k, v, p, o, wq, wk, wv, wo = cache
    scale = 1.0 / math.sqrt(q.shape[-1])
    dwo = o.T @ dout
    do = _heads(dout @ wo.T, q.shape[0])
    ds = do @ v.transpose(0, 2, 1)  # dL/dp, turned into dL/ds in place
    dv = _merge_heads(p.transpose(0, 2, 1) @ do)
    ds -= (ds * p).sum(axis=-1, keepdims=True)
    ds *= p
    dq = ds @ k
    dq *= scale
    dkk = ds.transpose(0, 2, 1) @ q
    dkk *= scale
    dq, dkk = _merge_heads(dq), _merge_heads(dkk)
    dh_q = dq @ wq.T
    dh_kv = dkk @ wk.T + dv @ wv.T
    return dh_q, dh_kv, h_q.T @ dq, h_kv.T @ dkk, h_kv.T @ dv, dwo, ds


def _key_mask_bias(valid: np.ndarray) -> np.ndarray:
    """[1, 1, nk] additive bias masking invalid key positions."""
    bias = np.where(valid, 0.0, -np.inf)
    return bias[None, None, :]


_tables: dict = {}


def _square_table(key, n: int, build) -> np.ndarray:
    """[..., n, n] read-only view of the largest table build(size) made so far
    under key. Its entries depend only on their row and column, so the
    top-left corner of a larger table is every smaller one."""
    m = _tables.get(key)
    if m is None or m.shape[-1] < n:
        m = build(n)
        m.flags.writeable = False
        _tables[key] = m
    return m[..., :n, :n]


def _causal_bias(n: int) -> np.ndarray:
    """[1, n, n] causal mask."""
    return _square_table("causal", n, lambda n: np.triu(np.full((n, n), -np.inf), k=1)[None])


def _bucket_table(n: int, bidirectional: bool) -> np.ndarray:
    """[n, n] relative-position buckets, equal to _relative_bucket_matrix(n, n)."""
    return _square_table(("buckets", bidirectional), n,
                         lambda n: _relative_bucket_matrix(n, n, bidirectional))


# ---------------------------------------------------------------------------
# encoder / decoder stacks
# ---------------------------------------------------------------------------

def _check_len(cfg: ModelConfig, n: int, what: str) -> None:
    if n > cfg.max_len:
        raise ValueError(f"{what} length {n} exceeds max_len {cfg.max_len}")


def _check_ids(cfg: ModelConfig, ids: np.ndarray, what: str) -> np.ndarray:
    ids = np.asarray(ids, dtype=np.int64)
    if ids.ndim != 1 or ids.size == 0:
        raise ValueError(f"{what} must be a non-empty 1-D id sequence")
    _check_len(cfg, ids.size, what)
    _check_range(cfg, ids, what)
    return ids


def _check_range(cfg: ModelConfig, ids: np.ndarray, what: str) -> None:
    if ids.size and (ids.min() < 0 or ids.max() >= cfg.vocab_size):
        raise ValueError(f"{what} contains ids outside the vocabulary")


def _embed_fwd(params: ModelParams, ids: np.ndarray, mask_bias: np.ndarray,
               rel_table: str, bidirectional: bool):
    """Token embeddings plus learned absolute positions, or token embeddings
    and a relative-bucket bias from `rel_table` on top of mask_bias. Returns
    (x, self-attention bias, cache)."""
    cfg, t = params.cfg, params.tensors
    n = ids.size
    x = t["tok_emb"][ids]  # advanced indexing copies, so += leaves tok_emb alone
    if cfg.position_scheme == LEARNED_ABSOLUTE:
        x += t["pos_emb"][:n]
        return x, mask_bias, (ids, None, None)
    buckets = _bucket_table(n, bidirectional)
    return x, mask_bias + t[rel_table][:, buckets], (ids, rel_table, buckets)


def _replay(grads: dict[str, np.ndarray], additions) -> None:
    """Adds an example's (name, value[, index, scatter]) additions into grads
    in order: grads[name] += value, grads[name][index] += value, or with
    scatter np.add.at(grads[name], index, value)."""
    for name, value, *at in additions:
        if not at:
            grads[name] += value
        elif at[1]:
            np.add.at(grads[name], at[0], value)
        else:
            grads[name][at[0]] += value


def _embed_bwd(cache, dx, d_scores: list, out: list):
    """d_scores: the self-attention score gradients [H, n, n] in the order
    backprop produced them, scattered into the relative-bucket table if there
    is one."""
    ids, rel_table, buckets = cache
    out.append(("tok_emb", dx, ids, True))
    if rel_table is None:
        out.append(("pos_emb", dx, slice(ids.size), False))
        return
    for ds in d_scores:
        out.append((rel_table, ds, (slice(None), buckets), True))


def _attn_sublayer_fwd(params: ModelParams, ln: str, w: str, x, bias, kv=None):
    """x + Attn(RMSNorm(x), kv) with gain `ln` and projections `w`.*: keys and
    values come from the normed x (self-attention) unless kv is given."""
    t = params.tensors
    h, c_ln = _rmsnorm_fwd(x, t[ln])
    a, c_attn = _attn_fwd(h, h if kv is None else kv, t[f"{w}.wq"], t[f"{w}.wk"],
                          t[f"{w}.wv"], t[f"{w}.wo"], params.cfg.n_heads, bias)
    return x + a, ("self" if kv is None else "cross", ln, w, c_ln, c_attn)


def _attn_sublayer_bwd(params: ModelParams, cache, dx, out: list):
    """Returns (dx, d_kv, d_scores); d_kv is None for self-attention, whose
    key/value gradient flows back through the norm into dx."""
    kind, ln, w, c_ln, c_attn = cache
    dh_q, dh_kv, dwq, dwk, dwv, dwo, ds = _attn_bwd(dx, c_attn)
    out += [(f"{w}.wq", dwq), (f"{w}.wk", dwk), (f"{w}.wv", dwv), (f"{w}.wo", dwo)]
    if kind == "self":
        dh_q, dh_kv = dh_q + dh_kv, None
    dh, dg = _rmsnorm_bwd(dh_q, c_ln)
    out.append((ln, dg))
    return dh + dx, dh_kv, ds


def _ffn_sublayer_fwd(params: ModelParams, ln: str, w: str, x):
    """x + GELU(RMSNorm(x) @ w1) @ w2 with gain `ln` and weights `w`.*."""
    t = params.tensors
    h, c_ln = _rmsnorm_fwd(x, t[ln])
    u = h @ t[f"{w}.w1"]
    act, tanh_u = _gelu(u)
    return x + act @ t[f"{w}.w2"], ("ffn", ln, w, c_ln, h, u, tanh_u, act)


def _ffn_sublayer_bwd(params: ModelParams, cache, dx, out: list):
    _, ln, w, c_ln, h, u, tanh_u, act = cache
    t = params.tensors
    du = dx @ t[f"{w}.w2"].T
    out.append((f"{w}.w2", act.T @ dx))
    du *= _dgelu(u, tanh_u)
    out.append((f"{w}.w1", h.T @ du))
    dh, dg = _rmsnorm_bwd(du @ t[f"{w}.w1"].T, c_ln)
    out.append((ln, dg))
    return dh + dx


def _stack_bwd(params: ModelParams, cache, dstates, out: list):
    """Backprop through the encoder or the decoder, sublayers in reverse;
    returns the gradient w.r.t. the states cross-attention read (None when
    there is no cross-attention)."""
    g_final, c_final = cache["final"]
    dx, dg = _rmsnorm_bwd(dstates, c_final)
    out.append((g_final, dg))
    d_kv, d_scores = None, []
    keep_scores = cache["embed"][1] is not None  # a relative-bias table reads them
    for sub in reversed(cache["sublayers"]):
        if sub[0] == "ffn":
            dx = _ffn_sublayer_bwd(params, sub, dx, out)
            continue
        dx, dh_kv, ds = _attn_sublayer_bwd(params, sub, dx, out)
        if sub[0] == "cross":
            d_kv = dh_kv if d_kv is None else d_kv + dh_kv
        elif keep_scores:
            d_scores.append(ds)
    _embed_bwd(cache["embed"], dx, d_scores, out)
    return d_kv


def _encoder_fwd(params: ModelParams, enc_ids: np.ndarray):
    cfg, t = params.cfg, params.tensors
    valid = enc_ids != PAD_ID
    if not np.any(valid):
        raise ValueError("encoder input is entirely padding")
    x, bias, embed = _embed_fwd(params, enc_ids, _key_mask_bias(valid),
                                "enc_rel_bias", bidirectional=True)
    sublayers = []
    for i in range(cfg.n_enc_layers):
        p = f"enc.{i}"
        x, c_attn = _attn_sublayer_fwd(params, f"{p}.ln1.g", f"{p}.attn", x, bias)
        x, c_ffn = _ffn_sublayer_fwd(params, f"{p}.ln2.g", f"{p}.ffn", x)
        sublayers += [c_attn, c_ffn]
    states, c_final = _rmsnorm_fwd(x, t["enc.final_ln.g"])
    return states, {"valid": valid, "embed": embed, "sublayers": sublayers,
                    "final": ("enc.final_ln.g", c_final)}


def _decoder_fwd(params: ModelParams, dec_ids: np.ndarray,
                 enc_states: np.ndarray, enc_valid: np.ndarray):
    cfg, t = params.cfg, params.tensors
    x, self_bias, embed = _embed_fwd(params, dec_ids, _causal_bias(dec_ids.size),
                                     "dec_rel_bias", bidirectional=False)
    cross_bias = _key_mask_bias(enc_valid)
    sublayers = []
    for i in range(cfg.n_dec_layers):
        p = f"dec.{i}"
        x, c_self = _attn_sublayer_fwd(params, f"{p}.ln1.g", f"{p}.self", x, self_bias)
        x, c_cross = _attn_sublayer_fwd(params, f"{p}.ln2.g", f"{p}.cross", x,
                                        cross_bias, enc_states)
        x, c_ffn = _ffn_sublayer_fwd(params, f"{p}.ln3.g", f"{p}.ffn", x)
        sublayers += [c_self, c_cross, c_ffn]
    states, c_final = _rmsnorm_fwd(x, t["dec.final_ln.g"])
    return states, {"embed": embed, "sublayers": sublayers,
                    "final": ("dec.final_ln.g", c_final)}


class DecoderStepper:
    """Incremental decoding over a list of encoder inputs (sources), one
    position per step.

    Each source's encoder runs once, on its own, and each layer's
    cross-attention keys and values are projected once per source;
    self-attention keys and values are appended at every step. Rows are
    hypotheses, each reading one source: `step` advances all of them together
    as one [rows, 1, d] position, and each row's cross-attention reads only
    its own source's keys. Logits equal the last row of `forward` on each
    row's source and full prefix up to rounding.
    """

    def __init__(self, params: ModelParams, sources):
        cfg, t = params.cfg, params.tensors
        self.params = params
        self.n_pos = 0
        self.self_kv: list[tuple[np.ndarray, np.ndarray]] = []
        self.cross = []  # per source: (key mask bias, [(k, v) per layer])
        for enc_ids in sources:
            states, cache = _encoder_fwd(params, _check_ids(cfg, enc_ids, "enc_ids"))
            self.cross.append((_key_mask_bias(cache["valid"]),
                               [(_heads(states @ t[f"dec.{i}.cross.wk"], cfg.n_heads),
                                 _heads(states @ t[f"dec.{i}.cross.wv"], cfg.n_heads))
                                for i in range(cfg.n_dec_layers)]))
        self.row_src = np.arange(len(self.cross))

    def step(self, tokens, parents=None) -> np.ndarray:
        """Append tokens[r] to the prefix of row parents[r] of the previous
        step (row r itself when parents is None) and return next-token
        logits [rows, vocab]; row r reads the source of the row it extends.
        The first step's rows are the sources, in order, unless parents
        picks them. Callers feed the start token (eos) first."""
        cfg, t = self.params.cfg, self.params.tensors
        tokens = np.asarray(tokens, dtype=np.int64)
        _check_range(cfg, tokens, "dec_ids")
        n = self.n_pos + 1
        _check_len(cfg, n, "dec_ids")
        if parents is not None:
            parents = np.asarray(parents, dtype=np.int64)
            self.row_src = self.row_src[parents]
            self.self_kv = [(k[parents], v[parents]) for k, v in self.self_kv]
        if tokens.shape != self.row_src.shape:
            raise ValueError("one token per row")
        # runs of consecutive rows reading one source: (its cross entry, first, end)
        cuts = [0, *(np.flatnonzero(np.diff(self.row_src)) + 1).tolist(), tokens.size]
        runs = [(self.cross[self.row_src[a]], a, b) for a, b in zip(cuts, cuts[1:])]
        x = t["tok_emb"][tokens]
        if cfg.position_scheme == LEARNED_ABSOLUTE:
            x += t["pos_emb"][n - 1]
            self_bias = 0.0  # the causal mask's last row is all zeros
        else:
            self_bias = t["dec_rel_bias"][:, None, _bucket_table(n, False)[n - 1]]

        def heads(m):  # [rows, d] -> [rows, H, 1, dk]: one position per row
            return _heads(m[:, None], cfg.n_heads)

        new_kv = []
        for i in range(cfg.n_dec_layers):
            p = f"dec.{i}"
            h, _ = _rmsnorm_fwd(x, t[f"{p}.ln1.g"])
            k, v = heads(h @ t[f"{p}.self.wk"]), heads(h @ t[f"{p}.self.wv"])
            if self.self_kv:
                k_old, v_old = self.self_kv[i]
                k = np.concatenate((k_old, k), axis=2)
                v = np.concatenate((v_old, v), axis=2)
            new_kv.append((k, v))
            _, o = _attend(heads(h @ t[f"{p}.self.wq"]), k, v, self_bias)
            x1 = x + _merge_heads(o) @ t[f"{p}.self.wo"]
            hc, _ = _rmsnorm_fwd(x1, t[f"{p}.ln2.g"])
            q = heads(hc @ t[f"{p}.cross.wq"])
            o = np.concatenate([_attend(q[a:b], *kv[i], bias)[1]
                                for (bias, kv), a, b in runs])
            x2 = x1 + _merge_heads(o) @ t[f"{p}.cross.wo"]
            x, _ = _ffn_sublayer_fwd(self.params, f"{p}.ln3.g", f"{p}.ffn", x2)
        self.self_kv = new_kv
        self.n_pos = n
        states, _ = _rmsnorm_fwd(x, t["dec.final_ln.g"])
        return states @ _output_matrix(self.params)


def _output_matrix(params: ModelParams) -> np.ndarray:
    if params.cfg.tie_embeddings:
        return params.tensors["tok_emb"].T
    return params.tensors["out_proj"]


def _forward_lm(params: ModelParams, enc_ids, dec_ids):
    cfg = params.cfg
    enc_ids = _check_ids(cfg, enc_ids, "enc_ids")
    dec_ids = _check_ids(cfg, dec_ids, "dec_ids")
    enc_states, enc_cache = _encoder_fwd(params, enc_ids)
    dec_states, dec_cache = _decoder_fwd(params, dec_ids, enc_states,
                                         enc_cache["valid"])
    logits = dec_states @ _output_matrix(params)
    cache = {"enc": enc_cache, "dec": dec_cache,
             "enc_states": enc_states, "dec_states": dec_states}
    return logits, cache


def forward(params: ModelParams, enc_ids, dec_ids) -> np.ndarray:
    """Teacher-forcing pass: next-token logits per decoder position."""
    logits, _ = _forward_lm(params, enc_ids, dec_ids)
    return logits


def _lm_head_bwd(params: ModelParams, dec_states, dlogits, out: list):
    """Appends the output projection's gradient; returns d dec_states."""
    # BLAS runs this [d, V] product ~1.7x faster than dlogits.T @ dec_states
    g = dec_states.T @ dlogits
    out.append(("tok_emb", g.T) if params.cfg.tie_embeddings else ("out_proj", g))
    return dlogits @ _output_matrix(params).T


def loss_xent(logits: np.ndarray, target_ids) -> float:
    """Mean token-level cross-entropy over non-pad target positions."""
    target_ids = np.asarray(target_ids, dtype=np.int64)
    if logits.shape[0] != target_ids.size:
        raise ValueError("logits and targets disagree in length")
    keep = target_ids != PAD_ID
    if not np.any(keep):
        raise ValueError("all target positions are padded")
    loss_sum = _xent_fwd(np.array(logits), target_ids, keep)[0]
    return float(loss_sum / np.count_nonzero(keep))


def _xent_fwd(z, target_ids, keep):
    """Summed cross-entropy over the kept rows, with one exp per logit, in
    place: z holds the logits and is overwritten with e = exp(logits - row
    max). Returns (loss_sum, e, s), s the row sums of e."""
    z -= z.max(axis=-1, keepdims=True)
    z_t = z[np.arange(target_ids.size), target_ids]
    e = np.exp(z, out=z)
    s = e.sum(axis=-1, keepdims=True)
    return float(-(z_t - np.log(s[:, 0]))[keep].sum()), e, s


def _xent_sum_and_dlogits(logits, target_ids, keep):
    """Summed cross-entropy and its gradient softmax - onehot(target), zero
    on the rows that are not kept; the gradient is built in the logits'
    buffer, which is overwritten."""
    loss_sum, e, s = _xent_fwd(logits, target_ids, keep)
    e /= s
    e[np.arange(target_ids.size), target_ids] -= 1.0
    e[~keep] = 0.0
    return loss_sum, e


def _pooled_fwd(params: ModelParams, enc_ids):
    enc_ids = _check_ids(params.cfg, enc_ids, "enc_ids")
    states, cache = _encoder_fwd(params, enc_ids)
    return states[cache["valid"]].mean(axis=0), cache


def encoder_mean_pool(params: ModelParams, enc_ids) -> np.ndarray:
    """Mean of the final encoder states over non-pad positions."""
    return _pooled_fwd(params, enc_ids)[0]


def sigmoid(z: float) -> float:
    if z >= 0:
        return 1.0 / (1.0 + math.exp(-z))
    e = math.exp(z)
    return e / (1.0 + e)


def regression_head(pool: np.ndarray, w: np.ndarray, b: np.ndarray) -> float:
    """Similarity score: 4 * sigmoid(w . pool + b) + 1, hence in (1, 5)."""
    return 4.0 * sigmoid(float(pool @ w + b[0])) + 1.0


def classification_head(pool: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Two-class probabilities (entail, none) via softmax over a linear layer."""
    return _softmax_rows(pool @ w + b)


def predict_similarity(params: ModelParams, enc_ids) -> float:
    pool = encoder_mean_pool(params, enc_ids)
    return regression_head(pool, params.tensors["reg.w"], params.tensors["reg.b"])


def predict_entailment(params: ModelParams, enc_ids) -> np.ndarray:
    pool = encoder_mean_pool(params, enc_ids)
    return classification_head(pool, params.tensors["cls.w"], params.tensors["cls.b"])


_POOLED_HEADS = {"regression": ("reg.w", "reg.b"),
                 "classification": ("cls.w", "cls.b")}


def _pooled_head(objective: str) -> tuple[str, str]:
    if objective not in _POOLED_HEADS:
        raise ValueError(f"unknown objective {objective!r}")
    return _POOLED_HEADS[objective]


def pooled_loss(params: ModelParams, objective: str, pool: np.ndarray, target):
    """One example's pooled-head loss and its gradient w.r.t. the head's
    pre-activation z = pool @ w + b: the squared error of the score
    4 * sigmoid(z) + 1 ("regression", target a score) or the cross-entropy of
    softmax(z) ("classification", target a label index)."""
    w, b = _pooled_head(objective)
    z = pool @ params.tensors[w] + params.tensors[b]
    if objective == "regression":
        s = sigmoid(float(z[0]))
        diff = 4.0 * s + 1.0 - float(target)
        return diff * diff, 2.0 * diff * 4.0 * s * (1.0 - s)
    loss, dz = _xent_sum_and_dlogits(z[None], np.array([target]), np.array([True]))
    return loss, dz[0]


def zero_grads(params: ModelParams) -> dict[str, np.ndarray]:
    return {k: np.zeros_like(v) for k, v in params.tensors.items()}


def apply_trainable_mask(grads: dict[str, np.ndarray],
                         mask: TrainableMask | None) -> dict[str, np.ndarray]:
    if mask is None:
        return grads
    for name, g in grads.items():
        if not mask.get(name, False):
            g[...] = 0.0
    return grads


def _lm_example(params: ModelParams, example, backward: bool):
    """(loss sum, non-pad targets, gradient additions) of one (enc_ids,
    dec_in, targets) example; the additions are None without backward."""
    enc_ids, dec_in, targets = example
    logits, cache = _forward_lm(params, enc_ids, dec_in)
    targets = np.asarray(targets, dtype=np.int64)
    keep = targets != PAD_ID
    if not np.any(keep):
        raise ValueError("all target positions are padded")
    units = int(np.count_nonzero(keep))
    if not backward:
        return _xent_fwd(logits, targets, keep)[0], units, None
    loss_sum, dlogits = _xent_sum_and_dlogits(logits, targets, keep)
    del logits  # dlogits' buffer
    out: list = []
    d_dec = _lm_head_bwd(params, cache["dec_states"], dlogits, out)
    del dlogits  # [n, V]: freed before the stacks' backward
    d_enc = _stack_bwd(params, cache["dec"], d_dec, out)
    if d_enc is not None:  # None without decoder layers: the loss reads no encoder
        _stack_bwd(params, cache["enc"], d_enc, out)
    return loss_sum, units, out


def _pooled_example(params: ModelParams, objective: str, example, backward: bool):
    """(loss, 1, gradient additions) of one (enc_ids, target) example of a
    pooled head; the additions are None without backward."""
    enc_ids, target = example
    pool, cache = _pooled_fwd(params, enc_ids)
    loss, dz = pooled_loss(params, objective, pool, target)
    if not backward:
        return loss, 1, None
    w, b = _pooled_head(objective)
    # dz is a float for regression and a 2-vector for classification
    out = [(w, np.multiply.outer(pool, dz)), (b, dz)]
    valid = cache["valid"]  # the mean pool's backward
    dstates = np.zeros((valid.size, pool.size))
    dstates[valid] = np.dot(params.tensors[w], dz) / np.count_nonzero(valid)
    _stack_bwd(params, cache, dstates, out)
    return loss, 1, out


def _blas_callers() -> int:
    """How many threads can call BLAS at once without oversubscribing: the
    CPUs this process may use over BLAS's thread count, which OpenBLAS takes
    from OPENBLAS_NUM_THREADS, else OMP_NUM_THREADS, else one per CPU."""
    if hasattr(os, "sched_getaffinity"):  # not on every platform
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        threads = os.environ.get(var, "").strip()
        if threads.isdigit() and int(threads) > 0:
            return cpus // int(threads)
    return 1


def _on_two_threads(run_one, batch):
    """Yields run_one(example) for the examples in order. A one-worker
    executor runs example i + 1 while this thread runs example i; the next
    pair starts once the caller has taken both results, so at most two are
    in flight or unconsumed at once. A failing example raises at its turn,
    and the worker is joined before this returns or raises."""
    with ThreadPoolExecutor(1) as pool:
        for i in range(0, len(batch), 2):
            ahead = [pool.submit(run_one, example) for example in batch[i + 1:i + 2]]
            yield run_one(batch[i])
            while ahead:  # popped: no future keeps a result the caller consumed
                yield ahead.pop().result()


def accumulate_loss_and_grad(params: ModelParams, batch, objective: str,
                             grads: dict[str, np.ndarray] | None):
    """Add unnormalized loss and gradient sums for a (micro)batch into grads.

    Returns (loss_sum, unit_count): units are non-pad target tokens for the
    "lm" objective and examples otherwise. Accumulating microbatches into the
    same grads buffers and normalizing once reproduces a single large batch
    bit for bit, which is what makes gradient accumulation exact. With grads
    None the backward pass is skipped: the same loss sum, forward only.

    Each example returns its gradient additions, replayed into grads in
    batch order, so every buffer receives the same additions in the same
    order on either path. A batch of two or more examples with at least
    HELPER_MIN_POSITIONS decoder positions in total (pooled heads have none)
    runs on two threads when two threads can call BLAS at once
    (_blas_callers, _on_two_threads).
    """
    if not batch:
        raise ValueError("empty batch")
    backward = grads is not None
    if objective == "lm":
        run_one = functools.partial(_lm_example, params, backward=backward)
        positions = sum(len(dec_in) for _, dec_in, _ in batch)
    else:
        _pooled_head(objective)  # an unknown objective fails before any example
        run_one = functools.partial(_pooled_example, params, objective,
                                    backward=backward)
        positions = 0
    if len(batch) > 1 and positions >= HELPER_MIN_POSITIONS and _blas_callers() > 1:
        parts = _on_two_threads(run_one, batch)
    else:
        parts = map(run_one, batch)
    loss_sum, units = 0.0, 0
    for loss, n, additions in parts:
        loss_sum += loss
        units += n
        if backward:
            _replay(grads, additions)
        del additions  # freed before the next example runs
    return loss_sum, units


def loss_and_grad(params: ModelParams, batch, objective: str = "lm",
                  trainable: TrainableMask | None = None):
    """Mean loss and exact analytic gradients over a batch of examples.

    objective "lm": items (enc_ids, dec_in_ids, target_ids); the loss is the
    token mean over non-pad targets across the whole batch.
    objective "regression": items (enc_ids, score); squared-error mean.
    objective "classification": items (enc_ids, label_index); CE mean.
    Frozen tensors (per `trainable`) get zero gradients.
    """
    grads = zero_grads(params)
    loss_sum, units = accumulate_loss_and_grad(params, batch, objective, grads)
    for g in grads.values():
        g /= units
    return loss_sum / units, apply_trainable_mask(grads, trainable)
