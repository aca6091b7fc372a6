"""Small encoder-decoder transformer in float64 numpy with exact analytic
gradients.

Pre-norm blocks with RMS normalization (gain only, no bias), GELU feed-forward
without biases, multi-head attention, and either learned absolute position
embeddings (default) or T5-style relative position buckets behind a config
flag. Everything runs per example in float64, which keeps finite-difference
gradient checks tight at desk scale.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, asdict

import numpy as np

from .unigram import PAD_ID

LEARNED_ABSOLUTE = "learned-absolute"
RELATIVE_BUCKET = "relative-bucket"

REL_BUCKETS = 32
REL_MAX_DISTANCE = 128
NORM_EPS = 1e-6

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
        if self.vocab_size < 5:
            raise ValueError("vocab_size must cover the reserved ids")
        if self.d_model % self.n_heads != 0:
            raise ValueError("d_model must be divisible by n_heads")
        if self.max_len < 1:
            raise ValueError("max_len must be >= 1")
        if self.position_scheme not in (LEARNED_ABSOLUTE, RELATIVE_BUCKET):
            raise ValueError(f"unknown position_scheme {self.position_scheme!r}")

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "ModelConfig":
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


def full_mask(params: ModelParams) -> TrainableMask:
    return {name: True for name in params.tensors}


def _glorot(rng: np.random.Generator, shape: tuple[int, ...]) -> np.ndarray:
    fan_in, fan_out = shape[0], shape[-1]
    limit = math.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape)


def init_model(cfg: ModelConfig, seed: int) -> ModelParams:
    """Deterministic initialization: embeddings ~ N(0, 1/d_model), projections
    Glorot-uniform, normalization gains one, relative-bias tables zero."""
    rng = np.random.default_rng(seed)
    d, dff, v = cfg.d_model, cfg.d_ff, cfg.vocab_size
    t: dict[str, np.ndarray] = {}
    t["tok_emb"] = rng.normal(0.0, 1.0 / math.sqrt(d), size=(v, d))
    if cfg.position_scheme == LEARNED_ABSOLUTE:
        t["pos_emb"] = rng.normal(0.0, 1.0 / math.sqrt(d), size=(cfg.max_len, d))
    else:
        t["enc_rel_bias"] = np.zeros((cfg.n_heads, REL_BUCKETS))
        t["dec_rel_bias"] = np.zeros((cfg.n_heads, REL_BUCKETS))

    def attn_block(prefix: str):
        for w in ("wq", "wk", "wv", "wo"):
            t[f"{prefix}.{w}"] = _glorot(rng, (d, d))

    for i in range(cfg.n_enc_layers):
        p = f"enc.{i}"
        t[f"{p}.ln1.g"] = np.ones(d)
        attn_block(f"{p}.attn")
        t[f"{p}.ln2.g"] = np.ones(d)
        t[f"{p}.ffn.w1"] = _glorot(rng, (d, dff))
        t[f"{p}.ffn.w2"] = _glorot(rng, (dff, d))
    t["enc.final_ln.g"] = np.ones(d)
    for i in range(cfg.n_dec_layers):
        p = f"dec.{i}"
        t[f"{p}.ln1.g"] = np.ones(d)
        attn_block(f"{p}.self")
        t[f"{p}.ln2.g"] = np.ones(d)
        attn_block(f"{p}.cross")
        t[f"{p}.ln3.g"] = np.ones(d)
        t[f"{p}.ffn.w1"] = _glorot(rng, (d, dff))
        t[f"{p}.ffn.w2"] = _glorot(rng, (dff, d))
    t["dec.final_ln.g"] = np.ones(d)
    if not cfg.tie_embeddings:
        t["out_proj"] = _glorot(rng, (d, v))
    t["reg.w"] = _glorot(rng, (d, 1)).reshape(d)
    t["reg.b"] = np.zeros(1)
    t["cls.w"] = _glorot(rng, (d, 2))
    t["cls.b"] = np.zeros(2)
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


def log_softmax(v: np.ndarray) -> np.ndarray:
    z = v - v.max(axis=-1, keepdims=True)
    return z - np.log(np.exp(z).sum(axis=-1, keepdims=True))


def _relative_bucket_matrix(nq: int, nk: int, bidirectional: bool,
                            num_buckets: int = REL_BUCKETS,
                            max_distance: int = REL_MAX_DISTANCE,
                            q_start: int = 0) -> np.ndarray:
    """T5-style log-spaced distance buckets for relative attention bias, for
    query positions q_start .. q_start + nq - 1 and key positions 0 .. nk - 1."""
    rel = np.arange(nk)[None, :] - np.arange(q_start, q_start + nq)[:, None]
    out = np.zeros((nq, nk), dtype=np.int64)
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
        np.log(rel_clipped / max_exact) / math.log(max_distance / max_exact)
        * (num_buckets - max_exact)
    ).astype(np.int64)
    large = np.minimum(large, num_buckets - 1)
    out += np.where(is_small, rel, large)
    return out


def _attn_probs(q, k, bias):
    """softmax(q k^T / sqrt(dk) + bias) over the keys, built in place in the
    fresh score array."""
    s = q @ np.swapaxes(k, -1, -2)
    s *= 1.0 / math.sqrt(q.shape[-1])
    s += bias
    return _softmax_rows(s)


def _attn_fwd(h_q, h_kv, wq, wk, wv, wo, n_heads, add_bias):
    """Multi-head attention; add_bias [H-or-1, nq, nk] is added to the scaled
    scores (mask positions carry -inf)."""
    nq, d = h_q.shape
    nk = h_kv.shape[0]
    dk = d // n_heads
    scale = 1.0 / math.sqrt(dk)
    q = (h_q @ wq).reshape(nq, n_heads, dk).transpose(1, 0, 2)
    k = (h_kv @ wk).reshape(nk, n_heads, dk).transpose(1, 0, 2)
    v = (h_kv @ wv).reshape(nk, n_heads, dk).transpose(1, 0, 2)
    p = _attn_probs(q, k, add_bias)
    o = (p @ v).transpose(1, 0, 2).reshape(nq, d)
    out = o @ wo
    cache = (h_q, h_kv, q, k, v, p, o, wq, wk, wv, wo, scale)
    return out, cache


def _attn_bwd(dout, cache):
    """Returns (dh_q, dh_kv, dwq, dwk, dwv, dwo, ds) where ds is the gradient
    w.r.t. the additive bias (for relative-bias tables)."""
    h_q, h_kv, q, k, v, p, o, wq, wk, wv, wo, scale = cache
    nq, d = h_q.shape
    n_heads = q.shape[0]
    dk_dim = d // n_heads
    dwo = o.T @ dout
    do = (dout @ wo.T).reshape(nq, n_heads, dk_dim).transpose(1, 0, 2)
    ds = do @ v.transpose(0, 2, 1)  # dL/dp, turned into dL/ds in place
    dv = p.transpose(0, 2, 1) @ do
    ds -= (ds * p).sum(axis=-1, keepdims=True)
    ds *= p
    dq = ds @ k
    dq *= scale
    dkk = ds.transpose(0, 2, 1) @ q
    dkk *= scale
    dq_flat = dq.transpose(1, 0, 2).reshape(nq, d)
    dk_flat = dkk.transpose(1, 0, 2).reshape(-1, d)
    dv_flat = dv.transpose(1, 0, 2).reshape(-1, d)
    dwq = h_q.T @ dq_flat
    dwk = h_kv.T @ dk_flat
    dwv = h_kv.T @ dv_flat
    dh_q = dq_flat @ wq.T
    dh_kv = dk_flat @ wk.T + dv_flat @ wv.T
    return dh_q, dh_kv, dwq, dwk, dwv, dwo, ds


def _key_mask_bias(valid: np.ndarray) -> np.ndarray:
    """[1, 1, nk] additive bias masking invalid key positions."""
    bias = np.where(valid, 0.0, -np.inf)
    return bias[None, None, :]


def _causal_bias(n: int) -> np.ndarray:
    m = np.zeros((n, n))
    iu = np.triu_indices(n, k=1)
    m[iu] = -np.inf
    return m[None, :, :]


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
    if np.any(ids < 0) or np.any(ids >= cfg.vocab_size):
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
    buckets = _relative_bucket_matrix(n, n, bidirectional)
    return x, mask_bias + t[rel_table][:, buckets], (ids, rel_table, buckets)


def _embed_bwd(params: ModelParams, cache, dx, d_scores: list, grads):
    """d_scores: the self-attention score gradients in the order backprop
    produced them, scattered into the relative-bucket table if there is one."""
    ids, rel_table, buckets = cache
    np.add.at(grads["tok_emb"], ids, dx)
    if rel_table is None:
        grads["pos_emb"][:ids.size] += dx
        return
    gb = grads[rel_table]
    for ds in d_scores:
        for h in range(params.cfg.n_heads):
            np.add.at(gb[h], buckets.ravel(), ds[h].ravel())


def _attn_sublayer_fwd(params: ModelParams, ln: str, w: str, x, bias, kv=None):
    """x + Attn(RMSNorm(x), kv) with gain `ln` and projections `w`.*: keys and
    values come from the normed x (self-attention) unless kv is given."""
    t = params.tensors
    h, c_ln = _rmsnorm_fwd(x, t[ln])
    a, c_attn = _attn_fwd(h, h if kv is None else kv, t[f"{w}.wq"], t[f"{w}.wk"],
                          t[f"{w}.wv"], t[f"{w}.wo"], params.cfg.n_heads, bias)
    return x + a, ("self" if kv is None else "cross", ln, w, c_ln, c_attn)


def _attn_sublayer_bwd(params: ModelParams, cache, dx, grads):
    """Returns (dx, d_kv, d_scores); d_kv is None for self-attention, whose
    key/value gradient flows back through the norm into dx."""
    kind, ln, w, c_ln, c_attn = cache
    dh_q, dh_kv, dwq, dwk, dwv, dwo, ds = _attn_bwd(dx, c_attn)
    grads[f"{w}.wq"] += dwq
    grads[f"{w}.wk"] += dwk
    grads[f"{w}.wv"] += dwv
    grads[f"{w}.wo"] += dwo
    if kind == "self":
        dh_q, dh_kv = dh_q + dh_kv, None
    dh, dg = _rmsnorm_bwd(dh_q, c_ln)
    grads[ln] += dg
    return dh + dx, dh_kv, ds


def _ffn_sublayer_fwd(params: ModelParams, ln: str, w: str, x):
    """x + GELU(RMSNorm(x) @ w1) @ w2 with gain `ln` and weights `w`.*."""
    t = params.tensors
    h, c_ln = _rmsnorm_fwd(x, t[ln])
    u = h @ t[f"{w}.w1"]
    act, tanh_u = _gelu(u)
    return x + act @ t[f"{w}.w2"], ("ffn", ln, w, c_ln, h, u, tanh_u, act)


def _ffn_sublayer_bwd(params: ModelParams, cache, dx, grads):
    _, ln, w, c_ln, h, u, tanh_u, act = cache
    t = params.tensors
    du = dx @ t[f"{w}.w2"].T
    grads[f"{w}.w2"] += act.T @ dx
    du *= _dgelu(u, tanh_u)
    grads[f"{w}.w1"] += h.T @ du
    dh, dg = _rmsnorm_bwd(du @ t[f"{w}.w1"].T, c_ln)
    grads[ln] += dg
    return dh + dx


def _stack_bwd(params: ModelParams, cache, dstates, grads):
    """Backprop through the encoder or the decoder, sublayers in reverse;
    returns the gradient w.r.t. the states cross-attention read (None when
    there is no cross-attention)."""
    g_final, c_final = cache["final"]
    dx, dg = _rmsnorm_bwd(dstates, c_final)
    grads[g_final] += dg
    d_kv, d_scores = None, []
    for sub in reversed(cache["sublayers"]):
        if sub[0] == "ffn":
            dx = _ffn_sublayer_bwd(params, sub, dx, grads)
            continue
        dx, dh_kv, ds = _attn_sublayer_bwd(params, sub, dx, grads)
        if sub[0] == "self":
            d_scores.append(ds)
        else:
            d_kv = dh_kv if d_kv is None else d_kv + dh_kv
    _embed_bwd(params, cache["embed"], dx, d_scores, grads)
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
    """Incremental decoding over one encoder input, one position per step.

    The encoder runs once and each layer's cross-attention keys and values
    are projected once; self-attention keys and values are appended at every
    step. Rows are hypotheses: `step` advances all of them together as one
    [rows, 1, d] position. Logits equal the last row of `forward` on each
    row's full prefix up to rounding.
    """

    def __init__(self, params: ModelParams, enc_ids):
        cfg, t = params.cfg, params.tensors
        self.params = params
        self.n_pos = 0
        self.self_kv: list[tuple[np.ndarray, np.ndarray]] = []
        enc_states, enc_cache = _encoder_fwd(params, _check_ids(cfg, enc_ids, "enc_ids"))
        self.cross_bias = _key_mask_bias(enc_cache["valid"])
        dk = cfg.d_model // cfg.n_heads

        def heads(m):  # [nk, d] -> [H, nk, dk], as in _attn_fwd
            return m.reshape(-1, cfg.n_heads, dk).transpose(1, 0, 2)

        self.cross_kv = [(heads(enc_states @ t[f"dec.{i}.cross.wk"]),
                          heads(enc_states @ t[f"dec.{i}.cross.wv"]))
                         for i in range(cfg.n_dec_layers)]

    @staticmethod
    def _attend(q, k, v, bias, wo):
        o = _attn_probs(q, k, bias) @ v
        return o.reshape(q.shape[0], -1) @ wo

    def step(self, tokens, parents=None) -> np.ndarray:
        """Append tokens[r] to the prefix of row parents[r] of the previous
        step (row r itself when parents is None) and return next-token
        logits [rows, vocab]. Callers feed the start token (eos) first."""
        cfg, t = self.params.cfg, self.params.tensors
        tokens = np.asarray(tokens, dtype=np.int64)
        _check_range(cfg, tokens, "dec_ids")
        n = self.n_pos + 1
        _check_len(cfg, n, "dec_ids")
        if parents is not None and self.self_kv:
            parents = np.asarray(parents, dtype=np.int64)
            self.self_kv = [(k[parents], v[parents]) for k, v in self.self_kv]
        rows, n_heads = tokens.size, cfg.n_heads
        x = t["tok_emb"][tokens]
        if cfg.position_scheme == LEARNED_ABSOLUTE:
            x += t["pos_emb"][n - 1]
            self_bias = 0.0  # the causal mask's last row is all zeros
        else:
            buckets = _relative_bucket_matrix(1, n, bidirectional=False, q_start=n - 1)[0]
            self_bias = t["dec_rel_bias"][:, None, buckets]

        def heads(m):  # [rows, d] -> [rows, H, 1, dk]
            return m.reshape(rows, n_heads, 1, -1)

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
            x1 = x + self._attend(heads(h @ t[f"{p}.self.wq"]), k, v, self_bias,
                                  t[f"{p}.self.wo"])
            hc, _ = _rmsnorm_fwd(x1, t[f"{p}.ln2.g"])
            kc, vc = self.cross_kv[i]
            x2 = x1 + self._attend(heads(hc @ t[f"{p}.cross.wq"]), kc, vc,
                                   self.cross_bias, t[f"{p}.cross.wo"])
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


def _backward_lm(params: ModelParams, cache, dlogits, grads):
    cfg = params.cfg
    dec_states = cache["dec_states"]
    if cfg.tie_embeddings:
        grads["tok_emb"] += dlogits.T @ dec_states
        d_dec = dlogits @ params.tensors["tok_emb"]
    else:
        grads["out_proj"] += dec_states.T @ dlogits
        d_dec = dlogits @ params.tensors["out_proj"].T
    d_enc = _stack_bwd(params, cache["dec"], d_dec, grads)
    _stack_bwd(params, cache["enc"], d_enc, grads)


def loss_xent(logits: np.ndarray, target_ids, pad_mask=None) -> float:
    """Mean token-level cross-entropy over non-pad target positions."""
    target_ids = np.asarray(target_ids, dtype=np.int64)
    if logits.shape[0] != target_ids.size:
        raise ValueError("logits and targets disagree in length")
    keep = target_ids != PAD_ID if pad_mask is None else np.asarray(pad_mask, bool)
    if not np.any(keep):
        raise ValueError("all target positions are padded")
    return float(_xent_fwd(logits, target_ids, keep)[0] / np.count_nonzero(keep))


def _xent_fwd(logits, target_ids, keep):
    """Summed cross-entropy over the kept rows, with one exp per logit:
    returns (loss_sum, e, s) where e = exp(logits - row max) is a fresh
    array and s its row sums. logits itself is not written."""
    z = logits - logits.max(axis=-1, keepdims=True)
    z_t = z[np.arange(target_ids.size), target_ids]
    e = np.exp(z, out=z)
    s = e.sum(axis=-1, keepdims=True)
    return float(-(z_t - np.log(s[:, 0]))[keep].sum()), e, s


def _xent_sum_and_dlogits(logits, target_ids, keep):
    """Summed cross-entropy and its gradient softmax - onehot(target), zero
    on the rows that are not kept; the gradient is built in e's buffer."""
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


def _pooled_bwd(params: ModelParams, cache, dpool, grads):
    valid = cache["valid"]
    dstates = np.zeros((valid.size, dpool.size))
    dstates[valid] = dpool / np.count_nonzero(valid)
    _stack_bwd(params, cache, dstates, grads)


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
    z = pool @ w + b
    z = z - np.max(z)
    e = np.exp(z)
    return e / e.sum()


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


def accumulate_loss_and_grad(params: ModelParams, batch, objective: str,
                             grads: dict[str, np.ndarray]):
    """Add unnormalized loss and gradient sums for a (micro)batch into grads.

    Returns (loss_sum, unit_count): units are non-pad target tokens for the
    "lm" objective and examples otherwise. Accumulating microbatches into the
    same grads buffers and normalizing once reproduces a single large batch
    bit for bit, which is what makes gradient accumulation exact.
    """
    if not batch:
        raise ValueError("empty batch")
    loss_sum = 0.0
    units = 0
    if objective == "lm":
        for enc_ids, dec_in, targets in batch:
            logits, cache = _forward_lm(params, enc_ids, dec_in)
            targets = np.asarray(targets, dtype=np.int64)
            keep = targets != PAD_ID
            if not np.any(keep):
                raise ValueError("all target positions are padded")
            part, dlogits = _xent_sum_and_dlogits(logits, targets, keep)
            loss_sum += part
            units += int(np.count_nonzero(keep))
            _backward_lm(params, cache, dlogits, grads)
        return loss_sum, units
    w, b = _pooled_head(objective)
    for enc_ids, target in batch:
        pool, cache = _pooled_fwd(params, enc_ids)
        loss, dz = pooled_loss(params, objective, pool, target)
        loss_sum += loss
        # dz is a float for regression and a 2-vector for classification
        grads[w] += np.multiply.outer(pool, dz)
        grads[b] += dz
        _pooled_bwd(params, cache, np.dot(params.tensors[w], dz), grads)
    return loss_sum, len(batch)


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
