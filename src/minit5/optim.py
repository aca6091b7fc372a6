"""The three training optimizers: Adafactor (pretraining), RAdam (sentence-pair
fine-tuning), AdamW (NER fine-tuning).

All steps are functional over dicts of named float64 tensors, honor a
trainable mask (frozen tensors and their state stay bit-identical), and raise
DivergedError on non-finite gradients.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np


class DivergedError(RuntimeError):
    pass


def _check_finite(name: str, g: np.ndarray) -> None:
    if not np.all(np.isfinite(g)):
        raise DivergedError(f"diverged: non-finite gradient for {name}")


def _trainable_grads(params, grads, mask):
    """(name, param, grad) of every tensor with a gradient that the mask
    leaves trainable, in name order; a non-finite gradient raises
    DivergedError before its tensor is updated."""
    for name in sorted(params):
        if name in grads and (mask is None or mask.get(name, False)):
            _check_finite(name, grads[name])
            yield name, params[name], grads[name]


@dataclass
class AdafactorState:
    step: int = 0
    slots: dict[str, dict[str, np.ndarray]] = field(default_factory=dict)


def adafactor_step(params: dict[str, np.ndarray], grads: dict[str, np.ndarray],
                   state: AdafactorState, lr: float, *,
                   decay_exponent: float = -0.8, eps: float = 1e-30,
                   clip_threshold: float = 1.0, mask=None):
    """One Adafactor step in constant-learning-rate mode.

    Matrices keep exponential moving row-sum and column-sum second-moment
    vectors (decay 1 - t^decay_exponent) and reconstruct the factored second
    moment as outer(row, col) / sum(row); vectors and scalars keep the full
    second moment. The update lr * g / sqrt(V + eps) is RMS-clipped at
    clip_threshold.
    """
    state.step += 1
    t = state.step
    beta = 1.0 - t ** decay_exponent
    for name, p, g in _trainable_grads(params, grads, mask):
        g2 = g * g
        slot = state.slots.setdefault(name, {})
        if g.ndim >= 2:
            row = g2.sum(axis=-1)
            col = g2.sum(axis=tuple(range(g.ndim - 1)))
            slot["row"] = beta * slot.get("row", 0.0) + (1.0 - beta) * row
            slot["col"] = beta * slot.get("col", 0.0) + (1.0 - beta) * col
            row_sum = slot["row"].sum()
            if row_sum > 0.0:
                v = np.multiply.outer(slot["row"], slot["col"]) / row_sum
            else:
                v = np.zeros_like(g2)
        else:
            slot["v"] = beta * slot.get("v", 0.0) + (1.0 - beta) * g2
            v = slot["v"]
        u = g / np.sqrt(v + eps)
        rms = math.sqrt(float(np.mean(u * u)))
        u /= max(1.0, rms / clip_threshold)
        p -= lr * u
    return params, state


@dataclass
class AdamState:
    step: int = 0
    slots: dict[str, dict[str, np.ndarray]] = field(default_factory=dict)


# elements per block of the Adam updates: 128 KiB of float64 per operand, so
# a block's operands and temporaries stay in a core's L2 cache
_BLOCK = 16_384


def _adam_blocks(p, g, slot):
    """Matching (p, g, m, v) pieces covering one tensor, for an update in
    place. The m and v slots are allocated C-contiguous (zeros) on first use,
    and from then on only written into. Pieces are blocks of _BLOCK elements
    of flat views; where a flat view of any operand would be a copy (a
    transposed parameter or gradient), the whole arrays are the one piece."""
    for key in ("m", "v"):
        if key not in slot:
            slot[key] = np.zeros(p.shape)
    arrays = (p, g, slot["m"], slot["v"])
    if not all(a.flags.c_contiguous for a in arrays):
        yield arrays
        return
    flat = [a.reshape(-1) for a in arrays]
    for i in range(0, p.size, _BLOCK):
        yield tuple(a[i:i + _BLOCK] for a in flat)


def _adam_moments(m, v, g, betas) -> None:
    """m = b1 * m + (1 - b1) * g and v = b2 * v + (1 - b2) * g * g, in place."""
    b1, b2 = betas
    m *= b1
    m += (1.0 - b1) * g
    v *= b2
    v += (1.0 - b2) * g * g


def adamw_step(params: dict[str, np.ndarray], grads: dict[str, np.ndarray],
               state: AdamState, lr: float, *, betas=(0.9, 0.999),
               eps: float = 1e-8, weight_decay: float = 0.01, mask=None):
    """Bias-corrected Adam with decoupled weight decay, applied to the
    parameters before the moment-based update term. Parameters and the m/v
    slots are updated in place, one block at a time."""
    state.step += 1
    t = state.step
    b1, b2 = betas
    c1 = 1.0 - b1 ** t
    c2 = 1.0 - b2 ** t
    for name, p, g in _trainable_grads(params, grads, mask):
        for pb, gb, m, v in _adam_blocks(p, g, state.slots.setdefault(name, {})):
            pb -= lr * weight_decay * pb
            _adam_moments(m, v, gb, betas)
            pb -= lr * (m / c1) / (np.sqrt(v / c2) + eps)
    return params, state


def _radam_rho_inf(b2: float) -> float:
    return 2.0 / (1.0 - b2) - 1.0


def radam_step(params: dict[str, np.ndarray], grads: dict[str, np.ndarray],
               state: AdamState, lr: float, *, betas=(0.9, 0.999),
               eps: float = 1e-8, mask=None):
    """Rectified Adam: while the variance-rectification length rho_t <= 4 the
    update uses bias-corrected momentum only; afterwards the rectified
    adaptive step applies. Converges to Adam as t grows. Parameters and the
    m/v slots are updated in place, one block at a time."""
    state.step += 1
    t = state.step
    b1, b2 = betas
    c1 = 1.0 - b1 ** t
    c2 = 1.0 - b2 ** t
    rho_inf = _radam_rho_inf(b2)
    rho_t = rho_inf - 2.0 * t * b2 ** t / c2
    if rho_t > 4.0:
        rect = math.sqrt(((rho_t - 4.0) * (rho_t - 2.0) * rho_inf)
                         / ((rho_inf - 4.0) * (rho_inf - 2.0) * rho_t))
    else:
        rect = None
    for name, p, g in _trainable_grads(params, grads, mask):
        for pb, gb, m, v in _adam_blocks(p, g, state.slots.setdefault(name, {})):
            _adam_moments(m, v, gb, betas)
            m_hat = m / c1
            if rect is None:
                pb -= lr * m_hat
            else:
                pb -= lr * rect * m_hat / (np.sqrt(v / c2) + eps)
    return params, state


def slot_shapes(kind: str, shape: tuple[int, ...]) -> dict[str, tuple[int, ...]]:
    """The state slots that `kind`'s step keeps for a parameter of this
    shape, with the shape each slot takes."""
    if kind == "adafactor":
        return {"row": shape[:-1], "col": shape[-1:]} if len(shape) >= 2 else {"v": shape}
    if kind in ("adamw", "radam"):
        return {"m": shape, "v": shape}
    raise ValueError(f"unknown optimizer {kind!r}")


def make_optimizer(kind: str, lr: float):
    """Returns (state, step_fn(params, grads, mask)) for a configured optimizer."""
    # built per call, so a step function rebound on this module (as
    # perfbench's tracer does) is the one that runs
    table = {"adafactor": (AdafactorState, adafactor_step),
             "adamw": (AdamState, adamw_step),
             "radam": (AdamState, radam_step)}
    if kind.lower() not in table:
        raise ValueError(f"unknown optimizer {kind!r}")
    state_cls, step = table[kind.lower()]
    state = state_cls()
    return state, lambda p, g, m=None: step(p, g, state, lr, mask=m)
