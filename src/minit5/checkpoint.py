"""Binary checkpoint container.

Layout (little-endian): magic "SQFG", version u32, u32-length-prefixed JSON
model config, tensor count u32, then per tensor: name (u16 length + UTF-8),
rank u8, dims u32 each, float32 data row-major. Tensors are written sorted by
name so identical parameters always produce identical bytes; save(load(x))
round-trips bit-exactly. Saving replaces the file atomically.

Optimizer state rides in the same container under "opt/" name prefixes.
"""

from __future__ import annotations

import json
import math
import struct

import numpy as np

from .atomic import atomic_write, read_binary
from .model import ModelConfig, ModelParams, tensor_shapes
from .optim import OptimizerState, check_optimizer, slot_shapes

MAGIC = b"SQFG"
VERSION = 1


def _write_tensor(fh, name: str, arr: np.ndarray) -> None:
    nbytes = name.encode("utf-8")
    fh.write(struct.pack("<H", len(nbytes)))
    fh.write(nbytes)
    fh.write(struct.pack("<B", arr.ndim))
    fh.write(struct.pack(f"<{arr.ndim}I", *arr.shape))
    fh.write(np.ascontiguousarray(arr, dtype="<f4").tobytes())


def _read_tensor(take) -> tuple[str, np.ndarray]:
    (nlen,) = take("<H")
    name = str(take(nlen), "utf-8")
    (rank,) = take("<B")
    dims = take(f"<{rank}I")
    count = math.prod(dims)
    data = np.frombuffer(take(4 * count), dtype="<f4").reshape(dims)
    return name, data.astype(np.float64)


def _check_shapes(path, tensors: dict[str, np.ndarray], want: dict) -> None:
    """The model tensors must be exactly the ones their config builds."""
    for name in sorted(want.keys() | tensors.keys()):
        if name not in tensors:
            raise ValueError(f"{path}: missing tensor {name!r}")
        if name not in want:
            raise ValueError(f"{path}: unexpected tensor {name!r}")
        if tensors[name].shape != want[name]:
            raise ValueError(f"{path}: tensor {name!r} has shape "
                             f"{tensors[name].shape}, its config builds {want[name]}")


def _state_tensors(opt_state) -> dict[str, np.ndarray]:
    out = {"opt/step": np.array([opt_state.step], dtype=np.float64)}
    for name, slot in opt_state.slots.items():
        for key, arr in slot.items():
            out[f"opt/{key}/{name}"] = np.asarray(arr, dtype=np.float64)
    return out


def save_checkpoint(path: str, params: ModelParams, opt_state=None) -> None:
    tensors = dict(params.tensors)
    if opt_state is not None:
        tensors.update(_state_tensors(opt_state))
    cfg_bytes = json.dumps(params.cfg.to_dict(), sort_keys=True,
                           separators=(",", ":")).encode("utf-8")
    with atomic_write(path, binary=True) as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", VERSION))
        fh.write(struct.pack("<I", len(cfg_bytes)))
        fh.write(cfg_bytes)
        fh.write(struct.pack("<I", len(tensors)))
        for name in sorted(tensors):
            _write_tensor(fh, name, tensors[name])


def load_checkpoint(path: str, optimizer: str | None = None):
    """Returns ModelParams, or (ModelParams, opt_state) when an optimizer kind
    is given. The optimizer tensors must be opt/step and opt/<slot>/<param>
    slots of the shapes that kind's step builds (optim.slot_shapes)."""
    take, finish = read_binary(path, "checkpoint")
    if take(4) != MAGIC:
        raise ValueError(f"{path}: not a checkpoint file")
    (version,) = take("<I")
    if version != VERSION:
        raise ValueError(f"{path}: unsupported checkpoint version {version}")
    (clen,) = take("<I")
    cfg_bytes = take(clen)
    try:
        cfg = ModelConfig.from_dict(json.loads(str(cfg_bytes, "utf-8")))
    except ValueError as exc:  # not JSON, or not a valid ModelConfig
        raise ValueError(f"{path}: bad model config: {exc}") from exc
    (count,) = take("<I")
    tensors = dict(_read_tensor(take) for _ in range(count))
    finish(f"{count} tensors")
    model_tensors = {k: v for k, v in tensors.items() if not k.startswith("opt/")}
    _check_shapes(path, model_tensors, tensor_shapes(cfg))
    params = ModelParams(cfg, model_tensors)
    if optimizer is None:
        return params
    check_optimizer(optimizer)
    state = OptimizerState()
    for key in sorted(tensors.keys() - model_tensors.keys()):
        arr = tensors[key]
        if key == "opt/step":
            if arr.shape != (1,) or not (arr[0] >= 0 and float(arr[0]).is_integer()):
                raise ValueError(f"{path}: 'opt/step' must hold one step count")
            state.step = int(arr[0])
            continue
        slot_key, _, name = key[len("opt/"):].partition("/")
        if name not in model_tensors:
            raise ValueError(f"{path}: optimizer tensor {key!r} is not opt/step "
                             "or opt/<slot>/<model tensor>")
        want = slot_shapes(optimizer, model_tensors[name].shape)
        if slot_key not in want:
            raise ValueError(f"{path}: {optimizer} keeps no slot {slot_key!r} "
                             f"for {name!r}")
        if arr.shape != want[slot_key]:
            raise ValueError(f"{path}: optimizer tensor {key!r} has shape "
                             f"{arr.shape}, its step builds {want[slot_key]}")
        state.slots.setdefault(name, {})[slot_key] = arr
    return params, state
