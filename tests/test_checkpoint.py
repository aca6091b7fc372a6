import re

import numpy as np
import pytest

from minit5.checkpoint import MAGIC, load_checkpoint, save_checkpoint
from minit5.model import ModelConfig, init_model
from minit5.optim import AdafactorState, AdamState, adafactor_step, adamw_step

CFG = ModelConfig(vocab_size=20, d_model=16, n_heads=2, d_ff=24,
                  n_enc_layers=1, n_dec_layers=1, max_len=8)


def test_magic_and_reject_garbage(tmp_path):
    path = tmp_path / "m.bin"
    save_checkpoint(path, init_model(CFG, seed=0))
    assert path.read_bytes()[:4] == MAGIC
    bad = tmp_path / "bad.bin"
    bad.write_bytes(b"NOPE" + path.read_bytes()[4:])
    with pytest.raises(ValueError, match="not a checkpoint"):
        load_checkpoint(bad)


TINY = ModelConfig(vocab_size=5, d_model=2, n_heads=1, d_ff=2,
                   n_enc_layers=1, n_dec_layers=1, max_len=2)


def test_every_truncation_raises_value_error(tmp_path):
    save_checkpoint(tmp_path / "t.bin", init_model(TINY, seed=0))
    data = (tmp_path / "t.bin").read_bytes()
    cut = tmp_path / "cut.bin"
    for n in range(len(data)):
        cut.write_bytes(data[:n])
        with pytest.raises(ValueError, match="truncated checkpoint"):
            load_checkpoint(cut)


def test_bytes_after_the_last_tensor_raise_value_error_naming_the_file(tmp_path):
    params = init_model(TINY, seed=0)
    save_checkpoint(tmp_path / "t.bin", params)
    data = (tmp_path / "t.bin").read_bytes()
    padded = tmp_path / "padded.bin"
    for n in range(1, 5):
        padded.write_bytes(data + b"\0" * n)
        with pytest.raises(ValueError, match=re.escape(
                f"{padded}: {n} bytes after the last of {len(params.tensors)} tensors")):
            load_checkpoint(padded)


def test_save_load_save_round_trips_bit_exact(tmp_path):
    params = init_model(CFG, seed=1)
    p1 = tmp_path / "a.bin"
    p2 = tmp_path / "b.bin"
    save_checkpoint(p1, params)
    loaded = load_checkpoint(p1)
    assert loaded.cfg == params.cfg
    save_checkpoint(p2, loaded)
    assert p1.read_bytes() == p2.read_bytes()


def test_values_survive_at_float32_precision(tmp_path):
    params = init_model(CFG, seed=2)
    path = tmp_path / "c.bin"
    save_checkpoint(path, params)
    loaded = load_checkpoint(path)
    for name, arr in params.tensors.items():
        assert np.array_equal(loaded.tensors[name],
                              arr.astype(np.float32).astype(np.float64)), name


def test_identical_params_identical_bytes(tmp_path):
    p1 = tmp_path / "a.bin"
    p2 = tmp_path / "b.bin"
    save_checkpoint(p1, init_model(CFG, seed=3))
    save_checkpoint(p2, init_model(CFG, seed=3))
    assert p1.read_bytes() == p2.read_bytes()


@pytest.mark.parametrize("kind,state_cls,step", [
    ("adafactor", AdafactorState, adafactor_step),
    ("adamw", AdamState, adamw_step),
])
def test_optimizer_state_round_trip(tmp_path, kind, state_cls, step):
    params = init_model(CFG, seed=4)
    state = state_cls()
    grads = {k: np.ones_like(v) * 0.01 for k, v in params.tensors.items()}
    for _ in range(3):
        step(params.tensors, grads, state, lr=1e-3)
    path = tmp_path / "opt.bin"
    save_checkpoint(path, params, opt_state=state)
    loaded_params, loaded_state = load_checkpoint(path, optimizer=kind)
    assert loaded_state.step == 3
    assert loaded_state.slots.keys() == state.slots.keys()
    for name, slot in state.slots.items():
        for key, arr in slot.items():
            want = np.asarray(arr).astype(np.float32).astype(np.float64)
            assert np.array_equal(loaded_state.slots[name][key], want)
    # plain load ignores the optimizer tensors
    plain = load_checkpoint(path)
    assert set(plain.tensors) == set(params.tensors)


@pytest.mark.parametrize("kind,name,shape,message", [
    ("adamw", "opt/x", (1,), "is not opt/step or opt/<slot>/<model tensor>"),
    ("adamw", "opt/m/no.such.tensor", (3,), "is not opt/step or opt/<slot>/<model tensor>"),
    ("adamw", "opt/m/", (3,), "is not opt/step or opt/<slot>/<model tensor>"),
    ("adamw", "opt/row/tok_emb", (20,), "adamw keeps no slot 'row' for 'tok_emb'"),
    ("radam", "opt/col/tok_emb", (16,), "radam keeps no slot 'col' for 'tok_emb'"),
    ("adafactor", "opt/v/tok_emb", (20, 16), "adafactor keeps no slot 'v' for 'tok_emb'"),
    ("adafactor", "opt/row/reg.w", (), "adafactor keeps no slot 'row' for 'reg.w'"),
    ("adamw", "opt/m/tok_emb", (16, 20), "'opt/m/tok_emb' has shape"),
    ("radam", "opt/v/reg.w", (17,), "'opt/v/reg.w' has shape"),
    ("adafactor", "opt/row/tok_emb", (16,), "'opt/row/tok_emb' has shape"),
    ("adafactor", "opt/col/tok_emb", (20,), "'opt/col/tok_emb' has shape"),
    ("adafactor", "opt/v/reg.w", (16, 1), "'opt/v/reg.w' has shape"),
    ("adamw", "opt/step", (2,), "'opt/step' must hold one step count"),
])
def test_malformed_optimizer_tensor_is_value_error_naming_the_file(
        tmp_path, kind, name, shape, message):
    params = init_model(CFG, seed=0)
    path = tmp_path / "opt.bin"
    save_checkpoint(path, type(params)(CFG, {**params.tensors, name: np.zeros(shape)}))
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: .*{re.escape(message)}"):
        load_checkpoint(path, optimizer=kind)
    assert set(load_checkpoint(path).tensors) == set(params.tensors)


@pytest.mark.parametrize("value", [-1.0, 2.5, np.nan, np.inf])
def test_step_count_must_be_a_whole_non_negative_number(tmp_path, value):
    params = init_model(CFG, seed=0)
    path = tmp_path / "opt.bin"
    save_checkpoint(path, type(params)(CFG, {**params.tensors,
                                             "opt/step": np.array([value])}))
    with pytest.raises(ValueError, match="'opt/step' must hold one step count"):
        load_checkpoint(path, optimizer="adamw")


def test_failed_save_keeps_previous_file_and_no_temp(tmp_path, monkeypatch):
    import minit5.checkpoint as checkpoint
    path = tmp_path / "ck.bin"
    save_checkpoint(path, init_model(CFG, seed=0))
    before = path.read_bytes()
    real, calls = checkpoint._write_tensor, []

    def failing(fh, name, arr):
        calls.append(name)
        if len(calls) == 3:
            raise OSError("disk full")
        real(fh, name, arr)

    monkeypatch.setattr(checkpoint, "_write_tensor", failing)
    with pytest.raises(OSError, match="disk full"):
        save_checkpoint(path, init_model(CFG, seed=1))
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["ck.bin"]


def test_atomic_text_write_replaces_whole_or_nothing(tmp_path):
    from minit5.atomic import atomic_write
    path = tmp_path / "eval_test.txt"
    with atomic_write(path) as fh:
        fh.write("mse=1.000000\n")
    with pytest.raises(RuntimeError):
        with atomic_write(path) as fh:
            fh.write("mse=2.0")
            raise RuntimeError("killed mid-write")
    assert path.read_text() == "mse=1.000000\n"
    assert [p.name for p in tmp_path.iterdir()] == ["eval_test.txt"]
    with atomic_write(path) as fh:
        fh.write("mse=3.000000\n")
    assert path.read_text() == "mse=3.000000\n"
