import math
import tracemalloc

import numpy as np
import pytest

from minit5.optim import (_BLOCK, AdafactorState, AdamState, DivergedError,
                          adafactor_step, adamw_step, make_optimizer,
                          radam_step)
from oracles import reference_adamw_step, reference_radam_step


class TestAdafactor:
    def test_rank_one_second_moment_is_exact(self):
        u = np.array([1.0, 2.0, 3.0])
        v = np.array([0.5, 4.0])
        g = np.sqrt(np.outer(u * u, v * v))  # g*g has rank one
        state = AdafactorState()
        adafactor_step({"w": np.zeros((3, 2))}, {"w": g}, state, lr=0.1)
        slot = state.slots["w"]
        reconstructed = np.outer(slot["row"], slot["col"]) / slot["row"].sum()
        assert np.allclose(reconstructed, g * g, rtol=1e-12)

    def test_scalar_constant_grad_update_converges_to_lr(self):
        params = {"s": np.array([0.0])}
        state = AdafactorState()
        grad = {"s": np.array([0.7])}
        for _ in range(300):
            before = params["s"].copy()
            adafactor_step(params, grad, state, lr=0.01)
        assert abs(params["s"][0] - before[0]) == pytest.approx(0.01, rel=1e-6)

    def test_three_step_trace_matches_scripted_recurrence(self):
        rng = np.random.default_rng(0)
        grads = [rng.normal(0, 1, (2, 2)) for _ in range(3)]
        lr, eps, clip, decay_exp = 0.05, 1e-30, 1.0, -0.8
        params = {"w": rng.normal(0, 1, (2, 2))}
        start = params["w"].copy()
        state = AdafactorState()
        for g in grads:
            adafactor_step(params, {"w": g}, state, lr=lr)
        # straight-line oracle of the documented recurrences
        w = start.copy()
        row = np.zeros(2)
        col = np.zeros(2)
        for t, g in enumerate(grads, start=1):
            beta = 1.0 - t ** decay_exp
            g2 = g * g
            row = beta * row + (1 - beta) * g2.sum(axis=1)
            col = beta * col + (1 - beta) * g2.sum(axis=0)
            vhat = np.outer(row, col) / row.sum()
            upd = g / np.sqrt(vhat + eps)
            rms = math.sqrt((upd * upd).mean())
            upd = upd / max(1.0, rms / clip)
            w = w - lr * upd
        assert np.max(np.abs(params["w"] - w)) < 1e-12

    def test_memory_is_row_plus_col(self):
        state = AdafactorState()
        adafactor_step({"w": np.zeros((5, 9))},
                       {"w": np.ones((5, 9))}, state, lr=0.1)
        slot = state.slots["w"]
        assert set(slot) == {"row", "col"}
        assert slot["row"].size + slot["col"].size == 5 + 9

    def test_vector_uses_full_second_moment(self):
        state = AdafactorState()
        adafactor_step({"b": np.zeros(7)}, {"b": np.ones(7)}, state, lr=0.1)
        assert set(state.slots["b"]) == {"v"}
        assert state.slots["b"]["v"].shape == (7,)

    def test_diverged(self):
        with pytest.raises(DivergedError, match="diverged"):
            adafactor_step({"w": np.zeros(2)}, {"w": np.array([1.0, np.nan])},
                           AdafactorState(), lr=0.1)


class TestAdamW:
    def test_first_step_is_lr_sign(self):
        params = {"w": np.array([1.0, -2.0])}
        adamw_step(params, {"w": np.array([0.3, -0.4])}, AdamState(),
                   lr=1e-3, weight_decay=0.0)
        assert np.allclose(params["w"], [1.0 - 1e-3 * (0.3 / (0.3 + 1e-8)),
                                         -2.0 + 1e-3 * (0.4 / (0.4 + 1e-8))],
                           rtol=1e-12)

    def test_zero_grad_zero_decay_unchanged(self):
        params = {"w": np.array([1.5, -2.5])}
        adamw_step(params, {"w": np.zeros(2)}, AdamState(), lr=1e-3,
                   weight_decay=0.0)
        assert np.array_equal(params["w"], [1.5, -2.5])

    def test_decay_applied_before_update(self):
        params = {"w": np.array([2.0])}
        adamw_step(params, {"w": np.zeros(1)}, AdamState(), lr=0.1,
                   weight_decay=0.5)
        assert params["w"][0] == pytest.approx(2.0 - 0.1 * 0.5 * 2.0)

    def test_five_step_trace_matches_scripted_recurrence(self):
        rng = np.random.default_rng(1)
        grads = [rng.normal(0, 1, 4) for _ in range(5)]
        lr, b1, b2, eps, wd = 2e-3, 0.9, 0.999, 1e-8, 0.01
        params = {"w": rng.normal(0, 1, 4)}
        w = params["w"].copy()
        state = AdamState()
        for g in grads:
            adamw_step(params, {"w": g}, state, lr=lr, weight_decay=wd)
        m = np.zeros(4)
        v = np.zeros(4)
        for t, g in enumerate(grads, start=1):
            w = w - lr * wd * w
            m = b1 * m + (1 - b1) * g
            v = b2 * v + (1 - b2) * g * g
            mhat = m / (1 - b1 ** t)
            vhat = v / (1 - b2 ** t)
            w = w - lr * mhat / (np.sqrt(vhat) + eps)
        assert np.max(np.abs(params["w"] - w)) < 1e-12


class TestRAdam:
    def test_first_step_is_momentum_only(self):
        params = {"w": np.array([5.0])}
        radam_step(params, {"w": np.array([2.0])}, AdamState(), lr=0.01)
        # t=1: rho_1 = 1 <= 4, so update is -lr * bias-corrected momentum = -lr*g
        assert params["w"][0] == pytest.approx(5.0 - 0.01 * 2.0, rel=1e-12)

    def test_rectification_approaches_adam(self):
        # the per-step update converges to Adam's (zero decay) as t grows
        rng = np.random.default_rng(2)
        g = rng.normal(0, 1, 3)
        pr = {"w": np.zeros(3)}
        pa = {"w": np.zeros(3)}
        sr, sa = AdamState(), AdamState()
        gaps = []
        for t in range(20_000):
            br, ba = pr["w"].copy(), pa["w"].copy()
            radam_step(pr, {"w": g}, sr, lr=1e-4)
            adamw_step(pa, {"w": g}, sa, lr=1e-4, weight_decay=0.0)
            if t in (99, 19_999):
                ratio = (pr["w"] - br) / (pa["w"] - ba)
                gaps.append(float(np.max(np.abs(ratio - 1.0))))
        assert gaps[-1] < 1e-3
        assert gaps[-1] < gaps[0]

    def test_ten_step_trace_matches_scripted_recurrence(self):
        rng = np.random.default_rng(3)
        grads = [rng.normal(0, 1, 3) for _ in range(10)]
        lr, b1, b2, eps = 1e-3, 0.9, 0.999, 1e-8
        params = {"w": rng.normal(0, 1, 3)}
        w = params["w"].copy()
        state = AdamState()
        for g in grads:
            radam_step(params, {"w": g}, state, lr=lr)
        m = np.zeros(3)
        v = np.zeros(3)
        rho_inf = 2.0 / (1 - b2) - 1.0
        for t, g in enumerate(grads, start=1):
            m = b1 * m + (1 - b1) * g
            v = b2 * v + (1 - b2) * g * g
            mhat = m / (1 - b1 ** t)
            rho_t = rho_inf - 2 * t * b2 ** t / (1 - b2 ** t)
            if rho_t > 4.0:
                rect = math.sqrt(((rho_t - 4) * (rho_t - 2) * rho_inf)
                                 / ((rho_inf - 4) * (rho_inf - 2) * rho_t))
                w = w - lr * rect * mhat / (np.sqrt(v / (1 - b2 ** t)) + eps)
            else:
                w = w - lr * mhat
        assert np.max(np.abs(params["w"] - w)) < 1e-12


class TestSharedContracts:
    @pytest.mark.parametrize("kind", ["adafactor", "adamw", "radam"])
    def test_trainable_mask_freezes_bit_exact(self, kind):
        rng = np.random.default_rng(4)
        params = {"a": rng.normal(0, 1, (3, 3)), "b": rng.normal(0, 1, 5)}
        frozen = {k: v.copy() for k, v in params.items()}
        grads = {"a": rng.normal(0, 1, (3, 3)), "b": rng.normal(0, 1, 5)}
        state, step = make_optimizer(kind, 1e-2)
        for _ in range(3):
            step(params, grads, {"a": False, "b": True})
        assert np.array_equal(params["a"], frozen["a"])
        assert "a" not in state.slots
        assert not np.array_equal(params["b"], frozen["b"])

    @pytest.mark.parametrize("kind", ["adafactor", "adamw", "radam"])
    def test_step_counter_and_state_shapes(self, kind):
        rng = np.random.default_rng(5)
        params = {"w": rng.normal(0, 1, (4, 6))}
        state, step = make_optimizer(kind, 1e-3)
        for t in range(1, 6):
            step(params, {"w": rng.normal(0, 1, (4, 6))})
            assert state.step == t
        for slot in state.slots.values():
            for arr in slot.values():
                assert np.all(np.asarray(arr) >= 0) or kind != "adafactor"

    @pytest.mark.parametrize("kind", ["adafactor", "adamw", "radam"])
    def test_convex_quadratic_monotone_after_burn_in(self, kind):
        A = np.diag([1.0, 3.0])
        b = np.array([1.0, -2.0])
        x = {"x": np.array([4.0, -3.0])}
        state, step = make_optimizer(kind, 1e-2)
        losses = []
        for _ in range(200):
            g = A @ x["x"] - b
            losses.append(0.5 * x["x"] @ A @ x["x"] - b @ x["x"])
            step(x, {"x": g})
        assert all(l2 <= l1 + 1e-12 for l1, l2 in zip(losses[10:], losses[11:]))


class TestBlockSteps:
    """adamw_step and radam_step update in place, one block at a time; every
    parameter and slot byte equals the whole-tensor steps in tests/oracles.py."""

    STEPS = {"adamw": (adamw_step, reference_adamw_step),
             "radam": (radam_step, reference_radam_step)}

    @staticmethod
    def _grads(shapes, n, seed=6):
        rng = np.random.default_rng(seed)
        return [{k: rng.normal(0, 1, s) for k, s in shapes.items()} for _ in range(n)]

    @staticmethod
    def _assert_same_bytes(params, ref_params, state, ref_state):
        for name in ref_params:
            assert params[name].tobytes() == ref_params[name].tobytes(), name
        assert state.slots.keys() == ref_state.slots.keys()
        for name, slot in ref_state.slots.items():
            for key in ("m", "v"):
                assert state.slots[name][key].tobytes() == slot[key].tobytes(), (name, key)

    def _run_both(self, kind, params, grads_seq, mask=None, state=None, ref_state=None):
        step, reference = self.STEPS[kind]
        ref_params = {k: v.copy() for k, v in params.items()}
        state = state if state is not None else AdamState()
        ref_state = ref_state if ref_state is not None else AdamState()
        for grads in grads_seq:
            step(params, grads, state, 1e-3, mask=mask)
            reference(ref_params, grads, ref_state, 1e-3, mask=mask)
        self._assert_same_bytes(params, ref_params, state, ref_state)
        return state

    @pytest.mark.parametrize("kind", ["adamw", "radam"])
    @pytest.mark.parametrize("size", [1, 7, 4096, _BLOCK, 512_000])
    def test_twelve_steps_equal_the_whole_tensor_step(self, kind, size):
        # twelve steps cover both RAdam phases: rho_t passes 4 at step 5
        shapes = {"w": (size,), "b": (3,)}
        params = {k: v * 10 for k, v in self._grads(shapes, 1, seed=7)[0].items()}
        self._run_both(kind, params, self._grads(shapes, 12))

    @pytest.mark.parametrize("kind", ["adamw", "radam"])
    def test_transposed_parameter_and_gradient(self, kind):
        rng = np.random.default_rng(8)
        params = {"w": rng.normal(0, 1, (300, 70)).T}
        grads_seq = [{"w": g.T} for g in rng.normal(0, 1, (12, 300, 70))]
        assert not params["w"].flags.c_contiguous
        self._run_both(kind, params, grads_seq)

    @pytest.mark.parametrize("kind", ["adamw", "radam"])
    def test_frozen_tensor_under_a_mask(self, kind):
        shapes = {"a": (50, 40), "b": (_BLOCK + 5,)}
        params = self._grads(shapes, 1, seed=9)[0]
        frozen = params["a"].copy()
        state = self._run_both(kind, params, self._grads(shapes, 12),
                               mask={"a": False, "b": True})
        assert params["a"].tobytes() == frozen.tobytes()
        assert "a" not in state.slots

    @pytest.mark.parametrize("kind", ["adamw", "radam"])
    def test_state_reloaded_from_a_checkpoint(self, kind, tmp_path):
        from minit5.checkpoint import load_checkpoint, save_checkpoint
        from minit5.model import ModelConfig, init_model
        cfg = ModelConfig(vocab_size=20, d_model=16, n_heads=2, d_ff=24,
                          n_enc_layers=1, n_dec_layers=1, max_len=8)
        model = init_model(cfg, seed=0)
        shapes = {k: v.shape for k, v in model.tensors.items()}
        grads_seq = self._grads(shapes, 12)
        step, _ = self.STEPS[kind]
        state = AdamState()
        for grads in grads_seq[:5]:
            step(model.tensors, grads, state, 1e-3)
        path = tmp_path / "opt.bin"
        save_checkpoint(path, model, opt_state=state)
        loaded, loaded_state = load_checkpoint(path, optimizer=kind)
        _, ref_state = load_checkpoint(path, optimizer=kind)
        assert loaded_state.step == 5
        self._run_both(kind, loaded.tensors, grads_seq[5:], state=loaded_state,
                       ref_state=ref_state)

    @pytest.mark.parametrize("kind", ["adamw", "radam"])
    def test_slots_keep_their_identity(self, kind):
        shapes = {"w": (2 * _BLOCK + 3,), "t": (4, 5)}
        params = self._grads(shapes, 1, seed=10)[0]
        state, step = make_optimizer(kind, 1e-3)
        grads_seq = self._grads(shapes, 3)
        step(params, grads_seq[0])
        slots = {name: dict(slot) for name, slot in state.slots.items()}
        for grads in grads_seq[1:]:
            step(params, grads)
        for name, slot in slots.items():
            for key, arr in slot.items():
                assert state.slots[name][key] is arr
                assert arr.flags.c_contiguous

    @pytest.mark.parametrize("kind", ["adamw", "radam"])
    def test_a_later_step_allocates_no_parameter_sized_array(self, kind):
        rng = np.random.default_rng(11)
        params = {"tok_emb": rng.normal(0, 1, (8000, 64))}
        grads = {"tok_emb": rng.normal(0, 1, (8000, 64))}
        state, step = make_optimizer(kind, 1e-3)
        step(params, grads)
        tracemalloc.start()
        try:
            step(params, grads)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < params["tok_emb"].nbytes  # 4 MiB
