"""The per-layer tracer in perfbench/tracing.py wraps minit5 functions by
name. It is read here as source, never imported, so that a renamed or
removed traced name fails a test instead of crashing a traced benchmark run."""

import ast
import importlib
import inspect
import os

import numpy as np

from minit5 import optim, train

TRACING = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                       "perfbench", "tracing.py")


def _tree():
    with open(TRACING, encoding="utf-8") as fh:
        return ast.parse(fh.read(), filename=TRACING)


def _targets():
    for node in ast.walk(_tree()):
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "TARGETS" for t in node.targets):
            return [(e.elts[0].value, e.elts[1].value) for e in node.value.elts]
    raise AssertionError("no TARGETS in perfbench/tracing.py")


def test_every_traced_target_resolves():
    targets = _targets()
    assert len(targets) > 30
    for module, name in targets:
        fn = getattr(importlib.import_module(f"minit5.{module}"), name, None)
        assert callable(fn), f"minit5.{module}.{name}"


def test_every_module_attribute_the_tracer_reads_resolves():
    """install() reaches into minit5 modules it imports, for example
    train._train_loop and unigram.UnigramVocab."""
    tree = _tree()
    modules = {alias.asname or alias.name for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and node.module == "minit5"
               for alias in node.names}
    assert {"train", "unigram"} <= modules
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) \
                and node.value.id in modules:
            module = importlib.import_module(f"minit5.{node.value.id}")
            assert hasattr(module, node.attr), f"minit5.{node.value.id}.{node.attr}"


def test_train_loop_keeps_the_parameters_the_tracer_wraps():
    wrappers = [node for node in ast.walk(_tree())
                if isinstance(node, ast.FunctionDef) and node.name == "train_loop"]
    assert len(wrappers) == 1
    wrapped = [a.arg for a in wrappers[0].args.args]
    assert wrapped == ["params", "items", "objective", "cfg", "mask", "val_fn"]
    actual = list(inspect.signature(train._train_loop).parameters)
    assert actual[:len(wrapped)] == wrapped


def test_optimizer_step_is_looked_up_on_the_module(monkeypatch):
    """make_optimizer calls the step function bound on minit5.optim when it
    is made, so a tracer that rebinds the name sees every step."""
    calls = []
    step = optim.adamw_step

    def counted(*args, **kwargs):
        calls.append(1)
        return step(*args, **kwargs)

    monkeypatch.setattr(optim, "adamw_step", counted)
    state, step_fn = optim.make_optimizer("adamw", 1e-3)
    step_fn({"w": np.ones(3)}, {"w": np.ones(3)})
    assert calls == [1] and state.step == 1


def test_every_optimizer_step_is_a_traced_target():
    """make_optimizer runs optim.<name>_step for each name in OPTIMIZERS, and
    the tracer sees only the steps it wraps by that name."""
    targets = _targets()
    for name in optim.OPTIMIZERS:
        assert ("optim", f"{name}_step") in targets, name
