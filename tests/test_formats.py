"""The one value rule of every text output, the report and log writers built
on it against their old bodies (oracles.py), and the length-checked binary
reader."""

import argparse
import random
import re
import struct

import pytest

from minit5 import cli
from minit5.atomic import format_rows, format_value, read_binary
from minit5.corpus import CorpusStats, format_stats_report
from minit5.metrics import ClassScore, format_pair_task_report
from minit5.ner import CLASSES, NerReport, format_ner_report
from minit5.train import EpochRecord, TrainLog, write_curve, write_train_log

from oracles import (reference_evaluate_stdout, reference_format_ner_report,
                     reference_format_pair_task_report,
                     reference_format_stats_report, reference_with_counts,
                     reference_write_curve, reference_write_train_log)

SPECIAL_FLOATS = [float("nan"), float("inf"), float("-inf"), -0.0, 0.0, 1e300,
                  -1e-300, 0.5, 2.0 / 3.0, 1234567.8912345]
BIG_INTS = [0, 1, 7, 2**31, 2**64 - 1, 10**30]


def _float(rng):
    return rng.choice(SPECIAL_FLOATS) if rng.random() < 0.5 else rng.uniform(-1e6, 1e6)


def _maybe_float(rng):
    return None if rng.random() < 0.3 else _float(rng)


def _int(rng):
    return rng.choice(BIG_INTS) if rng.random() < 0.5 else rng.randrange(10**6)


def test_value_rule():
    assert [format_value(v) for v in (None, 3, 2**64, True, "Person")] == \
        ["-", "3", "18446744073709551616", "True", "Person"]
    assert [format_value(v) for v in (0.5, -0.0, float("nan"), float("inf"), 2.0)] == \
        ["0.500000", "-0.000000", "nan", "inf", "2.000000"]
    assert format_rows([("a", 1.0), ("b", None)], "=") == "a=1.000000\nb=-\n"
    assert format_rows([("x", 1, 0.25)]) == "x\t1\t0.250000\n"


@pytest.mark.parametrize("n_epochs", [0, 1, 2, 7])
def test_train_log_and_curve_equal_the_old_writers(tmp_path, n_epochs):
    rng = random.Random(n_epochs)
    for trial in range(20):
        log = TrainLog([EpochRecord(_int(rng), _float(rng), _maybe_float(rng),
                                    _maybe_float(rng), _maybe_float(rng))
                        for _ in range(n_epochs)],
                       best_epoch=None if rng.random() < 0.3 else _int(rng))
        for new, old in ((write_train_log, reference_write_train_log),
                         (write_curve, reference_write_curve)):
            new(tmp_path / "new.tsv", log)
            old(tmp_path / "old.tsv", log)
            assert (tmp_path / "new.tsv").read_bytes() == \
                (tmp_path / "old.tsv").read_bytes(), (new.__name__, trial)


def test_pair_task_report_equals_the_old_report_and_counts():
    """Byte for byte wherever a metric is present, as in every report the
    program writes. With all four absent the old report opened with a blank
    line, which the new one does not write."""
    assert format_pair_task_report(None, None, None, None) == "-\t-\t-\t-\n"
    assert reference_format_pair_task_report(None, None, None, None) == "\n-\t-\t-\t-\n"
    rng = random.Random(0)
    for _ in range(500):
        values = [_maybe_float(rng) for _ in range(4)]
        if values == [None] * 4:
            continue
        unparsed = None if rng.random() < 0.5 else _int(rng)
        want = reference_format_pair_task_report(*values)
        if unparsed is not None:
            want = reference_with_counts(want, unparsed_scores=unparsed)
        assert format_pair_task_report(*values, unparsed) == want


def test_ner_report_equals_the_old_report_and_counts():
    rng = random.Random(1)

    def score():
        return ClassScore(_float(rng), _float(rng), _float(rng),
                          _int(rng), _int(rng), _int(rng))

    for _ in range(300):
        report = NerReport(per_class={cls: score() for cls in CLASSES}, micro=score())
        malformed = _int(rng)
        want = reference_with_counts(reference_format_ner_report(report, CLASSES),
                                     malformed_windows=malformed)
        assert format_ner_report(report, malformed) == want


def test_stats_report_equals_the_old_report():
    rng = random.Random(2)
    for _ in range(300):
        stats = CorpusStats(_int(rng), _int(rng), _float(rng), _float(rng))
        assert format_stats_report(stats) == reference_format_stats_report(stats)


def test_evaluate_stdout_equals_the_old_printer(monkeypatch, capsys):
    """evaluate prints the float and int values of its report, skipping the
    per-class dict of an NER report."""
    rng = random.Random(3)
    monkeypatch.setattr(cli, "_run_config", lambda args: None)
    monkeypatch.setattr(cli, "load_checkpoint", lambda path: None)
    for _ in range(200):
        report = {f"k{i}": rng.choice([_float(rng), _int(rng), True, None,
                                       {"Person": 1.0}])
                  for i in range(rng.randrange(6))}
        monkeypatch.setattr(cli, "run_evaluate", lambda cfg, params, split: report)
        cli._cmd_evaluate(argparse.Namespace(checkpoint="c.bin", split="test"))
        assert capsys.readouterr().out == reference_evaluate_stdout(report)


class TestReadBinary:
    def test_fields_then_end(self, tmp_path):
        path = tmp_path / "f.bin"
        path.write_bytes(struct.pack("<4sIH", b"ABCD", 7, 2) + b"xy")
        take, finish = read_binary(path, "thing")
        assert take("<4sI") == (b"ABCD", 7)
        (n,) = take("<H")
        assert bytes(take(n)) == b"xy"
        finish("3 fields")

    @pytest.mark.parametrize("fmt", ["<Q", "<9s", 8, 2**70])
    def test_a_field_past_the_end_is_truncated(self, tmp_path, fmt):
        path = tmp_path / "f.bin"
        path.write_bytes(b"12345678")
        take, _ = read_binary(path, "thing")
        take("<B")
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: truncated thing$"):
            take(fmt)

    def test_bytes_after_the_last_field(self, tmp_path):
        path = tmp_path / "f.bin"
        path.write_bytes(b"12345")
        take, finish = read_binary(path, "thing")
        take("<H")
        with pytest.raises(ValueError, match=re.escape(
                f"{path}: 3 bytes after the last of 1 field")):
            finish("1 field")
