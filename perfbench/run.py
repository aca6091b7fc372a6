"""Benchmark of the minit5 pipeline, driven through ``minit5.cli.main``.

    python3 perfbench/run.py --workload {data,pretrain,ner,pairs,all} \\
                             --seed N --seconds S --trace {0,1}

Run it from the root of a source tree. The workload's inputs are generated
from --seed; set-up runs several times and its median is setup_s. Then passes
of the workload's CLI stages run one after another in this one process, each
into a fresh directory under .perfbench/, for at most --seconds (at least
one pass). Every stage must exit 0 and pass its output checks, and every
pass must write the same bytes as the first. With --trace 0 the end-to-end
metrics are medians over the passes. With --trace 1 untraced and traced
passes alternate; in a traced pass the modules' public functions are wrapped
where they are imported, the per-layer metrics come from those passes, and
the difference in median pass wall time is the tracing overhead. A JSON
record of the run (environment, every metric with its unit, every check, the
output fingerprints) is printed and saved under .perfbench/results/. The
last line printed is the result: {"correct", "attempted", "failed",
"metrics"}. ``--workload all`` runs each workload in its own process and
prints a table of their metrics.

The BLAS thread count is pinned to 1 here, in the launcher, before numpy
loads: with 2 threads the pretrain stage was no faster and noisier.
"""

from __future__ import annotations

import os

BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

# the imports below follow the pin on purpose
import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench")
WORKLOADS = ("data", "pretrain", "ner", "pairs")
SETUP_REPEATS = 5
# the end-to-end metrics every workload reports with --trace 0
END_TO_END = ("setup_s", "wall_s", "peak_rss_mb", "train_loss")
# unit of a per-layer metric, by the end of its name
PER_LAYER_UNITS = (("calls", "count"), ("tokens_out", "count"), ("ms", "ms"),
                   ("ms_p50", "ms"), ("ms_tail", "ms"), ("per_s", "1/s"),
                   ("bytes", "bytes"), ("frac", "ratio"), ("ratio", "ratio"),
                   ("per_decode", "ratio"), ("overhead_s", "s"))


def _stage(argv: list[str]) -> tuple[int, float, str]:
    """Run one CLI stage in-process: (exit code, wall seconds, its output).
    A traceback out of the program is a failed stage with exit code -1."""
    from minit5 import cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
        t0 = time.perf_counter()
        try:
            code = cli.main(argv)
        except Exception:  # noqa: BLE001 - a crash is a measured outcome
            code = -1
            traceback.print_exc()
        wall = time.perf_counter() - t0
    return code, wall, buf.getvalue()


def _fingerprints(out: str) -> dict[str, str]:
    """SHA-256 of every file a pass wrote, except the configs, which name
    the pass directory."""
    prints = {}
    for dirpath, _, files in os.walk(out):
        for name in files:
            if not name.endswith(".cfg"):
                path = os.path.join(dirpath, name)
                with open(path, "rb") as fh:
                    digest = hashlib.sha256(fh.read()).hexdigest()
                prints[os.path.relpath(path, out)] = digest
    return dict(sorted(prints.items()))


def _run_pass(wl, inp, out: str, tracer=None) -> dict:
    os.makedirs(out)
    walls, failed, logs = {}, set(), {}
    for label, argv in wl.stages(inp, out):
        # each stage normally starts in a fresh process: leave no garbage
        # of the previous one behind
        gc.collect()
        subcommand = label.split("/")[0]
        span = tracer.span(f"cli.{subcommand}") if tracer else contextlib.nullcontext()
        with span:
            code, wall, log = _stage(argv)
        walls[label] = wall
        if code != 0:
            failed.add(label)
            logs[label] = f"exit {code}: {log[-2000:]}"
    checks = wl.checks(inp, out)
    failed.update(c.stage for c in checks if not c.ok)
    ok = not failed
    return {"walls": walls, "failed": failed, "logs": logs, "checks": checks,
            "fingerprints": _fingerprints(out),
            "figures": wl.figures(inp, out, walls) if ok else {},
            "train_loss": wl.train_loss(inp, out) if ok else None}


def _git_sha() -> str | None:
    """HEAD of the source tree, read from .git without running git; None in a
    tree that is not a git checkout."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = os.path.join(git, ref)
        if os.path.exists(loose):
            with open(loose, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip("\n").endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def _blas_threads() -> int | None:
    """Thread count the loaded OpenBLAS reports, when it can be asked."""
    import ctypes
    import glob

    import numpy as np

    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                return int(fn())
    return None


def _environment(args) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {"git_sha": _git_sha(), "nproc": os.cpu_count(),
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads_pinned": BLAS_THREADS, "blas_threads": _blas_threads(),
            "machine": platform.machine(), "workload": args.workload,
            "seed": args.seed, "seconds": args.seconds, "trace": args.trace}


def _per_layer_unit(name: str) -> str:
    return next(unit for end, unit in reversed(PER_LAYER_UNITS) if name.endswith(end))


def run_workload(args) -> int:
    import tracing
    from workloads import WORKLOADS as WLS

    wl = WLS[args.workload]
    work = os.path.join(OUT, f"work-{wl.name}-{args.seed}-{os.getpid()}")
    results = os.path.join(OUT, "results")
    os.makedirs(results, exist_ok=True)
    inputs = os.path.join(work, "inputs")
    try:
        setup_times = []
        for _ in range(SETUP_REPEATS):
            shutil.rmtree(inputs, ignore_errors=True)
            t0 = time.perf_counter()
            os.makedirs(inputs)
            inp = wl.setup(args.seed, inputs)
            setup_times.append(time.perf_counter() - t0)

        # traced passes alternate with untraced ones, starting untraced; a
        # pass starts only if one more pass of the mean length fits in time
        tracer = tracing.Tracer() if args.trace else None
        passes, traced_runs = [], []
        t_start = time.perf_counter()
        while True:
            elapsed = time.perf_counter() - t_start
            if passes and elapsed * (len(passes) + 1) / len(passes) > args.seconds \
                    and (tracer is None or traced_runs):
                break
            k = len(passes)
            out = os.path.join(work, f"pass{k}")
            if tracer is not None and k % 2:
                tracer.run_id = f"{wl.name}-{args.seed}-pass{k}"
                traced_runs.append(tracer.run_id)
                tracer.install()
                try:
                    passes.append(_run_pass(wl, inp, out, tracer))
                finally:
                    tracer.uninstall()
            else:
                passes.append(_run_pass(wl, inp, out))
            shutil.rmtree(out)
            if k == 0:
                # the peak of set-up and one pass; later passes only add
                # allocator history, not work
                peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    finally:
        shutil.rmtree(work, ignore_errors=True)

    first = passes[0]
    attempted = sum(len(p["walls"]) for p in passes)
    drifted = [i for i, p in enumerate(passes)
               if p["fingerprints"] != first["fingerprints"]]
    failed = sum(len(p["failed"]) for p in passes) + len(drifted)
    walls = [sum(p["walls"].values()) for p in passes]
    # end-to-end figures come from untraced passes only
    timed = passes[0::2] if tracer is not None else passes
    good = [p for p in timed if not p["failed"]]
    record = {"environment": _environment(args), "passes": len(passes),
              "pass_wall_s": walls,
              "setup_s_runs": setup_times,
              "checks": [vars(c) for c in first["checks"]],
              "failed_stages": {i: sorted(p["failed"]) for i, p in enumerate(passes)
                                if p["failed"]},
              "stage_logs": {i: p["logs"] for i, p in enumerate(passes) if p["logs"]},
              "passes_with_other_bytes": drifted,
              "fingerprints": first["fingerprints"],
              "stage_wall_s": {k: statistics.median(p["walls"][k] for p in timed)
                               for k in first["walls"]}}
    end_to_end = {"setup_s": (statistics.median(setup_times), "s"),
                  "wall_s": (statistics.median(walls[0::2] if tracer else walls), "s"),
                  "peak_rss_mb": (peak_rss_mb, "MB"),
                  "failed_frac": (failed / attempted, "ratio")}
    if good:
        end_to_end["train_loss"] = (statistics.median(p["train_loss"] for p in good),
                                    "nats")
        for key, (_, unit) in good[0]["figures"].items():
            end_to_end[key] = (statistics.median(p["figures"][key][0] for p in good), unit)
    record["end_to_end"] = {k: {"value": v, "unit": u} for k, (v, u) in end_to_end.items()}

    if tracer is not None:
        per_layer = tracing.layer_metrics(tracer.spans, traced_runs)
        untraced = statistics.median(walls[0::2])
        overhead = statistics.median(walls[1::2]) - untraced
        per_layer["trace.overhead_s"] = overhead
        per_layer["trace.overhead_frac"] = overhead / untraced
        record["per_layer"] = {k: {"value": v, "unit": _per_layer_unit(k)}
                               for k, v in sorted(per_layer.items())}
        metrics = record["per_layer"]
        tracer.write(os.path.join(results, f"{wl.name}-seed{args.seed}-spans.tsv"))
    else:
        metrics = {name: record["end_to_end"][name] for name in END_TO_END
                   if name in record["end_to_end"]}
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    record["result"] = result
    name = f"{wl.name}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(results, name), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    print(json.dumps(record, indent=1, sort_keys=True))
    print(json.dumps(result, sort_keys=True))
    return 0


def run_all(args) -> int:
    """Each workload in its own process; a table of every metric, then one
    combined result line keyed workload.metric."""
    rows, total = [], {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        sys.stdout.write(proc.stdout)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            total["correct"] = False
            continue
        result = json.loads(lines[-1])
        record = json.loads("\n".join(lines[:-1]))
        metrics = record.get("per_layer") if args.trace else record["end_to_end"]
        for key, m in metrics.items():
            rows.append((name, key, m["value"], m["unit"]))
            total["metrics"][f"{name}.{key}"] = m
        for check in record["checks"]:
            rows.append((name, f"check: {check['name']}", check["ok"], check["stage"]))
        total["correct"] &= result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
    print("\nworkload  metric" + " " * 50 + "value  unit")
    for name, key, value, unit in rows:
        shown = f"{value:.6g}" if isinstance(value, float) else str(value)
        print(f"{name:9s} {key:55s} {shown:>12s}  {unit}")
    print(json.dumps(total, sort_keys=True))
    return 0 if total["correct"] else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "minit5", "cli.py")):
        print(f"error: no minit5 sources under {SRC}; run from a source tree",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path[:0] = [SRC, HERE]
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
