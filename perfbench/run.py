"""graphkbc benchmark: one workload, one seed, one JSON result line.

Usage, from the repository root:

    python3 perfbench/run.py --workload wn11 --seed 1 --seconds 20 --trace 0

The workload's inputs are generated from ``--seed`` (see ``wn11_shape``);
``pipeline`` drives graphkbc from ``src/`` over them and checks every
output. With ``--trace 0`` the result carries the end-to-end metrics; with
``--trace 1`` every public graphkbc function is wrapped in a span and the
result carries the per-layer metrics, with a self-time table per layer
printed above it and the spans written to ``.perfbench_out/``.

Every time and rate is reported at reference host speed: each measured
interval is rescaled by the host-speed kernel runs around it (see
``hostspeed``). The line before the result records the environment (cores,
BLAS library and thread count, numpy and Python versions, git commit) and
the kernel's times in this run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import sys

# numpy (and everything that imports it) is imported inside functions only,
# after main() has fixed the BLAS thread count
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")
OUT = os.path.join(ROOT, ".perfbench_out")
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# end-to-end metric -> timed operation whose median it reports
OPERATION_METRICS = {
    "setup_s": "setup",
    "gen_ookb_s": "gen_ookb",
    "eval_standard_s": "eval_standard",
    "eval_ookb_s": "eval_ookb",
    "eval_baseline_s": "eval_baseline",
    "predict_s": "predict",
}

# per-layer metric -> span whose inclusive time (per pipeline pass) it reports
SPAN_METRICS = {
    "autodiff.segment_max_s": "autodiff.segment_max",
    "autodiff.gather_rows_s": "autodiff.gather_rows",
    "autodiff.affine_rows_s": "autodiff.affine_rows",
    "autodiff.rows_norm_s": "autodiff.rows_norm",
    "autodiff.concat_rows_s": "autodiff.concat_rows",
    "autodiff.backward_s": "autodiff.backward",
    "model.build_table_s": "model.build_table",
    "model.sampler_s": "model.sampler",
    "model.save_model_s": "model.save_model",
    "model.load_model_s": "model.load_model",
    "nn.adam_step_s": "nn.adam_step",
    "nn.batchnorm_s": "nn.batchnorm",
    "nn.save_checkpoint_s": "nn.save_checkpoint",
    "nn.load_checkpoint_s": "nn.load_checkpoint",
    "trainer.corrupt_batch_s": "trainer.corrupt_batch",
    "evaluate.ookb_vector_s": "evaluate.ookb_vector",
    "evaluate.baseline_ookb_vector_s": "evaluate.baseline_ookb_vector",
    "evaluate.propagated_vectors_s": "evaluate.propagated_vectors",
    "evaluate.tune_thresholds_s": "evaluate.tune_thresholds",
    "evaluate.ookb_context_s": "evaluate.ookb_context",
    "evaluate.score_s": "evaluate.score",
    "ookb.generate_s": "ookb.generate",
    "ookb.write_split_s": "ookb.write_split",
    "kg.build_graph_s": "kg.build_graph",
    "kg.load_triplet_file_s": "kg.load_triplet_file",
}

# per-layer metric -> counter (per pipeline pass)
COUNT_METRICS = {
    "evaluate.ookb_vectors": "evaluate.ookb_vectors",
    "evaluate.triplets_scored": "evaluate.triplets_scored",
    "ookb.ookb_entities": "ookb.ookb_entities",
    "ookb.aux_triplets": "ookb.aux_triplets",
}


def _git_commit() -> str:
    """HEAD's commit read from .git without running git; 'unknown' outside a repository."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _blas_threads_in_use():
    """The thread count OpenBLAS reports, or None if it cannot be asked."""
    import ctypes
    import glob

    import numpy as np

    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def environment(threads: int) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):  # numpy before 1.26 prints its config only
        blas_name = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "blas": blas_name,
        "blas_threads_set": threads,
        "blas_threads": _blas_threads_in_use(),
        "numpy": np.__version__,
        "python": platform.python_version(),
        "git_commit": _git_commit(),
    }


def _median(values) -> float:
    """Median, or 0 when an operation never succeeded (the failure count shows it)."""
    return float(statistics.median(values)) if values else 0.0


def end_to_end(measured: dict) -> dict:
    run = measured["run"]
    out = {name: (_median(run.seconds(op)), "s") for name, op in OPERATION_METRICS.items()}
    out["train_triplets_per_s"] = (_median(measured["rates"]), "1/s")
    out["peak_rss_mb"] = (measured["peak_rss_mb"], "MB")
    out["ok_frac"] = (1.0 - run.failed / max(1, run.attempted), "ratio")
    return out


def per_layer(measured: dict, tracer) -> tuple[dict, dict]:
    """Per-layer metrics, and self seconds per pipeline pass for each layer.

    Span times and counts are per pipeline pass: a phase's total is divided
    by how often the phase's unit ran (set-ups, epochs, inference rounds).
    """
    import numpy as np
    import tracer as tracing

    run = measured["run"]
    names, dur, self_time, parents, roots = tracer.arrays()
    # span times at reference host speed, by the run's median kernel time
    factor = run.host.factor()
    dur, self_time = dur * factor, self_time * factor
    phase_units = {f"bench.{p}": n for p, n in run.units.items()}
    scale = np.array([1.0 / phase_units.get(r, 1) for r in roots]) if len(roots) else dur

    def per_pass(mask) -> float:
        return float((dur[mask] * scale[mask]).sum())

    def count(key) -> float:
        return sum(v / run.units.get(phase, 1) for (k, phase), v in tracer.counts.items()
                   if k == key)

    out = {metric: (per_pass(names == span), "s") for metric, span in SPAN_METRICS.items()}
    out.update({metric: (count(key), "count") for metric, key in COUNT_METRICS.items()})

    minibatches = sum(1 for n in names if n == "nn.adam_step")
    train_counts = {k: v for (k, phase), v in tracer.counts.items() if phase == "train"}
    out["autodiff.ops_per_minibatch"] = (
        train_counts.get("autodiff.tape_nodes", 0.0) / max(1, minibatches), "count")
    out["autodiff.pooled_rows"] = (
        train_counts.get("autodiff.pooled_rows", 0.0) / max(1, minibatches), "count")

    parent_names = np.array([names[p] if p >= 0 else "" for p in parents], dtype=object)
    under_score = (names == "model.propagate_batch") & (parent_names == "model.score_ids")
    out["model.score_ids_self_s"] = (
        float(((self_time * scale)[(names == "model.score_ids") | under_score]).sum()), "s")
    out["model.propagate_batch_s"] = (
        per_pass((names == "model.propagate_batch") & ~under_score), "s")

    # an epoch's time leaves out the host-speed kernel runs inside it
    epochs = np.flatnonzero(names == "trainer.epoch")
    kernel = names == "bench.hostspeed"
    epoch_s = [dur[e] - dur[kernel & (parents == e)].sum() for e in epochs]
    out["trainer.epoch_s"] = (_median(epoch_s), "s")
    out["trainer.minibatch_s"] = (_median(measured["minibatch_s"]), "s")
    out["trainer.minibatch_samples"] = (float(len(measured["minibatch_s"])), "count")
    out["nn.checkpoint_bytes"] = (float(measured["checkpoint_bytes"]), "bytes")
    losses = measured["losses"]
    out["trainer.epoch_loss"] = (losses[-1] if losses else 0.0, "loss")

    layer_of = np.array([n.split(".", 1)[0] for n in names], dtype=object)
    self_per_layer = {layer: float((self_time * scale)[layer_of == layer].sum())
                      for layer in tracing.LAYERS + ("bench",)}
    for layer in tracing.LAYERS:
        name = "cli.predict_self_s" if layer == "cli" else f"{layer}.self_s"
        out[name] = (self_per_layer[layer], "s")

    for metric, (value, unit) in end_to_end(measured).items():
        if metric != "ok_frac":
            out[f"traced.{metric}"] = (value, unit)
    return out, self_per_layer


def _declared_metrics(kind: str) -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "graphkbc", "__init__.py")):
        print(f"error: no graphkbc sources under {SRC}", file=sys.stderr)
        return 2
    # BLAS reads its thread count once, when numpy loads it. One thread: the
    # d x d products are small, and the count then is the same on any machine
    threads = 1
    for var in BLAS_VARS:
        os.environ[var] = str(threads)
    sys.path[:0] = [SRC, HERE]

    import hostspeed
    import pipeline
    import tracer as tracing

    if args.workload not in pipeline.WORKLOADS:
        print(f"error: unknown workload {args.workload!r} "
              f"(expected one of {sorted(pipeline.WORKLOADS)})", file=sys.stderr)
        return 2
    work_dir = os.path.join(WORK, f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(work_dir)
    tracer = tracing.Tracer() if args.trace else None
    try:
        measured = pipeline.run_workload(args.workload, args.seed, args.seconds, work_dir, tracer)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    declared = _declared_metrics("per_layer" if args.trace else "end_to_end")
    run = measured["run"]
    kernel = run.host.durations()
    host = {"kernel_runs": len(kernel), "kernel_median_s": _median(kernel),
            "kernel_min_s": min(kernel, default=0.0), "kernel_max_s": max(kernel, default=0.0),
            "reference_s": hostspeed.REFERENCE_S}
    print(json.dumps({"environment": environment(threads), "host_speed": host,
                      "workload": args.workload, "seed": args.seed, "inputs": run.notes}))
    if tracer is None:
        metrics = end_to_end(measured)
    else:
        metrics, self_per_layer = per_layer(measured, tracer)
        os.makedirs(OUT, exist_ok=True)
        spans = os.path.join(OUT, f"spans-{args.workload}-seed{args.seed}.jsonl.gz")
        tracer.write(spans)
        total = sum(self_per_layer.values()) or 1.0
        print(f"self time per pipeline pass, workload {args.workload} "
              f"(spans in {os.path.relpath(spans, ROOT)}):")
        for layer, seconds in sorted(self_per_layer.items(), key=lambda kv: -kv[1]):
            print(f"  {layer:10s} {seconds:10.4f} s  {100 * seconds / total:5.1f}%")
    produced = {name: unit for name, (_, unit) in metrics.items()}
    if produced != declared:
        print(f"error: metrics {sorted(set(produced.items()) ^ set(declared.items()))} "
              "differ from BENCHMARK.json", file=sys.stderr)
        return 3
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result, allow_nan=False), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
