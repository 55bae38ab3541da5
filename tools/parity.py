"""Check that the working tree's outputs are byte-identical to a git revision's.

Usage: ``python tools/parity.py --against REV [--perfbench]``

REV is exported with ``git archive`` into a temporary directory; nothing is
fetched. For both source trees the script writes, per model of ``MODELS``,
its corpus (the grid or the hub corpus of ``tests/synthetic_corpus.py``)
into the model's own directory and runs one ``graphkbc`` command sequence
in a fresh Python process whose ``PYTHONPATH`` is that tree's ``src``:
``gen-ookb``, ``train`` with an intermediate checkpoint, ``eval`` in the
standard, OOKB proposed and OOKB baseline modes (the baseline once per
pooling: avg, sum and max), and ``predict`` with ``--thresholds`` and with
``--valid``. Then it runs, per model, commands that must fail with a data
error: standard ``eval`` with a test entity the checkpoint lacks,
``eval --mode ookb`` on a copy of the split with its aux file emptied,
``predict`` with an aux triplet linking two unknown entities and with a
relation the checkpoint lacks, and ``train``, standard
``eval`` and ``predict --valid`` each reading an empty file, followed by
commands that must fail with a usage error before reading their checkpoint,
which does not exist: ``eval`` without its mode's files, without
``--split-prefix`` and without the baseline's ``--pooling``, and
``predict`` without ``--thresholds`` or ``--valid``. Each one's exit code
and stderr go to ``{model}/faults.txt``. Both runs use the same relative
paths, so echoed paths agree. Every output file is then compared byte for
byte, except that ``wall_time`` is ignored in ``metrics.jsonl``.

``--perfbench`` adds the benchmark's seed-1 corpora (``perfbench/wn11_shape``
with each workload's settings from ``perfbench/pipeline``, one BLAS
thread): 1 ``wn11`` epoch and 3 ``depth_study`` epochs, each workload in a
fresh process, written per workload as the epoch losses in float hex, the
``save_checkpoint`` blob (every parameter, Adam moment and running
statistic) and the sha256 of the inference-mode vectors of every 7th
entity. It takes a few minutes and about 1 GB per tree. Each process also
prints its peak RSS (``ru_maxrss``) once its epochs are trained, the peak
of a fixed amount of work that the time-bound benchmark's ``peak_rss_mb``
is not; the peaks go to stdout, not into the compared files.

Prints each file that differs. Exits 0 when none differs, 1 when some do,
and 2 when the export or a command fails.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import shutil
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

COMMON = ["--epochs", "4", "--checkpoint-every", "2", "--minibatch", "16",
          "--seed", "1", "--alpha1", "0.05"]
# each model's corpus and options; between them they cover every pooling,
# every transition, both modes, both norms and both objectives
MODELS = {
    "grid": ("grid", ["--dim", "6", "--depth", "1", "--mode", "unrolled", "--pooling", "max",
                      "--transition", "relation-relu-bn", "--norm-p", "1",
                      "--objective", "absolute", "--margin", "2"]),
    "hub": ("hub", ["--dim", "5", "--depth", "2", "--mode", "stacked", "--pooling", "avg",
                    "--transition", "tanh-layer", "--neighbor-cap", "3", "--norm-p", "2",
                    "--objective", "pairwise", "--margin", "1", "--filter-false-negatives"]),
    "grid-relu": ("grid", ["--dim", "6", "--depth", "2", "--mode", "stacked", "--pooling", "sum",
                           "--transition", "relu-layer", "--norm-p", "2",
                           "--objective", "pairwise", "--margin", "2"]),
    "hub-identity": ("hub", ["--dim", "5", "--depth", "2", "--mode", "unrolled",
                             "--pooling", "max", "--transition", "identity",
                             "--neighbor-cap", "3", "--norm-p", "1",
                             "--objective", "absolute", "--margin", "1"]),
}

# runs in the child process: each argv list through cli.main, in order
DRIVER = """
import json, sys
from graphkbc.cli import main
for argv in json.loads(sys.argv[1]):
    code = main(argv)
    if code:
        sys.exit(f"graphkbc {' '.join(argv)} exited {code}")
"""

# runs in the child process: each model's failing argv lists through
# cli.main, writing each one's exit code and stderr to {model}/faults.txt
FAULT_DRIVER = """
import contextlib, io, json, sys
from graphkbc.cli import main
for name, sequence in json.loads(sys.argv[1]).items():
    with open(f"{name}/faults.txt", "w", encoding="utf-8") as fh:
        for argv in sequence:
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                code = main(argv)
            fh.write(f"$ graphkbc {' '.join(argv)}\\nexit {code}\\n{err.getvalue()}")
"""


# runs in the child process, in the run directory: trains each perfbench
# workload on its seed-1 corpus for the given epochs, prints the peak RSS
# so far and writes what it made
PERFBENCH_SCRIPT = """
import hashlib, json, os, resource, sys
import numpy as np
import pipeline, wn11_shape
from graphkbc import evaluate, kg, nn, trainer
from graphkbc.model import PropagationConfig
data = wn11_shape.generate(1)
for name, epochs in json.loads(sys.argv[1]).items():
    wl = pipeline.WORKLOADS[name]
    graph = kg.build_graph(data.train[:len(data.train) // wl.subsample])
    net = trainer.init_model(len(data.entity_names), len(data.relation_names),
                             PropagationConfig(**wl.propagation), 1)
    cfg = trainer.TrainConfig(epochs=epochs, minibatch_size=wl.minibatch, seed=1)
    losses = [record["loss"].hex() for record in trainer.train(graph, net, cfg, pipeline.OBJECTIVE)]
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(f"{name}: peak RSS {peak:.1f} MB after {epochs} epoch(s)")
    os.makedirs(name)
    with open(os.path.join(name, "losses.txt"), "w") as fh:
        fh.write("".join(line + "\\n" for line in losses))
    nn.save_checkpoint(net.store, os.path.join(name, "checkpoint"))
    ctx = evaluate.OokbContext(graph, np.empty((0, 3), dtype=np.intp), [], net)
    vectors = evaluate.propagated_vectors(np.arange(0, net.n_entities, 7), ctx)
    with open(os.path.join(name, "vectors.sha256"), "w") as fh:
        fh.write(hashlib.sha256(vectors.tobytes()).hexdigest() + "\\n")
"""
PERFBENCH_EPOCHS = {"wn11": 1, "depth_study": 3}


class ParityError(Exception):
    pass


def _named(triplets, ev, rv) -> list[str]:
    return [f"{ev.name_of(h)}\t{rv.name_of(r)}\t{ev.name_of(t)}" for h, r, t in triplets]


def corpora() -> dict[str, dict[str, list[str]]]:
    """The lines of each model's train, valid and test files: those of its corpus."""
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]
    from synthetic_corpus import grid_corpus, hub_corpus

    train, valid, test, ev, rv = grid_corpus()

    def labeled(items):
        lines = _named([lt.triplet for lt in items], ev, rv)
        return [f"{line}\t{1 if lt.label else -1}" for line, lt in zip(lines, items)]

    grid = {"train": _named(train, ev, rv), "valid": labeled(valid), "test": labeled(test)}
    # the hub corpus has training triplets only: hold out one has-link and one
    # part_of-link per hub as positives, each with a wrong hub as its negative
    train, ev, rv = hub_corpus()
    hubs = sorted({ev.name_of(h) for h, r, _ in train if rv.name_of(r) == "has"})
    test, valid = [], []
    for k, hub in enumerate(hubs):
        other = hubs[(k + 1) % len(hubs)]
        test += [f"{hub}\thas\tleaf{k}_0\t1", f"{other}\thas\tleaf{k}_0\t-1"]
        valid += [f"leaf{k}_1\tpart_of\t{hub}\t1", f"leaf{k}_1\tpart_of\t{other}\t-1"]
    held = {line[:-2] for line in test + valid if line.endswith("\t1")}
    hub = {"train": [line for line in _named(train, ev, rv) if line not in held],
           "valid": valid, "test": test}
    return {name: {"grid": grid, "hub": hub}[corpus] for name, (corpus, _) in MODELS.items()}


def commands(name: str, n_test: int) -> list[list[str]]:
    """The command sequence of one model, in paths relative to the run directory."""
    split = f"{name}/split/tail-{n_test}"
    bundle = f"{name}/run/checkpoint-final"
    files = {f: f"{name}/{f}.txt" for f in ("train", "valid", "test", "queries")}
    predict = ["predict", "--checkpoint", bundle, "--train", f"{split}.train.txt",
               "--triplets", files["queries"], "--aux", f"{split}.aux.txt"]
    baseline = ["eval", "--checkpoint", bundle, "--mode", "ookb", "--split-prefix", split,
                "--method", "baseline"]
    return [
        ["gen-ookb", "--train", files["train"], "--valid", files["valid"],
         "--test", files["test"], "--n", str(n_test), "--position", "tail",
         "--out", f"{name}/split"],
        ["train", "--train", f"{split}.train.txt", "--vocab", f"{name}/split/entities.txt",
         "--out", f"{name}/run"] + COMMON + MODELS[name][1],
        ["eval", "--checkpoint", bundle, "--mode", "standard", "--train", files["train"],
         "--valid", files["valid"], "--test", files["test"], "--out", f"{name}/eval-standard"],
        ["eval", "--checkpoint", bundle, "--mode", "ookb", "--split-prefix", split,
         "--method", "proposed", "--out", f"{name}/eval-proposed"],
        baseline + ["--pooling", "avg", "--out", f"{name}/eval-baseline"],
        baseline + ["--pooling", "sum", "--out", f"{name}/eval-baseline-sum"],
        baseline + ["--pooling", "max", "--out", f"{name}/eval-baseline-max"],
        predict + ["--thresholds", f"{name}/eval-proposed/thresholds.json",
                   "--out", f"{name}/predict-thresholds.txt"],
        predict + ["--valid", f"{split}.valid.txt", "--out", f"{name}/predict-valid.txt"],
    ]


def fault_commands(work: Path, name: str, test: list[str]) -> list[list[str]]:
    """Write one model's faulty inputs under ``work`` and return the commands that read them.

    Runs after ``commands``, whose split and bundle the commands read.
    """
    n_test = len(test)
    split, bundle = f"{name}/split/tail-{n_test}", f"{name}/run/checkpoint-final"
    head, relation, tail = test[0].split("\t")[:3]
    faults = work / name / "faults"
    (faults / "split").mkdir(parents=True)
    for part in (work / name / "split").glob(f"tail-{n_test}.*"):
        shutil.copyfile(part, faults / "split" / part.name)
    inputs = {
        f"split/tail-{n_test}.aux.txt": "",
        "test.txt": "".join(f"{line}\n" for line in test) + f"{head}\t{relation}\tmartian\t-1\n",
        "aux.txt": f"venusian\t{relation}\tmartian\n",
        "queries.txt": f"martian\t{relation}\t{tail}\n",
        "sideways.txt": f"{head}\tsideways\t{tail}\n",
        "empty.txt": "",
    }
    for file, text in inputs.items():
        (faults / file).write_text(text, encoding="utf-8")
    predict = ["predict", "--checkpoint", bundle, "--train", f"{split}.train.txt"]
    thresholds = ["--thresholds", f"{name}/eval-proposed/thresholds.json"]
    standard = ["eval", "--checkpoint", bundle, "--mode", "standard", "--train", f"{name}/train.txt"]
    empty, missing = f"{name}/faults/empty.txt", f"{name}/faults/no-checkpoint"
    eval_missing = ["eval", "--checkpoint", missing, "--out", f"{name}/faults/eval-usage"]
    return [
        standard + ["--valid", f"{name}/valid.txt", "--test", f"{name}/faults/test.txt",
                    "--out", f"{name}/faults/eval-standard"],
        ["eval", "--checkpoint", bundle, "--mode", "ookb",
         "--split-prefix", f"{name}/faults/split/tail-{n_test}",
         "--out", f"{name}/faults/eval-ookb"],
        predict + thresholds + ["--triplets", f"{name}/faults/queries.txt",
                                "--aux", f"{name}/faults/aux.txt"],
        predict + thresholds + ["--triplets", f"{name}/faults/sideways.txt",
                                "--aux", f"{split}.aux.txt"],
        ["train", "--train", empty, "--out", f"{name}/faults/train"] + COMMON + MODELS[name][1],
        standard + ["--valid", empty, "--test", f"{name}/test.txt",
                    "--out", f"{name}/faults/eval-empty-valid"],
        standard + ["--valid", f"{name}/valid.txt", "--test", empty,
                    "--out", f"{name}/faults/eval-empty-test"],
        predict + ["--triplets", f"{name}/queries.txt", "--valid", empty],
        # option combinations that are usage errors, on a checkpoint that does not exist
        eval_missing + ["--mode", "standard"],
        eval_missing + ["--mode", "ookb"],
        eval_missing + ["--mode", "ookb", "--split-prefix", split, "--method", "baseline"],
        ["predict", "--checkpoint", missing, "--train", f"{split}.train.txt",
         "--triplets", f"{name}/queries.txt"],
    ]


def write_inputs(work: Path, name: str, files: dict[str, list[str]]) -> None:
    """Write one model's files into ``work / name``, its test lines unlabeled as its queries."""
    (work / name).mkdir(parents=True)
    files = {**files, "queries": [line.rsplit("\t", 1)[0] for line in files["test"]]}
    for file, lines in files.items():
        (work / name / f"{file}.txt").write_text("".join(f"{line}\n" for line in lines),
                                                 encoding="utf-8")


def run_tree(tree: Path, work: Path, inputs: dict[str, dict[str, list[str]]]) -> None:
    """Write the corpora into ``work`` and run every command there with ``tree``'s source."""
    sequence = []
    for name, files in inputs.items():
        write_inputs(work, name, files)
        sequence += commands(name, len(files["test"]))
    _child(tree, work, DRIVER, sequence)
    faults = {name: fault_commands(work, name, files["test"]) for name, files in inputs.items()}
    _child(tree, work, FAULT_DRIVER, faults)


def run_perfbench(tree: Path, work: Path) -> list[str]:
    """Train on the perfbench corpora in ``work`` with ``tree``'s source; returns the peak RSS lines."""
    work.mkdir(parents=True)
    return [_child(tree, work, PERFBENCH_SCRIPT, {name: epochs}, ROOT / "perfbench").strip()
            for name, epochs in PERFBENCH_EPOCHS.items()]


def _child(tree: Path, work: Path, script: str, payload, *path: Path) -> str:
    """Run ``script`` on the JSON ``payload`` in a fresh process with ``tree``'s ``src`` first on its path.

    Returns what it printed.
    """
    # cli.main holds BLAS at one thread only in newer revisions, and PERFBENCH_SCRIPT skips it
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(map(str, (tree / "src", *path))),
               PYTHONDONTWRITEBYTECODE="1",
               OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    done = subprocess.run([sys.executable, "-c", script, json.dumps(payload)], cwd=work,
                          env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    if done.returncode:
        raise ParityError(f"the run of {tree} failed:\n{done.stderr.strip()}")
    return done.stdout


def _metrics(path: Path) -> list[dict]:
    records = [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]
    for record in records:
        record.pop("wall_time", None)
    return records


def differing_files(a: Path, b: Path) -> list[str]:
    """Relative paths of the files under ``a`` and ``b`` that are not the same."""
    def files(root):
        return {p.relative_to(root).as_posix() for p in root.rglob("*") if p.is_file()}

    found_a, found_b = files(a), files(b)
    out = []
    for rel in sorted(found_a | found_b):
        if rel not in found_a or rel not in found_b:
            out.append(f"{rel} (only under {a if rel in found_a else b})")
        elif Path(rel).name == "metrics.jsonl":
            if _metrics(a / rel) != _metrics(b / rel):
                out.append(rel)
        elif (a / rel).read_bytes() != (b / rel).read_bytes():
            out.append(rel)
    return out


def export(rev: str, dest: Path) -> None:
    """Unpack ``rev`` of this repository into ``dest`` with ``git archive``."""
    done = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", rev],
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    if done.returncode:
        raise ParityError(f"git archive {rev} failed: {done.stderr.decode().strip()}")
    with tarfile.open(fileobj=io.BytesIO(done.stdout)) as tar:
        tar.extractall(dest, filter="data")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--against", required=True, metavar="REV",
                        help="git revision to compare the working tree with")
    parser.add_argument("--perfbench", action="store_true",
                        help="also train on the benchmark's seed-1 corpora (minutes, ~1 GB)")
    args = parser.parse_args(argv)
    sys.dont_write_bytecode = True  # leave no __pycache__ in the working tree
    inputs = corpora()
    with tempfile.TemporaryDirectory(prefix="parity-") as tmp:
        tmp = Path(tmp)
        runs = {"rev": tmp / "runs" / "rev", "work": tmp / "runs" / "work"}
        try:
            export(args.against, tmp / "rev")
            for label, tree, work in ((args.against, tmp / "rev", runs["rev"]),
                                      ("working tree", ROOT, runs["work"])):
                run_tree(tree, work, inputs)
                if args.perfbench:
                    for line in run_perfbench(tree, work / "perfbench"):
                        print(f"{label}: {line}")
        except ParityError as exc:
            print(f"parity: {exc}", file=sys.stderr)
            return 2
        differ = differing_files(runs["rev"], runs["work"])
        n_files = sum(1 for p in runs["work"].rglob("*") if p.is_file())
    for rel in differ:
        print(f"differs: {rel}")
    print(f"{len(differ)} of {n_files} files differ from {args.against}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
