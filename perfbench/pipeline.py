"""The benchmark's workloads: set-up, training and out-of-KB inference.

Each workload is one closed loop in one process with one client: every
operation starts when the previous one has returned. Every operation drives
graphkbc's public entry points:

* set-up, repeated ``SETUP_REPEATS`` times: ``kg.build_graph`` over the
  training triplets, ``trainer.init_model`` and ``model.save_model`` of the
  fresh model as the bundle that inference reads;
* training epochs of ``trainer.train`` (an epoch is the smallest unit
  ``train`` runs), until ``TRAIN_SHARE`` of ``seconds`` has been spent on
  them;
* inference rounds on the bundle, loaded once with ``model.load_model``,
  until ``seconds`` have passed since the first epoch or round and at least
  ``MIN_ROUNDS`` ran: ``ookb.generate`` + ``ookb.write_split`` for head-1000,
  ``evaluate_standard``, ``evaluate_ookb`` with the proposed method,
  ``evaluate_ookb`` with the avg-pooled baseline, and ``graphkbc predict``
  in-process through ``cli.main``;
* at the end, ``model.save_model`` of the trained model and a
  ``model.load_model`` of it that must restore every parameter bit for bit.

Epochs and inference rounds alternate, epoch first, so that both sample the
machine over the whole run rather than one half each, and every round runs
after training has started (on ``wn11``, all of them after its one epoch). The bundle holds an untrained model:
the inference path does the same work whatever the parameter values.

The host-speed kernel (``hostspeed``) runs right before and right after
every operation and, during training, after an optimizer step when a second
has passed since its last run; each time is rescaled by the kernel runs
around it (minibatches by their memory part), and minibatch times leave the
kernel's runs out.

Every operation's output is checked; an operation that raises or fails its
check counts as failed. Repeated operations must reproduce the first
round's output digest exactly.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import json
import os
import resource
import shutil
import sys
import time
import traceback
from dataclasses import dataclass

import numpy as np

from graphkbc import cli, evaluate, kg, model, ookb, trainer
from graphkbc.kg import LabeledTriplet, Triplet, Vocabulary
from graphkbc.model import ObjectiveConfig, PropagationConfig
from graphkbc.ookb import OokbPosition

import tracer as tracing
import wn11_shape
from hostspeed import HostSpeed

SETUP_REPEATS = 5
OOKB_N = 1000
MAX_EPOCHS = 10_000  # training stops on time, long before this
TRAIN_SHARE = 0.3
MIN_ROUNDS = 3
HOST_SAMPLE_EVERY_S = 1.0  # during training
# an operation shares the kernel run that ended less than this before it
# with the operation before it
HOST_REUSE_S = 0.5


@dataclass(frozen=True)
class Workload:
    """One workload; BENCHMARK.json says why each was chosen."""

    propagation: dict
    minibatch: int
    subsample: int  # train on the first 1/subsample of the training triplets
    # validation and test prefix sizes; fixed so that every seed evaluates
    # the same number of triplets (None keeps the whole files)
    eval_sizes: tuple[int, int] | None


WORKLOADS = {
    "wn11": Workload(
        propagation=dict(dim=100, depth=1, mode="unrolled", pooling="max",
                         transition="relation-relu-bn", neighbor_cap=64),
        minibatch=5000,
        subsample=1,
        eval_sizes=None,
    ),
    "depth_study": Workload(
        propagation=dict(dim=50, depth=2, mode="stacked", pooling="max",
                         transition="relation-relu-bn", neighbor_cap=64),
        minibatch=1024,
        subsample=10,
        # about 540 validation and 2,250 test triplets survive the filter
        eval_sizes=(450, 1900),
    ),
}

OBJECTIVE = ObjectiveConfig(objective="absolute", margin=300.0)


class Run:
    """Counts attempted and failed operations; keeps per-operation timings."""

    def __init__(self, tracer: tracing.Tracer | None):
        self.tracer = tracer
        self.host = HostSpeed()
        self.attempted = 0
        self.failed = 0
        # operation -> (start, end) of each successful attempt
        self.times: dict[str, list[tuple[float, float]]] = {}
        self.digests: dict[str, str] = {}
        self.units: dict[str, int] = {}  # phase -> repetitions, for per-pass values
        self.notes: dict[str, str] = {}  # facts about the inputs, printed with the result

    @contextlib.contextmanager
    def phase(self, name: str):
        """Root span of one phase; spans under it count per unit of the phase."""
        if self.tracer is None:
            yield
            return
        self.tracer.phase = name
        span = self.tracer.open(f"bench.{name}")
        try:
            yield
        finally:
            self.tracer.close(span)
            self.tracer.phase = "none"

    def attempt(self, name: str, op, check=None):
        """Time ``op()``, then ``check(result)`` (returns a digest or None).

        Returns the result, or None when the operation raised or its check
        failed; either way the failure is counted and its traceback printed
        to standard error.
        """
        self.attempted += 1
        # start every operation from the same collector state, so that a full
        # collection owed to earlier work does not land on it at random
        gc.collect()
        if time.perf_counter() - self.host.last > HOST_REUSE_S:
            self.sample_host()
        span = self.tracer.open(f"bench.op.{name}") if self.tracer else None
        start = time.perf_counter()
        try:
            out = op()
        except Exception:
            self._fail(name, traceback.format_exc())
            return None
        finally:
            end = time.perf_counter()
            if span is not None:
                self.tracer.close(span)
            self.sample_host()
        try:
            digest = check(out) if check is not None else None
        except Exception:
            self._fail(name, traceback.format_exc())
            return None
        if digest is not None:
            first = self.digests.setdefault(name, digest)
            if first != digest:
                self._fail(name, f"output digest {digest} differs from the first round's {first}")
                return None
        self.times.setdefault(name, []).append((start, end))
        return out

    def seconds(self, name: str) -> list[float]:
        """Each successful attempt's time at reference host speed."""
        return [(end - start) * self.host.scale(start, end)
                for start, end in self.times.get(name, [])]

    def sample_host(self) -> None:
        span = self.tracer.open("bench.hostspeed") if self.tracer else None
        try:
            self.host.sample()
        finally:
            if span is not None:
                self.tracer.close(span)

    def _fail(self, name: str, detail: str) -> None:
        self.failed += 1
        print(f"operation {name} failed:\n{detail}", file=sys.stderr)


def _check(condition: bool, message: str) -> None:
    if not condition:
        raise AssertionError(message)


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


class Corpus:
    """The generated inputs of one workload, as graphkbc's own types."""

    def __init__(self, seed: int, subsample: int, eval_sizes: tuple[int, int] | None):
        data = wn11_shape.generate(seed)
        self.entities = Vocabulary(data.entity_names)
        self.relations = Vocabulary(data.relation_names)
        rows = data.train[: len(data.train) // subsample]
        self.train = [Triplet(int(h), int(r), int(t)) for h, r, t in rows.tolist()]
        kept = set(np.unique(rows[:, [0, 2]]).tolist())

        def labeled(triplets, labels, size):
            out = [LabeledTriplet(Triplet(h, r, t), bool(y))
                   for (h, r, t), y in zip(triplets.tolist(), labels.tolist())]
            # as in the depth study: evaluate only among entities trained on
            out = [lt for lt in out if lt.triplet.head in kept and lt.triplet.tail in kept]
            if size is None:
                return out
            if len(out) < size:
                raise ValueError(f"seed {seed} leaves {len(out)} evaluation triplets, need {size}")
            return out[:size]

        sizes = eval_sizes or (None, None)
        self.valid = labeled(data.valid, data.valid_labels, sizes[0])
        self.test = labeled(data.test, data.test_labels, sizes[1])


def _report_check(expected_n: int):
    def check(result):
        report, thresholds = result
        _check(report["n_test"] == expected_n,
               f"n_test {report['n_test']} != input size {expected_n}")
        _check(0.0 <= report["accuracy"] <= 1.0, f"accuracy {report['accuracy']} outside [0, 1]")
        return _sha(json.dumps(report, sort_keys=True))
    return check


def _write_thresholds(path, thresholds, relations: Vocabulary) -> None:
    named = {relations.name_of(r): t for r, t in thresholds.per_relation.items()}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"global": thresholds.global_threshold, "relations": named}, fh)


def run_workload(name: str, seed: int, seconds: float, work_dir: str,
                 tracer: tracing.Tracer | None) -> dict:
    """Run one workload; returns the raw measurements for the metrics."""
    wl = WORKLOADS[name]
    corpus = Corpus(seed, wl.subsample, wl.eval_sizes)
    ev, rv = corpus.entities, corpus.relations
    prop = PropagationConfig(**wl.propagation)
    run = Run(tracer)
    final = os.path.join(work_dir, "final")
    measured = {"run": run, "rates": [], "minibatch_s": [], "losses": [],
                "checkpoint_bytes": 0}
    patches = tracing.install(tracer) if tracer is not None else None
    # minibatch boundaries come from the optimizer call; this hook is the
    # only one the untraced run has. A minibatch runs from the previous
    # step's return (or the epoch's start) to its own step's return.
    intervals: list[tuple[float, float]] = []
    started = [0.0]
    adam = trainer.adam_step

    def stamped_adam(*args, **kwargs):
        out = adam(*args, **kwargs)
        now = time.perf_counter()
        intervals.append((started[0], now))
        if now - run.host.last >= HOST_SAMPLE_EVERY_S:
            run.sample_host()
        started[0] = time.perf_counter()
        return out
    trainer.adam_step = stamped_adam
    try:
        # the generated inputs are the benchmark's, not graphkbc's: a graphkbc
        # process would not hold them, so the collector need not walk them.
        # Without this, a full collection over the ~10^6 input objects lands
        # inside some operations and not others, by how allocations add up
        gc.collect()
        gc.freeze()
        # every write goes to a new path: on ext4, truncating a file that
        # holds data and rewriting it forces a flush to disk on close, which
        # would put the disk's latency into the timings
        def set_up(bundle):
            graph = kg.build_graph(corpus.train)
            net = trainer.init_model(len(ev), len(rv), prop, seed)
            model.save_model(net, bundle, ev, rv)
            return graph, net, bundle

        with run.phase("setup"):
            for k in range(SETUP_REPEATS):
                built = run.attempt("setup", lambda: set_up(os.path.join(work_dir, f"bundle{k}")))
                shutil.rmtree(os.path.join(work_dir, f"bundle{k - 1}"), ignore_errors=True)
        run.units["setup"] = SETUP_REPEATS
        if built is None:
            return _finish(measured)
        graph, net, bundle = built
        with run.phase("load"):
            loaded = run.attempt("load_model", lambda: model.load_model(bundle),
                                 lambda out: _same_params(net, out[0]))
        run.units["load"] = 1

        epoch_intervals: list[list[tuple[float, float]]] = []
        cfg = trainer.TrainConfig(epochs=MAX_EPOCHS, minibatch_size=wl.minibatch, seed=seed)
        epochs = trainer.train(graph, net, cfg, OBJECTIVE)

        def epoch():
            del intervals[:]
            span = tracer.open("trainer.epoch") if tracer else None
            started[0] = time.perf_counter()
            try:
                return next(epochs)
            finally:
                if span is not None:
                    tracer.close(span)
                epoch_intervals.append(list(intervals))

        def epoch_check(record):
            _check(np.isfinite(record["loss"]), f"non-finite epoch loss {record['loss']}")
            measured["losses"].append(record["loss"])

        def counted_phase(phase, body) -> bool:
            with run.phase(phase):
                ok = body()
            run.units[phase] = run.units.get(phase, 0) + 1
            return ok

        evaluating = loaded is not None
        training = True
        spent_training = 0.0
        begun = time.perf_counter()
        while True:
            more_eval = evaluating and (run.units.get("eval", 0) < MIN_ROUNDS
                                        or time.perf_counter() - begun < seconds)
            more_train = training and (not epoch_intervals
                                       or spent_training < TRAIN_SHARE * seconds)
            if not (more_eval or more_train):
                break
            if more_train:
                begin = time.perf_counter()
                training = counted_phase("train", lambda: run.attempt(
                    "epoch", epoch, epoch_check) is not None)
                spent_training += time.perf_counter() - begin
            if more_eval:
                round_dir = os.path.join(work_dir, f"round{run.units.get('eval', 0)}")
                evaluating = counted_phase("eval", lambda: _eval_round(
                    run, corpus, graph, loaded[0], bundle, round_dir))
                shutil.rmtree(round_dir, ignore_errors=True)
        epochs.close()
        sizes = np.array([min(wl.minibatch, len(graph) - s)
                          for s in range(0, len(graph), wl.minibatch)], dtype=float)
        # minibatch times at reference host speed; epochs cut short by a
        # failure are left out
        whole = [np.array([(t1 - t0) * run.host.scale(t0, t1, memory_bound=True)
                           for t0, t1 in epoch])
                 for epoch in epoch_intervals if len(epoch) == len(sizes)]
        measured["minibatch_s"] = np.concatenate(whole).tolist() if whole else []
        measured["rates"] = np.concatenate([sizes / d for d in whole]).tolist() if whole else []

        with run.phase("save"):
            run.attempt("save_model", lambda: model.save_model(
                net, final, ev, rv, extra={"completed_epochs": len(measured["losses"])}))
            run.attempt("load_model", lambda: model.load_model(final),
                        lambda out: _same_params(net, out[0]))
        run.units["save"] = 1
        blob = os.path.join(final, "params.bin")
        if os.path.exists(blob):
            measured["checkpoint_bytes"] = os.path.getsize(blob)
        return _finish(measured)
    finally:
        gc.unfreeze()
        trainer.adam_step = adam
        if patches is not None:
            patches.restore()


def _same_params(net, restored) -> None:
    live, back = net.store.parameters(), restored.store.parameters()
    _check(live.keys() == back.keys(), "checkpoint lost parameters")
    for key, p in live.items():
        _check(np.array_equal(p.data, back[key].data),
               f"parameter {key} changed through the checkpoint")
        _check(np.all(np.isfinite(p.data)), f"parameter {key} is not finite")


def _eval_round(run: Run, corpus: Corpus, graph, frozen, bundle: str, round_dir: str) -> bool:
    """One round of the five inference operations; False stops the phase."""
    ev, rv = corpus.entities, corpus.relations
    split_dir = os.path.join(round_dir, "splits")
    prefix = os.path.join(split_dir, f"head-{OOKB_N}")
    queries_path = os.path.join(round_dir, "queries.txt")
    aux_path = os.path.join(round_dir, "aux.txt")
    thresholds_path = os.path.join(round_dir, "thresholds.json")
    predictions_path = os.path.join(round_dir, "predictions.txt")

    def gen_ookb():
        split = ookb.generate(corpus.train, corpus.valid, corpus.test, OOKB_N,
                              OokbPosition.HEAD)
        return split, ookb.write_split(split, split_dir, f"head-{OOKB_N}", ev, rv)

    def split_check(result):
        split, paths = result
        _check(split.check() == [], f"split invariants violated: {split.check()[:1]}")
        _check(len(split.ookb_entities) > 0, "empty OOKB set")
        with open(paths["test"], encoding="utf-8") as fh:
            _check(sum(1 for _ in fh) == len(split.test), "test file length mismatch")
        return _sha(split.stats.as_text())

    made = run.attempt("gen_ookb", gen_ookb, split_check)
    run.attempt("eval_standard", lambda: evaluate.evaluate_standard(
        graph, corpus.valid, corpus.test, frozen, dataset_name="standard"),
        _report_check(len(corpus.test)))
    if made is None:
        return False
    split = made[0]
    proposed = run.attempt("eval_ookb", lambda: evaluate.evaluate_ookb(
        split, frozen, method="proposed", dataset_name=f"head-{OOKB_N}"),
        _report_check(len(split.test)))
    run.attempt("eval_baseline", lambda: evaluate.evaluate_ookb(
        split, frozen, method="baseline", pooling="avg", dataset_name=f"head-{OOKB_N}"),
        _report_check(len(split.test)))
    if proposed is None:
        return False

    # predict resolves every entity outside its --train file through --aux,
    # and rejects an aux triplet that links two such entities (exit 1); a
    # gen-ookb aux file can hold those when an aux triplet's known endpoint
    # lost all its training triplets to the split. Its input is therefore
    # the aux triplets anchored in the training file and the queries whose
    # entities that leaves resolvable.
    in_kb = kg.entities_of(split.train)
    aux = [t for t in split.aux if t.head in in_kb or t.tail in in_kb]
    linked = kg.entities_of(aux)
    queries = [lt.triplet for lt in split.test
               if all(e in in_kb or e in linked for e in lt.triplet[::2])]
    run.notes["predict_aux"] = f"{len(aux)}/{len(split.aux)}"
    run.notes["predict_queries"] = f"{len(queries)}/{len(split.test)}"
    kg.save_triplet_file(aux_path, aux, ev, rv)
    kg.save_triplet_file(queries_path, queries, ev, rv)
    _write_thresholds(thresholds_path, proposed[1], rv)
    argv = ["predict", "--checkpoint", bundle,
            "--train", f"{prefix}.train.txt", "--triplets", queries_path,
            "--aux", aux_path, "--thresholds", thresholds_path,
            "--out", predictions_path]

    def predict_check(code):
        _check(code == cli.EXIT_OK, f"predict exited with {code}")
        with open(predictions_path, encoding="utf-8") as fh:
            text = fh.read()
        lines = text.splitlines()
        _check(len(lines) == len(queries), f"{len(lines)} predictions for {len(queries)} queries")
        for line, t in zip(lines, queries):
            fields = line.split("\t")
            _check(fields[:3] == [ev.name_of(t.head), rv.name_of(t.relation), ev.name_of(t.tail)],
                   f"prediction line {line!r} does not echo its query")
            _check(fields[5] in ("1", "-1"), f"label {fields[5]!r} is not +-1")
        return _sha(text)

    run.attempt("predict", lambda: cli.main(argv), predict_check)
    return True


def _finish(measured: dict) -> dict:
    measured["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return measured
