"""Command-line entry point: dataset generation, training, evaluation, prediction.

One binary, five subcommands (gen-ookb, train, eval, predict, gradcheck).
Options may come from a ``key = value`` config file with command-line flags
taking precedence over it, and defaults below both; ``train``'s options and
defaults are the fields of its config classes. Every command echoes its
effective configuration next to its outputs before doing real work, and all
randomness flows from the single ``seed`` option.

Exit codes: 0 success, 1 usage or configuration error, 2 data error,
3 numerical fault.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import fields

import numpy as np

from . import autodiff
from .autodiff import GradientError
from .checks import gradient_check_report
from .evaluate import (
    OokbContext,
    ThresholdTable,
    classify,
    evaluate_ookb,
    evaluate_standard,
    make_scorer,
    resolve_vectors,
    tune_thresholds,
)
from .kg import DataError, TripletParseError, Vocabulary, build_graph, load_triplet_file, read_json
from .model import InferenceError, ObjectiveConfig, PropagationConfig, load_model, save_model
from .nn import CheckpointError
from .ookb import OokbPosition, generate, read_split, split_name, write_split
from .trainer import TrainConfig, init_model, run_training

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3


class ConfigError(ValueError):
    pass


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 by default; usage problems are exit 1 here
    def error(self, message):
        raise UsageError(message)


def parse_config_file(path) -> dict[str, str]:
    """Read ``key = value`` lines; blank lines and #-comments are allowed."""
    out: dict[str, str] = {}
    with open(path, encoding="utf-8") as fh:
        for line_no, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{line_no}: expected key = value")
            key, _, value = line.partition("=")
            out[key.strip()] = value.strip()
    return out


_BOOL_TRUE = {"1", "true", "yes", "on"}
_BOOL_FALSE = {"0", "false", "no", "off"}


def _coerce(key: str, raw: str, kind):
    if kind is bool:
        low = raw.lower()
        if low in _BOOL_TRUE:
            return True
        if low in _BOOL_FALSE:
            return False
        raise ConfigError(f"option {key!r}: expected a boolean, got {raw!r}")
    try:
        return kind(raw)
    except ValueError:
        raise ConfigError(f"option {key!r}: expected {kind.__name__}, got {raw!r}") from None


def merge_options(fields: dict[str, tuple], args: argparse.Namespace, config_path) -> dict:
    """defaults < config file < explicit command-line flags; unknown keys rejected."""
    merged = {key: default for key, (kind, default) in fields.items()}
    if config_path:
        for key, raw in parse_config_file(config_path).items():
            if key not in fields:
                raise ConfigError(f"unknown config key {key!r}")
            kind, _ = fields[key]
            merged[key] = _coerce(key, raw, kind)
    for key in fields:
        cli_value = getattr(args, key.replace("-", "_"), None)
        if cli_value is not None:
            merged[key] = cli_value
    return merged


def _add_field_flags(parser: argparse.ArgumentParser, fields: dict[str, tuple]) -> None:
    for key, (kind, default) in fields.items():
        flag = "--" + key.replace("_", "-")
        if kind is bool:
            parser.add_argument(flag, default=None, action="store_const", const=True,
                                help=f"(default {default})")
        else:
            parser.add_argument(flag, default=None, type=kind, help=f"(default {default})")


def _echo_config(out_dir, command: str, merged: dict) -> None:
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "config.json"), "w", encoding="utf-8") as fh:
        json.dump({"command": command, **merged}, fh, indent=2, sort_keys=True)
        fh.write("\n")


# ---------------------------------------------------------------------------
# gen-ookb

def cmd_gen_ookb(args) -> int:
    sizes = [int(x) for x in str(args.n).split(",")]
    if any(n <= 0 for n in sizes):
        raise UsageError("--n must be positive")
    if args.position == "all":
        poss = list(OokbPosition)
    else:
        poss = [OokbPosition(p) for p in args.position.split(",")]

    ev, rv = Vocabulary(), Vocabulary()
    train, _ = load_triplet_file(args.train, ev, rv)
    valid = load_triplet_file(args.valid, ev, rv, labeled=True)
    test = load_triplet_file(args.test, ev, rv, labeled=True)

    _echo_config(args.out, "gen-ookb", {
        "train": args.train, "valid": args.valid, "test": args.test,
        "n": str(args.n), "position": args.position,
    })
    # the corpus-wide vocabularies: training on a split should seed its
    # entity table from these so that every evaluation entity has a row,
    # trained or not (pass to train via --vocab)
    ev.save(os.path.join(args.out, "entities.txt"))
    rv.save(os.path.join(args.out, "relations.txt"))
    for position in poss:
        for n in sizes:
            split = generate(train, valid, test, n, position)
            name = split_name(position, n)
            write_split(split, args.out, name, ev, rv)
            print(f"[{name}]")
            print(split.stats.as_text(), end="")
    return EXIT_OK


# ---------------------------------------------------------------------------
# train

# a config field's option has the field's name, except where given here
_OPTION_OF = {"minibatch_size": "minibatch"}
TRAIN_CONFIGS = (PropagationConfig, ObjectiveConfig, TrainConfig)
TRAIN_FIELDS = {_OPTION_OF.get(f.name, f.name): (type(f.default), f.default)
                for cls in TRAIN_CONFIGS for f in fields(cls)}


def _configs_from(merged: dict):
    return tuple(cls(**{f.name: merged[_OPTION_OF.get(f.name, f.name)] for f in fields(cls)})
                 for cls in TRAIN_CONFIGS)


def _options_of(configs) -> dict:
    """The options of ``_configs_from``'s configs, with the values they hold after validation."""
    return {_OPTION_OF.get(f.name, f.name): getattr(c, f.name) for c in configs for f in fields(c)}


def cmd_train(args) -> int:
    options, start_epoch = TRAIN_FIELDS, 0
    if args.resume:
        # the model's settings come from the checkpoint; an option may only repeat them
        model, ev, rv, extra = load_model(args.resume)
        start_epoch = int(extra.get("completed_epochs", 0))
        saved = {**model.cfg.to_dict(), **{k: extra[k] for k in ("objective", "margin") if k in extra}}
        options = {k: (kind, saved.get(k, default)) for k, (kind, default) in TRAIN_FIELDS.items()}
    merged = merge_options(options, args, args.config)
    try:
        configs = _configs_from(merged)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    prop_cfg, objective, cfg = configs

    if args.resume:
        for key, value in saved.items():
            if merged[key] != value:
                raise ConfigError(f"option {key!r} is {merged[key]!r}, but the checkpoint "
                                  f"{args.resume} was trained with {value!r}")
        if cfg.epochs < start_epoch:
            raise ConfigError(f"--epochs {cfg.epochs} is below the {start_epoch} epochs the "
                              f"checkpoint {args.resume} has completed")
        graph = build_graph(load_triplet_file(args.train, ev, rv)[0])
        if len(ev) != model.n_entities:
            raise ConfigError(
                "training file contains entities unknown to the checkpoint; "
                "resume must use the original training file"
            )
        if len(rv) > model.n_relations:
            raise ConfigError(
                f"training file contains relation {rv.name_of(model.n_relations)!r}, unknown to "
                "the checkpoint; resume must use the original training file"
            )
    else:
        if args.vocab:
            ev = Vocabulary.load(args.vocab)
            rv_path = os.path.join(os.path.dirname(args.vocab), "relations.txt")
            rv = Vocabulary.load(rv_path) if os.path.exists(rv_path) else Vocabulary()
        else:
            ev, rv = Vocabulary(), Vocabulary()
        graph = build_graph(load_triplet_file(args.train, ev, rv)[0])
        model = init_model(len(ev), len(rv), prop_cfg, cfg.seed)

    _echo_config(args.out, "train", {**_options_of(configs), "train": args.train,
                                     "resume": args.resume or "", "start_epoch": start_epoch})
    if graph.duplicates_collapsed:
        print(f"note: {graph.duplicates_collapsed} duplicate training triplets collapsed")

    def save_bundle(directory, completed):
        save_model(model, directory, ev, rv, extra={
            "completed_epochs": completed,
            "objective": objective.objective,
            "margin": objective.margin,
        })

    def log(record):
        print(
            "epoch {epoch}: loss {loss:.4f} pos {mean_pos_score:.4f} "
            "neg {mean_neg_score:.4f} lr {step_size:.6f} ({wall_time:.1f}s)".format(**record)
        )

    run_training(graph, model, cfg, objective, args.out, save_bundle,
                 start_epoch=start_epoch, log=log)
    print(f"final checkpoint: {os.path.join(args.out, 'checkpoint-final')}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# eval

def _write_eval_outputs(out_dir, report: dict, thresholds, rv) -> None:
    with open(os.path.join(out_dir, "report.jsonl"), "a", encoding="utf-8") as fh:
        fh.write(json.dumps(report) + "\n")
    named = {rv.name_of(r): t for r, t in thresholds.per_relation.items()}
    with open(os.path.join(out_dir, "thresholds.json"), "w", encoding="utf-8") as fh:
        json.dump({"global": thresholds.global_threshold, "relations": named}, fh, indent=2)
        fh.write("\n")
    with open(os.path.join(out_dir, "summary.txt"), "a", encoding="utf-8") as fh:
        fh.write(
            "{dataset:24s} {method:9s} {pooling:4s} accuracy={accuracy:.4f} "
            "n={n_test} thresholds={threshold_digest}\n".format(**report)
        )


def _require_in_checkpoint(model, rv, entities=()) -> None:
    """Every relation read so far, and each of the ``entities`` ids, has a row in the checkpoint.

    Names are interned in the order they are read, so the one named is the
    first read past the checkpoint's table.
    """
    if len(rv) > model.n_relations:
        raise InferenceError(f"relation {rv.name_of(model.n_relations)!r} is not in the checkpoint")
    beyond = np.asarray(entities, dtype=np.intp)
    beyond = beyond[beyond >= model.n_entities]
    if beyond.size:
        raise InferenceError(f"entity {model.name_of(int(beyond.min()))!r} is not in the checkpoint")


def cmd_eval(args) -> int:
    if args.mode == "standard" and not (args.train and args.valid and args.test):
        raise UsageError("standard eval needs --train, --valid and --test")
    if args.mode == "ookb" and not args.split_prefix:
        raise UsageError("ookb eval needs --split-prefix")
    if args.mode == "ookb" and args.method == "baseline" and not args.pooling:
        raise UsageError("baseline eval needs --pooling")
    model, ev, rv, extra = load_model(args.checkpoint, moments=False)
    echo = {"checkpoint": args.checkpoint, "mode": args.mode, "seed": args.seed,
            "per_relation": not args.global_threshold}
    if args.mode == "standard":
        echo.update({"train": args.train, "valid": args.valid, "test": args.test})
        _echo_config(args.out, "eval", echo)
        graph = build_graph(load_triplet_file(args.train, ev, rv)[0])
        valid = load_triplet_file(args.valid, ev, rv, labeled=True)
        test = load_triplet_file(args.test, ev, rv, labeled=True)
        # standard eval resolves no entity from auxiliary triplets
        _require_in_checkpoint(model, rv, np.concatenate([valid[0][:, ::2], test[0][:, ::2]]))
        report, thresholds = evaluate_standard(
            graph, valid, test, model,
            per_relation=not args.global_threshold, sampler_seed=args.seed,
            dataset_name=args.dataset_name or os.path.basename(args.test),
        )
    else:
        echo.update({"split_prefix": args.split_prefix, "method": args.method,
                     "pooling": args.pooling or "", "raw_neighbors": args.raw_neighbors})
        _echo_config(args.out, "eval", echo)
        split = read_split(args.split_prefix, ev, rv)
        _require_in_checkpoint(model, rv)
        report, thresholds = evaluate_ookb(
            split, model, method=args.method, pooling=args.pooling,
            raw_neighbors=args.raw_neighbors,
            per_relation=not args.global_threshold, sampler_seed=args.seed,
            dataset_name=args.dataset_name or os.path.basename(args.split_prefix),
        )
    _write_eval_outputs(args.out, report, thresholds, rv)
    print(json.dumps(report))
    return EXIT_OK


# ---------------------------------------------------------------------------
# predict

def cmd_predict(args) -> int:
    if not (args.thresholds or args.valid):
        raise UsageError("predict needs --thresholds or --valid to tune on")
    model, ev, rv, extra = load_model(args.checkpoint, moments=False)
    graph = build_graph(load_triplet_file(args.train, ev, rv)[0])
    queries, _ = load_triplet_file(args.triplets, ev, rv)
    aux = load_triplet_file(args.aux, ev, rv)[0] if args.aux else np.empty((0, 3), dtype=np.intp)
    if args.thresholds:
        def parse(data):
            per = {rv.id_of(name): float(t) for name, t in data["relations"].items() if name in rv}
            return ThresholdTable(per, float(data["global"]))

        thresholds = read_json(args.thresholds, parse)
    else:
        valid, valid_labels = load_triplet_file(args.valid, ev, rv, labeled=True)
        thresholds = None
    _require_in_checkpoint(model, rv)
    # an entity outside the trained graph never received updates (it may
    # still own an untouched embedding row); resolve it through aux triplets
    ends = np.concatenate([queries[:, ::2].ravel(), aux[:, ::2].ravel()])
    in_graph = np.zeros(len(ev), dtype=bool)
    in_graph[graph.triplets[:, ::2]] = True
    outside = np.unique(ends[~in_graph[ends]])
    ctx = OokbContext(graph, aux, outside, model, sampler_seed=args.seed)
    if thresholds is None:
        # tuned on the training graph alone, as the standard protocol does
        known = OokbContext(graph, [], [], model, sampler_seed=args.seed)
        resolved = resolve_vectors(valid[:, ::2], known)
        thresholds = tune_thresholds(valid, valid_labels, make_scorer(model, *resolved))
    scores = make_scorer(model, *resolve_vectors(queries[:, ::2], ctx))(queries)
    cutoffs = thresholds.threshold_of(queries[:, 1])
    labels = classify(queries, thresholds, scores)
    sink = open(args.out, "w", encoding="utf-8") if args.out else sys.stdout
    try:
        for (h, r, t), s, thr, positive in zip(queries.tolist(), scores, cutoffs, labels):
            sink.write(
                f"{ev.name_of(h)}\t{rv.name_of(r)}\t{ev.name_of(t)}"
                f"\t{s:.6f}\t{thr:.6f}\t{1 if positive else -1}\n"
            )
    finally:
        if args.out:
            sink.close()
    return EXIT_OK


# ---------------------------------------------------------------------------
# gradcheck

def cmd_gradcheck(args) -> int:
    ok, failures = gradient_check_report(tolerance=args.tolerance, seed=args.seed)
    if ok:
        print(f"gradcheck passed at tolerance {args.tolerance:g}")
        return EXIT_OK
    for line in failures[:20]:
        print(line, file=sys.stderr)
    print(f"gradcheck failed: {len(failures)} gradient(s) beyond tolerance", file=sys.stderr)
    return EXIT_NUMERIC


# ---------------------------------------------------------------------------

def build_parser() -> _Parser:
    parser = _Parser(prog="graphkbc", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-ookb", help="construct out-of-KB splits from benchmark files")
    p.add_argument("--train", required=True)
    p.add_argument("--valid", required=True)
    p.add_argument("--test", required=True)
    p.add_argument("--n", required=True, help="count or comma list, e.g. 1000,3000,5000")
    p.add_argument("--position", required=True, help="head, tail, both, a comma list, or all")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gen_ookb)

    p = sub.add_parser("train", help="train a model")
    p.add_argument("--train", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--config", default=None, help="key = value options file")
    p.add_argument("--resume", default=None, help="checkpoint directory to continue from")
    p.add_argument("--vocab", default=None,
                   help="entity name list to seed the vocabulary (written by gen-ookb); "
                        "gives evaluation entities outside the split an embedding row")
    _add_field_flags(p, TRAIN_FIELDS)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="tune thresholds on validation and score a test set")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--mode", choices=("standard", "ookb"), default="standard")
    p.add_argument("--train", default=None)
    p.add_argument("--valid", default=None)
    p.add_argument("--test", default=None)
    p.add_argument("--split-prefix", default=None,
                   help="path prefix of gen-ookb outputs, e.g. out/head-1000")
    p.add_argument("--method", choices=("proposed", "baseline"), default="proposed")
    p.add_argument("--pooling", choices=("sum", "avg", "max"), default=None)
    p.add_argument("--raw-neighbors", action="store_true",
                   help="baseline pools raw neighbor vectors instead of implied positions")
    p.add_argument("--global-threshold", action="store_true",
                   help="one threshold for all relations instead of per-relation")
    p.add_argument("--dataset-name", default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("predict", help="score and label candidate triplets")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--train", required=True, help="training file the checkpoint was built from")
    p.add_argument("--triplets", required=True, help="candidate triplets, unlabeled")
    p.add_argument("--aux", default=None, help="auxiliary triplets for out-of-KB entities")
    p.add_argument("--thresholds", default=None, help="thresholds.json from eval")
    p.add_argument("--valid", default=None, help="labeled file to tune thresholds on")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("gradcheck", help="verify gradients against finite differences")
    p.add_argument("--tolerance", type=float, default=autodiff.GRADCHECK_TOLERANCE)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_gradcheck)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        autodiff.one_blas_thread()
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (OSError, DataError, TripletParseError, InferenceError, CheckpointError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except GradientError as exc:
        print(f"numerical fault: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except ValueError as exc:  # ConfigError among them, after the ValueError data errors
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
