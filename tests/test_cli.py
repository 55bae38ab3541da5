import ctypes
import hashlib
import json
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from graphkbc.cli import (
    EXIT_DATA,
    EXIT_NUMERIC,
    EXIT_OK,
    EXIT_USAGE,
    main,
    merge_options,
    parse_config_file,
)


@pytest.fixture
def corpus(tmp_path):
    """A small line-structured corpus; e13 sits at the end of the chain.

    The first test lines put e13 in the tail slot, so a tail-position split
    makes it the out-of-KB entity (it loses its one training edge to the
    auxiliary set).
    """
    n = 14
    train_lines = [f"e{i}\tnext\te{i + 1}" for i in range(n - 1)]
    train_lines += [f"e{i}\tjump\te{i + 2}" for i in range(n - 4)]
    valid_lines = ["e0\tnext\te1\t1", "e5\tnext\te6\t1", "e2\tnext\te9\t-1",
                   "e8\tjump\te1\t-1", "e3\tjump\te5\t1", "e9\tnext\te2\t-1"]
    test_lines = [f"e{n - 2}\tnext\te{n - 1}\t1", f"e1\tnext\te{n - 1}\t-1",
                  "e4\tnext\te5\t1", "e7\tjump\te2\t-1"]
    paths = {}
    for name, lines in (("train", train_lines), ("valid", valid_lines), ("test", test_lines)):
        p = tmp_path / f"{name}.txt"
        p.write_text("\n".join(lines) + "\n")
        paths[name] = str(p)
    return tmp_path, paths


def run(argv):
    return main([str(a) for a in argv])


class TestGenOokb:
    def test_writes_splits_and_stats(self, corpus, capsys):
        tmp_path, paths = corpus
        out = tmp_path / "splits"
        code = run(["gen-ookb", "--train", paths["train"], "--valid", paths["valid"],
                    "--test", paths["test"], "--n", "2", "--position", "tail",
                    "--out", out])
        assert code == EXIT_OK
        captured = capsys.readouterr().out
        assert "[tail-2]" in captured
        assert "ookb_entities=" in captured
        for part in ("train", "aux", "valid", "test", "ookb", "stats"):
            assert (out / f"tail-2.{part}.txt").exists()
        assert (out / "config.json").exists()

    def test_loaded_split_keeps_written_stats(self, corpus):
        from graphkbc.kg import Vocabulary, load_triplet_file
        from graphkbc.ookb import generate, read_split, write_split

        tmp_path, paths = corpus
        ev, rv = Vocabulary(), Vocabulary()
        train, _ = load_triplet_file(paths["train"], ev, rv)
        valid = load_triplet_file(paths["valid"], ev, rv, labeled=True)
        test = load_triplet_file(paths["test"], ev, rv, labeled=True)
        split = generate(train, valid, test, 2, "tail")
        write_split(split, tmp_path / "s", "tail-2", ev, rv)
        loaded = read_split(tmp_path / "s" / "tail-2", ev, rv)
        assert loaded.stats == split.stats
        assert loaded.ookb_entities.tolist() == split.ookb_entities.tolist()
        assert loaded.aux.tolist() == [list(t) for t in split.aux]
        assert split.stats.auxiliary_entities > 0  # not a zero placeholder

    def test_zero_n_is_usage_error(self, corpus):
        tmp_path, paths = corpus
        code = run(["gen-ookb", "--train", paths["train"], "--valid", paths["valid"],
                    "--test", paths["test"], "--n", "0", "--position", "head",
                    "--out", tmp_path / "x"])
        assert code == EXIT_USAGE

    def test_missing_file_is_data_error(self, corpus):
        tmp_path, paths = corpus
        code = run(["gen-ookb", "--train", tmp_path / "nope.txt", "--valid", paths["valid"],
                    "--test", paths["test"], "--n", "1", "--position", "head",
                    "--out", tmp_path / "x"])
        assert code == EXIT_DATA


TRAIN_ARGS = ["--epochs", "3", "--minibatch", "8", "--dim", "6", "--margin", "2",
              "--depth", "1", "--pooling", "avg", "--checkpoint-every", "2"]


class TestTrain:
    def test_train_writes_outputs(self, corpus, capsys):
        tmp_path, paths = corpus
        out = tmp_path / "run"
        code = run(["train", "--train", paths["train"], "--out", out] + TRAIN_ARGS)
        assert code == EXIT_OK
        assert (out / "config.json").exists()
        metrics = [json.loads(line) for line in (out / "metrics.jsonl").read_text().splitlines()]
        assert [m["epoch"] for m in metrics] == [0, 1, 2]
        assert (out / "checkpoint-final" / "manifest.json").exists()
        config = json.loads((out / "config.json").read_text())
        assert config["epochs"] == 3
        assert config["margin"] == 2.0

    def test_config_file_and_override_precedence(self, corpus):
        tmp_path, paths = corpus
        cfg = tmp_path / "run.conf"
        cfg.write_text("# toy settings\nepochs = 2\ndim = 4\nmargin = 5\n")
        out = tmp_path / "run2"
        code = run(["train", "--train", paths["train"], "--out", out,
                    "--config", cfg, "--margin", "3", "--minibatch", "8"])
        assert code == EXIT_OK
        config = json.loads((out / "config.json").read_text())
        assert config["epochs"] == 2        # from file
        assert config["margin"] == 3.0      # CLI wins
        assert config["minibatch"] == 8

    def test_unknown_config_key_rejected(self, corpus):
        tmp_path, paths = corpus
        cfg = tmp_path / "bad.conf"
        cfg.write_text("banana = 1\n")
        code = run(["train", "--train", paths["train"], "--out", tmp_path / "r",
                    "--config", cfg])
        assert code == EXIT_USAGE

    # every comparison with NaN is false, so a NaN setting must be refused outright
    @pytest.mark.parametrize("option, value", [
        ("--pooling", "median"), ("--margin", "nan"), ("--margin", "inf"),
        ("--alpha1", "nan"), ("--alpha1", "inf"), ("--alpha2", "nan"), ("--alpha2", "inf")])
    def test_invalid_pooling_is_config_error(self, corpus, capsys, option, value):
        tmp_path, paths = corpus
        code = run(["train", "--train", paths["train"], "--out", tmp_path / "r", option, value])
        assert code == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and option[2:] in err, err
        assert not (tmp_path / "r" / "metrics.jsonl").exists()

    def test_non_finite_loss_is_numerical_fault(self, tmp_path, capsys):
        ring = tmp_path / "ring.txt"
        ring.write_text("".join(f"e{i}\tnext\te{(i + 1) % 20}\n" for i in range(20)))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = run(["train", "--train", ring, "--out", tmp_path / "r", "--epochs", "1",
                        "--dim", "4", "--margin", "1e308", "--minibatch", "8"])
        assert [str(w.message) for w in caught] == []
        assert code == EXIT_NUMERIC
        assert (capsys.readouterr().err
                == "numerical fault: non-finite loss at epoch 0, minibatch 0\n")

    def test_empty_train_file_is_data_error(self, corpus, capsys):
        tmp_path, _ = corpus
        empty = tmp_path / "empty.txt"
        empty.write_text("")
        code = run(["train", "--train", empty, "--out", tmp_path / "r"] + TRAIN_ARGS)
        assert code == EXIT_DATA
        assert capsys.readouterr().err == "data error: cannot train on an empty graph\n"

    def test_echoed_options_are_the_config_fields_with_their_defaults(self, corpus):
        from dataclasses import fields

        from graphkbc.model import ObjectiveConfig, PropagationConfig
        from graphkbc.trainer import TrainConfig

        tmp_path, paths = corpus
        out = tmp_path / "run"
        assert run(["train", "--train", paths["train"], "--out", out] + TRAIN_ARGS) == EXIT_OK
        config = json.loads((out / "config.json").read_text())
        given = {flag[2:].replace("-", "_") for flag in TRAIN_ARGS[::2]}
        defaults = {"minibatch" if f.name == "minibatch_size" else f.name: f.default
                    for cls in (PropagationConfig, ObjectiveConfig, TrainConfig) for f in fields(cls)}
        assert len(defaults) == 17 and given < set(defaults)
        assert set(config) == set(defaults) | {"command", "train", "resume", "start_epoch"}
        assert {k: config[k] for k in set(defaults) - given} == {
            k: v for k, v in defaults.items() if k not in given}

    def test_echo_holds_the_validated_settings(self, corpus):
        # under --mode none the model has depth 0, whatever --depth says
        from graphkbc.model import load_model

        tmp_path, paths = corpus
        out = tmp_path / "run"
        assert run(["train", "--train", paths["train"], "--out", out, "--mode", "none",
                    "--depth", "2", "--epochs", "1", "--minibatch", "8", "--dim", "4"]) == EXIT_OK
        config = json.loads((out / "config.json").read_text())
        assert (config["mode"], config["depth"]) == ("none", 0)
        assert load_model(out / "checkpoint-final")[0].cfg.depth == 0

    def test_resume_reproduces_uninterrupted_run(self, corpus):
        tmp_path, paths = corpus
        full = tmp_path / "full"
        assert run(["train", "--train", paths["train"], "--out", full,
                    "--epochs", "4", "--minibatch", "8", "--dim", "4",
                    "--margin", "2", "--checkpoint-every", "2"]) == EXIT_OK
        half = tmp_path / "half"
        assert run(["train", "--train", paths["train"], "--out", half,
                    "--epochs", "2", "--minibatch", "8", "--dim", "4",
                    "--margin", "2", "--checkpoint-every", "2"]) == EXIT_OK
        resumed = tmp_path / "resumed"
        assert run(["train", "--train", paths["train"], "--out", resumed,
                    "--resume", half / "checkpoint-final",
                    "--epochs", "4", "--minibatch", "8", "--dim", "4",
                    "--margin", "2", "--checkpoint-every", "2"]) == EXIT_OK
        full_metrics = (full / "metrics.jsonl").read_text().splitlines()[2:]
        resumed_metrics = (resumed / "metrics.jsonl").read_text().splitlines()
        for a, b in zip(full_metrics, resumed_metrics):
            ra, rb = json.loads(a), json.loads(b)
            ra.pop("wall_time"), rb.pop("wall_time")
            assert ra == rb

    def test_resume_below_completed_epochs_is_config_error(self, corpus, capsys):
        tmp_path, paths = corpus
        four = tmp_path / "four"
        assert run(["train", "--train", paths["train"], "--out", four,
                    "--epochs", "4", "--minibatch", "8", "--dim", "4"]) == EXIT_OK
        code = run(["train", "--train", paths["train"], "--out", tmp_path / "resumed",
                    "--resume", four / "checkpoint-final", "--epochs", "2"])
        assert code == EXIT_USAGE
        err = capsys.readouterr().err
        assert "config error: --epochs 2 is below the 4 epochs" in err
        assert not (tmp_path / "resumed" / "checkpoint-final").exists()
        # resuming at the completed count trains nothing and is allowed
        assert run(["train", "--train", paths["train"], "--out", tmp_path / "same",
                    "--resume", four / "checkpoint-final", "--epochs", "4"]) == EXIT_OK

    def test_resume_into_its_own_run_drops_replayed_metrics(self, corpus):
        tmp_path, paths = corpus
        args = ["--train", paths["train"], "--epochs", "6", "--minibatch", "8", "--dim", "4",
                "--margin", "2", "--checkpoint-every", "2"]
        full, run_dir = tmp_path / "full", tmp_path / "run"
        assert run(["train", "--out", full] + args) == EXIT_OK
        assert run(["train", "--out", run_dir] + args) == EXIT_OK
        assert run(["train", "--out", run_dir,
                    "--resume", run_dir / "checkpoint-epoch0002"] + args) == EXIT_OK

        def records(directory):
            lines = (directory / "metrics.jsonl").read_text().splitlines()
            return [{k: v for k, v in json.loads(line).items() if k != "wall_time"}
                    for line in lines]

        assert [r["epoch"] for r in records(run_dir)] == list(range(6))
        assert records(run_dir) == records(full)

    def test_resume_takes_model_settings_from_checkpoint(self, corpus):
        from graphkbc.model import load_model

        tmp_path, paths = corpus
        half = tmp_path / "half"
        assert run(["train", "--train", paths["train"], "--out", half, "--epochs", "2",
                    "--minibatch", "8", "--dim", "4", "--depth", "2", "--mode", "stacked",
                    "--pooling", "avg", "--transition", "tanh-layer", "--neighbor-cap", "3",
                    "--norm-p", "2", "--objective", "pairwise", "--margin", "2"]) == EXIT_OK
        resumed = tmp_path / "resumed"
        assert run(["train", "--train", paths["train"], "--out", resumed,
                    "--resume", half / "checkpoint-final", "--epochs", "3",
                    "--minibatch", "8"]) == EXIT_OK
        echo = json.loads((resumed / "config.json").read_text())
        expected = {"dim": 4, "depth": 2, "mode": "stacked", "pooling": "avg",
                    "transition": "tanh-layer", "neighbor_cap": 3, "norm_p": 2,
                    "objective": "pairwise", "margin": 2.0}
        assert {k: echo[k] for k in expected} == expected
        model, _, _, extra = load_model(resumed / "checkpoint-final")
        assert model.cfg.to_dict() == {k: expected[k] for k in model.cfg.to_dict()}
        assert (extra["objective"], extra["margin"]) == ("pairwise", 2.0)

    @pytest.mark.parametrize("flags, option, trained", [
        (["--dim", "7"], "dim", []),
        (["--margin", "50"], "margin", []),
        (["--objective", "pairwise"], "objective", []),
        ("neighbor_cap = 5\n", "neighbor_cap", []),
        # under the checkpoint's mode none, the config would set depth 5 back to its 0
        (["--depth", "5"], "depth", ["--mode", "none"]),
    ], ids=["dim-flag", "margin-flag", "objective-flag", "config-key", "depth-under-mode-none"])
    def test_resume_with_conflicting_model_setting_is_config_error(self, corpus, capsys,
                                                                    flags, option, trained):
        tmp_path, paths = corpus
        half = tmp_path / "half"
        assert run(["train", "--train", paths["train"], "--out", half]
                   + TRAIN_ARGS + trained) == EXIT_OK
        if isinstance(flags, str):
            (tmp_path / "run.conf").write_text(flags)
            flags = ["--config", tmp_path / "run.conf"]
        code = run(["train", "--train", paths["train"], "--out", tmp_path / "resumed",
                    "--resume", half / "checkpoint-final"] + TRAIN_ARGS + flags)
        assert code == EXIT_USAGE
        err = capsys.readouterr().err
        assert f"config error: option {option!r}" in err and "the checkpoint" in err

    def test_resume_with_vocab_is_usage_error(self, tmp_path, capsys):
        # a resumed model keeps its checkpoint's vocabulary; neither file exists
        code = run(["train", "--train", tmp_path / "train.txt", "--out", tmp_path / "resumed",
                    "--resume", tmp_path / "missing", "--vocab", tmp_path / "entities.txt"])
        assert code == EXIT_USAGE
        assert capsys.readouterr().err.startswith("usage error: ")
        assert not (tmp_path / "resumed").exists()

    @pytest.mark.parametrize("command", ["gen-ookb", "train"])
    def test_non_utf8_train_file_is_data_error(self, corpus, capsys, command):
        tmp_path, paths = corpus
        bad = tmp_path / "latin1.txt"
        bad.write_bytes(Path(paths["train"]).read_bytes() + b"e0\tnext\tcaf\xe9\n")
        extra = (["--valid", paths["valid"], "--test", paths["test"], "--n", "1",
                  "--position", "tail"] if command == "gen-ookb" else TRAIN_ARGS)
        code = run([command, "--train", bad, "--out", tmp_path / "r"] + extra)
        assert code == EXIT_DATA
        err = capsys.readouterr().err
        assert f"data error: {bad}:24: byte 0xe9 is not UTF-8" in err

    def test_non_utf8_vocab_file_is_data_error(self, corpus, capsys):
        tmp_path, paths = corpus
        vocab = tmp_path / "entities.txt"
        vocab.write_bytes(b"e0\ne1\n\xff\n")
        code = run(["train", "--train", paths["train"], "--vocab", vocab,
                    "--out", tmp_path / "r"] + TRAIN_ARGS)
        assert code == EXIT_DATA
        assert f"data error: {vocab}:3: byte 0xff is not UTF-8" in capsys.readouterr().err

    def test_filter_without_any_allowed_corruption_is_config_error(self, tmp_path, capsys):
        # the complete graph over {a, b}: every corruption is a training triplet
        train = tmp_path / "complete.txt"
        train.write_text("a\tr\ta\na\tr\tb\nb\tr\ta\nb\tr\tb\n")
        code = run(["train", "--train", train, "--out", tmp_path / "r",
                    "--filter-false-negatives", "--epochs", "1", "--dim", "4"])
        assert code == EXIT_USAGE
        err = capsys.readouterr().err
        assert "config error" in err and "pool too small" in err and "triplet ids" in err

    def test_filtered_negatives_are_never_training_triplets(self, tmp_path, monkeypatch):
        from graphkbc import trainer
        from graphkbc.kg import save_triplet_file
        from synthetic_corpus import hub_corpus

        train, ev, rv = hub_corpus()
        path = tmp_path / "hubs.txt"
        save_triplet_file(path, train, ev, rv)
        corrupt = trainer.corrupt_batch
        negatives = []

        def recorded(*args, **kwargs):
            negatives.append(corrupt(*args, **kwargs))
            return negatives[-1]

        monkeypatch.setattr(trainer, "corrupt_batch", recorded)
        seen = {}
        for flags in ([], ["--filter-false-negatives"]):
            negatives.clear()
            assert run(["train", "--train", path, "--out", tmp_path / f"r{len(seen)}",
                        "--epochs", "3", "--minibatch", "32", "--dim", "4"] + flags) == EXIT_OK
            seen[bool(flags)] = np.concatenate(negatives)
        # the file keeps the corpus's order, so ids are the same in both runs
        known = {tuple(t) for t in train}
        false_negatives = {flag: sum(tuple(t) in known for t in rows.tolist())
                           for flag, rows in seen.items()}
        assert false_negatives[True] == 0
        assert false_negatives[False] > 0
        assert not np.array_equal(seen[True], seen[False])

    def test_resume_with_unknown_relation_is_config_error(self, corpus, capsys):
        tmp_path, paths = corpus
        half = tmp_path / "half"
        assert run(["train", "--train", paths["train"], "--out", half] + TRAIN_ARGS) == EXIT_OK
        grown = tmp_path / "grown.txt"
        grown.write_text(Path(paths["train"]).read_text() + "e0\tsideways\te1\n")
        code = run(["train", "--train", grown, "--out", tmp_path / "resumed",
                    "--resume", half / "checkpoint-final"] + TRAIN_ARGS)
        assert code == EXIT_USAGE
        err = capsys.readouterr().err
        assert "config error" in err and "'sideways'" in err


class TestEvalAndPredict:
    @pytest.fixture
    def trained(self, corpus):
        tmp_path, paths = corpus
        out = tmp_path / "run"
        assert run(["train", "--train", paths["train"], "--out", out] + TRAIN_ARGS) == EXIT_OK
        return tmp_path, paths, out / "checkpoint-final"

    def test_standard_eval(self, trained, capsys):
        tmp_path, paths, checkpoint = trained
        out = tmp_path / "eval"
        code = run(["eval", "--checkpoint", checkpoint, "--mode", "standard",
                    "--train", paths["train"], "--valid", paths["valid"],
                    "--test", paths["test"], "--out", out])
        assert code == EXIT_OK
        report = json.loads((out / "report.jsonl").read_text().splitlines()[0])
        assert report["method"] == "standard"
        assert 0.0 <= report["accuracy"] <= 1.0
        assert report["n_test"] == 4
        thresholds = json.loads((out / "thresholds.json").read_text())
        assert set(thresholds["relations"]) <= {"next", "jump"}
        assert "accuracy" in (out / "summary.txt").read_text()

    def test_global_threshold_eval(self, trained, capsys):
        from graphkbc.evaluate import ThresholdTable

        tmp_path, paths, checkpoint = trained
        out = tmp_path / "eval-global"
        code = run(["eval", "--checkpoint", checkpoint, "--mode", "standard",
                    "--train", paths["train"], "--valid", paths["valid"],
                    "--test", paths["test"], "--global-threshold", "--out", out])
        assert code == EXIT_OK
        assert json.loads((out / "config.json").read_text())["per_relation"] is False
        thresholds = json.loads((out / "thresholds.json").read_text())
        assert thresholds["relations"] == {}
        report = json.loads((out / "report.jsonl").read_text().splitlines()[0])
        assert report["threshold_digest"] == ThresholdTable({}, thresholds["global"]).digest()

    def test_ookb_eval_both_methods(self, corpus, capsys):
        tmp_path, paths = corpus
        splits = tmp_path / "splits"
        assert run(["gen-ookb", "--train", paths["train"], "--valid", paths["valid"],
                    "--test", paths["test"], "--n", "2", "--position", "tail",
                    "--out", splits]) == EXIT_OK
        # the corpus-wide vocabulary seeds the embedding table, so entities
        # evaluated later but absent from the split's training file get rows
        assert (splits / "entities.txt").exists()
        run_dir = tmp_path / "ookb-train"
        assert run(["train", "--train", splits / "tail-2.train.txt",
                    "--vocab", splits / "entities.txt",
                    "--out", run_dir] + TRAIN_ARGS) == EXIT_OK
        checkpoint = run_dir / "checkpoint-final"
        import json as _json
        manifest = _json.loads((checkpoint / "manifest.json").read_text())
        entity_rows = next(e["shape"][0] for e in manifest["tensors"]
                           if e["name"] == "entities" and e["kind"] == "param")
        assert entity_rows == 14  # full corpus, not just the 13 kept entities

        out = tmp_path / "ookb-eval"
        code = run(["eval", "--checkpoint", checkpoint, "--mode", "ookb",
                    "--split-prefix", splits / "tail-2", "--method", "proposed",
                    "--out", out])
        assert code == EXIT_OK
        code = run(["eval", "--checkpoint", checkpoint, "--mode", "ookb",
                    "--split-prefix", splits / "tail-2", "--method", "baseline",
                    "--pooling", "avg", "--out", out])
        assert code == EXIT_OK
        lines = (out / "report.jsonl").read_text().splitlines()
        assert len(lines) == 2
        assert json.loads(lines[0])["method"] == "proposed"
        assert json.loads(lines[1])["method"] == "baseline"

    @pytest.mark.parametrize("aux, message", [
        ("", "entity 'e13' is outside the knowledge base and has no auxiliary triplet"),
        ("e13\tnext\te13\n", "auxiliary triplet ('e13', 'e13') links 2 out-of-KB entities"),
    ], ids=["no-aux", "two-ookb"])
    def test_ookb_eval_names_the_entity_it_cannot_resolve(self, corpus, capsys, aux, message):
        tmp_path, paths = corpus
        splits = tmp_path / "splits"
        assert run(["gen-ookb", "--train", paths["train"], "--valid", paths["valid"],
                    "--test", paths["test"], "--n", "2", "--position", "tail",
                    "--out", splits]) == EXIT_OK
        run_dir = tmp_path / "ookb-train"
        assert run(["train", "--train", splits / "tail-2.train.txt",
                    "--vocab", splits / "entities.txt",
                    "--out", run_dir] + TRAIN_ARGS) == EXIT_OK
        (splits / "tail-2.aux.txt").write_text(aux)
        capsys.readouterr()
        for method in (["proposed"], ["baseline", "--pooling", "avg"]):
            code = run(["eval", "--checkpoint", run_dir / "checkpoint-final", "--mode", "ookb",
                        "--split-prefix", splits / "tail-2", "--method", *method,
                        "--out", tmp_path / "ookb-eval"])
            assert code == EXIT_DATA
            err = capsys.readouterr().err
            assert err.startswith("data error") and message in err, err

    def test_proposed_ookb_eval_of_a_model_without_propagation_is_data_error(self, corpus,
                                                                             capsys):
        tmp_path, paths = corpus
        splits = tmp_path / "splits"
        assert run(["gen-ookb", "--train", paths["train"], "--valid", paths["valid"],
                    "--test", paths["test"], "--n", "2", "--position", "tail",
                    "--out", splits]) == EXIT_OK
        run_dir = tmp_path / "ookb-train"
        assert run(["train", "--train", splits / "tail-2.train.txt",
                    "--vocab", splits / "entities.txt", "--out", run_dir]
                   + TRAIN_ARGS + ["--mode", "none"]) == EXIT_OK
        capsys.readouterr()
        code = run(["eval", "--checkpoint", run_dir / "checkpoint-final", "--mode", "ookb",
                    "--split-prefix", splits / "tail-2", "--method", "proposed",
                    "--out", tmp_path / "ookb-eval"])
        assert code == EXIT_DATA
        assert (capsys.readouterr().err == "data error: the trained model has no "
                "propagation step; use the pooled baseline\n")

    @pytest.mark.parametrize("part, line, name", [
        ("valid", "e0\tsideways\te1\t1", "sideways"),
        ("test", "e4\tnext\tmartian\t-1", "martian"),
        # no validation or test entity: propagation finds it as e0's neighbor
        ("train", "e0\tnext\tzed", "zed"),
    ], ids=["relation", "entity", "train-neighbor"])
    def test_standard_eval_of_what_the_checkpoint_lacks_is_data_error(self, trained, capsys,
                                                                      part, line, name):
        tmp_path, paths, checkpoint = trained
        extended = tmp_path / f"extended-{part}.txt"
        extended.write_text(Path(paths[part]).read_text() + line + "\n")
        files = {**paths, part: extended}
        code = run(["eval", "--checkpoint", checkpoint, "--mode", "standard",
                    "--train", files["train"], "--valid", files["valid"],
                    "--test", files["test"], "--out", tmp_path / "eval"])
        assert code == EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith("data error") and repr(name) in err

    @pytest.mark.parametrize("part, message", [
        ("valid", "cannot tune thresholds on an empty validation set"),
        ("test", "empty.txt: empty test set"),
    ], ids=["valid", "test"])
    def test_standard_eval_of_an_empty_file_is_data_error(self, trained, capsys, part, message):
        tmp_path, paths, checkpoint = trained
        empty = tmp_path / "empty.txt"
        empty.write_text("")
        files = {**paths, part: empty}
        code = run(["eval", "--checkpoint", checkpoint, "--mode", "standard",
                    "--train", files["train"], "--valid", files["valid"],
                    "--test", files["test"], "--out", tmp_path / "eval"])
        assert code == EXIT_DATA
        assert capsys.readouterr().err == f"data error: {message}\n"

    def test_ookb_eval_of_a_relation_the_checkpoint_lacks_is_data_error(self, corpus, capsys):
        # trained without --vocab, the checkpoint has the split's 2 relations only
        tmp_path, paths = corpus
        splits = tmp_path / "splits"
        assert run(["gen-ookb", "--train", paths["train"], "--valid", paths["valid"],
                    "--test", paths["test"], "--n", "2", "--position", "tail",
                    "--out", splits]) == EXIT_OK
        run_dir = tmp_path / "ookb-train"
        assert run(["train", "--train", splits / "tail-2.train.txt", "--out", run_dir]
                   + TRAIN_ARGS) == EXIT_OK
        with open(splits / "tail-2.valid.txt", "a", encoding="utf-8") as fh:
            fh.write("e0\tsideways\te1\t1\n")
        capsys.readouterr()
        code = run(["eval", "--checkpoint", run_dir / "checkpoint-final", "--mode", "ookb",
                    "--split-prefix", splits / "tail-2", "--out", tmp_path / "ookb-eval"])
        assert code == EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith("data error") and "'sideways'" in err

    def test_baseline_without_pooling_is_usage_error(self, trained):
        tmp_path, paths, checkpoint = trained
        code = run(["eval", "--checkpoint", checkpoint, "--mode", "ookb",
                    "--split-prefix", tmp_path / "none", "--method", "baseline",
                    "--out", tmp_path / "x"])
        assert code == EXIT_USAGE

    def test_predict_known_and_ookb(self, trained, capsys):
        tmp_path, paths, checkpoint = trained
        queries = tmp_path / "queries.txt"
        queries.write_text("e0\tnext\te1\ne99\tnext\te2\n")
        aux = tmp_path / "aux.txt"
        aux.write_text("e12\tnext\te99\n")
        out = tmp_path / "pred.tsv"
        code = run(["predict", "--checkpoint", checkpoint, "--train", paths["train"],
                    "--triplets", queries, "--aux", aux, "--valid", paths["valid"],
                    "--out", out])
        assert code == EXIT_OK
        rows = [line.split("\t") for line in out.read_text().splitlines()]
        assert len(rows) == 2
        assert rows[0][:3] == ["e0", "next", "e1"]
        assert rows[1][0] == "e99"
        for row in rows:
            float(row[3]), float(row[4])
            assert row[5] in ("1", "-1")

    def test_predict_tuned_on_an_empty_valid_file_is_data_error(self, trained, capsys):
        tmp_path, paths, checkpoint = trained
        queries, empty = tmp_path / "queries.txt", tmp_path / "empty.txt"
        queries.write_text("e0\tnext\te1\n")
        empty.write_text("")
        code = run(["predict", "--checkpoint", checkpoint, "--train", paths["train"],
                    "--triplets", queries, "--valid", empty])
        assert code == EXIT_DATA
        assert (capsys.readouterr().err
                == "data error: cannot tune thresholds on an empty validation set\n")

    def test_predict_aux_linking_two_unknown_entities_is_data_error(self, trained, capsys):
        # e98 is outside --train too, so the aux triplet links no known entity
        tmp_path, paths, checkpoint = trained
        queries = tmp_path / "queries.txt"
        queries.write_text("e99\tnext\te2\n")
        aux = tmp_path / "aux.txt"
        aux.write_text("e98\tnext\te99\n")
        code = run(["predict", "--checkpoint", checkpoint, "--train", paths["train"],
                    "--triplets", queries, "--aux", aux, "--valid", paths["valid"]])
        assert code == EXIT_DATA
        err = capsys.readouterr().err
        assert "data error" in err and "e98" in err and "e99" in err

    def test_truncated_checkpoint_blob_is_data_error(self, trained, capsys):
        tmp_path, paths, checkpoint = trained
        blob = checkpoint / "params.bin"
        blob.write_bytes(blob.read_bytes()[:-8])
        queries = tmp_path / "queries.txt"
        queries.write_text("e0\tnext\te1\n")
        code = run(["predict", "--checkpoint", checkpoint, "--train", paths["train"],
                    "--triplets", queries, "--valid", paths["valid"]])
        assert code == EXIT_DATA
        err = capsys.readouterr().err
        assert "data error" in err and "params.bin" in err

    @pytest.mark.parametrize("fault, command", [
        ("nan", "predict"), ("nan", "eval"), ("truncated", "eval"),
    ], ids=["nan-predict", "nan-eval", "truncated-eval"])
    def test_damaged_checkpoint_is_data_error(self, trained, capsys, fault, command):
        tmp_path, paths, checkpoint = trained
        blob = checkpoint / "params.bin"
        data = blob.read_bytes()
        if fault == "truncated":
            blob.write_bytes(data[:-8])
            message = "params.bin holds"
        else:
            manifest = json.loads((checkpoint / "manifest.json").read_text())
            at = next(e["offset"] for e in manifest["tensors"]
                      if e["name"] == "entities" and e["kind"] == "param") + 16
            blob.write_bytes(data[:at] + np.float64(np.nan).tobytes() + data[at + 8:])
            message = "tensor 'entities' (param) holds a NaN or Inf"
        if command == "predict":
            queries = tmp_path / "queries.txt"
            queries.write_text("e0\tnext\te1\n")
            argv = ["predict", "--checkpoint", checkpoint, "--train", paths["train"],
                    "--triplets", queries, "--valid", paths["valid"]]
        else:
            argv = ["eval", "--checkpoint", checkpoint, "--mode", "standard",
                    "--train", paths["train"], "--valid", paths["valid"],
                    "--test", paths["test"], "--out", tmp_path / "eval"]
        assert run(argv) == EXIT_DATA
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "data error" in captured.err and message in captured.err

    def test_eval_and_predict_do_not_read_adam_moments(self, trained, capsys):
        # a NaN in a moment fails only the command that steps Adam
        tmp_path, paths, checkpoint = trained
        blob = checkpoint / "params.bin"
        data = blob.read_bytes()
        manifest = json.loads((checkpoint / "manifest.json").read_text())
        at = next(e["offset"] for e in manifest["tensors"]
                  if e["name"] == "entities" and e["kind"] == "adam_m") + 16
        blob.write_bytes(data[:at] + np.float64(np.nan).tobytes() + data[at + 8:])
        queries = tmp_path / "queries.txt"
        queries.write_text("e0\tnext\te1\n")
        assert run(["predict", "--checkpoint", checkpoint, "--train", paths["train"],
                    "--triplets", queries, "--valid", paths["valid"]]) == EXIT_OK
        assert run(["eval", "--checkpoint", checkpoint, "--mode", "standard",
                    "--train", paths["train"], "--valid", paths["valid"],
                    "--test", paths["test"], "--out", tmp_path / "eval"]) == EXIT_OK
        capsys.readouterr()
        assert run(["train", "--train", paths["train"], "--out", tmp_path / "resumed",
                    "--resume", checkpoint, "--epochs", "4"]) == EXIT_DATA
        assert "tensor 'entities' (adam_m) holds a NaN or Inf" in capsys.readouterr().err

    @pytest.mark.parametrize("fault, message", [
        ("torn", "is not a checkpoint manifest"),
        ("no-tensors", "is not a checkpoint manifest"),
        ("no-propagation", "holds no valid propagation config"),
        ("extra-not-object", "holds no valid propagation config"),
    ])
    def test_malformed_manifest_is_data_error(self, trained, capsys, fault, message):
        tmp_path, paths, checkpoint = trained
        manifest_path = checkpoint / "manifest.json"
        text = manifest_path.read_text()
        manifest = json.loads(text)
        if fault == "torn":
            manifest_path.write_text(text[: len(text) // 2])
        elif fault == "no-tensors":
            del manifest["tensors"]
            manifest_path.write_text(json.dumps(manifest))
        elif fault == "extra-not-object":
            manifest["extra"] = "unrolled"
            manifest_path.write_text(json.dumps(manifest))
        else:
            del manifest["extra"]["propagation"]
            manifest_path.write_text(json.dumps(manifest))
        code = run(["eval", "--checkpoint", checkpoint, "--mode", "standard",
                    "--train", paths["train"], "--valid", paths["valid"],
                    "--test", paths["test"], "--out", tmp_path / "eval"])
        assert code == EXIT_DATA
        err = capsys.readouterr().err
        assert "data error" in err and f"manifest.json {message}" in err

    @pytest.mark.parametrize("content, message", [
        ('{"global": 1.5}', "KeyError: 'relations'"),
        ('{"global": 1.5, "relations": {"ne', "JSONDecodeError"),
        ('{"global": 1.5, "relations": {"next": "high"}}', "could not convert"),
    ], ids=["no-relations", "torn", "non-numeric"])
    def test_malformed_thresholds_file_is_data_error(self, trained, capsys, content, message):
        tmp_path, paths, checkpoint = trained
        thresholds = tmp_path / "thresholds.json"
        thresholds.write_text(content)
        queries = tmp_path / "queries.txt"
        queries.write_text("e0\tnext\te1\n")
        code = run(["predict", "--checkpoint", checkpoint, "--train", paths["train"],
                    "--triplets", queries, "--thresholds", thresholds])
        assert code == EXIT_DATA
        err = capsys.readouterr().err
        assert "data error" in err and "thresholds.json: malformed" in err and message in err

    def test_split_stats_missing_keys_is_data_error(self, trained, capsys):
        tmp_path, paths, checkpoint = trained
        splits = tmp_path / "splits"
        assert run(["gen-ookb", "--train", paths["train"], "--valid", paths["valid"],
                    "--test", paths["test"], "--n", "2", "--position", "tail",
                    "--out", splits]) == EXIT_OK
        stats_path = splits / "tail-2.stats.json"
        stats = json.loads(stats_path.read_text())
        del stats["ookb_entities"]
        stats_path.write_text(json.dumps(stats))
        code = run(["eval", "--checkpoint", checkpoint, "--mode", "ookb",
                    "--split-prefix", splits / "tail-2", "--out", tmp_path / "eval"])
        assert code == EXIT_DATA
        err = capsys.readouterr().err
        assert "data error" in err and "tail-2.stats.json: malformed" in err

    @pytest.mark.parametrize("edit, message", [
        ("drop", "checkpoint has no tensor 'A'"),
        ("rename", "checkpoint has no tensor 'A'; checkpoint tensor 'A.head.r0.l0' is not one"),
        ("reshape", r"tensor 'A' has shape \(24, 6\); the configuration and vocabularies "
                    r"need \(4, 6, 6\)"),
        ("vocabulary", r"tensor 'entities' has shape \(14, 6\); .* need \(15, 6\)"),
        ("config", r"tensor 'A' has shape \(4, 6, 6\); .* need \(8, 6, 6\)"),
        ("per_tensor_steps", r"per-tensor Adam counts \('entities', 'relations', "
                             r"'A.head.r0.l0', \.\.\.\).*retrain"),
    ], ids=["drop", "rename", "reshape", "vocabulary", "config", "per_tensor_steps"])
    def test_mismatched_bundle_is_data_error(self, trained, capsys, edit, message):
        tmp_path, paths, checkpoint = trained
        manifest_path = checkpoint / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        if edit == "drop":  # A's entries and bytes, leaving the layout save_checkpoint writes
            blob = checkpoint / "params.bin"
            data, kept, at = blob.read_bytes(), [], 0
            manifest["tensors"] = [e for e in manifest["tensors"] if e["name"] != "A"]
            for entry in manifest["tensors"]:
                size = 8 * int(np.prod(entry["shape"]))
                kept.append(data[entry["offset"]:entry["offset"] + size])
                entry["offset"], at = at, at + size
            blob.write_bytes(b"".join(kept))
        elif edit in ("rename", "per_tensor_steps"):  # a per-group name of older bundles
            for entry in manifest["tensors"]:
                if entry["name"] == "A":
                    entry["name"] = "A.head.r0.l0"
        elif edit == "reshape":
            for entry in manifest["tensors"]:
                if entry["name"] == "A":
                    entry["shape"] = [24, 6]
        elif edit == "vocabulary":
            with open(checkpoint / "entities.txt", "a", encoding="utf-8") as fh:
                fh.write("e99\n")
        elif edit == "config":
            manifest["extra"]["propagation"].update(mode="stacked", depth=2)
        if edit == "per_tensor_steps":  # and the step counts of older bundles
            step = manifest.pop("adam_step")
            manifest["adam_steps"] = {e["name"]: step for e in manifest["tensors"]
                                      if e["kind"] == "param"}
        manifest_path.write_text(json.dumps(manifest))
        queries = tmp_path / "queries.txt"
        queries.write_text("e0\tnext\te1\n")
        code = run(["predict", "--checkpoint", checkpoint, "--train", paths["train"],
                    "--triplets", queries, "--valid", paths["valid"]])
        assert code == EXIT_DATA
        err = capsys.readouterr().err
        assert "data error" in err
        assert re.search(message, err), err

    @pytest.mark.parametrize("edit, message", [
        # an object dtype would have the reader write file bytes over pointers
        ("dtype-object", r"entry \{'name': 'entities', .*'dtype': 'O', 'offset': 0\} is not a "
                         r"'<f8' param, adam_m, adam_v or buffer with nonnegative int sizes"),
        # these would reinterpret the float64 bytes
        ("dtype-f4", r"'dtype': '<f4', 'offset': 0\} is not"),
        ("dtype-i8", r"'dtype': '<i8', 'offset': 0\} is not"),
        ("negative-shape", r"'shape': \[-1, 6\], .*\} is not"),
        ("float-shape", r"'shape': \[14.0, 6\], .*\} is not"),
        ("unknown-kind", r"'kind': 'grad', .*\} is not"),
        # the parameter and its first moment trade places
        ("swapped-offsets", r"'offset': 672\} is not .* at byte 0"),
        # a second copy of the last entry, its bytes appended to the blob
        ("repeated-entry", r"a \(name, kind\) entry is repeated"),
        # the same bytes, but not the parameter's shape
        ("moment-reshaped", r"manifest.json: tensor 'entities' lacks Adam moments of its shape \(14, 6\)"),
        ("float-step", "has adam_step 2.5, not a step count"),
        ("string-step", "has adam_step '2', not a step count"),
        ("negative-step", "has adam_step -1, not a step count"),
    ], ids=["dtype-object", "dtype-f4", "dtype-i8", "negative-shape", "float-shape",
            "unknown-kind", "swapped-offsets", "repeated-entry", "moment-reshaped", "float-step",
            "string-step", "negative-step"])
    def test_manifest_unlike_a_saved_one_is_data_error(self, trained, capsys, edit, message):
        tmp_path, paths, checkpoint = trained
        manifest_path = checkpoint / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        entities = manifest["tensors"][0]
        assert (entities["name"], entities["kind"], entities["shape"]) == ("entities", "param", [14, 6])
        if edit.startswith("dtype"):
            entities["dtype"] = {"dtype-object": "O", "dtype-f4": "<f4", "dtype-i8": "<i8"}[edit]
        elif edit.endswith("shape"):
            entities["shape"][0] = -1 if edit == "negative-shape" else 14.0
        elif edit == "unknown-kind":
            entities["kind"] = "grad"
        elif edit == "swapped-offsets":
            moment = manifest["tensors"][1]
            entities["offset"], moment["offset"] = moment["offset"], entities["offset"]
        elif edit == "repeated-entry":
            last = dict(manifest["tensors"][-1])
            size = 8 * int(np.prod(last["shape"]))
            blob = checkpoint / "params.bin"
            data = blob.read_bytes()
            assert last["offset"] + size == len(data)
            blob.write_bytes(data + data[-size:])
            last["offset"] = len(data)
            manifest["tensors"].append(last)
        elif edit == "moment-reshaped":
            manifest["tensors"][1]["shape"] = [6, 14]
        else:
            manifest["adam_step"] = {"float-step": 2.5, "string-step": "2", "negative-step": -1}[edit]
        manifest_path.write_text(json.dumps(manifest))
        queries = tmp_path / "queries.txt"
        queries.write_text("e0\tnext\te1\n")
        code = run(["predict", "--checkpoint", checkpoint, "--train", paths["train"],
                    "--triplets", queries, "--valid", paths["valid"]])
        assert code == EXIT_DATA
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "data error" in captured.err and "manifest.json" in captured.err
        assert re.search(message, captured.err), captured.err

    @pytest.mark.parametrize("where", ["aux", "query"])
    def test_predict_relation_missing_from_checkpoint_is_data_error(self, trained, capsys,
                                                                    where):
        tmp_path, paths, checkpoint = trained
        queries = tmp_path / "queries.txt"
        aux = tmp_path / "aux.txt"
        if where == "aux":
            queries.write_text("e99\tnext\te2\n")
            aux.write_text("e12\tsideways\te99\n")
        else:
            queries.write_text("e0\tsideways\te1\n")
            aux.write_text("e12\tnext\te99\n")
        code = run(["predict", "--checkpoint", checkpoint, "--train", paths["train"],
                    "--triplets", queries, "--aux", aux, "--valid", paths["valid"]])
        assert code == EXIT_DATA
        err = capsys.readouterr().err
        assert "data error" in err and "sideways" in err

    def test_predict_unknown_entity_without_aux_names_it(self, trained, capsys):
        tmp_path, paths, checkpoint = trained
        queries = tmp_path / "queries.txt"
        queries.write_text("martian\tnext\te2\n")
        code = run(["predict", "--checkpoint", checkpoint, "--train", paths["train"],
                    "--triplets", queries, "--valid", paths["valid"]])
        assert code == EXIT_DATA
        assert "martian" in capsys.readouterr().err

    def test_predict_ookb_entity_without_aux_triplet_is_data_error(self, trained, capsys):
        # e98 is resolved through its aux triplet; e99 has none
        tmp_path, paths, checkpoint = trained
        queries = tmp_path / "queries.txt"
        queries.write_text("e98\tnext\te2\ne99\tnext\te2\n")
        aux = tmp_path / "aux.txt"
        aux.write_text("e12\tnext\te98\n")
        code = run(["predict", "--checkpoint", checkpoint, "--train", paths["train"],
                    "--triplets", queries, "--aux", aux, "--valid", paths["valid"]])
        assert code == EXIT_DATA
        err = capsys.readouterr().err
        assert "data error" in err and "e99" in err

    def test_predict_entity_the_checkpoint_names_but_train_lacks_needs_aux(self, trained,
                                                                            capsys):
        # e13 has an embedding row, but without its --train lines it is out of KB
        tmp_path, paths, checkpoint = trained
        train = tmp_path / "train-without-e13.txt"
        train.write_text("".join(line for line in open(paths["train"]) if "e13" not in line))
        queries, aux = tmp_path / "queries.txt", tmp_path / "aux.txt"
        queries.write_text("e13\tnext\te2\n")
        aux.write_text("e12\tnext\te13\n")
        argv = ["predict", "--checkpoint", checkpoint, "--train", train,
                "--triplets", queries, "--valid", paths["valid"]]
        assert run(argv) == EXIT_DATA
        err = capsys.readouterr().err
        assert "data error" in err and "e13" in err
        out = tmp_path / "pred.tsv"
        assert run(argv + ["--aux", aux, "--out", out]) == EXIT_OK
        assert out.read_text().split("\t")[:3] == ["e13", "next", "e2"]


STANDARD_FILES = ["--train", "{d}/train.txt", "--valid", "{d}/valid.txt", "--test", "{d}/test.txt"]
PROPOSED = ["--mode", "ookb", "--split-prefix", "{d}/split", "--method", "proposed"]


@pytest.mark.parametrize("argv", [
    ["eval", "--mode", "standard"],
    ["eval", "--mode", "ookb"],
    ["eval", "--mode", "ookb", "--split-prefix", "{d}/split", "--method", "baseline"],
    ["predict", "--train", "{d}/train.txt", "--triplets", "{d}/queries.txt"],
    # options that the chosen mode or method would ignore
    ["eval", "--mode", "standard"] + STANDARD_FILES + ["--pooling", "sum"],
    ["eval", "--mode", "standard"] + STANDARD_FILES + ["--raw-neighbors"],
    ["eval"] + PROPOSED + ["--pooling", "sum"],
    ["eval"] + PROPOSED + ["--raw-neighbors"],
    ["predict", "--train", "{d}/train.txt", "--triplets", "{d}/queries.txt",
     "--thresholds", "{d}/thresholds.json", "--valid", "{d}/valid.txt"],
], ids=["standard-eval-without-files", "ookb-eval-without-split", "baseline-without-pooling",
        "predict-without-thresholds-or-valid", "standard-eval-with-pooling",
        "standard-eval-with-raw-neighbors", "proposed-with-pooling", "proposed-with-raw-neighbors",
        "predict-with-thresholds-and-valid"])
def test_option_combination_is_checked_before_any_file_is_read(tmp_path, capsys, argv):
    # no path named here exists, the checkpoint included
    argv = argv[:1] + ["--checkpoint", "{d}/missing", "--out", "{d}/out"] + argv[1:]
    assert run([a.format(d=tmp_path) for a in argv]) == EXIT_USAGE
    assert capsys.readouterr().err.startswith("usage error: ")
    assert not (tmp_path / "out").exists()


class TestGradcheckCommand:
    def test_fresh_build_passes(self, capsys):
        assert run(["gradcheck"]) == EXIT_OK
        assert "passed" in capsys.readouterr().out

    def test_injected_wrong_gradient_fails(self, capsys, monkeypatch):
        from graphkbc import autodiff as ad

        rows_norm = ad.rows_norm

        def doubled_gradient(x, p):  # the right norm with twice its gradient
            out = rows_norm(x, p)
            if out._backward is not None:
                right = out._backward
                out._backward = lambda g: right(2.0 * g)
            return out

        monkeypatch.setattr(ad, "rows_norm", doubled_gradient)
        assert run(["gradcheck"]) == EXIT_NUMERIC
        assert "beyond tolerance" in capsys.readouterr().err

    def test_default_tolerance_is_the_gradient_checks(self, capsys):
        from graphkbc.autodiff import GRADCHECK_TOLERANCE

        assert run(["gradcheck"]) == EXIT_OK
        assert capsys.readouterr().out == f"gradcheck passed at tolerance {GRADCHECK_TOLERANCE:g}\n"

    def test_tolerance_flag_respected(self, capsys):
        # an absurdly tight tolerance must flag finite-difference noise
        assert run(["gradcheck", "--tolerance", "1e-14"]) == EXIT_NUMERIC

    @pytest.mark.parametrize("tolerance", ["nan", "inf", "-1"])
    def test_tolerance_must_be_a_finite_number_at_least_zero(self, capsys, monkeypatch, tolerance):
        from graphkbc import cli

        monkeypatch.setattr(cli, "gradient_check_report",
                            lambda **kw: pytest.fail("the suites ran"))
        assert run(["gradcheck", "--tolerance", tolerance]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("usage error: --tolerance must be a finite number >= 0")


def _openblas():
    """numpy's bundled OpenBLAS, or None where numpy bundles none with a thread setter."""
    for path in (Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*"):
        lib = ctypes.CDLL(str(path))
        if hasattr(lib, "scipy_openblas_set_num_threads64_"):
            return lib
    return None


class TestWorkers:
    def test_in_process_run_holds_blas_at_one_thread(self, monkeypatch):
        from graphkbc import autodiff as ad

        blas = _openblas()
        if blas is None:
            pytest.skip("numpy bundles no OpenBLAS with a thread setter")
        assert "numpy" in sys.modules  # imported by this module
        blas.scipy_openblas_set_num_threads64_(2)
        with monkeypatch.context() as m:  # no setter found: BLAS is left as it is
            m.setattr(ad.glob, "glob", lambda pattern: [])
            assert run(["gradcheck"]) == EXIT_OK
        assert blas.scipy_openblas_get_num_threads64_() == 2
        assert run(["gradcheck"]) == EXIT_OK
        assert blas.scipy_openblas_get_num_threads64_() == 1

    def test_command_line_run_takes_effect(self):
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        done = subprocess.run([sys.executable, "-m", "graphkbc.cli", "gradcheck"],
                              env=env, capture_output=True, text=True, timeout=120)
        assert done.returncode == EXIT_OK, done.stderr
        assert "passed" in done.stdout


    # trains in a fresh process (so an affinity mask of the comma-listed CPUs
    # and BLAS variables take effect) and reports whether a transition pool
    # thread ever started
    TRAIN_AND_REPORT = (
        "import os, sys, threading\n"
        "cpus = os.environ.get('PIN_CPU')\n"
        "if cpus: os.sched_setaffinity(0, {int(cpu) for cpu in cpus.split(',')})\n"
        "from graphkbc.cli import main\n"
        "code = main(sys.argv[1:])\n"
        "print(any(t.name.startswith('graphkbc-pool') for t in threading.enumerate()))\n"
        "sys.exit(code)\n")

    def test_workers_caps_the_transition_pool_and_keeps_outputs(self, tmp_path):
        src = str(Path(__file__).resolve().parents[1] / "src")
        cpus = sorted(os.sched_getaffinity(0))
        # 300 entities: a minibatch's transition rows times 32 features are
        # well above autodiff.POOL_FLOOR. The second corpus's transition
        # matmuls are large enough that a two-thread OpenBLAS changes their
        # bits, so its runs agree only if BLAS is held at one thread.
        inputs = (
            (4, 1500, {"one-cpu": {"PIN_CPU": str(cpus[0])}, "default": {}}),
            (2, 6000, {"one-cpu": {"PIN_CPU": str(cpus[0])},
                       "two-cpus": {"PIN_CPU": ",".join(map(str, cpus[:2]))},
                       "default": {"OPENBLAS_NUM_THREADS": "2"}}),
        )
        for n_relations, minibatch, cases in inputs:
            if n_relations == 2 and len(cpus) < 2:
                pytest.skip("the 2-relation input compares thread settings on 2 CPUs; "
                            "this process may use one")
            rng = np.random.default_rng(4)
            heads, tails = rng.integers(0, 300, 3000), rng.integers(0, 300, 3000)
            lines = {f"e{h}\tr{r}\te{t}" for h, r, t
                     in zip(heads, rng.integers(0, n_relations, 3000), tails) if h != t}
            train = tmp_path / f"train-{n_relations}.txt"
            train.write_text("\n".join(sorted(lines)) + "\n")
            outputs = {}
            for name, extra in cases.items():
                env = dict(os.environ, PYTHONPATH=os.pathsep.join(
                    filter(None, [src, os.environ.get("PYTHONPATH")])))
                env.pop("PIN_CPU", None)
                env.update(extra)
                out = tmp_path / f"{n_relations}-{name}"
                done = subprocess.run(
                    [sys.executable, "-c", self.TRAIN_AND_REPORT, "train",
                     "--train", str(train), "--out", str(out), "--epochs", "1",
                     "--minibatch", str(minibatch), "--dim", "32", "--margin", "2",
                     "--checkpoint-every", "1"],
                    env=env, capture_output=True, text=True, timeout=300)
                assert done.returncode == EXIT_OK, done.stderr
                started = done.stdout.splitlines()[-1] == "True"
                assert started is (name in ("default", "two-cpus") and len(cpus) > 1), name
                outputs[name] = (out / "checkpoint-final" / "params.bin").read_bytes()
            digests = {name: hashlib.sha256(data).hexdigest()[:8] for name, data in outputs.items()}
            assert len(set(digests.values())) == 1, (n_relations, digests)


class TestConfigHelpers:
    def test_parse_config_file(self, tmp_path):
        p = tmp_path / "c.conf"
        p.write_text("# comment\n\nepochs = 12\nname=x\n")
        assert parse_config_file(p) == {"epochs": "12", "name": "x"}

    def test_malformed_line(self, tmp_path):
        p = tmp_path / "c.conf"
        p.write_text("epochs\n")
        from graphkbc.cli import ConfigError
        with pytest.raises(ConfigError, match=":1:"):
            parse_config_file(p)

    def test_bool_coercion(self, tmp_path):
        import argparse

        from graphkbc.cli import ConfigError
        fields = {"flag": (bool, False)}
        p = tmp_path / "c.conf"
        p.write_text("flag = yes\n")
        merged = merge_options(fields, argparse.Namespace(flag=None), p)
        assert merged["flag"] is True
        p.write_text("flag = maybe\n")
        with pytest.raises(ConfigError):
            merge_options(fields, argparse.Namespace(flag=None), p)
