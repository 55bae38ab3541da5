import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
spec = importlib.util.spec_from_file_location("parity", ROOT / "tools" / "parity.py")
parity = importlib.util.module_from_spec(spec)
spec.loader.exec_module(parity)


def test_compare_ignores_only_metrics_wall_time(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for root, wall, loss in ((a, 0.5, 1.0), (b, 0.7, 1.0)):
        (root / "run").mkdir(parents=True)
        (root / "run" / "metrics.jsonl").write_text(
            json.dumps({"epoch": 0, "loss": loss, "wall_time": wall}) + "\n")
        (root / "run" / "params.bin").write_bytes(b"\x00\x01")
    assert parity.differing_files(a, b) == []

    (b / "run" / "metrics.jsonl").write_text(json.dumps({"epoch": 0, "loss": 1.5}) + "\n")
    (b / "run" / "params.bin").write_bytes(b"\x00\x02")
    (a / "only.txt").write_text("x")
    assert parity.differing_files(a, b) == [
        f"only.txt (only under {a})", "run/metrics.jsonl", "run/params.bin"]


def test_command_sequence_runs_on_this_tree(tmp_path):
    # every command of the sequence succeeds, and writes what the comparison reads
    parity.run_tree(ROOT, tmp_path, parity.corpora())
    assert set(parity.MODELS) == {"grid", "hub", "grid-relu", "hub-identity"}
    for name in parity.MODELS:
        assert (tmp_path / name / "run" / "checkpoint-epoch0002" / "params.bin").exists()
        for mode in ("standard", "proposed", "baseline", "baseline-sum", "baseline-max"):
            assert (tmp_path / name / f"eval-{mode}" / "report.jsonl").exists()
        for how in ("thresholds", "valid"):
            lines = (tmp_path / name / f"predict-{how}.txt").read_text().splitlines()
            assert len(lines) == len((tmp_path / name / "queries.txt").read_text().splitlines())
        # the faulty inputs are data errors, the faulty option combinations usage errors
        faults = (tmp_path / name / "faults.txt").read_text().splitlines()
        assert [line for line in faults if line.startswith("exit ")] == ["exit 2"] * 8 + ["exit 1"] * 4


def test_commands_reach_no_name_kept_for_the_tracer_and_the_tests(tmp_path, monkeypatch):
    # perfbench's tracer wraps these by name and the tests build reference
    # chains from them; gradcheck and every command of the sequence run without
    from graphkbc import autodiff, kg, nn
    from graphkbc.cli import EXIT_OK, main

    def reached(*args, **kwargs):
        raise AssertionError("a command reached a name kept for the tracer and the tests")

    ops = ("mul", "tanh", "power", "mean0", "concat_rows", "affine_rows")
    for owner, name in [(autodiff, op) for op in ops] + [(kg, "entities_of"),
                                                          (nn.BatchNorm, "__call__")]:
        monkeypatch.setattr(owner, name, reached)
    assert main(["gradcheck"]) == EXIT_OK
    monkeypatch.chdir(tmp_path)
    for name, files in parity.corpora().items():
        parity.write_inputs(tmp_path, name, files)
        for argv in parity.commands(name, len(files["test"])):
            assert main(argv) == EXIT_OK, argv


def _bench_pairs():
    import sys
    sys.path.insert(0, str(ROOT / "tools"))
    try:
        spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "tools" / "bench_pairs.py")
        bench_pairs = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(bench_pairs)
    finally:
        sys.path.remove(str(ROOT / "tools"))
    return bench_pairs


def test_bench_summary_counts_wins_by_direction():
    bench_pairs = _bench_pairs()

    def run(rate, rss):
        return {"result": {"metrics": {"rate": {"value": rate}, "rss": {"value": rss}}}}

    # (parent, change) per pair: rate higher is better, rss lower is better
    pairs = [{"parent": run(p, pr), "change": run(c, cr)}
             for (p, c), (pr, cr) in zip([(10, 12), (11, 11), (12, 10), (9, 13), (10, 14)],
                                         [(5, 4), (5, 5), (5, 6), (5, 4), (5, 4)])]
    out = bench_pairs.summary(pairs, {"rate": "higher", "rss": "lower"})
    assert (out["rate"]["wins"], out["rate"]["losses"]) == (3, 1)
    assert (out["rss"]["wins"], out["rss"]["losses"]) == (3, 1)
    assert out["rate"]["parent"] == {"median": 10, "q1": 10, "q3": 11}
    assert out["rate"]["change"]["median"] == 12
    assert out["rate"]["median_change"] == pytest.approx(0.2) and out["rate"]["beyond_parent_iqr"]
    assert out["rss"]["median_change"] == pytest.approx(-0.2)
    assert not out["rate"]["claim_rule_met"]  # beyond the IQR, but 3 of 5 pairs won

    # ten pairs: a claim needs 9 wins (ties count for neither) and a median
    # change beyond the parent's interquartile range
    for parent, change, wins, met in (([10] * 10, [10] + [13] * 9, 9, True),
                                      ([10] * 10, [10] * 2 + [13] * 8, 8, False),
                                      ([10, 20] * 5, [11, 21] * 5, 10, False)):
        pairs = [{"parent": run(p, 5), "change": run(c, 5)} for p, c in zip(parent, change)]
        out = bench_pairs.summary(pairs, {"rate": "higher"})
        assert (out["rate"]["wins"], out["rate"]["claim_rule_met"]) == (wins, met)


@pytest.mark.parametrize("wrong", [[], [("change", 3, 2)], [("parent", 0, 1), ("parent", 7, 4)]])
def test_bench_pairs_records_incorrect_results_and_exits_1(tmp_path, monkeypatch, wrong):
    # (side, pair, failed operations) of each result that is not correct
    bench_pairs = _bench_pairs()
    names = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]]
    runs = {"parent": 0, "change": 0}

    def bench(tree, argv):
        k, runs[tree.name] = runs[tree.name], runs[tree.name] + 1
        failed = sum(f for side, pair, f in wrong if (side, pair) == (tree.name, k))
        return {"environment": {}, "result": {
            "correct": not failed, "attempted": 10, "failed": failed,
            "metrics": {name: {"value": 1.0 + k} for name in names}}}

    monkeypatch.setattr(bench_pairs, "_git", lambda *args: "0" * 40)
    monkeypatch.setattr(bench_pairs, "export", lambda rev, dest: dest.mkdir(parents=True))
    monkeypatch.setattr(bench_pairs, "bench", bench)
    out = tmp_path / "BENCH.json"
    code = bench_pairs.main(["--against", "HEAD", "--out", str(out), "--run", "wn11:1"])
    correctness = json.loads(out.read_text())["runs"]["wn11:1"]["correctness"]
    for side in ("parent", "change"):
        mine = [f for s, _, f in wrong if s == side]
        assert correctness[side] == {"incorrect": len(mine), "failed": sum(mine)}
    assert code == (1 if wrong else 0)
