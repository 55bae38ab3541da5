import importlib.util
import json
from pathlib import Path

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
    for name in ("grid", "hub"):
        assert (tmp_path / name / "run" / "checkpoint-epoch0002" / "params.bin").exists()
        for mode in ("standard", "proposed", "baseline"):
            assert (tmp_path / name / f"eval-{mode}" / "report.jsonl").exists()
        for how in ("thresholds", "valid"):
            lines = (tmp_path / name / f"predict-{how}.txt").read_text().splitlines()
            assert len(lines) == len((tmp_path / name / "queries.txt").read_text().splitlines())
