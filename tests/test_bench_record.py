"""`scripts/bench_record.py` refuses result directories without records,
pairs the two sides' seeds into change/parent ratios and audits the data
files' bytes."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SCRIPT = ROOT / "scripts" / "bench_record.py"


def _bench_record():
    spec = importlib.util.spec_from_file_location("bench_record", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_a_directory_without_untraced_records_is_named(tmp_path, capsys):
    parent, change = tmp_path / "parent", tmp_path / "change"
    parent.mkdir()
    change.mkdir()
    (parent / "spawn-mb-11-trace1.json").write_text("{}")
    with pytest.raises(SystemExit) as exit_info:
        _bench_record().main([str(parent), str(change), str(tmp_path / "out.json")])
    assert exit_info.value.code != 0
    assert str(parent) in capsys.readouterr().err
    assert not (tmp_path / "out.json").exists()


def _write_results(directory: Path, score_s: dict[int, float], digests=None, others=None) -> None:
    """One untraced record per seed of spawn-ppp: ``score_s`` as given,
    every other end-to-end metric 1.0 or its value in ``others``, and the
    data files' digests of its repetitions from ``digests`` (seed -> one
    dict per repetition)."""
    names = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]]
    directory.mkdir()
    for seed, score in score_s.items():
        values = {name: 1.0 for name in names} | (others or {}) | {"score_s": score}
        record = {
            "provenance": {
                "workload": "spawn-ppp", "seed": seed, "commit": directory.name,
                "src_sha256": directory.name, "cpu_model": "cpu", "nproc": 1,
                "python": "3", "numpy": "2", "scipy": "1",
            },
            "result": {"metrics": {name: {"value": v} for name, v in values.items()}},
            "reps": [{"ok": True, "digests": d} for d in (digests or {}).get(seed, [])],
        }  # fmt: skip
        (directory / f"spawn-ppp-seed{seed}-trace0.json").write_text(json.dumps(record))


def test_each_row_carries_the_per_seed_change_over_parent_ratios(tmp_path):
    parent, change, out = tmp_path / "parent", tmp_path / "change", tmp_path / "out.json"
    # seed 14 ran on the parent side only, so it is not paired
    _write_results(parent, {11: 2.0, 12: 4.0, 13: 1.0, 14: 9.0})
    _write_results(change, {11: 1.0, 12: 3.0, 13: 1.5})
    assert _bench_record().main([str(parent), str(change), str(out)]) == 0
    rows = {row["metric"]: row for row in json.loads(out.read_text())["end_to_end"]}
    assert rows["score_s"]["ratio"] == {"median": 0.75, "min": 0.5, "max": 1.5, "below_1": 2, "n": 3}
    assert rows["run_s"]["ratio"] == {"median": 1.0, "min": 1.0, "max": 1.0, "below_1": 0, "n": 3}


def test_the_byte_audit_names_each_data_file_that_differs(tmp_path):
    parent, change, out = tmp_path / "parent", tmp_path / "change", tmp_path / "out.json"
    files = {"estimates.csv": "a", "rms_vs_time.csv": "b"}
    # seed 12: rms_vs_time.csv differs; seed 13 ran on the parent side only
    _write_results(parent, {11: 1.0, 12: 1.0, 13: 1.0}, {s: [files, files] for s in (11, 12, 13)})
    changed = files | {"rms_vs_time.csv": "c"}
    _write_results(change, {11: 1.0, 12: 1.0}, {11: [files], 12: [changed, changed]})
    assert _bench_record().main([str(parent), str(change), str(out)]) == 0
    assert json.loads(out.read_text())["byte_audit"] == {
        "workload_seeds": 2,
        "files": ["estimates.csv", "rms_vs_time.csv"],
        "differing": {"spawn-ppp/12": ["rms_vs_time.csv"]},
    }


def _claimed(tmp_path, parent_s, change_s, claim, change_others=None):
    tmp_path.mkdir(exist_ok=True)
    parent, change, out = tmp_path / "parent", tmp_path / "change", tmp_path / "out.json"
    _write_results(parent, dict(enumerate(parent_s, start=11)))
    _write_results(change, dict(enumerate(change_s, start=11)), others=change_others)
    assert _bench_record().main([str(parent), str(change), str(out), "--claim", claim]) == 0
    (verdict,) = json.loads(out.read_text())["claims"]
    return verdict


def test_a_claim_that_wins_9_of_10_pairs_by_more_than_the_quartile_distance_is_met(tmp_path):
    parent_s = [2.0, 2.1, 2.2, 2.3, 2.4, 2.0, 2.1, 2.2, 2.3, 2.4]
    # one pair lost; the median falls by 1.0, and the parent's quartiles
    # (exclusive method, as compare.py takes them) lie 0.25 apart
    change_s = [1.0, 1.1, 1.2, 1.3, 1.4, 1.0, 1.1, 1.2, 1.3, 2.5]
    verdict = _claimed(tmp_path, parent_s, change_s, "spawn-ppp:score_s")
    assert verdict["workload"] == "spawn-ppp" and verdict["metric"] == "score_s"
    assert (verdict["pair_wins"], verdict["pairs"], verdict["met"]) == (9, 10, True)
    assert verdict["median_gain"] == pytest.approx(1.0)
    assert verdict["parent_quartile_distance"] == pytest.approx(0.25)


def test_a_claim_losing_two_pairs_or_inside_the_quartile_distance_is_not_met(tmp_path):
    parent_s = [2.0, 2.1, 2.2, 2.3, 2.4, 2.0, 2.1, 2.2, 2.3, 2.4]
    lost_two = [1.0, 1.1, 1.2, 1.3, 1.4, 1.0, 1.1, 1.2, 2.4, 2.5]
    assert not _claimed(tmp_path / "a", parent_s, lost_two, "spawn-ppp:score_s")["met"]
    # every pair won, by less than the parent's quartile distance
    close = [v - 0.05 for v in parent_s]
    verdict = _claimed(tmp_path / "b", parent_s, close, "spawn-ppp:score_s")
    assert verdict["pair_wins"] == 10 and not verdict["met"]


def test_a_claim_is_not_met_while_any_end_to_end_row_reads_worse(tmp_path):
    parent_s = [2.0, 2.1, 2.2, 2.3, 2.4, 2.0, 2.1, 2.2, 2.3, 2.4]
    change_s = [v - 1.0 for v in parent_s]
    met = _claimed(tmp_path / "a", parent_s, change_s, "spawn-ppp:score_s")
    assert met["met"] and met["worse"] == []
    # the same gain, while filter_s rose 30% against its 0.25 bound
    verdict = _claimed(tmp_path / "b", parent_s, change_s, "spawn-ppp:score_s", {"filter_s": 1.3})
    assert (verdict["pair_wins"], verdict["pairs"]) == (10, 10)
    assert verdict["median_gain"] > verdict["parent_quartile_distance"]
    assert verdict["worse"] == ["spawn-ppp:filter_s"] and not verdict["met"]


@pytest.mark.parametrize("claim", ["spawn_ppp:score_s", "spawn-ppp:score", "spawn-ppp"])
def test_a_claim_naming_no_workload_and_metric_of_the_records_is_refused(tmp_path, capsys, claim):
    parent, change, out = tmp_path / "parent", tmp_path / "change", tmp_path / "out.json"
    _write_results(parent, {11: 2.0, 12: 2.0})
    _write_results(change, {11: 1.0, 12: 1.0})
    with pytest.raises(SystemExit) as exit_info:
        _bench_record().main([str(parent), str(change), str(out), "--claim", claim])
    assert exit_info.value.code != 0
    assert claim in capsys.readouterr().err
    assert not out.exists()
