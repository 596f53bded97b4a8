"""`scripts/bench_record.py` refuses result directories without records."""

import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bench_record.py"


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
