"""`scripts/stage_times.py` prints the pinned stage table."""

import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "stage_times.py"


def test_stage_times_prints_one_row_per_acceptance_spec(capsys):
    spec = importlib.util.spec_from_file_location("stage_times", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    module.main(["--steps", "3", "--repeats", "1"])
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "| spec | predict | update | form | prune | estimate | filter |"
    rows = [line.strip("|").split("|") for line in lines[2:]]
    assert [row[0].strip() for row in rows] == [
        "`trpmbm-L5`", "`trpmbm-L1`", "`trmbm-L5`", "`tpmbm-L5`"
    ]
    for row in rows:
        seconds = [float(x) for x in row[1:]]
        assert min(seconds) >= 0.0 and seconds[-1] >= max(seconds[:-1])
