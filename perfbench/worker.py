"""One repetition of a workload in a fresh process.

    python3 perfbench/worker.py --mode {setup,rep,trace} --workload W --seed N --out DIR

Prints one JSON object on its last stdout line.  `ok` is false with
`phase` "setup" when the package or the inputs could not be loaded (the
benchmark cannot run at all) and with `phase` "run" when the run raised
(counted as a failed run).  The package is imported from `src/` of the
checkout this file sits in, never from anywhere else.
"""

from __future__ import annotations

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

# Data outputs that must repeat byte for byte; timing.csv holds wall-clock
# seconds and is excluded, as in the package README.
DATA_FILES = (
    "rms_vs_time.csv",
    "decomposition.csv",
    "rms_vs_time.dat",
    "decomposition_localisation.dat",
    "decomposition_missed.dat",
    "decomposition_false.dat",
    "decomposition_switch.dat",
)


def _emit(result: dict) -> None:
    print(json.dumps(result), flush=True)


def _setup(name: str, seed: int):
    """Import the package from the checkout and build the workload inputs."""
    sys.path.insert(0, str(SRC))
    import trpmbm

    if Path(trpmbm.__file__).resolve().parent != SRC / "trpmbm":
        raise ImportError(f"trpmbm imported from {trpmbm.__file__}, not from {SRC}")
    import workloads

    wl = workloads.WORKLOADS[name]
    inputs = workloads.make_inputs(wl, seed)
    hashes = [workloads.stream_hash(s) for s in inputs.streams]
    return wl, inputs, hashes


def _data_digests(out: Path) -> dict[str, str]:
    return {f: hashlib.sha256((out / f).read_bytes()).hexdigest() for f in DATA_FILES}


def _rms_error(out: Path) -> float:
    """Mean over steps (and filter columns) of the RMS total in rms_vs_time.csv."""
    rows = (out / "rms_vs_time.csv").read_text().split("\n")[1:]
    values = [float(v) for row in rows if row for v in row.split(",")[1:]]
    return sum(values) / len(values)


def _untraced(wl, inputs, seed: int, hashes: list[str], out: Path) -> dict:
    from trpmbm import emit_outputs, run_experiment

    t = time.perf_counter()
    reports = []
    for exp_seed, n_runs in wl.experiments(seed):
        reports += run_experiment(inputs.cfg, [wl.spec], n_runs, exp_seed, truth=inputs.truth, jobs=1)
    emit_outputs(reports, out)
    run_s = time.perf_counter() - t
    filter_s = sum(r.filter_seconds for r in reports)
    problems = [
        f"seed {r.seed} run {r.run}: measurement hash differs from the workload's stream"
        for r, expected in zip(reports, hashes)
        if r.measurement_hash != expected
    ]
    if len(reports) != len(hashes):
        problems.append(f"{len(reports)} reports for {len(hashes)} streams")
    return {
        "run_s": run_s,
        "filter_s": filter_s,
        "score_s": run_s - filter_s,
        "rms_error": _rms_error(out),
        "digests": _data_digests(out),
        "problems": problems,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--mode", choices=("setup", "rep", "trace"), required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args(argv)

    try:
        wl, inputs, hashes = _setup(args.workload, args.seed)
    except Exception as exc:  # the benchmark cannot run: report, do not count
        _emit({"ok": False, "phase": "setup", "error": repr(exc)})
        traceback.print_exc()
        return 2
    result = {
        "ok": True,
        "setup_s": time.perf_counter() - T0,
        "stream_hashes": hashes,
        "measurements": sum(len(Z) for s in inputs.streams for Z in s),
    }
    if args.mode == "setup":
        _emit(result)
        return 0

    try:
        result.update(_untraced(wl, inputs, args.seed, hashes, args.out / "untraced"))
        if args.mode == "trace":
            result.update(_traced(wl, inputs, args.seed, args.out, result))
    except Exception as exc:  # a failed run is counted by the caller
        traceback.print_exc()
        _emit({"ok": False, "phase": "run", "error": repr(exc), "setup_s": result["setup_s"]})
        return 1
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    _emit(result)
    return 0


def _traced(wl, inputs, seed: int, out: Path, untraced: dict) -> dict:
    import traced
    from tracing import Tracer

    tracer = Tracer()
    _, finals = traced.run_traced(wl, inputs, seed, out / "traced", tracer)
    tracer.save(out / "spans.npz")
    problems = list(untraced["problems"])
    digests = _data_digests(out / "traced")
    problems += [
        f"traced {name} differs from the untraced run"
        for name in DATA_FILES
        if digests[name] != untraced["digests"][name]
    ]
    problems += [f"final posterior: {p}" for p in traced.posterior_problems(finals)]
    return {
        "per_layer": traced.per_layer_metrics(tracer, untraced["filter_s"]),
        "spans": len(tracer.start),
        "problems": problems,
    }


if __name__ == "__main__":
    sys.exit(main())
