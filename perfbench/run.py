"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload spawn-ppp --seed 2026 --seconds 30 --trace 0

Each repetition runs in a fresh process (`worker.py`) through the
package's public entry points, `run_experiment` then `emit_outputs`, with
`jobs=1`.  With `--trace 0` the last stdout line carries the end-to-end
metrics; with `--trace 1` a traced repetition adds the per-layer metrics.
Repetitions continue while another one fits in `--seconds`; there is
always at least one.  Outputs go to `.bench_out/` in the checkout, and the
result with its provenance to `--results` (for `compare.py`).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

from spec import END_TO_END, PER_LAYER, UNITS, WORKLOADS

ROOT = Path(__file__).resolve().parents[1]
HERE = Path(__file__).resolve().parent
DEADLINE_S = 170.0  # the whole run, set-up and every repetition included
SETUP_SAMPLES = 3  # set-up is timed in this many processes


class SetupError(RuntimeError):
    """The package or the workload inputs could not be loaded."""


def launch_worker(mode: str, workload: str, seed: int, out: Path, timeout: float) -> dict:
    """Run worker.py; returns its JSON result, or a failed-run record."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--mode", mode,
           "--workload", workload, "--seed", str(seed), "--out", str(out)]
    t = time.perf_counter()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=timeout)
        lines = proc.stdout.strip().splitlines()
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            result = {"ok": False, "phase": "run",
                      "error": f"exit {proc.returncode}: {proc.stderr.strip()[-2000:]}"}
    except subprocess.TimeoutExpired:
        result = {"ok": False, "phase": "run", "error": f"timed out after {timeout:.0f} s"}
    if not result["ok"] and result["phase"] == "setup":
        raise SetupError(result["error"])
    result["wall_s"] = time.perf_counter() - t
    return result


def repeat(launch, seconds: float, deadline: float, start: float) -> list[dict]:
    """Repetitions while the next one (at the mean length so far) fits in `seconds`.

    A repetition that fails is kept in the list and counted by the caller;
    it does not stop the benchmark.
    """
    reps: list[dict] = []
    while True:
        remaining = deadline - (time.perf_counter() - start)
        reps.append(launch(len(reps), remaining))
        elapsed = time.perf_counter() - start
        mean = statistics.fmean(r.get("wall_s", 0.0) for r in reps)
        if elapsed + mean > seconds or elapsed + mean > deadline:
            return reps


def check(reps: list[dict], setups: list[dict]) -> list[str]:
    """Correctness across the repetitions of one seed."""
    ok = [r for r in reps if r["ok"]]
    problems = [p for r in ok for p in r.get("problems", [])]
    if not ok:
        problems.append("no repetition completed")
    streams = {json.dumps(r["stream_hashes"]) for r in ok + setups if r["ok"]}
    if len(streams) > 1:
        problems.append("measurement streams differ between processes for one seed")
    digests = {json.dumps(r["digests"], sort_keys=True) for r in ok}
    if len(digests) > 1:
        problems.append("data CSVs differ between repetitions of one seed")
    return problems


def _median(values) -> float | None:
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else None


def end_to_end(reps: list[dict], setups: list[dict]) -> dict[str, float | None]:
    ok = [r for r in reps if r["ok"]]
    out = {name: _median(r.get(name) for r in ok) for name, *_ in END_TO_END}
    out["setup_s"] = _median(r.get("setup_s") for r in reps + setups)
    out["ok_share"] = len(ok) / len(reps)
    return out


def per_layer(reps: list[dict]) -> dict[str, float | None]:
    ok = [r for r in reps if r["ok"]]
    return {name: _median(r["per_layer"][name] for r in ok) for name, *_ in PER_LAYER}


def provenance(workload: str, seed: int) -> dict:
    src = ROOT / "src"
    digest = hashlib.sha256()
    for path in sorted(p for p in src.rglob("*") if p.is_file() and "__pycache__" not in p.parts):
        digest.update(str(path.relative_to(src)).encode() + b"\0" + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    cpu = platform.processor()
    try:
        cpu = next(
            line.split(":", 1)[1].strip()
            for line in Path("/proc/cpuinfo").read_text().splitlines()
            if line.startswith("model name")
        )
    except (OSError, StopIteration):
        pass
    return {
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "workload": workload,
        "why": WORKLOADS[workload],
        "seed": seed,
    }


def run(workload: str, seed: int, seconds: float, trace: bool, launch=None) -> dict:
    """Measure one workload; returns the result object and the raw repetitions."""
    launch = launch or launch_worker
    start = time.perf_counter()
    out = ROOT / ".bench_out" / workload / f"seed{seed}-trace{int(trace)}"
    shutil.rmtree(out, ignore_errors=True)
    mode = "trace" if trace else "rep"
    setups = []
    if not trace:
        for i in range(SETUP_SAMPLES - 1):
            setups.append(launch("setup", workload, seed, out / f"setup{i}", DEADLINE_S))
    reps = repeat(
        lambda i, remaining: launch(mode, workload, seed, out / f"rep{i}", remaining),
        seconds,
        DEADLINE_S,
        start,
    )
    problems = check(reps, setups)
    metrics = per_layer(reps) if trace else end_to_end(reps, setups)
    failed = sum(not r["ok"] for r in reps)
    return {
        "result": {
            "correct": not problems,
            "attempted": len(reps),
            "failed": failed,
            "metrics": {
                name: {"value": value, "unit": UNITS[name]} for name, value in metrics.items()
            },
        },
        "problems": problems,
        "errors": [r["error"] for r in reps if not r["ok"]],
        "reps": reps,
        "setups": setups,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=2026)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--results", type=Path, default=ROOT / ".bench_out" / "results",
                    help="directory that keeps every result with its provenance")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "trpmbm" / "__init__.py").is_file():
        print(f"error: no package source at {ROOT / 'src' / 'trpmbm'}", file=sys.stderr)
        return 2
    try:
        outcome = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except SetupError as exc:
        print(f"error: set-up failed: {exc}", file=sys.stderr)
        return 3

    record = {"provenance": provenance(args.workload, args.seed), "trace": args.trace,
              "seconds": args.seconds, **outcome}
    args.results.mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (args.results / name).write_text(json.dumps(record, indent=1) + "\n")

    result = outcome["result"]
    print(json.dumps({"provenance": record["provenance"]}))
    for problem in outcome["problems"]:
        print(f"check failed: {problem}")
    for error in outcome["errors"]:
        print(f"run failed: {error}")
    for name, m in result["metrics"].items():
        print(f"{name} {m['value']} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
