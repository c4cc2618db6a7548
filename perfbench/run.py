"""Run one loophom benchmark workload and print its metrics.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Passes of the workload run one after another, each in a fresh interpreter
(``worker.py``), until ``--seconds`` have gone by; at least one pass runs.
The seed makes the inputs: the word batch of ``word-eval`` and the sample
points of ``verify oracle``.

With ``--trace 0`` the metrics are end to end:

* ``setup_s``: interpreter start, ``import loophom`` and the workload's fixed
  preparation, the median over every pass and `SETUP_SAMPLES` extra
  interpreters that only set up;
* ``run_s``: wall time of one pass of the operations, median over passes;
* ``peak_rss_mb``: peak resident memory of a pass's process, median;
* ``ops_per_s``: operations per second of a pass, median; an operation is a
  CLI command, or one word on ``word-eval``.

With ``--trace 1`` every pass is paired with a traced pass, and the metrics
are per layer: self time, counts and ratios from the traced passes (median
over them), ``trace.overhead_s`` (traced minus untraced ``run_s``), and,
from the untraced passes, ``cli.verify.<suite>.s`` and ``op_ms_p50`` and
``op_ms_p90``, nearest-rank percentiles of a pass's operation latencies
(median over passes; on ``word-eval`` ten words of a pass lie beyond the
90th).  Those percentiles carry no bound: outside ``word-eval`` each is one
sample of one command, too noisy on a shared machine.

Every output is checked; ``attempted`` and ``failed`` count operations over
all passes.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before
it are a readable summary.  The full results, with the machine's Python
version, processor count, load average and commit, go to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
# the workloads and the metrics, with their units, are those of BENCHMARK.json
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SETUP_SAMPLES = 9
PASS_FIELDS = ("run_s", "peak_rss_mb", "ops", "op_s")
# no pass starts when it could end after this many seconds of the run
TIME_LIMIT_S = 150
WORKER_TIMEOUT_S = 170


class BenchError(Exception):
    pass


def spawn(workload: str, seed: int, *flags: str) -> dict:
    """Run the worker in a fresh interpreter and return its result, with
    ``setup_s`` measured from just before the process was started."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload, "--seed", str(seed)]
    started = time.monotonic()
    try:
        proc = subprocess.run(
            cmd + list(flags),
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=WORKER_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker exceeded {WORKER_TIMEOUT_S} s") from exc
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"worker exited with {proc.returncode}: {proc.stderr.strip()}")
    result = json.loads(proc.stdout.splitlines()[-1])
    result["setup_s"] = result.pop("ready") - started
    return result


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile: the smallest value with at least q of the
    values at or below it."""
    ordered = sorted(values)
    return ordered[max(1, math.ceil(len(ordered) * q)) - 1]


def commit() -> str | None:
    """The checked-out commit, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg": list(os.getloadavg()),
        "commit": commit(),
    }


def run_passes(workload: str, seed: int, seconds: int, trace: bool) -> tuple[list, list]:
    plain: list[dict] = []
    traced: list[dict] = []
    t0 = time.monotonic()
    longest = 0.0
    while True:
        t_pass = time.monotonic()
        plain.append(spawn(workload, seed))
        if trace:
            spans = OUT / f"{workload}-seed{seed}-pass{len(traced)}.spans.jsonl.gz"
            traced.append(spawn(workload, seed, "--trace", "--spans", str(spans)))
        longest = max(longest, time.monotonic() - t_pass)
        elapsed = time.monotonic() - t0
        if elapsed >= seconds or elapsed + longest > TIME_LIMIT_S:
            return plain, traced


def end_to_end(plain: list[dict], setups: list[float]) -> dict[str, float]:
    return {
        "setup_s": statistics.median(setups),
        "run_s": statistics.median(p["run_s"] for p in plain),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in plain),
        "ops_per_s": statistics.median(len(p["op_s"]) / p["run_s"] for p in plain),
    }


def op_ms(plain: list[dict], q: float) -> float:
    return statistics.median(1000 * percentile(p["op_s"], q) for p in plain)


def per_layer(plain: list[dict], traced: list[dict]) -> dict[str, float]:
    out = {
        name: statistics.median(p["layers"][name] for p in traced)
        for name in traced[0]["layers"]
    }
    out["trace.overhead_s"] = statistics.median(p["run_s"] for p in traced) - statistics.median(
        p["run_s"] for p in plain
    )
    out["op_ms_p50"] = op_ms(plain, 0.5)
    out["op_ms_p90"] = op_ms(plain, 0.9)
    for metric in SPEC["per_layer"]:
        name = metric["name"]
        if name.startswith("cli.verify."):
            label = "verify " + name[len("cli.verify."):-len(".s")]
            times = [s for p in plain for op, s in zip(p["ops"], p["op_s"]) if op == label]
            out[name] = statistics.median(times) if times else 0.0
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Run one loophom benchmark workload.")
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in SPEC["workloads"]])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "loophom" / "__init__.py").is_file():
        print(f"error: no loophom package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    env_before = environment()
    try:
        plain, traced = run_passes(args.workload, args.seed, args.seconds, bool(args.trace))
        setup_only = [] if args.trace else [
            spawn(args.workload, args.seed, "--setup-only") for _ in range(SETUP_SAMPLES)
        ]
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    setups = [p["setup_s"] for p in plain + setup_only]
    passes = plain + traced
    attempted = sum(len(p["failures"]) for p in passes)
    failures = [(op, why) for p in passes for op, why in zip(p["ops"], p["failures"]) if why]
    measured = per_layer(plain, traced) if args.trace else end_to_end(plain, setups)
    listed = SPEC["per_layer" if args.trace else "end_to_end"]
    metrics = {m["name"]: measured[m["name"]] for m in listed}
    units = {m["name"]: m["unit"] for m in listed}

    results = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": env_before,
        "loadavg_after": list(os.getloadavg()),
        "inputs": plain[0]["info"],
        "attempted": attempted,
        "failed": len(failures),
        "op_fail_ratio": len(failures) / attempted,
        "op_ms_p50": op_ms(plain, 0.5),
        "op_ms_p90": op_ms(plain, 0.9),
        "failures": failures[:20],
        "setup_s": setups,
        "passes": [{k: p[k] for k in PASS_FIELDS} for p in plain],
        "traced_passes": [{k: p[k] for k in PASS_FIELDS + ("spans", "layers")} for p in traced],
        "metrics": {name: {"value": v, "unit": units[name]} for name, v in metrics.items()},
    }
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(results, indent=1) + "\n")

    print(
        f"{args.workload} seed {args.seed}: {len(plain)} passes"
        f"{f' + {len(traced)} traced' if traced else ''}, {attempted} operations,"
        f" {len(failures)} failed (op_fail_ratio {results['op_fail_ratio']:g})"
    )
    for op, why in failures[:5]:
        print(f"  FAILED {op}: {why}")
    if "inverse_share" in results["inputs"]:
        info = results["inputs"]
        print(
            f"  words per pass {info['words']}, lengths {info['length_histogram']},"
            f" share with an inverse letter {info['inverse_share']:.3f}"
        )
    for name, v in metrics.items():
        print(f"  {name:44s} {v:14.6g} {units[name]}")
    print(f"  results in {path.relative_to(ROOT)}")
    print(
        json.dumps(
            {
                "correct": not failures,
                "attempted": attempted,
                "failed": len(failures),
                "metrics": results["metrics"],
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
