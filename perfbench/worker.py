"""One pass of a benchmark workload, in a fresh interpreter.

    python3 perfbench/worker.py --workload NAME --seed N [--setup-only]
                                [--trace] [--spans FILE]

Set-up is importing the package and the workload's fixed preparation; the
worker reports the monotonic clock reading when set-up ended, so that the
parent can add interpreter start-up.  A pass then runs every operation of
the workload once, back to back, and checks all outputs after the last one
has returned.  The result is one JSON line on standard output.  With ``--trace`` the operations run under
a `tracing.Tracer` and the line carries the per-layer metrics.

A fresh interpreter per pass matters: the lru caches in ``loophom.affine``
are process-wide, and a CLI user always starts with them cold.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def import_package() -> None:
    """Import all eight loophom modules from this checkout's ``src``."""
    if not (SRC / "loophom" / "__init__.py").is_file():
        raise SystemExit(f"no loophom package under {SRC}")
    sys.path.insert(0, str(SRC))
    import loophom.cli

    if Path(loophom.cli.__file__).resolve().parent != SRC / "loophom":
        raise SystemExit(f"imported loophom from {loophom.cli.__file__}, not {SRC}")


def checked(check, output) -> str | None:
    try:
        return check(output)
    except Exception as exc:  # output the check cannot read is wrong output
        return f"unreadable output: {type(exc).__name__}: {exc}"


def run_pass(prepared, tracer=None) -> dict:
    """Run every operation once; a raised exception fails that operation."""
    outputs, errors, op_s = [], [], []
    with tracer or contextlib.nullcontext():
        t_pass = time.perf_counter()
        for op in prepared.ops:
            t0 = time.perf_counter()
            try:
                outputs.append(op.run())
                errors.append(None)
            except Exception as exc:  # an operation failing is a result
                outputs.append(None)
                errors.append(f"{type(exc).__name__}: {exc}")
            op_s.append(time.perf_counter() - t0)
        run_s = time.perf_counter() - t_pass
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    failures = [
        err if err is not None else checked(op.check, out)
        for op, out, err in zip(prepared.ops, outputs, errors)
    ]
    if not any(failures):
        batch = checked(prepared.check_all, outputs)
        if batch is not None:
            failures = [batch] * len(failures)
    return {
        "run_s": run_s,
        "peak_rss_mb": peak_rss_mb,
        "ops": [op.label for op in prepared.ops],
        "op_s": op_s,
        "failures": failures,
        "info": prepared.info,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--spans", help="write the spans of a traced pass here")
    args = parser.parse_args(argv)

    import_package()
    import workloads

    prepared = workloads.prepare(args.workload, args.seed)
    ready = time.monotonic()
    if args.setup_only:
        print(json.dumps({"ready": ready}))
        return 0
    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
    result = {"ready": ready, **run_pass(prepared, tracer)}
    if tracer is not None:
        result["layers"] = tracing.layer_metrics(tracer)
        result["spans"] = len(tracer.start)
        if args.spans:
            tracer.write_spans(args.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
