"""Tests of the benchmark's own code: the word generator, the tracer and the
correctness gate.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import loophom.cli  # noqa: E402  (binds every loophom module)
import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from loophom.homology import HomologySummary  # noqa: E402


def output_digest(output) -> str:
    if isinstance(output, tuple) and len(output) == 2 and isinstance(output[1], str):
        code, text = output
        return workloads.digest([code, workloads.report_digest(json.loads(text))])
    return workloads.digest(list(output))


def cheap_ops() -> list[workloads.Op]:
    """Operations under a second each, covering CLI and word evaluation."""
    verify = workloads.prepare("verify-suites", 3).ops
    homology = workloads.prepare("homology-n4", 3).ops
    words = sorted(workloads.prepare("word-eval", 3).ops, key=lambda op: len(op.label))
    return [op for op in verify if op.label in ("verify cancellation", "verify theorem-b")] + [
        homology[0],
        *words[:4],
    ]


def test_generator_is_deterministic_per_seed():
    batch = workloads.generate_words(7)
    assert batch == workloads.generate_words(7)
    assert batch != workloads.generate_words(8)
    info = workloads.batch_info(batch)
    assert info["words"] == 108
    assert info["length_histogram"] == {str(n): 12 for n in range(4, 13)}
    assert info["inverse_share"] == 2 / 3
    for w in batch:
        assert sum(e == -1 for _, e in w) in (0, 1, 2)
        assert all(a != (b[0], -b[1]) for a, b in zip(w, w[1:])), "word is not reduced"


def test_wrappers_restore_the_original_functions():
    modules = [m for name, m in sys.modules.items() if name.startswith("loophom")]
    before = {id(m): dict(vars(m)) for m in modules}
    method_before = HomologySummary.__dict__["cycle_class"]
    original_homology = loophom.homology.homology

    with tracing.Tracer():
        # cli and transform import homology by name: all three are patched
        for module in (loophom.homology, loophom.cli, loophom.transform):
            assert module.homology is not original_homology
        assert HomologySummary.__dict__["cycle_class"] is not method_before

    for m in modules:
        assert all(vars(m)[k] is v for k, v in before[id(m)].items()), m.__name__
    assert HomologySummary.__dict__["cycle_class"] is method_before


def test_traced_and_untraced_outputs_have_identical_digests():
    ops = cheap_ops()
    plain = [output_digest(op.run()) for op in ops]
    tracer = tracing.Tracer()
    with tracer:
        traced = [output_digest(op.run()) for op in ops]
    assert traced == plain
    busy = tracer.self_times()
    for name in ("cli.main", "homology.homology.d3", "transform.nu_vector", "words.positivize"):
        assert busy[name] > 0, name
    metrics = tracing.layer_metrics(tracer)
    assert metrics["homology.homology.calls"] == 5  # (3,3) at degrees 0-3, theorem-b at 2
    assert all(v >= 0 for v in metrics.values())


def test_self_time_excludes_children():
    tracer = tracing.Tracer()
    inner = tracer.wrap("m.inner", lambda: sum(range(20000)))
    outer = tracer.wrap("m.outer", lambda: inner() + inner())
    outer()
    busy = tracer.self_times()
    total = tracer.end[0] - tracer.start[0]
    assert list(tracer.parent) == [-1, 0, 0]
    assert abs(busy["m.outer"] + busy["m.inner"] - total) < 1e-9
    assert 0 <= busy["m.outer"] < total


def test_gate_reports_a_corrupted_pin():
    good = workloads.prepare("homology-n4", 0).ops[0]
    output = good.run()
    assert good.check(output) is None
    corrupted = dict(workloads.PINS, **{"homology-3-3": "0" * 64})
    bad = workloads.prepare("homology-n4", 0, corrupted).ops[0]
    assert bad.check(output) == "report differs from the pinned reference"


def test_gate_reports_a_wrong_class():
    prepared = workloads.prepare("word-eval", 1)
    op = min(prepared.ops, key=lambda op: len(op.label))
    cls = op.run()
    assert op.check(cls) is None
    assert "Magnus coefficients give" in op.check((cls[0] + 1,) + tuple(cls[1:]))
    assert prepared.check_all([cls]) is None
    corrupted = dict(workloads.PINS, **{"word-eval-monomials": "0" * 64})
    prepared = workloads.prepare("word-eval", 1, corrupted)
    assert prepared.check_all([cls]) == "monomial classes differ from the pinned reference"


def test_failures_count_per_operation():
    def boom():
        raise ValueError("broken")

    ops = [
        workloads.Op("ok", lambda: 1, lambda out: None),
        workloads.Op("raises", boom, lambda out: None),
        workloads.Op("wrong", lambda: 2, lambda out: "wrong output"),
        workloads.Op("garbled", lambda: "", lambda out: json.loads(out)),
    ]
    result = worker.run_pass(workloads.Prepared(ops))
    assert result["failures"][:3] == [None, "ValueError: broken", "wrong output"]
    assert result["failures"][3].startswith("unreadable output: JSONDecodeError")
    batch = workloads.Prepared(ops[:1], check_all=lambda outputs: "digest differs")
    assert worker.run_pass(batch)["failures"] == ["digest differs"]
