"""End-to-end checks of the command-line interface and report format."""

import argparse
import contextlib
import errno
import hashlib
import io
import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import loophom.homology
from loophom import cli, transform
from loophom.homology import homology
from loophom.wedge import build_pair_complex, complex_to_json
from oracles import non_cycle


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv, "--json")
    return code, json.loads(out)


REPORT_KEYS = {"command", "params", "status", "cases", "failures", "ms"}


def test_verify_suites_pass(capsys):
    quick = {
        "subdivision": ["--max-n", "3", "--max-k", "3"],
        "homotopy": ["--max-n", "2", "--max-k", "2"],
        "combinatorics": ["--max-n", "3", "--max-k", "2"],
        "cancellation": ["--max-n", "2", "--max-k", "2"],
        "theorem-b": ["--genus", "1", "--n", "2"],
        "naturality": ["--max-n", "2"],
        "oracle": ["--seed", "3"],
    }
    for suite, flags in quick.items():
        code, report = run_json(capsys, "verify", suite, *flags)
        assert code == 0, suite
        assert REPORT_KEYS <= set(report)
        assert report["command"] == f"verify {suite}"
        assert report["status"] == "pass"
        assert report["cases"] > 0
        assert report["failures"] == 0
        assert "witness" not in report


def test_verify_seed_is_recorded(capsys):
    code, report = run_json(capsys, "verify", "oracle", "--seed", "17")
    assert code == 0
    assert report["params"]["seed"] == 17
    assert report["params"]["points"] == 100


def test_reports_are_stable_modulo_ms(capsys):
    runs = []
    for _ in range(2):
        _, report = run_json(capsys, "verify", "cancellation", "--max-n", "2")
        report["ms"] = 0
        runs.append(json.dumps(report, sort_keys=True))
    assert runs[0] == runs[1]


def test_verify_failure_reports_witness(capsys, monkeypatch):
    monkeypatch.setattr(cli, "symbolic_cancellation", lambda n: {"bogus": n})
    code, report = run_json(
        capsys, "verify", "cancellation", "--max-n", "1", "--max-k", "1"
    )
    assert code == 1
    assert report["status"] == "fail"
    assert report["failures"] >= 1
    assert report["witness"] == {"check": "symbolic", "n": 1, "leftover-terms": 1}


def test_theorem_b_single_case_params(capsys):
    code, report = run_json(
        capsys,
        "verify",
        "theorem-b",
        "--genus",
        "2",
        "--n",
        "2",
        "--gamma",
        "y",
        "--alphas",
        "x,x,xy",
    )
    assert code == 0
    assert report["cases"] == 1
    assert report["params"] == {
        "genus": 2,
        "n": 2,
        "gamma": "y",
        "alphas": ["x", "x", "xy"],
    }


def test_nu_headline_example(capsys):
    code, report = run_json(capsys, "nu", "--genus", "1", "--n", "2", "--word", "xx")
    assert code == 0
    result = report["result"]
    assert result["class"] == [3, -1]
    assert result["chain"] == {"((x,2),(x,1))": 3, "((x,1),(x,2))": -1}
    assert result["free_rank"] == 2
    assert result["torsion"] == []
    assert result["alphabet"] == "x"


def test_nu_human_output(capsys):
    code, out = run(capsys, "nu", "--genus", "1", "--n", "2", "--word", "xx")
    assert code == 0
    assert "class: [3, -1]" in out


def test_homology_report(capsys):
    code, report = run_json(capsys, "homology", "--genus", "1", "--n", "2")
    assert code == 0
    groups = report["result"]["groups"]
    assert [g["group"] for g in groups] == ["0", "0", "Z^2"]
    code, report = run_json(capsys, "homology", "--genus", "2", "--n", "1")
    assert [g["group"] for g in report["result"]["groups"]] == ["0", "Z^2"]


@pytest.mark.parametrize(
    "genus, n, top", [(3, 4, "Z^120"), (2, 5, "Z^62")], ids=["n4g3", "n5g2"]
)
def test_homology_past_the_dense_scaling_wall(capsys, genus, n, top):
    # the dense reduction took 34 s for the top degree alone at (4, 3) and
    # never finished at (5, 2)
    code, report = run_json(capsys, "homology", "--genus", str(genus), "--n", str(n))
    assert code == 0
    groups = report["result"]["groups"]
    assert [g["group"] for g in groups] == ["0"] * n + [top]
    assert all(g["torsion"] == [] for g in groups)


def test_export_complex_file_format(tmp_path, capsys):
    out = tmp_path / "cx.json"
    code, _ = run(capsys, "export-complex", "--genus", "1", "--n", "2", "--out", str(out))
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["n"] == 2
    assert payload["g"] == 1
    dims = {row["d"]: row for row in payload["dims"]}
    assert sorted(dims) == [0, 1, 2, 3]
    assert dims[2]["basis"] == [
        [["x", 2], ["x", 1]],
        [["x", 1], ["x", 2]],
    ]
    assert dims[2]["boundary"] == []
    # without --out the same payload rides in the report's result field
    code, report = run_json(capsys, "export-complex", "--genus", "1", "--n", "2")
    assert report["result"] == payload


def test_report_out_file_matches_stdout(tmp_path, capsys):
    out = tmp_path / "report.json"
    code, report = run_json(
        capsys, "verify", "homotopy", "--max-n", "1", "--max-k", "2", "--out", str(out)
    )
    assert code == 0
    assert json.loads(out.read_text()) == report


def test_usage_errors_exit_2(capsys):
    assert cli.main(["nu", "--genus", "1", "--n", "2", "--word", "x!"]) == 2
    assert cli.main(["nu", "--genus", "1", "--n", "2", "--word", "xy"]) == 2
    assert (
        cli.main(
            ["verify", "theorem-b", "--genus", "1", "--n", "2", "--alphas", "x,x"]
        )
        == 2
    )
    # one letter per generator: rank 27 has no alphabet
    assert cli.main(["export-complex", "--genus", "27", "--n", "1"]) == 2
    assert cli.main(["nu", "--genus", "27", "--n", "1", "--word", "x"]) == 2
    assert cli.main(["verify", "theorem-b", "--genus", "27"]) == 2
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "bogus-suite"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        cli.main(["nu", "--genus", "1", "--n", "2"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "homotopy", "--max-n", "0"])
    assert exc.value.code == 2
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "theorem-b", "--gamma", "y"])
    assert exc.value.code == 2
    assert "--gamma needs --alphas" in capsys.readouterr().err


def test_theorem_b_rejects_a_wrong_loop_count_before_building(capsys, monkeypatch):
    def refuse(n, g):
        raise AssertionError("complex built for a malformed request")

    monkeypatch.setattr(cli, "build_pair_complex", refuse)
    assert cli.main(["verify", "theorem-b", "--n", "4", "--alphas", "x"]) == 2
    assert "need exactly 5 loops, got 1" in capsys.readouterr().err


THEOREM_B_CASE = ["verify", "theorem-b", "--gamma", "y", "--alphas", "x,x,xy"]


@pytest.mark.parametrize(
    "argv, cases",
    [(["verify", "theorem-b"], 56), (THEOREM_B_CASE, 1), (["verify", "naturality"], 176)],
)
def test_passing_top_degree_checks_run_no_reduction(capsys, monkeypatch, argv, cases):
    """H_n = Z_n at the top degree, so a passing check compares chains and
    never reads a class."""

    def refuse(*args):
        raise AssertionError("a passing check ran a Smith reduction")

    monkeypatch.setattr(loophom.homology, "_snf", refuse)
    code, report = run_json(capsys, *argv)
    assert (code, report["status"], report["cases"], report["failures"]) == (0, "pass", cases, 0)


def add_to_sums(monkeypatch, extra):
    """Make every vanishing sum read its chain plus the chain extra(cx)."""
    real = transform.subdivision_vector
    monkeypatch.setattr(
        transform,
        "subdivision_vector",
        lambda elt, cx: [a + b for a, b in zip(real(elt, cx), extra(cx))],
    )


def test_theorem_b_witness_has_the_class_of_a_corrupted_sum(capsys, monkeypatch):
    def cycle(cx):
        return transform.nu_vector(((1, 1),) * 2, cx)

    add_to_sums(monkeypatch, cycle)
    cx = build_pair_complex(2, 2)
    want = list(homology(cx, 2).cycle_class(cycle(cx)))
    assert any(want)
    code, report = run_json(capsys, *THEOREM_B_CASE)
    assert (code, report["failures"], report["witness"]) == (1, 1, {"class": want})
    code, report = run_json(capsys, "verify", "theorem-b")
    assert (code, report["cases"], report["failures"]) == (1, 56, 56)
    assert report["witness"] == {"gamma": "", "alphas": ["x", "x", "x"], "class": want}


@pytest.mark.parametrize("argv", [["verify", "theorem-b"], THEOREM_B_CASE])
def test_theorem_b_sum_that_is_not_a_cycle_is_a_usage_error(capsys, monkeypatch, argv):
    assert any(non_cycle(build_pair_complex(2, 2)))
    add_to_sums(monkeypatch, non_cycle)
    code = cli.main(argv)
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (2, "", "error: vector is not a cycle\n")


def test_naturality_on_corrupted_chains(capsys, monkeypatch):
    """A cycle added to the pushed chain fails every case; a chain that is
    not a cycle, which power 2 has, is a usage error."""
    real = transform.push_chain_vector

    def add_to_pushed(extra):
        def pushed(src, tgt, d, vec, gen_map):
            return [a + b for a, b in zip(real(src, tgt, d, vec, gen_map), extra(tgt))]

        monkeypatch.setattr(transform, "push_chain_vector", pushed)

    add_to_pushed(lambda tgt: transform.nu_vector(((1, 1),), tgt))
    code, report = run_json(capsys, "verify", "naturality")
    assert (code, report["cases"], report["failures"]) == (1, 176, 176)
    add_to_pushed(non_cycle)
    code = cli.main(["verify", "naturality"])
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (2, "", "error: vector is not a cycle\n")


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "homotopy", "--max-n", "1", "--max-k", "1"],
        ["homology", "--genus", "1", "--n", "2"],
        ["homology", "--genus", "1", "--n", "2", "--json"],
        ["nu", "--genus", "1", "--n", "2", "--word", "x"],
        ["export-complex", "--genus", "1", "--n", "2"],
    ],
)
def test_unwritable_out_is_a_usage_error(tmp_path, capsys, argv):
    out = tmp_path / "missing-dir" / "report.json"
    # the empty path is unwritable too, not a missing --out
    for path in (str(out), ""):
        assert cli.main(argv + ["--out", path]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        err = captured.err
        assert err.startswith(f"error: cannot write {path}: ")
        assert "Traceback" not in err
    assert not out.exists()


class UnwritableStdout:
    """A standard output whose every write raises `exc`; its file
    descriptor is a scratch file's."""

    def __init__(self, exc: OSError, fd: int):
        self.exc = exc
        self.fd = fd

    def write(self, text: str) -> int:
        raise self.exc

    def flush(self) -> None:
        pass

    def fileno(self) -> int:
        return self.fd


@pytest.mark.parametrize(
    "exc",
    [
        BrokenPipeError(errno.EPIPE, os.strerror(errno.EPIPE)),
        OSError(errno.ENOSPC, os.strerror(errno.ENOSPC)),
    ],
)
def test_unwritable_stdout_is_a_usage_error(tmp_path, capsys, monkeypatch, exc):
    with open(tmp_path / "stdout", "w") as fh:
        monkeypatch.setattr(sys, "stdout", UnwritableStdout(exc, fh.fileno()))
        code = cli.main(["nu", "--genus", "1", "--n", "2", "--word", "x"])
    assert code == 2
    assert capsys.readouterr().err == f"error: cannot write standard output: {exc.strerror}\n"


HELP_ARGVS = pytest.mark.parametrize(
    "argv", [["--help"], ["homology", "--help"], ["verify", "-h"]], ids=" ".join
)


@HELP_ARGVS
def test_help_to_unwritable_stdout_is_a_usage_error(tmp_path, capsys, monkeypatch, argv):
    exc = OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
    with open(tmp_path / "stdout", "w") as fh:
        monkeypatch.setattr(sys, "stdout", UnwritableStdout(exc, fh.fileno()))
        code = cli.main(argv)
    assert code == 2
    assert capsys.readouterr().err == f"error: cannot write standard output: {exc.strerror}\n"


def test_help_is_still_printed(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["homology", "--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: loophom homology")


# sha256 of the --help text under COLUMNS=80, recorded while the parser was
# still built on every call; the text is the same on Python 3.10 to 3.13.
HELP_PINS = {
    "loophom": "1e07a3cbdd50225b10948327261a5a1f9da993daa76d8f45bcb87b251158f7ce",
    "verify": "c323b6a03e3d714ce6478ba7a58e81ddf463e98d59fa4f30047720ce6bc19859",
    "homology": "a98982595e515b78702b1b4308c4c83f8fee02bea0f2d99368b430e2a83ca822",
    "nu": "04fb2a1e3f37e593cd64de0b9cfa50e8004c96f210a63a6b6df4fe51f5353bb7",
    "export-complex": "ac0e9dccd886158bd076f072fdac461126cda52e4b323473441be3317a7ecebd",
}


@pytest.mark.parametrize("command", sorted(HELP_PINS))
def test_help_text_matches_pins(capsys, monkeypatch, command):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps help lines to it
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        cli.main(([] if command == "loophom" else [command]) + ["--help"])
    assert exc.value.code == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == HELP_PINS[command]


def test_main_builds_no_parser_after_the_first_call(capsys, monkeypatch):
    cli.main(["homology", "--genus", "1", "--n", "1"])
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    for argv in (["verify", "bogus-suite"], ["nu", "--help"]):
        with pytest.raises(SystemExit):
            cli.main(argv)
    assert cli.main(["homology", "--genus", "1", "--n", "2"]) == 0
    assert built == []


def run_loophom(argv: list[str], unbuffered: bool, **kwargs) -> subprocess.Popen:
    """`python -m loophom argv` in a fresh interpreter, this package first
    on its path, with standard output buffered or (python -u) not."""
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = path
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    return subprocess.Popen([sys.executable, "-m", "loophom", *argv], env=env, **kwargs)


STDOUT_MODES = pytest.mark.parametrize(
    "unbuffered", [False, True], ids=["buffered", "unbuffered"]
)


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full device")
@STDOUT_MODES
def test_full_stdout_exits_2_without_traceback(unbuffered):
    with open("/dev/full", "w") as full:
        proc = run_loophom(
            ["nu", "--genus", "2", "--n", "3", "--word", "xyXY"],
            unbuffered,
            stdout=full, stderr=subprocess.PIPE, text=True,
        )
        _, err = proc.communicate(timeout=60)
    assert proc.returncode == 2
    assert err == "error: cannot write standard output: No space left on device\n"


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full device")
@STDOUT_MODES
@HELP_ARGVS
def test_help_to_full_stdout_exits_2_without_traceback(unbuffered, argv):
    with open("/dev/full", "w") as full:
        proc = run_loophom(argv, unbuffered, stdout=full, stderr=subprocess.PIPE, text=True)
        _, err = proc.communicate(timeout=60)
    assert proc.returncode == 2
    assert err == "error: cannot write standard output: No space left on device\n"


@STDOUT_MODES
def test_closed_pipe_exits_2_without_traceback(unbuffered):
    # 2.5 MB of JSON: more than a pipe buffers, so the writer is still
    # writing when the reader goes away
    argv = ["export-complex", "--genus", "3", "--n", "4", "--json"]
    proc = run_loophom(argv, unbuffered, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    assert proc.stdout.read(10) == b'{\n  "cases'
    proc.stdout.close()
    _, err = proc.communicate(timeout=60)
    assert proc.returncode == 2
    assert err == b"error: cannot write standard output: Broken pipe\n"


# ---------------------------------------------------------------------------
# The JSON renderer: json.dumps(..., sort_keys=True, indent=2), byte for byte.
# ---------------------------------------------------------------------------

# any code point, surrogates included, with the characters JSON escapes or
# uses as structure drawn often
JSON_STRINGS = st.text(
    st.one_of(
        st.sampled_from('"\\/[]{},: \n\t\x00\x1f\x7fé€😀'),
        st.characters(exclude_categories=()),
    )
)
JSON_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(min_value=-(10**300), max_value=10**300),
    JSON_STRINGS,
)
JSON_VALUES = st.recursive(
    JSON_SCALARS,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(JSON_STRINGS, inner, max_size=4),
    ),
    max_leaves=30,
)


@settings(max_examples=200, deadline=None)
@given(JSON_VALUES)
def test_render_json_is_json_dumps(value):
    assert cli.render_json(value) == json.dumps(value, sort_keys=True, indent=2)


@pytest.mark.parametrize("n, g", [(4, 3), (5, 2)])
def test_render_json_is_json_dumps_on_large_exports(n, g):
    payload = complex_to_json(build_pair_complex(n, g))
    assert cli.render_json(payload) == json.dumps(payload, sort_keys=True, indent=2)


@pytest.mark.parametrize(
    "value",
    [1.5, [0, float("nan")], {1, 2}, {"k": {3}}, {1: "one"}, [{"k": {(1, 2): 0}}], b"x"],
    ids=repr,
)
def test_render_json_rejects_what_a_report_never_holds(value):
    # json.dumps writes floats and turns int and tuple keys into strings;
    # a report holds none of them, so the renderer refuses them
    with pytest.raises(TypeError):
        cli.render_json(value)


def test_large_export_is_json_dumps_byte_for_byte(tmp_path, capsys):
    # 2.5 MB through write_stdout's buffer-sized writes, and the same
    # complex through --out
    argv = ["export-complex", "--genus", "3", "--n", "4"]
    code, out = run(capsys, *argv, "--json")
    assert code == 0
    assert json.dumps(json.loads(out), sort_keys=True, indent=2) + "\n" == out
    path = tmp_path / "cx.json"
    code, _ = run(capsys, *argv, "--out", str(path))
    assert code == 0
    text = path.read_text()
    assert json.dumps(json.loads(text), sort_keys=True, indent=2) + "\n" == text


def test_every_suite_parameter_is_a_verify_flag_and_every_flag_is_read():
    for suite, (_, defaults) in cli.SUITES.items():
        own = {"points"} if suite == "oracle" else set()  # no flag sets it
        assert set(defaults) - own <= set(cli.VERIFY_FLAGS), suite
    read = {attr for _, defaults in cli.SUITES.values() for attr in defaults}
    assert set(cli.VERIFY_FLAGS) <= read


@pytest.mark.parametrize(
    "suite, flag",
    [
        (suite, "--" + attr.replace("_", "-"))
        for suite, (_, defaults) in cli.SUITES.items()
        for attr in cli.VERIFY_FLAGS
        if attr not in defaults
    ],
)
def test_verify_rejects_bounds_the_suite_ignores(capsys, suite, flag):
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", suite, flag, "9"])
    assert exc.value.code == 2
    assert f"{flag} has no effect on verify {suite}" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# Golden pins: every command in every output mode.
# ---------------------------------------------------------------------------

GOLDEN_COMMANDS = {
    "verify-subdivision": ["verify", "subdivision", "--max-n", "2", "--max-k", "2"],
    "verify-homotopy": ["verify", "homotopy"],
    "verify-combinatorics": ["verify", "combinatorics", "--max-n", "2", "--max-k", "2"],
    "verify-cancellation": ["verify", "cancellation"],
    "verify-cancellation-fail": ["verify", "cancellation", "--max-n", "1", "--max-k", "1"],
    "verify-theorem-b": ["verify", "theorem-b"],
    "verify-theorem-b-single": [
        "verify", "theorem-b", "--genus", "2", "--n", "2", "--gamma", "y", "--alphas", "x,x,xy",
    ],
    "verify-naturality": ["verify", "naturality"],
    "verify-oracle": ["verify", "oracle"],
    "homology-1-2": ["homology", "--genus", "1", "--n", "2"],
    "homology-2-2": ["homology", "--genus", "2", "--n", "2"],
    "nu-xx": ["nu", "--genus", "1", "--n", "2", "--word", "xx"],
    "nu-xY": ["nu", "--genus", "2", "--n", "2", "--word", "xY"],
    "export-complex": ["export-complex", "--genus", "1", "--n", "2"],
    "nu-bad-word": ["nu", "--genus", "1", "--n", "2", "--word", "xy"],
    "verify-bad-bound": ["verify", "homotopy", "--max-n", "0"],
}

GOLDEN_MODES = {
    "text": [],
    "json": ["--json"],
    "out": ["--out", "OUT"],
    "json-out": ["--json", "--out", "OUT"],
}

# sha256 of [exit status, stdout, stderr, --out file] with the elapsed
# milliseconds masked and the --out path replaced by OUT, recorded before
# the report renderer was merged into `emit`.
GOLDEN_PINS = {
    ('export-complex', 'json'): "fce075146c38632a7d42b34cfbf42adbe0988218cc42524bd6a179ee5bb4c6d9",
    ('export-complex', 'json-out'): "bdc0d9ed2058fbb52c0cb12211f80129d83876a40082986095034a5f27da0730",
    ('export-complex', 'out'): "90a1bc5a9265254b10739591360f7a9ce8a333c35086fa2976e0402c33582067",
    ('export-complex', 'text'): "79967148ac144678804dca3cf7a52ce6ae54aa282b9f8c6f0d0e65550c7c2e38",
    ('homology-1-2', 'json'): "e252be867b4541105e543843c93a9d25c72cfb62325571053c8a4a510a3415bc",
    ('homology-1-2', 'json-out'): "543fe32f5f712f14bcc098b91cf0da15c58fce00c617ccba1ba38e08bf511c9a",
    ('homology-1-2', 'out'): "fc2ed09fc697e625399447aaefab2465df43742ee5c51ed521c03721ad48df14",
    ('homology-1-2', 'text'): "17a40a0b6c8f5a7c787ea8cda8f4d46ca60ca9d71148b1782c00ad9eb92af897",
    ('homology-2-2', 'json'): "99a92bc26cea78fdcb2212855728aedc81602ce6f8e2467906ba8c6a0daa8e11",
    ('homology-2-2', 'json-out'): "9b1ac04d5ac517f1c523be39d958115a5c7fbfac5bb2b42ba8458e36af95b401",
    ('homology-2-2', 'out'): "84bbad0e7efe8456d46d44ef0ccf506b3feb84f57cacba33e05446ef86f00d37",
    ('homology-2-2', 'text'): "dc3c3ea17c51d9c5df2ec55e37444310fe029ca93cbd9b3c227e83571de92861",
    ('nu-bad-word', 'json'): "6c5bb144574fe80f31da10d1718767a26e2be3df388f9190ac94d4149a817433",
    ('nu-bad-word', 'json-out'): "6c5bb144574fe80f31da10d1718767a26e2be3df388f9190ac94d4149a817433",
    ('nu-bad-word', 'out'): "6c5bb144574fe80f31da10d1718767a26e2be3df388f9190ac94d4149a817433",
    ('nu-bad-word', 'text'): "6c5bb144574fe80f31da10d1718767a26e2be3df388f9190ac94d4149a817433",
    ('nu-xY', 'json'): "bb899a59b22cb95cf96625bd21aeb6d18ec4b368e3ee450ca2a09cd05d4a008d",
    ('nu-xY', 'json-out'): "b027a1dc80d85766617175774314bccd68cad4bad6748085bf5c0c593925597a",
    ('nu-xY', 'out'): "81a2cab392d5a4cb7357b234666fd71e67065ce224bd05d2f37e5b85c76428ae",
    ('nu-xY', 'text'): "119a4a5ca330f13fecb94b509120d52230a54c3af5cf696ac44e33ed45510e82",
    ('nu-xx', 'json'): "ad12b09200a0d3b4aa364f9036617d31e613d07bd10d44b097ccb834c0a6ace5",
    ('nu-xx', 'json-out'): "97d107dd5d6e75e005a8b1f8fb593ec1245baa88bd78ff9fb817b3269f2d25d1",
    ('nu-xx', 'out'): "eb0c74cb0407f38501892177d6cc9f665e0a40fce4d1574edc55223e0e253d69",
    ('nu-xx', 'text'): "cac2d380ff4d82d240b166c50bad745492b095f52a075d8928991d41b346d00c",
    ('verify-bad-bound', 'json'): "59ef3e6b251e105a8c52d4a7d015787f51bb8bebeb4bddeb91627607b7846172",
    ('verify-bad-bound', 'json-out'): "59ef3e6b251e105a8c52d4a7d015787f51bb8bebeb4bddeb91627607b7846172",
    ('verify-bad-bound', 'out'): "59ef3e6b251e105a8c52d4a7d015787f51bb8bebeb4bddeb91627607b7846172",
    ('verify-bad-bound', 'text'): "59ef3e6b251e105a8c52d4a7d015787f51bb8bebeb4bddeb91627607b7846172",
    ('verify-cancellation', 'json'): "10de532f010e89c1270e9f46a6d845e3ccdb219a1b691fd91706c776a47aebd7",
    ('verify-cancellation', 'json-out'): "1ef0d6a4f063c88b1e7258df4824bb1f20bc7268eeb45f6368fd7ef6a7b9229d",
    ('verify-cancellation', 'out'): "d6fb7ee8c3c207914454671f5d3a0da93cf5a2d2684cdb5d7af78b883c21ac25",
    ('verify-cancellation', 'text'): "f706c7fc7bac60e2c982296e1cebb9018d567b9a693548dfa917fb819a78bbdb",
    ('verify-cancellation-fail', 'json'): "39fb4dd10c837dca868059642de1c3fe9039f73aa7cfe0ec0ca52860c195218d",
    ('verify-cancellation-fail', 'json-out'): "71d86002588cdb44227a235d5dc09e4c2672bba30c2aea12a5ab3332726b3679",
    ('verify-cancellation-fail', 'out'): "6d1f1b260783d98363c16302271c9eccf0e71e5011c40df784df100271bcb8f3",
    ('verify-cancellation-fail', 'text'): "6bba974a531f8324461cac8a905a31d2289b0f7bfc7f84565c7678776b30e751",
    ('verify-combinatorics', 'json'): "cebf893f468b42fb3e4fdbfa2b6ab3a17ded7a8e8b2668e59ad37aa2b555d8b9",
    ('verify-combinatorics', 'json-out'): "19459fb5608c560b72b811671c43e61dc8576cb8cfb3e5241afb5a6a9df86b11",
    ('verify-combinatorics', 'out'): "38f73163e251fe423fc7d45093b4a9c6cb3f3be52a9548b3725d1a9e50ac112d",
    ('verify-combinatorics', 'text'): "bd0bec295efb309d9063675490ccdb68a05dd9c9a2ea93c7efe3479dfe6fa474",
    ('verify-homotopy', 'json'): "463dd229137a96804b0177bfe19201d074a3b2eb1567823e107a4a1582335622",
    ('verify-homotopy', 'json-out'): "10b75605ab4e13fb3ef842702645d7e0084f3a7a13796ecc0725129779600c75",
    ('verify-homotopy', 'out'): "48058108072764c18f5617e0ecb8bf31b70561d1b6644c302edfcca7c5b9f1d3",
    ('verify-homotopy', 'text'): "eb48c9e4dd25767805322ba291a533a3947a181d6edcc0cc088c07ecd7107994",
    ('verify-naturality', 'json'): "8c8436dc685203fa10c492d0d6bfc2ab2c661e42c939df001d43cd44815c3959",
    ('verify-naturality', 'json-out'): "e1ce584f19315431dc59e06e7e8ad249ccecaa162e8783c7bca4e4f39a597a6b",
    ('verify-naturality', 'out'): "9dd610b613cf58f7bdadb5a6468af501870f0bae6f1f949378e4305aec66af7f",
    ('verify-naturality', 'text'): "a8953ed3403c32a6b1a4a0c9afc382c986fdede631cbc1acecd3d9b5d0a81e9f",
    ('verify-oracle', 'json'): "8d9f4070571dbb6a6891453722a6933b10674fb789290a4829228e05ca248110",
    ('verify-oracle', 'json-out'): "92e279cb99b429dd23b481284a5d66d859816cb909fd1b3945e2d30181a8a4b3",
    ('verify-oracle', 'out'): "f0b79695618a8f40b12db06b8e0f2fd7c3eb05650e95283f3e71821aeea1e880",
    ('verify-oracle', 'text'): "21072e63e31dba0383cba9a7ceaf9f1dc6e5869b6497a7f7eb51b08685bab1ee",
    ('verify-subdivision', 'json'): "43686b486c3f36e80163dc805b949ee1bbdff267e66eec22e006ffc8a8e6575d",
    ('verify-subdivision', 'json-out'): "b1c0ece3cb901a886dfba202b7af84bab4b0525593bc8e194d3df109fbd491ac",
    ('verify-subdivision', 'out'): "e234ec5a6e469805a9c9d91fe60e43ffd8da4682010b86c3e807e1690ccb124a",
    ('verify-subdivision', 'text'): "490978d185e92d795331d2016998d3b7c5075c520c5c084f283b57f759291ead",
    ('verify-theorem-b', 'json'): "0c7c67f28adaea7bb4210694ee960e4044a350cfaca33f68f67fcf875f60eaf5",
    ('verify-theorem-b', 'json-out'): "5c8e6de5c3d394947067d2d4b3d186c23a8d614681589d12f30d9b86e33ca84e",
    ('verify-theorem-b', 'out'): "28d9e62c9e456e884fcc98a2ad49ab8d1cee37ebd290995dd297fe537b750857",
    ('verify-theorem-b', 'text'): "a829bf51f12c90a0fc6606a1b0a10f690f6aad4277029242eb43e73596fd11c9",
    ('verify-theorem-b-single', 'json'): "3ae86c71604c75f504449ef7309ab8c34e377f3a30443001e3a5fa5bbd332ae9",
    ('verify-theorem-b-single', 'json-out'): "1dec64db397b6d052ec7b39fab13f2a31c6c024864f1ab6251765ec15892bea5",
    ('verify-theorem-b-single', 'out'): "c4611d0140d0712c2b51af79a40b060b1fa9e7571d04a0aec90a3b6e933bb66e",
    ('verify-theorem-b-single', 'text'): "a4e603a5396122b4158c55140430de4f615d2061c9833b4103d4c392f5ade8b8",
}


def golden_digest(capsys, monkeypatch, tmp_path, command: str, mode: str) -> str:
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps usage lines to it
    if command == "verify-cancellation-fail":
        monkeypatch.setattr(cli, "symbolic_cancellation", lambda n: {"bogus": n})
    path = str(tmp_path / "out.json")
    argv = GOLDEN_COMMANDS[command] + [path if a == "OUT" else a for a in GOLDEN_MODES[mode]]
    capsys.readouterr()
    try:
        code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    written = (tmp_path / "out.json").read_text() if (tmp_path / "out.json").exists() else None

    def mask(text):
        if text is None:
            return None
        text = text.replace(path, "OUT")
        text = re.sub(r'"ms": \d+', '"ms": 0', text)
        return re.sub(r"\b\d+ ms\)", "0 ms)", text)

    record = [code, mask(captured.out), mask(captured.err), mask(written)]
    return hashlib.sha256(json.dumps(record).encode()).hexdigest()


@pytest.mark.parametrize("mode", sorted(GOLDEN_MODES))
@pytest.mark.parametrize("command", sorted(GOLDEN_COMMANDS))
def test_cli_output_matches_golden_pins(capsys, monkeypatch, tmp_path, command, mode):
    assert golden_digest(capsys, monkeypatch, tmp_path, command, mode) == GOLDEN_PINS[command, mode]


# sha256 of `nu --json` standard output with the elapsed milliseconds
# masked, for words of 14-24 letters, about half of them inverse letters,
# recorded while the expansion was still a truncated product per letter.
NU_PINS = {
    (3, 2, "XyYXxYYxyXyyXY"): "e18d77cd60de515a9b040d0772109aab4da7531fa67a79c88545d2922ec1d41f",
    (3, 3, "zXyZZxYzyXXzYxzYyZxX"): "d4f61d51da094b6f832374ebd697f7ffb94d67415304317aef986d67bef332b9",
    (4, 2, "yXXYxyYYXxyXYxXy"): "e6e138c5b29b0214a58ca063358ce3e0e47ac300194fb58c39cc602768c04a11",
    (4, 3, "xYzXZyyXzZYxzYXyZxZyXYzx"): "a2c56e5e5db4b4ead9094e1fdc007a73b1f137e79ab27e6a2587b96729e1edb4",
}


@pytest.mark.parametrize("n, g, word", sorted(NU_PINS))
def test_nu_json_matches_pins(capsys, n, g, word):
    capsys.readouterr()
    assert cli.main(["nu", "--n", str(n), "--genus", str(g), "--word", word, "--json"]) == 0
    text = re.sub(r'"ms": \d+', '"ms": 0', capsys.readouterr().out)
    assert hashlib.sha256(text.encode()).hexdigest() == NU_PINS[n, g, word]


# ---------------------------------------------------------------------------
# Every argv ends in a report or a usage error.
# ---------------------------------------------------------------------------

# the flags of each command but verify, whose suites say which flags they read
COMMAND_FLAGS = {
    "homology": ("genus", "n"),
    "nu": ("genus", "n", "word"),
    "export-complex": ("genus", "n"),
}
INT_TEXTS = ["-1", "0", "1", "2", "", "x", "1.5"]
GOOD_WORDS = st.text("xyXY", max_size=4)
# digits, a space, "!", letters beyond a rank-2 alphabet, both cases
WORDS = st.text("xyzqXYZ1 !", max_size=4)
# --out values, made paths in a fresh directory: a missing directory's
# file, the directory itself, and a writable file
OUT_PATHS = {"<missing>": ("missing", "out.json"), "<dir>": (), "<file>": ("out.json",)}


def flag(command: str, attr: str, good: bool) -> st.SearchStrategy[list[str]]:
    """--attr and a value: a small positive int or a word in x and y when
    `good`, else anything drawn for that flag."""
    if attr in ("gamma", "word"):
        values = GOOD_WORDS if good else WORDS
    elif attr == "alphas":
        values = st.lists(GOOD_WORDS if good else WORDS, max_size=4).map(",".join)
    elif good:
        values = st.sampled_from(["1", "2"])
    else:
        ints = INT_TEXTS + [str(2**64), str(-(10**30))] if attr == "seed" else INT_TEXTS
        # theorem-b's battery at n = 3 takes most of a second
        values = st.sampled_from(ints + ["3"] if attr == "n" and command != "verify" else ints)
    return values.map(lambda value: ["--" + attr.replace("_", "-"), value])


@st.composite
def argvs(draw) -> list[str]:
    """A command (or an unknown one) and verify's suite (or an unknown
    one); each flag the command or suite reads, in any order, left out one
    time in ten; then up to three more: a flag of the command again,
    ``--json``, ``--help``, ``--out`` or an unknown flag.  One time in ten
    the last word is cut off, which drops a flag's value or the suite.
    Half the argvs hold only good values."""
    good = draw(st.booleans())
    command = draw(st.sampled_from(["verify", *COMMAND_FLAGS, "bogus"]))
    argv = [command]
    if command == "verify":
        suite = draw(st.sampled_from([*cli.SUITES, "bogus"]))
        argv.append(suite)
        attrs = tuple(cli.VERIFY_FLAGS)
        own = [attr for attr in cli.SUITES.get(suite, (None, {}))[1] if attr in attrs]
    else:
        attrs = own = COMMAND_FLAGS.get(command, ("n",))
    for attr in draw(st.permutations(own)):
        if draw(st.integers(0, 9)):
            argv += draw(flag(command, attr, good))
    more = st.sampled_from(attrs).flatmap(lambda attr: flag(command, attr, good)) | st.sampled_from(
        [["--json"], ["--help"], ["--bogus"], ["--bogus", "1"]]
        + [["--out", path] for path in OUT_PATHS]
    )
    for words in draw(st.lists(more, max_size=3)):
        argv += words
    if draw(st.integers(0, 9)) == 0:
        argv.pop()
    return argv


@settings(max_examples=100, deadline=None, derandomize=True)
@given(argvs())
def test_every_argv_ends_in_a_report_or_a_usage_error(argv):
    """`cli.main` returns 0, 1 or 2 or exits 0 or 2, and a status of 2
    comes with ``error:`` on standard error; any other exception fails.

    Sizes stay small: n <= 3, and n <= 2 and bounds <= 2 for verify.  Known
    defects are left out of what is drawn (ROADMAP item 14):
    `enumerate_basis` recurses n deep, so ``--n`` near 1000 ends in a
    RecursionError, and ``nu --genus 1 --n 100`` and
    ``verify cancellation --max-n 30`` run with no end in sight."""
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        argv = [os.path.join(tmp, *OUT_PATHS[word]) if word in OUT_PATHS else word for word in argv]
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv)
            except SystemExit as exc:
                assert exc.code in (0, 2), argv
                code = exc.code
            else:
                assert code in (0, 1, 2), argv
    if code == 2:
        assert "error:" in err.getvalue(), argv
