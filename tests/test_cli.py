"""End-to-end checks of the command-line interface and report format."""

import json

import pytest

from loophom import cli


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
    assert cli.main(argv + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot write {out}: ")
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize(
    "suite, flag",
    [
        ("oracle", "--max-n"),
        ("oracle", "--max-k"),
        ("theorem-b", "--max-n"),
        ("theorem-b", "--max-k"),
        ("naturality", "--max-k"),
    ],
)
def test_verify_rejects_bounds_the_suite_ignores(capsys, suite, flag):
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", suite, flag, "9"])
    assert exc.value.code == 2
    assert f"{flag} has no effect on verify {suite}" in capsys.readouterr().err
