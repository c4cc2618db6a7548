"""The four benchmark workloads: their inputs, their operations and the gate
that checks every output.

Each workload is a closed loop: a list of operations run one after another,
each starting when the previous one has returned.  An operation is one CLI
command, run in-process through ``loophom.cli.main`` with its standard output
captured, or, on ``word-eval``, one word evaluated the way ``loophom nu``
does it (``nu_vector``, then ``cycle_class``).

Operations look functions up as module attributes at call time, so that the
wrappers installed by ``tracing.Tracer`` see every call.

The package must be importable (``src`` on ``sys.path``) before this module
is imported.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import random
from dataclasses import dataclass, field
from typing import Callable

from loophom import cli, homology, transform, wedge, words

DEFAULT_SEED = 0

# homology-n4: (n, g) grid points; dense SNF of the degree-3 boundary at
# (4, 2) dominates the pass.
HOMOLOGY_GRID = ((3, 3), (4, 2))

# verify-suites: every suite at its default bounds, with its case count.
VERIFY_CASES = {
    "subdivision": 16,
    "homotopy": 12,
    "combinatorics": 33,
    "cancellation": 12,
    "theorem-b": 56,
    "naturality": 176,
    "oracle": 42,
}

# export-n4g3: chain ranks of the (n=4, g=3) pair complex.
EXPORT_N, EXPORT_G = 4, 3
EXPORT_RANKS = [0, 60, 990, 2754, 1944, 0]

# word-eval: a stratified batch, so that every seed carries the same mix of
# lengths and inverse-letter counts and only the letters vary; the cost of a
# word grows like 4^(inverse letters) through positivize.
WORD_N, WORD_G = 3, 2
WORD_LENGTHS = range(4, 13)
WORD_INVERSES = (0, 1, 2)
WORD_REPEATS = 4

# sha256 of the canonical JSON of each report without its "ms" field, of the
# word classes for DEFAULT_SEED, and of the classes of the monomial basis
# elements at (WORD_N, WORD_G), as computed at the commit that added the
# benchmark.
PINS = {
    "homology-3-3": "1ddb6a1bb0fe849fe4f008aab4e6db415b7418b88206df46747174e5d7ce2e94",
    "homology-4-2": "67577ebb7a87e64b70cf37b22df5b324739f16734462587353b0c4abe3109de9",
    "export-4-3": "e63434aaa6af0bcc06d48f7f12557f09f7149c3aea0ab195462e63ec5ee9dfe9",
    "word-eval-seed0": "a3f599a33b23b1b22548b74bc2399abf833c69f329873417ff157ebfbb7b04ef",
    "word-eval-monomials": "87b7034c68b9809603fac2306aeb84fcbdbdf3c11b73da8e5180cb18b70aff4b",
}


@dataclass
class Op:
    """One timed call and the check of its output (None when correct,
    otherwise the reason)."""

    label: str
    run: Callable[[], object]
    check: Callable[[object], str | None]


@dataclass
class Prepared:
    """A workload ready to run: its operations, a check over all their
    outputs (a failure there fails every operation), and a description of
    the inputs for the results file."""

    ops: list[Op]
    check_all: Callable[[list], str | None] = lambda outputs: None
    info: dict = field(default_factory=dict)


def digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


def report_digest(report: dict) -> str:
    """Digest of a CLI report apart from its timing field."""
    return digest({k: v for k, v in report.items() if k != "ms"})


def cli_op(label: str, argv: list[str], check: Callable[[dict], str | None]) -> Op:
    def run():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv)
        return code, buf.getvalue()

    def check_output(output) -> str | None:
        code, text = output
        if code != 0:
            return f"exit status {code}"
        report = json.loads(text)
        if report.get("status") != "pass":
            return f"status {report.get('status')!r}"
        return check(report)

    return Op(label, run, check_output)


# ---------------------------------------------------------------------------
# homology-n4
# ---------------------------------------------------------------------------


def check_homology(n: int, g: int, pin: str) -> Callable[[dict], str | None]:
    """H_d = 0 below the top degree; H_n free of rank g + g^2 + ... + g^n."""
    top = sum(g**d for d in range(1, n + 1))

    def check(report: dict) -> str | None:
        groups = report["result"]["groups"]
        if [row["d"] for row in groups] != list(range(n + 1)):
            return "degrees missing from the report"
        for row in groups:
            want = top if row["d"] == n else 0
            if row["rank"] != want or row["torsion"]:
                return f"H_{row['d']} = {row['group']}, expected rank {want}"
        if report_digest(report) != pin:
            return "report differs from the pinned reference"
        return None

    return check


def prepare_homology(seed: int, pins: dict) -> Prepared:
    ops = [
        cli_op(
            f"homology n={n} g={g}",
            ["homology", "--genus", str(g), "--n", str(n), "--json"],
            check_homology(n, g, pins[f"homology-{n}-{g}"]),
        )
        for n, g in HOMOLOGY_GRID
    ]
    return Prepared(ops, info={"grid": [list(p) for p in HOMOLOGY_GRID]})


# ---------------------------------------------------------------------------
# verify-suites
# ---------------------------------------------------------------------------


def check_cases(expected: int) -> Callable[[dict], str | None]:
    def check(report: dict) -> str | None:
        if report["cases"] != expected or report["failures"]:
            return f"{report['cases']} cases, {report['failures']} failures"
        return None

    return check


def prepare_verify(seed: int, pins: dict) -> Prepared:
    ops = []
    for suite, cases in VERIFY_CASES.items():
        argv = ["verify", suite, "--json"]
        if suite == "oracle":
            argv += ["--seed", str(seed)]
        ops.append(cli_op(f"verify {suite}", argv, check_cases(cases)))
    return Prepared(ops, info={"suites": list(VERIFY_CASES), "oracle_seed": seed})


# ---------------------------------------------------------------------------
# export-n4g3
# ---------------------------------------------------------------------------


def check_export(pin: str) -> Callable[[dict], str | None]:
    def check(report: dict) -> str | None:
        ranks = [len(dim["basis"]) for dim in report["result"]["dims"]]
        if ranks != EXPORT_RANKS:
            return f"ranks {ranks}"
        if report_digest(report) != pin:
            return "export differs from the pinned reference"
        return None

    return check


def prepare_export(seed: int, pins: dict) -> Prepared:
    argv = ["export-complex", "--genus", str(EXPORT_G), "--n", str(EXPORT_N), "--json"]
    op = cli_op("export-complex n=4 g=3", argv, check_export(pins["export-4-3"]))
    return Prepared([op], info={"n": EXPORT_N, "g": EXPORT_G})


# ---------------------------------------------------------------------------
# word-eval
# ---------------------------------------------------------------------------


def random_word(rng: random.Random, length: int, inverses: int, g: int) -> tuple:
    """A freely reduced word with exactly `inverses` inverse letters."""
    exps = [1] * length
    for p in rng.sample(range(length), inverses):
        exps[p] = -1
    letters: list[tuple[int, int]] = []
    for e in exps:
        choices = [i for i in range(1, g + 1) if not letters or letters[-1] != (i, -e)]
        letters.append((rng.choice(choices), e))
    return tuple(letters)


def generate_words(seed: int) -> list[tuple]:
    """The word-eval batch for a seed: WORD_REPEATS words for each length
    and inverse-letter count, in seeded order."""
    rng = random.Random(seed)
    batch = [
        random_word(rng, length, inverses, WORD_G)
        for length in WORD_LENGTHS
        for inverses in WORD_INVERSES
        for _ in range(WORD_REPEATS)
    ]
    rng.shuffle(batch)
    return batch


def word_text(w: tuple) -> str:
    return "".join("xyz"[i - 1] if e == 1 else "XYZ"[i - 1] for i, e in w)


def batch_info(batch: list[tuple]) -> dict:
    lengths: dict[int, int] = {}
    for w in batch:
        lengths[len(w)] = lengths.get(len(w), 0) + 1
    with_inverse = sum(1 for w in batch if any(e == -1 for _, e in w))
    return {
        "words": len(batch),
        "length_histogram": {str(k): lengths[k] for k in sorted(lengths)},
        "inverse_share": with_inverse / len(batch),
    }


def monomial_classes(cx, summary, n: int, g: int) -> dict[tuple, tuple]:
    """Class of (x_i1 - 1)...(x_ik - 1) for every monomial X_i1...X_ik of
    degree 1..n; its degree-n expansion is exactly that monomial."""
    out = {}
    for k in range(1, n + 1):
        for mono in itertools.product(range(1, g + 1), repeat=k):
            combo: dict[tuple, int] = {}
            for keep in itertools.product((0, 1), repeat=k):
                w = tuple((i, 1) for i, bit in zip(mono, keep) if bit)
                combo[w] = combo.get(w, 0) + (-1) ** (k - sum(keep))
            out[mono] = summary.cycle_class(transform.nu_vector(combo, cx))
    return out


def descent_error(w: tuple, cls: tuple, basis: dict[tuple, tuple], n: int, g: int) -> str | None:
    """The class of w must be the sum of its Magnus coefficients times the
    monomial classes: the evaluation factors through the degree-n quotient,
    and the empty word evaluates to zero."""
    want = [0] * len(cls)
    for mono, c in words.magnus(w, n, g).items():
        if mono:
            want = [a + c * b for a, b in zip(want, basis[mono])]
    if list(cls) != want:
        return f"class of {word_text(w)} is {list(cls)}, Magnus coefficients give {want}"
    return None


def prepare_words(seed: int, pins: dict) -> Prepared:
    batch = generate_words(seed)
    cx = wedge.build_pair_complex(WORD_N, WORD_G)
    summary = homology.homology(cx, WORD_N)
    basis: dict = {}

    def monomials() -> dict:
        """Computed by the first check, after the pass."""
        if not basis:
            basis.update(monomial_classes(cx, summary, WORD_N, WORD_G))
        return basis

    def op(w: tuple) -> Op:
        return Op(
            word_text(w),
            lambda: summary.cycle_class(transform.nu_vector(w, cx)),
            lambda cls: descent_error(w, cls, monomials(), WORD_N, WORD_G),
        )

    def check_all(outputs: list) -> str | None:
        # with the descent check, this pins every word's class for any seed
        classes = {"".join(map(str, m)): list(c) for m, c in monomials().items()}
        if digest(classes) != pins["word-eval-monomials"]:
            return "monomial classes differ from the pinned reference"
        if seed == DEFAULT_SEED and digest([list(c) for c in outputs]) != pins["word-eval-seed0"]:
            return "classes differ from the pinned reference"
        return None

    info = {"n": WORD_N, "g": WORD_G, **batch_info(batch)}
    return Prepared([op(w) for w in batch], check_all, info)


PREPARE = {
    "homology-n4": prepare_homology,
    "word-eval": prepare_words,
    "verify-suites": prepare_verify,
    "export-n4g3": prepare_export,
}


def prepare(workload: str, seed: int, pins: dict = PINS) -> Prepared:
    """Fixed preparation of a workload; on word-eval this builds the pair
    complex and its top-degree homology, which count as set-up."""
    return PREPARE[workload](seed, pins)
