"""Command-line entry point: verification suites, homology computation,
word evaluation, and complex export.

Every command prints a report -- command, parameters, pass/fail status,
case and failure counts, a witness for the first failure, elapsed
milliseconds -- either as a human-readable summary or as JSON (``--json``),
optionally written to a file (``--out``).  `emit` is the only code that
prints a report or writes ``--out``.  Reports are byte-stable across runs
except for the ``ms`` field (and any recorded ``seed`` is part of the
parameters, so seeded suites are reproducible).

The parser is built once per process, on first use.  `VERIFY_FLAGS`
declares the verify flags, and `SUITES` lists, for each verify suite, its
checks and the flags it reads with their defaults.  A report's ``params``
are its command's flags after defaults, other than ``--json`` and ``--out``.

Exit status: 0 when the command passed, 1 when a check failed, 2 for usage
errors, including an ``--out`` file that cannot be written (nothing is
printed then), a verify flag the suite does not read, and standard output
that cannot be written (a closed pipe, a full device), by a report or by
``--help``.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import io
import itertools
import json
import os
import sys
import time
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii
from typing import Callable, Iterable, Iterator

from .chains import (
    FormalChain,
    boundary_chain,
    build_homotopy_L,
    chain_compose,
    div_chain,
    identity_chain,
)
from .affine import f_map, ftilde_map
from .homology import homology, homology_groups
from .permutations import (
    bij,
    enumerate_ens,
    enumerate_shuffles,
    epsilon,
    face_perm,
    inversions_at,
    invol,
    is_shuffle,
    iter_compositions,
    point_sign,
)
from .transform import (
    naturality_check,
    nu_vector,
    random_simplex_points,
    sampling_oracle,
    symbolic_cancellation,
    vanishing_sum_check,
)
from .wedge import build_pair_complex, complex_to_json, simplex_str
from .words import make_alphabet, parse_word, positive_words, word_str

Check = tuple[bool, dict | None]


@dataclass
class Report:
    command: str
    params: dict
    status: str
    cases: int
    failures: int
    ms: int
    witness: dict | None = None
    result: object | None = None

    def to_dict(self) -> dict:
        out = {
            "command": self.command,
            "params": self.params,
            "status": self.status,
            "cases": self.cases,
            "failures": self.failures,
            "ms": self.ms,
        }
        if self.witness is not None:
            out["witness"] = self.witness
        if self.result is not None:
            out["result"] = self.result
        return out


def run_checks(command: str, params: dict, checks: Iterable[Check]) -> Report:
    t0 = time.perf_counter()
    cases = failures = 0
    witness = None
    for ok, w in checks:
        cases += 1
        if not ok:
            failures += 1
            if witness is None:
                witness = w or {}
    ms = int(round((time.perf_counter() - t0) * 1000))
    status = "pass" if failures == 0 else "fail"
    return Report(command, params, status, cases, failures, ms, witness)


def _scalar_text(value: object) -> str | None:
    """The JSON text of a string, int, bool, None or empty container; None
    for a non-empty container.  Any other type raises TypeError."""
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, (list, tuple, dict)):
        if value:
            return None
        return "{}" if isinstance(value, dict) else "[]"
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _render(value: list | tuple | dict, newline: str) -> str:
    """A non-empty container as indented JSON; `newline` is a line break
    and the indentation of the line the container opens on."""
    inner = newline + "  "
    sep = "," + inner
    if isinstance(value, dict):
        # the escaper raises TypeError on a key that is not a string
        texts = [
            encode_basestring_ascii(key) + ": " + (_scalar_text(item) or _render(item, inner))
            for key, item in sorted(value.items())
        ]
        return f"{{{inner}{sep.join(texts)}{newline}}}"
    # nearly every item of a report is an int, a string or a non-empty
    # list, so those skip the general test (bools are not of type int, and
    # repr of an int is int.__repr__)
    texts = [
        repr(item) if (kind := type(item)) is int
        else encode_basestring_ascii(item) if kind is str
        else _render(item, inner) if kind is list and item
        else _scalar_text(item) or _render(item, inner)
        for item in value
    ]
    return f"[{inner}{sep.join(texts)}{newline}]"


def render_json(value: object) -> str:
    """Exactly ``json.dumps(value, sort_keys=True, indent=2)`` for a value
    built from dicts with str keys, lists, tuples, strings, ints, bools and
    None; anything else raises TypeError.

    Strings go through the standard library's own ASCII escaper and ints
    through ``int.__repr__``, as in `json`; each list is written with one
    join of its items' texts.  On the (4, 3) export (2.2 MB) that takes
    about half the time of ``json.dumps`` up to Python 3.12, and several
    times as long as 3.13's C encoder (see `emit`).

    >>> print(render_json({"word": "xY", "class": (3, -1), "torsion": []}))
    {
      "class": [
        3,
        -1
      ],
      "torsion": [],
      "word": "xY"
    }
    """
    return _scalar_text(value) or _render(value, "\n")


def emit_to_file_only(payload: object, path: str) -> None:
    """Write payload to path as indented JSON (`render_json`); an
    unwritable path is reported like any other usage error (exit 2)."""
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(render_json(payload) + "\n")
    except OSError as exc:
        raise ValueError(f"cannot write {path}: {exc.strerror or exc}") from None


def emit(
    report: Report,
    args: argparse.Namespace,
    lines: list[str] | None = None,
    file_payload: object | None = None,
) -> int:
    """The one way a report leaves the program.

    ``--out`` receives the report as JSON, or `file_payload` in its place;
    it is written first, so a failed write prints nothing.  Standard output
    gets the report as JSON with ``--json``, else the command's summary
    `lines`, else a status line with the witness and (without ``--out``) the
    result.  Returns the exit status; standard output that cannot be
    written raises ValueError, a usage error.

    Both JSON forms come from `render_json`, a hand renderer that writes
    the bytes of ``json.dumps(..., sort_keys=True, indent=2)``: up to
    Python 3.12 the standard library encodes ``indent`` in pure Python, one
    call per item, which made rendering the largest cost of
    ``export-complex``.  It goes once ``requires-python`` reaches 3.13,
    whose C encoder handles ``indent``.
    """
    payload = report.to_dict()
    if args.out is not None:
        emit_to_file_only(payload if file_payload is None else file_payload, args.out)
    if args.json:
        lines = [render_json(payload)]
    elif lines is None:
        lines = [
            f"{report.command}: {report.status}"
            f" ({report.cases} cases, {report.failures} failures, {report.ms} ms)"
        ]
        if report.witness is not None:
            lines.append(f"  witness: {json.dumps(report.witness, sort_keys=True)}")
        if report.result is not None and args.out is None:
            lines.append(f"  result: {json.dumps(report.result, sort_keys=True)}")
    write_stdout("\n".join(lines) + "\n")
    return 0 if report.status == "pass" else 1


def write_stdout(text: str) -> None:
    """Write text to standard output and flush it; standard output that
    cannot be written raises ValueError, a usage error."""
    try:
        # in buffer-sized pieces: an unbuffered stream (python -u) drops
        # without an error the tail of a larger write that a closing pipe
        # cuts short
        for i in range(0, len(text), io.DEFAULT_BUFFER_SIZE):
            sys.stdout.write(text[i : i + io.DEFAULT_BUFFER_SIZE])
        sys.stdout.flush()
    except OSError as exc:
        # the interpreter flushes stdout again at exit: send what is left
        # to the null device so that flush cannot fail a second time
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        raise ValueError(f"cannot write standard output: {exc.strerror or exc}") from None


# ---------------------------------------------------------------------------
# Verification suites.
# ---------------------------------------------------------------------------


def subdivision_checks(max_n: int, max_k: int) -> Iterator[Check]:
    for n in range(1, max_n + 1):
        for k in range(1, max_k + 1):
            chain = div_chain(n, k)
            count_ok = len(chain) == k**n
            lhs = chain_compose(chain, boundary_chain(n))
            rhs = chain_compose(boundary_chain(n), div_chain(n - 1, k))
            yield count_ok and lhs == rhs, {"n": n, "k": k}


def homotopy_checks(max_n: int, max_k: int) -> Iterator[Check]:
    for k in range(1, max_k + 1):
        levels = build_homotopy_L(k, max_n)
        for m in range(0, max_n + 1):
            defect = identity_chain(m) - div_chain(m, k)
            defect = defect - chain_compose(levels[m], boundary_chain(m + 1))
            if m >= 1:
                defect = defect - chain_compose(boundary_chain(m), levels[m - 1])
            yield defect.is_zero(), {"k": k, "m": m}


def _involution_block(n: int, k: int) -> Check:
    perms = list(itertools.permutations(range(1, n + 1)))
    for v in itertools.product(range(-1, k + 1), repeat=n):
        for sigma in perms:
            for i in range(0, n + 1):
                x = (v, sigma, i)
                y = invol(x)
                if invol(y) != x or y == x:
                    return False, {"check": "involution", "point": list(x)}
                if point_sign(y[1], y[2]) != -point_sign(sigma, i):
                    return False, {"check": "sign-flip", "point": list(x)}
                fx, sx = f_map(x, k)
                fy, sy = f_map(y, k)
                if fx != fy or sy != -sx:
                    return False, {"check": "composite-invariance", "point": list(x)}
    return True, None


def _bij_block(n: int, k: int) -> Check:
    pairs = set(enumerate_ens(n, k))
    survivors = set()
    for v, sigma in pairs:
        for i in range(0, n + 1):
            pv, psigma, _ = invol((v, sigma, i))
            if (pv, psigma) not in pairs:
                survivors.add((v, sigma, i))
    image = set()
    for w, tau in enumerate_ens(n - 1, k):
        for i in range(0, n + 1):
            x = bij(w, tau, i, k)
            if x in image:
                return False, {"check": "bij-injective", "n": n, "k": k}
            image.add(x)
            target, tsign = ftilde_map(w, tau, i, k)
            got, gsign = f_map(x, k)
            if got != target or gsign != tsign:
                return False, {
                    "check": "bij-composite",
                    "w": list(w),
                    "tau": list(tau),
                    "i": i,
                }
    if image != survivors:
        return False, {"check": "bij-image", "n": n, "k": k}
    return True, None


def _sign_law_block(n: int) -> Check:
    for tau in itertools.permutations(range(1, n + 1)):
        for i in range(0, n + 2):
            sigma = face_perm(tau, i)
            if 1 <= i <= n:
                expected = epsilon(tau) * (-1) ** (tau[i - 1] - i)
                if len(inversions_at(tau, i)) % 2 != (tau[i - 1] - i) % 2:
                    return False, {"check": "inversion-parity", "tau": list(tau), "i": i}
            else:
                expected = epsilon(tau)
            if epsilon(sigma) != expected:
                return False, {"check": "face-sign-law", "tau": list(tau), "i": i}
    return True, None


def _shuffle_block(n: int) -> Check:
    perms = list(itertools.permutations(range(1, n + 1)))
    for parts_len in range(1, min(n, 3) + 1):
        for parts in iter_compositions(n, parts_len):
            listed = enumerate_shuffles(parts)
            brute = [s for s in perms if is_shuffle(parts, s)]
            if listed != sorted(brute) or len(set(listed)) != len(listed):
                return False, {"check": "shuffle-enumeration", "parts": list(parts)}
    return True, None


def combinatorics_checks(max_n: int, max_k: int) -> Iterator[Check]:
    for n in range(1, max_n + 1):
        yield _sign_law_block(n)
        yield _shuffle_block(n)
        for k in range(1, max_k + 1):
            yield len(enumerate_ens(n, k)) == k**n, {
                "check": "index-count",
                "n": n,
                "k": k,
            }
            yield _involution_block(n, k)
            yield _bij_block(n, k)


def cancellation_checks(max_n: int, max_k: int) -> Iterator[Check]:
    for n in range(1, max_n + 1):
        leftover = symbolic_cancellation(n)
        yield leftover == {}, {
            "check": "symbolic",
            "n": n,
            "leftover-terms": len(leftover),
        }
    for n in range(1, max_n + 1):
        for k in range(1, max_k + 1):
            pairs = set(enumerate_ens(n, k))
            paired = (
                f_map((v, sigma, i), k)
                for v, sigma in pairs
                for i in range(n + 1)
                if invol((v, sigma, i))[:2] in pairs
            )
            composites = FormalChain(n - 1, n, paired)
            yield composites.is_zero(), {"check": "paired-composites", "n": n, "k": k}


def theorem_b_checks(
    genus: int, n: int, gamma: str | None, alphas: list[str] | None
) -> Iterator[Check]:
    """One vanishing sum for the given words, or the battery: every gamma of
    length <= 2 against every (n+1)-tuple of single letters.  Only a failing
    sum has its class read, for the witness, through `homology`."""
    alphabet = make_alphabet([] if alphas is None else [gamma] + alphas, genus)
    if alphas is not None and len(alphas) != n + 1:  # before the costly complex
        raise ValueError(f"need exactly {n + 1} loops, got {len(alphas)}")
    cx = build_pair_complex(n, genus)
    summary = functools.cache(lambda: homology(cx, n))
    if alphas is not None:
        ok, vec = vanishing_sum_check(
            parse_word(gamma, alphabet), [parse_word(t, alphabet) for t in alphas], cx
        )
        yield ok, None if ok else {"class": list(summary().cycle_class(vec))}
        return
    letters = positive_words(genus, (1,))
    for base in positive_words(genus, (0, 1, 2)):
        for loops in itertools.product(letters, repeat=n + 1):
            ok, vec = vanishing_sum_check(base, list(loops), cx)
            witness = None
            if not ok:
                witness = {
                    "gamma": word_str(base, alphabet),
                    "alphas": [word_str(a, alphabet) for a in loops],
                    "class": list(summary().cycle_class(vec)),
                }
            yield ok, witness


def naturality_checks(max_n: int) -> Iterator[Check]:
    ranks = (1, 2)
    complexes = {(n, g): build_pair_complex(n, g) for n in range(1, max_n + 1) for g in ranks}
    for n in range(1, max_n + 1):
        for g_src in ranks:
            words = positive_words(g_src, (1, 2))
            for g_tgt in ranks:
                targets = [None] + list(range(1, g_tgt + 1))
                for images in itertools.product(targets, repeat=g_src):
                    gen_map = dict(enumerate(images, start=1))
                    for w in words:
                        ok = naturality_check(
                            gen_map, w, complexes[n, g_src], complexes[n, g_tgt]
                        )
                        witness = None
                        if not ok:
                            witness = {
                                "gen_map": {str(k): v for k, v in gen_map.items()},
                                "word": word_str(w),
                                "n": n,
                            }
                        yield ok, witness


def oracle_checks(seed: int, points: int) -> Iterator[Check]:
    words = positive_words(2, (1, 2, 3))
    for n in (1, 2, 3):
        pts = random_simplex_points(n, points, seed + n)
        for w in words:
            ok = sampling_oracle(w, n, pts)
            yield ok, None if ok else {"word": word_str(w), "n": n}


# Each suite: its checks, and the parameters they take with their defaults.
# Every parameter but oracle's points is the verify flag of the same name;
# a verify flag missing from a suite's entry is one it does not read.
SUITES: dict[str, tuple[Callable[..., Iterator[Check]], dict]] = {
    "subdivision": (subdivision_checks, {"max_n": 4, "max_k": 4}),
    "homotopy": (homotopy_checks, {"max_n": 3, "max_k": 3}),
    "combinatorics": (combinatorics_checks, {"max_n": 3, "max_k": 3}),
    "cancellation": (cancellation_checks, {"max_n": 3, "max_k": 3}),
    "theorem-b": (theorem_b_checks, {"genus": 2, "n": 2, "gamma": None, "alphas": None}),
    "naturality": (naturality_checks, {"max_n": 2}),
    "oracle": (oracle_checks, {"seed": 0, "points": 100}),
}


# ---------------------------------------------------------------------------
# Commands.
# ---------------------------------------------------------------------------


def cmd_verify(args: argparse.Namespace) -> int:
    checks = SUITES[args.suite][0](**args.params)
    return emit(run_checks(f"verify {args.suite}", args.params, checks), args)


def group_text(rank: int, torsion: tuple[int, ...]) -> str:
    parts = []
    if rank == 1:
        parts.append("Z")
    elif rank > 1:
        parts.append(f"Z^{rank}")
    parts.extend(f"Z/{d}" for d in torsion)
    return " + ".join(parts) if parts else "0"


def cmd_homology(args: argparse.Namespace) -> int:
    t0 = time.perf_counter()
    cx = build_pair_complex(args.n, args.genus)
    groups = [
        {"d": d, "rank": rank, "torsion": list(torsion), "group": group_text(rank, torsion)}
        for d, (rank, torsion) in enumerate(homology_groups(cx))
    ]
    ms = int(round((time.perf_counter() - t0) * 1000))
    report = Report(
        "homology", args.params, "pass", len(groups), 0, ms, result={"groups": groups}
    )
    lines = [f"homology: rank-{args.genus} wedge, power {args.n} ({ms} ms)"]
    lines += [f"  H_{row['d']} = {row['group']}" for row in groups]
    return emit(report, args, lines)


def cmd_nu(args: argparse.Namespace) -> int:
    t0 = time.perf_counter()
    alphabet = make_alphabet([args.word], args.genus)
    w = parse_word(args.word, alphabet)
    cx = build_pair_complex(args.n, args.genus)
    summary = homology(cx, args.n)
    vec = nu_vector(w, cx)
    coords = summary.cycle_class(vec)
    chain = {
        simplex_str(s, alphabet): c
        for s, c in zip(cx.basis(args.n), vec)
        if c
    }
    ms = int(round((time.perf_counter() - t0) * 1000))
    result = {
        "alphabet": alphabet,
        "chain": chain,
        "class": list(coords),
        "free_rank": summary.rank,
        "torsion": [],  # Z_n sits inside the free group C_n, so it is free
    }
    report = Report("nu", args.params, "pass", 1, 0, ms, result=result)
    lines = [f"nu: {args.word!r} at degree {args.n} ({ms} ms)", f"  class: {list(coords)}"]
    lines += [f"  chain {label}: {chain[label]}" for label in sorted(chain)]
    return emit(report, args, lines)


def cmd_export_complex(args: argparse.Namespace) -> int:
    t0 = time.perf_counter()
    make_alphabet([], args.genus)  # the export names each generator by one letter
    cx = build_pair_complex(args.n, args.genus)
    payload = complex_to_json(cx)
    ms = int(round((time.perf_counter() - t0) * 1000))
    if args.out is not None:  # the file gets the complex, the report says where it went
        dims = len(payload["dims"])
        result = {"path": args.out, "dims": dims}
        report = Report("export-complex", args.params, "pass", 1, 0, ms, result=result)
        lines = [f"export-complex: wrote {args.out} ({dims} dimensions)"]
        return emit(report, args, lines, file_payload=payload)
    return emit(Report("export-complex", args.params, "pass", 1, 0, ms, result=payload), args)


# ---------------------------------------------------------------------------
# Argument parsing.
# ---------------------------------------------------------------------------


# Each verify flag's type and help, and no default: a flag given is told
# apart from one left out, and SUITES fills in what the suite reads.
VERIFY_FLAGS: dict[str, tuple[Callable[[str], object], str]] = {
    "max_n": (int, "dimension bound"),
    "max_k": (int, "arity bound"),
    "genus": (int, "wedge rank"),
    "n": (int, "evaluation degree"),
    "gamma": (str, "base word (theorem-b)"),
    "alphas": (lambda text: text.split(","), "comma-separated loops (theorem-b)"),
    "seed": (int, "oracle sample seed"),
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of every command, built on first use and then reused:
    parsing leaves no state in it, and the ``cmd_*`` functions it holds
    look up what they call when they run."""
    parser = argparse.ArgumentParser(
        prog="loophom",
        description=(
            "Exact verification of the subdivision/homotopy calculus and "
            "evaluation of words in the homology of wedge powers."
        ),
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", help="print the report as JSON")
    common.add_argument("--out", metavar="FILE", help="also write JSON output to FILE")

    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", parents=[common], help="run a verification suite")
    p_verify.add_argument("suite", choices=list(SUITES))
    for attr, (kind, text) in VERIFY_FLAGS.items():
        p_verify.add_argument("--" + attr.replace("_", "-"), type=kind, help=text)
    p_verify.set_defaults(func=cmd_verify)

    # the two --n helps differ on purpose: nu evaluates at degree n
    for command, func, text, n_text in (
        ("homology", cmd_homology, "homology of the pair complex", "power of the wedge"),
        ("nu", cmd_nu, "evaluate a word in top homology", "evaluation degree"),
        ("export-complex", cmd_export_complex, "dump the pair complex as JSON",
         "power of the wedge"),
    ):
        p_cmd = sub.add_parser(command, parents=[common], help=text)
        p_cmd.add_argument("--genus", type=int, required=True, help="wedge rank")
        p_cmd.add_argument("--n", type=int, required=True, help=n_text)
        p_cmd.set_defaults(func=func)
    sub.choices["nu"].add_argument("--word", required=True, help="word (uppercase = inverse)")

    return parser


def suite_params(parser: argparse.ArgumentParser, args: argparse.Namespace) -> dict:
    """The parameters of verify SUITE: each flag it reads, else its default
    from SUITES.  A flag the suite does not read is a usage error, not a
    no-op."""
    defaults = SUITES[args.suite][1]
    for attr in VERIFY_FLAGS:
        if attr not in defaults and getattr(args, attr) is not None:
            flag = "--" + attr.replace("_", "-")
            parser.error(f"{flag} has no effect on verify {args.suite}")
    if args.gamma is not None and args.alphas is None:
        parser.error("--gamma needs --alphas")
    params = {
        attr: default if getattr(args, attr, None) is None else getattr(args, attr)
        for attr, default in defaults.items()
    }
    if params.get("alphas") is not None and params["gamma"] is None:
        params["gamma"] = ""  # loops around the empty base word
    if params.get("max_n", 1) < 1 or params.get("max_k", 1) < 1:
        parser.error("--max-n and --max-k must be at least 1")
    return params


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        # argparse ignores a failed write of its help text and exits 0, so
        # the text is collected and written the way a report is
        help_text = io.StringIO()
        try:
            with contextlib.redirect_stdout(help_text):
                args = parser.parse_args(argv)
        except SystemExit:  # after --help, or a usage error
            write_stdout(help_text.getvalue())
            raise
        if args.command == "verify":
            args.params = suite_params(parser, args)
        else:  # every flag the command declares but the output ones
            args.params = {
                attr: value for attr, value in vars(args).items()
                if attr not in ("command", "func", "json", "out")
            }
        for attr in ("genus", "n"):
            if args.params.get(attr, 1) < 1:
                parser.error(f"--{attr} must be at least 1")
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
