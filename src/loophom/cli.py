"""Command-line entry point: verification suites, homology computation,
word evaluation, and complex export.

Every command prints a report -- command, parameters, pass/fail status,
case and failure counts, a witness for the first failure, elapsed
milliseconds -- either as a human-readable summary or as JSON (``--json``),
optionally written to a file (``--out``).  Reports are byte-stable across
runs except for the ``ms`` field (and any recorded ``seed`` is part of the
parameters, so seeded suites are reproducible).

Exit status: 0 when the command passed, 1 when a check failed, 2 for usage
errors, including an ``--out`` file that cannot be written.
"""

from __future__ import annotations

import argparse
import itertools
import json
import sys
import time
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator

from .chains import (
    boundary_chain,
    build_homotopy_L,
    chain_compose,
    chain_of,
    div_chain,
    identity_chain,
    zero_chain,
)
from .affine import f_map, ftilde_map
from .homology import homology
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
from .words import make_alphabet, parse_word, word_str

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


def run_checks(
    command: str, params: dict, checks: Iterable[Check], result: object | None = None
) -> Report:
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
    return Report(command, params, status, cases, failures, ms, witness, result)


def write_json(path: str, payload: object) -> None:
    """Write payload to path as indented JSON; an unwritable path is
    reported like any other usage error (exit 2)."""
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(payload, sort_keys=True, indent=2) + "\n")
    except OSError as exc:
        raise ValueError(f"cannot write {path}: {exc.strerror or exc}") from None


def emit(report: Report, args: argparse.Namespace) -> int:
    payload = report.to_dict()
    if getattr(args, "out", None):
        write_json(args.out, payload)
    if args.json:
        print(json.dumps(payload, sort_keys=True, indent=2))
    else:
        print(
            f"{report.command}: {report.status}"
            f" ({report.cases} cases, {report.failures} failures, {report.ms} ms)"
        )
        if report.witness is not None:
            print(f"  witness: {json.dumps(report.witness, sort_keys=True)}")
        if report.result is not None and not getattr(args, "out", None):
            print(f"  result: {json.dumps(report.result, sort_keys=True)}")
    return 0 if report.status == "pass" else 1


# ---------------------------------------------------------------------------
# Verification suites.
# ---------------------------------------------------------------------------


def subdivision_checks(max_n: int, max_k: int) -> Iterator[Check]:
    for n in range(1, max_n + 1):
        for k in range(1, max_k + 1):
            count_ok = len(div_chain(n, k)) == k**n
            lhs = chain_compose(div_chain(n, k), boundary_chain(n))
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
            acc = zero_chain(n - 1, n)
            for v, sigma in pairs:
                for i in range(0, n + 1):
                    pv, psigma, _ = invol((v, sigma, i))
                    if (pv, psigma) in pairs:
                        m, sign = f_map((v, sigma, i), k)
                        acc = acc + chain_of(m, sign)
            yield acc.is_zero(), {"check": "paired-composites", "n": n, "k": k}


def theorem_b_checks(args: argparse.Namespace) -> tuple[Iterator[Check], dict]:
    g = args.genus
    n = args.n
    if args.alphas is not None:
        texts = [args.gamma or ""] + args.alphas.split(",")
        alphabet = make_alphabet(texts, g)
        gamma = parse_word(texts[0], alphabet)
        alphas = [parse_word(t, alphabet) for t in texts[1:]]
        params = {
            "genus": g,
            "n": n,
            "gamma": texts[0],
            "alphas": texts[1:],
        }

        def single() -> Iterator[Check]:
            ok, coords = vanishing_sum_check(gamma, alphas, n, g)
            yield ok, None if ok else {"class": list(coords)}

        return single(), params

    alphabet = make_alphabet([], g)
    letters = [((i, 1),) for i in range(1, g + 1)]
    gammas: list[tuple] = [()]
    for length in (1, 2):
        for combo in itertools.product(letters, repeat=length):
            gammas.append(sum(combo, ()))
    params = {"genus": g, "n": n, "gamma": None, "alphas": None}

    def battery() -> Iterator[Check]:
        cx = build_pair_complex(n, g)
        summary = homology(cx, n)
        for gamma in gammas:
            for alphas in itertools.product(letters, repeat=n + 1):
                ok, coords = vanishing_sum_check(
                    gamma, list(alphas), n, g, cx, summary
                )
                witness = None
                if not ok:
                    witness = {
                        "gamma": word_str(gamma, alphabet),
                        "alphas": [word_str(a, alphabet) for a in alphas],
                        "class": list(coords),
                    }
                yield ok, witness

    return battery(), params


def naturality_checks(max_n: int) -> Iterator[Check]:
    ranks = (1, 2)
    complexes = {}
    summaries = {}
    for n in range(1, max_n + 1):
        for g in ranks:
            complexes[n, g] = build_pair_complex(n, g)
            summaries[n, g] = homology(complexes[n, g], n)
    for n in range(1, max_n + 1):
        for g_src in ranks:
            words = [
                tuple((i, 1) for i in letters)
                for length in (1, 2)
                for letters in itertools.product(range(1, g_src + 1), repeat=length)
            ]
            for g_tgt in ranks:
                targets = [None] + list(range(1, g_tgt + 1))
                for images in itertools.product(targets, repeat=g_src):
                    gen_map = dict(enumerate(images, start=1))
                    for w in words:
                        ok = naturality_check(
                            gen_map,
                            w,
                            n,
                            g_src,
                            g_tgt,
                            complexes[n, g_src],
                            complexes[n, g_tgt],
                            summaries[n, g_tgt],
                        )
                        witness = None
                        if not ok:
                            witness = {
                                "gen_map": {str(k): v for k, v in gen_map.items()},
                                "word": word_str(w),
                                "n": n,
                            }
                        yield ok, witness


def oracle_checks(seed: int, points_per_case: int) -> Iterator[Check]:
    words = [
        tuple((i, 1) for i in letters)
        for length in (1, 2, 3)
        for letters in itertools.product((1, 2), repeat=length)
    ]
    for n in (1, 2, 3):
        pts = random_simplex_points(n, points_per_case, seed + n)
        for w in words:
            ok = sampling_oracle(w, n, pts)
            yield ok, None if ok else {"word": word_str(w), "n": n}


# ---------------------------------------------------------------------------
# Commands.
# ---------------------------------------------------------------------------


def cmd_verify(args: argparse.Namespace) -> int:
    suite = args.suite
    if suite == "subdivision":
        params = {"max_n": args.max_n, "max_k": args.max_k}
        checks: Iterable[Check] = subdivision_checks(args.max_n, args.max_k)
    elif suite == "homotopy":
        params = {"max_n": args.max_n, "max_k": args.max_k}
        checks = homotopy_checks(args.max_n, args.max_k)
    elif suite == "combinatorics":
        params = {"max_n": args.max_n, "max_k": args.max_k}
        checks = combinatorics_checks(args.max_n, args.max_k)
    elif suite == "cancellation":
        params = {"max_n": args.max_n, "max_k": args.max_k}
        checks = cancellation_checks(args.max_n, args.max_k)
    elif suite == "theorem-b":
        checks, params = theorem_b_checks(args)
    elif suite == "naturality":
        params = {"max_n": args.max_n}
        checks = naturality_checks(args.max_n)
    else:  # oracle
        params = {"seed": args.seed, "points": 100}
        checks = oracle_checks(args.seed, 100)
    return emit(run_checks(f"verify {suite}", params, checks), args)


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
    groups = []
    for d in range(0, args.n + 1):
        h = homology(cx, d)
        groups.append(
            {
                "d": d,
                "rank": h.rank,
                "torsion": list(h.torsion),
                "group": group_text(h.rank, h.torsion),
            }
        )
    ms = int(round((time.perf_counter() - t0) * 1000))
    params = {"genus": args.genus, "n": args.n}
    report = Report(
        "homology", params, "pass", len(groups), 0, ms, result={"groups": groups}
    )
    if not args.json:
        print(f"homology: rank-{args.genus} wedge, power {args.n} ({ms} ms)")
        for row in groups:
            print(f"  H_{row['d']} = {row['group']}")
        if args.out:
            emit_to_file_only(report, args)
        return 0
    return emit(report, args)


def emit_to_file_only(report: Report, args: argparse.Namespace) -> None:
    write_json(args.out, report.to_dict())


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
    params = {"genus": args.genus, "n": args.n, "word": args.word}
    result = {
        "alphabet": alphabet,
        "chain": chain,
        "class": list(coords),
        "free_rank": summary.rank,
        "torsion": list(summary.torsion),
    }
    report = Report("nu", params, "pass", 1, 0, ms, result=result)
    if not args.json:
        print(f"nu: {args.word!r} at degree {args.n} ({ms} ms)")
        print(f"  class: {list(coords)}")
        for label in sorted(chain):
            print(f"  chain {label}: {chain[label]}")
        if args.out:
            emit_to_file_only(report, args)
        return 0
    return emit(report, args)


def cmd_export_complex(args: argparse.Namespace) -> int:
    t0 = time.perf_counter()
    alphabet = make_alphabet([], args.genus)
    cx = build_pair_complex(args.n, args.genus)
    payload = complex_to_json(cx, alphabet)
    ms = int(round((time.perf_counter() - t0) * 1000))
    params = {"genus": args.genus, "n": args.n}
    if args.out:
        write_json(args.out, payload)
        result: object = {"path": args.out, "dims": len(payload["dims"])}
        report = Report("export-complex", params, "pass", 1, 0, ms, result=result)
        if args.json:
            print(json.dumps(report.to_dict(), sort_keys=True, indent=2))
        else:
            print(
                f"export-complex: wrote {args.out}"
                f" ({len(payload['dims'])} dimensions)"
            )
        return 0
    report = Report("export-complex", params, "pass", 1, 0, ms, result=payload)
    return emit(report, args)


# ---------------------------------------------------------------------------
# Argument parsing.
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
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

    p_verify = sub.add_parser(
        "verify", parents=[common], help="run a verification suite"
    )
    p_verify.add_argument(
        "suite",
        choices=[
            "subdivision",
            "homotopy",
            "combinatorics",
            "cancellation",
            "theorem-b",
            "naturality",
            "oracle",
        ],
    )
    p_verify.add_argument("--max-n", type=int, default=None, help="dimension bound")
    p_verify.add_argument("--max-k", type=int, default=None, help="arity bound")
    p_verify.add_argument("--genus", type=int, default=2, help="wedge rank")
    p_verify.add_argument("--n", type=int, default=2, help="evaluation degree")
    p_verify.add_argument("--gamma", default=None, help="base word (theorem-b)")
    p_verify.add_argument(
        "--alphas", default=None, help="comma-separated loops (theorem-b)"
    )
    p_verify.add_argument("--seed", type=int, default=0, help="oracle sample seed")
    p_verify.set_defaults(func=cmd_verify)

    p_hom = sub.add_parser(
        "homology", parents=[common], help="homology of the pair complex"
    )
    p_hom.add_argument("--genus", type=int, required=True, help="wedge rank")
    p_hom.add_argument("--n", type=int, required=True, help="power of the wedge")
    p_hom.set_defaults(func=cmd_homology)

    p_nu = sub.add_parser(
        "nu", parents=[common], help="evaluate a word in top homology"
    )
    p_nu.add_argument("--genus", type=int, required=True, help="wedge rank")
    p_nu.add_argument("--n", type=int, required=True, help="evaluation degree")
    p_nu.add_argument("--word", required=True, help="word (uppercase = inverse)")
    p_nu.set_defaults(func=cmd_nu)

    p_exp = sub.add_parser(
        "export-complex", parents=[common], help="dump the pair complex as JSON"
    )
    p_exp.add_argument("--genus", type=int, required=True, help="wedge rank")
    p_exp.add_argument("--n", type=int, required=True, help="power of the wedge")
    p_exp.set_defaults(func=cmd_export_complex)

    return parser


# bounds a suite does not read; passing one is a usage error, not a no-op
SUITE_IGNORES = {
    "naturality": ("max_k",),
    "theorem-b": ("max_n", "max_k"),
    "oracle": ("max_n", "max_k"),
}

SUITE_BOUNDS = {
    "subdivision": (4, 4),
    "homotopy": (3, 3),
    "combinatorics": (3, 3),
    "cancellation": (3, 3),
    "naturality": (2, 2),
    "theorem-b": (2, 2),
    "oracle": (3, 3),
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "verify":
        for attr in SUITE_IGNORES.get(args.suite, ()):
            if getattr(args, attr) is not None:
                flag = "--" + attr.replace("_", "-")
                parser.error(f"{flag} has no effect on verify {args.suite}")
        default_n, default_k = SUITE_BOUNDS[args.suite]
        if args.max_n is None:
            args.max_n = default_n
        if args.max_k is None:
            args.max_k = default_k
        if args.max_n < 1 or args.max_k < 1:
            parser.error("--max-n and --max-k must be at least 1")
    for attr in ("genus", "n"):
        value = getattr(args, attr, None)
        if value is not None and value < 1:
            parser.error(f"--{attr} must be at least 1")
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
