"""Survey the homology values of powers of a single loop.

For the rank-1 wedge, prints the class of x^m for m = 0..max-m at each
degree n = 1..max-n, followed by the iterated finite differences of the
value sequence.  The (n+1)-st difference row is identically zero: the
evaluation factors through the degree-n truncation of the group ring, so
m -> value(x^m) is a Z-polynomial of degree at most n in the binomial
basis.  The surviving differences display the matrix of the evaluation on
the pure-power coordinates.

Usage:
    python3 scripts/value_survey.py [--max-n 3] [--max-m 6]
"""

from __future__ import annotations

import argparse

from loophom.homology import homology
from loophom.transform import nu_vector
from loophom.wedge import build_pair_complex


def difference_rows(values: list[tuple[int, ...]]) -> list[list[tuple[int, ...]]]:
    rows = [values]
    while len(rows[-1]) > 1:
        prev = rows[-1]
        rows.append(
            [
                tuple(b - a for a, b in zip(prev[i], prev[i + 1]))
                for i in range(len(prev) - 1)
            ]
        )
    return rows


def run(max_n: int, max_m: int) -> None:
    x = ((1, 1),)
    for n in range(1, max_n + 1):
        cx = build_pair_complex(n, 1)
        summary = homology(cx, n)
        values = [summary.cycle_class(nu_vector(x * m, cx)) for m in range(max_m + 1)]
        print(f"degree n = {n}  (H_{n} free of rank {summary.rank})")
        print(f"  value(x^m), m = 0..{max_m}:")
        print("    " + "  ".join(str(list(v)) for v in values))
        for level, row in enumerate(difference_rows(values)[1:], start=1):
            if all(not any(v) for v in row):
                print(f"  difference order {level}: all zero")
                break
            print(
                f"  difference order {level}: "
                + "  ".join(str(list(v)) for v in row)
            )
        print()


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--max-n", type=int, default=3)
    parser.add_argument("--max-m", type=int, default=6)
    args = parser.parse_args()
    run(args.max_n, args.max_m)


if __name__ == "__main__":
    main()
