"""Census of the pair complexes: chain ranks and homology groups.

For each wedge rank g and power n in range, prints the rank of every
chain group of the canonical basis (relative to the fat wedge) and the
homology in every degree.  Two structural facts stand out in the table:
the relative homology is concentrated in the top degree, and its rank
matches the number of degree-1..n monomials in g letters (the free rank
of the truncated augmentation quotient modulo the empty word).

Usage:
    python3 scripts/complex_census.py [--max-n 3] [--max-genus 2]
"""

from __future__ import annotations

import argparse
import time

from loophom.cli import group_text
from loophom.homology import homology_groups
from loophom.wedge import build_pair_complex


def monomial_count(n: int, g: int) -> int:
    return sum(g**d for d in range(1, n + 1))


def run(max_n: int, max_genus: int) -> None:
    for g in range(1, max_genus + 1):
        for n in range(1, max_n + 1):
            t0 = time.perf_counter()
            cx = build_pair_complex(n, g)
            ranks = [cx.rank(d) for d in range(n + 1)]
            groups = [
                f"H_{d}={group_text(rank, torsion)}"
                for d, (rank, torsion) in enumerate(homology_groups(cx))
            ]
            ms = int(round((time.perf_counter() - t0) * 1000))
            print(
                f"g={g} n={n}: chain ranks {ranks}; "
                + "  ".join(groups)
                + f"; predicted top rank {monomial_count(n, g)}"
                + f"  [{ms} ms]"
            )


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--max-n", type=int, default=3)
    parser.add_argument("--max-genus", type=int, default=2)
    args = parser.parse_args()
    run(args.max_n, args.max_genus)


if __name__ == "__main__":
    main()
