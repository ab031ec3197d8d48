#!/usr/bin/env python3
"""Tabulate the extreme trace weights of a two-trace fixture stage by stage,
showing the convergence of the stage weights to the endpoint (1, 0)."""

import argparse

from afrokhlin import extreme_trace_vector, fixture
from afrokhlin.report import weight_json, weight_str


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--fixture", default="car3")
    parser.add_argument("--stages", type=int, default=12)
    parser.add_argument("--cutoff", type=int, default=40)
    args = parser.parse_args()

    spec = fixture(args.fixture)
    print(f"{'n':>3}  {'gap(n)':>10}  r_n (extreme 1)")
    for n in range(0, args.stages + 1):
        tv = extreme_trace_vector(spec, 1, n, cutoff=args.cutoff)
        g = spec.factor(n).gap if n >= 1 else "-"
        print(f"{n:>3}  {str(g):>10}  {weight_str(weight_json(tv.r))}")


if __name__ == "__main__":
    main()
