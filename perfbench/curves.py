#!/usr/bin/env python3
"""Reference scaling curves, not gated and not part of any workload.

    python3 perfbench/curves.py

Times one library call per point (best of three, one run for points above a
second) and fits the exponent k of time ~ size^k by least squares on
log-log axes.  Prints one markdown table per curve.
"""

from __future__ import annotations

import json
import math
import random
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import afrokhlin as af  # noqa: E402

import docs  # noqa: E402
import oracle  # noqa: E402


def timed(fn) -> float:
    best = math.inf
    for _ in range(3):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
        if best > 1:
            break
    return best


def fit(xs, ts) -> float:
    lx = [math.log(x) for x in xs]
    lt = [math.log(t) for t in ts]
    mx, mt = sum(lx) / len(lx), sum(lt) / len(lt)
    return sum((a - mx) * (b - mt) for a, b in zip(lx, lt)) / sum((a - mx) ** 2 for a in lx)


def curve(title: str, unit: str, points) -> None:
    xs, ts = [], []
    print(f"\n{title}\n\n| {unit} | ms |\n|---:|---:|")
    for x, fn in points:
        t = timed(fn)
        xs.append(x)
        ts.append(t)
        print(f"| {x} | {t * 1000:.2f} |", flush=True)
    print(f"\nfitted exponent: {fit(xs, ts):.2f}")


def element(doc, bits: int):
    """An element at stage 1 just above the tail product, as in deep-certify."""
    rng = random.Random(bits)
    lo, hi = oracle.tail_enclosure(doc, 1, bits + 48)
    v = rng.getrandbits(bits) | (1 << (bits - 1))
    u = -((-v * hi[0]) // hi[1]) + 1
    u += (u - v) % 2
    return af.K0Element(1, (u + v) // 2, (u - v) // 2)


def main() -> None:
    car3_doc = docs.FIXTURE_DOCS["car3"]
    car3 = af.spec_from_json(car3_doc)
    curve("gap_product_tail(car3, 1, cutoff)", "cutoff",
          [(c, lambda c=c: af.gap_product_tail(car3, 1, c)) for c in (64, 128, 256, 512, 1024)])
    curve("extreme_trace_vector(car3, 1, stage, 64)", "stage",
          [(n, lambda n=n: af.extreme_trace_vector(car3, 1, n, 64)) for n in (250, 500, 1000, 2000, 4000)])
    curve("is_positive(car3, element, 64), threshold just above the limit", "element bits",
          [(b, lambda el=element(car3_doc, b): af.is_positive(car3, el, 64)) for b in (60, 120, 240, 480)])
    rng = random.Random(0)
    towers = []
    for n in (1000, 2000, 4000, 8000):
        gs = af.cantor.gset_from_json(docs.gset_doc(rng, "cyclic", 2, n)[0])
        towers.append((n, lambda gs=gs: af.greedy_tower(gs, af.default_cover(gs))))
    curve("greedy_tower, singleton cover, group order 2", "points n", towers)
    texts = [(k, json.dumps(docs.gset_doc(rng, "cyclic", k, 2 * k)[0])) for k in (16, 32, 64, 128)]
    curve("gset_from_json (validation), two regular orbits", "group order",
          [(k, lambda t=t: af.cantor.gset_from_json(json.loads(t))) for k, t in texts])


if __name__ == "__main__":
    main()
