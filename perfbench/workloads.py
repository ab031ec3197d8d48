"""The three workloads: seeded operation lists and the checks on their outputs.

A workload is a list of ``Op``s, one round.  ``Op.call`` runs one operation
against the program and returns its raw result; ``Op.check`` inspects that
result after the timed phase and returns None or a description of what is
wrong.  Checks use only ``oracle`` and the generated documents, never the
code path under test.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
import re
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

import docs
import oracle


@dataclass
class Op:
    kind: str
    call: Callable[[], object]
    check: Callable[[object], str | None]
    known_fault: bool = False


def failed(op: Op, result) -> bool:
    if isinstance(result, BaseException):
        return True
    if op.kind.startswith("cli."):
        return result[0] != 0
    return False


# ---------------------------------------------------------------------------
# parsing helpers


def parse_exact(text) -> Fraction:
    """An exact rational from an int, a decimal, p/q, or products of powers
    such as 2^4501500*3."""
    if isinstance(text, int):
        return Fraction(text)
    text = str(text).strip()
    if "/" in text:
        num, den = text.split("/", 1)
        return parse_exact(num) / parse_exact(den)
    out = Fraction(1)
    for part in text.split("*"):
        base, _, exp = part.partition("^")
        out *= Fraction(base) ** (int(exp) if exp else 1)
    return out


def weight_bounds(w):
    """(lo, hi) pairs of a rendered weight: exact string or {"lo", "hi"}."""
    if isinstance(w, dict):
        return oracle.pair(parse_exact(w["lo"])), oracle.pair(parse_exact(w["hi"]))
    x = oracle.pair(parse_exact(w))
    return x, x


def text_decisions(out: str) -> dict[str, str]:
    """'- label: value  [...]' lines of a text report, label -> first word."""
    found = {}
    for line in out.splitlines():
        m = re.match(r"^- ([^:]+): (\S+)", line)
        if m:
            found[m.group(1)] = m.group(2)
    return found


def parse_supernatural(text: str) -> dict:
    if text == "1":
        return {}
    out = {}
    for part in text.split("*"):
        p, _, e = part.partition("^")
        out[int(p)] = "inf" if e == "inf" else int(e or 1)
    return out


# ---------------------------------------------------------------------------
# shared verdict checks


def check_depth(doc: dict, v: int) -> int:
    """Enclosure depth that separates any threshold built by ``_element``."""
    return depth_for(doc, max(abs(v).bit_length(), 8)) + 16


def expected_positive(doc: dict, a: int, b: int, stage: int) -> str:
    """Positivity decided by the benchmark's own route."""
    u, v = a + b, a - b
    if u == 0:
        return "yes" if v == 0 or oracle.zero_gap_after(doc, stage) else "no"
    if u < 0:
        return "no"
    if v == 0 or oracle.zero_gap_after(doc, stage) or oracle.tail_vanishes(doc):
        return "yes"
    lo, hi = oracle.tail_enclosure(doc, stage, check_depth(doc, v))
    t = (u, abs(v))
    if oracle.le(hi, t) and hi != t:
        return "yes"
    if not oracle.le(lo, t):
        return "no"
    raise ValueError("threshold too close to the tail product for the check depth")


def positive_problem(doc, a, b, stage, decision, witness) -> str | None:
    want = expected_positive(doc, a, b, stage)
    if decision != want:
        return f"positivity of ({a}, {b})@{stage}: {decision}, expected {want}"
    kind = witness.get("kind")
    if kind == "in_cone_at_stage":
        n = int(witness["stage"])
        x, y = oracle.push_forward(doc, a, b, stage, n)
        if min(x, y) < 0:
            return f"witness stage {n} is not in the cone: ({x}, {y})"
    elif kind == "tail_threshold_exceeded":
        # the witness is rounded down to 12 digits, so it must stay a lower
        # bound of the tail product; it need not exceed the threshold
        _, hi = oracle.tail_enclosure(doc, stage, check_depth(doc, a - b))
        if not oracle.le(oracle.pair(parse_exact(witness["tail_lower"])), hi):
            return "tail_lower witness exceeds the tail product"
    return None


def tracial_bracket_problem(doc, m, lo_text, hi_text, cutoff) -> str | None:
    if m != oracle.last_zero_index(doc):
        return f"tracial witness stage {m}, expected {oracle.last_zero_index(doc)}"
    lo, hi = oracle.tail_enclosure(doc, m, cutoff + 16)
    w_lo, w_hi = oracle.pair(parse_exact(lo_text)), oracle.pair(parse_exact(hi_text))
    if not oracle.intersects(lo, hi, w_lo, w_hi):
        return "tracial witness enclosure misses the tail product"
    return None


# ---------------------------------------------------------------------------
# cli-mix


def run_cli(main, argv: list[str]):
    """One in-process CLI call with stdout and stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = main(argv)
        except SystemExit as exc:  # argparse rejects the arguments
            rc = exc.code if isinstance(exc.code, int) else 1
    return rc, out.getvalue(), err.getvalue()


def _check_classify(doc, as_json, cutoff=64):
    exp = oracle.expected_verdicts(doc)

    def check(result):
        out = result[1]
        if as_json:
            c = json.loads(out)["classification"]
            got = {k: c[k]["decision"] for k in exp if k != "extreme_trace_count"}
            got["extreme_trace_count"] = c["extreme_trace_count"]
            sn = c["crossed_product_supernatural"]
            sn = None if sn is None else {int(p): e for p, e in sn.items()}
            w = c["tracial_rokhlin"]["witness"]
            bracket = (w["m"], w["lower"], w["upper"]) if "lower" in w else None
        else:
            d = text_decisions(out)
            labels = {
                "strict_rokhlin": "strict Rokhlin property",
                "tracial_rokhlin": "tracial Rokhlin property",
                "outer": "action outer",
                "crossed_product_simple": "crossed product simple",
                "crossed_product_uhf": "crossed product UHF",
            }
            got = {k: d.get(label) for k, label in labels.items()}
            got["extreme_trace_count"] = int(d.get("extreme tracial states", "0"))
            sn_line = re.search(r"^- crossed product supernatural number: (\S+)$", out, re.M)
            sn = parse_supernatural(sn_line.group(1)) if sn_line else None
            m = re.search(r"tail product from stage (\d+) lies in \[([^,]+), ([^\]]+)\]", out)
            bracket = (int(m.group(1)), m.group(2), m.group(3)) if m else None
        if got != exp:
            return f"verdicts {got} != closed-form rules {exp}"
        if (sn is not None) != (exp["strict_rokhlin"] == "yes"):
            return "supernatural number present exactly when the crossed product is UHF"
        if sn is not None:
            problem = oracle.check_supernatural(doc, sn)
            if problem:
                return problem
        if exp["tracial_rokhlin"] == "no":
            if bracket is None:
                return "tracial no without a tail product enclosure"
            return tracial_bracket_problem(doc, bracket[0], bracket[1], bracket[2], cutoff)
        return None

    return check


def _check_ktheory(doc, a, b, stage, query, as_json):
    strict = oracle.expected_verdicts(doc)["strict_rokhlin"]

    def zero(x, y):
        return x + y == 0 and (x == y or oracle.zero_gap_after(doc, stage))

    def check(result):
        out = result[1]
        if not as_json:
            d = text_decisions(out)
            if query == "positive":
                got = (d.get("positive"), d.get("negative of it positive"))
                want = (expected_positive(doc, a, b, stage), expected_positive(doc, -a, -b, stage))
            elif query == "equal-zero":
                got, want = d.get("equals the zero class"), "yes" if zero(a, b) else "no"
            else:
                got = (d.get("flip equals input"), d.get("flip equals negation"))
                want = tuple("yes" if z else "no" for z in (zero(b - a, a - b), zero(a + b, a + b)))
            if got != want:
                return f"ktheory {query} ({a}, {b})@{stage}: {got}, expected {want}"
            if d.get("K0 of the crossed product totally ordered") != strict:
                return "total order verdict differs from the strict Rokhlin rule"
            return None
        s = json.loads(out)["ktheory"]
        if s["totally_ordered"]["decision"] != strict:
            return "total order verdict differs from the strict Rokhlin rule"
        if query == "positive":
            for sign, key in ((1, "positive"), (-1, "negative_positive")):
                v = s[key]
                problem = positive_problem(doc, sign * a, sign * b, stage, v["decision"], v["witness"])
                if problem:
                    return problem
            return None
        if query == "equal-zero":
            return None if s["equal_zero"] == zero(a, b) else "equal-zero verdict"
        if s["flipped"] != {"stage": stage, "a": b, "b": a}:
            return "flip does not swap the coordinates"
        if (s["equal_to_input"], s["equal_to_negation"]) != (zero(b - a, a - b), zero(a + b, a + b)):
            return "flip comparisons"
        return None

    return check


def _check_traces(doc, which, stage, as_json):
    def check(result):
        out = result[1]
        if as_json:
            vec = json.loads(out)["traces"]["vector"]
            if vec["stage"] != stage:
                return "trace vector stage"
            r, s = weight_bounds(vec["r"]), weight_bounds(vec["s"])
        else:
            m = re.search(r"r = (\[[^\]]+\]|\S+), s = (\[[^\]]+\]|\S+)$", out.strip())
            if not m:
                return "unparsable trace weights"

            def bounds(t):
                if t.startswith("["):
                    lo, hi = t[1:-1].split(", ")
                    return weight_bounds({"lo": lo, "hi": hi})
                return weight_bounds(t)

            r, s = bounds(m.group(1)), bounds(m.group(2))
        if which == "inv":
            want_r = want_s = ((1, 2), (1, 2))
        else:
            lo, hi = oracle.tail_enclosure(doc, stage, 80)
            plus = (oracle.half_plus(lo, 1), oracle.half_plus(hi, 1))
            minus = (oracle.half_plus(hi, -1), oracle.half_plus(lo, -1))
            want_r, want_s = (plus, minus) if which == "1" else (minus, plus)
        for got, want in ((r, want_r), (s, want_s)):
            if not oracle.intersects(got[0], got[1], want[0], want[1]):
                return "trace weights miss the benchmark's enclosure"
        return None

    return check


def _check_condense(doc, lo, hi, as_json):
    def check(result):
        out = result[1]
        size, diff = oracle.size_and_diff(doc, lo, hi)
        if as_json:
            c = json.loads(out)["condense"]
            P, Q = (int(parse_exact(x)) for x in c["pair"])
            got_size = parse_exact(c["size"])
            gaps = [parse_exact(c["gap"]), parse_exact(c["gap_product_check"])]
        else:
            m = re.search(r"condense to \((\S+), (\S+)\) in M_(\S+) with gap ratio (\S+)$", out.strip())
            if not m:
                return "unparsable condense line"
            P, Q = int(parse_exact(m.group(1))), int(parse_exact(m.group(2)))
            got_size = parse_exact(m.group(3))
            gaps = [parse_exact(m.group(4))]
        if P + Q != size or P - Q != diff or got_size != size:
            return f"condensed pair ({P}, {Q}) does not match sizes {size} and differences {diff}"
        if any(g != Fraction(diff, size) for g in gaps):
            return "condensed gap ratio"
        if size <= 1 << 15 and oracle.sign_counts(oracle.factors(doc, lo + 1, hi)) != (P, Q):
            return "condensed pair differs from the literal eigenvalue count"
        return None

    return check


_NODE = re.compile(r'^\s*([LR])(\d+) \[label="([^"]+)"\];$')
_EDGE = re.compile(r'^\s*([LR])(\d+) -> ([LR])(\d+) \[label="([^"]+)"\];$')


def _check_bratteli(doc, stages, as_json):
    def check(result):
        out = result[1]
        dot = json.loads(out)["bratteli"]["dot"] if as_json else out
        nodes, edges = {}, {}
        for line in dot.splitlines():
            if m := _NODE.match(line):
                nodes[(m.group(1), int(m.group(2)))] = parse_exact(m.group(3))
            elif m := _EDGE.match(line):
                key = (m.group(1), int(m.group(2)), m.group(3), int(m.group(4)))
                edges[key] = parse_exact(m.group(5))
        want_nodes, want_edges, t = {}, {}, 1
        for n, (p, q) in enumerate(oracle.factors(doc, 1, stages), start=1):
            t *= p + q
            want_nodes[("L", n)] = want_nodes[("R", n)] = t
            if n > 1:
                want_edges[("L", n - 1, "L", n)] = want_edges[("R", n - 1, "R", n)] = p
                want_edges[("L", n - 1, "R", n)] = want_edges[("R", n - 1, "L", n)] = q
        if nodes != want_nodes:
            return "bratteli stage sizes"
        if edges != want_edges:
            return "bratteli edge multiplicities"
        return None

    return check


def _check_torsion(m_exp, rs, notor, as_json):
    primes = set().union(*(oracle.small_primes_of(2 * r + 1) for r in rs))

    def check(result):
        out = result[1]
        if not as_json:
            if notor:
                return None if "K0 torsion-free" in out and "K1 = Z," in out else "torsion-free text"
            tors = re.findall(r"Z/(\d+)", out)
            loc = re.search(r"Z\[1/([\d*]+)\]", out)
            if set(tors) != {str(2**m_exp)} or not loc:
                return "torsion subgroup text"
            got = {int(p) for p in loc.group(1).split("*")}
            return None if got == primes else f"localization primes {got} != {primes}"
        fam = json.loads(out)["torsion_family"]
        if notor:
            k1 = fam["k1"]
            ok = fam["k0"]["torsion_free"] is True and k1["free_rank"] == 1
            ok = ok and k1["invariant_factors"] == [] and k1["localizations"] == [{}]
            return None if ok else "torsion-free family"
        k0 = fam["k0"]
        if k0["invariant_factors"] != [2**m_exp]:
            return f"torsion subgroup {k0['invariant_factors']} != Z/{2**m_exp}"
        locs = k0["localizations"]
        if k0["free_rank"] != 1 or len(locs) != 1:
            return "free part of K0"
        if set(locs[0].values()) != {"inf"} or {int(p) for p in locs[0]} != primes:
            return f"localization primes {sorted(locs[0])} != {sorted(primes)}"
        return None

    return check


def _check_cantor(gdoc, as_json):
    def check(result):
        out = result[1]
        if not as_json:
            m = re.search(r"tower base of size (\d+): \{(.*)\}$", out.strip())
            if not m:
                return "unparsable tower line"
            base = m.group(2).split(", ") if m.group(2) else []
            return oracle.tower_problem(gdoc, base, None)
        c = json.loads(out)["cantor"]
        if c["group_order"] != len(gdoc["action"]) or c["elements"] != gdoc["elements"]:
            return "cantor echo of the document"
        return oracle.tower_problem(gdoc, c["tower"]["base"], c["tower"]["translates"])

    return check


def _element(rng, doc, stage, bits, above, depth):
    """An element (a, b)@stage whose threshold u/|v| sits within about 2^-bits
    of the tail product from ``stage``, above or below it."""
    lo, hi = oracle.tail_enclosure(doc, stage, depth)
    v = rng.getrandbits(bits) | (1 << (bits - 1))
    k = rng.randint(1, 3)
    if above:
        u = -((-v * hi[0]) // hi[1]) + k
    else:
        u = (v * lo[0]) // lo[1] - k
    if (u - v) % 2:
        u += 1 if above else -1
    if rng.random() < 0.5:
        v = -v
    return (u + v) // 2, (u - v) // 2


def depth_for(doc, bits):
    """Tail positions whose remainder is below 2^-(bits + 40)."""
    if doc["tail"]["kind"] != "affine_power":
        return 1
    B = doc["tail"]["B"]
    return math.ceil((bits + 40 + 2 * doc["tail"]["A"]) / math.log2(B)) + 4


def build_cli_mix(af, seed: int, tmp: Path) -> list[Op]:
    rng = random.Random(f"cli-mix/{seed}")
    ops: list[Op] = []

    def write(name, obj) -> str:
        path = tmp / name
        path.write_text(json.dumps(obj))
        return str(path)

    def add(kind, argv, check, known_fault=False):
        ops.append(Op("cli." + kind, lambda argv=argv: run_cli(af.cli.main, argv), check, known_fault))

    def spec_arg(doc):
        return doc["name"] if doc["name"] in docs.FIXTURE_DOCS else write(doc["name"] + ".json", doc)

    F = docs.FIXTURE_DOCS
    positive = [
        docs.positive_affine(rng, f"pos{i}", B, docs.prefix(rng, rng.randint(0, 2), sym))
        for i, (B, sym) in enumerate(((2, None), (3, 0), (4, None)))
    ]
    vanishing = [docs.vanishing_affine(rng, f"van{i}", B, docs.prefix(rng, 1)) for i, B in enumerate((2, 3))]
    periodic = [
        docs.periodic(rng, f"per{i}", docs.prefix(rng, rng.randint(0, 2), sym), kind)
        for i, (kind, sym) in enumerate((("symmetric", None), ("mixing", None), ("trivial", 0)))
    ]
    # Factor sizes near 10^12 make supernatural_of_algebra factor by trial
    # division: eight primes and two semiprimes of two six-digit primes.
    big_sizes = [docs.random_prime(rng, 970_000_000_000, 1_000_000_000_000) for _ in range(8)]
    big_sizes += [
        docs.random_prime(rng, 970_000, 1_000_000) * docs.random_prime(rng, 970_000, 1_000_000)
        for _ in range(2)
    ]
    big = [docs.big_factor_doc(rng, f"big{i}", s) for i, s in enumerate(big_sizes)]

    # classify: fixtures, seeded documents, large factor sizes
    for name in sorted(F):
        for as_json in (True, False):
            add("classify", ["classify", name] + ["--json"] * as_json, _check_classify(F[name], as_json))
    for i, doc in enumerate(positive + vanishing + periodic + big):
        as_json = i % 2 == 0
        add("classify", ["classify", spec_arg(doc)] + ["--json"] * as_json, _check_classify(doc, as_json))

    # ktheory: positivity near the threshold, zero tests, flips
    for i, doc in enumerate(positive[:2]):
        stage = oracle.last_zero_index(doc) + rng.randint(0, 2)
        a, b = _element(rng, doc, stage, rng.randint(24, 40), i == 0, depth_for(doc, 40))
        add("ktheory", ["ktheory", spec_arg(doc), f"--element={a},{b}@{stage}", "--query", "positive", "--json"],
            _check_ktheory(doc, a, b, stage, "positive", True))
    stage = rng.randint(0, 3)
    a = rng.randint(1, 50)
    add("ktheory", ["ktheory", spec_arg(vanishing[0]), f"--element={a + 3},{-a}@{stage}", "--query", "positive"],
        _check_ktheory(vanishing[0], a + 3, -a, stage, "positive", False))
    add("ktheory", ["ktheory", "car3", f"--element={a},{-a}@1", "--query", "positive", "--json"],
        _check_ktheory(F["car3"], a, -a, 1, "positive", True))
    for doc, as_json in ((F["car1"], True), (periodic[0], False), (positive[2], True)):
        a = rng.randint(-20, 20)
        el = (a, -a if rng.random() < 0.7 else a + 1)
        stage = rng.randint(0, 3)
        add("ktheory", ["ktheory", spec_arg(doc), f"--element={el[0]},{el[1]}@{stage}", "--query", "equal-zero"]
            + ["--json"] * as_json, _check_ktheory(doc, el[0], el[1], stage, "equal-zero", as_json))
    for doc, as_json in ((F["car2"], True), (vanishing[1], False)):
        el = (rng.randint(-30, 30), rng.randint(-30, 30))
        stage = rng.randint(0, 3)
        add("ktheory", ["ktheory", spec_arg(doc), f"--element={el[0]},{el[1]}@{stage}", "--query", "flip"]
            + ["--json"] * as_json, _check_ktheory(doc, el[0], el[1], stage, "flip", as_json))

    # traces: extreme traces need a positive tail product
    for doc, which, as_json in (
        (F["car3"], "1", True), (F["car3"], "0", False), (positive[0], "0", True),
        (positive[1], "1", True), (F["car2"], "inv", False),
    ):
        stage = oracle.last_zero_index(doc) + rng.randint(10, 20)
        add("traces", ["traces", spec_arg(doc), "--stage", str(stage), "--extreme", which] + ["--json"] * as_json,
            _check_traces(doc, which, stage, as_json))

    # condense and bratteli, plus the two ranges whose exact sizes exceed
    # Python's 4300-digit int-to-string limit (they exit 2 today)
    for doc, lo, hi, as_json in (
        (F["car3"], 0, 4, True), (positive[2], 0, 3, False), (F["car3"], 0, rng.randint(36, 40), True),
    ):
        add("condense", ["condense", spec_arg(doc), "--range", f"{lo}..{hi}"] + ["--json"] * as_json,
            _check_condense(doc, lo, hi, as_json))
    add("condense", ["condense", "car2", "--range", "0..150"], _check_condense(F["car2"], 0, 150, False), True)
    for doc, stages, as_json in ((F["car2"], rng.randint(20, 24), False), (F["car3"], rng.randint(20, 24), True)):
        add("bratteli", ["bratteli", spec_arg(doc), "--stages", str(stages)] + ["--json"] * as_json,
            _check_bratteli(doc, stages, as_json))
    add("bratteli", ["bratteli", "car2", "--stages", "200"], _check_bratteli(F["car2"], 200, False), True)

    # torsion families
    for notor, as_json in ((False, False), (False, True), (True, True)):
        m = rng.randint(1, 12)
        rs = [rng.randint(1, 1000) for _ in range(rng.randint(2, 4))]
        add("torsion", ["torsion", "--m", str(m), "--r", ",".join(map(str, rs))]
            + ["--notor"] * notor + ["--json"] * as_json, _check_torsion(m, rs, notor, as_json))

    # cantor towers on small free G-sets
    for i, (kind, order, n, cover, as_json) in enumerate((
        ("cyclic", 4, 48, None, True), ("dihedral", 6, 60, 4, True), ("product", 8, 64, None, False),
    )):
        gdoc, orbits = docs.gset_doc(rng, kind, order, n)
        argv = ["cantor", write(f"gset{i}.json", gdoc)]
        if cover:
            argv += ["--cover", write(f"cover{i}.json", docs.block_cover(rng, gdoc, orbits, cover))]
        add("cantor", argv + ["--json"] * as_json, _check_cantor(gdoc, as_json))
    return ops


# ---------------------------------------------------------------------------
# deep-certify


def _check_tail(doc, m, cutoff):
    def check(result):
        if type(result).__name__ != "TailPositive":
            return f"tail product from {m} at cutoff {cutoff}: {type(result).__name__}"
        lo, hi = oracle.tail_enclosure(doc, m, cutoff + 16)
        if not oracle.intersects(oracle.pair(result.lower), oracle.pair(result.upper), lo, hi):
            return f"tail enclosure from {m} at cutoff {cutoff} misses the benchmark's enclosure"
        return None

    return check


def _check_report(doc, cutoff):
    exp = oracle.expected_verdicts(doc)

    def check(report):
        got = {k: getattr(report, k).decision for k in exp if k != "extreme_trace_count"}
        got["extreme_trace_count"] = report.extreme_trace_count
        if got != exp:
            return f"report verdicts {got} != closed-form rules {exp}"
        if report.crossed_product_supernatural is not None:
            return "supernatural number for a crossed product that is not UHF"
        w = report.tracial_rokhlin.witness
        return tracial_bracket_problem(doc, w["m"], w["lower"], w["upper"], cutoff)

    return check


def _check_positive(doc, a, b, stage):
    def check(verdict):
        return positive_problem(doc, a, b, stage, verdict.decision, verdict.witness)

    return check


def _check_extreme(doc, extreme, stage):
    def check(tv):
        if tv.stage != stage:
            return "trace vector stage"
        lo, hi = oracle.tail_enclosure(doc, stage, 80)
        plus = (oracle.half_plus(lo, 1), oracle.half_plus(hi, 1))
        minus = (oracle.half_plus(hi, -1), oracle.half_plus(lo, -1))
        want = (plus, minus) if extreme == 1 else (minus, plus)
        for w, got in zip(want, (tv.r, tv.s)):
            got_lo, got_hi = (got.lo, got.hi) if hasattr(got, "lo") else (got, got)
            if not oracle.intersects(oracle.pair(got_lo), oracle.pair(got_hi), *w):
                return f"extreme {extreme} at stage {stage} misses the benchmark's enclosure"
        return None

    return check


# Tail base B per spec slot; the first slot is car3.  Cutoffs and stages are
# scaled so that every slot costs about the same: the partial products carry
# about log2(B) * cutoff^2 / 2 bits, so the middle and largest cutoffs shrink
# like 1/sqrt(log2 B) and the trace stages like 1/log2 B.
DEEP_BASES = (2, 2, 3, 5, 10)
DEEP_BITS = (60, 120, 200, 300)


def deep_sizes(B: int) -> tuple[int, int, tuple[int, ...]]:
    """(middle cutoff, largest cutoff, trace stages) for tail base B."""
    mid, top = (max(128, round(c / math.sqrt(math.log2(B)) / 32) * 32) for c in (256, 512))
    stages = tuple(round(n / math.log2(B)) for n in (250, 500, 1000))
    return mid, top, stages


def build_deep_certify(af, seed: int, tmp: Path) -> list[Op]:
    rng = random.Random(f"deep-certify/{seed}")
    ops: list[Op] = []
    for slot, B in enumerate(DEEP_BASES):
        if slot == 0:
            doc = docs.FIXTURE_DOCS["car3"]
        else:
            sym = rng.randint(0, 1) if rng.random() < 0.5 else None
            doc = docs.positive_affine(rng, f"deep{slot}", B, docs.prefix(rng, rng.randint(1, 3), sym))
        spec = af.spec_from_json(doc)
        m0 = oracle.last_zero_index(doc)
        mid, top, stages = deep_sizes(B)
        for c in (128, top):
            ops.append(Op("report", lambda s=spec, c=c: af.classification_report(s, c), _check_report(doc, c)))
        for m, c in ((m0, 128), (m0, mid), (m0 + 2, mid), (m0, top)):
            ops.append(Op("tail", lambda s=spec, m=m, c=c: af.gap_product_tail(s, m, c), _check_tail(doc, m, c)))
        for i, bits in enumerate(DEEP_BITS):
            a, b = _element(rng, doc, m0, bits, (slot + i) % 2 == 0, depth_for(doc, bits))
            el = af.K0Element(m0, a, b)
            ops.append(Op("positive", lambda s=spec, el=el: af.is_positive(s, el, 64), _check_positive(doc, a, b, m0)))
        for i, stage in enumerate(stages):
            ops.append(Op("extreme", lambda s=spec, e=i % 2, n=stage: af.extreme_trace_vector(s, e, n, 64),
                          _check_extreme(doc, i % 2, stage)))
    return ops


# ---------------------------------------------------------------------------
# towers


def _tower_call(af, text: str, cover_text: str | None):
    def call():
        doc = json.loads(text)
        try:
            gs = af.cantor.gset_from_json(doc)
            if cover_text is None:
                cover = af.default_cover(gs)
            else:
                cover = af.cantor.cover_from_json(json.loads(cover_text), gs)
            tower = af.greedy_tower(gs, cover)
        except (af.InvalidGSet, af.NotFreeError) as exc:
            return ("rejected", exc)
        return ("tower", tower, af.verify_tower(gs, tower))

    return call


def _check_tower(gdoc, expect: str):
    def check(result):
        if expect == "free":
            if result[0] != "tower":
                return f"free G-set rejected: {result[1]}"
            _, tower, verified = result
            names = gdoc["elements"]
            problem = oracle.tower_problem(
                gdoc, [names[x] for x in tower.base], [[names[x] for x in t] for t in tower.translates]
            )
            return problem or (None if verified is True else "verify_tower refused a valid tower")
        if result[0] != "rejected":
            return f"{expect} document accepted"
        exc = result[1]
        if expect == "not-free":
            if type(exc).__name__ != "NotFreeError":
                return f"non-free document rejected with {type(exc).__name__}"
            g, x = exc.witness
            e = oracle.identity_of(gdoc["group"]["table"])
            return None if g != e and gdoc["action"][g][x] == x else f"witness ({g}, {x}) fixes nothing"
        if type(exc).__name__ != "InvalidGSet":
            return f"malformed document rejected with {type(exc).__name__}"
        msg = str(exc)
        claimed = next(
            (c for key, c in (("associative", "associativity"), ("compatible", "compatibility"),
                              ("identity", "identity"), ("permutation", "permutation")) if key in msg),
            "structure",
        )
        broken = oracle.broken_axiom(gdoc)
        return None if claimed in broken else f"rejection names {claimed}, document breaks {sorted(broken)}"

    return check


# (group kind, order, points, cover: None = singletons or the largest block
# size, expectation) per document.  The sizes are fixed and the seed only
# relabels, so a round costs the same for every seed.  Two large documents
# lead: one bound by validation (order 128), one by the greedy construction
# with singletons (4000 points).  Six documents of about equal cost, three of
# each regime, hold the 90th percentile; fourteen equal small documents hold
# the median; non-free and malformed documents close the round.
TOWER_SLOTS = (
    ("dihedral", 128, 256, None, "free"),
    ("cyclic", 2, 4000, None, "free"),
    ("product", 64, 256, None, "free"),
    ("cyclic", 64, 256, None, "free"),
    ("dihedral", 64, 256, None, "free"),
    ("cyclic", 2, 1500, None, "free"),
    ("cyclic", 3, 1500, None, "free"),
    ("product", 4, 1500, None, "free"),
    ("product", 4, 8000, 64, "free"),
    ("dihedral", 32, 1024, 16, "free"),
    ("dihedral", 12, 1200, 8, "free"),
    ("cyclic", 16, 800, None, "free"),
    ("dihedral", 8, 2000, 32, "free"),
    ("cyclic", 32, 256, None, "free"),
) + tuple((("cyclic", "dihedral", "product")[i % 3], 8, 240, None, "free") for i in range(14)) + (
    ("cyclic", 2, 40, None, "free"),
    ("cyclic", 3, 30, 4, "free"),
    ("dihedral", 6, 36, None, "free"),
    ("product", 6, 24, 3, "free"),
    ("cyclic", 5, 20, None, "free"),
    ("cyclic", 4, 200, None, "not-free"),
    ("dihedral", 6, 120, 4, "not-free"),
    ("cyclic", 9, 90, None, "not-free"),
    ("product", 8, 64, None, "associativity"),
    ("dihedral", 10, 100, None, "compatibility"),
    ("cyclic", 6, 60, None, "identity"),
    ("cyclic", 8, 80, None, "structure"),
)


def build_towers(af, seed: int, tmp: Path) -> list[Op]:
    rng = random.Random(f"towers/{seed}")
    ops: list[Op] = []
    for kind, order, n, cover, expect in TOWER_SLOTS:
        fixed = {"not-free": rng.choice(("point", "involution"))}.get(expect)
        gdoc, orbits = docs.gset_doc(rng, kind, order, n, fixed)
        cover_doc = None if cover is None else docs.block_cover(rng, gdoc, orbits, cover)
        if expect not in ("free", "not-free"):
            while True:
                bad = docs.malformed(rng, gdoc, expect)
                if expect in oracle.broken_axiom(bad):
                    break
            gdoc = bad
        ops.append(Op(
            "tower",
            _tower_call(af, json.dumps(gdoc), None if cover_doc is None else json.dumps(cover_doc)),
            _check_tower(gdoc, expect),
        ))
    return ops


WORKLOADS = {
    "cli-mix": build_cli_mix,
    "deep-certify": build_deep_certify,
    "towers": build_towers,
}
