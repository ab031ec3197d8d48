#!/usr/bin/env python3
"""Print one sha256 over the tool's JSON outputs for a fixed set of specs.

The specs are `tests/specgen.random_spec` for seeds 0-499 (named s<seed>),
each queried at cutoffs 1, 64 and 200 through the CLI:

* ``classify --json``;
* ``ktheory --query positive --json`` for four elements at stage m, the
  prefix length: (1, -1) and three classes whose thresholds u/|v| sit at
  -2**-40, 0 and +2**-40 from the exact gap product of factors m+1 .. m+24;
* ``traces --json`` for extreme 0 at stage m and extreme 1 at stages m and
  m + 2.

Each call contributes its argv, exit code, stdout and stderr, with the
``tool_version`` field masked.  Two checkouts whose digests agree produce
byte-identical outputs on every call.  The tracial Rokhlin yes/no/unknown
counts per cutoff are printed as well.

A second, ``positivity`` digest reaches the refinement of tail enclosures:
``ktheory --query positive --json`` for the same specs and cutoffs and two
elements at stage m whose thresholds sit at a factor 1 - 2**-80 and
1 + 2**-80 of the exact gap product of factors m+1 .. m+96, so both have a
positive total rank whenever that product is positive.  The witness kinds of
their ``positive`` verdicts are counted.

A third digest covers ``cantor``, over G-set documents from the
benchmark's generator (``perfbench/docs.py``) for seeds 0-299: ``--json``
for a free G-set with singletons and with a block cover, the text line for
the block cover, and the exit code and stderr for a non-free document, a
malformed one (one broken axiom, or up to three broken entries) and four
bad covers (colliding, insufficient, unknown name, not a list).  The exit
code counts are printed with it.

A fourth, ``traces`` digest covers the text line of ``traces`` (the
rendering of weights for display) for extremes 0, 1 and ``inv`` at stages m
and m + 2, for the specs and cutoffs of the first digest, with the exit code
counts.

A fifth, ``ranges`` digest covers the commands built on finite products of
factors, for the same specs at the default cutoff: ``condense`` (text and
``--json``) over ranges 0..m+3, m..m+5, 1..12, the empty range m+2..m+2 and
the reversed range m+3..m+1; ``bratteli`` (text and ``--json``) for m + 1 and
m + 6 stages; and ``ktheory --json`` with ``--query equal-zero`` and
``--query flip`` for four elements at stages 0, m, m + 1 and m + 2.  The
exit code counts are printed with it.  Run from anywhere:

    python3 scripts/output_digest.py

It imports the package from the ``src`` directory next to this script.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import re
import sys
import tempfile
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests"), str(ROOT / "perfbench")]

import docs  # noqa: E402
from afrokhlin import gap_product, spec_to_json  # noqa: E402
from afrokhlin.cli import main  # noqa: E402
from specgen import random_spec  # noqa: E402

SEEDS = range(500)
CUTOFFS = (1, 64, 200)
CANTOR_SEEDS = range(300)
_VERSION_RE = re.compile(r'"tool_version": "[^"]*"')


def run(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv)
    return rc, _VERSION_RE.sub('"tool_version": "*"', out.getvalue()), err.getvalue()


def hashed_run(digest, argv: list[str], tmp: str) -> tuple[int, str]:
    """Run argv and hash it with its exit code and outputs.  The temporary
    paths differ between runs, so only their names are hashed."""
    rc, out, err = run(argv)
    shown = [Path(a).name if a.startswith(tmp) else a for a in argv]
    digest.update("\n".join([" ".join(shown), str(rc), out, err, ""]).encode())
    return rc, out


def spec_files(tmp: str):
    """Yield (spec, path) for every seed, with the spec written to path."""
    for seed in SEEDS:
        spec = random_spec(random.Random(seed), f"s{seed}")
        path = Path(tmp) / f"s{seed}.json"
        path.write_text(json.dumps(spec_to_json(spec)), encoding="utf-8")
        yield spec, str(path)


def near_threshold(spec, depth: int, bits: int, deltas, relative: bool = False) -> list[str]:
    """Elements a,b@m, m the prefix length, with thresholds u/|v| at
    delta * 2**-bits from about P = gap_product(spec, m, m + depth), or, when
    relative, at about a factor 1 + delta * 2**-bits of P."""
    m = len(spec.prefix)
    near = gap_product(spec, m, m + depth)
    shift = bits
    if relative:
        # v is scaled to P so that centre keeps 2 * bits significant bits and
        # u stays positive whenever P is
        shift = 2 * bits + max(near.denominator.bit_length() - near.numerator.bit_length(), 0)
    v = 2 ** (shift + 1)
    centre = near.numerator * 2**shift // near.denominator
    step = max(centre >> bits, 1) if relative else 1
    els = []
    for delta in deltas:
        u = 2 * (centre + delta * step)
        els.append(((u + v) // 2, (u - v) // 2))
    return [f"{a},{b}@{m}" for a, b in els]


def elements(spec) -> list[str]:
    """The K0 elements queried for one spec, as a,b@stage."""
    return [f"1,-1@{len(spec.prefix)}", *near_threshold(spec, 24, 40, (-1, 0, 1))]


def main_digest() -> None:
    digest = hashlib.sha256()
    tracial: dict[int, Counter] = {c: Counter() for c in CUTOFFS}
    with tempfile.TemporaryDirectory() as tmp:
        for spec, path in spec_files(tmp):
            m = len(spec.prefix)
            for cutoff in CUTOFFS:
                common = [path, "--json", "--cutoff", str(cutoff)]
                calls = [["classify", *common]]
                calls += [
                    ["ktheory", *common, "--query", "positive", "--element", el]
                    for el in elements(spec)
                ]
                calls += [
                    ["traces", *common, "--extreme", e, "--stage", str(stage)]
                    for e, stage in (("0", m), ("1", m), ("1", m + 2))
                ]
                for argv in calls:
                    rc, out = hashed_run(digest, argv, tmp)
                    if argv[0] == "classify":
                        decision = json.loads(out)["classification"]["tracial_rokhlin"]
                        tracial[cutoff][decision["decision"]] += 1
    print(digest.hexdigest())
    for cutoff in CUTOFFS:
        counts = tracial[cutoff]
        print(
            f"cutoff {cutoff}: tracial yes/no/unknown = "
            f"{counts['yes']}/{counts['no']}/{counts['unknown']}"
        )


def positivity_digest() -> None:
    digest = hashlib.sha256()
    kinds: Counter = Counter()
    with tempfile.TemporaryDirectory() as tmp:
        for spec, path in spec_files(tmp):
            for cutoff in CUTOFFS:
                for el in near_threshold(spec, 96, 80, (-1, 1), relative=True):
                    argv = [
                        "ktheory", path, "--json", "--cutoff", str(cutoff),
                        "--query", "positive", "--element", el,
                    ]
                    rc, out = hashed_run(digest, argv, tmp)
                    kinds[json.loads(out)["ktheory"]["positive"]["witness"]["kind"]] += 1
    print(f"positivity {digest.hexdigest()}")
    print("positivity witness kinds: " + ", ".join(f"{k}: {kinds[k]}" for k in sorted(kinds)))


def traces_digest() -> None:
    digest = hashlib.sha256()
    codes: Counter = Counter()
    with tempfile.TemporaryDirectory() as tmp:
        for spec, path in spec_files(tmp):
            m = len(spec.prefix)
            for cutoff in CUTOFFS:
                for extreme in ("0", "1", "inv"):
                    for stage in (m, m + 2):
                        argv = [
                            "traces", path, "--cutoff", str(cutoff),
                            "--extreme", extreme, "--stage", str(stage),
                        ]
                        rc, _ = hashed_run(digest, argv, tmp)
                        codes[rc] += 1
    print(f"traces {digest.hexdigest()}")
    print("traces exit codes: " + ", ".join(f"{rc}: {codes[rc]}" for rc in sorted(codes)))


def ranges_digest() -> None:
    digest = hashlib.sha256()
    codes: Counter = Counter()
    with tempfile.TemporaryDirectory() as tmp:
        for spec, path in spec_files(tmp):
            m = len(spec.prefix)
            calls = [
                ["condense", path, "--range", f"{lo}..{hi}", *fmt]
                for lo, hi in ((0, m + 3), (m, m + 5), (1, 12), (m + 2, m + 2), (m + 3, m + 1))
                for fmt in ([], ["--json"])
            ]
            calls += [
                ["bratteli", path, "--stages", str(stages), *fmt]
                for stages in (m + 1, m + 6)
                for fmt in ([], ["--json"])
            ]
            # with "=", since argparse takes a bare "-2,2@0" for an option
            calls += [
                ["ktheory", path, "--json", "--query", query, f"--element={el}"]
                for el in ("-2,2@0", f"1,-1@{m}", f"3,-5@{m + 1}", f"4,4@{m + 2}")
                for query in ("equal-zero", "flip")
            ]
            for argv in calls:
                rc, _ = hashed_run(digest, argv, tmp)
                codes[rc] += 1
    print(f"ranges {digest.hexdigest()}")
    print("ranges exit codes: " + ", ".join(f"{rc}: {codes[rc]}" for rc in sorted(codes)))


def broken_entries(rng: random.Random, doc: dict) -> dict:
    """Up to three swapped, overwritten or out-of-range entries of the table
    or the action; for one document in four, the first is a repeated entry
    in the first action row of a non-identity element."""
    table = [row[:] for row in doc["group"]["table"]]
    action = [row[:] for row in doc["action"]]
    if rng.random() < 0.25:
        row = action[1 if table[0][0] == 0 else 0]
        row[rng.randrange(len(row))] = row[0] if row[0] != row[1] else row[1]
    for _ in range(rng.randint(0, 2)):
        row = rng.choice(table if rng.random() < 0.5 else action)
        i, j = rng.randrange(len(row)), rng.randrange(len(row))
        how = rng.random()
        if how < 0.4:
            row[i], row[j] = row[j], row[i]
        elif how < 0.8:
            row[i] = rng.randrange(len(row))
        else:
            row[i] = len(row)
    return {**doc, "group": {"order": len(table), "table": table}, "action": action}


def bad_covers(rng: random.Random, doc: dict, orbits, cover: list) -> list:
    names = doc["elements"]
    colliding = [b[:] for b in cover]
    colliding.insert(
        rng.randint(0, len(colliding)), [names[x] for x in rng.sample(rng.choice(orbits), 2)]
    )
    unknown = [b[:] for b in cover] + [["no-such-point"]]
    not_list = [b[:] for b in cover] + ["x0"]
    return [colliding, cover[:-1], unknown, not_list]


def cantor_digest() -> None:
    digest = hashlib.sha256()
    codes: Counter = Counter()
    with tempfile.TemporaryDirectory() as tmp:

        def write(name: str, obj) -> str:
            path = Path(tmp) / name
            path.write_text(json.dumps(obj), encoding="utf-8")
            return str(path)

        def call(argv: list[str]) -> None:
            rc, _ = hashed_run(digest, argv, tmp)
            codes[rc] += 1

        for seed in CANTOR_SEEDS:
            rng = random.Random(f"cantor/{seed}")
            kind = rng.choice(("cyclic", "dihedral", "product"))
            order = rng.choice((4, 6, 8, 12, 16)) if kind != "cyclic" else rng.randint(3, 16)
            n = order * rng.randint(2, 6)
            doc, orbits = docs.gset_doc(rng, kind, order, n)
            cover = docs.block_cover(rng, doc, orbits, 4)
            gset = write(f"free{seed}.json", doc)
            call(["cantor", gset, "--json"])
            call(["cantor", gset, "--cover", write(f"cover{seed}.json", cover), "--json"])
            call(["cantor", gset, "--cover", write(f"cover{seed}.json", cover)])
            for i, bad in enumerate(bad_covers(rng, doc, orbits, cover)):
                call(["cantor", gset, "--cover", write(f"bad{seed}-{i}.json", bad)])
            fixed = rng.choice(("point", "involution"))
            nonfree, _ = docs.gset_doc(rng, kind, order, n, fixed)
            call(["cantor", write(f"nonfree{seed}.json", nonfree)])
            how = rng.choice(("associativity", "compatibility", "identity", "structure", "entries"))
            if how == "entries":
                malformed = broken_entries(rng, doc)
            else:
                malformed = docs.malformed(rng, doc, how)
            call(["cantor", write(f"malformed{seed}.json", malformed), "--json"])
    print(f"cantor {digest.hexdigest()}")
    print("cantor exit codes: " + ", ".join(f"{rc}: {codes[rc]}" for rc in sorted(codes)))


if __name__ == "__main__":
    main_digest()
    positivity_digest()
    cantor_digest()
    traces_digest()
    ranges_digest()
