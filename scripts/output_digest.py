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
exit code counts are printed with it.

A sixth, ``frontend`` digest covers what the others leave out:
``torsion`` (text and ``--json``, with and without ``--notor``) for m = 1..6
and 20 seeded r-sequences; ``classify`` and ``ktheory`` (the three queries)
as text for the same specs; every subcommand under ``--quiet``; and input
errors: a missing spec file, invalid JSON, a schema error, a finite spec
given to ``classify``, malformed elements, ranges and r-sequences,
``--stages 0``, ``--m 0``, ``--cutoff 0``, bad ``AFROKHLIN_CUTOFF`` values and
argparse failures (missing arguments, bad choices, unknown flags, ``--help``).
Argparse wraps its messages at ``COLUMNS``, which is fixed to 80 here.  The
exit code counts are printed with it.

A seventh, ``cantor_large`` digest covers ``cantor --json`` on G-sets of
200-1,200 points from the same generator, for seeds 0-39, where the action
rows index more than 256 points: a free document, a non-free one and a
malformed one (as for the ``cantor`` digest), each with singletons and with
a block cover.  The exit code counts are printed with it.

The seven digests are recorded in ``output_digests.json`` next to this script.
The script compares what it computed against that file and exits 1, naming
each digest that differs, so an intended output change is an edit to that
file.  Run from anywhere:

    python3 scripts/output_digest.py

``digests()`` returns the seven computed digests by name;
``tests/test_output_digest.py`` compares them with that file in-process.

It imports the package from the ``src`` directory next to this script.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import re
import sys
import tempfile
from collections import Counter
from pathlib import Path
from unittest import mock

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests"), str(ROOT / "perfbench")]

import docs  # noqa: E402
from afrokhlin import gap_product, spec_to_json  # noqa: E402
from afrokhlin.cli import main  # noqa: E402
from specgen import random_spec  # noqa: E402

SEEDS = range(500)
CUTOFFS = (1, 64, 200)
CANTOR_SEEDS = range(300)
CANTOR_LARGE_SEEDS = range(40)
TORSION_SEEDS = range(20)
RECORDED = Path(__file__).resolve().with_name("output_digests.json")
_VERSION_RE = re.compile(r'"tool_version": "[^"]*"')


def run(argv: list[str], env: dict | None = None) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    environ = mock.patch.dict(os.environ, env) if env else contextlib.nullcontext()
    with environ, contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = main(argv)
        except SystemExit as exc:  # argparse rejects the arguments
            rc = exc.code if isinstance(exc.code, int) else 1
    return rc, _VERSION_RE.sub('"tool_version": "*"', out.getvalue()), err.getvalue()


def hashed_run(digest, argv: list[str], tmp: str, env: dict | None = None) -> tuple[int, str]:
    """Run argv, under env when given, and hash it with its exit code and
    outputs.  The temporary paths differ between runs, so only their names
    are hashed."""
    rc, out, err = run(argv, env)
    shown = [f"{k}={v}" for k, v in (env or {}).items()]
    shown += [Path(a).name if a.startswith(tmp) else a for a in argv]
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


def main_digest() -> str:
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
    return digest.hexdigest()


def positivity_digest() -> str:
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
    return digest.hexdigest()


def traces_digest() -> str:
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
    return digest.hexdigest()


def ranges_digest() -> str:
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
            # with "=", the form of a negative element that every version of
            # the CLI accepts
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
    return digest.hexdigest()


def frontend_digest() -> str:
    digest = hashlib.sha256()
    codes: Counter = Counter()
    with tempfile.TemporaryDirectory() as tmp:

        def call(argv: list[str], env: dict | None = None) -> None:
            rc, _ = hashed_run(digest, argv, tmp, env)
            codes[rc] += 1

        for seed in TORSION_SEEDS:
            rng = random.Random(f"torsion/{seed}")
            # at most six r <= 1000, so the product of the 2r + 1 stays small
            # enough to factor at once
            rs = ",".join(str(rng.randint(1, 1000)) for _ in range(rng.randint(1, 6)))
            for m in range(1, 7):
                for variant in ([], ["--notor"]):
                    for fmt in ([], ["--json"]):
                        call(["torsion", "--m", str(m), "--r", rs, *variant, *fmt])
        call(["torsion", "--m", "2", "--r", "1,2", "--quiet"])

        for spec, path in spec_files(tmp):
            m = len(spec.prefix)
            call(["classify", path])
            call(["classify", path, "--cutoff", "1"])
            for query in ("positive", "equal-zero", "flip"):
                for el in (f"1,-1@{m}", f"3,-5@{m + 1}"):
                    call(["ktheory", path, "--query", query, "--element", el])
            quiet = [path, "--quiet", "--cutoff", "1"]
            call(["classify", *quiet])
            call(["ktheory", *quiet, "--query", "positive", "--element", f"1,-1@{m}"])
            call(["traces", *quiet, "--extreme", "1", "--stage", str(m)])
            call(["condense", *quiet, "--range", f"0..{m + 3}"])
            call(["bratteli", *quiet, "--stages", str(m + 1)])

        gset, _ = docs.gset_doc(random.Random("frontend"), "cyclic", 4, 12)
        gset_path = Path(tmp) / "gset.json"
        gset_path.write_text(json.dumps(gset), encoding="utf-8")
        call(["cantor", str(gset_path), "--quiet"])

        finite = Path(tmp) / "finite.json"
        finite.write_text(
            json.dumps({"name": "fin", "prefix": [[1, 0]], "tail": {"kind": "none"}})
        )
        schema = Path(tmp) / "schema.json"
        schema.write_text(json.dumps({"name": "x", "prefix": [[1]], "tail": {"kind": "none"}}))
        # a relative path, since the messages name it
        missing = "no/such/file.json"
        broken = ("{ not json }", "", '{"name": "x", "prefix": [[1, 2]', "[1, 2,]")
        for i, text in enumerate(broken):
            bad = Path(tmp) / f"bad{i}.json"
            bad.write_text(text, encoding="utf-8")
            call(["classify", str(bad)])
            call(["cantor", str(bad)])
        for spec_arg in ("car1", "car3", str(finite), str(schema), missing, "nosuchfixture"):
            call(["classify", spec_arg])
            call(["condense", spec_arg, "--range", "0..2"])
            call(["bratteli", spec_arg, "--stages", "3"])
        for el in ("zz", "1,2", "1,2@", "1,2@-1", "1;2@0", "1,2@0x", "+1,2@0"):
            call(["ktheory", "car3", "--query", "flip", f"--element={el}"])
        for rng_text in ("1..", "a..b", "3-5", "..4", "-1..2", "1...3"):
            call(["condense", "car2", f"--range={rng_text}"])
        for r in ("", ",", "1,x", "0,2", "-1", "1.5", "1,,2"):
            call(["torsion", "--m", "2", f"--r={r}"])
        call(["torsion", "--m", "0", "--r", "1"])
        call(["bratteli", "car2", "--stages", "0"])
        call(["bratteli", "car2", "--stages", "-3"])
        call(["bratteli", str(finite), "--stages", "2"])
        for cutoff in ("0", "-5"):
            call(["classify", "car3", "--cutoff", cutoff])
        for value in ("abc", "0", "-3", "", "1.5"):
            call(["classify", "car3"], {"AFROKHLIN_CUTOFF": value})
        call(["traces", "car3", "--stage", "1", "--extreme", "1"], {"AFROKHLIN_CUTOFF": "8"})
        call(["cantor", missing])
        call(["cantor", str(gset_path), "--cover", missing])
        for argv in (
            [],
            ["nosuchcommand"],
            ["classify"],
            ["classify", "car1", "--bogus"],
            ["classify", "car1", "--cutoff", "x"],
            ["ktheory", "car3", "--element", "1,1@1"],
            ["ktheory", "car3", "--query", "flip"],
            ["ktheory", "car3", "--element", "1,1@1", "--query", "nope"],
            ["ktheory", "car3", "--element", "--query", "flip"],
            ["traces", "car2", "--stage", "1", "--extreme", "2"],
            ["traces", "car2", "--stage", "x", "--extreme", "0"],
            ["condense", "car2"],
            ["bratteli", "car2", "--stages", "2", "--format", "svg"],
            ["torsion", "--r", "1"],
            ["torsion", "--m", "x", "--r", "1"],
            ["cantor"],
            ["--help"],
            ["classify", "--help"],
            ["torsion", "-h"],
        ):
            call(argv, {"COLUMNS": "80"})
    print(f"frontend {digest.hexdigest()}")
    print("frontend exit codes: " + ", ".join(f"{rc}: {codes[rc]}" for rc in sorted(codes)))
    return digest.hexdigest()


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


def cantor_digest() -> str:
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
    return digest.hexdigest()


def cantor_large_digest() -> str:
    digest = hashlib.sha256()
    codes: Counter = Counter()
    with tempfile.TemporaryDirectory() as tmp:

        def write(name: str, obj) -> str:
            path = Path(tmp) / name
            path.write_text(json.dumps(obj), encoding="utf-8")
            return str(path)

        for seed in CANTOR_LARGE_SEEDS:
            rng = random.Random(f"cantor_large/{seed}")
            kind = rng.choice(("cyclic", "dihedral", "product"))
            order = rng.choice((4, 6, 8, 12, 16)) if kind != "cyclic" else rng.randint(2, 16)
            # one document in four sits next to 256 points
            target = 256 if rng.random() < 0.25 else rng.randint(200, 1200)
            n = order * max(round(target / order), -(-200 // order))
            doc, orbits = docs.gset_doc(rng, kind, order, n)
            cover = write(f"cover{seed}.json", docs.block_cover(rng, doc, orbits, 4))
            fixed = rng.choice(("point", "involution"))
            nonfree, _ = docs.gset_doc(rng, kind, order, n, fixed)
            how = rng.choice(("associativity", "compatibility", "identity", "structure", "entries"))
            if how == "entries":
                malformed = broken_entries(rng, doc)
            else:
                malformed = docs.malformed(rng, doc, how)
            for name, gset in (("free", doc), ("nonfree", nonfree), ("malformed", malformed)):
                path = write(f"{name}{seed}.json", gset)
                for argv in (["cantor", path, "--json"], ["cantor", path, "--cover", cover, "--json"]):
                    rc, _ = hashed_run(digest, argv, tmp)
                    codes[rc] += 1
    print(f"cantor_large {digest.hexdigest()}")
    print("cantor_large exit codes: " + ", ".join(f"{rc}: {codes[rc]}" for rc in sorted(codes)))
    return digest.hexdigest()


def digests() -> dict[str, str]:
    """The seven digests by name, each printed with its counts as it is computed."""
    return {
        "main": main_digest(),
        "positivity": positivity_digest(),
        "cantor": cantor_digest(),
        "cantor_large": cantor_large_digest(),
        "traces": traces_digest(),
        "ranges": ranges_digest(),
        "frontend": frontend_digest(),
    }


if __name__ == "__main__":
    computed = digests()
    recorded = json.loads(RECORDED.read_text(encoding="utf-8"))
    differ = [name for name, value in computed.items() if recorded.get(name) != value]
    for name in differ:
        print(
            f"{name} differs from {RECORDED.name}: recorded {recorded.get(name)}, "
            f"computed {computed[name]}",
            file=sys.stderr,
        )
    sys.exit(1 if differ else 0)
