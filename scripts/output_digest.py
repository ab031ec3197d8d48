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
counts per cutoff are printed as well.  Run from anywhere:

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
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from afrokhlin import gap_product, spec_to_json  # noqa: E402
from afrokhlin.cli import main  # noqa: E402
from specgen import random_spec  # noqa: E402

SEEDS = range(500)
CUTOFFS = (1, 64, 200)
_VERSION_RE = re.compile(r'"tool_version": "[^"]*"')


def run(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv)
    return rc, _VERSION_RE.sub('"tool_version": "*"', out.getvalue()), err.getvalue()


def elements(spec) -> list[str]:
    """The K0 elements queried for one spec, as a,b@stage."""
    m = len(spec.prefix)
    near = gap_product(spec, m, m + 24)
    v = 2**41
    centre = near.numerator * 2**40 // near.denominator
    els = [(1, -1)]
    for delta in (-1, 0, 1):
        u = 2 * (centre + delta)
        els.append(((u + v) // 2, (u - v) // 2))
    return [f"{a},{b}@{m}" for a, b in els]


def main_digest() -> None:
    digest = hashlib.sha256()
    tracial: dict[int, Counter] = {c: Counter() for c in CUTOFFS}
    with tempfile.TemporaryDirectory() as tmp:
        for seed in SEEDS:
            spec = random_spec(random.Random(seed), f"s{seed}")
            path = Path(tmp) / f"s{seed}.json"
            path.write_text(json.dumps(spec_to_json(spec)), encoding="utf-8")
            m = len(spec.prefix)
            for cutoff in CUTOFFS:
                common = [str(path), "--json", "--cutoff", str(cutoff)]
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
                    rc, out, err = run(argv)
                    if argv[0] == "classify":
                        decision = json.loads(out)["classification"]["tracial_rokhlin"]
                        tracial[cutoff][decision["decision"]] += 1
                    # the temporary path differs between runs; hash its name only
                    shown = [path.name if a == str(path) else a for a in argv]
                    digest.update(
                        "\n".join([" ".join(shown), str(rc), out, err, ""]).encode()
                    )
    print(digest.hexdigest())
    for cutoff in CUTOFFS:
        counts = tracial[cutoff]
        print(
            f"cutoff {cutoff}: tracial yes/no/unknown = "
            f"{counts['yes']}/{counts['no']}/{counts['unknown']}"
        )


if __name__ == "__main__":
    main_digest()
