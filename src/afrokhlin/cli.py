"""Command line front end.

There is one output path.  Each ``cmd_*`` takes the parsed arguments and the
resolved spec (None for ``torsion`` and ``cantor``) and returns its JSON
document, its text and whether a verdict stayed unknown; it does no I/O.
``main`` resolves the cutoff and then the spec, runs the command, prints the
document under ``--json``, else the text unless ``--quiet``, and returns the
exit code.  Errors go to stderr as one line.

Exit codes: 0 decided, 2 input error, 3 a verdict stayed unknown at the
cutoff, 4 domain precondition failed (a non-free G-set, or an extreme-trace
query on an action with a unique tracial state), 141 (128 + SIGPIPE) stdout
closed by its reader, with nothing on stderr.  ``main`` never raises
``SystemExit``: on an argparse failure or ``--help`` it returns argparse's
code (2 or 0) after argparse has printed its message.

``main`` builds its parser on its first call and reuses it in the process, so
in-process callers pay for the argparse setup once; a one-shot shell call is
unchanged.  The parser holds nothing read per call: ``AFROKHLIN_CUTOFF`` is
read after parsing, and argparse reads ``COLUMNS`` when it prints help.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from itertools import islice
from pathlib import Path

from .actions import (
    ActionSpec,
    FactorRangeError,
    InvalidActionSpec,
    spec_from_json,
)
from .cantor import (
    NotFreeError,
    cover_from_json,
    default_cover,
    greedy_tower,
    gset_from_json,
    tower_to_json,
)
from .citations import cite
from .classify import UndecidedError, classification_report
from .fixtures import FIXTURE_NAMES, fixture
from .ktheory import (
    FgAbPresentation,
    K0Element,
    flip,
    is_equal,
    is_positive,
    is_totally_ordered,
    is_zero,
    torsion_family_k0,
)
from .products import DEFAULT_CUTOFF, condense
from .report import (
    classification_json,
    classification_text,
    element_json,
    envelope,
    jsonify,
    presentation_json,
    trace_vector_json,
    verdict_json,
    weight_str,
)
from .traces import UniqueTraceError, extreme_trace_vector, invariant_trace_vector

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_UNKNOWN = 3
EXIT_DOMAIN = 4
EXIT_PIPE = 141

Result = tuple[dict, str, bool]  # document, text, a verdict stayed unknown


def _default_cutoff() -> int:
    env = os.environ.get("AFROKHLIN_CUTOFF")
    if env is None:
        return DEFAULT_CUTOFF
    try:
        value = int(env)
    except ValueError:
        raise InvalidActionSpec(f"AFROKHLIN_CUTOFF must be an integer, got {env!r}")
    if value < 1:
        raise InvalidActionSpec("AFROKHLIN_CUTOFF must be positive")
    return value


def _load_json(path) -> object:
    """The JSON document in the file at path.  A document nested too deeply
    for the parser's recursion is an input error (ValueError), not a
    RecursionError."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except RecursionError:
            raise ValueError(f"JSON document {str(path)!r} is nested too deeply") from None


def resolve_spec(arg: str) -> ActionSpec:
    if arg in FIXTURE_NAMES:
        return fixture(arg)
    path = Path(arg)
    if not path.exists():
        raise InvalidActionSpec(
            f"{arg!r} is neither a built-in fixture ({', '.join(FIXTURE_NAMES)}) "
            "nor an existing spec file"
        )
    return spec_from_json(_load_json(path))


_ELEMENT_RE = re.compile(r"^(-?\d+),(-?\d+)@(\d+)$")


def parse_element(text: str) -> K0Element:
    m = _ELEMENT_RE.match(text.strip())
    if not m:
        raise InvalidActionSpec(
            f"malformed element {text!r}; expected 'a,b@stage' like '1,-1@1'"
        )
    return K0Element(stage=int(m.group(3)), a=int(m.group(1)), b=int(m.group(2)))


def cmd_classify(args, spec: ActionSpec) -> Result:
    report = classification_report(spec, args.cutoff)
    return classification_json(report), classification_text(report), report.has_unknown


def cmd_ktheory(args, spec: ActionSpec) -> Result:
    el = parse_element(args.element)
    doc = envelope("ktheory", spec, args.cutoff)
    section: dict = {"element": element_json(el), "query": args.query}
    lines = [f"element ({el.a}, {el.b}) at stage {el.stage} on {spec.name!r}"]
    unknown = False
    if args.query == "positive":
        pos = is_positive(spec, el, args.cutoff)
        neg = is_positive(spec, -el, args.cutoff)
        section["positive"] = verdict_json(pos)
        section["negative_positive"] = verdict_json(neg)
        lines.append(f"- positive: {pos.decision}")
        lines.append(f"- negative of it positive: {neg.decision}")
        unknown = pos.is_unknown or neg.is_unknown
    elif args.query == "equal-zero":
        zero = is_zero(spec, el)
        section["equal_zero"] = zero
        lines.append(f"- equals the zero class: {'yes' if zero else 'no'}")
    else:  # flip
        flipped = flip(el)
        section["flipped"] = element_json(flipped)
        section["equal_to_input"] = is_equal(spec, flipped, el)
        section["equal_to_negation"] = is_equal(spec, flipped, -el)
        lines.append(f"- dual flip: ({flipped.a}, {flipped.b}) at stage {flipped.stage}")
        lines.append(f"- flip equals input: {'yes' if section['equal_to_input'] else 'no'}")
        lines.append(
            f"- flip equals negation: {'yes' if section['equal_to_negation'] else 'no'}"
        )
    total = is_totally_ordered(spec)
    section["totally_ordered"] = verdict_json(total)
    lines.append(f"- K0 of the crossed product totally ordered: {total.decision}")
    doc["ktheory"] = section
    return doc, "\n".join(lines), unknown or total.is_unknown


def cmd_traces(args, spec: ActionSpec) -> Result:
    if args.extreme == "inv":
        tv = invariant_trace_vector(spec, args.stage)
        which = "invariant"
    else:
        tv = extreme_trace_vector(spec, int(args.extreme), args.stage, args.cutoff)
        which = f"extreme{args.extreme}"
    doc = envelope("traces", spec, args.cutoff)
    vector = trace_vector_json(tv)
    doc["traces"] = {"which": which, "vector": vector}
    text = (
        f"{which} trace weights of {spec.name!r} at stage {tv.stage}: "
        f"r = {weight_str(vector['r'])}, s = {weight_str(vector['s'])}"
    )
    return doc, text, False


_RANGE_RE = re.compile(r"^(\d+)\.\.(\d+)$")


def cmd_condense(args, spec: ActionSpec) -> Result:
    m = _RANGE_RE.match(args.range.strip())
    if not m:
        raise InvalidActionSpec(f"malformed range {args.range!r}; expected 'm..n'")
    lo, hi = int(m.group(1)), int(m.group(2))
    pair = condense(spec, lo, hi)
    # the gap ratio of the condensed pair is the gap product of the range
    gap = jsonify(pair.gap)
    doc = envelope("condense", spec, None)
    doc["condense"] = {
        "range": [lo, hi],
        "pair": [pair.p, pair.q],
        "size": pair.size,
        "gap": gap,
        "gap_product_check": gap,
        "citations": list(cite("condensation")),
    }
    text = (
        f"factors {lo + 1}..{hi} of {spec.name!r} condense to ({pair.p}, {pair.q}) "
        f"in M_{pair.size} with gap ratio {pair.gap}"
    )
    return doc, text, False


def bratteli_dot(spec: ActionSpec, stages: int) -> str:
    nodes, edges = [], []
    t = 1
    for n, (diff, size) in enumerate(islice(spec.factor_stream(0), stages), 1):
        t *= size
        label = str(t)  # decimal conversion is quadratic in the digits: once per stage
        nodes.append(f'  L{n} [label="{label}"];')
        nodes.append(f'  R{n} [label="{label}"];')
        if n > 1:
            p, q = (size + diff) // 2, (size - diff) // 2
            edges.append(f'  L{n - 1} -> L{n} [label="{p}"];')
            edges.append(f'  R{n - 1} -> R{n} [label="{p}"];')
            edges.append(f'  L{n - 1} -> R{n} [label="{q}"];')
            edges.append(f'  R{n - 1} -> L{n} [label="{q}"];')
    return "\n".join(["digraph bratteli {", "  rankdir=TB;", *nodes, *edges, "}"])


def cmd_bratteli(args, spec: ActionSpec) -> Result:
    if args.stages < 1:
        raise InvalidActionSpec("--stages must be >= 1")
    spec.factor(args.stages)  # raises early for finite actions that are too short
    dot = bratteli_dot(spec, args.stages)
    doc = envelope("bratteli", spec, None)
    doc["bratteli"] = {"stages": args.stages, "format": "dot", "dot": dot}
    return doc, dot, False


def _parse_r_sequence(text: str) -> tuple[int, ...]:
    try:
        values = tuple(int(part) for part in text.split(",") if part.strip())
    except ValueError:
        raise InvalidActionSpec(f"malformed r-sequence {text!r}; expected 'r1,r2,...'")
    if not values:
        raise InvalidActionSpec("r-sequence must be nonempty")
    if any(r < 1 for r in values):
        raise InvalidActionSpec("every r must be >= 1")
    return values


def cmd_torsion(args, spec: ActionSpec | None) -> Result:
    if args.m < 1:
        raise InvalidActionSpec("--m must be >= 1")
    rs = _parse_r_sequence(args.r)
    doc = envelope("torsion", None, None)
    if args.notor:
        # K1 stage maps are isomorphisms of Z; K0 stages are copies of Z^2,
        # so the colimit is torsion-free whatever the stage maps are.
        k1 = FgAbPresentation(1)
        doc["torsion_family"] = {
            "variant": "torsion_free",
            "m": args.m,
            "r": list(rs),
            "k1": presentation_json(k1),
            "k0": {
                "torsion_free": True,
                "stage_groups": "Z^2",
                "citations": list(cite("torsion-free-family")),
            },
            "citations": list(cite("torsion-free-family")),
        }
        text = (
            f"torsion-free family (m={args.m}, r={list(rs)}): "
            f"K1 = {k1}, K0 torsion-free (colimit of Z^2 stages)"
        )
    else:
        k0 = torsion_family_k0(args.m, rs)
        doc["torsion_family"] = {
            "variant": "torsion",
            "m": args.m,
            "r": list(rs),
            "k0": presentation_json(k0),
            "k0_torsion_subgroup": str(FgAbPresentation(0, k0.torsion)),
            "k1": {"value": "0", "citations": list(cite("torsion-family-k0"))},
            "citations": list(cite("torsion-family-k0")),
        }
        text = (
            f"torsion family (m={args.m}, r={list(rs)}): K0 = {k0}, "
            f"torsion subgroup Z/{2**args.m}, K1 = 0"
        )
    return doc, text, False


def cmd_cantor(args, spec: ActionSpec | None) -> Result:
    gs = gset_from_json(_load_json(args.gset))
    if args.cover:
        cover = cover_from_json(_load_json(args.cover), gs)
    else:
        cover = default_cover(gs)
    tower = greedy_tower(gs, cover)
    doc = envelope("cantor", None, None)
    doc["cantor"] = {
        "elements": list(gs.elements),
        "group_order": gs.order,
        "tower": tower_to_json(gs, tower),
        "citations": list(cite("cantor-tower")),
    }
    base = ", ".join(sorted(gs.elements[x] for x in tower.base))
    text = f"tower base of size {len(tower.base)}: {{{base}}}"
    return doc, text, False


def build_parser() -> argparse.ArgumentParser:
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument(
        "--cutoff",
        type=int,
        default=None,
        help=f"tail certification depth (default {DEFAULT_CUTOFF}, env AFROKHLIN_CUTOFF)",
    )
    shared.add_argument("--json", action="store_true", help="emit a JSON report")
    shared.add_argument("--quiet", action="store_true", help="suppress text output")

    parser = argparse.ArgumentParser(
        prog="afrokhlin",
        description=(
            "classify product-type order-two symmetries of infinite matrix tensor "
            "products, compute crossed-product K-theory and traces, and build "
            "Rokhlin towers for free finite group actions"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", parents=[shared], help="full verdict sheet")
    p.add_argument("spec", help="fixture name or spec JSON file")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("ktheory", parents=[shared], help="K0 element queries")
    p.add_argument("spec")
    p.add_argument("--element", required=True, help="a,b@stage, e.g. 1,-1@1")
    p.add_argument(
        "--query", required=True, choices=("positive", "equal-zero", "flip")
    )
    p.set_defaults(func=cmd_ktheory)

    p = sub.add_parser("traces", parents=[shared], help="trace simplex weights")
    p.add_argument("spec")
    p.add_argument("--stage", type=int, required=True)
    p.add_argument("--extreme", required=True, choices=("0", "1", "inv"))
    p.set_defaults(func=cmd_traces)

    p = sub.add_parser("condense", parents=[shared], help="collapse a factor block")
    p.add_argument("spec")
    p.add_argument("--range", required=True, help="m..n collapses factors m+1..n")
    p.set_defaults(func=cmd_condense)

    p = sub.add_parser("bratteli", parents=[shared], help="stage diagram as DOT")
    p.add_argument("spec")
    p.add_argument("--stages", type=int, required=True)
    p.add_argument("--format", default="dot", choices=("dot",))
    p.set_defaults(func=cmd_bratteli)

    p = sub.add_parser(
        "torsion", parents=[shared], help="K-theory of the torsion example family"
    )
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--r", required=True, help="comma-separated positive integers")
    p.add_argument(
        "--notor",
        action="store_true",
        help="use the torsion-free variant (K1 = Z, torsion-free K0)",
    )
    p.set_defaults(func=cmd_torsion)

    p = sub.add_parser("cantor", parents=[shared], help="Rokhlin tower for a G-set")
    p.add_argument("gset", help="G-set JSON file")
    p.add_argument("--cover", default=None, help="cover JSON file (default: singletons)")
    p.set_defaults(func=cmd_cantor)
    return parser


def _joined_elements(argv: list[str]) -> list[str]:
    """argparse reads a negative element such as ``-1,1@1`` as an option, so
    under ``ktheory`` ``--element -1,1@1``, or any abbreviation argparse
    accepts (down to ``--e``), is passed on as ``--element=-1,1@1``.  Only
    ``ktheory`` has ``--element``; in ``traces``, ``--e`` is ``--extreme``."""
    if argv[:1] != ["ktheory"]:
        return argv
    for i in range(len(argv) - 2, 0, -1):
        flag, value = argv[i], argv[i + 1]
        if flag.startswith("--e") and "--element".startswith(flag) and re.match(r"-\d", value):
            argv[i : i + 2] = [f"--element={value}"]
    return argv


_parser: argparse.ArgumentParser | None = None  # filled by main's first call


def main(argv=None) -> int:
    global _parser
    if _parser is None:
        _parser = build_parser()
    try:
        args = _parser.parse_args(_joined_elements(list(sys.argv[1:] if argv is None else argv)))
        if args.cutoff is None:
            args.cutoff = _default_cutoff()
        elif args.cutoff < 1:
            raise InvalidActionSpec("--cutoff must be positive")
        spec = resolve_spec(args.spec) if "spec" in args else None
        doc, text, unknown = args.func(args, spec)
        if args.json:
            print(json.dumps(doc, indent=2))
        elif not args.quiet:
            print(text)
        sys.stdout.flush()
        return EXIT_UNKNOWN if unknown else EXIT_OK
    except SystemExit as exc:  # argparse has printed its usage, error or help
        return exc.code
    except BrokenPipeError:
        # the reader is gone: point stdout at devnull so that the flush at exit
        # stays quiet too
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_PIPE
    except NotFreeError as exc:
        g, x = exc.witness
        print(f"error: {exc} (witness g={g}, x={x})", file=sys.stderr)
        return EXIT_DOMAIN
    except UniqueTraceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except json.JSONDecodeError as exc:
        print(
            f"error: invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}",
            file=sys.stderr,
        )
        return EXIT_INPUT
    except UndecidedError as exc:
        print(f"undecided: {exc}", file=sys.stderr)
        return EXIT_UNKNOWN
    except (
        FactorRangeError,
        OSError,
        ValueError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


def entry() -> None:
    sys.exit(main())
