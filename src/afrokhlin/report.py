"""Report assembly: JSON documents and bullet-list text for the CLI.

The JSON schema is versioned and every document is built from deterministic
dict construction, so serialized reports are byte-stable across runs (only
the tool_version field varies between releases).
"""

from __future__ import annotations

from fractions import Fraction

from . import __version__
from .actions import ActionSpec, SupernaturalNumber, spec_to_json
from .citations import CITATIONS
from .classify import ALWAYS_TRUE_FACTS, ClassificationReport, Verdict
from .intervals import RatInterval, round_down, round_up
from .ktheory import FgAbPresentation, K0Element
from .traces import TraceVector

SCHEMA_VERSION = "1"


def decimal_str(fr: Fraction) -> str:
    """Exact decimal rendering when the denominator allows one, else p/q."""
    num, den = fr.numerator, fr.denominator
    twos = (den & -den).bit_length() - 1
    d = den >> twos
    # d = 5^f has bits(d) - 1 = floor(f*log2(5)), so f = ceil((bits(d) - 1) / 2.3219281)
    # exactly below about 10^8 bits (2.3219281 - log2(5) < 10^-8); 5^f is formed only if 5 | d
    fives = -(-(d.bit_length() - 1) * 10**7 // 23219281)
    if (d > 1 and d % 5) or 5**fives != d:
        return str(fr)
    k = max(twos, fives)
    scaled = abs(num) * 10**k // den
    sign = "-" if num < 0 else ""
    whole, part = divmod(scaled, 10**k)
    if k == 0 or part == 0:
        return f"{sign}{whole}"
    return f"{sign}{whole}." + str(part).rjust(k, "0").rstrip("0")


def jsonify(value):
    """Recursively convert report values into stable JSON-ready primitives.

    Rationals render as exact decimal strings when one exists (p/q otherwise), so
    parsing the string back as a Fraction loses nothing (past Python's 4,300-digit
    default limit, as deep `traces` ends are, only with that limit lifted)."""
    if isinstance(value, Fraction):
        return decimal_str(value)
    if isinstance(value, SupernaturalNumber):
        return value.to_json()
    if isinstance(value, dict):
        return {str(k): jsonify(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [jsonify(v) for v in value]
    return value


def verdict_json(v: Verdict) -> dict:
    return {
        "decision": v.decision,
        "witness": jsonify(v.witness),
        "citations": list(v.citations),
    }


def envelope(command: str, spec: ActionSpec | None, cutoff: int | None) -> dict:
    doc: dict = {
        "schema_version": SCHEMA_VERSION,
        "tool_version": __version__,
        "command": command,
    }
    if cutoff is not None:
        doc["cutoff"] = cutoff
    if spec is not None:
        doc["spec"] = spec_to_json(spec)
    return doc


def classification_json(report: ClassificationReport) -> dict:
    doc = envelope("classify", report.spec, report.cutoff)
    sheet = report.verdicts()
    doc["classification"] = {
        **{name: verdict_json(v) for name, v in sheet.items()},
        "crossed_product_supernatural": jsonify(report.crossed_product_supernatural),
        "extreme_trace_count": report.extreme_trace_count,
        "always_true_facts": {
            name: {"value": True, "citations": list(anchors)}
            for name, anchors in ALWAYS_TRUE_FACTS.items()
        },
        "dual_facts": {
            name: {"decision": decision, "citations": list(anchors)}
            for name, (decision, anchors) in report.dual_facts().items()
        },
    }
    used = [key for v in sheet.values() for key in v.citations]
    for anchors in ALWAYS_TRUE_FACTS.values():
        used.extend(anchors)
    for _, anchors in report.dual_facts().values():
        used.extend(anchors)
    doc["citation_texts"] = citations_appendix(used)
    return doc


def _witness_hint(v: Verdict) -> str:
    w = v.witness
    kind = w.get("kind", "")
    if kind == "recurring_symmetric_factor":
        return f"factor {w['pair']} recurs at period position {w['period_position']}"
    if kind == "identically_symmetric_tail":
        return f"every tail factor from index {w['first_index']} is rank-symmetric"
    if kind == "finitely_many_symmetric_factors":
        return f"no rank-symmetric factor beyond index {w['none_beyond']}"
    if kind == "vanishing_tail_products":
        if "tail_gap_max" in w:
            return f"tail gap ratios <= {decimal_str(w['tail_gap_max'])} stay below 1"
        if "tail_gap_limit" in w:
            return f"gap ratios converge to {w['tail_gap_limit']} < 1"
        if "recurring_zero_gap_index" in w:
            return f"gap ratio 0 recurs (first at index {w['recurring_zero_gap_index']})"
        return "sum of (1 - gap) diverges"
    if kind == "positive_tail_product":
        return (
            f"tail product from stage {w['m']} lies in "
            f"[{decimal_str(w['lower'])}, {decimal_str(w['upper'])}]"
        )
    if kind == "recurring_nonzero_smaller_rank":
        return "factors with nonzero smaller rank recur"
    if kind == "inner_beyond":
        return f"all factors beyond index {w['index']} have zero smaller rank"
    # cutoff_exhausted: the one undecided kind a report's verdicts carry
    return f"cutoff {w['cutoff']} exhausted"


_VERDICT_LABELS = {
    "strict_rokhlin": "strict Rokhlin property",
    "tracial_rokhlin": "tracial Rokhlin property",
    "outer": "action outer",
    "crossed_product_simple": "crossed product simple",
    "crossed_product_uhf": "crossed product UHF",
}


def classification_text(report: ClassificationReport) -> str:
    lines = [f"action {report.spec.name!r} (cutoff {report.cutoff})"]
    for name, v in report.verdicts().items():
        lines.append(f"- {_VERDICT_LABELS[name]}: {v.decision}  [{_witness_hint(v)}]")
    if report.crossed_product_supernatural is not None:
        lines.append(
            f"- crossed product supernatural number: {report.crossed_product_supernatural}"
        )
    lines.append(f"- extreme tracial states: {report.extreme_trace_count}")
    lines.append(
        "- always true: strictly approximately representable; "
        "dual action has the strict Rokhlin property; crossed product is AF"
    )
    for name, (decision, _) in report.dual_facts().items():
        lines.append(f"- {name.replace('_', ' ')}: {decision}")
    return "\n".join(lines)


def element_json(el: K0Element) -> dict:
    return {"stage": el.stage, "a": el.a, "b": el.b}


def presentation_json(p: FgAbPresentation) -> dict:
    return {
        "free_rank": p.free_rank,
        "invariant_factors": list(p.torsion),
        "localizations": [loc.to_json() for loc in p.localizations],
        "pretty": str(p),
    }


def weight_json(w: RatInterval) -> str | dict:
    """An exact weight (lo == hi) as a decimal string; any other weight with
    its ends rounded outward to 12 digits as {"lo", "hi"}."""
    if w.lo == w.hi:
        return decimal_str(w.lo)
    return {"lo": decimal_str(round_down(w.lo)), "hi": decimal_str(round_up(w.hi))}


def weight_str(w: str | dict) -> str:
    """The text form of a weight that `weight_json` has rendered."""
    return w if isinstance(w, str) else f"[{w['lo']}, {w['hi']}]"


def trace_vector_json(tv: TraceVector) -> dict:
    return {"stage": tv.stage, "r": weight_json(tv.r), "s": weight_json(tv.s)}


def citations_appendix(keys) -> dict:
    return {key: CITATIONS[key] for key in sorted(set(keys))}
