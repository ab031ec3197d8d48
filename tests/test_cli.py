import json
import os
import random
import subprocess
import sys
from itertools import cycle, islice
from pathlib import Path

import pytest

from afrokhlin import ActionSpec, PeriodicTail, RankPair, cli, fixture, report
from afrokhlin.cli import bratteli_dot, main
from oracles import reference_bratteli_dot
from specgen import random_spec

GOLDEN = Path(__file__).parent / "golden"
FIXTURES = ("car1", "car2", "car3", "notcar")


def run_cli(*args, env_extra=None, timeout=None):
    env = dict(os.environ)
    env.pop("AFROKHLIN_CUTOFF", None)
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-m", "afrokhlin", *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=timeout,
    )


def normalize(report_text: str) -> str:
    doc = json.loads(report_text)
    doc["tool_version"] = "TEST"
    return json.dumps(doc, indent=2) + "\n"


@pytest.mark.parametrize("name", FIXTURES)
def test_classify_matches_golden(name):
    result = run_cli("classify", name, "--json")
    assert result.returncode == 0, result.stderr
    expected = (GOLDEN / f"{name}.json").read_text()
    assert normalize(result.stdout) == expected


@pytest.mark.parametrize("name", FIXTURES)
def test_classify_byte_stable(name):
    first = run_cli("classify", name, "--json")
    second = run_cli("classify", name, "--json")
    assert first.stdout == second.stdout
    assert first.returncode == second.returncode == 0


def test_report_round_trips():
    out = run_cli("classify", "car3", "--json").stdout
    doc = json.loads(out)
    assert json.loads(json.dumps(doc)) == doc


def test_exit_code_input_errors(tmp_path):
    assert run_cli("classify", "nosuchfixture").returncode == 2

    bad = tmp_path / "bad.json"
    bad.write_text("{ not json }")
    r = run_cli("classify", str(bad))
    assert r.returncode == 2
    assert "line 1" in r.stderr

    finite = tmp_path / "finite.json"
    finite.write_text(
        json.dumps({"name": "fin", "prefix": [[1, 0]], "tail": {"kind": "none"}})
    )
    assert run_cli("classify", str(finite)).returncode == 2

    assert run_cli("ktheory", "car1", "--element", "zz", "--query", "flip").returncode == 2
    assert run_cli("classify", "car1", "--cutoff", "0").returncode == 2


def slow_spec_file(tmp_path) -> str:
    path = tmp_path / "slow.json"
    path.write_text(
        json.dumps(
            {
                "name": "slow",
                "prefix": [],
                "tail": {
                    "kind": "affine_power",
                    "B": 3,
                    "A": 1,
                    "alpha": 1,
                    "beta": -3,
                    "gamma": 0,
                    "delta": 3,
                },
            }
        )
    )
    return str(path)


def test_exit_code_unknown(tmp_path):
    spec = slow_spec_file(tmp_path)
    undecided = run_cli("classify", spec, "--cutoff", "1", "--json")
    assert undecided.returncode == 3
    doc = json.loads(undecided.stdout)
    assert doc["classification"]["tracial_rokhlin"]["decision"] == "unknown"
    decided = run_cli("classify", spec, "--json")
    assert decided.returncode == 0


def test_cutoff_env_override(tmp_path):
    spec = slow_spec_file(tmp_path)
    r = run_cli("classify", spec, "--json", env_extra={"AFROKHLIN_CUTOFF": "1"})
    assert r.returncode == 3
    assert json.loads(r.stdout)["cutoff"] == 1
    flag_wins = run_cli(
        "classify", spec, "--json", "--cutoff", "64", env_extra={"AFROKHLIN_CUTOFF": "1"}
    )
    assert flag_wins.returncode == 0


def gset_file(tmp_path, with_fixed_point=False) -> str:
    action = [[0, 1, 2, 3], [1, 0, 2, 3]] if with_fixed_point else [[0, 1, 2, 3], [1, 0, 3, 2]]
    path = tmp_path / "gset.json"
    path.write_text(
        json.dumps(
            {
                "elements": ["a", "b", "c", "d"],
                "group": {"order": 2, "table": [[0, 1], [1, 0]]},
                "action": action,
            }
        )
    )
    return str(path)


def test_cantor_cli(tmp_path):
    r = run_cli("cantor", gset_file(tmp_path), "--json")
    assert r.returncode == 0
    doc = json.loads(r.stdout)
    assert doc["cantor"]["tower"]["base_size"] == 2

    cover = tmp_path / "cover.json"
    cover.write_text(json.dumps([["a"], ["c"]]))
    r2 = run_cli("cantor", gset_file(tmp_path), "--cover", str(cover), "--json")
    assert json.loads(r2.stdout)["cantor"]["tower"]["base"] == ["a", "c"]

    bad_cover = tmp_path / "bad_cover.json"
    bad_cover.write_text(json.dumps([["a"], ["a"]]))
    assert run_cli("cantor", gset_file(tmp_path), "--cover", str(bad_cover)).returncode == 2


def test_exit_code_non_free(tmp_path):
    r = run_cli("cantor", gset_file(tmp_path, with_fixed_point=True))
    assert r.returncode == 4
    assert "witness" in r.stderr


def test_exit_code_unique_trace_refusal():
    # a well-formed extreme-trace query on an action with one tracial state is
    # refused as a domain precondition, not as an input error
    for extreme in ("0", "1"):
        r = run_cli("traces", "car2", "--stage", "1", "--extreme", extreme)
        assert r.returncode == 4
        assert "unique tracial state" in r.stderr
    assert run_cli("traces", "car2", "--stage", "1", "--extreme", "inv").returncode == 0


def test_bratteli_output():
    r = run_cli("bratteli", "car2", "--stages", "2")
    assert r.returncode == 0
    assert 'L1 -> L2 [label="3"]' in r.stdout
    assert 'L1 -> R2 [label="1"]' in r.stdout
    single = run_cli("bratteli", "car1", "--stages", "1")
    assert "->" not in single.stdout
    assert single.stdout.count("label=") == 2


def test_ktheory_cli_queries():
    r = run_cli("ktheory", "car3", "--element", "1,-1@1", "--query", "positive", "--json")
    doc = json.loads(r.stdout)["ktheory"]
    assert doc["positive"]["decision"] == "no"
    assert doc["negative_positive"]["decision"] == "no"

    r = run_cli("ktheory", "car1", "--element", "1,-1@1", "--query", "equal-zero", "--json")
    assert json.loads(r.stdout)["ktheory"]["equal_zero"] is True

    r = run_cli("ktheory", "car2", "--element", "1,-1@1", "--query", "flip", "--json")
    doc = json.loads(r.stdout)["ktheory"]
    assert doc["flipped"] == {"stage": 1, "a": -1, "b": 1}
    assert doc["equal_to_input"] is False
    assert doc["equal_to_negation"] is True


def test_traces_cli():
    r = run_cli("traces", "car3", "--stage", "1", "--extreme", "1", "--cutoff", "40", "--json")
    doc = json.loads(r.stdout)["traces"]
    assert doc["which"] == "extreme1"
    assert doc["vector"]["r"]["lo"].startswith("0.64439")
    inv = run_cli("traces", "car2", "--stage", "3", "--extreme", "inv", "--json")
    assert json.loads(inv.stdout)["traces"]["vector"]["r"] == "0.5"


@pytest.mark.parametrize("extreme", ("1", "inv"))
def test_traces_renders_each_weight_once(extreme, monkeypatch, capsys):
    # the text is built from the weights already rendered for the JSON document
    calls = []
    render = report.weight_json
    monkeypatch.setattr(report, "weight_json", lambda w: calls.append(w) or render(w))
    assert main(["traces", "car3", "--stage", "3", "--extreme", extreme]) == 0
    assert len(calls) == 2
    assert capsys.readouterr().out.startswith("extreme1" if extreme == "1" else "invariant")


def test_traces_deep_stage_finishes():
    # s rounds down to a positive value with about 30,000 digits at this stage
    r = run_cli("traces", "car3", "--stage", "100000", "--extreme", "1", timeout=5)
    assert r.returncode == 0, r.stderr
    head, s = r.stdout.split(", s = ")
    assert head == "extreme1 trace weights of 'car3' at stage 100000: r = [0.999999999999, 1]"
    s_lo, s_hi = s.strip().strip("[]").split(", ")
    digits = s_lo.removeprefix("0.")
    assert digits.isdigit() and 0 < len(digits.lstrip("0")) < len(digits) - 29000
    assert s_hi == "0.000000000001"


def test_traces_deep_cutoff_finishes():
    # the weights come from the Euler enclosure, not from a walk of 65,536 factors
    r = run_cli("traces", "car3", "--stage", "1", "--extreme", "1", "--cutoff", "65536", "--json", timeout=2)
    assert r.returncode == 0, r.stderr
    assert json.loads(r.stdout)["traces"]["vector"] == {
        "stage": 1,
        "r": {"lo": "0.644394047543", "hi": "0.644394047544"},
        "s": {"lo": "0.355605952456", "hi": "0.355605952457"},
    }


def test_classify_deep_cutoff_finishes():
    # the witness comes from the Euler enclosure, not from a walk of 100,000 factors
    r = run_cli("classify", "car3", "--cutoff", "100000", "--json", timeout=2)
    assert r.returncode == 0, r.stderr
    witness = json.loads(r.stdout)["classification"]["tracial_rokhlin"]["witness"]
    assert (witness["lower"], witness["upper"]) == ("0.288788095086", "0.288788095087")


def test_torsion_large_r_finishes():
    # each 2r + 1 is a prime near 2 * 10**12, and their product, about
    # 8 * 10**36, is too large for exact Miller-Rabin, so only factoring
    # each 2r + 1 on its own finishes
    r = run_cli("torsion", "--m", "2", "--r", "1000000000001,1000000000061,1000000000068", timeout=10)
    assert r.returncode == 0, r.stderr
    assert "K0 = Z[1/2000000000003*2000000000123*2000000000137] (+) Z/4" in r.stdout


def test_closed_stdout_exits_141_quietly():
    # the read end is closed before the command starts, so every write fails
    read_end, write_end = os.pipe()
    os.close(read_end)
    env = {k: v for k, v in os.environ.items() if k != "AFROKHLIN_CUTOFF"}
    proc = subprocess.Popen(
        [sys.executable, "-m", "afrokhlin", "classify", "car3", "--json"],
        stdout=write_end,
        stderr=subprocess.PIPE,
        env=env,
    )
    os.close(write_end)
    _, err = proc.communicate(timeout=20)
    assert (proc.returncode, err) == (141, b"")


def test_closed_stdout_in_process(monkeypatch, capsys):
    read_end, write_end = os.pipe()
    os.close(read_end)
    with os.fdopen(write_end, "w") as out:
        monkeypatch.setattr(sys, "stdout", out)
        assert main(["classify", "car3", "--json"]) == 141
        # the descriptor now points at devnull, so the buffered output flushes
        out.flush()
    assert capsys.readouterr().err == ""


def test_condense_cli():
    r = run_cli("condense", "car3", "--range", "0..3", "--json")
    doc = json.loads(r.stdout)["condense"]
    assert doc["pair"] == [32, 32]
    assert doc["gap"] == "0"


def test_torsion_cli():
    r = run_cli("torsion", "--m", "3", "--r", "1,2,3", "--json")
    doc = json.loads(r.stdout)["torsion_family"]
    assert doc["k0"]["invariant_factors"] == [8]
    assert doc["k0_torsion_subgroup"] == "Z/8"
    assert doc["k1"]["value"] == "0"

    r = run_cli("torsion", "--m", "2", "--r", "1", "--notor", "--json")
    doc = json.loads(r.stdout)["torsion_family"]
    assert doc["k1"]["pretty"] == "Z"
    assert doc["k0"]["torsion_free"] is True

    assert run_cli("torsion", "--m", "0", "--r", "1").returncode == 2
    assert run_cli("torsion", "--m", "1", "--r", "0,2").returncode == 2


@pytest.mark.parametrize("m", range(1, 13))
def test_torsion_in_process(m, capsys):
    rs = list(range(m, 2 * m + 1))
    primes = set()
    for r in rs:
        n, p = 2 * r + 1, 3
        while n > 1:
            while n % p == 0:
                primes.add(p)
                n //= p
            p += 2
    assert main(["torsion", "--m", str(m), "--r", ",".join(map(str, rs)), "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)["torsion_family"]
    assert doc["k0"]["invariant_factors"] == [2**m]
    assert doc["k0"]["localizations"] == [{str(p): "inf" for p in sorted(primes)}]
    assert doc["k0_torsion_subgroup"] == f"Z/{2**m}"

    assert main(["torsion", "--m", str(m), "--r", ",".join(map(str, rs)), "--notor", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)["torsion_family"]
    assert doc["variant"] == "torsion_free"
    assert doc["k1"]["pretty"] == "Z"
    assert (doc["k1"]["free_rank"], doc["k1"]["invariant_factors"]) == (1, [])


def test_quiet_suppresses_text():
    r = run_cli("classify", "car1", "--quiet")
    assert r.returncode == 0
    assert r.stdout == ""


@pytest.fixture
def stream_items(monkeypatch):
    """The factors drawn from ActionSpec.split_stream while the test runs."""
    drawn = []
    real = ActionSpec.split_stream

    def counted(self, m):
        for item in real(self, m):
            drawn.append(item)
            yield item

    monkeypatch.setattr(ActionSpec, "split_stream", counted)
    return drawn


def test_bratteli_walks_the_stages_once(stream_items):
    dot = bratteli_dot(fixture("car2"), 60)
    assert len(stream_items) == 60
    car2, t = fixture("car2"), 1
    for n in range(1, 61):
        f = car2.factor(n)
        t *= f.size
        assert f'  L{n} [label="{t}"];' in dot
        if n > 1:
            assert f'  L{n - 1} -> L{n} [label="{f.p}"];' in dot
            assert f'  R{n - 1} -> L{n} [label="{f.q}"];' in dot


def test_bratteli_matches_the_int_reference_on_random_specs():
    rng = random.Random(29)
    for i in range(300):
        spec = random_spec(rng, f"random{i}")
        for stages in range(1, 61):
            assert bratteli_dot(spec, stages) == reference_bratteli_dot(spec, stages)


# the last stage whose size has at most 4300 digits, the default digit limit
LAST_WITHIN_BUDGET = {"car1": 300, "car2": 168, "car3": 168, "notcar": 300}


@pytest.mark.parametrize("name", FIXTURES)
def test_bratteli_matches_the_int_reference_on_fixtures(name):
    spec, last = fixture(name), LAST_WITHIN_BUDGET[name]
    for stages in range(1, last + 1):
        assert bratteli_dot(spec, stages) == reference_bratteli_dot(spec, stages)


@pytest.fixture
def digit_limit():
    """Set the interpreter's int digit limit for one test, then restore it."""
    before = sys.get_int_max_str_digits()
    yield sys.set_int_max_str_digits
    sys.set_int_max_str_digits(before)


def test_bratteli_renders_every_stage_without_a_digit_limit(digit_limit):
    digit_limit(0)
    car2 = fixture("car2")
    assert bratteli_dot(car2, 200) == reference_bratteli_dot(car2, 200)


def _reference_error(spec, stages):
    try:
        reference_bratteli_dot(spec, stages)
    except ValueError as exc:
        return str(exc)
    return None


# stage n of "tens" has size 10**n, so its first label past a limit L has
# exactly L + 1 digits
TENS = ActionSpec("tens", (), PeriodicTail((RankPair(7, 3),)))


@pytest.mark.parametrize(
    "name,limit", [("car2", 640), ("car2", 4300), ("car3", 640), ("car3", 4300), ("tens", 640)]
)
def test_bratteli_raises_the_reference_error_at_the_same_stage(name, limit, digit_limit):
    digit_limit(limit)
    spec = TENS if name == "tens" else fixture(name)
    # the reference raises from some stage on: bisect for the first one
    ok, bad = 1, 1000
    assert _reference_error(spec, ok) is None and _reference_error(spec, bad) is not None
    while bad - ok > 1:
        mid = (ok + bad) // 2
        if _reference_error(spec, mid) is None:
            ok = mid
        else:
            bad = mid
    assert bratteli_dot(spec, ok) == reference_bratteli_dot(spec, ok)
    with pytest.raises(ValueError) as exc:
        bratteli_dot(spec, bad)
    assert str(exc.value) == _reference_error(spec, bad)


def test_condense_multiplies_each_factor_once(stream_items, capsys):
    assert main(["condense", "car3", "--range", "0..40", "--json"]) == 0
    assert len(stream_items) == 40
    doc = json.loads(capsys.readouterr().out)["condense"]
    assert doc["gap"] == doc["gap_product_check"] == "0"


# One call per subcommand, run in-process; "GSET" stands for a free G-set file.
SUBCOMMANDS = [
    (["classify", "car1"], 0),
    (["classify", "SLOW", "--cutoff", "1"], 3),
    (["ktheory", "car3", "--element", "1,-1@1", "--query", "positive"], 0),
    (["traces", "car2", "--stage", "1", "--extreme", "inv"], 0),
    (["condense", "car3", "--range", "0..3"], 0),
    (["bratteli", "car2", "--stages", "2"], 0),
    (["torsion", "--m", "3", "--r", "1,2"], 0),
    (["cantor", "GSET"], 0),
]


def in_process(argv, capsys):
    rc = main(argv)
    out, err = capsys.readouterr()
    assert type(rc) is int
    return rc, out, err


@pytest.mark.parametrize("form", ["text", "--json", "--quiet"])
@pytest.mark.parametrize("argv,code", SUBCOMMANDS, ids=[argv[0] for argv, _ in SUBCOMMANDS])
def test_main_returns_the_exit_code_in_every_form(argv, code, form, tmp_path, capsys):
    files = {"GSET": gset_file(tmp_path), "SLOW": slow_spec_file(tmp_path)}
    argv = [files.get(a, a) for a in argv] + ([] if form == "text" else [form])
    rc, out, err = in_process(argv, capsys)
    assert rc == code, err
    assert err == ""
    if form == "--quiet":
        assert out == ""
    elif form == "--json":
        doc = json.loads(out)
        assert out == json.dumps(doc, indent=2) + "\n"
        assert list(doc)[:3] == ["schema_version", "tool_version", "command"]
        assert doc["command"] == argv[0]
    else:
        assert out.strip() and not out.startswith("{")


@pytest.mark.parametrize(
    "argv,code,stream,needle",
    [
        ([], 2, "err", "required: command"),
        (["classify"], 2, "err", "required: spec"),
        (["ktheory", "car3", "--element", "1,1@1"], 2, "err", "required: --query"),
        (["ktheory", "car3", "--element", "1,1@1", "--query", "nope"], 2, "err", "invalid choice"),
        (["traces", "car2", "--stage", "x", "--extreme", "0"], 2, "err", "invalid int value"),
        (["classify", "car1", "--bogus"], 2, "err", "unrecognized arguments: --bogus"),
        (["--help"], 0, "out", "usage: afrokhlin"),
        (["torsion", "--help"], 0, "out", "--notor"),
    ],
)
def test_main_returns_argparse_codes(argv, code, stream, needle, capsys):
    rc, out, err = in_process(argv, capsys)
    assert rc == code
    assert needle in (out if stream == "out" else err)


@pytest.mark.parametrize("query", ["positive", "equal-zero", "flip"])
def test_negative_element_as_its_own_argument(query, capsys):
    base = ["ktheory", "car3", "--query", query]
    for form in ([], ["--json"]):
        joined = in_process([*base, "--element=-1,1@1", *form], capsys)
        split = in_process([*base, "--element", "-1,1@1", *form], capsys)
        assert split == joined
        assert split[0] == 0
    text = in_process([*base, "--element", "-1,1@1"], capsys)[1]
    assert text.startswith("element (-1, 1) at stage 1 on 'car3'")
    assert in_process([*base, "--elem", "-1,1@1"], capsys)[1] == text
    r = run_cli(*base, "--element", "-1,1@1", "--json")
    assert r.returncode == 0, r.stderr
    assert json.loads(r.stdout)["ktheory"]["element"] == {"stage": 1, "a": -1, "b": 1}


@pytest.fixture
def build_calls(monkeypatch):
    """Count build_parser calls, starting from an empty parser cache."""
    calls = []
    real = cli.build_parser

    def counted():
        calls.append(1)
        return real()

    monkeypatch.setattr(cli, "_parser", None)
    monkeypatch.setattr(cli, "build_parser", counted)
    return calls


def test_main_builds_the_parser_once(build_calls, tmp_path, capsys):
    files = {"GSET": gset_file(tmp_path), "SLOW": slow_spec_file(tmp_path)}
    mix = [([files.get(a, a) for a in argv], code) for argv, code in SUBCOMMANDS]
    mix += [
        (["ktheory", "car3", "--element", "1,1@1", "--query", "nope"], 2),
        (["classify", "car1", "--bogus"], 2),
        (["--help"], 0),
        (["torsion", "--help"], 0),
    ]
    for argv, code in islice(cycle(mix), 20):
        assert in_process(argv, capsys)[0] == code
    assert len(build_calls) == 1


def test_reused_parser_keeps_no_state(monkeypatch, tmp_path, capsys):
    files = {"GSET": gset_file(tmp_path), "SLOW": slow_spec_file(tmp_path)}
    steps = [
        (["ktheory", "car3", "--element", "1,1@1", "--query", "nope"], {}),
        (["ktheory", "car3", "--element", "1,1@1", "--query", "flip"], {}),
        (["--help"], {"COLUMNS": "80"}),
        (["--help"], {"COLUMNS": "120"}),
        (["classify", "SLOW", "--json"], {"AFROKHLIN_CUTOFF": "1"}),
        (["classify", "SLOW", "--json"], {}),
        (["ktheory", "car3", "--element", "-1,1@1", "--query", "flip"], {}),
    ] + [(argv, {}) for argv, _ in SUBCOMMANDS]

    def run(fresh: bool):
        monkeypatch.setattr(cli, "_parser", None)
        results = []
        for argv, env in steps:
            monkeypatch.setenv("COLUMNS", env.get("COLUMNS", "80"))
            if "AFROKHLIN_CUTOFF" in env:
                monkeypatch.setenv("AFROKHLIN_CUTOFF", env["AFROKHLIN_CUTOFF"])
            else:
                monkeypatch.delenv("AFROKHLIN_CUTOFF", raising=False)
            if fresh:
                cli._parser = None
            results.append(in_process([files.get(a, a) for a in argv], capsys))
        return results

    reused, fresh = run(fresh=False), run(fresh=True)
    assert reused == fresh
    assert [r[0] for r in reused[:2]] == [2, 0]
    assert reused[2][1] != reused[3][1]  # help wrapped at 80 and at 120 columns
    assert [r[0] for r in reused[4:6]] == [3, 0]
    assert reused[6][0] == 0


def test_element_abbreviations_under_ktheory_only(capsys):
    base = ["ktheory", "car3", "--query", "flip"]
    full = in_process([*base, "--element", "-1,1@1"], capsys)
    assert full[0] == 0
    for flag in ("--e", "--el", "--eleme"):
        assert in_process([*base, flag, "-1,1@1"], capsys) == full
    # in traces --e abbreviates --extreme, and argparse reads it unchanged
    assert in_process(["traces", "car2", "--stage", "1", "--e", "inv"], capsys)[0] == 0
    rc, _, err = in_process(["traces", "car2", "--stage", "1", "--e", "-1,1@1"], capsys)
    assert rc == 2
    assert "argument --extreme: expected one argument" in err


GSET = {
    "elements": ["a", "b", "c", "d"],
    "group": {"order": 2, "table": [[0, 1], [1, 0]]},
    "action": [[0, 1, 2, 3], [1, 0, 3, 2]],
}


@pytest.mark.parametrize(
    "gset,cover,message",
    [
        ({**GSET, "group": {"table": [0]}}, None, "'group.table' must be a list of rows"),
        ({**GSET, "group": {"table": 0}}, None, "'group.table' must be a list of rows"),
        ({**GSET, "action": [0]}, None, "'action' must be a list of rows"),
        ({**GSET, "action": [[0, 1, 2, 3], None]}, None, "'action' must be a list of rows"),
        (GSET, [[["a"]]], "cover entry 0 names unknown element ['a']"),
        (GSET, [["a"], [{"x": 1}]], "cover entry 1 names unknown element {'x': 1}"),
        (GSET, [["a"], [1]], "cover entry 1 names unknown element 1"),
        (GSET, [["a"], ["z"]], "cover entry 1 names unknown element 'z'"),
        ({**GSET, "elements": ["a", "a", "b", "b"]}, None, "element name 'a' is repeated"),
        ([GSET], None, "G-set document must be a JSON object"),
        ({**GSET, "action": {}}, None, "'action' must be a list of rows"),
        (GSET, {"a": ["b"]}, "cover document must be a list of element-name lists"),
        ({**GSET, "group": {"table": []}}, None, "group must have at least one element"),
        ({**GSET, "elements": [], "action": [[], []]}, None, "the acted-on set must be nonempty"),
        ({**GSET, "group": {"table": [[0, 1], [1]]}}, None, "multiplication table must be square"),
        ({**GSET, "action": [[0, 1, 2, 3], [1, 0]]}, None, "action table must have one row of size |X|"),
    ],
    ids=[
        "table-row-number",
        "table-number",
        "action-row-number",
        "action-row-null",
        "cover-name-list",
        "cover-name-object",
        "cover-name-number",
        "cover-name-unknown",
        "repeated-element-name",
        "gset-not-object",
        "action-not-list",
        "cover-not-list",
        "empty-group",
        "empty-set",
        "table-not-square",
        "action-row-short",
    ],
)
def test_malformed_cantor_documents_are_input_errors(gset, cover, message, tmp_path, capsys):
    path = tmp_path / "gset.json"
    path.write_text(json.dumps(gset))
    argv = ["cantor", str(path)]
    if cover is not None:
        (tmp_path / "cover.json").write_text(json.dumps(cover))
        argv += ["--cover", str(tmp_path / "cover.json")]
    rc, out, err = in_process(argv, capsys)
    assert (rc, out) == (2, "")
    assert err.startswith(f"error: {message}") and err.count("\n") == 1


FINITE = {"name": "fin", "prefix": [[3, 1], [2, 0]], "tail": {"kind": "none"}}
AFFINE = {"kind": "affine_power", "B": 2, "A": 1, "alpha": 1, "beta": 0, "gamma": 0, "delta": 0}


@pytest.mark.parametrize(
    "doc,argv,code,line",
    [
        ([FINITE], ["classify"], 2, "error: action document must be a JSON object"),
        ({**FINITE, "prefix": {}}, ["classify"], 2, "error: 'prefix' must be a list of [p, q] pairs"),
        ({**FINITE, "tail": []}, ["classify"], 2, "error: 'tail' must be an object with a 'kind' field"),
        ({**FINITE, "prefix": []}, ["classify"], 2, "error: finite action needs at least one factor"),
        (
            {**FINITE, "tail": {**AFFINE, "alpha": 2, "gamma": -1}},
            ["classify"],
            2,
            "error: affine tail rank coefficients must be nonnegative",
        ),
        (
            {**FINITE, "tail": {**AFFINE, "delta": 0.5}},
            ["classify"],
            2,
            "error: affine tail needs integer field 'delta'",
        ),
        (
            FINITE,
            ["condense", "--range", "0..2"],
            0,
            "factors 1..2 of 'fin' condense to (6, 2) in M_8 with gap ratio 1/2",
        ),
        (
            FINITE,
            ["classify"],
            2,
            "error: action 'fin' has only finitely many factors; "
            "classification verdicts are defined for infinite actions only",
        ),
        (
            FINITE,
            ["ktheory", "--element", "1,0@0", "--query", "positive"],
            2,
            "error: positivity needs an infinite action",
        ),
        (None, ["traces", "car2", "--stage", "-1", "--extreme", "inv"], 2, "error: stage must be >= 0"),
        (
            None,
            ["bratteli", "car2", "--stages", "200"],
            2,
            "error: Exceeds the limit (4300 digits) for integer string conversion; "
            "use sys.set_int_max_str_digits() to increase the limit",
        ),
    ],
    ids=[
        "action-not-object",
        "prefix-not-list",
        "tail-not-object",
        "no-factors",
        "negative-coefficient",
        "float-field",
        "finite-condense",
        "finite-classify",
        "finite-positive",
        "negative-stage",
        "bratteli-digit-limit",
    ],
)
def test_outside_input_errors_in_process(doc, argv, code, line, tmp_path, capsys):
    # each input check answers with one line: stdout on exit 0, stderr on exit 2
    if doc is not None:
        path = tmp_path / "action.json"
        path.write_text(json.dumps(doc))
        argv = [argv[0], str(path), *argv[1:]]
    rc, out, err = in_process(argv, capsys)
    assert rc == code
    assert (out, err) == ((line + "\n", "") if code == 0 else ("", line + "\n"))


def test_deeply_nested_documents_are_input_errors(tmp_path, capsys):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000 + "]" * 100_000)
    gset = tmp_path / "gset.json"
    gset.write_text(json.dumps(GSET))
    for argv in (
        ["classify", str(deep)],
        ["cantor", str(deep)],
        ["cantor", str(gset), "--cover", str(deep)],
    ):
        rc, out, err = in_process(argv, capsys)
        assert (rc, out) == (2, ""), argv
        assert err == f"error: JSON document {str(deep)!r} is nested too deeply\n"
