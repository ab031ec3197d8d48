"""Byte identity of the tool's outputs as a test.

``scripts/output_digest.py`` hashes the CLI outputs of about 45,000 in-process
calls into seven digests (see its docstring for what each covers).  This test
computes them and compares them with ``scripts/output_digests.json``, so any
change to an output byte fails here until that file is edited on purpose.
It takes about 20 s.
"""

import importlib.util
import json
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "output_digest.py"


def test_output_digests_match_recorded():
    spec = importlib.util.spec_from_file_location("output_digest", SCRIPT)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    recorded = json.loads(script.RECORDED.read_text(encoding="utf-8"))
    assert script.digests() == recorded
