"""Golden CLI outputs: every value the CLI prints must stay fixed.

The fixture ``fixtures/cli_golden.json`` holds the exit code and the parsed
JSON document of each invocation below.  Output floats are already rounded
to nine decimals, so exact equality pins every value to nine decimals.
Regenerate the fixture only for an intended output change:

    PYTHONPATH=src python tests/test_cli_golden.py
"""

import contextlib
import io
import json
from pathlib import Path

from kothe.cli import main

FIXTURES = Path(__file__).parent / "fixtures"
GOLDEN = FIXTURES / "cli_golden.json"

SCENARIOS = ("scenario_4132", "scenario_indicator", "scenario_l2unit", "scenario_twopoint", "scenario_zero")
CONFIGS = (
    "avar_half",
    "broken_signed_mean",
    "entropic_one",
    "gen_orlicz_lorentz",
    "lorentz_sqrt",
    "lp1",
    "lp2",
    "luxemburg_power2",
    "marcinkiewicz_sqrt",
)
CHECK_CONFIGS = (
    "lp1", "lp2", "avar_half", "marcinkiewicz_sqrt", "broken_signed_mean", "entropic_one", "luxemburg_power2",
)
LARGE_CHECK_CONFIGS = ("lp2", "lorentz_sqrt", "avar_half")  # the vectorized row evaluators at n = 50


def _cases() -> list[list[str]]:
    cases = []
    for scen in SCENARIOS:
        cases.append(["rearrange", "--scenario", f"{scen}.csv"])
        for cfg in CONFIGS:
            cases.append(["norm", "--scenario", f"{scen}.csv", "--config", f"{cfg}.cfg"])
        for cfg in CONFIGS:
            cases.append(["dual", "--scenario", f"{scen}.csv", "--config", f"{cfg}.cfg"])
        for cfg in ("avar_half", "entropic_one"):
            cases.append(["risk", "--scenario", f"{scen}.csv", "--config", f"{cfg}.cfg"])
    for cfg in CHECK_CONFIGS:
        cases.append(["check", "--random", "6", "--seed", "7", "--config", f"{cfg}.cfg"])
    for cfg in LARGE_CHECK_CONFIGS:
        cases.append(["check", "--random", "50", "--seed", "7", "--config", f"{cfg}.cfg"])
    return cases


def _run(argv: list[str]) -> tuple[int, object]:
    resolved = [str(FIXTURES / a) if a.endswith((".csv", ".cfg")) else a for a in argv]
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
        code = main(resolved)
    out = buf.getvalue().strip()
    return code, (json.loads(out) if out else None)


def test_cli_outputs_match_golden():
    golden = json.loads(GOLDEN.read_text())
    assert [g["argv"] for g in golden] == _cases()
    mismatches = []
    for case in golden:
        code, out = _run(case["argv"])
        if code != case["code"] or out != case["out"]:
            mismatches.append((" ".join(case["argv"]), case["code"], code, case["out"], out))
    assert not mismatches, mismatches


if __name__ == "__main__":
    records = []
    for argv in _cases():
        code, out = _run(argv)
        records.append({"argv": argv, "code": code, "out": out})
    GOLDEN.write_text(json.dumps(records, indent=1) + "\n")
    print(f"wrote {len(records)} cases to {GOLDEN}")
