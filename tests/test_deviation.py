"""Operand-scaled deviation gate for the golden run of ``test_golden``.

``test_golden`` pins the exact bytes of the golden artifacts, so no
change can reorder floating-point arithmetic without failing it.  This
gate says how far such a change may move the numbers.  It compares the
artifacts against references stored in ``golden_reference.json``, which
were recorded once as float64 hex and are never regenerated.

* ``convergence.csv``: the rows, their keys and ``wall_ms`` stay exact.
  Each float passes if |delta| <= 1e-12 * B, where B is the scale of its
  operands rather than of its value: ||f|| / lambda for
  ``resolvent_error``, 2^n ||f||^2 for ``form_value`` and
  lambda_max ||f||^2 for ``exact_form``.  A value such as a small
  ``resolvent_error`` is the difference of two unit-scale vectors, so
  its rounding follows the operands, not the value.
* ``audits.json`` and the ``verify`` stdouts: names, verdicts,
  tolerances, details, failing lines, summary lines and exit codes stay
  exact, and every passing residual stays at or under its tolerance.

A change that reorders the arithmetic may update the hashes in
``test_golden`` only while this gate passes against the unchanged
references.
"""
import hashlib
import json
import math
import re
from pathlib import Path

import pytest
from test_golden import CONFIG

from mosco_graphs import cli

REFERENCE = json.loads((Path(__file__).parent / "golden_reference.json").read_text())

# Allowed deviation of a convergence float, relative to its operand scale.
REL = 1e-12

QUANTITIES = ("resolvent_error", "form_value", "exact_form")

AUDIT_LINE = re.compile(r"\[(pass|FAIL)\] (.+?): residual (\S+) \(tol (\S+)\)(?: -- (.*))?")


# -- re-serialising the references --------------------------------------------


def reference_csv(ref) -> str:
    """``convergence.csv`` as the references spell it."""
    rows = [
        ",".join(row[:6] + [format(float.fromhex(h), ".17g") for h in row[6:]])
        for row in ref["convergence"]
    ]
    return "\n".join([ref["convergence_header"], *rows]) + "\n"


def reference_audits_json(ref) -> str:
    """``audits.json`` as the references spell it."""
    audits = [
        {
            "name": name,
            "passed": passed,
            "residual": float.fromhex(residual),
            "tolerance": float.fromhex(tolerance),
            "detail": detail,
        }
        for name, passed, residual, tolerance, detail in ref["audits"]
    ]
    return json.dumps({**ref["audits_meta"], "audits": audits}, indent=1) + "\n"


def reference_stdout(ref, flags: str) -> str:
    return "\n".join(ref["verify"][flags]["stdout"]) + "\n"


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


# -- the comparators -----------------------------------------------------------


def operand_scales(ref, row) -> dict[str, float]:
    """B per quantity for one reference row."""
    norm_sq = float.fromhex(ref["norm_sq"][row[5]])
    return {
        "resolvent_error": math.sqrt(norm_sq) / float(row[4]),
        "form_value": 2.0 ** int(row[0]) * norm_sq,
        "exact_form": float.fromhex(ref["lambda_max"]) * norm_sq,
    }


def convergence_deviations(ref, csv_text: str) -> tuple[list[str], dict[str, float]]:
    """Problems of a ``convergence.csv`` against the references, and the
    worst |delta| / B seen per quantity."""
    problems = []
    worst = dict.fromkeys(QUANTITIES, 0.0)
    header, *lines = csv_text.splitlines()
    if header != ref["convergence_header"]:
        problems.append(f"header {header!r}")
    if len(lines) != len(ref["convergence"]):
        problems.append(f"{len(lines)} rows, expected {len(ref['convergence'])}")
    for number, (want, line) in enumerate(zip(ref["convergence"], lines), 1):
        got = line.split(",")
        if got[:6] != want[:6] or len(got) != 10:
            problems.append(f"row {number}: {line!r} where {want[:6]} was expected")
            continue
        if float(got[9]) != float.fromhex(want[9]):
            problems.append(f"row {number}: wall_ms {got[9]}")
        scales = operand_scales(ref, want)
        for name, expected, text in zip(QUANTITIES, want[6:9], got[6:9]):
            ratio = abs(float(text) - float.fromhex(expected)) / scales[name]
            worst[name] = max(worst[name], ratio)
            if not ratio <= REL:
                problems.append(f"row {number}: {name} moved by {ratio:.3e} * B")
    return problems, worst


def audit_deviations(ref, audits_text: str) -> list[str]:
    """Problems of an ``audits.json`` against the references."""
    data = json.loads(audits_text)
    problems = []
    meta = {key: value for key, value in data.items() if key != "audits"}
    if meta != ref["audits_meta"]:
        problems.append(f"header fields {meta}")
    audits = data["audits"]
    if len(audits) != len(ref["audits"]):
        problems.append(f"{len(audits)} audits, expected {len(ref['audits'])}")
    for want, got in zip(ref["audits"], audits):
        name, passed, residual, tolerance, detail = want
        fixed = (got["name"], got["passed"], got["tolerance"], got["detail"])
        if fixed != (name, passed, float.fromhex(tolerance), detail):
            problems.append(f"audit {name}: {fixed}")
        elif passed and not got["residual"] <= got["tolerance"]:
            problems.append(f"audit {name}: residual {got['residual']!r} above its tolerance")
        elif not passed and got["residual"] != float.fromhex(residual):
            problems.append(f"audit {name}: failing residual {got['residual']!r} moved")
    return problems


def verify_deviations(ref, flags: str, code: int, stdout: str) -> list[str]:
    """Problems of a ``verify`` exit code and stdout against the references."""
    want_lines = ref["verify"][flags]["stdout"]
    got_lines = stdout.splitlines()
    problems = []
    if code != ref["verify"][flags]["exit"]:
        problems.append(f"exit code {code}")
    if len(got_lines) != len(want_lines):
        problems.append(f"{len(got_lines)} lines, expected {len(want_lines)}")
    for want, got in zip(want_lines, got_lines):
        want_match = AUDIT_LINE.fullmatch(want)
        if want_match is None or want_match[1] == "FAIL":
            # Summary lines and failing audits stay exact.
            if got != want:
                problems.append(f"{got!r} where {want!r} was expected")
            continue
        got_match = AUDIT_LINE.fullmatch(got)
        if got_match is None or got_match.group(1, 2, 4, 5) != want_match.group(1, 2, 4, 5):
            problems.append(f"{got!r} where {want!r} was expected")
        elif not float(got_match[3]) <= float(got_match[4]):
            problems.append(f"{got!r}: residual above its tolerance")
    return problems


# -- the gate on the golden run ------------------------------------------------


def test_references_reserialise_to_their_recorded_hashes():
    sha = REFERENCE["sha256"]
    assert _sha256(reference_csv(REFERENCE)) == sha["convergence.csv"]
    assert _sha256(reference_audits_json(REFERENCE)) == sha["audits.json"]
    for flags in REFERENCE["verify"]:
        assert _sha256(reference_stdout(REFERENCE, flags)) == sha[f"verify {flags}".strip()]


def test_run_is_inside_the_gate(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(CONFIG))
    out = tmp_path / "out"
    assert cli.main(["run", "--config", str(config), "--out", str(out)]) == 0
    problems, _ = convergence_deviations(REFERENCE, (out / "convergence.csv").read_text())
    assert problems == []
    assert audit_deviations(REFERENCE, (out / "audits.json").read_text()) == []


@pytest.mark.parametrize("flags", sorted(REFERENCE["verify"]), ids=["plain", "injected"])
def test_verify_is_inside_the_gate(tmp_path, capsys, flags):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(CONFIG))
    code = cli.main(["verify", "--config", str(config), *flags.split()])
    assert verify_deviations(REFERENCE, flags, code, capsys.readouterr().out) == []


# -- negative controls: the gate must catch each of these ----------------------


def _csv_with_resolvent_error_moved(factor: float) -> str:
    lines = reference_csv(REFERENCE).splitlines()
    number = 17
    row = lines[number].split(",")
    scale = operand_scales(REFERENCE, REFERENCE["convergence"][number - 1])["resolvent_error"]
    row[6] = format(float(row[6]) + factor * scale, ".17g")
    lines[number] = ",".join(row)
    return "\n".join(lines) + "\n"


def test_the_gate_passes_the_references_themselves():
    problems, worst = convergence_deviations(REFERENCE, reference_csv(REFERENCE))
    assert problems == [] and set(worst.values()) == {0.0}
    assert audit_deviations(REFERENCE, reference_audits_json(REFERENCE)) == []
    for flags, entry in REFERENCE["verify"].items():
        stdout = reference_stdout(REFERENCE, flags)
        assert verify_deviations(REFERENCE, flags, entry["exit"], stdout) == []


def test_a_resolvent_error_moved_by_1e_10_b_fails():
    problems, _ = convergence_deviations(REFERENCE, _csv_with_resolvent_error_moved(1e-10))
    assert problems == ["row 17: resolvent_error moved by 1.000e-10 * B"]
    # Rounding-level moves are what the gate lets through.
    problems, worst = convergence_deviations(REFERENCE, _csv_with_resolvent_error_moved(1e-13))
    assert problems == [] and 0.0 < worst["resolvent_error"] <= REL


def test_a_flipped_verdict_fails():
    data = json.loads(reference_audits_json(REFERENCE))
    data["audits"][3]["passed"] = False
    assert len(audit_deviations(REFERENCE, json.dumps(data))) == 1
    lines = reference_stdout(REFERENCE, "").splitlines()
    lines[3] = lines[3].replace("[pass]", "[FAIL]")
    assert len(verify_deviations(REFERENCE, "", 0, "\n".join(lines))) == 1
    assert verify_deviations(REFERENCE, "", 1, reference_stdout(REFERENCE, "")) == ["exit code 1"]


def test_a_residual_above_its_tolerance_fails():
    data = json.loads(reference_audits_json(REFERENCE))
    data["audits"][4]["residual"] = 2.0 * data["audits"][4]["tolerance"]
    assert len(audit_deviations(REFERENCE, json.dumps(data))) == 1
    lines = reference_stdout(REFERENCE, "").splitlines()
    lines[4] = re.sub(r"residual \S+", "residual 2.000e-10", lines[4])
    assert lines[4].endswith("(tol 1.0e-10)")
    assert len(verify_deviations(REFERENCE, "", 0, "\n".join(lines))) == 1


def test_a_dropped_audit_line_fails():
    flags = "--inject-asymmetry"
    lines = reference_stdout(REFERENCE, flags).splitlines()
    failing = lines.index(next(line for line in lines if line.startswith("[FAIL]")))
    del lines[failing]
    code = REFERENCE["verify"][flags]["exit"]
    problems = verify_deviations(REFERENCE, flags, code, "\n".join(lines))
    assert problems[0] == f"{len(lines)} lines, expected {len(lines) + 1}"
    data = json.loads(reference_audits_json(REFERENCE))
    del data["audits"][-1]
    assert audit_deviations(REFERENCE, json.dumps(data))[0] == "57 audits, expected 58"
