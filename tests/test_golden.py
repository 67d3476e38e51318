"""Output bytes of a small run against hashes stored before the partition rewrite.

The artifact hashes were recorded once from the code as it stood before
cell partitions became site -> cell label vectors.  The ``verify``
stdout hashes were recorded from the code as it stood before the sweep
lost its worker pool and the audit suite its stand-in for the warped
kernel, before any source edit of that change.  They pin the exact bytes
of the artifacts, so any change that moves a single float in the sweep,
the graph export, the edge lists or the audit battery fails here.  Never
regenerate them to make a change pass: a change that is meant to alter
the numbers must say so and be judged on its own.
"""
import hashlib
import json
import re

import pytest

from mosco_graphs import cli

CONFIG = {
    "schema": 1,
    "model": "neumann",
    "resolution": 128,
    "modes": 16,
    "grid": {"n": [2, 6], "m": [2, 8], "l": [2, 4], "k": [2, 4]},
    "lambdas": [1.0, 2.0],
    "graph_exports": [[6, 8, 4, 3]],
}

RUN_SHA256 = {
    "convergence.csv": "7a6c6619791f9a1fc538fc9850c455deb3c46d9aee39576126d154a501e92da9",
    "graph_n6_m8_l4_k3.json": "a467f35e03eebef8097ca8b08c598dd2024af1c744e34ff27ad1596d77787662",
    "audits.json": "adb507c0c7443afee8afe7aa8e1bebb0823fd0d8f13591464b5f84590108e0fd",
}

EXPORT_SHA256 = {
    "graph_n6_m8_l4_k3.json": "a467f35e03eebef8097ca8b08c598dd2024af1c744e34ff27ad1596d77787662",
    "graph_n6_m8_l4_k3.edges.txt": "51cc6a64f6106a5245d54c6f5b0ebd71eddd3056b34970fc34686fbcd5aba208",
    "graph_n6_m8_l4_k3.vertices.txt": "2a7ac7db30a8378285ec56c8d0a955a7c33f60291aa41323e4a8365c75452c9e",
}


@pytest.mark.parametrize(
    "command, expected", [("run", RUN_SHA256), ("export-graph", EXPORT_SHA256)]
)
def test_artifact_bytes_match_stored_hashes(tmp_path, command, expected):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(CONFIG))
    out = tmp_path / "out"
    assert cli.main([command, "--config", str(config), "--out", str(out)]) == 0
    written = sorted(p.name for p in out.iterdir())
    assert written == sorted(expected)
    for name, digest in expected.items():
        assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest, name


VERIFY_SHA256 = {
    (): "62f1851f26d762e8e60802210958752ce074d65718045b8e0dce27fea86ee344",
    ("--inject-asymmetry",): "30a00278fa859682bc0de977dc6b03a62fc3d2288b80827d284d4ab492590386",
}

INJECTED_FAIL = (
    "[FAIL] extraction-symmetry: residual 1.000e+00 (tol 0.0e+00) -- "
    "asymmetric: random_conservative-warped"
)


@pytest.mark.parametrize("flags", sorted(VERIFY_SHA256))
def test_verify_stdout_matches_stored_hashes(tmp_path, capsys, flags):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(CONFIG))
    code = cli.main(["verify", "--config", str(config), *flags])
    out = capsys.readouterr().out
    assert code == (1 if flags else 0)
    fails = re.findall(r"^\[FAIL\].*$", out, flags=re.M)
    assert fails == ([INJECTED_FAIL] if flags else [])
    assert hashlib.sha256(out.encode()).hexdigest() == VERIFY_SHA256[flags]
