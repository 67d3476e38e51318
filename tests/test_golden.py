"""Output bytes of a small run against stored hashes.

The hashes pin the exact bytes of the artifacts, so any change that
moves a single float in the sweep, the graph export, the edge lists or
the audit battery fails here.  Never regenerate them to make a change
pass: a change that is meant to alter the numbers must say so and be
judged on its own.

The graph JSON, edge-list and vertex hashes were recorded before cell
partitions became site -> cell label vectors, and no change has moved
them since.  The hashes of ``convergence.csv``, ``audits.json`` and both
``verify`` stdouts are the ones the deviation gate of ``test_deviation``
covers.  They were updated when cell averages went through
``cell_sums``, when stage generators were assembled from factored image
modes and when ``AmbientSpace.coefficients`` became one flattened
matmul, and the hashes of ``audits.json`` and both ``verify`` stdouts
again when ``graph_energy`` took its Laplacian form, when the audit
families drew their probes as one batch, when ``graph_energy`` took
its conductance part on centred values and when the last five families
that drew one probe at a time took one batch each, each time with that
gate passing against its unchanged references.  A change that
reorders floating-point arithmetic may update these four, and only
these, in the same way.
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
    "convergence.csv": "bf1a5366816f6bf6e7b1b2335b90b365e1851fd12201f24b1b884b1b9c929e0d",
    "graph_n6_m8_l4_k3.json": "a467f35e03eebef8097ca8b08c598dd2024af1c744e34ff27ad1596d77787662",
    "audits.json": "5ab12c972dc4e6dc141fa87d0bb7b102de851d65bda4d487b6f3e508fc446e29",
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
    (): "86102cfb4a04a0274c9d126d94123dcf96fdc48d6718d65ecae007d23cf8123b",
    ("--inject-asymmetry",): "4e184b7059f3a15c35092dda9172505c30af53e188b14f8fd1cdeb11de2173cf",
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
