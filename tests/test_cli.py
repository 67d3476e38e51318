"""Config validation and the command-line surface, run in process."""
import errno
import json
import os
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from test_golden import CONFIG as GOLDEN_CONFIG

import mosco_graphs
from mosco_graphs import (
    OrthonormalBasis,
    SpectralModel,
    StageIndex,
    cli,
    convergence,
    final_stage_graph,
    neumann_model,
    read_edge_list,
    read_graph_json,
)
from mosco_graphs.config import (
    KNOWN_FIELDS,
    ExperimentConfig,
    TestVectorSpec as VectorSpec,  # an alias pytest does not collect
    config_from_dict,
    default_config,
    load_config,
)
from mosco_graphs.errors import ConfigError
from mosco_graphs.graphs import EDGE_EPS


def minimal_dict(out_dir):
    return {
        "schema": 1,
        "resolution": 256,
        "modes": 16,
        "grid": {"n": [2, 4], "m": [4]},
        "lambdas": [1.0],
        "test_vectors": {"basis": 2, "span": 1, "step": 1, "constant": True},
        "graph_exports": [],
        "out_dir": str(out_dir),
    }


@pytest.fixture(scope="module")
def run_artifacts(tmp_path_factory):
    """One completed ``run`` invocation shared by the read-only tests."""
    base = tmp_path_factory.mktemp("cli-run")
    out = base / "out"
    cfg_path = base / "config.json"
    cfg_path.write_text(json.dumps(minimal_dict(out)))
    code = cli.main(["run", "--config", str(cfg_path)])
    assert code == 0
    return cfg_path, out


class TestConfigValidation:
    def test_readme_lists_the_default_config(self):
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        section = readme[readme.index("All fields with their defaults") :]
        block = json.loads(re.search(r"```json\n(.*?)```", section, flags=re.S).group(1))
        assert set(block) == KNOWN_FIELDS
        assert config_from_dict(block) == default_config()

    def test_messages_name_the_field(self):
        cases = [
            ({"schema": 1, "resolution": 100, "modes": 64}, "over-resolve"),
            ({"schema": 1, "wavelets": 3}, "unknown field"),
            ({"schema": 2}, "unsupported"),
            ({"schema": 1, "grid": {"n": [2], "m": [4], "k": [1]}}, "grid: k requires l"),
            ({"schema": 1, "basis": "fourier"}, "basis"),
            ({"schema": 1, "grid": {"n": [4, 2], "m": [4]}}, "strictly increasing"),
            ({"schema": 1, "lambdas": [1.0, -2.0]}, "positive"),
            ({"schema": 1, "graph_exports": [[4, 8, 4]]}, "quadruple"),
            ({"schema": 1, "test_vectors": {"spam": 1}}, "unknown field"),
            ({"schema": 1, "seed": True}, "integer"),
            ({"schema": 1, "seed": -3}, "seed: -3 is below the minimum 0"),
            ({"schema": 1, "grid": {"n": [2], "q": [1]}}, "unknown axis"),
            ({}, "missing required"),
        ]
        for data, needle in cases:
            with pytest.raises(ConfigError, match=needle):
                config_from_dict(data)

    # Every rule a config obeys, whether it is read from a file or built in
    # code: (JSON fields over the minimal config, dataclass overrides of the
    # default config, message).  A tuple export stands for an index that
    # StageIndex itself refuses to build (see test_pipeline.py).
    RULES = {
        "decreasing-axis": (
            {"grid": {"n": [4, 2]}}, {"grid_n": (4, 2)},
            r"grid: n values must be strictly increasing, got \(4, 2\)",
        ),
        "empty-axis": (
            {"grid": {"n": [2], "m": []}}, {"grid_m": ()}, "grid: m needs at least one value",
        ),
        "k-without-l": (
            {"grid": {"n": [2], "m": [4], "k": [1]}}, {"grid_l": None}, "grid: k requires l",
        ),
        "grid-n": (
            {"grid": {"n": [2, 1100]}}, {"grid_n": (2, 1100)},
            r"grid: n must be in 0\.\.1023, got 1100",
        ),
        "grid-k": (
            {"grid": {"n": [2], "m": [4], "l": [2], "k": [2, 32]}}, {"grid_k": (2, 32)},
            r"grid: k must be in 0\.\.31, got 32",
        ),
        "export-n": (
            {"graph_exports": [[1100, 2, 1, 1]]}, {"graph_exports": ((1100, 2, 1, 1),)},
            r"graph_exports\[0\]: ",
        ),
        "export-k": (
            {"graph_exports": [[4, 8, 4, 32]]}, {"graph_exports": ((4, 8, 4, 32),)},
            r"graph_exports\[0\]: ",
        ),
        "nan-lambda": (
            {"lambdas": [1.0, float("nan")]}, {"lambdas": (1.0, float("nan"))},
            r"lambdas\[1\]: resolvent parameter must be a finite float",
        ),
        "negative-lambda": (
            {"lambdas": [-1.0]}, {"lambdas": (-1.0,)},
            r"lambdas\[0\]: resolvent parameter must be positive",
        ),
        "repeated-lambda": (
            {"lambdas": [1.0, 1.0]}, {"lambdas": (1.0, 1.0)}, r"lambdas\[1\]: 1.0 repeats",
        ),
        "no-lambda": ({"lambdas": []}, {"lambdas": ()}, "lambdas: expected at least one"),
        "no-modes": ({"modes": 0}, {"modes": 0}, "modes: 0 is below the minimum 1"),
        "repeated-export": (
            {"graph_exports": [[4, 8, 4, 4], [2, 4, 2, 2], [4, 8, 4, 4]]},
            {"graph_exports": (StageIndex(4, 8, 4, 4), StageIndex(4, 8, 4, 4))},
            r"graph_exports\[\d\]: n4_m8_l4_k4 repeats an earlier export",
        ),
        "partial-export": (
            {"graph_exports": [[4, None, None, None]]}, {"graph_exports": (StageIndex(4),)},
            r"graph_exports\[0\]: StageIndex\(n=4, m=None, l=None, k=None\) is not a full",
        ),
        "string-modes": ({"modes": "8"}, {"modes": "8"}, "modes: expected an integer, got '8'"),
        "float-seed": ({"seed": 1.5}, {"seed": 1.5}, r"seed: expected an integer, got 1\.5"),
        "float-resolution": (
            {"resolution": 2048.0}, {"resolution": 2048.0},
            r"resolution: expected an integer, got 2048\.0",
        ),
        "number-model": ({"model": 3}, {"model": 3}, "model: expected a string, got 3"),
        "number-out-dir": ({"out_dir": 5}, {"out_dir": 5}, "out_dir: expected a string, got 5"),
        "empty-out-dir": (
            {"out_dir": ""}, {"out_dir": ""},
            r'out_dir: must not be empty; use "\." for the working directory',
        ),
        "boolean-lambda": (
            {"lambdas": [1.0, True]}, {"lambdas": (1.0, True)},
            r"lambdas\[1\]: expected a number, got True",
        ),
        "scalar-lambdas": ({"lambdas": 5}, {"lambdas": 5}, "lambdas: expected a list, got 5"),
        "scalar-exports": (
            {"graph_exports": 5}, {"graph_exports": 5}, "graph_exports: expected a list, got 5",
        ),
        "no-grid-n": (
            {"grid": {"n": None, "m": [4]}}, {"grid_n": None},
            "grid: n must be a list of integers, got None",
        ),
    }

    @pytest.mark.parametrize("fields, overrides, needle", RULES.values(), ids=RULES.keys())
    def test_each_rule_holds_for_files_code_and_the_cli(
        self, tmp_path, capsys, monkeypatch, fields, overrides, needle
    ):
        def no_sweep(*args, **kwargs):
            raise AssertionError("the sweep ran")

        monkeypatch.setattr(cli, "iterated_limit_sweep", no_sweep)
        data = minimal_dict(tmp_path / "out")
        data.update(fields)
        with pytest.raises(ConfigError, match=needle):
            config_from_dict(data)
        with pytest.raises(ConfigError, match=needle):
            replace(default_config(), **overrides)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(data))
        for command in ("run", "export-graph"):
            assert cli.main([command, "--config", str(path)]) == cli.EXIT_CONFIG_ERROR
            err = capsys.readouterr().err
            assert re.match(f"config error: {needle}", err) and err.count("\n") == 1
            assert not (tmp_path / "out").exists()

    def test_test_vector_counts_are_not_negative(self):
        with pytest.raises(ConfigError, match=r"test_vectors\.span: -1 is below the minimum 0"):
            config_from_dict({"schema": 1, "test_vectors": {"span": -1}})
        with pytest.raises(ConfigError, match=r"test_vectors\.basis: -2 is below the minimum 0"):
            VectorSpec(n_basis=-2)

    def test_test_vector_spec_checks_its_types(self):
        with pytest.raises(ConfigError, match="test_vectors.constant: expected true or false, got 'no'"):
            VectorSpec(include_constant="no")
        with pytest.raises(ConfigError, match=r"test_vectors\.step: expected an integer, got 1\.0"):
            VectorSpec(n_step=1.0)
        with pytest.raises(ConfigError, match="test_vectors.constant: expected true or false, got 1"):
            config_from_dict({"schema": 1, "test_vectors": {"constant": 1}})
        with pytest.raises(ConfigError, match=r"test_vectors: expected a TestVectorSpec, got \{"):
            replace(default_config(), test_vectors={"basis": 2})

    def test_configs_built_from_json_and_code_compare_equal(self):
        built = replace(
            default_config(), grid_n=np.array([2, 4, 6, 8, 10, 12]), grid_m=[1, 2, 4, 8, 16],
            lambdas=[1.0, 2.0], graph_exports=list(default_config().graph_exports),
        )
        assert built == default_config() and hash(built) == hash(default_config())
        assert all(type(v) is int for v in built.grid_n)

    def test_n_only_grid_runs(self, tmp_path):
        # The raw difference-quotient forms: m, l and k stay blank.
        data = {"schema": 1, "resolution": 256, "modes": 16, "grid": {"n": [2, 4]},
                "graph_exports": [], "out_dir": str(tmp_path / "out")}
        path = tmp_path / "config.json"
        path.write_text(json.dumps(data))
        assert cli.main(["run", "--config", str(path)]) == cli.EXIT_OK
        rows = (tmp_path / "out" / "convergence.csv").read_text().splitlines()[1:]
        assert len(rows) == 2 * len(default_config().lambdas) * 15
        assert {tuple(row.split(",")[1:4]) for row in rows} == {("", "", "")}
        assert {row.split(",")[0] for row in rows} == {"2", "4"}

    def test_rows_are_sorted_by_stage_then_ascending_lambda(self, tmp_path):
        # Lambdas listed in descending order on an (n, m) grid: l and k stay
        # blank, and the rows come out by n, m, lambda and vector name.
        data = {"schema": 1, "model": "ring", "resolution": 256, "modes": 16,
                "grid": {"n": [2, 4], "m": [4, 8]}, "lambdas": [2.0, 0.5],
                "graph_exports": [], "out_dir": str(tmp_path / "out")}
        path = tmp_path / "config.json"
        path.write_text(json.dumps(data))
        assert cli.main(["run", "--config", str(path)]) == cli.EXIT_OK
        rows = [
            row.split(",")
            for row in (tmp_path / "out" / "convergence.csv").read_text().splitlines()[1:]
        ]
        assert len(rows) == 4 * 2 * 15
        assert {(row[2], row[3]) for row in rows} == {("", "")}
        keys = [(int(row[0]), int(row[1]), float(row[4]), row[5]) for row in rows]
        assert keys == sorted(keys)
        assert [row[4] for row in rows[:30]] == ["0.5"] * 15 + ["2"] * 15

    @pytest.mark.parametrize(
        "lambdas, needle",
        [
            ([1.0, float("nan")], r"lambdas\[1\]: resolvent parameter must be a finite float"),
            ([float("inf")], r"lambdas\[0\]: resolvent parameter must be a finite float"),
            ([1.0, 2.0, 1.0], r"lambdas\[2\]: 1.0 repeats"),
        ],
        ids=["nan", "inf", "repeated"],
    )
    def test_non_finite_or_repeated_lambdas_are_refused(self, tmp_path, capsys, lambdas, needle):
        # json reads NaN and Infinity; neither may reach the solver, and a
        # repeated lambda would write every CSV row twice.
        data = minimal_dict(tmp_path / "out")
        data["lambdas"] = lambdas
        path = tmp_path / "config.json"
        path.write_text(json.dumps(data))
        assert cli.main(["run", "--config", str(path)]) == cli.EXIT_CONFIG_ERROR
        assert re.search(needle, capsys.readouterr().err)
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "command, field, value, needle",
        [
            ("run", "grid", {"n": [2, 1100], "m": [4]}, r"grid: n must be in 0\.\.1023, got 1100"),
            (
                "export-graph", "graph_exports", [[1100, 2, 1, 1]],
                r"graph_exports\[0\]: n must be in 0\.\.1023, got 1100",
            ),
        ],
        ids=["grid.n", "graph_exports"],
    )
    def test_time_levels_beyond_float_range_are_refused(
        self, tmp_path, capsys, command, field, value, needle
    ):
        # 2^n overflows a float from n = 1024 on.
        data = minimal_dict(tmp_path / "out")
        data[field] = value
        path = tmp_path / "config.json"
        path.write_text(json.dumps(data))
        assert cli.main([command, "--config", str(path)]) == cli.EXIT_CONFIG_ERROR
        assert re.search(needle, capsys.readouterr().err)

    @pytest.mark.parametrize(
        "command, field, value, needle",
        [
            (
                "run",
                "grid",
                {"n": [2], "m": [4], "l": [2], "k": [2, 32]},
                r"grid: k must be in 0\.\.31, got 32",
            ),
            (
                "export-graph", "graph_exports", [[4, 8, 4, 32]],
                r"graph_exports\[0\]: k must be in 0\.\.31, got 32",
            ),
        ],
        ids=["grid.k", "graph_exports"],
    )
    def test_level_set_resolutions_beyond_int64_labels_are_refused(
        self, tmp_path, capsys, command, field, value, needle
    ):
        # The overflow cell label -4**k - 1 leaves int64 from k = 32 on.
        data = minimal_dict(tmp_path / "out")
        data[field] = value
        path = tmp_path / "config.json"
        path.write_text(json.dumps(data))
        assert cli.main([command, "--config", str(path)]) == cli.EXIT_CONFIG_ERROR
        assert re.search(needle, capsys.readouterr().err)

    @pytest.mark.parametrize("command", ["run", "export-graph"])
    def test_unknown_or_malformed_model_is_a_config_error(self, tmp_path, capsys, command):
        table = tmp_path / "table.txt"
        table.write_text("1.0 0.5 x\n")
        nan_table = tmp_path / "nan.txt"
        nan_table.write_text("0 1 1 1 nan\n")
        for model, needle in [
            ("nope", "unknown model 'nope'"),
            (str(table), "could not convert"),
            (str(nan_table), "samples must be finite"),
        ]:
            data = minimal_dict(tmp_path / "out")
            data["model"] = model
            data["graph_exports"] = [[2, 4, 2, 2]]
            path = tmp_path / "config.json"
            path.write_text(json.dumps(data))
            assert cli.main([command, "--config", str(path)]) == cli.EXIT_CONFIG_ERROR
            err = capsys.readouterr().err
            assert err.startswith("config error: model: ") and needle in err
            assert not (tmp_path / "out").exists()

    def test_empty_battery_is_a_config_error(self, tmp_path, capsys):
        data = minimal_dict(tmp_path / "out")
        data["test_vectors"] = {"basis": 0, "span": 0, "step": 0, "constant": False}
        path = tmp_path / "config.json"
        path.write_text(json.dumps(data))
        assert cli.main(["run", "--config", str(path)]) == cli.EXIT_CONFIG_ERROR
        assert capsys.readouterr().err == (
            "config error: test_vectors: battery: expected at least one test vector\n"
        )
        assert not (tmp_path / "out").exists()

    def test_battery_larger_than_the_space_is_a_config_error(self, tmp_path, capsys):
        data = minimal_dict(tmp_path / "out")
        data["test_vectors"] = {"span": 1, "step": 256}
        path = tmp_path / "config.json"
        path.write_text(json.dumps(data))
        assert cli.main(["run", "--config", str(path)]) == cli.EXIT_CONFIG_ERROR
        assert capsys.readouterr().err == (
            "config error: test_vectors: span + step = 257 exceeds the 256 sites\n"
        )
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "command, builder",
        [("run", "get_model"), ("export-graph", "get_model"), ("verify", "builtin_models")],
    )
    def test_a_model_too_large_for_memory_is_a_config_error(
        self, tmp_path, capsys, monkeypatch, command, builder
    ):
        def exhausted(*args, **kwargs):
            raise MemoryError

        monkeypatch.setattr(cli, builder, exhausted)
        out = tmp_path / "out"
        assert cli.main([command, "--out", str(out)]) == cli.EXIT_CONFIG_ERROR
        assert capsys.readouterr().err == (
            "config error: resolution: 1024 sites do not fit in memory\n"
        )

    def test_direct_construction_validates_too(self):
        with pytest.raises(ConfigError, match="over-resolve"):
            ExperimentConfig(resolution=16, modes=64)
        with pytest.raises(ConfigError, match="seed: -1 is below the minimum 0"):
            ExperimentConfig(seed=-1)

    @pytest.mark.parametrize("command", ["run", "verify", "export-graph"])
    def test_negative_seed_override_is_refused(self, tmp_path, capsys, command):
        out = tmp_path / "out"
        args = [command, "--seed", "-1", "--out", str(out)]
        assert cli.main(args) == cli.EXIT_CONFIG_ERROR
        assert capsys.readouterr().err == "config error: seed: -1 is below the minimum 0\n"
        assert not out.exists()

    @pytest.mark.parametrize("command", ["run", "export-graph"])
    @pytest.mark.parametrize("via", ["--out", "out_dir"])
    @pytest.mark.parametrize(
        "where, reason", [("file", "File exists"), ("under-file", "Not a directory")]
    )
    def test_output_path_that_cannot_be_a_directory_is_refused(
        self, tmp_path, capsys, monkeypatch, command, via, where, reason
    ):
        def no_sweep(*args, **kwargs):
            raise AssertionError("the sweep ran")

        monkeypatch.setattr(cli, "iterated_limit_sweep", no_sweep)
        blocker = tmp_path / "blocker"
        blocker.write_text("not a directory\n")
        out = blocker if where == "file" else blocker / "out"
        data = minimal_dict(out if via == "out_dir" else tmp_path / "unused")
        data["graph_exports"] = [[2, 4, 2, 2]]
        path = tmp_path / "config.json"
        path.write_text(json.dumps(data))
        args = [command, "--config", str(path)] + (["--out", str(out)] if via == "--out" else [])
        assert cli.main(args) == cli.EXIT_CONFIG_ERROR
        err = capsys.readouterr().err
        assert err == f"config error: out_dir: cannot create directory {out}: {reason}\n"
        assert blocker.read_text() == "not a directory\n"

    def test_bad_json_reports_the_line(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{\n "schema": 1,\n oops\n}\n')
        with pytest.raises(ConfigError, match="line 3"):
            load_config(path)

    def test_missing_file_is_a_config_error(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            load_config(tmp_path / "nope.json")


class TestArtifacts:
    """Every artifact path is checked before the work starts, and every
    artifact is written whole or not at all."""

    RUN = ["convergence.csv", "graph_n2_m4_l2_k2.json", "audits.json"]
    EXPORT = [f"graph_n2_m4_l2_k2{suffix}" for suffix in (".json", ".edges.txt", ".vertices.txt")]

    def _config(self, tmp_path):
        data = minimal_dict(tmp_path / "out")
        data["graph_exports"] = [[2, 4, 2, 2]]
        path = tmp_path / "config.json"
        path.write_text(json.dumps(data))
        return path

    @pytest.mark.parametrize(
        "command, name", [("run", n) for n in RUN] + [("export-graph", n) for n in EXPORT]
    )
    def test_an_artifact_path_that_is_not_a_file_is_refused_first(
        self, tmp_path, capsys, monkeypatch, command, name
    ):
        def unreachable(*args, **kwargs):
            raise AssertionError("the work started")

        monkeypatch.setattr(cli, "iterated_limit_sweep", unreachable)
        monkeypatch.setattr(cli, "final_stage_graph", unreachable)
        blocker = tmp_path / "out" / name
        blocker.mkdir(parents=True)
        assert cli.main([command, "--config", str(self._config(tmp_path))]) == cli.EXIT_CONFIG_ERROR
        err = capsys.readouterr().err
        assert err == f"config error: out_dir: {blocker} exists and is not a regular file\n"
        assert blocker.is_dir() and os.listdir(tmp_path / "out") == [name]

    @pytest.mark.parametrize(
        "command, failing, kept",
        [
            ("run", "convergence.csv", []),
            ("run", "audits.json", ["convergence.csv", "graph_n2_m4_l2_k2.json"]),
            ("export-graph", "graph_n2_m4_l2_k2.json", []),
            ("export-graph", "graph_n2_m4_l2_k2.vertices.txt", ["graph_n2_m4_l2_k2.json"]),
        ],
    )
    def test_a_write_failing_midway_leaves_no_partial_file(
        self, tmp_path, capsys, monkeypatch, command, failing, kept
    ):
        real_write_text = Path.write_text

        def disk_full_on(self, text, *args, **kwargs):
            if self.name != f".{failing}.tmp":
                return real_write_text(self, text, *args, **kwargs)
            real_write_text(self, text[: len(text) // 2])
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC), str(self))

        monkeypatch.setattr(Path, "write_text", disk_full_on)
        config = self._config(tmp_path)
        out = tmp_path / "out"
        out.mkdir()
        (out / failing).write_text("the previous run\n")
        assert cli.main([command, "--config", str(config)]) == cli.EXIT_CONFIG_ERROR
        err = capsys.readouterr().err
        assert err.startswith(f"config error: out_dir: cannot write {out}")
        assert err.endswith(": No space left on device\n") and failing in err
        # The failed write leaves the old file as it was, and no temporary.
        assert sorted(os.listdir(out)) == sorted(kept + [failing])
        assert (out / failing).read_text() == "the previous run\n"


class TestRunCommand:
    def test_csv_shape(self, run_artifacts):
        _, out = run_artifacts
        lines = (out / "convergence.csv").read_text().splitlines()
        assert lines[0] == cli.CSV_HEADER
        # 2 grid points x 1 lambda x 5 battery vectors.
        assert len(lines) == 11
        first = lines[1].split(",")
        assert first[:4] == ["2", "4", "", ""]
        assert first[5] == "basis_1"
        assert all(line.split(",")[9] == "0" for line in lines[1:])

    def test_floats_survive_a_parse_cycle(self, run_artifacts):
        _, out = run_artifacts
        for line in (out / "convergence.csv").read_text().splitlines()[1:]:
            for field in line.split(",")[6:9]:
                assert f"{float(field):.17g}" == field

    def test_audits_json_shape(self, run_artifacts):
        _, out = run_artifacts
        data = json.loads((out / "audits.json").read_text())
        assert data["schema"] == 1
        assert data["all_passed"] is True
        assert "resolvent convergence" in data["proxy_note"]
        assert len(data["audits"]) == 58
        for entry in data["audits"]:
            assert set(entry) == {"name", "passed", "residual", "tolerance", "detail"}

    def test_reruns_are_byte_identical(self, run_artifacts, tmp_path):
        cfg_path, out = run_artifacts
        second = tmp_path / "again"
        assert cli.main(["run", "--config", str(cfg_path), "--out", str(second)]) == 0
        for name in ("convergence.csv", "audits.json"):
            assert (second / name).read_bytes() == (out / name).read_bytes()

    def test_seed_override_changes_the_battery(self, run_artifacts, tmp_path):
        cfg_path, out = run_artifacts
        reseeded = tmp_path / "reseeded"
        assert (
            cli.main(
                ["run", "--config", str(cfg_path), "--out", str(reseeded), "--seed", "9"]
            )
            == 0
        )
        assert (reseeded / "convergence.csv").read_bytes() != (
            out / "convergence.csv"
        ).read_bytes()


class TestVerifyCommand:
    def test_clean_battery_passes(self, run_artifacts, capsys):
        cfg_path, _ = run_artifacts
        assert cli.main(["verify", "--config", str(cfg_path)]) == 0
        out = capsys.readouterr().out
        assert "[pass] extraction-symmetry" in out
        assert "all 58 audits passed" in out

    def test_injected_asymmetry_fails_loudly(self, run_artifacts, capsys):
        cfg_path, _ = run_artifacts
        code = cli.main(
            ["verify", "--config", str(cfg_path), "--inject-asymmetry"]
        )
        assert code == 1
        out = capsys.readouterr().out
        assert "[FAIL] extraction-symmetry" in out
        assert "audit(s) failed" in out


class TestExportCommand:
    def test_explicit_index_writes_all_three_files(self, run_artifacts, tmp_path):
        cfg_path, _ = run_artifacts
        dest = tmp_path / "graphs"
        code = cli.main(
            [
                "export-graph",
                "--config", str(cfg_path),
                "--out", str(dest),
                "--index", "4,6,2,2",
            ]
        )
        assert code == 0
        stem = "graph_n4_m6_l2_k2"
        assert (dest / f"{stem}.json").exists()
        assert (dest / f"{stem}.edges.txt").exists()
        assert (dest / f"{stem}.vertices.txt").exists()
        graph = read_graph_json(dest / f"{stem}.json")
        assert graph.scale == 2.0**4

    def test_bad_index_strings(self, run_artifacts, tmp_path, capsys):
        cfg_path, _ = run_artifacts
        for bad in ("4,6,2", "4,six,2,2", "1100,2,1,1", "4,8,4,32"):
            code = cli.main(
                [
                    "export-graph",
                    "--config", str(cfg_path),
                    "--out", str(tmp_path / "y"),
                    "--index", bad,
                ]
            )
            assert code == 2
            assert capsys.readouterr().err.startswith("config error: --index: ")

    @pytest.mark.parametrize(
        "grid, defect, needle",
        [
            (
                {"n": [32], "m": [16], "l": [2], "k": [8]},
                "indefinite",
                r"config error: grid: n32_m16_l2_k8: generator has positive eigenvalue",
            ),
            (
                {"n": [30], "m": [4, 8, 16], "l": [2, 4], "k": [2, 4, 8]},
                "inaccurate",
                r"config error: grid: n30_m\d+_l\d_k\d: resolvent solve residual",
            ),
        ],
        ids=["nsd-guard", "residual-guard"],
    )
    def test_deep_grid_levels_fail_cleanly(
        self, tmp_path, capsys, monkeypatch, grid, defect, needle
    ):
        # A stage that trips a guard at a deep level used to end in a
        # traceback and exit code 1, the code of a failed audit.  The
        # defects are real: the per-mode decay with its sign flipped makes
        # the generator indefinite, and a solve off by 0.1 % is no rounding.
        if defect == "indefinite":
            decay = SpectralModel.decay
            monkeypatch.setattr(SpectralModel, "decay", lambda model, t: -decay(model, t))
        else:
            solve = convergence.scipy.linalg.solve
            monkeypatch.setattr(
                convergence.scipy.linalg, "solve", lambda a, b, **kw: 1.001 * solve(a, b, **kw)
            )
        data = minimal_dict(tmp_path / "out")
        data.update(resolution=128, modes=16, grid=grid)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(data))
        assert cli.main(["run", "--config", str(path)]) == cli.EXIT_CONFIG_ERROR
        err = capsys.readouterr().err
        assert re.match(needle, err) and "Traceback" not in err

    @pytest.mark.parametrize(
        "grid",
        [
            {"n": [32], "m": [16], "l": [2], "k": [8]},
            {"n": [30], "m": [4, 8, 16], "l": [2, 4], "k": [2, 4, 8]},
        ],
        ids=["n32", "n30"],
    )
    def test_deep_grid_levels_whose_only_defect_is_rounding_run(self, tmp_path, capsys, grid):
        # Guards absolute in 1e-9 refused these stages, whose rounding grows
        # like 2^n; scaled by the generator norm, they let them through.
        data = minimal_dict(tmp_path / "out")
        data.update(resolution=128, modes=16, grid=grid)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(data))
        assert cli.main(["run", "--config", str(path)]) == 0
        assert "all 58 audits passed" in capsys.readouterr().out

    def test_model_bounds_are_enforced_at_startup(self, tmp_path, capsys):
        # Every grid and export index is checked against the model before
        # the output directory exists; the message names field and label.
        model = neumann_model(64, 4)
        table = tmp_path / "four_modes.txt"
        table.write_text(
            "".join(
                " ".join(f"{x:.17g}" for x in [lam, *vec]) + "\n"
                for lam, vec in zip(model.eigenvalues, model.basis.vectors)
            )
        )
        exports = [[4, 8, 9, 2]]
        cases = [
            ("export-graph", {"graph_exports": [[4, 32, 4, 2]]},
             "graph_exports: n4_m32_l4_k2: m must be in 1..16, got 32"),
            ("export-graph", {"graph_exports": exports},
             "graph_exports: n4_m8_l9_k2: l must be in 1..4, got 9"),
            ("run", {"graph_exports": exports},
             "graph_exports: n4_m8_l9_k2: l must be in 1..4, got 9"),
            ("run", {"grid": {"n": [2], "m": [4], "l": [1, 5]}},
             "grid: n2_m4_l5: l must be in 1..4, got 5"),
            # A table with fewer modes than ``modes`` is refused at startup,
            # not when the sweep first reaches the too-large m.
            ("run", {"model": str(table), "grid": {"n": [2], "m": [2, 8]}},
             "grid: n2_m8: m must be in 1..4, got 8"),
            # The loader leaves m against the basis to this check.
            ("run", {"modes": 8, "grid": {"n": [2], "m": [16]}},
             "grid: n2_m16: m must be in 1..8, got 16"),
        ]
        path = tmp_path / "config.json"
        for command, fields, needle in cases:
            data = minimal_dict(tmp_path / "out")
            data.update(fields)
            path.write_text(json.dumps(data))
            assert cli.main([command, "--config", str(path)]) == cli.EXIT_CONFIG_ERROR
            assert capsys.readouterr().err == f"config error: {needle}\n"
            assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("modes", [1, 4, 7])
    @pytest.mark.parametrize("command", ["run", "verify"])
    def test_audited_commands_need_the_battery_modes(self, tmp_path, capsys, command, modes):
        # The audit battery cuts at m = 8; fewer modes are refused before
        # any output exists.
        data = minimal_dict(tmp_path / "out")
        data.update(modes=modes, grid={"n": [2], "m": [1]})
        path = tmp_path / "config.json"
        path.write_text(json.dumps(data))
        assert cli.main([command, "--config", str(path)]) == cli.EXIT_CONFIG_ERROR
        assert capsys.readouterr().err == (
            f"config error: modes: {modes} is below the audit battery's minimum 8\n"
        )
        assert not (tmp_path / "out").exists()

    def test_export_runs_no_audits_and_takes_few_modes(self, tmp_path):
        data = minimal_dict(tmp_path / "out")
        data.update(modes=4, grid={"n": [2], "m": [4]})
        path = tmp_path / "config.json"
        path.write_text(json.dumps(data))
        assert cli.main(["export-graph", "--config", str(path), "--index", "4,4,4,2"]) == cli.EXIT_OK
        assert (tmp_path / "out" / "graph_n4_m4_l4_k2.json").exists()

    def test_verify_ignores_the_sweep_grid(self, tmp_path, capsys):
        # verify runs no sweep, so a grid m beyond the basis does not stop it.
        data = minimal_dict(tmp_path / "out")
        data.update(modes=8, resolution=64, grid={"n": [2], "m": [16]})
        path = tmp_path / "config.json"
        path.write_text(json.dumps(data))
        assert cli.main(["verify", "--config", str(path)]) == cli.EXIT_OK
        assert capsys.readouterr().out.endswith("all 58 audits passed\n")

    def test_export_ignores_the_sweep_grid(self, run_artifacts, tmp_path):
        # export-graph runs no sweep, so a grid level past the exhaustion
        # depth does not stop it.
        cfg_path, _ = run_artifacts
        data = json.loads(cfg_path.read_text())
        data["grid"] = {"n": [2], "m": [4], "l": [5]}
        path = tmp_path / "config.json"
        path.write_text(json.dumps(data))
        args = ["export-graph", "--config", str(path), "--out", str(tmp_path / "g")]
        assert cli.main([*args, "--index", "4,6,2,2"]) == cli.EXIT_OK

    def test_too_deep_time_index_fails_cleanly(self, run_artifacts, tmp_path, capsys):
        # 2^-12 is short enough that the 16-mode kernel rings negative;
        # the export must refuse rather than traceback or clip silently.
        cfg_path, _ = run_artifacts
        code = cli.main(
            [
                "export-graph",
                "--config", str(cfg_path),
                "--out", str(tmp_path / "deep"),
                "--index", "12,16,4,2",
            ]
        )
        err = capsys.readouterr().err
        assert code == cli.EXIT_CONFIG_ERROR
        assert "n12_m16_l4_k2" in err
        assert "positivity" in err


def test_haar_basis_serves_every_command(tmp_path, capsys):
    data = minimal_dict(tmp_path / "out")
    data.update(basis="haar", grid={"n": [2, 4], "m": [4], "l": [2], "k": [2]})
    data["graph_exports"] = [[4, 8, 4, 2]]
    path = tmp_path / "config.json"
    path.write_text(json.dumps(data))
    for command in ("run", "verify"):
        assert cli.main([command, "--config", str(path)]) == cli.EXIT_OK
        assert capsys.readouterr().out.endswith("all 58 audits passed\n")
    dest = tmp_path / "graphs"
    assert cli.main(["export-graph", "--config", str(path), "--out", str(dest)]) == cli.EXIT_OK
    stem = dest / "graph_n4_m8_l4_k2"
    model = neumann_model(256, 16)
    graph = final_stage_graph(
        model, OrthonormalBasis.haar(model.space, 16), StageIndex(4, 8, 4, 2)
    )
    kept = np.where(graph.conductances > EDGE_EPS, graph.conductances, 0.0)
    for back in (
        read_graph_json(f"{stem}.json"),
        read_edge_list(f"{stem}.edges.txt", f"{stem}.vertices.txt"),
    ):
        assert back.scale == graph.scale
        assert back.vertex_weights.tobytes() == graph.vertex_weights.tobytes()
        assert back.killing.tobytes() == graph.killing.tobytes()
        assert back.conductances.tobytes() == kept.tobytes()
    # run writes the same graph file as export-graph.
    ran = tmp_path / "out" / f"{stem.name}.json"
    assert Path(f"{stem}.json").read_bytes() == ran.read_bytes()


class TestParser:
    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as info:
            cli.main(["--version"])
        assert info.value.code == 0
        assert "mosco-graphs" in capsys.readouterr().out

    def test_subcommand_required(self, capsys):
        with pytest.raises(SystemExit) as info:
            cli.main([])
        assert info.value.code == 2


# Run in a fresh process on the golden config: import the package, export
# and read back its graph, then run it, and print after each step whether
# scipy.linalg is loaded.
_LINALG_PROBE = """
import json, sys
from pathlib import Path
from mosco_graphs import cli, read_edge_list, read_graph_json
config, out = sys.argv[1], Path(sys.argv[2])
loaded = ["scipy.linalg" in sys.modules]
assert cli.main(["export-graph", "--config", config, "--out", str(out)]) == 0
stem = str(out / "graph_n6_m8_l4_k3")
read_graph_json(stem + ".json")
read_edge_list(stem + ".edges.txt", stem + ".vertices.txt")
loaded.append("scipy.linalg" in sys.modules)
loaded.append("numpy.ma" in sys.modules)
assert cli.main(["run", "--config", config, "--out", str(out / "run")]) == 0
loaded.append("scipy.linalg" in sys.modules)
print(json.dumps(loaded))
"""


def test_only_a_resolvent_solve_loads_scipy_linalg(tmp_path):
    # Export and read-back processes never solve, so they must not pay
    # for the scipy.linalg import; a run solves, which shows the probe
    # can see the module.  Nor do they load numpy.ma, which np.unique
    # imports on first use.
    config = tmp_path / "config.json"
    config.write_text(json.dumps(GOLDEN_CONFIG))
    src = str(Path(mosco_graphs.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run(
        [sys.executable, "-c", _LINALG_PROBE, str(config), str(tmp_path / "out")],
        capture_output=True,
        text=True,
        env=env,
        timeout=600,
    )
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout.splitlines()[-1]) == [False, False, False, True]


def test_run_bytes_do_not_depend_on_the_blas_thread_count(tmp_path):
    # One run per thread count, each in its own process, since BLAS reads
    # its thread count once at load.
    config = tmp_path / "config.json"
    config.write_text(json.dumps(GOLDEN_CONFIG))
    src = str(Path(mosco_graphs.__file__).resolve().parents[1])
    outs = []
    for threads in ("1", "2"):
        outs.append(tmp_path / f"threads{threads}")
        env = dict(
            os.environ,
            OPENBLAS_NUM_THREADS=threads,
            OMP_NUM_THREADS=threads,
            PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]),
        )
        done = subprocess.run(
            [sys.executable, "-m", "mosco_graphs.cli", "run", "--config", str(config),
             "--out", str(outs[-1])],
            capture_output=True,
            text=True,
            env=env,
            timeout=600,
        )
        assert done.returncode == 0, done.stderr
    names = ["convergence.csv", "graph_n6_m8_l4_k3.json", "audits.json"]
    assert sorted(p.name for p in outs[0].iterdir()) == sorted(names)
    for name in names:
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name
