"""One pass of each workload: the processes it spawns and how it is checked.

A pass runs the workload's command through the real command line in a
fresh directory and measures every process it spawns from outside:
wall time from spawn to exit, and peak RSS from ``wait4``.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import checks
import spec

HERE = Path(__file__).resolve().parent
PROCESS_TIMEOUT_S = 150
# Left unset for measured processes, so they run as users run them.
THREAD_VARIABLES = ("MOSCO_GRAPHS_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")


def child_env(root):
    env = {k: v for k, v in os.environ.items() if k not in THREAD_VARIABLES}
    env["PYTHONPATH"] = str(Path(root) / "src")
    return env


@dataclass
class Proc:
    returncode: int
    wall_s: float
    rss_mb: float
    stdout: str


def spawn(args, root, workdir, name):
    """Run one process to completion; time it and take its peak RSS."""
    out_path = Path(workdir) / f"{name}.stdout"
    err_path = Path(workdir) / f"{name}.stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        started = time.perf_counter()
        proc = subprocess.Popen(args, cwd=root, env=child_env(root), stdout=out, stderr=err)
        timer = threading.Timer(PROCESS_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:  # interrupted: leave no process behind
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - started
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Proc(proc.returncode, wall, usage.ru_maxrss / 1024.0, out_path.read_text())


def _cli(*args):
    return [sys.executable, "-m", "mosco_graphs.cli", *args]


def _traced(spans, *args):
    return [sys.executable, str(HERE / "traced.py"), str(spans), *args]


@dataclass
class Pass:
    wall_s: float
    rss_mb: float
    returncodes: list
    digest: str
    out_dir: Path
    stdout: str
    dumps: list = field(default_factory=list)
    csv_bytes: int = 0


def _digest(out_dir, stdout):
    h = hashlib.sha256(stdout.encode())
    for path in sorted(Path(out_dir).iterdir()):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def run_pass(workload, root, workdir, seed, traced):
    """Run one pass of ``workload``; outputs land in ``workdir``/out."""
    workdir = Path(workdir)
    out_dir = workdir / "out"
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    spans = [workdir / "spans-0.json", workdir / "spans-1.json"]
    for path in spans:
        path.unlink(missing_ok=True)

    def command(*args):
        return _traced(spans[0], *args) if traced else _cli(*args)

    if workload == "run":
        config = workdir / "run-config.json"
        config.write_text(json.dumps(spec.RUN_CONFIG))
        procs = [spawn(command("run", "--config", str(config), "--seed", str(seed), "--out",
                               str(out_dir)), root, workdir, "run")]
    elif workload == "export-roundtrip":
        index = ",".join(map(str, spec.EXPORT_INDEX))
        procs = [spawn(command("export-graph", "--index", index, "--seed", str(seed), "--out",
                               str(out_dir)), root, workdir, "export")]
        if procs[0].returncode == 0:
            read = [sys.executable, str(HERE / "readback.py"), str(out_dir)]
            procs.append(spawn(read + ([str(spans[1])] if traced else []), root, workdir, "read"))
    elif workload == "verify":
        config = workdir / "verify-config.json"
        config.write_text(json.dumps(spec.VERIFY_CONFIG))
        procs = [spawn(command("verify", "--config", str(config), "--seed", str(seed)),
                       root, workdir, "verify")]
    else:
        raise ValueError(f"unknown workload {workload!r}")

    stdout = procs[0].stdout if workload == "verify" else ""
    dumps = [json.loads(path.read_text()) for path in spans if path.exists()]
    csv = out_dir / "convergence.csv"
    return Pass(
        wall_s=sum(p.wall_s for p in procs),
        rss_mb=max(p.rss_mb for p in procs),
        returncodes=[p.returncode for p in procs],
        digest=_digest(out_dir, stdout),
        out_dir=out_dir,
        stdout=stdout,
        dumps=dumps,
        csv_bytes=csv.stat().st_size if csv.exists() else 0,
    )


def check_pass(workload, root, result, seed, oracles=None):
    """Problems with a pass's outputs; an empty list is a pass."""
    code = next((c for c in result.returncodes if c != 0), 0)
    if workload == "run":
        return checks.check_run(root, result.out_dir, seed, code, oracles)
    if workload == "export-roundtrip":
        problems = checks.check_export(root, result.out_dir, seed, code, oracles)
        return problems + ([] if len(result.returncodes) == 2 else ["read-back did not run"])
    return checks.check_verify(result.stdout, code)


def setup_seconds(workload, root, workdir, seed):
    """Set-up time measured by one fresh process."""
    args = [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed)]
    proc = spawn(args, root, workdir, "setup")
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe for {workload} exited with {proc.returncode}")
    return float(proc.stdout.strip())
