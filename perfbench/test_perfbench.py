"""Self-test of the benchmark; not part of the tier-1 suite.

    PYTHONPATH=src python3 -m pytest -q perfbench/test_perfbench.py

Runs each workload once traced (about a minute, most of it the order-2
gate fit) and checks that the tracing hooks intercept and that every
per-layer metric BENCHMARK.json declares is measured on every workload.
"""
from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from run import unit  # noqa: E402
from tracer import SITES, site_key  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def _env():
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               PYTHONDONTWRITEBYTECODE="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      env.get("PYTHONPATH")]))
    return env


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    """Traced child result of every workload, by workload name."""
    tmp = tmp_path_factory.mktemp("traced")
    out = {}
    for name in WORKLOADS:
        result = tmp / f"{name}.json"
        subprocess.run([sys.executable, str(HERE / "child.py"), "--workload", name,
                        "--grid-seed", "0", "--out", str(tmp / f"{name}-report.json"),
                        "--result", str(result), "--spans", str(tmp / f"{name}.npz")],
                       env=_env(), check=True, capture_output=True, timeout=300)
        out[name] = json.loads(result.read_text())
    return out


def test_every_wrapped_site_records_spans(traced):
    hit = {key for res in traced.values() for key, n in res["site_hits"].items() if n > 0}
    assert {site_key(s) for s in SITES} - hit == set()


def test_declared_layer_metrics_are_measured_and_nonzero(traced):
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    layer = [m for m in declared if not m["name"].startswith(("probe.", "trace."))]
    for m in declared:
        assert m["unit"] == unit(m["name"]), m
    for name, res in traced.items():
        zero = [m["name"] for m in layer if not res["layers"].get(m["name"])]
        assert zero == [], name


def test_probes_cover_declared_probe_metrics(tmp_path):
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    result = tmp_path / "probes.json"
    subprocess.run([sys.executable, str(HERE / "probes.py"), "--result", str(result)],
                   env=_env(), check=True, capture_output=True, timeout=300)
    probes = json.loads(result.read_text())["probes"]
    wanted = {m["name"] for m in declared if m["name"].startswith("probe.")}
    assert wanted == set(probes)
    assert all(v > 0 for v in probes.values())


def test_refuses_to_run_without_the_source_tree(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                           "lie-so3-verify", "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
