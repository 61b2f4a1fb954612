"""Tests of the benchmark harness itself, at the tiny size.

    python3 -m pytest geobench/tests -q
"""

from __future__ import annotations

import copy
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import session  # noqa: E402
from tracer import PER_LAYER_UNITS, ROOT_SPAN, Recorder  # noqa: E402

session.import_geomatch()

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
TINY_REF = json.loads(session.REFERENCE.read_text(encoding="utf-8"))["tiny"]
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def run_bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "geobench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("workload", session.WORKLOADS)
def test_traced_outputs_byte_identical(workload):
    invs = session.invocations(workload, 5, "tiny")
    _, plain = session.run_rep(invs, 1)
    with Recorder() as rec:
        _, traced = session.run_rep(invs, 1, rec)
    assert traced == plain
    assert all(code == 0 for code, _ in plain)
    assert rec.names.count(ROOT_SPAN) == len(invs)


def test_cached_layers_are_the_lru_cached_functions():
    from tracer import CACHED, LAYER_FUNCTIONS, TRACED
    with Recorder() as rec:
        cached = {tr.key for tr in TRACED if hasattr(rec.originals[tr.key], "cache_info")}
    assert CACHED == cached & set(LAYER_FUNCTIONS)


def test_recorder_restores_every_binding():
    from geomatch import assembly, cli, geodesics
    before = (cli.sl2_classes, assembly.dpsi_enumerated, geodesics.primitive_classes)
    with Recorder():
        assert cli.sl2_classes is not before[0]
        assert geodesics.primitive_classes is not before[2]
    assert (cli.sl2_classes, assembly.dpsi_enumerated, geodesics.primitive_classes) == before


def test_benchmark_json_follows_contract():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert [w["name"] for w in SPEC["workloads"]] == list(session.WORKLOADS)
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    for m in SPEC["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"} and 0 < m["bound"] <= 0.25
    for m in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert NAME.match(m["name"]) and UNIT.match(m["unit"])
        assert m["better"] in ("lower", "higher")
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == PER_LAYER_UNITS


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", session.WORKLOADS)
def test_every_metric_printed_with_unit(workload, trace):
    proc = run_bench("--workload", workload, "--seed", "3", "--seconds", "0",
                     "--trace", trace, "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace == "1" else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in wanted}
    for m in wanted:
        assert re.search(rf"^\s+{re.escape(m['name'])}\s+\S+ {re.escape(m['unit'])}$",
                         proc.stdout, re.M)


def _perturb_psi(ref):
    ref["spectrum level 1"]["rows"][-1][2] *= 1 + 1e-6


def _perturb_pi(ref):
    ref["report level 4"]["rows"][-1][1] += 1


def _perturb_relation(ref):
    key = next(k for k in ref if k.startswith("relation"))
    ref[key]["psi_D"] *= 1 + 1e-6


def _perturb_points(ref):
    ref["verify-matching"]["points_checked"] += 1


@pytest.mark.parametrize("workload,perturb", [
    ("spectrum", None), ("spectrum", _perturb_psi), ("spectrum", _perturb_pi),
    ("relation", _perturb_relation), ("verify", _perturb_points),
])
def test_perturbed_reference_is_a_failure(workload, perturb):
    ref = copy.deepcopy(TINY_REF)
    if perturb is not None:
        perturb(ref)
    out = session.run_session(workload, 0, 0.0, False, "tiny", ref)
    assert out["attempted"] >= 1
    assert (out["failed"] > 0) == (perturb is not None)


def test_relation_seed_orders_the_pool():
    a = session.invocations("relation", 1, "full")
    b = session.invocations("relation", 2, "full")
    assert a == session.invocations("relation", 1, "full")
    assert a != b and sorted(a, key=str) == sorted(b, key=str)


def test_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "geobench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("--workload", "relation", "--seed", "1", "--seconds", "1",
                     "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
