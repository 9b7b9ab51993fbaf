"""Tests of the benchmark itself: input determinism, tracer hygiene,
metric names and units, and the default-seed digests.

    python3 -m pytest -q benchmarks
"""

from __future__ import annotations

import importlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
for entry in (str(ROOT / "src"), str(BENCH_DIR)):
    if entry not in sys.path:
        sys.path.insert(0, entry)

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


def _inputs(name: str, seed: int, workdir: Path) -> dict[str, bytes]:
    workdir.mkdir()
    setup = workloads.WORKLOADS[name].build(seed, workdir)
    return {f: (workdir / f).read_bytes() for f in setup.inputs}


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_same_inputs_other_seed_other_inputs(name, tmp_path):
    first = _inputs(name, 3, tmp_path / "a")
    again = _inputs(name, 3, tmp_path / "b")
    other = _inputs(name, 4, tmp_path / "c")
    assert first == again
    assert first.keys() == other.keys()
    for f in first:
        assert first[f] != other[f], f


def test_polyol_slice_is_seed_independent_and_distinct():
    a = workloads.gen.Generator(1).polyol_slice(30)
    b = workloads.gen.Generator(2).polyol_slice(30)
    assert a == b
    assert len(set(a)) == 30


def _bindings():
    out = {}
    for ns in tracer.NAMESPACES:
        module = importlib.import_module(ns)
        out.update({(ns, k): v for k, v in vars(module).items() if callable(v)})
    return out


def test_wrappers_restore_originals_also_after_an_error():
    from screenforge import cli, screenctl

    before = _bindings()
    t = tracer.Tracer()
    with pytest.raises(RuntimeError):
        with t.installed():
            assert cli.parse_smiles is not before[("screenforge.cli", "parse_smiles")]
            assert screenctl.parse_smiles.__wrapped__ is before[("screenforge.cli", "parse_smiles")]
            raise RuntimeError("boom")
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_traced_calls_are_counted_where_callers_look_them_up():
    from screenforge import cli, screenctl

    t = tracer.Tracer()
    with t.installed():
        t.run_id = "probe"
        mol = cli.parse_smiles("CCO")
        screenctl.canonical_smiles(mol)
        screenctl.string_similarity("CCO", "CCN")
    stats = t.function_stats("probe")
    assert stats["chem_graph.parse_smiles"]["calls"] == 1
    assert stats["chem_graph.canonical_smiles"]["calls"] == 1
    assert stats["simcluster.string_similarity"]["calls"] == 1
    assert not any(name in stats for name in tracer.NOT_WRAPPED)


def test_self_time_is_duration_minus_child_coverage():
    t = tracer.Tracer()
    t.spans = [
        (0, None, "outer", 0.0, 10.0, "r", 1.0),
        (1, 0, "child", 1.0, 4.0, "r", 0.0),
        (2, 0, "child", 3.0, 5.0, "r", 0.0),  # overlaps the first child
        (3, 1, "grandchild", 2.0, 3.0, "r", 0.0),
    ]
    stats = t.function_stats()
    assert stats["outer"]["self_s"] == pytest.approx(10.0 - 4.0 - 1.0)
    assert stats["child"]["self_s"] == pytest.approx((3.0 - 1.0) + 2.0)
    assert stats["grandchild"] == {"calls": 1, "self_s": pytest.approx(1.0)}
    assert tracer.coverage(0.0, 5.0, [(4.0, 9.0), (1.0, 2.0), (1.5, 3.0)]) == pytest.approx(3.0)


def test_benchmark_json_matches_the_runner():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert spec["paths"] == [BENCH_DIR.name]


def _run(name: str, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", name, "--seed",
         str(run.DEFAULT_SEED), "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, timeout=300, check=True,
    )
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    suffix = "_trace" if trace else ""
    doc = json.loads((run.RESULTS_DIR / f"BENCH_{name}_seed{run.DEFAULT_SEED}{suffix}.json")
                     .read_text())
    return last, doc


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_default_seed_run_is_correct_and_emits_every_metric(name):
    last, doc = _run(name, 0)
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] and last["failed"] == 0 and last["attempted"] >= 1
    assert {k: v["unit"] for k, v in last["metrics"].items()} == run.END_TO_END
    assert all(v["value"] > 0 for v in last["metrics"].values())
    if doc["digests"].startswith("not compared (platform"):
        pytest.skip("reference digests were recorded on another platform")
    assert doc["digests"] == "compared"


def test_traced_run_emits_every_per_layer_metric():
    last, doc = _run("learn", 1)
    assert last["correct"]
    assert {k: v["unit"] for k, v in last["metrics"].items()} == run.PER_LAYER
    fits = doc["functions_by_command"]["pharm_train"]
    assert max(fits, key=lambda f: fits[f]["self_s"]) == "pharmacophore.fit_value"
