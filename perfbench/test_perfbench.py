"""Tests of the benchmark itself: the seeded inputs are what they claim
to be, the child guards work, and traced self times partition.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

import inputs
import layers
import spawn
from run import END_TO_END, REFERENCE_S, at_reference
from workloads import WORKLOADS, Command

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

from fukaya_workbench import cli  # noqa: E402


def _run_cli(argv, cwd):
    out = io.StringIO()
    old = os.getcwd()
    os.chdir(cwd)
    try:
        with contextlib.redirect_stdout(out):
            code = cli.main(list(argv) + ["--format", "machine"])
    finally:
        os.chdir(old)
    return code, out.getvalue()


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("make", [inputs.relations_inputs, inputs.tables_inputs])
def test_expected_outputs_match_the_workbench(make, seed, tmp_path):
    files, commands = make(seed)
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    for argv, code, stdout in commands:
        assert _run_cli(argv, tmp_path) == (code, stdout), argv


@pytest.mark.parametrize("seed", [0, 1])
def test_exit_codes_by_construction(seed):
    # Deformed exterior, functor, OCHA and Heisenberg pass; the planted
    # entry and the random table fail.
    assert [c for _, c, _ in inputs.relations_inputs(seed)[1]] == [0, 1, 0, 0, 0]
    assert [c for _, c, _ in inputs.tables_inputs(seed)[1]] == [0, 1, 1, 0]


def test_random_table_fails_at_the_first_one_tuple_at_seed_0():
    ainf = inputs.tables_inputs(0)[1][2]
    assert ainf[0] == ["check-ainf", "cat.txt", "--max-d", "2"]
    assert ainf[2].startswith("ainf=fail\nwitness=(g0)\n")


def test_inputs_repeat_for_a_seed_and_differ_between_seeds():
    assert inputs.relations_inputs(3) == inputs.relations_inputs(3)
    assert inputs.relations_inputs(3)[0] != inputs.relations_inputs(4)[0]
    assert inputs.tables_inputs(3)[0] != inputs.tables_inputs(4)[0]


@pytest.mark.parametrize("seed", [0, 1])
def test_deformed_exterior_product_is_associative(seed):
    import random

    ext = inputs.Exterior(random.Random(seed), 4)
    for a in ext.gens:
        for b in ext.gens:
            for c in ext.gens:
                x = {a: inputs.ONE}
                y = {b: inputs.ONE}
                z = {c: inputs.ONE}
                assert ext.product(ext.product(x, y), z) == ext.product(x, ext.product(y, z))


def test_one_plus_t_half_power_is_the_z2_binomial():
    assert inputs.one_plus_t_half_power(0) == inputs.ONE
    assert inputs.one_plus_t_half_power(2) == frozenset({Fraction(0), Fraction(1)})
    assert inputs.one_plus_t_half_power(3) == frozenset(Fraction(k, 2) for k in range(4))


def test_memory_guard_fails_one_command():
    res = spawn.run([sys.executable, "-c", "x = bytearray(1 << 30)"], cwd=str(ROOT), env=dict(os.environ),
                    memory=256 << 20)
    assert res.memory_hit and res.code != 0
    assert Command(["x"]).problems(res) == ["hit the memory guard"]


def test_wall_timeout_ends_the_child():
    res = spawn.run([sys.executable, "-c", "import time; time.sleep(30)"], cwd=str(ROOT), env=dict(os.environ),
                    timeout=1)
    assert res.timed_out and res.wall_s < 10
    assert Command(["x"]).problems(res) == ["timed out"]


def test_sliced_run_stops_the_child_between_references(tmp_path):
    calls = []

    def reference():
        calls.append(time.perf_counter())
        return 0.001

    busy = "import sys, time\nt = time.process_time()\nwhile time.process_time() - t < 0.5: pass\n" \
           "print('x' * 100000); sys.exit(3)"
    res, slices = spawn.run_sliced([sys.executable, "-c", busy], cwd=str(tmp_path), env=dict(os.environ),
                                   reference=reference, slice_s=0.1)
    assert res.code == 3 and res.stdout_bytes == 100001 and res.stdout_lines == 1
    assert len(slices) >= 4 and len(calls) == len(slices) + 1
    assert res.wall_s == pytest.approx(sum(t for t, _, _ in slices))
    # The child's CPU time is its own: the stops do not add to it.
    assert 0.45 < res.cpu_s < res.wall_s + 0.05
    assert list(tmp_path.iterdir()) == []


def test_checks_catch_a_wrong_count_and_digest():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    res = spawn.run([sys.executable, "-m", "fukaya_workbench.cli", "strata", "--d", "4", "--format", "machine"],
                    cwd=str(ROOT), env=env)
    assert Command(["strata"], count=11, fvector="5,5,1").problems(res) == []
    assert Command(["strata"], count=12).problems(res)
    assert Command(["strata"], md5="0" * 32).problems(res)


def test_traced_self_times_partition_and_count(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    spans = tmp_path / "spans.json"
    res = spawn.run([sys.executable, str(ROOT / "perfbench" / "tracer.py"), str(spans), str(SRC), "--",
                     "strata", "--d", "4", "--format", "machine"], cwd=str(ROOT), env=env)
    assert res.code == 0
    m = layers.pass_metrics([json.loads(spans.read_text())], res.stdout_bytes, res.wall_s)
    assert m["trees.shapes"] == 11
    assert m["trees.labelled_trees"] == 11
    assert m["strata.cluster_strata"] == 11
    assert m["trees.sexprs"] == 11
    inside = sum(m["layer.%s_s" % n] for n in layers.LAYERS)
    assert inside + m["trace.process_s"] == pytest.approx(m["trace.wall_s"])
    assert m["trace.process_s"] > 0


def test_times_at_reference_speed_cancel_a_slower_host():
    def run(wall, reference):
        return {"wall_s": wall, "scale": REFERENCE_S / reference}

    quiet = [{"commands": [run(1.0, REFERENCE_S), run(2.0, REFERENCE_S)]}] * 3
    slowed = [{"commands": [run(1.0 * f, REFERENCE_S * f), run(2.0 * f, REFERENCE_S * f)]} for f in (1.0, 1.3, 1.6)]
    assert at_reference(quiet, "wall_s") == pytest.approx(3.0)
    assert at_reference(slowed, "wall_s") == pytest.approx(3.0)
    # A slower program still shows.
    slower = [{"commands": [run(1.5 * f, REFERENCE_S * f), run(2.0 * f, REFERENCE_S * f)]} for f in (1.0, 1.3)]
    assert at_reference(slower, "wall_s") == pytest.approx(3.5)


def test_benchmark_json_matches_the_code():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(w["name"], w["why"]) for w in bench["workloads"]] == [(w.name, w.why) for w in WORKLOADS.values()]
    assert {m["name"]: (m["unit"], m["better"]) for m in bench["per_layer"]} == layers.METRICS
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == END_TO_END
