"""The benchmark's generator, oracles and tracer, on small inputs."""

from __future__ import annotations

import json
import random
import shutil
import statistics
import subprocess
import sys
from time import perf_counter_ns

import pytest

from perfbench import oracles, run
from perfbench.tests.conftest import ROOT
from perfbench.torus import grid_torus
from perfbench.trace import Tracer, per_layer_units
from perfbench.workloads import (
    AssembleLarge,
    KanCensus,
    SpindleReduce,
    VerifyTorus,
    parse_report,
)


def small(cls, **attrs):
    """A workload with its sizes shrunk for a quick test."""
    w = cls()
    for key, value in attrs.items():
        setattr(w, key, value)
    return w


SMALL = {
    "verify-torus": lambda: small(VerifyTorus, n=3),
    "assemble-large": lambda: small(AssembleLarge, n=4),
    "spindle-reduce": lambda: small(SpindleReduce, n=3, moves=20),
    "kan-census": KanCensus,
}


# -- grid torus --------------------------------------------------------


@pytest.mark.parametrize("n", [3, 4])
def test_grid_torus_is_a_torus(prog, n):
    doc, signs = grid_torus(n)
    x = prog.simplicial.SemiSimplicialSet.from_json_dict(doc)
    assert x.validate() == []
    assert oracles.complex_problems(doc) == []
    assert x.counts == (n * n, 3 * n * n, 2 * n * n)
    h = prog.homology.homology_groups(x)
    assert [(h.betti(q), h.torsion(q)) for q in range(3)] == [(1, ()), (2, ()), (1, ())]
    assert prog.homology.fundamental_class(x).coefficients == signs


def test_grid_torus_needs_three_rows():
    with pytest.raises(ValueError):
        grid_torus(2)


# -- oracles -----------------------------------------------------------


def test_gysin_law_over_the_torus():
    assert oracles.torus_bundle_homology(0) == "H0=Z, H1=Z^3, H2=Z^3, H3=Z"
    assert oracles.torus_bundle_homology(-1) == "H0=Z, H1=Z^2, H2=Z^2, H3=Z"
    assert oracles.torus_bundle_homology(3) == "H0=Z, H1=Z^2 + Z/3, H2=Z^2, H3=Z"


def test_verify_oracle_rejects_a_wrong_answer(prog, tmp_path):
    w = SMALL["verify-torus"]()
    inputs = w.setup(prog, random.Random(1), tmp_path)
    rc, out = w.op(prog, inputs, 0)
    assert w.check(inputs, 0, (rc, out)) == []
    report, c = parse_report(out), inputs[0][1]
    assert oracles.check_verify(rc, report, c + 1, w.n)
    assert oracles.check_verify(rc, report, c, w.n + 1)
    assert oracles.check_verify(1, report, c, w.n)
    assert oracles.check_verify(rc, dict(report, homology="H0=Z"), c, w.n)


def test_assemble_oracle_rejects_a_wrong_answer(prog, tmp_path):
    w = SMALL["assemble-large"]()
    inputs = w.setup(prog, random.Random(1), tmp_path)
    result = w.op(prog, inputs, 0)
    doc = json.loads(open(w.total).read())
    assert w.check(inputs, 0, result) == []
    gen, asm = [(rc, parse_report(out)) for rc, out in result]
    c = inputs[0][0]
    assert oracles.check_assemble(gen, asm, doc, c, w.n) == []
    assert oracles.check_assemble(gen, asm, doc, c + 1, w.n)
    assert oracles.check_assemble(gen, asm, None, c, w.n)
    row = doc["faces"]["3"][0]
    row[0], row[1] = row[1], row[0]
    assert oracles.complex_problems(doc)
    assert oracles.check_assemble(gen, asm, doc, c, w.n)


def test_spindle_oracle_rejects_a_wrong_answer(prog, tmp_path):
    w = SMALL["spindle-reduce"]()
    inputs = w.setup(prog, random.Random(1), tmp_path)
    counts, minima = w.op(prog, inputs, 0)
    assert w.check(inputs, 0, (counts, minima)) == []
    c = inputs[0][3]
    words = [[m.stalks[(2, t)].word for t in range(len(w.signs))] for m in minima]
    assert oracles.check_spindle(counts, words, w.signs, c + 1)
    assert oracles.check_spindle(counts[:-1] + (counts[-1] + 1,), words, w.signs, c)
    assert oracles.check_spindle(counts, [words[0][:-1]], w.signs, c)


def test_kan_oracle_rejects_a_wrong_answer(prog, tmp_path):
    w = SMALL["kan-census"]()
    inputs = w.setup(prog, random.Random(1), tmp_path)
    result = w.op(prog, inputs, 0)
    assert w.check(inputs, 0, result) == []
    kan, hexagram = [(rc, parse_report(out)) for rc, out in result]
    seed, sign = inputs[0]
    assert oracles.check_kan(kan, hexagram, (seed, sign)) == []
    assert oracles.check_kan(kan, hexagram, (seed, sign), expected=dict(oracles.KAN4, compatible=25))
    wrong_rows = dict(oracles.HEXAGRAM, zero_rows=5)
    assert oracles.check_kan(kan, hexagram, (seed, sign), hex_expected=wrong_rows)
    assert oracles.check_kan(kan, hexagram, ((seed + 1) % 4, sign))


# -- tracing -----------------------------------------------------------


def run_pass(w, prog, inputs, tracer):
    tracer.install()
    try:
        for i in range(len(inputs)):
            tracer.begin_op(i)
            w.op(prog, inputs, i)
    finally:
        tracer.remove()


def test_traced_op_reports_the_same_bytes(prog, tmp_path):
    w = SMALL["verify-torus"]()
    inputs = w.setup(prog, random.Random(2), tmp_path)
    plain = w.op(prog, inputs, 0)
    tracer = Tracer()
    tracer.install()
    try:
        tracer.begin_op(0)
        traced = w.op(prog, inputs, 0)
    finally:
        tracer.remove()
    assert traced == plain
    assert tracer.absent == []
    per_op = tracer.per_op()
    assert per_op["cli.main.calls"] == 1
    assert per_op["homology.smith_normal_form.calls"] == 5
    assert prog.cli.homology_groups is prog.homology.homology_groups
    assert not hasattr(prog.cli.homology_groups, "__wrapped__")
    assert not hasattr(prog.simplicial.SemiSimplicialSet.validate, "__wrapped__")
    from_json = vars(prog.simplicial.SemiSimplicialSet)["from_json_dict"]
    assert not hasattr(from_json.__func__, "__wrapped__")


@pytest.mark.parametrize("name", sorted(SMALL))
def test_per_layer_counts_repeat_for_a_fixed_seed(prog, tmp_path, name):
    counts = []
    for _ in range(2):
        w = SMALL[name]()
        inputs = w.setup(prog, random.Random(5), tmp_path)
        tracer = Tracer()
        run_pass(w, prog, inputs, tracer)
        counts.append({k: v for k, v in tracer.per_op().items() if not k.endswith("ms")})
    assert counts[0] == counts[1]
    assert counts[0]["cli.main.calls"] + counts[0]["spindle.minimize.calls"] > 0
    if name == "spindle-reduce":
        assert counts[0]["spindle.beads_dropped"] > 0
        assert counts[0]["bundle.assemble.total_simplices"] > 0


def test_a_missing_function_is_reported_absent(prog, monkeypatch, tmp_path):
    monkeypatch.delattr(prog.spindle, "contract")
    tracer = Tracer()
    tracer.install()
    tracer.remove()
    assert tracer.absent == ["spindle.contract"]
    assert tracer.per_op()["spindle.contract.calls"] == 0


# -- the runner --------------------------------------------------------


def test_tail_has_ten_samples_beyond_it():
    assert run.tail(list(range(20))) == (9, 50.0)
    assert run.tail(list(range(100))) == (89, 90.0)
    assert run.tail([3, 1, 2]) == (3, 100.0)


def test_clock_and_reference_loop():
    wall = perf_counter_ns()
    start = run.clock_ns()
    assert run.reference_loop() == run.reference_loop()
    assert 0 < run.clock_ns() - start <= perf_counter_ns() - wall
    probe = run.host_probe()
    assert len(probe) == run.REF_RUNS
    assert run.slowdown(probe, probe) == statistics.median(probe) / run.REF_MS


def test_benchmark_json_lists_what_the_run_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert layer == per_layer_units()
    metrics, _ = run.end_to_end([(1.0, 1.0)] * 12, 1.0)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == {
        name: unit for name, (_, unit) in metrics.items()
    }
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(SMALL)


def test_run_refuses_a_checkout_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    argv = [sys.executable, "perfbench/run.py", "--workload", "kan-census",
            "--seed", "1", "--seconds", "1", "--trace", "0"]
    done = subprocess.run(argv, cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
