"""Tests of the benchmark itself.

    python3 -m pytest perfbench

They cover the input generator, the independent oracle, the output
checks (including tampered outputs) and the tracer's counts.  They take
a few seconds and are not part of the program's own test suite.
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import oracle  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from lamplighter import GroupRing, ScalarRing, WreathGroup, certificates, foxwords  # noqa: E402
from lamplighter.parsing import parse_ring_element  # noqa: E402

EXPECTED_ORE = json.loads((BENCH / "ore_expected.json").read_text())


def _op(workload, pick=lambda op: True, seed=3):
    return next(op for op in workloads.block(workload, seed, 0) if pick(op))


def _record(op):
    if op["workload"] == "fox-boundary":
        algebras = {(op["k"], op["d"]): GroupRing(ScalarRing(op["k"]), WreathGroup(op["d"]))}
        _, result = worker._fox_runner(algebras)(op)
        result = {k: v.to_json() for k, v in result.items()}
    else:
        _, result = worker._run_cli(op)
    return {"op": op, "block": 0, "seconds": 0.0, "scale": 1.0, **result}


def _ore_op(case):
    return workloads._ore_op(*case)


def test_same_seed_gives_identical_inputs():
    for workload in workloads.WORKLOADS:
        first = json.dumps([workloads.block(workload, 7, i) for i in range(2)])
        again = json.dumps([workloads.block(workload, 7, i) for i in range(2)])
        other = json.dumps([workloads.block(workload, 8, i) for i in range(2)])
        assert first == again
        assert first != other


def test_input_text_parses_to_the_structured_copy():
    checked = 0
    for workload in ("certify", "annihilate", "fox-boundary"):
        for op in workloads.block(workload, 5, 0):
            algebra = GroupRing(ScalarRing(op["k"]), WreathGroup(op["d"]))
            if workload == "certify":
                texts = op["argv"][1][len("--z="):].split(";")
                items = op["z"]
            elif workload == "annihilate":
                texts = op["argv"][op["argv"].index("--") + 1:]
                items = op["alphas"]
            else:
                texts = [text for _, text in op["relators"]]
                items = [terms for _, terms in op["terms"]]
            for text, terms in zip(texts, items, strict=True):
                parsed = parse_ring_element(text, algebra)
                assert oracle.from_json(parsed.to_json(), op["d"], op["k"]) == \
                    oracle.element(terms, op["d"], op["k"])
                checked += 1
    assert checked > 100


def test_annihilate_inputs_span_the_requested_rank():
    for op in workloads.block("annihilate", 4, 0):
        algebra = GroupRing(ScalarRing(op["k"]), WreathGroup(op["d"]))
        if op["rank"] > 5:
            continue
        alphas = [parse_ring_element(t, algebra) for t in op["argv"][op["argv"].index("--") + 1:]]
        beta = certificates.finite_subgroup_annihilator(alphas, algebra)
        assert len(beta) == op["d"] ** op["rank"]


def test_oracle_product_matches_the_program():
    rng = random.Random(11)
    for _ in range(300):
        d, m = rng.choice([2, 3, 4]), rng.choice([0, 2, 3, 4, 6])
        algebra = GroupRing(ScalarRing(m), WreathGroup(d))
        x = algebra.random_element(rng, terms=rng.randint(0, 6))
        y = algebra.random_element(rng, terms=rng.randint(0, 6))
        got = oracle.product(oracle.from_json(x.to_json(), d, m),
                             oracle.from_json(y.to_json(), d, m), d, m)
        assert got == oracle.from_json((x * y).to_json(), d, m)


def test_oracle_fox_derivatives_match_the_program():
    for d in (2, 3, 4):
        for m in (0, 3):
            algebra = GroupRing(ScalarRing(m), WreathGroup(d))
            for l in range(7):
                for sym in ("a", "x"):
                    program = foxwords.relator_fox_derivative(algebra, l, sym)
                    assert oracle.fox_derivative(d, l, sym, m) == \
                        oracle.from_json(program.to_json(), d, m)


@pytest.mark.parametrize("record", [
    lambda: _record(_op("certify", lambda op: len(op["z"]) == 3)),
    lambda: _record(_ore_op((2, 2, 1, 1))),
    lambda: _record(_ore_op((2, 2, 1, 4))),
    lambda: _record(_op("annihilate", lambda op: op["rank"] == 4)),
    lambda: _record(_op("fox-boundary")),
])
def test_program_outputs_pass_the_checks(record):
    assert run.check_op(record(), EXPECTED_ORE) == []


def _tamper(record, edit):
    data = json.loads(record["stdout"])
    edit(data)
    return {**record, "stdout": json.dumps(data)}


def _replace_u(data):
    data["u"] = [{"coeff": 1, "lamps": [], "shift": 0},
                 {"coeff": 1, "lamps": [], "shift": 1}]     # 1 + x
    data["product"] = []


def _flip_annihilator_coefficient(data):
    p = data["p"]
    w = next(s["annihilator"] for s in data["solutions"] if s["annihilator"])
    w[0]["coeff"] = (w[0]["coeff"] + 1) % p
    if not w[0]["coeff"]:
        del w[0]


def test_tampered_outputs_count_as_failures(tmp_path):
    good = _record(_op("certify", lambda op: len(op["z"]) == 2))
    ore = _record(_ore_op((2, 2, 1, 1)))
    records = [good, _tamper(good, _replace_u), ore,
               _tamper(ore, _flip_annihilator_coefficient)]
    path = tmp_path / "records.jsonl"
    path.write_text("".join(json.dumps(r) + "\n" for r in records))
    checked = run.verify({"records": [path], "spans": []}, EXPECTED_ORE)
    assert (checked["attempted"], checked["failed"]) == (4, 2)
    assert [p["op"] for p in checked["problems"]] == [1, 3]
    assert "u * gamma != 0" in checked["problems"][0]["problems"]
    assert any("sigma * w != 0" in p for p in checked["problems"][1]["problems"])


def _traced(op, tr):
    tr.spans.clear()
    tr.op, tr.active = 0, True
    try:
        record = _record(op)
    finally:
        tr.active = False
    return record, list(enumerate(tr.spans))


def test_traced_counts_match_the_outputs():
    certify_op = _op("certify", lambda op: op["d"] == 3 and len(op["z"]) == 3)
    ore_op = _ore_op((3, 3, 1, 1))
    annihilate_op = _op("annihilate", lambda op: op["rank"] == 3)
    tr = tracer.Tracer().install()
    try:
        runs = [_traced(op, tr) for op in (certify_op, ore_op, annihilate_op)]
    finally:
        tr.uninstall()
    for record, spans in runs:
        assert run.check_op(record, EXPECTED_ORE) == []
        assert run.cross_check(record, spans) == []
    (cert, cert_spans), (ore, ore_spans), _ = runs
    data = json.loads(cert["stdout"])
    names = [s[1] for _, s in cert_spans]
    assert names.count("certificates.lamp_subgroup") == 1
    subgroup = next(s for _, s in cert_spans if s[1] == "certificates.lamp_subgroup")
    assert subgroup[5]["elements"] == 3 ** 4
    pairs = [s[5]["pairs"] for _, s in cert_spans if s[1] == "groupring.mul"]
    assert len(data["u"]) * len(data["gamma"]) in pairs
    sigmas = sum(1 for s in json.loads(ore["stdout"])["solutions"] if s["sigma"])
    assert [s[1] for _, s in ore_spans].count("oresearch.annihilator_search") == sigmas
    metrics = tracer.layer_metrics([s for _, s in ore_spans], 0, (0, 0))
    assert metrics["oresearch.annihilator_search.calls"][0] == sigmas
    assert metrics["linalg.rref_gfp.s"][0] > 0 and metrics["linalg.rref_gf2.s"][0] == 0


def test_a_missed_binding_site_fails_the_cross_check():
    from lamplighter import oresearch
    op = _ore_op((2, 2, 1, 1))
    tr = tracer.Tracer().install()
    try:
        original = next(orig for owner, attr, orig in tr._undo
                        if owner is oresearch and attr == "annihilator_search")
        oresearch.annihilator_search = original
        record, spans = _traced(op, tr)
    finally:
        tr.uninstall()
    assert run.cross_check(record, spans)


def test_self_time_subtracts_direct_children():
    spans = [[0, "outer", -1, 0.0, 10.0, None],
             [0, "child", 0, 1.0, 4.0, None],
             [0, "grandchild", 1, 2.0, 3.0, None],
             [0, "child", 0, 5.0, 6.0, None]]
    assert tracer.self_times(spans) == [6.0, 2.0, 1.0, 1.0]


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    checked = {"blocks": [[(0.002, 1.1), (0.004, 0.9)]], "cases": {}}
    reported = run.end_to_end({"setup": [0.2], "peak_rss_mb": 40.0}, checked)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == \
        [(name, unit) for name, (_, unit) in reported.items()]
    layers = {**tracer.layer_metrics([], 0, (0, 0)),
              **dict.fromkeys(run.TRACE_METRICS, (0.0, "1/ref_s")),
              "trace.overhead": (0.0, "ratio")}
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == \
        [(name, unit) for name, (_, unit) in layers.items()]
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_run_fails_without_the_program(tmp_path):
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "certify",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
