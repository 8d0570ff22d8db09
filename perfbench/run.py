"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload certify --seed 1 --seconds 10 --trace 0

Run from anywhere inside a source checkout; the program is imported from
``src/`` with nothing to build.  Each workload runs in fresh,
single-threaded worker processes (``worker.py``); this process only
starts them, then checks every output with ``oracle.py`` after they have
exited, outside the timed region.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs the
workload twice, untraced and traced, and prints the per-layer metrics of
the traced run together with the tracing overhead; in that run the span
counts are also checked against the outputs.  Human-readable lines come
first; the last stdout line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Run details
(machine, versions, every metric, the first problems found) go to
``.perfbench_out/result-<workload>-<seed>-trace<t>.json`` and spans to
``.perfbench_out/spans-...``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

import numpy

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".perfbench_out"
sys.path.insert(0, str(BENCH))

import oracle  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

# Set-up is timed this many times in fresh processes, after one untimed
# start that fills the bytecode cache; each worker's own start adds one
# more sample.  setup_s is the median.
SETUP_PROBES = 5
# Everything, set-up and checks included, must finish within this.
BUDGET_S = 170.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS")
TRACE_METRICS = ("trace.ops_per_s", "trace.untraced_ops_per_s", "trace.overhead")


class BenchError(Exception):
    """The benchmark itself could not run (no program, a hung worker)."""


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    env["PYTHONHASHSEED"] = "0"
    for var in THREAD_VARS:
        env[var] = "1"
    return env


def machine() -> dict:
    model = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh
                          if line.startswith("model name")), "")
    except OSError:
        pass
    return {"nproc": len(os.sched_getaffinity(0)), "cpu": model or platform.processor(),
            "python": platform.python_version(), "numpy": numpy.__version__}


def spawn(argv: list[str], env: dict, deadline: float) -> tuple[float, dict | None]:
    """Start a worker; return its set-up time and its JSON summary."""
    start = time.monotonic()
    proc = subprocess.Popen([sys.executable, str(BENCH / "worker.py"), *argv],
                            stdout=subprocess.PIPE, env=env, cwd=ROOT, text=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise BenchError(f"worker {' '.join(argv)} ran past the time budget")
    lines = out.splitlines()
    if proc.returncode != 0 or not lines or not lines[0].startswith("ready "):
        raise BenchError(f"worker {' '.join(argv)} failed with exit code {proc.returncode}")
    setup = float(lines[0].split()[1]) - start
    return setup, (json.loads(lines[-1]) if len(lines) > 1 else None)


def run_workers(workload: str, seed: int, seconds: float, trace: bool,
                env: dict, deadline: float) -> dict:
    """Run the workload for ``seconds`` of timed ops in fresh workers.

    ore-search runs one block (every case once) per worker, so no case
    repeats inside a process, and at least two blocks, because a block is
    six ops whose time one slow spell of the machine can dominate; the
    other workloads use a single worker.
    """
    OUT.mkdir(exist_ok=True)
    tag = "trace" if trace else "plain"
    run = {"setup": [], "records": [], "spans": [], "peak_rss_mb": 0.0,
           "cache": [0, 0], "wreath_muls": 0}
    block, timed, worker = 0, 0.0, 0
    while True:
        records = OUT / f"records-{workload}-{seed}-{tag}-{worker}.jsonl"
        argv = ["--workload", workload, "--seed", str(seed), "--first-block", str(block),
                "--seconds", str(seconds - timed), "--records", str(records)]
        if workload == "ore-search":
            argv += ["--max-blocks", "1"]
        if trace:
            spans = OUT / f"spans-{workload}-{seed}-{worker}.jsonl"
            argv += ["--trace", "--spans", str(spans)]
            run["spans"].append(spans)
        setup, summary = spawn(argv, env, deadline)
        run["setup"].append(setup)
        run["records"].append(records)
        run["peak_rss_mb"] = max(run["peak_rss_mb"], summary["peak_rss_mb"])
        run["cache"] = [a + b for a, b in zip(run["cache"], summary["cache"])]
        run["wreath_muls"] += summary["wreath_muls"]
        block += summary["blocks"]
        worker += 1
        if workload != "ore-search":
            return run
        with open(records, encoding="utf-8") as fh:
            timed += sum(json.loads(line)["seconds"] or 0.0 for line in fh)
        if timed >= seconds and worker >= 2:
            return run


def check_op(record: dict, expected_ore: dict) -> list[str]:
    """Problems with one op's output; empty when it is correct."""
    if "error" in record:
        return ["raised: " + record["error"].strip().splitlines()[-1]]
    op = record["op"]
    workload = op["workload"]
    if workload == "fox-boundary":
        return oracle.check_fox(op, record)
    try:
        data = json.loads(record["stdout"])
    except ValueError:
        return [f"exit code {record['rc']}, no JSON output: {record['stderr'].strip()}"]
    if workload == "certify":
        return oracle.check_certify(op, record["rc"], data)
    if workload == "annihilate":
        return oracle.check_annihilate(op, record["rc"], data)
    return oracle.check_ore(op, record["rc"], data, expected_ore)


def cross_check(record: dict, spans: list) -> list[str]:
    """Traced counts against counts derived from the op's output.

    ``spans`` holds (index, span) pairs of the op.  A layer call made
    through a binding site the tracer missed shows here as a count that
    is too low.
    """
    op = record["op"]
    if "error" in record or op["workload"] == "fox-boundary":
        return []
    data = json.loads(record["stdout"])
    by_name = defaultdict(list)
    for _, span in spans:
        by_name[span[1]].append(span)
    problems = []

    def expect(what, got, want):
        if got != want:
            problems.append(f"traced {what} is {got}, the output implies {want}")

    if op["workload"] == "certify":
        depth = len(op["z"]) - 1
        expect("certificates.lamp_subgroup.elements",
               sum(s[5]["elements"] for s in by_name["certificates.lamp_subgroup"]),
               op["d"] ** (2 * depth))
        certify = {i for i, s in spans if s[1] == "certificates.certify"}
        final = [s for s in by_name["groupring.mul"] if s[2] in certify]
        expect("groupring.mul.pairs of u * gamma", [s[5]["pairs"] for s in final],
               [len(data["u"]) * len(data["gamma"])])
    elif op["workload"] == "ore-search":
        expect("oresearch.annihilator_search.calls",
               len(by_name["oresearch.annihilator_search"]),
               sum(1 for s in data["solutions"] if s["sigma"]))
    else:
        expect("certificates.finite_subgroup_annihilator.members",
               sum(s[5]["members"] for s in by_name["certificates.finite_subgroup_annihilator"]),
               len(data["beta"]))
    return problems


def _read_spans(path: Path) -> list:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh]


def verify(run: dict, expected_ore: dict) -> dict:
    """Check every record of a run; with spans, cross-check the counts."""
    blocks, cases, problems, all_spans = defaultdict(list), defaultdict(list), [], []
    attempted = failed = 0
    for w, path in enumerate(run["records"]):
        spans = _read_spans(run["spans"][w]) if run["spans"] else []
        per_op = defaultdict(list)
        offset = len(all_spans)
        for j, span in enumerate(spans):
            span[2] = span[2] + offset if span[2] >= 0 else -1
            per_op[span[0]].append((offset + j, span))
        all_spans.extend(spans)
        with open(path, encoding="utf-8") as fh:
            for i, line in enumerate(fh):
                record = json.loads(line)
                attempted += 1
                try:
                    found = check_op(record, expected_ore)
                    if not found and spans:
                        found = cross_check(record, per_op[i])
                except (KeyError, IndexError, TypeError, ValueError, OverflowError) as exc:
                    found = [f"malformed output: {exc!r}"]
                if found:
                    failed += 1
                    problems.append({"worker": w, "op": i, "problems": found})
                else:
                    blocks[w, record["block"]].append((record["seconds"], record["scale"]))
                    if "case" in record["op"]:
                        cases[record["op"]["case"]].append((record["seconds"], record["scale"]))
        path.unlink()
    return {"attempted": attempted, "failed": failed, "problems": problems,
            "blocks": list(blocks.values()), "cases": dict(cases), "spans": all_spans}


def ops_per_s(checked: dict, scaled: bool = True) -> float:
    """Median over blocks of verified ops per timed second.

    Every block holds the same mix of ops, so block rates are comparable;
    the median keeps a few seconds of interference out of the figure.
    """
    rates = [len(b) / sum(t * (k if scaled else 1.0) for t, k in b)
             for b in checked["blocks"] if b]
    return statistics.median(rates) if rates else 0.0


def end_to_end(run: dict, checked: dict, scaled: bool = True) -> dict[str, tuple[float, str]]:
    """The end-to-end metrics; op times scaled to the reference speed
    (units ref_ms and 1/ref_s, see worker.REFERENCE_S) unless ``scaled``
    is false."""
    lat = [t * (k if scaled else 1.0) for block in checked["blocks"] for t, k in block]
    if checked["cases"]:
        # ore-search repeats its six cases once per block: the percentiles
        # are taken over the per-case medians, so that the number of blocks
        # does not change what they estimate.
        lat = [statistics.median(t * (k if scaled else 1.0) for t, k in runs)
               for runs in checked["cases"].values()]
    if not lat:
        return {}
    p90 = statistics.quantiles(lat, n=10, method="inclusive")[8] if len(lat) > 1 else lat[0]
    ms, per_s = ("ref_ms", "1/ref_s") if scaled else ("ms", "1/s")
    return {
        "setup_s": (statistics.median(run["setup"]), "s"),
        "ops_per_s": (ops_per_s(checked, scaled), per_s),
        "op_p50_ms": (1000 * statistics.median(lat), ms),
        "op_p90_ms": (1000 * p90, ms),
        "peak_rss_mb": (run["peak_rss_mb"], "MB"),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="Run one benchmark workload.")
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = time.monotonic() + BUDGET_S
    try:
        if not (ROOT / "src" / "lamplighter" / "__init__.py").is_file():
            raise BenchError(f"no program sources under {ROOT / 'src'}")
        env = child_env()
        with open(BENCH / "ore_expected.json", encoding="utf-8") as fh:
            expected_ore = json.load(fh)
        setup = [spawn(["--workload", args.workload, "--seed", "0", "--setup-only"],
                       env, deadline)[0] for _ in range(SETUP_PROBES + 1)][1:]
        plain = run_workers(args.workload, args.seed, args.seconds, False, env, deadline)
        plain["setup"] += setup
        plain_checked = verify(plain, expected_ore)
        metrics = end_to_end(plain, plain_checked)
        raw = {f"raw.{k}": v for k, v in end_to_end(plain, plain_checked, False).items()
               if k in ("ops_per_s", "op_p50_ms", "op_p90_ms")}
        runs = [plain_checked]
        if args.trace:
            traced = run_workers(args.workload, args.seed, args.seconds, True, env, deadline)
            traced_checked = verify(traced, expected_ore)
            runs.append(traced_checked)
            layers = tracer.layer_metrics(traced_checked["spans"], traced["wreath_muls"],
                                          traced["cache"])
            traced_rate = ops_per_s(traced_checked)
            plain_rate = metrics.get("ops_per_s", (0.0,))[0]
            overhead = plain_rate / traced_rate if traced_rate else 0.0
            layers.update(zip(TRACE_METRICS, ((traced_rate, "1/ref_s"),
                                              (plain_rate, "1/ref_s"), (overhead, "ratio"))))
    except BenchError as exc:
        sys.stderr.write(f"perfbench: {exc}\n")
        return 2

    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    problems = [p for r in runs for p in r["problems"]]
    reported = layers if args.trace else metrics
    correct = failed == 0 and bool(reported)
    env_info = machine()
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace} nproc={env_info['nproc']} cpu={env_info['cpu']!r} "
          f"python={env_info['python']} numpy={env_info['numpy']}")
    shown = {**metrics, **raw, **(layers if args.trace else {})}
    for name, (value, unit) in shown.items():
        print(f"  {name:<48} {value:>16.6g} {unit}")
    print(f"  {'fail_ratio':<48} {failed / attempted if attempted else 1.0:>16.6g} ratio"
          f"  ({failed} of {attempted} ops)")
    case_seconds = {case: statistics.median(t for t, _ in runs)
                    for case, runs in sorted(plain_checked["cases"].items())}
    for case, seconds in case_seconds.items():
        print(f"  {'case ' + case + ' seconds':<48} {seconds:>16.6g} s")
    for p in problems[:5]:
        print(f"  FAILED worker {p['worker']} op {p['op']}: {'; '.join(p['problems'])}")
    (OUT / f"result-{args.workload}-{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                    "trace": args.trace, "machine": env_info,
                    "metrics": shown,
                    "attempted": attempted, "failed": failed,
                    "case_seconds": case_seconds,
                    "problems": problems[:50]}, indent=2) + "\n", encoding="utf-8")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": u}
                                  for k, (v, u) in reported.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
