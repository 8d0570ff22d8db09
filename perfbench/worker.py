"""One benchmark workload in one fresh process.

Started by ``run.py`` with ``src`` on ``PYTHONPATH``.  It imports the
program, builds the algebras it needs and prints ``ready`` with the time
of ``time.monotonic`` (one clock for all processes); the parent times
set-up from the start of the process to that moment.  Unless
``--setup-only`` is given it then runs whole blocks of ops as a closed
loop with one client until ``--seconds`` have passed (or
``--max-blocks`` blocks are done), timing each op alone and calibrating
the machine's speed between ops.  Every op's input and output go to
``--records`` as one JSON line, written outside the timed region; the
parent checks them after this process has exited, so the checks cost
this process neither time nor memory.  The last stdout line is a JSON
summary.

With ``--trace`` the layer functions are wrapped by ``tracer.Tracer`` and
the spans are written to ``--spans`` at the end.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import sys
import time
import traceback
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import workloads  # noqa: E402

from lamplighter import cli, foxwords, parsing  # noqa: E402
from lamplighter.groupring import GroupRing  # noqa: E402
from lamplighter.ring import ScalarRing  # noqa: E402
from lamplighter.wreath import WreathGroup  # noqa: E402


# A shared machine changes speed by tens of percent within seconds (other
# tenants on the same cores), more than the regressions the benchmark must
# see.  Between ops, at most every CALIBRATE_S, the worker times a fixed
# pure-Python loop.  run.py scales an op's time by REFERENCE_S over the
# mean loop time just before and just after the op, that is to a machine
# on which the loop takes REFERENCE_S.  The raw times are kept too.
REFERENCE_S = 0.0015
CALIBRATE_S = 0.1


def _reference_loop() -> int:
    acc: dict = {}
    for i in range(4000):
        key = (i % 97, (i * 31) % 89)
        acc[key] = acc.get(key, 0) + i
    return len(acc)


def _reference_seconds() -> float:
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        _reference_loop()
        best = min(best, time.perf_counter() - start)
    return best


def _run_cli(op):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        rc = cli.main(op["argv"])
        elapsed = time.perf_counter() - start
    return elapsed, {"rc": rc, "stdout": out.getvalue(), "stderr": err.getvalue()}


def _fox_runner(algebras):
    def run(op):
        start = time.perf_counter()
        algebra = algebras[(op["k"], op["d"])]
        components = {l: parsing.parse_ring_element(text, algebra)
                      for l, text in op["relators"]}
        image = foxwords.boundary_from_relators(
            foxwords.ModuleVector(algebra, "relators", components))
        composite = foxwords.boundary_from_generators(image)
        elapsed = time.perf_counter() - start
        return elapsed, {"image": image, "dd": composite}
    return run


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--first-block", type=int, default=0)
    ap.add_argument("--max-blocks", type=int, default=0, help="0 means no limit")
    ap.add_argument("--records")
    ap.add_argument("--spans")
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    if args.workload == "fox-boundary":
        algebras = {(k, d): GroupRing(ScalarRing(k), WreathGroup(d))
                    for k, d in workloads.FOX_RINGS}
        run = _fox_runner(algebras)
    else:
        run = _run_cli
    print(f"ready {time.monotonic()}", flush=True)
    if args.setup_only:
        return 0

    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer().install()
    cache_before = foxwords.relator_fox_derivative.cache_info()
    index = wreath_muls = 0
    block = args.first_block
    begin = time.perf_counter()
    calibrated = begin - CALIBRATE_S
    reference = 0.0

    def calibrate():
        nonlocal calibrated, reference
        if time.perf_counter() - calibrated >= CALIBRATE_S:
            reference = _reference_seconds()
            calibrated = time.perf_counter()
        return reference

    with open(args.records, "w", encoding="utf-8") as records:
        while True:
            for op in workloads.block(args.workload, args.seed, block):
                before = calibrate()
                muls = tracer.counts["wreath.mul"][0] if tracer else 0
                if tracer:
                    tracer.op, tracer.active = index, True
                try:
                    elapsed, result = run(op)
                except Exception:   # recorded as a failed op, checked by the parent
                    elapsed, result = None, {"error": traceback.format_exc()}
                if tracer:
                    tracer.active = False
                    wreath_muls += tracer.counts["wreath.mul"][0] - muls
                scale = 2 * REFERENCE_S / (before + calibrate())
                result = {k: v.to_json() if hasattr(v, "to_json") else v
                          for k, v in result.items()}
                records.write(json.dumps({"op": op, "block": block, "seconds": elapsed,
                                          "scale": scale, **result}) + "\n")
                index += 1
            block += 1
            if block - args.first_block == args.max_blocks \
                    or time.perf_counter() - begin >= args.seconds:
                break
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    cache_after = foxwords.relator_fox_derivative.cache_info()
    if tracer:
        tracer.uninstall()
        with open(args.spans, "w", encoding="utf-8") as fh:
            for span in tracer.spans:
                fh.write(json.dumps(span) + "\n")
    print(json.dumps({
        "blocks": block - args.first_block,
        "peak_rss_mb": rss_mb,
        "cache": [cache_after.hits - cache_before.hits,
                  cache_after.misses - cache_before.misses],
        "wreath_muls": wreath_muls,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
