"""slotrank benchmark: seeded workloads, end-to-end and per-layer metrics.

Run from the root of a checkout:

    python3 perfbench/run.py --workload sort_cheb --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all            # every workload, one after another
    python3 perfbench/run.py --selftest                # determinism self-test

A single-process, closed-loop benchmark: one client, no threads.  Each timed
call runs from ``HESimulator(...)`` construction to ``decrypt`` of the
result; the timed calls cycle through the workload's fixed, seeded queries
for ``--seconds`` and at least ``MIN_SAMPLES`` calls, so the p90 has ten
samples beyond it.  Every output is checked against ``slotrank.reference``
outside the timed region.  Host times are reported at a reference speed:
each call's time is scaled by a calibration stream timed just before it
(``workloads.Calibration``), because the speed of a shared host drifts by
tens of percent between runs; the raw times are printed beside them.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` wraps the public
functions of each layer (see ``tracing.py``) and prints the per-layer
metrics, after checking that the traced counters reconcile exactly with
``cost_snapshot()``.  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code
is non-zero when any check fails.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
# The keys of workloads.WORKLOADS, named here so that parsing the arguments
# imports neither numpy nor slotrank.
WORKLOAD_NAMES = ("sort_cheb", "multisort_ideal", "stats_cheb_noisy")
MIN_SAMPLES = 100
MAX_LOOP_S = 130.0
SETUP_REPEATS = 5
PROBE_TIMEOUT_S = 60.0
OVERHEAD_PAIRS = 5


def _import_library():
    """Import slotrank from this checkout's ``src``, never from elsewhere."""
    if not (SRC / "slotrank" / "__init__.py").is_file():
        sys.exit(f"perfbench: no slotrank sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import slotrank

    if Path(slotrank.__file__).resolve().parent != SRC / "slotrank":
        sys.exit(f"perfbench: imported slotrank from {slotrank.__file__}, not {SRC}")


class Outcome:
    """Checked results of the calls one run makes."""

    def __init__(self, workload):
        self.wl = workload
        self.attempted = 0
        self.failures: list[str] = []
        self.first_out: dict[int, object] = {}
        self.first_report: dict[int, object] = {}
        self.errors: dict[int, float] = {}

    def run(self, q):
        """Make one call; returns (seconds, CostReport) or None if it failed."""
        import numpy as np

        self.attempted += 1
        try:
            start = time.perf_counter()
            out, engine = self.wl.call(q)
            elapsed = time.perf_counter() - start
        except Exception:
            self._fail(q, "raised:\n" + traceback.format_exc())
            return None
        report = engine.cost_snapshot()
        err, failure = self.wl.check(q, out)
        if failure is not None:
            self._fail(q, failure)
            return None
        # Every call is seeded by its query, so a repeat must match bit for bit.
        if q.index in self.first_out:
            if not np.array_equal(out, self.first_out[q.index]) or report != self.first_report[q.index]:
                self._fail(q, "repeat of the same seeded query gave a different result")
                return None
        else:
            self.first_out[q.index] = out
            self.first_report[q.index] = report
            self.errors[q.index] = err
        return elapsed, report

    def _fail(self, q, why):
        if not self.failures:
            print(f"FAILED {self.wl.name} query {q.index} {q.label}: {why}", file=sys.stderr)
        self.failures.append(why)


def _metric(value, unit):
    return {"value": value, "unit": unit}


def _print_result(metrics, notes, correct, attempted, failed):
    correct = correct and all(math.isfinite(m["value"]) for m in metrics.values())
    for name, m in metrics.items():
        print(f"  {name:<44} {m['value']:>14.6g} {m['unit']}")
    for line in notes:
        print(f"  {line}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


def _setup_seconds(workload: str, seed: int) -> tuple[list[float], list[float]]:
    """Fresh-interpreter set-up times, raw and at the reference speed.

    Each probe is a new interpreter because the fit and mask caches are
    process-global.
    """
    raw, scaled = [], []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__)), "--setup-probe", "--workload", workload, "--seed", str(seed)],
            capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, cwd=ROOT,
        )
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            sys.exit(f"perfbench: set-up probe for {workload} failed")
        elapsed, scale = map(float, proc.stdout.split())
        raw.append(elapsed)
        scaled.append(elapsed * scale)
    return raw, scaled


def setup_probe(workload: str, seed: int) -> int:
    """Print the seconds from ``import slotrank`` to the end of the first call, and the speed scale."""
    start = time.perf_counter()
    _import_library()
    from workloads import WORKLOADS, Calibration

    wl = WORKLOADS[workload]
    q = wl.queries(seed)[0]
    out, _ = wl.call(q)
    elapsed = time.perf_counter() - start
    _, failure = wl.check(q, out)
    if failure is not None:
        print(failure, file=sys.stderr)
        return 1
    calib = Calibration(wl)
    scale = wl.calib_ref_s / statistics.median(calib.seconds() for _ in range(SETUP_REPEATS))
    print(repr(elapsed), repr(scale))
    return 0


def _peak_mb(outcome: Outcome, q) -> float:
    import tracemalloc

    tracemalloc.start()
    try:
        outcome.run(q)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak / 1e6


def _p90(values):
    return statistics.quantiles(values, n=10, method="inclusive")[-1]


def end_to_end(workload: str, seed: int, seconds: float) -> int:
    setup_raw, setup = _setup_seconds(workload, seed)
    _import_library()
    from workloads import CYCLE, WORKLOADS, Calibration

    wl = WORKLOADS[workload]
    queries = wl.queries(seed)
    calib = Calibration(wl)
    outcome = Outcome(wl)
    outcome.run(queries[0])  # the first, untimed call

    raw, latencies, reports, calib_s = [], [], [], []
    loop_start = time.perf_counter()
    i = 0
    while True:
        elapsed = time.perf_counter() - loop_start
        enough = elapsed >= seconds and len(latencies) >= MIN_SAMPLES and i >= CYCLE
        if enough or elapsed >= MAX_LOOP_S:
            break
        calib_s.append(calib.seconds())
        res = outcome.run(queries[i % CYCLE])
        if res is not None:
            scale = wl.calib_ref_s / calib_s[-1]
            raw.append(res[0] * 1e3)
            latencies.append(res[0] * scale * 1e3)
            reports.append(res[1])
        i += 1
    peak = _peak_mb(outcome, queries[0])

    cycle = [outcome.first_report[j] for j in range(CYCLE) if j in outcome.first_report]
    busy_s = sum(latencies) / 1e3
    he_ops = sum(r.rotations + r.ctct_mults + r.ctpt_mults + r.additions for r in reports)
    max_err = max(outcome.errors.values(), default=math.inf)
    mean_err = statistics.fmean(outcome.errors.values()) if outcome.errors else math.inf
    enough = len(latencies) >= MIN_SAMPLES and len(cycle) == CYCLE
    mean = lambda field: statistics.fmean(getattr(r, field) for r in cycle) if enough else math.nan
    metrics = {
        "call_ms_p50": _metric(statistics.median(latencies) if enough else math.nan, "ms"),
        "call_ms_p90": _metric(_p90(latencies) if enough else math.nan, "ms"),
        "values_per_s": _metric(wl.n * len(latencies) / busy_s if enough else math.nan, "1/s"),
        "he_ops_per_s": _metric(he_ops / busy_s if enough else math.nan, "1/s"),
        "setup_s": _metric(statistics.median(setup), "s"),
        "peak_mb": _metric(peak, "MB"),
        "accuracy_bits": _metric(-math.log2(mean_err + 2.0**-53), "bits"),
        "he_rotations": _metric(mean("rotations"), "count"),
        "he_critical_rotations": _metric(mean("critical_rotations"), "count"),
        "he_ctct_mults": _metric(mean("ctct_mults"), "count"),
        "he_ctpt_mults": _metric(mean("ctpt_mults"), "count"),
        "he_additions": _metric(mean("additions"), "count"),
        "he_levels": _metric(max(r.levels_consumed for r in cycle) if enough else math.nan, "count"),
    }
    failed = len(outcome.failures)
    print(f"{workload} seed={seed}: {len(latencies)} timed calls; times are at the reference speed")
    notes = [
        f"samples {len(latencies)} (p90 has {len(latencies) - math.ceil(0.9 * len(latencies))} beyond it)",
        f"raw host time: call p50 {statistics.median(raw):.4g} ms, p90 {_p90(raw):.4g} ms, "
        f"setup {statistics.median(setup_raw):.4g} s; calibration p50 {statistics.median(calib_s) * 1e3:.4g} ms"
        if enough else "raw host time: too few samples",
        f"failed_frac {failed / outcome.attempted:.6g} ({failed}/{outcome.attempted})",
        f"max_abs_err {max_err:.6g} over the {CYCLE} seeded inputs; "
        f"accuracy_bits = -log2(mean over inputs of their max_abs_err {mean_err:.6g} + 2^-53)",
    ]
    if not enough:
        notes.append(f"fewer than {MIN_SAMPLES} samples within {MAX_LOOP_S:.0f} s")
    return _print_result(metrics, notes, failed == 0 and enough, outcome.attempted, failed)


def traced(workload: str, seed: int, seconds: float) -> int:
    _import_library()
    from tracing import ADDITIVE, Tracer, layer_metrics, reconcile
    from workloads import CYCLE, WORKLOADS, min_gap, tie_count

    wl = WORKLOADS[workload]
    queries = wl.queries(seed)
    outcome = Outcome(wl)
    tracer = Tracer()
    records, totals = [], dict.fromkeys(ADDITIVE, 0)
    with tracer:
        outcome.run(queries[0])  # the first call, as in the untraced run
        warm = tracer.reset()
        for q in queries:
            tracer.call = q.index
            res = outcome.run(q)
            if res is None:
                continue
            for counter in ADDITIVE:
                totals[counter] += getattr(res[1], counter)
            records.append({
                "index": q.index, "query": q.label, "min_gap": min_gap(q.values),
                "ties": tie_count(q.values), "max_abs_err": outcome.errors[q.index], "ms": res[0] * 1e3,
            })

    # Tracing overhead: alternate untraced and traced calls on the same queries.
    plain_ms, traced_ms = [], []
    pair_tracer = Tracer(keep_spans=False)
    start = time.perf_counter()
    i = 0
    while i < OVERHEAD_PAIRS or time.perf_counter() - start < seconds:
        q = queries[i % CYCLE]
        res = outcome.run(q)
        with pair_tracer:
            res_t = outcome.run(q)
        if res is not None and res_t is not None:
            plain_ms.append(res[0] * 1e3)
            traced_ms.append(res_t[0] * 1e3)
        i += 1

    kernel_evals = totals["cmp_evals"] + totals["ind_evals"]
    layers = layer_metrics(tracer.stats, warm, max(len(records), 1), kernel_evals)
    overhead = statistics.median(traced_ms) / statistics.median(plain_ms) - 1.0 if plain_ms else math.nan
    layers["trace.overhead_frac"] = (overhead, "ratio")
    metrics = {name: _metric(value, unit) for name, (value, unit) in layers.items()}
    checks = reconcile(tracer.stats, tracer.compare_calls, totals)
    bad = [f"{name}: traced {a} vs cost_snapshot {b}" for name, (a, b) in checks.items() if a != b]
    for line in bad:
        print(f"RECONCILE FAILED {line}", file=sys.stderr)

    OUT_DIR.mkdir(exist_ok=True)
    out_path = OUT_DIR / f"trace_{workload}_seed{seed}.json"
    with open(out_path, "w") as fh:
        json.dump({
            "workload": workload, "seed": seed, "n": wl.n, "calls": records,
            "per_layer": {name: value for name, (value, _) in layers.items()},
            "reconcile": checks,
            "spans": {"fields": ["call", "id", "parent", "name", "start_s", "end_s"], "rows": tracer.spans},
        }, fh)

    print(f"{workload} seed={seed}: traced {len(records)} calls after the first; {len(plain_ms)} overhead pairs")
    print(f"  {'query':<20} {'min_gap':>12} {'ties':>5} {'max_abs_err':>12}")
    for r in records:
        print(f"  {r['query']:<20} {r['min_gap']:>12.4g} {r['ties']:>5} {r['max_abs_err']:>12.4g}")
    notes = [
        f"reconcile: {len(checks) - len(bad)}/{len(checks)} exact",
        "no wait-time metric: runs are single-threaded and the engine lock is uncontended, so no layer waits on another",
        "engine.bytes_computed_mb is computed from slot vectors read and written per op, not measured",
        f"spans and per-call gap/error records written to {out_path.relative_to(ROOT)}",
    ]
    failed = len(outcome.failures)
    return _print_result(metrics, notes, failed == 0 and not bad and len(records) == CYCLE,
                         outcome.attempted, failed)


def selftest(seed: int) -> int:
    """Same seed: identical counters and max_abs_err; other seed: identical counters."""
    _import_library()
    from workloads import WORKLOADS

    def cycle(wl, s):
        outcome = Outcome(wl)
        reports = [outcome.run(q) for q in wl.queries(s)]
        if outcome.failures or any(r is None for r in reports):
            return None, None
        return [r[1] for r in reports], max(outcome.errors.values())

    ok = True
    for name, wl in WORKLOADS.items():
        first, err1 = cycle(wl, seed)
        again, err2 = cycle(wl, seed)
        other, _ = cycle(wl, seed + 1)
        results = {
            "same seed, same counters": first is not None and first == again,
            "same seed, same max_abs_err": err1 is not None and err1 == err2,
            "other seed, same counters": first is not None and first == other,
        }
        for what, passed in results.items():
            print(f"{'ok  ' if passed else 'FAIL'} {name}: {what}")
        ok = ok and all(results.values())
    return 0 if ok else 1


def run_all(args) -> int:
    status = 0
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__)), "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, timeout=300,
        )
        status = status or proc.returncode
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true", help="run the determinism self-test")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    # One client, no threads: keep numpy's BLAS single-threaded here and in
    # the set-up interpreters, which inherit the environment.
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    if args.setup_probe:
        return setup_probe(args.workload, args.seed)
    if args.selftest:
        return selftest(args.seed)
    if args.workload == "all":
        return run_all(args)
    if args.trace:
        return traced(args.workload, args.seed, args.seconds)
    return end_to_end(args.workload, args.seed, args.seconds)


if __name__ == "__main__":
    sys.exit(main())
