"""Command-line front end: demos, statistics, and degree sweeps.

Subcommands::

    slotrank rank   --input v.csv --mode ideal
    slotrank sort   --gen uniform --count 16 --seed 1
    slotrank stat   --stat median --gen uniform --count 32 --seed 7
    slotrank bench  --task rank --count 128 --degrees 64,128,256,512

Input vectors come from a file (one value per line, or a single
comma-separated line) or from the built-in uniform generator; ``bench``
always generates its inputs and takes no ``--input``.  Values are
affinely scaled into [0, 1] before comparison; the scale is recorded in
the results file and undone on value outputs.  Every run writes a results
file and a cost-report file and self-checks against the plaintext oracle.

All four commands run one task at a time through the same block
pipelines: a vector larger than one matrix (``--slot-count`` below the
matrix size) is split into blocks, for a statistic as for a ranking or a
sort, and ``bench`` honours ``--tie-correction`` as ``rank`` and ``sort``
do.  A statistic is always a window of tie-corrected ranks, so
``--no-tie-correction`` on ``stat`` or ``bench --task min/max`` is a usage
error.  ``--mode ideal`` needs a noise-free engine: the exact kernels
refuse ``--noise-sigma`` above 0 (exit 3).

Exit codes: 0 success, 2 usage error, 3 input error or a non-finite
result (``rank``, ``sort``, ``stat``), 4 depth budget exhausted.
"""

from __future__ import annotations

import argparse
import sys
import time
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from . import reference
from .chebyshev import KernelConfig
from .engine import CapacityError, CostReport, DepthBudgetError, HEParams, HESimulator
from .ranking import block_split, block_merge, multi_rank, next_pow2
from .select import StatisticQuery, multi_statistic
from .sorting import SortConfig, multi_sort

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_INPUT = 3
EXIT_DEPTH = 4

COUNTERS = tuple(f.name for f in fields(CostReport))
COST_COLUMNS = ",".join(
    ("task", "n", "mode", "cmp_degree", "ind_degree", *COUNTERS, "avg_err", "max_err", "wall_ms")
)


def _fmt(x) -> str:
    return f"{float(x):.12g}"


def _fmt_row(values) -> str:
    return ",".join(_fmt(v) for v in values)


@dataclass
class Scale:
    lo: float
    span: float

    def forward(self, v: np.ndarray) -> np.ndarray:
        return (v - self.lo) / self.span

    def back(self, v):
        return np.asarray(v) * self.span + self.lo


def _make_scale(values: np.ndarray) -> Scale:
    lo = float(values.min())
    hi = float(values.max())
    span = (hi - lo) if hi > lo else 1.0
    if not np.isfinite(span):  # finite values can still span more than a double holds
        raise ValueError(f"input span {hi!r} - {lo!r} overflows to {span}; inputs must span a finite range")
    return Scale(lo=lo, span=span)


def load_values(path: str) -> np.ndarray:
    text = Path(path).read_text(encoding="utf-8").strip()
    if not text:
        raise ValueError(f"input file {path} is empty")
    if "," in text:
        parts = [p for p in text.replace("\n", ",").split(",") if p.strip()]
    else:
        parts = [p for p in text.split() if p.strip()]
    try:
        values = np.array([float(p) for p in parts])
    except ValueError as exc:
        raise ValueError(f"cannot parse {path}: {exc}") from None
    # inf and nan parse as floats, but the rescaling into [0, 1] turns them
    # into NaN and every rank, sort or statistic into garbage
    bad = np.flatnonzero(~np.isfinite(values))
    if bad.size:
        first = bad[0]
        raise ValueError(f"{path}: value {first + 1} is {parts[first].strip()}; inputs must be finite")
    return values


def generate_values(count: int, seed: int, tie_fraction: float) -> np.ndarray:
    rng = np.random.default_rng(seed)
    values = rng.uniform(0.0, 1.0, count)
    n_ties = int(round(tie_fraction * count))
    if n_ties:
        targets = rng.choice(count, size=n_ties, replace=False)
        for t in targets:
            donor = int(rng.integers(0, count))
            if donor != t:
                values[t] = values[donor]
    return values


def _kernel_config(args) -> KernelConfig:
    return KernelConfig(mode=args.mode, degree=args.cmp_degree, indicator_degree=args.ind_degree)


def _engine_for(args, n: int) -> HESimulator:
    slot_count = args.slot_count
    if not slot_count:
        slot_count = max(4, next_pow2(n) ** 2)
    params = HEParams(
        slot_count=slot_count,
        max_level=args.max_level,
        noise_sigma=args.noise_sigma,
        seed=args.seed,
    )
    return HESimulator(params)


def _write_results(path: str, meta: dict, lines: list[str]):
    meta_line = "# " + " ".join(f"{k}={v}" for k, v in meta.items())
    Path(path).write_text("\n".join([meta_line, *lines]) + "\n", encoding="utf-8")


def _write_cost(path: str, rows: list[str]):
    Path(path).write_text("\n".join([COST_COLUMNS, *rows]) + "\n", encoding="utf-8")


def _cost_row(task: str, n: int, mode: str, record: dict) -> str:
    report = record["report"]
    return ",".join(
        [
            task, str(n), mode, str(record["cmp_degree"]), str(record["ind_degree"]),
            *(str(getattr(report, c)) for c in COUNTERS),
            _fmt(record["avg_err"]), _fmt(record["max_err"]), _fmt(record["wall_ms"]),
        ]
    )


def _obtain_values(args) -> np.ndarray:
    if args.input:
        values = load_values(args.input)
    else:
        values = generate_values(args.count, args.seed, args.tie_fraction)
    if values.size < 2:
        raise ValueError("need at least 2 input values")
    return values


@dataclass
class TaskRun:
    """One task on one input vector: its output, the per-entry error against
    the plaintext oracle, the cost counters and the scale of the input."""

    output: np.ndarray
    err: np.ndarray
    report: CostReport
    wall_ms: float
    scale: Scale


def run_task(task: str, values: np.ndarray, args) -> TaskRun:
    """Run ``task`` ("rank", "sort" or a statistic kind) on ``values``.

    Every task goes ``block_split`` -> ``multi_rank``/``multi_sort``/
    ``multi_statistic``, a vector that fits one matrix being the one-block
    case; ranks and sorted values come back through ``block_merge``, a
    statistic from slot 0.
    Ranks are scored against the fractional or, with tie correction, the
    corrected ranks of the scaled input; values against the input itself.
    Tied input without tie correction raises ``ValueError`` for a sort, whose
    output would be wrong; a statistic is always tie-corrected.
    """
    scale = _make_scale(values)
    scaled = scale.forward(values)
    n = values.size
    engine = _engine_for(args, n)
    cfg = _kernel_config(args)
    start = time.perf_counter()
    if task == "rank":
        ranks = multi_rank(engine, block_split(engine, scaled), cfg, tie_correction=args.tie_correction)
        output = block_merge(engine, ranks)
        oracle = (reference.corrected_ranks if args.tie_correction else reference.fractional_ranks)(scaled)
    elif task == "sort":
        sort_cfg = SortConfig(kernel=cfg, tie_correction=args.tie_correction)
        output = scale.back(block_merge(engine, multi_sort(engine, block_split(engine, scaled), sort_cfg)))
        oracle = reference.sorted_values(values)
    else:
        # the kind decides which of k and p is read; bench has neither flag
        query = StatisticQuery(task, k=getattr(args, "k", None), p=getattr(args, "p", None))
        ct = multi_statistic(engine, block_split(engine, scaled), query, cfg)
        output = scale.back(engine.decrypt(ct)[:1])
        oracle = reference.statistic_value(values, query.kind, query.k, query.p)
    wall_ms = (time.perf_counter() - start) * 1000.0
    return TaskRun(output, np.abs(output - oracle), engine.cost_snapshot(), wall_ms, scale)


def _record(cmp_degree: int, ind_degree: int | None, runs: list[TaskRun]) -> dict:
    """Oracle error over all runs; the cost counters of the last one (the
    circuit shape does not depend on the input values)."""
    errs = np.concatenate([r.err for r in runs])
    return {
        "cmp_degree": cmp_degree,
        "ind_degree": ind_degree or cmp_degree,
        "avg_err": float(errs.mean()),
        "max_err": float(errs.max()),
        "report": runs[-1].report,
        "wall_ms": sum(r.wall_ms for r in runs) / len(runs),
    }


def _run_once(args) -> int:
    task = args.stat if args.command == "stat" else args.command
    label = f"stat:{task}" if args.command == "stat" else task
    values = _obtain_values(args)
    # an overflow ends as a non-finite output, which is refused below
    with np.errstate(over="ignore", invalid="ignore"):
        run = run_task(task, values, args)
    if not np.isfinite(run.output).all():
        print(f"error: result: {label} produced non-finite output", file=sys.stderr)
        return EXIT_INPUT
    meta = {
        "task": label, "n": values.size, "mode": args.mode,
        "scale_lo": _fmt(run.scale.lo), "scale_span": _fmt(run.scale.span),
    }
    _write_results(args.output, meta, [_fmt_row(run.output)])
    record = _record(args.cmp_degree, args.ind_degree, [run])
    _write_cost(args.cost_output, [_cost_row(label, values.size, args.mode, record)])
    print(_fmt_row(run.output))
    return EXIT_OK


def bench_sweep(args) -> tuple[list[dict], bool]:
    """One aggregated record per (cmp_degree, ind_degree); trend flag for rank.

    Each record averages the oracle error over ``seeds`` generated inputs,
    each run through ``run_task``.
    """
    ind_degrees = args.ind_degrees or [None]
    records = []
    for dc in args.degrees:
        for di in ind_degrees:
            run_args = argparse.Namespace(**{**vars(args), "cmp_degree": dc, "ind_degree": di})
            runs = [
                run_task(args.task, generate_values(args.count, args.seed + s, args.tie_fraction), run_args)
                for s in range(args.seeds)
            ]
            records.append(_record(dc, di, runs))
    if len(ind_degrees) == 1:
        by_degree = [r["avg_err"] for r in records]
        monotone = all(b <= a * 1.10 for a, b in zip(by_degree, by_degree[1:]))
    else:
        monotone = True
    return records, monotone


def _run_bench(args) -> int:
    records, monotone = bench_sweep(args)
    result_lines = ["task,n,mode,cmp_degree,ind_degree,avg_err,max_err"]
    for r in records:
        result_lines.append(
            ",".join(
                [
                    args.task, str(args.count), args.mode,
                    str(r["cmp_degree"]), str(r["ind_degree"]),
                    _fmt(r["avg_err"]), _fmt(r["max_err"]),
                ]
            )
        )
    result_lines.append(f"# avg_err_non_increasing={'yes' if monotone else 'no'} tolerance=10%")
    meta = {"task": f"bench:{args.task}", "n": args.count, "mode": args.mode, "seeds": args.seeds}
    _write_results(args.output, meta, result_lines)
    _write_cost(args.cost_output, [_cost_row(args.task, args.count, args.mode, r) for r in records])
    for line in result_lines:
        print(line)
    return EXIT_OK


def _int_list(text: str) -> list[int]:
    try:
        return [int(p) for p in text.split(",") if p.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="slotrank",
        description="Ranking, order statistics, and sorting on SIMD-packed vectors "
        "over an instrumented leveled-HE simulator.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    src = common.add_argument_group("input")
    src.add_argument("--input", help="input vector file (one value per line or comma-separated)")
    src.add_argument("--gen", choices=["uniform"], help="generate the input instead of reading it")
    src.add_argument("--count", type=int, default=16, help="generated vector length")
    src.add_argument("--seed", type=int, default=0, help="generator / noise seed")
    src.add_argument("--tie-fraction", type=float, default=0.0, help="fraction of generated entries duplicated")
    ker = common.add_argument_group("kernels")
    ker.add_argument(
        "--mode", choices=["ideal", "chebyshev"], default=None,
        help="kernel realisation (default: ideal; bench defaults to chebyshev)",
    )
    ker.add_argument("--cmp-degree", type=int, default=256)
    ker.add_argument("--ind-degree", type=int, default=None)
    ker.add_argument(
        "--tie-correction", action=argparse.BooleanOptionalAction, default=None,
        help="redistribute tied ranks into a permutation "
        "(default: off for rank, on for sort; a statistic is always tie-corrected)",
    )
    eng = common.add_argument_group("simulator")
    eng.add_argument("--slot-count", type=int, default=0, help="0 = smallest power of two that fits")
    eng.add_argument("--max-level", type=int, default=64)
    eng.add_argument("--noise-sigma", type=float, default=0.0)
    out = common.add_argument_group("output")
    out.add_argument("--output", default=None, help="results file (default <command>_results.csv)")
    out.add_argument("--cost-output", default=None, help="cost report file (default <command>_cost.csv)")

    sub.add_parser("rank", parents=[common], help="fractional or tie-corrected ranking")
    sub.add_parser("sort", parents=[common], help="sort ascending")
    stat = sub.add_parser("stat", parents=[common], help="order statistic extraction")
    stat.add_argument("--stat", choices=["min", "max", "median", "kth", "percentile"], required=True)
    stat.add_argument("--k", type=int, help="rank for --stat kth")
    stat.add_argument("--p", type=float, help="percentile for --stat percentile")
    bench = sub.add_parser("bench", parents=[common], help="approximation-degree sweep")
    bench.add_argument(
        "--task", choices=["rank", "sort", "min", "max"], default="rank",
        help="min and max are always tie-corrected",
    )
    bench.add_argument("--degrees", type=_int_list, default=[64, 128, 256, 512])
    bench.add_argument("--ind-degrees", type=_int_list, default=None)
    bench.add_argument("--seeds", type=int, default=10)
    return parser


def _validate(parser, args):
    if args.mode is None:
        args.mode = "chebyshev" if args.command == "bench" else "ideal"
    if args.tie_correction is False and (args.command == "stat" or getattr(args, "task", None) in ("min", "max")):
        parser.error("a statistic is always tie-corrected; --no-tie-correction applies to rank and sort")
    if args.tie_correction is None:
        args.tie_correction = args.command not in ("rank", "bench")
    if args.command == "bench":
        if args.input:
            parser.error("bench generates its inputs from --count, --seed and --tie-fraction; --input is not accepted")
        if args.seeds < 1:
            parser.error("--seeds must be >= 1")
        for flag, degrees in (("--degrees", args.degrees), ("--ind-degrees", args.ind_degrees)):
            if degrees is not None and (not degrees or min(degrees) < 1):
                parser.error(f"{flag} needs at least one degree, each >= 1")
    if args.command != "bench" and not args.input and not args.gen:
        parser.error("either --input or --gen is required")
    if args.command == "stat":
        if args.stat == "kth" and args.k is None:
            parser.error("--stat kth requires --k")
        if args.stat == "percentile" and args.p is None:
            parser.error("--stat percentile requires --p")
        if args.p is not None and not 0.0 <= args.p <= 100.0:
            parser.error("--p must lie in [0, 100]")
    if not 0.0 <= args.tie_fraction <= 1.0:
        parser.error("--tie-fraction must lie in [0, 1]")
    if args.count < 2:
        parser.error("--count must be >= 2")
    if args.cmp_degree < 1 or (args.ind_degree is not None and args.ind_degree < 1):
        parser.error("approximation degrees must be >= 1")
    if args.slot_count and (args.slot_count < 2 or args.slot_count & (args.slot_count - 1)):
        parser.error("--slot-count must be a power of two >= 2")
    if args.output is None:
        args.output = f"{args.command}_results.csv"
    if args.cost_output is None:
        args.cost_output = f"{args.command}_cost.csv"


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        _validate(parser, args)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        return (_run_bench if args.command == "bench" else _run_once)(args)
    except DepthBudgetError as exc:
        print(f"error: depth budget: {exc}", file=sys.stderr)
        return EXIT_DEPTH
    except (CapacityError, FileNotFoundError, ValueError, OSError) as exc:
        print(f"error: input: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
