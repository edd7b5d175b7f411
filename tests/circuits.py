"""The pinned circuits: every shape whose cost the tests hold exact, and the
generator of the table that records them, ``tests/circuits.json``.

Each row of the table holds a shape's ``CostReport``, a sha256 prefix of its
``rotation_offsets()`` and, on an ideal shape, a sha256 prefix of its output
slots.  Chebyshev and noisy outputs pass through the BLAS products of
``ps_eval``'s leaves, which round within a few ulps of the fold, so those
rows carry no output digest; where a bound on their error against the
oracle is declared, they carry it as ``max_err``.
``tests/test_cost_table.py`` runs every shape and checks it against its row,
so a change to a circuit regenerates the table and its diff is the change's
cost::

    PYTHONPATH=src python tests/circuits.py --write   # rebuild the table
    PYTHONPATH=src python tests/circuits.py --check   # exit 1 on a stale row
"""

import argparse
import contextlib
import csv
import hashlib
import io
import json
import math
import sys
import tempfile
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import NamedTuple

import numpy as np

from slotrank import (
    HEParams,
    HESimulator,
    KernelConfig,
    SortConfig,
    StatisticQuery,
    block_merge,
    block_split,
    cheb_eval,
    chebyshev,
    cli,
    multi_rank,
    multi_sort,
    multi_statistic,
    order_statistic_value,
    ps_eval,
    rank,
    rank_corrected,
    read_row,
    reference,
    sort,
)
from slotrank.ranking import next_pow2

TABLE = Path(__file__).with_name("circuits.json")

# three 4x4 blocks in 16 slots, with ties inside and across blocks; the
# first 10 are blocks of 4, 4 and 2, the last one padded
BLOCKS = (0.3, 0.7, 0.3, 0.1, 0.9, 0.5, 0.7, 0.2, 0.3, 0.8, 0.6, 0.4)
EIGHT = (0.62, 0.13, 0.91, 0.47, 0.05, 0.78, 0.34, 0.56)


def _perm(shape):
    """Distinct values, the last made a copy of the first under tie correction."""
    v = (np.random.default_rng(shape.n).permutation(shape.n) + 1.0) / (shape.n + 1)
    if shape.tie:
        v[-1] = v[0]
    return v


# how each shape's input is made from its n and seed; ``gen`` is the console
# script's ``--gen uniform`` with ``tie_fraction``
INPUTS = {
    "perm": _perm,
    "eight": lambda s: np.array(EIGHT[: s.n]),
    "blocks": lambda s: np.array(BLOCKS[: s.n]),
    "uniform": lambda s: np.random.default_rng(s.seed).uniform(0, 1, s.n),
    "sixteenths": lambda s: np.random.default_rng(s.seed).integers(0, 16, s.n) / 16.0,
}

# the degree-d kernel fits that ``ps_eval`` shapes evaluate
POLYS = {
    "step": chebyshev._step_poly,
    "window": lambda d: chebyshev._window_poly(31.5, 32.5, 0.0, 64.0, d),
}


@dataclass(frozen=True)
class Shape:
    """One circuit: ``kind`` runs ``n`` values made by ``data`` from ``seed``
    on an engine of ``slots`` slots, ``max_level`` levels and noise ``sigma``,
    seeded by ``seed`` too, under a ``mode`` kernel of ``degree``.

    ``kind`` is a library call (``rank``, ``multi_rank``, ``sort``,
    ``multi_sort``, ``statistic`` for ``order_statistic_value``,
    ``multi_statistic``, ``ps_eval`` of the ``query`` fit on ``slots``
    values) or a console-script command, ``cli-sort``, run in-process
    through ``cli.main``.  ``query`` names a statistic (``min``, ``max``,
    ``median``, ``kth3``, ``percentile75``); ``tie`` is tie correction.
    """

    kind: str
    slots: int
    n: int
    data: str
    seed: int = 0
    mode: str = "ideal"
    degree: int = 256
    tie: bool = True
    query: str = ""
    tie_fraction: float = 0.0
    sigma: float = 0.0
    max_level: int = 64
    bound: float | None = None

    @property
    def id(self) -> str:
        parts = [self.kind, str(self.slots), f"n{self.n}"]
        if self.kind != "ps_eval":
            side = min(1 << ((self.slots.bit_length() - 1) // 2), next_pow2(self.n))
            parts.append(f"{math.ceil(self.n / side)}x{side}" + ("p" if self.n % side else ""))
            parts.append("tie" if self.tie else "distinct")
        parts.append(f"{self.mode}{self.degree}")
        if self.query:
            parts.append(self.query)
        seeded = self.data in ("uniform", "sixteenths", "gen")
        ties = f"x{self.tie_fraction:g}" if self.tie_fraction else ""
        parts.append(self.data + (str(self.seed) if seeded else "") + ties)
        if self.sigma:
            parts.append(f"sigma{self.sigma:g}")
        if self.max_level != 64:
            parts.append(f"L{self.max_level}")
        return "-".join(parts)


def grid(kind: str, geometry: str, blocks: int, padded: bool, mode: str, tie: bool) -> Shape:
    """Blocks of side 8 in 64 slots, a matrix that fills them, or in 128,
    one that does not, the last block padded by 3 or not."""
    return Shape(
        kind, {"full": 64, "not-full": 128}[geometry], 8 * blocks - 3 * padded, "perm", mode=mode,
        degree={"ideal": 256, "chebyshev": 64}[mode], tie=tie, query="median" if kind == "multi_statistic" else "",
    )


GRID = [
    (kind, geometry, blocks, padded, mode, tie)
    for kind in ("rank", "sort", "multi_sort", "multi_statistic")
    for geometry in ("full", "not-full")
    for blocks in ((1,) if kind in ("rank", "sort") else (1, 2, 3, 4))
    for padded in (False, True)
    for mode in ("ideal", "chebyshev")
    for tie in ((True,) if kind == "multi_statistic" else (False, True))
]

SHAPES = [
    *(grid(*case) for case in GRID),
    # one-block statistics of 8 values in 64 slots at chebyshev degree 64
    *(Shape("statistic", 64, 8, "eight", mode="chebyshev", degree=64, query=q)
      for q in ("min", "max", "kth3", "median", "percentile75")),
    # three tied 4x4 blocks in 16 slots, the last one full or padded
    Shape("multi_rank", 16, 12, "blocks"),
    *(Shape("multi_sort", 16, n, "blocks", mode=mode, degree=degree)
      for n in (12, 10) for mode, degree in (("ideal", 256), ("chebyshev", 64))),
    *(Shape("multi_statistic", 16, n, "blocks", mode=mode, degree=degree, query=q)
      for q in ("median", "min") for n in (12, 10) for mode, degree in (("ideal", 256), ("chebyshev", 64))),
    Shape("sort", 256, 16, "uniform", seed=3, mode="chebyshev", degree=64, max_level=40),
    # one block of 64 tied values in a matrix that fills 4096 slots and in
    # one that fills half of 8192
    *(Shape("sort", slots, 64, "sixteenths", seed=7) for slots in (4096, 8192)),
    # the degree-1024 kernel fits, and the benchmark's shapes: sort_cheb as
    # the library and the console script run it, and stats_cheb_noisy
    *(Shape("ps_eval", slots, slots, "uniform", seed=5, mode="chebyshev", degree=1024, query=q, max_level=40,
            bound=1e-12)
      for slots in (256, 1 << 16) for q in POLYS),
    Shape("sort", 1 << 16, 256, "uniform", seed=1, mode="chebyshev", degree=1024),
    Shape("cli-sort", 1 << 16, 256, "gen", seed=1, mode="chebyshev", degree=1024, tie_fraction=0.1, bound=1.0),
    Shape("statistic", 4096, 64, "uniform", seed=1, mode="chebyshev", query="min", sigma=1e-6, bound=0.05),
    # the console script's tied blocks: three 16x16, the last one padded;
    # 64 of 64 that fill the slots; five of 64 in half the slots
    Shape("cli-sort", 256, 40, "gen", seed=2, tie_fraction=0.25),
    Shape("cli-sort", 256, 40, "gen", seed=2, mode="chebyshev", tie_fraction=0.25, bound=0.5),
    Shape("cli-sort", 4096, 4096, "gen", seed=3, tie_fraction=0.1),
    Shape("cli-sort", 8192, 300, "gen", seed=4, tie_fraction=0.1),
    # distinct values, one 16x16 block in half the slots, sorted along the rows
    Shape("cli-sort", 512, 16, "gen", seed=1, mode="chebyshev", degree=64, tie=False, bound=0.5),
]


def _query(shape: Shape) -> StatisticQuery:
    kind = shape.query.rstrip("0123456789")
    arg = shape.query[len(kind):]
    return StatisticQuery(kind, k=int(arg) if kind == "kth" else None, p=float(arg) if kind == "percentile" else None)


def _run_cli(shape: Shape):
    argv = [
        shape.kind.removeprefix("cli-"), "--gen", "uniform", "--count", str(shape.n), "--seed", str(shape.seed),
        "--tie-fraction", str(shape.tie_fraction), "--slot-count", str(shape.slots), "--mode", shape.mode,
        "--cmp-degree", str(shape.degree), "--max-level", str(shape.max_level), "--noise-sigma", str(shape.sigma),
        "--tie-correction" if shape.tie else "--no-tie-correction",
    ]
    engines, engine_for = [], cli._engine_for
    cli._engine_for = lambda args, n: engines.append(engine_for(args, n)) or engines[-1]
    try:
        with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()):
            code = cli.main([*argv, "--output", f"{tmp}/out.csv", "--cost-output", f"{tmp}/cost.csv"])
            if code != cli.EXIT_OK:
                raise RuntimeError(f"slotrank {' '.join(argv)} exited {code}")
            slots = np.loadtxt(f"{tmp}/out.csv", delimiter=",", comments="#", ndmin=1)
            with open(f"{tmp}/cost.csv", encoding="utf-8") as f:
                err = float(next(csv.DictReader(f))["max_err"])
    finally:
        cli._engine_for = engine_for
    return engines[0], slots, err, None


def run(shape: Shape) -> tuple[HESimulator, np.ndarray, float, int | None]:
    """Run ``shape``: its engine, its output slots, their max error against
    the oracle, and the output's level (None from the console script)."""
    if shape.kind.startswith("cli-"):
        return _run_cli(shape)
    eng = HESimulator(HEParams(shape.slots, shape.max_level, shape.sigma, shape.seed))
    cfg = KernelConfig(mode=shape.mode, degree=shape.degree)
    if shape.kind == "ps_eval":
        poly = POLYS[shape.query](shape.degree)
        v = np.random.default_rng(shape.seed).uniform(*poly.interval, shape.slots)
        outs = [ps_eval(eng, eng.encrypt(v), poly)]
        got, want = eng.decrypt(outs[0]), cheb_eval(poly, v)
    else:
        v = INPUTS[shape.data](shape)
        ranks = reference.corrected_ranks if shape.tie else reference.fractional_ranks
        if shape.kind == "rank":
            outs = [(rank_corrected if shape.tie else rank)(eng, eng.encrypt(v), shape.n, cfg).ranks]
            got, want = read_row(eng, outs[0], shape.n), ranks(v)
        elif shape.kind == "sort":
            outs = [sort(eng, eng.encrypt(v), shape.n, SortConfig(kernel=cfg, tie_correction=shape.tie))]
            got, want = read_row(eng, outs[0], shape.n), reference.sorted_values(v)
        elif shape.kind == "multi_rank":
            bv = multi_rank(eng, block_split(eng, v), cfg, tie_correction=shape.tie)
            outs, got, want = bv.blocks, block_merge(eng, bv), ranks(v)
        elif shape.kind == "multi_sort":
            bv = multi_sort(eng, block_split(eng, v), SortConfig(kernel=cfg, tie_correction=shape.tie))
            outs, got, want = bv.blocks, block_merge(eng, bv), reference.sorted_values(v)
        else:
            query = _query(shape)
            if shape.kind == "statistic":
                outs = [order_statistic_value(eng, eng.encrypt(v), shape.n, query, cfg)]
            else:
                outs = [multi_statistic(eng, block_split(eng, v), query, cfg)]
            got, want = eng.decrypt(outs[0])[:1], reference.statistic_value(v, query.kind, query.k, query.p)
    slots = np.concatenate([eng.decrypt(c) for c in outs])
    return eng, slots, float(np.max(np.abs(got - want))), min(c.level for c in outs)


def digest(values) -> str:
    return hashlib.sha256(np.ascontiguousarray(values).tobytes()).hexdigest()[:16]


class Measured(NamedTuple):
    """A shape's table row, and what the table test checks beyond it."""

    row: dict
    err: float
    level: int | None
    offsets: tuple[int, ...]


def measure(shape: Shape) -> Measured:
    eng, slots, err, level = run(shape)
    offsets = tuple(eng.rotation_offsets())
    row = {"id": shape.id, **asdict(eng.cost_snapshot()), "offsets": digest(np.array(offsets, dtype=np.int64))}
    if shape.mode == "ideal":
        row["output"] = digest(slots)
    if shape.bound is not None:
        row["max_err"] = shape.bound
    return Measured(row, err, level, offsets)


def load() -> dict[str, dict]:
    return {row["id"]: row for row in json.loads(TABLE.read_text(encoding="utf-8"))}


def stale(table: dict[str, dict], rows: list[dict]) -> list[str]:
    """Each changed, missing or orphan row of ``table`` against ``rows``."""
    ids = {row["id"] for row in rows}
    return [
        *(f"changed: {r['id']}" for r in rows if r["id"] in table and table[r["id"]] != r),
        *(f"missing: {r['id']}" for r in rows if r["id"] not in table),
        *(f"orphan: {i}" for i in table if i not in ids),
    ]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Rebuild or check tests/circuits.json from the pinned shapes.")
    action = parser.add_mutually_exclusive_group(required=True)
    action.add_argument("--write", action="store_true", help="write the table")
    action.add_argument("--check", action="store_true", help="exit 1 if any row is changed, missing or orphan")
    args = parser.parse_args(argv)
    rows = [measure(s).row for s in SHAPES]
    if args.write:
        TABLE.write_text("[\n" + ",\n".join(json.dumps(r, sort_keys=True) for r in rows) + "\n]\n", encoding="utf-8")
        return 0
    problems = stale(load(), rows)
    print("\n".join(problems) or f"{len(rows)} rows up to date")
    return int(bool(problems))


if __name__ == "__main__":
    sys.exit(main())
