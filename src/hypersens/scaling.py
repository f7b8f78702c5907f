"""Scaling sweeps over the vertex count, CSV emission and log-log fits.

A sweep produces one row per v with up to four measured columns:

    s_lower   certified sensitivity lower bound: s(f, w) at the canonical
              1-side witness w; every care bit of w's verified witness
              term is evaluated, and the rest are non-sensitive by it
    s_exact   exhaustive max over all 2^n inputs (n <= 24 only)
    bs_lower  size of the edge-disjoint packing certificate at the empty
              input, every block re-verified by evaluation
    bs_exact  exhaustive max of bs(f, x) over all inputs (tiny n only)

Cells that exceed the per-cell wall-clock budget are left empty and a
warning is recorded; a sweep is never silently truncated.  Timing columns
are populated only on request so that default output is byte-for-byte
deterministic.
"""

import csv
import io
import time
from dataclasses import dataclass

import numpy as np

from .errors import (
    BadParameter,
    BudgetExceeded,
    CellBudgetExceeded,
    NonPositiveY,
    TooFewRows,
)
from .hypergraphs import Hypergraph
from .properties import (
    IsolatedCliqueProperty,
    IsolatedTriangleProperty,
    IsolatedVertexProperty,
)
from .sensitivity import (
    GLOBAL_BUDGET_BITS,
    block_sensitivity_exact,
    certify_blocks,
    sensitivity_at,
    sensitivity_global,
)
from .witnesses import (
    build_isolated_vertex_witness,
    build_s1_witness,
    clique_packing,
    packing_edge_blocks,
    triangle_packing,
)

COLUMNS = ("s_lower", "s_exact", "bs_lower", "bs_exact")
CSV_FIELDS = ("v", "n", "s_lower", "s_exact", "bs_lower", "bs_exact", "ms_s", "ms_bs")


@dataclass(frozen=True)
class FitResult:
    slope: float
    intercept: float
    r_squared: float
    v_range: tuple[int, int]

    def to_json(self) -> dict:
        return {
            "slope": self.slope,
            "intercept": self.intercept,
            "r_squared": self.r_squared,
            "v_range": list(self.v_range),
        }


def fit_exponent(rows) -> FitResult:
    """Ordinary least squares for log y = slope * log v + intercept."""
    pairs = [(int(v), float(y)) for v, y in rows]
    if len(pairs) < 3:
        raise TooFewRows(f"need at least 3 rows, got {len(pairs)}")
    if any(y <= 0 for _, y in pairs):
        raise NonPositiveY("all y values must be positive for a log-log fit")
    x = np.log([v for v, _ in pairs])
    y = np.log([y for _, y in pairs])
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0 else 1.0 - float(np.sum(resid**2)) / ss_tot
    vs = [v for v, _ in pairs]
    return FitResult(float(slope), float(intercept), r2, (min(vs), max(vs)))


@dataclass
class ScalingRow:
    v: int
    n: int
    s_lower: int | None = None
    s_exact: int | None = None
    bs_lower: int | None = None
    bs_exact: int | None = None
    ms_s: int | None = None
    ms_bs: int | None = None


def rows_to_csv(rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_FIELDS)
    for r in rows:
        writer.writerow(
            ["" if getattr(r, f) is None else getattr(r, f) for f in CSV_FIELDS]
        )
    return buf.getvalue()


def rows_from_csv(text: str) -> list[ScalingRow]:
    reader = csv.reader(io.StringIO(text))
    header = next(reader)
    if tuple(header) != CSV_FIELDS:
        raise BadParameter(f"unexpected CSV header {header!r}")
    out = []
    for rec in reader:
        if not rec:
            continue
        vals = [None if cell == "" else int(cell) for cell in rec]
        out.append(ScalingRow(**dict(zip(CSV_FIELDS, vals))))
    return out


@dataclass
class ScanResult:
    rows: list[ScalingRow]
    fits: dict[str, FitResult]
    warnings: list[str]


class _ScanTarget:
    """Per-property hooks: the evaluator, the 1-side witness, the packing."""

    def __init__(self, name, prop_of, witness_of, packing_of):
        self.name = name
        self.prop_of = prop_of
        self.witness_of = witness_of
        self.packing_of = packing_of


def _target(property_name: str, k, i, h) -> _ScanTarget:
    if property_name == "isolated-triangle":
        return _ScanTarget(
            property_name,
            IsolatedTriangleProperty,
            lambda v: build_s1_witness(v, 2, 1, 3),
            triangle_packing,
        )
    if property_name == "isolated-vertex":
        return _ScanTarget(
            property_name,
            IsolatedVertexProperty,
            build_isolated_vertex_witness,
            None,
        )
    if property_name == "isolated-clique":
        if k is None or i is None or h is None:
            raise BadParameter("isolated-clique scans need k, i and h")
        packing = None
        if h == k + 1:
            packing = lambda v: clique_packing(v, k)
        return _ScanTarget(
            property_name,
            lambda v: IsolatedCliqueProperty(v, k, i, h),
            lambda v: build_s1_witness(v, k, i, h),
            packing,
        )
    raise BadParameter(f"unknown scan property {property_name!r}")


def run_scan(
    property_name: str,
    v_values,
    columns,
    *,
    k: int | None = None,
    i: int | None = None,
    h: int | None = None,
    budget_ms: int = 60_000,
    timings: bool = False,
) -> ScanResult:
    """One ScalingRow per v plus a fit per measured column."""
    v_values = list(v_values)
    if not v_values:
        raise BadParameter("empty v range")
    columns = tuple(columns)
    for c in columns:
        if c not in COLUMNS:
            raise BadParameter(f"unknown column {c!r}")
    target = _target(property_name, k, i, h)
    if "bs_lower" in columns and target.packing_of is None:
        raise BadParameter(
            f"bs_lower is not available for {property_name!r}"
            + (" with h != k+1" if property_name == "isolated-clique" else "")
        )
    # exhaustive columns are bounded up front, naming the first offender
    for c in ("s_exact", "bs_exact"):
        if c in columns:
            for v in v_values:
                n = target.prop_of(v).n
                if n > GLOBAL_BUDGET_BITS:
                    raise BudgetExceeded(
                        f"column {c} at v={v} needs 2^{n} inputs"
                        f" (> 2^{GLOBAL_BUDGET_BITS})"
                    )

    warnings: list[str] = []
    rows = []
    for v in v_values:
        prop = target.prop_of(v)
        row = ScalingRow(v=v, n=prop.n)
        ms_s = ms_bs = 0
        for col in columns:
            start = time.monotonic()
            deadline = start + budget_ms / 1000.0
            try:
                value = _measure(col, target, prop, v, deadline)
            except CellBudgetExceeded:
                value = None
            elapsed_ms = int(round((time.monotonic() - start) * 1000))
            if value is not None and elapsed_ms > budget_ms:
                value = None
            if value is None:
                warnings.append(
                    f"column {col} at v={v} exceeded the {budget_ms} ms budget;"
                    " cell left empty"
                )
            else:
                setattr(row, col, value)
            if col.startswith("s"):
                ms_s += elapsed_ms
            else:
                ms_bs += elapsed_ms
        if timings:
            row.ms_s = ms_s
            row.ms_bs = ms_bs
        rows.append(row)

    fits: dict[str, FitResult] = {}
    for col in columns:
        pairs = [(r.v, getattr(r, col)) for r in rows if (getattr(r, col) or 0) > 0]
        try:
            fits[col] = fit_exponent(pairs)
        except (TooFewRows, NonPositiveY) as exc:
            warnings.append(f"no fit for {col}: {exc}")
    return ScanResult(rows, fits, warnings)


def _measure(col, target, prop, v, deadline):
    if col == "s_lower":
        witness = target.witness_of(v)
        return sensitivity_at(prop, witness, deadline=deadline).s_at_x
    if col == "s_exact":
        return sensitivity_global(prop, deadline=deadline).value
    if col == "bs_lower":
        packing = target.packing_of(v)
        blocks = packing_edge_blocks(packing)
        cert = certify_blocks(prop, Hypergraph.empty(prop.v, prop.k), blocks)
        return cert.count
    if col == "bs_exact":
        best = 0
        for x in range(1 << prop.n):
            res = block_sensitivity_exact(prop, x, prop.n, deadline=deadline)
            best = max(best, res.value)
        return best
    raise AssertionError(col)
