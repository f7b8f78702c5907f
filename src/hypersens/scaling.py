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
from .properties import property_from_json
from .sensitivity import (
    GLOBAL_BUDGET_BITS,
    block_sensitivity_exact,
    certify_blocks,
    sensitivity_at,
    sensitivity_global,
)
from .witnesses import packing_edge_blocks

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
    spec = {"variant": property_name, "k": k, "i": i, "h": h}
    props = [property_from_json({**spec, "v": v}) for v in v_values]
    if "bs_lower" in columns and props[0].packing() is None:
        raise BadParameter(f"bs_lower is not available for {props[0].name!r}")
    # exhaustive columns are bounded up front, naming the first offender
    for c in ("s_exact", "bs_exact"):
        if c in columns:
            for prop in props:
                if prop.n > GLOBAL_BUDGET_BITS:
                    raise BudgetExceeded(
                        f"column {c} at v={prop.v} needs 2^{prop.n} inputs"
                        f" (> 2^{GLOBAL_BUDGET_BITS})"
                    )

    warnings: list[str] = []
    rows = []
    for v, prop in zip(v_values, props):
        row = ScalingRow(v=v, n=prop.n)
        ms_s = ms_bs = 0
        for col in columns:
            start = time.monotonic()
            deadline = start + budget_ms / 1000.0
            try:
                value = _measure(col, prop, deadline)
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


def _measure(col, prop, deadline):
    if col == "s_lower":
        return sensitivity_at(prop, prop.witness(), deadline=deadline).s_at_x
    if col == "s_exact":
        return sensitivity_global(prop, deadline=deadline).value
    if col == "bs_lower":
        blocks = packing_edge_blocks(prop.packing())
        return certify_blocks(prop, 0, blocks).count
    if col == "bs_exact":
        best = 0
        for x in range(1 << prop.n):
            res = block_sensitivity_exact(prop, x, prop.n, deadline=deadline)
            best = max(best, res.value)
        return best
    raise AssertionError(col)
