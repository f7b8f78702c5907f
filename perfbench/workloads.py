"""The benchmark's workloads: seeded inputs, timed jobs and answer checks.

A workload function takes the imported package and a seeded
``random.Random`` and returns its jobs; calling it is the set-up, which
makes the property objects and the seeded inputs.  Inputs that come
from a witness construction are built inside the timed job that uses them,
because the construction is part of the work measured.

Seeds change inputs only by a vertex relabelling (``Hypergraph.relabel``),
which leaves every answer unchanged, so one digest per job, recorded from
the commit that introduced the benchmark, checks every seed.  Where a
closed form is known the answer is also checked against it.
"""

import contextlib
import hashlib
import io
import json
import math
from dataclasses import dataclass
from typing import Callable

JOB_BUDGET_S = 60.0


@dataclass(frozen=True)
class Job:
    name: str
    run: Callable[[], object]  # returns a JSON-serialisable answer
    closed_form: Callable[[object], bool] | None = None


def digest(answer) -> str:
    text = json.dumps(answer, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def check(job: Job, answer, expected: str | None) -> str | None:
    """None if the answer is right, else the reason it is wrong."""
    if job.closed_form is not None and not job.closed_form(answer):
        return f"closed form violated by {answer!r}"[:300]
    if expected is not None and digest(answer) != expected:
        return f"digest {digest(answer)} != recorded {expected}"
    return None


def _permutation(rng, v):
    sigma = list(range(v))
    rng.shuffle(sigma)
    return sigma


def _cli(hs, argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = hs.cli.main(argv)
    return {"exit": code, "stdout": out.getvalue()}


def _csv_rows(answer):
    lines = answer["stdout"].splitlines()
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


def _steiner_count(v):
    vp = v
    while vp % 6 != 3:
        vp -= 1
    return vp * (vp - 1) // 6


def _clique_s1(v, k=3, i=1, h=4):
    """s at a single h-clique: its C(h,k) edges, plus every addition that
    meets it in i..k-1 vertices."""
    return math.comb(h, k) + sum(
        math.comb(h, j) * math.comb(v - h, k - j) for j in range(i, k)
    )


# ---------------------------------------------------------------- exhaustive

# fixed random base graphs for the bs jobs; a seed only relabels them
_IV7_BASES = (0x1A2F3D, 0x0B7C15)
_IT7_BASES = (0x0C0413, 0x0310A1)


def exhaustive(hs, rng):
    """Truth tables and minimal-block scans: millions of scalar value calls."""
    jobs = []

    def global_job(name, prop, closed=None):
        def run():
            g = hs.sensitivity_global(prop)
            return [g.value, g.argmax, g.s0, g.s1]

        jobs.append(Job(f"global/{name}", run, closed))

    global_job("rubinstein-k4", hs.RubinsteinProperty(4), lambda a: a[0] == 8)
    global_job("cyclic-rubinstein-k4", hs.CyclicRubinsteinProperty(4), lambda a: a[0] == 14)
    global_job("isolated-vertex-v6", hs.IsolatedVertexProperty(6))
    global_job("isolated-triangle-v6", hs.IsolatedTriangleProperty(6))

    def scan_job(prop_name, v):
        def run():
            res = hs.run_scan(prop_name, [v], ["bs_exact"])
            return {
                "rows": [[r.v, r.n, r.bs_exact] for r in res.rows],
                "warnings": res.warnings,
            }

        jobs.append(Job(f"scan-bs-exact/{prop_name}-v{v}", run))

    scan_job("isolated-vertex", 5)

    def bs_job(name, prop, x, cap, closed=None):
        def run():
            res = hs.block_sensitivity_exact(prop, x, cap)
            return [res.value, res.capped, res.certificate.count]

        jobs.append(Job(f"bs/{name}", run, closed))

    for j, base in enumerate(_IV7_BASES):
        x = hs.Hypergraph(7, 2, base).relabel(_permutation(rng, 7)).bits
        bs_job(f"isolated-vertex-v7-cap6/{j}", hs.IsolatedVertexProperty(7), x, 6)
    for j, base in enumerate(_IT7_BASES):
        x = hs.Hypergraph(7, 2, base).relabel(_permutation(rng, 7)).bits
        bs_job(f"isolated-triangle-v7-cap4/{j}", hs.IsolatedTriangleProperty(7), x, 4)
    # the triangle packing number D(7) = 7
    bs_job("isolated-triangle-v7-zeros-cap3", hs.IsolatedTriangleProperty(7), 0, 3,
           lambda a: a[0] == 7)
    bs_job("cyclic-rubinstein-k4-zeros-cap8", hs.CyclicRubinsteinProperty(4), 0, 8)
    return jobs


# -------------------------------------------------------------- witness_scan

_TRIANGLE_SCAN = (
    "scan --property isolated-triangle --v-start 9 --v-end 57 --v-step 6"
    " --columns s_lower,bs_lower"
).split()
_CLIQUE_SCAN = (
    "scan --property isolated-clique --k 3 --i 1 --h 4 --v-start 8 --v-end 22"
    " --columns s_lower,bs_lower"
).split()
_TRIANGLE_VS = (200, 250)
_CLIQUE_VS = (32, 40, 48)
_VERTEX_VS = (50, 60)


def witness_scan(hs, rng):
    """Flip loops at large n over sparse and dense witnesses, plus CLI scans."""

    def triangle_rows_ok(a):
        return a["exit"] == 0 and all(
            int(r["s_lower"]) == 3 * int(r["v"]) - 6
            and int(r["bs_lower"]) == _steiner_count(int(r["v"]))
            for r in _csv_rows(a)
        )

    def clique_rows_ok(a):
        return a["exit"] == 0 and all(
            int(r["s_lower"]) == _clique_s1(int(r["v"])) for r in _csv_rows(a)
        )

    jobs = [
        Job("cli/scan-isolated-triangle", lambda: _cli(hs, _TRIANGLE_SCAN), triangle_rows_ok),
        Job("cli/scan-isolated-clique-k3", lambda: _cli(hs, _CLIQUE_SCAN), clique_rows_ok),
    ]

    def sens_job(name, prop, witness, sigma, expected_s):
        def run():
            report = hs.sensitivity_at(prop, witness().relabel(sigma))
            return [report.f_value, report.s_at_x]

        jobs.append(Job(f"sens/{name}", run, lambda a: a == [1, expected_s]))

    for v in _TRIANGLE_VS:
        sens_job(f"isolated-triangle-v{v}", hs.IsolatedTriangleProperty(v),
                 lambda v=v: hs.build_s1_witness(v, 2, 1, 3), _permutation(rng, v), 3 * v - 6)
    for v in _CLIQUE_VS:
        sens_job(f"isolated-clique-k3-v{v}", hs.IsolatedCliqueProperty(v, 3, 1, 4),
                 lambda v=v: hs.build_s1_witness(v, 3, 1, 4), _permutation(rng, v), _clique_s1(v))
    for v in _VERTEX_VS:
        sens_job(f"isolated-vertex-v{v}", hs.IsolatedVertexProperty(v),
                 lambda v=v: hs.build_isolated_vertex_witness(v), _permutation(rng, v), v - 1)
    return jobs


# -------------------------------------------------------------- family_route

# (v, k, prefix limit); the cost of certifying a prefix witness depends on
# its labelling several-fold, so each job certifies _RELABELLINGS of them
_FAMILY_CERTS = ((300, 3, 6), (256, 2, 24))
_RELABELLINGS = 4


def family_route(hs, rng):
    """GF arithmetic, family generation and the 0-side family witnesses."""

    def full_witness():
        G, count, prop = hs.build_family_witness(300, 3)
        return [count, G.edge_count, prop.i, prop.h]

    def family():
        fam = hs.generate_family(hs.make_field(2, 8), 2, 1, 150)
        ok = hs.verify_family(fam).ok
        return {"sets": len(fam.sets), "digest": digest(fam.sets), "ok": ok}

    jobs = [
        Job("witness/family-v300-k3", full_witness),
        Job("family/gf256-d2-ell1-limit150", family, lambda a: a["ok"] and a["sets"] == 150),
    ]

    def cert_job(v, k, limit, sigmas):
        def run():
            G, count, prop = hs.build_family_witness(v, k, limit)
            answers = []
            for sigma in sigmas:
                H = G.relabel(sigma)
                tuples = hs.enumerate_sensitive_tuples(prop, H)
                cert = hs.certify_blocks(prop, H, [(t.edge,) for t in tuples])
                directions = sorted({t.direction for t in tuples})
                answers.append([count, len(tuples), cert.count, directions])
            return answers

        # every placed set yields exactly one sensitive tuple, each certified
        jobs.append(Job(f"certify/family-v{v}-k{k}-limit{limit}", run,
                        lambda a: all(r == a[0] and r[0] == r[1] == r[2] > 0 for r in a)))

    for v, k, limit in _FAMILY_CERTS:
        cert_job(v, k, limit, [_permutation(rng, v) for _ in range(_RELABELLINGS)])
    return jobs


WORKLOADS = {
    "exhaustive": exhaustive,
    "witness_scan": witness_scan,
    "family_route": family_route,
}

# callables each workload must reach; a traced run fails if one records no call
REQUIRED = {
    "exhaustive": (
        "properties.RubinsteinProperty.value",
        "properties.CyclicRubinsteinProperty.value",
        "properties.IsolatedVertexProperty.value",
        "properties.IsolatedTriangleProperty.value",
        "hypergraphs.edges_of_bits",
        "sensitivity.truth_table",
        "sensitivity.sensitivity_global",
        "sensitivity.minimal_sensitive_blocks",
        "sensitivity.block_sensitivity_exact",
        "scaling.run_scan",
    ),
    "witness_scan": (
        "properties.IsolatedVertexProperty.value",
        "properties.IsolatedTriangleProperty.value",
        "properties.IsolatedCliqueProperty.value",
        "hypergraphs.edges_of_bits",
        "sensitivity.sensitivity_at",
        "sensitivity.certify_blocks",
        "witnesses.triangle_packing",
        "witnesses.clique_packing",
        "witnesses.packing_edge_blocks",
        "witnesses.build_s1_witness",
        "witnesses.build_isolated_vertex_witness",
        "scaling.run_scan",
        "scaling.fit_exponent",
        "cli.main",
    ),
    "family_route": (
        "gf.make_field",
        "gf.FieldPoly.eval",
        "families.generate_family",
        "families.verify_family",
        "hypergraphs.edges_of_bits",
        "properties.IsolatedCliqueProperty.value",
        "sensitivity.enumerate_sensitive_tuples",
        "sensitivity.certify_blocks",
        "witnesses.build_s0_witness",
        "witnesses.build_family_witness",
    ),
}
