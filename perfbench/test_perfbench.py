"""Self-tests of the benchmark's own code.

    python3 -m pytest -q perfbench/test_perfbench.py

The answer checks are exercised on the jobs that take well under a second
each; the long jobs use the same checks.
"""

import json
import random
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from worker import import_package  # noqa: E402

hs = import_package()
EXPECTED = json.loads((HERE / "expected.json").read_text())
SLOW = {
    "scan-bs-exact/isolated-vertex-v5",
    "sens/isolated-triangle-v250",
    "sens/isolated-clique-k3-v48",
    "sens/isolated-vertex-v60",
    "witness/family-v300-k3",
    "family/gf256-d2-ell1-limit150",
    "certify/family-v256-k2-limit24",
}


def quick_jobs(seed):
    return [
        (name, job)
        for name, build in workloads.WORKLOADS.items()
        for job in build(hs, random.Random(seed))
        if job.name not in SLOW
    ]


def corrupt(answer):
    """The answer with its first checked value changed."""
    if isinstance(answer, bool):
        return not answer
    if isinstance(answer, int):
        return answer + 1
    if isinstance(answer, list):
        return [corrupt(answer[0])] + answer[1:]
    if "stdout" in answer:  # CLI scan CSV: bump s_lower in the first row
        header, first, *rest = answer["stdout"].split("\n")
        cells = first.split(",")
        cells[2] = str(int(cells[2]) + 1)
        return {**answer, "stdout": "\n".join([header, ",".join(cells), *rest])}
    key = "ok" if "ok" in answer else sorted(answer)[0]
    return {**answer, key: corrupt(answer[key])}


def test_self_time_subtracts_the_calls_made_directly_inside(monkeypatch):
    """A synthetic call tree on a fake clock: each body advances the clock."""
    now = [0.0]
    monkeypatch.setattr(tracing, "time", SimpleNamespace(perf_counter=lambda: now[0]))
    t = tracing.Tracer()
    wrap = t._wrap

    def work(seconds):
        now[0] += seconds

    packing = wrap("witnesses.clique_packing", lambda: work(0.25))
    edges = wrap("hypergraphs.edges_of_bits", lambda: (work(1.0), [1, 2])[1])

    def value_body():  # a leaf that calls a leaf and a span
        work(2.0)
        edges()
        packing()

    value = wrap("properties.RubinsteinProperty.value", value_body)

    def inner_body():
        work(3.0)
        edges()

    inner = wrap("sensitivity.truth_table", inner_body)

    def outer_body():
        work(1.0)
        value()
        work(1.0)
        inner()
        work(1.0)

    wrap("sensitivity.sensitivity_global", outer_body)()
    outer, pack, tt = t.spans
    assert (outer.parent, pack.parent, tt.parent) == (None, 0, 0)
    # outer: 10.25 s in all, minus value (3.25) and truth_table (4.0)
    assert (outer.end - outer.start, outer.self_s) == (10.25, 3.0)
    assert (pack.self_s, tt.self_s) == (0.25, 3.0)
    assert (outer.value_calls, tt.value_calls) == (1, 0)
    m = t.metrics()
    assert m["properties.RubinsteinProperty.value.self_s"] == 2.0
    assert m["hypergraphs.edges_of_bits.self_s"] == 2.0
    assert m["hypergraphs.edges_of_bits.calls"] == 2
    assert m["hypergraphs.edges_of_bits.edges"] == 4
    self_total = sum(v for k, v in m.items() if k.endswith(".self_s"))
    assert self_total == outer.end - outer.start


@pytest.fixture()
def tracer():
    t = tracing.Tracer().install()
    try:
        yield t
    finally:
        t.uninstall()


def test_leaf_and_span_self_times_add_up(tracer):
    prop = hs.IsolatedTriangleProperty(5)
    hs.sensitivity_global(prop)
    m = tracer.metrics()
    assert m["sensitivity.truth_table.calls"] == 1
    assert m["sensitivity.truth_table.value_calls"] == 1 << prop.n
    assert m["properties.IsolatedTriangleProperty.value.calls"] == 1 << prop.n
    assert m["hypergraphs.edges_of_bits.calls"] == 1 << prop.n
    value_total = tracer.leaves["properties.IsolatedTriangleProperty.value"][1]
    nested = (m["properties.IsolatedTriangleProperty.value.self_s"]
              + m["hypergraphs.edges_of_bits.self_s"])
    assert nested == pytest.approx(value_total)
    outer, inner = tracer.spans
    assert (outer.name, outer.parent) == ("sensitivity.sensitivity_global", None)
    assert (inner.name, inner.parent) == ("sensitivity.truth_table", 0)
    assert outer.start < inner.start < inner.end < outer.end


def test_uninstall_restores_every_import_site():
    orig = hs.sensitivity_at
    t = tracing.Tracer().install()
    assert hs.scaling.sensitivity_at is not orig and hs.cli.sensitivity_at is not orig
    assert hs.scaling.sensitivity_at is hs.sensitivity.sensitivity_at
    t.uninstall()
    assert hs.scaling.sensitivity_at is orig and hs.cli.sensitivity_at is orig
    assert "value" in vars(hs.IsolatedCliqueProperty)
    assert hs.IsolatedCliqueProperty.value.__name__ == "value"


def test_every_listed_callable_exists_and_required_ones_are_listed():
    for mod, names in tracing.LAYERS.items():
        module = getattr(hs, mod)
        for qual in names:
            obj = module
            for part in qual.split("."):
                obj = getattr(obj, part)
            assert callable(obj), qual
    for required in workloads.REQUIRED.values():
        assert set(required) <= set(tracing.CALLABLES)
    assert len(tracing.per_layer_units()) <= 128


@pytest.mark.parametrize("name,job", quick_jobs(1), ids=lambda x: getattr(x, "name", x))
def test_check_accepts_the_answer_and_rejects_a_corrupted_one(name, job):
    expected = EXPECTED[name][job.name]
    answer = job.run()
    assert workloads.check(job, answer, expected) is None
    bad = corrupt(answer)
    assert workloads.check(job, bad, expected) is not None
    if job.closed_form is not None:
        assert workloads.check(job, bad, None) is not None


def test_traced_answers_on_another_seed_match_untraced(tracer):
    untraced = {}
    tracer.uninstall()
    for name, job in quick_jobs(2):
        untraced[job.name] = workloads.digest(job.run())
    tracer.install()
    for name, job in quick_jobs(3):
        assert workloads.digest(job.run()) == untraced[job.name] == EXPECTED[name][job.name]
    assert tracer.metrics()["sensitivity.sensitivity_at.calls"] > 0


def test_unreached_layer_fails_the_run():
    job = {"job": "j", "digest": "a", "seconds": 1.0, "error": None}
    traced = {"jobs": [job], "unreached": ["cli.main"]}
    rounds = {False: [{"jobs": [job]}], True: [traced]}
    attempted, failed, problems = run.failures("witness_scan", rounds)
    assert (attempted, failed) == (2, 0)
    assert problems == ["traced witness_scan made no call to cli.main"]
