"""Command-line contract: outputs, file handling, exit codes."""

import json
import math
import pathlib

import pytest

from hypersens import properties
from hypersens.cli import main
from hypersens.hypergraphs import Hypergraph, bits_of_ranks
from hypersens.properties import IsolatedCliqueProperty, IsolatedTriangleProperty
from hypersens.scaling import rows_from_csv
from hypersens.witnesses import packing_edge_blocks


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_sens_isolated_vertex_witness(capsys):
    code, out, _ = run(
        capsys, "sens", "--property", "isolated-vertex", "--v", "5",
        "--input", "witness",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["s_at_x"] == 4
    assert payload["polarity"] == "s1"
    assert payload["input"]["v"] == 5


def test_family_generates_and_verifies(capsys):
    code, out, _ = run(capsys, "family", "--q", "3", "--d", "2", "--ell", "1")
    assert code == 0
    payload = json.loads(out)
    assert len(payload["sets"]) == 9
    assert payload["verification"]["ok"] is True


def test_family_rejects_non_prime_power(capsys):
    code, _, err = run(capsys, "family", "--q", "6", "--d", "2", "--ell", "1")
    assert code == 1
    assert "prime power" in err


def test_bsens_rubinstein_exact(capsys):
    code, out, _ = run(
        capsys, "bsens", "--property", "rubinstein", "--k", "4",
        "--input", "zeros", "--mode", "exact",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["bs"] == 8
    assert payload["certificate"]["count"] == 8


def test_bsens_lower_mode_triangle(capsys):
    code, out, _ = run(
        capsys, "bsens", "--property", "isolated-triangle", "--v", "9",
        "--input", "zeros", "--mode", "lower",
    )
    assert code == 0
    assert json.loads(out)["bs_lower"] == 12


def test_eval_reads_hypergraph_file(capsys, tmp_path):
    G = Hypergraph.from_edges(5, 2, [(0, 1), (0, 2), (1, 2)])
    path = tmp_path / "g.json"
    path.write_text(json.dumps(G.to_json()))
    code, out, _ = run(
        capsys, "eval", "--property", "isolated-triangle", "--v", "5",
        "--input", f"@{path}",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["value"] == 1
    assert payload["witness"] == [1, 2, 3]  # 1-based vertices


def test_eval_rubinstein_bitstring(capsys):
    code, out, _ = run(
        capsys, "eval", "--property", "rubinstein", "--k", "2", "--input", "1100",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["value"] == 1
    assert payload["witness"] == {"block": 0, "shift": 0}


def test_usage_error_is_exit_2(capsys):
    assert run(capsys, "sens")[0] == 2
    assert run(capsys, "nonsense")[0] == 2


def test_domain_error_is_exit_1(capsys):
    code, _, err = run(
        capsys, "witness", "--construction", "single-clique", "--v", "4",
        "--k", "2", "--i", "1", "--h", "9",
    )
    assert code == 1 and "error" in err


def test_witness_constructions(capsys):
    code, out, _ = run(
        capsys, "witness", "--construction", "disjoint-triples", "--v", "9"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["metadata"]["expected_tuples"] == 3
    G = Hypergraph.from_json(payload)
    assert G.edge_count == 6  # three near-triangles, two edges each

    code, out, _ = run(
        capsys, "witness", "--construction", "triangle-packing", "--v", "9"
    )
    assert code == 0
    assert len(json.loads(out)["members"]) == 12


def test_scan_csv_deterministic_and_parseable(capsys, tmp_path):
    argv = (
        "scan", "--property", "isolated-triangle", "--v-start", "9",
        "--v-end", "21", "--v-step", "6", "--columns", "s_lower,bs_lower",
    )
    code, out1, err1 = run(capsys, *argv)
    assert code == 0
    code, out2, err2 = run(capsys, *argv)
    assert out1 == out2
    rows = rows_from_csv(out1)
    assert [r.v for r in rows] == [9, 15, 21]
    assert rows[0].s_lower == 21 and rows[0].bs_lower == 12
    assert "fits" in err1

    out_file = tmp_path / "scan.csv"
    code, out3, _ = run(capsys, *argv, "--out", str(out_file))
    assert code == 0 and out3 == ""
    assert out_file.read_text() == out1


def test_scan_json_format(capsys):
    code, out, _ = run(
        capsys, "scan", "--property", "isolated-triangle", "--v-start", "9",
        "--v-end", "21", "--v-step", "6", "--columns", "s_lower",
        "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert [r["s_lower"] for r in payload["rows"]] == [21, 39, 57]
    assert "s_lower" in payload["fits"]


def test_format_outside_scan_is_usage_error(capsys):
    code, out, err = run(
        capsys, "sens", "--property", "isolated-vertex", "--v", "5",
        "--input", "witness", "--format", "csv",
    )
    assert code == 2 and out == ""
    assert "--format" in err
    code, _, _ = run(capsys, "selftest", "--format", "json")
    assert code == 2


def test_seed_flag_is_gone(capsys):
    assert run(capsys, "selftest", "--seed", "3")[0] == 2


def test_scan_budget_breach_warns_and_blanks(capsys):
    code, out, err = run(
        capsys, "scan", "--property", "isolated-triangle", "--v-start", "9",
        "--v-end", "15", "--v-step", "6", "--columns", "s_lower",
        "--budget-ms", "0",
    )
    assert code == 0
    rows = rows_from_csv(out)
    assert all(r.s_lower is None for r in rows)
    assert "budget" in err


def test_budget_ms_is_a_scan_flag_only(capsys):
    code, out, _ = run(
        capsys, "sens", "--property", "isolated-vertex", "--v", "5",
        "--input", "zeros", "--budget-ms", "5",
    )
    assert code == 2 and out == ""


def test_scan_exhaustive_budget_is_domain_error(capsys):
    code, _, err = run(
        capsys, "scan", "--property", "isolated-triangle", "--v-start", "9",
        "--v-end", "9", "--columns", "s_exact",
    )
    assert code == 1
    assert "s_exact" in err and "v=9" in err


def test_bsens_lower_mode_hypergraph(capsys):
    code, out, _ = run(
        capsys, "bsens", "--property", "isolated-clique", "--v", "8",
        "--k", "3", "--i", "1", "--h", "4", "--input", "zeros",
        "--mode", "lower",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["bs_lower"] == 14
    assert payload["certificate"]["verified"] is True


def test_witness_family_cliques(capsys):
    code, out, _ = run(
        capsys, "witness", "--construction", "family-cliques", "--v", "16",
        "--k", "2",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["metadata"]["expected_tuples"] == 4
    assert payload["metadata"]["parameters"]["h"] == 3


def test_spec_json_replaces_flag_soup(capsys):
    spec = '{"variant": "isolated-clique", "v": 8, "k": 3, "i": 1, "h": 4}'
    code, out, _ = run(capsys, "sens", "--spec", spec, "--input", "witness")
    assert code == 0
    assert json.loads(out)["s_at_x"] == 52  # 4 inside + 48 boundary slots


def test_missing_property_and_spec_is_domain_error(capsys):
    code, _, err = run(capsys, "sens", "--input", "zeros")
    assert code == 1 and "--property or --spec" in err


def test_eval_with_t_parameter(capsys):
    code, out, _ = run(
        capsys, "eval", "--property", "isolated-clique", "--v", "16",
        "--k", "2", "--i", "1", "--t", "0.5", "--input", "zeros",
    )
    assert code == 0
    assert json.loads(out)["value"] == 0


def test_selftest(capsys):
    code, out, _ = run(capsys, "selftest")
    assert code == 0
    assert "FAIL" not in out


def test_out_writes_json_file(capsys, tmp_path):
    path = tmp_path / "fam.json"
    code, out, _ = run(
        capsys, "family", "--q", "2", "--d", "1", "--ell", "1",
        "--out", str(path),
    )
    assert code == 0 and out == ""
    assert json.loads(path.read_text())["sets"] == [[1, 2], [3, 4]]


_GOLDEN = json.loads(
    (pathlib.Path(__file__).parent / "golden" / "cli_stdout.json").read_text()
)


@pytest.mark.parametrize("argv", sorted(_GOLDEN))
def test_sens_stdout_is_golden(capsys, argv):
    """stdout and exit code of `eval`, `sens`, `bsens` and `scan` over every
    property variant, pinned byte for byte."""
    code, out, _ = run(capsys, *argv.split())
    assert {"exit": code, "stdout": out} == _GOLDEN[argv]


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return f"@{path}"


@pytest.mark.parametrize(
    "flag, make, problem",
    [
        ("--input", lambda d: f"@{d / 'missing.json'}", "cannot read"),
        ("--input", lambda d: _write(d, "bad.json", "{"), "invalid JSON"),
        ("--input", lambda d: _write(d, "g.json", '{"v": 5, "edges": []}'), "'k'"),
        ("--input", lambda d: _write(d, "h.json", '{"v": 5, "k": 2, "hex": "zz"}'),
         "'hex'"),
        ("--input", lambda d: _write(d, "n.json", "[1, 2]"), "--input file"),
        ("--input", lambda d: _write(d, "e.json", '{"v": 5, "k": 2, "edges": [5]}'),
         "'edges'"),
        ("--input",
         lambda d: _write(d, "s.json", '{"v": 5, "k": 2, "edges": [[1, "a"]]}'),
         "'edges'"),
        ("--input",
         lambda d: _write(d, "z.json", '{"v": 5, "k": 0, "edges": [[]]}'),
         "need 1 <= k <= v, got k=0, v=5"),
        ("--input",
         lambda d: _write(d, "b.json", '{"v": true, "k": true, "edges": []}'),
         "integer 'v'"),
        # C(400, 12) >= 2^63, and this edge's colex rank is past 2^63: it is
        # refused while the file is read, before any property sees it
        ("--input",
         lambda d: _write(d, "r.json", json.dumps(
             {"v": 400, "k": 12, "edges": [list(range(389, 401))]})),
         "(v=400, k=12) on vertices up to 399 reach 2^63"),
        ("--spec", lambda d: "{", "invalid JSON"),
        ("--spec", lambda d: "[1, 2]", "JSON object"),
        ("--spec", lambda d: '{"variant": "rubinstein"}', "'rubinstein_k'"),
        ("--spec", lambda d: '{"variant": "rubinstein", "rubinstein_k": "4"}',
         "'rubinstein_k'"),
        ("--spec", lambda d: '{"variant": "isolated-clique", "v": 8, "k": 3, "i": 1}',
         "'h' or 't'"),
        ("--spec", lambda d: '{"variant": "isolated-cube", "v": 8}', "isolated-cube"),
        ("--spec", lambda d: '{"variant": "isolated-clique", "v": 5, "k": 2, "i": 2,'
         ' "h": 3, "allow_i_equal_k": "no"}', "'allow_i_equal_k'"),
        ("--spec", lambda d: f"@{d / 'missing.json'}", "cannot read"),
    ],
    ids=[
        "input-missing-file",
        "input-invalid-json",
        "input-hypergraph-without-k",
        "input-hypergraph-bad-hex",
        "input-json-list",
        "input-hypergraph-int-edge",
        "input-hypergraph-string-vertex",
        "input-hypergraph-k-zero",
        "input-hypergraph-boolean-v-k",
        "input-hypergraph-rank-past-int64",
        "spec-invalid-json",
        "spec-json-list",
        "spec-rubinstein-without-k",
        "spec-string-k",
        "spec-clique-without-h-or-t",
        "spec-unknown-variant",
        "spec-string-allow-i-equal-k",
        "spec-missing-file",
    ],
)
def test_malformed_json_is_domain_error(capsys, tmp_path, flag, make, problem):
    argv = ["eval", flag, make(tmp_path)]
    if flag == "--input":
        argv += ["--property", "isolated-triangle", "--v", "5"]
    else:
        argv += ["--input", "zeros"]
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == ""
    assert err.startswith("error: ") and problem in err


def test_huge_witness_term_is_refused_before_any_row(capsys, monkeypatch):
    """The witness term of the 13-clique at (400, 12, 1, 13) has about
    9.8e21 care bits; its closed-form count is checked against the term
    budget before lex_subsets builds a row (the spy fails the test on a
    table of more than a million rows instead of hanging)."""
    lex_subsets = properties.lex_subsets

    def spy(n, r):
        assert math.comb(n, r) <= 10**6, f"lex_subsets({n}, {r})"
        return lex_subsets(n, r)

    monkeypatch.setattr(properties, "lex_subsets", spy)
    code, out, err = run(
        capsys, "sens", "--property", "isolated-clique", "--v", "400", "--k", "12",
        "--i", "1", "--h", "13", "--input", "witness",
    )
    assert code == 1 and out == ""
    assert err.startswith("error: ")
    assert f"past the term budget of {properties.MAX_TERM_ROWS}" in err


def test_reports_at_v_1_have_no_edges_and_no_sensitivity(capsys):
    # IsolatedVertexProperty(1) has k = 2 > v and no input bits; its
    # reports show the input without building a Hypergraph
    argv = ("--property", "isolated-vertex", "--v", "1", "--input", "zeros")
    results = {}
    for command in ("sens", "bsens"):
        code, out, _ = run(capsys, command, *argv)
        assert code == 0
        results[command] = json.loads(out)
    sens, bsens = results["sens"], results["bsens"]
    assert (sens["f_value"], sens["s_at_x"]) == (1, 0)
    assert (bsens["bs"], bsens["certificate"]["blocks"]) == (0, [])
    assert sens["input"] == bsens["certificate"]["input"] == {
        "v": 1, "k": 2, "edges": [],
    }


@pytest.mark.parametrize(
    "argv, prop, count",
    [
        ("--property isolated-triangle --v 9", IsolatedTriangleProperty(9), 9),
        (
            "--property isolated-clique --v 8 --k 3 --i 2 --h 4",
            IsolatedCliqueProperty(8, 3, 2, 4),
            13,
        ),
    ],
    ids=["isolated-triangle-9", "isolated-clique-8-3-2-4"],
)
def test_packing_at_a_witness_certifies_the_blocks_that_flip(
    capsys, argv, prop, count
):
    """At f = 1 a packing block away from the witness clique adds a second
    one and leaves f = 1; --mode lower certifies exactly the packing blocks
    that flip f, by scalar value, in packing order."""
    code, out, _ = run(capsys, "bsens", *argv.split(), "--input", "witness",
                       "--mode", "lower")
    assert code == 0
    x = prop.witness()
    flips = [
        list(b)
        for b in packing_edge_blocks(prop.packing())
        if prop.value(x ^ bits_of_ranks(b)) != prop.value(x)
    ]
    payload = json.loads(out)
    assert payload["certificate"]["blocks"] == flips
    assert payload["bs_lower"] == len(flips) == count


def test_bsens_max_block_size_zero_is_domain_error(capsys):
    for cap in ("0", "-1"):
        code, out, err = run(
            capsys, "bsens", "--property", "isolated-triangle", "--v", "5",
            "--input", "zeros", "--max-block-size", cap,
        )
        assert code == 1 and out == ""
        assert "max_block_size" in err


@pytest.mark.parametrize(
    "argv",
    [
        "scan --property isolated-triangle --v-start 9 --v-end 15 --v-step 0",
        "scan --property isolated-triangle --v-start 12 --v-end 9 --v-step -1",
        "witness --construction single-clique --v 5 --k 2 --i 1 --h -1",
        "witness --construction single-clique --v 5 --k 2 --i 1 --h 2",
        "witness --construction single-clique --v 5 --k 2 --i 9 --h 3",
        "witness --construction clique-packing --v 5 --k -1",
        "witness --construction clique-packing --v 5 --k 0",
    ],
)
def test_out_of_range_parameters_are_domain_errors(capsys, argv):
    code, out, err = run(capsys, *argv.split())
    assert code == 1 and out == ""
    assert err.startswith("error: ")
