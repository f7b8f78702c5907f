"""Command-line surface.

Subcommands: eval, sens, bsens, family, witness, scan, selftest.
Exit codes: 0 success, 1 domain error, 2 usage error.
"""

import argparse
import json
import sys

from . import __version__
from .errors import BadParameter, DomainError
from .families import generate_family, verify_family
from .gf import prime_power, make_field
from .hypergraphs import Hypergraph
from .properties import (
    GRAPH_VARIANTS,
    VARIANTS,
    IsolatedTriangleProperty,
    IsolatedVertexProperty,
    RubinsteinProperty,
    RubinsteinWitness,
    as_bits,
    property_from_json,
)
from .scaling import rows_to_csv, run_scan
from .sensitivity import (
    block_sensitivity_exact,
    certify_blocks,
    sensitivity_at,
)
from .witnesses import (
    build_family_witness,
    build_isolated_vertex_witness,
    build_s0_witness,
    build_s1_witness,
    clique_packing,
    packing_edge_blocks,
    select_vertex_disjoint,
    triangle_packing,
    witness_to_json,
)


def _read_json(text):
    """JSON from text, or from the file named after a leading @."""
    try:
        if text.startswith("@"):
            with open(text[1:], encoding="utf-8") as fh:
                return json.load(fh)
        return json.loads(text)
    except OSError as exc:
        raise BadParameter(f"cannot read {text[1:]}: {exc.strerror}") from exc
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise BadParameter(f"invalid JSON in {text[:40]!r}: {exc}") from exc


def _build_property(args):
    if getattr(args, "spec", None):
        return property_from_json(_read_json(args.spec))
    if args.property is None:
        raise BadParameter("give --property or --spec")
    # --k fills both the block count of the block functions and the arity
    # of the graph properties; each spec reads only its own keys
    return property_from_json(
        {
            "variant": args.property,
            "rubinstein_k": args.k,
            "v": args.v,
            "k": args.k,
            "i": args.i,
            "h": args.h,
            "t": args.t,
            "allow_i_equal_k": args.allow_i_equal_k,
        }
    )


def _parse_input(prop, text):
    if text == "zeros":
        return 0
    if text == "witness":
        return prop.witness()
    if not text.startswith("@"):
        return as_bits(text, prop.n)
    obj = _read_json(text)
    if isinstance(obj, dict) and "bits" in obj:
        obj = obj["bits"]
    if isinstance(obj, str):
        return as_bits(obj, prop.n)
    if isinstance(obj, dict):
        return prop.graph_bits(Hypergraph.from_json(obj))
    raise BadParameter(
        "an --input file holds a 0/1 string, {\"bits\": ...} or a hypergraph object"
    )


def _witness_json(witness):
    if witness is None:
        return None
    if isinstance(witness, RubinsteinWitness):
        return {"block": witness.block, "shift": witness.shift}
    return [u + 1 for u in witness]


def _emit(args, text):
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit_json(args, obj):
    _emit(args, json.dumps(obj, indent=2) + "\n")


def cmd_eval(args):
    prop = _build_property(args)
    bits = _parse_input(prop, args.input)
    res = prop.explain(bits)
    _emit_json(args, {"value": res.value, "witness": _witness_json(res.witness)})
    return 0


def cmd_sens(args):
    prop = _build_property(args)
    bits = _parse_input(prop, args.input)
    report = sensitivity_at(prop, bits)
    _emit_json(args, report.to_json(prop.input_json(bits)))
    return 0


def cmd_bsens(args):
    prop = _build_property(args)
    bits = _parse_input(prop, args.input)
    if args.mode == "exact":
        cap = prop.block_cap if args.max_block_size is None else args.max_block_size
        res = block_sensitivity_exact(prop, bits, cap)
        out = {
            "bs": res.value,
            "capped": res.capped,
            "certificate": res.certificate.to_json(prop.input_json(bits)),
        }
        _emit_json(args, out)
        return 0
    # certificate-only lower bound from the canonical packing
    packing = prop.packing()
    if packing is None:
        raise BadParameter(f"--mode lower is not available for {prop.name!r}")
    cert = certify_blocks(prop, bits, packing_edge_blocks(packing))
    _emit_json(
        args,
        {"bs_lower": cert.count, "certificate": cert.to_json(prop.input_json(bits))},
    )
    return 0


def cmd_family(args):
    pm = prime_power(args.q)
    if pm is None:
        raise BadParameter(f"--q {args.q} is not a prime power")
    fam = generate_family(make_field(*pm), args.d, args.ell, args.limit)
    check = verify_family(fam)
    out = fam.to_json()
    out["verification"] = {"ok": check.ok, "violation": check.violation}
    _emit_json(args, out)
    return 0 if check.ok else 1


def cmd_witness(args):
    c = args.construction
    if c == "isolated-vertex":
        G = build_isolated_vertex_witness(args.v)
        _emit_json(args, witness_to_json(G, c, {"v": args.v}, 0))
        return 0
    if c == "single-clique":
        if None in (args.k, args.i, args.h):
            raise BadParameter("single-clique needs --k, --i and --h")
        G = build_s1_witness(args.v, args.k, args.i, args.h)
        params = {"v": args.v, "k": args.k, "i": args.i, "h": args.h}
        _emit_json(args, witness_to_json(G, c, params, 0))
        return 0
    if c == "disjoint-triples":
        packing = select_vertex_disjoint(triangle_packing(args.v))
        G, count = build_s0_witness(packing.members, args.v, 2, 1, 3)
        _emit_json(args, witness_to_json(G, c, {"v": args.v}, count))
        return 0
    if c == "family-cliques":
        if args.k is None:
            raise BadParameter("family-cliques needs --k")
        G, count, prop = build_family_witness(args.v, args.k, args.limit)
        params = {"v": args.v, "k": args.k, "i": prop.i, "h": prop.h}
        _emit_json(args, witness_to_json(G, c, params, count))
        return 0
    if c == "triangle-packing":
        _emit_json(args, triangle_packing(args.v).to_json())
        return 0
    if c == "clique-packing":
        if args.k is None:
            raise BadParameter("clique-packing needs --k")
        _emit_json(args, clique_packing(args.v, args.k).to_json())
        return 0
    raise BadParameter(f"unknown construction {c!r}")


def cmd_scan(args):
    if args.v_step == 0:
        raise BadParameter("--v-step must not be 0")
    v_values = range(args.v_start, args.v_end + 1, args.v_step)
    columns = [c.strip() for c in args.columns.split(",") if c.strip()]
    result = run_scan(
        args.property,
        v_values,
        columns,
        k=args.k,
        i=args.i,
        h=args.h,
        budget_ms=args.budget_ms,
        timings=args.timings,
    )
    for w in result.warnings:
        print(f"warning: {w}", file=sys.stderr)
    fits = {c: f.to_json() for c, f in result.fits.items()}
    print(json.dumps({"fits": fits}), file=sys.stderr)
    if args.format == "json":
        rows = [
            {f: getattr(r, f) for f in ("v", "n", *columns)} for r in result.rows
        ]
        _emit_json(args, {"rows": rows, "fits": fits})
    else:
        _emit(args, rows_to_csv(result.rows))
    return 0


def cmd_selftest(args):
    from .families import trim_sets

    checks = []

    def check(name, fn):
        ok = bool(fn())
        checks.append(ok)
        print(f"{'ok' if ok else 'FAIL'}: {name}")

    gf4 = make_field(2, 2)
    check(
        "GF(4) multiplicative inverses",
        lambda: all(gf4.mul(e, gf4.inv(e)) == 1 for e in range(1, 4)),
    )
    fam = generate_family(make_field(3, 1), 2, 1)
    check("9-set family over GF(3) verifies", lambda: verify_family(fam).ok)
    check(
        "trimmed family keeps intersections small",
        lambda: verify_family(trim_sets(fam, 2)).ok,
    )
    rub = RubinsteinProperty(2)
    check("block pattern 1100 accepted", lambda: rub.value("1100") == 1)
    check("empty input rejected", lambda: rub.value("0000") == 0)
    tri = IsolatedTriangleProperty(6)
    check(
        "triangle bs at the empty graph is 4",
        lambda: block_sensitivity_exact(tri, 0, 3).value == 4,
    )
    ivw = build_isolated_vertex_witness(5)
    check(
        "isolated-vertex witness has v-1 sensitive bits",
        lambda: sensitivity_at(IsolatedVertexProperty(5), ivw).s_at_x == 4,
    )
    return 0 if all(checks) else 1


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", default=None)
    common.add_argument("--format", choices=("json", "csv"), default=None)
    common.add_argument("--budget-ms", type=int, default=60_000)

    prop_flags = argparse.ArgumentParser(add_help=False)
    prop_flags.add_argument("--property", choices=VARIANTS)
    prop_flags.add_argument("--spec", help="property as JSON (or @file)")
    prop_flags.add_argument("--v", type=int)
    prop_flags.add_argument("--k", type=int)
    prop_flags.add_argument("--i", type=int)
    prop_flags.add_argument("--h", type=int)
    prop_flags.add_argument("--t", type=float)
    prop_flags.add_argument("--allow-i-equal-k", action="store_true")

    parser = argparse.ArgumentParser(
        prog="hypersens",
        description="sensitivity experiments on Boolean graph and hypergraph properties",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval", parents=[common, prop_flags])
    p.add_argument("--input", required=True)
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("sens", parents=[common, prop_flags])
    p.add_argument("--input", required=True)
    p.set_defaults(fn=cmd_sens)

    p = sub.add_parser("bsens", parents=[common, prop_flags])
    p.add_argument("--input", required=True)
    p.add_argument("--mode", choices=("exact", "lower"), default="exact")
    p.add_argument("--max-block-size", type=int, default=None)
    p.set_defaults(fn=cmd_bsens)

    p = sub.add_parser("family", parents=[common])
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--ell", type=int, required=True)
    p.add_argument("--limit", type=int, default=None)
    p.set_defaults(fn=cmd_family)

    p = sub.add_parser("witness", parents=[common])
    p.add_argument(
        "--construction",
        required=True,
        choices=(
            "isolated-vertex",
            "single-clique",
            "disjoint-triples",
            "family-cliques",
            "triangle-packing",
            "clique-packing",
        ),
    )
    p.add_argument("--v", type=int, required=True)
    p.add_argument("--k", type=int)
    p.add_argument("--i", type=int)
    p.add_argument("--h", type=int)
    p.add_argument("--limit", type=int, default=None)
    p.set_defaults(fn=cmd_witness)

    p = sub.add_parser("scan", parents=[common])
    p.add_argument("--property", required=True, choices=GRAPH_VARIANTS)
    p.add_argument("--v-start", type=int, required=True)
    p.add_argument("--v-end", type=int, required=True)
    p.add_argument("--v-step", type=int, default=1)
    p.add_argument("--columns", default="s_lower,bs_lower")
    p.add_argument("--timings", action="store_true")
    p.add_argument("--k", type=int)
    p.add_argument("--i", type=int)
    p.add_argument("--h", type=int)
    p.set_defaults(fn=cmd_scan)

    p = sub.add_parser("selftest", parents=[common])
    p.set_defaults(fn=cmd_selftest)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    if getattr(args, "format", None) is None:
        args.format = "csv" if args.command == "scan" else "json"
    try:
        if args.format == "csv" and args.command != "scan":
            raise BadParameter(f"--format csv is not supported by {args.command}")
        return args.fn(args)
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
