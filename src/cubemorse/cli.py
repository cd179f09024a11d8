"""Command line surface: every subcommand emits one report.

Reports are aligned text by default or a single JSON document with
--json. Exit codes: 0 for a certified result, 2 for a result the chosen
truncation could not certify, 1 for input errors, 3 for a fault of the
program: a failed proof obligation (CertificateViolation) or a failed
internal check (AssertionError).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from fractions import Fraction
from typing import TYPE_CHECKING

from .raag import (
    DEFAULT_BALL_CAP,
    DEFAULT_DEPTH,
    CertificateViolation,
    DefiningGraph,
    GroupElement,
    TruncationLimit,
    distance,
    parse_word,
)

if TYPE_CHECKING:
    from .boundary import BoundaryRay
    from .runpaths import RunPath
    from .walls import Wall

# every layer above raag is imported inside the handlers that run it, so a
# command compiles only the layers it uses: nf and dist load no walls, and
# a wall command loads no boundary and no escape-path layer


class CLIError(ValueError):
    """Bad command line input; maps to exit code 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):
        raise CLIError(message)


# --- input parsing --------------------------------------------------------------


def _load_graph(path: str | None) -> DefiningGraph:
    if path is None:
        raise CLIError("this command needs --graph FILE")
    try:
        return DefiningGraph.from_json(path)
    except OSError as exc:
        raise CLIError(f"cannot read graph file: {exc}") from None


def _element(graph: DefiningGraph, text: str) -> GroupElement:
    if text.strip() in ("", "1"):
        return GroupElement.identity(graph)
    return GroupElement.from_text(graph, text)


def _wall(graph: DefiningGraph, text: str) -> Wall:
    from .walls import Wall

    base_text, sep, gen_name = text.rpartition("@")
    if not sep or not gen_name:
        raise CLIError(f"wall syntax is BASE@GEN: {text!r}")
    return Wall(_element(graph, base_text), graph.gen_index(gen_name))


def _labeled_rays(graph, base, items, labels=("w", "x", "y", "z")):
    from .boundary import BoundaryRay

    out = {}
    for item in items:
        name, sep, text = item.partition(":")
        if not sep or name not in labels or name in out:
            raise CLIError(f"expected {'/'.join(labels)}:\"PREFIX|PERIOD\", got {item!r}")
        out[name] = BoundaryRay.from_text(graph, text, base)
    if len(out) != len(labels):
        raise CLIError(f"need all of {', '.join(labels)}")
    return out


def _runpath_spec(text: str, graph) -> RunPath:
    """word:TEXT walks letters from the identity; gamma:L is the diagonal
    geodesic; beta:DELTA,L[,PREFIX] is the escape path, optionally cut.
    gamma and beta live on the Croke-Kleiner graph, so they take no other."""
    from .constructions import build_beta, build_croke_kleiner, build_gamma, runpath_prefix
    from .runpaths import RunPath

    kind, sep, rest = text.partition(":")
    if not sep:
        kind, rest = "word", text
    if kind == "word":
        return RunPath.from_word(parse_word(rest, graph))
    if kind in ("gamma", "beta") and graph != build_croke_kleiner():
        raise CLIError(f"{kind} paths live on the Croke-Kleiner graph, not on the --graph given")
    try:
        parts = [int(p) for p in rest.split(",")]
    except ValueError:
        parts = []
    if kind == "gamma" and len(parts) == 1:
        return build_gamma(parts[0]).runpath()
    if kind == "beta" and len(parts) == 2:
        return build_beta(*parts).path
    if kind == "beta" and len(parts) == 3:
        return runpath_prefix(build_beta(parts[0], parts[1]).path, parts[2])
    raise CLIError(f"bad path spec {text!r}; use word:W, gamma:L or beta:D,L[,N]")


def fraction(text: str) -> Fraction:
    """A --K or --C value. argparse reports a ValueError from its type as
    bad input, but Fraction raises ZeroDivisionError for a zero
    denominator."""
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(text) from None


# --- output ----------------------------------------------------------------------


def _num(value, certified: bool) -> dict:
    return {"value": _jsonable(value), "certified": bool(certified)}


def _jsonable(v):
    if isinstance(v, bool) or v is None or isinstance(v, (int, str)):
        return v
    if isinstance(v, Fraction):
        return str(v) if v.denominator != 1 else int(v)
    if isinstance(v, float):
        return "inf" if math.isinf(v) else v
    if isinstance(v, (list, tuple)):
        return [_jsonable(x) for x in v]
    if isinstance(v, dict):
        return {k: _jsonable(x) for k, x in v.items()}
    return str(v)


def _seq_text(v: list) -> str:
    if not v:
        return "(none)"
    if len(v) > 8:
        return " ".join(str(x) for x in v[:8]) + f" ... ({len(v)} items)"
    return " ".join(str(x) for x in v)


def _flatten(prefix: str, v, rows: list):
    if isinstance(v, dict):
        if set(v) == {"value", "certified"}:
            tag = "" if v["certified"] else "  (uncertified)"
            val = _seq_text(v["value"]) if isinstance(v["value"], list) else v["value"]
            rows.append((prefix, f"{val}{tag}"))
            return
        for k in sorted(v):
            _flatten(f"{prefix}.{k}" if prefix else k, v[k], rows)
    elif isinstance(v, list) and any(isinstance(x, dict) for x in v):
        for i, x in enumerate(v):
            _flatten(f"{prefix}[{i}]", x, rows)
    elif isinstance(v, list):
        rows.append((prefix, _seq_text(v)))
    else:
        rows.append((prefix, str(v)))


def _emit(report: dict, as_json: bool) -> None:
    if as_json:
        print(json.dumps(report, sort_keys=True, indent=2))
        return
    rows: list[tuple[str, str]] = []
    _flatten("", report["outputs"], rows)
    rows.append(("certified", "yes" if report["certified"] else "no"))
    width = max(len(k) for k, _ in rows)
    print(f"[{report['command']}]")
    for k, v in rows:
        print(f"  {k.ljust(width)}  {v}")


# --- handlers: each returns (outputs, certified) ----------------------------------


def _cmd_nf(args):
    graph = _load_graph(args.graph)
    el = _element(graph, args.word)
    return {"nf": el.text(), "length": _num(el.length, True)}, True


def _cmd_dist(args):
    graph = _load_graph(args.graph)
    x, y = _element(graph, args.x), _element(graph, args.y)
    return {"distance": _num(distance(x, y), True)}, True


def _cmd_walls(args):
    from .walls import walls_between

    graph = _load_graph(args.graph)
    x, y = _element(graph, args.x), _element(graph, args.y)
    hs = walls_between(x, y)
    return {
        "count": _num(len(hs), True),
        "walls": [h.text() for h in hs],
    }, True


def _cmd_side(args):
    from .walls import side

    graph = _load_graph(args.graph)
    h = _wall(graph, args.wall)
    x = _element(graph, args.x)
    return {"side": _num(side(h, x), True)}, True


def _cmd_crosses(args):
    from .walls import crosses

    graph = _load_graph(args.graph)
    h1, h2 = _wall(graph, args.wall1), _wall(graph, args.wall2)
    return {"crosses": crosses(h1, h2)}, True


def _cmd_separated(args):
    from .walls import crossing_count

    graph = _load_graph(args.graph)
    h1, h2 = _wall(graph, args.wall1), _wall(graph, args.wall2)
    count, certified = crossing_count(h1, h2)
    return {
        "crossing_count": _num(count, certified),
        "strongly_separated": count == 0,
    }, certified


def _separated_chain(args, ray: BoundaryRay):
    from .boundary import find_separated_chain

    # crossing points on a geodesic are at least 1 apart and chain gaps stay
    # below r, so r < 2 admits no pair; a negative n is no separation at all
    if args.n < 0 or args.r < 2:
        raise CLIError(f"need --n >= 0 and --r >= 2, got --n {args.n} --r {args.r}")
    return find_separated_chain(ray, args.n, args.r, args.depth)


def _cmd_chain(args):
    from .boundary import BoundaryRay

    graph = _load_graph(args.graph)
    ray = BoundaryRay.from_text(graph, args.ray)
    chain = _separated_chain(args, ray)
    return {
        "length": _num(len(chain), True),
        "walls": [h.text() for h in chain.walls],
        "index_gaps": _num(list(chain.gaps), True),
        "n": _num(args.n, True),
        "r": _num(args.r, True),
    }, True


def _cmd_product(args):
    from .boundary import BoundaryRay, bracket_product, gromov_product

    # the boundary metric d_o = exp(-[ξ|η]_o) is reported by its exponent,
    # so metric prints the bracket product under the metric's name
    fn = gromov_product if args.command == "product" else bracket_product
    graph = _load_graph(args.graph)
    base = _element(graph, args.base) if args.base else None
    xi = BoundaryRay.from_text(graph, args.xi, base)
    eta = BoundaryRay.from_text(graph, args.eta, base)
    p = fn(xi, eta, args.depth)
    return {
        "value": _num(p.value, p.certified),
        "depth_used": _num(p.depth_used, True),
    }, p.certified


def _cmd_crossratio(args):
    from .boundary import cross_ratio_bfm, cross_ratio_cr

    graph = _load_graph(args.graph)
    base = _element(graph, args.base) if args.base else None
    rays = _labeled_rays(graph, base, args.rays)
    fn = cross_ratio_bfm if args.variant == "bfm" else cross_ratio_cr
    value, certified = fn(rays["w"], rays["x"], rays["y"], rays["z"], args.depth)
    return {"cross_ratio": _num(value, certified), "variant": args.variant}, certified


def _cmd_hyp(args):
    from .boundary import BoundaryRay, UncertifiedDepth, hyp_member

    graph = _load_graph(args.graph)
    ray = BoundaryRay.from_text(graph, args.ray)
    hs = [_wall(graph, w) for w in args.wall]
    if not hs:
        raise CLIError("need at least one --wall")
    try:
        member = hyp_member(ray, hs, args.depth)
    except UncertifiedDepth as exc:
        return {"member": None, "reason": str(exc)}, False
    return {"member": member}, True


def _cmd_refine(args):
    from .boundary import BoundaryRay, refine_to_single_wall

    graph = _load_graph(args.graph)
    ray = BoundaryRay.from_text(graph, args.ray)
    hs = [_wall(graph, w) for w in (args.wall1, args.wall2)]
    chain = _separated_chain(args, ray)
    k = refine_to_single_wall(ray, hs, chain, args.depth)
    return {"wall": k.text(), "chain_length": _num(len(chain), True)}, True


def _cmd_kappa(args):
    from .constructions import _kappa_prime, as_gauge, kappa

    rho = as_gauge(args.rho)
    k = kappa(rho, args.K, args.C)
    kp = _kappa_prime(k, args.K, args.C)
    return {
        "rho": rho.text(),
        "kappa": _num(k, True),
        "kappa_prime": _num(kp, True),
    }, True


def _cmd_gamma(args):
    from .constructions import build_gamma, line_wall_counts

    gp = build_gamma(args.flats)
    return {
        "flats": _num(args.flats, True),
        "steps": _num(2 * args.flats, True),
        "endpoint": gp.runpath().endpoint().text(),
        "families": gp.families(),
        "line_wall_counts": _num(line_wall_counts(gp), True),
    }, True


def _cmd_beta(args):
    from .constructions import build_beta, certify_quasigeodesic, verify_separation

    rep = build_beta(args.delta, args.flats)
    outputs = {
        "delta": _num(args.delta, True),
        "flats": _num(args.flats, True),
        "run_lengths": _num([s.N for s in rep.segments], True),
        "connector_lengths": _num([s.M for s in rep.segments], True),
        "total_length": _num(rep.total_length, True),
        "family_sequence": rep.family_sequence,
        "endpoint": rep.path.endpoint().text(),
    }
    certified = True
    if args.certify:
        qg = certify_quasigeodesic(rep.path, args.K, args.C)
        sep = verify_separation(rep)
        outputs["quasi_geodesic"] = {
            "K": _num(Fraction(args.K), True),
            "C": _num(Fraction(args.C), True),
            "min_margin": _num(qg.min_margin, qg.certified),
            "passed": qg.certified,
        }
        outputs["separation"] = {
            "min_separation": _num(sep.min_separation, sep.ok),
            "passed": sep.ok,
        }
        certified = qg.certified and sep.ok
    return outputs, certified


def _cmd_contracting(args):
    from .constructions import build_croke_kleiner, check_contracting

    graph = _load_graph(args.graph) if args.graph else build_croke_kleiner()
    path = _runpath_spec(args.path, graph)
    rep = check_contracting(path, args.rho, args.radius, cap=args.cap)
    return {
        "passed": rep.passed,
        "rho": rep.rho_text,
        "radius": _num(rep.radius, True),
        "pairs_tested": _num(rep.pairs_tested, True),
        "exhaustive": rep.exhaustive,
        "witness": _num(list(rep.witness), True) if rep.witness else None,
    }, True


def _cmd_dichotomy(args):
    from .constructions import build_croke_kleiner, check_divergence_dichotomy

    graph = _load_graph(args.graph) if args.graph else build_croke_kleiner()
    Z = _runpath_spec(args.z, graph)
    path = _runpath_spec(args.path, graph)
    rep = check_divergence_dichotomy(Z, path, args.rho, args.K, args.C)
    # exact exhaustive arithmetic: a failed bound is a certified refutation
    return {
        "case": _num(rep.case, True),
        "kappa": _num(rep.kappa_value, True),
        "kappa_prime": _num(rep.kappa_prime_value, True),
        "last_return": _num(rep.T0, True),
        "max_distance": _num(rep.max_distance, True),
        "residual_min": _num(rep.residual_min, True) if rep.residual_min is not None else None,
        "bound_ok": rep.bound_ok,
    }, True


def _cmd_example23(args):
    from .example23 import basepoint_experiment, build_example23

    ex = build_example23(args.f, args.imax, args.tail)
    rows = basepoint_experiment(ex, args.kappa)
    return {
        "f": args.f,
        "i_max": _num(ex.i_max, True),
        "tail": _num(ex.tail, True),
        "kappa": _num(args.kappa, True),
        "vertices": _num(ex.graph.vertex_count, True),
        "edges": _num(ex.graph.edge_count, True),
        "loops": _num(ex.graph.edge_count - ex.graph.vertex_count + 1, True),
        "rows": [
            {
                "i": _num(r.i, True),
                "d_o": _num(r.d_o, True),
                "d_oprime": _num(r.d_oprime, True),
                "radius_o": _num(r.radius_o, True),
                "radius_oprime": _num(r.radius_oprime, True),
            }
            for r in rows
        ],
    }, True


def _cmd_smallcancel(args):
    from .example23 import example23_relators, small_cancellation_check

    rel = example23_relators(args.f, args.imax)
    rep = small_cancellation_check(rel)
    return {
        "relator_lengths": _num(list(rep.relator_lengths), True),
        "max_ratio": _num(rep.max_ratio, True),
        "piece_length": _num(rep.piece_length, True),
        "piece": rep.piece,
        "relator_pair": _num(list(rep.relator_pair), True),
        "passes_sixth": rep.passes_sixth,
        "note": "classical C'(1/6) on the relator set; proxy for the graphical bound",
    }, True


def _arg(*flags, **options) -> tuple:
    """One add_argument call, as data: (flags, options)."""
    return flags, options


def _build_parser(command: str | None = None) -> _Parser:
    """The command line parser. When command names a subcommand, only that
    subparser is built; otherwise, as for --help, an unknown command or
    none, all of them are. The chosen subparser is the same either way, so
    its help, errors and parsed namespace do not depend on which was built."""
    graph = _arg("--graph", metavar="FILE", help="defining graph JSON")
    depth = _arg("--depth", type=int, default=DEFAULT_DEPTH)
    ray = _arg("--ray", required=True, metavar="PREFIX|PERIOD")
    wall_pair = (_arg("wall1", metavar="BASE@GEN"), _arg("wall2", metavar="BASE@GEN"))
    chain_bounds = (_arg("--n", type=int, default=0), _arg("--r", type=int, default=5))
    ray_pair = (_arg("--base", default=None, help="basepoint element"), depth,
                _arg("xi", metavar="PREFIX|PERIOD"), _arg("eta", metavar="PREFIX|PERIOD"))
    # (name, handler, help, arguments), in --help order
    commands = (
        ("nf", _cmd_nf, "shortlex geodesic normal form of a word", (graph, _arg("word"))),
        ("dist", _cmd_dist, "word metric distance between two elements",
         (graph, _arg("x"), _arg("y"))),
        ("walls", _cmd_walls, "walls separating two elements", (graph, _arg("x"), _arg("y"))),
        ("side", _cmd_side, "which side of a wall an element lies on",
         (graph, _arg("--wall", required=True, metavar="BASE@GEN"), _arg("x"))),
        ("crosses", _cmd_crosses, "whether two walls are transverse", (graph, *wall_pair)),
        ("separated", _cmd_separated, "walls crossing both of two disjoint walls",
         (graph, *wall_pair)),
        ("chain", _cmd_chain, "separated chain among a ray's walls",
         (graph, ray, *chain_bounds, depth)),
        ("product", _cmd_product, "Gromov product of two rays", (graph, *ray_pair)),
        ("bracket", _cmd_product, "bracket product of two rays", (graph, *ray_pair)),
        ("metric", _cmd_product, "boundary distance term of two rays", (graph, *ray_pair)),
        ("crossratio", _cmd_crossratio, "cross ratio of four labeled rays",
         (graph, _arg("--base", default=None), depth,
          _arg("--variant", choices=("cr", "bfm"), default="cr"),
          _arg("rays", nargs=4, metavar="LABEL:RAY"))),
        ("hyp", _cmd_hyp, "whether a ray crosses every listed wall",
         (graph, ray, _arg("--wall", action="append", default=[], metavar="BASE@GEN"), depth)),
        ("refine", _cmd_refine, "single chain wall behind two crossed walls",
         (graph, ray, *wall_pair, *chain_bounds, depth)),
        ("kappa", _cmd_kappa, "trapping radius of a sublinear gauge",
         (_arg("--rho", default="0", help='gauge: "const 3", "power 2 1/2", "log 3"'),
          _arg("--K", type=fraction, default=Fraction(1)),
          _arg("--C", type=fraction, default=Fraction(0)))),
        ("gamma", _cmd_gamma, "periodic diagonal geodesic through the flat cycle",
         (_arg("--flats", type=int, required=True),)),
        ("beta", _cmd_beta, "flat-hopping escape path against gamma",
         (_arg("--delta", type=int, required=True), _arg("--flats", type=int, required=True),
          _arg("--certify", action="store_true",
               help="run the quasi-geodesic and separation certificates"),
          _arg("--K", type=fraction, default=Fraction(8)),
          _arg("--C", type=fraction, default=Fraction(1)))),
        ("contracting", _cmd_contracting, "exhaustive contraction check around a path",
         (graph, _arg("path", metavar="SPEC", help="word:W, gamma:L or beta:D,L[,N]"),
          _arg("--rho", default="0"), _arg("--radius", type=int, default=3),
          _arg("--cap", type=int, default=DEFAULT_BALL_CAP))),
        ("dichotomy", _cmd_dichotomy, "trapped-or-linear divergence classification",
         (graph, _arg("--z", required=True, metavar="SPEC", help="contracting set path"),
          _arg("--path", required=True, metavar="SPEC", help="path to classify"),
          _arg("--rho", default="0"),
          _arg("--K", type=fraction, default=Fraction(8)),
          _arg("--C", type=fraction, default=Fraction(1)))),
        ("example23", _cmd_example23, "glued graph basepoint experiment",
         (_arg("--f", default="poly 1 0 1", help='branch scale, e.g. "poly 1 0 1"'),
          _arg("--imax", type=int, default=6), _arg("--tail", type=int, required=True),
          _arg("--kappa", type=int, default=2))),
        ("smallcancel", _cmd_smallcancel, "piece overlap bound for the glued loops",
         (_arg("--f", default="poly 1 0 1"), _arg("--imax", type=int, default=6))),
    )
    p = _Parser(prog="cubemorse", description=__doc__)
    p.add_argument("--json", action="store_true", help="emit one JSON report")
    sub = p.add_subparsers(dest="command", metavar="COMMAND")
    for name, handler, help_, arguments in [c for c in commands if c[0] == command] or commands:
        sp = sub.add_parser(name, help=help_)
        sp.set_defaults(handler=handler)
        # accepted on either side of the subcommand; SUPPRESS keeps the
        # subparser from clobbering a --json given before it
        sp.add_argument("--json", action="store_true", default=argparse.SUPPRESS,
                        help=argparse.SUPPRESS)
        for flags, options in arguments:
            sp.add_argument(*flags, **options)
    return p


def _assert_site(exc: AssertionError) -> str:
    """Where the failed assert sits, after its message if it has one."""
    tb = exc.__traceback__
    while tb.tb_next is not None:
        tb = tb.tb_next
    code = tb.tb_frame.f_code
    where = f"{os.path.basename(code.co_filename)}:{tb.tb_lineno} in {code.co_name}"
    return f"{exc} ({where})" if str(exc) else where


def run(argv: list[str]) -> int:
    # the top level's only options are --json and -h, so the first argument
    # other than --json is the subcommand, or else argparse reports on it
    # with the whole parser
    parser = _build_parser(next((a for a in argv if a != "--json"), None))
    try:
        args = parser.parse_args(argv)
        if args.command is None:
            raise CLIError("missing subcommand")
        t0 = time.perf_counter()
        outputs, certified = args.handler(args)
        report = {
            "command": args.command,
            "inputs": [a for a in argv if a != "--json"],
            "outputs": outputs,
            "certified": bool(certified),
            "timing_s": round(time.perf_counter() - t0, 6),
        }
        _emit(report, args.json)
        return 0 if certified else 2
    except CertificateViolation as exc:
        print(f"error: certificate violation: {exc}", file=sys.stderr)
        return 3
    except AssertionError as exc:
        print(f"error: internal check failed: {_assert_site(exc)}", file=sys.stderr)
        return 3
    except TruncationLimit as exc:
        # a truncation limit, not bad input: another --depth or --cap may settle it
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
