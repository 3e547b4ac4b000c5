"""Command line interface.

Subcommands: trace, classify, singular, prank, tensor, fiber, sr, veronese.
Global flags: --json for machine output (deterministic, sorted keys),
--max-steps for the shared step budget, --order to pin the monomial order.

Exit codes: 0 success, 1 internal error or an input past the engine's
degree limit, 2 malformed input (ring file, polynomial or facet syntax, an
argument out of range, colliding variable names), 3 step budget exceeded,
4 assumption violation.  In machine mode nothing is printed on a nonzero
exit except the error on stderr.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time

from .constructions import (
    InternalCheckError,
    NameCollisionError,
    fiber_product,
    predicted_fiber_trace,
    predicted_tensor_trace,
    tensor_product,
    veronese_algebra,
)
from .groebner import (
    DEFAULT_MAX_STEPS,
    BudgetExceededError,
    DegreeLimitError,
    IdealHandle,
    ideal_equals,
    step_budget,
)
from .poly import ParseError
from .rings import AssumptionError, GradedAlgebra, HomogeneityError
from .ringfile import RingFileError, load_ring
from .simplicial import (
    combinatorial_nearly_regular,
    parse_facets,
    stanley_reisner_algebra,
)
from .traces import (
    diff_trace,
    is_nearly_regular,
    is_regular_via_trace,
    polynomial_rank,
    radical_equal,
    singular_locus_jacobian,
    singular_locus_trace,
)

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_PARSE = 2
EXIT_BUDGET = 3
EXIT_ASSUMPTION = 4


class UsageError(ValueError):
    """A command-line value the command cannot take."""


def _ideal_strings(algebra: GradedAlgebra, handle: IdealHandle) -> list[str]:
    return [str(g) for g in algebra.presented_generators(handle)]


def _algebra_json(algebra: GradedAlgebra) -> dict:
    return {
        "vars": [{"name": n, "weight": w}
                 for n, w in zip(algebra.sig.names, algebra.sig.weights)],
        "ideal": [str(g) for g in algebra.defining.gens],
        "assume": sorted(
            (["reduced"] if algebra.asserted_reduced else [])
            + (["equidimensional"] if algebra.asserted_equidimensional else [])),
    }


# -- subcommand bodies ---------------------------------------------------------

def _cmd_trace(args) -> dict:
    description = load_ring(args.ring)
    algebra = description.algebra
    if args.power < 0:
        raise UsageError("exterior power degree cannot be negative")
    handle = diff_trace(algebra, args.power)
    return {
        "command": "trace",
        "inputs": {"ring": _algebra_json(description.algebra), "power": args.power},
        "results": {
            "generators": _ideal_strings(algebra, handle),
            "isWholeRing": handle.is_trivial,
            "containsMaximalIdeal": algebra.contains_maximal_ideal(handle),
        },
    }


def _cmd_classify(args) -> dict:
    description = load_ring(args.ring)
    algebra = description.algebra
    dim = algebra.dimension
    traces = []
    for power in range(dim + 2):
        handle = diff_trace(algebra, power)
        traces.append({
            "power": power,
            "generators": _ideal_strings(algebra, handle),
            "isWholeRing": handle.is_trivial,
        })
    regular = is_regular_via_trace(algebra) if algebra.asserted_reduced else None
    return {
        "command": "classify",
        "inputs": {"ring": _algebra_json(description.algebra)},
        "results": {
            "dimension": dim,
            "traces": traces,
            "nearlyRegular": is_nearly_regular(algebra),
            "regular": regular,
            "polynomialRank": polynomial_rank(algebra),
        },
    }


def _cmd_singular(args) -> dict:
    description = load_ring(args.ring)
    algebra = description.algebra
    trace = singular_locus_trace(algebra)
    results = {
        "dimension": algebra.dimension,
        "traceIdeal": _ideal_strings(algebra, trace),
        "isWholeRing": trace.is_trivial,
    }
    if args.cross_check:
        jacobian = singular_locus_jacobian(algebra)
        results["jacobianIdeal"] = _ideal_strings(algebra, jacobian)
        results["radicalsAgree"] = radical_equal(trace, jacobian)
    return {
        "command": "singular",
        "inputs": {"ring": _algebra_json(description.algebra),
                   "crossCheck": bool(args.cross_check)},
        "results": results,
    }


def _cmd_prank(args) -> dict:
    description = load_ring(args.ring)
    algebra = description.algebra
    return {
        "command": "prank",
        "inputs": {"ring": _algebra_json(description.algebra)},
        "results": {
            "dimension": algebra.dimension,
            "polynomialRank": polynomial_rank(algebra),
        },
    }


def _cmd_product(build, predict, args) -> dict:
    da = load_ring(args.ring_a)
    db = load_ring(args.ring_b)
    product = build(da.algebra, db.algebra)
    results = {
        "ring": _algebra_json(product),
        "dimension": product.dimension,
    }
    if args.verify_formula:
        predicted = predict(da.algebra, db.algebra, product)
        direct = diff_trace(product, product.dimension)
        results["predictedTopTrace"] = _ideal_strings(product, predicted)
        results["directTopTrace"] = _ideal_strings(product, direct)
        results["formulaHolds"] = ideal_equals(predicted, direct)
        results["nearlyRegular"] = is_nearly_regular(product)
    return {
        "command": args.command,
        "inputs": {"ringA": _algebra_json(da.algebra),
                   "ringB": _algebra_json(db.algebra),
                   "verifyFormula": bool(args.verify_formula)},
        "results": results,
    }


def _cmd_sr(args) -> dict:
    try:
        delta = parse_facets(args.facets)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    algebra = stanley_reisner_algebra(delta)
    results = {
        "vertices": list(delta.vertices),
        "facets": [sorted(f) for f in sorted(delta.facets, key=sorted)],
        "dimension": delta.dimension,
        "minimalNonfaces": [list(nf) for nf in delta.minimal_nonfaces],
        "ring": _algebra_json(algebra),
        "combinatorialNearlyRegular": combinatorial_nearly_regular(delta),
    }
    if args.verify_algebraic:
        algebraic = is_nearly_regular(algebra)
        results["algebraicNearlyRegular"] = algebraic
        results["agree"] = algebraic == results["combinatorialNearlyRegular"]
    return {
        "command": "sr",
        "inputs": {"facets": args.facets,
                   "verifyAlgebraic": bool(args.verify_algebraic)},
        "results": results,
    }


def _cmd_veronese(args) -> dict:
    description = load_ring(args.ring)
    if args.degree < 1:
        raise UsageError("Veronese degree must be a positive integer")
    subring = veronese_algebra(description.algebra, args.degree)
    return {
        "command": "veronese",
        "inputs": {"ring": _algebra_json(description.algebra), "degree": args.degree},
        "results": {
            "ring": _algebra_json(subring),
            "dimension": subring.dimension,
        },
    }


_COMMANDS = {
    "trace": _cmd_trace,
    "classify": _cmd_classify,
    "singular": _cmd_singular,
    "prank": _cmd_prank,
    "tensor": functools.partial(_cmd_product, tensor_product, predicted_tensor_trace),
    "fiber": functools.partial(_cmd_product, fiber_product, predicted_fiber_trace),
    "sr": _cmd_sr,
    "veronese": _cmd_veronese,
}


# -- human rendering -------------------------------------------------------------

def _ideal_text(generators: list[str]) -> str:
    return "(" + (", ".join(generators) if generators else "0") + ")"


def _render_human(report: dict, elapsed: float) -> str:
    command = report["command"]
    results = report["results"]
    lines: list[str] = []
    if command == "trace":
        lines.append(f"trace(Omega^{report['inputs']['power']}) = "
                     f"{_ideal_text(results['generators'])}")
        lines.append(f"whole ring: {results['isWholeRing']}")
        lines.append(f"contains maximal ideal: {results['containsMaximalIdeal']}")
    elif command == "classify":
        lines.append(f"dimension: {results['dimension']}")
        for row in results["traces"]:
            lines.append(f"trace(Omega^{row['power']}) = "
                         f"{_ideal_text(row['generators'])}")
        lines.append(f"nearly regular: {results['nearlyRegular']}")
        regular = results["regular"]
        lines.append("regular: " + ("unknown (assume: reduced missing)"
                                    if regular is None else str(regular)))
        lines.append(f"polynomial rank: {results['polynomialRank']}")
    elif command == "singular":
        lines.append(f"dimension: {results['dimension']}")
        lines.append(f"singular locus ideal: {_ideal_text(results['traceIdeal'])}")
        if "jacobianIdeal" in results:
            lines.append(f"jacobian ideal: {_ideal_text(results['jacobianIdeal'])}")
            lines.append(f"radicals agree: {results['radicalsAgree']}")
    elif command == "prank":
        lines.append(f"dimension: {results['dimension']}")
        lines.append(f"polynomial rank: {results['polynomialRank']}")
    elif command in ("tensor", "fiber"):
        ring = results["ring"]
        names = ", ".join(f"{v['name']}={v['weight']}" for v in ring["vars"])
        lines.append(f"{command} product ring: Q[{names}]")
        lines.append(f"ideal: {_ideal_text(ring['ideal'])}")
        lines.append(f"dimension: {results['dimension']}")
        if "formulaHolds" in results:
            lines.append(f"predicted top trace: "
                         f"{_ideal_text(results['predictedTopTrace'])}")
            lines.append(f"direct top trace: "
                         f"{_ideal_text(results['directTopTrace'])}")
            lines.append(f"formula holds: {results['formulaHolds']}")
            lines.append(f"nearly regular: {results['nearlyRegular']}")
    elif command == "sr":
        lines.append(f"complex dimension: {results['dimension']}")
        nonfaces = results["minimalNonfaces"]
        lines.append("minimal non-faces: "
                     + ("; ".join(" ".join(str(v) for v in nf) for nf in nonfaces)
                        if nonfaces else "none"))
        lines.append(f"ideal: {_ideal_text(results['ring']['ideal'])}")
        lines.append(f"combinatorial nearly regular: "
                     f"{results['combinatorialNearlyRegular']}")
        if "algebraicNearlyRegular" in results:
            lines.append(f"algebraic nearly regular: "
                         f"{results['algebraicNearlyRegular']}")
            lines.append(f"criteria agree: {results['agree']}")
    elif command == "veronese":
        ring = results["ring"]
        names = ", ".join(v["name"] for v in ring["vars"])
        lines.append(f"veronese ring: Q[{names}]")
        lines.append(f"ideal: {_ideal_text(ring['ideal'])}")
        lines.append(f"dimension: {results['dimension']}")
    lines.append(f"elapsed: {elapsed:.3f}s")
    return "\n".join(lines)


# -- entry point -------------------------------------------------------------------

@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process.  Parsing leaves it as it
    was: every option parses into a fresh namespace, and the common flags
    default to SUPPRESS, so a flag of one call never shows in the next."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", default=argparse.SUPPRESS,
                        help="machine output: one deterministic JSON document")
    common.add_argument("--max-steps", type=int, metavar="N",
                        default=argparse.SUPPRESS,
                        help=f"reduction step budget (default {DEFAULT_MAX_STEPS})")
    common.add_argument("--order", choices=["grevlex"], default=argparse.SUPPRESS,
                        help="monomial order (weighted grevlex)")

    # no set_defaults here: the option actions are shared with the
    # subparsers through `parents`, and mutating their defaults would let a
    # subcommand parse clobber flags given before the subcommand name
    parser = argparse.ArgumentParser(
        prog="difftrace",
        description="Trace ideals of exterior powers of differential modules",
        parents=[common],
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("trace", parents=[common],
                       help="trace ideal of one exterior power")
    p.add_argument("--ring", required=True, metavar="FILE")
    p.add_argument("--power", required=True, type=int, metavar="K")

    p = sub.add_parser("classify", parents=[common],
                       help="dimension, traces, nearly-regular, regular, rank")
    p.add_argument("--ring", required=True, metavar="FILE")

    p = sub.add_parser("singular", parents=[common],
                       help="singular locus via the top trace")
    p.add_argument("--ring", required=True, metavar="FILE")
    p.add_argument("--cross-check", action="store_true",
                   help="compare against the Jacobian ideal up to radical")

    p = sub.add_parser("prank", parents=[common], help="polynomial rank")
    p.add_argument("--ring", required=True, metavar="FILE")

    for name in ("tensor", "fiber"):
        p = sub.add_parser(name, parents=[common], help=f"{name} product of two rings")
        p.add_argument("ring_a", metavar="A")
        p.add_argument("ring_b", metavar="B")
        p.add_argument("--verify-formula", action="store_true",
                       help="check the predicted top trace against the direct one")

    p = sub.add_parser("sr", parents=[common],
                       help="Stanley-Reisner ring of a simplicial complex")
    p.add_argument("--facets", required=True, metavar="STR",
                   help="facets like '1 2; 2 3'")
    p.add_argument("--verify-algebraic", action="store_true",
                   help="cross-check nearly-regularity algebraically")

    p = sub.add_parser("veronese", parents=[common],
                       help="Veronese subring of a polynomial ring")
    p.add_argument("--ring", required=True, metavar="FILE")
    p.add_argument("--degree", required=True, type=int, metavar="C")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    machine = getattr(args, "json", False)
    max_steps = getattr(args, "max_steps", DEFAULT_MAX_STEPS)
    order_name = getattr(args, "order", "grevlex")
    if max_steps < 1:
        parser.error("--max-steps must be a positive integer")
    started = time.perf_counter()
    try:
        with step_budget(max_steps):
            report = _COMMANDS[args.command](args)
    except (AssumptionError, HomogeneityError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ASSUMPTION
    except BudgetExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except InternalCheckError as exc:
        print(f"internal check failed: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except (RingFileError, ParseError, NameCollisionError, UsageError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except DegreeLimitError as exc:
        print(f"error: input past a documented limit: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except ValueError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    elapsed = time.perf_counter() - started
    report["order"] = order_name
    report["maxSteps"] = max_steps
    if machine:
        print(json.dumps(report, sort_keys=True, indent=2))
    else:
        print(_render_human(report, elapsed))
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
