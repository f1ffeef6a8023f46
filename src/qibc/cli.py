"""Command-line front end.

Every run is fully determined by its configuration: no hidden state, no
randomness. Artifacts written for identical configurations are
byte-identical.

Exit codes:

* 0 — success;
* 2 — validation error (malformed input, inconsistent data, bad config);
* 3 — premise violation (e.g. ``extract`` finds no qualifying cluster, or
  ``verify-bound`` measures a worst error above ``eps``);
* 4 — capacity exceeded: a count past the library's one size budget,
  ``2^20`` items (more than 20 qubits in a circuit or its query register, a
  design of more than ``2^20`` points, more than 16 outcomes in the
  brute-force error form), or ``m(eps)`` above 2^53.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys

from .adversary import Quadrature, foil, fooling_pair
from .bounds import (
    extract,
    local_error,
    local_error_setform,
    qubit_lower_bound,
    report_to_json,
    verify_bound,
)
from .exceptions import (
    CapacityError,
    PremiseViolationError,
    ValidationError,
    _reals,
)
from .functions import function_from_json, function_to_json
from .information import (
    DataVector,
    Design,
    envelopes,
    interval_H,
    m_eps,
    optimal_design,
    query_complexity,
)
from .serialize import dumps_json, format_float, load_json_file, reading, render_csv
from .simulator import (
    algorithm_from_json,
    distribution,
    distribution_from_csv,
    distribution_to_csv,
)

__all__ = ["SCHEMA_VERSION", "complexity_table_rows", "main", "entrypoint"]

#: Version of the JSON/CSV artifact schemas. Schema 2 adds the ``mcx`` gate
#: kind to algorithm JSON; schema-1 documents still load unchanged.
SCHEMA_VERSION = "2"

def _parse_floats(text: str, what: str) -> tuple[float, ...]:
    items = [s.strip() for s in text.split(",") if s.strip() != ""]
    if not items:
        raise ValidationError(f"{what} must be a nonempty comma-separated list")
    try:
        return tuple(float(s) for s in items)
    except ValueError as exc:
        raise ValidationError(f"malformed {what}: {text!r}") from exc


def _emit(text: str, out: str | None, summary: str) -> None:
    """Write ``text`` to ``out`` and print a summary, or print the text."""
    if out is None:
        sys.stdout.write(text)
        return
    try:
        with open(out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    except OSError as exc:
        raise ValidationError(f"cannot write {out}: {exc}") from exc
    print(f"{summary} -> {out}")


def _load_family(path: str) -> list:
    try:
        names = sorted(n for n in os.listdir(path) if n.endswith(".json"))
    except OSError as exc:
        raise ValidationError(f"cannot list family directory {path}: {exc}") from exc
    if not names:
        raise ValidationError(f"family directory {path} contains no .json functions")
    return [function_from_json(load_json_file(os.path.join(path, n))) for n in names]


# --------------------------------------------------------------------------
# command handlers


def _cmd_radius(ns: argparse.Namespace) -> None:
    points = _parse_floats(ns.design, "--design")
    y = (0.0,) * len(points) if ns.y is None else _parse_floats(ns.y, "--y")
    report = interval_H(envelopes(Design(points), DataVector(y), ns.L))
    if ns.format == "json":
        sys.stdout.write(dumps_json(dataclasses.asdict(report)))
    else:
        print(format_float(report.radius))


def _cmd_design(ns: argparse.Namespace) -> None:
    d = optimal_design(ns.n)
    _emit(dumps_json(d.points.tolist()), ns.out, f"design: n={d.n}")


def _cmd_meps(ns: argparse.Namespace) -> None:
    print(m_eps(ns.L, ns.eps))


def complexity_table_rows(
    Ls: tuple[float, ...], epss: tuple[float, ...], c: float
) -> list[tuple]:
    """Cross-product rows ``L, eps, m(eps), comp(eps), m(3 eps), qubit bound``."""
    Ls, epss = _reals(Ls, "L values"), _reals(epss, "eps values")
    if not Ls or not epss:
        raise ValidationError("complexity tables need nonempty L and eps lists")
    return [
        (L, eps, m_eps(L, eps), query_complexity(L, eps, c), m_eps(L, 3.0 * eps),
         qubit_lower_bound(L, eps, c))
        for L in Ls
        for eps in epss
    ]


def _cmd_complexity_table(ns: argparse.Namespace) -> None:
    rows = complexity_table_rows(
        _parse_floats(ns.L, "--L"), _parse_floats(ns.eps, "--eps"), ns.c
    )
    text = render_csv(["L", "eps", "m", "comp", "m3", "qubit_bound"], rows)
    _emit(text, ns.out, f"complexity-table: {len(rows)} rows")


def _cmd_fooling_pair(ns: argparse.Namespace) -> None:
    d = Design(_parse_floats(ns.design, "--design"))
    pair = fooling_pair(d, ns.L)
    doc = {
        "f_plus": function_to_json(pair.f_plus),
        "f_minus": function_to_json(pair.f_minus),
        "gap": pair.gap,
    }
    _emit(dumps_json(doc), ns.out, f"fooling-pair: n={d.n} gap={format_float(pair.gap)}")


def _cmd_foil(ns: argparse.Namespace) -> None:
    node = load_json_file(ns.quadrature)
    with reading(node, "quadrature", {"design", "weights"}):
        q = Quadrature(design=Design(node["design"]), weights=node["weights"])
    print(format_float(foil(q, ns.L)))


def _cmd_simulate(ns: argparse.Namespace) -> None:
    alg = algorithm_from_json(load_json_file(ns.alg))
    f = function_from_json(load_json_file(ns.f))
    dist = distribution(alg, f)
    summary = (
        f"simulate: nu={alg.nu} queries={alg.num_queries} outcomes={alg.outcome_count}"
    )
    _emit(distribution_to_csv(dist), ns.out, summary)


def _cmd_error(ns: argparse.Namespace) -> None:
    dist = distribution_from_csv(ns.dist)
    fn = local_error_setform if ns.brute_force else local_error
    print(format_float(fn(dist, ns.truth)))


def _cmd_extract(ns: argparse.Namespace) -> None:
    dist = distribution_from_csv(ns.dist)
    print(format_float(extract(dist, ns.eps)))


def _cmd_verify_bound(ns: argparse.Namespace) -> None:
    alg = algorithm_from_json(load_json_file(ns.alg))
    family = _load_family(ns.family)
    report = verify_bound(alg, family, L=ns.L, eps=ns.eps, c=ns.c)
    summary = (
        f"verify-bound: status={report.status}"
        f" satisfied={'true' if report.satisfied else 'false'}"
        f" nu={report.nu} rhs={format_float(report.rhs)}"
    )
    _emit(dumps_json(report_to_json(report)), ns.out, summary)
    if report.status != "ok":
        raise PremiseViolationError(
            f"worst probabilistic error {report.achieved_error} exceeds eps={report.eps}"
        )


def _build_parser() -> argparse.ArgumentParser:
    from . import __version__

    parser = argparse.ArgumentParser(
        prog="qibc",
        description=(
            "Worst-case integration on Lipschitz classes, a quantum query-model "
            "simulator, and a qubit-complexity lower-bound checker."
        ),
    )
    parser.add_argument(
        "--version",
        action="version",
        version=f"qibc {__version__} (schema {SCHEMA_VERSION})",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("radius", help="radius of information for a design")
    p.set_defaults(handler=_cmd_radius)
    p.add_argument("--design", required=True, help="comma-separated points in [0,1]")
    p.add_argument("--L", type=float, required=True, help="Lipschitz bound")
    p.add_argument("--y", default=None, help="observed data (default: worst case, all zeros)")
    p.add_argument("--format", choices=("plain", "json"), default="plain")

    p = sub.add_parser("design", help="radius-optimal midpoint design")
    p.set_defaults(handler=_cmd_design)
    p.add_argument("--n", type=int, required=True, help="number of points")
    p.add_argument("--out", default=None, help="write JSON array here")

    p = sub.add_parser("meps", help="minimal evaluations m(eps) for accuracy eps")
    p.set_defaults(handler=_cmd_meps)
    p.add_argument("--L", type=float, required=True)
    p.add_argument("--eps", type=float, required=True)

    p = sub.add_parser("complexity-table", help="CSV of m(eps), comp, and qubit bounds")
    p.set_defaults(handler=_cmd_complexity_table)
    p.add_argument("--L", required=True, help="comma-separated Lipschitz bounds")
    p.add_argument("--eps", required=True, help="comma-separated accuracies")
    p.add_argument("--c", type=float, default=1.0, help="per-query cost (default 1)")
    p.add_argument("--out", default=None, help="write CSV here")

    p = sub.add_parser("fooling-pair", help="adversary pair vanishing on a design")
    p.set_defaults(handler=_cmd_fooling_pair)
    p.add_argument("--design", required=True, help="comma-separated points in [0,1]")
    p.add_argument("--L", type=float, required=True)
    p.add_argument("--out", default=None, help="write pair JSON here")

    p = sub.add_parser("foil", help="certified error lower bound for a quadrature")
    p.set_defaults(handler=_cmd_foil)
    p.add_argument("--quadrature", required=True, help="JSON file with design and weights")
    p.add_argument("--L", type=float, required=True)

    p = sub.add_parser("simulate", help="run an algorithm on a function, emit outcomes")
    p.set_defaults(handler=_cmd_simulate)
    p.add_argument("--alg", required=True, help="algorithm JSON file")
    p.add_argument("--f", required=True, help="function JSON file")
    p.add_argument("--out", default=None, help="write distribution CSV here")

    p = sub.add_parser("error", help="local error of a distribution against a truth")
    p.set_defaults(handler=_cmd_error)
    p.add_argument("--dist", required=True, help="distribution CSV file")
    p.add_argument("--truth", type=float, required=True)
    p.add_argument(
        "--brute-force",
        action="store_true",
        help="use the exhaustive subset form (capacity-capped at 16 outcomes)",
    )

    p = sub.add_parser("extract", help="deterministic 3-eps-accurate value from outcomes")
    p.set_defaults(handler=_cmd_extract)
    p.add_argument("--dist", required=True, help="distribution CSV file")
    p.add_argument("--eps", type=float, required=True)

    p = sub.add_parser("verify-bound", help="check the qubit lower bound end to end")
    p.set_defaults(handler=_cmd_verify_bound)
    p.add_argument("--alg", required=True, help="algorithm JSON file")
    p.add_argument("--family", required=True, help="directory of function JSON files")
    p.add_argument("--L", type=float, required=True)
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--c", type=float, default=1.0)
    p.add_argument("--out", default=None, help="write bound-report JSON here")

    return parser


def main(argv: list[str] | None = None) -> int:
    """Parse arguments and run the command; returns the process exit code."""
    try:
        ns = _build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on bad args, 0 on --version/--help
        code = exc.code
        return int(code) if code is not None else 0
    try:
        ns.handler(ns)
        return 0
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except PremiseViolationError as exc:
        print(f"premise violation: {exc}", file=sys.stderr)
        return 3
    except CapacityError as exc:
        print(f"capacity exceeded: {exc}", file=sys.stderr)
        return 4


def entrypoint() -> None:
    """Console-script entry point."""
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
