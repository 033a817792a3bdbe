"""Command-line front end: JSON in, JSON out.

Subcommands: compute, classify, realize, witt, verify, search.  Exit
codes: 0 success, 1 usage error, 2 invalid input data or input outside the
supported range (a brute-force bound included), 3 target not realizable by
the implemented constructions, 4 internal verification failure (a failing
suite or an unverifiable construction).
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys

from .arith import fmt_rational, is_prime
from .errors import (
    InvalidDataError,
    LinkformError,
    UnrealizableError,
    UnsupportedError,
    VerificationError,
)
from .linking import gram_matrix, welldefined_check
from .pairing import StandardForm, classify, classify_seifert
from .realize import exhaustive_search, realize
from .seifert import SeifertData, euler_invariant, relevant_primes
from .torsion import local_orders, structure_check
from .verify import SEED_ENV, SUITES, RunConfig, run_suite
from .witt import witt_seifert

EXIT_USAGE = 1
EXIT_INVALID = 2
EXIT_UNREALIZABLE = 3
EXIT_VERIFICATION = 4


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit 1 instead of argparse's default 2
        raise _UsageError(message)


def _prime(text: str) -> int:
    p = int(text)
    if not is_prime(p):
        raise argparse.ArgumentTypeError(f"{text} is not a prime")
    return p


def _at_least(low: int):
    """argparse type: an integer no smaller than ``low``."""

    def parse(text: str) -> int:
        n = int(text)
        if n < low:
            raise argparse.ArgumentTypeError(f"{text} is below {low}")
        return n

    return parse


def _unique_keys(pairs: list) -> dict:
    """``object_pairs_hook``: a key given twice would be read as its last value."""
    obj = dict(pairs)
    if len(obj) < len(pairs):
        seen = set()  # one pass: the first key met a second time
        key = next(k for k, _ in pairs if k in seen or seen.add(k))
        raise InvalidDataError(f"duplicate key {key!r}")
    return obj


def _read_json(path: str):
    try:
        if path == "-":
            return json.load(sys.stdin, object_pairs_hook=_unique_keys)
        with open(path) as fh:
            return json.load(fh, object_pairs_hook=_unique_keys)
    # bad JSON, bad UTF-8, too many digits, arrays or objects nested too deep
    except (OSError, ValueError, RecursionError) as exc:
        raise InvalidDataError(f"cannot read JSON from {path}: {exc}") from exc


_encode_str = json.encoder.encode_basestring_ascii


def _dumps(obj) -> str:
    """``json.dumps(obj, indent=2, sort_keys=True)``, written in one pass.

    With ``indent`` set, the stdlib drops its C encoder for a pure-Python
    generator; this writer appends its pieces to one list and joins
    once.  It dispatches on the exact type, so a bool never reads as an
    int, and it takes only what reports hold: str, int, bool, None, lists,
    tuples and dicts with str keys.  Anything else raises TypeError.
    """
    parts = []
    _write(obj, "\n", parts.append)
    return "".join(parts)


def _write(o, nl, append) -> None:
    # module level, not a closure: a recursive closure is a reference cycle
    # that would keep every piece alive until the cyclic collector runs
    t = type(o)
    if t is str:
        append(_encode_str(o))
    elif t is int:
        append(int.__repr__(o))
    elif t is list or t is tuple:
        if not o:
            append("[]")
            return
        inner = nl + "  "
        sep, comma = "[" + inner, "," + inner
        for item in o:
            append(sep)
            sep = comma
            _write(item, inner, append)
        append(nl + "]")
    elif t is dict:
        if not o:
            append("{}")
            return
        inner = nl + "  "
        sep, comma = "{" + inner, "," + inner
        for key in sorted(o):
            if type(key) is not str:
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            append(sep + _encode_str(key) + ": ")
            sep = comma
            _write(o[key], inner, append)
        append(nl + "}")
    elif o is None:
        append("null")
    elif o is True:
        append("true")
    elif o is False:
        append("false")
    else:
        raise TypeError(f"Object of type {t.__name__} is not JSON serializable")


def _emit(obj, args) -> None:
    text = _dumps(obj) + "\n"
    if getattr(args, "json_out", None):
        try:
            with open(args.json_out, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise _UsageError(f"cannot write {args.json_out}: {exc}") from exc
    else:
        sys.stdout.write(text)


def _load_seifert(path: str) -> SeifertData:
    return SeifertData.from_json(_read_json(path))


def _seifert_report(S: SeifertData, prime: int | None) -> dict:
    eps = euler_invariant(S)
    primes = [prime] if prime else list(relevant_primes(S))
    out = {
        "seifert": S.to_json(),
        "euler": fmt_rational(eps),
        "h1_free_rank": 2 * S.genus + (1 if eps == 0 else 0),
        "structure": structure_check(S),
        "local": [],
    }
    atoms = []
    for p in primes:
        dec = local_orders(S, p)
        entry = {
            "prime": p,
            "orders": [list(o) for o in dec.orders],
            "free_rank": dec.free_rank,
        }
        if S.r >= 2:
            G = gram_matrix(S, p)
            entry["gram"] = G.to_json()
            entry["welldefined"] = welldefined_check(G)
            rep = classify(G)
            entry["classification"] = rep.to_json()
            atoms += rep.standard_form.atoms
        out["local"].append(entry)
    if S.r >= 2:
        out["standard_form"] = StandardForm(atoms).to_json()
        out["witt"] = witt_seifert(S).to_json()
    return out


def cmd_compute(args) -> int:
    S = _load_seifert(args.input)
    _emit(_seifert_report(S, args.prime), args)
    return 0


def cmd_classify(args) -> int:
    S = _load_seifert(args.input)
    primes = [args.prime] if args.prime else None
    reports = classify_seifert(S, primes)
    total = StandardForm(a for rep in reports.values() for a in rep.standard_form.atoms)
    _emit(
        {
            "seifert": S.to_json(),
            "per_prime": {str(p): rep.to_json() for p, rep in reports.items()},
            "standard_form": total.to_json(),
        },
        args,
    )
    return 0


def cmd_realize(args) -> int:
    target = StandardForm.from_json(_read_json(args.input))
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()  # 0: no limit
    for a in target.atoms:  # p^k has floor(k log10 p) + 1 digits
        if limit and a.k * math.log10(a.p) >= limit:
            raise UnsupportedError(f"cannot write the report: {a.p}^{a.k} has over {limit} digits")
    result = realize(target, mode=args.mode)
    out = result.to_json()
    out["target"] = target.to_json()
    _emit(out, args)
    return 0


def cmd_witt(args) -> int:
    S = _load_seifert(args.input)
    _emit(
        {
            "seifert": S.to_json(),
            "euler": fmt_rational(euler_invariant(S)),
            "witt": witt_seifert(S).to_json(),
        },
        args,
    )
    return 0


def cmd_verify(args) -> int:
    cfg = RunConfig.from_env(
        seed=args.seed,
        trials=args.trials,
        max_r=args.max_r,
        max_alpha=args.max_alpha,
        max_beta=args.max_beta,
        oracle_bound=args.oracle_bound,
    )
    report = run_suite(args.suite, cfg)
    _emit(report, args)
    return 0 if report["ok"] else EXIT_VERIFICATION


def cmd_search(args) -> int:
    target = StandardForm.from_json(_read_json(args.input))
    hits = exhaustive_search(
        target,
        max_r=args.max_r,
        max_beta=args.max_beta,
        alphas=range(2, args.max_alpha + 1),
    )
    _emit(
        {
            "target": target.to_json(),
            "bounds": {
                "max_r": args.max_r,
                "max_alpha": args.max_alpha,
                "max_beta": args.max_beta,
            },
            "count": len(hits),
            "seifert": [S.to_json() for S in hits],
        },
        args,
    )
    return 0


@functools.cache
def _build_parser() -> tuple[_Parser, dict]:
    """The one root parser of the process and its subcommand parsers by
    name, built on first use.

    Reuse is safe: parse_args makes a fresh Namespace per call and no
    default is mutable.
    """
    parser = _Parser(
        prog="linkform",
        description="Torsion linking pairings of orientable Seifert fibred "
        "3-manifolds: exact computation, classification, realization, "
        "Witt classes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, needs_input=True):
        if needs_input:
            p.add_argument("input", help="path to a JSON file, or - for stdin")
        p.add_argument("--json-out", help="write the report to this path")

    p = sub.add_parser("compute", help="full report for Seifert data")
    add_common(p)
    p.add_argument("--prime", type=_prime, help="restrict to one prime")
    p.set_defaults(func=cmd_compute)

    p = sub.add_parser("classify", help="classification of the linking pairing")
    add_common(p)
    p.add_argument("--prime", type=_prime)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("realize", help="Seifert data realizing a standard form")
    add_common(p)
    p.add_argument("--mode", choices=["auto", "flat", "sphere"], default="auto")
    p.set_defaults(func=cmd_realize)

    p = sub.add_parser("witt", help="Witt class of the linking pairing")
    add_common(p)
    p.set_defaults(func=cmd_witt)

    p = sub.add_parser("verify", help="run a seeded property suite")
    p.add_argument("suite", choices=sorted(SUITES))
    p.add_argument("--json-out")
    p.add_argument("--seed", type=int, default=None, help=f"default: ${SEED_ENV} or 0")
    p.add_argument("--trials", type=_at_least(1), default=None)
    p.add_argument("--max-r", type=_at_least(1), default=5)
    p.add_argument("--max-alpha", type=_at_least(2), default=8)
    p.add_argument("--max-beta", type=_at_least(1), default=7)
    p.add_argument("--oracle-bound", type=_at_least(1), default=2**10)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("search", help="exhaustive bounded realization search")
    add_common(p)
    p.add_argument("--max-r", type=_at_least(1), default=4)
    p.add_argument("--max-alpha", type=_at_least(2), default=8)
    p.add_argument("--max-beta", type=_at_least(1), default=7)
    p.set_defaults(func=cmd_search)

    return parser, sub.choices


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    parser, commands = _build_parser()
    try:
        # a subcommand's own parser: the root's pass would only hand it argv[1:]
        if argv and argv[0] in commands:
            parser, argv = commands[argv[0]], argv[1:]
        args = parser.parse_args(argv)
        return args.func(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except InvalidDataError as exc:
        print(f"invalid data: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except UnsupportedError as exc:
        print(f"unsupported: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except ValueError as exc:
        # an int with more digits than sys.get_int_max_str_digits(), met
        # while the report is built (fmt_rational) or written (_write)
        if "integer string conversion" not in str(exc):
            raise
        print(f"unsupported: cannot write the report: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except UnrealizableError as exc:
        print(f"not realizable: {exc}", file=sys.stderr)
        return EXIT_UNREALIZABLE
    except (VerificationError, LinkformError) as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return EXIT_VERIFICATION


if __name__ == "__main__":
    sys.exit(main())
