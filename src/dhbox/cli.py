"""Command-line front end.

Subcommands cover a single run of each algorithm (secret recovery, DDH
decision, level lifting, the multiplicative-subgroup embedding, one
Grover run), the adversary-bound report and the three Monte Carlo
experiments.  Every command takes an explicit seed where randomness is
involved; identical invocations produce byte-identical output files.
Each handler parses its arguments, calls one library function (the
``secret``, ``lift`` and ``embed`` checks live in ``experiments``, where
the demos call them too) and formats what it returns.

Exit codes: 0 success, 1 input/usage error, 2 internal failure.

``main`` parses with one parser per process, built on its first call:
parsing leaves no state on an ``argparse`` parser, and building all nine
subparsers costs more than parsing one command.  ``build_parser`` still
returns a fresh parser.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from typing import List, Optional

from . import __version__
from .adversary import adversary_bounds
from .algorithms import DHInstance, ddh_decide_level1
from .blackbox import GroupElement, IdentityOracle
from .experiments import (
    RECOVERIES,
    format_value,
    recover_secret,
    rows_to_csv,
    run_embedding,
    run_level2_solution_counts,
    run_lift_agreement,
    run_reduction_success,
    run_scaling,
    trial_rng,
)
from .grover_sim import grover_search
from .modmath import PrimeModulus


class UsageError(Exception):
    """Bad command line; carries the parser for a usage message."""

    def __init__(self, parser: argparse.ArgumentParser, message: str):
        super().__init__(message)
        self.parser = parser


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); we map usage errors to 1
        raise UsageError(self, message)


def _parse_int_list(text: str) -> List[int]:
    try:
        return [int(part) for part in text.split(",") if part]
    except ValueError:
        raise ValueError(f"expected comma-separated integers, got {text!r}")


def _parse_coords(text: str):
    return tuple(int(part) for part in text.split(","))


def _emit(text: str, out: Optional[str]) -> None:
    """Print ``text``, or write it to the file ``out`` and say so."""
    if out is None:
        print(text, end="")
    else:
        with open(out, "w", newline="") as fh:
            fh.write(text)
        print(f"wrote {out}")


def _emit_rows(rows: List[dict], out: Optional[str], fmt: str) -> None:
    """Rows as JSON, as a CSV file, or as ``key=value`` lines on stdout."""
    if fmt == "json":
        text = json.dumps(rows, indent=2) + "\n"
    elif out is not None:
        text = rows_to_csv(rows)
    else:
        text = "".join(
            "  ".join(f"{k}={format_value(v)}" for k, v in row.items()) + "\n" for row in rows
        )
    _emit(text, out)


def build_parser() -> _Parser:
    """A new parser for every ``dhbox`` command."""
    parser = _Parser(prog="dhbox", description=__doc__.split("\n\n")[0])
    parser.add_argument("--version", action="version", version=f"dhbox {__version__}")
    sub = parser.add_subparsers(dest="command", metavar="command")

    def add(name: str, help_text: str, seed=False, trials=None, out=False, fmt=False):
        # Each command declares only the options its handler reads.  No
        # prefix matching: a flag a command lacks, such as --t, must be
        # refused, not read as an abbreviation of another flag.
        sp = sub.add_parser(name, help=help_text, allow_abbrev=False)
        sp.add_argument("--p", required=True, help="prime modulus (comma list where applicable)")
        if seed:
            sp.add_argument("--seed", type=int, default=0, help="master seed")
        if trials is not None:
            sp.add_argument("--trials", type=int, default=trials)
        if out:
            sp.add_argument("--out", default=None, help="output file path")
        if fmt:
            sp.add_argument("--format", choices=("csv", "json"), default="csv")
        return sp

    sp = add("secret", "recover the hidden secret with a chosen algorithm", seed=True, out=True, fmt=True)
    sp.add_argument("--algo", choices=RECOVERIES, default="cdh")

    sp = add("ddh", "decide whether a level-1 quadruple is a DH-quadruple")
    sp.add_argument("--secret", type=int, required=True, help="hidden secret of the oracle")
    sp.add_argument("--g", required=True, help="generator coordinates, e.g. 1,0")
    sp.add_argument("--h", dest="hh", required=True)
    sp.add_argument("--k", required=True)
    sp.add_argument("--l", required=True)

    add("lift", "check that lifting preserves DDH answers on random instances", seed=True, trials=20)

    sp = add("embed", "embed a multiplicative prime-order subgroup DDH input", seed=True)
    sp.add_argument("--q", type=int, required=True, help="prime with p | q-1")
    sp.add_argument("--a", type=int, default=None)
    sp.add_argument("--b", type=int, default=None)
    sp.add_argument("--c", type=int, default=None)

    sp = add("adversary", "emit the level-2 adversary-bound report", out=True)
    sp.add_argument("--force", action="store_true", help="override the enumeration guard")

    sp = add("grover", "run the Grover search simulator once", seed=True, out=True)
    sp.add_argument("--iterations", type=int, default=None)

    row_options = dict(seed=True, out=True, fmt=True)
    add("scaling", "brute-force query scaling across primes", trials=10000, **row_options)
    add("reductions", "random-instance reduction success rates", trials=10000, **row_options)
    sp = add("level2-counts", "random level-2 instance line-solution counts", trials=1000, **row_options)
    sp.add_argument("--force", action="store_true", help="override the enumeration guard")
    return parser


@functools.cache
def _main_parser() -> _Parser:
    """The one parser ``main`` parses with, built on its first call."""
    return build_parser()


def _single_p(args) -> int:
    ps = _parse_int_list(args.p)
    if len(ps) != 1:
        raise ValueError(f"this command takes a single prime, got {ps}")
    return ps[0]


def _cmd_secret(args) -> int:
    p = _single_p(args)
    modulus = PrimeModulus(p)
    rng = trial_rng(args.seed, 100)
    s = int(rng.integers(0, p))
    oracle = IdentityOracle.level1(modulus, s)
    got, dlog_calls, cdh_calls = recover_secret(args.algo, oracle, rng)
    recovered = "none" if got is None else str(got.value)
    row = {
        "algorithm": args.algo,
        "p": p,
        "secret": s,
        "recovered": recovered,
        "correct": got is not None and got.value == s,
        "identity_queries": oracle.queries,
        "dlog_calls": dlog_calls,
        "cdh_calls": cdh_calls,
    }
    _emit_rows([row], args.out, args.format)
    return 0


def _cmd_ddh(args) -> int:
    p = _single_p(args)
    modulus = PrimeModulus(p)
    oracle = IdentityOracle.level1(modulus, args.secret)
    inst = DHInstance(
        GroupElement(_parse_coords(args.g), modulus),
        GroupElement(_parse_coords(args.hh), modulus),
        GroupElement(_parse_coords(args.k), modulus),
        GroupElement(_parse_coords(args.l), modulus),
    )
    answer = ddh_decide_level1(oracle, inst)
    print(f"DH-quadruple: {'yes' if answer else 'no'}")
    print(f"identity queries: {oracle.queries} (including 1 generator check)")
    return 0


def _cmd_lift(args) -> int:
    agree = run_lift_agreement(_single_p(args), args.trials, args.seed)
    print(f"lift agreement: {agree}/{args.trials} instances")
    return 0 if agree == args.trials else 2


def _cmd_embed(args) -> int:
    p = PrimeModulus(_single_p(args)).p  # refused before the exponents are drawn mod p
    exponents = (args.a, args.b, args.c)
    if exponents.count(None) not in (0, 3):
        raise ValueError("give all of --a, --b and --c, or none of them to draw all three")
    if None in exponents:
        rng = trial_rng(args.seed, 400)
        a, b, c = (int(x) for x in rng.integers(0, p, size=3))
    else:
        a, b, c = exponents
    gens, answer, direct, oracle = run_embedding(p, args.q, a, b, c)
    print(f"exponents: a={a % p} b={b % p} c={c % p} (mod {p}); subgroup elements {gens} mod {args.q}")
    print(f"DDH via embedded oracle: {'yes' if answer else 'no'}")
    print(f"DDH via exponents:       {'yes' if direct else 'no'}")
    print(f"identity queries: {oracle.queries}, modular multiplications: {oracle.mults}")
    return 0 if answer == direct else 2


def _cmd_adversary(args) -> int:
    p = _single_p(args)
    _emit(adversary_bounds(p, force=args.force).to_json() + "\n", args.out)
    return 0


def _cmd_grover(args) -> int:
    p = _single_p(args)
    modulus = PrimeModulus(p)
    rng = trial_rng(args.seed, 500)
    s = int(rng.integers(0, p))
    oracle = IdentityOracle.level1(modulus, s)
    run = grover_search(oracle, iterations=args.iterations, rng=rng)
    _emit(run.to_json_line() + "\n", args.out)
    return 0


def _cmd_scaling(args) -> int:
    rows = run_scaling(_parse_int_list(args.p), args.trials, args.seed)
    _emit_rows([r.to_dict() for r in rows], args.out, args.format)
    return 0


def _cmd_reductions(args) -> int:
    rows = run_reduction_success(_single_p(args), args.trials, args.seed)
    _emit_rows([r.to_dict() for r in rows], args.out, args.format)
    return 0


def _cmd_level2(args) -> int:
    result = run_level2_solution_counts(_single_p(args), args.trials, args.seed, force=args.force)
    payload = result.to_dict()
    if args.out is not None and args.format == "csv":
        flat = {k: v for k, v in payload.items() if k != "bad_samples"}
        _emit(rows_to_csv([flat]), args.out)
    else:
        # stdout is JSON whatever --format says.
        _emit(json.dumps(payload, indent=2) + "\n", args.out)
    return 0 if result.within_threshold else 2


_COMMANDS = {
    "secret": _cmd_secret,
    "ddh": _cmd_ddh,
    "lift": _cmd_lift,
    "embed": _cmd_embed,
    "adversary": _cmd_adversary,
    "grover": _cmd_grover,
    "scaling": _cmd_scaling,
    "reductions": _cmd_reductions,
    "level2-counts": _cmd_level2,
}


def main(argv: Optional[List[str]] = None) -> int:
    """Run one ``dhbox`` command and return its exit code.  The parser is
    built once per process (``_main_parser``), so every call after the
    first pays for parsing its own command only."""
    parser = _main_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as exc:
        exc.parser.print_usage(sys.stderr)
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:  # --help / --version
        return int(exc.code or 0)
    if args.command is None:
        parser.print_usage(sys.stderr)
        return 1
    try:
        return _COMMANDS[args.command](args)
    except (ValueError, ZeroDivisionError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # noqa: BLE001 - internal failures map to exit 2
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
