"""Command line front end.

Subcommands: spectrum, decompose, indec, pthpower, modp, census, enumerate,
check-bounds, bd-lemma.  Reports are JSON by default (--format text for an
aligned rendering); output is deterministic for a fixed argv.  Help and
usage errors are wrapped at 78 columns, the width argparse picks without a
terminal, whatever COLUMNS or the terminal says.  Exit codes: 0 success,
1 domain error, 2 usage error.  SPEC_GUARD overrides the enumeration guard.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from fractions import Fraction
from math import comb, gcd

from . import census as census_mod
from . import modp as modp_mod
from .arith import decimal, power_over, prime_power
from .decompose import decompose_multi, is_indecomposable_multi, is_pth_power, outer_degrees
from .fields import DEFAULT_GUARD, GuardExceeded, ZZ, finite_field
from .mpoly import default_var_names
from .parsing import ParseError, parse_poly
from .spectrum import SpectrumUnbounded, spectral_values

PROG = "spec"
HELP_FORMAT = functools.partial(argparse.HelpFormatter, width=78)
JOBS_HELP = ("cut the scan into this many index ranges; the counts do not depend "
             "on it, and at most one worker process runs per usable CPU")


def _parse_field(text, guard):
    parts = text.split("^", 1)
    if not all(s.isascii() and s.isdigit() for s in parts):  # int() also takes " 7", +7, 1_1
        raise ValueError(f"--field takes p or p^k, not {text!r}")
    nums = [int(s) for s in parts]
    p, k = nums if len(nums) == 2 else prime_power(nums[0])
    # F_{p^k}, k >= 2, searches up to p^k moduli: check k, then p^k, against the guard first
    if k >= 2 and power_over(p, k, guard):
        raise GuardExceeded(f"field order {p}^{k} exceeds guard {guard}")
    return finite_field(p, k)


def _check_count_size(q, n, d, guard):
    # N_d has comb(n + d, n) base-q digits, and the counts are built at that
    # size: check it against the guard once the inputs are otherwise valid
    if n >= 1 and d >= 1 and (digits := comb(n + d, n)) > guard:
        prime_power(q)  # ValueError unless q is a prime power
        raise GuardExceeded(f"count of {digits} base-{q} digits exceeds guard {guard}")


def _emit(payload, fmt):
    if fmt == "json":
        print(json.dumps(payload, sort_keys=True))
    else:
        _emit_text(payload)


def _emit_text(payload, indent=""):
    if isinstance(payload, dict):
        for k in sorted(payload):
            v = payload[k]
            if isinstance(v, (dict, list)):
                print(f"{indent}{k}:")
                _emit_text(v, indent + "  ")
            else:
                print(f"{indent}{k}: {v}")
    elif isinstance(payload, list):
        for v in payload:
            _emit_text(v, indent + "  ")
    else:
        print(f"{indent}{payload}")


def _frac(f: Fraction) -> str:
    return f"{decimal(f.numerator)}/{decimal(f.denominator)}"


def cmd_spectrum(args):
    field = _parse_field(args.field, args.guard)
    F = parse_poly(args.poly, field, nvars=2)
    rep = spectral_values(F, guard=args.guard)
    return rep.to_json_dict()


def cmd_decompose(args):
    field = _parse_field(args.field, args.guard)
    F = parse_poly(args.poly, field)
    if F.is_constant():
        raise ValueError("cannot decompose a constant")
    d = F.degree()
    found = []
    outers = [args.outer_degree] if args.outer_degree is not None else outer_degrees(F.n, d)
    for e in outers:
        dec = decompose_multi(F, e, guard=args.guard)
        if dec is not None:
            found.append(
                {
                    "outer_degree": e,
                    "outer": dec.outer.format(("t",)),
                    "inner": dec.inner.format(default_var_names(F.n)),
                }
            )
    return {"poly": F.format(), "variables": F.n, "decompositions": found}


def cmd_indec(args):
    field = _parse_field(args.field, args.guard)
    F = parse_poly(args.poly, field)
    return {"poly": F.format(), "variables": F.n,
            "indecomposable": is_indecomposable_multi(F, args.guard)}


def cmd_pthpower(args):
    field = _parse_field(args.field, args.guard)
    F = parse_poly(args.poly, field)
    root = is_pth_power(F)
    return {
        "poly": F.format(),
        "characteristic": field.p,
        "root": None if root is None else root.format(default_var_names(F.n)),
    }


def cmd_modp(args):
    # the prime sieve holds one byte per integer up to --primes-to
    if args.primes_to > args.guard:
        raise GuardExceeded(f"sieve space {args.primes_to} exceeds guard {args.guard}")
    F = parse_poly(args.poly, ZZ, nvars=2)
    chain = modp_mod.build_chain(F)
    out = chain.to_json_dict()
    out["good_primes"] = modp_mod.good_primes(chain, args.primes_to)
    return out


def _census_payload(rep):
    return json.loads(rep.to_json())


def cmd_census(args):
    _check_count_size(args.q, args.n, args.d, args.guard)
    method = args.method
    out = []
    if args.n == 1:
        scan = method in ("enumeration", "all")
        # count_uni needs gcd(q, d) = 1; without it a scan is printed alone
        u = None
        if gcd(args.q, args.d) == 1 or not scan:
            u = census_mod.count_uni(args.q, args.d)
            payload = {
                "q": u.q,
                "d": u.d,
                "n": 1,
                "N": decimal(u.total),
                "method": u.method,
                "D_lower": decimal(u.lower),
                "D_upper": decimal(u.upper),
            }
            if u.exact is not None:
                payload["D"] = decimal(u.exact)
            if u.alpha is not None:
                payload["alpha"] = _frac(u.alpha)
            out.append(payload)
        if scan:
            rep = census_mod.enumerate_census_parallel(args.q, 1, args.d, args.jobs,
                                                       guard=args.guard)
            out.append(_census_payload(rep))
            if u is not None:
                agree = u.exact is None or u.exact == rep.decomposable
                agree = agree and u.lower <= rep.decomposable <= u.upper
                out.append({"agreement": bool(agree)})
        return out
    reps = {}
    if method in ("closed", "all"):
        closed = census_mod.count_closed_small(args.q, args.n, args.d)
        if closed is not None:
            total = census_mod.count_total(args.q, args.n, args.d)
            reps["closed"] = census_mod.CensusReport(
                args.q, args.n, args.d, total, total - closed, closed, "closed"
            )
        elif method == "closed":
            raise ValueError("no closed form: degree has three or more prime factors")
    if method in ("recursion", "all"):
        reps["recursion"] = census_mod.count_recursive(args.q, args.n, args.d)
    if method in ("enumeration", "all"):
        reps["enumeration"] = census_mod.enumerate_census_parallel(
            args.q, args.n, args.d, args.jobs, guard=args.guard
        )
    for name in ("closed", "recursion", "enumeration"):
        if name in reps:
            out.append(_census_payload(reps[name]))
    if method == "all":
        vals = {(r.total, r.indecomposable, r.decomposable) for r in reps.values()}
        out.append({"agreement": len(vals) == 1})
    return out


def cmd_enumerate(args):
    rep = census_mod.enumerate_census_parallel(args.q, args.n, args.d, args.jobs, guard=args.guard)
    return _census_payload(rep)


def cmd_check_bounds(args):
    _check_count_size(args.q, 2, args.d, args.guard)
    rep = census_mod.bounds_check_n2(args.q, args.d)
    return {
        "q": rep.q,
        "d": rep.d,
        "alpha": _frac(rep.alpha),
        "beta": _frac(rep.beta),
        "ratio": _frac(rep.ratio),
        "holds": rep.holds,
    }


def cmd_bd_lemma(args):
    # the check walks every d <= d_max; a d_max below 8 keeps its own error
    if args.dmax > max(args.guard, 7):
        raise GuardExceeded(f"d_max {args.dmax} exceeds guard {args.guard}")
    return {"d_max": args.dmax, "holds": census_mod.bd_lemma_check(args.dmax)}


def build_parser(guard):
    top = argparse.ArgumentParser(
        prog=PROG,
        description="indecomposable polynomials over finite fields: spectra, "
        "decomposition, mod-p criteria, exact censuses",
        formatter_class=HELP_FORMAT,
    )
    top.add_argument("--format", choices=("json", "text"), default="json")
    sub = top.add_subparsers(dest="command", required=True, metavar="COMMAND")

    def add(name, fn, help_):
        p = sub.add_parser(name, help=help_, formatter_class=HELP_FORMAT)
        p.set_defaults(fn=fn)
        p.add_argument("--guard", type=int, default=guard)
        return p

    p = add("spectrum", cmd_spectrum, "spectral values of an indecomposable polynomial")
    p.add_argument("--field", required=True, help="p or p^k")
    p.add_argument("poly")

    p = add("decompose", cmd_decompose, "functional decompositions u(H)")
    p.add_argument("--field", required=True)
    p.add_argument("--outer-degree", type=int, default=None)
    p.add_argument("poly")

    p = add("indec", cmd_indec, "indecomposability test")
    p.add_argument("--field", required=True)
    p.add_argument("poly")

    p = add("pthpower", cmd_pthpower, "p-th power detection and root extraction")
    p.add_argument("--field", required=True)
    p.add_argument("poly")

    p = add("modp", cmd_modp, "discriminant chain and good primes")
    p.add_argument("--primes-to", type=int, default=50)
    p.add_argument("poly")

    p = add("census", cmd_census, "counts of (in)decomposable polynomials")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--n", type=int, default=2)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--method", choices=("closed", "recursion", "enumeration", "all"),
                   default="all")
    p.add_argument("--jobs", type=int, default=1, help=JOBS_HELP)

    p = add("enumerate", cmd_enumerate, "exhaustive census scan")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--n", type=int, default=2)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--jobs", type=int, default=1, help=JOBS_HELP)

    p = add("check-bounds", cmd_check_bounds, "two-variable ratio bounds")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--d", type=int, required=True)

    p = add("bd-lemma", cmd_bd_lemma, "integer inequalities behind the bounds")
    p.add_argument("--dmax", type=int, default=10000)

    return top


def main(argv=None) -> int:
    env = os.environ.get("SPEC_GUARD") or str(DEFAULT_GUARD)
    try:
        guard = int(env)
    except ValueError:
        print(f"error: SPEC_GUARD must be an integer, not {env!r}", file=sys.stderr)
        return 2
    args = build_parser(guard).parse_args(argv)
    try:
        payload = args.fn(args)
    except (ParseError, SpectrumUnbounded, GuardExceeded, ValueError,
            ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if isinstance(payload, list):
        for item in payload:
            _emit(item, args.format)
    else:
        _emit(payload, args.format)
    return 0


if __name__ == "__main__":
    sys.exit(main())
