"""Deterministic command-line front end.

Subcommands expose the library for batch verification and certificate
emission:

    mul         exact product of two group-ring elements
    fox         Fox derivative of a free word, evaluated in the group ring
    relator     print a defining relator of the presentation
    certify     build and verify a zerodivisor certificate from z_0..z_N
    ore-search  window-bounded solution search for (1-a) sigma = (1-x) alpha
    annihilate  finite-subgroup annihilator of base-ideal elements
    reduce-b2   lamp-exponent reduction mod the squared augmentation ideal
    selftest    run the built-in verification checks

Exit codes: 0 success/verified, 1 verification failed, 2 parse error,
3 limit exceeded, 4 invalid configuration, 5 internal error.  Identical
inputs (including --seed) produce byte-identical output.
"""

from __future__ import annotations

import argparse
import functools
import json
import random
import sys

import numpy as np

from . import certificates, foxwords, oresearch
from .errors import (ConfigError, LamplighterError, LimitExceededError,
                     NotInAugmentationIdealError, ParseError, SupportError,
                     UnsupportedRingError)
from .groupring import GroupRing
from .parsing import parse_ring_element
from .ring import ScalarRing
from .wreath import DEFAULT_CAP, WreathGroup

EXIT_OK = 0
EXIT_FAILED = 1
EXIT_PARSE = 2
EXIT_LIMIT = 3
EXIT_CONFIG = 4
EXIT_INTERNAL = 5


class _Parser(argparse.ArgumentParser):
    """argparse that reports bad flags as ConfigError (exit code 4)."""

    def error(self, message):
        raise ConfigError(message)


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--d", type=int, default=2, help="lamp order d >= 2")
    sub.add_argument("--mod", type=int, default=0,
                     help="coefficient modulus; 0 means the integers.  ore-search "
                          "and reduce-b2 need a provable prime (reduce-b2 also --mod "
                          "equal to --d)")
    sub.add_argument("--L", type=int, default=6, dest="relator_bound",
                     help="highest relator index for truncated checks")
    sub.add_argument("--N", type=int, default=None, dest="depth",
                     help="certificate depth (highest z index)")
    sub.add_argument("--window-lamps", type=int, default=1,
                     help="lamp-position bound of the search window")
    sub.add_argument("--window-shift", type=int, default=1,
                     help="shift bound of the search window")
    sub.add_argument("--cap", type=int, default=DEFAULT_CAP,
                     help="enumeration cap on the window elements of ore-search, the "
                          "powers of a in a certificate's u and the lamp subgroup behind "
                          "its gamma, the subgroup closure of annihilate, and the "
                          "letters of the words of fox and relator and of the "
                          "relators that selftest differentiates")
    sub.add_argument("--seed", type=int, default=0,
                     help="seed for the randomized selftest checks")
    sub.add_argument("--format", choices=("text", "json"), default="text",
                     help="output format")
    sub.add_argument("--out", default=None, help="output file (default stdout)")


def _validate(args) -> GroupRing:
    """Check the common parameters (ConfigError, exit code 4, on the first
    bad one) and return the group ring that --mod and --d name."""
    if args.depth is not None and args.depth < 0:
        raise ConfigError(f"--N must be >= 0, got {args.depth}")
    if args.d < 2:
        raise ConfigError(f"--d must be >= 2, got {args.d}")
    if args.mod != 0 and args.mod < 2:
        raise ConfigError(f"--mod must be 0 (integers) or >= 2, got {args.mod}")
    if args.relator_bound < 0:
        raise ConfigError(f"--L must be >= 0, got {args.relator_bound}")
    if args.window_lamps < 0 or args.window_shift < 0:
        raise ConfigError("window bounds must be >= 0")
    if args.cap < 1:
        raise ConfigError(f"--cap must be >= 1, got {args.cap}")
    return GroupRing(ScalarRing(args.mod), WreathGroup(args.d))


def _emit(args, text: str) -> None:
    if args.out is None:
        sys.stdout.write(text + "\n")
        return
    try:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    except OSError as exc:
        raise ConfigError(f"cannot write --out: {exc}") from exc


_COMPACT = json.JSONEncoder(separators=(",", ": "))
_SPECIAL = np.zeros(256, dtype=bool)
_SPECIAL[list(b'"\\[]{},')] = True
_DEPTH_STEP = np.zeros(256, dtype=np.int8)
_DEPTH_STEP[list(b"[{")], _DEPTH_STEP[list(b"]}")] = 1, -1


def _dump(data) -> str:
    """``json.dumps(data, indent=2)``, byte for byte, but encoded by the C
    encoder, which ``json`` uses only without ``indent``.

    The compact text is ASCII.  A quote delimits a string unless an odd run
    of backslashes precedes it.  Outside strings, a newline and two spaces
    per depth go after each comma and non-empty opening bracket and before
    each non-empty closing bracket.  Arrays are sized by those characters,
    except one int8 mask over the output, and temporaries are dropped early,
    so the traced peak stays below the pure-Python encoder's.
    """
    text = np.frombuffer(_COMPACT.encode(data).encode("ascii"), dtype=np.uint8)
    pos = np.flatnonzero(_SPECIAL[text])
    char = text[pos]
    # Backslash runs, behind a sentinel that no quote can follow.
    slashes = np.concatenate(([-2], pos[char == ord("\\")]))
    run_start = np.where(np.diff(slashes, prepend=-4) != 1, slashes, -4)
    np.maximum.accumulate(run_start, out=run_start)
    quotes = pos[char == ord('"')]
    last = np.searchsorted(slashes, quotes) - 1
    quotes = quotes[(slashes[last] != quotes - 1) | ((quotes - run_start[last]) % 2 == 0)]
    pos = pos[(char != ord('"')) & (char != ord("\\"))]
    inside = np.searchsorted(quotes, pos)
    inside &= 1
    pos = pos[inside == 0]
    del char, inside
    step = _DEPTH_STEP[text[pos]]
    depth = np.cumsum(step, dtype=np.int64)
    empty = np.zeros(len(pos) + 1, dtype=bool)
    empty[1:-1] = (step[:-1] == 1) & (step[1:] == -1) & (np.diff(pos) == 1)
    keep = ~(empty[1:] | empty[:-1])
    # An insertion goes after a comma or an opening bracket, before a closing one.
    pos += step != -1
    pos = pos[keep]
    width = depth[keep]
    del depth, step, keep, empty
    width *= 2
    width += 1
    start = np.cumsum(width)
    start -= width
    start += pos
    del pos
    total = len(text) + int(width.sum())
    out = np.full(total, ord(" "), dtype=np.uint8)
    out[start] = ord("\n")
    original = np.zeros(total + 1, dtype=np.int8)
    original[start] = -1
    start += width
    original[start] = 1
    del start, width
    np.add.accumulate(original, dtype=np.int8, out=original)
    original += 1
    out[original[:-1].view(bool)] = text
    del original, text
    return str(out.data, "ascii")


def _cmd_mul(args) -> int:
    algebra = _validate(args)
    product = parse_ring_element(args.left, algebra) * parse_ring_element(args.right, algebra)
    _emit(args, _dump(product.to_json()) if args.format == "json" else str(product))
    return EXIT_OK


def _cmd_fox(args) -> int:
    algebra = _validate(args)
    if args.symbol not in foxwords.GENERATOR_SYMBOLS:
        raise ConfigError(f"symbol must be 'a' or 'x', got {args.symbol!r}")
    derivative = foxwords.fox_derivative(foxwords.parse_word(args.word, args.cap),
                                         args.symbol, algebra)
    _emit(args, _dump(derivative.to_json()) if args.format == "json" else str(derivative))
    return EXIT_OK


def _cmd_relator(args) -> int:
    _validate(args)
    if args.index < 0:
        raise ConfigError(f"relator index must be >= 0, got {args.index}")
    word = foxwords.relator_word(args.d, args.index, args.cap)
    payload = {"d": args.d, "index": args.index, "word": str(word)}
    _emit(args, _dump(payload) if args.format == "json" else str(word))
    return EXIT_OK


def _cmd_certify(args) -> int:
    algebra = _validate(args)
    entries = [parse_ring_element(part.strip(), algebra) for part in args.z.split(";")]
    if args.depth is not None and args.depth != len(entries) - 1:
        raise ConfigError(
            f"--N {args.depth} does not match the {len(entries)} z entries given")
    cert = certificates.certify(certificates.RelatorCoefficients(entries), cap=args.cap)
    if args.format == "json":
        _emit(args, _dump(cert.to_json()))
    else:
        status = "verified" if cert.verified else "FAILED"
        _emit(args, f"u = {cert.u}\ngamma = {cert.gamma}\n"
                    f"u*gamma = {cert.product}\n{status}")
    return EXIT_OK if cert.verified else EXIT_FAILED


def _cmd_ore_search(args) -> int:
    algebra = _validate(args)
    window = oresearch.Window(args.window_lamps, args.window_shift)
    report = oresearch.run_search(algebra, window, cap=args.cap)
    if args.format == "json":
        _emit(args, _dump(report.to_json()))
    else:
        lines = [f"window lamps<={args.window_lamps} shift<={args.window_shift}: "
                 f"{report.nullspace_dim} basis solutions, verdict {report.verdict}"]
        for rec in report.solutions:
            witness = rec.annihilator if rec.annihilator is not None else "none found"
            lines.append(f"  sigma = {rec.sigma} | in base ideal: {rec.in_base_ideal} "
                         f"| annihilator: {witness}")
        _emit(args, "\n".join(lines))
    return EXIT_OK if report.verdict == "consistent" else EXIT_FAILED


def _cmd_annihilate(args) -> int:
    algebra = _validate(args)
    alphas = [parse_ring_element(text, algebra) for text in args.elements]
    beta = certificates.finite_subgroup_annihilator(alphas, algebra, cap=args.cap)
    ok = bool(beta) and all((beta * alpha).is_zero() for alpha in alphas)
    if args.format == "json":
        _emit(args, _dump({"beta": beta.to_json(), "verified": ok}))
    else:
        _emit(args, f"beta = {beta}\n{'verified' if ok else 'FAILED'}")
    return EXIT_OK if ok else EXIT_FAILED


def _cmd_reduce_b2(args) -> int:
    algebra = _validate(args)
    vector = certificates.reduce_mod_ideal_square(parse_ring_element(args.element, algebra))
    _emit(args, _dump(vector.to_json()) if args.format == "json" else str(vector))
    return EXIT_OK


def _selftest_checks(args):
    rng = random.Random(args.seed)

    def closed_fox_forms():
        for d in (2, 3, 4, 5):
            algebra = GroupRing(ScalarRing(args.mod), WreathGroup(d))
            group = algebra.group
            a = algebra.monomial(group.generator_a(0))
            one = algebra.one
            if foxwords.fox_derivative(foxwords.relator_word(d, 0), "a",
                                       algebra) != algebra.geometric_a(d):
                return False
            for l in range(1, 6):
                xl = algebra.monomial(group.generator_x(l))
                al = algebra.monomial(group.generator_a(l))
                expected = one + a * xl - al - xl
                lhs = foxwords.fox_derivative(foxwords.relator_word(d, l), "a", algebra)
                xml = algebra.monomial(group.generator_x(-l))
                simplified = xl * (xml * a * xl - one) - (xl * a * xml - one)
                if lhs != expected or lhs != simplified:
                    return False
        return True

    def fundamental_identity():
        for modulus in (0, 2):
            algebra = GroupRing(ScalarRing(modulus), WreathGroup(args.d))
            for _ in range(25):
                comps = {l: algebra.random_element(rng, terms=2, lamp_bound=1, shift_bound=1)
                         for l in rng.sample(range(args.relator_bound + 1), 2)}
                z = foxwords.ModuleVector(algebra, "relators", comps)
                image = foxwords.boundary_from_relators(z, args.cap)
                if not foxwords.boundary_from_generators(image).is_zero():
                    return False
        return True

    def sample_certificates():
        for d in (2, 3):
            for modulus in (0, 4, 2, 3):
                algebra = GroupRing(ScalarRing(modulus), WreathGroup(d))
                for _ in range(5):
                    depth = rng.randint(0, 2)
                    entries = [algebra.random_element(rng, terms=2, lamp_bound=1,
                                                      shift_bound=1)
                               for _ in range(depth + 1)]
                    cert = certificates.certify(
                        certificates.RelatorCoefficients(entries), cap=args.cap)
                    if not cert.verified:
                        return False
        return True

    return [("closed-fox-forms", closed_fox_forms),
            ("fundamental-identity", fundamental_identity),
            ("sample-certificates", sample_certificates)]


def _cmd_selftest(args) -> int:
    _validate(args)
    lines = []
    all_ok = True
    for name, check in _selftest_checks(args):
        ok = check()
        all_ok = all_ok and ok
        lines.append(f"{'ok' if ok else 'FAIL'}: {name}")
    lines.append("selftest passed" if all_ok else "selftest FAILED")
    _emit(args, "\n".join(lines))
    return EXIT_OK if all_ok else EXIT_FAILED


@functools.lru_cache(maxsize=1)
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process and shared: do not modify it."""
    parser = _Parser(prog="lamplighter",
                     description="Exact group-ring computation in Z/dZ wr Z: "
                                 "products, Fox derivatives, zerodivisor "
                                 "certificates and Ore-condition window searches.")
    subs = parser.add_subparsers(dest="command", required=True)

    sub = subs.add_parser("mul", help="multiply two group-ring elements exactly")
    sub.add_argument("left")
    sub.add_argument("right")
    _add_common(sub)
    sub.set_defaults(handler=_cmd_mul)

    sub = subs.add_parser("fox", help="Fox derivative of a word w.r.t. 'a' or 'x'")
    sub.add_argument("word")
    sub.add_argument("symbol")
    _add_common(sub)
    sub.set_defaults(handler=_cmd_fox)

    sub = subs.add_parser("relator", help="print the defining relator r_l")
    sub.add_argument("index", type=int)
    _add_common(sub)
    sub.set_defaults(handler=_cmd_relator)

    sub = subs.add_parser("certify",
                          help="build and verify a zerodivisor certificate from "
                               "';'-separated z entries")
    sub.add_argument("--z", required=True,
                     help="z_0;z_1;...;z_N as group-ring elements")
    _add_common(sub)
    sub.set_defaults(handler=_cmd_certify)

    sub = subs.add_parser("ore-search",
                          help="solve (1-a) sigma = (1-x) alpha on a window over GF(p)")
    _add_common(sub)
    sub.set_defaults(handler=_cmd_ore_search)

    sub = subs.add_parser("annihilate",
                          help="finite-subgroup annihilator of base-ideal elements")
    sub.add_argument("elements", nargs="+")
    _add_common(sub)
    sub.set_defaults(handler=_cmd_annihilate)

    sub = subs.add_parser("reduce-b2",
                          help="lamp-exponent reduction of an augmentation-zero "
                               "base element (GF(p), d = p)")
    sub.add_argument("element")
    _add_common(sub)
    sub.set_defaults(handler=_cmd_reduce_b2)

    sub = subs.add_parser("selftest", help="run the built-in verification checks")
    _add_common(sub)
    sub.set_defaults(handler=_cmd_selftest)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.handler(args)
    except ParseError as exc:
        sys.stderr.write(f"parse error: {exc}\n")
        return EXIT_PARSE
    except LimitExceededError as exc:
        sys.stderr.write(f"limit exceeded: {exc}\n")
        return EXIT_LIMIT
    except (ConfigError, UnsupportedRingError) as exc:
        sys.stderr.write(f"invalid configuration: {exc}\n")
        return EXIT_CONFIG
    except (NotInAugmentationIdealError, SupportError) as exc:
        sys.stderr.write(f"verification failed: {exc}\n")
        return EXIT_FAILED
    except LamplighterError as exc:
        # Everything the outside input can cause is caught above.
        sys.stderr.write(f"internal error: {exc}\n")
        return EXIT_INTERNAL


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
