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
import itertools
import json
import random
import sys
from json.encoder import encode_basestring_ascii

from . import certificates, foxwords, oresearch
from .errors import (ConfigError, LamplighterError, LimitExceededError,
                     NotInAugmentationIdealError, ParseError, SupportError,
                     UnsupportedRingError)
from .groupring import GroupRing, TermRecords
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


# The arguments of every subcommand, as add_argument keywords.
_ARGUMENTS = {
    "left": {}, "right": {}, "word": {}, "symbol": {}, "index": {"type": int},
    "elements": {"nargs": "+"}, "element": {},
    "--z": {"required": True, "help": "z_0;z_1;...;z_N as group-ring elements"},
    "--d": {"type": int, "default": 2, "help": "lamp order d >= 2"},
    "--mod": {"type": int, "default": 0,
              "help": "coefficient modulus; 0 means the integers.  ore-search and "
                      "reduce-b2 need a provable prime (reduce-b2 also --mod equal to --d)"},
    "--L": {"type": int, "default": 6, "help": "highest relator index for truncated checks"},
    "--window-lamps": {"type": int, "default": 1,
                       "help": "lamp-position bound of the search window"},
    "--window-shift": {"type": int, "default": 1, "help": "shift bound of the search window"},
    "--cap": {"type": int, "default": DEFAULT_CAP,
              "help": "enumeration cap on the window elements of ore-search, the lamp "
                      "subgroup behind a certificate's gamma, the subgroup closure of "
                      "annihilate, and the letters of the words of fox and relator, of "
                      "each relator r_l with z_l != 0 that certify reads its u from, and "
                      "of the relators that selftest differentiates"},
    "--seed": {"type": int, "default": 0, "help": "seed for the randomized selftest checks"},
    "--format": {"choices": ("text", "json"), "default": "text", "help": "output format"},
    "--out": {"help": "output file (default stdout)"},
}
# The least value of each integer flag; --mod also takes 0, the integers.
_LEAST = {"--d": 2, "--mod": 2, "--L": 0, "--window-lamps": 0, "--window-shift": 0,
          "--cap": 1}


def _refuse_unread_flags(argv) -> None:
    """Refuse (ConfigError, exit code 4) the first ``--flag`` before a lone
    ``--`` that subcommand ``argv[0]`` does not read; argparse may take its
    value as a positional first and name that.  As in argparse, a prefix of
    a read flag is that flag and a token with a space is a value."""
    if not argv or argv[0] not in _COMMANDS:
        return
    flags = _COMMANDS[argv[0]][2].split() + ["--help"]
    for token in itertools.takewhile(lambda arg: arg != "--", argv[1:]):
        flag = token.split("=", 1)[0]
        if token.startswith("--") and " " not in token and \
                not any(known.startswith(flag) for known in flags):
            raise ConfigError(f"unrecognized arguments: {flag}")


def _validate(args) -> None:
    """Refuse (ConfigError, exit code 4) the first integer flag of the
    subcommand below its least value."""
    for flag, least in _LEAST.items():
        value = getattr(args, flag[2:].replace("-", "_"), least)
        if value < least and not (flag == "--mod" and value == 0):
            rule = "0 (integers) or >= 2" if flag == "--mod" else f">= {least}"
            raise ConfigError(f"{flag} must be {rule}, got {value}")


def _algebra(args) -> GroupRing:
    """The group ring that --mod and --d name."""
    return GroupRing(ScalarRing(args.mod), WreathGroup(args.d))


def _emit(args, render) -> None:
    """Write ``render()`` to --out or stdout.  An integer too long for
    ``str`` (more than ``sys.get_int_max_str_digits()`` digits) is a limit,
    refused before anything is written."""
    try:
        text = render()
    except ValueError as exc:
        raise LimitExceededError(f"cannot print the result: {exc}") from exc
    if args.out is None:
        sys.stdout.write(text + "\n")
        return
    try:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    except OSError as exc:
        raise ConfigError(f"cannot write --out: {exc}") from exc


# What json.dumps writes for a leaf of exactly these types; others go to it.
_LEAVES = {str: encode_basestring_ascii, int: int.__repr__, type(None): lambda _: "null",
           bool: lambda flag: "true" if flag else "false"}


def _dump(data, depth: int = 0) -> str:
    """``json.dumps(data, indent=2)``, byte for byte, for ``data`` nested
    ``depth`` levels deep.

    Term records (:class:`~lamplighter.groupring.TermRecords`) render
    themselves from one template per depth.  Dicts, lists and tuples are
    walked here; keys and leaves are written as ``json.dumps`` writes
    them, so any data ``json`` accepts comes out as it would from it.  With
    ``indent``, ``json`` runs its pure-Python encoder, about 7x slower on
    the rank-7 annihilator.
    """
    if isinstance(data, TermRecords):
        return data.indented(depth)
    if isinstance(data, dict):
        # json.dumps({key: 0}) is '{"key": 0}': json's own key conversion and refusal.
        parts = [(encode_basestring_ascii(key) + ": " if type(key) is str
                  else json.dumps({key: 0})[1:-2]) + _dump(value, depth + 1)
                 for key, value in data.items()]
        brackets = "{}"
    elif isinstance(data, (list, tuple)):
        parts = [_dump(item, depth + 1) for item in data]
        brackets = "[]"
    else:
        return _LEAVES.get(type(data), json.dumps)(data)
    if not parts:
        return brackets
    inner = "\n" + "  " * (depth + 1)
    return brackets[0] + inner + ("," + inner).join(parts) + inner[:-2] + brackets[1]


def _cmd_mul(args) -> int:
    algebra = _algebra(args)
    product = parse_ring_element(args.left, algebra) * parse_ring_element(args.right, algebra)
    _emit(args, lambda: _dump(product.to_json()) if args.format == "json" else str(product))
    return EXIT_OK


def _cmd_fox(args) -> int:
    algebra = _algebra(args)
    if args.symbol not in foxwords.GENERATOR_SYMBOLS:
        raise ConfigError(f"symbol must be 'a' or 'x', got {args.symbol!r}")
    derivative = foxwords.fox_derivative(foxwords.parse_word(args.word, args.cap),
                                         args.symbol, algebra)
    _emit(args, lambda: _dump(derivative.to_json()) if args.format == "json"
          else str(derivative))
    return EXIT_OK


def _cmd_relator(args) -> int:
    if args.index < 0:
        raise ConfigError(f"relator index must be >= 0, got {args.index}")
    word = foxwords.relator_word(args.d, args.index, args.cap)
    payload = {"d": args.d, "index": args.index, "word": str(word)}
    _emit(args, lambda: _dump(payload) if args.format == "json" else str(word))
    return EXIT_OK


def _cmd_certify(args) -> int:
    algebra = _algebra(args)
    entries = [parse_ring_element(part.strip(), algebra) for part in args.z.split(";")]
    cert = certificates.certify(certificates.RelatorCoefficients(entries), cap=args.cap)
    status = "verified" if cert.verified else "FAILED"
    _emit(args, lambda: _dump(cert.to_json()) if args.format == "json" else
          f"u = {cert.u}\ngamma = {cert.gamma}\nu*gamma = {cert.product}\n{status}")
    return EXIT_OK if cert.verified else EXIT_FAILED


def _ore_search_text(args, report) -> str:
    lines = [f"window lamps<={args.window_lamps} shift<={args.window_shift}: "
             f"{report.nullspace_dim} basis solutions, verdict {report.verdict}"]
    for rec in report.solutions:
        witness = rec.annihilator if rec.annihilator is not None else "none found"
        lines.append(f"  sigma = {rec.sigma} | in base ideal: {rec.in_base_ideal} "
                     f"| annihilator: {witness}")
    return "\n".join(lines)


def _cmd_ore_search(args) -> int:
    algebra = _algebra(args)
    window = oresearch.Window(args.window_lamps, args.window_shift)
    report = oresearch.run_search(algebra, window, cap=args.cap)
    _emit(args, lambda: _dump(report.to_json()) if args.format == "json"
          else _ore_search_text(args, report))
    return EXIT_OK if report.verdict == "consistent" else EXIT_FAILED


def _cmd_annihilate(args) -> int:
    algebra = _algebra(args)
    alphas = [parse_ring_element(text, algebra) for text in args.elements]
    beta = certificates.finite_subgroup_annihilator(alphas, algebra, cap=args.cap)
    ok = bool(beta) and all((beta * alpha).is_zero() for alpha in alphas)
    _emit(args, lambda: _dump({"beta": beta.to_json(), "verified": ok})
          if args.format == "json" else f"beta = {beta}\n{'verified' if ok else 'FAILED'}")
    return EXIT_OK if ok else EXIT_FAILED


def _cmd_reduce_b2(args) -> int:
    algebra = _algebra(args)
    vector = certificates.reduce_mod_ideal_square(parse_ring_element(args.element, algebra))
    _emit(args, lambda: _dump(vector.to_json()) if args.format == "json" else str(vector))
    return EXIT_OK


def _selftest_checks(args):
    rng = random.Random(args.seed)

    def closed_fox_forms():
        # The cached table that certify's u is read from, under --cap.
        for d in (2, 3, 4, 5):
            algebra = GroupRing(ScalarRing(args.mod), WreathGroup(d))
            group = algebra.group
            a = algebra.monomial(group.generator_a(0))
            one = algebra.one
            if foxwords.relator_fox_derivative(algebra, 0, "a",
                                               args.cap) != algebra.geometric_a(d):
                return False
            for l in range(1, 6):
                xl = algebra.monomial(group.generator_x(l))
                al = algebra.monomial(group.generator_a(l))
                if foxwords.relator_fox_derivative(algebra, l, "a",
                                                   args.cap) != one + a * xl - al - xl:
                    return False
        return True

    def fundamental_identity():
        for modulus in (0, 2):
            algebra = GroupRing(ScalarRing(modulus), WreathGroup(args.d))
            for _ in range(25):
                comps = {l: algebra.random_element(rng, terms=2, lamp_bound=1, shift_bound=1)
                         for l in rng.sample(range(args.L + 1), min(2, args.L + 1))}
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
    lines = []
    all_ok = True
    for name, check in _selftest_checks(args):
        ok = check()
        all_ok = all_ok and ok
        lines.append(f"{'ok' if ok else 'FAIL'}: {name}")
    lines.append("selftest passed" if all_ok else "selftest FAILED")
    _emit(args, lambda: "\n".join(lines))
    return EXIT_OK if all_ok else EXIT_FAILED


# Each subcommand: its handler, its help and the arguments its handler reads.
_COMMANDS = {
    "mul": (_cmd_mul, "multiply two group-ring elements exactly",
            "left right --d --mod --format --out"),
    "fox": (_cmd_fox, "Fox derivative of a word w.r.t. 'a' or 'x'",
            "word symbol --d --mod --cap --format --out"),
    "relator": (_cmd_relator, "print the defining relator r_l",
                "index --d --cap --format --out"),
    "certify": (_cmd_certify, "build and verify a zerodivisor certificate from "
                              "';'-separated z entries",
                "--z --d --mod --cap --format --out"),
    "ore-search": (_cmd_ore_search, "solve (1-a) sigma = (1-x) alpha on a window over GF(p)",
                   "--d --mod --window-lamps --window-shift --cap --format --out"),
    "annihilate": (_cmd_annihilate, "finite-subgroup annihilator of base-ideal elements",
                   "elements --d --mod --cap --format --out"),
    "reduce-b2": (_cmd_reduce_b2, "lamp-exponent reduction of an augmentation-zero "
                                  "base element (GF(p), d = p)",
                  "element --d --mod --format --out"),
    "selftest": (_cmd_selftest, "run the built-in verification checks",
                 "--d --mod --L --cap --seed --out"),
}


@functools.lru_cache(maxsize=1)
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process and shared: do not modify it."""
    parser = _Parser(prog="lamplighter",
                     description="Exact group-ring computation in Z/dZ wr Z: "
                                 "products, Fox derivatives, zerodivisor "
                                 "certificates and Ore-condition window searches.")
    subs = parser.add_subparsers(dest="command", required=True)
    for name, (handler, help_text, arguments) in _COMMANDS.items():
        sub = subs.add_parser(name, help=help_text)
        for argument in arguments.split():
            sub.add_argument(argument, **_ARGUMENTS[argument])
        sub.set_defaults(handler=handler)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        _refuse_unread_flags(sys.argv[1:] if argv is None else argv)
        args = parser.parse_args(argv)
        _validate(args)
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
