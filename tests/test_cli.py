import argparse
import hashlib
import json
import random
import re
import shlex
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import random_ring_element, time_limit
from lamplighter import oresearch
from lamplighter.certificates import (RelatorCoefficients, certify,
                                      finite_subgroup_annihilator)
from lamplighter.cli import _dump, build_parser, main
from lamplighter.groupring import GroupRing
from lamplighter.ring import ScalarRing
from lamplighter.wreath import WreathGroup


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_readme_command_examples(capsys, tmp_path, monkeypatch):
    text = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = text.split("## Command line", 1)[1].split("```")[1]
    lines = [line for line in block.splitlines() if line.strip()]
    assert lines
    monkeypatch.chdir(tmp_path)                  # certify --out writes cert.json here
    for line in lines:
        command, marked, expected = line.partition("# -> ")
        program, *argv = shlex.split(command)
        assert program == "lamplighter"
        code, out, err = run_cli(capsys, *argv)
        assert code == 0, (line, err)
        if marked:
            assert out == expected.strip() + "\n", line


def test_fox_command(capsys):
    code, out, _ = run_cli(capsys, "fox", "--d", "3", "a^3", "a")
    assert code == 0
    assert out.strip() == "1 + a[0] + a[0]^2"


def test_mul_command(capsys):
    code, out, _ = run_cli(capsys, "mul", "--d", "2", "--mod", "2",
                           "1 - a[0]", "1 + a[0]")
    assert code == 0
    assert out.strip() == "0"


def test_mul_json(capsys):
    code, out, _ = run_cli(capsys, "mul", "--d", "2", "--format", "json",
                           "x", "a[0]")
    assert code == 0
    assert json.loads(out) == [{"coeff": 1, "lamps": [[1, 1]], "shift": 1}]


def test_relator_command(capsys):
    code, out, _ = run_cli(capsys, "relator", "--d", "2", "1")
    assert code == 0
    assert out.strip() == "a*x*a*x^-1*a^-1*x*a^-1*x^-1"


def test_certify_command(capsys):
    code, out, _ = run_cli(capsys, "certify", "--d", "2", "--mod", "0",
                           "--z", "0;1", "--format", "json")
    assert code == 0
    cert = json.loads(out)
    assert cert["verified"] is True
    assert cert["d"] == 2 and cert["k"] == 0 and cert["N"] == 1
    assert cert["product"] == []


def test_ore_search_command(capsys):
    code, out, _ = run_cli(capsys, "ore-search", "--d", "2", "--mod", "2",
                           "--window-lamps", "1", "--window-shift", "1",
                           "--format", "json")
    assert code == 0
    report = json.loads(out)
    assert report["verdict"] == "consistent"
    assert report["nullspace_dim"] == len(report["solutions"])


def test_ore_search_needs_prime_modulus(capsys):
    code, _, err = run_cli(capsys, "ore-search", "--d", "2", "--mod", "4")
    assert code == 4
    assert "prime" in err


def test_ore_search_refuses_primes_past_int64_elimination(capsys):
    # Only primes that is_prime cannot prove are refused, before the window
    # is enumerated: window (30, 1) would exceed the cap (2^89 - 1 is prime).
    code, out, err = run_cli(capsys, "ore-search", "--d", "2", "--mod", str(2 ** 89 - 1),
                             "--window-lamps", "30")
    assert (code, out) == (4, "")
    assert err == (f"invalid configuration: cannot prove {2 ** 89 - 1} prime: Miller-Rabin "
                   "is exact only below 3317044064679887385961981\n")
    for p in ("3037000507", str(2 ** 64 - 59)):
        code, out, _ = run_cli(capsys, "ore-search", "--d", "2", "--mod", p)
        assert code == 0
        assert out.startswith("window lamps<=1 shift<=1: 14 basis solutions, "
                              "verdict consistent\n")


def test_refused_moduli_exit_4_before_enumeration(capsys):
    # A composite and the integers, each refused by the library's own check
    # with empty stdout (an unprovable prime is above); window (30, 1) would
    # exit 3 if the check came after enumeration.
    for mod in ("4", "0"):
        code, out, err = run_cli(capsys, "ore-search", "--mod", mod, "--window-lamps", "30")
        assert (code, out, err) == (4, "", "invalid configuration: linear algebra needs a "
                                           f"prime modulus, got {mod}\n")
    for argv in (("--d", "3", "--mod", "2"), ("--mod", "0")):
        code, out, err = run_cli(capsys, "reduce-b2", *argv, "1 - a[0]")
        assert (code, out) == (4, "")
        assert err.startswith("invalid configuration: reduction needs GF(p) coefficients")


def test_annihilate_command(capsys):
    code, out, _ = run_cli(capsys, "annihilate", "--d", "2", "1 - a[0]")
    assert code == 0
    assert "beta = 1 + a[0]" in out
    assert "verified" in out


def test_annihilate_rejects_non_ideal_input(capsys):
    code, _, err = run_cli(capsys, "annihilate", "--d", "2", "1 + a[0]")
    assert code == 1
    assert "verification failed" in err
    # The slice sum is printed as a value of the coefficient ring: 1 + 1 + 2 = 4 is 1 in GF(3).
    code, _, err = run_cli(capsys, "annihilate", "--d", "3", "--mod", "3",
                           "1 - a[1]", "x + a[0]*x + 2*a[1]*x")
    assert code == 1
    assert err == "verification failed: input 1: shift-1 slice has coefficient sum 1 != 0\n"


def test_reduce_b2_command(capsys):
    code, out, _ = run_cli(capsys, "reduce-b2", "--d", "3", "--mod", "3",
                           "1 - a[-2]")
    assert code == 0
    assert out.strip() == "2*e[-2]"


def test_reduce_b2_requires_matching_modulus(capsys):
    code, _, _ = run_cli(capsys, "reduce-b2", "--d", "2", "--mod", "3", "1 - a[0]")
    assert code == 4


def test_parse_error_exit_code(capsys):
    code, _, err = run_cli(capsys, "mul", "--d", "2", "1 - a[0", "1")
    assert code == 2
    assert "parse error" in err
    # non-ASCII digits and literals too long to convert are parse errors too
    for argv in (["mul", "a^\u00b2", "e"], ["mul", "a^" + "9" * 5000, "e"],
                 ["fox", "x^\u0663", "a"]):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.startswith("parse error: ") and err.endswith("(at position 2)\n")


def test_limit_exit_code(capsys):
    code, _, err = run_cli(capsys, "certify", "--d", "3", "--cap", "10",
                           "--z", "0;0;0;1")
    assert code == 3
    assert "limit" in err


def test_annihilate_cap_bounds_a_huge_lamp_order(capsys):
    # a[0] has order 10^12 in the base group; the closure refuses at the cap
    # instead of first finding that order.
    code, out, err = run_cli(capsys, "annihilate", "--d", str(10 ** 12), "--cap", "5", "a[0] - 1")
    assert (code, out) == (3, "")
    assert err == "limit exceeded: subgroup closure exceeds the cap 5\n"


def test_certify_cap_bounds_the_powers_of_a_in_u(capsys):
    # u starts with z_0 dr_0/da = z_0 (1 + a + ... + a^(d-1)): r_0 = a^d is
    # counted against the cap before it is spelled out, and only when
    # z_0 != 0.
    with time_limit(0.9):
        code, out, err = run_cli(capsys, "certify", "--d", str(10 ** 12), "--z", "1")
        assert (code, out) == (3, "")
        assert err == ("limit exceeded: a word of 1000000000000 letters "
                       "exceeds the cap 1000000\n")
        assert run_cli(capsys, "certify", "--d", str(10 ** 12), "--z", "0")[0] == 0
        assert run_cli(capsys, "certify", "--d", "5", "--cap", "4", "--z", "1")[0] == 3
        assert run_cli(capsys, "certify", "--d", "5", "--cap", "5", "--z", "1")[0] == 0


@pytest.mark.parametrize("cap,code,err", [
    ("3", 3, "limit exceeded: enumeration of 4 elements exceeds the cap 3\n"),
    ("7", 3, "limit exceeded: a word of 8 letters exceeds the cap 7\n"),
    ("8", 0, "")])
def test_certify_cap_bounds_the_lamp_subgroup_then_the_relators(capsys, cap, code, err):
    # gamma's 2^2 subgroup members are counted first, then the 8 letters
    # of r_1 = [a, x a x^-1], which u reads since z_1 != 0.
    got = run_cli(capsys, "certify", "--d", "2", "--z", "0;1", "--cap", cap)
    assert (got[0], got[2]) == (code, err)
    assert bool(got[1]) == (code == 0)


@pytest.mark.parametrize("option,size,count", [
    ("--window-lamps", 2000, 1572864), ("--window-lamps", 10 ** 6, 1572864),
    ("--window-lamps", 10 ** 18, 1572864), ("--window-lamps", 10 ** 19, 1572864),
    ("--window-shift", 10 ** 19, 1000001)],
    ids=["2000", "1000000", "1000000000000000000", "10000000000000000000", "shift"])
def test_ore_search_refuses_a_huge_window_at_once(capsys, option, size, count):
    # d^(2L+1) * (2S+1) is multiplied toward the cap and refused once it
    # passes: it is never formed in full (at 10^6 it has 600,000 digits),
    # and neither the 2L + 1 positions nor the 2S + 1 shifts are counted
    # with len (at 10^19 that overflows): the positions are read lazily,
    # the shifts only as far as cap + 1.
    with time_limit(0.9):
        code, out, err = run_cli(capsys, "ore-search", "--mod", "2", "--d", "2",
                                 option, str(size))
    assert (code, out) == (3, "")
    assert err == f"limit exceeded: enumeration of at least {count} elements " \
        "exceeds the cap 1000000\n"


def test_fox_and_relator_cap_bounds_the_letters_of_a_word(capsys):
    # w^k, [u, v] and r_l are counted against the cap before they are
    # spelled out, so a word of 10^12 letters is refused at once.
    with time_limit(0.9):
        for word, code in (("a^10", 0), ("a^11", 3), ("(a*x)^6", 3), ("a^5 a^5", 0),
                           ("a^5 a^6", 3), ("[[a,x],x]", 0), ("[[a,x],x^2]", 3)):
            assert run_cli(capsys, "fox", "--cap", "10", word, "a")[0] == code, word
        code, out, err = run_cli(capsys, "fox", "--d", "2", "(a^1000)^1000000000", "a")
        assert (code, out) == (3, "")
        assert err == ("limit exceeded: a word of 1000000000000 letters "
                       "exceeds the cap 1000000\n")
        assert run_cli(capsys, "relator", "--d", "2", "1000000000")[:2] == (3, "")
        assert run_cli(capsys, "relator", "--d", "11", "--cap", "10", "0")[0] == 3
        assert run_cli(capsys, "relator", "--d", "2", "--cap", "8", "1") == \
            (0, "a*x*a*x^-1*a^-1*x*a^-1*x^-1\n", "")


def test_invalid_config_exit_code(capsys):
    code, _, _ = run_cli(capsys, "mul", "--d", "1", "e", "e")
    assert code == 4
    code, _, _ = run_cli(capsys, "fox", "--d", "2", "a", "q")
    assert code == 4
    code, _, _ = run_cli(capsys, "mul", "--nope", "e", "e")
    assert code == 4


# The flags each subcommand reads, and the arguments it runs on.
COMMAND_FLAGS = {
    "mul": (["e", "a"], "--d --mod --format --out"),
    "fox": (["a", "a"], "--d --mod --cap --format --out"),
    "relator": (["1"], "--d --cap --format --out"),
    "certify": (["--z", "0;1"], "--z --d --mod --cap --format --out"),
    "ore-search": (["--mod", "2"], "--d --mod --window-lamps --window-shift --cap --format --out"),
    "annihilate": (["1 - a[0]"], "--d --mod --cap --format --out"),
    "reduce-b2": (["--mod", "2", "1 - a[0]"], "--d --mod --format --out"),
    "selftest": ([], "--d --mod --L --cap --seed --out"),
}
# A valid value of each flag for every subcommand above (--out gets a path).
FLAG_VALUES = {"--z": "0", "--d": "2", "--mod": "2", "--L": "3", "--N": "1",
               "--window-lamps": "0", "--window-shift": "0", "--cap": "1000",
               "--seed": "5", "--format": "json", "--out": None}


def _subparsers():
    parser = build_parser()
    return next(action.choices for action in parser._actions
                if isinstance(action, argparse._SubParsersAction))


def _parser_flags(sub):
    return {flag for action in sub._actions for flag in action.option_strings} - {"-h", "--help"}


@pytest.mark.parametrize("command", COMMAND_FLAGS)
def test_each_subcommand_takes_only_the_flags_it_reads(capsys, tmp_path, command):
    args, flags = COMMAND_FLAGS[command]
    flags = flags.split()
    assert _parser_flags(_subparsers()[command]) == set(flags)
    target = tmp_path / "out.txt"
    values = {**FLAG_VALUES, "--out": str(target)}
    argv = [command, *args]
    for flag in flags:
        argv += [flag, values[flag]]
    assert run_cli(capsys, *argv)[:2] == (0, "")
    assert target.read_text()
    target.unlink()
    for flag in sorted(set(values) - set(flags)):
        code, out, err = run_cli(capsys, command, *args, flag, values[flag])
        assert (code, out) == (4, ""), flag
        assert err.startswith("invalid configuration: unrecognized arguments: " + flag), flag
        assert not target.exists()


def test_an_unread_flag_is_named_without_its_value(capsys):
    # argparse alone takes 7 as the relator index and then names
    # "--mod 3", or fails on "x" as the index.
    for value in (["7"], ["x"], []):
        for argv in (["relator", "--mod", *value, "3"], ["relator", "3", "--mod", *value]):
            assert run_cli(capsys, *argv) == \
                (4, "", "invalid configuration: unrecognized arguments: --mod\n"), argv
    assert run_cli(capsys, "relator", "--mod=7", "3")[::2] == \
        (4, "invalid configuration: unrecognized arguments: --mod\n")
    # A prefix of a flag the subcommand reads is that flag, as in argparse.
    assert run_cli(capsys, "relator", "--form", "json", "3")[0] == 0
    # After a lone --, every token is an argument: here an element.
    code, out, err = run_cli(capsys, "mul", "--", "--mod", "e")
    assert (code, out) == (2, "") and err.startswith("parse error: ")


def test_readme_lists_the_flags_of_each_subcommand():
    text = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    section = text.split("## Command line", 1)[1].split("\n## ", 1)[0]
    listed = {row[0]: set(re.findall(r"`(--[\w-]+)`", row[1]))
              for row in re.findall(r"^\| `([a-z0-9-]+)` \|(.*)\|$", section, re.MULTILINE)}
    assert listed == {name: _parser_flags(sub) for name, sub in _subparsers().items()}


def test_selftest_with_one_relator(capsys):
    # --L 0 leaves only r_0 for the fundamental identity check to sample.
    code, out, _ = run_cli(capsys, "selftest", "--L", "0")
    assert (code, out.splitlines()[-1]) == (0, "selftest passed")
    assert run_cli(capsys, "selftest", "--L", "-1")[:2] == (4, "")


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_a_result_too_long_to_print_is_a_limit(capsys, tmp_path, fmt):
    # The square of 4,000 nines has 8,000 digits, past Python's int-to-str limit.
    nines = "9" * 4000
    target = tmp_path / "product.txt"
    for out_flag in ([], ["--out", str(target)]):
        code, out, err = run_cli(capsys, "mul", "--format", fmt, *out_flag, nines, nines)
        assert (code, out) == (3, "")
        assert err.startswith("limit exceeded: ") and "4300 digits" in err
    assert not target.exists()


def test_selftest(capsys):
    code, out, _ = run_cli(capsys, "selftest", "--seed", "0")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[-1] == "selftest passed"
    assert all(line.startswith("ok: ") for line in lines[:-1])


def test_selftest_spells_relators_under_the_cap(capsys):
    # Every relator of d = 5 has at least 5 letters, so the fundamental
    # identity check refuses them under --cap 4.
    code, out, err = run_cli(capsys, "selftest", "--d", "5", "--cap", "4")
    assert (code, out) == (3, "")
    assert err.startswith("limit exceeded: a word of ") and err.endswith(" exceeds the cap 4\n")
    assert run_cli(capsys, "selftest", "--d", "5", "--cap", "100")[0] == 0


def test_byte_identical_reruns(capsys):
    first = run_cli(capsys, "ore-search", "--d", "2", "--mod", "2",
                    "--window-lamps", "1", "--window-shift", "0",
                    "--format", "json")
    second = run_cli(capsys, "ore-search", "--d", "2", "--mod", "2",
                     "--window-lamps", "1", "--window-shift", "0",
                     "--format", "json")
    assert first == second
    third = run_cli(capsys, "selftest", "--seed", "7")
    fourth = run_cli(capsys, "selftest", "--seed", "7")
    assert third == fourth


def test_out_file(tmp_path, capsys):
    target = tmp_path / "product.json"
    code, out, _ = run_cli(capsys, "mul", "--d", "2", "--format", "json",
                           "--out", str(target), "a[0]", "a[0]")
    assert code == 0
    assert out == ""
    # a[0] squared is the identity when d = 2
    assert json.loads(target.read_text()) == [{"coeff": 1, "lamps": [], "shift": 0}]


def test_out_to_an_unwritable_path_is_config_error(tmp_path, capsys):
    target = tmp_path / "missing" / "x.json"
    code, out, err = run_cli(capsys, "mul", "a[0]", "x", "--out", str(target))
    assert (code, out) == (4, "")
    assert err.startswith("invalid configuration: cannot write --out: ")
    assert err.count("\n") == 1 and str(target) in err


def test_huge_modulus_is_not_tested_for_primality(capsys):
    # is_prime cannot prove 2^127 - 1 prime: mul never asks whether the ring
    # is a field, and reduce-b2 refuses the modulus at that question.
    m = str(2 ** 127 - 1)
    with time_limit(0.9):
        assert run_cli(capsys, "mul", "--mod", m, "e", "e") == (0, "1\n", "")
        code, out, err = run_cli(capsys, "reduce-b2", "--d", m, "--mod", m, "1 - a[0]")
    assert (code, out) == (4, "")
    assert err == (f"invalid configuration: cannot prove {m} prime: Miller-Rabin is exact "
                   "only below 3317044064679887385961981\n")


def test_certify_writes_certificate_file(tmp_path, capsys):
    target = tmp_path / "cert.json"
    code, _, _ = run_cli(capsys, "certify", "--d", "2", "--mod", "2",
                         "--z", "x; 1 + a[0]", "--format", "json",
                         "--out", str(target))
    assert code == 0
    from lamplighter.certificates import Certificate
    cert = Certificate.from_json(json.loads(target.read_text()))
    assert cert.verified
    assert (cert.u * cert.gamma).is_zero()


GOLDEN_ARGV = {
    "mul": ["mul", "--d", "2", "--mod", "0", "1 - a[0] + 2*x", "a[1]*x^-1 - 3"],
    "fox": ["fox", "--d", "3", "--mod", "3", "[a, x^2 a x^-2]", "a"],
    "relator": ["relator", "--d", "3", "2"],
    "certify": ["certify", "--d", "2", "--mod", "4", "--z", "x; 1 + a[0]; a[1] - x^-1"],
    "ore-search": ["ore-search", "--d", "2", "--mod", "2", "--window-lamps", "1",
                   "--window-shift", "1"],
    "ore-search-d-ne-p": ["ore-search", "--d", "2", "--mod", "3", "--window-lamps", "1",
                          "--window-shift", "0"],
    "annihilate": ["annihilate", "--d", "3", "--mod", "3", "1 - a[0]", "x - a[1]*x"],
    "annihilate-not-in-ideal": ["annihilate", "--d", "2", "1 + a[0]"],
    "reduce-b2": ["reduce-b2", "--d", "3", "--mod", "3", "1 - a[-2] + a[1]^2 - a[0]"],
    "selftest": ["selftest", "--seed", "3"],
    "parse-error": ["mul", "--d", "2", "1 - a[0", "1"],
    "limit-exceeded": ["certify", "--d", "3", "--cap", "10", "--z", "0;0;0;1"],
    "window-cap-exceeded": ["ore-search", "--d", "2", "--mod", "2", "--cap", "10"],
    "closure-cap-exceeded": ["annihilate", "--d", "2", "--cap", "3", "1 - a[0]", "1 - a[1]"],
    "negative-depth": ["certify", "--N", "-1", "--z", "0"],
    "invalid-config": ["ore-search", "--d", "2", "--mod", "4"],
    # Products of at least groupring.CODED_PRODUCT_PAIRS pairs: u * gamma
    # (19 x 162, cancels) and a 24 x 24 product that does not cancel.
    "certify-large": ["certify", "--d", "3", "--mod", "0",
                      "--z", "1 - a[1]*x; x^-1 + 2*a[-1]; a[2] - 3*x^2"],
    # Closures of annihilate: a generator of coset order 2 in Z/4 (a[1]^2
    # after a[0]*a[1]), and a GF(3) closure of rank 5 (243 members).
    "annihilate-coset-order-2": ["annihilate", "--d", "4", "--mod", "0",
                                 "a[0]*a[1] - 1", "a[1]^2 - 1"],
    "annihilate-gf3-rank-5": ["annihilate", "--d", "3", "--mod", "3", "a[0] + a[1]*a[2]^2 - 2",
                              "a[3]*x - a[-1]*a[4]*x", "a[-2]^2 - 1"],
    "mul-large": ["mul", "--d", "3", "--mod", "5",
                  " + ".join(f"{i % 4 + 1}*a[{i % 5}]*x^{i}" for i in range(24)),
                  " - ".join(f"a[{-i}]^2*x^-{i % 7}" for i in range(24))],
}

# (case, format, exit code, sha256 of stdout).  Stdout and exit codes are
# part of the interface: a change that alters them on purpose updates
# these values and says so.
GOLDEN = [
    ("mul", "text", 0, "df815c54f792b6538d34bb7593b201cb23fe56fe50854b0ffe099d9f045e005e"),
    ("mul", "json", 0, "a3f83769f2c96efaf7b7b21ea44d354a76b6f08e5d7a03256f99c5fed2565ca6"),
    ("fox", "text", 0, "e597636c8c95dc940171d0fd24a28da190f5c4fdbb353d36f8053a39666e8889"),
    ("fox", "json", 0, "2af18a15c3423a847c960c84eb005ade2b919fd257cffd7143e611579d1466e1"),
    ("relator", "text", 0, "58bbaaf7ce7c682110b6b72d0e0b0d823cc9c641e3c051477faf4eda5c6c9932"),
    ("relator", "json", 0, "04ec06a0f088e5ac90c4621e0a14a0faf78e44f60d584de88b798eb05b72ae24"),
    ("certify", "text", 0, "a42c2906e53880fb11f0114b77de3e3f1e6223d04f1be359ee11c892cfb003d2"),
    ("certify", "json", 0, "54a51ff7b1a1ef76dcdd3ab80dd946cf96615fc19791dc812efa9311b942d0f8"),
    ("ore-search", "text", 0, "786ba27fdd095186fb3ab4c20484cab46427c5282835e37ad50e1746ea47507f"),
    ("ore-search", "json", 0, "aba371b82410662f16e75bf358019985b50fd9b8d03f2e48ee1a41867141c738"),
    ("ore-search-d-ne-p", "text", 0, "b05682a12bd0aa4a372aaf1a8ae28b7b5403b462c938732627b64ea447c23ef0"),
    ("ore-search-d-ne-p", "json", 0, "2a202266d0e996e2856528c2a11197a8e048ff576ebf74d402dd2e012a925988"),
    ("annihilate", "text", 0, "f9e4e5d441c7491449f041c97322f89f0a35535402acfb66c1b81de8047d9047"),
    ("annihilate", "json", 0, "10f413bc930d4be8b4e205364be65c35846f71b753cc000b543b026021770fbd"),
    ("annihilate-not-in-ideal", "text", 1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("annihilate-not-in-ideal", "json", 1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("reduce-b2", "text", 0, "f9b1477b99b48f87825fb496e89cef09c8fd092eab0cc5e1f276de6d9c1495c3"),
    ("reduce-b2", "json", 0, "6c392ce7387c7517bab1e9164551b7a5b8ab397d4e3fd4b104a69e4def63f927"),
    ("selftest", "text", 0, "a88bb973ba4a5a6ebce58df144951366f60bc440148516481395bc62561fc841"),
    ("selftest", "json", 4, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("parse-error", "text", 2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("parse-error", "json", 2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("limit-exceeded", "text", 3, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("limit-exceeded", "json", 3, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("window-cap-exceeded", "text", 3, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("window-cap-exceeded", "json", 3, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("closure-cap-exceeded", "text", 3, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("closure-cap-exceeded", "json", 3, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("negative-depth", "text", 4, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("negative-depth", "json", 4, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("invalid-config", "text", 4, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("invalid-config", "json", 4, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("certify-large", "text", 0, "aa2f8acd35baa92d04f4784a24db432c98485f82aa5c5300d0587334ae1bf8e1"),
    ("certify-large", "json", 0, "acbc3ee5871e7bc54f8318de7d1000632c6f67fd0910553e4b5762673f75bef8"),
    ("mul-large", "text", 0, "cdde18c317d559c41599b5e5f19146c907fe05867a484de4946e25e4657c942f"),
    ("mul-large", "json", 0, "3856794b202b72778e743cf23007639c2d3d8ab6c33b1a3a23a650a3ff861dd6"),
    ("annihilate-coset-order-2", "text", 0, "67a575f9adf26c0320a183645faa03bff912ae7b83d317f3bab1ebc949acfefa"),
    ("annihilate-coset-order-2", "json", 0, "a0b50512d645e230312e6035fc1568a4d0f83abaefb923ac5f280b83fa5baa1c"),
    ("annihilate-gf3-rank-5", "text", 0, "d60e56eac1cbdd127ba335a528e1384dce20fdb87255f62c910f279973170952"),
    ("annihilate-gf3-rank-5", "json", 0, "29d8d1857c09117402507e796af50ac7054806d5a3af456d7501cbfc5ea27e80"),
]


@pytest.mark.parametrize("name,fmt,code,digest", GOLDEN)
def test_stdout_and_exit_code_are_pinned(capsys, name, fmt, code, digest):
    # text is the default, and selftest has no --format
    got_code, out, _ = run_cli(capsys, *GOLDEN_ARGV[name],
                               *(["--format", "json"] if fmt == "json" else []))
    assert got_code == code
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_internal_error_exit_code(capsys, monkeypatch):
    def wrong_kernel(system):
        return [np.ones(system.matrix.shape[1], dtype=np.int64)]

    monkeypatch.setattr(oresearch, "nullspace", wrong_kernel)
    code, out, err = run_cli(capsys, "ore-search", "--d", "2", "--mod", "2",
                             "--window-lamps", "0", "--window-shift", "0")
    assert code == 5
    assert out == ""
    assert err.startswith("internal error: ")


def test_oversized_matrix_exit_code(capsys):
    # The (4,4) window passes the element cap, but its system matrix
    # exceeds the dense-cell bound and is refused before it is built.
    code, out, err = run_cli(capsys, "ore-search", "--d", "2", "--mod", "2",
                             "--window-lamps", "4", "--window-shift", "4")
    assert code == 3
    assert out == ""
    assert err == "limit exceeded: a 7168 x 9216 matrix exceeds the bound of 50000000 cells\n"


def test_parser_is_built_once_and_shared(capsys):
    assert build_parser() is build_parser()
    # Options of one call do not leak into the next through the shared parser.
    assert run_cli(capsys, "mul", "--d", "3", "a", "a") == (0, "a[0]^2\n", "")
    assert run_cli(capsys, "mul", "a", "a") == (0, "1\n", "")


# Strings built from JSON's structural characters and escapes.
_STRINGS = st.lists(st.sampled_from(['"', "\\", '\\"', '\\\\"', "[]{},", ": ", "\n\t\x00\x1f",
                                     "\u00e9", "\u2028", "\U0001f600"]) | st.text(max_size=4),
                    max_size=6).map("".join)
_NUMBERS = st.integers() | st.integers(min_value=2 ** 64) | st.floats() | st.booleans()
# Term records in plain lists, with fields of the wrong type or shape:
# a bool, float or huge coefficient, lamps of 3 entries or a bool, an extra key.
_TERM_LOOKALIKES = st.lists(st.fixed_dictionaries(
    {"coeff": _NUMBERS,
     "lamps": st.lists(st.lists(_NUMBERS, min_size=2, max_size=3) | st.booleans(), max_size=3),
     "shift": _NUMBERS},
    optional={"extra": st.none() | _STRINGS}), max_size=3)
_JSON = st.recursive(
    st.none() | _NUMBERS | _STRINGS | _TERM_LOOKALIKES,
    lambda children: st.lists(children, max_size=4) | st.dictionaries(_STRINGS, children,
                                                                       max_size=4),
    max_leaves=30)


@settings(max_examples=300, deadline=None)
@given(_JSON)
def test_dump_matches_json_dumps_indent_2(data):
    assert _dump(data) == json.dumps(data, indent=2)


@settings(max_examples=100, deadline=None)
@given(st.randoms(use_true_random=False), st.lists(st.sampled_from(("dict", "list")), max_size=4))
def test_dump_matches_json_dumps_on_term_records_at_any_depth(rng, wrappers):
    # GroupRingElement.to_json, nested inside dicts and lists: zero
    # elements, lamp-free terms and coefficients past int64 included.
    algebra = GroupRing(ScalarRing(rng.choice((0, 2, 3, 4))), WreathGroup(rng.choice((2, 3, 7))))
    data = algebra.random_element(rng, terms=rng.randint(0, 4), lamp_bound=rng.randint(0, 2),
                                  coeff_bound=rng.choice((3, 2 ** 70))).to_json()
    for wrapper in wrappers:
        data = {"terms": data, "next": []} if wrapper == "dict" else [0, data, data]
    assert _dump(data) == json.dumps(data, indent=2)


@pytest.fixture(scope="module")
def rank_7_payload():
    """The JSON of a rank-7 GF(3) annihilate: 2187 terms, 629 KB indented."""
    algebra = GroupRing(ScalarRing(3), WreathGroup(3))
    alphas = [algebra.one - algebra.monomial(algebra.group.generator_a(k)) for k in range(7)]
    beta = finite_subgroup_annihilator(alphas, algebra)
    return {"beta": beta.to_json(), "verified": True}


def test_dump_is_byte_identical_on_large_outputs(rank_7_payload, capsys):
    rng = random.Random(3)
    algebra = GroupRing(ScalarRing(3), WreathGroup(3))
    cert = certify(RelatorCoefficients([random_ring_element(rng, algebra) for _ in range(4)]))
    assert _dump(cert.to_json()) == json.dumps(cert.to_json(), indent=2)
    assert _dump(rank_7_payload) == json.dumps(rank_7_payload, indent=2)
    code, out, _ = run_cli(capsys, "annihilate", "--d", "3", "--mod", "3", "--format", "json",
                           *[f"1 - a[{k}]" for k in range(7)])
    assert (code, out) == (0, json.dumps(rank_7_payload, indent=2) + "\n")


def test_dump_memory_stays_below_json_dumps(rank_7_payload):
    # Traced peaks on the rank-7 payload: 2.0 MB for _dump, the term strings
    # and two copies of the text, against 4.5 MB for json.dumps(indent=2)
    # (Python 3.11).
    peaks = []
    for dump in (_dump, lambda data: json.dumps(data, indent=2)):
        tracemalloc.start()
        try:
            dump(rank_7_payload)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[0] <= peaks[1]
