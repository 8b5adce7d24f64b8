import json
import os
import random
import subprocess
import sys
import time
from fractions import Fraction

import pytest

from tiltlab import artheory, dedekind, exactlin, freegrp, perpcat, quiverrep
from tiltlab.cli import (
    MAX_DIM_CAP,
    MAX_ENVELOPE_DIM,
    MAX_ENVELOPE_TRIALS,
    MAX_PERP_TRIALS,
    MAX_RANDOM_ORE,
    _refusal,
    main,
    run_dedekind_classify,
    run_free_envelope,
    run_perp_check,
    run_tube_demo,
)
from tiltlab.dedekind import FgZModule
from tiltlab.errors import ParseError
from tiltlab.freegrp import XDivModule
from tiltlab.parsefmt import ParsedInput, parse_input

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")
REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def fixture(name):
    return os.path.join(FIXTURES, name)


def test_parse_kronecker_fixture():
    parsed = parse_input(fixture("kronecker.txt"))
    q = parsed.quivers["kron"]
    assert q.nvertices == 2 and len(q.arrows) == 2
    assert parsed.reps["tube"].dims == (1, 1)
    assert parsed.reps["simple_source"].dims == (1, 0)
    assert parsed.zmods[0].free_rank == 1
    assert parsed.zmods[0].invariant_factors == (2, 6)
    assert parsed.alphabet == ("x", "y")
    assert str(parsed.words[0]) == "x x"


def test_comment_only_fixture_parses_to_nothing(tmp_path, capsys):
    path = tmp_path / "comments.txt"
    path.write_text("# nothing to check\n\n   # indented comment\n", encoding="utf-8")
    assert parse_input(str(path)) == ParsedInput()
    assert main(["custom", str(path)]) == 0
    assert "summary: 0/0 passed, 0 failed" in capsys.readouterr().out


def test_parse_error_reports_line_number(tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("quiver q\nvertices 2\narrow a 1\n", encoding="utf-8")
    with pytest.raises(ParseError) as info:
        parse_input(str(bad))
    assert info.value.line == 3


def test_parse_error_names_arrow_on_bad_shape(tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text(
        "quiver q\nvertices 2\narrow a 1 2\nfield F 5\nrep m dim 1 1\nmatrix a [[1,2]]\n",
        encoding="utf-8",
    )
    with pytest.raises(ParseError) as info:
        parse_input(str(bad))
    assert info.value.line == 6
    assert "'a'" in info.value.reason and "1x1" in info.value.reason


def test_parse_error_on_cyclic_quiver(tmp_path):
    bad = tmp_path / "cyc.txt"
    bad.write_text("quiver q\nvertices 2\narrow a 1 2\narrow b 2 1\n", encoding="utf-8")
    with pytest.raises(ParseError):
        parse_input(str(bad))


def rep_fixture(tmp_path, field, entries):
    """A fixture whose line 6 gives arrow ``a`` of a 1x1 rep the JSON
    ``entries``."""
    path = tmp_path / "rep.txt"
    path.write_text(
        f"quiver q\nvertices 2\narrow a 1 2\nfield {field}\nrep m dim 1 1\nmatrix a {entries}\n",
        encoding="utf-8",
    )
    return str(path)


@pytest.mark.parametrize("field, entries", [
    ("F 5", "[[null]]"),
    ("F 5", "[[[1]]]"),
    ("F 5", "[[1.5]]"),
    ("F 5", "[[2.0]]"),
    ("F 5", "[[true]]"),
    ("F 5", '[["2"]]'),
    ("F 5", "[[1e400]]"),
    ("Q", "[[0.1]]"),
    ("Q", "[[false]]"),
    ("Q", "[[null]]"),
    ("Q", '[["x"]]'),
    ("Q", '[["1/0"]]'),
    ("Q", "[[[1]]]"),
], ids=["null", "nested", "float", "whole-float", "bool", "string", "overflow",
        "q-float", "q-bool", "q-null", "q-not-a-number", "q-zero-denominator", "q-nested"])
def test_matrix_entries_must_be_integers(tmp_path, field, entries):
    with pytest.raises(ParseError) as info:
        parse_input(rep_fixture(tmp_path, field, entries))
    assert (info.value.line, info.value.reason) == (6, "arrow 'a': entries must be integers")


@pytest.mark.parametrize("entries, value", [
    ('[["1/2"]]', Fraction(1, 2)),
    ('[["0.1"]]', Fraction(1, 10)),
    ("[[-3]]", Fraction(-3)),
])
def test_matrix_entries_over_q_read_fraction_strings(tmp_path, entries, value):
    rep = parse_input(rep_fixture(tmp_path, "Q", entries)).reps["m"]
    assert rep.maps[0].rows == [[value]]


def test_custom_refuses_a_null_entry_in_one_line(tmp_path, capsys):
    assert main(["custom", rep_fixture(tmp_path, "F 5", "[[null]]")]) == 2
    err = capsys.readouterr().err
    assert err == "tiltlab: input error: line 6: arrow 'a': entries must be integers\n"


# Python's cap on the digits int() reads from a string, 0 where it has none
DIGIT_CAP = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else 0
NEEDS_DIGIT_CAP = pytest.mark.skipif(not DIGIT_CAP, reason="this Python reads integers of any length")
PAST_CAP = f"integer of {DIGIT_CAP + 1} digits exceeds cap {DIGIT_CAP}"


@pytest.mark.parametrize("text, reason", [
    pytest.param("zmod free 20000\n", "line 1: free rank plus factor count 20000 exceeds cap 32",
                 id="zmod-free-rank"),
    pytest.param('quiver q\nvertices 2\narrow a 1 2\nfield Q\nrep m dim 1 1\nmatrix a [["1e10000000"]]\n',
                 "line 6: arrow 'a': entries may not hold an exponent", id="q-exponent"),
    # json.loads alone refuses this entry with a ValueError that names no line
    pytest.param("quiver q\nvertices 2\narrow a 1 2\nfield F 5\nrep m dim 1 1\nmatrix a [[" + "1" * (DIGIT_CAP + 1)
                 + "]]\n", f"line 6: {PAST_CAP}", id="matrix-entry-past-digit-cap", marks=NEEDS_DIGIT_CAP),
    pytest.param("zmod free 0 factors " + "1" * (DIGIT_CAP + 1) + "\n", f"line 1: {PAST_CAP}",
                 id="zmod-factor-past-digit-cap", marks=NEEDS_DIGIT_CAP),
])
def test_custom_refuses_oversized_input_in_one_line(tmp_path, capsys, text, reason):
    # each fixture once took seconds and gigabytes to read
    path = tmp_path / "big.txt"
    path.write_text(text, encoding="utf-8")
    assert main(["custom", str(path)]) == 2
    assert capsys.readouterr().err == f"tiltlab: input error: {reason}\n"


def test_custom_prints_a_zmod_line_of_large_factors(tmp_path, capsys):
    # 32 random orders of 1000 bits: a Smith form of their diagonal took
    # seconds, and their top invariant factor has more digits than Python
    # prints by default (4,300)
    rng = random.Random(5)
    orders = [rng.getrandbits(1000) | 1 << 999 for _ in range(32)]
    assert dedekind.from_pieces(0, orders).invariant_factors[-1].bit_length() > 4300 * 10 // 3
    path = tmp_path / "zmod.txt"
    path.write_text("zmod free 0 factors " + ",".join(map(str, orders)) + "\n", encoding="utf-8")
    limit = sys.get_int_max_str_digits()
    start = time.perf_counter()
    assert main(["custom", str(path)]) == 0
    assert main(["custom", str(path), "--format", "json"]) == 0
    assert time.perf_counter() - start < 2.0
    assert sys.get_int_max_str_digits() == limit
    assert capsys.readouterr().out.count("[PASS] zmod Z/") == 1


@pytest.mark.parametrize("line", ["alphabet x^1,y", "alphabet x^-1", "alphabet ^"])
def test_fixture_alphabet_symbols_must_be_words(tmp_path, line):
    path = tmp_path / "alphabet.txt"
    path.write_text(line + "\n", encoding="utf-8")
    with pytest.raises(ParseError) as info:
        parse_input(str(path))
    assert (info.value.line, info.value.reason) == (1, "alphabet needs distinct nonempty symbols")


def refused(argv, capsys) -> str:
    """The one stderr line of a command line the parser refuses."""
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("tiltlab: ") and err.count("\n") == 1 and err.endswith("\n")
    return err


def test_unknown_command_is_a_usage_error(capsys):
    assert "invalid choice: 'bogus'" in refused(["bogus"], capsys)


def test_help_still_prints_the_usage(capsys):
    with pytest.raises(SystemExit) as info:
        main(["perp-check", "--help"])
    assert info.value.code == 0
    assert capsys.readouterr().out.startswith("usage: tiltlab perp-check")


# golden report name -> argv; the GF(2) reports pin the XOR forward pass,
# which no default report reaches
GOLDEN_ARGS = {
    "tube-demo": ["tube-demo"],
    "tube-demo-gf2": ["tube-demo", "--field", "2"],
    "dedekind": ["dedekind"],
    "free-envelope": ["free-envelope"],
    "perp-check": ["perp-check"],
    "perp-check-gf2": ["perp-check", "--field", "2"],
    "custom": ["custom", "tests/fixtures/kronecker.txt"],
}


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("command", sorted(GOLDEN_ARGS))
def test_report_matches_golden(command, fmt, capsys, monkeypatch):
    # golden files hold each subcommand's report at default flags, and two
    # at --field 2; the custom report names its fixture path, so run from
    # the repo root
    monkeypatch.chdir(REPO_ROOT)
    assert main([*GOLDEN_ARGS[command], "--format", fmt]) == 0
    golden = fixture(os.path.join("golden", f"{command}.{'txt' if fmt == 'text' else 'json'}"))
    with open(golden, encoding="utf-8", newline="") as fh:
        assert capsys.readouterr().out == fh.read()


def test_tube_demo_report_passes():
    report = run_tube_demo()
    assert report.all_passed
    assert report.summary["total"] == 7


def test_tube_demo_field_independent():
    # the pass/fail pattern does not depend on the (odd) characteristic
    five = run_tube_demo(field_char=5)
    for p in (3, 7):
        other = run_tube_demo(field_char=p)
        assert [c.passed for c in five.checks] == [c.passed for c in other.checks]
        assert other.all_passed


def test_dedekind_report_passes():
    report = run_dedekind_classify(primes=(2, 3), ore_sets=((6,),), random_ore=2, seed=0)
    assert report.all_passed
    # the largest universe the command accepts
    report = run_dedekind_classify(primes=(2, 3, 5, 7, 11, 13))
    assert report.all_passed
    assert (report.checks[0].values["classes"], report.checks[0].values["witness_pairs"]) == (64, 2016)


def test_free_envelope_report_passes():
    report = run_free_envelope(trials=30, words=("x y y^-1",))
    assert report.all_passed
    # three generators and a 16-letter word, walked in four blocks
    report = run_free_envelope(alphabet=("x", "y", "z"), dim=3, field_char=101, trials=400,
                               words=("x y z x^-1 y^-1 z^-1 x y z x y z x y z x",))
    assert report.all_passed and report.summary["total"] == 4
    report = run_free_envelope(dim=0)
    assert report.all_passed and report.summary["total"] == 3


def test_perp_check_report_passes():
    report = run_perp_check(trials=15)
    assert report.all_passed
    assert run_perp_check(family="a31", field_char=3).all_passed


def test_cli_exit_codes(capsys, tmp_path):
    assert main(["perp-check", "--trials", "5"]) == 0
    assert main(["perp-check", "--trials", "3", "--dim-cap", "0"]) == 0
    capsys.readouterr()
    assert main(["tube-demo", "--family", "kronecker"]) == 2
    err = capsys.readouterr().err
    assert "rank >= 3" in err
    assert main(["tube-demo", "--family", "affine_a3"]) == 2
    assert capsys.readouterr().err == "tiltlab: no tube catalog for family 'affine_a3'\n"
    assert main(["dedekind", "--primes", "2,4"]) == 2
    capsys.readouterr()
    assert main(["dedekind", "--primes", "2,3,5,7,11,13,17"]) == 2
    assert capsys.readouterr().err == "tiltlab: universe capped at 6 primes\n"
    assert main(["custom", str(tmp_path / "missing.txt")]) == 2


@pytest.mark.parametrize("word, reason", [
    ("x z", "unknown generator 'z'"),
    (" ".join(["x"] * 17), "reduced word length 17 exceeds cap 16"),
], ids=["unknown", "too-long"])
def test_bad_word_flag_is_refused_in_one_line_without_a_line_number(word, reason, capsys):
    assert main(["free-envelope", "--word", word]) == 2
    assert capsys.readouterr().err == f"tiltlab: {reason}\n"


def test_cli_custom_fixture(capsys):
    assert main(["custom", fixture("kronecker.txt")]) == 0
    out = capsys.readouterr().out
    assert '"quivers": {"kron": {"arrows": 2, "vertices": 2}}' in out


@pytest.mark.parametrize("p, d, nbytes", [(2**31 - 1, 10, 16), (2, 10, 1), (3, 4, 1), (65521, 4, 8)],
                         ids=["gf-2^31-1", "gf-2", "gf-3-4x4", "gf-65521-4x4"])
def test_custom_runs_the_packed_forward_pass(tmp_path, capsys, monkeypatch, p, d, nbytes):
    """A dense Kronecker (d, d) module: ``hom_dim`` eliminates its 2d^2 x
    2d^2 Hom system and ``hom_ext_dims`` a d^2 x d^2 tensor matrix, both
    packed, in 16-byte slots over ``GF(2^31 - 1)``.  The tensor matrix
    goes into the pass as its packed block sum, with slots for its terms
    as well as its row operations.  At d = 4 ``GF(3)`` takes one-byte
    slots and ``GF(65521)`` 8-byte ones.  Over ``GF(2)`` both go to the
    XOR loop, one byte per entry, and none to the packed loop."""
    rng = random.Random(p)

    def matrix():
        return json.dumps([[rng.randrange(p) for _ in range(d)] for _ in range(d)])

    path = tmp_path / "dense.txt"
    path.write_text(f"quiver kron\nvertices 2\narrow a 1 2\narrow b 1 2\nfield F {p}\n"
                    f"rep dense dim {d} {d}\nmatrix a {matrix()}\nmatrix b {matrix()}\n")
    calls, xor_calls, forward, forward_gf2 = [], [], exactlin._forward_packed, exactlin._forward_gf2

    def spy(q, rows, ncols, nbytes):
        calls.append((len(rows), ncols, nbytes))
        return forward(q, rows, ncols, nbytes)

    monkeypatch.setattr(exactlin, "_forward_packed", spy)
    monkeypatch.setattr(exactlin, "_forward_gf2",
                        lambda rows, ncols: xor_calls.append((len(rows), ncols, 1)) or forward_gf2(rows, ncols))
    assert main(["custom", str(path)]) == 0
    out = capsys.readouterr().out
    assert '[PASS] rep dense: bilinear form equals hom minus ext\n' in out
    assert f'"ext1": {d}, "hom": {d}}}' in out and out.endswith("summary: 1/1 passed, 0 failed\n")
    ran, idle = (xor_calls, calls) if p == 2 else (calls, xor_calls)
    assert (2 * d * d, 2 * d * d, nbytes) in ran and (d * d, d * d, nbytes) in ran
    assert idle == []


def a31_low_rank_fixture(field):
    """An a31 (5, 4, 5, 3) rep whose map ``a2`` has rank 2, so the kernel
    of its projective cover has its top at three vertices."""
    rng = random.Random(37)

    def draw(rows, cols):
        return [[rng.randrange(-4, 5) for _ in range(cols)] for _ in range(rows)]

    left, right = draw(5, 2), draw(2, 4)
    low = [[sum(x * y for x, y in zip(row, col)) for col in zip(*right)] for row in left]
    return (f"quiver a31\nvertices 4\narrow a1 1 2\narrow a2 2 3\narrow a3 3 4\narrow b 1 4\nfield {field}\n"
            f"rep mixed dim 5 4 5 3\nmatrix a1 {json.dumps(draw(4, 5))}\nmatrix a2 {json.dumps(low)}\n"
            f"matrix a3 {json.dumps(draw(3, 5))}\nmatrix b {json.dumps(draw(3, 5))}\n")


@pytest.mark.parametrize("text, reps", [
    ('quiver kron\nvertices 2\narrow a 1 2\narrow b 1 2\nfield Q\nrep tube dim 1 1\nmatrix a [[1]]\n'
     'matrix b [["1/2"]]\nrep pencil dim 2 2\nmatrix a [[1, 0], [0, 1]]\nmatrix b [["2/3", 1], [0, "2/3"]]\n', 2),
    (a31_low_rank_fixture("F 101"), 1),
    (a31_low_rank_fixture("Q"), 1),
], ids=["kronecker-q-fractions", "a31-low-rank-gf101", "a31-low-rank-q"])
def test_custom_passes_every_check(tmp_path, capsys, text, reps):
    path = tmp_path / "fixture.txt"
    path.write_text(text, encoding="utf-8")
    assert main(["custom", str(path)]) == 0
    out = capsys.readouterr().out
    assert out.count("[PASS] ") == reps and "[FAIL] " not in out
    assert out.endswith(f"summary: {reps}/{reps} passed, 0 failed\n")


def test_custom_zmod_check_can_fail(capsys, monkeypatch):
    # a classification that disagrees with the parsed module must FAIL: a
    # presentation without its relation columns presents a free module
    monkeypatch.setattr(FgZModule, "presentation",
                        lambda self: dedekind._diagonal(self.free_rank + len(self.invariant_factors), ()))
    assert main(["custom", fixture("kronecker.txt")]) == 1
    assert "[FAIL] zmod Z + Z/2 + Z/6 is in canonical form" in capsys.readouterr().out


def test_envelope_word_check_can_fail(capsys, monkeypatch):
    # inverse letters that act like the letters themselves cannot undo a word
    init = XDivModule.__init__

    def faulty_table(self, *args):
        init(self, *args)
        for sym in self.alphabet:
            self._letters[sym, -1] = self._letters[sym, 1]

    monkeypatch.setattr(XDivModule, "__init__", faulty_table)
    assert main(["free-envelope", "--word", "x y"]) == 1
    out = capsys.readouterr().out
    assert "[FAIL] envelope value of 'x y' returns to the base along the inverse word" in out
    assert "[FAIL] extension respects the action on sampled words" in out


def test_envelope_positive_word_check_can_fail(capsys, monkeypatch):
    # a forward letter with two rows swapped no longer acts by the matrix of x
    init = XDivModule.__init__

    def faulty_table(self, *args):
        init(self, *args)
        rows = self._letters["x", 1]
        self._letters["x", 1] = (rows[1], rows[0]) + rows[2:]

    monkeypatch.setattr(XDivModule, "__init__", faulty_table)
    assert main(["free-envelope"]) == 1
    assert "[FAIL] positive words act through the monoid action" in capsys.readouterr().out


def test_envelope_checks_fail_on_blocks_composed_in_the_wrong_order(capsys, monkeypatch):
    # B^T L^T applies the last letter of a block first
    compose = freegrp._compose
    monkeypatch.setattr(freegrp, "_compose", lambda a, b, dot: compose(b, a, dot))
    assert main(["free-envelope"]) == 1
    out = capsys.readouterr().out
    assert "[FAIL] extension respects the action on sampled words" in out
    assert "[FAIL] positive words act through the monoid action" in out
    assert "[PASS] flatness witness is nonzero with zero image" in out


def test_ore_set_check_can_fail(monkeypatch):
    # a prime support that loses the largest prime must not pass the check
    support = dedekind.prime_support
    monkeypatch.setattr(dedekind, "prime_support", lambda n: support(n)[:-1])
    report = run_dedekind_classify(ore_sets=((6,),))
    assert [(c.name, c.passed) for c in report.checks[1:]] == [
        ("ore generators [6] invert exactly the primes [2]", False)]


def test_class_distinctness_check_can_fail(capsys, monkeypatch):
    # a witness in both subsets, {2} and {2, 3}, separates nothing
    classify_tilting = dedekind.classify_tilting

    def faulty_table(universe):
        table = classify_tilting(universe)
        subsets = [r.subset for r in table.rows]
        a, b = subsets.index((2,)), subsets.index((2, 3))
        witnesses = tuple((x, y, 2) if {x, y} == {a, b} else (x, y, p) for x, y, p in table.witnesses)
        assert witnesses != table.witnesses
        return dedekind.TiltingClassTable(table.rows, witnesses)

    monkeypatch.setattr(dedekind, "classify_tilting", faulty_table)
    assert main(["dedekind"]) == 1
    out, err = capsys.readouterr()
    assert "[FAIL] all subset classes pairwise distinct" in out
    assert '"classes": 8' in out and '"witness_pairs": 28' in out
    assert err == ""


def test_class_distinctness_recheck_reads_each_witness_class_by_class(monkeypatch):
    # both classes of every pair, each (witness prime, class) decided once;
    # the table is built before the count starts, so only the recheck counts
    table = dedekind.classify_tilting(dedekind.PrimeSet.of(2, 3, 5))
    monkeypatch.setattr(dedekind, "classify_tilting", lambda universe: table)
    calls = []
    divisible = dedekind.is_divisible_by
    monkeypatch.setattr(dedekind, "is_divisible_by", lambda M, P: calls.append((M, P)) or divisible(M, P))
    report = run_dedekind_classify()
    assert report.checks[0].passed
    read = {(p, table.rows[i].subset) for a, b, p in table.witnesses for i in (a, b)}
    assert sorted((M.invariant_factors[0], P.primes) for M, P in calls) == sorted(read)


def test_ore_line_factors_each_generator_once(monkeypatch):
    factored = []
    factor = dedekind._prime_factors
    monkeypatch.setattr(dedekind, "_prime_factors", lambda n: factored.append(n) or factor(n))
    dedekind.prime_support.cache_clear()
    report = run_dedekind_classify(ore_sets=((6, 10), (35,)))
    assert all(c.passed for c in report.checks)
    assert factored == [6, 10, 35]


def test_tube_filtration_check_can_fail(capsys, monkeypatch):
    # the construction's chain reversed, with the same factors, is no
    # filtration: its first layer is all of layer2, not the socle simple
    built = artheory.Filtration
    monkeypatch.setattr(artheory, "Filtration", lambda chain, factors: built(chain[::-1], factors))
    report = run_tube_demo()
    assert [c.name for c in report.checks if not c.passed] == [
        "layer2 is filtered by the socle simple and its inverse translate"]
    assert main(["tube-demo"]) == 1
    assert "[FAIL] layer2 is filtered by the socle simple and its inverse translate" in capsys.readouterr().out


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_tube_filtration_validates_the_chain_the_search_finds(p, monkeypatch):
    # the chain build_extension lays down is, entry for entry, the first
    # one the exhaustive search finds
    simple, _, tminus = artheory.tube_catalog("a31", exactlin.PrimeField(p)).tubes[0]
    found = artheory.u_filtration(artheory.build_extension(tminus, simple), (simple, tminus))
    built, chains = artheory.Filtration, []
    monkeypatch.setattr(artheory, "Filtration",
                        lambda chain, factors: chains.append((chain, factors)) or built(chain, factors))
    assert run_tube_demo(field_char=p).all_passed
    assert chains == [(found.chain, found.factors)]


def test_no_subcommand_runs_the_submodule_search(capsys, monkeypatch):
    def search(*args):
        raise RuntimeError("the exhaustive submodule search ran")

    monkeypatch.setattr(artheory, "all_submodules", search)
    monkeypatch.chdir(REPO_ROOT)
    for command in sorted(GOLDEN_ARGS):
        for fmt, ext in (("text", "txt"), ("json", "json")):
            assert main([*GOLDEN_ARGS[command], "--format", fmt]) == 0
            with open(fixture(os.path.join("golden", f"{command}.{ext}")), encoding="utf-8", newline="") as fh:
                assert capsys.readouterr().out == fh.read()


def test_gf2_reports_eliminate_by_xor_alone(capsys, monkeypatch):
    """The GF(2) golden reports run their forward passes through the XOR
    loop and none through the packed one."""
    xor_calls, forward, forward_gf2 = [], exactlin._forward_packed, exactlin._forward_gf2

    def packed(q, rows, ncols, nbytes):
        assert q != 2, "a GF(2) matrix reached the packed loop"
        return forward(q, rows, ncols, nbytes)

    monkeypatch.setattr(exactlin, "_forward_packed", packed)
    monkeypatch.setattr(exactlin, "_forward_gf2",
                        lambda rows, ncols: xor_calls.append(ncols) or forward_gf2(rows, ncols))
    for command in ("tube-demo-gf2", "perp-check-gf2"):
        xor_calls.clear()
        assert main(GOLDEN_ARGS[command]) == 0
        assert capsys.readouterr().out.endswith(" passed, 0 failed\n")
        assert xor_calls


def test_tube_defect_check_can_fail(monkeypatch):
    # a defect that vanishes on every module must fail on the projectives
    monkeypatch.setattr(artheory, "defect", lambda df, d: 0)
    report = run_tube_demo()
    assert [c.name for c in report.checks if not c.passed] == ["tube members have zero defect"]


def test_tube_separation_check_can_fail(monkeypatch):
    # a predicate that admits every module puts the witness in both classes,
    # which separates nothing, whatever class_compare returned
    monkeypatch.setattr(perpcat, "is_divisible", lambda M, U: True)
    report = run_tube_demo()
    assert [c.name for c in report.checks if not c.passed] == [
        "divisibility classes separated exactly at the socle simple"]
    assert len(report.checks) == 7


def test_perp_membership_check_can_fail(capsys, monkeypatch):
    # a Tor^1 that never vanishes contradicts the other two conditions
    # wherever a sample is a member
    monkeypatch.setattr(perpcat, "tor_dims", lambda *args: (1, 1))
    assert main(["perp-check"]) == 1
    out = capsys.readouterr().out
    assert '[FAIL] membership conditions agree on all samples\n    inputs: {"trials": 40}\n' \
           '    values: {"disagreements": 4, "members": 4}\n' in out
    assert "[PASS] bilinear form equals hom minus ext on all samples" in out


def test_perp_bilinear_form_check_can_fail(capsys, monkeypatch):
    # a Hom one too large disagrees with the presentation's Hom on every pair
    hom_dim = quiverrep.hom_dim
    monkeypatch.setattr(quiverrep, "hom_dim", lambda M, N: hom_dim(M, N) + 1)
    assert main(["perp-check"]) == 1
    out = capsys.readouterr().out
    assert "[PASS] membership conditions agree on all samples" in out
    assert '[FAIL] bilinear form equals hom minus ext on all samples\n    inputs: {"trials": 40}\n' \
           '    values: {"failures": 40}\n' in out


def test_internal_check_failure_exits_cleanly(capsys, monkeypatch):
    def broken_catalog(family, field):
        raise AssertionError("rank-3 tube did not close up")

    monkeypatch.setattr(artheory, "tube_catalog", broken_catalog)
    assert main(["tube-demo"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("tiltlab: internal check failed: rank-3 tube did not close up at test_cli.py:")
    assert err.count("\n") == 1


def run_python(script):
    """The JSON value that ``script`` prints last, run in a fresh
    interpreter that imports ``tiltlab`` from ``src`` and helpers from
    ``tests``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(REPO_ROOT, "src"), os.path.join(REPO_ROOT, "tests"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", script], cwd=REPO_ROOT, env=env,
                          capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def sympy_loaded_after(*argvs, work="", then):
    """In a fresh interpreter: the exit codes of ``main`` on each argv in
    turn; the minimal polynomials that they and the statements ``work``
    then factored, as ``[field, factor degrees]``; whether sympy was
    imported by then; and whether it was once the statement ``then`` had
    run too."""
    return run_python(
        "import contextlib, io, json, sys\n"
        "from tiltlab import artheory\n"
        "from tiltlab.cli import main\n"
        "factored, factor = [], artheory._factor_min_poly\n"
        "def spy(field, mu):\n"
        "    out = factor(field, mu)\n"
        "    factored.append([repr(field), [len(h) - 1 for h, _ in out]])\n"
        "    return out\n"
        "artheory._factor_min_poly = spy\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    codes = [main(argv) for argv in {list(argvs)!r}]\n"
        f"{work}\n"
        "loaded = 'sympy' in sys.modules\n"
        f"{then}\n"
        "print(json.dumps([codes, factored, loaded, 'sympy' in sys.modules]))\n"
    )


# the tiltlab modules that each subcommand loads besides cli, errors and report
MODULES_RUN = {
    "tube-demo": ("artheory", "exactlin", "perpcat", "quiverrep"),
    "dedekind": ("dedekind", "exactlin"),
    "free-envelope": ("exactlin", "freegrp"),
    "perp-check": ("artheory", "exactlin", "perpcat", "quiverrep"),
    "custom": ("dedekind", "exactlin", "freegrp", "parsefmt", "quiverrep"),
}


def tiltlab_modules_after(statements):
    """The ``tiltlab.*`` modules loaded once ``statements`` have run in a
    fresh interpreter, which has set ``code`` to the exit code if any."""
    return run_python(
        "import contextlib, io, json, sys\n"
        "code = None\n"
        f"{statements}\n"
        "print(json.dumps([code, sorted(m for m in sys.modules if m.startswith('tiltlab.'))]))\n"
    )


@pytest.mark.parametrize("command", sorted(GOLDEN_ARGS))
def test_each_subcommand_loads_only_the_modules_it_runs(command):
    code, loaded = tiltlab_modules_after(
        "from tiltlab.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    code = main({GOLDEN_ARGS[command]!r})"
    )
    assert code == 0
    run = MODULES_RUN[GOLDEN_ARGS[command][0]]
    assert loaded == sorted(f"tiltlab.{m}" for m in ("cli", "errors", "report", *run))


def test_importing_the_package_loads_no_submodule():
    assert tiltlab_modules_after("import tiltlab") == [None, []]


# the control: factoring a minimal polynomial over QQ does load sympy, so the
# probe can see an import
FACTOR_OVER_QQ = "from tiltlab.exactlin import QQ\nartheory._factor_min_poly(QQ, [1, 0, 1])"

# an ar-search style decompose over GF(3) and is_isomorphic over GF(5), on
# basis changes of sums whose summands include a point of degree two
FINITE_FIELD_WORK = """
import random
from conftest import random_basis_change
from tiltlab.exactlin import PrimeField
from tiltlab.quiverrep import QuiverRep, direct_sum, kronecker

def pencil(p, b):
    n = len(b)
    return QuiverRep.from_entries(kronecker(), PrimeField(p), (n, n), {
        "a": [[int(i == j) for j in range(n)] for i in range(n)], "b": b})

M = direct_sum(pencil(3, [[0, 2], [1, 0]]), direct_sum(pencil(3, [[1]]), pencil(3, [[2]])))
assert len(artheory.decompose(random_basis_change(M, random.Random(1)))) == 3
P = pencil(5, [[0, 2], [1, 0]])
# a self-extension of the point x^2 - 2 maps onto both copies of P, so
# the rank walk stalls with every vertex spanned and Krull-Schmidt decides
E = pencil(5, [[0, 2, 1, 0], [1, 0, 0, 1], [0, 0, 0, 2], [0, 0, 1, 0]])
assert not artheory.is_isomorphic(random_basis_change(E, random.Random(0)), direct_sum(P, P))
"""


def test_no_subcommand_loads_sympy():
    pytest.importorskip("sympy")  # the control imports it
    argvs = [["tube-demo"], ["dedekind"], ["dedekind", "--ore", "1000000016000000063", "--random-ore", "3"],
             ["free-envelope"], ["perp-check"], ["custom", "tests/fixtures/kronecker.txt"]]
    codes, factored, loaded, control = sympy_loaded_after(*argvs, then=FACTOR_OVER_QQ)
    assert (codes, factored[-1], loaded, control) == ([0] * 6, ["QQ", [2]], False, True)


# what importing ``dataclasses`` loads: ``inspect`` and, through it, ``ast``,
# ``dis`` and ``tokenize``, about 10 ms before a command's first check
DATACLASS_MODULES = ["dataclasses", "inspect", "ast", "dis", "tokenize"]


def test_no_subcommand_loads_dataclasses_or_inspect():
    argvs = [[*GOLDEN_ARGS[command], "--format", fmt] for command in sorted(GOLDEN_ARGS) for fmt in ("text", "json")]
    codes, loaded, control = run_python(
        "import contextlib, io, json, sys\n"
        "from tiltlab.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    codes = [main(argv) for argv in {argvs!r}]\n"
        f"loaded = [m for m in {DATACLASS_MODULES!r} if m in sys.modules]\n"
        "import dataclasses\n"  # the control: the probe sees the import
        f"print(json.dumps([codes, loaded, [m for m in {DATACLASS_MODULES!r} if m in sys.modules]]))\n"
    )
    assert (codes, loaded, control) == ([0] * len(argvs), [], DATACLASS_MODULES)


def test_factoring_over_finite_fields_leaves_sympy_unloaded():
    pytest.importorskip("sympy")  # the control imports it
    _, factored, loaded, control = sympy_loaded_after(work=FINITE_FIELD_WORK, then=FACTOR_OVER_QQ)
    assert (factored[-1], loaded, control) == (["QQ", [2]], False, True)
    # the positive control: both fields reached the factorizer with a
    # minimal polynomial of two or more distinct or non-linear factors
    for field in ("GF(3)", "GF(5)"):
        assert any(degrees != [1] for f, degrees in factored if f == field), factored


def test_without_sympy_finite_fields_still_factor_and_qq_fails_in_one_line():
    message = run_python(
        "import json, sys\n"
        "sys.modules['sympy'] = None  # importing sympy now raises ImportError\n"
        "from tiltlab import artheory\n"
        "from tiltlab.errors import MissingExtra\n"
        "from tiltlab.exactlin import QQ\n"
        f"{FINITE_FIELD_WORK}\n"
        "try:\n"
        "    artheory._factor_min_poly(QQ, [1, 0, 1])\n"
        "except MissingExtra as exc:\n"
        "    print(json.dumps(str(exc)))\n"
    )
    assert "\n" not in message and "tiltlab[qq]" in message


@pytest.mark.parametrize("flag", ["--primes", "--ore"])
def test_integers_past_the_primality_bound_are_refused(flag, capsys):
    assert main(["dedekind", flag, str(dedekind.MR_BOUND)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("tiltlab: ") and err.count("\n") == 1
    assert str(dedekind.MR_BOUND) in err


@pytest.mark.parametrize("argv, members", [
    (["perp-check", "--field", "2147483647"], 2147483648),
    (["tube-demo", "--field", "1031"], 1034),
], ids=["perp-check-2^31-1", "tube-demo-1031"])
def test_tube_catalogs_past_the_member_cap_are_refused_at_once(argv, members, capsys):
    # a catalog over GF(2^31 - 1) once ran out of memory building members
    start = time.perf_counter()
    assert main(argv) == 2
    assert time.perf_counter() - start < 1.0
    field = argv[-1]
    assert capsys.readouterr().err == (
        f"tiltlab: tube catalog over GF({field}) has {members} members, exceeds cap {artheory.MAX_TUBE_MEMBERS}\n")


class _Built(Exception):
    pass


# (argv without the value, the least value, the cap, a value far past it);
# each far value would otherwise run for minutes or exhaust memory
CAPS = [
    # Hom systems of about 2 * 10^8 x 2 * 10^8 entries
    pytest.param(["perp-check", "--dim-cap"], 0, MAX_DIM_CAP, 10000, id="perp-check-dim-cap"),
    # 10^10 entries per generator
    pytest.param(["free-envelope", "--dim"], 0, MAX_ENVELOPE_DIM, 100000, id="free-envelope-dim"),
    pytest.param(["perp-check", "--trials"], 1, MAX_PERP_TRIALS, 10**8, id="perp-check-trials"),
    # about 40 minutes
    pytest.param(["free-envelope", "--trials"], 1, MAX_ENVELOPE_TRIALS, 10**8, id="free-envelope-trials"),
    # about 40 minutes and 11 GB of report
    pytest.param(["dedekind", "--random-ore"], 0, MAX_RANDOM_ORE, 10**8, id="dedekind-random-ore"),
]


@pytest.mark.parametrize("argv, least, cap, far", CAPS)
def test_values_past_a_cap_are_refused_in_one_line_before_anything_is_built(capsys, monkeypatch, argv, least, cap,
                                                                            far):
    def refuse(*args, **kwargs):
        raise _Built

    for module, name in ((artheory, "tube_catalog"), (freegrp, "random_xdiv_module"),
                         (dedekind, "classify_tilting")):
        monkeypatch.setattr(module, name, refuse)
    for value in (far, cap + 1):
        start = time.perf_counter()
        err = refused([*argv, str(value)], capsys)
        assert time.perf_counter() - start < 1.0
        assert err == f"tiltlab: argument {argv[1]}: must be an integer from {least} to {cap}, got {value}\n"
    with pytest.raises(_Built):
        main([*argv, str(cap)])


NINES = "9" * 5000  # past the 4,300 digits int() reads by default


@pytest.mark.parametrize("argv, expected", [
    (["perp-check", "--trials", NINES], f"must be an integer from 1 to {MAX_PERP_TRIALS}"),
    (["perp-check", "--seed", NINES], "must be an integer"),
    (["tube-demo", "--field", NINES], "must be an integer"),
], ids=["trials", "seed", "field"])
def test_a_value_of_5000_digits_is_refused_with_a_bounded_echo(argv, expected, capsys):
    start = time.perf_counter()
    err = refused(argv, capsys)
    assert time.perf_counter() - start < 1.0
    assert err == f"tiltlab: argument {argv[1]}: {expected}, got {'9' * 20}... (5000 characters)\n"


LONG = "x" * 5000


# every refusal that echoes a user value the parser's types do not read:
# the library's, the file system's and argparse's own; "directive" names a
# fixture the test writes
@pytest.mark.parametrize("argv", [
    pytest.param(["tube-demo", "--family", LONG], id="tube-demo-family"),
    pytest.param(["perp-check", "--family", LONG], id="perp-check-family"),
    pytest.param(["tube-demo", "--family", "x " * 2500], id="family-of-many-words"),
    pytest.param(["free-envelope", "--word", "x " + "z" * 5000], id="word"),
    pytest.param(["custom", "/tmp/" + LONG], id="custom-path"),
    pytest.param(["custom", "directive"], id="custom-directive"),
    pytest.param(["tube-demo", "--format", LONG], id="format-choice"),
    pytest.param([LONG], id="command"),
    pytest.param(["tube-demo", "--" + LONG], id="flag"),
])
def test_every_refusal_line_is_bounded(argv, capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "directive").write_text(LONG + " 1\n", encoding="utf-8")
    start = time.perf_counter()
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    assert time.perf_counter() - start < 1.0
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("tiltlab: ") and err.count("\n") == 1 and err.endswith("\n")
    assert len(err.encode()) <= 200
    assert "characters)" in err


def test_a_short_refusal_line_is_written_whole():
    message = "argument command: invalid choice: 'x' (choose from 'tube-demo', 'dedekind')"
    assert _refusal(message) == f"tiltlab: {message}\n"
    assert _refusal("y" * 160) == f"tiltlab: {'y' * 160}\n"
    assert _refusal("y" * 161) == f"tiltlab: {'y' * 20}... (161 characters)\n"


def test_a_count_with_leading_zeros_is_read():
    assert main(["perp-check", "--trials", "0001", "--dim-cap", "0001"]) == 0


# every --field and --family value the library refuses, with its line;
# each exits 2 before a catalog or module is built
LIBRARY_REFUSALS = [
    (["--field", "0"], "characteristic must be a prime < 2^31, got 0"),
    (["--field", "-7"], "characteristic must be a prime < 2^31, got -7"),
    (["--field", "4"], "4 is not prime"),
    (["--field", "2147483648"], "characteristic must be a prime < 2^31, got 2147483648"),
    (["--family", "bogus"], "no tube catalog for family 'bogus'"),
]


@pytest.mark.parametrize("argv, message", [
    pytest.param(argv, message, id=" ".join(argv)) for argv, message in [
        *[([command, *flags], message) for command in ("tube-demo", "perp-check") for flags, message in LIBRARY_REFUSALS],
        *[(["free-envelope", *flags], message) for flags, message in LIBRARY_REFUSALS[:4]],
        (["tube-demo", "--family", "kronecker"], "family 'kronecker' has no tube of rank >= 3"),
    ]])
def test_field_and_family_are_refused_in_one_line_within_a_second(argv, message, capsys):
    start = time.perf_counter()
    assert main(argv) == 2
    assert time.perf_counter() - start < 1.0
    assert capsys.readouterr().err == f"tiltlab: {message}\n"


def test_a_bad_word_is_refused_in_one_line_before_anything_is_built(capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise _Built

    monkeypatch.setattr(freegrp, "random_xdiv_module", refuse)
    start = time.perf_counter()
    assert main(["free-envelope", "--trials", str(MAX_ENVELOPE_TRIALS), "--dim", str(MAX_ENVELOPE_DIM),
                 "--word", "x y", "--word", "x z"]) == 2
    assert time.perf_counter() - start < 1.0
    assert capsys.readouterr().err == "tiltlab: unknown generator 'z'\n"


def test_negative_module_dimension_is_an_input_error(capsys):
    assert refused(["free-envelope", "--dim", "-1"], capsys) == (
        f"tiltlab: argument --dim: must be an integer from 0 to {MAX_ENVELOPE_DIM}, got -1\n")


@pytest.mark.parametrize("argv, cap", [
    (["perp-check", "--trials", "-2"], MAX_PERP_TRIALS),
    (["free-envelope", "--trials", "0"], MAX_ENVELOPE_TRIALS),
    (["free-envelope", "--trials", "x"], MAX_ENVELOPE_TRIALS),
], ids=["negative", "zero", "not-a-number"])
def test_trials_must_be_positive(argv, cap, capsys):
    assert refused(argv, capsys) == f"tiltlab: argument --trials: must be an integer from 1 to {cap}, got {argv[-1]}\n"


@pytest.mark.parametrize("argv, cap", [
    (["perp-check", "--dim-cap", "-1"], MAX_DIM_CAP),
    (["perp-check", "--dim-cap", "x"], MAX_DIM_CAP),
    (["dedekind", "--random-ore", "-2"], MAX_RANDOM_ORE),
], ids=["dim-cap-negative", "dim-cap-not-a-number", "random-ore-negative"])
def test_counts_must_be_nonnegative(argv, cap, capsys):
    assert refused(argv, capsys) == f"tiltlab: argument {argv[1]}: must be an integer from 0 to {cap}, got {argv[-1]}\n"


@pytest.mark.parametrize("argv", [
    ["dedekind", "--primes", "2,abc"],
    ["dedekind", "--ore", "6,x"],
    ["dedekind", "--primes", "2.5"],
], ids=["primes-word", "ore-word", "primes-decimal"])
def test_integer_lists_name_their_flag(argv, capsys):
    assert refused(argv, capsys) == f"tiltlab: argument {argv[1]}: must be comma-separated integers, got {argv[2]}\n"


def test_tube_demo_has_no_dim_cap_flag(capsys):
    assert refused(["tube-demo", "--dim-cap", "3"], capsys) == "tiltlab: unrecognized arguments: --dim-cap 3\n"


@pytest.mark.parametrize("alphabet", [",", "x,y,x"], ids=["empty", "repeated"])
def test_alphabet_must_list_distinct_generators(alphabet, capsys):
    assert refused(["free-envelope", "--alphabet", alphabet], capsys) == (
        f"tiltlab: argument --alphabet: must list one or more distinct generators, got {alphabet}\n")


@pytest.mark.parametrize("alphabet", ["x^-1,y", "x y,z", "x,y^1", "x, y"],
                         ids=["inverse", "space", "exponent", "padded"])
def test_alphabet_symbols_must_be_nameable_in_words(alphabet, capsys):
    # a symbol with "^" or whitespace could never be named by --word
    assert refused(["free-envelope", "--alphabet", alphabet], capsys) == (
        f"tiltlab: argument --alphabet: must list one or more distinct generators, got {alphabet}\n")


def test_reports_byte_identical_across_runs(capsys):
    for fmt in ("text", "json"):
        outputs = []
        for _ in range(2):
            code = main(["tube-demo", "--seed", "3", "--format", fmt])
            assert code == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]


def test_json_and_text_renderings_agree():
    report = run_dedekind_classify(primes=(2, 3), random_ore=1)
    data = json.loads(report.to_json())
    text = report.to_text()
    assert data["scenario"] == "dedekind_classify"
    assert data["summary"]["total"] == report.summary["total"]
    for check in data["checks"]:
        marker = "[PASS] " if check["pass"] else "[FAIL] "
        assert marker + check["name"] in text
    assert f'{data["summary"]["passed"]}/{data["summary"]["total"]} passed' in text


def test_out_flag_writes_identical_copy(tmp_path, capsys):
    target = tmp_path / "report.json"
    code = main(["dedekind", "--primes", "2", "--format", "json", "--out", str(target)])
    assert code == 0
    out = capsys.readouterr().out
    assert target.read_text(encoding="utf-8") == out


@pytest.mark.parametrize("target", ["", "missing/report.txt"], ids=["directory", "missing-parent"])
def test_out_flag_to_an_unwritable_path_is_refused_in_one_line(tmp_path, capsys, target):
    path = str(tmp_path / target)
    assert main(["dedekind", "--primes", "2", "--out", path]) == 2
    out, err = capsys.readouterr()
    assert out.startswith("scenario: dedekind_classify\n")
    assert err.startswith("tiltlab: ") and err.count("\n") == 1 and path.rstrip(os.sep) in err


def test_report_failure_accounting():
    from tiltlab.report import Report

    report = Report("custom", {})
    report.add("good", True)
    report.add("bad", False, values={"detail": 1})
    assert not report.all_passed
    assert report.summary == {"total": 2, "passed": 1, "failed": 1}
    assert "[FAIL] bad" in report.to_text()
    data = json.loads(report.to_json())
    assert [c["pass"] for c in data["checks"]] == [True, False]
