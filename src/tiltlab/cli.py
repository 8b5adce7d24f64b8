"""Command-line surface: named verification scenarios over the library.

Every scenario builds a :class:`~tiltlab.report.Report`; runs are
deterministic for a fixed seed, so reports are byte-identical across
repeated invocations.  Exit codes: 0 when all checks pass, 1 when some
check or an internal invariant fails, 2 for usage or input errors.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import os
import random
import sys

from .errors import ParseError, TiltlabError, UnsupportedFamily
from .report import Report

# each scenario imports the library modules it runs in its own body, so a
# command loads only those


def run_tube_demo(family: str = "a31", field_char: int = 5, seed: int = 0) -> Report:
    """Reproduce the separation of the two divisibility classes attached
    to a rank-three tube: the length-two layers (and their translates)
    admit the socle simple in their class, the three simples do not."""
    from .artheory import (
        BoundSet, build_extension, defect, defect_function, is_isomorphic, tube_catalog, u_filtration)
    from .exactlin import PrimeField
    from .perpcat import class_compare, is_divisible
    from .quiverrep import ext1_dim, injective, projective, socle

    report = Report("tube_demo", {"family": family, "field": field_char, "seed": seed})
    field = PrimeField(field_char)
    catalog = tube_catalog(family, field)
    wide = [t for t in catalog.tubes if len(t) >= 3]
    if not wide:
        raise UnsupportedFamily(f"family {family!r} has no tube of rank >= 3")
    simple, t_simple, tminus_simple = wide[0][:3]
    layer2 = build_extension(tminus_simple, simple)
    t_layer2 = build_extension(simple, t_simple)

    e1 = ext1_dim(layer2, simple)
    report.add(
        "ext1(layer2, socle_simple) == 0",
        e1 == 0,
        inputs={"layer2_dims": layer2.dims, "simple_dims": simple.dims},
        values={"ext1": e1},
    )
    e2 = ext1_dim(t_layer2, simple)
    report.add(
        "ext1(translated_layer2, socle_simple) == 0",
        e2 == 0,
        inputs={"translated_layer2_dims": t_layer2.dims},
        values={"ext1": e2},
    )
    e3 = ext1_dim(tminus_simple, simple)
    report.add(
        "ext1(inverse_translate, socle_simple) != 0",
        e3 != 0,
        inputs={"inverse_translate_dims": tminus_simple.dims},
        values={"ext1": e3},
    )

    pair_set = BoundSet((layer2, t_layer2))
    triple_set = BoundSet((simple, t_simple, tminus_simple))
    testset = [simple, t_simple, tminus_simple, layer2, t_layer2]
    witness = class_compare(pair_set, triple_set, testset)
    in_pair = None if witness is None else is_divisible(witness, pair_set)
    in_triple = None if witness is None else is_divisible(witness, triple_set)
    report.add(
        "divisibility classes separated exactly at the socle simple",
        witness is not None and is_isomorphic(witness, simple) and in_pair and not in_triple,
        values={
            "witness_dims": None if witness is None else witness.dims,
            "witness_in_pair_class": in_pair,
            "witness_in_triple_class": in_triple,
        },
    )

    filt = u_filtration(layer2, (simple, tminus_simple))
    report.add(
        "layer2 is filtered by the socle simple and its inverse translate",
        filt is not None and filt.validate(layer2, (simple, tminus_simple)),
        values={"factors": None if filt is None else filt.factors},
    )
    # normalized to one on the regular module, the defect is positive on
    # the indecomposable projectives and negative on the injectives
    q = catalog.quiver
    df = defect_function(q)
    report.add(
        "tube members have zero defect",
        all(defect(df, m.dims) == 0 for m in (simple, t_simple, tminus_simple, layer2, t_layer2))
        and all(defect(df, projective(q, field, v).dims) > 0 for v in range(q.nvertices))
        and all(defect(df, injective(q, field, v).dims) < 0 for v in range(q.nvertices)),
        values={"radical_vector": df.radical_vector, "normalizer": df.normalizer},
    )
    soc, _ = socle(layer2)
    report.add(
        "socle of layer2 is the socle simple",
        is_isomorphic(soc, simple),
        values={"socle_dims": soc.dims},
    )
    return report


# The largest --random-ore dedekind accepts.  Each random set adds one check,
# so time, report size and memory grow linearly in the count: whole commands
# on a 2-vCPU VM (Python 3.11) took 0.38 s, 1.1 MB of text (2.4 MB as JSON)
# and 25 MB at 10,000 sets, and 2.5 s, 11 MB of text (24 MB as JSON) and
# 114 MB at 100,000, where 10^8 sets would run for about 40 minutes.
MAX_RANDOM_ORE = 10000


def run_dedekind_classify(primes=(2, 3, 5), ore_sets=(), random_ore: int = 0, seed: int = 0) -> Report:
    """Enumerate divisibility classes over a prime universe and cross-check
    multiplicative sets against their prime supports."""
    from .dedekind import (
        FgZModule, OreSet, PrimeSet, classify_tilting, is_divisible_by, u_set_of_ore, universal_localization_eq)

    universe = PrimeSet.of(*(int(p) for p in primes))
    report = Report(
        "dedekind_classify",
        {"primes": list(universe.primes), "ore_sets": [list(s) for s in ore_sets],
         "random_ore": random_ore, "seed": seed},
    )
    table = classify_tilting(universe)
    expected = 2 ** len(universe)
    # each witness is rechecked against its two classes, not through the
    # table's prime-by-prime membership; a (prime, class) pair is decided once
    classes = [PrimeSet(r.subset) for r in table.rows]
    member = functools.cache(lambda p, i: is_divisible_by(FgZModule.cyclic(p), classes[i]))
    separated = all(member(p, a) != member(p, b) for a, b, p in table.witnesses)
    pairs = {frozenset((a, b)) for a, b, _ in table.witnesses}
    report.add(
        "all subset classes pairwise distinct",
        table.num_classes == expected and len(table.witnesses) == len(pairs) == expected * (expected - 1) // 2
        and separated,
        inputs={"universe": list(universe.primes)},
        values={
            "classes": table.num_classes,
            "subsets": [list(r.subset) for r in table.rows],
            "witness_pairs": len(table.witnesses),
        },
    )
    rng = random.Random(seed)
    all_sets = [tuple(int(g) for g in s) for s in ore_sets]
    for _ in range(random_ore):
        all_sets.append(tuple(rng.randrange(1, 1000) for _ in range(rng.randrange(1, 4))))
    for gens in all_sets:
        ore = OreSet(gens)
        primes_of = u_set_of_ore(ore)
        ok = universal_localization_eq(ore)
        report.add(
            f"ore generators {list(gens)} invert exactly the primes {list(primes_of.primes)}",
            ok,
            values={"primes": list(primes_of.primes)},
        )
    return report


# The largest --dim free-envelope accepts.  Each trial acts by dim x dim
# blocks, so the time grows about as dim^3: whole commands on a 2-vCPU VM
# (Python 3.11) took 0.17 s at 64, 0.84 s at 128, 6.0 s at 256 and 18 s at
# 384 with --trials 1, and at the default 100 trials 7.6 s and 31 MB at 128
# against 61 s and 78 MB at 256.
MAX_ENVELOPE_DIM = 128
# The largest --trials free-envelope accepts.  Past the module's set-up the
# time grows linearly in the trials: whole commands on a 2-vCPU VM (Python
# 3.11) took 14 s and 37 MB at both caps (1,000 trials at dimension 128),
# 7.4 s at 100 trials there, and 0.08 s at 1,000 trials at the default
# dimension 2, where 10^8 trials would run for about 40 minutes.
MAX_ENVELOPE_TRIALS = 1000


def run_free_envelope(alphabet=("x", "y"), field_char: int = 7, seed: int = 0,
                      trials: int = 100, words=(), dim: int = 2) -> Report:
    """Exercise the inductive extension of a vector along reduced words on
    a module with invertible generator actions."""
    from .exactlin import PrimeField
    from .freegrp import (
        FreeWord, envelope_value, flatness_witness, parse_reduce, random_xdiv_module, reduce_letters, word)

    # a bad word is refused before any module is built or trial run
    parsed = [parse_reduce(text, alphabet) for text in words]
    report = Report(
        "free_envelope",
        {"alphabet": list(alphabet), "field": field_char, "seed": seed,
         "trials": trials, "words": list(words), "dim": dim},
    )
    field = PrimeField(field_char)
    module = random_xdiv_module(alphabet, field, dim, seed=seed)
    base = tuple(field.one for _ in range(dim))
    rng = random.Random(seed)

    failures = 0
    for _ in range(trials):
        letters = [(rng.choice(alphabet), rng.choice((1, -1))) for _ in range(rng.randrange(0, 13))]
        g = FreeWord(reduce_letters(letters))
        sym, e = rng.choice(alphabet), rng.choice((1, -1))
        lhs = envelope_value(base, g * word(sym, e), module)
        rhs = module.act(envelope_value(base, g, module), sym, e)
        if lhs != rhs:
            failures += 1
    report.add(
        "extension respects the action on sampled words",
        failures == 0,
        inputs={"trials": trials, "max_len": 12},
        values={"failures": failures},
    )

    # the monoid action from the generator matrices, not the letter table
    # that envelope_value reads
    on_rows = {s: m.transpose() for s, m in module.actions.items()}
    positive_fail = 0
    for _ in range(max(1, trials // 4)):
        syms = [rng.choice(alphabet) for _ in range(rng.randrange(0, 9))]
        g = FreeWord(tuple((s, 1) for s in syms))
        expected = base
        for s in syms:
            expected = tuple(on_rows[s].apply(expected))
        if envelope_value(base, g, module) != expected:
            positive_fail += 1
    report.add(
        "positive words act through the monoid action",
        positive_fail == 0,
        values={"failures": positive_fail},
    )

    for w in parsed:
        value = envelope_value(base, w, module)
        report.add(
            f"envelope value of {str(w)!r} returns to the base along the inverse word",
            envelope_value(value, w.inverse(), module) == base,
            inputs={"word": str(w)},
            values={"value": list(value)},
        )

    if len(alphabet) >= 2:
        wit = flatness_witness(alphabet, alphabet[0], alphabet[1], field)
        report.add(
            "flatness witness is nonzero with zero image",
            (not wit.pair[0].is_zero()) and (not wit.pair[1].is_zero()) and wit.image.is_zero(),
            values={"pair": [str(wit.pair[0]), str(wit.pair[1])], "image": str(wit.image)},
        )
    return report


# The largest --dim-cap perp-check accepts.  A Hom system on two modules of
# dimension cap at every vertex is 4 cap^2 square on a31, and its dense rows
# take memory as cap^4: at 32 the worst a31 pair over GF(1019) took 25 s and
# 346 MB on a 2-vCPU VM, so 64 would need about 5.5 GB.
MAX_DIM_CAP = 32
# The largest --trials perp-check accepts.  The time grows linearly in the
# trials: whole commands on a 2-vCPU VM (Python 3.11) took 0.72 s at 1,000
# trials and 3.2 s at 5,000 at the default dimension cap 4, and at both
# caps (1,000 trials at cap 32) 303 s and 225 MB on a31 (31 s at 100
# trials) and 6.3 s at 100 trials on the Kronecker quiver.
MAX_PERP_TRIALS = 1000


def run_perp_check(family: str = "kronecker", field_char: int = 5, trials: int = 40,
                   seed: int = 0, dim_cap: int = 4) -> Report:
    """Sample modules against bound modules and confirm that the three
    perpendicular-membership conditions agree, together with the
    bilinear-form identity for morphism and extension dimensions."""
    from .artheory import build_extension, tube_catalog
    from .exactlin import PrimeField
    from .perpcat import perp_conditions
    from .quiverrep import euler_form, hom_dim, hom_ext_dims, random_rep

    report = Report(
        "perp_check",
        {"family": family, "field": field_char, "trials": trials, "seed": seed, "dim_cap": dim_cap},
    )
    field = PrimeField(field_char)
    catalog = tube_catalog(family, field)
    q = catalog.quiver
    pool = list(catalog.members)
    first_tube = catalog.tubes[0]
    pool.append(build_extension(first_tube[len(first_tube) - 1], first_tube[0]))
    rng = random.Random(seed)

    disagreements = 0
    members = 0
    for _ in range(trials):
        M = random_rep(q, field, rng, dim_cap)
        U = pool[rng.randrange(len(pool))]
        rep = perp_conditions(M, U)
        if not rep.consistent:
            disagreements += 1
        if rep.member:
            members += 1
    report.add(
        "membership conditions agree on all samples",
        disagreements == 0,
        inputs={"trials": trials},
        values={"disagreements": disagreements, "members": members},
    )

    euler_fail = 0
    for _ in range(trials):
        M = random_rep(q, field, rng, dim_cap)
        N = random_rep(q, field, rng, dim_cap)
        h, e = hom_ext_dims(M, N)
        if euler_form(q, M.dims, N.dims) != h - e or h != hom_dim(M, N):
            euler_fail += 1
    report.add(
        "bilinear form equals hom minus ext on all samples",
        euler_fail == 0,
        inputs={"trials": trials},
        values={"failures": euler_fail},
    )
    return report


def run_custom(path: str, seed: int = 0) -> Report:
    """Parse a fixture file and validate everything in it."""
    from .dedekind import classify
    from .freegrp import reduce_letters
    from .parsefmt import parse_input
    from .quiverrep import euler_form, hom_dim, hom_ext_dims

    parsed = parse_input(path)
    with _any_int_digits():
        zmods = [str(m) for m in parsed.zmods]
    report = Report("custom", {
        "path": path,
        "seed": seed,
        "quivers": {name: {"vertices": q.nvertices, "arrows": len(q.arrows)}
                    for name, q in parsed.quivers.items()},
        "reps": {name: list(rep.dims) for name, rep in parsed.reps.items()},
        "zmods": zmods,
        "alphabet": list(parsed.alphabet) if parsed.alphabet else None,
        "words": [str(w) for w in parsed.words],
    })
    for name, rep in parsed.reps.items():
        h, e = hom_ext_dims(rep, rep)
        euler = euler_form(rep.quiver, rep.dims, rep.dims)
        report.add(
            f"rep {name}: bilinear form equals hom minus ext",
            euler == h - e and h == hom_dim(rep, rep),
            values={"dims": list(rep.dims), "euler": euler, "hom": h, "ext1": e},
        )
    for m, text in zip(parsed.zmods, zmods):
        report.add(f"zmod {text} is in canonical form", classify(m.presentation()) == m,
                   values={"free_rank": m.free_rank, "factors": list(m.invariant_factors)})
    for w in parsed.words:
        report.add(f"word {str(w)!r} is reduced", reduce_letters(w.letters) == w.letters)
    return report


@contextlib.contextmanager
def _any_int_digits():
    """Lift Python's cap on the digits of an int printed in decimal (4,300
    by default, where the running Python has one) while results are
    printed: a zmod line of 32 factors of 1000 bits has an invariant factor
    of about 9,600 digits.  Input is parsed under the cap, so no integer a
    report prints is longer than 32 times the cap."""
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else 0
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)


# ---------------------------------------------------------------------------
# argument parsing


class _Parser(argparse.ArgumentParser):
    """Refuses a bad command line in one line, with no usage block;
    subparsers are built from the same class."""

    def error(self, message):
        self.exit(2, _refusal(message))


def _shown(text: str) -> str:
    """A flag value as a refusal line echoes it: whole up to 20
    characters, otherwise its first 20 and its length."""
    return text if len(text) <= 20 else f"{text[:20]}... ({len(text)} characters)"


def _refusal(message: str) -> str:
    """The one line a refusal writes.  A message of up to 160 characters is
    written whole; in a longer one, which echoes some long value (a family,
    a word, a path, a directive, a command or a flag), every word is
    :func:`_shown`, and what is still past 160 characters is cut."""
    if len(message) > 160:
        message = " ".join(_shown(word) for word in message.split())
        if len(message) > 160:
            message = f"{message[:160]}... ({len(message)} characters)"
    return f"tiltlab: {message}\n"


def _count(least: int, most: int):
    """The argparse type of a count flag: an integer from ``least`` to
    ``most``, so a value past a cap is refused before anything is built;
    one with more digits than ``most`` is refused before ``int`` reads it."""

    def count(text: str) -> int:
        if not (text.isdecimal() and len(text.lstrip("0")) <= len(str(most)) and least <= int(text) <= most):
            raise argparse.ArgumentTypeError(f"must be an integer from {least} to {most}, got {_shown(text)}")
        return int(text)

    return count


def _integer(text: str) -> int:
    """The argparse type of ``--seed`` and ``--field``: an integer that
    ``int`` reads, within the running Python's digit limit."""
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"must be an integer, got {_shown(text)}") from None


def _int_list(text: str) -> tuple[int, ...]:
    """The integers of a comma-separated list; empty items are skipped."""
    try:
        return tuple(int(x) for x in text.split(",") if x.strip())
    except ValueError:
        raise argparse.ArgumentTypeError(f"must be comma-separated integers, got {_shown(text)}") from None


def _alphabet(text: str) -> tuple[str, ...]:
    from .freegrp import parse_alphabet

    symbols = parse_alphabet(text)
    if symbols is None:
        raise argparse.ArgumentTypeError(f"must list one or more distinct generators, got {_shown(text)}")
    return symbols


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="tiltlab",
        description="Finite-scale verification scenarios for tilting classes and localization arithmetic.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--format", choices=("text", "json"), default="text")
        p.add_argument("--seed", type=_integer, default=0)
        p.add_argument("--out", default=None, help="also write the report to this path")

    p = sub.add_parser("tube-demo", help="rank-3 tube divisibility-class separation")
    common(p)
    p.add_argument("--family", default="a31")
    p.add_argument("--field", type=_integer, default=5)
    p.set_defaults(run=lambda a: run_tube_demo(family=a.family, field_char=a.field, seed=a.seed))

    p = sub.add_parser("dedekind", help="classify divisibility classes over a prime universe")
    common(p)
    p.add_argument("--primes", type=_int_list, default="2,3,5", help="comma-separated primes (at most 6)")
    p.add_argument("--ore", type=_int_list, action="append", default=[],
                   help="comma-separated generators of a multiplicative set (repeatable)")
    p.add_argument("--random-ore", type=_count(0, MAX_RANDOM_ORE), default=0,
                   help="number of random generator sets to cross-check")
    p.set_defaults(run=lambda a: run_dedekind_classify(
        primes=a.primes, ore_sets=tuple(a.ore), random_ore=a.random_ore, seed=a.seed))

    p = sub.add_parser("free-envelope", help="inductive extension along free-group words")
    common(p)
    p.add_argument("--alphabet", type=_alphabet, default="x,y")
    p.add_argument("--field", type=_integer, default=7)
    p.add_argument("--trials", type=_count(1, MAX_ENVELOPE_TRIALS), default=100)
    p.add_argument("--dim", type=_count(0, MAX_ENVELOPE_DIM), default=2)
    p.add_argument("--word", action="append", default=[], help="word to evaluate (repeatable)")
    p.set_defaults(run=lambda a: run_free_envelope(
        alphabet=a.alphabet, field_char=a.field, seed=a.seed,
        trials=a.trials, words=tuple(a.word), dim=a.dim))

    p = sub.add_parser("perp-check", help="sampled agreement of perpendicular-membership conditions")
    common(p)
    p.add_argument("--family", default="kronecker")
    p.add_argument("--field", type=_integer, default=5)
    p.add_argument("--trials", type=_count(1, MAX_PERP_TRIALS), default=40)
    p.add_argument("--dim-cap", type=_count(0, MAX_DIM_CAP), default=4)
    p.set_defaults(run=lambda a: run_perp_check(
        family=a.family, field_char=a.field, trials=a.trials, seed=a.seed, dim_cap=a.dim_cap))

    p = sub.add_parser("custom", help="parse and validate a fixture file")
    common(p)
    p.add_argument("path")
    p.set_defaults(run=lambda a: run_custom(path=a.path, seed=a.seed))

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        report = args.run(args)
        with _any_int_digits():
            rendered = report.to_json() if args.format == "json" else report.to_text()
        sys.stdout.write(rendered)
        if args.out:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(rendered)
    except ParseError as exc:
        sys.stderr.write(_refusal(f"input error: {exc}"))
        return 2
    except (TiltlabError, ValueError, OSError) as exc:
        sys.stderr.write(_refusal(str(exc)))
        return 2
    except AssertionError as exc:
        # a broken internal invariant is a defect, not bad input; a bare
        # assert has no message, so name where it fired
        import traceback  # loaded on this path only, to keep start-up short

        frame = traceback.extract_tb(exc.__traceback__)[-1]
        where = f"{os.path.basename(frame.filename)}:{frame.lineno}"
        sys.stderr.write(_refusal(f"internal check failed: {str(exc) or 'assert'} at {where}"))
        return 1
    return 0 if report.all_passed else 1


if __name__ == "__main__":
    sys.exit(main())
