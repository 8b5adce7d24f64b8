import functools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tiltlab.errors import SameGenerator
from tiltlab.exactlin import QQ, Matrix, PrimeField
from tiltlab.freegrp import (
    BLOCK_LEN,
    FreeWord,
    GroupAlgElem,
    XDivModule,
    envelope_value,
    envelope_value_alg,
    flatness_witness,
    parse_reduce,
    random_xdiv_module,
    reduce_letters,
    word,
)

F7 = PrimeField(7)
AB = ("x", "y")


def test_parse_cancellation():
    assert parse_reduce("x y y^-1 x", AB) == FreeWord((("x", 1), ("x", 1)))


def test_parse_empty_is_identity():
    assert parse_reduce("", AB) == FreeWord(())


def test_parse_leading_cancellation():
    assert parse_reduce("x^-1 x y", AB) == FreeWord((("y", 1),))


def test_parse_unknown_symbol():
    with pytest.raises(ValueError, match="^unknown generator 'z'$"):
        parse_reduce("x z", AB)


def test_envelope_value_on_a_long_word():
    # far beyond the interpreter's recursion limit; checked against the
    # letter-by-letter action
    module = random_xdiv_module(AB, F7, 2, seed=4)
    rng = random.Random(4)
    letters = []
    while len(letters) < 2000:
        letter = (rng.choice(AB), rng.choice((1, -1)))
        if not letters or letters[-1] != (letter[0], -letter[1]):
            letters.append(letter)
    expected = (1, 2)
    for sym, e in letters:
        expected = module.act(expected, sym, e)
    assert envelope_value((1, 2), FreeWord(tuple(letters)), module) == expected


def test_parse_length_cap():
    with pytest.raises(ValueError, match="^reduced word length 17 exceeds cap 16$"):
        parse_reduce(" ".join(["x"] * 17), AB)


def test_parse_is_idempotent():
    w = parse_reduce("x y^-1 x x", AB)
    assert parse_reduce(str(w), AB) == w


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_reduction_confluent_under_insertions(data):
    # build a reduced word, then splice cancelling pairs anywhere; the
    # reduction must recover the original
    base = data.draw(
        st.lists(st.tuples(st.sampled_from(AB), st.sampled_from([1, -1])), max_size=8)
    )
    reduced = list(reduce_letters(base))
    noisy = list(reduced)
    for _ in range(data.draw(st.integers(0, 6))):
        pos = data.draw(st.integers(0, len(noisy)))
        sym = data.draw(st.sampled_from(AB))
        e = data.draw(st.sampled_from([1, -1]))
        noisy[pos:pos] = [(sym, e), (sym, -e)]
    assert reduce_letters(noisy) == tuple(reduced)


def test_word_times_inverse_is_identity():
    w = parse_reduce("x y x^-1", AB)
    assert w * w.inverse() == FreeWord(())


def test_group_algebra_identity_and_units():
    x = GroupAlgElem.of(F7, word("x"))
    xinv = GroupAlgElem.of(F7, word("x", -1))
    one = GroupAlgElem.of(F7, FreeWord(()))
    assert x * xinv == one
    s = GroupAlgElem.of(F7, word("x")) + GroupAlgElem.of(F7, word("y"))
    assert s * one == s
    assert x * x == GroupAlgElem.of(F7, FreeWord((("x", 1), ("x", 1))))


def test_group_algebra_associativity_sampled():
    rng = random.Random(40)

    def rand_elem():
        terms = {}
        for _ in range(rng.randrange(0, 5)):
            letters = [(rng.choice(AB), rng.choice((1, -1))) for _ in range(rng.randrange(0, 4))]
            terms[FreeWord(reduce_letters(letters))] = rng.randrange(1, 7)
        return GroupAlgElem(F7, terms)

    for _ in range(100):
        a, b, c = rand_elem(), rand_elem(), rand_elem()
        assert (a * b) * c == a * (b * c)


def test_envelope_one_dimensional_inverse():
    m = XDivModule(F7, ("x",), {"x": Matrix(F7, [[2]])})
    assert envelope_value((1,), word("x", -1), m) == (4,)  # 2*4 = 1 mod 7


def test_envelope_identity_is_base():
    m = random_xdiv_module(AB, F7, 3, seed=1)
    base = (1, 2, 3)
    assert envelope_value(base, FreeWord(()), m) == base


def test_envelope_positive_words_act_directly():
    m = XDivModule(F7, AB, {"x": Matrix(F7, [[2]]), "y": Matrix(F7, [[3]])})
    assert envelope_value((1,), parse_reduce("x y", AB), m) == (6,)


def test_envelope_is_module_homomorphism_at_bounded_degree():
    rng = random.Random(41)
    m = random_xdiv_module(AB, F7, 2, seed=2)
    base = (1, 1)
    for _ in range(100):
        letters = [(rng.choice(AB), rng.choice((1, -1))) for _ in range(rng.randrange(0, 13))]
        g = FreeWord(reduce_letters(letters))
        sym, e = rng.choice(AB), rng.choice((1, -1))
        extended = g * word(sym, e)
        lhs = envelope_value(base, extended, m)
        rhs = m.act(envelope_value(base, g, m), sym, e)
        assert lhs == rhs


def test_envelope_agrees_with_monoid_action_on_positive_words():
    rng = random.Random(42)
    m = random_xdiv_module(AB, F7, 2, seed=3)
    base = (2, 5)
    for _ in range(30):
        syms = [rng.choice(AB) for _ in range(rng.randrange(0, 8))]
        g = FreeWord(tuple((s, 1) for s in syms))
        expected = base
        for s in syms:
            expected = m.act(expected, s, 1)
        assert envelope_value(base, g, m) == expected


def test_envelope_linear_extension():
    m = XDivModule(F7, AB, {"x": Matrix(F7, [[2]]), "y": Matrix(F7, [[3]])})
    elem = GroupAlgElem.of(F7, word("x")) + GroupAlgElem.of(F7, word("y", -1), 2)
    # f(x) = 2, f(y^-1) = 3^-1 = 5; 2 + 2*5 = 12 = 5 mod 7
    assert envelope_value_alg((1,), elem, m) == (5,)


def test_flatness_witness():
    wit = flatness_witness(AB, "x", "y", F7)
    assert wit.image.is_zero()
    assert not wit.pair[0].is_zero()
    assert not wit.pair[1].is_zero()
    flipped = flatness_witness(AB, "y", "x", F7)
    # symmetric up to sign: components swap and negate
    assert flipped.pair[0] == -wit.pair[1]
    assert flipped.pair[1] == -wit.pair[0]
    assert flipped.image.is_zero()


def test_flatness_witness_needs_distinct_generators():
    with pytest.raises(SameGenerator):
        flatness_witness(AB, "x", "x", F7)


def _module_over(field, rng, dim, alphabet=AB):
    """Random invertible actions with entries in [-3, 3]."""
    actions = {}
    for sym in alphabet:
        while True:
            m = Matrix(field, [[rng.randint(-3, 3) for _ in range(dim)] for _ in range(dim)], dim)
            if m.is_invertible():
                actions[sym] = m
                break
    return XDivModule(field, alphabet, actions)


@pytest.mark.parametrize("field", [F7, QQ], ids=str)
def test_act_matches_the_transposed_action(field):
    """``act`` applies the stored rows without coercing the vector; over
    GF(7) any integer representative, negative ones included, gives the
    canonical result that ``Matrix.apply`` gives after coercing."""
    rng = random.Random(9)
    for _ in range(20):
        module = _module_over(field, rng, 3)
        actions = module.actions
        raw = [rng.randint(-20, 20) for _ in range(3)]
        vec = raw if field == F7 else [Fraction(x, rng.randint(1, 5)) for x in raw]
        for sym in AB:
            assert module.act(vec, sym, 1) == tuple(actions[sym].transpose().apply(vec))
            assert module.act(vec, sym, -1) == tuple(actions[sym].inverse().transpose().apply(vec))


def test_act_rejects_a_vector_of_the_wrong_length():
    module = random_xdiv_module(AB, F7, 2, seed=1)
    with pytest.raises(ValueError):
        module.act((1, 2, 3), "x")


@pytest.mark.parametrize("e", [0, 2, -2])
def test_act_rejects_an_exponent_other_than_plus_or_minus_one(e):
    module = random_xdiv_module(AB, F7, 2, seed=1)
    with pytest.raises(ValueError):
        module.act((1, 2), "x", e)


def _rand_reduced(rng, n):
    return reduce_letters([(rng.choice(AB), rng.choice((1, -1))) for _ in range(n)])


def _reduced_of_length(rng, alphabet, n):
    """Uniform reduced word of exactly ``n`` letters."""
    letters = []
    while len(letters) < n:
        sym, e = rng.choice(alphabet), rng.choice((1, -1))
        if not letters or letters[-1] != (sym, -e):
            letters.append((sym, e))
    return FreeWord(tuple(letters))


ALPHABETS = [("x",), AB, ("x", "y", "z")]


@pytest.mark.parametrize("dim", [0, 1, 3])
@pytest.mark.parametrize("alphabet", ALPHABETS, ids=len)
@pytest.mark.parametrize("field", [PrimeField(2), PrimeField(101), QQ], ids=str)
def test_block_walk_matches_the_letter_by_letter_action(field, alphabet, dim):
    """Lengths 0-13 take every remainder mod the block length and up to
    three full blocks."""
    rng = random.Random(45)
    module = _module_over(field, rng, dim, alphabet)
    base = tuple(field.coerce(rng.randint(-5, 5)) for _ in range(dim))
    for n in range(14):
        for _ in range(4):
            w = _reduced_of_length(rng, alphabet, n)
            expected = functools.reduce(lambda v, letter: module.act(v, *letter), w.letters, base)
            assert envelope_value(base, w, module) == expected


@pytest.mark.parametrize("alphabet", ALPHABETS, ids=len)
def test_block_table_holds_at_most_the_reduced_runs_of_block_length(alphabet):
    rng = random.Random(46)
    module = _module_over(F7, rng, 2, alphabet)
    for _ in range(200):
        envelope_value((1, 0), _reduced_of_length(rng, alphabet, rng.randrange(0, 40)), module)
    k = len(alphabet)
    assert len(module._blocks) <= sum(2 * k * (2 * k - 1) ** (j - 1) for j in range(1, BLOCK_LEN + 1))


def _rand_elem_with_shared_prefixes(field, rng):
    """Terms that extend a few common stems, times the inverses of some of
    them (products that cancel fully), plus the identity."""
    stems = [_rand_reduced(rng, rng.randrange(0, 6)) for _ in range(3)]
    a = GroupAlgElem(field, {FreeWord(reduce_letters(rng.choice(stems) + _rand_reduced(rng, rng.randrange(0, 4)))):
                             rng.randrange(1, 5) for _ in range(rng.randrange(4, 12))})
    back = GroupAlgElem(field, {w.inverse(): rng.randrange(1, 5) for w in list(a.terms)[:3]})
    terms = dict((a + a * back).terms)
    terms[FreeWord(())] = 1
    return GroupAlgElem(field, terms)


class _CountingTable(dict):
    reads = 0

    def __getitem__(self, letter):
        self.reads += 1
        return super().__getitem__(letter)


@pytest.mark.parametrize("field", [PrimeField(2), F7, PrimeField(101), QQ], ids=str)
def test_envelope_value_alg_is_the_plain_sum(field):
    """The prefix-sharing evaluation equals the sum of ``c * value(w)``
    over the terms and makes one action per distinct nonempty prefix."""
    rng = random.Random(44)
    for _ in range(15):
        module = _module_over(field, rng, 3)
        base = tuple(field.coerce(rng.randint(-5, 5)) for _ in range(3))
        elem = _rand_elem_with_shared_prefixes(field, rng)
        expected = [field.zero] * 3
        for w, c in elem.terms.items():
            value = envelope_value(base, w, module)
            expected = [field.add(a, field.mul(c, b)) for a, b in zip(expected, value)]
        module._letters = _CountingTable(module._letters)
        assert envelope_value_alg(base, elem, module) == tuple(expected)
        prefixes = {w.letters[:i] for w in elem.terms for i in range(1, len(w) + 1)}
        assert module._letters.reads == len(prefixes)
    assert envelope_value_alg(base, GroupAlgElem.zero(field), module) == (field.zero,) * 3


def test_envelope_value_alg_checks_the_base():
    module = random_xdiv_module(AB, F7, 2, seed=1)
    with pytest.raises(ValueError):
        envelope_value_alg((1, 2, 3), GroupAlgElem.zero(F7), module)


reduced_words = st.lists(st.tuples(st.sampled_from(AB), st.sampled_from([1, -1])), max_size=10).map(reduce_letters)


@settings(max_examples=200, deadline=None)
@given(reduced_words, reduced_words)
def test_word_product_cancels_like_full_reduction(a, b):
    # products and inverses skip the reducedness check; they must equal,
    # and hash like, the validated words, full cancellation included
    u, v = FreeWord(a), FreeWord(b)
    for got, want in ((u * v, FreeWord(reduce_letters(a + b))),
                      (u.inverse(), FreeWord(tuple((sym, -e) for sym, e in reversed(a)))),
                      (u * u.inverse(), FreeWord(())),
                      (u.inverse() * u, FreeWord(()))):
        assert got == want and hash(got) == hash(want)


def test_free_word_checks_its_letters():
    with pytest.raises(ValueError, match="word is not reduced"):
        FreeWord((("x", 1), ("y", 1), ("y", -1)))
    for e in (2, 1.0, True):
        with pytest.raises(ValueError, match="exponents must be"):
            FreeWord((("x", e),))


def test_equal_words_merge_as_dict_keys():
    a, b = FreeWord((("x", 1), ("y", -1))), word("x") * word("y", -1)
    assert a is not b and a == b and hash(a) == hash(b) and a != word("x")
    assert len({a: 1, b: 2}) == 1
    assert (GroupAlgElem.of(F7, a) + GroupAlgElem.of(F7, b)).terms == {a: 2}


def test_words_share_their_letter_objects():
    def fresh(letters):
        # tuples built at run time, so no two are one shared constant
        return tuple([tuple([sym, e]) for sym, e in letters])

    assert fresh([("x", 1)])[0] is not fresh([("x", 1)])[0]
    u, v = parse_reduce("x y^-1 y^-1 x", AB), parse_reduce("x^-1 y x", AB)
    for w in (u, FreeWord(fresh(u.letters)), u * v, u.inverse(), v.inverse() * u.inverse()):
        same = FreeWord(fresh(w.letters))
        assert all(a is b for a, b in zip(w.letters, same.letters))
        assert w == same and hash(w) == hash(same)


def test_xdiv_module_rejects_singular_action():
    with pytest.raises(ValueError):
        XDivModule(F7, ("x",), {"x": Matrix(F7, [[0]])})
