import itertools
import random
import signal
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (block_sum_reference, det, forward_packed_reference, gauss_jordan, greedy_basis_completion,
                     invariant_factors)

from tiltlab import exactlin
from tiltlab.dedekind import FgZModule, classify
from tiltlab.exactlin import QQ, IntMatrix, Matrix, PrimeField, _forward_gf2, _forward_packed, snf
from tiltlab.quiverrep import (QuiverRep, affine_a3_cycle, hom_space, hom_system, kronecker, presentation_tensor_terms,
                               proj_presentation)

F2 = PrimeField(2)
F5 = PrimeField(5)
F7 = PrimeField(7)


def test_kernel_of_identity_is_trivial():
    K = Matrix.identity(F5, 3).kernel_basis()
    assert K.shape == (3, 0)


def test_kernel_of_zero_map_is_everything():
    K = Matrix.zeros(F5, 2, 2).kernel_basis()
    assert K.shape == (2, 2)
    assert K.rank() == 2


def test_kernel_over_f2_matches_enumeration():
    A = Matrix(F2, [[1, 1]])
    K = A.kernel_basis()
    # enumerate all four vectors of F_2^2
    expected = [v for v in itertools.product([0, 1], repeat=2) if (v[0] + v[1]) % 2 == 0 and any(v)]
    assert expected == [(1, 1)]
    assert K.shape == (2, 1)
    assert K.column(0) == [1, 1]


def test_from_columns_rejects_a_column_of_wrong_length():
    with pytest.raises(ValueError, match="length"):
        Matrix.from_columns(F5, [[1, 2], [3]], 2)


def in_image(A: Matrix, b: list) -> bool:
    """``b`` lies in the column space of ``A``: the span's equations kill it."""
    return all(x == 0 for x in A.span().equations.apply(b))


def test_empty_matrices_behave_as_zero_space_maps():
    A = Matrix.zeros(F5, 0, 3)
    assert A.kernel_basis().rank() == 3
    assert A.span().equations.shape == (0, 0) and in_image(A, [])
    B = Matrix.zeros(F5, 3, 0)
    assert B.kernel_basis().shape == (0, 0)
    assert B.span().equations == Matrix.identity(F5, 3)
    assert in_image(B, [0, 0, 0])
    assert not in_image(B, [1, 0, 0])
    assert (A @ B.transpose().transpose()).shape == (0, 0)


def test_rank_nullity_on_random_matrices():
    rng = random.Random(0)
    for field in (F5, F7, QQ):
        for _ in range(200):
            r, c = rng.randrange(0, 5), rng.randrange(0, 5)
            A = Matrix(field, [[rng.randrange(-4, 5) for _ in range(c)] for _ in range(r)], c)
            assert A.rank() + A.kernel_basis().ncols == c


def test_kernel_then_solve_consistency():
    """``Ax = b`` is solvable for every ``b = Ay`` and for no complement
    column, and the kernel and the span's equations agree on the rank."""
    rng = random.Random(1)
    for _ in range(50):
        r, c = rng.randrange(1, 5), rng.randrange(1, 5)
        A = Matrix(F5, [[rng.randrange(5) for _ in range(c)] for _ in range(r)], c)
        K = A.kernel_basis()
        assert (A @ K).is_zero()
        sp = A.span()
        assert c - K.ncols == r - sp.equations.nrows
        for _ in range(5):
            assert in_image(A, A.apply([rng.randrange(5) for _ in range(c)]))
        for col in sp.complement.columns():
            assert not in_image(A, col)


def test_inverse_round_trip():
    A = Matrix(F5, [[1, 2], [3, 4]])
    Ainv = A.inverse()
    assert A @ Ainv == Matrix.identity(F5, 2)
    assert Matrix(F5, [[1, 2], [2, 4]]).inverse() is None


@pytest.mark.parametrize("field", [F2, F5, PrimeField(101), QQ], ids=repr)
def test_inverse_matches_reference(field):
    """``inverse`` is the right half of the Gauss-Jordan form of ``[A | I]``
    when the left half is ``I``, and ``None`` for singular or non-square
    ``A``."""
    rng = random.Random(29)
    p = None if field == QQ else field.p
    cases = [_random_matrix(field, rng, n, n) for n in (0, 1, 1, 2, 2, 3, 3, 4, 5, 6) for _ in range(4)]
    cases += [Matrix.zeros(field, n, n) for n in (1, 3)]
    for n in (2, 3, 4, 5):  # rank n - 1
        cases.append(_random_matrix(field, rng, n, n - 1) @ _random_matrix(field, rng, n - 1, n))
    cases += [_random_matrix(field, rng, m, n) for m, n in ((0, 2), (2, 0), (1, 2), (3, 2), (2, 5))]
    inverted = singular = 0
    for A in cases:
        Ainv = A.inverse()
        if A.nrows != A.ncols:
            assert Ainv is None
            continue
        n = A.nrows
        R, pivots = gauss_jordan([row + [int(i == j) for j in range(n)] for i, row in enumerate(A.rows)], p)
        if pivots[:n] == list(range(n)):
            assert Ainv.rows == [row[n:] for row in R]
            assert A @ Ainv == Matrix.identity(field, n) == Ainv @ A
            inverted += 1
        else:
            assert Ainv is None
            singular += 1
    assert inverted >= 10 and singular >= 6


def check_snf(A: IntMatrix):
    U, D, V = snf(A)
    assert (U @ A) @ V == D
    assert abs(det(U.rows)) == 1
    assert abs(det(V.rows)) == 1
    diag = D.diagonal()
    for i in range(D.nrows):
        for j in range(D.ncols):
            if i != j:
                assert D.rows[i][j] == 0
    for i, d in enumerate(diag):
        assert d >= 0
        if i + 1 < len(diag) and diag[i + 1] != 0:
            assert d != 0 and diag[i + 1] % d == 0
        if d == 0:
            assert all(x == 0 for x in diag[i:])
    return diag


def test_snf_diag_2_3():
    diag = check_snf(IntMatrix([[2, 0], [0, 3]]))
    assert diag == [1, 6]


def test_snf_identity():
    for n in (1, 2, 4):
        diag = check_snf(IntMatrix([[int(i == j) for j in range(n)] for i in range(n)], n))
        assert diag == [1] * n


def test_snf_gcd_row():
    diag = check_snf(IntMatrix([[4, 6]]))
    assert diag == [2]


def test_snf_empty_shapes():
    check_snf(IntMatrix([], ncols=3))
    check_snf(IntMatrix([[], [], []], ncols=0))


@pytest.mark.parametrize("make", [lambda rows, ncols: Matrix(F5, rows, ncols), IntMatrix],
                         ids=["Matrix", "IntMatrix"])
@pytest.mark.parametrize("rows, ncols, message", [
    ([[1, 2], [3]], None, "ragged rows"),
    ([[1, 2], [3]], 2, "ragged rows"),
    ([], None, "ncols required for a matrix with no rows"),
    ([[1, 2]], 3, "ncols disagrees with row length"),
    ([[], []], 1, "ncols disagrees with row length"),
], ids=["ragged", "ragged-with-ncols", "no-rows-no-ncols", "ncols-disagrees", "empty-rows-ncols-disagrees"])
def test_constructors_share_the_row_width_checks(make, rows, ncols, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        make(rows, ncols)


@settings(max_examples=120, deadline=None)
@given(
    st.lists(
        st.lists(st.integers(min_value=-30, max_value=30), min_size=1, max_size=4),
        min_size=1,
        max_size=4,
    ).filter(lambda rows: len({len(r) for r in rows}) == 1)
)
def test_snf_validity_random(rows):
    check_snf(IntMatrix(rows))


def test_snf_on_200_random_integer_matrices():
    rng = random.Random(2)
    for _ in range(200):
        r, c = rng.randrange(1, 6), rng.randrange(1, 6)
        A = IntMatrix([[rng.randrange(-25, 26) for _ in range(c)] for _ in range(r)])
        check_snf(A)


def _random_5x5(rng):
    return IntMatrix([[rng.randint(-100, 100) for _ in range(5)] for _ in range(5)])


def _max_bits(*mats: IntMatrix) -> int:
    return max((abs(x).bit_length() for M in mats for row in M.rows for x in row), default=0)


def _snf_within(A: IntMatrix, seconds: float):
    """``snf(A)``, or ``None`` when it runs for more than ``seconds`` of
    wall time."""
    def expire(signum, frame):
        raise TimeoutError

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        return snf(A)
    except TimeoutError:
        return None
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def test_snf_coefficients_stay_bounded_on_a_seeded_5x5():
    # a smallest-pivot division loop grows U and V to 12,202 bits here
    rng = random.Random(5)
    A = [_random_5x5(rng) for _ in range(5)][4]
    check_snf(A)
    assert _max_bits(*snf(A)) <= 512


def test_snf_coefficients_stay_bounded_on_200_random_5x5():
    # a smallest-pivot division loop runs for more than 0.5 s on about half
    # of these and grows U and V to thousands of bits on the rest; an input
    # over the wall cap is not checked further, and the test then fails
    rng = random.Random(5)
    over_cap = []
    for k in range(200):
        A = _random_5x5(rng)
        result = _snf_within(A, 0.5)
        if result is None:
            over_cap.append(k)
            continue
        check_snf(A)
        assert _max_bits(*result) <= 512, k
    assert over_cap == []


def test_snf_coefficients_stay_bounded_on_a_seeded_tall_rank_5_product():
    # A is a 6 x 5 product L R of rank 5, factors in [-100, 100].  The rows
    # of U at its nonzero invariant factors are fixed only up to the row of
    # U in A's left kernel; unreduced against it they reach 384 bits here,
    # while V stays near 35.
    rng = random.Random(3)
    L = IntMatrix([[rng.randint(-100, 100) for _ in range(5)] for _ in range(6)])
    A = L @ IntMatrix([[rng.randint(-100, 100) for _ in range(5)] for _ in range(5)])
    assert A.shape == (6, 5) and 0 not in check_snf(A)
    assert _max_bits(*snf(A)) <= 256


def _random_shapes(rng, count):
    """Integer matrices from 0 x 0 to 5 x 5: dense, low rank (products of
    thinner factors), sparse with repeated factors, and 5 x 5 with entries
    in [-100, 100]."""
    for k in range(count):
        r, c = rng.randrange(0, 6), rng.randrange(0, 6)
        kind = k % 4
        if kind == 0:
            yield IntMatrix([[rng.randint(-30, 30) for _ in range(c)] for _ in range(r)], c)
        elif kind == 1:
            rank = rng.randrange(0, min(r, c) + 1)
            L = [[rng.randint(-9, 9) for _ in range(rank)] for _ in range(r)]
            R = [[rng.randint(-9, 9) for _ in range(c)] for _ in range(rank)]
            yield IntMatrix([[sum(L[i][t] * R[t][j] for t in range(rank)) for j in range(c)] for i in range(r)], c)
        elif kind == 2:
            yield IntMatrix([[rng.choice((0, 0, 0, 1, -2, 4, 6, -12)) for _ in range(c)] for _ in range(r)], c)
        else:
            yield _random_5x5(rng)


def test_snf_and_classify_match_determinantal_divisors():
    for A in _random_shapes(random.Random(8), 240):
        factors = invariant_factors(A)
        assert check_snf(A) == factors
        nonzero = [d for d in factors if d]
        assert classify(A) == FgZModule(A.nrows - len(nonzero), tuple(d for d in nonzero if d > 1))


def test_prime_field_rejects_composites():
    with pytest.raises(ValueError):
        PrimeField(6)


@pytest.mark.parametrize("field", [F2, PrimeField(101), QQ], ids=repr)
def test_dot_on_empty_vectors_is_the_field_zero(field):
    zero = field.dot([], [])
    assert zero == field.zero and type(zero) is type(field.zero)
    assert type(field.dot((), ())) is (Fraction if field == QQ else int)


def _random_matrix(field, rng, nrows, ncols):
    draw = (lambda: rng.randrange(field.p)) if field != QQ else (lambda: rng.randrange(-3, 4))
    return Matrix(field, [[draw() for _ in range(ncols)] for _ in range(nrows)], ncols)


@pytest.mark.parametrize("field", [F2, F5, QQ], ids=repr)
def test_span_matches_greedy_reference(field):
    rng = random.Random(11)
    shapes = [(0, 0), (0, 3), (3, 0)] + [(rng.randrange(0, 7), rng.randrange(0, 8)) for _ in range(60)]
    for nrows, ncols in shapes:
        A = _random_matrix(field, rng, nrows, ncols)
        sp = A.span()
        r = A.rank()
        assert sp.basis.shape == (nrows, r) and sp.coords.shape == (r, nrows)
        assert sp.equations.shape == (nrows - r, nrows) and sp.complement.shape == (nrows, nrows - r)
        assert sp.basis.rank() == r and all(c in A.columns() for c in sp.basis.columns())
        assert sp.complement.columns() == greedy_basis_completion(field, sp.basis.columns(), nrows)
        assert sp.coords @ sp.basis == Matrix.identity(field, r)
        assert (sp.equations @ A).is_zero()
        assert sp.equations @ sp.complement == Matrix.identity(field, nrows - r)


@pytest.mark.parametrize("field", [PrimeField(2), PrimeField(3), PrimeField(101), QQ], ids=repr)
def test_rref_matches_reference(field):
    rng = random.Random(17)
    p = None if field == QQ else field.p
    shapes = [(0, 0), (0, 4), (4, 0), (2, 7), (7, 2), (1, 1)]
    shapes += [(rng.randrange(0, 9), rng.randrange(0, 9)) for _ in range(40)]
    cases = [_random_matrix(field, rng, m, n) for m, n in shapes]
    for _ in range(20):  # rank at most k < min(m, n)
        m, n = rng.randrange(2, 9), rng.randrange(2, 9)
        k = rng.randrange(0, min(m, n))
        cases.append(_random_matrix(field, rng, m, k) @ _random_matrix(field, rng, k, n))
    for A in cases:
        R, pivots = A.rref()
        expected_rows, expected_pivots = gauss_jordan(A.rows, p)
        assert R.shape == A.shape
        assert (R.rows, pivots) == (expected_rows, expected_pivots)


def _structured_cases(field, rng):
    """Matrices of 7 to 9 and of 47 to 48 columns and rows: dense,
    sparse rows, low-rank products, and zero rows and all-zero columns."""
    def sparse(m, n, density):
        return Matrix(field, [[rng.randrange(1, field.p) if rng.random() < density else 0 for _ in range(n)]
                              for _ in range(m)], n)

    def with_zero_lines(A, nrows, ncols):
        zero_rows, zero_cols = set(rng.sample(range(A.nrows), nrows)), set(rng.sample(range(A.ncols), ncols))
        return Matrix(field, [[0 if i in zero_rows or j in zero_cols else x for j, x in enumerate(row)]
                              for i, row in enumerate(A.rows)], A.ncols)

    edge = 48
    cases = [
        _random_matrix(field, rng, edge - 1, edge - 1),
        _random_matrix(field, rng, edge, edge),
        sparse(edge, edge, 0.08),
        with_zero_lines(_random_matrix(field, rng, edge, edge + 5), 6, 4),
        _random_matrix(field, rng, 60, 20) @ _random_matrix(field, rng, 20, 130),  # rank 20 at most
        with_zero_lines(sparse(130, 60, 0.05), 10, 5),
    ]
    edge = 8
    return cases + [
        _random_matrix(field, rng, edge - 1, edge - 1),
        _random_matrix(field, rng, edge - 1, edge + 9),
        _random_matrix(field, rng, edge, edge),
        _random_matrix(field, rng, edge + 1, edge + 1),
        sparse(edge, edge, 0.2),
        with_zero_lines(_random_matrix(field, rng, edge, edge + 5), 2, 3),
        _random_matrix(field, rng, 20, 3) @ _random_matrix(field, rng, 3, edge),  # rank 3 at most
        with_zero_lines(sparse(20, edge + 2, 0.3), 4, 2),
    ]


@pytest.mark.parametrize("p", [2, 3, 7, 101, 65521, 2**31 - 1])
def test_packed_rref_matches_reference(p, monkeypatch):
    """GF(p) rows for odd ``p`` are packed into ints with slots wide
    enough for ``p - 1 + k (p - 1)^2`` at every size; at ``2^31 - 1`` that
    is more than 64 bits.  GF(2) rows go to the XOR loop at every size,
    and never to the packed one."""
    field = PrimeField(p)
    packed_calls, xor_calls = [], []
    monkeypatch.setattr(exactlin, "_forward_packed",
                        lambda *args: packed_calls.append(args) or _forward_packed(*args))
    monkeypatch.setattr(exactlin, "_forward_gf2",
                        lambda rows, ncols: xor_calls.append((len(rows), ncols)) or _forward_gf2(rows, ncols))
    for A in _structured_cases(field, random.Random(p)):
        R, pivots = A.rref()
        assert (R.rows, pivots) == gauss_jordan(A.rows, p)
        if p == 2:
            assert (packed_calls, xor_calls) == ([], [A.shape])
        else:
            assert (len(packed_calls), xor_calls) == (1, [])
        packed_calls.clear()
        xor_calls.clear()



@pytest.mark.parametrize("field", [F2, PrimeField(3), PrimeField(101), PrimeField(2**31 - 1), QQ], ids=repr)
def test_the_field_alone_picks_the_forward_loop(field, monkeypatch):
    """Each ``_forward`` call runs exactly one loop, the one its field
    names, at every size, empty matrices included: XOR bytes over
    ``GF(2)``, packed slots over ``GF(p)`` with ``p > 2``, lists over
    ``QQ``.  ``block_sum_rank`` packs every ``GF(p)`` sum with ``p > 2``
    and ranks ``block_sum`` over the other two."""
    ran, block_sums, block_sum = [], [], Matrix.block_sum
    monkeypatch.setattr(exactlin, "_forward_gf2", lambda *args: ran.append("xor") or _forward_gf2(*args))
    monkeypatch.setattr(exactlin, "_forward_packed", lambda *args: ran.append("packed") or _forward_packed(*args))
    monkeypatch.setattr(Matrix, "block_sum", lambda *args: block_sums.append(args) or block_sum(*args))
    loop = "lists" if field == QQ else "xor" if field.p == 2 else "packed"
    p, rng = None if field == QQ else field.p, random.Random(5)
    for m, n in ((0, 0), (0, 5), (5, 0), (1, 1), (7, 9), (8, 8), (48, 48)):
        A = _random_matrix(field, rng, m, n)
        pivots = gauss_jordan(A.rows, p)[1]
        assert A.pivots() == pivots
        assert ran == ([] if loop == "lists" else [loop])
        ran.clear()
        assert Matrix.block_sum_rank(field, m, n, [(0, 0, 2, A), (0, 0, -1, A)]) == len(pivots)
        assert ran == ([] if loop == "lists" else [loop])
        assert len(block_sums) == (loop != "packed")
        ran.clear()
        block_sums.clear()


@pytest.mark.parametrize("p", [3, 5, 101])
def test_one_byte_slots_pack_and_unpack_as_the_struct_codec_does(p):
    """``_pack`` and ``_unpack`` read a one-byte slot as a plain byte; on
    rows of 0 to 63 slots, unreduced entries up to 255 included, they
    agree with the ``struct`` codec of one-byte slots."""
    rng = random.Random(p)
    for n in list(range(8)) + [rng.randrange(8, 64) for _ in range(40)]:
        vals = [rng.randrange(256) for _ in range(n)]
        packer, unpacker = exactlin._slot_codec(1, n)
        row = exactlin._pack(vals, 1)
        assert row == int.from_bytes(packer.pack(*vals), "big")
        if n and vals[0] % p:
            inv = pow(vals[0], -1, p)
            assert exactlin._unpack(row, n, 1, p) == [x * inv % p for x in unpacker.unpack(row.to_bytes(n, "big"))]

def test_packed_span_and_kernel_match_reference():
    field = PrimeField(101)
    rng = random.Random(3)
    A = _random_matrix(field, rng, 60, 25) @ _random_matrix(field, rng, 25, 130)
    m, n = A.ncols, A.nrows
    R, pivots = gauss_jordan(A.rows, 101)
    r = len(pivots)
    K = A.kernel_basis()
    assert r == 25 and K.shape == (m, m - r) and (A @ K).is_zero()
    assert K.columns() == _kernel_from_rref(R, pivots, field, m)
    sp = A.span()
    RI, pivots_i = gauss_jordan([row + [int(i == j) for j in range(n)] for i, row in enumerate(A.rows)], 101)
    assert pivots_i[:r] == pivots
    assert sp.basis.columns() == [A.column(c) for c in pivots]
    assert sp.coords.rows == [row[m:] for row in RI[:r]]
    assert sp.equations.rows == [row[m:] for row in RI[r:]]
    assert sp.complement.columns() == [[int(i == c - m) for i in range(n)] for c in pivots_i[r:]]
    assert sp.coords @ sp.basis == Matrix.identity(field, r)
    assert (sp.equations @ A).is_zero() and sp.equations @ sp.complement == Matrix.identity(field, n - r)


def _forward_pass_cases(field, rng):
    """Edges of 8 and of 48 over ``GF(p)`` (small shapes only over
    ``QQ``, which never packs): dense squares, rank-deficient
    wide and tall products, inputs with no free column, one and a few, the
    zero matrix, and zero-row and zero-column shapes."""
    def low_rank(m, n, k):
        return _random_matrix(field, rng, m, k) @ _random_matrix(field, rng, k, n)

    def free_columns(m, n, free):
        return _with_free_columns(field, rng, m, n, free)

    if field == QQ:
        return [_random_matrix(field, rng, 6, 6), low_rank(4, 9, 3), low_rank(9, 4, 2), free_columns(7, 4, 0),
                free_columns(7, 6, 1), Matrix.zeros(field, 3, 5), Matrix.zeros(field, 0, 4),
                Matrix.zeros(field, 4, 0), Matrix.zeros(field, 0, 0)] + [
                    _random_matrix(field, rng, m, n) for m, n in ((1, 3), (3, 1), (5, 8))]
    cases = []
    for edge in (8, 48):
        k = edge * 5 // 8  # 30 at 48, 5 at 8
        cases += [
            _random_matrix(field, rng, edge - 1, edge - 1),
            _random_matrix(field, rng, edge, edge),
            low_rank(edge - 1, edge + 20, k),  # wide, rank-deficient
            low_rank(edge, edge + 40, k),
            low_rank(edge + 30, edge - 1, edge * 5 // 12),  # tall, rank-deficient
            low_rank(edge + 30, edge, edge * 5 // 6),
            free_columns(edge + 10, edge - 1, 0),  # no free column
            free_columns(edge + 10, edge, 0),
            free_columns(edge + 3, edge, 1),
            free_columns(edge, edge + 3, 3),
            Matrix.zeros(field, edge - 1, edge - 1),
            Matrix.zeros(field, edge, edge),
            Matrix.zeros(field, 0, edge), Matrix.zeros(field, edge, 0),
        ]
    return cases + [Matrix.zeros(field, 0, 0), _random_matrix(field, rng, 3, 7), _random_matrix(field, rng, 7, 3)]


def _with_free_columns(field, rng, m, n, free):
    """An ``m x n`` matrix with exactly ``free`` free columns, for ``n -
    free <= m``: ``B C`` with ``B`` of full column rank ``n - free`` (the
    rows of the identity among random rows) and ``C`` the identity beside
    ``free`` random columns, its columns shuffled, of full row rank."""
    r = n - free
    rows = Matrix.identity(field, r).rows + _random_matrix(field, rng, m - r, r).rows
    rng.shuffle(rows)
    C = [row + extra for row, extra in zip(Matrix.identity(field, r).rows, _random_matrix(field, rng, r, free).rows)]
    order = list(range(n))
    rng.shuffle(order)
    return Matrix(field, rows, r) @ Matrix(field, [[row[j] for j in order] for row in C], n)


def _kernel_from_rref(R: list[list], pivots: list[int], field, ncols: int) -> list[list]:
    """The columns of ``kernel_basis`` as the rref reads them: per free
    column, one there and minus the rref's entry at each pivot."""
    free = [c for c in range(ncols) if c not in pivots]
    return [[field.one if c == fc else field.neg(R[pivots.index(c)][fc]) if c in pivots else field.zero
             for c in range(ncols)] for fc in free]


@pytest.mark.parametrize("field", [PrimeField(2), PrimeField(3), PrimeField(101), PrimeField(2**31 - 1), QQ],
                         ids=repr)
def test_rank_and_kernel_match_reference(field):
    """``rank`` and ``kernel_basis`` read the forward pass; they agree
    with the textbook Gauss-Jordan form and with ``rref``."""
    rng = random.Random(41)
    p = None if field == QQ else field.p
    for A in _forward_pass_cases(field, rng):
        R, pivots = gauss_jordan(A.rows, p)
        K = A.kernel_basis()
        assert A.rank() == len(pivots)
        assert A.pivots() == pivots
        assert K.shape == (A.ncols, A.ncols - len(pivots)) and (A @ K).is_zero()
        assert K.columns() == _kernel_from_rref(R, pivots, field, A.ncols)
        R2, pivots2 = A.rref()
        assert K.columns() == _kernel_from_rref(R2.rows, pivots2, field, A.ncols)


@pytest.mark.parametrize("field", [PrimeField(2), PrimeField(101), QQ], ids=repr)
def test_rank_and_kernel_skip_the_full_back_substitution(field, monkeypatch):
    """Neither ``rank`` nor ``kernel_basis`` calls ``rref``, and
    ``kernel_basis`` back-substitutes over the free columns only, and not
    at all when there is none."""
    rref_calls, back_cols = [], []
    back = exactlin._back_substitute
    monkeypatch.setattr(Matrix, "rref", lambda self: rref_calls.append(self.shape))
    monkeypatch.setattr(exactlin, "_back_substitute",
                        lambda f, e, piv, cols: back_cols.append(list(cols)) or back(f, e, piv, cols))
    rng = random.Random(43)
    for A in _forward_pass_cases(field, rng):
        pivots = A.pivots()
        free = [c for c in range(A.ncols) if c not in pivots]
        assert A.rank() == len(pivots)
        assert back_cols == []
        A.kernel_basis()
        assert back_cols == ([free] if free else [])
        back_cols.clear()
    assert rref_calls == []


@pytest.mark.parametrize("field", [PrimeField(2), PrimeField(101), QQ], ids=repr)
def test_span_back_substitutes_over_the_identity_columns_only(field, monkeypatch):
    """``span`` is the forward pass of ``[A | I]`` and back substitution
    over the ``n`` columns of ``I`` alone, never ``rref``; its basis,
    coordinates, equations and complement are the ones read off the
    Gauss-Jordan form of ``[A | I]``."""
    rref_calls, back_cols = [], []
    back = exactlin._back_substitute
    monkeypatch.setattr(Matrix, "rref", lambda self: rref_calls.append(self.shape))
    monkeypatch.setattr(exactlin, "_back_substitute",
                        lambda f, e, piv, cols: back_cols.append(list(cols)) or back(f, e, piv, cols))
    rng = random.Random(47)
    p = None if field == QQ else field.p
    for A in _forward_pass_cases(field, rng):
        n, m = A.shape
        R, pivots = gauss_jordan([row + [int(i == j) for j in range(n)] for i, row in enumerate(A.rows)], p)
        r = sum(1 for c in pivots if c < m)
        sp = A.span()
        assert back_cols == [list(range(m, m + n))]
        back_cols.clear()
        assert sp.basis.columns() == [A.column(c) for c in pivots[:r]]
        assert sp.coords.rows == [row[m:] for row in R[:r]]
        assert sp.equations.rows == [row[m:] for row in R[r:]]
        assert sp.complement.columns() == [[int(i == c - m) for i in range(n)] for c in pivots[r:]]
    assert rref_calls == []


@pytest.mark.parametrize("field", [F7, QQ], ids=repr)
def test_internal_results_are_canonical(field):
    """Results built without the constructor's coercion hold canonical
    scalars; a stray non-canonical entry would make ``==`` and ``is_zero``
    answer wrongly without any error."""
    def canonical(x):
        return type(x) is Fraction if field == QQ else type(x) is int and 0 <= x < field.p

    rng = random.Random(23)
    A, B = _random_matrix(field, rng, 4, 6), _random_matrix(field, rng, 4, 6)
    C = _random_matrix(field, rng, 6, 3) @ _random_matrix(field, rng, 3, 5)  # rank 3 of 6
    sp = C.span()
    results = [
        A.rref()[0], A @ C, C.kernel_basis(), A.transpose(), A.hstack(B), A.vstack(B),
        A + B, -A, A.scale(-3), Matrix.zeros(field, 2, 3), Matrix.identity(field, 3),
        sp.basis, sp.coords, sp.equations, sp.complement,
    ]
    Q = kronecker()
    M = QuiverRep(Q, field, [2, 3], [_random_matrix(field, rng, 3, 2) for _ in Q.arrows])
    N = QuiverRep(Q, field, [3, 2], [_random_matrix(field, rng, 2, 3) for _ in Q.arrows])
    homs = hom_space(M, N)  # dim Hom(M, N) >= <(2, 3), (3, 2)> = 4
    assert len(homs) >= 4
    results += [m for f in homs for m in f.maps]
    results.append(Matrix.block_sum(field, *presentation_tensor_terms(proj_presentation(M), N.dual())))
    blocks = [A, B, C, _random_matrix(field, rng, 2, 0)]
    results += [Matrix.block_sum(field, 9, 8, [(r, c, -k, X) for k, X in enumerate(blocks) for r, c in ((0, 0), (3, 2))]),
                Matrix.block_sum(field, 0, 3, []), Matrix.block_sum(field, 2, 0, [(0, 0, 5, Matrix.zeros(field, 2, 0))])]
    for R in results:
        assert all(canonical(x) for row in R.rows for x in row), R
        assert all(len(row) == R.ncols for row in R.rows) and len(R.rows) == R.nrows
    assert all(canonical(x) for x in A.apply([rng.randrange(-9, 9) for _ in range(6)]))


def test_the_packed_forward_pass_normalises_an_unreduced_pivot_slot(monkeypatch):
    """Clearing column 0 adds 6 times row 0 to row 1, which leaves 0 + 6 *
    6 = 36 in column 1, and only the reduction mod 7 makes it the pivot 1;
    no other row reaches column 1, so that slot is the one normalised."""
    rng, n = random.Random(61), 8
    rows = [[1, 6] + [rng.randrange(7) for _ in range(n - 2)], [1, 0] + [rng.randrange(7) for _ in range(n - 2)]]
    rows += [[0, 0] + [rng.randrange(7) for _ in range(n - 2)] for _ in range(n - 2)]
    A, tops, unpack = Matrix(F7, rows, n), [], exactlin._unpack

    def spy(row, k, nbytes, p):
        tops.append(row >> 8 * nbytes * (k - 1))
        return unpack(row, k, nbytes, p)

    monkeypatch.setattr(exactlin, "_unpack", spy)
    echelon, pivots = A._forward()
    assert tops[:2] == [1, 36] and pivots[:2] == [0, 1]
    assert all(row[c] == 1 and all(type(x) is int and 0 <= x < 7 for x in row) for row, c in zip(echelon, pivots))
    assert (A.rref()[0].rows, A.rref()[1]) == gauss_jordan(rows, 7)


def _forward_packed_on(p, rows, ncols):
    """``_forward_packed`` on the canonical rows ``rows``, packed as
    ``Matrix._forward`` packs them."""
    nbytes = exactlin._slot_bytes(p, min(len(rows), ncols))
    return _forward_packed(p, [exactlin._pack(row, nbytes) for row in rows], ncols, nbytes)


def _packed_differential_cases(field, rng):
    """Inputs of the packed forward pass: dense squares of 48 and 100,
    wide and tall low-rank products, whose later rows vanish partway
    through, all-zero columns in the middle, and the Hom systems of dense
    Kronecker (7, 7) and (10, 10) pairs and of affine A3 pairs."""
    def low_rank(m, n, k):
        return _random_matrix(field, rng, m, k) @ _random_matrix(field, rng, k, n)

    def rep(q, dims):
        return QuiverRep(q, field, dims, [_random_matrix(field, rng, dims[a.target], dims[a.source])
                                          for a in q.arrows], check=False)

    def hom_pair(q, dims_m, dims_n):
        return hom_system(rep(q, dims_m), rep(q, dims_n))[0]

    zero_cols = _random_matrix(field, rng, 60, 70)
    for row in zero_cols.rows:
        row[20:30] = [0] * 10
    return [
        _random_matrix(field, rng, 48, 48),
        _random_matrix(field, rng, 100, 100),
        low_rank(60, 150, 30),
        low_rank(150, 60, 25),
        zero_cols,
        hom_pair(kronecker(), (7, 7), (7, 7)),
        hom_pair(kronecker(), (10, 10), (10, 10)),
        hom_pair(affine_a3_cycle(), (5, 5, 5, 5), (5, 5, 5, 5)),
        hom_pair(affine_a3_cycle(), (4, 5, 3, 5), (5, 4, 5, 3)),
    ]


@pytest.mark.parametrize("p", [2, 3, 101, 65521, 2**31 - 1])
def test_the_packed_sweep_matches_the_lead_tracking_loop(p):
    """The column sweep picks the same pivot rows as the loop that tracks
    each row's lead, so the echelon rows agree exactly, not only the rref;
    ``2^31 - 1`` takes 16-byte slots."""
    field = PrimeField(p)
    for A in _packed_differential_cases(field, random.Random(p)):
        assert _forward_packed_on(p, A.rows, A.ncols) == forward_packed_reference(p, A.rows, A.ncols)


def _gf2_packed(rows):
    """``rows`` packed one byte per entry, as ``Matrix._forward`` packs
    ``GF(2)`` rows for the XOR loop."""
    return [int.from_bytes(bytes(row), "big") for row in rows]


def test_the_xor_sweep_matches_the_lead_tracking_loop():
    """Over ``GF(2)`` the XOR loop picks the pivot rows of the packed
    loop's reference, so the echelon rows and pivots agree exactly, on
    shapes of 7 to 9 and of 47 to 48 and on empty, zero-row and
    zero-column matrices."""
    rng = random.Random(2)
    cases = _structured_cases(F2, rng) + _packed_differential_cases(F2, rng) + [
        Matrix.zeros(F2, *shape) for shape in ((0, 0), (0, 5), (5, 0), (4, 4), (8, 8))]
    for A in cases:
        assert _forward_gf2(_gf2_packed(A.rows), A.ncols) == forward_packed_reference(2, A.rows, A.ncols)
        assert A._forward() == forward_packed_reference(2, A.rows, A.ncols)


def test_the_packed_sweep_masks_an_unreduced_zero_and_never_pivots_on_it(monkeypatch):
    """Clearing column 0 adds 6 times row 0 to row 1, which leaves 6 + 6 *
    6 = 42 in row 1's slot at column 1: nonzero, but zero mod 7.  So row 2
    is the pivot at column 1, and row 1's slot there is masked off before
    it becomes the pivot at column 2 with slot 3 + 6 * 0 = 3."""
    rng, n = random.Random(67), 8
    rows = [[1, 6, 0] + [rng.randrange(7) for _ in range(n - 3)], [1, 6, 3] + [rng.randrange(7) for _ in range(n - 3)],
            [0, 1] + [rng.randrange(7) for _ in range(n - 2)]]
    rows += [[0, 0, 0] + [rng.randrange(7) for _ in range(n - 3)] for _ in range(n - 3)]
    tops, unpack = [], exactlin._unpack

    def spy(row, k, nbytes, p):
        tops.append(row >> 8 * nbytes * (k - 1))
        return unpack(row, k, nbytes, p)

    monkeypatch.setattr(exactlin, "_unpack", spy)
    echelon, pivots = _forward_packed_on(7, rows, n)
    assert tops[:3] == [1, 1, 3] and pivots[:3] == [0, 1, 2] and echelon[1] == rows[2]
    assert (echelon, pivots) == forward_packed_reference(7, rows, n)
    A = Matrix(F7, rows, n)
    assert (A.rref()[0].rows, A.rref()[1]) == gauss_jordan(rows, 7)


# -- block sums ----------------------------------------------------------------


def _block_sum_cases(field, rng):
    """Random terms on random shapes, blocks recurring and overlapping,
    with zero coefficients and empty blocks; then every term the same
    block of ``-1`` entries, times ``-1``, at the same corner."""
    def coeff():
        x = rng.choice([0, 1, -1, rng.randrange(-10**9, 10**9)])
        return Fraction(x, rng.randint(1, 5)) if field == QQ else x

    cases = []
    for _ in range(30):
        nrows, ncols = rng.randint(0, 9), rng.randint(0, 9)
        blocks = [_random_matrix(field, rng, rng.randint(0, nrows), rng.randint(0, ncols)) for _ in range(3)]
        terms = []
        for _ in range(rng.randint(0, 20)):
            B = rng.choice(blocks)
            terms.append((rng.randint(0, nrows - B.nrows), rng.randint(0, ncols - B.ncols), coeff(), B))
        cases.append((nrows, ncols, terms))
    minus_one = Matrix(field, [[-1] * 4] * 3, 4)
    cases.append((5, 6, [(1, 2, -1, minus_one)] * 300))
    return cases


@pytest.mark.parametrize("field", [F2, PrimeField(3), PrimeField(101), PrimeField(2**31 - 1), QQ], ids=repr)
def test_block_sum_matches_the_per_row_loop(field):
    for nrows, ncols, terms in _block_sum_cases(field, random.Random(17)):
        out = Matrix.block_sum(field, nrows, ncols, terms)
        assert out == block_sum_reference(field, nrows, ncols, terms) and out.shape == (nrows, ncols)
    # the last case adds (-1) * (-1) to each entry it covers 300 times
    assert out.rows[1][2:6] == [field.coerce(300)] * 4 and out.rows[0] == [0] * 6


def _block_sum_rank_cases(field, rng):
    """Sums of 7, 8, 9, 47 and 48 columns: blocks that overlap and recur, with zero and large
    coefficients; a sum of three rank-one blocks; and 251, then 300,
    terms of ``(p - 1)^2`` meeting in every entry, plus the identity.
    Over ``GF(2)`` an entry of 251 terms fits a one-byte slot, and only
    slots sized for the row operations too, ``len(terms) + min(nrows,
    ncols)`` terms, hold what those add to it.  ``300 J + I``, for the
    all-ones ``J``, has determinant ``1 + 300 n``, a unit for every ``p``
    and ``n`` tested."""
    def coeff():
        return rng.choice([0, 1, -1, rng.randrange(-10**9, 10**9)])

    cases = []
    for ncols in (7, 8, 9, 47, 48):
        for nrows in (ncols - 1, ncols, ncols + 5):
            blocks = [_random_matrix(field, rng, rng.randint(1, nrows), rng.randint(1, ncols)) for _ in range(4)]
            blocks.append(_random_matrix(field, rng, nrows, ncols))
            terms = []
            for _ in range(rng.randint(5, 25)):
                B = rng.choice(blocks)
                terms.append((rng.randint(0, nrows - B.nrows), rng.randint(0, ncols - B.ncols), coeff(), B))
            cases.append((nrows, ncols, terms))
        rank_one = [_random_matrix(field, rng, ncols + 2, 1) @ _random_matrix(field, rng, 1, ncols) for _ in range(3)]
        cases.append((ncols + 2, ncols, [(0, 0, coeff(), B) for B in rank_one]))
        minus_one = Matrix(field, [[-1] * ncols] * ncols, ncols)
        for count in (251, 300):
            cases.append((ncols, ncols, [(0, 0, -1, minus_one)] * count + [(0, 0, 1, Matrix.identity(field, ncols))]))
    return cases


@pytest.mark.parametrize("p", [2, 3, 101, 65521, 2**31 - 1])
def test_block_sum_rank_matches_the_rank_of_the_block_sum(p, monkeypatch):
    """Over ``GF(p)`` with ``p > 2``, at every size, the rank reader
    hands the unreduced packed sum to the forward pass, which gives the
    echelon rows of the reduced sum exactly; over ``GF(2)`` it reads
    ``block_sum(...).rank()``, whose forward pass is the XOR loop.  All
    agree with the rank of the per-row reference sum."""
    field, forward = PrimeField(p), _forward_packed
    passes, xor_passes, block_sums = [], [], []

    def spy(q, rows, ncols, nbytes):
        passes.append((rows[:], ncols, nbytes))
        return forward(q, rows, ncols, nbytes)

    block_sum = Matrix.block_sum
    monkeypatch.setattr(exactlin, "_forward_packed", spy)
    monkeypatch.setattr(exactlin, "_forward_gf2",
                        lambda rows, ncols: xor_passes.append((rows[:], ncols)) or _forward_gf2(rows, ncols))
    monkeypatch.setattr(Matrix, "block_sum", lambda *args: block_sums.append(args) or block_sum(*args))
    for nrows, ncols, terms in _block_sum_rank_cases(field, random.Random(p)):
        expected = block_sum_reference(field, nrows, ncols, terms)
        rank = Matrix.block_sum_rank(field, nrows, ncols, terms)
        if p == 2:
            assert (len(block_sums), passes, xor_passes) == (1, [], [(_gf2_packed(expected.rows), ncols)])
        else:
            assert (len(block_sums), len(passes), xor_passes) == (0, 1, [])
            rows, _, nbytes = passes[0]
            assert nbytes == exactlin._slot_bytes(p, len(terms) + min(nrows, ncols))
            assert forward(p, rows, ncols, nbytes) == _forward_packed_on(p, expected.rows, ncols)
        assert rank == len(gauss_jordan(expected.rows, p)[1]) == block_sum(field, nrows, ncols, terms).rank()
        passes.clear()
        xor_passes.clear()
        block_sums.clear()
    # the last case holds 300 (p - 1)^2 in every entry before its row
    # operations, more than slots sized for 48 terms hold at small p
    assert rank == 48 and expected.rows[0][0] != 0
    if p < 5:
        assert exactlin._slot_bytes(p, 348) > exactlin._slot_bytes(p, 48)


@pytest.mark.parametrize("n", [7, 8, 20])
def test_gf2_block_sum_rank_cancels_a_block_taken_an_even_number_of_times(n):
    """Over ``GF(2)`` the terms add by XOR: the identity block taken an
    even number of times, by odd coefficients, cancels and leaves the two
    rows above it; taken an odd number of times it stays, of rank ``n``.
    Even coefficients add nothing either way."""
    rng = random.Random(n)
    I, top = Matrix.identity(F2, n), _random_matrix(F2, rng, 2, n)
    odd = [1, -1, 3, Fraction(1, 3), 10**9 + 7]
    for count in range(1, 7):
        terms = [(2, 0, rng.choice(odd), I) for _ in range(count)]
        terms += [(0, 0, 1, top), (2, 0, 2, I), (1, 0, Fraction(4, 3), I)]
        rng.shuffle(terms)
        rank = Matrix.block_sum_rank(F2, n + 2, n, terms)
        assert rank == len(gauss_jordan(block_sum_reference(F2, n + 2, n, terms).rows, 2)[1])
        assert rank == (top.rank() if count % 2 == 0 else n)


def test_block_sum_refuses_a_block_that_does_not_fit():
    B = Matrix(F5, [[1, 2], [3, 4]])
    for r, c in ((-1, 0), (2, 0), (0, 3), (0, -1)):
        with pytest.raises(ValueError, match="does not fit"):
            Matrix.block_sum(F5, 3, 4, [(r, c, 1, B)])
    with pytest.raises(ValueError, match="does not fit"):
        Matrix.block_sum(F7, 3, 4, [(0, 0, 1, B)])
    empty = [(3, 4, 1, Matrix.zeros(F5, 0, 0)), (0, 1, 2, Matrix.zeros(F5, 0, 3)), (1, 4, 2, Matrix.zeros(F5, 2, 0))]
    assert Matrix.block_sum(F5, 3, 4, [(1, 2, 1, B)] + empty).rows == [[0] * 4, [0, 0, 1, 2], [0, 0, 3, 4]]


# -- factoring over GF(p) ------------------------------------------------------


def gf_product(p, factors):
    """The product of ``(ascending coefficients, multiplicity)`` pairs mod ``p``."""
    out = [1]
    for coeffs, mult in factors:
        for _ in range(mult):
            prod = [0] * (len(out) + len(coeffs) - 1)
            for i, x in enumerate(out):
                for j, y in enumerate(coeffs):
                    prod[i + j] = (prod[i + j] + x * y) % p
            out = prod
    return out


def sympy_factors(p, f):
    """sympy's ``factor_list`` of ``f`` mod ``p``, made monic with
    coefficients in ``[0, p)``: the reference, order included."""
    import sympy

    x = sympy.Symbol("x")
    poly = sympy.Poly(sum(c * x**i for i, c in enumerate(f)), x, modulus=p)
    return [([int(c) % p for c in reversed(fac.monic().all_coeffs())], int(m)) for fac, m in poly.factor_list()[1]]


@pytest.mark.parametrize("p", [2, 3, 5, 7, 101])
def test_gf_factor_matches_sympy_order_included(p):
    # products of 1-4 random monic factors of degree 1-4, some repeated;
    # below 10, up to p + 1 times, so that the characteristic-p step runs
    pytest.importorskip("sympy")
    rng = random.Random(p)
    mults = (1, 1, 2, 3, p, p + 1) if p < 10 else (1, 1, 2, 3)
    for _ in range(40):
        pieces = [([rng.randrange(p) for _ in range(rng.randint(1, 4))] + [1], rng.choice(mults))
                  for _ in range(rng.randint(1, 4))]
        f = gf_product(p, pieces)
        assert exactlin._gf_factor(PrimeField(p), f) == sympy_factors(p, f), f


@pytest.mark.parametrize("p, f, expected", [
    (2, [1, 0, 0, 0, 1], [([1, 1], 4)]),  # x^4 + 1 = (x + 1)^4: f' = 0
    (3, gf_product(3, [([0, 2, 0, 1], 3)]), [([0, 1], 3), ([1, 1], 3), ([2, 1], 3)]),  # (x^3 - x)^3
    (2, [0, 1, 1], [([0, 1], 1), ([1, 1], 1)]),  # x^p - x: every linear factor once
    (5, [0, 4, 0, 0, 0, 1], [([a, 1], 1) for a in range(5)]),
    (7, [0, 6] + [0] * 5 + [1], [([a, 1], 1) for a in range(7)]),
    (2, [1, 1, 0, 1], [([1, 1, 0, 1], 1)]),  # irreducible: x^3 + x + 1
    (3, [1, 0, 1], [([1, 0, 1], 1)]),  # x^2 + 1
    (101, [1, 1, 0, 1], [([1, 1, 0, 1], 1)]),  # x^3 + x + 1
    (101, [7, 1], [([7, 1], 1)]),  # degree 1
    (2, [1, 1], [([1, 1], 1)]),
], ids=["x4+1/GF2", "(x3-x)^3/GF3", "x2-x/GF2", "x5-x/GF5", "x7-x/GF7", "x3+x+1/GF2", "x2+1/GF3", "x3+x+1/GF101",
        "x+7/GF101", "x+1/GF2"])
def test_gf_factor_on_inseparable_irreducible_and_linear_inputs(p, f, expected):
    assert exactlin._gf_factor(PrimeField(p), f) == expected
    pytest.importorskip("sympy")
    assert sympy_factors(p, f) == expected


def test_gf_factor_is_fast_at_the_largest_prime():
    p = 2**31 - 1
    assert pow(3, (p - 1) // 2, p) == pow(5, (p - 1) // 2, p) == p - 1  # x^2 - 3, x^2 + 5x - 5 irreducible:
    assert (25 + 20) % p and pow(25 + 20, (p - 1) // 2, p) == p - 1     # non-square discriminants
    assert pow(5, (p - 1) // 3, p) != 1  # x^3 - 5 irreducible, 5 not a cube (p = 1 mod 3)
    pieces = [([p - 3, 0, 1], 1), ([p - 5, 5, 1], 1), ([p - 5, 0, 0, 1], 1)]
    field = PrimeField(p)
    start = time.perf_counter()
    factors = exactlin._gf_factor(field, gf_product(p, pieces))
    assert time.perf_counter() - start < 0.5
    assert factors == pieces


@pytest.mark.parametrize("call, error, message", [
    (lambda: Matrix(F5, [[1, 2]]) @ Matrix(F5, [[1, 2]]), ValueError, "shape mismatch (1, 2) @ (1, 2)"),
    (lambda: Matrix(F5, [[1, 2]]).apply([1]), ValueError, "vector length mismatch"),
    (lambda: Matrix(F5, [[1]]).hstack(Matrix(F5, [[1], [2]])), ValueError, "row count mismatch"),
    (lambda: Matrix(F5, [[1]]).vstack(Matrix(F5, [[1, 2]])), ValueError, "column count mismatch"),
    (lambda: Matrix(F5, [[1]]) + Matrix(F7, [[1]]), ValueError, "field mismatch"),
    (lambda: Matrix(F5, [[1]]) + Matrix(F5, [[1, 2]]), ValueError, "shape mismatch (1, 1) vs (1, 2)"),
    (lambda: IntMatrix([[1, 2]]) @ IntMatrix([[1, 2]]), ValueError, "shape mismatch (1, 2) @ (1, 2)"),
    (lambda: F5.inv(0), ZeroDivisionError, "inverse of zero"),
    (lambda: QQ.inv(0), ZeroDivisionError, "inverse of zero"),
], ids=["matmul-shape", "apply-length", "hstack-rows", "vstack-columns", "add-field", "add-shape",
        "intmatrix-matmul-shape", "gf-inverse-of-zero", "qq-inverse-of-zero"])
def test_bad_input_is_refused_by_name(call, error, message):
    with pytest.raises(error) as info:
        call()
    assert str(info.value) == message
