"""Oracle and property tests for the F2 linear algebra core.

The oracles here are deliberately naive and independent of the package
implementation: rank by maximal-independent-subset search over all row
subsets, kernel/solve by exhaustive vector enumeration.  The kernel and
solve oracles read a map by the rows of its matrix acting on column
vectors; the package stores a map as its table of images (row i is the
image of basis vector i), which is the transpose, so they are fed
``m.transpose().data``.
"""

import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from f2alg.f2linalg import Echelon, F2Matrix, Subspace, bits_of


# ---------------------------------------------------------------- oracles

def oracle_rank(rows, cols):
    """Size of the largest F2-independent subset of the rows."""
    best = 0
    n = len(rows)
    for size in range(n, 0, -1):
        for subset in itertools.combinations(range(n), size):
            # independent iff no nonempty sub-subset XORs to zero
            ok = True
            for k in range(1, 1 << size):
                acc = 0
                for i in range(size):
                    if k >> i & 1:
                        acc ^= rows[subset[i]]
                if acc == 0:
                    ok = False
                    break
            if ok:
                return size
    return 0


def oracle_kernel(rows, cols):
    out = set()
    for v in range(1 << cols):
        if all((r & v).bit_count() % 2 == 0 for r in rows):
            out.add(v)
    return out


def oracle_solutions(rows, cols, b):
    out = set()
    for x in range(1 << cols):
        img = 0
        for i, r in enumerate(rows):
            if (r & x).bit_count() % 2:
                img |= 1 << i
        if img == b:
            out.add(x)
    return out


small_matrix = st.integers(1, 5).flatmap(
    lambda c: st.integers(1, 5).flatmap(
        lambda r: st.lists(st.integers(0, (1 << c) - 1), min_size=r, max_size=r).map(
            lambda data: F2Matrix(r, c, data)
        )
    )
)


# ---------------------------------------------------------------- fixed examples

def test_rank_identity():
    assert F2Matrix(2, 2, [0b01, 0b10]).rank() == 2


def test_rank_zero():
    assert F2Matrix(3, 5).rank() == 0


def test_rank_dependent_rows():
    # rows 110, 011, 101: third is the sum of the first two
    rows = [0b011, 0b110, 0b101]
    m = F2Matrix(3, 3, rows)
    assert m.rank() == 2
    assert m.rank() == oracle_rank(rows, 3)


def test_kernel_identity():
    k = F2Matrix(3, 3, [1, 2, 4]).left_kernel()
    assert k.dim == 0


def test_kernel_zero_matrix():
    # the zero map F2^3 -> F2^2
    k = F2Matrix(3, 2, [0, 0, 0]).left_kernel()
    assert k.dim == 3


def test_kernel_one_row():
    # (1 1), i.e. both basis vectors map to 1: kernel is span{(1,1)}
    k = F2Matrix(2, 1, [1, 1]).left_kernel()
    assert k.dim == 1
    assert k.basis == [0b11]
    assert oracle_kernel([0b11], 2) == {0, 0b11}


def test_solve_identity():
    m = F2Matrix(3, 3, [1, 2, 4])
    assert m.solve(0b101) == 0b101


def test_solve_inconsistent():
    assert F2Matrix(2, 2, [0, 0]).solve(0b01) is None


def test_solve_underdetermined_deterministic():
    # (1 1 | 1): solutions {(1,0),(0,1)}; the first independent row is
    # basic and free rows get zero, so x = (1,0)
    m = F2Matrix(2, 1, [1, 1])
    assert m.solve(1) == 0b01
    assert m.solve(1) in oracle_solutions([0b11], 2, 1)


# ---------------------------------------------------------------- properties

@settings(max_examples=150, deadline=None)
@given(small_matrix)
def test_rank_matches_bruteforce(m):
    assert m.rank() == oracle_rank(m.data, m.cols)


@settings(max_examples=150, deadline=None)
@given(small_matrix)
def test_rank_nullity(m):
    assert m.rank() + m.left_kernel().dim == m.rows


@settings(max_examples=150, deadline=None)
@given(small_matrix)
def test_kernel_vectors_annihilate(m):
    k = m.left_kernel()
    assert len(set(oracle_kernel(m.transpose().data, m.rows))) == 1 << k.dim
    for v in k.basis:
        assert m.apply_rowspace(v) == 0


@settings(max_examples=150, deadline=None)
@given(small_matrix)
def test_solve_exact_or_none(m):
    # every right-hand side on the one matrix, so all calls after the
    # first reuse its elimination; x is the same as from a fresh matrix
    for b in range(1 << m.cols):
        x = m.solve(b)
        assert x == F2Matrix(m.rows, m.cols, list(m.data)).solve(b)
        sols = oracle_solutions(m.transpose().data, m.rows, b)
        if x is None:
            assert not sols
        else:
            assert m.apply_rowspace(x) == b
            assert x in sols


@settings(max_examples=100, deadline=None)
@given(small_matrix)
def test_transpose_involution_and_rank(m):
    t = m.transpose()
    assert t.transpose() == m
    assert t.rank() == m.rank()


# ---------------------------------------------------------------- subspaces

def test_subspace_membership_and_sum():
    a = Subspace.span(4, [0b0011, 0b0110])
    b = Subspace.span(4, [0b1100])
    assert a.contains(0b0101)
    assert not a.contains(0b1000)
    s = a.sum(b)
    assert s.dim == 3


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.integers(0, 63), min_size=0, max_size=4),
    st.lists(st.integers(0, 63), min_size=0, max_size=4),
)
def test_intersection_oracle(u_rows, v_rows):
    u = Subspace.span(6, u_rows)
    v = Subspace.span(6, v_rows)
    w = u.intersect(v)
    members = {x for x in range(64) if u.contains(x) and v.contains(x)}
    assert 1 << w.dim == len(members)
    for r in w.basis:
        assert r in members


def test_left_kernel_tags_certify():
    rows = [0b011, 0b110, 0b101]
    m = F2Matrix(3, 3, rows)
    lk = m.left_kernel()
    assert lk.dim == 1
    combo = lk.basis[0]
    acc = 0
    for i in bits_of(combo):
        acc ^= rows[i]
    assert acc == 0


def test_echelon_incremental_tags():
    e = Echelon()
    e.add(0b011, 1)
    e.add(0b110, 2)
    v, tag = e.add(0b101, 4)
    assert v == 0
    assert tag == 0b111  # 101 = 011 + 110


# ---------------------------------------------------------------- pivot-order invariance
#
# Every elimination outside _echelonize pivots on highest set bits.  The
# reference below pivots on lowest set bits; results that must not depend
# on pivot order (rank, membership, tags, solve, and the RREFs of kernels
# and intersections) have to agree between the two.

def low_insert(pivots, v, tag):
    """Lowest-set-bit reduction of (v, tag); keeps a nonzero residue."""
    while v:
        hit = pivots.get(v & -v)
        if hit is None:
            pivots[v & -v] = (v, tag)
            return v, tag
        v ^= hit[0]
        tag ^= hit[1]
    return 0, tag


def low_reduce(pivots, v, tag):
    return low_insert(dict(pivots), v, tag)


def low_rref(rows):
    """Gauss-Jordan on lowest set bits, rows sorted by pivot."""
    basis = []
    for v in rows:
        for r in basis:
            if v & (r & -r):
                v ^= r
        if v:
            low = v & -v
            basis = [r ^ v if r & low else r for r in basis] + [v]
    return sorted(basis, key=lambda r: r & -r)


def random_rows(rng, n_rows, n_cols):
    """Random rows with some forced dependencies, so kernels are nonempty."""
    rows = [rng.getrandbits(n_cols) & rng.getrandbits(n_cols) for _ in range(n_rows)]
    for _ in range(n_rows // 3):
        i, j = rng.randrange(n_rows), rng.randrange(n_rows)
        rows[i] = rows[j] ^ rows[rng.randrange(n_rows)]
    return rows


SEEDS = range(40)


def seeded_matrix(seed):
    rng = random.Random(seed)
    n_rows, n_cols = rng.randint(1, 24), rng.randint(1, 24)
    return rng, F2Matrix(n_rows, n_cols, random_rows(rng, n_rows, n_cols))


@pytest.mark.parametrize("seed", SEEDS)
def test_rank_and_membership_order_free(seed):
    rng, m = seeded_matrix(seed)
    ref: dict = {}
    for r in m.data:
        low_insert(ref, r, 0)
    assert m.rank() == len(ref)
    e = Echelon()
    for r in m.data:
        e.add(r)
    assert e.rank == len(ref)
    for _ in range(30):
        v = rng.getrandbits(m.cols)
        assert (e.reduce(v)[0] == 0) == (low_reduce(ref, v, 0)[0] == 0)


@pytest.mark.parametrize("seed", SEEDS)
def test_echelon_tags_order_free(seed):
    # as in homology: boundaries tagged 0, then candidate cycles tagged
    # with unit vectors; tags are coordinates over the independent ones
    rng, m = seeded_matrix(seed)
    image = random_rows(rng, rng.randint(0, 8), m.cols)
    e, ref = Echelon(), {}
    for r in image:
        assert (e.add(r, 0)[0] == 0) == (low_insert(ref, r, 0)[0] == 0)
    for i, r in enumerate(m.data):
        new, tag = e.add(r, 1 << i)
        ref_new, ref_tag = low_insert(ref, r, 1 << i)
        assert (new == 0) == (ref_new == 0)
        if not new:
            assert tag == ref_tag
    for _ in range(30):
        v = rng.getrandbits(m.cols)
        r, tag = e.reduce(v)
        ref_r, ref_tag = low_reduce(ref, v, 0)
        assert (r == 0) == (ref_r == 0)
        if not r:
            assert tag == ref_tag


@pytest.mark.parametrize("seed", SEEDS)
def test_solve_order_free(seed):
    rng, m = seeded_matrix(seed)
    ref: dict = {}
    for i, r in enumerate(m.data):
        low_insert(ref, r, 1 << i)
    for b in [m.apply_rowspace(rng.getrandbits(m.rows)) for _ in range(10)] + [
        rng.getrandbits(m.cols) for _ in range(10)
    ]:
        r, x = low_reduce(ref, b, 0)
        assert m.solve(b) == (None if r else x)


@pytest.mark.parametrize("seed", SEEDS)
def test_left_kernel_and_intersect_rref_order_free(seed):
    rng, m = seeded_matrix(seed)
    ref: dict = {}
    kernel = []
    for i, r in enumerate(m.data):
        r, tag = low_insert(ref, r, 1 << i)
        if not r:
            kernel.append(tag)
    assert m.left_kernel().basis == low_rref(kernel)

    u_rows = random_rows(rng, rng.randint(0, 12), m.cols)
    w_rows = random_rows(rng, rng.randint(0, 12), m.cols) + u_rows[:2]
    u, w = Subspace.span(m.cols, u_rows), Subspace.span(m.cols, w_rows)
    assert u.basis == low_rref(u_rows)
    # Zassenhaus with lowest-set-bit pivots on the low half
    ref, meet = {}, []
    for v in w.basis:
        low_insert(ref, v, 0)
    for x in u.basis:
        r, tag = low_insert(ref, x, x)
        if not r:
            meet.append(tag)
    assert u.intersect(w).basis == low_rref(meet)


@pytest.mark.parametrize("seed", SEEDS)
def test_add_reps_tags_are_coordinates(seed):
    # boundaries tagged 0, then candidates: the kept ones are those
    # independent of everything before them, and a reduction's tag is its
    # coordinates over them modulo the boundaries
    rng, m = seeded_matrix(seed)
    image = random_rows(rng, rng.randint(0, 8), m.cols)
    e, ref = Echelon(), {}
    for r in image:
        e.add(r, 0)
        low_insert(ref, r, 0)
    reps = e.add_reps(m.data)
    assert reps == [r for r in m.data if low_insert(ref, r, 0)[0]]
    for _ in range(10):
        combo = rng.getrandbits(len(reps))
        v = 0
        for k in bits_of(combo):
            v ^= reps[k]
        for r in image:
            if rng.getrandbits(1):
                v ^= r
        assert e.reduce(v) == (0, combo)
