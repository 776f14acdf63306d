"""Tests for the minimal-resolution Ext engine.

Its charts and products are checked against the cobar complexes, the
other model of the same Ext groups: here for the truncated cgl Hopf
algebra, and in the acceptance suite for A(1) at g <= 17, the h10 cone at
g <= 8 and the family detectors, where the cobar complexes are already
built.  Products are also checked against the known ring structure of
Ext over A(1).
"""

import itertools

import pytest

from f2alg import minres
from f2alg.cli import _detector_spot, _family_rows
from f2alg.cobar import WindowError, build_cobar
from f2alg.f2linalg import F2Matrix, Subspace
from f2alg.hopf import HopfAlgebra, build_a1_star, build_delta_cgl
from f2alg.minres import ExtClass, MinimalResolution, complement


def test_cgl_matches_cobar():
    cgl = build_delta_cgl()
    res = MinimalResolution(cgl.dualize(), 0, 5)
    cx = build_cobar(cgl, 5, 5)
    dims = {(g, d): res.homology_dim(g, d) for g in range(6) for d in range(g + 2)}
    assert dims == {(g, d): cx.homology_dim(g, d) for g, d in dims}
    assert dims[(4, 3)] == 2  # Ext^{1,4}: the primitives rho and sb^4


def test_window_errors():
    with pytest.raises(WindowError):
        MinimalResolution(build_delta_cgl().dualize(), 0, 6)
    res = MinimalResolution(build_a1_star().dualize(), 0, 4)
    with pytest.raises(WindowError):
        res.homology_dim(5, 0)
    assert res.homology_dim(4, 5) == 0  # s < 0


# ---------------------------------------------------------------- products

@pytest.fixture(scope="module")
def a1_ext():
    """Resolutions of F2 and of the two-cell module over A(1), and the
    ring generators h10, h11, y74, y128 of Ext(F2, F2)."""
    a1 = build_a1_star().dualize()
    ring = MinimalResolution(a1, 0, 14)
    gens = {name: ring.unique_class(*spot) for name, spot in
            (("h10", (1, 0)), ("h11", (2, 1)), ("y74", (7, 4)), ("y128", (12, 8)))}
    return ring, MinimalResolution(a1, 1, 4), gens


def test_ring_relations(a1_ext):
    ring, _, x = a1_ext

    def times(*factors):
        z = factors[-1]
        for y in reversed(factors[:-1]):
            z = ring.yoneda(ring, y, z)
        return z

    assert times(x["h10"], x["h11"]) == ExtClass(2, 3, 0)
    assert times(x["h11"], x["h11"], x["h11"]) == ExtClass(3, 6, 0)
    assert times(x["h11"], x["y74"]) == ExtClass(4, 9, 0)
    y74sq = times(x["y74"], x["y74"])
    assert y74sq.bits and y74sq == times(x["h10"], x["h10"], x["y128"])
    assert (y74sq.s, y74sq.t) == (6, 14)
    power = x["h10"]
    for k in range(2, 5):
        power = ring.yoneda(ring, x["h10"], power)
        assert power == ring.unique_class(k, 0), k


def test_cone_action(a1_ext):
    ring, cone, x = a1_ext
    z00, z32 = cone.unique_class(0, 0), cone.unique_class(3, 2)
    assert cone.yoneda(ring, x["h10"], z00) == ExtClass(1, 1, 0)
    lhs = cone.yoneda(ring, x["h10"], z32)
    assert lhs.bits and lhs == cone.yoneda(ring, x["h11"], cone.yoneda(ring, x["h11"], z00))


class _Solver:
    """What ``yoneda`` reads of a kept elimination, ``reduce``, done by
    F2Matrix.solve on the rows of d rebuilt by ``_rows``: the reference
    for the kept spans."""

    def __init__(self, ring, level, t):
        offsets = ring._offsets(level - 1, t)
        rows = ring._rows(level, t, offsets)
        self.matrix = F2Matrix(len(rows), offsets[-1], rows)

    def reduce(self, b):
        x = self.matrix.solve(b)
        return (b, 0) if x is None else (0, x)


class _Solved(dict):
    def __init__(self, ring):
        super().__init__()
        self.ring = ring

    def get(self, key, default=None):
        return _Solver(self.ring, *key)


def _assert_lifts_match_solve(monkeypatch, res, ring, chains):
    """Along each chain (z, factors), every y.z, factors applied in turn,
    is the same through the kept spans as through _Solved, and the kept
    spans rebuild no rows.  Returns the last product of each chain."""
    rows_calls = []
    rows = MinimalResolution._rows

    def counted(self, *args):
        rows_calls.append(args)
        return rows(self, *args)

    monkeypatch.setattr(MinimalResolution, "_rows", counted)
    kept, out = ring.spans, []
    for z, factors in chains:
        for y in factors:
            before = len(rows_calls)
            product = res.yoneda(ring, y, z)
            assert len(rows_calls) == before, (y, z)
            ring.spans = _Solved(ring)
            try:
                assert product == res.yoneda(ring, y, z), (y, z)
            finally:
                ring.spans = kept
            z = product
        out.append(z)
    return out


def test_family_lifts_match_solve(monkeypatch):
    # every detector families --max-i 3 checks, on its resolutions
    a1 = build_a1_star().dualize()
    rows = _family_rows(3)
    ring = MinimalResolution(a1, 0, 12)
    cone = MinimalResolution(a1, 1, max(_detector_spot(*det)[0] for *_, det in rows))
    h11, y128 = ring.unique_class(2, 1), ring.unique_class(12, 8)
    chains = [(cone.unique_class(*_detector_spot(0, 0, base)), [h11] * j + [y128] * i)
              for *_, (i, j, base) in rows]
    assert all(z.bits for z in _assert_lifts_match_solve(monkeypatch, cone, ring, chains))


def test_cone_fixture_lifts_match_solve(monkeypatch):
    # the module action cone checks: h10.z32 = h11^2.z00
    a1 = build_a1_star().dualize()
    ring, cone = MinimalResolution(a1, 0, 2), MinimalResolution(a1, 1, 8)
    h10, h11 = ring.unique_class(1, 0), ring.unique_class(2, 1)
    lhs, rhs = _assert_lifts_match_solve(monkeypatch, cone, ring, [
        (cone.unique_class(3, 2), [h10]), (cone.unique_class(0, 0), [h11, h11])])
    assert lhs.bits and lhs == rhs


def test_cgl_product_ranks_match_cobar():
    """For every two groups of positive s with t1 + t2 <= 5, the span of
    all products of their basis classes has the same rank in both models
    (a basis-free invariant).  Ext^{1,4} and Ext^{2,5} are 2-dimensional,
    so a product right only up to being nonzero would not pass."""
    cgl = build_delta_cgl()
    res, cx = MinimalResolution(cgl.dualize(), 0, 5), build_cobar(cgl, 5, 5)
    spots = [(g, d) for g in range(1, 5) for d in range(g) if res.homology_dim(g, d)]
    ranks = []
    for (g1, d1), (g2, d2) in itertools.product(spots, repeat=2):
        if g1 + g2 > 5:
            continue
        pairs = list(itertools.product(res.ext_basis(g1, d1), res.ext_basis(g2, d2)))
        bits = [res.yoneda(res, y, z).bits for y, z in pairs]
        got = F2Matrix(len(bits), max(bits).bit_length(), bits).rank()
        chains = [cx.product_chain(y, z)
                  for y, z in itertools.product(cx.cotor_basis(g1, d1), cx.cotor_basis(g2, d2))]
        assert got == cx.map_rank_mod_boundaries(g1 + g2, d1 + d2, chains), (g1, d1, g2, d2)
        ranks.append(got)
    assert 2 in ranks and 0 in ranks


def test_complement_adds_translates_of_new_generators():
    rows, kernel, span = complement([0b001, 0b001], [0b001, 0b010, 0b100],
                                    lambda v: [v, v << 4, v ^ v << 4])
    # 0b001 is already in the span; 0b010 and its translates bring it to
    # dimension 3, that of the three vectors, so the loop stops before 0b100
    assert rows == [0b010, 0b0100000, 0b0100010]
    assert span.rank == 3
    # the left kernel of the boundary built, the given rows and then the
    # translates: the two equal given rows, and the third translate, the
    # sum of the first two
    assert kernel == [0b00011, 0b11100]


@pytest.mark.parametrize("c,t_max", [(0, 8), (1, 6)])
def test_resolution_kernels_match_left_kernel(monkeypatch, c, t_max):
    """The kernel that complement passes on at each level, the tags it
    returned one level down, is a basis of the left kernel of the rows
    below, the rows of the level before followed by its new generators
    (A(1)* and its h10 cone): as many vectors, spanning the same space
    as the reduced-echelon left kernel."""
    calls = []  # per degree t, the (rows, vectors, new) of each level
    extend = MinimalResolution._extend

    def extended(res, t):
        calls.append([])
        extend(res, t)

    def recorded(rows, vectors, translates):
        vectors = list(vectors)
        out = complement(rows, vectors, translates)
        calls[-1].append((rows, vectors, out[0]))
        return out

    monkeypatch.setattr(MinimalResolution, "_extend", extended)
    monkeypatch.setattr(minres, "complement", recorded)
    res = MinimalResolution(build_a1_star().dualize(), c, t_max)
    assert len(calls) == t_max + 1
    for t, levels in enumerate(calls):
        below = [0] * sum(res._sizes(0, t))
        for s, (rows, vectors, new) in enumerate(levels):
            cols = max((r.bit_length() for r in below), default=0)
            want = F2Matrix(len(below), cols, below).left_kernel().basis
            assert len(vectors) == len(want), (s, t)
            assert Subspace.span(len(below), vectors).basis == want, (s, t)
            below = rows + new


# ---------------------------------------------------------------- exactness under -O

def non_associative(a_times_c: int) -> HopfAlgebra:
    """Letters a, b, c in gradings 1, 2, 3 and e, f in grading 4 with
    a.a = b, a.b = c, c.a = e, b.a = 0 and a.c = a_times_c (a bitset over
    e, f), so (a.b).a = e but a.(b.a) = 0.  On the resolution of F2, F_1
    has generators e1 -> a.e0 and e1' -> c.e0, F_2 one generator
    e2 -> b.e1 in degree 3, and d_1 sends a.e2 -> c.e1 to e.e0, not 0.
    With a.c = 0 the kernel of d_1 in degree 4 is spanned by a.e1',
    which the image misses; with a.c = f the kernel is 0 and the image
    is not."""
    mult = {(0, 0, g, i): 1 << i for g, n in enumerate((1, 1, 1, 1, 2)) for i in range(n)}
    mult.update({(g, i, 0, 0): v for (_, _, g, i), v in list(mult.items())})
    mult.update({(1, 0, 1, 0): 1, (1, 0, 2, 0): 1, (3, 0, 1, 0): 1, (1, 0, 3, 0): a_times_c})
    return HopfAlgebra([["1"], ["a"], ["b"], ["c"], ["e", "f"]], mult, {})


@pytest.mark.parametrize("a_times_c", [0, 0b10])
def test_exactness_check_raises(a_times_c):
    MinimalResolution(non_associative(a_times_c), 0, 3)
    with pytest.raises(AssertionError, match=r"im d_2 != ker d_1 in degree 4"):
        MinimalResolution(non_associative(a_times_c), 0, 4)


def test_exactness_check_survives_optimize_flag(run_optimized):
    """The test above, run again in a python -O subprocess."""
    run_optimized("import test_minres; "
                  "[test_minres.test_exactness_check_raises(x) for x in (0, 0b10)]")


def test_lift_check_raises():
    """With the image of the h10 generator of F_1 erased, and the kept
    elimination of d_1 in degree 1 rebuilt from the erased rows, d_1
    misses x.e0 in degree 1, so h10 cannot lift past F_1 and h10.h10
    fails."""
    ring = MinimalResolution(build_a1_star().dualize(), 0, 2)
    h10 = ring.unique_class(1, 0)
    assert ring.yoneda(ring, h10, h10).bits
    ring.images[2][ring.degrees[2].index(1)] = []
    ring.spans[(2, 1)] = complement(ring._rows(2, 1, ring._offsets(1, 1)), [],
                                    lambda v: [v])[2]
    with pytest.raises(AssertionError, match=r"no lift of .* to F_1 in degree 1"):
        ring.yoneda(ring, h10, h10)
    # a zero d keeps no elimination, and a missing one reads as empty
    del ring.spans[(2, 1)]
    with pytest.raises(AssertionError, match=r"no lift of .* to F_1 in degree 1"):
        ring.yoneda(ring, h10, h10)


def test_lift_check_survives_optimize_flag(run_optimized):
    """The test above, run again in a python -O subprocess."""
    run_optimized("import test_minres; test_minres.test_lift_check_raises()")
