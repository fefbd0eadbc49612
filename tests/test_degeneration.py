"""Degeneration maps: verification, composition, and the zeroing search."""

import random
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import slicerank as sr
from slicerank.degeneration import (
    DegenerationMap,
    LambdaPoly,
    VerifyResult,
    apply_degeneration,
    compose,
)
from slicerank.formats import parse_degeneration_map, write_degeneration_map

from helpers import (COEFFS, random_tensor, reference_verify_degeneration, relabeled_cw2_cube,
                     search_zeroing_independent)


def random_monomial_map(rng, t1, dst_shape, general=False):
    """Random degeneration map from t1's axes onto dst_shape."""
    maps = []
    for src_n, dst_n in zip(t1.shape, dst_shape):
        m = {}
        for src in range(src_n):
            for dst in rng.sample(range(dst_n), rng.randint(0, min(2, dst_n))):
                if general and rng.random() < 0.5:
                    poly = LambdaPoly({rng.randint(0, 2): rng.choice((1, 2, -1)),
                                       rng.randint(3, 4): rng.choice((1, -2))})
                else:
                    poly = LambdaPoly({rng.randint(0, 3): rng.choice((1, 2, -1))})
                m[(src, dst)] = poly
        maps.append(m)
    return maps


def random_verified_instance(rng, general=False):
    """A (t1, t2, map) triple that verifies by construction."""
    while True:
        t1 = random_tensor(rng, max_dim=3)
        dst_shape = tuple(rng.randint(1, 3) for _ in range(3))
        maps = random_monomial_map(rng, t1, dst_shape, general=general)
        d = DegenerationMap(maps[0], maps[1], maps[2], order=0)
        h, t2 = apply_degeneration(t1, d, dst_shape)
        if t2 is None:
            continue
        return t1, t2, DegenerationMap(maps[0], maps[1], maps[2], order=h)


def test_identity():
    t = sr.make_cw(2)
    assert sr.verify_degeneration(t, t, sr.identity_map(t)).ok


def test_identity_is_the_zeroing_to_the_trivial_block():
    """On a tensor that uses every variable, the trivial partition has one
    block, the whole tensor, and the zeroing out to it is the identity."""
    t = sr.make_t112(2)
    bs = sr.blocks(t, sr.trivial_partition(t))
    (key,) = bs.keys()
    ident, zeroing = sr.identity_map(t), sr.zeroing_to_block(bs, key)
    assert (ident.maps(), ident.order, ident.kind) == (zeroing.maps(), zeroing.order, "zeroing")
    assert ident.alpha == {(i, i): LambdaPoly.one() for i in range(t.shape[0])}


def test_zeroing_to_blocks_families():
    cases = [
        (sr.make_cw(q), sr.cw_partition(q)) for q in (1, 2, 3)
    ] + [
        (sr.make_cw_small(q), sr.cw_small_partition(q)) for q in (1, 2, 3)
    ] + [
        (sr.make_t112(q), sr.t112_partition(q)) for q in (1, 2)
    ]
    for q in (1, 2, 3):
        t = sr.make_cyclic(q)
        cases.append((t, sr.singleton_partition(t)))
        t = sr.make_cyclic_lower(q)
        cases.append((t, sr.singleton_partition(t)))
    for t, p in cases:
        bs = sr.blocks(t, p)
        for key in bs.keys():
            dmap = sr.zeroing_to_block(bs, key)
            assert dmap.kind == "zeroing"
            res = sr.verify_degeneration(t, bs[key], dmap)
            assert res.ok, (t.meta.get("family"), key, res.detail)


def test_zeroing_to_block_builds_no_slot_map():
    """The key is looked up among the block keys; no block's slot map is
    built for it."""
    bs = sr.blocks(*relabeled_cw2_cube(3))
    key = bs.keys()[-1]
    assert sr.zeroing_to_block(bs, key).kind == "zeroing"
    with pytest.raises(ValueError, match=r"^no block \(0, 0, 0\)$"):
        sr.zeroing_to_block(bs, (0, 0, 0))
    assert "blocks" not in vars(bs)


def test_zero_map_diagnostic():
    t = sr.make_cw(1)
    target = sr.make_independent(1)
    res = sr.verify_degeneration(t, target, DegenerationMap({}, {}, {}, 0))
    assert not res.ok
    assert "zero tensor" in res.detail


def test_domain_mismatch_is_input_error():
    t = sr.make_independent(2)
    bad = DegenerationMap({(5, 0): LambdaPoly.one()}, {}, {}, 0)
    with pytest.raises(ValueError):
        sr.verify_degeneration(t, t, bad)


def test_low_degree_diagnostic():
    # map <1> -> <1> with an extra lambda^0 leak below the order
    one = sr.make_independent(1)
    d = DegenerationMap({(0, 0): LambdaPoly({0: 1})},
                        {(0, 0): LambdaPoly({0: 1})},
                        {(0, 0): LambdaPoly({0: 1})}, order=1)
    res = sr.verify_degeneration(one, one, d)
    assert not res.ok and "lambda^0" in res.detail


def test_wrong_coefficient_diagnostic():
    one = sr.make_independent(1)
    d = DegenerationMap({(0, 0): LambdaPoly({0: 2})},
                        {(0, 0): LambdaPoly({0: 1})},
                        {(0, 0): LambdaPoly({0: 1})}, order=0)
    res = sr.verify_degeneration(one, one, d)
    assert not res.ok and "expected" in res.detail


def test_random_instances_verify():
    rng = random.Random(77)
    for i in range(60):
        t1, t2, d = random_verified_instance(rng, general=(i % 2 == 0))
        assert sr.verify_degeneration(t1, t2, d).ok


# the detail each kind of (t1, t2, map) below must give
VERDICTS = {"pass": r"degeneration of order \d+ verified \(\w+\)",
            "low": r"nonzero lambda\^\d+ coefficient at entry \(\d+, \d+, \d+\)",
            "zero": r"lambda\^\d+ coefficient is the zero tensor",
            "wrong": r"lambda\^\d+ coefficient at entry \(\d+, \d+, \d+\) is \S+, expected \S+"}


@settings(max_examples=400, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), kind=st.sampled_from(sorted(VERDICTS)),
       general=st.booleans())
def test_verify_matches_the_reference(seed, kind, general):
    """`verify_degeneration` returns the (ok, detail) of the reference that
    walks every polynomial of the substitution: on maps that pass, maps
    raised to a higher order (a nonzero coefficient below it), maps whose
    alpha is multiplied by lambda (the coefficient at the order is the
    zero tensor) and targets with one coefficient changed."""
    rng = random.Random(seed)
    t1, t2, d = random_verified_instance(rng, general)
    if kind == "low":
        d = DegenerationMap(*d.maps(), order=d.order + rng.randint(1, 3))
    elif kind == "zero":
        lam = LambdaPoly.monomial(1, rng.randint(1, 2))
        d = DegenerationMap({pair: lam * poly for pair, poly in d.alpha.items()},
                            d.beta, d.gamma, d.order)
    elif kind == "wrong":
        key = tuple(rng.randrange(n) for n in t2.shape)
        entries = dict(t2.entries)
        entries[key] = t2.coefficient(*key) + rng.choice(COEFFS)
        t2 = sr.Tensor(t2.x_labels, t2.y_labels, t2.z_labels, entries)
    res = sr.verify_degeneration(t1, t2, d)
    assert (res.ok, res.detail) == reference_verify_degeneration(t1, t2, d)
    assert res.ok == (kind == "pass") and re.fullmatch(VERDICTS[kind], res.detail)


def test_composition_property():
    rng = random.Random(404)
    checked = 0
    while checked < 50:
        t1, t2, d1 = random_verified_instance(rng, general=(checked % 3 == 0))
        t2b, t3, d2 = random_verified_instance(rng)
        # rebuild the second stage from t2 itself so the chain matches
        maps = random_monomial_map(rng, t2, t3.shape)
        d2 = DegenerationMap(maps[0], maps[1], maps[2], order=0)
        h, t3 = apply_degeneration(t2, d2, t3.shape)
        if t3 is None:
            continue
        d2 = DegenerationMap(maps[0], maps[1], maps[2], order=h)
        composed = compose(d1, d2)
        assert sr.verify_degeneration(t1, t3, composed).ok
        checked += 1


def test_composition_kind_and_order():
    t = sr.make_cw(2)
    bs = sr.blocks(t, sr.cw_partition(2))
    d1 = sr.zeroing_to_block(bs, (0, 1, 1))
    block = bs[(0, 1, 1)]
    d2 = sr.identity_map(block)
    comp = compose(d1, d2)
    assert comp.kind == "zeroing" and comp.order == 0
    assert sr.verify_degeneration(t, block, comp).ok


def test_map_kinds():
    zero = DegenerationMap({(0, 0): LambdaPoly.one()}, {}, {}, 0)
    assert zero.kind == "zeroing"
    mono = DegenerationMap({(0, 0): LambdaPoly({2: Fraction(3)})}, {}, {}, 0)
    assert mono.kind == "monomial"
    split = DegenerationMap({(0, 0): LambdaPoly.one(),
                             (0, 1): LambdaPoly.one()}, {}, {}, 0)
    assert split.kind == "general"
    poly = DegenerationMap({(0, 0): LambdaPoly({0: 1, 1: 1})}, {}, {}, 0)
    assert poly.kind == "general"


# -- zeroing search -------------------------------------------------------------

def test_search_independent():
    for q in range(1, 7):
        res = search_zeroing_independent(sr.make_independent(q))
        assert res.size == q


def test_search_matmul_222():
    # zeroing alone reaches 2; the monomial-degeneration guarantee
    # ceil(0.75 * abc / max) = 3 needs degenerations outside this search
    res = search_zeroing_independent(sr.make_matmul(2, 2, 2))
    assert res.size == 2
    assert 0.75 * 8 / 2 == 3.0


def test_search_cw_small_one():
    assert search_zeroing_independent(sr.make_cw_small(1)).size == 1


def test_search_cw_one():
    # keep {x0,x2} x {y0,y1} x {z0,z1}: x2 y0 z0 + x0 y1 z1 survives, so
    # the maximum is 2 (no three pairwise disjoint terms exist)
    res = search_zeroing_independent(sr.make_cw(1))
    assert res.size == 2


def test_search_witness_is_diagonal():
    rng = random.Random(9)
    for _ in range(40):
        t = random_tensor(rng, max_dim=3, unit=True)
        res = search_zeroing_independent(t)
        xs = {e[0] for e in res.terms}
        ys = {e[1] for e in res.terms}
        zs = {e[2] for e in res.terms}
        assert len(xs) == len(ys) == len(zs) == res.size
        survivors = {e for e in t.entries
                     if e[0] in res.kept_x and e[1] in res.kept_y
                     and e[2] in res.kept_z}
        assert survivors == set(res.terms)


def test_search_monotone_under_direct_sum():
    rng = random.Random(31)
    for _ in range(50):
        a = random_tensor(rng, max_dim=2, unit=True)
        b = random_tensor(rng, max_dim=2, unit=True)
        ra = search_zeroing_independent(a).size
        rb = search_zeroing_independent(b).size
        rs = search_zeroing_independent(sr.direct_sum(a, b)).size
        assert rs >= ra + rb


def test_search_power_and_cap():
    res = search_zeroing_independent(sr.make_cw(1), n=2)
    assert res.size >= 4
    with pytest.raises(ValueError):
        search_zeroing_independent(sr.make_cw(2), n=2)  # 16 vars > cap
    with pytest.raises(ValueError):
        search_zeroing_independent(sr.make_independent(2), n=3)


def test_map_roundtrip():
    rng = random.Random(5)
    for i in range(20):
        t1, _, d = random_verified_instance(rng, general=(i % 2 == 0))
        back = parse_degeneration_map(write_degeneration_map(d))
        assert back.order == d.order
        assert back.alpha == d.alpha and back.beta == d.beta and back.gamma == d.gamma
        assert back.kind == d.kind


def test_map_lines_on_one_pair_add_up():
    """Lines on one (source, target) pair of a map add up to one polynomial,
    kept in the order the pairs first appear; a sum that cancels is left
    out.  The reference adds one `LambdaPoly` per line."""
    rng = random.Random(11)
    for _ in range(60):
        lines, want = [], ({}, {}, {})
        for _ in range(rng.randint(1, 12)):
            m, pair = rng.randrange(3), (rng.randrange(2), rng.randrange(2))
            terms = [(rng.randrange(3), Fraction(rng.randint(-2, 2), rng.randint(1, 3)))
                     for _ in range(rng.randint(1, 3))]
            name = ("alpha", "beta", "gamma")[m]
            body = " ".join(f"{e} {c.numerator}/{c.denominator}" for e, c in terms)
            lines.append(f"{name}{'P' if len(terms) > 1 else ''} {pair[0]} {pair[1]} {body}")
            poly = LambdaPoly()
            for e, c in terms:
                poly += LambdaPoly({e: c})
            want[m][pair] = want[m].get(pair, LambdaPoly()) + poly
        order = rng.randint(0, 2)
        lines.insert(rng.randint(0, len(lines)), f"order {order}")
        got = parse_degeneration_map("\n".join(lines) + "\n")
        ref = DegenerationMap(*want, order)
        assert [list(m.items()) for m in got.maps()] == [list(m.items()) for m in ref.maps()]
        assert (got.order, got.kind) == (ref.order, ref.kind)


def test_map_indices_and_exponents_must_be_integers():
    """Map indices, lambda exponents and the order are read as `int` when
    integral (a numpy integer too) and refused when not, not truncated."""
    d = DegenerationMap({(np.int64(1), 0): LambdaPoly({np.int64(2): 1})}, {}, {}, 0)
    (key, poly), = d.alpha.items()
    assert key == (1, 0) and all(type(i) is int for i in key)
    assert list(poly.coeffs) == [2] and type(next(iter(poly.coeffs))) is int
    for bad in ({(0.5, 0): 1}, {(0, 1.0): 1}):
        with pytest.raises(ValueError, match="is not an integer$"):
            DegenerationMap(bad, {}, {}, 0)
    with pytest.raises(ValueError, match=r"^1\.5 is not an integer$"):
        LambdaPoly({1.5: 1})
    with pytest.raises(ValueError, match=r"^1\.5 is not an integer$"):
        DegenerationMap({}, {}, {}, 1.5)
    # a string is refused as not an integer before its sign is compared
    with pytest.raises(ValueError, match=r"^'1' is not an integer$"):
        LambdaPoly({"1": 1})
    with pytest.raises(ValueError, match=r"^'1' is not an integer$"):
        DegenerationMap({}, {}, {}, "1")
    # with a zero coefficient too: the term is dropped only after its key is read
    with pytest.raises(ValueError, match=r"^1\.5 is not an integer$"):
        LambdaPoly({1.5: 0, "x": 0})
    with pytest.raises(ValueError, match=r"^'x' is not an integer$"):
        LambdaPoly({0: 1, "x": 0})
    with pytest.raises(ValueError, match="^negative lambda exponent$"):
        LambdaPoly({-1: 0})
    for zero in (0, LambdaPoly()):
        with pytest.raises(ValueError, match=r"^0\.5 is not an integer$"):
            DegenerationMap({(0.5, "a"): zero}, {}, {}, 0)
        with pytest.raises(ValueError, match=r"^'a' is not an integer$"):
            DegenerationMap({}, {}, {(0, "a"): zero}, 0)
    assert type(DegenerationMap({}, {}, {}, np.int64(2)).order) is int


def test_map_parse_errors():
    from slicerank.formats import ParseError
    with pytest.raises(ParseError):
        parse_degeneration_map("alpha 0 0 1\n")  # missing coefficient
    with pytest.raises(ParseError):
        parse_degeneration_map("delta 0 0 0 1/1\n")
    with pytest.raises(ParseError):
        parse_degeneration_map("alphaP 0 0 0 1/1 2\n")  # unpaired poly


def test_degeneration_dunders():
    """The reprs of a map and of a zero and a nonzero polynomial, equal
    polynomials hashing alike, and a verdict's truth its `ok`."""
    assert repr(sr.identity_map(sr.make_cw(1))) == \
        "DegenerationMap(kind=zeroing, order=0, nonzeros=(3, 3, 3))"
    poly = LambdaPoly({2: Fraction(-1, 2), 0: 3})
    assert repr(LambdaPoly()) == "0"
    assert repr(poly) == "3*l^0 + -1/2*l^2"
    assert hash(poly) == hash(LambdaPoly({0: 3, 2: Fraction(-1, 2), 1: 0}))
    assert hash(poly) == hash(frozenset({(0, Fraction(3)), (2, Fraction(-1, 2))}))
    assert bool(VerifyResult(True, "")) is True and bool(VerifyResult(False, "")) is False
