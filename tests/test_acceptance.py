"""Acceptance criteria, one test per criterion at its stated tolerance.

Each test prints a single PASS line when it completes; tolerances and
runtime limits are pinned here, not configurable.
"""

import math
import time

import pytest

import slicerank as sr
from slicerank import bound_engines as be

import test_properties as props
from helpers import search_zeroing_independent

CW_SLICE = [2.7551, 3.57165, 4.34413, 5.07744, 5.77629, 6.44493, 7.08706, 7.70581]
CW_OMEGA = [2.16805, 2.17794, 2.19146, 2.20550, 2.21912, 2.23200, 2.24404, 2.25525]
CW_SMALL_OMEGA = [2.17795, 2.0, 2.02538, 2.06244, 2.09627, 2.12549, 2.15064]
TQ_SLICE = [1.88988, 2.75510, 3.61071, 4.46157]
TQ_OMEGA = [2.17795, 2.16805, 2.15949, 2.15237]


def test_criterion_1_cw_table():
    start = time.perf_counter()
    rows = be.cw_table(8)
    for row, s, o in zip(rows, CW_SLICE, CW_OMEGA):
        assert abs(row.slice_rank - s) <= 1e-4, (row.q, row.slice_rank, s)
        assert abs(row.omega - o) <= 1e-4, (row.q, row.omega, o)
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    print(f"\nACCEPTANCE 1: CW table q=1..8 within 1e-4, {elapsed:.2f}s  PASS")


def test_criterion_2_cw_small_table():
    start = time.perf_counter()
    rows = be.cw_small_table(7)
    for row, o in zip(rows, CW_SMALL_OMEGA):
        assert abs(row.omega - o) <= 1e-4, (row.q, row.omega, o)
        closed = 3.0 * row.q ** (2.0 / 3.0) / 2.0 ** (2.0 / 3.0)
        assert abs(row.slice_rank - closed) <= 1e-9, (row.q, row.slice_rank)
    elapsed = time.perf_counter() - start
    assert elapsed < 2.0
    print(f"\nACCEPTANCE 2: cw table q=1..7 within 1e-4 (closed form 1e-9), "
          f"{elapsed:.2f}s  PASS")


def test_criterion_3_tq_lower_table():
    start = time.perf_counter()
    rows = be.tq_lower_table(5)
    for row, s, o in zip(rows, TQ_SLICE, TQ_OMEGA):
        assert abs(row.slice_rank - s) <= 1e-4, (row.q, row.slice_rank, s)
        assert abs(row.omega - o) <= 1e-4, (row.q, row.omega, o)
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    print(f"\nACCEPTANCE 3: lower triangular cyclic table q=2..5 within 1e-4, "
          f"{elapsed:.2f}s  PASS")


def test_criterion_4_family_floor():
    start = time.perf_counter()
    rep = be.cw_family_floor(1000)
    c = rep.certificate
    assert abs(c["v_8"] - 0.017732422) <= 1e-8
    assert abs(c["f_v8"] - 2.07389) <= 1e-4
    assert abs(c["relaxed_at_9"] - 2.18562) <= 1e-4
    assert rep.value >= 2.16805 - 1e-9
    assert c["v_nonincreasing"]
    assert c["relaxed_increasing"]
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    print(f"\nACCEPTANCE 4: floor >= 2.16805 for q <= 1000 "
          f"(v_8, f(v_8), q=9 value verified), {elapsed:.2f}s  PASS")


def test_criterion_5_t112_values():
    # the argmax closed form is q^2/(2q^2+4): the often-quoted
    # q^2/(2q^2+2) does not maximize the stated objective and is
    # incompatible with the (verified) optimal value 4q^2(q^2+2)
    for q in range(1, 6):
        rep = be.t112_value(q)
        c = rep.certificate
        cube = 4.0 * q * q * (q * q + 2.0)
        assert c["cube_simplex_relative_error"] <= 1e-6
        assert abs(c["argmax_v"] - q * q / (2.0 * q * q + 4.0)) <= 1e-8
        want = 2.0 ** (2 / 3) * q ** (2 / 3) * (q * q + 2.0) ** (1 / 3)
        assert rep.value == pytest.approx(want, rel=1e-12)
        assert rep.value ** 3 == pytest.approx(cube, rel=1e-12)
    print("\nACCEPTANCE 5: t_112 rotation product values q=1..5 "
          "(rel 1e-6, argmax 1e-8)  PASS")


def test_criterion_6_tightness_certificates():
    pairs = [(sr.make_cw(q), sr.cw_partition(q)) for q in range(1, 9)]
    pairs += [(sr.make_cw_small(q), sr.cw_small_partition(q)) for q in range(1, 9)]
    for q in range(2, 9):
        t = sr.make_cyclic_lower(q)
        pairs.append((t, sr.singleton_partition(t)))
    for t, p in pairs:
        tight = be.laser_lower_bound(t, p)
        upper = be.partition_bound(t, p)
        assert abs(tight.value - upper.value) <= 1e-6, t.meta.get("family")
        assert tight.certificate["tight"]
        assert tight.certificate["asymptotic_subrank_equal"]
    print("\nACCEPTANCE 6: laser lower bound equals partition bound (1e-6) "
          "for CW_q, cw_q, lower cyclic, q <= 8  PASS")


def test_criterion_7_property_suite():
    props.test_flattening_rank_kronecker_multiplicativity()
    props.test_rank_rotation_relations()
    props.test_flattening_rank_subadditivity()
    props.test_block_reconstruction()
    props.test_rotate_three_times_identity()
    props.test_log_objective_concavity()
    props.test_entropy_power_grid_inequality()
    props.test_symmetric_distributions_equal_axis_values()
    props.test_symmetrization_inequality()
    print("\nACCEPTANCE 7: property suite (>= 200 seeded cases per block)  PASS")


def test_criterion_8_degeneration_suite():
    import test_degeneration as degen
    degen.test_zeroing_to_blocks_families()
    degen.test_composition_property()
    for q in range(1, 7):
        assert search_zeroing_independent(sr.make_independent(q)).size == q
    print("\nACCEPTANCE 8: degeneration verifier (blocks, composition, "
          "diagonal search q <= 6)  PASS")


def test_criterion_9_flattening_vs_asymptotic_gap():
    start = time.perf_counter()
    squared = sr.tensor_power(sr.make_cw(1), 2)
    assert sr.x_rank(squared) == 9 == (1 + 2) ** 2
    tight = be.laser_lower_bound(sr.make_cw(1), sr.cw_partition(1))
    assert abs(tight.value - 2.7551) <= 1e-4
    assert tight.value < 3.0
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    print(f"\nACCEPTANCE 9: x-rank of the CW_1 square is 9 while the tight "
          f"asymptotic value is 2.7551 < 3, {elapsed:.2f}s  PASS")
