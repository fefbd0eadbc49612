"""End-to-end CLI behavior: output, golden checks, exit codes."""

import dataclasses
import math
import os
import random
import subprocess
import sys
import time
import warnings
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

import slicerank as sr
from slicerank import bound_engines as be, optimizer
from slicerank.cli import main

from helpers import relabeled_cw2_cube


@pytest.fixture
def cw5_files(tmp_path):
    t = sr.make_cw(5)
    tensor = tmp_path / "cw5.tensor"
    tensor.write_text(sr.write_tensor(t))
    part = tmp_path / "cw.partition"
    part.write_text(sr.write_partition(sr.cw_partition(5)))
    return str(tensor), str(part)


def test_table_cw(capsys):
    assert main(["table", "cw", "--qmax", "8"]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert len(out) == 8
    assert all("PASS" in line for line in out)
    assert "7.70581" in out[-1] and "2.25525" in out[-1]


def test_table_cw_small(capsys):
    assert main(["table", "cw-small", "--qmax", "2"]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert "2.00000" in out[1]


def test_table_tq_lower(capsys):
    assert main(["table", "tq-lower", "--qmax", "2"]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert len(out) == 1
    assert "1.88988" in out[0] and "2.17795" in out[0]


# `table cw --qmax 8` and `table tq-lower --qmax 24` as printed when every
# row was solved on its own, byte for byte: the rows past the golden
# ranges (tq-lower q > 5) are checked nowhere else.
CW_TABLE_8 = [
    '1           2.75510     2.16805     PASS      ',
    '2           3.57165     2.17795     PASS      ',
    '3           4.34413     2.19146     PASS      ',
    '4           5.07744     2.20551     PASS      ',
    '5           5.77629     2.21913     PASS      ',
    '6           6.44493     2.23201     PASS      ',
    '7           7.08706     2.24405     PASS      ',
    '8           7.70581     2.25525     PASS      ',
]

TQ_LOWER_TABLE_24 = [
    '2           1.88988     2.17795     PASS      ',
    '3           2.75510     2.16805     PASS      ',
    '4           3.61072     2.15949     PASS      ',
    '5           4.46158     2.15237     PASS      ',
    '6           5.30973     2.14641     --        ',
    '7           6.15620     2.14135     --        ',
    '8           7.00155     2.13700     --        ',
    '9           7.84612     2.13321     --        ',
    '10          8.69012     2.12987     --        ',
    '11          9.53369     2.12690     --        ',
    '12          10.37693    2.12423     --        ',
    '13          11.21991    2.12182     --        ',
    '14          12.06268    2.11963     --        ',
    '15          12.90529    2.11762     --        ',
    '16          13.74776    2.11577     --        ',
    '17          14.59012    2.11407     --        ',
    '18          15.43238    2.11248     --        ',
    '19          16.27455    2.11101     --        ',
    '20          17.11666    2.10963     --        ',
    '21          17.95870    2.10834     --        ',
    '22          18.80069    2.10713     --        ',
    '23          19.64264    2.10598     --        ',
    '24          20.48454    2.10490     --        ',
]


@pytest.mark.parametrize("argv, lines", [
    (["table", "cw", "--qmax", "8"], CW_TABLE_8),
    (["table", "tq-lower", "--qmax", "24"], TQ_LOWER_TABLE_24)], ids=["cw", "tq-lower"])
def test_table_output_pinned(capsys, argv, lines):
    assert main(argv) == 0
    assert capsys.readouterr().out == "".join(line + "\n" for line in lines)


def test_table_builds_no_per_block_map(capsys, monkeypatch):
    """`table` prints no certificate map, so `table tq-lower --qmax 16`
    builds none: neither a solve's `masses` nor a verdict's
    `block_shapes` is read."""
    built = []
    for kind in (optimizer.ArrayMap, be.BlockShapes):
        monkeypatch.setattr(kind, "_build", lambda view: built.append(type(view)) or {})
    assert main(["table", "tq-lower", "--qmax", "16"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 15
    assert built == []


def test_table_beyond_golden_rows(capsys):
    assert main(["table", "tq-lower", "--qmax", "6"]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert out[-1].split()[-1] == "--"


def test_table_golden_mismatch_exit(capsys):
    assert main(["table", "cw", "--qmax", "2", "--tol", "1e-12"]) == 1
    out = capsys.readouterr().out
    assert "FAIL" in out


@pytest.mark.parametrize("command", [["table", "cw", "--qmax", "2"], ["appendix"]],
                         ids=["table", "appendix"])
@pytest.mark.parametrize("tol", ["nan", "-1", "inf", "x"])
def test_tolerance_must_be_finite_and_nonnegative(capsys, command, tol):
    """A --tol of NaN or below 0 would fail every golden check (exit 1, as a
    mismatch does) and inf would pass every one: each is a parse error."""
    assert main([*command, "--tol", tol]) == 3
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == (
        f"parse error: slicerank {command[0]}: argument --tol: "
        f"not a finite number >= 0: '{tol}'\n")


@pytest.mark.parametrize("tol, code", [("0", 1), ("0.5", 0), ("1e-4", 0)])
def test_tolerance_accepts_finite_nonnegative(capsys, tol, code):
    assert main(["table", "cw", "--qmax", "2", "--tol", tol]) == code


def test_table_tsv_format(capsys):
    assert main(["table", "cw", "--qmax", "1", "--format", "tsv"]) == 0
    out = capsys.readouterr().out.strip()
    assert "\t" in out


def test_table_deterministic(capsys):
    main(["table", "cw", "--qmax", "4"])
    first = capsys.readouterr().out
    assert main(["table", "cw", "--qmax", "4"]) == 0
    second = capsys.readouterr().out
    assert first == second


@pytest.mark.parametrize("q, out", [
    (1, "q=1  argmax_v=0.166666667  rotation_product_optimum=12.000000  "
        "closed_form=12.000000\nV_2/3 = 2.289428  PASS\n"),
    (2, "q=2  argmax_v=0.333333333  rotation_product_optimum=96.000000  "
        "closed_form=96.000000\nV_2/3 = 4.578857  PASS\n"),
    (6, "q=6  argmax_v=0.473684211  rotation_product_optimum=5472.000000  "
        "closed_form=5472.000000\nV_2/3 = 17.621736  PASS\n"),
    (12, "q=12  argmax_v=0.493150685  rotation_product_optimum=84096.000000  "
         "closed_form=84096.000000\nV_2/3 = 43.811869  PASS\n"),
], ids=["1", "2", "6", "12"])
def test_t112_command(capsys, q, out):
    """rotation_product_optimum is the Newton solver's product optimum on
    t_112's blocks; printed at 6 decimals it equals the closed form."""
    assert main(["t112", str(q)]) == 0
    captured = capsys.readouterr()
    assert captured.out == out and captured.err == ""


def appendix_out(q_max, floor="2.168053 >= 2.16805 PASS"):
    return ("v_8 = 0.017732422  (PASS)\nf_v8 = 2.073892745  (PASS)\n"
            "relaxed_at_9 = 2.185623399  (PASS)\n"
            f"relaxed bound increasing on q=9..{q_max}: PASS\n"
            f"floor over q<={q_max} = {floor}\n")


def test_appendix(capsys):
    """The whole output is pinned; --qmax only names the range, since the
    floor rests on the proof's inequalities at q = 9, so any --qmax is
    answered at once."""
    for q_max in (9, 1000, 10 ** 12):
        start = time.perf_counter()
        assert main(["appendix", "--qmax", str(q_max)]) == 0
        assert time.perf_counter() - start < 1.0
        captured = capsys.readouterr()
        assert captured.out == appendix_out(q_max) and captured.err == ""


def test_appendix_floor_below_target_fails(capsys, monkeypatch):
    """The floor's PASS has no slack: 5e-10 below FLOOR_TARGET fails."""
    floor = be.cw_family_floor

    def lowered(q_max):
        return dataclasses.replace(floor(q_max), value=be.FLOOR_TARGET - 5e-10)

    monkeypatch.setattr(be, "cw_family_floor", lowered)
    assert main(["appendix", "--qmax", "9"]) == 1
    assert capsys.readouterr().out == appendix_out(9, "2.168050 >= 2.16805 FAIL")


def test_bound_laser(capsys, cw5_files):
    tensor, part = cw5_files
    assert main(["bound", "--mode", "laser", tensor, part]) == 0
    out = capsys.readouterr().out.strip()
    assert out == "S~ = Q~ = 5.77629 (tight)"


def count_readiness_calls(monkeypatch):
    calls = []
    check = be.laser_readiness
    monkeypatch.setattr(be, "laser_readiness",
                        lambda t, p: calls.append(1) or check(t, p))
    return calls


def test_bound_laser_checks_readiness_once(capsys, cw5_files, monkeypatch):
    calls = count_readiness_calls(monkeypatch)
    assert main(["bound", "--mode", "laser", *cw5_files]) == 0
    assert len(calls) == 1


def count_calls(run, *fns):
    """Calls of each function while run() executes, however it is bound."""
    names = {fn.__code__: fn.__name__ for fn in fns}
    counts = dict.fromkeys(names.values(), 0)

    def hook(frame, event, arg):
        if event == "call" and frame.f_code in names:
            counts[names[frame.f_code]] += 1

    sys.setprofile(hook)
    try:
        run()
    finally:
        sys.setprofile(None)
    return counts


def test_bound_laser_splits_and_checks_symmetry_once(capsys, cw5_files):
    """One split decides the symmetry too: `blocks` checks the variable
    symmetry on its entry arrays, so `is_variable_symmetric` is not called."""
    counts = count_calls(lambda: main(["bound", "--mode", "laser", *cw5_files]),
                         sr.tensor_core.blocks, sr.tensor_core.is_variable_symmetric)
    assert capsys.readouterr().out.strip() == "S~ = Q~ = 5.77629 (tight)"
    assert counts == {"blocks": 1, "is_variable_symmetric": 0}


def test_bound_partition_mode(capsys, cw5_files):
    tensor, part = cw5_files
    assert main(["bound", "--mode", "partition", tensor, part]) == 0
    out = capsys.readouterr().out
    assert out.startswith("slice_rank_upper 5.776285")


def test_bound_mu_sum_mode(capsys, cw5_files):
    tensor, part = cw5_files
    assert main(["bound", "--mode", "mu-sum", tensor, part]) == 0
    assert capsys.readouterr().out.startswith("slice_rank_upper")


# `bound --mode mu-sum` as printed when each block was split off as a
# tensor over the parent's variables and the blocks were summed back
MU_SUM_LINES = {
    "cw2-cube": "slice_rank_upper 467.686695292 sum-of-measures parts=216 -",
    "cw1": "slice_rank_upper 6.000000000 sum-of-measures parts=6 -",
    "cw2": "slice_rank_upper 7.762203156 sum-of-measures parts=6 -",
    "cw3": "slice_rank_upper 9.240251469 sum-of-measures parts=6 -",
    "t112": "slice_rank_upper 12.813665068 sum-of-measures parts=4 -",
}


@pytest.mark.parametrize("name, case", [
    ("cw2-cube", lambda: relabeled_cw2_cube(3)),
    *((f"cw{q}", lambda q=q: (sr.make_cw(q), sr.cw_partition(q))) for q in (1, 2, 3)),
    ("t112", lambda: (sr.make_t112(3), sr.t112_partition(3)))])
def test_bound_mu_sum_prints_pinned_line(capsys, tmp_path, name, case):
    t, p = case()
    tensor, partition = tmp_path / "t.tensor", tmp_path / "t.partition"
    tensor.write_text(sr.write_tensor(t))
    partition.write_text(sr.write_partition(p))
    assert main(["bound", "--mode", "mu-sum", str(tensor), str(partition)]) == 0
    captured = capsys.readouterr()
    assert captured.out == MU_SUM_LINES[name] + "\n" and captured.err == ""


def test_bound_remove_x_mode(capsys, cw5_files):
    tensor, part = cw5_files
    assert main(["bound", "--mode", "remove-x", tensor, part]) == 0
    out = capsys.readouterr().out
    assert "low-x-rank-split" in out


@pytest.mark.parametrize("q", range(1, 9))
def test_bound_remove_x_cw(capsys, tmp_path, q):
    """remove-x succeeds on every CW_q with its standard partition; for
    q >= 4 the max-min value of the remaining part B is 2 sqrt(q), and
    the bound reported for B, an upper bound, is not below it."""
    tensor, part = tmp_path / "cw.tensor", tmp_path / "cw.partition"
    tensor.write_text(sr.write_tensor(sr.make_cw(q)))
    part.write_text(sr.write_partition(sr.cw_partition(q)))
    assert main(["bound", "--mode", "remove-x", str(tensor), str(part)]) == 0
    cert = dict(item.split("=") for item in capsys.readouterr().out.split()[3].split(","))
    if q >= 4:
        assert abs(float(cert["B_bound"]) - 2.0 * math.sqrt(q)) < 1e-6
        _, b_report = sr.remove_x_bound(sr.make_cw(q), sr.cw_partition(q))
        assert b_report.value >= 2.0 * math.sqrt(q) * (1.0 - 1e-12)


@pytest.mark.parametrize("carries", ["every term", "no term"])
def test_bound_remove_x_needs_nontrivial_first_part(capsys, tmp_path, carries):
    """remove-x refuses when its first x part carries every term of the
    tensor (B is empty) or none (A is empty)."""
    if carries == "every term":
        t = sr.make_cw(2)
        p = sr.trivial_partition(t)
    else:
        t = sr.Tensor(range(3), range(2), range(2), {(1, 0, 0): 1, (2, 1, 1): 1})
        p = sr.VariablePartition([("unused", [0]), ("rest", [1, 2])], [("all", [0, 1])],
                                 [("all", [0, 1])], t.shape)
    tensor = tmp_path / "t.tensor"
    tensor.write_text(sr.write_tensor(t))
    part = tmp_path / "t.partition"
    part.write_text(sr.write_partition(p))
    assert main(["bound", "--mode", "remove-x", str(tensor), str(part)]) == 4
    captured = capsys.readouterr()
    assert captured.err == "remove-x needs a nontrivial first x part\n"
    assert captured.out == ""


def test_bound_remove_x_is_at_least_a_zeroing_out(capsys, tmp_path):
    """A (+) <5> with A = x0 (y0 z0 + y1 z1) and x parts {0} and {1..5}:
    zeroing x0, y0, y1, z0 and z1 leaves <5>, and A restricts to <1>, so
    the asymptotic slice rank is at least 6; x_rank(A) + x_rank(B) = 6."""
    entries = {(0, 0, 0): 1, (0, 1, 1): 1}
    entries.update({(1 + i, 2 + i, 2 + i): 1 for i in range(5)})
    tensor = tmp_path / "sum.tensor"
    tensor.write_text(sr.write_tensor(sr.Tensor(range(6), range(7), range(7), entries)))
    part = tmp_path / "sum.partition"
    part.write_text("x first 0\nx rest 1 2 3 4 5\n"
                    "y all 0 1 2 3 4 5 6\nz all 0 1 2 3 4 5 6\n")
    assert main(["bound", "--mode", "remove-x", str(tensor), str(part)]) == 0
    assert capsys.readouterr().out.split()[:2] == ["slice_rank_upper", "6.000000000"]


@pytest.mark.parametrize("mode", ["partition", "remove-x"])
def test_bound_unconverged_solve_exit(capsys, cw5_files, monkeypatch, mode):
    solve = be.partition_bound

    def unconverged(t, p):
        rep = solve(t, p)
        rep.certificate["kkt_residual"] = 1.0
        return rep

    monkeypatch.setattr(be, "partition_bound", unconverged)
    assert main(["bound", "--mode", mode, *cw5_files]) == 2
    assert "convergence failure" in capsys.readouterr().err


def test_bound_remove_x_nan_weight_system_fails_quietly(capsys, tmp_path):
    """remove-x on the cube of this 2x3x3 tensor once drove an axis weight
    of B to 2e-18, where the weights' Newton system has a negative
    diagonal, and exited 2.  The joint max-min steps now hold that weight
    at 0 exactly: the command prints a certified bound with no numpy
    warning and nothing on stderr."""
    t = sr.Tensor(range(2), range(3), range(3),
                  dict.fromkeys([(0, 0, 0), (0, 1, 0), (0, 1, 1), (0, 2, 0), (1, 2, 0)], 1))
    p = sr.VariablePartition([("0", [1]), ("1", [0])], [("0", [0]), ("1", [1, 2])],
                             [("0", [0, 1, 2])], t.shape)
    tensor, part = tmp_path / "cube.tensor", tmp_path / "cube.partition"
    tensor.write_text(sr.write_tensor(sr.symmetric_cube(t)))
    part.write_text(sr.write_partition(sr.cube_partition(t, p)))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["bound", "--mode", "remove-x", str(tensor), str(part)]) == 0
    assert [str(w.message) for w in caught] == []
    captured = capsys.readouterr()
    assert captured.err == ""
    _, solved = be.remove_x_bound(sr.symmetric_cube(t), sr.cube_partition(t, p))
    assert solved.certificate["kkt_residual"] <= 1e-10
    assert solved.value == pytest.approx(10.0, rel=1e-12)
    assert captured.out == ("slice_rank_upper 12.000000000 low-x-rank-split B_bound=10,"
                            "B_bound_used=10,m_A=3,weight=0.166666667,x_rank_A=2,x_rank_B=10 -\n")


@pytest.mark.parametrize("mode, stderr", [
    ("mu-sum", "inapplicable input: need at least one part\n"),
    ("partition", "inapplicable input: the block set is empty: the tensor has no terms\n"),
    ("laser", "not laser-ready: the block set is empty: the tensor has no terms\n")])
def test_bound_empty_tensor_inapplicable(capsys, tmp_path, mode, stderr):
    """A tensor file with headers and no terms has no blocks to bound:
    exit 4 naming the empty block set, not a traceback or exit 1."""
    tensor = tmp_path / "empty.tensor"
    tensor.write_text("xvars 2\nyvars 2\nzvars 2\n")
    part = tmp_path / "empty.partition"
    part.write_text("x all 0 1\ny all 0 1\nz all 0 1\n")
    assert main(["bound", "--mode", mode, str(tensor), str(part)]) == 4
    captured = capsys.readouterr()
    assert captured.err == stderr
    assert captured.out == ""


def test_bound_laser_inapplicable(capsys, tmp_path, monkeypatch):
    t = sr.make_t112(2)
    tensor = tmp_path / "t.tensor"
    tensor.write_text(sr.write_tensor(t))
    part = tmp_path / "t.partition"
    part.write_text(sr.write_partition(sr.t112_partition(2)))
    calls = count_readiness_calls(monkeypatch)
    assert main(["bound", "--mode", "laser", str(tensor), str(part)]) == 4
    assert len(calls) == 1
    assert capsys.readouterr().err == "not laser-ready: tensor is not variable-symmetric\n"


def test_bound_laser_scaled_cw2(capsys, tmp_path):
    """CW_2 with coefficient 2 on its three x_1/y_1/z_1 terms: block
    (1, 1, 0) is x_1 y_1 z_0 (2) + x_2 y_2 z_0 (1), <1,2,1> once z_0 is
    scaled by 1/2 and x_2 by 2, so the laser bound applies."""
    tensor = tmp_path / "cw2s.tensor"
    tensor.write_text("xvars 4\nyvars 4\nzvars 4\n"
                      "0 0 3 1/1\n0 3 0 1/1\n3 0 0 1/1\n"
                      "1 1 0 2/1\n1 0 1 2/1\n0 1 1 2/1\n"
                      "2 2 0 1/1\n2 0 2 1/1\n0 2 2 1/1\n")
    part = tmp_path / "cw.partition"
    part.write_text(sr.write_partition(sr.cw_partition(2)))
    assert main(["bound", "--mode", "laser", str(tensor), str(part)]) == 0
    captured = capsys.readouterr()
    assert captured.out == "S~ = Q~ = 3.57165 (tight)\n" and captured.err == ""


def test_parse_error_exit_code(capsys, tmp_path):
    bad = tmp_path / "bad.tensor"
    bad.write_text("xvars 1\nyvars 1\nzvars 1\n0 0 0 1/0\n")
    part = tmp_path / "p.partition"
    part.write_text("x all 0\ny all 0\nz all 0\n")
    assert main(["bound", "--mode", "partition", str(bad), str(part)]) == 3
    err = capsys.readouterr().err
    assert "line 4" in err


@pytest.mark.parametrize("text, stderr", [
    ("xvars 2\nyvars 2\nzvars 2\n1 0 0 1/1\nxvars 1\n",
     "parse error: line 5: xvars header after the entries\n"),
    ("xvars 2\nyvars 2\nzvars 2\nxvars 3\n0 0 0 1/1\n",
     "parse error: line 4: repeated xvars header\n"),
])
def test_misplaced_header_exit_code(capsys, tmp_path, text, stderr):
    bad = tmp_path / "bad.tensor"
    bad.write_text(text)
    part = tmp_path / "p.partition"
    part.write_text("x all 0 1\ny all 0 1\nz all 0 1\n")
    assert main(["bound", "--mode", "partition", str(bad), str(part)]) == 3
    captured = capsys.readouterr()
    assert captured.err == stderr and captured.out == ""


def test_verify_degeneration_ok(capsys, tmp_path):
    t = sr.make_cw(2)
    bs = sr.blocks(t, sr.cw_partition(2))
    key = (0, 1, 1)
    src = tmp_path / "t.tensor"
    src.write_text(sr.write_tensor(t))
    dst = tmp_path / "block.tensor"
    dst.write_text(sr.write_tensor(bs[key]))
    mp = tmp_path / "zeroing.map"
    mp.write_text(sr.write_degeneration_map(sr.zeroing_to_block(bs, key)))
    assert main(["verify-degeneration", str(src), str(dst), str(mp)]) == 0
    assert capsys.readouterr().out.strip() == "OK order h=0"


@pytest.mark.parametrize("text, code, stderr", [
    ("alpha 0 0 0 1/1\norder -1\n", 3, "parse error: line 2: bad order '-1'\n"),
    ("alpha 0 0 -2 1/1\norder 0\n", 3,
     "parse error: line 1: bad polynomial in 'alpha 0 0 -2 1/1'\n"),
    ("beta 0 0 0 1/1\nalpha -1 0 0 1/1\n", 3,
     "parse error: line 2: bad source/target in 'alpha -1 0 0 1/1'\n"),
    ("alpha 0 -1 0 1/1\n", 3, "parse error: line 1: bad source/target in 'alpha 0 -1 0 1/1'\n"),
    ("alpha 0 0 0 1/1\norder x\n", 3, "parse error: line 2: bad order 'x'\n"),
    ("alpha 0 0 0 1/1\norder 1 2\n", 3, "parse error: line 2: malformed order line\n"),
    ("alpha 0 0 0 1\norder 2\norder 0\n", 3, "parse error: line 3: repeated order line\n"),
    ("alpha 0 9 0 1/1\n", 4,
     "inapplicable input: alpha target index 9 outside tensor variables\n"),
], ids=["order", "exponent", "source", "target", "order-word", "order-arity", "order-twice",
        "target-range"])
def test_verify_degeneration_negative_map_values(capsys, tmp_path, text, code, stderr):
    """A negative or non-integer order, a malformed or second order line, and a
    negative exponent or index are refused at their line of the map file
    (exit 3), not later by the map's constructor or the domain check
    (exit 4); an index past the target's variables is inapplicable (exit 4)."""
    src = tmp_path / "t.tensor"
    src.write_text(sr.write_tensor(sr.make_cw(1)))
    mp = tmp_path / "bad.map"
    mp.write_text(text)
    assert main(["verify-degeneration", str(src), str(src), str(mp)]) == code
    captured = capsys.readouterr()
    assert captured.err == stderr and captured.out == ""


@pytest.mark.parametrize("which", ["tensor", "map"])
def test_oversized_coefficient_is_a_parse_error(capsys, tmp_path, which):
    """A coefficient whose numerator or denominator would need more digits
    than `int` reads is refused at its line (exit 3) before its power of
    ten is built, in a tensor file and in a map."""
    t = sr.make_cw(1)
    tensor, partition, dmap = tmp_path / "t.tensor", tmp_path / "t.partition", tmp_path / "t.map"
    text = sr.write_tensor(t)
    tensor.write_text(text + "2 2 2 1e10000000\n" if which == "tensor" else text)
    partition.write_text(sr.write_partition(sr.cw_partition(1)))
    dmap.write_text("order 0\nalpha 0 0 0 1\nbeta 1 1 0 1e-10000000\n")
    argv = (["verify-degeneration", str(tensor), str(tensor), str(dmap)] if which == "map"
            else ["bound", "--mode", "partition", str(tensor), str(partition)])
    start = time.perf_counter()
    assert main(argv) == 3
    assert time.perf_counter() - start < 1.0
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == {
        "tensor": f"parse error: line {text.count(chr(10)) + 1}: bad entry '2 2 2 1e10000000'\n",
        "map": "parse error: line 3: bad polynomial in 'beta 1 1 0 1e-10000000'\n"}[which]


def test_verify_degeneration_failure(capsys, tmp_path):
    t = sr.make_cw(1)
    src = tmp_path / "t.tensor"
    src.write_text(sr.write_tensor(t))
    dst = tmp_path / "one.tensor"
    dst.write_text(sr.write_tensor(sr.make_independent(1)))
    mp = tmp_path / "empty.map"
    mp.write_text("order 0\n")
    assert main(["verify-degeneration", str(src), str(dst), str(mp)]) == 1
    assert "FAIL" in capsys.readouterr().out


def relabeled(t, p, perm):
    """The tensor and partition with index i renamed perm[i] on every axis."""
    n = len(perm)
    entries = {(perm[i], perm[j], perm[k]): c for (i, j, k), c in t.entries.items()}
    parts = [[(label, [perm[i] for i in idx]) for label, idx in p.parts(ax)]
             for ax in "xyz"]
    return (sr.Tensor(range(n), range(n), range(n), entries),
            sr.VariablePartition(*parts, (n, n, n)))


def test_remove_x_cw1_cube_same_value_for_every_relabeling(capsys, tmp_path):
    cw = sr.make_cw(1)
    cube = sr.symmetric_cube(cw)
    part = sr.cube_partition(cw, sr.cw_partition(1))
    values = []
    for s in (None, 1, 2, 3):
        perm = list(range(27))
        if s is not None:
            random.Random(s).shuffle(perm)
        t, p = relabeled(cube, part, perm)
        tensor = tmp_path / f"cube{s}.tensor"
        tensor.write_text(sr.write_tensor(t))
        partition = tmp_path / f"cube{s}.partition"
        partition.write_text(sr.write_partition(p))
        assert main(["bound", "--mode", "remove-x", str(tensor), str(partition)]) == 0
        values.append(capsys.readouterr().out.split()[1])
    assert len(set(values)) == 1
    assert abs(float(values[0]) - 26.5461) < 1e-3


# `bound --mode remove-x` on relabeled cubes, as printed before the max-min
# on their B parts was solved on colour classes (5,489 blocks and 1,026
# parts of the CW_5 cube's B become 46 and 27 classes).
REMOVE_X_CUBE_LINES = {
    "cw3": "slice_rank_upper 110.541427812 low-x-rank-split B_bound=79.9383776,"
           "B_bound_used=79.9383776,m_A=125,weight=0.0833486297,x_rank_A=1,x_rank_B=124 -",
    "cw5": "slice_rank_upper 271.690193464 low-x-rank-split B_bound=189.114182,"
           "B_bound_used=189.114182,m_A=343,weight=0.0921372072,x_rank_A=1,x_rank_B=342 -",
    "t112": "slice_rank_upper 396.000000000 low-x-rank-split B_bound=315,"
            "B_bound_used=315,m_A=360,weight=0.204545455,x_rank_A=81,x_rank_B=315 -",
}


@pytest.mark.parametrize("name, t, p", [
    ("cw3", sr.make_cw(3), sr.cw_partition(3)), ("cw5", sr.make_cw(5), sr.cw_partition(5)),
    ("t112", sr.make_t112(3), sr.t112_partition(3))])
def test_remove_x_on_relabeled_cubes_prints_pinned_line(name, t, p, capsys, tmp_path):
    cube = sr.symmetric_cube(t)
    perm = list(range(cube.shape[0]))
    random.Random(7).shuffle(perm)
    ct, cp = relabeled(cube, sr.cube_partition(t, p), perm)
    tensor, partition = tmp_path / "cube.tensor", tmp_path / "cube.partition"
    tensor.write_text(sr.write_tensor(ct))
    partition.write_text(sr.write_partition(cp))
    assert main(["bound", "--mode", "remove-x", str(tensor), str(partition)]) == 0
    assert capsys.readouterr().out == REMOVE_X_CUBE_LINES[name] + "\n"


@pytest.mark.parametrize("argv", [["bound", "--mode", "mu-sum", "t", "p"],
                                  ["verify-degeneration", "t", "t", "m"]])
def test_variable_count_too_large_exit_code(capsys, tmp_path, monkeypatch, argv):
    """A count whose labels cannot be held is a parse error at its header
    line (exit 3), not a MemoryError (exit 1); CPython refuses a tuple of
    2**62 items before allocating it."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "t").write_text(f"xvars 1\nyvars {2 ** 62}\nzvars 1\n")
    (tmp_path / "p").write_text("x a 0\ny a 0\nz a 0\n")
    (tmp_path / "m").write_text("order 0\n")
    assert main(argv) == 3
    captured = capsys.readouterr()
    assert captured.err == f"parse error: line 2: variable count {2 ** 62} too large\n"
    assert captured.out == ""


@st.composite
def malformed_files(draw):
    """A tiny tensor file and a partition file for it, with at most one
    fault: a count negative, not a number or too large to hold, a token
    out of range or not a number, a line dropped or moved to the end, or
    an index listed twice in its part."""
    sizes = [draw(st.integers(0, 3)) for _ in range(3)]
    tensor = [[f"{ax}vars", str(n)] for ax, n in zip("xyz", sizes)]
    if all(sizes):
        keys = draw(st.lists(st.tuples(*(st.integers(0, n - 1) for n in sizes)),
                             max_size=5, unique=True))
        tensor += [[*map(str, key), draw(st.sampled_from(["1", "-1/2", "0", "2e1"]))]
                   for key in keys]
    partition = []
    for ax, n in zip("xyz", sizes):
        cut = draw(st.integers(min(n, 1), n))
        partition += [[ax, label, *map(str, idx)]
                      for label, idx in (("a", range(cut)), ("b", range(cut, n))) if idx]
    lines = draw(st.sampled_from([tensor, partition]))
    fault = draw(st.sampled_from([None, "count", "token", "drop", "move", "twice"]))
    if fault == "count":
        draw(st.sampled_from(tensor[:3]))[1] = draw(st.sampled_from(["-1", "x", str(2 ** 62)]))
    elif fault == "token" and lines:
        line = draw(st.sampled_from(lines))
        line[draw(st.integers(1, len(line) - 1))] = draw(st.sampled_from(["-1", "3", "q", "1/0"]))
    elif fault in ("drop", "move") and lines:
        line = lines.pop(draw(st.integers(0, len(lines) - 1)))
        if fault == "move":
            lines.append(line)
    elif fault == "twice" and partition:
        line = draw(st.sampled_from(partition))
        line.append(line[-1])
    return "\n".join(map(" ".join, tensor)) + "\n", "\n".join(map(" ".join, partition)) + "\n"


@settings(max_examples=80, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(files=malformed_files(), mode=st.sampled_from(["mu-sum", "partition", "remove-x", "laser"]))
@example(files=(f"xvars 1\nyvars {2 ** 62}\nzvars 1\n0 0 0 1\n", "x a 0\ny a 0\nz a 0\n"),
         mode="mu-sum")
def test_malformed_files_never_end_in_exit_1(capsys, tmp_path, files, mode):
    """`bound` on malformed tensor and partition files ends in a defined
    exit code, never in exit 1 (a golden mismatch) or a traceback."""
    tensor, partition = tmp_path / "t.tensor", tmp_path / "t.partition"
    tensor.write_text(files[0])
    partition.write_text(files[1])
    assert main(["bound", "--mode", mode, str(tensor), str(partition)]) in (0, 2, 3, 4)
    capsys.readouterr()


def test_negative_variable_count_exit_code(capsys, tmp_path):
    """A negative count is refused at its header line in the tensor file,
    not read as an empty axis that fails later in the partition file."""
    bad = tmp_path / "bad.tensor"
    bad.write_text("xvars 1\nyvars -1\nzvars 1\n")
    part = tmp_path / "p.partition"
    part.write_text("x all 0\ny all 0\nz all 0\n")
    assert main(["bound", "--mode", "partition", str(bad), str(part)]) == 3
    captured = capsys.readouterr()
    assert captured.err == "parse error: line 2: bad variable count '-1'\n"
    assert captured.out == ""


@pytest.mark.parametrize("which, data, stderr", [
    ("tensor", b"xvars 3\nyvars 3\nzvars 3\n# caf\xe9\n0 0 2 1\n",
     "parse error: line 4: not UTF-8: byte 0xe9 (invalid continuation byte)\n"),
    ("partition", b"x all 0 1 2\r\ny all 0 1 2\rz \xff 0 1 2\n",
     "parse error: line 3: not UTF-8: byte 0xff (invalid start byte)\n"),
    ("map", b"order 0\n\n\nalpha 0 0 0 1/1 # \xe2\x82",
     "parse error: line 4: not UTF-8: byte 0xe2 (unexpected end of data)\n"),
    ("partition", b"x a 0 1 2\ny a 0 1 x\nz a 0 1 2\n",
     "parse error: line 2: bad index in 'y a 0 1 x'\n"),
], ids=["tensor", "partition", "map", "partition-index"])
def test_non_utf8_input_exit_code(capsys, tmp_path, which, data, stderr):
    """A file that is not UTF-8 is a parse error (exit 3) at the line of
    its first bad byte, lines counted as text mode reads them; so is a
    partition index that is not an integer, at its line."""
    files = {"tensor": sr.write_tensor(sr.make_cw(1)).encode(),
             "partition": sr.write_partition(sr.cw_partition(1)).encode(),
             "map": b"order 0\n", which: data}
    for name, content in files.items():
        (tmp_path / name).write_bytes(content)
    tensor, partition, dmap = (str(tmp_path / name) for name in ("tensor", "partition", "map"))
    argv = (["verify-degeneration", tensor, tensor, dmap] if which == "map"
            else ["bound", "--mode", "mu-sum", tensor, partition])
    assert main(argv) == 3
    captured = capsys.readouterr()
    assert captured.err == stderr and captured.out == ""


@pytest.mark.parametrize("newline", ["\r\n", "\r"])
def test_input_line_breaks_as_text_mode_reads_them(capsys, tmp_path, newline):
    """Lines of input files end at "\\r\\n" and "\\r" too, as in text mode,
    so the answer and the line of a parse error are those of the "\\n"
    file."""
    t, p = sr.make_cw(1), sr.cw_partition(1)
    out = []
    for brk in ("\n", newline):
        tensor, partition = tmp_path / "t.tensor", tmp_path / "p.partition"
        tensor.write_bytes(sr.write_tensor(t).replace("\n", brk).encode())
        partition.write_bytes(sr.write_partition(p).replace("\n", brk).encode())
        assert main(["bound", "--mode", "mu-sum", str(tensor), str(partition)]) == 0
        tensor.write_bytes(f"xvars 1{brk}yvars 1{brk}zvars 1{brk}0 0 0 1/0{brk}".encode())
        assert main(["bound", "--mode", "mu-sum", str(tensor), str(partition)]) == 3
        out.append(capsys.readouterr())
    assert out[0] == out[1]
    assert out[0].err == "parse error: line 4: bad entry '0 0 0 1/0'\n"


@pytest.mark.parametrize("argv, stderr", [
    (["table", "foo"], "parse error: slicerank table: argument family: invalid choice: "
                       "'foo' (choose from 'cw', 'cw-small', 'tq-lower')\n"),
    (["t112", "abc"], "parse error: slicerank t112: argument q: invalid int value: 'abc'\n"),
    (["table", "cw", "--qmax", "x"],
     "parse error: slicerank table: argument --qmax: invalid int value: 'x'\n"),
    (["table", "cw", "--seed", "7"], "parse error: slicerank: unrecognized arguments: --seed 7\n"),
])
def test_usage_error_exit_code(capsys, argv, stderr):
    """Command lines argparse rejects exit 3 with one line, not argparse's
    exit 2 (taken by convergence failures) and multi-line usage text."""
    assert main(argv) == 3
    captured = capsys.readouterr()
    assert captured.err == stderr and captured.out == ""


def test_module_entry_point(capsys):
    """`python -m slicerank.cli` runs `main` on the command line and exits
    with its code."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    for argv, code in [(["table", "cw", "--qmax", "2"], 0), (["table", "foo"], 3)]:
        run = subprocess.run([sys.executable, "-m", "slicerank.cli", *argv], env=env,
                             capture_output=True, text=True, timeout=120)
        assert main(argv) == run.returncode == code
        captured = capsys.readouterr()
        assert (run.stdout, run.stderr) == (captured.out, captured.err)


def test_help_exit_code(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["table", "--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: slicerank table")


def test_one_parser_per_process(capsys, monkeypatch):
    """`main` builds its parser on the first call and reuses it; no value
    of one command line is carried over to the next."""
    from slicerank import cli
    built = []
    build = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or build())
    cli._parser.cache_clear()
    assert main(["table", "cw", "--qmax", "2", "--format", "tsv"]) == 0
    assert [len(line.split("\t")) for line in capsys.readouterr().out.splitlines()] == [4, 4]
    assert main(["table", "cw", "--qmax", "1"]) == 0
    out = capsys.readouterr().out
    assert "\t" not in out and out.split()[::3] == ["1", "PASS"]
    assert main(["table", "foo"]) == 3
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == (
        "parse error: slicerank table: argument family: invalid choice: "
        "'foo' (choose from 'cw', 'cw-small', 'tq-lower')\n")
    with pytest.raises(SystemExit) as exc:
        main(["table", "--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: slicerank table")
    assert len(built) == 1


@pytest.mark.parametrize("argv, code", [
    (["table", "cw", "--qmax", "0"], 4),
    (["table", "tq-lower", "--qmax", "1"], 4),
    (["t112", "0"], 4),
    (["appendix", "--qmax", "5"], 4),
    (["bound", "--mode", "partition", "missing.tensor", "missing.partition"], 3),
])
def test_bad_arguments_exit_code(capsys, tmp_path, monkeypatch, argv, code):
    monkeypatch.chdir(tmp_path)
    assert main(argv) == code
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1 and "Traceback" not in err


def test_benchmark_tracer_reads_solver_statistics(capsys, tmp_path, monkeypatch):
    """The benchmark's tracer (perfbench/tracer.py) takes each solver's
    block set from its first argument and reads `iterations` and
    `kkt_residual` off its result, for the max-min and symmetric solves."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    import tracer
    from slicerank import cli
    tensor, part = tmp_path / "t112.tensor", tmp_path / "t112.partition"
    tensor.write_text(sr.write_tensor(sr.make_t112(3)))
    part.write_text(sr.write_partition(sr.t112_partition(3)))
    with tracer.Tracer() as traced:
        assert cli.main(["bound", "--mode", "partition", str(tensor), str(part)]) == 0
        assert cli.main(["table", "cw", "--qmax", "2"]) == 0
    stats = traced.summary(1)
    assert stats["optimizer.maximize_minmax.calls"] == 1
    assert stats["optimizer.maximize_symmetric.calls"] == 1
    assert stats["optimizer.iterations"] > 0
    assert stats["optimizer.kkt_residual_max"] < 1e-6
