"""End-to-end CLI behavior: output, golden checks, exit codes."""

import math
import random
import sys
import warnings
from pathlib import Path

import pytest

import slicerank as sr
from slicerank import bound_engines as be
from slicerank.cli import main


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


def test_table_beyond_golden_rows(capsys):
    assert main(["table", "tq-lower", "--qmax", "6"]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert out[-1].split()[-1] == "--"


def test_table_golden_mismatch_exit(capsys):
    assert main(["table", "cw", "--qmax", "2", "--tol", "1e-12"]) == 1
    out = capsys.readouterr().out
    assert "FAIL" in out


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


def test_appendix(capsys):
    assert main(["appendix", "--qmax", "1000"]) == 0
    out = capsys.readouterr().out
    assert ">= 2.16805 PASS" in out
    assert "v_8" in out and "f_v8" in out


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
    counts = count_calls(lambda: main(["bound", "--mode", "laser", *cw5_files]),
                         sr.tensor_core.blocks, sr.tensor_core.is_variable_symmetric)
    assert capsys.readouterr().out.strip() == "S~ = Q~ = 5.77629 (tight)"
    assert counts == {"blocks": 1, "is_variable_symmetric": 1}


def test_bound_partition_mode(capsys, cw5_files):
    tensor, part = cw5_files
    assert main(["bound", "--mode", "partition", tensor, part]) == 0
    out = capsys.readouterr().out
    assert out.startswith("slice_rank_upper 5.776285")


def test_bound_mu_sum_mode(capsys, cw5_files):
    tensor, part = cw5_files
    assert main(["bound", "--mode", "mu-sum", tensor, part]) == 0
    assert capsys.readouterr().out.startswith("slice_rank_upper")


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
    """remove-x on the cube of this 2x3x3 tensor drives an axis weight of
    B to 2e-18, where the weights' Newton system has a negative diagonal.
    The solver falls back without a numpy warning, and the command line
    reports only the unconverged solve."""
    t = sr.Tensor(range(2), range(3), range(3),
                  dict.fromkeys([(0, 0, 0), (0, 1, 0), (0, 1, 1), (0, 2, 0), (1, 2, 0)], 1))
    p = sr.VariablePartition([("0", [1]), ("1", [0])], [("0", [0]), ("1", [1, 2])],
                             [("0", [0, 1, 2])], t.shape)
    tensor, part = tmp_path / "cube.tensor", tmp_path / "cube.partition"
    tensor.write_text(sr.write_tensor(sr.symmetric_cube(t)))
    part.write_text(sr.write_partition(sr.cube_partition(t, p)))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["bound", "--mode", "remove-x", str(tensor), str(part)]) == 2
    assert [str(w.message) for w in caught] == []
    captured = capsys.readouterr()
    assert captured.err == "convergence failure\n"
    assert captured.out == ""


@pytest.mark.parametrize("mode, stderr", [
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


@pytest.mark.parametrize("text, stderr", [
    ("alpha 0 0 0 1/1\norder -1\n", "parse error: line 2: bad order '-1'\n"),
    ("alpha 0 0 -2 1/1\norder 0\n",
     "parse error: line 1: bad polynomial in 'alpha 0 0 -2 1/1'\n"),
    ("beta 0 0 0 1/1\nalpha -1 0 0 1/1\n",
     "parse error: line 2: bad source/target in 'alpha -1 0 0 1/1'\n"),
    ("alpha 0 -1 0 1/1\n", "parse error: line 1: bad source/target in 'alpha 0 -1 0 1/1'\n"),
], ids=["order", "exponent", "source", "target"])
def test_verify_degeneration_negative_map_values(capsys, tmp_path, text, stderr):
    """A negative order, exponent or index is refused at its line of the
    map file (exit 3), not later by the map's constructor or the domain
    check (exit 4)."""
    src = tmp_path / "t.tensor"
    src.write_text(sr.write_tensor(sr.make_cw(1)))
    mp = tmp_path / "bad.map"
    mp.write_text(text)
    assert main(["verify-degeneration", str(src), str(src), str(mp)]) == 3
    captured = capsys.readouterr()
    assert captured.err == stderr and captured.out == ""


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
    assert stats["optimizer.maximize_symmetric.calls"] == 2
    assert stats["optimizer.iterations"] > 0
    assert stats["optimizer.kkt_residual_max"] < 1e-6
