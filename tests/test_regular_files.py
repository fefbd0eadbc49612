"""Regular tensor files, read in arrays, against the line loop of
`parse_tensor`; the read-only forms of a tensor and a block set."""

import io
import os
import pickle
import sys
import threading
import tracemalloc
from contextlib import redirect_stdout
from fractions import Fraction
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import slicerank as sr
from slicerank import bound_engines as be, formats
from slicerank.cli import main
from slicerank.formats import ParseError
from slicerank.tensor_core import Tensor

from helpers import ROUND_TRIPS, relabeled_cw2_cube


def outcome(parse, text, *args):
    """What `parse` gives: ("ok", value) or ("error", message, line)."""
    try:
        return "ok", parse(text, *args)
    except ParseError as exc:
        return "error", str(exc), exc.line_no


def by_loop(parse, text, *args):
    """`parse` with its array path refused, so its line loop reads `text`."""
    with mock.patch.object(formats, "_regular_tensor", lambda text: None):
        return outcome(parse, text, *args)


def assert_same_tensor(got, want):
    assert got == want and hash(got) == hash(want)
    assert list(got.entries.items()) == list(want.entries.items())
    assert [type(c) for c in got.entries.values()] == [type(c) for c in want.entries.values()]


def assert_same_partition(got, want):
    assert got == want
    assert (got.sizes, got.where, got.summands) == (want.sizes, want.where, want.summands)


# -- random regular files and their mutations ----------------------------------

# tokens neither path may read as digits: signs, separators, a value past
# int64, a lone or trailing minus, decimals and exponents, non-ASCII
# digits and a fraction that is not n/1
BAD_TOKENS = ["+3", "1_000", "99999999999999999999", "-", "0-", "1.5", "1e3", "-3/6",
              "٣", "３", "3/2", "00000000000000000000003"]


@st.composite
def tensor_files(draw):
    """A regular integer tensor file: headers in any order, distinct keys
    in range, coefficients from 0 up to 18 digits written `n` or `n/1`."""
    shape = [draw(st.integers(1, 4)) for _ in range(3)]
    keys = draw(st.lists(st.tuples(*(st.integers(0, n - 1) for n in shape)),
                         min_size=1, max_size=12, unique=True))
    headers = [f"{name} {n}" for name, n in zip(("xvars", "yvars", "zvars"), shape)]
    lines = draw(st.permutations(headers))
    for key in keys:
        c = draw(st.one_of(st.integers(0, 3), st.integers(0, 10 ** 18 - 1)))
        lines.append(" ".join(map(str, key)) + " " + str(c) + draw(st.sampled_from(["", "/1"])))
    return lines


@st.composite
def mutated(draw, files):
    """A file of `files` with one fault or respelling a regular file may
    not have."""
    lines = draw(files)
    row = draw(st.integers(0, len(lines) - 1))
    toks = lines[row].split(" ")
    col = draw(st.integers(1, len(toks) - 1))
    kind = draw(st.sampled_from(["token", "tab", "comment", "twice", "range", "blank"]))
    if kind == "token":
        toks[col] = draw(st.sampled_from(BAD_TOKENS))
        lines[row] = " ".join(toks)
    elif kind == "tab":
        lines[row] = " ".join(toks[:col]) + "\t" + " ".join(toks[col:])
    elif kind == "comment":
        lines[row] += draw(st.sampled_from(["#", " # note", "#0"]))
    elif kind == "twice":
        lines.insert(draw(st.integers(0, len(lines))), lines[row])
    elif kind == "range":
        toks[col] = str(int(toks[col]) + 7) if toks[col].isdigit() else "9"
        lines[row] = " ".join(toks)
    else:
        lines[row] = " ".join(toks[:col]) + "  " + " ".join(toks[col:])
    return "\n".join(lines) + draw(st.sampled_from(["\n", "", "\n\n"]))


@settings(max_examples=300, deadline=None)
@given(tensor_files())
def test_regular_tensor_file_reads_as_its_line_loop(lines):
    """A regular integer file takes the array path, and gives the tensor
    the line loop gives: equal, hashing alike, entries in the same order
    with `int` coefficients, zeros dropped."""
    text = "\n".join(lines) + "\n"
    got = sr.parse_tensor(text)
    assert got._entries is None  # read in arrays
    kind, want = by_loop(sr.parse_tensor, text)
    assert kind == "ok"
    assert_same_tensor(got, want)


HEAD = "xvars 2\nyvars 2\nzvars 2\n"


@settings(max_examples=400, deadline=None)
@given(mutated(tensor_files()))
@example(HEAD + "0 0 0 99999999999999999999\n")   # saturates int64
@example(HEAD + "0 0 0 9223372036854775808/1\n")  # 2**63
@example(HEAD + "0 0 0 1 1\n0 0 1\n")            # 4 tokens a line on average
@example(HEAD + "0 0 0 1\n1 1 1 /1\n")
def test_mutated_tensor_file_reads_as_its_line_loop(text):
    """A file with a bad or respelled token, a tab, a comment, a repeated
    entry, an index out of range or two blanks gives what the line loop
    gives: the same tensor or the same error at the same line."""
    got, want = outcome(sr.parse_tensor, text), by_loop(sr.parse_tensor, text)
    assert got[0] == want[0]
    if got[0] == "ok":
        assert_same_tensor(got[1], want[1])
    else:
        assert got == want


def test_benchmark_file_formats_take_the_array_paths(tmp_path, monkeypatch):
    """The files the benchmark's own writers (perfbench/workloads.py) write
    for a relabeled CW_2 cube: the tensor is read in arrays, and both parse
    to the tensor and partition written."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    import workloads
    t, p = relabeled_cw2_cube(5)
    workloads.write_tensor(tmp_path / "t", dict(t.entries), t.shape)
    workloads.write_parts(tmp_path / "p", dict(zip("xyz", p.axis_parts)))
    got = formats._regular_tensor((tmp_path / "t").read_text())
    assert got is not None and got._entries is None and got == t
    assert_same_partition(sr.parse_partition((tmp_path / "p").read_text()), p)


def test_laser_and_mu_sum_on_a_parsed_cube_build_no_entries_dict(tmp_path, monkeypatch):
    """`bound --mode laser` and `--mode mu-sum` on a regular cube file read
    the tensor's arrays alone: its entries are never read."""
    t, p = relabeled_cw2_cube(11)
    (tmp_path / "t").write_text(sr.write_tensor(t))
    (tmp_path / "p").write_text(sr.write_partition(p))
    want = {}
    for mode in ("laser", "mu-sum"):
        with redirect_stdout(io.StringIO()) as out:
            assert main(["bound", "--mode", mode, str(tmp_path / "t"), str(tmp_path / "p")]) == 0
        want[mode] = out.getvalue()
    monkeypatch.setattr(Tensor, "entries", property(
        lambda self: pytest.fail("the entries of a parsed tensor were read")))
    for mode in ("laser", "mu-sum"):
        with redirect_stdout(io.StringIO()) as out:
            assert main(["bound", "--mode", mode, str(tmp_path / "t"), str(tmp_path / "p")]) == 0
        assert out.getvalue() == want[mode]


def test_uncovered_partition_allocates_nothing_per_variable():
    """A partition that leaves most of a 4,000,000-variable axis uncovered
    is refused, as before, before anything is held per variable."""
    tracemalloc.start()
    try:
        with pytest.raises(ParseError) as err:
            sr.parse_partition("x a 0\ny a 0\nz a 0\n", (4000000, 1, 1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(err.value) == "line 1: parts do not cover axis x"
    assert peak < 1 << 20


# -- read-only forms ---------------------------------------------------------------


@pytest.mark.parametrize("change", [
    lambda e: e.__setitem__((1, 1, 1), 7), lambda e: e.__delitem__((0, 0, 2)),
    lambda e: e.update({(1, 1, 1): 7}), lambda e: e.pop((0, 0, 2)), lambda e: e.popitem(),
    lambda e: e.clear(), lambda e: e.setdefault((1, 1, 1), 7), lambda e: e.__ior__({}),
], ids=["set", "delete", "update", "pop", "popitem", "clear", "setdefault", "or"])
def test_entries_cannot_be_changed(change):
    """A tensor's entries refuse every change, so its value, hash and
    equality stay put."""
    t = sr.make_cw(1)
    before = hash(t)
    with pytest.raises(TypeError, match="read-only"):
        change(t.entries)
    assert t == sr.make_cw(1) and hash(t) == before and len(t.entries) == 6


def test_entries_read_and_copy_as_a_dict():
    t = sr.make_cw(1)
    assert t.entries == dict(t.entries) and (0, 0, 2) in t.entries
    assert t.entries.get((1, 1, 1), 0) == 0 and dict(t.entries.items()) == t.entries
    for how, round_trip in ROUND_TRIPS.items():
        got = round_trip(t.entries)
        assert got == t.entries, how
        with pytest.raises(TypeError):
            got[(1, 1, 1)] = 7


@pytest.mark.parametrize("parsed", [False, True], ids=["built", "parsed"])
def test_tensor_arrays_are_read_only_and_survive_copies(parsed):
    """The key and coefficient arrays of a built and of a parsed tensor
    refuse writes; copies equal the original, keep the form it was in,
    and their arrays refuse writes too."""
    t = sr.make_cw(2)
    if parsed:
        t = sr.parse_tensor(sr.write_tensor(t))
        assert t._entries is None
    for how, round_trip in ROUND_TRIPS.items():
        got = round_trip(t)
        assert got == t and hash(got) == hash(t), how
        for tensor in (t, got):
            for a in (tensor.key_array, tensor.coef_array):
                assert not a.flags.writeable
                with pytest.raises(ValueError):
                    a[0] = 0
    assert np.array_equal(t.key_array, np.array(list(t.entries)))
    assert t.coef_array.tolist() == list(t.entries.values())


def test_first_read_of_a_derived_form_is_safe_across_threads():
    """More threads than cores read the entries of one parsed tensor and
    the arrays of one built tensor, none read before, half of them in each
    order, with the interpreter switching threads every microsecond: every
    thread gets equal values, and the forms each tensor keeps agree."""
    t, _ = relabeled_cw2_cube(41)
    text = sr.write_tensor(t)
    parsed, built = sr.parse_tensor(text), sr.make_cw(5)
    assert parsed._entries is None and built._keys is None and built._coefs is None
    want = (list(sr.parse_tensor(text).entries.items()), built.key_array.tolist(),
            built.coef_array.tolist())
    built = sr.make_cw(5)
    count = 4 * (os.cpu_count() or 1) + 2
    start = threading.Barrier(count, timeout=30)
    got = [None] * count

    def read(i):
        start.wait()
        if i % 2:
            got[i] = (list(parsed.entries.items()), built.key_array.tolist(),
                      built.coef_array.tolist())
        else:
            coefs, keys = built.coef_array.tolist(), built.key_array.tolist()
            got[i] = (list(parsed.entries.items()), keys, coefs)

    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=read, args=(i,)) for i in range(count)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        alive = [thread for thread in threads if thread.is_alive()]
    finally:
        sys.setswitchinterval(switch)
    assert alive == []
    assert all(g == want for g in got)
    assert list(parsed.entries.items()) == want[0] and parsed == t
    assert np.array_equal(parsed.key_array, np.array(list(parsed.entries)))


def test_coefficient_array_holds_objects_past_int64():
    for c in (2 ** 63, -2 ** 63 - 1, Fraction(1, 3)):
        t = Tensor(range(1), range(2), range(1), {(0, 0, 0): 1, (0, 1, 0): c})
        assert t.coef_array.dtype == object and t.coef_array.tolist() == [1, c]
    t = Tensor(range(1), range(2), range(1), {(0, 0, 0): 2 ** 63 - 1, (0, 1, 0): -2 ** 63})
    assert t.coef_array.dtype == np.int64 and t.coef_array.tolist() == [2 ** 63 - 1, -2 ** 63]


@pytest.mark.parametrize("how", ROUND_TRIPS)
def test_block_set_arrays_are_read_only(how):
    bs = sr.blocks(*relabeled_cw2_cube(3))
    for got in (bs, ROUND_TRIPS[how](bs)):
        for name in ("key_array", "entry_block", "group"):
            assert not getattr(got, name).flags.writeable, name
    readiness = be.laser_readiness(*relabeled_cw2_cube(3))
    assert not readiness.block_set.key_array.flags.writeable


def test_table_row_without_an_asserted_rank_is_refused():
    """A laser-ready row whose tensor asserts no asymptotic rank is refused
    with a ValueError naming its q, not an AttributeError."""
    row = (1, sr.direct_sum(sr.make_cw(1), sr.make_cw(2)),
           sr.partition_sum(sr.cw_partition(1), sr.cw_partition(2)))
    with pytest.raises(ValueError, match="row q=1: its tensor asserts no asymptotic rank"):
        be._tight_rows([row])


def test_pickled_tensor_keeps_its_entries_read_only():
    t = pickle.loads(pickle.dumps(sr.make_cw(1)))
    with pytest.raises(TypeError):
        t.entries[(1, 1, 1)] = 7
