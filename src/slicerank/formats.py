"""The line-oriented text formats of tensors, variable partitions and
degeneration maps, and `load`, which reads a file for their parsers.
Every syntax error in them is a `ParseError` naming its line."""

from __future__ import annotations

import sys
from fractions import Fraction

import numpy as np

from .degeneration import DegenerationMap, LambdaPoly
from .exact_linalg import _exact
from .tensor_core import AXES, PartitionError, Tensor, VariablePartition


class ParseError(ValueError):
    """Input file syntax error; carries the 1-based line number."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


def _text_lines(text: str) -> str:
    """Text mode's universal newlines: "\\r\\n" and "\\r" read as "\\n"."""
    return text.replace("\r\n", "\n").replace("\r", "\n")


def load(path, parser):
    """`parser` of the file at `path` read as UTF-8 with universal newlines;
    a file that is not UTF-8 is a `ParseError` at its first bad byte's line."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        # the valid prefix decodes, so its line breaks number the bad byte's line
        line = _text_lines(data[:exc.start].decode("utf-8")).count("\n") + 1
        raise ParseError(line, f"not UTF-8: byte 0x{data[exc.start]:02x} ({exc.reason})")
    return parser(_text_lines(text))


def _content_lines(text: str):
    """(1-based line number, tokens) of each line with tokens; a line ends
    at "\n" only, and `#` starts a comment."""
    for n, raw in enumerate(text.split("\n"), start=1):
        toks = (raw.split("#", 1)[0] if "#" in raw else raw).split()
        if toks:
            yield n, toks


def _natural(tok: str) -> int:
    """The value `int(tok)` reads, if it is >= 0; a ValueError otherwise."""
    value = int(tok)
    if value < 0:
        raise ValueError(f"negative {tok!r}")
    return value


def _coefficient(tok: str):
    """The value `Fraction(tok)` reads (or the error it raises), as an
    `int` when integral; a ValueError too when its numerator or denominator
    has more digits than `str` prints, `sys.get_int_max_str_digits()` (the
    limit `int` sets on index tokens).  An exponent past that limit plus
    the token's length leaves a nonzero value past it as well, so it is cut
    to that before `Fraction` builds its power of ten."""
    limit = sys.get_int_max_str_digits()
    mantissa, e, exp = tok.lower().partition("e")
    if limit and e and abs(int(exp)) > limit + len(tok):
        tok = f"{mantissa}e{limit + len(tok)}"
    c = Fraction(tok)
    str(c)  # the ValueError past the limit
    return _exact(c)


def _ratio(c) -> str:
    """A coefficient as the `num/den` token the parsers read back."""
    return f"{c.numerator}/{c.denominator}"


class _TokenValues(dict):
    """token -> `read(token)`, reading each distinct token once; the
    errors of `read` pass through and nothing is stored for them."""

    __slots__ = ("read",)

    def __init__(self, read):
        super().__init__()
        self.read = read

    def __missing__(self, tok):
        value = self[tok] = self.read(tok)
        return value


def _digit_tokens(body: bytes):
    """The tokens of `body` as int64 values, and whether each ends its
    line, when `body` holds only lines of tokens of 1 to 18 ASCII digits
    (so int64 holds each), one space apart, each line ended by "\n"; None
    otherwise.  `np.fromstring` saturates a longer token and stops at a
    character it does not read, so both are refused before it runs."""
    if body.translate(None, b"0123456789 \n") or not body.endswith(b"\n"):
        return None
    b = np.frombuffer(body, np.uint8)
    ends = np.flatnonzero(b < 48)  # the space or "\n" after each token
    step = ends[1:] - ends[:-1]    # the length of each later token, plus one
    if not 1 <= ends[0] <= 18 or (len(step) and not 2 <= step.min() <= step.max() <= 19):
        return None
    return np.fromstring(body, np.int64, sep=" "), b[ends] == 10


def _regular_tensor(text: str):
    """The tensor of a regular integer file, read in arrays: three header
    lines `xvars n`, `yvars n`, `zvars n` in any order, then only `i j k n`
    or `i j k n/1` lines as `_digit_tokens` reads them, every index in
    range and no key twice.  None for any other text, which the line loop
    of `parse_tensor` reads to the same tensor or error."""
    lines = text.split("\n", 3)
    if len(lines) < 4 or not text.isascii():
        return None
    counts = {}
    for line in lines[:3]:
        name, _, tok = line.partition(" ")
        if name not in ("xvars", "yvars", "zvars") or name in counts \
                or not tok.isdigit() or len(tok) > 18:
            return None
        counts[name] = int(tok)
    shape = nx, ny, nz = counts["xvars"], counts["yvars"], counts["zvars"]
    body = lines[3].encode()
    if not body.endswith(b"\n"):
        body += b"\n"
    if b"/" in body:
        body = body.replace(b"/1\n", b"\n")
    read = _digit_tokens(body)
    if read is None or len(read[1]) != 4 * body.count(b"\n") or not read[1][3::4].all() \
            or nx * ny * nz >= 2 ** 63:
        return None
    entries = read[0].reshape(-1, 4)
    keys, coefs = entries[:, :3], entries[:, 3]
    if (keys >= shape).any():
        return None
    codes = keys @ np.array([ny * nz, nz, 1])
    codes = codes[np.argsort(codes, kind="stable")]
    if (codes[1:] == codes[:-1]).any():
        return None
    if not coefs.all():
        keys, coefs = keys[coefs != 0], coefs[coefs != 0]
    try:
        labels = [tuple(range(n)) for n in shape]
    except (MemoryError, OverflowError):
        return None
    return Tensor._from_arrays(*labels, keys, coefs)


def parse_tensor(text: str) -> Tensor:
    """Parse the line-oriented tensor format.

    Header lines `xvars n`, `yvars n`, `zvars n` (n >= 0, any order, each
    once, before the entries), then one entry per line: `i j k num/den` with
    0-based indices.  `#` starts a comment; a line ends at "\n" only.
    A regular integer file, as `write_tensor` writes an integer tensor
    with positive coefficients, is read in arrays (`_regular_tensor`);
    any other text line by line.
    """
    regular = _regular_tensor(text)
    if regular is not None:
        return regular
    labels = {}
    entries = {}
    # a file repeats few index and coefficient tokens (a cube file's 729
    # entries use 27 indices and one coefficient), so each is read once
    indices, values = _TokenValues(int), _TokenValues(_coefficient)
    for n, toks in _content_lines(text):
        if toks[0] in ("xvars", "yvars", "zvars"):
            if len(toks) != 2:
                raise ParseError(n, f"malformed header {' '.join(toks)!r}")
            if entries:
                raise ParseError(n, f"{toks[0]} header after the entries")
            if toks[0][0] in labels:
                raise ParseError(n, f"repeated {toks[0]} header")
            try:
                count = _natural(toks[1])
            except ValueError:
                raise ParseError(n, f"bad variable count {toks[1]!r}")
            try:
                labels[toks[0][0]] = tuple(range(count))
            except (MemoryError, OverflowError):
                raise ParseError(n, f"variable count {count} too large")
            if len(labels) == 3:
                nx, ny, nz = len(labels["x"]), len(labels["y"]), len(labels["z"])
            continue
        if len(labels) != 3:
            raise ParseError(n, "entry before xvars/yvars/zvars headers")
        if len(toks) != 4:
            raise ParseError(n, f"expected 'i j k coeff', got {' '.join(toks)!r}")
        try:
            key = (indices[toks[0]], indices[toks[1]], indices[toks[2]])
            c = values[toks[3]]
        except (ValueError, ZeroDivisionError):
            raise ParseError(n, f"bad entry {' '.join(toks)!r}")
        if key in entries:
            raise ParseError(n, f"duplicate entry for {key}")
        i, j, k = key
        if not (0 <= i < nx and 0 <= j < ny and 0 <= k < nz):
            for idx, ax, size in zip(key, "xyz", (nx, ny, nz)):
                if not 0 <= idx < size:
                    raise ParseError(n, f"{ax} index {idx} out of range")
        entries[key] = c
    if len(labels) != 3:
        raise ParseError(1, "missing xvars/yvars/zvars headers")
    return Tensor._unchecked(*map(labels.get, AXES), {key: c for key, c in entries.items() if c})


def write_tensor(t: Tensor) -> str:
    nx, ny, nz = t.shape
    lines = [f"xvars {nx}", f"yvars {ny}", f"zvars {nz}"]
    lines += [f"{i} {j} {k} {_ratio(c)}" for (i, j, k), c in sorted(t.entries.items())]
    return "\n".join(lines) + "\n"


def parse_partition(text: str, sizes=None) -> VariablePartition:
    """Parse the partition format: one `axis label index index ...` per line.

    If `sizes` is omitted the axis sizes are taken to be the total index
    counts seen per axis.
    """
    parts = {"x": [], "y": [], "z": []}
    line_of = {"x": [], "y": [], "z": []}
    last = 1
    for n, toks in _content_lines(text):
        if toks[0] not in parts or len(toks) < 3:
            raise ParseError(n, f"expected 'axis label idx...', got {' '.join(toks)!r}")
        try:
            idx = [int(tok) for tok in toks[2:]]
        except ValueError:
            raise ParseError(n, f"bad index in {' '.join(toks)!r}")
        parts[toks[0]].append((toks[1], idx))
        line_of[toks[0]].append(n)
        last = n
    if sizes is None:
        sizes = tuple(sum(len(idx) for _, idx in parts[ax]) for ax in AXES)
    try:
        return VariablePartition(parts["x"], parts["y"], parts["z"], sizes)
    except PartitionError as exc:
        # a missing index is reported at the axis's last part, or at the
        # end of the input when the axis has no parts
        lines = line_of[exc.axis]
        at = lines[-1 if exc.part is None else exc.part] if lines else last
        raise ParseError(at, str(exc))


def write_partition(p: VariablePartition) -> str:
    """The partition format of `p`; a ValueError naming the axis and label
    of a part whose label `parse_partition` would not read back as one
    token from a UTF-8 file: empty, or holding whitespace, `#` or a lone
    surrogate (which UTF-8 cannot encode)."""
    lines = []
    for ax, own in zip(AXES, p.axis_parts):
        for label, idx in own:
            if label.split() != [label] or "#" in label \
                    or label.encode(errors="ignore").decode() != label:  # drops a surrogate
                raise ValueError(f"part label {label!r} on axis {ax} is empty or holds whitespace, # "
                                 "or a lone surrogate")
            lines.append(f"{ax} {label} " + " ".join(str(i) for i in idx))
    return "\n".join(lines) + "\n"


_MAP_NAMES = {"alpha": 0, "beta": 1, "gamma": 2}


def parse_degeneration_map(text: str) -> DegenerationMap:
    """Parse the line-oriented map format.

    Monomial lines: `alpha src dst exponent num/den` (same for beta and
    gamma).  General polynomial lines: `alphaP src dst e1 c1 e2 c2 ...`.
    One `order h` line sets the degeneration order (default 0); a second
    is an error.  Lines on one map's (source, target) pair add up.
    Indices, exponents and the order are nonnegative integers.
    """
    maps = ({}, {}, {})
    order = None
    for n, toks in _content_lines(text):
        head = toks[0]
        if head == "order":
            if len(toks) != 2 or order is not None:
                raise ParseError(n, f"{'malformed' if order is None else 'repeated'} order line")
            try:
                order = _natural(toks[1])
            except ValueError:
                raise ParseError(n, f"bad order {toks[1]!r}")
            continue
        general = head.endswith("P")
        name = head[:-1] if general else head
        if name not in _MAP_NAMES:
            raise ParseError(n, f"unknown directive {head!r}")
        try:
            src, dst = _natural(toks[1]), _natural(toks[2])
        except (IndexError, ValueError):
            raise ParseError(n, f"bad source/target in {' '.join(toks)!r}")
        body = toks[3:]
        if general:
            if not body or len(body) % 2:
                raise ParseError(n, "polynomial needs exponent/coefficient pairs")
            pairs = zip(body[0::2], body[1::2])
        else:
            if len(body) != 2:
                raise ParseError(n, "monomial line needs exponent and coefficient")
            pairs = [(body[0], body[1])]
        coeffs = maps[_MAP_NAMES[name]].setdefault((src, dst), {})
        try:
            for e_tok, c_tok in pairs:
                e = _natural(e_tok)
                coeffs[e] = coeffs.get(e, 0) + _coefficient(c_tok)
        except (ValueError, ZeroDivisionError):
            raise ParseError(n, f"bad polynomial in {' '.join(toks)!r}")
    return DegenerationMap(*({pair: LambdaPoly(coeffs) for pair, coeffs in m.items()}
                             for m in maps), order or 0)


def write_degeneration_map(d: DegenerationMap) -> str:
    lines = []
    for name, mapping in zip(("alpha", "beta", "gamma"), d.maps()):
        for (src, dst) in sorted(mapping):
            poly = mapping[(src, dst)]
            if poly.is_monomial():
                (e, c), = poly.coeffs.items()
                lines.append(f"{name} {src} {dst} {e} {_ratio(c)}")
            else:
                body = " ".join(f"{e} {_ratio(c)}" for e, c in sorted(poly.coeffs.items()))
                lines.append(f"{name}P {src} {dst} {body}")
    lines.append(f"order {d.order}")
    return "\n".join(lines) + "\n"
