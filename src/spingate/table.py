"""The CSV writers of every artifact table.

write_rows writes the numeric tables as %.12g, from ranges of rows that
its caller computes as the writer asks for them; write_csv writes the
small result tables of mixed cells.
"""

from __future__ import annotations

import os
from contextlib import ExitStack
from itertools import chain
from typing import Iterator

import numpy as np

# rows per formatted block.  Of 1024-8192, 4096 writes a 2^17-row trace
# in three-word slots about 13% faster (and 8% in four-word ones) and the
# other tables within 3%, but it doubles the writer's own peak (0.46 to
# 0.89 MiB for the three transmission files of 32768 rows in two-word
# slots, beside the range of rows they are given, 0.24 at 1024; 0.29 to
# 0.57 MiB for the trace), and with their rows computed range by range
# that peak is what the spectrum commands peak on; 1024 is 3-30% slower
BLOCK_ROWS = 2048
# rows of slots squeezed at a time, a quarter of a block: the squeeze's
# copy and its bytes stay below the formatter's temporaries
_SQUEEZE_ROWS = 512
# rows of squeezed bytes written by one os.writev call, half a block: the
# squeezed parts of a whole block held beside its four-word slots raised
# the writer's peak on a 79,872-row trace of "0.00"-prefix levels from
# 0.293 to 0.299 MiB, above the buffered writer it replaced (0.293); at
# half a block it is 0.289
_WRITE_ROWS = 1024
# rows the transmission and dispersion tables compute per range the
# writer asks for (the switching trace computes BLOCK_ROWS).  Each
# transmission_spectrum call has a fixed cost of 0.07 ms on the surface
# branch and 0.19 ms on the backward-volume one, its Halley loop (a
# 2-point grid): against one block of the whole grid, a 32768-point
# transmission job took 6-16% longer at 2048 rows, up to 12% at 4096 and
# up to 5% at 8192 (best of 40 interleaved in-process runs, 2 CPUs).
# Peak of that transmission (dispersion) command at 32768 points on
# either branch, its grid computed a range at a time (config.Grid) and
# its blocks in two-word slots: 0.54 (0.40) MiB at 2048 rows, 0.60 (0.44)
# at 4096, 0.72-0.80 (0.54-0.70) at 8192, 1.23-1.42 (0.81-1.33) at 16384
# and 2.12-2.53 (1.56-2.34) in one range.  At 8192 rows that is the
# writer's slots beside one range on the surface branch; on the
# backward-volume one the k-solve peaks above them
COMPUTE_ROWS = 8192
# a scaled value y at least this far from a rounding tie is rounded on the
# fast path: y is |x| times a power of ten within an ulp of exact (numpy's
# power), then rounded, so |error| < 1e12 * 3 * 2**-53 ~ 3.3e-4
_TIE_MARGIN = 1e-3
# the fast path takes a scaled value y in [1e11, _Y_TOP): its rounded 12
# digits never carry into a 13th
_Y_TOP = 1e12 - 1.0


def _words(chars) -> np.ndarray:
    """Rows of at most 8 byte values, each packed into a little-endian
    uint64 (the first value in the lowest byte)."""
    chars = np.asarray(chars)
    out = np.zeros((chars.shape[0], 8), np.uint8)
    out[:, :chars.shape[1]] = chars
    return out.view("<u8").ravel()


def _take(table: np.ndarray, index: np.ndarray) -> np.ndarray:
    """table[index], an index outside the table clipped to its ends."""
    return table.take(index, mode="clip")


# the four decimal digits of each n < 10^4 as ASCII, and the same with its
# trailing zeros left out (zero bytes), stacked: row n + 10^4 is stripped
_QUAD = 48 + np.indices((10,) * 4).reshape(4, -1).T
_QUAD_ZEROS = (_QUAD[:, ::-1] == 48).cumprod(axis=1)[:, ::-1].astype(bool)
_QUAD_TEXT = np.concatenate([_words(_QUAD), _words(_QUAD * ~_QUAD_ZEROS)])
_QUAD_TEXT_MID = _QUAD_TEXT << np.uint64(32)
_STRIPPED = 10 ** 4
# per decimal exponent X of _X (table index X + 297): the scale 10^(11-X)
# that puts the 12 digits before the point, 0 at the two ends, so that an
# index clipped to an end never scales into range
_X = np.arange(-297, 310)
_NX = _X.size
_SCALE = 10.0 ** (11 - _X)
_SCALE[[0, -1]] = 0.0
_SMALL = (_X >= -4) & (_X < 0)
_SCI = (_X < -4) | (_X >= 12)
_INT_DIGITS = np.where(_SCI, 1, np.where(_SMALL, 0, _X + 1))
# per (sign, X): "-" for the negative half, then the "0.00" of -4 <= X < 0
_ZEROS_PREFIX = np.where(_SMALL[:, None] & (np.arange(5) < 1 - _X[:, None]),
                         np.where(np.arange(5) == 1, ord("."), ord("0")), 0)
_PREFIX = np.concatenate([
    _words(_ZEROS_PREFIX),
    _words(np.column_stack([np.full(_NX, ord("-")), _ZEROS_PREFIX]))])
# per (separator, X): the "e+dd" of the exponent form (X < -4 or X >= 12),
# then the separator after the column; the zero bytes between are squeezed
_ABS_X = np.abs(_X)
_EXP_DIGITS = 48 + _ABS_X[:, None] // np.array([100, 10, 1]) % 10
_EXP_TEXT = _SCI[:, None] * np.column_stack([
    np.full(_NX, ord("e")), np.where(_X < 0, ord("-"), ord("+")),
    np.where(_ABS_X >= 100, _EXP_DIGITS[:, 0], 0), _EXP_DIGITS[:, 1:]])
_SEPARATORS = b",\n"
_EXPONENT = np.concatenate([_words(np.column_stack([_EXP_TEXT, np.full(_NX, s)]))
                            for s in _SEPARATORS])
# per X, as (low, high) words of the 16-byte digit field: "0" in the bytes
# before the point (under the digits, so a stripped zero comes back), the
# bytes from the point on (moved up one for it) and the byte of the point;
# -4 <= X < 0 has all three empty, its point is in the prefix
_BYTE = np.arange(16)
_POINT_AT = np.where(_SMALL, 16, _INT_DIGITS)[:, None]
_FILL_LOW, _FILL_HIGH = np.where(_BYTE < _INT_DIGITS[:, None], ord("0"), 0).astype(
    np.uint8).view("<u8").T.copy()
_FRAC_LOW, _FRAC_HIGH = np.where(_BYTE >= _POINT_AT, 255, 0).astype(
    np.uint8).view("<u8").T.copy()
_POINT_LOW, _POINT_HIGH = np.where(_BYTE == _POINT_AT, 1, 0).astype(
    np.uint8).view("<u8").T.copy()
_U = {n: np.uint64(n) for n in (5, 8, 16, 46, 48, 56, 63, 255, ord("-"),
                                 0x170, 0x2000, 0x3000, 0xFF00,
                                 0xFFFFFFFFFF000000)}
# the table indices of the exponents 0 <= X < 12, which write neither a
# prefix nor an exponent: where every value of a block has one, the sign,
# the digit field and the separator of each fit two words
_PLAIN_LO = -_X[0]
_PLAIN_HI = _PLAIN_LO + 12
# per X, whether a point follows the first digit (the exponent form and
# X = 0, which writes no exponent): where every value of a block has
# one, the sign, the first digit, the point and digits 1-5 fit one word,
# digits 6-11 a second and the exponent word is the third
_POINT_SECOND = _SCI | (_X == 0)
# per separator index (0 or _NX): the separator in a word's top byte
_SEPARATOR_TOP = np.zeros(_NX + 1, "<u8")
_SEPARATOR_TOP[[0, _NX]] = np.frombuffer(_SEPARATORS, np.uint8).astype(
    "<u8") << _U[56]


def _scaled(mag: np.ndarray, index: np.ndarray):
    """y = mag * 10^(11-X) for the exponent indices, and the mask of the
    values on the fast path: y in [1e11, _Y_TOP) and at least _TIE_MARGIN
    from a rounding tie (a 0, nan or inf fails, and so does any index at or
    past a table end)."""
    y = _take(_SCALE, index)
    np.multiply(mag, y, out=y)
    r = np.rint(y)
    fast = y >= 1e11
    fast &= y < _Y_TOP
    # |y - r| in place of y, which is not needed after it
    np.subtract(y, r, out=y)
    fast &= np.abs(y, out=y) <= 0.5 - _TIE_MARGIN
    return r, fast


def _digits(x: np.ndarray):
    """Per value x: the index of its decimal exponent X in the per-X
    tables, its 12 significant digits rounded to an integer, and the
    indices of the values off the fast path, which '%.12g' % formats
    (their index is X = 0's, so that the exponent word of their slot is
    the separator alone and they leave a block's layout to their text).

    X comes from log10; where it is one off (at some powers of ten) y
    misses [1e11, 1e12), and X is corrected on those values alone, as is
    everything else that misses the fast path: 0 (given X = 0 and the
    digits 0, which write "0"), nan, inf, values past the exponent range
    of the tables and ties.  Its own function, so that its temporaries are
    freed before the slots are made.
    """
    mag = np.abs(x)
    with np.errstate(divide="ignore", invalid="ignore"):
        index = np.log10(mag)
        index += -_X[0]
        np.floor(index, out=index)
        index = index.astype(np.intp)
        r, fast = _scaled(mag, index)
        off = np.flatnonzero(~fast)
        if off.size:
            y = mag[off] * _take(_SCALE, index[off])
            moved = index[off] + (y >= 1e12) - (y < 1e11)
            r_off, fast_off = _scaled(mag[off], moved)
            zero = x[off] == 0.0
            moved[zero] = -_X[0]
            r_off[zero] = 0.0
            fast_off |= zero
            index[off[fast_off]] = moved[fast_off]
            r[off] = r_off
            off = off[~fast_off]
            index[off] = -_X[0]
        return index, r.astype(np.int64), off


def _point(word: np.ndarray, frac: np.ndarray, point: np.ndarray) -> np.ndarray:
    """Move the bytes of word under the byte mask frac up one byte, in
    place, and put a point in the byte the one-hot mask point marks where
    the byte moved out of it is a digit.  Returns the moved bytes as they
    were in word (frac and point are worked in place)."""
    frac &= word
    word += frac * _U[255]
    point &= frac >> _U[5]
    point *= _U[46]
    word += point
    return frac


def _fallback_texts(x: np.ndarray, slow: np.ndarray):
    """Per part of _SQUEEZE_ROWS indices of slow: the part, and the
    '%.12g' % texts of x there as rows of 24 bytes, zero-padded.

    A generator, so that a caller iterating it once holds one part's
    texts at a time: a block of nan would otherwise hold the text of all
    its values three times over.
    """
    for start in range(0, slow.size, _SQUEEZE_ROWS):
        part = slow[start:start + _SQUEEZE_ROWS]
        text = ("%-24.12g" * part.size) % tuple(x[part].tolist())
        yield part, np.frombuffer(text.replace(" ", "\0").encode(),
                                  np.uint8).reshape(-1, 24)


def _place_points(index: np.ndarray, low: np.ndarray,
                  high: np.ndarray) -> None:
    """Put the point into the digit words low and high of the exponent
    indices, in place: the "0"s before it (under the digits, so a stripped
    zero comes back), and the bytes from it on moved up one byte, a point
    in front where a digit follows."""
    low |= _take(_FILL_LOW, index)
    high |= _take(_FILL_HIGH, index)
    # x + 255*frac is x with its fraction bytes moved up one; a point goes
    # where the first of them has a digit's 0x20 bit.  The high word goes
    # first, so that the byte the low word moves into it is not moved again
    _point(high, _take(_FRAC_HIGH, index), _take(_POINT_HIGH, index))
    frac = _point(low, _take(_FRAC_LOW, index), _take(_POINT_LOW, index))
    frac >>= _U[56]
    high += frac


def _format_block(x: np.ndarray, sep_index: np.ndarray) -> np.ndarray:
    """Slots of the ASCII bytes of the rows of values x (row-major; per
    value the index of the separator after it in _SEPARATORS, times _NX).

    A slot is two, three or four uint64 words, its bytes in order with
    zero bytes between, which _squeeze drops.  The 12 digits come from
    three gathers of four digits, each quad stripped of its trailing
    zeros when all the quads after it are zero, into two words: digits
    0-7 (low) and 8-11 (high).  A value off the fast path is written into
    its slot by '%.12g' % instead, its text made once.  The layout is
    chosen from the values alone, the first that fits:

    - plain, two words: every fast value has a decimal exponent
      0 <= X < 12 and every '%.12g' % text is at most 15 bytes.  The
      slot is the 16-byte digit field (below) moved up one byte: the
      sign ("-" or a zero byte) in the low byte, the separator after the
      column in the top one.
    - exponent form, three words: every value has X < -4, X = 0 or
      X >= 12, so that a point, if any, follows the first digit, and a
      fast one has X < -4 or X >= 12 (a block of X = 0 alone is plain,
      or takes four words for a long text).  Word 0 holds the sign,
      the first digit, the point and digits 1-5 and word 1 digits 6-11,
      both made from low and high by shifts and masks, with no gather
      per X; word 2 is the exponent and the separator (one gather from
      the (separator, X) table).  A fallback text fills all 24 bytes,
      the separator in the last.
    - any other block, four words: sign and "0.00" prefix (one gather
      from the (sign, X) table) | the digit field | exponent and
      separator.

    The digit field of the two-word and four-word layouts is 16 bytes of
    two words, its points placed by six gathers from per-X tables
    (_place_points).  The choice costs two reductions over the exponent
    indices, for a block that passes them a look at byte 15 of its
    fallback texts, and for one that fails them the gather of a flag per
    X.

    The call's tracemalloc peak is 7 arrays of x's length beside x on
    four words (the slots' four, the exponent indices and the two digit
    words), 6 on two (while the points go in, the exponent indices, the
    two digit words and three masks the same length) and 6 on three (the
    slots' three, the two digit words and one temporary); a block where
    every value falls back peaks at 9.4 on two or four words.
    """
    index, digits, slow = _digits(x)
    # the 12 digits as quads hi and mid (in work) and lo (worked in
    # digits), each pointing at its stripped text where the quads after
    # it are zero; low gathers hi and mid
    work = digits // 10 ** 8
    digits -= work * 10 ** 8
    work += (digits == 0) * _STRIPPED
    low = _take(_QUAD_TEXT, work)
    np.floor_divide(digits, 10 ** 4, out=work)
    digits -= work * 10 ** 4
    work += (digits == 0) * _STRIPPED
    low |= _take(_QUAD_TEXT_MID, work)
    del work
    digits += _STRIPPED
    high = _take(_QUAD_TEXT, digits)
    del digits
    # the fallback texts read to choose the layout are kept for its slots,
    # so that each is made once; they are read up to the first long one,
    # so that a block it sends to four words makes the rest a part at a
    # time, and a block its exponents send there allocates nothing for it
    fallback = None
    if index.min() >= _PLAIN_LO and index.max() < _PLAIN_HI:
        _place_points(index, low, high)
        pending = _fallback_texts(x, slow)
        texts = []
        for part, text in pending:
            texts.append((part, text))
            if text[:, 15].any():
                fallback = chain(texts, pending)
                break
        else:
            del index
            # the field (at most 13 bytes) moved up one byte, under the
            # separator; the sign bit in the low byte, so -0.0 is "-0"
            high <<= _U[8]
            high |= low >> _U[56]
            low <<= _U[8]
            low |= np.signbit(x).view(np.uint8) * np.uint8(ord("-"))
            slots = np.empty((x.size, 2), "<u8")
            slots[:, 0] = low
            slots[:, 1] = high
            del low, high
            for part, text in texts:
                slots[part] = text[:, :16].view("<u8")
            slots[:, 1] |= _take(_SEPARATOR_TOP, sep_index)
            return slots
    elif _take(_POINT_SECOND, index).all():
        # a fallback value's X is 0, so its exponent word is the separator
        np.add(index, sep_index, out=index)
        work = _take(_EXPONENT, index)
        del index
        slots = np.empty((x.size, 3), "<u8")
        slots[:, 2] = work
        # word 1: digits 6 and 7, the top bytes of low, then 8-11
        high <<= _U[16]
        np.right_shift(low, _U[48], out=work)
        high |= work
        slots[:, 1] = high
        # word 0, made in high: the point in byte 2 where digit 1 (byte 1
        # of low) has a digit's 0x20 bit; digit 0 in byte 1, ORed with
        # "0", whose bits every digit holds, so that a zero writes "0";
        # the sign bit in byte 0, so -0.0 is "-0"; digits 1-5 in bytes 3-7
        np.bitwise_and(low, _U[0x2000], out=high)
        high *= _U[0x170]
        np.left_shift(low, _U[8], out=work)
        work &= _U[0xFF00]
        high |= work
        np.right_shift(x.view("<u8"), _U[63], out=work)
        work *= _U[ord("-")]
        high |= work
        del work
        high |= _U[0x3000]
        low <<= _U[16]
        low &= _U[0xFFFFFFFFFF000000]
        high |= low
        slots[:, 0] = high
        del low, high
        for part, text in _fallback_texts(x, slow):
            slots[part] = text.view("<u8")
            slots[part, 2] |= _take(_SEPARATOR_TOP, sep_index[part])
        return slots
    else:
        _place_points(index, low, high)
    slots = np.empty((x.size, 4), "<u8")
    slots[:, 1] = low
    slots[:, 2] = high
    del low, high
    # the sign bit, so that -0.0 is "-0"
    work = np.multiply(np.signbit(x), _NX)
    work += index
    slots[:, 0] = _take(_PREFIX, work)
    np.add(index, sep_index, out=work)
    slots[:, 3] = _take(_EXPONENT, work)
    # a fallback value's X is 0, so its exponent word is the separator
    for part, text in fallback or _fallback_texts(x, slow):
        slots[part, :3] = text.view("<u8")
    return slots


def _squeeze(slots: np.ndarray, pick=None) -> Iterator[bytes]:
    """The bytes of slots (rows of value slots) with the zero bytes
    squeezed out by bytes' own deletion, _SQUEEZE_ROWS rows at a time, of
    the slot columns pick (all if None).

    In parts, so that the copy tobytes makes and the squeezed bytes stay
    a part long, not the slots' size each.  The deletion reads every slot
    byte: on 2048 rows of two columns, the copy and the deletion cost
    about 30 ns per value in four-word slots, 20 in three-word ones (a
    trace) and 12 in two-word ones (a transmission table), 0.76-0.93 ns
    per slot byte whatever the width (best of 2000 in-process runs, 2
    CPUs); a bytearray's translate, bytes.replace and a numpy boolean
    mask over the bytes were slower.
    """
    for start in range(0, len(slots), _SQUEEZE_ROWS):
        part = slots[start:start + _SQUEEZE_ROWS]
        if pick is not None:
            part = part.take(pick, axis=1)
        yield part.tobytes().translate(None, b"\0")


def _write(fd: int, parts: list[bytes]) -> None:
    """Write the byte strings parts to the file descriptor fd, in order,
    by os.writev, again from where a short write stopped."""
    while parts:
        written = os.writev(fd, parts)
        while parts and written >= len(parts[0]):
            written -= len(parts.pop(0))
        if written:
            parts[0] = parts[0][written:]


def write_rows(paths, header: str, n_shared: int, n_rows: int, columns,
               rows: int | None = None) -> None:
    """Write one CSV table of n_rows rows to each path: the header line,
    then the rows.  A row holds the n_shared columns all the files share,
    then each file's own, the header's columns after the shared ones.

    Every value is written as '%.12g' % v (and f"{v:.12g}") would write
    it, byte for byte.  columns(lo, hi) returns the columns of rows lo to
    hi, the shared ones, then each file's in path order.  It is called
    for rows (COMPUTE_ROWS if None) rows at a time as the writer formats
    them, so that no column need be whole in memory.  Each range is
    formatted BLOCK_ROWS rows at a time by one _format_block call, so a
    shared column is formatted once for all the files; each file's
    columns of the slots (two, three or four words each) are picked
    (ndarray.take) and squeezed _SQUEEZE_ROWS rows at a time, and written
    to the unbuffered file by one os.writev per _WRITE_ROWS rows.  Raises
    ValueError, before a file opens, when rows is below 1, and OSError
    where a write fails.
    """
    n_own = header.count(",") + 1 - n_shared
    if not paths or n_own < 1:
        raise ValueError("need files, and a header with each file's columns")
    rows = COMPUTE_ROWS if rows is None else rows
    if rows < 1:
        raise ValueError(f"rows must be at least 1, not {rows}")
    n_cols = n_shared + len(paths) * n_own
    # the separator after each column, and the columns of each file's rows
    seps = [0] * n_shared + ([0] * (n_own - 1) + [1]) * len(paths)
    picks = [np.r_[:n_shared, start:start + n_own]
             for start in range(n_shared, n_cols, n_own)]
    sep_index = np.tile(np.array(seps) * _NX, BLOCK_ROWS)
    with ExitStack() as stack:
        fds = [stack.enter_context(open(path, "wb", buffering=0)).fileno()
               for path in paths]
        for fd in fds:
            _write(fd, [header.encode() + b"\n"])
        for lo in range(0, n_rows, rows):
            hi = min(lo + rows, n_rows)
            block = np.asarray(np.column_stack(columns(lo, hi)), dtype=np.float64)
            if block.shape != (hi - lo, n_cols):
                raise ValueError(f"columns({lo}, {hi}) must give {n_cols} columns")
            for start in range(0, hi - lo, BLOCK_ROWS):
                values = block[start:start + BLOCK_ROWS].ravel()
                slots = _format_block(values, sep_index[:values.size])
                slots = slots.reshape(-1, n_cols, slots.shape[1])
                for fd, pick in zip(fds, picks if len(fds) > 1 else [None]):
                    for at in range(0, len(slots), _WRITE_ROWS):
                        _write(fd, list(_squeeze(
                            slots[at:at + _WRITE_ROWS], pick)))
                # the slots go before the next rows are formatted
                del slots
            # the block goes before the next one is computed
            del block, values


def write_csv(path, header: str, rows) -> None:
    """Write a CSV table of a header line and rows of values to path: a
    float as %.12g, a bool as true/false and any other value as str."""
    def cell(value) -> str:
        if isinstance(value, bool):
            return "true" if value else "false"
        if isinstance(value, float):
            return "%.12g" % value
        return str(value)
    with open(path, "w") as file:
        file.write(header + "\n")
        file.writelines(",".join(map(cell, row)) + "\n" for row in rows)
