"""A trace.csv writer: one of the child processes that format CSV rows
from raw float64 frames while the simulation produces them.

    python -I -S _trace_csv.py POINTS DIMS TOKEN_IN TOKEN_OUT FIRST \\
        < frames > trace.csv

It imports the standard library only (no numpy), so it starts in a few
milliseconds.  Its stdin holds the header line, then DIMS mesh columns
of POINTS native float64 values each, then one record per frame: t,
followed by the value columns (every phi, every phidot, s1) of POINTS
values each.  Each frame becomes POINTS rows holding repr of each float,
joined by "," with "\\r\\n" line ends: the rows csv.writer would write.
The mesh columns are formatted once, t once per frame.

The W writers of one export share one open trace.csv, and so its file
offset, and form a ring: writer w gets frames w, w + W, w + 2W, ...
and reads a one-byte token from the pipe descriptor TOKEN_IN, which
writer w - 1 writes to, and writes it to TOKEN_OUT, which writer w + 1
reads.  For each frame it
formats the rows, waits for the token, writes and flushes the rows,
then passes the token on, so the file holds the frames in order.
Writer 0 holds the token first (it is waiting in writer 0's TOKEN_IN
when the ring starts) and is started with FIRST = 1, so it writes the
header; a single writer is its own ring (TOKEN_OUT feeds its TOKEN_IN).
Passing the token to a writer that has already finished is ignored.
The end of TOKEN_IN means an earlier writer died (exit 1), as does a
frame cut off by the end of the input.  SIGINT is ignored: the process
that feeds the frames stops the writers.
"""

import os
import signal
import sys
from array import array

# What a writer reports when the end of TOKEN_IN shows that an earlier
# writer died
RING_BROKEN = "an earlier trace.csv writer ended before its frame"


def _floats(stream, count):
    """The next `count` float64 values of `stream` as a list of floats,
    or None at the end of the input."""
    data = stream.read(8 * count)
    if not data:
        return None
    if len(data) != 8 * count:
        raise EOFError(f"input ends {len(data)} bytes into a record of "
                       f"{8 * count}")
    values = array("d")
    values.frombytes(data)
    return values.tolist()


def main(points, dims, token_in, token_out, first):
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    src, dst = sys.stdin.buffer, sys.stdout.buffer
    header = src.readline()
    if first:
        dst.write(header)
    width = header.count(b",") - dims  # value columns after t and mesh
    mesh = list(map(repr, _floats(src, dims * points))) if dims else []
    lead = [mesh[j * points:(j + 1) * points] for j in range(dims)]
    while (frame := _floats(src, 1 + width * points)) is not None:
        text = list(map(repr, frame))
        cols = ([text[:1] * points] + lead
                + [text[1 + j * points:1 + (j + 1) * points]
                   for j in range(width)])
        rows = ("\r\n".join(map(",".join, zip(*cols))) + "\r\n").encode()
        if not os.read(token_in, 1):
            sys.exit(RING_BROKEN)
        dst.write(rows)
        dst.flush()
        try:
            os.write(token_out, b".")
        except BrokenPipeError:  # the next writer has finished
            pass
    dst.flush()


if __name__ == "__main__":
    main(*map(int, sys.argv[1:]))
