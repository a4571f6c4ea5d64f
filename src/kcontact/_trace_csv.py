"""A trace.csv writer: one of the child processes that format CSV rows
from raw float64 frames while the simulation produces them.

    python -I -S _trace_csv.py POINTS DIMS WIDTH < frames > records

It imports the standard library only (no numpy), so it starts in a few
milliseconds.  Its stdin holds DIMS mesh columns of POINTS native
float64 values each, then frames: t, followed by WIDTH value columns
(every phi, every phidot, s1) of POINTS values each.  Each frame becomes
POINTS rows holding repr of each float, joined by "," with "\\r\\n" line
ends (the rows csv.writer would write), and one record on stdout: the
rows' byte length as an 8-byte little-endian integer, then the rows.
The mesh columns are formatted once, t once per frame.  The process that
feeds the frames appends the records to trace.csv in frame order.  The
end of the input ends a writer (exit 0), a frame cut short exits 1, and
SIGINT is ignored: the feeding process stops the writers.
"""

import signal
import sys
from array import array


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


def main(points, dims, width):
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    src, dst = sys.stdin.buffer, sys.stdout.buffer
    mesh = list(map(repr, _floats(src, dims * points))) if dims else []
    lead = [mesh[j * points:(j + 1) * points] for j in range(dims)]
    while (frame := _floats(src, 1 + width * points)) is not None:
        text = list(map(repr, frame))
        cols = ([text[:1] * points] + lead
                + [text[1 + j * points:1 + (j + 1) * points]
                   for j in range(width)])
        rows = ("\r\n".join(map(",".join, zip(*cols))) + "\r\n").encode()
        dst.write(len(rows).to_bytes(8, "little"))
        dst.write(rows)
        dst.flush()


if __name__ == "__main__":
    main(*map(int, sys.argv[1:]))
