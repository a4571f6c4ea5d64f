"""The trace.csv writer: a child process that formats CSV rows from raw
float64 frames while the simulation produces them.

    python -I -S _trace_csv.py POINTS DIMS < frames > trace.csv

It imports the standard library only (no numpy), so it starts in a few
milliseconds.  Its stdin holds the header line, then DIMS mesh columns
of POINTS native float64 values each, then one record per frame: t,
followed by the value columns (every phi, every phidot, s1) of POINTS
values each.  Each frame becomes POINTS rows holding repr of each float,
joined by "," with "\\r\\n" line ends: the rows csv.writer would write.
The mesh columns are formatted once, t once per frame.  A frame cut off
by the end of the input is an error (exit 1).  SIGINT is ignored: the
process that feeds the frames stops the writer.
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


def main(points, dims):
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    src, dst = sys.stdin.buffer, sys.stdout.buffer
    header = src.readline()
    dst.write(header)
    width = header.count(b",") - dims  # value columns after t and mesh
    mesh = list(map(repr, _floats(src, dims * points))) if dims else []
    lead = [mesh[j * points:(j + 1) * points] for j in range(dims)]
    while (frame := _floats(src, 1 + width * points)) is not None:
        text = list(map(repr, frame))
        cols = ([text[:1] * points] + lead
                + [text[1 + j * points:1 + (j + 1) * points]
                   for j in range(width)])
        dst.write(("\r\n".join(map(",".join, zip(*cols))) + "\r\n")
                  .encode())
    dst.flush()


if __name__ == "__main__":
    main(int(sys.argv[1]), int(sys.argv[2]))
