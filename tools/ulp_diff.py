"""Compare two tools/row_bits.py outputs line by line and report the ulp distances.

    PYTHONPATH=<parent checkout>/src python tools/row_bits.py > parent.txt
    PYTHONPATH=src python tools/row_bits.py > change.txt
    python tools/ulp_diff.py parent.txt change.txt

Line i of one file is compared with line i of the other, leaving out the
memo lines (those that start with "memo "). Every float in a
line, a float.hex word or a decimal float inside a repr, is compared with
its counterpart by its distance in units in the last place: the number of
float64 values between them. Two lines whose text differs anywhere else (an
integer such as alpha*, a word, a count of values) cannot be compared that
way and count as "text".

The first block has one line per kind of line (the first word: search,
grid, preset, criterion-1, one-alpha, simulate, ...): how many lines
there are, how many differ and the largest ulp distance among them. The
second block has one line per table that differs: the words of a row before
its first float.hex word, less its trailing alpha (and the "|" of a row
without rates), or for a line without float.hex words its first word.

The memo lines hold each memo's entry count, byte total and keys; one more
stored table shifts every later key line, so they are compared as a set.
The last block counts them and has one line per memo state or key that only
one file holds: "-" for the first file's, "+" for the second's. The exit
status is 0 when the files are identical and 1 otherwise.
"""

from __future__ import annotations

import os
import re
import struct
import sys
from collections import defaultdict

# a float.hex word, or a decimal float as repr writes it
NUMBER = re.compile(r"-?(?:0x[0-9a-f]+(?:\.[0-9a-f]*)?p[-+]\d+|inf|nan"
                    r"|\d+\.\d*(?:e[-+]?\d+)?|\d+e[-+]?\d+)")
HEX = re.compile(r"-?(?:0x[0-9a-f]+(?:\.[0-9a-f]*)?p[-+]\d+|inf|nan)")


def _float(token: str) -> float:
    return float.fromhex(token) if "0x" in token else float(token)


def _ordinal(x: float) -> int:
    """x's place among the float64 values, in order: adjacent floats differ by 1."""
    bits = struct.unpack("<q", struct.pack("<d", x))[0]
    return bits if bits >= 0 else -(bits & 0x7FFFFFFFFFFFFFFF)


def ulps(a: str, b: str) -> int | None:
    """The largest ulp distance between the floats of two lines, or None if their text differs."""
    if NUMBER.sub("#", a) != NUMBER.sub("#", b):
        return None
    distance = 0
    for x, y in zip(NUMBER.findall(a), NUMBER.findall(b)):
        x, y = _float(x), _float(y)
        if x != y and not (x != x and y != y):  # nan equals nan here
            distance = max(distance, abs(_ordinal(x) - _ordinal(y)))
    return distance


def label(line: str) -> str:
    words = line.split()
    first = next((i for i, word in enumerate(words) if HEX.fullmatch(word)), None)
    if first is None:
        return words[0] if words else ""
    head = words[:first]
    while len(head) > 1 and (head[-1].isdigit() or head[-1] == "|"):  # alpha, no rates
        head = head[:-1]
    return " ".join(head)


def main(argv: list[str]) -> int:
    if len(argv) != 3:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    (old, old_memo), (new, new_memo) = _read(argv[1]), _read(argv[2])
    lines: dict[str, int] = defaultdict(int)
    kinds: dict[str, list] = {}  # kind -> [differing lines, largest ulp distance]
    tables: dict[str, list] = {}  # table label -> the same
    for a, b in zip(old, new):
        kind = a.split(" ", 1)[0]
        lines[kind] += 1
        if a == b:
            continue
        distance = ulps(a, b)
        for stats, name in ((kinds, kind), (tables, label(a))):
            entry = stats.setdefault(name, [0, 0])
            entry[0] += 1
            entry[1] = "text" if distance is None or entry[1] == "text" else \
                max(entry[1], distance)
    print(f"{'kind':<20} {'lines':>8} {'differing':>10} {'max ulp':>8}")
    for kind, count in lines.items():
        differing, worst = kinds.get(kind, (0, 0))
        print(f"{kind:<20} {count:>8} {differing:>10} {worst:>8}")
    if len(old) != len(new):
        print(f"line counts differ: {len(old)} and {len(new)}")
    if tables:
        print()
        print(f"{'differing table':<70} {'lines':>8} {'max ulp':>8}")
        for name, (differing, worst) in tables.items():
            print(f"{name:<70} {differing:>8} {worst:>8}")
    if old_memo != new_memo:
        removed, added = sorted(old_memo - new_memo), sorted(new_memo - old_memo)
        print()
        print(f"memo lines: {len(old_memo)} and {len(new_memo)}, "
              f"{len(removed)} only in the first, {len(added)} only in the second")
        for sign, only in (("-", removed), ("+", added)):
            for line in only:
                print(sign, line)
    return 0 if (old, old_memo) == (new, new_memo) else 1


def _read(path: str) -> tuple[list[str], set[str]]:
    """The lines of a row_bits output: (every line but the memo ones, the memo lines)."""
    with open(path) as f:
        lines = f.read().splitlines()
    return ([line for line in lines if not line.startswith("memo ")],
            {line for line in lines if line.startswith("memo ")})


if __name__ == "__main__":
    try:
        status = main(sys.argv)
        sys.stdout.flush()
    except BrokenPipeError:  # a reader such as head stopped early: no traceback
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        status = 1
    sys.exit(status)
