"""A fixed pure-Python reference task that times the host, not cubespec.

The benchmark runs it as a fresh process next to every timed command, and
divides each command's wall time by the reference's, so that a host that
runs faster or slower for a while moves both alike.  It imports nothing
from the repository, so no change to the program moves it.  It mixes
integer arithmetic with tuple, dict and set work on a few megabytes, as
the cubespec layers do, and prints a checksum that the benchmark checks.
"""

ROUNDS = 3
CHECKSUM = "253c56e3f4399443"  # what task() prints


def task() -> int:
    acc = 0
    for r in range(ROUNDS):
        x = r
        for i in range(300_000):
            x = (x * 31 + i) & 0xFFFFFFFF
        table = {}
        for i in range(60_000):
            table[(i * 7919) % 100_003, i & 63] = (i, i ^ x)
        seen = set()
        for (a, b), (c, e) in table.items():
            if (a + c) & 1:
                seen.add((b, e & 255))
        ordered = sorted(table.items(), key=lambda kv: kv[1])
        acc = (acc * 1_000_003 + x + len(seen) + sum(v[0] for _, v in ordered[::7])) % (1 << 64)
    return acc


if __name__ == "__main__":
    print(f"{task():016x}")
