"""Fixed reference work that measures how fast the host runs right now.

    python3 perfbench/calibrate.py

The benchmark runs this as a child process just before every CLI
invocation and corpus generation. It does the kind of work a comslice
subcommand does: interpreter start-up, regex tokenizing and counting, and
prefix matching over URL strings. It does not import comslice, so no change to the
program under test changes its time; a change in its time is a change in
the host (a shared machine runs the same code at speeds that differ by 2x
and more, in phases of seconds to minutes). It writes no files: on this
benchmark's disk the cost of creating files depends on the state of the
file system, not on the processor. Prints a checksum of its work.
"""

from __future__ import annotations

import hashlib
import re
from collections import Counter

WORDS = 5000
URLS = 3000
PREFIXES = 60


def text(n: int) -> str:
    """n pseudo-random words from a fixed linear congruential sequence."""
    state, words = 12345, []
    for _ in range(n):
        state = (state * 1103515245 + 12345) & 0x7FFFFFFF
        words.append("".join(chr(97 + (state >> s) % 26) for s in (3, 8, 13, 18, 23)[: 2 + state % 4]))
    return " ".join(words)


def main() -> str:
    digest = hashlib.sha256()
    body = text(WORDS)
    counts = Counter(w.lower() for w in re.findall(r"\w+", body) if len(w) > 2)
    digest.update(repr(sorted(counts.items())).encode())

    prefixes = [f"site{i}.fr/{'sub/' * (i % 3)}" for i in range(PREFIXES)]
    hits = 0
    for i in range(URLS):
        url = f"HTTP://www.Site{i % 97}.fr/{'sub/' * (i % 4)}page{i}.html#top".lower()
        url = url.split("#", 1)[0].split("://", 1)[1].removeprefix("www.")
        hits += sum(url.startswith(p) for p in prefixes)
    digest.update(str(hits).encode())
    return digest.hexdigest()


if __name__ == "__main__":
    print(main())
