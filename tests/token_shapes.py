"""Check, and time, the token tables on text whose whitespace pieces do not repeat.

The token tables count whitespace pieces and read each distinct piece once,
which pays where pieces repeat; the benchmark's generator draws all visible
text from one small vocabulary, so few of its pieces are distinct. This
script generates a ``bulk-slice`` corpus with perfbench's own workload
(``run.WORKLOADS``, ``run.setup``) and rewrites its visible text (between
tags, outside script and style blocks) into three shapes:

- ``as-generated``: unchanged;
- ``zipfian``: words drawn by Zipf's law from a large vocabulary, with
  capitals, punctuation, elisions and numbers;
- ``distinct``: each piece with a distinct number appended.

For each shape it prints the share of distinct pieces and checks that
``corpus_token_counts`` equals a reference that runs the word regex over the
whole lowered text of every page, with the default ``_MAX_PIECES`` and with
a small one. Given the ``src`` directory of another tree, it then times
``tokens --top-k 1000000`` with that tree and with this one, each run a
child process, the trees alternated for ``--rounds`` rounds, and prints the
median wall time and peak RSS of each; it fails if the two trees' tables
differ. Run from the repository root:

    python3 tests/token_shapes.py --pages 200
    python3 tests/token_shapes.py /tmp/base/src --rounds 5

The exit status is 1 if any check fails. Needs only the standard library;
pytest does not collect this file.
"""

from __future__ import annotations

import argparse
import dataclasses
import itertools
import os
import random
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
from collections import Counter
from pathlib import Path
from typing import Callable
from unittest import mock

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402  perfbench/run.py
from comslice import textstats  # noqa: E402
from comslice.corpus import load_corpus  # noqa: E402
from comslice.encoding import parse_encoding_file  # noqa: E402
from comslice.slicer import slice_corpus  # noqa: E402

SHAPES = ("as-generated", "zipfian", "distinct")
SMALL_MAX_PIECES = 64  # folds the piece tables into the token tables after most pages

# markup (a script or style block, or a tag) between runs of visible text
MARKUP_RE = re.compile(r"(<(?:script|style)\b.*?</(?:script|style)\s*>|<[^>]*>)", re.IGNORECASE | re.DOTALL)
PIECE_RE = re.compile(r"\S+")

# the tokenizer as it was before it counted pieces: the reference
REF_SCRIPT_STYLE_RE = re.compile(
    r"<(script|style)\b[^>]*(>.*?(?:</\1[^>]*>?|\Z))?", re.IGNORECASE | re.DOTALL | re.ASCII
)
REF_TAG_RE = re.compile(r"<[^>]*>?")
REF_WORD_RE = re.compile(r"[^\W\d_]{2,}")


def reference_tokens(data: bytes, sections) -> tuple[list[str], list[str]]:
    """(main, comment) tokens of a page: the whole page lowered, each bound mapped by decoding up to it."""
    blank = lambda match: " " * len(match[0])  # noqa: E731
    text = REF_TAG_RE.sub(blank, REF_SCRIPT_STYLE_RE.sub(blank, data.decode("utf-8", "replace")))
    lowered = text.lower()
    cuts = [0]
    for bound in (bound for span in sections for bound in span):
        cut = len(text[: len(data[:bound].decode("utf-8", "replace"))].lower())
        word = REF_WORD_RE.match(lowered, cut - 1) if cut else None
        cuts.append(word.end() if word else cut)
    cuts.append(len(lowered))
    parts: tuple[list[str], list[str]] = ([], [])
    for i, (start, end) in enumerate(zip(cuts, cuts[1:])):
        parts[i % 2].extend(REF_WORD_RE.findall(lowered, start, end))
    return parts


def make_word(rng: random.Random) -> str:
    return "".join(rng.choice("bcdfgjlmnprstvz") + rng.choice("aeiouéèàôy") for _ in range(rng.randint(1, 5)))


def zipfian(rng: random.Random) -> Callable[[str], str]:
    """Makes each piece a word of a 50,000-word vocabulary by Zipf's law, sometimes dressed."""
    vocab = list(dict.fromkeys(make_word(rng) for _ in range(60_000)))[:50_000]
    weights = list(itertools.accumulate(1 / rank for rank in range(1, len(vocab) + 1)))

    def piece(_: str) -> str:
        roll = rng.random()
        if roll < 0.05:
            return rng.choice((str(rng.randint(0, 10**6)), str(rng.randint(1900, 2030)), f"{rng.random():.2f}"))
        word = rng.choices(vocab, cum_weights=weights)[0]
        if roll < 0.15:
            word = word.capitalize()
        if rng.random() < 0.1:
            word = rng.choice(("l'", "d'", "qu'", "n'", "s'", "j'")) + word
        if rng.random() < 0.15:
            word += rng.choice(",.;:!?")
        return word

    return piece


def distinct() -> Callable[[str], str]:
    """Appends the next number to each piece."""
    numbers = itertools.count()
    return lambda piece: f"{piece}{next(numbers)}"


def rewrite(corpus_dir: Path, shape: str, seed: int) -> None:
    """Rewrite the visible text of every page under corpus_dir into shape."""
    if shape == "as-generated":
        return
    piece = zipfian(random.Random(seed)) if shape == "zipfian" else distinct()
    for path in sorted((corpus_dir / "corpus").rglob("*")):
        if path.is_file():
            texts = MARKUP_RE.split(path.read_bytes().decode())
            texts[::2] = [PIECE_RE.sub(lambda match: piece(match[0]), text) for text in texts[::2]]
            path.write_bytes("".join(texts).encode())


def check(corpus_dir: Path, shape: str) -> bool:
    """Print the share of distinct pieces; True if the token tables equal the reference's."""
    corpus = load_corpus(corpus_dir / "corpus", corpus_dir / "manifest.csv")
    sliced, _ = slice_corpus(corpus.pages, parse_encoding_file(corpus_dir / "encoding.csv"))
    stopwords = textstats.load_stopwords()
    expected: tuple[Counter[str], Counter[str]] = (Counter(), Counter())
    pieces: Counter[bytes] = Counter()
    for page in sliced:
        for counts, tokens in zip(expected, reference_tokens(page.raw_bytes, page.section_spans)):
            counts.update(token for token in tokens if token not in stopwords)
        for part in textstats.tokenize(page.raw_bytes, page.section_spans):
            pieces.update(part)
    total = sum(pieces.values())
    print(f"{shape}: {len(pieces):,} distinct of {total:,} pieces ({len(pieces) / max(total, 1):.1%})")
    ok = True
    for max_pieces in (textstats._MAX_PIECES, SMALL_MAX_PIECES):
        with mock.patch.object(textstats, "_MAX_PIECES", max_pieces):
            same = textstats.corpus_token_counts(sliced, stopwords) == expected
        print(f"  tables with _MAX_PIECES={max_pieces}: {'same as' if same else 'DIFFER from'} the reference")
        ok &= same
    return ok


# Runs the CLI as its child and prints the child's wall seconds, peak RSS in MB and exit
# code. On Linux a child's peak RSS is at least its parent's when it started, so the
# CLI is started from this small process, not from this script, which holds the corpus.
LAUNCHER = """
import os, subprocess, sys, time
started = time.perf_counter()
child = subprocess.Popen([sys.executable, "-m", "comslice.cli", *sys.argv[1:]], stdout=subprocess.DEVNULL)
_, status, usage = os.wait4(child.pid, 0)
child.returncode = os.waitstatus_to_exitcode(status)
print(time.perf_counter() - started, usage.ru_maxrss / 1024, child.returncode)
"""


def timed_run(src: Path, args: list[str], out: Path) -> tuple[float, float, dict[str, bytes]]:
    """Wall seconds, peak RSS in MB and {file name: bytes} of one CLI run; out is removed after."""
    env = {**os.environ, "PYTHONPATH": str(src)}
    launched = subprocess.run([sys.executable, "-c", LAUNCHER, *args], env=env, capture_output=True, check=True)
    wall, peak, code = launched.stdout.split()
    if int(code):
        raise SystemExit(f"{src}: comslice {args[0]} exited with {int(code)}")
    tables = {path.name: path.read_bytes() for path in sorted(out.iterdir())}
    shutil.rmtree(out)
    return float(wall), float(peak), tables


def time_trees(corpus_dir: Path, base_src: Path, rounds: int) -> bool:
    """Print each tree's median wall time and peak RSS; True if their tables agree."""
    out = corpus_dir / "out"
    args = [*run.cli_args("tokens", corpus_dir, out, run.WORKLOADS["bulk-slice"], 1), "--top-k", "1000000"]
    trees = {"base": base_src, "this": ROOT / "src"}
    samples: dict[str, list[tuple[float, float]]] = {name: [] for name in trees}
    outputs = {}
    for i in range(rounds):
        for name in (list(trees) if i % 2 == 0 else list(trees)[::-1]):
            wall, rss, outputs[name] = timed_run(trees[name], args, out)
            samples[name].append((wall, rss))
    for name, runs in samples.items():
        walls, peaks = zip(*runs)
        print(f"  {name}: {statistics.median(walls):.3f} s, {statistics.median(peaks):.1f} MB (median of {rounds})")
    same = outputs["base"] == outputs["this"]
    print(f"  tables: {'identical' if same else 'DIFFERENT'}")
    return same


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base_src", nargs="?", type=Path, help="src directory of a tree to time against")
    parser.add_argument("--pages", type=int, default=run.BULK.pages, help="pages in the corpus (default: bulk-slice's)")
    parser.add_argument("--seed", type=int, default=11, help="generator seed (default: 11)")
    parser.add_argument("--rounds", type=int, default=5, help="timed runs of each tree per shape (default: 5)")
    args = parser.parse_args(argv)
    workload = run.WORKLOADS["bulk-slice"]
    workload = dataclasses.replace(workload, params=dataclasses.replace(workload.params, pages=args.pages))
    ok = True
    with tempfile.TemporaryDirectory(prefix="token_shapes-") as tmp:
        generated = Path(tmp, "generated")
        run.setup(workload, args.seed, generated)
        for shape in SHAPES:
            corpus_dir = Path(tmp, shape)
            shutil.copytree(generated, corpus_dir)
            rewrite(corpus_dir, shape, args.seed)
            ok &= check(corpus_dir, shape)
            if args.base_src:
                ok &= time_trees(corpus_dir, args.base_src.resolve(), args.rounds)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
