"""Check that two source trees give comslice outputs identical byte for byte.

Run from the repository root, with the ``src`` directory of the tree to
compare against (any copy of another commit, for example one made with
``git worktree add /tmp/base HEAD``):

    python3 tests/compare_outputs.py /tmp/base/src --seed 21

Four corpora are compared. The ``bulk-slice`` and ``link-dense`` corpora are
generated from ``--seed`` into a temporary directory with perfbench's own
workloads (``run.WORKLOADS``, ``run.setup``, ``run.cli_args``), and each goes
through the 11 variants in VARIANTS. The two fixed workspaces of
``tests/test_golden.py``, Latin and Unicode, are written with its
``write_workspace`` and go through its ``RUNS`` and ``UNICODE_RUNS``. That
makes 32 variants, each run once with BASE_SRC and once with this tree's
``src``, each run a child process ``python -m comslice.cli`` with its own hash
seed; both runs of a variant write to the same ``--out``, emptied after each.
A variant differs when its exit code, its stdout, its stderr or the SHA-256 of
any output file differs. One line is printed per variant, naming what differs:
each output file that changed, was added or was removed, the first SHOWN of
them by path and then a count of the rest. The exit status is 1 if any
variant differs. Given this tree's own ``src``, it checks that the same
inputs give the same outputs across processes. Needs only the standard
library; pytest does not collect this file.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Iterator

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))
sys.path.insert(0, str(ROOT / "src"))  # test_golden imports comslice.cli

import run  # noqa: E402  perfbench/run.py
import test_golden  # noqa: E402  tests/test_golden.py, next to this file

WORKLOADS = ("bulk-slice", "link-dense")

# (subcommand, --workers, options after perfbench's own)
VARIANTS = [
    *((sub, 1, ()) for sub in run.SUBCOMMANDS),
    ("graph", 1, ("--include-comments",)),
    ("audit", 2, ()),
    ("slice-rough", 2, ()),
    ("audit", 1, ("--sample-n", "5000")),
]

# name -> (pages, manifest, encoding file, {variant: subcommand and options})
GOLDEN_WORKSPACES = {
    "golden-latin": (test_golden.PAGES, test_golden.MANIFEST, test_golden.RULES, test_golden.RUNS),
    "golden-unicode": (
        test_golden.UNICODE_PAGES,
        test_golden.UNICODE_MANIFEST,
        test_golden.UNICODE_RULES,
        test_golden.UNICODE_RUNS,
    ),
}

ASPECTS = ("exit code", "stdout", "stderr")
SHOWN = 3  # output files named per differing variant; the rest are counted


def variants(tmp: Path, seed: int, out: Path) -> Iterator[tuple[str, str, list[str]]]:
    """(corpus, variant, CLI arguments writing to out) of every run, each corpus written under tmp."""
    for name in WORKLOADS:
        workload = run.WORKLOADS[name]
        corpus_dir = Path(tmp, name, "corpus")
        run.setup(workload, seed, corpus_dir)
        for sub, workers, options in VARIANTS:
            label = " ".join([sub, f"--workers {workers}", *options])
            yield name, label, [*run.cli_args(sub, corpus_dir, out, workload, workers), *options]
    for name, (*workspace, runs) in GOLDEN_WORKSPACES.items():
        base = tmp / name
        test_golden.write_workspace(base, *workspace)
        config = ["--corpus", base / "crawl", "--manifest", base / "manifest.csv",
                  "--encoding", base / "rules.csv", "--out", out]
        for label, argv in runs.items():
            yield name, label, [*argv, *map(str, config)]


def outcome(src: Path, args: list[str], out: Path) -> tuple:
    """Exit code, stdout, stderr and {relative path: SHA-256} of one CLI run; then out is removed."""
    env = {**os.environ, "PYTHONPATH": str(src)}
    child = subprocess.run(
        [sys.executable, "-m", "comslice.cli", *args], capture_output=True, env=env, cwd=out.parent
    )
    files = {
        path.relative_to(out).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(out.rglob("*"))
        if path.is_file()
    }
    shutil.rmtree(out, ignore_errors=True)
    return child.returncode, child.stdout, child.stderr, files


def file_changes(base: dict[str, str], this: dict[str, str]) -> list[str]:
    """'changed P', 'added P' or 'removed P' for each output file P that differs, by path."""
    return [
        f"{'added' if path not in base else 'removed' if path not in this else 'changed'} {path}"
        for path in sorted(base.keys() | this.keys())
        if base.get(path) != this.get(path)
    ]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base_src", type=Path, help="the src directory of the tree to compare against")
    parser.add_argument("--seed", type=int, default=21, help="corpus seed (default: 21)")
    args = parser.parse_args(argv)
    base_src = args.base_src.resolve()
    if not (base_src / "comslice" / "cli.py").is_file():
        print(f"error: no comslice/cli.py under {base_src}", file=sys.stderr)
        return 2
    differing = total = 0
    with tempfile.TemporaryDirectory(prefix="compare_outputs-") as tmp:
        out = Path(tmp, "out")
        for name, label, cli in variants(Path(tmp), args.seed, out):
            base, this = (outcome(src, cli, out) for src in (base_src, run.SRC))
            parts = [what for what, a, b in zip(ASPECTS, base, this) if a != b]
            changes = file_changes(base[3], this[3])
            parts += changes[:SHOWN]
            if len(changes) > SHOWN:
                parts.append(f"{len(changes) - SHOWN} more files")
            differing += bool(parts)
            total += 1
            verdict = "differs: " + ", ".join(parts) if parts else "same"
            print(f"{name} {label}: exit {this[0]}, {len(this[3])} files, {verdict}")
    print(f"{differing} of {total} variants differ at seed {args.seed}")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
