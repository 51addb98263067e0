"""Check that two source trees give comslice outputs identical byte for byte.

Run from the repository root, with the ``src`` directory of the tree to
compare against (any copy of another commit, for example one made with
``git worktree add /tmp/base HEAD``):

    python3 tests/compare_outputs.py /tmp/base/src --seed 21

The ``bulk-slice`` and ``link-dense`` corpora are generated from ``--seed``
into a temporary directory with perfbench's own workloads (``run.WORKLOADS``,
``run.setup``, ``run.cli_args``). Each corpus goes through the 11 variants in
VARIANTS, once with BASE_SRC and once with this tree's ``src``, each run a
child process ``python -m comslice.cli``. A variant differs when its exit
code, its stdout, its stderr or the SHA-256 of any output file differs; the
output directory's path is masked in both streams, since each run writes to
its own. One line is printed per variant, and the exit status is 1 if any
differs. Needs only the standard library; pytest does not collect this file.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import run  # noqa: E402  perfbench/run.py

WORKLOADS = ("bulk-slice", "link-dense")

# (subcommand, --workers, options after perfbench's own)
VARIANTS = [
    *((sub, 1, ()) for sub in run.SUBCOMMANDS),
    ("graph", 1, ("--include-comments",)),
    ("audit", 2, ()),
    ("slice-rough", 2, ()),
    ("audit", 1, ("--sample-n", "5000")),
]

ASPECTS = ("exit code", "stdout", "stderr", "files")


def outcome(src: Path, args: list[str], out: Path) -> tuple:
    """Exit code, stdout, stderr and {relative path: SHA-256} of one CLI run."""
    env = {k: v for k, v in os.environ.items() if k != "COMSLICE_WORKERS"}
    env["PYTHONPATH"] = str(src)
    child = subprocess.run(
        [sys.executable, "-m", "comslice.cli", *args], capture_output=True, env=env, cwd=out.parent
    )
    files = {
        path.relative_to(out).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(out.rglob("*"))
        if path.is_file()
    }
    masked = [stream.replace(os.fsencode(out), b"<out>") for stream in (child.stdout, child.stderr)]
    return child.returncode, *masked, files


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base_src", type=Path, help="the src directory of the tree to compare against")
    parser.add_argument("--seed", type=int, default=21, help="corpus seed (default: 21)")
    args = parser.parse_args(argv)
    base_src = args.base_src.resolve()
    if not (base_src / "comslice" / "cli.py").is_file():
        print(f"error: no comslice/cli.py under {base_src}", file=sys.stderr)
        return 2
    differing = 0
    with tempfile.TemporaryDirectory(prefix="compare_outputs-") as tmp:
        for name in WORKLOADS:
            workload = run.WORKLOADS[name]
            corpus_dir = Path(tmp, name, "corpus")
            run.setup(workload, args.seed, corpus_dir)
            for i, (sub, workers, options) in enumerate(VARIANTS):
                results = []
                for side, src in (("base", base_src), ("this", run.SRC)):
                    out = Path(tmp, name, f"{side}-{i}")
                    cli = run.cli_args(sub, corpus_dir, out, workload, workers)
                    results.append(outcome(src, [*cli, *options], out))
                base, this = results
                parts = [what for what, a, b in zip(ASPECTS, base, this) if a != b]
                differing += bool(parts)
                label = " ".join([sub, f"--workers {workers}", *options])
                verdict = "differs: " + ", ".join(parts) if parts else "same"
                print(f"{name} {label}: exit {this[0]}, {len(this[3])} files, {verdict}")
    print(f"{differing} of {len(WORKLOADS) * len(VARIANTS)} variants differ at seed {args.seed}")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
