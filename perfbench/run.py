"""comslice benchmark: generated corpora, per-subcommand wall time and RSS, traced layers.

Run from the repository root:

    python3 perfbench/run.py --workload bulk-slice --seed 1 --seconds 30 --trace 0

Each run first generates the workload's corpus from ``--seed``. Then:

- ``--trace 0`` runs the real CLI, ``python -m comslice.cli <subcommand>``,
  as one child process at a time: a closed loop with one client, because
  comslice is a batch tool whose user waits for each command. Rounds of
  all seven subcommands repeat until ``--seconds`` is used up. Each child
  is timed from spawn to exit (interpreter start included, users pay it),
  its peak RSS is read with ``os.wait4``, and its stdout and output files
  are checked against the generator's truth. Outputs are rewritten in
  place round after round (rewrite_in_place says why). ``setup_s`` is the
  median of the corpus's generations, one before the first round and one
  after each round, sampled across the run like the other timings.
  A shared host runs the same code at speeds that differ by 2x and more,
  in phases of seconds to minutes, so every generation and every
  invocation is preceded by one run of calibrate.py, fixed reference work
  that does not touch comslice, on the same processor. Each sample is
  scaled by CALIBRATION_REFERENCE_S over the time of its calibration run:
  the reported times are seconds at one fixed host speed. The unscaled
  medians are printed as ``# raw`` lines.
- ``--trace 1`` calls ``comslice.cli.run`` in this process, once plain and
  once with every layer wrapped in spans and counters (see tracer.py),
  and reports per-layer self times and counts; the difference between the
  two is the tracing overhead. The span tree of the last round goes to
  ``.perfbench_work/<workload>/trace.json``.

The last line of stdout is the JSON result; the lines before it list every
metric with its unit and sample count, and the run's metadata. The result,
its metadata, every sample unscaled and scaled, every calibration time and
each child's CPU time are also written to
``.perfbench_work/<workload>/result-seed<N>-trace<T>.json``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import asdict, dataclass
from pathlib import Path

from generate import Params, generate, load_stopwords
from verify import check, digest_tree

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

# Every end-to-end time is reported at one fixed host speed: a sample whose
# calibration run, made just before it, took c seconds is scaled by
# CALIBRATION_REFERENCE_S / c.
CALIBRATION_REFERENCE_S = 0.15

SUBCOMMANDS = ("slice-rough", "slice-precise", "links", "crosstab", "graph", "tokens", "audit")

BULK = Params(
    pages=1000, sites=5, prefixes_per_site=1, labels=3, anchors_per_page=3,
    registered_share=0.6, comment_link_share=0.3, precise_share=0.5,
    none_share=0.10, unclosed_share=0.05, page_bytes=5000,
)
LINK_DENSE = Params(
    pages=20, sites=200, prefixes_per_site=2, labels=8, anchors_per_page=27,
    registered_share=0.6, comment_link_share=0.3, precise_share=0.5,
    none_share=0.10, unclosed_share=0.05, page_bytes=5000,
)


@dataclass(frozen=True)
class Workload:
    params: Params
    workers: int
    sample_n: int


# Why each listed workload exists is recorded in BENCHMARK.json. parallel-slice
# (the bulk-slice corpus through the --workers 2 process pool, outputs
# byte-compared with a serial run) is not listed there: a third workload
# would cut every run to about 40 s to fit the time allowed for all runs,
# too short for steady figures on a shared 2-core host.
WORKLOADS = {
    "bulk-slice": Workload(BULK, workers=1, sample_n=100),
    "link-dense": Workload(LINK_DENSE, workers=1, sample_n=300),
    "parallel-slice": Workload(BULK, workers=2, sample_n=100),
}

LAYER_METRICS = {
    "corpus.resolve_url.s": "s",
    "corpus.resolve_url.calls": "count",
    "corpus.resolve_url.resolved_ratio": "ratio",
    "corpus.normalize_url.calls": "count",
    "corpus.normalize_url.per_anchor": "ratio",
    "corpus.load_corpus.s": "s",
    "corpus.load_corpus.bytes": "B",
    "encoding.parse_encoding_file.s": "s",
    "slicer.slice.s": "s",
    "slicer.pages": "count",
    "slicer.sections": "count",
    "slicer.errors.missing_opening": "count",
    "slicer.errors.missing_closure": "count",
    "slicer.precise_slice.s": "s",
    "slicer.comments": "count",
    "slicer.build_error_report.s": "s",
    "linkgraph.iter_hrefs.anchors": "count",
    "linkgraph.extract_all_links.s": "s",
    "linkgraph.links.in_comment": "count",
    "linkgraph.crosstab.s": "s",
    "linkgraph.mutual_link_graph.s": "s",
    "linkgraph.components.s": "s",
    "linkgraph.write_gexf.s": "s",
    "textstats.tokenize.calls": "count",
    "textstats.tokenize.bytes": "B",
    "textstats.tokenize.s": "s",
    "textstats.tokenize.audit_calls_per_page": "ratio",
    "textstats.corpus_token_counts.s": "s",
    "textstats.jsd.s": "s",
    "audit.sample_corpus.s": "s",
    "audit.measure_noise.s": "s",
    "audit.site_diagnostics.s": "s",
    "cli.run.self_s": "s",
    "trace.overhead_s": "s",
}


def cli_args(subcommand: str, corpus_dir: Path, out: Path, workload: Workload, workers: int) -> list[str]:
    args = [
        subcommand,
        "--corpus", str(corpus_dir / "corpus"),
        "--manifest", str(corpus_dir / "manifest.csv"),
        "--encoding", str(corpus_dir / "encoding.csv"),
        "--out", str(out),
        "--workers", str(workers),
    ]
    if subcommand == "audit":
        args += ["--sample-n", str(workload.sample_n)]
    return args


def setup(workload: Workload, seed: int, corpus_dir: Path) -> tuple[dict, float]:
    """Generate the corpus; returns the truth and how long generating took."""
    stopwords = load_stopwords(SRC / "comslice" / "data" / "stopwords_fr.txt")
    started = time.perf_counter()
    truth = generate(corpus_dir, workload.params, seed, stopwords)
    return truth, time.perf_counter() - started


class Invocations:
    """Counts attempted and failed subcommand invocations, keeping the first problems."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, label: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(f"{label}: {p}" for p in problems[:3])


def spawn(args: list[str], log_dir: Path):
    """Run the CLI as a child; returns (wall s, its resource usage, exit code, stdout)."""
    env = {k: v for k, v in os.environ.items() if k != "COMSLICE_WORKERS"}
    env["PYTHONPATH"] = str(SRC)
    stdout_path, stderr_path = log_dir / "stdout.txt", log_dir / "stderr.txt"
    with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
        started = time.perf_counter()
        child = subprocess.Popen(
            [sys.executable, "-m", "comslice.cli", *args], stdout=out, stderr=err, env=env, cwd=ROOT
        )
        _, status, usage = os.wait4(child.pid, 0)
        wall = time.perf_counter() - started
    child.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage, child.returncode, stdout_path.read_text(encoding="utf-8")


def calibrate() -> float:
    """Wall time of one run of calibrate.py, the fixed reference work."""
    started = time.perf_counter()
    subprocess.run(
        [sys.executable, str(Path(__file__).with_name("calibrate.py"))],
        stdout=subprocess.DEVNULL, check=True, cwd=ROOT,
    )
    return time.perf_counter() - started


def rewrite_in_place(root: Path, first: bool, write):
    """Empty every file under root, then call write(); returns its result and the files it left empty.

    Creating thousands of files on this benchmark's disk, or freeing the
    blocks of files written out earlier, takes from 0.05 to over 1 s of
    kernel time, depending on where the file system placed them and on how
    much it created and freed in the last minutes. So the corpus and the
    output directories are kept from round to round and from run to run,
    and their files are truncated here, outside the timed region: the
    timed code then rewrites files that exist and are empty, which costs
    the same every time.

    With first set, root may still hold files of a run with another seed:
    those that write() leaves empty are deleted instead of reported.
    """
    root.mkdir(parents=True, exist_ok=True)
    for path in root.rglob("*"):
        if path.is_file():
            os.truncate(path, 0)
    result = write()
    empty = [path for path in sorted(root.rglob("*")) if path.is_file() and path.stat().st_size == 0]
    if first:
        for path in empty:
            path.unlink()
        empty = []
    return result, [f"{path.relative_to(root)} was not rewritten" for path in empty]


def timed_pass(workload: Workload, corpus_dir: Path, truth: dict, seconds: float, ops: Invocations, between_rounds):
    """Closed loop over the CLI.

    Returns per-subcommand wall times, every child's peak RSS (MB),
    per-subcommand child CPU times (wall minus CPU is time spent waiting)
    and per-subcommand wall times of the calibration run made just
    before each invocation.

    Each subcommand rewrites its output directory in place every round
    (rewrite_in_place says why); an output file it leaves empty fails
    the invocation.
    """
    work = corpus_dir.parent
    outs = {sub: work / "out" / sub for sub in SUBCOMMANDS}
    written: set[str] = set()

    def invoke(sub: str, workers: int):
        args = cli_args(sub, corpus_dir, outs[sub], workload, workers)
        (wall, usage, code, stdout), unwritten = rewrite_in_place(outs[sub], sub not in written, lambda: spawn(args, work))
        written.add(sub)
        return wall, usage, code, stdout, [f"exit {code}"] if code else unwritten

    reference: dict[str, tuple[str, dict]] = {}
    if workload.workers > 1:
        # the README guarantees byte-identical output under --workers N: keep serial digests
        for sub in SUBCOMMANDS:
            _, _, code, stdout, problems = invoke(sub, 1)
            ops.record(f"serial {sub}", problems or check(sub, outs[sub], stdout, truth, workload.sample_n))
            reference[sub] = (stdout, digest_tree(outs[sub]))
    walls: dict[str, list[float]] = {sub: [] for sub in SUBCOMMANDS}
    cpu: dict[str, list[float]] = {sub: [] for sub in SUBCOMMANDS}
    peak_rss: list[float] = []
    calibration: dict[str, list[float]] = {sub: [] for sub in SUBCOMMANDS}
    deadline = time.perf_counter() + seconds
    while True:
        round_started = time.perf_counter()
        for sub in SUBCOMMANDS:
            calibration[sub].append(calibrate())
            wall, usage, code, stdout, problems = invoke(sub, workload.workers)
            walls[sub].append(wall)
            cpu[sub].append(usage.ru_utime + usage.ru_stime)
            peak_rss.append(usage.ru_maxrss / 1024)
            if code == 0 and sub in reference:
                if (stdout, digest_tree(outs[sub])) != reference[sub]:
                    problems.append("output differs from serial run")
            elif code == 0:
                problems += check(sub, outs[sub], stdout, truth, workload.sample_n)
            ops.record(sub, problems)
        between_rounds()
        now = time.perf_counter()
        if now + (now - round_started) > deadline:
            return walls, peak_rss, cpu, calibration


def layer_metrics(tracer) -> dict[str, float]:
    """Per-layer self times and counts of one traced round, summed over subcommands."""
    values: Counter[str] = Counter()
    for span, own in zip(tracer.spans, tracer.self_times()):
        values["cli.run.self_s" if span.name == "cli.run" else span.name + ".s"] += own
    counts: Counter[str] = Counter()
    for (_, name), n in tracer.counters.items():
        counts[name] += n
    values.update(counts)
    calls = counts["corpus.resolve_url.calls"]
    values["corpus.resolve_url.resolved_ratio"] = counts["corpus.resolve_url.resolved"] / calls if calls else 0.0
    values["corpus.normalize_url.per_anchor"] = counts["corpus.normalize_url.calls"] / calls if calls else 0.0
    audit_pages = tracer.counters[("audit", "slicer.pages")]
    values["textstats.tokenize.audit_calls_per_page"] = (
        tracer.counters[("audit", "textstats.tokenize.calls")] / audit_pages if audit_pages else 0.0
    )
    return values


def traced_pass(workload: Workload, corpus_dir: Path, truth: dict, seconds: float, ops: Invocations):
    """In-process rounds, plain then traced; returns per-round layer metrics and the last tracer."""
    # only this pass imports comslice; the timed pass runs it in child processes
    sys.path.insert(0, str(SRC))
    from comslice import cli
    from tracer import Tracer

    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        raise RuntimeError(f"imported comslice from {cli.__file__}, expected {SRC}")
    work = corpus_dir.parent
    rounds: list[dict[str, float]] = []
    deadline = time.perf_counter() + seconds
    while True:
        round_started = time.perf_counter()
        tracer = Tracer()
        overhead = 0.0
        for sub in SUBCOMMANDS:
            walls = []
            out = work / "out" / sub
            args = cli_args(sub, corpus_dir, out, workload, workload.workers)
            for traced in (False, True):
                captured = io.StringIO()

                def write():
                    with contextlib.redirect_stdout(captured):
                        started = time.perf_counter()
                        if not traced:
                            code = cli.run(args)
                        else:
                            tracer.install()
                            try:
                                code = tracer.root(sub, cli.run, args)
                            finally:
                                tracer.uninstall()
                        walls.append(time.perf_counter() - started)
                    return code

                code, problems = rewrite_in_place(out, not rounds and not traced, write)
                label = f"{'traced' if traced else 'plain'} {sub}"
                ops.record(label, [f"exit {code}"] if code else problems or check(sub, out, captured.getvalue(), truth, workload.sample_n))
            overhead += walls[1] - walls[0]
        values = layer_metrics(tracer)
        values["trace.overhead_s"] = overhead
        rounds.append(values)
        now = time.perf_counter()
        if now + (now - round_started) > deadline:
            return rounds, tracer


def write_trace(path: Path, tracer, meta: dict) -> None:
    spans = [
        {**asdict(span), "self": own}
        for span, own in zip(tracer.spans, tracer.self_times())
    ]
    counters: dict[str, dict[str, int]] = {}
    for (sub, name), n in sorted(tracer.counters.items()):
        counters.setdefault(sub, {})[name] = n
    path.write_text(
        json.dumps({"meta": meta, "missing_patch_points": sorted(tracer.missing), "spans": spans, "counters": counters}),
        encoding="utf-8",
    )


def print_span_summary(tracer) -> None:
    """The three largest self times under each subcommand."""
    per_sub: dict[str, Counter[str]] = {}
    for span, own in zip(tracer.spans, tracer.self_times()):
        per_sub.setdefault(span.subcommand, Counter())[span.name] += own
    for sub, selfs in per_sub.items():
        top = ", ".join(f"{n} {s:.3f}s" for n, s in selfs.most_common(3))
        print(f"# self time under {sub}: {top}")


def git_commit() -> str | None:
    """HEAD's commit when the checkout is a git work tree, read without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "comslice" / "cli.py").is_file():
        print(f"error: comslice sources not found under {SRC}", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    work = WORK / args.workload
    work.mkdir(parents=True, exist_ok=True)
    corpus_dir = work / "corpus"
    setup_times: list[float] = []
    setup_calibration: list[float] = []
    if args.trace:
        (truth, _), _ = rewrite_in_place(corpus_dir, True, lambda: setup(workload, args.seed, corpus_dir))
    else:
        # the calibration run and the measurement after it share one processor
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

        def regenerate(first: bool = False) -> dict:
            setup_calibration.append(calibrate())
            (truth, took), _ = rewrite_in_place(corpus_dir, first, lambda: setup(workload, args.seed, corpus_dir))
            setup_times.append(took)
            return truth

        truth = regenerate(first=True)
    ops = Invocations()
    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_commit": git_commit(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "workers": workload.workers,
        "audit_sample_n": workload.sample_n,
        "params": asdict(workload.params),
        "corpus": {"pages": truth["totals"]["pages"], "bytes": truth["totals"]["bytes"]},
    }

    units: dict[str, str] = {}
    samples: dict[str, list[float]] = {}
    child_cpu: dict[str, list[float]] = {}
    raw: dict[str, list[float]] = {}  # wall times before scaling to the reference host speed
    calibration: dict[str, list[float]] = {}  # the calibration time before each of them
    if args.trace:
        rounds, tracer = traced_pass(workload, corpus_dir, truth, args.seconds, ops)
        write_trace(work / "trace.json", tracer, meta)
        print_span_summary(tracer)
        units.update(LAYER_METRICS)
        samples.update({name: [r[name] for r in rounds] for name in LAYER_METRICS})
    else:
        walls, rss, child_cpu, sub_calibration = timed_pass(workload, corpus_dir, truth, args.seconds, ops, regenerate)
        raw["setup_s"], calibration["setup_s"] = setup_times, setup_calibration
        for sub in SUBCOMMANDS:
            name = sub.replace("-", "_") + "_s"
            raw[name], calibration[name] = walls[sub], sub_calibration[sub]
        for name, times in raw.items():
            units[name] = "s"
            samples[name] = [t * CALIBRATION_REFERENCE_S / c for t, c in zip(times, calibration[name], strict=True)]
        units["peak_rss_mb"], samples["peak_rss_mb"] = "MB", rss
    metrics = {
        name: {"value": max(v) if name == "peak_rss_mb" else statistics.median(v), "unit": units[name]}
        for name, v in samples.items()
    }
    meta["failed_ops_ratio"] = ops.failed / ops.attempted
    for problem in ops.problems[:20]:
        print(f"# MISMATCH {problem}")
    for name, m in metrics.items():
        print(f"# {name} = {m['value']:.6g} {m['unit']} (n={len(samples[name])})")
    for name, times in raw.items():
        print(f"# raw {name} = {statistics.median(times):.6g} s (n={len(times)})")
    if calibration:
        every = [c for times in calibration.values() for c in times]
        print(f"# calibration_s = {statistics.median(every):.6g} s (n={len(every)})")
    print(f"# failed_ops_ratio = {meta['failed_ops_ratio']:.6g} ({ops.failed}/{ops.attempted})")
    print("# meta " + json.dumps(meta, sort_keys=True))
    result = {"correct": ops.failed == 0, "attempted": ops.attempted, "failed": ops.failed, "metrics": metrics}
    (work / f"result-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"meta": meta, "samples": samples, "raw_s": raw, "calibration_s": calibration, "child_cpu_s": child_cpu, **result}, sort_keys=True),
        encoding="utf-8",
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
