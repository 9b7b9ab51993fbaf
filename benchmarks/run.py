"""screenforge benchmark: one workload, one closed-loop client, in-process.

    python3 benchmarks/run.py --workload funnel --seed 0 --seconds 20 --trace 0

Run from anywhere inside a checkout of the repository; the program is
imported from the checkout's ``src/``. The run sets up the workload's
inputs (several times, reporting the median as ``setup_s``),
then runs passes of the workload's commands through
``screenforge.cli.main`` with stdout captured, until the next pass would
end after ``--seconds``. Every command's exit code, stdout line count and
the sha256 of its stdout and output files are checked; a mismatch counts
as a failed operation.

With ``--trace 1`` the run makes one untraced pass and one traced pass,
in which the public functions of the seven layer modules are wrapped
(see tracer.py), and reports per-layer metrics instead.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. Everything else, with the
provenance block, goes to ``bench_results/`` in the checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import hashlib
import io
import json
import logging
import os
import platform
import resource
import shutil
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_DIR = ROOT / ".bench_work"
RESULTS_DIR = ROOT / "bench_results"
DIGESTS = BENCH_DIR / "digests.json"

DEFAULT_SEED = 0
# Set-up runs at least SETUP_MIN_REPEATS times, and more (up to
# SETUP_MAX_REPEATS) while the repeats so far took under SETUP_MIN_SECONDS,
# so that a short set-up still gets a steady median.
SETUP_MIN_REPEATS, SETUP_MAX_REPEATS, SETUP_MIN_SECONDS = 3, 9, 5.0

END_TO_END = {
    "wall_s": "s",
    "compounds_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

# Per-layer metrics reported by the traced run: "<module>.<function>.calls"
# and ".self_s" come from the spans, the rest from boundary counts or as
# ratios over them.
PER_LAYER = {
    "simcluster.hier_cluster.self_s": "s",
    "simcluster.hier_cluster.items": "count",
    "simcluster.distance_matrix.self_s": "s",
    "simcluster.string_similarity.calls": "count",
    "simcluster.string_similarity.self_s": "s",
    "screenctl.compare_routes.self_s": "s",
    "chem_graph.parse_smiles.calls": "count",
    "chem_graph.parse_smiles.self_s": "s",
    "chem_graph.canonical_smiles.self_s": "s",
    "chem_graph.parses_per_compound": "calls/compound",
    "fingerprints.circular_fingerprint.calls": "count",
    "fingerprints.circular_fingerprint.self_s": "s",
    "fingerprints.per_compound": "calls/compound",
    "descriptors.compute_descriptors.calls": "count",
    "descriptors.compute_descriptors.self_s": "s",
    "descriptors.per_compound": "calls/compound",
    "pdenet.predict_pic50.calls": "count",
    "pdenet.predict_pic50.self_s": "s",
    "pdenet.predict_and_gate.self_s": "s",
    "pdenet.train.self_s": "s",
    "pdenet.featurize_records.self_s": "s",
    "pharmacophore.fit_value.calls": "count",
    "pharmacophore.fit_value.self_s": "s",
    "pharmacophore.detect_features.calls": "count",
    "pharmacophore.detect_features_per_fit": "calls/fit",
    "pharmacophore.score_costs.self_s": "s",
    "screenctl.ingest.self_s": "s",
    "screenctl.ingest.rows_read": "count",
    "screenctl.ingest.parse_errors": "count",
    "screenctl.ingest.duplicates_removed": "count",
    "screenctl.run_screen.self_s": "s",
    "screenctl.emit_report.self_s": "s",
    "screenctl.skipped_rows": "count",
    "trace.overhead_s": "s",
}


def sha256_bytes(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def sha256_file(path: Path) -> str | None:
    try:
        return sha256_bytes(path.read_bytes())
    except FileNotFoundError:
        return None


# ---------------------------------------------------------------------------
# Provenance
# ---------------------------------------------------------------------------

def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas_threads() -> int | None:
    """Thread count of the OpenBLAS that numpy loaded, asked through its
    own API; None when it cannot be found."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as handle:
            libs = sorted({
                line.split()[-1] for line in handle
                if "openblas" in line.lower() and line.split()[-1].startswith("/")
            })
    except OSError:
        return None
    for lib in libs:
        try:
            dll = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(dll, symbol, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _git_commit() -> str:
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
    return "none"


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "screenforge").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(SRC)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def provenance(seed: int) -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": _cpu_model(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": {
            "name": blas.get("name"),
            "version": blas.get("version"),
            "config": blas.get("openblas configuration"),
        },
        "blas_threads": _blas_threads(),
        "thread_env": {k: os.environ.get(k) for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS")},
        "git_commit": _git_commit(),
        "src_sha256": _source_digest(),
        "workload_seed": seed,
    }


def platform_key(prov: dict) -> dict:
    """What checked-in digests depend on: float results of numpy and BLAS
    can differ in the last bits between CPUs and library builds."""
    return {
        "cpu_model": prov["cpu_model"],
        "machine": prov["machine"],
        "numpy": prov["numpy"],
        "blas": prov["blas"],
    }


# ---------------------------------------------------------------------------
# Running commands
# ---------------------------------------------------------------------------

class WarningCounter(logging.Handler):
    """Counts the warnings the program logs (skipped rows and the like)."""

    def __init__(self):
        super().__init__(level=logging.WARNING)
        self.count = 0

    def emit(self, record):
        self.count += 1


class Runner:
    def __init__(self, cli):
        self.cli = cli
        self.warnings = WarningCounter()
        logging.getLogger("screenforge").addHandler(self.warnings)

    def close(self):
        logging.getLogger("screenforge").removeHandler(self.warnings)

    def _main(self, argv):
        try:
            return self.cli.main(list(argv))
        except SystemExit as exc:
            return exc.code

    def run(self, cmd, workdir: Path, tracer=None) -> dict:
        """Run one command in ``workdir`` and check what it printed and
        wrote. The timed region is the ``cli.main`` call alone."""
        out, err = io.StringIO(), io.StringIO()
        logged_before = self.warnings.count
        error = None
        previous = os.getcwd()
        os.chdir(workdir)
        try:
            start = perf_counter()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    if tracer is None:
                        code = self._main(cmd.argv)
                    else:
                        code = tracer.span(f"cli.{cmd.label}", self._main, (cmd.argv,))
                except Exception:  # the benchmark keeps running and reports the failure
                    code, error = None, traceback.format_exc()
            elapsed = perf_counter() - start
        finally:
            os.chdir(previous)
        stdout = out.getvalue()
        result = {
            "label": cmd.label,
            "seconds": elapsed,
            "exit_code": code,
            "stdout_lines": stdout.count("\n"),
            "stdout_last_line": stdout.rstrip("\n").rpartition("\n")[2][:200],
            "stdout_sha256": sha256_bytes(stdout.encode("utf-8")),
            "outputs": {name: sha256_file(workdir / name) for name in cmd.outputs},
            "stderr_warnings": sum(
                line.startswith("warning:") for line in err.getvalue().splitlines()
            ),
            "log_warnings": self.warnings.count - logged_before,
            "problems": [],
        }
        if error is not None:
            result["problems"].append(f"raised: {error}")
        if code != 0:
            result["problems"].append(f"exit code {code}, expected 0: {err.getvalue()[-500:]}")
        if result["stdout_lines"] != cmd.lines:
            result["problems"].append(
                f"stdout has {result['stdout_lines']} lines, expected {cmd.lines}"
            )
        for name, digest in result["outputs"].items():
            if digest is None:
                result["problems"].append(f"output file {name} missing")
        return result


def digests_of(result: dict) -> dict:
    return {"stdout": result["stdout_sha256"], "outputs": result["outputs"]}


def check_against(result: dict, expected: dict | None, what: str) -> None:
    if expected is not None and digests_of(result) != expected:
        result["problems"].append(f"digests differ from {what}")


# ---------------------------------------------------------------------------
# Set-up and passes
# ---------------------------------------------------------------------------

# The speed of one core of a shared machine swings by a quarter within
# seconds, with what other tenants run. So every timed step is bracketed
# by a fixed probe (pure-Python dict and string work plus numpy passes over
# a few MB, like the program's own mix) and also reported in reference
# seconds: raw seconds * PROBE_REF_S / (mean of the two probe times). On a
# machine where the probe takes PROBE_REF_S the two agree.
PROBE_REF_S = 0.04


def probe() -> float:
    import numpy as np

    start = perf_counter()
    counts: dict[int, int] = {}
    for i in range(60_000):
        counts[i % 977] = counts.get(i % 977, 0) + len(str(i))
    a = np.arange(400_000, dtype=float)
    for _ in range(10):
        a = np.where(a > 5.0, a * 0.5, a + 1.0)
    return perf_counter() - start


class Clock:
    """Scales consecutive timed steps by the probes around each of them."""

    def __init__(self):
        self.before = probe()

    def scale(self, raw_s: float) -> dict:
        after = probe()
        scaled = {"ref_s": raw_s * PROBE_REF_S * 2 / (self.before + after),
                  "probe_s": [self.before, after]}
        self.before = after
        return scaled


def set_up(workload, seed: int, runner: Runner, work: Path, traced: bool):
    """Build the inputs in fresh directories, once for a traced run and
    otherwise as the SETUP_* constants say. Every repeat must give identical
    files; the last one is used for the passes."""
    times, records, first = [], [], None
    setup = workdir = None
    started = perf_counter()
    for k in range(1 if traced else SETUP_MAX_REPEATS):
        if k >= SETUP_MIN_REPEATS and perf_counter() - started >= SETUP_MIN_SECONDS:
            break
        if workdir is not None:
            shutil.rmtree(workdir)
        workdir = work / f"setup{k}"
        workdir.mkdir(parents=True)
        clock = Clock()
        start = perf_counter()
        setup = workload.build(seed, workdir)
        generate = {"seconds": perf_counter() - start}
        generate.update(clock.scale(generate["seconds"]))
        results = []
        for c in setup.setup_commands:
            results.append(runner.run(c, workdir))
            results[-1].update(clock.scale(results[-1]["seconds"]))
        steps = [generate, *results]
        times.append({"seconds": sum(x["seconds"] for x in steps),
                      "ref_s": sum(x["ref_s"] for x in steps)})
        fingerprint = {
            "inputs": {name: sha256_file(workdir / name) for name in setup.inputs},
            "setup": {r["label"]: digests_of(r) for r in results},
        }
        if first is None:
            first = fingerprint
        elif fingerprint != first:
            for r in results:
                r["problems"].append("set-up is not deterministic: repeats differ")
        records.extend(results)
    return setup, workdir, times, records, first


def run_pass(setup, workdir: Path, runner: Runner, tracer=None) -> dict:
    clock = Clock()
    results = []
    for cmd in setup.commands:
        if tracer is not None:
            tracer.run_id = cmd.label
        results.append(runner.run(cmd, workdir, tracer))
        results[-1].update(clock.scale(results[-1]["seconds"]))
    return {
        "seconds": sum(r["seconds"] for r in results),
        "ref_s": sum(r["ref_s"] for r in results),
        "commands": results,
    }


def expected_digests(reference: dict, prov: dict, args) -> tuple[dict | None, str]:
    """The checked-in digests this run must match, and a note saying why
    there are none."""
    if args.write_digests:
        return None, "being recorded"
    if args.seed != DEFAULT_SEED:
        return None, "not compared (non-default seed)"
    if not reference:
        return None, "no reference recorded"
    if reference.get("platform") != platform_key(prov):
        return None, "not compared (platform differs from the recorded one)"
    expected = reference.get("workloads", {}).get(args.workload)
    return expected, "compared" if expected else "no reference recorded"


def record_digests(reference: dict, prov: dict, workload: str, setup_digests: dict,
                   first_pass: dict) -> None:
    """Store this run's digests as the reference for ``workload``; a new
    platform starts a fresh reference."""
    if reference.get("platform") not in (None, platform_key(prov)):
        reference["workloads"] = {}
    reference["platform"] = platform_key(prov)
    reference.setdefault("workloads", {})[workload] = {
        "inputs": setup_digests["inputs"],
        "setup": setup_digests["setup"],
        "commands": {r["label"]: digests_of(r) for r in first_pass["commands"]},
    }
    DIGESTS.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")


def check_passes(passes: list[dict], expected: dict | None) -> None:
    """Every pass must reproduce the first; on the default seed the first
    must match the checked-in digests."""
    reference = {r["label"]: digests_of(r) for r in passes[0]["commands"]}
    for p in passes[1:]:
        for r in p["commands"]:
            check_against(r, reference[r["label"]], "the first pass")
    if expected is not None:
        for r in passes[0]["commands"]:
            check_against(r, expected.get(r["label"]), "the checked-in digests")


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def per_layer_metrics(tracer, untraced_wall: float, traced_wall: float,
                      skipped: int) -> dict[str, float]:
    stats = tracer.function_stats()
    counts = tracer.counts

    def calls(name):
        return stats.get(name, {}).get("calls", 0)

    rows = counts.get("screenctl.ingest.rows_read", 0)
    fits = calls("pharmacophore.fit_value")
    values = {
        "chem_graph.parses_per_compound": calls("chem_graph.parse_smiles") / rows if rows else 0.0,
        "fingerprints.per_compound":
            calls("fingerprints.circular_fingerprint") / rows if rows else 0.0,
        "descriptors.per_compound":
            calls("descriptors.compute_descriptors") / rows if rows else 0.0,
        "pharmacophore.detect_features_per_fit":
            calls("pharmacophore.detect_features") / fits if fits else 0.0,
        "screenctl.skipped_rows": counts.get("screenctl.ingest.parse_errors", 0) + skipped,
        "trace.overhead_s": traced_wall - untraced_wall,
    }
    for name in PER_LAYER:
        if name in values:
            continue
        if name in counts:
            values[name] = counts[name]
        else:
            function, _, field = name.rpartition(".")
            values[name] = stats.get(function, {}).get(field, 0)
    return values


def logged_warnings(results: list[dict]) -> int:
    """Warnings the program logged (rows it skipped). The CLI's own
    ``warning:`` lines repeat ingest's parse errors, which the ingest
    counter already has."""
    return sum(r["log_warnings"] for r in results)


def format_value(value: float) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def parse_args(argv, names):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=names)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="measure passes until the next one would end after this")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-digests", action="store_true",
                        help="record this run's digests as the checked-in reference "
                             "(default seed only)")
    return parser.parse_args(argv)


def import_program():
    """Import screenforge from the checkout's src/ and the benchmark's own
    modules; exit with status 2 when the source is not there."""
    if not (SRC / "screenforge" / "cli.py").is_file():
        print(f"error: no screenforge source at {SRC}; run from a repository checkout",
              file=sys.stderr)
        sys.exit(2)
    sys.path[:0] = [str(SRC), str(BENCH_DIR)]
    import screenforge
    from screenforge import cli

    if Path(screenforge.__file__).resolve().parent != (SRC / "screenforge").resolve():
        print(f"error: imported screenforge from {screenforge.__file__}, not {SRC}",
              file=sys.stderr)
        sys.exit(2)
    return cli


def main(argv=None) -> int:
    # The seed environment variable would change the program's default seed
    # and with it the outputs; the workloads pass seeds explicitly.
    os.environ.pop("SCREENFORGE_SEED", None)
    # One BLAS thread, set before numpy loads: the client is single-threaded,
    # and a second BLAS thread on a shared 2-core machine makes the matrix
    # work depend on the other tenants' load more than the speed probe does.
    os.environ["OPENBLAS_NUM_THREADS"] = os.environ["OMP_NUM_THREADS"] = "1"
    cli = import_program()
    import tracer as tracing
    import workloads

    args = parse_args(argv, list(workloads.WORKLOADS))
    workload = workloads.WORKLOADS[args.workload]
    prov = provenance(args.seed)
    reference = json.loads(DIGESTS.read_text()) if DIGESTS.is_file() else {}
    expected, digest_note = expected_digests(reference, prov, args)

    work = WORK_DIR / f"{args.workload}-{args.seed}-{os.getpid()}"
    RESULTS_DIR.mkdir(exist_ok=True)
    runner = Runner(cli)
    try:
        setup, workdir, setup_times, setup_results, setup_digests = set_up(
            workload, args.seed, runner, work, bool(args.trace))
        if expected is not None:
            for r in setup_results:
                check_against(r, expected.get("setup", {}).get(r["label"]),
                              "the checked-in digests")
            if setup_digests["inputs"] != expected.get("inputs"):
                setup_results[-1]["problems"].append("inputs differ from the checked-in digests")

        passes = []
        if args.trace:
            passes.append(run_pass(setup, workdir, runner))
            tracer = tracing.Tracer()
            with tracer.installed():
                traced = run_pass(setup, workdir, runner, tracer)
            passes.append(traced)
        else:
            start = perf_counter()
            while True:
                passes.append(run_pass(setup, workdir, runner))
                elapsed = perf_counter() - start
                if elapsed + elapsed / len(passes) > args.seconds:
                    break
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        check_passes(passes, expected and expected.get("commands"))
    finally:
        runner.close()
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK_DIR.rmdir()

    all_results = setup_results + [r for p in passes for r in p["commands"]]
    attempted = len(all_results)
    failed = sum(bool(r["problems"]) for r in all_results)
    compounds = sum(c.compounds for c in setup.commands)
    untraced = passes if not args.trace else passes[:1]

    def medians(key: str) -> dict[str, float]:
        """Pass and per-command medians, and the set-up median, of ``key``."""
        return {
            "wall_s": statistics.median(p[key] for p in untraced),
            "setup_s": statistics.median(t[key] for t in setup_times),
            **{
                f"{c.label}_s": statistics.median(p["commands"][i][key] for p in untraced)
                for i, c in enumerate(setup.commands)
            },
        }

    scaled = medians("ref_s")
    summary = {
        **scaled,
        "compounds_per_s": compounds / scaled["wall_s"],
        "peak_rss_mb": peak_rss_mb,
        "failed_frac": failed / attempted,
    }
    units = {**{k: "s" for k in scaled}, **END_TO_END, "failed_frac": "1"}

    doc = {
        "workload": args.workload,
        "why": workload.why,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "provenance": prov,
        "digests": digest_note,
        "setup": {
            "repeats": len(setup_times),
            "times": setup_times,
            "generator": setup.generator,
            "digests": setup_digests,
        },
        "passes": passes,
        "compounds_per_pass": compounds,
        "end_to_end": {k: {"value": v, "unit": units[k]} for k, v in summary.items()},
        "wall_clock_s": medians("seconds"),
        "setup_results": setup_results,
    }
    if args.trace:
        layer = per_layer_metrics(tracer, passes[0]["ref_s"], traced["ref_s"],
                                  logged_warnings(traced["commands"]))
        doc["per_layer"] = {k: {"value": v, "unit": PER_LAYER[k]} for k, v in layer.items()}
        doc["functions"] = tracer.function_stats()
        doc["functions_by_command"] = {
            c.label: tracer.function_stats(c.label) for c in setup.commands
        }
        tracer.write(RESULTS_DIR / f"TRACE_{args.workload}_seed{args.seed}.json")
        metrics = doc["per_layer"]
    else:
        metrics = {k: doc["end_to_end"][k] for k in END_TO_END}
    suffix = "_trace" if args.trace else ""
    (RESULTS_DIR / f"BENCH_{args.workload}_seed{args.seed}{suffix}.json").write_text(
        json.dumps(doc, indent=1, default=str))

    if args.write_digests:
        if args.seed != DEFAULT_SEED or failed:
            print("error: digests are recorded only from a clean default-seed run",
                  file=sys.stderr)
            return 1
        record_digests(reference, prov, args.workload, setup_digests, passes[0])

    print(f"# workload={args.workload} seed={args.seed} trace={args.trace} "
          f"passes={len(passes)} digests: {digest_note}")
    for name, entry in doc["end_to_end"].items():
        print(f"{name:28s} {format_value(entry['value']):>14s} {entry['unit']}")
    if args.trace:
        for name, entry in doc["per_layer"].items():
            print(f"{name:44s} {format_value(entry['value']):>14s} {entry['unit']}")
    for r in all_results:
        for problem in r["problems"]:
            print(f"FAILED {r['label']}: {problem}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
