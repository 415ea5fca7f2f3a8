#!/usr/bin/env python3
"""campaignfx benchmark: seeded corpora through the documented CLI sequence.

Run from the root of a checkout:

    python3 perfbench/run.py --workload cohort-null --seed 1 --seconds 50 --trace 0

The benchmark synthesizes three distinct corpora of the workload's shape
from ``--seed`` (set-up, repeated and timed), then runs the workload's
command sequence through ``campaignfx.cli.main`` on one corpus after the
other for ``--seconds`` seconds. Each command runs in a forked child, so its
peak RSS and the CPU time of its pool workers are its own. After every
iteration the outputs are checked.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` alternates
untraced and traced iterations, measures the kernels, and reports the
per-layer metrics. BENCHMARK.json names the metrics and their units. The
last line of standard output is the result object; the line before it
holds quartiles, sample counts, digests and the environment. See
perfbench/README.md.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import sys
import time
import traceback
from pathlib import Path

from spans import Tracer, install, merge

ROOT = Path.cwd()
SRC = ROOT / "src"
# Iterations cycle through this many corpora, so a run's medians average over
# corpora as well as over time; one more iteration than corpora makes sure a
# corpus runs twice and its outputs can be compared.
CORPORA = 3
MIN_ITERATIONS = CORPORA + 1
CHILD_CRASH = 70

# counts that describe the corpus, not the work: divided by the number of
# calls that produced them (every snapshot-reading command parses again)
PER_CALL = {
    "series.duplicate_timestamps": "series.parse",
    "series.anomaly_count": "pipeline.load",
    "series.short_series": "pipeline.load",
    "campaign.eligible": "campaign.segment",
    "campaign.skipped": "campaign.segment",
    "cohort.exhausted": "cohort.match",
    "cohort.unfittable": "cohort.match",
    "cohort.zero_removed": "cohort.match",
}


class Aborted(Exception):
    pass


def _terminate(signum, frame):
    raise Aborted(f"signal {signum}")


def run_forked(fn, log_path: Path):
    """Run ``fn() -> int`` in a forked child; return (exit code, rusage).

    The child leads its own process group and writes stdout and stderr to
    ``log_path``. If the parent is interrupted, the whole group is killed and
    reaped before the exception propagates.
    """
    sys.stdout.flush()
    sys.stderr.flush()
    pid = os.fork()
    if pid == 0:
        code = CHILD_CRASH
        try:
            os.setpgid(0, 0)
            signal.signal(signal.SIGTERM, signal.SIG_DFL)
            fd = os.open(log_path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)
            os.dup2(fd, 1)
            os.dup2(fd, 2)
            code = fn()
        except BaseException:
            traceback.print_exc()
        finally:
            sys.stdout.flush()
            sys.stderr.flush()
            os._exit(code)
    try:
        try:
            os.setpgid(pid, pid)  # also done by the child; whichever runs first wins
        except OSError:
            pass
        _, status, usage = os.wait4(pid, 0)
    except BaseException:
        try:
            os.killpg(pid, signal.SIGKILL)
        except ProcessLookupError:
            os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
        raise
    return os.waitstatus_to_exitcode(status), usage


def quartiles(values: list[float]) -> dict:
    med = statistics.median(values)
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = med
    return {"median": med, "q1": q1, "q3": q3, "n": len(values)}


def digest(path: Path) -> str | None:
    return hashlib.sha256(path.read_bytes()).hexdigest() if path.is_file() else None


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def _csv_rows(path: Path) -> list[dict]:
    with path.open(newline="") as fh:
        return list(csv.DictReader(fh))


def check_outputs(out: Path) -> list[tuple[str, bool]]:
    """Output checks of one iteration, each counted as one operation."""
    checks = []
    try:
        campaigns = _csv_rows(out / "campaigns.csv")
        effects = _csv_rows(out / "effects.csv")
        rows = {}
        for e in effects:
            key = (e["venue_id"], e["start_day"], e["horizon"])
            rows[key] = rows.get(key, 0) + 1
        expected = {}
        for c in campaigns:
            expected[(c["venue_id"], c["start_day"], "ShortTerm")] = 1
            if c["long_term_eligible"] == "1":
                expected[(c["venue_id"], c["start_day"], "LongTerm")] = 1
        checks.append(("one effects row per campaign and horizon",
                       rows == expected and all(not e["group_id"] for e in effects)))
        ranges_ok = True
        for name in ("effects.csv", "reference_effects.csv"):
            for e in _csv_rows(out / name):
                p, power = float(e["p_value"]), float(e["power"])
                ranges_ok &= 0.0 < p <= 1.0 and 0.0 <= power <= 1.0
        checks.append(("p in (0, 1] and power in [0, 1]", ranges_ok))
    except (OSError, KeyError, ValueError) as exc:
        checks.append((f"outputs readable ({exc})", False))
    return checks


def ci_out_of_range(report_path: Path) -> int:
    """Increase-fraction intervals in report.json that leave [0, 1]."""
    if not report_path.is_file():
        return 0

    def walk(node) -> int:
        if isinstance(node, dict):
            own = int("ci_low" in node and (node["ci_low"] < 0.0 or node["ci_high"] > 1.0))
            return own + sum(walk(v) for v in node.values())
        if isinstance(node, list):
            return sum(walk(v) for v in node)
        return 0

    return walk(json.loads(report_path.read_text()).get("effect_tables", {}))


def layer_metrics(snap: dict, units: dict[str, str]) -> dict[str, float]:
    """Per-layer metrics of one traced iteration (kernels and overhead aside)."""
    self_s, calls, counts = snap["self_s"], snap["calls"], snap["counts"]
    lines = counts.get("series.lines", 0)
    queries = calls.get("geo.query", 0)
    requested = counts.get("cohort.requested", 0)
    out = {
        name: counts.get(name, 0) / calls[span] if calls.get(span) else 0
        for name, span in PER_CALL.items()
    }
    out |= {
        "series.parse_us_per_line": self_s.get("series.parse", 0.0) / lines * 1e6 if lines else 0.0,
        "geo.query_us": self_s.get("geo.query", 0.0) / queries * 1e6 if queries else 0.0,
        "cohort.fill_ratio": counts.get("cohort.filled", 0) / requested if requested else 0.0,
        "cli.snapshot_parses": calls.get("series.parse", 0),
        "models.forest_fits": calls.get("models.forest_fit", 0),
        "models.logistic_fits": calls.get("models.logistic_fit", 0),
    }
    for name, unit in units.items():
        if name in out:
            continue
        if unit == "s":
            out[name] = self_s.get(name[:-2], 0.0)
        elif unit == "count":
            out[name] = counts.get(name, 0)
    return out


def layer_totals(snap: dict) -> dict[str, float]:
    totals: dict[str, float] = {}
    for name, seconds in snap["self_s"].items():
        layer = name.split(".")[0]
        totals[layer] = totals.get(layer, 0.0) + seconds
    return dict(sorted(totals.items(), key=lambda kv: -kv[1]))


class Bench:
    def __init__(self, workload, seed: int, seconds: int, work: Path, units: dict[str, str]):
        from workloads import corpus_seed

        self.workload = workload
        self.units = units  # the metrics to report, from BENCHMARK.json
        self.seed = seed
        self.seconds = seconds
        self.work = work
        self.corpora = [(corpus_seed(seed, k), work / f"corpus-{k}") for k in range(CORPORA)]
        self.log = work / "child.log"
        self.n_iter = 0
        self.checks: list[tuple[str, bool]] = []
        self.final_digests: dict[int, set[str | None]] = {}
        self.campaigns: dict[int, int] = {}

    def setup(self, k: int) -> float:
        """Synthesize and write corpus ``k``; return the time it took."""
        from workloads import write_corpus

        seed, path = self.corpora[k]

        def child() -> int:
            write_corpus(self.workload, seed, path)
            return 0

        start = time.perf_counter()
        code, _ = run_forked(child, self.log)
        elapsed = time.perf_counter() - start
        if code != 0:
            raise RuntimeError(f"corpus set-up failed with exit code {code}; see {self.log}")
        return elapsed

    def iteration(self, k: int, traced: bool) -> dict | None:
        """One pass of the command sequence on corpus ``k``, then the output checks.

        Each command runs in its own forked process, as separate CLI
        invocations would, so one command's heap does not carry into the
        next one's peak RSS.
        """
        from workloads import command_args

        self.n_iter += 1
        seed, corpus = self.corpora[k]
        out = self.work / f"out-{self.n_iter}"
        result_path = self.work / "command.json"
        codes, snapshots = {}, []
        wall = cpu = peak = 0.0
        for command in self.workload.commands:
            argv = command_args(self.workload, command, seed, corpus, out)

            def child() -> int:
                from campaignfx import cli

                tracer = Tracer() if traced else None
                if tracer is not None:
                    install(tracer)
                    tracer.begin(f"cli.{command.replace('-', '_')}")
                start = time.perf_counter()
                try:
                    code = cli.main(argv)
                except SystemExit as exc:
                    code = exc.code if isinstance(exc.code, int) else 1
                elapsed = time.perf_counter() - start
                if tracer is not None:
                    tracer.end()
                result_path.write_text(json.dumps({
                    "code": code,
                    "wall_s": elapsed,
                    "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                    "trace": tracer.snapshot() if tracer is not None else None,
                }))
                return 0

            result_path.unlink(missing_ok=True)
            status, usage = run_forked(child, self.log)
            result = json.loads(result_path.read_text()) if status == 0 and result_path.is_file() else None
            codes[command] = result["code"] if result else None
            if codes[command] != 0:
                break
            wall += result["wall_s"]
            cpu += usage.ru_utime + usage.ru_stime
            peak = max(peak, result["peak_rss_mb"])
            snapshots.append(result["trace"])

        for command in self.workload.commands:
            self.checks.append((f"{command} exits 0", codes.get(command) == 0))
        self.checks.extend(check_outputs(out))
        final = digest(out / self.workload.final_artifact)
        seen = self.final_digests.setdefault(k, set())
        seen.add(final)
        self.checks.append((f"{self.workload.final_artifact} identical across iterations",
                            final is not None and len(seen) == 1))
        campaigns_csv = out / "campaigns.csv"
        campaigns = len(_csv_rows(campaigns_csv)) if campaigns_csv.is_file() else 0
        self.campaigns[k] = campaigns
        out_of_range = ci_out_of_range(out / "report.json")
        shutil.rmtree(out, ignore_errors=True)
        if any(code != 0 for code in codes.values()):
            return None
        return {
            "wall_s": wall,
            "cpu_s": cpu,
            "peak_rss_mb": peak,
            "campaigns_per_s": campaigns / wall,
            "ci_out_of_range": out_of_range,
            "trace": merge(snapshots) if traced else None,
        }

    def loop(self, step, min_iterations: int, deadline: float) -> list:
        """Call ``step`` until the next call would end after ``deadline``."""
        results, durations = [], []
        while True:
            start = time.perf_counter()
            results.append(step())
            durations.append(time.perf_counter() - start)
            if (len(results) >= min_iterations
                    and time.perf_counter() + statistics.median(durations) > deadline):
                return results

    def kernels(self) -> dict[str, float]:
        path = self.work / "kernels.json"

        def child() -> int:
            import kernels

            path.write_text(json.dumps(kernels.measure(self.seed)))
            return 0

        code, _ = run_forked(child, self.log)
        if code != 0:
            self.checks.append(("kernel measurements run", False))
            return {}
        return json.loads(path.read_text())

    def run_untraced(self) -> tuple[dict, dict]:
        setup = [self.setup(k) for k in range(CORPORA)]

        def step():
            k = self.n_iter % CORPORA
            sample = self.iteration(k, traced=False)
            # the corpus is set up again after each iteration, so the set-up
            # samples spread over the run as the iteration samples do
            setup.append(self.setup(k))
            return sample

        deadline = time.perf_counter() + self.seconds
        samples = [s for s in self.loop(step, MIN_ITERATIONS, deadline) if s is not None]
        if not samples:
            raise RuntimeError(f"no iteration completed; see {self.log}")
        series = {name: [s[name] for s in samples] for name in self.units if name != "setup_s"}
        series["setup_s"] = setup
        stats = {name: quartiles(values) for name, values in series.items()}
        metrics = {name: stats[name]["median"] for name in self.units}
        return metrics, {"end_to_end": stats}

    def run_traced(self) -> tuple[dict, dict]:
        for k in range(CORPORA):
            self.setup(k)
        deadline = time.perf_counter() + self.seconds
        kernel_metrics = self.kernels()

        def pair():
            k = self.n_iter // 2 % CORPORA
            return self.iteration(k, traced=False), self.iteration(k, traced=True)

        pairs = self.loop(pair, 1, deadline)
        pairs = [(u, t) for u, t in pairs if u is not None and t is not None]
        if not pairs:
            raise RuntimeError(f"no iteration completed; see {self.log}")
        traced = [t for _, t in pairs]
        per_iter = [layer_metrics(t["trace"], self.units) for t in traced]
        metrics = dict.fromkeys(self.units, 0.0)
        for name in per_iter[0]:
            metrics[name] = statistics.median(m[name] for m in per_iter)
        metrics.update(kernel_metrics)
        metrics["report.ci_out_of_range"] = statistics.median(t["ci_out_of_range"] for t in traced)
        untraced_wall = statistics.median(u["wall_s"] for u, _ in pairs)
        traced_wall = statistics.median(t["wall_s"] for _, t in pairs)
        metrics["trace.overhead_s"] = traced_wall - untraced_wall
        totals = layer_totals(traced[-1]["trace"])
        detail = {
            "wall_s": {"untraced": untraced_wall, "traced": traced_wall, "pairs": len(pairs)},
            "layer_self_s": totals,
            "top_layer": next(iter(totals), None),
            "hooks_missing": traced[-1]["trace"]["missing"],
        }
        return metrics, detail


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "campaignfx" / "__init__.py").is_file():
        print(f"error: no campaignfx sources under {SRC}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    sys.path.insert(0, str(SRC))
    import campaignfx
    import campaignfx.cli  # imported once here, so forked command processes share it
    import numpy

    if not Path(campaignfx.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"error: campaignfx imported from {campaignfx.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2

    signal.signal(signal.SIGTERM, _terminate)
    work = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    bench = Bench(WORKLOADS[args.workload], args.seed, args.seconds, work, units)
    load_before = os.getloadavg()[0]
    try:
        if args.trace:
            metrics, detail = bench.run_traced()
        else:
            metrics, detail = bench.run_untraced()
    except (RuntimeError, Aborted) as exc:
        print(f"error: {exc}", file=sys.stderr)
        if bench.log.is_file():
            sys.stderr.write(bench.log.read_text()[-4000:])
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass

    failed = [name for name, ok in bench.checks if not ok]
    detail.update({
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "iterations": bench.n_iter,
        "error_rate": len(failed) / len(bench.checks),
        "failed_checks": sorted(set(failed)),
        "corpus_seeds": [seed for seed, _ in bench.corpora],
        "campaigns": bench.campaigns,
        "final_artifact_sha256": {k: sorted(d or "missing" for d in digests)
                                  for k, digests in bench.final_digests.items()},
        "environment": {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "git_commit": git_commit(),
            "loadavg_1m_before": load_before,
            "loadavg_1m_after": os.getloadavg()[0],
        },
    })
    print(json.dumps(detail, sort_keys=True))
    print(json.dumps({
        "correct": not failed,
        "attempted": len(bench.checks),
        "failed": len(failed),
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
