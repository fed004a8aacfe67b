"""treeprm benchmark: four closed-loop workloads driven through `treeprm.cli.main`.

Usage, from the repository root:

  python3 perfbench/run.py --workload synth-deep --seed 1 --seconds 25 --trace 0
  python3 perfbench/run.py --workload all --seed 1

One client process at a time runs one iteration of the workload (a fresh
interpreter that imports treeprm from `src/` and calls the CLI in-process);
iterations repeat until `--seconds` is spent, at least MIN_ITERATIONS of
them. Set-up runs SETUPS times before them, and `setup_s` counts the median
one. All inputs are generated from `--seed` under `.perfbench/tmp/`; the
shipped `output_dir` is never used. Each iteration's output files are hashed
and checked (see `check_outputs`), and any failed check makes the run exit 1.

The last stdout line is one JSON object: end-to-end metrics with
`--trace 0`, per-layer metrics with `--trace 1`. A traced run first runs the
untraced iterations, then one traced iteration whose spans give the layer
numbers. The full record (every iteration, every digest, every check) goes
to `.perfbench/results/<workload>-seed<seed>-trace<t>.json`.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import time
import urllib.request
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
SHIPPED_CONFIG = ROOT / "configs" / "synth.json"
BENCHMARK = ROOT / "BENCHMARK.json"
WORK = ROOT / ".perfbench"

MIN_ITERATIONS = 3
SETUPS = 3
CLIENT_TIMEOUT_S = 150

SHIPPED_RUNS = 20
DEEP_COUNT, DEEP_ROUNDS = 400, 64
REMOTE_PROBLEMS, REMOTE_ROUNDS, REMOTE_WORKERS = 20, 8, 2
# The seed sets only the remote problems' addends. Their sizes cycle through
# the shipped num_terms range, and ids and stage seeds are fixed, so tree
# shapes, pass@n paths and request counts barely change from seed to seed.
REMOTE_TERMS = (2, 3, 4, 5, 6)
REMOTE_DECODE = {"candidates_N": 4, "pass_n": 4}
ROLES = ("generator", "tool", "judger", "scorer")


class BenchError(RuntimeError):
    """The benchmark could not run: a client or the fake server failed."""


def shipped_config() -> dict:
    config = json.loads(SHIPPED_CONFIG.read_text(encoding="utf-8"))
    config["paths"] = {"output_dir": "out"}
    config["workers"] = 1
    return config


def write_json(path: Path, payload) -> None:
    path.write_text(json.dumps(payload, sort_keys=True, indent=1), encoding="utf-8")


def reset_dir(path: Path) -> None:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)


class Workload:
    """One named workload. `prepare` is set-up; an iteration runs `commands`.

    Set-up runs SETUPS times and the iterations use the last one. A workload
    with `fill` ends each set-up with a cold pass, after `before_fill`, and
    its iterations run over the cache that the last pass left behind.
    """

    name = ""
    problems = 0  # problems each command attempts
    fill = False

    def __init__(self, tmp: Path, seed: int):
        self.tmp = tmp
        self.seed = seed
        self.server: ServerProcess | None = None

    def prepare(self) -> None:
        raise NotImplementedError

    def commands(self) -> list[list[str]]:
        raise NotImplementedError

    def outputs(self) -> list[tuple[Path, tuple[int, ...]]]:
        """Each output directory that holds a dataset, with the commands that write it."""
        raise NotImplementedError

    def reports(self) -> list[Path | None]:
        """Per command, the output directory of its build report, if it writes one."""
        return [out for out, _ in self.outputs()]

    def before_iteration(self) -> None:
        reset_dir(self.tmp / "out")


class SynthDeep(Workload):
    name = "synth-deep"
    problems = DEEP_COUNT

    def prepare(self) -> None:
        config = shipped_config()
        config["synthetic"]["count"] = DEEP_COUNT
        config["search"]["max_rounds_R"] = DEEP_ROUNDS
        write_json(self.tmp / "synth.json", config)

    def commands(self):
        return [["synth", "--config", "synth.json", "--seed", str(self.seed), "--output", "out"]]

    def outputs(self):
        return [(self.tmp / "out", (0,))]


class SynthShipped(Workload):
    name = "synth-shipped"

    def prepare(self) -> None:
        config = shipped_config()
        self.problems = config["synthetic"]["count"]
        write_json(self.tmp / "synth.json", config)

    def commands(self):
        return [["synth", "--config", "synth.json", "--seed", str(SHIPPED_RUNS * self.seed + i),
                 "--output", f"out/{i:02d}"] for i in range(SHIPPED_RUNS)]

    def outputs(self):
        return [(self.tmp / "out" / f"{i:02d}", (i,)) for i in range(SHIPPED_RUNS)]


class RemoteCold(Workload):
    """generate then decode, every backend over HTTP to the fake server."""

    name = "remote-cold"
    problems = REMOTE_PROBLEMS

    def prepare(self) -> None:
        from treeprm.synthetic import trace_from_values

        port = 0
        if self.server is not None:
            port = self.server.port
            self.server.stop()
        self.server = ServerProcess(self.tmp, port)
        shipped = shipped_config()
        low, high = shipped["synthetic"]["value_range"]
        rng = random.Random(self.seed)
        with (self.tmp / "problems.jsonl").open("w", encoding="utf-8") as handle:
            for i in range(REMOTE_PROBLEMS):
                terms = REMOTE_TERMS[i % len(REMOTE_TERMS)]
                problem = trace_from_values([rng.randint(low, high) for _ in range(terms)],
                                            problem_id=f"remote-{i:03d}").problem
                handle.write(json.dumps({"id": problem.id, "statement": problem.statement,
                                         "gold_answer": problem.gold_answer}) + "\n")

        def endpoint(role: str) -> dict:
            return {"endpoint_url": f"{self.server.url}/{role}", "model_name": "fake",
                    "rate_limit_rps": 1e6}

        config = {
            "search": dict(shipped["search"], max_rounds_R=REMOTE_ROUNDS),
            "decode": dict(shipped["decode"], **REMOTE_DECODE),
            "paths": {"output_dir": "out", "problems_file": "problems.jsonl",
                      "cache_dir": "cache"},
            "backends": {
                "generator": dict(endpoint("generator"), kind="http"),
                "verifier": {"kind": "http", "tool": endpoint("tool"),
                             "judger": endpoint("judger")},
                "scorer": dict(endpoint("scorer"), kind="http"),
            },
            "workers": REMOTE_WORKERS,
        }
        write_json(self.tmp / "remote.json", config)

    def commands(self):
        return [["generate", "--config", "remote.json", "--output", "out"],
                ["decode", "--config", "remote.json", "--output", "out"]]

    def outputs(self):
        return [(self.tmp / "out", (0, 1))]

    def reports(self):
        return [self.tmp / "out", None]

    def before_iteration(self) -> None:
        super().before_iteration()
        shutil.rmtree(self.tmp / "cache", ignore_errors=True)
        self.server.reset()


class RemoteWarm(RemoteCold):
    """RemoteCold's inputs; set-up fills the cache, iterations only read it."""

    name = "remote-warm"
    fill = True

    def before_iteration(self) -> None:
        Workload.before_iteration(self)
        self.server.reset()

    def before_fill(self) -> None:
        RemoteCold.before_iteration(self)


WORKLOADS = {cls.name: cls for cls in (SynthDeep, SynthShipped, RemoteCold, RemoteWarm)}


class ServerProcess:
    """fake_server.py running in its own process."""

    def __init__(self, tmp: Path, port: int):
        self.process = subprocess.Popen(
            [sys.executable, str(BENCH_DIR / "fake_server.py"), "--port", str(port)],
            stdout=subprocess.PIPE, text=True, cwd=tmp,
        )
        line = self.process.stdout.readline()
        if not line.startswith("PORT "):
            self.stop()
            raise BenchError(f"fake server did not start: {line!r}")
        self.port = int(line.split()[1])
        self.url = f"http://127.0.0.1:{self.port}"

    def _call(self, path: str, data: bytes | None = None) -> dict:
        with urllib.request.urlopen(f"{self.url}{path}", data=data, timeout=10) as response:
            return json.loads(response.read())

    def stats(self) -> dict:
        return self._call("/_stats")

    def reset(self) -> dict:
        return self._call("/_reset", data=b"{}")

    def stop(self) -> None:
        self.process.terminate()
        try:
            self.process.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.wait()
        self.process.stdout.close()


def run_client(workload: Workload, commands, trace: bool, label: str) -> dict:
    """Run one iteration in a fresh client process and return its result."""
    spec_path = workload.tmp / f"client-{label}.json"
    result_path = workload.tmp / f"result-{label}.json"
    spans_path = WORK / "results" / f"{workload.name}-spans.jsonl"
    write_json(spec_path, {
        "src": str(SRC), "commands": commands, "trace": trace,
        "run_id": f"{workload.name}-seed{workload.seed}-{label}",
        "spans_path": str(spans_path), "result_path": str(result_path),
    })
    spawned = time.monotonic()
    try:
        proc = subprocess.run([sys.executable, str(BENCH_DIR / "client.py"), str(spec_path)],
                              cwd=workload.tmp, timeout=CLIENT_TIMEOUT_S)
    except subprocess.TimeoutExpired as err:
        raise BenchError(f"client {label} timed out after {CLIENT_TIMEOUT_S} s") from err
    if proc.returncode != 0:
        raise BenchError(f"client {label} exited with {proc.returncode}")
    result = json.loads(result_path.read_text(encoding="utf-8"))
    result["startup_s"] = result.pop("ready_monotonic") - spawned
    return result


def sha256_file(path: Path) -> str:
    digest = hashlib.sha256()
    with path.open("rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def digest_outputs(workload: Workload) -> dict[str, str]:
    out = workload.tmp / "out"
    return {str(path.relative_to(out)): sha256_file(path)
            for path in sorted(out.rglob("*")) if path.is_file()}


def dataset_summary(out: Path) -> dict:
    """The build report a command wrote: dataset_summary.json (synth) or summary.json."""
    for name in ("dataset_summary.json", "summary.json"):
        if (out / name).is_file():
            return json.loads((out / name).read_text(encoding="utf-8"))
    raise FileNotFoundError(f"no dataset summary in {out}")


def guided_accuracy(out: Path) -> float:
    if (out / "report.json").is_file():
        return json.loads((out / "report.json").read_text(encoding="utf-8"))["decode"][
            "guided_accuracy"]
    return json.loads((out / "decode_summary.json").read_text(encoding="utf-8"))[
        "guided_accuracy"]


def count_failures(workload: Workload, exit_codes: list[int]) -> int:
    """Problems that failed: all of a command's problems when it exited nonzero,
    else the distinct problems in its build report's problem_errors."""
    failed = 0
    for code, report in zip(exit_codes, workload.reports()):
        if code != 0:
            failed += workload.problems
        elif report is not None:
            failed += len({e["problem_id"] for e in dataset_summary(report)["problem_errors"]})
    return failed


def check_outputs(workload: Workload, exit_codes: list[int]) -> tuple[list[str], dict]:
    """Check every dataset the iteration wrote; return failures and dataset figures.

    A dataset line must round-trip through parse_instance and
    serialize_instance byte for byte, every kept instance's rationale verdicts
    must equal its labels, kept + dropped must equal rollouts_total, and kept
    must equal the number of dataset lines. Output directories of a command
    that exited nonzero are skipped; `iterate` already failed that command.
    """
    from treeprm.dataset import parse_instance, serialize_instance
    from treeprm.domain import parse_verdict_marker

    failures: list[str] = []
    figures = {"rollouts": 0, "kept": 0, "unique": 0, "bytes": 0, "accuracy": []}
    for out, writers in workload.outputs():
        if any(exit_codes[i] != 0 for i in writers):
            continue
        path = out / "dataset.jsonl"
        summary = dataset_summary(out)
        unique = set()
        lines = 0
        with path.open("r", encoding="utf-8") as handle:
            for number, line in enumerate(handle, start=1):
                lines = number
                line = line.rstrip("\n")
                try:
                    instance = parse_instance(line)
                except ValueError as err:
                    failures.append(f"{path.name}:{number} does not parse: {err}")
                    continue
                if serialize_instance(instance) != line:
                    failures.append(f"{path.name}:{number} does not round-trip")
                verdicts = [parse_verdict_marker(r) for r in instance.rationales]
                if verdicts != list(instance.labels):
                    failures.append(f"{path.name}:{number} rationale verdicts != labels")
                unique.add((instance.provenance.problem_id, instance.steps, instance.labels))
        kept = summary["kept"]
        if kept + sum(summary["dropped"].values()) != summary["rollouts_total"]:
            failures.append(f"{out.name}: kept + dropped != rollouts_total")
        if kept != lines:
            failures.append(f"{out.name}: kept {kept} != {lines} dataset lines")
        figures["rollouts"] += summary["rollouts_total"]
        figures["kept"] += kept
        figures["unique"] += len(unique)
        figures["bytes"] += path.stat().st_size
        figures["accuracy"].append(guided_accuracy(out))
    return failures[:20], figures


def end_to_end(setup_median_s: float, iterations: list[dict], figures: dict) -> dict:
    return {
        "wall_s": statistics.median(it["wall_s"] for it in iterations),
        "setup_s": setup_median_s + statistics.median(it["startup_s"] for it in iterations),
        "peak_rss_mb": statistics.median(it["peak_rss_mb"] for it in iterations),
        "unique_instances": figures["unique"],
        "guided_accuracy": statistics.fmean(figures["accuracy"] or [0.0]),
    }


def per_layer(traced: dict, untraced: list[dict], figures: dict) -> dict:
    layers = dict(traced["layers"])
    layers.update({
        "dataset.rollouts": figures["rollouts"],
        "dataset.kept": figures["kept"],
        "dataset.unique_share": figures["unique"] / figures["kept"] if figures["kept"] else 0.0,
        "dataset.bytes": figures["bytes"],
        "trace.overhead_share":
            traced["wall_s"] / statistics.median(it["wall_s"] for it in untraced) - 1.0,
    })
    http = traced.get("http", dict.fromkeys(ROLES, 0))
    for role in ROLES:
        layers[f"http.requests.{role}"] = http[role]
    layers["http.requests"] = sum(http[role] for role in ROLES)
    return layers


def request_failures(result: dict, reference: dict | None, warm: bool) -> list[str]:
    """An iteration over a warm cache must send no request; a cold one must send
    exactly the requests of `reference`, per role."""
    http = result.get("http")
    if http is None:
        return []
    if warm:
        if any(http.values()):
            return [f"iteration {result['label']} sent requests over a warm cache: {http}"]
    elif reference is not None and http != reference["http"]:
        return [f"iteration {result['label']} requests {http} differ from iteration "
                f"{reference['label']}'s {reference['http']}"]
    return []


def iterate(workload: Workload, trace: bool, label: str, reference: dict | None,
            fill: bool = False) -> tuple[dict, list[str]]:
    """One iteration: run it, hash its outputs, count failed problems and requests.

    A fill is the cold pass that ends a set-up of a workload with `fill`. Returns the result and
    the failed checks: a command that exited nonzero, digests that differ from
    `reference`'s, and requests that `request_failures` rejects.
    """
    (workload.before_fill if fill else workload.before_iteration)()
    commands = workload.commands()
    result = run_client(workload, commands, trace, label)
    result["label"] = label
    result["digests"] = digest_outputs(workload)
    result["failed"] = count_failures(workload, result["exit_codes"])
    if workload.server is not None:
        result["http"] = workload.server.stats()
    failures = [f"iteration {label}: `{command[0]}` exited {code}"
                for command, code in zip(commands, result["exit_codes"]) if code != 0]
    if reference is not None and result["digests"] != reference["digests"]:
        failures.append(f"iteration {label} outputs differ from iteration {reference['label']}")
    failures += request_failures(result, reference, workload.fill and not fill)
    return result, failures


def measure(workload: Workload, seconds: float, trace: bool) -> dict:
    failures: list[str] = []
    fills: list[dict] = []
    setups_s: list[float] = []
    for number in range(SETUPS):
        started = time.perf_counter()
        workload.prepare()
        if workload.fill:
            result, failed = iterate(workload, False, f"fill{number}",
                                     fills[0] if fills else None, fill=True)
            failures += failed
            fills.append(result)
        setups_s.append(time.perf_counter() - started)
    setup_median_s = statistics.median(setups_s)
    fill = fills[0] if fills else None
    iterations: list[dict] = []
    budget_end = time.perf_counter() + seconds
    while True:
        begun = time.perf_counter()
        result, failed = iterate(workload, False, str(len(iterations)),
                                 fill or (iterations[0] if iterations else None))
        failures += failed
        iterations.append(result)
        elapsed = time.perf_counter() - begun
        if len(iterations) >= MIN_ITERATIONS and time.perf_counter() + elapsed > budget_end:
            break
    checks, figures = check_outputs(workload, iterations[-1]["exit_codes"])
    failures += checks
    record = {"workload": workload.name, "seed": workload.seed, "seconds": seconds,
              "trace": int(trace), "setups_s": setups_s, "fills": fills, "iterations": iterations}
    if trace:
        traced, failed = iterate(workload, True, "traced", fill or iterations[0])
        failures += failed
        record["traced"] = traced
        values = per_layer(traced, iterations, figures)
    else:
        values = end_to_end(setup_median_s, iterations, figures)
    spec = json.loads(BENCHMARK.read_text(encoding="utf-8"))
    record["metrics"] = {m["name"]: (values[m["name"]], m["unit"])
                         for m in spec["per_layer" if trace else "end_to_end"]}
    runs = [run for run in (*fills, *iterations, record.get("traced")) if run is not None]
    record["attempted"] = sum(len(run["exit_codes"]) for run in runs) * workload.problems
    record["failed"] = sum(run["failed"] for run in runs)
    record["failures"] = failures
    return record


def run_one(name: str, seed: int, seconds: float, trace: bool) -> int:
    sys.path.insert(0, str(SRC))
    tmp = WORK / "tmp" / f"{name}-seed{seed}-{os.getpid()}"
    reset_dir(tmp)
    (WORK / "results").mkdir(parents=True, exist_ok=True)
    workload = WORKLOADS[name](tmp, seed)
    try:
        record = measure(workload, seconds, trace)
    finally:
        if workload.server is not None:
            workload.server.stop()
        shutil.rmtree(tmp, ignore_errors=True)
    record_path = WORK / "results" / f"{name}-seed{seed}-trace{int(trace)}.json"
    write_json(record_path, record)
    for failure in record["failures"]:
        print(f"CHECK FAILED: {failure}")
    for metric, (value, unit) in record["metrics"].items():
        print(f"{name}  {metric:32s} {value:>14.6g} {unit}")
    correct = not record["failures"]
    print(json.dumps({
        "correct": correct,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {metric: {"value": value, "unit": unit}
                    for metric, (value, unit) in record["metrics"].items()},
    }))
    return 0 if correct else 1


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Every workload in turn, each in its own process."""
    status = 0
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))],
            cwd=ROOT,
        )
        status = status or proc.returncode
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    missing = [path for path in (SRC / "treeprm" / "cli.py", SHIPPED_CONFIG,
                                 BENCHMARK) if not path.is_file()]
    if missing:
        print(f"treeprm sources not found: {', '.join(map(str, missing))}", file=sys.stderr)
        return 2
    # Turn SIGTERM into SystemExit so that the fake server and clients are stopped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    try:
        return run_one(args.workload, args.seed, args.seconds, bool(args.trace))
    except (BenchError, OSError, ValueError, KeyError) as err:
        print(f"benchmark failed: {type(err).__name__}: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
