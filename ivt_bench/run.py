#!/usr/bin/env python3
"""ivt_bench: the repository's regression benchmark.

    python3 ivt_bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. It builds the program from source into
.bench_build/ (Release), generates the workload's inputs from --seed with
simnet into .bench_data/ (cached per seed, not timed), then measures
for about --seconds seconds:

  setup   from raw .ivt on disk to ready, for 3 s and at least 7 times:
          pack every journey (`ivt pack` step), load the catalog, open the
          readers, construct the Pipeline, start `ivt serve` over the
          packed journeys until it listens (then a ping must be answered);
          the last daemon stays up
  jobs    two thirds of --seconds: rounds of one batch and one streaming
          child process (and one dist child while dist has had less than
          a fifth of the time), each timing one Algorithm 1 job
  serve   one third of --seconds: the open-loop request mix against that
          daemon (default flags) at the reference rate, after filling its
          caches
  and the daemon is stopped with the shutdown op. After every set-up and
  every job a fixed piece of reference work tells how fast the host ran;
  times are reported at a reference speed.

It checks every output (job digests across exec modes, served state against
Pipeline::run, traced row counts) and prints, as the last line of stdout,
{"correct", "attempted", "failed", "metrics"}: the end-to-end metrics with
--trace 0, the per-layer metrics with --trace 1. It exits 1 when an output
check fails. See ivt_bench/README.md for the workloads and metrics.
"""
import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import benchstats  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD_DIR = ".bench_build"
DATA_DIR = ".bench_data"

# Set-ups are repeated for SETUP_S seconds, at least SETUP_MIN_REPS times:
# one set-up varies by 8-15 % (a LIG one is mostly process start-up), so
# the cheap ones are repeated more often than a SYN one.
SETUP_S = 3.0
SETUP_MIN_REPS = 7
JOB_MODES = ("batch", "streaming", "dist")
WARMUP_S = 2.0
# A round includes a dist job while dist jobs have taken at most this share
# of the jobs phase so far: on fleet_narrow one dist job costs as much as
# ten batch and streaming jobs, and its time spreads least of all.
DIST_SHARE = 0.2

# Serve reference rate, requests/s: about half of what the load child's 4
# connections carry (each request waits ~40 ms for a delayed ACK; see
# README). The request mix is fixed in load.cpp.
REFERENCE_RPS = 20.0

# CPU seconds of calib.cpp's reference work at the reference host speed:
# its median over 2,883 job children on the 4-vCPU machine the committed
# results come from. Times are reported at this speed (see slowdowns).
CALIB_REF_S = 0.125
# A time is scaled by the reference work of the children around it: its
# own and CALIB_WINDOW on either side.
CALIB_WINDOW = 5


class Workload:
    """The inputs of one workload; BENCHMARK.json says why it is there."""

    def __init__(self, dataset, scale, journeys, narrow):
        self.dataset = dataset      # simnet data set
        self.scale = scale          # share of the 20 h recording per journey
        self.journeys = journeys    # one job = every journey, in turn
        self.narrow = narrow        # U_comb = first 9 catalog signals


WORKLOADS = {
    "syn_journey": Workload("SYN", 0.03, 1, False),
    "lig_journey": Workload("LIG", 0.005, 1, False),
    "fleet_narrow": Workload("LIG", 0.005, 12, True),
}


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


class Failure(Exception):
    """The benchmark cannot produce a result (build, input or child
    failure); run.py exits 2 without printing one."""


# ---- build and inputs ------------------------------------------------------

def build():
    cache = os.path.join(BUILD_DIR, "CMakeCache.txt")
    if not os.path.exists(cache):
        cmd = ["cmake", "-S", HERE, "-B", BUILD_DIR,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.call(cmd, stdout=sys.stderr) != 0:
            shutil.rmtree(BUILD_DIR, ignore_errors=True)
            raise Failure("cmake configure failed")
    jobs = str(len(os.sched_getaffinity(0)))
    if subprocess.call(["cmake", "--build", BUILD_DIR, "-j", jobs,
                        "--target", "ivt", "ivt_bench"],
                       stdout=sys.stderr) != 0:
        raise Failure("build failed")
    return {
        "ivt": os.path.join(BUILD_DIR, "ivt_src", "cli", "ivt"),
        "bench": os.path.join(BUILD_DIR, "ivt_bench"),
    }


def build_info():
    info = {}
    try:
        with open(os.path.join(BUILD_DIR, "CMakeCache.txt")) as f:
            for line in f:
                for key in ("CMAKE_BUILD_TYPE", "CMAKE_CXX_COMPILER",
                            "CMAKE_CXX_FLAGS", "CMAKE_CXX_FLAGS_RELEASE"):
                    if line.startswith(key + ":"):
                        value = line.split("=", 1)[1].strip()
                        if key == "CMAKE_CXX_COMPILER":
                            value = os.path.basename(value)
                        info[key] = value
    except OSError:
        pass
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(os.getcwd()))
    try:
        info["git_sha"] = subprocess.run(
            ["git", "rev-parse", "HEAD"], capture_output=True, text=True,
            env=env, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        info["git_sha"] = "unknown"
    return info


def make_inputs(tools, name, workload, seed, scale_factor):
    """Raw .ivt journeys + .ivsdb catalog for (workload, seed), generated
    once by a child process and cached under .bench_data/. The cache holds
    the generating command and is remade when the command changes (a
    workload's scale, say)."""
    tag = "%s-s%d%s" % (name, seed, "-smoke" if scale_factor != 1.0 else "")
    root = os.path.join(DATA_DIR, tag)
    prefix = os.path.join(root, "j")
    cmd = [tools["bench"], "gen", "--dataset", workload.dataset,
           "--scale", repr(workload.scale * scale_factor),
           "--journeys", str(workload.journeys), "--seed", str(seed),
           "--out", prefix]
    done = os.path.join(root, "done")
    try:
        with open(done) as f:
            cached = f.read() == " ".join(cmd[1:])
    except OSError:
        cached = False
    if not cached:
        shutil.rmtree(root, ignore_errors=True)
        os.makedirs(root)
        if subprocess.call(cmd, stdout=sys.stderr, stderr=sys.stderr) != 0:
            raise Failure("input generation failed")
        with open(done, "w") as f:
            f.write(" ".join(cmd[1:]))
    raw = ["%s_J%d.ivt" % (prefix, j + 1) for j in range(workload.journeys)]
    packed = ["%s_J%d.ivc" % (prefix, j + 1) for j in range(workload.journeys)]
    return {"root": root, "catalog": prefix + ".ivsdb", "raw": raw,
            "packed": packed,
            "names": [os.path.basename(p)[:-4] for p in packed]}


# ---- child processes -------------------------------------------------------

class Child:
    """A child process whose exit is always awaited with wait4(), so its
    peak RSS (ru_maxrss) is known and belongs to it alone. Every child is
    registered in LIVE until it has been reaped, so an error path can stop
    them all."""

    LIVE = []
    DEADLINE = time.monotonic() + 3600.0  # main() sets it from --seconds

    def __init__(self, cmd):
        self.cmd = cmd
        self.proc = subprocess.Popen(cmd, stdout=subprocess.PIPE,
                                     stderr=sys.stderr, text=True)
        self.rusage = None
        self.out = []
        Child.LIVE.append(self)

    def _read(self):
        self.out.append(self.proc.stdout.read())

    def finish(self):
        """Reads stdout to the end and reaps the child; kills it at the
        deadline. Returns its stdout."""
        reader = threading.Thread(target=self._read)
        reader.start()
        killer = threading.Timer(max(0.0, Child.DEADLINE - time.monotonic()),
                                 self.proc.kill)
        killer.start()
        _, status, self.rusage = os.wait4(self.proc.pid, 0)
        killer.cancel()
        reader.join()
        self.proc.returncode = os.waitstatus_to_exitcode(status)
        Child.LIVE.remove(self)
        return "".join(self.out)

    def peak_rss_mb(self):
        return self.rusage.ru_maxrss / 1024.0

    @staticmethod
    def stop_all():
        for child in list(Child.LIVE):
            child.proc.kill()
            child.finish()


def deadline_s(seconds, workloads):
    """How long after the build a run's children may take before they are
    killed as hung: per workload, its measured --seconds twice over plus
    90 s for input generation, set-up and the output checks."""
    return workloads * (90.0 + 2.0 * seconds)


def run_child(cmd):
    """Runs a child command; returns the JSON object on the last line of
    its output and the reaped Child."""
    child = Child(cmd)
    out = child.finish()
    if child.proc.returncode != 0:
        raise Failure("%s %s exited with %d" % (os.path.basename(cmd[0]),
                                                cmd[1], child.proc.returncode))
    return json.loads(out.strip().splitlines()[-1]), child


# ---- the serve daemon ------------------------------------------------------

class Daemon:
    """`ivt serve` with default flags over the packed journeys, constructed
    once it has registered them and listens; ops are sent with `ivt
    query`."""

    def __init__(self, tools, inputs):
        self.ivt = tools["ivt"]
        self.child = Child([self.ivt, "serve", "--catalog",
                            inputs["catalog"], "--traces",
                            ",".join(inputs["packed"]), "--port", "0"])
        line = self.child.proc.stdout.readline()
        if not line.startswith("listening on "):
            raise Failure("ivt serve did not start")
        self.port = int(line.rsplit(":", 1)[1])

    def query(self, op):
        run_child([self.ivt, "query", "--port", str(self.port), "--op", op])

    def shutdown(self):
        """Stops the daemon with the shutdown op; returns its peak RSS."""
        self.query("shutdown")
        self.child.finish()
        return self.child.peak_rss_mb()


# ---- phases ----------------------------------------------------------------

def setup_phase(tools, inputs, flags, min_reps, seconds):
    """Set-ups, each from raw .ivt to a daemon that listens (and then
    answers a ping), repeated for `seconds` and at least `min_reps` times;
    the daemon of the last one is left running for the serve phase. After
    each, untimed, a `calib` child does the reference work. Returns the
    set-up times, the reference-work times, the set-up children's
    breakdowns and the daemon."""
    samples, calibs, parts = [], [], []
    begin = time.monotonic()
    while True:
        start = time.perf_counter()
        part, _ = run_child([tools["bench"], "setup",
                             "--catalog", inputs["catalog"],
                             "--raw", ",".join(inputs["raw"]),
                             "--packed", ",".join(inputs["packed"])] + flags)
        ready = time.perf_counter()
        daemon = Daemon(tools, inputs)
        end = time.perf_counter()
        # Untimed: the start-up of the `ivt query` process is the client's
        # cost, not the daemon's.
        daemon.query("ping")
        calibs.append(run_child([tools["bench"], "calib"])[0]["calib_s"])
        samples.append(end - start)
        part["serve_ready_s"] = end - ready
        parts.append(part)
        if len(samples) >= min_reps and time.monotonic() - begin >= seconds:
            return samples, calibs, parts, daemon
        daemon.shutdown()


def serve_phase(tools, inputs, daemon, seed, seconds, workers):
    """The open-loop request mix against the daemon at the reference rate
    for `seconds` (see load.cpp), after filling its caches, then the
    served-state cross-check."""
    out, _ = run_child([
        tools["bench"], "load", "--port", str(daemon.port),
        "--catalog", inputs["catalog"],
        "--traces", ",".join(inputs["packed"]),
        "--names", ",".join(inputs["names"]),
        "--rate", repr(REFERENCE_RPS), "--seconds", repr(seconds),
        "--seed", str(seed), "--workers", str(workers)])
    return out


def dist_due(dist_s, elapsed_s):
    """Whether the next round includes a dist job: while dist jobs have
    taken at most DIST_SHARE of the jobs phase so far (the first round
    always does). Most of a dist job is fixed coordination cost whose time
    spreads little, so its time buys more batch and streaming samples."""
    return dist_s <= DIST_SHARE * elapsed_s


def jobs_phase(tools, inputs, flags, warmup_s, seconds, workers):
    """Untimed batch jobs for `warmup_s`, then rounds of one batch, one
    streaming and, when dist_due(), one dist child process, each timing one
    job, while the next round is expected to end within `seconds` (at least
    one round). Returns per exec mode the lists of the jobs' results, each
    with the host's slowdown around it (see slowdowns).

    The warm-up is there because after a second or more of light load the
    first jobs ran up to 2.5x slower than the rest, their CPU time unchanged:
    the virtual machine's idle vCPUs take that long to be running again."""
    def job(mode):
        return run_child([tools["bench"], "jobs", "--mode", mode,
                          "--catalog", inputs["catalog"],
                          "--traces", ",".join(inputs["packed"]),
                          "--workers", str(workers)] + flags)[0]

    start = time.monotonic()
    while time.monotonic() - start < warmup_s:
        job("batch")
    children = []  # (mode, output) in time order
    start, rounds, longest, dist_s = time.monotonic(), 0, 0.0, 0.0
    while rounds == 0 or time.monotonic() - start + longest <= seconds:
        round_start = time.monotonic()
        modes = (JOB_MODES if dist_due(dist_s, round_start - start)
                 else JOB_MODES[:2])
        for mode in modes:
            job_start = time.monotonic()
            children.append((mode, job(mode)))
            if mode == "dist":
                dist_s += time.monotonic() - job_start
        longest = max(longest, time.monotonic() - round_start)
        rounds += 1
    per_mode = {mode: {"wall": [], "cpu": [], "steal": [], "calib": [],
                       "slowdown": [], "rss": [], "digests": [],
                       "errors": []}
                for mode in JOB_MODES}
    factors = slowdowns([out["calib_s"] for _, out in children])
    for (mode, out), factor in zip(children, factors):
        acc = per_mode[mode]
        if out["error"]:
            acc["errors"].append(out["error"])
            continue
        acc["wall"].append(out["wall_s"])
        acc["cpu"].append(out["cpu_s"])
        acc["steal"].append(out["steal_s"])
        acc["calib"].append(out["calib_s"])
        acc["slowdown"].append(factor)
        acc["rss"].append(out["peak_rss_mb"])
        acc["digests"].append(out["digest"])
    return per_mode


# ---- metrics ---------------------------------------------------------------

class Result:
    """Metrics of one workload, plus the op and correctness ledger."""

    def __init__(self):
        self.metrics = {}   # name -> {"value", "samples", "spread"}
        self.attempted = 0
        self.failed = 0
        self.problems = []  # output-check failures: the run is incorrect

    def add(self, name, samples, stat=statistics.median):
        """A metric is `stat` of its samples, which are in time order. So
        that a comparison can tell how far the value could move by chance,
        its resampled spread is kept too (agree.py compares it with the
        bound). A metric without samples (every job failed, which fails
        the run) reads 0."""
        samples = list(samples) or [0.0]
        self.metrics[name] = {
            "value": stat(samples), "samples": samples,
            "spread": benchstats.resampled_spread(samples, stat)}

    def check(self, ok, problem):
        if not ok:
            self.problems.append(problem)


def measured(load, key):
    """Per-request values of the measured requests (after the cache fill)."""
    return load[key][load["warmup_requests"]:]


def steal_adjusted(acc, nproc):
    """Wall times of a mode's jobs less the steal during each, spread over
    the vCPUs: on a shared virtual machine the hypervisor runs other guests
    on this one's vCPUs for up to half their time, in bursts, and a job's
    wall time grows with it while its CPU time does not."""
    return [w - s / nproc for w, s in zip(acc["wall"], acc["steal"])]


def slowdowns(calibs, window=CALIB_WINDOW):
    """For each child of a phase, in time order, how much slower than the
    reference speed the host ran around it: the mean CPU time of
    calib.cpp's fixed work over that child and the `window` children on
    either side, over CALIB_REF_S. Other guests slow this virtual machine
    by 10-30 % for seconds to minutes at a time, and the reference work
    slows with the jobs; dividing by it took most of that out of the job
    times (see README, Noise)."""
    return [statistics.mean(calibs[max(0, i - window):i + window + 1])
            / CALIB_REF_S for i in range(len(calibs))]


def at_reference_speed(times, factors):
    return [t / f for t, f in zip(times, factors)]


def add_job_metrics(res, per_mode, nproc):
    """Job times are the mean of the run's per-process times, the wall
    times steal-adjusted, each at the reference host speed. A dist job is
    a streaming job's work plus coordination, most of which is waiting on
    50 ms heartbeats, whose time does not follow the host's speed: only
    the part a streaming job also spends, the run's mean, is scaled. Peak
    memory does not drift and keeps the median."""
    b, s, d = (per_mode[m] for m in JOB_MODES)
    mean = statistics.mean
    res.add("batch_s", at_reference_speed(steal_adjusted(b, nproc),
                                          b["slowdown"]), mean)
    res.add("stream_s", at_reference_speed(steal_adjusted(s, nproc),
                                           s["slowdown"]), mean)
    stream_work = mean(steal_adjusted(s, nproc)) if s["wall"] else 0.0
    res.add("dist_s", [x - stream_work * (1.0 - 1.0 / f) for x, f in
                       zip(steal_adjusted(d, nproc), d["slowdown"])], mean)
    res.add("batch_cpu_s", at_reference_speed(b["cpu"], b["slowdown"]), mean)
    res.add("stream_cpu_s", at_reference_speed(s["cpu"], s["slowdown"]), mean)
    res.add("batch_peak_rss_mb", b["rss"])
    res.add("stream_peak_rss_mb", s["rss"])
    reference = b["digests"][0] if b["digests"] else None
    for mode in JOB_MODES:
        acc = per_mode[mode]
        res.attempted += len(acc["digests"]) + len(acc["errors"])
        res.failed += len(acc["errors"])
        mismatched = [x for x in acc["digests"] if x != reference]
        res.failed += len(mismatched)
        res.check(not acc["errors"], "%s jobs failed: %s" % (mode, acc["errors"][:1]))
        res.check(not mismatched, "%s output digest differs from batch" % mode)


def add_serve_metrics(res, load, slowdown):
    """End-to-end serve metrics of the measured requests: the median client
    latency, in which a failed or refused request counts as infinitely
    slow, and the mean over the answered requests, which the few heavy
    requests (a full-width state) weigh on as much as they cost. In both,
    the server's own part of each latency (its t_total_ms) is taken at the
    reference host speed, `slowdown` being the host's during the jobs
    phase just before; the rest, mostly a fixed wait for a delayed ACK, is
    not scaled."""
    status = measured(load, "status")
    server = [max(s, 0.0) for s in measured(load, "server_ms")]
    lat = [l - s + s / slowdown if st == 0 else math.inf for l, s, st in
           zip(measured(load, "latency_ms"), server, status)]
    res.add("serve_p50_ms", lat, lambda v: benchstats.percentile(v, 50))
    res.add("serve_mean_ms", lat, lambda v: statistics.mean(
        [l for l in v if l != math.inf] or [0.0]))
    res.attempted += len(lat) + load["state_checks"]
    res.failed += (len(status) - status.count(0)) + len(load["check_failures"])
    for problem in load["check_failures"]:
        res.check(False, "served state: " + problem)


def serve_layer_metrics(load):
    """Per-layer serve numbers, read from what the daemon already returns:
    each response's stages / t_total_ms and the stats op around the step.
    Stage numbers cover the warm-up too, where the cold state builds
    happen."""
    out = {}
    kinds = measured(load, "kind")
    status = measured(load, "status")
    lat = measured(load, "latency_ms")
    out["serve.rtt_ms_p95.all"] = benchstats.percentile(lat, 95)
    for k, kind in enumerate(load["kinds"]):
        mine = [l for l, kk in zip(lat, kinds) if kk == k]
        out["serve.rtt_ms_p50." + kind] = (
            benchstats.percentile(mine, 50) if mine else 0.0)
        out["serve.rtt_ms_p90." + kind] = (
            benchstats.percentile(mine, 90) if mine else 0.0)
    for stage, ps in (("scan", (50,)), ("pipeline", (50, 99)),
                      ("serialize", (50, 99)), ("server", (50,))):
        key = "server_ms" if stage == "server" else stage + "_ms"
        values = [x for x in load[key] if x >= 0]
        name = "total" if stage == "server" else stage
        for p in ps:
            out["serve.stage.%s_ms_p%d" % (name, p)] = (
                benchstats.percentile(values, p) if values else 0.0)
    queue = [l - s for l, s, st in zip(lat, measured(load, "server_ms"), status)
             if st == 0 and s >= 0]
    out["serve.queue_ms_p50"] = benchstats.percentile(queue, 50)
    out["serve.queue_ms_p90"] = benchstats.percentile(queue, 90)
    out["serve.overloaded_ratio"] = status.count(1) / len(status)
    before, after = load["stats_before"], load["stats_after"]

    def delta(key):
        return after[key] - before[key]

    def ratio(hits, misses):
        total = delta(hits) + delta(misses)
        return delta(hits) / total if total else 0.0

    out["serve.state_cache.hit_ratio"] = ratio("state_cache.hits",
                                               "state_cache.misses")
    out["serve.state_cache.evictions"] = delta("state_cache.evictions")
    out["serve.state_cache.bytes"] = after["state_cache.bytes"]
    out["serve.chunk_cache.hit_ratio"] = ratio("chunk_cache.hits",
                                               "chunk_cache.misses")
    out["serve.chunks_decoded_per_request"] = (
        delta("chunks_decoded") / max(1, delta("requests_total")))
    out["serve.response_bytes_p50"] = benchstats.percentile(
        measured(load, "bytes"), 50)
    out["gen.late_ms_p90"] = benchstats.percentile(measured(load, "late_ms"), 90)
    out["gen.achieved_rps"] = len(lat) / load["step_s"]
    out["gen.late_growth_ms"] = benchstats.late_growth_ms(
        measured(load, "due_s"), measured(load, "late_ms"))
    return out


def setup_layer_metrics(parts):
    med = lambda key: statistics.median([p[key] for p in parts])  # noqa: E731
    return {
        "tracefile.load_ivt.s": med("load_ivt_s"),
        "colstore.pack.s": med("pack_s"),
        "colstore.pack.bytes_per_row": parts[0]["packed_bytes"] / parts[0]["rows"],
        "colstore.open.s": med("open_s"),
        "serve.ready.s": med("serve_ready_s"),
    }


def load_manifest():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        return json.load(f)


# ---- one workload ----------------------------------------------------------

def run_workload(tools, name, args, workers):
    """Set-up, the jobs phase (two thirds of --seconds; skipped when traced)
    and the serve phase (one third; its latency is dominated by fixed
    waits, so it needs less time for the same precision). --smoke runs a
    tenth of the inputs with 1 s of jobs, no warm-up, and 3 s of
    serving."""
    workload = WORKLOADS[name]
    serve_s, jobs_s = args.seconds / 3.0, args.seconds * 2.0 / 3.0
    warmup_s = WARMUP_S
    if args.smoke:
        serve_s, jobs_s, warmup_s = 3.0, 1.0, 0.0
    inputs = make_inputs(tools, name, workload, args.seed,
                         0.1 if args.smoke else 1.0)
    flags = ["--narrow"] if workload.narrow else []
    res = Result()

    setup_samples, setup_calibs, parts, daemon = setup_phase(
        tools, inputs, flags, *((2, 0.0) if args.smoke
                                else (SETUP_MIN_REPS, SETUP_S)))
    res.add("setup_s", at_reference_speed(setup_samples,
                                          slowdowns(setup_calibs)))
    per_mode = None
    try:
        if not args.trace:
            per_mode = jobs_phase(tools, inputs, flags, warmup_s,
                                  jobs_s - warmup_s, workers)
        load = serve_phase(tools, inputs, daemon, args.seed, serve_s, workers)
    finally:
        daemon_rss = daemon.shutdown()
    calibs = ([c for mode in JOB_MODES for c in per_mode[mode]["calib"]]
              if per_mode else setup_calibs)
    slowdown = statistics.mean(calibs) / CALIB_REF_S
    add_serve_metrics(res, load, slowdown)
    layers = {}
    if args.trace:
        chrome = os.path.join(inputs["root"], "trace.json")
        traced, _ = run_child([
            tools["bench"], "traced", "--catalog", inputs["catalog"],
            "--traces", ",".join(inputs["packed"]), "--workers", str(workers),
            "--reps", "3", "--seconds", repr(jobs_s), "--chrome", chrome]
            + flags)
        res.attempted += len(next(iter(traced["metrics"].values())))
        res.failed += len(traced["errors"])
        for problem in traced["errors"]:
            res.check(False, problem)
        layers = dict(traced["metrics"])
        for key, value in setup_layer_metrics(parts).items():
            layers[key] = [value]
        for key, value in serve_layer_metrics(load).items():
            layers[key] = [value]
        layers["serve.daemon_peak_rss_mb"] = [daemon_rss]
        log("chrome trace: %s (%d spans)" % (chrome, traced["spans"]))
    else:
        add_job_metrics(res, per_mode, os.cpu_count())
    serve_requests = len(measured(load, "latency_ms"))
    sizes = {"journeys": workload.journeys,
             "rows": parts[0]["rows"], "packed_bytes": parts[0]["packed_bytes"],
             "reference_rps": REFERENCE_RPS, "serve_requests": serve_requests,
             "serve_tail_supported": benchstats.highest_supported_percentile(
                 serve_requests),
             "host_slowdown": slowdown}
    raw = {"sizes": sizes, "jobs": per_mode,
           "setup": {"times": setup_samples, "calib": setup_calibs},
           "serve": {key: measured(load, key) for key in
                     ("kind", "status", "latency_ms", "server_ms")}}
    return res, layers, raw


# ---- main ------------------------------------------------------------------

def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        help="one of %s, or 'all'" % ", ".join(WORKLOADS))
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=36.0,
                        help="measured time per workload (a third serving, "
                             "two thirds jobs)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="a tenth of the inputs, a 3 s serve step, 1 s "
                             "of jobs, every output check")
    parser.add_argument("--out", help="write the full result record here")
    args = parser.parse_args()
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    if any(n not in WORKLOADS for n in names):
        parser.error("unknown workload %r" % args.workload)
    nproc = len(os.sched_getaffinity(0))
    workers = max(1, nproc - 1)

    try:
        manifest = load_manifest()
        tools = build()
        Child.DEADLINE = time.monotonic() + deadline_s(args.seconds,
                                                       len(names))
        record = {"seed": args.seed, "seconds": args.seconds,
                  "trace": args.trace, "smoke": args.smoke, "nproc": nproc,
                  "workers": workers, "build": build_info(), "workloads": {}}
        wanted = manifest["per_layer" if args.trace else "end_to_end"]
        total = Result()
        metrics = {}
        for name in names:
            res, layers, raw = run_workload(tools, name, args, workers)
            entry = dict(raw, problems=res.problems, attempted=res.attempted,
                         failed=res.failed, metrics={})
            for m in wanted:
                if args.trace:
                    samples = layers[m["name"]]
                    metric = {"value": statistics.median(samples),
                              "samples": samples}
                else:
                    metric = dict(res.metrics[m["name"]])
                q1, _, q3 = benchstats.quartiles(metric["samples"])
                metric.update(unit=m["unit"], q1=q1, q3=q3,
                              n=len(metric["samples"]))
                entry["metrics"][m["name"]] = metric
                metrics[m["name"]] = {"value": metric["value"],
                                      "unit": m["unit"]}
            record["workloads"][name] = entry
            total.attempted += res.attempted
            total.failed += res.failed
            total.problems += ["%s: %s" % (name, p) for p in res.problems]
            print_table(name, entry)
    except Failure as e:
        log("ivt_bench: %s" % e)
        return 2
    finally:
        Child.stop_all()
    write_record(args, record)
    return report(total, metrics if len(names) == 1 else {})


def report(total, metrics):
    """Prints the result line; the exit code is 1 when an output check
    failed."""
    for problem in total.problems:
        log("ivt_bench: output check failed: %s" % problem)
    correct = not total.problems
    print(json.dumps({"correct": correct, "attempted": total.attempted,
                      "failed": total.failed, "metrics": metrics}))
    return 0 if correct else 1


def print_table(name, entry):
    print("%s  (%s)" % (name, ", ".join("%s=%s" % kv
                                        for kv in entry["sizes"].items())))
    for metric, m in entry["metrics"].items():
        print("  %-40s %14.6g %-6s [q1 %.6g, q3 %.6g] n=%d" % (
            metric, m["value"], m["unit"], m["q1"], m["q3"], m["n"]))


def write_record(args, record):
    if args.out:
        with open(args.out, "w") as f:
            json.dump(record, f, indent=1, sort_keys=True)
            f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
