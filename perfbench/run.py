#!/usr/bin/env python3
"""Outside-in benchmark of jnvm_server.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. Builds jnvm_server and the benchmark's own
programs from source (perfbench/CMakeLists.txt) into $CARGO_TARGET_DIR
(default .bench_build), then runs one workload against the server:

  set-up   start the server, preload, warm up;
  measure  the workload from pb_loadgen, the benchmark's single-threaded
           load generator. With --trace 0 set-up and measurement run on
           SETUPS server instances, each measured for --seconds/SETUPS;
           setup_s and the timings are medians over them;
  restart  kill -9 the server under load, restart it, time recovery until
           PING answers, and sweep every key for its last acked value;
           then RESTARTS - 1 more kill -9 / restart / sweep cycles;
  heap     stop the server cleanly (its exit status is the shard integrity
           audit) and read the heap's in-use blocks for space_amp.

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones (the
same run once, plus pb_trace's in-process traced replay). Every metric is
printed as "name value unit"; the last line of stdout is one JSON object.
The exit status is non-zero when any check fails. See perfbench/README.md.
"""
import argparse
import json
import os
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
RUN_DIR = os.path.join(ROOT, ".bench_run")

SETUPS = 3    # set-ups per --trace 0 run; setup_s is their median
RESTARTS = 3  # kill -9 / restart / sweep cycles; recovery_s is the median
DEADLINE_S = 170.0  # a run must end within 180 s, not counting the build

# Logical cores: the server gets `server_cores`, the generator core 2 and
# this script core 3 (mapped onto the CPUs this process may use).
WORKLOADS = {
    "ycsb-b-open": dict(keys=100_000, value_bytes=100, get_frac=0.95, zipf=1,
                        conns=4, depth=64, rate=10_000.0, server_cores=[0, 1],
                        trace_depth=1, trace_ops=20_000, keep_awake=True),
    "ycsb-a-sat": dict(keys=100_000, value_bytes=100, get_frac=0.5, zipf=0,
                       conns=8, depth=64, rate=0.0, server_cores=[0],
                       trace_depth=128, trace_ops=50_000),
    "write-1k-restart": dict(keys=50_000, value_bytes=1024, get_frac=0.0,
                             zipf=0, conns=8, depth=64, rate=0.0,
                             server_cores=[0], trace_depth=128,
                             trace_ops=30_000),
}

# Metric names and units: the end-to-end and per-layer lists of
# BENCHMARK.json, the benchmark's registration at the checkout root.
with open(os.path.join(ROOT, "BENCHMARK.json")) as _f:
    _DEFINITION = json.load(_f)
E2E = [(m["name"], m["unit"]) for m in _DEFINITION["end_to_end"]]
PER_LAYER = [(m["name"], m["unit"]) for m in _DEFINITION["per_layer"]]


class Failure(Exception):
    pass


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


# Read once, before main() pins this script to its own core.
ALLOWED_CPUS = sorted(os.sched_getaffinity(0))


def cpu(logical):
    return ALLOWED_CPUS[logical % len(ALLOWED_CPUS)]


def build():
    jobs = str(max(1, min(4, len(ALLOWED_CPUS))))
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        _check_call(["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B",
                     BUILD, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"] + gen)
    _check_call(["cmake", "--build", BUILD, "-j", jobs, "--target",
                 "jnvm_server", "pb_loadgen", "pb_trace"])


def _check_call(cmd):
    # Build output goes to stderr: stdout ends with the result line.
    if subprocess.call(cmd, stdout=sys.stderr, stderr=sys.stderr) != 0:
        raise Failure(f"command failed: {' '.join(cmd)}")


def free_port():
    with socket.socket() as s:
        s.bind(("127.0.0.1", 0))
        return s.getsockname()[1]


class Run:
    """One benchmark run; owns every process it starts."""

    def __init__(self, name, seed, seconds, trace):
        self.w = WORKLOADS[name]
        self.name, self.seed, self.seconds, self.trace = name, seed, seconds, trace
        self.server_cpus = {cpu(c) for c in self.w["server_cores"]}
        self.procs = []
        self.port = free_port()
        self.heap_base = os.path.join(RUN_DIR, "heap")
        self.t_begin = 0.0  # set by run(): the build does not count

    # ---- processes ----

    def spawn(self, args, cores, **kw):
        self.check_deadline()
        p = subprocess.Popen(args, preexec_fn=lambda: os.sched_setaffinity(0, cores),
                             **kw)
        self.procs.append(p)
        return p

    def kill(self, p, sig=signal.SIGKILL):
        """Sends `sig` (None: just waits) and reaps; returns the exit code."""
        if sig is not None and p.poll() is None:
            p.send_signal(sig)
        p.wait(timeout=60)
        if p in self.procs:
            self.procs.remove(p)
        return p.returncode

    def kill_all(self):
        for p in list(self.procs):
            self.kill(p)

    def check_deadline(self):
        if time.monotonic() - self.t_begin > DEADLINE_S:
            raise Failure("run exceeded its time budget")

    def start_server(self):
        return self.spawn(
            [os.path.join(BUILD, "jnvm_server"), f"--port={self.port}",
             "--shards=1", "--loops=1", "--batch=16", "--optane",
             f"--dax-base={self.heap_base}"],
            self.server_cpus, stdout=subprocess.PIPE, stderr=sys.stderr,
            text=True)

    def start_gen(self, server, seconds, restart):
        w = self.w
        args = [os.path.join(BUILD, "pb_loadgen"), f"--port={self.port}",
                f"--server-pid={server.pid}",
                "--server-cpus=" + ",".join(map(str, sorted(self.server_cpus))),
                f"--keys={w['keys']}",
                f"--value-bytes={w['value_bytes']}", f"--get-frac={w['get_frac']}",
                f"--zipf={w['zipf']}", f"--conns={w['conns']}",
                f"--depth={w['depth']}", f"--rate={w['rate']}",
                f"--seconds={seconds}", f"--seed={self.seed}"]
        if not restart:
            args.append("--no-restart")
        return self.spawn(args, {cpu(2)}, stdin=subprocess.PIPE,
                          stdout=subprocess.PIPE, stderr=sys.stderr, text=True)

    def expect(self, gen, word):
        line = gen.stdout.readline().strip()
        if not line.startswith(word):
            raise Failure(f"generator said {line!r}, expected {word!r}")
        return line

    def wipe_heap(self):
        os.makedirs(RUN_DIR, exist_ok=True)
        for f in os.listdir(RUN_DIR):
            if f.startswith("heap"):
                os.remove(os.path.join(RUN_DIR, f))

    def wait_ping(self):
        deadline = time.monotonic() + 60
        while time.monotonic() < deadline:
            try:
                with socket.create_connection(("127.0.0.1", self.port), 1) as s:
                    s.sendall(b"*1\r\n$4\r\nPING\r\n")
                    if s.recv(16).startswith(b"+PONG"):
                        return time.monotonic()
            except OSError:
                pass
            time.sleep(0.001)
        raise Failure("restarted server never answered PING")

    # ---- phases ----

    def instance(self, seconds, last):
        """Starts a server on a fresh heap and runs set-up + measurement.

        Returns (setup_s, server, generator, result); `result` is None for
        the last instance, whose generator goes on to the restart phase.
        """
        self.wipe_heap()
        t0 = time.monotonic()
        server = self.start_server()
        gen = self.start_gen(server, seconds, restart=last)
        start_ns = int(self.expect(gen, "measure_start").split()[1])
        setup_s = start_ns / 1e9 - t0
        if last:
            return setup_s, server, gen, None
        res = json.loads(gen.stdout.readline())
        res["rc"] = self.kill(gen, None)
        self.kill(server)
        return setup_s, server, gen, res

    def keep_awake(self):
        """Holds the server's and the generator's cores out of the idle state.

        A SCHED_IDLE spinner per core yields to any other runnable thread at
        once, but stops the vCPU from halting: a wake-up then costs what the
        futex or epoll hand-off costs, not a hypervisor halt exit, whose
        latency follows the host's load rather than the program.
        """
        spin = ("import os\n"
                "os.sched_setscheduler(0, os.SCHED_IDLE, os.sched_param(0))\n"
                "while True: pass\n")
        for c in sorted(self.server_cpus | {cpu(2)}):
            self.spawn([sys.executable, "-c", spin], {c})

    def run(self):
        self.t_begin = time.monotonic()
        if self.w.get("keep_awake"):
            self.keep_awake()
        # --trace 0 measures SETUPS server instances for a third of the
        # window each and pools their slices; --trace 1 measures one.
        n = 1 if self.trace else SETUPS
        setups, results = [], []
        for i in range(n):
            setup_s, server, gen, res = self.instance(self.seconds / n,
                                                      last=i == n - 1)
            setups.append(setup_s)
            if res is not None:
                results.append(res)
        self.expect(gen, "kill")
        self.kill(server)  # kill -9 under load
        self.expect(gen, "down")
        # kill -9 / restart cycles: the first under load, the others of the
        # idle server. Each restart is timed until PING answers and swept.
        recoveries = []
        for i in range(RESTARTS):
            if i > 0:
                self.kill(server)
            t0 = time.monotonic()
            server = self.start_server()
            recoveries.append(self.wait_ping() - t0)
            gen.stdin.write("sweep\n")
            gen.stdin.flush()
            self.expect(gen, "swept")
        gen.stdin.write("done\n")
        gen.stdin.flush()
        res = json.loads(gen.stdout.readline())
        res["rc"] = self.kill(gen, None)
        results.append(res)
        # Clean stop: jnvm_server exits 0 only when the shard's integrity
        # audit passes. It may answer PING before it installs its SIGTERM
        # handler; the "listening" line comes after.
        server.stdout.readline()
        server_rc = self.kill(server, signal.SIGTERM)
        report = server.stdout.read()
        if server_rc != 0:
            log(f"jnvm_server exited {server_rc}: {report}")
        usage = json.loads(subprocess.check_output(
            [os.path.join(BUILD, "pb_trace"),
             f"--heap-usage={self.heap_base}.shard0.pmem"], stderr=sys.stderr))
        self.wipe_heap()

        w = self.w

        def pooled(key):
            return statistics.median(v for r in results for v in r[key])

        live_bytes = w["keys"] * (len("user00000000") + w["value_bytes"])
        m = dict(res)  # per-layer figures: the last instance's
        m.update({
            "setup_s": statistics.median(setups),
            "throughput_ops_s": pooled("slice_ops_s"),
            "server_cpu_us_per_op": pooled("slice_cpu_us_per_op"),
            "get_p50_us": pooled("get_p50_us"),
            "get_p99_us": pooled("get_p99_us"),
            "set_p50_us": pooled("set_p50_us"),
            "set_p99_us": pooled("set_p99_us"),
            "server_rss_mb": statistics.median(r["server_rss_mb"] for r in results),
            "recovery_s": statistics.median(recoveries),
            "space_amp": usage["in_use_blocks"] * usage["block_size"] / live_bytes,
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
        })
        m["failed_frac"] = m["failed"] / max(m["attempted"], 1)
        checks = {
            "generator": all(r["rc"] == 0 for r in results) and m["failed"] == 0,
            "sweep": (res["sweep_keys"] == RESTARTS * w["keys"]
                      and res["sweep_bad"] == 0),
            "integrity_audit": server_rc == 0,
        }
        if self.trace:
            m.update(self.traced_replay())
            checks["trace"] = m.pop("trace.errors") == 0
        self.report_diagnostics(m)
        return m, checks

    def traced_replay(self):
        w = self.w
        out = subprocess.check_output(
            [os.path.join(BUILD, "pb_trace"), f"--keys={w['keys']}",
             f"--value-bytes={w['value_bytes']}", f"--get-frac={w['get_frac']}",
             f"--zipf={w['zipf']}", f"--seed={self.seed}",
             f"--ops={w['trace_ops']}", f"--depth={w['trace_depth']}",
             f"--dir={os.path.join(RUN_DIR, 'trace')}"],
            stderr=sys.stderr, text=True,
            preexec_fn=lambda: os.sched_setaffinity(0, self.server_cpus))
        return json.loads(out.strip().splitlines()[-1])

    def report_diagnostics(self, m):
        if self.w["rate"] == 0 and m["proc.cpu_util"] < 0.9:
            log(f"WARNING: server only {m['proc.cpu_util']:.2f} busy on its "
                "core; this run is not CPU-bound")
        if m["gen.cpu_util"] > 0.9:
            log(f"WARNING: generator {m['gen.cpu_util']:.2f} busy; it may be "
                "the bottleneck")
        if not m["warmup_levelled"]:
            log("WARNING: warm-up hit its time cap before RSS and minor "
                "faults levelled off")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    os.sched_setaffinity(0, {cpu(3)})

    run = Run(args.workload, args.seed, args.seconds, args.trace)
    # A SIGTERM unwinds through the finally below, which stops every child.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    try:
        build()
        metrics, checks = run.run()
    except (Failure, subprocess.SubprocessError, OSError, ValueError,
            KeyError) as e:
        log(f"FAILED: {e}")
        return 1
    finally:
        run.kill_all()

    wanted = PER_LAYER if args.trace else E2E
    out = {}
    for name, unit in wanted:
        out[name] = {"value": metrics[name], "unit": unit}
        print(f"{name} {metrics[name]!r} {unit}")
    correct = all(checks.values())
    for name, ok in checks.items():
        print(f"check.{name} {'ok' if ok else 'FAILED'}")
    print(json.dumps({"correct": correct, "attempted": int(metrics["attempted"]),
                      "failed": int(metrics["failed"]), "metrics": out}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
