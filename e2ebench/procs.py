"""Program processes: start, wait for readiness, stop, and account.

CPU time and peak RSS are read from ``/proc`` for the whole process
tree (the server or batch child plus any pool workers it forked), so
the figures cover what the program costs, not just its main process.
"""

import http.client
import os
import signal
import subprocess
import sys
import time

_TICKS = os.sysconf("SC_CLK_TCK")


def program_env(root):
    """Environment that runs the checkout's own ``src/`` tree."""
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONUNBUFFERED"] = "1"
    for name in ("REPRO_WORKERS", "REPRO_BACKEND", "REPRO_HOSTS",
                 "REPRO_CACHE_DIR", "REPRO_FAULTS"):
        env.pop(name, None)
    return env


def _children_map():
    children = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open("/proc/%s/stat" % entry) as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        children.setdefault(int(fields[1]), []).append(int(entry))
    return children


def tree_pids(root_pid):
    """``root_pid`` and every live descendant."""
    children = _children_map()
    pids, stack = [], [root_pid]
    while stack:
        pid = stack.pop()
        pids.append(pid)
        stack.extend(children.get(pid, ()))
    return pids


def cpu_seconds(pid):
    """User + system CPU seconds of one process (0 once it is gone)."""
    try:
        with open("/proc/%d/stat" % pid) as handle:
            fields = handle.read().rsplit(")", 1)[1].split()
    except OSError:
        return 0.0
    return (int(fields[11]) + int(fields[12])) / _TICKS


def peak_rss_mb(pid):
    """VmHWM (peak resident set) of one process, in MiB."""
    try:
        with open("/proc/%d/status" % pid) as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


class TreeMeter:
    """CPU used by a process tree between :meth:`start` and :meth:`stop`.

    Per-pid baselines, so workers forked mid-phase count from zero.
    """

    def __init__(self, root_pid):
        self.root_pid = root_pid
        self._base = {}

    def start(self):
        self._base = {pid: cpu_seconds(pid)
                      for pid in tree_pids(self.root_pid)}

    def stop(self):
        used = 0.0
        for pid in tree_pids(self.root_pid):
            used += cpu_seconds(pid) - self._base.get(pid, 0.0)
        return used

    def peak_rss_mb(self):
        return sum(peak_rss_mb(pid) for pid in tree_pids(self.root_pid))


def split_cpus():
    """(server cpus, client cpus): the last core for the load generator,
    the rest for the server; ``(None, None)`` on a single core."""
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) < 2:
        return None, None
    return set(cpus[:-1]), {cpus[-1]}


def own_cpu_seconds():
    times = os.times()
    return times.user + times.system


def stop(process, timeout=20.0):
    """SIGINT, then SIGKILL; always reaps the process."""
    if process.poll() is None:
        process.send_signal(signal.SIGINT)
        try:
            process.wait(timeout)
        except subprocess.TimeoutExpired:
            process.kill()
            process.wait()
    if process.stdout is not None:
        process.stdout.close()


class ServerProcess:
    """One ``repro serve`` process on an ephemeral loopback port."""

    def __init__(self, root, argv, log_path, cpus=None):
        self.started = time.perf_counter()
        self._log = open(log_path, "ab")
        self.process = subprocess.Popen(
            argv, cwd=root, env=program_env(root), stdout=subprocess.PIPE,
            stderr=self._log)
        if cpus:
            os.sched_setaffinity(self.process.pid, cpus)
        self.port = None
        self.ready_s = None

    def wait_ready(self, timeout=60.0):
        """Seconds from process start to the first healthz 200."""
        line = self.process.stdout.readline().decode()
        if "listening on" not in line:
            raise RuntimeError("server did not start: %r" % line)
        self.port = int(line.strip().rsplit(":", 1)[1])
        deadline = self.started + timeout
        while True:
            try:
                conn = http.client.HTTPConnection("127.0.0.1", self.port,
                                                  timeout=5)
                conn.request("GET", "/v1/healthz")
                response = conn.getresponse()
                response.read()
                conn.close()
                if response.status == 200:
                    break
            except OSError:
                pass
            if time.perf_counter() > deadline:
                raise RuntimeError("server never became healthy")
            time.sleep(0.002)
        self.ready_s = time.perf_counter() - self.started
        return self.ready_s

    @property
    def pid(self):
        return self.process.pid

    def close(self):
        stop(self.process)
        self._log.close()


def serve_argv(traced, trace_path=None):
    """``repro serve`` with CLI defaults, or its traced twin."""
    if traced:
        return [sys.executable, "-m", "e2ebench.serve_traced",
                "--trace-out", trace_path, "--", "serve", "--port", "0"]
    return [sys.executable, "-m", "repro", "serve", "--port", "0"]
