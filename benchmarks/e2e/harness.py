"""Process harness: a ``repro-router`` plus ``repro-node`` OS processes.

Self-contained on purpose (no import from any other bench script).  Every
child runs in its own session, asks the kernel to kill it if this process
dies, listens on ``--port 0`` only, and is reaped in :meth:`Cluster.stop` —
so a run that fails, or is interrupted, never leaves a router behind.

The per-process clocks the benchmark reports (CPU time, resident memory) are
read from ``/proc`` here, from outside the measured program.
"""

from __future__ import annotations

import ctypes
import os
import select
import signal
import subprocess
import sys
import time
from pathlib import Path

E2E_DIR = Path(__file__).resolve().parent
REPO_ROOT = E2E_DIR.parents[1]
SRC_DIR = REPO_ROOT / "src"

N_NODES = 2
READY_TIMEOUT_S = 30.0
_CLK_TCK = os.sysconf("SC_CLK_TCK")
_PR_SET_PDEATHSIG = 1


def _die_with_parent() -> None:
    """Child-side, before exec: SIGKILL this child when the benchmark dies."""
    ctypes.CDLL(None).prctl(_PR_SET_PDEATHSIG, signal.SIGKILL)


class ClusterError(RuntimeError):
    """A cluster process failed to start, or died while being measured."""


class Cluster:
    """One router and ``N_NODES`` nodes with the CLI defaults.

    ``trace_tag`` starts every process through the benchmark-owned
    ``traced_proc.py`` launcher instead of the stock entry point; the
    launcher dumps its spans to ``results/trace-<trace_tag>-<proc>.jsonl``
    when it receives SIGTERM.
    """

    def __init__(self, results_dir: Path, trace_tag: str | None = None) -> None:
        self.results_dir = results_dir
        self.trace_tag = trace_tag
        self.port = 0
        self.procs: dict[str, subprocess.Popen] = {}
        self.command_lines: dict[str, list[str]] = {}
        self._stderr_files: list = []

    # ------------------------------------------------------------------ #
    def _command(self, role: str, args: list[str], name: str) -> list[str]:
        if self.trace_tag is None:
            module = "repro.rpc.router" if role == "router" else "repro.rpc.node_server"
            return [sys.executable, "-u", "-m", module, *args]
        dump = self.results_dir / f"trace-{self.trace_tag}-{name}.jsonl"
        return [sys.executable, "-u", str(E2E_DIR / "traced_proc.py"), role, str(dump), *args]

    def _spawn(self, name: str, role: str, args: list[str]) -> subprocess.Popen:
        command = self._command(role, args, name)
        env = dict(os.environ)
        env["PYTHONPATH"] = str(SRC_DIR)
        stderr = open(self.results_dir / f"stderr-{name}.log", "wb")
        self._stderr_files.append(stderr)
        proc = subprocess.Popen(
            command,
            stdout=subprocess.PIPE,
            stderr=stderr,
            env=env,
            cwd=str(REPO_ROOT),
            start_new_session=True,
            preexec_fn=_die_with_parent,
        )
        self.procs[name] = proc
        # Recorded relative to the checkout so result files are comparable.
        self.command_lines[name] = [
            "python" if part == sys.executable else part.replace(str(REPO_ROOT) + os.sep, "")
            for part in command
        ]
        return proc

    def _await_ready(self, name: str, marker: str) -> str:
        proc = self.procs[name]
        deadline = time.monotonic() + READY_TIMEOUT_S
        buffered = b""
        while time.monotonic() < deadline:
            ready, _, _ = select.select([proc.stdout], [], [], 0.25)
            if not ready:
                if proc.poll() is not None:
                    break
                continue
            chunk = os.read(proc.stdout.fileno(), 4096)
            if not chunk:
                break
            buffered += chunk
            for line in buffered.split(b"\n")[:-1]:
                if marker.encode() in line:
                    return line.decode()
        raise ClusterError(
            f"{name}: {marker} never appeared (exit={proc.poll()}, stdout={buffered!r}); "
            f"see {self.results_dir / f'stderr-{name}.log'}"
        )

    def start(self) -> None:
        self.results_dir.mkdir(parents=True, exist_ok=True)
        try:
            self._spawn("router", "router", ["--port", "0"])
            ready = self._await_ready("router", "REPRO_ROUTER_READY")
            self.port = int(ready.split("port=")[1].split()[0])
            names = [f"n{i}" for i in range(N_NODES)]
            for name in names:
                self._spawn(name, "node", ["--node-id", name, "--router-port", str(self.port)])
            for name in names:
                self._await_ready(name, "REPRO_NODE_READY")
        except BaseException:
            self.stop()
            raise

    def stop(self) -> None:
        """SIGTERM every child, wait for it, SIGKILL what is left."""
        for proc in self.procs.values():
            if proc.poll() is None:
                proc.terminate()
        for proc in self.procs.values():
            try:
                proc.wait(timeout=15)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait(timeout=15)
            if proc.stdout is not None:
                proc.stdout.close()
        for stderr in self._stderr_files:
            stderr.close()
        self._stderr_files = []

    def __enter__(self) -> "Cluster":
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # ------------------------------------------------------------------ #
    def check_alive(self) -> None:
        for name, proc in self.procs.items():
            if proc.poll() is not None:
                raise ClusterError(f"{name} exited with code {proc.returncode} during the run")

    def cpu_seconds(self) -> dict[str, float]:
        """utime + stime of each cluster process, from ``/proc/<pid>/stat``."""
        return {name: proc_cpu_seconds(proc.pid) for name, proc in self.procs.items()}

    def rss_mb(self) -> dict[str, float]:
        """VmRSS of each cluster process, from ``/proc/<pid>/status``."""
        return {name: proc_rss_mb(proc.pid) for name, proc in self.procs.items()}


def proc_cpu_seconds(pid: int) -> float:
    stat = Path(f"/proc/{pid}/stat").read_text()
    # The command name (field 2) may hold spaces; fields are counted after it.
    fields = stat.rsplit(")", 1)[1].split()
    utime, stime = int(fields[11]), int(fields[12])
    return (utime + stime) / _CLK_TCK


def proc_rss_mb(pid: int) -> float:
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmRSS:"):
            return int(line.split()[1]) / 1024.0
    raise ClusterError(f"no VmRSS for pid {pid}")
