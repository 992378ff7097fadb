"""The gateway as its own process: spawn, talk plain HTTP, scrape, kill.

:class:`ServerProcess` starts ``python -m repro serve --port 0 --wal-dir
<dir>`` (or, for a traced run, :mod:`traced_serve`, which wraps layer
calls first and then runs the same CLI), waits for the ready line, and
owns the child until :meth:`kill` has reaped it. :class:`ReferenceServer`
does the same for :mod:`refserver`.
"""

from __future__ import annotations

import http.client
import json
import os
import re
import signal
import subprocess
import sys
import time
from pathlib import Path

__all__ = ["ServerProcess", "ReferenceServer", "parse_exposition", "peak_rss_mb"]

_READY = re.compile(r"\[serving on http://([\d.]+):(\d+)")
HERE = Path(__file__).resolve().parent


class ServerProcess:
    """One ``repro serve`` child process bound to an ephemeral port."""

    def __init__(self, root: Path, wal_dir: Path, args=(), *, spans_path=None):
        env = dict(os.environ)
        env["PYTHONPATH"] = str(root / "src")
        env["PYTHONUNBUFFERED"] = "1"
        cli = ["serve", "--port", "0", "--wal-dir", str(wal_dir), *args]
        if spans_path is None:
            command = [sys.executable, "-m", "repro", *cli]
        else:
            env["PERFBENCH_SPANS"] = str(spans_path)
            command = [sys.executable, str(HERE / "traced_serve.py"), *cli]
        self.spans_path = spans_path
        self._start(command, env, root, wal_dir.parent / f"{wal_dir.name}.log")

    def _start(self, command, env, cwd, log_path) -> None:
        self._log = open(log_path, "wb")
        self.proc = subprocess.Popen(
            command,
            cwd=cwd,
            env=env,
            stdout=subprocess.PIPE,
            stderr=self._log,
        )
        self.host, self.port = self._await_ready()

    def _await_ready(self):
        deadline = time.monotonic() + 60
        while time.monotonic() < deadline:
            line = self.proc.stdout.readline().decode(errors="replace")
            if not line:
                break
            match = _READY.search(line)
            if match:
                return match.group(1), int(match.group(2))
        self.kill()
        raise RuntimeError("the server exited before it was ready to serve")

    @property
    def pid(self) -> int:
        return self.proc.pid

    def _connection(self) -> http.client.HTTPConnection:
        return http.client.HTTPConnection(self.host, self.port, timeout=60)

    def post(self, path: str, envelope: dict) -> dict:
        """One blocking request on a fresh connection (set-up and checks)."""
        conn = self._connection()
        try:
            conn.request("POST", path, body=json.dumps(envelope))
            return json.loads(conn.getresponse().read())
        finally:
            conn.close()

    def get(self, path: str) -> bytes:
        conn = self._connection()
        try:
            conn.request("GET", path)
            return conn.getresponse().read()
        finally:
            conn.close()

    def scrape(self) -> dict:
        """The server's own ``/v1/metrics`` exposition as ``{series: value}``."""
        return parse_exposition(self.get("/v1/metrics").decode())

    def health(self) -> dict:
        return json.loads(self.get("/v1/healthz"))

    def dump_spans(self) -> None:
        """Ask a traced server to write its spans, and wait until it has."""
        done = Path(f"{self.spans_path}.done")
        os.kill(self.pid, signal.SIGUSR1)
        deadline = time.monotonic() + 60
        while not done.exists():
            if time.monotonic() > deadline or self.proc.poll() is not None:
                raise RuntimeError("the traced server did not write its spans")
            time.sleep(0.01)

    def kill(self) -> None:
        """SIGKILL: no drain, no checkpoint. Reaps the child."""
        if self.proc.poll() is None:
            self.proc.kill()
        self._reap()

    def _reap(self) -> None:
        try:
            self.proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()
        self._log.close()


class ReferenceServer(ServerProcess):
    """:mod:`refserver` as a child process, appending to ``log_file``."""

    def __init__(self, root: Path, log_file: Path):
        self.spans_path = None
        command = [sys.executable, str(HERE / "refserver.py"), str(log_file)]
        self._start(command, dict(os.environ), root, log_file.with_suffix(".err"))


def peak_rss_mb(pid="self") -> float:
    """VmHWM (peak resident set) of process ``pid``, in MiB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("VmHWM not reported")


def parse_exposition(text: str) -> dict:
    """Prometheus text lines -> ``{'name{labels}': float}`` (comments dropped)."""
    series = {}
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        name, _, value = line.rpartition(" ")
        series[name] = float(value)
    return series
