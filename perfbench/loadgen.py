"""Keep-alive HTTP client and server process control."""

from __future__ import annotations

import http.client
import json
import os
import signal
import subprocess
import sys
import time
from dataclasses import dataclass, field

from spans import REQUEST_HEADER

CLK_TCK = os.sysconf("SC_CLK_TCK")


@dataclass
class Record:
    """One request as the client saw it (monotonic-clock seconds)."""

    rid: int
    kind: str
    item: int
    sent: float
    done: float
    status: int
    body: dict | None = field(default=None, repr=False)

    @property
    def ok(self) -> bool:
        return self.status == 200


class Connection:
    """One keep-alive connection; a transport error reconnects and reports
    status 0, so the caller counts it as a failed operation."""

    def __init__(self, port: int, timeout: float = 60.0) -> None:
        self._port = port
        self._timeout = timeout
        self._conn = http.client.HTTPConnection("127.0.0.1", port, timeout=timeout)

    def post(self, path: str, body: bytes, rid: int) -> tuple[int, bytes, float, float]:
        headers = {"Content-Type": "application/json", REQUEST_HEADER: str(rid)}
        sent = time.monotonic()
        try:
            self._conn.request("POST", path, body, headers)
            response = self._conn.getresponse()
            data = response.read()
            status = response.status
        except (OSError, http.client.HTTPException):
            self.close()
            self._conn = http.client.HTTPConnection("127.0.0.1", self._port, timeout=self._timeout)
            data, status = b"", 0
        return status, data, sent, time.monotonic()

    def get(self, path: str) -> dict:
        self._conn.request("GET", path)
        response = self._conn.getresponse()
        data = response.read()
        if response.status != 200:
            raise RuntimeError(f"GET {path} answered {response.status}")
        return json.loads(data)

    def close(self) -> None:
        self._conn.close()


def proc_status(pid: int) -> dict:
    """Peak resident memory (MiB) and CPU seconds of a live process."""
    with open(f"/proc/{pid}/status") as fh:
        hwm = next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))
    with open(f"/proc/{pid}/stat") as fh:
        fields = fh.read().rsplit(")", 1)[1].split()
    cpu = (int(fields[11]) + int(fields[12])) / CLK_TCK
    return {"peak_rss_mb": hwm / 1024.0, "cpu_s": cpu}


class ServerProcess:
    """``python -m repro serve --index FILE`` (or the traced launcher) as a
    child process; :meth:`start` returns the seconds from launch until
    ``/healthz`` answers."""

    def __init__(self, root: str, index_path: str, spans_path: str | None = None) -> None:
        if spans_path is None:
            entry = ["-m", "repro"]
        else:
            entry = [os.path.join("perfbench", "launch.py"), "--spans", spans_path]
        self.cmd = [sys.executable, *entry, "serve", "--index", index_path, "--port", "0"]
        self.root = root
        self.proc: subprocess.Popen | None = None
        self.port = 0

    def start(self, timeout: float = 60.0) -> float:
        env = dict(os.environ, PYTHONPATH=os.path.join(self.root, "src"), PYTHONUNBUFFERED="1")
        begin = time.monotonic()
        self.proc = subprocess.Popen(
            self.cmd, cwd=self.root, env=env, stdout=subprocess.PIPE, text=True
        )
        line = self.proc.stdout.readline()
        if "http://" not in line:
            self.stop()
            raise RuntimeError(f"server did not start: {line!r}")
        self.port = int(line.rsplit(":", 1)[1].split()[0])
        while True:
            try:
                conn = Connection(self.port, timeout=5.0)
                conn.get("/healthz")
                conn.close()
                return time.monotonic() - begin
            except OSError:
                if time.monotonic() - begin > timeout or self.proc.poll() is not None:
                    self.stop()
                    raise RuntimeError("server never answered /healthz") from None
                time.sleep(0.005)

    def status(self) -> dict:
        return proc_status(self.proc.pid)

    def stop(self, timeout: float = 60.0) -> None:
        """SIGINT (the CLI's clean shutdown), then wait; kill on timeout."""
        proc = self.proc
        if proc is None:
            return
        if proc.poll() is None:
            proc.send_signal(signal.SIGINT)
            try:
                proc.wait(timeout)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
        proc.stdout.close()
        self.proc = None
