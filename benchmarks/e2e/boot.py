"""Launching the server under test as its own process."""

from __future__ import annotations

import os
import re
import signal
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
LAUNCHER = Path(__file__).resolve().parent / "traced_server.py"
BOOT_TIMEOUT_S = 120.0
STOP_TIMEOUT_S = 20.0
_ADDRESS = re.compile(rb"http://([0-9.]+):(\d+)")


class BootError(RuntimeError):
    """The server exited or never announced its address."""


class ServerProcess:
    """``python -m repro <command> --graph G --port 0``, or the traced launcher.

    The server announces its ephemeral port on stderr; the log goes to
    a file so a chatty server can never block on a full pipe.
    """

    def __init__(
        self,
        command: str,
        graph: Path,
        log: Path,
        trace_out: Path | None = None,
    ):
        args = [command, "--graph", str(graph), "--port", "0"]
        if trace_out is None:
            argv = [sys.executable, "-m", "repro", *args]
        else:
            argv = [sys.executable, str(LAUNCHER), "--trace-out",
                    str(trace_out), *args]
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        self._log_path = log
        self._log = open(log, "wb")
        self.launched = time.perf_counter()
        self.process = subprocess.Popen(
            argv, cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
            stdout=self._log, stderr=subprocess.STDOUT,
        )

    def address(self) -> tuple[str, int]:
        deadline = time.monotonic() + BOOT_TIMEOUT_S
        while time.monotonic() < deadline:
            match = _ADDRESS.search(self._log_path.read_bytes())
            if match:
                return match.group(1).decode(), int(match.group(2))
            if self.process.poll() is not None:
                raise BootError(
                    f"server exited with {self.process.returncode}:\n"
                    + self.log_tail()
                )
            time.sleep(0.005)
        raise BootError("server did not announce its address:\n"
                        + self.log_tail())

    def log_tail(self) -> str:
        return self._log_path.read_text(errors="replace")[-2000:]

    def memory_mb(self) -> tuple[float, float]:
        """``VmRSS`` and ``VmHWM``: the process's resident memory now and
        at its peak so far, in MiB."""
        status = Path(f"/proc/{self.process.pid}/status").read_text()
        return tuple(
            int(re.search(rf"{key}:\s+(\d+)", status).group(1)) / 1024.0
            for key in ("VmRSS", "VmHWM")
        )

    def signal(self, number: int) -> None:
        self.process.send_signal(number)

    def stop(self) -> None:
        """SIGINT (a graceful drain), then SIGKILL if it hangs."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGINT)
            try:
                self.process.wait(STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self._log.close()
