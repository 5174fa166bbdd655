"""Line-oriented TCP link to the robot controller, plus a simulated
controller server for end-to-end tests.

Wire protocol (UTF-8, newline-terminated):
    MOVE <x> <y> <z>   fixed 6-decimal meters, base frame
    TIE | HOME | QUIT
Responses: "OK" or "ERR <code> <message>" with stable codes
1 BAD_COMMAND, 2 UNREACHABLE, 3 NO_POSE, 4 TIE_FAILED.
"""

import math
import random
import socket
import threading
import time
from dataclasses import dataclass, field

import numpy as np

from .errors import ConnectionLost, ProtocolError

ERR_BAD_COMMAND = 1
ERR_UNREACHABLE = 2
ERR_NO_POSE = 3
ERR_TIE_FAILED = 4

ABORT_ON_ERROR = "abort_on_error"
SKIP_ON_ERROR = "skip_on_error"


@dataclass(frozen=True)
class RobotCommand:
    kind: str  # MOVE | TIE | HOME | QUIT
    x: float | None = None
    y: float | None = None
    z: float | None = None

    def __post_init__(self):
        if self.kind == "MOVE":
            coords = (self.x, self.y, self.z)
            if any(c is None or not math.isfinite(c) for c in coords):
                raise ValueError("MOVE requires finite x y z")
        elif self.kind in ("TIE", "HOME", "QUIT"):
            if (self.x, self.y, self.z) != (None, None, None):
                raise ValueError(f"{self.kind} takes no coordinates")
        else:
            raise ValueError(f"unknown command kind {self.kind!r}")


def move(x, y, z):
    return RobotCommand("MOVE", float(x), float(y), float(z))


@dataclass(frozen=True)
class Response:
    ok: bool
    code: int = 0
    message: str = ""


OK = Response(ok=True)


def encode_command(cmd):
    if cmd.kind == "MOVE":
        return f"MOVE {cmd.x:.6f} {cmd.y:.6f} {cmd.z:.6f}\n"
    return cmd.kind + "\n"


def decode_command(line):
    parts = line.strip().split()
    if not parts:
        raise ProtocolError("empty command line")
    if parts[0] == "MOVE":
        if len(parts) != 4:
            raise ProtocolError(f"MOVE takes 3 coordinates, got {len(parts) - 1}")
        try:
            return move(*(float(v) for v in parts[1:]))
        except ValueError:
            raise ProtocolError("non-numeric MOVE coordinate") from None
    if parts[0] in ("TIE", "HOME", "QUIT") and len(parts) == 1:
        return RobotCommand(parts[0])
    raise ProtocolError(f"unknown command {parts[0]!r}")


def encode_response(resp):
    if resp.ok:
        return "OK\n"
    return f"ERR {resp.code} {resp.message}\n"


def decode_response(line):
    parts = line.strip().split()
    if parts == ["OK"]:
        return OK
    if len(parts) == 3 and parts[0] == "ERR":
        try:
            code = int(parts[1])
        except ValueError:
            raise ProtocolError(f"bad error code {parts[1]!r}") from None
        return Response(ok=False, code=code, message=parts[2])
    raise ProtocolError(f"malformed response {line!r}")


class RobotClient:
    """Blocking request/response client; one in-flight command."""

    def __init__(self, host, port, timeout=10.0):
        self.sock = socket.create_connection((host, port), timeout=timeout)
        self.reader = self.sock.makefile("r", encoding="utf-8", newline="\n")

    def send(self, cmd):
        try:
            self.sock.sendall(encode_command(cmd).encode())
            line = self.reader.readline()
        except OSError as e:
            raise ConnectionLost(str(e)) from e
        if not line:
            raise ConnectionLost("server closed the connection")
        return decode_response(line)

    def close(self):
        try:
            self.reader.close()
            self.sock.close()
        except OSError:
            pass

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


@dataclass
class TieOutcome:
    sequence_index: int
    success: bool
    stage: str | None = None  # failing stage: "move" or "tie"
    code: int | None = None
    message: str = ""


@dataclass
class SequenceReport:
    outcomes: list = field(default_factory=list)

    @property
    def attempted(self):
        return len(self.outcomes)

    @property
    def successes(self):
        return sum(1 for o in self.outcomes if o.success)

    @property
    def failures(self):
        return self.attempted - self.successes


def execute_sequence(ties, client, policy=ABORT_ON_ERROR):
    """Drive the controller through a tie sequence.

    For each tie in sequence order: MOVE to the target, then TIE. A failed
    response marks the tie failed and either aborts or skips per policy.
    HOME and QUIT are always sent at the end. A dropped connection raises
    ConnectionLost carrying the partial report.
    """
    if policy not in (ABORT_ON_ERROR, SKIP_ON_ERROR):
        raise ValueError(f"unknown policy {policy!r}")
    report = SequenceReport()
    try:
        for tie in ties:
            x, y, z = tie.position
            resp = client.send(move(x, y, z))
            if not resp.ok:
                report.outcomes.append(
                    TieOutcome(tie.sequence_index, False, "move", resp.code, resp.message)
                )
                if policy == ABORT_ON_ERROR:
                    break
                continue
            resp = client.send(RobotCommand("TIE"))
            if not resp.ok:
                report.outcomes.append(
                    TieOutcome(tie.sequence_index, False, "tie", resp.code, resp.message)
                )
                if policy == ABORT_ON_ERROR:
                    break
                continue
            report.outcomes.append(TieOutcome(tie.sequence_index, True))
        client.send(RobotCommand("HOME"))
        client.send(RobotCommand("QUIT"))
    except ConnectionLost as e:
        raise ConnectionLost(str(e), report=report) from None
    return report


@dataclass(frozen=True)
class SimRobotConfig:
    workspace_center: tuple = (0.0, 0.0, 0.0)
    workspace_radius: float = 1.0
    tie_failure_rate: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.workspace_radius <= 0:
            raise ValueError("workspace_radius must be positive")
        if not 0 <= self.tie_failure_rate <= 1:
            raise ValueError("tie_failure_rate must be in [0, 1]")


class SimRobotServer:
    """Simulated controller: reachability checks plus seeded tie failures.

    Serves one client at a time; queued connections wait in the listen
    backlog. Deterministic given (config.seed, command sequence).
    """

    def __init__(self, config, port=0, host="127.0.0.1", log_path=None,
                 stop_on_quit=True):
        self.config = config
        self.rng = random.Random(config.seed)
        self.stop_on_quit = stop_on_quit
        self.log_path = log_path
        self._log_file = None
        self._stopped = threading.Event()
        self.listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self.listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self.listener.bind((host, port))
        self.listener.listen(8)
        self.port = self.listener.getsockname()[1]
        self.host = host
        self._thread = None
        self._active_conn = None

    def _log(self, direction, raw):
        if self._log_file is not None:
            millis = int(time.time() * 1000)
            self._log_file.write(f"{millis} {direction} {raw}\n")
            self._log_file.flush()

    def _handle(self, cmd, state):
        cfg = self.config
        if cmd.kind == "MOVE":
            target = np.array([cmd.x, cmd.y, cmd.z])
            center = np.asarray(cfg.workspace_center, dtype=float)
            if np.linalg.norm(target - center) > cfg.workspace_radius:
                return Response(False, ERR_UNREACHABLE, "UNREACHABLE")
            state["pose"] = target
            state["moved_since_tie"] = True
            return OK
        if cmd.kind == "TIE":
            if not state["moved_since_tie"]:
                return Response(False, ERR_NO_POSE, "NO_POSE")
            state["moved_since_tie"] = False
            if self.rng.random() < cfg.tie_failure_rate:
                return Response(False, ERR_TIE_FAILED, "TIE_FAILED")
            return OK
        if cmd.kind == "HOME":
            state["pose"] = None
            state["moved_since_tie"] = False
            return OK
        return OK  # QUIT acknowledged; caller closes

    def _serve_connection(self, conn):
        state = {"pose": None, "moved_since_tie": False}
        reader = conn.makefile("r", encoding="utf-8", newline="\n")
        quit_seen = False
        try:
            for line in reader:
                raw = line.rstrip("\n")
                self._log("RECV", raw)
                try:
                    cmd = decode_command(raw)
                except ProtocolError:
                    resp = Response(False, ERR_BAD_COMMAND, "BAD_COMMAND")
                else:
                    resp = self._handle(cmd, state)
                    if cmd.kind == "QUIT":
                        quit_seen = True
                out = encode_response(resp)
                self._log("SEND", out.rstrip("\n"))
                conn.sendall(out.encode())
                if quit_seen:
                    break
        except OSError:
            pass
        finally:
            reader.close()
            conn.close()
        return quit_seen

    def serve_forever(self):
        """Accept connections sequentially until stopped (or QUIT, when
        stop_on_quit is set)."""
        if self.log_path is not None:
            self._log_file = open(self.log_path, "a")
        # accept with a timeout so stop() is observed promptly; a plain
        # close() does not wake a blocked accept on Linux
        self.listener.settimeout(0.1)
        try:
            while not self._stopped.is_set():
                try:
                    conn, _ = self.listener.accept()
                except socket.timeout:
                    continue
                except OSError:
                    break  # listener closed by stop()
                conn.settimeout(None)
                self._active_conn = conn
                quit_seen = self._serve_connection(conn)
                self._active_conn = None
                if quit_seen and self.stop_on_quit:
                    break
        finally:
            if self._log_file is not None:
                self._log_file.close()
                self._log_file = None
            self.listener.close()

    def start(self):
        """Serve on a background thread (for tests)."""
        self._thread = threading.Thread(target=self.serve_forever, daemon=True)
        self._thread.start()
        return self

    def stop(self):
        self._stopped.set()
        try:
            self.listener.close()
        except OSError:
            pass
        conn = self._active_conn
        if conn is not None:
            try:
                conn.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
        if self._thread is not None:
            self._thread.join(timeout=5.0)


def run_sim_server(config, port, host="127.0.0.1", log_path=None):
    """Blocking convenience wrapper: serve until a client sends QUIT."""
    server = SimRobotServer(config, port=port, host=host, log_path=log_path,
                            stop_on_quit=True)
    server.serve_forever()
    return server
