"""Line-oriented TCP control protocol for two-host experiments.

Commands are single UTF-8 lines, LF-terminated:

    controller -> agent    HELLO
                           START <experiment-id>
                           STOP
    agent -> controller    HELLO
                           STARTED
                           RESULT <length>     (followed by <length> raw bytes)
                           ERROR <reason>

The agent owns the server-side resources of one experiment at a time
(RT profile, stress, traffic sink, echo server); a START while a session
is running is refused, and STOP tears the session down and returns the
`rt.*`, `traffic.*`, `sink.*` and `server.*` lines a local run writes to
result.meta as the RESULT payload. The controller sends nothing between
START and STOP, so a held session has no read timeout; it ends at STOP,
when the controller disconnects, or at the agent's close().
"""

import socket
import threading
import traceback

from .errors import PeerUnreachableError, RttBenchError
from .pubsub import Endpoint

_IO_TIMEOUT = 10.0


class ControlProtocolError(RttBenchError):
    """Peer sent something outside the protocol."""


def _error(reason) -> bytes:
    """The ERROR reply, on one line whatever the reason's text holds."""
    return f"ERROR {' '.join(str(reason).split())}\n".encode()


class ControlAgent:
    """Accepts one controller at a time and drives experiment sessions.

    `start_session(experiment_id)` starts a session and returns the
    callable that stops it, `stop() -> bytes`; KeyError maps to an ERROR
    reply. A `stop` that raises still ends the session: STOP answers
    ERROR, and the agent goes on serving the next controller.
    """

    def __init__(self, listen: Endpoint, start_session):
        self._start_session = start_session
        self._sock = socket.create_server((listen.address, listen.port))
        self._sock.settimeout(0.2)
        self.listen = Endpoint(listen.address, self._sock.getsockname()[1])
        self._stop = threading.Event()
        self._conn = None  # the controller being served, for close()
        self._thread = threading.Thread(target=self._serve, name="control-agent",
                                        daemon=True)
        self._thread.start()

    def _serve(self):
        while not self._stop.is_set():
            try:
                conn, _ = self._sock.accept()
            except socket.timeout:
                continue
            except OSError:
                break
            with conn:
                self._conn = conn
                self._handle(conn)
                self._conn = None

    def _handle(self, conn):
        conn.settimeout(_IO_TIMEOUT)
        reader = conn.makefile("rb")
        stop_session = None
        try:
            while not self._stop.is_set():
                line = reader.readline()
                if not line:
                    break
                command = line.decode("utf-8", "replace").strip()
                if command == "HELLO":
                    conn.sendall(b"HELLO\n")
                elif command.startswith("START "):
                    experiment_id = command[len("START "):]
                    if stop_session is not None:
                        conn.sendall(_error("session already started"))
                        continue
                    try:
                        stop_session = self._start_session(experiment_id)
                        conn.settimeout(None)  # silent until STOP
                        conn.sendall(b"STARTED\n")
                    except KeyError:
                        conn.sendall(_error(f"unknown experiment {experiment_id}"))
                    except Exception as exc:
                        conn.sendall(_error(exc))
                elif command == "STOP":
                    stop, stop_session = stop_session, None  # ended either way
                    conn.settimeout(_IO_TIMEOUT)
                    try:
                        payload = stop() if stop is not None else b""
                    except Exception as exc:
                        conn.sendall(_error(f"stop failed: {exc}"))
                        continue
                    conn.sendall(f"RESULT {len(payload)}\n".encode() + payload)
                else:
                    conn.sendall(_error(f"unknown command {command!r}"))
        except OSError:
            pass
        finally:
            if stop_session is not None:
                try:
                    stop_session()
                except Exception:
                    traceback.print_exc()  # no controller is left to tell

    def close(self):
        """Stop serving; a held session is torn down before this returns."""
        self._stop.set()
        self._sock.close()
        conn = self._conn
        if conn is not None:
            try:
                conn.shutdown(socket.SHUT_RDWR)  # wakes the handler's read
            except OSError:
                pass
        self._thread.join()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


class ControlClient:
    """Controller side; connection failure raises PeerUnreachableError, and
    every later failure (reset, timeout, bad reply) ControlProtocolError."""

    def __init__(self, agent: Endpoint, timeout: float = 5.0):
        try:
            self._sock = socket.create_connection((agent.address, agent.port),
                                                  timeout=timeout)
        except OSError as exc:
            raise PeerUnreachableError(f"control agent {agent}: {exc}") from exc
        self._sock.settimeout(_IO_TIMEOUT)
        self._reader = self._sock.makefile("rb")

    def _command(self, line: str) -> str:
        try:
            self._sock.sendall(line.encode() + b"\n")
            reply = self._reader.readline()
        except OSError as exc:
            raise ControlProtocolError(f"{line.split()[0]}: {exc}") from exc
        if not reply:
            raise ControlProtocolError("agent closed the connection")
        return reply.decode("utf-8", "replace").strip()

    def hello(self) -> None:
        reply = self._command("HELLO")
        if reply != "HELLO":
            raise ControlProtocolError(f"expected HELLO, got {reply!r}")

    def start(self, experiment_id: str) -> None:
        reply = self._command(f"START {experiment_id}")
        if reply != "STARTED":
            raise ControlProtocolError(f"start failed: {reply!r}")

    def stop(self) -> bytes:
        reply = self._command("STOP")
        if not reply.startswith("RESULT "):
            raise ControlProtocolError(f"expected RESULT, got {reply!r}")
        try:
            length = int(reply.split(" ", 1)[1])
            payload = self._reader.read(length)
        except (ValueError, OSError) as exc:
            raise ControlProtocolError(f"RESULT: {exc}") from exc
        if payload is None or len(payload) != length:
            raise ControlProtocolError("short RESULT payload")
        return payload

    def close(self):
        try:
            self._sock.close()
        except OSError:
            pass

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
