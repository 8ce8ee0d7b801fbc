"""TCP control surface for the measurement daemon.

A deliberately tiny line protocol — one UTF-8 request line in, one
response line out — so shell tooling (CI smoke jobs, ``nc``) can drive
a live daemon without a client library::

    ping                 -> ok "pong"
    stats                -> ok {"packets": ..., "pps_recent": ..., ...}
    metrics              -> ok "# TYPE instameasure_packets counter\n..."
                            (daemon.stats() as Prometheus text exposition)
    query <key64>        -> ok {"key": ..., "packets": ..., "bytes": ...}
                            (estimate null when the flow is not resident)
    top <k>              -> ok [[key64, packets, bytes], ...]
    rotate               -> ok {"expired": <count>}
    snapshot             -> ok {"seq": ..., "path": ...}   (checkpoint now)
    stop                 -> ok "stopping"

Responses are ``ok <json>`` or ``err <message>``; the payload is a
single JSON document so every reply is exactly one line.  Connections
are persistent — a client may send many commands — and each connection
is served by its own daemon thread, with all real work delegated to the
:class:`~repro.service.daemon.MeasurementDaemon` (which does its own
locking).
"""

from __future__ import annotations

import json
import math
import re
import socket
import threading

from repro.errors import ConfigurationError

#: Cap on one request line, defensive against garbage connections.
_MAX_LINE = 4096

#: Stats keys that are monotone over a daemon's life — exported as
#: Prometheus ``counter``; everything else numeric is a ``gauge``.
_COUNTER_KEYS = frozenset(
    {
        "packets",
        "measured_packets",
        "position",
        "chunks",
        "offered_packets",
        "kept_packets",
        "dropped_packets",
        "thinned_chunks",
        "dropped_chunks",
    }
)

_NAME_SAFE = re.compile(r"[^a-zA-Z0-9_]")


def render_metrics(stats: "dict", prefix: str = "instameasure") -> str:
    """``daemon.stats()`` as a Prometheus-style text exposition.

    One ``# TYPE`` line plus one value line per stat.  Numeric values
    export as-is, booleans as 0/1, nested dicts (the controller stats)
    flatten with an underscore-joined prefix, and non-numeric values
    (strings, ``None``) are skipped — Prometheus samples are numbers.
    """
    lines: "list[str]" = []

    def emit(path: "list[str]", value) -> None:
        if isinstance(value, dict):
            for key in sorted(value):
                emit(path + [str(key)], value[key])
            return
        if isinstance(value, bool):
            value = int(value)
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            return
        name = _NAME_SAFE.sub("_", "_".join([prefix] + path))
        kind = "counter" if path[-1] in _COUNTER_KEYS else "gauge"
        lines.append(f"# TYPE {name} {kind}")
        lines.append(f"{name} {value}")

    for key in sorted(stats):
        emit([str(key)], stats[key])
    return "\n".join(lines) + "\n"


class ControlServer:
    """Serve the control protocol for one daemon.

    ``port=0`` binds an ephemeral port; read the actual one back from
    :attr:`address` — how tests and the CLI avoid port collisions.
    """

    def __init__(self, daemon, host: str = "127.0.0.1", port: int = 0) -> None:
        self.daemon = daemon
        self._sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._sock.bind((host, port))
        self._sock.listen(8)
        self.address: "tuple[str, int]" = self._sock.getsockname()[:2]
        self._closing = threading.Event()
        self._thread = threading.Thread(
            target=self._accept_loop, name="control-server", daemon=True
        )
        self._thread.start()

    def close(self) -> None:
        """Stop accepting connections and release the port."""
        self._closing.set()
        try:
            # The accept thread's call holds the socket open, listening,
            # past a bare close(): shutting it down stops that call too.
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        try:
            self._sock.close()
        except OSError:
            pass

    def __enter__(self) -> "ControlServer":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- serving ---------------------------------------------------------------

    def _accept_loop(self) -> None:
        while not self._closing.is_set():
            try:
                conn, _addr = self._sock.accept()
            except OSError:
                return  # socket closed
            threading.Thread(
                target=self._serve_connection,
                args=(conn,),
                name="control-conn",
                daemon=True,
            ).start()

    def _serve_connection(self, conn: socket.socket) -> None:
        try:
            with conn, conn.makefile("rwb") as stream:
                while True:
                    line = stream.readline(_MAX_LINE)
                    if not line:
                        return
                    try:
                        reply = "ok " + json.dumps(
                            self._dispatch(line.decode("utf-8", "replace").strip())
                        )
                    except Exception as exc:
                        reply = "err " + str(exc).replace("\n", " ")
                    stream.write(reply.encode("utf-8") + b"\n")
                    stream.flush()
        except (OSError, ValueError):
            return  # client went away mid-reply

    def _dispatch(self, line: str):
        parts = line.split()
        if not parts:
            raise ConfigurationError("empty command")
        verb, args = parts[0].lower(), parts[1:]
        daemon = self.daemon
        if verb == "ping":
            return "pong"
        if verb == "stats":
            return daemon.stats()
        if verb == "metrics":
            return render_metrics(daemon.stats())
        if verb == "query":
            if len(args) != 1:
                raise ConfigurationError("usage: query <key64>")
            key = int(args[0], 0)
            estimate = daemon.query(key)
            return {
                "key": key,
                "packets": estimate[0] if estimate else None,
                "bytes": estimate[1] if estimate else None,
            }
        if verb == "top":
            k = int(args[0], 0) if args else 10
            return [
                [key, packets, bytes_] for key, packets, bytes_ in daemon.top(k)
            ]
        if verb == "rotate":
            return {"expired": daemon.rotate_now()}
        if verb == "snapshot":
            info = daemon.checkpoint_now()
            return {"seq": info.seq, "path": info.manifest_path}
        if verb == "stop":
            daemon.stop()
            return "stopping"
        raise ConfigurationError(f"unknown command {verb!r}")


def send_command(
    address: "tuple[str, int]", line: str, timeout: float = 10.0
) -> "tuple[bool, object]":
    """One-shot client: send ``line``, return ``(ok, payload)``.

    ``payload`` is the decoded JSON document on success, the error
    message string on failure.
    """
    with socket.create_connection(address, timeout=timeout) as conn:
        conn.sendall(line.strip().encode("utf-8") + b"\n")
        with conn.makefile("rb") as stream:
            reply = stream.readline(_MAX_LINE).decode("utf-8", "replace").strip()
    if reply.startswith("ok "):
        return True, json.loads(reply[3:])
    if reply.startswith("err "):
        return False, reply[4:]
    raise ConfigurationError(f"malformed control reply: {reply!r}")
