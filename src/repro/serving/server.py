"""A threaded socket front end over :class:`~repro.serving.SessionManager`.

Protocol: newline-delimited JSON over TCP.  Each request is one JSON
object with an ``op`` field; each response is one JSON object with
``ok`` (plus ``error`` when ``ok`` is false).  One connection maps to one
:class:`~repro.serving.session.Session`, so a client holds a stable
snapshot across requests until it asks for a ``refresh`` (queries refresh
by default — pass ``"refresh": false`` to keep reading the same pin).

Operations:

``ping``
    Liveness probe; echoes the published state.
``query``  (``text``, optional ``refresh``/``stats``/``xml``)
    Execute TXQL pinned to the session snapshot.  Returns ``columns`` and
    plain-text ``rows``; ``"xml": true`` adds the Section-5 results
    envelope, ``"stats": true`` adds the per-query counter deltas.
``trace``  (``text``, optional ``refresh``)
    EXPLAIN ANALYZE; returns the report's JSON (wall_ms, span tree).
``put`` / ``update`` / ``delete``  (``name``, ``xml``, optional ``ts``)
    Writer operations, serialized through the manager's commit lock.
    ``ts`` is an integer timestamp or a ``dd/mm/yyyy`` date string.
``refresh``
    Re-pin the session to the latest published state.
``pinned`` / ``stats``
    The session's pin / server+session counters.
``close``
    Acknowledged, then the server ends the connection.

Errors never kill the server: a malformed line or a failing query turns
into an ``{"ok": false, "error": ..., "error_type": ...}`` response on that
connection only; every refusal names its type.  A line that is not a JSON
object, or names no known op, is a ``ServingError``.  An engine error (a
:class:`~repro.errors.TemporalXMLError`) is answered
with its message and class name as ``error_type``; any other exception is
a server fault: it is answered ``"internal error"`` with ``error_type``
``ServingError``, and its traceback goes to this module's logger.
A line longer than :data:`MAX_REQUEST_BYTES` is refused (``error_type``
``ServingError``) and ends its connection.
"""

from __future__ import annotations

import json
import logging
import socketserver
import threading

from ..clock import parse_date
from ..errors import ServingError, TemporalXMLError
from ..query.executor import _plain_text


_log = logging.getLogger(__name__)


class _ThreadedTCPServer(socketserver.ThreadingTCPServer):
    allow_reuse_address = True
    daemon_threads = True


#: Longest request line the server reads, its newline included.  A line that
#: runs past it is never buffered whole: it is answered with a typed error
#: and its connection is closed.  Far above any document a commit sends.
MAX_REQUEST_BYTES = 16 * 1024 * 1024

#: After refusing an over-long line the server reads on, and drops, the
#: rest of it, so that the connection closes with no input unread: closing
#: a socket with unread input resets it, and a reset can cost the client
#: the reply.  It stops at the line's newline, the client's end of input,
#: this many seconds without data, or 16 × ``MAX_REQUEST_BYTES``.
DISCARD_IDLE_S = 1.0


class _Handler(socketserver.StreamRequestHandler):
    def handle(self):
        serving = self.server.serving
        serving._count("connections")
        session = serving.manager.session()
        while line := self.rfile.readline(MAX_REQUEST_BYTES + 1):
            if len(line) > MAX_REQUEST_BYTES:
                self._respond({
                    "ok": False,
                    "error": f"request line longer than {MAX_REQUEST_BYTES}"
                             " bytes",
                    "error_type": "ServingError",
                })
                serving._count("errors")
                self._discard_line()
                break
            line = line.strip()
            if not line:
                continue
            try:
                request = json.loads(line.decode("utf-8"))
                if not isinstance(request, dict):
                    raise ValueError("request must be a JSON object")
            except (ValueError, UnicodeDecodeError) as exc:
                self._respond({"ok": False, "error": f"bad request: {exc}",
                               "error_type": "ServingError"})
                serving._count("errors")
                continue
            response, keep_open = serving.dispatch(session, request)
            self._respond(response)
            if not keep_open:
                break

    def _respond(self, payload):
        self.wfile.write(json.dumps(payload).encode("utf-8") + b"\n")

    def _discard_line(self):
        """Drop the rest of an over-long line (see :data:`DISCARD_IDLE_S`)."""
        self.connection.settimeout(DISCARD_IDLE_S)
        left = 16 * MAX_REQUEST_BYTES
        try:
            while left > 0:
                chunk = self.rfile.readline(min(left, 64 * 1024))
                if not chunk or chunk.endswith(b"\n"):
                    return
                left -= len(chunk)
        except OSError:  # the pause ran out, or the client went away
            pass


class ServingServer:
    """Owns the listening socket and dispatches protocol requests."""

    def __init__(self, manager, host="127.0.0.1", port=0):
        self.manager = manager
        self._tcp = _ThreadedTCPServer((host, port), _Handler)
        self._tcp.serving = self
        self.address = self._tcp.server_address  # (host, port) — port=0 resolved
        self._thread = None
        self._counter_lock = threading.Lock()
        self._counters = {"connections": 0, "requests": 0, "errors": 0}

    # -- lifecycle ------------------------------------------------------------

    def start(self):
        """Serve on a daemon thread; returns the bound (host, port)."""
        self._thread = threading.Thread(
            target=self._tcp.serve_forever, daemon=True,
            name="repro-serving",
        )
        self._thread.start()
        return self.address

    def stop(self):
        self._tcp.shutdown()
        self._tcp.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5)

    def __enter__(self):
        self.start()
        return self

    def __exit__(self, *exc_info):
        self.stop()

    # -- dispatch -------------------------------------------------------------

    def _count(self, key, n=1):
        with self._counter_lock:
            self._counters[key] += n

    def dispatch(self, session, request):
        """Handle one request dict; returns (response, keep_connection)."""
        self._count("requests")
        op = request.get("op")
        handler = getattr(self, f"_op_{op}", None) if isinstance(op, str) else None
        if handler is None:
            self._count("errors")
            return (
                {"ok": False, "error": f"unknown op {op!r}",
                 "error_type": "ServingError"},
                True,
            )
        try:
            return handler(session, request), op != "close"
        except TemporalXMLError as exc:
            self._count("errors")
            return (
                {"ok": False, "error": str(exc),
                 "error_type": type(exc).__name__},
                True,
            )
        except Exception:  # a server fault: keep the connection usable
            self._count("errors")
            _log.exception("internal error serving op %r", op)
            return (
                {"ok": False, "error": "internal error",
                 "error_type": "ServingError"},
                True,
            )

    # -- operations -----------------------------------------------------------

    def _op_ping(self, session, request):
        published = self.manager.published
        return {"ok": True, "pong": True,
                "published": {"seq": published.seq, "ts": published.ts}}

    def _op_query(self, session, request):
        if request.get("refresh", True):
            session.refresh()
        result = session.query(_text_field(request))
        response = {
            "ok": True,
            "columns": list(result.columns),
            "rows": [
                [_plain_text(row[name]) for name in result.columns]
                for row in result.rows
            ],
            "pinned": {"seq": session.pinned.seq, "ts": session.pinned.ts},
        }
        if request.get("xml"):
            response["xml"] = result.to_xml_string()
        if request.get("stats"):
            response["stats"] = result.stats
        return response

    def _op_trace(self, session, request):
        if request.get("refresh", True):
            session.refresh()
        report = session.trace(_text_field(request))
        return {
            "ok": True,
            "report": report.to_json(),
            "pinned": {"seq": session.pinned.seq, "ts": session.pinned.ts},
        }

    def _op_put(self, session, request):
        doc_id = self.manager.put(
            _name_field(request), _xml_field(request), ts=_ts_field(request)
        )
        return self._committed({"doc_id": doc_id})

    def _op_update(self, session, request):
        version = self.manager.update(
            _name_field(request), _xml_field(request), ts=_ts_field(request)
        )
        return self._committed({"version": version})

    def _op_delete(self, session, request):
        self.manager.delete(_name_field(request), ts=_ts_field(request))
        return self._committed({})

    def _committed(self, extra):
        published = self.manager.published
        response = {"ok": True,
                    "published": {"seq": published.seq, "ts": published.ts}}
        response.update(extra)
        return response

    def _op_refresh(self, session, request):
        pinned = session.refresh()
        return {"ok": True, "pinned": {"seq": pinned.seq, "ts": pinned.ts}}

    def _op_pinned(self, session, request):
        return {"ok": True,
                "pinned": {"seq": session.pinned.seq,
                           "ts": session.pinned.ts}}

    def _op_stats(self, session, request):
        return {"ok": True, "server": self.stats(),
                "session": session.stats()}

    def _op_close(self, session, request):
        return {"ok": True, "closed": True}

    # -- introspection --------------------------------------------------------

    def stats(self):
        with self._counter_lock:
            counters = dict(self._counters)
        return {
            "host": self.address[0],
            "port": self.address[1],
            **counters,
            "manager": self.manager.stats(),
        }


# -- request field helpers ----------------------------------------------------


def _text_field(request):
    text = request.get("text")
    if not isinstance(text, str) or not text.strip():
        raise ServingError("missing query 'text'")
    return text


def _name_field(request):
    name = request.get("name")
    if not isinstance(name, str) or not name:
        raise ServingError("missing document 'name'")
    return name


def _xml_field(request):
    xml = request.get("xml")
    if not isinstance(xml, str) or not xml:
        raise ServingError("missing document 'xml'")
    return xml


def _ts_field(request):
    ts = request.get("ts")
    # ``bool`` is an ``int`` to Python; a JSON true is no timestamp.
    if ts is None or isinstance(ts, int) and not isinstance(ts, bool):
        return ts
    if isinstance(ts, str):
        return parse_date(ts)
    raise ServingError("'ts' must be an integer timestamp or dd/mm/yyyy")
