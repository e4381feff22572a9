"""Instrumented reference REST service with three injected bugs.

A deliberately small GitLab-style API (projects / branches / commits)
served over raw sockets so that malformed methods, paths and bodies
reach application logic instead of being rejected by an HTTP library.
Every basic block is declared up front and recorded into a coverage
bitmap exposed through ``/__coverage__`` side-channel endpoints.

Injected bugs (each returns status 500 and hits its own fault block):

  B1  commit ``file_path`` with invalid UTF-8 crashes the path decoder
      (reachable only through a commit body value)
  B2  a repository subresource segment starting with ``|`` crashes the
      handler lookup (reachable only through a commit path static)
  B3  an unknown HTTP method on the commits route falls through the
      method table (reachable only through a commit method leaf)

Every other malformed input is answered with a 4xx.  Handlers are
deterministic: ids restart from 1 after ``POST /__reset__``.
"""

from __future__ import annotations

import json
import socket
import threading

DEFAULT_TOKEN = "DRiX47nuEP2AR"
KNOWN_METHODS = ("GET", "POST", "PUT", "DELETE", "PATCH")
MAX_BODY = 1 << 20

BUG_CATALOG = (
    {
        "id": "B1",
        "block": "commits.file_path_decode_fault",
        "surface": "body-value",
        "description": "invalid UTF-8 in commit file_path crashes the path decoder",
    },
    {
        "id": "B2",
        "block": "router.subresource_split_fault",
        "surface": "path-static",
        "description": "repository subresource starting with '|' crashes the handler lookup",
    },
    {
        "id": "B3",
        "block": "router.commits_method_fault",
        "surface": "method",
        "description": "unknown HTTP method on the commits route falls through the router",
    },
)


def injected_bug_catalog():
    """Ground-truth list of injected bugs (id, fault block, surface)."""
    return [dict(b) for b in BUG_CATALOG]


class FaultInjected(Exception):
    """Raised at an injected fault site; becomes a 500 response."""


_SIDE_CHANNELS = frozenset(
    [
        ("/__coverage__", "GET"),
        ("/__coverage__/reset", "POST"),
        ("/__coverage__/manifest", "GET"),
        ("/__reset__", "POST"),
    ]
)


class BlockRegistry:
    """Declared basic blocks and the hit set since the last reset."""

    def __init__(self):
        self.block_ids: list[str] = []
        self._index: dict[str, int] = {}
        self._hits: set[int] = set()

    def declare(self, block_id: str) -> str:
        if block_id in self._index:
            raise ValueError("block %r declared twice" % block_id)
        self._index[block_id] = len(self.block_ids)
        self.block_ids.append(block_id)
        return block_id

    def hit(self, block_id: str) -> None:
        self._hits.add(self._index[block_id])

    def reset(self) -> None:
        self._hits.clear()

    def bitmap_hex(self) -> str:
        width = len(self.block_ids)
        buf = bytearray((width + 7) // 8)
        for i in self._hits:
            buf[i // 8] |= 1 << (i % 8)
        return bytes(buf).hex()

    @property
    def block_count(self) -> int:
        return len(self.block_ids)


class _Response:
    def __init__(self, status, payload, close=False):
        self.status = status
        self.payload = payload
        self.close = close


_REASONS = {
    200: "OK",
    201: "Created",
    400: "Bad Request",
    401: "Unauthorized",
    404: "Not Found",
    405: "Method Not Allowed",
    500: "Internal Server Error",
}


class ReferenceTarget:
    """Socket server around the instrumented API: one accept thread and
    one worker thread per connection.  Each request reads its head and
    body without a lock, then records its blocks and is routed (side
    channels included) under one lock, so concurrent clients see requests
    applied one at a time.  ``stop`` shuts down the connections still
    open, so a kept-alive client gets no further response."""

    def __init__(self, host="127.0.0.1", port=0, token=DEFAULT_TOKEN):
        self.host = host
        self.port = port
        self.token = token
        self.registry = BlockRegistry()
        self._declare_blocks()
        self._reset_state()
        self._sock = None
        self._thread = None
        self._stopping = threading.Event()
        self._lock = threading.Lock()
        self._conns: set[socket.socket] = set()  # accepted and still open
        self._conns_lock = threading.Lock()

    # -- lifecycle --------------------------------------------------------

    def start(self) -> "ReferenceTarget":
        self._sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._sock.bind((self.host, self.port))
        self._sock.listen(16)
        self.port = self._sock.getsockname()[1]
        self._thread = threading.Thread(target=self._serve_loop, daemon=True)
        self._thread.start()
        return self

    def stop(self) -> None:
        self._stopping.set()
        try:
            # unblock accept() with a throwaway connection
            poke = socket.create_connection((self.host, self.port), timeout=1)
            poke.close()
        except OSError:
            pass
        if self._thread is not None:
            self._thread.join(timeout=5)
        if self._sock is not None:
            self._sock.close()
        # a kept-alive client must get no further response
        with self._conns_lock:
            for conn in self._conns:
                try:
                    conn.shutdown(socket.SHUT_RDWR)
                except OSError:
                    pass

    @property
    def base_url(self) -> str:
        return "http://%s:%d" % (self.host, self.port)

    def __enter__(self):
        return self.start()

    def __exit__(self, *exc):
        self.stop()

    # -- state ------------------------------------------------------------

    def _reset_state(self):
        self._next_project_id = 1
        self._next_commit = 1
        # project id -> {"name": str, "branches": {name: {"files": set}}}
        self.projects: dict[int, dict] = {}

    # -- block declarations ------------------------------------------------

    def _declare_blocks(self):
        d = self.registry.declare
        # transport / router layer
        d("http.request_received")
        d("http.request_line_ok")
        d("http.request_line_bad")
        d("http.header_bad")
        d("http.body_read")
        d("router.auth_ok")
        d("router.auth_bad")
        d("router.method_known")
        d("router.method_not_allowed")
        d("router.no_route")
        d("router.projects_collection")
        d("router.project_item")
        d("router.repository_family")
        d("router.subresource_parse")
        d("router.subresource_unknown")
        d("router.subresource_split_fault")  # B2
        d("router.commits_route")
        d("router.branches_route")
        d("router.commits_method_fault")  # B3
        # projects
        d("projects.create_parse")
        d("projects.create_bad_json")
        d("projects.create_name_ok")
        d("projects.create_name_missing")
        d("projects.create_name_not_utf8")
        d("projects.created")
        d("projects.list_ok")
        d("projects.item_found")
        d("projects.item_missing")
        d("projects.item_ok")
        # branches
        d("branches.parse")
        d("branches.bad_json")
        d("branches.project_ok")
        d("branches.project_missing")
        d("branches.name_ok")
        d("branches.name_missing")
        d("branches.name_not_utf8")
        d("branches.ref_ok")
        d("branches.ref_missing")
        d("branches.ref_not_utf8")
        d("branches.duplicate")
        d("branches.created")
        d("branches.list_ok")
        d("branches.list_project_missing")
        # commits
        d("commits.parse")
        d("commits.bad_json")
        d("commits.project_ok")
        d("commits.project_missing")
        d("commits.branch_ok")
        d("commits.branch_missing")
        d("commits.message_ok")
        d("commits.message_missing")
        d("commits.message_not_utf8")
        d("commits.action_known")
        d("commits.action_unknown")
        d("commits.file_path_present")
        d("commits.file_path_missing")
        d("commits.file_path_decode_fault")  # B1
        d("commits.act_create_ok")
        d("commits.act_delete_missing")
        d("commits.act_delete_ok")
        d("commits.act_move_missing")
        d("commits.act_update_missing")
        d("commits.act_chmod_missing")
        d("commits.created")
        d("commits.list_ok")
        d("commits.list_project_missing")

    # -- serving -----------------------------------------------------------

    def _serve_loop(self):
        # one worker thread per connection: the fuzzer keeps its case
        # connection open while polling the coverage side channel from a
        # second one, so a serial accept loop would deadlock
        while not self._stopping.is_set():
            try:
                conn, _addr = self._sock.accept()
            except OSError:
                break
            if self._stopping.is_set():
                conn.close()
                break
            with self._conns_lock:
                self._conns.add(conn)
            worker = threading.Thread(
                target=self._conn_worker, args=(conn,), daemon=True
            )
            worker.start()

    def _conn_worker(self, conn: socket.socket):
        try:
            self._serve_connection(conn)
        except Exception:
            pass
        finally:
            with self._conns_lock:
                self._conns.discard(conn)
            try:
                conn.close()
            except OSError:
                pass

    def _serve_connection(self, conn: socket.socket):
        conn.settimeout(10.0)
        buf = b""
        while not self._stopping.is_set():
            head, buf, eof = self._read_head(conn, buf)
            if head is None:
                return  # client closed or timed out
            response, buf = self._handle_head(conn, head, buf)
            self._send_response(conn, response)
            if response.close:
                return
            if eof:
                return

    def _read_head(self, conn, buf):
        """Read up to the blank line ending the header section."""
        eof = False
        while b"\r\n\r\n" not in buf and b"\n\n" not in buf:
            try:
                chunk = conn.recv(65536)
            except (TimeoutError, OSError):
                return None, buf, True
            if not chunk:
                eof = True
                break
            buf += chunk
        for sep in (b"\r\n\r\n", b"\n\n"):
            if sep in buf:
                head, rest = buf.split(sep, 1)
                return head, rest, eof
        return None, buf, True

    def _handle_head(self, conn, head: bytes, buf: bytes):
        # blocks seen while reading are recorded with the routing, under the
        # lock; no socket read holds it
        hits: list[str] = []
        request, resp, buf = self._read_request(conn, head, buf, hits.append)
        with self._lock:
            for block in hits:
                self.registry.hit(block)
            if request is not None:
                try:
                    resp = self._route(*request)
                except FaultInjected as exc:
                    resp = _Response(500, {"message": "internal server error: %s" % exc})
                except Exception as exc:  # unplanned crash: still a 500, visible in tests
                    resp = _Response(500, {"message": "unexpected error: %r" % exc})
        return resp, buf

    def _read_request(self, conn, head: bytes, buf: bytes, hit):
        """Parse the head and read the body.  Returns ``(request, None,
        rest)`` with request = (method, path, headers, body), or ``(None,
        error response, b"")``."""
        text = head.decode("latin-1")
        lines = text.split("\r\n") if "\r\n" in text else text.split("\n")
        parts = lines[0].split(" ")
        if len(parts) < 2 or not parts[0]:
            hit("http.request_received")
            hit("http.request_line_bad")
            return None, _Response(400, {"message": "malformed request line"}, close=True), b""
        method = parts[0]
        raw_path = parts[1]
        # introspection traffic must leave the bitmap untouched, including
        # the front-door blocks below
        if (raw_path.split("?", 1)[0], method) in _SIDE_CHANNELS:
            hit = lambda _block: None  # noqa: E731
        hit("http.request_received")
        headers: dict[str, str] = {}
        for ln in lines[1:]:
            if not ln:
                continue
            if ":" not in ln:
                hit("http.header_bad")
                return None, _Response(400, {"message": "malformed header"}, close=True), b""
            key, _, val = ln.partition(":")
            headers[key.strip().lower()] = val.strip()
        hit("http.request_line_ok")
        # read the body if one is declared
        body = b""
        length_text = headers.get("content-length", "0")
        try:
            length = int(length_text)
        except ValueError:
            hit("http.header_bad")
            return None, _Response(400, {"message": "bad content-length"}, close=True), b""
        if length < 0 or length > MAX_BODY:
            hit("http.header_bad")
            return None, _Response(400, {"message": "bad content-length"}, close=True), b""
        while len(buf) < length:
            try:
                chunk = conn.recv(65536)
            except (TimeoutError, OSError):
                return None, _Response(400, {"message": "short body"}, close=True), b""
            if not chunk:
                return None, _Response(400, {"message": "short body"}, close=True), b""
            buf += chunk
        body, buf = buf[:length], buf[length:]
        hit("http.body_read")
        return (method, raw_path, headers, body), None, buf

    def _send_response(self, conn, resp: _Response):
        payload = json.dumps(resp.payload).encode("utf-8")
        reason = _REASONS.get(resp.status, "Status")
        head = (
            "HTTP/1.1 %d %s\r\n" % (resp.status, reason)
            + "Content-Type: application/json\r\n"
            + "Content-Length: %d\r\n" % len(payload)
            + ("Connection: close\r\n" if resp.close else "")
            + "\r\n"
        )
        try:
            conn.sendall(head.encode("latin-1") + payload)
        except OSError:
            pass

    # -- routing -----------------------------------------------------------

    def _route(self, method, raw_path, headers, body) -> _Response:
        hit = self.registry.hit
        path = raw_path.split("?", 1)[0]

        # side channels bypass auth and never touch the bitmap
        # GET peeks at the window since the last reset; POST also clears it
        if (path, method) in (("/__coverage__", "GET"), ("/__coverage__/reset", "POST")):
            window = {
                "bitmap": self.registry.bitmap_hex(),
                "block_count": self.registry.block_count,
            }
            if method == "POST":
                self.registry.reset()
            return _Response(200, window)
        if path == "/__coverage__/manifest" and method == "GET":
            return _Response(200, {"blocks": self.registry.block_ids})
        if path == "/__reset__" and method == "POST":
            self._reset_state()
            return _Response(200, {"ok": True})

        if headers.get("private-token") != self.token:
            hit("router.auth_bad")
            return _Response(401, {"message": "401 Unauthorized"})
        hit("router.auth_ok")

        segments = [s for s in path.split("/") if s != ""]

        if len(segments) == 2 and segments[0] == "api" and segments[1] == "projects":
            hit("router.projects_collection")
            if method == "POST":
                hit("router.method_known")
                return self._create_project(body)
            if method == "GET":
                hit("router.method_known")
                hit("projects.list_ok")
                return _Response(
                    200,
                    {"projects": [{"id": pid} for pid in sorted(self.projects)]},
                )
            return self._method_rejected(method)

        if len(segments) == 3 and segments[0] == "api" and segments[1] == "projects":
            hit("router.project_item")
            if method == "GET":
                hit("router.method_known")
                return self._get_project(segments[2])
            return self._method_rejected(method)

        if (
            len(segments) == 5
            and segments[0] == "api"
            and segments[1] == "projects"
            and segments[3] == "repository"
        ):
            hit("router.repository_family")
            sub = segments[4]
            if sub == "branches":
                hit("router.branches_route")
                if method == "POST":
                    hit("router.method_known")
                    return self._create_branch(segments[2], body)
                if method == "GET":
                    hit("router.method_known")
                    return self._list_branches(segments[2])
                return self._method_rejected(method)
            if sub == "commits":
                hit("router.commits_route")
                if method == "POST":
                    hit("router.method_known")
                    return self._create_commit(segments[2], body)
                if method == "GET":
                    hit("router.method_known")
                    return self._list_commits(segments[2])
                if method in KNOWN_METHODS:
                    hit("router.method_not_allowed")
                    return _Response(405, {"message": "405 Method Not Allowed"})
                # Injected bug B3: the commits route consults a secondary
                # method table that has no default entry.
                hit("router.commits_method_fault")
                raise FaultInjected("unhandled method %r in commits dispatch" % method)
            # Unknown subresource: an action-suffix splitter runs here
            # ("<name>|<action>" is a legacy call form).
            hit("router.subresource_parse")
            if sub.startswith("|"):
                # Injected bug B2: an empty name before '|' bypasses the
                # default entry and indexes the handler table with "".
                hit("router.subresource_split_fault")
                raise FaultInjected("no handler for empty subresource in %r" % sub)
            hit("router.subresource_unknown")
            return _Response(404, {"message": "404 Not Found"})

        hit("router.no_route")
        return _Response(404, {"message": "404 Not Found"})

    def _method_rejected(self, method) -> _Response:
        self.registry.hit("router.method_not_allowed")
        return _Response(405, {"message": "405 Method Not Allowed"})

    # -- helpers -----------------------------------------------------------

    @staticmethod
    def _json_body(body: bytes):
        """Parse the body leniently: raw bytes are mapped through latin-1
        first so invalid UTF-8 still reaches the field validators."""
        try:
            return json.loads(body.decode("latin-1"))
        except (json.JSONDecodeError, UnicodeDecodeError):
            return None

    @staticmethod
    def _utf8_ok(value: str) -> bool:
        try:
            value.encode("latin-1").decode("utf-8")
        except (UnicodeEncodeError, UnicodeDecodeError):
            return False
        return True

    @staticmethod
    def _required_str(data, key):
        v = data.get(key)
        if not isinstance(v, str) or v == "" or v == "nil":
            return None
        return v

    def _lookup_project(self, id_text: str):
        try:
            pid = int(id_text)
        except ValueError:
            return None
        return self.projects.get(pid)

    # -- handlers ----------------------------------------------------------

    def _create_project(self, body) -> _Response:
        hit = self.registry.hit
        hit("projects.create_parse")
        data = self._json_body(body)
        if not isinstance(data, dict):
            hit("projects.create_bad_json")
            return _Response(400, {"message": "invalid json"})
        name = self._required_str(data, "name")
        if name is None:
            hit("projects.create_name_missing")
            return _Response(400, {"message": "name is required"})
        if not self._utf8_ok(name):
            hit("projects.create_name_not_utf8")
            return _Response(400, {"message": "name must be valid UTF-8"})
        hit("projects.create_name_ok")
        pid = self._next_project_id
        self._next_project_id += 1
        self.projects[pid] = {"name": name, "branches": {"master": {"files": set()}}}
        hit("projects.created")
        return _Response(201, {"id": pid, "name": name})

    def _get_project(self, id_text) -> _Response:
        hit = self.registry.hit
        project = self._lookup_project(id_text)
        if project is None:
            hit("projects.item_missing")
            return _Response(404, {"message": "404 Project Not Found"})
        hit("projects.item_found")
        hit("projects.item_ok")
        pid = int(id_text)
        return _Response(200, {"id": pid, "name": project["name"]})

    def _create_branch(self, id_text, body) -> _Response:
        hit = self.registry.hit
        hit("branches.parse")
        data = self._json_body(body)
        if not isinstance(data, dict):
            hit("branches.bad_json")
            return _Response(400, {"message": "invalid json"})
        project = self._lookup_project(id_text)
        if project is None:
            hit("branches.project_missing")
            return _Response(404, {"message": "404 Project Not Found"})
        hit("branches.project_ok")
        name = self._required_str(data, "branch")
        if name is None:
            hit("branches.name_missing")
            return _Response(400, {"message": "branch is required"})
        if not self._utf8_ok(name):
            hit("branches.name_not_utf8")
            return _Response(400, {"message": "branch must be valid UTF-8"})
        hit("branches.name_ok")
        ref = self._required_str(data, "ref")
        if ref is None:
            hit("branches.ref_missing")
            return _Response(400, {"message": "ref is required"})
        if not self._utf8_ok(ref):
            hit("branches.ref_not_utf8")
            return _Response(400, {"message": "ref must be valid UTF-8"})
        hit("branches.ref_ok")
        if name in project["branches"]:
            hit("branches.duplicate")
            return _Response(400, {"message": "branch already exists"})
        project["branches"][name] = {"files": set()}
        hit("branches.created")
        return _Response(
            201,
            {"branch": name, "commit": {"id": "c%06d" % self._next_commit}},
        )

    def _list_branches(self, id_text) -> _Response:
        hit = self.registry.hit
        project = self._lookup_project(id_text)
        if project is None:
            hit("branches.list_project_missing")
            return _Response(404, {"message": "404 Project Not Found"})
        hit("branches.list_ok")
        return _Response(
            200, {"branches": [{"name": b} for b in sorted(project["branches"])]}
        )

    def _create_commit(self, id_text, body) -> _Response:
        hit = self.registry.hit
        hit("commits.parse")
        data = self._json_body(body)
        if not isinstance(data, dict):
            hit("commits.bad_json")
            return _Response(400, {"message": "invalid json"})
        project = self._lookup_project(id_text)
        if project is None:
            hit("commits.project_missing")
            return _Response(404, {"message": "404 Project Not Found"})
        hit("commits.project_ok")
        branch_name = data.get("branch")
        branch = (
            project["branches"].get(branch_name)
            if isinstance(branch_name, str)
            else None
        )
        if branch is None:
            hit("commits.branch_missing")
            return _Response(404, {"message": "404 Branch Not Found"})
        hit("commits.branch_ok")
        message = self._required_str(data, "commit_message")
        if message is None:
            hit("commits.message_missing")
            return _Response(400, {"message": "commit_message is required"})
        if not self._utf8_ok(message):
            hit("commits.message_not_utf8")
            return _Response(400, {"message": "commit_message must be valid UTF-8"})
        hit("commits.message_ok")
        actions = data.get("actions")
        if not isinstance(actions, list) or not actions:
            hit("commits.action_unknown")
            return _Response(400, {"message": "actions are required"})
        for action in actions:
            if not isinstance(action, dict):
                hit("commits.action_unknown")
                return _Response(400, {"message": "bad action entry"})
            kind = action.get("action")
            if kind not in ("create", "delete", "move", "update", "chmod"):
                hit("commits.action_unknown")
                return _Response(400, {"message": "unknown action"})
            hit("commits.action_known")
            file_path = action.get("file_path")
            if not isinstance(file_path, str) or file_path == "" or file_path == "nil":
                hit("commits.file_path_missing")
                return _Response(400, {"message": "file_path is required"})
            hit("commits.file_path_present")
            if not self._utf8_ok(file_path):
                # Injected bug B1: file_path is re-encoded for storage
                # without validation; invalid byte sequences blow up.
                hit("commits.file_path_decode_fault")
                raise FaultInjected("cannot decode file_path %r" % file_path)
            resp = self._apply_action(branch, kind, file_path)
            if resp is not None:
                return resp
        cid = "c%06d" % self._next_commit
        self._next_commit += 1
        hit("commits.created")
        return _Response(201, {"id": cid, "message": message})

    def _apply_action(self, branch, kind, file_path):
        hit = self.registry.hit
        files = branch["files"]
        if kind == "create":
            hit("commits.act_create_ok")
            files.add(file_path)
            return None
        if kind == "delete":
            if file_path not in files:
                hit("commits.act_delete_missing")
                return _Response(400, {"message": "file does not exist"})
            hit("commits.act_delete_ok")
            files.discard(file_path)
            return None
        if kind == "move":
            if file_path not in files:
                hit("commits.act_move_missing")
                return _Response(400, {"message": "file does not exist"})
            return None
        if kind == "update":
            if file_path not in files:
                hit("commits.act_update_missing")
                return _Response(400, {"message": "file does not exist"})
            return None
        # chmod
        if file_path not in files:
            hit("commits.act_chmod_missing")
            return _Response(400, {"message": "file does not exist"})
        return None

    def _list_commits(self, id_text) -> _Response:
        hit = self.registry.hit
        project = self._lookup_project(id_text)
        if project is None:
            hit("commits.list_project_missing")
            return _Response(404, {"message": "404 Project Not Found"})
        hit("commits.list_ok")
        return _Response(200, {"commits": []})


def serve(host="127.0.0.1", port=0, token=DEFAULT_TOKEN) -> ReferenceTarget:
    """Start a reference target in a background thread and return it."""
    return ReferenceTarget(host=host, port=port, token=token).start()


if __name__ == "__main__":
    import argparse
    import time

    ap = argparse.ArgumentParser(description="Run the instrumented reference target.")
    ap.add_argument("--host", default="127.0.0.1")
    ap.add_argument("--port", type=int, default=8642)
    ap.add_argument(
        "--token", default=DEFAULT_TOKEN, help="value of the Private-Token header the API expects"
    )
    opts = ap.parse_args()
    server = serve(opts.host, opts.port, opts.token)
    print("reference target listening at %s (Ctrl-C to stop)" % server.base_url)
    try:
        while True:
            time.sleep(3600)
    except KeyboardInterrupt:
        server.stop()
