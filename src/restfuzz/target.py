"""Instrumented reference REST service with three injected bugs.

A deliberately small GitLab-style API (projects / branches / commits)
served over raw sockets by one thread, so that malformed methods, paths
and bodies reach application logic instead of an HTTP library's checks.
Every basic block is declared up front and recorded into a coverage
bitmap.  Every answer to a request that is not a side channel, one
rejected before routing included, carries the window that request
closes, as ``X-Coverage-Window: <block_count>:<hex>``, and the bitmap is
cleared as it is built.  The ``/__coverage__`` side channels serve the
block manifest, a peek and a clear, and record no blocks.

Two tables route a request.  ``ReferenceTarget._SIDE_CHANNELS`` maps
``(path, method)`` to a side-channel handler, looked up once where the
request line is parsed.  ``ReferenceTarget._ROUTES`` maps an API path,
with the project id written ``{id}``, to its route block and its
``{method: handler}`` table.  A request is rejected early by recording
its block and raising ``_Reply``, whose response becomes the answer.

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
import selectors
import socket
import threading
import traceback
from http import HTTPStatus

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


class BlockRegistry:
    """Declared basic blocks and the hit set since the last reset, as an
    int whose bit ``i`` is block ``i``."""

    def __init__(self):
        self.block_ids: list[str] = []
        self._bit: dict[str, int] = {}
        self._hits = 0

    def declare(self, block_id: str) -> str:
        if block_id in self._bit:
            raise ValueError("block %r declared twice" % block_id)
        self._bit[block_id] = 1 << len(self.block_ids)
        self.block_ids.append(block_id)
        return block_id

    def hit(self, block_id: str) -> None:
        self._hits |= self._bit[block_id]

    def reset(self) -> None:
        self._hits = 0

    def bitmap_hex(self) -> str:
        """Bit ``i`` in byte ``i // 8``, at ``1 << (i % 8)``."""
        return self._hits.to_bytes((len(self.block_ids) + 7) // 8, "little").hex()

    @property
    def block_count(self) -> int:
        return len(self.block_ids)


class _Response:
    def __init__(self, status, payload, close=False):
        self.status = status
        self.payload = payload
        self.close = close
        self.window = None  # "<block_count>:<hex>", sent as X-Coverage-Window

    def wire(self) -> bytes:
        payload = json.dumps(self.payload).encode("utf-8")
        head = (
            "HTTP/1.1 %d %s\r\n" % (self.status, _REASONS[self.status])
            + "Content-Type: application/json\r\n"
            + "Content-Length: %d\r\n" % len(payload)
            + ("Connection: close\r\n" if self.close else "")
            + ("X-Coverage-Window: %s\r\n" % self.window if self.window else "")
            + "\r\n"
        )
        return head.encode("latin-1") + payload


_REASONS = {status.value: status.phrase for status in HTTPStatus}


class _Reply(Exception):
    """Raised to answer a request early with ``{"message": message}``;
    the raiser has recorded the request's last block."""

    def __init__(self, status, message, close=False):
        self.response = _Response(status, {"message": message}, close)


class ReferenceTarget:
    """Socket server around the instrumented API, run by one thread that
    owns every connection through a ``selectors`` loop.  It appends what a
    connection sends to that connection's buffer and answers each complete
    request there in order: it records the request's blocks, answers its
    side channel or routes it through ``_ROUTES`` and attaches the coverage
    window it closes, so requests apply one at a time.  An idle
    kept-alive connection stays open until its client or ``stop`` closes
    it; ``stop`` ends the thread, which closes every socket it owns."""

    def __init__(self, host="127.0.0.1", port=0, token=DEFAULT_TOKEN):
        self.host = host
        self.port = port
        self.token = token
        self.registry = BlockRegistry()
        self._declare_blocks()
        self._reset_state()
        self._sock = None
        self._thread = None
        self._stopping = False
        self._conns: dict[socket.socket, bytes] = {}  # open -> bytes not yet parsed

    # -- lifecycle --------------------------------------------------------

    def start(self) -> "ReferenceTarget":
        self._sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._sock.bind((self.host, self.port))
        self._sock.listen(16)
        self._sock.setblocking(False)
        self.port = self._sock.getsockname()[1]
        self._thread = threading.Thread(target=self._serve, daemon=True)
        self._thread.start()
        return self

    def stop(self) -> None:
        self._stopping = True
        try:
            # wake the serving thread's select() with a throwaway connection
            poke = socket.create_connection((self.host, self.port), timeout=1)
            poke.close()
        except OSError:
            pass
        if self._thread is not None:
            self._thread.join(timeout=5)

    @property
    def base_url(self) -> str:
        return "http://%s:%d" % (self.host, self.port)

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

    def _serve(self):
        sel = selectors.DefaultSelector()
        sel.register(self._sock, selectors.EVENT_READ)
        try:
            while not self._stopping:
                for key, _events in sel.select():
                    if key.fileobj is not self._sock:
                        self._receive(sel, key.fileobj)
                        continue
                    try:
                        conn, _addr = self._sock.accept()
                    except OSError:  # the client gave up before it was accepted
                        continue
                    conn.settimeout(2.0)  # bounds a send to a client that stops reading
                    sel.register(conn, selectors.EVENT_READ)
                    self._conns[conn] = b""
        finally:
            for conn in self._conns:
                conn.close()
            self._conns.clear()
            sel.close()
            self._sock.close()

    def _receive(self, sel, conn):
        """Read what ``conn`` sent and answer the requests it completed; close
        it at its end, after a ``Connection: close`` answer or on an error."""
        try:
            chunk = conn.recv(65536)
        except OSError:
            chunk = b""  # as at the end of the stream
        try:
            out, rest = self._answer_all(self._conns[conn] + chunk, not chunk)
            if out:
                conn.sendall(out)
        except OSError:  # the client went away or stopped reading
            rest = None
        except Exception:  # a fault serving one connection closes only it
            traceback.print_exc()
            rest = None
        if rest is None:
            sel.unregister(conn)
            del self._conns[conn]
            conn.close()
        else:
            self._conns[conn] = rest

    def _answer_all(self, buf: bytes, eof: bool):
        """Answer the complete requests at the front of a connection's
        buffer, in order: ``(responses' bytes, rest)``, rest being None once
        the connection is to close.  At ``eof`` (the client sends no more) a
        head without its blank line goes unanswered; a short body gets a 400."""
        out = []
        while (answered := self._answer_one(buf, eof)) is not None:
            response, buf = answered
            out.append(response.wire())
            if response.close:
                return b"".join(out), None
        return b"".join(out), None if eof else buf

    def _answer_one(self, buf: bytes, eof: bool):
        """Answer the first request in ``buf``: ``(response, rest)``, or
        None while its head or body is still arriving."""
        split = _read_head(buf)
        if split is None:
            return None
        # a request's blocks are recorded once, when it is complete, so one
        # read in pieces lands whole in the window that answers it
        hits: list[str] = []
        try:
            read = self._read_request(*split, eof, hits.append)
            if read is None:
                return None
            side_channel, request, rest = read
        except _Reply as reply:
            side_channel, request, rest, resp = None, None, b"", reply.response
        for block in hits:
            self.registry.hit(block)
        if side_channel is not None:
            return side_channel(self), rest
        if request is not None:
            try:
                resp = self._route(*request)
            except _Reply as reply:
                resp = reply.response
            except FaultInjected as exc:
                resp = _Response(500, {"message": "internal server error: %s" % exc})
            except Exception as exc:  # unplanned crash: still a 500, visible in tests
                resp = _Response(500, {"message": "unexpected error: %r" % exc})
        if hits:  # empty only for a side channel, which records no blocks
            resp.window = "%d:%s" % (self.registry.block_count, self.registry.bitmap_hex())
            self.registry.reset()
        return resp, rest

    def _read_request(self, head: bytes, rest: bytes, eof: bool, hit):
        """Parse the head and take the body from ``rest``.  Returns
        ``(side_channel, request, rest)``: the handler of a side channel,
        or None, and request = (method, path, headers, body) with the query
        cut from the path; or None while the body is still arriving.  A
        malformed request, or a short body at ``eof``, raises ``_Reply``
        with ``Connection: close``."""
        text = head.decode("latin-1")
        lines = text.split("\r\n") if "\r\n" in text else text.split("\n")
        parts = lines[0].split(" ")
        if len(parts) < 2 or not parts[0]:
            hit("http.request_received")
            hit("http.request_line_bad")
            raise _Reply(400, "malformed request line", close=True)
        method = parts[0]
        path = parts[1].split("?", 1)[0]
        side_channel = self._SIDE_CHANNELS.get((path, method))
        if side_channel is not None:
            # introspection traffic must leave the bitmap untouched,
            # including the front-door blocks below
            hit = lambda _block: None  # noqa: E731
        hit("http.request_received")
        headers: dict[str, str] = {}
        for ln in lines[1:]:
            if not ln:
                continue
            if ":" not in ln:
                hit("http.header_bad")
                raise _Reply(400, "malformed header", close=True)
            key, _, val = ln.partition(":")
            headers[key.strip().lower()] = val.strip()
        hit("http.request_line_ok")
        try:
            length = int(headers.get("content-length", "0"))
        except ValueError:
            length = -1
        if length < 0 or length > MAX_BODY:
            hit("http.header_bad")
            raise _Reply(400, "bad content-length", close=True)
        if len(rest) < length:
            if not eof:
                return None
            raise _Reply(400, "short body", close=True)
        hit("http.body_read")
        return side_channel, (method, path, headers, rest[:length]), rest[length:]

    # -- side channels: no auth, never touch the bitmap --------------------

    def _peek_coverage(self) -> _Response:
        """``GET /__coverage__``: the blocks recorded since the last clear.
        No client code reads it; tests use it to show that the bitmap is
        empty between requests."""
        window = {"bitmap": self.registry.bitmap_hex(), "block_count": self.registry.block_count}
        return _Response(200, window)

    def _reset_coverage(self) -> _Response:
        resp = self._peek_coverage()
        self.registry.reset()
        return resp

    def _manifest(self) -> _Response:
        return _Response(200, {"blocks": self.registry.block_ids})

    def _reset_api_state(self) -> _Response:
        self._reset_state()
        return _Response(200, {"ok": True})

    # -- routing -----------------------------------------------------------

    def _route(self, method, path, headers, body) -> _Response:
        hit = self.registry.hit
        if headers.get("private-token") != self.token:
            hit("router.auth_bad")
            raise _Reply(401, "401 Unauthorized")
        hit("router.auth_ok")
        segments = [s for s in path.split("/") if s != ""]
        key = "/".join(segments[:2] + ["{id}"] * (len(segments) > 2) + segments[3:])
        repository = len(segments) == 5 and key.startswith("api/projects/{id}/repository/")
        if repository:
            hit("router.repository_family")
        route = self._ROUTES.get(key)
        if route is None and repository:
            # Unknown subresource: an action-suffix splitter runs here
            # ("<name>|<action>" is a legacy call form).
            hit("router.subresource_parse")
            if segments[4].startswith("|"):
                # Injected bug B2: an empty name before '|' bypasses the
                # default entry and indexes the handler table with "".
                hit("router.subresource_split_fault")
                raise FaultInjected("no handler for empty subresource in %r" % segments[4])
            hit("router.subresource_unknown")
            raise _Reply(404, "404 Not Found")
        if route is None:
            hit("router.no_route")
            raise _Reply(404, "404 Not Found")
        block, handlers = route
        hit(block)
        handler = handlers.get(method)
        if handler is not None:
            hit("router.method_known")
            return handler(self, segments[2] if len(segments) > 2 else None, body)
        if block == "router.commits_route" and method not in KNOWN_METHODS:
            # Injected bug B3: the commits route consults a secondary
            # method table that has no default entry.
            hit("router.commits_method_fault")
            raise FaultInjected("unhandled method %r in commits dispatch" % method)
        hit("router.method_not_allowed")
        raise _Reply(405, "405 Method Not Allowed")

    # -- validation: each records its block and raises _Reply on a miss ----

    def _json_object(self, body: bytes, bad_block: str) -> dict:
        """Parse the body leniently: raw bytes are mapped through latin-1
        first so invalid UTF-8 still reaches the field validators."""
        try:
            data = json.loads(body.decode("latin-1"))
        except (ValueError, RecursionError):  # a huge int literal, deep nesting
            data = None
        if not isinstance(data, dict):
            self.registry.hit(bad_block)
            raise _Reply(400, "invalid json")
        return data

    def _required(self, data: dict, key: str, missing_block: str) -> str:
        value = data.get(key)
        if not isinstance(value, str) or value == "" or value == "nil":
            self.registry.hit(missing_block)
            raise _Reply(400, "%s is required" % key)
        return value

    def _text_field(self, data: dict, key: str, block_prefix: str) -> str:
        """A required valid-UTF-8 text field; hits ``<block_prefix>_missing``,
        ``_not_utf8`` or ``_ok``."""
        value = self._required(data, key, block_prefix + "_missing")
        if not _utf8_ok(value):
            self.registry.hit(block_prefix + "_not_utf8")
            raise _Reply(400, "%s must be valid UTF-8" % key)
        self.registry.hit(block_prefix + "_ok")
        return value

    def _project(self, id_text: str, missing_block: str) -> dict:
        try:
            project = self.projects.get(int(id_text))
        except ValueError:
            project = None
        if project is None:
            self.registry.hit(missing_block)
            raise _Reply(404, "404 Project Not Found")
        return project

    # -- handlers: (self, project id text or None, body) -> _Response --------

    def _create_project(self, _id_text, body) -> _Response:
        hit = self.registry.hit
        hit("projects.create_parse")
        data = self._json_object(body, "projects.create_bad_json")
        name = self._text_field(data, "name", "projects.create_name")
        pid = self._next_project_id
        self._next_project_id += 1
        self.projects[pid] = {"name": name, "branches": {"master": {"files": set()}}}
        hit("projects.created")
        return _Response(201, {"id": pid, "name": name})

    def _list_projects(self, _id_text, _body) -> _Response:
        self.registry.hit("projects.list_ok")
        return _Response(200, {"projects": [{"id": pid} for pid in sorted(self.projects)]})

    def _get_project(self, id_text, _body) -> _Response:
        project = self._project(id_text, "projects.item_missing")
        self.registry.hit("projects.item_found")
        self.registry.hit("projects.item_ok")
        return _Response(200, {"id": int(id_text), "name": project["name"]})

    def _create_branch(self, id_text, body) -> _Response:
        hit = self.registry.hit
        hit("branches.parse")
        data = self._json_object(body, "branches.bad_json")
        project = self._project(id_text, "branches.project_missing")
        hit("branches.project_ok")
        name = self._text_field(data, "branch", "branches.name")
        self._text_field(data, "ref", "branches.ref")
        if name in project["branches"]:
            hit("branches.duplicate")
            raise _Reply(400, "branch already exists")
        project["branches"][name] = {"files": set()}
        hit("branches.created")
        return _Response(201, {"branch": name, "commit": {"id": "c%06d" % self._next_commit}})

    def _list_branches(self, id_text, _body) -> _Response:
        project = self._project(id_text, "branches.list_project_missing")
        self.registry.hit("branches.list_ok")
        return _Response(200, {"branches": [{"name": b} for b in sorted(project["branches"])]})

    def _create_commit(self, id_text, body) -> _Response:
        hit = self.registry.hit
        hit("commits.parse")
        data = self._json_object(body, "commits.bad_json")
        project = self._project(id_text, "commits.project_missing")
        hit("commits.project_ok")
        branch_name = data.get("branch")
        branch = project["branches"].get(branch_name) if isinstance(branch_name, str) else None
        if branch is None:
            hit("commits.branch_missing")
            raise _Reply(404, "404 Branch Not Found")
        hit("commits.branch_ok")
        message = self._text_field(data, "commit_message", "commits.message")
        actions = data.get("actions")
        if not isinstance(actions, list) or not actions:
            hit("commits.action_unknown")
            raise _Reply(400, "actions are required")
        files = branch["files"]
        for action in actions:
            if not isinstance(action, dict):
                hit("commits.action_unknown")
                raise _Reply(400, "bad action entry")
            kind = action.get("action")
            if kind not in ("create", "delete", "move", "update", "chmod"):
                hit("commits.action_unknown")
                raise _Reply(400, "unknown action")
            hit("commits.action_known")
            file_path = self._required(action, "file_path", "commits.file_path_missing")
            hit("commits.file_path_present")
            if not _utf8_ok(file_path):
                # Injected bug B1: file_path is re-encoded for storage
                # without validation; invalid byte sequences blow up.
                hit("commits.file_path_decode_fault")
                raise FaultInjected("cannot decode file_path %r" % file_path)
            if kind == "create":
                hit("commits.act_create_ok")
                files.add(file_path)
            elif file_path not in files:
                hit("commits.act_%s_missing" % kind)
                raise _Reply(400, "file does not exist")
            elif kind == "delete":
                hit("commits.act_delete_ok")
                files.discard(file_path)
        cid = "c%06d" % self._next_commit
        self._next_commit += 1
        hit("commits.created")
        return _Response(201, {"id": cid, "message": message})

    def _list_commits(self, id_text, _body) -> _Response:
        self._project(id_text, "commits.list_project_missing")
        self.registry.hit("commits.list_ok")
        return _Response(200, {"commits": []})

    # -- tables ------------------------------------------------------------

    _SIDE_CHANNELS = {
        # GET peeks at the window since the last reset; POST also clears it
        ("/__coverage__", "GET"): _peek_coverage,
        ("/__coverage__/reset", "POST"): _reset_coverage,
        ("/__coverage__/manifest", "GET"): _manifest,
        ("/__reset__", "POST"): _reset_api_state,
    }
    _ROUTES = {
        "api/projects": (
            "router.projects_collection",
            {"POST": _create_project, "GET": _list_projects},
        ),
        "api/projects/{id}": ("router.project_item", {"GET": _get_project}),
        "api/projects/{id}/repository/branches": (
            "router.branches_route",
            {"POST": _create_branch, "GET": _list_branches},
        ),
        "api/projects/{id}/repository/commits": (
            "router.commits_route",
            {"POST": _create_commit, "GET": _list_commits},
        ),
    }


def _read_head(buf: bytes):
    """Split ``buf`` at its first blank line, CRLF or bare LF, which ends
    its header section: ``(head, rest)``, or None while it has none.  The
    body may hold either kind of blank line."""
    crlf = buf.find(b"\r\n\r\n")
    lf = buf.find(b"\n\n", 0, crlf if crlf >= 0 else None)
    if lf >= 0:
        return buf[:lf], buf[lf + 2 :]
    if crlf >= 0:
        return buf[:crlf], buf[crlf + 4 :]
    return None


def _utf8_ok(value: str) -> bool:
    try:
        value.encode("latin-1").decode("utf-8")
    except (UnicodeEncodeError, UnicodeDecodeError):
        return False
    return True


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
    try:
        print("reference target listening at %s (Ctrl-C to stop)" % server.base_url, flush=True)
        while True:
            time.sleep(3600)
    except KeyboardInterrupt:
        server.stop()

