"""A chat-completion endpoint on the loopback interface, for tests that
send requests through the real HTTP backend."""

import contextlib
import http.server
import json
import threading

# Scripted replies of the loopback chat endpoint besides (status, body,
# headers): no reply until the client has given up, or a reply that
# announces 100 body bytes, sends 11 and closes the connection.
STALL = "stall"
TRUNCATE = "truncate"


def chat_reply(text):
    """A chat-completion reply holding ``text``."""
    payload = {"choices": [{"message": {"role": "assistant", "content": text},
                            "finish_reason": "stop"}]}
    return 200, json.dumps(payload).encode(), {}


class _ChatHandler(http.server.BaseHTTPRequestHandler):
    def do_POST(self):
        body = self.rfile.read(int(self.headers["Content-Length"]))
        self._answer(json.loads(body))

    def do_GET(self):
        # A client that follows a redirect of its POST may ask again by GET.
        self._answer(None)

    def _answer(self, body):
        reply = self.server.take(self.headers, body)
        if reply == STALL:
            self.server.released.wait(0.5)
            return
        status, content, headers = (
            (200, b'{"choices":', {"Content-Length": "100"})
            if reply == TRUNCATE else reply
        )
        self.send_response(status)
        for name, value in {"Content-Length": str(len(content)), **headers}.items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(content)

    def log_message(self, format, *args):
        pass


class LoopbackChatServer(http.server.ThreadingHTTPServer):
    """A chat endpoint on 127.0.0.1 that answers each request with the
    next reply of its script, the last one repeated once the script runs
    out, and records each request's headers and decoded JSON body (None
    for a GET).

    Closing it waits for every handler thread, and a stalled handler
    returns as soon as the server is closed."""

    daemon_threads = False

    def __init__(self):
        super().__init__(("127.0.0.1", 0), _ChatHandler)
        self.url = f"http://127.0.0.1:{self.server_address[1]}/v1/chat"
        self.released = threading.Event()
        self._lock = threading.Lock()
        self.script([chat_reply("")])

    def script(self, replies):
        with self._lock:
            self.replies = list(replies)
            self.requests = []

    def take(self, headers, body):
        with self._lock:
            self.requests.append((headers, body))
            return self.replies[min(len(self.requests), len(self.replies)) - 1]

    def close(self):
        self.released.set()
        self.shutdown()
        self.server_close()


@contextlib.contextmanager
def serving():
    """A running LoopbackChatServer, closed with its threads joined."""
    server = LoopbackChatServer()
    thread = threading.Thread(target=server.serve_forever, args=(0.01,))
    thread.start()
    try:
        yield server
    finally:
        server.close()
        thread.join(timeout=10)
        assert not thread.is_alive()
