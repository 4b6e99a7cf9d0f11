"""The shared transport: error hierarchy, retry policy, both dialects."""

import json

import pytest

from repro.fabric.transport import (
    ApiError,
    HttpTransport,
    InProcessTransport,
    ServiceError,
    TransportError,
    serve_app_in_thread,
)


class EchoApp:
    """Counts requests; scripted status codes per path."""

    def __init__(self):
        self.calls = []

    def handle(self, method, path, headers=None, body=None):
        self.calls.append((method, path))
        if path == "/boom":
            payload = {"error": {"code": "kaput", "message": "no such"}}
            return 404, "application/json", json.dumps(payload).encode()
        if path == "/flaky":
            payload = {"error": {"code": "internal", "message": "oops"}}
            return 500, "application/json", json.dumps(payload).encode()
        doc = {"method": method, "path": path,
               "auth": (headers or {}).get("Authorization"),
               "body": (body or b"").decode() or None}
        return 200, "application/json", json.dumps(doc).encode()


def test_error_hierarchy_is_typed_and_unified():
    assert issubclass(ApiError, ServiceError)
    assert issubclass(TransportError, ServiceError)
    assert issubclass(ServiceError, RuntimeError)
    err = ApiError(404, "unknown_job", "no job j123")
    assert (err.status, err.code) == (404, "unknown_job")
    assert str(err) == "[404 unknown_job] no job j123"


def test_in_process_round_trip_with_token():
    app = EchoApp()
    transport = InProcessTransport(app, token="sekrit")
    doc = transport.json("POST", "/v1/thing", {"a": 1})
    assert doc["method"] == "POST"
    assert doc["auth"] == "Bearer sekrit"
    assert json.loads(doc["body"]) == {"a": 1}


def test_in_process_non_2xx_raises_api_error():
    transport = InProcessTransport(EchoApp())
    with pytest.raises(ApiError) as err:
        transport.json("GET", "/boom")
    assert err.value.status == 404 and err.value.code == "kaput"


def test_http_round_trip_over_real_socket():
    app = EchoApp()
    server, thread, url = serve_app_in_thread(app.handle)
    try:
        transport = HttpTransport(url, token="t0", timeout_s=5.0)
        doc = transport.json("GET", "/v1/ping")
        assert doc["path"] == "/v1/ping" and doc["auth"] == "Bearer t0"
    finally:
        server.shutdown()
        server.server_close()


def test_http_response_is_never_retried():
    """Retry policy: any HTTP *response* (even 5xx) is final; only
    requests that produced no response at all are retried."""
    app = EchoApp()
    server, thread, url = serve_app_in_thread(app.handle)
    try:
        transport = HttpTransport(url, retries=3, backoff_s=0.0)
        with pytest.raises(ApiError) as err:
            transport.json("GET", "/flaky")
        assert err.value.status == 500
        assert app.calls.count(("GET", "/flaky")) == 1
    finally:
        server.shutdown()
        server.server_close()


def test_connection_retry_is_limited_to_idempotent_requests():
    """A dropped connection cannot prove the server didn't execute the
    request, so only GETs (and POSTs explicitly marked replay-safe,
    like the fabric protocol routes) are retried."""
    import socket
    import threading

    listener = socket.socket()
    listener.bind(("127.0.0.1", 0))
    listener.listen(16)
    accepted = []

    def drop_loop():
        while True:
            try:
                conn, _ = listener.accept()
            except OSError:
                return
            accepted.append(1)
            conn.close()  # accepted, then dropped before any response

    thread = threading.Thread(target=drop_loop, daemon=True)
    thread.start()
    url = f"http://127.0.0.1:{listener.getsockname()[1]}"
    transport = HttpTransport(url, retries=2, backoff_s=0.0, timeout_s=2.0)
    try:
        with pytest.raises(TransportError):
            transport.json("POST", "/v1/jobs", {"experiment": "E1"})
        post_attempts = len(accepted)
        with pytest.raises(TransportError):
            transport.json("GET", "/v1/jobs")
        get_attempts = len(accepted) - post_attempts
        with pytest.raises(TransportError):
            transport.json("POST", "/v1/fabric/heartbeat",
                           {"worker": "w0", "id": "0:0"}, idempotent=True)
        marked_attempts = len(accepted) - post_attempts - get_attempts
    finally:
        listener.close()
    assert post_attempts == 1      # non-idempotent: never replayed
    assert get_attempts == 3       # GET: retries + 1
    assert marked_attempts == 3    # replay-safe POST: retries + 1


def test_connection_failure_raises_transport_error():
    # Bind-then-close guarantees nothing listens on the port.
    server, thread, url = serve_app_in_thread(EchoApp().handle)
    server.shutdown()
    server.server_close()
    transport = HttpTransport(url, retries=1, backoff_s=0.0, timeout_s=0.5)
    with pytest.raises(TransportError):
        transport.json("GET", "/v1/ping")


def test_service_error_catches_both():
    transport = InProcessTransport(EchoApp())
    with pytest.raises(ServiceError):
        transport.json("GET", "/boom")


def test_client_hanging_up_on_a_held_request_leaves_no_traceback(capfd):
    """A client that disconnects while the app holds its request open
    (a worker killed during a long-polled lease request) costs the
    server a closed connection, not a traceback, and the next request
    is answered."""
    import socket
    import struct
    import threading
    import time

    release = threading.Event()
    held = []

    class HoldingApp(EchoApp):
        def handle(self, method, path, headers=None, body=None):
            if path == "/hold":
                held.append(threading.current_thread())
                release.wait(10)
            return super().handle(method, path, headers, body)

    server, thread, url = serve_app_in_thread(HoldingApp().handle)
    try:
        client = socket.create_connection(server.server_address[:2],
                                          timeout=5)
        client.sendall(b"GET /hold HTTP/1.1\r\nHost: test\r\n\r\n")
        deadline = time.monotonic() + 5
        while not held and time.monotonic() < deadline:
            time.sleep(0.01)
        assert held, "the app never saw the held request"
        # Linger 0: close() resets the connection at once, so the
        # server's reply meets a socket the client has given up.
        client.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER,
                          struct.pack("ii", 1, 0))
        client.close()
        time.sleep(0.1)
        release.set()
        held[0].join(5)
        assert not held[0].is_alive()
        doc = HttpTransport(url, timeout_s=5.0).json("GET", "/v1/ping")
        assert doc["path"] == "/v1/ping"
    finally:
        release.set()
        server.shutdown()
        server.server_close()
    err = capfd.readouterr().err
    assert "Traceback" not in err
    assert "Exception occurred" not in err
