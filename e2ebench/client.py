"""The load generator: one process, at most ``nproc`` keep-alive links.

Two phases drive the same server:

* :func:`open_loop` sends each request at its seeded Poisson due time,
  whether or not earlier ones finished, and times it from *due* to its
  fully read response -- a stall therefore also charges the requests
  that queued behind it in the client;
* :func:`closed_loop` keeps every connection busy back to back, which
  measures saturation throughput.

Both interleave one ``GET /v1/metrics?format=prometheus`` per second,
as an operator's scraper would.  Every exchange becomes a
:class:`Exchange` with its timestamps on ``time.perf_counter`` -- the
system-wide monotonic clock, so client and server spans line up.
"""

import http.client
import json
import threading
import time

SCRAPE_PATH = "/v1/metrics?format=prometheus"
JOB_WAIT_S = 20


class Exchange:
    """One request/response with its client-side timestamps."""

    __slots__ = ("scrape", "due", "popped", "sent", "done", "status",
                 "body", "error")

    def __init__(self, scrape):
        self.scrape = scrape
        self.due = self.popped = self.sent = self.done = None
        self.status = None
        self.body = b""
        self.error = None

    @property
    def latency(self):
        """Due (or send) time to fully read response, in seconds."""
        start = self.due if self.due is not None else self.sent
        return self.done - start

    @property
    def lag(self):
        """How late the client sent, once a connection was free."""
        if self.due is None:
            return 0.0
        return self.sent - max(self.due, self.popped)

    @property
    def conn_wait(self):
        """Time a due request waited for a free connection."""
        if self.due is None:
            return 0.0
        return max(0.0, self.popped - self.due)

    def document(self):
        return json.loads(self.body) if self.body else None


def encode_job(request):
    return json.dumps({"kind": request["kind"],
                       "params": request["params"],
                       "tenant": request["tenant"],
                       "wait": JOB_WAIT_S}).encode()


class _Link:
    """One keep-alive connection, reopened after a transport error."""

    def __init__(self, port):
        self.port = port
        self.conn = None

    def exchange(self, item, body):
        if self.conn is None:
            self.conn = http.client.HTTPConnection("127.0.0.1", self.port,
                                                   timeout=JOB_WAIT_S + 10)
        item.sent = time.perf_counter()
        try:
            if item.scrape:
                self.conn.request("GET", SCRAPE_PATH)
            else:
                self.conn.request("POST", "/v1/jobs", body,
                                  {"Content-Type": "application/json"})
            response = self.conn.getresponse()
            item.body = response.read()
            item.status = response.status
        except (OSError, http.client.HTTPException) as error:
            item.error = "%s: %s" % (type(error).__name__, error)
            self.conn.close()
            self.conn = None
        item.done = time.perf_counter()

    def close(self):
        if self.conn is not None:
            self.conn.close()


def _run_threads(port, connections, worker):
    links = [_Link(port) for _ in range(connections)]
    threads = [threading.Thread(target=worker, args=(link,), daemon=True)
               for link in links]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    for link in links:
        link.close()


def open_loop(port, schedule, connections):
    """Send ``schedule`` = [(due_s, body or None for a scrape)] on time.

    Returns the exchanges in schedule order and the phase wall time.
    """
    items = [Exchange(body is None) for _, body in schedule]
    lock = threading.Lock()
    cursor = [0]
    start = time.perf_counter() + 0.05
    for item, (due, _) in zip(items, schedule):
        item.due = start + due

    def worker(link):
        while True:
            with lock:
                i = cursor[0]
                if i >= len(items):
                    return
                cursor[0] += 1
            item = items[i]
            item.popped = time.perf_counter()
            delay = item.due - item.popped
            if delay > 0:
                time.sleep(delay)
            link.exchange(item, schedule[i][1])

    _run_threads(port, connections, worker)
    return items, max(item.done for item in items) - start


def closed_loop(port, bodies, connections, scrape_every=1.0):
    """Send ``bodies`` back to back over ``connections`` links.

    Returns (job exchanges in order, scrape exchanges, wall seconds).
    """
    items = [Exchange(False) for _ in bodies]
    scrapes = []
    lock = threading.Lock()
    cursor = [0]
    start = time.perf_counter()
    next_scrape = [start + scrape_every / 2]

    def worker(link):
        while True:
            scrape = None
            with lock:
                now = time.perf_counter()
                if now >= next_scrape[0]:
                    next_scrape[0] += scrape_every
                    scrape = Exchange(True)
                    scrapes.append(scrape)
                    i = None
                else:
                    i = cursor[0]
                    if i >= len(items):
                        return
                    cursor[0] += 1
            if scrape is not None:
                link.exchange(scrape, None)
                continue
            link.exchange(items[i], bodies[i])

    _run_threads(port, connections, worker)
    return items, scrapes, time.perf_counter() - start


def get_json(port, path):
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
    try:
        conn.request("GET", path)
        response = conn.getresponse()
        return json.loads(response.read())
    finally:
        conn.close()
