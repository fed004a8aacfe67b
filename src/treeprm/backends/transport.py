"""Transport plumbing shared by the HTTP backends: response cache, and per
origin a rate limit and a connection pool.

The cache is content-addressed: each reply is stored under the `cache_key` of
the fields its request sends, as raw response bytes. A response is stored
only once the caller's reader accepts it, so a reply the caller cannot read is
asked for again rather than replayed. With a warm cache a pipeline run issues
zero network requests and reproduces the run that populated it byte for byte.
Identical concurrent requests are deduplicated in-flight so only one of them
hits the network. A question repeated within one problem never gets here: the
memo (`base.ProblemMemo`) of a search or of a problem's decode answers a
generator's or a verifier's, and a decode never asks its scorer one twice.

Replies live in append-only logs, one per cache instance, so storing one
creates no file: `FileResponseCache` gives the record framing and the rules
that make a log safe to read while its writer appends. The cache holds the
latest reply of every key of its directory in memory, so a hit is one dict
lookup: it makes no system call and so never releases the interpreter lock.
"""

from __future__ import annotations

import errno
import hashlib
import itertools
import os
import threading
import time
import weakref
from pathlib import Path
from typing import Callable, Iterable, TypeVar
from urllib.parse import urlsplit

from .base import BackendConfig

_T = TypeVar("_T")


def cache_key(fields: tuple) -> str:
    """sha256 of the `ascii` text of `fields`, which for strings, numbers and
    lists and dicts of these (in their order) is a function of the values."""
    return hashlib.sha256(ascii(fields).encode("ascii")).hexdigest()


_MISSING = object()
_APPEND_FLAGS = os.O_WRONLY | os.O_APPEND | os.O_CREAT
# Indexing reads a log this many bytes at a time; a body that runs past a
# read gets a read of its own.
_SCAN_CHUNK = 64 * 1024
_log_serial = itertools.count()


class FileResponseCache:
    """On-disk response store keyed by content hash, with in-flight dedup.

    Each instance appends the replies it stores to its own log,
    `<cache_dir>/<start ns>-<pid>-<serial>.log`, created at its first `put`.
    A record is the header `"<key> <length>\\n"` and then the raw reply, and
    goes out in one `write` of an `O_APPEND` descriptor. Since only its
    instance writes a log, records never interleave. A write that fails or
    comes back short is cut back off the log, so nothing is ever written after
    a torn record. At construction the instance reads every complete record
    of every other log, in name order (the order their commands started), and
    a later record of a key replaces an earlier one. An incomplete last record
    (one still being written, or one cut short by a crash) is skipped, and
    read once it is whole. A miss inside the in-flight slot reads what other
    logs gained since, which is how a reply another process stored is found.

    The index holds the latest reply of each key, so a hit is one dict lookup:
    it makes no system call and keeps answering after its log is removed or
    cut short. A reply enters the index only once its whole record is read,
    since hits take no lock. No descriptor stays open.
    """

    def __init__(self, cache_dir: str | Path):
        self.cache_dir = Path(cache_dir)
        self.cache_dir.mkdir(parents=True, exist_ok=True)
        self._prefix = os.path.join(self.cache_dir, "")
        self._master = threading.Lock()
        self._inflight: dict[str, _Slot] = {}
        # Guards the own log's appends and the indexing of the others.
        self._log_lock = threading.Lock()
        self._index: dict[str, bytes] = {}
        self._indexed: dict[str, int] = {}  # other log -> the bytes of its whole records read
        self._open_log()
        self._refresh()

    def _open_log(self) -> None:
        """Name a new own log after the clock, so that it sorts after the logs
        of the instances made before it."""
        self._log = f"{self._prefix}{time.time_ns()}-{os.getpid()}-{next(_log_serial)}.log"

    def get(self, key: str) -> bytes | None:
        """The indexed reply of `key`, or None."""
        return self._index.get(key)

    def put(self, key: str, data: bytes) -> None:
        """Append one record to this instance's log and index it. A failed or
        short write leaves the log as it was and raises."""
        record = b"%s %d\n" % (key.encode(), len(data)) + data
        with self._log_lock:
            fd = os.open(self._log, _APPEND_FLAGS, 0o666)
            try:
                start = os.fstat(fd).st_size
                try:
                    written = os.write(fd, record)
                    if written != len(record):
                        raise OSError(errno.EIO, f"wrote {written} of {len(record)} bytes",
                                      self._log)
                except BaseException:
                    try:
                        os.ftruncate(fd, start)
                    except OSError:  # the torn record stays: append nothing after it
                        self._open_log()
                    raise
            finally:
                os.close(fd)
            self._index[key] = data

    def _refresh(self) -> None:
        """Index the records that other logs gained since the last call."""
        with self._log_lock:
            for name in sorted(n for n in os.listdir(self.cache_dir) if n.endswith(".log")):
                path = self._prefix + name
                if path == self._log:
                    continue
                try:
                    size = os.stat(path).st_size
                except FileNotFoundError:
                    continue
                pos = self._indexed.get(path, 0)
                if size > pos:
                    self._indexed[path] = self._scan(path, pos, size)

    def _scan(self, path: str, pos: int, size: int) -> int:
        """Index the complete records of log `path` from byte `pos` up to
        `size`, and return where the first incomplete one starts."""
        try:
            fd = os.open(path, os.O_RDONLY)
        except FileNotFoundError:
            return pos
        try:
            while pos < size:
                data = os.pread(fd, min(_SCAN_CHUNK, size - pos), pos)
                at = 0
                while (newline := data.find(b"\n", at)) >= 0:
                    key, _, digits = data[at:newline].rpartition(b" ")
                    if not digits.isdigit():  # not a record of this format
                        return pos + at
                    length = int(digits)
                    body = newline + 1
                    end = body + length
                    if end <= len(data):
                        reply = data[body:end]
                    elif pos + end > size:
                        return pos + at
                    else:
                        reply = os.pread(fd, length, pos + body)
                        if len(reply) < length:  # the log was cut since its stat
                            return pos + at
                    self._index[key.decode(errors="replace")] = reply
                    at = end
                if at == 0:  # a torn header
                    return pos
                pos += at
            return pos
        finally:
            os.close(fd)

    def get_or_fetch(
        self, key: str, fetch: Callable[[], bytes],
        read: Callable[[bytes], _T] = lambda data: data,
    ) -> _T:
        """`read` of the cached response, fetching it at most once per key even
        under concurrent identical requests: the threads that wait on a
        key's fetch take the value its `read` returned. A fetched response is
        stored only after `read` returns; an error from `read` leaves the key
        uncached, and a waiter then tries again."""
        while True:
            # An indexed reply is looked up before taking the in-flight slot,
            # which saves an event and two lock round trips per key; a cold
            # key looks at the other logs again inside the slot.
            data = self.get(key)
            if data is not None:
                return read(data)
            with self._master:
                slot = self._inflight.get(key)
                if slot is None:
                    slot = self._inflight[key] = _Slot()
                    break
            slot.wait()
            if slot.value is not _MISSING:
                return slot.value
        try:
            self._refresh()
            data = self.get(key)
            if data is not None:
                value = read(data)
            else:
                data = fetch()
                value = read(data)
                self.put(key, data)
            slot.value = value
            return value
        finally:
            with self._master:
                del self._inflight[key]
            slot.set()


class _Slot(threading.Event):
    """A cold key's fetch in flight: set once done, with the value it gave."""

    value = _MISSING


class RateLimiter:
    """Min-interval limiter: at most rate_per_sec calls per second, so any
    10-second window sees at most 10 * rate_per_sec requests. Clock and sleep
    are injectable for tests."""

    def __init__(
        self,
        rate_per_sec: float,
        time_fn: Callable[[], float] = time.monotonic,
        sleep_fn: Callable[[float], None] = time.sleep,
    ):
        if rate_per_sec <= 0:
            raise ValueError("rate_per_sec must be > 0")
        self._interval = 1.0 / rate_per_sec
        self._time = time_fn
        self._sleep = sleep_fn
        self._lock = threading.Lock()
        self._next_slot = 0.0

    def acquire(self) -> None:
        with self._lock:
            now = self._time()
            slot = max(now, self._next_slot)
            self._next_slot = slot + self._interval
        wait = slot - now
        if wait > 0:
            self._sleep(wait)


# How many new connections an origin whose server ends its connections may
# have waiting for their first reply at once: the listen backlog of 5 that
# Python's `http.server` keeps holds 6 connects on Linux (README
# **Connections**).
_CLOSING_BURST = 6


class Origin(RateLimiter):
    """One origin (scheme, host and port): the limiter that spaces the
    requests of every endpoint on it, and its pool of idle keep-alive
    connections, which every endpoint and thread that sends to it shares.

    An exchange `take`s the idle connection that came back last, and hands it
    to `put` once the whole reply is read, or to `drop`, which closes it, on
    an error. When no connection is idle, `take` opens a new one, but only
    while few enough new connections wait for their first reply, which shows
    that the server accepted them: a server with a short listen backlog drops
    the connects beyond it, and each dropped one waits about 1 s for a SYN
    retransmit.
    While the server keeps connections alive, that is one: connections ramp up
    one round trip at a time. While it ends them, as a server does that
    closes each connection after its reply or after its keep-alive timeout,
    each exchange needs a connect, and _CLOSING_BURST of them may wait at
    once. Which of the two holds is what the last new connection's first
    reply, or the last idle connection found closed (`stale`), showed.

    A connection is any object with an `open` flag and a `close` method.
    `close` closes the idle connections, as does collecting the origin.
    """

    def __init__(
        self,
        rate_per_sec: float,
        time_fn: Callable[[], float] = time.monotonic,
        sleep_fn: Callable[[float], None] = time.sleep,
    ):
        super().__init__(rate_per_sec, time_fn, sleep_fn)
        self._ready = threading.Condition(threading.Lock())
        self._idle: list = []
        self._unanswered = 0  # new connections before their first reply
        self._closes = False  # the server ends its connections
        weakref.finalize(self, _close_all, self._idle)

    def take(self, connect: Callable[[], _T]) -> tuple[_T, bool]:
        """The idle connection that came back last, or else a new one from
        `connect()` once the origin lets it in; and whether it is new. Waits
        while neither holds."""
        with self._ready:
            while not self._idle and self._unanswered >= (
                    _CLOSING_BURST if self._closes else 1):
                self._ready.wait()
            if self._idle:
                return self._idle.pop(), False
            self._unanswered += 1
        try:
            return connect(), True
        except BaseException:
            with self._ready:
                self._answered(self._closes)
            raise

    def put(self, connection, new: bool) -> None:
        """End an exchange on `connection` whose whole reply was read: keep
        it idle while it is open."""
        with self._ready:
            if connection.open:
                self._idle.append(connection)
                self._ready.notify()
            if new:
                self._answered(not connection.open)

    def drop(self, connection, new: bool, stale: bool = False) -> None:
        """End a failed exchange on `connection`: close it. A `stale` one
        is an idle connection that the server had closed."""
        connection.close()
        with self._ready:
            if new:
                self._answered(self._closes)
            elif stale and not self._closes:
                self._closes = True
                self._ready.notify_all()

    def _answered(self, closes: bool) -> None:
        """A new connection's first exchange ended; `closes` says whether
        the server ends its connections."""
        self._unanswered -= 1
        self._closes = closes
        self._ready.notify_all()

    def close(self) -> None:
        """Close the idle connections; one in an exchange now stays open."""
        with self._ready:
            _close_all(self._idle)


def _close_all(connections: list) -> None:
    while connections:
        connections.pop().close()


def origin(url: str) -> str:
    """scheme://host:port of `url`, with the scheme's default port filled in."""
    parts = urlsplit(url)
    port = parts.port or (443 if parts.scheme == "https" else 80)
    return f"{parts.scheme}://{parts.hostname}:{port}"


def host_origins(
    endpoints: Iterable[BackendConfig],
    time_fn: Callable[[], float] = time.monotonic,
    sleep_fn: Callable[[float], None] = time.sleep,
) -> dict[str, Origin]:
    """One `Origin` per origin of `endpoints`, limited to the lowest
    `rate_limit_rps` that any endpoint on that origin sets."""
    rates: dict[str, float] = {}
    for cfg in endpoints:
        key = origin(cfg.endpoint_url)
        rates[key] = min(rates.get(key, cfg.rate_limit_rps), cfg.rate_limit_rps)
    return {key: Origin(rate, time_fn=time_fn, sleep_fn=sleep_fn)
            for key, rate in rates.items()}
