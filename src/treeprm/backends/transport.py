"""Transport plumbing shared by the HTTP backends: response cache, rate limit.

The cache is content-addressed: one file per `cache_key` of the fields a
request sends, holding the raw response bytes. A response is stored only once
the caller's reader accepts it, so a reply the caller cannot read is asked for
again rather than replayed. With a warm cache a pipeline run issues zero
network requests and reproduces the run that populated it byte for byte.
Identical concurrent requests are deduplicated in-flight so only one of them
hits the network.

A warm entry costs one `os.open`, one `os.read` per `_READ_CHUNK` and one
`os.close` on a string path; a miss is the `FileNotFoundError` of the open.
Each file call releases the interpreter lock, and the threads of a stage
hand it over at each one, so the read path makes no call it can do without:
no pathlib object, no read to find the end of an entry (a read of a regular
file comes back short only there), and no buffered file whose set-up adds
`fstat`, `isatty` and seek calls to every read.

Each cache instance also keeps in memory the value its reader returned for
every key it has answered, so a later request for that key reads no file
(`FileResponseCache` states the rule that makes this sound). A command builds
one instance (`cli._build_backends`), so the memo lives for one command and is
never shared across processes; README **Caching** gives its size. A run
without `paths.cache_dir` has no cache and so no memo.
"""

from __future__ import annotations

import contextlib
import hashlib
import os
import threading
import time
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
_BINARY = getattr(os, "O_BINARY", 0)
_READ_FLAGS = os.O_RDONLY | _BINARY
_WRITE_FLAGS = os.O_WRONLY | os.O_CREAT | os.O_TRUNC | _BINARY
# Most entries fit one read; a larger one takes one read per chunk.
_READ_CHUNK = 64 * 1024


class FileResponseCache:
    """On-disk response store keyed by content hash, with in-flight dedup and
    an in-process memo of what each key's reader returned.

    The memo rests on one rule: a key always names one reader, and that reader
    returns an immutable value (a `str` or a `float` today) that every later
    request for the key shares. The backends keep it by putting the reader's
    identity in the key: every key starts with its reader's `kind`, and the
    scorer's kind names its `mode`. The scorer's reader also takes a sample
    name, but only its errors use it, and an error is never memoized.
    """

    def __init__(self, cache_dir: str | Path):
        self.cache_dir = Path(cache_dir)
        self.cache_dir.mkdir(parents=True, exist_ok=True)
        self._prefix = os.path.join(self.cache_dir, "")
        self._master = threading.Lock()
        self._inflight: dict[str, threading.Event] = {}
        self._memo: dict[str, object] = {}

    def get(self, key: str) -> bytes | None:
        # No exists() probe and no buffered file: each extra file call is one
        # more interpreter-lock handover between the worker threads.
        try:
            fd = os.open(self._prefix + key + ".bin", _READ_FLAGS)
        except FileNotFoundError:
            return None
        try:
            chunks = []
            while chunk := os.read(fd, _READ_CHUNK):
                chunks.append(chunk)
                if len(chunk) < _READ_CHUNK:  # a regular file's end
                    break
        finally:
            os.close(fd)
        return b"".join(chunks)

    def put(self, key: str, data: bytes) -> None:
        """Publish atomically: each writer (process and thread) fills its own
        temp file, so concurrent writers never tear an entry."""
        tmp = f"{self._prefix}{key}.{os.getpid()}.{threading.get_ident()}.tmp"
        try:
            fd = os.open(tmp, _WRITE_FLAGS, 0o666)
            try:
                view = memoryview(data)
                while view:
                    view = view[os.write(fd, view):]
            finally:
                os.close(fd)
            os.replace(tmp, self._prefix + key + ".bin")
        except BaseException:
            with contextlib.suppress(FileNotFoundError):
                os.unlink(tmp)
            raise

    def get_or_fetch(
        self, key: str, fetch: Callable[[], bytes],
        read: Callable[[bytes], _T] = lambda data: data,
    ) -> _T:
        """`read` of the cached response, fetching it at most once per key even
        under concurrent identical requests. A fetched response is stored only
        after `read` returns; an error from `read` leaves the key uncached.
        What `read` returns is memoized, so a later call for the key on this
        instance costs one dict lookup."""
        memo = self._memo
        while True:
            value = memo.get(key, _MISSING)
            if value is not _MISSING:
                return value
            # A warm entry is read before taking the in-flight slot, which
            # saves an event and two lock round trips per key; a cold key
            # pays one more file probe inside the slot.
            data = self.get(key)
            if data is not None:
                value = memo[key] = read(data)
                return value
            with self._master:
                waiter = self._inflight.get(key)
                if waiter is None:
                    self._inflight[key] = threading.Event()
                    break
            waiter.wait()
        try:
            data = self.get(key)
            if data is not None:
                value = read(data)
            else:
                data = fetch()
                value = read(data)
                self.put(key, data)
            memo[key] = value
            return value
        finally:
            with self._master:
                event = self._inflight.pop(key)
            event.set()


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


def origin(url: str) -> str:
    """scheme://host:port of `url`, with the scheme's default port filled in."""
    parts = urlsplit(url)
    port = parts.port or (443 if parts.scheme == "https" else 80)
    return f"{parts.scheme}://{parts.hostname}:{port}"


def host_limiters(
    endpoints: Iterable[BackendConfig],
    time_fn: Callable[[], float] = time.monotonic,
    sleep_fn: Callable[[float], None] = time.sleep,
) -> dict[str, RateLimiter]:
    """One limiter per origin of `endpoints`, at the lowest `rate_limit_rps`
    that any endpoint on that origin sets."""
    rates: dict[str, float] = {}
    for cfg in endpoints:
        key = origin(cfg.endpoint_url)
        rates[key] = min(rates.get(key, cfg.rate_limit_rps), cfg.rate_limit_rps)
    return {key: RateLimiter(rate, time_fn=time_fn, sleep_fn=sleep_fn)
            for key, rate in rates.items()}
