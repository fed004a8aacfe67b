"""Transport plumbing shared by the HTTP backends: response cache, rate limit.

The cache is content-addressed: each reply is stored under the `cache_key` of
the fields its request sends, as raw response bytes. A response is stored
only once the caller's reader accepts it, so a reply the caller cannot read is
asked for again rather than replayed. With a warm cache a pipeline run issues
zero network requests and reproduces the run that populated it byte for byte.
Identical concurrent requests are deduplicated in-flight so only one of them
hits the network.

Replies live in append-only logs, one per cache instance, so storing one
creates no file: `FileResponseCache` gives the record framing and the rules
that make a log safe to read while its writer appends. A warm entry costs one
`os.open`, one `os.pread` and one `os.close` on a string path; a miss is a
dict lookup.

Each cache instance also keeps in memory the value its reader returned for
every key it has answered, so a later request for that key reads no file
(`FileResponseCache` states the rule that makes this sound). A command builds
one instance (`cli._build_backends`), so the memo and the log it writes live
for one command and are never shared across processes; README **Caching**
gives their sizes. A run without `paths.cache_dir` has no cache and so no memo.
"""

from __future__ import annotations

import errno
import hashlib
import itertools
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
_APPEND_FLAGS = os.O_WRONLY | os.O_APPEND | os.O_CREAT
# An index entry packs (log number, body offset, body length) into one int,
# which takes about a third of the memory of a tuple of the three.
_FIELD_BITS = 40
_FIELD_MASK = (1 << _FIELD_BITS) - 1
# Indexing reads a log this many bytes at a time, and skips any body that
# runs past a read without reading it.
_SCAN_CHUNK = 64 * 1024
_log_serial = itertools.count()


class FileResponseCache:
    """On-disk response store keyed by content hash, with in-flight dedup and
    an in-process memo of what each key's reader returned.

    Each instance appends the replies it stores to its own log,
    `<cache_dir>/<start ns>-<pid>-<serial>.log`, created at its first `put`.
    A record is the header `"<key> <length>\\n"` and then the raw reply, and
    goes out in one `write` of an `O_APPEND` descriptor. Since only its
    instance writes a log, records never interleave. A write that fails or
    comes back short is cut back off the log, so nothing is ever written after
    a torn record. At construction the instance indexes every complete record
    of every other log, in name order (the order their commands started), and
    a later record of a key replaces an earlier one. An incomplete last record
    (one still being written, or one cut short by a crash) is skipped. A miss
    inside the in-flight slot indexes what other logs gained since, which is
    how a reply another process stored is found.

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
        # Guards the own log's appends and the indexing of the others.
        self._log_lock = threading.Lock()
        self._index: dict[str, int] = {}
        self._logs: list[str] = []  # the path of each log number
        self._indexed: dict[str, list[int]] = {}  # other log -> [number, bytes indexed]
        self._open_log()
        self._refresh()

    def _open_log(self) -> None:
        """Name a new own log after the clock, so that it sorts after the logs
        of the instances made before it."""
        self._log = f"{self._prefix}{time.time_ns()}-{os.getpid()}-{next(_log_serial)}.log"
        self._log_number = len(self._logs)
        self._logs.append(self._log)

    def get(self, key: str) -> bytes | None:
        entry = self._index.get(key)
        if entry is None:
            return None
        length = entry & _FIELD_MASK
        try:
            fd = os.open(self._logs[entry >> 2 * _FIELD_BITS], os.O_RDONLY)
        except FileNotFoundError:  # the log was removed since it was indexed
            return None
        try:
            data = os.pread(fd, length, entry >> _FIELD_BITS & _FIELD_MASK)
        finally:
            os.close(fd)
        return data if len(data) == length else None

    def put(self, key: str, data: bytes) -> None:
        """Append one record to this instance's log and index it. A failed or
        short write leaves the log as it was and raises."""
        header = b"%s %d\n" % (key.encode(), len(data))
        record = header + data
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
            self._index[key] = self._entry(self._log_number, start + len(header), len(data))

    @staticmethod
    def _entry(number: int, offset: int, length: int) -> int:
        return (number << _FIELD_BITS | offset) << _FIELD_BITS | length

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
                state = self._indexed.get(path)
                if state is None:
                    state = self._indexed[path] = [len(self._logs), 0]
                    self._logs.append(path)
                if size > state[1]:
                    state[1] = self._scan(state[0], path, state[1], size)

    def _scan(self, number: int, path: str, pos: int, size: int) -> int:
        """Index the complete records of log `number` from byte `pos` up to
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
                    key, _, length = data[at:newline].rpartition(b" ")
                    if not length.isdigit():  # not a record of this format
                        return pos + at
                    body = pos + newline + 1
                    end = body + int(length)
                    if end > size:
                        return pos + at
                    self._index[key.decode(errors="replace")] = self._entry(
                        number, body, int(length))
                    at = end - pos
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
        under concurrent identical requests. A fetched response is stored only
        after `read` returns; an error from `read` leaves the key uncached.
        What `read` returns is memoized, so a later call for the key on this
        instance costs one dict lookup."""
        memo = self._memo
        while True:
            value = memo.get(key, _MISSING)
            if value is not _MISSING:
                return value
            # An indexed entry is read before taking the in-flight slot, which
            # saves an event and two lock round trips per key; a cold key
            # looks at the other logs again inside the slot.
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
            self._refresh()
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
