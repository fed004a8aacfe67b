"""Transport plumbing shared by the HTTP backends: response cache, rate limit.

The cache is content-addressed: one file per sha256 of the canonical request
payload, holding the raw response bytes. With a warm cache a pipeline run
issues zero network requests and reproduces the run that populated it byte
for byte. Identical concurrent requests are deduplicated in-flight so only
one of them hits the network.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
import time
from pathlib import Path
from typing import Callable


def cache_key(payload: dict) -> str:
    """Stable content hash of a request payload."""
    canonical = json.dumps(payload, sort_keys=True, ensure_ascii=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


class FileResponseCache:
    """On-disk response store keyed by content hash, with in-flight dedup."""

    def __init__(self, cache_dir: str | Path):
        self.cache_dir = Path(cache_dir)
        self.cache_dir.mkdir(parents=True, exist_ok=True)
        self._master = threading.Lock()
        self._inflight: dict[str, threading.Event] = {}

    def _path(self, key: str) -> Path:
        return self.cache_dir / f"{key}.bin"

    def get(self, key: str) -> bytes | None:
        path = self._path(key)
        if path.exists():
            return path.read_bytes()
        return None

    def put(self, key: str, data: bytes) -> None:
        """Publish atomically: each writer (process and thread) fills its own
        temp file, so concurrent writers never tear an entry."""
        path = self._path(key)
        tmp = path.with_suffix(f".{os.getpid()}.{threading.get_ident()}.tmp")
        try:
            tmp.write_bytes(data)
            os.replace(tmp, path)
        except BaseException:
            tmp.unlink(missing_ok=True)
            raise

    def get_or_fetch(self, key: str, fetch: Callable[[], bytes]) -> bytes:
        """Return the cached response, fetching it at most once per key even
        under concurrent identical requests."""
        while True:
            cached = self.get(key)
            if cached is not None:
                return cached
            with self._master:
                waiter = self._inflight.get(key)
                if waiter is None:
                    self._inflight[key] = threading.Event()
                    break
            waiter.wait()
        try:
            cached = self.get(key)
            if cached is not None:
                return cached
            data = fetch()
            self.put(key, data)
            return data
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
