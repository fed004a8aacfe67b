"""Transport plumbing and the remote HTTP backends against a local fake server."""

import functools
import json
import math
import multiprocessing
import os
import re
import tempfile
import threading
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treeprm import cli
from treeprm.backends import transport
from treeprm.backends.base import BackendConfig, BackendError
from treeprm.backends.remote import (
    ChatCompletionGenerator,
    ServedPrmScorer,
    ToolVerifier,
    parse_step_completion,
)
from treeprm.backends.synthetic import ExactVerifier, OracleScorer, ScriptedGenerator
from treeprm.backends.templates import PromptTemplate, builtin_template, parse_template
from treeprm.backends.transport import FileResponseCache, RateLimiter, host_limiters
from treeprm.config import load_config
from treeprm.domain import Problem, ReasoningStep
from treeprm.synthetic import trace_from_values

PROBLEM = Problem(id="q1", statement="Add 2 and 3.", gold_answer="5")
README = Path(__file__).resolve().parent.parent / "README.md"


def backend_cfg(url, **overrides):
    values = dict(endpoint_url=url, model_name="test-model", temperature=1.0,
                  timeout_s=5.0, max_retries=2, rate_limit_rps=1000.0)
    values.update(overrides)
    return BackendConfig(**values)


class TestTemplates:
    def test_parse_sections(self):
        template = parse_template(
            "=== role ===\nbe exact\n=== body ===\nsolve {problem}\n=== output ===\nanswer"
        )
        assert template.role_preamble == "be exact"
        assert template.slots() == {"problem"}
        assert template.render(problem="x + 1") == "solve x + 1"

    def test_missing_section_rejected(self):
        with pytest.raises(ValueError, match="output"):
            parse_template("=== role ===\nr\n=== body ===\nb")

    def test_repeated_slot_rejected(self):
        with pytest.raises(ValueError, match="exactly once"):
            PromptTemplate(role_preamble="r", body_template="{a} and {a}", output_grammar="o")

    def test_render_requires_exact_slot_cover(self):
        template = PromptTemplate(role_preamble="r", body_template="{a} {b}", output_grammar="o")
        with pytest.raises(ValueError, match="missing slots: b"):
            template.render(a="1")
        with pytest.raises(ValueError, match="unknown slots: c"):
            template.render(a="1", b="2", c="3")

    def test_builtin_templates_load(self):
        assert builtin_template("generator").slots() == {"problem", "prior_steps"}
        assert builtin_template("judger").slots() == {
            "problem", "prior_steps", "candidate_step", "tool_response"
        }
        assert builtin_template("scorer").slots() == {
            "problem", "prior_steps", "candidate_step"
        }
        assert builtin_template("scorer_label_only").slots() == {
            "problem", "prior_steps", "candidate_step"
        }


class TestParseStepCompletion:
    def test_parses_objective_and_action(self):
        step = parse_step_completion("Objective: add\nAction: 2 + 3 = 5", 1)
        assert step.objective == "add"
        assert step.action == "2 + 3 = 5"
        assert not step.is_final

    def test_final_marker_detected(self):
        step = parse_step_completion(
            "Objective: finish\nAction: 2 + 3 = 5\nFinal Answer: 5", 2
        )
        assert step.is_final
        assert step.index == 2

    def test_unparseable_is_none(self):
        assert parse_step_completion("I refuse.", 1) is None
        assert parse_step_completion("Objective: only half", 1) is None


_TORN_PAYLOADS = (b"a" * (1 << 18), b"b" * (1 << 19))
# Puts per writer process, and reads the reader makes at least.
_PUTS = 50
_SYNC_TIMEOUT_S = 60


def _log_records(cache_dir) -> list[tuple[str, bytes]]:
    """(key, reply) of every record of every log in `cache_dir`, in name order."""
    records = []
    for log in sorted(Path(cache_dir).glob("*.log")):
        data, pos = log.read_bytes(), 0
        while pos < len(data):
            newline = data.index(b"\n", pos)
            key, length = data[pos:newline].decode().split(" ")
            pos = newline + 1 + int(length)
            records.append((key, data[newline + 1:pos]))
        assert pos == len(data), f"{log.name} ends inside a record"
    return records


def _wait_for(path: Path) -> None:
    deadline = time.time() + _SYNC_TIMEOUT_S
    while not path.exists():
        assert time.time() < deadline, f"{path.name} never appeared"
        time.sleep(0.001)


def _put_count(cache_dir, sync_dir, key, payload):
    """`_PUTS` puts of `payload`, started once the reader reads."""
    _wait_for(Path(sync_dir) / "reading")
    cache = FileResponseCache(cache_dir)
    for _ in range(_PUTS):
        cache.put(key, payload)
    (Path(sync_dir) / f"done-{len(payload)}").touch()


def _read_while_writing(cache_dir, sync_dir, key):
    """Reads through a fresh instance each time, which indexes the logs as
    they are, until both writers are done and at least `_PUTS` reads hit."""
    done = [Path(sync_dir) / f"done-{len(payload)}" for payload in _TORN_PAYLOADS]
    (Path(sync_dir) / "reading").touch()
    deadline, reads, torn = time.time() + _SYNC_TIMEOUT_S, 0, 0
    while reads < _PUTS or not all(path.exists() for path in done):
        assert time.time() < deadline, "the writers never finished"
        data = FileResponseCache(cache_dir).get(key)
        if data is not None:
            reads += 1
            torn += data not in _TORN_PAYLOADS
    return reads, torn


class TestCache:
    def test_concurrent_writer_processes_never_publish_a_torn_entry(self, tmp_path):
        key, cache_dir, sync_dir = "shared", tmp_path / "cache", tmp_path / "sync"
        sync_dir.mkdir()
        with multiprocessing.get_context("spawn").Pool(3) as pool:
            writers = [pool.apply_async(_put_count, (cache_dir, sync_dir, key, payload))
                       for payload in _TORN_PAYLOADS]
            reader = pool.apply_async(_read_while_writing, (cache_dir, sync_dir, key))
            for writer in writers:
                writer.get(timeout=2 * _SYNC_TIMEOUT_S)
            reads, torn = reader.get(timeout=2 * _SYNC_TIMEOUT_S)
        assert torn == 0, f"{torn} of {reads} reads returned a torn entry"
        assert FileResponseCache(cache_dir).get(key) in _TORN_PAYLOADS
        assert len(list(cache_dir.iterdir())) == 2
        assert sorted(_log_records(cache_dir)) == sorted(
            (key, payload) for payload in _TORN_PAYLOADS for _ in range(_PUTS))

    def test_round_trip(self, tmp_path):
        cache = FileResponseCache(tmp_path)
        key = "a1"
        assert cache.get(key) is None
        cache.put(key, b"payload")
        assert cache.get(key) == b"payload"

    def test_inflight_dedup_single_fetch(self, tmp_path):
        """Threads asking for one cold key share one fetch, one read and one value."""
        cache = FileResponseCache(tmp_path)
        calls, reads = [], []
        gate = threading.Event()

        def fetch():
            calls.append(1)
            gate.wait(timeout=5)
            return b"once"

        def read(data):
            reads.append(1)
            return data.decode()

        results = []
        threads = [
            threading.Thread(target=lambda: results.append(cache.get_or_fetch("k", fetch, read)))
            for _ in range(8)
        ]
        for t in threads:
            t.start()
        time.sleep(0.05)
        gate.set()
        for t in threads:
            t.join(timeout=5)
        assert results == ["once"] * 8
        assert all(result is results[0] for result in results)
        assert len(calls) == 1
        assert len(reads) == 1

    def test_a_reply_another_instance_stores_later_is_found_on_a_miss(self, tmp_path):
        reader = FileResponseCache(tmp_path)
        FileResponseCache(tmp_path).put("k", b"from the other")
        assert reader.get_or_fetch("k", lambda: pytest.fail("fetched"), bytes.decode) \
            == "from the other"
        assert reader.get("k") == b"from the other"


_KEYS = ("0a", "1b", "2c", "shared")


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(st.integers(min_value=2, max_value=3),
       st.lists(st.tuples(st.integers(min_value=0, max_value=2), st.sampled_from(_KEYS),
                          st.binary(max_size=40)), max_size=30))
def test_a_fresh_instance_reads_the_last_record_of_each_key_in_log_order(count, puts):
    with tempfile.TemporaryDirectory() as cache_dir:
        caches = [FileResponseCache(cache_dir) for _ in range(count)]
        for which, key, value in puts:
            caches[which % count].put(key, value)
        expected = {}
        for which in sorted(range(count), key=lambda i: caches[i]._log):
            expected.update((key, value) for i, key, value in puts if i % count == which)
        fresh = FileResponseCache(cache_dir)
        assert {key: fresh.get(key) for key in _KEYS} == \
            {key: expected.get(key) for key in _KEYS}


class TestCacheFiles:
    def test_entry_longer_than_one_scan_chunk_round_trips(self, tmp_path):
        payload = bytes(range(256)) * 800
        assert len(payload) == 200 * 1024 > transport._SCAN_CHUNK
        cache = FileResponseCache(tmp_path)
        for key, data in (("small", b"before"), ("big", payload), ("after", b"tail")):
            cache.put(key, data)
        fresh = FileResponseCache(tmp_path)
        assert [fresh.get(key) for key in ("small", "big", "after")] == \
            [b"before", payload, b"tail"]

    def test_a_hit_takes_one_open_one_pread_and_one_close(self, tmp_path, monkeypatch):
        FileResponseCache(tmp_path).put("k", b"reply")
        cache = FileResponseCache(tmp_path)
        calls = []

        def counted(name, original):
            def call(*args):
                calls.append(name)
                return original(*args)
            return call

        for name in ("open", "pread", "read", "close", "fstat", "stat", "listdir"):
            monkeypatch.setattr(os, name, counted(name, getattr(os, name)))
        assert cache.get("k") == b"reply"
        assert cache.get("missing") is None
        assert calls == ["open", "pread", "close"]

    def test_empty_entry_is_a_hit(self, tmp_path):
        FileResponseCache(tmp_path).put("empty", b"")
        cache = FileResponseCache(tmp_path)
        assert cache.get("empty") == b""
        assert cache.get_or_fetch("empty", lambda: pytest.fail("fetched"), bytes.decode) == ""

    @pytest.mark.parametrize("cut", [3, len("cut 7\n") + 2], ids=["in-header", "in-body"])
    def test_a_torn_last_record_is_skipped_and_fetched_again(self, tmp_path, cut):
        torn = b"cut 7\ntorn in"[:cut]
        writer = FileResponseCache(tmp_path)
        for key in ("a", "b"):
            writer.put(key, key.encode() * 3)
        (log,) = tmp_path.iterdir()
        whole = log.read_bytes()
        with log.open("ab") as tail:
            tail.write(torn)
        cache = FileResponseCache(tmp_path)
        assert [cache.get(key) for key in ("a", "b", "cut")] == [b"aaa", b"bbb", None]
        # As after a failed put, the writer cuts the torn record off and goes on.
        os.truncate(log, len(whole))
        writer.put("c", b"ccc")
        assert cache.get_or_fetch("c", lambda: pytest.fail("fetched"), bytes.decode) == "ccc"
        assert cache.get_or_fetch("cut", lambda: b"fetched", bytes.decode) == "fetched"
        assert FileResponseCache(tmp_path).get("cut") == b"fetched"
        assert log.read_bytes() == whole + b"c 3\nccc"

    @pytest.mark.parametrize("failure", ["disk-full", "short"])
    def test_a_failed_put_leaves_the_log_as_it_was_and_raises(
            self, tmp_path, monkeypatch, failure):
        cache = FileResponseCache(tmp_path)
        cache.put("kept", b"payload")
        (log,) = tmp_path.iterdir()
        before = log.read_bytes()
        original, writes = os.write, []

        def disk_full(fd, data):
            raise OSError(28, "No space left on device")

        def at_most_seven(fd, data):
            writes.append(1)
            return original(fd, bytes(data[:7]))

        monkeypatch.setattr(os, "write", disk_full if failure == "disk-full" else at_most_seven)
        with pytest.raises(OSError, match="No space left" if failure == "disk-full" else "7 of"):
            cache.put("k", b"0123456789" * 10)
        monkeypatch.undo()
        assert len(writes) == (failure == "short")
        assert log.read_bytes() == before
        assert cache.get("k") is None
        assert FileResponseCache(tmp_path).get("k") is None
        cache.put("k", b"after")
        assert _log_records(tmp_path) == [("kept", b"payload"), ("k", b"after")]

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
    def test_hits_misses_and_puts_leave_no_open_descriptor(self, tmp_path, monkeypatch):
        cache = FileResponseCache(tmp_path)
        before = len(os.listdir("/proc/self/fd"))
        for i in range(250):
            cache.put(f"k{i}", b"x" * i)
            assert cache.get(f"k{i}") == b"x" * i
            assert cache.get(f"missing{i}") is None
            assert cache.get_or_fetch(f"f{i}", lambda: b"v", bytes.decode) == "v"

        def disk_full(fd, data):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(os, "write", disk_full)
        with pytest.raises(OSError):
            cache.put("failed", b"payload")
        monkeypatch.undo()
        assert len(os.listdir("/proc/self/fd")) == before


def _count_file_reads(monkeypatch) -> list:
    """The names of the `*.log` cache logs opened from here on."""
    reads = []
    original = os.open

    def counted(path, *args, **kwargs):
        name = os.path.basename(path)
        if name.endswith(".log"):
            reads.append(name)
        return original(path, *args, **kwargs)

    monkeypatch.setattr(os, "open", counted)
    return reads


class TestCacheMemo:
    def test_repeat_key_is_answered_without_a_file_call(self, tmp_path, monkeypatch):
        key = "memo"
        FileResponseCache(tmp_path).put(key, b"warm")
        (log,) = tmp_path.iterdir()
        cache = FileResponseCache(tmp_path)
        reads = _count_file_reads(monkeypatch)
        first = cache.get_or_fetch(key, lambda: pytest.fail("fetched"), bytes.decode)
        log.unlink()
        second = cache.get_or_fetch(key, lambda: pytest.fail("fetched"), bytes.decode)
        assert first == "warm"
        assert second is first
        assert reads == [log.name]

    def test_fetched_value_is_memoized_after_its_put(self, tmp_path, monkeypatch):
        cache = FileResponseCache(tmp_path)
        first = cache.get_or_fetch("k", lambda: b"2.5", float)
        reads = _count_file_reads(monkeypatch)
        assert cache.get_or_fetch("k", lambda: pytest.fail("fetched"), float) is first
        assert reads == []
        (log,) = tmp_path.iterdir()
        assert log.read_bytes() == b"k 3\n2.5"

    def test_rejected_reply_is_neither_stored_nor_memoized(self, tmp_path):
        cache = FileResponseCache(tmp_path)
        replies = iter([b"bad", b"good"])
        fetches = []

        def fetch():
            fetches.append(1)
            return next(replies)

        def read(data):
            if data == b"bad":
                raise BackendError("unreadable")
            return data.decode()

        with pytest.raises(BackendError, match="unreadable"):
            cache.get_or_fetch("k", fetch, read)
        assert list(tmp_path.iterdir()) == []
        assert cache.get_or_fetch("k", fetch, read) == "good"
        assert cache.get_or_fetch("k", fetch, read) == "good"
        assert len(fetches) == 2
        assert cache.get("k") == b"good"

    def test_rejected_entry_on_disk_is_read_again(self, tmp_path):
        cache = FileResponseCache(tmp_path)
        cache.put("k", b"bad")

        def read(data):
            if data == b"bad":
                raise BackendError("unreadable")
            return data.decode()

        with pytest.raises(BackendError):
            cache.get_or_fetch("k", lambda: pytest.fail("fetched"), read)
        cache.put("k", b"good")
        assert cache.get_or_fetch("k", lambda: pytest.fail("fetched"), read) == "good"

    def test_a_second_instance_on_the_directory_reads_from_disk(self, tmp_path, monkeypatch):
        first = FileResponseCache(tmp_path)
        assert first.get_or_fetch("k", lambda: b"stored", bytes.decode) == "stored"
        (log,) = tmp_path.iterdir()
        reads = _count_file_reads(monkeypatch)
        second = FileResponseCache(tmp_path)
        assert second.get_or_fetch("k", lambda: pytest.fail("fetched"), bytes.decode) == "stored"
        # One open to index the log, one to read the entry.
        assert reads == [log.name, log.name]
        log.unlink()
        third = FileResponseCache(tmp_path)
        assert third.get_or_fetch("k", lambda: b"again", bytes.decode) == "again"


class TestRateLimiter:
    def test_spacing_with_fake_clock(self):
        clock = [0.0]
        sleeps = []

        def time_fn():
            return clock[0]

        def sleep_fn(duration):
            sleeps.append(duration)
            clock[0] += duration

        limiter = RateLimiter(2.0, time_fn=time_fn, sleep_fn=sleep_fn)
        stamps = []
        for _ in range(21):
            limiter.acquire()
            stamps.append(clock[0])
        # No 10-second window may contain more than rate * 10 = 20 requests.
        for i in range(len(stamps)):
            in_window = [s for s in stamps if stamps[i] <= s < stamps[i] + 10.0]
            assert len(in_window) <= 20
        assert stamps[1] - stamps[0] == pytest.approx(0.5)

    def test_rejects_nonpositive_rate(self):
        with pytest.raises(ValueError):
            RateLimiter(0.0)


class TestHostLimiters:
    def test_one_limiter_per_scheme_host_and_port_at_the_lowest_rate(self):
        clock = [0.0]
        sleeps = []
        limiters = host_limiters(
            [backend_cfg("http://a/x", rate_limit_rps=5.0),
             backend_cfg("http://a:80/y", rate_limit_rps=4.0),
             backend_cfg("http://a:8080/z"), backend_cfg("https://a/z")],
            time_fn=lambda: clock[0], sleep_fn=sleeps.append,
        )
        assert sorted(limiters) == ["http://a:80", "http://a:8080", "https://a:443"]
        for _ in range(2):
            limiters["http://a:80"].acquire()
        assert sleeps == [0.25]

    def test_readme_remote_example_shares_one_rate_on_its_host(
            self, fake_server, tmp_path, monkeypatch):
        """The README's generator, judger, scorer and tool all sit on one host,
        so every request waits for the tool's 2 requests per second."""
        section = README.read_text(encoding="utf-8").split("## Configuration")[1]
        local, remote = re.findall(r"```jsonc\n(.*?)```", section.split("\n## ")[0], re.S)
        config = json.loads(local)
        config.update(json.loads("{" + remote.replace("https://host", fake_server.url) + "}"))
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config), encoding="utf-8")
        clock = [0.0]
        sleeps = []

        def sleep_fn(duration):
            sleeps.append(duration)
            clock[0] += duration

        monkeypatch.setattr(cli, "host_limiters", functools.partial(
            host_limiters, time_fn=lambda: clock[0], sleep_fn=sleep_fn))
        fake_server.state.chat_responder = lambda body: "Objective: add\nAction: 5 \\boxed{+}"
        built = cli._build_backends(load_config(path), None, ("generator", "verifier", "scorer"))
        (step,) = built["generator"].generate(PROBLEM, (), 1)
        assert built["verifier"].verify(PROBLEM, step, ()).label == 1
        assert built["scorer"].score(PROBLEM, (), step) == 1.0
        assert fake_server.state.request_count == 4
        assert sleeps == [0.5, 0.5, 0.5]


class TestChatCompletionGenerator:
    def _generator(self, server, tmp_path, **cfg_overrides):
        cfg = backend_cfg(f"{server.url}/v1/chat/completions", **cfg_overrides)
        return ChatCompletionGenerator(cfg, builtin_template("generator"),
                                       cache=FileResponseCache(tmp_path / "cache"),
                                       sleep_fn=lambda s: None)

    def test_samples_count_independent_requests(self, fake_server, tmp_path):
        fake_server.state.chat_responder = lambda body: "Objective: add\nAction: 2 + 3 = 5"
        generator = self._generator(fake_server, tmp_path)
        steps = generator.generate(PROBLEM, (), 3)
        assert len(steps) == 3
        assert fake_server.state.request_count == 3
        assert all(s.index == 1 for s in steps)

    def test_unparseable_completions_dropped_not_padded(self, fake_server, tmp_path):
        replies = iter(["Objective: a\nAction: 1", "garbage", "Objective: c\nAction: 3"])
        fake_server.state.chat_responder = lambda body: next(replies)
        generator = self._generator(fake_server, tmp_path)
        steps = generator.generate(PROBLEM, (), 3)
        assert len(steps) == 2

    def test_retry_then_success(self, fake_server, tmp_path):
        fake_server.state.chat_responder = lambda body: "Objective: a\nAction: 1"
        fake_server.state.fail_next = 2
        generator = self._generator(fake_server, tmp_path, max_retries=2)
        steps = generator.generate(PROBLEM, (), 1)
        assert len(steps) == 1
        assert fake_server.state.request_count == 3

    def test_retries_exhausted_raises_with_status(self, fake_server, tmp_path):
        fake_server.state.fail_next = 10
        generator = self._generator(fake_server, tmp_path, max_retries=2)
        with pytest.raises(BackendError, match="3 attempts") as excinfo:
            generator.generate(PROBLEM, (), 1)
        assert excinfo.value.status == 500
        assert fake_server.state.request_count == 3

    def test_warm_cache_issues_zero_network_calls(self, fake_server, tmp_path):
        fake_server.state.chat_responder = lambda body: "Objective: a\nAction: 2 + 3 = 5"
        generator = self._generator(fake_server, tmp_path)
        first = generator.generate(PROBLEM, (), 3)
        count_after_first = fake_server.state.request_count
        # New client instance pointing at a dead endpoint, same cache dir.
        dead_cfg = backend_cfg("http://127.0.0.1:1/unreachable", max_retries=0)
        warm = ChatCompletionGenerator(dead_cfg, builtin_template("generator"),
                                       cache=FileResponseCache(tmp_path / "cache"),
                                       sleep_fn=lambda s: None)
        second = warm.generate(PROBLEM, (), 3)
        assert second == first
        assert fake_server.state.request_count == count_after_first

    def test_repeat_generate_is_answered_from_the_memo(self, fake_server, tmp_path):
        fake_server.state.chat_responder = lambda body: "Objective: a\nAction: 2 + 3 = 5"
        generator = self._generator(fake_server, tmp_path)
        first = generator.generate(PROBLEM, (), 3)
        for entry in (tmp_path / "cache").iterdir():
            entry.unlink()
        fake_server.state.chat_responder = lambda body: pytest.fail("asked again")
        assert generator.generate(PROBLEM, (), 3) == first
        assert fake_server.state.request_count == 3

    def test_auth_header_resolved_from_env(self, fake_server, tmp_path, monkeypatch):
        monkeypatch.setenv("TEST_BACKEND_TOKEN", "sekret")
        fake_server.state.chat_responder = lambda body: "Objective: a\nAction: 1"
        cfg = backend_cfg(f"{fake_server.url}/v1/chat/completions",
                          auth_token_env_var="TEST_BACKEND_TOKEN")
        generator = ChatCompletionGenerator(cfg, builtin_template("generator"),
                                            sleep_fn=lambda s: None)
        generator.generate(PROBLEM, (), 1)
        assert fake_server.state.chat_requests[-1]["auth"] == "Bearer sekret"


class TestToolVerifier:
    def _verifier(self, server, tmp_path):
        tool_cfg = backend_cfg(f"{server.url}/tool")
        judger_cfg = backend_cfg(f"{server.url}/v1/chat/completions")
        return ToolVerifier(tool_cfg, judger_cfg, builtin_template("judger"),
                            cache=FileResponseCache(tmp_path / "cache"),
                            sleep_fn=lambda s: None)

    def test_positive_verdict(self, fake_server, tmp_path):
        fake_server.state.chat_responder = (
            lambda body: "Recomputed: adding 80 gives 130. The step is: \\boxed{+}"
        )
        verifier = self._verifier(fake_server, tmp_path)
        step = ReasoningStep(index=1, objective="add", action="50 + 80 = 130")
        result = verifier.verify(PROBLEM, step, ())
        assert result.label == 1
        assert result.verifiable
        assert result.tool_query == "50 + 80 = 130"
        assert fake_server.state.tool_requests == ["50 + 80 = 130"]
        assert "adding 80 gives 130" in result.rationale

    def test_negative_verdict_with_rationale(self, fake_server, tmp_path):
        fake_server.state.chat_responder = (
            lambda body: "The correct total should be 630, not 570. \\boxed{-}"
        )
        verifier = self._verifier(fake_server, tmp_path)
        step = ReasoningStep(index=1, objective="total", action="total = 570")
        result = verifier.verify(PROBLEM, step, ())
        assert result.label == -1
        assert "630" in result.rationale

    def test_no_marker_means_unverifiable(self, fake_server, tmp_path):
        fake_server.state.chat_responder = lambda body: "I cannot decide."
        verifier = self._verifier(fake_server, tmp_path)
        step = ReasoningStep(index=1, objective="o", action="a")
        result = verifier.verify(PROBLEM, step, ())
        assert not result.verifiable
        assert result.label == -1

    def test_tool_response_fed_to_judger(self, fake_server, tmp_path):
        fake_server.state.tool_responder = lambda query: "tool says 130"
        fake_server.state.chat_responder = lambda body: "ok \\boxed{+}"
        verifier = self._verifier(fake_server, tmp_path)
        step = ReasoningStep(index=1, objective="o", action="50 + 80")
        verifier.verify(PROBLEM, step, ())
        judger_body = fake_server.state.chat_requests[-1]["body"]
        assert "tool says 130" in judger_body["messages"][1]["content"]

    @pytest.mark.parametrize("reply, shown", [
        ("42", "42"),
        ("[1, 2]", "[1, 2]"),
        ('{"result": 42}', "42"),
        ('{"result": {"sum": 5}}', '{"sum":5}'),
        ('{"answer": 5}', '{"answer": 5}'),
    ], ids=["number", "list", "number-result", "object-result", "no-result"])
    def test_tool_reply_that_is_no_string_result(self, fake_server, tmp_path, reply, shown):
        fake_server.state.raw_tool_responder = lambda query: reply
        fake_server.state.chat_responder = lambda body: "ok \\boxed{+}"
        verifier = self._verifier(fake_server, tmp_path)
        result = verifier.verify(PROBLEM, ReasoningStep(index=1, objective="o", action="a"), ())
        assert (result.label, result.verifiable) == (1, True)
        judger_body = fake_server.state.chat_requests[-1]["body"]
        assert f"Tool response:\n{shown}\n" in judger_body["messages"][1]["content"]


class TestServedPrmScorer:
    def _scorer(self, server, tmp_path, mode="label"):
        cfg = backend_cfg(f"{server.url}/v1/chat/completions")
        return ServedPrmScorer(cfg, builtin_template("scorer"),
                               cache=FileResponseCache(tmp_path / "cache"), mode=mode,
                               sleep_fn=lambda s: None)

    def test_boxed_plus_scores_one(self, fake_server, tmp_path):
        fake_server.state.chat_responder = lambda body: "looks right \\boxed{+}"
        scorer = self._scorer(fake_server, tmp_path)
        step = ReasoningStep(index=1, objective="o", action="a")
        assert scorer.score(PROBLEM, (), step) == 1.0

    def test_boxed_minus_scores_minus_one(self, fake_server, tmp_path):
        fake_server.state.chat_responder = lambda body: "wrong \\boxed{-}"
        scorer = self._scorer(fake_server, tmp_path)
        step = ReasoningStep(index=1, objective="o", action="a")
        assert scorer.score(PROBLEM, (), step) == -1.0

    def test_unparseable_output_is_error_naming_sample(self, fake_server, tmp_path):
        fake_server.state.chat_responder = lambda body: "shrug"
        scorer = self._scorer(fake_server, tmp_path)
        step = ReasoningStep(index=4, objective="o", action="a")
        with pytest.raises(BackendError, match="q1@4"):
            scorer.score(PROBLEM, (), step)

    def test_likelihood_mode(self, fake_server, tmp_path):
        def raw(body):
            return {
                "choices": [{
                    "message": {"role": "assistant", "content": "\\boxed{+}"},
                    "logprobs": {"content": [{
                        "token": "+",
                        "logprob": math.log(0.6),
                        "top_logprobs": [
                            {"token": "+", "logprob": math.log(0.6)},
                            {"token": "-", "logprob": math.log(0.2)},
                        ],
                    }]},
                }]
            }

        fake_server.state.raw_chat_responder = raw
        scorer = self._scorer(fake_server, tmp_path, mode="likelihood")
        step = ReasoningStep(index=1, objective="o", action="a")
        assert scorer.score(PROBLEM, (), step) == pytest.approx(0.5)

    @pytest.mark.parametrize("entries", [
        [{"token": "+", "top_logprobs": [{"token": "+"}]}],
        [{"token": "+", "top_logprobs": [{"token": "+", "logprob": "high"}]}],
        [{"token": "+", "top_logprobs": [{"token": "+", "logprob": 1000.0}]}],
        [{"token": "+", "top_logprobs": [{"token": "+", "logprob": math.nan}]}],
        [{"token": "+", "top_logprobs": [{"token": "+", "logprob": math.inf}]}],
        [{"token": "+", "top_logprobs": ["+"]}],
        [{"token": "+", "top_logprobs": None}],
        [{"token": "+", "top_logprobs": {"token": "+"}}],
        ["+"],
        [{"token": 5}],
        {"token": "+"},
        7,
    ], ids=["no-logprob", "text-logprob", "overflowing-logprob", "nan-logprob",
            "infinite-logprob", "text-alternative", "null-alternatives",
            "object-alternatives", "text-entry", "number-token", "object-content",
            "number-content"])
    def test_malformed_likelihood_reply_is_an_uncached_error_naming_sample(
            self, fake_server, tmp_path, entries):
        fake_server.state.raw_chat_responder = lambda body: {"choices": [{
            "message": {"role": "assistant", "content": "\\boxed{+}"},
            "logprobs": {"content": entries},
        }]}
        scorer = self._scorer(fake_server, tmp_path, mode="likelihood")
        step = ReasoningStep(index=3, objective="o", action="a")
        for _ in range(2):
            with pytest.raises(BackendError, match="q1@3"):
                scorer.score(PROBLEM, (), step)
        assert fake_server.state.request_count == 2
        assert list((tmp_path / "cache").iterdir()) == []


class TestSyntheticBackends:
    def test_registry_miss_is_backend_error(self):
        trace = trace_from_values([1, 2], problem_id="known")
        generator = ScriptedGenerator([trace])
        with pytest.raises(BackendError, match="no synthetic trace"):
            generator.generate(PROBLEM, (), 1)

    def test_oracle_backends_agree_with_domain_oracles(self):
        trace = trace_from_values([50, 80, 80], problem_id="t1")
        verifier = ExactVerifier([trace])
        scorer = OracleScorer([trace])
        steps = trace.trajectory.steps
        assert verifier.verify(trace.problem, steps[1], steps[:1]).label == 1
        assert scorer.score(trace.problem, steps[:1], steps[1]) == 1.0

    def test_generation_order_independent(self):
        trace = trace_from_values([50, 80, 80], problem_id="t2")
        a = ScriptedGenerator([trace], branch_noise=0.5, seed=9)
        b = ScriptedGenerator([trace], branch_noise=0.5, seed=9)
        state = trace.trajectory.steps[:1]
        # Different call histories, same per-call results.
        a.generate(trace.problem, (), 3)
        assert a.generate(trace.problem, state, 3) == b.generate(trace.problem, state, 3)


class TestRemoteSearchIntegration:
    """The full search loop driven end to end by the HTTP backends."""

    @staticmethod
    def _responder(counter):
        def respond(body):
            user_message = body["messages"][1]["content"]
            if "Tool response:" in user_message:
                if "wrong guess" in user_message:
                    return "That quantity is off. The step is: \\boxed{-}"
                return "Checks out. The step is: \\boxed{+}"
            depth = user_message.count("Step ")
            if depth == 0:
                counter[0] += 1
                if counter[0] % 3 == 0:
                    return "Objective: try something\nAction: wrong guess 9 + 9 = 18"
                return "Objective: add the numbers\nAction: 2 + 3 = 5"
            return "Objective: state the result\nAction: done\nFinal Answer: 5"

        return respond

    def test_multi_step_search_over_http(self, fake_server, tmp_path):
        import math

        from treeprm.mcts import SearchConfig, run_search

        fake_server.state.chat_responder = self._responder([0])
        cache = FileResponseCache(tmp_path / "cache")
        chat_cfg = backend_cfg(f"{fake_server.url}/v1/chat/completions")
        tool_cfg = backend_cfg(f"{fake_server.url}/tool")
        generator = ChatCompletionGenerator(chat_cfg, builtin_template("generator"),
                                            cache=cache, sleep_fn=lambda s: None)
        verifier = ToolVerifier(tool_cfg, chat_cfg, builtin_template("judger"),
                                cache=cache, sleep_fn=lambda s: None)
        cfg = SearchConfig(exploration_c=math.sqrt(2), branch_K=3, decay_gamma=0.9,
                           outcome_beta=0.5, max_rounds_R=4, max_depth=6, rng_seed=1)
        result = run_search(PROBLEM, generator, verifier, cfg)

        assert all(record.error is None for record in result.rounds)
        # Three rounds finish the tree (the root's expansion, then one per
        # first step), so the search stops before its fourth.
        assert len(result.rounds) == len(result.rollouts) == 3
        assert result.open_nodes == 0
        assert all(rollout.complete for rollout in result.rollouts)
        # The root saw both the correct and the wrong first step.
        assert len(result.root.children) == 2
        labels = sorted(c.step_verification.label for c in result.root.children)
        assert labels == [-1, 1]
        # Every complete rollout ends in the declared final answer.
        for rollout in result.rollouts:
            assert rollout.final_answer == "5"
            assert rollout.final_flag == 1


class TestBackendConfig:
    def test_validation(self):
        with pytest.raises(ValueError, match="timeout"):
            BackendConfig(endpoint_url="http://x", timeout_s=0)
        with pytest.raises(ValueError, match="rate_limit"):
            BackendConfig(endpoint_url="http://x", rate_limit_rps=0)
        with pytest.raises(ValueError, match="max_retries"):
            BackendConfig(endpoint_url="http://x", max_retries=-1)
        for url in ("", "localhost:8000/v1", "ftp://x/v1", "http:///v1", 5):
            with pytest.raises(ValueError, match="endpoint_url must be an http"):
                BackendConfig(endpoint_url=url)
        with pytest.raises(ValueError, match="Port out of range"):
            BackendConfig(endpoint_url="http://x:99999/v1")

    def test_token_resolution_lazy(self, monkeypatch):
        cfg = BackendConfig(endpoint_url="http://x", auth_token_env_var="LATER_TOKEN")
        assert cfg.auth_token() is None
        monkeypatch.setenv("LATER_TOKEN", "now")
        assert cfg.auth_token() == "now"
