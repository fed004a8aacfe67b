"""Remote HTTP backends: chat-completion generator, tool+judger verifier,
served-PRM scorer.

Wire format is the widespread chat-completion schema: POST a JSON body with
``model``, ``messages`` (system + user), ``temperature`` and ``n``; read
``choices[0].message.content`` from the response. The math tool is a GET
endpoint taking the query as a ``query`` parameter. Exact shapes are pinned
in the README.

Requests go over a minimal HTTP/1.1 client of this module, on keep-alive
connections that each origin (scheme, host and port) pools for every endpoint
and thread that sends to it, and opens no faster than the server shows that
it accepts them (`transport.Origin`): a request's line, head and body go out
in one write, and its reply is read through the connection's one buffered
reader, framed by `Content-Length`, by chunked transfer coding or else by the
connection closing. Every request goes through its origin's rate limiter,
retries transient failures (connection errors, 429, 5xx) with exponential
backoff, and is served from the content-addressed cache when warm.
Each request names the reader that turns its reply into what the role uses; a
reply is cached only once that reader accepts it. `_Endpoint.request` derives
the cache key from what the request sends, led by the `kind` of its reader
(the scorer's names its `mode`), so an entry is replayed only to a reader of
the kind that accepted it.
"""

from __future__ import annotations

import functools
import json
import math
import re
import socket
import time
from typing import Callable, TypeVar
from urllib.parse import urlencode, urlsplit

from ..domain import Problem, ReasoningStep, StepSequence, VerificationResult, parse_verdict_marker
from ..jsonio import canonical_json, request_body
from .base import SCORE_MODES, BackendConfig, BackendError
from .templates import PromptTemplate
from .transport import FileResponseCache, Origin, cache_key, origin

_T = TypeVar("_T")

_RETRYABLE_STATUSES = frozenset({429, 500, 502, 503, 504})
_BACKOFF_BASE_S = 0.5

_OBJECTIVE_RE = re.compile(r"^objective\s*:\s*(.+)$", re.IGNORECASE | re.MULTILINE)
_ACTION_RE = re.compile(r"^action\s*:\s*(.*)$", re.IGNORECASE | re.MULTILINE)
_FINAL_MARKER_RE = re.compile(r"final answer\s*[:=]", re.IGNORECASE)
_UNSAFE_TARGET_RE = re.compile(r"[\x00-\x20\x7f]")  # would break the request line


def render_prior_steps(state: StepSequence) -> str:
    if not state:
        return "(none yet)"
    return "\n".join(map(render_candidate, state))


def render_candidate(step: ReasoningStep) -> str:
    return f"Step {step.index}: {step.objective} -- {step.action}"


def parse_step_completion(text: str, index: int) -> ReasoningStep | None:
    """Parse an Objective:/Action: completion into a step; None on failure."""
    objective_match = _OBJECTIVE_RE.search(text)
    action_match = _ACTION_RE.search(text)
    if not objective_match or not action_match:
        return None
    action = text[action_match.start(1):].strip()
    objective = objective_match.group(1).strip()
    if not objective or not action:
        return None
    return ReasoningStep(
        index=index,
        objective=objective,
        action=action,
        is_final=bool(_FINAL_MARKER_RE.search(action)),
    )


_MAX_LINE = 65536  # the longest status, header or chunk-size line read
_MAX_HEADERS = 100


class _BadReply(OSError):
    """A reply that breaks HTTP/1.1 framing; retried like a failed connection."""


@functools.cache
def _tls_context():
    import ssl  # only runs that speak https load it

    return ssl.create_default_context()


class _Connection:
    """One keep-alive HTTP/1.1 connection, opened at construction: a socket
    and one buffered reader over it. It is `open` until `close`."""

    def __init__(self, host: str, port: int, tls: bool, timeout_s: float):
        sock = socket.create_connection((host, port), timeout_s)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        if tls:
            sock = _tls_context().wrap_socket(sock, server_hostname=host)
        self.sock, self._reader, self._timeout_s = sock, sock.makefile("rb"), timeout_s

    @property
    def open(self) -> bool:
        return self.sock is not None

    def close(self) -> None:
        if self.sock is not None:
            self._reader.close()
            self.sock.close()
            self.sock = self._reader = None

    def send(self, request: bytes, timeout_s: float) -> bytes:
        """Writes `request` in one `sendall` and returns the reply's status
        line, with `timeout_s` as the socket timeout. A connection that the
        server closed before it replied raises ConnectionResetError."""
        if timeout_s != self._timeout_s:  # endpoints of one origin may differ
            self.sock.settimeout(timeout_s)
            self._timeout_s = timeout_s
        self.sock.sendall(request)
        line = self._line()
        if not line:
            raise ConnectionResetError("connection closed before a status line")
        return line

    def reply(self, line: bytes) -> tuple[int, bytes]:
        """The status and body of the reply that `line` starts; interim 1xx
        replies are skipped. The socket closes after a reply that says
        `Connection: close`, an HTTP/1.0 reply and a body that the closing
        connection ends."""
        while True:
            version, status = _status(line)
            headers = self._headers()
            if status >= 200:
                break
            line = self._line()
        keep_alive = version != b"HTTP/1.0" and b"close" not in headers.get(b"connection", b"")
        if status in (204, 304):
            body = b""
        elif headers.get(b"transfer-encoding") == b"chunked":
            body = self._chunked()
        elif b"content-length" in headers:
            body = self._exactly(_number(headers[b"content-length"], 10))
        else:
            body, keep_alive = self._reader.read(), False
        if not keep_alive:
            self.close()
        return status, body

    def _line(self) -> bytes:
        line = self._reader.readline(_MAX_LINE + 1)
        if len(line) > _MAX_LINE:
            raise _BadReply(f"reply line longer than {_MAX_LINE} bytes")
        return line

    def _headers(self) -> dict[bytes, bytes]:
        """The header fields up to the blank line, by lower-case name; values
        are lower-case too, since only framing headers are read."""
        headers = {}
        for _ in range(_MAX_HEADERS + 1):
            line = self._line()
            if line in (b"\r\n", b"\n"):
                return headers
            if not line:
                raise _BadReply("reply cut short in its head")
            name, colon, value = line.partition(b":")
            if not colon:
                raise _BadReply(f"malformed header line {line[:80]!r}")
            headers[name.strip().lower()] = value.strip().lower()
        raise _BadReply(f"more than {_MAX_HEADERS} header fields")

    def _exactly(self, size: int) -> bytes:
        data = self._reader.read(size)
        if len(data) < size:
            raise _BadReply(f"reply cut short: {len(data)} of {size} bytes")
        return data

    def _chunked(self) -> bytes:
        parts = []
        while size := _number(self._line().split(b";", 1)[0], 16):
            parts.append(self._exactly(size))
            if self._exactly(2) != b"\r\n":
                raise _BadReply("chunk data not followed by CRLF")
        while self._line() not in (b"\r\n", b"\n", b""):  # trailer fields
            pass
        return b"".join(parts)


def _status(line: bytes) -> tuple[bytes, int]:
    """The HTTP version and status code of a status line."""
    version, _, rest = line.partition(b" ")
    code = rest[:3]
    if (not version.startswith(b"HTTP/1.") or not code.isdigit() or code < b"100"
            or rest[3:4].strip()):
        raise _BadReply(f"bad status line {line[:80]!r}")
    return version, int(code)


def _number(text: bytes, base: int) -> int:
    """A non-negative framing number: a length or a chunk size."""
    text = text.strip()
    if text.isalnum():  # no sign, space or underscore, which int() takes
        try:
            return int(text, base)
        except ValueError:
            pass
    raise _BadReply(f"bad length {text[:80]!r}")


class _Endpoint:
    """One remote endpoint with its origin's limiter and connections, its
    retry policy, and the cache.

    Its exchanges run on the connections of its `Origin`, which the other
    endpoints on that origin share; without `origins`, the endpoint has an
    origin of its own.
    """

    def __init__(
        self,
        cfg: BackendConfig,
        cache: FileResponseCache | None = None,
        sleep_fn: Callable[[float], None] = time.sleep,
        origins: dict[str, Origin] | None = None,
    ):
        self.cfg = cfg
        self.cache = cache
        url = urlsplit(cfg.endpoint_url)
        self._tls = url.scheme == "https"
        default_port = 443 if self._tls else 80
        self._host, self._port = url.hostname, url.port or default_port
        host = f"[{self._host}]" if ":" in self._host else self._host
        if self._port != default_port:
            host += f":{self._port}"
        self._fixed_head = f"Host: {host}\r\nAccept-Encoding: identity\r\n"
        self._target = url.path or "/"
        self._query = url.query
        if self._query:
            self._target += "?" + self._query
        if _UNSAFE_TARGET_RE.search(self._target):
            raise ValueError(f"endpoint URL holds a space or control character: "
                             f"{cfg.endpoint_url!r}")
        self._origin = (Origin(cfg.rate_limit_rps, sleep_fn=sleep_fn) if origins is None
                        else origins[origin(cfg.endpoint_url)])
        self._connect = functools.partial(_Connection, self._host, self._port, self._tls,
                                          cfg.timeout_s)
        self._sleep = sleep_fn

    def _request(self, method: str, target: str, payload: dict | None) -> bytes:
        """The bytes of one request: its line, head and JSON body."""
        head = f"{method} {target} HTTP/1.1\r\n{self._fixed_head}"
        body = b""
        if payload is not None:
            body = request_body(payload)
            head += f"Content-Length: {len(body)}\r\n"
        head += "Content-Type: application/json\r\n"
        token = self.cfg.auth_token()
        if token:
            if "\r" in token or "\n" in token:
                raise ValueError(f"{self.cfg.auth_token_env_var} holds a line break")
            head += f"Authorization: Bearer {token}\r\n"
        return (head + "\r\n").encode("latin-1") + body

    def _send(self, method: str, payload: dict | None, params: dict | None) -> tuple[int, bytes]:
        """One exchange on a connection of the origin's pool: the reply's
        status and body.

        The request goes out in one write, and the reply is read through the
        connection's buffered reader. The connection goes back to the pool
        once the whole reply is read, and is closed on any error. A
        kept-alive connection that the server has closed in the meantime
        fails with a reset, a broken pipe or no status line at all; the
        request then goes again at once, on the next connection the pool
        gives. A new connection that fails so raises, and a reply that breaks
        its framing raises an OSError, as a failed connection does."""
        target = self._target
        if params:
            target += ("&" if self._query else "?") + urlencode(params, doseq=True)
        request = self._request(method, target, payload)
        while True:
            connection, new = self._origin.take(self._connect)
            try:
                try:
                    line = connection.send(request, self.cfg.timeout_s)
                except (ConnectionResetError, BrokenPipeError):
                    if new:
                        raise
                    self._origin.drop(connection, new=False, stale=True)
                    continue
                reply = connection.reply(line)
            except BaseException:
                self._origin.drop(connection, new)
                raise
            self._origin.put(connection, new)
            return reply

    def _fetch(self, method: str, payload: dict | None, params: dict | None) -> bytes:
        last_error: str = "no attempt made"
        last_status: int | None = None
        for attempt in range(self.cfg.max_retries + 1):
            if attempt:
                self._sleep(_BACKOFF_BASE_S * (2 ** (attempt - 1)))
            self._origin.acquire()
            try:
                status, content = self._send(method, payload, params)
            except OSError as err:
                last_error = f"request failed: {err}"
                continue
            if status in _RETRYABLE_STATUSES:
                last_error = f"transient HTTP {status}"
                last_status = status
                continue
            if status != 200:
                raise BackendError(f"HTTP {status} from {self.cfg.endpoint_url}", status=status)
            return content
        raise BackendError(
            f"{self.cfg.endpoint_url}: exhausted {self.cfg.max_retries + 1} attempts; "
            f"last error: {last_error}",
            status=last_status,
        )

    def request(self, kind: str, read: Callable[[bytes], _T], payload: dict | None = None,
                params: dict | None = None, sample_index: int = 0) -> _T:
        """`read` of the reply to a POST of `payload`, or else to a GET with
        the query `params`. With a cache, the reply is stored only if `read`
        accepts it, under the key of `kind` (which names `read`), the sample
        index and what goes on the wire: the body's values for a POST, the
        URL's path and own query and the query's values for a GET. No key
        holds the scheme, host or port, so an entry serves any server that
        takes the same request. A cache whose tool entries were keyed on the
        whole endpoint URL misses once on each of them."""
        if payload is None:
            method, sent = "GET", (self._target, *params.values())
        else:
            method, sent = "POST", payload.values()
        if self.cache is not None:
            return self.cache.get_or_fetch(
                cache_key((kind, sample_index, *sent)),
                lambda: self._fetch(method, payload, params), read,
            )
        return read(self._fetch(method, payload, params))

    def chat(self, kind: str, template: PromptTemplate, body: str,
             read: Callable[[bytes], _T], sample_index: int = 0, **extra) -> _T:
        """One chat completion: the template's preamble as the system message
        and `body` as the user message, returned through `read`; `extra` joins
        the POST."""
        cfg = self.cfg
        return self.request(
            kind,
            read,
            sample_index=sample_index,
            payload={
                "model": cfg.model_name,
                "messages": [
                    {"role": "system", "content": template.role_preamble},
                    {"role": "user", "content": body},
                ],
                "temperature": cfg.temperature,
                "n": 1,
                **extra,
            },
        )

    def chat_content(self, raw: bytes) -> str:
        """The `content` string of a chat reply's first choice."""
        try:
            body = json.loads(raw.decode("utf-8"))
            content = body["choices"][0]["message"]["content"]
            if not isinstance(content, str):
                raise TypeError(f"content is {type(content).__name__}, not a string")
            return content
        except (ValueError, KeyError, IndexError, TypeError) as err:
            raise BackendError(
                f"malformed chat response from {self.cfg.endpoint_url}: {err}"
            ) from err


class ChatCompletionGenerator:
    """Samples candidate steps from a chat-completion endpoint.

    Each of the `count` samples is an independent request (`samples`), and
    its sample index joins the sent body in its cache key, so equal bodies
    keep one entry per sample.
    Completions that do not parse into a step are dropped, never padded.
    """

    def __init__(
        self,
        cfg: BackendConfig,
        template: PromptTemplate,
        cache: FileResponseCache | None = None,
        sleep_fn: Callable[[float], None] = time.sleep,
        origins: dict[str, Origin] | None = None,
    ):
        self._endpoint = _Endpoint(cfg, cache, sleep_fn, origins)
        self._template = template

    def generate(self, problem: Problem, state: StepSequence, count: int) -> list[ReasoningStep]:
        return [step for step in self.samples(problem, state, range(count)) if step is not None]

    def samples(self, problem: Problem, state: StepSequence, indices: range):
        """The next step after `state` for each sample index, one request
        each, yielded as its reply comes: None when a completion does not
        parse."""
        body = self._template.render(problem=problem.statement,
                                     prior_steps=render_prior_steps(state))
        for index in indices:
            content = self._endpoint.chat("chat-step", self._template, body,
                                          self._endpoint.chat_content, index)
            yield parse_step_completion(content, len(state) + 1)


def _tool_result(raw: bytes) -> str:
    """The tool's answer: the `result` of a JSON object reply (a non-string
    result as its canonical JSON), else the reply text as it came."""
    text = raw.decode("utf-8", errors="replace")
    try:
        reply = json.loads(text)
    except ValueError:
        return text
    if not isinstance(reply, dict) or "result" not in reply:
        return text
    result = reply["result"]
    return result if isinstance(result, str) else canonical_json(result)


class ToolVerifier:
    """Two-stage verifier: query the external math tool, then have the judger
    model fuse the step text with the tool response into a boxed verdict.

    A judger response without a parseable boxed marker is not an error; the
    step comes back verifiable=False and the trace is filtered downstream.
    """

    def __init__(
        self,
        tool_cfg: BackendConfig,
        judger_cfg: BackendConfig,
        template: PromptTemplate,
        cache: FileResponseCache | None = None,
        sleep_fn: Callable[[float], None] = time.sleep,
        origins: dict[str, Origin] | None = None,
    ):
        self._tool = _Endpoint(tool_cfg, cache, sleep_fn, origins)
        self._judger = _Endpoint(judger_cfg, cache, sleep_fn, origins)
        self._template = template

    def verify(
        self, problem: Problem, step: ReasoningStep, context: StepSequence
    ) -> VerificationResult:
        return self.judge(problem, step, context, self.tool(step.action))

    def tool(self, query: str) -> str:
        """The math tool's answer to `query`, a step's action."""
        return self._tool.request("tool", _tool_result, params={"query": query})

    def judge(self, problem: Problem, step: ReasoningStep, context: StepSequence,
              tool_text: str) -> VerificationResult:
        """The judger's verdict on `step`, given the tool's answer to it."""
        body = self._template.render(
            problem=problem.statement,
            prior_steps=render_prior_steps(context),
            candidate_step=render_candidate(step),
            tool_response=tool_text,
        )
        content = self._judger.chat("judge-step", self._template, body, self._judger.chat_content)
        verdict = parse_verdict_marker(content)
        return VerificationResult(
            label=-1 if verdict is None else verdict,
            rationale=content,
            verifiable=verdict is not None,
        )


class ServedPrmScorer:
    """Scores a candidate step with a served generative PRM.

    In "label" mode the scalar is the parsed boxed verdict (+1/-1); an output
    with no marker is an error naming the sample, because greedy search must
    not guess. In "likelihood" mode the endpoint's token logprobs for the
    verdict position map to a scalar in [-1, 1].
    """

    def __init__(
        self,
        cfg: BackendConfig,
        template: PromptTemplate,
        cache: FileResponseCache | None = None,
        mode: str = "label",
        sleep_fn: Callable[[float], None] = time.sleep,
        origins: dict[str, Origin] | None = None,
    ):
        if mode not in SCORE_MODES:
            raise ValueError(f"unknown scorer mode: {mode!r}")
        self._endpoint = _Endpoint(cfg, cache, sleep_fn, origins)
        self._template = template
        self._mode = mode

    def score(self, problem: Problem, state: StepSequence, candidate: ReasoningStep) -> float:
        body = self._template.render(
            problem=problem.statement,
            prior_steps=render_prior_steps(state),
            candidate_step=render_candidate(candidate),
        )
        sample_name = f"{problem.id}@{candidate.index}"
        read = self._likelihood_score if self._mode == "likelihood" else self._label_score
        return self._endpoint.chat(
            f"score-{self._mode}",
            self._template,
            body,
            lambda raw: read(raw, sample_name),
            logprobs=self._mode == "likelihood",
        )

    def _label_score(self, raw: bytes, sample_name: str) -> float:
        verdict = parse_verdict_marker(self._endpoint.chat_content(raw))
        if verdict is None:
            raise BackendError(f"unparseable PRM output for sample {sample_name}")
        return float(verdict)

    @staticmethod
    def _likelihood_score(raw: bytes, sample_name: str) -> float:
        def canonical(token: str) -> str:
            return token.strip().replace("−", "-")

        try:
            body = json.loads(raw.decode("utf-8"))
            entries = body["choices"][0]["logprobs"]["content"]
            verdicts = [entry for entry in entries
                        if canonical(entry.get("token", "")) in ("+", "-")]
            alternatives = verdicts[-1].get("top_logprobs", []) if verdicts else []
            probs = {"+": 0.0, "-": 0.0}
            for alt in alternatives:
                token = canonical(alt.get("token", ""))
                if token in probs:
                    probs[token] = math.exp(alt["logprob"])
        except (ValueError, LookupError, TypeError, AttributeError, OverflowError) as err:
            raise BackendError(
                f"malformed logprobs in PRM response for sample {sample_name}: {err!r}"
            ) from err
        if not verdicts:
            raise BackendError(f"no verdict token logprobs for sample {sample_name}")
        total = probs["+"] + probs["-"]
        if not 0 < total < math.inf:  # also a NaN or infinite logprob
            raise BackendError(f"degenerate verdict likelihoods for sample {sample_name}")
        return (probs["+"] - probs["-"]) / total
