from .base import BackendConfig, BackendError, StepGenerator, StepScorer, StepVerifier
from .remote import ChatCompletionGenerator, ServedPrmScorer, ToolVerifier
from .synthetic import ExactVerifier, OracleScorer, ScriptedGenerator
from .templates import PromptTemplate, builtin_template
from .transport import FileResponseCache, RateLimiter, cache_key, host_origins

__all__ = [
    "BackendConfig",
    "BackendError",
    "StepGenerator",
    "StepScorer",
    "StepVerifier",
    "ChatCompletionGenerator",
    "ToolVerifier",
    "ServedPrmScorer",
    "ExactVerifier",
    "OracleScorer",
    "ScriptedGenerator",
    "PromptTemplate",
    "builtin_template",
    "FileResponseCache",
    "RateLimiter",
    "cache_key",
    "host_origins",
]
