"""Exception hierarchy for the :mod:`repro` library.

Every exception raised by this library derives from :class:`ReproError`,
so callers can catch a single base class.  Subsystems define narrower
exceptions here (rather than in their own modules) to avoid circular
imports between substrates.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library.

    Every subclass carries a :attr:`transient` flag classifying the
    failure for the resilience layer: transient errors (timeouts,
    disconnects, DNS flaps, ...) are worth retrying; permanent errors
    (parse failures, missing DNS records, refused connections) are not.
    """

    #: Whether retrying the failed operation can plausibly succeed.
    transient = False


class URLError(ReproError):
    """An URL could not be parsed or is structurally invalid."""


class DOMError(ReproError):
    """An illegal DOM operation was attempted (e.g. cycle creation)."""


class SelectorError(DOMError):
    """A CSS selector or XPath expression could not be parsed."""


class ClosedShadowRootError(DOMError):
    """Script-level access to a closed shadow root was attempted.

    Mirrors the behaviour of real browsers where ``element.shadowRoot``
    returns ``null`` for closed shadow roots.
    """


class ParseError(ReproError):
    """Input (HTML, filter list, cookie header, ...) could not be parsed."""


class CookieError(ReproError):
    """A cookie is malformed or violates RFC 6265 constraints."""


class NetworkError(ReproError):
    """Base class for simulated network failures."""


class DNSError(NetworkError):
    """The simulated resolver has no record for a host."""


class ConnectionRefused(NetworkError):
    """The target host exists but refuses connections (unreachable site)."""


class TimeoutError(NetworkError):  # noqa: A001 - mirrors the stdlib name
    """A request exceeded its (virtual) time budget before completing."""

    transient = True


class TruncatedResponseError(NetworkError):
    """The response body arrived truncated or garbled (integrity check)."""

    transient = True


class DisconnectError(NetworkError):
    """The connection dropped mid-transfer (e.g. during a page visit)."""

    transient = True


class DNSFlapError(DNSError):
    """A transient resolver failure for a host that normally resolves."""

    transient = True


class DeadlineExceeded(ReproError):
    """A task's total (virtual) time budget ran out across attempts."""


class BreakerOpenError(ReproError):
    """A per-domain circuit breaker short-circuited the task."""


class NavigationError(ReproError):
    """The browser failed to navigate to a page."""


class NoSuchElementError(ReproError):
    """A WebDriver lookup matched no element (Selenium parity)."""


class ElementNotInteractableError(ReproError):
    """The element exists but cannot be clicked (hidden / detached)."""


class FilterSyntaxError(ParseError):
    """An ad-block filter line could not be parsed."""


class AuthenticationError(ReproError):
    """SMP login failed (wrong credentials or no subscription)."""


class WorldGenerationError(ReproError):
    """The synthetic web generator was misconfigured."""


class MeasurementError(ReproError):
    """A crawl/measurement could not be carried out."""


class AnalysisError(ReproError):
    """An analysis step received inconsistent or empty input."""


class TransportError(ReproError):
    """A shard bundle or worker reply failed to cross the wire.

    Distinct from :class:`NetworkError` (which models the *simulated*
    web): transport errors are faults of the harness's own distributed
    plane — a worker connection dropping mid-shard, a reply frame that
    is not valid JSON, or a reply whose outcomes do not cover the
    bundle.  The coordinator degrades the affected tasks to structured
    records instead of dropping them, so record counts always match
    the plan; :func:`error_category` classifies the whole family as
    ``"transport"``.
    """


class WorkerLostError(TransportError):
    """A distributed worker died (or its lease expired) mid-shard."""


class WireProtocolError(TransportError):
    """A wire frame could not be decoded or violated the protocol."""


# ---------------------------------------------------------------------------
# Taxonomy helpers
# ---------------------------------------------------------------------------

def is_transient(exc: BaseException) -> bool:
    """True when *exc* (or any exception in its cause chain) is transient.

    Walking ``__cause__``/``__context__`` matters because the browser
    wraps network failures (``NavigationError(...) from exc``): the
    wrapper itself is permanent, but a wrapped timeout still is a
    retryable fault.
    """
    seen = set()
    current: BaseException | None = exc
    while current is not None and id(current) not in seen:
        seen.add(id(current))
        if isinstance(current, ReproError) and current.transient:
            return True
        current = current.__cause__ or current.__context__
    return False


def _taxonomy() -> dict:
    """Map every :class:`ReproError` subclass name to its class."""
    by_name = {}
    stack = [ReproError]
    while stack:
        cls = stack.pop()
        by_name[cls.__name__] = cls
        stack.extend(cls.__subclasses__())
    return by_name


def error_category(name: str) -> str:
    """Classify an error *name* (as recorded in outcomes/records).

    Returns ``"transient"`` or ``"permanent"`` for names in the
    :class:`ReproError` taxonomy, ``"transport"`` for the
    :class:`TransportError` family (harness-plane faults: lost
    workers, malformed wire replies), and ``"unknown"`` for anything
    else — analysis code must not crash on error strings minted by
    future versions (or by custom crawlers).
    """
    cls = _taxonomy().get(name)
    if cls is None:
        return "unknown"
    if issubclass(cls, TransportError):
        return "transport"
    return "transient" if cls.transient else "permanent"
