"""Public serving exception taxonomy.

Everything the serving layer can refuse to do maps to one of three
failures, all rooted at :class:`ServingError`:

* :class:`QueueFull` — admission control shed the request (the bounded
  scheduler queue is at capacity under ``admission="reject"``).
  Retryable: the wire transport maps it to HTTP 503 and the client
  retries with backoff.
* :class:`ModelNotFound` — the request routed to a model key nothing is
  registered under.  Not retryable (HTTP 404).
* :class:`InvalidRequest` — the request itself is malformed: empty
  window list, non-integer starts, an undecodable or oversized wire
  frame, or a start the model refuses (its input window leaves the
  data or holds a non-finite observed reading).  Not retryable
  (HTTP 400/413).

The taxonomy exists so the wire protocol's structured error frames map
1:1 to the exceptions in-process callers already catch: a client
talking HTTP sees *the same* ``QueueFull`` a thread submitting to the
scheduler directly would, regardless of transport.

Compatibility: :class:`ModelNotFound` also subclasses :class:`KeyError`
and :class:`InvalidRequest` also subclasses :class:`ValueError`, so
pre-taxonomy callers catching the builtin types keep working.
"""

from __future__ import annotations

__all__ = ["InvalidRequest", "ModelNotFound", "QueueFull", "ServingError"]


class ServingError(RuntimeError):
    """Base class for every failure the serving layer raises on purpose."""


class QueueFull(ServingError):
    """Admission control rejected a request: the scheduler queue is full."""


class ModelNotFound(ServingError, KeyError):
    """A request routed to a model key with nothing registered under it."""

    # KeyError.__str__ repr-quotes the message; keep the plain Exception
    # rendering so error text reads the same across the taxonomy.
    __str__ = BaseException.__str__


class InvalidRequest(ServingError, ValueError):
    """The request itself is malformed (empty, mistyped, or undecodable)."""
