"""Structured logging for the ``repro`` namespace.

All library loggers hang off the ``repro`` root (``repro.federated``,
``repro.control``, ``repro.experiments``, ...) so one
:func:`setup_logging` call controls the whole stack. Two formatters are
provided, both machine-parseable:

* ``key=value`` lines (the default) — greppable, ordered
  ``ts= level= logger= msg=`` followed by any structured extras;
* JSON lines (``--log-json`` on the CLI) — one object per record for
  log shippers.

Emitting structured fields uses the stdlib ``extra`` mechanism::

    log = get_logger("federated")
    log.info("round complete", extra={"round": 3, "stragglers": 0})

Without :func:`setup_logging` the ``repro`` root holds only a
:class:`logging.NullHandler` and has an effective level of WARNING, so
instrumented INFO/DEBUG calls short out inside
:meth:`logging.Logger.isEnabledFor`, and warnings reach a host
application's own handlers but never Python's last-resort stderr
printer — the library stays quiet and cheap by default.
"""

from __future__ import annotations

import json
import logging
import sys
from typing import IO, Optional, Union

#: The root of every logger this library creates.
ROOT_LOGGER_NAME = "repro"

#: Attributes present on every vanilla LogRecord; anything beyond these
#: was supplied via ``extra=...`` and is emitted as a structured field.
_STANDARD_RECORD_ATTRS = frozenset(
    logging.LogRecord("", 0, "", 0, "", (), None).__dict__
) | {"message", "asctime", "taskName"}


def _extra_fields(record: logging.LogRecord) -> dict:
    return {
        key: value
        for key, value in record.__dict__.items()
        if key not in _STANDARD_RECORD_ATTRS
    }


def _format_value(value: object) -> str:
    text = str(value)
    if any(ch in text for ch in ' ="'):
        return json.dumps(text)
    return text


class KeyValueFormatter(logging.Formatter):
    """``ts=... level=... logger=... msg=... key=value ...`` lines."""

    def format(self, record: logging.LogRecord) -> str:
        parts = [
            f"ts={self.formatTime(record, datefmt='%Y-%m-%dT%H:%M:%S')}",
            f"level={record.levelname}",
            f"logger={record.name}",
            f"msg={_format_value(record.getMessage())}",
        ]
        for key, value in sorted(_extra_fields(record).items()):
            parts.append(f"{key}={_format_value(value)}")
        if record.exc_info:
            parts.append(f"exc={_format_value(self.formatException(record.exc_info))}")
        return " ".join(parts)


class JsonFormatter(logging.Formatter):
    """One JSON object per record; extras become top-level keys."""

    def format(self, record: logging.LogRecord) -> str:
        payload = {
            "ts": self.formatTime(record, datefmt="%Y-%m-%dT%H:%M:%S"),
            "level": record.levelname,
            "logger": record.name,
            "msg": record.getMessage(),
        }
        for key, value in _extra_fields(record).items():
            try:
                json.dumps(value)
            except (TypeError, ValueError):
                value = str(value)
            payload[key] = value
        if record.exc_info:
            payload["exc"] = self.formatException(record.exc_info)
        return json.dumps(payload)


logging.getLogger(ROOT_LOGGER_NAME).addHandler(logging.NullHandler())


def get_logger(name: str = "") -> logging.Logger:
    """A logger under the ``repro`` namespace.

    ``get_logger("federated")`` and ``get_logger("repro.federated")``
    return the same logger; ``get_logger()`` returns the ``repro`` root.
    """
    if not name:
        return logging.getLogger(ROOT_LOGGER_NAME)
    if name == ROOT_LOGGER_NAME or name.startswith(ROOT_LOGGER_NAME + "."):
        return logging.getLogger(name)
    return logging.getLogger(f"{ROOT_LOGGER_NAME}.{name}")


def setup_logging(
    level: Union[int, str] = "INFO",
    json_output: bool = False,
    stream: Optional[IO[str]] = None,
) -> logging.Logger:
    """Configure the ``repro`` root logger and return it.

    Idempotent: repeated calls replace the previously installed
    handler rather than stacking duplicates. ``propagate`` is disabled
    so host applications' root-logger configuration never double-prints
    library records.
    """
    if isinstance(level, str):
        resolved = logging.getLevelName(level.upper())
        if not isinstance(resolved, int):
            raise ValueError(f"unknown log level {level!r}")
        level = resolved
    root = logging.getLogger(ROOT_LOGGER_NAME)
    handler = logging.StreamHandler(stream if stream is not None else sys.stderr)
    handler.setFormatter(JsonFormatter() if json_output else KeyValueFormatter())
    for existing in list(root.handlers):
        root.removeHandler(existing)
        existing.close()
    root.addHandler(handler)
    root.setLevel(level)
    root.propagate = False
    return root


def reset_logging() -> None:
    """Undo :func:`setup_logging`, back to the quiet default (tests)."""
    root = logging.getLogger(ROOT_LOGGER_NAME)
    for existing in list(root.handlers):
        root.removeHandler(existing)
        existing.close()
    root.addHandler(logging.NullHandler())
    root.setLevel(logging.NOTSET)
    root.propagate = True
