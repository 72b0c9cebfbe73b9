"""The process-cache registry: memo state reset at every worker start.

A forked worker inherits whatever the parent memoized (warm
``lru_cache`` cells, built segment maps); a spawned worker starts empty.
Either way the cache contents are a function of *process history*, not
of the cell being computed — so every worker initializer calls
:func:`clear_process_caches` and starts from a blank slate.  Modules
that keep such memos register their clear hook with
:func:`register_process_cache`.

This module is deliberately dependency-free — anything in the package
may import it, including :mod:`repro.core`.
"""

from __future__ import annotations

from typing import Callable

__all__ = [
    "register_process_cache",
    "clear_process_caches",
]

#: Registered cache-clear hooks, in registration order.
_HOOKS: list = []


def register_process_cache(clear: Callable[[], None]) -> Callable[[], None]:
    """Register a zero-arg cache-clear hook run at every worker start.

    ``clear`` is typically a bound ``cache_clear`` (``functools``
    memos), a dict's ``clear``, or a module-level function that resets
    instance caches.  Returns ``clear`` unchanged so the call can wrap a
    definition.  Registration is idempotent per callable identity.
    """
    if clear not in _HOOKS:
        _HOOKS.append(clear)
    return clear


def clear_process_caches() -> None:
    """Invoke every registered hook; worker initializers call this first.

    After this returns, no memo state populated by the parent process
    (or by previous cells in a reused worker, had anything leaked) can
    influence the next cell: caches rebuild from authoritative inputs.
    """
    for hook in list(_HOOKS):
        hook()
