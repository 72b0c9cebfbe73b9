"""Runtime invariant contracts for the paper's stated properties.

The paper makes exact structural claims — half occupancy (mapped length is
exactly 1/2), the partition-count rule ``p >= 2*(n+1)``, unique ownership,
and boundary preservation under repartitioning — that the reproduction's
figures silently depend on.  This module turns those claims into *runtime
contracts*: lightweight decorators that re-validate an object's invariants
after every mutating operation, and pre/post-condition helpers for pure
functions.

Contracts are **on by default** (so every pytest run exercises them) and
disabled for performance work by setting ``REPRO_CONTRACTS=off`` in the
environment *before the package is imported*.  When disabled at import
time the decorators return the undecorated function, so the hot path pays
zero overhead — not even a flag check.  When enabled, tests may still
toggle checking dynamically with :func:`set_contracts` (used to measure
overhead and to test the toggle itself).

Usage::

    class Thing:
        @checks_invariants
        def mutate(self) -> None: ...
        def check_invariants(self) -> None: ...   # raises on breach

    def compute(...):
        require(x >= 0, "negative input {}", x)
        ...
        ensure(total == HALF, "half-occupancy broken: {} != {}", total, HALF)

A breached contract raises :class:`ContractViolation` (a subclass of
``AssertionError``) chaining the underlying validator error, so test
failures show both the operation that broke the invariant and the exact
breach.

Contract bypass
---------------
Re-validating after each mutator proves nothing about a write that never
goes through one: ``cluster._ownership[x] = y`` from another object, or
an undecorated method rebinding ``servers``.  So every contract-decorated
call also checks that the object's *protected state* — each instance
attribute its validator reads (:func:`validator_reads`) — is as the last
such call left it:

- when the outermost ``@checks_invariants``/``@preserves``/``@invariant``
  call on an object exits, returning or raising, it records a
  fingerprint of that state;
- the next outermost call on the object recomputes the fingerprint on
  entry and raises :class:`ContractViolation` naming the class and the
  attribute that changed in between.

The fingerprint holds the identity of each attribute's bound object
and, for a dict, list or set, of its entries (keys and values), not
nested objects' fields: a rebind, a subscript store, a ``del`` or a mutating
call such as ``.pop()`` shows; ``state.owner = x`` on an entry does not.
A write is sanctioned by *dynamic extent*: anything that runs inside a
contract-decorated call on the object — a private helper, a callback,
another object — may write its state, and nested decorated calls on one
object check and record only at the outermost level.  The fingerprint
lives in a side table keyed by the object's identity, never on the
object, so it is not part of its pickle, ``repr`` or ``==``.
"""

from __future__ import annotations

import ast
import functools
import inspect
import os
import textwrap
import weakref
from typing import Any, Callable, TypeVar

_F = TypeVar("_F", bound=Callable[..., Any])

#: Environment variable controlling the contract layer.
ENV_VAR = "REPRO_CONTRACTS"

#: Class validators, in the order the decorators probe them.
VALIDATORS = ("check_invariants", "check_consistency")


class ContractViolation(AssertionError):
    """An operation violated one of the paper's stated invariants."""


def _env_disabled() -> bool:
    """True when ``REPRO_CONTRACTS`` requests the zero-overhead mode."""
    return os.environ.get(ENV_VAR, "on").strip().lower() in (
        "off", "0", "false", "no", "disabled",
    )


#: Frozen at import: when True, decorators are identity functions.
COMPILED_OUT = _env_disabled()

_enabled = not COMPILED_OUT


def contracts_enabled() -> bool:
    """Whether contracts are currently being checked."""
    return _enabled and not COMPILED_OUT


def set_contracts(enabled: bool) -> bool:
    """Dynamically enable/disable checking; returns the previous state.

    Has no effect when contracts were compiled out at import time
    (``REPRO_CONTRACTS=off``): the wrappers no longer exist, so there is
    nothing to re-enable.  Tests use this to exercise both sides of the
    toggle without re-importing the package.  Either way the recorded
    fingerprints are dropped: state changed while checking was off is
    not a bypass.
    """
    # The toggle *is* process-global by design: it models the environment
    # switch, and COMPILED_OUT keeps the zero-overhead path honest.
    global _enabled  # repro-lint: disable=RPL009
    previous = _enabled
    _enabled = bool(enabled)
    _extents.clear()
    return previous


def require(condition: bool, message: str, *args: Any) -> None:
    """Precondition helper: raise :class:`ContractViolation` unless true."""
    if _enabled and not condition:
        raise ContractViolation("precondition failed: " + message.format(*args))


def ensure(condition: bool, message: str, *args: Any) -> None:
    """Postcondition helper: raise :class:`ContractViolation` unless true."""
    if _enabled and not condition:
        raise ContractViolation("postcondition failed: " + message.format(*args))


# ----------------------------------------------------------------------
# Protected state and the bypass check
# ----------------------------------------------------------------------
@functools.lru_cache(maxsize=None)
def validator_reads(cls: type) -> frozenset[str]:
    """Every ``self.<attr>`` the class validator reads, following the
    ``self.<helper>()`` methods it calls; properties count as reads.

    Empty for a class with no validator.
    """
    start = next((name for name in VALIDATORS if hasattr(cls, name)), None)
    reads: set[str] = set()
    todo, seen = [start] if start else [], set()
    while todo:
        name = todo.pop()
        if name in seen:
            continue
        seen.add(name)
        fn = inspect.unwrap(getattr(cls, name))
        tree = ast.parse(textwrap.dedent(inspect.getsource(fn)))
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id == "self"
            ):
                if inspect.isfunction(inspect.getattr_static(cls, node.attr, None)):
                    todo.append(node.attr)
                else:
                    reads.add(node.attr)
    return frozenset(reads)


@functools.lru_cache(maxsize=None)
def _protected(cls: type) -> tuple[str, ...]:
    """The instance attributes the bypass check fingerprints."""
    return tuple(sorted(
        attr for attr in validator_reads(cls)
        if not isinstance(inspect.getattr_static(cls, attr, None), property)
    ))


def _entries(value: Any) -> tuple[int, ...]:
    """Identities of ``value`` and, for a dict, list or set, its entries.

    Identities, not references: a fingerprint that held the entries
    could reach back to its own object (a server's engine holds the
    simulation's callbacks) and keep it alive from the side table.
    """
    if isinstance(value, dict):
        return (id(value), *map(id, value), *map(id, value.values()))
    if isinstance(value, (list, set)):
        return (id(value), *map(id, value))
    return (id(value),)


def _fingerprint(obj: Any, attrs: tuple[str, ...]) -> tuple[tuple[int, ...], ...]:
    state = vars(obj)
    return tuple(_entries(state.get(attr)) for attr in attrs)


class _Extent:
    """One tracked object: nesting depth of contract calls on it, and
    the fingerprint its last outermost call left (None before one)."""

    __slots__ = ("ref", "depth", "fingerprint")

    def __init__(self, obj: Any) -> None:
        self.ref = weakref.ref(obj, functools.partial(_forget, id(obj)))
        self.depth = 0
        self.fingerprint: tuple | None = None


def _forget(key: int, ref: weakref.ref) -> None:
    """Weakref callback: drop a dead object's extent (and only its own:
    the id may already name a newer object)."""
    extent = _extents.get(key)
    if extent is not None and extent.ref is ref:
        del _extents[key]


#: id(obj) -> its extent; an entry leaves with its object.
_extents: dict[int, _Extent] = {}


def _enter(obj: Any, method: Callable) -> _Extent | None:
    """Start a contract call on ``obj``; check for a bypass if outermost."""
    attrs = _protected(type(obj))
    if not attrs:
        return None
    extent = _extents.get(id(obj))
    if extent is None:
        extent = _extents[id(obj)] = _Extent(obj)
    elif extent.depth == 0 and extent.fingerprint is not None:
        current = _fingerprint(obj, attrs)
        for attr, before, after in zip(attrs, extent.fingerprint, current):
            if before != after:
                extent.fingerprint = None  # report a bypass once
                raise ContractViolation(
                    f"{type(obj).__name__}.{attr} changed outside its "
                    f"contract-wrapped mutators (found on entering "
                    f"{method.__name__})"
                )
    extent.depth += 1
    return extent


def _leave(obj: Any, extent: _Extent | None) -> None:
    """End a contract call; the outermost one records the fingerprint."""
    if extent is None:
        return
    extent.depth -= 1
    if extent.depth == 0:
        extent.fingerprint = _fingerprint(obj, _protected(type(obj)))


def _contract(method: _F, run: Callable[[Any, Callable[[], Any]], Any]) -> _F:
    """Wrap ``method`` in the bypass check around ``run(self, call)``,
    where ``call()`` invokes the method and ``run`` adds the contract."""
    if COMPILED_OUT:
        return method

    @functools.wraps(method)
    def wrapper(self: Any, *args: Any, **kwargs: Any) -> Any:
        if not _enabled:
            return method(self, *args, **kwargs)
        extent = _enter(self, method)
        try:
            return run(self, lambda: method(self, *args, **kwargs))
        finally:
            _leave(self, extent)

    return wrapper  # type: ignore[return-value]


# ----------------------------------------------------------------------
# Decorators
# ----------------------------------------------------------------------
def checks_invariants(method: _F) -> _F:
    """After ``method`` returns, call ``self.check_invariants()``.

    The decorated method's class must expose a ``check_invariants()`` (or
    ``check_consistency()``) validator that raises on breach.  Exceptions
    from the validator are re-raised as :class:`ContractViolation` naming
    the mutating operation, with the original error chained.
    """

    def run(self: Any, call: Callable[[], Any]) -> Any:
        result = call()
        # Single attribute probe on the hot path; validators may lean
        # on generation-counter caches of derived state (e.g. the
        # interval's segments cache) to keep re-validation cheap.
        validate = getattr(self, "check_invariants", None) or self.check_consistency
        try:
            validate()
        except ContractViolation:
            raise
        except Exception as exc:
            raise ContractViolation(
                f"{type(self).__name__}.{method.__name__} broke an "
                f"invariant: {exc}"
            ) from exc
        return result

    return _contract(method, run)


def preserves(
    capture: Callable[[Any], Any],
    message: str = "state not preserved",
) -> Callable[[_F], _F]:
    """Decorator factory: assert ``capture(self)`` is unchanged by the call.

    ``capture`` snapshots whatever must survive the operation (for
    :meth:`repro.core.interval.MappedInterval.repartition` that is every
    server's mapped segments — the paper's "further partitioning ... does
    not move any existing load").  The snapshots are compared with ``==``.
    """
    def decorate(method: _F) -> _F:
        def run(self: Any, call: Callable[[], Any]) -> Any:
            before = capture(self)
            result = call()
            after = capture(self)
            if before != after:
                raise ContractViolation(
                    f"{type(self).__name__}.{method.__name__}: {message} "
                    f"(before={before!r}, after={after!r})"
                )
            return result

        return _contract(method, run)

    return decorate


def invariant(
    predicate: Callable[[Any], bool],
    message: str,
) -> Callable[[_F], _F]:
    """Decorator factory: assert ``predicate(self)`` after the method.

    For invariants that are not part of an object's own
    ``check_invariants`` — e.g. the cluster simulation's "every file set
    is owned by exactly one registered server".
    """
    def decorate(method: _F) -> _F:
        def run(self: Any, call: Callable[[], Any]) -> Any:
            result = call()
            if not predicate(self):
                raise ContractViolation(
                    f"{type(self).__name__}.{method.__name__}: {message}"
                )
            return result

        return _contract(method, run)

    return decorate
