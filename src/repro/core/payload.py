"""One traversal of a pipeline payload: content fingerprint, byte size, item count.

The run layer needs up to three facts about a payload — a deterministic
content hash, a content size in bytes and a logical item count
(telemetry, stage summaries, the ledger's source sizing).  This module
is the only code that walks a payload; :func:`walk_payload` returns all
three from a single pass, :func:`commit_pass` is the size-only pass the
runner makes over every stage output (it also freezes the output's
arrays), and :func:`fingerprint_payload` / :func:`payload_nbytes` /
:func:`payload_items` are entry points over the same walker (re-exported
from :mod:`repro.core.plan` and :mod:`repro.obs.resources`, where callers
have always found them).

**Fingerprint format** (frozen).  Content hashes are taken only at the
edges of a run, and these are their users: the run's input payload (the
lineage root and the journal's ``payload_fingerprint``), checkpoint
snapshots (the content digest a ``stage-commit`` record carries and
resume re-checks), the per-record keys of the gates and the quarantine,
and the parity oracle in the tests.  A stage output is *not* named by its
content but by its derivation (:meth:`repro.core.plan.StagePlan.derive`),
which is equal only for the same input id and plan; the source files
behind an input manifest are never hashed.
Every node hashes to the sha256 hex digest of a type-tagged token, and a
container hashes the *hex digests* of its children —

* ``None`` / ``bool`` / ``int`` / ``float`` / ``complex`` / ``str``:
  ``"<type name>:<repr>"``; bytes: the raw bytes; enum members
  ``"enum:<module>.<qualname>.<name>"``; paths ``"path:<str>"``;
* arrays and NumPy scalars: dtype + shape + buffer
  (:func:`repro.provenance.record.fingerprint_array`);
* ``list`` / ``tuple``: ``"seq:<n>"`` then the children in order; ``set``:
  ``"set:<n>"`` then the sorted children; ``dict``: ``"map:<n>"`` then the
  sorted ``key || value`` digest pairs;
* an object with its own ``fingerprint()`` method (a
  :class:`~repro.core.dataset.Dataset`): whatever that returns;
* functions and classes: ``"named:<module>.<qualname>"``;
* any other object hashes *structurally*:
  ``"obj:<module>.<qualname>"`` then ``name || digest`` per attribute —
  dataclass fields in declaration order, else the sorted instance
  ``__dict__``, else the sorted ``__slots__`` — never by ``id()`` or the
  default ``repr`` (which embeds a memory address).  Truly opaque objects
  raise ``TypeError`` instead of hashing unstably.

**Size** is a *content* estimate, not ``sys.getsizeof``: array buffers,
encoded strings, 8 bytes per number, 1 per bool, 0 for ``None`` and for
anything the walker cannot see into; an object exposing an integer
``nbytes`` is trusted; every other container or object is the sum of the
children the fingerprint visits.  A shared reference (``[arr, arr]``) is
content and counts twice.

**Freezing.**  :func:`commit_pass` sets every non-object ``ndarray`` it
meets ``writeable = False``, and its ``base`` chain with it (a view made
before the freeze keeps its own flag otherwise), and looks inside an
object that hashes itself (a ``Dataset``'s columns) for more.  A stage
that writes into its committed input then fails on the write.

Two rules are shared by hash and size because there is one traversal:
``functools.cached_property`` entries in an instance ``__dict__`` are a
cache, not content, and are skipped (reading ``graph.degree`` must change
neither number); and a node already on the current path is a *cycle*,
cut by identity — it hashes as ``"cycle:<levels up>"`` and adds 0 bytes.

What makes the walk cheap: dispatch is on the exact ``type()`` with the
scalar leaves handled inline; a class's attribute plan (field names,
cached-property names, slot names, which rule applies) is resolved once
per class, not once per object; child digests travel as ASCII bytes and
are hashed in one ``sha256`` call per node; and ``str`` / ``int`` leaves —
dict keys and node ids repeat once per record — are memoised for the
duration of one walk.  ``float`` is never memoised: ``-0.0 == 0.0`` and
``nan != nan``, so equality is the wrong key for a repr-based digest.

The array digests are the expensive part of a walk, and a checkpoint
commit needs them again for the same memory; :func:`walk_payload` hands
them out (``array_digests=``), keyed by :func:`memory_key`, into a dict
the caller owns for the one call, so no array is hashed twice and the
walker keeps no state of its own.  The key names the memory, not the
object, so a zero-copy rebuild of a payload (``pickle.loads(skeleton,
buffers=...)`` over the buffers its pickle handed out) reports the digests
of the original's buffers.

They are also the part that can run on another core (``hashlib`` releases
the GIL): *digest-ahead*.  The first time a hashing walk meets a
qualifying array — a plain, C-contiguous, non-object ``ndarray`` of
``AHEAD_MIN_BYTES`` or more — inside a container (a sequence, a mapping, a
structurally hashed object), it looks at that container's direct
children; if at least two of them qualify, it submits
:func:`fingerprint_array` of each to a helper pool, and the array visits
take the results in visiting order.  Every other digest — small, strided
or Fortran-order arrays, NumPy scalars, a ``Dataset``'s own single-stream
``fingerprint()`` — is computed inline, as is everything on a 1-CPU host.
(The look is made from the first large child, not on entering the
container: a walk meets tens of thousands of small dicts for every one
that holds large arrays, and a scan of each cost the walk ~12 %.)  The
pool (:func:`repro.core.helper_pool.helper_pool`) is started by the first
container that qualifies and shut down before the walk returns or raises;
the ``id -> pending digest`` map holds its arrays (so an id cannot be
reused while it waits), lives for that one call, and each entry is dropped
when its array is visited — it is not a memo across walks.  Helper threads
only read existing array memory, and the digests are the very ones an
inline walk computes.
"""

from __future__ import annotations

import concurrent.futures
import dataclasses
import enum
import functools
import inspect
import pathlib
from hashlib import sha256
from typing import Any, Callable, Dict, Iterable, Optional, Tuple

import numpy as np

from repro.core.helper_pool import helper_pool, helper_threads
from repro.provenance.record import fingerprint_array

__all__ = [
    "walk_payload",
    "memory_key",
    "commit_pass",
    "fingerprint_payload",
    "payload_nbytes",
    "payload_items",
]

#: the smallest array a hashing walk digests ahead on a helper thread (and
#: only beside a sibling that qualifies too); smaller ones hash inline
AHEAD_MIN_BYTES = 1 << 20

#: (hex digest as ASCII bytes — ``None`` on a size-only walk, content bytes)
_Result = Tuple[Optional[bytes], int]
#: ``str`` / ``int`` leaf -> its result, for the duration of one walk (plus,
#: on a hashing walk, its :class:`_DigestAhead` under :data:`_AHEAD` and,
#: under :data:`_ARRAY_DIGESTS`, the caller's array-digest collector)
_Memo = Dict[Any, Any]
#: ``id()`` of every container / object on the current path, outermost
#: first -> its children (what digest-ahead looks at)
_OnPath = Dict[int, Any]
#: ``handler(obj, hashing, memo, visiting) -> _Result``
_Handler = Callable[[Any, bool, _Memo, _OnPath], _Result]

#: leaf results kept per walk, and the longest string worth keeping (longer
#: ones are data, not repeated keys); together they bound the memo's memory
_MEMO_MAX = 4096
_MEMO_MAX_STR = 64

_MISSING = object()
#: memo keys of the walk's array-digest collector, of its digest-ahead and
#: of a freezing walk: no ``str`` / ``int`` leaf equals them, so the
#: per-walk state stays one dict and one argument
_ARRAY_DIGESTS = object()
_AHEAD = object()
_FREEZE = object()


class _DigestAhead:
    """The digest-ahead of one hashing walk (see the module docstring)."""

    __slots__ = ("pool", "pending", "scanned")

    def __init__(self) -> None:
        #: started by the first container that qualifies; ``False`` once
        #: the host has said it has one usable CPU
        self.pool: Any = None
        #: ``id(array) -> (array, its digest future)``, until it is visited
        self.pending: Dict[int, Tuple[np.ndarray, concurrent.futures.Future]] = {}
        #: the children last looked at, so a container is looked at once
        self.scanned: Any = None

    def digest(self, array: Any, visiting: _OnPath) -> str:
        """*array*'s digest: computed ahead, or inline."""
        entry = self.pending.pop(id(array), None)
        if entry is None and visiting and _qualifies(array):
            # the innermost container on the path is *array*'s parent
            children = next(reversed(visiting.values()))
            if children is not self.scanned:
                self.scanned = children
                self._submit(children.values() if isinstance(children, dict) else children)
                entry = self.pending.pop(id(array), None)
        return fingerprint_array(array) if entry is None else entry[1].result()

    def _submit(self, children: Iterable[Any]) -> None:
        """Start the digests of a container's qualifying children, if two."""
        arrays = {id(child): child for child in children if _qualifies(child)}
        if len(arrays) < 2:
            return
        if self.pool is None:
            threads = helper_threads()
            self.pool = helper_pool("digest-ahead", threads) if threads > 1 else False
        if not self.pool:
            return
        for key, array in arrays.items():
            if key not in self.pending:
                self.pending[key] = (array, self.pool.submit(fingerprint_array, array))

    def close(self) -> None:
        """Cancel what has not started, wait out what has."""
        if self.pool:
            self.pool.shutdown(wait=True, cancel_futures=True)
        self.pending.clear()
        self.scanned = None


def _qualifies(child: Any) -> bool:
    return (
        type(child) is np.ndarray
        and child.nbytes >= AHEAD_MIN_BYTES
        and child.flags.c_contiguous
        and not child.dtype.hasobject
    )


def walk_payload(
    payload: Any, array_digests: Optional[Dict[int, str]] = None
) -> Tuple[str, int, int]:
    """``(fingerprint, nbytes, items)`` of *payload* from one traversal.

    With *array_digests* (a dict the caller owns) the walk also records
    ``memory_key(array) -> fingerprint_array digest`` for every plain
    C-contiguous ``ndarray`` it hashes — the arrays whose memory is exactly
    the bytes that digest covers.  The keys are only meaningful while
    *payload* keeps the arrays alive and unmodified: use the dict at once
    and drop it.

    Raises
    ------
    TypeError
        For truly opaque objects: no content, no attributes, and only the
        default ``object.__repr__`` (which embeds a memory address and
        would hash differently on every run).
    """
    ahead = _DigestAhead()
    memo: _Memo = {_AHEAD: ahead}
    if array_digests is not None:
        memo[_ARRAY_DIGESTS] = array_digests
    try:
        digest, nbytes = _node(payload, True, memo, {})
    finally:
        ahead.close()
    assert digest is not None
    return digest.decode("ascii"), nbytes, payload_items(payload)


def memory_key(array: np.ndarray) -> Tuple[int, np.dtype, Tuple[int, ...]]:
    """Where a C-contiguous array's bytes start, and how they read: two
    such arrays with one key hold the same bytes under the same digest."""
    return (array.__array_interface__["data"][0], array.dtype, array.shape)


def fingerprint_payload(payload: Any) -> str:
    """Deterministic content hash of an arbitrary pipeline payload.

    Known containers and array types hash by content; arbitrary objects
    hash *structurally* (type name plus recursively-fingerprinted
    attributes), so two equal payloads hash identically across processes —
    a requirement for provenance chains and checkpoint verification.
    Raises ``TypeError`` for truly opaque objects (see :func:`walk_payload`).
    """
    return walk_payload(payload)[0]


def payload_nbytes(payload: Any) -> int:
    """Approximate content size in bytes of an arbitrary pipeline payload.

    Arrays and datasets report their buffer sizes exactly; containers and
    objects sum their members (cycles and cached properties cut off);
    scalars count their machine width; objects with an integer ``nbytes``
    attribute are trusted; everything else contributes 0 rather than
    guessing.  Nothing is hashed and opaque objects do not raise.
    """
    return _node(payload, False, {}, {})[1]


def commit_pass(payload: Any) -> Tuple[int, int]:
    """``(nbytes, items)`` of a payload being committed, from the size-only
    pass, which also freezes its arrays (see the module docstring)."""
    return _node(payload, False, {_FREEZE: True}, {})[1], payload_items(payload)


def payload_items(payload: Any) -> int:
    """Logical item count of a payload (dataset rows, array rows, container length)."""
    if payload is None:
        return 0
    n_samples = getattr(payload, "n_samples", None)
    if isinstance(n_samples, (int, np.integer)):
        return int(n_samples)
    if isinstance(payload, np.ndarray):
        return int(payload.shape[0]) if payload.ndim else 1
    if isinstance(payload, (str, bytes, bytearray)):
        return 1
    if isinstance(payload, (list, tuple, set, frozenset, dict)):
        return len(payload)
    return 1


# ---------------------------------------------------------------------------
# the walker
# ---------------------------------------------------------------------------


def _hex(token: bytes) -> bytes:
    return sha256(token).hexdigest().encode("ascii")


_NONE = _hex(b"NoneType:None")
_TRUE = _hex(b"bool:True")
_FALSE = _hex(b"bool:False")


def _node(obj: Any, hashing: bool, memo: _Memo, visiting: _OnPath) -> _Result:
    """Visit one node: exact-type dispatch, scalar leaves inline."""
    cls = type(obj)
    if cls is str or cls is int:
        # str and int keys cannot collide in one dict ("1" != 1); bool and
        # float have their own exact types and never reach the memo
        hit = memo.get(obj)
        if hit is not None:
            return hit
        if cls is int:
            result = (_hex(b"int:%d" % obj) if hashing else None, 8)
        else:
            result = (
                _hex(("str:" + repr(obj)).encode()) if hashing else None,
                len(obj) if obj.isascii() else len(obj.encode("utf-8", errors="replace")),
            )
            if len(obj) > _MEMO_MAX_STR:
                return result
        if len(memo) < _MEMO_MAX:
            memo[obj] = result
        return result
    if cls is float:
        return (_hex(("float:" + repr(obj)).encode()) if hashing else None, 8)
    if obj is None:
        return (_NONE, 0)
    if cls is bool:
        return (_TRUE if obj else _FALSE, 1)
    handler = _HANDLERS.get(cls)
    if handler is None:
        handler = _HANDLERS[cls] = _resolve(cls, obj)
    return handler(obj, hashing, memo, visiting)


def _backref(key: int, hashing: bool, visiting: _OnPath) -> _Result:
    """A node already on the current path: name how far up, add no bytes."""
    levels_up = len(visiting) - list(visiting).index(key)
    return (_hex(b"cycle:%d" % levels_up) if hashing else None, 0)


def _sequence(obj: Any, hashing: bool, memo: _Memo, visiting: _OnPath) -> _Result:
    key = id(obj)
    if key in visiting:
        return _backref(key, hashing, visiting)
    visiting[key] = obj
    # streamed into the digest: a long list must not pin every child digest
    digest = sha256(b"seq:%d" % len(obj)) if hashing else None
    total = 0
    for item in obj:
        child, nbytes = _node(item, hashing, memo, visiting)
        total += nbytes
        if digest is not None:
            digest.update(child)
    del visiting[key]
    return (digest.hexdigest().encode("ascii") if digest is not None else None, total)


def _set(obj: Any, hashing: bool, memo: _Memo, visiting: _OnPath) -> _Result:
    # hashable members cannot contain the set itself: no cycle bookkeeping
    total = 0
    children = []
    for item in obj:
        child, nbytes = _node(item, hashing, memo, visiting)
        total += nbytes
        children.append(child)
    if not hashing:
        return (None, total)
    children.sort()
    return (_hex(b"set:%d" % len(obj) + b"".join(children)), total)


def _mapping(obj: Any, hashing: bool, memo: _Memo, visiting: _OnPath) -> _Result:
    key = id(obj)
    if key in visiting:
        return _backref(key, hashing, visiting)
    visiting[key] = obj
    total = 0
    entries = []
    for k, value in obj.items():
        key_fp, key_nbytes = _node(k, hashing, memo, visiting)
        value_fp, value_nbytes = _node(value, hashing, memo, visiting)
        total += key_nbytes + value_nbytes
        if hashing:
            # equal-length hex digests: sorting the concatenation is sorting
            # the (key, value) digest pairs
            entries.append(key_fp + value_fp)
    del visiting[key]
    if not hashing:
        return (None, total)
    entries.sort()
    return (_hex(b"map:%d" % len(obj) + b"".join(entries)), total)


def _array(obj: Any, hashing: bool, memo: _Memo, visiting: Any) -> _Result:
    """Arrays, and NumPy scalars (hashed as the 1-element array they coerce to)."""
    if not hashing:
        chain = obj if _FREEZE in memo else None
        while isinstance(chain, np.ndarray) and not chain.dtype.hasobject:
            chain.flags.writeable = False
            chain = chain.base
        return (None, int(obj.nbytes))
    if obj.nbytes >= AHEAD_MIN_BYTES:
        digest = memo[_AHEAD].digest(obj, visiting)
    else:
        digest = fingerprint_array(obj)
    collector = memo.get(_ARRAY_DIGESTS)
    if collector is not None and type(obj) is np.ndarray and obj.flags.c_contiguous:
        collector[memory_key(obj)] = digest
    return (digest.encode("ascii"), int(obj.nbytes))


def _bytes(obj: Any, hashing: bool, memo: Any, visiting: Any) -> _Result:
    return (_hex(bytes(obj)) if hashing else None, len(obj))


def _primitive(obj: Any, hashing: bool, memo: Any, visiting: Any) -> _Result:
    """``complex`` and subclasses of the scalar builtins (an ``IntEnum`` member)."""
    if isinstance(obj, str):
        nbytes = len(obj.encode("utf-8", errors="replace"))
    else:
        nbytes = 1 if isinstance(obj, bool) else 8
    return (_hex(f"{type(obj).__name__}:{obj!r}".encode()) if hashing else None, nbytes)


def _enum(obj: Any, hashing: bool, memo: _Memo, visiting: _OnPath) -> _Result:
    cls = type(obj)
    token = f"enum:{cls.__module__}.{cls.__qualname__}.{obj.name}"
    # identity is the member name; its size is whatever the value weighs
    # (a size-only visit: own memo, so no digest-less entry leaks into ours)
    return (_hex(token.encode()) if hashing else None, _node(obj.value, False, {}, visiting)[1])


def _path(obj: Any, hashing: bool, memo: Any, visiting: Any) -> _Result:
    return (_hex(f"path:{obj}".encode()) if hashing else None, 0)


def _named(obj: Any, hashing: bool, memo: Any, visiting: Any) -> _Result:
    """Functions and classes hash by qualified name and carry no content."""
    qualname = getattr(obj, "__qualname__", getattr(obj, "__name__", ""))
    token = f"named:{getattr(obj, '__module__', '')}.{qualname}"
    return (_hex(token.encode()) if hashing else None, 0)


def _declared_nbytes(obj: Any) -> Optional[int]:
    nbytes = getattr(obj, "nbytes", None)
    return int(nbytes) if isinstance(nbytes, (int, np.integer)) else None


def _self_hashing(obj: Any, hashing: bool, memo: Any, visiting: Any) -> _Result:
    """An object with its own ``fingerprint()`` also answers for its own size."""
    if _FREEZE in memo and hasattr(obj, "__dict__"):
        _node(obj.__dict__, False, memo, visiting)  # only to freeze what it holds
    return (str(obj.fingerprint()).encode() if hashing else None, _declared_nbytes(obj) or 0)


def _by_repr(obj: Any, hashing: bool, memo: Any, visiting: Any) -> _Result:
    # a deliberate, value-based repr is an acceptable last resort
    return (_hex(repr(obj).encode()) if hashing else None, _declared_nbytes(obj) or 0)


def _opaque(obj: Any, hashing: bool, memo: Any, visiting: Any) -> _Result:
    if hashing:
        cls = type(obj)
        raise TypeError(
            f"cannot fingerprint opaque object of type "
            f"{cls.__module__}.{cls.__qualname__}: it has no "
            "content hash, no attributes, and only the default repr "
            "(which embeds a memory address)"
        )
    return (None, _declared_nbytes(obj) or 0)


def _structural(cls: type, names: Optional[Tuple[str, ...]]) -> _Handler:
    """Handler hashing type identity plus named attributes, recursively.

    *names* is the class's fixed attribute list (dataclass fields, slots);
    ``None`` means "the instance ``__dict__``, sorted, minus the class's
    ``functools.cached_property`` names" — a cached value is written into
    the instance dict on first access, often with a back-reference to its
    owner, and merely *reading* a property must change neither the
    fingerprint nor the size.
    """
    prefix = f"obj:{cls.__module__}.{cls.__qualname__}".encode()
    cached: frozenset = frozenset()
    if names is None:
        merged: Dict[str, Any] = {}
        for klass in reversed(cls.__mro__):
            merged.update(vars(klass))
        cached = frozenset(
            name for name, attr in merged.items()
            if isinstance(attr, functools.cached_property)
        )

    def handler(obj: Any, hashing: bool, memo: _Memo, visiting: _OnPath) -> _Result:
        key = id(obj)
        if key in visiting:
            return _backref(key, hashing, visiting)
        if names is None:
            attrs = obj.__dict__
            pairs = [(name, attrs[name]) for name in sorted(attrs) if name not in cached]
        else:
            # a slot (or field) never assigned is absent, not None
            pairs = [
                (name, value) for name in names
                if (value := getattr(obj, name, _MISSING)) is not _MISSING
            ]
        visiting[key] = [value for _, value in pairs]
        total = 0
        parts = [prefix]
        for name, value in pairs:
            child, nbytes = _node(value, hashing, memo, visiting)
            total += nbytes
            if hashing:
                parts.append(name.encode())
                parts.append(child)
        del visiting[key]
        declared = _declared_nbytes(obj)
        return (_hex(b"".join(parts)) if hashing else None, total if declared is None else declared)

    return handler


def _slot_names(cls: type) -> Tuple[str, ...]:
    """``__slots__`` names across the MRO, sorted (empty if slot-less)."""
    names = set()
    for klass in cls.__mro__:
        slots = getattr(klass, "__slots__", ())
        if isinstance(slots, str):
            slots = (slots,)
        names.update(s for s in slots if s not in ("__dict__", "__weakref__"))
    return tuple(sorted(names))


def _resolve(cls: type, obj: Any) -> _Handler:
    """Pick the rule for a class, once; *obj* is the first instance seen.

    The order is the fingerprint format's precedence and must not change:
    an ``IntEnum`` member is an ``int`` before it is an enum, a dataclass
    with a ``fingerprint()`` method hashes itself, an object with both a
    ``__dict__`` and slots is described by its ``__dict__``.
    """
    if issubclass(cls, (np.ndarray, np.generic)):
        return _array
    if issubclass(cls, (bytes, bytearray)):
        return _bytes
    if issubclass(cls, (bool, int, float, complex, str)):
        return _primitive
    if issubclass(cls, enum.Enum):
        return _enum
    if issubclass(cls, pathlib.PurePath):
        return _path
    if issubclass(cls, (list, tuple)):
        return _sequence
    if issubclass(cls, (set, frozenset)):
        return _set
    if issubclass(cls, dict):
        return _mapping
    is_class = issubclass(cls, type)
    if callable(getattr(cls, "fingerprint", None)) and not is_class:
        return _self_hashing
    if is_class or inspect.isroutine(obj):
        return _named
    if dataclasses.is_dataclass(cls):
        return _structural(cls, tuple(f.name for f in dataclasses.fields(cls)))
    if hasattr(obj, "__dict__"):
        return _structural(cls, None)
    slots = _slot_names(cls)
    if slots:
        return _structural(cls, slots)
    if cls.__repr__ is not object.__repr__:
        return _by_repr
    return _opaque


#: class -> rule.  A pure cache of :func:`_resolve` (a function of the class
#: alone), seeded with the exact builtin types so they never take the ladder
_HANDLERS: Dict[type, _Handler] = {
    list: _sequence,
    tuple: _sequence,
    dict: _mapping,
    set: _set,
    frozenset: _set,
    np.ndarray: _array,
    bytes: _bytes,
    bytearray: _bytes,
    complex: _primitive,
}
