"""Plan layer: StagePlan validation, introspection, structural fingerprints."""

import copy
import dataclasses
import enum
import functools
import hashlib
import inspect
import pathlib
import threading
import time

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.core import payload as walker
from repro.core.dataset import Dataset, DatasetMetadata, FieldSpec, Schema
from repro.core.levels import DataProcessingStage
from repro.core.payload import memory_key, payload_items, payload_nbytes, walk_payload
from repro.core.plan import (
    Parallelism,
    PipelineError,
    PipelineStage,
    StagePlan,
    fingerprint_payload,
)
from repro.provenance.record import fingerprint_array

S = DataProcessingStage


def passthrough(payload, ctx):
    return payload


def stage(name, s=S.TRANSFORM, **kw):
    return PipelineStage(name, s, passthrough, **kw)


class TestStagePlanValidation:
    def test_empty_plan_rejected(self):
        with pytest.raises(PipelineError, match="at least one"):
            StagePlan.build("p", [])

    def test_canonical_order_enforced(self):
        with pytest.raises(PipelineError, match="canonical order"):
            StagePlan.build("p", [stage("a", S.SHARD), stage("b", S.INGEST)])

    def test_order_error_lists_offending_labels(self):
        with pytest.raises(PipelineError, match=r"\['Shard', 'Ingest'\]"):
            StagePlan.build("p", [stage("a", S.SHARD), stage("b", S.INGEST)])

    def test_repeated_canonical_stage_allowed(self):
        plan = StagePlan.build("p", [stage("a"), stage("b")])
        assert len(plan) == 2

    def test_duplicate_stage_names_rejected(self):
        with pytest.raises(PipelineError, match="duplicated: \\['a'\\]"):
            StagePlan.build("p", [stage("a"), stage("a")])

    def test_validation_errors_have_no_stage_attribution(self):
        with pytest.raises(PipelineError) as info:
            StagePlan.build("p", [])
        assert info.value.stage_name is None
        assert info.value.stage_index is None


class TestStagePlanIntrospection:
    def test_iteration_and_indexing(self):
        plan = StagePlan.build("p", [stage("a", S.INGEST), stage("b", S.SHARD)])
        assert [s.name for s in plan] == ["a", "b"]
        assert plan[1].name == "b"
        assert plan.stage_names == ["a", "b"]
        assert plan.index_of("b") == 1
        with pytest.raises(KeyError):
            plan.index_of("missing")

    def test_describe_renders_hints(self):
        plan = StagePlan.build(
            "p", [stage("regrid", S.PREPROCESS, parallelism=Parallelism.MAP)]
        )
        text = plan.describe()
        assert "regrid" in text and "map" in text


class TestPlanFingerprint:
    def test_stable_across_identical_plans(self):
        a = StagePlan.build("p", [stage("a", S.INGEST, params={"k": 1})])
        b = StagePlan.build("p", [stage("a", S.INGEST, params={"k": 1})])
        assert a.fingerprint() == b.fingerprint()

    def test_sensitive_to_structure(self):
        a = StagePlan.build("p", [stage("a", S.INGEST)])
        b = StagePlan.build("p", [stage("b", S.INGEST)])
        assert a.fingerprint() != b.fingerprint()

    def test_insensitive_to_stage_function_identity(self):
        """Rebinding a stage fn (new process, monkeypatch) keeps checkpoints valid."""
        a = StagePlan.build(
            "p", [PipelineStage("a", S.INGEST, lambda p, c: p)]
        )
        b = StagePlan.build(
            "p", [PipelineStage("a", S.INGEST, lambda p, c: None)]
        )
        assert a.fingerprint() == b.fingerprint()


class _Color(enum.Enum):
    RED = 1


@dataclasses.dataclass
class _Point:
    x: float
    y: float


class _Plain:
    def __init__(self, value):
        self.value = value


class _Slotted:
    __slots__ = ("a", "b")

    def __init__(self, a, b):
        self.a = a
        self.b = b


class TestFingerprintPayload:
    def test_plain_object_stable_across_instances(self):
        """The old repr fallback embedded id(); structural hashing does not."""
        assert fingerprint_payload(_Plain(3)) == fingerprint_payload(_Plain(3))

    def test_plain_object_content_sensitive(self):
        assert fingerprint_payload(_Plain(3)) != fingerprint_payload(_Plain(4))

    def test_dataclass_structural(self):
        assert fingerprint_payload(_Point(1.0, 2.0)) == fingerprint_payload(
            _Point(1.0, 2.0)
        )
        assert fingerprint_payload(_Point(1.0, 2.0)) != fingerprint_payload(
            _Point(2.0, 1.0)
        )

    def test_slotted_object_structural(self):
        assert fingerprint_payload(_Slotted(1, "x")) == fingerprint_payload(
            _Slotted(1, "x")
        )
        assert fingerprint_payload(_Slotted(1, "x")) != fingerprint_payload(
            _Slotted(2, "x")
        )

    def test_nested_objects_recursive(self):
        a = _Plain({"p": _Point(1.0, 2.0), "path": pathlib.Path("/data")})
        b = _Plain({"p": _Point(1.0, 2.0), "path": pathlib.Path("/data")})
        assert fingerprint_payload(a) == fingerprint_payload(b)

    def test_opaque_object_raises(self):
        with pytest.raises(TypeError, match="opaque"):
            fingerprint_payload(object())

    def test_enum_and_path_and_set(self):
        assert fingerprint_payload(_Color.RED) == fingerprint_payload(_Color.RED)
        assert fingerprint_payload(pathlib.Path("/a/b")) == fingerprint_payload(
            pathlib.PurePosixPath("/a/b")
        )
        assert fingerprint_payload({3, 1, 2}) == fingerprint_payload({2, 3, 1})

    def test_type_confusion_resisted(self):
        """Same scalar repr under different types must hash differently."""
        assert fingerprint_payload(1) != fingerprint_payload(True)
        assert fingerprint_payload("1") != fingerprint_payload(1)

    def test_numpy_scalar_hashes_by_content(self):
        assert fingerprint_payload(np.float64(1.5)) == fingerprint_payload(
            np.float64(1.5)
        )

    def test_stage_functions_hash_by_qualified_name(self):
        assert fingerprint_payload(passthrough) == fingerprint_payload(passthrough)

    def test_cached_property_reads_do_not_change_the_fingerprint(self):
        """Derived caches (with back-references) are not payload content.

        ``functools.cached_property`` writes its value into the instance
        dict on first access; reading one must neither alter the hash nor
        recurse forever when the cached view back-references its owner
        (the networkx graph-view shape).
        """
        import functools

        class View:
            def __init__(self, owner):
                self._owner = owner  # back-reference: a naive walk cycles

        class Node:
            def __init__(self, weight):
                self.weight = weight

            @functools.cached_property
            def view(self):
                return View(self)

        untouched = Node(3.0)
        before = fingerprint_payload(untouched)
        touched = Node(3.0)
        _ = touched.view  # populates touched.__dict__["view"]
        assert "view" in touched.__dict__
        assert fingerprint_payload(touched) == before


# ---------------------------------------------------------------------------
# digest-format identity: goldens, a reference ladder, generated payloads
# ---------------------------------------------------------------------------

class _GoldColor(enum.Enum):
    RED = 1


class _GoldLevel(enum.IntEnum):
    HIGH = 3


@dataclasses.dataclass
class _GoldPoint:
    x: float
    y: float


class _GoldView:
    def __init__(self, owner):
        self._owner = owner  # back-reference: the networkx graph-view shape


class _GoldNode:
    def __init__(self, weight):
        self.weight = weight
        self.tags = ["a", "b"]

    @functools.cached_property
    def view(self):
        return _GoldView(self)


class _GoldSlotted:
    __slots__ = ("a", "b", "never_assigned")

    def __init__(self, a, b):
        self.a = a
        self.b = b


class _GoldSelfHashing:
    def fingerprint(self):
        return "f" * 64


def _gold_routine(payload, ctx):
    return payload


# digests embed ``__module__`` and ``__qualname__``; pin both so the goldens
# do not depend on how pytest names this module
for _gold in (_GoldColor, _GoldLevel, _GoldPoint, _GoldView, _GoldNode, _GoldSlotted,
              _GoldSelfHashing, _gold_routine):
    _gold.__module__ = "golden"
    _gold.__qualname__ = _gold.__name__


def _gold_dataset():
    return Dataset(
        {"x": np.arange(6, dtype=np.float64), "k": np.arange(6, dtype=np.int32)},
        Schema([FieldSpec("x", np.dtype(np.float64)), FieldSpec("k", np.dtype(np.int32))]),
        DatasetMetadata(name="t", domain="test"),
    )


def _gold_read_node():
    node = _GoldNode(3.0)
    assert node.view._owner is node  # populates node.__dict__["view"]
    return node


def _gold_records():
    return [
        {"id": f"calc-{i:03d}", "species": ["Si"] * 3, "energy_ev": -1.25 * i,
         "lattice": np.eye(3) * (i + 1), "fidelity": "dft", "n": i}
        for i in range(4)
    ]


#: one payload per branch of the digest format -> (builder, digest at the
#: commit before the single walker replaced the two isinstance ladders)
GOLDEN = {
    "none": (
        lambda: None,
        "99bf08d8dc95c6aeb2d65ed7025a39215e31b4c92fccc2b5ed130b640db2cd7d",
    ),
    "bool": (
        lambda: True,
        "cbc78c2f695cf0a5b3b61d178907a93eceb1a56c58be85283f8ae795e39b4c39",
    ),
    "int": (
        lambda: 7,
        "a6abe6506e94a095d028c434bf4817bf97fa4626e799586bebd0aaeaaa4d5973",
    ),
    "negative-int": (
        lambda: -12345678901234567890,
        "40360b9a92091e2ffaa870742a905c40c6c488dc2c944e813f2bd1bdfca5851e",
    ),
    "float": (
        lambda: 1.5,
        "d5ff43d6cba9a7dc78c7517b0180c74a9d652785880f85bc03bfd47dfc148f7e",
    ),
    "negative-zero": (
        lambda: -0.0,
        "bd2f1339589f94046d77b42e568b22afe4f63f1080b99e7cd2d6e0c975d7c174",
    ),
    "complex": (
        lambda: 1 + 2j,
        "70d616674f41041c0ea1509dfbe4a05d29c3f4dbc2591a58df33517bcdf1d3cc",
    ),
    "str": (
        lambda: "readiness",
        "fc84b82d29005a0ff610081e0710553f29452c3b8a9330647f6ece25b864daee",
    ),
    "non-ascii-str": (
        lambda: "Å-ngström 'quoted'",
        "08ed540936de9375e0fd7a790084f6781253553b3884c346c1f113ef56d48143",
    ),
    "bytes": (
        lambda: b"\x00raw",
        "56e356e0cbfff92b48ba5f0794e2ef661222f7dbdad4b158888619fa07208fad",
    ),
    "bytearray": (
        lambda: bytearray(b"\x00raw"),
        "56e356e0cbfff92b48ba5f0794e2ef661222f7dbdad4b158888619fa07208fad",
    ),
    "enum": (
        lambda: _GoldColor.RED,
        "39763f674b93b55df10fef72d9bcb0d985090ed2a6b6c8754316d8b8d5ee2b45",
    ),
    "int-enum": (
        lambda: _GoldLevel.HIGH,
        "c51ddab5b14b3d524a62e49d3003fa9fb84720469b70ac64228dfe9ec377450b",
    ),
    "path": (
        lambda: pathlib.PurePosixPath("/data/run-1"),
        "86c4d2ed04639f31c771473e04677238620cecb07ca88ad729d8f6c944968cd1",
    ),
    "ndarray": (
        lambda: np.arange(6, dtype=np.float64).reshape(2, 3),
        "ac77a7378696380c9ebad9c593495e7fe037694988376398ff4a849869b6b319",
    ),
    "strided-ndarray": (
        lambda: np.arange(12, dtype=np.int16)[::2],
        "69cc15e20aa73a83b4c51245f4d09174290b260f09f9ef69cf1e258081669221",
    ),
    "numpy-scalar": (
        lambda: np.float32(2.5),
        "ea7ffdfbd8c55797c41a77226dad51c10e28fb0376831bb915c77778b1e6b1e1",
    ),
    "list": (
        lambda: [1, "a", None],
        "0e1861a737a73bc7bf09092ce37c185d023ca96ca866eb17f73c79224615c184",
    ),
    "tuple": (
        lambda: (1, "a", None),
        "0e1861a737a73bc7bf09092ce37c185d023ca96ca866eb17f73c79224615c184",
    ),
    "set": (
        lambda: {3, 1, 2},
        "346cffb066e4f6ad8315b453469fbd779b2f85b310e94ee1e0353f7a531ece9e",
    ),
    "frozenset": (
        lambda: frozenset({"x", "y"}),
        "ad366bf7e869f5c3683c9702e0329f9339968d9955f02faa42b842da1381013c",
    ),
    "dict": (
        lambda: {"b": 1, "a": [2.0], 3: {"nested": (True,)}},
        "6e3e75ea0f11b1ea4c45a01118644ea7d2454fda0f92e86b7f87e85428001750",
    ),
    "dataset": (
        _gold_dataset,
        "681b61ccb9da0d4581b78579ce8be402a27a513259e0beacf229daeb35f77a3c",
    ),
    "dataclass": (
        lambda: _GoldPoint(1.0, 2.0),
        "e69a31ac9d9c48b7cc7d858ecc11042e582e07206e417cd243c2e4853d19a779",
    ),
    "dict-object": (
        lambda: _GoldNode(3.0),
        "b5f18391d49903612cea419d098ca55b46bb04bebac65ce53112ea9e3d6e8b1e",
    ),
    "dict-object-after-cached-property-read": (
        _gold_read_node,
        "b5f18391d49903612cea419d098ca55b46bb04bebac65ce53112ea9e3d6e8b1e",
    ),
    "slotted": (
        lambda: _GoldSlotted(1, "x"),
        "866f557d6d5775f071722ea0128f3252316ce710cf25b9afc955c03a28ad3cf3",
    ),
    "self-hashing": (
        lambda: _GoldSelfHashing(),
        "ffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff",
    ),
    "routine": (
        lambda: _gold_routine,
        "7e72d92a2bf325f10db6932cca93ccde500a85d66eb1c8a1224c9e06e584cf5e",
    ),
    "class": (
        lambda: _GoldPoint,
        "bf9a3175f8c1173fe2a7d1b785a2a895882da24e401e90f859532c0ac9aa99ab",
    ),
    "repr-fallback": (
        lambda: range(3),
        "53d92753cee611cf4d89ed202e9823609fb582f2325584f2b697a3c600d1c6a0",
    ),
    "records": (
        _gold_records,
        "66332a27a0d60b0849a6ecd6b7c82a3ff7e62abd7522a7ad4c6a7079c7dac018",
    ),
}

def _reference_fingerprint(payload):
    """The pre-walker ``fingerprint_payload``: one ``isinstance`` ladder per node.

    Kept here as the oracle the single walker is compared against on
    generated payloads — the digest format is whatever this computes.
    """
    sha = hashlib.sha256
    if isinstance(payload, Dataset):
        return payload.fingerprint()
    if isinstance(payload, np.ndarray):
        return fingerprint_array(payload)
    if isinstance(payload, np.generic):
        return fingerprint_array(np.asarray(payload))
    if isinstance(payload, (bytes, bytearray)):
        return sha(bytes(payload)).hexdigest()
    if payload is None or isinstance(payload, (bool, int, float, complex, str)):
        return sha(f"{type(payload).__name__}:{payload!r}".encode()).hexdigest()
    if isinstance(payload, enum.Enum):
        cls = type(payload)
        return sha(f"enum:{cls.__module__}.{cls.__qualname__}.{payload.name}".encode()).hexdigest()
    if isinstance(payload, pathlib.PurePath):
        return sha(f"path:{payload}".encode()).hexdigest()
    if isinstance(payload, (list, tuple)):
        digest = sha(f"seq:{len(payload)}".encode())
        for item in payload:
            digest.update(_reference_fingerprint(item).encode())
        return digest.hexdigest()
    if isinstance(payload, (set, frozenset)):
        digest = sha(f"set:{len(payload)}".encode())
        for fp in sorted(_reference_fingerprint(item) for item in payload):
            digest.update(fp.encode())
        return digest.hexdigest()
    if isinstance(payload, dict):
        digest = sha(f"map:{len(payload)}".encode())
        for key_fp, value_fp in sorted(
            (_reference_fingerprint(k), _reference_fingerprint(v)) for k, v in payload.items()
        ):
            digest.update(key_fp.encode())
            digest.update(value_fp.encode())
        return digest.hexdigest()
    fingerprint = getattr(payload, "fingerprint", None)
    if callable(fingerprint) and not isinstance(payload, type):
        return str(fingerprint())
    if inspect.isroutine(payload) or isinstance(payload, type):
        qualname = getattr(payload, "__qualname__", getattr(payload, "__name__", ""))
        return sha(f"named:{getattr(payload, '__module__', '')}.{qualname}".encode()).hexdigest()
    if dataclasses.is_dataclass(payload):
        pairs = [(f.name, getattr(payload, f.name)) for f in dataclasses.fields(payload)]
    elif getattr(payload, "__dict__", None) is not None:
        pairs = sorted(
            (name, value)
            for name, value in payload.__dict__.items()
            if not isinstance(
                inspect.getattr_static(type(payload), name, None), functools.cached_property
            )
        )
    else:
        names = {s for klass in type(payload).__mro__ for s in getattr(klass, "__slots__", ())}
        if not names:
            if type(payload).__repr__ is not object.__repr__:
                return sha(repr(payload).encode()).hexdigest()
            raise TypeError("opaque")
        pairs = [(n, getattr(payload, n)) for n in sorted(names) if hasattr(payload, n)]
    cls = type(payload)
    digest = sha(f"obj:{cls.__module__}.{cls.__qualname__}".encode())
    for name, value in pairs:
        digest.update(name.encode())
        digest.update(_reference_fingerprint(value).encode())
    return digest.hexdigest()


_leaves = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(allow_nan=True),
    st.text(max_size=80),  # straddles the walker's memo length cut-off
    st.binary(max_size=16),
    st.sampled_from([_GoldColor.RED, _GoldLevel.HIGH, pathlib.PurePosixPath("/a/b")]),
    st.builds(lambda n: np.arange(n, dtype=np.float32), st.integers(0, 4)),
)
_hashable_leaves = st.one_of(st.booleans(), st.integers(), st.text(max_size=8))
_payloads = st.recursive(
    _leaves,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=3).map(tuple),
        st.dictionaries(_hashable_leaves, children, max_size=4),
        st.frozensets(_hashable_leaves, max_size=4),
        st.builds(_GoldPoint, children, children),
        st.builds(_GoldSlotted, children, children),
        st.builds(_GoldNode, children),
    ),
    max_leaves=25,
)


def _reinsert_reversed(payload):
    """The same payload with every dict rebuilt in reverse insertion order."""
    if isinstance(payload, dict):
        return {k: _reinsert_reversed(payload[k]) for k in reversed(list(payload))}
    if isinstance(payload, (list, tuple)):
        return type(payload)(_reinsert_reversed(item) for item in payload)
    return payload


class TestDigestFormatIdentity:
    @pytest.mark.parametrize("name", sorted(GOLDEN))
    def test_golden_digests_from_the_parent_commit(self, name):
        build, digest = GOLDEN[name]
        assert fingerprint_payload(build()) == digest

    def test_reading_a_cached_property_keeps_the_golden(self):
        assert (
            GOLDEN["dict-object"][1] == GOLDEN["dict-object-after-cached-property-read"][1]
        )

    @pytest.mark.parametrize("name", sorted(GOLDEN))
    def test_collecting_array_digests_changes_no_golden(self, name):
        build, digest = GOLDEN[name]
        assert walk_payload(build(), {})[0] == digest

    def test_array_digests_cover_exactly_the_plain_c_contiguous_arrays(self):
        plain = np.arange(12.0).reshape(3, 4)
        fortran = np.asfortranarray(plain)
        strided = plain[:, ::2]
        payload = {"plain": plain, "again": [plain], "fortran": fortran, "strided": strided,
                   "scalar": np.float64(2.0), "zero_d": np.array(1.5),
                   "dataset": Dataset.from_arrays({"x": np.arange(3.0)})}
        collected = {}
        fingerprint = walk_payload(payload, collected)[0]
        assert fingerprint == walk_payload(payload)[0]
        assert collected == {
            memory_key(plain): fingerprint_array(plain),
            memory_key(payload["zero_d"]): fingerprint_array(payload["zero_d"]),
        }

    def test_opaque_object_still_raises_inside_containers(self):
        with pytest.raises(TypeError, match="opaque"):
            fingerprint_payload({"deep": [1, (object(),)]})

    def test_goldens_match_the_reference_ladder(self):
        for name, (build, digest) in GOLDEN.items():
            assert _reference_fingerprint(build()) == digest, name

    @given(_payloads)
    def test_matches_the_reference_ladder(self, payload):
        assert fingerprint_payload(payload) == _reference_fingerprint(payload)

    @given(_payloads)
    def test_copies_and_key_order_do_not_matter(self, payload):
        expected = walk_payload(payload)
        assert walk_payload(copy.deepcopy(payload)) == expected
        assert walk_payload(_reinsert_reversed(payload)) == expected

    @given(_payloads)
    def test_fused_walk_equals_the_separate_entry_points(self, payload):
        assert walk_payload(payload) == (
            fingerprint_payload(payload),
            payload_nbytes(payload),
            payload_items(payload),
        )

    @given(st.lists(_payloads, min_size=1, max_size=3), st.integers(2, 4))
    def test_memoised_leaves_hash_as_cold_ones(self, items, repeats):
        """Within one walk repeated ``str`` / ``int`` leaves come from the memo;
        the result must equal digests assembled from one cold walk per child."""
        repeated = items * repeats
        assembled = hashlib.sha256(f"seq:{len(repeated)}".encode())
        for item in repeated:
            assembled.update(fingerprint_payload(item).encode())
        assert fingerprint_payload(repeated) == assembled.hexdigest()

    def test_equal_valued_scalars_of_different_types_stay_distinct_in_one_walk(self):
        """``1 == True == 1.0`` and they hash equal as dict keys — the leaf
        memo must never serve one for another."""
        scalars = [1, True, 1.0, "1", 0, False, 0.0, -0.0, "0", b"1"]
        cold = [fingerprint_payload(s) for s in scalars]
        assert len(set(cold)) == len(scalars)
        assembled = hashlib.sha256(f"seq:{2 * len(scalars)}".encode())
        for digest in cold + cold:
            assembled.update(digest.encode())
        assert fingerprint_payload(scalars + scalars) == assembled.hexdigest()

    def test_memo_bound_does_not_change_digests(self):
        """More distinct leaves than the memo holds: late ones hash unmemoised."""
        from repro.core import payload as walker

        many = [f"key-{i}" for i in range(walker._MEMO_MAX + 50)] * 2
        assert fingerprint_payload(many) == _reference_fingerprint(many)

    def test_cycles_terminate_and_hash_by_shape(self):
        def ring():
            node = _GoldNode(1.0)
            node.tags = [node, {"self": node}]
            return node

        assert fingerprint_payload(ring()) == fingerprint_payload(ring())
        loop = [1]
        loop.append(loop)
        assert fingerprint_payload(loop) != fingerprint_payload([1, [1]])
        # a shared reference is not a cycle: it hashes as the content it is
        shared = [2.0]
        assert fingerprint_payload([shared, shared]) == fingerprint_payload([[2.0], [2.0]])


# ---------------------------------------------------------------------------
# digest-ahead: sibling arrays hashed on helper threads, same digests
# ---------------------------------------------------------------------------


def _all_ahead(patch):
    """Every qualifying sibling digested ahead, on two helper threads
    whatever the host."""
    patch.setattr(walker, "AHEAD_MIN_BYTES", 0)
    patch.setattr(walker, "helper_threads", lambda: 2)


@pytest.fixture
def every_array_ahead(monkeypatch):
    """:func:`_all_ahead`, and the names of the threads that hashed."""
    ran_on = []

    def recording(array):
        ran_on.append(threading.current_thread().name)
        return fingerprint_array(array)

    _all_ahead(monkeypatch)
    monkeypatch.setattr(walker, "fingerprint_array", recording)
    return ran_on


class TestDigestAheadIdentity(TestDigestFormatIdentity):
    """Every digest-format test above, unedited, with every plain
    C-contiguous sibling array digested ahead."""

    @pytest.fixture(autouse=True, scope="class")
    def _every_array_ahead(self):
        with pytest.MonkeyPatch.context() as patch:
            _all_ahead(patch)
            yield

    # a Hypothesis test belongs to one class: the generated-payload tests
    # are wrapped again here, around the very same bodies
    _base = TestDigestFormatIdentity
    test_matches_the_reference_ladder = given(_payloads)(
        _base.test_matches_the_reference_ladder.hypothesis.inner_test
    )
    test_copies_and_key_order_do_not_matter = given(_payloads)(
        _base.test_copies_and_key_order_do_not_matter.hypothesis.inner_test
    )
    test_fused_walk_equals_the_separate_entry_points = given(_payloads)(
        _base.test_fused_walk_equals_the_separate_entry_points.hypothesis.inner_test
    )
    test_memoised_leaves_hash_as_cold_ones = given(
        st.lists(_payloads, min_size=1, max_size=3), st.integers(2, 4)
    )(_base.test_memoised_leaves_hash_as_cold_ones.hypothesis.inner_test)


_plain = st.builds(
    lambda n, dtype: np.arange(n).astype(dtype),
    st.integers(0, 6),
    st.sampled_from(["<f8", "<i4", ">f4", "<U3"]),
)
_siblings = st.lists(
    st.one_of(
        _plain,
        _plain.map(lambda a: np.asfortranarray(np.stack([a, a]))),  # Fortran-order
        _plain.map(lambda a: a[::2]),  # strided (when it has 2+ elements)
        st.just(np.array([1, "a", None], dtype=object)),  # object dtype
        st.floats(allow_nan=False).map(np.array),  # 0-d
        st.just(np.empty((0, 3))),  # zero-size
        st.integers(-(2**63), 2**63 - 1).map(np.int64),  # NumPy scalar
    ),
    min_size=1,
    max_size=6,
)


def _with_repeats(arrays, data):
    """Some of *arrays* visited again: the same objects, twice."""
    return arrays + data.draw(st.lists(st.sampled_from(arrays), max_size=3))


def _containers(arrays):
    """The same siblings as a list, a tuple, a dict and an object's attributes."""
    return [
        list(arrays),
        tuple(arrays),
        {f"k{i}": a for i, a in enumerate(arrays)},
        [_GoldPoint(arrays[0], arrays[-1]), {"nested": list(arrays)}],
    ]


def _no_pool(*args):
    raise AssertionError("a helper pool was started")


class TestDigestAhead:
    @given(_siblings, st.data())
    def test_generated_siblings_walk_as_inline(self, arrays, data):
        payloads = _containers(_with_repeats(arrays, data))
        inline = []
        for payload in payloads:
            collected = {}
            inline.append((walk_payload(payload, collected), collected))
        with pytest.MonkeyPatch.context() as patch:
            _all_ahead(patch)
            for payload, expected in zip(payloads, inline):
                collected = {}
                assert (walk_payload(payload, collected), collected) == expected
                assert expected[0][0] == _reference_fingerprint(payload)

    def test_siblings_are_hashed_on_the_helper_threads(self, every_array_ahead):
        arrays = [np.arange(n, dtype=np.float64) for n in (3, 4, 5)]
        fortran = np.asfortranarray(np.ones((2, 3)))
        payload = {"arrays": arrays, "fortran": fortran, "strided": arrays[2][::2]}
        assert walk_payload(payload)[0] == _reference_fingerprint(payload)
        # the list's three siblings ahead; the dict has no plain sibling,
        # so its Fortran and strided arrays hash inline
        helpers = [name for name in every_array_ahead if name.startswith("digest-ahead")]
        assert len(helpers) == 3 and len(every_array_ahead) == 5

    def test_small_arrays_and_lone_siblings_stay_inline(self, monkeypatch):
        monkeypatch.setattr(walker, "helper_pool", _no_pool)
        big = np.zeros(walker.AHEAD_MIN_BYTES // 8)
        small = np.zeros(walker.AHEAD_MIN_BYTES // 8 - 1)
        walk_payload([big, small, {"one": big}, np.asfortranarray(np.zeros((2, big.size)))])
        walk_payload([big, big])  # the same array twice is one array

    def test_size_only_walks_and_one_cpu_hosts_start_no_thread(self, monkeypatch):
        monkeypatch.setattr(walker, "helper_pool", _no_pool)
        big = [np.zeros(walker.AHEAD_MIN_BYTES // 8) for _ in range(3)]
        payload_nbytes(big)
        monkeypatch.setattr(walker, "helper_threads", lambda: 1)
        assert walk_payload(big)[0] == _reference_fingerprint(big)

    def test_threads_are_gone_after_the_walk(self, every_array_ahead):
        before = threading.active_count()
        walk_payload([np.zeros(1000), np.ones(1000)])
        assert threading.active_count() == before
        assert every_array_ahead[0].startswith("digest-ahead")

    def test_threads_are_gone_when_an_opaque_object_raises_mid_flight(self, monkeypatch):
        calls = []

        def slow(array):
            calls.append(array.size)
            time.sleep(0.1)  # still hashing when the walk reaches object()
            return fingerprint_array(array)

        _all_ahead(monkeypatch)
        monkeypatch.setattr(walker, "fingerprint_array", slow)
        before = threading.active_count()
        with pytest.raises(TypeError, match="opaque"):
            walk_payload([object(), np.zeros(1), np.zeros(2), np.zeros(3)])
        assert threading.active_count() == before
        # two helper threads: the third digest was still queued, and cancelled
        assert len(calls) < 3

    def test_a_helper_side_error_surfaces_with_its_own_type(self, monkeypatch):
        class DigestFailed(Exception):
            pass

        def failing(array):
            if threading.current_thread() is not threading.main_thread():
                raise DigestFailed("disk went away under a mapped array")
            return fingerprint_array(array)

        _all_ahead(monkeypatch)
        monkeypatch.setattr(walker, "fingerprint_array", failing)
        before = threading.active_count()
        with pytest.raises(DigestFailed, match="disk went away"):
            walk_payload({"a": np.zeros(4), "b": np.ones(4)})
        assert threading.active_count() == before

