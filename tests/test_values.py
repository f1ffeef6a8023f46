"""One value model: the seven value types that hold arrays or caches.

``FunctionSpec``, ``Design``, ``DataVector``, ``Quadrature``, ``QState``,
``OutcomeDistribution`` and ``AlgorithmSpec`` compare and hash by value, every
copy is rebuilt by the constructor with none of the original's kept state, and
every array they hold is a read-only view of a read-only owner.
"""

from __future__ import annotations

import copy
import pickle

import numpy as np
import pytest

from qibc import (
    DataVector,
    Design,
    GateOp,
    OutcomeDistribution,
    Promise,
    QState,
    Quadrature,
    apply_gate,
    build_ae_mean,
    constant,
    distribution,
    measure,
    midpoint_algorithm,
    pwl,
    run,
    worst_radius,
    zero_state,
)
from qibc.functions import FunctionSpec
from qibc.simulator import AlgorithmSpec

RAMP = pwl(((0.0, -1.0), (1.0, 1.0)))


def _used_design() -> Design:
    d = Design((0.125, 0.375, 0.625, 0.875))
    worst_radius(d, 1.0)  # fills the spike slot
    return d


def _used_algorithm() -> AlgorithmSpec:
    a = midpoint_algorithm(1, 2, -1.0, 1.0)
    distribution(a, RAMP)  # compiles the program
    return a


def _used_distribution() -> OutcomeDistribution:
    d = distribution(midpoint_algorithm(1, 2, -1.0, 1.0), constant(0.25))
    d.entries  # builds the entries
    return d


#: Each value type, built afresh on every call and with its caches filled.
VALUES = {
    FunctionSpec: lambda: pwl(((0.0, 0.0), (0.5, 1.0), (1.0, 0.0)), Promise(2.0, -1.0, 1.0)),
    Design: _used_design,
    DataVector: lambda: DataVector((0.5, -1.0, -0.0)),
    Quadrature: lambda: Quadrature(_used_design(), (0.25, 0.25, 0.25, 0.25)),
    QState: lambda: apply_gate(zero_state(2), GateOp("H", (0,))),
    OutcomeDistribution: _used_distribution,
    AlgorithmSpec: _used_algorithm,
}

#: Every distribution path: the label loop, the dense vector and the entries.
DISTRIBUTIONS = {
    "label": lambda: distribution(midpoint_algorithm(2, 3, -1.0, 1.0), RAMP),
    "dense": lambda: distribution(build_ae_mean(2, 3, -1.0, 1.0), RAMP),
    "measure": lambda: measure(run(midpoint_algorithm(2, 3, -1.0, 1.0), RAMP),
                               midpoint_algorithm(2, 3, -1.0, 1.0)),
    "entries": lambda: OutcomeDistribution(((0, 0.25, 1.0), (1, 0.75, -0.0))),
}

COPIES = {
    "copy": copy.copy,
    "deepcopy": copy.deepcopy,
    "pickle": lambda v: pickle.loads(pickle.dumps(v)),
}


def _arrays(v) -> list[np.ndarray]:
    """Every array ``v`` holds, its algorithm's program columns included."""
    if isinstance(v, (FunctionSpec, Design)):
        return [v.points]
    if isinstance(v, DataVector):
        return [v.values]
    if isinstance(v, Quadrature):
        return [v.weights]  # its design's are checked as a Design's
    if isinstance(v, QState):
        return [v.amplitudes]
    if isinstance(v, OutcomeDistribution):
        return [v.j, v.p, v.phi]
    return [v._program.j, v._program.phi]


def _assert_frozen(arr: np.ndarray, what: str) -> None:
    with pytest.raises(ValueError):
        arr.flags.writeable = True
    with pytest.raises(ValueError):
        arr[0] = 99
    assert isinstance(arr.base, np.ndarray) and not arr.base.flags.writeable, what


def _kept_state(v) -> dict[str, object]:
    """The caches ``v`` holds: a spike, a compiled program or a distribution's entries."""
    return {k: vars(v)[k] for k in ("_spike_slot", "_program", "entries")
            if vars(v).get(k) is not None}


def test_equal_values_have_equal_eq_and_hash():
    for cls, make in VALUES.items():
        a, b = make(), make()
        assert a is not b and type(a) is cls
        assert a == b and not a != b, cls.__name__
        assert hash(a) == hash(b), cls.__name__
        assert a != object()


def test_copies_are_rebuilt_by_the_constructor_without_kept_state(monkeypatch):
    built = []
    for cls in VALUES:
        def counting(self, *args, _init=cls.__init__, **kwargs):
            built.append(type(self))
            _init(self, *args, **kwargs)
        monkeypatch.setattr(cls, "__init__", counting)
    for cls, make in VALUES.items():
        v = make()
        if cls in (Design, OutcomeDistribution, AlgorithmSpec):
            assert _kept_state(v), cls.__name__  # used first, so its cache is filled
        for route, dup in COPIES.items():
            del built[:]
            c = dup(v)
            assert cls in built, (cls.__name__, route)
            assert _kept_state(c) == {}, (cls.__name__, route)
            assert c == v and hash(c) == hash(v) and repr(c) == repr(v)
            for x, y in zip(_arrays(c), _arrays(v)):
                assert not np.shares_memory(x, y), (cls.__name__, route)


def test_every_array_is_a_frozen_view_of_a_frozen_owner():
    made = {cls.__name__: make() for cls, make in VALUES.items()}
    made.update({f"distribution {k}": make() for k, make in DISTRIBUTIONS.items()})
    for name, v in list(made.items()):
        for route, dup in COPIES.items():
            made[f"{route} of {name}"] = dup(v)
    for name, v in made.items():
        for arr in _arrays(v):
            _assert_frozen(arr, name)


def test_states_compare_and_hash_by_amplitudes():
    assert zero_state(2) == zero_state(2) and hash(zero_state(2)) == hash(zero_state(2))
    assert zero_state(2) != apply_gate(zero_state(2), GateOp("X", (1,)))
    assert zero_state(2) != zero_state(3)
    assert repr(zero_state(1)) == "QState(nu=1, amplitudes=((1+0j), 0j))"


def test_a_failed_unfreeze_leaves_the_shared_columns_intact():
    a = midpoint_algorithm(1, 2, -1.0, 1.0)
    d = distribution(a, constant(0.25))
    for col in (d.j, d.phi, d.p):
        _assert_frozen(col, "outcome column")
    e = distribution(a, constant(0.25))
    M = a.outcome_count
    assert e.j is d.j and e.j.tolist() == list(range(M))
    assert [v.hex() for v in e.phi.tolist()] == [a.decode.phi(k, M).hex() for k in range(M)]


def test_dense_probabilities_own_no_writeable_memory():
    for make in (DISTRIBUTIONS["dense"], DISTRIBUTIONS["measure"]):
        _assert_frozen(make().p, "dense p")


def test_an_algorithm_pickles_to_the_same_bytes_before_and_after_use():
    a = midpoint_algorithm(1, 2, -1.0, 1.0)
    before = pickle.dumps(a)
    distribution(a, RAMP)
    assert "_program" in vars(a)
    assert pickle.dumps(a) == before
    assert "_program" not in vars(copy.deepcopy(a))


def test_copies_carry_arrays_as_arrays():
    # a pickled 12-qubit state or 4096-point design is its raw bytes plus a small header
    for v, raw in ((zero_state(12), 16 << 12), (Design(np.arange(4096) / 4096), 8 << 12)):
        assert raw < len(pickle.dumps(v)) < raw + 1024, type(v).__name__


def test_equality_compares_arrays_without_their_tuples(monkeypatch):
    def no_tuples(self):
        raise AssertionError(f"{type(self).__name__}: == built the tuple key")

    a, b = zero_state(20), zero_state(20)
    monkeypatch.setattr(QState, "_key", no_tuples)
    assert a == b and not a != b
    assert a != apply_gate(zero_state(20), GateOp("X", (19,)))
    monkeypatch.undo()
    assert hash(a) == hash(b)


def test_equal_values_hash_equal_across_signed_zeros():
    pairs = [
        (DataVector((0.0, 1.0)), DataVector((-0.0, 1.0))),
        (Design((0.0, 0.5)), Design((-0.0, 0.5))),
        (pwl(((0.0, -0.0), (1.0, 0.0))), pwl(((-0.0, 0.0), (1.0, -0.0)))),
        (Quadrature(Design((0.5,)), (0.0,)), Quadrature(Design((0.5,)), (-0.0,))),
    ]
    for a, b in pairs:
        assert a == b and hash(a) == hash(b), type(a).__name__
    assert DataVector((0.0, 1.0)) != DataVector((0.0, 1.0, 2.0))
    assert pwl(((0.0, 0.0), (1.0, 0.0))) != constant(0.0)
