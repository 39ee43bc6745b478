"""Unit tests for GTPN net construction (repro.gtpn.net)."""

import pytest

from repro.errors import ModelError
from repro.gtpn import Guard, Net


def test_place_creation_assigns_indices():
    net = Net()
    a = net.place("A", tokens=2)
    b = net.place("B")
    assert a.index == 0
    assert b.index == 1
    assert net.initial_marking == (2, 0)


def test_duplicate_place_name_rejected():
    net = Net()
    net.place("A")
    with pytest.raises(ModelError):
        net.place("A")


def test_negative_initial_tokens_rejected():
    net = Net()
    with pytest.raises(ModelError):
        net.place("A", tokens=-1)


def test_transition_arcs_from_iterable_with_multiplicity():
    net = Net()
    a = net.place("A", tokens=3)
    b = net.place("B")
    t = net.transition("T", delay=1, inputs=[a, a], outputs=[b])
    assert t.inputs == {a.index: 2}
    assert t.outputs == {b.index: 1}


def test_transition_arcs_from_mapping():
    net = Net()
    a = net.place("A", tokens=3)
    b = net.place("B")
    t = net.transition("T", delay=1, inputs={a: 3}, outputs={b: 2})
    assert t.inputs == {a.index: 3}
    assert t.outputs == {b.index: 2}


def test_duplicate_transition_name_rejected():
    net = Net()
    a = net.place("A", tokens=1)
    net.transition("T", delay=1, inputs=[a], outputs=[a])
    with pytest.raises(ModelError):
        net.transition("T", delay=1, inputs=[a], outputs=[a])


def test_negative_delay_rejected():
    net = Net()
    a = net.place("A", tokens=1)
    with pytest.raises(ModelError):
        net.transition("T", delay=-1, inputs=[a], outputs=[a])


def test_zero_multiplicity_arc_rejected():
    net = Net()
    a = net.place("A", tokens=1)
    with pytest.raises(ModelError):
        net.transition("T", delay=1, inputs={a: 0}, outputs={a: 1})


def test_unknown_place_lookup_raises():
    net = Net()
    with pytest.raises(ModelError):
        net.place_index("missing")


def test_unknown_transition_lookup_raises():
    net = Net()
    with pytest.raises(ModelError):
        net.transition_index("missing")


def test_enabled_requires_arc_multiplicity():
    net = Net()
    a = net.place("A", tokens=1)
    b = net.place("B")
    t = net.transition("T", delay=1, inputs={a: 2}, outputs=[b])
    assert not t.enabled(net.initial_marking)
    assert t.enabled((2, 0))


def test_immediate_property():
    net = Net()
    a = net.place("A", tokens=1)
    t0 = net.transition("T0", delay=0, inputs=[a], outputs=[a])
    t1 = net.transition("T1", delay=1, inputs=[a], outputs=[a])
    assert t0.immediate
    assert not t1.immediate


def test_resources_listed_in_first_use_order():
    net = Net()
    a = net.place("A", tokens=1)
    net.transition("T0", delay=1, resource="beta", inputs=[a], outputs=[a])
    net.transition("T1", delay=1, resource="alpha", inputs=[a], outputs=[a])
    net.transition("T2", delay=1, resource="beta", inputs=[a], outputs=[a])
    assert net.resources == ["beta", "alpha"]


def test_validate_rejects_transitions_without_inputs():
    net = Net()
    a = net.place("A")
    net.transition("T", delay=1, inputs=[], outputs=[a])
    with pytest.raises(ModelError):
        net.validate()


class TestConflictClasses:
    def test_disjoint_transitions_in_separate_classes(self):
        net = Net()
        a = net.place("A", tokens=1)
        b = net.place("B", tokens=1)
        net.transition("TA", delay=1, inputs=[a], outputs=[a])
        net.transition("TB", delay=1, inputs=[b], outputs=[b])
        assert net.conflict_classes() == [[0], [1]]

    def test_shared_input_place_merges_classes(self):
        net = Net()
        a = net.place("A", tokens=1)
        net.transition("T0", delay=1, inputs=[a], outputs=[a])
        net.transition("T1", delay=1, inputs=[a], outputs=[a])
        assert net.conflict_classes() == [[0, 1]]

    def test_transitive_sharing_merges_classes(self):
        # T0 shares A with T1; T1 shares B with T2 -> all one class
        net = Net()
        a = net.place("A", tokens=1)
        b = net.place("B", tokens=1)
        c = net.place("C", tokens=1)
        net.transition("T0", delay=1, inputs=[a], outputs=[a])
        net.transition("T1", delay=1, inputs=[a, b], outputs=[a, b])
        net.transition("T2", delay=1, inputs=[b, c], outputs=[b, c])
        assert net.conflict_classes() == [[0, 1, 2]]

    def test_output_sharing_does_not_merge(self):
        net = Net()
        a = net.place("A", tokens=1)
        b = net.place("B", tokens=1)
        c = net.place("C")
        net.transition("T0", delay=1, inputs=[a], outputs=[c])
        net.transition("T1", delay=1, inputs=[b], outputs=[c])
        assert net.conflict_classes() == [[0], [1]]

    def test_cache_invalidated_by_new_transition(self):
        net = Net()
        a = net.place("A", tokens=1)
        net.transition("T0", delay=1, inputs=[a], outputs=[a])
        assert net.conflict_classes() == [[0]]
        net.transition("T1", delay=1, inputs=[a], outputs=[a])
        assert net.conflict_classes() == [[0, 1]]


class TestGuard:
    def _net(self):
        net = Net()
        a = net.place("A", tokens=3)
        net.place("B", tokens=0)
        net.transition("T", delay=1, inputs=[a], outputs=[a])
        return net

    def test_resolves_names_to_sorted_indices(self):
        net = self._net()
        guard = Guard(empty=["B", "A", "B"], idle=("T",))
        assert guard.empty == ("B", "A", "B")      # lists become tuples
        assert guard.resolve(net) == ((0, 1), (0,))
        assert hash(guard) == hash(Guard(empty=("B", "A", "B"),
                                         idle=("T",)))

    def test_names_resolve_lazily_against_later_declarations(self):
        net = Net()
        a = net.place("A", tokens=1)
        t = net.transition("T", delay=1, inputs=[a], outputs=[a],
                           guard=Guard(idle=("Later",)))
        with pytest.raises(ModelError, match="Later"):
            net.resolved_guards()
        net.transition("Later", delay=1, inputs=[a], outputs=[a])
        assert net.resolved_guards() == [((), (1,)), None]
        assert t.guard.resolve(net) == ((), (1,))

    def test_guarded_transition_keeps_its_static_frequency(self):
        net = Net()
        a = net.place("A", tokens=1)
        net.place("Gate", tokens=0)
        t = net.transition("T", delay=1, frequency=0.25,
                           guard=Guard(empty=("Gate",)),
                           inputs=[a], outputs=[a])
        assert t.frequency == 0.25
        assert t.frequency_label == "0.25"
        assert t.guard == Guard(empty=("Gate",))


def test_negative_frequency_rejected():
    net = Net()
    a = net.place("A", tokens=1)
    with pytest.raises(ModelError, match="frequency"):
        net.transition("T", delay=1, frequency=-0.5, inputs=[a],
                       outputs=[a])


def test_callable_attributes_rejected():
    net = Net()
    a = net.place("A", tokens=1)
    with pytest.raises(ModelError, match="frequency"):
        net.transition("T", delay=1, frequency=lambda ctx: 1.0,
                       inputs=[a], outputs=[a])
    with pytest.raises(ModelError, match="delay"):
        net.transition("T", delay=lambda ctx: 1, inputs=[a], outputs=[a])
