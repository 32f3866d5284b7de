"""Unit tests for the ResourceMatrix container and the node-name helpers."""

from repro.analysis.resource_matrix import (
    Access,
    Entry,
    ResourceMatrix,
    base_resource,
    incoming_node,
    is_incoming,
    is_outgoing,
    outgoing_node,
)


class TestAccessKinds:
    def test_read_and_modify_predicates(self):
        assert Access.R0.is_read and Access.R1.is_read
        assert not Access.R0.is_modify
        assert Access.M0.is_modify and Access.M1.is_modify
        assert not Access.M1.is_read


class TestNodeNameHelpers:
    def test_incoming_and_outgoing_names(self):
        assert incoming_node("key") == "key○"
        assert outgoing_node("ct") == "ct•"

    def test_predicates(self):
        assert is_incoming(incoming_node("a"))
        assert is_outgoing(outgoing_node("a"))
        assert not is_incoming("a") and not is_outgoing("a")

    def test_base_resource(self):
        assert base_resource(incoming_node("a")) == "a"
        assert base_resource(outgoing_node("a")) == "a"
        assert base_resource("a") == "a"


class TestResourceMatrix:
    def _matrix(self):
        matrix = ResourceMatrix()
        matrix.add("a", 1, Access.R0)
        matrix.add("b", 1, Access.M0)
        matrix.add("s", 2, Access.M1)
        matrix.add("s", 3, Access.R1)
        return matrix

    def test_add_reports_novelty(self):
        matrix = ResourceMatrix()
        assert matrix.add("a", 1, Access.R0)
        assert not matrix.add("a", 1, Access.R0)
        assert len(matrix) == 1

    def test_membership_and_iteration(self):
        matrix = self._matrix()
        assert Entry("a", 1, Access.R0) in matrix
        assert Entry("a", 9, Access.R0) not in matrix
        assert len(list(matrix)) == 4

    def test_label_and_name_queries(self):
        matrix = self._matrix()
        assert matrix.labels() == {1, 2, 3}
        assert matrix.names() == {"a", "b", "s"}
        assert {e.name for e in matrix.at_label(1)} == {"a", "b"}
        assert [e.name for e in matrix.reads_at(1)] == ["a"]

    def test_access_queries(self):
        matrix = self._matrix()
        assert [e.label for e in matrix.reads_of("a")] == [1]
        assert matrix.reads_of("s", Access.R1)[0].label == 3

    def test_union_and_update(self):
        left = self._matrix()
        right = ResourceMatrix([Entry("z", 9, Access.M0)])
        combined = left.union(right)
        assert len(combined) == 5
        left.update(right)
        assert left == combined

    def test_copy_is_independent(self):
        matrix = self._matrix()
        clone = matrix.copy()
        clone.add("new", 7, Access.R0)
        assert len(matrix) == 4
        assert len(clone) == 5

    def test_equality_and_entries(self):
        assert self._matrix() == self._matrix()
        assert self._matrix().entries() == self._matrix().entries()

    def test_table_rendering_is_sorted_by_label(self):
        table = self._matrix().to_table()
        lines = table.splitlines()
        assert lines[0].startswith("label")
        labels = [int(line.split()[0]) for line in lines[1:]]
        assert labels == sorted(labels)


class TestCrossUniverseReencoding:
    """eq/union across universes, including strict-superset universes.

    Matrices built in different sessions have incompatible bit positions, so
    comparison and union must re-encode by name — also when one universe
    holds strictly more interned names than the other (e.g. an artifact
    loaded from a cache snapshot taken later in a session's life).
    """

    def _entries(self, matrix):
        matrix.add("a", 1, Access.R0)
        matrix.add("b", 1, Access.M0)
        matrix.add("s", 2, Access.M1)
        return matrix

    def test_equality_when_one_universe_is_a_strict_superset(self):
        from repro.dataflow.universe import FactUniverse

        small = FactUniverse()
        big = FactUniverse()
        # interleave extra names so shared names land on different bits
        for name in ("x", "a", "y", "b", "z", "s", "w"):
            big.intern(name)
        left = self._entries(ResourceMatrix(universe=small))
        right = self._entries(ResourceMatrix(universe=big))
        assert set(big) > set(small)
        assert left == right and right == left
        right.add("extra", 1, Access.R0)
        assert left != right

    def test_union_reencodes_into_the_superset_universe(self):
        from repro.dataflow.universe import FactUniverse

        small = FactUniverse()
        big = FactUniverse()
        big.intern_all(["pad0", "a", "pad1", "s"])
        left = self._entries(ResourceMatrix(universe=small))
        right = ResourceMatrix(universe=big)
        right.add("s", 2, Access.M1)  # overlaps left on a different bit
        right.add("q", 9, Access.R1)

        combined = right.union(left)
        assert combined.universe is big
        assert Entry("a", 1, Access.R0) in combined
        assert Entry("q", 9, Access.R1) in combined
        assert len(combined) == 4  # the shared ("s", 2, M1) is not doubled

        # and the mirror-direction union gives the same entry set
        mirrored = left.union(right)
        assert mirrored.universe is small
        assert mirrored == combined
        assert mirrored.entries() == combined.entries()

    def test_union_interns_foreign_names_into_the_target_universe(self):
        from repro.dataflow.universe import FactUniverse

        small = FactUniverse()
        left = ResourceMatrix(universe=small)
        left.add("a", 1, Access.R0)
        foreign = ResourceMatrix(universe=FactUniverse(["only_here"]))
        foreign.add("only_here", 4, Access.M0)
        left.update(foreign)
        assert "only_here" in small
        assert Entry("only_here", 4, Access.M0) in left
