"""The result artefact of the analysis: a (generally non-transitive) directed
information-flow graph.

Nodes represent resources (variables and signals, plus the incoming ``n◦`` and
outgoing ``n•`` nodes of the improved analysis); an edge ``n1 → n2`` records
that information *might* flow from ``n1`` to ``n2``.  The graph is built from
a Resource Matrix by connecting, for every label, everything read there to
everything modified there.

Storage is bitset-native: the graph keeps a :class:`FactUniverse` of node
names, a node bitset and adjacency maps ``node index → neighbour bitset``.
Either direction may be materialised; the other is derived by a lazy,
cached transpose.  :meth:`from_resource_matrix` consumes the label-columnar
matrix directly — one ``pred[m] |= reads`` OR per set modification bit of
each label row — without ever materialising the edge set; edges are decoded
lazily, only by :meth:`to_dot`, :meth:`to_adjacency`,
:meth:`write_adjacency_json`, :meth:`edge_difference`, iteration and the
:attr:`edges` property.
:meth:`from_edges` builds the same structure from an explicit edge set and,
together with :func:`resource_matrix_edges` (the original
product-of-reads-and-mods materialisation), serves as the cross-check oracle
mirroring ``solve_sets`` / ``propagate_naive``.

The class also provides the graph algebra the evaluation needs: transitive
closure (Kemmerer's method), reachability, merging of environment nodes,
projection onto a node subset, DOT export and structural comparison.
"""

from __future__ import annotations

import itertools
from json.encoder import encode_basestring
from typing import (
    BinaryIO,
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Set,
    Tuple,
)

from repro.analysis.resource_matrix import (
    ResourceMatrix,
    base_resource,
    is_incoming,
    is_outgoing,
)
from repro.dataflow.universe import FactUniverse, bit_indices

Edge = Tuple[str, str]

Adjacency = Dict[int, int]
"""``node index → neighbour bitset`` (no zero-valued entries)."""


def _transpose(adjacency: Adjacency) -> Adjacency:
    """Reverse a bitset adjacency map (successors ↔ predecessors)."""
    reversed_map: Adjacency = {}
    get = reversed_map.get
    for index, bits in adjacency.items():
        bit = 1 << index
        for neighbour in bit_indices(bits):
            reversed_map[neighbour] = get(neighbour, 0) | bit
    return reversed_map


def _drop_self_loops(adjacency: Adjacency) -> Adjacency:
    """The adjacency map with every ``n → n`` bit cleared."""
    result: Adjacency = {}
    for index, bits in adjacency.items():
        cleared = bits & ~(1 << index)
        if cleared:
            result[index] = cleared
    return result


def resource_matrix_edges(
    matrix: ResourceMatrix, include_self_loops: bool = True
) -> Set[Edge]:
    """The explicit edge set of a Resource Matrix (the set-based oracle).

    This is the original construction — for every label, the cartesian product
    of the decoded read names and modified names — kept as the cross-check
    oracle for :meth:`FlowGraph.from_resource_matrix`, which computes the same
    relation without materialising these tuples.
    """
    universe = matrix.universe
    decoded: Dict[int, List[str]] = {}

    def names_of(bits: int) -> List[str]:
        names = decoded.get(bits)
        if names is None:
            names = decoded[bits] = universe.decode_list(bits)
        return names

    edges: Set[Edge] = set()
    for _, row in matrix.iter_rows():
        mods_bits = row[0] | row[1]
        reads_bits = row[2] | row[3]
        if not mods_bits or not reads_bits:
            continue
        pairs = itertools.product(names_of(reads_bits), names_of(mods_bits))
        if include_self_loops:
            edges.update(pairs)
        else:
            edges.update((r, m) for r, m in pairs if r != m)
    return edges


class FlowGraph:
    """A directed graph over resource names, stored as per-node bitsets.

    Instances are immutable: every transformation returns a new graph.  The
    node universe is shared with the producing Resource Matrix (or private for
    :meth:`from_edges` graphs) and may contain names that are not nodes of
    this graph; the node set proper is the ``_node_bits`` bitset.  At least
    one of the successor/predecessor maps is materialised; the other is
    derived on first use by :func:`_transpose` and cached.
    """

    __slots__ = ("_universe", "_node_bits", "_succ", "_pred", "_edges_cache")

    def __init__(
        self,
        universe: Optional[FactUniverse] = None,
        node_bits: int = 0,
        successors: Optional[Adjacency] = None,
        predecessors: Optional[Adjacency] = None,
    ):
        self._universe: FactUniverse = (
            universe if universe is not None else FactUniverse()
        )
        self._node_bits = node_bits
        if successors is None and predecessors is None:
            successors = {}
        self._succ: Optional[Adjacency] = successors
        self._pred: Optional[Adjacency] = predecessors
        self._edges_cache: Optional[FrozenSet[Edge]] = None

    def _successor_map(self) -> Adjacency:
        """``source index → successor bitset`` (transposed on first use)."""
        if self._succ is None:
            self._succ = _transpose(self._pred)
        return self._succ

    def _predecessor_map(self) -> Adjacency:
        """``target index → predecessor bitset`` (transposed on first use)."""
        if self._pred is None:
            self._pred = _transpose(self._succ)
        return self._pred

    def _any_map(self) -> Adjacency:
        """Whichever adjacency direction is already materialised."""
        return self._succ if self._succ is not None else self._pred

    # -- construction ---------------------------------------------------------

    @classmethod
    def from_resource_matrix(
        cls, matrix: ResourceMatrix, include_self_loops: bool = True
    ) -> "FlowGraph":
        """Build the flow graph of a (local or global) Resource Matrix.

        For every label ``l`` with a modification entry ``(m, l, M*)`` and a
        read entry ``(r, l, R*)``, the edge ``r → m`` is recorded.  The matrix
        is consumed in its columnar form as predecessor bitsets — one
        ``pred[m] |= reads`` OR per set modification bit of each row, which is
        tiny because labels modify few resources while they may read many —
        and no edge tuple is ever built; the successor direction is derived
        lazily if a consumer asks for it.
        """
        node_bits = 0
        pred: Adjacency = {}
        get = pred.get
        for _, row in matrix.iter_rows():
            mods_bits = row[0] | row[1]
            reads_bits = row[2] | row[3]
            node_bits |= mods_bits | reads_bits
            if mods_bits and reads_bits:
                for modified in bit_indices(mods_bits):
                    pred[modified] = get(modified, 0) | reads_bits
        if not include_self_loops:
            pred = _drop_self_loops(pred)
        return cls(matrix.universe, node_bits, predecessors=pred)

    @classmethod
    def from_edges(
        cls, edges: Iterable[Edge], nodes: Iterable[str] = ()
    ) -> "FlowGraph":
        """Build a graph from explicit edges (the oracle construction path)."""
        universe: FactUniverse = FactUniverse()
        node_bits = 0
        succ: Adjacency = {}
        for name in nodes:
            node_bits |= 1 << universe.intern(name)
        for src, dst in edges:
            src_index = universe.intern(src)
            dst_index = universe.intern(dst)
            node_bits |= (1 << src_index) | (1 << dst_index)
            succ[src_index] = succ.get(src_index, 0) | (1 << dst_index)
        return cls(universe, node_bits, successors=succ)

    @property
    def universe(self) -> FactUniverse:
        """The name universe allocating this graph's bit positions."""
        return self._universe

    def copy(self) -> "FlowGraph":
        """An independent copy (the append-only universe is shared)."""
        return FlowGraph(
            self._universe,
            self._node_bits,
            successors=None if self._succ is None else dict(self._succ),
            predecessors=None if self._pred is None else dict(self._pred),
        )

    # -- basic queries ----------------------------------------------------------

    @property
    def nodes(self) -> FrozenSet[str]:
        """The node names (decoded on demand)."""
        return self._universe.decode(self._node_bits)

    @property
    def edges(self) -> FrozenSet[Edge]:
        """The edge set, decoded lazily on first access and cached."""
        if self._edges_cache is None:
            self._edges_cache = frozenset(self.iter_edges())
        return self._edges_cache

    def iter_edges(self) -> Iterator[Edge]:
        """Decode the edges one at a time (no particular order)."""
        fact_of = self._universe.fact_of
        decode_iter = self._universe.decode_iter
        if self._succ is not None:
            for src_index, bits in self._succ.items():
                src = fact_of(src_index)
                for dst in decode_iter(bits):
                    yield (src, dst)
        else:
            for dst_index, bits in self._pred.items():
                dst = fact_of(dst_index)
                for src in decode_iter(bits):
                    yield (src, dst)

    def __iter__(self) -> Iterator[Edge]:
        return self.iter_edges()

    def __contains__(self, edge: object) -> bool:
        if not isinstance(edge, tuple) or len(edge) != 2:
            return False
        source, target = edge
        return self.has_edge(source, target)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, FlowGraph):
            if self._universe is other._universe:
                if self._node_bits != other._node_bits:
                    return False
                if self._succ is not None and other._succ is not None:
                    return self._succ == other._succ
                if self._pred is not None and other._pred is not None:
                    return self._pred == other._pred
                return self._successor_map() == other._successor_map()
            return self.nodes == other.nodes and self.edges == other.edges
        return NotImplemented

    def has_node(self, node: str) -> bool:
        """True when ``node`` is a node of this graph."""
        universe = self._universe
        if node not in universe:
            return False
        return bool(self._node_bits >> universe.index_of(node) & 1)

    def has_edge(self, source: str, target: str) -> bool:
        """True when the direct edge ``source → target`` is present."""
        universe = self._universe
        if source not in universe or target not in universe:
            return False
        source_index = universe.index_of(source)
        target_index = universe.index_of(target)
        if self._succ is not None:
            return bool(self._succ.get(source_index, 0) >> target_index & 1)
        return bool(self._pred.get(target_index, 0) >> source_index & 1)

    def successors(self, node: str) -> FrozenSet[str]:
        """Direct successors of ``node``."""
        universe = self._universe
        if node not in universe:
            return frozenset()
        return universe.decode(
            self._successor_map().get(universe.index_of(node), 0)
        )

    def predecessors(self, node: str) -> FrozenSet[str]:
        """Direct predecessors of ``node``."""
        universe = self._universe
        if node not in universe:
            return frozenset()
        return universe.decode(
            self._predecessor_map().get(universe.index_of(node), 0)
        )

    def targets(self) -> FrozenSet[str]:
        """The nodes with at least one incoming edge (possible flow sinks)."""
        if self._pred is not None:
            fact_of = self._universe.fact_of
            return frozenset(fact_of(index) for index in self._pred)
        bits = 0
        for successor_bits in self._succ.values():
            bits |= successor_bits
        return self._universe.decode(bits)

    def edge_count(self) -> int:
        """Number of edges."""
        return sum(bits.bit_count() for bits in self._any_map().values())

    def node_count(self) -> int:
        """Number of nodes."""
        return self._node_bits.bit_count()

    # -- reachability and closure --------------------------------------------------

    def _reach_bits(self) -> Dict[int, int]:
        """Per-node bitsets of everything reachable along one or more edges.

        Computed over the SCC condensation (iterative Tarjan, shared with the
        Resource Matrix closure), ORing whole bitsets along the component DAG
        — the bitset form of the paper's "cubic time reachability analysis".
        """
        from repro.analysis.closure import _strongly_connected_components

        successors = self._successor_map()
        indexed_edges = {
            index: tuple(bit_indices(bits)) for index, bits in successors.items()
        }
        comp_of, components = _strongly_connected_components(
            bit_indices(self._node_bits), indexed_edges
        )
        comp_reach: List[int] = [0] * len(components)
        # Tarjan emits every component after all components reachable from it,
        # so one pass in emission order sees successors already finished.
        for comp, members in enumerate(components):
            bits = 0
            for member in members:
                bits |= successors.get(member, 0)
            for member in members:
                for target in indexed_edges.get(member, ()):
                    target_comp = comp_of[target]
                    if target_comp != comp:
                        bits |= comp_reach[target_comp]
            comp_reach[comp] = bits
        return {index: comp_reach[comp] for index, comp in comp_of.items()}

    def reachable_from(self, node: str, include_start: bool = False) -> FrozenSet[str]:
        """All nodes reachable from ``node`` along one or more edges."""
        universe = self._universe
        if node not in universe:
            return frozenset({node}) if include_start else frozenset()
        successors = self._successor_map()
        reached = 0
        pending = successors.get(universe.index_of(node), 0)
        while pending:
            low = pending & -pending
            pending ^= low
            reached |= low
            pending |= successors.get(low.bit_length() - 1, 0) & ~reached
        result = universe.decode(reached)
        if include_start:
            result |= {node}
        return result

    def flows_to(self, source: str, target: str) -> bool:
        """True when there is a (possibly indirect) path ``source → … → target``."""
        return target in self.reachable_from(source)

    def transitive_closure(self) -> "FlowGraph":
        """The transitive closure (the essence of Kemmerer's method)."""
        closure = {
            index: bits for index, bits in self._reach_bits().items() if bits
        }
        return FlowGraph(self._universe, self._node_bits, successors=closure)

    def is_transitive(self) -> bool:
        """True when the edge relation is already transitively closed.

        The paper stresses that the analysis result is *in general
        non-transitive*, which is precisely what distinguishes it from
        Kemmerer's method.  Transitivity is checked per node on bitsets:
        ``(a, b) ∈ E`` requires ``succ(b) ⊆ succ(a)`` — or, equivalently on
        the predecessor direction, ``pred(a) ⊆ pred(b)``; whichever map is
        already materialised is used.
        """
        adjacency = self._any_map()
        for bits in adjacency.values():
            two_step = 0
            for neighbour in bit_indices(bits):
                two_step |= adjacency.get(neighbour, 0)
            if two_step & ~bits:
                return False
        return True

    # -- transformations -------------------------------------------------------------

    def without_self_loops(self) -> "FlowGraph":
        """Drop ``n → n`` edges (they carry no information-flow content).

        Built from the successor map, which renderings read: a cached graph
        then transposes once, not once per rendering of a derived graph.
        """
        return FlowGraph(
            self._universe,
            self._node_bits,
            successors=_drop_self_loops(self._successor_map()),
        )

    def restricted_to(self, nodes: Iterable[str]) -> "FlowGraph":
        """The induced subgraph on ``nodes``."""
        universe = self._universe
        keep = 0
        for name in nodes:
            if name in universe:
                keep |= 1 << universe.index_of(name)
        keep &= self._node_bits

        def mask(adjacency: Adjacency) -> Adjacency:
            result: Adjacency = {}
            for index, bits in adjacency.items():
                if keep >> index & 1:
                    kept = bits & keep
                    if kept:
                        result[index] = kept
            return result

        if self._succ is not None:
            return FlowGraph(universe, keep, successors=mask(self._succ))
        return FlowGraph(universe, keep, predecessors=mask(self._pred))

    def renamed(self, mapping: Mapping[str, str]) -> "FlowGraph":
        """Rename (and thereby possibly merge) nodes according to ``mapping``."""
        universe = self._universe
        new_universe: FactUniverse = FactUniverse()
        new_index: Dict[int, int] = {}
        node_bits = 0
        for index in bit_indices(self._node_bits):
            name = universe.fact_of(index)
            renamed_index = new_universe.intern(mapping.get(name, name))
            new_index[index] = renamed_index
            node_bits |= 1 << renamed_index

        def translate(adjacency: Adjacency) -> Adjacency:
            result: Adjacency = {}
            for index, bits in adjacency.items():
                translated = 0
                for neighbour in bit_indices(bits):
                    translated |= 1 << new_index[neighbour]
                source = new_index[index]
                result[source] = result.get(source, 0) | translated
            return result

        if self._succ is not None:
            return FlowGraph(
                new_universe, node_bits, successors=translate(self._succ)
            )
        return FlowGraph(
            new_universe, node_bits, predecessors=translate(self._pred)
        )

    def collapse_environment_nodes(self) -> "FlowGraph":
        """Merge every ``n◦``/``n•`` node into its base resource ``n``.

        The paper performs exactly this merge before comparing its result with
        Kemmerer's on the ShiftRows function ("we have merged incoming and
        outgoing nodes", Section 6).
        """
        mapping = {
            node: base_resource(node)
            for node in self.nodes
            if is_incoming(node) or is_outgoing(node)
        }
        return self.renamed(mapping)

    # -- comparisons --------------------------------------------------------------------

    def edge_difference(self, other: "FlowGraph") -> FrozenSet[Edge]:
        """Edges present here but absent from ``other`` (false positives if
        ``other`` is ground truth)."""
        return frozenset(
            edge for edge in self.iter_edges() if edge not in other
        )

    def is_subgraph_of(self, other: "FlowGraph") -> bool:
        """True when every edge of this graph also appears in ``other``."""
        if self._universe is other._universe:
            if self._succ is not None and other._succ is not None:
                reference = other._succ
                return all(
                    not bits & ~reference.get(index, 0)
                    for index, bits in self._succ.items()
                )
            if self._pred is not None and other._pred is not None:
                reference = other._pred
                return all(
                    not bits & ~reference.get(index, 0)
                    for index, bits in self._pred.items()
                )
        return all(edge in other for edge in self.iter_edges())

    # -- export ---------------------------------------------------------------------------

    def to_dot(self, name: str = "information_flow", rankdir: str = "LR") -> str:
        """Graphviz DOT rendering (environment nodes get distinct shapes)."""
        lines = [f"digraph {name} {{", f"  rankdir={rankdir};"]
        for node in sorted(self._universe.decode_iter(self._node_bits)):
            shape = "ellipse"
            if is_incoming(node):
                shape = "invhouse"
            elif is_outgoing(node):
                shape = "house"
            lines.append(f'  "{node}" [shape={shape}];')
        for source, target in sorted(self.iter_edges()):
            lines.append(f'  "{source}" -> "{target}";')
        lines.append("}")
        return "\n".join(lines)

    def to_adjacency(self) -> Dict[str, List[str]]:
        """Adjacency-list rendering with sorted successor lists."""
        universe = self._universe
        index_of = universe.index_of
        successors = self._successor_map()
        return {
            node: sorted(universe.decode_iter(successors.get(index_of(node), 0)))
            for node in sorted(universe.decode_iter(self._node_bits))
        }

    def write_adjacency_json(
        self, stream: BinaryIO, depth: int = 0, self_loops: bool = True
    ) -> int:
        """Write :meth:`to_adjacency` to ``stream`` as UTF-8 JSON text and
        return the number of edges written.

        The text is byte for byte what ``json.dumps(..., indent=2,
        ensure_ascii=False)`` writes for the adjacency dict at nesting level
        ``depth`` of a document; ``self_loops=False`` leaves out every
        ``n → n`` edge, as :meth:`without_self_loops` does.  Each name is
        escaped once, by the escaper ``json`` itself uses, and the targets
        are visited in name order, each appended to the lists of its
        predecessors, so every successor list comes out sorted.  Nothing is
        cached on the graph.
        """
        universe = self._universe
        predecessors = self._pred if self._pred is not None else _transpose(self._succ)
        order = sorted(bit_indices(self._node_bits), key=universe.fact_of)
        if not order:
            stream.write(b"{}")
            return 0
        escaped = {
            index: encode_basestring(universe.fact_of(index)).encode(
                "utf-8", "surrogatepass"
            )
            for index in order
        }
        successors: Dict[int, List[bytes]] = {index: [] for index in order}
        edges = 0
        for target in order:
            bits = predecessors.get(target, 0)
            if not self_loops:
                bits &= ~(1 << target)
            if bits:
                name = escaped[target]
                sources = bit_indices(bits)
                edges += len(sources)
                for source in sources:
                    successors[source].append(name)
        open_key = b"\n" + b"  " * (depth + 1)
        next_key = b"," + open_key
        open_item = b"\n" + b"  " * (depth + 2)
        open_list = b": [" + open_item
        next_item = b"," + open_item
        close_list = open_key + b"]"
        write = stream.write
        write(b"{")
        lead = open_key
        for index in order:
            write(lead)
            lead = next_key
            write(escaped[index])
            names = successors[index]
            if names:
                write(open_list)
                write(next_item.join(names))
                write(close_list)
            else:
                write(b": []")
        write(b"\n" + b"  " * depth + b"}")
        return edges

    def summary(self) -> str:
        """One-line description used by the CLI and benchmarks."""
        return (
            f"{self.node_count()} nodes, {self.edge_count()} edges, "
            f"{'transitive' if self.is_transitive() else 'non-transitive'}"
        )
