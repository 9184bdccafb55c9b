"""Per-equivalence-class index (one hash-table entry of Figure 5).

An :class:`EquivalenceClassIndex` couples the canonical skeleton of one
structural equivalence class (Definition 4) with

* a :class:`~repro.index.sequence.FragmentSequencer` that turns fragment
  occurrences into annotation sequences, and
* a range-query backend (trie / R-tree / VP-tree / linear scan) storing
  ``(sequence, graph id)`` entries.

The class answers the two questions PIS asks during search (Eq. 3 and
Algorithm 2, lines 9–17): *which database graphs contain a fragment of this
class within distance sigma of a query fragment, and at what minimum
distance?*  It also tracks which database graphs contain the structure at
all, which is what topoPrune and the structure-violation rule use.

Two hot-path optimizations live here:

* the containing-graph set is additionally maintained as a big-int bitset
  posting list (bit ``i`` set for graph ``i``), so candidate intersections
  are single bitwise ANDs (:mod:`repro.index.bitset`);
* for vectorizable measures (linear mutation distance) every inserted
  sequence is also kept in a flat pre-vectorized array, and range queries
  run as one vectorized L1 scan over that array (numpy when available)
  instead of a per-entry Python loop.
"""

from __future__ import annotations

from typing import Any, Dict, Iterator, List, Optional, Set, Tuple

from ..core.canonical import CanonicalCode
from ..core.distance import DistanceMeasure
from ..core.graph import LabeledGraph
from .backends import ClassIndexBackend, make_backend
from .bitset import bits_from_ids, supported_id
from .sequence import FragmentSequencer

__all__ = ["EquivalenceClassIndex"]

AnnotationSequence = Tuple[Any, ...]

try:  # numpy is optional: the vectorized scan falls back to pure Python
    import numpy as _np
except ImportError:  # pragma: no cover - exercised on numpy-free installs
    _np = None

#: Below this many stored vectors the scalar loop beats the numpy pass —
#: array construction and ufunc dispatch cost more than the whole scan.
#: Small per-class postings are the norm on database shards, so this keeps
#: a shard's range query from paying full-size fixed costs on a
#: quarter-size posting list.
_SCALAR_SCAN_MAX = 32


class _VectorStore:
    """Pre-vectorized annotation arrays for one equivalence class.

    Keeps every inserted occurrence as a numeric vector (via
    :meth:`DistanceMeasure.vectorize`) plus the owning graph id, and answers
    L1 range queries with one vectorized pass.  The numpy matrix is built
    lazily and invalidated on insert.
    """

    __slots__ = ("_vectors", "_graph_ids", "_matrix")

    def __init__(self):
        self._vectors: List[Tuple[float, ...]] = []
        self._graph_ids: List[int] = []
        self._matrix = None

    def __len__(self) -> int:
        return len(self._vectors)

    def add(self, vector: Tuple[float, ...], graph_id: int) -> None:
        self._vectors.append(vector)
        self._graph_ids.append(graph_id)
        self._matrix = None

    def remove(self, graph_id: int) -> None:
        """Drop every vector owned by ``graph_id``."""
        if graph_id not in self._graph_ids:
            return
        kept = [
            (vector, owner)
            for vector, owner in zip(self._vectors, self._graph_ids)
            if owner != graph_id
        ]
        self._vectors = [vector for vector, _ in kept]
        self._graph_ids = [owner for _, owner in kept]
        self._matrix = None

    def range_query(
        self, point: Tuple[float, ...], radius: float
    ) -> Dict[int, float]:
        """``{graph_id: min L1 distance}`` over all stored vectors."""
        results: Dict[int, float] = {}
        if not self._vectors:
            return results
        if _np is not None and len(self._vectors) > _SCALAR_SCAN_MAX:
            if self._matrix is None:
                self._matrix = _np.asarray(self._vectors, dtype=float)
            distances = _np.abs(self._matrix - _np.asarray(point, dtype=float)).sum(
                axis=1
            )
            for position in _np.nonzero(distances <= radius)[0]:
                graph_id = self._graph_ids[position]
                distance = float(distances[position])
                best = results.get(graph_id)
                if best is None or distance < best:
                    results[graph_id] = distance
            return results
        for vector, graph_id in zip(self._vectors, self._graph_ids):
            distance = sum(abs(a - b) for a, b in zip(point, vector))
            if distance <= radius:
                best = results.get(graph_id)
                if best is None or distance < best:
                    results[graph_id] = distance
        return results


class EquivalenceClassIndex:
    """Range-query index for the fragments of one structural class."""

    def __init__(
        self,
        code: CanonicalCode,
        measure: DistanceMeasure,
        backend: str = "auto",
        backend_options: Optional[Dict[str, Any]] = None,
    ):
        self.code = code
        self.measure = measure
        self.sequencer = FragmentSequencer(code)
        self.backend_name = backend
        self.backend: ClassIndexBackend = make_backend(
            backend, measure, **(backend_options or {})
        )
        # graphs that contain at least one occurrence of this structure,
        # kept both as a set (public API) and as a bitset posting list
        self._containing_graphs: Set[int] = set()
        self._containing_bits = 0
        self._bits_ok = True
        self._num_occurrences = 0
        # per-graph occurrence counts, so removing a graph can return the
        # class totals to exactly what a build without it would report
        self._occurrences_by_graph: Dict[int, int] = {}
        self._vector_store: Optional[_VectorStore] = (
            _VectorStore() if measure.supports_vectorization() else None
        )

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @property
    def skeleton(self) -> LabeledGraph:
        """Canonical skeleton of the class (vertices are DFS indices)."""
        return self.sequencer.skeleton

    def _record_graph(self, graph_id: int) -> None:
        self._containing_graphs.add(graph_id)
        if self._bits_ok:
            if supported_id(graph_id):
                self._containing_bits |= 1 << graph_id
            else:
                # Non-contiguous / non-int ids: bitsets no longer represent
                # this class, so strategies must use the set path.
                self._bits_ok = False
                self._containing_bits = 0

    def _store(self, sequence: AnnotationSequence, graph_id: int) -> None:
        self.backend.insert(sequence, graph_id)
        if self._vector_store is not None:
            self._vector_store.add(self.measure.vectorize(sequence), graph_id)

    def index_graph(self, graph_id: int, graph: LabeledGraph) -> int:
        """Index every occurrence of this class's structure in ``graph``.

        Returns the number of occurrences found (0 if the structure does not
        appear in the graph).
        """
        occurrences = self.sequencer.iter_occurrence_sequences(graph, self.measure)
        return self.insert_occurrences(
            graph_id, [sequence for _, sequence in occurrences]
        )

    def insert_occurrences(
        self, graph_id: int, sequences: List[AnnotationSequence]
    ) -> int:
        """Insert pre-enumerated occurrence sequences of one graph.

        This is the insertion half of :meth:`index_graph`; the parallel
        builder enumerates sequences in worker processes and feeds them back
        through here so serial and parallel builds produce byte-identical
        indexes.
        """
        for sequence in sequences:
            self._store(sequence, graph_id)
        if sequences:
            self._record_graph(graph_id)
            self._num_occurrences += len(sequences)
            self._occurrences_by_graph[graph_id] = (
                self._occurrences_by_graph.get(graph_id, 0) + len(sequences)
            )
        return len(sequences)

    def insert_sequence(self, sequence: AnnotationSequence, graph_id: int) -> None:
        """Insert a pre-computed occurrence sequence (used when loading)."""
        self._store(tuple(sequence), graph_id)
        self._record_graph(graph_id)
        self._num_occurrences += 1
        self._occurrences_by_graph[graph_id] = (
            self._occurrences_by_graph.get(graph_id, 0) + 1
        )

    def remove_graph(self, graph_id: int) -> int:
        """Remove every indexed occurrence of ``graph_id`` from this class.

        Updates the backend, the containing-graph set and bitset posting
        list, the vectorized scan arrays, and the occurrence counts.
        Returns the number of distinct backend entries removed (0 if the
        graph never contained this structure).
        """
        if graph_id not in self._containing_graphs:
            return 0
        removed = self.backend.delete(graph_id)
        self._containing_graphs.discard(graph_id)
        if self._bits_ok and supported_id(graph_id):
            self._containing_bits &= ~(1 << graph_id)
        if self._vector_store is not None:
            self._vector_store.remove(graph_id)
        per_graph_total = sum(self._occurrences_by_graph.values())
        occurrences = self._occurrences_by_graph.pop(graph_id, removed)
        if self._num_occurrences == per_graph_total:
            self._num_occurrences -= occurrences
        else:
            # Indexes loaded from schema v1/v2 files restored an exact
            # total but only a distinct-entry per-graph breakdown
            # (duplicate occurrences collapse at save time), so the two
            # disagree.  Subtracting the undercounted per-graph value
            # would leave the total permanently inflated; reconcile to
            # the per-graph basis instead, which stays self-consistent
            # (num_occurrences == sum(occurrences_by_graph)) from here on.
            self._num_occurrences = per_graph_total - occurrences
        return removed

    def occurrences_of(self, graph_id: int) -> int:
        """Number of indexed occurrences owned by ``graph_id``."""
        return self._occurrences_by_graph.get(graph_id, 0)

    @property
    def occurrences_by_graph(self) -> Dict[int, int]:
        """Copy of the per-graph occurrence counts (graph id -> count)."""
        return dict(self._occurrences_by_graph)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def range_query(
        self, sequence: AnnotationSequence, sigma: float
    ) -> Dict[int, float]:
        """Return ``{graph_id: min distance}`` for fragments within ``sigma``.

        This evaluates ``d(g, G)`` of Eq. (3) restricted to this class: the
        minimum, over the stored occurrences of each graph, of the sequence
        distance to the query fragment — reported only when ``<= sigma``.

        For vectorizable measures the scan runs over the pre-vectorized
        annotation arrays (one vectorized pass); other classes scan their
        backend.
        """
        if self._vector_store is not None:
            return self._vector_store.range_query(
                self.measure.vectorize(tuple(sequence)), sigma
            )
        return self.backend.range_query(tuple(sequence), sigma)

    def containing_graphs(self) -> Set[int]:
        """Graphs containing at least one occurrence of the structure."""
        return set(self._containing_graphs)

    @property
    def supports_bitsets(self) -> bool:
        """Whether every indexed graph id fits the bitset representation."""
        return self._bits_ok

    @property
    def containing_bits(self) -> int:
        """Bitset posting list of the containing graphs.

        Only meaningful when :attr:`supports_bitsets` is true; computed
        incrementally on insert, so reading it is O(1).
        """
        if not self._bits_ok:
            # Defensive: rebuild from the set so callers that ignore the
            # flag still get a correct (if partial-id) answer.
            return bits_from_ids(
                graph_id
                for graph_id in self._containing_graphs
                if supported_id(graph_id)
            )
        return self._containing_bits

    @property
    def num_containing_graphs(self) -> int:
        """Number of database graphs containing this structure."""
        return len(self._containing_graphs)

    @property
    def num_occurrences(self) -> int:
        """Total number of indexed fragment occurrences."""
        return self._num_occurrences

    @property
    def num_entries(self) -> int:
        """Number of distinct ``(sequence, graph_id)`` entries in the backend."""
        return len(self.backend)

    def entries(self) -> Iterator[Tuple[AnnotationSequence, int]]:
        """Iterate over stored ``(sequence, graph_id)`` entries."""
        return self.backend.entries()

    def __repr__(self) -> str:
        return (
            f"<EquivalenceClassIndex edges={self.sequencer.num_edges} "
            f"graphs={self.num_containing_graphs} entries={self.num_entries} "
            f"backend={self.backend.name}>"
        )
