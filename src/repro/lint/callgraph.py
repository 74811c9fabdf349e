"""The whole-project call graph assembled from per-file summaries.

Rules collect ``(caller-qualname, [(callee-dotted-name, line), ...])``
edges per file inside the parallel per-file phase; the project phase
feeds them to :class:`CallGraph`, which answers the reachability
questions cross-file rules keep asking -- "is this function reachable
from a registered experiment, and through which chain of calls?".

Resolution stays deliberately conservative (only statically nameable
targets produce edges; see :meth:`repro.lint.context.FileContext.resolve`),
so reachability under-approximates: a function the graph cannot reach
may still run, but every witness chain the graph reports corresponds to
real call sites.  The determinism rule's experiment reachability runs on
this graph; any future project-phase rule gets the same machinery for
free.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

__all__ = ["CallGraph", "Reachability"]


class Reachability:
    """BFS result: which nodes were reached, from where, and how."""

    def __init__(self) -> None:
        #: qual -> the caller it was first reached through (None = root).
        self.parent: Dict[str, Optional[str]] = {}
        #: qual -> the root label (e.g. experiment id) that reaches it.
        self.origin: Dict[str, str] = {}

    def __contains__(self, qual: str) -> bool:
        return qual in self.parent

    def __iter__(self):
        return iter(self.parent)

    def chain(self, qual: str) -> List[str]:
        """The witness call path root -> ... -> ``qual``."""
        links: List[str] = []
        cursor: Optional[str] = qual
        while cursor is not None:
            links.append(cursor)
            cursor = self.parent[cursor]
        links.reverse()
        return links


class CallGraph:
    """Directed call edges between fully qualified function names."""

    def __init__(self) -> None:
        self._callees: Dict[str, List[Tuple[str, int]]] = {}

    def add_function(
        self, qual: str, calls: Iterable[Sequence] = ()
    ) -> None:
        """Register ``qual`` with its ``(callee, line)`` call sites.

        A call site is any two-element sequence, tuple or list.
        """
        entry = self._callees.setdefault(qual, [])
        for callee, line in calls:
            entry.append((callee, line))

    def __contains__(self, qual: str) -> bool:
        return qual in self._callees

    def __len__(self) -> int:
        return len(self._callees)

    def callees_of(self, qual: str) -> List[Tuple[str, int]]:
        return list(self._callees.get(qual, ()))

    def callers_of(self, qual: str) -> List[Tuple[str, int]]:
        """Call sites targeting ``qual`` (reverse edges, computed lazily)."""
        callers: List[Tuple[str, int]] = []
        for caller, calls in self._callees.items():
            for callee, line in calls:
                if callee == qual:
                    callers.append((caller, line))
        return callers

    def reach(self, roots: Iterable[Tuple[str, str]]) -> Reachability:
        """Breadth-first reachability from ``(label, qual)`` roots.

        Only functions registered in the graph are traversed; edges to
        unknown names (stdlib, numpy, unresolvable targets) are dropped.
        Each reached function records one witness parent and the label
        of the first root that reached it.
        """
        result = Reachability()
        queue: deque = deque()
        for label, qual in roots:
            if qual in self._callees and qual not in result.parent:
                result.parent[qual] = None
                result.origin[qual] = label
                queue.append(qual)
        while queue:
            qual = queue.popleft()
            for callee, _line in self._callees[qual]:
                if callee in self._callees and callee not in result.parent:
                    result.parent[callee] = qual
                    result.origin[callee] = result.origin[qual]
                    queue.append(callee)
        return result
