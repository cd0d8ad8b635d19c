"""The S-cuboid result object: a sparse (q+n)-dimensional array of cells.

A cell is addressed by ``(group_key, cell_key)`` where ``group_key`` holds
the q global-dimension values and ``cell_key`` the n pattern-dimension
values.  Cells with no assignment are simply absent (count 0), matching the
paper's observation that S-cuboids are typically very sparse.

An S-cuboid is immutable once built: no caller changes ``cells`` after
construction (every operation, derivation and merge builds a new cell
dict).  That is what lets :meth:`SCuboid.ordered_keys` sort the keys
once and serve every later iteration and page from the same order.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Tuple

from repro.core.spec import CuboidSpec

GroupKey = Tuple[object, ...]
CellKey = Tuple[object, ...]
CellValues = Dict[str, object]


class SCuboid:
    """A computed sequence cuboid."""

    def __init__(
        self,
        spec: CuboidSpec,
        cells: Dict[Tuple[GroupKey, CellKey], CellValues],
    ):
        self.spec = spec
        #: never mutated after construction (see the module docstring)
        self.cells = cells
        self._order: Optional[List[Tuple[GroupKey, CellKey]]] = None

    # ------------------------------------------------------------------
    # Basic access
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        """Number of non-empty cells."""
        return len(self.cells)

    def ordered_keys(self) -> List[Tuple[GroupKey, CellKey]]:
        """Every cell key in canonical (``repr``-sorted) order.

        Sorted on first use and memoized, so iteration and pagination
        after the first pay no sort.  The list is shared: do not mutate
        it.  Two threads racing on the first call both sort and store
        equal lists, so no lock is needed.
        """
        order = self._order
        if order is None:
            order = self._order = sorted(self.cells, key=repr)
        return order

    def __iter__(self) -> Iterator[Tuple[GroupKey, CellKey, CellValues]]:
        cells = self.cells
        for key in self.ordered_keys():
            yield key[0], key[1], cells[key]

    def value(
        self,
        cell_key: CellKey,
        group_key: GroupKey = (),
        aggregate: Optional[str] = None,
    ) -> object:
        """One aggregate value of one cell (0/None for absent cells)."""
        aggregate = aggregate or self.spec.aggregates[0].name
        values = self.cells.get((group_key, cell_key))
        if values is None:
            return 0 if aggregate.startswith("COUNT") else None
        return values.get(aggregate)

    def count(self, cell_key: CellKey, group_key: GroupKey = ()) -> int:
        """COUNT(*) of one cell (0 for absent cells)."""
        return int(self.value(cell_key, group_key, "COUNT(*)") or 0)

    # ------------------------------------------------------------------
    # Summaries
    # ------------------------------------------------------------------
    def group_keys(self) -> Tuple[GroupKey, ...]:
        """Distinct global-dimension keys present in the cuboid."""
        return tuple(sorted({g for g, __ in self.cells}, key=repr))

    def cell_keys(self, group_key: Optional[GroupKey] = None) -> Tuple[CellKey, ...]:
        """Distinct pattern keys (optionally within one group)."""
        if group_key is None:
            keys = {c for __, c in self.cells}
        else:
            keys = {c for g, c in self.cells if g == group_key}
        return tuple(sorted(keys, key=repr))

    def total(self, aggregate: str = "COUNT(*)") -> float:
        """Sum of one aggregate over all cells."""
        return sum(
            values.get(aggregate) or 0 for values in self.cells.values()
        )  # type: ignore[arg-type]

    def top_cells(
        self, k: int = 10, aggregate: str = "COUNT(*)"
    ) -> List[Tuple[GroupKey, CellKey, object]]:
        """The k cells with the largest aggregate value, descending."""
        ranked = sorted(
            (
                (group_key, cell_key, values.get(aggregate) or 0)
                for (group_key, cell_key), values in self.cells.items()
            ),
            key=lambda item: (-float(item[2]), repr(item[:2])),  # type: ignore[arg-type]
        )
        return ranked[:k]

    def argmax(
        self, aggregate: str = "COUNT(*)"
    ) -> Optional[Tuple[GroupKey, CellKey, object]]:
        """The single heaviest cell, or None on an empty cuboid."""
        top = self.top_cells(1, aggregate)
        return top[0] if top else None

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------
    def restrict(
        self,
        group_key: Optional[GroupKey] = None,
        cell_prefix: Optional[Tuple[object, ...]] = None,
    ) -> "SCuboid":
        """A sub-view: keep cells matching a group key and/or a cell prefix.

        This is a *display* convenience (the engine implements slice/dice by
        rewriting the spec); it does not change the spec of the view.
        """
        kept = {
            key: values
            for key, values in self.cells.items()
            if (group_key is None or key[0] == group_key)
            and (cell_prefix is None or key[1][: len(cell_prefix)] == cell_prefix)
        }
        return SCuboid(self.spec, kept)

    # ------------------------------------------------------------------
    # Tabulation
    # ------------------------------------------------------------------
    def rows(self) -> List[Tuple]:
        """Tabulated rows: (*group values, *pattern values, *aggregates)."""
        agg_names = [spec.name for spec in self.spec.aggregates]
        out = []
        for group_key, cell_key, values in self:
            out.append(
                tuple(group_key)
                + tuple(cell_key)
                + tuple(values.get(name) for name in agg_names)
            )
        return out

    def header(self) -> Tuple[str, ...]:
        """Column names matching :meth:`rows`."""
        globals_ = tuple(f"{attr}@{level}" for attr, level in self.spec.group_by)
        patterns = tuple(
            f"{symbol.name}({symbol.attribute}@{symbol.level})"
            for symbol in self.spec.pattern_dims
        )
        aggregates = tuple(spec.name for spec in self.spec.aggregates)
        return globals_ + patterns + aggregates

    def tabulate(self, limit: int = 20, sort_by_count: bool = True) -> str:
        """A fixed-width text table of the cuboid (like the paper's Fig. 2)."""
        header = self.header()
        agg_names = [spec.name for spec in self.spec.aggregates]
        if sort_by_count:
            keys = [
                (g, c) for g, c, __ in self.top_cells(limit or len(self.cells))
            ]
        else:
            keys = self.ordered_keys()[: limit or None]
        body = [
            tuple(g) + tuple(c) + tuple(self.cells[(g, c)].get(n) for n in agg_names)
            for g, c in keys
        ]
        str_rows = [tuple(str(v) for v in row) for row in body]
        widths = [
            max([len(h)] + [len(row[i]) for row in str_rows])
            for i, h in enumerate(header)
        ]
        lines = [
            "  ".join(h.ljust(w) for h, w in zip(header, widths)),
            "  ".join("-" * w for w in widths),
        ]
        for row in str_rows:
            lines.append("  ".join(v.ljust(w) for v, w in zip(row, widths)))
        omitted = len(self.cells) - len(str_rows)
        if omitted > 0:
            lines.append(f"... ({omitted} more cells)")
        return "\n".join(lines)

    def to_dict(self) -> Dict[Tuple[GroupKey, CellKey], CellValues]:
        """A plain-dict copy of the cell map (for comparisons in tests)."""
        return {key: dict(values) for key, values in self.cells.items()}

    def to_csv(self, path: str, sort_by_count: bool = True) -> int:
        """Write the tabulated cuboid to a CSV file; returns rows written."""
        import csv

        agg_names = [spec.name for spec in self.spec.aggregates]
        if sort_by_count:
            keys = [(g, c) for g, c, __ in self.top_cells(len(self.cells))]
        else:
            keys = self.ordered_keys()
        with open(path, "w", newline="", encoding="utf-8") as handle:
            writer = csv.writer(handle)
            writer.writerow(self.header())
            for g, c in keys:
                values = self.cells[(g, c)]
                writer.writerow(
                    list(g) + list(c) + [values.get(n) for n in agg_names]
                )
        return len(keys)

    def __repr__(self) -> str:
        return (
            f"SCuboid({len(self.cells)} cells, "
            f"{len(self.spec.group_by)} global dims, "
            f"{self.spec.template.n_dims} pattern dims)"
        )
