"""The data agenda: the evolving feature-description registry.

Section 3.1: SMARTFEAT's input is (1) the dataset feature description,
(2) the prediction class, and (3) the downstream model.  Each accepted
feature's name and description are appended, and the updated agenda seeds
the next iteration's prompts.  :meth:`DataAgenda.describe` is the exact
serialisation every prompt embeds (and the simulator parses); each entry
renders its line once, when it is made, so a describe is a join.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.dataframe import DataFrame, Series
from repro.dataframe.kernels import ColumnProfile, column_profile
from repro.records import NOT_RECORDED, from_record, to_record

__all__ = ["AgendaEntry", "DataAgenda"]

#: Upper bound on how many category values are listed in the agenda;
#: columns above this read as "high cardinality" to the FM.
MAX_LISTED_VALUES = 15


@dataclass(frozen=True)
class AgendaEntry:
    """One feature's agenda line: name, kind, optional domain, description.

    Immutable: :attr:`line`, the rendered agenda line, is fixed when the
    entry is made.
    """

    name: str
    kind: str  # "numeric" | "categorical" | "binary"
    description: str = ""
    values: tuple[str, ...] = ()
    line: str = field(init=False, repr=False, compare=False, metadata=NOT_RECORDED)

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", tuple(self.values))
        values = f", values: {'|'.join(self.values)}" if self.values else ""
        object.__setattr__(
            self, "line", f"- {self.name} ({self.kind}{values}): {self.description}"
        )


def column_kind(series: Series, profile: ColumnProfile) -> tuple[str, list[str]]:
    """A column's agenda kind and listable category values.

    The one classifier for original and generated columns alike:
    numeric storage is ``"binary"`` or ``"numeric"`` by its profile;
    anything else (object cells, even ``True``/``False``/missing) is
    ``"categorical"``, listing its first-seen values unless the column
    exceeds :data:`MAX_LISTED_VALUES`.  *profile* is
    ``column_profile(series.values, MAX_LISTED_VALUES)``.
    """
    if series.dtype.kind in "iufb":
        return ("binary" if profile.binary else "numeric"), []
    return "categorical", [str(v) for v in profile.uniques or ()]


@dataclass
class DataAgenda:
    """Serializable description of the dataset, target, and model context."""

    title: str = ""
    target: str = ""
    target_description: str = ""
    model: str = ""
    entries: dict[str, AgendaEntry] = field(default_factory=dict)

    # ------------------------------------------------------------------
    @classmethod
    def from_dataframe(
        cls,
        frame: DataFrame,
        target: str,
        descriptions: dict[str, str] | None = None,
        title: str = "",
        target_description: str = "",
        model: str = "",
    ) -> "DataAgenda":
        """Build the initial agenda from a dataframe plus its data card.

        *descriptions* maps column name → natural-language description (the
        content of a Kaggle-style data card).  Absent descriptions leave the
        entry with an empty description — the paper's "minimal input,
        consisting only of the feature names" configuration.

        Each column is profiled once (:func:`column_profile`); a
        low-cardinality plain-``str`` column is profiled from its
        ``Series.encoding()``, which stays cached on *frame*'s Series for
        the ops that read it.  A fit therefore passes its working copy,
        never the caller's frame.
        """
        if target not in frame.columns:
            raise KeyError(f"target column {target!r} not in dataframe")
        descriptions = descriptions or {}
        agenda = cls(
            title=title,
            target=target,
            target_description=target_description,
            model=model,
        )
        for name in frame.columns:
            if name == target:
                continue
            series = frame[name]
            kind, values = column_kind(
                series,
                column_profile(
                    series.values, MAX_LISTED_VALUES, series.encoding, series.cell_types()
                ),
            )
            agenda.entries[name] = AgendaEntry(
                name=name,
                kind=kind,
                description=descriptions.get(name, ""),
                values=values,
            )
        return agenda

    # ------------------------------------------------------------------
    def add(self, name: str, kind: str, description: str, values: list[str] | None = None) -> None:
        """Register a newly generated feature (name + description, §3.1)."""
        if kind not in ("numeric", "categorical", "binary"):
            raise ValueError(f"invalid agenda kind: {kind!r}")
        self.entries[name] = AgendaEntry(name, kind, description, tuple(values or ()))

    def remove(self, name: str) -> None:
        self.entries.pop(name, None)

    def __contains__(self, name: str) -> bool:
        return name in self.entries

    @property
    def feature_names(self) -> list[str]:
        return list(self.entries)

    def numeric_features(self) -> list[str]:
        return [e.name for e in self.entries.values() if e.kind == "numeric"]

    def categorical_features(self) -> list[str]:
        return [e.name for e in self.entries.values() if e.kind == "categorical"]

    # ------------------------------------------------------------------
    def describe(self) -> str:
        """Serialise the agenda into the prompt block every template embeds."""
        target_desc = f" — {self.target_description}" if self.target_description else ""
        lines = [
            f"Dataset description: {self.title or 'untitled dataset'}",
            "Features:",
            *(entry.line for entry in self.entries.values()),
            f"Prediction class: {self.target}{target_desc}",
        ]
        if self.model:
            lines.append(f"Downstream model: {self.model}")
        return "\n".join(lines)

    def subset(self, names) -> "DataAgenda":
        """A view of this agenda restricted to *names*, order preserved.

        Entry objects are shared, not copied (they are immutable) — the
        stage scheduler builds one subset per sampling wave, so views must
        be cheap.  Title, target, and model context are retained
        (every stage prompt needs them).
        """
        keep = set(names)
        out = DataAgenda(
            title=self.title,
            target=self.target,
            target_description=self.target_description,
            model=self.model,
        )
        for name, entry in self.entries.items():
            if name in keep:
                out.entries[name] = entry
        return out

    def copy(self) -> "DataAgenda":
        """A deep copy: the agenda rebuilt from its record."""
        return from_record(DataAgenda, to_record(self))
