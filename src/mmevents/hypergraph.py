"""The evolving multimodal event hypergraph and its invariants.

Vertices are grounded candidates (text spans or image regions) with
namespaced ids ("T1", "T2", ... for text, "O1", "O2", ... for image).
Hyperedges ("HE1", ...) are event hypotheses linking a trigger to a set
of candidate argument vertices. Role assignments stay empty during
negotiation and are only populated by the role-binding stage.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Iterable, Optional, Union

from .errors import DuplicateLocalization, InternalInconsistency, InvalidLocalization
from .schema import EventSchema


@dataclass(frozen=True)
class TextSpan:
    start: int
    end: int  # exclusive


@dataclass(frozen=True)
class BoxRegion:
    x_min: int
    y_min: int
    x_max: int
    y_max: int

    def as_list(self) -> list[int]:
        return [self.x_min, self.y_min, self.x_max, self.y_max]


Localization = Union[TextSpan, BoxRegion]


@dataclass(frozen=True)
class ImageRef:
    path: str
    width: int
    height: int


@dataclass(frozen=True)
class Document:
    doc_id: str
    text: str = ""
    image: Optional[ImageRef] = None

    def __post_init__(self):
        if not self.text and self.image is None:
            raise ValueError(f"document {self.doc_id}: text may be empty only if an image is present")
        if self.image is not None and (self.image.width <= 0 or self.image.height <= 0):
            raise ValueError(f"document {self.doc_id}: image dimensions must be positive")


def check_localization(loc: Localization, doc: Document) -> None:
    """Raise InvalidLocalization if `loc` does not fit the document."""
    if isinstance(loc, TextSpan):
        if not (0 <= loc.start < loc.end <= len(doc.text)):
            raise InvalidLocalization(f"text span {loc} out of bounds for text of length {len(doc.text)}")
    elif isinstance(loc, BoxRegion):
        if doc.image is None:
            raise InvalidLocalization("image localization on a document without an image")
        if not (0 <= loc.x_min < loc.x_max <= doc.image.width):
            raise InvalidLocalization(f"bbox {loc} x-range outside image width {doc.image.width}")
        if not (0 <= loc.y_min < loc.y_max <= doc.image.height):
            raise InvalidLocalization(f"bbox {loc} y-range outside image height {doc.image.height}")
    else:
        raise InvalidLocalization(f"unknown localization {loc!r}")


@dataclass(frozen=True)
class Vertex:
    id: str
    localization: Localization
    surface: str

    @property
    def is_text(self) -> bool:
        return isinstance(self.localization, TextSpan)


@dataclass(frozen=True)
class RoleBinding:
    vertex_id: str
    role: str
    confidence: float


@dataclass
class Hyperedge:
    id: str
    event_type: str
    members: set[str] = field(default_factory=set)
    trigger: Optional[TextSpan] = None
    trigger_surface: str = ""
    roles: list[RoleBinding] = field(default_factory=list)
    confidence: Optional[float] = None  # unset until first adjustment

    def __eq__(self, other):
        if not isinstance(other, Hyperedge):
            return NotImplemented
        return (
            self.id == other.id
            and self.event_type == other.event_type
            and self.members == other.members
            and self.trigger == other.trigger
            and self.trigger_surface == other.trigger_surface
            and sorted((r.vertex_id, r.role, r.confidence) for r in self.roles)
            == sorted((r.vertex_id, r.role, r.confidence) for r in other.roles)
            and self.confidence == other.confidence
        )


@dataclass
class Hypergraph:
    vertices: dict[str, Vertex] = field(default_factory=dict)
    edges: dict[str, Hyperedge] = field(default_factory=dict)
    next_text: int = 1
    next_image: int = 1
    next_edge: int = 1

    def copy(self) -> "Hypergraph":
        """A copy that shares the frozen vertices and role bindings; the
        dicts, each edge, its member set and its role list are new."""
        edges = {eid: replace(e, members=set(e.members), roles=list(e.roles))
                 for eid, e in self.edges.items()}
        return replace(self, vertices=dict(self.vertices), edges=edges)


def create_hypergraph(doc: Document, items: Iterable[tuple[Localization, str]]) -> Hypergraph:
    """Build an edge-free hypergraph; ids assigned in input order per namespace."""
    h = Hypergraph()
    for loc, surface in items:
        add_vertex(h, doc, loc, surface)
    return h


def add_vertex(h: Hypergraph, doc: Document, loc: Localization, surface: str) -> str:
    check_localization(loc, doc)
    for v in h.vertices.values():
        if v.localization == loc:
            raise DuplicateLocalization(f"localization {loc} already present as {v.id}")
    if isinstance(loc, TextSpan):
        expected = doc.text[loc.start:loc.end]
        if surface != expected:
            raise InvalidLocalization(
                f"surface {surface!r} does not match text at {loc.start}:{loc.end} ({expected!r})"
            )
        vid = f"T{h.next_text}"
        h.next_text += 1
    else:
        vid = f"O{h.next_image}"
        h.next_image += 1
    h.vertices[vid] = Vertex(id=vid, localization=loc, surface=surface)
    return vid


def sort_ids(ids: Iterable[str]) -> list[str]:
    """Namespace-aware id ordering: T* before O* before HE*, numeric within."""
    rank = {"T": 0, "O": 1, "H": 2}

    def key(i: str):
        prefix = "HE" if i.startswith("HE") else i[0]
        return (rank[i[0]], int(i[len(prefix):]))

    return sorted(ids, key=key)


def check_invariants(h: Hypergraph, schema: EventSchema, doc: Document) -> None:
    """Raise InternalInconsistency on any structural violation."""
    for v in h.vertices.values():
        if v.is_text and v.id[0] != "T":
            raise InternalInconsistency(f"{v.id}: id namespace does not match modality")
        if not v.is_text and v.id[0] != "O":
            raise InternalInconsistency(f"{v.id}: id namespace does not match modality")
        if v.is_text:
            loc = v.localization
            if v.surface != doc.text[loc.start:loc.end]:
                raise InternalInconsistency(f"{v.id}: surface diverges from document text")
    for e in h.edges.values():
        if not schema.has_type(e.event_type):
            raise InternalInconsistency(f"{e.id}: event type {e.event_type!r} not in schema")
        unknown = e.members - set(h.vertices)
        if unknown:
            raise InternalInconsistency(f"{e.id}: members reference unknown vertices {sorted(unknown)}")
        if e.confidence is not None and not 0.0 <= e.confidence <= 1.0:
            raise InternalInconsistency(f"{e.id}: confidence {e.confidence} out of range")
        legal = set(schema.roles_for(e.event_type))
        for rb in e.roles:
            if rb.vertex_id not in e.members:
                raise InternalInconsistency(f"{e.id}: role bound to non-member {rb.vertex_id}")
            if rb.role not in legal:
                raise InternalInconsistency(f"{e.id}: role {rb.role!r} not legal for {e.event_type}")
            if not 0.0 <= rb.confidence <= 1.0:
                raise InternalInconsistency(f"{e.id}: binding confidence {rb.confidence} out of range")
        if doc.text and e.trigger is None:
            raise InternalInconsistency(f"{e.id}: trigger required when the document has text")
