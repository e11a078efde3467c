from dataclasses import replace

import pytest

from mmevents.errors import (
    DuplicateLocalization,
    InternalInconsistency,
    InvalidLocalization,
)
from mmevents.hypergraph import (
    BoxRegion,
    Document,
    Hyperedge,
    Hypergraph,
    ImageRef,
    RoleBinding,
    TextSpan,
    add_vertex,
    check_invariants,
    check_localization,
    create_hypergraph,
    sort_ids,
)
from mmevents.schema import default_schema

TEXT = "Police arrested two men in Kabul."
DOC = Document("d", TEXT)
IMG_DOC = Document("i", "", ImageRef("x.jpg", 640, 480))


def test_document_requires_text_or_image():
    with pytest.raises(ValueError):
        Document("bad", "")
    with pytest.raises(ValueError):
        Document("bad", "", ImageRef("x.jpg", 0, 10))


def test_vertex_id_namespaces():
    doc = Document("d", TEXT, ImageRef("x.jpg", 640, 480))
    h = Hypergraph()
    assert add_vertex(h, doc, TextSpan(0, 6), "Police") == "T1"
    assert add_vertex(h, doc, BoxRegion(0, 0, 10, 10), "crowd") == "O1"
    assert add_vertex(h, doc, TextSpan(20, 23), "men") == "T2"
    assert h.next_text == 3 and h.next_image == 2


def test_duplicate_localization_rejected():
    h = create_hypergraph(DOC, [(TextSpan(0, 6), "Police")])
    with pytest.raises(DuplicateLocalization):
        add_vertex(h, DOC, TextSpan(0, 6), "Police")


def test_text_surface_must_match():
    h = Hypergraph()
    with pytest.raises(InvalidLocalization):
        add_vertex(h, DOC, TextSpan(0, 6), "police")  # wrong case


def test_localization_bounds():
    with pytest.raises(InvalidLocalization):
        check_localization(TextSpan(0, 999), DOC)
    with pytest.raises(InvalidLocalization):
        check_localization(TextSpan(5, 5), DOC)
    with pytest.raises(InvalidLocalization):
        check_localization(BoxRegion(0, 0, 10, 10), DOC)  # no image
    with pytest.raises(InvalidLocalization):
        check_localization(BoxRegion(0, 0, 700, 10), IMG_DOC)
    check_localization(BoxRegion(0, 0, 640, 480), IMG_DOC)


def test_sort_ids_namespace_then_numeric():
    ids = ["HE2", "T10", "O1", "T2", "HE1", "O3"]
    assert sort_ids(ids) == ["T2", "T10", "O1", "O3", "HE1", "HE2"]


def _base():
    h = create_hypergraph(DOC, [(TextSpan(0, 6), "Police"), (TextSpan(20, 23), "men")])
    h.edges["HE1"] = Hyperedge(
        id="HE1", event_type="Justice:ArrestJail",
        members={"T1", "T2"}, trigger=TextSpan(7, 15),
    )
    h.next_edge = 2
    return h


def test_invariants_pass_on_consistent_state():
    check_invariants(_base(), default_schema(), DOC)


def test_invariants_unknown_member():
    h = _base()
    h.edges["HE1"].members.add("T9")
    with pytest.raises(InternalInconsistency):
        check_invariants(h, default_schema(), DOC)


def test_invariants_illegal_role():
    h = _base()
    h.edges["HE1"].roles.append(RoleBinding("T2", "Victim", 0.9))
    with pytest.raises(InternalInconsistency):
        check_invariants(h, default_schema(), DOC)


def test_invariants_role_on_non_member():
    h = _base()
    h.edges["HE1"].members.discard("T2")
    h.edges["HE1"].roles.append(RoleBinding("T2", "Person", 0.9))
    with pytest.raises(InternalInconsistency):
        check_invariants(h, default_schema(), DOC)


def test_invariants_confidence_range():
    h = _base()
    h.edges["HE1"].confidence = 1.5
    with pytest.raises(InternalInconsistency):
        check_invariants(h, default_schema(), DOC)


def test_invariants_trigger_required_with_text():
    h = _base()
    h.edges["HE1"].trigger = None
    with pytest.raises(InternalInconsistency):
        check_invariants(h, default_schema(), DOC)


def test_invariants_surface_divergence():
    h = _base()
    h.vertices["T1"] = replace(h.vertices["T1"], surface="Polizei")
    with pytest.raises(InternalInconsistency):
        check_invariants(h, default_schema(), DOC)


def test_copy_is_deep():
    h = _base()
    g = h.copy()
    g.edges["HE1"].members.add("T2")
    g.edges["HE1"].roles.append(RoleBinding("T2", "Person", 0.9))
    g.vertices["T1"] = replace(g.vertices["T1"], surface="changed")
    assert h.vertices["T1"].surface == "Police"
    assert h.edges["HE1"].roles == []
    assert h == _base()
