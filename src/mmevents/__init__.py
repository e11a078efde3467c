"""Multimedia event extraction via negotiated hypergraph evolution."""

from .hypergraph import BoxRegion, Document, Hyperedge, Hypergraph, ImageRef, TextSpan, Vertex
from .pipeline import DocumentResult, PipelineConfig, run_document
from .schema import EventRecord, EventSchema, default_schema, load_schema
from .scorer import evaluate

__all__ = [
    "BoxRegion", "Document", "DocumentResult", "EventRecord", "EventSchema",
    "Hyperedge", "Hypergraph", "ImageRef", "PipelineConfig", "TextSpan",
    "Vertex", "default_schema", "evaluate", "load_schema", "run_document",
]

__version__ = "0.1.0"
