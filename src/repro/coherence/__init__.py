"""Directory-based invalidating cache-coherence protocol."""

from repro.coherence.directory import Directory, DirectoryEntry, DirState
from repro.coherence.protocol import (
    AccessClass,
    AccessOutcome,
    CoherenceProtocol,
    NodeCaches,
    ProtocolObserver,
    ProtocolStats,
)
from repro.coherence.table import (
    DIRECTORY_PROTOCOL_TABLE,
    Action,
    Impossible,
    ProtocolTableError,
    ProtoEvent,
    Rule,
    TransitionTable,
    build_directory_table,
    impossibility_reason,
)

__all__ = [
    "AccessClass",
    "AccessOutcome",
    "Action",
    "CoherenceProtocol",
    "DIRECTORY_PROTOCOL_TABLE",
    "Directory",
    "DirectoryEntry",
    "DirState",
    "Impossible",
    "NodeCaches",
    "ProtocolObserver",
    "ProtocolStats",
    "ProtocolTableError",
    "ProtoEvent",
    "Rule",
    "TransitionTable",
    "build_directory_table",
    "impossibility_reason",
]
