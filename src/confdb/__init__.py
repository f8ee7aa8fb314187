"""confdb: a versioned, immutable configuration database.

Clients resolve a run type to a configuration tree and fetch their
settings by path; operators edit mutable alias trees and commit them,
producing permanently reproducible numeric trees, new only on edited paths.
"""

from .alias import (
    AliasTree,
    MapAlias,
    ObjectAlias,
    edit_alias_tree,
    load_alias_tree,
    new_alias_tree,
    save_alias_tree,
    serialize_alias_tree,
)
from .client import (
    ProxyDictionary,
    TreeHandle,
    configure_run,
    fetch_manifest,
    fetch_object,
    fetch_raw,
    register_proxy,
)
from .commitproc import (
    ChangeEntry,
    ChangeSet,
    commit_alias_tree,
    diff_alias_vs_numeric,
)
from .errors import ConfdbError
from .model import (
    Array,
    ObjectIdentity,
    Payload,
    decode_payload,
    encode_payload,
    format_identity,
    parse_identity,
    parse_path,
    payload_digest,
)
from .service import ConfigServer, handle_request, start_server
from .store import Store, StoredObject, WriteTransaction, open_store
from .tree import (
    TreeManifest,
    activate,
    active_trees,
    lookup_path,
    resolve_run_type,
    walk_tree,
)

__all__ = [
    "AliasTree",
    "Array",
    "ChangeEntry",
    "ChangeSet",
    "ConfdbError",
    "ConfigServer",
    "MapAlias",
    "ObjectAlias",
    "ObjectIdentity",
    "Payload",
    "ProxyDictionary",
    "Store",
    "StoredObject",
    "TreeHandle",
    "TreeManifest",
    "WriteTransaction",
    "activate",
    "active_trees",
    "commit_alias_tree",
    "configure_run",
    "decode_payload",
    "diff_alias_vs_numeric",
    "edit_alias_tree",
    "encode_payload",
    "fetch_manifest",
    "fetch_object",
    "fetch_raw",
    "format_identity",
    "handle_request",
    "load_alias_tree",
    "lookup_path",
    "new_alias_tree",
    "open_store",
    "parse_identity",
    "parse_path",
    "payload_digest",
    "register_proxy",
    "resolve_run_type",
    "save_alias_tree",
    "serialize_alias_tree",
    "start_server",
    "walk_tree",
]
