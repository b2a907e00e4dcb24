"""One way to clear every memo of the library, for tests that read cold values.

clear_memos clears every functools.lru_cache bound to a name in
mgcp.compositions, variants, shock and bernstein, so a memo added there
is cleared without a list to keep.  It reads the module dicts, not
getattr, so a lazily bound attribute (bernstein.quad) stays unloaded.
"""

from mgcp import bernstein, compositions, shock, variants


def clear_memos():
    """Clear every lru_cache on the memoising modules, each cold read as cold as any."""
    for module in (compositions, variants, shock, bernstein):
        for value in vars(module).values():
            if hasattr(value, "cache_clear"):
                value.cache_clear()
