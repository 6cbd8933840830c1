"""Stub of the compiler module, loaded under the real path
(``src/repro/fastpath/compile.py``) so fixture stores resolve to the
frozen classes — and so stores *here* count as sanctioned."""


class CompiledTrie:
    def __init__(self, width):
        self.width = width
        self.child = [-1] * (2 * width)
        self.node_result = [-1] * width

    def relayout(self):
        # Sanctioned: the compiler may write its own arrays.
        self.child[0] = 0


class CompiledClueTable:
    def __init__(self, trie):
        self.trie = trie
        self.probe_keys = []
        self.probe_recs = []
        self.rec_fd = []
        self.stop_masks = []
