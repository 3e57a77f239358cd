"""Bounded stores: values kept by key, the oldest key dropped first.

A store is a dict of at most `bound` keys in insertion order. `keep` puts
a value in, first dropping the oldest key when a new key meets a full
store; a key kept again holds its place. `lookup` reads a value and counts
it in `hits` or `misses`; a plain `get` counts nothing. Stored values are
never None, so None means a miss.
"""


class Store(dict):
    def __init__(self, bound):
        super().__init__()
        self.bound = bound
        self.hits = self.misses = 0

    def lookup(self, key):
        """The value kept for key, or None; counted as a hit or a miss."""
        got = self.get(key)
        if got is None:
            self.misses += 1
        else:
            self.hits += 1
        return got

    def keep(self, key, value):
        """Keep value for key and return it."""
        if key not in self and len(self) >= self.bound:
            del self[next(iter(self))]
        self[key] = value
        return value
