"""A fixed piece of pure-Python work that measures the machine's current speed.

The machine the benchmark runs on is shared: the same code runs up to
40% slower for spells of seconds to minutes, on both of its CPUs, in CPU
time as in wall time.  So the end-to-end times are taken at a reference
speed: the benchmark runs :func:`gauge` between every two ops and scales
each op's wall time by ``REF_S`` over the mean of the gauge readings just
before and just after it.  An op that takes 2 gauge-times reads
``2 * REF_S``, however fast the machine happens to be at that moment.

The gauge does the kinds of work the package does, with no code of the
package: adjacency lists, a breadth-first sweep, a memo table keyed by
tuples, formatting and tokenising text, and a JSON round trip.  The
garbage collector is off while it runs, so its time does not depend on
how many objects the program under test keeps alive.
"""

from __future__ import annotations

import gc
import json
from time import perf_counter

# The gauge's median time on the 2-core development machine, Python 3.11.
REF_S = 0.008

SIZE = 1400


def _work(n: int = SIZE) -> int:
    adj: list[list[int]] = [[] for _ in range(n)]
    x = 12345
    for v in range(1, n):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        u = x % v
        adj[u].append(v)
        adj[v].append(u)
    dist = {0: 0}
    queue = [0]
    for u in queue:
        for w in adj[u]:
            if w not in dist:
                dist[w] = dist[u] + 1
                queue.append(w)
    memo: dict[tuple[int, int, int], int] = {}
    for v in range(n):
        for d in range(4):
            memo[(v, d, dist[v] % 3)] = memo.get((v - 1, d, 0), 0) + d
    text = " ".join(f"({u} {w})" for u in range(n) for w in adj[u] if u < w)
    tokens = text.replace("(", " ( ").replace(")", " ) ").split()
    ints = [int(t) for t in tokens if t not in "()"]
    doc = json.loads(json.dumps({"edges": ints, "dist": dist}))
    first = sorted(doc["dist"].items(), key=lambda kv: (kv[1], kv[0]))[0]
    return len(memo) + len(doc["edges"]) + int(first[0])


def gauge() -> float:
    """Wall time of one run of the fixed work, with the collector off."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = perf_counter()
        _work()
        return perf_counter() - start
    finally:
        if enabled:
            gc.enable()
