"""Seeded inputs, statements and the independent correctness reference.

Everything here is plain Python over the generated rows; nothing is
imported from ``repro``.  The program under test only ever receives the
tables built here (through ``Database.create_table`` plus the DDL
below), and every answer it gives is checked against the reference
functions at the bottom of this module.
"""

from __future__ import annotations

import bisect
import hashlib
import random
from collections import Counter, defaultdict
from typing import Dict, Iterable, List, Sequence, Set, Tuple

ACCOUNTS = 800
TRANSFERS = 3200
#: Rows the refresh workload drops from and adds to ``Transfer`` per write.
WINDOW_STEP = 40

ACCOUNT_COLUMNS = ["iban"]
TRANSFER_COLUMNS = ["t_id", "src_iban", "tgt_iban", "ts", "amount"]

DDL = (
    "CREATE PROPERTY GRAPH Transfers ("
    " NODES TABLE Account KEY (iban) LABEL Account,"
    " EDGES TABLE Transfer KEY (t_id)"
    " SOURCE KEY src_iban REFERENCES Account"
    " TARGET KEY tgt_iban REFERENCES Account"
    " LABELS Transfer PROPERTIES (ts, amount))"
)

#: The paper's kernel: every (source, target) pair of the transitive closure.
PAIRS = (
    "SELECT * FROM GRAPH_TABLE ( Transfers "
    "MATCH (x)-[t:Transfer]->+(y) COLUMNS (x.iban, y.iban) )"
)
#: The same closure projected to its sources: few rows, same fixpoint.
SOURCES = (
    "SELECT * FROM GRAPH_TABLE ( Transfers "
    "MATCH (x)-[t:Transfer]->+(y) COLUMNS (x.iban) )"
)
#: One hop filtered on a parameter (``minimum`` uniform in 900..999).
HOP = (
    "SELECT * FROM GRAPH_TABLE ( Transfers MATCH (x)-[t:Transfer]->(y) "
    "WHERE t.amount > :minimum COLUMNS (x.iban AS src, y.iban AS dst) )"
)
#: One to three hops from one account (``acct`` Zipf-skewed over all accounts).
BOUNDED = (
    "SELECT * FROM GRAPH_TABLE ( Transfers MATCH (x)-[t:Transfer]->{1,3}(y) "
    "WHERE x.iban = :acct COLUMNS (x.iban AS src, y.iban AS dst) )"
)

Row = Tuple
Transfer = Tuple[str, str, str, int, int]


# --------------------------------------------------------------------- #
# Inputs
# --------------------------------------------------------------------- #
def bank_tables(seed: int) -> Tuple[List[str], List[Transfer]]:
    """``Account`` ibans and ``Transfer`` rows of the bank dataset.

    Draws in the same order as ``repro.datasets.generate_iban_database``
    (all amounts first, then two distinct endpoints per transfer), so a
    seed names the same graph in both; the copy keeps the inputs fixed
    even if the program's own generator changes.
    """
    rng = random.Random(seed)
    ibans = [f"IBAN{i:05d}" for i in range(ACCOUNTS)]
    amounts = [rng.randint(1, 1000) for _ in range(TRANSFERS)]
    rows = []
    for index in range(TRANSFERS):
        src, tgt = rng.sample(ibans, 2)
        rows.append((f"T{index:06d}", src, tgt, 1_700_000_000 + 60 * index, amounts[index]))
    return ibans, rows


class TransferWindow:
    """The refresh workload's sliding ``Transfer`` table.

    Each :meth:`advance` drops the oldest :data:`WINDOW_STEP` rows and
    appends as many new seeded ones, so the table keeps its size.
    """

    def __init__(self, seed: int, ibans: List[str], rows: List[Transfer]):
        self._rng = random.Random(f"refresh-{seed}")
        self._ibans = ibans
        self.rows = list(rows)
        self._next = len(rows)

    def advance(self) -> List[Transfer]:
        fresh = []
        for _ in range(WINDOW_STEP):
            index = self._next
            self._next += 1
            src, tgt = self._rng.sample(self._ibans, 2)
            amount = self._rng.randint(1, 1000)
            fresh.append((f"T{index:06d}", src, tgt, 1_700_000_000 + 60 * index, amount))
        self.rows = self.rows[WINDOW_STEP:] + fresh
        return self.rows


#: Zipf exponent of the bounded lookup's account popularity.  At the
#: few hundred bounded lookups of a run about 70% repeat an earlier
#: account, so the median lookup sits in the memo-hit mode and the
#: misses in the tail, not on the border between the two.
ZIPF_EXPONENT = 1.2


def popularity(seed: int, ibans: List[str]) -> List[str]:
    """Accounts from most to least popular, shared by every client."""
    ranking = list(ibans)
    random.Random(f"popularity-{seed}").shuffle(ranking)
    return ranking


class ReadMix:
    """A seeded 50/50 stream of hop and bounded lookups.

    ``minimum`` is uniform in 900..999; ``acct`` follows a Zipf law over
    ``ranking``, so a few accounts repeat often and most are rare.
    """

    def __init__(self, rng: random.Random, ranking: List[str]):
        self._rng = rng
        self._ranking = ranking
        total = 0.0
        self._cumulative = []
        for rank in range(1, len(ranking) + 1):
            total += rank ** -ZIPF_EXPONENT
            self._cumulative.append(total)

    def hop(self) -> Tuple[str, str, Dict]:
        return "hop", HOP, {"minimum": self._rng.randint(900, 999)}

    def bounded(self) -> Tuple[str, str, Dict]:
        point = self._rng.random() * self._cumulative[-1]
        index = min(bisect.bisect_right(self._cumulative, point), len(self._ranking) - 1)
        return "bounded", BOUNDED, {"acct": self._ranking[index]}

    def next(self) -> Tuple[str, str, Dict]:
        return self.hop() if self._rng.random() < 0.5 else self.bounded()


# --------------------------------------------------------------------- #
# Reference answers (independent of the engines)
# --------------------------------------------------------------------- #
def successors(rows: Iterable[Transfer]) -> Dict[str, Set[str]]:
    graph: Dict[str, Set[str]] = defaultdict(set)
    for _tid, src, tgt, _ts, _amount in rows:
        graph[src].add(tgt)
    return graph


def closure_reference(rows: Sequence[Transfer]) -> Tuple[List[Row], List[Row]]:
    """Rows of :data:`PAIRS` and :data:`SOURCES`, by one BFS per source."""
    graph = successors(rows)
    pairs: List[Row] = []
    sources: List[Row] = []
    for start in graph:
        seen: Set[str] = set(graph[start])
        frontier = list(seen)
        while frontier:
            following = []
            for node in frontier:
                for target in graph.get(node, ()):
                    if target not in seen:
                        seen.add(target)
                        following.append(target)
            frontier = following
        pairs.extend((start, target) for target in seen)
        if seen:
            sources.append((start,))
    return pairs, sources


def hop_reference(rows: Sequence[Transfer], minimum: int) -> Set[Row]:
    """Rows of :data:`HOP`: a direct scan of the transfers."""
    return {(src, tgt) for _tid, src, tgt, _ts, amount in rows if amount > minimum}


def bounded_reference(graph: Dict[str, Set[str]], acct: str) -> Set[Row]:
    """Rows of :data:`BOUNDED`: walks of one, two or three steps."""
    reached: Set[str] = set()
    layer = {acct}
    for _step in range(3):
        layer = {target for node in layer for target in graph.get(node, ())}
        reached |= layer
    return {(acct, target) for target in reached}


def ordered(rows: Iterable[Row]) -> List[Row]:
    """The engines' documented deterministic row order (by ``repr``)."""
    return sorted(rows, key=repr)


def digest(rows: Iterable[Row]) -> str:
    """Order-sensitive fingerprint of a row list."""
    h = hashlib.sha256()
    for row in rows:
        h.update(repr(row).encode("utf-8"))
        h.update(b"\x1e")
    return h.hexdigest()


def same_multiset(rows: Iterable[Sequence], expected: Set[Row]) -> bool:
    """Multiset equality: ``rows`` is exactly ``expected``, each row once."""
    counts = Counter(tuple(row) for row in rows)
    return len(counts) == len(expected) and all(
        count == 1 and row in expected for row, count in counts.items()
    )
