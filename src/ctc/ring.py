"""Facts of a fusion ring: its channels and its compiled coherence programs.

Each fusion ring compiles its pentagon and hexagon equations once, on
its first sweep, into programs of integer slots; ``ctc.category`` checks
a category by filling a value list with its symbols and evaluating
every program with ``holds``, in the arithmetic of the category's field.
"""

from __future__ import annotations

from functools import cached_property, lru_cache
from itertools import product

__all__ = ["FusionRing", "fusion_ring", "holds"]

# a benchmark pass uses 5 rings; a large one holds several MB (about 9 MB
# for the Z_5 toric code once its hexagon is compiled)
_RINGS = 8


class FusionRing:
    """Facts of one fusion ring, shared by every category on it.

    A pure function of the labels and the fusion rules: no F, R or
    scalar enters, so the facts hold in every field.
    ``channels[(a, b)]`` lists the c in a x b in label order;
    ``CategorySpec.channels`` reads it.

    ``blocks`` numbers the slots of a value list (see ``category._slot_values``)
    and finds the wide outer triples: those with a recoupling block
    larger than 1x1 at some total, the only ones a sweep inverts.  A
    program lists the equations of one pentagon 4-tuple or hexagon triple
    as pairs (lhs, rhs) of terms, each term the tuple of slots whose
    values multiply.  A ring's first sweep
    compiles the programs of its kind, never its load, and every sweep
    evaluates all of them.
    """

    def __init__(self, labels, fusion):
        self.labels = labels
        self.fusion = fusion
        self._index = {lab: k for k, lab in enumerate(labels)}
        self.ordered_fusion = sorted(fusion, key=self.order)
        self.channels = {}
        for a, b, c in self.ordered_fusion:
            self.channels.setdefault((a, b), []).append(c)

    def order(self, group) -> tuple:
        """Sort key of a tuple of labels: label order, position by position."""
        return tuple(self._index[x] for x in group)

    def _ch(self, a, b):
        return self.channels.get((a, b), ())

    @cached_property
    def blocks(self):
        """(wide, slots, size): the wide outer triples, each with its
        totals d in label order, those with trees on both sides; the slot
        of every R and F key; and the length of a value list."""
        ch, labels = self._ch, self.labels
        slots = {t: k for k, t in enumerate(self.ordered_fusion, 1)}
        size = len(slots) + 1
        wide = {}
        for a in labels:
            for b in labels:
                for c in labels:
                    e_trees, f_trees = {}, {}
                    for e in ch(a, b):
                        for d in ch(e, c):
                            e_trees.setdefault(d, []).append(e)
                    for f in ch(b, c):
                        for d in ch(a, f):
                            f_trees.setdefault(d, []).append(f)
                    totals, is_wide = [], False
                    for d, es in e_trees.items():
                        fs = f_trees.get(d)
                        if fs is None:
                            continue
                        totals.append(d)
                        is_wide = is_wide or len(es) != 1 or len(fs) != 1
                        for f in fs:
                            for e in es:
                                slots[a, b, c, d, e, f] = size
                                size += 1
                    if is_wide:
                        wide[a, b, c] = sorted(totals, key=self._index.get)
        return wide, slots, size

    @cached_property
    def pentagon_settled(self):
        """Whether every pentagon holds when every F entry is 1, with no
        program: in a pointed ring (one channel per pair) with associative
        rules each side of every pentagon is the one tree
        ((ab)c)d = a(b(cd))."""
        labels = self.labels
        mul = {pair: cs[0] for pair, cs in self.channels.items() if len(cs) == 1}
        return len(mul) == len(labels) ** 2 and all(
            mul[mul[a, b], c] == mul[a, mul[b, c]] for a in labels for b in labels for c in labels
        )

    @cached_property
    def pentagon_programs(self):
        """The programs of the 4-tuples t = (a, b, c, d) in label order:
        for the source tree (((ab)_e c)_f d)_u and the target tree
        (a(b(cd)_g)_h)_u, the lhs F^{ecd}_{u;f,g} F^{abg}_{u;e,h} and the
        rhs terms F^{abc}_{f;e,k} F^{akd}_{u;f,h} F^{bcd}_{h;k,g}.  A
        4-tuple through the unit is left out: its equations pair off term
        by term, and its F entries are 1."""
        fusion, ch, labels, slot = self.fusion, self._ch, self.labels, self.blocks[1]
        unit = next((u for u in labels if all(ch(u, x) == [x] == ch(x, u) for x in labels)), None)
        out = {}
        for t in product(labels, repeat=4):
            if unit in t:
                continue
            a, b, c, d = t
            bc, gh = ch(b, c), [(g, ch(b, g)) for g in ch(c, d)]
            program = []
            for e in ch(a, b):
                for f in ch(e, c):
                    abc = [(k, slot[a, b, c, f, e, k]) for k in bc if (a, k, f) in fusion]
                    for u in ch(f, d):
                        for g, hs in gh:
                            # None when there is no tree through g on the left
                            ecd = slot.get((e, c, d, u, f, g))
                            for h in hs:
                                if (a, h, u) not in fusion:
                                    continue
                                lhs = () if ecd is None else ((ecd, slot[a, b, g, u, e, h]),)
                                rhs = [
                                    (s, slot[a, k, d, u, f, h], slot[b, c, d, h, k, g])
                                    for k, s in abc
                                    if (k, d, h) in fusion
                                ]
                                if lhs or rhs:
                                    program.append((lhs, tuple(rhs)))
            out[t] = tuple(program)
        return out

    @cached_property
    def hexagon_programs(self):
        """The hexagon-1 program of every label triple (a, b, c): per total
        d and tree pair, the two sides of ``category.verify_hexagon``'s
        equation.  Hexagon-2 of (a, b, c) is the program of (c, a, b) on
        the reverse braiding's values."""
        fusion, ch, labels, slot = self.fusion, self._ch, self.labels, self.blocks[1]
        out = {}
        for a in labels:
            for b in labels:
                for c in labels:
                    program = []
                    for e in ch(a, b):
                        back = (b, a, e) in fusion
                        for d in ch(e, c):
                            for g in ch(c, a):
                                if (b, g, d) not in fusion:
                                    continue
                                lhs = tuple([
                                    (slot[a, b, c, d, e, f], slot[a, f, d], slot[b, c, a, d, f, g])
                                    for f in ch(b, c)
                                    if (a, f, d) in fusion and (f, a, d) in fusion
                                ])
                                mid = back and (a, c, g) in fusion
                                rhs = ((slot[a, b, e], slot[b, a, c, d, e, g], slot[a, c, g]),) if mid else ()
                                if lhs or rhs:
                                    program.append((lhs, rhs))
                    out[a, b, c] = tuple(program)
        return out

    @cached_property
    def balancing(self):
        """Per fusion triple (a, b, c) in label order: the R slots of
        (a, b, c) and of (b, a, c), the latter 0 (the slot of 1) outside
        the rules, and the positions of a, b and c in the labels."""
        slot, index = {t: k for k, t in enumerate(self.ordered_fusion, 1)}, self._index
        return [
            (slot[a, b, c], slot.get((b, a, c), 0), index[a], index[b], index[c]) for a, b, c in self.ordered_fusion
        ]


@lru_cache(maxsize=_RINGS)
def fusion_ring(labels: tuple, fusion: frozenset) -> FusionRing:
    """The shared fusion-ring facts of the rules; a few rings are kept."""
    return FusionRing(labels, fusion)


def holds(program, values, ops) -> bool:
    """Whether every equation of ``program`` holds on ``values``, one per
    slot: on each side, the sum over its terms of the product of their
    values.  ``ops`` is (mul, add, one, zero) for the values' field; a
    value that is ``one`` itself costs no product, and a sum starts from
    ``zero`` itself."""
    mul, add, one, zero = ops
    for equation in program:
        sums = []
        for terms in equation:
            total = zero
            for term in terms:
                p = one
                for s in term:
                    x = values[s]
                    if x is not one:
                        p = x if p is one else mul(p, x)
                total = p if total is zero else add(total, p)
            sums.append(total)
        left, right = sums
        if left is not right and left != right:
            return False
    return True
