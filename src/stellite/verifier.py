"""Finite context enumeration and the top-level refinement checks.

check_cut_refinement decides the finite, cut-based refinement between two
blocks by enumerating every reduced context within a derived per-location
budget and comparing histories. It keeps both blocks' executions
as rf classes (blocklocal.block_classes), completed once per value-free
skeleton, with their history.ClassMasks, built once per skeleton class,
and computes an original-block class's deny masks, one per mo order, only
as far as the domination scan needs them, and checks one (context,
sigma) pair of each orbit under the renamings of the values neither
block names, only where the new block has room for a cut survivor, and
there each cut survivor once per permutation of interchangeable context
actions. check_q_instance decides the quantified refinement at one
explicit context instance, with prefix matching for racy executions of
non-atomic accesses.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from types import MappingProxyType
from typing import NamedTuple

from . import lang
from .axiomatic import (
    Action,
    BudgetExceeded,
    class_executions,
    is_read,
    is_write,
    safe,
)
from .blocklocal import (
    CutContext,
    Skeletons,
    block_classes,
    check_context,
    downclosure,
    executions,
    setup,
)
from .cut import CutPruner, fits, location_need, room
from .history import (
    ClassMasks,
    PairIndex,
    class_hist_ext,
    hist,
    refines,
)


class Budget(NamedTuple):
    """Per-location caps on context actions, and the execution cap.

    reads and writes cap the context reads and writes of a location;
    pairs caps the context LL/SC pairs of a data location, whose LL and
    SC the read and write caps count too. The cut lemma makes the
    contexts within context_bound's caps enough for the blocks and values
    they were derived from; any other budget, apart from a changed
    max_block_execs, voids the soundness of a Verified answer.

    max_block_execs caps the executions of one block under one context
    and one sigma: the cut survivors on the B1 side, every execution on
    the B2 side. Going over it makes the verdict Unknown.
    """

    reads: dict
    writes: dict
    pairs: dict = MappingProxyType({})
    values: frozenset = frozenset({0, 1})
    max_block_execs: int | None = 200_000

    @property
    def locations(self):
        return sorted(set(self.reads) | set(self.writes) | set(self.pairs))


class Witness(NamedTuple):
    context: CutContext
    sigma: dict
    execution: object
    hist: object
    candidates: list


class Verdict(NamedTuple):
    outcome: str  # 'Verified' | 'Refuted' | 'Unknown'
    stats: dict
    witness: Witness | None = None

    def __bool__(self):
        return self.outcome == "Verified"


def _code_counts(pres):
    """Max number of code reads/writes per location over the lists of
    pre-executions pres (LL counts as a read, SC as a write)."""
    reads, writes = Counter(), Counter()
    for pre in itertools.chain(*pres):
        reads |= Counter(a.gvar for a in pre.actions if is_read(a))
        writes |= Counter(a.gvar for a in pre.actions if is_write(a))
    return reads, writes


def _caps(pre1, pre2):
    """context_bound's reads, writes and pairs caps, from the new and the
    original block's pre-executions over the pair's initial maps. A
    local not live in a block leaves its runs alone, so these give the
    same maxima as the block's own initial maps."""
    r1, w1 = _code_counts(pre1)
    r2, w2 = _code_counts(pre2)
    wc, rc = w1 | w2, r1 | r2
    reads = {x: wc[x] for x in wc | rc}
    # rc visible writes and wc + rc + 1 non-visible ones
    writes = {x: wc[x] + 2 * rc[x] + 1 for x in wc | rc}
    pairs = {x: n for x, n in r1.items() if x != lang.FENCE_VAR and x in w2}
    for x, n in pairs.items():
        reads[x] += n
        writes[x] += n
    return reads, writes, pairs


def context_bound(B1, B2, values=frozenset({0, 1})) -> Budget:
    """Derived per-location caps over the values and the blocks' literals:
    context reads need distinct code-write sources; visible context writes
    need code readers; non-visible writes must be separated by visible
    ones, which caps them at one more than the number of visible and code
    writes.

    The cut keeps a context LL/SC pair at a data location x only when its
    LL reads what a code read reads, and context reads share no source, so
    a location has at most as many pairs as B1, whose executions the cut
    filters, has reads of x. Each pair adds one read and one visible write
    to the caps. Plain loads and stores keep the pair-free caps: an SC
    sits right after the write its LL reads (ATOM), which opens no new gap
    for a non-visible write; an SC after an LL of the initial value may
    open one, but then a code read reads the initial value, not a visible
    context store.

    Pairs are enumerated only where B2, the original block, writes x and
    B1 reads it. A kept pair refutes through the original block's writes
    that follow the LL's source in mo and so the SC (see cut); where the
    original block has no write of x, only context writes can follow, and
    the new block's execution orders those too.
    """
    values, _, _, (pre1, pre2) = setup((B1, B2), values)
    return Budget(*_caps(pre1, pre2), values=values)


def _multisets(vals, n):
    return itertools.combinations_with_replacement(sorted(vals), n)


def _location_counts(loc, budget):
    """Every count (loads, stores, pairs) of a location's canonical
    context actions within the caps, by the number of actions."""
    rcap = budget.reads.get(loc, 0)
    wcap = budget.writes.get(loc, 0)
    if loc == lang.FENCE_VAR:
        # the only context actions at the fence location are whole fences
        counts = [(0, 0, np) for np in range(min(rcap, wcap) + 1)]
    else:
        # the caps count a pair as one read and one write; plain loads
        # and stores get what the pair cap leaves
        pcap = min(budget.pairs.get(loc, 0), rcap, wcap)
        counts = [(nl, ns, np) for np in range(pcap + 1)
                  for nl in range(rcap - pcap + 1)
                  for ns in range(wcap - pcap + 1)]
    by_size = {}
    for c in counts:
        by_size.setdefault(c[0] + c[1] + 2 * c[2], []).append(c)
    return by_size


def _location_parts(loc, counts, values):
    """The _Parts of the canonical context action groups of a location
    with each of the counts."""
    if loc == lang.FENCE_VAR:
        return [_Part((loc, (), (), ((0, 0),) * np)) for (_, _, np) in counts]
    pair_vals = list(itertools.product(sorted(values), repeat=2))
    return [_Part((loc, lv, sv, pv))
            for (nl, ns, np) in counts
            for pv in _multisets(pair_vals, np)
            for lv in _multisets(values, nl)
            for sv in _multisets(values, ns)]


def _items(choice):
    """The (aid, kind, vals) of the actions of a location's choice
    (location, load vals, store vals, pair vals), in order."""
    loc, lv, sv, pv = choice
    for i, v in enumerate(lv):
        yield f"{loc}.r{i}", "load", (v,)
    for i, v in enumerate(sv):
        yield f"{loc}.w{i}", "store", (v,)
    for i, (a, b) in enumerate(pv):
        yield f"{loc}.p{i}l", "LL", (a,)
        yield f"{loc}.p{i}s", "SC", (b,)


class _Part:
    """One location's context actions, as the choice (location, load
    vals, store vals, pair vals): its size, its room_needed items
    (cut.location_need) and its sort-key items, (aid, kind, vals) in
    order, and at first use its actions and LL/SC pairs (built)."""

    __slots__ = ("choice", "size", "need", "key", "_built")

    def __init__(self, choice):
        loc, lv, sv, pv = self.choice = choice
        self.size = len(lv) + len(sv) + 2 * len(pv)
        self.need = location_need(loc, [(v,) for v in lv],
                                  len(sv) + len(pv), len(pv))
        self.key = tuple(sorted(_items(choice)))
        self._built = None

    def built(self):
        """The part's actions and its LL/SC pairs."""
        if self._built is None:
            loc = self.choice[0]
            acts = tuple(Action(aid, kind, loc, vals, "context")
                         for (aid, kind, vals) in _items(self.choice))
            S = tuple((ll.aid, sc.aid) for ll, sc in zip(acts, acts[1:])
                      if ll.kind == "LL")
            self._built = acts, S
        return self._built


# A context shape is a context as the tuple of its locations' _Parts, in
# location order. Its room_needed items and its sort key are its parts'
# concatenated: the ids of a location's actions begin with the location
# and a dot, which sorts before every character of a location name, so
# the concatenated key items are already sorted.


def _need(shape):
    return tuple(itertools.chain.from_iterable(p.need for p in shape))


def _key(shape):
    return tuple(itertools.chain.from_iterable(p.key for p in shape))


def _renamed_key(shape, svals, r):
    """The scan-order key of the pair of a shape and sigma's values svals,
    _key(shape) then svals, with every value v renamed r.get(v, v)."""
    def ren(x):  # a value, or a tuple of them
        return r.get(x, x) if type(x) is int else tuple(map(ren, x))

    return tuple(itertools.chain.from_iterable(
        sorted(_items((loc, *(tuple(sorted(map(ren, vs)))
                              for vs in (lv, sv, pv)))))
        for loc, lv, sv, pv in (p.choice for p in shape))), ren(svals)


def _first_of_orbit(shape, svals, free):
    """Whether the pair of a context shape and sigma's values svals comes
    first in scan order (_renamed_key) among its images under the
    permutations of the free values, the sorted tuple free.

    Say the pair uses k free values. If they are not the k smallest,
    renaming a used value to a smaller unused one makes no element of
    the shape's sorted multisets, a value or an (LL, SC) pair of them,
    greater in key order, nor one of svals, and some smaller: that image
    comes first. Otherwise the images that use the same values are the
    pair renamed by the permutations of those values."""
    seen = set(svals)
    for p in shape:
        _, lv, sv, pv = p.choice
        seen.update(lv, sv, *pv)
    used = [v for v in free if v in seen]
    if used and used[-1] != free[len(used) - 1]:
        return False
    key = _key(shape), svals
    return all(key <= _renamed_key(shape, svals, dict(zip(used, perm)))
               for perm in itertools.islice(itertools.permutations(used),
                                            1, None))


def _build_context(shape):
    built = [p.built() for p in shape]
    acts = itertools.chain.from_iterable(acts for acts, _ in built)
    S = itertools.chain.from_iterable(S for _, S in built)
    return CutContext(tuple(acts), frozenset(), frozenset(S))


def _sizes(per_loc, n):
    """Every way to pick one action count per location, from the counts
    each location offers, that sums to n."""
    if not per_loc:
        if n == 0:
            yield ()
        return
    for k in per_loc[0]:
        if k <= n:
            for rest in _sizes(per_loc[1:], n - k):
                yield (k,) + rest


def context_shapes(B1, B2, budget: Budget):
    """The contexts of enumerate_contexts, in its order, as shapes, with
    values from the domain of blocklocal.setup, the budget's values and
    the blocks' literals. A generator: the shapes of one size are made
    only after every smaller one was taken."""
    locs = sorted(
        set(lang.vars_of(B1)) | set(lang.vars_of(B2)) | set(budget.locations)
    )
    values = budget.values.union(lang.literals_of(B1), lang.literals_of(B2))
    per_loc = [_location_counts(x, budget) for x in locs]
    parts = {}  # the _Parts of each location and size, made at first use

    def parts_of(i, k):
        if (i, k) not in parts:
            parts[i, k] = _location_parts(locs[i], per_loc[i][k], values)
        return parts[i, k]

    top = sum(max(d) for d in per_loc)
    for n in range(top + 1):
        shapes = [
            shape
            for ks in _sizes(per_loc, n)
            for shape in itertools.product(*map(parts_of, range(len(locs)),
                                                ks))
        ]
        shapes.sort(key=_key)
        yield from shapes


def enumerate_contexts(B1, B2, budget: Budget | None = None):
    """Canonical representatives of every context action set and atomicity
    pairing within the budget, over its values and the blocks' literals,
    smallest first and within one size by
    action signature: every shape of context_shapes, built."""
    if budget is None:
        budget = context_bound(B1, B2)
    for shape in context_shapes(B1, B2, budget):
        yield _build_context(shape)


class _SharedMasks:
    """What one skeleton class (blocklocal.SkeletonClass) alone decides
    of its executions' histories, built once per verdict and shared by
    every pre-execution that has the class: its ClassMasks, built from
    the actions of the first, as they depend on no value; floor, the
    deny mask with no mo at all, which every deny mask of the class
    holds, as an mo order only adds threats; and the deny masks of its
    mo orders with the reverse of its guarantee, in the order of the
    product of its mo_choices, computed only as far as a use needs
    them."""

    def __init__(self, actions, c, index):
        self.masks = ClassMasks(actions, c.rf, c.rows, index)
        self.denies = []
        self._floor = None
        self._orders = itertools.product(*c.mo_choices)

    @property
    def floor(self):
        if self._floor is None:
            self._floor = self.masks.deny(()) | self.masks.acyc
        return self._floor

    def deny(self, k):
        """The k-th deny mask, or None when the class has no more."""
        while len(self.denies) <= k:
            mo_choice = next(self._orders, None)
            if mo_choice is None:
                return None
            self.denies.append(self.masks.deny(mo_choice) | self.masks.acyc)
        return self.denies[k]


class _Class:
    """One rf class of a block's executions under a context: its
    pre-execution pre, its blocklocal.SkeletonClass c, its key, the
    PairIndex.key of its actions, and shared, the _SharedMasks of c,
    looked up in masks_of at first use and built there if missing.
    denies counts the deny masks of its mo orders that its domination
    tests read, as far as they read them in order."""

    def __init__(self, pre, c, key, index, masks_of):
        self.pre, self.c, self.key = pre, c, key
        self.size = math.prod(map(len, c.mo_choices))
        self.denies = 0
        self._index = index
        self._masks_of = masks_of
        self._shared = None

    @property
    def shared(self):
        if self._shared is None:
            self._shared = self._masks_of.get(self.c)
            if self._shared is None:
                self._shared = self._masks_of[self.c] = _SharedMasks(
                    self.pre.actions, self.c, self._index)
        return self._shared

    def dominates(self, guarantee, deny):
        """Whether some execution of the class dominates one of the other
        block with the same action set, the given guarantee mask and the
        given mask of deny edges and the reverse of that guarantee.
        Testing a class's deny with the reverse of its guarantee is
        refines: once its guarantee is inside the other's, the reverse
        of its guarantee is inside the reverse of the other's."""
        m = self.shared
        if m.masks.guarantee & ~guarantee or m.floor & ~deny:
            return False
        k = 0
        while (d := m.deny(k)) is not None:
            k += 1
            if not d & ~deny:
                self.denies = max(self.denies, k)
                return True
        self.denies = k
        return False


def _undominated(x1s, classes, locals_order):
    """The first execution of the new block's classes x1s that no class
    of the original block dominates, with its class, or None. The
    executions of one class share its ClassMasks and differ only in
    their deny masks, so only that execution is built."""
    groups = {}
    for c in classes:
        groups.setdefault(c.key, []).append(c)
    for c1 in x1s:
        m = c1.shared
        rivals = groups.get(c1.key, ())
        sk = c1.c
        for k, mo_choice in enumerate(itertools.product(*sk.mo_choices)):
            deny = m.deny(k)
            if not any(c.dominates(m.masks.guarantee, deny) for c in rivals):
                [X] = class_executions(c1.pre, sk.rf, sk.rows,
                                       [(order,) for order in mo_choice],
                                       locals_order=locals_order)
                return X, c1
    return None


def _classes(pres, ctx, index, limit, table, masks_of, pruner=None):
    """The rf classes of the pre-executions pres under ctx, as _Class,
    from the Skeletons table, their _SharedMasks kept in masks_of, with the
    number of executions they stand for: their own, times the orbit of
    a pruner. More than limit in all raise BudgetExceeded."""
    weight = 1 if pruner is None else pruner.orbit
    classes, size, last = [], 0, None
    for pre, c in block_classes(pres, ctx, pruner, table):
        if pre is not last:  # the classes of one pre-execution share a key
            last, key = pre, PairIndex.key(pre.actions)
        classes.append(_Class(pre, c, key, index, masks_of))
        size += classes[-1].size * weight
        if limit is not None and size > limit:
            raise BudgetExceeded("block-local execution budget exceeded")
    return classes, size


def check_cut_refinement(B1, B2, budget: Budget | None = None) -> Verdict:
    """Does every cut execution of B1 under every reduced context have a
    history dominated by some execution of B2 under the same context?
    Blocks with non-atomic accesses raise ValueError.

    Both blocks are scanned as rf classes (blocklocal.block_classes):
    B1's cut survivors, built with the cut.CutPruner of each context,
    and all of B2's executions, built only where B1 has survivors.

    Only the pre-executions of B1 with room for a cut survivor under the
    context (cut.room_needed against cut.room, counted once per
    pre-execution) are completed. The contexts are scanned as the shapes
    of context_shapes, whose room_needed items are their locations'
    items, each counted once per check, and B1's pre-executions with
    room are looked up once per distinct need and sigma. A (context,
    sigma) pair where none has room has no survivor and passes; it is
    skipped before anything is built for it. A context is built, with
    its CutPruner and PairIndex, only once a pair of it is checked, and
    each distinct tuple of context ids gets one PairIndex.

    The free values are those of the domain that neither block names
    (lang.fixed_values). Histories and their refinement only compare
    values for equality, so a permutation of the free values maps a
    (context, sigma) pair's executions on both sides, their histories
    and its room to those of its image. A pair with room is checked only
    when it comes first in scan order among its images (_first_of_orbit).
    The first failing pair and the pair where max_block_execs gives
    Unknown are the first of their orbits, so they and the witness stay
    those of the unreduced scan.

    Within a checked pair, B1's cut survivors are built one per orbit
    (cut.CutPruner with orbits): a permutation pi of interchangeable
    context actions maps the context, B1's cut survivors and B2's
    executions under the pair to their like and relabels the G and D of
    a history, which refines compares as relations over ids, so X is
    dominated exactly when pi(X) is. x1_cut and max_block_execs count
    canonical survivors times the orbit, so Unknown comes at the same
    pair, and the first failing canonical survivor is the full scan's
    first failing one, as it is the first of its orbit (cut.CutPruner).

    Every pre-execution is completed under its context through one
    blocklocal.Skeletons table for the whole check. Completion reads
    values only through axiomatic._may_read_from: an rf edge joins a
    write and a read of one value, and a read without a source reads 0.
    So pre-executions that differ only in values, those of sigma, of
    their reads or of the context, share a skeleton, which is completed
    once with its values erased; each takes the classes of that
    completion whose reads may read their sources, in order, which are
    the classes of its own completion. A skeleton class's ClassMasks
    and the deny masks of its mo orders depend on no value either: they
    are built once per check (_SharedMasks), and every pre-execution
    with the class shares them.

    Verdict.stats counts the contexts, the pairs skipped for want of
    room (unfit), the pairs with room skipped as renamed images
    (symmetric), and over the checked pairs only, B1's cut survivors
    (x1_cut) and the canonical ones among them (x1_orbits), and B2's
    executions (x2), rf classes (x2_classes) and the deny masks of its
    mo orders that the scan read (x2_denies), each pair counting those
    it read whether or not another pair had computed them, where B1 has
    survivors. The checked pairs, symmetric and unfit add up to contexts
    times the number of sigmas. skeletons counts the skeletons
    completed.

    A budget with a reads, writes or pairs cap below context_bound's,
    derived from the same blocklocal.setup, raises ValueError: its
    Verified would be unsound. Raised caps are accepted."""
    if lang.na_vars_of(B1) or lang.na_vars_of(B2):
        # the cut rules and the context bound are derived for atomics only
        raise ValueError(
            "the finite check covers atomic blocks only; check ldna/stna"
            " blocks at an explicit context (instance)"
        )
    values, locals_order, sigmas, (pre1, pre2) = setup(
        (B1, B2), frozenset({0, 1}) if budget is None else budget.values)
    caps = _caps(pre1, pre2)
    if budget is None:
        budget = Budget(*caps, values=values)
    for name, derived in zip(("reads", "writes", "pairs"), caps):
        given = getattr(budget, name)
        for x in sorted(derived):
            if given.get(x, 0) < derived[x]:
                raise ValueError(
                    f"the {name} cap of {x!r} is below the {derived[x]} that"
                    " context_bound derives; a lowered cap voids Verified")
    limit = budget.max_block_execs
    stats = {"contexts": 0, "unfit": 0, "symmetric": 0, "x1_cut": 0,
             "x1_orbits": 0, "x2": 0, "x2_classes": 0, "x2_denies": 0,
             "skeletons": 0}
    table = Skeletons()
    masks_of = {}  # the _SharedMasks of each skeleton class
    free = tuple(sorted(values - lang.fixed_values(B1)
                        - lang.fixed_values(B2)))
    rooms = [[room(p.actions) for p in ps] for ps in pre1]
    fitting = {}  # B1's pre-executions with room for a need, per sigma
    indexes = {}  # the PairIndex of each tuple of context ids
    svals = [tuple(sigma[l] for l in locals_order) for sigma in sigmas]
    try:
        for shape in context_shapes(B1, B2, budget):
            stats["contexts"] += 1
            need = _need(shape)
            fit = fitting.get(need)
            if fit is None:
                fit = fitting[need] = [
                    [p for p, have in zip(ps, haves) if fits(need, have)]
                    for ps, haves in zip(pre1, rooms)]
            if not any(fit):
                stats["unfit"] += len(sigmas)
                continue
            ctx = pruner = index = None
            for i, sigma in enumerate(sigmas):
                if not fit[i]:
                    stats["unfit"] += 1
                    continue
                if len(free) > 1 and not _first_of_orbit(shape, svals[i],
                                                         free):
                    stats["symmetric"] += 1
                    continue
                if ctx is None:
                    ctx = _build_context(shape)
                    pruner = CutPruner(ctx.actions, ctx.S, orbits=True)
                    ids = tuple(a.aid for a in ctx.actions)
                    index = indexes.get(ids)
                    if index is None:
                        index = indexes[ids] = PairIndex(ids)
                x1s, size1 = _classes(fit[i], ctx, index, limit, table,
                                      masks_of, pruner)
                stats["x1_cut"] += size1
                stats["x1_orbits"] += size1 // pruner.orbit
                if not size1:
                    continue
                classes, size = _classes(pre2[i], ctx, index, limit, table,
                                         masks_of)
                stats["x2"] += size
                stats["x2_classes"] += len(classes)
                found = _undominated(x1s, classes, locals_order)
                stats["x2_denies"] += sum(c.denies for c in classes)
                if found is None:
                    continue
                X, c1 = found
                # the witness and every candidate, in the order
                # block_classes yields them, read off the masks of its class
                e1 = class_hist_ext(X, c1.shared.masks, index)
                h2s = [class_hist_ext(Y, c.shared.masks, index)
                       for c in classes
                       for Y in class_executions(
                           c.pre, c.c.rf, c.c.rows, c.c.mo_choices,
                           locals_order=locals_order)]
                stats["skeletons"] = table.completed
                return Verdict(
                    "Refuted",
                    witness=Witness(ctx, dict(sigma), X, e1, h2s),
                    stats=stats,
                )
    except BudgetExceeded as exc:
        stats["error"] = str(exc)
        stats["skeletons"] = table.completed
        return Verdict("Unknown", stats=stats)
    stats["skeletons"] = table.completed
    return Verdict("Verified", stats=stats)


def check_q_instance(B1, B2, ctx: CutContext,
                     values=frozenset({0, 1})) -> bool:
    """Quantified refinement at one explicit (A, R, S) instance: every
    execution of B1 must have a matching execution of B2 with a refining
    history; a racy match may stop at the race via prefixes, and a safe
    one asks B1's execution to be safe too. Executions without
    non-atomic accesses are safe, so there each match is one refinement.
    Both blocks and the local maps range over values and the literals of
    both blocks, as in context_bound. A context that
    blocklocal.check_context rejects for the two blocks is a
    ValueError."""
    _, locals_order, _, (pre1, pre2) = setup((B1, B2), values)
    check_context(ctx, (B1, B2), pre1 + pre2)
    for ps1, ps2 in zip(pre1, pre2):
        x1s = executions(ps1, ctx, locals_order)
        x2s = executions(ps2, ctx, locals_order)
        # a safe candidate's history, None for a racy one
        cands = [(Y, hist(Y) if safe(Y) else None) for Y in x2s]
        racy = {}  # a racy candidate's racy prefixes' histories, as needed
        for X in x1s:
            h1, x_safe, d1 = hist(X), safe(X), None
            for i, (Y, h2) in enumerate(cands):
                if h2 is not None:
                    if x_safe and refines(h1, h2):
                        break
                    continue
                if i not in racy:
                    racy[i] = [hist(Yp) for Yp in downclosure(Y)
                               if not safe(Yp)]
                if d1 is None:
                    d1 = [hist(Xp) for Xp in downclosure(X)]
                if any(refines(h1p, h2p) for h2p in racy[i] for h1p in d1):
                    break
            else:
                return False
    return True
