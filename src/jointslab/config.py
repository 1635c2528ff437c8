"""Joints configurations: detection, multiplicity bookkeeping, generators.

A configuration holds families of varieties (dimension k_i appearing
with multiplicity m_i, so that d = sum m_i k_i) together with the joints
they form.  Joints are given, as candidate points that detection checks:
a candidate is a joint when some admissible tuple of member varieties --
m_i members from family i -- passes through it with tangent spaces that
are independent and span the ambient space.  A tuple is the flat tuple
of its (family, member) refs, family by family and in increasing member
order within a family.  Each joint records its designated tuple, the
first qualifying one in lexicographic order, the counts c_V of the
qualifying tuples through each member V, whose sum is s times the
joint's multiplicity M(p), and the chart of every member passing
through it, built once at detection; every later step reads incidence
and charts from there.

Detection tries each member only at the candidates its carrier holds,
and walks each point's tuples over bitmasks of independent partners.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field as dc_field

from . import linalg
from .errors import (
    DimensionMismatch,
    FieldTooSmall,
    MalformedInput,
    NotAJoint,
    SingularPoint,
    UnsupportedKind,
)
from .field import DEFAULT_PRIME, FieldSpec, json_typed
from .varieties import (
    VarietySpec,
    _carrier,
    chart_at,
    own_coordinates,
    tangent_space,
    variety_from_json,
    variety_to_json,
)


@dataclass
class Family:
    """m_i varieties of dimension k_i chosen at a time."""

    k: int
    m: int
    members: list

    def to_json(self, F: FieldSpec) -> dict:
        return {
            "k": self.k,
            "m": self.m,
            "members": [variety_to_json(V, F) for V in self.members],
        }

    @staticmethod
    def from_json(obj: dict, F: FieldSpec) -> "Family":
        k, m = json_typed(obj["k"], int, "family k"), json_typed(obj["m"], int, "family m")
        if k < 1 or m < 1:
            raise MalformedInput(f"family k and m must be at least 1, not {k} and {m}")
        members = json_typed(obj["members"], list, "family members")
        return Family(k=k, m=m, members=[variety_from_json(v, F) for v in members])


@dataclass
class JointsConfiguration:
    """Families, joints, designated tuples, and per-member tuple counts."""

    field: FieldSpec
    families: list
    joints: list  # points, preassigned order = list order
    chosen: list  # per joint: its first qualifying tuple, of s (family, member) refs
    # per joint: member ref -> the number of qualifying tuples through it
    uses: list
    # per joint: member ref -> Chart for every member through it, None
    # where the member is singular there
    charts: list = dc_field(repr=False, compare=False)
    seed: int = 0

    @property
    def s(self) -> int:
        return sum(f.m for f in self.families)

    @property
    def ambient(self) -> int:
        return sum(f.m * f.k for f in self.families)

    def member(self, ref) -> VarietySpec:
        fi, mi = ref
        return self.families[fi].members[mi]

    def all_members(self):
        for fi, fam in enumerate(self.families):
            for mi, _ in enumerate(fam.members):
                yield (fi, mi)

    def M(self, joint_idx: int) -> int:
        return sum(self.uses[joint_idx].values()) // self.s

    def joints_on(self, ref) -> list:
        """Indices of joints lying on the given member (geometric)."""
        return [i for i, on in enumerate(self.charts) if ref in on]

    def designated_charts(self, joint_idx: int) -> list:
        on = self.charts[joint_idx]
        return [on[ref] for ref in self.chosen[joint_idx]]

    def to_json(self) -> dict:
        return {
            "field": self.field.to_json(),
            "families": [f.to_json(self.field) for f in self.families],
            "joints": [[str(x) for x in p] for p in self.joints],
            "seed": self.seed,
        }

    @staticmethod
    def from_json(obj: dict) -> "JointsConfiguration":
        try:
            F = FieldSpec.from_json(obj["field"])
            families = [Family.from_json(f, F)
                        for f in json_typed(obj["families"], list, "families")]
            joints = [tuple(F.of(x) for x in json_typed(p, list, "joint"))
                      for p in json_typed(obj["joints"], list, "joints")]
            seed = json_typed(obj.get("seed", 0), int, "seed")
        except ZeroDivisionError as exc:  # FieldSpec.of names the value
            raise MalformedInput(f"malformed configuration: {exc}") from exc
        except (KeyError, TypeError, ValueError) as exc:
            raise MalformedInput(f"malformed configuration: {exc!r}") from exc
        if not families:
            raise MalformedInput("malformed configuration: no families")
        return detect_joints(F, families, candidates=joints, seed=seed)


# ---------------------------------------------------------------------------
# Joint detection
# ---------------------------------------------------------------------------


def is_joint(p, charts: list) -> bool:
    """True iff the charts' tangent spaces are independent and spanning.

    Charts whose dimensions do not sum to the ambient one raise
    DimensionMismatch; a chart centered off p raises NotAJoint."""
    if not charts:
        return False
    F = charts[0].field
    d = charts[0].owner.ambient
    dims = sum(c.owner.dim for c in charts)
    if dims != d:
        raise DimensionMismatch(f"tangent dimensions sum to {dims}, ambient is {d}")
    center = tuple(F.of(x) for x in p)
    rows = []
    for c in charts:
        if tuple(c.center) != center:
            raise NotAJoint("chart not centered at the point")
        rows.extend(tangent_space(c))
    return linalg.rank(F, rows) == d


def detect_joints(
    F: FieldSpec,
    families: list,
    candidates: list,
    seed: int = 0,
) -> JointsConfiguration:
    """Build the configuration from families plus candidate points.

    The joints are the candidates, each taken once, at which some
    admissible tuple qualifies.  Every member must live in F^d with
    d = sum m_i k_i, and every candidate have d coordinates, else
    DimensionMismatch.  The first pass coerces each point once and takes
    the members in order.  Each direction class, a carrier's canonical
    ``normals``, buckets the candidates by normals . p once, and a
    member's candidates are the bucket of its ``offsets``, which are on
    its carrier.  Only there does it test V's own equations
    (``own_coordinates``): None means a curved member misses the point,
    and else ``chart_at`` builds the chart from the z it gave;
    ``SingularPoint`` means the member is through the point with no chart
    there (None; it joins no tuple).  The second pass runs ``_qualifying``
    at each candidate.
    """
    d = sum(f.m * f.k for f in families)
    for f in families:
        if f.m > len(f.members):
            raise DimensionMismatch("family multiplicity exceeds member count")
        if any(V.dim != f.k for V in f.members):
            raise DimensionMismatch(f"a member's dimension differs from its family's k = {f.k}")
        if any(V.ambient != d for V in f.members):
            raise DimensionMismatch(f"a member's ambient dimension differs from sum m_i k_i = {d}")
    points = [tuple(F.of(x) for x in q) for q in candidates]
    if any(len(p) != d for p in points):
        raise DimensionMismatch("point dimension mismatch")
    points = list(dict.fromkeys(points))
    ids, buckets, classes, through = {}, {}, {}, {}  # classes and through: flats only
    ons = [{} for _ in points]
    for fi, f in enumerate(families):
        for mi, V in enumerate(f.members):
            car = _carrier(V, F)
            c = ids.setdefault(tuple(map(tuple, car.normals)), len(ids))
            if c not in buckets:  # a new direction class: its candidates by normals . p
                buckets[c] = {}
                for i, p in enumerate(points):
                    buckets[c].setdefault(tuple(linalg.mat_vec(F, car.normals, p)), []).append(i)
            incident = buckets[c].get(tuple(car.offsets), [])
            if V.kind == "flat":
                classes[fi, mi], through[fi, mi] = c, set(incident)
            for i in incident:
                z = own_coordinates(V, points[i], F)
                if z is None:
                    continue
                try:
                    ons[i][fi, mi] = chart_at(V, points[i], z, F)
                except SingularPoint:
                    ons[i][fi, mi] = None
    memo = ({}, {}, {}, {})  # of flats by direction class: singles, pairs, spans, complements
    joints, chosen, uses, charts = [], [], [], []
    for p, on in zip(points, ons):
        tangents = {ref: tangent_space(C) for ref, C in on.items() if C is not None}
        first, counts = _qualifying(F, families, tangents, classes, through, memo)
        if counts:
            joints.append(p)
            chosen.append(first)
            uses.append(counts)
            charts.append(on)
    return JointsConfiguration(F, families, joints, chosen, uses, charts, seed)


def _qualifying(F: FieldSpec, families, tangents: dict, classes: dict, through: dict,
                memo: tuple) -> tuple:
    """(first, uses) of the admissible tuples whose tangent rows are
    independent, in ``itertools.product`` order over each family's
    combinations: the first, as the flat tuple of its refs, or None, and
    member ref -> the number through it, with no list of tuples.

    Member i of ``tangents`` (the regular members through the point, in
    member order, to their rows) is bit i, and its mask holds the later
    members it forms an independent pair with.  A prefix's candidates are
    the AND of its picks' masks, cut to the slot's family after the last
    pick and leaving enough of it for the slots after.  A non-last slot
    extends the prefix's reducer by each candidate's rows.  At the last
    slot, after one pick every candidate qualifies; after more, a lone one
    is forked in, and two or more are cut by the mask of the members whose
    rows T complement the prefix's span (T N^T nonsingular, N the
    annihilator of its canonical ``rref()``).  A pick adds up its
    subtree's count, and a last pick counts one.

    ``memo`` keeps for the config what a flat's direction class
    (``classes``) fixes, its tangent space: its reducer, a pair's (None if
    dependent) and its N, and whether the class complements an N.  Two
    flats through two distinct candidates (``through``) hold the line
    between them, so they are a dependent pair with no reduction.
    """
    slots = [fi for fi, f in enumerate(families) for _ in range(f.m)]
    refs = list(tangents)
    starts = [sum(ref[0] < fi for ref in refs) for fi in range(len(families) + 1)]
    if not slots or any(starts[fi + 1] - starts[fi] < f.m for fi, f in enumerate(families)):
        return None, {}
    # per slot: how many slots of its family come after it
    later = [slots[depth + 1:].count(fi) for depth, fi in enumerate(slots)]
    flat_singles, flat_pairs, flat_spans, flat_complements = memo
    singles, pairs, complements = {}, {}, {}
    first, uses = None, {}

    def extended(red, ref):
        red = red.fork() if red is not None else linalg.IncrementalRowReducer(F)
        return red if all(red.insert(row) for row in tangents[ref]) else None

    def single(a):
        store, key = (flat_singles, classes[a]) if a in classes else (singles, a)
        if key not in store:
            store[key] = extended(None, a)
        return store[key]

    partners = [0] * len(refs)
    for j, b in enumerate(refs):
        for i, a in enumerate(refs[:j]):
            if a[0] == b[0] and families[a[0]].m == 1:
                continue
            flats = a in classes and b in classes  # else a curved member: reduced at this point
            store, key = (flat_pairs, frozenset((classes[a], classes[b]))) if flats else ({}, None)
            if key not in store:
                red = None if flats and len(through[a] & through[b]) > 1 else single(a)
                store[key] = red and extended(red, b)
            if store[key] is not None:
                pairs[i, j] = store[key]
                partners[i] |= 1 << j

    def transversal(picks, red):
        N = flat_spans.get(red)
        if N is None:
            N = tuple(map(tuple, linalg.rref_nullspace(F, red.rref(), len(tangents[refs[0]][0]))))
            if len(picks) == 2 and all(refs[i] in classes for i in picks):
                flat_spans[red] = N
        if N not in complements:  # of the last family, whose members are the last refs
            complements[N] = sum(1 << i for i in range(starts[-2], len(refs)) if complement(N, refs[i]))
        return complements[N]

    def complement(N, ref):  # whether ref's rows T complement the span: T N^T nonsingular
        store, key = (flat_complements, (N, classes[ref])) if ref in classes else ({}, None)
        if key not in store:
            store[key] = linalg.rank(F, [linalg.mat_vec(F, N, t) for t in tangents[ref]]) == len(N)
        return store[key]

    def walk(red, picks, mask) -> int:
        nonlocal first
        depth = len(picks)
        fi = slots[depth]
        lo = picks[-1] + 1 if depth and slots[depth - 1] == fi else starts[fi]
        cand = mask & (1 << (starts[fi + 1] - later[depth])) - (1 << lo)
        last = depth == len(slots) - 1
        if last and depth > 1 and cand & (cand - 1):
            cand &= transversal(picks, red)
        elif last and depth > 1 and cand and extended(red, refs[cand.bit_length() - 1]) is None:
            cand = 0
        found = 0
        while cand:
            i = (cand & -cand).bit_length() - 1
            cand &= cand - 1
            if last:
                below = 1
                first = first or tuple(refs[j] for j in picks + [i])
            else:
                child = (single(refs[i]) if depth == 0 else pairs[picks[0], i] if depth == 1
                         else extended(red, refs[i]))
                below = child and walk(child, picks + [i], mask & partners[i])
            if below:
                uses[refs[i]] = uses.get(refs[i], 0) + below
                found += below
        return found

    walk(None, [], -1)  # a chart's tangent rows are independent: its frame is a basis
    return first, uses


# ---------------------------------------------------------------------------
# Connectivity
# ---------------------------------------------------------------------------


def connected_components(cfg: JointsConfiguration) -> list:
    """Split along the graph joining joints that share a member variety, by
    one union-find pass over the incidence that joins each joint to the
    first joint of every member through it; components and their joints
    come in joint order."""
    parent = list(range(len(cfg.joints)))

    def root(j):
        while parent[j] != j:
            parent[j] = parent[parent[j]]
            j = parent[j]
        return j

    first: dict = {}
    for j, on in enumerate(cfg.charts):
        for ref in on:
            parent[root(j)] = root(first.setdefault(ref, j))
    comps: dict = {}
    for j in range(len(parent)):
        comps.setdefault(root(j), []).append(j)
    per_joint = (cfg.joints, cfg.chosen, cfg.uses, cfg.charts)
    return [JointsConfiguration(cfg.field, cfg.families,
                                *([rows[i] for i in comp] for rows in per_joint), cfg.seed)
            for comp in comps.values()]


# ---------------------------------------------------------------------------
# Generators
# ---------------------------------------------------------------------------


def _genericity_guard(F: FieldSpec, size: int):
    if F.kind == "prime" and F.p <= 10**6 * size * size:
        raise FieldTooSmall(
            f"p = {F.p} below genericity threshold 10^6 * {size}^2"
        )


def _random_vector(rng, F, d):
    if F.kind == "prime":
        return [F.of(rng.randrange(F.p)) for _ in range(d)]
    return [F.of(rng.randint(-10**6, 10**6)) for _ in range(d)]


def _random_flat(rng, F, d, k) -> VarietySpec:
    while True:
        dirs = [_random_vector(rng, F, d) for _ in range(k)]
        if linalg.rank(F, dirs) == k:
            break
    point = _random_vector(rng, F, d)
    return VarietySpec(
        kind="flat", ambient=d, dim=k, degree=1,
        point=tuple(point), directions=tuple(tuple(u) for u in dirs),
    )


def _random_hyperplanes(rng, F, d, h):
    """h hyperplanes a.x = b in generic position, as (normal, offset)."""
    planes = []
    while len(planes) < h:
        a = _random_vector(rng, F, d)
        if all(not x for x in a):
            continue
        b = _random_vector(rng, F, 1)[0]
        planes.append((a, b))
    return planes


def _intersect_hyperplanes(F, planes, d):
    """Point + direction basis of the intersection flat, or None if the
    normals are dependent.  Both are read off one reduced row echelon form
    of (A | b): the point sets every free variable to zero, and the
    directions are the nullspace of A."""
    red = linalg.IncrementalRowReducer(F)
    for a, b in planes:
        red.insert([*a, b])
    pivots = red.rref()
    if len(pivots) != len(planes) or d in pivots:
        return None
    point = [F.zero] * d
    for c, row in pivots.items():
        point[c] = row[d]
    return point, linalg.rref_nullspace(F, pivots, d)


def generate(
    kind: str,
    field: FieldSpec | None = None,
    seed: int = 0,
    h: int = 5,
    t: int = 3,
    d: int | None = None,
    k: int = 2,
    count: int = 4,
) -> JointsConfiguration:
    """Seeded construction of the standard example configurations."""
    F = field or FieldSpec("prime", DEFAULT_PRIME)
    rng = random.Random(seed)
    if kind == "generic-hyperplanes":
        d = 3 if d is None else d
        if d not in (3, 6):
            raise UnsupportedKind("generic-hyperplanes supports ambient 3 or 6")
        _genericity_guard(F, h)
        planes = _random_hyperplanes(rng, F, d, h)
        cut = 2 if d == 3 else 4  # hyperplanes per member flat
        members = []
        for subset in itertools.combinations(range(h), cut):
            got = _intersect_hyperplanes(F, [planes[i] for i in subset], d)
            if got is None:
                raise FieldTooSmall("degenerate hyperplane sample; change the seed")
            point, dirs = got
            members.append(
                VarietySpec(
                    kind="flat", ambient=d, dim=d - cut, degree=1,
                    point=tuple(point), directions=tuple(tuple(u) for u in dirs),
                    label="-".join(str(i) for i in subset),
                )
            )
        fam = Family(k=d - cut, m=3, members=members)
        candidates = []
        for subset in itertools.combinations(range(h), d):
            got = _intersect_hyperplanes(F, [planes[i] for i in subset], d)
            if got is not None:
                candidates.append(tuple(got[0]))
        return detect_joints(F, [fam], candidates=candidates, seed=seed)
    if kind == "coordinate-flats":
        d = 6 if d is None else d
        if d % k:
            raise DimensionMismatch("k must divide the ambient dimension")
        members = []
        for j in range(d // k):
            dirs = []
            for i in range(k):
                e = [F.zero] * d
                e[j * k + i] = F.one
                dirs.append(tuple(e))
            members.append(
                VarietySpec(
                    kind="flat", ambient=d, dim=k, degree=1,
                    point=(F.zero,) * d, directions=tuple(dirs),
                )
            )
        fam = Family(k=k, m=d // k, members=members)
        return detect_joints(F, [fam], candidates=[(F.zero,) * d], seed=seed)
    if kind == "grid":
        _genericity_guard(F, t)
        A = _distinct_scalars(rng, F, t)
        points = [(a, b) for a in A for b in A]
        return _planar_points_config(F, points, seed)
    if kind == "line":
        _genericity_guard(F, t)
        base = _random_vector(rng, F, 2)
        direction = _random_vector(rng, F, 2)
        while all(not x for x in direction):
            direction = _random_vector(rng, F, 2)
        steps = _distinct_scalars(rng, F, t * t)
        points = [
            (F.add(base[0], F.mul(s, direction[0])), F.add(base[1], F.mul(s, direction[1])))
            for s in steps
        ]
        return _planar_points_config(F, points, seed)
    if kind == "random-flats":
        d = 6 if d is None else d
        if (d % k) or count < d // k:
            raise DimensionMismatch("need count >= d/k random flats of dimension k")
        _genericity_guard(F, count)
        # every member passes through the origin: with random base points,
        # d/k >= 3 generic k-flats in F^d share no point
        members = [
            VarietySpec(
                kind="flat", ambient=d, dim=k, degree=1,
                point=(F.zero,) * d, directions=_random_flat(rng, F, d, k).directions,
            )
            for _ in range(count)
        ]
        fam = Family(k=k, m=d // k, members=members)
        return detect_joints(F, [fam], candidates=[(F.zero,) * d], seed=seed)
    raise UnsupportedKind(f"unknown generator kind {kind!r}")


def _distinct_scalars(rng, F, t):
    out = []
    seen = set()
    while len(out) < t:
        v = F.of(rng.randrange(F.p)) if F.kind == "prime" else F.of(rng.randint(-10**6, 10**6))
        if v not in seen:
            seen.add(v)
            out.append(v)
    return out


def _planar_points_config(F: FieldSpec, points, seed) -> JointsConfiguration:
    """Points on the full plane as a one-member, one-family configuration;
    every point is trivially a joint of the ambient 2-flat."""
    plane = VarietySpec(
        kind="flat", ambient=2, dim=2, degree=1,
        point=(F.zero, F.zero),
        directions=((F.one, F.zero), (F.zero, F.one)),
    )
    fam = Family(k=2, m=1, members=[plane])
    return detect_joints(F, [fam], candidates=points, seed=seed)


def grid_line_composite(F: FieldSpec, t: int = 3, seed: int = 0) -> JointsConfiguration:
    """Grid points plus the same number of collinear points, all on the
    full plane; used to exercise handicap balancing across two clusters."""
    rng = random.Random(seed)
    _genericity_guard(F, 2 * t)
    A = _distinct_scalars(rng, F, t)
    grid_pts = [(a, b) for a in A for b in A]
    # a line clear of the grid: vary the first coordinate at a fresh height
    heights = set(A)
    y0 = next(v for v in _distinct_scalars(rng, F, t * t + len(A)) if v not in heights)
    xs = _distinct_scalars(rng, F, t * t)
    line_pts = [(x, y0) for x in xs]
    return _planar_points_config(F, grid_pts + line_pts, seed)
