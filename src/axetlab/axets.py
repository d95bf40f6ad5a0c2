"""Axets: finite sets with one involution per point.

Two abstract families are modelled.  The regular polygon X(n) has points
a_0 .. a_{n-1} with tau_j(a_i) = a_{2j-i} (indices mod n).  The skew
family X'(k+2k) starts from X(4k) and identifies a_{2j} with a_{2j+2k},
leaving k even and 2k odd points, 3k in total; the same reflection
formula acts on canonical representatives.

A RealizedAxet is the closure of the axes of passed eigenbases (from
verify_axis) under their Miyamoto involutions, with the permutation
action recorded.
Shapes are recognised by a brute-force action-preserving bijection
search, which is fine at the sizes the workbench handles (n <= 24).
"""


class TooLarge(ValueError):
    pass


class NotClosedWithinBound(ValueError):
    pass


class NotAnAxis(ValueError):
    def __init__(self, basis):
        super().__init__("element fails axis verification: %s"
                         % basis.summary())
        self.basis = basis


class FiniteAxet:
    """Point labels plus one permutation (as an index list) per point."""

    def __init__(self, labels, perms):
        self.labels = list(labels)
        self.perms = [list(p) for p in perms]

    @property
    def size(self):
        return len(self.labels)

    def perm(self, i):
        return self.perms[i]

    def index(self, point):
        if isinstance(point, int):
            return point
        return self.labels.index(point)

    def __repr__(self):
        return "FiniteAxet(%r)" % (self.labels,)


class AbstractAxet(FiniteAxet):
    """X(n) or X'(k+2k) with canonical labels a<i>."""

    def __init__(self, kind, param, labels, perms):
        super().__init__(labels, perms)
        self.kind = kind
        self.param = param

    @classmethod
    def polygon(cls, n):
        if n < 1:
            raise ValueError("n must be positive")
        labels = ["a%d" % i for i in range(n)]
        perms = [[(2 * p - q) % n for q in range(n)] for p in range(n)]
        return cls("X", n, labels, perms)

    @classmethod
    def skew(cls, k):
        """X'(k+2k): 3k points, built from X(4k) by gluing even points."""
        if k < 1:
            raise ValueError("k must be positive")
        m = 4 * k

        def canon(i):
            i %= m
            return i % (2 * k) if i % 2 == 0 else i

        reps = sorted({canon(i) for i in range(m)})
        index = {r: i for i, r in enumerate(reps)}
        labels = ["a%d" % r for r in reps]
        perms = [[index[canon(2 * p - q)] for q in reps] for p in reps]
        return cls("Xskew", k, labels, perms)

    def __repr__(self):
        return shape_label(self.kind, self.param)


def shape_label(kind, param):
    return "X(%d)" % param if kind == "X" else "Xskew(%d)" % param


def closure(axet, gens):
    """Smallest subset containing gens closed under its members' involutions.

    Returns sorted point indices.
    """
    pts = sorted({axet.index(g) for g in gens})
    while True:
        new = set(pts)
        for p in pts:
            perm = axet.perm(p)
            for q in pts:
                new.add(perm[q])
        if len(new) == len(pts):
            return pts
        pts = sorted(new)


def restrict(axet, subset):
    """The sub-axet on a closed subset of points."""
    idx = sorted({axet.index(p) for p in subset})
    if closure(axet, idx) != idx:
        raise ValueError("subset is not closed under its involutions")
    pos = {p: i for i, p in enumerate(idx)}
    labels = [axet.labels[p] for p in idx]
    perms = [[pos[axet.perm(p)[q]] for q in idx] for p in idx]
    return FiniteAxet(labels, perms)


def odd_subaxet(axet):
    """The triple {a_0, a_k, a_-k} inside X'(k+2k) for odd k.

    tau_{a_k} fixes a_0 because a_{2k} = a_0, so the triple is closed and
    carries the shape X'(1+2).  For even k the points a_k and a_-k
    coincide and no triple exists.
    """
    if not (isinstance(axet, AbstractAxet) and axet.kind == "Xskew"):
        raise ValueError("odd_subaxet expects a skew axet")
    k = axet.param
    if k % 2 == 0:
        raise ValueError("k must be odd: a_k and a_-k coincide for even k")
    pts = ["a0", "a%d" % k, "a%d" % (3 * k)]  # a_{3k} = a_{-k}
    return restrict(axet, pts)


# -- shape recognition ----------------------------------------------------

def _cycle_type(perm):
    n = len(perm)
    seen = [False] * n
    cycles = []
    for s in range(n):
        if seen[s]:
            continue
        length = 0
        t = s
        while not seen[t]:
            seen[t] = True
            t = perm[t]
            length += 1
        cycles.append(length)
    return tuple(sorted(cycles))


def _profiles(axet):
    return [_cycle_type(axet.perm(p)) for p in range(axet.size)]


def _find_bijection(a, b):
    """An action-preserving bijection between two axets, or None."""
    n = a.size
    if b.size != n:
        return None
    pa, pb = _profiles(a), _profiles(b)
    if sorted(pa) != sorted(pb):
        return None

    def propagate(f, finv):
        changed = True
        while changed:
            changed = False
            items = list(f.items())
            for p, fp in items:
                for q, fq in items:
                    t = a.perm(p)[q]
                    ft = b.perm(fp)[fq]
                    if t in f:
                        if f[t] != ft:
                            return False
                    elif ft in finv:
                        return False
                    else:
                        f[t] = ft
                        finv[ft] = t
                        changed = True
        return True

    def backtrack(f, finv):
        if len(f) == n:
            return dict(f)
        p = min(q for q in range(n) if q not in f)
        for c in range(n):
            if c in finv or pa[p] != pb[c]:
                continue
            f2, finv2 = dict(f), dict(finv)
            f2[p] = c
            finv2[c] = p
            if propagate(f2, finv2):
                found = backtrack(f2, finv2)
                if found:
                    return found
        return None

    return backtrack({}, {})


def classify_shape(axet, max_points=24):
    """Label the axet as X(n) or Xskew(k), or return "unknown".

    Works by exhaustive bijection search against the two families, so the
    size is capped (TooLarge beyond max_points).
    """
    n = axet.size
    if n > max_points:
        raise TooLarge("axet has %d points; bound is %d" % (n, max_points))
    if n < 1:
        raise ValueError("empty axet")
    candidates = [AbstractAxet.polygon(n)]
    if n % 3 == 0:
        candidates.append(AbstractAxet.skew(n // 3))
    for cand in candidates:
        if _find_bijection(axet, cand) is not None:
            return shape_label(cand.kind, cand.param)
    return "unknown"


# -- realization inside an algebra ----------------------------------------

class RealizedAxet(FiniteAxet):
    """Closure of verified axes under their Miyamoto involutions.

    points[i] is the axis element, maps[i] its Miyamoto automorphism,
    laws[i] its fusion law; perm(i) gives the action of maps[i] on the
    point list.
    """

    def __init__(self, points, laws, maps, perms):
        self.points = points
        self.laws = laws
        self.maps = maps
        labels = ["p%d" % i for i in range(len(points))]
        super().__init__(labels, perms)


def _find(points, index, x):
    """(i, key): the position of x in points, or None, and its key in
    index, ``StructureAlgebra.point_key``.  Where the algebra gives no
    key (over a function field) the points are scanned."""
    key = x.algebra.point_key(x)
    if key is None:
        return next((i for i, y in enumerate(points) if y == x), None), None
    return index.get(key), key


def realize_axet(bases, max_points=24):
    """Close the axes of verify_axis eigenbases under their Miyamoto maps.

    Every eigenbasis must have passed (NotAnAxis otherwise); an axis
    given twice is one point, with the first one's law.  New orbit
    points inherit the law of their preimage and the conjugated map
    tau_{g(x)} = g tau_x g^{-1}; more than max_points points, given
    or found, raise NotClosedWithinBound.  Each row maps the points as
    they stand when it starts; the pass that adds no point records the
    permutation rows.
    """
    points, laws, maps, index = [], [], [], {}
    for basis in bases:
        if not basis.passed:
            raise NotAnAxis(basis)
        i, key = _find(points, index, basis.axis)
        if i is not None:  # an axis declared twice
            continue
        index[key] = len(points)
        points.append(basis.axis)
        laws.append(basis.law)
        maps.append(basis.miyamoto)
    if len(points) > max_points:
        raise NotClosedWithinBound("orbit exceeds %d points" % max_points)

    while True:
        size, perms = len(points), []
        for p in range(len(points)):
            row = []
            for q, img in enumerate(maps[p].images(points)):
                i, key = _find(points, index, img)
                if i is None:
                    if len(points) >= max_points:
                        raise NotClosedWithinBound(
                            "orbit exceeds %d points" % max_points)
                    conj = maps[p].compose(maps[q]).compose(maps[p])
                    i = index[key] = len(points)
                    points.append(img)
                    laws.append(laws[q])
                    maps.append(conj)
                row.append(i)
            perms.append(row)
        if len(points) == size:
            return RealizedAxet(points, laws, maps, perms)
