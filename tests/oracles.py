"""Naive reference implementations used to cross-check the package.

Everything here works on plain frozensets of residues with double loops,
independent of the bitmask/convolution code paths under test.  The
exceptions are the references for the witness searches, which test masks
with the library's CyclicSet sumsets (themselves checked against the naive
sumsets here): scan_haight_class_masks for both search modes, sharing
none of the walk's pruning, incremental levels or orbit marking, taking
its candidates from the divisor roots {0, d} rather than the walk's
largest-gap translates, and canonicalizing with all n*phi(n) affine
maps, with haight_class_mask its per-mask test for ranges too large to
list; affine_images_through_zero, every image of a mask through 0, for
groups.canonical_mask and largest_gap_images; reference_scan_masks, the
walk in its earlier form (full levels 1A..kA, B - B for every child, a
sorted coin order), for the walk's shortcuts, coin stream and budget;
and EagerWitnessStore for the store's open, which parses every line.
reference_pm_verdict tests every sign-count class at every cycle entry
with the naive signed products here.  naive_covered_tuples counts the
tuples a thick-set independence check covers point by point.
"""

import json
from itertools import combinations
from math import gcd, prod

from steinset.groups import CyclicSet, canonical_mask, largest_gap_images
from steinset.store import StoreRecord, WitnessStore
from steinset.sumsets import iterated_sumset, signed_product_counts
from steinset.thick import xi_sequence
from steinset.verdicts import Verdict


def naive_sumset(a, b, n):
    return frozenset((x + y) % n for x in a for y in b)


def naive_negate(a, n):
    return frozenset((n - x) % n for x in a)


def naive_iterated(a, k, n):
    out = frozenset(a)
    for _ in range(k - 1):
        out = naive_sumset(out, a, n)
    return out


def naive_signed(a, signs, n):
    parts = [frozenset(a) if s == 1 else naive_negate(a, n) for s in signs]
    out = parts[0]
    for p in parts[1:]:
        out = naive_sumset(out, p, n)
    return out


def naive_kfold(a, k, n):
    """kA for any k >= 1, in at most n naive sums: B = A - min(A) holds 0,
    so jB grows with j until it repeats, and kA = kB + k*min(A)."""
    low = min(a)
    b = frozenset((x - low) % n for x in a)
    out = b
    for _ in range(k - 1):
        grown = naive_sumset(out, b, n)
        if grown == out:
            break
        out = grown
    return frozenset((x + k * low) % n for x in out)


def naive_pm(a, m, n):
    return naive_iterated(frozenset(a) | naive_negate(a, n), m, n)


def naive_pm_union(a, m, n):
    """Union of every length-m signed product, enumerated sign by sign."""
    out = frozenset()
    for bits in range(1 << m):
        signs = [1 if bits >> i & 1 else -1 for i in range(m)]
        out |= naive_signed(a, signs, n)
    return out


def mask_of(members, n):
    # linear time for dense sets at large n; checked against naive_mask
    return CyclicSet.from_members(n, members).mask


def naive_mask(members, n):
    """One bit set per member, each by shifting 1 into place (quadratic)."""
    mask = 0
    for a in members:
        mask |= 1 << (a % n)
    return mask


def members_of(mask, n):
    return frozenset(r for r in range(n) if mask >> r & 1)


def naive_affine_image(a, u, c, n):
    return frozenset((u * x + c) % n for x in a)


def naive_orbit(a, n):
    """Every affine image u*a + c of the set, as frozensets."""
    out = set()
    for u in range(n):
        if gcd(u, n) != 1:
            continue
        for c in range(n):
            out.add(frozenset((u * x + c) % n for x in a))
    return out


def naive_canonical_mask(a, n):
    return min(mask_of(img, n) for img in naive_orbit(a, n))


def naive_symmetry_center(a, n):
    for c in range(n):
        if frozenset((2 * c - x) % n for x in a) == frozenset(a):
            return c
    return None


def naive_haight_class_masks(n, k):
    """Canonical masks of every witness class at modulus n, via all 2^n subsets."""
    full = frozenset(range(n))
    seen = set()
    for mask in range(1, 1 << n):
        a = members_of(mask, n)
        if naive_sumset(a, naive_negate(a, n), n) != full:
            continue
        if naive_iterated(a, k, n) == full:
            continue
        seen.add(naive_canonical_mask(a, n))
    return sorted(seen)


def candidate_masks(n):
    """Masks hitting every affine class that can hold a witness (n >= 2).

    Witness sets have >= 2 elements, so each class has a representative
    with 0 in A whose least nonzero element d is the minimum of its orbit
    under unit multiplication.  That orbit is {x : gcd(x, n) = gcd(d, n)},
    whose minimum is gcd(d, n); hence d can be pinned to a divisor of n.
    """
    for d in range(1, n):
        if n % d:
            continue
        base = 1 | (1 << d)
        for high in range(1 << (n - 1 - d)):
            yield base | (high << (d + 1))


def all_maps_canonical_mask(mask, n):
    """Least image of a mask under all n*phi(n) affine maps, on raw ints."""
    full = (1 << n) - 1
    memb = [r for r in range(n) if mask >> r & 1]
    best = mask
    for u in range(1, n):
        if gcd(u, n) != 1:
            continue
        um = 0
        for a in memb:
            um |= 1 << (u * a % n)
        for c in range(n):
            best = min(best, ((um << c) | (um >> (n - c))) & full)
    return best


def affine_images_through_zero(mask, n):
    """Masks of the affine images u*A + c of A that contain 0 (A non-empty).

    u*A + c contains 0 exactly when c = -u*a for a member a, so these are
    the |A|*phi(n) images rot(u*A, -u*a), possibly with repeats.  The
    reference for canonical_mask (their minimum) and largest_gap_images
    (those whose wrap-around gap is largest).
    """
    full = (1 << n) - 1
    memb = [r for r in range(n) if mask >> r & 1]
    for u in range(n):
        if gcd(u, n) != 1:
            continue
        image = [u * a % n for a in memb]
        um = 0
        for b in image:
            um |= 1 << b
        for b in image:
            # rotate by -b; b = 0 leaves um unchanged
            yield ((um >> b) | (um << (n - b))) & full


def haight_class_mask(mask, n, k, max_set_size=None):
    """The canonical mask of mask's affine class if mask is a (k, n) witness
    with at most max_set_size members, else None.

    A mask is in scan_haight_class_masks(n, k, max_set_size) exactly when
    this maps it to itself: the scan's candidates hit every class, and
    affine maps keep the size and both witness conditions.
    """
    if max_set_size is not None and mask.bit_count() > max_set_size:
        return None
    a = CyclicSet(n, mask)
    if not signed_product_counts(a, 1, 1).is_full() or iterated_sumset(a, k).is_full():
        return None
    return all_maps_canonical_mask(mask, n)


def scan_haight_class_masks(n, k, max_set_size=None):
    """Canonical masks of every witness class at modulus n: every candidate
    mask tested with the library's sumset kernels, no pruning or orbit marks."""
    if n == 1:
        return []
    found = {haight_class_mask(mask, n, k, max_set_size) for mask in candidate_masks(n)}
    found.discard(None)
    return sorted(found)


def reference_scan_masks(n, k, max_set_size, rng=None, budget=0):
    """Canonical masks of haight._scan_modulus, by its earlier form: every
    node carries its full levels 1A..kA, B - B is built for every child,
    and the seeded order sorts each node's children by coin and residue.

    The differential reference for the walk's fast path: the same nodes,
    coin draws and budget accounting, without its shortcuts (1A taken
    from the mask, B - B skipped under a full A - A, no sort for fewer
    than two children, the size test made only under a cap).
    """
    if n == 1:
        return []
    full = (1 << n) - 1
    cap = n if max_set_size is None else max_set_size
    seen = set()
    reps = set()
    # node: A, -A, A - A, levels (1A, ..., kA), max(A), largest internal gap
    stack = [(1, 1, 1, (1,) * k, 0, 0)]
    while stack:
        a, neg, diff, levels, last, gap = stack.pop()
        if a.bit_count() >= cap:
            continue
        xs = range(last + 1, min(n - gap, (n + last) // 2) + 1)
        if rng is not None:
            xs = xs[:budget]
            budget -= len(xs)
            top = len(stack)
        for x in xs:
            y = n - x
            prev = 1
            grown = []
            for level in levels:
                prev = level | (((prev << x) | (prev >> y)) & full)
                grown.append(prev)
            if prev == full:
                continue
            b = a | (1 << x)
            nb = neg | (1 << y)
            d = diff | (((b << y) | (b >> x)) & full) | (((nb << x) | (nb >> y)) & full)
            if d == full and b not in seen:
                if rng is None:
                    images = largest_gap_images(b, n)
                    seen.update(images)
                    reps.add(min(images))
                else:
                    reps.add(canonical_mask(b, n))
            stack.append((b, nb, d, tuple(grown), x, max(gap, x - last)))
        if rng is not None:
            if not budget:
                break
            kids = stack[top:]
            coins = rng.bits(len(kids))
            order = sorted(range(len(kids)), key=lambda i: (coins >> i & 1, -i))
            stack[top:] = [kids[i] for i in order]
    return sorted(reps)


def random_nonempty_members(rng, n):
    mask = rng.randrange(1, 1 << n)
    return members_of(mask, n)


def random_symmetric_members(rng, n):
    """Non-empty set with a symmetry center: seed half union its reflection."""
    c = rng.randrange(n)
    half = random_nonempty_members(rng, n)
    return frozenset(half) | frozenset((2 * c - x) % n for x in half)


class EagerWitnessStore(WitnessStore):
    """WitnessStore that parses every line it reads, trusting none.

    This is the keying the store had before it read dedup keys off the
    text of canonical lines: json.loads on each line, keyed on the payload
    re-serialized with sorted keys.  Like the store, it keeps each line.
    """

    def _add_lines(self, lines):
        for line in lines:
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
                if not isinstance(obj["payload"], dict):
                    raise TypeError("payload is not an object")
                record = StoreRecord(
                    kind=obj["kind"],
                    payload=obj["payload"],
                    created_at=int(obj["created_at"]),
                    producer=obj.get("producer", {}),
                )
                key = record.kind + "|" + json.dumps(
                    record.payload, sort_keys=True, separators=(",", ":")
                )
            except (ValueError, KeyError, TypeError):
                self.malformed_lines += 1
                continue
            if key in self._positions:
                continue
            self._positions[key] = len(self._entries)
            self._entries.append(line)


def reference_pm_verdict(spec, m):
    """pm_verdict over all m + 1 sign-count classes (p, q), in descending p,
    each tested at every cycle entry with naive_signed."""

    def full(entry, plus, minus):
        n = entry.modulus
        return len(naive_signed(frozenset(entry.members()), [1] * plus + [-1] * minus, n)) == n

    first_failures = []
    for minus in range(m + 1):
        plus = m - minus
        failing = [i for i, e in enumerate(spec.cycle) if not full(e, plus, minus)]
        if not failing:
            k0 = max((i + 1 for i, e in enumerate(spec.prefix) if not full(e, plus, minus)), default=0)
            return Verdict(holds=True, k0=k0, sign_class=(plus, minus))
        first_failures.append(failing[0])
    return Verdict(holds=False, witnesses=tuple(sorted(set(first_failures))))


def naive_covered_tuples(spec, m):
    """Tuples that independence_check(spec, m) covers, from the listed points:
    per n-subset of sets, n <= m, the point tuples not all inside
    [-Xi(m), Xi(m)] times the (2m)^n coefficient tuples."""
    _, big_xi = xi_sequence(m)
    per_set = []
    for s in spec.index_sets:
        points = [x for a in sorted(s) if a <= spec.a_max
                  for x in range(2 ** 2 ** a - a, 2 ** 2 ** a + a + 1)]
        per_set.append((len(points), sum(1 for x in points if abs(x) <= big_xi)))
    return sum(
        (prod(t for t, _ in combo) - prod(s for _, s in combo)) * (2 * m) ** n
        for n in range(1, min(m, len(per_set)) + 1)
        for combo in combinations(per_set, n)
    )
