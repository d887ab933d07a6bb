"""Maps between conditioned wheel forests and fan spanning trees.

The module carries two maps.  Both work on two-component spanning forests
of the wheel with rim 1..n.  The center-free component of such a forest is
always a contiguous rim arc, and both maps first rotate the rim so that the
arc starts at vertex 1 (arc vertices 1..k, cut vertex k+1).

conditioned_forward / conditioned_inverse is the paper's bijection between
F_{W_{n+1}}(v_1|v_c), the forests in which rim vertex 1 and the center lie
in different components (f(2n) of them), and the spanning trees of the fan
F_n with n path vertices (also f(2n)).  Vertex 1 sits somewhere on the arc;
after the rotation it lands on arc position j, and the image is the rotated
forest plus the single spoke {0, j}.  The rotated forest never holds the rim
edge {n, 1}, so the image is a spanning tree of F_n.  Going back, the maximal
initial path run u_1..u_k of a fan tree meets the hub by exactly one spoke
{0, j}.  Removing it and rotating vertex j back to 1 restores the forest.

forward / inverse is the collapse map.  It sends every two-component forest
to the fan with n-1 path vertices.  It collapses the cut vertex onto the end
of the arc and relabels everything else down by one:

    rim vertex v:  v       for v <= k
                   k       for v == k+1   (cut vertex)
                   v - 1   for v >= k+2
    center 0 stays the hub 0.

When the arc covers the whole rim (center isolated) the last arc edge
{n-1, n} is dropped and the hub is attached to path vertex 1 instead.

The collapse inverse reads the maximal initial path run u_1..u_k of a fan
tree and undoes the collapse: hub edge {0, i} with i >= k becomes the spoke
{0, i+1}, and a tree that is the full path plus only {0, 1} becomes the
isolated-center forest.  Fan trees with a path edge off the initial run, or
a hub edge inside it, are not images of this construction and are rejected.

The collapse map is measured, not assumed: there are f(2n-1) rotation
classes but only f(2n-2) spanning trees of its target fan, so it cannot be
injective; fiber_report quantifies exactly how the classes collapse.

Validation happens once per input forest, where it enters the module:
WheelForest.from_edges and the public five-field constructor analyse the
edge set (one union-find pass over the wheel) and locate the arc, and
enum_arc_forests locates the arc of each subset its walk finds.
WheelForest lives in the enumeration module, which emits it;
bijection.WheelForest is the same class.  Every derived forest is then
built unchecked: a rim rotation is an automorphism of the wheel, so
normalize keeps each edge on its side, rotates the two sides separately,
moves arc_start to 1 and keeps arc_len.  Fan trees are different: FanTree
checks every image with is_spanning_tree, because that check is what the
audit reports.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from .graphs import Edge, canonical_edge, is_spanning_tree, make_fan, rotate_rim_labels
from .enumeration import DEFAULT_ENUM_CAP, WheelForest, enum_arc_forests, enum_spanning_trees


@dataclass(frozen=True)
class FanTree:
    m: int
    edges: tuple[Edge, ...]

    def __post_init__(self):
        if self.m < 1:
            raise ValueError("fan requires at least 1 path vertex")
        # counted before the fan is built, so a huge m with few edges costs nothing
        if len(self.edges) != self.m or not is_spanning_tree(make_fan(self.m), self.edges):
            raise ValueError(f"not a spanning tree of the fan with {self.m} path vertices")

    @classmethod
    def from_edges(cls, m: int, edges) -> "FanTree":
        return cls(m, tuple(sorted(canonical_edge(a, b) for a, b in edges)))


@dataclass(frozen=True)
class NormalizedForest:
    """Forest rotated so its arc occupies rim positions 1..arc_len.

    rotation is the shift that recovers the original labeling:
    rotate_rim_labels(forest.edges, rotation, n) == original edges.
    """

    forest: WheelForest
    rotation: int

    def __post_init__(self):
        if self.forest.arc_start != 1:
            raise ValueError("normalized forest must have its arc start at rim position 1")
        if not 0 <= self.rotation < self.forest.n:
            raise ValueError("rotation out of range")


def normalize(f: WheelForest) -> NormalizedForest:
    """Rotate the rim so the arc starts at vertex 1; arc_len is unchanged.

    A rotation is an automorphism of the wheel, so it keeps the forest valid
    and keeps each edge on its side; rotating the two sides separately gives
    the fields that analysing the rotated edge set would give.
    """
    rotation = f.arc_start - 1
    if rotation == 0:
        return NormalizedForest(f, 0)
    n = f.n
    rotated = WheelForest._unchecked(
        n,
        rotate_rim_labels(f.center_edges, -rotation, n),
        rotate_rim_labels(f.cycle_edges, -rotation, n),
        1,
        f.arc_len,
    )
    return NormalizedForest(rotated, rotation)


def forward(f: WheelForest) -> FanTree:
    """Image of the forest in the fan with n-1 path vertices.

    Normalizes first, so rotation-equivalent forests share one image.
    """
    nf = normalize(f)
    n, k = f.n, nf.forest.arc_len
    if k == n:
        # isolated center: keep the path on 1..n-1, hang the hub on vertex 1
        image = [(i, i + 1) for i in range(1, n - 1)]
        image.append((0, 1))
    else:

        def collapse(v: int) -> int:
            if v <= k:
                return v
            return k if v == k + 1 else v - 1

        image = [canonical_edge(collapse(a), collapse(b)) for a, b in nf.forest.edges]
        if len(set(image)) != len(image):  # cannot happen; guards the collapse
            raise AssertionError("forward map collapsed two edges together")
    return FanTree.from_edges(n - 1, image)


def _initial_run(tree: FanTree) -> int:
    """Length k of the maximal initial path run u_1..u_k of a fan tree."""
    present = set(tree.edges)
    k = 1
    while k < tree.m and (k, k + 1) in present:
        k += 1
    return k


def inverse(tree: FanTree, n: int) -> WheelForest:
    """Preimage of a fan tree under forward, as a normalized forest.

    Only trees whose path edges form one initial run u_1..u_k and whose hub
    edges all have index >= k are images; anything else raises.
    """
    if n != tree.m + 1:
        raise ValueError("rim size must be one more than the fan path size")
    m = tree.m
    k = _initial_run(tree)
    hub = [e for e in tree.edges if e[0] == 0]
    path_edges = {e for e in tree.edges if e[0] != 0}
    full_path = {(i, i + 1) for i in range(1, m)}
    if k == m and path_edges == full_path and hub == [(0, 1)]:
        # hub attached only at vertex 1 on the full path: the isolated-center forest
        return WheelForest.from_edges(n, [(i, i + 1) for i in range(1, n)])
    if path_edges != {(i, i + 1) for i in range(1, k)}:
        raise ValueError("not in the image convention: path edges must form one initial run")
    for _, i in hub:
        if i < k:
            raise ValueError("not in the image convention: hub edge inside the initial path run")
    rebuilt = [(i, i + 1) for i in range(1, k)]
    rebuilt.extend((0, i + 1) for _, i in hub)
    return WheelForest.from_edges(n, rebuilt)


def conditioned_forward(f: WheelForest) -> FanTree:
    """Image of a forest of F(v1|vc) in the fan with m = n path vertices.

    Rotates the arc to 1..k and adds the spoke to j, the arc position that
    rim vertex 1 moved to.  Forests in which vertex 1 shares the center's
    component are outside the domain and raise.
    """
    n = f.n
    if (1 - f.arc_start) % n >= f.arc_len:
        raise ValueError("not in F(v1|vc): rim vertex 1 is in the center's component")
    nf = normalize(f)
    j = (-nf.rotation) % n + 1
    return FanTree.from_edges(n, nf.forest.edges + ((0, j),))


def conditioned_inverse(tree: FanTree) -> WheelForest:
    """Preimage of a fan tree under conditioned_forward, on the wheel with n = m rim vertices.

    The initial path run 1..k meets the hub by exactly one spoke {0, j};
    removing it and rotating j back to rim vertex 1 gives the forest.
    """
    n = tree.m
    k = _initial_run(tree)
    # the run reaches the rest of the tree only through the hub, so one spoke
    (j,) = [b for a, b in tree.edges if a == 0 and b <= k]
    rest = [e for e in tree.edges if e != (0, j)]
    return WheelForest.from_edges(n, rotate_rim_labels(rest, (1 - j) % n, n))


@dataclass(frozen=True)
class FiberReport:
    """How the forward map folds the arc forests of one wheel onto fan trees.

    Fiber histograms pair a fiber size with how many images have it; the
    labeled histogram counts labeled forests per image, the normalized one
    counts rotation classes per image.  roundtrip_* restrict inverse(forward)
    to normalized representatives.
    """

    n: int
    labeled_count: int
    class_count: int
    image_count: int
    fan_tree_count: int
    labeled_fibers: tuple[tuple[int, int], ...]
    normalized_fibers: tuple[tuple[int, int], ...]
    all_images_valid: bool
    covers_target_fan: bool
    target_path_vertices: int
    roundtrip_ok: int
    roundtrip_total: int

    @property
    def roundtrip_pass(self) -> bool:
        return self.roundtrip_ok == self.roundtrip_total

    @property
    def max_fiber(self) -> int:
        return max(size for size, _ in self.normalized_fibers)

    def machine_line(self) -> str:
        verdict = "pass" if self.roundtrip_pass else "fail"
        return f"n={self.n} images={self.image_count} fibers_max={self.max_fiber} roundtrip={verdict}"

    def render_lines(self) -> list[str]:
        def hist(pairs):
            return " ".join(f"{size}x{count}" for size, count in pairs)

        yesno = lambda b: "yes" if b else "no"
        return [
            f"rim vertices: {self.n}",
            f"labeled arc forests: {self.labeled_count}",
            f"rotation classes: {self.class_count}",
            f"distinct forward images: {self.image_count}",
            f"target fan path vertices: {self.target_path_vertices}",
            f"fan spanning trees: {self.fan_tree_count}",
            f"all images are fan spanning trees: {yesno(self.all_images_valid)}",
            f"images cover every fan spanning tree: {yesno(self.covers_target_fan)}",
            f"labeled fiber histogram (size x images): {hist(self.labeled_fibers)}",
            f"normalized fiber histogram (size x images): {hist(self.normalized_fibers)}",
            f"round trips on normalized representatives: {self.roundtrip_ok}/{self.roundtrip_total}",
            "note: images use one path vertex fewer than the rim size; "
            f"{self.class_count} rotation classes share {self.image_count} images, "
            "so the map cannot be inverted everywhere",
            self.machine_line(),
        ]


def fiber_report(n: int, cap: int = DEFAULT_ENUM_CAP, records=None) -> FiberReport:
    """Fold the arc forests of the wheel with n rim vertices through forward.

    records, when given, must be enum_arc_forests(n, cap=cap), already
    computed by the caller; otherwise they are enumerated here.
    """
    if records is None:
        records = enum_arc_forests(n, cap=cap)
    by_class: dict[tuple[Edge, ...], NormalizedForest] = {}
    labeled_per_class: Counter = Counter()
    for f in records:
        nf = normalize(f)
        by_class[nf.forest.edges] = nf
        labeled_per_class[nf.forest.edges] += 1

    labeled_per_image: Counter = Counter()
    classes_per_image: Counter = Counter()
    valid = 0
    roundtrip_ok = 0
    for rep_edges, nf in by_class.items():
        try:
            image = forward(nf.forest)
        except ValueError:
            continue
        valid += 1
        classes_per_image[image.edges] += 1
        labeled_per_image[image.edges] += labeled_per_class[rep_edges]
        try:
            if inverse(image, n).edges == rep_edges:
                roundtrip_ok += 1
        except ValueError:
            pass

    fan_trees = {tuple(t) for t in enum_spanning_trees(make_fan(n - 1), cap=cap)}
    to_hist = lambda c: tuple(sorted(Counter(c.values()).items()))
    return FiberReport(
        n=n,
        labeled_count=len(records),
        class_count=len(by_class),
        image_count=len(classes_per_image),
        fan_tree_count=len(fan_trees),
        labeled_fibers=to_hist(labeled_per_image),
        normalized_fibers=to_hist(classes_per_image),
        all_images_valid=valid == len(by_class),
        covers_target_fan=set(classes_per_image) == fan_trees,
        target_path_vertices=n - 1,
        roundtrip_ok=roundtrip_ok,
        roundtrip_total=len(by_class),
    )
