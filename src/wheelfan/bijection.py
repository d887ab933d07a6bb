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
injective; fiber_report quantifies exactly how the classes collapse, and
the verify suite reads its checks off the report.  The report is read off
tables: the collapse map of each arc, built once; each labeled forest's
image, relabeled once through its arc's map; the FanTree check of each
distinct image; each class representative's image; and the inverse of each
distinct class image.  Rotation-equivalent forests share an image, so each
distinct image is checked and inverted once; the rotations of normalize
read their maps from the shared table of graphs.rotate_rim_labels.  forward
rotates and collapses in one relabeling of the forest's own edges, and the
report keys classes by normalize, so the two rotations check each other.

WheelForest lives in the enumeration module, which emits it and says where
a forest's edges are checked; bijection.WheelForest is the same class.  Its
four-field constructor trusts its edges and arc, so every forest derived
here (by normalize, inverse and conditioned_inverse) is built directly, its
arc known from how it was made.  The audit's round trip compares whole
forests, arc included, so a wrong arc fails it.  Fan trees are different:
FanTree checks every tree with is_spanning_tree, each distinct image
included, and the audit's coverage row rests on that check: the distinct
images, all fan spanning trees, cover the target fan exactly when they are
as many as its Laplacian minor counts.  FanTree.from_edges makes outside
edges canonical; forward and the audit already hold canonical edges and
build their FanTree directly.
"""

from __future__ import annotations

from collections import Counter
from typing import NamedTuple

from .graphs import (
    Edge, Refusal, _check_path, _check_rim, canonical_edge, is_spanning_tree, make_fan, rotate_rim_labels,
)
from .enumeration import DEFAULT_ENUM_CAP, WheelForest, enum_arc_forests, rotation_class_representative
from .kirchhoff import count_spanning_trees


class _FanTreeFields(NamedTuple):
    m: int
    edges: tuple[Edge, ...]


class FanTree(_FanTreeFields):
    """A spanning tree of the fan with m path vertices, checked when made.

    _make, and so _replace, goes through the check too.
    """

    __slots__ = ()

    def __new__(cls, m: int, edges: tuple[Edge, ...]):
        _check_path(m)
        # counted before the fan is built, so a huge m with few edges costs nothing
        if len(edges) != m or not is_spanning_tree(make_fan(m), edges):
            raise Refusal(f"not a spanning tree of the fan with {m} path vertices")
        return super().__new__(cls, m, edges)

    @classmethod
    def _make(cls, iterable) -> "FanTree":
        return cls(*iterable)

    @classmethod
    def from_edges(cls, m: int, edges) -> "FanTree":
        return cls(m, tuple(sorted(canonical_edge(a, b) for a, b in edges)))


def normalize(f: WheelForest) -> WheelForest:
    """The forest rotated so its arc starts at rim vertex 1; arc_len is unchanged.

    Returns f itself when its arc already starts at 1.  Otherwise the edges
    are the class's arc-normal form, rotation_class_representative(f); a
    rotation is an automorphism of the wheel, so they need no new analysis.
    """
    if f.arc_start == 1:
        return f
    return WheelForest(f.n, rotation_class_representative(f), 1, f.arc_len)


def forward(f: WheelForest) -> FanTree:
    """Image of the forest in the fan with n-1 path vertices.

    Relabels the forest's own edges once: rim vertex v goes to its place
    r = (v - arc_start) mod n + 1 on the rotated rim, whose arc is 1..k,
    and the cut vertex k+1 collapses onto k, so r > k becomes r - 1.  The
    image depends only on where each vertex sits relative to the arc, so
    rotation-equivalent forests share one image.  The collapse never merges
    two edges: the arc 1..k has no spoke and no edge to the cut vertex k+1.
    """
    return FanTree(f.n - 1, _image_edges(f, {}))


def _image_edges(f: WheelForest, maps: dict[tuple[int, int], list[int]]) -> tuple[Edge, ...]:
    """The sorted edges of forward(f), not yet checked as a fan spanning tree.

    maps holds the collapse maps of one wheel, keyed by (arc_start, arc_len):
    a map depends only on the wheel and the arc, so it is built on the first
    forest with that arc and read by the rest.
    """
    n, k = f.n, f.arc_len
    if k == n:
        # isolated center: keep the path on 1..n-1, hang the hub on vertex 1
        image = [(i, i + 1) for i in range(1, n - 1)]
        image.append((0, 1))
    else:
        label = maps.get((f.arc_start, k))
        if label is None:
            label = maps[f.arc_start, k] = _collapse_map(n, f.arc_start, k)
        image = [canonical_edge(label[a], label[b]) for a, b in f.edges]
    return tuple(sorted(image))


def _collapse_map(n: int, arc_start: int, k: int) -> list[int]:
    """Fan label of each wheel vertex when the arc of length k < n starts at arc_start."""
    label = [0]  # the center stays the hub
    for v in range(1, n + 1):
        r = (v - arc_start) % n + 1
        label.append(r if r <= k else r - 1)
    return label


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
        raise Refusal("rim size must be one more than the fan path size")
    _check_rim(n)
    hub = [e for e in tree.edges if e[0] == 0]
    if hub == [(0, 1)]:
        # one spoke means the whole path: the isolated-center forest, its arc the whole rim
        return WheelForest(n, tuple((i, i + 1) for i in range(1, n)), 1, n)
    k = _initial_run(tree)
    # the run 1..k holds k - 1 path edges, so any more lie off the run
    if len(tree.edges) - len(hub) != k - 1:
        raise Refusal("not in the image convention: path edges must form one initial run")
    for _, i in hub:
        if i < k:
            raise Refusal("not in the image convention: hub edge inside the initial path run")
    # the spokes, in the tree's order, sort before the arc's rim path 1..k
    rebuilt = tuple((0, i + 1) for _, i in hub) + tuple((i, i + 1) for i in range(1, k))
    return WheelForest(n, rebuilt, 1, k)


def conditioned_forward(f: WheelForest) -> FanTree:
    """Image of a forest of F(v1|vc) in the fan with m = n path vertices.

    Rotates the arc to 1..k and adds the spoke to j, the arc position that
    rim vertex 1 moved to.  Forests in which vertex 1 shares the center's
    component are outside the domain and raise.
    """
    n = f.n
    j = (1 - f.arc_start) % n + 1
    if j > f.arc_len:
        raise Refusal("not in F(v1|vc): rim vertex 1 is in the center's component")
    return FanTree.from_edges(n, normalize(f).edges + ((0, j),))


def conditioned_inverse(tree: FanTree) -> WheelForest:
    """Preimage of a fan tree under conditioned_forward, on the wheel with n = m rim vertices.

    The initial path run 1..k meets the hub by exactly one spoke {0, j};
    removing it and rotating j back to rim vertex 1 gives the forest.
    """
    n = tree.m
    _check_rim(n)
    k = _initial_run(tree)
    # the run reaches the rest of the tree only through the hub, so one spoke
    (j,) = [b for a, b in tree.edges if a == 0 and b <= k]
    rest = [e for e in tree.edges if e != (0, j)]
    # rest's arc is 1..k; the rotation taking j to 1 takes its start 1 to (1 - j) % n + 1
    return WheelForest(n, rotate_rim_labels(rest, (1 - j) % n, n), (1 - j) % n + 1, k)


class FiberReport(NamedTuple):
    """How the forward map folds the arc forests of one wheel onto fan trees.

    Fiber histograms pair a fiber size with how many images have it; the
    labeled histogram counts labeled forests per image, the normalized one
    counts rotation classes per image.  roundtrip_ok counts the normalized
    representatives, one per class, that inverse(forward) restores.  The
    last three fields are not printed: rotation_stable counts the labeled
    forests whose image is their class representative's, and spoke_only_*
    restrict the round trip to the representatives whose center edges are
    all spokes.
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
    roundtrip_ok: int
    rotation_stable: int
    spoke_only_total: int
    spoke_only_ok: int

    @property
    def roundtrip_pass(self) -> bool:
        return self.roundtrip_ok == self.class_count

    @property
    def max_fiber(self) -> int:
        return max((size for size, _ in self.normalized_fibers), default=0)

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
            f"target fan path vertices: {self.n - 1}",
            f"fan spanning trees: {self.fan_tree_count}",
            f"all images are fan spanning trees: {yesno(self.all_images_valid)}",
            f"images cover every fan spanning tree: {yesno(self.covers_target_fan)}",
            f"labeled fiber histogram (size x images): {hist(self.labeled_fibers)}",
            f"normalized fiber histogram (size x images): {hist(self.normalized_fibers)}",
            f"round trips on normalized representatives: {self.roundtrip_ok}/{self.class_count}",
            "note: images use one path vertex fewer than the rim size; "
            f"{self.class_count} rotation classes share {self.image_count} images, "
            "so the map cannot be inverted everywhere",
            self.machine_line(),
        ]


def fiber_report(n: int, cap: int = DEFAULT_ENUM_CAP) -> FiberReport:
    """Fold the arc forests of the wheel with n rim vertices through forward.

    The report is read off a few tables.  maps holds the collapse map of
    each (arc_start, arc_len), built on the first forest with that arc.
    images holds each labeled forest's image, relabeled once through its
    arc's map and interned, so that one tuple per distinct image stays
    alive; trees holds the FanTree check of each distinct image, None if it
    failed.  A forest's class is keyed by the edges of normalize(f);
    its representative, one of reps, is the member with arc_start 1, and
    class_image maps it to its image when that image is valid.  preimages
    holds the inverse of each distinct class image, for the round trip.
    The relabeling rotates each forest by itself, not through normalize, so
    rotation_stable compares two independent rotations.
    """
    records = enum_arc_forests(n, cap=cap)
    maps: dict[tuple[int, int], list[int]] = {}
    distinct: dict[tuple[Edge, ...], tuple[Edge, ...]] = {}
    images = [distinct.setdefault(edges, edges) for edges in (_image_edges(f, maps) for f in records)]
    trees = {image: _built(FanTree, n - 1, image) for image in distinct}
    reps = [(f, image) for f, image in zip(records, images) if f.arc_start == 1]
    class_image = {f.edges: image for f, image in reps if trees[image] is not None}
    classes_per_image = Counter(class_image.values())
    preimages = {image: _built(inverse, trees[image], n) for image in classes_per_image}
    trips = [preimages.get(image) == f for f, image in reps]
    # the center's component has n - arc_len edges; spoke-only if all are spokes
    spoke_only = [sum(a == 0 for a, _ in f.edges) == n - f.arc_len for f, _ in reps]
    fan_tree_count = count_spanning_trees(make_fan(n - 1))
    to_hist = lambda c: tuple(sorted(Counter(c.values()).items()))
    return FiberReport(
        n=n,
        labeled_count=len(records),
        class_count=len(reps),
        image_count=len(classes_per_image),
        fan_tree_count=fan_tree_count,
        labeled_fibers=to_hist(Counter(image for image in images if trees[image] is not None)),
        normalized_fibers=to_hist(classes_per_image),
        all_images_valid=len(class_image) == len(reps),
        covers_target_fan=len(classes_per_image) == fan_tree_count,
        roundtrip_ok=sum(trips),
        rotation_stable=sum(class_image.get(normalize(f).edges) == image for f, image in zip(records, images)),
        spoke_only_total=sum(spoke_only),
        spoke_only_ok=sum(t and s for t, s in zip(trips, spoke_only)),
    )


def _built(build, *args):
    """build(*args), or None if build refused its input; any other error escapes."""
    try:
        return build(*args)
    except Refusal:
        return None
