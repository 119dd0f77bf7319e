"""Cartan matrices and Dynkin diagrams: construction, classification, extension.

Canonical node numbering (frozen; ``classify`` is insensitive to node order):

    A_n : 1 - 2 - ... - n
    B_n : 1 - 2 - ... - (n-1) = n     double bond, node n short
    C_n : 1 - 2 - ... - (n-1) = n     double bond, node n long
    D_n : 1 - 2 - ... - (n-2), with n-1 and n both attached to n-2
    E_n : chain 1 - 3 - 4 - 5 - ... - n, node 2 attached to node 4
    F_4 : 1 - 2 = 3 - 4               double bond, node 3 short
    G_2 : 1 = 2                       triple bond, node 1 short

Pairing convention: ``entries[i][j] = 2 (a_i, a_j) / (a_j, a_j)``, so the
simple reflection through node j sends a_i to ``a_i - entries[i][j] a_j``.
Extended diagrams carry the added node at index 0.
"""

from __future__ import annotations

import math
import re
from collections import namedtuple
from functools import lru_cache
from itertools import chain, compress, repeat
from typing import Iterable, Sequence


class InadmissibleLabelError(ValueError):
    """Family/rank pair outside the finite catalogue."""


class NotFiniteTypeError(ValueError):
    """Matrix is not the Cartan matrix of a finite root system."""


_ADMISSIBLE = {
    "A": lambda n: n >= 1,
    "B": lambda n: n >= 2,
    "C": lambda n: n >= 2,
    "D": lambda n: n >= 4,
    "E": lambda n: n in (6, 7, 8),
    "F": lambda n: n == 4,
    "G": lambda n: n == 2,
}


# The records are namedtuples: `__new__` checks the fields, while the
# namedtuple `_make` and `_replace` take them unchecked.


class TypeLabel(namedtuple("TypeLabel", "family rank")):
    """An irreducible type, e.g. TypeLabel('B', 3); sorts family-first."""

    __slots__ = ()

    def __new__(cls, family: str, rank: int) -> TypeLabel:
        rule = _ADMISSIBLE.get(family)
        if rule is None or not rule(rank):
            raise InadmissibleLabelError(
                f"{family}{rank}: admissible are A(n>=1), B(n>=2), "
                f"C(n>=2), D(n>=4), E6..E8, F4, G2"
            )
        return tuple.__new__(cls, (family, rank))

    def __str__(self) -> str:
        return f"{self.family}{self.rank}"


class DecompositionLabel(namedtuple("DecompositionLabel", "factors")):
    """A multiset of irreducible factors in canonical sorted order."""

    __slots__ = ()

    def __new__(cls, factors: Iterable[TypeLabel]) -> DecompositionLabel:
        return tuple.__new__(cls, (tuple(sorted(factors)),))

    @property
    def rank(self) -> int:
        return sum(f.rank for f in self.factors)

    def __str__(self) -> str:
        return "x".join([f"{f.family}{f.rank}" for f in self.factors]) if self.factors else "-"


_LABEL_RE = re.compile(r"([A-G])([0-9]+)")


def parse_label(text: str) -> TypeLabel:
    """Parse a single irreducible label such as 'F4'."""
    m = _LABEL_RE.fullmatch(text.strip())
    if m is None:
        raise InadmissibleLabelError(f"cannot parse type label {text!r}")
    return TypeLabel(m.group(1), int(m.group(2)))


def parse_decomposition(text: str) -> DecompositionLabel:
    """Parse a product label such as 'A1xC3'; '-' is the trivial system."""
    body = text.strip()
    if body in ("-", ""):
        return DecompositionLabel(())
    parts = body.split("x")
    if not all(p.strip() for p in parts):
        raise InadmissibleLabelError(f"cannot parse product label {text!r}: empty factor")
    return DecompositionLabel(tuple(parse_label(p) for p in parts))


def as_decomposition(spec: str | TypeLabel | DecompositionLabel) -> DecompositionLabel:
    """A decomposition from a product label, a single type, or itself."""
    if isinstance(spec, DecompositionLabel):
        return spec
    if isinstance(spec, TypeLabel):
        return DecompositionLabel((spec,))
    return parse_decomposition(spec)


class CartanMatrix(namedtuple("CartanMatrix", "entries edges")):
    """Integer matrix with diagonal 2, nonpositive off-diagonal entries, and
    a symmetric zero pattern.  The constructor does not require finite type,
    because extended diagrams are not of finite type; ``classify`` raises
    NotFiniteTypeError for a component that matches no finite-type diagram.

    ``edges`` lists the nonzero off-diagonal columns of each row, ascending:
    the diagram's edges, used by every graph walk.  Builders that set the
    edges themselves pass both to ``CartanMatrix._make``."""

    __slots__ = ()

    def __new__(cls, entries: tuple[tuple[int, ...], ...]) -> CartanMatrix:
        n = len(entries)
        if any(map(n.__ne__, map(len, entries))):
            raise ValueError("Cartan matrix must be square")
        flat = tuple(chain.from_iterable(entries))
        if not all(map(isinstance, flat, repeat(int))):
            raise ValueError("Cartan entries must be integers")
        if flat[:: n + 1].count(2) != n:
            raise ValueError("diagonal entries must equal 2")
        columns = range(n)
        neighbors = []
        for i, row in enumerate(entries):
            edges = tuple(filter(i.__ne__, compress(columns, row)))
            if edges and max(map(row.__getitem__, edges)) > 0:
                raise ValueError("off-diagonal entries must be <= 0")
            neighbors.append(edges)
        for i, edges in enumerate(neighbors):
            for j in edges:
                if not entries[j][i]:
                    raise ValueError("zero pattern must be symmetric")
        return tuple.__new__(cls, (entries, tuple(neighbors)))

    def __getnewargs__(self) -> tuple:
        return (self.entries,)

    @property
    def size(self) -> int:
        return len(self.entries)

    def components(self) -> tuple[tuple[int, ...], ...]:
        """Connected components as sorted index tuples, ordered by least node."""
        return _components(self.edges, range(self.size))

    def symmetrizer(self) -> tuple[int, ...] | None:
        """Smallest positive integers d with d_i * a_ij = d_j * a_ji on each
        component; None if the matrix is not symmetrizable.  For a finite
        type d_i = (a_i, a_i) / 2 with short roots of squared length 2, so
        every d_i is 1, 2 or 3."""
        a = self.entries
        n = self.size
        # d_j / d_i = a_ji / a_ij along a spanning tree of each component, as
        # unreduced integer pairs; each component is then scaled to the
        # smallest integer vector.
        num = [0] * n
        den = [1] * n
        d = [0] * n
        for comp in self.components():
            num[comp[0]] = 1
            stack = [comp[0]]
            while stack:
                i = stack.pop()
                for j in self.edges[i]:
                    if not num[j]:
                        num[j] = num[i] * -a[j][i]
                        den[j] = den[i] * -a[i][j]
                        stack.append(j)
            scale = math.lcm(*(den[k] for k in comp))
            values = [num[k] * (scale // den[k]) for k in comp]
            common = math.gcd(*values)
            for k, value in zip(comp, values):
                d[k] = value // common
        # Zero entries and the diagonal hold for any d; check the edges.
        for i, row in enumerate(self.edges):
            for j in row:
                if a[i][j] * d[j] != a[j][i] * d[i]:
                    return None
        return tuple(d)

    def gram(self) -> tuple[tuple[int, ...], ...]:
        """Exact pairing matrix (a_i, a_j), in integers, with short roots of
        squared length 2 when the matrix is of finite type."""
        d = self.symmetrizer()
        if d is None:
            raise NotFiniteTypeError("matrix is not symmetrizable")
        rows = []
        for i, neighbors in enumerate(self.edges):
            row = [0] * self.size
            row[i] = 2 * d[i]
            for j in neighbors:
                row[j] = self.entries[i][j] * d[j]
            rows.append(tuple(row))
        return tuple(rows)


@lru_cache(maxsize=None)
def cartan_of_type(label: TypeLabel) -> CartanMatrix:
    """Cartan matrix of an irreducible type in the canonical numbering."""
    fam, n = label.family, label.rank
    a = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
    edges: list[list[int]] = [[] for _ in range(n)]

    def bond(i: int, j: int, aij: int = -1, aji: int = -1) -> None:
        a[i - 1][j - 1] = aij
        a[j - 1][i - 1] = aji
        edges[i - 1].append(j - 1)
        edges[j - 1].append(i - 1)

    if fam == "A":
        for i in range(1, n):
            bond(i, i + 1)
    elif fam in ("B", "C"):
        for i in range(1, n - 1):
            bond(i, i + 1)
        if fam == "B":
            bond(n - 1, n, -2, -1)
        else:
            bond(n - 1, n, -1, -2)
    elif fam == "D":
        for i in range(1, n - 2):
            bond(i, i + 1)
        bond(n - 2, n - 1)
        bond(n - 2, n)
    elif fam == "E":
        chain = [1, 3, 4, 5, 6, 7, 8][: n - 1]
        for i, j in zip(chain, chain[1:]):
            bond(i, j)
        bond(2, 4)
    elif fam == "F":
        bond(1, 2)
        bond(2, 3, -2, -1)
        bond(3, 4)
    else:
        bond(1, 2, -1, -3)
    return CartanMatrix._make((tuple(map(tuple, a)), tuple(tuple(sorted(row)) for row in edges)))


def cartan_of_decomposition(decomposition: DecompositionLabel) -> CartanMatrix:
    """Block diagonal Cartan matrix of a product, factors in canonical order."""
    blocks = [cartan_of_type(f) for f in decomposition.factors]
    n = sum(b.size for b in blocks)
    a = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
    offset = 0
    for b in blocks:
        for i in range(b.size):
            for j in range(b.size):
                a[offset + i][offset + j] = b.entries[i][j]
        offset += b.size
    return CartanMatrix(tuple(tuple(row) for row in a))


def _components(edges: Sequence[Sequence[int]], nodes: Iterable[int]) -> tuple[tuple[int, ...], ...]:
    """Connected components among `nodes`, as sorted tuples ordered by least
    node.  No edge list may lead outside `nodes`."""
    seen: set[int] = set()
    out = []
    for v in nodes:
        if v in seen:
            continue
        seen.add(v)
        comp = [v]
        # The loop also visits the nodes appended while it runs.
        for x in comp:
            for u in edges[x]:
                if u not in seen:
                    seen.add(u)
                    comp.append(u)
        comp.sort()
        out.append(tuple(comp))
    return tuple(out)


def _classify(
    entries: Sequence[Sequence[int]], edges: Sequence[Sequence[int]], deleted: int | None = None
) -> DecompositionLabel:
    """The one classifier: decompose the diagram with these Cartan entries
    and per-node edge lists, without node `deleted` if one is given.  The
    edge lists must then already omit that node.

    A component of `_components` is named by `_tree_label` if it is a tree
    (its degrees sum to 2 (size - 1)) with at most one node of degree 3,
    none of higher degree, and at most one directed edge (i, j) with
    a_ij != -1, so a bond whose -2 or -3 sits on the far side is found from
    that side.  A failing component is named in the numbering of the matrix
    without `deleted`."""
    factors = []
    for comp in _components(edges, (v for v in range(len(entries)) if v != deleted)):
        degrees = [len(edges[x]) for x in comp]
        branch = [x for x, d in zip(comp, degrees) if d > 2]
        bond = [(x, u) for x in comp for u in edges[x] if entries[x][u] != -1]
        label = None
        if sum(degrees) == 2 * len(comp) - 2 and max(degrees) <= 3 and len(branch) <= 1 and len(bond) <= 1:
            label = _tree_label(entries, edges, len(comp), (branch or [None])[0], (bond or [None])[0])
        if label is None:
            if deleted is not None:
                comp = tuple(u - (u > deleted) for u in comp)
            raise NotFiniteTypeError(f"component {comp} matches no finite-type diagram")
        factors.append(label)
    return DecompositionLabel(tuple(factors))


@lru_cache(maxsize=None)
def _type_label(family: str, rank: int) -> TypeLabel:
    """One shared label per (family, rank), so a sweep of deletions checks
    each label once."""
    return TypeLabel(family, rank)


def _tree_label(
    entries: Sequence[Sequence[int]],
    edges: Sequence[Sequence[int]],
    size: int,
    branch: int | None,
    bond: tuple[int, int] | None,
) -> TypeLabel | None:
    """Label of a tree of `size` nodes with at most one node of degree 3,
    `branch`, and at most one directed edge (i, j) with a_ij != -1, `bond`.
    That bond has multiplicity a_ij * a_ji = -a_ij, and its node j is the
    short one."""
    if branch is not None:
        # Simply laced, with arms of lengths (1, 1, n - 3) for D_n and
        # (1, 2, n - 4) for E_n.
        if bond is not None:
            return None
        arms = edges[branch]
        leaves = [len(edges[u]) for u in arms].count(1)
        if leaves >= 2:
            return _type_label("D", size)
        if leaves == 1 and size in (6, 7, 8):
            for u in arms:
                ends = edges[u]
                if len(ends) == 2 and len(edges[ends[ends[0] == branch]]) == 1:
                    return _type_label("E", size)
        return None
    if bond is None:
        return _type_label("A", size)
    long, short = bond
    multiplicity = -entries[long][short]
    if multiplicity == 3:
        return _type_label("G", 2) if size == 2 else None
    if multiplicity != 2:
        return None
    if size == 2:
        return _type_label("B", 2)
    # B_n ends in its one short node, C_n in its one long node, and F4 has
    # its bond in the middle.
    if len(edges[short]) == 1:
        return _type_label("B", size)
    if len(edges[long]) == 1:
        return _type_label("C", size)
    return _type_label("F", 4) if size == 4 else None


def classify(cartan: CartanMatrix) -> DecompositionLabel:
    """Decompose into irreducible factors, canonically labeled, from the
    shape of each component (see `_classify`).

    Rank-2 double-bond components are reported as B2.  The empty matrix
    classifies as the trivial decomposition.
    """
    return _classify(cartan.entries, cartan.edges)


class MarkedDiagram(namedtuple("MarkedDiagram", "cartan marks")):
    """Extended diagram: Cartan matrix of size rank+1 with the added node at
    index 0, plus the coordinates of the added root in the original basis
    (the marks, all strictly negative)."""

    __slots__ = ()

    def __new__(cls, cartan: CartanMatrix, marks: tuple[int, ...]) -> MarkedDiagram:
        if cartan.size != len(marks) + 1:
            raise ValueError("marks length must be rank of the base diagram")
        if any(m >= 0 for m in marks):
            raise ValueError("marks must be strictly negative")
        return tuple.__new__(cls, (cartan, marks))

    @property
    def rank(self) -> int:
        return self.cartan.size - 1


def extend(label: TypeLabel) -> MarkedDiagram:
    """Adjoin the negative of the highest root theta as node 0.

    theta is the one dominant root among the long roots, which form one Weyl
    group orbit (Humphreys, Introduction to Lie Algebras and Representation
    Theory, 10.4 and 13.2).  So it is found by dominance ascent: start at a
    long simple root b, the long end of the multiple bond (the node whose row
    holds the -2 or -3) or node 1 if the diagram is simply laced, and while
    some pairing p_j = <b, a_j^vee> is negative, reflect b to b - p_j a_j,
    which raises its height.  A step changes only the pairings of node j and
    its neighbours.

    The final pairings p_j = <theta, a_j^vee> give row 0 = (2, -p_1, ...,
    -p_n).  Column 0 holds 2 (a_j, -theta) / (theta, theta) = -<a_j,
    theta^vee>.  As theta is long and dominant, <a_j, theta^vee> is 1 where
    p_j > 0 and 0 elsewhere, except at A1, where a_1 = theta and it is 2
    (Humphreys, 9.4 and 10.4)."""
    base = cartan_of_type(label)
    a = base.entries
    start = next((i for i, row in enumerate(a) if min(row) < -1), 0)
    theta = [0] * base.size
    theta[start] = 1
    pair = list(a[start])
    stack = [j for j in base.edges[start] if pair[j] < 0]
    while stack:
        j = stack.pop()
        p = pair[j]
        if p >= 0:
            continue
        theta[j] -= p
        pair[j] = -p
        for k in base.edges[j]:
            pair[k] -= p * a[j][k]
            if pair[k] < 0:
                stack.append(k)
    entries = [(2, *(-p for p in pair))]
    coroot = 2 if base.size == 1 else 1
    entries += [(-coroot if p else 0, *row) for row, p in zip(a, pair)]
    marks = tuple(-t for t in theta)
    # Column 0 is nonzero where row 0 is: node 0 joins the nodes j with p_j != 0.
    edges = [tuple(j for j, p in enumerate(pair, 1) if p)]
    edges += [((0,) if p else ()) + tuple(k + 1 for k in row) for p, row in zip(pair, base.edges)]
    return MarkedDiagram(CartanMatrix._make((tuple(entries), tuple(edges))), marks)


def classify_deletion(diagram: MarkedDiagram, node: int) -> DecompositionLabel:
    """Classification of the diagram without one node (0 is the added node),
    without building the smaller matrix: it reads the extended diagram's
    entries and edge lists, of which only the deleted node's neighbours
    change."""
    if not 0 <= node <= diagram.rank:
        raise IndexError(f"node {node} out of range 0..{diagram.rank}")
    cartan = diagram.cartan
    edges = list(cartan.edges)
    for u in edges[node]:
        edges[u] = tuple(v for v in edges[u] if v != node)
    return _classify(cartan.entries, edges, node)


def classify_deletions(diagram: MarkedDiagram) -> tuple[DecompositionLabel, ...]:
    """`classify_deletion` of every node, in node order, from one walk.

    If the diagram is a tree, one preorder from node 0 gives each node's
    parent, preorder index and subtree size.  Deleting v leaves v's child
    subtrees, each a run of the preorder, and the rest of the tree outside
    v's own run, so no component is walked.  The nodes of degree 3 or more
    and the directed multiple bonds are listed once, and each is placed in
    its component by its preorder index.  If the diagram is one cycle of
    simple bonds, it is affine A_{n-1} on n nodes and each deletion leaves
    A_{n-1}.  Any other diagram, and any deletion
    that leaves a component `_tree_label` cannot name, goes to
    `classify_deletion`, which names the failing component."""
    cartan = diagram.cartan
    entries, edges = cartan.entries, cartan.edges
    n = cartan.size
    degree = list(map(len, edges))
    bonds = [(x, u) for x, row in enumerate(entries) for u in edges[x] if row[u] != -1]
    parent = [-1] * n
    seen = bytearray(n)
    seen[0] = 1
    # Depth first from node 0; on a tree each subtree is a run of `order`.
    order = []
    stack = [0]
    while stack:
        x = stack.pop()
        order.append(x)
        for u in edges[x]:
            if not seen[u]:
                seen[u] = 1
                parent[u] = x
                stack.append(u)
    if len(order) == n and not bonds and degree.count(2) == n:
        return (DecompositionLabel((_type_label("A", n - 1),)),) * n
    if len(order) < n or sum(degree) != 2 * n - 2:
        return tuple(classify_deletion(diagram, v) for v in range(n))
    pre = [0] * n
    for i, x in enumerate(order):
        pre[x] = i
    size = [1] * n
    for x in reversed(order[1:]):
        size[parent[x]] += size[x]
    # Nodes of degree 3 or more, as (x, None), and directed multiple bonds.
    specials = [(x, None) for x in range(n) if degree[x] > 2] + bonds
    # The edge lists with node v deleted: only v's neighbours change.
    short = list(edges)
    labels = []
    for v in range(n):
        up = parent[v]
        kids = [u for u in edges[v] if u != up]
        # The components: v's child subtrees, then the rest of the tree.
        sizes = [size[c] for c in kids]
        if up >= 0:
            sizes.append(n - size[v])
        branch: list[int | None] = [None] * len(sizes)
        bond: list[tuple[int, int] | None] = [None] * len(sizes)
        start, stop = pre[v], pre[v] + size[v]
        finite = True
        for x, u in specials:
            if v == x or v == u:
                continue
            p = pre[x]
            k = len(kids)
            if start < p < stop:
                k = 0
                while not 0 <= p - pre[kids[k]] < size[kids[k]]:
                    k += 1
            if u is None:
                # In a tree, x and v are adjacent iff one is the other's parent.
                d = degree[x] - (x == up or parent[x] == v)
                if d > 2:
                    finite = finite and d == 3 and branch[k] is None
                    branch[k] = x
            else:
                finite = finite and bond[k] is None
                bond[k] = (x, u)
        factors = []
        if finite:
            for u in edges[v]:
                short[u] = tuple(w for w in edges[u] if w != v)
            for s, b, bd in zip(sizes, branch, bond):
                label = _type_label("A", s) if b is None and bd is None else _tree_label(entries, short, s, b, bd)
                if label is None:
                    finite = False
                    break
                factors.append(label)
            for u in edges[v]:
                short[u] = edges[u]
        labels.append(DecompositionLabel(tuple(factors)) if finite else classify_deletion(diagram, v))
    return tuple(labels)
